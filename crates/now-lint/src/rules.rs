//! The rule set: what this workspace's determinism contract forbids.
//!
//! Everything the reproduction claims — pooled ≡ sequential
//! execution, byte-identical campaign reports across thread counts,
//! replayable `EventNet` runs — rests on one invariant: *no
//! nondeterminism source ever enters a deterministic code path*. Each
//! rule below names one way that invariant has been (or could be)
//! broken, and the engine flags it at lint time instead of leaving it
//! to be bisected out of a million-node campaign:
//!
//! | rule | forbids | where it binds |
//! |------|---------|----------------|
//! | D001 | `HashMap` / `HashSet` (iteration-order nondeterminism) | all non-test code |
//! | D002 | `Instant::now` / `SystemTime` (wall clock) | non-test lib code; `x_*` bins are exempt; the one sanctioned library site is `now_trace::stopwatch` (`crates/now-trace/src/profile.rs`, allowlisted) |
//! | D003 | thread spawning outside the `WavePool` machinery | all non-test code |
//! | D004 | ambient entropy (`thread_rng`, `rand::random`, `OsRng`, …) | everywhere, tests included |
//! | S001 | `unsafe` without a preceding `// SAFETY:` comment | everywhere |

use crate::tokenizer::{TokKind, Token};
use now_trace::Json;

/// Where a file sits in the workspace; decides which rules bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src`, root `src/`): the deterministic
    /// core. Every rule binds.
    Prod,
    /// Integration tests (`tests/`, `crates/*/tests`): deterministic
    /// rules still matter (seeded RNG only!) but test-only structures
    /// and timing are fine.
    TestOnly,
    /// Experiment binaries (`crates/*/src/bin`, the `x_*` tools): emit
    /// byte-diffed JSON, so determinism rules bind, but they are the
    /// allow-listed wall-clock measurement sites.
    Bin,
    /// `examples/`: treated like binaries.
    Example,
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// The canonical `file:line rule message` report line.
    pub fn render(&self) -> String {
        format!("{}:{} {} {}", self.path, self.line, self.rule, self.message)
    }

    /// The finding as a JSON row of the `--json` report.
    pub fn json(&self) -> Json {
        Json::object([
            ("path", self.path.as_str().into()),
            ("line", u64::from(self.line).into()),
            ("rule", self.rule.into()),
            ("message", self.message.as_str().into()),
        ])
    }
}

/// All rule ids the allowlist may reference (L001 is emitted by the
/// driver for stale allowlist entries and cannot itself be allowed).
pub const RULE_IDS: &[&str] = &[
    "D001", "D002", "D003", "D004", "D005", "S001", "P001", "L002", "API001",
];

/// Hash-based collections whose iteration order is randomized per
/// process (`RandomState`) — poison for byte-identical reports.
const D001_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Ambient-entropy entry points. `DetRng` substreams are the only
/// approved randomness source, in tests included: a test drawing OS
/// entropy is a test that cannot be replayed.
const D004_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// How many tokens S001 walks back looking for the `// SAFETY:` group
/// before giving up (bounds pathological files; a real safety comment
/// sits within a handful of attribute/statement tokens of its
/// `unsafe`).
const S001_LOOKBACK: usize = 64;

fn next_noncomment(tokens: &[Token], mut i: usize) -> Option<&Token> {
    loop {
        i += 1;
        match tokens.get(i) {
            Some(t) if t.kind == TokKind::Comment => continue,
            other => return other,
        }
    }
}

fn prev_noncomment(tokens: &[Token], i: usize) -> Option<&Token> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if tokens[j].kind != TokKind::Comment {
            return Some(&tokens[j]);
        }
    }
    None
}

/// S001: walk back from the `unsafe` token, through its statement head
/// and any attributes, to the nearest comment group; pass if any
/// comment in the group says `SAFETY:`. A `;`, `{` or `}` before any
/// comment means the previous statement ended without one.
fn has_safety_comment(tokens: &[Token], unsafe_idx: usize) -> bool {
    let mut j = unsafe_idx;
    let mut steps = 0usize;
    let mut seen_comment = false;
    while j > 0 && steps < S001_LOOKBACK {
        j -= 1;
        steps += 1;
        match tokens[j].kind {
            TokKind::Comment => {
                seen_comment = true;
                if tokens[j].text.contains("SAFETY:") {
                    return true;
                }
            }
            // Once inside a comment group, a non-comment token ends it.
            _ if seen_comment => return false,
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return false,
            _ => {}
        }
    }
    false
}

/// Runs every rule over one file's marked token stream.
pub fn lint_tokens(path: &str, class: FileClass, tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        let test_code = tok.in_test || class == FileClass::TestOnly;

        // D001 — hash collections in deterministic code.
        if !test_code && D001_TYPES.contains(&name) {
            push(
                tok.line,
                "D001",
                format!(
                    "{name} iterates in RandomState order; use BTreeMap/BTreeSet (or a sorted \
                     Vec) so every traversal is canonical"
                ),
            );
        }

        // D002 — wall clock in deterministic code. The x_* bins measure
        // time by design; library code must route advisory
        // measurement through `now_trace::stopwatch`, whose home
        // (crates/now-trace/src/profile.rs) is the one allowlisted site.
        if !test_code && class != FileClass::Bin {
            let instant_now = name == "Instant"
                && next_noncomment(tokens, i).is_some_and(|t| t.is_punct(':'))
                && tokens
                    .iter()
                    .skip(i + 1)
                    .filter(|t| t.kind != TokKind::Comment)
                    .nth(2)
                    .is_some_and(|t| t.is_ident("now"));
            if instant_now {
                push(
                    tok.line,
                    "D002",
                    "Instant::now reads the wall clock; deterministic paths must derive time \
                     from the step counter — advisory measurement goes through \
                     now_trace::stopwatch (the one allowlisted site) or x_* bins"
                        .to_string(),
                );
            }
            if name == "SystemTime" {
                push(
                    tok.line,
                    "D002",
                    "SystemTime reads the wall clock; deterministic paths must not observe \
                     real time"
                        .to_string(),
                );
            }
        }

        // D003 — thread spawning outside the WavePool machinery.
        if !test_code
            && name == "spawn"
            && next_noncomment(tokens, i).is_some_and(|t| t.is_punct('('))
        {
            push(
                tok.line,
                "D003",
                "thread spawning outside WavePool: all workers must come from the pool so \
                 spawn accounting and cross-thread determinism gates hold"
                    .to_string(),
            );
        }

        // D004 — ambient entropy. Binds everywhere, tests included.
        if D004_IDENTS.contains(&name) {
            push(
                tok.line,
                "D004",
                format!("{name} draws OS entropy; all randomness must come from seeded DetRng substreams"),
            );
        }
        if name == "random"
            && prev_noncomment(tokens, i).is_some_and(|t| t.is_punct(':'))
            && i >= 2
            && tokens
                .iter()
                .take(i)
                .filter(|t| t.kind != TokKind::Comment)
                .rev()
                .nth(2)
                .is_some_and(|t| t.is_ident("rand"))
        {
            push(
                tok.line,
                "D004",
                "rand::random draws from the thread-local OS-seeded RNG; use a DetRng substream"
                    .to_string(),
            );
        }

        // S001 — unsafe without a SAFETY comment. Binds everywhere:
        // an unexplained unsafe in a test is still an unexplained
        // soundness obligation.
        if name == "unsafe" && !has_safety_comment(tokens, i) {
            push(
                tok.line,
                "S001",
                "unsafe without a preceding `// SAFETY:` comment documenting why the \
                 invariants hold"
                    .to_string(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::mark_test_scopes;
    use crate::tokenizer::tokenize;

    fn lint(class: FileClass, src: &str) -> Vec<Finding> {
        let mut toks = tokenize(src);
        mark_test_scopes(&mut toks);
        lint_tokens("mem.rs", class, &toks)
    }

    fn rules(class: FileClass, src: &str) -> Vec<&'static str> {
        lint(class, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d002_requires_the_now_call() {
        // A stored Instant value (e.g. a field type) is not the read.
        assert!(rules(FileClass::Prod, "struct T { t: Instant }").is_empty());
        assert_eq!(rules(FileClass::Prod, "let t = Instant::now();"), ["D002"]);
        // Comments between the path segments don't hide the call.
        assert_eq!(
            rules(FileClass::Prod, "let t = Instant::/*x*/now();"),
            ["D002"]
        );
    }

    #[test]
    fn d002_exempts_bins() {
        let src = "let t = Instant::now();";
        assert!(rules(FileClass::Bin, src).is_empty());
        assert_eq!(rules(FileClass::Example, src), ["D002"]);
    }

    #[test]
    fn d003_needs_a_call_site() {
        assert_eq!(rules(FileClass::Prod, "scope.spawn(|| work());"), ["D003"]);
        assert_eq!(rules(FileClass::Prod, "std::thread::spawn(f);"), ["D003"]);
        // The word in other positions (e.g. a field or fn name being
        // defined without call syntax) is not a spawn call.
        assert!(rules(FileClass::Prod, "let spawn = 3; use_it(spawn);").is_empty());
    }

    #[test]
    fn d004_binds_in_tests_too() {
        assert_eq!(
            rules(FileClass::TestOnly, "let r = thread_rng();"),
            ["D004"]
        );
        assert_eq!(
            rules(FileClass::Prod, "let x = rand::random::<u64>();"),
            ["D004"]
        );
        // `random` as a plain name (no rand:: path) is fine.
        assert!(rules(FileClass::Prod, "let random = 4; f(random);").is_empty());
    }

    #[test]
    fn s001_accepts_comment_groups_and_attributes() {
        let ok = "// SAFETY: the pointees outlive the call.\n\
                  // (second line of the group)\n\
                  #[allow(unsafe_code)]\n\
                  let x = unsafe { *p };";
        assert!(rules(FileClass::Prod, ok).is_empty());
        let missing = "let y = 1;\nlet x = unsafe { *p };";
        assert_eq!(rules(FileClass::Prod, missing), ["S001"]);
        // A comment group whose text lacks the marker does not count.
        let wrong = "// this is fine, trust me\nlet x = unsafe { *p };";
        assert_eq!(rules(FileClass::Prod, wrong), ["S001"]);
    }

    #[test]
    fn s001_statement_boundary_cuts_the_search() {
        // The SAFETY comment belongs to the *previous* statement; the
        // second unsafe crossed a `;` before reaching any comment.
        let src = "// SAFETY: covered.\nlet a = unsafe { f() };\nlet b = unsafe { g() };";
        assert_eq!(rules(FileClass::Prod, src), ["S001"]);
    }

    #[test]
    fn test_scoped_code_is_exempt_from_determinism_rules() {
        let src = "#[cfg(test)]\nmod tests { use std::collections::HashMap;\n\
                   fn t() { scope.spawn(|| {}); let i = Instant::now(); } }";
        assert!(rules(FileClass::Prod, src).is_empty());
    }

    #[test]
    fn d001_fires_outside_test_scope() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }";
        assert_eq!(rules(FileClass::Prod, src), ["D001", "D001"]);
    }
}
