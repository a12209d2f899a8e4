//! The token rules: what this workspace's determinism-and-safety
//! contract forbids, one token stream at a time.
//!
//! Everything the reproduction claims — a forked run ≡ the unforked
//! one, byte-identical campaign reports, replayable `EventNet` runs — rests
//! on one invariant: *no
//! nondeterminism source ever enters a deterministic code path*. Each
//! D rule below names one way that invariant has been (or could be)
//! broken, and the engine flags it at lint time instead of leaving it
//! to be bisected out of a million-node campaign; S001 and P001 ask
//! every site that can break memory safety or abort a run to say why
//! it cannot:
//!
//! | rule | forbids | where it binds |
//! |------|---------|----------------|
//! | D001 | `HashMap` / `HashSet` (iteration-order nondeterminism) | all non-test code |
//! | D002 | `Instant::now` / `SystemTime` (wall clock) | non-test lib code; `x_*` bins are exempt; the one sanctioned library site is `now_trace::stopwatch` (`D002_SANCTIONED_FILE`) |
//! | D003 | thread spawning (every step runs on the driving thread) | all non-test code |
//! | D004 | ambient entropy (`thread_rng`, `rand::random`, `OsRng`, …) | everywhere, tests included |
//! | S001 | `unsafe` without a preceding `// SAFETY:` comment | everywhere |
//! | P001 | panic-capable sites (`.unwrap()` / `.expect(` / `panic!`-family / *computed* slice indexing) without a `// INVARIANT:` justification in the statement head | Prod-class non-test code |
//!
//! **S001** and **P001** share one walk-back: from the flagged token,
//! walk back through its statement head to the nearest comment group;
//! any comment in the group carrying the rule's marker (`SAFETY:`,
//! `INVARIANT:`) justifies the site, and for P001 every panic-capable
//! site in that statement. *Computed* indexing means the bracket
//! content carries arithmetic, a literal offset, a range, or a
//! `&`-keyed map lookup — the shapes that hold an off-by-one. A plain
//! single-path index (`v[i]`, `slab[idx.pos]`) is exempt: bounded-loop
//! iteration and slab-slot access are this codebase's documented
//! deliberate-panic idioms, and flagging them would bury the real
//! findings in noise.

use crate::tokenizer::{TokKind, Token};

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
    /// byte-diffed JSON, so determinism rules bind, but they measure
    /// wall-clock time by design and are exempt from D002.
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
}

/// Hash-based collections whose iteration order is randomized per
/// process (`RandomState`) — poison for byte-identical reports.
const D001_TYPES: &[&str] = &["HashMap", "HashSet"];

/// The one sanctioned wall-clock site, exempt from D002:
/// `now_trace::stopwatch`, behind which every advisory measurement
/// (`BatchReport::wall_nanos`) routes. Its readings
/// are excluded from all byte-diffed artifacts and never fed back into
/// deterministic state.
pub(crate) const D002_SANCTIONED_FILE: &str = "crates/now-trace/src/profile.rs";

/// Ambient-entropy entry points. `DetRng` substreams are the only
/// approved randomness source, in tests included: a test drawing OS
/// entropy is a test that cannot be replayed.
const D004_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Panic-family macros: `name!(…)` panics unconditionally when reached.
const P001_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How many tokens the S001/P001 walk-back looks for its comment group
/// before giving up (bounds pathological files; a real justification
/// sits within a handful of attribute/statement tokens of its site).
const LOOKBACK: usize = 64;

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

/// The S001/P001 walk-back: from the token at `i`, through its
/// statement head and any attributes, to the nearest comment group;
/// true if any comment in the group contains `marker`. A `;`, `{` or
/// `}` before any comment means the previous statement ended without
/// one.
fn has_marker_comment(tokens: &[Token], i: usize, marker: &str) -> bool {
    let mut j = i;
    let mut steps = 0usize;
    let mut seen_comment = false;
    while j > 0 && steps < LOOKBACK {
        j -= 1;
        steps += 1;
        match tokens[j].kind {
            TokKind::Comment => {
                seen_comment = true;
                if tokens[j].text.contains(marker) {
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

/// True when `[` at `i` opens a *computed* index expression: postfix
/// position (previous code token is an identifier, `]` or `)`) and the
/// bracket content carries arithmetic, a numeric literal, a range, or a
/// `&`-keyed map lookup. The bare full-range `[..]` cannot panic and is
/// exempt.
fn is_computed_index(tokens: &[Token], i: usize) -> bool {
    let postfix = matches!(
        prev_noncomment(tokens, i).map(|t| &t.kind),
        Some(TokKind::Ident) | Some(TokKind::Punct(']')) | Some(TokKind::Punct(')'))
    );
    if !postfix {
        return false;
    }
    // Scan the bracket content (depth 1 = directly inside our `[ ]`).
    let mut depth = 1usize;
    let mut j = i + 1;
    let mut computed = false;
    let mut nonrange_tokens = 0usize;
    let mut prev_was_dot = false;
    let mut first = true;
    while j < tokens.len() && depth > 0 {
        let tok = &tokens[j];
        j += 1;
        match &tok.kind {
            TokKind::Comment => continue,
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                continue;
            }
            TokKind::Punct('.') => {
                if prev_was_dot {
                    computed = true; // `..` range
                    prev_was_dot = false;
                    first = false;
                    continue;
                }
                prev_was_dot = true;
                first = false;
                continue;
            }
            TokKind::Punct(c) if "+-*/%".contains(*c) => {
                computed = true;
                nonrange_tokens += 1;
            }
            TokKind::Punct('&') if first => {
                computed = true; // `m[&key]` map lookup
                nonrange_tokens += 1;
            }
            TokKind::Num => {
                computed = true;
                nonrange_tokens += 1;
            }
            _ => nonrange_tokens += 1,
        }
        prev_was_dot = false;
        first = false;
    }
    // `[..]` alone: two dots, nothing else — never panics.
    computed && nonrange_tokens > 0
}

/// The P001 message for one unjustified panic-capable site.
fn p001_message(what: &str) -> String {
    format!(
        "{what} on a driving path without a `// INVARIANT:` justification in the \
         statement head — document why it cannot fire, or return a typed NowError"
    )
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
        // P001 binds non-test library code only: bins, examples and
        // tests may panic on bad input.
        let panic_audit = class == FileClass::Prod && !tok.in_test;
        if panic_audit
            && tok.is_punct('[')
            && is_computed_index(tokens, i)
            && !has_marker_comment(tokens, i, "INVARIANT:")
        {
            push(tok.line, "P001", p001_message("computed slice indexing"));
        }
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
        // measurement through `now_trace::stopwatch`, whose home is
        // the one sanctioned site.
        if !test_code && class != FileClass::Bin && path != D002_SANCTIONED_FILE {
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
                     now_trace::stopwatch (the one sanctioned site) or x_* bins"
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

        // D003 — thread spawning. No state is shared across threads.
        if !test_code
            && name == "spawn"
            && next_noncomment(tokens, i).is_some_and(|t| t.is_punct('('))
        {
            push(
                tok.line,
                "D003",
                "thread spawning: every step runs on the driving thread, so a run's outcome \
                 can never depend on a thread schedule"
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
        if name == "unsafe" && !has_marker_comment(tokens, i, "SAFETY:") {
            push(
                tok.line,
                "S001",
                "unsafe without a preceding `// SAFETY:` comment documenting why the \
                 invariants hold"
                    .to_string(),
            );
        }

        // P001 — panic-capable calls and macros.
        if panic_audit {
            let next = next_noncomment(tokens, i);
            let what = if (name == "unwrap" || name == "expect")
                && prev_noncomment(tokens, i).is_some_and(|t| t.is_punct('.'))
                && next.is_some_and(|t| t.is_punct('('))
            {
                Some(format!(".{name}()"))
            } else if P001_MACROS.contains(&name) && next.is_some_and(|t| t.is_punct('!')) {
                Some(format!("{name}!"))
            } else {
                None
            };
            if let Some(what) = what {
                if !has_marker_comment(tokens, i, "INVARIANT:") {
                    push(tok.line, "P001", p001_message(&what));
                }
            }
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
    fn sanctioned_files_skip_only_their_own_rule() {
        let src = "fn f() { let t = Instant::now(); std::thread::spawn(g); }";
        let rules_at = |path: &str| -> Vec<&'static str> {
            let mut toks = tokenize(src);
            mark_test_scopes(&mut toks);
            lint_tokens(path, FileClass::Prod, &toks)
                .into_iter()
                .map(|f| f.rule)
                .collect()
        };
        assert_eq!(rules_at(D002_SANCTIONED_FILE), ["D003"]);
        assert_eq!(rules_at("crates/now-trace/src/lib.rs"), ["D002", "D003"]);
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

    #[test]
    fn p001_flags_unwrap_without_invariant() {
        assert_eq!(rules(FileClass::Prod, "fn f() { x.unwrap(); }"), ["P001"]);
        assert_eq!(
            rules(FileClass::Prod, "fn f() { x.expect(\"reason\"); }"),
            ["P001"]
        );
        assert!(rules(
            FileClass::Prod,
            "fn f() {\n// INVARIANT: x was checked non-empty above.\nx.unwrap(); }"
        )
        .is_empty());
    }

    #[test]
    fn p001_one_invariant_covers_the_statement() {
        let src = "fn f() {\n// INVARIANT: both live, see wave contract.\n\
                   let v = a.unwrap() + b.expect(\"x\"); }";
        assert!(rules(FileClass::Prod, src).is_empty());
    }

    #[test]
    fn p001_statement_boundary_cuts_the_walkback() {
        let src = "fn f() {\n// INVARIANT: covers only the first.\nlet a = x.unwrap();\n\
                   let b = y.unwrap(); }";
        assert_eq!(rules(FileClass::Prod, src), ["P001"]);
    }

    #[test]
    fn p001_flags_panic_macros() {
        assert_eq!(
            rules(FileClass::Prod, "fn f() { panic!(\"boom\"); }"),
            ["P001"]
        );
        assert_eq!(
            rules(
                FileClass::Prod,
                "fn f() { match x { _ => unreachable!() } }"
            ),
            ["P001"]
        );
        // The walk-back stops at `{` like S001's, so inside a match arm
        // the justification sits at the arm, not above the `match`.
        assert!(rules(
            FileClass::Prod,
            "fn f() { match x { _ =>\n// INVARIANT: enum is exhaustive without this arm.\n\
             unreachable!() } }"
        )
        .is_empty());
    }

    #[test]
    fn p001_computed_indexing_only() {
        // Plain loop/slab indices are the documented deliberate-panic
        // idiom — exempt.
        assert!(rules(FileClass::Prod, "fn f() { let x = v[i]; }").is_empty());
        assert!(rules(FileClass::Prod, "fn f() { let x = slab[idx.pos]; }").is_empty());
        // Arithmetic, literal, range, and map-key shapes are flagged.
        assert_eq!(
            rules(FileClass::Prod, "fn f() { let x = v[i + 1]; }"),
            ["P001"]
        );
        assert_eq!(rules(FileClass::Prod, "fn f() { let x = v[0]; }"), ["P001"]);
        assert_eq!(
            rules(FileClass::Prod, "fn f() { let s = &v[1..n]; }"),
            ["P001"]
        );
        assert_eq!(
            rules(FileClass::Prod, "fn f() { let x = m[&key]; }"),
            ["P001"]
        );
        // The bare full-range slice cannot panic.
        assert!(rules(FileClass::Prod, "fn f() { let s = &v[..]; }").is_empty());
        // Array literals and types are not postfix indexing.
        assert!(rules(
            FileClass::Prod,
            "fn f() { let a = [1, 2]; let b: [u8; 4] = x; }"
        )
        .is_empty());
    }

    #[test]
    fn p001_binds_only_in_prod_nontest() {
        assert!(rules(FileClass::TestOnly, "fn f() { x.unwrap(); }").is_empty());
        assert!(rules(FileClass::Bin, "fn f() { x.unwrap(); }").is_empty());
        let gated = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(rules(FileClass::Prod, gated).is_empty());
    }
}
