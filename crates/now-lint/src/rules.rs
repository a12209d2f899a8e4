//! The token rule: P001, unjustified panic sites in library code.
//!
//! The determinism contract (hash collections, wall clock, threads,
//! OS entropy, libm) and `unsafe` are the compiler's and clippy's job:
//! `crates/clippy.toml` and the root `Cargo.toml`'s `[workspace.lints]`
//! table reject them in every target. What no compiler lint asks is
//! *why* a panic-capable site cannot fire, so this rule does:
//!
//! | rule | forbids | where it binds |
//! |------|---------|----------------|
//! | P001 | panic-capable sites (`.unwrap()` / `.expect(` / `panic!`-family / *computed* slice indexing) without a `// INVARIANT:` justification in the statement head | non-test library code |
//!
//! The justification is found by one walk-back: from the flagged
//! token, walk back through its statement head to the nearest comment
//! group; any comment in the group carrying `INVARIANT:` justifies
//! every panic-capable site in that statement. *Computed* indexing
//! means the bracket content carries arithmetic, a literal offset, a
//! range, or a `&`-keyed map lookup — the shapes that hold an
//! off-by-one. A plain single-path index (`v[i]`, `slab[idx.pos]`) is
//! exempt: bounded-loop iteration and slab-slot access are this
//! codebase's documented deliberate-panic idioms, and flagging them
//! would bury the real findings in noise.

use crate::tokenizer::{TokKind, Token};

/// Where a file sits in the workspace; decides whether P001 binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src` outside `src/bin/`, root `src/`):
    /// the code a run executes. P001 binds outside test-gated items.
    Prod,
    /// Everything else (`tests/`, `src/bin/`, `examples/`): these may
    /// panic on bad input, so P001 does not bind.
    Other,
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

/// Panic-family macros: `name!(…)` panics unconditionally when reached.
const P001_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How many tokens the P001 walk-back looks for its comment group
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

/// The P001 walk-back: from the token at `i`, through its
/// statement head and any attributes, to the nearest comment group;
/// true if any comment in the group contains `INVARIANT:`. A `;`, `{` or
/// `}` before any comment means the previous statement ended without
/// one.
fn has_invariant_comment(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    let mut steps = 0usize;
    let mut seen_comment = false;
    while j > 0 && steps < LOOKBACK {
        j -= 1;
        steps += 1;
        match tokens[j].kind {
            TokKind::Comment => {
                seen_comment = true;
                if tokens[j].text.contains("INVARIANT:") {
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

/// Runs P001 over one file's marked token stream: nothing outside
/// library code, nothing in test-gated items.
pub(crate) fn lint_tokens(path: &str, class: FileClass, tokens: &[Token]) -> Vec<Finding> {
    if class != FileClass::Prod {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate().filter(|(_, t)| !t.in_test) {
        let name = tok.text.as_str();
        let next = next_noncomment(tokens, i);
        let what = if tok.is_punct('[') && is_computed_index(tokens, i) {
            "computed slice indexing".to_string()
        } else if tok.kind != TokKind::Ident {
            continue;
        } else if (name == "unwrap" || name == "expect")
            && prev_noncomment(tokens, i).is_some_and(|t| t.is_punct('.'))
            && next.is_some_and(|t| t.is_punct('('))
        {
            format!(".{name}()")
        } else if P001_MACROS.contains(&name) && next.is_some_and(|t| t.is_punct('!')) {
            format!("{name}!")
        } else {
            continue;
        };
        if !has_invariant_comment(tokens, i) {
            out.push(Finding {
                path: path.to_string(),
                line: tok.line,
                rule: "P001",
                message: p001_message(&what),
            });
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
        // The walk-back stops at `{`, so inside a match arm
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
        assert!(rules(FileClass::Other, "fn f() { x.unwrap(); }").is_empty());
        let gated = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(rules(FileClass::Prod, gated).is_empty());
    }
}
