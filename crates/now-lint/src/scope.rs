//! Marks tokens that live inside test-gated items.
//!
//! P001 binds only *non-test* code: an `.unwrap()` inside
//! `#[cfg(test)] mod tests { … }` can only fail a test, never a run.
//! This pass walks the token stream once and flags every token covered
//! by a test-gating attribute:
//!
//! * `#[test]` (the bare attribute),
//! * `#[cfg(test)]` and any `cfg(…)` that *mentions* `test` without a
//!   `not`, e.g. `#[cfg(any(test, feature = "x"))]`;
//! * `#[cfg(not(test))]` is deliberately **not** gating — that item
//!   compiles into production binaries.
//!
//! The gated item is the attribute's target: scan past any further
//! attributes and doc comments, then consume either up to a `;` at
//! nesting depth zero (e.g. `#[cfg(test)] use …;`) or one balanced
//! `{ … }` block (modules, fns, impls). Nested test modules inside an
//! already-gated region are simply re-marked — marking is idempotent.

use crate::tokenizer::{TokKind, Token};

/// Returns the index one past the attribute's closing `]`, plus whether
/// the attribute gates test-only code. `i` points at the `#`.
fn scan_attribute(tokens: &[Token], i: usize) -> (usize, bool) {
    let mut j = i + 1;
    // Inner attributes (`#![…]`) configure the enclosing scope; we skip
    // them without gating (a file-wide `#![cfg(test)]` does not occur
    // in this workspace and whole-file gating is the classifier's job).
    let inner = tokens.get(j).is_some_and(|t| t.is_punct('!'));
    if inner {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return (i + 1, false); // a lone `#` (raw string edge); move on
    }
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            TokKind::Ident => idents.push(&tokens[j].text),
            _ => {}
        }
        j += 1;
    }
    if inner {
        return (j, false);
    }
    let has = |name: &str| idents.contains(&name);
    // INVARIANT: `idents[0]` is guarded by the `len() == 1` check.
    let gating =
        (idents.len() == 1 && idents[0] == "test") || (has("cfg") && has("test") && !has("not"));
    (j, gating)
}

/// Marks `in_test` over the item that starts at token `i` (first token
/// after the gating attribute and its trailing attributes/comments).
/// Returns the index one past the item.
fn mark_item(tokens: &mut [Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < tokens.len() {
        tokens[i].in_test = true;
        match tokens[i].kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 && tokens[i].kind == TokKind::Punct('}') {
                    return i + 1;
                }
            }
            TokKind::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// The pass: flags every token belonging to a test-gated item.
pub(crate) fn mark_test_scopes(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let (mut j, gating) = scan_attribute(tokens, i);
            if gating {
                // Consume any further attributes / comments between the
                // gate and its item (`#[cfg(test)] #[allow(…)] mod t`).
                loop {
                    while tokens.get(j).is_some_and(|t| t.kind == TokKind::Comment) {
                        j += 1;
                    }
                    if tokens.get(j).is_some_and(|t| t.is_punct('#')) {
                        let (next, _) = scan_attribute(tokens, j);
                        j = next;
                    } else {
                        break;
                    }
                }
                // Mark the attribute span itself, then the item.
                for t in tokens.iter_mut().take(j).skip(i) {
                    t.in_test = true;
                }
                i = mark_item(tokens, j);
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    /// Names of identifier tokens that are NOT test-scoped.
    fn prod_idents(src: &str) -> Vec<String> {
        let mut toks = tokenize(src);
        mark_test_scopes(&mut toks);
        toks.into_iter()
            .filter(|t| t.kind == TokKind::Ident && !t.in_test)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn cfg_test_module_is_gated() {
        let src =
            "use a::B;\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\nfn f() {}";
        let prod = prod_idents(src);
        assert!(prod.contains(&"B".to_string()));
        assert!(prod.contains(&"f".to_string()));
        assert!(!prod.contains(&"HashMap".to_string()));
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let src = "#[cfg(test)] use std::collections::HashSet;\nfn g() { real(); }";
        let prod = prod_idents(src);
        assert!(!prod.contains(&"HashSet".to_string()));
        assert!(prod.contains(&"real".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_gated() {
        let src = "#[cfg(not(test))] use std::collections::HashMap;";
        assert!(prod_idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn cfg_any_including_test_is_gated() {
        let src = "#[cfg(any(test, feature = \"slow\"))] fn h() { HashMap::new(); }";
        assert!(!prod_idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn bare_test_attribute_gates_the_fn() {
        let src = "#[test]\nfn t() { HashSet::new(); }\nfn u() { HashMap::new(); }";
        let prod = prod_idents(src);
        assert!(!prod.contains(&"HashSet".to_string()));
        assert!(prod.contains(&"HashMap".to_string()));
    }

    #[test]
    fn stacked_attributes_between_gate_and_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\n// a doc-ish comment\nmod t { spawn(); }";
        assert!(!prod_idents(src).contains(&"spawn".to_string()));
    }

    #[test]
    fn code_after_a_gated_module_is_production_again() {
        let src = "#[cfg(test)] mod t { a(); }\nfn later() { HashMap::new(); }";
        assert!(prod_idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn braces_inside_strings_do_not_unbalance_the_item() {
        let src = "#[cfg(test)] mod t { let s = \"}\"; inner(); }\nfn out() { tail(); }";
        let prod = prod_idents(src);
        assert!(!prod.contains(&"inner".to_string()));
        assert!(prod.contains(&"tail".to_string()));
    }

    #[test]
    fn non_gating_attributes_are_transparent() {
        let src = "#[derive(Debug)] struct S { m: HashMap<u32, u32> }";
        assert!(prod_idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn inner_attribute_does_not_gate() {
        let src = "#![allow(dead_code)]\nfn f() { HashMap::new(); }";
        assert!(prod_idents(src).contains(&"HashMap".to_string()));
    }
}
