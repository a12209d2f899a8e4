//! The item tree API001 renders and API002 judges: each file's token
//! stream parsed into mods / fns / impls / traits / … with their names,
//! visibility and token ranges.
//!
//! P001 needs no items; the per-crate public-surface lock
//! ([`crate::api_lock`]) does. The parse is lexical, with these
//! approximations (also in the `API.lock` docs):
//!
//! * **Visibility is as written.** A `pub` item inside a private module
//!   is still recorded `Pub`.
//! * **Function bodies are opaque.** Items nested *inside* a fn body
//!   (local fns, local impls) are not parsed.
//! * **Impls are named by their self-type's last path segment**, and a
//!   trait impl records the trait's last segment.

use std::ops::Range;

use crate::tokenizer::{TokKind, Token};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Mod,
    Fn,
    Impl,
    Trait,
    Struct,
    Enum,
    Union,
    Const,
    Static,
    TypeAlias,
    Use,
    MacroDef,
    ExternCrate,
    /// `extern "C" { … }` foreign block (opaque).
    ForeignMod,
}

impl ItemKind {
    /// Stable lowercase label used in `API.lock` lines and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ItemKind::Mod => "mod",
            ItemKind::Fn => "fn",
            ItemKind::Impl => "impl",
            ItemKind::Trait => "trait",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Union => "union",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::Use => "use",
            ItemKind::MacroDef => "macro",
            ItemKind::ExternCrate => "extern-crate",
            ItemKind::ForeignMod => "extern-block",
        }
    }
}

/// Item visibility, as written (lexical — a `pub` item inside a private
/// module is still recorded `Pub`; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Plain `pub`: part of the crate's public surface.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`: crate-internal.
    PubScoped,
    /// No visibility qualifier.
    Private,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name; for `Impl` the *self-type* name; for `Use` the
    /// normalized path text (`a::b::{C, D}`).
    pub name: String,
    /// For trait impls (`impl Tr for Ty`), the trait path's last
    /// segment.
    pub trait_name: Option<String>,
    pub vis: Vis,
    /// Children of `Mod` / `Trait` / `Impl` bodies. `Fn` bodies are
    /// opaque (no nested item parsing).
    pub children: Vec<Item>,
    /// True when the item's first token is test-scoped (set by
    /// `scope::mark_test_scopes` before parsing).
    pub in_test: bool,
    /// The item's token indices, from its visibility (attributes
    /// excluded) to one past its closing `;` or `}`.
    pub span: Range<usize>,
}

impl Item {
    fn new(kind: ItemKind, name: String, vis: Vis, in_test: bool) -> Item {
        Item {
            kind,
            name,
            trait_name: None,
            vis,
            children: Vec::new(),
            in_test,
            span: 0..0,
        }
    }
}

/// Parses a marked token stream into a top-level item list. Never
/// fails: unrecognized tokens are skipped (error recovery — the lint
/// runs on code rustc already accepts, so recovery paths are dusty
/// corners, not the common case).
pub(crate) fn parse_items(tokens: &[Token]) -> Vec<Item> {
    let mut p = Parser { tokens };
    p.items(0, tokens.len())
}

struct Parser<'t> {
    tokens: &'t [Token],
}

/// Keywords that can qualify a `fn` (`pub const unsafe extern "C" fn`).
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

impl<'t> Parser<'t> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    /// Skips comments from `i`; returns the next code-token index.
    fn skip_comments(&self, mut i: usize, end: usize) -> usize {
        while i < end && self.tokens[i].kind == TokKind::Comment {
            i += 1;
        }
        i
    }

    /// Skips one `#[…]` / `#![…]` attribute; `i` points at `#`.
    /// Returns the index one past the closing `]`.
    fn skip_attribute(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.tok(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !self.tok(j).is_some_and(|t| t.is_punct('[')) {
            return i + 1;
        }
        let mut depth = 0usize;
        while j < end {
            match self.tokens[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Skips a balanced `<…>` generic-argument list; `i` points at `<`.
    /// Angle brackets never nest through braces in item signatures, so
    /// plain counting is exact there.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match self.tokens[j].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Scans from `i` to the end of an item that terminates at a `;` at
    /// bracket-depth zero **or** at one balanced `{…}` block. Returns
    /// `(body_start, one_past_end)`.
    fn scan_to_body_or_semi(&self, mut i: usize, end: usize) -> (Option<usize>, usize) {
        let mut depth = 0usize;
        while i < end {
            match self.tokens[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
                TokKind::Punct('{') if depth == 0 => {
                    let close = self.skip_braces(i, end);
                    return (Some(i), close);
                }
                TokKind::Punct(';') if depth == 0 => return (None, i + 1),
                _ => {}
            }
            i += 1;
        }
        (None, i)
    }

    /// Skips one balanced `{…}` block; `i` points at `{`. Returns the
    /// index one past the matching `}`.
    fn skip_braces(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match self.tokens[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Parses the items of a body `{…}` that opens at `body_start` and
    /// ends just before `tok_end`; no body, no children.
    fn body_items(&mut self, body_start: Option<usize>, tok_end: usize) -> Vec<Item> {
        match body_start {
            Some(body) => self.items(body + 1, tok_end.saturating_sub(1)),
            None => Vec::new(),
        }
    }

    /// Parses the item list in `[start, end)` (exclusive of any
    /// enclosing braces).
    fn items(&mut self, start: usize, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            i = self.skip_comments(i, end);
            if i >= end {
                break;
            }
            if self.tokens[i].is_punct('#') {
                // Attributes precede their item.
                while i < end && self.tokens[i].is_punct('#') {
                    i = self.skip_attribute(i, end);
                    i = self.skip_comments(i, end);
                }
                if let Some((mut item, next)) = self.item(i, end) {
                    item.span = i..next;
                    out.push(item);
                    i = next;
                }
                continue;
            }
            if let Some((mut item, next)) = self.item(i, end) {
                item.span = i..next;
                out.push(item);
                i = next;
            } else {
                i += 1; // recovery: not an item head, move on
            }
        }
        out
    }

    /// Attempts to parse one item whose (post-attribute) head starts at
    /// `i`. Returns the item and the index one past it.
    fn item(&mut self, i: usize, end: usize) -> Option<(Item, usize)> {
        let mut j = i;
        // Visibility.
        let mut vis = Vis::Private;
        if self.tok(j).is_some_and(|t| t.is_ident("pub")) {
            vis = Vis::Pub;
            j += 1;
            j = self.skip_comments(j, end);
            if self.tok(j).is_some_and(|t| t.is_punct('(')) {
                vis = Vis::PubScoped;
                let mut depth = 0usize;
                while j < end {
                    match self.tokens[j].kind {
                        TokKind::Punct('(') => depth += 1,
                        TokKind::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j = self.skip_comments(j, end);
            }
        }

        // Fn qualifiers (`const unsafe extern "C" fn` …). A `const`
        // followed by anything but `fn` is a const *item*, handled
        // below, so only treat qualifiers as such when a `fn` follows.
        let mut k = j;
        let mut saw_qualifier = false;
        loop {
            k = self.skip_comments(k, end);
            let Some(t) = self.tok(k) else { break };
            if t.kind == TokKind::Ident && FN_QUALIFIERS.contains(&t.text.as_str()) {
                k += 1;
                // `extern "C"` carries an ABI string.
                let k2 = self.skip_comments(k, end);
                if self.tok(k2).is_some_and(|t| t.kind == TokKind::Str) {
                    k = k2 + 1;
                }
                saw_qualifier = true;
            } else {
                break;
            }
        }
        k = self.skip_comments(k, end);
        if saw_qualifier {
            if self.tok(k).is_some_and(|t| t.is_ident("fn")) {
                j = k; // consume qualifiers; `fn` parse below
            } else if self
                .tok(self.skip_comments(j, end))
                .is_some_and(|t| t.is_ident("extern"))
            {
                // `extern crate name;` or `extern "C" { … }`.
                return self.extern_item(self.skip_comments(j, end), end, vis);
            }
            // else: plain `const NAME: …` / `unsafe impl` — fall through
            // with `j` untouched.
        }
        if self.tok(j).is_some_and(|t| t.is_ident("unsafe")) {
            // `unsafe impl` / `unsafe trait`.
            let k = self.skip_comments(j + 1, end);
            if self
                .tok(k)
                .is_some_and(|t| t.is_ident("impl") || t.is_ident("trait"))
            {
                j = k;
            }
        }

        let head = self.tok(j)?;
        if head.kind != TokKind::Ident {
            return None;
        }
        let in_test = head.in_test;
        let kind = match head.text.as_str() {
            "fn" => ItemKind::Fn,
            "mod" => ItemKind::Mod,
            "trait" => ItemKind::Trait,
            "struct" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "union" => ItemKind::Union,
            "const" => ItemKind::Const,
            "static" => ItemKind::Static,
            "type" => ItemKind::TypeAlias,
            "use" => return self.use_item(j, end, vis, in_test),
            "impl" => return self.impl_item(j, end, vis, in_test),
            "macro_rules" => {
                // `macro_rules! name { … }`
                let mut k = self.skip_comments(j + 1, end);
                if self.tok(k).is_some_and(|t| t.is_punct('!')) {
                    k = self.skip_comments(k + 1, end);
                }
                let name = match self.tok(k) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => String::new(),
                };
                let (_, tok_end) = self.scan_to_body_or_semi(k, end);
                return Some((Item::new(ItemKind::MacroDef, name, vis, in_test), tok_end));
            }
            "extern" => return self.extern_item(j, end, vis),
            _ => return None,
        };
        self.named_item(j, end, vis, kind, in_test)
    }

    /// `kind NAME … (; | {…})` — the shared shape of most items. `j`
    /// points at the keyword. Mod and trait bodies are parsed into
    /// children.
    fn named_item(
        &mut self,
        j: usize,
        end: usize,
        vis: Vis,
        kind: ItemKind,
        in_test: bool,
    ) -> Option<(Item, usize)> {
        let mut k = self.skip_comments(j + 1, end);
        let name = match self.tok(k) {
            Some(t) if t.kind == TokKind::Ident => t.text.clone(),
            // `static` has a `mut` qualifier slot.
            _ => String::new(),
        };
        let name = if name == "mut" && kind == ItemKind::Static {
            k = self.skip_comments(k + 1, end);
            match self.tok(k) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => String::new(),
            }
        } else {
            name
        };
        if name.is_empty() {
            return None;
        }
        let (body_start, tok_end) = self.scan_to_body_or_semi(k + 1, end);
        let mut item = Item::new(kind, name, vis, in_test);
        if matches!(kind, ItemKind::Mod | ItemKind::Trait) {
            item.children = self.body_items(body_start, tok_end);
        }
        Some((item, tok_end))
    }

    /// `use path::to::{Thing, Other};` — the name is the normalized
    /// path text (idents, `::`, `{`, `}`, `,`, `*`, `as` joined with
    /// single spaces only where needed), so `API.lock` lines are
    /// whitespace-insensitive.
    fn use_item(&mut self, j: usize, end: usize, vis: Vis, in_test: bool) -> Option<(Item, usize)> {
        let mut k = j + 1;
        let mut text = String::new();
        let mut prev_ident = false;
        while k < end {
            match &self.tokens[k].kind {
                TokKind::Punct(';') => {
                    k += 1;
                    break;
                }
                TokKind::Ident => {
                    if prev_ident {
                        text.push(' ');
                    }
                    text.push_str(&self.tokens[k].text);
                    prev_ident = true;
                }
                TokKind::Punct(c) => {
                    text.push(*c);
                    prev_ident = false;
                }
                _ => {}
            }
            k += 1;
        }
        Some((Item::new(ItemKind::Use, text, vis, in_test), k))
    }

    /// `impl[<…>] Path [for Path] [where …] { … }`. The item name is
    /// the **self type**'s last path segment; for trait impls the trait
    /// path's last segment lands in `trait_name`.
    fn impl_item(
        &mut self,
        j: usize,
        end: usize,
        vis: Vis,
        in_test: bool,
    ) -> Option<(Item, usize)> {
        let mut k = self.skip_comments(j + 1, end);
        if self.tok(k).is_some_and(|t| t.is_punct('<')) {
            k = self.skip_angles(k, end);
        }
        // First path: trait name for `impl Tr for Ty`, self type else.
        let (first, after_first) = self.type_path(k, end);
        k = self.skip_comments(after_first, end);
        let (self_ty, trait_name) = if self.tok(k).is_some_and(|t| t.is_ident("for")) {
            let (second, after_second) = self.type_path(self.skip_comments(k + 1, end), end);
            k = after_second;
            (second, Some(first))
        } else {
            (first, None)
        };
        // Skip `where …` to the body.
        let (body_start, tok_end) = self.scan_to_body_or_semi(k, end);
        let mut item = Item::new(ItemKind::Impl, self_ty, vis, in_test);
        item.trait_name = trait_name;
        item.children = self.body_items(body_start, tok_end);
        Some((item, tok_end))
    }

    /// Reads a type path (`a::b::C<…>`, `&mut T`, `[T; N]`, `dyn Tr`),
    /// returning its **last plain segment name** and the index after
    /// it. Reference/slice/pointer sigils and `dyn` are skipped; the
    /// name that matters for association is the head type's identifier.
    fn type_path(&self, mut i: usize, end: usize) -> (String, usize) {
        let mut last = String::new();
        loop {
            i = self.skip_comments(i, end);
            let Some(t) = self.tok(i) else { break };
            match &t.kind {
                TokKind::Punct('&') | TokKind::Punct('*') | TokKind::Punct('(') => i += 1,
                TokKind::Lifetime => i += 1,
                TokKind::Ident if t.text == "mut" || t.text == "dyn" || t.text == "const" => i += 1,
                TokKind::Ident if t.text == "for" || t.text == "where" => break,
                TokKind::Ident => {
                    last = t.text.clone();
                    i += 1;
                    // `::` continues the path; `<…>` is its own world.
                    loop {
                        let after = self.skip_comments(i, end);
                        if self.tok(after).is_some_and(|t| t.is_punct('<')) {
                            i = self.skip_angles(after, end);
                            continue;
                        }
                        if self.tok(after).is_some_and(|t| t.is_punct(':'))
                            && self.tok(after + 1).is_some_and(|t| t.is_punct(':'))
                        {
                            let seg = self.skip_comments(after + 2, end);
                            if let Some(t) = self.tok(seg) {
                                if t.kind == TokKind::Ident {
                                    last = t.text.clone();
                                    i = seg + 1;
                                    continue;
                                }
                            }
                        }
                        break;
                    }
                    break;
                }
                _ => break,
            }
        }
        (last, i)
    }

    /// `extern crate name;` or `extern "C" { … }`.
    fn extern_item(&mut self, j: usize, end: usize, vis: Vis) -> Option<(Item, usize)> {
        let in_test = self.tok(j)?.in_test;
        let mut k = self.skip_comments(j + 1, end);
        if self.tok(k).is_some_and(|t| t.is_ident("crate")) {
            k = self.skip_comments(k + 1, end);
            let name = match self.tok(k) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => String::new(),
            };
            let (_, tok_end) = self.scan_to_body_or_semi(k, end);
            return Some((
                Item::new(ItemKind::ExternCrate, name, vis, in_test),
                tok_end,
            ));
        }
        if self.tok(k).is_some_and(|t| t.kind == TokKind::Str) {
            k = self.skip_comments(k + 1, end);
        }
        let (_, tok_end) = self.scan_to_body_or_semi(k, end);
        Some((
            Item::new(ItemKind::ForeignMod, String::new(), vis, in_test),
            tok_end,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::mark_test_scopes;
    use crate::tokenizer::tokenize;

    fn parse(src: &str) -> Vec<Item> {
        let mut toks = tokenize(src);
        mark_test_scopes(&mut toks);
        parse_items(&toks)
    }

    fn flat_names(items: &[Item]) -> Vec<(ItemKind, String)> {
        let mut out = Vec::new();
        fn rec(items: &[Item], out: &mut Vec<(ItemKind, String)>) {
            for i in items {
                out.push((i.kind, i.name.clone()));
                rec(&i.children, out);
            }
        }
        rec(items, &mut out);
        out
    }

    #[test]
    fn parses_the_basic_item_kinds() {
        let src = "pub fn a() {}\nmod m { fn b() {} }\nstruct S;\npub enum E { X }\n\
                   const C: u32 = 1;\nstatic D: u32 = 2;\ntype T = u32;\nuse x::y;";
        let names = flat_names(&parse(src));
        assert_eq!(
            names,
            vec![
                (ItemKind::Fn, "a".to_string()),
                (ItemKind::Mod, "m".to_string()),
                (ItemKind::Fn, "b".to_string()),
                (ItemKind::Struct, "S".to_string()),
                (ItemKind::Enum, "E".to_string()),
                (ItemKind::Const, "C".to_string()),
                (ItemKind::Static, "D".to_string()),
                (ItemKind::TypeAlias, "T".to_string()),
                (ItemKind::Use, "x::y".to_string()),
            ]
        );
    }

    #[test]
    fn impl_blocks_carry_self_type_and_trait() {
        let items =
            parse("impl<'a> Foo<'a> { fn m(&self) {} }\nimpl Bar for Foo<'_> { fn n() {} }");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "Foo");
        assert_eq!(items[0].trait_name, None);
        assert_eq!(items[0].children[0].name, "m");
        assert_eq!(items[1].name, "Foo");
        assert_eq!(items[1].trait_name.as_deref(), Some("Bar"));
    }

    #[test]
    fn qualified_fns_and_unsafe_impls_parse() {
        let items = parse(
            "pub const fn c() -> u32 { 1 }\npub unsafe fn u() {}\n\
             pub async fn a() {}\npub extern \"C\" fn e() {}\nunsafe impl Send for S {}",
        );
        let names = flat_names(&items);
        assert_eq!(names[0], (ItemKind::Fn, "c".to_string()));
        assert_eq!(names[1], (ItemKind::Fn, "u".to_string()));
        assert_eq!(names[2], (ItemKind::Fn, "a".to_string()));
        assert_eq!(names[3], (ItemKind::Fn, "e".to_string()));
        assert_eq!(names[4], (ItemKind::Impl, "S".to_string()));
        assert_eq!(items[4].trait_name.as_deref(), Some("Send"));
    }

    #[test]
    fn visibility_is_recorded_lexically() {
        let items = parse("pub fn a() {}\npub(crate) fn b() {}\nfn c() {}");
        assert_eq!(items[0].vis, Vis::Pub);
        assert_eq!(items[1].vis, Vis::PubScoped);
        assert_eq!(items[2].vis, Vis::Private);
    }

    #[test]
    fn fn_bodies_are_opaque_spans_with_correct_extent() {
        let items = parse("fn a() { if x { y(); } }\nfn b() {}");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "a");
        assert_eq!(items[1].name, "b");
    }

    #[test]
    fn trait_bodies_expose_method_declarations() {
        let items = parse("pub trait T { fn decl(&self); fn with_default(&self) {} }");
        assert_eq!(items[0].kind, ItemKind::Trait);
        let kids = flat_names(&items[0].children);
        assert_eq!(
            kids,
            vec![
                (ItemKind::Fn, "decl".to_string()),
                (ItemKind::Fn, "with_default".to_string()),
            ]
        );
    }

    #[test]
    fn test_scope_marks_reach_items() {
        let items = parse("#[cfg(test)]\nmod tests { fn helper() {} }\nfn real() {}");
        assert!(items[0].in_test);
        assert!(items[0].children[0].in_test);
        assert!(!items[1].in_test);
    }

    #[test]
    fn spans_run_from_visibility_to_the_closing_token() {
        let src = "#[inline]\npub fn a() { x(); }\nstruct S;";
        let mut toks = tokenize(src);
        mark_test_scopes(&mut toks);
        let items = parse_items(&toks);
        let text = |item: &Item| -> Vec<String> {
            toks[item.span.clone()]
                .iter()
                .map(|t| match t.kind {
                    TokKind::Punct(c) => c.to_string(),
                    _ => t.text.clone(),
                })
                .collect()
        };
        let a = ["pub", "fn", "a", "(", ")", "{", "x", "(", ")", ";", "}"];
        assert_eq!(text(&items[0]), a);
        assert_eq!(text(&items[1]), ["struct", "S", ";"]);
    }

    #[test]
    fn use_groups_normalize_whitespace() {
        let a = parse("pub use a::b::{C, D};");
        let b = parse("pub  use a :: b :: { C , D } ;");
        assert_eq!(a[0].name, b[0].name);
    }

    #[test]
    fn generic_fn_signatures_find_their_bodies() {
        let items = parse(
            "fn g<T: Iterator<Item = u8>>(x: T) -> Vec<u8> where T: Clone { x() }\nfn h() {}",
        );
        assert_eq!(flat_names(&items).len(), 2);
        assert_eq!(items[0].name, "g");
        assert_eq!(items[1].name, "h");
    }
}
