//! API001 — per-crate public-surface locks; API002 — every lock line
//! has a user outside its crate (`unused_lines`).
//!
//! Every crate under `crates/` commits a canonical `API.lock`: one
//! sorted line per lexically-`pub` item (plus trait-impl lines, which
//! change a type's capabilities without any `pub` keyword — except
//! impls of a trait the crate itself declares without `pub`, which
//! nobody outside can name). The lock is
//! the reviewable semver surface: changing what a crate exports without
//! touching its `API.lock` fails CI, so a public-surface change is
//! always a *visible, intentional* diff — regenerate with
//! `now-lint --write-api-locks`, then review the lock hunk like code.
//!
//! Lines are derived from the [`crate::items`] tree, so the same
//! approximations apply: visibility is lexical (a `pub fn` inside a
//! private `mod` still gets a line — the lock overstates rather than
//! understates the surface), and module paths come from file layout
//! plus inline `mod` nesting. `#[cfg(test)]`-scoped items are skipped.

use std::collections::BTreeSet;
use std::path::Path;

use crate::items::{parse_items, Item, ItemKind, Vis};
use crate::rules::Finding;
use crate::tokenizer::{TokKind, Token};

/// The committed lock's first line: makes the file self-describing and
/// versions the line grammar (bump if the format ever changes).
pub(crate) const LOCK_HEADER: &str =
    "# API.lock v1 — canonical public surface; regenerate with: now-lint --write-api-locks";

/// One source file of a crate's `src/` tree, item-parsed.
pub struct UnitFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The scope-marked tokens the items' spans index.
    pub tokens: Vec<Token>,
    pub items: Vec<Item>,
}

impl UnitFile {
    /// Tokenizes + scope-marks + item-parses one source text.
    pub fn parse(path: &str, src: &str) -> UnitFile {
        let mut tokens = crate::tokenizer::tokenize(src);
        crate::scope::mark_test_scopes(&mut tokens);
        let items = parse_items(&tokens);
        UnitFile {
            path: path.to_string(),
            tokens,
            items,
        }
    }
}

/// Renders the canonical lock text for one crate (sorted, deduped,
/// trailing newline). Byte-stable: depends only on the parsed source.
pub fn render_surface(files: &[UnitFile]) -> String {
    let mut lines: Vec<String> = surface(files).into_iter().map(|e| e.line).collect();
    lines.sort();
    lines.dedup();
    let mut out = String::with_capacity(lines.len() * 32 + LOCK_HEADER.len() + 1);
    out.push_str(LOCK_HEADER);
    out.push('\n');
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// API002: the lines of one crate's lock that no source outside the
/// crate's library uses, sorted. `used_outside(name)` tells whether the
/// identifier `name` appears in such a source. A line is used when:
///
/// * one of its names appears outside (a `use` line's names are the
///   ones it brings into scope);
/// * or it is named in the signature of a used line of the same crate
///   (a fn's parameters, return type and bounds; a struct's `pub`
///   fields; an enum's variants; a trait's header, which also keeps
///   every item of a used trait; a type alias's or const's type; what
///   a `use` line re-exports under another name), found by a fixpoint;
/// * or it is an `impl` line, which names no item of its own.
///
/// Matching is by name, so a common name (`new`) counts as used
/// wherever any crate writes it: the rule finds the least there is to
/// narrow. Doc-comment examples are comments, so they use nothing.
pub(crate) fn unused_lines(files: &[UnitFile], used_outside: impl Fn(&str) -> bool) -> Vec<String> {
    let entries = surface(files);
    let mut used: Vec<bool> = entries
        .iter()
        .map(|e| e.names.is_empty() || e.names.iter().any(|n| used_outside(n)))
        .collect();
    let mut pending: Vec<usize> = (0..entries.len()).filter(|&i| used[i]).collect();
    while let Some(i) = pending.pop() {
        for (j, other) in entries.iter().enumerate() {
            let named = other.names.iter().any(|n| entries[i].sig.contains(n));
            if !used[j] && (named || other.parent == Some(i)) {
                used[j] = true;
                pending.push(j);
            }
        }
    }
    // A line two items share is used when either is.
    let kept: BTreeSet<&str> = entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| u)
        .map(|(e, _)| e.line.as_str())
        .collect();
    let lines = entries
        .iter()
        .map(|e| e.line.as_str())
        .filter(|line| !kept.contains(line));
    lines
        .collect::<BTreeSet<_>>()
        .into_iter()
        .map(str::to_string)
        .collect()
}

/// One lock line and what API002 needs to judge it.
struct Entry {
    line: String,
    /// The names an outside user would write; empty for `impl` lines.
    names: Vec<String>,
    /// The identifiers of the item's signature.
    sig: Vec<String>,
    /// For an item of a pub trait, the trait's entry.
    parent: Option<usize>,
}

/// Every lock line of one crate, in source order, with its names and
/// signature.
fn surface(files: &[UnitFile]) -> Vec<Entry> {
    let mut internal_traits: Vec<&str> = Vec::new();
    for file in files {
        collect_internal_traits(&file.items, &mut internal_traits);
    }
    let mut out = Vec::new();
    for file in files {
        let mut path = module_path_of(&file.path);
        let mut cx = Walk {
            tokens: &file.tokens,
            internal_traits: &internal_traits,
            out: &mut out,
        };
        cx.walk(&file.items, &mut path);
    }
    out
}

/// Compares a crate's rendered surface against its committed lock.
/// `lock_rel` is the workspace-relative lock path used in findings.
pub(crate) fn check_lock(lock_path: &Path, lock_rel: &str, rendered: &str) -> Option<Finding> {
    let committed = match std::fs::read_to_string(lock_path) {
        Ok(text) => text,
        Err(_) => {
            return Some(Finding {
                path: lock_rel.to_string(),
                line: 0,
                rule: "API001",
                message: "missing API.lock for this crate — run `now-lint --write-api-locks` \
                          and commit the result"
                    .to_string(),
            });
        }
    };
    if committed == rendered {
        return None;
    }
    let old: Vec<&str> = committed.lines().collect();
    let new: Vec<&str> = rendered.lines().collect();
    let added = new.iter().filter(|l| !old.contains(*l)).count();
    let removed = old.iter().filter(|l| !new.contains(*l)).count();
    Some(Finding {
        path: lock_rel.to_string(),
        line: 0,
        rule: "API001",
        message: format!(
            "public surface drifted from the committed lock (+{added} line(s), \
             -{removed} line(s)) — run `now-lint --write-api-locks`, then review the \
             lock diff as an intentional API change"
        ),
    })
}

/// Maps a source file's workspace-relative path to its module path
/// segments: `crates/x/src/lib.rs` → `[]`, `…/src/net/link.rs` →
/// `["net", "link"]`, `…/src/net/mod.rs` → `["net"]`.
fn module_path_of(rel_path: &str) -> Vec<String> {
    let after_src = match rel_path.rfind("/src/") {
        // INVARIANT: `i` is the byte index of "/src/", so `i + 5`
        // lands exactly one past it — at most `len`, a valid bound.
        Some(i) => &rel_path[i + 5..],
        None => rel_path,
    };
    let stem = after_src.strip_suffix(".rs").unwrap_or(after_src);
    let mut segs: Vec<String> = stem.split('/').map(str::to_string).collect();
    if let Some(last) = segs.last() {
        if last == "lib" || last == "main" || last == "mod" {
            segs.pop();
        }
    }
    segs
}

fn join(path: &[String], name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{}::{}", path.join("::"), name)
    }
}

/// Names of the traits this unit declares without plain `pub`.
fn collect_internal_traits<'a>(items: &'a [Item], out: &mut Vec<&'a str>) {
    for item in items {
        match item.kind {
            ItemKind::Trait if item.vis != Vis::Pub => out.push(&item.name),
            ItemKind::Mod => collect_internal_traits(&item.children, out),
            _ => {}
        }
    }
}

/// The leaves of a `use` line's normalized text, each as the item's own
/// name and the name it is brought into scope under (its `as` alias, if
/// any); globs and `self` leaves are skipped.
fn use_leaves(text: &str) -> Vec<(String, String)> {
    text.split(['{', '}', ','])
        .filter_map(|leaf| {
            let (path, alias) = leaf.trim().split_once(" as ").unwrap_or((leaf.trim(), ""));
            let own = path.rsplit("::").next().unwrap_or(path);
            let bound = if alias.is_empty() { own } else { alias };
            (!own.is_empty() && own != "*" && own != "self")
                .then(|| (own.to_string(), bound.to_string()))
        })
        .collect()
}

/// The identifiers of `tokens`, less the names bound by a single `:`
/// (parameters, fields, generic parameters).
fn idents(tokens: &[Token]) -> Vec<String> {
    let colon = |i: usize| tokens.get(i).is_some_and(|t| t.is_punct(':'));
    let bound = |i: usize| colon(i + 1) && !colon(i + 2);
    let named = tokens
        .iter()
        .enumerate()
        .filter(|&(i, t)| t.kind == TokKind::Ident && !bound(i));
    named.map(|(_, t)| t.text.clone()).collect()
}

/// Splits `tokens` before its first `stop` token at bracket depth zero;
/// with none, all of `tokens` is the head.
fn split_at_stop<'t>(tokens: &'t [Token], stops: &[char]) -> (&'t [Token], &'t [Token]) {
    let mut depth = 0usize;
    let mut after_dash = false;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Punct(c) if depth == 0 && stops.contains(&c) => return tokens.split_at(i),
            TokKind::Punct('(' | '[' | '<') => depth += 1,
            TokKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            // `->` is no closing angle.
            TokKind::Punct('>') if !after_dash => depth = depth.saturating_sub(1),
            _ => {}
        }
        after_dash = t.is_punct('-');
    }
    (tokens, &[])
}

/// The identifiers of a struct's or union's `pub` fields; `body` runs
/// from the opening `{` or `(` to the end of the item.
fn pub_field_idents(body: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = body.get(1..).unwrap_or_default();
    while !rest.is_empty() {
        let (field, tail) = split_at_stop(rest, &[',', '}', ')']);
        rest = tail.get(1..).unwrap_or_default();
        let vis = field.iter().position(|t| t.is_ident("pub"));
        if vis.is_some_and(|k| !field.get(k + 1).is_some_and(|t| t.is_punct('('))) {
            out.extend(idents(field));
        }
    }
    out
}

/// The identifiers of an item's signature: what a user of the item must
/// be able to name.
fn signature(item: &Item, tokens: &[Token]) -> Vec<String> {
    let toks = tokens.get(item.span.clone()).unwrap_or_default();
    match item.kind {
        ItemKind::Fn | ItemKind::Trait => idents(split_at_stop(toks, &['{', ';']).0),
        ItemKind::Struct | ItemKind::Union => {
            let (head, body) = split_at_stop(toks, &['{', '(', ';']);
            let mut sig = idents(head);
            sig.extend(pub_field_idents(body));
            sig
        }
        ItemKind::Const | ItemKind::Static => idents(split_at_stop(toks, &['=']).0),
        ItemKind::Enum | ItemKind::TypeAlias => idents(toks),
        // A used re-export uses what it renames; an item re-exported
        // under its own name is judged by that name.
        ItemKind::Use => use_leaves(&item.name)
            .into_iter()
            .filter(|(own, bound)| own != bound)
            .map(|(own, _)| own)
            .collect(),
        _ => Vec::new(),
    }
}

/// The lock-line walk over one file's item tree.
struct Walk<'a, 'o> {
    tokens: &'a [Token],
    internal_traits: &'a [&'a str],
    out: &'o mut Vec<Entry>,
}

impl Walk<'_, '_> {
    /// Appends `item`'s lock line, the item sitting at `path`.
    fn push(&mut self, item: &Item, path: &[String], parent: Option<usize>) {
        let names = match item.kind {
            ItemKind::Use => use_leaves(&item.name).into_iter().map(|(_, b)| b).collect(),
            _ => vec![item.name.clone()],
        };
        self.out.push(Entry {
            line: format!("{} {}", item.kind.label(), join(path, &item.name)),
            names,
            sig: signature(item, self.tokens),
            parent,
        });
    }

    fn walk(&mut self, items: &[Item], path: &mut Vec<String>) {
        for item in items.iter().filter(|item| !item.in_test) {
            let public = item.vis == Vis::Pub;
            match item.kind {
                ItemKind::Impl | ItemKind::Trait | ItemKind::Mod => {
                    let parent = self.out.len();
                    if item.kind == ItemKind::Impl {
                        // Trait impls extend a type's public capabilities
                        // without a `pub` keyword of their own — unless
                        // the trait itself is crate-internal.
                        match &item.trait_name {
                            Some(tr) if !self.internal_traits.contains(&tr.as_str()) => {
                                self.out.push(Entry {
                                    line: format!("impl {} for {}", tr, join(path, &item.name)),
                                    names: Vec::new(),
                                    sig: Vec::new(),
                                    parent: None,
                                });
                            }
                            _ => {}
                        }
                    } else if public {
                        self.push(item, path, None);
                    }
                    path.push(item.name.clone());
                    match item.kind {
                        ItemKind::Mod => self.walk(&item.children, path),
                        // Every item of a pub trait is part of the
                        // surface, and used with its trait.
                        ItemKind::Trait if public => {
                            for child in item.children.iter().filter(|c| !c.in_test) {
                                self.push(child, path, Some(parent));
                            }
                        }
                        ItemKind::Impl if item.trait_name.is_none() => {
                            for child in &item.children {
                                if !child.in_test && child.vis == Vis::Pub {
                                    self.push(child, path, None);
                                }
                            }
                        }
                        _ => {}
                    }
                    path.pop();
                }
                // macro_rules! exports via #[macro_export], not `pub`;
                // foreign blocks surface through their pub wrappers.
                ItemKind::MacroDef | ItemKind::ForeignMod => {}
                _ if public => self.push(item, path, None),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface(path: &str, src: &str) -> Vec<String> {
        let file = UnitFile::parse(path, src);
        render_surface(std::slice::from_ref(&file))
            .lines()
            .skip(1) // header
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn lock_lines_cover_the_item_kinds() {
        let src = "pub struct S;\npub enum E { A }\npub fn f() {}\n\
                   pub const C: u32 = 1;\npub type T = u8;\npub use other::Thing;\n\
                   struct Hidden;\npub(crate) fn internal() {}";
        assert_eq!(
            surface("crates/x/src/lib.rs", src),
            [
                "const C",
                "enum E",
                "fn f",
                "struct S",
                "type T",
                "use other::Thing",
            ]
        );
    }

    #[test]
    fn module_paths_come_from_layout_and_inline_mods() {
        let src = "pub mod inner { pub fn g() {} fn private() {} }";
        assert_eq!(
            surface("crates/x/src/net/link.rs", src),
            ["fn net::link::inner::g", "mod net::link::inner"]
        );
        assert_eq!(
            surface("crates/x/src/net/mod.rs", "pub fn h() {}"),
            ["fn net::h"]
        );
    }

    #[test]
    fn impls_surface_methods_and_trait_lines() {
        let src = "pub struct S;\nimpl S { pub fn m(&self) {} fn hidden(&self) {} }\n\
                   impl Default for S { fn default() -> S { S } }\n\
                   pub(crate) trait Internal {}\nimpl Internal for S {}";
        assert_eq!(
            surface("crates/x/src/lib.rs", src),
            ["fn S::m", "impl Default for S", "struct S"]
        );
    }

    #[test]
    fn pub_traits_surface_every_method() {
        let src = "pub trait Tr { fn a(&self); fn b(&self) {} }\ntrait Internal { fn c(&self); }";
        assert_eq!(
            surface("crates/x/src/lib.rs", src),
            ["fn Tr::a", "fn Tr::b", "trait Tr"]
        );
    }

    #[test]
    fn test_scoped_items_are_invisible() {
        let src = "pub fn live() {}\n#[cfg(test)]\npub mod tests { pub fn helper() {} }";
        assert_eq!(surface("crates/x/src/lib.rs", src), ["fn live"]);
    }

    /// API002 over one file, with `outside` the identifiers written
    /// outside the crate's library.
    fn unused(src: &str, outside: &[&str]) -> Vec<String> {
        let file = UnitFile::parse("crates/x/src/lib.rs", src);
        unused_lines(std::slice::from_ref(&file), |n| outside.contains(&n))
    }

    #[test]
    fn api002_keeps_what_used_signatures_name() {
        let src = "pub struct Report { pub stats: Stats, secret: Secret }\n\
                   pub struct Stats;\npub struct Secret;\npub struct Config;\n\
                   pub fn run(config: &Config) -> Report { todo!() }\n\
                   pub fn idle(report: Report) {}\n\
                   impl Default for Secret { fn default() -> Self { Secret } }";
        assert_eq!(unused(src, &["run"]), ["fn idle", "struct Secret"]);
        assert_eq!(
            unused(src, &[]),
            [
                "fn idle",
                "fn run",
                "struct Config",
                "struct Report",
                "struct Secret",
                "struct Stats"
            ]
        );
    }

    #[test]
    fn api002_follows_reexports_trait_items_and_enum_payloads() {
        let src = "mod inner { pub fn a() {} pub fn b() {} pub fn c() {} }\n\
                   pub use inner::{a, b as renamed};\n\
                   pub trait Tr { fn m(&self) -> Out; }\npub struct Out;\n\
                   pub trait Lone { fn n(&self); }\n\
                   pub enum E { A(Payload) }\npub struct Payload;";
        assert_eq!(
            unused(src, &["renamed", "Tr", "E"]),
            ["fn Lone::n", "fn inner::a", "fn inner::c", "trait Lone"]
        );
    }

    #[test]
    fn rendering_is_byte_stable_and_deduped() {
        let file = UnitFile::parse("crates/x/src/lib.rs", "pub fn a() {}\npub fn b() {}");
        let once = render_surface(std::slice::from_ref(&file));
        let twice = render_surface(std::slice::from_ref(&file));
        assert_eq!(once, twice);
        assert!(once.starts_with(LOCK_HEADER));
        assert!(once.ends_with('\n'));
    }
}
