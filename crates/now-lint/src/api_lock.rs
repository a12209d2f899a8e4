//! API001 — per-crate public-surface locks.
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

use std::path::Path;

use crate::items::{parse_items, Item, ItemKind, Vis};
use crate::rules::Finding;

/// The committed lock's first line: makes the file self-describing and
/// versions the line grammar (bump if the format ever changes).
pub const LOCK_HEADER: &str =
    "# API.lock v1 — canonical public surface; regenerate with: now-lint --write-api-locks";

/// One source file of a crate's `src/` tree, item-parsed.
pub struct UnitFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub items: Vec<Item>,
}

impl UnitFile {
    /// Tokenizes + scope-marks + item-parses one source text.
    pub fn parse(path: &str, src: &str) -> UnitFile {
        let mut tokens = crate::tokenizer::tokenize(src);
        crate::scope::mark_test_scopes(&mut tokens);
        UnitFile {
            path: path.to_string(),
            items: parse_items(&tokens),
        }
    }
}

/// Renders the canonical lock text for one crate (sorted, deduped,
/// trailing newline). Byte-stable: depends only on the parsed source.
pub fn render_surface(files: &[UnitFile]) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut internal_traits: Vec<&str> = Vec::new();
    for file in files {
        collect_internal_traits(&file.items, &mut internal_traits);
    }
    for file in files {
        let base = module_path_of(&file.path);
        let mut path = base.clone();
        walk(&file.items, &mut path, &internal_traits, &mut lines);
    }
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

/// Compares a crate's rendered surface against its committed lock.
/// `lock_rel` is the workspace-relative lock path used in findings.
pub fn check_lock(lock_path: &Path, lock_rel: &str, rendered: &str) -> Option<Finding> {
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

fn walk(items: &[Item], path: &mut Vec<String>, internal_traits: &[&str], out: &mut Vec<String>) {
    for item in items {
        if item.in_test {
            continue;
        }
        match item.kind {
            ItemKind::Mod => {
                if item.vis == Vis::Pub {
                    out.push(format!("mod {}", join(path, &item.name)));
                }
                if !item.children.is_empty() {
                    path.push(item.name.clone());
                    walk(&item.children, path, internal_traits, out);
                    path.pop();
                }
            }
            ItemKind::Impl => {
                if let Some(tr) = &item.trait_name {
                    // Trait impls extend a type's public capabilities
                    // without a `pub` keyword of their own — unless the
                    // trait itself is crate-internal.
                    if !internal_traits.contains(&tr.as_str()) {
                        out.push(format!("impl {} for {}", tr, join(path, &item.name)));
                    }
                } else {
                    for child in &item.children {
                        if child.in_test || child.vis != Vis::Pub {
                            continue;
                        }
                        out.push(format!(
                            "{} {}::{}",
                            child.kind.label(),
                            join(path, &item.name),
                            child.name
                        ));
                    }
                }
            }
            ItemKind::Trait => {
                if item.vis == Vis::Pub {
                    out.push(format!("trait {}", join(path, &item.name)));
                    // Every item of a pub trait is part of the surface,
                    // whatever its (nonexistent) visibility qualifier.
                    for child in &item.children {
                        if !child.in_test {
                            out.push(format!(
                                "{} {}::{}",
                                child.kind.label(),
                                join(path, &item.name),
                                child.name
                            ));
                        }
                    }
                }
            }
            ItemKind::Use => {
                if item.vis == Vis::Pub {
                    out.push(format!("use {}", join(path, &item.name)));
                }
            }
            ItemKind::MacroDef | ItemKind::ForeignMod => {
                // macro_rules! exports via #[macro_export], not `pub`;
                // foreign blocks surface through their pub wrappers.
            }
            _ => {
                if item.vis == Vis::Pub {
                    out.push(format!("{} {}", item.kind.label(), join(path, &item.name)));
                }
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
