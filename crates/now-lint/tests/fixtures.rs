//! The fixture corpus: each P001 and item-parser file under `fixtures/`
//! pins one slice of tokenizer / scoping / rule behavior — positive
//! and negative P001 cases plus the comment / string / raw-string /
//! nested-test-module traps a naive grep gets wrong. (The `d00*` and
//! `libm_calls` files are read by the clippy probe in `src/lib.rs`.)
//! The real workspace run skips the corpus (`SKIPPED_DIRS` in
//! `src/lib.rs`: it contains deliberate violations); these tests are
//! what keep it honest.

use now_lint::api_lock::UnitFile;
use now_lint::{lint_source, FileClass};

/// Lints a fixture under the given class; returns `(rule, line)` pairs
/// in source order.
fn lint_fixture(name: &str, class: FileClass) -> Vec<(String, u32)> {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} must exist: {e}"));
    lint_source(name, class, &src)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn pairs(expect: &[(&str, u32)]) -> Vec<(String, u32)> {
    expect.iter().map(|(r, l)| (r.to_string(), *l)).collect()
}

#[test]
fn string_and_comment_traps_stay_silent() {
    // Only the real index after the traps fires.
    assert_eq!(
        lint_fixture("traps_strings_comments.rs", FileClass::Prod),
        pairs(&[("P001", 16)])
    );
}

#[test]
fn nested_test_modules_scope_exactly() {
    // Before and after the nested test module, not inside it.
    assert_eq!(
        lint_fixture("traps_nested_test_mod.rs", FileClass::Prod),
        pairs(&[("P001", 5), ("P001", 20)])
    );
}

#[test]
fn cfg_not_test_is_not_an_exemption() {
    assert_eq!(
        lint_fixture("traps_cfg_not_test.rs", FileClass::Prod),
        pairs(&[("P001", 6), ("P001", 11)])
    );
}

#[test]
fn p001_flags_unjustified_panic_sites_only() {
    assert_eq!(
        lint_fixture("p001_panic_paths.rs", FileClass::Prod),
        pairs(&[
            ("P001", 5),  // .unwrap() without INVARIANT
            ("P001", 6),  // .expect() without INVARIANT
            ("P001", 7),  // v[0]: literal index
            ("P001", 8),  // v[1 + 2]: arithmetic index
            ("P001", 9),  // v[1..2]: partial range
            ("P001", 10), // panic!
        ])
    );
}

#[test]
fn p001_is_silent_outside_library_code() {
    assert_eq!(
        lint_fixture("p001_panic_paths.rs", FileClass::Other),
        pairs(&[])
    );
}

// -------------------------------------------------------------------
// Item-parser traps: nested impls, trait methods, shadowed names,
// cfg(test)-scoped items.
// -------------------------------------------------------------------

#[test]
fn items_traps_parse_into_the_expected_tree() {
    use now_lint::items::{Item, ItemKind, Vis};

    let path = format!("{}/fixtures/items_traps.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let unit = UnitFile::parse("items_traps.rs", &src);

    fn sig(item: &Item) -> (ItemKind, &str, Vis, bool) {
        (item.kind, item.name.as_str(), item.vis, item.in_test)
    }

    let top: Vec<_> = unit.items.iter().map(sig).collect();
    assert_eq!(
        top,
        vec![
            (ItemKind::Mod, "outer", Vis::Pub, false),
            (ItemKind::Fn, "caller", Vis::Pub, false),
            (ItemKind::Mod, "tests", Vis::Private, true),
        ]
    );

    let outer = &unit.items[0];
    let inner_sigs: Vec<_> = outer.children.iter().map(sig).collect();
    assert_eq!(
        inner_sigs,
        vec![
            (ItemKind::Struct, "Gadget", Vis::Pub, false),
            (ItemKind::Impl, "Gadget", Vis::Private, false),
            (ItemKind::Trait, "Widget", Vis::Pub, false),
            (ItemKind::Impl, "Gadget", Vis::Private, false),
            (ItemKind::Mod, "inner", Vis::Pub, false),
            (ItemKind::Fn, "shadowed", Vis::Pub, false),
        ]
    );

    // Nested inherent impl keeps its methods as children.
    let inherent = &outer.children[1];
    assert_eq!(inherent.trait_name, None);
    assert_eq!(
        inherent.children.iter().map(sig).collect::<Vec<_>>(),
        vec![
            (ItemKind::Fn, "build", Vis::Pub, false),
            (ItemKind::Fn, "helper", Vis::Private, false),
        ]
    );

    // Trait block: required and provided methods both parse.
    let trait_item = &outer.children[2];
    assert_eq!(
        trait_item.children.iter().map(sig).collect::<Vec<_>>(),
        vec![
            (ItemKind::Fn, "require", Vis::Private, false),
            (ItemKind::Fn, "provide", Vis::Private, false),
        ]
    );

    // Trait impl records the trait's name.
    assert_eq!(outer.children[3].trait_name.as_deref(), Some("Widget"));

    // cfg(test)-scoped items carry the in_test mark down.
    let tests_mod = &unit.items[2];
    assert!(tests_mod.children.iter().all(|c| c.in_test));
}

#[test]
fn items_traps_public_surface_hides_test_scoped_items() {
    use now_lint::api_lock::render_surface;

    let path = format!("{}/fixtures/items_traps.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let unit = UnitFile::parse("crates/x/src/lib.rs", &src);
    let surface = render_surface(std::slice::from_ref(&unit));
    let lines: Vec<&str> = surface
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(
        lines,
        vec![
            "fn caller",
            "fn outer::Gadget::build",
            "fn outer::Widget::provide",
            "fn outer::Widget::require",
            "fn outer::inner::shadowed",
            "fn outer::shadowed",
            "impl Widget for outer::Gadget",
            "mod outer",
            "mod outer::inner",
            "struct outer::Gadget",
            "trait outer::Widget",
        ],
        "surface must list public items only, sorted, with no cfg(test) leakage"
    );
}
