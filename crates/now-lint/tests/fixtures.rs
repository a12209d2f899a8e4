//! The fixture corpus: each file under `fixtures/` pins one slice of
//! tokenizer / scoping / rule behavior — positive and negative cases
//! per rule plus the comment / string / raw-string / nested-test-module
//! traps a naive grep gets wrong. The corpus is excluded from the real
//! workspace run via `lint.toml` (it contains deliberate violations);
//! these tests are what keep it honest.

use now_lint::semantic::{analyze_unit, UnitFile};
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

/// Parses a fixture into a single-file analysis unit and runs the
/// semantic pass (P001 / L002 / D005); returns `(rule, line)` pairs
/// sorted by `(line, rule)` — the workspace run sorts findings the
/// same way, so emission order is not part of the contract.
fn semantic_fixture(name: &str, class: FileClass) -> Vec<(String, u32)> {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} must exist: {e}"));
    let unit = UnitFile::parse(name, class, &src);
    let mut out: Vec<(String, u32)> = analyze_unit(std::slice::from_ref(&unit))
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    out.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    out
}

#[test]
fn d001_flags_every_hash_collection_site() {
    assert_eq!(
        lint_fixture("d001_hash_collections.rs", FileClass::Prod),
        pairs(&[("D001", 5), ("D001", 6), ("D001", 9), ("D001", 13)])
    );
}

#[test]
fn d001_exempts_test_gated_items() {
    assert_eq!(
        lint_fixture("d001_test_scoped.rs", FileClass::Prod),
        pairs(&[])
    );
}

#[test]
fn d001_binds_in_bins_but_not_test_targets() {
    // The same violating file is clean when it *is* a test target…
    assert_eq!(
        lint_fixture("d001_hash_collections.rs", FileClass::TestOnly),
        pairs(&[])
    );
    // …but x_* experiment binaries emit byte-diffed JSON: rules bind.
    assert_eq!(
        lint_fixture("d001_hash_collections.rs", FileClass::Bin).len(),
        4
    );
}

#[test]
fn d002_flags_wall_clock_reads() {
    assert_eq!(
        lint_fixture("d002_wall_clock.rs", FileClass::Prod),
        pairs(&[("D002", 8), ("D002", 9)])
    );
    // Experiment binaries measure wall time by design.
    assert_eq!(
        lint_fixture("d002_wall_clock.rs", FileClass::Bin),
        pairs(&[])
    );
}

#[test]
fn d002_stopwatch_wrapper_is_clean_but_raw_reads_still_flag() {
    // The sanctioned `now_trace::stopwatch` call carries no wall-clock
    // token, so only the raw `Instant::now` beside it is reported —
    // the wrapper cannot be used to smuggle raw reads past the rule.
    assert_eq!(
        lint_fixture("d002_stopwatch_wrapper.rs", FileClass::Prod),
        pairs(&[("D002", 12)])
    );
}

#[test]
fn d003_flags_spawns_outside_the_pool() {
    assert_eq!(
        lint_fixture("d003_thread_spawn.rs", FileClass::Prod),
        pairs(&[("D003", 6), ("D003", 8)])
    );
}

#[test]
fn d004_flags_ambient_entropy_even_in_tests() {
    let expected = pairs(&[("D004", 6), ("D004", 7), ("D004", 13), ("D004", 14)]);
    assert_eq!(
        lint_fixture("d004_ambient_entropy.rs", FileClass::Prod),
        expected
    );
    // Unreplayable tests are still unreplayable: no test exemption.
    assert_eq!(
        lint_fixture("d004_ambient_entropy.rs", FileClass::TestOnly),
        expected
    );
}

#[test]
fn s001_flags_only_the_undocumented_unsafe() {
    assert_eq!(
        lint_fixture("s001_unsafe.rs", FileClass::Prod),
        pairs(&[("S001", 5)])
    );
}

#[test]
fn string_and_comment_traps_stay_silent() {
    for class in [FileClass::Prod, FileClass::TestOnly, FileClass::Bin] {
        assert_eq!(
            lint_fixture("traps_strings_comments.rs", class),
            pairs(&[]),
            "trap file must be clean under {class:?}"
        );
    }
}

#[test]
fn nested_test_modules_scope_exactly() {
    assert_eq!(
        lint_fixture("traps_nested_test_mod.rs", FileClass::Prod),
        pairs(&[("D001", 4), ("D001", 21)])
    );
}

#[test]
fn cfg_not_test_is_not_an_exemption() {
    assert_eq!(
        lint_fixture("traps_cfg_not_test.rs", FileClass::Prod),
        pairs(&[("D001", 5), ("D001", 9)])
    );
}

// -------------------------------------------------------------------
// Semantic-pass fixtures (P001 / L002 / D005).
// -------------------------------------------------------------------

#[test]
fn p001_flags_unjustified_panic_sites_only() {
    assert_eq!(
        semantic_fixture("p001_panic_paths.rs", FileClass::Prod),
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
fn p001_is_silent_in_test_targets() {
    assert_eq!(
        semantic_fixture("p001_panic_paths.rs", FileClass::TestOnly),
        pairs(&[])
    );
}

#[test]
fn l002_flags_rogue_and_nested_locks_but_not_tests() {
    assert_eq!(
        semantic_fixture("l002_lock_sites.rs", FileClass::Prod),
        pairs(&[
            ("L002", 7),  // rogue(): lock outside the sanctioned sites
            ("L002", 16), // claim_and_plan(): right name, wrong file
            ("L002", 17), // claim_and_plan(): second guard in one fn
        ])
    );
}

#[test]
fn d005_flags_ambient_and_tainted_draws_only() {
    assert_eq!(
        semantic_fixture("d005_rng_streams.rs", FileClass::Prod),
        pairs(&[
            ("D005", 8),  // ambient_draw(): no derivation anywhere
            ("D005", 26), // tainted_kernel(): only caller is unsanctioned
        ])
    );
}

#[test]
fn d005_is_silent_in_test_targets() {
    assert_eq!(
        semantic_fixture("d005_rng_streams.rs", FileClass::TestOnly),
        pairs(&[])
    );
}

// -------------------------------------------------------------------
// Item-parser traps: nested impls, trait methods, shadowed names,
// cross-module calls, cfg(test)-scoped items.
// -------------------------------------------------------------------

#[test]
fn items_traps_parse_into_the_expected_tree() {
    use now_lint::items::{Item, ItemKind, Vis};

    let path = format!("{}/fixtures/items_traps.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let unit = UnitFile::parse("items_traps.rs", FileClass::Prod, &src);

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
fn items_traps_call_graph_resolves_shadowed_names_to_both() {
    use now_lint::items::build_graph;

    let path = format!("{}/fixtures/items_traps.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let unit = UnitFile::parse("items_traps.rs", FileClass::Prod, &src);
    let graph = build_graph(&[(
        unit.path.clone(),
        unit.tokens.as_slice(),
        unit.items.as_slice(),
    )]);

    let idx = |name: &str, line: u32| {
        graph
            .fns
            .iter()
            .position(|f| f.name == name && f.line == line)
            .unwrap_or_else(|| panic!("fn {name}@{line} must be in the graph"))
    };
    // Both `shadowed` definitions are distinct nodes…
    let inner_shadowed = idx("shadowed", 26);
    let outer_shadowed = idx("shadowed", 31);
    let caller = idx("caller", 36);
    // …and name-level resolution gives `caller` an edge to each
    // (documented over-approximation: identifiers, not paths).
    assert!(graph.edges[caller].contains(&inner_shadowed));
    assert!(graph.edges[caller].contains(&outer_shadowed));
    // `provide` resolves its `self.require()` to both require defs
    // (trait decl + impl), and nothing calls `build`.
    assert!(graph.callers_of(idx("build", 8)).is_empty());
    let require_impl = idx("require", 22);
    let provide = idx("provide", 16);
    assert!(graph.edges[provide].contains(&require_impl));
}

#[test]
fn items_traps_public_surface_hides_test_scoped_items() {
    use now_lint::api_lock::render_surface;

    let path = format!("{}/fixtures/items_traps.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let unit = UnitFile::parse("crates/x/src/lib.rs", FileClass::Prod, &src);
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
