//! Round-trips generated item trees through the parser: a random tree
//! of mods / traits / impls / leaf items is rendered to source text,
//! parsed with the real tokenizer + item parser, and the recovered
//! `(kind, name, vis, trait_name, children)` shape must equal the
//! generated one.

use now_lint::api_lock::UnitFile;
use now_lint::items::{Item, ItemKind, Vis};
use proptest::prelude::*;
use proptest::TestRng;

#[derive(Debug, Clone, Copy, PartialEq)]
enum LeafKind {
    Fn,
    Struct,
    Enum,
    Const,
    Type,
}

#[derive(Debug, Clone)]
struct FnSpec {
    name: String,
    vis: Vis,
    /// Trait context only: `fn f(&self) {}` when true, `fn f(&self);`
    /// (required method, no body) when false.
    provided: bool,
}

#[derive(Debug, Clone)]
enum Spec {
    Leaf {
        kind: LeafKind,
        name: String,
        vis: Vis,
    },
    Mod {
        name: String,
        vis: Vis,
        children: Vec<Spec>,
    },
    Trait {
        name: String,
        vis: Vis,
        methods: Vec<FnSpec>,
    },
    Impl {
        type_name: String,
        methods: Vec<FnSpec>,
    },
}

// -------------------------------------------------------------------
// Rendering: spec → unambiguous source text.
// -------------------------------------------------------------------

fn vis_str(vis: Vis) -> &'static str {
    match vis {
        Vis::Pub => "pub ",
        Vis::PubScoped => "pub(crate) ",
        Vis::Private => "",
    }
}

fn render(specs: &[Spec], out: &mut String) {
    for spec in specs {
        match spec {
            Spec::Leaf { kind, name, vis } => {
                out.push_str(vis_str(*vis));
                match kind {
                    LeafKind::Fn => out.push_str(&format!("fn {name}() -> u32 {{ 1 + 2 }}\n")),
                    LeafKind::Struct => out.push_str(&format!("struct {name};\n")),
                    LeafKind::Enum => out.push_str(&format!("enum {name} {{ V }}\n")),
                    LeafKind::Const => out.push_str(&format!("const {name}: u32 = 3;\n")),
                    LeafKind::Type => out.push_str(&format!("type {name} = u8;\n")),
                }
            }
            Spec::Mod {
                name,
                vis,
                children,
            } => {
                out.push_str(vis_str(*vis));
                out.push_str(&format!("mod {name} {{\n"));
                render(children, out);
                out.push_str("}\n");
            }
            Spec::Trait { name, vis, methods } => {
                out.push_str(vis_str(*vis));
                out.push_str(&format!("trait {name} {{\n"));
                for m in methods {
                    if m.provided {
                        out.push_str(&format!("fn {}(&self) {{}}\n", m.name));
                    } else {
                        out.push_str(&format!("fn {}(&self);\n", m.name));
                    }
                }
                out.push_str("}\n");
            }
            Spec::Impl { type_name, methods } => {
                out.push_str(&format!("impl {type_name} {{\n"));
                for m in methods {
                    out.push_str(vis_str(m.vis));
                    out.push_str(&format!("fn {}(&self) {{}}\n", m.name));
                }
                out.push_str("}\n");
            }
        }
    }
}

// -------------------------------------------------------------------
// Shape: the structural projection both sides are compared through.
// -------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Shape {
    kind: ItemKind,
    name: String,
    vis: Vis,
    trait_name: Option<String>,
    children: Vec<Shape>,
}

fn fn_shape(name: &str, vis: Vis) -> Shape {
    Shape {
        kind: ItemKind::Fn,
        name: name.to_string(),
        vis,
        trait_name: None,
        children: Vec::new(),
    }
}

fn spec_shape(spec: &Spec) -> Shape {
    match spec {
        Spec::Leaf { kind, name, vis } => Shape {
            kind: match kind {
                LeafKind::Fn => ItemKind::Fn,
                LeafKind::Struct => ItemKind::Struct,
                LeafKind::Enum => ItemKind::Enum,
                LeafKind::Const => ItemKind::Const,
                LeafKind::Type => ItemKind::TypeAlias,
            },
            name: name.clone(),
            vis: *vis,
            trait_name: None,
            children: Vec::new(),
        },
        Spec::Mod {
            name,
            vis,
            children,
        } => Shape {
            kind: ItemKind::Mod,
            name: name.clone(),
            vis: *vis,
            trait_name: None,
            children: children.iter().map(spec_shape).collect(),
        },
        Spec::Trait { name, vis, methods } => Shape {
            kind: ItemKind::Trait,
            name: name.clone(),
            vis: *vis,
            trait_name: None,
            // Trait methods carry no visibility qualifier of their own.
            children: methods
                .iter()
                .map(|m| fn_shape(&m.name, Vis::Private))
                .collect(),
        },
        Spec::Impl { type_name, methods } => Shape {
            kind: ItemKind::Impl,
            name: type_name.clone(),
            vis: Vis::Private,
            trait_name: None,
            children: methods.iter().map(|m| fn_shape(&m.name, m.vis)).collect(),
        },
    }
}

fn item_shape(item: &Item) -> Shape {
    Shape {
        kind: item.kind,
        name: item.name.clone(),
        vis: item.vis,
        trait_name: item.trait_name.clone(),
        children: item.children.iter().map(item_shape).collect(),
    }
}

// -------------------------------------------------------------------
// Strategy: the vendored proptest shim has no combinators, so the
// tree generator implements `Strategy` directly over `TestRng`.
// -------------------------------------------------------------------

/// `x`-prefixed lowercase identifier: never a Rust keyword.
fn gen_name(rng: &mut TestRng) -> String {
    const LETTERS: &[u8] = b"abcdefgh";
    let len = 1 + rng.below(4) as usize;
    let mut name = String::from("x");
    for _ in 0..len {
        name.push(LETTERS[rng.below(LETTERS.len() as u64) as usize] as char);
    }
    name
}

fn gen_vis(rng: &mut TestRng) -> Vis {
    match rng.below(3) {
        0 => Vis::Pub,
        1 => Vis::PubScoped,
        _ => Vis::Private,
    }
}

fn gen_fn_spec(rng: &mut TestRng) -> FnSpec {
    FnSpec {
        name: gen_name(rng),
        vis: gen_vis(rng),
        provided: rng.below(2) == 0,
    }
}

fn gen_fn_specs(rng: &mut TestRng) -> Vec<FnSpec> {
    (0..rng.below(4)).map(|_| gen_fn_spec(rng)).collect()
}

fn gen_spec(rng: &mut TestRng, depth: u32) -> Spec {
    // Past depth 3, only leaves: bounds the tree.
    let choices = if depth >= 3 { 5 } else { 8 };
    match rng.below(choices) {
        0 => Spec::Leaf {
            kind: LeafKind::Fn,
            name: gen_name(rng),
            vis: gen_vis(rng),
        },
        1 => Spec::Leaf {
            kind: LeafKind::Struct,
            name: gen_name(rng),
            vis: gen_vis(rng),
        },
        2 => Spec::Leaf {
            kind: LeafKind::Enum,
            name: gen_name(rng),
            vis: gen_vis(rng),
        },
        3 => Spec::Leaf {
            kind: LeafKind::Const,
            name: gen_name(rng),
            vis: gen_vis(rng),
        },
        4 => Spec::Leaf {
            kind: LeafKind::Type,
            name: gen_name(rng),
            vis: gen_vis(rng),
        },
        5 => {
            let name = gen_name(rng);
            let vis = gen_vis(rng);
            let children = (0..rng.below(4))
                .map(|_| gen_spec(rng, depth + 1))
                .collect();
            Spec::Mod {
                name,
                vis,
                children,
            }
        }
        6 => Spec::Trait {
            name: gen_name(rng),
            vis: gen_vis(rng),
            methods: gen_fn_specs(rng),
        },
        _ => Spec::Impl {
            type_name: gen_name(rng),
            methods: gen_fn_specs(rng),
        },
    }
}

/// Yields a whole top-level item list per case.
struct SpecTree;

impl Strategy for SpecTree {
    type Value = Vec<Spec>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Spec> {
        (0..rng.below(6)).map(|_| gen_spec(rng, 0)).collect()
    }
}

proptest! {
    #[test]
    fn generated_item_trees_round_trip(specs in SpecTree) {
        let mut src = String::new();
        render(&specs, &mut src);
        let unit = UnitFile::parse("crates/x/src/lib.rs", &src);
        let got: Vec<Shape> = unit.items.iter().map(item_shape).collect();
        let want: Vec<Shape> = specs.iter().map(spec_shape).collect();
        prop_assert_eq!(got, want, "parsed tree must mirror the generated tree\n--- source ---\n{}", src);
    }
}
