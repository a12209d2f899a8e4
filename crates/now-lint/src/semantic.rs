//! The semantic rule families over the item graph (see [`crate::items`]).
//!
//! | rule | forbids | where it binds |
//! |------|---------|----------------|
//! | P001 | panic-capable sites (`.unwrap()` / `.expect(` / `panic!`-family / *computed* slice indexing) without a `// INVARIANT:` justification in the statement head | Prod-class non-test code |
//! | L002 | `.lock()` outside the sanctioned shard sites, and any single fn acquiring ≥ 2 Mutex guards | non-test code everywhere |
//! | D005 | RNG draws on streams that do not descend from a canonical derivation (`DetRng::for_op` / seeded constructor / labeled fork) via the call graph | non-test code everywhere |
//!
//! **P001** mirrors S001's SAFETY walk-back: from the panic-capable
//! token, walk back through its statement head to the nearest comment
//! group; any comment containing `INVARIANT:` justifies every
//! panic-capable site in that statement. *Computed* indexing means the
//! bracket content carries arithmetic, a literal offset, a range, or a
//! `&`-keyed map lookup — the shapes that hold an off-by-one. A plain
//! single-path index (`v[i]`, `slab[idx.pos]`) is exempt: bounded-loop
//! iteration and slab-slot access are this codebase's documented
//! deliberate-panic idioms, and flagging them would bury the
//! real findings in noise.
//!
//! **L002** encodes the workspace locking contract directly (the rule
//! *is* the contract, so the sites are named here, not in lint.toml):
//! the one `Mutex` acquisition lives in the `wave_exec.rs` plan-slot
//! fill (`claim_and_plan`), where pool workers write, and it takes
//! exactly one guard at a time. A fn taking two guards is a
//! nested-acquisition deadlock candidate and is flagged wherever it
//! lives, the sanctioned file included.
//!
//! **D005** runs on the call graph: the *sanctioned* set starts at fns
//! that derive a stream canonically (`DetRng::for_op`, `DetRng::new`,
//! `.fork(…)`, `SeedableRng` constructors), plus methods of types whose
//! constructor derives or receives an RNG parameter (the stream was
//! canonically seeded into the field at construction), plus
//! RNG-parameterized fns with no intra-unit callers (crate boundary:
//! the caller's crate is analyzed at its own level). Sanctioning then
//! propagates along call edges into RNG-parameterized callees. Any fn
//! that draws and is never reached by that propagation holds an
//! *ambient* stream — exactly the leak that would silently break
//! pooled ≡ sequential bit-equality.

use crate::items::{build_graph, parse_items, Item, UnitGraph};
use crate::rules::{FileClass, Finding};
use crate::tokenizer::{TokKind, Token};

/// One file of an analysis unit, already tokenized, scope-marked, and
/// item-parsed.
pub struct UnitFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub class: FileClass,
    pub tokens: Vec<Token>,
    pub items: Vec<Item>,
}

impl UnitFile {
    /// Tokenizes + scope-marks + item-parses one source text.
    pub fn parse(path: &str, class: FileClass, src: &str) -> UnitFile {
        let mut tokens = crate::tokenizer::tokenize(src);
        crate::scope::mark_test_scopes(&mut tokens);
        let items = parse_items(&tokens);
        UnitFile {
            path: path.to_string(),
            class,
            tokens,
            items,
        }
    }
}

/// Runs every semantic rule over one analysis unit (a crate's `src/`
/// tree, or a single standalone bin/test/example file). Findings
/// come back unsorted; the driver merges and sorts.
pub fn analyze_unit(files: &[UnitFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        p001_panic_audit(file, &mut out);
    }
    let graph_files: Vec<(String, &[Token], &[Item])> = files
        .iter()
        .map(|f| (f.path.clone(), f.tokens.as_slice(), f.items.as_slice()))
        .collect();
    let graph = build_graph(&graph_files);
    let class_of = |path: &str| -> FileClass {
        files
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.class)
            .unwrap_or(FileClass::Prod)
    };
    l002_lock_discipline(&graph, &class_of, &mut out);
    d005_rng_streams(&graph, &class_of, &mut out);
    out
}

// ---------------------------------------------------------------------
// P001 — panic-path audit.
// ---------------------------------------------------------------------

/// Panic-family macros: `name!(…)` panics unconditionally when reached.
const P001_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How far the INVARIANT walk-back looks, in tokens (same bound as
/// S001's SAFETY walk-back).
const P001_LOOKBACK: usize = 64;

/// From the panic-capable token at `i`, walks back through the
/// statement head to the nearest comment group; true if any comment in
/// the group contains `INVARIANT:`. A `;`, `{` or `}` before a comment
/// means the enclosing statement started without one.
fn has_invariant_comment(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    let mut steps = 0usize;
    let mut seen_comment = false;
    while j > 0 && steps < P001_LOOKBACK {
        j -= 1;
        steps += 1;
        match tokens[j].kind {
            TokKind::Comment => {
                seen_comment = true;
                if tokens[j].text.contains("INVARIANT:") {
                    return true;
                }
            }
            _ if seen_comment => return false,
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return false,
            _ => {}
        }
    }
    false
}

fn p001_push(out: &mut Vec<Finding>, path: &str, line: u32, what: &str) {
    out.push(Finding {
        path: path.to_string(),
        line,
        rule: "P001",
        message: format!(
            "{what} on a driving path without a `// INVARIANT:` justification in the \
             statement head — document why it cannot fire, or return a typed NowError"
        ),
    });
}

fn p001_panic_audit(file: &UnitFile, out: &mut Vec<Finding>) {
    if file.class != FileClass::Prod {
        return;
    }
    let tokens = &file.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        match &tok.kind {
            TokKind::Ident => {
                let name = tok.text.as_str();
                let prev_dot = prev_code(tokens, i).is_some_and(|p| p.is_punct('.'));
                let next_paren = next_code(tokens, i).is_some_and(|n| n.is_punct('('));
                if (name == "unwrap" || name == "expect") && prev_dot && next_paren {
                    if !has_invariant_comment(tokens, i) {
                        p001_push(out, &file.path, tok.line, &format!(".{name}()"));
                    }
                } else if P001_MACROS.contains(&name)
                    && next_code(tokens, i).is_some_and(|n| n.is_punct('!'))
                    && !has_invariant_comment(tokens, i)
                {
                    p001_push(out, &file.path, tok.line, &format!("{name}!"));
                }
            }
            TokKind::Punct('[')
                if is_computed_index(tokens, i) && !has_invariant_comment(tokens, i) =>
            {
                p001_push(out, &file.path, tok.line, "computed slice indexing");
            }
            _ => {}
        }
    }
}

/// True when `[` at `i` opens a *computed* index expression: postfix
/// position (previous code token is an identifier, `]` or `)`) and the
/// bracket content carries arithmetic, a numeric literal, a range, or a
/// `&`-keyed map lookup. The bare full-range `[..]` cannot panic and is
/// exempt.
fn is_computed_index(tokens: &[Token], i: usize) -> bool {
    let postfix = matches!(
        prev_code(tokens, i).map(|t| &t.kind),
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

// ---------------------------------------------------------------------
// L002 — lock discipline.
// ---------------------------------------------------------------------

/// The sanctioned single-guard lock sites: `(file suffix, impl type or
/// fn name)`. Everything else holding a `MutexGuard` is a finding.
const L002_SANCTIONED: &[(&str, &str)] = &[("crates/now-core/src/wave_exec.rs", "claim_and_plan")];

fn l002_lock_discipline(
    graph: &UnitGraph,
    class_of: &dyn Fn(&str) -> FileClass,
    out: &mut Vec<Finding>,
) {
    for f in &graph.fns {
        if f.facts.lock_calls == 0 || f.in_test || class_of(&f.path) == FileClass::TestOnly {
            continue;
        }
        if f.facts.lock_calls >= 2 {
            out.push(Finding {
                path: f.path.clone(),
                // INVARIANT: `lock_lines` records one line per counted
                // lock call, so indices 0 and 1 exist when the count
                // is ≥ 2.
                line: f.facts.lock_lines[1],
                rule: "L002",
                message: format!(
                    "fn `{}` acquires {} Mutex guards (first at line {}): nested acquisition \
                     risks deadlock — hold at most one guard per fn, in canonical order",
                    f.name, f.facts.lock_calls, f.facts.lock_lines[0]
                ),
            });
        }
        let sanctioned = L002_SANCTIONED.iter().any(|(file, scope)| {
            f.path.ends_with(file) && (f.name == *scope || f.type_name.as_deref() == Some(*scope))
        });
        if !sanctioned {
            out.push(Finding {
                path: f.path.clone(),
                // INVARIANT: `lock_calls >= 1` here, so the first
                // recorded lock line exists.
                line: f.facts.lock_lines[0],
                rule: "L002",
                message: format!(
                    "fn `{}` calls .lock() outside the sanctioned site \
                     (wave_exec.rs claim_and_plan): shared state is mutated on the \
                     driving thread through `&mut`, not through a lock",
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// D005 — RNG-stream discipline.
// ---------------------------------------------------------------------

fn d005_rng_streams(
    graph: &UnitGraph,
    class_of: &dyn Fn(&str) -> FileClass,
    out: &mut Vec<Finding>,
) {
    let n = graph.fns.len();
    // Types whose construction canonically seeds a stream: any fn of
    // the type derives or receives an RNG parameter.
    let mut sanctioned_types: Vec<&str> = Vec::new();
    for f in &graph.fns {
        if let Some(ty) = f.type_name.as_deref() {
            if (f.facts.derives || f.facts.rng_param) && !sanctioned_types.contains(&ty) {
                sanctioned_types.push(ty);
            }
        }
    }
    let callers: Vec<Vec<usize>> = (0..n).map(|i| graph.callers_of(i)).collect();
    let mut sanctioned = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let type_ok = f
            .type_name
            .as_deref()
            .is_some_and(|ty| sanctioned_types.contains(&ty));
        let boundary = f.facts.rng_param && callers[i].is_empty();
        if f.facts.derives || type_ok || boundary {
            sanctioned[i] = true;
            queue.push(i);
        }
    }
    // Propagate along call edges into RNG-parameterized callees: a
    // sanctioned caller hands its derived stream down.
    while let Some(i) = queue.pop() {
        for &callee in &graph.edges[i] {
            if !sanctioned[callee] && graph.fns[callee].facts.rng_param {
                sanctioned[callee] = true;
                queue.push(callee);
            }
        }
    }
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.facts.draws || sanctioned[i] || f.in_test {
            continue;
        }
        if class_of(&f.path) == FileClass::TestOnly {
            continue;
        }
        let via = if f.facts.rng_param {
            "receives an RNG parameter, but no intra-unit call path back to a sanctioned \
             derivation site exists"
        } else {
            "draws on an ambient stream (no derivation, no RNG parameter, and no \
             canonically-seeded constructor on its type)"
        };
        out.push(Finding {
            path: f.path.clone(),
            line: f.facts.draw_line,
            rule: "D005",
            message: format!(
                "fn `{}` draws from an RNG stream that does not descend from \
                 DetRng::for_op or a seeded constructor: it {via} — derive the stream \
                 canonically so parallel plan kernels stay replayable",
                f.name
            ),
        });
    }
}

fn prev_code(tokens: &[Token], i: usize) -> Option<&Token> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if tokens[j].kind != TokKind::Comment {
            return Some(&tokens[j]);
        }
    }
    None
}

fn next_code(tokens: &[Token], i: usize) -> Option<&Token> {
    let mut j = i + 1;
    while j < tokens.len() {
        if tokens[j].kind != TokKind::Comment {
            return Some(&tokens[j]);
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(class: FileClass, src: &str) -> Vec<(String, u32)> {
        let file = UnitFile::parse("mem.rs", class, src);
        analyze_unit(&[file])
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    fn rules(class: FileClass, src: &str) -> Vec<String> {
        analyze(class, src).into_iter().map(|(r, _)| r).collect()
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

    #[test]
    fn l002_flags_locks_outside_sanctioned_sites() {
        assert_eq!(
            rules(
                FileClass::Prod,
                "fn f() { let g = m.lock().unwrap(); g.push(1); }"
            ),
            // Both the P001 on the unwrap (per-file pass, runs first)
            // and the lock-discipline finding from the graph pass.
            ["P001", "L002"]
        );
    }

    #[test]
    fn l002_flags_double_acquisition_even_in_sanctioned_scope() {
        let src = "fn claim_and_plan() {\n\
                   // INVARIANT: test double-lock shape.\n\
                   let a = x.lock(); let b = y.lock(); }";
        let file = UnitFile::parse("crates/now-core/src/wave_exec.rs", FileClass::Prod, src);
        let findings = analyze_unit(&[file]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "L002");
        assert!(findings[0].message.contains("2 Mutex guards"));
    }

    #[test]
    fn l002_sanctioned_single_guards_pass() {
        let src = "fn claim_and_plan(slot: &Mutex<u32>) {\n\
                   // INVARIANT: slot poisoning re-raises a worker panic.\n\
                   let a = slot.lock().expect(\"poisoned\"); }";
        let file = UnitFile::parse("crates/now-core/src/wave_exec.rs", FileClass::Prod, src);
        assert!(analyze_unit(&[file]).is_empty());
    }

    #[test]
    fn d005_ambient_draw_is_flagged() {
        assert_eq!(
            rules(
                FileClass::Prod,
                "fn f() { let x = AMBIENT.gen_range(0..4); }"
            ),
            ["D005"]
        );
    }

    #[test]
    fn d005_derivation_and_param_paths_pass() {
        // Deriving locally is sanctioned.
        assert!(rules(
            FileClass::Prod,
            "fn f() { let mut r = DetRng::for_op(1, 2, 3); r.gen_range(0..4); }"
        )
        .is_empty());
        // A parameterized kernel called from a deriving fn is sanctioned
        // through the call edge.
        let src = "fn kernel(rng: &mut DetRng) { rng.gen_range(0..4); }\n\
                   fn driver() { let mut r = DetRng::new(7); kernel(&mut r); }";
        assert!(rules(FileClass::Prod, src).is_empty());
        // A parameterized kernel with NO intra-unit caller is a crate
        // boundary: the caller's crate carries the obligation.
        assert!(rules(
            FileClass::Prod,
            "pub fn kernel(rng: &mut DetRng) { rng.gen_range(0..4); }"
        )
        .is_empty());
    }

    #[test]
    fn d005_kernel_reached_only_from_unsanctioned_caller_is_flagged() {
        let src = "fn kernel(rng: &mut DetRng) { rng.gen_range(0..4); }\n\
                   fn driver() { kernel(ambient()); }";
        assert_eq!(rules(FileClass::Prod, src), ["D005"]);
    }

    #[test]
    fn d005_field_stream_sanctioned_via_constructor() {
        let src = "impl Net { fn new(seed: u64) -> Net { Net { rng: DetRng::new(seed) } }\n\
                   fn jitter(&mut self) -> u64 { self.rng.gen_range(0..9) } }";
        assert!(rules(FileClass::Prod, src).is_empty());
        // Without any deriving constructor, the field stream is ambient.
        let bad = "impl Net { fn jitter(&mut self) -> u64 { self.rng.gen_range(0..9) } }";
        assert_eq!(rules(FileClass::Prod, bad), ["D005"]);
    }
}
