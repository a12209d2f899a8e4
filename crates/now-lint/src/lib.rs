//! # now-lint — the workspace checks no compiler lint makes
//!
//! Everything this reproduction claims rests on one invariant: **no
//! nondeterminism source ever enters a deterministic code path**. The
//! compiler and clippy enforce it: `crates/clippy.toml` lists the
//! banned methods and types (hash collections, wall clock, threads,
//! OS entropy, libm) and the root `Cargo.toml`'s `[workspace.lints]`
//! table denies them and forbids `unsafe` in every target. A test in
//! this crate runs clippy on seeded probes to keep that configuration
//! firing. What is left here are the checks no compiler lint makes:
//!
//! * P001 (`rules`): a panic-capable site in library code needs a
//!   `// INVARIANT:` justification. Per file: `tokenizer` (comment,
//!   string and raw-string aware, no `syn` — the workspace vendors
//!   every dependency), `scope` (marks `#[cfg(test)]` / `#[test]`
//!   items, which P001 skips), then `rules`.
//! * API001 ([`api_lock`]): each crate's `src/` files parse into an
//!   [`items`] tree, whose public surface renders into a canonical
//!   `API.lock`; drift against the committed copy is a finding.
//! * API002 (`api_lock::unused_lines`): `pub` means used. A lock line
//!   whose name no source outside the crate's library writes, and that
//!   no used item's signature names, is a finding: make it `pub(crate)`
//!   or delete it. Outside means other crates, every `src/bin/` and
//!   `src/main.rs`, crate `tests/`, `benches/` and `examples/`, the root
//!   package, and `bench/`.
//!
//! The tool takes no configuration: the directories never linted are
//! `SKIPPED_DIRS`, and a test on the real tree keeps that list from
//! going stale.
//!
//! Run it locally with:
//!
//! ```text
//! cargo run -p now-lint --release -- --workspace
//! ```

pub mod api_lock;
pub mod items;
mod rules;
mod scope;
mod tokenizer;

pub use rules::{FileClass, Finding};

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use api_lock::UnitFile;
use tokenizer::TokKind;

/// Directories never linted, relative to the workspace root: the
/// vendored API-compatible subsets of external crates (`rand`,
/// `rand_chacha`, `proptest`), which are not this workspace's code and
/// mirror upstream idiom, and the lint's own test corpus, whose
/// deliberate violations the fixture tests pin. A directory prefix
/// only: `crates/now-lint/fixtures.rs` would still be linted.
pub(crate) const SKIPPED_DIRS: &[&str] = &["vendor", "crates/now-lint/fixtures"];

/// Classifies a workspace-relative path (forward slashes) into the
/// file class that decides whether P001 binds. See [`FileClass`].
pub(crate) fn classify(rel_path: &str) -> FileClass {
    let other = rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || ["/tests/", "/examples/", "/src/bin/"]
            .iter()
            .any(|dir| rel_path.contains(dir));
    if other {
        FileClass::Other
    } else {
        FileClass::Prod
    }
}

/// Lints one file's source text under the given class with P001.
pub fn lint_source(rel_path: &str, class: FileClass, src: &str) -> Vec<Finding> {
    let mut tokens = tokenizer::tokenize(src);
    scope::mark_test_scopes(&mut tokens);
    rules::lint_tokens(rel_path, class, &tokens)
}

/// Recursively collects `.rs` files under `root`, skipping dot
/// directories (`.git` among them), every `target` build-output
/// directory and the `SKIPPED_DIRS` under `root`. Paths come back
/// sorted so reports are byte-stable.
pub(crate) fn discover_rs_files(root: &Path) -> Vec<PathBuf> {
    let skipped: Vec<PathBuf> = SKIPPED_DIRS.iter().map(|d| root.join(d)).collect();
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || skipped.contains(&path) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The crate whose public surface a workspace-relative path belongs
/// to: `<name>` for files in `crates/<name>/src/` outside `src/bin/`
/// and `src/main.rs` (each bin is its own process, not part of the
/// crate's API), `None` for every other file.
fn crate_of(rel: &str) -> Option<&str> {
    let (name, tail) = rel.strip_prefix("crates/")?.split_once('/')?;
    let library = tail.starts_with("src/") && !tail.starts_with("src/bin/");
    (library && tail != "src/main.rs").then_some(name)
}

/// Each identifier of the workspace's sources, with the crates whose
/// library writes it (`None` for every other file).
type IdentOwners<'s> = BTreeMap<String, BTreeSet<Option<&'s str>>>;

/// One linted source file: its workspace-relative path and its text.
type Source = (String, String);

/// Each crate's item-parsed `src/` files, keyed by crate name.
type CrateUnits = BTreeMap<String, Vec<UnitFile>>;

/// Reads every discovered `.rs` file under `root` (sorted by path) and
/// groups the crate `src/` files into per-crate item trees, keyed by
/// crate name ([`crate_of`]). The lint run and `--write-api-locks` both
/// start here, so they see the same crates. An unreadable file is an
/// error naming its path, never a silent skip.
fn read_workspace(root: &Path) -> Result<(Vec<Source>, CrateUnits), String> {
    let mut sources = Vec::new();
    let mut crates = CrateUnits::new();
    for path in discover_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
        if let Some(name) = crate_of(&rel) {
            crates
                .entry(name.to_string())
                .or_default()
                .push(UnitFile::parse(&rel, &src));
        }
        sources.push((rel, src));
    }
    Ok((sources, crates))
}

/// Lints every discovered `.rs` file under `root`. P001 runs per
/// file; API001 compares each crate's rendered public surface
/// against the committed `crates/<name>/API.lock`, and API002 reports
/// each rendered line nothing outside the crate's library uses, at its
/// line of the rendered lock. An orphan lock (its crate has no linted
/// sources) is checked against the empty surface, so a lock claiming
/// any item fails until it is deleted with its crate. Returns the
/// findings sorted by path, line, rule.
pub fn run_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let (sources, mut crates) = read_workspace(root)?;
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for dir in entries.flatten().map(|e| e.path()) {
            if dir.join("API.lock").is_file() {
                let name = dir.file_name().unwrap_or_default().to_string_lossy();
                crates.entry(name.into_owned()).or_default();
            }
        }
    }
    let mut findings = Vec::new();
    let mut owners = IdentOwners::new();
    for (rel, src) in &sources {
        let mut tokens = tokenizer::tokenize(src);
        scope::mark_test_scopes(&mut tokens);
        findings.extend(rules::lint_tokens(rel, classify(rel), &tokens));
        for t in tokens.into_iter().filter(|t| t.kind == TokKind::Ident) {
            owners.entry(t.text).or_default().insert(crate_of(rel));
        }
    }
    for (name, files) in &crates {
        let lock_rel = format!("crates/{name}/API.lock");
        let rendered = api_lock::render_surface(files);
        findings.extend(api_lock::check_lock(
            &root.join(&lock_rel),
            &lock_rel,
            &rendered,
        ));
        let used_outside = |ident: &str| {
            owners
                .get(ident)
                .is_some_and(|o| o.iter().any(|owner| *owner != Some(name.as_str())))
        };
        for line in api_lock::unused_lines(files, used_outside) {
            let at = rendered.lines().position(|l| l == line).unwrap_or(0);
            findings.push(Finding {
                path: lock_rel.clone(),
                line: u32::try_from(at + 1).unwrap_or(u32::MAX),
                rule: "API002",
                message: format!(
                    "`{line}` has no user outside {name}'s library — make it pub(crate) \
                     or delete it"
                ),
            });
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Renders every crate's canonical `API.lock` and writes the files
/// under `root`. Returns the workspace-relative paths written (sorted).
/// Used by `now-lint --write-api-locks`; the output is byte-stable, so
/// a second run writes identical bytes.
pub fn write_api_locks(root: &Path) -> Result<Vec<String>, String> {
    let (_, crates) = read_workspace(root)?;
    let mut written = Vec::new();
    for (name, files) in &crates {
        let lock_rel = format!("crates/{name}/API.lock");
        let rendered = api_lock::render_surface(files);
        fs::write(root.join(&lock_rel), rendered)
            .map_err(|e| format!("writing {lock_rel}: {e}"))?;
        written.push(lock_rel);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crate lives at <root>/crates/now-lint")
            .to_path_buf()
    }

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
    }

    #[test]
    fn classification_covers_the_workspace_layout() {
        assert_eq!(classify("crates/now-core/src/batch.rs"), FileClass::Prod);
        assert_eq!(classify("src/lib.rs"), FileClass::Prod);
        assert_eq!(classify("tests/event_runtime.rs"), FileClass::Other);
        assert_eq!(classify("crates/now-net/tests/t.rs"), FileClass::Other);
        // No bench class: a `benches/` file is library code to P001.
        assert_eq!(
            classify("crates/now-bench/benches/bench_ops.rs"),
            FileClass::Prod
        );
        assert_eq!(
            classify("crates/now-bench/src/bin/x_batch_parallel.rs"),
            FileClass::Other
        );
        assert_eq!(classify("examples/batch_churn.rs"), FileClass::Other);
    }

    #[test]
    fn only_crate_library_sources_have_a_surface() {
        assert_eq!(crate_of("crates/now-core/src/batch.rs"), Some("now-core"));
        assert_eq!(crate_of("crates/now-net/src/a/b.rs"), Some("now-net"));
        assert_eq!(crate_of("crates/now-bench/src/bin/x_f1_init.rs"), None);
        assert_eq!(crate_of("crates/now-net/tests/t.rs"), None);
        assert_eq!(crate_of("src/lib.rs"), None);
        assert_eq!(crate_of("bench/src/bin/step_anatomy/main.rs"), None);
    }

    /// The real gate, enforced by `cargo test` as well as CI: the
    /// workspace tree must be lint-clean.
    #[test]
    fn workspace_is_clean() {
        let findings = run_workspace(&workspace_root()).expect("every source file reads");
        let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
        assert!(
            findings.is_empty(),
            "workspace must be lint-clean:\n{}",
            rendered.join("\n")
        );
    }

    /// Every skipped directory still skips something: it holds `.rs`
    /// files with findings. One that no longer covers anything fails
    /// here and should be deleted.
    #[test]
    fn skipped_dirs_cannot_go_stale() {
        let root = workspace_root();
        for dir in SKIPPED_DIRS {
            let files = discover_rs_files(&root.join(dir));
            assert!(
                !files.is_empty(),
                "skipped directory {dir} holds no .rs files"
            );
            let findings: usize = files
                .iter()
                .map(|path| {
                    let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
                    let src = fs::read_to_string(path).unwrap();
                    lint_source(&rel, classify(&rel), &src).len()
                })
                .sum();
            assert!(findings > 0, "skipped directory {dir} would lint clean");
        }
    }

    /// The determinism configuration has teeth. A scratch crate with
    /// `crates/clippy.toml` and the root manifest's `[workspace.lints]`
    /// tables:
    /// * fails `cargo clippy --lib` with an error at exactly the sites
    ///   the `d00*` and `libm_calls` fixtures plant, plus a seeded
    ///   `RandomState`;
    /// * passes `cargo clippy --tests` on a test's libm reference under
    ///   an item-level `#[expect]`, and fails it on a test-side
    ///   `Instant::now` beside it;
    /// * fails to compile a seeded `unsafe` block.
    ///
    /// Where the toolchain has no clippy, the probe prints a note and
    /// checks nothing.
    #[test]
    fn determinism_config_fires_on_seeded_probes() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let version = Command::new(&cargo).args(["clippy", "--version"]).output();
        if !version.is_ok_and(|out| out.status.success()) {
            eprintln!("no cargo clippy on this toolchain: the determinism-config probe is skipped");
            return;
        }
        let root = workspace_root();
        let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let mut lints = String::new();
        let mut in_lints = false;
        for line in manifest.lines() {
            if line.starts_with('[') {
                in_lints = line.starts_with("[workspace.lints");
            }
            if in_lints {
                lints += line;
                lints += "\n";
            }
        }
        assert!(
            lints.contains("unsafe_code"),
            "Cargo.toml has no [workspace.lints]"
        );
        let probe =
            std::env::temp_dir().join(format!("now-lint-config-probe-{}", std::process::id()));
        let _ = fs::remove_dir_all(&probe);
        fs::create_dir_all(probe.join("src")).unwrap();
        fs::write(
            probe.join("Cargo.toml"),
            format!(
                "[package]\nname = \"probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
                 [lints]\nworkspace = true\n\n[workspace]\n\n{lints}"
            ),
        )
        .unwrap();
        fs::copy(root.join("crates/clippy.toml"), probe.join("clippy.toml")).unwrap();
        let planted = [
            "d001_hash_collections",
            "d002_wall_clock",
            "d003_thread_spawn",
            "libm_calls",
        ];
        for name in planted {
            let file = format!("{name}.rs");
            fs::copy(fixtures().join(&file), probe.join("src").join(&file)).unwrap();
        }
        // `(passed, stderr)` of `cargo clippy <target>` on `lib` as the
        // crate root.
        let clippy = |lib: &str, target: &str| {
            fs::write(probe.join("src/lib.rs"), lib).unwrap();
            let out = Command::new(&cargo)
                .args(["clippy", "--offline", "--quiet", "--message-format=short"])
                .arg(target)
                .current_dir(&probe)
                .env("CARGO_TARGET_DIR", probe.join("target"))
                .output()
                .unwrap();
            (
                out.status.success(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
            )
        };
        let mods: String = planted.iter().map(|m| format!("pub mod {m};\n")).collect();
        let lib = format!(
            "{mods}pub fn entropy() {{\n    \
             let _ = std::collections::hash_map::RandomState::new();\n}}\n"
        );
        let (passed, stderr) = clippy(&lib, "--lib");
        assert!(!passed, "the planted sites passed clippy:\n{stderr}");
        let mut fired: Vec<String> = stderr
            .lines()
            .filter(|l| l.contains("error: use of a disallowed"))
            .map(|l| {
                let site = l.splitn(3, ':').take(2).collect::<Vec<_>>().join(":");
                let path = l.split('`').nth(1).unwrap_or_default();
                format!("{site} {path}")
            })
            .collect();
        fired.sort();
        let mut want: Vec<String> = [
            ("d001_hash_collections.rs:5", "std::collections::HashMap"),
            ("d001_hash_collections.rs:6", "std::collections::HashSet"),
            ("d001_hash_collections.rs:9", "std::collections::HashMap"),
            ("d001_hash_collections.rs:13", "std::collections::HashSet"),
            ("d002_wall_clock.rs:8", "std::time::Instant::now"),
            ("d002_wall_clock.rs:9", "std::time::SystemTime"),
            ("d003_thread_spawn.rs:6", "std::thread::spawn"),
            ("d003_thread_spawn.rs:7", "std::thread::scope"),
            ("d003_thread_spawn.rs:8", "std::thread::Scope::spawn"),
            ("libm_calls.rs:7", "f64::ln"),
            ("libm_calls.rs:7", "f64::ln_1p"),
            ("libm_calls.rs:7", "f64::log2"),
            ("libm_calls.rs:7", "f64::exp"),
            ("libm_calls.rs:7", "f64::powf"),
            ("lib.rs:6", "std::hash::RandomState"),
        ]
        .iter()
        .map(|(site, path)| format!("src/{site} {path}"))
        .collect();
        want.sort();
        assert_eq!(fired, want, "clippy:\n{stderr}");

        // A test may call libm as a reference under an item-level
        // `#[expect]`; the sanction reaches no further, so a test-side
        // wall clock next to it still fails.
        let reference = "#[cfg(test)]\nmod tests {\n    #[test]\n    \
             #[expect(clippy::disallowed_methods, reason = \"libm is the reference\")]\n    \
             fn reference() {\n        assert!(2f64.ln() > 0.0);\n    }\n}\n";
        let (passed, stderr) = clippy(reference, "--tests");
        assert!(passed, "test code may call libm under #[expect]:\n{stderr}");
        let clock = format!(
            "{reference}#[cfg(test)]\nmod clock {{\n    #[test]\n    \
             fn wall_clock() {{\n        let _ = std::time::Instant::now();\n    }}\n}}\n"
        );
        let (passed, stderr) = clippy(&clock, "--tests");
        assert!(
            !passed
                && stderr.lines().any(|l| {
                    l.starts_with("src/lib.rs:13:") && l.contains("`std::time::Instant::now`")
                }),
            "a test-side Instant::now passed clippy:\n{stderr}"
        );

        let (passed, stderr) = clippy(
            "pub fn read(x: &u32) -> u32 {\n    unsafe { *(x as *const u32) }\n}\n",
            "--lib",
        );
        assert!(
            !passed
                && stderr.lines().any(|l| {
                    l.starts_with("src/lib.rs:2:") && l.contains("usage of an `unsafe` block")
                }),
            "a seeded unsafe block compiled:\n{stderr}"
        );
        let _ = fs::remove_dir_all(&probe);
    }

    /// The gate has teeth: on a scratch tree, the P001 fixture planted
    /// into a crate's `src/` fires P001 on the planted file (the fixture
    /// also declares `pub` items, so API001 alone would fail the run
    /// even if P001 went silent), an appended `pub fn` drifts its
    /// crate's lock, an orphan lock fails API001, and a locked `pub fn`
    /// nothing outside the crate calls fails API002 while a type only a
    /// used signature names does not.
    #[test]
    fn seeded_probes_fire_their_own_rule() {
        let root = std::env::temp_dir().join(format!("now-lint-probes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let lib = root.join("crates/now-core/src/lib.rs");
        let user = root.join("src/lib.rs");
        fs::create_dir_all(lib.parent().unwrap()).unwrap();
        fs::create_dir_all(user.parent().unwrap()).unwrap();
        fs::write(&lib, "pub struct Shown;\npub fn ok() -> Shown { Shown }\n").unwrap();
        fs::write(&user, "pub fn run() { now_core::ok(); }\n").unwrap();
        // Baseline the locks so only the planted violations remain.
        write_api_locks(&root).unwrap();
        let findings = run_workspace(&root).unwrap();
        assert!(findings.is_empty(), "baseline: {findings:?}");

        let probe = "crates/now-core/src/__lint_probe.rs";
        fs::copy(fixtures().join("p001_panic_paths.rs"), root.join(probe)).unwrap();
        let findings = run_workspace(&root).unwrap();
        assert!(
            findings.iter().any(|f| f.path == probe && f.rule == "P001"),
            "the planted P001 fixture did not fire P001: {findings:?}"
        );
        fs::remove_file(root.join(probe)).unwrap();

        fs::write(
            &lib,
            "pub struct Shown;\npub fn ok() -> Shown { Shown }\npub fn __api_drift_probe() {}\n",
        )
        .unwrap();
        fs::write(
            &user,
            "pub fn run() { now_core::ok(); now_core::__api_drift_probe(); }\n",
        )
        .unwrap();
        fs::create_dir_all(root.join("crates/ghost")).unwrap();
        fs::write(root.join("crates/ghost/API.lock"), "# stale\nfn gone\n").unwrap();
        let findings = run_workspace(&root).unwrap();
        let got: Vec<(&str, &str)> = findings.iter().map(|f| (f.path.as_str(), f.rule)).collect();
        assert_eq!(
            got,
            [
                ("crates/ghost/API.lock", "API001"),
                ("crates/now-core/API.lock", "API001")
            ],
            "findings: {findings:?}"
        );
        fs::remove_dir_all(root.join("crates/ghost")).unwrap();

        fs::write(&user, "pub fn run() { now_core::ok(); }\n").unwrap();
        write_api_locks(&root).unwrap();
        let findings = run_workspace(&root).unwrap();
        let got: Vec<(String, u32, &str)> = findings
            .iter()
            .map(|f| (f.path.clone(), f.line, f.rule))
            .collect();
        assert_eq!(
            got,
            [("crates/now-core/API.lock".to_string(), 2, "API002")],
            "findings: {findings:?}"
        );
        assert!(
            findings[0].message.contains("`fn __api_drift_probe`"),
            "{}",
            findings[0].message
        );
        let _ = fs::remove_dir_all(&root);
    }
}
