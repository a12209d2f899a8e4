//! # now-lint — workspace determinism-and-safety static analysis
//!
//! Everything this reproduction claims rests on one invariant: **no
//! nondeterminism source ever enters a deterministic code path**.
//! Runtime proptests and CI byte-diff gates catch a violation *after*
//! it has produced divergent bytes; this crate catches it at lint time,
//! before a stray `HashMap` iteration or `thread_rng()` call has to be
//! bisected out of a million-node campaign.
//!
//! The pipeline per file: [`tokenizer`] (comment/string/raw-string
//! aware, no `syn` — the workspace vendors every dependency),
//! [`scope`] (marks `#[cfg(test)]` / `#[test]` items so determinism
//! rules bind only to production code), then [`rules`] (D001–D004,
//! S001, P001). The tool takes no configuration: the one sanctioned
//! exception (D002's wall-clock site) is a constant next to its rule,
//! and the directories never linted are `SKIPPED_DIRS`. Tests on the
//! real tree keep each of them from going stale.
//!
//! One rule looks past a single file: [`api_lock`] parses each crate's
//! `src/` files into an [`items`] tree, renders the crate's public
//! surface into a canonical `API.lock` and reports drift against the
//! committed copy (API001).
//!
//! Run it locally with:
//!
//! ```text
//! cargo run -p now-lint --release -- --workspace
//! ```

#![forbid(unsafe_code)] // a linter that polices unsafe must not need any
#![deny(deprecated)]

pub mod api_lock;
pub mod items;
pub mod rules;
pub mod scope;
pub mod tokenizer;

pub use rules::{FileClass, Finding};

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use api_lock::UnitFile;

/// Directories never linted, relative to the workspace root: the
/// vendored API-compatible subsets of external crates (`rand`,
/// `rand_chacha`, `proptest`), which are not this workspace's code and
/// mirror upstream idiom, and the lint's own test corpus, whose
/// deliberate violations the fixture tests pin. A directory prefix
/// only: `crates/now-lint/fixtures.rs` would still be linted.
pub(crate) const SKIPPED_DIRS: &[&str] = &["vendor", "crates/now-lint/fixtures"];

/// Classifies a workspace-relative path (forward slashes) into the
/// file class that decides which rules bind. See [`FileClass`].
pub fn classify(rel_path: &str) -> FileClass {
    if rel_path.starts_with("tests/") || rel_path.contains("/tests/") {
        FileClass::TestOnly
    } else if rel_path.contains("/src/bin/") {
        FileClass::Bin
    } else if rel_path.starts_with("examples/") || rel_path.contains("/examples/") {
        FileClass::Example
    } else {
        FileClass::Prod
    }
}

/// Lints one file's source text under the given class with the token
/// rules.
pub fn lint_source(rel_path: &str, class: FileClass, src: &str) -> Vec<Finding> {
    let mut tokens = tokenizer::tokenize(src);
    scope::mark_test_scopes(&mut tokens);
    rules::lint_tokens(rel_path, class, &tokens)
}

/// Recursively collects `.rs` files under `root`, skipping dot
/// directories (`.git` among them), every `target` build-output
/// directory and the `SKIPPED_DIRS` under `root`. Paths come back
/// sorted so reports are byte-stable.
pub fn discover_rs_files(root: &Path) -> Vec<PathBuf> {
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
/// (each bin is its own process, not part of the crate's API), `None`
/// for every other file.
fn crate_of(rel: &str) -> Option<&str> {
    let (name, tail) = rel.strip_prefix("crates/")?.split_once('/')?;
    (tail.starts_with("src/") && !tail.starts_with("src/bin/")).then_some(name)
}

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

/// Lints every discovered `.rs` file under `root`. The token rules run
/// per file; API001 compares each crate's rendered public surface
/// against the committed `crates/<name>/API.lock`. An orphan lock (its
/// crate has no linted sources) is checked against the empty surface,
/// so a lock claiming any item fails until it is deleted with its
/// crate. Returns the findings sorted by path, line, rule.
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
    for (rel, src) in &sources {
        findings.extend(lint_source(rel, classify(rel), src));
    }
    for (name, files) in &crates {
        let lock_rel = format!("crates/{name}/API.lock");
        let rendered = api_lock::render_surface(files);
        findings.extend(api_lock::check_lock(
            &root.join(&lock_rel),
            &lock_rel,
            &rendered,
        ));
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
    use rules::D002_SANCTIONED_FILE;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crate lives at <root>/crates/now-lint")
            .to_path_buf()
    }

    #[test]
    fn classification_covers_the_workspace_layout() {
        assert_eq!(classify("crates/now-core/src/batch.rs"), FileClass::Prod);
        assert_eq!(classify("src/lib.rs"), FileClass::Prod);
        assert_eq!(classify("tests/event_runtime.rs"), FileClass::TestOnly);
        assert_eq!(classify("crates/now-net/tests/t.rs"), FileClass::TestOnly);
        // No bench class: a wall-clock read in a `benches/` file is a
        // finding (timing lives in `bench/`, whose sources are bins).
        assert_eq!(
            classify("crates/now-bench/benches/bench_ops.rs"),
            FileClass::Prod
        );
        assert_eq!(
            classify("crates/now-bench/src/bin/x_batch_parallel.rs"),
            FileClass::Bin
        );
        assert_eq!(classify("examples/batch_churn.rs"), FileClass::Example);
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

    /// Every exemption still exempts something: the sanctioned file
    /// exists and would fire its rule under any other path, and each
    /// skipped directory holds `.rs` files with findings. An exemption
    /// that no longer covers anything fails here and should be deleted.
    #[test]
    fn sanctions_cannot_go_stale() {
        let root = workspace_root();
        let file = D002_SANCTIONED_FILE;
        let src = fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("sanctioned file {file}: {e}"));
        let elsewhere = file.replace(".rs", "_elsewhere.rs");
        assert!(
            lint_source(&elsewhere, FileClass::Prod, &src)
                .iter()
                .any(|f| f.rule == "D002"),
            "{file} no longer needs its D002 sanction"
        );
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

    /// The libm ban has teeth: a scratch crate with now-core's,
    /// now-over's and now-net's `clippy.toml` and lint attributes, whose
    /// one module is the `libm_calls` fixture, fails `cargo clippy`
    /// with `disallowed_methods` at each of the fixture's five libm
    /// calls, and passes it under `--tests`, where the crate root
    /// allows libm as a reference. Where the toolchain has no clippy,
    /// the probe prints a note and checks nothing.
    #[test]
    fn libm_ban_fires_on_a_seeded_probe() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let clippy = std::process::Command::new(&cargo)
            .args(["clippy", "--version"])
            .output();
        if !clippy.is_ok_and(|out| out.status.success()) {
            eprintln!("no cargo clippy on this toolchain: the libm-ban probe is skipped");
            return;
        }
        let (root, fixtures) = (
            workspace_root(),
            Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures"),
        );
        let attributes = [
            "#![deny(clippy::disallowed_methods)]",
            "#![cfg_attr(test, allow(clippy::disallowed_methods))]",
        ];
        for host in ["now-core", "now-over", "now-net"] {
            let lib = fs::read_to_string(root.join(format!("crates/{host}/src/lib.rs"))).unwrap();
            for attribute in attributes {
                assert!(
                    lib.lines().any(|l| l == attribute),
                    "{host} lacks {attribute}"
                );
            }
            let probe =
                std::env::temp_dir().join(format!("now-libm-probe-{}-{host}", std::process::id()));
            let _ = fs::remove_dir_all(&probe);
            fs::create_dir_all(probe.join("src")).unwrap();
            fs::write(
                probe.join("Cargo.toml"),
                "[package]\nname = \"probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n[workspace]\n",
            )
            .unwrap();
            fs::copy(
                root.join(format!("crates/{host}/clippy.toml")),
                probe.join("clippy.toml"),
            )
            .unwrap();
            fs::copy(
                fixtures.join("libm_calls.rs"),
                probe.join("src/libm_calls.rs"),
            )
            .unwrap();
            fs::write(
                probe.join("src/lib.rs"),
                format!(
                    "{}\nmod libm_calls;\npub use libm_calls::libm_calls;\n",
                    attributes.join("\n")
                ),
            )
            .unwrap();
            let clippy = |tests: bool| {
                let mut run = std::process::Command::new(&cargo);
                run.args(["clippy", "--offline", "--quiet", "--message-format=short"])
                    .args(if tests {
                        &["--tests"][..]
                    } else {
                        &["--lib"][..]
                    })
                    .current_dir(&probe)
                    .env("CARGO_TARGET_DIR", probe.join("target"));
                run.output().unwrap()
            };
            let lib = clippy(false);
            let stderr = String::from_utf8_lossy(&lib.stderr);
            let fired: Vec<&str> = stderr
                .lines()
                .filter(|l| l.contains("disallowed method"))
                .collect();
            assert!(
                !lib.status.success(),
                "{host}: libm calls passed clippy:\n{stderr}"
            );
            for method in ["ln", "ln_1p", "log2", "exp", "powf"] {
                let name = format!("`f64::{method}`");
                let at = |l: &&&str| l.contains("src/libm_calls.rs:7:") && l.contains(&name);
                assert_eq!(
                    fired.iter().filter(at).count(),
                    1,
                    "{host}: {name} did not fire once:\n{stderr}"
                );
            }
            assert_eq!(fired.len(), 5, "{host}:\n{stderr}");
            let tests = clippy(true);
            assert!(
                tests.status.success(),
                "{host}: test code may call libm:\n{}",
                String::from_utf8_lossy(&tests.stderr)
            );
            let _ = fs::remove_dir_all(&probe);
        }
    }

    /// The gate has teeth: on a scratch tree, each fixture violation
    /// planted into a crate's `src/` fires its own rule on the planted
    /// file (every fixture also declares `pub` items, so API001 alone
    /// would fail the run even if the rule under test went silent), the
    /// D002 sanction covers `profile.rs` alone, an appended `pub fn`
    /// drifts its crate's lock, and an orphan lock fails API001.
    #[test]
    fn seeded_probes_fire_their_own_rule() {
        let root = std::env::temp_dir().join(format!("now-lint-probes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for host in ["now-core", "now-trace"] {
            fs::create_dir_all(root.join(format!("crates/{host}/src"))).unwrap();
            fs::write(
                root.join(format!("crates/{host}/src/lib.rs")),
                "pub fn ok() {}\n",
            )
            .unwrap();
        }
        fs::write(
            root.join(D002_SANCTIONED_FILE),
            "pub fn stopwatch() -> std::time::Instant { std::time::Instant::now() }\n",
        )
        .unwrap();
        // Baseline the locks so only the planted violations remain.
        write_api_locks(&root).unwrap();
        assert!(run_workspace(&root).unwrap().is_empty());

        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        for (host, fixture, rule) in [
            ("now-core", "d001_hash_collections", "D001"),
            ("now-core", "d002_wall_clock", "D002"),
            ("now-core", "d003_thread_spawn", "D003"),
            ("now-core", "d004_ambient_entropy", "D004"),
            ("now-core", "s001_unsafe", "S001"),
            ("now-core", "p001_panic_paths", "P001"),
            ("now-trace", "d002_wall_clock", "D002"),
        ] {
            let probe = format!("crates/{host}/src/__lint_probe.rs");
            fs::copy(fixtures.join(format!("{fixture}.rs")), root.join(&probe)).unwrap();
            let findings = run_workspace(&root).unwrap();
            assert!(
                findings.iter().any(|f| f.path == probe && f.rule == rule),
                "{fixture} planted in {host} did not fire {rule}: {findings:?}"
            );
            fs::remove_file(root.join(&probe)).unwrap();
        }

        let lib = root.join("crates/now-core/src/lib.rs");
        fs::write(&lib, "pub fn ok() {}\npub fn __api_drift_probe() {}\n").unwrap();
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
        let _ = fs::remove_dir_all(&root);
    }
}
