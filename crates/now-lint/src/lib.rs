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
//! rules bind only to production code), [`rules`] (D001–D004, S001,
//! P001), then the committed [`config`] allowlist (`lint.toml`, every
//! entry with a mandatory reason; stale entries are themselves
//! findings).
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
pub mod config;
pub mod items;
pub mod rules;
pub mod scope;
pub mod tokenizer;

pub use config::Config;
pub use rules::{FileClass, Finding};

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use api_lock::UnitFile;

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

/// Lints one file's source text under the given class. The returned
/// findings are **pre-allowlist**: the caller applies [`Config`].
pub fn lint_source(rel_path: &str, class: FileClass, src: &str) -> Vec<Finding> {
    let mut tokens = tokenizer::tokenize(src);
    scope::mark_test_scopes(&mut tokens);
    rules::lint_tokens(rel_path, class, &tokens)
}

/// Recursively collects `.rs` files under `root`, skipping VCS and
/// build-output directories outright (`vendor/` and the fixture corpus
/// are excluded via `lint.toml`, where the exclusion carries a reason).
/// Paths come back sorted so reports are byte-stable.
pub fn discover_rs_files(root: &Path) -> Vec<PathBuf> {
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
                if name == ".git" || name == "target" || name.starts_with('.') {
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

/// One linted source file: its workspace-relative path and its text,
/// or why it could not be read.
type Source = (String, std::io::Result<String>);

/// Reads every `.rs` file under `root` that `cfg` does not exclude
/// (sorted by path) and groups the crate `src/` files into per-crate
/// item trees, keyed by crate name ([`crate_of`]). The lint run and
/// `--write-api-locks` both start here, so they see the same crates.
fn read_workspace(root: &Path, cfg: &Config) -> (Vec<Source>, BTreeMap<String, Vec<UnitFile>>) {
    let mut sources = Vec::new();
    let mut crates: BTreeMap<String, Vec<UnitFile>> = BTreeMap::new();
    for path in discover_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if cfg.is_excluded(&rel) {
            continue;
        }
        let src = fs::read_to_string(&path);
        if let (Some(name), Ok(src)) = (crate_of(&rel), &src) {
            crates
                .entry(name.to_string())
                .or_default()
                .push(UnitFile::parse(&rel, src));
        }
        sources.push((rel, src));
    }
    (sources, crates)
}

/// Lints every discovered `.rs` file under `root` and applies the
/// allowlist. The token rules run per file; API001 compares each
/// crate's rendered public surface against the committed
/// `crates/<name>/API.lock`. Returns surviving findings (sorted by
/// path, line, rule), including one `L001` finding per allowlist entry
/// that suppressed nothing and per orphan `API.lock` (a lock with no
/// live crate) — the lists can only shrink, never rot. IO errors on
/// individual files are findings too, not silent skips.
pub fn run_workspace(root: &Path, cfg: &Config) -> Vec<Finding> {
    let (sources, crates) = read_workspace(root, cfg);
    let mut findings = Vec::new();
    let mut raw = Vec::new();
    for (rel, src) in &sources {
        match src {
            Ok(src) => raw.extend(lint_source(rel, classify(rel), src)),
            Err(e) => findings.push(Finding {
                path: rel.clone(),
                line: 0,
                rule: "L001",
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    for (name, files) in &crates {
        let lock_rel = format!("crates/{name}/API.lock");
        let rendered = api_lock::render_surface(files);
        raw.extend(api_lock::check_lock(
            &root.join(&lock_rel),
            &lock_rel,
            &rendered,
        ));
    }

    let mut allow_used = vec![false; cfg.allows.len()];
    for finding in raw {
        match cfg.allow_index(finding.rule, &finding.path) {
            Some(idx) => allow_used[idx] = true,
            None => findings.push(finding),
        }
    }

    // Orphan locks: an API.lock whose crate no longer contributes any
    // sources is dead weight and, worse, a stale claim about a surface.
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            if !dir.join("API.lock").is_file() {
                continue;
            }
            let name = dir.file_name().unwrap_or_default().to_string_lossy();
            if !crates.contains_key(name.as_ref()) {
                findings.push(Finding {
                    path: format!("crates/{name}/API.lock"),
                    line: 0,
                    rule: "L001",
                    message: "orphan API.lock: this crate has no linted sources — delete the \
                              lock with the crate"
                        .to_string(),
                });
            }
        }
    }

    for (idx, used) in allow_used.iter().enumerate() {
        if !used {
            let entry = &cfg.allows[idx];
            findings.push(Finding {
                path: "lint.toml".to_string(),
                line: entry.line,
                rule: "L001",
                message: format!(
                    "stale allowlist entry: rule {} no longer fires for `{}` — delete it",
                    entry.rule, entry.path
                ),
            });
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Renders every crate's canonical `API.lock` and writes the files
/// under `root`. Returns the workspace-relative paths written (sorted).
/// Used by `now-lint --write-api-locks`; the output is byte-stable, so
/// a second run writes identical bytes.
pub fn write_api_locks(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    let (sources, crates) = read_workspace(root, cfg);
    if let Some((rel, Err(e))) = sources.iter().find(|(_, src)| src.is_err()) {
        return Err(format!("reading {rel}: {e}"));
    }
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

/// Loads `lint.toml` from `root`. A missing file is an empty config
/// (deny-by-default stays in force); a malformed one is an error.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    config::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// workspace tree must be clean under its committed allowlist.
    #[test]
    fn workspace_is_clean_under_the_committed_allowlist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crate lives at <root>/crates/now-lint")
            .to_path_buf();
        let cfg = load_config(&root).expect("lint.toml parses");
        assert!(
            !cfg.allows.is_empty(),
            "committed lint.toml should carry the documented allow entries"
        );
        let findings = run_workspace(&root, &cfg);
        let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
        assert!(
            findings.is_empty(),
            "workspace must be lint-clean:\n{}",
            rendered.join("\n")
        );
    }

    /// L001 covers every rule and the locks: an allow that suppresses
    /// nothing is stale, and an `API.lock` whose crate has no linted
    /// sources is an orphan.
    #[test]
    fn stale_allow_and_orphan_lock_fire_l001() {
        let root = std::env::temp_dir().join(format!("now-lint-l001-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/ghost")).unwrap();
        fs::write(root.join("crates/ghost/API.lock"), "# stale\n").unwrap();
        fs::create_dir_all(root.join("crates/live/src")).unwrap();
        fs::write(root.join("crates/live/src/lib.rs"), "pub fn ok() {}\n").unwrap();
        let cfg = config::parse(
            "[[allow]]\nrule = \"P001\"\npath = \"nope.rs\"\nreason = \"never fires\"\n",
        )
        .unwrap();
        // Baseline the live crate's lock so only the planted rot remains.
        write_api_locks(&root, &cfg).unwrap();
        let findings = run_workspace(&root, &cfg);
        let got: Vec<(&str, &str)> = findings.iter().map(|f| (f.path.as_str(), f.rule)).collect();
        assert_eq!(
            got,
            vec![("crates/ghost/API.lock", "L001"), ("lint.toml", "L001")],
            "findings: {:?}",
            findings
        );
        let _ = fs::remove_dir_all(&root);
    }
}
