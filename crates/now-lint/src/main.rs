//! The `now-lint` binary: the CI determinism-and-safety gate.
//!
//! ```text
//! now-lint --workspace            # lint the whole tree under lint.toml
//! now-lint path/to/file.rs …      # lint specific files (token rules, no allowlist)
//! now-lint --write-api-locks      # regenerate crates/<name>/API.lock files
//!     --root <dir>                # workspace root (default: ascend from cwd)
//!     --config <file>             # allowlist (default: <root>/lint.toml)
//!     --json                      # canonical JSON findings on stdout
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or config error.
//! Findings print as `file:line rule-id message`, one per line; with
//! `--json`, as one `{"findings": […], "count": N}` document in the
//! workspace's JSON layout (`now_trace::Json`), findings in the same
//! sorted order (exit codes unchanged).

#![forbid(unsafe_code)] // SAFETY-comment police carry no unsafe themselves
#![deny(deprecated)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use now_lint::{
    classify, config, lint_source, load_config, run_workspace, write_api_locks, Finding,
};
use now_trace::Json;

fn usage() -> &'static str {
    "usage: now-lint --workspace [--root DIR] [--config FILE] [--json]\n       \
     now-lint FILE.rs [FILE.rs …] [--json]\n       \
     now-lint --write-api-locks [--root DIR] [--config FILE]"
}

/// Ascends from `start` to the first directory holding a `lint.toml`
/// (the workspace root marker this tool itself requires).
fn find_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| dir.join("lint.toml").is_file())
        .map(Path::to_path_buf)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("now-lint: {msg}");
    ExitCode::from(2)
}

fn report(findings: &[Finding], json: bool) -> ExitCode {
    if json {
        let doc = Json::object([
            ("findings", Json::array(findings.iter().map(Finding::json))),
            ("count", findings.len().into()),
        ]);
        print!("{}", doc.render());
    } else {
        for f in findings {
            println!("{}", f.render());
        }
    }
    if findings.is_empty() {
        eprintln!("now-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("now-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut write_locks = false;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--write-api-locks" => write_locks = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return fail("--root needs a directory argument"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return fail("--config needs a file argument"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                return fail(&format!("unknown flag `{flag}`\n{}", usage()));
            }
            path => files.push(PathBuf::from(path)),
        }
    }

    if !workspace && !write_locks && files.is_empty() {
        return fail(usage());
    }
    if (workspace || write_locks) && !files.is_empty() {
        return fail("--workspace/--write-api-locks and explicit files are mutually exclusive");
    }

    if workspace || write_locks {
        let root =
            match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
                Some(r) => r,
                None => return fail("no lint.toml found here or above; pass --root"),
            };
        let cfg = match config_path {
            Some(p) => {
                let text = match std::fs::read_to_string(&p) {
                    Ok(t) => t,
                    Err(e) => return fail(&format!("reading {}: {e}", p.display())),
                };
                match config::parse(&text) {
                    Ok(c) => c,
                    Err(e) => return fail(&e),
                }
            }
            None => match load_config(&root) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            },
        };
        if write_locks {
            return match write_api_locks(&root, &cfg) {
                Ok(written) => {
                    for path in &written {
                        eprintln!("now-lint: wrote {path}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            };
        }
        return report(&run_workspace(&root, &cfg), json);
    }

    // Explicit-file mode: no allowlist, raw token-rule output, for
    // quick local runs on one file. API001 needs --workspace.
    let mut findings = Vec::new();
    for file in &files {
        let rel = file.to_string_lossy().replace('\\', "/");
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => return fail(&format!("reading {rel}: {e}")),
        };
        findings.extend(lint_source(&rel, classify(&rel), &src));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    report(&findings, json)
}
