//! The `now-lint` binary: the CI gate for P001 (panic-site
//! justifications), API001 (public-surface locks) and API002 (every
//! locked item has a user outside its crate).
//!
//! ```text
//! now-lint --workspace            # lint the whole tree
//! now-lint --write-api-locks      # regenerate crates/<name>/API.lock files
//! ```
//!
//! Both work on the workspace root: the nearest ancestor of the
//! current directory holding `Cargo.lock` and `crates/`.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or IO error.
//! Findings print as `file:line rule-id message`, one per line, sorted
//! by path, line and rule.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use now_lint::{run_workspace, write_api_locks};

const USAGE: &str = "usage: now-lint --workspace\n       now-lint --write-api-locks";

/// Ascends from `start` to the first directory holding both a
/// `Cargo.lock` and a `crates/` directory: the workspace root.
fn find_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file() && dir.join("crates").is_dir())
        .map(Path::to_path_buf)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("now-lint: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_locks = match args.as_slice() {
        [mode] if mode == "--workspace" => false,
        [mode] if mode == "--write-api-locks" => true,
        [mode] if mode == "--help" || mode == "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => return fail(USAGE),
    };
    let Some(root) = std::env::current_dir().ok().and_then(|cwd| find_root(&cwd)) else {
        return fail("no directory holding Cargo.lock and crates/ found here or above");
    };

    if write_locks {
        return match write_api_locks(&root) {
            Ok(written) => {
                for path in &written {
                    eprintln!("now-lint: wrote {path}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    let findings = match run_workspace(&root) {
        Ok(findings) => findings,
        Err(e) => return fail(&e),
    };
    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        eprintln!("now-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("now-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
