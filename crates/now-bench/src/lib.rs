//! Shared helpers for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates the table of one claim (see
//! README § Experiment index, or `exp_all`'s list):
//! it builds one `now_sim::Table`, prints it as markdown to stdout and
//! writes it as CSV under `results/`. The paper's claims are counts
//! (messages, rounds, violation steps), so that is all these tables
//! hold; wall-clock is measured by the one timing harness, `bench/`
//! (a package outside this workspace, declared in `BENCHMARK.json`).

#![warn(missing_docs)]

use now_core::{NowParams, NowSystem};
use now_net::ieee::{ln, log2};
use std::path::{Path, PathBuf};

/// Directory experiment CSVs are written to (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    // INVARIANT: bench-harness setup — failing to create the
    // results dir should abort the experiment loudly.
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes an artifact to `path`, creating its parent directories first.
///
/// # Errors
/// The I/O error, its message naming the directory or file that failed.
pub fn write_artifact(path: &Path, content: &str) -> std::io::Result<()> {
    let naming = |at: &Path| {
        let at = at.display().to_string();
        move |e: std::io::Error| std::io::Error::new(e.kind(), format!("cannot write {at}: {e}"))
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(naming(dir))?;
    }
    std::fs::write(path, content).map_err(naming(path))
}

/// Standard parameters used across experiments: band constant 1.5,
/// slack ε = 0.05, τ-bound 0.30 (the per-run corruption rate is chosen
/// by each experiment's churn driver).
pub fn standard_params(capacity: u64, k: usize) -> NowParams {
    // INVARIANT: constants validated by NowParams' own tests.
    NowParams::new(capacity, k, 1.5, 0.30, 0.05).expect("standard parameters are valid")
}

/// Builds a system with `clusters`×(target size) nodes at corruption
/// rate `tau`.
pub fn build_system(capacity: u64, k: usize, clusters: usize, tau: f64, seed: u64) -> NowSystem {
    let params = standard_params(capacity, k);
    let n0 = clusters * params.target_cluster_size();
    NowSystem::init_fast(params, n0, tau, seed)
}

/// Least-squares slope of `y` against `x` (both logged by the caller if
/// a power-law exponent is wanted). Returns 0 for fewer than 2 points.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    // INVARIANT: `n = min(xs.len(), ys.len())`, so both prefix
    // slices are in bounds.
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    // INVARIANT: as above — `n` bounds both inputs.
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        num += (xs[i] - mx) * (ys[i] - my);
        den += (xs[i] - mx) * (xs[i] - mx);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fits the exponent `p` in `cost ≈ c · (log₂ N)^p` from capacity/cost
/// sample pairs — the instrument for every "polylog(N)" claim.
pub fn polylog_exponent(capacities: &[u64], costs: &[f64]) -> f64 {
    let xs: Vec<f64> = capacities.iter().map(|&c| ln(log2(c as f64))).collect();
    let ys: Vec<f64> = costs.iter().map(|&c| ln(c.max(1.0))).collect();
    slope(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_line_is_exact() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0], &[2.0]), 0.0);
        assert_eq!(slope(&[1.0, 1.0], &[1.0, 2.0]), 0.0, "degenerate x");
    }

    #[test]
    fn polylog_exponent_recovers_power() {
        // cost = (log2 N)^3 exactly.
        let caps = [1u64 << 8, 1 << 10, 1 << 12, 1 << 16];
        let costs: Vec<f64> = caps.iter().map(|&c| log2(c as f64).powi(3)).collect();
        let p = polylog_exponent(&caps, &costs);
        assert!((p - 3.0).abs() < 1e-9, "got {p}");
    }

    /// An artifact lands in a directory tree that does not exist yet,
    /// and a parent that cannot be a directory is named in the error.
    #[test]
    fn write_artifact_creates_missing_directories() {
        let root = std::env::temp_dir().join(format!("now-bench-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("a/b/c/report.json");
        write_artifact(&path, "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        write_artifact(&path, "[]\n").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "[]\n",
            "overwrites"
        );

        let blocked = path.join("nested");
        let err = write_artifact(&blocked.join("deeper.json"), "").unwrap_err();
        let named = format!("cannot write {}:", blocked.display());
        assert!(err.to_string().starts_with(&named), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn build_system_shapes() {
        let sys = build_system(1 << 10, 2, 5, 0.1, 1);
        assert_eq!(sys.cluster_count(), 5);
        assert_eq!(sys.population(), 100);
    }
}
