//! Convenience runner: executes every experiment binary in sequence,
//! streaming their reports. Equivalent to the loop in README.md.
//!
//! `cargo run --release -p now-bench --bin exp_all`

use std::process::Command;

const EXPERIMENTS: [&str; 20] = [
    // Paper claims.
    "x_f1_init",
    "x_f2_ops",
    "x_l1_exchange",
    "x_l23_drift",
    "x_t3_longrun",
    "x_p12_overlay",
    "x_rc_randcl",
    "x_r2_ratio",
    "x_jla_attack",
    "x_poly_growth",
    "x_a1_broadcast",
    "x_a2_sampling",
    // Stated extensions and open problems.
    "x_r1_authenticated",
    "x_batch_parallel",
    "x_yz_growth",
    "x_abl_exchange",
    "x_pressure",
    "x_init2_tree",
    "x_async_benor",
    "x_alt_overlay",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a directory")
        .to_path_buf();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================ {name} ================\n");
        let path = exe_dir.join(name);
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            failures.push(name);
        }
    }
    if failures.is_empty() {
        println!(
            "\nall {} experiments completed; CSVs in results/",
            EXPERIMENTS.len()
        );
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::path::Path;

    /// The tools that take arguments and run on their own (CI's smoke
    /// jobs), so `exp_all` skips them.
    const ARGUMENT_TOOLS: [&str; 3] = ["x_campaign", "x_trace", "x_event_runtime"];

    #[test]
    fn experiment_list_matches_the_directory_and_the_readme_index() {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut on_disk: Vec<String> = std::fs::read_dir(crate_dir.join("src/bin"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|f| f.strip_suffix(".rs").map(str::to_string))
            .filter(|name| name.starts_with("x_"))
            .collect();
        on_disk.sort();

        let readme = std::fs::read_to_string(crate_dir.join("../../README.md")).unwrap();
        for name in &on_disk {
            assert!(
                readme.contains(&format!("`{name}`")),
                "{name} is missing from the README Experiment index"
            );
        }

        on_disk.retain(|name| !ARGUMENT_TOOLS.contains(&name.as_str()));
        let mut listed = EXPERIMENTS.to_vec();
        listed.sort_unstable();
        assert_eq!(listed, on_disk, "EXPERIMENTS vs src/bin/x_*.rs");
    }
}
