//! The step-anatomy benchmark: one churn workload per process, driven
//! through the public batch API in a closed loop (one client: the next
//! batch is decided only after the previous step was audited).
//!
//! ```text
//! step_anatomy --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!              [--quick] [--expect-digest HEX] [--out-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the harness's spans
//! and the program's recorder and metrics registry off. `--trace 1`
//! runs the same seed and steps again with all of them on, replays a
//! prefix dark (tracing overhead, state digest) and on the workload's
//! reference engine, then probes each public kernel on the post-run
//! state; it reports the per-layer metrics and writes the spans to
//! `<out-dir>/<workload>.trace.json`.
//!
//! The last line of stdout is the result as one JSON object; the same
//! result with sample counts, step count and state digest goes to
//! `<out-dir>/<workload>.{e2e,layers}.json`. Every metric is also
//! printed by name, with unit and sample count, on stderr. The exit
//! code is 1 when an output check failed and 2 on a usage error. Every
//! check repeats exactly for a seed; none depends on how long anything
//! took, so a busy host cannot fail a run. (The one timing self-check,
//! `attr.residual_share` on `steady_serial`, is `run.sh`'s.)

mod probes;
mod report;
mod run_loop;
mod spans;
mod workload;

use now_sim::metrics::quantile;
use report::{peak_rss_mb, Table};
use run_loop::{LoopStats, RunMode};
use spans::Spans;
use std::fmt::Write as _;
use workload::{Engine, Spec, SPECS};

/// An untraced run sets up again and again for this long after process
/// start, at least `MIN_SETUPS` times; `setup_s` is the median. One
/// set-up takes 0.1–12 ms: a handful timed on a cold process reads
/// 10–15 % apart between two sets of runs of the same code.
const SETUP_BUDGET_NS: u64 = 500_000_000;
const MIN_SETUPS: usize = 9;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    expect_digest: Option<u64>,
    out_dir: String,
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    eprintln!("step_anatomy: {problem}");
    eprintln!(
        "usage: step_anatomy --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--expect-digest HEX] [--out-dir DIR]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spec = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, 20u64, false, false);
    let mut expect_digest = None;
    let mut out_dir = String::from("bench/out");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let Some(value) = argv.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = |v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| usage(&format!("{flag} {v}: not a whole number")))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workload::spec(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => seed = number(&value),
            "--seconds" => seconds = number(&value).clamp(1, 60),
            "--trace" => trace = number(&value) != 0,
            "--expect-digest" => {
                expect_digest = Some(
                    u64::from_str_radix(&value, 16)
                        .unwrap_or_else(|_| usage(&format!("--expect-digest {value}: not hex"))),
                );
            }
            "--out-dir" => out_dir = value,
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        spec: spec.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        quick,
        expect_digest,
        out_dir,
    }
}

/// What a run hands to the output stage; `stats.failures` holds every
/// failed check of the process.
struct Outcome {
    table: Table,
    stats: LoopStats,
}

fn main() {
    let mut spans = Spans::new();
    let args = parse_args();
    let steps = args.spec.steps(args.seconds, args.quick);
    eprintln!(
        "# {} seed {} steps {steps} ({}{}), closed loop, 1 client, {} pool workers, {} cores",
        args.spec.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if args.quick { ", QUICK: smoke only, never compare" } else { "" },
        workload::POOL_WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let Outcome { table, mut stats } = if args.trace {
        run_traced(&args, steps, &mut spans)
    } else {
        run_untraced(&args, steps, &mut spans)
    };
    if let Some(want) = args.expect_digest {
        if want != stats.digest {
            stats
                .failures
                .push(format!("state digest {:016x} ≠ expected {want:016x}", stats.digest));
        }
    }

    // A failed check fails every op of the run.
    let correct = stats.failures.is_empty();
    let attempted = stats.submitted.max(1);
    let failed = if correct { stats.rejected + stats.unaccounted } else { attempted };

    let label = if args.trace { "layer" } else { "e2e  " };
    table.print(label);
    for failure in &stats.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    eprintln!(
        "# digest {:016x}  attempted {attempted}  failed {failed}  correct {correct}",
        stats.digest
    );

    let mut failures_json = String::from("[");
    for (i, failure) in stats.failures.iter().enumerate() {
        let clean: String = failure
            .chars()
            .map(|c| if c == '"' || c == '\\' || c.is_control() { ' ' } else { c })
            .collect();
        let _ = write!(failures_json, "{}\"{clean}\"", if i > 0 { ", " } else { "" });
    }
    failures_json.push(']');
    let file = format!(
        "{}/{}.{}.json",
        args.out_dir,
        args.spec.name,
        if args.trace { "layers" } else { "e2e" }
    );
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \"seconds\": {}, \
         \"steps\": {}, \"digest\": \"{:016x}\", \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"failures\": {failures_json}, \
         \"metrics\": {}}}\n",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        args.quick,
        args.seconds,
        stats.steps,
        stats.digest,
        table.to_json(true)
    );
    write_file(&args.out_dir, &file, &detail);

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        table.to_json(false)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The files are a by-product for `run.sh` and people; the result line
/// does not depend on them, so a failed write is reported and no more
/// (`run.sh` stops on the missing file).
fn write_file(dir: &str, path: &str, text: &str) {
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("step_anatomy: cannot write {path}: {e}");
    }
}

/// The end-to-end run: several set-ups, then the dark loop.
fn run_untraced(args: &Args, steps: u64, spans: &mut Spans) -> Outcome {
    let spec = args.spec;
    // The first set-up is timed from process start; each one is dropped
    // before the next is built so the peak RSS is that of one system.
    let mut built = None;
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS || spans.now_ns() < SETUP_BUDGET_NS {
        drop(built.take());
        let t0 = if setups.is_empty() { 0 } else { spans.now_ns() };
        built = Some(spec.build(args.seed, steps, spec.engine));
        setups.push((spans.now_ns() - t0) as f64 / 1e9);
    }
    let mut built = built.expect("MIN_SETUPS > 0");
    let mode = RunMode { traced: false, stop_after: None, digest_at: None };
    let stats = run_loop::run(&mut built, spec.engine, args.seed, mode, spans);

    let ops = stats.executed();
    let (steps_f, ops_f) = (stats.steps as f64, ops as f64);
    let step_ms: Vec<f64> = stats.step_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let ok_ops = 1.0 - (stats.rejected + stats.unaccounted) as f64 / stats.submitted.max(1) as f64;
    let mut table = Table::default();
    table.extend([
        ("setup_s", quantile(&setups, 0.5), "s", setups.len() as u64),
        ("ops_per_s", ops_f / (stats.loop_ns() as f64 / 1e9), "1/s", ops),
        ("step_ms_p50", quantile(&step_ms, 0.5), "ms", stats.steps),
        ("step_ms_p90", quantile(&step_ms, 0.9), "ms", stats.steps),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ("msgs_per_op", stats.ledger.batch_messages as f64 / ops_f, "count", ops),
        ("rounds_per_step", stats.rounds_parallel as f64 / steps_f, "count", stats.steps),
        // The last two are reported as the share that is fine, so that
        // the value is never 0.
        ("inv_ok_share", 1.0 - stats.inv_violation_steps as f64 / steps_f, "share", stats.steps),
        ("op_ok_share", ok_ops, "share", stats.submitted),
    ]);
    Outcome { table, stats }
}

/// The per-layer run: dark prefix, traced loop, reference-engine
/// prefix, kernel probes, attribution, trace file.
fn run_traced(args: &Args, steps: u64, spans: &mut Spans) -> Outcome {
    let spec = args.spec;
    let mut failures = Vec::new();
    let prefix = (steps / 4).max(6).min(steps);
    let dark_mode = || RunMode { traced: false, stop_after: Some(prefix), digest_at: None };

    let mut dark_built = spec.build(args.seed, steps, spec.engine);
    let dark = run_loop::run(&mut dark_built, spec.engine, args.seed, dark_mode(), spans);
    drop(dark_built);

    // Worker spawns are counted over set-up and loop together: a pool
    // spawns its workers once, when it is built.
    let spawns_before = now_core::wave_worker_spawn_total();
    let mut built = spec.build(args.seed, steps, spec.engine);
    let mode = RunMode { traced: true, stop_after: None, digest_at: Some(prefix) };
    let mut stats = run_loop::run(&mut built, spec.engine, args.seed, mode, spans);
    let spawns = now_core::wave_worker_spawn_total() - spawns_before;
    if stats.digest_at != Some(dark.digest) {
        failures.push(format!(
            "traced and untraced state digests differ after {prefix} steps: {:016x?} vs {:016x}",
            stats.digest_at, dark.digest
        ));
    }
    failures.extend(dark.failures.iter().map(|f| format!("dark prefix: {f}")));

    let reference = spec.reference.map(|engine| {
        let mut ref_built = spec.build(args.seed, steps, engine);
        let r = run_loop::run(&mut ref_built, engine, args.seed, dark_mode(), spans);
        failures.extend(r.failures.iter().map(|f| format!("{engine:?} prefix: {f}")));
        // The wave engines must agree bit for bit; the serial engine
        // draws from a different stream and follows its own trajectory.
        if engine == Engine::Scheduled && r.digest != dark.digest {
            failures.push(format!(
                "scheduled and pooled state digests differ after {prefix} steps: {:016x} vs {:016x}",
                r.digest, dark.digest
            ));
        }
        (engine, r)
    });

    let (ops, steps_n) = (stats.executed(), stats.steps);
    let (ops_f, steps_f) = (ops as f64, steps_n as f64);
    let (loop_ns, core_ns) = (stats.loop_ns() as f64, stats.core_ns as f64);
    let covered = (stats.decide_ns + stats.core_ns + stats.audit_ns) as f64 / loop_ns;
    if covered < 0.99 {
        failures.push(format!("loop spans cover only {covered:.4} of the loop"));
    }

    // The prefix replays: pooled against scheduled (`grow_wide`), serial
    // against pooled (`steady_pooled`); both bases are printed.
    let (mut pool_speedup, mut tax_vs_serial) = (0.0, 0.0);
    match &reference {
        Some((Engine::Scheduled, r)) => {
            pool_speedup = r.core_ns as f64 / dark.core_ns as f64;
            eprintln!(
                "# pool_speedup bases: scheduled {:.3} s ÷ pooled {:.3} s of step_batch over {prefix} steps",
                r.core_ns as f64 / 1e9,
                dark.core_ns as f64 / 1e9
            );
        }
        Some((Engine::Serial, r)) => {
            let rate = |s: &LoopStats| s.executed() as f64 / (s.loop_ns() as f64 / 1e9);
            tax_vs_serial = rate(r) / rate(&dark);
            eprintln!(
                "# tax_vs_serial bases: serial {:.2} ops/s ÷ pooled {:.2} ops/s over {prefix} steps",
                rate(r),
                rate(&dark)
            );
        }
        _ => {}
    }

    let ledger = stats.ledger;
    let sent = stats.delivered + stats.dropped;
    let overhead = stats.prefix_ns(prefix) as f64 / dark.loop_ns() as f64 - 1.0;
    let mut t = Table::default();
    t.extend([
        // Loop spans.
        ("adversary.decide_share", stats.decide_ns as f64 / loop_ns, "share", steps_n),
        ("adversary.decide_us", stats.decide_ns as f64 / steps_f / 1e3, "us", steps_n),
        ("core.step_share", core_ns / loop_ns, "share", steps_n),
        ("audit.share", stats.audit_ns as f64 / loop_ns, "share", steps_n),
        ("audit.measure_us", stats.audit_ns as f64 / steps_f / 1e3, "us", steps_n),
        ("audit.size_violation_steps", stats.size_violation_steps as f64, "count", steps_n),
        // Wave executor, from its public counters and the prefix replays.
        ("wave_exec.plan_share", stats.plan_ns as f64 / core_ns, "share", steps_n),
        ("wave_exec.spawns", spawns as f64, "count", 1),
        ("wave_exec.pool_speedup", pool_speedup, "ratio", prefix),
        ("wave_exec.tax_vs_serial", tax_vs_serial, "ratio", prefix),
        // Wave schedule.
        ("batch.waves_per_step", stats.waves as f64 / steps_f, "count", steps_n),
        ("batch.wave_width_mean", stats.wave_ops as f64 / stats.waves as f64, "count", stats.waves),
        ("batch.wave_width_max", stats.wave_width_max as f64, "count", stats.waves),
        ("batch.slack_rounds_per_step", stats.slack_rounds as f64 / steps_f, "count", steps_n),
        ("batch.contact_redraws", stats.contact_redraws as f64, "count", steps_n),
        // Deterministic work per executed op, from ledger span counts.
        ("rand_cl.walks_per_op", ledger.walks as f64 / ops_f, "count", ops),
        ("exchange.calls_per_op", ledger.exchanges as f64 / ops_f, "count", ops),
        ("rand_num.draws_per_op", ledger.draws as f64 / ops_f, "count", ops),
        ("maint.splits_per_kop", 1e3 * ledger.splits as f64 / ops_f, "count", ops),
        ("maint.merges_per_kop", 1e3 * ledger.merges as f64 / ops_f, "count", ops),
        ("over.updates_per_kop", 1e3 * ledger.overlay_updates as f64 / ops_f, "count", ops),
        // Event network (zero off the event engine).
        ("event.sent", sent as f64, "count", steps_n),
        ("event.dropped_share", stats.dropped as f64 / sent as f64, "share", sent),
        // Tracing cost.
        ("trace.overhead_share", overhead, "share", prefix),
        ("trace.events_per_op", stats.recorder_events as f64 / ops_f, "count", ops),
    ]);

    // Kernel probes on the post-run state, then attribution: counts ×
    // probe times against the measured step wall.
    let loop_spans = spans.len();
    probes::run(&mut built.sys, spec, spans, if args.quick { 20 } else { 1 }, &mut t);
    let op_wall_us = core_ns / 1e3 / ops_f;
    let walk_share = t.get("rand_cl.walks_per_op") * t.get("rand_cl.walk_us") / op_wall_us;
    let kernel_us =
        stats.joined as f64 * t.get("ops.join_us") + stats.left as f64 * t.get("ops.leave_us");
    let kernel_share = kernel_us / (core_ns / 1e3);
    t.extend([
        ("attr.walk_share", walk_share, "share", ops),
        ("attr.kernel_share", kernel_share, "share", ops),
        ("attr.residual_share", 1.0 - kernel_share, "share", ops),
    ]);
    let t0 = spans.now_ns();
    let path = format!("{}/{}.trace.json", args.out_dir, spec.name);
    write_file(&args.out_dir, &path, &spans.to_chrome_json(spec.name));
    t.push("trace.json_ms", (spans.now_ns() - t0) as f64 / 1e6, "ms", spans.len() as u64);
    eprintln!("# {} loop spans + {} probe spans → {path}", loop_spans, spans.len() - loop_spans);

    stats.failures.extend(failures);
    Outcome { table: t, stats }
}
