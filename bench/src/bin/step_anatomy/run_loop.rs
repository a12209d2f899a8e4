//! The closed loop — the three calls `now_sim::BatchRun::run` makes per
//! step (`decide_batch` → `step_batch` → `audit`) — with a timestamp at
//! every layer boundary, the public counters read before and after, and
//! the output checks.

use crate::spans::Spans;
use crate::workload::{exec_config, Built, Engine};
use now_core::{wave_plan_nanos_total, BatchInput, NowSystem};
use now_net::{CostKind, DetRng};

/// Keeps the loop's driver stream apart from the system's own.
const LOOP_STREAM: u64 = 0x5EED_0F7E_5710_0F00;

/// Capacity of the program's flight recorder in a traced run.
const RECORDER_CAPACITY: usize = 1 << 16;

/// The traced run re-checks consistency this often.
const CONSISTENCY_EVERY: u64 = 50;

/// What a run does besides stepping.
pub struct RunMode {
    /// Record a span per layer call, switch on the program's flight
    /// recorder and metrics registry, check consistency periodically.
    pub traced: bool,
    /// Stop after this many steps (a prefix replay) instead of running
    /// every phase to its end.
    pub stop_after: Option<u64>,
    /// Take the state digest after this many steps as well.
    pub digest_at: Option<u64>,
}

/// The deterministic work counters of the public ledger.
#[derive(Clone, Copy, Default)]
pub struct LedgerCounts {
    pub batch_messages: u64,
    pub walks: u64,
    pub exchanges: u64,
    pub draws: u64,
    pub splits: u64,
    pub merges: u64,
    pub overlay_updates: u64,
}

impl LedgerCounts {
    fn read(sys: &NowSystem) -> Self {
        let l = sys.ledger();
        LedgerCounts {
            batch_messages: l.stats(CostKind::Batch).total_messages,
            walks: l.stats(CostKind::RandCl).count,
            exchanges: l.stats(CostKind::Exchange).count,
            draws: l.stats(CostKind::RandNum).count,
            splits: l.stats(CostKind::Split).count,
            merges: l.stats(CostKind::Merge).count,
            overlay_updates: l.stats(CostKind::Overlay).count,
        }
    }

    fn since(self, before: LedgerCounts) -> Self {
        LedgerCounts {
            batch_messages: self.batch_messages - before.batch_messages,
            walks: self.walks - before.walks,
            exchanges: self.exchanges - before.exchanges,
            draws: self.draws - before.draws,
            splits: self.splits - before.splits,
            merges: self.merges - before.merges,
            overlay_updates: self.overlay_updates - before.overlay_updates,
        }
    }
}

/// Everything one run of the loop measured.
#[derive(Default)]
pub struct LoopStats {
    pub steps: u64,
    /// Wall of each step (decide + step + audit), nanoseconds.
    pub step_ns: Vec<u64>,
    pub decide_ns: u64,
    pub core_ns: u64,
    pub audit_ns: u64,
    pub submitted: u64,
    pub joined: u64,
    pub left: u64,
    pub rejected: u64,
    pub dropped: u64,
    pub delivered: u64,
    /// Submitted ops found in none of joined/left/rejected/dropped.
    pub unaccounted: u64,
    pub rounds_parallel: u64,
    pub waves: u64,
    pub wave_ops: u64,
    pub wave_width_max: usize,
    pub slack_rounds: u64,
    pub contact_redraws: u64,
    pub inv_violation_steps: u64,
    pub size_violation_steps: u64,
    pub ledger: LedgerCounts,
    pub plan_ns: u64,
    pub recorder_events: u64,
    pub digest: u64,
    pub digest_at: Option<u64>,
    /// Failed output checks, in the order met.
    pub failures: Vec<String>,
}

impl LoopStats {
    pub fn executed(&self) -> u64 {
        self.joined + self.left
    }

    pub fn loop_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }

    /// Wall of the first `steps` steps.
    pub fn prefix_ns(&self, steps: u64) -> u64 {
        self.step_ns.iter().take(steps as usize).sum()
    }
}

/// Runs `built`'s phases on `engine`, consuming the drivers.
pub fn run(
    built: &mut Built,
    engine: Engine,
    seed: u64,
    mode: RunMode,
    spans: &mut Spans,
) -> LoopStats {
    let Built { sys, pool, phases } = built;
    let params = sys.params();
    let (floor, ceiling) = (params.min_population(), params.max_population());
    let mut stats = LoopStats::default();
    let mut rng = DetRng::new(seed ^ LOOP_STREAM);

    if mode.traced {
        sys.enable_tracing(RECORDER_CAPACITY);
        sys.enable_metrics();
    }
    let ledger_before = LedgerCounts::read(sys);
    let plan_before = wave_plan_nanos_total();
    let pop_start = sys.population();

    'phases: for phase in phases.iter_mut() {
        let exec = exec_config(engine, phase.net, pool.as_ref());
        for _ in 0..phase.steps {
            if mode.stop_after == Some(stats.steps) {
                break 'phases;
            }
            let step = stats.steps;
            let pop_before = sys.population();

            let t0 = spans.now_ns();
            let (joins, leaves) = phase.driver.decide_batch(sys, &mut rng);
            let input = BatchInput::from_specs(&joins, &leaves);
            let t1 = spans.now_ns();
            let report = sys.step_batch(&input, &exec);
            let t2 = spans.now_ns();
            let audit = sys.audit();
            let t3 = spans.now_ns();

            if mode.traced {
                let root = spans.push(0, step, phase.name, t0, t3);
                spans.push(root, step, "adversary.decide_batch", t0, t1);
                spans.push(root, step, "core.step_batch", t1, t2);
                spans.push(root, step, "audit.measure", t2, t3);
            }
            stats.steps += 1;
            stats.step_ns.push(t3 - t0);
            stats.decide_ns += t1 - t0;
            stats.core_ns += t2 - t1;
            stats.audit_ns += t3 - t2;

            // Op conservation: every submitted op is in exactly one of
            // joined / left / rejected / dropped.
            let submitted = (joins.len() + leaves.len()) as u64;
            let (joined, left) = (report.joined.len() as u64, report.left.len() as u64);
            let rejected = report.rejected.len() as u64;
            let accounted = joined + left + rejected + report.dropped;
            stats.submitted += submitted;
            stats.joined += joined;
            stats.left += left;
            stats.rejected += rejected;
            stats.dropped += report.dropped;
            stats.delivered += report.events.iter().filter(|e| e.delivered).count() as u64;
            if accounted != submitted {
                stats.unaccounted += submitted.abs_diff(accounted);
                stats.failures.push(format!(
                    "step {step}: {submitted} ops submitted, {accounted} accounted for"
                ));
            }
            if sys.population() != pop_before + joined - left {
                stats.failures.push(format!(
                    "step {step}: population {} ≠ {pop_before} + {joined} − {left}",
                    sys.population()
                ));
            }
            if !(floor..=ceiling).contains(&sys.population()) {
                stats.failures.push(format!(
                    "step {step}: population {} outside [√N, N] = [{floor}, {ceiling}]",
                    sys.population()
                ));
            }

            stats.rounds_parallel += report.rounds_parallel;
            stats.waves += report.wave_count() as u64;
            stats.wave_ops += report.waves.iter().map(|w| w.ops as u64).sum::<u64>();
            stats.wave_width_max = stats.wave_width_max.max(report.max_wave_width());
            stats.slack_rounds += report.wave_slack_rounds();
            stats.contact_redraws += report.contact_redraws;
            stats.inv_violation_steps += u64::from(!audit.invariant_ok());
            stats.size_violation_steps += u64::from(!audit.size_bounds_ok);

            if mode.traced && stats.steps % CONSISTENCY_EVERY == 0 {
                if let Err(e) = sys.check_consistency() {
                    stats.failures.push(format!("step {step}: check_consistency: {e}"));
                }
            }
            if mode.digest_at == Some(stats.steps) {
                stats.digest_at = Some(state_digest(sys));
            }
        }
    }

    stats.ledger = LedgerCounts::read(sys).since(ledger_before);
    stats.plan_ns = wave_plan_nanos_total() - plan_before;
    stats.recorder_events = sys.flight_recorder().map_or(0, |r| r.recorded());
    stats.digest = state_digest(sys);
    if let Err(e) = sys.check_consistency() {
        stats.failures.push(format!("end of run: check_consistency: {e}"));
    }
    if sys.population() != pop_start + stats.joined - stats.left {
        stats.failures.push(format!(
            "end of run: population {} ≠ {pop_start} + {} − {}",
            sys.population(),
            stats.joined,
            stats.left
        ));
    }
    // The program's own metrics registry must agree with the reports.
    if let Some(m) = sys.metrics() {
        for (name, want) in [
            ("now_steps_total", stats.steps),
            ("now_ops_joined_total", stats.joined),
            ("now_ops_left_total", stats.left),
            ("now_ops_rejected_total", stats.rejected),
        ] {
            if m.counter(name) != want {
                stats.failures.push(format!(
                    "metrics registry: {name} = {}, reports say {want}",
                    m.counter(name)
                ));
            }
        }
    }
    stats
}

/// FNV-1a over the state a run must reproduce: population, Byzantine
/// population, cluster count, time step, op counts, ledger totals,
/// sorted cluster sizes and the admitted ids.
pub fn state_digest(sys: &NowSystem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(sys.population());
    eat(sys.byz_population());
    eat(sys.cluster_count() as u64);
    eat(sys.time_step());
    let (joins, leaves, splits, merges) = sys.op_counts();
    for v in [joins, leaves, splits, merges] {
        eat(v);
    }
    let total = sys.ledger().total();
    eat(total.messages);
    eat(total.rounds);
    let mut sizes: Vec<u64> = sys.clusters().map(|c| c.size() as u64).collect();
    sizes.sort_unstable();
    for s in sizes {
        eat(s);
    }
    for id in sys.node_ids() {
        eat(id.raw());
    }
    h
}
