//! Kernel probes: after the traced loop, time a fixed number of calls of
//! each public kernel on the post-run state (or on a stand-alone
//! structure sized like the workload). Call counts are constants, so
//! the count-type results (`hops_per_walk`, `restart_rate`,
//! `footprint_size`) repeat exactly for a seed.

use crate::report::Table;
use crate::spans::Spans;
use crate::workload::{Churn, Spec, STORM_PHASES};
use now_agreement::{rand_num_commit_reveal, ByzPlan};
use now_campaign::{Campaign, Trigger};
use now_core::{EventNetConfig, NowSystem, Registry};
use now_net::{ClusterId, CostKind, DetRng, EventNet, Ledger, NodeId};
use now_over::Overlay;
use rand::{Rng, RngCore};
use std::collections::BTreeSet;
use std::hint::black_box;

/// The storm's six phases in campaign grammar.
pub const STORM_CAMPAIGN: &str = include_str!("../../../workloads/storm.campaign");

/// Times `n` calls of `f` as one span; returns nanoseconds per call.
fn timed(spans: &mut Spans, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = spans.now_ns();
    for i in 0..n {
        f(i);
    }
    let t1 = spans.now_ns();
    spans.push(0, 0, name, t0, t1);
    (t1 - t0) as f64 / n.max(1) as f64
}

/// Times one call of `f` as its own span; returns nanoseconds.
fn timed_once<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = spans.now_ns();
    let out = f();
    let t1 = spans.now_ns();
    spans.push(0, 0, name, t0, t1);
    (t1 - t0, out)
}

/// Runs every probe; `scale` divides the call counts (`--quick`).
pub fn run(sys: &mut NowSystem, spec: &Spec, spans: &mut Spans, scale: usize, out: &mut Table) {
    let n = |full: usize| (full / scale).max(2);
    probe_walks(sys, spans, n(4000), out);
    probe_draws(sys, spec, spans, n(100_000), n(8), out);
    probe_exchange(sys, spans, n(60), n(16), out);
    probe_ops(sys, spans, n(spec.op_probes), n(12), out);
    probe_registry(sys, spec, spans, out);
    probe_overlay(spec, spans, n(256), out);
    probe_net(spans, n(200_000), out);
    probe_campaign(spec, spans, n(200), n(40), out);
}

fn probe_walks(sys: &mut NowSystem, spans: &mut Spans, walks: usize, out: &mut Table) {
    let ids = sys.cluster_ids();

    let mut footprint_len = 0usize;
    let calls = ids.len() * 8;
    let ns = timed(spans, "batch.op_footprint", calls, |i| {
        footprint_len += black_box(sys.op_footprint(ids[i % ids.len()])).len();
    });
    out.push("batch.footprint_ns", ns, "ns", calls as u64);
    out.push("batch.footprint_size", footprint_len as f64 / calls as f64, "count", calls as u64);

    let (mut hops, mut restarts) = (0u64, 0u64);
    let ns = timed(spans, "rand_cl.rand_cl_from", walks, |i| {
        let (_, trace) = black_box(sys.rand_cl_from(ids[i % ids.len()]));
        hops += trace.hops;
        restarts += trace.restarts;
    });
    let walks = walks as u64;
    out.push("rand_cl.walk_us", ns / 1e3, "us", walks);
    out.push("rand_cl.hops_per_walk", hops as f64 / walks as f64, "count", walks);
    out.push("rand_cl.ns_per_hop", ns * walks as f64 / hops as f64, "ns", hops);
    out.push("rand_cl.restart_rate", restarts as f64 / walks as f64, "share", walks);
}

fn probe_draws(
    sys: &mut NowSystem,
    spec: &Spec,
    spans: &mut Spans,
    draws: usize,
    protocols: usize,
    out: &mut Table,
) {
    let ids = sys.cluster_ids();
    let ns = timed(spans, "rand_num.rand_num", draws, |i| {
        black_box(sys.rand_num(ids[i % ids.len()], 1 << 20));
    });
    out.push("rand_num.draw_ns", ns, "ns", draws as u64);

    // The executed commit–reveal protocol at this workload's cluster
    // size, no Byzantine ports.
    let size = spec.params().target_cluster_size();
    let (mut ledger, mut rng) = (Ledger::new(), DetRng::new(7));
    let ns = timed(spans, "agreement.rand_num_commit_reveal", protocols, |_| {
        black_box(rand_num_commit_reveal(
            size,
            1 << 20,
            &BTreeSet::new(),
            ByzPlan::Silent,
            &mut ledger,
            &mut rng,
        ));
    });
    out.push("agreement.rand_num_us", ns / 1e3, "us", protocols as u64);
}

fn probe_exchange(
    sys: &mut NowSystem,
    spans: &mut Spans,
    plain: usize,
    cascade: usize,
    out: &mut Table,
) {
    let ids = sys.cluster_ids();
    let ns = timed(spans, "exchange.exchange_all", plain, |i| {
        black_box(sys.exchange_all(ids[i % ids.len()], false));
    });
    out.push("exchange.all_us", ns / 1e3, "us", plain as u64);
    let ns = timed(spans, "exchange.exchange_all_cascade", cascade, |i| {
        black_box(sys.exchange_all(ids[i % ids.len()], true));
    });
    out.push("exchange.cascade_us", ns / 1e3, "us", cascade as u64);
}

/// Serial `join`/`leave` in alternation (population holds), then
/// `split` of the largest and `merge` of the smallest cluster in
/// alternation (cluster count holds). One span per call.
fn probe_ops(sys: &mut NowSystem, spans: &mut Spans, pairs: usize, maint: usize, out: &mut Table) {
    let mut rng = DetRng::new(11);
    let (mut join_ns, mut leave_ns) = (0u64, 0u64);
    for _ in 0..pairs {
        join_ns += timed_once(spans, "ops.join", || sys.join(true)).0;
        let nodes = sys.node_ids();
        let node = nodes[rng.gen_range(0..nodes.len())];
        let (ns, left) = timed_once(spans, "ops.leave", || sys.leave(node));
        left.expect("probe leaves a live node above the population floor");
        leave_ns += ns;
    }
    out.push("ops.join_us", join_ns as f64 / pairs as f64 / 1e3, "us", pairs as u64);
    out.push("ops.leave_us", leave_ns as f64 / pairs as f64 / 1e3, "us", pairs as u64);

    let (mut split_ns, mut merge_ns) = (0u64, 0u64);
    for _ in 0..maint {
        let by_size = |sys: &NowSystem| -> Vec<(usize, ClusterId)> {
            sys.clusters().map(|c| (c.size(), c.id())).collect()
        };
        let largest = by_size(sys).into_iter().max().expect("a live cluster").1;
        split_ns += timed_once(spans, "ops.split", || sys.split(largest)).0;
        let smallest = by_size(sys).into_iter().min().expect("a live cluster").1;
        merge_ns += timed_once(spans, "ops.merge", || sys.merge(smallest)).0;
    }
    out.push("ops.split_us", split_ns as f64 / maint as f64 / 1e3, "us", maint as u64);
    out.push("ops.merge_us", merge_ns as f64 / maint as f64 / 1e3, "us", maint as u64);
}

/// `check_consistency` on the post-run system, then the registry
/// kernels on a stand-alone `Registry` of the workload's shape.
fn probe_registry(sys: &NowSystem, spec: &Spec, spans: &mut Spans, out: &mut Table) {
    let (ns, ok) = timed_once(spans, "registry.check_consistency", || sys.check_consistency());
    ok.expect("probes leave the system consistent");
    out.push("registry.check_consistency_ms", ns as f64 / 1e6, "ms", 1);

    let clusters: Vec<ClusterId> = (0..spec.clusters as u64).map(ClusterId::from_raw).collect();
    let count = spec.clusters * spec.params().target_cluster_size();
    let nodes: Vec<NodeId> = (0..count as u64).map(NodeId::from_raw).collect();
    let mut reg = Registry::new();
    for &c in &clusters {
        reg.create_cluster(c);
    }
    let ns = timed(spans, "registry.attach", count, |i| {
        reg.attach(nodes[i], i % 7 != 0, clusters[i % clusters.len()]);
    });
    out.push("registry.attach_ns", ns, "ns", count as u64);
    let ns = timed(spans, "registry.move_to", count, |i| {
        reg.move_to(nodes[i], clusters[(i + 1) % clusters.len()]);
    });
    out.push("registry.move_ns", ns, "ns", count as u64);
    let ns = timed(spans, "registry.node_ids", 8, |_| {
        black_box(reg.node_ids());
    });
    out.push("registry.node_ids_us", ns / 1e3, "us", 8);
    let ns = timed(spans, "registry.detach", count, |i| {
        reg.detach(nodes[i]);
    });
    out.push("registry.detach_ns", ns, "ns", count as u64);
}

/// Vertex add/remove churn and neighbour iteration on a stand-alone
/// overlay of the workload's cluster count.
fn probe_overlay(spec: &Spec, spans: &mut Spans, churn: usize, out: &mut Table) {
    let ids: Vec<ClusterId> = (0..spec.clusters as u64).map(ClusterId::from_raw).collect();
    let mut rng = DetRng::new(13);
    let mut overlay = Overlay::init_random(&ids, spec.params().over(), &mut rng);
    let fresh: Vec<ClusterId> =
        (0..churn as u64).map(|i| ClusterId::from_raw(1_000_000 + i)).collect();
    let ns = timed(spans, "over.add_uniform", churn, |i| {
        black_box(overlay.add_uniform(fresh[i], &mut rng));
    });
    out.push("over.add_us", ns / 1e3, "us", churn as u64);
    let ns = timed(spans, "over.remove", churn, |i| {
        black_box(overlay.remove(fresh[i], &mut rng));
    });
    out.push("over.remove_us", ns / 1e3, "us", churn as u64);

    let mut visited = 0usize;
    let t0 = spans.now_ns();
    for _ in 0..16 {
        for &c in &ids {
            for nbr in overlay.neighbors(c) {
                black_box(nbr);
                visited += 1;
            }
        }
    }
    let t1 = spans.now_ns();
    spans.push(0, 0, "over.neighbors", t0, t1);
    out.push("over.neighbors_ns", (t1 - t0) as f64 / visited as f64, "ns", visited as u64);
}

fn probe_net(spans: &mut Spans, calls: usize, out: &mut Table) {
    let mut ledger = Ledger::new();
    let ns = timed(spans, "net.ledger_span", calls, |i| {
        ledger.begin(CostKind::RandNum);
        ledger.add_messages(i as u64 & 15);
        black_box(ledger.end());
    });
    out.push("net.ledger_span_ns", ns, "ns", calls as u64);

    let ns = timed(spans, "net.rng_for_op", calls, |i| {
        black_box(DetRng::for_op(17, i as u64 >> 3, i as u64 & 7).next_u64());
    });
    out.push("net.rng_for_op_ns", ns, "ns", calls as u64);

    // 64 ports; a burst of 64 sends, then drained.
    let config = EventNetConfig::ideal().with_latency(2).with_jitter(3);
    let mut net = EventNet::<u64>::new(64, config, 19);
    let bursts = calls / 64;
    let ns = timed(spans, "net.event_send_pop", bursts, |b| {
        for p in 0..64 {
            black_box(net.send(p, (p + b) % 64, p as u64));
        }
        while let Some(delivery) = net.pop() {
            black_box(delivery);
        }
    });
    out.push("net.event_msg_ns", ns / 64.0, "ns", (bursts * 64) as u64);
}

/// Parse and report-rendering cost of the storm's campaign file
/// (`storm_event` only; zero elsewhere). Also checks that the file
/// still describes the phases the harness runs.
fn probe_campaign(spec: &Spec, spans: &mut Spans, parses: usize, renders: usize, out: &mut Table) {
    if spec.churn != Churn::Storm {
        out.push("campaign.parse_us", 0.0, "us", 0);
        out.push("campaign.to_json_us", 0.0, "us", 0);
        return;
    }
    let ns = timed(spans, "campaign.parse", parses, |_| {
        black_box(Campaign::parse(STORM_CAMPAIGN).expect("storm.campaign parses"));
    });
    out.push("campaign.parse_us", ns / 1e3, "us", parses as u64);

    let mut campaign = Campaign::parse(STORM_CAMPAIGN).expect("storm.campaign parses");
    let file_phases: Vec<(&str, u64)> =
        campaign.phases.iter().map(|p| (p.name.as_str(), p.trigger.max_steps())).collect();
    assert_eq!(
        file_phases, STORM_PHASES,
        "workloads/storm.campaign and workload.rs disagree on the storm's phases"
    );
    // The report of a twentieth-length run of the file is what gets
    // rendered: a full-length run would double the storm's run time.
    for phase in &mut campaign.phases {
        phase.trigger = Trigger::Steps((phase.trigger.max_steps() / 20).max(1));
    }
    let (report, _) = campaign.run(1).expect("storm.campaign runs");
    let ns = timed(spans, "campaign.to_json", renders, |_| {
        black_box(report.to_json());
    });
    out.push("campaign.to_json_us", ns / 1e3, "us", renders as u64);
}
