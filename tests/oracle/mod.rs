//! The engine-diff oracle: one seeded input runs on every engine leg,
//! and the legs must agree. An input is a generated campaign
//! ([`campaign`]) run by `Campaign::execute`, or a [`Shape`] with a
//! [`Body`] for what the grammar cannot say: the per-step drivers and
//! raw batches, which a plain one-op replay runs too.
//!
//! Every leg must end consistent with no audited step out of the size
//! band; a typed error is an outcome if every leg returns it. Then:
//! * `serial` ≡ `pooled` on node ids, homes, every ledger kind's stats
//!   and the next `rand_num`, on every input (the report, trace and
//!   metrics JSON differ by the waves the step is priced in);
//! * `serial` ≡ `event` on the same when every net is ideal;
//! * on raw batches every leg, the replay included, admits the same ops.
// Each test target that includes this module uses a part of it.
#![allow(dead_code)]

use now_bft::adversary::BatchDriver;
use now_bft::campaign::{Campaign, PhaseExec};
use now_bft::core::{BatchInput, EventNetConfig as Net, ExecConfig, JoinSpec, NowParams};
use now_bft::core::{NowSystem, WaveStats};
use now_bft::net::{CostKind, DetRng, NodeId};
use now_bft::sim::ViolationKind;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::Rng;
use std::ops::Range;

/// Every campaign style, as the text format names it.
pub const STYLES: &str =
    "quiet balanced sawtooth join-leave forced-leave split-forcing merge-forcing burst";
/// The adversarial styles only.
pub const ATTACKS: &str = "join-leave forced-leave split-forcing merge-forcing burst";

/// A system to script against, `(params, n0, tau, seed)`: the one
/// `NowSystem::init_fast` builds, with flight recorder and metrics on.
#[derive(Debug)]
pub struct Shape(pub NowParams, pub usize, pub f64, pub u64);

/// What a scripted input runs on its [`Shape`].
pub enum Body {
    /// `steps` steps of the driver made from the fresh system, seeded by the shape.
    Driver(MakeDriver, usize),
    /// One batch per step. A join is `(honest, contact)`; a contact
    /// under 0x5555 (a third) steers it to initial cluster `contact`
    /// (modulo their count), maybe dissolved since. A leave indexes the
    /// initial node ids: it may repeat, or name a node that already left.
    Batches(Script),
}

pub type Script = Vec<(Vec<(bool, u16)>, Vec<u16>)>;
pub type MakeDriver = Box<dyn Fn(&NowSystem) -> Box<dyn BatchDriver>>;

/// `steps` raw batches, each of fewer than `width` joins and leaves.
pub fn batches(steps: Range<usize>, width: usize) -> impl Strategy<Value = Script> {
    let joins = vec((any::<bool>(), any::<u16>()), 0..width);
    vec((joins, vec(any::<u16>(), 0..width)), steps)
}

/// The legs, by index: campaigns and scripts run the first three, raw
/// batches the plain one-op replay too.
const LEGS: [&str; 4] = ["serial", "pooled", "event", "replay"];

/// What one leg observed: the outcome (typed error or none), admission
/// (node ids, Byzantine population, joiners), the end state (homes,
/// every ledger kind's stats, the next draw) and the JSON, in the order
/// two legs that must agree to some depth compare them.
#[derive(Default)]
struct Run {
    views: [String; 4],
    widest: usize,
}

const VIEWS: [&str; 4] = ["outcome", "admission", "end state", "JSON"];

type Checked<T> = Result<T, TestCaseError>;

/// Runs a campaign text on every leg and compares them; `Ok(true)` if
/// it was singleton-shaped.
pub fn check_campaign(text: &str) -> Checked<bool> {
    let c = Campaign::parse(text).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
    let runs: Checked<Vec<_>> = (0..3).map(|leg| campaign_leg(&c, leg)).collect();
    let ideal = c.phases.iter().all(|p| p.net == Net::ideal());
    agree(&runs?, ideal, false, text)
}

/// Runs a scripted input on every leg (and raw batches on the replay)
/// and compares them; `Ok(true)` if it was singleton-shaped.
pub fn check_script(shape: &Shape, body: &Body) -> Checked<bool> {
    let (context, batches) = match body {
        Body::Driver(_, steps) => (format!("{shape:?}, {steps} driver steps"), false),
        Body::Batches(batches) => (format!("{shape:?}, batches {batches:?}"), true),
    };
    let legs = 3 + usize::from(batches);
    let runs: Checked<Vec<_>> = (0..legs).map(|leg| script_leg(shape, body, leg)).collect();
    agree(&runs?, true, batches, &context)
}

fn campaign_leg(campaign: &Campaign, leg: usize) -> Checked<Run> {
    let exec = match LEGS[leg] {
        "pooled" => PhaseExec::Pooled,
        "event" => PhaseExec::Event,
        _ => PhaseExec::Serial,
    };
    let event = exec == PhaseExec::Event;
    let mut c = campaign.clone();
    for p in &mut c.phases {
        (p.exec, p.net) = (exec, if event { p.net } else { Net::ideal() });
    }
    let mut run = Run::default();
    let (report, mut sys) = match c.execute() {
        Ok(done) => done,
        Err(e) => {
            run.views[0] = format!("{e:?}");
            return Ok(run);
        }
    };
    run = observe(&mut sys, &[])?;
    for p in &report.phases {
        let off_band = p.run.count(ViolationKind::SizeBounds);
        prop_assert!(off_band == 0, "leg {leg}: phase {} off band", p.name);
        run.widest = run.widest.max(p.run.max_wave_width);
    }
    run.views[3] = report.to_json();
    Ok(run)
}

fn script_leg(&Shape(params, n0, tau, seed): &Shape, body: &Body, leg: usize) -> Checked<Run> {
    let mut sys = NowSystem::init_fast(params, n0, tau, seed);
    sys.enable_tracing(1 << 12);
    sys.enable_metrics();
    let (engine, mut json) = (LEGS[leg], String::new());
    let exec = match engine {
        "pooled" => ExecConfig::Pooled,
        "event" => ExecConfig::event(Net::ideal()),
        _ => ExecConfig::serial(),
    };
    let (nodes, clusters) = (sys.node_ids(), sys.cluster_ids());
    let steer = |c: u16| (c < 0x5555).then(|| clusters[c as usize % clusters.len()]);
    let spec = |&(h, c): &_| steer(c).map_or(JoinSpec::uniform(h), |c| JoinSpec::via(c, h));
    let leave = |&p: &u16| nodes[p as usize % nodes.len()];
    // A driver's steps are empty script steps it fills in.
    let (mut driver, script) = match body {
        Body::Driver(make, steps) => (Some(make(&sys)), vec![Default::default(); *steps]),
        Body::Batches(batches) => (None, batches.clone()),
    };
    let (mut rng, mut widest, mut joined) = (DetRng::new(seed), 0, vec![]);
    for (joins, picks) in script {
        let mut specs: Vec<_> = joins.iter().map(spec).collect();
        let mut leaves: Vec<_> = picks.iter().map(leave).collect();
        if let Some(driver) = &mut driver {
            (specs, leaves) = driver.decide_batch(&sys, &mut rng);
        }
        let before = sys.population() + specs.len() as u64;
        if engine == "replay" {
            let left = leaves.iter().filter(|&&n| sys.leave(n).is_ok()).count() as u64;
            for s in &specs {
                joined.push(match s.contact.filter(|&c| sys.cluster(c).is_some()) {
                    Some(c) => sys.join_via(c, s.honest),
                    None => sys.join(s.honest),
                });
            }
            prop_assert_eq!(sys.population() + left, before);
        } else {
            let mut r = sys.step_batch(&BatchInput::from_specs(&specs, &leaves), &exec);
            // The waves run exactly the admitted ops; split and merge
            // run after them.
            let sum = |f: fn(&WaveStats) -> u64| r.waves.iter().map(f).sum::<u64>();
            let ops = (r.left.len() + r.joined.len()) as u64;
            let waves = sum(|w| w.ops as u64) == ops
                && sum(|w| w.rounds_total) <= r.cost.rounds
                && sum(|w| w.rounds_max) == r.rounds_parallel;
            let conserved = sys.population() + r.left.len() as u64 == before
                && r.left.len() + r.rejected.len() == leaves.len()
                && r.joined.len() == specs.len();
            prop_assert!(waves && conserved, "leg {leg} step {r:?}");
            // Wall time is the one field that differs between equal runs.
            (r.wall_nanos, widest) = (0, widest.max(r.max_wave_width()));
            joined.extend(&r.joined);
            json += &format!("{r:?}\n");
        }
        prop_assert!(sys.audit().size_bounds_ok, "leg {leg} off band");
    }
    json += &(sys.flight_recorder().unwrap().to_json() + &sys.metrics().unwrap().to_json());
    let mut run = observe(&mut sys, &joined)?;
    (run.views[3], run.widest) = (json, widest);
    Ok(run)
}

/// Checks the end state and reads the admission and end-state views.
fn observe(sys: &mut NowSystem, joined: &[NodeId]) -> Checked<Run> {
    let consistency = sys.check_consistency();
    prop_assert!(consistency.is_ok(), "{:?}", consistency);
    let ids = sys.node_ids();
    let homes: Vec<_> = ids.iter().map(|&n| sys.node_cluster(n).unwrap()).collect();
    let stats = CostKind::ALL.map(|k| sys.ledger().stats(k));
    let draw = sys.rand_num(sys.cluster_ids()[0], 1 << 32);
    let mut run = Run::default();
    run.views[1] = format!("{:?}", (&ids, sys.byz_population(), joined));
    run.views[2] = format!("{homes:?} {stats:?} {draw}");
    Ok(run)
}

/// Holds `runs`, one per leg of [`LEGS`] in order, to the agreement
/// rules of the module docs; with `batches`, every leg admits the same
/// ops. Returns whether the input was singleton-shaped (`pooled`'s
/// widest wave is 1).
fn agree(runs: &[Run], ideal: bool, batches: bool, context: &str) -> Checked<bool> {
    // (leg, leg, last shared view): serial against every leg, then
    // against pooled and event to the end state.
    let admitted = usize::from(batches);
    let mut pairs: Vec<_> = (0..runs.len()).map(|b| (0, b, admitted)).collect();
    pairs.extend([(0, 1, 2), (0, 2, if ideal { 2 } else { 0 })]);
    for (a, b, depth) in pairs {
        let (x, y) = (&runs[a].views, &runs[b].views);
        if let Some(at) = (0..=depth).find(|&i| x[i] != y[i]) {
            let (legs, what) = ((LEGS[a], LEGS[b]), VIEWS[at]);
            let why = format!("{legs:?}: {what} diverged ({:?} vs {:?})\n", x[0], y[0]);
            return Err(TestCaseError::fail(why + context));
        }
    }
    Ok(runs[1].widest <= 1)
}

/// A grammar-directed campaign drawn from `seed`: every header knob,
/// then one to four phases of `styles` with every per-phase knob,
/// network knobs on `exec event` phases and every trigger kind with a
/// small cap. The output always parses.
pub fn campaign(seed: u64, styles: &str) -> String {
    let g = &mut DetRng::new(seed);
    let (log_n, k) = (4 + 2 * g.gen_range(0..4u64), g.gen_range(2..=4));
    let (t, capacity) = (k * log_n, 1u64 << log_n);
    let l = one(g, "1.42 1.45 1.5 1.75 2.0");
    let tau = one(g, "0 0.05 0.1 0.2 0.3");
    let mut text = format!("campaign gen-{seed}\ncapacity {capacity}\nk {k}\nl {l}\ntau {tau}\n");
    let n0 = g.gen_range(1..=32 * t);
    text += &format!("initial-population {n0}\nseed {}\n", g.gen::<u64>());
    let (width, shuffle) = (g.gen_range(1..=8), one(g, "on on on off"));
    text += &format!("width {width}\nshuffle {shuffle}\n");
    text += &opt(format!("trace {}\n", one(g, "64 4096")), 0.5, g);
    text += &opt("metrics on\n".into(), 0.5, g);
    for i in 0..g.gen_range(1..=4) {
        let (style, low) = (one(g, styles), g.gen_range(1..=n0 + t));
        let high = low + g.gen_range(1..=2 * t);
        let band = opt(format!(" {low} {high}"), (style == "sawtooth").into(), g);
        text += &format!("\nphase p{i}\nstyle {style}{band}\n");
        let target = one(g, "first largest smallest");
        text += &opt(format!("target {target}\n"), 0.5, g);
        text += &opt(format!("width {}\n", g.gen_range(1..=8)), 0.5, g);
        text += &opt(format!("tau {}\n", one(g, "0 0.1 0.2 0.3")), 0.3, g);
        let exec = one(g, "serial pooled event");
        text += &format!("exec {exec}\n");
        let (latency, jitter) = (g.gen_range(1..=3), g.gen_range(0..=3));
        let drop = one(g, "0 0.1 0.3");
        let (groups, heal) = (g.gen_range(2..=3), g.gen_range(0..=8));
        let net = format!("latency {latency}\njitter {jitter}\ndrop {drop}\n");
        let net = net + &opt(format!("partition {groups} heal {heal}\n"), 0.5, g);
        text += &opt(net, if exec == "event" { 0.5 } else { 0.0 }, g);
        let (cap, swing) = (g.gen_range(2..=10), g.gen_range(0..=2 * t));
        text += &[
            format!("steps {cap}\n"),
            format!("until-pop-above {} cap {cap}\n", n0 + swing),
            format!("until-pop-below {} cap {cap}\n", n0.saturating_sub(swing)),
            format!("until-violation cap {cap}\n"),
        ][g.gen_range(0..4)];
    }
    text
}

/// One of the space-separated `choices`.
fn one<'a>(g: &mut DetRng, choices: &'a str) -> &'a str {
    let choices: Vec<_> = choices.split(' ').collect();
    choices[g.gen_range(0..choices.len())]
}

/// `line` with probability `p`, else nothing.
fn opt(line: String, p: f64, g: &mut DetRng) -> String {
    if g.gen_bool(p) {
        line
    } else {
        String::new()
    }
}
