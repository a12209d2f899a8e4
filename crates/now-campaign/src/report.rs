//! Per-phase campaign reports and their deterministic JSON form.
//!
//! The JSON contains **only deterministic outcome fields** — no
//! wall-clock, no thread counts — so two runs of the same campaign file
//! must be byte-identical whatever `--threads` value drove them. CI's
//! `campaign-smoke` job diffs exactly that.

use now_core::{Json, SecurityMode};
use now_sim::{TimeSeries, Violation, ViolationKind};

/// Outcome of one campaign phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (from the campaign).
    pub name: String,
    /// Style name (e.g. `join-leave`).
    pub style: String,
    /// Driver name as reported by the batch driver.
    pub driver: String,
    /// Steps actually executed (≤ the trigger's cap).
    pub steps: u64,
    /// Whether the trigger's condition fired (as opposed to the step
    /// cap running out). Always true for `steps` triggers.
    pub trigger_fired: bool,
    /// Joins admitted during the phase.
    pub joins: u64,
    /// Leaves completed during the phase.
    pub leaves: u64,
    /// Departures rejected (floor / unknown).
    pub rejected: u64,
    /// Serial round sum over the phase.
    pub rounds_serial: u64,
    /// Scheduled parallel round sum over the phase.
    pub rounds_parallel: u64,
    /// Conflict-free waves scheduled.
    pub waves: u64,
    /// Widest wave observed.
    pub max_wave_width: usize,
    /// Round slack of the schedules (serial rounds saved).
    pub wave_slack_rounds: u64,
    /// Messages the event network accepted for delivery (always zero
    /// outside `exec event` phases). Conservation: `sent` equals
    /// `delivered + dropped` within every phase.
    pub sent: u64,
    /// Messages the event network delivered (always zero outside
    /// `exec event` phases).
    pub delivered: u64,
    /// Operations whose triggering message the event network dropped
    /// (always zero outside `exec event` phases).
    pub dropped: u64,
    /// Ledger message delta across the phase.
    pub messages: u64,
    /// Ledger round delta across the phase.
    pub rounds: u64,
    /// Population when the phase began.
    pub pop_start: u64,
    /// Population when the phase ended.
    pub pop_end: u64,
    /// Smallest population seen during the phase.
    pub pop_min: u64,
    /// Largest population seen during the phase.
    pub pop_max: u64,
    /// Highest worst-cluster Byzantine fraction seen during the phase.
    pub peak_byz_fraction: f64,
    /// Every invariant violation observed (all kinds).
    pub violations: Vec<Violation>,
    /// Violations binding for the system's security mode.
    pub binding_violations: usize,
    /// Population trajectory (one point per step).
    pub population: TimeSeries,
}

impl PhaseReport {
    /// Number of violations of the given kind.
    pub fn count(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// The phase's JSON object, as it appears in the report's `phases`.
    fn json(&self) -> Json {
        let population = Json::object([
            ("start", self.pop_start.into()),
            ("end", self.pop_end.into()),
            ("min", self.pop_min.into()),
            ("max", self.pop_max.into()),
        ]);
        let mut violations = vec![("binding", self.binding_violations.into())];
        for kind in [
            ViolationKind::NotTwoThirdsHonest,
            ViolationKind::NotMajorityHonest,
            ViolationKind::RandNumCompromised,
            ViolationKind::Forgeable,
            ViolationKind::SizeBounds,
        ] {
            violations.push((kind.name(), self.count(kind).into()));
        }
        // Downsampled population trajectory: at most ~25 points per
        // phase, stride-even so equal runs sample equal steps.
        let points = self.population.points();
        let stride = (points.len() / 25).max(1);
        let trajectory = points
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0 || *i + 1 == points.len())
            .map(|(_, &(step, pop))| Json::array([step, pop.round() as u64]));
        Json::object([
            ("name", self.name.as_str().into()),
            ("style", self.style.as_str().into()),
            ("driver", self.driver.as_str().into()),
            ("steps", self.steps.into()),
            ("trigger_fired", self.trigger_fired.into()),
            ("joins", self.joins.into()),
            ("leaves", self.leaves.into()),
            ("rejected", self.rejected.into()),
            ("rounds_serial", self.rounds_serial.into()),
            ("rounds_parallel", self.rounds_parallel.into()),
            ("waves", self.waves.into()),
            ("max_wave_width", self.max_wave_width.into()),
            ("wave_slack", self.wave_slack_rounds.into()),
            ("sent", self.sent.into()),
            ("delivered", self.delivered.into()),
            ("dropped", self.dropped.into()),
            ("messages", self.messages.into()),
            ("rounds", self.rounds.into()),
            ("population", population),
            ("peak_byz_fraction", self.peak_byz_fraction.into()),
            ("violations", Json::object(violations)),
            ("trajectory", Json::array(trajectory)),
        ])
    }
}

/// Outcome of a whole campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub campaign: String,
    /// Master seed the run derived from.
    pub seed: u64,
    /// The system's security mode (decides which violations bind).
    pub security: SecurityMode,
    /// Per-phase outcomes, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Flight-recorder state at campaign end (see
    /// [`now_core::FlightRecorder::json`]); `None` when the campaign ran
    /// without a `trace` directive. Deterministic — part of the
    /// byte-diffed surface.
    pub trace: Option<Json>,
    /// Metrics registry at campaign end (see
    /// [`now_core::MetricsRegistry::json`]); `None` without a
    /// `metrics on` directive. Deterministic.
    pub metrics: Option<Json>,
}

impl CampaignReport {
    /// Total steps across all phases.
    pub fn total_steps(&self) -> u64 {
        self.phases.iter().map(|p| p.steps).sum()
    }

    /// Total binding violations across all phases.
    pub fn total_binding_violations(&self) -> usize {
        self.phases.iter().map(|p| p.binding_violations).sum()
    }

    /// Total ledger messages across all phases.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.messages).sum()
    }

    /// Renders the deterministic JSON report (module docs): fixed field
    /// order, so equal runs yield equal bytes.
    pub fn to_json(&self) -> String {
        let security = match self.security {
            SecurityMode::Plain => "plain",
            SecurityMode::Authenticated => "authenticated",
        };
        Json::object([
            ("campaign", self.campaign.as_str().into()),
            ("seed", self.seed.into()),
            ("security", security.into()),
            ("total_steps", self.total_steps().into()),
            (
                "total_binding_violations",
                self.total_binding_violations().into(),
            ),
            ("total_messages", self.total_messages().into()),
            (
                "phases",
                Json::array(self.phases.iter().map(PhaseReport::json)),
            ),
            ("trace", self.trace.clone().into()),
            ("metrics", self.metrics.clone().into()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str) -> PhaseReport {
        let mut population = TimeSeries::new("population");
        for s in 0..60u64 {
            population.push(s, 100.0 + s as f64);
        }
        PhaseReport {
            name: name.into(),
            style: "balanced".into(),
            driver: "batch-random-churn".into(),
            steps: 60,
            trigger_fired: true,
            joins: 30,
            leaves: 28,
            rejected: 2,
            rounds_serial: 600,
            rounds_parallel: 420,
            waves: 120,
            max_wave_width: 3,
            wave_slack_rounds: 180,
            sent: 0,
            delivered: 0,
            dropped: 0,
            messages: 12345,
            rounds: 600,
            pop_start: 100,
            pop_end: 159,
            pop_min: 100,
            pop_max: 159,
            peak_byz_fraction: 0.25,
            violations: vec![Violation {
                step: 3,
                kind: ViolationKind::SizeBounds,
                cluster: None,
            }],
            binding_violations: 1,
            population,
        }
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let report = CampaignReport {
            campaign: "t".into(),
            seed: 7,
            security: SecurityMode::Plain,
            phases: vec![phase("a"), phase("b")],
            trace: None,
            metrics: None,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "same report, same bytes");
        assert!(a.contains("\"campaign\": \"t\""));
        assert!(a.contains("\"total_steps\": 120"));
        assert!(a.contains("\"size_bounds\": 1"));
        assert!(a.contains("\"trajectory\": [[0, 100]"));
        assert!(!a.contains("wall"), "no wall-clock in the report");
        assert!(!a.contains("thread"), "no thread count in the report");
        // Trajectory is downsampled: 60 points → ≤ 32 emitted.
        let traj_points = a.matches('[').count();
        assert!(
            traj_points < 80,
            "trajectory not downsampled: {traj_points}"
        );
    }

    #[test]
    fn trace_and_metrics_embed_as_json_values() {
        let report = CampaignReport {
            campaign: "t".into(),
            seed: 0,
            security: SecurityMode::Plain,
            phases: vec![phase("a")],
            trace: Some(now_core::FlightRecorder::new(4).json()),
            metrics: Some(now_core::MetricsRegistry::new().json()),
        };
        let json = report.to_json();
        // Nested values are laid out at their depth in the document.
        assert!(json.contains("\"trace\": {\n    \"capacity\": 4,"));
        assert!(json.contains("\"events\": [],\n    \"dump\": null\n  },"));
        assert!(json.contains("\"metrics\": {\n    \"counters\": {},"));
        // Absent sinks render as explicit nulls.
        let bare = CampaignReport {
            trace: None,
            metrics: None,
            ..report
        };
        let j = bare.to_json();
        assert!(j.contains("\"trace\": null"));
        assert!(j.contains("\"metrics\": null"));
    }

    #[test]
    fn non_finite_fraction_renders_null() {
        let mut p = phase("a");
        p.peak_byz_fraction = f64::NAN;
        let report = CampaignReport {
            campaign: "t".into(),
            seed: 0,
            security: SecurityMode::Plain,
            phases: vec![p],
            trace: None,
            metrics: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"peak_byz_fraction\": null,"), "{json}");
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn totals_aggregate_phases() {
        let report = CampaignReport {
            campaign: "t".into(),
            seed: 0,
            security: SecurityMode::Plain,
            phases: vec![phase("a"), phase("b"), phase("c")],
            trace: None,
            metrics: None,
        };
        assert_eq!(report.total_steps(), 180);
        assert_eq!(report.total_binding_violations(), 3);
        assert_eq!(report.total_messages(), 3 * 12345);
        assert_eq!(report.phases[0].count(ViolationKind::SizeBounds), 1);
        assert_eq!(report.phases[0].count(ViolationKind::Forgeable), 0);
    }

    #[test]
    fn json_escapes_quotes() {
        let mut p = phase("we \"quote\"");
        p.style = "back\\slash".into();
        let report = CampaignReport {
            campaign: "c".into(),
            seed: 0,
            security: SecurityMode::Authenticated,
            phases: vec![p],
            trace: None,
            metrics: None,
        };
        let json = report.to_json();
        assert!(json.contains("we \\\"quote\\\""));
        assert!(json.contains("back\\\\slash"));
        assert!(json.contains("\"security\": \"authenticated\""));
    }

    #[test]
    fn json_escapes_control_characters() {
        // Reachable via the programmatic API only; the emitter must
        // still produce valid JSON.
        let mut p = phase("multi\nline");
        p.style = "tab\there\u{1}".into();
        let report = CampaignReport {
            campaign: "c\r".into(),
            seed: 0,
            security: SecurityMode::Plain,
            phases: vec![p],
            trace: None,
            metrics: None,
        };
        let json = report.to_json();
        assert!(json.contains("multi\\nline"));
        assert!(json.contains("tab\\there\\u0001"));
        assert!(json.contains("\"campaign\": \"c\\r\""));
        // No raw control characters inside any string literal.
        assert!(!json
            .lines()
            .any(|l| l.chars().any(|c| (c as u32) < 0x20 && c != ' ')));
    }
}
