//! Per-phase campaign reports and their deterministic JSON form.
//!
//! The JSON contains **only deterministic outcome fields** — no
//! wall-clock (a phase's run carries it; it is not written) — so two
//! runs of the same campaign file must be byte-identical. CI's
//! `campaign-smoke` job diffs exactly that, and checks the bytes
//! against sums committed in `.github/artifacts.sha256`.

use now_core::{Json, SecurityMode};
use now_sim::{BatchRunReport, ViolationKind};

/// Outcome of one campaign phase: its [`BatchRunReport`] plus what only
/// a campaign knows.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (from the campaign).
    pub name: String,
    /// Style name (e.g. `join-leave`).
    pub style: String,
    /// Whether the trigger's condition fired (as opposed to the step
    /// cap running out). Always true for `steps` triggers.
    pub trigger_fired: bool,
    /// Population when the phase began.
    pub pop_start: u64,
    /// Ledger message delta across the phase.
    pub messages: u64,
    /// Ledger round delta across the phase.
    pub rounds: u64,
    /// The phase's run: churn, wave and network counts, one audit per
    /// step, and the audit at its end.
    pub run: BatchRunReport,
}

impl PhaseReport {
    /// The phase's JSON object, as it appears in the report's `phases`.
    fn json(&self) -> Json {
        let r = &self.run;
        let pops = r.audits.iter().map(|a| a.population);
        let population = Json::object([
            ("start", self.pop_start.into()),
            ("end", r.final_audit.population.into()),
            ("min", pops.clone().fold(self.pop_start, u64::min).into()),
            ("max", pops.fold(self.pop_start, u64::max).into()),
        ]);
        // The overlay degree over the phase's audits: the time-mean of
        // the mean, and the extremes.
        let audited = r.audits.len().max(1) as f64;
        let overlay_degree = Json::object([
            (
                "mean",
                (r.audits.iter().map(|a| a.overlay_mean_degree).sum::<f64>() / audited).into(),
            ),
            (
                "min",
                r.audits
                    .iter()
                    .map(|a| a.overlay_min_degree)
                    .min()
                    .unwrap_or(r.final_audit.overlay_min_degree)
                    .into(),
            ),
            (
                "max",
                r.audits
                    .iter()
                    .map(|a| a.overlay_max_degree)
                    .max()
                    .unwrap_or(r.final_audit.overlay_max_degree)
                    .into(),
            ),
        ]);
        let mut violations = vec![("binding", r.binding_violations().into())];
        for kind in ViolationKind::ALL {
            violations.push((kind.name(), r.count(kind).into()));
        }
        // Downsampled population trajectory: at most ~25 points per
        // phase, stride-even so equal runs sample equal steps.
        let stride = (r.audits.len() / 25).max(1);
        let trajectory = r
            .audits
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0 || *i + 1 == r.audits.len())
            .map(|(_, a)| Json::array([a.time_step, a.population]));
        Json::object([
            ("name", self.name.as_str().into()),
            ("style", self.style.as_str().into()),
            ("driver", r.driver.as_str().into()),
            ("steps", r.steps.into()),
            ("trigger_fired", self.trigger_fired.into()),
            ("joins", r.joins.into()),
            ("leaves", r.leaves.into()),
            ("rejected", r.rejected.into()),
            ("rounds_serial", r.rounds_serial.into()),
            ("rounds_parallel", r.rounds_parallel.into()),
            ("waves", r.waves.into()),
            ("max_wave_width", r.max_wave_width.into()),
            ("wave_slack", r.wave_slack_rounds.into()),
            ("sent", r.sent.into()),
            ("delivered", r.delivered.into()),
            ("dropped", r.dropped.into()),
            ("messages", self.messages.into()),
            ("rounds", self.rounds.into()),
            ("population", population),
            ("peak_byz_fraction", r.peak_byz_fraction().into()),
            ("overlay_degree", overlay_degree),
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
        self.phases.iter().map(|p| p.run.steps).sum()
    }

    /// Total binding violations across all phases.
    pub fn total_binding_violations(&self) -> usize {
        self.phases.iter().map(|p| p.run.binding_violations()).sum()
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
    use now_core::SystemAudit;

    fn phase(name: &str) -> PhaseReport {
        let params = now_core::NowParams::for_capacity(1 << 10).unwrap();
        let base = now_core::NowSystem::init_fast(params, 100, 0.0, 1).audit();
        let audits: Vec<_> = (0..60u64)
            .map(|s| SystemAudit {
                time_step: s,
                population: 100 + s,
                worst_byz_fraction: 0.25,
                size_bounds_ok: s != 3,
                ..base
            })
            .collect();
        PhaseReport {
            name: name.into(),
            style: "balanced".into(),
            trigger_fired: true,
            pop_start: 100,
            messages: 12345,
            rounds: 600,
            run: BatchRunReport {
                driver: "batch-random-churn".into(),
                steps: 60,
                joins: 30,
                leaves: 28,
                rejected: 2,
                rounds_serial: 600,
                rounds_parallel: 420,
                waves: 120,
                max_wave_width: 3,
                wave_slack_rounds: 180,
                dropped: 0,
                sent: 0,
                delivered: 0,
                wall_nanos: 0,
                final_audit: audits[59],
                audits,
            },
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
        p.run.audits[0].worst_byz_fraction = f64::INFINITY;
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
        assert!(!json.contains("inf"));
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
        assert_eq!(report.phases[0].run.count(ViolationKind::SizeBounds), 1);
        assert_eq!(report.phases[0].run.count(ViolationKind::Forgeable), 0);
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
