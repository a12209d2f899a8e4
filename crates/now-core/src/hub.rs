//! The system's observability hub: optional flight recorder + metrics
//! registry, shared by every execution engine.
//!
//! Both sinks are **off by default** (`None`): a system that never
//! calls [`crate::NowSystem::enable_tracing`] /
//! [`crate::NowSystem::enable_metrics`] pays one branch per recording
//! site and allocates nothing. Every recording site — admission, each
//! op and its split/merge check, wave stats, the event net's
//! inject/drain loops — runs in the step's one run order, so enabled
//! sinks are a pure function of `(seed, input, engine)`.
//! Wall-clock readings never reach either sink (`crates/clippy.toml`'s
//! wall-clock ban plus CI's `trace-smoke` grep gate).

use now_trace::{FlightRecorder, MetricsRegistry, TraceData};

/// Bucket bounds for the wave-width histogram (`now_wave_width`).
pub(crate) const WAVE_WIDTH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// Bucket bounds for the per-wave critical-path rounds histogram
/// (`now_wave_rounds`).
pub(crate) const WAVE_ROUNDS_BOUNDS: &[u64] = &[2, 4, 8, 16, 32, 64, 128];

/// The optional sinks carried by a [`crate::NowSystem`].
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceHub {
    pub(crate) recorder: Option<FlightRecorder>,
    pub(crate) metrics: Option<MetricsRegistry>,
}

impl TraceHub {
    /// Records one flight-recorder event (no-op while tracing is off).
    #[inline]
    pub(crate) fn event(&mut self, step: u64, data: TraceData) {
        if let Some(rec) = &mut self.recorder {
            rec.push(step, data);
        }
    }

    /// Adds to a counter (no-op while metrics are off).
    #[inline]
    pub(crate) fn count(&mut self, name: &str, by: u64) {
        if let Some(m) = &mut self.metrics {
            m.inc(name, by);
        }
    }

    /// Sets a gauge (no-op while metrics are off).
    #[inline]
    pub(crate) fn gauge(&mut self, name: &str, value: i64) {
        if let Some(m) = &mut self.metrics {
            m.set_gauge(name, value);
        }
    }

    /// Observes into a histogram (no-op while metrics are off).
    #[inline]
    pub(crate) fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        if let Some(m) = &mut self.metrics {
            m.observe(name, bounds, value);
        }
    }
}
