//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, all integer-valued and populated exclusively from
//! protocol outcomes.
//!
//! # Naming convention
//!
//! `now_<subsystem>_<quantity>[_total]` — `_total` marks monotone
//! counters (Prometheus idiom); gauges and histograms carry no suffix.
//! Names are snake_case `[a-z0-9_]` and must never encode a
//! thread count, wall-clock reading, or any other run-environment
//! value: a metrics artifact is part of the byte-diffed determinism
//! surface.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A fixed-bucket histogram: `counts[i]` tallies observations
/// `<= bounds[i]`, with one overflow bucket at the end (`+Inf`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub(crate) fn new(bounds: &[u64]) -> Self {
        // INVARIANT: `windows(2)` only yields slices of length 2.
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
    }

    /// Upper bounds (exclusive of the implicit `+Inf` bucket).
    pub(crate) fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is `+Inf`).
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub(crate) fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }
}

/// Named counters, gauges, and histograms with canonical (sorted-key)
/// JSON and Prometheus-style text export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter (created at zero on first use).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the named histogram, creating it
    /// with `bounds` on first use (later calls ignore `bounds`).
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Canonical JSON: three sorted maps, fixed field order, integers
    /// only.
    pub fn json(&self) -> Json {
        let histogram = |h: &Histogram| {
            Json::object([
                ("bounds", Json::array(h.bounds().iter().copied())),
                ("counts", Json::array(h.counts().iter().copied())),
                ("count", h.count().into()),
                ("sum", h.sum().into()),
            ])
        };
        Json::object([
            (
                "counters",
                Json::object(self.counters.iter().map(|(k, &v)| (k.as_str(), v.into()))),
            ),
            (
                "gauges",
                Json::object(self.gauges.iter().map(|(k, &v)| (k.as_str(), v.into()))),
            ),
            (
                "histograms",
                Json::object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.as_str(), histogram(h))),
                ),
            ),
        ])
    }

    /// [`MetricsRegistry::json`] rendered as a document.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// Prometheus-style text exposition: `# TYPE` headers, buckets as
    /// cumulative `_bucket{le="..."}` series, sorted by metric name.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(s, "# TYPE {k} counter");
            let _ = writeln!(s, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(s, "# TYPE {k} gauge");
            let _ = writeln!(s, "{k} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(s, "# TYPE {k} histogram");
            let mut cum = 0u64;
            for (b, c) in h.bounds().iter().zip(h.counts()) {
                cum += c;
                let _ = writeln!(s, "{k}_bucket{{le=\"{b}\"}} {cum}");
            }
            let _ = writeln!(s, "{k}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(s, "{k}_sum {}", h.sum());
            let _ = writeln!(s, "{k}_count {}", h.count());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.inc("now_ops_joined_total", 2);
        m.inc("now_ops_joined_total", 3);
        assert_eq!(m.counter("now_ops_joined_total"), 5);
        assert_eq!(m.counter("now_never"), 0);
    }

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 112);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.inc("now_b_total", 1);
        m.inc("now_a_total", 1);
        m.set_gauge("now_population", 42);
        m.observe("now_wave_width", &[1, 2], 2);
        let json = m.to_json();
        let a = json.find("now_a_total").unwrap();
        let b = json.find("now_b_total").unwrap();
        assert!(a < b, "keys must render sorted");
        assert!(json.contains("\"now_population\": 42"));
        assert!(json.contains(
            "\"now_wave_width\": {\n      \"bounds\": [1, 2],\n      \"counts\": [0, 1, 0],\n      \
             \"count\": 1,\n      \"sum\": 2\n    }"
        ));
        // Two renders are byte-identical.
        assert_eq!(json, m.to_json());
    }

    #[test]
    fn empty_registry_renders_valid_json() {
        let json = MetricsRegistry::new().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn metric_names_are_escaped() {
        let mut m = MetricsRegistry::new();
        m.inc("now_\"quoted\"_total", 1);
        m.set_gauge("now_multi\nline", 2);
        let json = m.to_json();
        assert!(json.contains("\"now_\\\"quoted\\\"_total\": 1"), "{json}");
        assert!(json.contains("\"now_multi\\nline\": 2"), "{json}");
        assert_eq!(
            json.matches('\n').count(),
            9,
            "no raw newline in a key: {json}"
        );
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut m = MetricsRegistry::new();
        m.observe("now_wave_width", &[1, 2], 1);
        m.observe("now_wave_width", &[1, 2], 2);
        m.observe("now_wave_width", &[1, 2], 9);
        let text = m.to_prometheus();
        assert!(text.contains("now_wave_width_bucket{le=\"1\"} 1"));
        assert!(text.contains("now_wave_width_bucket{le=\"2\"} 2"));
        assert!(text.contains("now_wave_width_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("now_wave_width_sum 12"));
        assert!(text.contains("now_wave_width_count 3"));
    }
}
