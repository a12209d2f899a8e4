//! The metric table of one run and its two renderings: a line per
//! metric for people (stderr) and JSON for the driver and `run.sh`.

use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: u64,
}

#[derive(Default)]
pub struct Table {
    pub rows: Vec<Metric>,
}

impl Table {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        // A ratio over an empty base (no ops, no waves) reads as 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push(Metric { name, value, unit, samples });
    }

    pub fn extend<const N: usize>(&mut self, rows: [(&'static str, f64, &'static str, u64); N]) {
        for (name, value, unit, samples) in rows {
            self.push(name, value, unit, samples);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }

    /// `name value unit (n = samples)`, one metric per line.
    pub fn print(&self, label: &str) {
        for m in &self.rows {
            eprintln!("{label} {:<32} {:>16.6} {:<6} (n = {})", m.name, m.value, m.unit, m.samples);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` — values with all their
    /// digits (Rust prints the shortest text that reads back exactly);
    /// `with_samples` adds each metric's sample count, for `results.json`.
    pub fn to_json(&self, with_samples: bool) -> String {
        let mut s = String::from("{");
        for (i, m) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"", m.name, m.value, m.unit);
            if with_samples {
                let _ = write!(s, ", \"samples\": {}", m.samples);
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
