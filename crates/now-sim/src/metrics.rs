//! Time series, summaries, and quantiles.

/// A named series of `(time_step, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Series name (CSV column header).
    pub name: String,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point (time steps should be non-decreasing).
    pub fn push(&mut self, step: u64, value: f64) {
        self.points.push((step, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Summary statistics over the values.
    pub fn summary(&self) -> Summary {
        Summary::of(self.points.iter().map(|&(_, v)| v))
    }

    /// The value at the largest time step (None if empty).
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }
}

/// Min/max/mean/count over a value stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
    /// Mean (0 when empty).
    pub mean: f64,
}

impl Summary {
    /// Computes a summary from an iterator of values.
    pub fn of(values: impl Iterator<Item = f64>) -> Self {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for v in values {
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        if count == 0 {
            Summary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
            }
        } else {
            Summary {
                count,
                min,
                max,
                mean: sum / count as f64,
            }
        }
    }
}

/// Quantile of a sample (linear interpolation on the sorted values).
/// Returns 0 for an empty sample; `q` is clamped to `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_summary() {
        let mut s = TimeSeries::new("x");
        for (i, v) in [1.0, 3.0, 2.0].into_iter().enumerate() {
            s.push(i as u64, v);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 3);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 3.0);
        assert!((sum.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.last(), Some(2.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.summary().count, 0);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&v, 2.0), 4.0, "clamped");
    }
}
