//! Order statistics and the span recorder behind `trace.json`.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller aggregates at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and the third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`:
/// the spread the benchmark's driver computes over ten seeds. One value has
/// no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |q: usize| {
        // Position q (len + 1) / 4, counted from 1; the neighbours it
        // interpolates between are clamped to the data, as Python does.
        let scaled = q * (v.len() + 1);
        let below = (scaled / 4).clamp(1, v.len() - 1);
        let weight = (scaled as f64 - (below * 4) as f64) / 4.0;
        v[below - 1] + weight * (v[below] - v[below - 1])
    };
    (quartile(3) - quartile(1)) / median(&v)
}

pub fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `(max − min) / median`, the spread the noise report prints.
pub fn relative_range(values: &[f64]) -> f64 {
    (max_of(values) - min_of(values)) / median(values)
}

/// One recorded call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// Work items the call processed (samples, entries, bytes, queries).
    pub count: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Keeps spans in memory; the traced child writes them out once at exit.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and the
    /// work count to attach. Returns the result and the span's seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> (T, u64)) -> (T, f64) {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(index);
        let (out, count) = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end.max(span.start_ns);
        span.count = count;
        (out, span.seconds())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 20 samples: p95 is the 19th, leaving one beyond it.
        let w: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        let eight = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert!((quartile_spread(&eight) - 4.5 / 3.5).abs() < 1e-12);
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn relative_range_is_over_the_median() {
        assert!((relative_range(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_spans_and_keeps_counts() {
        let mut rec = Recorder::new();
        let (value, secs) = rec.span("outer", |rec| {
            let (inner, _) = rec.span("inner", |_| (7u32, 3));
            (inner + 1, 9)
        });
        assert_eq!(value, 8);
        assert!(secs >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name.as_str(), spans[0].parent, spans[0].count),
            ("outer", None, 9)
        );
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent, spans[1].count),
            ("inner", Some(0), 3)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
