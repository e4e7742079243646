//! Pure arithmetic the harness reports with: medians and quartiles, the
//! "highest percentile the sample supports" picker, the open-loop due-time
//! schedule, and span self-time subtraction. No crate of the program is
//! touched here, so everything is unit-tested in isolation.

use std::time::Duration;

/// Sorts in place and returns the value at quantile `q` (nearest rank).
/// Empty input reads 0.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median with the two middle values averaged for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the acceptance checks are written in. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// every bound is compared with. One value, or a zero median, reads 0.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The highest percentile with at least `beyond` samples above it, as
/// `(quantile, value)`; `None` when the sample cannot support even that.
/// With 10 beyond: 100 samples support p90, 1,000 p99, 10,000 p99.9.
pub fn highest_supported(values: &mut [f64], beyond: usize) -> Option<(f64, f64)> {
    if values.len() <= beyond {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = values.len() - beyond;
    Some((rank as f64 / values.len() as f64, values[rank - 1]))
}

/// Completions per second in each of `slices` equal parts of the measured
/// window. `stamps_ns` are completion times relative to the window start.
pub fn slice_rates(stamps_ns: &[u64], window: Duration, slices: usize) -> Vec<f64> {
    let slice_ns = (window.as_nanos() as u64 / slices as u64).max(1);
    let mut counts = vec![0u64; slices];
    for &t in stamps_ns {
        let i = (t / slice_ns) as usize;
        if i < slices {
            counts[i] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 * 1e9 / slice_ns as f64).collect()
}

/// A fixed-rate arrival schedule: request `k` is due `k / rate` seconds
/// after the start, whatever the system does. Latency is timed from the due
/// time, so a stalled generator charges the wait to the requests it delayed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: f64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Schedule {
        Schedule { period_ns: 1e9 / rate }
    }

    /// Due time of request `k`, in ns after the schedule start.
    pub fn due_ns(&self, k: u64) -> u64 {
        (k as f64 * self.period_ns) as u64
    }

    /// How many requests are due at `now_ns` (so `next..due_count` must be
    /// sent now).
    pub fn due_count(&self, now_ns: u64) -> u64 {
        (now_ns as f64 / self.period_ns) as u64 + 1
    }

    /// How late request `k` was sent.
    pub fn lateness_ns(&self, k: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(k))
    }
}

/// One timed call into a layer. `parent` names the span of the enclosing
/// layer for the same `req`; the outermost span has none.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A layer's self time within one request: its span minus its child spans.
/// The replayed layers run back to back, not nested, so a child can outlast
/// its parent by noise; self time never goes below zero.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let own: u64 = spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum();
    let children: u64 = spans.iter().filter(|s| s.parent == Some(name)).map(Span::dur_ns).sum();
    own.saturating_sub(children)
}

/// The share of the outermost span `root` that the layers' self times do
/// not account for: `|root − Σ self| ÷ root`.
pub fn unexplained_share(spans: &[Span], root: &str) -> f64 {
    let total: u64 = spans.iter().filter(|s| s.name == root).map(Span::dur_ns).sum();
    if total == 0 {
        return 0.0;
    }
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let explained: u64 = names.iter().map(|n| self_ns(spans, n)).sum();
    (total as f64 - explained as f64).abs() / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picker_needs_ten_beyond() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&mut v, 10), Some((0.99, 990.0)));
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported(&mut v, 10), Some((0.9, 90.0)));
        let mut few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(highest_supported(&mut few, 10), None);
        let mut v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(highest_supported(&mut v, 10).map(|p| p.1), Some(1.0));
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn schedule_due_times_ignore_the_system() {
        let s = Schedule::per_second(5_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(5_000), 1_000_000_000);
        // 1 ms in: requests 0..=5 are due.
        assert_eq!(s.due_count(1_000_000), 6);
        // A generator that stalled 3 ms sends request 5 late; the latency
        // clock started at its due time regardless.
        assert_eq!(s.lateness_ns(5, 4_000_000), 3_000_000);
        assert_eq!(s.lateness_ns(5, 900_000), 0);
    }

    #[test]
    fn median_slice_rate_shrugs_off_one_stalled_slice() {
        // 100 completions in each of 9 slices, none in the last.
        let window = Duration::from_secs(10);
        let stamps: Vec<u64> =
            (0..9u64).flat_map(|s| (0..100u64).map(move |i| s * 1_000_000_000 + i)).collect();
        let rates = slice_rates(&stamps, window, 10);
        assert_eq!(rates[9], 0.0);
        assert_eq!(median(&rates), 100.0);
    }

    fn span(name: &'static str, parent: Option<&'static str>, dur: u64) -> Span {
        Span { req: 1, name, parent, start_ns: 0, end_ns: dur }
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        let spans = vec![
            span("http", None, 1_000),
            span("serve", Some("http"), 900),
            span("chimera", Some("serve"), 850),
            span("rules", Some("chimera"), 500),
            span("vote", Some("chimera"), 100),
        ];
        assert_eq!(self_ns(&spans, "http"), 100);
        assert_eq!(self_ns(&spans, "serve"), 50);
        assert_eq!(self_ns(&spans, "chimera"), 250);
        assert_eq!(self_ns(&spans, "rules"), 500);
        assert_eq!(unexplained_share(&spans, "http"), 0.0);

        // The serve replay ran longer than the HTTP request it explains:
        // http's self time floors at zero and the excess is unexplained.
        let noisy = vec![span("http", None, 1_000), span("serve", Some("http"), 1_100)];
        assert_eq!(self_ns(&noisy, "http"), 0);
        assert!((unexplained_share(&noisy, "http") - 0.1).abs() < 1e-12);
    }
}
