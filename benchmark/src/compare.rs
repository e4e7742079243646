//! Result sets on disk and the `compare` subcommand.
//!
//! A result set is a directory with one `<workload>.json` per workload:
//! host facts, the untraced runs (each a name → value map of end-to-end
//! metrics) and the traced run's per-layer metrics.

use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::probes;
use crate::stats;
use std::path::Path;

/// One workload's runs of one result set.
pub struct ResultSet {
    /// `(metric name, value)` per untraced run.
    pub runs: Vec<Vec<(String, f64)>>,
}

impl ResultSet {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|run| run.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect()
    }
}

pub fn metrics_json(metrics: &[(String, f64)]) -> String {
    let fields: Vec<String> = metrics.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

pub fn read(dir: &Path, workload: &str) -> Result<ResultSet, String> {
    let path = dir.join(format!("{workload}.json"));
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = probes::json_runs(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ResultSet { runs })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread of a side is wider than the bound: the metric
    /// cannot tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against A for one metric: worse or better only when the medians differ
/// by more than the bound (as a share of A's median) in that direction, and
/// unresolved when either side's spread exceeds the bound.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if stats::spread(a) > metric.bound || stats::spread(b) > metric.bound {
        return Verdict::Unresolved;
    }
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let change = (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = if metric.better == "lower" { change } else { -change };
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn quartile_text(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q3)) => format!("{q1:.4}..{q3:.4}"),
        None => "-".to_string(),
    }
}

/// Prints the comparison table; returns how many pairings were worse or
/// unresolved.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<usize, String> {
    let mut flagged = 0;
    println!(
        "{:<15} {:<20} {:>12} {:>22} {:>12} {:>22} {:>6}  verdict",
        "workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "bound"
    );
    for workload in &WORKLOADS {
        let (a, b) = (read(dir_a, workload.name)?, read(dir_b, workload.name)?);
        for metric in &END_TO_END {
            let (va, vb) = (a.values(metric.name), b.values(metric.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{}: {} missing from a result set",
                    workload.name, metric.name
                ));
            }
            let v = verdict(metric, &va, &vb);
            flagged += usize::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            println!(
                "{:<15} {:<20} {:>12.4} {:>22} {:>12.4} {:>22} {:>6}  {}",
                workload.name,
                metric.name,
                stats::median(&va),
                quartile_text(&va),
                stats::median(&vb),
                quartile_text(&vb),
                metric.bound,
                v.as_str()
            );
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd { name: "ms", unit: "ms", better: "lower", bound: 0.10 };
    const HIGHER: EndToEnd = EndToEnd { name: "rps", unit: "1/s", better: "higher", bound: 0.10 };

    #[test]
    fn verdict_follows_direction_and_bound() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(verdict(&LOWER, &a, &[10.5, 10.6, 10.4]), Verdict::Same);
        assert_eq!(verdict(&LOWER, &a, &[11.5, 11.6, 11.4]), Verdict::Worse);
        assert_eq!(verdict(&LOWER, &a, &[8.5, 8.6, 8.4]), Verdict::Better);
        assert_eq!(verdict(&HIGHER, &a, &[11.5, 11.6, 11.4]), Verdict::Better);
        assert_eq!(verdict(&HIGHER, &a, &[8.5, 8.6, 8.4]), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        // Quartiles 8..12 around a median of 10: spread 0.4 > bound 0.1.
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(verdict(&LOWER, &noisy, &[10.0, 10.0, 10.0]), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, &[10.0, 10.0, 10.0], &noisy), Verdict::Unresolved);
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(verdict(&LOWER, &[10.0], &[12.0]), Verdict::Worse);
        assert_eq!(verdict(&LOWER, &[10.0], &[10.5]), Verdict::Same);
    }

    #[test]
    fn result_sets_round_trip() {
        let run = vec![("setup_s".to_string(), 1.25), ("classify_rps".to_string(), 612.5)];
        let text = format!("{{\"runs\": [{}]}}", metrics_json(&run));
        assert_eq!(probes::json_runs(text.as_bytes()).unwrap(), vec![run]);
    }
}
