//! `compare`: judges a change against its parent from alternating result
//! files, by the rule a claimed gain must meet.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles};
use dresar_types::JsonValue;

/// Pairs a gain must be shown on.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 of 10 pairs and the medians differ by
    /// more than the parent's interquartile range, over ten or more pairs.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regression,
    /// Within the bound, and no gain shown.
    NoChange,
    /// The parent's own spread exceeds the bound and the change does not
    /// beat every parent run, so nothing can be concluded.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::NoChange => "no-change",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs the change won (ties count for neither side).
pub fn wins(parent: &[f64], change: &[f64], higher_better: bool) -> usize {
    parent.iter().zip(change).filter(|(p, c)| better(**c, **p, higher_better)).count()
}

fn better(a: f64, b: f64, higher_better: bool) -> bool {
    if higher_better {
        a > b
    } else {
        a < b
    }
}

/// Judges paired samples `parent[i]`/`change[i]` of one metric.
pub fn verdict(parent: &[f64], change: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p, higher_better)));
    if iqr > bound * pm.abs() && !all_better {
        return Verdict::Unresolved;
    }
    let n = parent.len().min(change.len());
    let won = wins(parent, change, higher_better);
    if n >= MIN_PAIRS && won * 10 >= 9 * n && better(cm, pm, higher_better) && (cm - pm).abs() > iqr
    {
        return Verdict::Gain;
    }
    let worse = if higher_better { pm - cm } else { cm - pm };
    if worse > bound * pm.abs() {
        Verdict::Regression
    } else {
        Verdict::NoChange
    }
}

/// Reads a result file written with `--out`.
fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    if doc.get("workloads").is_none() {
        return Err(format!("{path}: not a result file (no `workloads` object)"));
    }
    Ok(doc)
}

fn value(doc: &JsonValue, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `files` alternate parent, change, parent, change, ...
pub fn run(spec: &Spec, files: &[String]) -> Result<(), String> {
    if files.len() < 2 || !files.len().is_multiple_of(2) {
        return Err(
            "compare wants an even number of result files: parent change [parent change]...".into(),
        );
    }
    let docs = files.iter().map(|f| load(f)).collect::<Result<Vec<_>, _>>()?;
    let (parents, changes): (Vec<_>, Vec<_>) = docs.chunks(2).map(|p| (&p[0], &p[1])).unzip();
    println!("{} pairs", parents.len());
    println!(
        "{:<13} {:<15} {:>14} {:>25} {:>14} {:>25} {:>6}  verdict",
        "workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "wins"
    );
    for workload in &spec.workloads {
        for MetricSpec { name, bound, higher_better, .. } in &spec.end_to_end {
            let p: Option<Vec<f64>> = parents.iter().map(|d| value(d, workload, name)).collect();
            let c: Option<Vec<f64>> = changes.iter().map(|d| value(d, workload, name)).collect();
            let (Some(p), Some(c)) = (p, c) else { continue };
            let (pq1, pq3) = quartiles(&p);
            let (cq1, cq3) = quartiles(&c);
            let v = verdict(&p, &c, *higher_better, bound.unwrap_or(0.0));
            println!(
                "{workload:<13} {name:<15} {:>14.6} {:>12.6}..{:<12.6} {:>14.6} {:>12.6}..{:<12.6} {:>3}/{:<2}  {}",
                median(&p),
                pq1,
                pq3,
                median(&c),
                cq1,
                cq3,
                wins(&p, &c, *higher_better),
                p.len(),
                v.label()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn clear_win_on_ten_pairs_is_a_gain() {
        let parent = ten(100.0, 0.1);
        let change = ten(120.0, 0.1);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Gain);
        assert_eq!(verdict(&change, &parent, false, 0.1), Verdict::Gain);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let parent = vec![100.0, 100.1, 100.2];
        let change = vec![120.0, 120.1, 120.2];
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoChange);
    }

    #[test]
    fn eight_wins_of_ten_is_not_a_gain() {
        let parent = ten(100.0, 0.1);
        let mut change = ten(103.0, 0.1);
        change[0] = 90.0;
        change[1] = 90.0;
        assert_eq!(wins(&parent, &change, true), 8);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoChange);
    }

    #[test]
    fn a_gap_inside_the_parent_spread_is_not_a_gain() {
        let parent = ten(100.0, 1.0); // q1..q3 = 101.75..107.25
        let change: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        assert_eq!(wins(&parent, &change, true), 10);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoChange);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        let parent = ten(100.0, 0.1);
        let change = ten(80.0, 0.1);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Regression);
        assert_eq!(verdict(&parent, &ten(95.0, 0.1), true, 0.1), Verdict::NoChange);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = ten(100.0, 5.0); // iqr 27.5 > 10% of the median
        let change = ten(101.0, 5.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let change = ten(200.0, 5.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Gain);
    }
}
