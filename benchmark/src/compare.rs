//! `--compare PARENT CHANGE`: the verdict of an A/B experiment.
//!
//! `ab.sh` runs the benchmark on two commits in alternating pairs and
//! appends every run's result line to one file per side, as
//! `<workload>\t<result JSON>`. Line *i* of one workload in the parent file
//! and line *i* of that workload in the change file form pair *i*.
//!
//! The verdict follows the choosing-metrics guide (section 8): a gain is
//! claimed only when the change wins at least nine tenths of the pairs and
//! the medians differ by more than the distance between the parent's own
//! quartiles; a metric whose spread is wider than its bound is
//! `unresolved`, never `unchanged`.

use atlahs_bench::json::Json;
use atlahs_bench::table::Table;

use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides of one (workload, metric) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub parent: Summary,
    pub change: Summary,
    pub pairs: usize,
    pub pairs_won: usize,
    pub pairs_lost: usize,
    pub verdict: Verdict,
}

/// Judge paired samples (`parent[i]` ran next to `change[i]`).
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let pairs = parent.len().min(change.len());
    let (p, c) = (Summary::of(&parent[..pairs])?, Summary::of(&change[..pairs])?);
    let is_better = |new: f64, old: f64| match better {
        Better::Lower => new < old,
        Better::Higher => new > old,
    };
    let pairs_won = parent.iter().zip(change).filter(|(&o, &n)| is_better(n, o)).count();
    let pairs_lost = parent.iter().zip(change).filter(|(&o, &n)| is_better(o, n)).count();
    let gap = (c.median - p.median).abs();
    // How much worse the change's median is, as a share of the parent's.
    let worse_by = match better {
        Better::Lower => (c.median - p.median) / p.median,
        Better::Higher => (p.median - c.median) / p.median,
    };
    let verdict = if pairs >= 10
        && pairs_won * 10 >= pairs * 9
        && is_better(c.median, p.median)
        && gap > p.q3 - p.q1
    {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if p.spread() > bound || c.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Some(Comparison { parent: p, change: c, pairs, pairs_won, pairs_lost, verdict })
}

/// `workload -> metric -> values` in file order.
type Samples = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn read_samples(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_samples(path, &text)
}

fn parse_samples(path: &str, text: &str) -> Result<Samples, String> {
    let mut samples: Samples = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |e: String| format!("{path}:{}: {e}", n + 1);
        let (workload, json) =
            line.split_once('\t').ok_or_else(|| at("expected `<workload>\\t<json>`".into()))?;
        let doc = Json::parse(json).map_err(at)?;
        if !matches!(doc.get("correct"), Some(Json::Bool(true))) {
            return Err(at("the run was not correct; an A/B result needs clean runs".into()));
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(at("no `metrics` object".into()));
        };
        let slot = match samples.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                samples.push((workload.to_string(), Vec::new()));
                samples.len() - 1
            }
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(format!("metric `{name}` has no value")))?;
            let per_metric = &mut samples[slot].1;
            match per_metric.iter_mut().find(|(k, _)| k == name) {
                Some((_, v)) => v.push(value),
                None => per_metric.push((name.clone(), vec![value])),
            }
        }
    }
    Ok(samples)
}

/// Print the table of verdicts; `Err` if the files cannot be compared.
pub fn main(parent_path: &str, change_path: &str) -> Result<(), String> {
    let (parent, change) = (read_samples(parent_path)?, read_samples(change_path)?);
    let mut table = Table::new([
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "pairs won",
        "verdict",
    ]);
    let show = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
    for (workload, per_metric) in &parent {
        let other = change
            .iter()
            .find(|(w, _)| w == workload)
            .ok_or_else(|| format!("{change_path} has no runs of `{workload}`"))?;
        for m in END_TO_END {
            let find = |side: &[(String, Vec<f64>)]| {
                side.iter().find(|(k, _)| k == m.name).map(|(_, v)| v.clone())
            };
            let (Some(p), Some(c)) = (find(per_metric), find(&other.1)) else {
                return Err(format!("`{workload}` lacks metric `{}` on one side", m.name));
            };
            let cmp = judge(&p, &c, m.better, m.bound)
                .ok_or_else(|| format!("`{workload}` has no pairs"))?;
            table.row([
                workload.clone(),
                format!("{} ({}, {} is better)", m.name, m.unit, m.better.name()),
                show(&cmp.parent),
                show(&cmp.change),
                format!("{}/{} (lost {})", cmp.pairs_won, cmp.pairs, cmp.pairs_lost),
                cmp.verdict.name().to_string(),
            ]);
        }
    }
    table.print();
    if parent.iter().any(|(_, per_metric)| per_metric.iter().any(|(_, v)| v.len() < 10)) {
        println!("fewer than 10 pairs: these verdicts are a smoke test, not a result");
    }
    println!(
        "improved = change won >= 9/10 of >= 10 pairs and the medians differ by more than the \
         parent's interquartile range; regressed = median worse than the parent's by more than \
         the metric's bound; unresolved = within the bound, but one side's spread is wider than it."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn a_clear_win_on_every_pair_is_an_improvement() {
        let c = judge(&around(2.0, 0.01), &around(1.8, 0.01), Better::Lower, 0.07).unwrap();
        assert_eq!((c.verdict, c.pairs_won, c.pairs), (Verdict::Improved, 10, 10));
        // The same numbers are a regression when higher is better.
        let c = judge(&around(2.0, 0.01), &around(1.8, 0.01), Better::Higher, 0.07).unwrap();
        assert_eq!((c.verdict, c.pairs_lost), (Verdict::Regressed, 10));
    }

    #[test]
    fn a_gap_inside_the_parents_own_spread_is_no_gain() {
        // Change wins every pair by a hair; parent IQR is far larger.
        let parent = around(2.0, 0.01);
        let change: Vec<f64> = parent.iter().map(|v| v - 0.001).collect();
        let c = judge(&parent, &change, Better::Lower, 0.07).unwrap();
        assert_eq!((c.verdict, c.pairs_won), (Verdict::Unchanged, 10));
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let c = judge(&[2.0; 5], &[1.0; 5], Better::Lower, 0.07).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let c = judge(&around(2.0, 0.1), &around(2.02, 0.1), Better::Lower, 0.07).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        let c = judge(&around(2.0, 0.001), &around(2.02, 0.001), Better::Lower, 0.07).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
        let c = judge(&around(2.0, 0.001), &around(2.2, 0.001), Better::Lower, 0.07).unwrap();
        assert_eq!(c.verdict, Verdict::Regressed);
    }

    #[test]
    fn result_files_are_read_per_workload_and_metric() {
        let line = |w: &str, v: f64| {
            format!(
                "{w}\t{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                 {{\"wall_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let s = parse_samples("p", &(line("a", 1.0) + &line("b", 5.0) + &line("a", 2.0))).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], ("a".to_string(), vec![("wall_s".to_string(), vec![1.0, 2.0])]));
        let err = parse_samples("p", "a\t{\"correct\": false}\n").unwrap_err();
        assert!(err.contains("not correct"), "{err}");
        assert!(parse_samples("p", "no tab here\n").unwrap_err().starts_with("p:1:"));
    }
}
