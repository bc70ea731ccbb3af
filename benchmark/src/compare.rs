//! `compare A.json B.json`: judge results file B against A by each
//! metric's own bound.
//!
//! One row per (workload, end-to-end metric), following the
//! choosing-metrics guide: *regression* when B's median is worse than
//! A's by more than the bound; *unresolved* when the run-to-run spread
//! on either side is wider than the bound (unless every run of B beats
//! every run of A); *better* when B's median is better by more than A's
//! own interquartile range; *within bound* otherwise. Exact per-layer
//! metrics (simulated statistics, program-made counts) are compared per
//! seed and must not move at all: any difference is *drift*.

use crate::report::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::NAMES;
use dramctrl_serve::wire::Value;
use std::collections::BTreeMap;

/// `(workload, traced, metric) -> [(seed, value)]`.
type Samples = BTreeMap<(String, bool, String), Vec<(u64, f64)>>;

/// Verdict for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Regression,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges runs `b` of a change against runs `a` of its parent.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if better.worsening(ma, mb) > bound {
        return Verdict::Regression;
    }
    let wins = |x: f64, y: f64| better.worsening(y, x) < 0.0; // x better than y
    let noisy = [a, b]
        .iter()
        .any(|s| spread(s).is_some_and(|sp| sp > bound));
    if noisy {
        let clean_sweep = b.iter().all(|&x| a.iter().all(|&y| wins(x, y)));
        return if clean_sweep {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let iqr = quartiles(a).map_or(0.0, |(q1, _, q3)| q3 - q1);
    if wins(mb, ma) && (mb - ma).abs() > iqr {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut samples = Samples::new();
    for run in runs {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}: run without \"{k}\""))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let seed = field("seed")?.as_u64().unwrap_or(0);
        let traced = field("trace")?.as_u64() == Some(1);
        let result = field("result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "{path}: {workload} seed {seed} is not a correct run; fix that before comparing"
            ));
        }
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{path}: {workload} seed {seed} has no metrics"));
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {workload}.{name} has no numeric value"))?;
            samples
                .entry((workload.clone(), traced, name.clone()))
                .or_default()
                .push((seed, v));
        }
    }
    Ok(samples)
}

/// Prints the comparison; `Ok(true)` when nothing regressed or drifted.
///
/// # Errors
/// Unreadable or malformed results files.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound"
    );
    for workload in NAMES {
        for m in END_TO_END {
            let key = (workload.to_owned(), false, m.name.to_owned());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let va: Vec<f64> = sa.iter().map(|&(_, v)| v).collect();
            let vb: Vec<f64> = sb.iter().map(|&(_, v)| v).collect();
            let verdict = judge(m.better, m.bound, &va, &vb);
            clean &= verdict != Verdict::Regression;
            let pct =
                |s: &[f64]| spread(s).map_or("-".to_owned(), |x| format!("{:.1}%", x * 100.0));
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>+7.1}% {:>7} {:>7} {:>5.0}%  {} (n={}/{})",
                workload,
                m.name,
                median(&va),
                median(&vb),
                -m.better.worsening(median(&va), median(&vb)) * 100.0,
                pct(&va),
                pct(&vb),
                m.bound * 100.0,
                verdict.as_str(),
                va.len(),
                vb.len()
            );
        }
    }
    // Per-layer metrics have no bound: the host-time ones are listed so
    // that a saving can be located, the exact ones must not move.
    println!("\nper-layer medians (traced runs; layers a workload does not exercise are omitted):");
    let mut compared = 0;
    for workload in NAMES {
        for m in PER_LAYER {
            let key = (workload.to_owned(), true, m.name.to_owned());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            if !m.exact {
                let va: Vec<f64> = sa.iter().map(|&(_, v)| v).collect();
                let vb: Vec<f64> = sb.iter().map(|&(_, v)| v).collect();
                let (ma, mb) = (median(&va), median(&vb));
                if ma != 0.0 || mb != 0.0 {
                    println!(
                        "{workload:<14} {:<28} {ma:>16.6} {mb:>16.6} {:>+7.1}% {}",
                        m.name,
                        -m.better.worsening(ma, mb) * 100.0,
                        m.unit
                    );
                }
                continue;
            }
            for &(seed, va) in sa {
                for &(_, vb) in sb.iter().filter(|(s, _)| *s == seed) {
                    compared += 1;
                    if va.to_bits() != vb.to_bits() {
                        clean = false;
                        println!(
                            "{workload:<14} {:<28} seed {seed}: {va} -> {vb}  DRIFT",
                            m.name
                        );
                    }
                }
            }
        }
    }
    println!("exact per-layer metrics compared on matching seeds: {compared}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    fn around(centre: f64, step: f64) -> Vec<f64> {
        (-4..=5).map(|i| centre + f64::from(i) * step).collect()
    }

    #[test]
    fn verdicts() {
        let a = around(100.0, 0.2);
        // Worse by more than the bound, in the metric's own direction.
        assert_eq!(
            judge(Higher, 0.10, &a, &around(85.0, 0.2)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Lower, 0.10, &a, &around(115.0, 0.2)),
            Verdict::Regression
        );
        assert_eq!(judge(Lower, 0.10, &a, &around(85.0, 0.2)), Verdict::Better);
        // Inside the bound and inside A's own spread: nothing to claim.
        assert_eq!(
            judge(Higher, 0.10, &a, &around(100.3, 0.2)),
            Verdict::Within
        );
        assert_eq!(judge(Higher, 0.10, &a, &around(96.0, 0.2)), Verdict::Within);
        // A spread wider than the bound resolves nothing...
        let noisy = around(100.0, 4.0);
        assert_eq!(
            judge(Higher, 0.10, &noisy, &around(104.0, 4.0)),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(Higher, 0.10, &noisy, &around(150.0, 4.0)),
            Verdict::Better
        );
        // A regression is a regression however noisy.
        assert_eq!(
            judge(Higher, 0.10, &noisy, &around(80.0, 4.0)),
            Verdict::Regression
        );
    }
}
