//! `bench compare OLD.json NEW.json`: per workload and end-to-end metric,
//! whether NEW is better, worse, within the bound, or unresolved against
//! OLD. Both files are results this benchmark wrote (`--aa` or a plain
//! run); every ratio is printed with its base.

use crate::json::Json;
use crate::stats::{median_f, spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges NEW against OLD. A change beyond the bound counts when the
/// runs are steadier than the bound, or — when they are not — only if
/// every run of one side reads better than every run of the other.
pub fn judge(old: &[f64], new: &[f64], bound: f64, lower_is_better: bool) -> (Verdict, f64) {
    let (mo, mn) = (median_f(old), median_f(new));
    // Positive = NEW is worse, as a share of OLD's median.
    let worse_by = if mo == 0.0 {
        0.0
    } else if lower_is_better {
        (mn - mo) / mo.abs()
    } else {
        (mo - mn) / mo.abs()
    };
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let ((olo, ohi), (nlo, nhi)) = (range(old), range(new));
    let overlap = olo <= nhi && nlo <= ohi;
    let noisy = spread(old).max(spread(new)) > bound;
    let verdict = if noisy && overlap {
        if worse_by.abs() > bound {
            Verdict::Unresolved
        } else {
            Verdict::Within
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .map(|v| v.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the table; `Ok(true)` when any pairing is worse.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    let workloads = old.get("workloads").ok_or("OLD has no workloads")?;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "new/old", "bound"
    );
    let mut any_worse = false;
    for (workload, entry) in workloads.as_obj() {
        let new_entry = new.get("workloads").and_then(|w| w.get(workload));
        for (name, old_metric) in entry.get("end_to_end").map(Json::as_obj).unwrap_or(&[]) {
            let new_metric = new_entry
                .and_then(|e| e.get("end_to_end"))
                .and_then(|m| m.get(name));
            let Some(new_metric) = new_metric else {
                println!("{workload:<16} {name:<14} missing from NEW");
                any_worse = true;
                continue;
            };
            let (ov, nv) = (values(old_metric), values(new_metric));
            if ov.is_empty() || nv.is_empty() {
                return Err(format!("{workload}/{name}: no values"));
            }
            let bound = old_metric
                .get("bound")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let lower = old_metric.get("better").and_then(Json::as_str) != Some("higher");
            let (verdict, _) = judge(&ov, &nv, bound, lower);
            any_worse |= verdict == Verdict::Worse;
            let (mo, mn) = (median_f(&ov), median_f(&nv));
            println!(
                "{workload:<16} {name:<14} {mo:>14.4} {mn:>14.4} {:>9.4} {:>6.0}%  {}",
                mn / mo,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady_old = [100.0, 101.0, 99.0, 100.0, 100.5];
        // 20 % slower, steady: worse. 20 % faster: better. 2 %: within.
        let slower: Vec<f64> = steady_old.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = steady_old.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = steady_old.iter().map(|x| x * 1.02).collect();
        assert_eq!(judge(&steady_old, &slower, 0.05, true).0, Verdict::Worse);
        assert_eq!(judge(&steady_old, &faster, 0.05, true).0, Verdict::Better);
        assert_eq!(judge(&steady_old, &same, 0.05, true).0, Verdict::Within);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(&steady_old, &slower, 0.05, false).0, Verdict::Better);
        assert_eq!(judge(&steady_old, &faster, 0.05, false).0, Verdict::Worse);
        // Spread wider than the bound and overlapping ranges: unresolved.
        let noisy_old = [100.0, 130.0, 90.0, 120.0, 80.0];
        let noisy_new = [125.0, 140.0, 95.0, 135.0, 118.0];
        assert_eq!(
            judge(&noisy_old, &noisy_new, 0.05, true).0,
            Verdict::Unresolved
        );
        // Noisy, but every new run beats every old run: resolved.
        let all_better = [60.0, 70.0, 65.0, 75.0, 62.0];
        assert_eq!(
            judge(&noisy_old, &all_better, 0.05, true).0,
            Verdict::Better
        );
        let (_, by) = judge(&[100.0], &[110.0], 0.05, true);
        assert!((by - 0.1).abs() < 1e-12);
    }
}
