//! `dcbench compare`: two sets of results files, one row per workload
//! and end-to-end metric, judged against the bounds in `BENCHMARK.json`.

use dctopo_obs::json::Json;

use crate::stats::{median, quartile_spread};

/// What a row concludes about set B against set A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound, and the runs can tell.
    Regressed,
    /// The run-to-run spread exceeds the bound and the two sets
    /// interleave: neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Share of A's median by which B's median is worse (negative when
    /// B is better).
    pub worsening: f64,
    /// The wider of the two sets' interquartile spreads, as a share of
    /// the set's median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge the runs `b` against the runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    // orient so that larger always reads worse
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worsening = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let oriented = |v: &[f64]| -> (f64, f64) {
        let lo = v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        let hi = v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (oriented(a), oriented(b));
    let verdict = if spread > bound {
        if b_hi < a_lo {
            Verdict::Ok // every run of B reads better than every run of A
        } else if b_lo > a_hi && worsening > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        worsening,
        spread,
        verdict,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of `workload`'s `metric` across the results files.
fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compare the results files `a` (comma-separated paths) with `b`,
/// print one row per workload × metric, and return how many rows read
/// `regressed` and `unresolved`.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<(usize, usize), String> {
    let read_all = |list: &str| list.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (a, b) = (read_all(a)?, read_all(b)?);
    let spec = load(benchmark)?;
    let list = |key: &str| -> Result<&[Json], String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{benchmark}: no `{key}` list"))
    };
    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in list("workloads")? {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        for metric in list("end_to_end")? {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<20} {name:<12} missing from one side");
                unresolved += 1;
                continue;
            }
            let row = judge(&va, &vb, higher, bound);
            match row.verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            println!(
                "{workload:<20} {name:<12} {:>12.6} {:>12.6} {:>+8.2}% {:>7.2}% {:>5.1}%  {}",
                row.median_a,
                row.median_b,
                row.worsening * 100.0,
                row.spread * 100.0,
                bound * 100.0,
                row.verdict.as_str()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 4 % worse on a 10 % bound
        let ok = judge(&a, &[1.04, 1.05, 1.03, 1.04, 1.05], false, 0.10);
        assert_eq!(ok.verdict, Verdict::Ok);
        assert!((ok.worsening - 0.04).abs() < 1e-9);
        // 15 % worse
        let bad = judge(&a, &[1.15, 1.16, 1.14, 1.15, 1.17], false, 0.10);
        assert_eq!(bad.verdict, Verdict::Regressed);
        // 15 % better never regresses
        let better = judge(&a, &[0.85, 0.86, 0.84, 0.85, 0.87], false, 0.10);
        assert_eq!(better.verdict, Verdict::Ok);
        assert!(better.worsening < 0.0);
    }

    #[test]
    fn direction_follows_the_metric() {
        // ok_share: higher is better, so a drop is the worsening
        let drop = judge(&[1.0, 1.0, 1.0], &[0.9, 0.9, 0.9], true, 0.001);
        assert_eq!(drop.verdict, Verdict::Regressed);
        assert!((drop.worsening - 0.1).abs() < 1e-12);
        let same = judge(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], true, 0.001);
        assert_eq!(same.verdict, Verdict::Ok);
        assert_eq!(same.spread, 0.0);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_not_unchanged() {
        // both sets scatter by ~40 % and overlap: nothing can be said,
        // whichever way the medians fall
        let a = [1.0, 1.4, 0.8, 1.2, 1.0];
        let close = judge(&a, &[1.05, 1.3, 0.9, 1.25, 1.0], false, 0.10);
        assert_eq!(close.verdict, Verdict::Unresolved);
        let worse = judge(&a, &[1.3, 1.7, 1.1, 1.35, 1.2], false, 0.10);
        assert!(worse.worsening > 0.10);
        assert_eq!(worse.verdict, Verdict::Unresolved);
    }

    #[test]
    fn wide_runs_that_do_not_interleave_are_decided() {
        let a = [1.0, 1.4, 0.8, 1.2, 1.0];
        // every run of B beats every run of A
        let better = judge(&a, &[0.5, 0.7, 0.4, 0.6, 0.5], false, 0.10);
        assert_eq!(better.verdict, Verdict::Ok);
        // every run of B is worse than every run of A, by far more than the bound
        let worse = judge(&a, &[2.0, 2.8, 1.6, 2.4, 2.0], false, 0.10);
        assert_eq!(worse.verdict, Verdict::Regressed);
    }

    #[test]
    fn single_runs_have_no_spread() {
        let row = judge(&[2.0], &[2.1], false, 0.10);
        assert_eq!(row.spread, 0.0);
        assert_eq!(row.verdict, Verdict::Ok);
        assert_eq!(
            judge(&[2.0], &[2.3], false, 0.10).verdict,
            Verdict::Regressed
        );
    }
}
