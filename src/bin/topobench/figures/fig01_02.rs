//! Figures 1 and 2: random regular graphs versus the bounds.
//!
//! * Fig. 1 — fixed `N = 40` switches, sweeping network degree `r`:
//!   (a) throughput as a ratio of the Theorem-1 upper bound for
//!   all-to-all and permutation (5 and 10 servers/switch) traffic;
//!   (b) observed ASPL versus the Cerf et al. lower bound.
//! * Fig. 2 — fixed degree `r = 10`, sweeping network size `N`.
//!
//! The paper's observation: both ratios approach 1, i.e. random graphs
//! are near-optimal (within a few percent at a few thousand servers).

use dctopo::bounds::{aspl_lower_bound, throughput_upper_bound};
use dctopo::core::{TopologyPoint, TrafficModel};
use dctopo::graph::paths::path_stats;
use dctopo::topology::Topology;

use super::{columns, header, row, FigConfig};
use super::{curve, samples};
use crate::args::{CliResult, OrFail};

/// Mean network λ over the Theorem-1 bound for `RRG(n, r + spw, r)`
/// under `traffic`, one value per `(n, r)` in `sizes`. Theorem 1 bounds
/// the *network* concurrent flow — the paper's model here has no server
/// NICs — so the ratio uses the uncapped λ.
fn ratio_curve(
    cfg: &FigConfig,
    sizes: &[(usize, usize)],
    spw: usize,
    traffic: TrafficModel,
) -> CliResult<Vec<f64>> {
    let points = sizes
        .iter()
        .map(|&(n, r)| TopologyPoint::rrg(n, r + spw, r))
        .collect();
    let flows = |n: usize| traffic.pair_count(n * spw) as usize;
    let lambda = curve(cfg, points, traffic.clone(), |m| m.network_lambda)?;
    Ok((lambda.iter().zip(sizes))
        .map(|(lambda, &(n, r))| lambda.mean / throughput_upper_bound(n, r, flows(n)))
        .collect())
}

/// The rows both figures print, one per `(n, r)` in `sizes` (ascending
/// in `n`), keyed by `x`. All-to-all runs with one server per switch and
/// only at `n ≤ 40`: its flow count grows as `n²`.
fn rows(cfg: &FigConfig, sizes: &[(usize, usize)], x: fn((usize, usize)) -> usize) -> CliResult {
    let small = sizes.iter().take_while(|&&(n, _)| n <= 40).count();
    let a2a = ratio_curve(cfg, &sizes[..small], 1, TrafficModel::AllToAll)?;
    let p10 = ratio_curve(cfg, sizes, 10, TrafficModel::Permutation)?;
    let p5 = ratio_curve(cfg, sizes, 5, TrafficModel::Permutation)?;
    for (i, &(n, r)) in sizes.iter().enumerate() {
        let [aspl] = samples(cfg, |rng| {
            let topo = Topology::random_regular(n, r + 1, r, rng)?;
            Ok([path_stats(&topo.graph)?.aspl])
        })
        .or_fail("aspl")?;
        let bound = aspl_lower_bound(n, r).expect("bound");
        let a2a = a2a.get(i).copied().unwrap_or(f64::NAN);
        row(&[x((n, r)) as f64, a2a, p10[i], p5[i], aspl.mean, bound]);
    }
    Ok(())
}

/// Fig. 1: N = 40, degree sweep.
pub fn run_fig1(cfg: &FigConfig) -> CliResult {
    let degrees: Vec<usize> = if cfg.full {
        (3..=33).step_by(2).collect()
    } else {
        vec![3, 5, 7, 9, 11, 13, 17, 21, 25, 29, 33]
    };
    header("Fig 1(a): throughput / Theorem-1 bound, N=40, degree sweep");
    header("Fig 1(b): ASPL vs Cerf lower bound");
    columns(&[
        "degree",
        "a2a_ratio",
        "perm10_ratio",
        "perm5_ratio",
        "aspl_observed",
        "aspl_bound",
    ]);
    let sizes: Vec<(usize, usize)> = degrees.iter().map(|&r| (40, r)).collect();
    rows(cfg, &sizes, |(_, r)| r)
}

/// Fig. 2: degree 10, size sweep.
pub fn run_fig2(cfg: &FigConfig) -> CliResult {
    let sizes: &[usize] = if cfg.full {
        &[15, 20, 30, 40, 60, 80, 100, 120, 140, 160, 180, 200]
    } else {
        &[15, 20, 30, 40, 60, 80, 120, 160, 200]
    };
    header("Fig 2(a): throughput / Theorem-1 bound, degree 10, size sweep");
    header("Fig 2(b): ASPL vs Cerf lower bound");
    header("a2a runs only at N <= 40 (flow count grows as N^2), as in the paper");
    columns(&[
        "size",
        "a2a_ratio",
        "perm10_ratio",
        "perm5_ratio",
        "aspl_observed",
        "aspl_bound",
    ]);
    let sizes: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, 10)).collect();
    rows(cfg, &sizes, |(n, _)| n)
}
