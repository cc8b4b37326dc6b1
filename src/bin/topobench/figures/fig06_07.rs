//! Figures 6 and 7: interconnecting the two switch clusters.
//!
//! * Fig. 6 — proportional server placement fixed; sweep the volume of
//!   cross-cluster connectivity. The paper's finding: throughput is
//!   stable at its peak across a wide range, collapsing only when the
//!   cut becomes the bottleneck.
//! * Fig. 7 — the joint sweep (server split × cross links): multiple
//!   optima exist, but proportional placement + vanilla random
//!   interconnect is among them.

use dctopo::core::{TopologyPoint, TrafficModel};
use dctopo::topology::hetero::{two_cluster, CrossSpec};
use dctopo::topology::{expected_cross_links, ClusterSpec};

use super::curve;
use super::{columns, header, row_keyed, FigConfig};
use crate::args::CliResult;

/// The standard cross-ratio grid, clamped to what the port budgets allow.
pub(crate) fn ratio_grid(large: ClusterSpec, small: ClusterSpec, dense: bool) -> Vec<f64> {
    let l = large.total_network_ports().expect("ports");
    let s = small.total_network_ports().expect("ports");
    let expected = expected_cross_links(l, s);
    let max_ratio = l.min(s) as f64 / expected;
    let step = if dense { 0.1 } else { 0.2 };
    let mut grid: Vec<f64> = std::iter::successors(Some(0.1), |x| Some(x + step))
        .take_while(|&x| x < max_ratio * 0.999)
        .collect();
    grid.push(max_ratio * 0.999); // include the feasibility edge
    grid
}

/// One Fig. 6 curve: cross-connectivity sweep at a fixed server split.
fn sweep_cross_curve(
    cfg: &FigConfig,
    label: &str,
    large: ClusterSpec,
    small: ClusterSpec,
) -> CliResult {
    let ratios = ratio_grid(large, small, cfg.full);
    let points = ratios
        .iter()
        .map(|&ratio| {
            TopologyPoint::new(format!("{label}:x{ratio}"), move |rng| {
                two_cluster(large, small, CrossSpec::Ratio(ratio), rng)
            })
        })
        .collect();
    let throughput = curve(cfg, points, TrafficModel::Permutation, |m| m.throughput)?;
    for (ratio, stats) in ratios.into_iter().zip(throughput) {
        row_keyed(label, &[ratio, stats.mean, stats.std]);
    }
    Ok(())
}

/// Fig. 6(a)–(c).
pub fn run_fig6(cfg: &FigConfig) -> CliResult {
    header("Fig 6: cross-cluster connectivity sweeps, proportional servers");
    header("x = cross links / expected under vanilla random wiring");
    columns(&["curve", "x_ratio", "throughput", "std"]);
    let spec = |count, ports, servers| ClusterSpec {
        count,
        ports,
        servers_per_switch: servers,
    };
    // (a) port ratios (servers proportional to ports)
    sweep_cross_curve(cfg, "a:3to1", spec(20, 30, 15), spec(40, 10, 5))?;
    sweep_cross_curve(cfg, "a:2to1", spec(20, 30, 12), spec(40, 15, 6))?;
    sweep_cross_curve(cfg, "a:3to2", spec(20, 30, 9), spec(40, 20, 6))?;
    // (b) small-switch counts
    sweep_cross_curve(cfg, "b:20small", spec(20, 30, 9), spec(20, 20, 6))?;
    sweep_cross_curve(cfg, "b:30small", spec(20, 30, 9), spec(30, 20, 6))?;
    sweep_cross_curve(cfg, "b:40small", spec(20, 30, 9), spec(40, 20, 6))?;
    // (c) oversubscription (same switches, more servers)
    sweep_cross_curve(cfg, "c:360srv", spec(20, 30, 9), spec(30, 20, 6))?;
    sweep_cross_curve(cfg, "c:480srv", spec(20, 30, 12), spec(30, 20, 8))?;
    sweep_cross_curve(cfg, "c:600srv", spec(20, 30, 15), spec(30, 20, 10))?;
    Ok(())
}

/// Fig. 7(a), (b): joint server-split × cross-connectivity sweeps.
pub fn run_fig7(cfg: &FigConfig) -> CliResult {
    header("Fig 7: joint sweep of server split and cross-cluster links");
    header("curve labels: <servers per large switch>H,<servers per small switch>L");
    columns(&["curve", "x_ratio", "throughput", "std"]);
    // (a) 20 large (30p), 40 small (10p), 400 servers total
    for &(h, l) in &[(16usize, 2usize), (14, 3), (12, 4), (10, 5), (8, 6)] {
        let large = ClusterSpec {
            count: 20,
            ports: 30,
            servers_per_switch: h,
        };
        let small = ClusterSpec {
            count: 40,
            ports: 10,
            servers_per_switch: l,
        };
        sweep_cross_curve(cfg, &format!("a:{h}H,{l}L"), large, small)?;
    }
    // (b) 20 large (30p), 40 small (20p), 560 servers total
    for &(h, l) in &[(22usize, 3usize), (18, 5), (14, 7), (10, 9), (6, 11)] {
        let large = ClusterSpec {
            count: 20,
            ports: 30,
            servers_per_switch: h,
        };
        let small = ClusterSpec {
            count: 40,
            ports: 20,
            servers_per_switch: l,
        };
        sweep_cross_curve(cfg, &format!("b:{h}H,{l}L"), large, small)?;
    }
    Ok(())
}
