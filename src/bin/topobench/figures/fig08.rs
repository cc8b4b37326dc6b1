//! Figure 8: heterogeneous line-speeds (§5.2).
//!
//! Large switches carry extra high line-speed trunks that connect only
//! among themselves. (a) sweeps server splits × cross connectivity —
//! multiple configurations tie; (b) sweeps the trunk line-speed;
//! (c) sweeps the trunk count. Higher trunk capacity helps, but its
//! impact vanishes when cross-cluster connectivity is the bottleneck.

use dctopo::core::{TopologyPoint, TrafficModel};
use dctopo::topology::hetero::{two_cluster_linespeed, CrossSpec};
use dctopo::topology::ClusterSpec;

use super::curve;
use super::fig06_07::ratio_grid;
use super::{columns, header, row_keyed, FigConfig};
use crate::args::CliResult;

fn sweep(
    cfg: &FigConfig,
    label: &str,
    large: ClusterSpec,
    small: ClusterSpec,
    high_links: usize,
    high_speed: f64,
) -> CliResult {
    let ratios = ratio_grid(large, small, cfg.full);
    let points = ratios
        .iter()
        .map(|&ratio| {
            TopologyPoint::new(format!("{label}:x{ratio}"), move |rng| {
                let cross = CrossSpec::Ratio(ratio);
                two_cluster_linespeed(large, small, cross, high_links, high_speed, rng)
            })
        })
        .collect();
    let throughput = curve(cfg, points, TrafficModel::Permutation, |m| m.throughput)?;
    for (ratio, stats) in ratios.into_iter().zip(throughput) {
        row_keyed(label, &[ratio, stats.mean, stats.std]);
    }
    Ok(())
}

/// Fig. 8(a)–(c).
pub fn run(cfg: &FigConfig) -> CliResult {
    header("Fig 8: heterogeneous line-speeds — 20 large (40 low ports), 20 small (15 low ports)");
    header("large switches carry extra high-speed trunks (paired among large switches only)");
    columns(&["curve", "x_ratio", "throughput", "std"]);
    let large = |servers| ClusterSpec {
        count: 20,
        ports: 40,
        servers_per_switch: servers,
    };
    let small = |servers| ClusterSpec {
        count: 20,
        ports: 15,
        servers_per_switch: servers,
    };
    // (a) server splits, 3 trunks at 10x (total servers fixed at 860)
    for &(h, l) in &[(36usize, 7usize), (35, 8), (34, 9), (33, 10), (32, 11)] {
        sweep(cfg, &format!("a:{h}H,{l}L"), large(h), small(l), 3, 10.0)?;
    }
    // (b) trunk speed sweep at 6 trunks, servers fixed (34, 9)
    for &speed in &[2.0, 4.0, 8.0] {
        sweep(
            cfg,
            &format!("b:speed{speed}"),
            large(34),
            small(9),
            6,
            speed,
        )?;
    }
    // (c) trunk count sweep at speed 4, servers fixed (34, 9)
    for &links in &[3usize, 6, 9] {
        sweep(
            cfg,
            &format!("c:{links}links"),
            large(34),
            small(9),
            links,
            4.0,
        )?;
    }
    Ok(())
}
