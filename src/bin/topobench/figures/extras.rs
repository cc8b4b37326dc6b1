//! Ablations beyond the paper's figures, backing claims its text makes:
//!
//! * `extra-hypercube` — "random graphs have roughly 30% higher
//!   throughput than hypercubes at the scale of 512 nodes" (§1).
//! * `extra-fattree` — Jellyfish's "roughly 25% greater throughput than
//!   a fat-tree built with the same switch equipment" (§2).
//! * `extra-bisection` — "bisection bandwidth is not a good measure of
//!   performance" (§6): the cut shrinks long before throughput drops.

use dctopo::core::{solve_throughput, TopologyPoint, TrafficModel};
use dctopo::graph::components::cut_capacity;
use dctopo::topology::classic::fat_tree;
use dctopo::topology::hetero::{heterogeneous_fleet, two_cluster, CrossSpec};
use dctopo::topology::{ClusterSpec, ServerPlacement};
use dctopo::traffic::TrafficMatrix;

use super::fig06_07::ratio_grid;
use super::{columns, header, row, FigConfig};
use super::{curve, samples};
use crate::args::{CliResult, OrFail};

/// Hypercube vs RRG with identical equipment: compare the *network*
/// concurrent-flow value λ (the NIC cap would saturate both at 1 on
/// these lightly loaded configurations and hide the difference).
pub fn run_hypercube(cfg: &FigConfig) -> CliResult {
    header("Extra: hypercube vs RRG with the same equipment (permutation traffic)");
    header("paper §1: RRG ~30% higher throughput at 512 nodes, growing with scale");
    columns(&[
        "dim",
        "nodes",
        "hypercube_lambda",
        "rrg_lambda",
        "rrg/hypercube",
    ]);
    let dims: Vec<usize> = if cfg.full {
        vec![5, 6, 7, 8, 9]
    } else {
        vec![5, 6, 7]
    };
    let spw = 1usize; // one server per switch
    let points = dims
        .iter()
        .flat_map(|&dim| {
            let cube = format!("hypercube:{dim}x{spw}");
            [
                cube.parse::<TopologyPoint>().expect("family spec"),
                TopologyPoint::rrg(1 << dim, dim + spw, dim),
            ]
        })
        .collect();
    let lambda = curve(cfg, points, TrafficModel::Permutation, |m| m.network_lambda)?;
    for (&dim, pair) in dims.iter().zip(lambda.chunks(2)) {
        let (cube, rrg) = (pair[0].mean, pair[1].mean);
        row(&[dim as f64, (1usize << dim) as f64, cube, rrg, rrg / cube]);
    }
    Ok(())
}

/// Fat-tree vs random graph: same switches (count and ports), same
/// number of servers (placed proportionally on the random graph), same
/// permutation workload — compare the network λ each fabric sustains.
pub fn run_fattree(cfg: &FigConfig) -> CliResult {
    header("Extra: fat-tree vs random graph, same switch equipment and servers");
    header("paper §2 (Jellyfish): ~25% higher throughput for the random graph");
    columns(&[
        "k",
        "switches",
        "servers",
        "fattree_lambda",
        "rrg_lambda",
        "rrg/fattree",
    ]);
    let ks: Vec<usize> = if cfg.full {
        vec![4, 6, 8, 10]
    } else {
        vec![4, 6, 8]
    };
    // same fleet: as many k-port switches and as many servers as the
    // fat-tree, servers spread proportionally (= as evenly as integers
    // allow), every remaining port wired uniformly at random
    let fleets: Vec<(usize, usize, usize)> = ks
        .iter()
        .map(|&k| {
            let ft = fat_tree(k).expect("fat tree");
            (k, ft.switch_count(), ft.server_count())
        })
        .collect();
    let points = fleets
        .iter()
        .flat_map(|&(k, n_switches, servers)| {
            let random = TopologyPoint::new(format!("random-fleet:{k}"), move |rng| {
                heterogeneous_fleet(
                    &vec![k; n_switches],
                    vec![0; n_switches],
                    vec!["switch".into()],
                    servers,
                    &ServerPlacement::Proportional,
                    rng,
                )
            });
            let ft = format!("fat-tree:{k}");
            [ft.parse::<TopologyPoint>().expect("family spec"), random]
        })
        .collect();
    let lambda = curve(cfg, points, TrafficModel::Permutation, |m| m.network_lambda)?;
    for (&(k, n_switches, servers), pair) in fleets.iter().zip(lambda.chunks(2)) {
        let (ft, rrg) = (pair[0].mean, pair[1].mean);
        row(&[
            k as f64,
            n_switches as f64,
            servers as f64,
            ft,
            rrg,
            rrg / ft,
        ]);
    }
    Ok(())
}

/// Bisection bandwidth vs throughput across the cross-cluster sweep.
pub fn run_bisection(cfg: &FigConfig) -> CliResult {
    header("Extra: cut capacity falls long before throughput does (§6)");
    columns(&["x_ratio", "throughput_norm", "cut_norm"]);
    let large = ClusterSpec {
        count: 20,
        ports: 20,
        servers_per_switch: 8,
    };
    let small = ClusterSpec {
        count: 20,
        ports: 20,
        servers_per_switch: 8,
    };
    let grid = ratio_grid(large, small, cfg.full);
    let mut series = Vec::new();
    for &ratio in &grid {
        let [t, cut] = samples(cfg, |rng| {
            let topo = two_cluster(large, small, CrossSpec::Ratio(ratio), rng)?;
            let in_large: Vec<bool> = (0..40).map(|v| v < 20).collect();
            let cut = cut_capacity(&topo.graph, &in_large);
            let tm = TrafficMatrix::random_permutation(topo.server_count(), rng);
            Ok([solve_throughput(&topo, &tm, &cfg.opts)?.throughput, cut])
        })
        .or_fail("bisection sample")?;
        series.push((ratio, t.mean, cut.mean));
    }
    let t_max = series.iter().map(|&(_, t, _)| t).fold(0.0f64, f64::max);
    let c_max = series.iter().map(|&(_, _, c)| c).fold(0.0f64, f64::max);
    for (ratio, t, c) in series {
        row(&[ratio, t / t_max, c / c_max]);
    }
    Ok(())
}
