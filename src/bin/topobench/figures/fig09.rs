//! Figure 9: decomposing throughput into `T = C·U / (⟨D⟩·AS)` across
//! three of the earlier sweeps. Each metric is normalised to its value
//! at the sweep point of peak throughput, exactly as the paper plots.
//! The finding: utilization tracks throughput best — bottlenecks (not
//! path lengths) govern the losses.

use dctopo::core::ThroughputEngine;
use dctopo::flow::FlowError;
use dctopo::graph::GraphError;
use dctopo::topology::hetero::{heterogeneous, two_cluster, two_cluster_linespeed, CrossSpec};
use dctopo::topology::{ClusterSpec, ServerPlacement, Topology};
use dctopo::traffic::TrafficMatrix;
use rand::rngs::StdRng;

use super::fig06_07::ratio_grid;
use super::samples;
use super::{columns, header, row_keyed, server_splits, FigConfig};
use crate::args::{CliResult, OrFail};

/// Per-point means of (throughput, utilization, 1/⟨D⟩, 1/AS).
struct Point {
    x: f64,
    t: f64,
    u: f64,
    inv_d: f64,
    inv_as: f64,
}

fn measure<B>(cfg: &FigConfig, x: f64, build: B) -> Result<Point, FlowError>
where
    B: Fn(&mut StdRng) -> Result<Topology, GraphError> + Sync,
{
    let [t, u, inv_d, inv_as] = samples(cfg, |rng| {
        let topo = build(rng)?;
        let tm = TrafficMatrix::random_permutation(topo.server_count(), rng);
        let engine = ThroughputEngine::new(&topo);
        let res = engine.solve(&tm, &cfg.opts)?;
        let d = res
            .decomposition(engine.net())
            .expect("a connected network solve");
        Ok([
            res.throughput,
            d.utilization,
            1.0 / d.aspl,
            1.0 / d.stretch.max(1e-9),
        ])
    })?;
    Ok(Point {
        x,
        t: t.mean,
        u: u.mean,
        inv_d: inv_d.mean,
        inv_as: inv_as.mean,
    })
}

fn print_normalized(label: &str, points: &[Point]) {
    let peak = points
        .iter()
        .max_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty sweep");
    let (pt, pu, pd, pa) = (peak.t, peak.u, peak.inv_d, peak.inv_as);
    for p in points {
        row_keyed(
            label,
            &[p.x, p.t / pt, p.u / pu, p.inv_d / pd, p.inv_as / pa],
        );
    }
}

/// Fig. 9(a)–(c).
pub fn run(cfg: &FigConfig) -> CliResult {
    header("Fig 9: throughput decomposition, all metrics normalized at the peak-T point");
    columns(&[
        "panel",
        "x",
        "throughput",
        "utilization",
        "inv_aspl",
        "inv_stretch",
    ]);

    // (a) = Fig 4(c) '480 servers': server split sweep
    let mut pts = Vec::new();
    let prop = super::proportional_servers_large(480, 20, 30, 30, 20);
    for (s_l, s_s) in server_splits(480, 20, 30, 30, 20) {
        let p = measure(cfg, s_l as f64 / prop, |rng| {
            heterogeneous(
                &[(20, 30), (30, 20)],
                480,
                &ServerPlacement::PerClass(vec![s_l, s_s]),
                rng,
            )
        })
        .or_fail("fig9a")?;
        pts.push(p);
    }
    print_normalized("a:servers", &pts);

    // (b) = Fig 6(c) '480 servers': cross-connectivity sweep
    let large = ClusterSpec {
        count: 20,
        ports: 30,
        servers_per_switch: 12,
    };
    let small = ClusterSpec {
        count: 30,
        ports: 20,
        servers_per_switch: 8,
    };
    let mut pts = Vec::new();
    for ratio in ratio_grid(large, small, cfg.full) {
        let p = measure(cfg, ratio, |rng| {
            two_cluster(large, small, CrossSpec::Ratio(ratio), rng)
        })
        .or_fail("fig9b")?;
        pts.push(p);
    }
    print_normalized("b:cross", &pts);

    // (c) = Fig 8(c) '3 H-links': line-speed cross sweep
    let large = ClusterSpec {
        count: 20,
        ports: 40,
        servers_per_switch: 34,
    };
    let small = ClusterSpec {
        count: 20,
        ports: 15,
        servers_per_switch: 9,
    };
    let mut pts = Vec::new();
    for ratio in ratio_grid(large, small, cfg.full) {
        let p = measure(cfg, ratio, |rng| {
            two_cluster_linespeed(large, small, CrossSpec::Ratio(ratio), 3, 4.0, rng)
        })
        .or_fail("fig9c")?;
        pts.push(p);
    }
    print_normalized("c:linespeed", &pts);
    Ok(())
}
