//! Figure 12: improving VL2 (§7).
//!
//! (a) servers supported at full throughput by the rewired topology,
//!     as a ratio over stock VL2, across aggregation/core degrees —
//!     the paper's headline "as much as 43% more servers".
//! (b) throughput of the rewired topology under x% chunky traffic.
//! (c) the support ratio when full throughput is required under
//!     all-to-all / permutation / 100% chunky traffic.

use dctopo::core::vl2::{permutation_tm, SupportSearch};
use dctopo::core::{TopologyPoint, TrafficModel};
use dctopo::topology::vl2::{rewired_vl2, vl2, Vl2Params};
use dctopo::topology::Topology;
use dctopo::traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::grid;
use super::{columns, header, row_keyed, FigConfig};
use crate::args::{CliResult, OrFail};

fn grids(cfg: &FigConfig) -> (Vec<usize>, Vec<usize>) {
    if cfg.full {
        ((6..=20).step_by(2).collect(), vec![16, 20, 24, 28])
    } else {
        (vec![6, 8, 10, 12], vec![16, 20])
    }
}

fn search_for(cfg: &FigConfig) -> SupportSearch {
    // Support decisions compare structured (stock) against random
    // (rewired) fabrics, so the solver gap must be small relative to the
    // effect size — always use the default profile here, whatever the
    // sweep profile is.
    let opts = dctopo::flow::FlowOptions::default();
    SupportSearch {
        opts,
        tol: opts.target_gap + 0.01,
        runs: cfg.effective_runs().min(3),
        base_seed: cfg.seed,
    }
}

/// Max ToRs supported at full throughput by stock VL2 and the rewired
/// variant, under the given traffic.
fn support_pair(
    cfg: &FigConfig,
    d_a: usize,
    d_i: usize,
    tm: &dyn Fn(&Topology, &mut StdRng) -> TrafficMatrix,
) -> CliResult<(usize, usize)> {
    let search = search_for(cfg);
    let full = d_a * d_i / 4;
    let stock_build = |tors: usize, _seed: u64| {
        vl2(Vl2Params {
            d_a,
            d_i,
            tors: Some(tors),
        })
    };
    let rewired_build = |tors: usize, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        rewired_vl2(
            Vl2Params {
                d_a,
                d_i,
                tors: Some(tors),
            },
            &mut rng,
        )
    };
    let stock = search
        .max_tors(full.div_ceil(4), full, &stock_build, tm)
        .or_fail("stock search")?
        .unwrap_or(0);
    let rewired = search
        .max_tors(full.div_ceil(4), full * 2, &rewired_build, tm)
        .or_fail("rewired search")?
        .unwrap_or(0);
    Ok((stock, rewired))
}

/// Fig. 12(a): permutation-traffic support ratio.
pub fn run_fig12a(cfg: &FigConfig) -> CliResult {
    header("Fig 12(a): ToRs (= servers) at full throughput, rewired / stock VL2");
    columns(&["curve", "d_a", "ratio", "stock_tors", "rewired_tors"]);
    let (das, dis) = grids(cfg);
    for &d_i in &dis {
        for &d_a in &das {
            let (stock, rewired) = support_pair(cfg, d_a, d_i, &permutation_tm)?;
            let ratio = if stock > 0 {
                rewired as f64 / stock as f64
            } else {
                f64::NAN
            };
            row_keyed(
                &format!("DI={d_i}"),
                &[d_a as f64, ratio, stock as f64, rewired as f64],
            );
        }
    }
    Ok(())
}

/// Fig. 12(b): chunky traffic on the rewired topology sized at its
/// permutation-supported ToR count. The traffic axis carries the chunky
/// percentages, so each seeded topology is flattened once for all three.
pub fn run_fig12b(cfg: &FigConfig) -> CliResult {
    header("Fig 12(b): throughput under x% chunky traffic (rewired VL2 at its");
    header("permutation-supported size)");
    columns(&["curve", "d_a", "throughput", "std"]);
    let (das, dis) = grids(cfg);
    let d_i = *dis.last().expect("non-empty");
    const PCTS: [f64; 3] = [20.0, 60.0, 100.0];
    let traffic = PCTS.map(|percent| TrafficModel::Chunky { percent });
    let mut sized = Vec::new();
    for &d_a in &das {
        let rewired_tors = support_pair(cfg, d_a, d_i, &permutation_tm)?.1;
        if rewired_tors > 0 {
            sized.push((d_a, rewired_tors));
        }
    }
    let points = sized
        .iter()
        .map(|&(d_a, tors)| {
            let spec = format!("vl2-rewired:{d_a}x{d_i}x{tors}");
            spec.parse::<TopologyPoint>().expect("family spec")
        })
        .collect();
    let stats = grid(cfg, points, &traffic, |m| m.throughput)?;
    for (&(d_a, _), per_traffic) in sized.iter().zip(&stats) {
        for (pct, s) in PCTS.iter().zip(per_traffic) {
            row_keyed(&format!("{pct:.0}%chunky"), &[d_a as f64, s.mean, s.std]);
        }
    }
    Ok(())
}

/// Fig. 12(c): support ratio under all-to-all / permutation / 100% chunky.
pub fn run_fig12c(cfg: &FigConfig) -> CliResult {
    header("Fig 12(c): support ratio when full throughput is required under");
    header("each traffic pattern (full = every flow at its NIC-fair rate)");
    columns(&["curve", "d_a", "ratio", "stock_tors", "rewired_tors"]);
    let (das, dis) = grids(cfg);
    let d_i = dis[0];
    let chunky_tm = |topo: &Topology, rng: &mut StdRng| {
        let groups: Vec<Vec<usize>> = topo
            .server_groups()
            .into_iter()
            .filter(|g| !g.is_empty())
            .collect();
        TrafficMatrix::chunky(&groups, 100.0, rng)
    };
    let a2a_tm =
        |topo: &Topology, _rng: &mut StdRng| TrafficMatrix::all_to_all(topo.server_count());
    type TmBuilder<'a> = &'a dyn Fn(&Topology, &mut StdRng) -> TrafficMatrix;
    let patterns: [(&str, TmBuilder); 3] = [
        ("all-to-all", &a2a_tm),
        ("permutation", &permutation_tm),
        ("100%chunky", &chunky_tm),
    ];
    // all-to-all is quadratic in servers: restrict to the smaller degrees
    for (name, tm) in patterns {
        let degree_cap = if name == "all-to-all" && !cfg.full {
            10
        } else {
            usize::MAX
        };
        for &d_a in das.iter().filter(|&&d| d <= degree_cap) {
            let (stock, rewired) = support_pair(cfg, d_a, d_i, tm)?;
            let ratio = if stock > 0 {
                rewired as f64 / stock as f64
            } else {
                f64::NAN
            };
            row_keyed(name, &[d_a as f64, ratio, stock as f64, rewired as f64]);
        }
    }
    Ok(())
}
