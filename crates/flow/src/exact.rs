//! Exact max concurrent flow: the path form of the LP the paper hands
//! to CPLEX, solved by column generation on `dctopo-linprog`'s simplex.
//!
//! The master maximises `λ` over a pool of paths. It has one row per
//! arc, `Σ_{p ∋ a} f_p ≤ c(a)`, and one row per commodity,
//! `λ·d_j − Σ_{p ∈ P_j} f_p ≤ 0`; its columns are `λ` and the pooled
//! paths, seeded with each commodity's fewest-hop paths. Each
//! round re-solves the master from its last basis and reads the duals
//! `y` of the arc rows and `z` of the commodity rows. Pricing runs one
//! [`CsrNet::dijkstra`] per source under `y` and adds every path shorter
//! than its commodity's `z_j`. When no path is, `y` is an optimal dual of
//! the whole LP, so `λ* = D(y)/α(y)`: the answer returns `y` as its
//! [`SolvedFlow::dual_lengths`] and that bound as its `upper_bound`, and
//! is checked like every other backend's.
//!
//! [`exact_solved_flow`] is the [`crate::Backend::ExactLp`] arm of the
//! backend dispatch. Its flow, rates and per-commodity record are summed
//! from the pooled paths, so exact results are drop-in replacements for
//! FPTAS results everywhere downstream (metrics, decomposition, figures).

use dctopo_graph::csr::DijkstraWorkspace;
use dctopo_graph::{ArcId, CsrNet};
use dctopo_linprog::{LinearProgram, LpError};

use crate::{Commodity, FlowError, FlowOptions, PathSetCache, SolvedFlow};

/// Upper bound on the master's rows × tableau columns (a slack per row,
/// `λ` and the pooled paths) — what the simplex pays for, per pivot and
/// in pivots. Checked before anything is built and before every solve.
/// Release build, one core of a 2-core Intel Xeon, permutation traffic,
/// seeds 1–5, final masters: RRG(64, 6, 4) (0.56–0.64M cells) solves in
/// 0.10–0.57 s, RRG(80, 6, 4) (0.89–0.97M) in 0.58–1.19 s, RRG(64, 8, 4)
/// (1.28–1.32M) in 0.31–1.10 s and RRG(96, 6, 4) (1.35–1.45M) in
/// 1.9–3.0 s, all admitted; RRG(72, 8, 4) is refused on its seeded
/// master (571 × 2,836).
const MAX_TABLEAU_CELLS: usize = 1_500_000;

/// Paths per commodity the pool opens with: its fewest-hop paths, as a
/// [`PathSetCache`] freezes them. Eight halve the solve against one on
/// RRG(64, 6 and 8, 4) and RRG(80, 6, 4); four and sixteen are slower.
const SEED_PATHS: usize = 8;

/// A path joins the pool when it is shorter than its commodity's dual by
/// more than this: ten times the simplex's reduced-cost tolerance, so a
/// pooled path is never priced in twice.
const PRICE_TOL: f64 = 1e-8;

/// The largest relative gap an exact answer may carry: rounding in the
/// simplex costs far less, so a wider gap means the simplex lost
/// precision and the answer is refused.
const MAX_GAP: f64 = 1e-6;

/// Solve the exact LP on a prebuilt net, returning the full certified
/// flow (`upper_bound` equals `throughput` up to the simplex's
/// tolerance; `phases` counts the master's solves).
///
/// # Errors
/// [`FlowError::BadOptions`] when the master's tableau exceeds
/// [`MAX_TABLEAU_CELLS`] (the message names its rows and columns), the
/// simplex fails or the answer's gap exceeds [`MAX_GAP`];
/// [`FlowError::Unreachable`] for a disconnected commodity (from the
/// seed freeze). The dispatch has validated the input.
pub fn exact_solved_flow(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    let (k, m) = (commodities.len(), net.arc_count());
    let guard = |paths: usize| {
        let (rows, cols) = (m + k, m + k + 1 + paths);
        if rows.saturating_mul(cols) > MAX_TABLEAU_CELLS {
            return Err(FlowError::BadOptions(format!(
                "exact LP would need a {rows} × {cols} simplex tableau \
                 (limit {MAX_TABLEAU_CELLS} cells); use the FPTAS"
            )));
        }
        Ok(())
    };
    guard(k)?;
    // demands in units of the largest, rounded down to a power of two
    // (exact, and 1 for unit demands), so the simplex's absolute
    // tolerance sees λ at the capacities' scale: a demand of 1e9 on unit
    // capacities lost λ = 2e-9 to it and returned an over-capacity flow
    let max_demand = commodities.iter().map(|c| c.demand).fold(0.0, f64::max);
    let unit = 2f64.powi(max_demand.log2().floor() as i32);
    let demand: Vec<f64> = commodities.iter().map(|c| c.demand / unit).collect();
    let rhs = (net.capacities().iter().copied())
        .chain(std::iter::repeat_n(0.0, k))
        .collect();
    let mut master = Master {
        lp: LinearProgram::new(rhs).map_err(lp_failed)?,
        pool: Vec::new(),
        ws: DijkstraWorkspace::new(net.node_count()),
        arcs: m,
    };
    // commodities by source, so pricing grows each source's tree once
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&j| commodities[j].src);
    // λ's objective is the total demand, so the commodity duals average
    // 1 and the simplex's absolute tolerance reads as a relative one
    let lambda: Vec<_> = (demand.iter().enumerate())
        .map(|(j, &d)| (m + j, d))
        .collect();
    (master.lp)
        .add_column(demand.iter().sum(), &lambda)
        .map_err(lp_failed)?;
    let seeds = PathSetCache::new().freeze(net, commodities, SEED_PATHS)?;
    for (j, set) in seeds.iter().enumerate() {
        for path in set.iter() {
            master.pool_path(j, path.clone())?;
        }
    }
    let mut phases = 0;
    let (s, y, alpha) = loop {
        guard(master.pool.len())?;
        let s = master.lp.solve().map_err(lp_failed)?;
        phases += 1;
        let y: Vec<f64> = s.duals[..m].iter().map(|&y| y.max(0.0)).collect();
        let before = master.pool.len();
        let alpha = master.price(net, commodities, &order, &y, &s.duals[m..])?;
        if master.pool.len() == before {
            break (s, y, alpha);
        }
    };
    // the primal is the pooled flow scaled by what its worst-served
    // commodity and its most congested arc allow, so it is feasible by
    // construction whatever rounding the simplex carried
    let flow: Vec<f64> = s.x[1..].iter().map(|&f| f.max(0.0)).collect();
    let (mut delivered, mut load) = (vec![0.0f64; k], vec![0.0f64; m]);
    for ((j, path), &f) in master.pool.iter().zip(&flow) {
        delivered[*j] += f;
        path.iter().for_each(|&a| load[a] += f);
    }
    let congestion = (load.iter().zip(net.capacities()))
        .filter(|&(_, &c)| c > 0.0)
        .fold(1.0, |worst, (l, c)| f64::max(worst, l / c));
    let throughput = (delivered.iter().zip(commodities))
        .fold(f64::INFINITY, |lo, (x, c)| lo.min(x / c.demand))
        / congestion;
    let mut arc_flow = vec![0.0f64; m];
    let mut record = opts
        .record_commodity_flows
        .then(|| vec![vec![0.0f64; m]; k]);
    for ((j, path), &f) in master.pool.iter().zip(&flow) {
        let f = f * throughput * commodities[*j].demand / delivered[*j];
        for &a in path {
            arc_flow[a] += f;
            if let Some(r) = record.as_mut() {
                r[*j][a] += f;
            }
        }
    }
    let d_y: f64 = y.iter().zip(net.capacities()).map(|(y, c)| y * c).sum();
    let upper_bound = d_y / alpha;
    let tight = upper_bound <= throughput * (1.0 + MAX_GAP); // false on a NaN
    if !tight {
        return Err(FlowError::BadOptions(format!(
            "exact LP lost precision: λ = {throughput} but the bound is {upper_bound}"
        )));
    }
    let sol = SolvedFlow {
        throughput,
        upper_bound,
        arc_flow,
        commodity_rate: commodities.iter().map(|c| throughput * c.demand).collect(),
        phases,
        settles: 0,
        commodity_arc_flow: record,
        dual_lengths: y,
    };
    crate::debug_certify(|| sol.certify(net, commodities, None));
    Ok(sol)
}

fn lp_failed(e: LpError) -> FlowError {
    FlowError::BadOptions(format!("LP solver failed: {e}"))
}

/// The master LP, its path pool (column `1 + i` is path `i`, with its
/// commodity) and the pricing state.
struct Master {
    lp: LinearProgram,
    pool: Vec<(usize, Vec<ArcId>)>,
    ws: DijkstraWorkspace,
    /// Arc rows come first; commodity `j`'s row is `arcs + j`.
    arcs: usize,
}

impl Master {
    /// Price under `length`: pool every commodity's shortest path that
    /// is shorter than its `bar` by more than [`PRICE_TOL`], and return
    /// `α = Σ d_j · dist(s_j, t_j)` (every endpoint is reachable: the
    /// seed freeze refused the instance otherwise).
    fn price(
        &mut self,
        net: &CsrNet,
        commodities: &[Commodity],
        order: &[usize],
        length: &[f64],
        bar: &[f64],
    ) -> Result<f64, FlowError> {
        let (mut alpha, mut src) = (0.0, None);
        for &j in order {
            let c = &commodities[j];
            if src != Some(c.src) {
                net.dijkstra(c.src, length, &mut self.ws);
                src = Some(c.src);
            }
            let dist = self.ws.distance(c.dst);
            alpha += c.demand * dist;
            if dist < bar[j] - PRICE_TOL {
                let mut path = Vec::new();
                self.ws.walk_path(net, c.dst, |a| path.push(a));
                self.pool_path(j, path)?;
            }
        }
        Ok(alpha)
    }

    /// Add `path` of commodity `j` as a column.
    fn pool_path(&mut self, j: usize, path: Vec<ArcId>) -> Result<(), FlowError> {
        let mut column: Vec<_> = path.iter().map(|&a| (a, 1.0)).collect();
        column.push((self.arcs + j, -1.0));
        self.lp.add_column(0.0, &column).map_err(lp_failed)?;
        self.pool.push((j, path));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;

    /// The exact λ* of `g`.
    fn lp_lambda(g: &Graph, cs: &[Commodity]) -> Result<f64, FlowError> {
        exact_solved_flow(&CsrNet::from_graph(g), cs, &FlowOptions::default()).map(|s| s.throughput)
    }
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn exact_single_edge() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let v = lp_lambda(&g, &[Commodity::unit(0, 1)]).unwrap();
        assert!((v - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exact_cycle_multipath() {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let v = lp_lambda(&g, &[Commodity::unit(0, 2)]).unwrap();
        assert!((v - 2.0).abs() < 1e-6, "λ* = {v}");
    }

    #[test]
    fn exact_shared_bottleneck() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        let cs = [Commodity::unit(0, 2), Commodity::unit(1, 2)];
        let v = lp_lambda(&g, &cs).unwrap();
        assert!((v - 0.5).abs() < 1e-6, "λ* = {v}");
    }

    /// The recovered flow vector is feasible and ships λ·d per commodity,
    /// and the bound re-derived from the returned lengths is λ*.
    #[test]
    fn exact_flow_vector_feasible() {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let cs = [Commodity::unit(0, 3), Commodity::unit(1, 4)];
        let opts = FlowOptions::default().with_commodity_flows(true);
        let s = exact_solved_flow(&net, &cs, &opts).unwrap();
        assert_eq!(s.dual_lengths.len(), net.arc_count());
        let bound = s.certify(&net, &cs, None).unwrap();
        assert!(s.throughput <= bound * (1.0 + 1e-9), "{bound}");
        assert!(bound <= s.throughput * (1.0 + 1e-6), "{bound}");
    }

    /// 16 nodes in a circulant of offsets 1 and 2 and the 56 commodities
    /// at offsets 1–4: an edge-flow LP of 960 × 4,545, refused by the
    /// dense simplex before, is a 120-row master. The same pattern on 200
    /// nodes is refused before anything is built, naming both sizes.
    #[test]
    fn the_guard_counts_the_master() {
        let circulant = |n: usize, k: usize| {
            let mut g = Graph::new(n);
            for v in 0..n {
                g.add_unit_edge(v, (v + 1) % n).unwrap();
                g.add_unit_edge(v, (v + 2) % n).unwrap();
            }
            let cs: Vec<_> = (1..=4)
                .flat_map(|d| (0..n).map(move |i| Commodity::unit(i, (i + d) % n)))
                .take(k)
                .collect();
            (g, cs)
        };
        let (g, cs) = circulant(16, 56);
        assert!(lp_lambda(&g, &cs).unwrap() > 0.0);
        let (g, cs) = circulant(200, 800);
        match lp_lambda(&g, &cs) {
            Err(FlowError::BadOptions(m)) => assert!(m.contains("1600 × 2401"), "{m}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// The central cross-validation: FPTAS within its certified gap of the
    /// exact LP optimum on random small instances.
    #[test]
    fn fptas_matches_exact_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 30000,
            stall_phases: 3000,
            ..FlowOptions::default()
        };
        for trial in 0..6 {
            // random connected graph on 7 nodes: ring + random chords
            let n = 7;
            let mut g = Graph::new(n);
            for v in 0..n {
                g.add_unit_edge(v, (v + 1) % n).unwrap();
            }
            for _ in 0..4 {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v && !g.has_edge(u, v) {
                    g.add_unit_edge(u, v).unwrap();
                }
            }
            let mut cs = Vec::new();
            while cs.len() < 3 {
                let s = rng.random_range(0..n);
                let t = rng.random_range(0..n);
                if s != t {
                    cs.push(Commodity::unit(s, t));
                }
            }
            let exact = lp_lambda(&g, &cs).unwrap();
            let approx =
                crate::fptas::pairwise(&CsrNet::from_graph(&g), &cs, &opts, &[], None).unwrap();
            assert!(
                approx.throughput <= exact * (1.0 + 1e-6),
                "trial {trial}: primal {} exceeds exact {exact}",
                approx.throughput
            );
            assert!(
                approx.upper_bound >= exact * (1.0 - 1e-6),
                "trial {trial}: dual {} below exact {exact}",
                approx.upper_bound
            );
            assert!(
                approx.throughput >= exact * (1.0 - 0.03),
                "trial {trial}: primal {} too far below exact {exact}",
                approx.throughput
            );
        }
    }
}
