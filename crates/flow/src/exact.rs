//! Exact max concurrent flow via the edge-flow LP, solved with
//! `dctopo-linprog`'s simplex.
//!
//! Variables: `x[j][a]` (flow of commodity `j` on arc `a`) and `λ`.
//! Maximise `λ` subject to per-commodity flow conservation with source
//! surplus `λ·d_j` and joint arc capacities. This is the formulation the
//! paper hands to CPLEX; we use it as ground truth for the FPTAS on
//! instances small enough for a dense simplex: a tableau of at most
//! [`MAX_TABLEAU_CELLS`] rows × columns, about a second's work.
//!
//! The LP is assembled from the shared [`CsrNet`] arc arrays.
//! [`exact_solved_flow`] is the [`crate::Backend::ExactLp`] arm of the
//! backend dispatch; it also recovers the optimal per-arc flow and
//! per-commodity rates from the simplex solution so exact results are
//! drop-in replacements for FPTAS results everywhere downstream
//! (metrics, decomposition, figures).

use dctopo_graph::CsrNet;
use dctopo_linprog::{LinearProgram, LpOutcome};

use crate::{validate, Commodity, FlowError, FlowOptions, SolvedFlow};

/// Upper bound on the rows × columns of the dense tableau we hand the
/// simplex — what it pays for, per pivot and in pivots. Release build,
/// one core of a 2-core Intel Xeon, permutation traffic:
/// RRG(16, 6, 4) at seeds 1–5 (512–560 rows, 1.18M–1.43M cells) solves
/// in 0.43–1.10 s and is admitted; RRG(14, 8, 4) (2.29M cells) takes
/// 0.90 s, RRG(18, 6, 4) (2.26M) 2.0 s, RRG(16, 7, 4) (2.52M) 3.7 s,
/// RRG(20, 6, 4) (3.42M) 5.6 s and RRG(16, 8, 4) (960 × 4,545, 4.36M)
/// more than 40 s, and all are refused.
const MAX_TABLEAU_CELLS: usize = 1_500_000;

/// Solve the exact LP on a prebuilt net, returning the full certified
/// flow (`upper_bound == throughput` up to simplex tolerance; `phases`
/// reports 1).
///
/// # Errors
/// [`FlowError::BadOptions`] when the instance's tableau exceeds
/// [`MAX_TABLEAU_CELLS`] (the message names its rows and columns), is
/// infeasible, or unbounded; validation errors as usual.
pub fn exact_solved_flow(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    // validation shared with the FPTAS (iterative knobs are ignored here
    // but still range-checked for interface uniformity)
    validate(net.node_count(), commodities, opts)?;
    let k = commodities.len();
    let m = net.arc_count();
    let n = net.node_count();
    let num_vars = k * m + 1;
    // one row per conservation and capacity constraint; each row adds
    // one slack or artificial column beside the LP's own variables
    let rows = k * n + m;
    let cols = num_vars + rows;
    if rows.saturating_mul(cols) > MAX_TABLEAU_CELLS {
        return Err(FlowError::BadOptions(format!(
            "exact LP would need a {rows} × {cols} simplex tableau ({num_vars} variables; \
             limit {MAX_TABLEAU_CELLS} cells); use the FPTAS"
        )));
    }
    // demands in units of the largest, rounded down to a power of two
    // (exact, and 1 for unit demands), so the simplex's absolute
    // tolerance sees λ at the capacities' scale: a demand of 1e9 on unit
    // capacities lost λ = 2e-9 to it and returned an over-capacity flow
    let max_demand = commodities.iter().map(|c| c.demand).fold(0.0, f64::max);
    let unit = 2f64.powi(max_demand.log2().floor() as i32);
    let lambda = k * m; // index of λ
    let mut lp = LinearProgram::new(num_vars);
    lp.set_objective(lambda, 1.0);

    let var = |j: usize, a: usize| j * m + a;

    // conservation: for each commodity j and node v:
    //   Σ_out x - Σ_in x = (v == src)·λd - (v == dst)·λd
    for (j, c) in commodities.iter().enumerate() {
        for v in 0..n {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            let (arcs, _) = net.out_slots(v);
            for &a in arcs {
                let a = a as usize;
                coeffs.push((var(j, a), 1.0));
                // the reverse arc of `a` is an in-arc of v
                coeffs.push((var(j, a ^ 1), -1.0));
            }
            if v == c.src {
                coeffs.push((lambda, -c.demand / unit));
            } else if v == c.dst {
                coeffs.push((lambda, c.demand / unit));
            }
            lp.add_eq(coeffs, 0.0);
        }
    }
    // capacity: Σ_j x[j][a] <= c(a)
    for a in 0..m {
        let coeffs: Vec<(usize, f64)> = (0..k).map(|j| (var(j, a), 1.0)).collect();
        lp.add_le(coeffs, net.capacity(a));
    }

    match lp
        .solve()
        .map_err(|e| FlowError::BadOptions(format!("LP solver failed: {e}")))?
    {
        LpOutcome::Optimal(s) => {
            let throughput = s.objective / unit;
            let mut arc_flow = vec![0.0f64; m];
            for j in 0..k {
                for (a, f) in arc_flow.iter_mut().enumerate() {
                    *f += s.x[var(j, a)];
                }
            }
            let commodity_rate = commodities.iter().map(|c| throughput * c.demand).collect();
            let commodity_arc_flow = opts.record_commodity_flows.then(|| {
                (0..k)
                    .map(|j| (0..m).map(|a| s.x[var(j, a)]).collect())
                    .collect()
            });
            let sol = SolvedFlow {
                throughput,
                upper_bound: throughput,
                arc_flow,
                commodity_rate,
                phases: 1,
                settles: 0,
                commodity_arc_flow,
                // the simplex exposes no duals: the bound goes unchecked
                dual_lengths: Vec::new(),
            };
            crate::debug_certify(|| sol.certify(net, commodities, None));
            Ok(sol)
        }
        LpOutcome::Infeasible => Err(FlowError::BadOptions(
            "exact LP infeasible (disconnected commodity?)".into(),
        )),
        LpOutcome::Unbounded => Err(FlowError::BadOptions(
            "exact LP unbounded (zero-demand commodity?)".into(),
        )),
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

    /// The recovered flow vector is feasible and ships λ·d per commodity.
    #[test]
    fn exact_flow_vector_feasible() {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let cs = [Commodity::unit(0, 3), Commodity::unit(1, 4)];
        let s = exact_solved_flow(&net, &cs, &FlowOptions::default()).unwrap();
        assert_eq!(s.upper_bound, s.throughput);
        // the primal checks; the simplex returns no duals to check
        assert_eq!(s.certify(&net, &cs, None), Ok(None));
    }

    /// The guard counts the tableau, not the variables: 56 commodities
    /// on a 64-arc circulant are 3,585 variables, but a 960 × 4,545
    /// tableau the dense simplex cannot finish in minutes. The refusal
    /// names both sizes.
    #[test]
    fn too_large_rejected() {
        let mut g = Graph::new(16);
        for v in 0..16 {
            g.add_unit_edge(v, (v + 1) % 16).unwrap();
            g.add_unit_edge(v, (v + 2) % 16).unwrap();
        }
        let cs: Vec<_> = (1..=4)
            .flat_map(|d| (0..16).map(move |i| Commodity::unit(i, (i + d) % 16)))
            .take(56)
            .collect();
        match lp_lambda(&g, &cs) {
            Err(FlowError::BadOptions(m)) => assert!(m.contains("960 × 4545"), "{m}"),
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
