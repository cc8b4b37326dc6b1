//! The multi-fidelity surrogate ladder: cheap, *sound* upper bounds a
//! candidate topology must clear before the search pays for a certified
//! solve.
//!
//! The bounds themselves are [`dctopo_core::ladder`]'s — the one copy
//! the sweep and the planner evaluate too — re-exported here; the
//! runner evaluates them on the candidate's own net + plan view. Level 0
//! is the Theorem-1-style hop bound `C / Σ_j d_j·hop_j` ([`hop_alpha`],
//! [`hop_bound`]), level 1 the demand-weighted cut bound
//! `C̄ / crossing demand` minimised over a fixed set of probe partitions
//! ([`cut_probes`], [`min_cut_bound`]): the switch-class partition
//! (where the heterogeneous experiments put their bottleneck) plus
//! seeded bisections. Both are noise against a certified solve.

pub use dctopo_core::ladder::{cut_probes, hop_alpha, hop_bound, min_cut_bound, CutProbe};
use dctopo_graph::paths::{path_stats_with, BfsWorkspace};
use dctopo_graph::{Graph, GraphError};

/// All-pairs BFS average shortest path length with workspace reuse —
/// the observable the level-0 surrogate is built from, exposed so tests
/// can pin it against [`dctopo_bounds::aspl_lower_bound`].
///
/// # Errors
/// [`GraphError::Disconnected`] when any ordered pair is unreachable.
pub fn observed_aspl(g: &Graph, ws: &mut BfsWorkspace) -> Result<f64, GraphError> {
    Ok(path_stats_with(g, ws)?.aspl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_bounds::aspl_lower_bound;
    use dctopo_topology::classic::complete;
    use dctopo_topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_unit_edge(v, (v + 1) % n).unwrap();
        }
        g
    }

    /// The satellite pin: the level-0 surrogate's BFS ASPL agrees with
    /// the analytic `d*` exactly where the tree view is achievable
    /// (complete graph, ring) and respects it as a lower bound on RRGs,
    /// so pruning decisions built on it inherit Theorem 1's soundness.
    #[test]
    fn observed_aspl_pins_against_moore_bound() {
        let mut ws = BfsWorkspace::default();
        // complete graph K_n: ASPL exactly 1 = d*(n, n-1)
        for n in [4usize, 6, 9] {
            let topo = complete(n, 1).unwrap();
            let aspl = observed_aspl(&topo.graph, &mut ws).unwrap();
            assert!((aspl - 1.0).abs() < 1e-12);
            assert!((aspl - aspl_lower_bound(n, n - 1).unwrap()).abs() < 1e-12);
        }
        // ring C_9: ASPL 2.5 = d*(9, 2) (the tree view is exact for a cycle)
        let aspl = observed_aspl(&ring(9), &mut ws).unwrap();
        assert!((aspl - 2.5).abs() < 1e-12);
        assert!((aspl - aspl_lower_bound(9, 2).unwrap()).abs() < 1e-12);
        // small RRGs: observed ASPL >= the Moore-style lower bound
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = Topology::random_regular(20, 8, 4, &mut rng).unwrap();
            let aspl = observed_aspl(&topo.graph, &mut ws).unwrap();
            let bound = aspl_lower_bound(20, 4).unwrap();
            assert!(
                aspl >= bound - 1e-12,
                "seed {seed}: ASPL {aspl} below bound {bound}"
            );
        }
    }
}
