//! The multi-fidelity surrogate ladder: cheap, *sound* upper bounds a
//! candidate topology must clear before the search pays for a certified
//! solve.
//!
//! Level 0 is the Theorem-1-style hop bound `C / Σ_j d_j·hop_j` over the
//! candidate's BFS distances — a hard per-instance bound on any
//! concurrent flow, because every unit of commodity `j` consumes at
//! least `hop_j` units of capacity. Level 1 is the demand-weighted cut
//! bound `C̄ / crossing demand` ([`dctopo_bounds::demand_cut_bound`])
//! minimised over a fixed set of probe partitions ([`CutProbe`]): the
//! switch-class partition (where the heterogeneous experiments put
//! their bottleneck) plus seeded bisections. Level 0 batches its BFS
//! sweeps 64 sources at a time through a reusable
//! [`MsBfsWorkspace`] (`O(⌈sources/64⌉·(n + m))` per candidate instead
//! of one sweep per source); level 1 costs `O(probes·m)` — noise
//! against a certified solve either way.

use dctopo_bounds::{cross_capacity_with, demand_cut_bound};
use dctopo_flow::Commodity;
use dctopo_graph::mix::derive_seed;
use dctopo_graph::msbfs::{ms_bfs, MsBfsWorkspace};
use dctopo_graph::paths::{path_stats_with, BfsWorkspace};
use dctopo_graph::{Graph, GraphError};
use dctopo_topology::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Domain tag for probe-bisection seeds (see [`derive_seed`]).
const DOMAIN_PROBE: u64 = 11;

/// `Σ_j demand_j · hopdist(src_j, dst_j)` over the switch graph — the
/// denominator of the level-0 hop bound. `∞` when any commodity's
/// endpoints are disconnected (the candidate cannot route at all).
///
/// [`dctopo_core::sweep::hop_alpha`] over [`ms_bfs`] on the candidate's
/// [`Graph`]; commodities must be sorted by source, as there.
pub fn hop_alpha(g: &Graph, commodities: &[Commodity], ws: &mut MsBfsWorkspace) -> f64 {
    dctopo_core::sweep::hop_alpha(commodities, ws, |sources, ws| ms_bfs(g, sources, ws))
}

/// The level-0 hop bound: `C / α` with `C` the total capacity (both
/// directions) and `α` from [`hop_alpha`]. `0` when the candidate is
/// disconnected for some commodity (`α = ∞`), `∞` when there is no
/// demand.
pub fn hop_bound(total_capacity: f64, alpha: f64) -> f64 {
    if alpha == 0.0 {
        f64::INFINITY
    } else if alpha.is_infinite() {
        0.0
    } else {
        total_capacity / alpha
    }
}

/// All-pairs BFS average shortest path length with workspace reuse —
/// the observable the level-0 surrogate is built from, exposed so tests
/// can pin it against [`dctopo_bounds::aspl_lower_bound`].
///
/// # Errors
/// [`GraphError::Disconnected`] when any ordered pair is unreachable.
pub fn observed_aspl(g: &Graph, ws: &mut BfsWorkspace) -> Result<f64, GraphError> {
    Ok(path_stats_with(g, ws)?.aspl)
}

/// One fixed cut probe: a bipartition of the base topology's switches
/// plus the demand crossing it (precomputed once — the commodity set is
/// constant across a search).
#[derive(Debug, Clone)]
pub struct CutProbe {
    /// Display name (`class:large`, `bisection:0`, ...).
    pub name: String,
    /// `membership[v]` — switch `v` is on the "true" side. Switches
    /// added later (growth moves) default to the "false" side.
    pub membership: Vec<bool>,
    /// `Σ demand` of commodities whose endpoints straddle the cut.
    pub cross_demand: f64,
}

impl CutProbe {
    /// Build a probe over an explicit membership vector.
    pub fn new(name: impl Into<String>, membership: Vec<bool>, commodities: &[Commodity]) -> Self {
        let side = |v: usize| membership.get(v).copied().unwrap_or(false);
        let cross_demand = commodities
            .iter()
            .filter(|c| side(c.src) != side(c.dst))
            .map(|c| c.demand)
            .sum();
        CutProbe {
            name: name.into(),
            membership,
            cross_demand,
        }
    }

    /// Which side switch `v` is on (switches beyond the base topology —
    /// growth moves — land on the "false" side).
    #[inline]
    pub fn side(&self, v: usize) -> bool {
        self.membership.get(v).copied().unwrap_or(false)
    }
}

/// The fixed probe set of a search: the switch-class partition (class
/// `0` vs the rest) when the topology is heterogeneous and both sides
/// are non-empty, plus `bisections` seeded random halvings. Probes are
/// a function of `(topo, commodities, seed)` only, so every candidate
/// of a search is measured against the same cuts.
pub fn cut_probes(
    topo: &Topology,
    commodities: &[Commodity],
    bisections: usize,
    seed: u64,
) -> Vec<CutProbe> {
    let n = topo.switch_count();
    let mut probes = Vec::new();
    if topo.classes.len() >= 2 {
        let membership = topo.class_membership(0);
        let ones = membership.iter().filter(|&&m| m).count();
        if ones > 0 && ones < n {
            probes.push(CutProbe::new(
                format!("class:{}", topo.classes[0].name),
                membership,
                commodities,
            ));
        }
    }
    for p in 0..bisections {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, DOMAIN_PROBE, p, 0));
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher–Yates over the switch ids
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut membership = vec![false; n];
        for &v in order.iter().take(n / 2) {
            membership[v] = true;
        }
        probes.push(CutProbe::new(
            format!("bisection:{p}"),
            membership,
            commodities,
        ));
    }
    probes
}

/// The level-1 surrogate: the tightest [`demand_cut_bound`] over the
/// probe set, with per-edge effective capacities supplied by
/// `edge_capacity` (base capacity × the candidate's plan multiplier).
/// `∞` when no probe carries crossing demand.
pub fn min_cut_bound<F: Fn(usize) -> f64>(g: &Graph, probes: &[CutProbe], edge_capacity: F) -> f64 {
    let mut best = f64::INFINITY;
    for probe in probes {
        if probe.cross_demand == 0.0 {
            continue;
        }
        // C̄ counts both directions, matching CsrNet::total_capacity
        let cross = cross_capacity_with(g, &probe.membership, &edge_capacity);
        best = best.min(demand_cut_bound(cross, probe.cross_demand));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_bounds::aspl_lower_bound;
    use dctopo_topology::classic::complete;
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

    #[test]
    fn hop_alpha_weights_demands_by_distance() {
        let g = ring(6);
        let mut ws = MsBfsWorkspace::default();
        let cs = [
            Commodity {
                src: 0,
                dst: 3,
                demand: 2.0,
            },
            Commodity {
                src: 1,
                dst: 2,
                demand: 1.0,
            },
        ];
        // 0->3 is 3 hops, 1->2 is 1 hop: alpha = 2*3 + 1*1 = 7
        let alpha = hop_alpha(&g, &cs, &mut ws);
        assert!((alpha - 7.0).abs() < 1e-12);
        // C = 2 * 6 edges = 12 both directions; bound = 12/7
        assert!((hop_bound(12.0, alpha) - 12.0 / 7.0).abs() < 1e-12);
        // disconnected commodity: alpha infinite, bound zero
        let mut g2 = Graph::new(4);
        g2.add_unit_edge(0, 1).unwrap();
        g2.add_unit_edge(2, 3).unwrap();
        let alpha2 = hop_alpha(&g2, &[Commodity::unit(0, 2)], &mut ws);
        assert!(alpha2.is_infinite());
        assert_eq!(hop_bound(8.0, alpha2), 0.0);
        // no demand: bound unbounded
        assert_eq!(hop_bound(8.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn probes_are_deterministic_and_cover_classes() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = dctopo_topology::hetero::two_cluster(
            dctopo_topology::ClusterSpec {
                count: 4,
                ports: 8,
                servers_per_switch: 2,
            },
            dctopo_topology::ClusterSpec {
                count: 4,
                ports: 6,
                servers_per_switch: 1,
            },
            dctopo_topology::hetero::CrossSpec::Exact(4),
            &mut rng,
        )
        .unwrap();
        let cs = [Commodity::unit(0, 5), Commodity::unit(1, 2)];
        let a = cut_probes(&topo, &cs, 2, 42);
        let b = cut_probes(&topo, &cs, 2, 42);
        assert_eq!(a.len(), 3, "class probe + 2 bisections");
        assert_eq!(a[0].name, "class:large");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.membership, y.membership, "probes must be seeded");
            assert_eq!(x.cross_demand, y.cross_demand);
        }
        // class probe: 0->5 crosses (class 0 vs 1), 1->2 does not
        assert!((a[0].cross_demand - 1.0).abs() < 1e-12);
        // each bisection splits the switches in half
        for p in &a[1..] {
            assert_eq!(p.membership.iter().filter(|&&m| m).count(), 4);
        }
    }

    #[test]
    fn min_cut_bound_finds_the_scarce_cut() {
        // two K4-ish blobs joined by one unit edge: the bisection that
        // separates them yields the binding bound
        let mut g = Graph::new(8);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_unit_edge(u, v).unwrap();
                g.add_unit_edge(u + 4, v + 4).unwrap();
            }
        }
        g.add_unit_edge(0, 4).unwrap();
        let cs = [Commodity::unit(1, 5), Commodity::unit(2, 6)];
        let probe = CutProbe::new(
            "split",
            vec![true, true, true, true, false, false, false, false],
            &cs,
        );
        assert!((probe.cross_demand - 2.0).abs() < 1e-12);
        let bound = min_cut_bound(&g, std::slice::from_ref(&probe), |e| g.edge(e).capacity);
        // C̄ = 2 * 1 (one crossing edge, both directions), demand 2 -> bound 1
        assert!((bound - 1.0).abs() < 1e-12);
        // re-rating the crossing edge 4x lifts the bound 4x
        let bound4 = min_cut_bound(&g, std::slice::from_ref(&probe), |e| {
            let edge = g.edge(e);
            if (edge.u, edge.v) == (0, 4) {
                4.0
            } else {
                edge.capacity
            }
        });
        assert!((bound4 - 4.0).abs() < 1e-12);
        // a probe nothing crosses is skipped (unbounded)
        let idle = CutProbe::new("idle", vec![true; 8], &cs);
        assert_eq!(
            min_cut_bound(&g, std::slice::from_ref(&idle), |e| g.edge(e).capacity),
            f64::INFINITY
        );
    }
}
