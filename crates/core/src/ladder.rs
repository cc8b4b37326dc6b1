//! The screening ladder: the paper's two analytic tools as cheap,
//! *sound* per-instance upper bounds on the concurrent-flow value λ of
//! one `(view, commodities)` pair — what a candidate must clear before
//! anyone pays for a certified solve of it.
//!
//! * **Hop bound** (Theorem 1 with observed distances):
//!   `λ ≤ C / Σ_j d_j·hop_j`, because every unit of commodity `j`
//!   consumes at least `hop_j` units of capacity ([`hop_alpha`],
//!   [`hop_bound`], [`hop_throughput_bound`]).
//! * **Cut bound** (Eqn. 1 for a specific demand vector):
//!   `λ ≤ C̄ / crossing demand`, because every commodity whose endpoints
//!   straddle a cut pushes at least `λ·d_j` across it ([`cut_bound`],
//!   minimised over a fixed probe set by [`min_cut_bound`]). Unlike
//!   `dctopo_bounds::cut_throughput_bound`, which bounds the *expected*
//!   crossing demand of random permutations, this holds for any demand
//!   vector and any flow.
//!
//! Everything here reads a [`CsrNet`] **view** — the net a caller is
//! about to solve, with its failed links gone and its re-rated links
//! re-rated — so the sweep's per-cell bound, the search's levels 0 and 1
//! and the planner's step screen are one definition evaluated on three
//! kinds of view. The hop bound costs `O(⌈sources/64⌉·(n + m))` (one
//! batched BFS per 64 distinct sources), a cut probe `O(m)`.

use dctopo_flow::Commodity;
use dctopo_graph::mix::derive_seed;
use dctopo_graph::msbfs::MAX_LANES;
use dctopo_graph::paths::UNREACHABLE;
use dctopo_graph::{ms_bfs_csr, CsrNet, MsBfsWorkspace};
use dctopo_topology::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Domain tag for probe-bisection seeds (see [`derive_seed`]).
const DOMAIN_PROBE: u64 = 11;

/// `Σ_j demand_j · hopdist(src_j, dst_j)` over the view's live
/// adjacency — the denominator of the hop bound. `∞` when any
/// commodity's endpoints are disconnected (the view cannot route it).
///
/// Commodities must be sorted by source (the order
/// [`crate::solve::aggregate_commodities`] emits) so each distinct
/// source occupies one contiguous run and one bit-lane; distinct
/// sources are batched [`MAX_LANES`] at a time through [`ms_bfs_csr`]
/// and a thread-local workspace, so repeated calls allocate nothing
/// after warm-up. Hop counts are exact small integers, so
/// `f64::from(hops)` equals the unit-length Dijkstra distance bit for
/// bit.
pub fn hop_alpha(view: &CsrNet, commodities: &[Commodity]) -> f64 {
    thread_local! {
        static HOP_WS: std::cell::RefCell<MsBfsWorkspace> = std::cell::RefCell::default();
    }
    HOP_WS.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        let mut alpha = 0.0f64;
        let mut i = 0;
        while i < commodities.len() {
            // gather the next batch of up to MAX_LANES distinct sources
            let mut sources = [0usize; MAX_LANES];
            let mut lanes = 0usize;
            let mut j = i;
            while j < commodities.len() {
                let s = commodities[j].src;
                if lanes == 0 || sources[lanes - 1] != s {
                    if lanes == MAX_LANES {
                        break;
                    }
                    sources[lanes] = s;
                    lanes += 1;
                }
                j += 1;
            }
            ms_bfs_csr(view, &sources[..lanes], ws);
            let mut lane = 0usize;
            for c in &commodities[i..j] {
                if c.src != sources[lane] {
                    lane += 1;
                }
                let d = ws.lane_distances(lane)[c.dst];
                if d == UNREACHABLE {
                    return f64::INFINITY;
                }
                alpha += c.demand * f64::from(d);
            }
            i = j;
        }
        alpha
    })
}

/// The hop bound `C / α`, with `C` the total capacity (both directions)
/// and `α` from [`hop_alpha`]. `0` when some commodity is disconnected
/// (`α = ∞`; λ is forced to 0 there anyway), `∞` when there is no
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

/// Theorem 1 with per-instance observed distances: [`hop_bound`] of the
/// view's live capacity over its [`hop_alpha`] — a *hard* upper bound
/// on the network λ of **every** backend on this view (unlike the
/// paper's `d*(n, r)` form, which bounds the average over all pairs and
/// only holds for uniform traffic on regular graphs).
pub fn hop_throughput_bound(view: &CsrNet, commodities: &[Commodity]) -> f64 {
    hop_bound(view.total_capacity(), hop_alpha(view, commodities))
}

/// One fixed cut probe: a bipartition of the switches plus the demand
/// crossing it (precomputed once — the commodity set is constant across
/// a search or a plan).
#[derive(Debug, Clone)]
pub struct CutProbe {
    /// Display name (`class:large`, `bisection:0`, ...).
    pub name: String,
    /// `membership[v]` — switch `v` is on the "true" side. Switches
    /// beyond the vector are on the "false" side.
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

    /// A seeded random halving of switches `0..n`: `⌊n/2⌋` of them,
    /// chosen by a Fisher–Yates shuffle drawn from `seed`, form the
    /// "true" side.
    pub fn bisection(
        name: impl Into<String>,
        n: usize,
        seed: u64,
        commodities: &[Commodity],
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut membership = vec![false; n];
        for &v in &order[..n / 2] {
            membership[v] = true;
        }
        CutProbe::new(name, membership, commodities)
    }

    /// Which side switch `v` is on (switches beyond the membership
    /// vector land on the "false" side).
    #[inline]
    pub fn side(&self, v: usize) -> bool {
        self.membership.get(v).copied().unwrap_or(false)
    }
}

/// The fixed probe set of a search or a plan: the switch-class
/// partition (class `0` vs the rest) when the topology is heterogeneous
/// and both sides are non-empty, plus `bisections` seeded random
/// halvings. Probes are a function of `(topo, commodities, seed)` only,
/// so every candidate is measured against the same cuts.
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
        probes.push(CutProbe::bisection(
            format!("bisection:{p}"),
            n,
            derive_seed(seed, DOMAIN_PROBE, p, 0),
            commodities,
        ));
    }
    probes
}

/// `C̄ / crossing demand` of one probe on a view: the capacities of the
/// live arcs whose endpoints straddle the cut, summed over both
/// directions (the `C̄` convention of
/// [`dctopo_graph::components::cut_capacity`], its `Graph`-side twin).
/// `∞` when no demand crosses the cut.
pub fn cut_bound(view: &CsrNet, probe: &CutProbe) -> f64 {
    if probe.cross_demand == 0.0 {
        return f64::INFINITY;
    }
    let mut cross = 0.0;
    for a in 0..view.arc_count() {
        if view.is_live(a) && probe.side(view.arc_tail(a)) != probe.side(view.arc_head(a)) {
            cross += view.capacity(a);
        }
    }
    cross / probe.cross_demand
}

/// The tightest [`cut_bound`] over a probe set; `∞` when no probe
/// carries crossing demand.
pub fn min_cut_bound(view: &CsrNet, probes: &[CutProbe]) -> f64 {
    probes
        .iter()
        .map(|p| cut_bound(view, p))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_unit_edge(v, (v + 1) % n).unwrap();
        }
        g
    }

    #[test]
    fn hop_alpha_weights_demands_by_distance() {
        let view = CsrNet::from_graph(&ring(6));
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
        let alpha = hop_alpha(&view, &cs);
        assert!((alpha - 7.0).abs() < 1e-12);
        // C = 2 * 6 edges = 12 both directions; bound = 12/7
        assert!((hop_throughput_bound(&view, &cs) - 12.0 / 7.0).abs() < 1e-12);
        // failing 2-3 sends 0->3 the other way round, same length; failing
        // 0-5 as well disconnects it: alpha infinite, bound zero
        let down = |u, v| view.arc_between(u, v).unwrap();
        let one_down = view.with_disabled_arcs(&[down(2, 3)]).unwrap();
        assert!((hop_alpha(&one_down, &cs) - 7.0).abs() < 1e-12);
        let two_down = view.with_disabled_arcs(&[down(2, 3), down(0, 5)]).unwrap();
        assert!(hop_alpha(&two_down, &cs).is_infinite());
        assert_eq!(hop_throughput_bound(&two_down, &cs), 0.0);
    }

    #[test]
    fn hop_bound_handles_edge_cases() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let view = CsrNet::from_graph(&g);
        // no demand: unbounded, whatever the capacity
        assert_eq!(hop_throughput_bound(&view, &[]), f64::INFINITY);
        assert_eq!(hop_bound(0.0, 0.0), f64::INFINITY);
        // disconnected commodity: bound collapses to 0
        assert_eq!(hop_throughput_bound(&view, &[Commodity::unit(0, 2)]), 0.0);
        assert_eq!(hop_bound(8.0, f64::INFINITY), 0.0);
        // single edge, one unit commodity at distance 1: C = 4, α = 1
        assert_eq!(hop_throughput_bound(&view, &[Commodity::unit(0, 1)]), 4.0);
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
    fn degenerate_bisections_have_an_empty_side() {
        let cs = [Commodity::unit(0, 1)];
        for n in [0usize, 1] {
            let p = CutProbe::bisection("tiny", n, 9, &cs);
            assert_eq!(p.membership, vec![false; n]);
            assert_eq!(p.cross_demand, 0.0);
            assert!(!p.side(0) && !p.side(7));
        }
    }

    #[test]
    fn min_cut_bound_finds_the_scarce_cut() {
        // two K4 blobs joined by one unit bridge: the bisection that
        // separates them yields the binding bound
        let mut g = Graph::new(8);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_unit_edge(u, v).unwrap();
                g.add_unit_edge(u + 4, v + 4).unwrap();
            }
        }
        let bridge = g.add_unit_edge(0, 4).unwrap() << 1;
        let view = CsrNet::from_graph(&g);
        let cs = [Commodity::unit(1, 5), Commodity::unit(2, 6)];
        let split = CutProbe::new(
            "split",
            vec![true, true, true, true, false, false, false, false],
            &cs,
        );
        assert!((split.cross_demand - 2.0).abs() < 1e-12);
        // a probe nothing crosses is skipped (unbounded)
        let idle = CutProbe::new("idle", vec![true; 8], &cs);
        assert_eq!(cut_bound(&view, &idle), f64::INFINITY);
        let probes = [idle, split];
        // C̄ = 2 * 1 (one crossing edge, both directions), demand 2 -> bound 1
        assert!((min_cut_bound(&view, &probes) - 1.0).abs() < 1e-12);
        // re-rating the bridge 4x lifts the bound 4x
        let rerated = view.with_capacity_overrides(&[(bridge, 4.0)]).unwrap();
        assert!((min_cut_bound(&rerated, &probes) - 4.0).abs() < 1e-12);
        // failing it leaves nothing to carry the crossing demand
        let failed = view.with_disabled_arcs(&[bridge]).unwrap();
        assert_eq!(min_cut_bound(&failed, &probes), 0.0);
        assert_eq!(min_cut_bound(&view, &[]), f64::INFINITY);
    }
}
