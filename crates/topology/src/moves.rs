//! Deterministic, validated structural rewiring moves — the move
//! vocabulary of the topology search engine (`dctopo-search`).
//!
//! [`crate::Topology`]-level search needs *addressable* moves: a
//! candidate must be describable as data (so batches can be generated
//! from seeds, evaluated in parallel, and replayed), unlike a swap
//! that is sampled and applied in one step. [`TwoSwap`] names a
//! degree-preserving double-edge swap explicitly; [`apply_two_swap`]
//! validates it and applies it, and
//! [`two_swap_is_valid`] is the cheap pre-check move generators use to
//! reject illegal samples without touching the graph.
//!
//! ## Degree-sequence invariant
//!
//! A two-swap replaces edges `(a,b)` and `(c,d)` with `(a,c)+(b,d)`
//! (`cross = false`) or `(a,d)+(b,c)` (`cross = true`). Every endpoint
//! loses exactly one incident edge and gains exactly one, so the degree
//! sequence — and therefore every port-budget constraint checked by
//! [`crate::Topology::validate_ports`] — is preserved *exactly*. The
//! capacity multiset is preserved too: the replacement touching `a`
//! inherits edge `e1`'s capacity, the one touching `b` inherits `e2`'s.

use dctopo_graph::{EdgeId, Graph, GraphError};

/// One named degree-preserving double-edge swap: replace edges `e1 =
/// (a,b)` and `e2 = (c,d)` with `(a,c)+(b,d)` (`cross = false`) or
/// `(a,d)+(b,c)` (`cross = true`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoSwap {
    /// First edge to remove.
    pub e1: EdgeId,
    /// Second edge to remove.
    pub e2: EdgeId,
    /// Orientation: `false` pairs `a` with `c`, `true` pairs `a` with `d`.
    pub cross: bool,
}

impl TwoSwap {
    /// The swap that undoes `self`, computed against the graph `self`
    /// is *about to be applied to* (the pre-application state).
    ///
    /// [`apply_two_swap`] removes the higher edge id, then the lower,
    /// then appends the two replacement edges — so after a successful
    /// application the replacements always occupy the last two edge
    /// ids, stored in the `((x1, y1), (x2, y2))` orientation of
    /// [`two_swap_endpoints`]. Un-crossing them (`cross = false`)
    /// re-pairs `x1` with `x2` and `y1` with `y2`, which recreates the
    /// original `(a, b)` and `(c, d)` pairs with their original
    /// capacities for *either* orientation of `self`. Hence the
    /// inverse is always `TwoSwap { e1: m - 2, e2: m - 1, cross:
    /// false }`, where `m` is the (swap-invariant) edge count.
    ///
    /// Applying `self` and then the returned swap round-trips the
    /// topology exactly as a capacitated graph: same degree sequence,
    /// same adjacency, same `(endpoints, capacity)` edge multiset, and
    /// the same dense `0..m` edge-id range — though individual edges
    /// may sit at permuted ids, because [`Graph::remove_edge`]
    /// compacts by swapping the last edge into the freed slot (see the
    /// round-trip property test).
    ///
    /// Returns `None` when `self` is not applicable to `g`
    /// ([`two_swap_is_valid`] is false), since no inverse exists for a
    /// move that cannot happen.
    pub fn inverse(&self, g: &Graph) -> Option<TwoSwap> {
        if !two_swap_is_valid(g, self) {
            return None;
        }
        let m = g.edge_count();
        Some(TwoSwap {
            e1: m - 2,
            e2: m - 1,
            cross: false,
        })
    }
}

/// The two replacement endpoint pairs a swap would create, in
/// `((x1, y1), (x2, y2))` order — `(x1, y1)` inherits `e1`'s capacity,
/// `(x2, y2)` inherits `e2`'s.
///
/// Returns `None` when either edge id is out of range or `e1 == e2`.
pub fn two_swap_endpoints(g: &Graph, swap: &TwoSwap) -> Option<((usize, usize), (usize, usize))> {
    let m = g.edge_count();
    if swap.e1 >= m || swap.e2 >= m || swap.e1 == swap.e2 {
        return None;
    }
    let (a, b) = {
        let e = g.edge(swap.e1);
        (e.u, e.v)
    };
    let (c, d) = {
        let e = g.edge(swap.e2);
        (e.u, e.v)
    };
    Some(if swap.cross {
        ((a, d), (b, c))
    } else {
        ((a, c), (b, d))
    })
}

/// Whether applying `swap` would keep the graph simple: no self-loops,
/// no parallel edges. Out-of-range or identical edge ids are invalid.
pub fn two_swap_is_valid(g: &Graph, swap: &TwoSwap) -> bool {
    match two_swap_endpoints(g, swap) {
        None => false,
        Some(((x1, y1), (x2, y2))) => {
            x1 != y1 && x2 != y2 && !g.has_edge(x1, y1) && !g.has_edge(x2, y2)
        }
    }
}

/// Apply a validated two-swap, preserving the degree sequence and the
/// capacity multiset (see module docs for the inheritance rule).
///
/// Note that [`Graph::remove_edge`] compacts edge ids, so ids held
/// across a successful swap are invalidated; move generators must
/// sample against the *current* graph.
///
/// # Errors
/// [`GraphError::Unrealizable`] when the swap is invalid
/// ([`two_swap_is_valid`] is false). The graph is untouched on error.
pub fn apply_two_swap(g: &mut Graph, swap: &TwoSwap) -> Result<(), GraphError> {
    let ((x1, y1), (x2, y2)) = two_swap_endpoints(g, swap).ok_or_else(|| {
        GraphError::Unrealizable(format!(
            "two-swap ({}, {}) names invalid edges of a {}-edge graph",
            swap.e1,
            swap.e2,
            g.edge_count()
        ))
    })?;
    if x1 == y1 || x2 == y2 || g.has_edge(x1, y1) || g.has_edge(x2, y2) {
        return Err(GraphError::Unrealizable(format!(
            "two-swap ({}, {}, cross={}) would create a self-loop or parallel edge",
            swap.e1, swap.e2, swap.cross
        )));
    }
    let cap1 = g.edge(swap.e1).capacity;
    let cap2 = g.edge(swap.e2).capacity;
    // remove the higher id first so the lower id stays valid
    let (hi, lo) = if swap.e1 > swap.e2 {
        (swap.e1, swap.e2)
    } else {
        (swap.e2, swap.e1)
    };
    g.remove_edge(hi);
    g.remove_edge(lo);
    g.add_edge(x1, y1, cap1).expect("endpoints validated");
    g.add_edge(x2, y2, cap2).expect("endpoints validated");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rrg(seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        Topology::random_regular(16, 8, 4, &mut rng).unwrap()
    }

    #[test]
    fn valid_swap_preserves_degrees_and_capacities() {
        let mut topo = rrg(3);
        let before_deg = topo.graph.degrees();
        let mut before_caps: Vec<i64> = topo
            .graph
            .edges()
            .iter()
            .map(|e| e.capacity as i64)
            .collect();
        before_caps.sort_unstable();
        // find any valid swap deterministically
        let m = topo.graph.edge_count();
        let swap = (0..m)
            .flat_map(|e1| (0..m).map(move |e2| (e1, e2)))
            .flat_map(|(e1, e2)| {
                [false, true]
                    .into_iter()
                    .map(move |cross| TwoSwap { e1, e2, cross })
            })
            .find(|s| two_swap_is_valid(&topo.graph, s))
            .expect("a 16-node RRG admits some two-swap");
        apply_two_swap(&mut topo.graph, &swap).unwrap();
        assert_eq!(topo.graph.degrees(), before_deg);
        let mut after_caps: Vec<i64> = topo
            .graph
            .edges()
            .iter()
            .map(|e| e.capacity as i64)
            .collect();
        after_caps.sort_unstable();
        assert_eq!(after_caps, before_caps);
        topo.validate_ports().unwrap();
        // graph stays simple
        for v in 0..topo.graph.node_count() {
            let mut nb: Vec<_> = topo.graph.neighbors(v).collect();
            let len = nb.len();
            nb.sort_unstable();
            nb.dedup();
            assert_eq!(nb.len(), len, "parallel edge at {v}");
            assert!(!nb.contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn invalid_swaps_are_rejected_without_mutation() {
        let mut topo = rrg(4);
        let edges_before: Vec<_> = topo.graph.edges().to_vec();
        let m = topo.graph.edge_count();
        // same edge twice
        assert!(!two_swap_is_valid(
            &topo.graph,
            &TwoSwap {
                e1: 0,
                e2: 0,
                cross: false
            }
        ));
        // out of range
        let bad = TwoSwap {
            e1: 0,
            e2: m,
            cross: false,
        };
        assert!(!two_swap_is_valid(&topo.graph, &bad));
        assert!(apply_two_swap(&mut topo.graph, &bad).is_err());
        // adjacent edges sharing an endpoint in the self-loop orientation
        let e1 = 0;
        let u = topo.graph.edge(e1).u;
        let (e2, _) = topo.graph.incident(u)[1];
        // one orientation pairs u with u -> self loop; that orientation
        // must be invalid and must not mutate
        let mut rejected = 0;
        for cross in [false, true] {
            let s = TwoSwap { e1, e2, cross };
            if !two_swap_is_valid(&topo.graph, &s) {
                assert!(apply_two_swap(&mut topo.graph, &s).is_err());
                rejected += 1;
            }
        }
        assert!(rejected >= 1, "self-loop orientation must be rejected");
        assert_eq!(topo.graph.edges(), &edges_before[..], "graph mutated");
    }

    #[test]
    fn endpoints_orientations_differ() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let plain = two_swap_endpoints(
            &g,
            &TwoSwap {
                e1: 0,
                e2: 1,
                cross: false,
            },
        )
        .unwrap();
        let cross = two_swap_endpoints(
            &g,
            &TwoSwap {
                e1: 0,
                e2: 1,
                cross: true,
            },
        )
        .unwrap();
        assert_eq!(plain, ((0, 2), (1, 3)));
        assert_eq!(cross, ((0, 3), (1, 2)));
    }

    /// Canonical form of a capacitated graph: the sorted multiset of
    /// `(min endpoint, max endpoint, capacity bits)` — invariant under
    /// the edge-id permutations `remove_edge` compaction introduces.
    fn canonical_edges(g: &Graph) -> Vec<(usize, usize, u64)> {
        let mut edges: Vec<(usize, usize, u64)> = g
            .edges()
            .iter()
            .map(|e| {
                let (u, v) = if e.u <= e.v { (e.u, e.v) } else { (e.v, e.u) };
                (u, v, e.capacity.to_bits())
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    /// Deterministically sample a valid swap of `g`, or `None` if the
    /// seeded sampler exhausts its budget.
    fn sample_valid_swap(g: &Graph, rng: &mut StdRng) -> Option<TwoSwap> {
        use rand::RngExt;
        let m = g.edge_count();
        for _ in 0..256 {
            let swap = TwoSwap {
                e1: rng.random_range(0..m),
                e2: rng.random_range(0..m),
                cross: rng.random_bool(0.5),
            };
            if two_swap_is_valid(g, &swap) {
                return Some(swap);
            }
        }
        None
    }

    #[test]
    fn inverse_round_trips_topology_on_50_seeded_instances() {
        for seed in 0..50u64 {
            let mut topo = rrg(1000 + seed);
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let before_edges = canonical_edges(&topo.graph);
            let before_deg = topo.graph.degrees();
            let before_unused = topo.unused_ports;
            let swap = sample_valid_swap(&topo.graph, &mut rng)
                .expect("a 16-node RRG admits a valid swap within budget");
            let inv = swap
                .inverse(&topo.graph)
                .expect("valid swap has an inverse");
            apply_two_swap(&mut topo.graph, &swap).unwrap();
            assert_ne!(
                canonical_edges(&topo.graph),
                before_edges,
                "seed {seed}: swap must change the edge multiset"
            );
            apply_two_swap(&mut topo.graph, &inv).unwrap();
            // exact round trip: edge multiset (endpoints + capacity
            // bits), degree sequence, dense edge-id range, and port
            // bookkeeping all restored
            assert_eq!(
                canonical_edges(&topo.graph),
                before_edges,
                "seed {seed}: inverse failed to restore the edge multiset"
            );
            assert_eq!(topo.graph.degrees(), before_deg, "seed {seed}");
            assert_eq!(topo.graph.edge_count(), before_edges.len(), "seed {seed}");
            assert_eq!(topo.unused_ports, before_unused, "seed {seed}");
            topo.validate_ports().unwrap();
        }
    }

    #[test]
    fn inverse_of_invalid_swap_is_none() {
        let topo = rrg(9);
        let m = topo.graph.edge_count();
        // same edge twice and out-of-range ids have no inverse
        assert!(TwoSwap {
            e1: 0,
            e2: 0,
            cross: false
        }
        .inverse(&topo.graph)
        .is_none());
        assert!(TwoSwap {
            e1: 0,
            e2: m,
            cross: false
        }
        .inverse(&topo.graph)
        .is_none());
    }

    #[test]
    fn capacity_inheritance_follows_e1_e2_rule() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        apply_two_swap(
            &mut g,
            &TwoSwap {
                e1: 0,
                e2: 1,
                cross: false,
            },
        )
        .unwrap();
        // (0,2) inherits e1's 10x capacity, (1,3) inherits e2's 1x
        let e02 = g.find_edge(0, 2).unwrap();
        let e13 = g.find_edge(1, 3).unwrap();
        assert_eq!(g.edge(e02).capacity, 10.0);
        assert_eq!(g.edge(e13).capacity, 1.0);
    }
}
