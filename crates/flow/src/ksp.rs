//! Max concurrent flow restricted to the `k` shortest paths of each
//! commodity — the *practical routing* model (§8: real fabrics route on
//! k-shortest paths with MPTCP/ECMP, not on arbitrary splittable routes).
//!
//! Comparing [`crate::Backend::KspRestricted`] against the unrestricted
//! optimum from [`crate::Backend::Fptas`] quantifies how much throughput
//! a k-path routing scheme leaves on the table — the flow-level analogue
//! of the paper's Fig. 13 question.
//!
//! The algorithm is multiplicative weights over the *fixed* path sets:
//! each round, every commodity routes its demand on its currently
//! cheapest path (no shortest-path recomputation — path sets are frozen
//! up front with Yen's algorithm), lengths grow on used arcs, and the
//! same primal-scaling/dual-bound certificates as the main solver apply.
//! The dual bound here is valid *for the restricted problem*: α uses the
//! cheapest path within each commodity's set.
//!
//! Path freezing is a one-time preprocessing step and runs on an
//! adjacency-list [`Graph`] (rebuilt from the [`CsrNet`] when needed),
//! every pair of a freeze on one [`YenWorkspace`];
//! the hot multiplicative-weights loop runs on the flat CSR arrays.
//! Because freezing depends only on the topology and `k`, it is
//! memoisable: [`solve_ksp`] — the [`crate::Backend::KspRestricted`] arm
//! of the backend dispatch — reuses frozen path sets from the
//! [`PathSetCache`] it is handed, and on a fresh cache (the cold solve)
//! it is bit-identical to a hit.

use dctopo_graph::kshortest::{yen_k_shortest_with, YenWorkspace};
use dctopo_graph::{CsrNet, Graph, NodeId};
use dctopo_obs as obs;

use crate::cache::{FrozenPathSet, PathSetCache};
use crate::gk::{Cong, Core, Pairwise, Stop};
use crate::{validate, Commodity, FlowError, FlowOptions, SolvedFlow};

/// The largest `k` a solve accepts. Freezing cost grows about fourfold
/// per doubling of `k`: `{"backend":"ksp:K"}` to `topobench serve rrg
/// --switches 32 --ports 10 --degree 6 --threads 1` (release, one core
/// of a 2-core Intel Xeon) took 0.09 / 0.28 / 0.93 / 3.8 / 13.6 s for
/// K = 128 … 2,048, and K = 4,096 stalled the server past 30 s.
pub(crate) const MAX_KSP_K: usize = 256;

/// Solve max concurrent flow where commodity `j` may only use its `k`
/// shortest (by hop count) simple paths, frozen through `cache`;
/// `throughput` ≤ the unrestricted optimum by construction. Stopped as
/// soon as `λ ≥ floor` is certified either way when a `floor` is given.
///
/// Bit-identical whether `cache` hits or misses: a hit returns exactly
/// what the miss computed (Yen is deterministic). With tracing on, one
/// `ksp_solve` event closes the solve; its deterministic fields are the
/// same cold or cached.
pub(crate) fn solve_ksp(
    net: &CsrNet,
    commodities: &[Commodity],
    k: usize,
    opts: &FlowOptions,
    cache: &PathSetCache,
    floor: Option<f64>,
) -> Result<SolvedFlow, FlowError> {
    validate(net.node_count(), commodities, opts)?;
    if !(1..=MAX_KSP_K).contains(&k) {
        return Err(FlowError::BadOptions(format!(
            "ksp:{k} is outside k = 1..={MAX_KSP_K} paths per pair"
        )));
    }
    let t_solve = obs::clock();
    let paths = cache.freeze(net, commodities, k)?;
    let freeze_us = obs::us_since(t_solve);
    let mut core = Core::new(net, Cong::Reciprocal, None, opts.epsilon, 1);
    let mut pairs = Pairwise::new(commodities, &mut core, opts);
    let mut phases = 0usize;
    let mut stop = Stop::Phases;

    while phases < opts.max_phases {
        phases += 1;
        for (j, c) in commodities.iter().enumerate() {
            // cheapest path in the frozen set under current lengths
            let mut remaining = c.demand;
            let mut inner = 0;
            while remaining > 1e-12 && inner < 16 {
                inner += 1;
                let (best_path, _) = cheapest(&paths[j][..], core.length());
                // capacity-scaled step along that path
                let bottleneck = best_path
                    .iter()
                    .map(|&a| net.capacity(a))
                    .fold(f64::INFINITY, f64::min);
                let send = remaining.min(bottleneck);
                for &a in best_path {
                    core.grow(a, send);
                }
                // the one average keeps weight 1.0
                let avg = &mut core.averages_mut()[0];
                if let Some(record) = avg.record.as_mut() {
                    for &a in best_path {
                        record[j][a] += send;
                    }
                }
                avg.routed[j] += send;
                remaining -= send;
            }
        }
        core.rescale();
        let primal = pairs.snapshot(&core, phases);
        // the restricted dual: α over each commodity's cheapest frozen path
        if phases.is_multiple_of(4) {
            let alpha = restricted_alpha(commodities, &paths, &core);
            core.note_dual(core.d_l(), alpha, None);
        }
        if let Some(why) = core.verdict(primal, opts, phases, floor) {
            stop = why;
            break;
        }
    }
    // a solve that stopped before its first dual pass reads one at the
    // final lengths, so every solve returns a finite bound
    if core.best_dual() == f64::INFINITY {
        core.note_dual(
            core.d_l(),
            restricted_alpha(commodities, &paths, &core),
            None,
        );
    }
    let sol = pairs.finish(&mut core, phases, 0);
    if obs::enabled() {
        // hit / miss counts are `cache_key`'s: they race between solves
        obs::Event::new("ksp_solve")
            .field("k", k)
            .field("commodities", commodities.len())
            .field("paths", paths.iter().map(|p| p.len()).sum::<usize>())
            .field("phases", phases as u64)
            .field("stop", stop.name())
            .field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .nd("freeze_us", freeze_us)
            .nd("wall_us", obs::us_since(t_solve))
            .emit();
    }
    crate::debug_certify(|| sol.certify(net, commodities, Some(&paths)));
    Ok(sol)
}

/// `α` of the path-restricted problem: each commodity's demand times
/// its cheapest frozen path under the current lengths.
fn restricted_alpha(commodities: &[Commodity], paths: &[FrozenPathSet], core: &Core) -> f64 {
    (commodities.iter().zip(paths))
        .map(|(c, set)| c.demand * cheapest(&set[..], core.length()).1)
        .sum()
}

/// Freeze one `(src, dst)` pair's k-shortest path set as arc sequences
/// — what a [`PathSetCache`] miss runs.
///
/// Yen enumerates hop-metric node paths on the adjacency-list `g`; the
/// translation to arc ids goes through `net`, so the frozen sequences
/// always use the net's own arc numbering. That distinction matters on
/// degraded views: their [`CsrNet::to_graph`] rebuild compacts edge ids,
/// but the view's arc ids (which flow vectors index) stay aligned with
/// the base topology. `g` must be `net.to_graph()` (of this net or of a
/// same-structure view): Yen breaks equal-length ties in `g`'s per-node
/// neighbor order, which for that rebuild is ascending live edge id —
/// *not* the net's own adjacency order — and the frozen sets, the
/// cache's bitwise cold/warm identity and the KSP pins all assume it.
///
/// `ws` is the caller's, one per freeze loop, so Yen's spur searches
/// allocate nothing from the second pair on; what it served before does
/// not show in the output.
pub(crate) fn freeze_pair(
    g: &Graph,
    net: &CsrNet,
    src: NodeId,
    dst: NodeId,
    k: usize,
    ws: &mut YenWorkspace,
) -> Result<Vec<Vec<usize>>, FlowError> {
    let node_paths =
        yen_k_shortest_with(g, src, dst, k, ws).map_err(|_| FlowError::Unreachable { src, dst })?;
    node_paths
        .iter()
        .map(|p| nodes_to_arcs(net, p))
        .collect::<Result<Vec<_>, _>>()
}

fn cheapest<'p>(paths: &'p [Vec<usize>], length: &[f64]) -> (&'p Vec<usize>, f64) {
    let mut best = &paths[0];
    let mut best_len = f64::INFINITY;
    for p in paths {
        let l: f64 = p.iter().map(|&a| length[a]).sum();
        if l < best_len {
            best_len = l;
            best = p;
        }
    }
    (best, best_len)
}

/// Translate a node path into the net's arc ids: each hop takes
/// [`CsrNet::arc_between`], the first live adjacency slot from `u` to
/// `v`, i.e. the minimum arc id — the same arc the old
/// `Graph::find_edge` + `arc_of` translation chose (adjacency slots are
/// in edge-insertion order), pinned bitwise by the cache property suite.
fn nodes_to_arcs(net: &CsrNet, nodes: &[NodeId]) -> Result<Vec<usize>, FlowError> {
    nodes
        .windows(2)
        .map(|w| {
            let (src, dst) = (w[0], w[1]);
            net.arc_between(src, dst)
                .ok_or(FlowError::Unreachable { src, dst })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cold restricted solve of `g` on a fresh net and cache.
    fn ksp(
        g: &Graph,
        cs: &[Commodity],
        k: usize,
        o: &FlowOptions,
    ) -> Result<SolvedFlow, FlowError> {
        cold(&CsrNet::from_graph(g), cs, k, o)
    }

    /// A cold restricted solve on `net`.
    fn cold(
        net: &CsrNet,
        cs: &[Commodity],
        k: usize,
        o: &FlowOptions,
    ) -> Result<SolvedFlow, FlowError> {
        solve_ksp(net, cs, k, o, &PathSetCache::new(), None)
    }

    /// The unrestricted optimum's FPTAS solve of `g`.
    fn free(g: &Graph, cs: &[Commodity], o: &FlowOptions) -> SolvedFlow {
        crate::fptas::pairwise(&CsrNet::from_graph(g), cs, o, &[], None).unwrap()
    }

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.05,
            target_gap: 0.03,
            max_phases: 10000,
            stall_phases: 800,
            ..FlowOptions::default()
        }
    }

    /// k = 1 on a 4-cycle: only the one shortest route per direction is
    /// usable, so a single commodity gets half of what unrestricted
    /// multipath routing gets.
    #[test]
    fn single_path_halves_cycle_throughput() {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let cs = [Commodity::unit(0, 2)];
        let restricted = ksp(&g, &cs, 1, &opts()).unwrap();
        let free = free(&g, &cs, &opts());
        assert!(
            (restricted.throughput - 1.0).abs() < 0.05,
            "k=1: {}",
            restricted.throughput
        );
        assert!(
            (free.throughput - 2.0).abs() < 0.08,
            "free: {}",
            free.throughput
        );
    }

    /// k = 2 recovers the full cycle capacity.
    #[test]
    fn two_paths_recover_cycle() {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let cs = [Commodity::unit(0, 2)];
        let s = ksp(&g, &cs, 2, &opts()).unwrap();
        assert!((s.throughput - 2.0).abs() < 0.08, "k=2: {}", s.throughput);
    }

    /// Restricted throughput is monotone in k and never beats the
    /// unrestricted optimum.
    #[test]
    fn monotone_in_k_and_bounded() {
        // 5-node graph with parallel route structure
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let cs = [Commodity::unit(0, 4)];
        let free = free(&g, &cs, &opts()).throughput;
        let mut prev = 0.0;
        for k in 1..=3 {
            let t = ksp(&g, &cs, k, &opts()).unwrap().throughput;
            assert!(t >= prev - 0.02, "k={k} dropped: {t} < {prev}");
            assert!(t <= free * 1.02, "k={k} beat unrestricted: {t} > {free}");
            prev = t;
        }
        assert!(
            (prev - 3.0).abs() < 0.12,
            "k=3 should use all 3 disjoint paths: {prev}"
        );
    }

    /// Certificates hold in restricted mode too.
    #[test]
    fn restricted_certificates() {
        let mut g = Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        g.add_unit_edge(0, 3).unwrap();
        let cs = [
            Commodity::unit(0, 3),
            Commodity::unit(1, 4),
            Commodity::unit(2, 5),
        ];
        let s = ksp(&g, &cs, 4, &opts()).unwrap();
        let net = CsrNet::from_graph(&g);
        let paths = PathSetCache::new().freeze(&net, &cs, 4).unwrap();
        s.certify(&net, &cs, Some(&paths)).unwrap();
    }

    /// A solve that stops before the every-fourth-phase dual pass — on
    /// its phase budget or on the stall rule — still returns a finite
    /// bound, read at the final lengths, that the checker accepts.
    #[test]
    fn short_solves_return_a_finite_checked_bound() {
        let mut g = Graph::new(8);
        for v in 0..8 {
            g.add_unit_edge(v, (v + 1) % 8).unwrap();
        }
        g.add_unit_edge(0, 4).unwrap();
        let net = CsrNet::from_graph(&g);
        let cs = [
            Commodity::unit(0, 4),
            Commodity::unit(1, 5),
            Commodity::unit(6, 2),
        ];
        let paths = PathSetCache::new().freeze(&net, &cs, 2).unwrap();
        let budgets = (1..=3).map(|p| FlowOptions {
            max_phases: p,
            ..opts()
        });
        let stall = FlowOptions {
            stall_phases: 1,
            ..opts()
        };
        for o in budgets.chain([stall]) {
            let s = cold(&net, &cs, 2, &o).unwrap();
            assert!(s.phases < 4, "{} phases", s.phases);
            assert!(s.upper_bound.is_finite(), "{} phases: no bound", s.phases);
            assert!(s.upper_bound >= s.throughput);
            assert_eq!(s.dual_lengths.len(), net.arc_count());
            s.certify(&net, &cs, Some(&paths)).unwrap();
        }
    }

    /// A solve through a shared cache returns bit-identical results to
    /// a cold one, whether the cache is empty (miss path) or warm (hit
    /// path).
    #[test]
    fn cached_matches_cold_bitwise() {
        let mut g = Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        g.add_unit_edge(0, 3).unwrap();
        let net = CsrNet::from_graph(&g);
        let cs = [Commodity::unit(0, 3), Commodity::unit(1, 4)];
        let cache = PathSetCache::new();
        let fresh = cold(&net, &cs, 3, &opts()).unwrap();
        let miss = solve_ksp(&net, &cs, 3, &opts(), &cache, None).unwrap();
        let hit = solve_ksp(&net, &cs, 3, &opts(), &cache, None).unwrap();
        assert_eq!(cache.stats().hits, 2);
        for s in [&miss, &hit] {
            assert_eq!(fresh.throughput.to_bits(), s.throughput.to_bits());
            assert_eq!(fresh.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(fresh.phases, s.phases);
            for (x, y) in fresh.arc_flow.iter().zip(&s.arc_flow) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Solving on a failure delta view is bit-identical to solving on a
    /// net rebuilt from the degraded graph: the view's adjacency keeps
    /// the rebuild's neighbor order, so Yen, translation, and the
    /// multiplicative-weights trajectory all coincide.
    #[test]
    fn degraded_view_matches_rebuilt_net_bitwise() {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        // fail the middle route (edges 2 and 3: 0-2, 2-4)
        let view = net.with_disabled_arcs(&[2 << 1, 3 << 1]).unwrap();
        let rebuilt = CsrNet::from_graph(&view.to_graph());
        let cs = [Commodity::unit(0, 4)];
        let a = cold(&view, &cs, 3, &opts()).unwrap();
        let b = cold(&rebuilt, &cs, 3, &opts()).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.phases, b.phases);
        // no flow ever lands on the failed edges in the view's numbering
        for dead in [2 << 1, (2 << 1) | 1, 3 << 1, (3 << 1) | 1] {
            assert_eq!(a.arc_flow[dead], 0.0, "flow on failed arc {dead}");
        }
        // only the two surviving disjoint routes remain: λ ≈ 2
        assert!((a.throughput - 2.0).abs() < 0.08, "λ = {}", a.throughput);
    }

    #[test]
    fn k_is_capped_and_the_refusal_names_both() {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let cs = [Commodity::unit(0, 2)];
        // a 4-ring has two simple paths per pair: the cap is on k, not
        // on what Yen finds
        let s = ksp(&g, &cs, MAX_KSP_K, &opts()).unwrap();
        assert!((s.throughput - 2.0).abs() < 0.08, "λ = {}", s.throughput);
        let Err(FlowError::BadOptions(m)) = ksp(&g, &cs, MAX_KSP_K + 1, &opts()) else {
            panic!("k above the cap was accepted");
        };
        assert!(m.contains("ksp:257") && m.contains("256"), "{m}");
    }

    #[test]
    fn rejects_k_zero_and_unreachable() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let cs = [Commodity::unit(0, 1)];
        assert!(matches!(
            ksp(&g, &cs, 0, &opts()),
            Err(FlowError::BadOptions(_))
        ));
        let cs_bad = [Commodity::unit(0, 3)];
        assert!(matches!(
            ksp(&g, &cs_bad, 2, &opts()),
            Err(FlowError::Unreachable { .. })
        ));
    }
}
