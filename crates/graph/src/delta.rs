//! Deterministic bucketed (delta-stepping) single-source shortest
//! paths over a [`CsrNet`], bitwise-compatible with
//! [`CsrNet::dijkstra`].
//!
//! **Status: no solver calls this module.** It was built to give the
//! FPTAS's full-tree passes bucket-level parallelism on 512+ switch
//! fabrics, and measured slower than [`CsrNet::dijkstra`] at every
//! pool width there (2.18 node expansions per node against one heap
//! pop, plus a fork/join barrier per wide round; see
//! `docs/PERF_NOTES.md`, *Resolution*), so every solver tree now comes
//! from the heap. The module stays only because the `benchmark/`
//! package probes it; it is to be deleted together with those probes.
//!
//! The formulation is delta-stepping (Meyer & Sanders): nodes are
//! grouped into distance buckets of width Δ, buckets are processed in
//! fixed ascending order, and the relaxations *within* a bucket — the
//! bulk of the work — fan out over the worker pool.
//!
//! ## Why the result is bitwise thread-count-invariant
//!
//! With non-negative lengths, the distances Dijkstra computes are the
//! unique least fixed point of the monotone relaxation
//! `d(w) = min(d(w), fl(d(u) + len(u→w)))` where `fl` is the IEEE-754
//! rounded float sum — i.e. `d(w)` is the minimum over all paths of the
//! float path sum evaluated front-to-back. *Any* relaxation schedule
//! that runs until no relaxation applies converges to that same fixed
//! point, so the final distance **bits** cannot depend on bucket
//! width, relaxation interleaving, or thread count. Parallel
//! relaxations race only through an order-independent atomic
//! minimum on the distance bits (IEEE-754 ordering equals numeric
//! ordering for non-negative floats), and every successful decrease
//! re-enqueues its node, so the run provably reaches the fixed point.
//!
//! Parent arcs are not computed during relaxation (the winning writer
//! of a racy minimum is schedule-dependent). Instead a sequential
//! post-pass grows the tree from the source in rounds: a node is
//! resolved once some already-resolved tail *achieves* its distance
//! exactly (`fl(dist(tail) + len) == dist(node)`), taking the minimum
//! `(dist(tail), tail id, arc id)` candidate of the earliest round that
//! offers one. Every reachable node has an achieving in-arc at the
//! fixed point (the arc that last set its distance achieves it), and a
//! descent argument on realizing paths shows the rounds never stall, so
//! the pass terminates with a valid, deterministically tie-broken
//! shortest-path tree — the same guarantee [`CsrNet::dijkstra_repair`]
//! documents for float-absorption plateaus.
//!
//! The workspace is left exactly as a completed [`CsrNet::dijkstra`]
//! would leave it (full `dist`/`parent_arc`, empty heap), so
//! [`CsrNet::dijkstra_repair`] may be applied on top.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use crate::csr::{pack, CsrNet, DijkstraWorkspace, NO_ARC};
use crate::NodeId;

/// Frontier size below which a bucket's relaxations run sequentially:
/// pool dispatch on a handful of nodes costs more than the arithmetic
/// it distributes. Purely a scheduling gate — the fixed point (and thus
/// the output bits) is identical either way.
const PAR_MIN_FRONTIER: usize = 256;

/// Bins of the frontier-occupancy histogram in [`DeltaStats`]:
/// bin `i` counts relaxation rounds whose frontier held
/// `[2^i, 2^(i+1))` nodes (the last bin absorbs everything larger).
pub const OCCUPANCY_BINS: usize = 24;

/// Aggregated execution statistics of the bucketed SSSP, accumulated
/// into the [`DijkstraWorkspace`] across [`sssp`] calls (mirroring the
/// settle counter) so sequential callers can snapshot/diff them per
/// solver phase.
///
/// While every round runs sequentially — one thread configured, or no
/// frontier reaching the parallel threshold — every field except the
/// `cas_*` pair is a pure function of the instance and lengths. Once a
/// round fans out that stops holding: a worker reads its node's
/// tentative distance while other workers may still be lowering it, so
/// which offers it makes, and with them the next round's frontier,
/// depend on the interleaving. Only the final distances and parents
/// are schedule-invariant then; every counter built on the round
/// frontiers (`light_rounds`, `expansions`, `edge_scans`, the round
/// classes, the histogram — and the workspace settle counter, which
/// sums expansions) wanders by a few units between runs, and
/// `par_rounds` is zero at one thread by definition. None of these
/// counters belongs among a trace's deterministic fields.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DeltaStats {
    /// Completed [`sssp`] runs.
    pub runs: u64,
    /// Buckets popped (outer loop iterations).
    pub buckets: u64,
    /// Light-loop relaxation rounds.
    pub light_rounds: u64,
    /// Light-loop node expansions: total frontier memberships across
    /// rounds. This is the Dijkstra-equivalent work the settle counter
    /// credits (a node re-expanded in a later round pays again, like a
    /// heap pop would).
    pub expansions: u64,
    /// Heavy-phase node expansions (once per node settled in a bucket).
    pub heavy_expansions: u64,
    /// Out-arc relaxation attempts scanned (light + heavy).
    pub edge_scans: u64,
    /// Relaxation rounds that fanned out on the worker pool
    /// (frontier ≥ the parallel threshold and more than one thread
    /// configured) — each one is a fork/join barrier.
    pub par_rounds: u64,
    /// Relaxation rounds that ran sequentially (below the threshold).
    pub seq_rounds: u64,
    /// Histogram of frontier sizes per round, log2 bins — see
    /// [`OCCUPANCY_BINS`].
    pub occupancy_hist: [u64; OCCUPANCY_BINS],
    /// Successful atomic distance decreases (**non-deterministic**:
    /// when two offers race, whether the larger one ever lands is
    /// schedule-dependent).
    pub cas_success: u64,
    /// Failed compare-exchange attempts (**non-deterministic**; pure
    /// contention signal).
    pub cas_retries: u64,
}

impl DeltaStats {
    /// Element-wise saturating difference `self - since`: the activity
    /// between two snapshots of an accumulating workspace counter.
    #[must_use]
    pub fn since(&self, earlier: &DeltaStats) -> DeltaStats {
        let mut occupancy_hist = [0u64; OCCUPANCY_BINS];
        for (o, (a, b)) in occupancy_hist
            .iter_mut()
            .zip(self.occupancy_hist.iter().zip(&earlier.occupancy_hist))
        {
            *o = a.saturating_sub(*b);
        }
        DeltaStats {
            runs: self.runs.saturating_sub(earlier.runs),
            buckets: self.buckets.saturating_sub(earlier.buckets),
            light_rounds: self.light_rounds.saturating_sub(earlier.light_rounds),
            expansions: self.expansions.saturating_sub(earlier.expansions),
            heavy_expansions: self
                .heavy_expansions
                .saturating_sub(earlier.heavy_expansions),
            edge_scans: self.edge_scans.saturating_sub(earlier.edge_scans),
            par_rounds: self.par_rounds.saturating_sub(earlier.par_rounds),
            seq_rounds: self.seq_rounds.saturating_sub(earlier.seq_rounds),
            occupancy_hist,
            cas_success: self.cas_success.saturating_sub(earlier.cas_success),
            cas_retries: self.cas_retries.saturating_sub(earlier.cas_retries),
        }
    }

    /// Merge another stats block into this one (plain sums).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.runs += other.runs;
        self.buckets += other.buckets;
        self.light_rounds += other.light_rounds;
        self.expansions += other.expansions;
        self.heavy_expansions += other.heavy_expansions;
        self.edge_scans += other.edge_scans;
        self.par_rounds += other.par_rounds;
        self.seq_rounds += other.seq_rounds;
        for (a, b) in self.occupancy_hist.iter_mut().zip(&other.occupancy_hist) {
            *a += b;
        }
        self.cas_success += other.cas_success;
        self.cas_retries += other.cas_retries;
    }

    /// Record one relaxation round (light or heavy) over
    /// `frontier_size` nodes.
    fn note_round(&mut self, frontier_size: usize, parallel: bool) {
        if parallel {
            self.par_rounds += 1;
        } else {
            self.seq_rounds += 1;
        }
        let bin = (usize::BITS - frontier_size.leading_zeros()) as usize;
        self.occupancy_hist[bin.saturating_sub(1).min(OCCUPANCY_BINS - 1)] += 1;
    }
}

/// Per-thread scratch for [`sssp`]: distance-bit atomics, dedup marks,
/// and the parent-pass candidate arrays. Thread-local because the
/// caller may invoke [`sssp`] from inside a parallel pass (one scratch
/// per worker); scratch contents never influence results.
#[derive(Default)]
struct Scratch {
    /// Tentative distance bits per node (`f64::INFINITY` = unreached).
    bits: Vec<AtomicU64>,
    /// Frontier dedup stamp, bumped per inner relaxation round.
    round_mark: Vec<u64>,
    round_gen: u64,
    /// Per-bucket settled dedup stamp (one bump per bucket pop).
    pop_mark: Vec<u64>,
    /// Parent-pass candidate: best `(pack(dist, tail), arc)` this round.
    cand_key: Vec<u128>,
    cand_arc: Vec<u32>,
    cand_mark: Vec<u64>,
    /// Parent-pass resolved stamp.
    resolved: Vec<u64>,
}

impl Scratch {
    fn begin(&mut self, n: usize) {
        if self.bits.len() < n {
            self.bits.resize_with(n, || AtomicU64::new(0));
            self.round_mark.resize(n, 0);
            self.pop_mark.resize(n, 0);
            self.cand_key.resize(n, 0);
            self.cand_arc.resize(n, 0);
            self.cand_mark.resize(n, 0);
            self.resolved.resize(n, 0);
        }
        let inf = f64::INFINITY.to_bits();
        for b in &self.bits[..n] {
            b.store(inf, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Atomically lower `bits[w]` to `nd` if `nd` is strictly smaller.
/// Returns whether this call performed the decrease, bumping `retries`
/// once per failed compare-exchange (a contention counter for the
/// trace's non-deterministic section). Order-independent: the final
/// cell value is the minimum of all offered values no matter how calls
/// interleave.
#[inline]
fn relax_min(bits: &[AtomicU64], w: usize, nd: f64, retries: &mut u64) -> bool {
    let nb = nd.to_bits();
    let mut cur = bits[w].load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) <= nd {
            return false;
        }
        match bits[w].compare_exchange_weak(cur, nb, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => {
                *retries += 1;
                cur = seen;
            }
        }
    }
}

#[inline]
fn load(bits: &[AtomicU64], v: usize) -> f64 {
    f64::from_bits(bits[v].load(Ordering::Relaxed))
}

/// Bucket index of distance `d` (monotone in `d`; saturates for huge
/// ratios, which only coarsens bucketing, never correctness).
#[inline]
fn bucket_of(d: f64, inv_delta: f64) -> u64 {
    (d * inv_delta) as u64
}

/// Bucketed parallel SSSP from `src` under `arc_len`, writing distances
/// and a valid deterministic shortest-path tree into `ws`.
///
/// Distances are **bitwise identical** to [`CsrNet::dijkstra`] (and
/// therefore to [`crate::paths::dijkstra`]) at every thread count; see
/// the module docs for why. Parent arcs form a valid shortest-path
/// tree with deterministic `(tail distance, tail id, arc id)`
/// tie-breaking — equal to Dijkstra's choice except inside
/// float-absorption plateaus, exactly the contract
/// [`CsrNet::dijkstra_repair`] already documents. The workspace ends in
/// completed-full-run state, so a repair may be layered on top.
///
/// `arc_len` must hold one non-negative entry per arc.
pub fn sssp(net: &CsrNet, src: NodeId, arc_len: &[f64], ws: &mut DijkstraWorkspace) {
    debug_assert_eq!(arc_len.len(), net.arc_count());
    let n = net.node_count();
    ws.begin(n);
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        run(net, src, arc_len, ws, &mut scratch);
    });
}

/// Mean length over live adjacency arcs — the bucket width Δ. Any
/// positive finite value is correct; the mean keeps typical frontiers
/// a few buckets wide under the FPTAS's skewed length distributions.
fn bucket_width(net: &CsrNet, arc_len: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut cnt = 0usize;
    for v in 0..net.node_count() {
        let (arcs, _) = net.out_slots(v);
        for &a in arcs {
            sum += arc_len[a as usize];
            cnt += 1;
        }
    }
    let mean = if cnt > 0 { sum / cnt as f64 } else { 1.0 };
    if mean.is_finite() && mean > 0.0 {
        mean
    } else {
        // degenerate lengths (all zero, or sums overflowing): one
        // bucket, i.e. plain chaotic relaxation — still the fixed point
        f64::MAX
    }
}

fn run(
    net: &CsrNet,
    src: NodeId,
    arc_len: &[f64],
    ws: &mut DijkstraWorkspace,
    scratch: &mut Scratch,
) {
    let n = net.node_count();
    scratch.begin(n);
    let delta = bucket_width(net, arc_len);
    let inv_delta = 1.0 / delta;
    scratch.bits[src].store(0.0f64.to_bits(), Ordering::Relaxed);
    let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    buckets.insert(0, vec![src as u32]);
    let mut st = DeltaStats {
        runs: 1,
        ..DeltaStats::default()
    };
    let mut settled: Vec<u32> = Vec::new();

    while let Some((b, mut list)) = buckets.pop_first() {
        st.buckets += 1;
        // one settled set per bucket pop: nodes whose bucket-b distance
        // is final once the light loop below converges
        let pop_gen = {
            scratch.round_gen += 1;
            scratch.round_gen
        };
        settled.clear();
        // -- light loop: relax arcs shorter than Δ until no relaxation
        //    lands back in bucket b --
        loop {
            scratch.round_gen += 1;
            let round_gen = scratch.round_gen;
            // frontier = current-bucket nodes, deduped for this round
            let mut frontier: Vec<u32> = Vec::with_capacity(list.len());
            for &v in &list {
                let vi = v as usize;
                if scratch.round_mark[vi] == round_gen {
                    continue;
                }
                if bucket_of(load(&scratch.bits, vi), inv_delta) != b {
                    continue; // stale: settled in an earlier bucket
                }
                scratch.round_mark[vi] = round_gen;
                frontier.push(v);
                if scratch.pop_mark[vi] != pop_gen {
                    scratch.pop_mark[vi] = pop_gen;
                    settled.push(v);
                }
            }
            if frontier.is_empty() {
                break;
            }
            st.light_rounds += 1;
            st.expansions += frontier.len() as u64;
            let decreased = relax(
                net,
                arc_len,
                &scratch.bits,
                &frontier,
                |len| len < delta,
                &mut st,
            );
            // re-bucket every decreased node; bucket-b landings loop
            list.clear();
            for &w in &decreased {
                let nb = bucket_of(load(&scratch.bits, w as usize), inv_delta);
                if nb == b {
                    list.push(w);
                } else {
                    buckets.entry(nb).or_default().push(w);
                }
            }
            if list.is_empty() {
                break;
            }
        }
        // -- heavy phase: arcs of length >= Δ, once per settled node,
        //    against its bucket-final distance --
        if !settled.is_empty() {
            st.heavy_expansions += settled.len() as u64;
            let decreased = relax(
                net,
                arc_len,
                &scratch.bits,
                &settled,
                |len| len >= delta,
                &mut st,
            );
            for &w in &decreased {
                let nb = bucket_of(load(&scratch.bits, w as usize), inv_delta);
                buckets.entry(nb).or_default().push(w);
            }
        }
    }

    for v in 0..n {
        ws.dist[v] = load(&scratch.bits, v);
    }
    // Dijkstra-equivalent work: every node *expansion* (an out-arc scan
    // of a frontier or heavy-settled node) counts, the way each heap
    // pop does on the scalar path. Counting unique settled nodes here
    // under-reported the bucketed path's actual work, because a node
    // re-entering the frontier across rounds scans its arcs each time.
    // The light term is schedule-dependent once a round has fanned out
    // (see `DeltaStats`), so unlike the heap's pop count this credit is
    // thread-count-invariant only while every round ran sequentially.
    ws.note_settles(st.expansions + st.heavy_expansions);
    ws.note_delta_stats(&st);
    assign_parents(net, src, arc_len, ws, scratch);
}

/// Relax the selected arcs (`keep(len)`) of every frontier node,
/// returning the nodes whose distance decreased. Fans out on the worker
/// pool above [`PAR_MIN_FRONTIER`]; the sequential and parallel paths
/// assemble the decreases in frontier-index order, but the parallel
/// path's decrease set itself depends on the interleaving (a node's
/// `du` is loaded while other workers may lower it). Statistics
/// accumulate into `st`; see [`DeltaStats`] for which survive that.
fn relax(
    net: &CsrNet,
    arc_len: &[f64],
    bits: &[AtomicU64],
    frontier: &[u32],
    keep: impl Fn(f64) -> bool + Sync,
    st: &mut DeltaStats,
) -> Vec<u32> {
    // per-node relaxation, counting into a task-local tally:
    // (decreases, scans, successes, retries)
    let relax_node = |u: u32| {
        let u = u as usize;
        let du = load(bits, u);
        let mut local: Vec<u32> = Vec::new();
        let (mut scans, mut success, mut retries) = (0u64, 0u64, 0u64);
        let (arcs, heads) = net.out_slots(u);
        for (&a, &w) in arcs.iter().zip(heads) {
            let len = arc_len[a as usize];
            if !keep(len) {
                continue;
            }
            scans += 1;
            let nd = du + len;
            if relax_min(bits, w as usize, nd, &mut retries) {
                success += 1;
                local.push(w);
            }
        }
        (local, scans, success, retries)
    };
    let parallel = frontier.len() >= PAR_MIN_FRONTIER && rayon::current_num_threads() > 1;
    st.note_round(frontier.len(), parallel);
    if parallel {
        let locals: Vec<(Vec<u32>, u64, u64, u64)> =
            frontier.par_iter().map(|&u| relax_node(u)).collect();
        let mut out = Vec::new();
        for (local, scans, success, retries) in locals {
            out.extend(local);
            st.edge_scans += scans;
            st.cas_success += success;
            st.cas_retries += retries;
        }
        out
    } else {
        let mut out = Vec::new();
        for &u in frontier {
            let (local, scans, success, retries) = relax_node(u);
            out.extend(local);
            st.edge_scans += scans;
            st.cas_success += success;
            st.cas_retries += retries;
        }
        out
    }
}

/// Sequential deterministic parent assignment over final distances; see
/// the module docs for the resolution rule and the no-stall argument.
fn assign_parents(
    net: &CsrNet,
    src: NodeId,
    arc_len: &[f64],
    ws: &mut DijkstraWorkspace,
    scratch: &mut Scratch,
) {
    scratch.round_gen += 1;
    let resolved_gen = scratch.round_gen;
    scratch.resolved[src] = resolved_gen;
    ws.parent_arc[src] = NO_ARC;
    let mut frontier: Vec<u32> = vec![src as u32];
    let mut next: Vec<u32> = Vec::new();
    while !frontier.is_empty() {
        scratch.round_gen += 1;
        let cand_gen = scratch.round_gen;
        next.clear();
        for &u in &frontier {
            let ui = u as usize;
            let du = ws.dist[ui];
            let (arcs, heads) = net.out_slots(ui);
            for (&a, &w) in arcs.iter().zip(heads) {
                let wi = w as usize;
                if scratch.resolved[wi] == resolved_gen {
                    continue;
                }
                let dw = ws.dist[wi];
                if !dw.is_finite() || du + arc_len[a as usize] != dw {
                    continue;
                }
                let key = pack(du, u);
                if scratch.cand_mark[wi] != cand_gen {
                    scratch.cand_mark[wi] = cand_gen;
                    scratch.cand_key[wi] = key;
                    scratch.cand_arc[wi] = a;
                    next.push(w);
                } else if (key, a) < (scratch.cand_key[wi], scratch.cand_arc[wi]) {
                    scratch.cand_key[wi] = key;
                    scratch.cand_arc[wi] = a;
                }
            }
        }
        for &w in &next {
            let wi = w as usize;
            scratch.resolved[wi] = resolved_gen;
            ws.parent_arc[wi] = scratch.cand_arc[wi];
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    debug_assert!(
        (0..net.node_count())
            .all(|v| !ws.dist[v].is_finite() || scratch.resolved[v] == resolved_gen),
        "parent pass stalled on a reachable node"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rayon::ThreadPoolBuilder;

    fn random_net(seed: u64, n: usize, extra_edges: usize) -> (Graph, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        // random spanning tree plus extra edges
        for v in 1..n {
            let u = rng.random_range(0..v);
            g.add_unit_edge(u, v).unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                let _ = g.add_unit_edge(u, v);
            }
        }
        let lens: Vec<f64> = (0..g.arc_count())
            .map(|_| rng.random_range(0.01..10.0f64))
            .collect();
        (g, lens)
    }

    #[test]
    fn matches_dijkstra_on_seeded_nets() {
        for seed in 0..20u64 {
            let (g, lens) = random_net(seed, 40, 60);
            let net = CsrNet::from_graph(&g);
            let mut cold = DijkstraWorkspace::new(net.node_count());
            net.dijkstra(0, &lens, &mut cold);
            let mut ws = DijkstraWorkspace::new(net.node_count());
            sssp(&net, 0, &lens, &mut ws);
            for v in 0..net.node_count() {
                assert_eq!(
                    ws.dist[v].to_bits(),
                    cold.dist[v].to_bits(),
                    "seed {seed} node {v}"
                );
            }
            // parents form a valid tree achieving the distances exactly
            for v in 0..net.node_count() {
                if v == 0 || !ws.dist[v].is_finite() {
                    continue;
                }
                let a = ws.parent(v).expect("reachable node has a parent");
                let t = net.arc_tail(a);
                assert_eq!(net.arc_head(a), v);
                assert_eq!((ws.dist[t] + lens[a]).to_bits(), ws.dist[v].to_bits());
            }
        }
    }

    #[test]
    fn repair_composes_on_top_of_bucketed_run() {
        let (g, mut lens) = random_net(7, 40, 60);
        let net = CsrNet::from_graph(&g);
        let mut ws = DijkstraWorkspace::new(net.node_count());
        sssp(&net, 0, &lens, &mut ws);
        // grow a few arcs and repair; distances must match a cold run
        let increased: Vec<u32> = vec![0, 2, 4];
        for &a in &increased {
            lens[a as usize] *= 3.0;
        }
        net.dijkstra_repair(0, &lens, &increased, &mut ws);
        let mut cold = DijkstraWorkspace::new(net.node_count());
        net.dijkstra(0, &lens, &mut cold);
        for v in 0..net.node_count() {
            assert_eq!(ws.dist[v].to_bits(), cold.dist[v].to_bits());
        }
    }

    #[test]
    fn disconnected_nodes_stay_unreachable() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let net = CsrNet::from_graph(&g);
        let lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(4);
        sssp(&net, 0, &lens, &mut ws);
        assert_eq!(ws.dist[1], 1.0);
        assert!(ws.dist[2].is_infinite());
        assert!(ws.parent(2).is_none());
    }

    /// A 300-node net never reaches a [`PAR_MIN_FRONTIER`]-node
    /// frontier, so every round below runs sequentially at every pool
    /// width: this pins the sequential rounds' counters only. Rounds
    /// that do fan out leave the counters schedule-dependent (see
    /// [`DeltaStats`]).
    #[test]
    fn stats_deterministic_and_settles_count_expansions() {
        let (g, lens) = random_net(11, 300, 900);
        let net = CsrNet::from_graph(&g);
        let run_at = |t: usize| {
            let pool = ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            pool.install(|| {
                let mut ws = DijkstraWorkspace::new(net.node_count());
                sssp(&net, 0, &lens, &mut ws);
                (ws.settles(), ws.delta_stats().clone())
            })
        };
        let (settles, base) = run_at(1);
        // settles credit every expansion: at least one per reachable
        // node, and exactly the expansion totals the stats carry
        assert!(settles >= net.node_count() as u64 - 1);
        assert_eq!(settles, base.expansions + base.heavy_expansions);
        assert_eq!(base.runs, 1);
        assert!(base.buckets > 0 && base.light_rounds > 0);
        // every relaxation round (light or heavy) lands in exactly one
        // scheduling class and one occupancy bin
        assert!(base.par_rounds + base.seq_rounds >= base.light_rounds);
        assert_eq!(
            base.occupancy_hist.iter().sum::<u64>(),
            base.par_rounds + base.seq_rounds
        );
        // with no parallel round (asserted), every field but the cas_*
        // pair is thread-count-invariant
        for t in [2usize, 8] {
            let (s, st) = run_at(t);
            assert_eq!(st.par_rounds, 0, "{t} threads: a round fanned out");
            assert_eq!(s, settles, "{t} threads: settles diverged");
            let mut masked = st.clone();
            masked.cas_success = base.cas_success;
            masked.cas_retries = base.cas_retries;
            assert_eq!(masked, base, "{t} threads: deterministic stats diverged");
        }
        // snapshot differencing isolates one run's activity
        let mut ws = DijkstraWorkspace::new(net.node_count());
        sssp(&net, 0, &lens, &mut ws);
        let snap = ws.delta_stats().clone();
        sssp(&net, 0, &lens, &mut ws);
        let one = ws.delta_stats().since(&snap);
        assert_eq!(one.runs, 1);
        assert_eq!(one.expansions, snap.expansions);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let (g, lens) = random_net(3, 300, 900);
        let net = CsrNet::from_graph(&g);
        let runs: Vec<Vec<u64>> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let pool = ThreadPoolBuilder::new().num_threads(t).build().unwrap();
                pool.install(|| {
                    let mut ws = DijkstraWorkspace::new(net.node_count());
                    sssp(&net, 0, &lens, &mut ws);
                    ws.dist.iter().map(|d| d.to_bits()).collect()
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }
}
