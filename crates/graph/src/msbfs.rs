//! Batched multi-source BFS: up to 64 sources per traversal.
//!
//! The hop bound (`dctopo-core`'s `ladder::hop_alpha` — the sweep's
//! per-cell Theorem-1 bound, the search's level 0 and the planner's
//! screen) needs hop distances from *every* demand source, over the
//! [`CsrNet`] view about to be solved. One scalar BFS per source costs
//! `O(sources · (n + m))`; at 1024+ switches with all-to-all-scale
//! demand that is the dominant cost of every candidate evaluation.
//!
//! This module batches 64 sources into the bit-lanes of one `u64` per
//! node (the ms-BFS formulation of Then et al., VLDB 2014): a single
//! `O(n + m)` sweep per BFS *level* advances all lanes at once, and the
//! per-arc work is two word operations instead of 64 queue pushes. The
//! result layout is lane-major — `dist[lane * n + v]` — so each lane's
//! slice is directly comparable (bitwise: distances are exact `u32`
//! hop counts) to a scalar [`crate::paths::bfs_distances`] run from the
//! same source.
//!
//! Determinism: BFS levels are integer-valued and the word sweep visits
//! nodes in index order, so the output is a pure function of the graph
//! and the source list — no tie-breaking, no float rounding, no thread
//! interaction (the sweep is sequential; batching, not parallelism, is
//! the speedup).

use crate::csr::CsrNet;
use crate::paths::UNREACHABLE;
use crate::NodeId;

/// Maximum number of sources per [`ms_bfs_csr`] batch: the lane count of
/// one `u64` bitset word.
pub const MAX_LANES: usize = 64;

/// Reusable scratch state for batched multi-source BFS.
///
/// Holds one bitset word per node for the visited set, the current
/// frontier, and the next frontier, plus the lane-major distance
/// output. Reuse one workspace across batches (and across graphs of
/// different sizes — it regrows transparently): after warm-up no run
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct MsBfsWorkspace {
    /// `seen[v]` bit `l` set ⇔ lane `l`'s BFS has reached node `v`.
    seen: Vec<u64>,
    /// Nodes discovered in the current level, one lane bit each.
    frontier: Vec<u64>,
    /// Nodes being discovered for the next level.
    next: Vec<u64>,
    /// Lane-major hop distances: `dist[lane * n + v]`
    /// ([`UNREACHABLE`] where lane `lane`'s BFS never reached `v`).
    dist: Vec<u32>,
    /// Node count of the most recent run.
    n: usize,
    /// Lane count of the most recent run.
    lanes: usize,
}

impl MsBfsWorkspace {
    /// Workspace pre-sized for `n`-node graphs and full 64-lane batches.
    pub fn new(n: usize) -> Self {
        MsBfsWorkspace {
            seen: Vec::with_capacity(n),
            frontier: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            dist: Vec::with_capacity(n * MAX_LANES),
            n: 0,
            lanes: 0,
        }
    }

    /// Hop distances of lane `lane`'s source from the most recent run:
    /// one entry per node, [`UNREACHABLE`] where that BFS never arrived.
    /// Bitwise identical to [`crate::paths::bfs_distances`] from the
    /// same source.
    ///
    /// # Panics
    /// If `lane` is not less than the lane count of the last run.
    pub fn lane_distances(&self, lane: usize) -> &[u32] {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        &self.dist[lane * self.n..(lane + 1) * self.n]
    }

    /// Lane count of the most recent run (the batch's source count).
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Reset for a fresh run over `n` nodes and `lanes` lanes.
    fn begin(&mut self, n: usize, lanes: usize) {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "batch of {lanes} sources exceeds the {MAX_LANES}-lane word"
        );
        self.n = n;
        self.lanes = lanes;
        self.seen.clear();
        self.seen.resize(n, 0);
        self.frontier.clear();
        self.frontier.resize(n, 0);
        self.next.clear();
        self.next.resize(n, 0);
        self.dist.clear();
        self.dist.resize(n * lanes, UNREACHABLE);
    }

    /// Seed lane `lane` at source `s` (level 0).
    fn seed(&mut self, lane: usize, s: NodeId) {
        self.seen[s] |= 1 << lane;
        self.frontier[s] |= 1 << lane;
        self.dist[lane * self.n + s] = 0;
    }

    /// Record the lanes of `word` discovering node `v` at `level`.
    #[inline]
    fn record(&mut self, v: usize, mut word: u64, level: u32) {
        while word != 0 {
            let lane = word.trailing_zeros() as usize;
            self.dist[lane * self.n + v] = level;
            word &= word - 1;
        }
    }
}

/// Batched multi-source BFS over a [`CsrNet`] (hop metric: every live
/// arc counts 1; disabled arcs are absent from the adjacency and thus
/// invisible, exactly as in the weighted traversals). `sources[l]`
/// seeds lane `l`; read per-lane distances through
/// [`MsBfsWorkspace::lane_distances`].
///
/// Assumes the live arc set is direction-symmetric (`u→v` live iff
/// `v→u` live), which [`CsrNet::with_disabled_arcs`] guarantees by
/// construction — it always fails both arcs of a link together. The
/// bottom-up sweep direction pulls across out-arcs in reverse and
/// would see phantom edges under one-sided disabling.
///
/// The level-synchronous word sweep is direction-optimizing
/// (Beamer-style): sparse levels push frontier words along out-arcs
/// (top-down); once the frontier occupies at least 1/8 of the node
/// words — on expander-like fabrics that is every level past the
/// first — the sweep flips to a bottom-up pass that scans each
/// still-unseen node's neighbors and ORs their frontier words,
/// early-exiting as soon as every missing lane is covered. Both
/// directions compute the identical next-level lane sets (the level
/// sets are a pure function of net + sources), so the recorded
/// distances are byte-for-byte the same either way.
///
/// # Panics
/// If `sources` is empty or holds more than [`MAX_LANES`] entries.
/// Duplicate sources are permitted (the lanes simply march in
/// lock-step).
pub fn ms_bfs_csr(net: &CsrNet, sources: &[NodeId], ws: &mut MsBfsWorkspace) {
    let n = net.node_count();
    let neighbors = |v: NodeId| net.out_slots(v).1.iter().map(|&w| w as usize);
    ws.begin(n, sources.len());
    for (lane, &s) in sources.iter().enumerate() {
        assert!(s < n, "source {s} out of range for {n} nodes");
        ws.seed(lane, s);
    }
    let full: u64 = if sources.len() == MAX_LANES {
        u64::MAX
    } else {
        (1u64 << sources.len()) - 1
    };
    let mut frontier_nnz = ws.frontier.iter().filter(|&&w| w != 0).count();
    let mut level = 0u32;
    loop {
        level += 1;
        let mut any = false;
        if frontier_nnz * 8 >= n {
            // bottom-up: each unseen node pulls from its neighbors
            for v in 0..n {
                let unseen = full & !ws.seen[v];
                if unseen == 0 {
                    continue;
                }
                let mut acc = 0u64;
                for w in neighbors(v) {
                    acc |= ws.frontier[w];
                    if acc & unseen == unseen {
                        break;
                    }
                }
                let new = acc & unseen;
                if new != 0 {
                    ws.seen[v] |= new;
                    ws.next[v] |= new;
                    any = true;
                }
            }
        } else {
            // top-down: each frontier node pushes to its neighbors
            for v in 0..n {
                let f = ws.frontier[v];
                if f == 0 {
                    continue;
                }
                for w in neighbors(v) {
                    let new = f & !ws.seen[w];
                    if new != 0 {
                        ws.seen[w] |= new;
                        ws.next[w] |= new;
                        any = true;
                    }
                }
            }
        }
        if !any {
            break;
        }
        frontier_nnz = 0;
        for v in 0..n {
            let new = ws.next[v];
            if new != 0 {
                frontier_nnz += 1;
                ws.record(v, new, level);
            }
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next);
        ws.next[..n].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::bfs_distances;
    use crate::Graph;

    fn cube() -> Graph {
        let mut g = Graph::new(8);
        for u in 0..8usize {
            for b in 0..3 {
                let v = u ^ (1 << b);
                if u < v {
                    g.add_unit_edge(u, v).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn lanes_match_scalar_bfs_on_cube() {
        let g = cube();
        let sources: Vec<usize> = (0..8).collect();
        let mut ws = MsBfsWorkspace::new(g.node_count());
        ms_bfs_csr(&CsrNet::from_graph(&g), &sources, &mut ws);
        assert_eq!(ws.lane_count(), 8);
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(ws.lane_distances(lane), &bfs_distances(&g, s)[..]);
        }
    }

    #[test]
    fn disconnected_lanes_report_unreachable() {
        let mut g = Graph::new(5);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let mut ws = MsBfsWorkspace::default();
        ms_bfs_csr(&CsrNet::from_graph(&g), &[0, 2, 4], &mut ws);
        assert_eq!(
            ws.lane_distances(0),
            &[0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]
        );
        assert_eq!(
            ws.lane_distances(1),
            &[UNREACHABLE, UNREACHABLE, 0, 1, UNREACHABLE]
        );
        assert_eq!(
            ws.lane_distances(2),
            &[UNREACHABLE, UNREACHABLE, UNREACHABLE, UNREACHABLE, 0]
        );
    }

    #[test]
    fn csr_view_skips_disabled_arcs() {
        // path 0-1-2: failing edge 1-2 cuts node 2 off from lane 0
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        let e12 = g.add_unit_edge(1, 2).unwrap();
        let net = CsrNet::from_graph(&g);
        let view = net.with_disabled_arcs(&[e12 << 1]).unwrap();
        let mut ws = MsBfsWorkspace::default();
        ms_bfs_csr(&view, &[0], &mut ws);
        assert_eq!(ws.lane_distances(0), &[0, 1, UNREACHABLE]);
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        let g = cube();
        let mut ws = MsBfsWorkspace::default();
        ms_bfs_csr(&CsrNet::from_graph(&g), &[7], &mut ws);
        assert_eq!(ws.lane_distances(0), &bfs_distances(&g, 7)[..]);
        let mut small = Graph::new(2);
        small.add_unit_edge(0, 1).unwrap();
        ms_bfs_csr(&CsrNet::from_graph(&small), &[1, 0], &mut ws);
        assert_eq!(ws.lane_distances(0), &[1, 0]);
        assert_eq!(ws.lane_distances(1), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_batch_panics() {
        let g = cube();
        let sources = vec![0usize; 65];
        ms_bfs_csr(
            &CsrNet::from_graph(&g),
            &sources,
            &mut MsBfsWorkspace::default(),
        );
    }
}
