//! Shortest paths on the adjacency-list [`Graph`]: unweighted BFS,
//! all-pairs path statistics, and Dijkstra over arbitrary per-arc
//! lengths.
//!
//! [`path_stats`] is the all-pairs ASPL and diameter of the paper's
//! Figs. 1–3. The demand-weighted `⟨D⟩` of Theorem 1 and of the §6.1
//! decomposition is not here: it is `dctopo_core::ladder::hop_alpha`, a
//! batched BFS on the `CsrNet` view being solved. [`bfs_distances`]
//! feeds ECMP enumeration and is the oracle the batched BFS is tested
//! against; [`dijkstra`] is the oracle for [`crate::CsrNet::dijkstra`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{ArcId, Graph, GraphError, NodeId};

/// Hop distance used for unreachable nodes in BFS output.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source unweighted shortest-path (hop) distances.
///
/// Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v];
        for w in g.neighbors(v) {
            if dist[w] == UNREACHABLE {
                dist[w] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Aggregate all-pairs shortest-path statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStats {
    /// Average shortest path length over ordered reachable pairs.
    pub aspl: f64,
    /// Maximum shortest path length (the diameter).
    pub diameter: u32,
    /// Number of ordered node pairs considered.
    pub pairs: usize,
}

/// All-pairs average shortest path length and diameter over *all* nodes.
///
/// Fails with [`GraphError::Disconnected`] if any pair is unreachable.
pub fn path_stats(g: &Graph) -> Result<PathStats, GraphError> {
    let mut sum = 0u64;
    let mut pairs = 0usize;
    let mut diameter = 0u32;
    for src in 0..g.node_count() {
        for (w, &d) in bfs_distances(g, src).iter().enumerate() {
            if w == src {
                continue;
            }
            if d == UNREACHABLE {
                return Err(GraphError::Disconnected);
            }
            sum += u64::from(d);
            diameter = diameter.max(d);
            pairs += 1;
        }
    }
    if pairs == 0 {
        return Err(GraphError::Unrealizable(
            "no node pairs to average over".into(),
        ));
    }
    Ok(PathStats {
        aspl: sum as f64 / pairs as f64,
        diameter,
        pairs,
    })
}

#[derive(Copy, Clone, PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on dist; ties broken by node for determinism
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// Distance per node (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// For each node, the arc used to reach it in the tree
    /// (`None` for the source and unreachable nodes).
    pub parent_arc: Vec<Option<ArcId>>,
}

impl ShortestPathTree {
    /// Walk parent pointers from `dst` back to the source,
    /// returning the arcs in forward (source-to-dst) order.
    pub fn path_arcs(&self, g: &Graph, dst: NodeId) -> Option<Vec<ArcId>> {
        if !self.dist[dst].is_finite() {
            return None;
        }
        let mut arcs = Vec::new();
        let mut v = dst;
        while let Some(a) = self.parent_arc[v] {
            arcs.push(a);
            v = g.arc_tail(a);
        }
        arcs.reverse();
        Some(arcs)
    }
}

/// Dijkstra with a per-arc length function given as a slice indexed by
/// [`ArcId`]. Lengths must be non-negative.
///
/// This is the inner loop of the Fleischer max-concurrent-flow solver,
/// which re-runs it with exponentially reweighted lengths.
pub fn dijkstra(g: &Graph, src: NodeId, arc_len: &[f64]) -> ShortestPathTree {
    debug_assert_eq!(arc_len.len(), g.arc_count());
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent_arc = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if done[v] {
            continue;
        }
        done[v] = true;
        for (a, w) in g.out_arcs(v) {
            if done[w] {
                continue;
            }
            let nd = d + arc_len[a];
            if nd < dist[w] {
                dist[w] = nd;
                parent_arc[w] = Some(a);
                heap.push(HeapItem { dist: nd, node: w });
            }
        }
    }
    ShortestPathTree { dist, parent_arc }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    fn path4() -> Graph {
        let mut g = Graph::new(4);
        for v in 0..3 {
            g.add_unit_edge(v, v + 1).unwrap();
        }
        g
    }

    /// 3-cube (Q3): 8 nodes, degree 3.
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
    fn bfs_on_path() {
        let g = path4();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn path_stats_path4() {
        // ordered pairs distances: 1,2,3 (x2 directions) + 1,2 (x2) + 1 (x2) = 20 hops over 12 pairs
        let s = path_stats(&path4()).unwrap();
        assert_eq!(s.pairs, 12);
        assert!((s.aspl - 20.0 / 12.0).abs() < 1e-12);
        assert_eq!(s.diameter, 3);
    }

    #[test]
    fn path_stats_cube() {
        // Q3 ASPL = 12/7 (sum over distances 1,1,1,2,2,2,3 per source)
        let s = path_stats(&cube()).unwrap();
        assert!((s.aspl - 12.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.diameter, 3);
    }

    #[test]
    fn path_stats_disconnected_errors() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        assert_eq!(path_stats(&g), Err(GraphError::Disconnected));
    }

    #[test]
    fn dijkstra_unit_lengths_match_bfs() {
        let g = cube();
        let lens = vec![1.0; g.arc_count()];
        let t = dijkstra(&g, 0, &lens);
        let b = bfs_distances(&g, 0);
        for (dw, &du) in t.dist.iter().zip(&b) {
            assert!((dw - f64::from(du)).abs() < 1e-12);
        }
    }

    #[test]
    fn dijkstra_respects_weights() {
        // triangle where direct edge is longer than two-hop route
        let mut g = Graph::new(3);
        let e01 = g.add_unit_edge(0, 1).unwrap();
        let e12 = g.add_unit_edge(1, 2).unwrap();
        let e02 = g.add_unit_edge(0, 2).unwrap();
        let mut lens = vec![0.0; g.arc_count()];
        lens[e01 << 1] = 1.0;
        lens[(e01 << 1) | 1] = 1.0;
        lens[e12 << 1] = 1.0;
        lens[(e12 << 1) | 1] = 1.0;
        lens[e02 << 1] = 5.0;
        lens[(e02 << 1) | 1] = 5.0;
        let t = dijkstra(&g, 0, &lens);
        assert!((t.dist[2] - 2.0).abs() < 1e-12);
        let arcs = t.path_arcs(&g, 2).unwrap();
        assert_eq!(arcs.len(), 2);
        assert_eq!(g.arc_tail(arcs[0]), 0);
        assert_eq!(g.arc_head(arcs[1]), 2);
    }

    #[test]
    fn path_arcs_unreachable_is_none() {
        let mut g = Graph::new(2);
        let _ = g.add_node();
        g.add_unit_edge(0, 1).unwrap();
        let lens = vec![1.0; g.arc_count()];
        let t = dijkstra(&g, 0, &lens);
        assert!(t.path_arcs(&g, 2).is_none());
    }
}
