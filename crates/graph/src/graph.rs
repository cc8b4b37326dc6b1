//! The capacitated multigraph data structure.
//!
//! [`Graph`] stores an undirected multigraph whose edges carry a capacity.
//! Flow algorithms consume the *arc view*: every undirected edge `e`
//! contributes two directed arcs `2e` (from `u` to `v`) and `2e + 1` (from
//! `v` to `u`), each with the full edge capacity. This mirrors the paper's
//! model where "each network edge is of unit capacity ... counting both
//! directions".

use crate::error::usable_capacity;
use crate::GraphError;

/// Dense node index. Nodes are `0..n`.
pub type NodeId = usize;
/// Index of an undirected edge.
pub type EdgeId = usize;
/// Index of a directed arc; arc `2e` is edge `e` oriented `u -> v`,
/// arc `2e + 1` is the reverse orientation.
pub type ArcId = usize;

/// One undirected capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Capacity available in *each* direction.
    pub capacity: f64,
}

/// An undirected capacitated multigraph with a directed arc view.
///
/// Parallel edges are allowed (the heterogeneous line-speed experiments
/// add extra high-speed trunks between switch pairs); self-loops are not.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// adjacency: for each node, the list of `(edge id, other endpoint)`.
    adj: Vec<Vec<(EdgeId, NodeId)>>,
}

impl Graph {
    /// Create an empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Reserve room for `edges` more edges and `degree` more neighbours
    /// per node, so a builder that knows its degree sequence grows no
    /// vector twice.
    pub fn reserve(&mut self, edges: usize, degree: usize) {
        self.edges.reserve_exact(edges);
        for adj in &mut self.adj {
            adj.reserve_exact(degree);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed arcs (always `2 * edge_count`).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.edges.len() * 2
    }

    /// Append an isolated node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.n += 1;
        self.n - 1
    }

    /// Add an undirected edge with the given capacity per direction.
    ///
    /// Returns the new edge id. Parallel edges are permitted; self-loops
    /// and capacities that are not normal positive floats are rejected.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, capacity: f64) -> Result<EdgeId, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let capacity = usable_capacity(capacity)?;
        let id = self.edges.len();
        self.edges.push(Edge { u, v, capacity });
        self.adj[u].push((id, v));
        self.adj[v].push((id, u));
        Ok(id)
    }

    /// Add an edge of unit capacity.
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        self.add_edge(u, v, 1.0)
    }

    /// The undirected edge with the given id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e]
    }

    /// All undirected edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Degree of `v` counting parallel edges.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Iterator over `(edge id, neighbor)` pairs incident to `v`.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adj[v]
    }

    /// Iterator over the neighbors of `v` (with multiplicity).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v].iter().map(|&(_, w)| w)
    }

    /// Whether at least one edge connects `u` and `v`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // iterate over the smaller adjacency list
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a].iter().any(|&(_, w)| w == b)
    }

    /// Some edge id connecting `u` and `v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a].iter().find(|&&(_, w)| w == b).map(|&(e, _)| e)
    }

    /// Total capacity counting both directions (the paper's `C`):
    /// `sum over edges of 2 * capacity`.
    pub fn total_capacity(&self) -> f64 {
        2.0 * self.edges.iter().map(|e| e.capacity).sum::<f64>()
    }

    // ---- arc view -------------------------------------------------------

    /// Tail (source) of the directed arc.
    #[inline]
    pub fn arc_tail(&self, a: ArcId) -> NodeId {
        let e = &self.edges[a >> 1];
        if a & 1 == 0 {
            e.u
        } else {
            e.v
        }
    }

    /// Head (target) of the directed arc.
    #[inline]
    pub fn arc_head(&self, a: ArcId) -> NodeId {
        let e = &self.edges[a >> 1];
        if a & 1 == 0 {
            e.v
        } else {
            e.u
        }
    }

    /// Capacity of the directed arc (equal to the undirected capacity).
    #[inline]
    pub fn arc_capacity(&self, a: ArcId) -> f64 {
        self.edges[a >> 1].capacity
    }

    /// The arc between `tail` and `head` realised by edge `e`.
    #[inline]
    pub fn arc_of(&self, e: EdgeId, tail: NodeId) -> ArcId {
        if self.edges[e].u == tail {
            e << 1
        } else {
            debug_assert_eq!(self.edges[e].v, tail);
            (e << 1) | 1
        }
    }

    /// Outgoing arcs of `v` as `(arc id, head)` pairs.
    pub fn out_arcs(&self, v: NodeId) -> impl Iterator<Item = (ArcId, NodeId)> + '_ {
        self.adj[v]
            .iter()
            .map(move |&(e, w)| (self.arc_of(e, v), w))
    }

    /// Remove edge `e` by swapping in the last edge (O(degree) work).
    ///
    /// Edge ids are *not* stable across removals: the previously-last edge
    /// takes over id `e`. This is only used internally by the swap
    /// machinery and by topology builders before any edge ids escape.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let last = self.edges.len() - 1;
        let removed = self.edges[e];
        self.adj[removed.u].retain(|&(id, _)| id != e);
        self.adj[removed.v].retain(|&(id, _)| id != e);
        if e != last {
            let moved = self.edges[last];
            for &(node, _) in &[(moved.u, ()), (moved.v, ())] {
                for entry in self.adj[node].iter_mut() {
                    if entry.0 == last {
                        entry.0 = e;
                    }
                }
            }
            self.edges.swap(e, last);
        }
        self.edges.pop();
    }

    /// Degree sequence `deg[v]` for all nodes.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n).map(|v| self.degree(v)).collect()
    }

    /// Check every node has the same degree `r`; returns `r` if so.
    pub fn regular_degree(&self) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let r = self.degree(0);
        (1..self.n).all(|v| self.degree(v) == r).then_some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.reserve(3, 2);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        g.add_unit_edge(2, 0).unwrap();
        g
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.arc_count(), 6);
        assert_eq!(g.total_capacity(), 6.0);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert_eq!(g.regular_degree(), Some(2));
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_unit_edge(0, 5),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_unit_edge(1, 1),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(0, 1, 0.0),
            Err(GraphError::BadCapacity { .. })
        ));
        assert!(matches!(
            g.add_edge(0, 1, f64::NAN),
            Err(GraphError::BadCapacity { .. })
        ));
        assert!(matches!(
            g.add_edge(0, 1, f64::INFINITY),
            Err(GraphError::BadCapacity { .. })
        ));
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        g.add_edge(0, 1, 10.0).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.total_capacity(), 22.0);
    }

    #[test]
    fn arc_view_orientations() {
        let mut g = Graph::new(3);
        let e = g.add_edge(1, 2, 4.0).unwrap();
        let fwd = e << 1;
        let bwd = fwd | 1;
        assert_eq!(g.arc_tail(fwd), 1);
        assert_eq!(g.arc_head(fwd), 2);
        assert_eq!(g.arc_tail(bwd), 2);
        assert_eq!(g.arc_head(bwd), 1);
        assert_eq!(g.arc_capacity(fwd), 4.0);
        assert_eq!(g.arc_capacity(bwd), 4.0);
        assert_eq!(g.arc_of(e, 1), fwd);
        assert_eq!(g.arc_of(e, 2), bwd);
    }

    #[test]
    fn out_arcs_cover_neighbors() {
        let g = triangle();
        let outs: Vec<_> = g.out_arcs(1).collect();
        assert_eq!(outs.len(), 2);
        for (a, head) in outs {
            assert_eq!(g.arc_tail(a), 1);
            assert_eq!(g.arc_head(a), head);
        }
    }

    #[test]
    fn remove_edge_swaps_last() {
        let mut g = triangle();
        g.remove_edge(0); // removes 0-1, edge 2 (2-0) takes id 0
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 0));
        // adjacency still consistent
        for v in 0..3 {
            for &(e, w) in g.incident(v) {
                let edge = g.edge(e);
                assert!((edge.u == v && edge.v == w) || (edge.v == v && edge.u == w));
            }
        }
    }

    #[test]
    fn add_node_grows() {
        let mut g = triangle();
        let v = g.add_node();
        assert_eq!(v, 3);
        assert_eq!(g.degree(v), 0);
        g.add_unit_edge(v, 0).unwrap();
        assert_eq!(g.degree(v), 1);
    }

    #[test]
    fn find_edge_on_multigraph() {
        let mut g = Graph::new(3);
        let e0 = g.add_unit_edge(0, 1).unwrap();
        let _e1 = g.add_unit_edge(0, 1).unwrap();
        let found = g.find_edge(1, 0).unwrap();
        assert!(found == e0 || found == _e1);
        assert!(g.find_edge(1, 2).is_none());
    }
}
