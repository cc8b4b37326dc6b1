//! k-shortest simple paths (Yen's algorithm, hop metric) and ECMP
//! shortest-path enumeration.
//!
//! The packet-level simulator routes MPTCP subflows over the `k` shortest
//! paths between each server pair, exactly as the paper's §8.2 ("MPTCP
//! with the shortest paths, using as many as 8 MPTCP subflows"), and the
//! `ksp:k` flow backend freezes the same sets per switch pair.
//!
//! Yen runs one breadth-first *spur search* per node of every path it
//! accepts, so the searches are the whole cost. They run on a
//! [`YenWorkspace`] — generation-stamped marks, a parent array and a flat
//! queue, the idiom of [`crate::DijkstraWorkspace`] — and allocate
//! nothing; what a call allocates is the paths it returns and the
//! candidates it keeps. The textbook transcription (a fresh `seen` /
//! `banned_nodes` / `HashSet` of banned node pairs per search) is the
//! reference in `crates/graph/tests/yen_model.rs`, compared `Result` for
//! `Result`.

use crate::graph::NodeId;
use crate::paths::{bfs_distances, UNREACHABLE};
use crate::{Graph, GraphError};

/// A simple path stored as the node sequence `src, ..., dst`.
pub type NodePath = Vec<NodeId>;

/// Reusable scratch state for [`yen_k_shortest_with`]: hold one across
/// the pairs of a freeze and no spur search allocates. Grows on demand,
/// so one workspace serves graphs of different sizes. Node ids are kept
/// as `u32`, as everywhere on the CSR side.
#[derive(Debug, Clone, Default)]
pub struct YenWorkspace {
    /// `seen[v] == gen` ⇔ the current spur search may not enter `v`:
    /// already discovered, or on the root path before the spur node.
    /// The textbook keeps two arrays and only ever reads them as
    /// `seen[w] || banned_nodes[w]`, so one stamp carries both.
    seen: Vec<u32>,
    /// `banned_next[w] == gen` ⇔ the hop *spur → `w`* is banned. Every
    /// edge Yen bans in a spur search is `(p[i], p[i + 1])` of an
    /// accepted path `p` with `p[i]` the spur node, so the set of banned
    /// node pairs is a mark on the spur's next hops, read only while the
    /// spur node itself is scanned (the reverse hop leads back into the
    /// spur node, which is seen).
    banned_next: Vec<u32>,
    /// BFS parent; written at discovery, read only along the found path.
    prev: Vec<u32>,
    /// Flat visit queue with a read cursor (a node is queued once).
    queue: Vec<u32>,
    /// Stamp of the current spur search (0 = never used).
    gen: u32,
    /// The candidate under construction: root path, then the spur tail.
    path: Vec<NodeId>,
}

impl YenWorkspace {
    /// A workspace pre-sized for `n`-node graphs.
    pub fn new(n: usize) -> Self {
        YenWorkspace {
            seen: vec![0; n],
            banned_next: vec![0; n],
            prev: vec![0; n],
            queue: Vec::with_capacity(n),
            ..YenWorkspace::default()
        }
    }

    /// Open a spur search on an `n`-node graph behind `root`, the path
    /// from the source up to but excluding the spur node: every mark of
    /// the last search lapses by a generation bump, not a fill, and the
    /// root's nodes are closed to this one.
    fn begin(&mut self, n: usize, root: &[NodeId]) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.banned_next.resize(n, 0);
            self.prev.resize(n, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // the counter wrapped: stale stamps could alias
            self.seen.fill(0);
            self.banned_next.fill(0);
            self.gen = 1;
        }
        self.path.clear();
        self.path.extend_from_slice(root);
        for &v in root {
            self.seen[v] = self.gen;
        }
    }

    /// Hop-shortest path from `spur` to `dst` under the marks set since
    /// [`begin`](Self::begin), appended to the root in `self.path` as
    /// `spur, ..., dst`; `false` when the marks cut `dst` off.
    ///
    /// Neighbours are scanned in `g.incident(v)` order and the search
    /// stops when `dst` is *discovered*: its parent is final from then
    /// on, and so is every parent behind it, so this is the path the
    /// textbook search — which runs until `dst` is dequeued — returns.
    fn spur_search(&mut self, g: &Graph, spur: NodeId, dst: NodeId) -> bool {
        let gen = self.gen;
        self.seen[spur] = gen;
        self.queue.clear();
        self.queue.push(spur as u32);
        let mut head = 0;
        'bfs: loop {
            let Some(&v) = self.queue.get(head) else {
                return false;
            };
            let at_spur = head == 0;
            head += 1;
            for &(_, w) in g.incident(v as usize) {
                if self.seen[w] == gen || (at_spur && self.banned_next[w] == gen) {
                    continue;
                }
                self.seen[w] = gen;
                self.prev[w] = v;
                if w == dst {
                    break 'bfs;
                }
                self.queue.push(w as u32);
            }
        }
        let tail = self.path.len();
        let mut v = dst;
        while v != spur {
            self.path.push(v);
            v = self.prev[v] as usize;
        }
        self.path.push(spur);
        self.path[tail..].reverse();
        true
    }
}

/// Both enumerators' prologue: endpoints in range and distinct.
fn check_endpoints(g: &Graph, src: NodeId, dst: NodeId, what: &str) -> Result<(), GraphError> {
    let n = g.node_count();
    if let Some(node) = [src, dst].into_iter().find(|&v| v >= n) {
        return Err(GraphError::NodeOutOfRange { node, n });
    }
    if src == dst {
        return Err(GraphError::Unrealizable(format!("{what} with src == dst")));
    }
    Ok(())
}

/// Yen's algorithm: up to `k` shortest *simple* paths from `src` to `dst`
/// by hop count, in non-decreasing length order.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// simple paths (none for `k == 0`); errors when an endpoint is out of
/// range, when `src == dst`, or when no path exists at all.
///
/// Allocates one [`YenWorkspace`]; a loop over pairs should hold its own
/// and call [`yen_k_shortest_with`].
pub fn yen_k_shortest(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Result<Vec<NodePath>, GraphError> {
    yen_k_shortest_with(g, src, dst, k, &mut YenWorkspace::new(g.node_count()))
}

/// [`yen_k_shortest`] on a reusable workspace: the same paths in the same
/// order, whatever the workspace served before.
///
/// Two rules fix the output and everything frozen from it (the `ksp:k`
/// path sets and their pins): a spur search takes the first hop-shortest
/// path in `g.incident(v)` scan order, and among the candidates the next
/// path is the least by `(length, node sequence)`.
pub fn yen_k_shortest_with(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    ws: &mut YenWorkspace,
) -> Result<Vec<NodePath>, GraphError> {
    check_endpoints(g, src, dst, "k-shortest")?;
    if k == 0 {
        return Ok(Vec::new());
    }
    let n = g.node_count();
    ws.begin(n, &[]);
    if !ws.spur_search(g, src, dst) {
        return Err(GraphError::NoPath { src, dst });
    }
    let mut found: Vec<NodePath> = vec![ws.path.clone()];
    let mut candidates: Vec<NodePath> = Vec::new();
    while found.len() < k {
        let last = &found[found.len() - 1];
        // For each spur node of the previous path: ban the root before
        // it and the next hop of every accepted path with the same root,
        // and search for a deviation.
        for i in 0..last.len() - 1 {
            let root = &last[..=i];
            ws.begin(n, &root[..i]);
            for p in found.iter().filter(|p| p.starts_with(root)) {
                ws.banned_next[p[i + 1]] = ws.gen;
            }
            // (a deviation is never an accepted path: its hop out of the
            // spur node is one no accepted path with this root takes)
            if ws.spur_search(g, root[i], dst) && !candidates.contains(&ws.path) {
                candidates.push(ws.path.clone());
            }
        }
        // the least candidate by (length, node sequence)
        let Some(best) =
            (0..candidates.len()).min_by_key(|&c| (candidates[c].len(), &candidates[c]))
        else {
            break;
        };
        found.push(candidates.swap_remove(best));
    }
    Ok(found)
}

/// Enumerate up to `limit` distinct *shortest* paths (all of minimal hop
/// count) from `src` to `dst`, via DFS over the shortest-path DAG.
///
/// This models ECMP: equal-cost multipath routing spreads traffic over
/// exactly these paths. Errors as [`yen_k_shortest`] does.
pub fn ecmp_shortest_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    limit: usize,
) -> Result<Vec<NodePath>, GraphError> {
    check_endpoints(g, src, dst, "ecmp")?;
    let dist_to_dst = bfs_distances(g, dst);
    if dist_to_dst[src] == UNREACHABLE {
        return Err(GraphError::NoPath { src, dst });
    }
    let mut out = Vec::new();
    let mut stack = vec![src];
    dfs_dag(g, dst, &dist_to_dst, &mut stack, &mut out, limit);
    Ok(out)
}

fn dfs_dag(
    g: &Graph,
    dst: NodeId,
    dist_to_dst: &[u32],
    stack: &mut Vec<NodeId>,
    out: &mut Vec<NodePath>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    let v = *stack.last().expect("stack non-empty");
    if v == dst {
        out.push(stack.clone());
        return;
    }
    // a shortest path must strictly decrease distance-to-destination
    let dv = dist_to_dst[v];
    let mut nexts: Vec<NodeId> = g
        .neighbors(v)
        .filter(|&w| dist_to_dst[w] != UNREACHABLE && dist_to_dst[w] + 1 == dv)
        .collect();
    nexts.sort_unstable();
    nexts.dedup();
    for w in nexts {
        stack.push(w);
        dfs_dag(g, dst, dist_to_dst, stack, out, limit);
        stack.pop();
        if out.len() >= limit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-cycle 0-1-2-3-0.
    fn cycle4() -> Graph {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        g
    }

    #[test]
    fn yen_on_cycle() {
        let g = cycle4();
        let ps = yen_k_shortest(&g, 0, 2, 5).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].len(), 3); // both routes are 2 hops
        assert_eq!(ps[1].len(), 3);
        assert_ne!(ps[0], ps[1]);
    }

    #[test]
    fn yen_orders_by_length() {
        // path 0-1-2 plus chord 0-2: shortest is direct, second is 2 hops
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        g.add_unit_edge(0, 2).unwrap();
        let ps = yen_k_shortest(&g, 0, 2, 5).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0], vec![0, 2]);
        assert_eq!(ps[1], vec![0, 1, 2]);
    }

    #[test]
    fn yen_no_path_errors() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        assert!(matches!(
            yen_k_shortest(&g, 0, 2, 3),
            Err(GraphError::NoPath { .. })
        ));
    }

    #[test]
    fn yen_paths_are_simple() {
        // complete graph K5: plenty of paths; all must be simple
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in u + 1..5 {
                g.add_unit_edge(u, v).unwrap();
            }
        }
        let ps = yen_k_shortest(&g, 0, 4, 10).unwrap();
        assert!(ps.len() >= 4);
        for p in &ps {
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(q.len(), p.len(), "path revisits a node: {p:?}");
            assert_eq!(p[0], 0);
            assert_eq!(*p.last().unwrap(), 4);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
        // lengths non-decreasing
        for w in ps.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    /// `k == 0` asks for nothing and gets nothing; an endpoint the graph
    /// does not have is a typed error from both enumerators.
    #[test]
    fn edges_of_the_domain_are_typed_not_panics() {
        let g = cycle4();
        assert_eq!(yen_k_shortest(&g, 0, 2, 0), Ok(vec![]));
        assert_eq!(ecmp_shortest_paths(&g, 0, 2, 0), Ok(vec![]));
        for (src, dst, node) in [(0, 7, 7), (9, 1, 9), (4, 4, 4)] {
            let err = Err(GraphError::NodeOutOfRange { node, n: 4 });
            assert_eq!(yen_k_shortest(&g, src, dst, 2), err);
            assert_eq!(yen_k_shortest(&g, src, dst, 0), err);
            assert_eq!(ecmp_shortest_paths(&g, src, dst, 2), err);
        }
        assert!(matches!(
            yen_k_shortest(&g, 1, 1, 0),
            Err(GraphError::Unrealizable(_))
        ));
    }

    /// Ring of `n` nodes with chords `v — v + 2` and one parallel edge.
    fn chorded_ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_unit_edge(v, (v + 1) % n).unwrap();
            g.add_unit_edge(v, (v + 2) % n).unwrap();
        }
        g.add_unit_edge(0, 1).unwrap();
        g
    }

    /// One workspace carried across graphs of different node counts, and
    /// across the generation counter's wrap, answers like a fresh one.
    #[test]
    fn a_reused_workspace_answers_like_a_fresh_one() {
        let mut ws = YenWorkspace::default();
        for round in 0..3 {
            for n in [12, 5, 9, 30, 6] {
                let g = chorded_ring(n);
                if round == 1 {
                    // a dozen searches from the wrap, stale stamps of
                    // every earlier generation still in the arrays
                    ws.gen = u32::MAX - 12;
                }
                for dst in 1..n {
                    let fresh = yen_k_shortest(&g, 0, dst, 8);
                    assert_eq!(yen_k_shortest_with(&g, 0, dst, 8, &mut ws), fresh);
                    assert_eq!(fresh.unwrap().len(), 8);
                }
            }
            assert!(round != 1 || ws.gen < 1 << 20, "the counter wrapped");
        }
    }

    #[test]
    fn ecmp_counts_shortest_paths() {
        let g = cycle4();
        let ps = ecmp_shortest_paths(&g, 0, 2, 8).unwrap();
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.len(), 3);
        }
    }

    #[test]
    fn ecmp_respects_limit() {
        // hypercube Q3 has 6 shortest 0->7 paths
        let mut g = Graph::new(8);
        for u in 0..8usize {
            for b in 0..3 {
                let v = u ^ (1 << b);
                if u < v {
                    g.add_unit_edge(u, v).unwrap();
                }
            }
        }
        let all = ecmp_shortest_paths(&g, 0, 7, 100).unwrap();
        assert_eq!(all.len(), 6);
        let capped = ecmp_shortest_paths(&g, 0, 7, 4).unwrap();
        assert_eq!(capped.len(), 4);
    }
}
