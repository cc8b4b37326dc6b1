//! Model test: the workspace Yen of `dctopo_graph::kshortest` against the
//! textbook transcription it replaced, kept here verbatim as
//! [`yen_reference`] — a fresh `seen` / `prev` / queue per spur search, a
//! fresh `banned_nodes` array and a `HashSet` of banned node pairs per
//! spur node. The whole `Result` must be equal: the same paths in the
//! same order, or the same error.
//!
//! Equality is the product here, not a convenience: the `ksp:k` backend
//! freezes these paths, and every `ksp` pin in the repository
//! (`trajectory_pins`, `cli_golden`, the serve transcripts) holds only
//! while the sets do not move.

use std::collections::HashSet;

use dctopo_graph::kshortest::{yen_k_shortest, yen_k_shortest_with, NodePath, YenWorkspace};
use dctopo_graph::{CsrNet, Graph, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shortest path by hop count avoiding a set of banned nodes and banned
/// edges (edges given as unordered node pairs). Returns the node sequence.
fn shortest_path_avoiding(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_edges: &HashSet<(NodeId, NodeId)>,
) -> Option<NodePath> {
    let n = g.node_count();
    let mut prev = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[src] = true;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        if v == dst {
            break;
        }
        for w in g.neighbors(v) {
            let key = if v < w { (v, w) } else { (w, v) };
            if seen[w] || banned_nodes[w] || banned_edges.contains(&key) {
                continue;
            }
            seen[w] = true;
            prev[w] = v;
            queue.push_back(w);
        }
    }
    if !seen[dst] {
        return None;
    }
    let mut path = vec![dst];
    let mut v = dst;
    while v != src {
        v = prev[v];
        path.push(v);
    }
    path.reverse();
    Some(path)
}

/// The reference: Yen's algorithm as `kshortest.rs` had it before the
/// workspace, body unchanged. Its two known defects are outside the
/// domain compared here — it returns one path for `k == 0`, and it
/// indexes out of bounds on an endpoint the graph does not have.
fn yen_reference(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Result<Vec<NodePath>, GraphError> {
    if src == dst {
        return Err(GraphError::Unrealizable(
            "k-shortest with src == dst".into(),
        ));
    }
    let no_nodes = vec![false; g.node_count()];
    let first = shortest_path_avoiding(g, src, dst, &no_nodes, &HashSet::new())
        .ok_or(GraphError::NoPath { src, dst })?;
    let mut found: Vec<NodePath> = vec![first];
    let mut candidates: Vec<NodePath> = Vec::new();
    while found.len() < k {
        let last = found.last().expect("at least one path found").clone();
        // For each spur node in the previous path, ban the edges that
        // previous paths with the same root used, ban root nodes, and
        // search for a deviation.
        for i in 0..last.len() - 1 {
            let spur = last[i];
            let root = &last[..=i];
            let mut banned_edges = HashSet::new();
            for p in &found {
                if p.len() > i && p[..=i] == *root {
                    let (a, b) = (p[i], p[i + 1]);
                    banned_edges.insert(if a < b { (a, b) } else { (b, a) });
                }
            }
            let mut banned_nodes = vec![false; g.node_count()];
            for &v in &root[..i] {
                banned_nodes[v] = true;
            }
            if let Some(tail) = shortest_path_avoiding(g, spur, dst, &banned_nodes, &banned_edges) {
                let mut path = root[..i].to_vec();
                path.extend(tail);
                if !found.contains(&path) && !candidates.contains(&path) {
                    candidates.push(path);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // pick the shortest candidate (stable tie-break on node sequence)
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.len().cmp(&b.len()).then_with(|| a.cmp(b)))
            .map(|(i, _)| i)
            .expect("candidates not empty");
        found.push(candidates.swap_remove(best));
    }
    Ok(found)
}

/// A seeded random multigraph of 2 to 24 nodes; parallel edges come
/// with the draw. Every third seed splits the nodes into two halves
/// with no crossing edge, so pairs across the split have no path.
fn random_multigraph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..=24usize);
    let m = rng.random_range(0..=3 * n);
    let split = seed.is_multiple_of(3);
    let mut g = Graph::new(n);
    for _ in 0..m {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u == v || (split && (u < n / 2) != (v < n / 2)) {
            continue;
        }
        g.add_unit_edge(u, v).expect("valid edge");
    }
    g
}

/// A random `d`-regular simple graph on `n` nodes (`n * d` even): pair
/// random free stubs of distinct, not yet adjacent nodes; start over
/// when the last stubs cannot be paired.
fn random_regular(n: usize, d: usize, rng: &mut StdRng) -> Graph {
    'attempt: loop {
        let mut g = Graph::new(n);
        let mut stubs: Vec<NodeId> = (0..n * d).map(|s| s % n).collect();
        while !stubs.is_empty() {
            let mut tries = 0;
            let (i, j) = loop {
                let i = rng.random_range(0..stubs.len());
                let j = rng.random_range(0..stubs.len());
                if stubs[i] != stubs[j] && !g.has_edge(stubs[i], stubs[j]) {
                    break (i.max(j), i.min(j));
                }
                tries += 1;
                if tries > 200 {
                    continue 'attempt;
                }
            };
            g.add_unit_edge(stubs[i], stubs[j]).expect("valid edge");
            stubs.swap_remove(i);
            stubs.swap_remove(j);
        }
        return g;
    }
}

/// What the cases covered, so a generator that stops reaching a corner
/// fails the test instead of thinning it.
#[derive(Default)]
struct Tally {
    cases: usize,
    no_path: usize,
    short_of_k: usize,
    single: usize,
}

/// One case through the reference, a fresh workspace and the shared one.
fn compare(g: &Graph, src: NodeId, dst: NodeId, k: usize, ws: &mut YenWorkspace, t: &mut Tally) {
    let want = yen_reference(g, src, dst, k);
    assert_eq!(
        yen_k_shortest(g, src, dst, k),
        want,
        "fresh workspace: {src} -> {dst}, k = {k}"
    );
    assert_eq!(
        yen_k_shortest_with(g, src, dst, k, ws),
        want,
        "shared workspace: {src} -> {dst}, k = {k}"
    );
    t.cases += 1;
    match &want {
        Err(GraphError::NoPath { .. }) => t.no_path += 1,
        Ok(paths) if paths.len() < k => t.short_of_k += 1,
        Ok(paths) if paths.len() == 1 => t.single += 1,
        _ => {}
    }
}

#[test]
fn workspace_yen_equals_the_textbook_on_10_000_seeded_cases() {
    // one workspace across every graph below, whatever its size
    let mut ws = YenWorkspace::default();
    let mut tally = Tally::default();

    // random multigraphs: parallel edges, disconnected pairs, k = 1 and
    // k far above the number of simple paths
    for seed in 0..400u64 {
        let g = random_multigraph(seed);
        let n = g.node_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x59E2);
        for _ in 0..5 {
            // src == dst is drawn now and then: the same error both sides
            let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
            for k in [1, 2, 3, 8, 40] {
                compare(&g, src, dst, k, &mut ws, &mut tally);
            }
        }
    }

    // the graphs `PathSetCache::freeze` hands to Yen: the `to_graph()`
    // rebuild of a failure view of a random regular graph, whose
    // per-node neighbour order is ascending live edge id
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x22A7 + seed);
        let n = rng.random_range(8..=40usize);
        let d = rng.random_range(3..=6usize);
        let rrg = random_regular(n + (n * d) % 2, d, &mut rng);
        let net = CsrNet::from_graph(&rrg);
        let failed: Vec<usize> = (0..rng.random_range(0..=8usize))
            .map(|_| rng.random_range(0..rrg.edge_count()) << 1)
            .collect();
        let view = net.with_disabled_arcs(&failed).expect("arcs in range");
        let g = view.to_graph();
        for _ in 0..12 {
            let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
            for k in [1, 4, 8] {
                compare(&g, src, dst, k, &mut ws, &mut tally);
            }
        }
    }

    assert!(tally.cases >= 10_000, "{} cases", tally.cases);
    assert!(tally.no_path >= 500, "{} disconnected", tally.no_path);
    assert!(tally.short_of_k >= 500, "{} short of k", tally.short_of_k);
    assert!(tally.single >= 500, "{} single-path", tally.single);
}
