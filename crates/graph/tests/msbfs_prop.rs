//! Property test: batched multi-source BFS is bitwise-equal to one
//! scalar BFS per source, across 50 seeded random graphs including
//! deliberately disconnected ones and degraded [`CsrNet`] delta views.
//!
//! Hop distances are exact `u32` level counts, so "bitwise" here is
//! plain integer equality lane by lane — any divergence (including in
//! the direction-optimizing bottom-up sweep) is a hard failure, not a
//! tolerance question.

use dctopo_graph::paths::bfs_distances;
use dctopo_graph::{ms_bfs_csr, CsrNet, Graph, MsBfsWorkspace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded random multigraph. Every third seed splits the nodes into
/// two halves with no crossing edges, guaranteeing disconnection (and
/// isolated nodes appear naturally at low edge counts).
fn random_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..=120usize);
    let m = rng.random_range(0..=3 * n);
    let split = seed.is_multiple_of(3);
    let cut = n / 2;
    let mut g = Graph::new(n);
    for _ in 0..m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        if split && (u < cut) != (v < cut) {
            continue;
        }
        g.add_unit_edge(u, v).expect("valid edge");
    }
    g
}

/// Up to 64 distinct sources, order shuffled by the seed.
fn random_sources(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in (1..all.len()).rev() {
        all.swap(i, rng.random_range(0..=i));
    }
    all.truncate(n.min(64));
    all
}

#[test]
fn ms_bfs_matches_scalar_bfs_on_50_seeded_graphs() {
    let mut ws = MsBfsWorkspace::default();
    for seed in 0..50u64 {
        let g = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBF5F);
        let sources = random_sources(&mut rng, g.node_count());
        ms_bfs_csr(&CsrNet::from_graph(&g), &sources, &mut ws);
        assert_eq!(ws.lane_count(), sources.len());
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                ws.lane_distances(lane),
                &bfs_distances(&g, s)[..],
                "seed {seed}: lane {lane} (source {s}) diverged from scalar BFS"
            );
        }
    }
}

#[test]
fn ms_bfs_csr_matches_scalar_bfs_on_degraded_views() {
    let mut ws = MsBfsWorkspace::default();
    for seed in 0..50u64 {
        let g = random_graph(seed);
        let net = CsrNet::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
        // fail up to a third of the links (both arcs go together),
        // pushing many seeds into disconnection
        let kill: Vec<usize> = (0..net.arc_count())
            .filter(|_| rng.random_bool(0.33))
            .collect();
        let view = if kill.is_empty() {
            net.clone()
        } else {
            net.with_disabled_arcs(&kill).expect("arcs in range")
        };
        let sources = random_sources(&mut rng, view.node_count());
        ms_bfs_csr(&view, &sources, &mut ws);
        // the scalar reference sees exactly the view's live adjacency
        let live = view.to_graph();
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                ws.lane_distances(lane),
                &bfs_distances(&live, s)[..],
                "seed {seed}: lane {lane} (source {s}) diverged on the degraded view"
            );
        }
    }
}
