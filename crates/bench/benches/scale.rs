//! Scale smoke benchmark: the production-size fabric path end to end.
//!
//! The instance is `RRG(switches, 32 ports, degree 16)` — 16 servers
//! per switch — under aggregated all-to-all traffic, the shape the
//! paper's headline plots use and the one that breaks naive per-pair
//! code: at the default 1024 switches there are 16384 servers and
//! ~268M server flows, which never exist individually anywhere in this
//! run. Four gates:
//!
//! 1. **ms-BFS ≥ 4× over scalar BFS** on the Theorem-1 hop-bound
//!    ladder: the all-to-all hop sum `α = Σ_u s_u Σ_{v≠u} s_v·hop(u,v)`
//!    computed by 64-lane batched BFS must be **bitwise equal** to the
//!    per-source scalar sweep (identical summation order) and at least
//!    4× faster.
//! 2. **Certified aggregated solve within budget**: the grouped-demand
//!    solver produces a valid certified interval on the full instance
//!    inside `DCTOPO_SCALE_BUDGET_MS`, with the network λ also under
//!    the independently computed hop bound.
//! 3. **Bit-identical solve at 1/2/8 threads**: the same solve through
//!    scoped rayon pools of 1, 2 and 8 threads returns bitwise-equal
//!    λ, dual bound and arc flows, and the same settle count — the
//!    grouped solver builds every tree with the sequential heap
//!    Dijkstra and touches the pool nowhere.
//! 4. **Width costs nothing**: within this one run, the 2- and
//!    8-thread walls are each at most 1.15× the 1-thread wall. (Before
//!    the bucketed SSSP left the solver, its per-round fork/join made
//!    eight threads 0.83× of one on this instance.)
//!
//! Knobs (env): `DCTOPO_SCALE_SWITCHES` (default 1024; CI runs small),
//! `DCTOPO_SCALE_PHASES` (GK phase cap, default 2 — the gates check
//! determinism and budget, not gap tightness), `DCTOPO_SCALE_BUDGET_MS`
//! (per-solve wall budget, default 600000).
//!
//! ```text
//! DCTOPO_BENCH_JSON=BENCH_scale.json cargo bench -p dctopo-bench --bench scale
//! ```

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dctopo_bench::report::{self, SpeedupRecord};
use dctopo_core::ThroughputEngine;
use dctopo_flow::FlowOptions;
use dctopo_graph::msbfs::MAX_LANES;
use dctopo_graph::paths::{bfs_distances_with, UNREACHABLE};
use dctopo_graph::{ms_bfs_csr, BfsWorkspace, CsrNet, Graph, MsBfsWorkspace};
use dctopo_topology::Topology;
use dctopo_traffic::AggregateTraffic;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// All-to-all hop sum via one scalar BFS per source, the pre-batching
/// code path. Summation order: sources ascending, sinks ascending.
fn hop_alpha_scalar(g: &Graph, weights: &[f64], ws: &mut BfsWorkspace) -> f64 {
    let mut alpha = 0.0f64;
    for (u, &su) in weights.iter().enumerate() {
        if su == 0.0 {
            continue;
        }
        bfs_distances_with(g, u, ws);
        let dist = ws.distances();
        let mut acc = 0.0f64;
        for (v, &sv) in weights.iter().enumerate() {
            if v == u || sv == 0.0 {
                continue;
            }
            assert_ne!(dist[v], UNREACHABLE, "instance must be connected");
            acc += sv * f64::from(dist[v]);
        }
        alpha += su * acc;
    }
    alpha
}

/// The same hop sum via 64-lane batched multi-source BFS, in the same
/// summation order, so the result must be bit-identical.
fn hop_alpha_msbfs(net: &CsrNet, weights: &[f64], ws: &mut MsBfsWorkspace) -> f64 {
    let sources: Vec<usize> = (0..weights.len()).filter(|&u| weights[u] > 0.0).collect();
    let mut alpha = 0.0f64;
    for batch in sources.chunks(MAX_LANES) {
        ms_bfs_csr(net, batch, ws);
        for (lane, &u) in batch.iter().enumerate() {
            let dist = ws.lane_distances(lane);
            let mut acc = 0.0f64;
            for (v, &sv) in weights.iter().enumerate() {
                if v == u || sv == 0.0 {
                    continue;
                }
                assert_ne!(dist[v], UNREACHABLE, "instance must be connected");
                acc += sv * f64::from(dist[v]);
            }
            alpha += weights[u] * acc;
        }
    }
    alpha
}

fn bench_scale(c: &mut Criterion) {
    let switches = env_usize("DCTOPO_SCALE_SWITCHES", 1024);
    let phase_cap = env_usize("DCTOPO_SCALE_PHASES", 2);
    let budget_ms = env_usize("DCTOPO_SCALE_BUDGET_MS", 600_000) as f64;

    let mut rng = StdRng::seed_from_u64(20140402);
    let topo = Topology::random_regular(switches, 32, 16, &mut rng).expect("rrg");
    let net = CsrNet::from_graph(&topo.graph);
    let weights: Vec<f64> = topo.servers_at.iter().map(|&s| s as f64).collect();
    let agg = AggregateTraffic::all_to_all(topo.server_count());

    // ---- gate 1: ms-BFS hop-bound ladder, bitwise-equal and >= 4x ----
    let mut bfs_ws = BfsWorkspace::new(switches);
    let mut ms_ws = MsBfsWorkspace::new(switches);
    // warm both workspaces, then best-of-3 to shrug off scheduler noise
    let mut alpha_scalar = hop_alpha_scalar(&topo.graph, &weights, &mut bfs_ws);
    let mut alpha_ms = hop_alpha_msbfs(&net, &weights, &mut ms_ws);
    let mut scalar_ms = f64::INFINITY;
    let mut msbfs_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        alpha_scalar = hop_alpha_scalar(&topo.graph, &weights, &mut bfs_ws);
        scalar_ms = scalar_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        alpha_ms = hop_alpha_msbfs(&net, &weights, &mut ms_ws);
        msbfs_ms = msbfs_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(
        alpha_scalar.to_bits(),
        alpha_ms.to_bits(),
        "64-lane hop sum diverged from the scalar sweep"
    );
    let bfs_speedup = scalar_ms / msbfs_ms;
    assert!(
        bfs_speedup >= 4.0,
        "ms-BFS must run the hop-bound ladder >= 4x faster than \
         per-source scalar BFS, measured {bfs_speedup:.2}x \
         ({scalar_ms:.1} ms -> {msbfs_ms:.1} ms)"
    );
    // Theorem-1: λ · α ≤ C_live on any concurrent flow
    let hop_bound = net.total_capacity() / alpha_ms;

    // ---- gates 2 + 3: certified aggregated solve, bit-identical ----
    // ---- across thread counts, every run inside the wall budget  ----
    let opts = FlowOptions {
        epsilon: 0.3,
        target_gap: 0.05,
        max_phases: phase_cap,
        stall_phases: 1_000_000,
        ..FlowOptions::default()
    };
    let engine = ThroughputEngine::new(&topo);
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build rayon pool");
        let t = Instant::now();
        let res = pool.install(|| engine.solve_aggregate(&agg, &opts).expect("solve"));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            ms <= budget_ms,
            "aggregated solve at {threads} thread(s) took {ms:.0} ms, \
             over the {budget_ms:.0} ms budget"
        );
        runs.push((threads, ms, res));
    }
    let (_, one_ms, base) = &runs[0];
    let solved = base.solved.as_ref().expect("network-limited instance");
    for (threads, _, res) in &runs[1..] {
        let s = res.solved.as_ref().expect("network-limited instance");
        assert_eq!(
            solved.throughput.to_bits(),
            s.throughput.to_bits(),
            "λ diverged at {threads} threads"
        );
        assert_eq!(
            solved.upper_bound.to_bits(),
            s.upper_bound.to_bits(),
            "dual bound diverged at {threads} threads"
        );
        assert_eq!(solved.arc_flow.len(), s.arc_flow.len());
        for (a, (x, y)) in solved.arc_flow.iter().zip(&s.arc_flow).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "arc flow diverged at arc {a}");
        }
        assert_eq!(
            solved.settles, s.settles,
            "settle count diverged at {threads} threads"
        );
    }
    // gate 4: a ratio inside one run, so host speed cancels
    for (threads, ms, _) in &runs[1..] {
        assert!(
            *ms <= 1.15 * one_ms,
            "aggregated solve at {threads} threads took {ms:.0} ms, more than \
             1.15x the 1-thread {one_ms:.0} ms"
        );
    }
    // the certified interval is valid and consistent with Theorem-1
    assert!(solved.throughput > 0.0);
    assert!(solved.throughput <= solved.upper_bound * (1.0 + 1e-9));
    assert!(
        base.network_lambda <= hop_bound * (1.0 + 1e-9),
        "grouped λ {} exceeds the hop bound {}",
        base.network_lambda,
        hop_bound
    );
    let (two_ms, eight_ms) = (runs[1].1, runs[2].1);

    let servers = topo.server_count();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    report::emit_from_env(&[
        SpeedupRecord {
            name: "scale_msbfs_hopbound".into(),
            instance: format!(
                "RRG({switches}, 32, 16) all-to-all hop-bound ladder, \
                 {switches} sources; alpha bitwise-equal scalar vs \
                 64-lane, hop bound {hop_bound:.3e}"
            ),
            old_ms: scalar_ms,
            new_ms: msbfs_ms,
            peak_rss_bytes: report::peak_rss_bytes(),
        },
        SpeedupRecord {
            name: "scale_aggregate_solve".into(),
            instance: format!(
                "RRG({switches}, 32, 16) aggregated all-to-all, {servers} \
                 servers / {} flows, eps 0.3, {} phases; lambda {:.3e} <= \
                 {:.3e} certified, {} settles, bit-identical at 1/2/8 \
                 threads; host has {cores} logical cores; old_ms = pool \
                 width 1, new_ms = pool width 8 (width 2: {two_ms:.3} ms)",
                agg.flow_count(),
                solved.phases,
                solved.throughput,
                solved.upper_bound,
                solved.settles,
            ),
            old_ms: *one_ms,
            new_ms: eight_ms,
            peak_rss_bytes: report::peak_rss_bytes(),
        },
    ]);

    // ---- a small instance criterion can loop for trend tracking ----
    let mut rng = StdRng::seed_from_u64(7);
    let small = Topology::random_regular(128, 12, 8, &mut rng).expect("rrg");
    let small_net = CsrNet::from_graph(&small.graph);
    let small_w: Vec<f64> = small.servers_at.iter().map(|&s| s as f64).collect();
    let mut group = c.benchmark_group("scale_hopbound_rrg128");
    group.sample_size(10);
    group.bench_function("scalar_bfs", |b| {
        b.iter(|| hop_alpha_scalar(&small.graph, &small_w, &mut bfs_ws))
    });
    group.bench_function("ms_bfs", |b| {
        b.iter(|| hop_alpha_msbfs(&small_net, &small_w, &mut ms_ws))
    });
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
