//! `pairwise-solve`: a fresh engine and four `ThroughputEngine::solve`
//! ops under `FlowOptions::fast()` — the fast FPTAS (reuse ladder +
//! `dijkstra_repair`) does nearly all the work.

use std::process::Command;

use dctopo_core::solve::aggregate_commodities;
use dctopo_core::ThroughputEngine;
use dctopo_flow::{solve_with_cache, Backend, Commodity, FlowOptions, PathSetCache};
use dctopo_graph::{CsrNet, DijkstraWorkspace};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    check_certificate, clocked, engine_step, ms, pinned_rng, pinned_seed, present, probe_csr_build,
    setup_step, us, Cfg, OpOut, Ops, Replay, Workload,
};
use crate::trace::{SpanId, Tracer};

const TAG: u64 = 1;

/// `fast()` aims at a 5 % certified gap and may stop on its stall rule
/// a little above it (chunky traffic does).
const GAP_LIMIT: f64 = 0.08;

pub const WORKLOAD: Workload = Workload {
    name: "pairwise-solve",
    why: "fast FPTAS (reuse ladder + dijkstra_repair) does nearly all the work; grouped, \
          delta-stepping, ms-BFS, serve and packetsim do none",
    threads: 1,
    set_up: |cfg, ready| {
        let tr = &mut Tracer::new(false);
        let (topo, _matrices) = generate(cfg, tr)?;
        let _engine = engine_step(tr, &topo);
        ready();
        Ok(())
    },
    replay,
    layer_metrics: &[
        "core.lower_us",
        "flow.fptas_ms_per_solve",
        "flow.fptas_settles",
        "flow.fptas_phases",
        "graph.dijkstra_ns_per_settle",
        "graph.repair_ns_per_settle",
        "graph.repair_settle_ratio",
        "linprog.simplex_ms",
        "cli.solve_overhead_ms",
        "obs.enabled_overhead",
    ],
};

const OP_NAMES: [&str; 4] = ["permutation-a", "permutation-b", "chunky:50", "hotspot:8"];

/// The pinned instance: `RRG(64, 12, 8)` (`RRG(16, 8, 4)` when quick)
/// with two permutations, `chunky:50` and `hotspot:8`, presented the
/// way the seed says.
fn generate(cfg: &Cfg, tr: &mut Tracer) -> Result<(Topology, Vec<TrafficMatrix>), String> {
    let (n, k, r) = if cfg.quick { (16, 8, 4) } else { (64, 12, 8) };
    let mut rng = pinned_rng(TAG);
    let topo = setup_step(
        tr,
        "Topology::random_regular",
        "topology",
        "topology.build_us",
        || Topology::random_regular(n, k, r, &mut rng),
    );
    let topo = topo.map_err(|e| format!("RRG({n},{k},{r}): {e}"))?;
    let matrices = setup_step(
        tr,
        "TrafficMatrix::*",
        "traffic",
        "traffic.generate_us",
        || {
            let servers = topo.server_count();
            let groups: Vec<Vec<usize>> = topo
                .server_groups()
                .into_iter()
                .filter(|g| !g.is_empty())
                .collect();
            let pinned = [
                TrafficMatrix::random_permutation(servers, &mut rng),
                TrafficMatrix::random_permutation(servers, &mut rng),
                TrafficMatrix::chunky(&groups, 50.0, &mut rng),
                TrafficMatrix::hotspot(servers, 8, &mut rng),
            ];
            let mut shown = cfg.seed_rng(TAG);
            pinned
                .iter()
                .map(|tm| present(&topo, tm, &mut shown))
                .collect()
        },
    );
    Ok((topo, matrices))
}

/// One `engine.solve` as an op: the certificate checked, the bits that
/// must repeat collected. Also returns the solve's phase count.
fn solve_op(engine: &ThroughputEngine, tm: &TrafficMatrix, opts: &FlowOptions) -> (OpOut, u64) {
    let solved = match engine.solve(tm, opts) {
        Ok(res) => res.solved,
        Err(e) => return (OpOut::failed(format!("solve: {e}")), 0),
    };
    let Some(s) = solved else {
        return (OpOut::failed("no network solve happened"), 0);
    };
    let gap = check_certificate(
        engine.net(),
        s.throughput,
        s.upper_bound,
        &s.arc_flow,
        GAP_LIMIT,
    );
    let out = OpOut {
        work: s.settles,
        gaps: gap.iter().copied().collect(),
        check: vec![
            s.throughput.to_bits(),
            s.upper_bound.to_bits(),
            s.phases as u64,
            s.settles,
        ],
        fail: gap.err(),
    };
    (out, s.phases as u64)
}

fn replay(cfg: &Cfg, tr: &mut Tracer) -> Result<Replay, String> {
    let (topo, matrices) = generate(cfg, tr)?;
    let engine = engine_step(tr, &topo);
    let opts = FlowOptions::fast();
    let mut ops = Ops::new(tr);
    let (mut lower_ns, mut flow_ns, mut phases, mut first_flow_span) = (0, 0, 0, None);
    for (name, tm) in OP_NAMES.iter().zip(&matrices) {
        let (op, op_phases) = ops.op(name, "core", || solve_op(&engine, tm, &opts));
        phases += op_phases;
        if ops.tr.enabled() {
            // what a solve op calls into: the lowering, then the flow layer
            let lowered = ops
                .tr
                .probe(Some(op), "aggregate_commodities", "core", |_| {
                    aggregate_commodities(&topo, tm)
                });
            let cache = PathSetCache::new();
            let flow = ops.tr.probe(Some(op), "solve_with_cache", "flow", |_| {
                solve_with_cache(engine.net(), &lowered.out, &opts, &cache)
            });
            flow.out
                .map_err(|e| format!("probe solve_with_cache: {e}"))?;
            lower_ns += lowered.ns;
            flow_ns += flow.ns;
            first_flow_span.get_or_insert(flow.id);
        }
    }
    let replay = ops.finish();
    if !tr.enabled() {
        return Ok(replay);
    }

    probe_csr_build(tr, &topo);
    let solves = replay.ops.len() as f64;
    tr.metric("core.lower_us", us(lower_ns) / solves, "us");
    tr.metric("flow.fptas_ms_per_solve", ms(flow_ns) / solves, "ms");
    let settles: u64 = replay.ops.iter().map(|o| o.out.work).sum();
    tr.metric("flow.fptas_settles", settles as f64, "count");
    tr.metric("flow.fptas_phases", phases as f64, "count");
    // kernel samples on the first op's demand explain its flow probe
    let commodities = aggregate_commodities(&topo, &matrices[0]);
    sample_heap_kernels(tr, first_flow_span, engine.net(), &commodities)?;
    if tr.replay() == 0 {
        // stand-alone probes: once per run is enough
        probe_exact_lp(tr)?;
        probe_cli_solve(tr, cfg)?;
        probe_obs_overhead(tr, &matrices, &engine);
    }
    Ok(replay)
}

/// Heap Dijkstra and `dijkstra_repair` on one length snapshot: a cold
/// tree per source, then eight increase batches (every 16th arc, 15 %
/// longer — one FPTAS step at ε = 0.15) repaired in place and checked
/// bit for bit against cold runs on the same lengths.
fn sample_heap_kernels(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    net: &CsrNet,
    commodities: &[Commodity],
) -> Result<(), String> {
    let mut sources: Vec<usize> = commodities.iter().map(|c| c.src).collect();
    sources.dedup();
    let mut len: Vec<f64> = net.inv_capacities().to_vec();
    let n = net.node_count();
    let mut trees: Vec<DijkstraWorkspace> =
        sources.iter().map(|_| DijkstraWorkspace::new(n)).collect();
    let mut cold_ws = DijkstraWorkspace::new(n);

    let cold = tr.probe(parent, "CsrNet::dijkstra", "graph", |_| {
        for (&src, ws) in sources.iter().zip(&mut trees) {
            net.dijkstra(src, &len, ws);
        }
    });
    let cold_settles: u64 = trees.iter().map(DijkstraWorkspace::settles).sum();
    tr.metric(
        "graph.dijkstra_ns_per_settle",
        cold.ns as f64 / cold_settles as f64,
        "ns",
    );

    let (mut repair_ns, mut repair_settles, mut recompute_settles) = (0u64, 0u64, 0u64);
    for batch in 0..8usize {
        let increased: Vec<u32> = (batch..net.arc_count())
            .step_by(16)
            .filter(|&a| net.is_live(a))
            .map(|a| a as u32)
            .collect();
        for &a in &increased {
            len[a as usize] *= 1.15;
        }
        let before: u64 = trees.iter().map(DijkstraWorkspace::settles).sum();
        let repaired = tr.probe(parent, "CsrNet::dijkstra_repair", "graph", |_| {
            for (&src, ws) in sources.iter().zip(&mut trees) {
                net.dijkstra_repair(src, &len, &increased, ws);
            }
        });
        repair_ns += repaired.ns;
        repair_settles += trees.iter().map(DijkstraWorkspace::settles).sum::<u64>() - before;
        // the same trees from scratch: the work a repair avoids, and
        // the distances it must reproduce
        for (&src, ws) in sources.iter().zip(&trees) {
            let before = cold_ws.settles();
            net.dijkstra(src, &len, &mut cold_ws);
            recompute_settles += cold_ws.settles() - before;
            let same = (0..n).all(|v| ws.dist[v].to_bits() == cold_ws.dist[v].to_bits());
            if !same {
                return Err(format!(
                    "dijkstra_repair from {src} diverged from a cold run"
                ));
            }
        }
    }
    tr.metric(
        "graph.repair_ns_per_settle",
        repair_ns as f64 / repair_settles.max(1) as f64,
        "ns",
    );
    tr.metric(
        "graph.repair_settle_ratio",
        repair_settles as f64 / recompute_settles as f64,
        "ratio",
    );
    Ok(())
}

/// `ExactLp` on an instance small enough for the dense simplex, as a
/// cross-check that the FPTAS interval brackets the LP optimum.
fn probe_exact_lp(tr: &mut Tracer) -> Result<(), String> {
    let mut rng = pinned_rng(TAG + 100);
    let topo = Topology::random_regular(8, 6, 4, &mut rng).map_err(|e| e.to_string())?;
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let engine = ThroughputEngine::new(&topo);
    let exact = tr.probe(None, "solve[ExactLp]", "linprog", |_| {
        engine.solve(&tm, &FlowOptions::default().with_backend(Backend::ExactLp))
    });
    let exact_lambda = exact
        .out
        .map_err(|e| format!("ExactLp: {e}"))?
        .network_lambda;
    let approx = engine
        .solve(&tm, &FlowOptions::default())
        .map_err(|e| format!("fptas on the LP instance: {e}"))?;
    let tol = 1e-6 * exact_lambda;
    if approx.network_lambda > exact_lambda + tol || approx.network_upper_bound < exact_lambda - tol
    {
        return Err(format!(
            "FPTAS interval [{}, {}] misses the LP optimum {exact_lambda}",
            approx.network_lambda, approx.network_upper_bound
        ));
    }
    tr.metric("linprog.simplex_ms", ms(exact.ns), "ms");
    Ok(())
}

/// `topobench solve` as a subprocess against the same solve in-process:
/// process start, argument parsing, topology and traffic generation and
/// printing are what the difference holds.
fn probe_cli_solve(tr: &mut Tracer, cfg: &Cfg) -> Result<(), String> {
    let (n, k, r) = if cfg.quick { (16, 8, 4) } else { (64, 12, 8) };
    let seed = pinned_seed(TAG + 200);
    let child = tr.probe(None, "topobench solve", "cli", |_| {
        Command::new(&cfg.topobench)
            .args(["solve", "rrg", "--runs", "1", "--threads", "1"])
            .args(["--switches", &n.to_string()])
            .args(["--ports", &k.to_string()])
            .args(["--degree", &r.to_string()])
            .args(["--seed", &seed.to_string()])
            .output()
    });
    let output = child
        .out
        .map_err(|e| format!("{}: {e}", cfg.topobench.display()))?;
    if !output.status.success() {
        return Err(format!("topobench solve exited with {}", output.status));
    }
    // what `topobench solve --seed S` builds for run 0
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::random_regular(n, k, r, &mut rng).map_err(|e| e.to_string())?;
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let engine = ThroughputEngine::new(&topo);
    let (res, inproc_ns) = clocked(|| engine.solve(&tm, &FlowOptions::default()));
    let lambda = res.map_err(|e| format!("in-process twin of topobench solve: {e}"))?;
    let printed = format!("network λ {:.4}", lambda.network_lambda);
    if !String::from_utf8_lossy(&output.stdout).contains(&printed) {
        return Err(format!("topobench solve did not print `{printed}`"));
    }
    tr.metric("cli.solve_overhead_ms", ms(child.ns) - ms(inproc_ns), "ms");
    Ok(())
}

/// The replay's ops twice more, back to back: with the `dctopo-obs`
/// memory recorder off, then on.
fn probe_obs_overhead(tr: &mut Tracer, matrices: &[TrafficMatrix], engine: &ThroughputEngine) {
    let opts = FlowOptions::fast();
    let ops = |tr: &mut Tracer, name: &str| {
        tr.probe(None, name, "obs", |_| {
            for tm in matrices {
                std::hint::black_box(engine.solve(tm, &opts).ok());
            }
        })
        .ns
    };
    let off = ops(tr, "ops[obs off]");
    dctopo_obs::enable_memory();
    let on = ops(tr, "ops[obs on]");
    dctopo_obs::drain_memory();
    dctopo_obs::disable();
    tr.metric("obs.enabled_overhead", on as f64 / off as f64, "ratio");
}
