//! `sweep-grid`: one `SweepRunner::run` over a 16-cell degradation grid
//! — delta views, `PathSetCache`, Yen freezing and the ms-BFS hop bound
//! carry weight here and nowhere else.

use dctopo_core::solve::aggregate_commodities;
use dctopo_core::sweep::hop_throughput_bound;
use dctopo_core::{
    BackendChoice, Degradation, Scenario, SweepRunner, SweepSpec, ThroughputEngine, TopologyPoint,
    TrafficModel,
};
use dctopo_flow::{solve_with_cache, FlowOptions, PathSetCache};
use dctopo_graph::kshortest::yen_k_shortest;
use dctopo_graph::msbfs::MAX_LANES;
use dctopo_graph::{ms_bfs_csr, MsBfsWorkspace};
use dctopo_topology::Topology;
use rand::seq::SliceRandom;

use super::{
    ms, pinned_rng, pinned_seed, probe_csr_build, probe_view, setup_step, us, within, Cfg, OpOut,
    Ops, Replay, Workload,
};
use crate::trace::Tracer;

const TAG: u64 = 3;

/// `fast()` aims at a 5 % certified gap, plus stall slack. Held on the
/// FPTAS cells only: a `ksp:8` cell certifies the optimum over its
/// eight frozen paths, and that dual is loose under hotspot traffic.
const GAP_LIMIT: f64 = 0.08;

pub const WORKLOAD: Workload = Workload {
    name: "sweep-grid",
    why: "delta views, PathSetCache, Yen freezing and the ms-BFS hop bound carry weight here \
          and nowhere else",
    threads: 1,
    set_up: |cfg, ready| {
        let _built = set_up(cfg, &mut Tracer::new(false))?;
        ready();
        Ok(())
    },
    replay,
    layer_metrics: &[
        "core.scenario_apply_us",
        "core.hop_bound_us",
        "core.sweep_cells",
        "core.sweep_self_ms",
        "graph.view_us",
        "graph.msbfs_us_per_source",
        "graph.yen_us_per_pair",
        "flow.ksp_ms_per_solve",
        "flow.cache_hit_ratio",
    ],
};

fn traffic_axis(quick: bool) -> Vec<TrafficModel> {
    vec![
        TrafficModel::Permutation,
        TrafficModel::Hotspot {
            hot: if quick { 2 } else { 4 },
        },
    ]
}

fn scenario_axis(seed: u64) -> Vec<Scenario> {
    let fail = |count| {
        Scenario::new(
            format!("fail-links:{count}"),
            vec![Degradation::FailLinks { count, seed }],
        )
    };
    vec![
        Scenario::baseline(),
        fail(4),
        fail(8),
        Scenario::new(
            "scale:1.5",
            vec![Degradation::ScaleCapacity { factor: 1.5 }],
        ),
    ]
}

/// The seed the runner draws its matrices and failure sets from.
const GRID_SEED: u64 = pinned_seed(TAG);

/// The generated fabric and the runner over the grid on it.
fn set_up(cfg: &Cfg, tr: &mut Tracer) -> Result<(Topology, SweepRunner), String> {
    let (n, k, r) = if cfg.quick { (12, 8, 4) } else { (40, 10, 6) };
    let mut rng = pinned_rng(TAG);
    let topo = setup_step(
        tr,
        "Topology::random_regular",
        "topology",
        "topology.build_us",
        || Topology::random_regular(n, k, r, &mut rng),
    );
    let topo = topo.map_err(|e| format!("RRG({n},{k},{r}): {e}"))?;
    let runner = tr.span("SweepSpec", "core", |_| {
        // the seed presents the scenario axis in its own order; cells
        // are independent solves, so the grid's work does not change
        let mut scenarios = scenario_axis(GRID_SEED);
        scenarios.shuffle(&mut cfg.seed_rng(TAG));
        let fabric = topo.clone();
        SweepRunner::new(SweepSpec {
            // the runner is handed the generated fabric, not a recipe
            topologies: vec![TopologyPoint::new(format!("rrg-{n}x{k}x{r}"), move |_| {
                Ok(fabric.clone())
            })],
            traffic: traffic_axis(cfg.quick),
            scenarios,
            backends: vec![BackendChoice::fptas(), BackendChoice::ksp(8)],
            opts: FlowOptions::fast(),
            seed: GRID_SEED,
            runs: 1,
        })
    });
    Ok((topo, runner.out))
}

fn replay(cfg: &Cfg, tr: &mut Tracer) -> Result<Replay, String> {
    let (topo, runner) = set_up(cfg, tr)?;
    let opts = FlowOptions::fast();
    let mut ops = Ops::new(tr);
    let (op, cache) = ops.op("SweepRunner::run", "core", || {
        let report = runner.run();
        let mut out = OpOut::default();
        let mut cells = Vec::new();
        for cell in &report.cells {
            let at = format!("{}/{}/{}", cell.scenario, cell.traffic, cell.backend);
            let m = match &cell.result {
                Ok(m) => m,
                Err(e) => {
                    out.fail.get_or_insert(format!("cell {at}: {e}"));
                    continue;
                }
            };
            let certified =
                within(m.network_lambda, m.upper_bound) && within(m.network_lambda, m.hop_bound);
            if !certified {
                out.fail.get_or_insert(format!(
                    "cell {at}: λ {} breaks its bounds (dual {}, hop {})",
                    m.network_lambda, m.upper_bound, m.hop_bound
                ));
            } else if cell.backend == "fptas" && m.gap > GAP_LIMIT {
                out.fail
                    .get_or_insert(format!("cell {at}: gap {:.4} misses {GAP_LIMIT}", m.gap));
            }
            out.work += m.settles;
            let bits = [
                m.network_lambda.to_bits(),
                m.upper_bound.to_bits(),
                m.settles,
            ];
            cells.push((at, bits, m.gap));
        }
        // reported in name order: the seed orders the scenario axis
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, bits, gap) in cells {
            out.check.extend(bits);
            out.gaps.push(gap);
        }
        (out, report.cache_stats())
    });
    let replay = ops.finish();
    if !tr.enabled() {
        return Ok(replay);
    }

    // ---- what the grid calls into, cell by cell ----
    // the runner builds its engine and draws its matrices inside `run`
    // (from a seed mix it keeps private); the probes build their own
    // from the same fabric and the same traffic models
    probe_csr_build(tr, &topo);
    let engine = tr.probe(None, "ThroughputEngine::new", "core", |_| {
        ThroughputEngine::new(&topo)
    });
    tr.metric("core.engine_new_us", us(engine.ns), "us");
    let engine = engine.out;
    let mut rng = pinned_rng(TAG + 100);
    let generated = tr.probe(None, "TrafficModel::generate", "traffic", |_| {
        traffic_axis(cfg.quick)
            .iter()
            .map(|model| model.generate(&topo, &mut rng))
            .collect::<Result<Vec<_>, _>>()
    });
    tr.metric("traffic.generate_us", us(generated.ns), "us");
    let matrices = generated.out.map_err(|e| format!("probe traffic: {e}"))?;
    let paths = PathSetCache::new();
    let (mut apply_ns, mut view_ns, mut views) = (0, 0, 0u32);
    let (mut hop_ns, mut hop_calls) = (0, 0u32);
    let (mut bfs_ns, mut bfs_sources) = (0, 0usize);
    let (mut ksp_ns, mut ksp_solves) = (0, 0u32);
    let mut bfs_ws = MsBfsWorkspace::new(topo.switch_count());
    for scenario in scenario_axis(GRID_SEED) {
        let applied = tr.probe(Some(op), "Scenario::apply", "core", |_| {
            scenario.apply(&topo, engine.net())
        });
        apply_ns += applied.ns;
        let view = applied.out.map_err(|e| format!("probe apply: {e}"))?;
        if let Some(ns) = probe_view(tr, applied.id, engine.net(), &scenario, &view)? {
            view_ns += ns;
            views += 1;
        }
        for tm in &matrices {
            let commodities = aggregate_commodities(&topo, tm);
            let hop = tr.probe(Some(op), "hop_throughput_bound", "core", |_| {
                hop_throughput_bound(&view.net, &commodities)
            });
            hop_ns += hop.ns;
            hop_calls += 1;
            let mut sources: Vec<usize> = commodities.iter().map(|c| c.src).collect();
            sources.dedup();
            let bfs = tr.probe(Some(hop.id), "ms_bfs_csr", "graph", |_| {
                for lanes in sources.chunks(MAX_LANES) {
                    ms_bfs_csr(&view.net, lanes, &mut bfs_ws);
                }
            });
            bfs_ns += bfs.ns;
            bfs_sources += sources.len();
            for backend in [BackendChoice::fptas(), BackendChoice::ksp(8)] {
                let cell_opts = opts
                    .with_backend(backend.backend)
                    .with_strict_reference(backend.strict);
                let name = format!("solve_with_cache[{}]", backend.name());
                let solved = tr.probe(Some(op), &name, "flow", |_| {
                    solve_with_cache(&view.net, &commodities, &cell_opts, &paths)
                });
                solved.out.map_err(|e| format!("probe {name}: {e}"))?;
                if backend != BackendChoice::fptas() {
                    ksp_ns += solved.ns;
                    ksp_solves += 1;
                }
            }
        }
    }
    // Yen on the intact fabric, once per switch pair of the first matrix
    let pairs = aggregate_commodities(&topo, &matrices[0]);
    let yen = tr.probe(None, "yen_k_shortest", "graph", |_| {
        for c in &pairs {
            std::hint::black_box(yen_k_shortest(&topo.graph, c.src, c.dst, 8).ok());
        }
    });

    let cells = replay.ops[0].out.gaps.len();
    tr.metric("core.scenario_apply_us", us(apply_ns) / 4.0, "us");
    tr.metric("graph.view_us", us(view_ns) / f64::from(views), "us");
    tr.metric("core.hop_bound_us", us(hop_ns) / f64::from(hop_calls), "us");
    tr.metric(
        "graph.msbfs_us_per_source",
        us(bfs_ns) / bfs_sources as f64,
        "us",
    );
    tr.metric(
        "graph.yen_us_per_pair",
        us(yen.ns) / pairs.len() as f64,
        "us",
    );
    tr.metric(
        "flow.ksp_ms_per_solve",
        ms(ksp_ns) / f64::from(ksp_solves),
        "ms",
    );
    tr.metric(
        "flow.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    tr.metric("core.sweep_cells", cells as f64, "count");
    let own = crate::trace::self_times(&tr.spans)[op];
    tr.metric("core.sweep_self_ms", ms(own), "ms");
    Ok(replay)
}
