//! `aggregate-solve` and `aggregate-solve-2t`: one grouped-demand solve
//! on `RRG(512, 10, 8)` under a smeared hotspot, at pool width 1 and —
//! the same op, used differently — at width 2, where fork/join cost
//! shows. `flow::grouped` and `graph::delta` do all the work.

use dctopo_core::aggregate_groups;
use dctopo_flow::{solve_grouped, DemandGroup, FlowOptions};
use dctopo_graph::{delta, CsrNet, DijkstraWorkspace};
use dctopo_topology::Topology;
use dctopo_traffic::AggregateTraffic;

use super::{
    at_width, check_certificate, engine_step, ms, pinned_rng, probe_csr_build, setup_step, us, Cfg,
    OpOut, Ops, Replay, Workload,
};
use crate::trace::{SpanId, Tracer};

const TAG: u64 = 2;

/// Twelve phases at ε = 0.3 certify about 5 % on this instance.
const GAP_LIMIT: f64 = 0.06;

const LAYER_METRICS_1T: &[&str] = &[
    "core.lower_us",
    "flow.grouped_ms_per_solve",
    "flow.grouped_settles",
    "flow.grouped_phases",
    "graph.delta_ns_per_relax",
    "graph.delta_edge_scans",
];

pub const WORKLOAD_1T: Workload = Workload {
    name: "aggregate-solve",
    why: "flow::grouped + graph::delta (n >= DELTA_MIN_NODES) do all the work and the pairwise \
          path none; one thread, so nothing contends",
    threads: 1,
    set_up,
    replay: |cfg, tr| replay(cfg, tr, 1),
    layer_metrics: LAYER_METRICS_1T,
};

pub const WORKLOAD_2T: Workload = Workload {
    name: "aggregate-solve-2t",
    why: "the same op at pool width 2, a thread per core: the only workload where fork/join cost \
          shows, next to its one-thread twin",
    threads: 2,
    set_up,
    replay: |cfg, tr| replay(cfg, tr, 2),
    layer_metrics: &[
        "core.lower_us",
        "flow.grouped_ms_per_solve",
        "flow.grouped_settles",
        "flow.grouped_phases",
        "flow.grouped_par_ratio",
        "graph.delta_ns_per_relax",
        "graph.delta_edge_scans",
        "graph.delta_par_rounds",
        "graph.delta_par_ratio",
    ],
};

fn solve_opts() -> FlowOptions {
    FlowOptions {
        epsilon: 0.3,
        max_phases: 12,
        ..FlowOptions::default()
    }
}

fn set_up(cfg: &Cfg, ready: &mut dyn FnMut()) -> Result<(), String> {
    let tr = &mut Tracer::new(false);
    let (topo, _traffic) = generate(cfg, tr)?;
    let _engine = engine_step(tr, &topo);
    ready();
    Ok(())
}

fn generate(cfg: &Cfg, tr: &mut Tracer) -> Result<(Topology, AggregateTraffic), String> {
    let (n, k, r) = if cfg.quick { (48, 10, 8) } else { (512, 10, 8) };
    let mut rng = pinned_rng(TAG);
    let topo = setup_step(
        tr,
        "Topology::random_regular",
        "topology",
        "topology.build_us",
        || Topology::random_regular(n, k, r, &mut rng),
    );
    let topo = topo.map_err(|e| format!("RRG({n},{k},{r}): {e}"))?;
    // the demand is analytic: nothing for the seed to present
    let traffic = setup_step(
        tr,
        "AggregateTraffic::hotspot",
        "traffic",
        "traffic.generate_us",
        || AggregateTraffic::hotspot(topo.server_count(), 16),
    );
    Ok((topo, traffic))
}

fn replay(cfg: &Cfg, tr: &mut Tracer, threads: usize) -> Result<Replay, String> {
    let (topo, traffic) = generate(cfg, tr)?;
    let engine = engine_step(tr, &topo);
    let opts = solve_opts();
    // twelve phases do not take the tiny quick instance as far
    let gap_limit = if cfg.quick { 0.5 } else { GAP_LIMIT };
    let mut ops = Ops::new(tr);
    let (op, phases) = ops.op("solve_aggregate", "core", || {
        let solved = match engine.solve_aggregate(&traffic, &opts) {
            Ok(res) => res.solved,
            Err(e) => return (OpOut::failed(format!("solve_aggregate: {e}")), 0),
        };
        let Some(s) = solved else {
            return (OpOut::failed("no network solve happened"), 0);
        };
        let gap = check_certificate(
            engine.net(),
            s.throughput,
            s.upper_bound,
            &s.arc_flow,
            gap_limit,
        );
        let mut check = vec![
            s.throughput.to_bits(),
            s.upper_bound.to_bits(),
            s.phases as u64,
        ];
        if threads == 1 {
            // at two threads compare-and-swap races move the count
            check.push(s.settles);
        }
        let out = OpOut {
            work: s.settles,
            gaps: gap.iter().copied().collect(),
            check,
            fail: gap.err(),
        };
        (out, s.phases as u64)
    });
    let replay = ops.finish();
    if !tr.enabled() {
        return Ok(replay);
    }

    probe_csr_build(tr, &topo);
    // what the op calls into: the lowering, then the grouped solver
    let lowered = tr.probe(Some(op), "aggregate_groups", "core", |_| {
        aggregate_groups(&topo, &traffic)
    });
    tr.metric("core.lower_us", us(lowered.ns), "us");
    let groups = lowered.out;
    let grouped = probe_grouped(tr, Some(op), engine.net(), &groups, &opts, threads)?;
    tr.metric("flow.grouped_ms_per_solve", ms(grouped.ns), "ms");
    tr.metric(
        "flow.grouped_settles",
        replay.ops[0].out.work as f64,
        "count",
    );
    tr.metric("flow.grouped_phases", phases as f64, "count");

    // one SSSP per group source on the initial lengths: what the first
    // phase asks of the delta-stepping kernel
    let batch = sample_delta(tr, Some(grouped.id), engine.net(), &groups, threads);
    tr.metric(
        "graph.delta_ns_per_relax",
        batch.ns as f64 / batch.edge_scans as f64,
        "ns",
    );
    tr.metric("graph.delta_edge_scans", batch.edge_scans as f64, "count");
    if threads > 1 {
        tr.metric("graph.delta_par_rounds", batch.par_rounds as f64, "count");
        let narrow = sample_delta(tr, None, engine.net(), &groups, 1);
        tr.metric(
            "graph.delta_par_ratio",
            batch.ns as f64 / narrow.ns as f64,
            "ratio",
        );
        let narrow = probe_grouped(tr, None, engine.net(), &groups, &opts, 1)?;
        tr.metric(
            "flow.grouped_par_ratio",
            grouped.ns as f64 / narrow.ns as f64,
            "ratio",
        );
    }
    Ok(replay)
}

struct Probed {
    id: SpanId,
    ns: u64,
}

fn probe_grouped(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    net: &CsrNet,
    groups: &[DemandGroup],
    opts: &FlowOptions,
    threads: usize,
) -> Result<Probed, String> {
    let name = format!("solve_grouped@{threads}t");
    let solved = tr.probe(parent, &name, "flow", |_| {
        at_width(threads, || solve_grouped(net, groups, opts))
    });
    solved.out.map_err(|e| format!("probe {name}: {e}"))?;
    Ok(Probed {
        id: solved.id,
        ns: solved.ns,
    })
}

struct DeltaBatch {
    ns: u64,
    edge_scans: u64,
    par_rounds: u64,
}

fn sample_delta(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    net: &CsrNet,
    groups: &[DemandGroup],
    threads: usize,
) -> DeltaBatch {
    let len = net.inv_capacities();
    let mut ws = DijkstraWorkspace::new(net.node_count());
    let name = format!("delta::sssp@{threads}t");
    let batch = tr.probe(parent, &name, "graph", |_| {
        at_width(threads, || {
            for g in groups {
                delta::sssp(net, g.src, len, &mut ws);
            }
        })
    });
    let stats = ws.delta_stats();
    DeltaBatch {
        ns: batch.ns,
        edge_scans: stats.edge_scans,
        par_rounds: stats.par_rounds,
    }
}
