//! `design-witness`: topology search, migration planning and packet
//! co-validation on one fabric — the only cover for `dctopo-search`,
//! `dctopo-plan` and `dctopo-packetsim`, each sized to at least a
//! quarter of the replay so a change to any one clears the bound.

use dctopo_core::PacketParams;
use dctopo_flow::{decompose_paths, FlowOptions};
use dctopo_packetsim::{simulate, FlowSpec, PathSpec, SimConfig};
use dctopo_plan::{maintenance_churn, plan_migration, Migration, PlanSpec};
use dctopo_search::{SearchRunner, SearchSpec};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;

use super::{
    engine_step, ms, pinned_rng, pinned_seed, present, probe_csr_build, setup_step, within, Cfg,
    OpOut, Ops, Replay, Workload,
};
use crate::trace::{self, Tracer};

const TAG: u64 = 5;

/// `fast()` aims at a 5 % certified gap, plus stall slack.
const GAP_LIMIT: f64 = 0.08;

/// The plan must keep every intermediate state at this share of
/// `min(λ_A, λ_B)`. At 0.95 the planner certifies 15 states here, which
/// puts it at 46 % of the replay with search and the witness at 27 %
/// each; 0.97 makes it 22 states and 55 %.
const FLOOR_FRAC: f64 = 0.95;

pub const WORKLOAD: Workload = Workload {
    name: "design-witness",
    why: "the only cover for search, plan and packetsim, each sized to >= 25 % of the replay so \
          a change to any one clears the bound",
    threads: 1,
    set_up: |cfg, ready| {
        let tr = &mut Tracer::new(false);
        let inputs = generate(cfg, tr)?;
        let _engine = engine_step(tr, &inputs.topo);
        ready();
        Ok(())
    },
    replay,
    layer_metrics: &[
        "search.run_ms",
        "search.certified_solves",
        "search.prune_ratio",
        "plan.run_ms",
        "plan.certified_solves",
        "plan.conflicts_learned",
        "core.covalidate_self_ms",
        "flow.decompose_ms",
        "packetsim.sim_ms",
        "packetsim.events",
        "packetsim.ns_per_event",
        "packetsim.drops",
    ],
};

struct Sizes {
    rrg: (usize, usize, usize),
    search: (usize, usize),
    churn_pairs: usize,
    duration: f64,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            rrg: (12, 8, 4),
            search: (2, 3),
            churn_pairs: 2,
            duration: 60.0,
        }
    } else {
        Sizes {
            rrg: (32, 10, 6),
            search: (4, 8),
            churn_pairs: 4,
            duration: 8000.0,
        }
    }
}

/// The seed search, the churn and the planner are handed.
const SEED: u64 = pinned_seed(TAG);

struct Inputs {
    topo: Topology,
    tm: TrafficMatrix,
    migration: Migration,
}

fn generate(cfg: &Cfg, tr: &mut Tracer) -> Result<Inputs, String> {
    let sz = sizes(cfg.quick);
    let (n, k, r) = sz.rrg;
    let mut rng = pinned_rng(TAG);
    let topo = setup_step(
        tr,
        "Topology::random_regular",
        "topology",
        "topology.build_us",
        || Topology::random_regular(n, k, r, &mut rng),
    );
    let topo = topo.map_err(|e| format!("RRG({n},{k},{r}): {e}"))?;
    let tm = setup_step(
        tr,
        "TrafficMatrix::random_permutation",
        "traffic",
        "traffic.generate_us",
        || {
            let pinned = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
            present(&topo, &pinned, &mut cfg.seed_rng(TAG))
        },
    );
    let migration = tr.span("maintenance_churn", "plan", |_| {
        maintenance_churn(&topo, sz.churn_pairs, 1, SEED)
            .and_then(|moves| Migration::new(&topo, &moves))
    });
    let migration = migration
        .out
        .map_err(|e| format!("maintenance churn: {e}"))?;
    Ok(Inputs {
        topo,
        tm,
        migration,
    })
}

fn replay(cfg: &Cfg, tr: &mut Tracer) -> Result<Replay, String> {
    let sz = sizes(cfg.quick);
    let Inputs {
        topo,
        tm,
        migration,
    } = generate(cfg, tr)?;
    let engine = engine_step(tr, &topo);
    let opts = FlowOptions::fast();
    let mut ops = Ops::new(tr);

    // ---- op 1: structural search ----
    let (rounds, batch) = sz.search;
    let (search_op, searched) = ops.op("SearchRunner::run", "search", || {
        let spec = SearchSpec::structural(SEED, rounds, batch).with_opts(opts);
        let res = match SearchRunner::new(&topo, &tm, spec).and_then(|runner| runner.run()) {
            Ok(res) => res,
            Err(e) => return (OpOut::failed(format!("search: {e}")), None),
        };
        let best = &res.best;
        let gap = (best.upper - best.lambda) / best.upper;
        let certified = within(best.lambda, best.upper);
        let out = OpOut {
            work: res.certified_solves as u64,
            gaps: vec![gap],
            check: vec![
                best.lambda.to_bits(),
                best.upper.to_bits(),
                res.certified_solves as u64,
                res.total_settles,
                res.accepted.len() as u64,
            ],
            fail: (!certified || gap > GAP_LIMIT).then(|| {
                format!(
                    "search certificate λ {} ≤ {} is broken",
                    best.lambda, best.upper
                )
            }),
        };
        let pruned = (res.pruned_hop() + res.pruned_cut()) as f64 / res.evaluated().max(1) as f64;
        (out, Some((res.certified_solves, pruned)))
    });

    // ---- op 2: migration plan ----
    let plan_spec = PlanSpec {
        seed: SEED,
        floor_frac: FLOOR_FRAC,
        opts,
        ..PlanSpec::default()
    };
    let (plan_op, planned) = ops.op("plan_migration", "plan", || {
        let plan = match plan_migration(&topo, &tm, &migration, &plan_spec) {
            Ok(plan) => plan,
            Err(e) => return (OpOut::failed(format!("plan: {e}")), None),
        };
        let safe = plan.achieved_floor >= plan.floor
            && plan.order.len() == migration.move_count()
            && plan.step_lambda.iter().all(|&l| l >= plan.floor);
        let out = OpOut {
            work: plan.stats.certified_solves as u64,
            gaps: Vec::new(),
            check: vec![
                plan.fingerprint(),
                plan.achieved_floor.to_bits(),
                plan.stats.certified_solves as u64,
            ],
            fail: (!safe).then(|| {
                format!(
                    "plan achieves floor {} below the required {}",
                    plan.achieved_floor, plan.floor
                )
            }),
        };
        (
            out,
            Some((plan.stats.certified_solves, plan.stats.conflicts_learned)),
        )
    });

    // ---- op 3: packet-level witness of the certified throughput ----
    let params = PacketParams {
        duration: sz.duration,
        warmup: sz.duration / 10.0,
        ..PacketParams::default()
    };
    let (witness_op, witnessed) = ops.op("covalidate", "core", || {
        let cv = match engine.covalidate(&tm, &opts, &params) {
            Ok(cv) => cv,
            Err(e) => return (OpOut::failed(format!("covalidate: {e}")), None),
        };
        let gap = (cv.upper_bound - cv.lambda) / cv.upper_bound;
        let fail = if !cv.upholds_law(4.0) {
            Some(format!(
                "packet goodput above the certified offer (max ratio {})",
                cv.ratios().into_iter().fold(0.0, f64::max)
            ))
        } else if !within(cv.lambda, cv.upper_bound) {
            Some(format!(
                "λ {} above its bound {}",
                cv.lambda, cv.upper_bound
            ))
        } else {
            None
        };
        let sim = cv.result;
        let out = OpOut {
            work: 0, // packet events are the layer metric `packetsim.events`
            gaps: vec![gap],
            check: vec![
                cv.lambda.to_bits(),
                sim.delivered,
                sim.drops,
                sim.events,
                sim.trace_hash,
            ],
            fail,
        };
        (out, Some((sim.events, sim.drops, sim.trace_hash)))
    });
    let replay = ops.finish();
    if !tr.enabled() {
        return Ok(replay);
    }
    let (Some((search_solves, prune_ratio)), Some((plan_solves, conflicts)), Some(witness)) =
        (searched, planned, witnessed)
    else {
        return Ok(replay); // a failed op is reported by the harness
    };

    // ---- what the ops call into ----
    probe_csr_build(tr, &topo);
    // search certifies the starting fabric before it proposes a move
    tr.probe(Some(search_op), "solve[initial]", "flow", |_| {
        engine.solve(&tm, &opts)
    })
    .out
    .map_err(|e| format!("probe initial certificate: {e}"))?;
    tr.metric("search.run_ms", ms(replay.ops[0].ns), "ms");
    tr.metric("search.certified_solves", search_solves as f64, "count");
    tr.metric("search.prune_ratio", prune_ratio, "ratio");
    // the planner certifies both endpoints of the migration first
    for (name, view) in [
        ("solve_on[A]", migration.initial_view()),
        ("solve_on[B]", migration.final_view()),
    ] {
        let view = view.map_err(|e| format!("probe {name}: {e}"))?;
        tr.probe(Some(plan_op), name, "flow", |_| {
            engine.solve_on(&view, &tm, &opts)
        })
        .out
        .map_err(|e| format!("probe {name}: {e}"))?;
    }
    tr.metric("plan.run_ms", ms(replay.ops[1].ns), "ms");
    tr.metric("plan.certified_solves", plan_solves as f64, "count");
    tr.metric("plan.conflicts_learned", conflicts as f64, "count");

    // covalidate = recorded solve + path decomposition + simulation
    let recorded = tr.probe(Some(witness_op), "solve[recorded]", "flow", |_| {
        engine.solve(&tm, &opts.with_commodity_flows(true))
    });
    let res = recorded
        .out
        .map_err(|e| format!("probe recorded solve: {e}"))?;
    let solved = res
        .solved
        .as_ref()
        .ok_or("probe recorded solve: no network traffic")?;
    let decomposed = tr.probe(Some(witness_op), "decompose_paths", "flow", |_| {
        decompose_paths(engine.net(), &res.commodities, solved)
    });
    tr.metric("flow.decompose_ms", ms(decomposed.ns), "ms");
    let mut paths_of: Vec<Vec<PathSpec>> = vec![Vec::new(); res.commodities.len()];
    for p in decomposed
        .out
        .map_err(|e| format!("probe decompose: {e}"))?
    {
        paths_of[p.commodity].push(PathSpec {
            arcs: p.arcs,
            weight: p.flow,
        });
    }
    // the lowering `covalidate` performs: heaviest paths first, each
    // commodity offered η × its certified rate
    let mut flows = Vec::new();
    for (j, c) in res.commodities.iter().enumerate() {
        let paths = &mut paths_of[j];
        paths.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        paths.truncate(params.max_paths);
        let rate = params.utilization * solved.commodity_rate[j];
        if rate > 1e-12 && !paths.is_empty() {
            flows.push(FlowSpec {
                src: c.src,
                dst: c.dst,
                rate,
                paths: std::mem::take(paths),
            });
        }
    }
    let sim_cfg = SimConfig {
        mode: params.mode,
        duration: params.duration,
        warmup: params.warmup,
        link_delay: params.link_delay,
        ack_hop_delay: params.ack_hop_delay,
        queue: params.queue,
        initial_cwnd: params.initial_cwnd,
        rto: params.rto,
    };
    let simulated = tr.probe(Some(witness_op), "simulate", "packetsim", |_| {
        simulate(engine.net(), &flows, &sim_cfg)
    });
    let sim = simulated.out.map_err(|e| format!("probe simulate: {e}"))?;
    let (events, drops, trace_hash) = witness;
    if sim.trace_hash != trace_hash {
        return Err("the simulate probe did not reproduce covalidate's packet trace".into());
    }
    tr.metric("packetsim.sim_ms", ms(simulated.ns), "ms");
    tr.metric("packetsim.events", events as f64, "count");
    tr.metric(
        "packetsim.ns_per_event",
        simulated.ns as f64 / events as f64,
        "ns",
    );
    tr.metric("packetsim.drops", drops as f64, "count");
    let own = trace::self_times(&tr.spans)[witness_op];
    tr.metric("core.covalidate_self_ms", ms(own), "ms");
    Ok(replay)
}
