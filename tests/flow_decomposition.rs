//! Property test for the solver's path decompositions
//! ([`dctopo::flow::decompose_paths`]) — the routing input of the
//! packet-level co-validation engine.
//!
//! Over 50 seeded RRG and VL2 instances: every decomposed path is a
//! contiguous live source→destination walk; summing the paths
//! reproduces each commodity's recorded arc flows (up to cycle/dust
//! loss, which is measured and bounded); summing commodities
//! reproduces the total arc flow; and no arc carries recorded flow
//! beyond its capacity (modulo the solver's multiplicative scaling
//! guarantee).

use dctopo::core::solve::aggregate_commodities;
use dctopo::flow::{
    decompose_paths, solve_with_cache, Commodity, FlowError, FlowOptions, PathSetCache, SolvedFlow,
};
use dctopo::graph::CsrNet;
use dctopo::obs;
use dctopo::prelude::*;
use dctopo::topology::vl2::{rewired_vl2, vl2, Vl2Params};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instances() -> Vec<(String, Topology, TrafficMatrix)> {
    let mut out = Vec::new();
    // 30 RRG permutations across sizes and degrees
    for i in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(100 + i);
        let n = 8 + (i as usize % 5) * 4; // 8..24 switches
        let r = 4 + (i as usize % 3); // degree 4..6
        let topo = Topology::random_regular(n, r + 2, r, &mut rng).expect("rrg");
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        out.push((format!("rrg-{i}"), topo, tm));
    }
    // 20 VL2 instances, stock and rewired
    for i in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(300 + i);
        let params = Vl2Params {
            d_a: 4 + 2 * (i as usize % 3),
            d_i: 8,
            tors: None,
        };
        let topo = if i % 2 == 0 {
            vl2(params).expect("vl2")
        } else {
            rewired_vl2(params, &mut rng).expect("rewired vl2")
        };
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        out.push((format!("vl2-{i}"), topo, tm));
    }
    out
}

/// A cold solve on `net` with the backend `opts` selects.
fn cold_solve(net: &CsrNet, cs: &[Commodity], opts: &FlowOptions) -> Result<SolvedFlow, FlowError> {
    solve_with_cache(net, cs, opts, &PathSetCache::new())
}

#[test]
fn decomposition_conserves_flow_and_respects_capacity() {
    let opts = FlowOptions::default().with_commodity_flows(true);
    let cases = instances();
    assert_eq!(cases.len(), 50);
    for (name, topo, tm) in cases {
        let net = CsrNet::from_graph(&topo.graph);
        let commodities = aggregate_commodities(&topo, &tm);
        if commodities.is_empty() {
            continue;
        }
        let solved = cold_solve(&net, &commodities, &opts).expect(&name);
        let cf = solved
            .commodity_arc_flow
            .as_ref()
            .expect("recording was requested");

        // (1) per-commodity recorded flows sum to the total arc flow
        let m = net.arc_count();
        for a in 0..m {
            let total: f64 = cf.iter().map(|v| v[a]).sum();
            assert!(
                (total - solved.arc_flow[a]).abs() <= 1e-6 * (1.0 + solved.arc_flow[a]),
                "{name}: arc {a} commodity flows {total} != arc_flow {}",
                solved.arc_flow[a]
            );
        }

        // (2) no arc is loaded beyond its capacity (the solver scales
        // its solution to feasibility; allow float dust)
        for a in 0..m {
            assert!(
                solved.arc_flow[a] <= net.capacity(a) * (1.0 + 1e-6),
                "{name}: arc {a} flow {} above capacity {}",
                solved.arc_flow[a],
                net.capacity(a)
            );
        }

        // (3) paths are contiguous source→destination walks over live
        // arcs, and per commodity they reproduce the recorded arc flows
        let paths = decompose_paths(&net, &commodities, &solved).expect(&name);
        let mut rebuilt = vec![vec![0.0f64; m]; commodities.len()];
        for p in &paths {
            let c = &commodities[p.commodity];
            assert!(p.flow > 0.0, "{name}: empty path flow emitted");
            assert_eq!(net.arc_tail(p.arcs[0]), c.src, "{name}: path not at source");
            assert_eq!(
                net.arc_head(*p.arcs.last().unwrap()),
                c.dst,
                "{name}: path not at destination"
            );
            for w in p.arcs.windows(2) {
                assert_eq!(
                    net.arc_head(w[0]),
                    net.arc_tail(w[1]),
                    "{name}: discontiguous path"
                );
            }
            for &a in &p.arcs {
                assert!(net.is_live(a), "{name}: path over dead arc {a}");
                rebuilt[p.commodity][a] += p.flow;
            }
        }
        let mut total_routed = 0.0;
        let mut total_rate = 0.0;
        for (j, c) in commodities.iter().enumerate() {
            let recorded: f64 = solved.commodity_rate[j];
            let routed: f64 = paths
                .iter()
                .filter(|p| p.commodity == j)
                .map(|p| p.flow)
                .sum();
            total_routed += routed;
            total_rate += recorded;
            // in-place cycle cancellation drops only genuine cycle
            // flow, so the paths reproduce the routed rate to float
            // precision
            assert!(
                (routed - recorded).abs() <= 1e-6 * (1.0 + recorded),
                "{name}: commodity {j} ({} -> {}) routed {routed} != rate {recorded}",
                c.src,
                c.dst
            );
            for a in 0..m {
                assert!(
                    rebuilt[j][a] <= cf[j][a] + 1e-6 * (1.0 + cf[j][a]),
                    "{name}: commodity {j} puts {} on arc {a}, recorded {}",
                    rebuilt[j][a],
                    cf[j][a]
                );
            }
        }
        // and in aggregate, exactly
        assert!(
            (total_routed - total_rate).abs() <= 1e-6 * (1.0 + total_rate),
            "{name}: aggregate routed {total_routed} != total rate {total_rate}"
        );
    }
}

/// Recording must not change the solution itself: same λ, same arc
/// flows, bit-for-bit, as the un-instrumented solve. The fast path keeps
/// two primal averages (weights √phase and phase²) and returns the
/// better; the second instance — the benchmark's sweep fabric,
/// RRG(40, 10, 6) under hot-spot traffic with 8 failed links — is one
/// where the phase² average supplies λ, so the record returned is that
/// average's: its paths must still reproduce the rates, and the release
/// certificate must pass the checker.
#[test]
fn recording_is_observationally_free() {
    let mut rng = StdRng::seed_from_u64(9);
    let topo = Topology::random_regular(12, 8, 5, &mut rng).expect("rrg");
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let net = CsrNet::from_graph(&topo.graph);
    let commodities = aggregate_commodities(&topo, &tm);
    plain_and_recorded(&net, &commodities, &FlowOptions::default());

    let mut rng = StdRng::seed_from_u64(11);
    let topo = Topology::random_regular(40, 10, 6, &mut rng).expect("rrg");
    let tm = TrafficMatrix::hotspot(topo.server_count(), 8, &mut rng);
    let engine = ThroughputEngine::new(&topo);
    let failed = Scenario::new(
        "fail-links:8",
        vec![Degradation::FailLinks { count: 8, seed: 5 }],
    );
    let applied = failed.apply(&topo, engine.net()).expect("scenario");
    let (commodities, _, _) = engine.scenario_demand(&applied, &tm);
    let opts = FlowOptions::fast();
    // the recorder is process-global and other tests may solve while it
    // is on, so the event is picked out by the λ it reports
    obs::enable_memory();
    let (plain, recorded) = plain_and_recorded(&applied.net, &commodities, &opts);
    let trace = obs::drain_memory();
    obs::disable();
    let from = (trace.iter())
        .filter_map(|line| obs::Json::parse(line).ok())
        .find(|ev| {
            ev.get("ev").and_then(obs::Json::as_str) == Some("fptas_solve")
                && ev.get("lambda").and_then(obs::Json::as_f64) == Some(plain.throughput)
        })
        .and_then(|ev| ev.get("primal_from")?.as_str().map(str::to_owned));
    assert_eq!(from.as_deref(), Some("square"));

    let paths = decompose_paths(&applied.net, &commodities, &recorded).expect("decompose");
    for (j, &rate) in recorded.commodity_rate.iter().enumerate() {
        let routed: f64 = (paths.iter())
            .filter(|p| p.commodity == j)
            .map(|p| p.flow)
            .sum();
        assert!(
            (routed - rate).abs() <= 1e-6 * (1.0 + rate),
            "commodity {j}: paths carry {routed}, rate {rate}"
        );
    }
    for s in [&plain, &recorded] {
        if let Err(v) = s.certify(&applied.net, &commodities, None) {
            panic!("{v}");
        }
    }
}

/// Solve cold with and without the per-commodity record and check the
/// two agree bit for bit.
fn plain_and_recorded(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> (SolvedFlow, SolvedFlow) {
    let plain = cold_solve(net, commodities, opts).unwrap();
    let recorded = cold_solve(net, commodities, &opts.with_commodity_flows(true)).unwrap();
    assert_eq!(plain.throughput, recorded.throughput);
    assert_eq!(plain.upper_bound, recorded.upper_bound);
    assert_eq!(plain.arc_flow, recorded.arc_flow);
    assert_eq!(plain.commodity_rate, recorded.commodity_rate);
    assert!(plain.commodity_arc_flow.is_none());
    assert!(recorded.commodity_arc_flow.is_some());
    (plain, recorded)
}
