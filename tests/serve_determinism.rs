//! The serve engine's acceptance pins (the warm==cold equivalence law):
//!
//! * **50-seeded differential suite** — every serve response equals a
//!   cold solve of the same scenario's surviving demand on its view:
//!   bitwise for λ wherever the cold path is pinned bitwise today
//!   (first-touch FPTAS, `fptas-strict`, `ksp:K`, `"warm":false`), and
//!   certified-interval-compatible for warm FPTAS resumes (both
//!   intervals must contain λ*, so they must overlap).
//! * **batch order-invariance** — responses (and the committed warm
//!   store, observed through the *next* batch) are byte-identical under
//!   permuted arrival order within a batch.
//! * **thread pinning** — whole transcripts are byte-identical at 1, 2,
//!   and 8 worker threads.
//! * **cache-warm vs cache-cold engines** — a server whose path-set
//!   cache is already hot answers exactly like a fresh instance when
//!   warm-starting is off.

use std::collections::HashMap;

use dctopo::core::{AppliedScenario, Degradation, Scenario, ThroughputEngine};
use dctopo::flow::FlowError;
use dctopo::prelude::*;
use dctopo::serve::{Drift, Json, QuerySpec, ServeConfig, Server};
use dctopo::topology::classic::complete;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

/// `tm` solved cold under the scenario `applied`: its surviving demand
/// on its view.
fn scenario_solve(
    engine: &ThroughputEngine,
    applied: &AppliedScenario,
    tm: &TrafficMatrix,
    opts: &FlowOptions,
) -> Result<ThroughputResult, FlowError> {
    let (cs, nic, flows) = engine.scenario_demand(applied, tm);
    engine.solve_commodities_warm(&applied.net, cs, nic, flows, opts, &[])
}

fn instance(seed: u64) -> (Topology, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let switches = 10 + (seed as usize % 4) * 2;
    let topo = Topology::random_regular(switches, 8, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    (topo, tm)
}

fn lines(ls: &[String]) -> Vec<String> {
    ls.to_vec()
}

/// Parse a response line, asserting `ok` and returning
/// `(throughput, lambda, upper_bound, warm)`.
fn parse_ok(line: &str) -> (f64, f64, f64, bool) {
    let v = Json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::INFINITY);
    (
        f("throughput"),
        f("network_lambda"),
        f("upper_bound"),
        v.get("warm").and_then(Json::as_bool).unwrap(),
    )
}

/// Two certified intervals `[λ, upper]` that each contain the true
/// optimum must overlap.
fn assert_intervals_overlap(a: (f64, f64), b: (f64, f64), ctx: &str) {
    let tol = 1.0 + 1e-9;
    assert!(
        a.0 <= b.1 * tol && b.0 <= a.1 * tol,
        "{ctx}: certified intervals [{}, {}] and [{}, {}] are disjoint",
        a.0,
        a.1,
        b.0,
        b.1
    );
}

#[test]
fn fifty_seeded_instances_match_cold_solves() {
    let opts = FlowOptions::fast();
    for seed in 0..50u64 {
        let (topo, tm) = instance(seed);
        let engine = ThroughputEngine::new(&topo);
        let mut server = Server::new(&topo, tm.clone(), ServeConfig::default());

        // ---- batch 1: first-touch queries run cold → bitwise ----
        let mut batch = vec![
            r#"{"id":0}"#.to_string(),
            format!(r#"{{"id":1,"degrade":[{{"kind":"fail-links","count":2,"seed":{seed}}}]}}"#),
            r#"{"id":2,"degrade":[{"kind":"scale-capacity","factor":0.6}]}"#.to_string(),
        ];
        let mut scenarios = vec![
            Scenario::baseline(),
            Scenario::new("f", vec![Degradation::FailLinks { count: 2, seed }]),
            Scenario::new("s", vec![Degradation::ScaleCapacity { factor: 0.6 }]),
        ];
        let mut backends = vec![opts; 3];
        if seed % 10 == 0 {
            // pinned cold backends stay pinned through the server
            batch.push(format!(
                r#"{{"id":3,"degrade":[{{"kind":"fail-links","count":2,"seed":{seed}}}],"backend":"ksp:3"}}"#
            ));
            scenarios.push(Scenario::new(
                "f",
                vec![Degradation::FailLinks { count: 2, seed }],
            ));
            backends.push(FlowOptions {
                backend: Backend::KspRestricted { k: 3 },
                ..opts
            });
            batch.push(r#"{"id":4,"backend":"fptas-strict"}"#.to_string());
            scenarios.push(Scenario::baseline());
            backends.push(FlowOptions {
                strict_reference: true,
                ..opts
            });
        }
        let responses = server.serve_batch(&lines(&batch));
        assert_eq!(responses.len(), batch.len());
        for (i, (sc, o)) in scenarios.iter().zip(&backends).enumerate() {
            let applied = sc.apply(&topo, engine.net()).unwrap();
            let cold = scenario_solve(&engine, &applied, &tm, o).unwrap();
            let (thr, lam, upper, warm) = parse_ok(&responses[i]);
            assert!(!warm, "seed {seed} id {i}: first touch must run cold");
            assert_eq!(
                thr.to_bits(),
                cold.throughput.to_bits(),
                "seed {seed} id {i}: cold-path throughput not bitwise"
            );
            assert_eq!(lam.to_bits(), cold.network_lambda.to_bits());
            assert_eq!(upper.to_bits(), cold.network_upper_bound.to_bits());
        }

        // ---- batch 2: drifted re-query warm-starts; its certified
        // interval must be compatible with a cold drifted solve ----
        let drift = Drift {
            spread: 0.1,
            seed: seed ^ 0x9e37,
        };
        let warm_resp = server.serve_batch(&lines(&[format!(
            r#"{{"id":9,"degrade":[{{"kind":"fail-links","count":2,"seed":{seed}}}],"drift":{{"spread":0.1,"seed":{}}}}}"#,
            drift.seed
        )]));
        let (thr_w, lam_w, up_w, warm) = parse_ok(&warm_resp[0]);
        assert!(
            warm,
            "seed {seed}: drifted re-query must consume warm state"
        );
        assert!(
            lam_w <= up_w * (1.0 + 1e-9),
            "seed {seed}: warm λ above dual"
        );
        assert!(thr_w > 0.0);
        let applied = scenarios[1].apply(&topo, engine.net()).unwrap();
        let (mut commodities, nic, flows) = engine.scenario_demand(&applied, &tm);
        for c in &mut commodities {
            c.demand *= QuerySpec::drift_factor(drift, c.src, c.dst);
        }
        let cold = engine
            .solve_commodities_warm(&applied.net, commodities, nic, flows, &opts, &[])
            .unwrap();
        assert_intervals_overlap(
            (lam_w, up_w),
            (cold.network_lambda, cold.network_upper_bound),
            &format!("seed {seed} warm vs cold"),
        );
    }
}

#[test]
fn warm_false_is_bitwise_cold_even_with_hot_slots() {
    let (topo, tm) = instance(7);
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::fast();
    let mut server = Server::new(&topo, tm.clone(), ServeConfig::default());
    let q = r#"{"id":1,"degrade":[{"kind":"fail-switches","count":1,"seed":4}]}"#.to_string();
    server.serve_batch(&lines(std::slice::from_ref(&q)));
    assert_eq!(server.warm_slots(), 1);

    // same structure, warm explicitly off: pinned cold answer
    let resp = server.serve_batch(&lines(&[
        r#"{"id":2,"degrade":[{"kind":"fail-switches","count":1,"seed":4}],"warm":false}"#
            .to_string(),
    ]));
    let (thr, lam, upper, warm) = parse_ok(&resp[0]);
    assert!(!warm);
    let sc = Scenario::new("sw", vec![Degradation::FailSwitches { count: 1, seed: 4 }]);
    let applied = sc.apply(&topo, engine.net()).unwrap();
    let cold = scenario_solve(&engine, &applied, &tm, &opts).unwrap();
    assert_eq!(thr.to_bits(), cold.throughput.to_bits());
    assert_eq!(lam.to_bits(), cold.network_lambda.to_bits());
    assert_eq!(upper.to_bits(), cold.network_upper_bound.to_bits());

    // the exact-LP backend is pinned cold too (tiny instance: K5)
    let topo5 = complete(5, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let tm5 = TrafficMatrix::random_permutation(topo5.server_count(), &mut rng);
    let engine5 = ThroughputEngine::new(&topo5);
    let mut server5 = Server::new(&topo5, tm5.clone(), ServeConfig::default());
    let resp = server5.serve_batch(&lines(&[r#"{"id":1,"backend":"exact"}"#.to_string()]));
    let (thr, lam, _, warm) = parse_ok(&resp[0]);
    assert!(!warm);
    let exact_opts = FlowOptions {
        backend: Backend::ExactLp,
        ..FlowOptions::fast()
    };
    let baseline = Scenario::baseline().apply(&topo5, engine5.net()).unwrap();
    let cold = scenario_solve(&engine5, &baseline, &tm5, &exact_opts).unwrap();
    assert_eq!(thr.to_bits(), cold.throughput.to_bits());
    assert_eq!(lam.to_bits(), cold.network_lambda.to_bits());
}

/// The order-invariance batches: duplicate structures, drift variants,
/// warm opt-outs, a ping and a stats probe — everything the canonical
/// ordering has to shield from arrival order.
fn mixed_batch() -> Vec<String> {
    vec![
        r#"{"id":"a","degrade":[{"kind":"fail-links","count":3,"seed":2}]}"#.into(),
        r#"{"id":"b","op":"ping"}"#.into(),
        r#"{"id":"c","degrade":[{"kind":"fail-links","count":3,"seed":2}],"drift":{"spread":0.2,"seed":11}}"#.into(),
        r#"{"id":"d"}"#.into(),
        r#"{"id":"e","degrade":[{"kind":"scale-capacity","factor":0.5}],"warm":false}"#.into(),
        r#"{"id":"f","op":"stats"}"#.into(),
        r#"{"id":"g","degrade":[{"kind":"fail-links","count":3,"seed":2}],"drift":{"spread":0.2,"seed":12}}"#.into(),
        r#"{"id":"h","degrade":[{"kind":"line-card-mix","fraction":0.5,"factor":0.4,"seed":6}]}"#.into(),
    ]
}

/// Follow-up batch re-touching the same structures: answers depend on
/// the warm store the first batch committed.
fn followup_batch() -> Vec<String> {
    vec![
        r#"{"id":"x","degrade":[{"kind":"fail-links","count":3,"seed":2}],"drift":{"spread":0.1,"seed":5}}"#.into(),
        r#"{"id":"y","degrade":[{"kind":"scale-capacity","factor":0.5}]}"#.into(),
        r#"{"id":"z","op":"stats"}"#.into(),
    ]
}

fn by_id(responses: &[String]) -> HashMap<String, String> {
    responses
        .iter()
        .map(|line| {
            let id = Json::parse(line).unwrap().get("id").unwrap().to_string();
            (id, line.clone())
        })
        .collect()
}

#[test]
fn batches_are_arrival_order_invariant_including_committed_warm_state() {
    let (topo, tm) = instance(13);
    let batch = mixed_batch();
    let mut permuted = batch.clone();
    permuted.reverse();
    permuted.swap(1, 5);

    let mut a = Server::new(&topo, tm.clone(), ServeConfig::default());
    let mut b = Server::new(&topo, tm.clone(), ServeConfig::default());
    let ra = a.serve_batch(&batch);
    let rb = b.serve_batch(&permuted);
    assert_eq!(by_id(&ra), by_id(&rb), "responses depend on arrival order");
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.warm_slots(), b.warm_slots());

    // the committed warm store must match too: observed through the
    // answers of a follow-up batch that consumes it
    let fa = a.serve_batch(&followup_batch());
    let fb = b.serve_batch(&followup_batch());
    assert_eq!(fa, fb, "committed warm state depends on arrival order");
}

#[test]
fn transcripts_bit_identical_at_1_2_and_8_threads() {
    let (topo, tm) = instance(29);
    let run_at = |threads: usize| -> Vec<String> {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mut s = Server::new(&topo, tm.clone(), ServeConfig::default());
                let mut out = s.serve_batch(&mixed_batch());
                out.extend(s.serve_batch(&followup_batch()));
                out
            })
    };
    let base = run_at(1);
    assert_eq!(base.len(), mixed_batch().len() + followup_batch().len());
    for threads in [2usize, 8] {
        assert_eq!(
            base,
            run_at(threads),
            "{threads}-thread transcript diverged from 1-thread"
        );
    }
}

#[test]
fn cache_warm_engine_answers_like_cache_cold_when_warm_is_off() {
    let (topo, tm) = instance(41);
    let cfg = ServeConfig {
        warm_default: false,
        ..ServeConfig::default()
    };
    // heat A's shared path-set cache (KSP queries freeze path sets) and
    // its FPTAS structures with a priming batch
    let mut hot = Server::new(&topo, tm.clone(), cfg);
    hot.serve_batch(&lines(&[
        r#"{"id":1,"degrade":[{"kind":"fail-links","count":3,"seed":2}],"backend":"ksp:3"}"#.into(),
        r#"{"id":2,"backend":"ksp:3"}"#.into(),
        r#"{"id":3}"#.into(),
    ]));
    let mut cold = Server::new(&topo, tm.clone(), cfg);

    let probe: Vec<String> = vec![
        r#"{"id":"p1","degrade":[{"kind":"fail-links","count":3,"seed":2}],"backend":"ksp:3"}"#
            .into(),
        r#"{"id":"p2","backend":"ksp:3"}"#.into(),
        r#"{"id":"p3"}"#.into(),
        r#"{"id":"p4","degrade":[{"kind":"fail-switches","count":1,"seed":8}]}"#.into(),
    ];
    assert_eq!(
        hot.serve_batch(&probe),
        cold.serve_batch(&probe),
        "a hot path-set cache changed answers"
    );
}
