//! The observability layer's acceptance pins.
//!
//! The determinism contract under test ([`dctopo::obs`] module docs):
//!
//! * **Tracing never steers the solver.** λ, the certified dual bound,
//!   settle counts, and phase counts are bitwise identical between
//!   trace-off and trace-on runs, at 1, 2, and 8 rayon threads, over 50
//!   seeded instances.
//! * **The deterministic residue replays byte for byte.** After
//!   [`dctopo::obs::strip_nd`] removes the `"nd"` (wall-clock /
//!   scheduling) section from every line, two traced runs of the same
//!   workload — and traced runs at *different* thread counts — produce
//!   identical JSONL. One rule makes that hold: a parallel task that
//!   can emit runs inside [`dctopo::obs::capture`], and its caller
//!   replays the captured events in index order.
//! * **The packet witness is in the trace.** One `covalidate` emits one
//!   `packet_witness` event whose counters are the returned
//!   `SimResult`'s, and whose residue replays.
//! * **A KSP solve is in the trace.** A `ksp:4` solve emits one
//!   `ksp_solve` event whether its path sets were frozen for it (cold)
//!   or served from the engine's cache; the two differ only under `nd`.
//! * **An aggregated solve's harvest is in the trace.** Its
//!   `grouped_harvest` event names the side the final trees grew from
//!   (`sinks` or `sources`) and how many it grew.
//! * **Serve transcripts are tracing-invariant**, and the traced batch
//!   emits the serve event taxonomy.
//! * **The parallel frontends replay too.** A sweep with a failure
//!   scenario, a serve batch and two search rounds solve concurrently on
//!   the pool; each task captures its events and the caller replays
//!   them in index order, so their residues match at 1, 2 and 8
//!   threads.
//!
//! The recorder is process-global, so everything lives in ONE `#[test]`
//! — the harness's default parallel scheduling must never interleave
//! two sinks.

use dctopo::obs;
use dctopo::prelude::*;
use dctopo::traffic::AggregateTraffic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

/// Everything a solve must reproduce bitwise.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    lambda: u64,
    upper: u64,
    settles: u64,
    phases: usize,
}

/// 50 seeded instances cycling through five RRG shapes.
fn instances() -> Vec<(Topology, TrafficMatrix)> {
    let shapes = [(10, 6, 4), (12, 7, 4), (14, 8, 5), (16, 8, 4), (12, 6, 3)];
    (0..50u64)
        .map(|i| {
            let (n, k, r) = shapes[i as usize % shapes.len()];
            let mut rng = StdRng::seed_from_u64(100 + i);
            let topo = Topology::random_regular(n, k, r, &mut rng).expect("rrg");
            let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
            (topo, tm)
        })
        .collect()
}

fn pin(r: &ThroughputResult) -> Pin {
    let s = r.solved.as_ref().expect("iterative backend");
    Pin {
        lambda: r.network_lambda.to_bits(),
        upper: r.network_upper_bound.to_bits(),
        settles: s.settles,
        phases: s.phases,
    }
}

/// Solve every instance sequentially (each solve may parallelize
/// internally — that is exactly what the thread-count pin exercises),
/// then ask it the planner's question at a floor the solve decides
/// early: 5 % under its λ (a primal-side stop) on even instances, 5 %
/// over its bound (a dual-side stop) on odd ones.
fn solve_all(insts: &[(Topology, TrafficMatrix)], opts: &FlowOptions) -> Vec<Pin> {
    let mut pins = Vec::new();
    for (i, (topo, tm)) in insts.iter().enumerate() {
        let engine = ThroughputEngine::new(topo);
        let r = engine.solve(tm, opts).expect("solve");
        let floor = if i % 2 == 0 {
            0.95 * r.network_lambda
        } else {
            1.05 * r.network_upper_bound
        };
        let floored = (engine.certify_floor(engine.net(), tm, opts, floor)).expect("floor solve");
        pins.extend([pin(&r), pin(&floored)]);
    }
    pins
}

fn strip_all(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| obs::strip_nd(l).expect("valid trace JSONL"))
        .collect()
}

#[test]
fn tracing_is_invisible_to_results_and_replays_deterministically() {
    let insts = instances();
    let opts = FlowOptions::fast();

    // ---- baseline: trace-off, ambient pool ----
    assert!(!obs::enabled(), "recorder must start disabled");
    let baseline = solve_all(&insts, &opts);

    // ---- trace-on at 1/2/8 threads: bitwise pins + residue capture ----
    let mut residues: Vec<Vec<String>> = Vec::new();
    for &threads in &[1usize, 2, 8] {
        obs::enable_memory(); // fresh sink: seq restarts at 0
        let pinned = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| solve_all(&insts, &opts));
        let lines = obs::drain_memory();
        obs::disable();
        assert_eq!(
            pinned, baseline,
            "traced solve at {threads} threads diverged from the untraced baseline"
        );
        assert!(!lines.is_empty(), "traced run emitted no events");
        residues.push(strip_all(&lines));
    }
    assert_eq!(
        residues[0], residues[1],
        "deterministic residue differs between 1 and 2 threads"
    );
    assert_eq!(
        residues[0], residues[2],
        "deterministic residue differs between 1 and 8 threads"
    );

    // ---- the averaged dual's and the weighted primal's fields are in
    // that residue (so equal at 1/2/8 threads) and add up: a solve's
    // `mean_dual_passes` is the number of its phases that carry a
    // `mean_dual`, a bound said to come from the mean is the smallest
    // one those phases recorded, every phase carries the weight √phase
    // its flow entered the first primal average at, `best_phase` is the
    // first phase that reached the λ the solve returned, and
    // `primal_from` names the average it was read from — both averages
    // supply some solve's λ. Every solve names
    // the rule that stopped it: each full solve stops on its gap or
    // its stall, and each floor solve on its floor ----
    let mut stops: Vec<String> = Vec::new();
    let (mut passes, mut smallest, mut from_mean) = (0u64, f64::INFINITY, 0usize);
    let (mut best, mut before_last) = ((0.0f64, 0.0f64), 0usize);
    let mut primal_from = [0usize; 2];
    for line in &residues[0] {
        let ev = obs::Json::parse(line).expect("residue lines are JSON");
        let num = |key: &str| ev.get(key).and_then(obs::Json::as_f64);
        match ev.get("ev").and_then(obs::Json::as_str) {
            Some("fptas_phase") => {
                let phase = num("phase").unwrap();
                if let Some(bound) = num("mean_dual") {
                    assert!(phase >= 8.0, "evaluated too early: {line}");
                    passes += 1;
                    smallest = smallest.min(bound);
                }
                assert_eq!(num("weight"), Some(phase.sqrt()), "{line}");
                if num("primal").unwrap() > best.1 {
                    best = (phase, num("primal").unwrap());
                }
            }
            Some("fptas_solve") => {
                assert_eq!(num("mean_dual_passes"), Some(passes as f64), "{line}");
                match ev.get("dual_from").and_then(obs::Json::as_str) {
                    Some("mean") => {
                        assert_eq!(num("upper_bound"), Some(smallest), "{line}");
                        from_mean += 1;
                    }
                    Some("last") => assert!(num("upper_bound").unwrap() <= smallest, "{line}"),
                    other => panic!("dual_from {other:?} in {line}"),
                }
                assert_eq!(
                    (num("best_phase"), num("lambda")),
                    (Some(best.0), Some(best.1))
                );
                before_last += usize::from(num("best_phase") < num("phases"));
                match ev.get("primal_from").and_then(obs::Json::as_str) {
                    Some("sqrt") => primal_from[0] += 1,
                    Some("square") => primal_from[1] += 1,
                    other => panic!("primal_from {other:?} in {line}"),
                }
                let stop = ev.get("stop").and_then(obs::Json::as_str);
                stops.push(stop.unwrap_or_else(|| panic!("no stop: {line}")).to_owned());
                (passes, smallest, best) = (0, f64::INFINITY, (0.0, 0.0));
            }
            _ => {}
        }
    }
    assert!(
        from_mean > 0,
        "no solve took its bound from the mean lengths"
    );
    assert!(
        before_last > 0,
        "every solve returned its last phase: best_phase is untested"
    );
    assert!(
        primal_from.iter().all(|&n| n > 0),
        "one average supplied every λ: primal_from is untested ({primal_from:?})"
    );
    assert_eq!(stops.len(), 2 * insts.len());
    for (i, pair) in stops.chunks(2).enumerate() {
        assert!(
            matches!(pair[0].as_str(), "gap" | "stall") && pair[1] == "floor",
            "instance {i}: {pair:?}"
        );
    }

    // ---- replay: a second traced run reproduces the residue byte for
    // byte (and really did strip something: phase events carry wall
    // clocks) ----
    obs::enable_memory();
    let again = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| solve_all(&insts, &opts));
    let raw = obs::drain_memory();
    obs::disable();
    assert_eq!(again, baseline);
    assert!(
        raw.iter().any(|l| l.contains("\"nd\":")),
        "trace must carry an nd section to strip"
    );
    assert_eq!(
        strip_all(&raw),
        residues[0],
        "replay residue diverged from the first traced run"
    );

    // ---- the packet witness: one `packet_witness` event per
    // co-validation, carrying the simulator's counters and trace hash;
    // tracing changes nothing it returns, and with the wall clock
    // stripped the event replays byte for byte ----
    let (topo, tm) = &insts[0];
    let witness = |traced: bool| {
        if traced {
            obs::enable_memory();
        }
        let cv = ThroughputEngine::new(topo)
            .covalidate(tm, &opts, &PacketParams::default())
            .expect("covalidate");
        let lines = obs::drain_memory();
        obs::disable();
        let events: Vec<String> = strip_all(&lines)
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"packet_witness\""))
            .collect();
        (cv.result, lines, events)
    };
    let (plain, _, none) = witness(false);
    let (traced, raw, first) = witness(true);
    let (_, _, second) = witness(true);
    assert_eq!(plain, traced, "tracing changed the packet witness");
    assert!(none.is_empty() && first.len() == 1, "{none:?} {first:?}");
    assert_eq!(first, second, "packet_witness residue diverged on replay");
    assert!(raw.iter().any(|l| l.contains("\"sim_us\":")));
    let ev = obs::Json::parse(&first[0]).unwrap();
    let count = |key: &str| ev.get(key).and_then(obs::Json::as_u64);
    assert_eq!(count("flows"), Some(plain.flow_goodput.len() as u64));
    assert!(count("paths") >= count("flows"));
    assert_eq!(count("events"), Some(plain.events));
    assert_eq!(count("delivered"), Some(plain.delivered));
    assert_eq!(count("drops"), Some(plain.drops));
    assert_eq!(count("retransmits"), Some(plain.retransmits));
    assert_eq!(count("peak_queue"), Some(plain.peak_queue as u64));
    assert!((1..=PacketParams::default().queue).contains(&plain.peak_queue));
    assert_eq!(
        ev.get("trace_hash").and_then(obs::Json::as_str),
        Some(format!("{:#018x}", plain.trace_hash).as_str())
    );

    // ---- the KSP backend: one `ksp_solve` event per solve, cold (every
    // pair frozen by Yen) and cached (every pair a hit) alike; tracing
    // changes neither result, and with the clocks stripped both events
    // replay byte for byte — and are equal, the cache being invisible ----
    let ksp_opts = opts.with_backend(Backend::KspRestricted { k: 4 });
    let ksp = |traced: bool| {
        if traced {
            obs::enable_memory();
        }
        let engine = ThroughputEngine::new(topo);
        let both = [(); 2].map(|()| engine.solve(tm, &ksp_opts).expect("ksp:4 solve"));
        let lines = obs::drain_memory();
        obs::disable();
        let stats = engine.cache_stats();
        assert!(stats.misses > 0 && stats.hits == stats.misses, "{stats:?}");
        let pins = both.map(|r| {
            let s = r.solved.expect("iterative backend");
            (s.throughput.to_bits(), s.upper_bound.to_bits(), s.phases)
        });
        let events: Vec<String> = strip_all(&lines)
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"ksp_solve\""))
            .collect();
        (pins, stats.misses, lines, events)
    };
    let (plain, _, _, none) = ksp(false);
    let (traced, pairs, raw, first) = ksp(true);
    let (_, _, _, second) = ksp(true);
    assert_eq!(plain, traced, "tracing changed a ksp:4 solve");
    assert_eq!(plain[0], plain[1], "a cached solve is the cold solve");
    assert!(none.is_empty() && first.len() == 2, "{none:?} {first:?}");
    assert_eq!(first, second, "ksp_solve residue diverged on replay");
    for key in ["\"freeze_us\":", "\"wall_us\":"] {
        assert!(raw
            .iter()
            .any(|l| l.contains("ksp_solve") && l.contains(key)));
    }
    let fields = |line: &String| {
        let ev = obs::Json::parse(line).unwrap();
        let count = |key: &str| ev.get(key).and_then(obs::Json::as_u64).unwrap();
        let bits = |key: &str| ev.get(key).and_then(obs::Json::as_f64).unwrap().to_bits();
        let [k, commodities, paths, phases] = ["k", "commodities", "paths", "phases"].map(count);
        assert!(paths > pairs && paths <= 4 * pairs, "{paths} paths");
        (
            paths,
            [k, commodities, phases, bits("lambda"), bits("upper_bound")],
        )
    };
    let (lambda, upper, phases) = plain[0];
    let (paths, cold) = fields(&first[0]);
    assert_eq!(cold, [4, pairs, phases as u64, lambda, upper]);
    assert_eq!(fields(&first[1]), (paths, cold), "the cache shows");

    // ---- the aggregated solve: its final harvest names the side its
    // trees grew from and how many it grew — one per hot switch for
    // hot-spot demand, one per group for all-to-all, where sinks and
    // sources tie and the sources are kept. Tracing changes no result,
    // and the fields sit in the residue, equal at 1, 2 and 8 threads ----
    let (topo, _) = &insts[3];
    let hot = topo.servers_at[0] + 2;
    let mut hot_switches = topo.server_to_switch()[..hot].to_vec();
    hot_switches.dedup();
    let aggregates = [
        AggregateTraffic::hotspot(topo.server_count(), hot),
        AggregateTraffic::all_to_all(topo.server_count()),
    ];
    let aggregate = |threads: usize, traced: bool| {
        if traced {
            obs::enable_memory();
        }
        let engine = ThroughputEngine::new(topo);
        let pins: Vec<(u64, u64, u64, usize)> = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                aggregates
                    .iter()
                    .map(|traffic| {
                        let r = engine
                            .solve_aggregate(traffic, &opts)
                            .expect("aggregate solve");
                        let s = r.solved.expect("network demand");
                        (
                            s.throughput.to_bits(),
                            s.upper_bound.to_bits(),
                            s.settles,
                            s.phases,
                        )
                    })
                    .collect()
            });
        let lines = obs::drain_memory();
        obs::disable();
        (pins, strip_all(&lines))
    };
    let (plain, none) = aggregate(1, false);
    assert!(none.is_empty(), "{none:?}");
    let threads = [1usize, 2, 8];
    let runs = threads.map(|t| aggregate(t, true));
    let residue = &runs[0].1;
    for (t, (pins, r)) in threads.iter().zip(&runs) {
        assert_eq!(pins, &plain, "traced aggregate solve at {t} threads");
        assert_eq!(r, residue, "aggregate residue at {t} threads");
    }
    let (mut harvests, mut groups) = (Vec::new(), Vec::new());
    for line in residue {
        let ev = obs::Json::parse(line).expect("residue lines are JSON");
        let count = |key: &str| ev.get(key).and_then(obs::Json::as_u64).unwrap();
        match ev.get("ev").and_then(obs::Json::as_str) {
            Some("grouped_harvest") => {
                let side = ev.get("side").and_then(obs::Json::as_str).unwrap();
                harvests.push((side.to_owned(), count("trees")));
            }
            Some("grouped_solve") => groups.push(count("groups")),
            _ => {}
        }
    }
    assert_eq!(groups.len(), 2, "{groups:?}");
    assert!(hot_switches.len() > 1 && (hot_switches.len() as u64) < groups[0]);
    assert_eq!(
        harvests,
        [
            ("sinks".to_owned(), hot_switches.len() as u64),
            ("sources".to_owned(), groups[1]),
        ]
    );

    // ---- serve: transcripts are tracing-invariant ----
    let mut rng = StdRng::seed_from_u64(7);
    let topo = Topology::random_regular(12, 7, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let batch: Vec<String> = vec![
        r#"{"id":1}"#.into(),
        r#"{"id":2,"degrade":[{"kind":"fail-links","count":2,"seed":3}]}"#.into(),
        r#"{"id":3,"op":"ping"}"#.into(),
        r#"{"id":4,"degrade":[{"kind":"scale-capacity","factor":0.5}],"warm":false}"#.into(),
        r#"{"id":5,"backend":"ksp:3"}"#.into(),
        r#"{"id":6,"degrade":[{"kind":"fail-switches","count":1,"seed":2}]}"#.into(),
    ];
    let mut plain_server = Server::new(&topo, tm.clone(), ServeConfig::default());
    let plain = plain_server.serve_batch(&batch);
    obs::enable_memory();
    let mut traced_server = Server::new(&topo, tm.clone(), ServeConfig::default());
    let traced = traced_server.serve_batch(&batch);
    let trace = obs::drain_memory();
    obs::disable();
    assert_eq!(plain, traced, "tracing changed a serve transcript");
    assert_eq!(plain_server.stats(), traced_server.stats());
    for kind in ["\"ev\":\"serve_query\"", "\"ev\":\"serve_batch\""] {
        assert!(
            trace.iter().any(|l| l.contains(kind)),
            "traced batch missing {kind} events"
        );
    }

    // ---- the parallel frontends: a sweep with a failure scenario (its
    // degraded cells open warm on the baseline's certificates), a serve
    // batch and two search rounds fan their solves out on the pool.
    // Every task's events are captured and replayed in index order, so
    // each frontend's residue is one sequence at 1, 2 and 8 threads ----
    let sweep = || {
        let spec = SweepSpec {
            topologies: vec![TopologyPoint::rrg(10, 6, 4), TopologyPoint::rrg(12, 6, 4)],
            traffic: vec![TrafficModel::Permutation, TrafficModel::AllToAll],
            scenarios: vec![
                Scenario::new("baseline", Vec::new()),
                Scenario::new("fail:2", vec![Degradation::FailLinks { count: 2, seed: 1 }]),
            ],
            backends: vec![BackendChoice::fptas(), BackendChoice::ksp(3)],
            opts,
            seed: 11,
            runs: 1,
        };
        SweepRunner::new(spec).run().to_json()
    };
    let serve = || {
        let mut server = Server::new(&topo, tm.clone(), ServeConfig::default());
        let [first, second] = [&batch, &batch].map(|b| server.serve_batch(b).join("\n"));
        format!("{first}\n{second}")
    };
    let search = || {
        let (topo, tm) = &insts[2];
        let spec = SearchSpec::structural(5, 2, 8).with_opts(opts);
        let r = SearchRunner::new(topo, tm, spec).unwrap().run().unwrap();
        format!("{:?}", (r.best, r.accepted, r.certified_solves))
    };
    let frontends: [(&str, &(dyn Fn() -> String + Sync), &str); 3] = [
        ("sweep", &sweep, "\"ev\":\"sweep_cell\""),
        ("serve", &serve, "\"ev\":\"serve_query\""),
        ("search", &search, "\"ev\":\"fptas_solve\""),
    ];
    for (name, run, kind) in frontends {
        let plain = run();
        let residues = threads.map(|t| {
            obs::enable_memory();
            let out = ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(run);
            let lines = obs::drain_memory();
            obs::disable();
            assert_eq!(
                out, plain,
                "tracing changed the {name} output at {t} threads"
            );
            strip_all(&lines)
        });
        assert!(
            residues[0].iter().filter(|l| l.contains(kind)).count() > 1,
            "{name}: no {kind} events"
        );
        for (t, residue) in threads.iter().zip(&residues) {
            assert!(
                residue == &residues[0],
                "{name} residue at {t} threads differs from 1 thread's at line {}",
                residue
                    .iter()
                    .zip(&residues[0])
                    .take_while(|(a, b)| a == b)
                    .count()
            );
        }
        if name == "sweep" {
            let warm = residues[0]
                .iter()
                .filter(|l| l.contains(kind) && l.contains("\"warm\":true"));
            assert!(warm.count() > 0, "no sweep cell opened warm");
        }
    }
}
