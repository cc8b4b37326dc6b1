//! The packet-level co-validation regression corpus.
//!
//! Every cell solves a fluid throughput claim and witnesses it with
//! the deterministic packet simulator. The suite enforces the three
//! clauses of the co-validation law:
//!
//! 1. **Upper bound**: no flow's goodput exceeds its offered share of
//!    the certified rate (four packets of slack per measurement window
//!    for packet granularity + warmup-boundary backlog).
//! 2. **Monotonicity**: under nested link-failure scenarios (same
//!    seed, growing count) the certified λ — and with it the offer the
//!    packet level is held to — never increases beyond the solver's
//!    approximation gap.
//! 3. **Determinism**: reruns are bit-identical; delivered packet
//!    counts and trace hashes are pinned integers, so any divergence
//!    anywhere in the solver → decomposition → simulator pipeline
//!    fails loudly.

use dctopo::packetsim::TransportMode;
use dctopo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Cell {
    name: &'static str,
    routing: RoutingMode,
    /// Delivery floor on the worst flow's goodput/offer ratio. The
    /// certified rates are feasible on the solver's split, so the
    /// decomposed and KSP witnesses must deliver nearly all of the
    /// scaled offer; ECMP ignores the split and may congest, so it is
    /// held only to the upper-bound law plus a loose progress floor.
    min_ratio: f64,
    /// Pinned total delivered packets in the measurement window.
    delivered: u64,
    /// Pinned FNV-1a trace hash of the processed event sequence.
    trace_hash: u64,
}

fn rrg_instance(seed: u64) -> (Topology, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::random_regular(16, 10, 6, &mut rng).expect("rrg");
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    (topo, tm)
}

/// Clause 1 + 3 over a pinned corpus: three routing modes on the same
/// fabric, goodput within the certified offer, exact delivered counts
/// and trace hashes.
#[test]
fn corpus_is_pinned_and_law_abiding() {
    let cells = [
        Cell {
            name: "decomposed",
            routing: RoutingMode::Decomposed,
            min_ratio: 0.8,
            delivered: 3123,
            trace_hash: 0x215415974980f39d,
        },
        Cell {
            name: "ksp4",
            routing: RoutingMode::Ksp { k: 4 },
            min_ratio: 0.8,
            delivered: 2797,
            trace_hash: 0x1ac424492a9b6802,
        },
        Cell {
            name: "ecmp4",
            routing: RoutingMode::Ecmp { limit: 4 },
            min_ratio: 0.3,
            delivered: 2420,
            trace_hash: 0x1f8781d6a5e80206,
        },
    ];
    let (topo, tm) = rrg_instance(11);
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::default();
    let mut actual = Vec::new();
    for cell in &cells {
        let params = PacketParams {
            routing: cell.routing,
            duration: 100.0,
            warmup: 25.0,
            ..PacketParams::default()
        };
        let cv = engine.covalidate(&tm, &opts, &params).expect(cell.name);
        assert!(
            cv.upholds_law(4.0),
            "{}: goodput above the certified offer: {:?}",
            cell.name,
            cv.ratios()
        );
        assert!(
            cv.min_ratio() > cell.min_ratio,
            "{}: delivery below floor {}, got {}",
            cell.name,
            cell.min_ratio,
            cv.min_ratio()
        );
        println!(
            "PIN {}: delivered {} trace_hash {:#018x}",
            cell.name, cv.result.delivered, cv.result.trace_hash
        );
        actual.push((cell, cv.result.delivered, cv.result.trace_hash));
    }
    for (cell, delivered, trace_hash) in actual {
        assert_eq!(
            delivered, cell.delivered,
            "{}: delivered count drifted",
            cell.name
        );
        assert_eq!(
            trace_hash, cell.trace_hash,
            "{}: trace hash drifted",
            cell.name
        );
    }
}

/// Clause 2: nested FailLinks scenarios (same seed, growing count)
/// keep the law at every level, and the certified λ never increases
/// beyond the solver's approximation gap.
#[test]
fn nested_failures_are_monotone_and_law_abiding() {
    let (topo, tm) = rrg_instance(12);
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::default();
    let params = PacketParams {
        duration: 100.0,
        warmup: 25.0,
        ..PacketParams::default()
    };
    let mut lambdas = Vec::new();
    for count in [0usize, 2, 4, 8] {
        let sc = Scenario::new(
            format!("fail-{count}"),
            vec![Degradation::FailLinks { count, seed: 5 }],
        );
        let applied = sc.apply(&topo, engine.net()).expect("apply");
        let cv = engine
            .covalidate_scenario(&applied, &tm, &opts, &params)
            .expect("covalidate");
        assert!(
            cv.upholds_law(4.0),
            "fail-{count}: goodput above the certified offer"
        );
        lambdas.push(cv.lambda);
    }
    // reported λ is a lower-bound certificate with target gap 5%: a
    // strictly weaker fabric may report at most that much higher
    for w in lambdas.windows(2) {
        assert!(
            w[1] <= w[0] * 1.06 + 1e-9,
            "nested failure raised certified λ: {lambdas:?}"
        );
    }
    assert!(
        lambdas.last().unwrap() < lambdas.first().unwrap(),
        "eight failed links must cost real throughput: {lambdas:?}"
    );
}

/// Clause 3: the full pipeline is bit-identical on rerun — same
/// SimResult, field for field, including the trace hash.
#[test]
fn reruns_are_bit_identical() {
    let (topo, tm) = rrg_instance(13);
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::default();
    let params = PacketParams::default();
    let a = engine.covalidate(&tm, &opts, &params).expect("first");
    let b = engine.covalidate(&tm, &opts, &params).expect("second");
    assert_eq!(a.result, b.result, "rerun diverged");
    assert_eq!(a.commodity_offered, b.commodity_offered);
    // and from a fresh engine (no shared path-set cache)
    let fresh = ThroughputEngine::new(&topo);
    let c = fresh.covalidate(&tm, &opts, &params).expect("fresh");
    assert_eq!(a.result, c.result, "cold-cache rerun diverged");
}

/// Window-mode law: closed-loop AIMD may exceed the scaled offer but
/// can never witness a λ above the certified upper bound.
#[test]
fn window_mode_never_beats_the_upper_bound() {
    let (topo, tm) = rrg_instance(14);
    let engine = ThroughputEngine::new(&topo);
    let params = PacketParams {
        mode: TransportMode::Window,
        duration: 100.0,
        warmup: 30.0,
        rto: 4.0,
        queue: 16,
        ..PacketParams::default()
    };
    let cv = engine
        .covalidate(&tm, &FlowOptions::default(), &params)
        .expect("window");
    let witnessed = cv.normalized_min_goodput();
    let slack = 4.0 / cv.measure_window;
    assert!(
        witnessed <= cv.upper_bound + slack,
        "witnessed λ {witnessed} beats the certified upper bound {}",
        cv.upper_bound
    );
    assert!(
        cv.result.delivered > 0,
        "closed-loop transport made no progress"
    );
}
