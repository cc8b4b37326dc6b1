//! Max concurrent flow is scale-invariant: multiplying every demand by
//! `k` divides λ* by `k`. These tests hold the multiplicative-weights
//! loops to that — the pairwise FPTAS, the frozen-path (`ksp:k`) solver
//! and the grouped solver — where a loop that routes every demand once
//! a phase, in the caller's units, stalls far below λ* on dense demand.

use std::sync::Arc;

use dctopo::core::solve::aggregate_commodities;
use dctopo::flow::{
    solve_grouped, solve_with_cache, Backend, Commodity, DemandGroup, FlowOptions, PathSetCache,
    SolvedFlow,
};
use dctopo::graph::CsrNet;
use dctopo::obs::{self, Json};
use dctopo::topology::Topology;
use dctopo::traffic::TrafficMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cold pairwise solve: `opts`'s backend on a fresh path-set cache.
fn solve_cold(net: &CsrNet, commodities: &[Commodity], opts: &FlowOptions) -> SolvedFlow {
    solve_with_cache(net, commodities, opts, &PathSetCache::new()).unwrap()
}

/// RRG(12, 7, 4) from `rng` and one commodity of demand 1 from each
/// switch to the switch five along.
fn instance(rng: &mut StdRng) -> (CsrNet, Vec<Commodity>) {
    let topo = Topology::random_regular(12, 7, 4, rng).unwrap();
    let base = (0..12).map(|i| Commodity::unit(i, (i + 5) % 12)).collect();
    (CsrNet::from_graph(&topo.graph), base)
}

/// The loops under test, each with the trace event its solve closes
/// with.
const LOOPS: [(&str, &str); 3] = [
    ("fptas", "fptas_solve"),
    ("ksp:4", "ksp_solve"),
    ("grouped", "grouped_solve"),
];

/// Loop `name` on `2^j·base`: the pairwise FPTAS, `ksp:4`, or the
/// grouped loop on all-to-all between the switches — one group per
/// source over one shared weight vector — whose certificate it checks.
fn solve_at(
    net: &CsrNet,
    base: &[Commodity],
    name: &str,
    j: i32,
    opts: &FlowOptions,
) -> SolvedFlow {
    let scale = 2f64.powi(j);
    let scaled: Vec<Commodity> = (base.iter())
        .map(|c| Commodity {
            demand: scale * c.demand,
            ..*c
        })
        .collect();
    match name {
        "fptas" => solve_cold(net, &scaled, opts),
        "ksp:4" => solve_cold(
            net,
            &scaled,
            &opts.with_backend(Backend::KspRestricted { k: 4 }),
        ),
        _ => {
            let ones = Arc::new(vec![1.0; net.node_count()]);
            let groups: Vec<DemandGroup> = (0..net.node_count())
                .map(|u| DemandGroup::weighted(u, Arc::clone(&ones), scale))
                .collect();
            let s = solve_grouped(net, &groups, opts).unwrap();
            s.certify_groups(net, &groups).unwrap();
            s
        }
    }
}

/// The `*_solve` events of a trace: one closes every solve.
fn solve_events(trace: &[String]) -> Vec<Json> {
    (trace.iter())
        .filter(|line| line.contains("_solve\""))
        .filter_map(|line| Json::parse(line).ok())
        .collect()
}

/// The `stop` and `unit` fields of the `event` that reported `s`,
/// picked out by its λ: the recorder is process-global, so another
/// test's solves may be in the trace too.
fn stop_and_unit(events: &[Json], event: &str, s: &SolvedFlow) -> (String, f64) {
    let ev = (events.iter())
        .find(|ev| {
            ev.get("ev").and_then(Json::as_str) == Some(event)
                && ev.get("lambda").and_then(Json::as_f64) == Some(s.throughput)
        })
        .unwrap_or_else(|| panic!("no {event} event reports λ {}", s.throughput));
    let stop = ev.get("stop").and_then(Json::as_str).expect("a stop field");
    let unit = ev.get("unit").and_then(Json::as_f64).expect("a unit field");
    (stop.to_owned(), unit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Solving `d` and `2^j·d` for every `j` in −8…8 gives certified
    /// intervals that overlap once scaled back by `2^j`, under each of
    /// the three loops; a solve that stops on the gap is within
    /// `target_gap`; and at `2^8·d` every loop routes in a unit below
    /// 1, at `2^-8·d` in one above 1 (the `unit` field of its trace
    /// event). The pairwise loop reads
    /// its unit before its first phase, so two of its solves whose
    /// phases route the same `2^j·unit·d` are one trajectory: their
    /// scaled-back λ and bound agree bit for bit — the unit costs no
    /// exactness.
    #[test]
    fn every_loop_certifies_the_same_optimum_at_every_demand_scale(seed in any::<u64>()) {
        let (net, base) = instance(&mut StdRng::seed_from_u64(seed));
        // `fast()`, on a budget that keeps a case's 51 solves short;
        // `every_loop_closes_the_gap_at_every_demand_scale` runs the full one
        let opts = FlowOptions { max_phases: 300, ..FlowOptions::fast() };
        obs::enable_memory();
        let mut solves = Vec::new();
        for (name, event) in LOOPS {
            for j in -8i32..=8 {
                solves.push((name, event, j, solve_at(&net, &base, name, j, &opts)));
            }
        }
        let events = solve_events(&obs::drain_memory());
        obs::disable();
        for name in LOOPS.map(|(name, _)| name) {
            let of_loop = solves.iter().filter(|(n, ..)| *n == name);
            // each interval in the units of `d`
            let lower = of_loop.clone()
                .map(|(.., j, s)| s.throughput * 2f64.powi(*j))
                .fold(0.0, f64::max);
            let upper = of_loop
                .map(|(.., j, s)| s.upper_bound * 2f64.powi(*j))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(lower <= upper * (1.0 + 1e-9),
                "{name}: intervals do not overlap, λ {lower} above bound {upper}");
        }
        // the pairwise solves by the demand their phases route, `2^j·unit`
        let mut routed: Vec<(f64, f64, f64, i32)> = Vec::new();
        for (name, event, j, s) in &solves {
            let (stop, unit) = stop_and_unit(&events, event, s);
            if stop == "gap" {
                prop_assert!(s.gap() <= opts.target_gap, "{name} at 2^{j}: gap {}", s.gap());
            }
            if *j == 8 {
                prop_assert!(unit < 1.0, "{name} at 2^{j}: routed in unit {unit}");
            }
            if *j == -8 {
                prop_assert!(unit > 1.0, "{name} at 2^{j}: routed in unit {unit}");
            }
            if *name == "fptas" {
                let back = 2f64.powi(*j);
                routed.push((back * unit, s.throughput * back, s.upper_bound * back, *j));
            }
        }
        for (i, a) in routed.iter().enumerate() {
            for b in routed[..i].iter().filter(|b| b.0 == a.0) {
                prop_assert!(a.1.to_bits() == b.1.to_bits() && a.2.to_bits() == b.2.to_bits(),
                    "fptas at 2^{} and 2^{} route {} a phase: [{}, {}] against [{}, {}]",
                    a.3, b.3, a.0, a.1, a.2, b.1, b.2);
            }
        }
    }
}

/// At every demand scale `2^j`, `j` in −8…8, on three seeded graphs and
/// under the full `fast()` budget, every loop certifies within twice
/// `target_gap`: the unit its phases route in keeps λ* near ½ in them
/// whether the demand is dense or sparse. Routing every demand in the
/// caller's units, or switching only below a first estimate of 1/16,
/// leaves gaps of up to 58 % at `2^-8·d`.
#[test]
fn every_loop_closes_the_gap_at_every_demand_scale() {
    let opts = FlowOptions::fast();
    for seed in 1..=3 {
        let (net, base) = instance(&mut StdRng::seed_from_u64(seed));
        for (name, _) in LOOPS {
            for j in -8i32..=8 {
                let s = solve_at(&net, &base, name, j, &opts);
                assert!(
                    s.gap() <= 2.0 * opts.target_gap,
                    "seed {seed}, {name} at 2^{j}: gap {} after {} phases",
                    s.gap(),
                    s.phases
                );
            }
        }
    }
}

/// All-to-all traffic on RRG(16, 8, 4), four servers per switch: every
/// pair of switches wants 16 units, and λ* is about 0.0083. The fast
/// FPTAS and the eight-path solver each certify a λ within `target_gap`
/// of the exact optimum; a loop that routes each pair's 16 units once
/// a phase stops on its stall rule about a fifth below it.
#[test]
fn dense_all_to_all_certifies_within_the_gap_of_the_exact_optimum() {
    let mut rng = StdRng::seed_from_u64(1);
    let topo = Topology::random_regular(16, 8, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::all_to_all(topo.server_count());
    let commodities = aggregate_commodities(&topo, &tm);
    let net = CsrNet::from_graph(&topo.graph);
    let opts = FlowOptions::default();
    let exact = solve_cold(&net, &commodities, &opts.with_backend(Backend::ExactLp));
    assert!(
        (0.0075..0.0095).contains(&exact.throughput),
        "λ* = {}",
        exact.throughput
    );
    for backend in [Backend::Fptas, Backend::KspRestricted { k: 8 }] {
        let s = solve_cold(&net, &commodities, &opts.with_backend(backend));
        assert!(
            s.throughput >= (1.0 - opts.target_gap) * exact.throughput,
            "{}: λ {} against λ* {}",
            backend.name(),
            s.throughput,
            exact.throughput
        );
        assert!(s.throughput <= exact.upper_bound * (1.0 + 1e-9));
        assert!(exact.throughput <= s.upper_bound * (1.0 + 1e-9));
    }
}

/// Capacities of `2^-40` and unit demands: λ* is about `2^-40`, so each
/// loop routes its phases in a unit near it, and a remainder it leaves
/// must be small against that unit, not against 1 — a `1e-12` floor in
/// the caller's units would route nothing. Each loop's interval,
/// scaled back by `2^40`, overlaps its interval on the unscaled net and
/// closes `fast()`'s gap as that one does.
#[test]
fn tiny_capacities_route_in_a_unit_of_their_own() {
    let mut rng = StdRng::seed_from_u64(40);
    let topo = Topology::random_regular(12, 7, 4, &mut rng).unwrap();
    let base = CsrNet::from_graph(&topo.graph);
    let tiny = base.with_scaled_capacity(2f64.powi(-40)).unwrap();
    let cs: Vec<Commodity> = (0..12).map(|i| Commodity::unit(i, (i + 5) % 12)).collect();
    let ones = Arc::new(vec![1.0; 12]);
    let groups: Vec<DemandGroup> = (0..12)
        .map(|u| DemandGroup::weighted(u, Arc::clone(&ones), 1.0))
        .collect();
    let opts = FlowOptions::fast();
    let ksp = opts.with_backend(Backend::KspRestricted { k: 4 });
    let solve = |net: &CsrNet, name: &str| match name {
        "fptas" => solve_cold(net, &cs, &opts),
        "ksp:4" => solve_cold(net, &cs, &ksp),
        _ => solve_grouped(net, &groups, &opts).unwrap(),
    };
    for name in ["fptas", "ksp:4", "grouped"] {
        let (a, b) = (solve(&base, name), solve(&tiny, name));
        let back = 2f64.powi(40);
        assert!(b.throughput > 0.0, "{name}: nothing routed");
        assert!(
            b.throughput * back <= a.upper_bound * (1.0 + 1e-9),
            "{name}"
        );
        assert!(
            a.throughput <= b.upper_bound * back * (1.0 + 1e-9),
            "{name}"
        );
        assert!(
            b.gap() <= a.gap().max(opts.target_gap),
            "{name}: gap {} against {}",
            b.gap(),
            a.gap()
        );
    }
}
