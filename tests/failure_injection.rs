//! Failure-injection tests: every layer must fail loudly and precisely
//! on malformed input, never hang or return garbage.

use dctopo::core::packet::PacketParams;
use dctopo::core::solve::surviving_traffic;
use dctopo::core::{solve_throughput, AppliedScenario, Degradation, Scenario, ThroughputResult};
use dctopo::flow::{
    solve_grouped, solve_with_cache, Backend, Commodity, DemandGroup, FlowError, FlowOptions,
    PathSetCache, SolvedFlow, MAX_DEMAND, MIN_DEMAND,
};
use dctopo::graph::{CsrNet, Graph, GraphError};
use dctopo::packetsim::{simulate, FlowSpec, PathSpec, SimConfig, SimError};
use dctopo::prelude::*;
use dctopo::topology::hetero::{two_cluster, CrossSpec};
use dctopo::topology::vl2::{vl2, Vl2Params};
use dctopo::topology::SwitchClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cold solve on `net` with the backend `opts` selects.
fn solve_cold(net: &CsrNet, cs: &[Commodity], opts: &FlowOptions) -> Result<SolvedFlow, FlowError> {
    solve_with_cache(net, cs, opts, &PathSetCache::new())
}

/// A cold solve of `g`.
fn solve_graph(g: &Graph, cs: &[Commodity], opts: &FlowOptions) -> Result<SolvedFlow, FlowError> {
    solve_cold(&CsrNet::from_graph(g), cs, opts)
}

/// `tm` solved under the scenario `ap`: its surviving demand on its view.
fn scenario_solve(
    engine: &ThroughputEngine,
    ap: &AppliedScenario,
    tm: &TrafficMatrix,
    opts: &FlowOptions,
) -> Result<ThroughputResult, FlowError> {
    let (cs, nic, flows) = engine.scenario_demand(ap, tm);
    engine.solve_commodities_warm(&ap.net, cs, nic, flows, opts, &[])
}

#[test]
fn disconnected_topology_fails_cleanly() {
    // two clusters, zero cross links → two components
    let large = ClusterSpec {
        count: 6,
        ports: 8,
        servers_per_switch: 2,
    };
    let small = ClusterSpec {
        count: 6,
        ports: 8,
        servers_per_switch: 2,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let topo = two_cluster(large, small, CrossSpec::Exact(0), &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    // a permutation over all servers almost surely crosses the gap
    let res = solve_throughput(&topo, &tm, &FlowOptions::default());
    assert!(
        matches!(res, Err(FlowError::Unreachable { .. })),
        "expected Unreachable, got {res:?}"
    );
}

/// A three-switch line topology with one server each: failing the
/// middle switch makes the ends unreachable from each other.
fn line_topology() -> Topology {
    let mut g = Graph::new(3);
    g.add_unit_edge(0, 1).unwrap();
    g.add_unit_edge(1, 2).unwrap();
    Topology {
        graph: g,
        servers_at: vec![1, 1, 1],
        class_of: vec![0, 0, 0],
        classes: vec![SwitchClass {
            name: "switch".into(),
            ports: 4,
        }],
        unused_ports: 0,
    }
}

/// Switch (node) failure, not just link failure: a failed middle switch
/// must surface as `Unreachable` with the *exact* surviving endpoints,
/// while traffic of the dead switch's own servers is filtered out
/// rather than reported as an error.
#[test]
fn switch_failure_disconnects_with_precise_endpoints() {
    let topo = line_topology();
    let engine = ThroughputEngine::new(&topo);
    // fail exactly switch 1 (the cut vertex): pick the seed whose
    // failure order starts with it so the scenario is self-documenting
    let seed = (0..64)
        .find(|&s| dctopo::topology::degrade::switch_failure_order(3, s)[0] == 1)
        .expect("some seed starts with switch 1");
    let sc = Scenario::new("cut", vec![Degradation::FailSwitches { count: 1, seed }]);
    let ap = sc.apply(&topo, engine.net()).unwrap();
    assert_eq!(ap.failed_switch, vec![false, true, false]);
    // server 1 (on the dead switch) loses its flows silently; the
    // surviving 0 <-> 2 flows hit the disconnection and must name the
    // surviving switch endpoints precisely
    let tm = TrafficMatrix::from_pairs(3, vec![(0, 2), (2, 0), (1, 0)]);
    let survivors = surviving_traffic(&topo, &tm, &ap.failed_switch);
    assert_eq!(survivors.flow_count(), 2, "dead-switch flow must drop");
    let res = scenario_solve(&engine, &ap, &tm, &FlowOptions::default());
    assert!(
        matches!(res, Err(FlowError::Unreachable { src: 0, dst: 2 })),
        "expected Unreachable {{0, 2}}, got {res:?}"
    );
    // with only the dead switch's traffic, everything filters away and
    // the solve degenerates cleanly instead of erroring
    let tm_dead = TrafficMatrix::from_pairs(3, vec![(1, 0), (2, 1)]);
    let r = scenario_solve(&engine, &ap, &tm_dead, &FlowOptions::default()).unwrap();
    assert!(r.solved.is_none(), "no surviving network traffic expected");
    assert_eq!(
        r.throughput, 0.0,
        "a fabric with zero surviving flows must not report throughput"
    );
}

/// Capacity-override error paths: every malformed delta is a typed
/// error naming the offending arc or value — never a panic, never a
/// silently clamped capacity.
#[test]
fn capacity_override_error_paths_are_typed() {
    let topo = line_topology();
    let net = dctopo::graph::CsrNet::from_graph(&topo.graph);
    // arc out of range: exact variant with exact indices
    assert_eq!(
        net.with_disabled_arcs(&[4]).unwrap_err(),
        GraphError::ArcOutOfRange { arc: 4, arcs: 4 }
    );
    assert_eq!(
        net.with_capacity_overrides(&[(9, 1.0)]).unwrap_err(),
        GraphError::ArcOutOfRange { arc: 9, arcs: 4 }
    );
    // bad values: the variant carries the offending capacity
    for bad in [0.0, -3.0, 1e-310, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            net.with_capacity_overrides(&[(0, bad)]),
            Err(GraphError::BadCapacity { .. })
        ));
        assert!(matches!(
            net.with_scaled_capacity(bad),
            Err(GraphError::BadCapacity { .. })
        ));
    }
    // arithmetic that leaves the normal floats, whose reciprocal is not
    // finite: overflow through two scales, a subnormal through a scale
    // and through a line-card mix — the variant carries the product
    let huge = net.with_scaled_capacity(1e308).unwrap();
    assert_eq!(
        huge.with_scaled_capacity(1e308).unwrap_err(),
        GraphError::BadCapacity {
            capacity: f64::INFINITY
        }
    );
    let tiny = net.with_scaled_capacity(1e-300).unwrap();
    assert_eq!(
        tiny.with_scaled_capacity(1e-10).unwrap_err(),
        GraphError::BadCapacity {
            capacity: 1e-300 * 1e-10
        }
    );
    let mix = Degradation::LineCardMix {
        fraction: 1.0,
        factor: 1e-310,
        seed: 0,
    };
    assert_eq!(
        Scenario::new("mix", vec![mix])
            .apply(&topo, &net)
            .unwrap_err(),
        GraphError::BadCapacity { capacity: 1e-310 }
    );
    // overriding a failed link is a composition bug, not a repair
    let failed = net.with_disabled_arcs(&[0]).unwrap();
    assert!(matches!(
        failed.with_capacity_overrides(&[(1, 2.0)]),
        Err(GraphError::Unrealizable(_))
    ));
    // scenario layer surfaces the same errors through apply()
    let err = Scenario::new("bad", vec![Degradation::ScaleCapacity { factor: f64::NAN }])
        .apply(&topo, &net)
        .unwrap_err();
    assert!(matches!(err, GraphError::BadCapacity { .. }));
    let err = Scenario::new(
        "over",
        vec![Degradation::FailSwitches { count: 99, seed: 0 }],
    )
    .apply(&topo, &net)
    .unwrap_err();
    assert!(matches!(err, GraphError::Unrealizable(_)));
}

/// Link-failure deltas on the flow layer: failing the only path yields
/// `Unreachable` with the right endpoints on every backend, and failed
/// arcs stay flow-free when a detour exists.
#[test]
fn link_failure_deltas_fail_loudly_or_route_around() {
    use dctopo::flow::Backend;
    let mut g = Graph::new(4);
    for v in 0..4 {
        g.add_unit_edge(v, (v + 1) % 4).unwrap();
    }
    let net = dctopo::graph::CsrNet::from_graph(&g);
    let cs = [Commodity::unit(0, 2)];
    let opts = FlowOptions::default();
    // fail one side of the ring: the other side carries everything
    let half = net.with_disabled_arcs(&[0]).unwrap();
    for backend in [
        Backend::Fptas,
        Backend::ExactLp,
        Backend::KspRestricted { k: 2 },
    ] {
        let s = solve_cold(&half, &cs, &opts.with_backend(backend)).unwrap();
        assert!(
            (s.throughput - 1.0).abs() < 0.05,
            "{}: detour should carry λ ≈ 1, got {}",
            backend.name(),
            s.throughput
        );
        assert_eq!(s.arc_flow[0], 0.0);
        assert_eq!(s.arc_flow[1], 0.0);
    }
    // fail both sides: loud, precise failure on every backend
    let none = half.with_disabled_arcs(&[2 << 1]).unwrap();
    let res = solve_cold(&none, &cs, &opts);
    assert!(matches!(
        res,
        Err(FlowError::Unreachable { src: 0, dst: 2 })
    ));
    let res = solve_cold(
        &none,
        &cs,
        &opts.with_backend(Backend::KspRestricted { k: 2 }),
    );
    assert!(matches!(res, Err(FlowError::Unreachable { .. })));
    let res = solve_cold(&none, &cs, &opts.with_backend(Backend::ExactLp));
    assert!(matches!(
        res,
        Err(FlowError::Unreachable { src: 0, dst: 2 })
    ));
}

#[test]
fn zero_capacity_edges_rejected_at_construction() {
    let mut g = Graph::new(2);
    assert!(matches!(
        g.add_edge(0, 1, 0.0),
        Err(GraphError::BadCapacity { .. })
    ));
    assert!(matches!(
        g.add_edge(0, 1, -3.0),
        Err(GraphError::BadCapacity { .. })
    ));
    assert_eq!(g.edge_count(), 0, "failed adds must not mutate the graph");
}

#[test]
fn impossible_degree_sequences_rejected() {
    let mut rng = StdRng::seed_from_u64(2);
    // odd degree sum
    assert!(Topology::random_regular(5, 10, 3, &mut rng).is_err());
    // degree exceeding node count
    assert!(Topology::random_regular(4, 10, 7, &mut rng).is_err());
    // more cross links than ports
    let spec = ClusterSpec {
        count: 2,
        ports: 4,
        servers_per_switch: 1,
    };
    assert!(two_cluster(spec, spec, CrossSpec::Exact(1000), &mut rng).is_err());
}

#[test]
fn vl2_parameter_validation() {
    assert!(vl2(Vl2Params {
        d_a: 9,
        d_i: 8,
        tors: None
    })
    .is_err()); // odd D_A
    assert!(vl2(Vl2Params {
        d_a: 0,
        d_i: 8,
        tors: None
    })
    .is_err());
    assert!(vl2(Vl2Params {
        d_a: 8,
        d_i: 8,
        tors: Some(10_000)
    })
    .is_err());
}

/// The four pairwise solves: fast and strict FPTAS, `ksp:2`, the LP.
fn every_backend() -> [FlowOptions; 4] {
    let o = FlowOptions::default();
    [
        o,
        o.with_strict_reference(true),
        o.with_backend(Backend::KspRestricted { k: 2 }),
        o.with_backend(Backend::ExactLp),
    ]
}

/// Demands at the edges of the `f64` range are refused as `BadDemand`
/// on every backend and by `solve_grouped`, before any arithmetic: two
/// `1e308` demands summed to ∞ (an unreachable sink on a connected
/// ring, a bound of ∞ on `ksp:2`, a false `λ* ≤ 0` from the LP), a
/// weighted `scale · w` of `1e400` did the same after passing
/// validation, and a subnormal demand certified λ = ∞. A demand at
/// each limit solves and its certificate checks out.
#[test]
fn demands_outside_the_range_are_refused_and_the_limits_solve() {
    let mut g = Graph::new(4);
    for v in 0..4 {
        g.add_unit_edge(v, (v + 1) % 4).unwrap();
    }
    let net = CsrNet::from_graph(&g);
    let pair = |dst, demand| Commodity {
        src: 0,
        dst,
        demand,
    };
    let list = |sinks: Vec<(usize, f64)>| {
        let mut weights = vec![0.0; 4];
        for (dst, demand) in sinks {
            weights[dst] = demand;
        }
        [DemandGroup::weighted(0, std::sync::Arc::new(weights), 1.0)]
    };
    let weighted = |scale| {
        [DemandGroup::weighted(
            0,
            std::sync::Arc::new(vec![0.0, 0.0, 1e200, 0.0]),
            scale,
        )]
    };
    let refused = |r: Result<_, FlowError>, what: &str| {
        assert!(
            matches!(r, Err(FlowError::BadDemand { index: 0, .. })),
            "{what}: {r:?}"
        );
    };
    let o = FlowOptions::default();

    for (what, cs) in [
        ("two 1e308 demands", vec![pair(1, 1e308), pair(2, 1e308)]),
        ("a subnormal demand", vec![pair(2, 1e-310)]),
        ("just above the cap", vec![pair(2, MAX_DEMAND.next_up())]),
        (
            "just below the floor",
            vec![pair(2, MIN_DEMAND.next_down())],
        ),
    ] {
        for opts in every_backend() {
            let r = solve_cold(&net, &cs, &opts).map(|s| s.throughput);
            refused(r, &format!("{what} on {:?}", opts.backend));
        }
        let sinks = cs.iter().map(|c| (c.dst, c.demand)).collect();
        refused(
            solve_grouped(&net, &list(sinks), &o).map(|s| s.throughput),
            what,
        );
    }
    refused(
        solve_grouped(&net, &weighted(1e200), &o).map(|s| s.throughput),
        "scale 1e200 × weight 1e200",
    );
    // every sink in range, the group's total one above the cap
    let over = list(vec![(1, MAX_DEMAND / 2.0), (2, MAX_DEMAND / 2.0), (3, 1.0)]);
    refused(
        solve_grouped(&net, &over, &o).map(|s| s.throughput),
        "total",
    );

    // at each limit: a certified solve, λ ≈ 2 / demand (two disjoint
    // unit paths from 0 to 2)
    for demand in [MIN_DEMAND, MAX_DEMAND] {
        let cs = [pair(2, demand)];
        for opts in every_backend() {
            let cache = PathSetCache::new();
            let s = solve_with_cache(&net, &cs, &opts, &cache).unwrap();
            let paths = match opts.backend {
                Backend::KspRestricted { k } => Some(cache.freeze(&net, &cs, k).unwrap()),
                _ => None,
            };
            let what = format!("{demand} on {:?}", opts.backend);
            s.certify(&net, &cs, paths.as_deref())
                .unwrap_or_else(|v| panic!("{what}: {v}"));
            let ratio = s.throughput * demand / 2.0;
            assert!(
                ratio > 0.9 && ratio <= 1.0 + 1e-9,
                "{what}: λ = {}",
                s.throughput
            );
        }
        for groups in [list(vec![(2, demand)]), weighted(demand / 1e200)] {
            let s = solve_grouped(&net, &groups, &o).unwrap();
            s.certify_groups(&net, &groups)
                .unwrap_or_else(|v| panic!("grouped {demand}: {v}"));
            let ratio = s.throughput * demand / 2.0;
            assert!(
                ratio > 0.9 && ratio <= 1.0 + 1e-9,
                "grouped {demand}: λ = {}",
                s.throughput
            );
        }
    }
    let full = list(vec![(1, MAX_DEMAND / 2.0), (2, MAX_DEMAND / 2.0)]);
    let s = solve_grouped(&net, &full, &o).unwrap();
    s.certify_groups(&net, &full).unwrap();
}

/// `solve_grouped` returns the best of the phases it ran, so a solve
/// allowed none has nothing to return: `max_phases: 0` is a typed
/// `BadOptions` before any tree is built, never a panic.
#[test]
fn grouped_solve_with_no_phases_is_refused() {
    let mut g = Graph::new(4);
    for v in 0..4 {
        g.add_unit_edge(v, (v + 1) % 4).unwrap();
    }
    let net = CsrNet::from_graph(&g);
    let o = FlowOptions {
        max_phases: 0,
        ..FlowOptions::default()
    };
    let groups = [DemandGroup::weighted(
        0,
        std::sync::Arc::new(vec![1.0; 4]),
        1.0,
    )];
    match solve_grouped(&net, &groups, &o).map(|s| s.throughput) {
        Err(FlowError::BadOptions(m)) => assert!(m.contains("max_phases"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn solver_rejects_degenerate_commodities() {
    let mut g = Graph::new(3);
    g.add_unit_edge(0, 1).unwrap();
    g.add_unit_edge(1, 2).unwrap();
    let opts = FlowOptions::default();
    assert!(matches!(
        solve_graph(&g, &[], &opts),
        Err(FlowError::NoCommodities)
    ));
    assert!(matches!(
        solve_graph(
            &g,
            &[Commodity {
                src: 0,
                dst: 2,
                demand: f64::NAN
            }],
            &opts
        ),
        Err(FlowError::BadDemand { .. })
    ));
    assert!(matches!(
        solve_graph(&g, &[Commodity::unit(2, 2)], &opts),
        Err(FlowError::SelfCommodity { .. })
    ));
    let bad_opts = FlowOptions {
        target_gap: 1.5,
        ..opts
    };
    assert!(matches!(
        solve_graph(&g, &[Commodity::unit(0, 2)], &bad_opts),
        Err(FlowError::BadOptions(_))
    ));
}

#[test]
fn solver_on_edgeless_graph() {
    let g = Graph::new(4);
    let res = solve_graph(&g, &[Commodity::unit(0, 1)], &FlowOptions::default());
    assert!(matches!(res, Err(FlowError::Unreachable { .. })));
}

#[test]
fn packet_sim_validates_everything() {
    // 0-1-2 line; a "path" jumping 0→2 directly does not exist
    let mut g = Graph::new(3);
    g.add_edge(0, 1, 1.0).unwrap();
    g.add_edge(1, 2, 1.0).unwrap();
    let net = CsrNet::from_graph(&g);
    let a01 = net.arc_between(0, 1).unwrap();
    // path ends at node 1, not the flow's destination 2
    let flows = vec![FlowSpec {
        src: 0,
        dst: 2,
        rate: 1.0,
        paths: vec![PathSpec {
            arcs: vec![a01],
            weight: 1.0,
        }],
    }];
    assert!(matches!(
        simulate(&net, &flows, &SimConfig::default()),
        Err(SimError::BrokenPath { flow: 0, .. })
    ));
    // warmup >= duration
    let cfg = SimConfig {
        duration: 5.0,
        warmup: 9.0,
        ..SimConfig::default()
    };
    assert!(matches!(
        simulate(&net, &[], &cfg),
        Err(SimError::BadConfig(_))
    ));
}

#[test]
fn packet_scenario_needs_matching_sizes() {
    let mut rng = StdRng::seed_from_u64(3);
    let topo = Topology::random_regular(6, 5, 4, &mut rng).unwrap(); // 6 servers
    let tm = TrafficMatrix::random_permutation(5, &mut rng); // wrong count
    let engine = ThroughputEngine::new(&topo);
    let result = std::panic::catch_unwind(|| {
        engine.covalidate(&tm, &FlowOptions::default(), &PacketParams::default())
    });
    assert!(result.is_err(), "size mismatch must be rejected");
}

#[test]
fn traffic_matrix_asserts_bounds() {
    assert!(std::panic::catch_unwind(|| TrafficMatrix::from_pairs(3, vec![(0, 3)])).is_err());
    assert!(std::panic::catch_unwind(|| TrafficMatrix::from_pairs(3, vec![(2, 2)])).is_err());
    let mut rng = StdRng::seed_from_u64(4);
    assert!(std::panic::catch_unwind(move || TrafficMatrix::hotspot(3, 3, &mut rng)).is_err());
}

/// Degenerate but *valid* inputs must still work.
#[test]
fn minimal_valid_configurations() {
    let mut rng = StdRng::seed_from_u64(5);
    // smallest possible RRG: 2 switches, 1 link... degree 1 over 2 nodes
    let topo = Topology::random_regular(2, 3, 1, &mut rng).unwrap();
    assert_eq!(topo.graph.edge_count(), 1);
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let r = solve_throughput(&topo, &tm, &FlowOptions::default()).unwrap();
    assert!(r.throughput > 0.0);
    // two-server permutation
    let tm = TrafficMatrix::random_permutation(2, &mut rng);
    assert_eq!(tm.flow_count(), 2);
}
