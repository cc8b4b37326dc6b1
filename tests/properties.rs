//! Property-based tests (proptest) on the core invariants of the
//! workspace: graph builders, the flow solver's certificates, bounds,
//! and traffic generators.

use dctopo::bounds::aspl_lower_bound;
use dctopo::core::AppliedScenario;
use dctopo::flow::{
    solve_from, solve_with_cache, Commodity, FlowError, FlowOptions, PathSetCache, SolvedFlow,
};
use dctopo::graph::components::{cut_size, is_connected};
use dctopo::graph::paths::path_stats;
use dctopo::graph::Graph;
use dctopo::prelude::*;
use dctopo::topology::hetero::{place_servers, two_cluster, CrossSpec};
use dctopo::traffic::TrafficMatrix as Tm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cold solve on `net`: `opts`'s backend on a fresh path-set cache.
fn solve_cold(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    solve_with_cache(net, commodities, opts, &PathSetCache::new())
}

/// A cold solve of `g`.
fn solve_graph(
    g: &Graph,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    solve_cold(&CsrNet::from_graph(g), commodities, opts)
}

/// `tm` solved cold under the scenario `ap`: its surviving demand on
/// its view.
fn scenario_solve(
    engine: &ThroughputEngine,
    ap: &AppliedScenario,
    tm: &Tm,
    opts: &FlowOptions,
) -> Result<ThroughputResult, FlowError> {
    let (cs, nic, flows) = engine.scenario_demand(ap, tm);
    engine.solve_commodities_warm(&ap.net, cs, nic, flows, opts, &[])
}

fn solver_opts() -> FlowOptions {
    FlowOptions {
        epsilon: 0.1,
        target_gap: 0.05,
        max_phases: 2000,
        stall_phases: 100,
        ..FlowOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RRGs are r-regular, simple, and respect the ASPL lower bound.
    #[test]
    fn rrg_regularity_and_aspl(seed in any::<u64>(), n in 8usize..40, r in 3usize..7) {
        prop_assume!(r < n && (n * r) % 2 == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(n, r + 2, r, &mut rng).unwrap();
        prop_assert_eq!(topo.graph.regular_degree(), Some(r));
        for v in 0..n {
            let mut nb: Vec<_> = topo.graph.neighbors(v).collect();
            let len = nb.len();
            nb.sort_unstable();
            nb.dedup();
            prop_assert_eq!(nb.len(), len, "parallel edge at {}", v);
        }
        if is_connected(&topo.graph) {
            let aspl = path_stats(&topo.graph).unwrap().aspl;
            let bound = aspl_lower_bound(n, r).unwrap();
            prop_assert!(aspl >= bound - 1e-9, "ASPL {} < bound {}", aspl, bound);
        }
    }

    /// two_cluster realises the exact requested cross-link count.
    #[test]
    fn two_cluster_exact_cross(seed in any::<u64>(), cross in 10usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let large = ClusterSpec { count: 10, ports: 16, servers_per_switch: 6 };
        let small = ClusterSpec { count: 20, ports: 8, servers_per_switch: 3 };
        let topo = two_cluster(large, small, CrossSpec::Exact(cross), &mut rng).unwrap();
        let in_large: Vec<bool> = (0..30).map(|v| v < 10).collect();
        prop_assert_eq!(cut_size(&topo.graph, &in_large), cross);
        topo.validate_ports().unwrap();
    }

    /// place_servers: totals exact, port budgets respected, and β = 1
    /// equals Proportional.
    #[test]
    fn placement_totals_and_limits(total in 20usize..120, beta in 0.0f64..2.0) {
        let ports = [32usize, 24, 16, 8, 8, 8];
        let class_of = [0usize, 0, 1, 2, 2, 2];
        let placed = place_servers(&ports, total, &ServerPlacement::PowerLaw { beta }, &class_of);
        prop_assume!(placed.is_ok());
        let placed = placed.unwrap();
        prop_assert_eq!(placed.iter().sum::<usize>(), total);
        for (i, &s) in placed.iter().enumerate() {
            prop_assert!(s < ports[i], "switch {} overloaded", i);
        }
        let prop1 = place_servers(&ports, total, &ServerPlacement::PowerLaw { beta: 1.0 }, &class_of).unwrap();
        let prop2 = place_servers(&ports, total, &ServerPlacement::Proportional, &class_of).unwrap();
        prop_assert_eq!(prop1, prop2);
    }

    /// Permutation traffic matrices are fixed-point-free bijections.
    #[test]
    fn permutation_is_bijection(seed in any::<u64>(), n in 2usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tm = Tm::random_permutation(n, &mut rng);
        prop_assert_eq!(tm.flow_count(), n);
        prop_assert!(tm.out_degree().iter().all(|&d| d == 1));
        prop_assert!(tm.in_degree().iter().all(|&d| d == 1));
        prop_assert!(tm.pairs().iter().all(|&(s, t)| s != t));
    }

    /// Chunky traffic keeps every server in at most one flow each way,
    /// and everyone participates except a possible sub-permutation
    /// leftover (fewer than 2 servers outside the chunky set).
    #[test]
    fn chunky_degree_invariant(seed in any::<u64>(), tors in 2usize..12, spt in 1usize..6, pct in 0.0f64..100.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups: Vec<Vec<usize>> = (0..tors).map(|t| (t * spt..(t + 1) * spt).collect()).collect();
        let tm = Tm::chunky(&groups, pct, &mut rng);
        let out = tm.out_degree();
        let inn = tm.in_degree();
        prop_assert!(out.iter().all(|&d| d <= 1));
        prop_assert!(inn.iter().all(|&d| d <= 1));
        // senders and receivers match up pairwise
        prop_assert_eq!(out.iter().sum::<usize>(), inn.iter().sum::<usize>());
        // at most one stranded rest-server (it takes < 2 to be unable to
        // form a permutation; ToR pairing strands nothing with equal
        // group sizes)
        let idle = out.iter().filter(|&&d| d == 0).count();
        prop_assert!(idle <= 1, "{} idle servers", idle);
    }

    /// Flow solver certificates pass the independent checker: per-arc
    /// capacity, conservation, every rate at λ·d or more, primal ≤ dual,
    /// and the bound re-derived from the returned lengths.
    #[test]
    fn flow_certificates(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(12, 6, 4, &mut rng).unwrap();
        prop_assume!(is_connected(&topo.graph));
        let g = &topo.graph;
        let cs: Vec<Commodity> =
            (0..6).map(|i| Commodity::unit(i, (i + 6) % 12)).collect();
        let s = solve_graph(g, &cs, &solver_opts()).unwrap();
        let net = dctopo::graph::CsrNet::from_graph(g);
        let checked = s.certify(&net, &cs, None);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    /// FPTAS brackets the exact LP optimum on tiny instances.
    #[test]
    fn fptas_brackets_exact(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        // ring of 6 + one chord keeps the exact LP tiny
        let mut g = Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        g.add_unit_edge(0, 3).unwrap();
        let tm = Tm::random_permutation(6, &mut rng);
        let cs: Vec<Commodity> =
            tm.pairs().iter().map(|&(s, t)| Commodity::unit(s, t)).collect();
        let lp = FlowOptions::default().with_backend(Backend::ExactLp);
        let exact = solve_graph(&g, &cs, &lp).unwrap().throughput;
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        };
        let approx = solve_graph(&g, &cs, &opts).unwrap();
        prop_assert!(approx.throughput <= exact * (1.0 + 1e-6),
            "primal {} above exact {}", approx.throughput, exact);
        prop_assert!(approx.upper_bound >= exact * (1.0 - 1e-6),
            "dual {} below exact {}", approx.upper_bound, exact);
        prop_assert!(approx.throughput >= exact * 0.95,
            "primal {} too loose vs exact {}", approx.throughput, exact);
    }

    /// The ASPL lower bound is monotone: growing n (fixed r) never
    /// decreases it; growing r (fixed n) never increases it.
    #[test]
    fn aspl_bound_monotonicity(n in 6usize..500, r in 2usize..8) {
        prop_assume!(r < n);
        let b = aspl_lower_bound(n, r).unwrap();
        let b_bigger_n = aspl_lower_bound(n + 1, r).unwrap();
        prop_assert!(b_bigger_n >= b - 1e-12);
        if r + 1 < n {
            let b_bigger_r = aspl_lower_bound(n, r + 1).unwrap();
            prop_assert!(b_bigger_r <= b + 1e-12);
        }
    }

    /// Backend agreement on one shared CsrNet: `Fptas` lands within its
    /// `target_gap` of `ExactLp`'s optimum on random small RRGs, never
    /// above it, and the FPTAS dual brackets it from the other side.
    #[test]
    fn fptas_and_exactlp_backends_agree(seed in any::<u64>()) {
        use dctopo::flow::Backend;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(8, 5, 3, &mut rng).unwrap();
        prop_assume!(is_connected(&topo.graph));
        let net = dctopo::graph::CsrNet::from_graph(&topo.graph);
        let tm = Tm::random_permutation(topo.server_count(), &mut rng);
        let cs: Vec<Commodity> = dctopo::core::solve::aggregate_commodities(&topo, &tm);
        prop_assume!(!cs.is_empty());
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 30000,
            stall_phases: 3000,
            ..FlowOptions::default()
        };
        let exact = solve_cold(&net, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
        let fptas = solve_cold(&net, &cs, &opts).unwrap();
        prop_assert!(fptas.throughput <= exact.throughput * (1.0 + 1e-6),
            "fptas primal {} above exact {}", fptas.throughput, exact.throughput);
        prop_assert!(fptas.upper_bound >= exact.throughput * (1.0 - 1e-6),
            "fptas dual {} below exact {}", fptas.upper_bound, exact.throughput);
        prop_assert!(fptas.throughput >= exact.throughput * (1.0 - opts.target_gap - 0.01),
            "fptas primal {} outside target_gap of exact {}",
            fptas.throughput, exact.throughput);

        // The fast profile on the paper's three traffic families. From
        // its eighth phase on the upper bound may come from the averaged
        // lengths rather than the last iterate; either way the interval
        // has to hold the LP optimum. The second profile runs long
        // enough for that candidate to be the binding one.
        let groups: Vec<Vec<usize>> =
            topo.server_groups().into_iter().filter(|g| !g.is_empty()).collect();
        let families = [
            ("permutation", tm),
            ("chunky", Tm::chunky(&groups, 50.0, &mut rng)),
            ("hotspot", Tm::hotspot(topo.server_count(), 2, &mut rng)),
        ];
        let long = FlowOptions { target_gap: 0.01, stall_phases: 400, ..FlowOptions::fast() };
        for (family, tm) in &families {
            let cs = dctopo::core::solve::aggregate_commodities(&topo, tm);
            if cs.is_empty() {
                continue;
            }
            let exact = solve_cold(&net, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
            // both cold profiles and a warm-started solve, which opens
            // on the cold one's certified dual lengths and skips the coarse
            // ramp: the primal weights then meet a trajectory whose
            // early phases are its best
            let fast = FlowOptions::fast();
            let cold = solve_cold(&net, &cs, &fast).unwrap();
            let warm = solve_from(&net, &cs, &fast, &PathSetCache::new(), &cold.dual_lengths).unwrap();
            let long = solve_cold(&net, &cs, &long).unwrap();
            for (kind, s) in [("fast", &cold), ("long", &long), ("warm", &warm)] {
                prop_assert!(s.throughput <= exact.throughput * (1.0 + 1e-6),
                    "{family}/{kind}: primal {} above exact {}", s.throughput, exact.throughput);
                prop_assert!(s.upper_bound >= exact.throughput * (1.0 - 1e-6),
                    "{family}/{kind}: dual {} below exact {}", s.upper_bound, exact.throughput);
            }
        }
    }

    /// The packet simulator's calendar queue realises the reference
    /// heap's event order on nets where events fall due out of push
    /// order: two or three distinct line rates (a fast link's arrival
    /// falls due before a slow link's pushed earlier) and paths of
    /// different hop counts (so do ACKs of a short path). Field for
    /// field, trace hash included, in both transport modes.
    #[test]
    fn packetsim_agenda_matches_heap_on_mixed_capacity_nets(
        seed in any::<u64>(),
        n in 4usize..8,
        rates in 2usize..=3,
        window in any::<bool>(),
        queue in 2usize..=16,
    ) {
        use dctopo::packetsim::{simulate, simulate_with_heap, SimConfig, TransportMode};
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, flows) = mixed_capacity_instance(&mut rng, n, rates);
        let cfg = SimConfig {
            mode: if window { TransportMode::Window } else { TransportMode::Paced },
            duration: 24.0,
            warmup: 4.0,
            queue,
            rto: 3.0,
            ..SimConfig::default()
        };
        let merged = simulate(&net, &flows, &cfg).unwrap();
        prop_assert!(merged.events > 50, "a run too short to order anything: {:?}", merged);
        prop_assert_eq!(merged, simulate_with_heap(&net, &flows, &cfg).unwrap());
    }

    /// What `PathSetCache::freeze` stores for a failure view: at most
    /// `k` arc sequences per commodity, no two alike, in non-decreasing
    /// hop order, the first of them a shortest path; each a walk over
    /// live arcs of the view from `src` to `dst` that enters no node
    /// twice. A freeze that fails names a pair the failures cut apart.
    #[test]
    fn frozen_path_sets_are_live_simple_walks_in_hop_order(
        seed in any::<u64>(),
        n in 8usize..28,
        r in 3usize..6,
        fails in 0usize..10,
        k in 1usize..10,
    ) {
        use dctopo::flow::PathSetCache;
        use dctopo::graph::paths::{bfs_distances, UNREACHABLE};
        use dctopo::graph::CsrNet;
        use dctopo::topology::degrade;
        prop_assume!((n * r) % 2 == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(n, r + 1, r, &mut rng).unwrap();
        let failed: Vec<usize> = degrade::edge_failure_order(&topo.graph, seed)[..fails]
            .iter()
            .map(|&e| e << 1)
            .collect();
        let view = CsrNet::from_graph(&topo.graph).with_disabled_arcs(&failed).unwrap();
        let survivors = view.to_graph();
        let cs: Vec<Commodity> = (0..4).map(|i| Commodity::unit(i, n / 2 + i)).collect();
        let sets = match PathSetCache::new().freeze(&view, &cs, k) {
            Ok(sets) => sets,
            Err(FlowError::Unreachable { src, dst }) => {
                prop_assert_eq!(bfs_distances(&survivors, src)[dst], UNREACHABLE);
                return Ok(());
            }
            Err(e) => return Err(TestCaseError::Fail(format!("freeze: {e}"))),
        };
        for (c, set) in cs.iter().zip(&sets) {
            prop_assert!(!set.is_empty() && set.len() <= k, "{} paths, k = {}", set.len(), k);
            let hops = bfs_distances(&survivors, c.src)[c.dst] as usize;
            prop_assert_eq!(set[0].len(), hops);
            for w in set.windows(2) {
                prop_assert!(w[0].len() <= w[1].len(), "hop order: {:?}", set);
            }
            for (i, path) in set.iter().enumerate() {
                prop_assert!(!set[..i].contains(path), "twice: {:?}", path);
                let mut at = c.src;
                let mut entered = vec![c.src];
                for &a in path {
                    prop_assert!(view.is_live(a), "dead arc {} in {:?}", a, path);
                    prop_assert_eq!(view.arc_tail(a), at);
                    at = view.arc_head(a);
                    prop_assert!(!entered.contains(&at), "node {} twice in {:?}", at, path);
                    entered.push(at);
                }
                prop_assert_eq!(at, c.dst);
            }
        }
    }
}

/// A ring of `n` nodes with a few chords, every edge at one of `rates`
/// distinct capacities, and three flows between random node pairs over
/// one to three simple paths of pairwise different hop counts.
fn mixed_capacity_instance(
    rng: &mut StdRng,
    n: usize,
    rates: usize,
) -> (dctopo::graph::CsrNet, Vec<dctopo::packetsim::FlowSpec>) {
    use dctopo::packetsim::{FlowSpec, PathSpec};
    use rand::RngExt;
    let palette = &[1.0, 4.0, 0.6][..rates];
    let mut g = Graph::new(n);
    let cap = |rng: &mut StdRng| palette[rng.random_range(0..palette.len())];
    for u in 0..n {
        g.add_edge(u, (u + 1) % n, cap(rng)).unwrap();
    }
    for _ in 0..n / 2 {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v && !g.neighbors(u).any(|w| w == v) {
            g.add_edge(u, v, cap(rng)).unwrap();
        }
    }
    let net = dctopo::graph::CsrNet::from_graph(&g);
    // every simple walk src → dst of at most four hops, by DFS
    fn walks(g: &Graph, walk: &mut Vec<usize>, dst: usize, out: &mut Vec<Vec<usize>>) {
        let at = *walk.last().unwrap();
        if at == dst {
            out.push(walk.clone());
            return;
        }
        if walk.len() > 4 {
            return;
        }
        for next in g.neighbors(at).collect::<Vec<_>>() {
            if !walk.contains(&next) {
                walk.push(next);
                walks(g, walk, dst, out);
                walk.pop();
            }
        }
    }
    let flows = (0..3)
        .map(|_| {
            let src = rng.random_range(0..n);
            let dst = (src + rng.random_range(1..n)) % n;
            let mut found = Vec::new();
            walks(&g, &mut vec![src], dst, &mut found);
            // one walk per hop count, shortest first
            found.sort_by_key(Vec::len);
            found.dedup_by_key(|w| w.len());
            found.truncate(rng.random_range(1..=3));
            let paths = found
                .iter()
                .map(|walk| PathSpec {
                    arcs: walk
                        .windows(2)
                        .map(|w| net.arc_between(w[0], w[1]).unwrap())
                        .collect(),
                    weight: rng.random_range(0.5..2.0),
                })
                .collect();
            FlowSpec {
                src,
                dst,
                rate: rng.random_range(0.4..1.5),
                paths,
            }
        })
        .collect();
    (net, flows)
}

/// The KSP path-set cache is invisible to results: cached and cold
/// Three instances whose LP the dense simplex once ran to its iteration
/// limit (its stall detector read every improving pivot as a stall and
/// left Bland's rule on): `topobench solve rrg --switches 9 --ports 6
/// --degree 4 --seed 2`, `solve complete --switches 8 --servers 2` and
/// `solve rrg --switches 10 --ports 6 --degree 4`, each `--backend exact
/// --runs 1`, built the way the CLI builds them. Each solves, to the
/// optimum the CLI prints, inside the default FPTAS's certified interval.
#[test]
fn exact_lp_solves_the_instances_its_stall_rule_once_stalled() {
    use dctopo::topology::classic::complete;

    type Build = fn(&mut StdRng) -> Topology;
    let cases: [(&str, u64, Build, f64); 3] = [
        (
            "rrg:9x6x4 seed 2",
            2,
            |rng| Topology::random_regular(9, 6, 4, rng).unwrap(),
            1.0,
        ),
        ("complete:8x2", 1, |_| complete(8, 2).unwrap(), 2.25),
        (
            "rrg:10x6x4",
            1,
            |rng| Topology::random_regular(10, 6, 4, rng).unwrap(),
            1.0,
        ),
    ];
    for (name, seed, build, lambda) in cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = build(&mut rng);
        let tm = Tm::random_permutation(topo.server_count(), &mut rng);
        let engine = ThroughputEngine::new(&topo);
        let lp = FlowOptions::default().with_backend(Backend::ExactLp);
        let exact = engine
            .solve(&tm, &lp)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .network_lambda;
        assert!((exact - lambda).abs() < 1e-6, "{name}: λ* = {exact}");
        let fast = engine.solve(&tm, &FlowOptions::default()).unwrap();
        assert!(
            fast.network_lambda <= exact * (1.0 + 1e-9)
                && exact <= fast.network_upper_bound * (1.0 + 1e-9),
            "{name}: λ* = {exact} outside [{}, {}]",
            fast.network_lambda,
            fast.network_upper_bound
        );
    }
}

/// The optima of the edge-flow LP the exact backend used to solve,
/// captured from it: RRG(n, 6, 4) under one random permutation for
/// n = 9…16 and seeds 1–5, built the way `topobench solve rrg
/// --switches n --ports 6 --degree 4 --seed s --backend exact --runs 1`
/// builds them. `None` marks the two instances that solver ran to its
/// iteration limit.
const EDGE_LP_OPTIMA: [[Option<f64>; 5]; 8] = [
    [
        Some(1.250000000000016),
        Some(1.000000000000014),
        Some(1.0000000000000195),
        Some(0.9999999999999944),
        Some(1.2000000000004265),
    ],
    [
        Some(0.999999999999998),
        Some(0.999999999999999),
        Some(0.6666666666666665),
        Some(1.1666666666666834),
        Some(0.8571428571428578),
    ],
    [
        Some(1.000000000000002),
        Some(1.0000000000000022),
        None,
        Some(0.8571428571428575),
        Some(1.1724137931034482),
    ],
    [
        Some(1.000000000000021),
        Some(0.7500000000002048),
        Some(0.7500000000000002),
        Some(0.7499999999999992),
        Some(0.8181818181818189),
    ],
    [
        Some(0.8571428571428641),
        Some(0.8571428571428558),
        Some(0.8571428571428583),
        Some(0.7999999999999982),
        Some(0.8571428571428551),
    ],
    [
        Some(0.6666666666666676),
        Some(0.8571428571428609),
        Some(1.0000000000000049),
        Some(0.7894736842105365),
        Some(0.7500000000000042),
    ],
    [
        Some(0.8571428571428497),
        Some(0.9200000000000016),
        None,
        Some(0.909090909090917),
        Some(0.9090909090909057),
    ],
    [
        Some(0.852941176470592),
        Some(0.6666666666666637),
        Some(0.8000000000000005),
        Some(0.7272727272727221),
        Some(0.5714285714285711),
    ],
];

/// The exact backend reproduces every optimum in [`EDGE_LP_OPTIMA`] to
/// 1e-7 relative and solves the two the edge LP did not. Every answer
/// passes the checker with its dual side — one length per arc, the bound
/// within 1e-6 of λ — and lies inside the default FPTAS's certified
/// interval.
#[test]
fn exact_lp_reproduces_the_edge_lp_optima() {
    use dctopo::core::solve::aggregate_commodities;
    for (row, n) in EDGE_LP_OPTIMA.iter().zip(9usize..) {
        for (&want, seed) in row.iter().zip(1u64..) {
            let name = format!("rrg:{n}x6x4 seed {seed}");
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = Topology::random_regular(n, 6, 4, &mut rng).unwrap();
            let tm = Tm::random_permutation(topo.server_count(), &mut rng);
            let engine = ThroughputEngine::new(&topo);
            let lp = FlowOptions::default().with_backend(Backend::ExactLp);
            let exact = (engine.solve(&tm, &lp))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .solved
                .unwrap();
            let got = exact.throughput;
            if let Some(want) = want {
                assert!(
                    (got - want).abs() <= 1e-7 * want,
                    "{name}: λ* = {got}, the edge LP's {want}"
                );
            }
            let cs = aggregate_commodities(&topo, &tm);
            assert_eq!(exact.dual_lengths.len(), engine.net().arc_count());
            let bound = exact.certify(engine.net(), &cs, None).unwrap();
            assert!(got <= exact.upper_bound * (1.0 + 1e-9), "{name}");
            assert!(exact.upper_bound <= got * (1.0 + 1e-6), "{name}");
            assert!(bound <= exact.upper_bound * (1.0 + 1e-9), "{name}");
            let fast = engine.solve(&tm, &FlowOptions::default()).unwrap();
            assert!(
                fast.network_lambda <= got * (1.0 + 1e-9)
                    && got <= fast.network_upper_bound * (1.0 + 1e-9),
                "{name}: λ* = {got} outside [{}, {}]",
                fast.network_lambda,
                fast.network_upper_bound
            );
        }
    }
}

/// Past the edge LP's reach — RRG(32, 6, 4) and RRG(24, 8, 4), hundreds
/// of pivots a solve — every exact answer still closes its gap to 1e-6
/// (the backend refuses a wider one as lost precision), passes the
/// checker in debug builds and lies inside the default FPTAS's
/// certified interval.
#[test]
fn exact_lp_certifies_past_the_edge_lps_reach() {
    for (n, k) in [(32, 6), (24, 8)] {
        for seed in 1..=2u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = Topology::random_regular(n, k, 4, &mut rng).unwrap();
            let tm = Tm::random_permutation(topo.server_count(), &mut rng);
            let engine = ThroughputEngine::new(&topo);
            let lp = FlowOptions::default().with_backend(Backend::ExactLp);
            let exact = (engine.solve(&tm, &lp))
                .unwrap_or_else(|e| panic!("rrg:{n}x{k}x4 seed {seed}: {e}"))
                .network_lambda;
            let fast = engine.solve(&tm, &FlowOptions::default()).unwrap();
            assert!(
                fast.network_lambda <= exact * (1.0 + 1e-9)
                    && exact <= fast.network_upper_bound * (1.0 + 1e-9),
                "rrg:{n}x{k}x4 seed {seed}: λ* = {exact} outside [{}, {}]",
                fast.network_lambda,
                fast.network_upper_bound
            );
        }
    }
}

/// `KspRestricted` solves are bit-identical across 50 seeded random
/// graphs and 3 values of k, on both the miss path (first solve) and
/// the hit path (second solve), sharing ONE cache across all nets —
/// exercising the `(CsrNet identity, k)` keying.
#[test]
fn ksp_cache_bitwise_identical_on_50_seeded_graphs() {
    use dctopo::flow::PathSetCache;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    let cache = PathSetCache::new();
    let opts = FlowOptions {
        epsilon: 0.15,
        target_gap: 0.05,
        max_phases: 400,
        stall_phases: 40,
        ..FlowOptions::default()
    };
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(6..20);
        // ring (connected) + random chords with random capacities
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
                .unwrap();
        }
        for _ in 0..rng.random_range(0..n) {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
            }
        }
        let net = CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
        for k in [1usize, 2, 4] {
            let opts = opts.with_backend(Backend::KspRestricted { k });
            let cold = solve_cold(&net, &cs, &opts).unwrap();
            let miss = solve_with_cache(&net, &cs, &opts, &cache).unwrap();
            let hit = solve_with_cache(&net, &cs, &opts, &cache).unwrap();
            for (label, s) in [("miss", &miss), ("hit", &hit)] {
                assert_eq!(
                    cold.throughput.to_bits(),
                    s.throughput.to_bits(),
                    "seed {seed} k {k}: {label} throughput diverged"
                );
                assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
                assert_eq!(cold.phases, s.phases, "seed {seed} k {k} ({label})");
                for (x, y) in cold.arc_flow.iter().zip(&s.arc_flow) {
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} k {k} ({label})");
                }
                for (x, y) in cold.commodity_rate.iter().zip(&s.commodity_rate) {
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} k {k} ({label})");
                }
            }
        }
    }
    let stats = cache.stats();
    // 50 graphs × 3 ks × 3 pairs: one miss + one hit per (net, k, pair)
    assert_eq!(stats.misses, 50 * 3 * 3);
    assert_eq!(stats.hits, 50 * 3 * 3);
}

/// Build the shared 50-seeded-graph family (ring + random chords with
/// random capacities) used by the fast-path and cache suites.
fn seeded_graph(seed: u64) -> Graph {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(6..20);
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
            .unwrap();
    }
    for _ in 0..rng.random_range(0..n) {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
        }
    }
    g
}

/// The FPTAS fast path (tree reuse + incremental Dijkstra repair) over
/// 50 seeded random graphs: (a) lands within `target_gap` of the exact
/// LP optimum and never above it, (b) never exceeds any arc capacity,
/// and (c) is bit-identical at 1, 2, and 8 rayon threads.
#[test]
fn fptas_fast_path_certified_on_50_seeded_graphs() {
    use dctopo::flow::Backend;
    use dctopo::graph::CsrNet;
    use rayon::ThreadPoolBuilder;

    let opts = FlowOptions {
        epsilon: 0.05,
        target_gap: 0.02,
        max_phases: 30000,
        stall_phases: 3000,
        ..FlowOptions::default()
    };
    assert!(!opts.strict_reference, "fast path must be the default");
    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
        let exact = solve_cold(&net, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
        let fast = solve_cold(&net, &cs, &opts).unwrap();
        // (a) within the certified gap of the exact optimum
        assert!(
            fast.throughput <= exact.throughput * (1.0 + 1e-6),
            "seed {seed}: fast primal {} above exact {}",
            fast.throughput,
            exact.throughput
        );
        assert!(
            fast.upper_bound >= exact.throughput * (1.0 - 1e-6),
            "seed {seed}: fast dual {} below exact {}",
            fast.upper_bound,
            exact.throughput
        );
        assert!(
            fast.throughput >= exact.throughput * (1.0 - opts.target_gap - 0.01),
            "seed {seed}: fast primal {} outside target_gap of exact {}",
            fast.throughput,
            exact.throughput
        );
        // (b) the checker: no arc over capacity, every commodity served,
        // the bound re-derived from its lengths
        if let Err(v) = fast.certify(&net, &cs, None) {
            panic!("seed {seed}: {v}");
        }
        // (c) bit-identical across thread counts
        let solve_at = |threads: usize| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| solve_cold(&net, &cs, &opts).unwrap())
        };
        for threads in [1usize, 2, 8] {
            let s = solve_at(threads);
            assert_eq!(
                fast.throughput.to_bits(),
                s.throughput.to_bits(),
                "seed {seed}: {threads} threads diverged"
            );
            assert_eq!(fast.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(fast.phases, s.phases);
            assert_eq!(fast.settles, s.settles);
            for (x, y) in fast.arc_flow.iter().zip(&s.arc_flow) {
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}: {threads} threads");
            }
        }
    }
}

/// On the sweep workload the fast path is tuned for — an RRG
/// permutation matrix — the default FPTAS performs materially fewer
/// Dijkstra-equivalent settles than the strict legacy trajectory while
/// still certifying its gap, on every arc within capacity (the first
/// matrix of the 8-matrix sweep the fast path was calibrated on; one
/// matrix keeps this test quick).
#[test]
fn fptas_fast_path_settles_less_on_rrg_sweep_matrix() {
    use dctopo::core::solve::aggregate_commodities;
    use dctopo::graph::CsrNet;

    let mut rng = StdRng::seed_from_u64(20140402);
    let topo = Topology::random_regular(64, 12, 8, &mut rng).unwrap();
    let tm = Tm::random_permutation(topo.server_count(), &mut rng);
    let cs = aggregate_commodities(&topo, &tm);
    let net = CsrNet::from_graph(&topo.graph);
    let o = FlowOptions {
        max_phases: 4000,
        stall_phases: 400,
        ..FlowOptions::fast()
    };
    let fast = solve_cold(&net, &cs, &o).unwrap();
    let strict = solve_cold(&net, &cs, &o.with_strict_reference(true)).unwrap();
    assert!(fast.gap() <= o.target_gap + 1e-9, "fast gap {}", fast.gap());
    assert!(
        strict.gap() <= o.target_gap + 1e-9,
        "strict {}",
        strict.gap()
    );
    fast.certify(&net, &cs, None).unwrap();
    // certified intervals bracket the same optimum
    assert!(fast.throughput <= strict.upper_bound * (1.0 + 1e-9));
    assert!(strict.throughput <= fast.upper_bound * (1.0 + 1e-9));
    assert!(
        2 * fast.settles <= strict.settles,
        "fast {} vs strict {} settles",
        fast.settles,
        strict.settles
    );
}

/// dcbench's `pairwise-solve` instance: RRG(64, 12, 8) with two
/// permutations, `chunky:50` and `hotspot:8`, drawn in that order.
fn pairwise_solve_instance() -> (Topology, [Tm; 4]) {
    let mut rng = StdRng::seed_from_u64(20_140_403);
    let topo = Topology::random_regular(64, 12, 8, &mut rng).unwrap();
    let servers = topo.server_count();
    let groups: Vec<Vec<usize>> = (topo.server_groups().into_iter())
        .filter(|g| !g.is_empty())
        .collect();
    let matrices = [
        Tm::random_permutation(servers, &mut rng),
        Tm::random_permutation(servers, &mut rng),
        Tm::chunky(&groups, 50.0, &mut rng),
        Tm::hotspot(servers, 8, &mut rng),
    ];
    (topo, matrices)
}

/// `fast()` delivers the 5 % it documents on chunky traffic. With the
/// last length iterate as its only dual candidate this solve ran 535
/// phases and stopped on the stall rule at 5.34 %: the primal was within
/// target of λ* long before, the bound was not. The averaged lengths
/// close it (140 phases), and weighing the primal by √phase stops the
/// coarse opening flows from holding λ down (81 phases when this was
/// written).
#[test]
fn fast_profile_closes_its_gap_on_chunky_traffic() {
    let (topo, matrices) = pairwise_solve_instance();
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::fast();
    let s = engine.solve(&matrices[2], &opts).unwrap().solved.unwrap();
    assert!(s.gap() <= opts.target_gap, "gap {}", s.gap());
    assert!(s.phases <= 120, "{} phases", s.phases);
    let commodities = dctopo::core::solve::aggregate_commodities(&topo, &matrices[2]);
    s.certify(engine.net(), &commodities, None).unwrap();
}

/// Lengths grow by what was sent, not by what the accumulators were
/// credited, so the primal weights reach routing only through the λ the
/// stop rule and the ε-anneal read: a solve on which neither acts
/// differently keeps its trees, its bound and its work, and only λ may
/// move. `hotspot:8` ends in phase 4 on the same verdicts, and the
/// `long fptas` row of `tests/trajectory_pins.rs` (ε above the coarse
/// opener, an unreachable gap) runs to its 700-phase cap — both keep the
/// bound, phases and settles they had under the uniform average (the
/// constants are from the commit before the weights).
#[test]
fn primal_weights_leave_routing_alone() {
    let (topo, matrices) = pairwise_solve_instance();
    let engine = ThroughputEngine::new(&topo);
    let solved = engine.solve(&matrices[3], &FlowOptions::fast()).unwrap();
    let s = solved.solved.unwrap();
    assert_eq!(s.upper_bound.to_bits(), 0x3fad7700c2fd735d);
    assert_eq!((s.phases, s.settles), (4, 38485));
    assert!(s.throughput <= s.upper_bound);

    let mut rng = StdRng::seed_from_u64(0x0715_0003);
    let topo = Topology::random_regular(20, 8, 4, &mut rng).unwrap();
    let tm = Tm::random_permutation(topo.server_count(), &mut rng);
    let commodities = dctopo::core::solve::aggregate_commodities(&topo, &tm);
    let net = dctopo::graph::CsrNet::from_graph(&topo.graph);
    let net = net.with_scaled_capacity(1.5).unwrap();
    let long = FlowOptions {
        epsilon: 0.6,
        target_gap: 1e-6,
        max_phases: 700,
        stall_phases: 700,
        ..FlowOptions::default()
    };
    let s = solve_cold(&net, &commodities, &long).unwrap();
    assert_eq!(s.upper_bound.to_bits(), 0x3fe5002b548b6a45);
    assert_eq!((s.phases, s.settles), (700, 689313));
    assert!(s.throughput <= s.upper_bound);
}

/// The weighted accumulators are still one multicommodity flow: the
/// arc totals, the per-commodity amounts and the per-commodity arc
/// record are credited with the same `weight·sent`, so after scaling
/// the checker finds the record summing to `arc_flow` arc by arc, every
/// commodity's record conserving at every node with net outflow
/// `commodity_rate[j]` at its source, that rate covering `λ·d_j`, and
/// no arc over capacity.
#[test]
fn weighted_primal_is_one_conserved_flow() {
    let mut rng = StdRng::seed_from_u64(0x2005);
    let topo = Topology::random_regular(24, 9, 5, &mut rng).unwrap();
    let net = dctopo::graph::CsrNet::from_graph(&topo.graph);
    let groups: Vec<Vec<usize>> = (topo.server_groups().into_iter())
        .filter(|g| !g.is_empty())
        .collect();
    let matrices = [
        (
            "permutation",
            Tm::random_permutation(topo.server_count(), &mut rng),
        ),
        ("chunky", Tm::chunky(&groups, 50.0, &mut rng)),
    ];
    let opts = FlowOptions::fast().with_commodity_flows(true);
    for (family, tm) in &matrices {
        let commodities = dctopo::core::solve::aggregate_commodities(&topo, tm);
        let s = solve_cold(&net, &commodities, &opts).unwrap();
        assert!(
            s.phases > 8,
            "{family}: too short to have re-weighted anything"
        );
        assert!(s.commodity_arc_flow.is_some(), "{family}: no record");
        if let Err(v) = s.certify(&net, &commodities, None) {
            panic!("{family}: {v}");
        }
    }
}

/// The checker can fail. A strict solve with its per-commodity record
/// passes it, and each of four perturbations by 1e-6 relative is named:
/// a saturated arc's flow up, the upper bound down, the rate of the
/// commodity that sets λ down, and one commodity's record on one arc —
/// the mutant whose weights reached `arc_flow` but not the record. A
/// weighted all-to-all solve through `certify_groups` passes too, and
/// names its saturated arc's flow up, its bound down and its binding
/// group's rate factor down (as that group's first sink).
#[test]
fn the_checker_names_each_perturbed_certificate() {
    use dctopo::graph::certify::Violation;
    let mut rng = StdRng::seed_from_u64(0x2006);
    let topo = Topology::random_regular(16, 7, 4, &mut rng).unwrap();
    let net = dctopo::graph::CsrNet::from_graph(&topo.graph);
    let tm = Tm::random_permutation(topo.server_count(), &mut rng);
    let cs = dctopo::core::solve::aggregate_commodities(&topo, &tm);
    let opts = (FlowOptions::default())
        .with_strict_reference(true)
        .with_commodity_flows(true);
    let s = solve_cold(&net, &cs, &opts).unwrap();
    s.certify(&net, &cs, None).unwrap();
    let bump = 1.0 + 1e-6;
    let worst = |n: usize, key: &dyn Fn(usize) -> f64| {
        (0..n).max_by(|&x, &y| key(x).total_cmp(&key(y))).unwrap()
    };

    let saturated = worst(net.arc_count(), &|a| s.arc_flow[a] / net.capacity(a));
    let mut m = s.clone();
    m.arc_flow[saturated] *= bump;
    let v = m.certify(&net, &cs, None);
    assert!(
        matches!(v, Err(Violation::OverCapacity { arc, .. }) if arc == saturated),
        "{v:?}"
    );

    let mut m = s.clone();
    m.upper_bound /= bump;
    let v = m.certify(&net, &cs, None);
    assert!(matches!(v, Err(Violation::BoundBelowDual { .. })), "{v:?}");

    let setter = worst(cs.len(), &|j| -s.commodity_rate[j] / cs[j].demand);
    let mut m = s.clone();
    m.commodity_rate[setter] /= bump;
    let v = m.certify(&net, &cs, None);
    assert!(
        matches!(v, Err(Violation::RateBelowLambda { commodity, .. }) if commodity == setter),
        "{v:?}"
    );

    let record = s.commodity_arc_flow.as_ref().unwrap();
    let busiest = worst(net.arc_count(), &|a| record[0][a]);
    let mut m = s.clone();
    m.commodity_arc_flow.as_mut().unwrap()[0][busiest] *= bump;
    let v = m.certify(&net, &cs, None);
    assert!(
        matches!(v, Err(Violation::RecordSum { arc, .. }) if arc == busiest),
        "{v:?}"
    );

    let all_to_all = dctopo::traffic::AggregateTraffic::all_to_all(topo.server_count());
    let groups = dctopo::core::solve::aggregate_groups(&topo, &all_to_all);
    let g = dctopo::flow::solve_grouped(&net, &groups, &FlowOptions::default()).unwrap();
    g.certify_groups(&net, &groups).unwrap();

    let saturated = worst(net.arc_count(), &|a| g.arc_flow[a] / net.capacity(a));
    let mut m = g.clone();
    m.arc_flow[saturated] *= bump;
    let v = m.certify_groups(&net, &groups);
    assert!(
        matches!(v, Err(Violation::OverCapacity { arc, .. }) if arc == saturated),
        "{v:?}"
    );

    let mut m = g.clone();
    m.upper_bound /= bump;
    let v = m.certify_groups(&net, &groups);
    assert!(matches!(v, Err(Violation::BoundBelowDual { .. })), "{v:?}");

    let binding = worst(groups.len(), &|i| -g.commodity_rate[i]);
    let first_sink: usize = groups[..binding].iter().map(|g| g.sink_count()).sum();
    let mut m = g.clone();
    m.commodity_rate[binding] /= bump;
    let v = m.certify_groups(&net, &groups);
    assert!(
        matches!(v, Err(Violation::RateBelowLambda { commodity, .. }) if commodity == first_sink),
        "{v:?}"
    );
}

/// Every producer returns the lengths its bound was read at, one per
/// arc, the exact LP's optimal duals among them.
#[test]
fn every_backend_returns_its_witness() {
    use dctopo::flow::{solve_grouped, Backend, DemandGroup};
    let g = seeded_graph(7);
    let net = dctopo::graph::CsrNet::from_graph(&g);
    let n = g.node_count();
    let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
    let o = solver_opts();
    let backends = [
        ("fptas", o),
        ("fptas-strict", o.with_strict_reference(true)),
        ("ksp:3", o.with_backend(Backend::KspRestricted { k: 3 })),
        ("exact", o.with_backend(Backend::ExactLp)),
    ];
    for (name, o) in backends {
        let s = solve_cold(&net, &cs, &o).unwrap();
        assert_eq!(s.dual_lengths.len(), net.arc_count(), "{name}");
    }
    let cold = solve_cold(&net, &cs, &o).unwrap();
    let warm = solve_from(&net, &cs, &o, &PathSetCache::new(), &cold.dual_lengths).unwrap();
    assert_eq!(warm.dual_lengths.len(), net.arc_count(), "fptas-warm");
    let groups: Vec<DemandGroup> = (cs.iter())
        .map(|c| {
            let mut weights = vec![0.0; n];
            weights[c.dst] = c.demand;
            DemandGroup::weighted(c.src, std::sync::Arc::new(weights), 1.0)
        })
        .collect();
    let g = solve_grouped(&net, &groups, &o).unwrap();
    assert_eq!(g.dual_lengths.len(), net.arc_count(), "grouped");
}

/// Incremental Dijkstra repair equals a cold recompute on randomised
/// increase sequences: distances bitwise on every graph; parents too
/// (the lengths here stay within a few orders of magnitude, so no
/// absorption plateau arises and the cold parent rule applies exactly).
#[test]
fn dijkstra_repair_matches_cold_on_random_increase_sequences() {
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1DA);
        let mut lens: Vec<f64> = (0..net.arc_count())
            .map(|_| rng.random_range(0.01..5.0))
            .collect();
        let src = rng.random_range(0..n);
        let mut ws = DijkstraWorkspace::new(n);
        net.dijkstra(src, &lens, &mut ws);
        let mut cold = DijkstraWorkspace::new(n);
        for _round in 0..10 {
            let mut increased = Vec::new();
            for (a, len) in lens.iter_mut().enumerate() {
                if rng.random_range(0.0..1.0) < 0.25 {
                    *len *= 1.0 + rng.random_range(0.0..1.5);
                    increased.push(a as u32);
                }
            }
            net.dijkstra_repair(src, &lens, &increased, &mut ws);
            net.dijkstra(src, &lens, &mut cold);
            for v in 0..n {
                assert_eq!(
                    cold.distance(v).to_bits(),
                    ws.distance(v).to_bits(),
                    "seed {seed} node {v}: repaired distance diverged"
                );
                assert_eq!(cold.parent(v), ws.parent(v), "seed {seed} node {v}: parent");
            }
        }
    }
}

/// `dijkstra_repair` needs only the *tree* arcs among the increased
/// ones: fed the solver's whole increase log (a few hundred entries,
/// duplicates, mostly arcs the tree never used) and fed just the log's
/// tree arcs read off the parent array in node order — what
/// `Ladder::charge` passes — it builds the same tree: distance bits,
/// parent arcs, settles and the bail-out to a cold rebuild.
#[test]
fn repair_from_tree_arc_seeds_matches_repair_from_the_full_log() {
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    let (mut repaired, mut bailed) = (0usize, 0usize);
    for case in 0..200u64 {
        let n = if case % 2 == 0 { 64 } else { 512 };
        let mut rng = StdRng::seed_from_u64(0x5EED ^ case);
        let topo = Topology::random_regular(n, 12, 8, &mut rng).unwrap();
        let net = CsrNet::from_graph(&topo.graph);
        let mut lens = net.inv_capacities().to_vec();
        let src = rng.random_range(0..n);
        let mut full = DijkstraWorkspace::new(n);
        net.dijkstra(src, &lens, &mut full);
        let mut seeded = full.clone();
        let mut other = DijkstraWorkspace::new(n);
        for round in 0..4 {
            // solver-shaped increases: other sources route down their
            // own trees and every arc on the way grows, logged per visit
            let mut log: Vec<u32> = Vec::new();
            for _ in 0..rng.random_range(8..(if n == 64 { 40 } else { 120 })) {
                net.dijkstra(rng.random_range(0..n), &lens, &mut other);
                for _ in 0..rng.random_range(1..4) {
                    other.walk_path(&net, rng.random_range(0..n), |a| {
                        lens[a] *= 1.0 + 0.3 * rng.random_range(0.1..1.0);
                        log.push(a as u32);
                    });
                }
            }
            let seeds: Vec<u32> = (0..n)
                .filter_map(|w| seeded.parent(w))
                .filter(|&a| log.contains(&(a as u32)))
                .map(|a| a as u32)
                .collect();
            assert!(
                seeds.len() < log.len(),
                "case {case}: the log is mostly non-tree"
            );
            let before = (full.settles(), seeded.settles());
            net.dijkstra_repair(src, &lens, &log, &mut full);
            net.dijkstra_repair(src, &lens, &seeds, &mut seeded);
            let settled = full.settles() - before.0;
            assert_eq!(
                settled,
                seeded.settles() - before.1,
                "case {case} round {round}: settles (and with them the bail-out)"
            );
            if settled == n as u64 {
                bailed += 1;
            } else {
                repaired += 1;
            }
            for v in 0..n {
                assert_eq!(
                    full.distance(v).to_bits(),
                    seeded.distance(v).to_bits(),
                    "case {case} round {round} node {v}: distance"
                );
                assert_eq!(
                    full.parent(v),
                    seeded.parent(v),
                    "case {case} round {round} node {v}: parent"
                );
            }
        }
    }
    assert!(
        repaired > 100 && bailed > 100,
        "both outcomes exercised: {repaired} repaired, {bailed} bailed out"
    );
}

/// The metamorphic property suite on 50 seeded RRG/VL2 instances: the
/// paper's monotonicity and dominance laws hold on every scenario cell.
///
/// * (a) throughput is monotone **non-increasing** as links fail
///   (failure sets are nested prefixes of one seeded order, so this is
///   a theorem, asserted through the certified intervals: a deeper
///   level's feasible primal can never clear a shallower level's dual
///   bound);
/// * (b) throughput is monotone **non-decreasing** as capacity scales
///   up, and ×s scaling multiplies the optimum by exactly s (again via
///   certificates: `upper(s·c) ≥ s · primal(c)`);
/// * (c) on every cell the achieved network λ sits below the per-cell
///   Theorem-1 hop bound, and RRG cells additionally respect
///   `cut_throughput_bound` (half-split clusters, demand-weighted
///   observed distances) and the topology-independent
///   `throughput_upper_bound(n, r, f)`.
#[test]
fn metamorphic_failure_and_capacity_laws_on_50_seeded_instances() {
    use dctopo::bounds::cut_throughput_bound;
    use dctopo::core::solve::aggregate_commodities;
    use dctopo::core::sweep::hop_throughput_bound;
    use dctopo::core::{Degradation, Scenario, ThroughputEngine};
    use dctopo::topology::vl2::{vl2, Vl2Params};

    let opts = FlowOptions {
        epsilon: 0.1,
        target_gap: 0.04,
        max_phases: 4000,
        stall_phases: 200,
        ..FlowOptions::default()
    };
    let mut checked = 0usize;
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // alternate the two families the paper sweeps
        let (topo, rrg_shape) = if seed % 2 == 0 {
            let r = 3 + (seed as usize / 2) % 2; // degree 3 or 4
            let mut n = 8 + (seed as usize) % 6; // 8..13 switches
            if (n * r) % 2 == 1 {
                n += 1;
            }
            let t = Topology::random_regular(n, r + 2, r, &mut rng).unwrap();
            (t, Some((n, r)))
        } else {
            let tors = 2 + (seed as usize) % 3; // 2..4 ToRs
            let t = vl2(Vl2Params {
                d_a: 4,
                d_i: 4,
                tors: Some(tors),
            })
            .unwrap();
            (t, None)
        };
        if !is_connected(&topo.graph) {
            continue;
        }
        checked += 1;
        let engine = ThroughputEngine::new(&topo);
        let tm = Tm::random_permutation(topo.server_count(), &mut rng);
        let commodities = aggregate_commodities(&topo, &tm);
        if commodities.is_empty() {
            continue;
        }

        // ---- (a) + (c): link-failure levels ----
        let mut prev_dual: Option<f64> = None;
        let mut dead = false;
        for &count in &[0usize, 1, 3] {
            let sc = Scenario::new(
                format!("fail{count}"),
                vec![Degradation::FailLinks { count, seed: 99 }],
            );
            let ap = sc.apply(&topo, engine.net()).unwrap();
            match scenario_solve(&engine, &ap, &tm, &opts) {
                Ok(r) => {
                    assert!(
                        !dead,
                        "seed {seed}: level {count} reconnected a nested failure set"
                    );
                    let lam = r.network_lambda;
                    // (c) hop bound dominates every backend's λ
                    let hop = hop_throughput_bound(&ap.net, &r.commodities);
                    assert!(
                        lam <= hop * (1.0 + 1e-9),
                        "seed {seed} fail{count}: λ {lam} above hop bound {hop}"
                    );
                    // (c) cut bound on the half split, demand-weighted
                    // observed distances (aspl·f = Σ d_j·dist_j exactly,
                    // so the path term is the certified hop form)
                    let n_sw = topo.switch_count();
                    let cross_cap: f64 = (0..ap.net.arc_count())
                        .filter(|&a| {
                            ap.net.is_live(a)
                                && (ap.net.arc_tail(a) < n_sw / 2)
                                    != (ap.net.arc_head(a) < n_sw / 2)
                        })
                        .map(|a| ap.net.capacity(a))
                        .sum();
                    let n1: usize = topo.servers_at[..n_sw / 2].iter().sum();
                    let n2: usize = topo.servers_at[n_sw / 2..].iter().sum();
                    let f = (n1 + n2) as f64;
                    let alpha = ap.net.total_capacity() / hop; // Σ d_j·dist_j
                    if n1 > 0 && n2 > 0 && alpha > 0.0 && cross_cap > 0.0 {
                        let cut = cut_throughput_bound(
                            ap.net.total_capacity(),
                            cross_cap,
                            alpha / f,
                            n1,
                            n2,
                        );
                        assert!(
                            r.throughput <= cut * (1.0 + 0.02),
                            "seed {seed} fail{count}: throughput {} above cut bound {cut}",
                            r.throughput
                        );
                    }
                    // (c) topology-independent Theorem-1 bound for RRGs
                    if let Some((n, deg)) = rrg_shape {
                        let bound = dctopo::bounds::throughput_upper_bound(n, deg, tm.flow_count());
                        assert!(
                            r.throughput <= bound * (1.0 + 0.02),
                            "seed {seed} fail{count}: throughput {} above T1 bound {bound}",
                            r.throughput
                        );
                    }
                    // (a) monotone: feasible primal never clears the
                    // previous (less-failed) level's certified dual
                    if let Some(prev) = prev_dual {
                        assert!(
                            lam <= prev * (1.0 + 1e-9),
                            "seed {seed}: λ rose from dual {prev} to {lam} at fail{count}"
                        );
                    }
                    prev_dual = Some(r.network_upper_bound);
                }
                Err(FlowError::Unreachable { .. }) => dead = true,
                Err(e) => panic!("seed {seed} fail{count}: unexpected error {e}"),
            }
        }

        // ---- (b): capacity scaling ----
        let mut prev: Option<(f64, f64)> = None; // (primal, dual) at prev scale
        let mut base_primal = 0.0f64;
        for &factor in &[1.0f64, 1.5, 2.0] {
            let sc = Scenario::new(
                format!("scale{factor}"),
                vec![Degradation::ScaleCapacity { factor }],
            );
            let ap = sc.apply(&topo, engine.net()).unwrap();
            let r = scenario_solve(&engine, &ap, &tm, &opts).unwrap();
            let (lam, ub) = (r.network_lambda, r.network_upper_bound);
            if factor == 1.0 {
                base_primal = lam;
            }
            // non-decreasing: the previous (smaller) scale's primal must
            // fit under this scale's dual
            if let Some((prev_primal, prev_dual)) = prev {
                assert!(
                    prev_primal <= ub * (1.0 + 1e-9),
                    "seed {seed}: λ* shrank when capacity scaled to {factor}"
                );
                // and this primal can't beat s2/s1 × the previous dual
                assert!(
                    lam <= prev_dual * 2.0 * (1.0 + 1e-9),
                    "seed {seed}: λ {lam} above scaled dual at {factor}"
                );
            }
            // exact scaling law via certificates: λ*(s·c) = s·λ*(c)
            assert!(
                ub >= factor * base_primal * (1.0 - 1e-9),
                "seed {seed}: dual {ub} below {factor}x base primal {base_primal}"
            );
            prev = Some((lam, ub));
        }
    }
    assert!(checked >= 40, "only {checked} instances were connected");
}

/// The one screening ladder (`core::ladder`) against its `Graph`-side
/// oracle and against certified solves, on 20 seeded instances (RRG and
/// two-cluster, alternating) × {baseline, `fail-links`, `scale`} views:
///
/// * differential — `ladder::cut_bound(view, probe)` is
///   `graph::components::cut_capacity` of the view's rebuilt graph over
///   the probe's crossing demand (the search used to compute it that
///   way, per edge with a multiplier; the view form must not drift);
/// * soundness — the certified λ of `fptas` and `ksp:4` sits under both
///   the hop bound and the tightest cut bound of the view it was solved
///   on, and a view that strands a commodity reads hop bound 0.
#[test]
fn ladder_bounds_match_the_graph_oracle_and_dominate_certified_lambda() {
    use dctopo::core::ladder::{cut_bound, cut_probes, hop_throughput_bound, min_cut_bound};
    use dctopo::core::solve::aggregate_commodities;
    use dctopo::graph::components::cut_capacity;

    let mut solved = 0usize;
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = if seed % 2 == 0 {
            Topology::random_regular(10 + seed as usize % 6, 6, 4, &mut rng).unwrap()
        } else {
            let cluster = |count, ports, servers_per_switch| ClusterSpec {
                count,
                ports,
                servers_per_switch,
            };
            let cross = CrossSpec::Exact(3 + seed as usize % 3);
            two_cluster(cluster(6, 10, 3), cluster(6, 8, 2), cross, &mut rng).unwrap()
        };
        let tm = Tm::random_permutation(topo.server_count(), &mut rng);
        let commodities = aggregate_commodities(&topo, &tm);
        let probes = cut_probes(&topo, &commodities, 3, seed);
        assert_eq!(probes.len(), 3 + (seed % 2) as usize, "seed {seed}");
        let engine = ThroughputEngine::new(&topo);
        for degradation in [
            None,
            Some(Degradation::FailLinks { count: 2, seed }),
            Some(Degradation::ScaleCapacity { factor: 1.5 }),
        ] {
            let sc = Scenario::new("view", degradation.iter().cloned().collect());
            let view = sc.apply(&topo, engine.net()).unwrap();
            let rebuilt = view.net.to_graph();
            for probe in probes.iter().filter(|p| p.cross_demand > 0.0) {
                let (got, want) = (
                    cut_bound(&view.net, probe),
                    cut_capacity(&rebuilt, &probe.membership) / probe.cross_demand,
                );
                assert!(
                    (got - want).abs() <= 1e-12 * want,
                    "seed {seed} {degradation:?} {}: view {got} vs graph {want}",
                    probe.name
                );
            }
            let hop = hop_throughput_bound(&view.net, &commodities);
            let bound = hop.min(min_cut_bound(&view.net, &probes));
            for backend in ["fptas", "ksp:4"] {
                let mut opts = solver_opts();
                backend.parse::<BackendChoice>().unwrap().apply(&mut opts);
                match scenario_solve(&engine, &view, &tm, &opts) {
                    Ok(r) => {
                        solved += 1;
                        assert!(
                            r.network_lambda <= bound * (1.0 + 1e-9),
                            "seed {seed} {degradation:?} {backend}: certified λ {} above \
                             the ladder's bound {bound}",
                            r.network_lambda
                        );
                    }
                    Err(FlowError::Unreachable { .. }) => assert_eq!(hop, 0.0, "seed {seed}"),
                    Err(e) => panic!("seed {seed} {degradation:?} {backend}: {e}"),
                }
            }
        }
    }
    assert!(solved >= 100, "only {solved} of 120 solves ran");
}

/// The one demand-weighted hop distance: `ThroughputResult::
/// decomposition`'s ⟨D⟩ and fig. 10's server-weighted ⟨D⟩ both read
/// `core::ladder::hop_alpha`. The per-source `Graph` BFS loops they
/// replaced are kept here as test models — verbatim, but for the deleted
/// `SolvedFlow::utilization` inlined and the names changed — and must
/// agree bit for bit on 56 seeded instances (7 families × 8 seeds,
/// permutation traffic, `FlowOptions::fast()`).
#[test]
fn decomposition_and_server_aspl_match_the_bfs_models_bitwise() {
    use dctopo::core::ladder::hop_alpha;
    use dctopo::graph::paths::{bfs_distances, UNREACHABLE};

    /// The metrics crate's decomposition, as deleted.
    fn decompose_model(
        g: &Graph,
        solved: &SolvedFlow,
        commodities: &[Commodity],
    ) -> Result<Decomposition, FlowError> {
        let capacity = g.total_capacity();
        let utilization = if capacity > 0.0 {
            solved.arc_flow.iter().sum::<f64>() / capacity
        } else {
            0.0
        };
        // demand-weighted ASPL between commodity endpoints, sharing BFS runs
        // across commodities with the same source
        let mut by_src: Vec<Vec<(usize, f64)>> = vec![Vec::new(); g.node_count()];
        for c in commodities {
            by_src[c.src].push((c.dst, c.demand));
        }
        let mut dist_sum = 0.0;
        let mut demand_sum = 0.0;
        for (src, sinks) in by_src.iter().enumerate() {
            if sinks.is_empty() {
                continue;
            }
            let dist = bfs_distances(g, src);
            for &(dst, demand) in sinks {
                if dist[dst] == UNREACHABLE {
                    return Err(FlowError::Unreachable { src, dst });
                }
                dist_sum += demand * f64::from(dist[dst]);
                demand_sum += demand;
            }
        }
        let aspl = dist_sum / demand_sum;
        let mean_flow_path_len = solved.mean_flow_path_len();
        // stretch: routed length over shortest length (≥ 1 up to solver noise)
        let stretch = if aspl > 0.0 {
            mean_flow_path_len / aspl
        } else {
            1.0
        };
        Ok(Decomposition {
            capacity,
            utilization,
            aspl,
            stretch,
            mean_flow_path_len,
            total_demand: demand_sum,
        })
    }

    /// Fig. 10's server-weighted ASPL loop, as deleted.
    fn fig10_aspl_model(topo: &Topology) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for u in 0..topo.switch_count() {
            let su = topo.servers_at[u] as f64;
            if su == 0.0 {
                continue;
            }
            let dist = bfs_distances(&topo.graph, u);
            for (v, &servers) in topo.servers_at.iter().enumerate() {
                let sv = servers as f64;
                if sv == 0.0 {
                    continue;
                }
                let pairs = if u == v { su * (su - 1.0) } else { su * sv };
                num += pairs * f64::from(dist[v]);
                den += pairs;
            }
        }
        num / den
    }

    let bits = |d: &Decomposition| {
        [
            d.capacity,
            d.utilization,
            d.aspl,
            d.stretch,
            d.mean_flow_path_len,
            d.total_demand,
        ]
        .map(f64::to_bits)
    };
    let mut checked = 0;
    for family in [
        "rrg:16x8x4",
        "rrg:24x10x6",
        "rrg:40x12x8",
        "vl2:4x4",
        "vl2:6x6",
        "two-cluster:10x12x4-20x8x3-12",
        "fat-tree:4",
    ] {
        let point: TopologyPoint = family.parse().unwrap();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = (point.build)(&mut rng).unwrap();
            let tm = Tm::random_permutation(topo.server_count(), &mut rng);
            let engine = ThroughputEngine::new(&topo);
            let res = engine.solve(&tm, &FlowOptions::fast()).unwrap();
            let model =
                decompose_model(&topo.graph, res.solved.as_ref().unwrap(), &res.commodities);
            let got = res.decomposition(engine.net()).unwrap();
            assert_eq!(bits(&got), bits(&model.unwrap()), "{family} seed {seed}");

            let s = &topo.servers_at;
            let mut server_pairs = Vec::new();
            for u in (0..s.len()).filter(|&u| s[u] > 0) {
                for v in (0..s.len()).filter(|&v| v != u && s[v] > 0) {
                    let demand = (s[u] * s[v]) as f64;
                    server_pairs.push(Commodity {
                        src: u,
                        dst: v,
                        demand,
                    });
                }
            }
            let servers = topo.server_count() as f64;
            let aspl = hop_alpha(engine.net(), &server_pairs) / (servers * (servers - 1.0));
            assert_eq!(
                aspl.to_bits(),
                fig10_aspl_model(&topo).to_bits(),
                "{family} seed {seed}: server-weighted ASPL"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 56);
}

/// `path_stats` is exact where the Moore tree is achievable — the
/// complete graph (ASPL 1) and the cycle C_9 (ASPL 2.5) equal `d*` —
/// and never below `d*` on random regular graphs.
#[test]
fn path_stats_pins_against_the_moore_bound() {
    use dctopo::topology::classic::complete;

    for n in [4usize, 6, 9] {
        let aspl = path_stats(&complete(n, 1).unwrap().graph).unwrap().aspl;
        assert!((aspl - 1.0).abs() < 1e-12);
        assert!((aspl - aspl_lower_bound(n, n - 1).unwrap()).abs() < 1e-12);
    }
    let mut ring = Graph::new(9);
    for v in 0..9 {
        ring.add_unit_edge(v, (v + 1) % 9).unwrap();
    }
    let aspl = path_stats(&ring).unwrap().aspl;
    assert!((aspl - 2.5).abs() < 1e-12);
    assert!((aspl - aspl_lower_bound(9, 2).unwrap()).abs() < 1e-12);
    let bound = aspl_lower_bound(20, 4).unwrap();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(20, 8, 4, &mut rng).unwrap();
        let aspl = path_stats(&topo.graph).unwrap().aspl;
        assert!(
            aspl >= bound - 1e-12,
            "seed {seed}: ASPL {aspl} below bound {bound}"
        );
    }
}

/// Cross-backend differential on degraded scenarios — the 50-seeded-
/// graph pin extended to failure deltas. On each seeded graph a seeded
/// set of links fails through `CsrNet::with_disabled_arcs`; then:
///
/// * `Fptas` fast and strict land within the certified gap of
///   `ExactLp`'s optimum on the degraded view, never above it;
/// * the fast path is bit-identical at 1/2/8 rayon threads on views;
/// * solving the *view* is bit-identical to solving a net rebuilt from
///   the degraded graph (delta views are semantically invisible);
/// * `KspRestricted` (k = 8) stays within its own certificates, below
///   the exact optimum, and its cached solves are bit-identical to cold
///   ones on views (one shared cache across all 50 view structures);
/// * when the failure disconnects a commodity, every iterative backend
///   reports `Unreachable` rather than hanging or fabricating numbers.
#[test]
fn backends_agree_on_degraded_views_across_50_seeded_graphs() {
    use dctopo::flow::{Backend, PathSetCache};
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::CsrNet;
    use dctopo::topology::degrade;
    use rayon::ThreadPoolBuilder;

    let opts = FlowOptions {
        epsilon: 0.05,
        target_gap: 0.02,
        max_phases: 30000,
        stall_phases: 3000,
        ..FlowOptions::default()
    };
    let ksp8 = Backend::KspRestricted { k: 8 };
    let cache = PathSetCache::new();
    let mut solved = 0usize;
    let mut disconnected = 0usize;
    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        let fail = 1 + (seed as usize) % 3;
        let order = degrade::edge_failure_order(&g, seed);
        let arcs: Vec<usize> = order[..fail.min(order.len())]
            .iter()
            .map(|&e| e << 1)
            .collect();
        let view = net.with_disabled_arcs(&arcs).unwrap();
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();

        // connectivity of the surviving pairs
        let ones = vec![1.0f64; view.arc_count()];
        let mut ws = DijkstraWorkspace::new(n);
        let connected = cs.iter().all(|c| {
            view.dijkstra(c.src, &ones, &mut ws);
            ws.distance(c.dst).is_finite()
        });
        if !connected {
            disconnected += 1;
            for strict in [false, true] {
                let r = solve_cold(&view, &cs, &opts.with_strict_reference(strict));
                assert!(
                    matches!(r, Err(FlowError::Unreachable { .. })),
                    "seed {seed}: expected Unreachable, got {r:?}"
                );
            }
            assert!(matches!(
                solve_cold(&view, &cs, &opts.with_backend(ksp8)),
                Err(FlowError::Unreachable { .. })
            ));
            continue;
        }
        solved += 1;

        let exact = solve_cold(&view, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
        let fast = solve_cold(&view, &cs, &opts).unwrap();
        let strict = solve_cold(&view, &cs, &opts.with_strict_reference(true)).unwrap();
        for (label, s) in [("fast", &fast), ("strict", &strict)] {
            assert!(
                s.throughput <= exact.throughput * (1.0 + 1e-6),
                "seed {seed}: {label} primal {} above exact {}",
                s.throughput,
                exact.throughput
            );
            assert!(
                s.upper_bound >= exact.throughput * (1.0 - 1e-6),
                "seed {seed}: {label} dual {} below exact {}",
                s.upper_bound,
                exact.throughput
            );
            assert!(
                s.throughput >= exact.throughput * (1.0 - opts.target_gap - 0.01),
                "seed {seed}: {label} primal {} outside target_gap of exact {}",
                s.throughput,
                exact.throughput
            );
            // no flow may land on failed arcs
            for &a in &arcs {
                assert_eq!(
                    s.arc_flow[a], 0.0,
                    "seed {seed}: {label} used failed arc {a}"
                );
                assert_eq!(s.arc_flow[a | 1], 0.0);
            }
        }

        // the delta view is semantically invisible: bit-identical to a
        // net rebuilt from the degraded graph (node ids preserved)
        let rebuilt = CsrNet::from_graph(&view.to_graph());
        for strict in [false, true] {
            let o = opts.with_strict_reference(strict);
            let v = solve_cold(&view, &cs, &o).unwrap();
            let r = solve_cold(&rebuilt, &cs, &o).unwrap();
            assert_eq!(
                v.throughput.to_bits(),
                r.throughput.to_bits(),
                "seed {seed} strict {strict}: view diverged from rebuild"
            );
            assert_eq!(v.upper_bound.to_bits(), r.upper_bound.to_bits());
            assert_eq!(v.phases, r.phases);
            assert_eq!(v.settles, r.settles);
        }

        // fast path bit-identical across thread counts on the view
        let solve_at = |threads: usize| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| solve_cold(&view, &cs, &opts).unwrap())
        };
        for threads in [2usize, 8] {
            let s = solve_at(threads);
            assert_eq!(
                fast.throughput.to_bits(),
                s.throughput.to_bits(),
                "seed {seed}: {threads} threads diverged on view"
            );
            assert_eq!(fast.settles, s.settles);
        }

        // KSP: certificates hold, optimum bounded by exact, cached
        // solves bitwise-equal to cold (one cache, 50 view structures)
        let ksp_opts = opts.with_backend(ksp8);
        let cold = solve_cold(&view, &cs, &ksp_opts).unwrap();
        let miss = solve_with_cache(&view, &cs, &ksp_opts, &cache).unwrap();
        let hit = solve_with_cache(&view, &cs, &ksp_opts, &cache).unwrap();
        for (label, s) in [("miss", &miss), ("hit", &hit)] {
            assert_eq!(
                cold.throughput.to_bits(),
                s.throughput.to_bits(),
                "seed {seed}: ksp {label} diverged from cold on view"
            );
            assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(cold.phases, s.phases);
        }
        // the restricted optimum sits below the unrestricted one (by
        // construction — k simple paths can genuinely capture less
        // capacity on these parallel-edge multigraphs, so no lower
        // bound against `exact` is a theorem), within its own
        // certified interval, and strictly positive
        assert!(cold.throughput <= exact.throughput * (1.0 + 1e-6));
        assert!(cold.throughput <= cold.upper_bound * (1.0 + 1e-9));
        assert!(cold.throughput > 0.0, "seed {seed}: ksp solved nothing");
    }
    assert!(
        solved >= 30,
        "need most instances connected to make the differential meaningful ({solved})"
    );
    assert!(solved + disconnected == 50);
}

/// Worker-pool runs match single-thread results bitwise: the FPTAS on
/// an instance big enough to take the parallel dual-bound path returns
/// identical output at every chunk count.
#[test]
fn pool_runs_match_single_thread_results() {
    use dctopo::graph::CsrNet;
    use rayon::ThreadPoolBuilder;

    let mut rng = StdRng::seed_from_u64(42);
    // 32 source groups × 256 arcs crosses the parallel-pass threshold
    let topo = Topology::random_regular(32, 12, 8, &mut rng).unwrap();
    let net = CsrNet::from_graph(&topo.graph);
    let cs: Vec<Commodity> = (0..32).map(|i| Commodity::unit(i, (i + 13) % 32)).collect();
    let opts = FlowOptions::fast();
    let solve_at = |threads: usize| {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| solve_cold(&net, &cs, &opts).unwrap())
    };
    let base = solve_at(1);
    for threads in [2, 4, 8] {
        let s = solve_at(threads);
        assert_eq!(
            base.throughput.to_bits(),
            s.throughput.to_bits(),
            "{threads}-way chunking diverged"
        );
        assert_eq!(base.upper_bound.to_bits(), s.upper_bound.to_bits());
        assert_eq!(base.phases, s.phases);
        for (x, y) in base.arc_flow.iter().zip(&s.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// CsrNet Dijkstra (indexed-heap, early-terminating engine) reproduces
/// `paths::dijkstra` bitwise on 100 seeded random graphs with random
/// positive arc lengths.
#[test]
fn csr_dijkstra_matches_legacy_on_100_seeded_graphs() {
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::paths::dijkstra;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    let mut ws = DijkstraWorkspace::new(0);
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(6..40);
        // ring (connected) + random chords with random capacities
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
                .unwrap();
        }
        for _ in 0..rng.random_range(0..2 * n) {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
            }
        }
        let lens: Vec<f64> = (0..g.arc_count())
            .map(|_| rng.random_range(0.01..5.0))
            .collect();
        let net = CsrNet::from_graph(&g);
        let src = rng.random_range(0..n);
        let legacy = dijkstra(&g, src, &lens);
        net.dijkstra(src, &lens, &mut ws);
        for v in 0..n {
            assert_eq!(
                legacy.dist[v].to_bits(),
                ws.distance(v).to_bits(),
                "seed {seed}: dist mismatch at node {v}"
            );
            assert_eq!(
                legacy.parent_arc[v],
                ws.parent(v),
                "seed {seed}: parent mismatch at node {v}"
            );
        }
    }
}
