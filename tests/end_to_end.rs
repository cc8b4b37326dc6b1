//! End-to-end integration tests spanning the whole workspace: topology
//! generators → traffic → flow solver → metrics → bounds, at toy scale.

use dctopo::bounds::{aspl_lower_bound, cut_throughput_bound, throughput_upper_bound};
use dctopo::core::vl2::{permutation_tm, SupportSearch};
use dctopo::graph::components::{cut_capacity, is_connected};
use dctopo::graph::paths::path_stats;
use dctopo::prelude::*;
use dctopo::topology::classic::{complete, fat_tree, hypercube};
use dctopo::topology::hetero::{heterogeneous, two_cluster, CrossSpec};
use dctopo::topology::vl2::{rewired_vl2, vl2, Vl2Params};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn opts() -> FlowOptions {
    FlowOptions::default()
}

/// The full homogeneous pipeline: RRG obeys both paper bounds.
#[test]
fn rrg_respects_theorem1_and_aspl_bound() {
    let mut rng = StdRng::seed_from_u64(1);
    for &(n, k, r) in &[(20usize, 9usize, 4usize), (40, 15, 10)] {
        let topo = Topology::random_regular(n, k, r, &mut rng).unwrap();
        assert!(is_connected(&topo.graph));
        let stats = path_stats(&topo.graph).unwrap();
        let d_star = aspl_lower_bound(n, r).unwrap();
        assert!(
            stats.aspl >= d_star - 1e-9,
            "ASPL {} below its lower bound {d_star}",
            stats.aspl
        );
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let res = solve_throughput(&topo, &tm, &opts()).unwrap();
        let bound = throughput_upper_bound(n, r, tm.flow_count());
        assert!(
            res.network_lambda <= bound * 1.001,
            "λ {} exceeds Theorem-1 bound {bound}",
            res.network_lambda
        );
        // and the random graph should not be terribly far below it
        assert!(res.network_lambda >= 0.5 * bound, "RRG suspiciously weak");
    }
}

/// Proportional server placement beats strongly skewed placements
/// (Fig. 4's claim) on a two-class fleet.
#[test]
fn proportional_placement_wins() {
    let measure = |per_class: Vec<usize>| {
        let mut sum = 0.0;
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let topo = heterogeneous(
                &[(10, 24), (20, 12)],
                240,
                &ServerPlacement::PerClass(per_class.clone()),
                &mut rng,
            )
            .unwrap();
            let tm = TrafficMatrix::random_permutation(240, &mut rng);
            // extreme skews can disconnect the fabric entirely; that is
            // zero throughput, not an error, for this comparison
            sum += solve_throughput(&topo, &tm, &opts())
                .map(|r| r.throughput)
                .unwrap_or(0.0);
        }
        sum / 3.0
    };
    let proportional = measure(vec![12, 6]); // 24:12 = 2:1
    let skew_large = measure(vec![20, 2]);
    let skew_small = measure(vec![2, 11]);
    assert!(
        proportional > skew_large && proportional > skew_small,
        "proportional {proportional} vs skews {skew_large}/{skew_small}"
    );
}

/// Fig. 6's plateau + collapse, and Eqn. 1 holds throughout.
#[test]
fn cross_cluster_plateau_and_cut_bound() {
    let large = ClusterSpec {
        count: 10,
        ports: 20,
        servers_per_switch: 8,
    };
    let small = ClusterSpec {
        count: 20,
        ports: 10,
        servers_per_switch: 4,
    };
    let mut results = Vec::new();
    for &ratio in &[0.15, 0.5, 1.0, 1.4] {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = two_cluster(large, small, CrossSpec::Ratio(ratio), &mut rng).unwrap();
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let res = solve_throughput(&topo, &tm, &opts()).unwrap();
        // Eqn 1, instantiated exactly: LP duality with unit lengths gives
        // λ·Σⱼ dⱼ·dist(sⱼ,tⱼ) ≤ C, and the cut gives λ·(demand across the
        // cut) ≤ C̄. The analytic form of Eqn 1 replaces both sums by
        // their expectations (whole-graph ASPL, expected cross demand),
        // which the dense large cluster's server weighting can beat by a
        // few percent — so assert the per-instance sums instead.
        let in_large: Vec<bool> = (0..30).map(|v| v < 10).collect();
        let (mut dist_demand, mut cross_demand) = (0.0f64, 0.0f64);
        for c in &res.commodities {
            let hops = dctopo::graph::paths::bfs_distances(&topo.graph, c.src)[c.dst];
            dist_demand += c.demand * f64::from(hops);
            if in_large[c.src] != in_large[c.dst] {
                cross_demand += c.demand;
            }
        }
        let path_bound = topo.graph.total_capacity() / dist_demand;
        let cut_bound = cut_capacity(&topo.graph, &in_large) / cross_demand;
        let bound = path_bound.min(cut_bound);
        assert!(
            res.network_lambda <= bound * 1.001,
            "ratio {ratio}: λ {} above Eqn-1 bound {bound}",
            res.network_lambda
        );
        // and the analytic approximation tracks the exact instance bound
        let analytic = cut_throughput_bound(
            topo.graph.total_capacity(),
            cut_capacity(&topo.graph, &in_large),
            path_stats(&topo.graph).unwrap().aspl,
            80,
            80,
        );
        assert!(
            (analytic - bound).abs() <= 0.15 * bound,
            "ratio {ratio}: analytic Eqn-1 {analytic} far from instance bound {bound}"
        );
        results.push(res.throughput);
    }
    // collapse at the left, plateau at the right
    assert!(
        results[0] < 0.6 * results[2],
        "no collapse at scarce cross capacity"
    );
    let plateau_ratio = results[3] / results[2];
    assert!(
        (0.9..=1.1).contains(&plateau_ratio),
        "no plateau: T(1.4)/T(1.0) = {plateau_ratio}"
    );
}

/// Fat-tree delivers full throughput at design load; K_n trivially does.
#[test]
fn structured_baselines_behave() {
    let ft = fat_tree(4).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let tm = TrafficMatrix::random_permutation(ft.server_count(), &mut rng);
    let res = solve_throughput(&ft, &tm, &opts()).unwrap();
    assert!(
        res.throughput > 0.95,
        "fat-tree at design load: {}",
        res.throughput
    );

    let kn = complete(8, 2).unwrap();
    let tm = TrafficMatrix::random_permutation(16, &mut rng);
    let res = solve_throughput(&kn, &tm, &opts()).unwrap();
    assert!(res.throughput > 0.95, "K8: {}", res.throughput);
}

/// The intro's hypercube claim, at reduced scale: RRG with the same
/// equipment beats the hypercube. With one server per switch the
/// max-concurrent (min-rate) objective is dominated by the single
/// worst-placed commodity and the families are statistically tied, so —
/// as in the paper — we compare with several servers per switch, where
/// switch-pair aggregation lets the RRG's shorter paths pay off.
#[test]
fn rrg_beats_hypercube() {
    let mut rng = StdRng::seed_from_u64(4);
    let dim = 6u32; // 64 switches
    let servers = 5usize;
    let cube = hypercube(dim, servers).unwrap();
    let tm = TrafficMatrix::random_permutation(64 * servers, &mut rng);
    let cube_t = solve_throughput(&cube, &tm, &opts())
        .unwrap()
        .network_lambda;
    let rrg = Topology::random_regular(64, 6 + servers, 6, &mut rng).unwrap();
    let rrg_t = solve_throughput(&rrg, &tm, &opts()).unwrap().network_lambda;
    assert!(
        rrg_t > 1.10 * cube_t,
        "RRG {rrg_t} should clearly beat hypercube {cube_t}"
    );
}

/// §7 at small scale: the rewired equipment supports at least as many
/// ToRs as stock VL2, usually more.
#[test]
fn vl2_rewiring_does_not_regress() {
    let search = SupportSearch {
        runs: 2,
        ..SupportSearch::default()
    };
    let (d_a, d_i) = (8, 8);
    let full = d_a * d_i / 4;
    let stock = |tors: usize, _s: u64| {
        vl2(Vl2Params {
            d_a,
            d_i,
            tors: Some(tors),
        })
    };
    let rew = |tors: usize, s: u64| {
        let mut rng = StdRng::seed_from_u64(s);
        rewired_vl2(
            Vl2Params {
                d_a,
                d_i,
                tors: Some(tors),
            },
            &mut rng,
        )
    };
    let a = search
        .max_tors(4, full, &stock, &permutation_tm)
        .unwrap()
        .unwrap();
    let b = search
        .max_tors(4, full * 2, &rew, &permutation_tm)
        .unwrap()
        .unwrap();
    assert_eq!(a, full, "stock VL2 supports exactly D_A*D_I/4");
    assert!(b >= a, "rewired {b} must not lose to stock {a}");
}

/// Chunky traffic is harder than permutation on the same topology
/// (Fig. 12b's direction).
#[test]
fn chunky_is_harder_than_permutation() {
    let mut rng = StdRng::seed_from_u64(5);
    let p = Vl2Params {
        d_a: 8,
        d_i: 8,
        tors: Some(20),
    };
    let topo = rewired_vl2(p, &mut rng).unwrap();
    let groups: Vec<Vec<usize>> = topo
        .server_groups()
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect();
    let perm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let chunky = TrafficMatrix::chunky(&groups, 100.0, &mut rng);
    let t_perm = solve_throughput(&topo, &perm, &opts()).unwrap().throughput;
    let t_chunky = solve_throughput(&topo, &chunky, &opts())
        .unwrap()
        .throughput;
    assert!(
        t_chunky <= t_perm * 1.02,
        "chunky {t_chunky} should not beat permutation {t_perm}"
    );
}

/// Decomposition factors reconstruct throughput across pipeline stages.
#[test]
fn decomposition_identity_via_pipeline() {
    let mut rng = StdRng::seed_from_u64(6);
    let topo = Topology::random_regular(24, 10, 6, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let engine = ThroughputEngine::new(&topo);
    let res = engine.solve(&tm, &opts()).unwrap();
    let d = res.decomposition(engine.net()).unwrap();
    let implied = d.implied_throughput();
    assert!(
        (implied - res.network_lambda).abs() / res.network_lambda < 0.08,
        "identity broke: implied {implied} vs λ {}",
        res.network_lambda
    );
    assert!(d.stretch >= 0.98, "stretch below 1: {}", d.stretch);
    assert!(d.utilization <= 1.0 + 1e-9);
}
