//! A model check of the planner's stage theorem, in the spirit of
//! Tracer's exhaustive exploration of concurrent SDN update
//! interleavings.
//!
//! A stage's λ is certified on one view: every member in flight at
//! once. The theorem says that certificate covers *every* interleaving
//! of the members, because each member is at any instant not started,
//! in flight or done, and the all-in-flight view is pointwise dominated
//! by every such mix. This test does not take that on trust: for every
//! stage of at most [`MAX_STAGE`] moves of three plans it enumerates all
//! `3^m` member states over the stage's applied prefix with
//! [`Migration::state_view`], solves each to the target gap, has
//! [`SolvedFlow::certify`] re-derive the certificate, and asserts the
//! certified upper bound is at or above the floor — so λ* is, in every
//! state. A state whose certified λ falls below the floor while its
//! bound stays above it is the solver's gap, not a broken theorem: it is
//! reported, not failed. One plan of the corpus learns an ordering
//! conflict, and its order must keep every learned `before ≺ after`.

use dctopo::plan::{cross_churn, plan_migration, Migration, MigrationPlan, PlanSpec};
use dctopo::prelude::*;
use dctopo::topology::hetero::{two_cluster, CrossSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The widest stage whose `3^m` states are enumerated.
const MAX_STAGE: usize = 8;

/// `tests/plan_determinism.rs`'s instance: RRG(16, 6, 4), permutation
/// traffic, three churn pairs, floor at half the endpoint λ.
fn determinism_instance() -> (Topology, TrafficMatrix, Migration, PlanSpec) {
    let mut rng = StdRng::seed_from_u64(77);
    let topo = Topology::random_regular(16, 6, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let mig = Migration::new(&topo, &cross_churn(&topo, 3, 77).unwrap()).unwrap();
    let spec = PlanSpec {
        seed: 77,
        floor_frac: 0.5,
        ..PlanSpec::default()
    };
    (topo, tm, mig, spec)
}

/// `tests/golden/plan.txt`'s instance: `topobench plan --family
/// rrg:12x6x4 --pairs 2 --seed 3` (permutation traffic, default floor).
fn golden_instance() -> (Topology, TrafficMatrix, Migration, PlanSpec) {
    let mut rng = StdRng::seed_from_u64(3);
    let topo = Topology::random_regular(12, 6, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let mig = Migration::new(&topo, &cross_churn(&topo, 2, 3).unwrap()).unwrap();
    let spec = PlanSpec {
        seed: 3,
        ..PlanSpec::default()
    };
    (topo, tm, mig, spec)
}

/// `topobench plan --family rrg:20x7x4 --pairs 3 --floor-frac 0.92
/// --seed 3`: the corpus plan that learns a conflict — its first
/// ordering attempt puts a move below the floor, and a rescuer certified
/// to fix it becomes a hard `before ≺ after` constraint.
fn conflict_instance() -> (Topology, TrafficMatrix, Migration, PlanSpec) {
    let mut rng = StdRng::seed_from_u64(3);
    let topo = Topology::random_regular(20, 7, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let mig = Migration::new(&topo, &cross_churn(&topo, 3, 3).unwrap()).unwrap();
    let spec = PlanSpec {
        seed: 3,
        floor_frac: 0.92,
        ..PlanSpec::default()
    };
    (topo, tm, mig, spec)
}

/// Two clusters joined by 8 cross links under all-to-all traffic, three
/// churn pairs: the cut bound binds here, where the hop bound binds on
/// the RRGs.
fn two_cluster_instance() -> (Topology, TrafficMatrix, Migration, PlanSpec) {
    let mut rng = StdRng::seed_from_u64(77);
    let topo = two_cluster(
        ClusterSpec {
            count: 6,
            ports: 10,
            servers_per_switch: 3,
        },
        ClusterSpec {
            count: 6,
            ports: 8,
            servers_per_switch: 2,
        },
        CrossSpec::Exact(8),
        &mut rng,
    )
    .unwrap();
    let tm = TrafficMatrix::all_to_all(topo.server_count());
    let mig = Migration::new(&topo, &cross_churn(&topo, 3, 5).unwrap()).unwrap();
    let spec = PlanSpec {
        floor_frac: 0.5,
        ..PlanSpec::default()
    };
    (topo, tm, mig, spec)
}

/// Every state of every stage of `plan`: for each stage of at most
/// [`MAX_STAGE`] moves, the applied prefix of the earlier stages plus
/// each member not started, in flight or done — `(applied, inflight)`.
fn interleavings(plan: &MigrationPlan, moves: usize) -> Vec<(Vec<bool>, Vec<usize>)> {
    let mut prefix = vec![false; moves];
    let mut states = Vec::new();
    for stage in &plan.stages {
        let m = stage.moves.len();
        if m <= MAX_STAGE {
            for code in 0..3usize.pow(m as u32) {
                let (mut applied, mut inflight) = (prefix.clone(), Vec::new());
                let mut digits = code;
                for &mv in &stage.moves {
                    match digits % 3 {
                        0 => {}
                        1 => inflight.push(mv),
                        _ => applied[mv] = true,
                    }
                    digits /= 3;
                }
                states.push((applied, inflight));
            }
        }
        for &mv in &stage.moves {
            prefix[mv] = true;
        }
    }
    states
}

#[test]
fn every_interleaving_of_every_stage_keeps_the_floor_certifiable() {
    let golden = include_str!("golden/plan.txt");
    let (mut states, mut widest, mut reported) = (0, 0, 0);
    for (name, (topo, tm, mig, spec)) in [
        ("determinism", determinism_instance()),
        ("golden", golden_instance()),
        ("two-cluster", two_cluster_instance()),
        ("conflict", conflict_instance()),
    ] {
        let plan = plan_migration(&topo, &tm, &mig, &spec).unwrap();
        if name == "golden" {
            let pinned = format!("fingerprint: {:#018x}", plan.fingerprint());
            assert!(golden.contains(&pinned), "not the golden plan: {pinned}");
        }
        if name == "conflict" {
            assert_eq!(
                plan.fingerprint(),
                0xbdba_69b9_abeb_19d3,
                "not the CLI's plan"
            );
            assert!(plan.stats.conflicts_learned >= 1, "no conflict learned");
            assert_eq!(plan.learned.len(), plan.stats.conflicts_learned);
            let at = |m: usize| plan.order.iter().position(|&o| o == m).unwrap();
            for c in &plan.learned {
                assert!(
                    at(c.before) < at(c.after),
                    "{c:?} broken by {:?}",
                    plan.order
                );
            }
        }
        let engine = ThroughputEngine::new(&topo);
        for (applied, inflight) in interleavings(&plan, mig.move_count()) {
            let view = mig.state_view(&applied, &inflight).unwrap();
            let r = engine.solve_on(&view, &tm, &spec.opts).unwrap();
            let solved = r.solved.as_ref().unwrap();
            let rederived = solved.certify(&view, &r.commodities, None);
            assert!(
                rederived.is_ok(),
                "{name}: {applied:?} + {inflight:?}: {rederived:?}"
            );
            assert!(
                solved.upper_bound >= plan.floor,
                "{name}: applied {applied:?}, in flight {inflight:?}: λ* ≤ {} < floor {}",
                solved.upper_bound,
                plan.floor
            );
            if solved.throughput < plan.floor {
                eprintln!(
                    "{name}: applied {applied:?}, in flight {inflight:?}: certified λ {} \
                     below floor {}, bound {} above it",
                    solved.throughput, plan.floor, solved.upper_bound
                );
                reported += 1;
            }
            states += 1;
        }
        widest = widest.max(plan.parallelism());
    }
    eprintln!("{states} states, widest stage {widest}, {reported} reported");
    assert!(
        widest >= 2,
        "no multi-move stage: only the trivial interleavings ran"
    );
}
