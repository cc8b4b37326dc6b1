//! The reconfiguration planner's acceptance pins:
//!
//! * **the floor law** — every stage of the execution DAG certifies
//!   λ ≥ floor on a *freshly recomposed* transient-failure view (whole
//!   stage in flight at once), not just on the planner's own word;
//! * **every solve is accounted for** — the pruned planner honors the
//!   spec floor with a complete ordering, and its solve counters add up:
//!   the endpoints, every ordering attempt and every stage-packing
//!   attempt is a real solve or a reuse of an already certified view;
//! * **bit-identical at 1, 2, and 8 rayon threads and across reruns**
//!   — a plan fingerprint is a function of the spec, never of
//!   scheduling;
//! * **the typed failure path** — an unreachable floor degrades into
//!   `NoSafeOrdering` carrying a complete best-floor ordering with its
//!   violations called out;
//! * **search → plan round trip** — a search result's exported resolved
//!   moves build a valid migration the planner can order.

use dctopo::plan::{cross_churn, plan_migration, Migration, MigrationPlan, PlanError, PlanSpec};
use dctopo::prelude::*;
use dctopo::topology::hetero::{two_cluster, CrossSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::ThreadPoolBuilder;

/// The determinism workload: RRG(16, 6, 4) under permutation traffic,
/// three churn pairs (six moves), floor at half the endpoint λ — tight
/// enough that the transient dip matters, loose enough to be plannable.
fn instance() -> (Topology, TrafficMatrix, Migration) {
    let mut rng = StdRng::seed_from_u64(77);
    let topo = Topology::random_regular(16, 6, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let moves = cross_churn(&topo, 3, 77).unwrap();
    let mig = Migration::new(&topo, &moves).unwrap();
    (topo, tm, mig)
}

fn spec() -> PlanSpec {
    PlanSpec {
        seed: 77,
        floor_frac: 0.5,
        ..PlanSpec::default()
    }
}

fn plan_instance() -> MigrationPlan {
    let (topo, tm, mig) = instance();
    plan_migration(&topo, &tm, &mig, &spec()).unwrap()
}

/// Every DAG stage honors the floor on an *independently recomposed*
/// view: applied = all earlier stages, in flight = the whole stage at
/// once. A fresh engine re-certifies each stage's λ with the question
/// the planner asked — is λ ≥ floor? — and must reproduce the plan's
/// certificate bit for bit; a full solve of the same view certifies at
/// least that much. So the plan's numbers are backed by the solver, not
/// trusted from the planner.
#[test]
fn every_stage_certifies_above_the_floor_on_fresh_views() {
    let (topo, tm, mig) = instance();
    let plan = plan_migration(&topo, &tm, &mig, &spec()).unwrap();
    assert!(!plan.stages.is_empty());
    assert!(plan.achieved_floor >= plan.floor);

    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::fast();
    let mut applied = vec![false; mig.move_count()];
    let mut min_fresh = f64::INFINITY;
    for stage in &plan.stages {
        // the transient view with the whole stage mid-execution
        let view = mig.state_view(&applied, &stage.moves).unwrap();
        let fresh = (engine.certify_floor(&view, &tm, &opts, plan.floor))
            .unwrap()
            .network_lambda;
        assert_eq!(
            fresh.to_bits(),
            stage.lambda.to_bits(),
            "stage {:?}: fresh λ {fresh} != planned λ {}",
            stage.moves,
            stage.lambda
        );
        let full = engine.solve_on(&view, &tm, &opts).unwrap().network_lambda;
        assert!(
            full >= stage.lambda && stage.lambda >= plan.floor,
            "stage {:?}: full λ {full} ≥ planned λ {} ≥ floor {} fails",
            stage.moves,
            stage.lambda,
            plan.floor
        );
        min_fresh = min_fresh.min(fresh);
        for &m in &stage.moves {
            applied[m] = true;
        }
    }
    // all moves executed, achieved floor is the min over the stages
    assert!(applied.iter().all(|&a| a));
    assert!((min_fresh - plan.achieved_floor).abs() <= 1e-9 * plan.achieved_floor.max(1.0));

    // the sequential step certificates honor the floor too
    assert_eq!(plan.step_lambda.len(), plan.order.len());
    for (&m, &l) in plan.order.iter().zip(&plan.step_lambda) {
        assert!(l >= plan.floor, "step (move {m}) certified λ {l} < floor");
    }
    // the order is a permutation of the migration's moves
    let mut sorted = plan.order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..mig.move_count()).collect::<Vec<_>>());
}

/// The floor stop decides what the full solve decides. On seeded views
/// of the determinism instances — the prefix of a seeded order that
/// respects the structural constraints, with the next move in flight;
/// views that disconnect a commodity certify nothing and are skipped —
/// for every backend the planner can run
/// and floors at, one ulp above and one ulp below each view's full-solve
/// λ and upper bound: the floor-certified λ clears the floor exactly
/// when the full solve's does, never exceeds it, and takes no more
/// phases. The floors at the bound exercise the dual-side stop.
#[test]
fn the_floor_stop_decides_what_the_full_solve_decides() {
    let two_cluster_instance = {
        let mut rng = StdRng::seed_from_u64(20140402);
        let topo = two_cluster(
            ClusterSpec {
                count: 8,
                ports: 12,
                servers_per_switch: 4,
            },
            ClusterSpec {
                count: 8,
                ports: 8,
                servers_per_switch: 2,
            },
            CrossSpec::Exact(4),
            &mut rng,
        )
        .unwrap();
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let mig = Migration::new(&topo, &cross_churn(&topo, 2, 17).unwrap()).unwrap();
        (topo, tm, mig)
    };
    let backends = [
        FlowOptions::fast(),
        FlowOptions::fast().with_strict_reference(true),
        FlowOptions::fast().with_backend(Backend::KspRestricted { k: 4 }),
    ];
    let (mut checked, mut cut_short, mut dual_stops) = (0, 0, 0);
    for (topo, tm, mig) in [instance(), two_cluster_instance] {
        let engine = ThroughputEngine::new(&topo);
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..6 {
            let ready = |applied: &[bool]| -> Vec<usize> {
                (0..mig.move_count())
                    .filter(|&i| !applied[i] && mig.preds(i).iter().all(|&p| applied[p]))
                    .collect()
            };
            let mut applied = vec![false; mig.move_count()];
            for _ in 0..rng.random_range(0..mig.move_count()) {
                let next = ready(&applied);
                applied[next[rng.random_range(0..next.len())]] = true;
            }
            let inflight = vec![ready(&applied)[0]];
            let view = mig.state_view(&applied, &inflight).unwrap();
            for opts in &backends {
                let Ok(full) = engine.solve_on(&view, &tm, opts) else {
                    continue;
                };
                let phases = |r: &ThroughputResult| r.solved.as_ref().unwrap().phases;
                let (lambda, upper) = (full.network_lambda, full.network_upper_bound);
                for floor in [lambda, upper]
                    .into_iter()
                    .flat_map(|x| [x, x.next_up(), x.next_down()])
                {
                    let at = engine.certify_floor(&view, &tm, opts, floor).unwrap();
                    let what = format!(
                        "{:?} on {applied:?} + {inflight:?}, floor {floor} (full λ {lambda}, bound {upper})",
                        opts.backend
                    );
                    assert_eq!(at.network_lambda >= floor, lambda >= floor, "{what}");
                    assert!(
                        at.network_lambda <= lambda,
                        "{what}: λ {}",
                        at.network_lambda
                    );
                    assert!(phases(&at) <= phases(&full), "{what}");
                    checked += 1;
                    cut_short += usize::from(phases(&at) < phases(&full));
                    dual_stops +=
                        usize::from(at.network_lambda < floor && phases(&at) < phases(&full));
                }
            }
        }
    }
    eprintln!("{cut_short} cut short, {dual_stops} on the dual, of {checked}");
    assert!(
        cut_short > 0 && dual_stops > 0,
        "{cut_short} cut short, {dual_stops} on the dual, of {checked}"
    );
}

/// The pruned planner honors the spec floor with a complete ordering,
/// every step above it, and pays only the solves it counts: the two
/// endpoints, every ordering attempt and every stage-packing attempt
/// asked for a certificate, and the ones that met an already certified
/// view (an in-flight addition is the state before it) are in
/// `views_reused` instead. How many solves the screens save on an
/// 80-move migration is dcbench's `plan.certified_solves`.
#[test]
fn pruned_plan_honors_the_floor_and_accounts_every_solve() {
    let (topo, tm, mig) = instance();
    let plan = plan_migration(&topo, &tm, &mig, &spec()).unwrap();
    assert!(plan.achieved_floor >= plan.floor);
    assert!(plan.step_lambda.iter().all(|&l| l >= plan.floor));
    let mut sorted = plan.order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..mig.move_count()).collect::<Vec<_>>());
    // 9 real solves when this was written (11 before a view certified
    // once was answered from that certificate)
    let p = &plan.stats;
    assert_eq!(
        p.certified_solves + p.views_reused,
        2 + p.attempts + p.stage_solves,
        "{p:?}"
    );
    assert!(p.views_reused > 0, "{p:?}");
}

fn fingerprint_at(threads: usize) -> u64 {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| plan_instance().fingerprint())
}

/// The plan (order, stages, every certified λ down to the bit) is a
/// function of the spec — identical at 1, 2, and 8 worker threads and
/// across reruns at the same thread count.
#[test]
fn plan_bit_identical_across_threads_and_reruns() {
    let base = fingerprint_at(1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            fingerprint_at(threads),
            base,
            "plan fingerprint diverged at {threads} threads"
        );
    }
    // rerun in the same (default) pool: no hidden state between runs
    assert_eq!(plan_instance().fingerprint(), plan_instance().fingerprint());
}

/// An unreachable floor fails *typed*: `NoSafeOrdering` carries the
/// best floor the search reached, the learned conflicts, and a complete
/// degraded ordering whose violating steps are called out.
#[test]
fn unreachable_floor_degrades_with_violations() {
    let (topo, tm, mig) = instance();
    let spec = PlanSpec {
        seed: 77,
        floor: Some(f64::MAX),
        ..PlanSpec::default()
    };
    match plan_migration(&topo, &tm, &mig, &spec) {
        Err(PlanError::NoSafeOrdering {
            best_floor,
            degraded,
            ..
        }) => {
            assert!(best_floor.is_finite());
            assert_eq!(degraded.order.len(), mig.move_count());
            assert_eq!(degraded.step_lambda.len(), mig.move_count());
            // no finite λ clears an infinite floor: every step violates
            assert_eq!(degraded.violations.len(), mig.move_count());
            let mut sorted = degraded.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..mig.move_count()).collect::<Vec<_>>());
        }
        other => panic!("expected NoSafeOrdering, got {other:?}"),
    }
}

/// A search result's exported resolved moves round-trip into a
/// migration the planner can order: the search's accepted trajectory is
/// itself a safe-orderable reconfiguration.
#[test]
fn search_export_round_trips_through_the_planner() {
    let mut rng = StdRng::seed_from_u64(20140402);
    let topo = two_cluster(
        ClusterSpec {
            count: 8,
            ports: 12,
            servers_per_switch: 4,
        },
        ClusterSpec {
            count: 8,
            ports: 8,
            servers_per_switch: 2,
        },
        CrossSpec::Exact(4),
        &mut rng,
    )
    .unwrap();
    let tm = {
        let mut rng = StdRng::seed_from_u64(3);
        TrafficMatrix::random_permutation(topo.server_count(), &mut rng)
    };
    let mut spec = SearchSpec::structural(17, 4, 8).with_opts(FlowOptions::fast());
    spec.capacity = Some(CapacityBudget::default());
    let result = SearchRunner::new(&topo, &tm, spec).unwrap().run().unwrap();
    assert!(!result.accepted.is_empty());

    let moves = result.export_moves(&topo).unwrap();
    assert_eq!(moves.len(), result.accepted.len());
    let mig = Migration::new(&topo, &moves).unwrap();
    mig.final_view().unwrap();

    // a permissive floor must order the search's own trajectory
    let plan_spec = PlanSpec {
        seed: 17,
        floor_frac: 0.1,
        ..PlanSpec::default()
    };
    let plan = plan_migration(&topo, &tm, &mig, &plan_spec).unwrap();
    assert_eq!(plan.order.len(), moves.len());
    let mut sorted = plan.order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..moves.len()).collect::<Vec<_>>());
}
