//! The sweep engine's acceptance pins: a grid of 3 topology families ×
//! 3 traffic models × 3 failure levels (× 2 backends) evaluated in ONE
//! `SweepRunner` invocation is
//!
//! * **bit-identical at 1, 2, and 8 rayon threads** — cell results are
//!   functions of the spec, never of scheduling. The grid runs twice:
//!   with level 0 spelled as the undegraded recipe, whose FPTAS
//!   certificates open the degraded rows' FPTAS cells, and spelled as a
//!   zero-link failure, a recipe that is not empty, so every cell
//!   solves cold;
//! * **bound-dominated** — every cell's network λ sits below its own
//!   certified dual and the per-cell Theorem-1 hop bound;
//! * **monotone** — along the nested failure axis, no deeper failure
//!   level's feasible throughput clears a shallower level's certified
//!   dual (the metamorphic law, checked per
//!   `(topology, traffic, backend)` lane).

use dctopo::core::{
    BackendChoice, Degradation, Scenario, SweepReport, SweepRunner, SweepSpec, TopologyPoint,
    TrafficModel,
};
use dctopo::prelude::*;
use dctopo::topology::classic::{complete, fat_tree};
use rayon::ThreadPoolBuilder;

fn failure_level(count: usize) -> Scenario {
    Scenario::new(
        format!("fail:{count}"),
        vec![Degradation::FailLinks {
            count,
            // a selection seed whose failures keep every family
            // connected at level 3 (level-by-level disconnection is a
            // *legitimate* outcome — tests/failure_injection.rs covers
            // it — but this grid pins the fully-solvable regime)
            seed: 1,
        }],
    )
}

/// The acceptance grid, its failure level 0 spelled `level_zero`.
fn spec(level_zero: &Scenario) -> SweepSpec {
    SweepSpec {
        topologies: vec![
            TopologyPoint::rrg(12, 6, 4),
            TopologyPoint::new("fat-tree-4", |_| fat_tree(4)),
            TopologyPoint::new("complete-8x2", |_| complete(8, 2)),
        ],
        traffic: vec![
            TrafficModel::Permutation,
            TrafficModel::Chunky { percent: 50.0 },
            TrafficModel::Hotspot { hot: 4 },
        ],
        scenarios: vec![level_zero.clone(), failure_level(1), failure_level(3)],
        backends: vec![BackendChoice::fptas(), BackendChoice::ksp(3)],
        opts: FlowOptions::fast(),
        seed: 20140402,
        runs: 1,
    }
}

fn run_at(threads: usize, level_zero: &Scenario) -> SweepReport {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| SweepRunner::new(spec(level_zero)).run())
}

#[test]
fn sweep_grid_bit_identical_across_threads_with_invariants() {
    check_grid(&failure_level(0));
}

#[test]
fn a_grid_with_an_undegraded_level_is_bit_identical_across_threads() {
    check_grid(&Scenario::baseline());
}

fn check_grid(level_zero: &Scenario) {
    let base = run_at(1, level_zero);
    assert_eq!(base.dims(), [3, 1, 3, 3, 2]);
    assert_eq!(base.cells.len(), 54);
    assert_eq!(
        base.ok_count(),
        base.cells.len(),
        "every cell of the acceptance grid must solve"
    );

    // ---- invariants on every cell ----
    for cell in &base.cells {
        let m = cell.metrics().unwrap();
        assert!(m.throughput > 0.0, "{cell:?}");
        if m.network_lambda.is_finite() {
            assert!(
                m.network_lambda <= m.upper_bound * (1.0 + 1e-9),
                "{}/{}/{}: primal above certified dual",
                cell.topology,
                cell.scenario,
                cell.backend
            );
            assert!(
                m.network_lambda <= m.hop_bound * (1.0 + 1e-9),
                "{}/{}/{}: λ {} above hop bound {}",
                cell.topology,
                cell.scenario,
                cell.backend,
                m.network_lambda,
                m.hop_bound
            );
        }
        assert!(m.throughput <= m.nic_limit + 1e-12);
    }

    // ---- monotonicity along the nested failure axis ----
    // (FPTAS lane: the unrestricted optimum is monotone; the KSP lane's
    // restricted optimum is not a theorem, so only the FPTAS backend
    // (index 0) is held to it)
    for t in 0..3 {
        for m in 0..3 {
            let mut prev_dual = f64::INFINITY;
            for s in 0..3 {
                let cell = base.cell(t, 0, s, m, 0);
                let metrics = cell.metrics().unwrap();
                if !metrics.network_lambda.is_finite() {
                    continue;
                }
                assert!(
                    metrics.network_lambda <= prev_dual * (1.0 + 1e-9),
                    "{}/{}/{}: throughput rose as links failed",
                    cell.topology,
                    cell.traffic,
                    cell.scenario
                );
                prev_dual = metrics.upper_bound;
            }
        }
    }

    // ---- bit-identity across thread counts ----
    for threads in [2usize, 8] {
        let other = run_at(threads, level_zero);
        assert_eq!(other.cells.len(), base.cells.len());
        for (a, b) in base.cells.iter().zip(&other.cells) {
            assert_eq!(a.topology, b.topology);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.traffic, b.traffic);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.flows, b.flows, "{threads} threads: traffic diverged");
            let (ma, mb) = (a.metrics().unwrap(), b.metrics().unwrap());
            assert_eq!(
                ma.throughput.to_bits(),
                mb.throughput.to_bits(),
                "{threads} threads: {}/{}/{}/{} diverged",
                a.topology,
                a.scenario,
                a.traffic,
                a.backend
            );
            assert_eq!(ma.network_lambda.to_bits(), mb.network_lambda.to_bits());
            assert_eq!(ma.upper_bound.to_bits(), mb.upper_bound.to_bits());
            assert_eq!(ma.hop_bound.to_bits(), mb.hop_bound.to_bits());
            assert_eq!(ma.gap.to_bits(), mb.gap.to_bits());
            assert_eq!(ma.settles, mb.settles);
        }
    }
}
