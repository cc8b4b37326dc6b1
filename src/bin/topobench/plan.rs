//! `topobench plan`: the certified-safe reconfiguration planner over a
//! churn migration, printed as a parallel execution DAG.

use std::fmt::Write;

use dctopo::plan::{cross_churn, maintenance_churn, PlanError};
use dctopo::prelude::*;

use crate::args::{Args, CliError, CliResult, OrFail};
use crate::instance::{FamilyArg, Setup};

pub fn run(args: &Args) -> CliResult {
    let defaults = PlanSpec::default();
    let setup = Setup::parse(args, FamilyArg::Spec("rrg:16x6x4"), defaults.opts)?;
    let seed = setup.seed;
    let (topo, tm) = setup.build(seed)?.pairs()?;

    let pairs: usize = args.get("pairs")?.unwrap_or(3);
    let moves = if args.switch("maintenance") {
        // restore-to-original churn (last 2 pairs shifted): λ_B ≈ λ_A
        // at any depth, so the floor sits inside the transient dip band
        maintenance_churn(&topo, pairs, 2.min(pairs), seed)
    } else {
        cross_churn(&topo, pairs, seed)
    }
    .or_fail("failed to generate churn migration")?;
    let migration = Migration::new(&topo, &moves).or_fail("invalid migration")?;

    let spec = PlanSpec {
        seed,
        floor_frac: args.get("floor-frac")?.unwrap_or(defaults.floor_frac),
        floor: args.get("floor")?,
        cut_probes: args.get("probes")?.unwrap_or(defaults.cut_probes),
        max_solves: args.get("max-solves")?.unwrap_or(defaults.max_solves),
        opts: setup.opts,
    };

    eprintln!(
        "# planning {} ({} switches, {} links), {} traffic, \
         {} moves ({pairs} churn pairs)",
        setup.label,
        topo.switch_count(),
        topo.graph.edge_count(),
        setup.traffic_label,
        migration.move_count(),
    );
    let plan = match plan_migration(&topo, &tm, &migration, &spec) {
        Ok(plan) => plan,
        Err(PlanError::NoSafeOrdering {
            best_floor,
            witness_prefix,
            learned_conflicts,
            degraded,
        }) => {
            let mut msg = format!(
                "no safe ordering: floor {:.4} unreachable (best {best_floor:.4}, \
                 witness depth {}, {} learned conflicts)\n\
                 degraded best-floor ordering ({} of {} steps violate the floor):",
                degraded.floor,
                witness_prefix.len(),
                learned_conflicts.len(),
                degraded.violations.len(),
                degraded.order.len()
            );
            for (pos, (&m, &lambda)) in degraded
                .order
                .iter()
                .zip(degraded.step_lambda.iter())
                .enumerate()
            {
                let mark = if degraded.violations.contains(&pos) {
                    " VIOLATES"
                } else {
                    ""
                };
                let _ = write!(
                    msg,
                    "\n  step {:>2}: λ {:.4}{mark}  move {:>2}: {}",
                    pos,
                    lambda,
                    m,
                    migration.moves()[m].describe()
                );
            }
            return Err(CliError::Fail(msg));
        }
        Err(e) => return Err(CliError::Fail(format!("planning failed: {e}"))),
    };
    println!(
        "endpoints: λ_A {:.4}, λ_B {:.4}; safety floor {:.4}",
        plan.lambda_a, plan.lambda_b, plan.floor
    );
    for (i, stage) in plan.stages.iter().enumerate() {
        println!(
            "stage {:>2}: λ {:.4} with {} move(s) in flight",
            i,
            stage.lambda,
            stage.moves.len()
        );
        for &m in &stage.moves {
            println!(
                "          move {:>2}: {}",
                m,
                migration.moves()[m].describe()
            );
        }
    }
    println!(
        "plan: {} moves in {} stages (max {} concurrent), achieved floor {:.4} ≥ {:.4}",
        plan.order.len(),
        plan.stages.len(),
        plan.parallelism(),
        plan.achieved_floor,
        plan.floor
    );
    let s = &plan.stats;
    println!(
        "work: {} certified solves ({} ordering attempts + {} stage-packing, \
         {} on an already certified view) and {} settles, \
         {} hop-pruned + {} cut-pruned + {} memo hits, {} backtracks, \
         {} conflicts learned",
        s.certified_solves,
        s.attempts,
        s.stage_solves,
        s.views_reused,
        s.settles,
        s.hop_rejected,
        s.cut_rejected,
        s.memo_hits,
        s.backtracks,
        s.conflicts_learned
    );
    println!("fingerprint: {:#018x}", plan.fingerprint());
    Ok(())
}
