//! `topobench search`: the multi-fidelity topology search engine
//! (structural rewires and/or line-speed budget reallocation).

use dctopo::prelude::*;
use dctopo::search::MoveKind;

use crate::args::{Args, CliError, CliResult, OrFail};
use crate::instance::{FamilyArg, Setup};

pub fn run(args: &Args) -> CliResult {
    let setup = Setup::parse(args, FamilyArg::Spec("rrg:32x10x6"), FlowOptions::fast())?;
    let rounds: usize = args.get("rounds")?.unwrap_or(4);
    let batch: usize = args.get("batch")?.unwrap_or(12);
    if rounds == 0 || batch == 0 {
        let flag = if rounds == 0 { "rounds" } else { "batch" };
        return Err(CliError::Usage(format!("--{flag} must be positive")));
    }
    let (topo, tm) = setup.build(setup.seed)?.pairs()?;

    let mode = args.text("mode").unwrap_or("structural");
    let budget = CapacityBudget {
        min_mult: args.get("min-mult")?.unwrap_or(0.5),
        max_mult: args.get("max-mult")?.unwrap_or(2.0),
        step: args.get("cap-step")?.unwrap_or(0.25),
    };
    let mut spec = SearchSpec::structural(setup.seed, rounds, batch);
    match mode {
        "structural" => {}
        "capacity" => {
            spec.structural = false;
            spec.capacity = Some(budget);
        }
        "both" => spec.capacity = Some(budget),
        other => {
            return Err(CliError::Usage(format!(
                "unknown mode '{other}' (want structural, capacity, or both)"
            )))
        }
    }
    spec.opts = setup.opts;
    if let Some(t) = args.get::<f64>("temperature")? {
        spec.temperature = t;
        spec.cooling = args.get("cooling")?.unwrap_or(0.9);
    }

    let runner = SearchRunner::new(&topo, &tm, spec).or_fail("search setup failed")?;
    eprintln!(
        "# searching {} ({} switches, {} links, {} servers), \
         {} traffic, mode {mode}, {} rounds x {} moves",
        setup.label,
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        setup.traffic_label,
        runner.spec().rounds,
        runner.spec().batch,
    );
    let result = runner.run().or_fail("search failed")?;
    println!(
        "initial: λ {:.4} (≤ {:.4} certified, hop bound {:.4}, cut bound {})",
        result.initial.lambda,
        result.initial.upper,
        result.initial.hop_bound,
        if result.initial.cut_bound.is_finite() {
            format!("{:.4}", result.initial.cut_bound)
        } else {
            "-".into()
        }
    );
    for mv in &result.accepted {
        println!(
            "round {:>3}: accepted {:<28} λ {:.4} -> {:.4}",
            mv.round,
            mv.kind.describe(),
            mv.lambda_before,
            mv.certificate.lambda
        );
    }
    println!(
        "final:   λ {:.4} (≤ {:.4} certified), improvement {:+.2}%, throughput {:.4}",
        result.best.lambda,
        result.best.upper,
        result.improvement() * 100.0,
        result.throughput()
    );
    println!(
        "ladder:  {} moves evaluated = {} certified + {} hop-pruned + \
         {} cut-pruned + {} invalid ({} settles total)",
        result.evaluated(),
        result.certified_solves.saturating_sub(1),
        result.pruned_hop(),
        result.pruned_cut(),
        result.invalid(),
        result.total_settles,
    );
    if result
        .accepted
        .iter()
        .any(|m| matches!(m.kind, MoveKind::ShiftCapacity { .. }))
    {
        let names: Vec<String> = (0..result.plan.group_count())
            .map(|g| {
                format!(
                    "{} x{:.3}",
                    result.plan.group_name(g, &result.topology),
                    result.plan.multiplier(g)
                )
            })
            .collect();
        println!("line-speed plan: {}", names.join(", "));
    }
    Ok(())
}
