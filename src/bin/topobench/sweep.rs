//! `topobench sweep`: the full `{family × traffic × degradation ×
//! backend}` grid through the scenario sweep engine.

use dctopo::core::{Degradation, Scenario, SweepRunner, SweepSpec};
use dctopo::prelude::*;

use crate::args::{Args, CliError, CliResult, OrFail};
use crate::instance::solver_options;

/// The degradation axis: link-failure levels × switch-failure levels ×
/// capacity scales, named so cells stay self-describing.
fn scenarios(args: &Args, seed: u64) -> CliResult<Vec<Scenario>> {
    let failures: Vec<usize> = args.list("failures", "0,2,4")?;
    let switch_failures: Vec<usize> = args.list("switch-failures", "0")?;
    let scales: Vec<f64> = args.list("scales", "1.0")?;
    let mut scenarios = Vec::new();
    for &links in &failures {
        for &switches in &switch_failures {
            for &factor in &scales {
                let mut degradations = Vec::new();
                let mut name_parts = Vec::new();
                if links > 0 {
                    degradations.push(Degradation::FailLinks { count: links, seed });
                    name_parts.push(format!("fail:{links}"));
                }
                if switches > 0 {
                    degradations.push(Degradation::FailSwitches {
                        count: switches,
                        seed,
                    });
                    name_parts.push(format!("sw-fail:{switches}"));
                }
                if factor != 1.0 {
                    degradations.push(Degradation::ScaleCapacity { factor });
                    name_parts.push(format!("scale:{factor}"));
                }
                let name = if name_parts.is_empty() {
                    "baseline".to_string()
                } else {
                    name_parts.join("+")
                };
                scenarios.push(Scenario::new(name, degradations));
            }
        }
    }
    Ok(scenarios)
}

pub fn run(args: &Args) -> CliResult {
    let seed: u64 = args.get("seed")?.unwrap_or(1);
    let runs: usize = args.get("runs")?.unwrap_or(1);
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let spec = SweepSpec {
        topologies: args.list("families", "rrg:16x8x4,rrg:32x10x6,rrg:48x12x8")?,
        traffic: args.list("traffic", "permutation,all-to-all,chunky:50")?,
        scenarios: scenarios(args, seed)?,
        backends: args.list("backends", "fptas")?,
        opts: solver_options(args, FlowOptions::fast())?,
        seed,
        runs,
    };
    let [t, r, s, m, b] = [
        spec.topologies.len(),
        runs,
        spec.scenarios.len(),
        spec.traffic.len(),
        spec.backends.len(),
    ];
    eprintln!(
        "# sweeping {t} topologies x {r} runs x {s} scenarios x {m} traffic \
         models x {b} backends = {} cells",
        t * r * s * m * b
    );
    let grid = SweepRunner::new(spec).run();
    println!(
        "{:<14} {:>3} {:<18} {:<12} {:<12} {:>10} {:>10} {:>9} {:>9}",
        "topology",
        "run",
        "scenario",
        "traffic",
        "backend",
        "throughput",
        "hop-bound",
        "gap",
        "flows"
    );
    for cell in &grid.cells {
        match &cell.result {
            Ok(mtr) => println!(
                "{:<14} {:>3} {:<18} {:<12} {:<12} {:>10.4} {:>10} {:>8.2}% {:>9}",
                cell.topology,
                cell.run,
                cell.scenario,
                cell.traffic,
                cell.backend,
                mtr.throughput,
                if mtr.hop_bound.is_finite() {
                    format!("{:.4}", mtr.hop_bound)
                } else {
                    "-".into()
                },
                mtr.gap * 100.0,
                cell.flows
            ),
            Err(e) => println!(
                "{:<14} {:>3} {:<18} {:<12} {:<12} FAILED: {e}",
                cell.topology, cell.run, cell.scenario, cell.traffic, cell.backend
            ),
        }
    }
    eprintln!("# {}/{} cells ok", grid.ok_count(), grid.cells.len());
    let cache = grid.cache_stats();
    eprintln!(
        "# path cache: {} hits / {} misses across all block engines",
        cache.hits, cache.misses
    );
    if let Some(path) = args.text("json") {
        std::fs::write(path, grid.to_json()).or_fail(format_args!("failed to write {path}"))?;
        eprintln!("# wrote {} cell records to {path}", grid.cells.len());
    }
    if args.switch("strict") {
        if let Some(summary) = grid.error_summary() {
            return Err(CliError::Fail(format!("sweep --strict: {summary}")));
        }
        eprintln!("# sweep --strict: all {} cells ok", grid.cells.len());
    }
    Ok(())
}
