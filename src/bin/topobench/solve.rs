//! `topobench solve`: certified throughput of seeded instances, plus
//! the §6.1 decomposition of the first run.

use dctopo::core::ThroughputEngine;
use dctopo::prelude::*;

use crate::args::{Args, CliError, CliResult, OrFail};
use crate::instance::{FamilyArg, Setup};

pub fn run(args: &Args) -> CliResult {
    let runs: usize = args.get("runs")?.unwrap_or(3);
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let setup = Setup::parse(args, FamilyArg::Flags, FlowOptions::default())?;
    let mut throughputs = Vec::new();
    for run in 0..runs {
        let inst = setup.build(setup.seed.wrapping_add(run as u64))?;
        let topo = &inst.topo;
        // one CSR flattening per topology, shared by whichever backend
        // `opts.backend` selects
        let engine = ThroughputEngine::new(topo);
        let certified = inst
            .solve(&engine, &setup.opts)
            .or_fail(format_args!("run {run}: solve failed"))?;
        if run == 0 {
            println!(
                "topology: {} switches / {} links / {} servers; traffic: {}",
                topo.switch_count(),
                topo.graph.edge_count(),
                topo.server_count(),
                inst.traffic.flows()
            );
            let decomposition = certified
                .pairwise
                .as_ref()
                .and_then(|res| res.decomposition(engine.net()));
            if let Some(d) = decomposition {
                println!(
                    "decomposition: U = {:.3}, <D> = {:.3}, stretch = {:.3}",
                    d.utilization, d.aspl, d.stretch
                );
            }
        }
        println!("run {run}: {certified}");
        throughputs.push(certified.throughput);
    }
    let mean = throughputs.iter().sum::<f64>() / throughputs.len() as f64;
    println!("mean throughput over {runs} runs: {mean:.4}");
    Ok(())
}
