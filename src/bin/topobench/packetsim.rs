//! `topobench packetsim`: witness a certified throughput claim as
//! actual packets on the same network it was solved on.

use dctopo::core::ThroughputEngine;
use dctopo::packetsim::TransportMode;
use dctopo::prelude::*;

use crate::args::{Args, CliError, CliResult, OrFail};
use crate::instance::{FamilyArg, Setup};

pub fn run(args: &Args) -> CliResult {
    let setup = Setup::parse(args, FamilyArg::Flags, FlowOptions::default())?;
    let defaults = PacketParams::default();
    let params = PacketParams {
        routing: args.get("routing")?.unwrap_or(RoutingMode::Decomposed),
        utilization: args.get("utilization")?.unwrap_or(0.9),
        mode: if args.switch("window") {
            TransportMode::Window
        } else {
            defaults.mode
        },
        duration: args.get("duration")?.unwrap_or(defaults.duration),
        warmup: args.get("warmup")?.unwrap_or(defaults.warmup),
        queue: args.get("queue")?.unwrap_or(defaults.queue),
        rto: args.get("rto")?.unwrap_or(defaults.rto),
        initial_cwnd: args.get("cwnd")?.unwrap_or(defaults.initial_cwnd),
        ..defaults
    };
    let fail_links: usize = args.get("failures")?.unwrap_or(0);
    let (topo, tm) = setup.build(setup.seed)?.pairs()?;
    let engine = ThroughputEngine::new(&topo);
    let cv = if fail_links > 0 {
        let sc = Scenario::new(
            format!("fail-{fail_links}"),
            vec![Degradation::FailLinks {
                count: fail_links,
                seed: setup.seed,
            }],
        );
        let applied = sc
            .apply(&topo, engine.net())
            .or_fail("scenario failed to apply")?;
        engine.covalidate_scenario(&applied, &tm, &setup.opts, &params)
    } else {
        engine.covalidate(&tm, &setup.opts, &params)
    }
    .or_fail("co-validation failed")?;
    println!(
        "topology: {} switches / {} links / {} servers; traffic: {} flows; {} failed links",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        tm.flow_count(),
        fail_links
    );
    println!(
        "certified: network λ {:.4} ≤ {:.4} upper bound",
        cv.lambda, cv.upper_bound
    );
    println!(
        "packet level: {} commodities at η = {:.2}; goodput/offer mean {:.4}, min {:.4}",
        cv.commodity_offered.len(),
        params.utilization,
        cv.mean_ratio(),
        cv.min_ratio()
    );
    println!(
        "sim: {} events, {} delivered, {} drops, {} retransmits, trace {:#018x}",
        cv.result.events,
        cv.result.delivered,
        cv.result.drops,
        cv.result.retransmits,
        cv.result.trace_hash
    );
    // the co-validation verdict: four packets of slack per measurement
    // window covers goodput's packet granularity plus warmup-boundary
    // backlog drain (see CoValidation::upholds_law). Closed-loop AIMD
    // legitimately exceeds the scaled offer, so window mode checks the
    // demand-normalized goodput against the certified upper bound.
    if args.switch("window") {
        let witnessed = cv.normalized_min_goodput();
        let slack = 4.0 / cv.measure_window;
        println!("packet-level witnessed λ: {witnessed:.4}");
        if witnessed > cv.upper_bound + slack {
            return Err(CliError::Fail(format!(
                "CO-VALIDATION VIOLATION: witnessed λ {witnessed:.4} exceeds the \
                 certified upper bound {:.4}",
                cv.upper_bound
            )));
        }
        println!("co-validation law upheld: witnessed λ within the certified upper bound");
    } else if cv.upholds_law(4.0) {
        println!("co-validation law upheld: goodput within the certified offer");
    } else {
        return Err(CliError::Fail(
            "CO-VALIDATION VIOLATION: goodput exceeds the certified offer".into(),
        ));
    }
    Ok(())
}
