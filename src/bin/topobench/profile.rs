//! `topobench profile`: one solve under the in-memory telemetry
//! recorder, printed as a per-phase wall/work breakdown.

use dctopo::core::ThroughputEngine;
use dctopo::obs::{self as obs, Json};
use dctopo::prelude::*;

use crate::args::{Args, CliError, CliResult, OrFail};
use crate::instance::{FamilyArg, Setup};

/// A deterministic field of a parsed trace event, as f64 (0.0 when
/// absent).
fn ev_f64(ev: &Json, key: &str) -> f64 {
    ev.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(args: &Args) -> CliResult {
    let mut setup = Setup::parse(args, FamilyArg::Flags, FlowOptions::default())?;
    let opts = &mut setup.opts;
    if let Some(p) = args.get::<usize>("phases")? {
        if p == 0 {
            return Err(CliError::Usage("--phases must be positive".into()));
        }
        opts.max_phases = p;
        // a deliberate phase cap is a wall budget, not a convergence
        // question: don't let the stall heuristic cut the run short
        opts.stall_phases = opts.stall_phases.max(p);
    }
    if let Some(e) = args.get::<f64>("eps")? {
        if !(e > 0.0 && e < 1.0) {
            return Err(CliError::Usage("--eps must be in (0, 1)".into()));
        }
        opts.epsilon = e;
    }
    let inst = setup.build(setup.seed)?;
    let topo = &inst.topo;
    let engine = ThroughputEngine::new(topo);
    eprintln!(
        "# profiling {}: {} switches / {} links / {} servers; traffic {}: {}",
        setup.label,
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        setup.traffic_label,
        inst.traffic.flows()
    );

    // the profile recorder is always the in-memory sink (replacing a
    // --trace file sink installed by main: nothing was emitted yet);
    // --trace makes the drained events land on disk afterwards too
    obs::enable_memory();
    let certified = inst
        .solve(&engine, &setup.opts)
        .or_fail("profile solve failed")?;
    engine.emit_cache_trace();
    let lines = obs::drain_memory();
    obs::disable();
    if let Some(path) = args.text("trace") {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).or_fail(format_args!("cannot write trace to {path}"))?;
        eprintln!("# wrote {} trace events to {path}", lines.len());
    }

    println!("{certified}");

    let events: Vec<Json> = lines.iter().filter_map(|l| Json::parse(l).ok()).collect();
    // wall/count breakdown keyed by event kind, first-appearance order
    let mut kinds: Vec<(&str, u64, f64)> = Vec::new();
    for ev in &events {
        let kind = ev.get("ev").and_then(Json::as_str).unwrap_or("?");
        let wall_ms = ev.get("nd").map_or(0.0, |nd| ev_f64(nd, "wall_us")) / 1000.0;
        match kinds.iter_mut().find(|(k, _, _)| *k == kind) {
            Some(e) => {
                e.1 += 1;
                e.2 += wall_ms;
            }
            None => kinds.push((kind, 1, wall_ms)),
        }
    }
    println!("{:<16} {:>8} {:>12}", "event", "count", "wall_ms");
    for (kind, count, wall_ms) in &kinds {
        println!("{kind:<16} {count:>8} {wall_ms:>12.1}");
    }

    // the end-of-solve summary event carries the work profile
    let summary = events.iter().rev().find(|e| {
        matches!(
            e.get("ev").and_then(Json::as_str),
            Some("fptas_solve" | "grouped_solve")
        )
    });
    if let Some(s) = summary {
        println!(
            "solve: {} phases, {} settles, {} groups, λ {:.4} ≤ {:.4}",
            ev_f64(s, "phases"),
            ev_f64(s, "settles"),
            ev_f64(s, "groups"),
            ev_f64(s, "lambda"),
            ev_f64(s, "upper_bound")
        );
        if s.get("aug_exact").is_some() {
            println!(
                "reuse ladder: {} exact + {} drift augmentations, {} repairs, \
                 {} rescale rebuilds",
                ev_f64(s, "aug_exact"),
                ev_f64(s, "aug_drift"),
                ev_f64(s, "repairs"),
                ev_f64(s, "rescale_rebuilds")
            );
            println!(
                "dual: final bound from the {} lengths, {} passes at the mean",
                s.get("dual_from").and_then(Json::as_str).unwrap_or("?"),
                ev_f64(s, "mean_dual_passes")
            );
            // the weight the last phase's flow entered the √phase
            // average at; the phase² average took it at phases²
            let weight = (events.iter().rev())
                .find(|e| e.get("ev").and_then(Json::as_str) == Some("fptas_phase"))
                .map_or(0.0, |e| ev_f64(e, "weight"));
            println!(
                "primal: the {} average of phase {} of {}, last phase at weight {:.3}",
                s.get("primal_from").and_then(Json::as_str).unwrap_or("?"),
                ev_f64(s, "best_phase"),
                ev_f64(s, "phases"),
                weight
            );
        }
    }
    let cache = engine.cache_stats();
    println!("path cache: {} hits / {} misses", cache.hits, cache.misses);
    Ok(())
}
