//! `topobench serve`: the long-running what-if query server — batched
//! line-delimited JSON on stdin, one response line per request on
//! stdout.

use dctopo::prelude::*;

use crate::args::{Args, CliResult, OrFail};
use crate::instance::{FamilyArg, Setup};

pub fn run(args: &Args) -> CliResult {
    let setup = Setup::parse(args, FamilyArg::Flags, FlowOptions::fast())?;
    let cfg = ServeConfig {
        opts: setup.opts,
        warm_default: !args.switch("no-warm"),
    };
    let (topo, tm) = setup.build(setup.seed)?.pairs()?;
    // the banner goes to stderr: stdout is the protocol channel
    eprintln!(
        "# serving {}: {} switches / {} links / {} servers; \
         traffic: {} flows; warm-start default {}",
        setup.label,
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        tm.flow_count(),
        if cfg.warm_default { "on" } else { "off" },
    );
    let mut server = Server::new(&topo, tm, cfg);
    let stats = server
        .run(std::io::stdin().lock(), std::io::stdout().lock())
        .or_fail("serve I/O error")?;
    eprintln!(
        "# served {} queries in {} batches ({} errors, {} warm hits / {} misses)",
        stats.queries, stats.batches, stats.errors, stats.warm_hits, stats.warm_misses
    );
    let cache = server.engine().cache_stats();
    eprintln!(
        "# path cache: {} hits / {} misses over {} structure keys",
        cache.hits,
        cache.misses,
        server.engine().path_cache().key_stats().len()
    );
    server.engine().emit_cache_trace();
    Ok(())
}
