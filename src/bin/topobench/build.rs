//! `topobench build`: print a topology as a capacitated edge list or DOT.

use dctopo::graph::io::{to_dot, to_edge_list};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{Args, CliResult, OrFail};
use crate::instance::{family_point, FamilyArg};

pub fn run(args: &Args) -> CliResult {
    let (family, point) = family_point(args, FamilyArg::Flags)?;
    let mut rng = StdRng::seed_from_u64(args.get("seed")?.unwrap_or(1));
    let topo = (point.build)(&mut rng).or_fail(format_args!("failed to build {family}"))?;
    eprintln!(
        "# {family}: {} switches, {} links, {} servers, {} unused ports",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        topo.unused_ports
    );
    if args.switch("dot") {
        print!("{}", to_dot(&topo.graph, &family));
    } else {
        print!("{}", to_edge_list(&topo.graph));
    }
    Ok(())
}
