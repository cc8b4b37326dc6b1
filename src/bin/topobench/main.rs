//! `topobench` — a command-line topology benchmarking tool in the spirit
//! of the paper's released artifact (TopoBench, reference \[28\]).
//!
//! [`USAGE`] (what `topobench` prints when run without arguments) is the
//! one copy of the synopsis. Every subcommand is a module over the typed
//! [`args::Args`]; the solving ones start from the shared
//! [`instance::Setup`] preamble, and every family, traffic, backend and
//! routing string is parsed by the `dctopo-core` spec grammar.

mod args;
mod bounds;
mod build;
mod figures;
mod instance;
mod packetsim;
mod plan;
mod profile;
mod search;
mod serve;
mod solve;
mod sweep;
mod vl2_study;

use args::{Args, CliError, CliResult};

const USAGE: &str = "\
usage:
  topobench build <family> [options] [--seed S] [--dot]
      print the switch-level topology as a capacitated edge list (or DOT)
  topobench solve <family> [options] [--traffic T] [--runs N] [--seed S]
                  [--precise] [--backend B] [--max-pairs P]
      certified max-concurrent-flow throughput plus the §6.1 decomposition;
      also takes the aggregated traffic forms all-to-all-agg and
      hotspot-agg:<hot>, and refuses pair lists denser than --max-pairs
  topobench sweep [--families F1,F2,...] [--traffic T1,T2,...]
                  [--failures 0,2,4] [--switch-failures 0,1]
                  [--scales 1.0,1.5] [--backends B1,B2,...]
                  [--runs N] [--seed S] [--precise] [--json PATH] [--strict]
      the {family x traffic x degradation x backend} grid; --json writes
      per-cell records, --strict exits non-zero when any cell failed
  topobench search [--family F] [--mode structural|capacity|both]
                  [--rounds N] [--batch B] [--traffic T] [--seed S]
                  [--backend B] [--precise]
                  [--min-mult X] [--max-mult X] [--cap-step X]
                  [--temperature T] [--cooling C]
      multi-fidelity topology search; prints the accepted-move trace
  topobench plan [--family F] [--pairs P] [--maintenance] [--traffic T]
                  [--seed S] [--floor X | --floor-frac F] [--probes N]
                  [--max-solves N] [--precise] [--backend B]
      certified-safe migration plan over a churn migration (--maintenance
      restores links at their original endpoints)
  topobench packetsim <family> [options] [--traffic T] [--seed S]
                  [--routing decomposed|ksp:<k>|ecmp:<n>] [--utilization X]
                  [--duration D] [--warmup W] [--queue Q] [--window]
                  [--rto R] [--cwnd C] [--failures N] [--backend B]
                  [--precise] [--max-pairs P]
      witness the certified throughput as packets on the same network
  topobench serve <family> [options] [--traffic T] [--seed S]
                  [--precise] [--backend B] [--no-warm] [--max-pairs P]
      what-if query server: line-delimited JSON requests on stdin (blank
      line flushes a batch, EOF drains and exits), one response line per
      request on stdout; --no-warm turns warm starts off by default
  topobench profile <family> [options] [--traffic T] [--seed S]
                  [--backend B] [--precise] [--phases N] [--eps E]
                  [--max-pairs P]
      one solve under the in-memory recorder, as a wall/work breakdown
      (takes the aggregated traffic forms too)
  topobench figures <target> [--full] [--runs N] [--seed S] [--precise]
                  [--backend B]
      the paper's figures as TSV (--full: paper scale); <target> is all or
      one of: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
        fig12a fig12b fig12c fig13 extra-hypercube extra-fattree extra-bisection
  topobench bounds --switches N --degree R --flows F
  topobench vl2-study --da A --di I [--runs N]

all subcommands: --threads N (worker pool size; overrides DCTOPO_THREADS,
                 then RAYON_NUM_THREADS, then the available parallelism)
                 --trace PATH (JSONL telemetry; or the DCTOPO_TRACE env)
<family> [options]: rrg --switches N --ports K --degree R | fat-tree --k K |
  complete --switches N [--servers S] | hypercube --dim D [--servers S] |
  torus --rows R --cols C [--servers S] | vl2 --da A --di I [--tors T] [--rewired]
family specs F: rrg:NxKxR | fat-tree:K | complete:NxS | hypercube:DxS |
  torus:RxCxS | vl2:AxI[xT] | vl2-rewired:AxI[xT] |
  two-cluster:NxPxS-nxpxs-X (large cluster, small cluster, cross links)
traffic T: permutation (default) | all-to-all | chunky:<percent> | hotspot:<n>
backend B: fptas (default) | fptas-strict | exact | ksp:<k>";

/// One subcommand: its name, its positional (`family`, with the flag
/// form's dimension flags, `target`, or none), the space-separated
/// `--key value` flags and boolean switches it declares (anything else
/// is a usage error), and its body.
pub struct Command {
    name: &'static str,
    positional: &'static str,
    values: &'static str,
    switches: &'static str,
    run: fn(&Args) -> CliResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "build",
        positional: "family",
        values: "seed",
        switches: "dot",
        run: build::run,
    },
    Command {
        name: "solve",
        positional: "family",
        values: "traffic runs seed backend max-pairs",
        switches: "precise",
        run: solve::run,
    },
    Command {
        name: "sweep",
        positional: "",
        values: "families traffic failures switch-failures scales backends runs seed json",
        switches: "precise strict",
        run: sweep::run,
    },
    Command {
        name: "search",
        positional: "",
        values: "family mode rounds batch traffic seed backend \
                 min-mult max-mult cap-step temperature cooling",
        switches: "precise",
        run: search::run,
    },
    Command {
        name: "plan",
        positional: "",
        values: "family pairs traffic seed floor floor-frac probes max-solves backend",
        switches: "maintenance precise",
        run: plan::run,
    },
    Command {
        name: "packetsim",
        positional: "family",
        values: "traffic seed routing utilization duration warmup queue rto cwnd \
                 failures backend max-pairs",
        switches: "window precise",
        run: packetsim::run,
    },
    Command {
        name: "serve",
        positional: "family",
        values: "traffic seed backend max-pairs",
        switches: "precise no-warm",
        run: serve::run,
    },
    Command {
        name: "profile",
        positional: "family",
        values: "traffic seed backend phases eps max-pairs",
        switches: "precise",
        run: profile::run,
    },
    Command {
        name: "figures",
        positional: "target",
        values: "runs seed backend",
        switches: "full precise",
        run: figures::run,
    },
    Command {
        name: "bounds",
        positional: "",
        values: "switches degree flows",
        switches: "",
        run: bounds::run,
    },
    Command {
        name: "vl2-study",
        positional: "",
        values: "da di runs",
        switches: "",
        run: vl2_study::run,
    },
];

fn run(raw: &[String]) -> CliResult {
    let (name, rest) = raw
        .split_first()
        .ok_or_else(|| CliError::Usage(String::new()))?;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown subcommand '{name}'")))?;
    let args = Args::parse(cmd, rest)?;
    // size the worker pool before the first parallel operation; the
    // flag outranks DCTOPO_THREADS, which outranks RAYON_NUM_THREADS
    if let Some(threads) = args.get::<usize>("threads")? {
        if threads == 0 {
            return Err(CliError::Usage("--threads must be positive".into()));
        }
        std::env::set_var("DCTOPO_THREADS", threads.to_string());
    }
    // telemetry sink: the flag outranks DCTOPO_TRACE (profile swaps in
    // its own in-memory sink either way)
    match args.text("trace") {
        Some(path) => dctopo::obs::enable_file(path)
            .map_err(|e| CliError::Fail(format!("cannot open trace file {path}: {e}")))?,
        None => dctopo::obs::auto_init(),
    }
    (cmd.run)(&args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&raw) {
        Ok(()) => 0,
        Err(CliError::Fail(msg)) => {
            eprintln!("{msg}");
            1
        }
        Err(CliError::Usage(msg)) => {
            // the synopsis first, so the complaint is the last line read
            eprintln!("{USAGE}");
            if !msg.is_empty() {
                eprintln!("\n{msg}");
            }
            2
        }
    };
    dctopo::obs::flush();
    std::process::exit(code);
}
