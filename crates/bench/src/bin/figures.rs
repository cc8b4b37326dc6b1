//! Regenerate the paper's figures as TSV series on stdout.
//!
//! ```text
//! figures <target> [--full] [--runs N] [--seed S] [--precise]
//!
//! targets: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!          fig12a fig12b fig12c fig12 fig13
//!          extra-hypercube extra-fattree extra-bisection
//!          all   (everything, in order)
//! ```
//!
//! Defaults run reduced-scale configurations (minutes for `all`);
//! `--full` uses paper-scale parameters and more seeds.

use dctopo_bench::figs;
use dctopo_bench::FigConfig;
use dctopo_core::BackendChoice;
use dctopo_flow::FlowOptions;

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|\
         fig12|fig12a|fig12b|fig12c|fig13|extra-hypercube|extra-fattree|\
         extra-bisection|all> [--full] [--runs N] [--seed S] [--precise] \
         [--backend fptas|fptas-strict|exact|ksp:<k>]"
    );
    std::process::exit(2);
}

/// The target and configuration a command line names, or `None` where
/// it is not one (the caller prints the usage). `--precise` picks the
/// solver profile and `--backend` the backend within it, in either
/// order.
fn parse(args: &[String]) -> Option<(String, FigConfig)> {
    let (target, flags) = args.split_first()?;
    let mut cfg = FigConfig::default();
    let mut backend: Option<BackendChoice> = None;
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--full" => cfg.full = true,
            "--precise" => cfg.opts = FlowOptions::precise(),
            "--runs" => cfg.runs = flags.next()?.parse().ok().filter(|&runs| runs > 0)?,
            "--seed" => cfg.seed = flags.next()?.parse().ok()?,
            "--backend" => backend = Some(flags.next()?.parse().ok()?),
            _ => return None,
        }
    }
    if let Some(backend) = backend {
        backend.apply(&mut cfg.opts);
    }
    Some((target.clone(), cfg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, cfg) = parse(&args).unwrap_or_else(|| usage());

    let run_one = |name: &str| match name {
        "fig1" => figs::fig01_02::run_fig1(&cfg),
        "fig2" => figs::fig01_02::run_fig2(&cfg),
        "fig3" => figs::fig03::run(&cfg),
        "fig4" => figs::fig04_05::run_fig4(&cfg),
        "fig5" => figs::fig04_05::run_fig5(&cfg),
        "fig6" => figs::fig06_07::run_fig6(&cfg),
        "fig7" => figs::fig06_07::run_fig7(&cfg),
        "fig8" => figs::fig08::run(&cfg),
        "fig9" => figs::fig09::run(&cfg),
        "fig10" => figs::fig10_11::run_fig10(&cfg),
        "fig11" => figs::fig10_11::run_fig11(&cfg),
        "fig12a" => figs::fig12::run_fig12a(&cfg),
        "fig12b" => figs::fig12::run_fig12b(&cfg),
        "fig12c" => figs::fig12::run_fig12c(&cfg),
        "fig12" => {
            figs::fig12::run_fig12a(&cfg);
            figs::fig12::run_fig12b(&cfg);
            figs::fig12::run_fig12c(&cfg);
        }
        "fig13" => figs::fig13::run(&cfg),
        "extra-hypercube" => figs::extras::run_hypercube(&cfg),
        "extra-fattree" => figs::extras::run_fattree(&cfg),
        "extra-bisection" => figs::extras::run_bisection(&cfg),
        _ => usage(),
    };

    if target == "all" {
        for name in [
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "extra-hypercube",
            "extra-fattree",
            "extra-bisection",
        ] {
            println!("##### {name} #####");
            run_one(name);
            println!();
        }
    } else {
        run_one(&target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_flow::Backend;

    fn parsed(line: &str) -> Option<(String, FigConfig)> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn precise_and_backend_combine_in_either_order() {
        let precise = FlowOptions::precise();
        for line in [
            "fig6 --backend ksp:4 --precise",
            "fig6 --precise --backend ksp:4",
        ] {
            let (target, cfg) = parsed(line).expect(line);
            assert_eq!(target, "fig6");
            assert!(
                matches!(cfg.opts.backend, Backend::KspRestricted { k: 4 }),
                "{line}"
            );
            assert_eq!(cfg.opts.target_gap, precise.target_gap, "{line}");
            assert_eq!(cfg.opts.epsilon, precise.epsilon, "{line}");
        }
        // strictness rides with the backend, whichever side of the flag
        for line in [
            "fig1 --backend fptas-strict --precise",
            "fig1 --precise --backend fptas-strict",
        ] {
            let (_, cfg) = parsed(line).expect(line);
            assert!(cfg.opts.strict_reference, "{line}");
            assert_eq!(cfg.opts.max_phases, precise.max_phases, "{line}");
        }
        // without the flag the figure default stands
        let (_, cfg) = parsed("fig1 --backend exact").unwrap();
        assert_eq!(cfg.opts.target_gap, FlowOptions::fast().target_gap);
        assert!(matches!(cfg.opts.backend, Backend::ExactLp));
    }

    #[test]
    fn malformed_lines_are_usage_errors() {
        for line in [
            "",
            "fig3 --runs 0",
            "fig3 --runs",
            "fig3 --runs x",
            "fig3 --seed",
            "fig3 --backend ksp:0",
            "fig3 --bogus",
        ] {
            assert!(parsed(line).is_none(), "{line:?}");
        }
        let (target, cfg) = parsed("all --full --runs 2 --seed 9").unwrap();
        assert_eq!(target, "all");
        assert!(cfg.full);
        assert_eq!((cfg.runs, cfg.seed), (2, 9));
    }
}
