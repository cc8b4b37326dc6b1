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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let target = args[0].clone();
    let mut cfg = FigConfig::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cfg.full = true,
            "--precise" => cfg.opts = FlowOptions::default(),
            "--runs" => {
                i += 1;
                cfg.runs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&runs| runs > 0)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--backend" => {
                i += 1;
                args.get(i)
                    .and_then(|s| s.parse::<BackendChoice>().ok())
                    .unwrap_or_else(|| usage())
                    .apply(&mut cfg.opts);
            }
            _ => usage(),
        }
        i += 1;
    }

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
