//! `topobench figures`: the paper's figures as the data series it plots,
//! tab-separated with `#`-prefixed metadata lines. [`FIGURES`] is the
//! index; each figure is a module of one of two shapes over the helpers
//! here.
//!
//! * A **curve** (Figs. 1a, 2a, 4–8, 12b, `extra-hypercube`,
//!   `extra-fattree`) is a `Vec<TopologyPoint>` handed to `grid`: one
//!   [`SweepSpec`] on the sweep engine, read back as mean/σ per point.
//! * An **instance figure** (Figs. 1b, 2b, 3, 9, 10, 11,
//!   `extra-bisection`) needs the sampled topology itself and maps a
//!   closure over the seeded runs with `samples`.
//!
//! Fig. 12a/c (`SupportSearch`) and Fig. 13 (`covalidate`) are neither.
//! Everything runs on the one worker pool, so `--threads` sets the width
//! and the output is the same at every width. By default every figure
//! runs at a reduced scale (the paper's small/medium configurations, 3
//! seeds per point); `--full` switches to paper-scale parameters and
//! seed counts.

mod extras;
mod fig01_02;
mod fig03;
mod fig04_05;
mod fig06_07;
mod fig08;
mod fig09;
mod fig10_11;
mod fig12;
mod fig13;

use dctopo::core::{
    BackendChoice, CellMetrics, Scenario, SweepRunner, SweepSpec, TopologyPoint, TrafficModel,
};
use dctopo::flow::{FlowError, FlowOptions};
use dctopo::graph::mix::derive_seed;
use dctopo::obs::{self, Captured};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::args::{Args, CliError, CliResult};
use crate::instance::solver_options;

type Print = fn(&FigConfig) -> CliResult;

/// The figure index, in `all`'s order: every other target, what it
/// prints, and whether `all` does (it prints a panel through its figure).
const FIGURES: &[(&str, Print, bool)] = &[
    ("fig1", fig01_02::run_fig1, true),
    ("fig2", fig01_02::run_fig2, true),
    ("fig3", fig03::run, true),
    ("fig4", fig04_05::run_fig4, true),
    ("fig5", fig04_05::run_fig5, true),
    ("fig6", fig06_07::run_fig6, true),
    ("fig7", fig06_07::run_fig7, true),
    ("fig8", fig08::run, true),
    ("fig9", fig09::run, true),
    ("fig10", fig10_11::run_fig10, true),
    ("fig11", fig10_11::run_fig11, true),
    ("fig12", run_fig12, true),
    ("fig12a", fig12::run_fig12a, false),
    ("fig12b", fig12::run_fig12b, false),
    ("fig12c", fig12::run_fig12c, false),
    ("fig13", fig13::run, true),
    ("extra-hypercube", extras::run_hypercube, true),
    ("extra-fattree", extras::run_fattree, true),
    ("extra-bisection", extras::run_bisection, true),
];

fn run_fig12(cfg: &FigConfig) -> CliResult {
    fig12::run_fig12a(cfg)?;
    fig12::run_fig12b(cfg)?;
    fig12::run_fig12c(cfg)
}

pub fn run(args: &Args) -> CliResult {
    let target = args.positional()?;
    let cfg = config(args)?;
    if target == "all" {
        for &(name, print, _) in FIGURES.iter().filter(|f| f.2) {
            println!("##### {name} #####");
            print(&cfg)?;
            println!();
        }
        return Ok(());
    }
    let &(_, print, _) = FIGURES
        .iter()
        .find(|f| f.0 == target)
        .ok_or_else(|| CliError::Usage(format!("unknown figure '{target}'")))?;
    print(&cfg)
}

/// Configuration shared by every figure module.
#[derive(Debug, Clone, Copy)]
pub struct FigConfig {
    /// Independent runs (topology + traffic samples) per data point.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Paper-scale parameters instead of the reduced defaults.
    pub full: bool,
    /// Flow solver options.
    pub opts: FlowOptions,
}

impl FigConfig {
    /// Runs to use: `--full` raises `runs` to at least 10.
    pub fn effective_runs(&self) -> usize {
        if self.full {
            self.runs.max(10)
        } else {
            self.runs
        }
    }
}

/// `--runs` (3), `--seed` (20140402), `--full` and the fast solver profile.
fn config(args: &Args) -> CliResult<FigConfig> {
    let runs = args.get("runs")?.unwrap_or(3);
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    Ok(FigConfig {
        runs,
        seed: args.get("seed")?.unwrap_or(20140402),
        full: args.switch("full"),
        opts: solver_options(args, FlowOptions::fast())?,
    })
}

/// Print a `#`-prefixed header line.
fn header(text: &str) {
    println!("# {text}");
}

/// Print a TSV row of labels.
fn columns(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Print a TSV row of numbers with 4-decimal formatting.
fn row(values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{}", cells.join("\t"));
}

/// Print a TSV row beginning with a string key.
fn row_keyed(key: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{key}\t{}", cells.join("\t"));
}

/// All `(servers_large, servers_small)` integer splits satisfying
/// `n_l·s_l + n_s·s_s = total` with at least one network port left on
/// every switch. Sorted by `s_l` ascending.
fn server_splits(
    total: usize,
    n_l: usize,
    n_s: usize,
    ports_l: usize,
    ports_s: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for s_l in 1..ports_l {
        let used = n_l * s_l;
        if used > total {
            break;
        }
        let rem = total - used;
        if rem.is_multiple_of(n_s) {
            let s_s = rem / n_s;
            if s_s < ports_s {
                out.push((s_l, s_s));
            }
        }
    }
    out
}

/// The proportional-distribution expectation of servers per large switch
/// (the paper's x-axis normaliser in Figs. 4 and 7).
fn proportional_servers_large(
    total: usize,
    n_l: usize,
    n_s: usize,
    ports_l: usize,
    ports_s: usize,
) -> f64 {
    let port_total = (n_l * ports_l + n_s * ports_s) as f64;
    total as f64 * ports_l as f64 / port_total
}

/// Mean and sample standard deviation of one plotted point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std: f64,
}

impl Stats {
    /// Summarise a non-empty sample.
    pub fn of(xs: &[f64]) -> Stats {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Stats {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Solve every `point × run × traffic` cell as one baseline sweep and
/// return `metric`'s mean/σ over the runs, indexed `[point][traffic]`.
///
/// A disconnected fabric delivers zero throughput to the flows it cannot
/// carry — the honest y-value at the extreme ends of placement sweeps —
/// so an `Unreachable` cell counts as 0; any other failure fails the
/// figure, naming the cell.
fn grid(
    cfg: &FigConfig,
    points: Vec<TopologyPoint>,
    traffic: &[TrafficModel],
    metric: fn(&CellMetrics) -> f64,
) -> CliResult<Vec<Vec<Stats>>> {
    let runs = cfg.effective_runs();
    let report = SweepRunner::new(SweepSpec {
        topologies: points,
        traffic: traffic.to_vec(),
        scenarios: vec![Scenario::baseline()],
        backends: vec![BackendChoice {
            backend: cfg.opts.backend,
            strict: cfg.opts.strict_reference,
        }],
        opts: cfg.opts,
        seed: cfg.seed,
        runs,
    })
    .run();
    let stats = |t: usize, m: usize| {
        let xs = (0..runs)
            .map(|run| {
                let cell = report.cell(t, run, 0, m, 0);
                match &cell.result {
                    Ok(metrics) => Ok(metric(metrics)),
                    Err(FlowError::Unreachable { .. }) => Ok(0.0),
                    Err(e) => Err(CliError::Fail(format!(
                        "{} run {run} {}: {e}",
                        cell.topology, cell.traffic
                    ))),
                }
            })
            .collect::<CliResult<Vec<f64>>>()?;
        Ok(Stats::of(&xs))
    };
    (0..report.dims()[0])
        .map(|t| (0..traffic.len()).map(|m| stats(t, m)).collect())
        .collect()
}

/// A [`grid`] with one traffic model: one `Stats` per point.
fn curve(
    cfg: &FigConfig,
    points: Vec<TopologyPoint>,
    traffic: TrafficModel,
    metric: fn(&CellMetrics) -> f64,
) -> CliResult<Vec<Stats>> {
    let per_point = grid(cfg, points, &[traffic], metric)?;
    Ok(per_point.iter().map(|per_traffic| per_traffic[0]).collect())
}

/// [`derive_seed`] domain of [`samples`] (`"figs"`); sweep cells use 1 and 2.
const DOMAIN_SAMPLE: u64 = 0x6669_6773;

/// Evaluate `f` once per seeded run on the worker pool and summarise
/// each of its `N` outputs over the runs. The seed depends on the run
/// alone, so every x-point of an instance figure sees common random
/// numbers.
fn samples<const N: usize>(
    cfg: &FigConfig,
    f: impl Fn(&mut StdRng) -> Result<[f64; N], FlowError> + Sync,
) -> Result<[Stats; N], FlowError> {
    let rows: Vec<[f64; N]> = (0..cfg.effective_runs())
        .into_par_iter()
        .map(|run| {
            let seed = derive_seed(cfg.seed, DOMAIN_SAMPLE, 0, run);
            obs::capture(|| f(&mut StdRng::seed_from_u64(seed)))
        })
        .collect::<Captured<Vec<_>>>()
        .emit()
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(std::array::from_fn(|i| {
        Stats::of(&rows.iter().map(|r| r[i]).collect::<Vec<f64>>())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::flow::Backend;

    fn config_of(line: &str) -> CliResult<FigConfig> {
        let cmd = crate::COMMANDS
            .iter()
            .find(|c| c.name == "figures")
            .unwrap();
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        config(&Args::parse(cmd, &raw)?)
    }

    /// The synopsis spells out the index: the same names, in order.
    #[test]
    fn usage_lists_the_figure_index() {
        let (_, tail) = crate::USAGE.split_once("one of:").unwrap();
        let listed: Vec<&str> = tail
            .split("\n  topobench")
            .next()
            .unwrap()
            .split_whitespace()
            .collect();
        let index: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(listed, index);
    }

    #[test]
    fn precise_and_backend_combine_in_either_order() {
        let precise = FlowOptions::precise();
        for line in [
            "fig6 --backend ksp:4 --precise",
            "fig6 --precise --backend ksp:4",
        ] {
            let Ok(cfg) = config_of(line) else {
                panic!("{line}")
            };
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
            let Ok(cfg) = config_of(line) else {
                panic!("{line}")
            };
            assert!(cfg.opts.strict_reference, "{line}");
            assert_eq!(cfg.opts.max_phases, precise.max_phases, "{line}");
        }
        // without the flag the figure default stands
        let Ok(cfg) = config_of("fig1 --backend exact") else {
            panic!()
        };
        assert_eq!(cfg.opts.target_gap, FlowOptions::fast().target_gap);
        assert!(matches!(cfg.opts.backend, Backend::ExactLp));
    }

    #[test]
    fn splits_are_exact_and_bounded() {
        let splits = server_splits(500, 20, 40, 30, 10);
        assert!(!splits.is_empty());
        for &(l, s) in &splits {
            assert_eq!(20 * l + 40 * s, 500);
            assert!(l < 30 && s < 10);
        }
        // proportional point (15, 5) must be present
        assert!(splits.contains(&(15, 5)));
        let prop = proportional_servers_large(500, 20, 40, 30, 10);
        assert!((prop - 15.0).abs() < 1e-12);
    }

    #[test]
    fn effective_runs_scales_with_full() {
        let Ok(mut c) = config_of("fig3") else {
            panic!()
        };
        assert_eq!(c.effective_runs(), 3);
        c.full = true;
        assert_eq!(c.effective_runs(), 10);
    }

    #[test]
    fn stats_basics() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(Stats::of(&[7.0]).std, 0.0);
    }
}
