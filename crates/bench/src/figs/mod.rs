//! One module per figure of the paper (the `figures` binary's usage
//! text is the index), each one of two shapes over the helpers here.
//!
//! * A **curve** (Figs. 1a, 2a, 4–8, 12b, `extra-hypercube`,
//!   `extra-fattree`) is a `Vec<TopologyPoint>` handed to `grid`: one
//!   [`SweepSpec`] on the sweep engine, read back as mean/σ per point.
//! * An **instance figure** (Figs. 1b, 2b, 3, 9, 10, 11,
//!   `extra-bisection`) needs the sampled topology itself and maps a
//!   closure over the seeded runs with `samples`.
//!
//! Fig. 12a/c (`SupportSearch`) and Fig. 13 (`covalidate`) are neither.

pub mod extras;
pub mod fig01_02;
pub mod fig03;
pub mod fig04_05;
pub mod fig06_07;
pub mod fig08;
pub mod fig09;
pub mod fig10_11;
pub mod fig12;
pub mod fig13;

use dctopo_core::{
    BackendChoice, CellMetrics, Scenario, SweepRunner, SweepSpec, TopologyPoint, TrafficModel,
};
use dctopo_flow::FlowError;
use dctopo_graph::mix::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::FigConfig;

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
/// so an `Unreachable` cell counts as 0; any other failure is a bug in
/// the figure's table and aborts naming the cell.
pub(crate) fn grid(
    cfg: &FigConfig,
    points: Vec<TopologyPoint>,
    traffic: &[TrafficModel],
    metric: fn(&CellMetrics) -> f64,
) -> Vec<Vec<Stats>> {
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
        let xs: Vec<f64> = (0..runs)
            .map(|run| {
                let cell = report.cell(t, run, 0, m, 0);
                match &cell.result {
                    Ok(metrics) => metric(metrics),
                    Err(FlowError::Unreachable { .. }) => 0.0,
                    Err(e) => panic!("{} run {run} {}: {e}", cell.topology, cell.traffic),
                }
            })
            .collect();
        Stats::of(&xs)
    };
    (0..report.dims()[0])
        .map(|t| (0..traffic.len()).map(|m| stats(t, m)).collect())
        .collect()
}

/// A [`grid`] with one traffic model: one `Stats` per point.
pub(crate) fn curve(
    cfg: &FigConfig,
    points: Vec<TopologyPoint>,
    traffic: TrafficModel,
    metric: fn(&CellMetrics) -> f64,
) -> Vec<Stats> {
    let per_point = grid(cfg, points, &[traffic], metric);
    per_point.iter().map(|per_traffic| per_traffic[0]).collect()
}

/// [`derive_seed`] domain of [`samples`] (`"figs"`); sweep cells use 1 and 2.
const DOMAIN_SAMPLE: u64 = 0x6669_6773;

/// Evaluate `f` once per seeded run on the worker pool and summarise
/// each of its `N` outputs over the runs. The seed depends on the run
/// alone, so every x-point of an instance figure sees common random
/// numbers.
pub(crate) fn samples<const N: usize>(
    cfg: &FigConfig,
    f: impl Fn(&mut StdRng) -> Result<[f64; N], FlowError> + Sync,
) -> Result<[Stats; N], FlowError> {
    let rows: Vec<[f64; N]> = (0..cfg.effective_runs())
        .into_par_iter()
        .map(|run| {
            let seed = derive_seed(cfg.seed, DOMAIN_SAMPLE, 0, run);
            f(&mut StdRng::seed_from_u64(seed))
        })
        .collect::<Result<_, _>>()?;
    Ok(std::array::from_fn(|i| {
        Stats::of(&rows.iter().map(|r| r[i]).collect::<Vec<f64>>())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(Stats::of(&[7.0]).std, 0.0);
    }
}
