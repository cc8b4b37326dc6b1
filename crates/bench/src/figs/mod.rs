//! One module per figure of the paper (the `figures` binary's usage
//! text is the index).

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

use dctopo_core::experiment::{Runner, Stats};
use dctopo_core::solve_throughput;
use dctopo_core::vl2::CoreError;
use dctopo_flow::FlowError;
use dctopo_graph::GraphError;
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::FigConfig;

/// A disconnected fabric delivers zero throughput to the flows it cannot
/// carry — the honest y-value at the extreme ends of placement sweeps,
/// not an error.
fn zero_if_unreachable(r: Result<f64, CoreError>) -> Result<f64, CoreError> {
    match r {
        Err(CoreError::Flow(FlowError::Unreachable { .. })) => Ok(0.0),
        other => other,
    }
}

/// Mean throughput over `cfg.effective_runs()` seeds of "build topology,
/// sample a random permutation over its servers, solve".
pub(crate) fn mean_perm_throughput<B>(cfg: &FigConfig, build: B) -> Result<Stats, CoreError>
where
    B: Fn(&mut StdRng) -> Result<Topology, GraphError> + Sync,
{
    mean_throughput_with_tm(cfg, build, |topo, rng| {
        TrafficMatrix::random_permutation(topo.server_count(), rng)
    })
}

/// Mean throughput with an arbitrary traffic-matrix builder.
///
/// `solve_throughput` is the one-shot [`dctopo_core::ThroughputEngine`]
/// path, so backend selection (`cfg.opts.backend`) and CSR flattening
/// all live in `dctopo-core`; multi-matrix sweeps should use
/// [`Runner::run_throughput`] directly (see Fig. 12(b)).
pub(crate) fn mean_throughput_with_tm<B, T>(
    cfg: &FigConfig,
    build: B,
    tm_of: T,
) -> Result<Stats, CoreError>
where
    B: Fn(&mut StdRng) -> Result<Topology, GraphError> + Sync,
    T: Fn(&Topology, &mut StdRng) -> TrafficMatrix + Sync,
{
    let runner = Runner::new(cfg.effective_runs(), cfg.seed);
    runner.run(|seed| {
        zero_if_unreachable((|| -> Result<f64, CoreError> {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = build(&mut rng)?;
            let tm = tm_of(&topo, &mut rng);
            let r = solve_throughput(&topo, &tm, &cfg.opts)?;
            Ok(r.throughput)
        })())
    })
}
