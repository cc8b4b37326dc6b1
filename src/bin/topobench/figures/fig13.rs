//! Figure 13: flow-level versus packet-level throughput (§8.2).
//!
//! The paper runs MPTCP (8 subflows, shortest paths) in htsim over the
//! rewired VL2-like topology, deliberately oversubscribed so the flow
//! value is close to but below 1, and finds the packet level within a
//! few percent of the flow level. We do the same with the co-validation
//! engine: offer η = 0.9 of each commodity's certified rate over the
//! solver's own path decomposition and report how much the packet level
//! delivers of the offer.

use dctopo::core::{PacketParams, ThroughputEngine};
use dctopo::topology::vl2::{rewired_vl2, Vl2Params};
use dctopo::traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{columns, header, row, FigConfig};
use crate::args::{CliResult, OrFail};

/// Fig. 13.
pub fn run(cfg: &FigConfig) -> CliResult {
    header("Fig 13: flow-level vs packet-level (co-validated, decomposed paths)");
    header("topologies oversubscribed ~25% so the flow value is < 1");
    columns(&["d_a", "flow_level", "ratio_mean", "ratio_min", "drops"]);
    let (das, d_i) = if cfg.full {
        (vec![6usize, 10, 14, 18], 16usize)
    } else {
        (vec![4usize, 6, 8], 8usize)
    };
    for &d_a in &das {
        let tors = ((d_a * d_i / 4) as f64 * 1.25).round() as usize;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ d_a as u64);
        let topo = rewired_vl2(
            Vl2Params {
                d_a,
                d_i,
                tors: Some(tors),
            },
            &mut rng,
        )
        .or_fail("rewired build")?;
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let engine = ThroughputEngine::new(&topo);
        let params = PacketParams {
            duration: if cfg.full { 200.0 } else { 100.0 },
            warmup: if cfg.full { 50.0 } else { 25.0 },
            ..PacketParams::default()
        };
        let cv = engine
            .covalidate(&tm, &cfg.opts, &params)
            .or_fail("co-validation")?;
        let flow_t = cv.lambda.min(1.0);
        row(&[
            d_a as f64,
            flow_t,
            cv.mean_ratio(),
            cv.min_ratio(),
            cv.result.drops as f64,
        ]);
    }
    Ok(())
}
