//! Figure 3: the "curved step" structure of the ASPL lower bound at
//! degree 4, and the observed-to-bound ratio approaching 1 as N grows.
//!
//! Pure graph computation (BFS all-pairs), so this scales to the paper's
//! full N = 1457 even in the default profile.

use dctopo::bounds::{aspl_lower_bound, moore_level_boundaries};
use dctopo::graph::paths::path_stats;
use dctopo::topology::Topology;

use super::samples;
use super::{columns, header, row, FigConfig};
use crate::args::{CliResult, OrFail};

/// Fig. 3: degree-4 ASPL versus the bound across sizes.
pub fn run(cfg: &FigConfig) -> CliResult {
    let r = 4;
    let max_n = if cfg.full { 1457 } else { 485 };
    // the level boundaries themselves plus intermediate points
    let mut sizes: Vec<usize> = moore_level_boundaries(r, max_n);
    for &extra in &[10, 25, 35, 80, 120, 240, 350, 700, 1000] {
        if extra <= max_n {
            sizes.push(extra);
        }
    }
    sizes.sort_unstable();
    sizes.dedup();

    header("Fig 3: ASPL vs lower bound, degree 4 (x-tics = new bound levels)");
    header(&format!(
        "level boundaries: {:?}",
        moore_level_boundaries(r, max_n)
    ));
    columns(&["size", "aspl_observed", "aspl_bound", "ratio"]);
    for &n in &sizes {
        let [aspl] = samples(cfg, |rng| {
            let topo = Topology::random_regular(n, r + 1, r, rng)?;
            Ok([path_stats(&topo.graph)?.aspl])
        })
        .or_fail("aspl run")?;
        let bound = aspl_lower_bound(n, r).expect("bound");
        row(&[n as f64, aspl.mean, bound, aspl.mean / bound]);
    }
    Ok(())
}
