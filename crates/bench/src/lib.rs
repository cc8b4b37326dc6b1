//! # dctopo-bench
//!
//! The figure-regeneration harness: one module per figure of the paper,
//! each printing the same data series the paper plots, as
//! tab-separated values with `#`-prefixed metadata lines.
//!
//! A figure is one of two shapes (see [`figs`]): a **curve** is a list
//! of topology points handed to `dctopo_core`'s sweep engine and read
//! back as mean/σ per point; an **instance figure** needs the sampled
//! topology itself (ASPL, cuts, the throughput decomposition) and maps
//! a closure over the seeded runs. Both run on the one worker pool, so
//! `DCTOPO_THREADS` sets the width and the output is the same at every
//! width.
//!
//! Run via the `figures` binary:
//!
//! ```text
//! cargo run --release -p dctopo-bench --bin figures -- fig6
//! cargo run --release -p dctopo-bench --bin figures -- fig12 --full
//! cargo run --release -p dctopo-bench --bin figures -- all
//! ```
//!
//! By default every experiment runs at a reduced scale (the paper's
//! small/medium configurations, 3 seeds per point) so the whole suite
//! finishes in minutes; `--full` switches to paper-scale parameters and
//! seed counts. Nothing here times anything: wall clocks and work
//! counters are `dcbench`'s job (`benchmark/README.md`).

pub mod figs;

use dctopo_flow::FlowOptions;

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

impl Default for FigConfig {
    fn default() -> Self {
        FigConfig {
            runs: 3,
            seed: 20140402,
            full: false,
            opts: FlowOptions::fast(),
        }
    }
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

/// Print a `#`-prefixed header line.
pub fn header(text: &str) {
    println!("# {text}");
}

/// Print a TSV row of labels.
pub fn columns(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Print a TSV row of numbers with 4-decimal formatting.
pub fn row(values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{}", cells.join("\t"));
}

/// Print a TSV row beginning with a string key.
pub fn row_keyed(key: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{key}\t{}", cells.join("\t"));
}

/// All `(servers_large, servers_small)` integer splits satisfying
/// `n_l·s_l + n_s·s_s = total` with at least one network port left on
/// every switch. Sorted by `s_l` ascending.
pub fn server_splits(
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
pub fn proportional_servers_large(
    total: usize,
    n_l: usize,
    n_s: usize,
    ports_l: usize,
    ports_s: usize,
) -> f64 {
    let port_total = (n_l * ports_l + n_s * ports_s) as f64;
    total as f64 * ports_l as f64 / port_total
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut c = FigConfig::default();
        assert_eq!(c.effective_runs(), 3);
        c.full = true;
        assert_eq!(c.effective_runs(), 10);
    }
}
