//! The §7 case study machinery: "how many ToRs (equivalently, servers)
//! does a topology support at full throughput?", answered by binary
//! search exactly as the paper does ("We obtain the largest number of
//! ToRs supported at full throughput by doing a binary search").

use dctopo_flow::{FlowError, FlowOptions};
use dctopo_graph::GraphError;
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::solve::solve_throughput;

/// Builds a topology with a given number of ToRs from a seed.
pub type TopoBuilder<'a> = dyn Fn(usize, u64) -> Result<Topology, GraphError> + 'a;
/// Builds a traffic matrix for a topology from a seeded RNG.
pub type TmBuilder<'a> = dyn Fn(&Topology, &mut StdRng) -> TrafficMatrix + 'a;

/// A random-permutation traffic-matrix builder (the default workload).
pub fn permutation_tm(topo: &Topology, rng: &mut StdRng) -> TrafficMatrix {
    TrafficMatrix::random_permutation(topo.server_count(), rng)
}

/// Full-throughput support search.
#[derive(Debug, Clone, Copy)]
pub struct SupportSearch {
    /// Solver options for each throughput check.
    pub opts: FlowOptions,
    /// Full-throughput tolerance: supported iff `throughput ≥ 1 − tol`
    /// in **every** run. Must absorb the solver's certified gap.
    pub tol: f64,
    /// Runs (independent topologies + traffic matrices) per candidate.
    pub runs: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for SupportSearch {
    fn default() -> Self {
        let opts = FlowOptions::default();
        SupportSearch {
            opts,
            tol: opts.target_gap + 0.01,
            runs: 3,
            base_seed: 7,
        }
    }
}

impl SupportSearch {
    /// Does the family support `tors` ToRs at full throughput across all
    /// runs? A *construction* failure (e.g. VL2's bipartite layer cannot
    /// physically host that many ToRs) counts as "not supported";
    /// genuine solver failures propagate.
    ///
    /// # Errors
    /// [`FlowError::BadOptions`] when `runs` is 0 (every `tors` would be
    /// vacuously supported), else the solver's errors.
    pub fn supports(
        &self,
        tors: usize,
        build: &TopoBuilder<'_>,
        tm: &TmBuilder<'_>,
    ) -> Result<bool, FlowError> {
        if self.runs == 0 {
            return Err(FlowError::BadOptions(
                "support search needs at least one run".into(),
            ));
        }
        for run in 0..self.runs {
            let seed = self.base_seed.wrapping_add(run as u64 * 0x9E37_79B9);
            let topo = match build(tors, seed) {
                Ok(t) => t,
                Err(_) => return Ok(false), // structurally impossible
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
            let matrix = tm(&topo, &mut rng);
            let result = solve_throughput(&topo, &matrix, &self.opts)?;
            if !result.is_full_throughput(self.tol) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Largest ToR count in `[lo, hi]` supported at full throughput
    /// (assumes support is monotone decreasing in the ToR count, which
    /// holds for the families studied). Returns `None` if even `lo`
    /// is unsupported.
    pub fn max_tors(
        &self,
        lo: usize,
        hi: usize,
        build: &TopoBuilder<'_>,
        tm: &TmBuilder<'_>,
    ) -> Result<Option<usize>, FlowError> {
        assert!(lo <= hi, "empty search range");
        if !self.supports(lo, build, tm)? {
            return Ok(None);
        }
        let (mut good, mut bad) = (lo, hi + 1);
        while bad - good > 1 {
            let mid = good + (bad - good) / 2;
            if self.supports(mid, build, tm)? {
                good = mid;
            } else {
                bad = mid;
            }
        }
        Ok(Some(good))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_topology::vl2::{rewired_vl2, vl2, Vl2Params};

    fn search() -> SupportSearch {
        SupportSearch {
            opts: FlowOptions {
                epsilon: 0.1,
                target_gap: 0.03,
                max_phases: 4000,
                stall_phases: 150,
                ..FlowOptions::default()
            },
            tol: 0.04,
            runs: 2,
            base_seed: 11,
        }
    }

    #[test]
    fn vl2_supports_design_capacity() {
        // VL2(8,8) supports exactly D_A·D_I/4 = 16 ToRs
        let build = |tors: usize, _seed: u64| {
            vl2(Vl2Params {
                d_a: 8,
                d_i: 8,
                tors: Some(tors),
            })
        };
        let s = search();
        let best = s.max_tors(4, 32, &build, &permutation_tm).unwrap();
        assert_eq!(best, Some(16));
    }

    #[test]
    fn rewired_vl2_beats_stock() {
        let s = search();
        let stock = |tors: usize, _seed: u64| {
            vl2(Vl2Params {
                d_a: 10,
                d_i: 12,
                tors: Some(tors),
            })
        };
        let rewired = |tors: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            rewired_vl2(
                Vl2Params {
                    d_a: 10,
                    d_i: 12,
                    tors: Some(tors),
                },
                &mut rng,
            )
        };
        let a = s.max_tors(4, 80, &stock, &permutation_tm).unwrap().unwrap();
        let b = s
            .max_tors(4, 80, &rewired, &permutation_tm)
            .unwrap()
            .unwrap();
        assert!(
            b > a,
            "rewired VL2 supports {b} ToRs, stock {a} — expected an improvement"
        );
    }

    /// Zero runs would support every ToR count vacuously and return the
    /// top of the range; it is a typed error instead.
    #[test]
    fn zero_runs_is_bad_options() {
        let s = SupportSearch {
            runs: 0,
            ..search()
        };
        let build = |tors: usize, _| {
            vl2(Vl2Params {
                d_a: 4,
                d_i: 4,
                tors: Some(tors),
            })
        };
        assert!(matches!(
            s.max_tors(2, 8, &build, &permutation_tm),
            Err(FlowError::BadOptions(_))
        ));
    }

    #[test]
    fn unsupported_low_end_returns_none() {
        // an absurd tolerance that nothing satisfies
        let mut s = search();
        s.tol = -0.5;
        let build = |tors: usize, _| {
            vl2(Vl2Params {
                d_a: 8,
                d_i: 8,
                tors: Some(tors),
            })
        };
        assert_eq!(s.max_tors(4, 16, &build, &permutation_tm).unwrap(), None);
    }
}
