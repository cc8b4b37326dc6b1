//! Backend selection: every max-concurrent-flow solver consumes the
//! same shared, immutable [`CsrNet`] and produces the same certified
//! [`SolvedFlow`], so experiment code can swap solvers by flipping
//! [`FlowOptions::backend`]. Every backend is deterministic for fixed
//! inputs: repeated calls (at any rayon thread count) return
//! bit-identical results.
//!
//! | backend | algorithm | role |
//! |---|---|---|
//! | [`Backend::Fptas`] | parallel Garg–Könemann / Fleischer ([`max_concurrent_flow_csr`](crate::max_concurrent_flow_csr)) | production path |
//! | [`Backend::ExactLp`] | edge-flow LP via `dctopo-linprog` ([`crate::exact`]) | ground truth on small instances |
//! | [`Backend::KspRestricted`] | multiplicative weights on frozen k-shortest path sets ([`crate::ksp`]) | practical-routing model (§8) |

use dctopo_graph::CsrNet;

use crate::cache::PathSetCache;
use crate::{Commodity, FlowError, FlowOptions, SolvedFlow};

/// Value-level backend selector carried inside [`FlowOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The parallel multiplicative-weights FPTAS — the default. Runs
    /// the incremental fast path (tree reuse + increase-only Dijkstra
    /// repair + annealed ε) unless [`FlowOptions::strict_reference`]
    /// selects the strict trajectory.
    #[default]
    Fptas,
    /// The exact edge-flow LP.
    ExactLp,
    /// Flow restricted to each commodity's `k` shortest paths.
    KspRestricted {
        /// Paths per commodity (must be ≥ 1).
        k: usize,
    },
}

impl Backend {
    /// The backend's short stable name (used in logs and benchmark
    /// output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Fptas => "fptas",
            Backend::ExactLp => "exact-lp",
            Backend::KspRestricted { .. } => "ksp",
        }
    }

    /// Solve for the given commodities under `opts` with this backend.
    pub fn solve(
        self,
        net: &CsrNet,
        commodities: &[Commodity],
        opts: &FlowOptions,
    ) -> Result<SolvedFlow, FlowError> {
        match self {
            Backend::Fptas => crate::max_concurrent_flow_csr(net, commodities, opts),
            Backend::ExactLp => crate::exact::exact_solved_flow(net, commodities, opts),
            Backend::KspRestricted { k } => {
                crate::ksp::max_concurrent_flow_ksp_csr(net, commodities, k, opts)
            }
        }
    }

    /// [`Backend::solve`] with per-topology preprocessing served from
    /// `cache`. Only [`Backend::KspRestricted`] has cacheable
    /// preprocessing today; the other backends ignore the cache and
    /// behave exactly like [`Backend::solve`]. Results are bit-identical
    /// to the uncached dispatch either way.
    pub fn solve_cached(
        self,
        net: &CsrNet,
        commodities: &[Commodity],
        opts: &FlowOptions,
        cache: &PathSetCache,
    ) -> Result<SolvedFlow, FlowError> {
        match self {
            Backend::KspRestricted { k } => {
                crate::ksp::max_concurrent_flow_ksp_cached(net, commodities, k, opts, cache)
            }
            other => other.solve(net, commodities, opts),
        }
    }
}

/// Solve on a prebuilt net with the backend selected in `opts.backend`.
///
/// This is the single entry point the experiment layer uses; building
/// the [`CsrNet`] once and calling this repeatedly amortises graph
/// flattening across traffic matrices.
pub fn solve(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    opts.backend.solve(net, commodities, opts)
}

/// [`solve`] with per-topology preprocessing amortised through `cache`
/// (see [`PathSetCache`]). This is what `ThroughputEngine` in
/// `dctopo-core` calls so that a multi-matrix sweep freezes each
/// k-shortest path set once.
pub fn solve_with_cache(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    cache: &PathSetCache,
) -> Result<SolvedFlow, FlowError> {
    opts.backend.solve_cached(net, commodities, opts, cache)
}

/// [`solve_with_cache`] for a caller that reads the answer only through
/// `λ ≥ floor`: the iterative loops stop as soon as that comparison is
/// certified — a phase's primal at or above `floor`, or the best dual
/// below it — instead of at the target gap. [`Backend::ExactLp`]
/// answers from its full solve.
///
/// Up to the floor stop each loop's trajectory is [`solve_with_cache`]'s,
/// and the returned λ is the best primal so far, so
/// `(λ ≥ floor)` is the full solve's answer, λ is at most the full
/// solve's λ, and the result is an ordinary certificate (debug builds
/// check it like any other).
///
/// # Errors
/// As [`solve_with_cache`].
pub fn certify_floor(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    cache: &PathSetCache,
    floor: f64,
) -> Result<SolvedFlow, FlowError> {
    match opts.backend {
        Backend::Fptas => crate::fptas::pairwise(net, commodities, opts, &[], Some(floor)),
        Backend::ExactLp => crate::exact::exact_solved_flow(net, commodities, opts),
        Backend::KspRestricted { k } => {
            crate::ksp::solve_ksp(net, commodities, k, opts, cache, Some(floor))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;

    fn square_net() -> CsrNet {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        CsrNet::from_graph(&g)
    }

    #[test]
    fn backend_names_stable() {
        assert_eq!(Backend::Fptas.name(), "fptas");
        assert_eq!(Backend::ExactLp.name(), "exact-lp");
        assert_eq!(Backend::KspRestricted { k: 4 }.name(), "ksp");
        assert_eq!(Backend::default(), Backend::Fptas);
    }

    #[test]
    fn all_backends_agree_on_cycle() {
        let net = square_net();
        let cs = [Commodity::unit(0, 2)];
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        };
        // λ* = 2 via the two edge-disjoint 2-hop routes
        let exact = Backend::ExactLp.solve(&net, &cs, &opts).unwrap();
        assert!((exact.throughput - 2.0).abs() < 1e-6);
        let fptas = Backend::Fptas.solve(&net, &cs, &opts).unwrap();
        assert!(
            (fptas.throughput - 2.0).abs() < 0.06,
            "λ = {}",
            fptas.throughput
        );
        let ksp = Backend::KspRestricted { k: 2 }
            .solve(&net, &cs, &opts)
            .unwrap();
        assert!(
            (ksp.throughput - 2.0).abs() < 0.08,
            "λ = {}",
            ksp.throughput
        );
    }

    #[test]
    fn options_select_backend() {
        let net = square_net();
        let cs = [Commodity::unit(0, 2)];
        let opts = FlowOptions::default().with_backend(Backend::ExactLp);
        let s = solve(&net, &cs, &opts).unwrap();
        assert!((s.throughput - 2.0).abs() < 1e-6);
        // and every selector value dispatches to a working solver
        let backends = [
            Backend::Fptas,
            Backend::ExactLp,
            Backend::KspRestricted { k: 2 },
        ];
        for b in backends {
            let s = b.solve(&net, &cs, &FlowOptions::default()).unwrap();
            assert!(s.throughput > 1.5, "{}: λ = {}", b.name(), s.throughput);
        }
    }
}
