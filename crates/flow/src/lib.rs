//! # dctopo-flow
//!
//! Maximum concurrent multi-commodity flow — the throughput engine of the
//! workspace, playing the role CPLEX plays in the paper (§3: "Throughput
//! is then the solution to the standard maximum concurrent
//! multi-commodity flow problem").
//!
//! ## What "throughput" means here
//!
//! Given a capacitated graph and commodities `(src, dst, demand)`, the
//! *max concurrent flow* value λ is the largest scalar such that `λ·dⱼ`
//! units can be routed simultaneously for every commodity `j` without
//! exceeding any arc capacity. Maximising the minimum flow rate — the
//! paper's strict-fairness throughput definition — is exactly this LP.
//!
//! ## Solver
//!
//! The default backend implements the Garg–Könemann / Fleischer
//! multiplicative-weights FPTAS with two production twists:
//!
//! 1. **Certified bounds instead of theory constants.** After every phase
//!    we extract (a) a *feasible* primal solution by scaling the
//!    accumulated flow down by its worst arc congestion, and (b) a dual
//!    upper bound `D(l)/α(l)` valid for any positive length function.
//!    The loop stops when the primal is within `target_gap` of the dual,
//!    so every result carries a machine-checked optimality interval.
//! 2. **Source-grouped routing.** Commodities sharing a source are routed
//!    along one Dijkstra tree per iteration with a joint capacity-scaled
//!    step, which keeps each length update bounded by `(1+ε)` while
//!    doing one shortest-path computation for the whole source group.
//!
//! ## One certificate core, four routing loops
//!
//! Four loops in this crate are multiplicative-weights solvers: the
//! pairwise FPTAS with and without its tree-reuse ladder (one phase
//! loop over an `Option<Ladder>` tree policy — the ladder is the default
//! fast path, `None` is the strict trajectory
//! [`FlowOptions::strict_reference`] pins), the aggregated-demand solver
//! ([`solve_grouped`]) and the frozen-path solver (the private `ksp`
//! module). They differ
//! in *routing* — which tree or path carries a step — and share the
//! arithmetic that makes a trajectory a certificate: length growth and
//! the `1e100` rescale, the step size, the worst congestion `μ`, the
//! `D(l)/α(l)` admission, the plateau stop. That arithmetic is written
//! once, in the private `gk` module (`gk::Core`), and every loop calls
//! it.
//!
//! ## Every certificate carries its witness
//!
//! A solve returns its interval `[throughput, upper_bound]`, the flow
//! behind the first number and the arc lengths the second was read at
//! ([`SolvedFlow::dual_lengths`]); every solver, the aggregated one
//! included, answers with one [`SolvedFlow`]. [`dctopo_graph::certify`]
//! re-derives both ends from that data with code that shares nothing
//! with the solvers — its own Dijkstra, its own sums — and every
//! producer here runs it on what it returns in debug builds
//! ([`SolvedFlow::certify`] for a commodity list,
//! [`SolvedFlow::certify_groups`] for demand groups). Release builds
//! skip the check.
//!
//! ## Backends
//!
//! All solvers run against one shared, immutable [`CsrNet`] — the flat
//! arc-level view of the graph built once per topology — and are
//! selected by the [`Backend`] value in [`FlowOptions::backend`]:
//!
//! * [`Backend::Fptas`] — the production path described above. Its
//!   multi-tree Dijkstra passes run in parallel on rayon against a
//!   length snapshot, with a fixed sequential reduction order, so seeded
//!   runs are bit-identical at every thread count.
//! * [`Backend::ExactLp`] — the path form of the LP the paper hands to
//!   CPLEX, solved by column generation on `dctopo-linprog`; ground
//!   truth on instances of up to a few hundred commodities, certified
//!   at its optimal duals like every other answer.
//! * [`Backend::KspRestricted`] — flow restricted to each commodity's k
//!   shortest paths (the practical-routing model of §8). Its
//!   per-topology path freezing is memoised by [`PathSetCache`], so
//!   multi-matrix sweeps pay for Yen's algorithm once per
//!   `(topology, k)`.
//!
//! One private dispatch in [`backend`] picks the solver, and three
//! entries call it: [`solve_with_cache`] (a fresh [`PathSetCache`] is
//! the cold solve), [`solve_from`] (the same, warm-started from an
//! earlier certificate's [`SolvedFlow::dual_lengths`]) and
//! [`certify_floor`] (for a caller that reads the answer only through
//! `λ ≥ floor`: each loop stops as soon as that comparison is
//! certified). Aggregated demand goes through [`solve_grouped`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod decompose;
mod exact;
mod fptas;
mod gk;
pub mod grouped;
mod ksp;

use std::fmt;

use dctopo_graph::certify::{self, Certificate, Violation};
use dctopo_graph::{CsrNet, GraphError};

/// Re-export: node index type used by [`Commodity`].
pub use dctopo_graph::NodeId;

pub use backend::{certify_floor, solve_from, solve_with_cache, Backend};
pub use cache::{CacheStats, KeyStats, PathSetCache, PATH_CACHE_KEYS};
pub use decompose::{decompose_paths, PathFlow};
pub use fptas::max_concurrent_flow_warm;
pub use grouped::{solve_grouped, DemandGroup};

/// One commodity: `demand` units want to travel from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Demand (must be positive and finite).
    pub demand: f64,
}

impl Commodity {
    /// Unit-demand commodity.
    pub fn unit(src: NodeId, dst: NodeId) -> Self {
        Commodity {
            src,
            dst,
            demand: 1.0,
        }
    }
}

/// Options for the throughput engine: iterative-solver tuning plus the
/// backend selector.
#[derive(Debug, Clone, Copy)]
pub struct FlowOptions {
    /// Multiplicative-weights step size ε (length multiplier per
    /// saturating augmentation is `1 + ε`). Smaller = slower, finer.
    pub epsilon: f64,
    /// Stop once the certified primal/dual gap satisfies
    /// `primal ≥ (1 - target_gap) · dual`.
    pub target_gap: f64,
    /// Hard phase budget; the solver returns its best certified answer
    /// when exhausted.
    pub max_phases: usize,
    /// Stop early once the primal has not improved by 0.05% for this
    /// many consecutive phases (the primal is certified-feasible at all
    /// times, but a stall does not place the remaining gap on the dual
    /// side: a loop whose phases route far more than λ*·d stalls below
    /// λ*, and one whose phases route far less barely moves the lengths,
    /// which is why every loop whose first estimate of λ* is outside
    /// `[1/4, 8]` routes its phases in a scaled unit). Set to
    /// `max_phases` to disable.
    pub stall_phases: usize,
    /// Which [`Backend`] the pairwise entries ([`solve_with_cache`],
    /// [`solve_from`], [`certify_floor`]) dispatch to. The iterative
    /// knobs above apply to the FPTAS and k-shortest-path backends;
    /// [`Backend::ExactLp`] ignores them. [`solve_grouped`] runs only
    /// the default.
    pub backend: Backend,
    /// Route [`Backend::Fptas`] through the strict trajectory
    /// (recompute every group's shortest-path tree per augmentation,
    /// fixed ε, the exact dual every eighth phase) instead of the
    /// default incremental fast path (tree reuse + increase-only
    /// Dijkstra repair).
    ///
    /// The strict trajectory is pinned bit for bit against the textbook
    /// Garg–Könemann model kept with the tests (`tests/gk_model.rs`);
    /// the fast path is certified the same way — a feasible flow and a
    /// `D(l)/α(l)` bound — and is bit-identical across thread counts,
    /// but follows its own (cheaper) trajectory. See
    /// `docs/ARCHITECTURE.md` for the full determinism contract.
    /// Ignored by the other backends; [`solve_grouped`] refuses it.
    pub strict_reference: bool,
    /// Also record each commodity's own arc flows
    /// ([`SolvedFlow::commodity_arc_flow`]), enabling
    /// [`decompose::decompose_paths`]. Costs `O(commodities × arcs)`
    /// memory plus a second tree walk per augmentation, so it is off by
    /// default. Honoured by every pairwise backend; [`solve_grouped`]
    /// keeps no per-commodity state and ignores it.
    pub record_commodity_flows: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            epsilon: 0.1,
            target_gap: 0.03,
            max_phases: 4000,
            stall_phases: 150,
            backend: Backend::Fptas,
            strict_reference: false,
            record_commodity_flows: false,
        }
    }
}

impl FlowOptions {
    /// A faster, looser profile for large sweeps (5% certified gap).
    pub fn fast() -> Self {
        FlowOptions {
            epsilon: 0.15,
            target_gap: 0.05,
            max_phases: 1500,
            stall_phases: 80,
            ..FlowOptions::default()
        }
    }

    /// A tighter profile for headline numbers (1.5% certified gap).
    pub fn precise() -> Self {
        FlowOptions {
            epsilon: 0.05,
            target_gap: 0.015,
            max_phases: 20000,
            stall_phases: 1000,
            ..FlowOptions::default()
        }
    }

    /// Same options with a different backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Same options with [`FlowOptions::strict_reference`] set.
    pub fn with_strict_reference(mut self, strict: bool) -> Self {
        self.strict_reference = strict;
        self
    }

    /// Same options with [`FlowOptions::record_commodity_flows`] set.
    pub fn with_commodity_flows(mut self, record: bool) -> Self {
        self.record_commodity_flows = record;
        self
    }
}

/// A solved max concurrent flow.
#[derive(Debug, Clone)]
pub struct SolvedFlow {
    /// Certified feasible concurrent throughput λ: every commodity `j`
    /// is simultaneously routed at rate ≥ `throughput · demand_j`.
    pub throughput: f64,
    /// Certified dual upper bound on the optimal λ: `D(l)/α(l)` at
    /// [`SolvedFlow::dual_lengths`] (for [`Backend::KspRestricted`],
    /// with `α` over the frozen paths, so it bounds the path-restricted
    /// problem; for [`Backend::ExactLp`], the lengths are the LP's optimal
    /// duals and the bound is λ*).
    pub upper_bound: f64,
    /// Feasible flow per directed arc (indexed by [`dctopo_graph::ArcId`]).
    pub arc_flow: Vec<f64>,
    /// Achieved rate per commodity (same order as the input slice). A
    /// [`solve_grouped`] answer holds one rate factor per group instead:
    /// sink `dst` of group `g` receives `commodity_rate[g] ·
    /// demand(dst)`.
    pub commodity_rate: Vec<f64>,
    /// Number of phases executed.
    pub phases: usize,
    /// Queue pops of every Dijkstra run the solver made (full trees,
    /// early-terminated runs and repairs alike, at every node count) —
    /// the work metric the fast-path FPTAS optimises.
    /// `0` for solvers that are not instrumented
    /// ([`Backend::ExactLp`], [`Backend::KspRestricted`]).
    pub settles: u64,
    /// Per-commodity arc flows (outer index = commodity in input
    /// order, inner = [`dctopo_graph::ArcId`]), scaled like
    /// [`SolvedFlow::arc_flow`] so that summing over commodities
    /// reproduces it. `Some` only when solved with
    /// [`FlowOptions::record_commodity_flows`]; the input for
    /// [`decompose::decompose_paths`].
    pub commodity_arc_flow: Option<Vec<Vec<f64>>>,
    /// The arc lengths `upper_bound` was read at — the last iterate or
    /// the fast path's running mean of the iterates, whichever gave the
    /// smallest bound, or the exact LP's optimal duals — one per arc. A
    /// later fast-path solve can open on them ([`solve_from`]).
    pub dual_lengths: Vec<f64>,
}

impl SolvedFlow {
    /// Total flow delivered, `Σⱼ rateⱼ`. Meaningful for pairwise
    /// answers only: a [`solve_grouped`] answer's rates are per-group
    /// factors.
    pub fn total_rate(&self) -> f64 {
        self.commodity_rate.iter().sum()
    }

    /// Average path length weighted by flow: total arc-hops of flow
    /// divided by total delivered rate. This is the `⟨D⟩·AS` term of the
    /// paper's throughput decomposition. Meaningful for pairwise
    /// answers only, as [`SolvedFlow::total_rate`] is.
    pub fn mean_flow_path_len(&self) -> f64 {
        let hops: f64 = self.arc_flow.iter().sum();
        let rate = self.total_rate();
        if rate > 0.0 {
            hops / rate
        } else {
            0.0
        }
    }

    /// Certified relative gap `(upper_bound - throughput) / upper_bound`.
    pub fn gap(&self) -> f64 {
        if self.upper_bound > 0.0 {
            (self.upper_bound - self.throughput) / self.upper_bound
        } else {
            0.0
        }
    }

    /// Re-derive this certificate, solved on `net` for `commodities`,
    /// with [`certify::check`]; `paths` are the frozen path sets of a
    /// [`Backend::KspRestricted`] solve ([`PathSetCache::freeze`]),
    /// whose bound covers only the restricted problem. Returns the
    /// re-derived bound.
    ///
    /// # Errors
    /// The first [`Violation`] the checker finds.
    pub fn certify(
        &self,
        net: &CsrNet,
        commodities: &[Commodity],
        paths: Option<&[cache::FrozenPathSet]>,
    ) -> Result<f64, Violation> {
        let demands: Vec<_> = commodities
            .iter()
            .map(|c| (c.src, c.dst, c.demand))
            .collect();
        let cert = Certificate {
            lambda: self.throughput,
            upper_bound: self.upper_bound,
            arc_flow: &self.arc_flow,
            rates: &self.commodity_rate,
            record: self.commodity_arc_flow.as_deref(),
            dual_lengths: &self.dual_lengths,
            paths,
        };
        certify::check(net, &demands, &cert)
    }
}

/// Debug builds re-derive what a producer returns with the checker and
/// panic on a violation; release builds do not run `checked`.
pub(crate) fn debug_certify<T>(checked: impl FnOnce() -> Result<T, Violation>) {
    if cfg!(debug_assertions) {
        if let Err(v) = checked() {
            panic!("certificate rejected: {v}");
        }
    }
}

/// Errors from the flow solver.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// No commodities were supplied.
    NoCommodities,
    /// A demand outside `[MIN_DEMAND, MAX_DEMAND]`: a commodity's, a
    /// sink's, or a demand group's total.
    BadDemand {
        /// Index of the offending commodity (or demand group) in the
        /// input slice.
        index: usize,
        /// The invalid demand value.
        demand: f64,
    },
    /// A commodity's endpoints coincide.
    SelfCommodity {
        /// Index of the offending commodity in the input slice.
        index: usize,
    },
    /// A commodity's destination is unreachable from its source.
    Unreachable {
        /// Source node.
        src: NodeId,
        /// Unreachable destination node.
        dst: NodeId,
    },
    /// Underlying graph error.
    Graph(GraphError),
    /// Options are invalid (ε or gap not in (0, 1), zero phase budget).
    BadOptions(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NoCommodities => write!(f, "no commodities supplied"),
            FlowError::BadDemand { index, demand } => {
                write!(
                    f,
                    "commodity {index} has demand {demand} outside [{MIN_DEMAND:e}, {MAX_DEMAND:e}]"
                )
            }
            FlowError::SelfCommodity { index } => {
                write!(f, "commodity {index} has src == dst")
            }
            FlowError::Unreachable { src, dst } => {
                write!(f, "destination {dst} unreachable from source {src}")
            }
            FlowError::Graph(e) => write!(f, "graph error: {e}"),
            FlowError::BadOptions(m) => write!(f, "bad solver options: {m}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}

/// Validate options and commodities against a network of `node_count`
/// nodes.
pub(crate) fn validate(
    node_count: usize,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<(), FlowError> {
    if commodities.is_empty() {
        return Err(FlowError::NoCommodities);
    }
    validate_opts(opts)?;
    for (index, c) in commodities.iter().enumerate() {
        if !demand_in_range(c.demand) {
            return Err(FlowError::BadDemand {
                index,
                demand: c.demand,
            });
        }
        if c.src == c.dst {
            return Err(FlowError::SelfCommodity { index });
        }
        node_in_range(c.src, node_count)?;
        node_in_range(c.dst, node_count)?;
    }
    Ok(())
}

/// The smallest demand a solve accepts. The routing loops stop charging
/// a remainder at `1e-12` of the unit their phases route in, so a demand
/// of at least `1e-6` loses at most a millionth of itself to that
/// residue. (A subnormal demand certified λ = ∞.)
pub const MIN_DEMAND: f64 = 1e-6;

/// The largest demand a solve accepts, per commodity or sink and per
/// [`DemandGroup`] total. A sum of under 2^32 of them stays below 1e25,
/// so no step load, group total or routed sum overflows (two `1e308`
/// demands summed to ∞ and read as an unreachable sink or a bound of
/// 0), and α weights them by path lengths the `1e100` rescale keeps far
/// from `f64::MAX`. λ, about capacity over demand, then stays a finite
/// normal float for every capacity within `1e±280`.
pub const MAX_DEMAND: f64 = 1e15;

/// `demand` lies in `[MIN_DEMAND, MAX_DEMAND]` (`NaN` does not).
pub(crate) fn demand_in_range(demand: f64) -> bool {
    (MIN_DEMAND..=MAX_DEMAND).contains(&demand)
}

/// `node` must name one of the net's `n` nodes.
pub(crate) fn node_in_range(node: NodeId, n: usize) -> Result<(), FlowError> {
    if node >= n {
        return Err(FlowError::Graph(GraphError::NodeOutOfRange { node, n }));
    }
    Ok(())
}

/// Validate the iterative-solver knobs every multiplicative-weights
/// entry point shares (pairwise and grouped alike).
pub(crate) fn validate_opts(opts: &FlowOptions) -> Result<(), FlowError> {
    if !(opts.epsilon > 0.0 && opts.epsilon < 1.0) {
        return Err(FlowError::BadOptions(format!(
            "epsilon {} not in (0,1)",
            opts.epsilon
        )));
    }
    if !(opts.target_gap > 0.0 && opts.target_gap < 1.0) {
        return Err(FlowError::BadOptions(format!(
            "target_gap {} not in (0,1)",
            opts.target_gap
        )));
    }
    if opts.max_phases == 0 {
        return Err(FlowError::BadOptions("max_phases must be positive".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_inputs() {
        let opts = FlowOptions::default();
        assert_eq!(validate(2, &[], &opts), Err(FlowError::NoCommodities));
        assert!(matches!(
            validate(
                2,
                &[Commodity {
                    src: 0,
                    dst: 1,
                    demand: -1.0
                }],
                &opts
            ),
            Err(FlowError::BadDemand { .. })
        ));
        assert!(matches!(
            validate(2, &[Commodity::unit(1, 1)], &opts),
            Err(FlowError::SelfCommodity { .. })
        ));
        assert!(matches!(
            validate(2, &[Commodity::unit(0, 9)], &opts),
            Err(FlowError::Graph(_))
        ));
        let bad = FlowOptions {
            epsilon: 0.0,
            ..opts
        };
        assert!(matches!(
            validate(2, &[Commodity::unit(0, 1)], &bad),
            Err(FlowError::BadOptions(_))
        ));
    }

    #[test]
    fn flow_options_profiles_ordered() {
        assert!(FlowOptions::precise().target_gap < FlowOptions::default().target_gap);
        assert!(FlowOptions::fast().target_gap >= FlowOptions::default().target_gap);
    }

    #[test]
    fn error_display_mentions_details() {
        let e = FlowError::Unreachable { src: 3, dst: 9 };
        assert!(e.to_string().contains('3') && e.to_string().contains('9'));
    }
}
