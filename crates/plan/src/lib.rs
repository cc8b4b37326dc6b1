//! # dctopo-plan
//!
//! The **reconfiguration planner**: certified-safe migration orderings
//! between two topologies, with counter-example-guided pruning and
//! parallel execution DAGs.
//!
//! The paper treats topology design as an optimization problem; this
//! crate treats topology *transitions* the same way. Given a source
//! topology `A` and a target `B` expressed as a set of resolved move
//! primitives ([`dctopo_search::ResolvedMove`]: degree-preserving
//! rewires and budget-preserving line-speed shifts), the planner
//! searches for an execution ordering in which **every intermediate
//! state keeps a certified throughput λ at or above a safety floor**
//! (default `0.9 · min(λ_A, λ_B)`), where each step's in-flight move is
//! modeled as a transient link failure: its removed links are already
//! down while its added links are not yet up.
//!
//! ## The union net: prefix states as composed delta views
//!
//! [`Migration::new`] assembles one **union graph** — `A`'s edges plus
//! every edge any move adds — and flattens it to a single
//! [`dctopo_graph::CsrNet`] exactly once. Every intermediate state of
//! every candidate ordering is then a *composed delta view* of that one
//! base: capacity overrides (line-speed multipliers from applied
//! shifts) layered on the fully-live base first, then disabled arcs
//! (edges not yet added, already removed, or in flight) on top. No
//! graph is ever rebuilt mid-search, and the view-composition laws
//! pinned in `dctopo-graph` guarantee the stack is order-insensitive
//! where it must be.
//!
//! ## Certification: sound bounds screen, certified solves decide
//!
//! Step safety climbs the same fidelity ladder as the search engine —
//! [`dctopo_core::ladder`], evaluated on the step's in-flight view: the
//! Theorem-1-style hop bound and the cut bounds are **upper** bounds on
//! λ, so a step whose bound is below the floor is rejected without a
//! solve — soundly. The same bounds double as a
//! **best-bound-first scan order**: at every depth the planner
//! certifies the most promising candidate (typically a
//! capacity-restoring move when the floor is churn-tight) before paying
//! for any other, so doomed candidates are rarely even attempted. Only
//! a certified lower bound from the flow solver (via
//! [`dctopo_core::ThroughputEngine`]) ever *accepts* a step. Because
//! the transient view is pointwise dominated by the post-step state,
//! its certificate also certifies the completed prefix.
//! `planner::tests::every_screen_bounds_the_certified_lambda_of_its_view`
//! certifies every candidate view along a returned order against the
//! bound that screens it.
//!
//! ## Counter-example-guided pruning
//!
//! When a step fails its floor, the planner extracts an *offending
//! move pair*: it looks for a rescuer move `u` whose prior execution
//! provably (certified) makes the failing move `m` safe, and learns
//! `u ≺ m` as a hard ordering constraint. Learned constraints prune
//! every future ordering that repeats the mistake; a memo table on
//! (prefix-state, move) avoids re-certifying known-bad steps after
//! backtracking. If the pruned search exhausts, it retries once without
//! learned constraints, so pruning never costs completeness.
//!
//! ## Output: a maximally-parallel execution DAG
//!
//! A safe ordering is compacted into contiguous **stages** of moves
//! that may execute concurrently: a stage is extended while its moves
//! are mutually independent *and* the combined view with the whole
//! stage in flight still certifies above the floor — which dominates
//! every interleaving of the stage's members. When the search finds no
//! safe ordering within its budget and the greedy best-floor fallback
//! violates the floor too, the planner returns the typed
//! [`planner::PlanError::NoSafeOrdering`] carrying the best floor
//! reached, the witness prefix, the learned conflicts, and a degraded
//! best-floor ordering with its violation list.
//!
//! ## Determinism
//!
//! Planning is bit-identical across reruns and thread counts: bound
//! screening is evaluated on the worker pool with index-ordered
//! assembly, every extra cut probe derives its seed from
//! `(depth, candidate)` grid coordinates via the workspace's splitmix64
//! discipline, and the flow backends are themselves thread-pinned.
//! `tests/plan_determinism.rs` pins plan fingerprints at 1, 2, and 8
//! threads.

#![warn(missing_docs)]

pub mod migration;
pub mod planner;

pub use migration::{cross_churn, maintenance_churn, Migration, UnionEdge};
pub use planner::{
    plan_migration, Conflict, DegradedPlan, MigrationPlan, PlanError, PlanSpec, PlanStage,
    PlanStats,
};
