//! # dctopo-search
//!
//! The topology **search engine**: deterministic, parallel local search
//! / simulated annealing over the data-center design space the paper
//! frames as an optimization problem (§1: "we propose that data center
//! network topology design be treated as an optimization problem").
//!
//! The paper's headline results are statements about this search space:
//! random regular graphs land within a few percent of the Theorem-1
//! throughput bound (so *structural* search should barely improve on an
//! RRG), while heterogeneous port/line-speed distribution leaves real
//! gains on the table (so *capacity* search should find them). This
//! crate makes both claims executable.
//!
//! ## Move families ([`moves`])
//!
//! * **Structural** — degree-preserving double-edge rewires
//!   ([`dctopo_topology::moves::TwoSwap`]). Every switch keeps its
//!   port budget and the capacity multiset is preserved.
//! * **Capacity** — line-speed budget reallocation across switch-class
//!   link groups ([`moves::CapacityPlan`]): multipliers per
//!   `(class, class)` group, shifted budget-preservingly between groups
//!   and applied as [`dctopo_graph::CsrNet::with_capacity_overrides`]
//!   delta views, so the base net's `structure_id` (and therefore the
//!   frozen path-set cache) stays warm across every candidate.
//!
//! ## The multi-fidelity ladder
//!
//! Certified solves are ~10⁴× the cost of a BFS sweep, so candidates
//! climb a ladder and only survivors pay for certification. The bounds
//! are [`dctopo_core::ladder`]'s — the one copy the sweep and the
//! planner evaluate too — on the net + plan view the candidate would be
//! solved on:
//!
//! 1. **Hop bound** (level 0) — the Theorem-1-style hard bound
//!    `C / Σ_j d_j·hop_j` from 64-lane batched multi-source BFS
//!    ([`hop_alpha`](dctopo_core::ladder::hop_alpha)).
//!    Structural candidates must *strictly improve* it.
//! 2. **Cut bound** (level 1) — `C̄ / crossing demand`
//!    ([`min_cut_bound`](dctopo_core::ladder::min_cut_bound)) over
//!    fixed probe partitions ([`CutProbe`](dctopo_core::ladder::CutProbe)):
//!    a candidate whose tightest cut bound cannot beat the incumbent's
//!    certified λ is pruned *soundly*.
//! 3. **Certified solve** (level 2) — the FPTAS / KSP backend selected
//!    by [`dctopo_flow::FlowOptions::backend`], warm-started through
//!    the shared path-set cache for capacity candidates.
//!
//! The gates are part of the acceptance semantics, not just an
//! optimisation: a move is accepted only if it passes every level
//! *and* strictly improves the certified λ. The cut gate is sound: a
//! candidate it prunes certifies at or below the round's prune floor,
//! so it could not have been accepted
//! (`runner::tests::every_pruned_candidate_certifies_below_what_could_be_accepted`
//! certifies every pruned candidate of a search to check it; dcbench's
//! `search.prune_ratio` reads the share pruned).
//!
//! ## Determinism contract
//!
//! Every random choice derives from [`runner::SearchSpec::seed`] and
//! grid coordinates (`(round, move index)` for moves, probe index for
//! cut probes) — never from evaluation order. Batches are evaluated on
//! the persistent worker pool with index-ordered assembly, and every
//! backend is itself bit-identical across thread counts, so a search
//! trajectory is **bit-identical at every thread count and across
//! reruns** (pinned by `tests/search_determinism.rs`).

#![warn(missing_docs)]

pub mod moves;
pub mod runner;

pub use moves::{CapacityPlan, MoveKind, ResolvedMove};
pub use runner::{
    AcceptedMove, CapacityBudget, Certificate, Outcome, RoundTrace, SearchResult, SearchRunner,
    SearchSpec,
};
