//! The multi-fidelity surrogate ladder: cheap, *sound* upper bounds a
//! candidate topology must clear before the search pays for a certified
//! solve.
//!
//! The bounds themselves are [`dctopo_core::ladder`]'s — the one copy
//! the sweep and the planner evaluate too — re-exported here; the
//! runner evaluates them on the candidate's own net + plan view. Level 0
//! is the Theorem-1-style hop bound `C / Σ_j d_j·hop_j` ([`hop_alpha`],
//! [`hop_bound`]), level 1 the demand-weighted cut bound
//! `C̄ / crossing demand` minimised over a fixed set of probe partitions
//! ([`cut_probes`], [`min_cut_bound`]): the switch-class partition
//! (where the heterogeneous experiments put their bottleneck) plus
//! seeded bisections. Both are noise against a certified solve.

pub use dctopo_core::ladder::{cut_probes, hop_alpha, hop_bound, min_cut_bound, CutProbe};
