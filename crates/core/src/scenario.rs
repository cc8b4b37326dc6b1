//! Failure / degradation scenarios: ordered lists of cheap degradations
//! applied to a base topology's [`CsrNet`] as delta views.
//!
//! A [`Scenario`] is a recipe — *which* equipment degrades is chosen
//! deterministically against the **base** topology by the seeded
//! generators in [`dctopo_topology::degrade`], and *how* it degrades is
//! applied to the current view through `CsrNet`'s delta constructors
//! ([`CsrNet::with_disabled_arcs`] and friends). Arc ids are stable
//! across views, so degradations compose in order without any
//! renumbering bookkeeping, and one base net serves every scenario of a
//! sweep without being copied.
//!
//! Switch failures also mark servers dead: the traffic layer
//! ([`crate::solve::ThroughputEngine::scenario_demand`]) drops every flow
//! whose endpoint server sits on a failed switch, mirroring the paper's
//! model where a failed ToR takes its hosts down with it.
//!
//! ## Cache validity across scenarios
//!
//! Capacity-only degradations ([`Degradation::ScaleCapacity`],
//! [`Degradation::LineCardMix`]) preserve the base net's
//! `structure_id`, so the engine's hop-metric path-set cache stays warm
//! for every such cell. Failure degradations change the structure and
//! force a re-freeze — exactly when the frozen paths could be invalid.
//!
//! The FPTAS warm start crosses every degradation, structural ones
//! included: arc ids are the base net's in every view, so the
//! undegraded view's certificate lengths index a failure view's arcs
//! too. [`crate::sweep::SweepRunner`] opens each degraded default-FPTAS
//! cell on them; the solver heals what a view changed (dead arcs get
//! length 0, a non-positive entry the cold `1/c`) and its bound holds
//! for any positive lengths, so the answer is as certified as a cold
//! one.

use dctopo_graph::{CsrNet, GraphError};
use dctopo_topology::{degrade, Topology};

/// One degradation step. Selection is seeded and performed against the
/// **base** topology (see [`dctopo_topology::degrade`] for the nesting
/// guarantees); application composes onto the current view.
#[derive(Debug, Clone, PartialEq)]
pub enum Degradation {
    /// Fail `count` links: the first `count` entries of the seeded edge
    /// failure order. Same seed + larger count = strict superset
    /// (monotone failure levels).
    FailLinks {
        /// Number of links to fail.
        count: usize,
        /// Selection seed (hold fixed across failure levels).
        seed: u64,
    },
    /// Fail `count` switches: every incident link goes down and every
    /// server on the switch stops sending and receiving.
    FailSwitches {
        /// Number of switches to fail.
        count: usize,
        /// Selection seed.
        seed: u64,
    },
    /// Scale every live link's capacity by `factor` (uniform re-rating).
    ScaleCapacity {
        /// Multiplicative factor (must be positive and finite).
        factor: f64,
    },
    /// Re-rate a seeded `fraction` of the links to `factor ×` their
    /// **base** capacity — a heterogeneous line-card mix (§5.2).
    /// Links already failed by an earlier degradation are skipped.
    LineCardMix {
        /// Fraction of links re-rated, clamped to `[0, 1]`.
        fraction: f64,
        /// Line-speed multiple relative to the base capacity.
        factor: f64,
        /// Selection seed.
        seed: u64,
    },
}

/// A named, ordered degradation recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (used in sweep cell records).
    pub name: String,
    /// Degradations applied in order.
    pub degradations: Vec<Degradation>,
}

impl Scenario {
    /// The undegraded baseline (empty recipe).
    pub fn baseline() -> Self {
        Scenario {
            name: "baseline".into(),
            degradations: Vec::new(),
        }
    }

    /// A named recipe.
    pub fn new(name: impl Into<String>, degradations: Vec<Degradation>) -> Self {
        Scenario {
            name: name.into(),
            degradations,
        }
    }

    /// Apply the recipe to `topo`'s base net, producing the degraded
    /// view plus the failed-switch mask.
    ///
    /// `base` must be the [`CsrNet`] of `topo.graph` (or a view of it
    /// with the base arc numbering): selection indices are translated
    /// into arc ids under the base numbering, which every view
    /// preserves. An empty recipe returns a plain clone of `base` —
    /// same `id`, so engine caches keep serving it.
    ///
    /// # Errors
    /// [`GraphError::Unrealizable`] when a count exceeds the available
    /// equipment; capacity errors ([`GraphError::BadCapacity`]) from the
    /// delta constructors for invalid factors.
    pub fn apply(&self, topo: &Topology, base: &CsrNet) -> Result<AppliedScenario, GraphError> {
        let n = topo.switch_count();
        let mut net = base.clone();
        let mut failed_switch = vec![false; n];
        for d in &self.degradations {
            match *d {
                Degradation::FailLinks { count, seed } => {
                    let order = degrade::edge_failure_order(&topo.graph, seed);
                    if count > order.len() {
                        return Err(GraphError::Unrealizable(format!(
                            "cannot fail {count} links, topology has {}",
                            order.len()
                        )));
                    }
                    let arcs: Vec<usize> = order[..count].iter().map(|&e| e << 1).collect();
                    net = net.with_disabled_arcs(&arcs)?;
                }
                Degradation::FailSwitches { count, seed } => {
                    let order = degrade::switch_failure_order(n, seed);
                    if count > n {
                        return Err(GraphError::Unrealizable(format!(
                            "cannot fail {count} switches, topology has {n}"
                        )));
                    }
                    let mut arcs = Vec::new();
                    for &v in &order[..count] {
                        failed_switch[v] = true;
                        let (incident, _) = base.out_slots(v);
                        arcs.extend(incident.iter().map(|&a| a as usize));
                    }
                    net = net.with_disabled_arcs(&arcs)?;
                }
                Degradation::ScaleCapacity { factor } => {
                    net = net.with_scaled_capacity(factor)?;
                }
                Degradation::LineCardMix {
                    fraction,
                    factor,
                    seed,
                } => {
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(GraphError::BadCapacity { capacity: factor });
                    }
                    let overrides: Vec<(usize, f64)> =
                        degrade::line_card_mix(&topo.graph, fraction, factor, seed)
                            .into_iter()
                            .map(|(e, c)| (e << 1, c))
                            .filter(|&(a, _)| net.is_live(a))
                            .collect();
                    net = net.with_capacity_overrides(&overrides)?;
                }
            }
        }
        Ok(AppliedScenario { net, failed_switch })
    }
}

/// A scenario materialised against one base topology: the degraded
/// delta view plus which switches (and therefore which servers) died.
#[derive(Debug, Clone)]
pub struct AppliedScenario {
    /// The degraded network view (base arc numbering preserved).
    pub net: CsrNet,
    /// `failed_switch[v]` — switch `v` (and its servers) is down.
    pub failed_switch: Vec<bool>,
}

impl AppliedScenario {
    /// Number of failed switches.
    pub fn failed_switch_count(&self) -> usize {
        self.failed_switch.iter().filter(|&&f| f).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo() -> Topology {
        let mut rng = StdRng::seed_from_u64(11);
        Topology::random_regular(12, 8, 4, &mut rng).unwrap()
    }

    #[test]
    fn baseline_is_plain_clone() {
        let t = topo();
        let net = CsrNet::from_graph(&t.graph);
        let a = Scenario::baseline().apply(&t, &net).unwrap();
        assert_eq!(a.net.id(), net.id(), "empty recipe must keep identity");
        assert_eq!(a.failed_switch_count(), 0);
    }

    #[test]
    fn link_failures_are_nested_across_levels() {
        let t = topo();
        let net = CsrNet::from_graph(&t.graph);
        let at = |count| {
            Scenario::new(
                format!("fail{count}"),
                vec![Degradation::FailLinks { count, seed: 5 }],
            )
            .apply(&t, &net)
            .unwrap()
        };
        let lo = at(2);
        let hi = at(5);
        assert_eq!(lo.net.live_arc_count(), net.live_arc_count() - 4);
        assert_eq!(hi.net.live_arc_count(), net.live_arc_count() - 10);
        // nesting: every arc dead at level 2 is dead at level 5
        for a in 0..net.arc_count() {
            if !lo.net.is_live(a) {
                assert!(!hi.net.is_live(a), "arc {a} resurrected at level 5");
            }
        }
    }

    #[test]
    fn switch_failure_kills_incident_links_and_marks_servers() {
        let t = topo();
        let net = CsrNet::from_graph(&t.graph);
        let a = Scenario::new("sw", vec![Degradation::FailSwitches { count: 2, seed: 3 }])
            .apply(&t, &net)
            .unwrap();
        assert_eq!(a.failed_switch_count(), 2);
        for v in 0..t.switch_count() {
            if a.failed_switch[v] {
                assert_eq!(a.net.out_degree(v), 0, "failed switch {v} still wired");
            }
        }
        // every live arc avoids failed switches entirely
        for arc in 0..a.net.arc_count() {
            if a.net.is_live(arc) {
                assert!(!a.failed_switch[a.net.arc_tail(arc)]);
                assert!(!a.failed_switch[a.net.arc_head(arc)]);
            }
        }
    }

    #[test]
    fn ordered_composition_scales_then_fails() {
        let t = topo();
        let net = CsrNet::from_graph(&t.graph);
        let a = Scenario::new(
            "combo",
            vec![
                Degradation::ScaleCapacity { factor: 2.0 },
                Degradation::FailLinks { count: 3, seed: 1 },
                Degradation::LineCardMix {
                    fraction: 0.25,
                    factor: 10.0,
                    seed: 1,
                },
            ],
        )
        .apply(&t, &net)
        .unwrap();
        assert_eq!(a.net.live_arc_count(), net.live_arc_count() - 6);
        // mix entries are 10x the BASE capacity (selection yields base
        // capacity × factor), untouched live links are 2x
        let mixed: std::collections::HashSet<usize> =
            dctopo_topology::degrade::line_card_mix(&t.graph, 0.25, 10.0, 1)
                .into_iter()
                .map(|(e, _)| e)
                .collect();
        for e in 0..t.graph.edge_count() {
            let arc = e << 1;
            if !a.net.is_live(arc) {
                assert_eq!(a.net.capacity(arc), 0.0);
            } else if mixed.contains(&e) {
                assert_eq!(a.net.capacity(arc), t.graph.edge(e).capacity * 10.0);
            } else {
                assert_eq!(a.net.capacity(arc), t.graph.edge(e).capacity * 2.0);
            }
        }
    }

    #[test]
    fn over_budget_counts_are_typed_errors() {
        let t = topo();
        let net = CsrNet::from_graph(&t.graph);
        let links = t.graph.edge_count();
        let err = Scenario::new(
            "too-many",
            vec![Degradation::FailLinks {
                count: links + 1,
                seed: 0,
            }],
        )
        .apply(&t, &net);
        assert!(matches!(err, Err(GraphError::Unrealizable(_))));
        let err = Scenario::new(
            "bad-factor",
            vec![Degradation::ScaleCapacity { factor: -1.0 }],
        )
        .apply(&t, &net);
        assert!(matches!(
            err,
            Err(GraphError::BadCapacity { capacity }) if capacity == -1.0
        ));
        let err = Scenario::new(
            "bad-mix",
            vec![Degradation::LineCardMix {
                fraction: 0.5,
                factor: f64::NAN,
                seed: 0,
            }],
        )
        .apply(&t, &net);
        assert!(matches!(err, Err(GraphError::BadCapacity { .. })));
    }
}
