//! The search engine's move vocabulary: structural rewires and
//! capacity-budget shifts, plus the [`CapacityPlan`] bookkeeping that
//! turns per-group line-speed multipliers into
//! [`CsrNet::with_capacity_overrides`] delta views.

use dctopo_graph::{ArcId, CsrNet, GraphError};
use dctopo_topology::moves::{apply_two_swap, two_swap_is_valid, TwoSwap};
use dctopo_topology::Topology;

/// One candidate move, addressable as data so batches can be generated
/// from seeds, evaluated in parallel, and replayed on acceptance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveKind {
    /// Degree-preserving double-edge rewire (structural family).
    TwoSwap(TwoSwap),
    /// Shift a slice of the line-speed budget from one class-pair link
    /// group to another (capacity family). `step` is the fraction of
    /// the donor group's *current* capacity that moves; the shift is
    /// budget-preserving by construction.
    ShiftCapacity {
        /// Donor link-group index (into [`CapacityPlan`] group order).
        donor: usize,
        /// Receiver link-group index.
        receiver: usize,
        /// Fraction of the donor's current capacity to move, in (0, 1).
        step: f64,
    },
}

/// What carrying out a move replaces: a rewire yields a new topology,
/// a capacity shift a new plan.
#[derive(Debug, Clone)]
pub enum Moved {
    /// The topology after a [`MoveKind::TwoSwap`].
    Topology(Topology),
    /// The plan after a [`MoveKind::ShiftCapacity`].
    Plan(CapacityPlan),
}

impl MoveKind {
    /// Carry the move out on `(topo, plan)` — the one application the
    /// search's candidate evaluation, its acceptance and the export
    /// replay all share. `mult_range` is the `[min, max]` multiplier
    /// band a capacity shift must stay inside.
    ///
    /// # Errors
    /// Why the move does not apply: an illegal swap or a shift outside
    /// the band.
    pub fn applied(
        &self,
        topo: &Topology,
        plan: &CapacityPlan,
        mult_range: (f64, f64),
    ) -> Result<Moved, String> {
        match *self {
            MoveKind::TwoSwap(swap) => {
                if !two_swap_is_valid(&topo.graph, &swap) {
                    return Err("illegal two-swap".into());
                }
                let mut topo = topo.clone();
                apply_two_swap(&mut topo.graph, &swap).expect("validated");
                Ok(Moved::Topology(topo))
            }
            MoveKind::ShiftCapacity {
                donor,
                receiver,
                step,
            } => plan
                .shifted(topo, donor, receiver, step, mult_range.0, mult_range.1)
                .map(Moved::Plan)
                .ok_or_else(|| "shift outside the line-card budget".into()),
        }
    }

    /// Whether this move changes the adjacency structure (and therefore
    /// invalidates structure-keyed caches).
    pub fn is_structural(&self) -> bool {
        !matches!(self, MoveKind::ShiftCapacity { .. })
    }

    /// Short display form for traces and CLI output.
    pub fn describe(&self) -> String {
        match self {
            MoveKind::TwoSwap(s) => {
                format!("two-swap({}, {}, cross={})", s.e1, s.e2, s.cross)
            }
            MoveKind::ShiftCapacity {
                donor,
                receiver,
                step,
            } => {
                format!("shift({donor} -> {receiver}, {:.0}%)", step * 100.0)
            }
        }
    }
}

/// Per-link-group line-speed multipliers over a topology's switch-class
/// structure.
///
/// A *link group* is an unordered switch-class pair `(c1 ≤ c2)`; every
/// edge belongs to the group of its endpoints' classes. The plan holds
/// one multiplier per group — the effective capacity of an edge is its
/// base capacity times its group's multiplier — and group membership is
/// recomputed from the graph on demand, so the plan survives structural
/// moves (which shuffle edge ids) unchanged.
///
/// The total budget `Σ_e base_e · mult(group(e))` is conserved exactly
/// by [`CapacityPlan::shifted`]; a uniform plan (all multipliers 1) is
/// the identity and produces no overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPlan {
    /// Unordered class pairs, sorted ascending — the group order every
    /// index in this module refers to.
    groups: Vec<(usize, usize)>,
    /// Multiplier per group (aligned with `groups`).
    mult: Vec<f64>,
}

impl CapacityPlan {
    /// The uniform plan over the class pairs present in `topo`'s graph
    /// (groups with no edges are not represented).
    pub fn uniform(topo: &Topology) -> Self {
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for e in topo.graph.edges() {
            let pair = class_pair(topo, e.u, e.v);
            if !groups.contains(&pair) {
                groups.push(pair);
            }
        }
        groups.sort_unstable();
        let mult = vec![1.0; groups.len()];
        CapacityPlan { groups, mult }
    }

    /// Number of link groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The class pair of group `g`.
    pub fn group_classes(&self, g: usize) -> (usize, usize) {
        self.groups[g]
    }

    /// Display name of group `g` (`large-small`, `tor-agg`, ...).
    pub fn group_name(&self, g: usize, topo: &Topology) -> String {
        let (a, b) = self.groups[g];
        format!("{}-{}", topo.classes[a].name, topo.classes[b].name)
    }

    /// Multiplier of group `g`.
    pub fn multiplier(&self, g: usize) -> f64 {
        self.mult[g]
    }

    /// All multipliers, in group order.
    pub fn multipliers(&self) -> &[f64] {
        &self.mult
    }

    /// The group index of an edge between switches `u` and `v`, if its
    /// class pair is represented.
    pub fn group_of(&self, topo: &Topology, u: usize, v: usize) -> Option<usize> {
        let pair = class_pair(topo, u, v);
        self.groups.binary_search(&pair).ok()
    }

    /// Base edge-capacity sum of group `g` in `topo`.
    pub fn group_base_capacity(&self, g: usize, topo: &Topology) -> f64 {
        topo.graph
            .edges()
            .iter()
            .filter(|e| class_pair(topo, e.u, e.v) == self.groups[g])
            .map(|e| e.capacity)
            .sum()
    }

    /// Total effective capacity counting both directions (comparable to
    /// [`CsrNet::total_capacity`]). Edges whose class pair the plan does
    /// not represent — e.g. a link a two-swap creates between classes
    /// that had no edges at plan-construction time — ride at
    /// multiplier 1.
    pub fn effective_capacity(&self, topo: &Topology) -> f64 {
        2.0 * topo
            .graph
            .edges()
            .iter()
            .map(|e| {
                let mult = self.group_of(topo, e.u, e.v).map_or(1.0, |g| self.mult[g]);
                e.capacity * mult
            })
            .sum::<f64>()
    }

    /// The per-edge capacity overrides materialising this plan over
    /// `topo`, ready for [`CsrNet::with_capacity_overrides`] (arc ids
    /// under the base numbering `2e`). Groups at multiplier 1 produce
    /// no entries, so the uniform plan is a free clone.
    pub fn overrides(&self, topo: &Topology) -> Vec<(ArcId, f64)> {
        let mut out = Vec::new();
        for (e, edge) in topo.graph.edges().iter().enumerate() {
            let mult = self
                .group_of(topo, edge.u, edge.v)
                .map_or(1.0, |g| self.mult[g]);
            if mult != 1.0 {
                out.push((e << 1, edge.capacity * mult));
            }
        }
        out
    }

    /// The delta view of `base` (which must be `topo.graph`'s net or a
    /// structure-preserving view of it) under this plan. Uniform plans
    /// return a plain clone, keeping the base `id` and every cache warm.
    ///
    /// # Errors
    /// As [`CsrNet::with_capacity_overrides`] (e.g. an override landing
    /// on a disabled arc).
    pub fn view(&self, topo: &Topology, base: &CsrNet) -> Result<CsrNet, GraphError> {
        base.with_capacity_overrides(&self.overrides(topo))
    }

    /// The plan after a budget-preserving [`MoveKind::ShiftCapacity`]:
    /// `step` of the donor group's current capacity moves to the
    /// receiver. Returns `None` when the move is invalid — identical or
    /// out-of-range groups, a step outside `(0, 1)`, an empty donor or
    /// receiver, or a resulting multiplier outside
    /// `[min_mult, max_mult]`.
    pub fn shifted(
        &self,
        topo: &Topology,
        donor: usize,
        receiver: usize,
        step: f64,
        min_mult: f64,
        max_mult: f64,
    ) -> Option<CapacityPlan> {
        if donor == receiver
            || donor >= self.groups.len()
            || receiver >= self.groups.len()
            || !(step > 0.0 && step < 1.0)
        {
            return None;
        }
        let donor_base = self.group_base_capacity(donor, topo);
        let receiver_base = self.group_base_capacity(receiver, topo);
        if donor_base <= 0.0 || receiver_base <= 0.0 {
            return None;
        }
        let delta = step * self.mult[donor] * donor_base;
        let new_donor = self.mult[donor] * (1.0 - step);
        let new_receiver = self.mult[receiver] + delta / receiver_base;
        if new_donor < min_mult || new_receiver > max_mult {
            return None;
        }
        let mut next = self.clone();
        next.mult[donor] = new_donor;
        next.mult[receiver] = new_receiver;
        Some(next)
    }
}

/// A move resolved against the exact graph state it was applied to:
/// edge *ids* (which [`dctopo_graph::Graph::remove_edge`] compacts on
/// every rewire) are replaced by endpoint pairs, and budget-preserving
/// capacity shifts by their multiplicative group factors — so the move
/// survives replay, reordering, and rollback. This is the interchange
/// form the reconfiguration planner (`dctopo-plan`) consumes; produce
/// it with [`crate::SearchResult::export_moves`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedMove {
    /// A degree-preserving rewire: remove the two `remove` endpoint
    /// pairs, add the two `add` pairs with capacities `cap` (the
    /// [`TwoSwap`] capacity-inheritance rule already applied).
    Rewire {
        /// Endpoint pairs of the two removed edges.
        remove: [(usize, usize); 2],
        /// Endpoint pairs of the two added edges.
        add: [(usize, usize); 2],
        /// Capacities of the two added edges, aligned with `add`.
        cap: [f64; 2],
    },
    /// A budget-preserving line-speed shift, resolved to the exact
    /// multiplicative factors it applied to the donor and receiver
    /// group multipliers. Factors compose commutatively, so a set of
    /// resolved shifts reaches the same final plan in any order
    /// (multiply in a fixed canonical order for bitwise determinism).
    Shift {
        /// Donor link-group index (in [`CapacityPlan`] group order).
        donor: usize,
        /// Receiver link-group index.
        receiver: usize,
        /// Factor applied to the donor's multiplier (`1 - step`, < 1).
        donor_factor: f64,
        /// Factor applied to the receiver's multiplier (> 1).
        receiver_factor: f64,
    },
}

impl ResolvedMove {
    /// Short display form for traces and CLI output.
    pub fn describe(&self) -> String {
        match self {
            ResolvedMove::Rewire { remove, add, .. } => format!(
                "rewire -({},{})-({},{}) +({},{})+({},{})",
                remove[0].0,
                remove[0].1,
                remove[1].0,
                remove[1].1,
                add[0].0,
                add[0].1,
                add[1].0,
                add[1].1
            ),
            ResolvedMove::Shift {
                donor,
                receiver,
                donor_factor,
                receiver_factor,
            } => format!("shift {donor} x{donor_factor:.3} -> {receiver} x{receiver_factor:.3}"),
        }
    }
}

/// The unordered class pair of an edge.
fn class_pair(topo: &Topology, u: usize, v: usize) -> (usize, usize) {
    let (a, b) = (topo.class_of[u], topo.class_of[v]);
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_topology::hetero::{two_cluster, CrossSpec};
    use dctopo_topology::ClusterSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hetero_topo() -> Topology {
        let mut rng = StdRng::seed_from_u64(8);
        two_cluster(
            ClusterSpec {
                count: 6,
                ports: 10,
                servers_per_switch: 3,
            },
            ClusterSpec {
                count: 6,
                ports: 8,
                servers_per_switch: 2,
            },
            CrossSpec::Exact(6),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn uniform_plan_covers_all_edges_and_is_identity() {
        let topo = hetero_topo();
        let plan = CapacityPlan::uniform(&topo);
        assert!(plan.group_count() >= 2 && plan.group_count() <= 3);
        assert!(plan.multipliers().iter().all(|&m| m == 1.0));
        assert!(plan.overrides(&topo).is_empty());
        let base = CsrNet::from_graph(&topo.graph);
        let view = plan.view(&topo, &base).unwrap();
        assert_eq!(view.id(), base.id(), "uniform plan must be a free clone");
        assert!((plan.effective_capacity(&topo) - base.total_capacity()).abs() < 1e-9);
    }

    #[test]
    fn shift_conserves_budget_and_respects_bounds() {
        let topo = hetero_topo();
        let plan = CapacityPlan::uniform(&topo);
        let before = plan.effective_capacity(&topo);
        let shifted = plan.shifted(&topo, 0, 1, 0.25, 0.5, 2.0).unwrap();
        let after = shifted.effective_capacity(&topo);
        assert!(
            (before - after).abs() < 1e-9 * before,
            "budget drifted: {before} -> {after}"
        );
        assert!(shifted.multiplier(0) < 1.0 && shifted.multiplier(1) > 1.0);
        // repeated shifting out of the donor eventually hits min_mult
        let mut p = plan.clone();
        let mut shifts = 0;
        while let Some(next) = p.shifted(&topo, 0, 1, 0.25, 0.5, 4.0) {
            p = next;
            shifts += 1;
            assert!(shifts < 100, "min_mult bound never engaged");
        }
        assert!(p.multiplier(0) >= 0.5);
        // invalid moves
        assert!(plan.shifted(&topo, 0, 0, 0.25, 0.5, 2.0).is_none());
        assert!(plan.shifted(&topo, 0, 99, 0.25, 0.5, 2.0).is_none());
        assert!(plan.shifted(&topo, 0, 1, 0.0, 0.5, 2.0).is_none());
        assert!(plan.shifted(&topo, 0, 1, 1.0, 0.5, 2.0).is_none());
    }

    #[test]
    fn overrides_land_on_the_right_edges() {
        let topo = hetero_topo();
        let plan = CapacityPlan::uniform(&topo);
        let shifted = plan.shifted(&topo, 0, 1, 0.5, 0.25, 3.0).unwrap();
        let base = CsrNet::from_graph(&topo.graph);
        let view = shifted.view(&topo, &base).unwrap();
        assert_eq!(
            view.structure_id(),
            base.structure_id(),
            "capacity plan views must preserve structure"
        );
        for (e, edge) in topo.graph.edges().iter().enumerate() {
            let g = shifted.group_of(&topo, edge.u, edge.v).unwrap();
            let want = edge.capacity * shifted.multiplier(g);
            assert!(
                (view.capacity(e << 1) - want).abs() < 1e-12,
                "edge {e} (group {g}) capacity wrong"
            );
        }
        // budget conservation is visible in the view too
        assert!((view.total_capacity() - base.total_capacity()).abs() < 1e-9);
    }

    #[test]
    fn plan_survives_structural_edge_id_shuffles() {
        // group membership is a function of endpoints, so applying a
        // two-swap (which compacts edge ids) must not corrupt the plan
        let mut topo = hetero_topo();
        let plan = CapacityPlan::uniform(&topo);
        let shifted = plan.shifted(&topo, 0, 1, 0.25, 0.5, 2.0).unwrap();
        let before = shifted.effective_capacity(&topo);
        let m = topo.graph.edge_count();
        let swap = (0..m)
            .flat_map(|e1| (0..m).map(move |e2| (e1, e2)))
            .flat_map(|(e1, e2)| {
                [false, true]
                    .into_iter()
                    .map(move |cross| TwoSwap { e1, e2, cross })
            })
            .find(|s| {
                // keep the swap class-internal so group sums are preserved
                dctopo_topology::moves::two_swap_is_valid(&topo.graph, s) && {
                    let ((x1, y1), (x2, y2)) =
                        dctopo_topology::moves::two_swap_endpoints(&topo.graph, s).unwrap();
                    let e1 = topo.graph.edge(s.e1);
                    let e2 = topo.graph.edge(s.e2);
                    class_pair(&topo, x1, y1) == class_pair(&topo, e1.u, e1.v)
                        && class_pair(&topo, x2, y2) == class_pair(&topo, e2.u, e2.v)
                }
            })
            .expect("some class-internal swap exists");
        dctopo_topology::moves::apply_two_swap(&mut topo.graph, &swap).unwrap();
        let after = shifted.effective_capacity(&topo);
        assert!((before - after).abs() < 1e-9 * before);
    }

    #[test]
    fn move_kind_descriptions() {
        assert!(MoveKind::TwoSwap(TwoSwap {
            e1: 3,
            e2: 7,
            cross: true
        })
        .is_structural());
        let shift = MoveKind::ShiftCapacity {
            donor: 0,
            receiver: 1,
            step: 0.25,
        };
        assert!(!shift.is_structural());
        assert!(shift.describe().contains("25%"));
    }
}
