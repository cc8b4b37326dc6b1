//! The migration model: a source topology plus a set of resolved moves,
//! flattened into one **union net** whose delta views materialise every
//! intermediate state of every candidate ordering.
//!
//! The union graph holds `A`'s edges (live initially) followed by every
//! edge any move adds (dead initially), flattened to a single
//! [`CsrNet`] once. A prefix state is then a pure function of the *set*
//! of applied moves — capacity multipliers compose commutatively, and
//! edge liveness depends only on whether an edge's adder has run and
//! its remover has not — so the planner can evaluate any ordering
//! without ever rebuilding a graph.

use std::collections::{HashMap, HashSet};

use dctopo_graph::mix::derive_seed;
use dctopo_graph::{CsrNet, Graph};
use dctopo_search::{CapacityPlan, ResolvedMove};
use dctopo_topology::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::planner::PlanError;

/// Seed domain for the churn generator's RNG.
const DOMAIN_CHURN: u64 = 0x706C_616E_6368; // "planch"

/// One edge of the union net: a base edge of `A` or an edge added by
/// some move, annotated with the moves that create and destroy it.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionEdge {
    /// One endpoint switch.
    pub u: usize,
    /// The other endpoint switch.
    pub v: usize,
    /// Base capacity (before line-speed multipliers).
    pub cap: f64,
    /// Link group (class-pair index in [`CapacityPlan`] order), if the
    /// endpoint class pair is represented in `A`; edges outside every
    /// group ride at multiplier 1.
    pub group: Option<usize>,
    /// Index of the move that adds this edge; `None` for `A`'s edges,
    /// which are live from the start.
    pub added_by: Option<usize>,
    /// Index of the move that removes this edge; `None` for edges that
    /// survive into `B`.
    pub removed_by: Option<usize>,
}

/// A validated `A → B` migration: the union net, the per-edge
/// lifecycle annotations, and the *structural* precedence constraints
/// that any execution order must respect (a move that removes an edge
/// must run after the move that added it; a move that re-adds an edge
/// at endpoints where an earlier move removed one must run after that
/// removal, so the executed edge bindings match the declared replay).
#[derive(Debug, Clone)]
pub struct Migration {
    moves: Vec<ResolvedMove>,
    edges: Vec<UnionEdge>,
    base: CsrNet,
    /// Structural predecessors per move (sorted, deduplicated).
    preds: Vec<Vec<usize>>,
    group_count: usize,
}

impl Migration {
    /// Validate `moves` against `topo` and assemble the union net.
    ///
    /// The moves are *declared* in replay order — each rewire's removed
    /// endpoint pairs must resolve against the state produced by
    /// replaying every earlier move — but execution order is the
    /// planner's to choose, subject to [`Migration::preds`].
    ///
    /// # Errors
    /// [`PlanError::InvalidMigration`] when a removal has no matching
    /// live edge under replay, an endpoint or link group is out of
    /// range, or a capacity/factor is not finite and positive;
    /// [`PlanError::Graph`] if the union graph itself is malformed.
    pub fn new(topo: &Topology, moves: &[ResolvedMove]) -> Result<Migration, PlanError> {
        let n = topo.switch_count();
        let plan = CapacityPlan::uniform(topo);
        let group_count = plan.group_count();
        let mut edges: Vec<UnionEdge> = topo
            .graph
            .edges()
            .iter()
            .map(|e| UnionEdge {
                u: e.u,
                v: e.v,
                cap: e.capacity,
                group: plan.group_of(topo, e.u, e.v),
                added_by: None,
                removed_by: None,
            })
            .collect();

        // Replay stacks: live union-edge indices per unordered endpoint
        // pair (last added on top — removals bind to the newest match),
        // plus the removals seen so far at each pair (for the re-add
        // ordering constraint).
        let key = |u: usize, v: usize| (u.min(v), u.max(v));
        let mut live: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (i, e) in edges.iter().enumerate() {
            live.entry(key(e.u, e.v)).or_default().push(i);
        }
        let mut removed_at: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); moves.len()];

        for (i, mv) in moves.iter().enumerate() {
            match mv {
                ResolvedMove::Rewire { remove, add, cap } => {
                    for &(u, v) in remove {
                        if u >= n || v >= n {
                            return Err(PlanError::InvalidMigration(format!(
                                "move {i}: endpoint out of range in removal ({u}, {v})"
                            )));
                        }
                        let stack = live.get_mut(&key(u, v));
                        let Some(e) = stack.and_then(|s| s.pop()) else {
                            return Err(PlanError::InvalidMigration(format!(
                                "move {i}: removes ({u}, {v}) but no live edge matches \
                                 under replay"
                            )));
                        };
                        edges[e].removed_by = Some(i);
                        if let Some(adder) = edges[e].added_by {
                            preds[i].push(adder);
                        }
                        removed_at.entry(key(u, v)).or_default().push(i);
                    }
                    for (slot, &(u, v)) in add.iter().enumerate() {
                        let c = cap[slot];
                        if u >= n || v >= n || u == v {
                            return Err(PlanError::InvalidMigration(format!(
                                "move {i}: bad added edge ({u}, {v})"
                            )));
                        }
                        if !(c.is_finite() && c > 0.0) {
                            return Err(PlanError::InvalidMigration(format!(
                                "move {i}: bad added capacity {c}"
                            )));
                        }
                        // Execute after every earlier removal at these
                        // endpoints, so live-edge bindings match replay.
                        if let Some(removers) = removed_at.get(&key(u, v)) {
                            for &k in removers {
                                if k != i {
                                    preds[i].push(k);
                                }
                            }
                        }
                        let e = edges.len();
                        edges.push(UnionEdge {
                            u,
                            v,
                            cap: c,
                            group: plan.group_of(topo, u, v),
                            added_by: Some(i),
                            removed_by: None,
                        });
                        live.entry(key(u, v)).or_default().push(e);
                    }
                }
                ResolvedMove::Shift {
                    donor,
                    receiver,
                    donor_factor,
                    receiver_factor,
                } => {
                    if *donor >= group_count || *receiver >= group_count || donor == receiver {
                        return Err(PlanError::InvalidMigration(format!(
                            "move {i}: bad link groups {donor} -> {receiver} \
                             ({group_count} groups)"
                        )));
                    }
                    for f in [*donor_factor, *receiver_factor] {
                        if !(f.is_finite() && f > 0.0) {
                            return Err(PlanError::InvalidMigration(format!(
                                "move {i}: bad shift factor {f}"
                            )));
                        }
                    }
                }
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }

        let mut union = Graph::new(n);
        for e in &edges {
            union.add_edge(e.u, e.v, e.cap)?;
        }
        Ok(Migration {
            moves: moves.to_vec(),
            edges,
            base: CsrNet::from_graph(&union),
            preds,
            group_count,
        })
    }

    /// The declared moves, in replay order.
    pub fn moves(&self) -> &[ResolvedMove] {
        &self.moves
    }

    /// Number of moves.
    pub fn move_count(&self) -> usize {
        self.moves.len()
    }

    /// The union-net edges with their lifecycle annotations.
    pub fn edges(&self) -> &[UnionEdge] {
        &self.edges
    }

    /// The fully-live union net every state view composes over.
    pub fn base(&self) -> &CsrNet {
        &self.base
    }

    /// Structural predecessors of move `i`: moves that must have
    /// completed before `i` may start, in any safe ordering.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// The intermediate state with the moves in `applied` completed and
    /// the moves in `inflight` mid-execution, as a composed delta view
    /// of the union base.
    ///
    /// An in-flight rewire has its removed links already down and its
    /// added links not yet up; an in-flight shift has lowered its donor
    /// group but not yet raised its receiver. Both are pointwise
    /// dominated by the corresponding completed state, so a certificate
    /// for the in-flight view also certifies the completed prefix.
    ///
    /// Capacity overrides are layered on the fully-live base *first*
    /// and disabled arcs on top — the order the view-composition laws
    /// in `dctopo-graph` require, since overriding a disabled arc is
    /// unrealizable.
    ///
    /// `applied` is indexed by move; `inflight` moves must not also be
    /// marked applied.
    ///
    /// # Errors
    /// [`PlanError::AppliedLength`] when `applied` is not one entry per
    /// move; [`PlanError::InflightMove`] for the first in-flight index
    /// that is out of range or also applied; [`PlanError::Graph`] from
    /// view construction (cannot occur for in-range states of a
    /// validated migration).
    pub fn state_view(&self, applied: &[bool], inflight: &[usize]) -> Result<CsrNet, PlanError> {
        let moves = self.moves.len();
        if applied.len() != moves {
            return Err(PlanError::AppliedLength {
                len: applied.len(),
                moves,
            });
        }
        if let Some(&index) = inflight.iter().find(|&&i| i >= moves || applied[i]) {
            return Err(PlanError::InflightMove { index, moves });
        }
        let infl = |i: usize| inflight.contains(&i);

        // Group multipliers: product of applied shift factors in move
        // index order (commutative, but a fixed order keeps the float
        // products bitwise deterministic).
        let mut mult = vec![1.0f64; self.group_count];
        for (i, mv) in self.moves.iter().enumerate() {
            if let ResolvedMove::Shift {
                donor,
                receiver,
                donor_factor,
                receiver_factor,
            } = mv
            {
                if applied[i] {
                    mult[*donor] *= donor_factor;
                    mult[*receiver] *= receiver_factor;
                } else if infl(i) {
                    mult[*donor] *= donor_factor;
                }
            }
        }
        let mut overrides = Vec::new();
        for (e, edge) in self.edges.iter().enumerate() {
            let m = edge.group.map_or(1.0, |g| mult[g]);
            if m != 1.0 {
                overrides.push((e << 1, edge.cap * m));
            }
        }
        let mut disabled = Vec::new();
        for (e, edge) in self.edges.iter().enumerate() {
            let up = edge.added_by.is_none_or(|i| applied[i])
                && edge.removed_by.is_none_or(|j| !applied[j] && !infl(j));
            if !up {
                disabled.push(e << 1);
            }
        }
        Ok(self
            .base
            .with_capacity_overrides(&overrides)?
            .with_disabled_arcs(&disabled)?)
    }

    /// The source state `A` (no move applied).
    pub fn initial_view(&self) -> Result<CsrNet, PlanError> {
        self.state_view(&vec![false; self.moves.len()], &[])
    }

    /// The target state `B` (every move applied).
    pub fn final_view(&self) -> Result<CsrNet, PlanError> {
        self.state_view(&vec![true; self.moves.len()], &[])
    }
}

/// Two cut-crossing edges `((a, b, cap_ab), (c, d, cap_cd))` chosen by
/// [`churn_pairs`], each oriented left-half-to-right-half.
type ChurnPair = ((usize, usize, f64), (usize, usize, f64));

/// Shared pair picker for the churn generators: `pairs` disjoint pairs
/// of cut-crossing edges of the fixed bisection `{0..n/2}`, each
/// oriented left-to-right, with all six endpoint pairings
/// (the two originals, the two intra-half parkings, the two re-crossed
/// variants) unused by any other pair.
fn churn_pairs(
    topo: &Topology,
    pairs: usize,
    seed: u64,
    what: &str,
) -> Result<Vec<ChurnPair>, PlanError> {
    let n = topo.switch_count();
    let half = n / 2;
    if half < 2 {
        return Err(PlanError::InvalidMigration(format!(
            "{what} needs at least 4 switches"
        )));
    }
    // Cut-crossing edges of the fixed bisection {0..n/2}, oriented
    // left-to-right.
    let cross: Vec<(usize, usize, f64)> = topo
        .graph
        .edges()
        .iter()
        .filter(|e| (e.u < half) != (e.v < half))
        .map(|e| {
            if e.u < half {
                (e.u, e.v, e.capacity)
            } else {
                (e.v, e.u, e.capacity)
            }
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, DOMAIN_CHURN, pairs, 0));
    let key = |u: usize, v: usize| (u.min(v), u.max(v));
    let mut used: HashSet<(usize, usize)> = HashSet::new();
    let mut picked = Vec::with_capacity(pairs);
    let budget = 256 * pairs.max(1);
    let mut tries = 0;
    while picked.len() < pairs {
        tries += 1;
        if tries > budget {
            return Err(PlanError::InvalidMigration(format!(
                "{what}: only {} of {pairs} disjoint pairs found among {} \
                 cut-crossing edges",
                picked.len(),
                cross.len()
            )));
        }
        let (a, b, cab) = cross[rng.random_range(0..cross.len())];
        let (c, d, ccd) = cross[rng.random_range(0..cross.len())];
        if a == c || b == d {
            continue;
        }
        let keys = [
            key(a, b),
            key(c, d),
            key(a, c),
            key(b, d),
            key(a, d),
            key(c, b),
        ];
        if keys.iter().any(|k| used.contains(k)) {
            continue;
        }
        used.extend(keys);
        picked.push(((a, b, cab), (c, d, ccd)));
    }
    Ok(picked)
}

/// Generate a *cross-bisection churn* migration on `topo`: `pairs`
/// rewire pairs, each a "retract" move that pulls two cut-crossing
/// links inside their halves followed by a "restore" move that re-pairs
/// them across the cut. All retracts are declared before all restores,
/// so a naive index-ordered search stacks cut-starving retracts until
/// the floor breaks — the workload the planner's conflict learning is
/// benchmarked on. The final state `B` has the same cross-cut link
/// count as `A` (with rewired pairings), so `λ_B ≈ λ_A`.
///
/// Deterministic in `(topo, pairs, seed)`.
///
/// # Errors
/// [`PlanError::InvalidMigration`] when `topo` has too few disjoint
/// cut-crossing edges to build `pairs` pairs.
pub fn cross_churn(
    topo: &Topology,
    pairs: usize,
    seed: u64,
) -> Result<Vec<ResolvedMove>, PlanError> {
    let picked = churn_pairs(topo, pairs, seed, "cross_churn")?;
    let mut retracts = Vec::with_capacity(2 * pairs);
    let mut restores = Vec::with_capacity(pairs);
    for ((a, b, cab), (c, d, ccd)) in picked {
        // Retract: cross links (a,b), (c,d) become intra-half (a,c), (b,d).
        retracts.push(ResolvedMove::Rewire {
            remove: [(a, b), (c, d)],
            add: [(a, c), (b, d)],
            cap: [cab, ccd],
        });
        // Restore: the intra-half links come back out as (a,d), (c,b).
        restores.push(ResolvedMove::Rewire {
            remove: [(a, c), (b, d)],
            add: [(a, d), (c, b)],
            cap: [cab, ccd],
        });
    }
    retracts.extend(restores);
    Ok(retracts)
}

/// Generate a *maintenance churn* migration on `topo`: the same
/// retract/restore structure as [`cross_churn`] (same pairs for the
/// same `(topo, pairs, seed)`), except that all but the last `shifted`
/// pairs restore their links at the **original** endpoints. A restored
/// pair cancels its retract exactly, so `λ_B = λ_A` up to solver noise
/// at *any* `pairs` — the safety floor can sit inside the transient dip
/// band no matter how deep the churn goes, which is what makes the
/// instance hard: an ordering that stacks retracts without interleaving
/// restores walks straight through the floor. The `shifted` tail pairs
/// restore re-crossed (as in [`cross_churn`]), so `B ≠ A` whenever
/// `shifted ≥ 1` and the run is a genuine migration, not a no-op.
///
/// Deterministic in `(topo, pairs, shifted, seed)`.
///
/// # Errors
/// [`PlanError::InvalidMigration`] when `shifted > pairs` or `topo` has
/// too few disjoint cut-crossing edges to build `pairs` pairs.
pub fn maintenance_churn(
    topo: &Topology,
    pairs: usize,
    shifted: usize,
    seed: u64,
) -> Result<Vec<ResolvedMove>, PlanError> {
    if shifted > pairs {
        return Err(PlanError::InvalidMigration(format!(
            "maintenance_churn: shifted ({shifted}) exceeds pairs ({pairs})"
        )));
    }
    let picked = churn_pairs(topo, pairs, seed, "maintenance_churn")?;
    let mut retracts = Vec::with_capacity(2 * pairs);
    let mut restores = Vec::with_capacity(pairs);
    for (p, ((a, b, cab), (c, d, ccd))) in picked.into_iter().enumerate() {
        // Retract: cross links (a,b), (c,d) become intra-half (a,c), (b,d).
        retracts.push(ResolvedMove::Rewire {
            remove: [(a, b), (c, d)],
            add: [(a, c), (b, d)],
            cap: [cab, ccd],
        });
        // Restore: back to the original endpoints, except the shifted
        // tail which re-crosses like cross_churn.
        let add = if p + shifted >= pairs {
            [(a, d), (c, b)]
        } else {
            [(a, b), (c, d)]
        };
        restores.push(ResolvedMove::Rewire {
            remove: [(a, c), (b, d)],
            add,
            cap: [cab, ccd],
        });
    }
    retracts.extend(restores);
    Ok(retracts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rrg(seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        Topology::random_regular(16, 6, 4, &mut rng).unwrap()
    }

    #[test]
    fn union_net_annotations_and_deps() {
        let topo = rrg(7);
        let moves = cross_churn(&topo, 3, 11).unwrap();
        assert_eq!(moves.len(), 6);
        let mig = Migration::new(&topo, &moves).unwrap();
        // every restore depends on its retract (it removes the edges
        // the retract added)
        for p in 0..3 {
            assert_eq!(
                mig.preds(3 + p),
                &[p],
                "restore {p} must follow retract {p}"
            );
            assert!(mig.preds(p).is_empty(), "retract {p} must be free");
        }
        // union = base edges + 2 added per move
        assert_eq!(mig.edges().len(), topo.graph.edge_count() + 2 * 6);
        // initial view equals the plain base topology net, final view
        // has the same live count (degree-preserving churn)
        let init = mig.initial_view().unwrap();
        let fin = mig.final_view().unwrap();
        assert_eq!(init.live_arc_count(), 2 * topo.graph.edge_count());
        assert_eq!(fin.live_arc_count(), 2 * topo.graph.edge_count());
        assert!((init.total_capacity() - fin.total_capacity()).abs() < 1e-9);
    }

    #[test]
    fn inflight_view_is_pointwise_dominated() {
        let topo = rrg(7);
        let moves = cross_churn(&topo, 2, 5).unwrap();
        let mig = Migration::new(&topo, &moves).unwrap();
        let mut applied = vec![false; mig.move_count()];
        let transient = mig.state_view(&applied, &[0]).unwrap();
        applied[0] = true;
        let post = mig.state_view(&applied, &[]).unwrap();
        for a in 0..transient.arc_count() {
            assert!(
                transient.capacity(a) <= post.capacity(a) + 1e-12,
                "arc {a}: transient exceeds post-state capacity"
            );
        }
        // the transient removes two links and has not yet added two
        assert_eq!(transient.live_arc_count() + 4, post.live_arc_count());
    }

    /// A state no ordering can reach is a typed error naming the bad
    /// length or index, in release builds too — not an out-of-bounds
    /// panic, and not a view that silently ignores the bad index.
    #[test]
    fn state_view_refuses_states_of_another_migration() {
        let topo = rrg(7);
        let moves = cross_churn(&topo, 2, 5).unwrap();
        let mig = Migration::new(&topo, &moves).unwrap();
        let m = mig.move_count();
        for len in [0, m - 1, m + 1] {
            let err = mig.state_view(&vec![false; len], &[]).unwrap_err();
            assert!(
                matches!(err, PlanError::AppliedLength { len: l, moves } if l == len && moves == m),
                "{err}"
            );
            assert!(err.to_string().contains(&format!("{len} entries")), "{err}");
        }
        let mut applied = vec![false; m];
        let err = mig.state_view(&applied, &[0, m]).unwrap_err();
        assert!(
            matches!(err, PlanError::InflightMove { index, moves } if index == m && moves == m),
            "{err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
        applied[1] = true;
        let err = mig.state_view(&applied, &[0, 1]).unwrap_err();
        assert!(
            matches!(err, PlanError::InflightMove { index: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("also marked applied"), "{err}");
        // the well-formed neighbours still compose
        mig.state_view(&applied, &[0]).unwrap();
    }

    #[test]
    fn invalid_removal_is_rejected() {
        let topo = rrg(7);
        let bogus = ResolvedMove::Rewire {
            remove: [(0, 1), (0, 1)],
            add: [(0, 2), (1, 3)],
            cap: [1.0, 1.0],
        };
        // removing (0,1) twice only works if two parallel (0,1) edges
        // are live; an RRG has at most one
        let err = Migration::new(&topo, &[bogus.clone(), bogus]).unwrap_err();
        assert!(matches!(err, PlanError::InvalidMigration(_)));
    }

    #[test]
    fn shift_factors_compose_in_views() {
        use dctopo_topology::hetero::{two_cluster, CrossSpec};
        use dctopo_topology::ClusterSpec;
        let mut rng = StdRng::seed_from_u64(3);
        let topo = two_cluster(
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
        .unwrap();
        let mv = ResolvedMove::Shift {
            donor: 0,
            receiver: 1,
            donor_factor: 0.75,
            receiver_factor: 1.5,
        };
        let mig = Migration::new(&topo, &[mv]).unwrap();
        let applied = vec![true];
        let full = mig.state_view(&applied, &[]).unwrap();
        let transient = mig.state_view(&[false], &[0]).unwrap();
        let init = mig.initial_view().unwrap();
        let mut saw_donor = false;
        let mut saw_receiver = false;
        for (e, edge) in mig.edges().iter().enumerate() {
            let a = e << 1;
            match edge.group {
                Some(0) => {
                    saw_donor = true;
                    assert!((full.capacity(a) - edge.cap * 0.75).abs() < 1e-12);
                    // in-flight: donor already lowered
                    assert!((transient.capacity(a) - edge.cap * 0.75).abs() < 1e-12);
                }
                Some(1) => {
                    saw_receiver = true;
                    assert!((full.capacity(a) - edge.cap * 1.5).abs() < 1e-12);
                    // in-flight: receiver not yet raised
                    assert!((transient.capacity(a) - edge.cap).abs() < 1e-12);
                }
                _ => assert_eq!(full.capacity(a), init.capacity(a)),
            }
        }
        assert!(saw_donor && saw_receiver, "both groups must have edges");
    }

    #[test]
    fn maintenance_churn_restores_the_original_profile() {
        let topo = rrg(9);
        let moves = maintenance_churn(&topo, 4, 1, 42).unwrap();
        assert_eq!(moves.len(), 8);
        // same picked pairs as cross_churn: the retract halves agree,
        // the restore halves differ only in the re-add endpoints
        let cross = cross_churn(&topo, 4, 42).unwrap();
        assert_eq!(&moves[..4], &cross[..4]);
        assert_ne!(&moves[4..], &cross[4..]);
        let mig = Migration::new(&topo, &moves).unwrap();
        let init = mig.initial_view().unwrap();
        let fin = mig.final_view().unwrap();
        // B re-installs every retracted link's capacity (the shifted
        // tail at re-crossed endpoints), so the capacity profile of A
        // survives exactly
        assert_eq!(init.live_arc_count(), fin.live_arc_count());
        assert!((init.total_capacity() - fin.total_capacity()).abs() < 1e-9);
        // but with shifted >= 1 the final state is a genuine migration
        let diff = (0..init.arc_count())
            .filter(|&a| init.is_live(a) != fin.is_live(a))
            .count();
        assert!(diff > 0, "shifted tail must change the topology");
        // deterministic; shifted > pairs is rejected
        assert_eq!(moves, maintenance_churn(&topo, 4, 1, 42).unwrap());
        assert!(maintenance_churn(&topo, 2, 3, 1).is_err());
    }

    #[test]
    fn cross_churn_is_deterministic() {
        let topo = rrg(9);
        let a = cross_churn(&topo, 4, 42).unwrap();
        let b = cross_churn(&topo, 4, 42).unwrap();
        assert_eq!(a, b);
        let c = cross_churn(&topo, 4, 43).unwrap();
        assert_ne!(a, c, "different seeds should pick different pairs");
    }
}
