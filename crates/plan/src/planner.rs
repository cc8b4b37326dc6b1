//! The certified-safe ordering search: a memoised backtracking DFS over
//! move orderings with a best-bound-first candidate scan, multi-fidelity
//! step certification, and compaction of the safe ordering into a
//! maximally-parallel execution DAG.

use std::collections::HashMap;

use dctopo_core::ladder::{cut_bound, cut_probes, hop_throughput_bound, min_cut_bound, CutProbe};
use dctopo_core::solve::aggregate_commodities;
use dctopo_core::ThroughputEngine;
use dctopo_flow::{Commodity, FlowError, FlowOptions};
use dctopo_graph::mix::{derive_seed, Fnv1a};
use dctopo_graph::{CsrNet, GraphError};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rayon::prelude::*;

use crate::migration::Migration;

/// Seed domain for per-`(depth, candidate)` extra cut probes.
const DOMAIN_PROBE: u64 = 0x706C_616E_7072; // "planpr"

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Master seed: extra cut probes derive from it and grid
    /// coordinates, never from scheduling.
    pub seed: u64,
    /// Safety floor as a fraction of `min(λ_A, λ_B)` (used when
    /// [`PlanSpec::floor`] is `None`).
    pub floor_frac: f64,
    /// Absolute safety floor on the certified network λ of every
    /// intermediate state, overriding [`PlanSpec::floor_frac`].
    pub floor: Option<f64>,
    /// Flow-solver profile used for every certification.
    pub opts: FlowOptions,
    /// Number of seeded random-bisection cut probes (the switch-class
    /// probe, when the topology is heterogeneous, rides along).
    pub cut_probes: usize,
    /// Hard budget on certified solves during the ordering search; when
    /// exhausted the planner falls back to the greedy best-floor
    /// ordering, which is the plan if it keeps the floor.
    pub max_solves: usize,
}

impl Default for PlanSpec {
    fn default() -> Self {
        PlanSpec {
            seed: 0,
            floor_frac: 0.9,
            floor: None,
            opts: FlowOptions::fast(),
            cut_probes: 4,
            max_solves: 10_000,
        }
    }
}

/// One stage of the execution DAG: moves that may run concurrently.
/// The stage's λ is certified on the view with *every* stage member in
/// flight at once, which pointwise dominates every interleaving of the
/// members — so the certificate covers all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStage {
    /// Move indices executing concurrently, in order-of-plan.
    pub moves: Vec<usize>,
    /// Certified λ of the stage's combined in-flight view: the
    /// certificate that decided the floor, so ≥ the floor and ≤ the λ a
    /// solve to the target gap would report on that view.
    pub lambda: f64,
}

/// Work counters for a planning run (deterministic across reruns and
/// thread counts, like the plan itself).
///
/// Once the endpoints have fixed the floor, every ordering attempt and
/// stage-packing solve asks the solver only whether
/// `λ ≥ floor` ([`ThroughputEngine::certify_floor`]) and stops as soon
/// as that is certified; the endpoints and the degraded fallback solve
/// to the target gap. The counters below count both kinds alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Certified flow solves: the two endpoint λ's, ordering attempts,
    /// stage packing and the degraded fallback. Real solves only: a
    /// view whose content was certified before is answered from that
    /// certificate and counted in `views_reused`.
    pub certified_solves: usize,
    /// Certifications answered by an earlier solve of the identical
    /// view.
    pub views_reused: usize,
    /// Steps attempted (certified) during the ordering search.
    pub attempts: usize,
    /// Candidate steps rejected by the hop bound without a solve.
    pub hop_rejected: usize,
    /// Candidate steps rejected by a cut bound without a solve.
    pub cut_rejected: usize,
    /// DFS backtracks (a chosen move un-applied after its subtree
    /// exhausted).
    pub backtracks: usize,
    /// Always 0: the planner learns no ordering constraints. Kept only
    /// because `benchmark/src/workloads/design.rs` reads it for the
    /// `plan.conflicts_learned` probe, and that file changes only with
    /// the benchmark.
    pub conflicts_learned: usize,
    /// Candidate steps skipped because an identical (prefix-state,
    /// move) pair already failed.
    pub memo_hits: usize,
    /// Certified solves spent growing multi-move stages.
    pub stage_solves: usize,
    /// Shortest-path settles of every real solve
    /// ([`dctopo_flow::SolvedFlow::settles`]; 0 for the backends that
    /// do not count them) — the plan layer's work counter.
    pub settles: u64,
}

/// A certified-safe migration plan: the execution order, its parallel
/// stage decomposition, and the certificates backing both.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Execution order (move indices into the migration).
    pub order: Vec<usize>,
    /// Maximally-parallel contiguous stage decomposition of `order`.
    pub stages: Vec<PlanStage>,
    /// The safety floor every step was certified against.
    pub floor: f64,
    /// `min` certified λ over the stage views. Each stage λ is the
    /// certificate that decided the floor, so this is ≥ `floor` and ≤
    /// the minimum a target-gap solve of every stage view would report.
    pub achieved_floor: f64,
    /// Certified λ of the source state `A`.
    pub lambda_a: f64,
    /// Certified λ of the target state `B`.
    pub lambda_b: f64,
    /// Certified λ of each sequential step's in-flight view, aligned
    /// with `order`: the certificate that decided the floor, so ≥
    /// `floor` and ≤ the λ a target-gap solve would report (equal to it
    /// when the plan is the budget fallback, whose steps are solved in
    /// full).
    pub step_lambda: Vec<f64>,
    /// Work counters.
    pub stats: PlanStats,
}

impl MigrationPlan {
    /// Widest stage — how many moves the plan ever executes at once.
    pub fn parallelism(&self) -> usize {
        self.stages.iter().map(|s| s.moves.len()).max().unwrap_or(0)
    }

    /// FNV-1a fingerprint of the plan *content* (order, stages, floors,
    /// every certified λ down to the bit) — the value the determinism
    /// suite pins across thread counts and reruns. Work counters are
    /// excluded: they describe the run, not the plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_u64(self.order.len() as u64);
        for &i in &self.order {
            h.write_u64(i as u64);
        }
        h.write_u64(self.stages.len() as u64);
        for s in &self.stages {
            h.write_u64(s.moves.len() as u64);
            for &i in &s.moves {
                h.write_u64(i as u64);
            }
            h.write_u64(s.lambda.to_bits());
        }
        for x in [
            self.floor,
            self.achieved_floor,
            self.lambda_a,
            self.lambda_b,
        ] {
            h.write_u64(x.to_bits());
        }
        for l in &self.step_lambda {
            h.write_u64(l.to_bits());
        }
        h.finish()
    }
}

/// The fallback ordering returned inside
/// [`PlanError::NoSafeOrdering`]: a greedy best-floor ordering
/// (structural constraints only) with the steps that violate the floor
/// called out.
#[derive(Debug, Clone)]
pub struct DegradedPlan {
    /// Execution order (respects structural constraints).
    pub order: Vec<usize>,
    /// Certified λ of each step's in-flight view.
    pub step_lambda: Vec<f64>,
    /// Positions in `order` whose step λ is below the floor.
    pub violations: Vec<usize>,
    /// The floor the search could not maintain.
    pub floor: f64,
}

/// Planner failures.
#[derive(Debug)]
pub enum PlanError {
    /// Neither the search (within the solve budget) nor the degraded
    /// ordering keeps every intermediate state at or above the floor.
    /// Carries everything needed to proceed anyway or to diagnose why not.
    NoSafeOrdering {
        /// Best (highest) `min`-step λ over the explored orderings —
        /// the floor the degraded ordering actually achieves.
        best_floor: f64,
        /// The deepest safe prefix the search certified.
        witness_prefix: Vec<usize>,
        /// Greedy best-floor ordering with its violation list.
        degraded: Box<DegradedPlan>,
    },
    /// The declared migration is malformed (unmatched removal, bad
    /// group, bad capacity, too few moves to generate, ...).
    InvalidMigration(String),
    /// [`Migration::state_view`] was handed an `applied` mask whose
    /// length is not the move count.
    AppliedLength {
        /// Length of the mask.
        len: usize,
        /// Moves in the migration.
        moves: usize,
    },
    /// [`Migration::state_view`] was handed an in-flight move that is
    /// out of range or also marked applied.
    InflightMove {
        /// The offending move index.
        index: usize,
        /// Moves in the migration.
        moves: usize,
    },
    /// A flow solve failed outright (e.g. no commodities).
    Flow(FlowError),
    /// A view or union-graph construction failed.
    Graph(GraphError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoSafeOrdering {
                best_floor,
                witness_prefix,
                degraded,
            } => write!(
                f,
                "no safe ordering: floor {:.4} unreachable (best {:.4}, witness depth {}, \
                 degraded ordering violates {} of {} steps)",
                degraded.floor,
                best_floor,
                witness_prefix.len(),
                degraded.violations.len(),
                degraded.order.len()
            ),
            PlanError::InvalidMigration(msg) => write!(f, "invalid migration: {msg}"),
            PlanError::AppliedLength { len, moves } => write!(
                f,
                "applied mask has {len} entries for a migration of {moves} moves"
            ),
            PlanError::InflightMove { index, moves } if index >= moves => write!(
                f,
                "in-flight move {index} is out of range for a migration of {moves} moves"
            ),
            PlanError::InflightMove { index, .. } => {
                write!(f, "in-flight move {index} is also marked applied")
            }
            PlanError::Flow(e) => write!(f, "flow solve failed: {e}"),
            PlanError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<FlowError> for PlanError {
    fn from(e: FlowError) -> Self {
        PlanError::Flow(e)
    }
}

impl From<GraphError> for PlanError {
    fn from(e: GraphError) -> Self {
        PlanError::Graph(e)
    }
}

/// The one order candidates are tried in: `(move, bound)` by descending
/// bound, ties by ascending move. Bounds are ≥ +0.0, where `total_cmp`
/// orders as `<` does, and it needs no NaN case.
fn by_bound((a, bound_a): (usize, f64), (b, bound_b): (usize, f64)) -> std::cmp::Ordering {
    bound_b.total_cmp(&bound_a).then(a.cmp(&b))
}

/// Screening result for one candidate step.
struct Screen {
    bound: f64,
    hop_reject: bool,
}

struct Planner<'a> {
    mig: &'a Migration,
    engine: ThroughputEngine<'a>,
    tm: &'a TrafficMatrix,
    commodities: Vec<Commodity>,
    probes: Vec<CutProbe>,
    spec: &'a PlanSpec,
    floor: f64,
    stats: PlanStats,
    solves_used: usize,
    memo: HashMap<(Vec<u64>, usize), ()>,
    /// λ of every view certified so far, by capacity bits, and whether
    /// it came from a full solve (see [`Planner::certify`]).
    certified: HashMap<Vec<u64>, (f64, bool)>,
    best_prefix: Vec<usize>,
}

impl<'a> Planner<'a> {
    /// A planner over `mig` with its commodities and fixed probes; the
    /// floor is set once the endpoints are certified.
    fn new(
        topo: &'a Topology,
        tm: &'a TrafficMatrix,
        mig: &'a Migration,
        spec: &'a PlanSpec,
    ) -> Result<Self, PlanError> {
        let commodities = aggregate_commodities(topo, tm);
        if commodities.is_empty() {
            return Err(PlanError::Flow(FlowError::NoCommodities));
        }
        let mut probes = cut_probes(topo, &commodities, spec.cut_probes, spec.seed);
        // The canonical index-halves bisection rides along as a fixed,
        // seed-independent probe. Any cut yields a sound upper bound, so
        // this costs nothing in soundness — and on homogeneous topologies
        // (where the ladder has no switch-class probe) it is frequently
        // the binding cut a churn migration fights over, which is what
        // lets the bound ordering rank capacity-restoring moves above
        // doomed capacity-removing ones instead of tie-breaking by index.
        let n = topo.switch_count();
        let membership = (0..n).map(|v| v < n / 2).collect();
        probes.push(CutProbe::new("index-bisection", membership, &commodities));
        Ok(Planner {
            mig,
            engine: ThroughputEngine::new(topo),
            tm,
            commodities,
            probes,
            spec,
            floor: 0.0,
            stats: PlanStats::default(),
            solves_used: 0,
            memo: HashMap::new(),
            certified: HashMap::new(),
            best_prefix: Vec::new(),
        })
    }

    /// Certified λ of `view` as far as it decides `λ ≥ floor`, or
    /// `None` when the search budget is spent. Solver errors certify
    /// nothing, so they read as λ = 0.
    fn certify_step(&mut self, view: &CsrNet) -> Option<f64> {
        if self.solves_used >= self.spec.max_solves {
            return None;
        }
        self.solves_used += 1;
        Some(self.certify(view, Some(self.floor)).unwrap_or(0.0))
    }

    /// Certified λ of `view`, solved once per view *content*: to the
    /// target gap, or — given the `floor` — only until `λ ≥ floor` is
    /// decided. Distinct states share a view more often than it looks:
    /// an in-flight removal is its landed state, an in-flight addition
    /// is the state before it, so a removal followed by an addition
    /// certifies the same links twice. Every view here is a delta view
    /// of the one union base, so its capacity vector (0 = link down) is
    /// its whole content; the key is that vector, compared in full on a
    /// hit. The solver is deterministic and the floor never changes
    /// once set, so a hit returns the bits a re-solve would, and only
    /// real solves are counted. A floor-decided λ answers only floor
    /// questions: a full one is asked for again.
    fn certify(&mut self, view: &CsrNet, floor: Option<f64>) -> Result<f64, FlowError> {
        let key: Vec<u64> = view.capacities().iter().map(|c| c.to_bits()).collect();
        if let Some(&(lambda, full)) = self.certified.get(&key) {
            if full || floor.is_some() {
                self.stats.views_reused += 1;
                return Ok(lambda);
            }
        }
        self.stats.certified_solves += 1;
        let (tm, opts) = (self.tm, &self.spec.opts);
        let solved = match floor {
            Some(floor) => self.engine.certify_floor(view, tm, opts, floor)?,
            None => self.engine.solve_on(view, tm, opts)?,
        };
        self.stats.settles += solved.solved.as_ref().map_or(0, |s| s.settles);
        self.certified
            .insert(key, (solved.network_lambda, floor.is_none()));
        Ok(solved.network_lambda)
    }

    /// Sound upper bound on `view`'s λ: hop bound, fixed cut probes,
    /// plus one extra probe seeded from `(depth, cand)`.
    fn bound_on(&self, view: &CsrNet, depth: usize, cand: usize) -> Screen {
        let hop = hop_throughput_bound(view, &self.commodities);
        if hop < self.floor {
            return Screen {
                bound: hop,
                hop_reject: true,
            };
        }
        // a fresh random bisection derived from grid coordinates: every
        // `(depth, candidate)` pair sees its own cut, independent of
        // scheduling
        let extra = CutProbe::bisection(
            format!("extra-{depth}-{cand}"),
            view.node_count(),
            derive_seed(self.spec.seed, DOMAIN_PROBE, depth, cand),
            &self.commodities,
        );
        Screen {
            bound: hop
                .min(min_cut_bound(view, &self.probes))
                .min(cut_bound(view, &extra)),
            hop_reject: false,
        }
    }

    fn bitset(applied: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; applied.len().div_ceil(64)];
        for (i, &a) in applied.iter().enumerate() {
            if a {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    /// First-fit DFS with backtracking over move orderings. Returns the
    /// safe order and its step λ's, or `None` when the space (or the
    /// solve budget) is exhausted.
    fn find_order(&mut self) -> Result<OrderOutcome, PlanError> {
        let m = self.mig.move_count();
        let mut applied = vec![false; m];
        let mut order: Vec<usize> = Vec::new();
        let mut lams: Vec<f64> = Vec::new();
        // Per-depth candidates that failed (or whose subtree failed) at
        // exactly this prefix state.
        let mut failed: Vec<Vec<usize>> = vec![Vec::new()];
        loop {
            if order.len() == m {
                return Ok(Some((order, lams)));
            }
            let depth = order.len();
            let key = Self::bitset(&applied);
            let mut cands: Vec<usize> = Vec::new();
            for i in 0..m {
                if applied[i]
                    || !self.mig.preds(i).iter().all(|&p| applied[p])
                    || failed.last().is_some_and(|f| f.contains(&i))
                {
                    continue;
                }
                if self.memo.contains_key(&(key.clone(), i)) {
                    self.stats.memo_hits += 1;
                    failed.last_mut().expect("depth stack").push(i);
                    continue;
                }
                cands.push(i);
            }

            // Parallel screening: sound upper bounds are computed for
            // every candidate. They do two jobs — they reject doomed
            // steps without a solve, and they order the scan
            // best-bound-first, so the planner certifies the most
            // promising candidate (e.g. a capacity-restoring move when
            // the floor is churn-tight) before paying for any other.
            // The ordering is pure prioritisation: acceptance is still
            // certified.
            let this: &Planner<'a> = self;
            let screens: Vec<Screen> = cands
                .par_iter()
                .map(|&i| {
                    let view = this.mig.state_view(&applied, &[i])?;
                    Ok(this.bound_on(&view, depth, i))
                })
                .collect::<Result<_, PlanError>>()?;
            let mut slots: Vec<usize> = (0..cands.len()).collect();
            slots.sort_by(|&x, &y| {
                by_bound((cands[x], screens[x].bound), (cands[y], screens[y].bound))
            });

            let mut chosen: Option<(usize, f64)> = None;
            let mut budget_gone = false;
            for &slot in &slots {
                let i = cands[slot];
                let s = &screens[slot];
                if s.bound < self.floor {
                    if s.hop_reject {
                        self.stats.hop_rejected += 1;
                    } else {
                        self.stats.cut_rejected += 1;
                    }
                } else {
                    let view = self.mig.state_view(&applied, &[i])?;
                    let Some(lam) = self.certify_step(&view) else {
                        budget_gone = true;
                        break;
                    };
                    self.stats.attempts += 1;
                    if lam >= self.floor {
                        chosen = Some((i, lam));
                        break;
                    }
                }
                failed.last_mut().expect("depth stack").push(i);
                self.memo.insert((key.clone(), i), ());
            }
            if budget_gone {
                return Ok(None);
            }
            match chosen {
                Some((i, lam)) => {
                    applied[i] = true;
                    order.push(i);
                    lams.push(lam);
                    failed.push(Vec::new());
                    if order.len() > self.best_prefix.len() {
                        self.best_prefix = order.clone();
                    }
                }
                None => {
                    if order.is_empty() {
                        return Ok(None);
                    }
                    failed.pop();
                    let j = order.pop().expect("non-empty order");
                    lams.pop();
                    applied[j] = false;
                    failed.last_mut().expect("depth stack").push(j);
                    self.stats.backtracks += 1;
                }
            }
        }
    }

    /// Compact a safe sequential order into contiguous maximally-
    /// parallel stages: a stage grows while the candidate is
    /// independent of every stage member and the view with the *whole*
    /// stage in flight still certifies at or above the floor.
    fn build_stages(
        &mut self,
        order: &[usize],
        step_lambda: &[f64],
    ) -> Result<Vec<PlanStage>, PlanError> {
        let m = self.mig.move_count();
        let mut applied = vec![false; m];
        let mut stages = Vec::new();
        let mut k = 0;
        while k < order.len() {
            let mut stage = vec![order[k]];
            // singleton stage view == the sequential step view, so its
            // certificate is reused rather than re-solved
            let mut lambda = step_lambda[k];
            let mut j = k + 1;
            while j < order.len() {
                let cand = order[j];
                if self.mig.preds(cand).iter().any(|p| stage.contains(p)) {
                    break;
                }
                let mut inflight = stage.clone();
                inflight.push(cand);
                let view = self.mig.state_view(&applied, &inflight)?;
                let s = self.bound_on(&view, order.len() + j, cand);
                if s.bound < self.floor {
                    if s.hop_reject {
                        self.stats.hop_rejected += 1;
                    } else {
                        self.stats.cut_rejected += 1;
                    }
                    break;
                }
                let Some(lam) = self.certify_step(&view) else {
                    break; // budget spent: finish with singleton stages
                };
                self.stats.stage_solves += 1;
                if lam < self.floor {
                    break;
                }
                stage.push(cand);
                lambda = lam;
                j += 1;
            }
            for &i in &stage {
                applied[i] = true;
            }
            stages.push(PlanStage {
                moves: stage,
                lambda,
            });
            k = j;
        }
        Ok(stages)
    }

    /// Greedy best-floor fallback: at every step, certify the
    /// structurally-available candidates in descending-bound order
    /// (branch-and-bound early exit) and apply the one with the highest
    /// certified λ. Always completes; violations are reported, not
    /// fatal.
    fn degraded(&mut self) -> Result<DegradedPlan, PlanError> {
        let m = self.mig.move_count();
        let mut applied = vec![false; m];
        let mut order = Vec::new();
        let mut lams = Vec::new();
        while order.len() < m {
            let depth = order.len();
            let cands: Vec<usize> = (0..m)
                .filter(|&i| !applied[i] && self.mig.preds(i).iter().all(|&p| applied[p]))
                .collect();
            let this: &Planner<'a> = self;
            let scored: Result<Vec<(usize, f64)>, PlanError> = cands
                .par_iter()
                .map(|&i| {
                    let view = this.mig.state_view(&applied, &[i])?;
                    Ok((i, this.bound_on(&view, depth, i).bound))
                })
                .collect();
            let mut scored = scored?;
            scored.sort_by(|&a, &b| by_bound(a, b));
            let mut best: Option<(f64, usize)> = None;
            for (i, bound) in scored {
                if let Some((best_lam, _)) = best {
                    if best_lam >= bound {
                        break; // nothing below this bound can win
                    }
                }
                let view = self.mig.state_view(&applied, &[i])?;
                let lam = self.certify(&view, None).unwrap_or(0.0);
                if best.is_none_or(|(best_lam, _)| lam > best_lam) {
                    best = Some((lam, i));
                }
            }
            let (lam, i) = best.expect("structural deps are acyclic");
            applied[i] = true;
            order.push(i);
            lams.push(lam);
        }
        let violations: Vec<usize> = lams
            .iter()
            .enumerate()
            .filter(|(_, &l)| l < self.floor)
            .map(|(k, _)| k)
            .collect();
        Ok(DegradedPlan {
            order,
            step_lambda: lams,
            violations,
            floor: self.floor,
        })
    }
}

type OrderOutcome = Option<(Vec<usize>, Vec<f64>)>;

/// Plan a certified-safe execution of `migration` on `topo` under
/// traffic `tm`.
///
/// Certifies the endpoints, fixes the floor
/// (`spec.floor` or `spec.floor_frac · min(λ_A, λ_B)`), searches for an
/// ordering whose every in-flight step certifies at or above it, and
/// compacts the result into parallel stages. All certificates are on
/// the *network* λ (the certified lower bound from the flow solver);
/// since in-flight moves only fail links, never switches, every
/// commodity survives every intermediate state and surviving-traffic λ
/// coincides with network λ.
///
/// # Errors
/// [`PlanError::NoSafeOrdering`] (with a degraded best-floor ordering
/// inside) when neither the search, within the solve budget, nor that
/// fallback keeps the floor;
/// [`PlanError::InvalidMigration`] for a migration over another switch
/// set, an empty migration, or a floor that is not finite or below 0;
/// [`PlanError::Flow`] / [`PlanError::Graph`] on endpoint solve or
/// view-construction failures.
pub fn plan_migration(
    topo: &Topology,
    tm: &TrafficMatrix,
    migration: &Migration,
    spec: &PlanSpec,
) -> Result<MigrationPlan, PlanError> {
    if migration.base().node_count() != topo.switch_count() {
        return Err(PlanError::InvalidMigration(format!(
            "migration union net has {} switches, topology {}",
            migration.base().node_count(),
            topo.switch_count()
        )));
    }
    if migration.move_count() == 0 {
        // the achieved floor is a min over stages: of none, it is ∞
        return Err(PlanError::InvalidMigration(
            "an empty migration has nothing to order".into(),
        ));
    }
    let mut planner = Planner::new(topo, tm, migration, spec)?;
    let lambda_a = planner.certify(&migration.initial_view()?, None)?;
    let lambda_b = planner.certify(&migration.final_view()?, None)?;
    planner.floor = spec
        .floor
        .unwrap_or(spec.floor_frac * lambda_a.min(lambda_b));
    if !planner.floor.is_finite() {
        return Err(PlanError::InvalidMigration(format!(
            "non-finite safety floor {}",
            planner.floor
        )));
    }
    if planner.floor < 0.0 {
        return Err(PlanError::InvalidMigration(format!(
            "negative safety floor {} certifies nothing",
            planner.floor
        )));
    }

    let (order, step_lambda) = match planner.find_order()? {
        Some(found) => found,
        None => {
            let degraded = planner.degraded()?;
            if !degraded.violations.is_empty() {
                let best_floor = degraded
                    .step_lambda
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                return Err(PlanError::NoSafeOrdering {
                    best_floor,
                    witness_prefix: planner.best_prefix.clone(),
                    degraded: Box::new(degraded),
                });
            }
            // only the budget ran out: the fallback keeps the floor
            (degraded.order, degraded.step_lambda)
        }
    };
    let stages = planner.build_stages(&order, &step_lambda)?;
    let achieved_floor = stages
        .iter()
        .map(|s| s.lambda)
        .fold(f64::INFINITY, f64::min);
    Ok(MigrationPlan {
        order,
        stages,
        floor: planner.floor,
        achieved_floor,
        lambda_a,
        lambda_b,
        step_lambda,
        stats: planner.stats.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::cross_churn;
    use dctopo_topology::hetero::{two_cluster, CrossSpec};
    use dctopo_topology::ClusterSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance() -> (Topology, TrafficMatrix) {
        let mut rng = StdRng::seed_from_u64(77);
        let topo = Topology::random_regular(16, 6, 4, &mut rng).unwrap();
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        (topo, tm)
    }

    #[test]
    fn plans_a_small_churn_and_honors_the_floor() {
        let (topo, tm) = instance();
        let moves = cross_churn(&topo, 2, 5).unwrap();
        let mig = Migration::new(&topo, &moves).unwrap();
        // each in-flight rewire takes 4 of 32 links down on this small
        // instance, so the floor must sit below that transient dip
        let spec = PlanSpec {
            floor_frac: 0.5,
            ..PlanSpec::default()
        };
        let plan = plan_migration(&topo, &tm, &mig, &spec).unwrap();
        assert_eq!(plan.order.len(), mig.move_count());
        assert!(plan.achieved_floor >= plan.floor);
        for s in &plan.stages {
            assert!(s.lambda >= plan.floor);
        }
        for &l in &plan.step_lambda {
            assert!(l >= plan.floor);
        }
        assert_eq!(
            plan.stages.iter().map(|s| s.moves.len()).sum::<usize>(),
            plan.order.len()
        );
        // stages are a contiguous partition of the order
        let flat: Vec<usize> = plan.stages.iter().flat_map(|s| s.moves.clone()).collect();
        assert_eq!(flat, plan.order);
    }

    #[test]
    fn impossible_floor_degrades_with_violations() {
        let (topo, tm) = instance();
        let moves = cross_churn(&topo, 2, 5).unwrap();
        let mig = Migration::new(&topo, &moves).unwrap();
        let spec = PlanSpec {
            floor: Some(f64::MAX),
            ..PlanSpec::default()
        };
        let err = plan_migration(&topo, &tm, &mig, &spec).unwrap_err();
        let PlanError::NoSafeOrdering {
            best_floor,
            degraded,
            ..
        } = err
        else {
            panic!("expected NoSafeOrdering, got {err}");
        };
        assert_eq!(degraded.order.len(), mig.move_count());
        assert_eq!(degraded.violations.len(), mig.move_count());
        assert!(best_floor.is_finite());
        assert!(best_floor < f64::MAX);
    }

    /// An exhausted budget is not an unreachable floor: the greedy
    /// fallback keeps it on this instance, so it is the plan.
    #[test]
    fn an_exhausted_budget_returns_a_fallback_that_keeps_the_floor() {
        let (topo, tm) = instance();
        let moves = cross_churn(&topo, 2, 5).unwrap();
        let mig = Migration::new(&topo, &moves).unwrap();
        for max_solves in [0, 1] {
            let spec = PlanSpec {
                max_solves,
                floor_frac: 0.5,
                ..PlanSpec::default()
            };
            let plan = plan_migration(&topo, &tm, &mig, &spec)
                .unwrap_or_else(|e| panic!("max_solves {max_solves}: {e}"));
            assert_eq!(plan.order.len(), mig.move_count());
            for s in &plan.stages {
                assert!(s.lambda >= plan.floor, "max_solves {max_solves}");
            }
            assert!(plan.achieved_floor >= plan.floor);
        }
    }

    /// A two-cluster fabric whose 8 cross links carry all-to-all
    /// traffic: the cut screens bind here, where the hop bound binds on
    /// [`instance`].
    fn scarce_cross_instance() -> (Topology, TrafficMatrix) {
        let mut rng = StdRng::seed_from_u64(77);
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
            CrossSpec::Exact(8),
            &mut rng,
        )
        .unwrap();
        let tm = TrafficMatrix::all_to_all(topo.server_count());
        (topo, tm)
    }

    /// The screens' soundness, state by state: at every prefix of the
    /// returned order, every candidate whose structural predecessors
    /// have landed certifies at or below the bound that screens it —
    /// so a step the bound rejects could not have met the floor.
    #[test]
    fn every_screen_bounds_the_certified_lambda_of_its_view() {
        let (mut checked, mut cut_bound) = (0, 0);
        for ((topo, tm), pairs) in [(instance(), 2), (scarce_cross_instance(), 3)] {
            let moves = cross_churn(&topo, pairs, 5).unwrap();
            let mig = Migration::new(&topo, &moves).unwrap();
            let spec = PlanSpec {
                floor_frac: 0.5,
                ..PlanSpec::default()
            };
            let plan = plan_migration(&topo, &tm, &mig, &spec).unwrap();
            let mut planner = Planner::new(&topo, &tm, &mig, &spec).unwrap();
            planner.floor = plan.floor;
            let mut applied = vec![false; mig.move_count()];
            for depth in 0..plan.order.len() {
                for i in 0..mig.move_count() {
                    if applied[i] || !mig.preds(i).iter().all(|&p| applied[p]) {
                        continue;
                    }
                    let view = mig.state_view(&applied, &[i]).unwrap();
                    let bound = planner.bound_on(&view, depth, i).bound;
                    let lambda = planner.certify(&view, None).unwrap();
                    assert!(
                        lambda <= bound * (1.0 + 1e-9),
                        "prefix {:?}, move {i}: λ {lambda} above its bound {bound}",
                        &plan.order[..depth]
                    );
                    checked += 1;
                    if bound < hop_throughput_bound(&view, &planner.commodities) {
                        cut_bound += 1;
                    }
                }
                applied[plan.order[depth]] = true;
            }
        }
        // both screens were the binding one somewhere
        assert!(
            0 < cut_bound && cut_bound < checked,
            "{cut_bound} of {checked}"
        );
    }

    #[test]
    fn empty_migrations_and_negative_floors_are_invalid() {
        let (topo, tm) = instance();
        let empty = Migration::new(&topo, &[]).unwrap();
        let err = plan_migration(&topo, &tm, &empty, &PlanSpec::default()).unwrap_err();
        assert!(matches!(err, PlanError::InvalidMigration(_)), "{err}");

        let moves = cross_churn(&topo, 2, 5).unwrap();
        let mig = Migration::new(&topo, &moves).unwrap();
        for spec in [
            PlanSpec {
                floor: Some(-0.5),
                ..PlanSpec::default()
            },
            PlanSpec {
                floor_frac: -1.0,
                ..PlanSpec::default()
            },
        ] {
            let err = plan_migration(&topo, &tm, &mig, &spec).unwrap_err();
            assert!(matches!(err, PlanError::InvalidMigration(_)), "{err}");
        }
    }
}
