//! The search driver: seeded move batches, parallel multi-fidelity
//! evaluation, and a greedy / simulated-annealing acceptance schedule.
//!
//! One round generates [`SearchSpec::batch`] moves (each from a seed
//! derived from `(round, move index)`), evaluates them concurrently on
//! the persistent worker pool, and accepts at most one. A candidate is
//! *eligible* only if it passes every ladder gate **and** strictly
//! improves the certified λ; among eligible candidates the highest λ
//! wins, ties broken by the lowest move index — a rule that depends
//! only on the candidate vector, never on scheduling, which is what
//! makes search trajectories bit-identical at every thread count.
//!
//! With [`SearchSpec::temperature`] `> 0`, a round with no improving
//! candidate may instead accept the best gate-passing candidate with
//! Metropolis probability `exp((λ_c - λ_inc) / (T_r · λ_inc))`, with
//! `T_r` cooled geometrically per round and the coin drawn from a
//! seed derived from the round index (deterministic annealing).

use dctopo_core::ladder::{cut_probes, hop_alpha, hop_bound, min_cut_bound, CutProbe};
use dctopo_core::obs::{self, Captured};
use dctopo_core::solve::{aggregate_commodities, nic_limit};
use dctopo_flow::{Commodity, FlowError, FlowOptions, PathSetCache, SolvedFlow};
use dctopo_graph::mix::derive_seed;
use dctopo_graph::CsrNet;
use dctopo_topology::moves::TwoSwap;
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

use crate::moves::{CapacityPlan, MoveKind, Moved};

/// Domain tag for per-move generation seeds.
const DOMAIN_MOVE: u64 = 21;
/// Domain tag for the per-round annealing coin.
const DOMAIN_ACCEPT: u64 = 23;

/// Constraints of the capacity (line-speed budget) move family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityBudget {
    /// No link group may drop below this multiple of its base capacity.
    pub min_mult: f64,
    /// No link group may exceed this multiple of its base capacity.
    pub max_mult: f64,
    /// Largest fraction of a donor group's current capacity one move
    /// may shift (moves sample steps in `{¼, ½, ¾, 1} ×` this).
    pub step: f64,
}

impl Default for CapacityBudget {
    /// The paper-flavoured "2:1 line-card" budget: any group may be
    /// re-rated between half and double its base line speed.
    fn default() -> Self {
        CapacityBudget {
            min_mult: 0.5,
            max_mult: 2.0,
            step: 0.25,
        }
    }
}

/// The full search specification.
#[derive(Debug, Clone)]
pub struct SearchSpec {
    /// Master seed; every move, probe, and annealing coin derives from
    /// it and its grid coordinates.
    pub seed: u64,
    /// Number of rounds (batches).
    pub rounds: usize,
    /// Moves generated and evaluated per round.
    pub batch: usize,
    /// Enable the structural (two-swap) move family.
    pub structural: bool,
    /// Enable the capacity move family with these constraints.
    pub capacity: Option<CapacityBudget>,
    /// Solver options for certified evaluations (backend included).
    pub opts: FlowOptions,
    /// Seeded bisection probes for the cut surrogate (the class
    /// partition is always probed on heterogeneous topologies).
    pub cut_probes: usize,
    /// Initial annealing temperature (relative λ units); `0` = greedy.
    pub temperature: f64,
    /// Geometric cooling factor per round.
    pub cooling: f64,
}

impl SearchSpec {
    /// A greedy structural search (two-swaps only).
    pub fn structural(seed: u64, rounds: usize, batch: usize) -> Self {
        SearchSpec {
            seed,
            rounds,
            batch,
            structural: true,
            capacity: None,
            opts: FlowOptions::fast(),
            cut_probes: 2,
            temperature: 0.0,
            cooling: 0.9,
        }
    }

    /// A greedy capacity search (budget shifts only).
    pub fn capacity(seed: u64, rounds: usize, batch: usize, budget: CapacityBudget) -> Self {
        SearchSpec {
            structural: false,
            capacity: Some(budget),
            ..SearchSpec::structural(seed, rounds, batch)
        }
    }

    /// Same spec with different solver options.
    pub fn with_opts(mut self, opts: FlowOptions) -> Self {
        self.opts = opts;
        self
    }
}

/// A certified evaluation of one topology/plan configuration, together
/// with the surrogate bounds it was measured against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// Certified feasible network λ (the search objective).
    pub lambda: f64,
    /// Certified dual upper bound on the optimal λ.
    pub upper: f64,
    /// Level-0 hop bound `C / Σ d_j·hop_j` of this configuration.
    pub hop_bound: f64,
    /// Level-1 cut bound (min over probes); `∞` if no probe binds.
    pub cut_bound: f64,
    /// `Σ d_j·hop_j` (cached so capacity moves can reuse it).
    pub hop_alpha: f64,
    /// Dijkstra-equivalent settles the certified solve spent.
    pub settles: u64,
}

/// Why (or how) a candidate left the ladder.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The move could not be applied (illegal swap, over-budget shift,
    /// disconnecting rewire, solver rejection).
    Invalid(String),
    /// Pruned at level 0: the hop bound did not clear the gate.
    PrunedHop {
        /// The candidate's hop bound.
        hop_bound: f64,
    },
    /// Pruned at level 1: the cut bound shows the candidate cannot be
    /// accepted this round.
    PrunedCut {
        /// The candidate's hop bound (level 0 was passed).
        hop_bound: f64,
        /// The candidate's cut bound.
        cut_bound: f64,
    },
    /// The candidate survived to a certified solve.
    Certified(Certificate),
}

/// One evaluated move.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Move index within its round.
    pub index: usize,
    /// The move.
    pub kind: MoveKind,
    /// What happened to it.
    pub outcome: Outcome,
}

impl Candidate {
    /// The certificate, if the candidate was certified.
    pub fn certificate(&self) -> Option<&Certificate> {
        match &self.outcome {
            Outcome::Certified(c) => Some(c),
            _ => None,
        }
    }
}

/// One round of the search trace.
#[derive(Debug, Clone)]
pub struct RoundTrace {
    /// Round index.
    pub round: usize,
    /// Annealing temperature this round ran at.
    pub temperature: f64,
    /// Every candidate, in move-index order.
    pub candidates: Vec<Candidate>,
    /// Index (into `candidates`) of the accepted move, if any.
    pub accepted: Option<usize>,
}

/// An accepted move, with the incumbent it replaced.
#[derive(Debug, Clone)]
pub struct AcceptedMove {
    /// Round the move was accepted in.
    pub round: usize,
    /// Move index within the round.
    pub index: usize,
    /// The move.
    pub kind: MoveKind,
    /// Certified λ before the move.
    pub lambda_before: f64,
    /// The accepting evaluation.
    pub certificate: Certificate,
}

/// The outcome of a whole search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Certified evaluation of the starting configuration.
    pub initial: Certificate,
    /// Certified evaluation of the final configuration.
    pub best: Certificate,
    /// NIC cap of the traffic (constant across the search).
    pub nic_limit: f64,
    /// Per-round traces, in order.
    pub rounds: Vec<RoundTrace>,
    /// Accepted moves, in order.
    pub accepted: Vec<AcceptedMove>,
    /// Certified solves performed (including the initial one).
    pub certified_solves: usize,
    /// Total Dijkstra-equivalent settles across all certified solves.
    pub total_settles: u64,
    /// The final topology.
    pub topology: Topology,
    /// The final capacity plan (uniform if no capacity move was
    /// accepted).
    pub plan: CapacityPlan,
}

impl SearchResult {
    /// Relative improvement of the certified λ over the initial
    /// configuration.
    pub fn improvement(&self) -> f64 {
        if self.initial.lambda > 0.0 {
            self.best.lambda / self.initial.lambda - 1.0
        } else {
            0.0
        }
    }

    /// The paper's throughput of the final configuration: λ capped by
    /// the NIC line rate.
    pub fn throughput(&self) -> f64 {
        self.best.lambda.min(self.nic_limit)
    }

    /// Candidates pruned by the hop gate, across all rounds.
    pub fn pruned_hop(&self) -> usize {
        self.count(|c| matches!(c.outcome, Outcome::PrunedHop { .. }))
    }

    /// Candidates pruned by the cut gate, across all rounds.
    pub fn pruned_cut(&self) -> usize {
        self.count(|c| matches!(c.outcome, Outcome::PrunedCut { .. }))
    }

    /// Invalid candidates across all rounds.
    pub fn invalid(&self) -> usize {
        self.count(|c| matches!(c.outcome, Outcome::Invalid(_)))
    }

    /// Total candidates evaluated.
    pub fn evaluated(&self) -> usize {
        self.rounds.iter().map(|r| r.candidates.len()).sum()
    }

    fn count(&self, pred: impl Fn(&Candidate) -> bool) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| &r.candidates)
            .filter(|c| pred(c))
            .count()
    }

    /// Export the accepted move sequence as id-stable
    /// [`ResolvedMove`](crate::moves::ResolvedMove)s by replaying it
    /// from `from`, the topology this search started at.
    ///
    /// Each [`MoveKind::TwoSwap`] names edge *ids* valid only against
    /// the graph state it was accepted on (rewires compact edge ids),
    /// so the replay resolves every swap to its endpoint pairs and
    /// every [`MoveKind::ShiftCapacity`] to the exact multiplicative
    /// group factors it applied. The result is the migration the
    /// reconfiguration planner (`dctopo-plan`) reorders: applying the
    /// resolved moves in any valid order reaches this search's final
    /// topology and capacity plan.
    ///
    /// # Errors
    /// [`dctopo_graph::GraphError::Unrealizable`] when a replayed move
    /// no longer applies to `from` (wrong starting topology).
    pub fn export_moves(
        &self,
        from: &Topology,
    ) -> Result<Vec<crate::moves::ResolvedMove>, dctopo_graph::GraphError> {
        use crate::moves::ResolvedMove;
        use dctopo_graph::GraphError;
        use dctopo_topology::moves::two_swap_endpoints;

        let mut topo = from.clone();
        let mut plan = CapacityPlan::uniform(&topo);
        let mut out = Vec::with_capacity(self.accepted.len());
        for mv in &self.accepted {
            // accepted shifts were already validated against the spec's
            // budget bounds; replay with loose bounds
            let moved = mv
                .kind
                .applied(&topo, &plan, (0.0, f64::INFINITY))
                .map_err(|why| {
                    GraphError::Unrealizable(format!(
                        "accepted {} does not replay on the given starting topology: {why}",
                        mv.kind.describe()
                    ))
                })?;
            match (mv.kind, moved) {
                (MoveKind::TwoSwap(swap), Moved::Topology(next)) => {
                    let [e1, e2] = [swap.e1, swap.e2].map(|e| topo.graph.edge(e));
                    let (add1, add2) = two_swap_endpoints(&topo.graph, &swap)
                        .expect("the swap applied, so it resolves");
                    out.push(ResolvedMove::Rewire {
                        remove: [(e1.u, e1.v), (e2.u, e2.v)],
                        add: [add1, add2],
                        cap: [e1.capacity, e2.capacity],
                    });
                    topo = next;
                }
                (
                    MoveKind::ShiftCapacity {
                        donor, receiver, ..
                    },
                    Moved::Plan(next),
                ) => {
                    out.push(ResolvedMove::Shift {
                        donor,
                        receiver,
                        donor_factor: next.multiplier(donor) / plan.multiplier(donor),
                        receiver_factor: next.multiplier(receiver) / plan.multiplier(receiver),
                    });
                    plan = next;
                }
                _ => unreachable!("a move yields what its family replaces"),
            }
        }
        Ok(out)
    }
}

/// Mutable search state: the incumbent configuration plus everything
/// derived from it.
struct State {
    topo: Topology,
    /// CSR net of `topo.graph` at *base* capacities. Candidate
    /// evaluations derive their plan views from it on demand.
    base_net: CsrNet,
    plan: CapacityPlan,
    incumbent: Certificate,
}

/// Runs a [`SearchSpec`] against one topology and traffic matrix.
pub struct SearchRunner {
    spec: SearchSpec,
    topo: Topology,
    commodities: Vec<Commodity>,
    nic: f64,
    probes: Vec<CutProbe>,
    cache: PathSetCache,
}

impl std::fmt::Debug for SearchRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchRunner")
            .field("spec", &self.spec)
            .field("switches", &self.topo.switch_count())
            .field("commodities", &self.commodities.len())
            .finish_non_exhaustive()
    }
}

impl SearchRunner {
    /// Set up a search over `topo` under the (fixed) traffic matrix
    /// `tm`. The commodity set, NIC cap, and cut probes are computed
    /// once here and held constant across the whole search.
    ///
    /// # Errors
    /// [`FlowError::NoCommodities`] when all traffic is switch-local
    /// (there is no network objective to search on);
    /// [`FlowError::BadOptions`] when no move family is enabled, an
    /// enabled family cannot operate on this topology (capacity search
    /// needs ≥ 2 link groups, structural search ≥ 2 links), the
    /// capacity budget cannot make a move (`step` outside `(0, 1]`, or
    /// not `0 ≤ min_mult < 1 < max_mult` with both finite: every shift
    /// moves one group below the uniform multiplier and one above), the
    /// temperature is negative or not finite, or the cooling factor lies
    /// outside `[0, 1]`.
    pub fn new(topo: &Topology, tm: &TrafficMatrix, spec: SearchSpec) -> Result<Self, FlowError> {
        let commodities = aggregate_commodities(topo, tm);
        if commodities.is_empty() {
            return Err(FlowError::NoCommodities);
        }
        if !(spec.temperature.is_finite() && spec.temperature >= 0.0) {
            return Err(FlowError::BadOptions(format!(
                "temperature must be finite and >= 0, got {}",
                spec.temperature
            )));
        }
        if !(0.0..=1.0).contains(&spec.cooling) {
            return Err(FlowError::BadOptions(format!(
                "cooling must lie in [0, 1], got {}",
                spec.cooling
            )));
        }
        let plan = CapacityPlan::uniform(topo);
        if !spec.structural && spec.capacity.is_none() {
            return Err(FlowError::BadOptions(
                "search needs at least one move family enabled".into(),
            ));
        }
        if spec.structural && topo.graph.edge_count() < 2 {
            return Err(FlowError::BadOptions(
                "structural search needs at least 2 links".into(),
            ));
        }
        if let Some(b) = &spec.capacity {
            if plan.group_count() < 2 {
                return Err(FlowError::BadOptions(format!(
                    "capacity search needs >= 2 link groups, topology has {}",
                    plan.group_count()
                )));
            }
            if !(b.step > 0.0 && b.step <= 1.0) {
                return Err(FlowError::BadOptions(format!(
                    "capacity step must be a fraction in (0, 1], got {}",
                    b.step
                )));
            }
            if !(0.0 <= b.min_mult
                && b.min_mult < 1.0
                && 1.0 < b.max_mult
                && b.max_mult.is_finite())
            {
                return Err(FlowError::BadOptions(format!(
                    "capacity multipliers need 0 <= min_mult < 1 < max_mult, both finite, \
                     got {} and {}",
                    b.min_mult, b.max_mult
                )));
            }
        }
        let probes = cut_probes(topo, &commodities, spec.cut_probes, spec.seed);
        Ok(SearchRunner {
            spec,
            topo: topo.clone(),
            commodities,
            nic: nic_limit(tm),
            probes,
            cache: PathSetCache::new(),
        })
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &SearchSpec {
        &self.spec
    }

    /// Execute the search.
    ///
    /// # Errors
    /// Propagates [`FlowError`] from the *initial* certified solve
    /// (e.g. a disconnected starting topology). Per-candidate solver
    /// failures are recorded as [`Outcome::Invalid`] instead.
    pub fn run(&self) -> Result<SearchResult, FlowError> {
        let plan = CapacityPlan::uniform(&self.topo);
        let base_net = CsrNet::from_graph(&self.topo.graph);
        let view = plan.view(&self.topo, &base_net).map_err(FlowError::Graph)?;

        // certify the starting configuration
        let alpha0 = hop_alpha(&view, &self.commodities);
        let solved0 = self.certify(&view, false)?;
        let initial = Certificate {
            lambda: solved0.throughput,
            upper: solved0.upper_bound,
            hop_bound: hop_bound(view.total_capacity(), alpha0),
            cut_bound: min_cut_bound(&view, &self.probes),
            hop_alpha: alpha0,
            settles: solved0.settles,
        };

        let mut state = State {
            topo: self.topo.clone(),
            base_net,
            plan,
            incumbent: initial,
        };
        let mut rounds = Vec::with_capacity(self.spec.rounds);
        let mut accepted = Vec::new();
        let mut certified_solves = 1usize;
        let mut total_settles = initial.settles;

        for round in 0..self.spec.rounds {
            let temperature = self.spec.temperature * self.spec.cooling.powi(round as i32);
            let moves: Vec<MoveKind> = (0..self.spec.batch)
                .map(|i| self.generate_move(&state, round, i))
                .collect();
            let candidates: Vec<Candidate> = (0..moves.len())
                .into_par_iter()
                .map(|i| obs::capture(|| self.evaluate(&state, moves[i], i, temperature)))
                .collect::<Captured<_>>()
                .emit();
            for c in &candidates {
                if let Outcome::Certified(cert) = &c.outcome {
                    certified_solves += 1;
                    total_settles += cert.settles;
                }
            }
            let chosen = self.choose(&candidates, &state, round, temperature);
            if let Some(idx) = chosen {
                let cand = &candidates[idx];
                let cert = *cand
                    .certificate()
                    .expect("accepted candidates are certified");
                let lambda_before = state.incumbent.lambda;
                self.apply(&mut state, cand.kind, cert);
                accepted.push(AcceptedMove {
                    round,
                    index: idx,
                    kind: cand.kind,
                    lambda_before,
                    certificate: cert,
                });
            }
            rounds.push(RoundTrace {
                round,
                temperature,
                candidates,
                accepted: chosen,
            });
        }

        Ok(SearchResult {
            initial,
            best: state.incumbent,
            nic_limit: self.nic,
            rounds,
            accepted,
            certified_solves,
            total_settles,
            topology: state.topo,
            plan: state.plan,
        })
    }

    /// Deterministically sample move `(round, i)` against the current
    /// state.
    fn generate_move(&self, state: &State, round: usize, i: usize) -> MoveKind {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.spec.seed, DOMAIN_MOVE, round, i));
        let mut families: Vec<u8> = Vec::with_capacity(2);
        if self.spec.structural {
            families.push(0);
        }
        if self.spec.capacity.is_some() {
            families.push(1);
        }
        match families[rng.random_range(0..families.len())] {
            0 => {
                let m = state.topo.graph.edge_count();
                MoveKind::TwoSwap(TwoSwap {
                    e1: rng.random_range(0..m),
                    e2: rng.random_range(0..m),
                    cross: rng.random_range(0..2) == 1,
                })
            }
            _ => {
                let budget = self.spec.capacity.expect("family enabled");
                let groups = state.plan.group_count();
                MoveKind::ShiftCapacity {
                    donor: rng.random_range(0..groups),
                    receiver: rng.random_range(0..groups),
                    step: budget.step * rng.random_range(1..=4usize) as f64 / 4.0,
                }
            }
        }
    }

    /// The sound pruning floor at this temperature: any candidate whose
    /// (hard) cut upper bound sits at or below it can neither improve
    /// the incumbent nor be annealing-accepted.
    fn prune_floor(&self, incumbent_lambda: f64, temperature: f64) -> f64 {
        (incumbent_lambda * (1.0 - 3.0 * temperature)).max(0.0)
    }

    /// The multiplier band a capacity shift must stay inside (never
    /// read without the capacity family: no shift is generated then).
    fn mult_range(&self) -> (f64, f64) {
        self.spec
            .capacity
            .map_or((0.0, f64::INFINITY), |b| (b.min_mult, b.max_mult))
    }

    /// Carry `kind` out on `state` and build the net + plan view the
    /// candidate would be solved on.
    fn view_of(&self, state: &State, kind: MoveKind) -> Result<CsrNet, String> {
        kind.applied(&state.topo, &state.plan, self.mult_range())
            .and_then(|moved| {
                match &moved {
                    Moved::Plan(plan) => plan.view(&state.topo, &state.base_net),
                    Moved::Topology(topo) => {
                        state.plan.view(topo, &CsrNet::from_graph(&topo.graph))
                    }
                }
                .map_err(|e| e.to_string())
            })
    }

    /// Climb the ladder for one candidate: levels 0–2 on its one view.
    fn evaluate(&self, state: &State, kind: MoveKind, index: usize, temperature: f64) -> Candidate {
        let floor = self.prune_floor(state.incumbent.lambda, temperature);
        let outcome = match self.view_of(state, kind) {
            Ok(view) => self.climb(state, &view, kind.is_structural(), floor),
            Err(why) => Outcome::Invalid(why),
        };
        Candidate {
            index,
            kind,
            outcome,
        }
    }

    /// Levels 0–2 on the candidate's view.
    fn climb(&self, state: &State, view: &CsrNet, structural: bool, floor: f64) -> Outcome {
        // level 0: a rewire's hop bound must strictly improve. A shift
        // conserves the budget and leaves hop distances alone, so it
        // keeps the incumbent's α and passes by construction.
        let alpha = if structural {
            hop_alpha(view, &self.commodities)
        } else {
            state.incumbent.hop_alpha
        };
        if alpha.is_infinite() {
            return Outcome::Invalid("rewire disconnects a commodity".into());
        }
        let hop = hop_bound(view.total_capacity(), alpha);
        let passed_hop = !structural || hop > state.incumbent.hop_bound;
        if !passed_hop {
            return Outcome::PrunedHop { hop_bound: hop };
        }
        // level 1: the cut bound must leave the candidate acceptable
        let cut = min_cut_bound(view, &self.probes);
        let passed_cut = cut > floor;
        if !passed_cut {
            return Outcome::PrunedCut {
                hop_bound: hop,
                cut_bound: cut,
            };
        }
        // level 2: certified solve
        match self.certify(view, structural) {
            Ok(s) => Outcome::Certified(Certificate {
                lambda: s.throughput,
                upper: s.upper_bound,
                hop_bound: hop,
                cut_bound: cut,
                hop_alpha: alpha,
                settles: s.settles,
            }),
            Err(e) => Outcome::Invalid(e.to_string()),
        }
    }

    /// Certified solve: structural candidates solve cold through a
    /// fresh cache (their nets are fresh structures, so the shared
    /// cache keeps only the incumbent structure's keys), capacity
    /// candidates go through the shared path-set cache (same
    /// `structure_id` as the base, so `ksp` backends refreeze nothing).
    fn certify(&self, net: &CsrNet, structural: bool) -> Result<SolvedFlow, FlowError> {
        let fresh = PathSetCache::new();
        let cache = if structural { &fresh } else { &self.cache };
        dctopo_flow::solve_with_cache(net, &self.commodities, &self.spec.opts, cache)
    }

    /// Pick the accepted candidate of a round, if any: the highest
    /// certified λ among strict improvers (ties to the lowest index),
    /// else — at positive temperature — a Metropolis coin on the best
    /// certified candidate. Only a candidate that passed both gates is
    /// certified, so certification is gate-passing.
    fn choose(
        &self,
        candidates: &[Candidate],
        state: &State,
        round: usize,
        temperature: f64,
    ) -> Option<usize> {
        let eligible = |c: &Candidate| c.certificate().map(|c| c.lambda);
        let mut best: Option<(usize, f64)> = None;
        for c in candidates {
            if let Some(lambda) = eligible(c) {
                if lambda > state.incumbent.lambda && best.is_none_or(|(_, b)| lambda > b) {
                    best = Some((c.index, lambda));
                }
            }
        }
        if let Some((idx, _)) = best {
            return Some(idx);
        }
        if temperature <= 0.0 {
            return None;
        }
        // annealing: best gate-passing candidate, Metropolis-accepted
        let mut best_any: Option<(usize, f64)> = None;
        for c in candidates {
            if let Some(lambda) = eligible(c) {
                if best_any.is_none_or(|(_, b)| lambda > b) {
                    best_any = Some((c.index, lambda));
                }
            }
        }
        let (idx, lambda) = best_any?;
        let inc = state.incumbent.lambda;
        if inc <= 0.0 || lambda < self.prune_floor(inc, temperature) {
            return None;
        }
        let p = ((lambda - inc) / (temperature * inc)).exp().min(1.0);
        let mut rng = StdRng::seed_from_u64(derive_seed(self.spec.seed, DOMAIN_ACCEPT, round, 0));
        (rng.random_range(0.0..1.0) < p).then_some(idx)
    }

    /// Carry an accepted move out on the state and install its
    /// certificate as the new incumbent.
    fn apply(&self, state: &mut State, kind: MoveKind, cert: Certificate) {
        match kind
            .applied(&state.topo, &state.plan, self.mult_range())
            .expect("an accepted move was valid when it was evaluated")
        {
            Moved::Topology(topo) => {
                state.base_net = CsrNet::from_graph(&topo.graph);
                state.topo = topo;
                // frozen path sets of the old structure can never be
                // queried again; drop them rather than accumulate
                self.cache.clear();
            }
            Moved::Plan(plan) => state.plan = plan,
        }
        state.incumbent = cert;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;
    use dctopo_topology::hetero::{two_cluster, CrossSpec};
    use dctopo_topology::{ClusterSpec, SwitchClass};

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.12,
            target_gap: 0.05,
            max_phases: 1200,
            stall_phases: 80,
            ..FlowOptions::fast()
        }
    }

    /// A ring of `n` switches with one server each — deliberately far
    /// from the Moore bound, so structural search has room to improve.
    fn ring_topo(n: usize) -> Topology {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_unit_edge(v, (v + 1) % n).unwrap();
        }
        Topology {
            graph: g,
            servers_at: vec![1; n],
            class_of: vec![0; n],
            classes: vec![SwitchClass {
                name: "tor".into(),
                ports: 3,
            }],
            unused_ports: 0,
        }
    }

    fn scarce_cross_topo(seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
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
            CrossSpec::Exact(3),
            &mut rng,
        )
        .unwrap()
    }

    fn perm(topo: &Topology, seed: u64) -> TrafficMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        TrafficMatrix::random_permutation(topo.server_count(), &mut rng)
    }

    #[test]
    fn structural_search_improves_a_ring() {
        let topo = ring_topo(12);
        let tm = perm(&topo, 1);
        let spec = SearchSpec::structural(7, 6, 8).with_opts(opts());
        let result = SearchRunner::new(&topo, &tm, spec).unwrap().run().unwrap();
        assert!(
            !result.accepted.is_empty(),
            "a ring must admit improving rewires"
        );
        assert!(
            result.improvement() > 0.05,
            "ring improvement only {:.2}%",
            result.improvement() * 100.0
        );
        // degree sequence (and port budgets) survive every rewire
        assert_eq!(result.topology.graph.regular_degree(), Some(2));
        result.topology.validate_ports().unwrap();
        // incumbent λ never decreases in greedy mode
        let mut last = result.initial.lambda;
        for mv in &result.accepted {
            assert!(mv.certificate.lambda > last);
            last = mv.certificate.lambda;
        }
        assert_eq!(last.to_bits(), result.best.lambda.to_bits());
    }

    #[test]
    fn every_accepted_move_passed_its_gates_and_bounds() {
        let topo = ring_topo(12);
        let tm = perm(&topo, 1);
        let spec = SearchSpec::structural(7, 6, 8).with_opts(opts());
        let result = SearchRunner::new(&topo, &tm, spec).unwrap().run().unwrap();
        for mv in &result.accepted {
            let c = &mv.certificate;
            // the surrogate bounds are *hard*: certified λ must respect
            // both, so the ladder never certifies what its own levels
            // would refute
            assert!(c.lambda <= c.hop_bound * (1.0 + 1e-9));
            assert!(c.lambda <= c.cut_bound * (1.0 + 1e-9));
            assert!(c.lambda <= c.upper * (1.0 + 1e-9));
        }
        // every certified candidate in the trace cleared both gates
        // against the incumbent of its round (greedy: the floor is the
        // incumbent's λ)
        let mut incumbent = result.initial;
        for round in &result.rounds {
            for cand in &round.candidates {
                if let Outcome::Certified(c) = &cand.outcome {
                    assert!(
                        c.hop_bound > incumbent.hop_bound,
                        "{}",
                        cand.kind.describe()
                    );
                    assert!(c.cut_bound > incumbent.lambda, "{}", cand.kind.describe());
                }
            }
            if let Some(idx) = round.accepted {
                incumbent = *round.candidates[idx].certificate().unwrap();
            }
        }
        assert!(result.pruned_hop() + result.pruned_cut() > 0);
    }

    /// The ladder's soundness, state by state: replay a mixed search,
    /// carrying each accepted move forward on the round's incumbent, and
    /// certify every candidate the ladder pruned. A cut-pruned candidate
    /// certifies at or below its recorded cut bound, which sits at or
    /// below the round's prune floor — so it could not have been
    /// accepted. A hop-pruned one was a rewire that did not improve the
    /// incumbent's hop bound, and certifies at or below its own.
    #[test]
    fn every_pruned_candidate_certifies_below_what_could_be_accepted() {
        let topo = scarce_cross_topo(1);
        let tm = perm(&topo, 1);
        let mut spec = SearchSpec::structural(9, 6, 8).with_opts(opts());
        spec.capacity = Some(CapacityBudget::default());
        let runner = SearchRunner::new(&topo, &tm, spec).unwrap();
        let result = runner.run().unwrap();

        let mut state = State {
            topo: topo.clone(),
            base_net: CsrNet::from_graph(&topo.graph),
            plan: CapacityPlan::uniform(&topo),
            incumbent: result.initial,
        };
        let (mut hop_pruned, mut cut_pruned) = (0, 0);
        for round in &result.rounds {
            let floor = runner.prune_floor(state.incumbent.lambda, round.temperature);
            for cand in &round.candidates {
                let certified = || {
                    let view = runner
                        .view_of(&state, cand.kind)
                        .expect("a pruned move applies");
                    let solved = runner.certify(&view, cand.kind.is_structural()).unwrap();
                    solved.throughput
                };
                let what = format!("round {} {}", round.round, cand.kind.describe());
                match cand.outcome {
                    Outcome::PrunedHop { hop_bound } => {
                        assert!(cand.kind.is_structural(), "{what}");
                        assert!(hop_bound <= state.incumbent.hop_bound, "{what}");
                        let lambda = certified();
                        assert!(lambda <= hop_bound * (1.0 + 1e-9), "{what}: λ {lambda}");
                        hop_pruned += 1;
                    }
                    Outcome::PrunedCut { cut_bound, .. } => {
                        let lambda = certified();
                        assert!(
                            lambda <= cut_bound * (1.0 + 1e-9),
                            "{what}: λ {lambda} above its cut bound {cut_bound}"
                        );
                        assert!(cut_bound <= floor, "{what}: {cut_bound} > floor {floor}");
                        cut_pruned += 1;
                    }
                    _ => {}
                }
            }
            if let Some(idx) = round.accepted {
                let cand = &round.candidates[idx];
                runner.apply(&mut state, cand.kind, *cand.certificate().unwrap());
            }
        }
        assert!(
            hop_pruned > 0 && cut_pruned > 0,
            "{hop_pruned} / {cut_pruned}"
        );
        // the replay reached the search's own final configuration
        assert_eq!(
            state.incumbent.lambda.to_bits(),
            result.best.lambda.to_bits()
        );
        assert_eq!(state.topo.graph.edges(), result.topology.graph.edges());
        assert_eq!(state.plan, result.plan);
    }

    #[test]
    fn capacity_search_moves_budget_toward_the_scarce_cut() {
        let topo = scarce_cross_topo(5);
        let tm = perm(&topo, 5);
        let spec = SearchSpec::capacity(9, 8, 6, CapacityBudget::default()).with_opts(opts());
        let runner = SearchRunner::new(&topo, &tm, spec).unwrap();
        let result = runner.run().unwrap();
        assert!(
            !result.accepted.is_empty(),
            "scarce cross links must attract budget"
        );
        assert!(result.improvement() > 0.0);
        // the budget is conserved across the whole search
        let before = CapacityPlan::uniform(&topo).effective_capacity(&topo);
        let after = result.plan.effective_capacity(&result.topology);
        assert!(
            (before - after).abs() < 1e-9 * before,
            "budget drifted {before} -> {after}"
        );
        // capacity moves never touch the structure
        assert_eq!(result.topology.graph.edges(), topo.graph.edges());
        // and the winning plan up-rates the cross group: every accepted
        // move's certificate raised λ, which on this instance is cut
        // limited by the large-small group
        let cross_group = (0..result.plan.group_count())
            .find(|&g| result.plan.group_classes(g) == (0, 1))
            .expect("cross group exists");
        assert!(
            result.plan.multiplier(cross_group) > 1.0,
            "cross-group multiplier {} should exceed 1",
            result.plan.multiplier(cross_group)
        );
    }

    #[test]
    fn reruns_are_bit_identical() {
        let topo = scarce_cross_topo(2);
        let tm = perm(&topo, 2);
        let mk = || {
            let mut spec = SearchSpec::structural(13, 4, 6).with_opts(opts());
            spec.capacity = Some(CapacityBudget::default());
            spec
        };
        let a = SearchRunner::new(&topo, &tm, mk()).unwrap().run().unwrap();
        let b = SearchRunner::new(&topo, &tm, mk()).unwrap().run().unwrap();
        assert_eq!(a.best.lambda.to_bits(), b.best.lambda.to_bits());
        assert_eq!(a.best.upper.to_bits(), b.best.upper.to_bits());
        assert_eq!(a.accepted.len(), b.accepted.len());
        assert_eq!(a.certified_solves, b.certified_solves);
        assert_eq!(a.total_settles, b.total_settles);
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.candidates.len(), y.candidates.len());
            for (cx, cy) in x.candidates.iter().zip(&y.candidates) {
                assert_eq!(cx.kind, cy.kind);
                assert_eq!(cx.outcome, cy.outcome);
            }
        }
    }

    #[test]
    fn annealing_is_deterministic_and_bounded() {
        let topo = ring_topo(12);
        let tm = perm(&topo, 6);
        let mk = || SearchSpec {
            temperature: 0.05,
            cooling: 0.8,
            ..SearchSpec::structural(17, 4, 6).with_opts(opts())
        };
        let a = SearchRunner::new(&topo, &tm, mk()).unwrap().run().unwrap();
        let b = SearchRunner::new(&topo, &tm, mk()).unwrap().run().unwrap();
        assert_eq!(a.best.lambda.to_bits(), b.best.lambda.to_bits());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.accepted, y.accepted);
        }
        // annealing may accept downhill moves, but never below the
        // 3T window around the then-incumbent
        for mv in &a.accepted {
            let floor = mv.lambda_before * (1.0 - 3.0 * a.rounds[mv.round].temperature);
            assert!(mv.certificate.lambda >= floor - 1e-12);
        }
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        let topo = ring_topo(8);
        let tm = perm(&topo, 1);
        // no family enabled
        let mut spec = SearchSpec::structural(1, 1, 1);
        spec.structural = false;
        assert!(matches!(
            SearchRunner::new(&topo, &tm, spec),
            Err(FlowError::BadOptions(_))
        ));
        // capacity search on a single-group topology
        let spec = SearchSpec::capacity(1, 1, 1, CapacityBudget::default());
        assert!(matches!(
            SearchRunner::new(&topo, &tm, spec),
            Err(FlowError::BadOptions(_))
        ));
        // a capacity budget that cannot make a move: a step that is not
        // a fraction, or a multiplier band that does not straddle 1
        let hetero = scarce_cross_topo(1);
        let hetero_tm = perm(&hetero, 1);
        let bad_budgets = [
            (0.5, 2.0, 5.0),
            (0.5, 2.0, -0.5),
            (0.5, 2.0, 0.0),
            (0.5, 2.0, f64::NAN),
            (3.0, 0.5, 0.25),
            (1.0, 2.0, 0.25),
            (0.5, 1.0, 0.25),
            (-0.1, 2.0, 0.25),
            (0.5, f64::INFINITY, 0.25),
            (f64::NAN, 2.0, 0.25),
        ];
        for (min_mult, max_mult, step) in bad_budgets {
            let budget = CapacityBudget {
                min_mult,
                max_mult,
                step,
            };
            let spec = SearchSpec::capacity(1, 1, 1, budget);
            assert!(
                matches!(
                    SearchRunner::new(&hetero, &hetero_tm, spec),
                    Err(FlowError::BadOptions(_))
                ),
                "{budget:?}"
            );
        }
        // the edges of the domain are usable
        for (min_mult, max_mult, step) in [(0.0, 2.0, 1.0), (0.5, 1.5, 0.01)] {
            let budget = CapacityBudget {
                min_mult,
                max_mult,
                step,
            };
            let spec = SearchSpec::capacity(1, 1, 1, budget);
            assert!(
                SearchRunner::new(&hetero, &hetero_tm, spec).is_ok(),
                "{budget:?}"
            );
        }
        // a negative or non-finite temperature, a cooling outside [0, 1]
        for (t, c) in [
            (-1.0, 0.9),
            (f64::NAN, 0.9),
            (f64::INFINITY, 0.9),
            (0.1, 1.5),
            (0.1, -0.1),
        ] {
            let spec = SearchSpec {
                temperature: t,
                cooling: c,
                ..SearchSpec::structural(1, 1, 1)
            };
            assert!(
                matches!(
                    SearchRunner::new(&topo, &tm, spec),
                    Err(FlowError::BadOptions(_))
                ),
                "temperature {t}, cooling {c}"
            );
        }
        // all-local traffic: no network objective
        let local = TrafficMatrix::from_pairs(8, vec![]);
        assert!(matches!(
            SearchRunner::new(&topo, &local, SearchSpec::structural(1, 1, 1)),
            Err(FlowError::NoCommodities)
        ));
    }
}
