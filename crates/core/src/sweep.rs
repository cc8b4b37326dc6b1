//! The scenario sweep engine: evaluate a full experiment grid
//! `{topology × run × scenario × traffic model × backend}` on the
//! persistent worker pool, one [`SweepCell`] per point.
//!
//! This is the paper's experimental method made into a subsystem: every
//! figure is a grid of throughput numbers against analytic bounds, swept
//! over sizes, traffic models, and degraded variants. The engine owns
//! the amortisation story — per `(topology, run)` it builds **one**
//! topology, flattens **one** base [`CsrNet`](dctopo_graph::CsrNet),
//! applies every scenario as a cheap delta view, generates every traffic
//! matrix once, and shares one [`ThroughputEngine`] path-set cache
//! across all cells — and the determinism story:
//!
//! * Every random choice (topology sample, traffic matrix, degradation
//!   victims) derives from [`SweepSpec::seed`] and the cell's grid
//!   coordinates — never from evaluation order.
//! * Within a `(topology, run)` block the undegraded scenario's row —
//!   the first scenario whose recipe is empty, found by content, not by
//!   position — is solved first. Every degraded row's default
//!   fast-path FPTAS cell ([`BackendChoice::fptas`]) then opens on the
//!   [`dual_lengths`](dctopo_flow::SolvedFlow::dual_lengths) of the
//!   same `(traffic, backend)` cell of that row: the same demand on the
//!   same arc ids, a sound opener for any lengths. Every other cell
//!   solves cold — other backends, cells whose baseline sibling failed,
//!   a second undegraded scenario, every cell of a grid without one. So
//!   a cell is still a function of the spec alone, and permuting the
//!   scenario axis permutes the cells without changing a bit.
//! * Cells are evaluated in parallel on the vendored rayon pool with
//!   index-ordered assembly, and every solver backend is itself
//!   bit-identical across thread counts, so **a sweep's cell vector is
//!   bit-identical regardless of thread count or evaluation order**
//!   (pinned by `tests/sweep_determinism.rs`). The `sweep_cell` trace
//!   event says by its `warm` field which cells opened warm.
//!
//! Per-cell failures (a degradation disconnects a surviving flow, a
//! backend rejects an oversized instance) are recorded in the cell
//! rather than aborting the grid: a sweep is a census, not a
//! transaction.

use dctopo_flow::{Backend, CacheStats, FlowError, FlowOptions};
use dctopo_graph::mix::derive_seed;
use dctopo_graph::GraphError;
use dctopo_obs::{self as obs, Captured, Json};
use dctopo_topology::classic::{complete, fat_tree, hypercube, torus2d};
use dctopo_topology::hetero::{two_cluster, CrossSpec};
use dctopo_topology::vl2::{rewired_vl2, vl2, Vl2Params};
use dctopo_topology::{ClusterSpec, Topology};
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

pub use crate::ladder::hop_throughput_bound;
use crate::scenario::Scenario;
use crate::solve::ThroughputEngine;

/// A string that does not name a point on its experiment axis. Every
/// axis type's [`FromStr`](std::str::FromStr) returns this; the message
/// names the axis, quotes the input and lists the accepted spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    pub(crate) fn new(axis: &str, input: &str, want: &str) -> Self {
        SpecError(format!("bad {axis} '{input}' (want {want})"))
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Parse the positive integer after `prefix` (`ksp:<k>`, `ecmp:<n>`,
/// `hotspot:<n>`); `None` when the prefix or a positive count is absent.
pub(crate) fn positive_after(s: &str, prefix: &str) -> Option<usize> {
    s.strip_prefix(prefix)?.parse().ok().filter(|&n| n > 0)
}

/// Seeded topology builder carried by a [`TopologyPoint`].
pub type TopologyBuilder = Box<dyn Fn(&mut StdRng) -> Result<Topology, GraphError> + Send + Sync>;

/// One point on the topology axis: a display name plus a seeded
/// builder. Family and size both live here — `rrg-64`, `vl2-10x12`,
/// `fat-tree-8` are three different points.
pub struct TopologyPoint {
    /// Display name (used in cell records).
    pub name: String,
    /// Seeded builder; called once per `(topology, run)` pair.
    pub build: TopologyBuilder,
}

impl TopologyPoint {
    /// A named point from any seeded builder.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&mut StdRng) -> Result<Topology, GraphError> + Send + Sync + 'static,
    ) -> Self {
        TopologyPoint {
            name: name.into(),
            build: Box::new(build),
        }
    }

    /// The paper's `RRG(n, k, r)` family at one size.
    pub fn rrg(n: usize, k: usize, r: usize) -> Self {
        Self::new(format!("rrg-{n}x{k}x{r}"), move |rng| {
            Topology::random_regular(n, k, r, rng)
        })
    }
}

/// One row of the family table.
struct Family {
    name: &'static str,
    /// The CLI flag naming each dimension of the family's flag form
    /// (`rrg --switches 16 --ports 8 --degree 4`), in spec order; empty
    /// for a family that only has a spec form.
    flags: &'static [&'static str],
    /// The seeded builder the `x`-separated dimensions select; `None`
    /// for a wrong dimension count.
    build: fn(&[usize]) -> Option<TopologyBuilder>,
}

/// The family table — the one place a topology family is named, by
/// [`TopologyPoint`]'s `FromStr` and (through
/// [`TopologyPoint::flag_forms`]) by the CLI's flag form.
const FAMILIES: &[Family] = &[
    Family {
        name: "rrg",
        flags: &["switches", "ports", "degree"],
        build: |dims| match *dims {
            [n, k, r] => Some(Box::new(move |rng| Topology::random_regular(n, k, r, rng))),
            _ => None,
        },
    },
    Family {
        name: "fat-tree",
        flags: &["k"],
        build: |dims| match *dims {
            [k] => Some(Box::new(move |_| fat_tree(k))),
            _ => None,
        },
    },
    Family {
        name: "complete",
        flags: &["switches", "servers"],
        build: |dims| match *dims {
            [n, s] => Some(Box::new(move |_| complete(n, s))),
            _ => None,
        },
    },
    Family {
        name: "hypercube",
        flags: &["dim", "servers"],
        build: |dims| match *dims {
            // an oversized dimension saturates into hypercube's own range check
            [d, s] => Some(Box::new(move |_| {
                hypercube(u32::try_from(d).unwrap_or(u32::MAX), s)
            })),
            _ => None,
        },
    },
    Family {
        name: "torus",
        flags: &["rows", "cols", "servers"],
        build: |dims| match *dims {
            [r, c, s] => Some(Box::new(move |_| torus2d(r, c, s))),
            _ => None,
        },
    },
    Family {
        name: "vl2",
        flags: &["da", "di", "tors"],
        build: |dims| {
            let params = vl2_params(dims)?;
            Some(Box::new(move |_| vl2(params)))
        },
    },
    Family {
        name: "vl2-rewired",
        flags: &["da", "di", "tors"],
        build: |dims| {
            let params = vl2_params(dims)?;
            Some(Box::new(move |rng| rewired_vl2(params, rng)))
        },
    },
    Family {
        name: "two-cluster",
        flags: &[],
        // large cluster, small cluster, cross links
        build: |dims| match *dims {
            [n, p, s, m, q, t, cross] => {
                let cluster = |count, ports, servers_per_switch| ClusterSpec {
                    count,
                    ports,
                    servers_per_switch,
                };
                let (large, small) = (cluster(n, p, s), cluster(m, q, t));
                Some(Box::new(move |rng| {
                    two_cluster(large, small, CrossSpec::Exact(cross), rng)
                }))
            }
            _ => None,
        },
    },
];

/// `AxI` (ToR count at VL2's design capacity) or `AxIxT`.
fn vl2_params(d: &[usize]) -> Option<Vl2Params> {
    match *d {
        [d_a, d_i, ref tors @ ..] if tors.len() <= 1 => Some(Vl2Params {
            d_a,
            d_i,
            tors: tors.first().copied(),
        }),
        _ => None,
    }
}

/// The family-spec grammar: `<family>:<d1>x<d2>...` (`two-cluster`
/// groups its dimensions `NxPxS-nxpxs-X`), the point's name being the
/// spec itself, so `point.name.parse()` rebuilds the point.
impl std::str::FromStr for TopologyPoint {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let parse = || {
            let (family, params) = s.split_once(':')?;
            let groups: Vec<Vec<usize>> = params
                .split('-')
                .map(|g| g.split('x').map(|d| d.parse().ok()).collect())
                .collect::<Option<_>>()?;
            let shape: Vec<usize> = groups.iter().map(Vec::len).collect();
            let grouped = match family {
                "two-cluster" => shape == [3, 3, 1],
                _ => shape.len() == 1,
            };
            let row = FAMILIES.iter().find(|f| f.name == family)?;
            (row.build)(&groups.concat()).filter(|_| grouped)
        };
        let build = parse().ok_or_else(|| {
            SpecError::new(
                "family",
                s,
                "rrg:NxKxR, fat-tree:K, complete:NxS, hypercube:DxS, torus:RxCxS, \
                 vl2:AxI[xT], vl2-rewired:AxI[xT], or two-cluster:NxPxS-nxpxs-X",
            )
        })?;
        Ok(TopologyPoint {
            name: s.to_string(),
            build,
        })
    }
}

impl TopologyPoint {
    /// Every family that has a CLI flag form, with the flag naming each
    /// of its spec dimensions in order: `rrg` + `--switches 16 --ports 8
    /// --degree 4` spells the spec `rrg:16x8x4`.
    pub fn flag_forms() -> impl Iterator<Item = (&'static str, &'static [&'static str])> {
        FAMILIES
            .iter()
            .filter(|f| !f.flags.is_empty())
            .map(|f| (f.name, f.flags))
    }
}

impl std::fmt::Debug for TopologyPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopologyPoint")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// One point on the traffic axis.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficModel {
    /// Fixed-point-free random server permutation (the paper's default).
    Permutation,
    /// Every ordered server pair.
    AllToAll,
    /// §8.1's x% Chunky ToR-level pattern.
    Chunky {
        /// Percentage of ToRs paired up ToR-to-ToR.
        percent: f64,
    },
    /// Many-to-few hotspot onto the first `hot` servers.
    Hotspot {
        /// Size of the hot set.
        hot: usize,
    },
}

impl TrafficModel {
    /// Stable display name — the spelling [`FromStr`](std::str::FromStr)
    /// accepts, so `model.name().parse()` is `model`.
    pub fn name(&self) -> String {
        match self {
            TrafficModel::Permutation => "permutation".into(),
            TrafficModel::AllToAll => "all-to-all".into(),
            TrafficModel::Chunky { percent } => format!("chunky:{percent}"),
            TrafficModel::Hotspot { hot } => format!("hotspot:{hot}"),
        }
    }

    /// How many `(src, dst)` pairs [`TrafficModel::generate`] would
    /// materialize on `servers` servers — analytic, so a caller can
    /// refuse a dense pair list *before* allocating it.
    pub fn pair_count(&self, servers: usize) -> u128 {
        let n = servers as u128;
        match self {
            TrafficModel::AllToAll => n * n.saturating_sub(1),
            // permutation / chunky / hotspot are all O(servers) pairs
            _ => n,
        }
    }

    /// Generate the matrix for `topo` from a seeded RNG.
    ///
    /// # Errors
    /// [`FlowError::BadOptions`] when the model cannot be instantiated
    /// on this topology (a permutation over fewer than 2 servers, a
    /// chunky percentage outside `[0, 100]`, a hotspot set that is
    /// empty or not a proper subset of the servers). The underlying
    /// generators assert these preconditions — a sweep must record a
    /// bad axis point as per-cell errors, never panic the worker pool.
    pub fn generate(&self, topo: &Topology, rng: &mut StdRng) -> Result<TrafficMatrix, FlowError> {
        let servers = topo.server_count();
        match self {
            TrafficModel::Permutation => {
                if servers < 2 {
                    return Err(FlowError::BadOptions(format!(
                        "permutation traffic needs at least 2 servers, topology hosts {servers}"
                    )));
                }
                Ok(TrafficMatrix::random_permutation(servers, rng))
            }
            TrafficModel::AllToAll => Ok(TrafficMatrix::all_to_all(servers)),
            TrafficModel::Chunky { percent } => {
                if !(0.0..=100.0).contains(percent) {
                    return Err(FlowError::BadOptions(format!(
                        "chunky percentage {percent} not in [0, 100]"
                    )));
                }
                let groups: Vec<Vec<usize>> = topo
                    .server_groups()
                    .into_iter()
                    .filter(|g| !g.is_empty())
                    .collect();
                Ok(TrafficMatrix::chunky(&groups, *percent, rng))
            }
            TrafficModel::Hotspot { hot } => {
                if *hot < 1 || *hot >= servers {
                    return Err(FlowError::BadOptions(format!(
                        "hotspot set of {hot} is not a proper non-empty subset \
                         of {servers} servers"
                    )));
                }
                Ok(TrafficMatrix::hotspot(servers, *hot, rng))
            }
        }
    }
}

/// The traffic grammar: `permutation`, `all-to-all`,
/// `chunky:<percent>` with the percentage in `[0, 100]`, `hotspot:<n>`
/// with `n ≥ 1`.
impl std::str::FromStr for TrafficModel {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let chunky = |pct: &str| {
            let percent: f64 = pct.parse().ok()?;
            (0.0..=100.0)
                .contains(&percent)
                .then_some(TrafficModel::Chunky { percent })
        };
        match s {
            "permutation" => Some(TrafficModel::Permutation),
            "all-to-all" => Some(TrafficModel::AllToAll),
            _ => s
                .strip_prefix("chunky:")
                .and_then(chunky)
                .or_else(|| positive_after(s, "hotspot:").map(|hot| TrafficModel::Hotspot { hot })),
        }
        .ok_or_else(|| {
            SpecError::new(
                "traffic",
                s,
                "permutation, all-to-all, chunky:<percent 0..100>, or hotspot:<n>",
            )
        })
    }
}

/// One point on the backend axis: a solver plus the FPTAS trajectory
/// flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendChoice {
    /// The solver backend.
    pub backend: Backend,
    /// Route the FPTAS through its strict legacy trajectory.
    pub strict: bool,
}

impl BackendChoice {
    /// The default fast-path FPTAS.
    pub fn fptas() -> Self {
        BackendChoice {
            backend: Backend::Fptas,
            strict: false,
        }
    }

    /// The strict (legacy-trajectory) FPTAS.
    pub fn fptas_strict() -> Self {
        BackendChoice {
            backend: Backend::Fptas,
            strict: true,
        }
    }

    /// The exact LP.
    pub fn exact() -> Self {
        BackendChoice {
            backend: Backend::ExactLp,
            strict: false,
        }
    }

    /// k-shortest-path-restricted routing.
    pub fn ksp(k: usize) -> Self {
        BackendChoice {
            backend: Backend::KspRestricted { k },
            strict: false,
        }
    }

    /// Stable display name (`fptas`, `fptas-strict`, `exact`, `ksp:<k>`)
    /// — the spelling [`FromStr`](std::str::FromStr) accepts, so
    /// `choice.name().parse()` is `choice`.
    pub fn name(&self) -> String {
        match (self.backend, self.strict) {
            (Backend::Fptas, false) => "fptas".into(),
            (Backend::Fptas, true) => "fptas-strict".into(),
            (Backend::ExactLp, _) => "exact".into(),
            (Backend::KspRestricted { k }, _) => format!("ksp:{k}"),
        }
    }

    /// Point `opts` at this backend and trajectory.
    pub fn apply(self, opts: &mut FlowOptions) {
        opts.backend = self.backend;
        opts.strict_reference = self.strict;
    }
}

/// The backend grammar: `fptas`, `fptas-strict`, `exact`, `ksp:<k>` with
/// `k ≥ 1`.
impl std::str::FromStr for BackendChoice {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        match s {
            "fptas" => Ok(Self::fptas()),
            "fptas-strict" => Ok(Self::fptas_strict()),
            "exact" => Ok(Self::exact()),
            _ => positive_after(s, "ksp:").map(Self::ksp).ok_or_else(|| {
                SpecError::new("backend", s, "fptas, fptas-strict, exact, or ksp:<k>")
            }),
        }
    }
}

/// The full grid specification.
#[derive(Debug)]
pub struct SweepSpec {
    /// Topology axis (family × size folded together).
    pub topologies: Vec<TopologyPoint>,
    /// Traffic-model axis.
    pub traffic: Vec<TrafficModel>,
    /// Scenario (degradation) axis.
    pub scenarios: Vec<Scenario>,
    /// Backend axis.
    pub backends: Vec<BackendChoice>,
    /// Solver options shared by every cell (the backend field is
    /// overridden per cell by the backend axis).
    pub opts: FlowOptions,
    /// Master seed; every cell's randomness derives from it and the
    /// cell's grid coordinates.
    pub seed: u64,
    /// Independent seeded repetitions per topology point.
    pub runs: usize,
}

/// Metrics of one successfully solved cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// The paper's throughput (network λ capped by the NIC limit).
    pub throughput: f64,
    /// Network-only concurrent-flow value λ (`∞` when no flow crossed
    /// the network).
    pub network_lambda: f64,
    /// Certified dual upper bound on the optimal λ.
    pub upper_bound: f64,
    /// Certified relative gap of the solve.
    pub gap: f64,
    /// Theorem-1-style hop bound on λ for this exact cell:
    /// `C_live / Σ_j demand_j · hopdist_j` over the degraded view (see
    /// [`hop_throughput_bound`]). Every backend's λ must sit below it.
    pub hop_bound: f64,
    /// NIC cap of the (surviving) traffic.
    pub nic_limit: f64,
    /// Dijkstra-equivalent settles the solver spent.
    pub settles: u64,
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Topology-axis name.
    pub topology: String,
    /// Run (repetition) index.
    pub run: usize,
    /// Scenario name.
    pub scenario: String,
    /// Traffic-model name.
    pub traffic: String,
    /// Backend name.
    pub backend: String,
    /// Switches in the (base) topology.
    pub switches: usize,
    /// Live links in the degraded view.
    pub live_links: usize,
    /// Surviving flows the cell solved for.
    pub flows: usize,
    /// Metrics, or the error this cell failed with.
    pub result: Result<CellMetrics, FlowError>,
}

impl SweepCell {
    /// The cell's metrics, if it solved.
    pub fn metrics(&self) -> Option<&CellMetrics> {
        self.result.as_ref().ok()
    }

    /// Emit the cell's `sweep_cell` trace event: `index` is its
    /// row-major grid position, `warm` whether its solve opened on its
    /// baseline sibling's certificate, `start` its solve's [`obs::clock`].
    fn trace(&self, index: usize, warm: bool, start: Option<Instant>) {
        if !obs::enabled() {
            return;
        }
        let mut ev = obs::Event::new("sweep_cell")
            .field("index", index)
            .field("topology", self.topology.as_str())
            .field("run", self.run)
            .field("scenario", self.scenario.as_str())
            .field("traffic", self.traffic.as_str())
            .field("backend", self.backend.as_str())
            .field("flows", self.flows)
            .field("warm", warm)
            .field("ok", self.result.is_ok());
        if let Ok(m) = &self.result {
            ev = ev
                .field("throughput", m.throughput)
                .field("lambda", m.network_lambda)
                .field("upper_bound", m.upper_bound)
                .field("hop_bound", m.hop_bound)
                .field("settles", m.settles);
        }
        ev.nd("wall_us", obs::us_since(start)).emit();
    }

    /// The cell as a JSON object: its grid coordinates, then `status`
    /// (`"ok"` or the error's display text), then the metrics — `null`
    /// for a failed cell and for a non-finite value (an all-local
    /// cell's λ is `∞`).
    fn to_json(&self) -> Json {
        let m = self.metrics();
        let num = |f: fn(&CellMetrics) -> f64| m.map_or(Json::Null, |m| Json::num(f(m)));
        let status = match &self.result {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        let fields: [(&str, Json); 15] = [
            ("topology", self.topology.as_str().into()),
            ("run", self.run.into()),
            ("scenario", self.scenario.as_str().into()),
            ("traffic", self.traffic.as_str().into()),
            ("backend", self.backend.as_str().into()),
            ("switches", self.switches.into()),
            ("live_links", self.live_links.into()),
            ("flows", self.flows.into()),
            ("status", status.into()),
            ("throughput", num(|m| m.throughput)),
            ("network_lambda", num(|m| m.network_lambda)),
            ("upper_bound", num(|m| m.upper_bound)),
            ("gap", num(|m| m.gap)),
            ("hop_bound", num(|m| m.hop_bound)),
            ("settles", m.map_or(Json::Null, |m| m.settles.into())),
        ];
        Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

/// The evaluated grid, cells in row-major
/// `topology → run → scenario → traffic → backend` order regardless of
/// how they were scheduled.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// All cells, row-major.
    pub cells: Vec<SweepCell>,
    dims: [usize; 5],
    cache: CacheStats,
}

impl SweepReport {
    /// Grid dimensions `[topologies, runs, scenarios, traffic, backends]`.
    pub fn dims(&self) -> [usize; 5] {
        self.dims
    }

    /// Path-set cache counters summed over every `(topology, run)`
    /// block's engine (each block owns one engine, so its cache dies
    /// with the block — this total is the only place the numbers
    /// survive to).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// The cell at the given grid coordinates.
    pub fn cell(&self, t: usize, run: usize, s: usize, m: usize, b: usize) -> &SweepCell {
        let [_, r, sc, tm, bk] = self.dims;
        &self.cells[(((t * r + run) * sc + s) * tm + m) * bk + b]
    }

    /// The grid as a JSON array, one cell object per line in row-major
    /// order — what `topobench sweep --json` writes. Floats are
    /// shortest-round-trip decimals ([`Json`]), so a parsed value has
    /// the solved value's bits.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("  {}", c.to_json()))
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Number of cells that solved successfully.
    pub fn ok_count(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_ok()).count()
    }

    /// Mean throughput over the cells selected by `pred` (`None` when no
    /// selected cell solved).
    pub fn mean_throughput(&self, pred: impl Fn(&SweepCell) -> bool) -> Option<f64> {
        let xs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| pred(c))
            .filter_map(|c| c.metrics().map(|m| m.throughput))
            .collect();
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    }

    /// Typed summary of the grid's failed cells, grouped by error kind —
    /// `None` when every cell solved. Strict callers (e.g.
    /// `topobench sweep --strict`) turn this into a non-zero exit.
    pub fn error_summary(&self) -> Option<ErrorSummary> {
        let mut kinds: Vec<ErrorKindCount> = Vec::new();
        for cell in &self.cells {
            let Err(e) = &cell.result else { continue };
            let kind = match e {
                FlowError::NoCommodities => "no-commodities",
                FlowError::BadDemand { .. } => "bad-demand",
                FlowError::SelfCommodity { .. } => "self-commodity",
                FlowError::Unreachable { .. } => "unreachable",
                FlowError::Graph(_) => "graph",
                FlowError::BadOptions(_) => "bad-options",
            };
            let witness = format!(
                "{}/run{}/{}/{}/{}",
                cell.topology, cell.run, cell.scenario, cell.traffic, cell.backend
            );
            match kinds.iter_mut().find(|k| k.kind == kind) {
                Some(k) => k.count += 1,
                None => kinds.push(ErrorKindCount {
                    kind: kind.to_string(),
                    count: 1,
                    witness,
                }),
            }
        }
        if kinds.is_empty() {
            return None;
        }
        // most frequent kind first; ties break on the kind name so the
        // summary is independent of cell scheduling
        kinds.sort_by(|a, b| b.count.cmp(&a.count).then(a.kind.cmp(&b.kind)));
        Some(ErrorSummary {
            failed: kinds.iter().map(|k| k.count).sum(),
            total: self.cells.len(),
            kinds,
        })
    }
}

/// Failures of one error kind across a sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorKindCount {
    /// Stable kind slug (`unreachable`, `no-commodities`, ...), one per
    /// [`FlowError`] variant.
    pub kind: String,
    /// How many cells failed with this kind.
    pub count: usize,
    /// `topology/run/scenario/traffic/backend` label of the first
    /// failing cell (row-major order), for reproduction.
    pub witness: String,
}

/// Typed summary of a sweep grid's failed cells — see
/// [`SweepReport::error_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorSummary {
    /// Total failed cells.
    pub failed: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Per-kind counts, most frequent first.
    pub kinds: Vec<ErrorKindCount>,
}

impl std::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} cells failed:", self.failed, self.total)?;
        for k in &self.kinds {
            write!(f, " {}x{} (first: {})", k.kind, k.count, k.witness)?;
        }
        Ok(())
    }
}

/// Runs a [`SweepSpec`] grid on the persistent worker pool.
#[derive(Debug)]
pub struct SweepRunner {
    spec: SweepSpec,
}

impl SweepRunner {
    /// Wrap a grid specification.
    pub fn new(spec: SweepSpec) -> Self {
        SweepRunner { spec }
    }

    /// The wrapped specification.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Evaluate every cell of the grid. Per-cell failures land in the
    /// cells; the grid itself always comes back complete.
    pub fn run(&self) -> SweepReport {
        obs::auto_init();
        let t_run = obs::clock();
        let spec = &self.spec;
        let runs = spec.runs.max(1);
        let dims = [
            spec.topologies.len(),
            runs,
            spec.scenarios.len(),
            spec.traffic.len(),
            spec.backends.len(),
        ];
        // outer fan-out: one task per (topology, run) — each builds its
        // own topology + base net + scenario views + traffic matrices,
        // then fans the cells out again (the pool's submitter
        // participates, so nesting cannot deadlock). Each task's trace
        // is replayed in index order, so the event sequence is
        // row-major at every pool width.
        let blocks: Vec<_> = (0..dims[0] * runs)
            .into_par_iter()
            .map(|tr| obs::capture(|| self.eval_topology(tr / runs, tr % runs)))
            .collect::<Captured<_>>()
            .emit();
        let mut cache = CacheStats::default();
        let mut cells = Vec::new();
        for (block, cs) in blocks {
            cache.hits += cs.hits;
            cache.misses += cs.misses;
            cells.extend(block);
        }
        if obs::enabled() {
            obs::Event::new("sweep_report")
                .field("cells", cells.len())
                .field("ok", cells.iter().filter(|c| c.result.is_ok()).count())
                .nd("cache_hits", cache.hits)
                .nd("cache_misses", cache.misses)
                .nd("wall_us", obs::us_since(t_run))
                .emit();
        }
        SweepReport { cells, dims, cache }
    }

    /// Evaluate the `scenario × traffic × backend` block of one
    /// `(topology, run)` pair. Returns the cells and the block engine's
    /// final path-cache counters.
    fn eval_topology(&self, t: usize, run: usize) -> (Vec<SweepCell>, CacheStats) {
        let spec = &self.spec;
        let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 1, t, run));
        // a topology that does not build fails every cell of the block
        let topo = (spec.topologies[t].build)(&mut rng).map_err(FlowError::Graph);
        let engine = topo.as_ref().map(ThroughputEngine::new);
        let matrices: Vec<Result<TrafficMatrix, FlowError>> = spec
            .traffic
            .iter()
            .enumerate()
            .map(|(m, model)| {
                let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 2, t, run * 1024 + m));
                model.generate(topo.as_ref().map_err(FlowError::clone)?, &mut rng)
            })
            .collect();

        // the undegraded row goes first, found by its content so that
        // the order of the scenario axis cannot change a cell: its
        // default-FPTAS certificates open the same `(traffic, backend)`
        // cells of every degraded row (the same demand on the same arc
        // ids). Without one, every row solves cold. Its trace is held
        // back and replayed at its own scenario index.
        let row = |s: usize, warm: &[Vec<f64>]| {
            self.eval_scenario(t, run, s, engine.as_ref().map_err(|e| *e), &matrices, warm)
        };
        let base = spec
            .scenarios
            .iter()
            .position(|sc| sc.degradations.is_empty());
        let mut lengths = Vec::new();
        let base_row = base.map(|s| {
            obs::capture(|| {
                let (cells, base_lengths) = row(s, &[]);
                lengths = base_lengths;
                cells
            })
        });

        // scenario fan-out with a bounded memory budget: each task
        // applies its own delta view on demand and drops it when its
        // row completes, so at most `threads` degraded views (plus
        // their solver workspaces) are ever live — materialising every
        // scenario's view upfront made peak memory proportional to the
        // scenario axis, which is what dies first on 1000-cell grids
        // over 1024-switch fabrics. Values are unchanged: views and
        // matrices are pure functions of seeds and coordinates, a warm
        // cell's lengths are a pure function of its baseline sibling,
        // and assembly is index-ordered, so the cell vector stays
        // row-major and bit-identical at any thread count.
        let mut rows: Vec<Captured<Vec<SweepCell>>> = (0..spec.scenarios.len())
            .into_par_iter()
            .map(|s| {
                obs::capture(|| {
                    if Some(s) == base {
                        return Vec::new();
                    }
                    // a second undegraded scenario solves cold, like the first
                    let warm = if spec.scenarios[s].degradations.is_empty() {
                        &[]
                    } else {
                        &lengths[..]
                    };
                    row(s, warm).0
                })
            })
            .collect();
        if let Some((s, base_row)) = base.zip(base_row) {
            rows[s] = base_row;
        }
        let cache = engine.map_or(CacheStats::default(), |e| e.cache_stats());
        (rows.into_iter().flat_map(Captured::emit).collect(), cache)
    }

    /// Evaluate the `traffic × backend` row of one scenario within a
    /// `(topology, run)` block, building (and owning) the scenario's
    /// delta view for exactly the lifetime of the row. `engine` is the
    /// block's, or the error its topology failed to build with.
    ///
    /// `warm` holds the lengths cell `(m, b)` opens on at index
    /// `m · backends + b` (empty: the cell solves cold; an empty slice:
    /// the whole row does). Beside the cells come their certificates'
    /// [`dual_lengths`](dctopo_flow::SolvedFlow::dual_lengths), at the
    /// same indices, for the cells that ran the default fast-path
    /// FPTAS — the only backend that opens on lengths, as in the serve
    /// layer — and solved; empty otherwise.
    fn eval_scenario(
        &self,
        t: usize,
        run: usize,
        s: usize,
        engine: Result<&ThroughputEngine, &FlowError>,
        matrices: &[Result<TrafficMatrix, FlowError>],
        warm: &[Vec<f64>],
    ) -> (Vec<SweepCell>, Vec<Vec<f64>>) {
        let spec = &self.spec;
        let point = &spec.topologies[t];
        let n_traffic = spec.traffic.len();
        let n_backends = spec.backends.len();
        let first =
            ((t * spec.runs.max(1) + run) * spec.scenarios.len() + s) * n_traffic * n_backends;
        let cell_shell = |m: usize, b: usize| SweepCell {
            topology: point.name.clone(),
            run,
            scenario: spec.scenarios[s].name.clone(),
            traffic: spec.traffic[m].name(),
            backend: spec.backends[b].name(),
            switches: engine.map_or(0, |e| e.topology().switch_count()),
            live_links: 0,
            flows: 0,
            result: Err(FlowError::NoCommodities),
        };
        // lowered once per traffic and shared by the backend axis: the
        // surviving demand and its hop bound (bit-identical across
        // backends); a scenario that does not apply fails every cell
        let ap = engine.map_err(FlowError::clone).and_then(|engine| {
            let ap = spec.scenarios[s].apply(engine.topology(), engine.net());
            ap.map(|ap| (engine, ap)).map_err(FlowError::Graph)
        });
        let lowered: Vec<Result<_, &FlowError>> = matrices
            .iter()
            .map(|tm| {
                let (engine, ap) = ap.as_ref()?;
                let demand = engine.scenario_demand(ap, tm.as_ref()?);
                let hop_bound = hop_throughput_bound(&ap.net, &demand.0);
                Ok((*engine, ap, demand, hop_bound))
            })
            .collect();

        // inner fan-out: the actual solves, each cell's trace ending
        // with its `sweep_cell` event
        let solve = |i: usize| {
            let t_cell = obs::clock();
            let (m, b) = (i / n_backends, i % n_backends);
            let mut opts = spec.opts;
            spec.backends[b].apply(&mut opts);
            let mut cell = cell_shell(m, b);
            cell.live_links = ap.as_ref().map_or(0, |(_, ap)| ap.net.live_arc_count() / 2);
            let (engine, ap, (commodities, nic, flows), hop_bound) = match &lowered[m] {
                Ok(lowered) => lowered,
                Err(e) => {
                    cell.result = Err((*e).clone());
                    cell.trace(first + i, false, t_cell);
                    return (cell, Vec::new());
                }
            };
            cell.flows = *flows;
            let warm = warm.get(i).map_or(&[][..], Vec::as_slice);
            let eligible = spec.backends[b] == BackendChoice::fptas();
            let mut lengths = Vec::new();
            cell.result = engine
                .solve_commodities_warm(&ap.net, commodities.clone(), *nic, *flows, &opts, warm)
                .map(|r| {
                    let (gap, settles) = r
                        .solved
                        .as_ref()
                        .map(|s| (s.gap(), s.settles))
                        .unwrap_or((0.0, 0));
                    if let Some(s) = r.solved.filter(|_| eligible) {
                        lengths = s.dual_lengths;
                    }
                    CellMetrics {
                        throughput: r.throughput,
                        network_lambda: r.network_lambda,
                        upper_bound: r.network_upper_bound,
                        gap,
                        hop_bound: *hop_bound,
                        nic_limit: r.nic_limit,
                        settles,
                    }
                });
            cell.trace(first + i, !warm.is_empty(), t_cell);
            (cell, lengths)
        };
        (0..n_traffic * n_backends)
            .into_par_iter()
            .map(|i| obs::capture(|| solve(i)))
            .collect::<Captured<_>>()
            .emit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Degradation;
    use crate::solve::ThroughputResult;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            topologies: vec![TopologyPoint::rrg(10, 6, 4), TopologyPoint::rrg(12, 7, 4)],
            traffic: vec![
                TrafficModel::Permutation,
                TrafficModel::Chunky { percent: 50.0 },
            ],
            scenarios: vec![
                Scenario::baseline(),
                Scenario::new("fail2", vec![Degradation::FailLinks { count: 2, seed: 7 }]),
                Scenario::new("scale1.5", vec![Degradation::ScaleCapacity { factor: 1.5 }]),
            ],
            backends: vec![BackendChoice::fptas(), BackendChoice::ksp(3)],
            opts: FlowOptions::fast(),
            seed: 20140402,
            runs: 2,
        }
    }

    /// One shared evaluation of [`small_spec`] — the read-only tests all
    /// inspect the same grid instead of re-solving it.
    fn shared_report() -> &'static SweepReport {
        static REPORT: std::sync::OnceLock<SweepReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| SweepRunner::new(small_spec()).run())
    }

    #[test]
    fn grid_shape_and_order() {
        let report = shared_report();
        assert_eq!(report.dims(), [2, 2, 3, 2, 2]);
        assert_eq!(report.cells.len(), 48);
        // row-major order: the indexer agrees with the flat vector
        let c = report.cell(1, 0, 2, 1, 1);
        assert_eq!(c.topology, "rrg-12x7x4");
        assert_eq!(c.scenario, "scale1.5");
        assert_eq!(c.traffic, "chunky:50");
        assert_eq!(c.backend, "ksp:3");
        assert_eq!(c.run, 0);
    }

    #[test]
    fn cells_solve_and_respect_their_hop_bound() {
        let report = shared_report();
        assert_eq!(report.ok_count(), report.cells.len(), "no cell may fail");
        for cell in &report.cells {
            let m = cell.metrics().unwrap();
            assert!(m.throughput > 0.0, "{cell:?}");
            assert!(
                m.network_lambda <= m.hop_bound * (1.0 + 1e-9),
                "{}: λ {} above hop bound {}",
                cell.scenario,
                m.network_lambda,
                m.hop_bound
            );
            assert!(m.network_lambda <= m.upper_bound * (1.0 + 1e-9));
            assert!(m.throughput <= m.nic_limit + 1e-12);
        }
    }

    #[test]
    fn same_run_same_traffic_across_scenarios() {
        // flows only differ where switch failures filtered them — link
        // failure and capacity cells must see the identical matrix
        let report = shared_report();
        for t in 0..2 {
            for run in 0..2 {
                for m in 0..2 {
                    let base = report.cell(t, run, 0, m, 0).flows;
                    for s in 1..3 {
                        assert_eq!(report.cell(t, run, s, m, 0).flows, base);
                    }
                }
            }
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let a = shared_report();
        let b = SweepRunner::new(small_spec()).run();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            match (&x.result, &y.result) {
                (Ok(mx), Ok(my)) => {
                    assert_eq!(mx.throughput.to_bits(), my.throughput.to_bits());
                    assert_eq!(mx.upper_bound.to_bits(), my.upper_bound.to_bits());
                    assert_eq!(mx.hop_bound.to_bits(), my.hop_bound.to_bits());
                    assert_eq!(mx.settles, my.settles);
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    /// Cell `[t, run, s, m, b]` of `spec` solved on its own — a fresh
    /// engine, the seeds the runner derives — opened on `warm`.
    fn solve_alone(
        spec: &SweepSpec,
        [t, run, s, m, b]: [usize; 5],
        warm: &[f64],
    ) -> ThroughputResult {
        let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 1, t, run));
        let topo = (spec.topologies[t].build)(&mut rng).unwrap();
        let engine = ThroughputEngine::new(&topo);
        let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 2, t, run * 1024 + m));
        let tm = spec.traffic[m].generate(&topo, &mut rng).unwrap();
        let applied = spec.scenarios[s].apply(&topo, engine.net()).unwrap();
        let (commodities, nic, flows) = engine.scenario_demand(&applied, &tm);
        let mut opts = spec.opts;
        spec.backends[b].apply(&mut opts);
        engine
            .solve_commodities_warm(&applied.net, commodities, nic, flows, &opts, warm)
            .unwrap()
    }

    /// The bits a cell reports: λ, its certified bound and the settles.
    fn bits(m: &CellMetrics) -> [u64; 3] {
        [
            m.network_lambda.to_bits(),
            m.upper_bound.to_bits(),
            m.settles,
        ]
    }

    fn result_bits(r: &ThroughputResult) -> [u64; 3] {
        let settles = r.solved.as_ref().map_or(0, |s| s.settles);
        [
            r.network_lambda.to_bits(),
            r.network_upper_bound.to_bits(),
            settles,
        ]
    }

    /// Every coordinate of a `[topologies, runs, scenarios, traffic,
    /// backends]` grid, row-major.
    fn coordinates([t, r, s, m, b]: [usize; 5]) -> impl Iterator<Item = [usize; 5]> {
        (0..t * r * s * m * b).map(move |i| {
            [
                i / (r * s * m * b),
                i / (s * m * b) % r,
                i / (m * b) % s,
                i / b % m,
                i % b,
            ]
        })
    }

    #[test]
    fn degraded_fptas_cells_open_on_their_baseline_siblings_lengths() {
        let spec = small_spec();
        let report = shared_report();
        let mut moved = 0;
        for [t, run, s, m, b] in coordinates(report.dims()) {
            if s == 0 || b != 0 {
                continue;
            }
            let base = solve_alone(&spec, [t, run, 0, m, 0], &[]);
            assert_eq!(
                bits(report.cell(t, run, 0, m, 0).metrics().unwrap()),
                result_bits(&base)
            );
            let lengths = &base.solved.as_ref().unwrap().dual_lengths;
            let warm = solve_alone(&spec, [t, run, s, m, 0], lengths);
            let cell = report.cell(t, run, s, m, 0).metrics().unwrap();
            assert_eq!(bits(cell), result_bits(&warm), "{t}/{run}/{s}/{m}");
            let cold = solve_alone(&spec, [t, run, s, m, 0], &[]);
            moved += usize::from(result_bits(&cold) != result_bits(&warm));
        }
        assert!(moved > 0, "no degraded cell solved other than cold");
    }

    #[test]
    fn ksp_cells_and_grids_without_a_baseline_solve_cold() {
        let spec = small_spec();
        let report = shared_report();
        for [t, run, s, m, b] in coordinates(report.dims()) {
            if b == 1 {
                let cold = solve_alone(&spec, [t, run, s, m, b], &[]);
                let cell = report.cell(t, run, s, m, b).metrics().unwrap();
                assert_eq!(bits(cell), result_bits(&cold), "ksp {t}/{run}/{s}/{m}");
            }
        }
        let mut spec = small_spec();
        spec.scenarios.remove(0);
        let runner = SweepRunner::new(spec);
        let degraded_only = runner.run();
        for [t, run, s, m, b] in coordinates(degraded_only.dims()) {
            let cold = solve_alone(runner.spec(), [t, run, s, m, b], &[]);
            let cell = degraded_only.cell(t, run, s, m, b).metrics().unwrap();
            assert_eq!(bits(cell), result_bits(&cold), "{t}/{run}/{s}/{m}/{b}");
        }
    }

    #[test]
    fn permuting_the_scenario_axis_permutes_the_cells() {
        // the runner finds the undegraded row by its content: a shuffled
        // axis, with a second undegraded scenario in it, changes no bit
        let report = shared_report();
        let mut spec = small_spec();
        let [baseline, fail2, scale] = <[Scenario; 3]>::try_from(spec.scenarios).unwrap();
        let again = Scenario::new("again", Vec::new());
        spec.scenarios = vec![scale, again, fail2, baseline];
        let from = [2, 0, 1, 0];
        let permuted = SweepRunner::new(spec).run();
        assert_eq!(permuted.dims(), [2, 2, 4, 2, 2]);
        for [t, run, s, m, b] in coordinates(permuted.dims()) {
            let (cell, was) = (
                permuted.cell(t, run, s, m, b),
                report.cell(t, run, from[s], m, b),
            );
            if s != 1 {
                assert_eq!(cell.scenario, was.scenario);
            }
            assert_eq!(
                bits(cell.metrics().unwrap()),
                bits(was.metrics().unwrap()),
                "{}/{t}/{run}/{m}/{b}",
                cell.scenario
            );
        }
    }

    #[test]
    fn scale_up_cells_beat_baseline_certificates() {
        // capacity ×1.5 multiplies the optimum: the scaled cell's dual
        // bound must clear the baseline cell's primal
        let report = shared_report();
        for t in 0..2 {
            for run in 0..2 {
                for m in 0..2 {
                    let base = report.cell(t, run, 0, m, 0).metrics().unwrap();
                    let scaled = report.cell(t, run, 2, m, 0).metrics().unwrap();
                    assert!(scaled.upper_bound >= base.network_lambda * (1.0 - 1e-9));
                }
            }
        }
    }

    #[test]
    fn bad_traffic_models_land_in_cells_not_panics() {
        // hotspot:999 cannot be instantiated on a 20-server topology —
        // the affected traffic column errors per cell, everything else
        // still solves
        let spec = SweepSpec {
            topologies: vec![TopologyPoint::rrg(10, 6, 4)],
            traffic: vec![
                TrafficModel::Permutation,
                TrafficModel::Hotspot { hot: 999 },
                TrafficModel::Chunky { percent: 150.0 },
            ],
            scenarios: vec![Scenario::baseline()],
            backends: vec![BackendChoice::fptas()],
            opts: FlowOptions::fast(),
            seed: 4,
            runs: 1,
        };
        let report = SweepRunner::new(spec).run();
        assert_eq!(report.cells.len(), 3);
        assert!(report.cell(0, 0, 0, 0, 0).result.is_ok());
        for m in 1..3 {
            assert!(
                matches!(
                    report.cell(0, 0, 0, m, 0).result,
                    Err(FlowError::BadOptions(_))
                ),
                "traffic model {m} must fail per-cell"
            );
        }
    }

    #[test]
    fn dead_fabric_cells_report_zero_not_full_throughput() {
        // failing every switch kills all traffic: the cell must read 0,
        // never a vacuous 1.0 that beats the healthy baseline
        let spec = SweepSpec {
            topologies: vec![TopologyPoint::rrg(8, 5, 3)],
            traffic: vec![TrafficModel::Permutation],
            scenarios: vec![
                Scenario::baseline(),
                Scenario::new(
                    "all-dead",
                    vec![Degradation::FailSwitches { count: 8, seed: 1 }],
                ),
            ],
            backends: vec![BackendChoice::fptas()],
            opts: FlowOptions::fast(),
            seed: 6,
            runs: 1,
        };
        let report = SweepRunner::new(spec).run();
        let healthy = report.cell(0, 0, 0, 0, 0).metrics().unwrap();
        let dead_cell = report.cell(0, 0, 1, 0, 0);
        let dead = dead_cell.metrics().unwrap();
        assert_eq!(dead_cell.flows, 0);
        assert_eq!(dead.throughput, 0.0);
        assert!(healthy.throughput > dead.throughput);
    }

    #[test]
    fn build_failures_land_in_cells_not_panics() {
        let spec = SweepSpec {
            topologies: vec![TopologyPoint::new("impossible", |rng| {
                Topology::random_regular(5, 10, 3, rng) // odd degree sum
            })],
            traffic: vec![TrafficModel::Permutation],
            scenarios: vec![Scenario::baseline()],
            backends: vec![BackendChoice::fptas()],
            opts: FlowOptions::fast(),
            seed: 1,
            runs: 1,
        };
        let report = SweepRunner::new(spec).run();
        assert_eq!(report.cells.len(), 1);
        assert!(matches!(
            report.cells[0].result,
            Err(FlowError::Graph(GraphError::Unrealizable(_)))
        ));
    }

    #[test]
    fn sweep_cell_schema_handles_ok_error_and_infinity() {
        let ok = SweepCell {
            topology: "rrg-8x5x3".into(),
            run: 0,
            scenario: "fail\"2".into(),
            traffic: "permutation".into(),
            backend: "fptas".into(),
            switches: 8,
            live_links: 10,
            flows: 16,
            result: Ok(CellMetrics {
                throughput: 0.75,
                network_lambda: 1.114e-5,
                upper_bound: 0.82,
                gap: 0.024,
                hop_bound: 2.198e-7,
                nic_limit: 1.0,
                settles: 123,
            }),
        };
        let local = SweepCell {
            result: Ok(CellMetrics {
                throughput: 1.0,
                network_lambda: f64::INFINITY,
                upper_bound: f64::INFINITY,
                gap: 0.0,
                hop_bound: f64::INFINITY,
                nic_limit: 1.0,
                settles: 0,
            }),
            ..ok.clone()
        };
        let failed = SweepCell {
            result: Err(FlowError::Unreachable { src: 1, dst: 5 }),
            ..ok.clone()
        };
        let report = SweepReport {
            cells: vec![ok, local, failed],
            dims: [1, 1, 3, 1, 1],
            cache: CacheStats::default(),
        };
        let text = report.to_json();
        assert_eq!(text.lines().count(), 5, "one cell per line:\n{text}");
        let parsed = Json::parse(&text).expect("valid JSON");
        let [ok, local, failed] = parsed.as_arr().unwrap() else {
            panic!("three cells: {text}")
        };
        assert_eq!(
            ok.keys(),
            [
                "topology",
                "run",
                "scenario",
                "traffic",
                "backend",
                "switches",
                "live_links",
                "flows",
                "status",
                "throughput",
                "network_lambda",
                "upper_bound",
                "gap",
                "hop_bound",
                "settles"
            ]
        );
        let f = |cell: &Json, k: &str| cell.get(k).and_then(Json::as_f64);
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("scenario").and_then(Json::as_str), Some("fail\"2"));
        assert_eq!(f(ok, "throughput"), Some(0.75));
        // small values keep every digit (a fixed six decimals wrote
        // these as 0.000011 and 0.000000)
        assert_eq!(f(ok, "network_lambda"), Some(1.114e-5));
        assert_eq!(f(ok, "hop_bound"), Some(2.198e-7));
        assert_eq!(ok.get("settles").and_then(Json::as_u64), Some(123));
        // infinities serialize as null, keeping the artifact valid JSON
        assert_eq!(local.get("network_lambda"), Some(&Json::Null));
        assert_eq!(local.get("hop_bound"), Some(&Json::Null));
        assert_eq!(f(local, "throughput"), Some(1.0));
        // errors carry their display text and null metrics
        let status = failed.get("status").and_then(Json::as_str).unwrap();
        assert_eq!(
            status,
            FlowError::Unreachable { src: 1, dst: 5 }.to_string()
        );
        for k in [
            "throughput",
            "network_lambda",
            "upper_bound",
            "gap",
            "hop_bound",
            "settles",
        ] {
            assert_eq!(failed.get(k), Some(&Json::Null), "{k}");
        }
    }
}
