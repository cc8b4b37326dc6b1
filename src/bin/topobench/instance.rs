//! The preamble every solving subcommand shares: seed → topology →
//! traffic → `FlowOptions`, parsed once through the `dctopo-core` spec
//! grammar and built per seed with the topology and traffic drawn from
//! one RNG, in that order.

use dctopo::core::{BackendChoice, TopologyPoint, TrafficModel};
use dctopo::prelude::*;
use dctopo::traffic::AggregateTraffic;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{Args, CliError, CliResult, OrFail};

/// Default `--max-pairs`: dense pair lists beyond this abort with
/// advice instead of OOMing (all-to-all at 1024 switches × 16 servers
/// is ~268M pairs, gigabytes of demand state before the solver starts).
const DEFAULT_MAX_PAIRS: u128 = 4_000_000;

/// Where a subcommand's topology comes from.
pub enum FamilyArg {
    /// The positional family plus its dimension flags
    /// (`rrg --switches 16 --ports 8 --degree 4`).
    Flags,
    /// `--family <spec>`, with the subcommand's default spec.
    Spec(&'static str),
}

/// Resolve the topology axis point and the label banners call it by
/// (the family exactly as the user typed it).
pub fn family_point(args: &Args, family: FamilyArg) -> CliResult<(String, TopologyPoint)> {
    match family {
        FamilyArg::Flags => {
            let label = args.positional()?;
            let family = if label == "vl2" && args.switch("rewired") {
                "vl2-rewired"
            } else {
                label
            };
            let (_, flags) = TopologyPoint::flag_forms()
                .find(|(name, _)| *name == family)
                .ok_or_else(|| CliError::Usage(format!("unknown family '{label}'")))?;
            // the spec the dimension flags spell: an absent --servers is 1,
            // an absent --tors ends it early (VL2's design capacity)
            let mut dims = Vec::new();
            for &flag in flags {
                match args.get::<usize>(flag)? {
                    Some(v) => dims.push(v.to_string()),
                    None if flag == "servers" => dims.push("1".into()),
                    None if flag == "tors" => break,
                    None => return Err(CliError::Usage(format!("{label} needs --{flag}"))),
                }
            }
            let spec = format!("{family}:{}", dims.join("x"));
            Ok((label.to_string(), spec.parse()?))
        }
        FamilyArg::Spec(default) => {
            let spec = args.text("family").unwrap_or(default);
            Ok((spec.to_string(), spec.parse()?))
        }
    }
}

/// `--precise` picks the tight profile over the subcommand's `default`,
/// then `--backend`, where declared, the backend within it (so the two
/// combine in either order).
pub fn solver_options(args: &Args, default: FlowOptions) -> CliResult<FlowOptions> {
    let mut opts = if args.switch("precise") {
        FlowOptions::precise()
    } else {
        default
    };
    if args.declares("backend") {
        if let Some(backend) = args.get::<BackendChoice>("backend")? {
            backend.apply(&mut opts);
        }
    }
    Ok(opts)
}

/// `--traffic`: a materialized model, or one of the aggregated
/// (never-materialized) forms that stay `O(switches)` however large the
/// fabric is.
enum TrafficArg {
    Model(TrafficModel),
    AllToAllAgg,
    HotspotAgg(usize),
}

/// The traffic of one built instance.
pub enum Traffic {
    Pairs(TrafficMatrix),
    Aggregate(AggregateTraffic),
}

impl Traffic {
    /// `36 flows` / `1260 flows (aggregated)`, as banners say it.
    pub fn flows(&self) -> String {
        match self {
            Traffic::Pairs(tm) => format!("{} flows", tm.flow_count()),
            Traffic::Aggregate(agg) => format!("{} flows (aggregated)", agg.flow_count()),
        }
    }
}

pub struct Instance {
    pub topo: Topology,
    pub traffic: Traffic,
}

/// The certified numbers of one solve, whichever way the traffic was
/// given: the line `solve` and `profile` both print.
pub fn certified_line(r: &ThroughputResult) -> String {
    format!(
        "throughput {:.4} (network λ {:.4} ≤ {:.4} certified, NIC cap {:.4})",
        r.throughput, r.network_lambda, r.network_upper_bound, r.nic_limit
    )
}

impl Instance {
    /// The instance of a subcommand that needs the explicit pair list.
    pub fn pairs(self) -> CliResult<(Topology, TrafficMatrix)> {
        match self.traffic {
            Traffic::Pairs(tm) => Ok((self.topo, tm)),
            Traffic::Aggregate(_) => Err(CliError::Usage(
                "aggregated traffic (all-to-all-agg, hotspot-agg:<hot>) is only \
                 solved by `solve` and `profile`"
                    .into(),
            )),
        }
    }

    /// Solve on `engine` (built over this instance's topology): pair
    /// lists through the pairwise solver, aggregated specs through
    /// grouped demand descriptors + the grouped FPTAS, O(switches) memory.
    pub fn solve(
        &self,
        engine: &ThroughputEngine,
        opts: &FlowOptions,
    ) -> Result<ThroughputResult, dctopo::flow::FlowError> {
        match &self.traffic {
            Traffic::Aggregate(agg) => engine.solve_aggregate(agg, opts),
            Traffic::Pairs(tm) => engine.solve(tm, opts),
        }
    }
}

pub struct Setup {
    /// The family as typed, for banners.
    pub label: String,
    /// The traffic spec as typed, for banners.
    pub traffic_label: String,
    pub seed: u64,
    pub opts: FlowOptions,
    point: TopologyPoint,
    traffic: TrafficArg,
    max_pairs: u128,
}

impl Setup {
    /// Parse the shared flags (`--seed`, `--traffic`, `--precise`,
    /// `--backend`, `--max-pairs` where the subcommand takes it);
    /// `default_opts` is the subcommand's solver profile without
    /// `--precise`.
    pub fn parse(args: &Args, family: FamilyArg, default_opts: FlowOptions) -> CliResult<Setup> {
        let (label, point) = family_point(args, family)?;
        let traffic_label = args.text("traffic").unwrap_or("permutation").to_string();
        let traffic = match traffic_label.as_str() {
            "all-to-all-agg" => TrafficArg::AllToAllAgg,
            spec => match spec.strip_prefix("hotspot-agg:") {
                Some(hot) => TrafficArg::HotspotAgg(
                    hot.parse()
                        .map_err(|e| CliError::Usage(format!("--traffic {spec}: {e}")))?,
                ),
                None => TrafficArg::Model(spec.parse()?),
            },
        };
        Ok(Setup {
            label,
            traffic_label,
            seed: args.get("seed")?.unwrap_or(1),
            opts: solver_options(args, default_opts)?,
            point,
            traffic,
            // only the subcommands that take --max-pairs guard the list
            max_pairs: if args.declares("max-pairs") {
                args.get("max-pairs")?.unwrap_or(DEFAULT_MAX_PAIRS)
            } else {
                u128::MAX
            },
        })
    }

    /// Build the instance `seed` names.
    pub fn build(&self, seed: u64) -> CliResult<Instance> {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo =
            (self.point.build)(&mut rng).or_fail(format_args!("failed to build {}", self.label))?;
        let servers = topo.server_count();
        let traffic = match &self.traffic {
            TrafficArg::AllToAllAgg => Traffic::Aggregate(AggregateTraffic::all_to_all(servers)),
            &TrafficArg::HotspotAgg(hot) => {
                if hot < 1 || hot >= servers {
                    return Err(CliError::Fail(format!(
                        "hotspot set of {hot} is not a proper non-empty subset of {servers} servers"
                    )));
                }
                Traffic::Aggregate(AggregateTraffic::hotspot(servers, hot))
            }
            TrafficArg::Model(model) => {
                let pairs = model.pair_count(servers);
                if pairs > self.max_pairs {
                    return Err(CliError::Fail(format!(
                        "traffic '{}' on {servers} servers would materialize {pairs} pairs \
                         (limit --max-pairs {}); use the aggregated form \
                         (--traffic all-to-all-agg / hotspot-agg:<hot> on `solve`) or \
                         raise --max-pairs",
                        self.traffic_label, self.max_pairs
                    )));
                }
                Traffic::Pairs(model.generate(&topo, &mut rng).or_fail(format_args!(
                    "failed to generate {} traffic",
                    self.traffic_label
                ))?)
            }
        };
        Ok(Instance { topo, traffic })
    }
}
