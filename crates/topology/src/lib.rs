//! # dctopo-topology
//!
//! Topology constructors for homogeneous and heterogeneous data center
//! networks (§4, §5, §7 of the paper).
//!
//! The central type is [`Topology`]: a *switch-level* capacitated graph
//! plus the number of servers attached to each switch and a class label
//! per switch (ToR / aggregation / core, or large / small). Server access
//! links are intentionally **not** part of the graph — the paper's model
//! counts only network (switch-to-switch) capacity, treats every server
//! NIC as a unit-rate constraint, and measures path lengths over the
//! switch graph. `dctopo-core` enforces the NIC constraint when
//! converting server traffic matrices into switch commodities.
//!
//! Families provided:
//!
//! * [`Topology::random_regular`] — `RRG(N, k, r)`, the Jellyfish
//!   construction (§4).
//! * [`hetero::heterogeneous`] — arbitrary switch fleets with pluggable
//!   [`ServerPlacement`] (proportional / per-class / `k^β` power law, §5.1).
//! * [`hetero::two_cluster`] — two switch classes with an *exact* number
//!   of cross-cluster links (the §5/§6 experiments).
//! * [`hetero::two_cluster_linespeed`] — adds high line-speed trunks
//!   between large switches (§5.2).
//! * [`classic`] — fat-tree, hypercube, complete graph, 2-D torus
//!   baselines.
//! * [`vl2`] — the VL2 topology and the paper's §7 rewired variant.
//! * [`degrade`] — seeded, prefix-nested failure orders (links /
//!   switches) and heterogeneous line-card mixes, consumed by the
//!   scenario sweep engine in `dctopo-core`.
//! * [`moves`] — deterministic, validated degree-preserving two-swaps,
//!   the structural move vocabulary of the `dctopo-search` topology
//!   search engine.

#![warn(missing_docs)]

pub mod classic;
pub mod degrade;
pub mod hetero;
pub mod moves;
pub mod rrg;
pub mod stubs;
pub mod vl2;

use dctopo_graph::{Graph, GraphError, NodeId};

/// The most switches any family builds: 2^20, a thousand times the
/// largest fabric any figure or benchmark builds.
pub const MAX_SWITCHES: usize = 1 << 20;

/// The most links any family builds: 2^24. A link costs about 56 bytes
/// in the [`Graph`] (its edge record and two adjacency entries) and 64
/// in the flattened CSR net (two arcs), so a build stays under about
/// 2 GB.
pub const MAX_LINKS: usize = 1 << 24;

/// Refuse a `family` build of `switches` switches and `links` links,
/// each counted with checked arithmetic (`None` on overflow), before
/// anything is allocated.
pub(crate) fn check_size(
    family: &str,
    switches: Option<usize>,
    links: Option<usize>,
) -> Result<(), GraphError> {
    if switches.is_some_and(|n| n <= MAX_SWITCHES) && links.is_some_and(|m| m <= MAX_LINKS) {
        return Ok(());
    }
    let count = |x: Option<usize>| x.map_or("overflowing".into(), |x| x.to_string());
    Err(GraphError::Unrealizable(format!(
        "{family} of {} switches and {} links exceeds the limits of {MAX_SWITCHES} and {MAX_LINKS}",
        count(switches),
        count(links)
    )))
}

/// How servers are distributed across a heterogeneous switch fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerPlacement {
    /// Servers attached in proportion to switch port count (the paper's
    /// optimal policy, Fig. 4).
    Proportional,
    /// `counts[c]` servers at *each* switch of class `c`.
    PerClass(Vec<usize>),
    /// Servers attached in proportion to `port_count^beta` (Fig. 5);
    /// `beta = 0` is uniform, `beta = 1` is proportional.
    PowerLaw {
        /// The exponent β.
        beta: f64,
    },
}

/// A switch class: a human-readable name and the port count of every
/// switch in the class.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchClass {
    /// Display name ("tor", "agg", "core", "large", "small", ...).
    pub name: String,
    /// Ports per switch of this class.
    pub ports: usize,
}

/// A switch-level topology: graph + server placement + class labels.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The switch interconnect. Nodes are switches; edge capacities are
    /// in units of the server line rate (1.0 = 1×, 10.0 = a 10× link).
    pub graph: Graph,
    /// Servers attached to each switch.
    pub servers_at: Vec<usize>,
    /// Class index (into `classes`) of each switch.
    pub class_of: Vec<usize>,
    /// The switch classes.
    pub classes: Vec<SwitchClass>,
    /// Switch ports left unused by the builder (parity leftovers).
    pub unused_ports: usize,
}

impl Topology {
    /// One class of identical switches, `ports` ports each, over `graph`,
    /// with `servers` servers at every switch.
    pub(crate) fn uniform(graph: Graph, servers: usize, ports: usize) -> Topology {
        let n = graph.node_count();
        Topology {
            graph,
            servers_at: vec![servers; n],
            class_of: vec![0; n],
            classes: vec![SwitchClass {
                name: "switch".into(),
                ports,
            }],
            unused_ports: 0,
        }
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        self.servers_at.iter().sum()
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Map each dense server id to its switch: servers `0..s₀` live on
    /// switch 0, the next `s₁` on switch 1, and so on.
    pub fn server_to_switch(&self) -> Vec<NodeId> {
        let mut map = Vec::with_capacity(self.server_count());
        for (sw, &cnt) in self.servers_at.iter().enumerate() {
            map.extend(std::iter::repeat_n(sw, cnt));
        }
        map
    }

    /// Server ids grouped by switch (the "ToR groups" chunky traffic
    /// needs).
    pub fn server_groups(&self) -> Vec<Vec<usize>> {
        let mut groups = Vec::with_capacity(self.switch_count());
        let mut next = 0;
        for &cnt in &self.servers_at {
            groups.push((next..next + cnt).collect());
            next += cnt;
        }
        groups
    }

    /// Consistency check: every switch's servers + network links fit in
    /// its class's port budget. Returns the first violation.
    pub fn validate_ports(&self) -> Result<(), GraphError> {
        for v in 0..self.switch_count() {
            let class = &self.classes[self.class_of[v]];
            let used = self.servers_at[v] + self.graph.degree(v);
            if used > class.ports {
                return Err(GraphError::Unrealizable(format!(
                    "switch {v} uses {used} ports but class '{}' has only {}",
                    class.name, class.ports
                )));
            }
        }
        Ok(())
    }

    /// Membership vector for a cluster given as a class index
    /// (true = switch belongs to `class`). Used by cut analyses.
    pub fn class_membership(&self, class: usize) -> Vec<bool> {
        self.class_of.iter().map(|&c| c == class).collect()
    }
}

/// Shorthand used throughout the experiments: a class of `count`
/// identical switches with `ports` ports and `servers_per_switch`
/// servers each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of switches in this cluster.
    pub count: usize,
    /// Ports per switch.
    pub ports: usize,
    /// Servers per switch.
    pub servers_per_switch: usize,
}

impl ClusterSpec {
    /// Ports left for the network after server attachment, per switch.
    pub fn network_ports(&self) -> Result<usize, GraphError> {
        self.ports
            .checked_sub(self.servers_per_switch)
            .ok_or_else(|| {
                GraphError::Unrealizable(format!(
                    "{} servers exceed {} ports",
                    self.servers_per_switch, self.ports
                ))
            })
    }

    /// Total network stubs contributed by the cluster.
    pub fn total_network_ports(&self) -> Result<usize, GraphError> {
        (self.network_ports()?.checked_mul(self.count))
            .ok_or_else(|| GraphError::Unrealizable("cluster stub count overflows".into()))
    }
}

/// Expected number of cross-cluster links when `a` stubs and `b` stubs
/// (out of `a + b` total) are paired uniformly at random — the paper's
/// "Ratio to Expected Under Random Connection" x-axis normalisation.
pub fn expected_cross_links(a_stubs: usize, b_stubs: usize) -> f64 {
    let total = a_stubs + b_stubs;
    if total < 2 {
        return 0.0;
    }
    a_stubs as f64 * b_stubs as f64 / (total as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_accessors() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        let t = Topology {
            graph: g,
            servers_at: vec![2, 0, 1],
            class_of: vec![0, 1, 1],
            classes: vec![
                SwitchClass {
                    name: "large".into(),
                    ports: 4,
                },
                SwitchClass {
                    name: "small".into(),
                    ports: 3,
                },
            ],
            unused_ports: 0,
        };
        assert_eq!(t.server_count(), 3);
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.server_to_switch(), vec![0, 0, 2]);
        assert_eq!(t.server_groups(), vec![vec![0, 1], vec![], vec![2]]);
        assert_eq!(t.class_membership(1), vec![false, true, true]);
        assert_eq!(t.class_membership(0), vec![true, false, false]);
        t.validate_ports().unwrap();
    }

    #[test]
    fn validate_ports_catches_overflow() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let t = Topology {
            graph: g,
            servers_at: vec![3, 0],
            class_of: vec![0, 0],
            classes: vec![SwitchClass {
                name: "s".into(),
                ports: 3,
            }],
            unused_ports: 0,
        };
        assert!(t.validate_ports().is_err());
    }

    #[test]
    fn cluster_spec_budgets() {
        let c = ClusterSpec {
            count: 4,
            ports: 10,
            servers_per_switch: 3,
        };
        assert_eq!(c.network_ports().unwrap(), 7);
        assert_eq!(c.total_network_ports().unwrap(), 28);
        let bad = ClusterSpec {
            count: 1,
            ports: 2,
            servers_per_switch: 5,
        };
        assert!(bad.network_ports().is_err());
    }

    /// Every family refuses dimensions past [`MAX_SWITCHES`] or
    /// [`MAX_LINKS`], or whose counts overflow, with a typed error before
    /// it allocates: each build here would need gigabytes or more.
    #[test]
    fn every_family_refuses_oversized_dimensions_before_allocating() {
        use crate::classic::{complete, fat_tree, torus2d};
        use crate::hetero::{
            heterogeneous, heterogeneous_fleet, two_cluster, two_cluster_linespeed, CrossSpec,
        };
        use crate::vl2::{rewired_vl2, vl2, Vl2Params};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let rng = &mut StdRng::seed_from_u64(9);
        let cluster = |count, ports| ClusterSpec {
            count,
            ports,
            servers_per_switch: 1,
        };
        let vl2_of = |d_a, d_i, tors| Vl2Params { d_a, d_i, tors };
        let fleet = ServerPlacement::Proportional;
        let cases = [
            ("fat-tree k = 100000", fat_tree(100_000)),
            ("fat-tree k = 2^40", fat_tree(1 << 40)),
            ("complete 3,000,000", complete(3_000_000, 1)),
            ("complete 6,000", complete(6_000, 1)),
            ("torus 2048 × 1024", torus2d(2048, 1024, 1)),
            ("torus 2^33 × 2^33", torus2d(1 << 33, 1 << 33, 1)),
            (
                "VL2 at design capacity",
                vl2(vl2_of(1 << 12, 1 << 12, None)),
            ),
            ("VL2 2^40 × 2^40", vl2(vl2_of(1 << 40, 1 << 40, Some(1)))),
            (
                "rewired VL2",
                rewired_vl2(vl2_of(1 << 12, 1 << 12, Some(4)), rng),
            ),
            (
                "fleet switches",
                heterogeneous(&[(1 << 21, 8)], 0, &fleet, rng),
            ),
            (
                "fleet links",
                heterogeneous(&[(1 << 16, 1 << 10)], 0, &fleet, rng),
            ),
            (
                "explicit fleet",
                heterogeneous_fleet(
                    &vec![1 << 10; 1 << 16],
                    vec![0; 1 << 16],
                    vec!["big".into()],
                    0,
                    &fleet,
                    rng,
                ),
            ),
            (
                "two-cluster",
                two_cluster(cluster(1 << 20, 8), cluster(1, 8), CrossSpec::Exact(0), rng),
            ),
            (
                "two-cluster trunks",
                two_cluster_linespeed(
                    cluster(2, 2),
                    cluster(2, 2),
                    CrossSpec::Exact(0),
                    1 << 25,
                    4.0,
                    rng,
                ),
            ),
            (
                "RRG of 2^20 switches, degree 40",
                Topology::random_regular(1 << 20, 64, 40, rng),
            ),
        ];
        for (what, built) in cases {
            assert!(
                matches!(&built, Err(GraphError::Unrealizable(m)) if m.contains("exceeds the limits")),
                "{what}: {:?}",
                built.map(|t| t.switch_count())
            );
        }
    }

    #[test]
    fn expected_cross_links_symmetric() {
        assert_eq!(expected_cross_links(0, 10), 0.0);
        let e = expected_cross_links(10, 10);
        assert!((e - 100.0 / 19.0).abs() < 1e-12);
        assert_eq!(expected_cross_links(4, 6), expected_cross_links(6, 4));
    }
}
