//! Heterogeneous topology builders (§5 of the paper).
//!
//! * [`heterogeneous`] — arbitrary switch fleets: place servers by a
//!   [`ServerPlacement`] policy, then wire all remaining ports into an
//!   unbiased random graph.
//! * [`two_cluster`] — two switch classes with an exact / ratio-controlled
//!   number of cross-cluster links (the §5.1–§6 interconnection sweeps).
//! * [`two_cluster_linespeed`] — §5.2: large switches additionally carry
//!   high line-speed trunks that "connect only to other high line-speed
//!   ports".
//! * [`power_law_ports`] — a power-law port-count fleet for Fig. 5.

use dctopo_graph::{Graph, GraphError};
use rand::{Rng, RngExt};

use crate::stubs::{pair_bipartite, pair_stubs, pair_stubs_multi, stubs_from_counts};
use crate::{
    check_size, expected_cross_links, ClusterSpec, ServerPlacement, SwitchClass, Topology,
};

/// How many cross-cluster links a [`two_cluster`] build should use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossSpec {
    /// A multiple of the *expected* count under uniformly random wiring
    /// (the paper's x-axis; `Ratio(1.0)` ≈ vanilla random).
    Ratio(f64),
    /// An exact link count.
    Exact(usize),
}

/// Distribute `total_servers` over switches with the given port counts
/// according to `placement`, by largest-remainder rounding. Every switch
/// is left with at least one network port.
pub fn place_servers(
    ports: &[usize],
    total_servers: usize,
    placement: &ServerPlacement,
    class_of: &[usize],
) -> Result<Vec<usize>, GraphError> {
    let n = ports.len();
    if n == 0 {
        return Err(GraphError::Unrealizable("no switches".into()));
    }
    let weights: Vec<f64> = match placement {
        ServerPlacement::Proportional => ports.iter().map(|&p| p as f64).collect(),
        ServerPlacement::PowerLaw { beta } => {
            ports.iter().map(|&p| (p as f64).powf(*beta)).collect()
        }
        ServerPlacement::PerClass(counts) => {
            // direct assignment, no rounding needed
            let mut out = vec![0usize; n];
            for (v, &c) in class_of.iter().enumerate() {
                let cnt = *counts.get(c).ok_or_else(|| {
                    GraphError::Unrealizable(format!("no server count for class {c}"))
                })?;
                if cnt >= ports[v] {
                    return Err(GraphError::Unrealizable(format!(
                        "switch {v}: {cnt} servers leave no network port of {}",
                        ports[v]
                    )));
                }
                out[v] = cnt;
            }
            return Ok(out);
        }
    };
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return Err(GraphError::Unrealizable(
            "non-positive placement weights".into(),
        ));
    }
    let quota: Vec<f64> = weights
        .iter()
        .map(|w| total_servers as f64 * w / wsum)
        .collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    // largest fractional remainders get the leftover servers
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = quota[a] - quota[a].floor();
        let fb = quota[b] - quota[b].floor();
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    for &i in order.iter().take(total_servers - assigned) {
        counts[i] += 1;
    }
    // clamp to ports-1 (keep one network port), pushing overflow to the
    // least-loaded switches
    let mut overflow = 0usize;
    for i in 0..n {
        let cap = ports[i].saturating_sub(1);
        if counts[i] > cap {
            overflow += counts[i] - cap;
            counts[i] = cap;
        }
    }
    while overflow > 0 {
        // give to the switch with most spare port capacity
        let best = (0..n)
            .filter(|&i| counts[i] < ports[i].saturating_sub(1))
            .max_by_key(|&i| ports[i] - counts[i]);
        match best {
            Some(i) => {
                counts[i] += 1;
                overflow -= 1;
            }
            None => {
                return Err(GraphError::Unrealizable(format!(
                    "{overflow} servers do not fit while keeping network ports"
                )))
            }
        }
    }
    Ok(counts)
}

/// Build a heterogeneous random topology from explicit per-switch port
/// counts: place servers by `placement`, wire the remaining ports into an
/// unbiased random simple graph.
///
/// `class_of[v]` groups switches into reporting classes; `class_names`
/// labels them (one per class index used).
pub fn heterogeneous_fleet<R: Rng + ?Sized>(
    ports: &[usize],
    class_of: Vec<usize>,
    class_names: Vec<String>,
    total_servers: usize,
    placement: &ServerPlacement,
    rng: &mut R,
) -> Result<Topology, GraphError> {
    assert_eq!(ports.len(), class_of.len(), "ports/class length mismatch");
    let stubs = ports.iter().try_fold(0usize, |sum, &p| sum.checked_add(p));
    check_size("fleet", Some(ports.len()), stubs.map(|s| s / 2))?;
    let servers_at = place_servers(ports, total_servers, placement, &class_of)?;
    let counts: Vec<_> = (0..ports.len())
        .map(|v| (v, ports[v] - servers_at[v]))
        .collect();
    let mut last_err = None;
    for attempt in 0..10 {
        let mut g = Graph::new(ports.len());
        // the last attempts fall back to trunked (parallel) links, which
        // is how real fleets absorb degree sequences no simple graph can
        // realise (e.g. most ports concentrated on a few big switches)
        let result = if attempt < 8 {
            pair_stubs(&mut g, stubs_from_counts(&counts), 1.0, rng)
        } else {
            pair_stubs_multi(&mut g, stubs_from_counts(&counts), 1.0, rng)
        };
        match result {
            Ok(unused) => {
                let classes = class_names
                    .iter()
                    .enumerate()
                    .map(|(c, name)| SwitchClass {
                        name: name.clone(),
                        // ports of a class: max over members (classes are
                        // homogeneous in every builder we ship)
                        ports: ports
                            .iter()
                            .zip(&class_of)
                            .filter(|&(_, &cc)| cc == c)
                            .map(|(&p, _)| p)
                            .max()
                            .unwrap_or(0),
                    })
                    .collect();
                return Ok(Topology {
                    graph: g,
                    servers_at,
                    class_of,
                    classes,
                    unused_ports: unused,
                });
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("loop ran"))
}

/// Two-class fleet convenience over [`heterogeneous_fleet`]:
/// `classes[c] = (count, ports)`.
pub fn heterogeneous<R: Rng + ?Sized>(
    classes: &[(usize, usize)],
    total_servers: usize,
    placement: &ServerPlacement,
    rng: &mut R,
) -> Result<Topology, GraphError> {
    let switches = (classes.iter().map(|c| c.0)).try_fold(0usize, usize::checked_add);
    let stubs =
        (classes.iter()).try_fold(0, |sum: usize, &(n, p)| sum.checked_add(n.checked_mul(p)?));
    check_size("fleet", switches, stubs.map(|s| s / 2))?;
    let mut ports = Vec::new();
    let mut class_of = Vec::new();
    let mut names = Vec::new();
    for (c, &(count, p)) in classes.iter().enumerate() {
        ports.extend(std::iter::repeat_n(p, count));
        class_of.extend(std::iter::repeat_n(c, count));
        names.push(format!("class{c}({p}p)"));
    }
    heterogeneous_fleet(&ports, class_of, names, total_servers, placement, rng)
}

/// Two clusters ("large" = class 0, "small" = class 1) with a controlled
/// number of cross-cluster links; remaining ports wire randomly *within*
/// each cluster (§5.1 "Switch interconnection", §6 analyses).
pub fn two_cluster<R: Rng + ?Sized>(
    large: ClusterSpec,
    small: ClusterSpec,
    cross: CrossSpec,
    rng: &mut R,
) -> Result<Topology, GraphError> {
    let l_total = large.total_network_ports()?;
    let s_total = small.total_network_ports()?;
    let links = l_total.checked_add(s_total).map(|stubs| stubs / 2);
    check_size("two-cluster", large.count.checked_add(small.count), links)?;
    let cross_links = match cross {
        CrossSpec::Exact(x) => x,
        CrossSpec::Ratio(r) => {
            if !(r.is_finite() && r >= 0.0) {
                return Err(GraphError::Unrealizable(format!("bad cross ratio {r}")));
            }
            (r * expected_cross_links(l_total, s_total)).round() as usize
        }
    };
    let max_cross = l_total.min(s_total);
    if cross_links > max_cross {
        return Err(GraphError::Unrealizable(format!(
            "{cross_links} cross links exceed the {max_cross} available"
        )));
    }
    let n = large.count + small.count;
    let mut last_err = None;
    for _ in 0..8 {
        let mut g = Graph::new(n);
        let mut l_stubs = stubs_from_counts(
            &(0..large.count)
                .map(|v| (v, large.network_ports().expect("checked")))
                .collect::<Vec<_>>(),
        );
        let mut s_stubs = stubs_from_counts(
            &(large.count..n)
                .map(|v| (v, small.network_ports().expect("checked")))
                .collect::<Vec<_>>(),
        );
        let attempt = (|| -> Result<usize, GraphError> {
            let mut unused = 0;
            pair_bipartite(&mut g, &mut l_stubs, &mut s_stubs, cross_links, 1.0, rng)?;
            // Intra-cluster fill. A cluster of few high-radix switches can
            // have more free ports than a simple graph admits; fall back
            // to trunked (parallel) links then, as real deployments do.
            for stubs in [std::mem::take(&mut l_stubs), std::mem::take(&mut s_stubs)] {
                // one counting pass: stubs per node, then the node count
                // and the densest node
                let mut per_node = vec![0usize; n];
                for &v in &stubs {
                    per_node[v] += 1;
                }
                let nodes = per_node.iter().filter(|&&c| c > 0).count();
                let simple_capacity = nodes.saturating_sub(1);
                let densest = per_node.iter().copied().max().unwrap_or(0);
                if densest > simple_capacity {
                    unused += pair_stubs_multi(&mut g, stubs, 1.0, rng)?;
                } else {
                    unused += pair_stubs(&mut g, stubs, 1.0, rng)?;
                }
            }
            Ok(unused)
        })();
        match attempt {
            Ok(unused) => {
                return Ok(Topology {
                    graph: g,
                    servers_at: [
                        vec![large.servers_per_switch; large.count],
                        vec![small.servers_per_switch; small.count],
                    ]
                    .concat(),
                    class_of: [vec![0; large.count], vec![1; small.count]].concat(),
                    classes: vec![
                        SwitchClass {
                            name: "large".into(),
                            ports: large.ports,
                        },
                        SwitchClass {
                            name: "small".into(),
                            ports: small.ports,
                        },
                    ],
                    unused_ports: unused,
                })
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("loop ran"))
}

/// §5.2: [`two_cluster`] plus `high_per_large` extra high line-speed
/// ports on every large switch, of capacity `high_speed` (in units of the
/// low line-speed), randomly matched among the large switches only.
pub fn two_cluster_linespeed<R: Rng + ?Sized>(
    large: ClusterSpec,
    small: ClusterSpec,
    cross: CrossSpec,
    high_per_large: usize,
    high_speed: f64,
    rng: &mut R,
) -> Result<Topology, GraphError> {
    if high_per_large > 0 && large.count < 2 {
        return Err(GraphError::Unrealizable(
            "high-speed trunks need at least two large switches".into(),
        ));
    }
    let mut topo = two_cluster(large, small, cross, rng)?;
    let trunks = large.count.checked_mul(high_per_large);
    let links = trunks.and_then(|stubs| (stubs / 2).checked_add(topo.graph.edge_count()));
    check_size("two-cluster", Some(topo.switch_count()), links)?;
    if high_per_large > 0 {
        let high_stubs = stubs_from_counts(
            &(0..large.count)
                .map(|v| (v, high_per_large))
                .collect::<Vec<_>>(),
        );
        topo.unused_ports += pair_stubs(&mut topo.graph, high_stubs, high_speed, rng)?;
        topo.classes[0].ports = large.ports + high_per_large;
    }
    Ok(topo)
}

/// Sample `n` power-law port counts `k ∝ k^(-exponent)` over
/// `[min_ports, max_ports]` (Fig. 5's diverse fleet). Returns the counts
/// sorted descending so class grouping is stable.
pub fn power_law_ports<R: Rng + ?Sized>(
    n: usize,
    min_ports: usize,
    max_ports: usize,
    exponent: f64,
    rng: &mut R,
) -> Vec<usize> {
    assert!(min_ports >= 2 && max_ports >= min_ports, "bad port range");
    // discrete inverse-CDF sampling
    let weights: Vec<f64> = (min_ports..=max_ports)
        .map(|k| (k as f64).powf(-exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut u = rng.random_range(0.0..total);
        let mut k = max_ports;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                k = min_ports + i;
                break;
            }
            u -= w;
        }
        out.push(k);
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::components::cut_size;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn place_servers_proportional() {
        // ports 30,30,10,10,10 with 18 servers → 6,6,2,2,2
        let ports = [30, 30, 10, 10, 10];
        let s =
            place_servers(&ports, 18, &ServerPlacement::Proportional, &[0, 0, 1, 1, 1]).unwrap();
        assert_eq!(s, vec![6, 6, 2, 2, 2]);
        assert_eq!(s.iter().sum::<usize>(), 18);
    }

    #[test]
    fn place_servers_power_law_beta_zero_uniform() {
        let ports = [30, 20, 10, 5];
        let s =
            place_servers(&ports, 8, &ServerPlacement::PowerLaw { beta: 0.0 }, &[0; 4]).unwrap();
        assert_eq!(s, vec![2, 2, 2, 2]);
    }

    #[test]
    fn place_servers_respects_port_limit() {
        // 3-port switches can host at most 2 servers each
        let ports = [3, 3, 30];
        let s = place_servers(
            &ports,
            10,
            &ServerPlacement::PowerLaw { beta: 0.0 },
            &[0; 3],
        )
        .unwrap();
        assert!(s[0] <= 2 && s[1] <= 2);
        assert_eq!(s.iter().sum::<usize>(), 10);
        // impossible total
        assert!(place_servers(&ports, 40, &ServerPlacement::Proportional, &[0; 3]).is_err());
    }

    #[test]
    fn per_class_placement() {
        let ports = [30, 30, 10];
        let s = place_servers(
            &ports,
            0, // ignored for PerClass
            &ServerPlacement::PerClass(vec![12, 4]),
            &[0, 0, 1],
        )
        .unwrap();
        assert_eq!(s, vec![12, 12, 4]);
        // class count exceeding ports rejected
        assert!(place_servers(
            &ports,
            0,
            &ServerPlacement::PerClass(vec![30, 4]),
            &[0, 0, 1]
        )
        .is_err());
    }

    #[test]
    fn heterogeneous_builds_and_validates() {
        let mut rng = StdRng::seed_from_u64(20);
        let t = heterogeneous(
            &[(20, 30), (40, 10)],
            500,
            &ServerPlacement::Proportional,
            &mut rng,
        )
        .unwrap();
        assert_eq!(t.switch_count(), 60);
        assert_eq!(t.server_count(), 500);
        t.validate_ports().unwrap();
        // degrees = ports - servers (minus possibly one unused stub)
        let total_net_ports: usize = (0..60)
            .map(|v| if v < 20 { 30 } else { 10 } - t.servers_at[v])
            .sum();
        assert!(2 * t.graph.edge_count() + t.unused_ports == total_net_ports);
    }

    #[test]
    fn two_cluster_exact_cross_count() {
        let mut rng = StdRng::seed_from_u64(21);
        let large = ClusterSpec {
            count: 20,
            ports: 30,
            servers_per_switch: 12,
        };
        let small = ClusterSpec {
            count: 40,
            ports: 10,
            servers_per_switch: 4,
        };
        for cross in [40usize, 100, 200] {
            let t = two_cluster(large, small, CrossSpec::Exact(cross), &mut rng).unwrap();
            let in_large: Vec<bool> = (0..60).map(|v| v < 20).collect();
            assert_eq!(cut_size(&t.graph, &in_large), cross, "cross={cross}");
            t.validate_ports().unwrap();
        }
    }

    #[test]
    fn two_cluster_ratio_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(22);
        let large = ClusterSpec {
            count: 20,
            ports: 30,
            servers_per_switch: 12,
        };
        let small = ClusterSpec {
            count: 40,
            ports: 10,
            servers_per_switch: 4,
        };
        let l = large.total_network_ports().unwrap();
        let s = small.total_network_ports().unwrap();
        let t = two_cluster(large, small, CrossSpec::Ratio(1.0), &mut rng).unwrap();
        let in_large: Vec<bool> = (0..60).map(|v| v < 20).collect();
        let expected = expected_cross_links(l, s).round() as usize;
        assert_eq!(cut_size(&t.graph, &in_large), expected);
    }

    #[test]
    fn two_cluster_fills_a_wide_one_port_cluster_in_one_pass() {
        // 2^16 switches with one network port each: the fill counts
        // stubs per node once, where a scan of every stub per node
        // took 4·10^9 comparisons
        let one_port = |count| ClusterSpec {
            count,
            ports: 2,
            servers_per_switch: 1,
        };
        let n = 1 << 16;
        let mut rng = StdRng::seed_from_u64(26);
        let t = two_cluster(one_port(n), one_port(2), CrossSpec::Exact(2), &mut rng).unwrap();
        let in_large: Vec<bool> = (0..n + 2).map(|v| v < n).collect();
        assert_eq!(cut_size(&t.graph, &in_large), 2);
        assert_eq!(t.graph.edge_count(), (n + 2) / 2);
        assert_eq!(t.unused_ports, 0);
        t.validate_ports().unwrap();
    }

    #[test]
    fn two_cluster_rejects_excess_cross() {
        let mut rng = StdRng::seed_from_u64(23);
        let large = ClusterSpec {
            count: 2,
            ports: 4,
            servers_per_switch: 1,
        };
        let small = ClusterSpec {
            count: 2,
            ports: 4,
            servers_per_switch: 1,
        };
        assert!(two_cluster(large, small, CrossSpec::Exact(100), &mut rng).is_err());
    }

    #[test]
    fn linespeed_adds_high_trunks() {
        let mut rng = StdRng::seed_from_u64(24);
        let large = ClusterSpec {
            count: 20,
            ports: 40,
            servers_per_switch: 34,
        };
        let small = ClusterSpec {
            count: 20,
            ports: 15,
            servers_per_switch: 9,
        };
        let t =
            two_cluster_linespeed(large, small, CrossSpec::Ratio(1.0), 3, 10.0, &mut rng).unwrap();
        // high-speed edges exist, only among large switches
        let high: Vec<_> = t
            .graph
            .edges()
            .iter()
            .filter(|e| e.capacity > 1.0)
            .collect();
        assert!(!high.is_empty());
        for e in &high {
            assert!(e.u < 20 && e.v < 20, "high trunk touches small switch");
            assert_eq!(e.capacity, 10.0);
        }
        // each large switch carries `high_per_large` high-speed ports
        // (possibly minus parity leftover)
        let total_high: usize = high.len() * 2;
        assert!(total_high + t.unused_ports >= 60 && total_high <= 60);
        t.validate_ports().unwrap();
    }

    #[test]
    fn power_law_ports_in_range_and_skewed() {
        let mut rng = StdRng::seed_from_u64(25);
        let ports = power_law_ports(500, 4, 48, 2.0, &mut rng);
        assert_eq!(ports.len(), 500);
        assert!(ports.iter().all(|&p| (4..=48).contains(&p)));
        // power law: small values dominate
        let small = ports.iter().filter(|&&p| p <= 8).count();
        assert!(
            small > 250,
            "expected skew toward small port counts, got {small}/500"
        );
        // sorted descending
        assert!(ports.windows(2).all(|w| w[0] >= w[1]));
    }
}
