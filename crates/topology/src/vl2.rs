//! The VL2 topology (Greenberg et al., the paper's \[17\]) and the paper's
//! §7 rewired variant.
//!
//! Capacities are in units of the server line rate: server NICs are 1×
//! (1 GbE in the paper), all switch-to-switch links are `UPLINK_SPEED` =
//! 10× (10 GbE).
//!
//! **VL2(D_A, D_I)**: `D_I` aggregation switches with `D_A` ports, and
//! `D_A/2` core (intermediate) switches with `D_I` ports, wired as a
//! complete bipartite graph; each ToR has 20 servers and two 10× uplinks
//! to two distinct aggregation switches. Such a network supports
//! `D_A·D_I/4` ToRs at full throughput.
//!
//! **Rewired VL2** (§7): same switch equipment, but ToR uplinks are
//! spread over aggregation *and* core switches in proportion to switch
//! degrees, and all remaining 10× ports are wired uniformly at random.

use dctopo_graph::{Graph, GraphError};
use rand::{Rng, RngExt};

use crate::stubs::pair_stubs;
use crate::{check_size, SwitchClass, Topology};

/// Switch-to-switch line speed relative to the server line speed.
pub const UPLINK_SPEED: f64 = 10.0;
/// Servers per ToR in VL2.
pub const SERVERS_PER_TOR: usize = 20;
/// Uplink ports per ToR in VL2.
pub const TOR_UPLINKS: usize = 2;

/// Parameters of a VL2 build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vl2Params {
    /// Aggregation switch port count `D_A` (must be even).
    pub d_a: usize,
    /// Core/intermediate switch port count `D_I`
    /// (= number of aggregation switches).
    pub d_i: usize,
    /// Number of ToRs. `None` = the full-throughput capacity
    /// `D_A·D_I/4`.
    pub tors: Option<usize>,
}

impl Vl2Params {
    /// Validate and return `(n_tors, n_agg, n_core)`.
    fn shape(&self) -> Result<(usize, usize, usize), GraphError> {
        if self.d_a < 2 || !self.d_a.is_multiple_of(2) {
            return Err(GraphError::Unrealizable(format!(
                "D_A must be even ≥ 2, got {}",
                self.d_a
            )));
        }
        if self.d_i < 2 {
            return Err(GraphError::Unrealizable(format!(
                "D_I must be ≥ 2, got {}",
                self.d_i
            )));
        }
        let ports = self.d_a.checked_mul(self.d_i);
        // an overflowed design capacity is refused with the links below
        let tors = self.tors.or(ports.map(|p| p / 4)).unwrap_or(usize::MAX);
        if tors == 0 {
            return Err(GraphError::Unrealizable("need at least one ToR".into()));
        }
        let switches = (tors.checked_add(self.d_i)).and_then(|n| n.checked_add(self.d_a / 2));
        // every link of either build ends at an aggregation or a core
        // port: D_I·D_A of the first kind, D_A/2·D_I of the second
        check_size("VL2", switches, ports.and_then(|p| p.checked_add(p / 2)))?;
        Ok((tors, self.d_i, self.d_a / 2))
    }

    /// The ToR count VL2 supports at full throughput, `D_A·D_I/4`.
    ///
    /// # Errors
    /// As [`vl2`] when `D_A` or `D_I` is invalid (`tors` is ignored).
    pub fn full_throughput_tors(&self) -> Result<usize, GraphError> {
        let design = Vl2Params {
            tors: None,
            ..*self
        };
        design.shape().map(|(tors, _, _)| tors)
    }
}

/// Build the standard VL2 topology.
///
/// Node layout: `[ToRs | aggregation | core]`. If `params.tors` exceeds
/// the ToR uplink capacity of the aggregation layer, this errors.
pub fn vl2(params: Vl2Params) -> Result<Topology, GraphError> {
    let (n_tors, n_agg, n_core) = params.shape()?;
    // each agg switch has D_A/2 ports facing ToRs
    let tor_port_capacity = n_agg * params.d_a / 2;
    if n_tors * TOR_UPLINKS > tor_port_capacity {
        return Err(GraphError::Unrealizable(format!(
            "{n_tors} ToRs need {} agg ports, only {tor_port_capacity} available",
            n_tors * TOR_UPLINKS
        )));
    }
    let n = n_tors + n_agg + n_core;
    let agg_id = |i: usize| n_tors + i;
    let core_id = |i: usize| n_tors + n_agg + i;
    let mut g = Graph::new(n);
    // ToR uplinks: ToR t to agg (2t) mod D_I and (2t+1) mod D_I, which
    // balances load exactly when n_tors is the full-throughput count
    for t in 0..n_tors {
        g.add_edge(t, agg_id((2 * t) % n_agg), UPLINK_SPEED)?;
        g.add_edge(t, agg_id((2 * t + 1) % n_agg), UPLINK_SPEED)?;
    }
    // complete bipartite agg-core
    for a in 0..n_agg {
        for c in 0..n_core {
            g.add_edge(agg_id(a), core_id(c), UPLINK_SPEED)?;
        }
    }
    Ok(finish(g, n_tors, n_agg, n_core, params))
}

/// Build the §7 rewired variant with the *same equipment* as
/// [`vl2`]: ToR uplinks spread over aggregation and core switches in
/// proportion to their port counts, every remaining 10× port wired
/// uniformly at random.
pub fn rewired_vl2<R: Rng + ?Sized>(
    params: Vl2Params,
    rng: &mut R,
) -> Result<Topology, GraphError> {
    let (n_tors, n_agg, n_core) = params.shape()?;
    let switch_ports: usize = n_agg * params.d_a + n_core * params.d_i;
    if n_tors * TOR_UPLINKS > switch_ports {
        return Err(GraphError::Unrealizable(format!(
            "{n_tors} ToRs need {} switch ports, only {switch_ports} available",
            n_tors * TOR_UPLINKS
        )));
    }
    let n = n_tors + n_agg + n_core;
    let agg_id = |i: usize| n_tors + i;
    let core_id = |i: usize| n_tors + n_agg + i;
    // "distribute the ToRs over aggregation and core switches in
    // proportion to their degrees": an *exact* largest-remainder quota,
    // not random sampling — random sampling would occasionally pile ToR
    // uplinks onto one switch and starve its onward capacity, exactly
    // the imbalance §5.1 teaches to avoid.
    let uplinks = n_tors * TOR_UPLINKS;
    let ports_of = |s: usize| if s < n_agg { params.d_a } else { params.d_i };
    let quota = {
        let mut q = vec![0usize; n_agg + n_core];
        let mut frac: Vec<(f64, usize)> = Vec::with_capacity(q.len());
        let mut assigned = 0usize;
        for (s, entry) in q.iter_mut().enumerate() {
            let exact = uplinks as f64 * ports_of(s) as f64 / switch_ports as f64;
            *entry = exact.floor() as usize;
            assigned += *entry;
            frac.push((exact - exact.floor(), s));
        }
        frac.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        for &(_, s) in frac.iter().take(uplinks - assigned) {
            q[s] += 1;
        }
        q
    };
    let mut last_err = None;
    for _ in 0..8 {
        let mut g = Graph::new(n);
        // uplink slots honour the quota exactly; the ToR-to-slot matching
        // is random
        let mut slots: Vec<usize> = Vec::with_capacity(uplinks);
        for (s, &q) in quota.iter().enumerate() {
            let node = if s < n_agg {
                agg_id(s)
            } else {
                core_id(s - n_agg)
            };
            slots.extend(std::iter::repeat_n(node, q));
        }
        let attempt = (|| -> Result<usize, GraphError> {
            for t in 0..n_tors {
                for _ in 0..TOR_UPLINKS {
                    let mut placed = false;
                    for _ in 0..64 {
                        let i = rng.random_range(0..slots.len());
                        let sw = slots[i];
                        if !g.has_edge(t, sw) {
                            g.add_edge(t, sw, UPLINK_SPEED)?;
                            slots.swap_remove(i);
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        return Err(GraphError::Unrealizable(format!(
                            "could not place uplink of ToR {t}"
                        )));
                    }
                }
            }
            // wire the remaining switch ports uniformly at random
            let mut pool: Vec<usize> = Vec::with_capacity(switch_ports - uplinks);
            for (s, &q) in quota.iter().enumerate() {
                let node = if s < n_agg {
                    agg_id(s)
                } else {
                    core_id(s - n_agg)
                };
                pool.extend(std::iter::repeat_n(node, ports_of(s) - q));
            }
            pair_stubs(&mut g, pool, UPLINK_SPEED, rng)
        })();
        match attempt {
            Ok(unused) => {
                let mut topo = finish(g, n_tors, n_agg, n_core, params);
                topo.unused_ports = unused;
                return Ok(topo);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("loop ran"))
}

fn finish(g: Graph, n_tors: usize, n_agg: usize, n_core: usize, params: Vl2Params) -> Topology {
    let n = n_tors + n_agg + n_core;
    let mut servers_at = vec![0usize; n];
    for s in servers_at.iter_mut().take(n_tors) {
        *s = SERVERS_PER_TOR;
    }
    let mut class_of = vec![0usize; n];
    class_of[n_tors..n_tors + n_agg].fill(1);
    class_of[n_tors + n_agg..].fill(2);
    Topology {
        graph: g,
        servers_at,
        class_of,
        classes: vec![
            SwitchClass {
                name: "tor".into(),
                ports: SERVERS_PER_TOR + TOR_UPLINKS,
            },
            SwitchClass {
                name: "agg".into(),
                ports: params.d_a,
            },
            SwitchClass {
                name: "core".into(),
                ports: params.d_i,
            },
        ],
        unused_ports: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::components::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn vl2_structure() {
        let p = Vl2Params {
            d_a: 8,
            d_i: 8,
            tors: None,
        };
        let t = vl2(p).unwrap();
        // 16 ToRs, 8 agg, 4 core
        assert_eq!(t.switch_count(), 28);
        assert_eq!(t.server_count(), 16 * 20);
        assert!(is_connected(&t.graph));
        // agg degree: D_A/2 ToR-facing (full population) + D_A/2 cores
        for a in 16..24 {
            assert_eq!(t.graph.degree(a), 8);
        }
        // core degree: D_I aggs
        for c in 24..28 {
            assert_eq!(t.graph.degree(c), 8);
        }
        // every ToR has two uplinks to distinct switches
        for tor in 0..16 {
            assert_eq!(t.graph.degree(tor), 2);
            let nb: Vec<_> = t.graph.neighbors(tor).collect();
            assert_ne!(nb[0], nb[1]);
        }
        // all network links are 10x
        assert!(t.graph.edges().iter().all(|e| e.capacity == UPLINK_SPEED));
        t.validate_ports().unwrap();
    }

    #[test]
    fn vl2_undersubscribed_tor_count() {
        let p = Vl2Params {
            d_a: 8,
            d_i: 8,
            tors: Some(12),
        };
        let t = vl2(p).unwrap();
        assert_eq!(t.server_count(), 240);
        // the agg layer's ToR-facing ports cap the ToR count at
        // D_A·D_I/4 — beyond that the bipartite build must error
        let p_bad = Vl2Params {
            d_a: 8,
            d_i: 8,
            tors: Some(17),
        };
        assert!(vl2(p_bad).is_err());
    }

    #[test]
    fn vl2_rejects_bad_params() {
        assert!(vl2(Vl2Params {
            d_a: 7,
            d_i: 8,
            tors: None
        })
        .is_err());
        assert!(vl2(Vl2Params {
            d_a: 8,
            d_i: 1,
            tors: None
        })
        .is_err());
        assert!(vl2(Vl2Params {
            d_a: 8,
            d_i: 8,
            tors: Some(0)
        })
        .is_err());
    }

    #[test]
    fn rewired_same_equipment() {
        let mut rng = StdRng::seed_from_u64(30);
        let p = Vl2Params {
            d_a: 12,
            d_i: 12,
            tors: None,
        };
        let orig = vl2(p).unwrap();
        let rew = rewired_vl2(p, &mut rng).unwrap();
        assert_eq!(rew.switch_count(), orig.switch_count());
        assert_eq!(rew.server_count(), orig.server_count());
        assert!(is_connected(&rew.graph));
        // same port budget: total degree + unused must match the original
        // total degree (the bipartite build uses every port too when tors
        // is the full count)
        let deg_sum = |t: &Topology| 2 * t.graph.edge_count();
        assert_eq!(deg_sum(&rew) + rew.unused_ports, deg_sum(&orig));
        rew.validate_ports().unwrap();
        // ToRs still have exactly 2 uplinks to distinct switches
        for tor in 0..36 {
            assert_eq!(rew.graph.degree(tor), 2);
        }
        // some ToR now connects directly to a core switch (the whole
        // point of rewiring) — overwhelmingly likely
        let n_tors = 36;
        let core_lo = n_tors + 12;
        let tor_core = rew
            .graph
            .edges()
            .iter()
            .any(|e| (e.u < n_tors && e.v >= core_lo) || (e.v < n_tors && e.u >= core_lo));
        assert!(tor_core, "rewired VL2 has no ToR-core link");
    }

    #[test]
    fn rewired_supports_more_tors_than_bipartite_limit() {
        // the rewired build can host ToR counts the rigid build cannot
        let mut rng = StdRng::seed_from_u64(31);
        let p = Vl2Params {
            d_a: 8,
            d_i: 8,
            tors: Some(24),
        };
        assert!(vl2(Vl2Params {
            d_a: 8,
            d_i: 8,
            tors: Some(33)
        })
        .is_err());
        let rew = rewired_vl2(
            Vl2Params {
                tors: Some(33),
                ..p
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(rew.server_count(), 33 * 20);
    }
}
