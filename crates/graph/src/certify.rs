//! An independent check of a max-concurrent-flow certificate.
//!
//! A solve returns an interval `[λ, upper_bound]` for the optimal
//! concurrent throughput λ*, a flow that realises `λ`, and the arc
//! lengths `l` the bound was read at. [`check`] re-derives both ends from
//! that data alone:
//!
//! * **primal** — no arc carries more than its capacity (so a dead arc
//!   carries nothing), the flow's balance at every node is the supply
//!   the per-commodity rates imply, every commodity's rate covers `λ·d`,
//!   and a per-commodity record, when there is one, sums to the arc
//!   flow arc by arc and conserves each commodity with net outflow its
//!   rate;
//! * **dual** — LP duality gives `λ* ≤ D(l)/α(l)` for any non-negative
//!   lengths, with `D(l) = Σ_a c(a)·l(a)` and `α(l) = Σ_j d_j ·
//!   dist_l(s_j, t_j)`. The distances come from this module's own
//!   binary-heap Dijkstra, which skips dead arcs as every solver does.
//!   For a solve restricted to frozen path sets, `dist` is the cheapest
//!   frozen path instead. The claimed bound must be at least the
//!   re-derived one, and `λ` at most the claimed bound.
//!
//! Nothing here calls the solvers' shortest-path kernels
//! ([`CsrNet::dijkstra`] and its kin) or their workspaces: a check that
//! ran on the code under test would check nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::{ArcId, CsrNet, NodeId};

/// The one relative tolerance of every comparison: the float sums a
/// solver and this module form over the same arcs and paths differ in
/// the last few ulps, far below 1e-9, and a perturbation of 1e-6 is
/// caught.
pub const TOLERANCE: f64 = 1e-9;

/// What a solve returned, as the checker reads it.
#[derive(Debug, Clone, Copy)]
pub struct Certificate<'a> {
    /// The certified concurrent throughput λ.
    pub lambda: f64,
    /// The certified upper bound on λ*.
    pub upper_bound: f64,
    /// Flow per arc, indexed by [`ArcId`].
    pub arc_flow: &'a [f64],
    /// Rate per commodity, in demand order.
    pub rates: &'a [f64],
    /// Per-commodity arc flows (outer: commodity, inner: arc), if kept.
    pub record: Option<&'a [Vec<f64>]>,
    /// The lengths `upper_bound` was read at, one per arc.
    pub dual_lengths: &'a [f64],
    /// The frozen path set of each commodity, for a bound over the
    /// path-restricted problem (each path a sequence of arcs).
    pub paths: Option<&'a [Arc<Vec<Vec<ArcId>>>]>,
}

/// A certificate that does not hold, naming where and by how much.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A vector does not have one entry per arc or per commodity.
    Shape {
        /// Which vector.
        what: &'static str,
        /// Its length.
        len: usize,
        /// The length it should have.
        want: usize,
    },
    /// An arc carries more than its capacity.
    OverCapacity {
        /// The arc.
        arc: ArcId,
        /// Its flow.
        flow: f64,
        /// Its capacity.
        capacity: f64,
    },
    /// A commodity's rate is below `λ·d`.
    RateBelowLambda {
        /// The commodity.
        commodity: usize,
        /// Its rate.
        rate: f64,
        /// `λ·d`.
        want: f64,
    },
    /// `λ` exceeds the claimed upper bound.
    LambdaAboveBound {
        /// The claimed λ.
        lambda: f64,
        /// The claimed upper bound.
        upper_bound: f64,
    },
    /// The per-commodity record does not sum to the arc flow.
    RecordSum {
        /// The arc.
        arc: ArcId,
        /// The record's sum on it.
        record: f64,
        /// The arc flow.
        flow: f64,
    },
    /// One commodity's recorded flow does not conserve at a node.
    CommodityImbalance {
        /// The commodity.
        commodity: usize,
        /// The node.
        node: NodeId,
        /// Its net outflow there.
        net_out: f64,
        /// What its rate says it should be.
        want: f64,
    },
    /// The aggregate flow's balance at a node is not what the rates
    /// imply.
    Imbalance {
        /// The node.
        node: NodeId,
        /// The flow's net outflow there.
        net_out: f64,
        /// Rates leaving minus rates arriving there.
        supply: f64,
    },
    /// A dual length is negative or not finite.
    BadLength {
        /// The arc.
        arc: ArcId,
        /// Its length.
        length: f64,
    },
    /// The claimed upper bound is below `D(l)/α(l)` at its own lengths.
    BoundBelowDual {
        /// The claimed upper bound.
        upper_bound: f64,
        /// `D(l)/α(l)` re-derived here.
        dual: f64,
    },
}

/// The variant with its fields, e.g. `OverCapacity { arc: 3, flow:
/// 1.000001, capacity: 1.0 }`: where, and by how much.
impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for Violation {}

/// Check `cert`, solved on `net` for the `(src, dst, demand)` triples
/// `demands`. Returns the dual bound re-derived from
/// [`Certificate::dual_lengths`], or the first [`Violation`] found.
pub fn check(
    net: &CsrNet,
    demands: &[(NodeId, NodeId, f64)],
    cert: &Certificate<'_>,
) -> Result<f64, Violation> {
    let (n, m, k) = (net.node_count(), net.arc_count(), demands.len());
    shape("arc_flow", cert.arc_flow.len(), m)?;
    shape("rates", cert.rates.len(), k)?;
    for (a, &flow) in cert.arc_flow.iter().enumerate() {
        let capacity = net.capacity(a);
        if !at_most(flow, capacity * (1.0 + TOLERANCE)) {
            return Err(Violation::OverCapacity {
                arc: a,
                flow,
                capacity,
            });
        }
    }
    for (j, (&(_, _, d), &rate)) in demands.iter().zip(cert.rates).enumerate() {
        let want = cert.lambda * d;
        if !at_most(want * (1.0 - TOLERANCE), rate) {
            return Err(Violation::RateBelowLambda {
                commodity: j,
                rate,
                want,
            });
        }
    }
    if !at_most(cert.lambda, cert.upper_bound * (1.0 + TOLERANCE)) {
        return Err(Violation::LambdaAboveBound {
            lambda: cert.lambda,
            upper_bound: cert.upper_bound,
        });
    }
    if let Some(record) = cert.record {
        check_record(net, demands, cert, record)?;
    }
    let (mut net_out, mut scale) = (vec![0.0f64; n], vec![0.0f64; n]);
    balance(net, cert.arc_flow, &mut net_out, &mut scale);
    let mut supply = vec![0.0f64; n];
    for (&(s, t, _), &rate) in demands.iter().zip(cert.rates) {
        (supply[s], supply[t]) = (supply[s] + rate, supply[t] - rate);
        (scale[s], scale[t]) = (scale[s] + rate.abs(), scale[t] + rate.abs());
    }
    for v in 0..n {
        if !near(net_out[v], supply[v], scale[v]) {
            return Err(Violation::Imbalance {
                node: v,
                net_out: net_out[v],
                supply: supply[v],
            });
        }
    }
    let dual = dual_bound(net, demands, cert)?;
    if !at_most(dual * (1.0 - TOLERANCE), cert.upper_bound) {
        return Err(Violation::BoundBelowDual {
            upper_bound: cert.upper_bound,
            dual,
        });
    }
    Ok(dual)
}

fn shape(what: &'static str, len: usize, want: usize) -> Result<(), Violation> {
    if len == want {
        Ok(())
    } else {
        Err(Violation::Shape { what, len, want })
    }
}

/// `x ≤ limit`; false when either is NaN, so a NaN never passes.
fn at_most(x: f64, limit: f64) -> bool {
    x <= limit
}

/// `x` and `y` agree to [`TOLERANCE`] relative to `scale`, the
/// magnitude of the terms `x` was summed from (false on a NaN).
fn near(x: f64, y: f64, scale: f64) -> bool {
    (x - y).abs() <= TOLERANCE * scale
}

/// Net outflow `Σ out − Σ in` of `flow` at every node into `net_out`,
/// and the magnitude of the terms summed there into `scale`.
fn balance(net: &CsrNet, flow: &[f64], net_out: &mut [f64], scale: &mut [f64]) {
    net_out.fill(0.0);
    scale.fill(0.0);
    for (a, &f) in flow.iter().enumerate() {
        let (t, h) = (net.arc_tail(a), net.arc_head(a));
        (net_out[t], net_out[h]) = (net_out[t] + f, net_out[h] - f);
        (scale[t], scale[h]) = (scale[t] + f.abs(), scale[h] + f.abs());
    }
}

/// The record sums to the arc flow, and each commodity's record
/// conserves with net outflow its rate at its source.
fn check_record(
    net: &CsrNet,
    demands: &[(NodeId, NodeId, f64)],
    cert: &Certificate<'_>,
    record: &[Vec<f64>],
) -> Result<(), Violation> {
    let (n, m) = (net.node_count(), net.arc_count());
    shape("record", record.len(), demands.len())?;
    for row in record {
        shape("record row", row.len(), m)?;
    }
    for (a, &flow) in cert.arc_flow.iter().enumerate() {
        let sum: f64 = record.iter().map(|row| row[a]).sum();
        let scale: f64 = record.iter().map(|row| row[a].abs()).sum::<f64>() + flow.abs();
        if !near(sum, flow, scale) {
            return Err(Violation::RecordSum {
                arc: a,
                record: sum,
                flow,
            });
        }
    }
    let (mut net_out, mut scale) = (vec![0.0f64; n], vec![0.0f64; n]);
    for (j, (row, &(s, t, _))) in record.iter().zip(demands).enumerate() {
        balance(net, row, &mut net_out, &mut scale);
        let rate = cert.rates[j];
        for v in 0..n {
            let want = match v {
                v if v == s => rate,
                v if v == t => -rate,
                _ => 0.0,
            };
            if !near(net_out[v], want, scale[v] + want.abs()) {
                return Err(Violation::CommodityImbalance {
                    commodity: j,
                    node: v,
                    net_out: net_out[v],
                    want,
                });
            }
        }
    }
    Ok(())
}

/// `D(l)/α(l)` at the certificate's lengths.
fn dual_bound(
    net: &CsrNet,
    demands: &[(NodeId, NodeId, f64)],
    cert: &Certificate<'_>,
) -> Result<f64, Violation> {
    let l = cert.dual_lengths;
    shape("dual_lengths", l.len(), net.arc_count())?;
    if let Some(a) = l.iter().position(|&x| !(x.is_finite() && x >= 0.0)) {
        return Err(Violation::BadLength {
            arc: a,
            length: l[a],
        });
    }
    let d_l: f64 = l.iter().zip(net.capacities()).map(|(&x, &c)| x * c).sum();
    let mut alpha = 0.0f64;
    if let Some(paths) = cert.paths {
        shape("paths", paths.len(), demands.len())?;
        for (&(_, _, d), set) in demands.iter().zip(paths) {
            let cheapest = set
                .iter()
                .map(|p| p.iter().map(|&a| l[a]).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            alpha += d * cheapest;
        }
    } else {
        // one tree per distinct source
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by_key(|&j| demands[j].0);
        let mut dist = Vec::new();
        let mut src = None;
        for j in order {
            let (s, t, d) = demands[j];
            if src != Some(s) {
                distances(net, s, l, &mut dist);
                src = Some(s);
            }
            alpha += d * dist[t];
        }
    }
    Ok(d_l / alpha)
}

/// A heap entry ordered so the std max-heap pops the nearest node
/// first.
#[derive(PartialEq)]
struct Nearest(f64, NodeId);

impl Eq for Nearest {}

impl Ord for Nearest {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for Nearest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest distances from `src` under `length` over live arcs, into
/// `dist` (`∞` where unreachable): textbook Dijkstra with lazy deletion.
fn distances(net: &CsrNet, src: NodeId, length: &[f64], dist: &mut Vec<f64>) {
    dist.clear();
    dist.resize(net.node_count(), f64::INFINITY);
    dist[src] = 0.0;
    let mut heap = BinaryHeap::from([Nearest(0.0, src)]);
    while let Some(Nearest(d, v)) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        let (arcs, heads) = net.out_slots(v);
        for (&a, &h) in arcs.iter().zip(heads) {
            let (a, h) = (a as usize, h as usize);
            if !net.is_live(a) {
                continue;
            }
            let next = d + length[a];
            if next < dist[h] {
                dist[h] = next;
                heap.push(Nearest(next, h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// A 4-cycle, one unit commodity 0 → 2 at its optimum λ = 2: a unit
    /// on each of the two 2-hop routes.
    fn square() -> (CsrNet, Vec<f64>) {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let mut flow = vec![0.0; net.arc_count()];
        for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 2)] {
            flow[net.arc_between(u, v).unwrap()] = 1.0;
        }
        (net, flow)
    }

    fn cert<'a>(flow: &'a [f64], rates: &'a [f64], lengths: &'a [f64]) -> Certificate<'a> {
        Certificate {
            lambda: 2.0,
            upper_bound: 2.0,
            arc_flow: flow,
            rates,
            record: None,
            dual_lengths: lengths,
            paths: None,
        }
    }

    #[test]
    fn the_optimum_of_a_square_checks_and_its_bound_is_tight() {
        let (net, flow) = square();
        let demands = [(0, 2, 1.0)];
        // length 1 on the two arcs out of the source: D = 2, α = 1
        let mut cut = vec![0.0; net.arc_count()];
        cut[net.arc_between(0, 1).unwrap()] = 1.0;
        cut[net.arc_between(0, 3).unwrap()] = 1.0;
        assert_eq!(check(&net, &demands, &cert(&flow, &[2.0], &cut)), Ok(2.0));
        // no lengths: there is no dual side to check
        assert!(matches!(
            check(&net, &demands, &cert(&flow, &[2.0], &[])),
            Err(Violation::Shape {
                what: "dual_lengths",
                len: 0,
                ..
            })
        ));
        // unit lengths over one frozen 2-hop path: D = 8, α = 2
        let ones = vec![1.0; net.arc_count()];
        let path = vec![
            net.arc_between(0, 1).unwrap(),
            net.arc_between(1, 2).unwrap(),
        ];
        let paths = [Arc::new(vec![path])];
        let c = Certificate {
            upper_bound: 4.0,
            paths: Some(&paths),
            ..cert(&flow, &[2.0], &ones)
        };
        assert_eq!(check(&net, &demands, &c), Ok(4.0));
    }

    #[test]
    fn each_broken_side_is_named() {
        let (net, flow) = square();
        let ones = vec![1.0; net.arc_count()];
        let demands = [(0, 2, 1.0)];
        let c = Certificate {
            upper_bound: 4.0,
            ..cert(&flow, &[2.0], &ones)
        };
        let mut over = flow.clone();
        over[0] = 1.5;
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    arc_flow: &over,
                    ..c
                }
            ),
            Err(Violation::OverCapacity { arc: 0, .. })
        ));
        assert!(matches!(
            check(&net, &demands, &Certificate { rates: &[1.5], ..c }),
            Err(Violation::RateBelowLambda { commodity: 0, .. })
        ));
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    upper_bound: 3.0,
                    ..c
                }
            ),
            Err(Violation::BoundBelowDual { .. })
        ));
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    lambda: 5.0,
                    rates: &[5.0],
                    ..c
                }
            ),
            Err(Violation::LambdaAboveBound { .. })
        ));
        // flow that leaks at node 1
        let mut leak = flow.clone();
        leak[net.arc_between(1, 2).unwrap()] = 0.5;
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    arc_flow: &leak,
                    ..c
                }
            ),
            Err(Violation::Imbalance { node: 1, .. })
        ));
        let mut neg = ones.clone();
        neg[3] = -1.0;
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    dual_lengths: &neg,
                    ..c
                }
            ),
            Err(Violation::BadLength { arc: 3, .. })
        ));
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    dual_lengths: &ones[1..],
                    ..c
                }
            ),
            Err(Violation::Shape {
                what: "dual_lengths",
                ..
            })
        ));
        // a record that misses one arc's flow
        let mut record = vec![flow.clone()];
        record[0][0] = 0.0;
        assert!(matches!(
            check(
                &net,
                &demands,
                &Certificate {
                    record: Some(&record),
                    ..c
                }
            ),
            Err(Violation::RecordSum { arc: 0, .. })
        ));
    }

    #[test]
    fn dead_arcs_are_skipped_and_must_carry_nothing() {
        let (net, flow) = square();
        // fail the edge 0–1: only the route through 3 is left
        let view = net
            .with_disabled_arcs(&[net.arc_between(0, 1).unwrap()])
            .unwrap();
        let demands = [(0, 2, 1.0)];
        let ones = vec![1.0; view.arc_count()];
        assert!(matches!(
            check(&view, &demands, &cert(&flow, &[2.0], &ones)),
            Err(Violation::OverCapacity { .. })
        ));
        let mut half = vec![0.0; view.arc_count()];
        half[view.arc_between(0, 3).unwrap()] = 1.0;
        half[view.arc_between(3, 2).unwrap()] = 1.0;
        let c = Certificate {
            lambda: 1.0,
            upper_bound: 3.0,
            ..cert(&half, &[1.0], &ones)
        };
        // D counts the six live arcs, α the 2-hop route around the hole
        assert_eq!(check(&view, &demands, &c), Ok(3.0));
    }
}
