//! Path decomposition of a solved flow: turn each commodity's arc
//! flows ([`SolvedFlow::commodity_arc_flow`]) into a list of explicit
//! arc paths with rates — the routing input of the packet-level
//! co-validation engine (`dctopo-packetsim`).
//!
//! The stripping is deterministic: starting from the commodity's
//! source, repeatedly walk the arc with maximum residual flow (first
//! adjacency slot on ties) until the destination, subtract the
//! bottleneck, and emit the path. When a walk revisits a node, the
//! cycle just closed is cancelled *in place* — its bottleneck is
//! subtracted from the cycle arcs only, the walk rewinds to the
//! revisited node, and the prefix is untouched — so flow an iterative
//! solver deposits on cycles is dropped without cannibalizing genuine
//! path flow. Dead-end walks (float dust only: the recorded flows are
//! conservative) have their prefix minimum subtracted without
//! emitting. Every strip, cancellation, or dust removal zeroes at
//! least one arc's residual exactly, so a commodity decomposes in at
//! most `arc_count` steps.

use dctopo_graph::CsrNet;

use crate::{Commodity, FlowError, SolvedFlow};

/// Residual below which an arc is considered drained. Path flows below
/// this are not emitted.
const EPS: f64 = 1e-12;

/// One path of one commodity's decomposition.
#[derive(Debug, Clone)]
pub struct PathFlow {
    /// Index of the commodity in the solver's input order.
    pub commodity: usize,
    /// Contiguous arc ids from the commodity's source to its
    /// destination.
    pub arcs: Vec<usize>,
    /// Flow carried on this path, in [`SolvedFlow::arc_flow`] units.
    pub flow: f64,
}

/// Decompose `solved` into per-commodity path flows.
///
/// `commodities` must be the slice the flow was solved for, and the
/// solve must have recorded per-commodity arc flows
/// ([`crate::FlowOptions::record_commodity_flows`]).
///
/// For every commodity, the returned paths all run source → destination
/// over live arcs, and their flows sum to the commodity's routed rate
/// up to cycle/dust loss below `EPS` (1e-12) scale per arc.
///
/// # Errors
///
/// [`FlowError::BadOptions`] if the solve did not record commodity
/// flows or the record's shape does not match.
pub fn decompose_paths(
    net: &CsrNet,
    commodities: &[Commodity],
    solved: &SolvedFlow,
) -> Result<Vec<PathFlow>, FlowError> {
    let cf = solved.commodity_arc_flow.as_ref().ok_or_else(|| {
        FlowError::BadOptions(
            "decompose_paths needs a solve with record_commodity_flows set".into(),
        )
    })?;
    if cf.len() != commodities.len() || cf.iter().any(|v| v.len() != net.arc_count()) {
        return Err(FlowError::BadOptions(format!(
            "commodity_arc_flow shape {}×{} does not match {} commodities × {} arcs",
            cf.len(),
            cf.first().map_or(0, Vec::len),
            commodities.len(),
            net.arc_count()
        )));
    }
    let n = net.node_count();
    let mut out = Vec::new();
    let mut residual = vec![0.0f64; net.arc_count()];
    let mut walk: Vec<usize> = Vec::with_capacity(n);
    // pos[v] = index into `walk` where node v was left (usize::MAX =
    // not on the current walk); node at walk index i is arc i's tail
    let mut pos = vec![usize::MAX; n];
    // subtract the bottleneck over walk[from..], zeroing the argmin
    // exactly so every operation drains at least one arc
    fn strip(residual: &mut [f64], walk: &[usize], from: usize) -> f64 {
        let seg = &walk[from..];
        let bottleneck = seg
            .iter()
            .map(|&a| residual[a])
            .fold(f64::INFINITY, f64::min);
        let mut argmin = seg[0];
        for &a in seg {
            if residual[a] <= bottleneck {
                argmin = a;
                break;
            }
        }
        for &a in seg {
            residual[a] -= bottleneck;
        }
        residual[argmin] = 0.0;
        bottleneck
    }
    for (j, c) in commodities.iter().enumerate() {
        residual.copy_from_slice(&cf[j]);
        loop {
            // greedy max-residual walk from the source
            walk.clear();
            let mut at = c.src;
            pos[at] = 0;
            let mut reached = false;
            loop {
                if at == c.dst {
                    reached = true;
                    break;
                }
                let (arcs, heads) = net.out_slots(at);
                let mut pick: Option<(usize, f64, usize)> = None;
                for (slot, &a) in arcs.iter().enumerate() {
                    let r = residual[a as usize];
                    if r > EPS && pick.is_none_or(|(_, best, _)| r > best) {
                        pick = Some((a as usize, r, slot));
                    }
                }
                let Some((a, _, slot)) = pick else { break };
                walk.push(a);
                let next = heads[slot] as usize;
                if pos[next] != usize::MAX {
                    // the walk closed a cycle at `next`: cancel it in
                    // place and rewind, leaving the prefix intact —
                    // only genuine cycle flow is dropped
                    let p = pos[next];
                    strip(&mut residual, &walk, p);
                    for &dropped in &walk[p..] {
                        pos[net.arc_tail(dropped)] = usize::MAX;
                    }
                    pos[next] = p;
                    walk.truncate(p);
                    at = next;
                } else {
                    pos[next] = walk.len();
                    at = next;
                }
            }
            if walk.is_empty() {
                for p in pos.iter_mut() {
                    *p = usize::MAX;
                }
                break; // commodity drained (or src = a dead end of dust)
            }
            // a dead-ended walk carries only float dust (recorded flows
            // are conservative); strip without emitting either way
            let bottleneck = strip(&mut residual, &walk, 0);
            if reached && bottleneck > EPS {
                out.push(PathFlow {
                    commodity: j,
                    arcs: walk.clone(),
                    flow: bottleneck,
                });
            }
            for p in pos.iter_mut() {
                *p = usize::MAX;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_with_cache, FlowOptions, PathSetCache};
    use dctopo_graph::Graph;

    fn diamond() -> (CsrNet, Vec<Commodity>) {
        // 0-1, 1-3, 0-2, 2-3: two disjoint unit paths 0→3
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 3, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let commodities = vec![Commodity {
            src: 0,
            dst: 3,
            demand: 1.0,
        }];
        (net, commodities)
    }

    #[test]
    fn needs_recording() {
        let (net, commodities) = diamond();
        let opts = FlowOptions::default();
        let solved = solve_with_cache(&net, &commodities, &opts, &PathSetCache::new()).unwrap();
        assert!(solved.commodity_arc_flow.is_none());
        assert!(matches!(
            decompose_paths(&net, &commodities, &solved),
            Err(FlowError::BadOptions(_))
        ));
    }

    #[test]
    fn diamond_decomposes_into_both_paths() {
        let (net, commodities) = diamond();
        let opts = FlowOptions::default().with_commodity_flows(true);
        let solved = solve_with_cache(&net, &commodities, &opts, &PathSetCache::new()).unwrap();
        let paths = decompose_paths(&net, &commodities, &solved).unwrap();
        assert!(!paths.is_empty());
        let total: f64 = paths.iter().map(|p| p.flow).sum();
        assert!(
            (total - solved.commodity_rate[0]).abs() < 1e-9 * (1.0 + total),
            "path flows {total} must sum to the routed rate {}",
            solved.commodity_rate[0]
        );
        for p in &paths {
            assert_eq!(net.arc_tail(p.arcs[0]), 0);
            assert_eq!(net.arc_head(*p.arcs.last().unwrap()), 3);
            for w in p.arcs.windows(2) {
                assert_eq!(net.arc_head(w[0]), net.arc_tail(w[1]));
            }
        }
        // an optimal λ=2 flow uses both disjoint paths
        assert!(total > 1.5, "both unit paths should carry flow: {total}");
    }
}
