//! Classic structured topologies used as baselines: three-tier fat-tree,
//! hypercube, 2-D torus, and the complete graph.

use dctopo_graph::{Graph, GraphError};

use crate::{check_size, SwitchClass, Topology};

/// The canonical k-ary fat-tree (Al-Fares et al., the paper's \[2\]):
/// `k` pods of `k/2` edge and `k/2` aggregation switches, `(k/2)²` core
/// switches, `k³/4` servers, all links unit capacity, every switch `k`
/// ports.
///
/// # Errors
/// `k` must be even and ≥ 2, within the crate's size limits.
pub fn fat_tree(k: usize) -> Result<Topology, GraphError> {
    if k < 2 || !k.is_multiple_of(2) {
        return Err(GraphError::Unrealizable(format!(
            "fat-tree needs even k ≥ 2, got {k}"
        )));
    }
    let half = k / 2;
    // k² edge and aggregation switches, half² core switches, and k·half²
    // links between each pair of adjacent layers
    let k2 = k.checked_mul(k);
    let switches = k2.and_then(|k2| k2.checked_add(half * half));
    check_size("fat-tree", switches, k2.and_then(|k2| k2.checked_mul(half)))?;
    let n_edge = k * half;
    let n_agg = k * half;
    let n_core = half * half;
    let n = n_edge + n_agg + n_core;
    // layout: [edge | agg | core]
    let edge_id = |pod: usize, i: usize| pod * half + i;
    let agg_id = |pod: usize, i: usize| n_edge + pod * half + i;
    let core_id = |j: usize| n_edge + n_agg + j;
    let mut g = Graph::new(n);
    for pod in 0..k {
        // full bipartite edge-agg inside the pod
        for e in 0..half {
            for a in 0..half {
                g.add_unit_edge(edge_id(pod, e), agg_id(pod, a))?;
            }
        }
        // agg i serves cores [i*half, (i+1)*half)
        for a in 0..half {
            for c in 0..half {
                g.add_unit_edge(agg_id(pod, a), core_id(a * half + c))?;
            }
        }
    }
    let mut servers_at = vec![0usize; n];
    servers_at[..n_edge].fill(half);
    let mut class_of = vec![0usize; n];
    class_of[n_edge..n_edge + n_agg].fill(1);
    class_of[n_edge + n_agg..].fill(2);
    Ok(Topology {
        graph: g,
        servers_at,
        class_of,
        classes: vec![
            SwitchClass {
                name: "edge".into(),
                ports: k,
            },
            SwitchClass {
                name: "agg".into(),
                ports: k,
            },
            SwitchClass {
                name: "core".into(),
                ports: k,
            },
        ],
        unused_ports: 0,
    })
}

/// The `dim`-dimensional hypercube: `2^dim` switches of network degree
/// `dim`, with `servers_per_switch` servers each (the intro's "random
/// graphs have roughly 30% higher throughput than hypercubes" baseline).
pub fn hypercube(dim: u32, servers_per_switch: usize) -> Result<Topology, GraphError> {
    if dim == 0 || dim > 20 {
        return Err(GraphError::Unrealizable(format!(
            "hypercube dim {dim} out of range"
        )));
    }
    let n = 1usize << dim;
    let mut g = Graph::new(n);
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1usize << b);
            if u < v {
                g.add_unit_edge(u, v)?;
            }
        }
    }
    let ports = dim as usize + servers_per_switch;
    Ok(Topology::uniform(g, servers_per_switch, ports))
}

/// `rows × cols` 2-D torus (degree 4 when both dimensions exceed 2).
pub fn torus2d(
    rows: usize,
    cols: usize,
    servers_per_switch: usize,
) -> Result<Topology, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::Unrealizable(
            "torus needs both dimensions ≥ 3 (wraparound would duplicate edges)".into(),
        ));
    }
    let n = rows.checked_mul(cols);
    check_size("torus", n, n.and_then(|n| n.checked_mul(2)))?;
    let n = rows * cols;
    let id = |r: usize, c: usize| r * cols + c;
    let mut g = Graph::new(n);
    for r in 0..rows {
        for c in 0..cols {
            g.add_unit_edge(id(r, c), id((r + 1) % rows, c))?;
            g.add_unit_edge(id(r, c), id(r, (c + 1) % cols))?;
        }
    }
    let ports = 4 + servers_per_switch;
    Ok(Topology::uniform(g, servers_per_switch, ports))
}

/// The complete graph `K_n` with `servers_per_switch` servers per switch.
pub fn complete(n: usize, servers_per_switch: usize) -> Result<Topology, GraphError> {
    if n < 2 {
        return Err(GraphError::Unrealizable(
            "complete graph needs n ≥ 2".into(),
        ));
    }
    let links = n.checked_mul(n - 1).map(|twice| twice / 2);
    check_size("complete graph", Some(n), links)?;
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            g.add_unit_edge(u, v)?;
        }
    }
    let ports = n - 1 + servers_per_switch;
    Ok(Topology::uniform(g, servers_per_switch, ports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::components::is_connected;
    use dctopo_graph::paths::path_stats;

    #[test]
    fn fat_tree_k4_structure() {
        let t = fat_tree(4).unwrap();
        // k=4: 8 edge, 8 agg, 4 core, 16 servers
        assert_eq!(t.switch_count(), 20);
        assert_eq!(t.server_count(), 16);
        assert!(is_connected(&t.graph));
        // network degrees: edge switches use k/2 ports up (k/2 go to
        // servers), agg and core use all k
        for v in 0..8 {
            assert_eq!(t.graph.degree(v), 2, "edge switch {v}");
        }
        for v in 8..20 {
            assert_eq!(t.graph.degree(v), 4, "agg/core switch {v}");
        }
        t.validate_ports().unwrap();
        // total edges: k^3/4 (edge-agg) + k^3/4... = 2 * k * (k/2)^2 = 16 + 16
        assert_eq!(t.graph.edge_count(), 32);
    }

    #[test]
    fn fat_tree_rejects_odd_k() {
        assert!(fat_tree(3).is_err());
        assert!(fat_tree(0).is_err());
    }

    #[test]
    fn hypercube_structure() {
        let t = hypercube(4, 3).unwrap();
        assert_eq!(t.switch_count(), 16);
        assert_eq!(t.graph.regular_degree(), Some(4));
        assert_eq!(t.server_count(), 48);
        let s = path_stats(&t.graph).unwrap();
        assert_eq!(s.diameter, 4);
        // hypercube ASPL = dim * 2^(dim-1) / (2^dim - 1)
        assert!((s.aspl - 4.0 * 8.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn torus_structure() {
        let t = torus2d(4, 5, 2).unwrap();
        assert_eq!(t.switch_count(), 20);
        assert_eq!(t.graph.regular_degree(), Some(4));
        assert!(is_connected(&t.graph));
        assert!(torus2d(2, 5, 1).is_err());
    }

    #[test]
    fn complete_structure() {
        let t = complete(7, 1).unwrap();
        assert_eq!(t.graph.edge_count(), 21);
        assert_eq!(path_stats(&t.graph).unwrap().diameter, 1);
        assert!(complete(1, 1).is_err());
    }
}
