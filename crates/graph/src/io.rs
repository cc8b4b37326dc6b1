//! Graph output: Graphviz DOT and a plain capacitated edge list, so
//! topologies built here can be inspected with standard tooling
//! (`topobench build`).
//!
//! The edge-list format is one edge per line, `u v capacity`, after a
//! `#` comment and a `nodes N` header:
//!
//! ```text
//! # dctopo edge list
//! nodes 4
//! 0 1 1
//! 1 2 10
//! ```

use std::fmt::Write as _;

use crate::Graph;

/// Render the graph as Graphviz DOT. `label` names the graph; edges with
/// capacity ≠ 1 get a `label` and thicker pens so heterogeneous
/// line-speeds are visible at a glance.
pub fn to_dot(g: &Graph, label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {} {{", sanitize(label));
    let _ = writeln!(out, "  node [shape=circle];");
    for v in 0..g.node_count() {
        let _ = writeln!(out, "  n{v};");
    }
    for e in g.edges() {
        if (e.capacity - 1.0).abs() < 1e-12 {
            let _ = writeln!(out, "  n{} -- n{};", e.u, e.v);
        } else {
            let _ = writeln!(
                out,
                "  n{} -- n{} [label=\"{}\", penwidth={}];",
                e.u,
                e.v,
                e.capacity,
                (e.capacity.log2().max(0.0) + 1.0).min(6.0)
            );
        }
    }
    out.push_str("}\n");
    out
}

fn sanitize(label: &str) -> String {
    let cleaned: String = label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if cleaned.is_empty() || cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

/// Serialise as the capacitated edge-list format described in the module
/// docs.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# dctopo edge list");
    let _ = writeln!(out, "nodes {}", g.node_count());
    for e in g.edges() {
        if (e.capacity - e.capacity.round()).abs() < 1e-12 {
            let _ = writeln!(out, "{} {} {}", e.u, e.v, e.capacity as i64);
        } else {
            let _ = writeln!(out, "{} {} {}", e.u, e.v, e.capacity);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_edge(1, 2, 10.0).unwrap();
        g.add_edge(2, 3, 2.5).unwrap();
        g
    }

    #[test]
    fn dot_mentions_all_edges_and_capacities() {
        let dot = to_dot(&sample(), "my graph 1");
        assert!(dot.starts_with("graph my_graph_1 {"));
        assert!(dot.contains("n0 -- n1;"));
        assert!(dot.contains("n1 -- n2 [label=\"10\""));
        assert!(dot.contains("n2 -- n3 [label=\"2.5\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_label_sanitised() {
        assert!(to_dot(&Graph::new(1), "42abc").starts_with("graph g_42abc"));
        assert!(to_dot(&Graph::new(1), "").starts_with("graph g_"));
    }

    #[test]
    fn edge_list_prints_header_and_shortest_capacities() {
        assert_eq!(
            to_edge_list(&sample()),
            "# dctopo edge list\nnodes 4\n0 1 1\n1 2 10\n2 3 2.5\n"
        );
    }
}
