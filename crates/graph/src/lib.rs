//! # dctopo-graph
//!
//! Capacitated multigraph substrate for the `dctopo` workspace.
//!
//! This crate provides the graph data structure and the graph algorithms
//! that every other subsystem builds on:
//!
//! * [`Graph`] — an undirected capacitated multigraph with a directed *arc*
//!   view (each undirected edge contributes two arcs of equal capacity, one
//!   per direction), which is the representation the max-concurrent-flow
//!   solver consumes.
//! * a compact CSR arc view ([`csr::CsrNet`]) with reusable Dijkstra
//!   scratch buffers ([`csr::DijkstraWorkspace`]) — the zero-allocation
//!   representation every flow-solver backend consumes.
//! * shortest paths: unweighted BFS, weighted Dijkstra over arbitrary
//!   per-arc lengths ([`paths`]), Yen's k-shortest simple paths and ECMP
//!   shortest-path enumeration ([`kshortest`]).
//! * average shortest path length (ASPL) and diameter ([`paths::PathStats`]).
//! * connectivity queries ([`components`]).
//! * an independent check of a max-concurrent-flow certificate
//!   ([`certify`]): the flow, the rates and the dual lengths a solve
//!   returned, re-derived with a Dijkstra of its own.
//! * seed derivation and FNV-1a content hashing ([`mix`]) — the one copy
//!   behind every layer's coordinate-derived RNG seeds, fingerprints and
//!   trace hashes.
//!
//! Nodes are dense indices `0..n` (`NodeId = usize`). Node *roles* (switch
//! vs. server, large vs. small switch) are deliberately not stored here;
//! they belong to `dctopo-topology`, which layers meaning on top of the
//! bare graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod components;
pub mod csr;
pub mod delta;
pub mod error;
pub mod graph;
pub mod io;
pub mod kshortest;
pub mod mix;
pub mod msbfs;
pub mod paths;

pub use csr::{CsrNet, DijkstraWorkspace};
pub use delta::DeltaStats;
pub use error::GraphError;
pub use graph::{ArcId, EdgeId, Graph, NodeId};
pub use msbfs::{ms_bfs_csr, MsBfsWorkspace};
pub use paths::PathStats;
