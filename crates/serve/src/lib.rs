//! # dctopo-serve
//!
//! Throughput-as-a-service: a long-running server process owning
//! sharded engine state — the base [`dctopo_graph::CsrNet`] (inside a
//! [`dctopo_core::ThroughputEngine`]), the shared path-set cache, and a
//! bounded store of earlier answers' certified dual lengths to
//! warm-start from — answering **batched** what-if queries
//! (link/switch failures, capacity re-rates, traffic-drift deltas)
//! over a line-delimited JSON protocol on stdin/stdout. Entirely
//! offline-hermetic: no sockets, no new dependencies, JSON hand-rolled
//! in [`json`].
//!
//! ## Protocol (one JSON object per line)
//!
//! ```text
//! {"id":1,"degrade":[{"kind":"fail-links","count":8,"seed":3}]}
//! {"id":2,"degrade":[{"kind":"scale-capacity","factor":0.5}],
//!  "drift":{"spread":0.1,"seed":7},"backend":"fptas","warm":true}
//! {"id":3,"op":"ping"}
//! {"id":4,"op":"stats"}
//! <blank line flushes the batch; EOF drains the in-flight batch>
//! ```
//!
//! Responses come back one line per request, in arrival order, ids
//! echoed. A malformed or invalid line produces a typed error record
//! (`{"id":…,"ok":false,"error":{"kind":…,"message":…}}`) — the server
//! never exits on bad input. See [`server`] for the batch evaluation
//! model and the determinism contract, and [`proto`] for the full
//! request grammar.

#![warn(missing_docs)]

pub use dctopo_obs::json;
pub mod proto;
pub mod server;

pub use json::Json;
pub use proto::{Drift, Op, ProtoError, QuerySpec, Request};
pub use server::{ServeConfig, ServeStats, Server};
