//! The serve engine: a long-running [`Server`] owning sharded engine
//! state — the base `CsrNet` (inside a [`ThroughputEngine`]), the
//! shared path-set cache, and a per-structure store of the certified
//! dual lengths of earlier answers — answering batched what-if queries.
//!
//! ## Batch evaluation model
//!
//! Requests accumulate until a blank line (or EOF) flushes the batch.
//! A batch is evaluated as one deterministic transaction:
//!
//! 1. Every line parses to a typed request (or a typed error record —
//!    a malformed line never kills the server or the batch).
//! 2. Queries are sorted into **canonical order** (lexicographic by
//!    their [`QuerySpec::content_bytes`] encoding, ids excluded) and
//!    grouped by [`QuerySpec::structure_key`]; each distinct structure
//!    applies its scenario and lowers its surviving demand **once**.
//! 3. All queries evaluate in parallel on the persistent worker pool
//!    (`DCTOPO_THREADS` caps the fan-out — the admission control).
//!    Every warm-eligible query reads the **batch-start** warm
//!    snapshot of its structure slot; warm state is never chained
//!    *within* a batch.
//! 4. The warm store commits at the batch boundary, walking results in
//!    canonical order (last writer per structure wins). It holds at
//!    most [`WARM_SLOTS`] structures: a new structure committed to a
//!    full store evicts the slot committed longest ago, so eviction too
//!    is a pure function of the batch sequence.
//! 5. Responses are emitted in **arrival order**, ids echoed.
//!
//! Steps 2–4 are what make the responses **bit-identical under
//! permuted arrival order and at any thread count**: the multiset of
//! canonical encodings (and the batch-start warm snapshot) fully
//! determines every response and the committed warm store, and each
//! individual solve is itself thread-invariant by the workspace's
//! determinism contract.
//!
//! ## Warm-start validity
//!
//! Warm slots hold, keyed by structure, the
//! [`dctopo_flow::SolvedFlow::dual_lengths`] of the last fast-path
//! answer given for it: the lengths its certified upper bound was read
//! at. Reusing them is certified-sound (the FPTAS dual bound holds for
//! *any* positive lengths — see [`dctopo_flow::solve_from`]);
//! only the default FPTAS fast path consumes or commits them.
//! `fptas-strict`, `exact`, and `ksp:K` queries always run their
//! pinned cold paths and answer **bitwise identically** to a cold
//! [`ThroughputEngine::solve_commodities_warm`] of the scenario's
//! surviving demand ([`ThroughputEngine::scenario_demand`]), as does any
//! query with `"warm":false`.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};

use dctopo_core::{BackendChoice, Degradation, Scenario, ThroughputEngine, ThroughputResult};
use dctopo_flow::FlowError;
use dctopo_flow::FlowOptions;
use dctopo_graph::GraphError;
use dctopo_obs::{self as obs, Captured};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rayon::prelude::*;

use crate::json::Json;
use crate::proto::{Op, ProtoError, QuerySpec, Request};

/// Most structures the warm store holds. A slot is one `f64` per arc:
/// at RRG(1024, 32, 16), the largest instance in the README (16,384
/// arcs), the full store is 8 B × 16,384 arcs × 64 slots = 8 MiB.
pub const WARM_SLOTS: usize = 64;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Solver options queries run with (backend overridable per
    /// request).
    pub opts: FlowOptions,
    /// Whether warm-eligible queries warm-start by default (per-query
    /// `"warm"` overrides).
    pub warm_default: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            opts: FlowOptions::fast(),
            warm_default: true,
        }
    }
}

/// Deterministic server counters (everything here is invariant under
/// arrival order and thread count; the shared path-set cache's
/// hit/miss counters are deliberately *not* included because cache
/// race interleaving makes them schedule-dependent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches flushed.
    pub batches: u64,
    /// Query requests evaluated (including ones that returned typed
    /// errors).
    pub queries: u64,
    /// Error records emitted (parse errors + query errors).
    pub errors: u64,
    /// Warm-eligible queries that found a seeded warm slot.
    pub warm_hits: u64,
    /// Warm-eligible queries that started cold (no slot yet).
    pub warm_misses: u64,
}

/// A long-running throughput-query server over one topology + traffic
/// matrix. See the module docs for the evaluation model.
#[derive(Debug)]
pub struct Server<'t> {
    engine: ThroughputEngine<'t>,
    tm: TrafficMatrix,
    cfg: ServeConfig,
    /// Per-structure warm slots, oldest commit first, at most
    /// [`WARM_SLOTS`]; committed only at batch boundaries.
    warm: Vec<(u64, Vec<f64>)>,
    stats: ServeStats,
}

/// Everything one evaluated query produces: the response payload
/// (without the echoed id) plus the certificate's dual lengths to commit.
struct QueryOut {
    payload: Json,
    is_error: bool,
    warm_used: bool,
    warm_eligible: bool,
    warm_out: Option<Vec<f64>>,
}

/// One parsed line of a batch, mapped back to its arrival slot.
enum Slot {
    Bad(Option<Json>, ProtoError),
    Ping(Option<Json>),
    Stats(Option<Json>),
    /// Query at index `qi` of the batch's query list.
    Query(Option<Json>, usize),
}

impl<'t> Server<'t> {
    /// Build a server over `topo` carrying `tm` as the base demand.
    pub fn new(topo: &'t Topology, tm: TrafficMatrix, cfg: ServeConfig) -> Self {
        Server {
            engine: ThroughputEngine::new(topo),
            tm,
            cfg,
            warm: Vec::new(),
            stats: ServeStats::default(),
        }
    }

    /// The deterministic counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Number of structures currently holding a warm slot (at most
    /// [`WARM_SLOTS`]).
    pub fn warm_slots(&self) -> usize {
        self.warm.len()
    }

    /// The underlying engine (e.g. for path-cache inspection).
    pub fn engine(&self) -> &ThroughputEngine<'t> {
        &self.engine
    }

    /// Evaluate one batch of request lines, returning one response
    /// line per request **in arrival order**. A line that is not UTF-8
    /// gets a `malformed` error record like any other unparsable line.
    pub fn serve_batch<L: AsRef<[u8]>>(&mut self, lines: &[L]) -> Vec<String> {
        let t_batch = obs::clock();
        // stats are snapshotted *before* the batch so a `stats`
        // request's answer cannot depend on its position in the batch
        // (the trace event count likewise: the previous batch's events
        // were all replayed to the recorder before it returned)
        let pre_stats = self.stats;
        let pre_slots = self.warm.len();
        let pre_events = obs::event_count();

        // ---- parse (arrival order) ----
        let mut slots: Vec<Slot> = Vec::with_capacity(lines.len());
        let mut queries: Vec<QuerySpec> = Vec::new();
        for line in lines {
            let line = match std::str::from_utf8(line.as_ref()) {
                Ok(line) => line,
                Err(e) => {
                    let e = ProtoError::Malformed(format!("line is not UTF-8: {e}"));
                    slots.push(Slot::Bad(None, e));
                    continue;
                }
            };
            match Request::parse(line) {
                Err(e) => slots.push(Slot::Bad(Request::echo_id(line), e)),
                Ok(Request { id, op }) => match op {
                    Op::Ping => slots.push(Slot::Ping(id)),
                    Op::Stats => slots.push(Slot::Stats(id)),
                    Op::Query(q) => {
                        slots.push(Slot::Query(id, queries.len()));
                        queries.push(*q);
                    }
                },
            }
        }

        // ---- canonical order + per-structure lowering ----
        let encodings: Vec<Vec<u8>> = queries.iter().map(QuerySpec::content_bytes).collect();
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by(|&a, &b| encodings[a].cmp(&encodings[b]));

        // apply each distinct scenario once and lower its demand once;
        // iteration in canonical order keeps everything deterministic
        let mut structures: HashMap<u64, Result<Structure, GraphError>> = HashMap::new();
        for &qi in &order {
            let skey = queries[qi].structure_key();
            structures.entry(skey).or_insert_with(|| {
                let sc = scenario_of(&queries[qi].degradations);
                let applied = sc.apply(self.engine.topology(), self.engine.net())?;
                let demand = self.engine.scenario_demand(&applied, &self.tm);
                Ok((applied, demand))
            });
        }

        // ---- parallel evaluation against the batch-start snapshot ----
        // each query's trace ends with its `serve_query` event and is
        // replayed in canonical order: the event sequence is a pure
        // function of the batch transcript, never of scheduling
        let evals: Vec<QueryOut> = (0..order.len())
            .into_par_iter()
            .map(|ci| {
                obs::capture(|| {
                    let t_query = obs::clock();
                    let qi = order[ci];
                    let spec = &queries[qi];
                    let skey = spec.structure_key();
                    let out = eval_query(
                        &self.engine,
                        self.cfg,
                        spec,
                        skey,
                        structures[&skey].as_ref(),
                        (self.warm.iter())
                            .find(|(k, _)| *k == skey)
                            .map_or(&[], |(_, lengths)| lengths),
                    );
                    if obs::enabled() {
                        obs::Event::new("serve_query")
                            .field("canonical", ci as u64)
                            .field("arrival", qi as u64)
                            .field("ok", !out.is_error)
                            .field("warm", out.warm_used)
                            .field("structure", format!("{skey:016x}"))
                            .nd("wall_us", obs::us_since(t_query))
                            .emit();
                    }
                    out
                })
            })
            .collect::<Captured<_>>()
            .emit();

        // ---- commit: counters, then warm slots in canonical order ----
        self.stats.batches += 1;
        self.stats.queries += queries.len() as u64;
        for slot in &slots {
            if matches!(slot, Slot::Bad(..)) {
                self.stats.errors += 1;
            }
        }
        for out in &evals {
            if out.is_error {
                self.stats.errors += 1;
            }
            if out.warm_eligible {
                if out.warm_used {
                    self.stats.warm_hits += 1;
                } else {
                    self.stats.warm_misses += 1;
                }
            }
        }
        // canonical-order commit: last writer per structure wins, so
        // the committed store is arrival-order-invariant too
        let mut by_query: Vec<Option<Json>> = Vec::with_capacity(evals.len());
        by_query.resize_with(queries.len(), || None);
        for (ci, out) in evals.into_iter().enumerate() {
            let qi = order[ci];
            if let Some(lengths) = out.warm_out {
                self.commit_warm(queries[qi].structure_key(), lengths);
            }
            by_query[qi] = Some(out.payload);
        }
        if obs::enabled() {
            obs::Event::new("serve_batch")
                .field("batch", self.stats.batches)
                .field("requests", lines.len())
                .field("queries", queries.len())
                .field("errors", self.stats.errors - pre_stats.errors)
                .field("warm_hits", self.stats.warm_hits - pre_stats.warm_hits)
                .field(
                    "warm_misses",
                    self.stats.warm_misses - pre_stats.warm_misses,
                )
                .field("warm_slots", self.warm.len())
                .nd("wall_us", obs::us_since(t_batch))
                .emit();
        }

        // ---- responses in arrival order ----
        slots
            .into_iter()
            .map(|slot| {
                let (id, payload) = match slot {
                    Slot::Bad(id, e) => (id, error_payload(e.kind(), e.message())),
                    Slot::Ping(id) => (
                        id,
                        Json::Obj(vec![
                            ("ok".into(), Json::Bool(true)),
                            ("pong".into(), Json::Bool(true)),
                        ]),
                    ),
                    Slot::Stats(id) => (id, stats_payload(pre_stats, pre_slots, pre_events)),
                    Slot::Query(id, qi) => {
                        (id, by_query[qi].take().expect("every query evaluated"))
                    }
                };
                let mut fields = vec![("id".into(), id.unwrap_or(Json::Null))];
                match payload {
                    Json::Obj(rest) => fields.extend(rest),
                    other => fields.push(("payload".into(), other)),
                }
                Json::Obj(fields).to_string()
            })
            .collect()
    }

    /// Commit `lengths` to `skey`'s warm slot, which becomes the newest;
    /// a new structure in a full store evicts the oldest slot.
    fn commit_warm(&mut self, skey: u64, lengths: Vec<f64>) {
        if let Some(i) = self.warm.iter().position(|(k, _)| *k == skey) {
            self.warm.remove(i);
        } else if self.warm.len() == WARM_SLOTS {
            self.warm.remove(0);
        }
        self.warm.push((skey, lengths));
    }

    /// Drive the server over a line-delimited stream: requests
    /// accumulate per batch, a blank line flushes, EOF drains the
    /// in-flight batch, responses go to `out` one line each (flushed
    /// per batch). Returns the final counters.
    ///
    /// # Errors
    /// Propagates I/O errors from the reader or writer.
    pub fn run<R: BufRead, W: Write>(&mut self, reader: R, mut out: W) -> io::Result<ServeStats> {
        obs::auto_init();
        let mut batch: Vec<Vec<u8>> = Vec::new();
        let flush = |server: &mut Self, batch: &mut Vec<Vec<u8>>, out: &mut W| -> io::Result<()> {
            if batch.is_empty() {
                return Ok(());
            }
            for line in server.serve_batch(batch) {
                writeln!(out, "{line}")?;
            }
            out.flush()?;
            batch.clear();
            Ok(())
        };
        // raw bytes, not `lines()`: one non-UTF-8 line must get its
        // error record, not end the stream
        for line in reader.split(b'\n') {
            let mut line = line?;
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if String::from_utf8_lossy(&line).trim().is_empty() {
                flush(self, &mut batch, &mut out)?;
            } else {
                batch.push(line);
            }
        }
        // EOF shutdown drains the in-flight batch
        flush(self, &mut batch, &mut out)?;
        Ok(self.stats)
    }
}

/// A display name for an ad-hoc degradation recipe.
fn scenario_of(degradations: &[Degradation]) -> Scenario {
    let name = if degradations.is_empty() {
        "baseline".to_string()
    } else {
        degradations
            .iter()
            .map(|d| match d {
                Degradation::FailLinks { count, .. } => format!("fail-links:{count}"),
                Degradation::FailSwitches { count, .. } => format!("fail-switches:{count}"),
                Degradation::ScaleCapacity { factor } => format!("scale:{factor}"),
                Degradation::LineCardMix {
                    fraction, factor, ..
                } => {
                    format!("mix:{fraction}x{factor}")
                }
            })
            .collect::<Vec<_>>()
            .join("+")
    };
    Scenario::new(name, degradations.to_vec())
}

fn error_payload(kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("message".into(), Json::Str(message.into())),
            ]),
        ),
    ])
}

fn stats_payload(stats: ServeStats, warm_slots: usize, events: u64) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "stats".into(),
            Json::Obj(vec![
                ("batches".into(), Json::Num(stats.batches as f64)),
                ("queries".into(), Json::Num(stats.queries as f64)),
                ("errors".into(), Json::Num(stats.errors as f64)),
                ("warm_hits".into(), Json::Num(stats.warm_hits as f64)),
                ("warm_misses".into(), Json::Num(stats.warm_misses as f64)),
                ("warm_slots".into(), Json::Num(warm_slots as f64)),
                (
                    "trace".into(),
                    Json::Obj(vec![
                        ("enabled".into(), Json::Bool(obs::enabled())),
                        ("events".into(), Json::Num(events as f64)),
                    ]),
                ),
            ]),
        ),
    ])
}

fn graph_error_kind(e: &GraphError) -> &'static str {
    match e {
        GraphError::Unrealizable(_) => "unrealizable",
        GraphError::BadCapacity { .. } => "bad-capacity",
        _ => "graph",
    }
}

fn flow_error_kind(e: &FlowError) -> &'static str {
    match e {
        FlowError::Unreachable { .. } => "unreachable",
        _ => "solver",
    }
}

fn result_payload(
    r: &ThroughputResult,
    warm_used: bool,
    skey: u64,
    backend: &str,
    flows: usize,
) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("throughput".into(), Json::num(r.throughput)),
        ("network_lambda".into(), Json::num(r.network_lambda)),
        ("upper_bound".into(), Json::num(r.network_upper_bound)),
        ("nic_limit".into(), Json::num(r.nic_limit)),
        ("flows".into(), Json::Num(flows as f64)),
        ("commodities".into(), Json::Num(r.commodities.len() as f64)),
        (
            "phases".into(),
            Json::Num(r.solved.as_ref().map_or(0, |s| s.phases) as f64),
        ),
        ("warm".into(), Json::Bool(warm_used)),
        ("structure".into(), Json::Str(format!("{skey:016x}"))),
        ("backend".into(), Json::Str(backend.into())),
    ])
}

/// One distinct scenario of a batch, applied, with the demand lowered
/// onto it as `(commodities, nic, flows)`.
type Structure = (
    dctopo_core::AppliedScenario,
    (Vec<dctopo_flow::Commodity>, f64, usize),
);

fn eval_query(
    engine: &ThroughputEngine<'_>,
    cfg: ServeConfig,
    spec: &QuerySpec,
    skey: u64,
    structure: Result<&Structure, &GraphError>,
    warm_in: &[f64],
) -> QueryOut {
    let (applied, (base_commodities, nic, flows)) = match structure {
        Ok(s) => s,
        Err(e) => {
            return QueryOut {
                payload: error_payload(graph_error_kind(e), &e.to_string()),
                is_error: true,
                warm_used: false,
                warm_eligible: false,
                warm_out: None,
            }
        }
    };
    let mut commodities = base_commodities.clone();
    if let Some(drift) = spec.drift {
        for c in &mut commodities {
            c.demand *= QuerySpec::drift_factor(drift, c.src, c.dst);
        }
    }
    let mut opts = cfg.opts;
    let choice = spec.backend.unwrap_or(BackendChoice {
        backend: opts.backend,
        strict: opts.strict_reference,
    });
    choice.apply(&mut opts);
    let eligible = choice == BackendChoice::fptas();
    let warm_eligible = eligible && spec.warm.unwrap_or(cfg.warm_default);
    let warm = if warm_eligible { warm_in } else { &[] };
    let warm_used = !warm.is_empty();
    let backend = choice.name();
    match engine.solve_commodities_warm(&applied.net, commodities, *nic, *flows, &opts, warm) {
        Ok(result) => QueryOut {
            payload: result_payload(&result, warm_used, skey, &backend, *flows),
            is_error: false,
            warm_used,
            warm_eligible,
            // the witness of the answer just given seeds the slot
            warm_out: result.solved.filter(|_| eligible).map(|s| s.dual_lengths),
        },
        Err(e) => QueryOut {
            payload: error_payload(flow_error_kind(&e), &e.to_string()),
            is_error: true,
            warm_used,
            warm_eligible,
            warm_out: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server(topo: &Topology) -> Server<'_> {
        let mut rng = StdRng::seed_from_u64(42);
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        Server::new(topo, tm, ServeConfig::default())
    }

    fn topo() -> Topology {
        let mut rng = StdRng::seed_from_u64(7);
        Topology::random_regular(16, 8, 4, &mut rng).unwrap()
    }

    fn lines(ls: &[&str]) -> Vec<String> {
        ls.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn batch_answers_in_arrival_order_with_echoed_ids() {
        let t = topo();
        let mut s = server(&t);
        let out = s.serve_batch(&lines(&[
            r#"{"id":"b","op":"ping"}"#,
            r#"{"id":1}"#,
            r#"{"id":2,"op":"stats"}"#,
        ]));
        assert_eq!(out.len(), 3);
        assert!(out[0].starts_with(r#"{"id":"b""#) && out[0].contains("\"pong\":true"));
        assert!(out[1].starts_with(r#"{"id":1,"ok":true"#));
        assert!(out[2].starts_with(r#"{"id":2"#) && out[2].contains("\"stats\""));
    }

    #[test]
    fn malformed_lines_yield_typed_errors_not_crashes() {
        let t = topo();
        let mut s = server(&t);
        let out = s.serve_batch(&lines(&["} not json {", r#"{"id":5}"#]));
        let err = Json::parse(&out[0]).unwrap();
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            err.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("malformed")
        );
        // the good request in the same batch still answers
        let good = Json::parse(&out[1]).unwrap();
        assert_eq!(good.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(s.stats().errors, 1);
        assert_eq!(s.stats().queries, 1);
    }

    #[test]
    fn warm_store_fills_and_hits_across_batches() {
        let t = topo();
        let mut s = server(&t);
        let q = r#"{"degrade":[{"kind":"fail-links","count":2,"seed":3}]}"#;
        s.serve_batch(&lines(&[q]));
        assert_eq!(s.stats().warm_misses, 1);
        assert_eq!(s.warm_slots(), 1);
        // the slot is the certificate of the answer just given, bit for
        // bit: the same query solved in process
        let degrade = [Degradation::FailLinks { count: 2, seed: 3 }];
        let applied = (scenario_of(&degrade))
            .apply(s.engine.topology(), s.engine.net())
            .unwrap();
        let (cs, nic, flows) = s.engine.scenario_demand(&applied, &s.tm);
        let opts = ServeConfig::default().opts;
        let direct = (s.engine)
            .solve_commodities_warm(&applied.net, cs, nic, flows, &opts, &[])
            .unwrap();
        let witness = &direct.solved.unwrap().dual_lengths;
        let slot = &s.warm[0].1;
        assert_eq!(slot.len(), witness.len());
        assert!(slot
            .iter()
            .zip(witness)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let drifted = r#"{"degrade":[{"kind":"fail-links","count":2,"seed":3}],"drift":{"spread":0.1,"seed":9}}"#;
        let out = s.serve_batch(&lines(&[drifted]));
        assert_eq!(s.stats().warm_hits, 1);
        let v = Json::parse(&out[0]).unwrap();
        assert_eq!(v.get("warm").unwrap().as_bool(), Some(true));
        assert!(v.get("throughput").unwrap().as_f64().unwrap() > 0.0);
    }

    /// One structure more than the store holds: the slot committed
    /// longest ago goes, and that structure starts cold again.
    #[test]
    fn full_warm_store_evicts_the_oldest_commit() {
        let t = topo();
        let mut s = server(&t);
        let query = |i: usize| {
            let factor = 0.5 + i as f64 / 256.0;
            format!(r#"{{"degrade":[{{"kind":"scale-capacity","factor":{factor}}}]}}"#)
        };
        for i in 0..=WARM_SLOTS {
            s.serve_batch(&[query(i)]);
        }
        assert_eq!(s.warm_slots(), WARM_SLOTS);
        assert_eq!(s.stats().warm_misses, WARM_SLOTS as u64 + 1);
        let warm = |out: &[String]| Json::parse(&out[0]).unwrap().get("warm").unwrap().as_bool();
        // the second structure survived; the first was evicted
        assert_eq!(warm(&s.serve_batch(&[query(1)])), Some(true));
        assert_eq!(warm(&s.serve_batch(&[query(0)])), Some(false));
        assert_eq!(s.warm_slots(), WARM_SLOTS);
    }

    #[test]
    fn run_drains_final_batch_at_eof_without_blank_line() {
        let t = topo();
        let mut s = server(&t);
        let input = "{\"id\":1,\"op\":\"ping\"}\n\n{\"id\":2,\"op\":\"ping\"}";
        let mut out = Vec::new();
        let stats = s.run(io::Cursor::new(input), &mut out).unwrap();
        assert_eq!(stats.batches, 2, "EOF must flush the in-flight batch");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"id\":2"));
    }
}
