//! The serve request protocol: line-delimited JSON requests parsed into
//! typed queries, with typed error records and the canonical content /
//! structure keys the batch scheduler orders and groups by.
//!
//! ## Request shape
//!
//! One JSON object per line. A blank line flushes the current batch;
//! EOF drains whatever is in flight. Fields:
//!
//! * `"op"` — `"query"` (default), `"ping"`, or `"stats"`.
//! * `"id"` — optional number or string, echoed verbatim in the
//!   response (responses come back in arrival order, but ids make
//!   matching robust).
//! * `"degrade"` — array of degradation steps applied in order to the
//!   base topology, mirroring [`Degradation`]:
//!   `{"kind":"fail-links","count":N,"seed":S}`,
//!   `{"kind":"fail-switches","count":N,"seed":S}`,
//!   `{"kind":"scale-capacity","factor":F}`,
//!   `{"kind":"line-card-mix","fraction":F,"factor":G,"seed":S}`.
//! * `"drift"` — `{"spread":F,"seed":S}` with `0 ≤ F < 1`: multiply
//!   each switch-level commodity's demand by a deterministic
//!   per-commodity factor in `(1-F, 1+F]` (see
//!   [`QuerySpec::drift_factor`]).
//! * `"backend"` — `"fptas"` (default), `"fptas-strict"`, `"exact"`,
//!   or `"ksp:K"` (the [`BackendChoice`] grammar the CLI shares).
//! * `"warm"` — override the server's warm-start default for this
//!   query.
//!
//! Unknown top-level fields and unknown degradation kinds are typed
//! `bad-request` errors — a closed protocol catches typos instead of
//! silently ignoring them.

use dctopo_core::{BackendChoice, Degradation};
use dctopo_graph::mix::{derive_seed, Fnv1a};

use crate::json::Json;

/// A typed protocol-level error: the `kind` becomes the response's
/// `error.kind` field.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line was not a JSON object at all.
    Malformed(String),
    /// The line was JSON but not a valid request.
    BadRequest(String),
}

impl ProtoError {
    /// Stable machine-readable kind string.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoError::Malformed(_) => "malformed",
            ProtoError::BadRequest(_) => "bad-request",
        }
    }

    /// Human-readable message.
    pub fn message(&self) -> &str {
        match self {
            ProtoError::Malformed(m) | ProtoError::BadRequest(m) => m,
        }
    }
}

/// Demand drift: each commodity's demand is scaled by a deterministic
/// per-commodity factor in `(1 - spread, 1 + spread]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drift {
    /// Half-width of the drift band, in `[0, 1)`.
    pub spread: f64,
    /// Seed deriving the per-commodity factors.
    pub seed: u64,
}

/// One parsed what-if query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// Degradations applied in order to the base topology.
    pub degradations: Vec<Degradation>,
    /// Optional demand drift.
    pub drift: Option<Drift>,
    /// Backend override; `None` keeps the server default.
    pub backend: Option<BackendChoice>,
    /// Warm-start override; `None` keeps the server default.
    pub warm: Option<bool>,
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A what-if throughput query.
    Query(Box<QuerySpec>),
    /// Liveness probe; answered with `{"pong":true}`.
    Ping,
    /// Server counters snapshot (as of the start of the batch, so
    /// responses stay arrival-order-invariant).
    Stats,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed id (number or string), if any.
    pub id: Option<Json>,
    /// The requested operation.
    pub op: Op,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = Json::parse(line).map_err(ProtoError::Malformed)?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ProtoError::Malformed("request is not a JSON object".into()));
        }
        let id = id_of(&v)?;
        let op = match v.get("op") {
            None => "query",
            Some(j) => j
                .as_str()
                .ok_or_else(|| ProtoError::BadRequest("\"op\" must be a string".into()))?,
        };
        for key in v.keys() {
            if !matches!(key, "id" | "op" | "degrade" | "drift" | "backend" | "warm") {
                return Err(ProtoError::BadRequest(format!("unknown field \"{key}\"")));
            }
        }
        let op = match op {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "query" => Op::Query(Box::new(parse_query(&v)?)),
            other => return Err(ProtoError::BadRequest(format!("unknown op \"{other}\""))),
        };
        if !matches!(op, Op::Query(_)) {
            for key in v.keys() {
                if matches!(key, "degrade" | "drift" | "backend" | "warm") {
                    return Err(ProtoError::BadRequest(format!(
                        "field \"{key}\" is only valid on queries"
                    )));
                }
            }
        }
        Ok(Request { id, op })
    }

    /// The id the error response to an invalid `line` echoes: its `"id"`
    /// if it is a JSON object whose `"id"` is a number or a string.
    pub fn echo_id(line: &str) -> Option<Json> {
        Json::parse(line).ok().and_then(|v| id_of(&v).ok()?)
    }
}

/// A request's `"id"`: absent, `null`, a number or a string.
fn id_of(v: &Json) -> Result<Option<Json>, ProtoError> {
    match v.get("id") {
        None | Some(Json::Null) => Ok(None),
        Some(j @ (Json::Num(_) | Json::Str(_))) => Ok(Some(j.clone())),
        Some(_) => Err(ProtoError::BadRequest(
            "\"id\" must be a number or string".into(),
        )),
    }
}

fn field_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, ProtoError> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| {
        ProtoError::BadRequest(format!("{ctx}: \"{key}\" must be a non-negative integer"))
    })
}

fn field_f64(obj: &Json, key: &str, ctx: &str) -> Result<f64, ProtoError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ProtoError::BadRequest(format!("{ctx}: \"{key}\" must be a number")))
}

fn check_keys(obj: &Json, allowed: &[&str], ctx: &str) -> Result<(), ProtoError> {
    for key in obj.keys() {
        if !allowed.contains(&key) {
            return Err(ProtoError::BadRequest(format!(
                "{ctx}: unknown field \"{key}\""
            )));
        }
    }
    Ok(())
}

fn parse_query(v: &Json) -> Result<QuerySpec, ProtoError> {
    let mut spec = QuerySpec::default();
    if let Some(degrade) = v.get("degrade") {
        let steps = degrade
            .as_arr()
            .ok_or_else(|| ProtoError::BadRequest("\"degrade\" must be an array".into()))?;
        for step in steps {
            let kind = step.get("kind").and_then(Json::as_str).ok_or_else(|| {
                ProtoError::BadRequest("degradation needs a \"kind\" string".into())
            })?;
            let d = match kind {
                "fail-links" => {
                    check_keys(step, &["kind", "count", "seed"], kind)?;
                    Degradation::FailLinks {
                        count: field_u64(step, "count", kind)? as usize,
                        seed: field_u64(step, "seed", kind)?,
                    }
                }
                "fail-switches" => {
                    check_keys(step, &["kind", "count", "seed"], kind)?;
                    Degradation::FailSwitches {
                        count: field_u64(step, "count", kind)? as usize,
                        seed: field_u64(step, "seed", kind)?,
                    }
                }
                "scale-capacity" => {
                    check_keys(step, &["kind", "factor"], kind)?;
                    Degradation::ScaleCapacity {
                        factor: field_f64(step, "factor", kind)?,
                    }
                }
                "line-card-mix" => {
                    check_keys(step, &["kind", "fraction", "factor", "seed"], kind)?;
                    Degradation::LineCardMix {
                        fraction: field_f64(step, "fraction", kind)?,
                        factor: field_f64(step, "factor", kind)?,
                        seed: field_u64(step, "seed", kind)?,
                    }
                }
                other => {
                    return Err(ProtoError::BadRequest(format!(
                        "unknown degradation kind \"{other}\""
                    )))
                }
            };
            spec.degradations.push(d);
        }
    }
    if let Some(drift) = v.get("drift") {
        check_keys(drift, &["spread", "seed"], "drift")?;
        let spread = field_f64(drift, "spread", "drift")?;
        if !(0.0..1.0).contains(&spread) {
            return Err(ProtoError::BadRequest(format!(
                "drift: \"spread\" {spread} not in [0, 1)"
            )));
        }
        spec.drift = Some(Drift {
            spread,
            seed: field_u64(drift, "seed", "drift")?,
        });
    }
    if let Some(backend) = v.get("backend") {
        let name = backend
            .as_str()
            .ok_or_else(|| ProtoError::BadRequest("\"backend\" must be a string".into()))?;
        spec.backend = Some(
            name.parse()
                .map_err(|_| ProtoError::BadRequest(format!("unknown backend \"{name}\"")))?,
        );
    }
    if let Some(warm) = v.get("warm") {
        spec.warm = Some(
            warm.as_bool()
                .ok_or_else(|| ProtoError::BadRequest("\"warm\" must be a boolean".into()))?,
        );
    }
    Ok(spec)
}

// ---- canonical keys ------------------------------------------------

fn push_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, x: f64) {
    push_u64(out, x.to_bits());
}

fn push_degradations(out: &mut Vec<u8>, degradations: &[Degradation]) {
    for d in degradations {
        match *d {
            Degradation::FailLinks { count, seed } => {
                out.push(1);
                push_u64(out, count as u64);
                push_u64(out, seed);
            }
            Degradation::FailSwitches { count, seed } => {
                out.push(2);
                push_u64(out, count as u64);
                push_u64(out, seed);
            }
            Degradation::ScaleCapacity { factor } => {
                out.push(3);
                push_f64(out, factor);
            }
            Degradation::LineCardMix {
                fraction,
                factor,
                seed,
            } => {
                out.push(4);
                push_f64(out, fraction);
                push_f64(out, factor);
                push_u64(out, seed);
            }
        }
    }
}

impl QuerySpec {
    /// The query's **structure key**: a digest of the degradation
    /// recipe alone. Queries sharing it are solved against the same
    /// scenario view (applied once per batch) and share one warm-state
    /// slot — drift and backend variations of one scenario reuse each
    /// other's learned lengths. A collision merely pools unrelated
    /// warm slots: warm-starting is certified-sound from *any*
    /// previous length state, so correctness is unaffected.
    pub fn structure_key(&self) -> u64 {
        let mut bytes = Vec::new();
        push_degradations(&mut bytes, &self.degradations);
        let mut h = Fnv1a::default();
        h.write_bytes(&bytes);
        h.finish()
    }

    /// The query's **canonical content encoding**: every
    /// result-relevant field (degradations, drift, backend, warm), and
    /// nothing else (ids are excluded). Batch evaluation sorts queries
    /// lexicographically by this encoding, which is what makes
    /// responses invariant under permuted arrival order: two
    /// arrival-permuted batches contain the same multiset of
    /// encodings, hence evaluate in the same canonical order against
    /// the same batch-start state.
    pub fn content_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        push_degradations(&mut bytes, &self.degradations);
        bytes.push(0xfe);
        if let Some(d) = self.drift {
            push_f64(&mut bytes, d.spread);
            push_u64(&mut bytes, d.seed);
        }
        bytes.push(0xfd);
        if let Some(backend) = self.backend {
            bytes.extend_from_slice(backend.name().as_bytes());
        }
        bytes.push(0xfc);
        match self.warm {
            None => bytes.push(2),
            Some(w) => bytes.push(w as u8),
        }
        bytes
    }

    /// The deterministic per-commodity drift factor for a
    /// `(src, dst)` switch pair under `drift`: `1 + spread·(2u − 1)`
    /// with `u ∈ [0, 1)` derived from a splitmix64 of the seed and the
    /// pair. Order-independent (each commodity's factor depends only
    /// on its endpoints), so drifted demand is identical however the
    /// commodity list is produced.
    pub fn drift_factor(drift: Drift, src: usize, dst: usize) -> f64 {
        let mut pair = Fnv1a::default();
        pair.write_u64(src as u64);
        pair.write_u64(dst as u64);
        // derive_seed(x, 1, 0, 0) is one splitmix64 step of x
        let bits = derive_seed(drift.seed ^ pair.finish(), 1, 0, 0);
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        1.0 + drift.spread * (2.0 * u - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_query() {
        let r = Request::parse(
            r#"{"id":3,"op":"query","degrade":[{"kind":"fail-links","count":2,"seed":9},{"kind":"scale-capacity","factor":0.5}],"drift":{"spread":0.2,"seed":7},"backend":"ksp:4","warm":false}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(Json::Num(3.0)));
        let Op::Query(q) = r.op else {
            panic!("not a query")
        };
        assert_eq!(
            q.degradations,
            vec![
                Degradation::FailLinks { count: 2, seed: 9 },
                Degradation::ScaleCapacity { factor: 0.5 },
            ]
        );
        assert_eq!(
            q.drift,
            Some(Drift {
                spread: 0.2,
                seed: 7
            })
        );
        assert_eq!(q.backend, Some(BackendChoice::ksp(4)));
        assert_eq!(q.warm, Some(false));
    }

    #[test]
    fn default_op_is_query_and_baseline() {
        let r = Request::parse("{}").unwrap();
        assert_eq!(r.id, None);
        assert_eq!(r.op, Op::Query(Box::default()));
    }

    #[test]
    fn typed_errors_by_kind() {
        let cases = [
            ("not json at all", "malformed"),
            ("[1,2]", "malformed"),
            (r#"{"op":"frobnicate"}"#, "bad-request"),
            (r#"{"unknown_field":1}"#, "bad-request"),
            (r#"{"degrade":[{"kind":"melt"}]}"#, "bad-request"),
            (
                r#"{"degrade":[{"kind":"fail-links","count":-1,"seed":0}]}"#,
                "bad-request",
            ),
            (r#"{"drift":{"spread":1.5,"seed":0}}"#, "bad-request"),
            (r#"{"backend":"gurobi"}"#, "bad-request"),
            (r#"{"id":[1]}"#, "bad-request"),
            (r#"{"op":"ping","warm":true}"#, "bad-request"),
            (r#"{"warm":"yes"}"#, "bad-request"),
            (
                r#"{"degrade":[{"kind":"fail-links","count":1,"seed":0,"extra":1}]}"#,
                "bad-request",
            ),
        ];
        for (line, kind) in cases {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.kind(), kind, "{line}");
        }
    }

    #[test]
    fn content_bytes_ignore_id_and_distinguish_content() {
        let parse = |line: &str| match Request::parse(line).unwrap().op {
            Op::Query(q) => *q,
            _ => panic!("not a query"),
        };
        let a = parse(r#"{"id":1,"degrade":[{"kind":"fail-links","count":2,"seed":9}]}"#);
        let b = parse(r#"{"id":"other","degrade":[{"kind":"fail-links","count":2,"seed":9}]}"#);
        assert_eq!(a.content_bytes(), b.content_bytes());
        assert_eq!(a.structure_key(), b.structure_key());
        let c = parse(r#"{"degrade":[{"kind":"fail-links","count":3,"seed":9}]}"#);
        assert_ne!(a.content_bytes(), c.content_bytes());
        assert_ne!(a.structure_key(), c.structure_key());
        // drift changes content but not structure
        let d = parse(
            r#"{"degrade":[{"kind":"fail-links","count":2,"seed":9}],"drift":{"spread":0.1,"seed":4}}"#,
        );
        assert_ne!(a.content_bytes(), d.content_bytes());
        assert_eq!(a.structure_key(), d.structure_key());
    }

    #[test]
    fn drift_factors_stay_in_band_and_are_deterministic() {
        let drift = Drift {
            spread: 0.3,
            seed: 99,
        };
        for src in 0..20 {
            for dst in 0..20 {
                if src == dst {
                    continue;
                }
                let f = QuerySpec::drift_factor(drift, src, dst);
                assert!(f > 0.7 && f <= 1.3, "factor {f} out of band");
                assert_eq!(
                    f.to_bits(),
                    QuerySpec::drift_factor(drift, src, dst).to_bits()
                );
            }
        }
        // factors actually vary across pairs
        let a = QuerySpec::drift_factor(drift, 0, 1);
        let b = QuerySpec::drift_factor(drift, 1, 2);
        assert_ne!(a.to_bits(), b.to_bits());
    }
}
