//! # dctopo-obs
//!
//! Deterministic structured telemetry for the whole engine stack: a
//! process-global recorder that collects typed [`Event`]s and
//! writes them as JSONL through the workspace's hand-rolled [`json`]
//! module (no serde, no new dependencies).
//!
//! ## Determinism contract
//!
//! Every event separates its payload into two sections:
//!
//! * **Deterministic fields** (top-level keys) — pure functions of the
//!   instance, the options, and the seeds. Two runs of the same
//!   workload produce **byte-identical** JSONL after stripping the
//!   non-deterministic section (see [`strip_nd`]), at *any* thread
//!   count. Solver phase records, settle counts, bucket occupancy
//!   histograms, ε-anneal steps, cache keys all live here.
//! * **Non-deterministic fields** (under the reserved `"nd"` key) —
//!   wall-clock timings, CAS retry counts, and anything else that
//!   depends on scheduling. These are *observed, never consulted*: no
//!   algorithm reads a wall clock or an `nd` counter to make a
//!   decision, which is what keeps the bitwise 1/2/8-thread pins green
//!   under `--trace`.
//!
//! The event *sequence* is deterministic too, and one rule keeps it
//! so: **a parallel task that can emit runs inside [`capture`]**. A
//! capture scope records its task's events in a buffer instead of the
//! recorder; the task's caller replays the buffers in index order
//! after assembly ([`Captured::emit`]), and `seq` numbers each event
//! only when it reaches the recorder. Scopes nest: a replay inside an
//! enclosing scope lands in that scope's buffer. Everything else emits
//! from sequential code (solver phase loops, batch summaries), and
//! parallel workers that do not emit aggregate into per-task locals
//! their caller merges in index order.
//!
//! ## Overhead model
//!
//! The recorder is **zero-overhead when disabled**: every
//! instrumentation site guards on [`enabled`] (one relaxed atomic
//! load) before touching a clock or building an event, and the
//! counters that feed events (settles, bucket statistics) are ones the
//! solvers already maintained. dcbench reports the measured cost as
//! `obs.enabled_overhead`: a pairwise solve with the recorder
//! *enabled* (memory sink) over the same solve disabled — and the
//! disabled run does strictly less work than the enabled one, so the
//! disabled-recorder overhead sits under the same reading.

#![warn(missing_docs)]

pub mod json;

pub use json::Json;

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, LineWriter, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Instant;

/// Environment variable consulted by [`auto_init`]: a path enables the
/// file sink (`topobench --trace` sets it for child-free in-process
/// use; CI exports it to re-run whole suites traced). The special
/// value `mem` selects the in-memory sink.
pub const TRACE_ENV: &str = "DCTOPO_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static STATE: Mutex<Option<State>> = Mutex::new(None);
static AUTO: Once = Once::new();

thread_local! {
    /// This thread's open [`capture`] scopes, innermost last: a thread
    /// that runs a task while waiting on nested work nests its scope.
    static SCOPES: RefCell<Vec<Vec<Event>>> = const { RefCell::new(Vec::new()) };
}

enum Sink {
    /// Line-buffered: the recorder lives in a `static`, which is never
    /// dropped, so whatever a buffer still held at process exit would
    /// be lost — and only `topobench` ends with a [`flush`]. Every
    /// event is one line, so every event reaches the file as it is
    /// emitted, whoever the caller is and however it exits.
    File(LineWriter<File>),
    Mem(Vec<String>),
}

struct State {
    sink: Sink,
    seq: u64,
}

/// The recorder's state, locked. The lock is held only to swap a sink
/// or to write one line, so it is poisoned only when a thread panicked
/// in the middle of that; the panic here names that cause.
fn recorder() -> MutexGuard<'static, Option<State>> {
    STATE
        .lock()
        .expect("dctopo-obs: the recorder's lock is poisoned: a thread panicked while emitting")
}

/// Is the global recorder currently enabled? One relaxed atomic load —
/// this is the hot-path guard every instrumentation site checks before
/// doing *any* telemetry work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `sink` and enable the recorder; `seq` restarts at 0.
fn install(sink: Sink) {
    *recorder() = Some(State { sink, seq: 0 });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enable the recorder with a JSONL file sink at `path` (truncating).
///
/// # Errors
/// Propagates the underlying file-creation error.
pub fn enable_file(path: &str) -> io::Result<()> {
    install(Sink::File(LineWriter::new(File::create(path)?)));
    Ok(())
}

/// Enable the recorder with an in-memory sink (drained by
/// [`drain_memory`]); used by `topobench profile` and the replay
/// tests.
pub fn enable_memory() {
    install(Sink::Mem(Vec::new()));
}

/// Disable the recorder and drop the sink (a file sink flushes as it
/// drops).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    *recorder() = None;
}

/// Flush a file sink (no-op for the memory sink / disabled recorder).
pub fn flush() {
    if let Some(State {
        sink: Sink::File(w),
        ..
    }) = recorder().as_mut()
    {
        let _ = w.flush();
    }
}

/// Take every line buffered in the memory sink (resets the buffer,
/// keeps the recorder enabled). Empty for file sinks.
pub fn drain_memory() -> Vec<String> {
    match recorder().as_mut() {
        Some(State {
            sink: Sink::Mem(lines),
            ..
        }) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

/// Cumulative events recorded since process start (survives
/// [`disable`]); deterministic whenever the emission sites are, so the
/// serve protocol may report it. Counted at the recorder: an event
/// still held by a [`capture`] scope is not counted until replayed.
pub fn event_count() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// One-time, idempotent environment hook: if [`TRACE_ENV`] names a
/// path (or `mem`), enable the matching sink. Library entry points
/// (serve, sweep) and the CLI call this so `DCTOPO_TRACE=trace.jsonl`
/// re-runs any workload traced without code changes.
pub fn auto_init() {
    AUTO.call_once(|| {
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if path.is_empty() {
                return;
            }
            if path == "mem" {
                enable_memory();
            } else if let Err(e) = enable_file(&path) {
                eprintln!("dctopo-obs: cannot open {TRACE_ENV}={path}: {e}");
            }
        }
    });
}

/// A wall-clock start marker: `Some` only while the recorder is
/// enabled, so disabled runs never touch the clock. Pair with
/// [`us_since`].
#[inline]
pub fn clock() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Microseconds elapsed since a [`clock`] marker (0 when the marker is
/// `None`, i.e. the recorder was disabled at the start site).
#[inline]
pub fn us_since(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_micros() as u64)
}

/// One structured telemetry event: a kind tag, deterministic fields,
/// and non-deterministic (`nd`) fields. Build with the fluent methods
/// and [`Event::emit`] it; construction cost is only paid when the
/// caller already checked [`enabled`].
#[derive(Debug)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, Json)>,
    nd: Vec<(&'static str, Json)>,
}

impl Event {
    /// Start an event of the given kind (the JSONL `"ev"` value).
    pub fn new(kind: &'static str) -> Event {
        Event {
            kind,
            fields: Vec::new(),
            nd: Vec::new(),
        }
    }

    /// Attach a deterministic field (must be a pure function of
    /// instance + options + seeds; the replay suite pins this).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Attach a non-deterministic field (wall clock, CAS retries, …);
    /// serialized under the reserved `"nd"` object that [`strip_nd`]
    /// removes.
    #[must_use]
    pub fn nd(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.nd.push((key, value.into()));
        self
    }

    /// Record the event: into the innermost open [`capture`] scope on
    /// this thread, else through the global recorder (drops it silently
    /// when the recorder is disabled — emission sites usually guard on
    /// [`enabled`] first to skip construction entirely).
    pub fn emit(self) {
        if !enabled() {
            return;
        }
        let mut ev = Some(self);
        SCOPES.with_borrow_mut(|scopes| scopes.last_mut().map(|buffer| buffer.extend(ev.take())));
        let Some(ev) = ev else { return };
        let mut state = recorder();
        let Some(state) = state.as_mut() else { return };
        let mut line = ev.render(state.seq);
        state.seq += 1;
        EVENTS.fetch_add(1, Ordering::Relaxed);
        match &mut state.sink {
            Sink::File(w) => {
                // one write ending in the newline: one syscall a line
                line.push('\n');
                let _ = w.write_all(line.as_bytes());
            }
            Sink::Mem(lines) => lines.push(line),
        }
    }

    /// Render as one JSONL line: `{"ev":…,"seq":…,fields…,"nd":{…}}`.
    fn render(self, seq: u64) -> String {
        let mut obj: Vec<(String, Json)> = Vec::with_capacity(self.fields.len() + 3);
        obj.push(("ev".into(), Json::Str(self.kind.into())));
        obj.push(("seq".into(), Json::num(seq as f64)));
        for (k, v) in self.fields {
            obj.push((k.into(), v));
        }
        if !self.nd.is_empty() {
            let nd: Vec<(String, Json)> = self.nd.into_iter().map(|(k, v)| (k.into(), v)).collect();
            obj.push(("nd".into(), Json::Obj(nd)));
        }
        Json::Obj(obj).to_string()
    }
}

/// A value computed inside [`capture`], holding the events its
/// computation emitted until [`Captured::emit`] replays them.
#[must_use = "captured events reach the trace only when replayed by `emit`"]
pub struct Captured<T> {
    value: T,
    events: Vec<Event>,
}

impl<T> Captured<T> {
    /// Replay the captured events, in emission order, into the
    /// enclosing scope (the recorder when there is none), and return
    /// the value.
    pub fn emit(self) -> T {
        self.events.into_iter().for_each(Event::emit);
        self.value
    }
}

/// Captures collect into one that holds their events in iteration
/// order, so a parallel map's tasks replay in index order.
impl<T, C: FromIterator<T>> FromIterator<Captured<T>> for Captured<C> {
    fn from_iter<I: IntoIterator<Item = Captured<T>>>(captures: I) -> Self {
        let mut events = Vec::new();
        let value = (captures.into_iter())
            .map(|c| {
                events.extend(c.events);
                c.value
            })
            .collect();
        Captured { value, events }
    }
}

/// Run `f`, capturing the events it emits on this thread instead of
/// recording them. Wrap each task of a parallel map that can emit,
/// collect the map into one [`Captured`] and [`Captured::emit`] it: the
/// trace then holds the same sequence at every pool width. With the
/// recorder disabled this costs one relaxed load and allocates nothing.
pub fn capture<T>(f: impl FnOnce() -> T) -> Captured<T> {
    if !enabled() {
        let events = Vec::new();
        return Captured { value: f(), events };
    }
    // the scope closes even when `f` panics: the pool catches a task's
    // panic and keeps its thread serving later tasks
    SCOPES.with_borrow_mut(|scopes| scopes.push(Vec::new()));
    let value = std::panic::catch_unwind(AssertUnwindSafe(f));
    let events = SCOPES.with_borrow_mut(Vec::pop).unwrap_or_default();
    let value = value.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    Captured { value, events }
}

/// Strip the non-deterministic section from one JSONL trace line: the
/// deterministic residue two traced runs of the same workload must
/// agree on byte for byte.
///
/// # Errors
/// Returns the parser's message when `line` is not valid JSON.
pub fn strip_nd(line: &str) -> Result<String, String> {
    let v = Json::parse(line)?;
    match v {
        Json::Obj(fields) => {
            Ok(Json::Obj(fields.into_iter().filter(|(k, _)| k != "nd").collect()).to_string())
        }
        other => Ok(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // the recorder is process-global state: every test that touches it
    // holds this lock, so parallel test scheduling cannot interleave
    // sinks
    static RECORDER: Mutex<()> = Mutex::new(());

    #[test]
    fn recorder_lifecycle_and_nd_stripping() {
        let _serial = RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(!enabled());
        // disabled: emit is a no-op and clocks stay untouched
        Event::new("noop").field("x", 1u64).emit();
        assert_eq!(drain_memory(), Vec::<String>::new());
        assert_eq!(us_since(clock()), 0);

        enable_memory();
        assert!(enabled());
        let before = event_count();
        Event::new("phase")
            .field("phase", 3u64)
            .field("eps", 0.55)
            .field("label", "anneal")
            .nd("wall_us", 17u64)
            .emit();
        Event::new("phase").field("phase", 4u64).emit();
        let lines = drain_memory();
        assert_eq!(lines.len(), 2);
        assert_eq!(event_count(), before + 2);
        assert_eq!(
            lines[0],
            r#"{"ev":"phase","seq":0,"phase":3,"eps":0.55,"label":"anneal","nd":{"wall_us":17}}"#
        );
        // stripping removes exactly the nd object
        assert_eq!(
            strip_nd(&lines[0]).unwrap(),
            r#"{"ev":"phase","seq":0,"phase":3,"eps":0.55,"label":"anneal"}"#
        );
        // no nd section: stripping is the identity
        assert_eq!(strip_nd(&lines[1]).unwrap(), lines[1]);
        assert!(strip_nd("not json").is_err());

        disable();
        assert!(!enabled());
        Event::new("after").emit();
        enable_memory();
        assert_eq!(drain_memory(), Vec::<String>::new());
        disable();
    }

    #[test]
    fn capture_scopes_nest_and_number_events_at_the_top_level_replay() {
        let _serial = RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ev = |kind: &'static str| Event::new(kind).emit();
        let kinds = |lines: Vec<String>| -> Vec<(String, u64)> {
            lines
                .iter()
                .map(|l| {
                    let v = Json::parse(l).unwrap();
                    let kind = v.get("ev").and_then(Json::as_str).unwrap().to_owned();
                    (kind, v.get("seq").and_then(Json::as_u64).unwrap())
                })
                .collect()
        };

        // disabled: the capture runs its closure and holds no events,
        // even when replayed into an enabled recorder
        let dark = capture(|| {
            ev("unseen");
            5
        });
        enable_memory();
        let before = event_count();
        assert_eq!(dark.emit(), 5);
        assert_eq!(drain_memory(), Vec::<String>::new());

        ev("first");
        let outer = capture(|| {
            ev("outer-a");
            // a task on another thread captures into its own scope
            let inner = std::thread::scope(|s| {
                s.spawn(|| {
                    capture(|| {
                        ev("inner");
                        7
                    })
                })
                .join()
                .unwrap()
            });
            // a nested scope on this thread
            let nested = capture(|| ev("nested"));
            ev("outer-b");
            nested.emit();
            let value = inner.emit();
            // the recorder saw only the event emitted outside every
            // scope; the rest sits in this scope's buffer
            assert_eq!(event_count(), before + 1);
            value
        });
        assert_eq!(event_count(), before + 1);
        assert_eq!(outer.emit(), 7);
        let order = ["first", "outer-a", "outer-b", "nested", "inner"];
        assert_eq!(
            kinds(drain_memory()),
            order
                .iter()
                .zip(0..)
                .map(|(k, i)| (k.to_string(), i))
                .collect::<Vec<_>>()
        );
        assert_eq!(event_count(), before + 5);

        // a panicking task closes its scope: later events still reach
        // the recorder
        let caught = std::panic::catch_unwind(|| capture(|| panic!("task failed")));
        assert!(caught.is_err());
        ev("after");
        assert_eq!(kinds(drain_memory()), [("after".to_string(), 5)]);
        disable();
    }
}
