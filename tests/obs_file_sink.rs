//! A file trace is complete however the process ends.
//!
//! The recorder is a `static`, which is never dropped, and only
//! `topobench`'s `main` ends with `obs::flush()`: a library caller of
//! `Server::run` / `SweepRunner::run`, or an example run under
//! `DCTOPO_TRACE`, used to lose whatever the sink still buffered. The
//! child below enables a file sink, emits, and exits without flushing;
//! every line has to be in the file.

use std::process::Command;

use dctopo::obs;

const EVENTS: u64 = 3000;

/// The child's half. A normal run of this binary passes no trace path
/// and the test is empty; the parent re-runs the binary with this
/// test's name and a `.jsonl` path as its two filters.
#[test]
fn child_emits_and_exits_without_flushing() {
    let Some(path) = std::env::args().find(|a| a.ends_with(".jsonl")) else {
        return;
    };
    obs::enable_file(&path).expect("child opens its sink");
    for i in 0..EVENTS {
        obs::Event::new("tick").field("i", i).emit();
    }
    // no flush, no disable, no destructors
    std::process::exit(0);
}

#[test]
fn a_file_sink_keeps_every_line_of_a_process_that_never_flushed() {
    let path = format!("{}/unflushed.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&path);
    let child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "child_emits_and_exits_without_flushing", &path])
        .output()
        .expect("failed to re-run the test binary");
    assert!(child.status.success(), "child failed: {child:?}");
    let trace = std::fs::read_to_string(&path).expect("child wrote the trace");
    assert!(trace.ends_with('\n'), "last line is cut short");
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.len() as u64, EVENTS, "lines lost at exit");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(*line, format!(r#"{{"ev":"tick","seq":{i},"i":{i}}}"#));
    }
}
