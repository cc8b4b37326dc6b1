//! `dcbench` — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dcbench run [--workload W]... [--seed S] [--seconds T] [--trace 0|1 | --traced]
//!             [--quick] [--out DIR] [--history FILE] [--topobench PATH]
//! dcbench compare A.json[,A2.json...] B.json[,B2.json...] [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every metric as `workload metric value unit`. One run of
//! one workload is one process: with several workloads selected, `run`
//! starts itself once per workload and merges what the children wrote.
//! With a single workload the last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod host;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dctopo_obs::json::Json;

use run::{Metric, Outcome};
use workloads::{Cfg, Workload, ALL};

/// Seconds of timed replays per run when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

struct RunArgs {
    workloads: Vec<&'static Workload>,
    cfg: Cfg,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    history: Option<PathBuf>,
    /// Internal: this process is one workload of a multi-workload run
    /// and writes a part file for its parent to merge.
    part: bool,
}

fn usage() -> String {
    let list: Vec<String> = ALL
        .iter()
        .map(|w| format!("  {} [{} thread(s)]: {}", w.name, w.threads, w.why))
        .collect();
    format!(
        "usage:\n  dcbench run [--workload W]... [--seed S] [--seconds T] [--trace 0|1 | --traced]\n  \
         \x20           [--quick] [--out DIR] [--history FILE] [--topobench PATH]\n  \
         dcbench compare A.json[,A2.json...] B.json[,B2.json...] [--benchmark BENCHMARK.json]\n\
         workloads:\n{}",
        list.join("\n")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        cfg: Cfg {
            seed: 1,
            quick: false,
            topobench: PathBuf::new(),
        },
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: PathBuf::from("dcbench-out"),
        history: None,
        part: false,
    };
    let mut topobench = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = ALL
                    .iter()
                    .find(|w| w.name == name.as_str())
                    .ok_or(format!("unknown workload `{name}`"))?;
                parsed.workloads.push(w);
            }
            "--seed" => parsed.cfg.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => parsed.traced = number(value()?)? != 0,
            "--traced" => parsed.traced = true,
            "--quick" => parsed.cfg.quick = true,
            "--part" => parsed.part = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--history" => parsed.history = Some(PathBuf::from(value()?)),
            "--topobench" => topobench = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = ALL.iter().collect();
    }
    // `topobench` is built into the same target directory as `dcbench`
    parsed.cfg.topobench = match topobench {
        Some(path) => path,
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("topobench"),
    };
    if !parsed.cfg.topobench.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --bin topobench` into the \
             same target directory, or pass --topobench PATH",
            parsed.cfg.topobench.display()
        ));
    }
    Ok(parsed)
}

fn metrics_obj(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::Obj(vec![
                    ("value".into(), m.value.into()),
                    ("unit".into(), m.unit.as_str().into()),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The record a run leaves behind: what was asked, on which host, and
/// per workload what was measured.
fn record(args: &RunArgs, workloads: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), "dcbench".into()),
        ("traced".into(), args.traced.into()),
        ("host".into(), host::stamp()),
        ("seed".into(), args.cfg.seed.into()),
        ("seconds".into(), args.seconds.into()),
        ("quick".into(), args.cfg.quick.into()),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn record_name(traced: bool) -> &'static str {
    if traced {
        "layers.json"
    } else {
        "results.json"
    }
}

/// Write the record where the run's kind says, and append it to the
/// history file when one was asked for.
fn publish(args: &RunArgs, record: &Json) -> Result<(), String> {
    let path = args.out.join(record_name(args.traced));
    write_file(&path, &format!("{record}\n"))?;
    eprintln!("dcbench: wrote {}", path.display());
    if let Some(history) = &args.history {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history)
            .map_err(|e| format!("{}: {e}", history.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", history.display()))?;
    }
    Ok(())
}

/// Run the one selected workload in this process.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let w = args.workloads[0];
    // The pool is sized once per process, before its first parallel
    // operation, and never from the host: as wide as the workload, so a
    // one-thread workload runs in the worker-less pool `--threads 1`
    // gives `topobench`. Only a traced run that also replays the other
    // workloads (to report every layer) needs the wider pool throughout.
    let fill = args.traced && !args.part;
    let pool = if fill { 2 } else { w.threads };
    std::env::set_var("DCTOPO_THREADS", pool.to_string());
    let outcome: Outcome = if args.traced {
        let traced = run::traced(w, &args.cfg, fill)?;
        let path = args.out.join(format!("trace-{}.jsonl", w.name));
        write_file(&path, &traced.jsonl)?;
        eprintln!("dcbench: wrote {}", path.display());
        traced.outcome
    } else {
        run::untraced(w, &args.cfg, args.seconds)?
    };
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!("{} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    for why in &outcome.failures {
        eprintln!("dcbench: {}: FAILED {why}", w.name);
    }
    let spread = outcome.info.iter().find(|m| m.name == "replay_spread");
    if let Some(spread) = spread.filter(|m| m.value > 0.10) {
        eprintln!(
            "dcbench: warning: {}: median replay is {:.0} % above the quietest; the host is busy",
            w.name,
            spread.value * 100.0
        );
    }

    let correct = outcome.failed == 0;
    let entry = vec![
        ("threads".into(), w.threads.into()),
        ("correct".into(), correct.into()),
        ("attempted".into(), outcome.attempted.into()),
        ("failed".into(), outcome.failed.into()),
        ("metrics".into(), metrics_obj(&outcome.metrics)),
        ("info".into(), metrics_obj(&outcome.info)),
    ];
    let record = record(args, vec![(w.name.to_string(), Json::Obj(entry))]);
    if args.part {
        write_file(&part_path(args, w), &format!("{record}\n"))?;
    } else {
        publish(args, &record)?;
    }
    // the driver's contract: the result object is the last line
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), correct.into()),
            ("attempted".into(), outcome.attempted.into()),
            ("failed".into(), outcome.failed.into()),
            ("metrics".into(), metrics_obj(&outcome.metrics)),
        ])
    );
    Ok(correct)
}

fn part_path(args: &RunArgs, w: &Workload) -> PathBuf {
    args.out.join(format!("part-{}.json", w.name))
}

/// Run several workloads, each in a process of its own, and merge the
/// part files they leave.
fn run_many(args: &RunArgs, raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    // pass everything through except the selection and the history file
    let mut passed = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" || arg == "--history" {
            it.next();
        } else {
            passed.push(arg.clone());
        }
    }
    let mut all_correct = true;
    let mut merged = Vec::new();
    for w in &args.workloads {
        let status = Command::new(&exe)
            .arg("run")
            .args(&passed)
            .args(["--workload", w.name, "--part"])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let path = part_path(args, w);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let part = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(Json::Obj(entries)) = part.get("workloads") {
            merged.extend(entries.iter().cloned());
        }
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    publish(args, &record(args, merged))?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let done = match raw.first().map(String::as_str) {
        Some("run") => parse_run(&raw[1..]).and_then(|args| {
            if args.workloads.len() == 1 {
                run_one(&args)
            } else {
                run_many(&args, &raw[1..])
            }
        }),
        Some("compare") if raw.len() >= 3 => {
            let benchmark = match raw.get(3).map(String::as_str) {
                Some("--benchmark") => raw.get(4).map_or("BENCHMARK.json", String::as_str),
                _ => "BENCHMARK.json",
            };
            compare::compare(&raw[1], &raw[2], benchmark).map(|(regressed, _)| regressed == 0)
        }
        _ => Err(usage()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dcbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same workloads, with the
    /// same reasons, the same nine end-to-end metrics and the same
    /// per-layer metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect(path)).expect(path);
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let list = |key: &str| spec.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let in_code: Vec<(String, String)> = ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, in_code);

        let end_to_end: Vec<String> = list("end_to_end")
            .iter()
            .map(|m| field(m, "name"))
            .collect();
        assert_eq!(
            end_to_end,
            [
                "setup_s",
                "wall_s",
                "cpu_s",
                "peak_rss_mb",
                "lat_p50_ms",
                "lat_p95_ms",
                "work_count",
                "mean_gap",
                "ok_share"
            ]
        );
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let mut per_layer: Vec<String> =
            list("per_layer").iter().map(|m| field(m, "name")).collect();
        let mut recorded: Vec<String> = ALL
            .iter()
            .flat_map(|w| w.layer_metrics.iter())
            .chain(&[
                "topology.build_us",
                "traffic.generate_us",
                "graph.csr_build_us",
                "core.engine_new_us",
            ])
            .map(|m| m.to_string())
            .chain(["dcbench.trace_overhead".to_string()])
            .collect();
        per_layer.sort();
        recorded.sort();
        recorded.dedup();
        assert_eq!(per_layer, recorded);
    }
}
