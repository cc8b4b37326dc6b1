//! What the benchmark reads from the host: CPU time and peak resident
//! memory of a process (from `/proc`, so the `topobench serve` child
//! is measured the same way as this process), and the record that
//! stamps every results file.

use std::path::Path;
use std::process::Command;

use dctopo_obs::json::Json;

/// `"self"` or a pid, as the `/proc` path component.
pub type ProcId<'a> = &'a str;

/// User + system CPU time another process has consumed so far, in
/// seconds, summed over its threads (`/proc/<pid>/task/*/schedstat`,
/// nanosecond resolution; the clock-tick counters in `stat` would
/// quantise a 0.7 s replay to 1.4 %). Up to date once the process
/// blocks, which a server waiting for the next request has.
pub fn cpu_seconds(pid: ProcId) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let (mut ns, mut read) = (0u64, 0u32);
    for task in tasks {
        let path = task
            .map_err(|e| format!("{dir}: {e}"))?
            .path()
            .join("schedstat");
        // a thread may exit between the listing and the read
        if let Ok(text) = std::fs::read_to_string(&path) {
            ns += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("{}: unexpected format", path.display()))?;
            read += 1;
        }
    }
    if read == 0 {
        return Err(format!("{dir}: no thread's schedstat could be read"));
    }
    Ok(ns as f64 / 1e9)
}

/// User + system CPU time of this process so far, in seconds, from the
/// process CPU clock. Unlike the `/proc` counters, which for a running
/// thread lag by up to a scheduler tick, the clock is exact when read.
pub fn own_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` whose layout
    // (two 64-bit signed fields) is the C `struct timespec` of 64-bit
    // Linux, the only platform this file (which reads `/proc`) supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The kernel's `cpu_set_t`: one bit per logical core, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The logical cores this process may run on, ascending. Empty when the
/// host will not say.
pub fn allowed_cores() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
    // through the pointer, which points at a live `CpuSet` of that size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|core| mask[core / 64] >> (core % 64) & 1 == 1)
        .collect()
}

/// Bind the threads of this process to `cores`, one core each, in the
/// order the threads were started (the main thread first) and round
/// robin when there are more threads than cores — so a single core
/// takes them all. Threads and child processes started afterwards
/// inherit the binding of the thread that starts them.
pub fn bind_threads(cores: &[usize]) -> Result<(), String> {
    let dir = "/proc/self/task";
    let mut tids = Vec::new();
    for task in std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))? {
        let name = task.map_err(|e| format!("{dir}: {e}"))?.file_name();
        let tid: i32 = name
            .to_str()
            .and_then(|t| t.parse().ok())
            .ok_or(format!("{dir}: unexpected entry {name:?}"))?;
        tids.push(tid);
    }
    tids.sort_unstable();
    for (tid, &core) in tids.into_iter().zip(cores.iter().cycle()) {
        let mut mask: CpuSet = [0; 16];
        *mask
            .get_mut(core / 64)
            .ok_or(format!("core {core} is beyond cpu_set_t"))? |= 1 << (core % 64);
        // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes through
        // the pointer, which points at a live `CpuSet` of that size.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &mask) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity(thread {tid}, core {core}): {}",
                std::io::Error::last_os_error()
            ));
        }
    }
    Ok(())
}

/// Peak resident set size (`VmHWM`) of the process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: ProcId) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn command_line(program: &str, args: &[&str], cwd: Option<&Path>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host record: enough to tell whether two results files are
/// comparable. `unknown` where the host cannot say (a checkout without
/// git metadata has no commit).
pub fn stamp() -> Json {
    let or_unknown = |v: Option<String>| Json::from(v.unwrap_or_else(|| "unknown".into()));
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent();
    let commit = repo
        .filter(|r| r.join(".git").exists())
        .and_then(|r| command_line("git", &["rev-parse", "HEAD"], Some(r)));
    Json::Obj(vec![
        (
            "logical_cores".into(),
            std::thread::available_parallelism()
                .map_or(0, |p| p.get())
                .into(),
        ),
        (
            "rustc".into(),
            or_unknown(command_line("rustc", &["--version"], None)),
        ),
        ("git_commit".into(), or_unknown(commit)),
        (
            "build_profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("os".into(), std::env::consts::OS.into()),
        ("arch".into(), std::env::consts::ARCH.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        // burn CPU time, not wall time: on a busy host the two differ
        let (before, own_before) = (cpu_seconds("self").unwrap(), own_cpu_seconds());
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while own_cpu_seconds() - own_before < 0.05 {
            assert!(t.elapsed().as_secs() < 60, "the CPU clock does not advance");
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        // the process clock counts every thread, so it cannot run behind
        // the wall clock by more than the other test threads' share
        let wall = t.elapsed().as_secs_f64();
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
        assert!(wall >= 0.05 / cores * 0.9, "50 ms of CPU in {wall} s");
        std::thread::yield_now();
        let after = cpu_seconds("self").unwrap();
        assert!(
            after - before >= 0.015,
            "burned 50 ms, /proc saw {}",
            after - before
        );
        assert!(peak_rss_mb("self").unwrap() > 0.5);
    }
}
