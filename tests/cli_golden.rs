//! Golden stdout transcripts for one small seeded invocation of every
//! `topobench` subcommand that `cli_serve.rs` / `cli_strict.rs` do not
//! already pin. The files under `tests/golden/` were captured from the
//! binary as it stood *before* the CLI was split into per-subcommand
//! modules over the `dctopo-core` spec grammar; they are the proof that
//! the refactor (and anything after it) moves no byte of stdout.

use std::process::Command;

/// Run `topobench` with `args`; stdout of a successful run.
fn stdout_of(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_topobench"))
        .args(args.split_whitespace())
        .output()
        .expect("failed to run topobench");
    assert!(
        out.status.success(),
        "`topobench {args}` failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn subcommand_stdout_matches_the_pre_refactor_transcripts() {
    let cases = [
        (
            "build rrg --switches 8 --ports 6 --degree 3 --seed 5",
            include_str!("golden/build.txt"),
        ),
        (
            "solve rrg --switches 12 --ports 7 --degree 4 --runs 2 --seed 5",
            include_str!("golden/solve.txt"),
        ),
        (
            "solve rrg --switches 12 --ports 7 --degree 4 --runs 1 --seed 5 \
             --traffic all-to-all-agg",
            include_str!("golden/solve_agg.txt"),
        ),
        (
            "sweep --families rrg:10x6x4,fat-tree:4 --traffic permutation,chunky:50 \
             --failures 0,2 --backends fptas,ksp:3 --runs 1 --seed 3",
            include_str!("golden/sweep.txt"),
        ),
        (
            "search --family two-cluster:6x8x3-6x5x2-6 --mode both --rounds 2 --batch 6 --seed 1",
            include_str!("golden/search.txt"),
        ),
        (
            "plan --family rrg:12x6x4 --pairs 2 --seed 3",
            include_str!("golden/plan.txt"),
        ),
        (
            "packetsim rrg --switches 8 --ports 6 --degree 4 --seed 4 --duration 20 \
             --warmup 5 --routing ksp:2 --failures 1",
            include_str!("golden/packetsim.txt"),
        ),
        (
            "bounds --switches 40 --degree 10 --flows 200",
            include_str!("golden/bounds.txt"),
        ),
        (
            "vl2-study --da 4 --di 4 --runs 1",
            include_str!("golden/vl2_study.txt"),
        ),
    ];
    for (args, golden) in cases {
        assert_eq!(
            stdout_of(args),
            golden,
            "stdout of `topobench {args}` moved"
        );
    }
}

/// `profile` prints wall clocks next to its work counters; only the
/// lines that are pure functions of the instance are pinned.
#[test]
fn profile_prints_the_pre_refactor_work_counters() {
    let out = stdout_of("profile rrg --switches 12 --ports 7 --degree 4 --seed 5");
    let deterministic: String = out
        .lines()
        .filter(|l| {
            ["throughput", "solve:", "reuse ladder:", "path cache:"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(deterministic, include_str!("golden/profile.txt"));
}
