//! Golden stdout transcripts for one small seeded invocation of every
//! `topobench` subcommand that `cli_serve.rs` / `cli_strict.rs` do not
//! already pin. The files under `tests/golden/` were captured from the
//! binary as it stood *before* the CLI was split into per-subcommand
//! modules over the `dctopo-core` spec grammar; they are the proof that
//! the refactor (and anything after it) moves no byte of stdout.

use std::process::Command;

use dctopo::obs::Json;

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
            [
                "throughput",
                "solve:",
                "reuse ladder:",
                "dual:",
                "primal:",
                "path cache:",
            ]
            .iter()
            .any(|p| l.starts_with(p))
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(deterministic, include_str!("golden/profile.txt"));
}

/// One instance figure (`fig3`, solve-free), the co-validated `fig13`
/// and one curve figure (`extra-fattree`), each at pool widths 1 and 2:
/// a figure is a function of the seed alone, never of the width.
#[test]
fn figures_match_the_goldens_at_every_width() {
    let cases = [
        ("fig3", include_str!("golden/fig3.txt")),
        ("fig13", include_str!("golden/fig13.txt")),
        (
            "extra-fattree --runs 1",
            include_str!("golden/extra_fattree.txt"),
        ),
    ];
    for (args, golden) in cases {
        for threads in ["1", "2"] {
            assert_eq!(
                stdout_of(&format!("figures {args} --threads {threads}")),
                golden,
                "stdout of `topobench figures {args}` at --threads {threads} moved"
            );
        }
    }
}

/// The `aggregate-solve` instance's trajectory, captured at the commit
/// *before* `solve_grouped`'s trees moved from delta-stepping to the
/// heap Dijkstra: every deterministic float of every trace record,
/// compared as bits. Only `settles` was re-pinned by that swap
/// (7,505,184 bucket expansions became 3,446,272 heap pops, 512 per
/// tree), so this is the proof the kernel swap moved no certificate.
/// The final harvest then moved to the sinks' side (8 reverse trees in
/// place of 504 forward ones): the twelve `phase` lines and λ stayed,
/// settles fell to 3,192,320, and only the last bits of the harvest's
/// α, its bound and `upper_bound` were re-pinned.
#[test]
fn aggregate_profile_trace_matches_the_pre_swap_trajectory() {
    let path = format!("{}/profile_agg_trace.jsonl", env!("CARGO_TARGET_TMPDIR"));
    stdout_of(&format!(
        "profile rrg --switches 512 --ports 10 --degree 8 --seed 20140404 \
         --traffic hotspot-agg:16 --eps 0.3 --phases 12 --threads 1 --trace {path}"
    ));
    let trace = std::fs::read_to_string(&path).expect("profile wrote the trace");
    let mut pinned = String::new();
    for line in trace.lines() {
        let ev = Json::parse(line).expect("trace lines are JSON");
        let count = |key: &str| ev.get(key).and_then(Json::as_u64).expect("counter field");
        let bits = |keys: &[&str]| -> String {
            keys.iter()
                .map(|key| {
                    let x = ev.get(key).and_then(Json::as_f64).expect("float field");
                    format!(" {key} {:#018x}", x.to_bits())
                })
                .collect()
        };
        pinned += &match ev.get("ev").and_then(Json::as_str) {
            Some("grouped_phase") => format!(
                "phase {}{}\n",
                count("phase"),
                bits(&["alpha", "d_l", "primal", "dual"])
            ),
            Some("grouped_harvest") => format!("harvest{}\n", bits(&["alpha", "d_l", "bound"])),
            Some("grouped_solve") => format!(
                "solve groups {} phases {}{} settles {}\n",
                count("groups"),
                count("phases"),
                bits(&["lambda", "upper_bound"]),
                count("settles")
            ),
            other => panic!("unexpected trace event {other:?}"),
        };
    }
    assert_eq!(pinned, include_str!("golden/profile_agg_trace.txt"));
}
