//! Golden stdout of the `figures` binary: one instance figure (`fig3`,
//! solve-free), one curve figure (`extra-fattree`) and the co-validated
//! `fig13`, each at pool widths 1 and 2 — the output is a function of
//! the seed alone, never of the width.

use std::process::{Command, Output};

fn figures(args: &str, threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args.split_whitespace())
        .env("DCTOPO_THREADS", threads)
        .output()
        .expect("failed to run figures")
}

#[test]
fn stdout_matches_the_goldens_at_every_width() {
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
            let out = figures(args, threads);
            assert!(out.status.success(), "`figures {args}` failed");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                golden,
                "`figures {args}` at DCTOPO_THREADS={threads}"
            );
        }
    }
}

#[test]
fn zero_runs_is_a_usage_error() {
    let out = figures("fig3 --runs 0", "1");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: figures"));
}
