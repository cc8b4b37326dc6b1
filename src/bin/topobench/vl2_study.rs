//! `topobench vl2-study`: the §7 stock-vs-rewired VL2 comparison for
//! one size.

use dctopo::core::vl2::{permutation_tm, SupportSearch};
use dctopo::topology::vl2::{rewired_vl2, vl2, Vl2Params};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{Args, CliError, CliResult, OrFail};

pub fn run(args: &Args) -> CliResult {
    let d_a: usize = args.require("da")?;
    let d_i: usize = args.require("di")?;
    let runs = args.get("runs")?.unwrap_or(2);
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let design = Vl2Params {
        d_a,
        d_i,
        tors: None,
    };
    let full = design
        .full_throughput_tors()
        .or_fail("invalid VL2 parameters")?;
    println!("VL2(D_A={d_a}, D_I={d_i}): design capacity {full} ToRs");
    let search = SupportSearch {
        runs,
        ..SupportSearch::default()
    };
    let params = |tors: usize| Vl2Params {
        tors: Some(tors),
        ..design
    };
    let stock_build = |tors: usize, _s: u64| vl2(params(tors));
    let rewired_build =
        |tors: usize, s: u64| rewired_vl2(params(tors), &mut StdRng::seed_from_u64(s));
    let stock = search
        .max_tors(full.div_ceil(2), full, &stock_build, &permutation_tm)
        .unwrap_or(None)
        .unwrap_or(0);
    let rewired = search
        .max_tors(full.div_ceil(2), full * 2, &rewired_build, &permutation_tm)
        .unwrap_or(None)
        .unwrap_or(0);
    println!("stock VL2:   {stock} ToRs at full throughput");
    println!("rewired:     {rewired} ToRs at full throughput (same equipment)");
    if stock > 0 {
        println!(
            "improvement: {:+.1}%",
            100.0 * (rewired as f64 / stock as f64 - 1.0)
        );
    }
    Ok(())
}
