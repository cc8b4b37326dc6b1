//! `topobench bounds`: the paper's analytic bounds for one size.

use dctopo::bounds::{aspl_lower_bound, throughput_upper_bound};

use crate::args::{Args, CliError, CliResult, OrFail};

pub fn run(args: &Args) -> CliResult {
    let n: usize = args.require("switches")?;
    let r: usize = args.require("degree")?;
    let flows: usize = args.require("flows")?;
    if flows == 0 {
        return Err(CliError::Usage("--flows must be positive".into()));
    }
    let d_star = aspl_lower_bound(n, r).or_fail("invalid parameters")?;
    println!("ASPL lower bound d*({n}, {r}) = {d_star:.4}");
    println!(
        "Theorem-1 throughput bound for {flows} uniform flows: {:.4}",
        throughput_upper_bound(n, r, flows)
    );
    Ok(())
}
