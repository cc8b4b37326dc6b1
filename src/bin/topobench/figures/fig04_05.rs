//! Figures 4 and 5: distributing servers across heterogeneous switches.
//!
//! * Fig. 4 — two switch types, unbiased random interconnect over the
//!   ports left after server attachment; sweep how many servers sit on
//!   the large switches. The paper's finding: throughput peaks when
//!   servers are distributed *in proportion to switch port counts*
//!   (x = 1), regardless of (a) port ratios, (b) switch counts,
//!   (c) oversubscription.
//! * Fig. 5 — a power-law port-count fleet; attach servers ∝ `k^β` and
//!   sweep β. β = 1 (proportional) is among the optima.

use dctopo::core::{TopologyPoint, TrafficModel};
use dctopo::topology::hetero::{heterogeneous, heterogeneous_fleet, power_law_ports};
use dctopo::topology::ServerPlacement;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::curve;
use super::{columns, header, proportional_servers_large, row_keyed, server_splits, FigConfig};
use crate::args::CliResult;

/// One Fig. 4 curve: sweep server splits for the given fleet.
fn sweep_split_curve(
    cfg: &FigConfig,
    label: &str,
    n_l: usize,
    ports_l: usize,
    n_s: usize,
    ports_s: usize,
    total_servers: usize,
) -> CliResult {
    let prop = proportional_servers_large(total_servers, n_l, n_s, ports_l, ports_s);
    let splits = server_splits(total_servers, n_l, n_s, ports_l, ports_s);
    let points = splits
        .iter()
        .map(|&(s_l, s_s)| {
            TopologyPoint::new(format!("{label}:{s_l}/{s_s}"), move |rng| {
                heterogeneous(
                    &[(n_l, ports_l), (n_s, ports_s)],
                    total_servers,
                    &ServerPlacement::PerClass(vec![s_l, s_s]),
                    rng,
                )
            })
        })
        .collect();
    let throughput = curve(cfg, points, TrafficModel::Permutation, |m| m.throughput)?;
    for (&(s_l, s_s), stats) in splits.iter().zip(throughput) {
        row_keyed(
            label,
            &[
                s_l as f64 / prop,
                stats.mean,
                stats.std,
                s_l as f64,
                s_s as f64,
            ],
        );
    }
    Ok(())
}

/// Fig. 4(a)–(c).
pub fn run_fig4(cfg: &FigConfig) -> CliResult {
    header("Fig 4: server distribution sweeps; x = servers-at-large / proportional");
    columns(&[
        "curve",
        "x_ratio",
        "throughput",
        "std",
        "servers_large",
        "servers_small",
    ]);
    // (a) port ratios 3:1, 2:1, 3:2 — 20 large, 40 small
    sweep_split_curve(cfg, "a:3to1", 20, 30, 40, 10, 500)?;
    sweep_split_curve(cfg, "a:2to1", 20, 30, 40, 15, 480)?;
    sweep_split_curve(cfg, "a:3to2", 20, 30, 40, 20, 420)?;
    // (b) small-switch count 20/30/40 (20 large of 30p, smalls of 20p)
    sweep_split_curve(cfg, "b:20small", 20, 30, 20, 20, 300)?;
    sweep_split_curve(cfg, "b:30small", 20, 30, 30, 20, 360)?;
    sweep_split_curve(cfg, "b:40small", 20, 30, 40, 20, 420)?;
    // (c) oversubscription: same equipment (20×30p + 30×20p), more servers
    sweep_split_curve(cfg, "c:480srv", 20, 30, 30, 20, 480)?;
    sweep_split_curve(cfg, "c:510srv", 20, 30, 30, 20, 510)?;
    sweep_split_curve(cfg, "c:540srv", 20, 30, 30, 20, 540)?;
    Ok(())
}

/// Fig. 5: power-law port counts, servers ∝ `k^β`.
pub fn run_fig5(cfg: &FigConfig) -> CliResult {
    header("Fig 5: power-law fleet, servers attached proportional to port^beta");
    header("normalized to the beta = 1.0 (proportional) configuration");
    columns(&["curve", "beta", "normalized_throughput", "std"]);
    let n_switches = 40;
    let betas: Vec<f64> = (0..=8).map(|i| i as f64 * 0.2).collect();
    for &(label, min_ports) in &[("avg6", 4usize), ("avg8", 6), ("avg10", 7)] {
        // a fixed fleet per curve (sampled once, deterministic)
        let mut fleet_rng = StdRng::seed_from_u64(cfg.seed ^ min_ports as u64);
        let ports = power_law_ports(n_switches, min_ports, 36, 2.0, &mut fleet_rng);
        let total_ports: usize = ports.iter().sum();
        let avg = total_ports as f64 / n_switches as f64;
        header(&format!("{label}: actual mean port count {avg:.2}"));
        let total_servers = (total_ports as f64 * 0.4).round() as usize;
        let points = betas
            .iter()
            .map(|&beta| {
                let ports = ports.clone();
                TopologyPoint::new(format!("{label}:beta{beta}"), move |rng| {
                    heterogeneous_fleet(
                        &ports,
                        vec![0; n_switches],
                        vec!["powerlaw".to_string()],
                        total_servers,
                        &ServerPlacement::PowerLaw { beta },
                        rng,
                    )
                })
            })
            .collect();
        let throughput = curve(cfg, points, TrafficModel::Permutation, |m| m.throughput)?;
        let results: Vec<_> = betas.iter().copied().zip(throughput).collect();
        let norm = results
            .iter()
            .find(|(b, _)| (*b - 1.0).abs() < 1e-9)
            .map(|(_, s)| s.mean)
            .expect("beta=1 present");
        for (beta, stats) in results {
            row_keyed(label, &[beta, stats.mean / norm, stats.std / norm]);
        }
    }
    Ok(())
}
