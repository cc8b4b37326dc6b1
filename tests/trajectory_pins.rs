//! Absolute trajectory pins for every multiplicative-weights loop.
//!
//! Each row below is one seeded solve, recorded as the exact bits of
//! its certificate (`throughput`, `upper_bound`), its `phases` and
//! `settles`, and an FNV-1a fold over every output vector. The rows
//! were captured from the library *before* the loops were moved onto
//! the shared certificate core (`flow::gk`), so any change to a float
//! operation, an operation order, a stop rule or a tree-reuse decision
//! in the fast, strict, k-shortest-path or grouped solver shows here as
//! a one-line diff naming the solver and the instance. The six fast
//! (`fptas`, `fptas-warm`, `fptas+record`, `long fptas`) rows were
//! captured again when that path gained its second dual candidate, the
//! bound at the mean lengths: where it never binds the row kept λ,
//! bound, phases and fold and only `settles` grew by the extra trees;
//! where the gap cannot close (`long`) only the bound moved. They were
//! captured a third time when that path's primal became a √phase-
//! weighted average of its phase flows: five stop earlier on a larger
//! λ, and `long`, which nothing can stop, kept bound, phases and
//! settles and moved λ and fold only (lengths never read the flow
//! accumulators). The `fptas-warm` row was captured once more when warm
//! starts began opening on the cold solve's certified dual lengths (the
//! lengths its bound was read at) instead of its terminal iterate:
//! phases 255 → 262, settles 251,287 → 258,497, and no other row moved.
//! The three `grouped-weighted` rows were captured again when the
//! grouped step began pushing subtree loads up the tree in reverse
//! settle order instead of a Kahn pass: the per-node load sums
//! reassociate, so `upper` moved by 13, 6 and 64 ulps and `fold` moved,
//! while λ, phases and settles kept their bits. No strict, KSP or
//! `grouped-list` row has moved since the first capture.
//!
//! The third instance runs on a `with_scaled_capacity(1.5)` view:
//! `x / 1.5` and `x * (1 / 1.5)` differ in the last place, so a solver
//! that divides by the capacity where it used to multiply by the stored
//! reciprocal (or the reverse) cannot pass it. The `long` rows run far
//! past the `1e100` rescale, so the post-rescale rebuild path is inside
//! a pin too.
//!
//! To re-capture after a deliberate trajectory change, run the test and
//! copy the table it prints on failure.

use std::fmt::Write as _;

use dctopo::core::solve::{aggregate_commodities, aggregate_groups};
use dctopo::flow::{
    solve_from, solve_grouped, solve_with_cache, Backend, Commodity, DemandGroup, FlowOptions,
    GroupedFlow, PathSetCache, SinkSpec, SolvedFlow,
};
use dctopo::graph::mix::Fnv1a;
use dctopo::graph::CsrNet;
use dctopo::topology::Topology;
use dctopo::traffic::{AggregateTraffic, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PINS: &str = "\
rrg24x8x5 fptas lambda=0x3fe5a42a2d87f16d upper=0x3fe64e0ce73fae0c phases=326 settles=385284 fold=0x10c00675a428fd74\n\
rrg24x8x5 fptas-strict lambda=0x3fe5a6c511e4ccb9 upper=0x3fe6620e327c047f phases=532 settles=482940 fold=0x49f41eca8f99ac49\n\
rrg24x8x5 ksp:4 lambda=0x3fe53ef368eb0432 upper=0x3fe5e6fb919503b6 phases=729 settles=0 fold=0x7367c7d622c1c1b0\n\
rrg24x8x5 grouped-weighted lambda=0x3f8136d2b96da702 upper=0x3f8c7f0a8db6fd24 phases=152 settles=5603904 fold=0x9c96e461fa93aaf2\n\
rrg24x8x5 grouped-list lambda=0x3fe5a6c511e4ccb9 upper=0x3fe680e0fdb84a48 phases=532 settles=500304 fold=0xc197042197c5b552\n\
rrg32x10x6 fptas lambda=0x3fe44caa1a9fe2da upper=0x3fe4ed20b6841f89 phases=272 settles=651149 fold=0x51cf822f5709bad1\n\
rrg32x10x6 fptas-strict lambda=0x3fe45eb92e9378e1 upper=0x3fe5059f7ffafeaf phases=758 settles=1507270 fold=0x912789ff4cc2b67a\n\
rrg32x10x6 ksp:4 lambda=0x3fe301080b8d4e2f upper=0x3fe3971d73f144b6 phases=737 settles=0 fold=0x533842d4709eb8fe\n\
rrg32x10x6 grouped-weighted lambda=0x3f72aaa03c149135 upper=0x3f81b291b56cf7f3 phases=164 settles=10748928 fold=0x2bf53e0bd2201fe0\n\
rrg32x10x6 grouped-list lambda=0x3fe45eb92e9378e1 upper=0x3fe50c09ce07be82 phases=758 settles=1473056 fold=0xa5c0bb5f3d18d94a\n\
rrg20x8x4@1.5 fptas lambda=0x3fe3883bbedf7395 upper=0x3fe4223189f4022f phases=133 settles=127561 fold=0xdf50a5f3cc592ea4\n\
rrg20x8x4@1.5 fptas-strict lambda=0x3fe383183b95d663 upper=0x3fe41cfcdc18be06 phases=372 settles=279068 fold=0x80cfa14859682212\n\
rrg20x8x4@1.5 ksp:4 lambda=0x3fe2d2d2d2d2d2d3 upper=0x3fe366d857bc1a1e phases=370 settles=0 fold=0x20617a7384095a04\n\
rrg20x8x4@1.5 grouped-weighted lambda=0x3f7c48717ad80b78 upper=0x3f8c246b683225b7 phases=318 settles=8141200 fold=0x4a9dcaf22051446a\n\
rrg20x8x4@1.5 grouped-list lambda=0x3fe3a78f82abc0aa upper=0x3fe42747d16782d6 phases=1108 settles=823960 fold=0x11b549e4ee513fda\n\
rrg20x8x4@1.5 fptas-warm lambda=0x3fe37aa7c3e6cba9 upper=0x3fe4108ed46ecbb9 phases=262 settles=258497 fold=0xa3eded68ce3fc089\n\
rrg24x8x5 fptas+record lambda=0x3fe5a42a2d87f16d upper=0x3fe64e0ce73fae0c phases=326 settles=385284 fold=0xc991bbc559eac1f4\n\
rrg24x8x5 fptas-strict+record lambda=0x3fe5a6c511e4ccb9 upper=0x3fe6620e327c047f phases=532 settles=482940 fold=0x4b9ae7ace6c7b43e\n\
rrg24x8x5 ksp:4+record lambda=0x3fe53ef368eb0432 upper=0x3fe5e6fb919503b6 phases=729 settles=0 fold=0x943c066e9104618b\n\
rrg20x8x4@1.5 long fptas lambda=0x3fe2ec7a1d1a6987 upper=0x3fe5002b548b6a45 phases=700 settles=689313 fold=0xd80c699a125784db\n\
rrg20x8x4@1.5 long fptas-strict lambda=0x3fe2e186da7642d1 upper=0x3fe52e9096d8a9a6 phases=700 settles=513938 fold=0xce8bafed50b6f41e\n\
rrg20x8x4@1.5 long ksp:4 lambda=0x3fe2750ff68a58b0 upper=0x3fe47c460a6ad9c4 phases=700 settles=0 fold=0xd00c3caa4b168e15\n\
rrg20x8x4@1.5 long grouped-list lambda=0x3fe2e186da7642d1 upper=0x3fe63963e9a2cd29 phases=700 settles=518540 fold=0xaab8cb20b9a76a5e\n\
";

fn fold(vectors: &[&[f64]]) -> u64 {
    let mut h = Fnv1a::default();
    for v in vectors {
        h.write_u64(v.len() as u64);
        for x in *v {
            h.write_u64(x.to_bits());
        }
    }
    h.finish()
}

fn row(out: &mut String, name: &str, cert: (f64, f64), work: (usize, u64), fold: u64) {
    writeln!(
        out,
        "{name} lambda={:#018x} upper={:#018x} phases={} settles={} fold={fold:#018x}",
        cert.0.to_bits(),
        cert.1.to_bits(),
        work.0,
        work.1
    )
    .unwrap();
}

fn pairwise_row(out: &mut String, name: &str, s: &SolvedFlow) {
    let mut vectors: Vec<&[f64]> = vec![&s.arc_flow, &s.commodity_rate];
    for per_commodity in s.commodity_arc_flow.iter().flatten() {
        vectors.push(per_commodity);
    }
    row(
        out,
        name,
        (s.throughput, s.upper_bound),
        (s.phases, s.settles),
        fold(&vectors),
    );
}

fn grouped_row(out: &mut String, name: &str, s: &GroupedFlow) {
    row(
        out,
        name,
        (s.throughput, s.upper_bound),
        (s.phases, s.settles),
        fold(&[&s.arc_flow, &s.group_rate_factor]),
    );
}

/// The KSP rows' backend.
const KSP4: Backend = Backend::KspRestricted { k: 4 };

/// A cold pairwise solve: `opts`'s backend on a fresh path-set cache.
fn solve_cold(net: &CsrNet, commodities: &[Commodity], opts: &FlowOptions) -> SolvedFlow {
    solve_with_cache(net, commodities, opts, &PathSetCache::new()).unwrap()
}

/// The commodity list as one [`SinkSpec::List`] group per source
/// (commodities arrive sorted by `(src, dst)`).
fn list_groups(commodities: &[Commodity]) -> Vec<DemandGroup> {
    let mut groups: Vec<DemandGroup> = Vec::new();
    for c in commodities {
        match groups.last_mut() {
            Some(DemandGroup {
                src,
                sinks: SinkSpec::List(pairs),
            }) if *src == c.src => pairs.push((c.dst, c.demand)),
            _ => groups.push(DemandGroup {
                src: c.src,
                sinks: SinkSpec::List(vec![(c.dst, c.demand)]),
            }),
        }
    }
    groups
}

struct Instance {
    name: &'static str,
    topo: Topology,
    net: CsrNet,
    commodities: Vec<Commodity>,
}

fn instance(name: &'static str, (n, ports, degree): (usize, usize, usize), seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::random_regular(n, ports, degree, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    let commodities = aggregate_commodities(&topo, &tm);
    let net = CsrNet::from_graph(&topo.graph);
    Instance {
        name,
        topo,
        net,
        commodities,
    }
}

#[test]
fn every_loop_keeps_its_recorded_trajectory() {
    let mut instances = vec![
        instance("rrg24x8x5", (24, 8, 5), 0x0715_0001),
        instance("rrg32x10x6", (32, 10, 6), 0x0715_0002),
        instance("rrg20x8x4@1.5", (20, 8, 4), 0x0715_0003),
    ];
    let scaled = instances[2].net.with_scaled_capacity(1.5).unwrap();
    instances[2].net = scaled;

    let opts = FlowOptions::default();
    let mut out = String::new();
    for Instance {
        name,
        topo,
        net,
        commodities,
    } in &instances
    {
        let fast = solve_cold(net, commodities, &opts);
        pairwise_row(&mut out, &format!("{name} fptas"), &fast);
        let strict = solve_cold(net, commodities, &opts.with_strict_reference(true));
        pairwise_row(&mut out, &format!("{name} fptas-strict"), &strict);
        let ksp = solve_cold(net, commodities, &opts.with_backend(KSP4));
        pairwise_row(&mut out, &format!("{name} ksp:4"), &ksp);
        let weighted = aggregate_groups(topo, &AggregateTraffic::all_to_all(topo.server_count()));
        let g = solve_grouped(net, &weighted, &opts).unwrap();
        grouped_row(&mut out, &format!("{name} grouped-weighted"), &g);
        let g = solve_grouped(net, &list_groups(commodities), &opts).unwrap();
        grouped_row(&mut out, &format!("{name} grouped-list"), &g);
    }

    // a warm-started re-solve of drifted demand on the re-rated view
    let Instance {
        net, commodities, ..
    } = &instances[2];
    let cold = solve_cold(net, commodities, &opts);
    let drifted: Vec<Commodity> = commodities
        .iter()
        .enumerate()
        .map(|(i, c)| Commodity {
            demand: c.demand * (0.85 + 0.05 * (i % 7) as f64),
            ..*c
        })
        .collect();
    let warm = solve_from(
        net,
        &drifted,
        &opts,
        &PathSetCache::new(),
        &cold.dual_lengths,
    )
    .unwrap();
    pairwise_row(&mut out, "rrg20x8x4@1.5 fptas-warm", &warm);

    // per-commodity recording rides the same trajectories
    let record = opts.with_commodity_flows(true);
    let Instance {
        net, commodities, ..
    } = &instances[0];
    let s = solve_cold(net, commodities, &record);
    pairwise_row(&mut out, "rrg24x8x5 fptas+record", &s);
    let s = solve_cold(net, commodities, &record.with_strict_reference(true));
    pairwise_row(&mut out, "rrg24x8x5 fptas-strict+record", &s);
    let s = solve_cold(net, commodities, &record.with_backend(KSP4));
    pairwise_row(&mut out, "rrg24x8x5 ksp:4+record", &s);

    // coarse steps and an unreachable gap: hundreds of phases, lengths
    // cross 1e100 and are rescaled (the fast path then rebuilds every
    // tree in full before trusting its drift gate again)
    let long = FlowOptions {
        epsilon: 0.6,
        target_gap: 1e-6,
        max_phases: 700,
        stall_phases: 700,
        ..FlowOptions::default()
    };
    let Instance {
        net, commodities, ..
    } = &instances[2];
    let s = solve_cold(net, commodities, &long);
    pairwise_row(&mut out, "rrg20x8x4@1.5 long fptas", &s);
    let s = solve_cold(net, commodities, &long.with_strict_reference(true));
    pairwise_row(&mut out, "rrg20x8x4@1.5 long fptas-strict", &s);
    let s = solve_cold(net, commodities, &long.with_backend(KSP4));
    pairwise_row(&mut out, "rrg20x8x4@1.5 long ksp:4", &s);
    let g = solve_grouped(net, &list_groups(commodities), &long).unwrap();
    grouped_row(&mut out, "rrg20x8x4@1.5 long grouped-list", &g);

    assert!(
        out == PINS,
        "a solver left its recorded trajectory; actual table:\n{out}"
    );
}
