//! Quickstart: build a random regular graph, measure its throughput
//! under permutation traffic, and compare against the paper's
//! topology-independent upper bound (Theorem 1 + the ASPL lower bound).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dctopo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // RRG(N=40, k=15, r=10): 40 switches with 15 ports, 10 towards the
    // network, 5 servers each — one of the paper's Fig. 1 configurations.
    let (n, k, r) = (40, 15, 10);
    let topo = Topology::random_regular(n, k, r, &mut rng).expect("valid RRG parameters");
    println!(
        "topology: {} switches, {} network links, {} servers",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count()
    );

    // Random permutation: each server sends to exactly one other server.
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);

    // Throughput = maximum concurrent flow with max-min fairness,
    // solved by the Garg–Könemann/Fleischer FPTAS with certified bounds.
    let engine = ThroughputEngine::new(&topo);
    let result = engine
        .solve(&tm, &FlowOptions::default())
        .expect("connected topology solves");
    println!(
        "throughput: {:.3} of line rate per flow (network λ = {:.3}, certified ≤ {:.3})",
        result.throughput, result.network_lambda, result.network_upper_bound
    );

    // Theorem 1: no topology with this equipment can beat N·r/(d*·f).
    let bound = throughput_upper_bound(n, r, tm.flow_count());
    println!(
        "Theorem-1 bound for ANY {n}-switch degree-{r} topology: {:.3} → this RRG achieves {:.1}%",
        bound,
        100.0 * result.network_lambda / bound
    );

    // Decompose throughput into the paper's §6.1 factors.
    let d = result
        .decomposition(engine.net())
        .expect("network solve present");
    println!(
        "decomposition: U = {:.2}, ⟨D⟩ = {:.2}, stretch = {:.3}",
        d.utilization, d.aspl, d.stretch
    );
}
