//! Random regular graphs — `RRG(N, k, r)` in the paper's notation:
//! `N` switches with `k` ports each, `r` of which connect to other
//! switches (uniformly at random subject to `r`-regularity), leaving
//! `k − r` ports per switch for servers.

use dctopo_graph::{Graph, GraphError};
use rand::Rng;

use crate::stubs::{pair_stubs, stubs_from_counts};
use crate::{check_size, Topology};

impl Topology {
    /// Sample an `RRG(N, k, r)`: a random `r`-regular graph over `n`
    /// switches of `k` ports, with `k − r` servers per switch.
    ///
    /// Retries the stub pairing a few times (fresh randomness) before
    /// giving up, so the failure probability is negligible for `r ≥ 2`.
    ///
    /// # Errors
    /// * more than [`crate::MAX_SWITCHES`] switches or
    ///   [`crate::MAX_LINKS`] links is refused before anything is
    ///   allocated.
    /// * `r ≥ n` or `r > k` are unrealizable.
    /// * `n·r` odd is unrealizable (degree sum must be even).
    pub fn random_regular<R: Rng + ?Sized>(
        n: usize,
        k: usize,
        r: usize,
        rng: &mut R,
    ) -> Result<Topology, GraphError> {
        check_size("RRG", Some(n), n.checked_mul(r).map(|stubs| stubs / 2))?;
        if r > k {
            return Err(GraphError::Unrealizable(format!(
                "network degree {r} exceeds port count {k}"
            )));
        }
        if r >= n {
            return Err(GraphError::Unrealizable(format!(
                "degree {r} needs at least {} nodes, have {n}",
                r + 1
            )));
        }
        if (n * r) % 2 == 1 {
            return Err(GraphError::Unrealizable(format!(
                "odd total degree {n}×{r} cannot be realised"
            )));
        }
        let counts: Vec<_> = (0..n).map(|v| (v, r)).collect();
        let mut last_err = None;
        for _ in 0..8 {
            let mut g = Graph::new(n);
            g.reserve(n * r / 2, r);
            match pair_stubs(&mut g, stubs_from_counts(&counts), 1.0, rng) {
                Ok(unused) => {
                    debug_assert_eq!(unused, 0);
                    return Ok(Topology::uniform(g, k - r, k));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::components::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rrg_is_regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(10);
        for &(n, k, r) in &[(40usize, 15usize, 10usize), (20, 9, 4), (100, 12, 6)] {
            let t = Topology::random_regular(n, k, r, &mut rng).unwrap();
            assert_eq!(t.graph.regular_degree(), Some(r), "N={n} r={r}");
            assert_eq!(t.server_count(), n * (k - r));
            assert!(
                is_connected(&t.graph),
                "RRG disconnected (astronomically unlikely)"
            );
            t.validate_ports().unwrap();
        }
    }

    #[test]
    fn rrg_rejects_impossible() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!(Topology::random_regular(10, 4, 5, &mut rng).is_err()); // r > k
        assert!(Topology::random_regular(4, 10, 5, &mut rng).is_err()); // r >= n
        assert!(Topology::random_regular(5, 10, 3, &mut rng).is_err()); // odd sum
    }

    /// A switch count past the limit is a typed error, not an overflow
    /// of `n · r` or a capacity panic.
    #[test]
    fn rrg_refuses_switch_counts_past_the_limit() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [usize::MAX, crate::MAX_SWITCHES + 1] {
            assert!(matches!(
                Topology::random_regular(n, 4, 2, &mut rng),
                Err(GraphError::Unrealizable(_))
            ));
        }
    }

    #[test]
    fn rrg_samples_differ() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Topology::random_regular(30, 10, 6, &mut rng).unwrap();
        let b = Topology::random_regular(30, 10, 6, &mut rng).unwrap();
        let edges = |t: &Topology| {
            let mut e: Vec<_> = t
                .graph
                .edges()
                .iter()
                .map(|e| if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) })
                .collect();
            e.sort_unstable();
            e
        };
        assert_ne!(
            edges(&a),
            edges(&b),
            "two RRG samples identical — RNG misuse?"
        );
    }

    #[test]
    fn rrg_complete_graph_case() {
        // r = n-1 forces the complete graph
        let mut rng = StdRng::seed_from_u64(13);
        let t = Topology::random_regular(6, 8, 5, &mut rng).unwrap();
        assert_eq!(t.graph.edge_count(), 15);
    }
}
