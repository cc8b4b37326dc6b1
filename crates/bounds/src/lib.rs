//! # dctopo-bounds
//!
//! The paper's analytic bounds, in their closed forms (the per-instance
//! forms — observed hop distances, a specific demand vector's cuts —
//! live in `dctopo_core::ladder`):
//!
//! * **Theorem 1** — for any `r`-regular topology on `N` switches carrying
//!   `f` uniform flows, `T ≤ N·r / (⟨D⟩·f)`: total capacity divided by the
//!   capacity each flow must consume. Combined with the Cerf–Cowan–
//!   Mullin–Stanton lower bound on average shortest path length `d*`,
//!   this yields the *topology-independent* throughput upper bound
//!   `T ≤ N·r / (d*·f)` that Figs. 1–2 compare random graphs against.
//! * **ASPL lower bound** ([`aspl_lower_bound`]) — the Moore-style
//!   tree-view bound `d*(N, r)`, including the "curved step" structure
//!   Fig. 3 visualises ([`moore_level_boundaries`]).
//! * **Cut bound, Eqn. 1** ([`cut_throughput_bound`]) — for two clusters
//!   with `n1`/`n2` servers, cross-capacity `C̄` and total capacity `C`:
//!   `T ≤ min( C/(⟨D⟩(n1+n2)), C̄(n1+n2)/(2·n1·n2) )`, with `C̄` as
//!   `dctopo_graph::components::cut_capacity` measures it.
//! * **Thresholds** — [`cut_drop_point`] (Eqn. 2: the bound starts
//!   dropping when `C̄ ≤ C/(2⟨D⟩)`) and [`cbar_star`] (Fig. 11: given an
//!   observed peak `T*`, throughput must fall below `T*` once
//!   `C̄ < T*·2n1n2/(n1+n2)`).

#![warn(missing_docs)]

use dctopo_graph::GraphError;

/// Cerf–Cowan–Mullin–Stanton lower bound on the average shortest path
/// length of any `r`-regular graph with `n` nodes (the paper's §4).
///
/// A node can reach at most `r(r-1)^(j-1)` others at distance `j`, so the
/// distance distribution of an ideal tree lower-bounds the ASPL:
///
/// ```text
/// d* = [ Σ_{j=1}^{k-1} j·r(r-1)^(j-1)  +  k·R ] / (n - 1)
/// ```
///
/// with `R` the nodes left for the deepest level `k`.
///
/// # Errors
/// `r < 2` (disconnected or trivial beyond n=2) and `n < 2` are rejected,
/// except the valid perfect-matching case `(n, r) = (2, 1)`.
pub fn aspl_lower_bound(n: usize, r: usize) -> Result<f64, GraphError> {
    if n == 2 && r == 1 {
        return Ok(1.0);
    }
    if n < 2 {
        return Err(GraphError::Unrealizable(format!(
            "ASPL undefined for n = {n}"
        )));
    }
    if r < 2 {
        return Err(GraphError::Unrealizable(format!(
            "r = {r} cannot connect {n} nodes"
        )));
    }
    let mut remaining = (n - 1) as f64;
    let mut level_cap = r as f64;
    let mut j = 1.0f64;
    let mut weighted = 0.0f64;
    while remaining > level_cap {
        weighted += j * level_cap;
        remaining -= level_cap;
        level_cap *= (r - 1) as f64;
        j += 1.0;
    }
    weighted += j * remaining;
    Ok(weighted / (n - 1) as f64)
}

/// Sizes `N` at which the [`aspl_lower_bound`] tree gains a new distance
/// level (Fig. 3's x-tics): `N_k = 1 + Σ_{j=1}^{k} r(r-1)^(j-1)`.
/// Returns all boundaries `≤ max_n`.
pub fn moore_level_boundaries(r: usize, max_n: usize) -> Vec<usize> {
    assert!(r >= 2, "needs r >= 2");
    let mut out = Vec::new();
    let mut total = 1usize;
    let mut level_cap = r;
    loop {
        total = match total.checked_add(level_cap) {
            Some(t) if t <= max_n => t,
            _ => break,
        };
        out.push(total);
        level_cap = match level_cap.checked_mul(r - 1) {
            Some(c) if c > 0 => c,
            _ => break,
        };
    }
    out
}

/// Theorem 1 with the *observed* ASPL: `T ≤ C / (⟨D⟩ · f)` where `C` is
/// the total network capacity counting both directions.
pub fn throughput_bound_observed(total_capacity: f64, aspl: f64, flows: usize) -> f64 {
    assert!(aspl > 0.0 && flows > 0, "need positive ASPL and flows");
    total_capacity / (aspl * flows as f64)
}

/// The topology-independent upper bound of §4: `T ≤ N·r / (d*·f)` for any
/// `r`-regular graph on `n` switches carrying `f` uniform unit flows.
pub fn throughput_upper_bound(n: usize, r: usize, flows: usize) -> f64 {
    let d_star = aspl_lower_bound(n, r).expect("n, r validated by caller");
    throughput_bound_observed((n * r) as f64, d_star, flows)
}

/// Eqn. 1: cut-based two-cluster throughput bound for random permutation
/// traffic.
///
/// * `total_capacity` — `C`, both directions.
/// * `cross_capacity` — `C̄`, capacity of the links crossing the clusters,
///   both directions.
/// * `aspl` — average shortest path length ⟨D⟩ of the switch graph.
/// * `n1`, `n2` — servers attached in each cluster.
pub fn cut_throughput_bound(
    total_capacity: f64,
    cross_capacity: f64,
    aspl: f64,
    n1: usize,
    n2: usize,
) -> f64 {
    assert!(
        n1 > 0 && n2 > 0 && aspl > 0.0,
        "need servers in both clusters"
    );
    let f = (n1 + n2) as f64;
    let path_bound = total_capacity / (aspl * f);
    let cut_bound = cross_capacity * f / (2.0 * n1 as f64 * n2 as f64);
    path_bound.min(cut_bound)
}

/// Eqn. 2: for equal-size clusters the bound starts dropping when the
/// cross capacity falls below `C / (2⟨D⟩)`. Returns that threshold.
pub fn cut_drop_point(total_capacity: f64, aspl: f64) -> f64 {
    assert!(aspl > 0.0);
    total_capacity / (2.0 * aspl)
}

/// Fig. 11's marker: given an observed (or estimated) peak throughput
/// `t_star`, any configuration with `C̄ < C̄* = T*·2n1n2/(n1+n2)` *must*
/// have throughput below `T*`.
pub fn cbar_star(t_star: f64, n1: usize, n2: usize) -> f64 {
    assert!(n1 > 0 && n2 > 0 && t_star >= 0.0);
    t_star * 2.0 * n1 as f64 * n2 as f64 / (n1 + n2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aspl_bound_tiny_cases() {
        // n=2, r=1: single edge
        assert_eq!(aspl_lower_bound(2, 1).unwrap(), 1.0);
        // complete graph K_n: r = n-1 → bound exactly 1
        for n in [3usize, 5, 9] {
            assert!((aspl_lower_bound(n, n - 1).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn aspl_bound_matches_hand_computation() {
        // n=9, r=2 (ring): levels 2,2,2,2 → distances 1,1,2,2,3,3,4,4
        // d* = (1+1+2+2+3+3+4+4)/8 = 20/8
        let d = aspl_lower_bound(9, 2).unwrap();
        assert!((d - 2.5).abs() < 1e-12);
        // n=10, r=3: level1=3 (d1), level2=6 (d2), remaining 0... 9 = 3+6
        // → (3·1 + 6·2)/9 = 15/9
        let d = aspl_lower_bound(10, 3).unwrap();
        assert!((d - 15.0 / 9.0).abs() < 1e-12);
        // partial last level: n=8, r=3: 3 at d1, 4 at d2 → (3+8)/7
        let d = aspl_lower_bound(8, 3).unwrap();
        assert!((d - 11.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn aspl_bound_monotone_in_n_and_r() {
        // larger n → larger bound; larger r → smaller bound
        let d1 = aspl_lower_bound(50, 4).unwrap();
        let d2 = aspl_lower_bound(200, 4).unwrap();
        assert!(d2 > d1);
        let d3 = aspl_lower_bound(200, 8).unwrap();
        assert!(d3 < d2);
    }

    #[test]
    fn aspl_bound_rejects_degenerate() {
        assert!(aspl_lower_bound(1, 3).is_err());
        assert!(aspl_lower_bound(10, 1).is_err());
        assert!(aspl_lower_bound(10, 0).is_err());
    }

    #[test]
    fn moore_boundaries_for_degree_4() {
        // Fig. 3's x-tics: 5, 17, 53, 161, 485, 1457
        let b = moore_level_boundaries(4, 1457);
        assert_eq!(b, vec![5, 17, 53, 161, 485, 1457]);
    }

    #[test]
    fn moore_boundaries_ring() {
        // r=2: levels all size 2 → 3, 5, 7, ...
        assert_eq!(moore_level_boundaries(2, 9), vec![3, 5, 7, 9]);
    }

    #[test]
    fn hypercube_q3_beats_bound() {
        // observed hypercube ASPL (12/7) must respect the r=3, n=8 bound
        let d_star = aspl_lower_bound(8, 3).unwrap();
        assert!(12.0 / 7.0 >= d_star - 1e-12);
    }

    #[test]
    fn throughput_bound_shapes() {
        // denser network (higher r) → higher bound
        let lo = throughput_upper_bound(40, 5, 200);
        let hi = throughput_upper_bound(40, 20, 200);
        assert!(hi > lo);
        // more flows → lower bound
        assert!(throughput_upper_bound(40, 10, 400) < throughput_upper_bound(40, 10, 200));
        // consistency with the observed-ASPL variant
        let d_star = aspl_lower_bound(40, 10).unwrap();
        let a = throughput_upper_bound(40, 10, 200);
        let b = throughput_bound_observed(400.0, d_star, 200);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cut_bound_regimes() {
        // plentiful cross capacity → path-length bound dominates
        let plateau = cut_throughput_bound(1000.0, 500.0, 2.5, 100, 100);
        assert!((plateau - 1000.0 / (2.5 * 200.0)).abs() < 1e-12);
        // scarce cross capacity → cut bound dominates and scales with C̄
        let scarce = cut_throughput_bound(1000.0, 10.0, 2.5, 100, 100);
        assert!((scarce - 10.0 * 200.0 / (2.0 * 100.0 * 100.0)).abs() < 1e-12);
        assert!(scarce < plateau);
    }

    #[test]
    fn drop_point_and_cbar_star() {
        let c = 1000.0;
        let aspl = 2.5;
        let thr = cut_drop_point(c, aspl);
        assert!((thr - 200.0).abs() < 1e-12);
        // at the drop point the two terms of Eqn. 1 coincide (equal
        // clusters, f = n servers)
        let n = 100;
        let path = c / (aspl * (2 * n) as f64);
        let cut = cut_throughput_bound(c, thr, aspl, n, n);
        assert!((cut - path).abs() < 1e-9);
        // C̄* inverts the cut bound
        let t_star = 0.5;
        let cb = cbar_star(t_star, n, n);
        assert!((cb - 0.5 * 2.0 * (n * n) as f64 / (2 * n) as f64).abs() < 1e-9);
    }
}
