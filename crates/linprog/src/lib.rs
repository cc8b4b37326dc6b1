//! # dctopo-linprog
//!
//! A dense primal simplex for linear programs in packing form,
//!
//! ```text
//! maximize    cᵀ x
//! subject to  A x ≤ b,   x ≥ 0,   with b ≥ 0,
//! ```
//!
//! built column by column: [`LinearProgram::new`] takes the rows'
//! right-hand sides and [`LinearProgram::add_column`] one variable at a
//! time. [`LinearProgram::solve`] returns the optimal columns and the
//! optimal row duals ([`LpSolution::duals`]), and it resumes from the
//! basis the last solve ended in, so columns added between solves —
//! column generation — cost only the pivots they cause.
//!
//! ## Role in the workspace
//!
//! The paper solves the maximum concurrent multi-commodity flow problem
//! with CPLEX. Our production path is the combinatorial FPTAS in
//! `dctopo-flow`; this crate solves the master of its exact backend, the
//! path LP by column generation, whose duals are the arc lengths the
//! exact answer's bound is certified at. It plays the role CPLEX plays
//! in the paper.
//!
//! ## Scope and limitations
//!
//! * Only `≤` rows with non-negative right-hand sides: the origin is
//!   feasible, so there is no phase 1 and no infeasible outcome.
//! * Dense tableau: memory and the work of every pivot are `O(m·(m+n))`
//!   for `m` rows and `n` columns. Fine for the masters `dctopo-flow`'s
//!   exact backend admits; deliberately not a large-scale LP code.
//! * Bland's anti-cycling rule is enabled after a run of pivots that do
//!   not improve the objective, and Dantzig's rule returns with the
//!   next improving one.

mod simplex;

pub use simplex::{LinearProgram, LpError, LpSolution};

#[cfg(test)]
mod tests {
    use super::*;

    /// `max cᵀx` over the rows `(coefficients, rhs)`, built column-wise.
    fn optimal(objective: &[f64], rows: &[(&[f64], f64)]) -> LpSolution {
        let mut lp = LinearProgram::new(rows.iter().map(|r| r.1).collect()).unwrap();
        for (j, &c) in objective.iter().enumerate() {
            let coeffs: Vec<_> = rows.iter().enumerate().map(|(i, r)| (i, r.0[j])).collect();
            lp.add_column(c, &coeffs).unwrap();
        }
        lp.solve().expect("solver error")
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  → x=2, y=6, obj=36
        let s = optimal(
            &[3.0, 5.0],
            &[(&[1.0, 0.0], 4.0), (&[0.0, 2.0], 12.0), (&[3.0, 2.0], 18.0)],
        );
        assert!((s.objective - 36.0).abs() < 1e-7);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
        // the duals price the binding rows: bᵀy = 36
        for (y, want) in s.duals.iter().zip([0.0, 1.5, 1.0]) {
            assert!((y - want).abs() < 1e-9, "{:?}", s.duals);
        }
    }

    #[test]
    fn unbounded_detected() {
        // max x st x - y <= 1
        let mut lp = LinearProgram::new(vec![1.0]).unwrap();
        lp.add_column(1.0, &[(0, 1.0)]).unwrap();
        lp.add_column(0.0, &[(0, -1.0)]).unwrap();
        assert_eq!(lp.solve(), Err(LpError::Unbounded));
    }

    #[test]
    fn repeated_indices_summed() {
        // max x st (0.5 + 0.5)x <= 3
        let mut lp = LinearProgram::new(vec![3.0]).unwrap();
        lp.add_column(1.0, &[(0, 0.5), (0, 0.5)]).unwrap();
        assert!((lp.solve().unwrap().objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // classic degenerate corner: several constraints through origin
        let s = optimal(
            &[1.0, 1.0],
            &[(&[1.0, -1.0], 0.0), (&[-1.0, 1.0], 0.0), (&[1.0, 1.0], 2.0)],
        );
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn tiny_maxflow_as_lp() {
        // max-flow 0 → 2 on the path 0-1-2 with capacities 2 and 3 is 2:
        // one column per path, one row per arc
        let s = optimal(&[1.0], &[(&[1.0], 2.0), (&[1.0], 3.0)]);
        assert!((s.objective - 2.0).abs() < 1e-7);
        assert!((s.duals[0] - 1.0).abs() < 1e-9 && s.duals[1].abs() < 1e-9);
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        let rows: [(&[f64], f64); 3] = [
            (&[1.0, 1.0, 1.0], 10.0),
            (&[-1.0, 0.0, -1.0], 0.0),
            (&[0.0, 1.0, -1.0], 1.0),
        ];
        let s = optimal(&[2.0, 3.0, 1.0], &rows);
        for (a, b) in rows {
            let lhs: f64 = a.iter().zip(&s.x).map(|(a, x)| a * x).sum();
            assert!(lhs <= b + 1e-7);
        }
        let dual: f64 = rows.iter().zip(&s.duals).map(|(r, y)| r.1 * y).sum();
        assert!((dual - s.objective).abs() < 1e-7, "strong duality");
    }

    /// A column added after a solve resumes from its basis and reaches
    /// the optimum of the grown program.
    #[test]
    fn columns_added_between_solves() {
        // two parallel unit links; route over the first, then offer the second
        let mut lp = LinearProgram::new(vec![1.0, 1.0]).unwrap();
        lp.add_column(1.0, &[(0, 1.0)]).unwrap();
        let first = lp.solve().unwrap();
        assert!((first.objective - 1.0).abs() < 1e-9);
        assert!((first.duals[0] - 1.0).abs() < 1e-9);
        assert_eq!(lp.add_column(1.0, &[(1, 1.0)]).unwrap(), 1);
        let second = lp.solve().unwrap();
        assert!((second.objective - 2.0).abs() < 1e-9);
    }
}
