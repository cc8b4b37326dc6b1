//! # dctopo-linprog
//!
//! A dense two-phase primal simplex solver for linear programs in the form
//!
//! ```text
//! maximize    cᵀ x
//! subject to  Aᵢ x {≤,=,≥} bᵢ   for each constraint i
//!             x ≥ 0
//! ```
//!
//! ## Role in the workspace
//!
//! The paper solves the maximum concurrent multi-commodity flow problem
//! with CPLEX. Our production path is the combinatorial FPTAS in
//! `dctopo-flow`; this crate provides the *exact* reference used to
//! cross-validate the FPTAS on small instances (tests and tiny
//! experiments), playing the role CPLEX plays in the paper.
//!
//! ## Scope and limitations
//!
//! * Dense tableau: memory and the work of every pivot are `O(m·(n+m))`
//!   for `m` constraints and `n` variables. Fine for the tableaus of at
//!   most 1.5M cells (about a second's work) `dctopo-flow`'s exact
//!   backend admits; deliberately not a large-scale LP code.
//! * Bland's anti-cycling rule is enabled after a run of pivots that do
//!   not improve the objective, and Dantzig's rule returns with the
//!   next improving one.

mod simplex;

pub use simplex::{LpError, LpOutcome, LpSolution};

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// One linear constraint in sparse form.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices may repeat (summed).
    pub coeffs: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: maximize `objective · x` subject to constraints and
/// `x ≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Create an LP with `num_vars` non-negative variables and an
    /// all-zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Set the objective coefficient of variable `var`.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(
            var < self.objective.len(),
            "objective variable out of range"
        );
        self.objective[var] = coeff;
    }

    /// Add a constraint. Out-of-range variable indices panic.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) {
        for &(v, _) in &coeffs {
            assert!(
                v < self.objective.len(),
                "constraint variable {v} out of range"
            );
        }
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
    }

    /// Convenience: `Σ coeffs ≤ rhs`.
    pub fn add_le(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.add_constraint(coeffs, Relation::Le, rhs);
    }

    /// Convenience: `Σ coeffs = rhs`.
    pub fn add_eq(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.add_constraint(coeffs, Relation::Eq, rhs);
    }

    /// Convenience: `Σ coeffs ≥ rhs`.
    pub fn add_ge(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.add_constraint(coeffs, Relation::Ge, rhs);
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Solve with the two-phase simplex method.
    pub fn solve(&self) -> Result<LpOutcome, LpError> {
        simplex::solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(lp: &LinearProgram) -> LpSolution {
        match lp.solve().expect("solver error") {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  → x=2, y=6, obj=36
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.add_le(vec![(0, 1.0)], 4.0);
        lp.add_le(vec![(1, 2.0)], 12.0);
        lp.add_le(vec![(0, 3.0), (1, 2.0)], 18.0);
        let s = optimal(&lp);
        assert!((s.objective - 36.0).abs() < 1e-7);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // max x + y st x + y = 10, x >= 3, y >= 2 → obj = 10
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_eq(vec![(0, 1.0), (1, 1.0)], 10.0);
        lp.add_ge(vec![(0, 1.0)], 3.0);
        lp.add_ge(vec![(1, 1.0)], 2.0);
        let s = optimal(&lp);
        assert!((s.objective - 10.0).abs() < 1e-7);
        assert!(s.x[0] >= 3.0 - 1e-9 && s.x[1] >= 2.0 - 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_le(vec![(0, 1.0)], 1.0);
        lp.add_ge(vec![(0, 1.0)], 2.0);
        assert!(matches!(lp.solve().unwrap(), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        // max x st x >= 0 (no upper bound)
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_ge(vec![(0, 1.0)], 0.0);
        assert!(matches!(lp.solve().unwrap(), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_normalized() {
        // max x st -x >= -5  (i.e. x <= 5)
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_ge(vec![(0, -1.0)], -5.0);
        let s = optimal(&lp);
        assert!((s.objective - 5.0).abs() < 1e-7);
    }

    #[test]
    fn repeated_indices_summed() {
        // max x st (0.5 + 0.5)x <= 3
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_le(vec![(0, 0.5), (0, 0.5)], 3.0);
        let s = optimal(&lp);
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // classic degenerate corner: several constraints through origin
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_le(vec![(0, 1.0), (1, -1.0)], 0.0);
        lp.add_le(vec![(0, -1.0), (1, 1.0)], 0.0);
        lp.add_le(vec![(0, 1.0), (1, 1.0)], 2.0);
        let s = optimal(&lp);
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.add_eq(vec![(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(vec![(0, 1.0)], 3.0);
        let s = optimal(&lp);
        assert!((s.x[0] + s.x[1] - 4.0).abs() < 1e-7);
        assert!(s.x[0] <= 3.0 + 1e-9);
    }

    #[test]
    fn tiny_maxflow_as_lp() {
        // max-flow 0->2 on path 0-1-2 with caps 2 and 3 == 2.
        // vars: f01, f12; maximize f12 subject to conservation f01 = f12.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(1, 1.0);
        lp.add_le(vec![(0, 1.0)], 2.0);
        lp.add_le(vec![(1, 1.0)], 3.0);
        lp.add_eq(vec![(0, 1.0), (1, -1.0)], 0.0);
        let s = optimal(&lp);
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        lp.set_objective(2, 1.0);
        lp.add_le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 10.0);
        lp.add_ge(vec![(0, 1.0), (2, 1.0)], 2.0);
        lp.add_eq(vec![(1, 1.0), (2, -1.0)], 1.0);
        let s = optimal(&lp);
        let sum = s.x[0] + s.x[1] + s.x[2];
        assert!(sum <= 10.0 + 1e-7);
        assert!(s.x[0] + s.x[2] >= 2.0 - 1e-7);
        assert!((s.x[1] - s.x[2] - 1.0).abs() < 1e-7);
    }
}
