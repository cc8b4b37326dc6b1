//! Two-phase dense primal simplex.
//!
//! Phase 1 minimises the sum of artificial variables to find a basic
//! feasible solution; phase 2 optimises the user objective. Pivoting uses
//! Dantzig's rule (most negative reduced cost) and switches to Bland's
//! rule after a stall is detected, which guarantees termination on
//! degenerate problems.

use crate::{LinearProgram, Relation};

const EPS: f64 = 1e-9;
/// Iterations of non-improving pivots tolerated before Bland's rule kicks in.
const STALL_LIMIT: usize = 64;

/// Hard failure of the solver (as opposed to a legitimate LP status).
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The pivot loop exceeded the iteration budget, which indicates a
    /// numerical breakdown (should not happen with Bland's rule).
    IterationLimit { iterations: usize },
    /// A coefficient or RHS was NaN/infinite.
    BadInput(String),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit { iterations } => {
                write!(f, "simplex exceeded {iterations} iterations")
            }
            LpError::BadInput(m) => write!(f, "bad LP input: {m}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Status of a solved LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal variable values (length = original variable count).
    pub x: Vec<f64>,
}

struct Tableau {
    /// m rows, each of length `cols + 1` (last entry is RHS).
    rows: Vec<Vec<f64>>,
    /// objective row (reduced costs), length `cols + 1`; we *minimise* it.
    cost: Vec<f64>,
    /// basis[r] = column basic in row r.
    basis: Vec<usize>,
    cols: usize,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.rows[row][col];
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        for v in self.rows[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.rows[row].clone();
        for (r, other) in self.rows.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = other[col];
            if factor.abs() > EPS {
                for (o, p) in other.iter_mut().zip(&pivot_row) {
                    *o -= factor * p;
                }
                other[col] = 0.0; // kill residual error exactly
            }
        }
        let factor = self.cost[col];
        if factor.abs() > EPS {
            for (c, p) in self.cost.iter_mut().zip(&pivot_row) {
                *c -= factor * p;
            }
            self.cost[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Run the simplex loop minimising the cost row over columns
    /// `0..active_cols`. Returns `Ok(true)` on optimal, `Ok(false)` on
    /// unbounded.
    fn optimize(&mut self, active_cols: usize) -> Result<bool, LpError> {
        let max_iters = 200 * (self.rows.len() + self.cols + 16);
        let mut stall = 0usize;
        // the cost row's right-hand side holds −objective, so an
        // improving pivot *raises* it
        let mut last_obj = f64::NEG_INFINITY;
        for _ in 0..max_iters {
            let bland = stall >= STALL_LIMIT;
            // entering column: negative reduced cost
            let mut enter = None;
            if bland {
                for c in 0..active_cols {
                    if self.cost[c] < -EPS {
                        enter = Some(c);
                        break;
                    }
                }
            } else {
                let mut best = -EPS;
                for c in 0..active_cols {
                    if self.cost[c] < best {
                        best = self.cost[c];
                        enter = Some(c);
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(true); // optimal
            };
            // leaving row: min ratio test (Bland tie-break on basis index)
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][col];
                if a > EPS {
                    let ratio = self.rows[r][self.cols] / a;
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - EPS
                                || (ratio < bratio + EPS && self.basis[r] < self.basis[br])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leave else {
                return Ok(false); // unbounded
            };
            self.pivot(row, col);
            let obj = self.cost[self.cols];
            if obj > last_obj + EPS {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
        Err(LpError::IterationLimit {
            iterations: max_iters,
        })
    }
}

/// Solve the LP by two-phase simplex.
pub fn solve(lp: &LinearProgram) -> Result<LpOutcome, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    for (i, c) in lp.constraints().iter().enumerate() {
        if !c.rhs.is_finite() {
            return Err(LpError::BadInput(format!(
                "constraint {i} has non-finite rhs"
            )));
        }
        if c.coeffs.iter().any(|&(_, a)| !a.is_finite()) {
            return Err(LpError::BadInput(format!(
                "constraint {i} has non-finite coefficient"
            )));
        }
    }
    if lp.objective().iter().any(|a| !a.is_finite()) {
        return Err(LpError::BadInput(
            "objective has non-finite coefficient".into(),
        ));
    }

    // Column layout: [original vars | slack/surplus | artificials] + RHS.
    // First pass: normalise rows to rhs >= 0 and count extra columns.
    let mut slack_count = 0usize;
    let mut artificial_count = 0usize;
    // (relation after normalisation)
    let mut norm: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
    for c in lp.constraints() {
        let mut dense = vec![0.0; n];
        for &(v, a) in &c.coeffs {
            dense[v] += a;
        }
        let (mut rel, mut rhs) = (c.relation, c.rhs);
        if rhs < 0.0 {
            for a in dense.iter_mut() {
                *a = -*a;
            }
            rhs = -rhs;
            rel = match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        match rel {
            Relation::Le => slack_count += 1,
            Relation::Ge => {
                slack_count += 1;
                artificial_count += 1;
            }
            Relation::Eq => artificial_count += 1,
        }
        norm.push((dense, rel, rhs));
    }

    let cols = n + slack_count + artificial_count;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut basis = vec![0usize; m];
    let mut next_slack = n;
    let mut next_art = n + slack_count;
    let art_start = n + slack_count;
    for (r, (dense, rel, rhs)) in norm.iter().enumerate() {
        let mut row = vec![0.0; cols + 1];
        row[..n].copy_from_slice(dense);
        row[cols] = *rhs;
        match rel {
            Relation::Le => {
                row[next_slack] = 1.0;
                basis[r] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                row[next_slack] = -1.0;
                next_slack += 1;
                row[next_art] = 1.0;
                basis[r] = next_art;
                next_art += 1;
            }
            Relation::Eq => {
                row[next_art] = 1.0;
                basis[r] = next_art;
                next_art += 1;
            }
        }
        rows.push(row);
    }

    let mut t = Tableau {
        rows,
        cost: vec![0.0; cols + 1],
        basis,
        cols,
    };

    if artificial_count > 0 {
        // Phase 1: minimise sum of artificials. cost = sum of rows whose
        // basic variable is artificial, negated into reduced-cost form.
        for a in art_start..cols {
            t.cost[a] = 1.0;
        }
        // price out the basic artificials
        for r in 0..m {
            if t.basis[r] >= art_start {
                let row = t.rows[r].clone();
                for (c, v) in t.cost.iter_mut().zip(&row) {
                    *c -= v;
                }
            }
        }
        match t.optimize(cols)? {
            true => {}
            false => {
                // Phase-1 objective is bounded below by 0; "unbounded" here
                // means numerical trouble.
                return Err(LpError::BadInput("phase 1 reported unbounded".into()));
            }
        }
        let phase1 = -t.cost[cols]; // cost row holds -(objective)
        if phase1 > 1e-7 {
            return Ok(LpOutcome::Infeasible);
        }
        // Drive any remaining artificial out of the basis if possible.
        for r in 0..m {
            if t.basis[r] >= art_start {
                let col = (0..art_start).find(|&c| t.rows[r][c].abs() > EPS);
                if let Some(c) = col {
                    t.pivot(r, c);
                }
                // If no pivot column exists the row is all-zero
                // (redundant constraint) and can stay.
            }
        }
    }

    // Phase 2: minimise -objective over columns excluding artificials.
    let mut cost = vec![0.0; cols + 1];
    for (v, &c) in lp.objective().iter().enumerate() {
        cost[v] = -c;
    }
    // forbid artificials from re-entering by leaving their cost at 0 and
    // restricting the active column range
    t.cost = cost;
    // price out basic variables
    for r in 0..m {
        let b = t.basis[r];
        let factor = t.cost[b];
        if factor.abs() > EPS {
            let row = t.rows[r].clone();
            for (c, v) in t.cost.iter_mut().zip(&row) {
                *c -= factor * v;
            }
            t.cost[b] = 0.0;
        }
    }
    match t.optimize(art_start)? {
        true => {}
        false => return Ok(LpOutcome::Unbounded),
    }

    let mut x = vec![0.0; n];
    for r in 0..m {
        if t.basis[r] < n {
            x[t.basis[r]] = t.rows[r][cols];
        }
    }
    let objective: f64 = lp.objective().iter().zip(&x).map(|(c, v)| c * v).sum();
    Ok(LpOutcome::Optimal(LpSolution { objective, x }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearProgram;

    #[test]
    fn rejects_nan_inputs() {
        let mut lp = LinearProgram::new(1);
        lp.add_le(vec![(0, f64::NAN)], 1.0);
        assert!(matches!(lp.solve(), Err(LpError::BadInput(_))));
        let mut lp2 = LinearProgram::new(1);
        lp2.add_le(vec![(0, 1.0)], f64::INFINITY);
        assert!(matches!(lp2.solve(), Err(LpError::BadInput(_))));
    }

    #[test]
    fn redundant_equality_rows_ok() {
        // x + y = 2 stated twice; max x → x=2
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_eq(vec![(0, 1.0), (1, 1.0)], 2.0);
        lp.add_eq(vec![(0, 1.0), (1, 1.0)], 2.0);
        match lp.solve().unwrap() {
            LpOutcome::Optimal(s) => assert!((s.objective - 2.0).abs() < 1e-7),
            o => panic!("expected optimal, got {o:?}"),
        }
    }

    #[test]
    fn larger_random_feasible_lp() {
        // A diagonally dominant system that is trivially feasible:
        // x_i <= i+1 for 12 vars, maximize sum → sum_{1..=12} = 78
        let mut lp = LinearProgram::new(12);
        for i in 0..12 {
            lp.set_objective(i, 1.0);
            lp.add_le(vec![(i, 1.0)], (i + 1) as f64);
        }
        match lp.solve().unwrap() {
            LpOutcome::Optimal(s) => assert!((s.objective - 78.0).abs() < 1e-6),
            o => panic!("expected optimal, got {o:?}"),
        }
    }
}
