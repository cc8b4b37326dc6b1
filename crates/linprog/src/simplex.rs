//! Revised primal simplex from the slack basis, with a dense explicit
//! basis inverse.
//!
//! Every row is `aᵀx ≤ b` with `b ≥ 0`, so the origin is a basic
//! feasible solution and no phase 1 is needed. The solver keeps `B⁻¹`,
//! the basic values and every column's reduced cost, whose slack block
//! is the row duals `y`; the columns stay sparse as they were added. A
//! pivot expands only the entering column to `B⁻¹a`, updates the
//! reduced costs from the pivot row and costs `O(m²)` for `m` rows plus
//! the columns' nonzeros. A column added after a solve is priced once
//! against `y`, and the next solve resumes from the basis the last one
//! ended in. The entering column is Devex's choice (an approximate
//! steepest edge), the leaving row Harris's two-pass ratio test's; a
//! stall switches to Bland's rule, which guarantees termination on
//! degenerate problems.

const EPS: f64 = 1e-9;
/// The Devex weight at which the reference framework restarts.
const MAX_WEIGHT: f64 = 1e6;
/// Iterations of non-improving pivots tolerated before Bland's rule kicks in.
const STALL_LIMIT: usize = 64;

/// Failure of the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The pivot loop exceeded the iteration budget, which indicates a
    /// numerical breakdown (should not happen with Bland's rule).
    IterationLimit { iterations: usize },
    /// A coefficient was not finite, or a right-hand side was negative or
    /// not finite.
    BadInput(String),
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit { iterations } => {
                write!(f, "simplex exceeded {iterations} iterations")
            }
            LpError::BadInput(m) => write!(f, "bad LP input: {m}"),
            LpError::Unbounded => write!(f, "LP unbounded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal basic solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal value of each column, in the order they were added.
    pub x: Vec<f64>,
    /// Optimal dual of each row: `y ≥ 0` up to the solver's tolerance,
    /// `yᵀa ≥ c` for every column, and `bᵀy` equals the objective.
    pub duals: Vec<f64>,
}

/// A linear program `maximize cᵀx subject to Ax ≤ b, x ≥ 0` with
/// `b ≥ 0`, built column by column and held with its current basis.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// `B⁻¹`, one row per constraint.
    inverse: Vec<Vec<f64>>,
    /// The basic variables' values.
    rhs: Vec<f64>,
    /// The reduced cost `yᵀa − c` of every tableau column; the slack
    /// block holds the row duals `y`.
    cost: Vec<f64>,
    /// The current objective value `cᵀx`.
    value: f64,
    /// Each added column's objective coefficient and its `(row, a)`.
    columns: Vec<(f64, Vec<(usize, f64)>)>,
    /// Basic column of each row: slack `i` is column `i`, added column
    /// `j` is column `m + j`.
    basis: Vec<usize>,
    /// Devex reference weights, one per tableau column.
    weights: Vec<f64>,
}

impl LinearProgram {
    /// An LP with one row `… ≤ b_i` per entry of `rhs` and no columns.
    ///
    /// # Errors
    /// [`LpError::BadInput`] when an entry is negative or not finite.
    pub fn new(rhs: Vec<f64>) -> Result<Self, LpError> {
        if let Some(i) = rhs.iter().position(|&b| !(b.is_finite() && b >= 0.0)) {
            return Err(LpError::BadInput(format!("row {i} has rhs {}", rhs[i])));
        }
        let m = rhs.len();
        let inverse = (0..m)
            .map(|r| {
                let mut row = vec![0.0; m];
                row[r] = 1.0;
                row
            })
            .collect();
        Ok(LinearProgram {
            inverse,
            rhs,
            cost: vec![0.0; m],
            value: 0.0,
            columns: Vec::new(),
            basis: (0..m).collect(),
            weights: vec![1.0; m],
        })
    }

    /// Add a variable `x_j ≥ 0` with objective coefficient `objective`
    /// and constraint coefficients `(row, a)` (rows may repeat: summed),
    /// and return `j`.
    ///
    /// # Errors
    /// [`LpError::BadInput`] when a coefficient is not finite or a row
    /// is out of range.
    pub fn add_column(
        &mut self,
        objective: f64,
        coeffs: &[(usize, f64)],
    ) -> Result<usize, LpError> {
        let j = self.columns.len();
        let finite = objective.is_finite() && coeffs.iter().all(|&(_, a)| a.is_finite());
        if !finite || coeffs.iter().any(|&(i, _)| i >= self.rhs.len()) {
            return Err(LpError::BadInput(format!(
                "column {j} has a non-finite coefficient or an out-of-range row"
            )));
        }
        let reduced: f64 = coeffs.iter().map(|&(i, a)| a * self.cost[i]).sum();
        self.cost.push(reduced - objective);
        self.columns.push((objective, coeffs.to_vec()));
        self.weights.push(1.0);
        Ok(j)
    }

    /// Optimise from the current basis.
    ///
    /// # Errors
    /// [`LpError::Unbounded`], or [`LpError::IterationLimit`] on a
    /// numerical breakdown.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        let cols = self.rhs.len() + self.columns.len();
        let max_iters = 200 * (self.rhs.len() + cols + 16);
        let mut stall = 0usize;
        let mut last = f64::NEG_INFINITY;
        for _ in 0..max_iters {
            let bland = stall >= STALL_LIMIT;
            // entering column: the first with a negative reduced cost
            // under Bland's rule, else the largest Devex score r²/w
            let mut enter = None;
            let mut best = 0.0;
            for c in 0..cols {
                let r = self.cost[c];
                if r < -EPS && r * r > best * self.weights[c] {
                    (enter, best) = (Some(c), r * r / self.weights[c]);
                    if bland {
                        break;
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(self.solution());
            };
            let alpha = self.expand(col);
            // leaving row, Harris's two passes: the least ratio with every
            // basic value relaxed by EPS bounds the step, and among the
            // rows inside it the largest pivot wins (the lowest basic
            // index under Bland's rule)
            let rows = || (alpha.iter().zip(&self.rhs).enumerate()).filter(|r| *r.1 .0 > EPS);
            let bound = (rows().map(|(_, (a, b))| (b + EPS) / a)).fold(f64::INFINITY, f64::min);
            let mut leave: Option<(usize, f64)> = None;
            for (r, (&a, _)) in rows().filter(|(_, (a, b))| *b / *a <= bound) {
                let better = leave.is_none_or(|(br, ba)| match bland {
                    true => self.basis[r] < self.basis[br],
                    false => a > ba,
                });
                if better {
                    leave = Some((r, a));
                }
            }
            let Some((row, _)) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col, &alpha);
            if self.value > last + EPS {
                stall = 0;
                last = self.value;
            } else {
                stall += 1;
            }
        }
        Err(LpError::IterationLimit {
            iterations: max_iters,
        })
    }

    /// Row `r` of `B⁻¹` times tableau column `col`'s coefficients.
    fn dot(&self, r: &[f64], col: usize) -> f64 {
        match col.checked_sub(self.rhs.len()) {
            None => r[col],
            Some(j) => self.columns[j].1.iter().map(|&(i, v)| v * r[i]).sum(),
        }
    }

    /// Tableau column `col`: `B⁻¹a`.
    fn expand(&self, col: usize) -> Vec<f64> {
        self.inverse.iter().map(|r| self.dot(r, col)).collect()
    }

    /// Bring `col`, whose tableau column is `alpha`, into the basis at
    /// `row`.
    fn pivot(&mut self, row: usize, col: usize, alpha: &[f64]) {
        let reduced = self.cost[col];
        let mut pivot_row = std::mem::take(&mut self.inverse[row]);
        let inv = 1.0 / alpha[row];
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        let pivot_rhs = self.rhs[row] * inv;
        // each column's reduced cost falls by its pivot-row entry times
        // the entering one's; under Devex its reference weight grows with
        // that entry, the leaving column takes the entering one's, and
        // the framework restarts before a weight can overflow
        let wq = self.weights[col];
        for c in 0..self.cost.len() {
            let rho = self.dot(&pivot_row, c);
            self.cost[c] -= reduced * rho;
            self.weights[c] = self.weights[c].max(rho * rho * wq);
        }
        self.cost[col] = 0.0;
        self.weights[self.basis[row]] = (wq * inv * inv).max(1.0);
        if self.weights.iter().any(|&w| w > MAX_WEIGHT) {
            self.weights.fill(1.0);
        }
        let rows = self.inverse.iter_mut().zip(&mut self.rhs).zip(alpha);
        for ((other, rhs), &factor) in rows {
            if factor != 0.0 && !other.is_empty() {
                for (o, p) in other.iter_mut().zip(&pivot_row) {
                    *o -= factor * p;
                }
                // Harris's relaxed step and rounding may leave a basic
                // value just below 0; a negative ratio would then step
                // the objective backwards
                *rhs = (*rhs - factor * pivot_rhs).max(0.0);
            }
        }
        self.value -= reduced * pivot_rhs;
        self.inverse[row] = pivot_row;
        self.rhs[row] = pivot_rhs;
        self.basis[row] = col;
    }

    fn solution(&self) -> LpSolution {
        let m = self.rhs.len();
        let mut x = vec![0.0; self.columns.len()];
        for (&b, &v) in self.basis.iter().zip(&self.rhs) {
            if b >= m {
                x[b - m] = v;
            }
        }
        let objective = self.columns.iter().zip(&x).map(|(c, v)| c.0 * v).sum();
        LpSolution {
            objective,
            x,
            duals: self.cost[..m].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_finite_inputs() {
        assert!(matches!(
            LinearProgram::new(vec![f64::INFINITY]),
            Err(LpError::BadInput(_))
        ));
        assert!(matches!(
            LinearProgram::new(vec![-1.0]),
            Err(LpError::BadInput(_))
        ));
        let mut lp = LinearProgram::new(vec![1.0]).unwrap();
        assert!(matches!(
            lp.add_column(1.0, &[(0, f64::NAN)]),
            Err(LpError::BadInput(_))
        ));
        assert!(matches!(
            lp.add_column(f64::NAN, &[(0, 1.0)]),
            Err(LpError::BadInput(_))
        ));
    }

    #[test]
    fn redundant_rows_ok() {
        // x + y ≤ 2 stated twice; max x → x = 2
        let mut lp = LinearProgram::new(vec![2.0, 2.0]).unwrap();
        lp.add_column(1.0, &[(0, 1.0), (1, 1.0)]).unwrap();
        lp.add_column(0.0, &[(0, 1.0), (1, 1.0)]).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn larger_feasible_lp() {
        // x_i ≤ i + 1 for 12 variables, maximise the sum → 78
        let mut lp = LinearProgram::new((1..=12).map(f64::from).collect()).unwrap();
        for i in 0..12 {
            lp.add_column(1.0, &[(i, 1.0)]).unwrap();
        }
        let s = lp.solve().unwrap();
        assert!((s.objective - 78.0).abs() < 1e-6);
        assert!(s.duals.iter().all(|&y| (y - 1.0).abs() < 1e-9));
    }
}
