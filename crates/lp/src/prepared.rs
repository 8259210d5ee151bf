//! Standardize-once / solve-many linear programs.
//!
//! [`PreparedLp`] separates the two halves of a solve that the dense tableau
//! oracle fuses: *standardization* (mapping a model with boxed
//! variables and `≤ / ≥ / =` rows onto equality form `Ax = b`,
//! `l ≤ x ≤ u`) happens once, and *solving* can then be repeated after
//! mutating the right-hand side ([`PreparedLp::set_rhs`]) or the objective
//! ([`PreparedLp::set_objective`]) — the mutations the recursive mechanism's
//! `H`/`G` sequence chains need, where consecutive entries differ only in the
//! mass-tie equality `Σ_p f_p = i`.
//!
//! Standard form is deliberately slack-complete: every constraint row gets
//! exactly one slack column (`≤` → `s ∈ [0, ∞)`, `≥` → `s ∈ (−∞, 0]`,
//! `=` → `s ∈ [0, 0]`), so the all-slack basis is always a valid (if
//! possibly infeasible) starting basis with `B = I`, and row `i` of the
//! standardized system is the model's `i`-th constraint verbatim — which is
//! what makes [`PreparedLp::set_rhs`] a plain store. Boxed variables are kept
//! native (no column splits, no extra bound rows): the bounded-variable
//! revised simplex of [`crate::revised`] tracks nonbasic-at-lower /
//! nonbasic-at-upper status instead. Variables fixed by their bounds
//! (`l = u`) stay in the matrix as columns that never enter the basis, just
//! like the `[0, 0]` slack of every `=` row; standardized column `j < n` is
//! model variable `j`, so solutions need no mapping back.
//!
//! A successful solve returns the optimal [`Basis`]; feeding it to
//! [`PreparedLp::solve_warm`] after an RHS step re-enters the simplex from
//! that basis (phase-1-free when the old basis is still primal feasible),
//! which is how a chain of `|P|+1` sequence solves avoids `|P|` cold starts.

use crate::error::LpError;
use crate::lu::LuFactor;
use crate::model::{ConstraintOp, Model, Sense, Var};
use crate::simplex::SimplexOptions;
use crate::solution::Solution;
use crate::sparse::CscMatrix;

/// Where a variable sits relative to the current basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis; its value is determined by `B⁻¹(b − N x_N)`.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable (both bounds infinite), parked at 0.
    Free,
}

/// A simplex basis: which column is basic in each row, plus the bound status
/// of every column. Returned by a solve and accepted by
/// [`PreparedLp::solve_warm`] to continue a chain from the previous optimum.
///
/// A basis returned by a solve also carries its maintained LU
/// factorization. Re-entering with it skips the from-scratch
/// refactorization as long as the constraint matrix is unchanged (RHS and
/// objective mutations keep it valid; the factor is fingerprinted against
/// the matrix so a basis fed to a *different* prepared LP silently falls
/// back to refactorizing). The hand-off is O(1): the factor shares its bulk
/// behind an `Arc`.
#[derive(Clone, Debug)]
pub struct Basis {
    /// Basic column of each row (length = number of rows).
    pub(crate) basic: Vec<usize>,
    /// Status of every standardized column (structural + slack).
    pub(crate) status: Vec<VarStatus>,
    /// The maintained basis factorization, if this basis came out of a solve.
    pub(crate) factor: Option<BasisFactor>,
}

/// A cached basis factorization, tied to the constraint matrix it was
/// factored against.
#[derive(Clone, Debug)]
pub(crate) struct BasisFactor {
    /// Sparse Markowitz LU plus eta file.
    pub(crate) lu: LuFactor,
    /// Fingerprint of the [`CscMatrix`] the factor belongs to.
    pub(crate) fingerprint: u64,
}

impl Basis {
    /// Number of basic columns (= rows of the LP it belongs to).
    pub fn num_rows(&self) -> usize {
        self.basic.len()
    }

    /// Number of standardized columns this basis describes.
    pub fn num_cols(&self) -> usize {
        self.status.len()
    }
}

/// The result of a [`PreparedLp`] solve: the solution plus the optimal basis
/// to warm-start the next solve in a chain from.
#[derive(Clone, Debug)]
pub struct PreparedSolution {
    /// The optimal solution (objective in the caller's direction, values per
    /// model variable).
    pub solution: Solution,
    /// The optimal basis.
    pub basis: Basis,
}

/// A model standardized once into sparse equality form, ready for repeated
/// (warm-started) solves under RHS / objective mutation.
#[derive(Clone, Debug)]
pub struct PreparedLp {
    /// Rows (= model constraints).
    pub(crate) nrows: usize,
    /// Standardized columns: structural variables then one slack per row.
    pub(crate) ncols: usize,
    /// Structural variables (= model variables).
    pub(crate) nvars: usize,
    /// The standardized constraint matrix (slack columns included).
    pub(crate) a: CscMatrix,
    /// Per-column lower bounds.
    pub(crate) lower: Vec<f64>,
    /// Per-column upper bounds.
    pub(crate) upper: Vec<f64>,
    /// Internal minimization costs per column (sign already applied).
    pub(crate) cost: Vec<f64>,
    /// Right-hand side per row.
    pub(crate) b: Vec<f64>,
    /// +1 for minimization, −1 for maximization.
    sign: f64,
    /// Fingerprint of `a`, fixed at preparation time (RHS and objective
    /// mutations leave the matrix untouched).
    pub(crate) fingerprint: u64,
}

impl PreparedLp {
    /// Standardizes a model. Fails on invalid inputs (bad bounds, unknown
    /// variables, non-finite coefficients).
    pub fn new(model: &Model) -> Result<Self, LpError> {
        model.validate()?;
        let nvars = model.vars.len();
        let nrows = model.constraints.len();
        let ncols = nvars + nrows;
        let sign = if model.sense == Sense::Minimize {
            1.0
        } else {
            -1.0
        };

        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        let mut cost = vec![0.0; ncols];
        for (j, v) in model.vars.iter().enumerate() {
            lower.push(v.lower);
            upper.push(v.upper);
            cost[j] = sign * v.objective;
        }

        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(nrows);
        for (i, c) in model.constraints.iter().enumerate() {
            triplets.extend(c.terms.iter().map(|&(v, a)| (i, v.index(), a)));
            // One slack per row makes the all-slack basis the identity.
            triplets.push((i, nvars + i, 1.0));
            let (slo, shi) = match c.op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            lower.push(slo);
            upper.push(shi);
            b.push(c.rhs);
        }
        let a = CscMatrix::from_triplets(nrows, ncols, &triplets);
        let fingerprint = a.fingerprint();

        Ok(PreparedLp {
            nrows,
            ncols,
            nvars,
            a,
            lower,
            upper,
            cost,
            b,
            sign,
            fingerprint,
        })
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Number of model (structural) variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Number of standardized columns (structurals + slacks).
    pub fn num_cols(&self) -> usize {
        self.ncols
    }

    /// Overwrites the right-hand side of one constraint. `row` is the index
    /// of the constraint in the order it was added to the [`Model`]; the
    /// constraint matrix, operators and bounds are untouched, so a basis from
    /// a previous solve stays structurally valid for
    /// [`PreparedLp::solve_warm`].
    ///
    /// # Panics
    /// If `row` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(row < self.nrows, "row {row} out of range ({})", self.nrows);
        assert!(rhs.is_finite(), "rhs must be finite, got {rhs}");
        self.b[row] = rhs;
    }

    /// Overwrites the objective coefficient of a model variable (in the
    /// model's optimisation direction). On a fixed variable (`l = u`) this
    /// only changes the reported objective: its value cannot move.
    ///
    /// # Panics
    /// If the variable does not belong to the prepared model or the
    /// coefficient is not finite.
    pub fn set_objective(&mut self, var: Var, coefficient: f64) {
        assert!(
            var.index() < self.nvars,
            "variable {} out of range ({})",
            var.index(),
            self.nvars
        );
        assert!(
            coefficient.is_finite(),
            "objective coefficient must be finite, got {coefficient}"
        );
        self.cost[var.index()] = self.sign * coefficient;
    }

    /// Solves from a cold start (the all-slack basis).
    pub fn solve(&self, options: &SimplexOptions) -> Result<PreparedSolution, LpError> {
        crate::revised::solve_prepared(self, None, options)
    }

    /// Solves warm-started from `basis` (typically the optimal basis of the
    /// previous solve in a chain). If the basis is still primal feasible for
    /// the current RHS the solve is phase-1-free; otherwise a composite
    /// phase 1 re-enters from the given basis, which still needs far fewer
    /// pivots than a cold start. A basis that does not fit this LP (wrong
    /// shape) or whose basis matrix has gone numerically singular falls back
    /// to a cold solve instead of failing.
    pub fn solve_warm(
        &self,
        basis: &Basis,
        options: &SimplexOptions,
    ) -> Result<PreparedSolution, LpError> {
        if basis.basic.len() != self.nrows || basis.status.len() != self.ncols {
            return self.solve(options);
        }
        match crate::revised::solve_prepared(self, Some(basis), options) {
            Ok(s) => Ok(s),
            // Warm re-entry can only fail *numerically* in ways a fresh start
            // avoids (stale basis drift); verdicts like Infeasible/Unbounded
            // and stalls are re-derived cold so a bad warm basis can never
            // change the reported outcome of a solve.
            Err(LpError::IterationLimit { .. } | LpError::Infeasible | LpError::Unbounded) => {
                self.solve(options)
            }
            Err(e) => Err(e),
        }
    }

    /// The caller-direction objective value of the structural values
    /// `values` (`sign · cost` undoes the internal minimization sign
    /// exactly).
    pub(crate) fn user_objective_value(&self, values: &[f64]) -> f64 {
        self.cost
            .iter()
            .zip(values)
            .map(|(c, x)| self.sign * c * x)
            .sum()
    }
}
