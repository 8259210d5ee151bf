//! Solutions returned by the simplex solver.

use crate::model::Var;

/// Counters describing the work done by one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex pivots performed in phase 1 (for the revised simplex: pivots
    /// plus bound flips spent restoring primal feasibility; 0 when a warm
    /// start re-entered feasible).
    pub phase1_iterations: usize,
    /// Simplex pivots performed in phase 2.
    pub phase2_iterations: usize,
    /// Rows of the standardised system.
    pub rows: usize,
    /// Columns of the standardised system (excluding the right-hand side).
    /// The revised simplex adds exactly one slack per row and splits
    /// nothing, so this is `model vars + rows`; the tableau oracle is wider
    /// (free-var splits, explicit upper-bound rows and artificials).
    pub cols: usize,
    /// From-scratch LU factorizations triggered after entry (drift check or
    /// eta-file cap); 0 on the tableau oracle.
    pub refactorizations: usize,
    /// Bound flips — iterations that moved a nonbasic variable to its other
    /// bound without touching the basis (revised simplex only).
    pub bound_flips: usize,
    /// Eta-file basis updates applied (one per true pivot); 0 on the
    /// tableau oracle.
    pub basis_updates: usize,
    /// Peak stored nonzeros of the sparse LU factorization (factors plus
    /// eta file) across the solve; 0 on the tableau oracle.
    pub fill_in_nnz: usize,
    /// Whether this solve re-entered from a caller-supplied basis
    /// ([`crate::PreparedLp::solve_warm`]).
    pub warm_started: bool,
}

/// An optimal solution of a linear program.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal objective value (in the caller's optimisation direction).
    pub objective: f64,
    /// Optimal value of every model variable, indexed by [`Var::index`].
    pub values: Vec<f64>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// The optimal value of a variable.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }
}
