//! Solve results.

use crate::model::{Cmp, Model, VarKind};
use crate::{SolveError, Var, Violation};

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A provably optimal integer-feasible solution was found.
    Optimal,
    /// A feasible solution was found but optimality was not proven (node
    /// limit reached with an incumbent).
    Feasible,
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex pivots across all LP relaxations.
    pub lp_iterations: usize,
}

/// An integer-feasible solution to a [`Model`].
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    pub(crate) status: Status,
    pub(crate) stats: SolveStats,
}

impl Solution {
    /// Value of `var` in the solution.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// Value of `var` rounded to the nearest integer — use for integer and
    /// binary variables.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn int_value(&self, var: Var) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// Objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Termination status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Search statistics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// All variable values, indexed by [`Var::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Independently re-checks this solution against `model`: variable
    /// bounds, integrality of integer variables, and every constraint
    /// within `tol`.
    ///
    /// This is the safety net guarding against floating-point drift inside
    /// the simplex; [`Model::solve`] runs it automatically on the incumbent.
    ///
    /// # Errors
    ///
    /// [`SolveError::VerificationFailed`] naming the first violated bound,
    /// integrality condition or constraint and by how much it is violated.
    pub fn verify(&self, model: &Model, tol: f64) -> Result<(), SolveError> {
        let check = |site, amount: f64| {
            // NaN compares false against `tol`: count it as infinitely far
            // out so a broken value can never pass.
            let amount = if amount.is_nan() {
                f64::INFINITY
            } else {
                amount
            };
            if amount > tol {
                return Err(SolveError::VerificationFailed {
                    site,
                    violation: amount,
                });
            }
            Ok(())
        };
        for (j, vd) in model.vars.iter().enumerate() {
            let v = self.values[j];
            check(Violation::Bounds(Var(j)), (vd.lb - v).max(v - vd.ub))?;
            if matches!(vd.kind, VarKind::Integer | VarKind::Binary) {
                check(Violation::Integrality(Var(j)), (v - v.round()).abs())?;
            }
        }
        for (i, c) in model.constraints.iter().enumerate() {
            let lhs: f64 = c
                .terms
                .iter()
                .map(|&(v, coeff)| coeff * self.values[v.index()])
                .sum();
            let excess = match c.cmp {
                Cmp::Le => lhs - c.rhs,
                Cmp::Ge => c.rhs - lhs,
                Cmp::Eq => (lhs - c.rhs).abs(),
            };
            check(Violation::Constraint(i), excess)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::Cmp;

    fn point(values: Vec<f64>) -> Solution {
        Solution {
            values,
            objective: 0.0,
            status: Status::Optimal,
            stats: SolveStats::default(),
        }
    }

    /// `x` integer in `[0, 5]`, `y` continuous in `[0, 10]`, `x + y <= 3`.
    fn model() -> (Model, Var, Var) {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 5);
        let y = m.num_var("y", 0.0, 10.0);
        m.constraint(m.expr().term(1.0, x).term(1.0, y), Cmp::Le, 3.0);
        (m, x, y)
    }

    #[test]
    fn verify_accepts_feasible_point() {
        let (m, _, _) = model();
        assert_eq!(point(vec![2.0, 0.5]).verify(&m, 1e-6), Ok(()));
    }

    #[test]
    fn verify_names_each_violation_site_with_its_magnitude() {
        let (m, x, y) = model();
        let cases = [
            (vec![0.0, -0.25], Violation::Bounds(y), 0.25),
            (vec![1.5, 0.0], Violation::Integrality(x), 0.5),
            (vec![2.0, 1.75], Violation::Constraint(0), 0.75),
            (vec![f64::NAN, 0.0], Violation::Bounds(x), f64::INFINITY),
        ];
        for (values, want_site, want_by) in cases {
            let err = point(values).verify(&m, 1e-6).unwrap_err();
            // A non-NaN magnitude keeps the error equal to itself.
            assert_eq!(err, err.clone());
            let SolveError::VerificationFailed { site, violation } = err else {
                panic!("expected a verification failure, got {err:?}");
            };
            assert_eq!(site, want_site);
            assert!(
                violation == want_by || (violation - want_by).abs() < 1e-12,
                "{site}: {violation} != {want_by}"
            );
        }
        let err = point(vec![2.0, 1.75]).verify(&m, 1e-6).unwrap_err();
        assert_eq!(
            err.to_string(),
            "incumbent violates constraint 0 by 7.500e-1"
        );
    }
}
