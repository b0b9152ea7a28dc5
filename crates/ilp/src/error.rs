//! Solver errors.

use std::fmt;

use crate::Var;

/// Error returned by [`Model::solve`](crate::Model::solve).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective can decrease without bound (only possible for malformed
    /// models, since all variables carry finite bounds).
    Unbounded,
    /// The simplex exceeded its iteration safety limit.
    IterationLimit,
    /// Branch & bound exceeded its node limit before proving optimality.
    NodeLimit,
    /// The final incumbent failed the independent exact feasibility check
    /// ([`Solution::verify`](crate::Solution::verify)) — indicates
    /// numerical breakdown inside the LP solver.
    VerificationFailed {
        /// The first bound, integrality condition or constraint violated.
        site: Violation,
        /// How far past its limit the value lies: positive, and infinite
        /// only for a value that is not a number.
        violation: f64,
    },
}

/// What [`SolveError::VerificationFailed`] found violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The variable lies outside its bounds.
    Bounds(Var),
    /// The integer or binary variable has a fractional value.
    Integrality(Var),
    /// The constraint (index in insertion order) does not hold.
    Constraint(usize),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Bounds(v) => write!(f, "the bounds of {v}"),
            Violation::Integrality(v) => write!(f, "the integrality of {v}"),
            Violation::Constraint(i) => write!(f, "constraint {i}"),
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("model is infeasible"),
            SolveError::Unbounded => f.write_str("model is unbounded"),
            SolveError::IterationLimit => f.write_str("simplex iteration limit exceeded"),
            SolveError::NodeLimit => f.write_str("branch-and-bound node limit exceeded"),
            SolveError::VerificationFailed { site, violation } => {
                write!(f, "incumbent violates {site} by {violation:.3e}")
            }
        }
    }
}

impl std::error::Error for SolveError {}
