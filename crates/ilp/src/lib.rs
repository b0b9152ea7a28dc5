//! # coremap-ilp
//!
//! A self-contained mixed-integer linear programming (MILP) solver built for
//! the core-map reconstruction ILP of *"Know Your Neighbor"* (DATE 2022,
//! Sec. II-C), and usable as a small general-purpose solver.
//!
//! The paper formulates tile-position recovery as an ILP with integer
//! row/column variables, binary direction-nullifier variables and one-hot /
//! occupancy indicator binaries. Rather than depending on an external solver
//! (CPLEX / CBC), this crate implements the whole stack from scratch:
//!
//! * [`Model`] — a builder-style problem description: bounded continuous,
//!   integer and binary [`Var`]s, linear constraints and a linear
//!   minimization objective.
//! * [`presolve`] — equality merging, bound tightening and constraint
//!   deduplication, mapped transparently back to the original variables.
//! * A sparse **revised simplex** (LU-factorized basis, implicit variable
//!   bounds, Bland's anti-cycling rule) that solves every LP relaxation
//!   cold with a two-phase primal.
//! * **Branch & bound** on fractional integer variables with best-incumbent
//!   pruning, run as one deterministic serial loop
//!   ([`solve`](Model::solve)).
//! * An independent exact feasibility [`verify`](Solution::verify) pass on
//!   the final incumbent, so floating-point drift inside the simplex can
//!   never silently produce an infeasible "solution".
//!
//! ```
//! use coremap_ilp::{Model, Cmp};
//!
//! # fn main() -> Result<(), coremap_ilp::SolveError> {
//! // maximize 5a + 4b  s.t.  6a + 4b <= 24, a + 2b <= 6, a,b >= 0 integer
//! let mut m = Model::new();
//! let a = m.int_var("a", 0, 10);
//! let b = m.int_var("b", 0, 10);
//! m.constraint(m.expr().term(6.0, a).term(4.0, b), Cmp::Le, 24.0);
//! m.constraint(m.expr().term(1.0, a).term(2.0, b), Cmp::Le, 6.0);
//! m.minimize(m.expr().term(-5.0, a).term(-4.0, b));
//! let sol = m.solve()?;
//! assert_eq!(sol.int_value(a), 4);
//! assert_eq!(sol.int_value(b), 0);
//! assert!((sol.objective() + 20.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod error;
mod lu;
mod model;
pub mod presolve;
mod revised;
#[cfg(test)]
mod simplex;
mod solution;
mod sparse;

pub use branch_bound::BbConfig;
pub use error::{SolveError, Violation};
pub use model::{Cmp, ExprBuilder, LinExpr, Model, Var, VarKind};
pub use solution::{Solution, SolveStats, Status};
