//! Problem description: variables, linear expressions, constraints and the
//! objective.

use std::fmt;

use crate::branch_bound;
use crate::{Solution, SolveError};

/// Handle to a decision variable of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Index of the variable within its model.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer restricted to `{0, 1}`.
    Binary,
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub name: String,
    pub kind: VarKind,
    pub lb: f64,
    pub ub: f64,
    pub priority: i32,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
        })
    }
}

/// A linear expression: `sum(coeff_j * var_j)`.
///
/// Terms on the same variable are accumulated. Use [`Model::expr`] /
/// [`ExprBuilder`] to build expressions fluently.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` pairs; variables may repeat and are summed.
    pub terms: Vec<(Var, f64)>,
}

impl LinExpr {
    /// The empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, coeff: f64, var: Var) {
        self.terms.push((var, coeff));
    }

    /// Evaluates the expression on a dense value vector.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * values[v.0]).sum()
    }

    /// Collapses repeated variables, dropping zero coefficients.
    pub fn normalized(&self) -> Vec<(Var, f64)> {
        let mut terms = self.terms.clone();
        terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(Var, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        out
    }
}

/// Fluent builder for [`LinExpr`], produced by [`Model::expr`].
///
/// ```
/// use coremap_ilp::Model;
/// let mut m = Model::new();
/// let x = m.num_var("x", 0.0, 1.0);
/// let e = m.expr().term(2.0, x).constant_free();
/// assert_eq!(e.terms.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExprBuilder {
    expr: LinExpr,
}

impl ExprBuilder {
    /// Adds `coeff * var`.
    pub fn term(mut self, coeff: f64, var: Var) -> Self {
        self.expr.add_term(coeff, var);
        self
    }

    /// Adds `1.0 * var` for each variable.
    pub fn sum<I: IntoIterator<Item = Var>>(mut self, vars: I) -> Self {
        for v in vars {
            self.expr.add_term(1.0, v);
        }
        self
    }

    /// Finishes the expression.
    pub fn constant_free(self) -> LinExpr {
        self.expr
    }
}

impl From<ExprBuilder> for LinExpr {
    fn from(b: ExprBuilder) -> Self {
        b.expr
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        LinExpr {
            terms: vec![(v, 1.0)],
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    pub terms: Vec<(Var, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
    pub name: Option<String>,
}

/// A mixed-integer linear program under construction.
///
/// All variables must carry finite bounds; the reconstruction ILP (and MILP
/// practice generally) always has natural bounds, and finite bounds let the
/// branch-and-bound search terminate unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
    pub(crate) objective: Vec<(Var, f64)>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a continuous variable with inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lb > ub`.
    pub fn num_var(&mut self, name: &str, lb: f64, ub: f64) -> Var {
        self.push_var(name, VarKind::Continuous, lb, ub)
    }

    /// Adds an integer variable with inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`.
    pub fn int_var(&mut self, name: &str, lb: i64, ub: i64) -> Var {
        self.push_var(name, VarKind::Integer, lb as f64, ub as f64)
    }

    /// Adds a binary (`{0,1}`) variable.
    pub fn bin_var(&mut self, name: &str) -> Var {
        self.push_var(name, VarKind::Binary, 0.0, 1.0)
    }

    fn push_var(&mut self, name: &str, kind: VarKind, lb: f64, ub: f64) -> Var {
        assert!(
            lb.is_finite() && ub.is_finite(),
            "variable {name} must have finite bounds"
        );
        assert!(lb <= ub, "variable {name} has empty domain [{lb}, {ub}]");
        let var = Var(self.vars.len());
        self.vars.push(VarData {
            name: name.to_owned(),
            kind,
            lb,
            ub,
            priority: 0,
        });
        var
    }

    /// Sets the branching priority of an integer/binary variable: among the
    /// fractional variables of an LP relaxation, branch-and-bound always
    /// branches within the highest priority class first. Structural
    /// decision variables (e.g. direction indicators) usually deserve
    /// higher priority than encoding variables.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn set_branch_priority(&mut self, var: Var, priority: i32) {
        self.vars[var.0].priority = priority;
    }

    /// Branching priority of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn branch_priority(&self, var: Var) -> i32 {
        self.vars[var.0].priority
    }

    /// Starts a fluent [`ExprBuilder`].
    pub fn expr(&self) -> ExprBuilder {
        ExprBuilder::default()
    }

    /// Adds the constraint `expr cmp rhs`.
    pub fn constraint(&mut self, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) {
        self.named_constraint(None, expr, cmp, rhs);
    }

    /// Adds a named constraint (names appear in debug output only).
    pub fn named_constraint(
        &mut self,
        name: Option<&str>,
        expr: impl Into<LinExpr>,
        cmp: Cmp,
        rhs: f64,
    ) {
        let expr: LinExpr = expr.into();
        self.constraints.push(ConstraintData {
            terms: expr.normalized(),
            cmp,
            rhs,
            name: name.map(str::to_owned),
        });
    }

    /// Sets the linear objective to be minimized (replacing any previous
    /// objective). An empty objective makes the solve a pure feasibility
    /// problem.
    pub fn minimize(&mut self, expr: impl Into<LinExpr>) {
        let expr: LinExpr = expr.into();
        self.objective = expr.normalized();
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Kind of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_kind(&self, var: Var) -> VarKind {
        self.vars[var.0].kind
    }

    /// Inclusive bounds of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_bounds(&self, var: Var) -> (f64, f64) {
        let d = &self.vars[var.0];
        (d.lb, d.ub)
    }

    /// Name of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_name(&self, var: Var) -> &str {
        &self.vars[var.0].name
    }

    /// Writes a human-readable dump of the model (LP-format-like), useful
    /// when debugging infeasible reconstructions. Constraint names given to
    /// [`named_constraint`](Self::named_constraint) appear as row labels.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "minimize:");
        for &(v, c) in &self.objective {
            let _ = write!(out, " {c:+}*{}", self.vars[v.0].name);
        }
        let _ = writeln!(out, "\nsubject to:");
        for (i, con) in self.constraints.iter().enumerate() {
            let label = con.name.clone().unwrap_or_else(|| format!("c{i}"));
            let _ = write!(out, "  {label}:");
            for &(v, a) in &con.terms {
                let _ = write!(out, " {a:+}*{}", self.vars[v.0].name);
            }
            let _ = writeln!(out, " {} {}", con.cmp, con.rhs);
        }
        let _ = writeln!(out, "bounds:");
        for v in &self.vars {
            let kind = match v.kind {
                VarKind::Continuous => "num",
                VarKind::Integer => "int",
                VarKind::Binary => "bin",
            };
            let _ = writeln!(out, "  {} <= {} ({kind}) <= {}", v.lb, v.name, v.ub);
        }
        out
    }

    /// Solves the model with presolve + branch & bound.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] when no assignment satisfies the
    /// constraints, [`SolveError::Unbounded`] when the objective diverges
    /// (impossible with finite bounds unless the model is malformed), and
    /// [`SolveError::IterationLimit`] / [`SolveError::NodeLimit`] when the
    /// internal safety limits trip.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        branch_bound::solve(self, &branch_bound::BbConfig::default())
    }

    /// Solves with an explicit node limit (for ablation benchmarks).
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_with_node_limit(&self, node_limit: usize) -> Result<Solution, SolveError> {
        let cfg = branch_bound::BbConfig {
            node_limit,
            ..Default::default()
        };
        branch_bound::solve(self, &cfg)
    }

    /// Solves with full control over the branch-and-bound configuration:
    /// the node limit and the anti-cycling switch.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_with_config(&self, cfg: &crate::BbConfig) -> Result<Solution, SolveError> {
        branch_bound::solve(self, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_normalization_merges_terms() {
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, 1.0);
        let y = m.num_var("y", 0.0, 1.0);
        let mut e = LinExpr::new();
        e.add_term(1.0, x);
        e.add_term(2.0, y);
        e.add_term(3.0, x);
        e.add_term(-2.0, y);
        let n = e.normalized();
        assert_eq!(n, vec![(x, 4.0)]);
    }

    #[test]
    fn eval_uses_values() {
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        let e: LinExpr = m.expr().term(2.0, x).term(-1.0, y).into();
        assert_eq!(e.eval(&[3.0, 4.0]), 2.0);
    }

    #[test]
    fn var_metadata_accessible() {
        let mut m = Model::new();
        let x = m.int_var("rows", -2, 7);
        assert_eq!(m.var_kind(x), VarKind::Integer);
        assert_eq!(m.var_bounds(x), (-2.0, 7.0));
        assert_eq!(m.var_name(x), "rows");
        assert_eq!(m.var_count(), 1);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn reversed_bounds_panic() {
        let mut m = Model::new();
        let _ = m.int_var("bad", 3, 1);
    }

    #[test]
    fn sum_builder() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..3).map(|i| m.bin_var(&format!("b{i}"))).collect();
        let e: LinExpr = m.expr().sum(vars.iter().copied()).into();
        assert_eq!(e.terms.len(), 3);
        assert!(e.terms.iter().all(|&(_, c)| c == 1.0));
    }

    #[test]
    fn dump_includes_names_and_bounds() {
        let mut m = Model::new();
        let x = m.int_var("rows", 0, 4);
        m.named_constraint(Some("order"), m.expr().term(1.0, x), Cmp::Ge, 1.0);
        m.minimize(m.expr().term(1.0, x));
        let d = m.dump();
        assert!(d.contains("order:"));
        assert!(d.contains("rows"));
        assert!(d.contains("(int)"));
    }

    #[test]
    fn from_var_single_term() {
        let mut m = Model::new();
        let x = m.bin_var("x");
        let e: LinExpr = x.into();
        assert_eq!(e.terms, vec![(x, 1.0)]);
    }
}
