//! Model presolve: equality merging, constraint deduplication.
//!
//! The core-map reconstruction ILP (paper Sec. II-C) contains a large number
//! of *alignment* equalities — every tile observing a vertical ingress on a
//! path shares the source's column variable, every horizontal observer
//! shares the sink's row variable (`C_i = C_s`, `R_j = R_e`). With all-pairs
//! traffic observations these collapse most position variables into a few
//! equivalence classes. [`merge_equalities`] performs that collapse
//! generically: it unions variables linked by two-term equality constraints,
//! intersects their domains, rewrites all other constraints over class
//! representatives and deduplicates the results.

#![allow(clippy::needless_range_loop)] // parallel-array index loops

use std::collections::{BTreeMap, BTreeSet};

use coremap_obs as obs;

use crate::model::{Cmp, Model, VarKind};
use crate::{Solution, SolveError, Var};

/// Result of presolving: a reduced model plus the variable mapping back to
/// the original model.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced model. It may be extended further (e.g. with indicator
    /// variables) before solving.
    pub model: Model,
    map: Vec<Var>,
    orig_vars: usize,
}

impl Presolved {
    /// The reduced-model variable standing in for original variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the original model.
    pub fn mapped(&self, v: Var) -> Var {
        self.map[v.index()]
    }

    /// Lifts a solution of the reduced model back to original-model variable
    /// values (indexed by original [`Var::index`]).
    pub fn lift(&self, sol: &Solution) -> Vec<f64> {
        (0..self.orig_vars)
            .map(|j| sol.value(self.map[j]))
            .collect()
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Keep the smaller index as representative for determinism.
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[drop] = keep;
        }
    }
}

fn stronger(a: VarKind, b: VarKind) -> VarKind {
    use VarKind::*;
    match (a, b) {
        (Binary, _) | (_, Binary) => Binary,
        (Integer, _) | (_, Integer) => Integer,
        _ => Continuous,
    }
}

/// Merges variables linked by `a*x - a*y == 0` equality constraints and
/// deduplicates the remaining constraints.
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] if merging proves the model infeasible
/// (a merged class has an empty domain, or a constraint reduces to a false
/// constant relation).
pub fn merge_equalities(model: &Model) -> Result<Presolved, SolveError> {
    let n = model.var_count();
    let mut uf = UnionFind::new(n);

    let mut is_merge = vec![false; model.constraints.len()];
    for (ci, c) in model.constraints.iter().enumerate() {
        if c.cmp == Cmp::Eq && c.rhs == 0.0 && c.terms.len() == 2 {
            let (v1, a1) = c.terms[0];
            let (v2, a2) = c.terms[1];
            if (a1 + a2).abs() <= f64::EPSILON * (a1.abs() + a2.abs()) && a1 != 0.0 {
                uf.union(v1.index(), v2.index());
                is_merge[ci] = true;
            }
        }
    }

    // Gather classes and merged domains.
    let mut class_of = vec![usize::MAX; n];
    let mut reduced = Model::new();
    let mut rep_var: BTreeMap<usize, Var> = BTreeMap::new();
    // First compute merged bounds/kinds per root.
    let mut merged: BTreeMap<usize, (f64, f64, VarKind, String)> = BTreeMap::new();
    for j in 0..n {
        let root = uf.find(j);
        let d = &model.vars[j];
        let e = merged
            .entry(root)
            .or_insert((d.lb, d.ub, d.kind, d.name.clone()));
        e.0 = e.0.max(d.lb);
        e.1 = e.1.min(d.ub);
        e.2 = stronger(e.2, d.kind);
    }
    // BTreeMap iterates in ascending root order: deterministic as-is.
    for (root, (lb, ub, kind, name)) in merged {
        if lb > ub + 1e-9 {
            return Err(SolveError::Infeasible);
        }
        let ub = ub.max(lb);
        let v = match kind {
            VarKind::Continuous => reduced.num_var(&name, lb, ub),
            VarKind::Integer => reduced.int_var(&name, lb.ceil() as i64, ub.floor() as i64),
            VarKind::Binary => {
                let v = reduced.bin_var(&name);
                if lb > 0.5 {
                    reduced.constraint(crate::LinExpr::from(v), Cmp::Ge, 1.0);
                }
                if ub < 0.5 {
                    reduced.constraint(crate::LinExpr::from(v), Cmp::Le, 0.0);
                }
                v
            }
        };
        rep_var.insert(root, v);
    }
    for j in 0..n {
        class_of[j] = uf.find(j);
    }

    // Rewrite constraints.
    type ConstraintKey = (Vec<(usize, u64)>, u8, u64);
    let mut seen: BTreeSet<ConstraintKey> = BTreeSet::new();
    for (ci, c) in model.constraints.iter().enumerate() {
        if is_merge[ci] {
            continue;
        }
        let mut acc: BTreeMap<usize, f64> = BTreeMap::new();
        for &(v, a) in &c.terms {
            *acc.entry(rep_var[&class_of[v.index()]].index())
                .or_insert(0.0) += a;
        }
        // BTreeMap drains in ascending variable order: already canonical.
        let terms: Vec<(usize, f64)> = acc.into_iter().filter(|&(_, a)| a != 0.0).collect();
        if terms.is_empty() {
            let ok = match c.cmp {
                Cmp::Le => 0.0 <= c.rhs + 1e-9,
                Cmp::Ge => 0.0 >= c.rhs - 1e-9,
                Cmp::Eq => c.rhs.abs() <= 1e-9,
            };
            if !ok {
                return Err(SolveError::Infeasible);
            }
            continue;
        }
        let key = (
            terms
                .iter()
                .map(|&(j, a)| (j, a.to_bits()))
                .collect::<Vec<_>>(),
            match c.cmp {
                Cmp::Le => 0u8,
                Cmp::Ge => 1,
                Cmp::Eq => 2,
            },
            c.rhs.to_bits(),
        );
        if !seen.insert(key) {
            continue;
        }
        let mut expr = crate::LinExpr::new();
        for (j, a) in terms {
            expr.add_term(a, Var(j));
        }
        reduced.constraint(expr, c.cmp, c.rhs);
    }

    // Rewrite the objective.
    let mut obj_acc: BTreeMap<usize, f64> = BTreeMap::new();
    for &(v, a) in &model.objective {
        *obj_acc
            .entry(rep_var[&class_of[v.index()]].index())
            .or_insert(0.0) += a;
    }
    let mut obj = crate::LinExpr::new();
    for (j, a) in obj_acc {
        if a != 0.0 {
            obj.add_term(a, Var(j));
        }
    }
    reduced.minimize(obj);

    let map = (0..n).map(|j| rep_var[&class_of[j]]).collect();
    Ok(Presolved {
        model: reduced,
        map,
        orig_vars: n,
    })
}

/// A sparse constraint row: `(terms, comparison, rhs)`.
pub(crate) type SparseRow = (Vec<(usize, f64)>, Cmp, f64);

/// One round of interval-arithmetic bound propagation over `constraints`,
/// tightening `bounds` in place and counting each tightened bound into
/// `tightenings`. Returns whether anything changed.
///
/// For every constraint `sum a_i x_i (cmp) rhs` and every variable `j`, the
/// activity range of the remaining terms implies a bound on `x_j`; integer
/// variables round inward.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when a domain empties.
fn propagate_bounds(
    constraints: &[SparseRow],
    kinds: &[VarKind],
    bounds: &mut [(f64, f64)],
    tightenings: &mut u64,
) -> Result<bool, SolveError> {
    const TOL: f64 = 1e-9;
    let mut changed = false;
    for (terms, cmp, rhs) in constraints {
        // Pre-compute each term's activity range.
        let ranges: Vec<(f64, f64)> = terms
            .iter()
            .map(|&(j, a)| {
                let (l, u) = bounds[j];
                let (x, y) = (a * l, a * u);
                (x.min(y), x.max(y))
            })
            .collect();
        let total_min: f64 = ranges.iter().map(|r| r.0).sum();
        let total_max: f64 = ranges.iter().map(|r| r.1).sum();
        for (t_idx, &(j, a)) in terms.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let rest_min = total_min - ranges[t_idx].0;
            let rest_max = total_max - ranges[t_idx].1;
            // a * x_j <= rhs - rest_min   (for Le / Eq)
            // a * x_j >= rhs - rest_max   (for Ge / Eq)
            let mut apply = |upper_on_ax: Option<f64>, lower_on_ax: Option<f64>| {
                let (mut l, mut u) = bounds[j];
                if let Some(ub) = upper_on_ax {
                    if a > 0.0 {
                        u = u.min(ub / a);
                    } else {
                        l = l.max(ub / a);
                    }
                }
                if let Some(lb) = lower_on_ax {
                    if a > 0.0 {
                        l = l.max(lb / a);
                    } else {
                        u = u.min(lb / a);
                    }
                }
                if matches!(kinds[j], VarKind::Integer | VarKind::Binary) {
                    l = (l - TOL).ceil();
                    u = (u + TOL).floor();
                }
                if l > bounds[j].0 + TOL || u < bounds[j].1 - TOL {
                    changed = true;
                    *tightenings += 1;
                }
                bounds[j] = (l.max(bounds[j].0), u.min(bounds[j].1));
            };
            match cmp {
                Cmp::Le => apply(Some(rhs - rest_min), None),
                Cmp::Ge => apply(None, Some(rhs - rest_max)),
                Cmp::Eq => apply(Some(rhs - rest_min), Some(rhs - rest_max)),
            }
            if bounds[j].0 > bounds[j].1 + TOL {
                return Err(SolveError::Infeasible);
            }
        }
    }
    Ok(changed)
}

/// Extracts a model's constraints as [`SparseRow`]s keyed by
/// [`Var::index`]. Shared by root bound tightening and the branch-and-bound
/// node presolve.
pub(crate) fn model_rows(model: &Model) -> Vec<SparseRow> {
    model
        .constraints
        .iter()
        .map(|c| {
            (
                c.terms.iter().map(|&(v, a)| (v.index(), a)).collect(),
                c.cmp,
                c.rhs,
            )
        })
        .collect()
}

/// Number of variables whose domain is a single point.
pub(crate) fn count_fixed(bounds: &[(f64, f64)]) -> usize {
    bounds.iter().filter(|&&(l, u)| u - l <= 1e-9).count()
}

/// A link row `sum w_k b_k - c x == 0` tying a target variable to a one-hot
/// group: choosing member `k` forces `x` to its implied value, choosing an
/// unlisted member forces `x = 0`.
#[derive(Debug, Clone)]
struct LinkRow {
    /// `(member, implied target value)`, ascending member index.
    implied: Vec<(usize, f64)>,
    /// Group members absent from the row (implied target value `0`).
    unlisted: Vec<usize>,
    target: usize,
}

/// One-hot groups and link rows detected in a model.
///
/// The reconstruction ILP (paper Sec. II-C) encodes each unknown tile
/// position with a one-hot binary group (`sum b = 1`) plus link rows mapping
/// the selected binary to the integer row/column value. Interval arithmetic
/// alone cannot reason across the selection, but the structure allows strong
/// inference: a member whose implied target value falls outside the target's
/// domain can be fixed to zero, and the target's domain shrinks to the range
/// of surviving alternatives. Detection is a pure function of the model, so
/// the structure can be computed once at the root and reused at every
/// branch-and-bound node.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndicatorStructure {
    /// One-hot groups: ascending member indices.
    groups: Vec<Vec<usize>>,
    links: Vec<LinkRow>,
}

impl IndicatorStructure {
    /// Scans `constraints` for one-hot rows (`sum b == 1`, all-binary unit
    /// coefficients) and link rows (`== 0`, exactly one non-group term).
    pub fn detect(constraints: &[SparseRow], kinds: &[VarKind], n: usize) -> Self {
        let mut group_of = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (terms, cmp, rhs) in constraints {
            if *cmp != Cmp::Eq || *rhs != 1.0 || terms.len() < 2 {
                continue;
            }
            let one_hot = terms.iter().all(|&(j, a)| {
                a == 1.0 && kinds[j] == VarKind::Binary && group_of[j] == usize::MAX
            });
            if !one_hot {
                continue;
            }
            let mut members: Vec<usize> = terms.iter().map(|&(j, _)| j).collect();
            members.sort_unstable();
            for &j in &members {
                group_of[j] = groups.len();
            }
            groups.push(members);
        }
        let mut links = Vec::new();
        for (terms, cmp, rhs) in constraints {
            if *cmp != Cmp::Eq || *rhs != 0.0 || terms.len() < 2 {
                continue;
            }
            let mut group = usize::MAX;
            let mut target: Option<(usize, f64)> = None;
            let mut weights: Vec<(usize, f64)> = Vec::new();
            let mut ok = true;
            for &(j, a) in terms {
                if a == 0.0 {
                    ok = false;
                    break;
                }
                let g = group_of[j];
                if g == usize::MAX {
                    if target.is_some() {
                        ok = false;
                        break;
                    }
                    target = Some((j, a));
                } else {
                    if group == usize::MAX {
                        group = g;
                    }
                    if g != group {
                        ok = false;
                        break;
                    }
                    weights.push((j, a));
                }
            }
            let Some((target, c)) = target else { continue };
            if !ok || weights.is_empty() || group == usize::MAX {
                continue;
            }
            // w_k b_k + c x == 0 picks x = -w_k / c when member k is chosen.
            let mut implied: Vec<(usize, f64)> =
                weights.iter().map(|&(j, w)| (j, -w / c)).collect();
            implied.sort_unstable_by_key(|&(j, _)| j);
            let listed: BTreeSet<usize> = implied.iter().map(|&(j, _)| j).collect();
            let unlisted: Vec<usize> = groups[group]
                .iter()
                .copied()
                .filter(|j| !listed.contains(j))
                .collect();
            links.push(LinkRow {
                implied,
                unlisted,
                target,
            });
        }
        Self { groups, links }
    }

    /// One round of indicator propagation over `bounds`. Returns whether
    /// anything changed; obs-free (the caller owns metric recording).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when a one-hot group empties or a target
    /// domain becomes empty.
    pub fn propagate(
        &self,
        kinds: &[VarKind],
        bounds: &mut [(f64, f64)],
        tightenings: &mut u64,
    ) -> Result<bool, SolveError> {
        const TOL: f64 = 1e-9;
        let mut changed = false;
        for members in &self.groups {
            let mut forced = usize::MAX;
            for &j in members {
                if bounds[j].0 > 0.5 {
                    if forced != usize::MAX {
                        return Err(SolveError::Infeasible);
                    }
                    forced = j;
                }
            }
            if forced != usize::MAX {
                for &j in members {
                    if j != forced && bounds[j].1 > 0.5 {
                        bounds[j].1 = 0.0;
                        changed = true;
                        *tightenings += 1;
                    }
                }
            }
            let alive: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&j| bounds[j].1 > 0.5)
                .collect();
            if alive.is_empty() {
                return Err(SolveError::Infeasible);
            }
            if alive.len() == 1 && bounds[alive[0]].0 < 0.5 {
                bounds[alive[0]].0 = 1.0;
                changed = true;
                *tightenings += 1;
            }
        }
        for link in &self.links {
            let (tl, tu) = bounds[link.target];
            // Kill members whose implied target value cannot be realized.
            for &(j, v) in &link.implied {
                if bounds[j].1 > 0.5 && (v < tl - TOL || v > tu + TOL) {
                    if bounds[j].0 > 0.5 {
                        return Err(SolveError::Infeasible);
                    }
                    bounds[j].1 = 0.0;
                    changed = true;
                    *tightenings += 1;
                }
            }
            if 0.0 < tl - TOL || 0.0 > tu + TOL {
                for &j in &link.unlisted {
                    if bounds[j].1 > 0.5 {
                        if bounds[j].0 > 0.5 {
                            return Err(SolveError::Infeasible);
                        }
                        bounds[j].1 = 0.0;
                        changed = true;
                        *tightenings += 1;
                    }
                }
            }
            // The target is confined to the surviving alternatives' range.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &(j, v) in &link.implied {
                if bounds[j].1 > 0.5 {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if link.unlisted.iter().any(|&j| bounds[j].1 > 0.5) {
                lo = lo.min(0.0);
                hi = hi.max(0.0);
            }
            if lo > hi {
                return Err(SolveError::Infeasible);
            }
            let mut nl = tl.max(lo);
            let mut nu = tu.min(hi);
            if matches!(kinds[link.target], VarKind::Integer | VarKind::Binary) {
                nl = (nl - TOL).ceil();
                nu = (nu + TOL).floor();
            }
            if nl > tl + TOL || nu < tu - TOL {
                changed = true;
                *tightenings += 1;
            }
            bounds[link.target] = (nl.max(tl), nu.min(tu));
            if bounds[link.target].0 > bounds[link.target].1 + TOL {
                return Err(SolveError::Infeasible);
            }
        }
        Ok(changed)
    }
}

/// Runs interval and indicator propagation to a fixpoint (bounded passes),
/// counting tightened bounds into `tightenings` without recording them:
/// the root and every branch-and-bound node record their own totals.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when propagation proves the bounds infeasible.
pub(crate) fn tighten(
    constraints: &[SparseRow],
    kinds: &[VarKind],
    structure: &IndicatorStructure,
    bounds: &mut [(f64, f64)],
    tightenings: &mut u64,
) -> Result<(), SolveError> {
    for _ in 0..16 {
        let a = propagate_bounds(constraints, kinds, bounds, tightenings)?;
        let b = structure.propagate(kinds, bounds, tightenings)?;
        if !a && !b {
            break;
        }
    }
    Ok(())
}

/// Runs bound propagation — interval arithmetic plus one-hot / link-row
/// indicator inference — to a fixpoint (bounded number of passes) over a
/// [`Model`], returning the tightened per-variable bounds. Records
/// `ilp.presolve.tightenings` and `ilp.presolve.vars_fixed`.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when propagation proves the model infeasible.
pub fn tightened_bounds(model: &Model) -> Result<Vec<(f64, f64)>, SolveError> {
    let mut bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lb, v.ub)).collect();
    let kinds: Vec<VarKind> = model.vars.iter().map(|v| v.kind).collect();
    let constraints = model_rows(model);
    let structure = IndicatorStructure::detect(&constraints, &kinds, model.var_count());
    let fixed_before = count_fixed(&bounds);
    let mut tightenings = 0u64;
    let res = tighten(
        &constraints,
        &kinds,
        &structure,
        &mut bounds,
        &mut tightenings,
    );
    obs::add("ilp.presolve.tightenings", tightenings);
    res?;
    obs::add(
        "ilp.presolve.vars_fixed",
        count_fixed(&bounds).saturating_sub(fixed_before) as u64,
    );
    Ok(bounds)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::{Cmp, Model};

    #[test]
    fn merges_chained_equalities() {
        let mut m = Model::new();
        let a = m.int_var("a", 0, 10);
        let b = m.int_var("b", 0, 10);
        let c = m.int_var("c", 2, 8);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        m.constraint(m.expr().term(1.0, b).term(-1.0, c), Cmp::Eq, 0.0);
        m.constraint(m.expr().term(1.0, a), Cmp::Ge, 5.0);
        m.minimize(m.expr().term(1.0, c));
        let p = merge_equalities(&m).unwrap();
        assert_eq!(p.model.var_count(), 1);
        assert_eq!(p.mapped(a), p.mapped(b));
        assert_eq!(p.mapped(b), p.mapped(c));
        // Bounds intersect to [2, 8].
        assert_eq!(p.model.var_bounds(p.mapped(a)), (2.0, 8.0));
        let sol = p.model.solve().unwrap();
        let lifted = p.lift(&sol);
        assert_eq!(lifted, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn scaled_equalities_also_merge() {
        let mut m = Model::new();
        let a = m.int_var("a", 0, 10);
        let b = m.int_var("b", 0, 10);
        m.constraint(m.expr().term(3.0, a).term(-3.0, b), Cmp::Eq, 0.0);
        let p = merge_equalities(&m).unwrap();
        assert_eq!(p.model.var_count(), 1);
    }

    #[test]
    fn unequal_coefficients_do_not_merge() {
        let mut m = Model::new();
        let a = m.int_var("a", 0, 10);
        let b = m.int_var("b", 0, 10);
        m.constraint(m.expr().term(2.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        let p = merge_equalities(&m).unwrap();
        assert_eq!(p.model.var_count(), 2);
        assert_eq!(p.model.constraint_count(), 1);
    }

    #[test]
    fn detects_empty_merged_domain() {
        let mut m = Model::new();
        let a = m.int_var("a", 0, 2);
        let b = m.int_var("b", 5, 9);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        assert_eq!(merge_equalities(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn deduplicates_identical_constraints() {
        let mut m = Model::new();
        let a = m.int_var("a", 0, 10);
        let b = m.int_var("b", 0, 10);
        for _ in 0..5 {
            m.constraint(m.expr().term(1.0, a).term(1.0, b), Cmp::Le, 7.0);
        }
        let p = merge_equalities(&m).unwrap();
        assert_eq!(p.model.constraint_count(), 1);
    }

    #[test]
    fn merged_self_cancelling_constraint_drops() {
        // After merging a == b, constraint a - b <= 0 becomes vacuous.
        let mut m = Model::new();
        let a = m.int_var("a", 0, 10);
        let b = m.int_var("b", 0, 10);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Le, 0.0);
        let p = merge_equalities(&m).unwrap();
        assert_eq!(p.model.constraint_count(), 0);
    }

    #[test]
    fn merged_false_constant_is_infeasible() {
        // a == b merged, then a - b >= 1 is impossible.
        let mut m = Model::new();
        let a = m.int_var("a", 0, 10);
        let b = m.int_var("b", 0, 10);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Ge, 1.0);
        assert_eq!(merge_equalities(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn objective_is_rewritten() {
        let mut m = Model::new();
        let a = m.int_var("a", 1, 10);
        let b = m.int_var("b", 0, 10);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        m.minimize(m.expr().term(2.0, a).term(3.0, b));
        let p = merge_equalities(&m).unwrap();
        let sol = p.model.solve().unwrap();
        // min 5 * merged with merged >= 1 => objective 5.
        assert!((sol.objective() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn bound_propagation_tightens_chains() {
        // x <= 4, y >= x + 2, z == y + 1 with wide declared domains.
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        let y = m.int_var("y", 0, 100);
        let z = m.int_var("z", 0, 100);
        m.constraint(m.expr().term(1.0, x), Cmp::Le, 4.0);
        m.constraint(m.expr().term(1.0, y).term(-1.0, x), Cmp::Ge, 2.0);
        m.constraint(m.expr().term(1.0, z).term(-1.0, y), Cmp::Eq, 1.0);
        let b = tightened_bounds(&m).unwrap();
        assert_eq!(b[x.index()], (0.0, 4.0));
        assert_eq!(b[y.index()].0, 2.0);
        // z = y + 1 and y <= 100 keeps z's upper at 100; its lower tightens.
        assert_eq!(b[z.index()].0, 3.0);
    }

    #[test]
    fn bound_propagation_detects_infeasibility() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 3);
        m.constraint(m.expr().term(1.0, x), Cmp::Ge, 7.0);
        assert_eq!(tightened_bounds(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn bound_propagation_rounds_integer_bounds_inward() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 9);
        // 2x <= 7 -> x <= 3 for integers.
        m.constraint(m.expr().term(2.0, x), Cmp::Le, 7.0);
        let b = tightened_bounds(&m).unwrap();
        assert_eq!(b[x.index()], (0.0, 3.0));
    }

    #[test]
    fn link_row_prunes_one_hot_members_outside_target_domain() {
        // One-hot {b0, b1, b2}; x = 2 b0 + 5 b1 + 9 b2 with x in [4, 8].
        // Values 2 and 9 are unreachable, so b0 and b2 die, b1 is forced,
        // and x collapses to 5. Plain interval arithmetic cannot see this.
        let mut m = Model::new();
        let b0 = m.bin_var("b0");
        let b1 = m.bin_var("b1");
        let b2 = m.bin_var("b2");
        let x = m.int_var("x", 4, 8);
        m.constraint(
            m.expr().term(1.0, b0).term(1.0, b1).term(1.0, b2),
            Cmp::Eq,
            1.0,
        );
        m.constraint(
            m.expr()
                .term(1.0, x)
                .term(-2.0, b0)
                .term(-5.0, b1)
                .term(-9.0, b2),
            Cmp::Eq,
            0.0,
        );
        let b = tightened_bounds(&m).unwrap();
        assert_eq!(b[b0.index()], (0.0, 0.0));
        assert_eq!(b[b1.index()], (1.0, 1.0));
        assert_eq!(b[b2.index()], (0.0, 0.0));
        assert_eq!(b[x.index()], (5.0, 5.0));
    }

    #[test]
    fn link_row_kills_unlisted_members_when_zero_unreachable() {
        // b2 is in the group but absent from the link row: choosing it means
        // x = 0, impossible with x in [3, 4], so b2 must be 0.
        let mut m = Model::new();
        let b0 = m.bin_var("b0");
        let b1 = m.bin_var("b1");
        let b2 = m.bin_var("b2");
        let x = m.int_var("x", 3, 4);
        m.constraint(
            m.expr().term(1.0, b0).term(1.0, b1).term(1.0, b2),
            Cmp::Eq,
            1.0,
        );
        m.constraint(
            m.expr().term(1.0, x).term(-3.0, b0).term(-4.0, b1),
            Cmp::Eq,
            0.0,
        );
        let b = tightened_bounds(&m).unwrap();
        assert_eq!(b[b2.index()], (0.0, 0.0));
        assert_eq!(b[b0.index()], (0.0, 1.0));
        assert_eq!(b[b1.index()], (0.0, 1.0));
    }

    #[test]
    fn one_hot_with_two_forced_members_is_infeasible() {
        let mut m = Model::new();
        let b0 = m.bin_var("b0");
        let b1 = m.bin_var("b1");
        let b2 = m.bin_var("b2");
        m.constraint(
            m.expr().term(1.0, b0).term(1.0, b1).term(1.0, b2),
            Cmp::Eq,
            1.0,
        );
        m.constraint(m.expr().term(1.0, b0), Cmp::Ge, 1.0);
        m.constraint(m.expr().term(1.0, b1), Cmp::Ge, 1.0);
        assert_eq!(tightened_bounds(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn solve_equivalence_with_and_without_presolve() {
        let mut m = Model::new();
        let a = m.int_var("a", 0, 6);
        let b = m.int_var("b", 0, 6);
        let c = m.int_var("c", 0, 6);
        m.constraint(m.expr().term(1.0, a).term(-1.0, b), Cmp::Eq, 0.0);
        m.constraint(m.expr().term(1.0, b).term(2.0, c), Cmp::Ge, 7.0);
        m.minimize(m.expr().term(1.0, a).term(1.0, c));
        let direct = m.solve().unwrap();
        let p = merge_equalities(&m).unwrap();
        let reduced = p.model.solve().unwrap();
        assert!((direct.objective() - reduced.objective()).abs() < 1e-6);
    }
}
