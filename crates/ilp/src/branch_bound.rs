//! Branch & bound over the LP relaxations.
//!
//! One serial loop pops nodes in a fixed order — depth-first (most recent
//! child first) until the first incumbent, then best-bound (lowest parent
//! LP bound, deepest, earliest-created) — and solves each node's relaxation
//! cold with the revised primal simplex ([`RevisedEngine::solve_primal`]).
//! Every branching and incumbent decision is a pure function of the model,
//! so the answer and the metrics it records are identical on every run.
//!
//! Child nodes run sparse bound propagation (interval arithmetic plus the
//! one-hot / link-row indicator inference of [`crate::presolve`]) before
//! entering the frontier, so provably-dead subtrees never cost an LP.

use std::collections::{BTreeMap, BTreeSet};

use coremap_obs as obs;

use crate::model::{Model, VarKind};
use crate::presolve::{self, IndicatorStructure, SparseRow};
use crate::revised::{LpOutcome, LpRow, LpStats, RevisedEngine, FEAS_TOL};
use crate::solution::{Solution, SolveStats, Status};
use crate::SolveError;

/// Default Dantzig→Bland anti-cycling switch (simplex pivots per LP solve).
const DEFAULT_BLAND_SWITCH: usize = 2_000;

/// Branch-and-bound configuration.
#[derive(Debug, Clone)]
pub struct BbConfig {
    /// Maximum nodes to explore before giving up.
    pub node_limit: usize,
    /// Simplex pivots per LP solve before Bland's anti-cycling rule
    /// engages. The counter is per solve: a child node never inherits its
    /// parent's pivot count. Exposed for cycling regression tests; leave at
    /// the default otherwise.
    pub bland_switch: usize,
}

impl Default for BbConfig {
    fn default() -> Self {
        Self {
            node_limit: 200_000,
            bland_switch: DEFAULT_BLAND_SWITCH,
        }
    }
}

/// A frontier node.
struct Node {
    seq: u64,
    bounds: Vec<(f64, f64)>,
    /// LP bound of the parent (best-bound ordering, cheap prune).
    parent_bound: f64,
    depth: usize,
}

/// The frontier, indexed both by creation order (depth-first phase) and by
/// `(parent bound, depth, creation order)` (best-bound phase).
#[derive(Default)]
struct Frontier {
    by_seq: BTreeMap<u64, Node>,
    by_bound: BTreeSet<(u64, u64, u64)>,
    next_seq: u64,
}

/// Order-preserving map from `f64` to `u64` (total order, `-inf` first).
fn f64_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn bound_key(n: &Node) -> (u64, u64, u64) {
    // Lowest bound first; deeper first among equal bounds (finishes a dive
    // and finds incumbents sooner); earliest-created breaks remaining ties.
    (f64_key(n.parent_bound), u64::MAX - n.depth as u64, n.seq)
}

impl Frontier {
    fn push(&mut self, bounds: Vec<(f64, f64)>, parent_bound: f64, depth: usize) {
        let node = Node {
            seq: self.next_seq,
            bounds,
            parent_bound,
            depth,
        };
        self.next_seq += 1;
        self.by_bound.insert(bound_key(&node));
        self.by_seq.insert(node.seq, node);
    }

    /// Depth-first (newest node) before the first incumbent, best-bound
    /// after: the dive finds a first incumbent quickly, best-bound then
    /// closes the gap with the fewest node evaluations.
    fn pop(&mut self, have_incumbent: bool) -> Option<Node> {
        let node = if have_incumbent {
            let &(_, _, seq) = self.by_bound.first()?;
            self.by_seq.remove(&seq)?
        } else {
            let (_, node) = self.by_seq.pop_last()?;
            node
        };
        self.by_bound.remove(&bound_key(&node));
        Some(node)
    }
}

/// Solves `model` by LP-based branch & bound.
pub(crate) fn solve(model: &Model, cfg: &BbConfig) -> Result<Solution, SolveError> {
    let n = model.var_count();
    // Dense objective: a fixed summation order for exact incumbent values.
    let mut objective = vec![0.0; n];
    for &(v, c) in &model.objective {
        objective[v.index()] = c;
    }
    let rows: Vec<LpRow> = model
        .constraints
        .iter()
        .map(|c| LpRow {
            coeffs: c.terms.iter().map(|&(v, a)| (v.index(), a)).collect(),
            cmp: c.cmp,
            rhs: c.rhs,
        })
        .collect();
    // Root preprocessing: interval + indicator bound propagation shrinks
    // domains (and can prove infeasibility) before any LP is solved.
    let root_bounds: Vec<(f64, f64)> = presolve::tightened_bounds(model)?;
    let sparse_rows = presolve::model_rows(model);
    let kinds: Vec<VarKind> = model.vars.iter().map(|v| v.kind).collect();
    let structure = IndicatorStructure::detect(&sparse_rows, &kinds, n);
    let mut int_vars: Vec<usize> = (0..n)
        .filter(|&j| matches!(model.vars[j].kind, VarKind::Integer | VarKind::Binary))
        .collect();
    // Branch within the highest-priority class first; stable order keeps
    // determinism.
    int_vars.sort_by_key(|&j| std::cmp::Reverse(model.vars[j].priority));
    let priorities: Vec<i32> = int_vars.iter().map(|&j| model.vars[j].priority).collect();
    let engine = RevisedEngine::from_parts(n, &objective, &rows);

    let mut stats = SolveStats::default();
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    let mut frontier = Frontier::default();
    frontier.push(root_bounds, f64::NEG_INFINITY, 0);

    while let Some(node) = frontier.pop(incumbent.is_some()) {
        if stats.nodes >= cfg.node_limit {
            return match incumbent {
                Some((values, objective)) => {
                    finish(model, values, objective, Status::Feasible, stats)
                }
                None => Err(SolveError::NodeLimit),
            };
        }
        stats.nodes += 1;
        obs::inc("ilp.bb.nodes");

        // Prune on the parent's bound before paying for any LP.
        if let Some((_, inc_obj)) = &incumbent {
            if node.parent_bound >= *inc_obj - 1e-9 {
                obs::inc("ilp.bb.pruned");
                continue;
            }
        }

        let lp = engine.solve_primal(&node.bounds, cfg.bland_switch)?;
        record_lp(&mut stats, &lp.stats);
        let (x, bound) = match lp.outcome {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => return Err(SolveError::Unbounded),
            LpOutcome::Optimal { x, objective, .. } => (x, objective),
        };

        if let Some((_, inc_obj)) = &incumbent {
            if bound >= *inc_obj - 1e-9 {
                obs::inc("ilp.bb.pruned");
                continue;
            }
        }

        match most_fractional(&x, &int_vars, &priorities) {
            None => {
                // Integer feasible: round and recompute the objective
                // exactly over the rounded point (fixed summation order).
                let mut values = x;
                for &j in &int_vars {
                    values[j] = values[j].round();
                }
                let exact: f64 = values.iter().zip(&objective).map(|(v, c)| v * c).sum();
                if incumbent.as_ref().is_none_or(|&(_, inc)| exact < inc) {
                    obs::inc("ilp.bb.incumbents");
                    incumbent = Some((values, exact));
                }
            }
            Some(j) => {
                let floor = x[j].floor();
                let (lb, ub) = node.bounds[j];
                let mut down = node.bounds.clone();
                down[j] = (lb, floor.min(ub));
                let mut up = node.bounds;
                up[j] = ((floor + 1.0).max(lb), ub);
                // Up pushed first so the depth-first phase explores the
                // down branch first.
                for child in [up, down] {
                    if let Some(tightened) = tighten_child(&sparse_rows, &kinds, &structure, child)
                    {
                        frontier.push(tightened, bound, node.depth + 1);
                    }
                }
            }
        }
    }

    match incumbent {
        Some((values, objective)) => finish(model, values, objective, Status::Optimal, stats),
        None => Err(SolveError::Infeasible),
    }
}

/// Node-level presolve: branch-tightened child bounds run interval +
/// indicator propagation; provably infeasible children are dropped before
/// they ever reach the frontier. Returns the tightened bounds.
fn tighten_child(
    rows: &[SparseRow],
    kinds: &[VarKind],
    structure: &IndicatorStructure,
    mut bounds: Vec<(f64, f64)>,
) -> Option<Vec<(f64, f64)>> {
    let fixed_before = presolve::count_fixed(&bounds);
    let mut tightenings = 0u64;
    let res = presolve::tighten(rows, kinds, structure, &mut bounds, &mut tightenings);
    obs::add("ilp.presolve.tightenings", tightenings);
    match res {
        Ok(()) => {
            obs::add(
                "ilp.presolve.vars_fixed",
                presolve::count_fixed(&bounds).saturating_sub(fixed_before) as u64,
            );
            Some(bounds)
        }
        Err(_) => None,
    }
}

/// Folds one LP solve's statistics into the search stats and the metrics
/// registry.
fn record_lp(stats: &mut SolveStats, lp: &LpStats) {
    stats.lp_iterations += lp.pivots;
    obs::add("ilp.simplex.pivots", lp.pivots as u64);
    obs::add("ilp.simplex.refactorizations", lp.refactorizations as u64);
    if lp.bland_engaged {
        obs::inc("ilp.simplex.bland_switches");
    }
}

/// The integer variable to branch on: the most fractional one within the
/// first priority class that has any fractional variable (`int_vars` is
/// sorted by descending priority). `None` when `x` is integer feasible.
fn most_fractional(x: &[f64], int_vars: &[usize], priorities: &[i32]) -> Option<usize> {
    let mut best = None;
    let mut best_score = FEAS_TOL * 10.0;
    let mut class: Option<i32> = None;
    for (i, &j) in int_vars.iter().enumerate() {
        if let Some(c) = class {
            if priorities[i] < c && best.is_some() {
                break;
            }
        }
        let f = x[j] - x[j].floor();
        let score = f.min(1.0 - f);
        if score > best_score {
            best_score = score;
            best = Some(j);
            class = Some(priorities[i]);
        }
    }
    best
}

fn finish(
    model: &Model,
    values: Vec<f64>,
    objective: f64,
    status: Status,
    stats: SolveStats,
) -> Result<Solution, SolveError> {
    let sol = Solution {
        values,
        objective,
        status,
        stats,
    };
    sol.verify(model, 1e-5)?;
    Ok(sol)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::BbConfig;
    use crate::{Cmp, Model, SolveError, Status};

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c, weights 3,4,2, capacity 6 => a + c (17) vs b+c (20)
        let mut m = Model::new();
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        let c = m.bin_var("c");
        m.constraint(
            m.expr().term(3.0, a).term(4.0, b).term(2.0, c),
            Cmp::Le,
            6.0,
        );
        m.minimize(m.expr().term(-10.0, a).term(-13.0, b).term(-7.0, c));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert_eq!(
            (sol.int_value(a), sol.int_value(b), sol.int_value(c)),
            (0, 1, 1)
        );
        assert!((sol.objective() + 20.0).abs() < 1e-6);
    }

    #[test]
    fn pure_feasibility_problem() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 9);
        let y = m.int_var("y", 0, 9);
        m.constraint(m.expr().term(1.0, x).term(1.0, y), Cmp::Eq, 7.0);
        m.constraint(m.expr().term(1.0, x).term(-1.0, y), Cmp::Ge, 2.0);
        let sol = m.solve().unwrap();
        let (xv, yv) = (sol.int_value(x), sol.int_value(y));
        assert_eq!(xv + yv, 7);
        assert!(xv - yv >= 2);
    }

    #[test]
    fn infeasible_integer_model() {
        // 2x == 3 has no integer solution but a fractional one.
        let mut m = Model::new();
        let x = m.int_var("x", 0, 5);
        m.constraint(m.expr().term(2.0, x), Cmp::Eq, 3.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn lp_relaxation_gap_forces_branching() {
        // max x + y s.t. 2x + 2y <= 3, binary => one of them only.
        let mut m = Model::new();
        let x = m.bin_var("x");
        let y = m.bin_var("y");
        m.constraint(m.expr().term(2.0, x).term(2.0, y), Cmp::Le, 3.0);
        m.minimize(m.expr().term(-1.0, x).term(-1.0, y));
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x) + sol.int_value(y), 1);
        assert!(sol.stats().nodes >= 2, "branching should have occurred");
    }

    #[test]
    fn negative_integer_domains() {
        // min x s.t. x >= -7.5, integer in [-10, 0] => x = -7
        let mut m = Model::new();
        let x = m.int_var("x", -10, 0);
        m.constraint(m.expr().term(1.0, x), Cmp::Ge, -7.5);
        m.minimize(m.expr().term(1.0, x));
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x), -7);
    }

    #[test]
    fn assignment_problem_3x3() {
        // Classic assignment: cost matrix, each row/col exactly once.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new();
        let mut x = Vec::new();
        for i in 0..3 {
            let mut row = Vec::new();
            for j in 0..3 {
                row.push(m.bin_var(&format!("x{i}{j}")));
            }
            x.push(row);
        }
        #[allow(clippy::needless_range_loop)] // i indexes rows and columns
        for i in 0..3 {
            m.constraint(m.expr().sum(x[i].iter().copied()), Cmp::Eq, 1.0);
            m.constraint(m.expr().sum((0..3).map(|k| x[k][i])), Cmp::Eq, 1.0);
        }
        let mut obj = m.expr();
        for i in 0..3 {
            for j in 0..3 {
                obj = obj.term(costs[i][j], x[i][j]);
            }
        }
        m.minimize(obj);
        let sol = m.solve().unwrap();
        // Optimal assignment: (0,1)=2, (1,2)... check objective = 2+7+3 = 12
        // vs alternatives; brute force says min is 2 (0,1) + 7 (1,2) + 3 (2,0) = 12.
        assert!((sol.objective() - 12.0).abs() < 1e-6, "{}", sol.objective());
    }

    #[test]
    fn node_limit_trips() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|i| m.bin_var(&format!("b{i}"))).collect();
        // Equality over halves forces deep search with limit 1.
        m.constraint(m.expr().sum(vars.iter().copied()), Cmp::Eq, 6.0);
        m.minimize(m.expr().term(0.5, vars[0]));
        let err = m.solve_with_node_limit(0).unwrap_err();
        assert_eq!(err, SolveError::NodeLimit);
    }

    #[test]
    fn big_m_indicator_pattern() {
        // The paper's nullifier pattern: NE + NW == 1; constraints
        //   cs <= ck + b*NE and b*NW + cs >= ck  must pick a consistent side.
        let b = 100.0;
        let mut m = Model::new();
        let cs = m.int_var("cs", 0, 5);
        let ck = m.int_var("ck", 0, 5);
        let ne = m.bin_var("ne");
        let nw = m.bin_var("nw");
        m.constraint(m.expr().term(1.0, ne).term(1.0, nw), Cmp::Eq, 1.0);
        // cs <= ck + b*NE  (eastbound unless nullified)
        m.constraint(
            m.expr().term(1.0, cs).term(-1.0, ck).term(-b, ne),
            Cmp::Le,
            0.0,
        );
        // cs >= ck - b*NW  (westbound unless nullified)
        m.constraint(
            m.expr().term(1.0, cs).term(-1.0, ck).term(b, nw),
            Cmp::Ge,
            0.0,
        );
        // Pin cs = 4, ck = 1: only the westbound constraint can hold, so the
        // eastbound one must be nullified: NE = 1, NW = 0.
        m.constraint(m.expr().term(1.0, cs), Cmp::Eq, 4.0);
        m.constraint(m.expr().term(1.0, ck), Cmp::Eq, 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(ne), 1);
        assert_eq!(sol.int_value(nw), 0);
    }

    /// A model with enough LP-relaxation gap to force a real tree:
    /// maximize a weighted sum of binaries under two odd-capacity covering
    /// rows (every LP relaxation lands on half-integral vertices).
    fn branching_model(k: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> = (0..2 * k).map(|i| m.bin_var(&format!("b{i}"))).collect();
        let mut obj = m.expr();
        for (i, &v) in vars.iter().enumerate() {
            obj = obj.term(-(1.0 + (i % 3) as f64 * 0.1), v);
        }
        m.minimize(obj);
        let all = vars
            .iter()
            .fold(m.expr(), |e, &v| e.term(2.0, v))
            .constant_free();
        m.constraint(all, Cmp::Le, 2.0 * k as f64 + 1.0);
        let half = vars
            .iter()
            .take(k + 1)
            .fold(m.expr(), |e, &v| e.term(2.0, v))
            .constant_free();
        m.constraint(half, Cmp::Le, k as f64 + 1.0);
        m
    }

    /// The anti-cycling pivot counter resets per LP solve: a tree whose
    /// *total* pivot count crosses the Bland switch must never engage it as
    /// long as each individual node solve stays below the threshold. A
    /// carried-over counter would trip on a later node and record a switch.
    #[test]
    fn bland_counter_resets_per_node_resolve() {
        let reg = std::sync::Arc::new(coremap_obs::Registry::new());
        let total_pivots;
        let nodes;
        {
            let _g = coremap_obs::install(reg.clone());
            let sol = branching_model(5).solve().unwrap();
            nodes = sol.stats().nodes;
            total_pivots = reg.counter_value("ilp.simplex.pivots");
            assert_eq!(reg.counter_value("ilp.simplex.bland_switches"), 0);
        }
        assert!(nodes >= 3, "model must branch ({nodes} nodes)");
        // Re-solve with the switch set between the largest plausible
        // single-solve pivot count and the total. 64 is far above any one
        // solve of this tiny model (each LP has <= 12 columns); the total
        // is far above it.
        let switch = 64;
        assert!(
            total_pivots > switch,
            "total pivots {total_pivots} must exceed the switch {switch}"
        );
        let reg2 = std::sync::Arc::new(coremap_obs::Registry::new());
        {
            let _g = coremap_obs::install(reg2.clone());
            let sol = branching_model(5)
                .solve_with_config(&BbConfig {
                    bland_switch: switch as usize,
                    ..BbConfig::default()
                })
                .unwrap();
            assert_eq!(sol.status(), Status::Optimal);
        }
        assert_eq!(
            reg2.counter_value("ilp.simplex.bland_switches"),
            0,
            "per-solve counter must not accumulate across node re-solves"
        );
    }

    /// Degenerate LP (assignment polytope, massively tied ratio tests) with
    /// Bland engaged from the first pivot still reaches the optimum.
    #[test]
    fn degenerate_model_with_immediate_bland_terminates() {
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new();
        let mut x = Vec::new();
        for i in 0..3 {
            let mut row = Vec::new();
            for j in 0..3 {
                row.push(m.bin_var(&format!("x{i}{j}")));
            }
            x.push(row);
        }
        #[allow(clippy::needless_range_loop)] // i indexes rows and columns
        for i in 0..3 {
            m.constraint(m.expr().sum(x[i].iter().copied()), Cmp::Eq, 1.0);
            m.constraint(m.expr().sum((0..3).map(|k| x[k][i])), Cmp::Eq, 1.0);
        }
        let mut obj = m.expr();
        for i in 0..3 {
            for j in 0..3 {
                obj = obj.term(costs[i][j], x[i][j]);
            }
        }
        m.minimize(obj);
        let sol = m
            .solve_with_config(&BbConfig {
                node_limit: 1_000,
                bland_switch: 0,
            })
            .unwrap();
        assert!((sol.objective() - 12.0).abs() < 1e-6);
    }
}
