//! Bounded-variable revised simplex over the sparse column store.
//!
//! This is the LP engine behind branch & bound: every node's relaxation is
//! a cold two-phase primal solve ([`RevisedEngine::solve_primal`]). The
//! dense tableau in [`crate::simplex`] is kept only as the reference the
//! differential test below compares against. Differences that matter for
//! speed on the reconstruction ILP:
//!
//! * **Bounds are handled implicitly.** A nonbasic variable may sit at its
//!   lower *or* upper bound; the dense solver instead materializes every
//!   finite upper bound as an extra `<=` row, which roughly doubles its row
//!   count on an all-binary model.
//! * **The basis is LU-factorized** ([`crate::lu`]) and patched with
//!   product-form eta updates; each iteration costs two sparse triangular
//!   solves plus a sparse pricing pass instead of an `m × n` tableau
//!   update.
//!
//! Anti-cycling follows the dense engine's design: Dantzig pricing until a
//! per-solve pivot counter crosses the caller's Bland switch threshold,
//! then Bland's rule. The counter spans both phases of one LP solve and is
//! *reset for every solve*, so a B&B child can never inherit a stale
//! cycling flag from its parent's solve (see the regression tests in
//! `branch_bound`).
//!
//! Determinism: every scan runs in ascending index order with explicit
//! tie-breaks and the summation order of every dot product is fixed by the
//! column store, so a solve is a pure function of `(problem, bounds)`. No
//! wall-clock, no hashing, no randomness.

use crate::lu::Factorization;
#[cfg(test)]
use crate::simplex::LpProblem;
use crate::simplex::{LpOutcome, LpRow, FEAS_TOL};
use crate::sparse::ColMatrix;
use crate::{Cmp, SolveError};

const PIVOT_TOL: f64 = 1e-9;
const DJ_TOL: f64 = 1e-9;
const RATIO_EPS: f64 = 1e-10;

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// In the basis; value tracked in `xb`.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// Per-solve statistics, returned to the caller, which records them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LpStats {
    /// Simplex iterations (basis changes and bound flips).
    pub pivots: usize,
    /// Basis (re)factorizations, including the initial one.
    pub refactorizations: usize,
    /// Whether the Dantzig→Bland anti-cycling switch engaged.
    pub bland_engaged: bool,
}

/// Outcome of a revised-simplex solve.
#[derive(Debug, Clone)]
pub(crate) struct RevisedOutcome {
    /// Optimal / infeasible / unbounded, with structural values on success.
    pub outcome: LpOutcome,
    /// Solve statistics.
    pub stats: LpStats,
}

/// The immutable part of an LP shared across branch-and-bound nodes: the
/// sparse matrix (structural + slack + artificial columns), costs and
/// right-hand sides. Only variable bounds change per node; they are passed
/// to each solve.
#[derive(Debug)]
pub(crate) struct RevisedEngine {
    m: usize,
    n: usize,
    /// `n` structural + `m` slack + `m` artificial columns.
    ncols: usize,
    cols: ColMatrix,
    /// Phase-2 cost (structural entries only; slacks/artificials are 0).
    cost: Vec<f64>,
    rhs: Vec<f64>,
    /// Slack bounds by row: `Le → [0, ∞)`, `Ge → (−∞, 0]`, `Eq → [0, 0]`.
    slack_bounds: Vec<(f64, f64)>,
}

impl RevisedEngine {
    /// Builds the engine from an [`LpProblem`]'s structure. The problem's
    /// `bounds` field is ignored; bounds are supplied per solve.
    #[cfg(test)]
    pub fn new(p: &LpProblem) -> Self {
        Self::from_parts(p.n, &p.objective, &p.rows)
    }

    /// Builds from raw parts: structural count, dense objective, rows.
    pub fn from_parts(n: usize, objective: &[f64], rows: &[LpRow]) -> Self {
        let m = rows.len();
        let ncols = n + 2 * m;
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        let mut rhs = Vec::with_capacity(m);
        let mut slack_bounds = Vec::with_capacity(m);
        for (i, row) in rows.iter().enumerate() {
            for &(j, a) in &row.coeffs {
                if a != 0.0 {
                    columns[j].push((i, a));
                }
            }
            rhs.push(row.rhs);
            // Row reads `a·x + s = rhs`, so `s = rhs − a·x`.
            slack_bounds.push(match row.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            });
            columns[n + i].push((i, 1.0));
            // One phase-1 artificial per row, unit coefficient.
            columns[n + m + i].push((i, 1.0));
        }
        let mut cost = vec![0.0; ncols];
        cost[..n].copy_from_slice(&objective[..n]);
        Self {
            m,
            n,
            ncols,
            cols: ColMatrix::from_columns(m, &columns),
            cost,
            rhs,
            slack_bounds,
        }
    }

    /// Per-solve bound arrays over all columns. Artificials are pinned to
    /// `[0, 0]`; the cold solve relaxes the ones it needs for phase 1.
    fn column_bounds(&self, bounds: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
        let mut lower = vec![0.0; self.ncols];
        let mut upper = vec![0.0; self.ncols];
        for j in 0..self.n {
            lower[j] = bounds[j].0;
            upper[j] = bounds[j].1;
        }
        for i in 0..self.m {
            lower[self.n + i] = self.slack_bounds[i].0;
            upper[self.n + i] = self.slack_bounds[i].1;
        }
        (lower, upper)
    }

    /// Cold solve: two-phase primal simplex from the all-slack basis.
    ///
    /// # Errors
    ///
    /// [`SolveError::IterationLimit`] on the pivot safety limit or
    /// numerical breakdown (singular refactorization).
    pub fn solve_primal(
        &self,
        bounds: &[(f64, f64)],
        bland_switch: usize,
    ) -> Result<RevisedOutcome, SolveError> {
        let mut stats = LpStats::default();
        if self.m == 0 {
            return Ok(self.trivial_solution(bounds, stats));
        }
        let (mut lower, mut upper) = self.column_bounds(bounds);
        let mut status = vec![ColStatus::AtLower; self.ncols];
        for j in 0..self.n {
            if self.cost[j] < 0.0 && lower[j] < upper[j] {
                status[j] = ColStatus::AtUpper;
            }
        }

        // Initial point: structurals at their chosen bound; each row gets
        // its slack basic when the implied value fits the slack bounds, and
        // a phase-1 artificial otherwise.
        let mut act = self.rhs.clone();
        for j in 0..self.n {
            let v = nonbasic_value(status[j], lower[j], upper[j]);
            self.cols.col_axpy(j, -v, &mut act);
        }
        let mut basic = Vec::with_capacity(self.m);
        let mut xb = Vec::with_capacity(self.m);
        let mut phase1_cost: Option<Vec<f64>> = None;
        for i in 0..self.m {
            let s = act[i];
            let (slb, sub) = self.slack_bounds[i];
            let art = self.n + self.m + i;
            if s >= slb - FEAS_TOL && s <= sub + FEAS_TOL {
                basic.push(self.n + i);
                status[self.n + i] = ColStatus::Basic;
                xb.push(s);
            } else {
                let p1 = phase1_cost.get_or_insert_with(|| vec![0.0; self.ncols]);
                if s < slb {
                    // Slack clamps to its (finite) lower bound; the
                    // artificial absorbs the negative residual.
                    status[self.n + i] = ColStatus::AtLower;
                    lower[art] = f64::NEG_INFINITY;
                    p1[art] = -1.0;
                    xb.push(s - slb);
                } else {
                    status[self.n + i] = ColStatus::AtUpper;
                    upper[art] = f64::INFINITY;
                    p1[art] = 1.0;
                    xb.push(s - sub);
                }
                basic.push(art);
                status[art] = ColStatus::Basic;
            }
        }

        let mut st = SolveState {
            eng: self,
            lower,
            upper,
            basic,
            status,
            xb,
            fact: Factorization::identity(self.m),
            stats: LpStats {
                refactorizations: 1,
                ..LpStats::default()
            },
        };
        let iter_limit = self.iter_limit();

        // Phase 1: drive the artificial residuals to zero.
        if let Some(p1) = phase1_cost {
            match st.run_primal(&p1, bland_switch, iter_limit)? {
                PhaseEnd::Unbounded => {
                    // Phase-1 objective is bounded below by 0; an unbounded
                    // ray here means numerical breakdown.
                    return Err(SolveError::IterationLimit);
                }
                PhaseEnd::Optimal => {}
            }
            let infeas: f64 = (0..self.m)
                .map(|i| {
                    let art = self.n + self.m + i;
                    match st.status[art] {
                        ColStatus::Basic => {
                            let slot = st.basic.iter().position(|&c| c == art);
                            slot.map_or(0.0, |s| st.xb[s].abs())
                        }
                        _ => 0.0,
                    }
                })
                .sum();
            if infeas > 1e-6 {
                stats = st.stats;
                return Ok(RevisedOutcome {
                    outcome: LpOutcome::Infeasible,
                    stats,
                });
            }
            // Pin every artificial back to [0, 0] for phase 2.
            for i in 0..self.m {
                let art = self.n + self.m + i;
                st.lower[art] = 0.0;
                st.upper[art] = 0.0;
            }
        }

        // Phase 2: the true objective, continuing the per-solve pivot
        // counter so the anti-cycling switch never resets mid-solve.
        let cost = self.cost.clone();
        match st.run_primal(&cost, bland_switch, iter_limit)? {
            PhaseEnd::Unbounded => Ok(RevisedOutcome {
                outcome: LpOutcome::Unbounded,
                stats: st.stats,
            }),
            PhaseEnd::Optimal => Ok(st.extract()),
        }
    }

    fn iter_limit(&self) -> usize {
        200 * (self.m + self.ncols) + 10_000
    }

    fn gather_basis_columns(&self, basic: &[usize]) -> Vec<Vec<(usize, f64)>> {
        basic
            .iter()
            .map(|&j| {
                let (rows, vals) = self.cols.col(j);
                rows.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect()
    }

    /// `m == 0`: optimum is each variable at its objective-preferred bound.
    fn trivial_solution(&self, bounds: &[(f64, f64)], stats: LpStats) -> RevisedOutcome {
        let x: Vec<f64> = (0..self.n)
            .map(|j| {
                if self.cost[j] < 0.0 {
                    bounds[j].1
                } else {
                    bounds[j].0
                }
            })
            .collect();
        let objective = x.iter().zip(&self.cost).map(|(a, b)| a * b).sum();
        RevisedOutcome {
            outcome: LpOutcome::Optimal {
                x,
                objective,
                iterations: 0,
            },
            stats,
        }
    }
}

fn nonbasic_value(status: ColStatus, lower: f64, upper: f64) -> f64 {
    match status {
        ColStatus::AtLower => {
            debug_assert!(lower.is_finite());
            lower
        }
        ColStatus::AtUpper => {
            debug_assert!(upper.is_finite());
            upper
        }
        ColStatus::Basic => 0.0,
    }
}

enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Mutable solver state threaded through the primal iteration loop.
struct SolveState<'a> {
    eng: &'a RevisedEngine,
    lower: Vec<f64>,
    upper: Vec<f64>,
    basic: Vec<usize>,
    status: Vec<ColStatus>,
    /// Values of the basic columns, by slot.
    xb: Vec<f64>,
    fact: Factorization,
    stats: LpStats,
}

impl SolveState<'_> {
    fn refactor(&mut self) -> Result<(), SolveError> {
        let cols = self.eng.gather_basis_columns(&self.basic);
        self.fact = Factorization::factor(&cols).map_err(|_| SolveError::IterationLimit)?;
        self.stats.refactorizations += 1;
        self.recompute_xb();
        Ok(())
    }

    /// `x_B = B⁻¹ (rhs − Σ_nonbasic A_j x_j)`; also resets accumulated
    /// floating-point drift after each refactorization.
    fn recompute_xb(&mut self) {
        let mut b = self.eng.rhs.clone();
        for j in 0..self.eng.ncols {
            if self.status[j] != ColStatus::Basic {
                let v = nonbasic_value(self.status[j], self.lower[j], self.upper[j]);
                self.eng.cols.col_axpy(j, -v, &mut b);
            }
        }
        let mut xb = Vec::new();
        self.fact.ftran(&b, &mut xb);
        self.xb = xb;
    }

    fn c_basic(&self, cost: &[f64]) -> Vec<f64> {
        self.basic.iter().map(|&j| cost[j]).collect()
    }

    /// Primal simplex iterations until optimality or an unbounded ray.
    fn run_primal(
        &mut self,
        cost: &[f64],
        bland_switch: usize,
        iter_limit: usize,
    ) -> Result<PhaseEnd, SolveError> {
        let m = self.eng.m;
        let mut y = Vec::new();
        let mut w = Vec::new();
        let mut col_dense = vec![0.0; m];
        loop {
            if self.stats.pivots >= iter_limit {
                return Err(SolveError::IterationLimit);
            }
            let bland = self.stats.pivots > bland_switch;
            if bland {
                self.stats.bland_engaged = true;
            }

            // Pricing: d_j = c_j − y·A_j over nonbasic, non-fixed columns.
            let cb = self.c_basic(cost);
            self.fact.btran(&cb, &mut y);
            let mut enter = None;
            let mut best_viol = DJ_TOL;
            for (j, &cj) in cost.iter().enumerate().take(self.eng.ncols) {
                if self.status[j] == ColStatus::Basic || self.lower[j] >= self.upper[j] {
                    continue;
                }
                let d = cj - self.eng.cols.col_dot(j, &y);
                let viol = match self.status[j] {
                    ColStatus::AtLower => -d,
                    ColStatus::AtUpper => d,
                    ColStatus::Basic => unreachable!(),
                };
                if viol > best_viol {
                    enter = Some(j);
                    if bland {
                        break; // Bland: first eligible index.
                    }
                    best_viol = viol;
                }
            }
            let Some(q) = enter else {
                return Ok(PhaseEnd::Optimal);
            };
            let dir = match self.status[q] {
                ColStatus::AtLower => 1.0,
                _ => -1.0,
            };

            // Direction through the basis.
            col_dense.iter_mut().for_each(|v| *v = 0.0);
            self.eng.cols.col_axpy(q, 1.0, &mut col_dense);
            self.fact.ftran(&col_dense, &mut w);

            // Ratio test: entering's own range vs basic variables hitting a
            // bound. Ties prefer the bound flip, then (Dantzig) the larger
            // |w_i| for stability, (Bland) the smaller basic column index.
            let mut best_t = self.upper[q] - self.lower[q];
            let mut leave: Option<usize> = None;
            for (i, &wi) in w.iter().enumerate() {
                let rate = -dir * wi;
                let limit = if rate > PIVOT_TOL {
                    (self.upper[self.basic[i]] - self.xb[i]) / rate
                } else if rate < -PIVOT_TOL {
                    (self.lower[self.basic[i]] - self.xb[i]) / rate
                } else {
                    continue;
                };
                if !limit.is_finite() {
                    continue;
                }
                let limit = limit.max(0.0);
                if limit < best_t - RATIO_EPS {
                    best_t = limit;
                    leave = Some(i);
                } else if (limit - best_t).abs() <= RATIO_EPS {
                    if let Some(l) = leave {
                        let take = if bland {
                            self.basic[i] < self.basic[l]
                        } else {
                            let (wi_m, wl_m) = (w[i].abs(), w[l].abs());
                            wi_m > wl_m + RATIO_EPS
                                || ((wi_m - wl_m).abs() <= RATIO_EPS
                                    && self.basic[i] < self.basic[l])
                        };
                        if take {
                            leave = Some(i);
                        }
                    }
                }
            }
            if !best_t.is_finite() {
                return Ok(PhaseEnd::Unbounded);
            }

            // Apply the step.
            for (i, &wi) in w.iter().enumerate() {
                if wi != 0.0 {
                    self.xb[i] += -dir * wi * best_t;
                }
            }
            match leave {
                None => {
                    // Bound flip: no basis change, no eta growth.
                    self.status[q] = match self.status[q] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        _ => ColStatus::AtLower,
                    };
                }
                Some(r) => {
                    let entering_value =
                        nonbasic_value(self.status[q], self.lower[q], self.upper[q]) + dir * best_t;
                    let leaving = self.basic[r];
                    self.status[leaving] = if -dir * w[r] > 0.0 {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    };
                    self.basic[r] = q;
                    self.status[q] = ColStatus::Basic;
                    self.xb[r] = entering_value;
                    if self.fact.update(r, &w).is_err() {
                        self.refactor()?;
                    }
                }
            }
            self.stats.pivots += 1;
        }
    }

    /// Builds the optimal outcome: structural values and objective.
    fn extract(self) -> RevisedOutcome {
        let eng = self.eng;
        let mut values = vec![0.0; eng.ncols];
        for (j, v) in values.iter_mut().enumerate() {
            if self.status[j] != ColStatus::Basic {
                *v = nonbasic_value(self.status[j], self.lower[j], self.upper[j]);
            }
        }
        for (i, &j) in self.basic.iter().enumerate() {
            values[j] = self.xb[i];
        }
        let x: Vec<f64> = values[..eng.n].to_vec();
        let objective: f64 = x.iter().zip(&eng.cost[..eng.n]).map(|(a, b)| a * b).sum();
        RevisedOutcome {
            outcome: LpOutcome::Optimal {
                x,
                objective,
                iterations: self.stats.pivots,
            },
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::simplex::solve_lp;

    const BLAND: usize = 2_000;

    fn lp(n: usize, objective: Vec<f64>, rows: Vec<LpRow>, bounds: Vec<(f64, f64)>) -> LpProblem {
        LpProblem {
            n,
            objective,
            rows,
            bounds,
        }
    }

    fn solve_cold(p: &LpProblem) -> RevisedOutcome {
        RevisedEngine::new(p)
            .solve_primal(&p.bounds, BLAND)
            .unwrap()
    }

    fn optimal(p: &LpProblem) -> (Vec<f64>, f64) {
        match solve_cold(p).outcome {
            LpOutcome::Optimal { x, objective, .. } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_2d_lp() {
        let p = lp(
            2,
            vec![-1.0, -1.0],
            vec![LpRow {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                cmp: Cmp::Le,
                rhs: 4.0,
            }],
            vec![(0.0, 3.0), (0.0, 3.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((obj + 4.0).abs() < 1e-6);
        assert!((x[0] + x[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn ge_and_eq_constraints() {
        let p = lp(
            2,
            vec![1.0, 1.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Ge,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, -1.0)],
                    cmp: Cmp::Eq,
                    rhs: 1.0,
                },
            ],
            vec![(0.0, 10.0), (0.0, 10.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((obj - 2.0).abs() < 1e-6, "obj={obj}");
        assert!((x[0] - 1.5).abs() < 1e-6);
        assert!((x[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let p = lp(
            1,
            vec![0.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0)],
                    cmp: Cmp::Ge,
                    rhs: 5.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0)],
                    cmp: Cmp::Le,
                    rhs: 3.0,
                },
            ],
            vec![(0.0, 10.0)],
        );
        assert!(matches!(solve_cold(&p).outcome, LpOutcome::Infeasible));
    }

    #[test]
    fn negative_bounds_and_fixed_vars() {
        // min x with x in [-5, 5], x >= -3  => x = -3; y fixed at 2.
        let p = lp(
            2,
            vec![1.0, 0.0],
            vec![LpRow {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                cmp: Cmp::Ge,
                rhs: -1.0,
            }],
            vec![(-5.0, 5.0), (2.0, 2.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] + 3.0).abs() < 1e-6, "x={x:?}");
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj + 3.0).abs() < 1e-6);
    }

    #[test]
    fn no_constraints_picks_best_bounds() {
        let p = lp(2, vec![1.0, -1.0], vec![], vec![(1.0, 4.0), (2.0, 6.0)]);
        let (x, obj) = optimal(&p);
        assert_eq!(x, vec![1.0, 6.0]);
        assert!((obj + 5.0).abs() < 1e-9);
    }

    #[test]
    fn equality_only_and_redundant_rows() {
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Eq,
                    rhs: 3.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, -1.0)],
                    cmp: Cmp::Eq,
                    rhs: 1.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Eq,
                    rhs: 3.0,
                },
            ],
            vec![(0.0, 10.0), (0.0, 10.0)],
        );
        let (x, _) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    /// Beale's cycling example must terminate and reach the optimum.
    #[test]
    fn beale_terminates_at_optimum() {
        let p = lp(
            4,
            vec![-0.75, 150.0, -0.02, 6.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    cmp: Cmp::Le,
                    rhs: 0.0,
                },
                LpRow {
                    coeffs: vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    cmp: Cmp::Le,
                    rhs: 0.0,
                },
                LpRow {
                    coeffs: vec![(2, 1.0)],
                    cmp: Cmp::Le,
                    rhs: 1.0,
                },
            ],
            vec![(0.0, 1e4); 4],
        );
        let (x, obj) = optimal(&p);
        assert!((obj + 0.05).abs() < 1e-6, "obj={obj}");
        assert!((x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bland_from_first_pivot_still_optimal() {
        let p = lp(
            2,
            vec![1.0, 1.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Ge,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, -1.0)],
                    cmp: Cmp::Eq,
                    rhs: 1.0,
                },
            ],
            vec![(0.0, 10.0), (0.0, 10.0)],
        );
        let eng = RevisedEngine::new(&p);
        let with_dantzig = eng.solve_primal(&p.bounds, BLAND).unwrap();
        let with_bland = eng.solve_primal(&p.bounds, 0).unwrap();
        let (LpOutcome::Optimal { objective: a, .. }, LpOutcome::Optimal { objective: b, .. }) =
            (with_dantzig.outcome, with_bland.outcome)
        else {
            panic!("expected optimal outcomes");
        };
        assert!((a - b).abs() < 1e-6);
        assert!(with_bland.stats.bland_engaged);
    }

    /// Differential fuzz against the dense tableau engine on random LPs.
    #[test]
    fn matches_dense_engine_on_random_lps() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // xorshift64*; deterministic, no external RNG dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        let mut int_in = |lo: i64, hi: i64| lo + (next() % (hi - lo + 1) as u64) as i64;
        for case in 0..400 {
            let n = int_in(1, 5) as usize;
            let n_rows = int_in(1, 4) as usize;
            let objective: Vec<f64> = (0..n).map(|_| int_in(-5, 5) as f64).collect();
            let rows: Vec<LpRow> = (0..n_rows)
                .map(|_| LpRow {
                    coeffs: (0..n)
                        .filter_map(|j| {
                            let c = int_in(-4, 4) as f64;
                            (c != 0.0).then_some((j, c))
                        })
                        .collect(),
                    cmp: match int_in(0, 2) {
                        0 => Cmp::Le,
                        1 => Cmp::Ge,
                        _ => Cmp::Eq,
                    },
                    rhs: int_in(-6, 10) as f64,
                })
                .collect();
            let bounds: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let lo = int_in(-3, 2) as f64;
                    (lo, lo + int_in(0, 5) as f64)
                })
                .collect();
            let p = lp(n, objective, rows, bounds);
            let dense = solve_lp(&p).unwrap();
            let revised = solve_cold(&p).outcome;
            match (dense, revised) {
                (
                    LpOutcome::Optimal {
                        objective: od,
                        x: xd,
                        ..
                    },
                    LpOutcome::Optimal {
                        objective: or,
                        x: xr,
                        ..
                    },
                ) => {
                    assert!(
                        (od - or).abs() < 1e-6,
                        "case {case}: dense {od} vs revised {or}\n dense x {xd:?} revised x {xr:?}\n {p:?}"
                    );
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (d, r) => panic!("case {case}: dense {d:?} vs revised {r:?}\n {p:?}"),
            }
        }
    }
}
