//! Dense two-phase primal simplex: the reference LP solver of the tests.
//!
//! Branch & bound solves its relaxations with the sparse revised engine
//! (`revised.rs`); this dense tableau with Dantzig pricing and a
//! Bland's-rule anti-cycling fallback is simple enough to trust, and the
//! revised engine's differential test checks its optima against it.
//!
//! Standardization: every variable is shifted so its lower bound becomes 0;
//! finite upper bounds become explicit `<=` rows; rows are scaled to a
//! non-negative right-hand side; `<=` rows get slacks, `>=` rows get a
//! surplus plus an artificial, `==` rows get an artificial. Phase 1
//! minimizes the artificial sum; phase 2 minimizes the true objective with
//! the artificial columns barred from re-entering the basis.

// Dense numeric kernels index several parallel arrays per loop; iterator
// rewrites obscure the math without removing a bounds check.
#![allow(clippy::needless_range_loop)]

use coremap_obs as obs;

use crate::revised::{LpOutcome, LpProblem, LpRow, FEAS_TOL};
use crate::{Cmp, SolveError};

const PIVOT_TOL: f64 = 1e-9;
/// Pivots of Dantzig pricing before switching to Bland's rule.
const BLAND_SWITCH: usize = 2_000;

/// Solves the LP with two-phase primal simplex.
///
/// # Errors
///
/// Returns [`SolveError::IterationLimit`] if the pivot safety limit is
/// exceeded (indicates numerical trouble; the limit scales with problem
/// size).
pub fn solve_lp(p: &LpProblem) -> Result<LpOutcome, SolveError> {
    solve_lp_with_bland_switch(p, BLAND_SWITCH)
}

/// [`solve_lp`] with an explicit Dantzig→Bland switch threshold.
///
/// The threshold compares against the *cumulative* pivot count of the
/// solve: once crossed — in either phase — every later pivot of the same
/// solve uses Bland's rule. Resetting the count at the phase-1→phase-2
/// transition would let a degenerate phase-2 basis revert to Dantzig
/// pricing and cycle, which is exactly the failure mode the guard exists
/// to prevent; `pub(crate)` so the anti-cycling tests can cross a tiny
/// threshold without a 2000-pivot warm-up.
pub(crate) fn solve_lp_with_bland_switch(
    p: &LpProblem,
    bland_switch: usize,
) -> Result<LpOutcome, SolveError> {
    debug_assert_eq!(p.objective.len(), p.n);
    debug_assert_eq!(p.bounds.len(), p.n);

    // --- Standardize -----------------------------------------------------
    // Shift x_j = y_j + lb_j with y_j >= 0; fixed variables (lb == ub)
    // become constants folded into the rhs.
    let mut fixed = vec![None::<f64>; p.n];
    let mut shift = vec![0.0; p.n];
    for (j, &(lb, ub)) in p.bounds.iter().enumerate() {
        debug_assert!(lb.is_finite() && ub.is_finite() && lb <= ub + FEAS_TOL);
        if (ub - lb).abs() <= FEAS_TOL {
            fixed[j] = Some(lb);
        } else {
            shift[j] = lb;
        }
    }

    // Collect standardized rows: (coeffs over free vars, cmp, rhs').
    type StdRow = (Vec<(usize, f64)>, Cmp, f64);
    let mut std_rows: Vec<StdRow> = Vec::new();
    for row in &p.rows {
        let mut rhs = row.rhs;
        let mut coeffs = Vec::with_capacity(row.coeffs.len());
        for &(j, a) in &row.coeffs {
            if let Some(v) = fixed[j] {
                rhs -= a * v;
            } else {
                rhs -= a * shift[j];
                coeffs.push((j, a));
            }
        }
        if coeffs.is_empty() {
            // Constant row: check satisfiability directly.
            let ok = match row.cmp {
                Cmp::Le => 0.0 <= rhs + FEAS_TOL,
                Cmp::Ge => 0.0 >= rhs - FEAS_TOL,
                Cmp::Eq => rhs.abs() <= FEAS_TOL,
            };
            if !ok {
                return Ok(LpOutcome::Infeasible);
            }
            continue;
        }
        std_rows.push((coeffs, row.cmp, rhs));
    }
    // Upper bounds as rows on the shifted variables.
    for (j, &(lb, ub)) in p.bounds.iter().enumerate() {
        if fixed[j].is_none() {
            std_rows.push((vec![(j, 1.0)], Cmp::Le, ub - lb));
        }
    }

    let m = std_rows.len();
    if m == 0 {
        // Only fixed variables / no constraints: optimal at bounds.
        let mut x = vec![0.0; p.n];
        for j in 0..p.n {
            x[j] = fixed[j].unwrap_or(p.bounds[j].0);
            // Minimize: pick the bound minimizing the objective.
            if fixed[j].is_none() && p.objective[j] < 0.0 {
                x[j] = p.bounds[j].1;
            }
        }
        let obj = x.iter().zip(&p.objective).map(|(a, b)| a * b).sum();
        return Ok(LpOutcome::Optimal { x, objective: obj });
    }

    // Column layout: [structural (n)] [slack/surplus (m_s)] [artificial (m_a)]
    // Build the tableau with a non-negative rhs.
    let mut slack_cols = 0usize;
    let mut art_cols = 0usize;
    // First pass: count.
    let mut normed: Vec<StdRow> = Vec::with_capacity(m);
    for (coeffs, cmp, rhs) in std_rows {
        let (coeffs, cmp, rhs) = if rhs < 0.0 {
            let flipped: Vec<(usize, f64)> = coeffs.iter().map(|&(j, a)| (j, -a)).collect();
            let cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
            (flipped, cmp, -rhs)
        } else {
            (coeffs, cmp, rhs)
        };
        match cmp {
            Cmp::Le => slack_cols += 1,
            Cmp::Ge => {
                slack_cols += 1;
                art_cols += 1;
            }
            Cmp::Eq => art_cols += 1,
        }
        normed.push((coeffs, cmp, rhs));
    }

    let n = p.n;
    let total = n + slack_cols + art_cols;
    let width = total + 1; // + rhs column
    let mut tab = vec![0.0f64; m * width];
    let mut basis = vec![usize::MAX; m];
    let art_start = n + slack_cols;

    let mut next_slack = n;
    let mut next_art = art_start;
    for (i, (coeffs, cmp, rhs)) in normed.iter().enumerate() {
        let row = &mut tab[i * width..(i + 1) * width];
        for &(j, a) in coeffs {
            row[j] += a;
        }
        row[total] = *rhs;
        match cmp {
            Cmp::Le => {
                row[next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Cmp::Ge => {
                row[next_slack] = -1.0;
                next_slack += 1;
                row[next_art] = 1.0;
                basis[i] = next_art;
                next_art += 1;
            }
            Cmp::Eq => {
                row[next_art] = 1.0;
                basis[i] = next_art;
                next_art += 1;
            }
        }
    }

    // Phase-2 cost row (true objective on shifted vars) and phase-1 cost row.
    let mut cost2 = vec![0.0f64; width];
    for j in 0..n {
        // Fixed variables have all-zero tableau columns; their (constant)
        // objective contribution is added back during extraction, so their
        // reduced cost must be zero or pricing would falsely report the
        // problem unbounded.
        if fixed[j].is_none() {
            cost2[j] = p.objective[j];
        }
    }
    // Reduced-cost rows are maintained by pivoting alongside the tableau.
    let mut cost1 = vec![0.0f64; width];
    for (i, &b) in basis.iter().enumerate() {
        if b >= art_start {
            // cost1 = sum of artificials => subtract each artificial row to
            // express the cost in terms of nonbasic columns.
            for k in 0..width {
                cost1[k] -= tab[i * width + k];
            }
        }
    }
    // (Artificial columns themselves carry +1 cost; after subtraction their
    // reduced cost is 0, which is consistent with them being basic.)
    for a in art_start..total {
        cost1[a] += 1.0;
    }

    let iter_limit = 200 * (m + total) + 10_000;
    let mut iterations = 0usize;
    let record_pivots = |iterations: usize| {
        obs::add("ilp.simplex.pivots", iterations as u64);
        if iterations > bland_switch {
            obs::inc("ilp.simplex.bland_switches");
        }
    };

    // --- Phase 1 ----------------------------------------------------------
    let allow_all = |_: usize| true;
    run_simplex(
        &mut tab,
        &mut cost1,
        Some(&mut cost2),
        &mut basis,
        m,
        width,
        total,
        allow_all,
        bland_switch,
        iter_limit,
        &mut iterations,
    )?;
    let phase1_obj = -cost1[total];
    if phase1_obj > 1e-6 {
        record_pivots(iterations);
        return Ok(LpOutcome::Infeasible);
    }

    // Drive any artificial variables still basic (at value 0) out of the
    // basis, or drop their rows if redundant.
    for i in 0..m {
        if basis[i] >= art_start {
            let row = i * width;
            if let Some(enter) = (0..art_start).find(|&j| tab[row + j].abs() > PIVOT_TOL) {
                pivot(&mut tab, &mut cost1, Some(&mut cost2), m, width, i, enter);
                basis[i] = enter;
            }
            // else: redundant zero row; harmless to leave (rhs is 0).
        }
    }

    // --- Phase 2 ----------------------------------------------------------
    // `iterations` carries over: the anti-cycling switch must not reset at
    // the phase transition.
    let mut dummy = cost1; // phase-1 row no longer needed
    let outcome = run_simplex(
        &mut tab,
        &mut cost2,
        None,
        &mut basis,
        m,
        width,
        art_start, // artificial columns barred
        |_| true,
        bland_switch,
        iter_limit,
        &mut iterations,
    )?;
    dummy.clear();
    record_pivots(iterations);
    if let Phase::Unbounded = outcome {
        return Ok(LpOutcome::Unbounded);
    }

    // Extract the solution.
    let mut y = vec![0.0f64; total];
    for (i, &b) in basis.iter().enumerate() {
        if b < total {
            y[b] = tab[i * width + total];
        }
    }
    let mut x = vec![0.0f64; n];
    for j in 0..n {
        x[j] = fixed[j].unwrap_or(y[j] + shift[j]);
    }
    let objective = x.iter().zip(&p.objective).map(|(a, b)| a * b).sum();
    Ok(LpOutcome::Optimal { x, objective })
}

enum Phase {
    Optimal,
    Unbounded,
}

/// Runs primal simplex iterations on the tableau until optimality or
/// unboundedness. `col_limit` restricts which columns may enter the basis
/// (used to bar artificials in phase 2). `aux_cost` is a second cost row
/// kept consistent by the same pivots (phase-2 costs during phase 1).
///
/// The Dantzig→Bland anti-cycling decision compares `bland_switch` against
/// the solve-wide `iterations` count, which the caller threads through
/// both phases — a per-call counter would reset at the phase transition
/// and reopen the cycling window on degenerate bases.
#[allow(clippy::too_many_arguments)]
fn run_simplex(
    tab: &mut [f64],
    cost: &mut [f64],
    mut aux_cost: Option<&mut Vec<f64>>,
    basis: &mut [usize],
    m: usize,
    width: usize,
    col_limit: usize,
    allow: impl Fn(usize) -> bool,
    bland_switch: usize,
    iter_limit: usize,
    iterations: &mut usize,
) -> Result<Phase, SolveError> {
    loop {
        if *iterations >= iter_limit {
            return Err(SolveError::IterationLimit);
        }
        // Pricing: Dantzig first, Bland's rule once we suspect cycling.
        let bland = *iterations > bland_switch;
        let mut enter = None;
        if bland {
            for j in 0..col_limit {
                if allow(j) && cost[j] < -PIVOT_TOL {
                    enter = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -PIVOT_TOL;
            for j in 0..col_limit {
                if allow(j) && cost[j] < best {
                    best = cost[j];
                    enter = Some(j);
                }
            }
        }
        let Some(enter) = enter else {
            return Ok(Phase::Optimal);
        };

        // Ratio test.
        let mut leave = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tab[i * width + enter];
            if a > PIVOT_TOL {
                let ratio = tab[i * width + width - 1] / a;
                let better = ratio < best_ratio - 1e-12
                    || (bland
                        && (ratio - best_ratio).abs() <= 1e-12
                        && leave.is_none_or(|l: usize| basis[i] < basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return Ok(Phase::Unbounded);
        };

        pivot(tab, cost, aux_cost.as_deref_mut(), m, width, leave, enter);
        basis[leave] = enter;
        *iterations += 1;
    }
}

/// Gauss-Jordan pivot on `(row, col)`, updating the cost row(s).
fn pivot(
    tab: &mut [f64],
    cost: &mut [f64],
    aux_cost: Option<&mut Vec<f64>>,
    m: usize,
    width: usize,
    row: usize,
    col: usize,
) {
    let piv = tab[row * width + col];
    debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
    let inv = 1.0 / piv;
    for k in 0..width {
        tab[row * width + k] *= inv;
    }
    // Snapshot the pivot row to avoid aliasing while updating others.
    let pivot_row: Vec<f64> = tab[row * width..(row + 1) * width].to_vec();
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = tab[i * width + col];
        if factor.abs() > 0.0 {
            for k in 0..width {
                tab[i * width + k] -= factor * pivot_row[k];
            }
            tab[i * width + col] = 0.0; // exact zero for stability
        }
    }
    let factor = cost[col];
    if factor.abs() > 0.0 {
        for k in 0..width {
            cost[k] -= factor * pivot_row[k];
        }
        cost[col] = 0.0;
    }
    if let Some(aux) = aux_cost {
        let factor = aux[col];
        if factor.abs() > 0.0 {
            for k in 0..width {
                aux[k] -= factor * pivot_row[k];
            }
            aux[col] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn lp(n: usize, objective: Vec<f64>, rows: Vec<LpRow>, bounds: Vec<(f64, f64)>) -> LpProblem {
        LpProblem {
            n,
            objective,
            rows,
            bounds,
        }
    }

    fn optimal(p: &LpProblem) -> (Vec<f64>, f64) {
        match solve_lp(p).unwrap() {
            LpOutcome::Optimal { x, objective, .. } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_2d_lp() {
        // min -x - y  s.t. x + y <= 4, x <= 3, y <= 3 => obj -4
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
        // min x + y s.t. x + y >= 2, x - y == 1, x,y in [0,10]
        // => y = x - 1, 2x - 1 >= 2, x >= 1.5 => x=1.5, y=0.5, obj=2
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
        assert!(matches!(solve_lp(&p).unwrap(), LpOutcome::Infeasible));
    }

    #[test]
    fn negative_lower_bounds_shifted_correctly() {
        // min x s.t. x >= -3 with x in [-5, 5] => x = -3
        let p = lp(
            1,
            vec![1.0],
            vec![LpRow {
                coeffs: vec![(0, 1.0)],
                cmp: Cmp::Ge,
                rhs: -3.0,
            }],
            vec![(-5.0, 5.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] + 3.0).abs() < 1e-6);
        assert!((obj + 3.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_fold_into_rhs() {
        // y fixed to 2; min x s.t. x + y >= 5 => x = 3.
        let p = lp(
            2,
            vec![1.0, 0.0],
            vec![LpRow {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                cmp: Cmp::Ge,
                rhs: 5.0,
            }],
            vec![(0.0, 10.0), (2.0, 2.0)],
        );
        let (x, _) = optimal(&p);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn no_constraints_picks_best_bounds() {
        let p = lp(2, vec![1.0, -1.0], vec![], vec![(1.0, 4.0), (2.0, 6.0)]);
        let (x, obj) = optimal(&p);
        assert_eq!(x, vec![1.0, 6.0]);
        assert!((obj + 5.0).abs() < 1e-9);
    }

    #[test]
    fn constant_row_infeasibility() {
        // x fixed to 1 and constraint x >= 2 => infeasible via constant row.
        let p = lp(
            1,
            vec![0.0],
            vec![LpRow {
                coeffs: vec![(0, 1.0)],
                cmp: Cmp::Ge,
                rhs: 2.0,
            }],
            vec![(1.0, 1.0)],
        );
        assert!(matches!(solve_lp(&p).unwrap(), LpOutcome::Infeasible));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate corner: several redundant constraints meet.
        let p = lp(
            2,
            vec![-1.0, -1.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Le,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Le,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 2.0), (1, 2.0)],
                    cmp: Cmp::Le,
                    rhs: 4.0,
                },
            ],
            vec![(0.0, 5.0), (0.0, 5.0)],
        );
        let (_, obj) = optimal(&p);
        assert!((obj + 2.0).abs() < 1e-6);
    }

    #[test]
    fn equality_only_system() {
        // x + y == 3, x - y == 1 => x=2, y=1.
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
            ],
            vec![(0.0, 10.0), (0.0, 10.0)],
        );
        let (x, _) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_no_panic() {
        // Same equality twice: phase 1 leaves a redundant artificial basic.
        let p = lp(
            1,
            vec![1.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0)],
                    cmp: Cmp::Eq,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0)],
                    cmp: Cmp::Eq,
                    rhs: 2.0,
                },
            ],
            vec![(0.0, 10.0)],
        );
        let (x, _) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6);
    }

    /// Beale's classic cycling example: highly degenerate, known to cycle
    /// forever under naive Dantzig pricing with certain tie-breaks.
    /// Optimum: x = (1/25, 0, 1, 0), objective -0.05.
    fn beale() -> LpProblem {
        lp(
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
        )
    }

    #[test]
    fn beale_cycling_lp_reaches_optimum() {
        let (x, obj) = optimal(&beale());
        assert!((obj + 0.05).abs() < 1e-6, "obj={obj}");
        assert!((x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bland_pricing_from_the_first_pivot_still_optimal() {
        // Force Bland's rule immediately: termination is guaranteed and the
        // optimum must match Dantzig's.
        for p in [beale(), {
            lp(
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
            )
        }] {
            let dantzig = match solve_lp(&p).unwrap() {
                LpOutcome::Optimal { objective, .. } => objective,
                other => panic!("expected optimal, got {other:?}"),
            };
            match solve_lp_with_bland_switch(&p, 0).unwrap() {
                LpOutcome::Optimal { objective, .. } => {
                    assert!((objective - dantzig).abs() < 1e-6);
                }
                other => panic!("expected optimal under Bland, got {other:?}"),
            }
        }
    }

    #[test]
    fn bland_switch_counts_iterations_across_the_phase_transition() {
        // A degenerate problem whose equality rows force a real phase 1.
        // Regression for the anti-cycling guard resetting at the phase
        // transition: the switch decision compares the *cumulative*
        // iteration count, so a threshold below the total — even one that
        // neither phase would cross on its own counter — must trip it.
        let p = lp(
            3,
            vec![1.0, 1.0, 1.0],
            vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Eq,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(1, 1.0), (2, 1.0)],
                    cmp: Cmp::Eq,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (2, 1.0)],
                    cmp: Cmp::Ge,
                    rhs: 1.0,
                },
            ],
            vec![(0.0, 10.0); 3],
        );
        let first = std::sync::Arc::new(coremap_obs::Registry::new());
        {
            let _g = coremap_obs::install(first.clone());
            let outcome = solve_lp(&p).unwrap();
            assert!(matches!(outcome, LpOutcome::Optimal { .. }), "{outcome:?}");
        }
        let total = first.counter_value("ilp.simplex.pivots") as usize;
        assert!(total >= 2, "need a multi-pivot solve, got {total}");

        // Re-solve with the switch threshold strictly inside the total
        // count and the metrics registry listening: the cumulative counter
        // must cross it exactly once.
        let reg = std::sync::Arc::new(coremap_obs::Registry::new());
        {
            let _g = coremap_obs::install(reg.clone());
            match solve_lp_with_bland_switch(&p, total - 1).unwrap() {
                LpOutcome::Optimal { objective, .. } => {
                    // x = 2-y, z = 2-y, so obj = 4-y with y <= 1.5.
                    assert!((objective - 2.5).abs() < 1e-6, "obj={objective}");
                }
                other => panic!("expected optimal, got {other:?}"),
            }
        }
        assert_eq!(reg.counter_value("ilp.simplex.bland_switches"), 1);
        assert!(reg.counter_value("ilp.simplex.pivots") >= total as u64);
    }
}
