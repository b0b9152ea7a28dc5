//! Step 3: ILP reconstruction of the core tile map (paper Sec. II-C).
//!
//! Two formulations are provided:
//!
//! * [`reconstruct`] — the production path. It first collapses the paper's
//!   alignment equalities (`C_i = C_s` for vertical observers, `R_j = R_e`
//!   for horizontal observers) into row/column *classes* with a union-find,
//!   then instantiates the remaining constraint families once per class:
//!   vertical bounding boxes with truthful direction (Eq. 1), horizontal
//!   bounding boxes guarded by `NE`/`NW` direction-nullifier binaries
//!   (Eqs. 2–3), one-hot indicator variables, row/column occupancy
//!   indicators and the tightest-map objective. This is exactly the model a
//!   MILP presolve would derive from the paper's formulation, built
//!   directly for speed.
//! * [`reconstruct_full`] — the literal per-tile, per-path formulation from
//!   the paper, kept for fidelity testing on small instances; integration
//!   tests assert both produce equivalent maps.
//!
//! Both return one grid position per CHA. Absolute positions are recovered
//! up to the ambiguities the paper documents: a fully vacant row/column
//! cannot be pinned (Sec. II-D), and the true east/west orientation is
//! unknowable because horizontal channel labels are scrambled (Sec.
//! II-C.4), so the map may be horizontally mirrored.

use std::collections::{BTreeMap, BTreeSet};

use coremap_ilp::{Cmp, LinExpr, Model, SolveStats, Var};
use coremap_mesh::{GridDim, TileCoord};

use crate::traffic::{ObservationSet, VerticalDir};
use crate::MapError;

/// A reconstructed placement.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// Grid position per CHA (indexed by CHA id).
    pub positions: Vec<TileCoord>,
    /// ILP search statistics.
    pub stats: SolveStats,
    /// Objective value of the tightest map.
    pub objective: f64,
}

/// Former branch-and-bound tuning, kept so existing callers still build.
///
/// Accepted and ignored: the reconstruction solve is one serial
/// branch & bound with a cold revised-simplex solve at every node, so
/// there is no worker count or warm start left to choose. Nothing in the
/// library reads either field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Ignored; the solve is serial.
    pub workers: usize,
    /// Ignored; every node is solved cold.
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            warm_start: false,
        }
    }
}

pub(crate) struct UnionFind(Vec<usize>);

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        Self((0..n).collect())
    }
    pub(crate) fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }
    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[drop] = keep;
        }
    }
}

/// Adds one-hot encodings, occupancy indicators and the objective for one
/// axis; returns nothing (extends `model` in place).
///
/// `vars` are the distinct position variables of the axis, `extent` the
/// number of rows/columns. Implements the paper's Sec. II-C.5/6 machinery:
/// `sum_r OHR_{i,r} = 1`, `R_i = sum_r r * OHR_{i,r}`,
/// `RI_r <= sum_i OHR_{i,r} <= b * RI_r`, objective weight rising with the
/// index (we use `2^index`, which makes "occupy a smaller index" strictly
/// dominant, i.e. the tightest map).
fn add_axis_indicators(model: &mut Model, vars: &[Var], extent: usize, obj: &mut LinExpr) {
    let mut occupancy: Vec<Vec<Var>> = vec![Vec::new(); extent];
    for (vi, &v) in vars.iter().enumerate() {
        let mut one_hot_sum = model.expr();
        let mut value_sum = model.expr();
        let mut ohs = Vec::with_capacity(extent);
        #[allow(clippy::needless_range_loop)] // idx is also the one-hot weight
        for idx in 0..extent {
            let oh = model.bin_var(&format!("oh_{vi}_{idx}"));
            ohs.push(oh);
            one_hot_sum = one_hot_sum.term(1.0, oh);
            if idx > 0 {
                value_sum = value_sum.term(idx as f64, oh);
            }
            occupancy[idx].push(oh);
        }
        model.constraint(one_hot_sum, Cmp::Eq, 1.0);
        // R_v - sum(idx * OH) == 0
        let link = value_sum.term(-1.0, v);
        model.constraint(link, Cmp::Eq, 0.0);
    }
    for (idx, ohs) in occupancy.iter().enumerate() {
        let ind = model.bin_var(&format!("occ_{idx}"));
        // ind <= sum(ohs)
        let mut lhs = model.expr().term(1.0, ind);
        for &oh in ohs {
            lhs = lhs.term(-1.0, oh);
        }
        model.constraint(lhs, Cmp::Le, 0.0);
        // The paper writes the occupied-side link in aggregated big-M form
        // (`sum(ohs) <= b * ind`); the disaggregated, logically equivalent
        // form `oh <= ind` per variable has a far tighter LP relaxation and
        // keeps the branch-and-bound search shallow. Keep the aggregated
        // row as well — it is a single dense cut that speeds up pruning.
        let big = vars.len() as f64 + 1.0;
        let mut agg = model.expr().term(-big, ind);
        for &oh in ohs {
            let lhs = model.expr().term(1.0, oh).term(-1.0, ind);
            model.constraint(lhs, Cmp::Le, 0.0);
            agg = agg.term(1.0, oh);
        }
        model.constraint(agg, Cmp::Le, 0.0);
        obj.add_term((1u64 << idx) as f64, ind);
    }
}

/// Reconstructs tile positions from observations on a `dim` grid using the
/// class-merged formulation.
///
/// # Errors
///
/// [`MapError::Ilp`] if the ILP is infeasible (mutually inconsistent,
/// typically extremely noisy, observations) or hits solver limits.
pub fn reconstruct(obs: &ObservationSet, dim: GridDim) -> Result<Reconstruction, MapError> {
    reconstruct_mesh(obs, dim, false)
}

/// Reconstruction under an explicit routing-discipline hypothesis: the seam
/// topology hypothesis selection solves through.
///
/// * [`RoutingDiscipline::VerticalFirst`] is the paper's Y-then-X model.
/// * [`RoutingDiscipline::HorizontalFirst`] swaps the alignment anchors
///   (vertical observers share the *sink*'s column, horizontal observers
///   the *source*'s row) and relaxes the horizontal blocks on the sink
///   side, because the X-then-Y turn tile sits at the sink's column.
/// * [`RoutingDiscipline::QuadrantLocal`] has no dedicated formulation:
///   same-quadrant traffic is Y-then-X, so the vertical-first model is
///   solved and the caller validates the placement against the quadrant
///   routes (`verify::explains_path_with`), which eliminates the
///   hypothesis when cross-quadrant paths contradict it.
/// * [`RoutingDiscipline::Ring`] observations carry no row/column geometry
///   at all; the mesh ILP cannot express the cycle walk, so this returns
///   [`MapError::InconsistentObservations`] and the combinatorial ring
///   solver in `topology_select` owns that hypothesis.
///
/// # Errors
///
/// As for [`reconstruct`], plus the ring case above.
pub fn reconstruct_disciplined(
    obs: &ObservationSet,
    dim: GridDim,
    discipline: coremap_mesh::RoutingDiscipline,
) -> Result<Reconstruction, MapError> {
    use coremap_mesh::RoutingDiscipline as Rd;
    match discipline {
        Rd::VerticalFirst | Rd::QuadrantLocal => reconstruct_mesh(obs, dim, false),
        Rd::HorizontalFirst => reconstruct_mesh(obs, dim, true),
        Rd::Ring { .. } => Err(MapError::InconsistentObservations),
    }
}

/// The class-merged mesh formulation, parameterized over the dimension
/// order. `horizontal_first = false` is the paper-literal model and the
/// production path; `true` is the X-then-Y hypothesis.
fn reconstruct_mesh(
    obs: &ObservationSet,
    dim: GridDim,
    horizontal_first: bool,
) -> Result<Reconstruction, MapError> {
    let n = obs.n_cha;

    // ---- Alignment classes (paper Sec. II-C.2, applied as a merge) -------
    // Under Y-then-X a vertical observer shares the source's column and a
    // horizontal observer the sink's row; under X-then-Y the legs swap, so
    // the anchors swap with them.
    let mut row_uf = UnionFind::new(n);
    let mut col_uf = UnionFind::new(n);
    for p in &obs.paths {
        let col_anchor = if horizontal_first { p.sink } else { p.source };
        let row_anchor = if horizontal_first { p.source } else { p.sink };
        for &(k, _) in &p.vertical {
            col_uf.union(k.index(), col_anchor.index());
        }
        for &k in &p.horizontal {
            row_uf.union(k.index(), row_anchor.index());
        }
    }
    let row_class: Vec<usize> = (0..n).map(|i| row_uf.find(i)).collect();
    let col_class: Vec<usize> = (0..n).map(|i| col_uf.find(i)).collect();

    let mut model = Model::new();
    let mut row_var: BTreeMap<usize, Var> = BTreeMap::new();
    let mut col_var: BTreeMap<usize, Var> = BTreeMap::new();
    for i in 0..n {
        row_var.entry(row_class[i]).or_insert_with(|| {
            let v = model.int_var(&format!("R{}", row_class[i]), 0, dim.rows as i64 - 1);
            model.set_branch_priority(v, 5);
            v
        });
        col_var.entry(col_class[i]).or_insert_with(|| {
            let v = model.int_var(&format!("C{}", col_class[i]), 0, dim.cols as i64 - 1);
            model.set_branch_priority(v, 5);
            v
        });
    }

    // ---- Vertical bounding boxes (Eq. 1), deduplicated per class pair ----
    // (a, b) in `ge1` means R_a >= R_b + 1; in `ge0` means R_a >= R_b.
    // Ordered sets: these are iterated to emit constraints, and constraint
    // order must not vary run-to-run (bound propagation work is order
    // sensitive, and the metrics export pins it).
    let mut ge1: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut ge0: BTreeSet<(usize, usize)> = BTreeSet::new();
    for p in &obs.paths {
        let s = row_class[p.source.index()];
        let e = row_class[p.sink.index()];
        for &(k, dir) in &p.vertical {
            let kc = row_class[k.index()];
            match dir {
                VerticalDir::Up => {
                    // R_s > R_k >= R_e
                    ge1.insert((s, kc));
                    ge0.insert((kc, e));
                }
                VerticalDir::Down => {
                    ge1.insert((kc, s));
                    ge0.insert((e, kc));
                }
            }
        }
    }
    for &(a, b) in &ge1 {
        if a == b {
            return Err(MapError::InconsistentObservations);
        }
        let e = model.expr().term(1.0, row_var[&a]).term(-1.0, row_var[&b]);
        model.constraint(e, Cmp::Ge, 1.0);
    }
    for &(a, b) in &ge0 {
        if a == b {
            continue;
        }
        let e = model.expr().term(1.0, row_var[&a]).term(-1.0, row_var[&b]);
        model.constraint(e, Cmp::Ge, 0.0);
    }

    // ---- Horizontal bounding boxes with NE/NW nullifiers (Eqs. 2-3) ------
    // The paper allocates one NE/NW pair and one constraint block per
    // observed path. All paths between the same pair of column classes
    // share one physical direction, and a tile observed strictly between
    // the two classes on *any* of them lies between them on all of them.
    // One NE/NW pair and one constraint block per *unordered* class pair -
    // with the union of all observed in-between classes - is therefore an
    // equivalent, massively smaller and tighter model.
    //
    // The nullifier constant must dominate `span + (cols - 1)` so a voided
    // block is satisfied by every in-grid assignment.
    let big = 2.0 * dim.cols as f64;
    if horizontal_first {
        // X-then-Y: the horizontal leg runs at the source's row and ends at
        // the *turn tile* — a tile whose column equals the sink's but whose
        // CHA identity is unrecoverable from the measured event vectors
        // (they are in CHA scan order, not travel order). Blocks are
        // emitted per *ordered* column-class pair (source role vs sink
        // role, so the strict/inclusive asymmetry is well defined): strict
        // between source and observer on the source side, inclusive on the
        // sink side so the turn-tile observer may sit exactly at the sink's
        // column class.
        let mut hf_mids: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
        for p in &obs.paths {
            if p.horizontal.is_empty() {
                continue;
            }
            let s = col_class[p.source.index()];
            let e = col_class[p.sink.index()];
            if s == e {
                return Err(MapError::InconsistentObservations);
            }
            let entry = hf_mids.entry((s, e)).or_default();
            entry.extend(
                p.horizontal
                    .iter()
                    .filter(|&&k| k != p.sink)
                    .map(|&k| col_class[k.index()]),
            );
        }
        let mut anchored = false;
        for (&(s, e), mids) in &hf_mids {
            let ne = model.bin_var("NE");
            let nw = model.bin_var("NW");
            model.set_branch_priority(ne, 10);
            model.set_branch_priority(nw, 10);
            let sum = model.expr().term(1.0, ne).term(1.0, nw);
            model.constraint(sum, Cmp::Eq, 1.0);
            // Orientation is unknowable here too; pin the mirror on the
            // first horizontal block.
            if !anchored {
                model.constraint(LinExpr::from(ne), Cmp::Eq, 0.0);
                anchored = true;
            }
            let (cs, ce) = (col_var[&s], col_var[&e]);
            // Observers strictly between the endpoints number at least
            // |mids| - 1 (one observer may be the turn tile), and the
            // endpoints differ, so the span clears max(|mids|, 1).
            let span = (mids.len() as f64).max(1.0);
            let east = model.expr().term(1.0, cs).term(-1.0, ce).term(-big, ne);
            model.constraint(east, Cmp::Le, -span);
            let west = model.expr().term(-1.0, cs).term(1.0, ce).term(-big, nw);
            model.constraint(west, Cmp::Le, -span);
            for &m in mids {
                if m == s {
                    return Err(MapError::InconsistentObservations);
                }
                if m == e {
                    // The turn-tile observer: pinned to the sink's column
                    // class by the span constraints alone.
                    continue;
                }
                let cm = col_var[&m];
                let e1 = model.expr().term(1.0, cs).term(-1.0, cm).term(-big, ne);
                model.constraint(e1, Cmp::Le, -1.0);
                let e2 = model.expr().term(1.0, cm).term(-1.0, ce).term(-big, ne);
                model.constraint(e2, Cmp::Le, 0.0);
                let w1 = model.expr().term(-1.0, cs).term(1.0, cm).term(-big, nw);
                model.constraint(w1, Cmp::Le, -1.0);
                let w2 = model.expr().term(-1.0, cm).term(1.0, ce).term(-big, nw);
                model.constraint(w2, Cmp::Le, 0.0);
            }
        }
    }
    let mut pair_mids: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    // `apart[x * n + y]`: column classes x and y are known to be distinct
    // columns. The horizontal observers of a path and its sink are distinct
    // tiles on the sink's row, and the source's column lies outside their
    // span, so all of them pairwise occupy distinct columns.
    let mut apart = vec![false; n * n];
    if !horizontal_first {
        for p in &obs.paths {
            if p.horizontal.is_empty() {
                continue;
            }
            let s = col_class[p.source.index()];
            let e = col_class[p.sink.index()];
            if s == e {
                return Err(MapError::InconsistentObservations);
            }
            let key = (s.min(e), s.max(e));
            let entry = pair_mids.entry(key).or_default();
            entry.extend(
                p.horizontal
                    .iter()
                    .filter(|&&k| k != p.sink)
                    .map(|&k| col_class[k.index()]),
            );
            let on_path: Vec<usize> = [p.source, p.sink]
                .iter()
                .chain(&p.horizontal)
                .map(|k| col_class[k.index()])
                .collect();
            for &x in &on_path {
                for &y in &on_path {
                    apart[x * n + y] |= x != y;
                }
            }
        }
    }
    // BTreeMap iteration is already in sorted class-pair order, so the
    // constraint blocks are emitted deterministically.
    let mut anchored = false;
    for ((a, b), mids) in pair_mids {
        // NE = 1 voids the "a west of b" block, NW = 1 voids the mirrored
        // one; exactly one direction is enforced (paper Sec. II-C.4).
        let ne = model.bin_var("NE");
        let nw = model.bin_var("NW");
        // Direction decisions shape the whole column order: branch on them
        // before any encoding variable.
        model.set_branch_priority(ne, 10);
        model.set_branch_priority(nw, 10);
        let sum = model.expr().term(1.0, ne).term(1.0, nw);
        model.constraint(sum, Cmp::Eq, 1.0);
        // The true east/west orientation is unknowable (odd-column label
        // flip), so the first horizontal relation may be fixed without
        // loss of generality; this pins the mirror orientation.
        if !anchored {
            model.constraint(LinExpr::from(ne), Cmp::Eq, 0.0);
            anchored = true;
        }
        let (ca, cb) = (col_var[&a], col_var[&b]);
        // The span must clear every in-between column: |C_a - C_b| > the
        // number of distinct columns among the mids. With sparse
        // observations, mids seen on different paths may share a column,
        // so count (greedily, in class order) only mids known to be apart
        // from every mid already counted.
        let mut distinct: Vec<usize> = Vec::with_capacity(mids.len());
        for &m in &mids {
            if distinct.iter().all(|&d| apart[m * n + d]) {
                distinct.push(m);
            }
        }
        let span = distinct.len() as f64 + 1.0;
        let east = model.expr().term(1.0, ca).term(-1.0, cb).term(-big, ne);
        model.constraint(east, Cmp::Le, -span);
        let west = model.expr().term(-1.0, ca).term(1.0, cb).term(-big, nw);
        model.constraint(west, Cmp::Le, -span);
        for &m in &mids {
            if m == a || m == b {
                return Err(MapError::InconsistentObservations);
            }
            let cm = col_var[&m];
            let e1 = model.expr().term(1.0, ca).term(-1.0, cm).term(-big, ne);
            model.constraint(e1, Cmp::Le, -1.0);
            let e2 = model.expr().term(1.0, cm).term(-1.0, cb).term(-big, ne);
            model.constraint(e2, Cmp::Le, -1.0);
            let w1 = model.expr().term(-1.0, ca).term(1.0, cm).term(-big, nw);
            model.constraint(w1, Cmp::Le, -1.0);
            let w2 = model.expr().term(-1.0, cm).term(1.0, cb).term(-big, nw);
            model.constraint(w2, Cmp::Le, -1.0);
        }
    }

    // ---- Known distinctness of co-classed tiles without direct paths -----
    // Any two distinct CHAs occupy distinct tiles. Pairs that share both a
    // row and a column class would collapse; pairs sharing a column class
    // but having no ordering constraint (two LLC-only tiles, which cannot
    // sink traffic) get an explicit disequality on rows.
    let mut ordered: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &(a, b) in ge1.iter() {
        ordered.insert((a, b));
        ordered.insert((b, a));
    }
    let big_r = dim.rows as f64 + 1.0;
    for i in 0..n {
        for j in (i + 1)..n {
            if col_class[i] == col_class[j] {
                let (ri, rj) = (row_class[i], row_class[j]);
                if ri == rj {
                    return Err(MapError::InconsistentObservations);
                }
                if !ordered.contains(&(ri, rj)) {
                    let d = model.bin_var("neq");
                    model.set_branch_priority(d, 8);
                    let a = model
                        .expr()
                        .term(1.0, row_var[&rj])
                        .term(-1.0, row_var[&ri])
                        .term(-big_r, d);
                    model.constraint(a, Cmp::Le, -1.0);
                    let b = model
                        .expr()
                        .term(1.0, row_var[&ri])
                        .term(-1.0, row_var[&rj])
                        .term(big_r, d);
                    model.constraint(b, Cmp::Le, big_r - 1.0);
                    ordered.insert((ri, rj));
                    ordered.insert((rj, ri));
                }
            }
        }
    }

    // ---- Indicators and objective (Sec. II-C.5/6) -------------------------
    let mut obj = LinExpr::new();
    let mut row_vars: Vec<(usize, Var)> = row_var.iter().map(|(&k, &v)| (k, v)).collect();
    row_vars.sort_by_key(|&(k, _)| k);
    let rv: Vec<Var> = row_vars.iter().map(|&(_, v)| v).collect();
    add_axis_indicators(&mut model, &rv, dim.rows, &mut obj);
    let mut col_vars: Vec<(usize, Var)> = col_var.iter().map(|(&k, &v)| (k, v)).collect();
    col_vars.sort_by_key(|&(k, _)| k);
    let cv: Vec<Var> = col_vars.iter().map(|&(_, v)| v).collect();
    add_axis_indicators(&mut model, &cv, dim.cols, &mut obj);
    model.minimize(obj);

    // ---- Tile distinctness, added lazily ---------------------------------
    // Distinct CHAs occupy distinct tiles. A full observation set orders
    // every pair, but a sparse one can leave two CHAs free to share a
    // tile. Each colliding pair gets a separation cut (rows or columns
    // differ, in either direction) and the model is re-solved; a solution
    // without collisions adds nothing.
    let big_s = 2.0 * dim.rows.max(dim.cols) as f64;
    let mut stats = coremap_ilp::SolveStats::default();
    loop {
        let sol = model.solve()?;
        stats.nodes += sol.stats().nodes;
        stats.lp_iterations += sol.stats().lp_iterations;
        let positions: Vec<TileCoord> = (0..n)
            .map(|i| {
                TileCoord::new(
                    sol.int_value(row_var[&row_class[i]]) as usize,
                    sol.int_value(col_var[&col_class[i]]) as usize,
                )
            })
            .collect();
        let mut collided = false;
        for i in 0..n {
            for j in (i + 1)..n {
                if positions[i] != positions[j] {
                    continue;
                }
                collided = true;
                // The selectors (axis, dir) pick exactly one of four strict
                // separations: R_i > R_j, R_j > R_i, C_i > C_j or C_j > C_i.
                // Each row reads `hi - lo >= 1`, relaxed by `big_s` for
                // every selector that does not match it.
                let axis = model.bin_var("sep_axis");
                let dir = model.bin_var("sep_dir");
                let (ri, rj) = (row_var[&row_class[i]], row_var[&row_class[j]]);
                let (ci, cj) = (col_var[&col_class[i]], col_var[&col_class[j]]);
                for (hi, lo, axis_on, dir_on) in [
                    (ri, rj, false, false),
                    (rj, ri, false, true),
                    (ci, cj, true, false),
                    (cj, ci, true, true),
                ] {
                    let mut e = model.expr().term(1.0, lo).term(-1.0, hi);
                    let mut rhs = -1.0;
                    for (selector, on) in [(axis, axis_on), (dir, dir_on)] {
                        if on {
                            e = e.term(big_s, selector);
                            rhs += big_s;
                        } else {
                            e = e.term(-big_s, selector);
                        }
                    }
                    model.constraint(e, Cmp::Le, rhs);
                }
            }
        }
        if !collided {
            return Ok(Reconstruction {
                positions,
                stats,
                objective: sol.objective(),
            });
        }
    }
}

/// The literal per-tile, per-path formulation of paper Sec. II-C, solved
/// through the generic MILP presolve. Exponential in practice on full dies;
/// used by fidelity tests on small instances.
///
/// # Errors
///
/// As for [`reconstruct`].
pub fn reconstruct_full(obs: &ObservationSet, dim: GridDim) -> Result<Reconstruction, MapError> {
    let n = obs.n_cha;
    let mut model = Model::new();
    let r: Vec<Var> = (0..n)
        .map(|i| model.int_var(&format!("R{i}"), 0, dim.rows as i64 - 1))
        .collect();
    let c: Vec<Var> = (0..n)
        .map(|i| model.int_var(&format!("C{i}"), 0, dim.cols as i64 - 1))
        .collect();

    let big = dim.cols as f64 + 1.0;
    let mut anchored = false;
    for p in &obs.paths {
        let (s, e) = (p.source.index(), p.sink.index());
        for &(k, dir) in &p.vertical {
            let k = k.index();
            // Alignment: C_k = C_s.
            let align = model.expr().term(1.0, c[k]).term(-1.0, c[s]);
            model.constraint(align, Cmp::Eq, 0.0);
            match dir {
                VerticalDir::Up => {
                    let a = model.expr().term(1.0, r[s]).term(-1.0, r[k]);
                    model.constraint(a, Cmp::Ge, 1.0);
                    let b = model.expr().term(1.0, r[k]).term(-1.0, r[e]);
                    model.constraint(b, Cmp::Ge, 0.0);
                }
                VerticalDir::Down => {
                    let a = model.expr().term(1.0, r[k]).term(-1.0, r[s]);
                    model.constraint(a, Cmp::Ge, 1.0);
                    let b = model.expr().term(1.0, r[e]).term(-1.0, r[k]);
                    model.constraint(b, Cmp::Ge, 0.0);
                }
            }
        }
        if !p.horizontal.is_empty() {
            let ne = model.bin_var("NE");
            let nw = model.bin_var("NW");
            model.set_branch_priority(ne, 10);
            model.set_branch_priority(nw, 10);
            let sum = model.expr().term(1.0, ne).term(1.0, nw);
            model.constraint(sum, Cmp::Eq, 1.0);
            if !anchored {
                model.constraint(LinExpr::from(ne), Cmp::Eq, 0.0);
                anchored = true;
            }
            let east = model.expr().term(1.0, c[s]).term(-1.0, c[e]).term(-big, ne);
            model.constraint(east, Cmp::Le, -1.0);
            let west = model.expr().term(-1.0, c[s]).term(1.0, c[e]).term(-big, nw);
            model.constraint(west, Cmp::Le, -1.0);
            for &k in &p.horizontal {
                let k = k.index();
                // Alignment: R_k = R_e.
                let align = model.expr().term(1.0, r[k]).term(-1.0, r[e]);
                model.constraint(align, Cmp::Eq, 0.0);
                if k == e {
                    continue;
                }
                let e1 = model.expr().term(1.0, c[s]).term(-1.0, c[k]).term(-big, ne);
                model.constraint(e1, Cmp::Le, -1.0);
                let e2 = model.expr().term(1.0, c[k]).term(-1.0, c[e]).term(-big, ne);
                model.constraint(e2, Cmp::Le, -1.0);
                let w1 = model.expr().term(-1.0, c[s]).term(1.0, c[k]).term(-big, nw);
                model.constraint(w1, Cmp::Le, -1.0);
                let w2 = model.expr().term(-1.0, c[k]).term(1.0, c[e]).term(-big, nw);
                model.constraint(w2, Cmp::Le, -1.0);
            }
        }
    }

    // Presolve collapses the alignment equalities, then the indicator
    // machinery is added over the surviving class variables.
    let mut pre = coremap_ilp::presolve::merge_equalities(&model).map_err(MapError::Ilp)?;
    let mut obj = LinExpr::new();
    let mut rset: Vec<Var> = Vec::new();
    for &v in &r {
        let m = pre.mapped(v);
        if !rset.contains(&m) {
            rset.push(m);
        }
    }
    let mut cset: Vec<Var> = Vec::new();
    for &v in &c {
        let m = pre.mapped(v);
        if !cset.contains(&m) {
            cset.push(m);
        }
    }
    add_axis_indicators(&mut pre.model, &rset, dim.rows, &mut obj);
    add_axis_indicators(&mut pre.model, &cset, dim.cols, &mut obj);
    pre.model.minimize(obj);
    let sol = pre.model.solve()?;

    let positions = (0..n)
        .map(|i| {
            TileCoord::new(
                sol.value(pre.mapped(r[i])).round() as usize,
                sol.value(pre.mapped(c[i])).round() as usize,
            )
        })
        .collect();
    Ok(Reconstruction {
        positions,
        stats: sol.stats(),
        objective: sol.objective(),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::verify;
    use coremap_mesh::{DieTemplate, Floorplan, FloorplanBuilder, TileCoord as TC};

    /// A dense 3x3 block of active tiles (rows 2-4, cols 0-2): small enough
    /// for the literal per-path formulation, dense enough that every row
    /// and column relation is observable, i.e. reconstruction is
    /// well-posed (up to the documented mirror/compaction ambiguities).
    fn dense_block_plan() -> Floorplan {
        let t = DieTemplate::SkylakeXcc;
        let keep: Vec<TC> = (2..5)
            .flat_map(|r| (0..2).map(move |c| TC::new(r, c)))
            .collect();
        let disable = t
            .core_capable_positions()
            .iter()
            .copied()
            .filter(|p| !keep.contains(p));
        FloorplanBuilder::new(t)
            .disable_all(disable)
            .build()
            .unwrap()
    }

    /// A sparse, partially-observable die: reconstruction is *not* unique,
    /// so it is checked for observation consistency rather than truth
    /// match.
    fn sparse_plan() -> Floorplan {
        let t = DieTemplate::SkylakeXcc;
        let keep = [
            TC::new(0, 0),
            TC::new(2, 0),
            TC::new(0, 1),
            TC::new(3, 1),
            TC::new(1, 2),
            TC::new(4, 3),
            TC::new(0, 4),
            TC::new(2, 5),
        ];
        let disable = t
            .core_capable_positions()
            .iter()
            .copied()
            .filter(|p| !keep.contains(p));
        FloorplanBuilder::new(t)
            .disable_all(disable)
            .build()
            .unwrap()
    }

    #[test]
    fn merged_reconstruction_recovers_full_die() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let obs = ObservationSet::synthetic(&plan);
        let rec = reconstruct(&obs, plan.dim()).unwrap();
        assert!(verify::positions_match(&rec.positions, &plan));
    }

    #[test]
    fn merged_reconstruction_explains_sparse_die_observations() {
        // With only 8 of 28 tiles active, several placements are
        // legitimately consistent with the partial observations (paper
        // Sec. II-D); the solver must return one of them.
        let plan = sparse_plan();
        let obs = ObservationSet::synthetic(&plan);
        let rec = reconstruct(&obs, plan.dim()).unwrap();
        assert!(verify::observations_consistent(
            &rec.positions,
            &obs,
            plan.dim()
        ));
    }

    #[test]
    fn dense_block_reconstructs_relative_truth() {
        let plan = dense_block_plan();
        let obs = ObservationSet::synthetic(&plan);
        let rec = reconstruct(&obs, plan.dim()).unwrap();
        assert!(verify::positions_match_relative(&rec.positions, &plan));
        assert!(verify::observations_consistent(
            &rec.positions,
            &obs,
            plan.dim()
        ));
    }

    #[test]
    fn full_formulation_matches_merged_on_dense_block() {
        let plan = dense_block_plan();
        let obs = ObservationSet::synthetic(&plan);
        let merged = reconstruct(&obs, plan.dim()).unwrap();
        let full = reconstruct_full(&obs, plan.dim()).unwrap();
        // Both must be valid relative reconstructions of the same truth.
        assert!(verify::positions_match_relative(&merged.positions, &plan));
        assert!(verify::positions_match_relative(&full.positions, &plan));
        assert!(verify::observations_consistent(
            &full.positions,
            &obs,
            plan.dim()
        ));
    }

    #[test]
    fn reconstruction_handles_llc_only_tiles() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .llc_only(TC::new(0, 2))
            .llc_only(TC::new(4, 4))
            .disable(TC::new(2, 3))
            .disable(TC::new(3, 0))
            .build()
            .unwrap();
        let obs = ObservationSet::synthetic(&plan);
        let rec = reconstruct(&obs, plan.dim()).unwrap();
        assert!(verify::positions_match_relative(&rec.positions, &plan));
    }

    #[test]
    fn reconstruction_recovers_icelake_die() {
        let plan = FloorplanBuilder::new(DieTemplate::IceLakeXcc)
            .disable_all([TC::new(0, 2), TC::new(1, 5), TC::new(3, 3), TC::new(5, 6)])
            .build()
            .unwrap();
        let obs = ObservationSet::synthetic(&plan);
        let rec = reconstruct(&obs, plan.dim()).unwrap();
        assert!(verify::positions_match_relative(&rec.positions, &plan));
    }

    #[test]
    fn hfirst_reconstruction_recovers_xfirst_die() {
        use coremap_mesh::{RoutingDiscipline, Topology};
        let topo = Topology::builtin("skylake-xcc-xfirst").unwrap().clone();
        let plan = coremap_mesh::FloorplanBuilder::from_topology(topo)
            .build()
            .unwrap();
        let obs = ObservationSet::synthetic(&plan);
        let rec =
            reconstruct_disciplined(&obs, plan.dim(), RoutingDiscipline::HorizontalFirst).unwrap();
        assert!(verify::positions_match(&rec.positions, &plan));
        assert!(obs.paths.iter().all(|p| verify::explains_path_with(
            &rec.positions,
            p,
            plan.dim(),
            RoutingDiscipline::HorizontalFirst
        )));
    }

    #[test]
    fn wrong_discipline_hypothesis_fails_loudly_or_inconsistently() {
        use coremap_mesh::{RoutingDiscipline, Topology};
        // X-then-Y trace fed to the paper's Y-then-X model: either the
        // alignment classes collapse into a contradiction, or the placement
        // cannot replay the observations — both eliminate the hypothesis.
        let topo = Topology::builtin("skylake-xcc-xfirst").unwrap().clone();
        let plan = coremap_mesh::FloorplanBuilder::from_topology(topo)
            .build()
            .unwrap();
        let obs = ObservationSet::synthetic(&plan);
        match reconstruct(&obs, plan.dim()) {
            Err(_) => {}
            Ok(rec) => {
                assert!(!obs.paths.iter().all(|p| verify::explains_path_with(
                    &rec.positions,
                    p,
                    plan.dim(),
                    RoutingDiscipline::VerticalFirst
                )));
            }
        }
    }

    #[test]
    fn positions_are_pairwise_distinct() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .disable(TC::new(2, 2))
            .build()
            .unwrap();
        let obs = ObservationSet::synthetic(&plan);
        let rec = reconstruct(&obs, plan.dim()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &p in &rec.positions {
            assert!(seen.insert(p), "duplicate position {p}");
        }
    }
}
