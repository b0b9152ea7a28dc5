//! Sparse column store for the revised simplex.
//!
//! The reconstruction ILP's constraint matrix is extremely sparse: one-hot
//! rows touch `dim` binaries, link rows a handful more, and the big-M
//! nullifier rows only three or four variables each. The dense tableau the
//! previous solver carried multiplied every pivot by the full `m × n` array;
//! the revised simplex only ever needs (a) a column of `A` at a time and
//! (b) sparse dot products against dense row/price vectors, which is what
//! this compressed-sparse-column layout provides.

/// Immutable compressed-sparse-column matrix.
///
/// Entries within a column are stored in ascending row order; iteration
/// order (and therefore floating-point summation order) is fixed, so every
/// solve is reproducible bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct ColMatrix {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl ColMatrix {
    /// Builds from per-column `(row, value)` lists. Zero entries are
    /// dropped; duplicate rows within a column are summed.
    pub fn from_columns(m: usize, cols: &[Vec<(usize, f64)>]) -> Self {
        let mut col_ptr = Vec::with_capacity(cols.len() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for col in cols {
            scratch.clear();
            scratch.extend_from_slice(col);
            scratch.sort_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                debug_assert!(r < m, "row index {r} out of range (m = {m})");
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == r {
                    v += scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Self {
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of columns.
    #[cfg(test)]
    pub fn n_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Stored non-zero count.
    #[cfg(test)]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(rows, values)` slices of column `j`.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// Sparse dot product `A_j · y` against a dense vector.
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            acc += v * y[r];
        }
        acc
    }

    /// `out += alpha * A_j` (sparse scatter into a dense vector).
    pub fn col_axpy(&self, j: usize, alpha: f64, out: &mut [f64]) {
        if alpha == 0.0 {
            return;
        }
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] += alpha * v;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn builds_and_reads_columns() {
        let cols = vec![
            vec![(0, 1.0), (2, -3.0)],
            vec![],
            vec![(1, 2.0), (1, 0.5), (0, 4.0)],
        ];
        let m = ColMatrix::from_columns(3, &cols);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 4);
        let (r, v) = m.col(0);
        assert_eq!(r, &[0, 2]);
        assert_eq!(v, &[1.0, -3.0]);
        let (r, v) = m.col(1);
        assert!(r.is_empty() && v.is_empty());
        // Duplicates summed, rows sorted.
        let (r, v) = m.col(2);
        assert_eq!(r, &[0, 1]);
        assert_eq!(v, &[4.0, 2.5]);
    }

    #[test]
    fn zero_entries_dropped() {
        let cols = vec![vec![(0, 1.0), (0, -1.0), (1, 2.0)]];
        let m = ColMatrix::from_columns(2, &cols);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col(0), (&[1usize][..], &[2.0][..]));
    }

    #[test]
    fn dot_and_axpy() {
        let cols = vec![vec![(0, 2.0), (2, 1.0)]];
        let m = ColMatrix::from_columns(3, &cols);
        assert_eq!(m.col_dot(0, &[1.0, 5.0, 3.0]), 5.0);
        let mut out = vec![0.0; 3];
        m.col_axpy(0, 2.0, &mut out);
        assert_eq!(out, vec![4.0, 0.0, 2.0]);
    }
}
