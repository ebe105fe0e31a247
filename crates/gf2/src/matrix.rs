//! Dense bit-packed matrices over GF(2).
//!
//! [`BitMat`] stores one [`BitVec`] per row. It provides the linear-algebra
//! operations the paper's parallelisation machinery needs: multiplication,
//! exponentiation, Gauss–Jordan inversion, rank, Krylov bases and companion
//! matrices.

use crate::bitvec::BitVec;
use crate::poly::Gf2Poly;
use std::fmt;

/// A dense `rows × cols` matrix over GF(2).
///
/// # Examples
///
/// ```
/// use gf2::BitMat;
///
/// let a = BitMat::identity(4);
/// assert_eq!(&a * &a, a);
/// assert_eq!(a.rank(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMat {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

impl BitMat {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMat {
            rows,
            cols,
            data: vec![BitVec::zeros(cols); rows],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMat::zeros(n, n);
        for i in 0..n {
            m.data[i].set(i, true);
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, super::bitvec::BitVec::len);
        BitMat::from_rows_with_cols(rows, cols)
    }

    /// Builds a `rows.len() × cols` matrix from rows. Unlike
    /// [`from_rows`](Self::from_rows), an empty row list keeps its
    /// column count.
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not `cols`.
    pub fn from_rows_with_cols(rows: Vec<BitVec>, cols: usize) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "rows must all have the same length"
        );
        BitMat {
            rows: rows.len(),
            cols,
            data: rows,
        }
    }

    /// Builds a matrix from columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths.
    pub fn from_columns(cols: &[BitVec]) -> Self {
        let n_rows = cols.first().map_or(0, super::bitvec::BitVec::len);
        assert!(
            cols.iter().all(|c| c.len() == n_rows),
            "columns must all have the same length"
        );
        let mut m = BitMat::zeros(n_rows, cols.len());
        for (j, c) in cols.iter().enumerate() {
            for i in c.iter_ones() {
                m.data[i].set(j, true);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.data[row].get(col)
    }

    /// Sets entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.data[row].set(col, value);
    }

    /// Borrows row `row`.
    pub fn row(&self, row: usize) -> &BitVec {
        &self.data[row]
    }

    /// Returns column `col` as an owned vector.
    pub fn column(&self, col: usize) -> BitVec {
        let mut v = BitVec::zeros(self.rows);
        for i in 0..self.rows {
            if self.data[i].get(col) {
                v.set(i, true);
            }
        }
        v
    }

    /// Iterates over the rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &BitVec> {
        self.data.iter()
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(super::bitvec::BitVec::is_zero)
    }

    /// Total number of one entries (XOR-network size proxy).
    pub fn count_ones(&self) -> usize {
        self.data
            .iter()
            .map(super::bitvec::BitVec::count_ones)
            .sum()
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = BitVec::zeros(self.rows);
        for (i, row) in self.data.iter().enumerate() {
            if row.dot(v) {
                out.set(i, true);
            }
        }
        out
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn mul(&self, other: &BitMat) -> BitMat {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul");
        let mut out = BitMat::zeros(self.rows, other.cols);
        for (i, row) in self.data.iter().enumerate() {
            let acc = &mut out.data[i];
            for k in row.iter_ones() {
                acc.xor_assign(&other.data[k]);
            }
        }
        out
    }

    /// Matrix sum `self + other` (XOR).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&self, other: &BitMat) -> BitMat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            a.xor_assign(b);
        }
        out
    }

    /// Matrix power `self^e` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn pow(&self, mut e: u64) -> BitMat {
        assert_eq!(self.rows, self.cols, "pow requires a square matrix");
        let mut result = BitMat::identity(self.rows);
        let mut base = self.clone();
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base);
            }
        }
        result
    }

    /// Transposed copy.
    pub fn transpose(&self) -> BitMat {
        let mut out = BitMat::zeros(self.cols, self.rows);
        for (i, row) in self.data.iter().enumerate() {
            for j in row.iter_ones() {
                out.data[j].set(i, true);
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &BitMat) -> BitMat {
        assert_eq!(self.rows, other.rows, "hstack requires equal row counts");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.concat(b))
            .collect();
        BitMat {
            rows: self.rows,
            cols: self.cols + other.cols,
            data,
        }
    }

    /// Rank via Gaussian elimination (non-destructive).
    pub fn rank(&self) -> usize {
        let mut rows = self.data.clone();
        let mut rank = 0;
        for col in 0..self.cols {
            let Some(pivot) = (rank..rows.len()).find(|&r| rows[r].get(col)) else {
                continue;
            };
            rows.swap(rank, pivot);
            let pivot_row = rows[rank].clone();
            for (r, row) in rows.iter_mut().enumerate() {
                if r != rank && row.get(col) {
                    row.xor_assign(&pivot_row);
                }
            }
            rank += 1;
            if rank == rows.len() {
                break;
            }
        }
        rank
    }

    /// Inverse via Gauss–Jordan, or `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<BitMat> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let mut aug: Vec<BitVec> = self
            .data
            .iter()
            .enumerate()
            .map(|(i, r)| r.concat(&BitVec::unit(i, n)))
            .collect();
        for col in 0..n {
            let pivot = (col..n).find(|&r| aug[r].get(col))?;
            aug.swap(col, pivot);
            let pivot_row = aug[col].clone();
            for (r, row) in aug.iter_mut().enumerate() {
                if r != col && row.get(col) {
                    row.xor_assign(&pivot_row);
                }
            }
        }
        let data = aug.into_iter().map(|r| r.slice(n, n)).collect();
        Some(BitMat {
            rows: n,
            cols: n,
            data,
        })
    }

    /// Solves `self · x = b`, returning one solution if consistent.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != rows`.
    pub fn solve(&self, b: &BitVec) -> Option<BitVec> {
        assert_eq!(b.len(), self.rows, "dimension mismatch in solve");
        let mut aug: Vec<BitVec> = self
            .data
            .iter()
            .enumerate()
            .map(|(i, r)| r.concat(&BitVec::from_bits([b.get(i)])))
            .collect();
        let n = self.cols;
        let mut pivot_cols = Vec::new();
        let mut rank = 0;
        for col in 0..n {
            let Some(p) = (rank..aug.len()).find(|&r| aug[r].get(col)) else {
                continue;
            };
            aug.swap(rank, p);
            let pr = aug[rank].clone();
            for (r, row) in aug.iter_mut().enumerate() {
                if r != rank && row.get(col) {
                    row.xor_assign(&pr);
                }
            }
            pivot_cols.push(col);
            rank += 1;
        }
        // Inconsistent if a zero row has b-bit set.
        for row in &aug[rank..] {
            if row.get(n) {
                return None;
            }
        }
        let mut x = BitVec::zeros(n);
        for (r, &col) in pivot_cols.iter().enumerate() {
            if aug[r].get(n) {
                x.set(col, true);
            }
        }
        Some(x)
    }

    /// Builds the companion matrix of the paper's §2 for a degree-`k`
    /// generator polynomial: ones on the subdiagonal and the coefficients
    /// `g_0..g_{k-1}` in the last column.
    ///
    /// With state bit `i` holding the coefficient of `x^i`, this matrix
    /// implements multiplication by `x` modulo `g(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is not monic of degree ≥ 1.
    pub fn companion(poly: &Gf2Poly) -> BitMat {
        let k = poly.degree().expect("companion of zero polynomial");
        assert!(k >= 1, "companion requires degree >= 1");
        let mut a = BitMat::zeros(k, k);
        for i in 1..k {
            a.set(i, i - 1, true);
        }
        for i in 0..k {
            if poly.coeff(i) {
                a.set(i, k - 1, true);
            }
        }
        a
    }

    /// Checks whether the matrix has the companion shape of
    /// [`BitMat::companion`]: subdiagonal ones, arbitrary last column, zero
    /// elsewhere.
    pub fn is_companion(&self) -> bool {
        if self.rows != self.cols || self.rows == 0 {
            return false;
        }
        let n = self.rows;
        for i in 0..n {
            for j in 0..n.saturating_sub(1) {
                let expected = i >= 1 && j == i - 1;
                if self.get(i, j) != expected {
                    return false;
                }
            }
        }
        true
    }

    /// Reads the generator polynomial back out of a companion matrix
    /// (last column plus the monic leading term).
    ///
    /// Returns `None` if the matrix is not in companion form.
    pub fn companion_poly(&self) -> Option<Gf2Poly> {
        if !self.is_companion() {
            return None;
        }
        let k = self.rows;
        let mut p = Gf2Poly::zero();
        for i in 0..k {
            if self.get(i, k - 1) {
                p.set_coeff(i, true);
            }
        }
        p.set_coeff(k, true);
        Some(p)
    }

    /// Builds the Krylov matrix `[f, M·f, M²·f, …, M^{n-1}·f]` (columns).
    ///
    /// This is the transformation `T` of Derby's method when `M = A^M` and
    /// `f` is the arbitrary seed vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `f.len() != n`.
    pub fn krylov(&self, f: &BitVec) -> BitMat {
        assert_eq!(self.rows, self.cols, "krylov requires a square matrix");
        assert_eq!(f.len(), self.rows, "seed vector dimension mismatch");
        let mut cols = Vec::with_capacity(self.rows);
        let mut v = f.clone();
        for _ in 0..self.rows {
            cols.push(v.clone());
            v = self.mul_vec(&v);
        }
        BitMat::from_columns(&cols)
    }
}

impl std::ops::Mul for &BitMat {
    type Output = BitMat;
    fn mul(self, rhs: &BitMat) -> BitMat {
        BitMat::mul(self, rhs)
    }
}

impl std::ops::Add for &BitMat {
    type Output = BitMat;
    fn add(self, rhs: &BitMat) -> BitMat {
        BitMat::add(self, rhs)
    }
}

impl fmt::Debug for BitMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMat {}x{} [", self.rows, self.cols)?;
        for row in &self.data {
            writeln!(f, "  {row}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(bits: u64) -> Gf2Poly {
        Gf2Poly::from_u64(bits)
    }

    #[test]
    fn identity_is_neutral() {
        let i = BitMat::identity(5);
        let mut a = BitMat::zeros(5, 5);
        a.set(0, 4, true);
        a.set(3, 2, true);
        assert_eq!(&i * &a, a);
        assert_eq!(&a * &i, a);
    }

    #[test]
    fn explicit_cols_survive_an_empty_row_list() {
        assert_eq!(BitMat::from_rows(vec![]).cols(), 0);
        let m = BitMat::from_rows_with_cols(vec![], 7);
        assert_eq!((m.rows(), m.cols()), (0, 7));
        assert_eq!(m, BitMat::zeros(0, 7));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = BitMat::companion(&poly(0b10011)); // x^4+x+1
        let v = BitVec::from_u64(0b1010, 4);
        let av = a.mul_vec(&v);
        let vm = BitMat::from_columns(&[v]);
        assert_eq!(a.mul(&vm).column(0), av);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = BitMat::companion(&poly(0b1011)); // x^3+x+1
        let mut m = BitMat::identity(3);
        for e in 0..10u64 {
            assert_eq!(a.pow(e), m, "exponent {e}");
            m = m.mul(&a);
        }
    }

    #[test]
    fn companion_shape_and_poly_roundtrip() {
        let g = poly(0b10011);
        let a = BitMat::companion(&g);
        assert!(a.is_companion());
        assert_eq!(a.companion_poly().unwrap(), g);
        // Subdiagonal ones:
        assert!(a.get(1, 0) && a.get(2, 1) && a.get(3, 2));
        // Last column = g0..g3 = 1,1,0,0:
        assert!(a.get(0, 3) && a.get(1, 3) && !a.get(2, 3) && !a.get(3, 3));
    }

    #[test]
    fn companion_has_full_period_for_primitive_poly() {
        // x^4 + x + 1 is primitive: multiplication by x has order 15.
        let a = BitMat::companion(&poly(0b10011));
        assert_eq!(a.pow(15), BitMat::identity(4));
        for e in 1..15 {
            assert_ne!(a.pow(e), BitMat::identity(4), "premature identity at {e}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let a = BitMat::companion(&poly(0b10011));
        let inv = a.inverse().expect("companion of g with g0=1 is invertible");
        assert_eq!(a.mul(&inv), BitMat::identity(4));
        assert_eq!(inv.mul(&a), BitMat::identity(4));
    }

    #[test]
    fn singular_has_no_inverse() {
        let mut a = BitMat::zeros(3, 3);
        a.set(0, 0, true);
        a.set(1, 1, true);
        assert!(a.inverse().is_none());
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn solve_consistent_and_inconsistent() {
        let a = BitMat::companion(&poly(0b1011));
        let x = BitVec::from_u64(0b101, 3);
        let b = a.mul_vec(&x);
        let got = a.solve(&b).unwrap();
        assert_eq!(a.mul_vec(&got), b);

        let mut s = BitMat::zeros(2, 2);
        s.set(0, 0, true);
        s.set(1, 0, true);
        // x0 = 1 and x0 = 0 simultaneously: inconsistent.
        let b = BitVec::from_bits([true, false]);
        assert!(s.solve(&b).is_none());
    }

    #[test]
    fn transpose_involution() {
        let a = BitMat::companion(&poly(0b100101));
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hstack_columns() {
        let a = BitMat::identity(2);
        let b = BitMat::zeros(2, 3);
        let c = a.hstack(&b);
        assert_eq!(c.cols(), 5);
        assert_eq!(c.column(0), BitVec::unit(0, 2));
        assert!(c.column(4).is_zero());
    }

    #[test]
    fn krylov_of_companion_with_unit_seed_is_identity() {
        // A^j e0 = column j of the power basis; for the companion matrix of g,
        // A e_i = e_{i+1} for i < k-1, so T = I when f = e0 and M = A.
        let a = BitMat::companion(&poly(0b10011));
        let t = a.krylov(&BitVec::unit(0, 4));
        assert_eq!(t, BitMat::identity(4));
    }

    #[test]
    fn from_columns_matches_transpose_of_rows() {
        let rows = vec![BitVec::from_u64(0b101, 3), BitVec::from_u64(0b011, 3)];
        let m = BitMat::from_rows(rows.clone());
        let t = BitMat::from_columns(&rows);
        assert_eq!(m.transpose(), t);
    }
}
