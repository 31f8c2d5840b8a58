//! 4×4 complex matrices (two-qubit operators).

use crate::hash::WordMixMap;
use crate::{Complex64, Mat2};
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A 4×4 complex matrix in row-major order.
///
/// The qubit ordering convention is little-endian on basis states
/// `|q1 q0⟩ ∈ {|00⟩, |01⟩, |10⟩, |11⟩}` where column index `c = 2·q1 + q0`.
///
/// ```
/// use mirage_math::{Mat2, Mat4};
/// let u = Mat4::kron(&Mat2::hadamard_like(), &Mat2::identity());
/// assert!(u.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Row-major entries.
    pub e: [[Complex64; 4]; 4],
}

/// Values computed once per distinct matrix, keyed on the matrix's exact
/// bits, for callers that meet a few matrices many times: a consolidated
/// circuit repeats its blocks, and a routed one its SWAPs. A value that is
/// a function of the matrix reads the same from the memo as computed
/// afresh.
///
/// ```
/// use mirage_math::mat4::MatrixMemo;
/// use mirage_math::Mat4;
/// let mut memo = MatrixMemo::default();
/// let mut calls = 0;
/// for u in [Mat4::swap(), Mat4::identity(), Mat4::swap()] {
///     memo.get_or_insert_with(&u, |_| {
///         calls += 1;
///         calls
///     });
/// }
/// assert_eq!(calls, 2);
/// assert_eq!(memo.get_or_insert_with(&Mat4::swap(), |_| 0), 1);
/// // Keys are exact bits: a signed zero makes another matrix.
/// let mut u = Mat4::swap();
/// u.e[0][1].im = -0.0;
/// assert_eq!(memo.get_or_insert_with(&u, |_| 3), 3);
/// ```
#[derive(Debug)]
pub struct MatrixMemo<V>(WordMixMap<[[[u64; 2]; 4]; 4], V>);

impl<V> Default for MatrixMemo<V> {
    fn default() -> Self {
        MatrixMemo(HashMap::default())
    }
}

impl<V: Copy> MatrixMemo<V> {
    /// The value stored for `u`, or `f(u)` stored on first sight.
    pub fn get_or_insert_with(&mut self, u: &Mat4, f: impl FnOnce(&Mat4) -> V) -> V {
        let bits = u.e.map(|row| row.map(|z| [z.re.to_bits(), z.im.to_bits()]));
        *self.0.entry(bits).or_insert_with(|| f(u))
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::zero()
    }
}

impl Mat4 {
    /// All-zero matrix.
    pub fn zero() -> Self {
        Mat4 {
            e: [[Complex64::ZERO; 4]; 4],
        }
    }

    /// Identity matrix.
    pub fn identity() -> Self {
        let mut m = Mat4::zero();
        for i in 0..4 {
            m.e[i][i] = Complex64::ONE;
        }
        m
    }

    /// The SWAP gate permutation matrix.
    pub fn swap() -> Self {
        let mut m = Mat4::zero();
        m.e[0][0] = Complex64::ONE;
        m.e[1][2] = Complex64::ONE;
        m.e[2][1] = Complex64::ONE;
        m.e[3][3] = Complex64::ONE;
        m
    }

    /// Build from a row-major array of rows.
    pub fn from_rows(rows: [[Complex64; 4]; 4]) -> Self {
        Mat4 { e: rows }
    }

    /// Build a diagonal matrix from four entries.
    pub fn diag(d: [Complex64; 4]) -> Self {
        let mut m = Mat4::zero();
        for i in 0..4 {
            m.e[i][i] = d[i];
        }
        m
    }

    /// Kronecker product `a ⊗ b` (a acts on the high qubit).
    pub fn kron(a: &Mat2, b: &Mat2) -> Mat4 {
        let mut m = Mat4::zero();
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        m.e[2 * i + k][2 * j + l] = a.e[i][j] * b.e[k][l];
                    }
                }
            }
        }
        m
    }

    /// Matrix product `self · rhs`.
    #[allow(clippy::should_implement_trait)] // by-reference operand; a std::ops::Mul impl would force copies
    pub fn mul(self, rhs: &Mat4) -> Mat4 {
        let mut out = Mat4::zero();
        for i in 0..4 {
            for k in 0..4 {
                let a = self.e[i][k];
                if a == Complex64::ZERO {
                    continue;
                }
                for j in 0..4 {
                    out.e[i][j] += a * rhs.e[k][j];
                }
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat4 {
        let mut out = Mat4::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.e[j][i] = self.e[i][j].conj();
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Mat4 {
        let mut out = Mat4::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.e[j][i] = self.e[i][j];
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Mat4 {
        let mut out = *self;
        for row in out.e.iter_mut() {
            for v in row.iter_mut() {
                *v = v.conj();
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> Complex64 {
        (0..4).map(|i| self.e[i][i]).sum()
    }

    /// Determinant via LU decomposition with partial pivoting.
    pub fn det(&self) -> Complex64 {
        let mut a = self.e;
        let mut det = Complex64::ONE;
        for col in 0..4 {
            // Pivot: largest magnitude in this column at or below the diagonal.
            let mut piv = col;
            let mut piv_mag = a[col][col].abs();
            for r in (col + 1)..4 {
                let m = a[r][col].abs();
                if m > piv_mag {
                    piv_mag = m;
                    piv = r;
                }
            }
            if piv_mag == 0.0 {
                return Complex64::ZERO;
            }
            if piv != col {
                a.swap(piv, col);
                det = -det;
            }
            det *= a[col][col];
            let inv = a[col][col].inv();
            for r in (col + 1)..4 {
                let f = a[r][col] * inv;
                for c in col..4 {
                    let sub = f * a[col][c];
                    a[r][c] -= sub;
                }
            }
        }
        det
    }

    /// Scale every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> Mat4 {
        let mut out = *self;
        for row in out.e.iter_mut() {
            for v in row.iter_mut() {
                *v *= k;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.e
            .iter()
            .flatten()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entry magnitude of `self − other`.
    pub fn max_diff(&self, other: &Mat4) -> f64 {
        let mut m = 0.0f64;
        for i in 0..4 {
            for j in 0..4 {
                m = m.max((self.e[i][j] - other.e[i][j]).abs());
            }
        }
        m
    }

    /// True when `‖self†·self − I‖∞ ≤ tol` entry-wise.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.adjoint().mul(self).approx_eq(&Mat4::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat4, tol: f64) -> bool {
        self.max_diff(other) <= tol
    }

    /// Approximate equality up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &Mat4, tol: f64) -> bool {
        let mut best = (0usize, 0usize);
        let mut best_mag = -1.0;
        for i in 0..4 {
            for j in 0..4 {
                let m = self.e[i][j].abs();
                if m > best_mag {
                    best_mag = m;
                    best = (i, j);
                }
            }
        }
        if best_mag < tol {
            return self.approx_eq(other, tol);
        }
        let (i, j) = best;
        if other.e[i][j].abs() < tol * best_mag {
            return false;
        }
        let phase = self.e[i][j] / other.e[i][j];
        let phase = phase / phase.abs();
        self.approx_eq(&other.scale(phase), tol)
    }

    /// Normalize a unitary into SU(4) by dividing out `det^{1/4}`.
    ///
    /// The result has determinant 1 (up to numerical error). Only meaningful
    /// when `self` is (close to) unitary.
    pub fn to_special(&self) -> Mat4 {
        let d = self.det();
        let phase = d.nth_root(4);
        self.scale(phase.inv())
    }

    /// `self` conjugated: `P† · self · P`.
    pub fn conjugate_by(&self, p: &Mat4) -> Mat4 {
        p.adjoint().mul(self).mul(p)
    }

    /// Swap which qubit is "high" and which is "low": `SWAP · self · SWAP`.
    pub fn reverse_qubits(&self) -> Mat4 {
        let s = Mat4::swap();
        s.mul(self).mul(&s)
    }

    /// Hilbert–Schmidt inner product `Tr(self† · other)`.
    pub fn hs_inner(&self, other: &Mat4) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                acc += self.e[i][j].conj() * other.e[i][j];
            }
        }
        acc
    }

    /// Average-gate-fidelity between two unitaries:
    /// `F = (|Tr(U†V)|² + d) / (d(d+1))` with `d = 4`.
    ///
    /// Equal to 1 iff the unitaries agree up to global phase.
    pub fn average_gate_fidelity(&self, other: &Mat4) -> f64 {
        let t = self.hs_inner(other).norm_sqr();
        (t + 4.0) / 20.0
    }
}

impl Add for Mat4 {
    type Output = Mat4;
    fn add(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.e[i][j] = self.e[i][j] + rhs.e[i][j];
            }
        }
        out
    }
}

impl Sub for Mat4 {
    type Output = Mat4;
    fn sub(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.e[i][j] = self.e[i][j] - rhs.e[i][j];
            }
        }
        out
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        Mat4::mul(self, &rhs)
    }
}

impl fmt::Display for Mat4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.e {
            writeln!(f, "[{} {} {} {}]", row[0], row[1], row[2], row[3])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn swap_involutive_and_unitary() {
        let s = Mat4::swap();
        assert!(s.is_unitary(TOL));
        assert!(s.mul(&s).approx_eq(&Mat4::identity(), TOL));
    }

    #[test]
    fn kron_of_identities() {
        let k = Mat4::kron(&Mat2::identity(), &Mat2::identity());
        assert!(k.approx_eq(&Mat4::identity(), TOL));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = Mat2::hadamard_like();
        let b = Mat2::from_real(0.0, 1.0, 1.0, 0.0);
        let c = Mat2::from_real(1.0, 0.0, 0.0, -1.0);
        let d = Mat2::hadamard_like();
        let lhs = Mat4::kron(&a, &b).mul(&Mat4::kron(&c, &d));
        let rhs = Mat4::kron(&a.mul(&c), &b.mul(&d));
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn det_of_diag() {
        let m = Mat4::diag([
            Complex64::real(2.0),
            Complex64::real(3.0),
            Complex64::I,
            Complex64::real(1.0),
        ]);
        assert!(m.det().approx_eq(Complex64::new(0.0, 6.0), TOL));
    }

    #[test]
    fn det_multiplicative() {
        let a = Mat4::kron(&Mat2::hadamard_like(), &Mat2::from_real(0.0, 1.0, 1.0, 0.0));
        let b = Mat4::swap();
        let lhs = a.mul(&b).det();
        let rhs = a.det() * b.det();
        assert!(lhs.approx_eq(rhs, 1e-10));
    }

    #[test]
    fn det_of_swap_is_minus_one() {
        assert!(Mat4::swap().det().approx_eq(Complex64::real(-1.0), TOL));
    }

    #[test]
    fn det_singular_matrix() {
        let mut m = Mat4::zero();
        m.e[0][0] = Complex64::ONE;
        assert!(m.det().approx_eq(Complex64::ZERO, TOL));
    }

    #[test]
    fn to_special_has_unit_det() {
        let u = Mat4::swap().scale(Complex64::cis(0.3));
        let s = u.to_special();
        assert!(s.det().approx_eq(Complex64::ONE, 1e-10));
    }

    #[test]
    fn adjoint_reverses_product() {
        let a = Mat4::kron(&Mat2::hadamard_like(), &Mat2::identity());
        let b = Mat4::swap();
        assert!(a
            .mul(&b)
            .adjoint()
            .approx_eq(&b.adjoint().mul(&a.adjoint()), TOL));
    }

    #[test]
    fn average_gate_fidelity_self_is_one() {
        let u = Mat4::kron(&Mat2::hadamard_like(), &Mat2::hadamard_like());
        assert!((u.average_gate_fidelity(&u) - 1.0).abs() < TOL);
        let v = u.scale(Complex64::cis(1.1));
        assert!((u.average_gate_fidelity(&v) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn average_gate_fidelity_orthogonal() {
        // Identity vs SWAP: Tr(SWAP) = 2, so F = (4+4)/20 = 0.4.
        let f = Mat4::identity().average_gate_fidelity(&Mat4::swap());
        assert!((f - 0.4).abs() < TOL);
    }

    #[test]
    fn phase_insensitive_compare() {
        let u = Mat4::swap();
        let v = u.scale(Complex64::cis(-2.0));
        assert!(u.approx_eq_up_to_phase(&v, 1e-10));
        assert!(!u.approx_eq(&v, 1e-10));
    }

    #[test]
    fn reverse_qubits_on_kron_swaps_factors() {
        let a = Mat2::hadamard_like();
        let b = Mat2::from_real(0.0, 1.0, 1.0, 0.0);
        let lhs = Mat4::kron(&a, &b).reverse_qubits();
        let rhs = Mat4::kron(&b, &a);
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn trace_of_identity() {
        assert!(Mat4::identity()
            .trace()
            .approx_eq(Complex64::real(4.0), TOL));
    }
}
