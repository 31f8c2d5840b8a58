//! Canonical (Weyl-chamber) coordinates of two-qubit unitaries.
//!
//! # Convention
//!
//! We use the paper's *positive canonical basis*: the chamber is
//!
//! ```text
//! W = { (a,b,c) : 0 ≤ c ≤ b ≤ a,  b ≤ π/4,  a + b ≤ π/2 }
//! ```
//!
//! a tetrahedron with vertices I=(0,0,0), (π/2,0,0) (≡ I on the base),
//! iSWAP=(π/4,π/4,0) and SWAP=(π/4,π/4,π/4). On the base plane `c = 0`
//! the points `(a,b,0)` and `(π/2−a,b,0)` describe the same equivalence
//! class; we canonicalize those to `a ≤ π/4`. Points with `c > 0` in the
//! region `a > π/4` are genuinely distinct classes (e.g. the mirrors of
//! small CPHASE gates).

use mirage_gates::magic_basis;
use mirage_math::eig::{eigvals4, simultaneous_diag4};
use mirage_math::{wrap_mod, Complex64, Mat4, PI_2, PI_4};

/// Eigenvalues of a complex *symmetric unitary* matrix via simultaneous
/// Jacobi diagonalization of its (commuting) real and imaginary parts.
/// Returns `None` when the parts fail to co-diagonalize (non-symmetric or
/// non-unitary input).
fn jacobi_eigs(g: &Mat4) -> Option<[Complex64; 4]> {
    let mut re = [[0.0f64; 4]; 4];
    let mut im = [[0.0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            re[i][j] = g.e[i][j].re;
            im[i][j] = g.e[i][j].im;
        }
    }
    let p = simultaneous_diag4(&re, &im, 1e-8)?;
    let mut out = [Complex64::ZERO; 4];
    for (j, o) in out.iter_mut().enumerate() {
        let mut lam = Complex64::ZERO;
        // λ_j = (Pᵀ G P)_jj = Σ_{ik} P_ij G_ik P_kj.
        for i in 0..4 {
            for k in 0..4 {
                lam += g.e[i][k] * (p[i][j] * p[k][j]);
            }
        }
        *o = lam;
    }
    Some(out)
}

/// Tolerance used when canonicalizing base-plane (`c ≈ 0`) points.
const FOLD_EPS: f64 = 1e-9;

/// A canonicalized point of the Weyl chamber.
///
/// Construct through [`WeylCoord::canonicalize`] (which accepts any real
/// triple) or [`coords_of`] (from a unitary). The `a`, `b`, `c` fields are
/// guaranteed to satisfy the chamber inequalities above.
#[derive(Debug, Clone, Copy)]
pub struct WeylCoord {
    /// First coordinate, in `[0, π/2]`.
    pub a: f64,
    /// Second coordinate, in `[0, π/4]`, with `b ≤ a` and `a + b ≤ π/2`.
    pub b: f64,
    /// Third coordinate, in `[0, b]`.
    pub c: f64,
}

impl WeylCoord {
    /// The identity class.
    pub const IDENTITY: WeylCoord = WeylCoord {
        a: 0.0,
        b: 0.0,
        c: 0.0,
    };
    /// CNOT / CZ / CPHASE(π) class.
    pub const CNOT: WeylCoord = WeylCoord {
        a: PI_4,
        b: 0.0,
        c: 0.0,
    };
    /// iSWAP / CNS / DCNOT class.
    pub const ISWAP: WeylCoord = WeylCoord {
        a: PI_4,
        b: PI_4,
        c: 0.0,
    };
    /// SWAP class.
    pub const SWAP: WeylCoord = WeylCoord {
        a: PI_4,
        b: PI_4,
        c: PI_4,
    };
    /// The B gate (π/4, π/8, 0) — the "midpoint" gate between CNOT and
    /// iSWAP, optimal for two-application coverage.
    pub const B_GATE: WeylCoord = WeylCoord {
        a: PI_4,
        b: PI_4 / 2.0,
        c: 0.0,
    };

    /// Coordinates of `iSWAP^α`: `(απ/4, απ/4, 0)` for `α ∈ [0, 1]`.
    pub fn iswap_alpha(alpha: f64) -> WeylCoord {
        WeylCoord::canonicalize(alpha * PI_4, alpha * PI_4, 0.0)
    }

    /// Coordinates of `CPHASE(θ)`: `(|θ|/4, 0, 0)` for `θ ∈ [−π, π]`.
    pub fn cphase(theta: f64) -> WeylCoord {
        WeylCoord::canonicalize(theta.abs() / 4.0, 0.0, 0.0)
    }

    /// Reduce an arbitrary real triple into the chamber using the Weyl-group
    /// moves (single-coordinate π/2 shifts, pairwise sign flips,
    /// permutations, and the base-plane fold).
    pub fn canonicalize(a: f64, b: f64, c: f64) -> WeylCoord {
        // 1. Shift every coordinate into [-π/4, π/4] (mod π/2 moves).
        let reduce = |x: f64| {
            let m = wrap_mod(x, PI_2); // [0, π/2)
            if m > PI_4 {
                m - PI_2 // (-π/4, 0)
            } else {
                m
            }
        };
        let mut v = [reduce(a), reduce(b), reduce(c)];

        // 2. Sort by decreasing absolute value.
        v.sort_by(|x, y| y.abs().total_cmp(&x.abs()));

        // 3. Make the two largest non-negative (pairwise sign flips move all
        //    negativity into the last slot).
        if v[0] < 0.0 {
            v[0] = -v[0];
            v[2] = -v[2];
        }
        if v[1] < 0.0 {
            v[1] = -v[1];
            v[2] = -v[2];
        }
        // Re-sort: flipping signs cannot reorder absolute values, so v is
        // still sorted; now π/4 ≥ v0 ≥ v1 ≥ |v2|.

        // 4. Boundary identification: when v0 = π/4 the classes (π/4, y, z)
        //    and (π/4, y, −z) coincide.
        if (v[0] - PI_4).abs() < FOLD_EPS && v[2] < 0.0 {
            v[2] = -v[2];
            // Keep ordering v1 ≥ v2 intact: |v2| unchanged.
        }

        // 5. Map from the "Cirq region" (π/4 ≥ x ≥ y ≥ |z|, z possibly < 0)
        //    into the paper chamber: a negative z marks the mirrored half
        //    a > π/4.
        let (mut a, b, c) = if v[2] >= 0.0 {
            (v[0], v[1], v[2])
        } else {
            (PI_2 - v[0], v[1], -v[2])
        };

        // 6. Base-plane fold: (a, b, 0) ≡ (π/2 − a, b, 0); choose a ≤ π/4.
        if c.abs() < FOLD_EPS && a > PI_4 {
            a = PI_2 - a;
        }

        // Clamp tiny negatives arising from rounding.
        WeylCoord {
            a: a.max(0.0),
            b: b.max(0.0),
            c: c.max(0.0),
        }
    }

    /// Euclidean distance to another chamber point.
    pub fn distance(&self, other: &WeylCoord) -> f64 {
        let da = self.a - other.a;
        let db = self.b - other.b;
        let dc = self.c - other.c;
        (da * da + db * db + dc * dc).sqrt()
    }

    /// Approximate equality within `tol`, accounting for the base-plane fold
    /// (so `(π/2−a, b, 0)` matches `(a, b, 0)` even if one side skipped the
    /// fold due to `c` sitting right at the tolerance).
    pub fn approx_eq(&self, other: &WeylCoord, tol: f64) -> bool {
        if self.distance(other) <= tol {
            return true;
        }
        if self.c.abs() <= tol && other.c.abs() <= tol {
            let folded = WeylCoord {
                a: PI_2 - other.a,
                b: other.b,
                c: other.c,
            };
            return self.distance(&folded) <= tol;
        }
        false
    }

    /// True when the point satisfies the chamber inequalities within `tol`.
    pub fn in_chamber(&self, tol: f64) -> bool {
        self.c >= -tol
            && self.b >= self.c - tol
            && self.a >= self.b - tol
            && self.b <= PI_4 + tol
            && self.a + self.b <= PI_2 + tol
    }

    /// True when this is (numerically) the identity class.
    pub fn is_identity(&self, tol: f64) -> bool {
        self.approx_eq(&WeylCoord::IDENTITY, tol)
    }

    /// Quantize onto a fine grid for use as a hash key (the LRU coordinate
    /// cache of paper Fig. 13a). The grid step is `π/2 / 4096` ≈ 4e-4, far
    /// coarser than coordinate accuracy and far finer than any decision
    /// boundary the router cares about.
    pub fn quantized(&self) -> (u16, u16, u16) {
        let q = |x: f64| ((x / PI_2 * 4096.0).round() as i32).clamp(0, 4096) as u16;
        (q(self.a), q(self.b), q(self.c))
    }
}

impl std::fmt::Display for WeylCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({:.4}π, {:.4}π, {:.4}π)",
            self.a / std::f64::consts::PI,
            self.b / std::f64::consts::PI,
            self.c / std::f64::consts::PI
        )
    }
}

impl PartialEq for WeylCoord {
    /// Equality at the resolution of [`WeylCoord::quantized`], consistent
    /// with the `Hash` implementation (both are used by the coordinate
    /// cache).
    fn eq(&self, other: &Self) -> bool {
        self.quantized() == other.quantized()
    }
}

impl Eq for WeylCoord {}

impl std::hash::Hash for WeylCoord {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.quantized().hash(state);
    }
}

/// Compute the canonical coordinates of an arbitrary two-qubit unitary.
///
/// Conjugates into the magic basis, reads the eigenphases of `G = MᵀM`
/// (which equal twice the canonical phases), solves the small linear system,
/// and canonicalizes. The result is invariant under multiplication by
/// single-qubit gates on either side and by global phase.
///
/// # Panics
///
/// Does not panic for unitary input. Garbage in, garbage out for non-unitary
/// matrices.
pub fn coords_of(u: &Mat4) -> WeylCoord {
    let su = u.to_special();
    let bm = magic_basis();
    let m = su.conjugate_by(&bm);
    let g = m.transpose().mul(&m);

    // Preferred route: simultaneous Jacobi diagonalization of the commuting
    // real/imaginary parts of G — exact for degenerate spectra (identity,
    // CNOT, SWAP all have repeated eigenvalues, where polynomial root
    // finding loses precision). Fall back to the characteristic polynomial
    // if the Jacobi path declines (it does not for unitary input).
    let eigs = jacobi_eigs(&g).unwrap_or_else(|| eigvals4(&g));
    // θ_j = arg(λ_j)/2 ∈ (−π/2, π/2].
    let mut theta: Vec<f64> = eigs.iter().map(|z| z.arg() / 2.0).collect();

    // det(G) = 1 forces Σθ ≡ 0 (mod π); restore Σθ ≡ 0 (mod 2π) by flipping
    // one phase by π (a Weyl move) when the sum sits at π.
    let s = wrap_mod(theta.iter().sum::<f64>(), std::f64::consts::TAU);
    let dist_to = |x: f64, t: f64| {
        let d = (x - t).abs();
        d.min(std::f64::consts::TAU - d)
    };
    if dist_to(s, std::f64::consts::PI) < dist_to(s, 0.0) {
        theta[0] += std::f64::consts::PI;
    }

    // Invert θ0 = a−b+c, θ1 = a+b−c, θ3 = −a+b+c (any consistent slot
    // assignment differs by a Weyl move, which canonicalization removes).
    let a = (theta[0] + theta[1]) / 2.0;
    let b = (theta[1] + theta[3]) / 2.0;
    let c = (theta[0] + theta[3]) / 2.0;
    WeylCoord::canonicalize(a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_gates::{
        can, cnot, cns, cphase, cz, haar_1q, haar_2q, iswap, iswap_alpha, pswap, sqrt_iswap, swap,
    };
    use mirage_math::{Mat2, Mat4, Rng};

    const TOL: f64 = 1e-7;

    #[test]
    fn named_gate_coordinates() {
        assert!(coords_of(&Mat4::identity()).approx_eq(&WeylCoord::IDENTITY, TOL));
        assert!(coords_of(&cnot()).approx_eq(&WeylCoord::CNOT, TOL));
        assert!(coords_of(&cz()).approx_eq(&WeylCoord::CNOT, TOL));
        assert!(coords_of(&iswap()).approx_eq(&WeylCoord::ISWAP, TOL));
        assert!(coords_of(&swap()).approx_eq(&WeylCoord::SWAP, TOL));
        assert!(coords_of(&cns()).approx_eq(&WeylCoord::ISWAP, TOL));
    }

    #[test]
    fn iswap_family_coordinates() {
        for alpha in [0.25, 1.0 / 3.0, 0.5, 0.75, 1.0] {
            let expect = WeylCoord::iswap_alpha(alpha);
            let got = coords_of(&iswap_alpha(alpha));
            assert!(got.approx_eq(&expect, TOL), "α={alpha}: {got} vs {expect}");
        }
    }

    #[test]
    fn sqrt_iswap_coordinate() {
        let got = coords_of(&sqrt_iswap());
        let expect = WeylCoord::canonicalize(PI_4 / 2.0, PI_4 / 2.0, 0.0);
        assert!(got.approx_eq(&expect, TOL));
    }

    #[test]
    fn cphase_family_coordinates() {
        for theta in [0.2, 0.9, 1.5, 2.5, std::f64::consts::PI] {
            let got = coords_of(&cphase(theta));
            let expect = WeylCoord::cphase(theta);
            assert!(got.approx_eq(&expect, TOL), "θ={theta}: {got} vs {expect}");
        }
    }

    #[test]
    fn pswap_family_coordinates() {
        // pSWAP(θ) = SWAP·CPHASE(θ) should sit at (π/4, π/4, π/4 − θ/4).
        for theta in [0.3, 1.0, 2.0, 3.0] {
            let got = coords_of(&pswap(theta));
            let expect = WeylCoord::canonicalize(PI_4, PI_4, PI_4 - theta / 4.0);
            assert!(got.approx_eq(&expect, TOL), "θ={theta}: {got} vs {expect}");
        }
    }

    #[test]
    fn can_roundtrip_inside_chamber() {
        let mut rng = Rng::new(42);
        for _ in 0..200 {
            // Sample a chamber point by canonicalizing a random triple.
            let w = WeylCoord::canonicalize(
                rng.uniform_range(-2.0, 2.0),
                rng.uniform_range(-2.0, 2.0),
                rng.uniform_range(-2.0, 2.0),
            );
            assert!(w.in_chamber(1e-12), "{w} not in chamber");
            let got = coords_of(&can(w.a, w.b, w.c));
            assert!(got.approx_eq(&w, 1e-6), "{w} -> {got}");
        }
    }

    #[test]
    fn local_invariance() {
        let mut rng = Rng::new(7);
        for _ in 0..100 {
            let u = haar_2q(&mut rng);
            let base = coords_of(&u);
            let l = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
            let r = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
            let dressed = l.mul(&u).mul(&r);
            let got = coords_of(&dressed);
            assert!(got.approx_eq(&base, 1e-6), "{base} vs {got}");
        }
    }

    #[test]
    fn qubit_reversal_invariance() {
        let mut rng = Rng::new(8);
        for _ in 0..50 {
            let u = haar_2q(&mut rng);
            let a = coords_of(&u);
            let b = coords_of(&u.reverse_qubits());
            assert!(a.approx_eq(&b, 1e-6));
        }
    }

    #[test]
    fn global_phase_invariance() {
        let mut rng = Rng::new(9);
        let u = haar_2q(&mut rng);
        let v = u.scale(mirage_math::Complex64::cis(1.23));
        assert!(coords_of(&u).approx_eq(&coords_of(&v), 1e-7));
    }

    #[test]
    fn adjoint_has_same_coordinates() {
        // U† is in the transpose-equivalent class; for the chamber with the
        // base fold, CAN(a,b,c)† ~ CAN(a,b,c) ... specifically the daggered
        // class mirrors c → −c, which canonicalization maps back.
        for g in [cnot(), iswap(), sqrt_iswap(), cphase(0.8)] {
            let a = coords_of(&g);
            let b = coords_of(&g.adjoint());
            assert!(a.approx_eq(&b, 1e-6), "{a} vs {b}");
        }
    }

    #[test]
    fn base_plane_fold() {
        // CAN(π/2 − t, b, 0) ≡ CAN(t, b, 0).
        let t = 0.3;
        let b = 0.2;
        let x = coords_of(&can(PI_2 - t, b, 0.0));
        let y = coords_of(&can(t, b, 0.0));
        assert!(x.approx_eq(&y, 1e-6), "{x} vs {y}");
    }

    #[test]
    fn canonicalize_idempotent() {
        let mut rng = Rng::new(10);
        for _ in 0..200 {
            let w = WeylCoord::canonicalize(
                rng.uniform_range(-4.0, 4.0),
                rng.uniform_range(-4.0, 4.0),
                rng.uniform_range(-4.0, 4.0),
            );
            let w2 = WeylCoord::canonicalize(w.a, w.b, w.c);
            assert!(w.approx_eq(&w2, 1e-9), "{w} vs {w2}");
        }
    }

    #[test]
    fn mirrored_half_points_exist() {
        // The mirror of CPHASE(0.4): (π/4, π/4, π/4 − 0.1) has a = π/4 but a
        // general pSWAP-like gate built directly can live at a > π/4 — e.g.
        // CAN(0.35π, 0.1π, 0.05π).
        let w = WeylCoord::canonicalize(
            0.35 * std::f64::consts::PI,
            0.1 * std::f64::consts::PI,
            0.05 * std::f64::consts::PI,
        );
        assert!(w.a > PI_4);
        assert!(w.in_chamber(1e-12));
        let got = coords_of(&can(w.a, w.b, w.c));
        assert!(got.approx_eq(&w, 1e-6), "{w} vs {got}");
    }

    #[test]
    fn quantized_is_stable_under_noise() {
        let w = WeylCoord::canonicalize(0.3, 0.2, 0.1);
        let v = WeylCoord::canonicalize(0.3 + 1e-9, 0.2 - 1e-9, 0.1);
        assert_eq!(w.quantized(), v.quantized());
    }

    #[test]
    fn kron_of_locals_is_identity_class() {
        let mut rng = Rng::new(11);
        let u = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
        assert!(coords_of(&u).is_identity(1e-6));
    }

    #[test]
    fn display_renders() {
        let s = format!("{}", WeylCoord::CNOT);
        assert!(s.contains("0.25"));
    }

    #[test]
    fn hash_consistent_with_quantization() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(WeylCoord::CNOT);
        assert!(set.contains(&WeylCoord::canonicalize(PI_4, 1e-12, 0.0)));
    }

    #[test]
    fn locals_of_locals() {
        // (A⊗B)·(C⊗D) stays identity class.
        let mut rng = Rng::new(12);
        let u = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
        let v = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
        assert!(coords_of(&u.mul(&v)).is_identity(1e-6));
    }

    #[test]
    fn random_unitaries_land_in_chamber() {
        let mut rng = Rng::new(13);
        for _ in 0..300 {
            let w = coords_of(&haar_2q(&mut rng));
            assert!(w.in_chamber(1e-9), "{w}");
        }
    }

    #[test]
    fn b_gate_constant() {
        let b = can(
            WeylCoord::B_GATE.a,
            WeylCoord::B_GATE.b,
            WeylCoord::B_GATE.c,
        );
        assert!(coords_of(&b).approx_eq(&WeylCoord::B_GATE, TOL));
    }

    #[test]
    fn product_of_cnot_with_locals_changes_class() {
        // CNOT·(A⊗B)·CNOT generically lands elsewhere; just verify it stays
        // in the chamber and is generically not CNOT's class.
        let mut rng = Rng::new(14);
        let mut moved = 0;
        for _ in 0..20 {
            let l = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
            let u = cnot().mul(&l).mul(&cnot());
            let w = coords_of(&u);
            assert!(w.in_chamber(1e-9));
            if !w.approx_eq(&WeylCoord::CNOT, 1e-3) {
                moved += 1;
            }
        }
        assert!(moved > 10);
    }

    #[test]
    fn hadamard_pair_identity_class() {
        let u = Mat4::kron(&Mat2::hadamard_like(), &Mat2::hadamard_like());
        assert!(coords_of(&u).is_identity(1e-7));
    }
}
