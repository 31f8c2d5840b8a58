//! Complex dense linear algebra substrate for the MIRAGE reproduction.
//!
//! The paper's Python implementation leans on NumPy/SciPy for all of its
//! numerics. This crate rebuilds exactly the slice of that stack the
//! transpiler needs, from scratch:
//!
//! * [`Complex64`] — double-precision complex scalar with the full arithmetic
//!   surface (including [`Complex64::exp`], [`Complex64::sqrt`], polar forms).
//! * [`Mat2`] / [`Mat4`] — stack-allocated 2×2 and 4×4 complex matrices with
//!   products, adjoints, determinants, Kronecker products and unitarity
//!   checks.
//! * [`qr::qr4`] — modified Gram–Schmidt QR factorization of 4×4 complex
//!   matrices (used to turn Ginibre samples into Haar-random unitaries).
//! * [`eig`] — a Jacobi eigensolver for real-symmetric 4×4 matrices plus a
//!   characteristic-polynomial (Faddeev–LeVerrier + Durand–Kerner) eigenvalue
//!   routine for general complex 4×4 matrices.
//! * [`poly`] — complex polynomial root finding (quartics and below).
//! * [`hash`] — FNV-1a, the stable hash behind every fingerprint and
//!   checksum in the workspace, and `WordMix`, the cheap hasher of
//!   short-lived hot-path maps.
//! * [`rng`] — a small deterministic PRNG (SplitMix64 seeding into
//!   xoshiro256**) so every experiment in the repository is reproducible from
//!   a single `u64` seed.
//!
//! # Example
//!
//! ```
//! use mirage_math::{Complex64, Mat4};
//!
//! let swap = Mat4::swap();
//! assert!(swap.is_unitary(1e-12));
//! assert!((swap.mul(&swap)).approx_eq(&Mat4::identity(), 1e-12));
//! ```
//!
//! ---
//! **Owns:** [`Complex64`], [`Mat2`], [`Mat4`], [`qr::qr4`], [`eig`],
//! [`poly`], [`rng::Rng`], [`hash::fnv1a`].
//! **Paper:** the numerical substrate under §§III–V (no section of its
//! own; replaces the Python implementation's NumPy/SciPy layer).

pub mod complex;
pub mod eig;
pub mod hash;
pub mod mat2;
pub mod mat4;
pub mod optimize;
pub mod poly;
pub mod qr;
pub mod rng;

pub use complex::Complex64;
pub use mat2::Mat2;
pub use mat4::Mat4;
pub use rng::Rng;

/// Machine tolerance used as the default for approximate comparisons across
/// the workspace. Matrix reconstruction errors after eigendecompositions are
/// typically far below this.
pub const EPS: f64 = 1e-9;

/// Two π. Convenience constant mirroring `std::f64::consts`.
pub const TAU: f64 = std::f64::consts::TAU;

/// π/2, the length of the Weyl-chamber edge in canonical coordinates.
pub const PI_2: f64 = std::f64::consts::FRAC_PI_2;

/// π/4, the canonical coordinate of CNOT along the first axis.
pub const PI_4: f64 = std::f64::consts::FRAC_PI_4;

/// Reduce `x` into `[0, m)` by true mathematical modulus (result never
/// negative, unlike `%`).
///
/// ```
/// use mirage_math::wrap_mod;
/// assert!((wrap_mod(-0.1, 1.0) - 0.9).abs() < 1e-12);
/// ```
pub fn wrap_mod(x: f64, m: f64) -> f64 {
    let r = x % m;
    if r < 0.0 {
        r + m
    } else {
        r
    }
}

/// Approximate scalar comparison with absolute tolerance.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_mod_positive() {
        assert!((wrap_mod(3.5, 1.0) - 0.5).abs() < 1e-12);
        assert!((wrap_mod(0.25, 1.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wrap_mod_negative() {
        assert!((wrap_mod(-0.25, 1.0) - 0.75).abs() < 1e-12);
        assert!((wrap_mod(-2.0, 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_mod_zero() {
        assert_eq!(wrap_mod(0.0, 1.0), 0.0);
    }

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }
}
