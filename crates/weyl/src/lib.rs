//! Weyl-chamber machinery: canonical coordinates, the mirror-gate equation,
//! and the KAK decomposition.
//!
//! Every two-qubit unitary `U` is locally equivalent (equal up to
//! single-qubit gates) to a canonical gate `CAN(a,b,c)`; the triple
//! `(a,b,c)`, reduced into a fundamental domain called the **Weyl chamber**,
//! is a complete invariant of the equivalence class. The paper's entire
//! analysis — monodromy coverage polytopes, Haar scores, and the mirror-gate
//! trick — happens in this coordinate system.
//!
//! * [`coords::WeylCoord`] — a canonicalized chamber point, with the paper's
//!   convention: CNOT = (π/4, 0, 0), iSWAP = (π/4, π/4, 0),
//!   SWAP = (π/4, π/4, π/4).
//! * [`coords::coords_of`] — coordinates of an arbitrary 4×4 unitary via the
//!   magic-basis spectrum.
//! * [`mirror::mirror_coord`] — the paper's Eq. 1: coordinates of
//!   `SWAP · U` from coordinates of `U`.
//! * [`kak::kak_decompose`] — full Cartan decomposition
//!   `U = e^{iφ} (K1l⊗K1r) · CAN(a,b,c) · (K2l⊗K2r)`.
//!
//! ```
//! use mirage_weyl::coords::{coords_of, WeylCoord};
//! use mirage_gates::cnot;
//!
//! let c = coords_of(&cnot());
//! assert!(c.approx_eq(&WeylCoord::CNOT, 1e-8));
//! ```
//!
//! ---
//! **Owns:** [`coords::WeylCoord`], [`coords::coords_of`],
//! [`mirror::mirror_coord`], [`kak::kak_decompose`].
//! **Paper:** §II-B/§III — canonical coordinates, the mirror equation
//! (Eq. 1), and the Cartan/KAK decomposition the synthesis layer dresses.

pub mod coords;
pub mod kak;
pub mod mirror;

pub use coords::{coords_of, WeylCoord};
pub use kak::{kak_decompose, Kak};
pub use mirror::{mirror_coord, mirror_unitary};
