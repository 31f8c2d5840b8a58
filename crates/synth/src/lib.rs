//! Numerical decomposition into a basis gate, basis translation of whole
//! circuits, and the decoherence error model.
//!
//! This crate is the "decomposition" half of the paper's co-design: given a
//! two-qubit target and a basis gate (√iSWAP and friends), find the
//! interleaved single-qubit dressing that realizes — or best approximates —
//! the target with `k` basis applications (paper §III-A "numerical
//! decomposition"). On top of that:
//!
//! * [`translate`] — rewrite a routed circuit into `{basis, 1Q}` form,
//!   caching one ansatz fit per canonical-coordinate class and re-dressing
//!   it with per-instance KAK locals (the pulse sequences of paper Fig. 8).
//! * [`fidelity`] — the decoherence model of Eq. 2 applied to circuits:
//!   gate fidelity `e^{−duration/T1}`, circuit fidelity from the total gate
//!   time, and duration-weighted critical paths.
//!
//! ---
//! **Owns:** [`decompose::decompose`], [`translate::translate_circuit`],
//! [`fidelity::CircuitFidelity`].
//! **Paper:** §III-A numerical decomposition, the Eq. 2 decoherence
//! model, and the pulse sequences of Fig. 8.

pub mod decompose;
pub mod fidelity;
pub mod translate;

pub use decompose::{decompose, DecompOptions, Decomposition};
pub use fidelity::CircuitFidelity;
pub use translate::{translate_circuit, TranslationStats};
