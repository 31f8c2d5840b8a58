//! Coverage polytopes, Haar scores, and approximate-decomposition Monte
//! Carlo — the reproduction of the paper's monodromy machinery (§III).
//!
//! A *coverage set* describes, for a basis gate `B` and each circuit depth
//! `k`, the region of the Weyl chamber reachable by an ansatz of `k`
//! applications of `B` interleaved with arbitrary single-qubit gates.
//! Monodromy theory guarantees these regions are (unions of) convex
//! polytopes in canonical coordinates; the paper computes them with the
//! `monodromy` package, and we reconstruct them by sampling the ansatz and
//! taking convex hulls (see `DESIGN.md` for the validation anchors).
//!
//! Modules:
//!
//! * [`geom`] — low-level 3D geometry: convex hulls (quickhull with
//!   degenerate-rank fallbacks) and halfspace polytopes with membership
//!   and nearest-point queries.
//! * [`set`] — [`set::CoverageSet`]: per-depth regions for a basis gate,
//!   standard or mirror-inclusive, plus minimum-cost queries answered by
//!   walking the per-level polytopes.
//! * [`atlas`] — serialized coverage atlases: checked-in binaries of the
//!   stock-basis sets (√iSWAP, CNOT, CZ) loaded at `Target` construction instead of re-running quickhull,
//!   checksummed and fingerprint-pinned.
//! * [`haar`] — Haar scores and average fidelities (paper Tables I/II
//!   inputs) and the decoherence fidelity model shared with `mirage-synth`.
//! * [`approx`] — the paper's Algorithm 1: Monte Carlo Haar scores with
//!   approximate decomposition, parameterized by a numerical-decomposition
//!   callback (provided by `mirage-synth` to avoid a dependency cycle).
//! * [`cache`] — the LRU coordinate→cost cache of paper Fig. 13a.
//!
//! ---
//! **Owns:** [`set::CoverageSet`]/[`set::BasisGate`], [`geom`] polytopes,
//! [`atlas`] serialization,
//! [`haar::HaarScore`]/[`haar::FidelityModel`], [`cache::CostCache`].
//! **Paper:** §III (monodromy coverage, Algorithm 1), Tables I/II,
//! Figs. 3–6 and 13a.

pub mod approx;
pub mod atlas;
pub mod cache;
pub mod geom;
pub mod haar;
pub mod set;

pub use cache::CostCache;
pub use geom::{ConvexPolytope, Halfspace};
pub use haar::{FidelityModel, HaarScore};
pub use set::{BasisGate, CoverageLevel, CoverageSet};
