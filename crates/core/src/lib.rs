//! The MIRAGE transpiler: SABRE-style routing with mirror-gate
//! decomposition awareness (the paper's primary contribution, §IV).
//!
//! * [`target::Target`] — the device being compiled for: coupling
//!   topology, basis gate, lazily-built coverage set, calibration data,
//!   and the shared cost cache. Every layer below consumes a `&Target`.
//! * [`calibration::Calibration`] — per-edge 2Q durations/error rates and
//!   per-qubit 1Q/readout errors, with uniform/synthetic builders and a
//!   plain-text file format; drives the noise-aware
//!   [`trials::Metric::EstimatedSuccess`] routing metric.
//! * [`layout::Layout`] — the logical→physical qubit mapping.
//! * [`placement`] — pluggable initial-layout strategies behind the
//!   [`placement::LayoutStrategy`] trait: the paper's random seeding,
//!   interaction/degree matching, calibration-aware region seeding, and
//!   the VF2 embedding pre-pass (success-probability tie-breaking).
//! * [`pricing`] — coordinate classes, the per-run [`pricing::PriceTable`]
//!   and the [`pricing::CalibrationSnapshot`] every score is priced under:
//!   each class is priced once per run, and routed circuits carry class
//!   ids so scoring never re-derives Weyl coordinates.
//! * [`router`] — the routing engine: a faithful SABRE baseline (front
//!   layer, lookahead window, decay) extended with MIRAGE's *intermediate
//!   layer*, which may replace each executed two-qubit gate `U` by its
//!   mirror `SWAP·U` per the aggression rules of Algorithm 2.
//! * [`trials`] — the [`trials::TrialEngine`]: strategy-seeded layout
//!   trials, SABRE forward–backward refinement, independent routing trials
//!   (on every core by default), and post-selection by SWAP count, the
//!   duration-weighted critical path (MIRAGE-Depth, §IV-B), or estimated
//!   success probability.
//! * [`pipeline`] — the end-to-end `transpile` entry point: consolidation,
//!   the VF2 no-SWAP check, routing, and metrics.
//! * [`verify`] — statevector verification that a routed circuit equals its
//!   input up to the layout permutations, plus coupling-map conformance
//!   (used heavily by the test-suite).
//!
//! # Quickstart
//!
//! ```
//! use mirage_core::{transpile, RouterKind, Target, TranspileOptions};
//! use mirage_circuit::generators::two_local_full;
//! use mirage_topology::CouplingMap;
//!
//! let circ = two_local_full(4, 1, 7);
//! let target = Target::sqrt_iswap(CouplingMap::line(4));
//! let out = transpile(&circ, &target, &TranspileOptions::quick(RouterKind::Mirage, 1))
//!     .expect("transpiles");
//! assert!(out.metrics.depth_estimate > 0.0);
//! ```
//!
//! ---
//! **Owns:** [`target::Target`], [`calibration::Calibration`],
//! [`router::route`], [`trials::TrialEngine`],
//! [`pipeline::transpile`], [`verify::verify_report`].
//! **Paper:** §IV (the MIRAGE router, Algorithm 2, the depth metric) and
//! the §V pipeline; the calibration layer extends §IV-B's duration metric
//! to measured per-edge data.

pub mod calibration;
pub mod layout;
pub mod pipeline;
pub mod placement;
pub mod pricing;
pub mod router;
pub mod target;
pub mod trials;
pub mod verify;

pub use calibration::{Calibration, CalibrationError, EdgeCalibration, QubitCalibration};
pub use layout::Layout;
pub use pipeline::{transpile, RouterKind, TranspileError, TranspileOptions, TranspiledCircuit};
pub use placement::{LayoutStrategy, PlacementContext, StrategyKind};
pub use router::{Aggression, RoutedCircuit, RouterConfig};
pub use target::Target;
pub use trials::{Metric, TrialEngine, TrialOptions, TrialOutcome};
pub use verify::{verify_report, verify_routed, VerifyReport};
