//! The transpilation target: one object describing the device being
//! compiled for.
//!
//! The seed threaded `(CouplingMap, Arc<CoverageSet>, CostCache, mirror
//! flag)` tuples ad-hoc through pipeline → trials → router → bench, and
//! rebuilt fresh cost caches inside every pipeline branch. [`Target`]
//! replaces that plumbing with a single immutable-after-construction
//! object owning:
//!
//! * the [`CouplingMap`] connectivity graph,
//! * the basis gate ([`BasisGate`]) the device natively executes,
//! * the per-depth [`CoverageSet`] for that basis — resolved **lazily** on
//!   first cost query, since topology-only work (VF2 embedding, SWAP-only
//!   routing baselines) never needs it; the stock bases (√iSWAP, CNOT, CZ)
//!   load a checked-in coverage atlas (`mirage_coverage::atlas`) instead
//!   of re-running sampling + quickhull, falling back to a fresh build
//!   when the atlas is missing or stale,
//! * a [`CalibrationSnapshot`] — an [`Arc<Calibration>`] (per-edge 2Q
//!   durations and error rates, per-qubit 1Q durations/errors and readout
//!   errors) published together with its generation and the per-edge and
//!   per-qubit terms scoring reads — that drives duration weights
//!   ([`Target::depth_estimate`]) and success estimates
//!   ([`Target::estimated_success`]); stock constructors start from
//!   [`Calibration::uniform`], which reproduces the paper's idealized
//!   device exactly, [`Target::with_calibration`] swaps in measured data at
//!   construction, and [`Target::swap_calibration`] **hot-swaps** it on a
//!   live shared target (see below), and
//! * one process-wide-shareable [`SharedCostCache`] — the Fig. 13a
//!   coordinate LRU — that every engine run prices its coordinate classes
//!   through once (see [`crate::pricing`]).
//!
//! `Target` is `Send + Sync`; routing trials running on scoped threads
//! share one instance by reference, and a serving process
//! (`mirage_serve::TranspileService`) shares one `Arc<Target>` across its
//! whole worker pool. Cached coordinate costs are pure functions of the
//! coordinate class, so sharing never changes results.
//!
//! # Calibration hot-swap
//!
//! Real devices drift: a long-lived service must absorb fresh calibration
//! data without rebuilding the target (and with it the lazily built
//! coverage set and the warm cost cache). [`Target::swap_calibration`]
//! does this through `&self`: it validates that the new calibration covers
//! every coupler and publishes a new [`CalibrationSnapshot`] carrying the
//! next **calibration generation** ([`Target::calibration_generation`]).
//! The calibration and its generation live in one snapshot, so a reader
//! that takes the snapshot once (a whole transpile call does) can never
//! attribute its result to the wrong generation. The cost cache holds only
//! calibration-independent coordinate-class costs, so it stays warm across
//! swaps; every calibration-dependent term is read from the snapshot.
//!
//! ```
//! use mirage_core::target::Target;
//! use mirage_topology::CouplingMap;
//!
//! let target = Target::sqrt_iswap(CouplingMap::grid(6, 6));
//! assert_eq!(target.n_qubits(), 36);
//! assert!(!target.coverage_built(), "coverage is lazy");
//! assert_eq!(target.calibration_generation(), 0);
//! ```

use crate::calibration::{Calibration, CalibrationError};
use crate::pricing::{ln_survival, CalibrationSnapshot, Priced};
use mirage_circuit::Circuit;
use mirage_coverage::cache::SharedCostCache;
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage_math::mat4::MatrixMemo;
use mirage_topology::CouplingMap;
use mirage_weyl::coords::{coords_of, WeylCoord};
use std::sync::{Arc, OnceLock, RwLock};

/// Capacity of a target's shared cost cache (coordinate classes).
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The paper-default coverage construction parameters for a standard
/// (mirror-free) costing set.
fn default_coverage_options(seed: u64) -> CoverageOptions {
    CoverageOptions {
        max_k: 3,
        samples_per_k: 1200,
        inflation: 0.012,
        mirrors: false,
        seed,
    }
}

/// The shared default coverage set: √iSWAP, three levels, standard
/// (mirror-free) regions — the costing basis of every paper experiment.
/// Resolved once per process from the checked-in coverage atlas (falling
/// back to a fresh build when the atlas is absent or stale) and shared by
/// every [`Target::sqrt_iswap`].
fn default_coverage() -> Arc<CoverageSet> {
    static SET: OnceLock<Arc<CoverageSet>> = OnceLock::new();
    SET.get_or_init(|| Arc::new(mirage_coverage::atlas::stock_set("sqrt_iswap")))
        .clone()
}

/// Process-wide CNOT-basis coverage set shared by [`Target::cnot`]
/// (atlas-loaded, like [`default_coverage`]).
fn cnot_coverage() -> Arc<CoverageSet> {
    static SET: OnceLock<Arc<CoverageSet>> = OnceLock::new();
    SET.get_or_init(|| Arc::new(mirage_coverage::atlas::stock_set("cnot")))
        .clone()
}

/// Process-wide CZ-basis coverage set shared by [`Target::cz`]
/// (atlas-loaded, like [`default_coverage`]).
fn cz_coverage() -> Arc<CoverageSet> {
    static SET: OnceLock<Arc<CoverageSet>> = OnceLock::new();
    SET.get_or_init(|| Arc::new(mirage_coverage::atlas::stock_set("cz")))
        .clone()
}

/// A transpilation target: coupling topology, basis gate, lazily-built
/// coverage set, calibration data, and the shared cost cache.
///
/// See the [module docs](self) for design rationale.
#[derive(Debug)]
pub struct Target {
    topo: CouplingMap,
    basis: BasisGate,
    coverage_opts: CoverageOptions,
    coverage: OnceLock<Arc<CoverageSet>>,
    /// When set, `coverage()` resolves through a process-wide shared set
    /// instead of building a private one (the stock basis constructors use
    /// this so repeated `Target`s never rebuild identical polytopes).
    shared_coverage: Option<fn() -> Arc<CoverageSet>>,
    /// The live calibration and its generation. Behind a lock so a serving
    /// layer can swap it on a shared target; every score takes the snapshot
    /// once (an `Arc` clone), so no score ever mixes two calibrations, and
    /// a result records the generation of the very snapshot it was priced
    /// under.
    calibration: RwLock<Arc<CalibrationSnapshot>>,
    cache: SharedCostCache,
}

impl Target {
    /// A target with an explicit basis and coverage-construction options;
    /// the coverage set is built on first cost query.
    pub fn new(topo: CouplingMap, basis: BasisGate, coverage_opts: CoverageOptions) -> Target {
        let calibration = uniform_snapshot(&topo);
        Target {
            topo,
            basis,
            coverage_opts,
            coverage: OnceLock::new(),
            shared_coverage: None,
            calibration: RwLock::new(calibration),
            cache: SharedCostCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// A target with a pre-built coverage set (bench binaries construct
    /// full-quality sets up front and share them across targets).
    pub fn with_coverage(topo: CouplingMap, coverage: Arc<CoverageSet>) -> Target {
        let basis = coverage.basis.clone();
        let cell = OnceLock::new();
        cell.set(coverage).expect("fresh cell");
        let calibration = uniform_snapshot(&topo);
        Target {
            topo,
            basis,
            coverage_opts: CoverageOptions::default(),
            coverage: cell,
            shared_coverage: None,
            calibration: RwLock::new(calibration),
            cache: SharedCostCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// The paper configuration: a √iSWAP-basis device. All `sqrt_iswap`
    /// targets share one process-wide coverage set (built on first use).
    pub fn sqrt_iswap(topo: CouplingMap) -> Target {
        let mut t = Target::new(
            topo,
            BasisGate::iswap_root(2),
            default_coverage_options(0xC0FFEE),
        );
        t.shared_coverage = Some(default_coverage);
        t
    }

    /// A CNOT-basis device (unit-duration CNOT, full chamber at `k = 3`).
    pub fn cnot(topo: CouplingMap) -> Target {
        let mut t = Target::new(topo, BasisGate::cnot(), default_coverage_options(0xC407));
        t.shared_coverage = Some(cnot_coverage);
        t
    }

    /// A CZ-basis device (same canonical class as CNOT; the basis unitary
    /// differs, which matters for pulse translation).
    pub fn cz(topo: CouplingMap) -> Target {
        let mut t = Target::new(topo, BasisGate::cz(), default_coverage_options(0xC2));
        t.shared_coverage = Some(cz_coverage);
        t
    }

    /// Replace the calibration (builder style). Stock constructors start
    /// from [`Calibration::uniform`], which scores identically to the
    /// uncalibrated paper device. For replacing the calibration of a
    /// target that is already **shared** (a live service), use
    /// [`Target::swap_calibration`] instead.
    ///
    /// # Errors
    ///
    /// Rejects calibrations that do not fully cover the topology (width
    /// mismatch or a coupler without an entry), so later per-edge lookups
    /// on routed circuits cannot fail.
    pub fn with_calibration(
        mut self,
        calibration: Calibration,
    ) -> Result<Target, CalibrationError> {
        calibration.validate_for(&self.topo)?;
        let slot = self.calibration.get_mut().expect("calibration poisoned");
        *slot = Arc::new(CalibrationSnapshot::new(
            Arc::new(calibration),
            slot.generation(),
        ));
        Ok(self)
    }

    /// Hot-swap the calibration of a **live, shared** target: validate the
    /// new data and publish it as a new [`CalibrationSnapshot`] carrying
    /// the next calibration generation. Everything already built — the
    /// coverage set, the coordinate-class cost entries, in-flight
    /// [`TrialEngine`](crate::trials::TrialEngine)s — stays warm and keeps
    /// working; only calibration-derived values refresh.
    ///
    /// Returns the new generation. Each engine run (and so each transpile
    /// call) takes one snapshot when it starts and prices everything under
    /// it, so a run never blends two calibrations and reports the
    /// generation it actually ran under; a run already in flight finishes
    /// under the snapshot it took.
    ///
    /// # Errors
    ///
    /// Rejects calibrations that do not fully cover the topology, exactly
    /// like [`Target::with_calibration`] — a failed swap leaves the current
    /// calibration, generation, and cache untouched.
    pub fn swap_calibration(&self, calibration: Arc<Calibration>) -> Result<u64, CalibrationError> {
        calibration.validate_for(&self.topo)?;
        let mut slot = self.calibration.write().expect("calibration poisoned");
        let generation = slot.generation() + 1;
        *slot = Arc::new(CalibrationSnapshot::new(calibration, generation));
        Ok(generation)
    }

    /// The number of calibration swaps this target has absorbed (0 for a
    /// freshly built target).
    pub fn calibration_generation(&self) -> u64 {
        self.calibration_snapshot().generation()
    }

    /// The live calibration and its generation, as one snapshot. Serving
    /// layers attribute results through the snapshot a run actually took
    /// (see `TranspiledCircuit::generation`), never through a separate
    /// generation read.
    pub fn calibration_snapshot(&self) -> Arc<CalibrationSnapshot> {
        self.calibration
            .read()
            .expect("calibration poisoned")
            .clone()
    }

    /// The coupling topology.
    pub fn topology(&self) -> &CouplingMap {
        &self.topo
    }

    /// Device width.
    pub fn n_qubits(&self) -> usize {
        self.topo.n_qubits()
    }

    /// The native basis gate.
    pub fn basis(&self) -> &BasisGate {
        &self.basis
    }

    /// A snapshot of the device calibration (per-edge durations/errors,
    /// per-qubit durations/errors/readout). The returned `Arc` stays
    /// internally consistent even if [`Target::swap_calibration`] runs
    /// concurrently — it simply keeps describing the generation it was
    /// taken under.
    pub fn calibration(&self) -> Arc<Calibration> {
        self.calibration_snapshot().calibration().clone()
    }

    /// A short identifier, e.g. `sqrt_iswap@grid-6x6`.
    pub fn name(&self) -> String {
        format!("{}@{}", self.basis.name, self.topo.name())
    }

    /// The coverage set, building it on first call.
    pub fn coverage(&self) -> &Arc<CoverageSet> {
        self.coverage.get_or_init(|| match self.shared_coverage {
            Some(shared) => shared(),
            None => Arc::new(CoverageSet::build(self.basis.clone(), &self.coverage_opts)),
        })
    }

    /// True once the lazy coverage set has been built (or was supplied at
    /// construction).
    pub fn coverage_built(&self) -> bool {
        self.coverage.get().is_some()
    }

    /// The shared cost cache.
    pub fn cache(&self) -> &SharedCostCache {
        &self.cache
    }

    /// Aggregate `(hits, misses)` of the shared cost cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Minimum decomposition duration of coordinate class `w` in the
    /// target basis, answered through the shared cache (unreachable
    /// classes are charged one application past the deepest built level,
    /// keeping the cost function total).
    pub fn gate_cost(&self, w: &WeylCoord) -> f64 {
        let coverage = self.coverage();
        self.cache.get_or_insert_with(w, || coverage.cost_or_max(w))
    }

    /// Every instruction of `c` with its class cost derived from its matrix
    /// (`0.0` for single-qubit gates), once per distinct matrix: the input
    /// of the matrix-path scorers, which hand it to the same
    /// [`CalibrationSnapshot`] pricing core the engine's class-priced path
    /// uses.
    fn matrix_items<'c>(&'c self, c: &'c Circuit) -> impl Iterator<Item = Priced> + 'c {
        let mut memo = MatrixMemo::default();
        c.instructions.iter().map(move |i| {
            let cost = if i.gate.is_two_qubit() {
                memo.get_or_insert_with(&i.gate.matrix2(), |u| self.gate_cost(&coords_of(u)))
            } else {
                0.0
            };
            (i.operands(), cost)
        })
    }

    /// Duration-weighted critical path of a circuit on this target
    /// (MIRAGE-Depth's post-selection metric, paper §IV-B), under one
    /// calibration snapshot.
    pub fn depth_estimate(&self, c: &Circuit) -> f64 {
        self.calibration_snapshot()
            .depth(c.n_qubits, self.matrix_items(c))
    }

    /// Total decomposition cost (sum over all gates), under one
    /// calibration snapshot.
    pub fn total_gate_cost(&self, c: &Circuit) -> f64 {
        self.calibration_snapshot().total_cost(self.matrix_items(c))
    }

    /// Natural log of a circuit's estimated success probability: the sum of
    /// per-instruction log-fidelities (readout excluded; see
    /// [`Target::estimated_success`]), all under one calibration
    /// snapshot. Two-qubit gates pay their edge's per-application error
    /// once per basis application (`cost / basis.duration` applications —
    /// a SWAP priced at 3 CNOTs or 3 √iSWAPs pays 3, a mirror only its own
    /// cost); single-qubit gates pay their qubit's 1Q error once.
    pub fn circuit_log_success(&self, c: &Circuit) -> f64 {
        self.calibration_snapshot()
            .circuit_log_success(self.matrix_items(c), self.basis.duration)
    }

    /// [`Target::circuit_log_success`] plus the readout log-survival of
    /// `measured`, both under `snapshot`.
    pub(crate) fn log_success_under(
        &self,
        snapshot: &CalibrationSnapshot,
        c: &Circuit,
        measured: &[usize],
    ) -> f64 {
        snapshot.circuit_log_success(self.matrix_items(c), self.basis.duration)
            + snapshot.readout_log_success(measured)
    }

    /// Estimated success probability of running `c` and measuring the
    /// physical qubits in `measured` — the quantity
    /// [`crate::trials::Metric::EstimatedSuccess`] post-selects on.
    pub fn estimated_success(&self, c: &Circuit, measured: &[usize]) -> f64 {
        self.log_success_under(&self.calibration_snapshot(), c, measured)
            .exp()
    }

    /// Quality of one physical qubit as a seat for a circuit qubit: the
    /// log-survival of its own 1Q and readout errors plus the **mean**
    /// log-survival per application across its incident couplers. Always
    /// `≤ 0`, with `0` the ideal qubit; on [`Calibration::uniform`] every
    /// qubit scores exactly `0`. The `NoiseAware` layout strategy ranks
    /// seats by this number.
    pub fn qubit_quality(&self, q: usize) -> f64 {
        self.qubit_quality_with(&self.calibration(), q)
    }

    /// [`Target::qubit_quality`] against an explicit calibration snapshot,
    /// so rankings over the whole register (the noise-aware layout
    /// strategies score every seat per proposal) take the lock once and
    /// can never mix two calibrations within one ranking.
    pub(crate) fn qubit_quality_with(&self, cal: &Calibration, q: usize) -> f64 {
        let qc = cal.qubit_or_default(q);
        let neighbors = self.topo.neighbors(q);
        let edge_term = if neighbors.is_empty() {
            0.0
        } else {
            neighbors
                .iter()
                .map(|&nb| ln_survival(cal.edge_or_nominal(q, nb).error_2q))
                .sum::<f64>()
                / neighbors.len() as f64
        };
        ln_survival(qc.error_1q) + ln_survival(qc.readout_error) + edge_term
    }
}

/// The snapshot of a target's boot calibration ([`Calibration::uniform`],
/// generation 0).
fn uniform_snapshot(topo: &CouplingMap) -> Arc<CalibrationSnapshot> {
    Arc::new(CalibrationSnapshot::new(
        Arc::new(Calibration::uniform(topo)),
        0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::QubitCalibration;
    use mirage_circuit::generators::ghz;

    #[test]
    fn lazy_coverage_not_built_on_construction() {
        let t = Target::sqrt_iswap(CouplingMap::line(4));
        assert!(!t.coverage_built());
        let _ = t.gate_cost(&WeylCoord::CNOT);
        assert!(t.coverage_built());
    }

    #[test]
    fn stock_coverage_options_match_atlas_specs() {
        // The shared statics resolve through `atlas::stock_set`; the
        // per-target fallback options built here must describe the same
        // sets, or a custom `Target::new` with these options would diverge
        // from the atlas-backed stock targets.
        let specs = mirage_coverage::atlas::stock_specs();
        let names: Vec<&str> = specs.iter().map(|(b, _)| b.name.as_str()).collect();
        assert_eq!(names, ["sqrt_iswap", "cnot", "cz"]);
        for (basis, opts) in &specs {
            assert_eq!(
                &default_coverage_options(opts.seed),
                opts,
                "stock spec drifted for {}",
                basis.name
            );
        }
        let seeds: Vec<u64> = specs.iter().map(|(_, o)| o.seed).collect();
        assert_eq!(seeds, [0xC0FFEE, 0xC407, 0xC2]);
    }

    #[test]
    fn sqrt_iswap_costs_match_paper() {
        let t = Target::sqrt_iswap(CouplingMap::line(3));
        assert!((t.gate_cost(&WeylCoord::CNOT) - 1.0).abs() < 1e-12);
        assert!((t.gate_cost(&WeylCoord::SWAP) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cnot_basis_prices_cnot_at_one_application() {
        let t = Target::cnot(CouplingMap::line(3));
        assert!((t.gate_cost(&WeylCoord::CNOT) - 1.0).abs() < 1e-12);
        assert!((t.gate_cost(&WeylCoord::ISWAP) - 2.0).abs() < 1e-12);
        assert!((t.gate_cost(&WeylCoord::SWAP) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cz_basis_matches_cnot_costs() {
        let cz = Target::cz(CouplingMap::line(3));
        let cnot = Target::cnot(CouplingMap::line(3));
        for w in [WeylCoord::CNOT, WeylCoord::ISWAP, WeylCoord::SWAP] {
            assert!((cz.gate_cost(&w) - cnot.gate_cost(&w)).abs() < 1e-12);
        }
        assert_eq!(cz.basis().name, "cz");
    }

    #[test]
    fn gate_cost_is_cached() {
        let t = Target::sqrt_iswap(CouplingMap::line(3));
        let a = t.gate_cost(&WeylCoord::CNOT);
        let b = t.gate_cost(&WeylCoord::CNOT);
        assert_eq!(a, b);
        let (hits, misses) = t.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn depth_and_total_cost() {
        let t = Target::sqrt_iswap(CouplingMap::line(4));
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).swap(1, 2);
        // cx (1.0) ∥ cx (1.0), then swap (1.5): critical = 2.5, total 3.5.
        assert!((t.depth_estimate(&c) - 2.5).abs() < 1e-9);
        assert!((t.total_gate_cost(&c) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn one_qubit_duration_model() {
        let topo = CouplingMap::line(2);
        let mut cal = Calibration::uniform(&topo);
        for q in 0..2 {
            let mut qc = cal.qubit_or_default(q);
            qc.duration_1q = 0.1;
            cal.set_qubit(q, qc).unwrap();
        }
        let t = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert!((t.depth_estimate(&c) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn with_coverage_is_prebuilt() {
        let cov = default_coverage();
        let t = Target::with_coverage(CouplingMap::ring(5), cov.clone());
        assert!(t.coverage_built());
        assert_eq!(t.basis().name, "sqrt_iswap");
        assert!(Arc::ptr_eq(t.coverage(), &cov));
    }

    #[test]
    fn name_combines_basis_and_topology() {
        let t = Target::cnot(CouplingMap::grid(2, 3));
        assert_eq!(t.name(), "cnot@grid-2x3");
        assert_eq!(t.n_qubits(), 6);
    }

    #[test]
    fn target_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Target>();
        let _ = ghz(2); // keep the generators import exercised
    }

    #[test]
    fn per_edge_duration_scales_depth() {
        let topo = CouplingMap::line(3);
        let mut cal = Calibration::uniform(&topo);
        cal.set_edge(
            1,
            2,
            crate::calibration::EdgeCalibration {
                duration_factor: 10.0,
                error_2q: 0.0,
            },
        )
        .unwrap();
        let t = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let mut cheap = Circuit::new(3);
        cheap.cx(0, 1);
        let mut dear = Circuit::new(3);
        dear.cx(1, 2);
        assert!((t.depth_estimate(&cheap) - 1.0).abs() < 1e-9);
        assert!((t.depth_estimate(&dear) - 10.0).abs() < 1e-9);
        assert_eq!(t.calibration_snapshot().edge_factor(2, 1), 10.0);
    }

    #[test]
    fn log_success_prices_per_application() {
        let topo = CouplingMap::line(2);
        let mut cal = Calibration::uniform(&topo);
        cal.set_edge(
            0,
            1,
            crate::calibration::EdgeCalibration {
                duration_factor: 1.0,
                error_2q: 0.01,
            },
        )
        .unwrap();
        let t = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        // CNOT = 2 √iSWAP applications, SWAP = 3.
        let mut cnot = Circuit::new(2);
        cnot.cx(0, 1);
        let mut swap = Circuit::new(2);
        swap.swap(0, 1);
        let ln_s = (1.0f64 - 0.01).ln();
        assert!((t.circuit_log_success(&cnot) - 2.0 * ln_s).abs() < 1e-12);
        assert!((t.circuit_log_success(&swap) - 3.0 * ln_s).abs() < 1e-12);
        // Success probability includes readout of the measured qubits.
        let mut cal2 = Calibration::uniform(t.topology());
        cal2.set_qubit(
            0,
            QubitCalibration {
                duration_1q: 0.0,
                error_1q: 0.0,
                readout_error: 0.5,
            },
        )
        .unwrap();
        let t2 = Target::sqrt_iswap(CouplingMap::line(2))
            .with_calibration(cal2)
            .unwrap();
        let empty = Circuit::new(2);
        assert!((t2.estimated_success(&empty, &[0]) - 0.5).abs() < 1e-12);
        assert!((t2.estimated_success(&empty, &[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_calibration_scores_like_stock_target() {
        let stock = Target::sqrt_iswap(CouplingMap::line(4));
        let calibrated = Target::sqrt_iswap(CouplingMap::line(4))
            .with_calibration(Calibration::uniform(&CouplingMap::line(4)))
            .unwrap();
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(2, 3).swap(1, 2);
        assert_eq!(stock.depth_estimate(&c), calibrated.depth_estimate(&c));
        assert_eq!(stock.total_gate_cost(&c), calibrated.total_gate_cost(&c));
        assert_eq!(calibrated.estimated_success(&c, &[0, 1, 2, 3]), 1.0);
    }

    #[test]
    fn with_calibration_rejects_partial_coverage() {
        let topo = CouplingMap::line(4);
        let partial =
            Calibration::from_edges(4, &[(0, 1, crate::calibration::EdgeCalibration::default())])
                .unwrap();
        let err = Target::sqrt_iswap(topo)
            .with_calibration(partial)
            .unwrap_err();
        assert!(matches!(err, CalibrationError::MissingEdge { .. }));
    }

    #[test]
    fn qubit_quality_ranks_noise() {
        let topo = CouplingMap::line(4);
        let mut cal = Calibration::uniform(&topo);
        // Degrade the right end: qubit 3 reads out badly, edge (2,3) is lossy.
        cal.set_qubit(
            3,
            QubitCalibration {
                duration_1q: 0.0,
                error_1q: 0.0,
                readout_error: 0.1,
            },
        )
        .unwrap();
        cal.set_edge(
            2,
            3,
            crate::calibration::EdgeCalibration {
                duration_factor: 1.0,
                error_2q: 0.05,
            },
        )
        .unwrap();
        let t = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        // Ideal qubits score 0; degraded seats score strictly worse.
        assert_eq!(t.qubit_quality(0), 0.0);
        assert!(t.qubit_quality(3) < t.qubit_quality(1));
        assert!(t.qubit_quality(2) < t.qubit_quality(1), "lossy coupler");
        // On a uniform target everything is indistinguishable.
        let uniform = Target::sqrt_iswap(CouplingMap::line(4));
        assert!(uniform.calibration().is_uniform());
        for q in 0..4 {
            assert_eq!(uniform.qubit_quality(q), 0.0);
        }
    }

    #[test]
    fn swap_calibration_prices_under_the_new_calibration() {
        let topo = CouplingMap::line(3);
        let t = Target::sqrt_iswap(topo.clone());
        assert_eq!(t.calibration_generation(), 0);
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        // Warm the coordinate cache under the uniform calibration.
        assert!((t.depth_estimate(&c) - 1.0).abs() < 1e-12);

        // Swap in a calibration that makes (0, 1) ten times slower.
        let mut cal = Calibration::uniform(&topo);
        cal.set_edge(
            0,
            1,
            crate::calibration::EdgeCalibration {
                duration_factor: 10.0,
                error_2q: 0.01,
            },
        )
        .unwrap();
        let generation = t.swap_calibration(Arc::new(cal)).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(t.calibration_generation(), 1);
        // The calibration and its generation are published together.
        let snapshot = t.calibration_snapshot();
        assert_eq!(snapshot.generation(), 1);
        assert_eq!(
            snapshot.calibration().edge(0, 1).unwrap().duration_factor,
            10.0
        );
        // Scores read the new calibration immediately.
        assert!((t.depth_estimate(&c) - 10.0).abs() < 1e-9);
        let ln_s = (1.0f64 - 0.01).ln();
        assert!((t.circuit_log_success(&c) - 2.0 * ln_s).abs() < 1e-12);
        // The coverage set was not rebuilt and coordinate costs stay warm:
        // a query after the swap is a pure hit.
        let (hits_before, misses_before) = t.cache_stats();
        let _ = t.gate_cost(&WeylCoord::CNOT);
        let (hits_after, misses_after) = t.cache_stats();
        assert_eq!(misses_after, misses_before, "coordinate entry went cold");
        assert_eq!(hits_after, hits_before + 1);
    }

    #[test]
    fn with_calibration_on_a_warmed_target_prices_the_new_data() {
        // A target probed before `with_calibration` (e.g. a shared
        // `with_coverage` target) must score under the new calibration.
        let topo = CouplingMap::line(3);
        let warmed = Target::sqrt_iswap(topo.clone());
        let mut c = Circuit::new(3);
        c.swap(0, 1);
        assert!((warmed.depth_estimate(&c) - 1.5).abs() < 1e-12);
        let mut cal = Calibration::uniform(&topo);
        cal.set_edge(
            0,
            1,
            crate::calibration::EdgeCalibration {
                duration_factor: 3.0,
                error_2q: 0.0,
            },
        )
        .unwrap();
        let t = warmed.with_calibration(cal).unwrap();
        assert!((t.depth_estimate(&c) - 4.5).abs() < 1e-12);
        assert_eq!(t.calibration_generation(), 0, "builders do not swap");
    }

    #[test]
    fn swap_calibration_rejects_partial_coverage_and_keeps_state() {
        let t = Target::sqrt_iswap(CouplingMap::line(4));
        let _ = t.gate_cost(&WeylCoord::SWAP);
        let before = t.calibration_snapshot();
        let partial =
            Calibration::from_edges(4, &[(0, 1, crate::calibration::EdgeCalibration::default())])
                .unwrap();
        let err = t.swap_calibration(Arc::new(partial)).unwrap_err();
        assert!(matches!(err, CalibrationError::MissingEdge { .. }));
        // Failed swaps leave generation, calibration, and cache untouched.
        assert_eq!(t.calibration_generation(), 0);
        assert!(Arc::ptr_eq(&before, &t.calibration_snapshot()));
        assert!(t.calibration().is_uniform());
        let (hits_before, _) = t.cache_stats();
        let _ = t.gate_cost(&WeylCoord::SWAP);
        let (hits_after, _) = t.cache_stats();
        assert_eq!(hits_after, hits_before + 1, "cache should still be warm");
    }

    #[test]
    fn swap_calibration_is_visible_through_shared_references() {
        // The serving shape: one Arc<Target> scored from several threads
        // while the calibration swaps underneath.
        let topo = CouplingMap::line(2);
        let t = Arc::new(Target::sqrt_iswap(topo.clone()));
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        assert_eq!(t.estimated_success(&c, &[0, 1]), 1.0);
        let mut noisy = Calibration::uniform(&topo);
        noisy
            .set_edge(
                0,
                1,
                crate::calibration::EdgeCalibration {
                    duration_factor: 1.0,
                    error_2q: 0.25,
                },
            )
            .unwrap();
        t.swap_calibration(Arc::new(noisy)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let success = t.estimated_success(&c, &[0, 1]);
                    assert!((success - 0.75f64.powi(2)).abs() < 1e-12);
                });
            }
        });
    }
}
