//! Cost pricing: coordinate classes, the per-run price table, and the
//! calibration snapshot every score is computed under.
//!
//! The paper's Fig. 13a lookup table exists so each coordinate class is
//! priced once, not once per gate. [`Classes`] interns a circuit's Weyl
//! coordinates into compact [`ClassId`]s, closed under [`mirror_coord`] and
//! seeded with SWAP (whose mirror is the identity), so every gate routing
//! can emit has a class. A [`PriceTable`] prices each class once per run
//! through [`Target::gate_cost`] (the Fig. 13a coordinate LRU) under one
//! [`CalibrationSnapshot`]; the router's mirror decision is then
//! `class_cost[k] * edge_factor[e]`, and post-selection and metrics read
//! the table through the class ids the router carried. The matrix-path
//! scorers ([`Target::depth_estimate`] and friends) derive class costs
//! with `coords_of` and call the same snapshot methods.

use crate::calibration::{Calibration, EdgeCalibration, QubitCalibration};
use crate::router::RoutedCircuit;
use crate::target::Target;
use mirage_circuit::circuit::critical_path;
use mirage_circuit::{Circuit, Gate, Instruction};
use mirage_math::hash::WordMixMap;
use mirage_weyl::coords::{coords_of, WeylCoord};
use mirage_weyl::mirror::mirror_coord;
use std::sync::Arc;

/// Compact id of a coordinate class within one [`Classes`] set.
pub type ClassId = u32;

/// The class id of single-qubit instructions (they have no Weyl class).
pub const NO_CLASS: ClassId = ClassId::MAX;

/// A circuit's coordinate classes, closed under mirroring.
#[derive(Debug, Clone)]
pub struct Classes {
    /// One representative coordinate per class (the first one interned).
    reps: Vec<WeylCoord>,
    /// `mirror[k]`: the class of `mirror_coord(reps[k])`.
    mirror: Vec<ClassId>,
}

impl Classes {
    /// The class of an inserted SWAP.
    pub const SWAP: ClassId = 0;

    /// Intern `coords` (`None` for single-qubit gates) into classes keyed by
    /// quantized coordinate — the key of the Fig. 13a cache — and return the
    /// class set with the class id of every entry ([`NO_CLASS`] for `None`).
    pub fn build(coords: &[Option<WeylCoord>]) -> (Classes, Vec<ClassId>) {
        // A cheap hasher: route_with_scratch builds classes on every call.
        let mut index: WordMixMap<(u16, u16, u16), ClassId> = WordMixMap::default();
        let mut reps: Vec<WeylCoord> = Vec::new();
        let mut intern = |reps: &mut Vec<WeylCoord>, w: WeylCoord| {
            *index.entry(w.quantized()).or_insert_with(|| {
                reps.push(w);
                ClassId::try_from(reps.len() - 1).expect("class count fits a ClassId")
            })
        };
        let swap = intern(&mut reps, coords_of(&Gate::Swap.matrix2()));
        debug_assert_eq!(swap, Classes::SWAP);
        let ids = coords
            .iter()
            .map(|w| w.map_or(NO_CLASS, |w| intern(&mut reps, w)))
            .collect();
        // Close under mirroring: interning a mirror may append a class,
        // whose own mirror is then interned in turn.
        let mut mirror = Vec::with_capacity(reps.len());
        while mirror.len() < reps.len() {
            let m = mirror_coord(&reps[mirror.len()]);
            mirror.push(intern(&mut reps, m));
        }
        (Classes { reps, mirror }, ids)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// True when the set holds no class (never: SWAP is always present).
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// The quantized coordinate that identifies class `k`.
    #[cfg(test)]
    pub(crate) fn key(&self, k: ClassId) -> (u16, u16, u16) {
        self.reps[k as usize].quantized()
    }
}

/// `ln(1 − e)`, clamped so pathological error rates (`e → 1`) stay finite
/// and comparisons through [`f64::total_cmp`] remain well-ordered.
pub(crate) fn ln_survival(error: f64) -> f64 {
    (1.0 - error).max(1e-300).ln()
}

/// One published calibration, its generation, and the per-edge and
/// per-qubit terms every score reads.
///
/// Lookups reproduce [`Calibration::edge_or_nominal`] and
/// [`Calibration::qubit_or_default`] exactly: uncalibrated pairs price as
/// the nominal coupler, out-of-register qubits as the ideal qubit.
#[derive(Debug)]
pub struct CalibrationSnapshot {
    calibration: Arc<Calibration>,
    generation: u64,
    n: usize,
    /// `n × n` pair → index into `edges`; index 0 is the nominal coupler.
    pair_edge: Vec<u32>,
    /// Per edge: duration factor, log-survival per basis application.
    edges: Vec<(f64, f64)>,
    /// Per qubit: 1Q duration, 1Q log-survival, readout log-survival.
    qubits: Vec<(f64, f64, f64)>,
}

impl CalibrationSnapshot {
    /// Derive the scoring terms of `calibration`, published as
    /// `generation`.
    pub(crate) fn new(calibration: Arc<Calibration>, generation: u64) -> CalibrationSnapshot {
        let n = calibration.n_qubits();
        let edge_terms = |e: EdgeCalibration| (e.duration_factor, ln_survival(e.error_2q));
        let mut pair_edge = vec![0u32; n * n];
        let mut edges = vec![edge_terms(EdgeCalibration::default())];
        for (&(a, b), &e) in calibration.edges() {
            let id = u32::try_from(edges.len()).expect("edge count fits u32");
            pair_edge[a * n + b] = id;
            pair_edge[b * n + a] = id;
            edges.push(edge_terms(e));
        }
        let qubits = (0..n).map(|q| qubit_terms(calibration.qubit_or_default(q)));
        CalibrationSnapshot {
            n,
            pair_edge,
            edges,
            qubits: qubits.collect(),
            calibration,
            generation,
        }
    }

    /// The calibration this snapshot publishes.
    pub fn calibration(&self) -> &Arc<Calibration> {
        &self.calibration
    }

    /// The calibration generation (0 for a target's boot calibration, +1
    /// per [`Target::swap_calibration`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn edge(&self, a: usize, b: usize) -> (f64, f64) {
        let id = if a < self.n && b < self.n {
            self.pair_edge[a * self.n + b] as usize
        } else {
            0
        };
        self.edges[id]
    }

    fn qubit(&self, q: usize) -> (f64, f64, f64) {
        self.qubits
            .get(q)
            .copied()
            .unwrap_or_else(|| qubit_terms(QubitCalibration::default()))
    }

    /// Calibrated duration factor of the coupler `(a, b)`.
    pub(crate) fn edge_factor(&self, a: usize, b: usize) -> f64 {
        self.edge(a, b).0
    }

    /// Duration weight of one instruction whose coordinate class costs
    /// `class_cost` (ignored for 1Q gates): the class cost scaled by its
    /// edge's duration factor, or the qubit's 1Q duration.
    fn weight(&self, (a, b): Operands, class_cost: f64) -> f64 {
        match b {
            None => self.qubit(a).0,
            Some(b) => class_cost * self.edge_factor(a, b),
        }
    }

    /// Log-survival of one instruction: `class_cost / basis_duration` basis
    /// applications at the edge's per-application error, or the qubit's 1Q
    /// error once.
    fn log_success(&self, (a, b): Operands, class_cost: f64, basis_duration: f64) -> f64 {
        match b {
            None => self.qubit(a).1,
            Some(b) => {
                let applications = class_cost / basis_duration;
                applications * self.edge(a, b).1
            }
        }
    }

    /// Duration-weighted critical path over `n_qubits` of the instructions
    /// `items` (operands and class cost, in order).
    pub(crate) fn depth(&self, n_qubits: usize, items: impl Iterator<Item = Priced>) -> f64 {
        let timed = items.map(|(ops, cost)| (ops, self.weight(ops, cost)));
        critical_path(n_qubits, timed)
    }

    /// Sum of the duration weights of `items`.
    pub(crate) fn total_cost(&self, items: impl Iterator<Item = Priced>) -> f64 {
        items.map(|(ops, cost)| self.weight(ops, cost)).sum()
    }

    /// Summed log-survival of `items` (readout excluded).
    pub(crate) fn circuit_log_success(
        &self,
        items: impl Iterator<Item = Priced>,
        basis_duration: f64,
    ) -> f64 {
        items
            .map(|(ops, cost)| self.log_success(ops, cost, basis_duration))
            .sum()
    }

    /// Log-probability that measuring every qubit of `measured` succeeds.
    pub(crate) fn readout_log_success(&self, measured: &[usize]) -> f64 {
        measured.iter().map(|&q| self.qubit(q).2).sum()
    }
}

/// A qubit's scoring terms: 1Q duration, 1Q log-survival, readout
/// log-survival.
fn qubit_terms(q: QubitCalibration) -> (f64, f64, f64) {
    (
        q.duration_1q,
        ln_survival(q.error_1q),
        ln_survival(q.readout_error),
    )
}

/// One engine run's prices: the cost of every class of a [`Classes`] set,
/// the mirror map, and the run's calibration snapshot.
#[derive(Debug, Clone)]
pub struct PriceTable {
    cost: Vec<f64>,
    mirror: Vec<ClassId>,
    snapshot: Arc<CalibrationSnapshot>,
    basis_duration: f64,
}

impl PriceTable {
    /// Price every class of `classes` once through [`Target::gate_cost`],
    /// under `snapshot`.
    pub(crate) fn new(
        target: &Target,
        classes: &Classes,
        snapshot: Arc<CalibrationSnapshot>,
    ) -> Self {
        PriceTable {
            cost: classes.reps.iter().map(|w| target.gate_cost(w)).collect(),
            mirror: classes.mirror.clone(),
            snapshot,
            basis_duration: target.basis().duration,
        }
    }

    /// The calibration snapshot every price of this run is taken under.
    pub fn snapshot(&self) -> &Arc<CalibrationSnapshot> {
        &self.snapshot
    }

    /// The class of the mirror `SWAP·U` of a gate in class `k`.
    pub(crate) fn mirror(&self, k: ClassId) -> ClassId {
        self.mirror[k as usize]
    }

    /// Decomposition cost of class `k` executed on the coupler `(a, b)`.
    pub(crate) fn edge_cost(&self, k: ClassId, a: usize, b: usize) -> f64 {
        self.cost[k as usize] * self.snapshot.edge_factor(a, b)
    }

    /// The cost of class `k` (`0.0` for [`NO_CLASS`]).
    fn cost_of(&self, k: ClassId) -> f64 {
        match k {
            NO_CLASS => 0.0,
            k => self.cost[k as usize],
        }
    }

    fn priced<'a>(
        &'a self,
        items: impl Iterator<Item = (Operands, ClassId)> + 'a,
    ) -> impl Iterator<Item = Priced> + 'a {
        items.map(|(ops, k)| (ops, self.cost_of(k)))
    }

    /// Duration-weighted critical path over `n_qubits` of the instructions
    /// `items` (operands and class id, in order).
    pub(crate) fn depth_of(
        &self,
        n_qubits: usize,
        items: impl Iterator<Item = (Operands, ClassId)>,
    ) -> f64 {
        self.snapshot.depth(n_qubits, self.priced(items))
    }

    /// Natural log of the estimated success probability of the
    /// instructions `items` with the logical qubits finally on `measured`.
    pub(crate) fn log_success_of(
        &self,
        items: impl Iterator<Item = (Operands, ClassId)>,
        measured: &[usize],
    ) -> f64 {
        self.snapshot
            .circuit_log_success(self.priced(items), self.basis_duration)
            + self.snapshot.readout_log_success(measured)
    }

    /// Duration-weighted critical path of `c`, whose instructions carry the
    /// class ids `classes` (MIRAGE-Depth's post-selection metric, §IV-B).
    pub fn depth_estimate(&self, c: &Circuit, classes: &[ClassId]) -> f64 {
        self.depth_of(c.n_qubits, circuit_items(c, classes))
    }

    /// Total decomposition cost of `c` (sum over all instructions).
    pub fn total_gate_cost(&self, c: &Circuit, classes: &[ClassId]) -> f64 {
        self.snapshot
            .total_cost(self.priced(circuit_items(c, classes)))
    }

    /// Natural log of a routed circuit's estimated success probability:
    /// the per-instruction log-survivals plus readout on the logical
    /// qubits' final homes (see [`RoutedCircuit::log_success`]).
    pub fn log_success(&self, r: &RoutedCircuit, classes: &[ClassId]) -> f64 {
        self.log_success_of(
            circuit_items(&r.circuit, classes),
            r.final_layout.real_assignment(),
        )
    }
}

/// The operands of one scored instruction: its first qubit and, for a
/// two-qubit gate, its second (as [`Instruction::operands`]).
pub(crate) type Operands = (usize, Option<usize>);

/// One scored instruction: its operands and its class cost (ignored for
/// single-qubit gates).
pub(crate) type Priced = (Operands, f64);

/// `c`'s instructions paired with their class ids.
fn circuit_items<'c>(
    c: &'c Circuit,
    classes: &'c [ClassId],
) -> impl Iterator<Item = (Operands, ClassId)> + 'c {
    c.instructions
        .iter()
        .map(Instruction::operands)
        .zip(classes.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_circuit::consolidate::consolidate;
    use mirage_circuit::generators::qft;
    use mirage_topology::CouplingMap;

    fn class_of(c: &Circuit) -> Vec<Option<WeylCoord>> {
        c.instructions
            .iter()
            .map(|i| i.gate.is_two_qubit().then(|| coords_of(&i.gate.matrix2())))
            .collect()
    }

    #[test]
    fn classes_are_closed_under_mirroring() {
        let c = consolidate(&qft(5, false));
        let (classes, ids) = Classes::build(&class_of(&c));
        assert_eq!(ids.len(), c.instructions.len());
        for (i, &k) in c.instructions.iter().zip(&ids) {
            assert_eq!(i.gate.is_two_qubit(), k != NO_CLASS);
        }
        assert!(classes.len() >= 3, "SWAP, identity, and the QFT phases");
        for k in 0..classes.len() {
            let m = classes.mirror[k] as usize;
            assert!(m < classes.len());
            assert_eq!(
                classes.mirror[m] as usize, k,
                "mirroring is an involution on classes"
            );
        }
        // The SWAP class mirrors to the identity class.
        let id = classes.reps[classes.mirror[Classes::SWAP as usize] as usize];
        assert_eq!(id.quantized(), (0, 0, 0));
    }

    #[test]
    fn snapshot_reproduces_calibration_fallbacks() {
        let topo = CouplingMap::line(3);
        let mut cal = Calibration::uniform(&topo);
        let slow = EdgeCalibration {
            duration_factor: 4.0,
            error_2q: 0.1,
        };
        cal.set_edge(1, 2, slow).unwrap();
        let snap = CalibrationSnapshot::new(Arc::new(cal), 7);
        assert_eq!(snap.generation(), 7);
        assert_eq!(snap.edge_factor(2, 1), 4.0);
        // Uncalibrated and out-of-register pairs price as nominal.
        for (a, b) in [(0, 1), (0, 2), (0, 9)] {
            assert_eq!(snap.edge_factor(a, b), 1.0);
        }
        assert_eq!(snap.readout_log_success(&[0, 1, 9]), 0.0);
    }
}
