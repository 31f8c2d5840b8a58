//! The decoherence error model (paper Eq. 2) applied to circuits.
//!
//! Gate fidelity decays exponentially in gate duration over the qubit
//! lifetime: `F_Q = e^{−duration/T1}` — normalized so an iSWAP (duration
//! 1.0) sits at 99%. A circuit's fidelity is the product of its gate
//! fidelities, i.e. `e^{−Σ durations / T1}`; the paper's *depth* metric is
//! the duration-weighted critical path.

use mirage_circuit::{Circuit, Gate, Instruction};
use mirage_coverage::haar::FidelityModel;
use mirage_coverage::set::CoverageSet;
use mirage_weyl::coords::coords_of;

/// Duration of an instruction in normalized units (iSWAP = 1.0), using the
/// coverage set's basis to cost opaque two-qubit blocks.
///
/// Named gates with well-known classes are costed through the coverage set
/// too, so SWAPs inserted by routing pay their real decomposition price
/// (3 applications of √iSWAP = 1.5 units).
pub fn instruction_duration(instr: &Instruction, set: &CoverageSet) -> f64 {
    match &instr.gate {
        g if !g.is_two_qubit() => 0.0,
        g => {
            let w = coords_of(&g.matrix2());
            set.cost_or_max(&w)
        }
    }
}

/// Fidelity and duration summary of a circuit under the Eq. 2 model.
#[derive(Debug, Clone, Copy)]
pub struct CircuitFidelity {
    /// Sum of all gate durations.
    pub total_duration: f64,
    /// Duration-weighted critical path (the paper's depth metric).
    pub critical_path: f64,
    /// `e^{−total_duration/T1}` — product of gate fidelities.
    pub fidelity: f64,
}

/// Evaluate a circuit against the error model, costing each two-qubit gate
/// by its minimum decomposition cost in `set`'s basis.
pub fn circuit_fidelity(c: &Circuit, set: &CoverageSet, model: &FidelityModel) -> CircuitFidelity {
    let mut total = 0.0;
    for instr in &c.instructions {
        total += instruction_duration(instr, set);
    }
    let critical = c.weighted_depth(|i| instruction_duration(i, set));
    CircuitFidelity {
        total_duration: total,
        critical_path: critical,
        fidelity: model.circuit_fidelity(total),
    }
}

/// Duration of a circuit already expressed in the basis: every `ISwapPow`
/// (or explicit basis gate) costs its fraction, opaque blocks are rejected.
///
/// # Errors
///
/// Returns `Err` with the offending gate name if the circuit still contains
/// two-qubit gates other than `ISwapPow`.
pub fn pulse_duration(c: &Circuit) -> Result<f64, &'static str> {
    let mut per_gate = Vec::with_capacity(c.instructions.len());
    for instr in &c.instructions {
        let d = match &instr.gate {
            Gate::ISwapPow(a) => a.abs(),
            Gate::ISwap => 1.0,
            g if !g.is_two_qubit() => 0.0,
            g => return Err(g.name()),
        };
        per_gate.push(d);
    }
    let i = std::cell::Cell::new(0usize);
    Ok(c.weighted_depth(|_| {
        let d = per_gate[i.get()];
        i.set(i.get() + 1);
        d
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_coverage::set::{BasisGate, CoverageOptions};

    fn set() -> CoverageSet {
        let opts = CoverageOptions {
            max_k: 3,
            samples_per_k: 700,
            inflation: 0.012,
            mirrors: false,
            seed: 61,
        };
        CoverageSet::build(BasisGate::iswap_root(2), &opts)
    }

    #[test]
    fn cnot_costs_one_unit() {
        let set = set();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let f = circuit_fidelity(&c, &set, &FidelityModel::paper_default());
        // CNOT = 2 √iSWAPs = 1.0 normalized units.
        assert!((f.total_duration - 1.0).abs() < 1e-9);
        assert!((f.fidelity - 0.99).abs() < 1e-6);
    }

    #[test]
    fn swap_costs_1_5_units() {
        let set = set();
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let f = circuit_fidelity(&c, &set, &FidelityModel::paper_default());
        assert!((f.total_duration - 1.5).abs() < 1e-9);
    }

    #[test]
    fn critical_path_vs_total() {
        let set = set();
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3); // parallel: critical 1.0, total 2.0
        let f = circuit_fidelity(&c, &set, &FidelityModel::paper_default());
        assert!((f.critical_path - 1.0).abs() < 1e-9);
        assert!((f.total_duration - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_qubit_gates_free() {
        let set = set();
        let mut c = Circuit::new(2);
        c.h(0).rz(0.3, 1).h(1);
        let f = circuit_fidelity(&c, &set, &FidelityModel::paper_default());
        assert_eq!(f.total_duration, 0.0);
        assert!((f.fidelity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pulse_duration_counts_basis_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::ISwapPow(0.5), &[0, 1]);
        c.push(Gate::ISwapPow(0.5), &[0, 1]);
        assert!((pulse_duration(&c).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pulse_duration_rejects_untranslated() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        assert_eq!(pulse_duration(&c), Err("cx"));
    }
}
