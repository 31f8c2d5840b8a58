//! Flat circuit representation with builder methods and metrics.

use crate::gate::Gate;
use mirage_math::hash::Fnv1a;

/// One gate application.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The gate.
    pub gate: Gate,
    /// Qubit operands; for two-qubit gates the first is the high qubit
    /// (control for controlled gates).
    pub qubits: Vec<usize>,
}

impl Instruction {
    /// The operands as a pair: the first qubit and, for a two-qubit gate,
    /// the second.
    pub fn operands(&self) -> (usize, Option<usize>) {
        (self.qubits[0], self.qubits.get(1).copied())
    }
}

/// A quantum circuit: a number of qubits plus an ordered instruction list.
///
/// ```
/// use mirage_circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.depth(), 2);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    /// Number of qubits.
    pub n_qubits: usize,
    /// The instruction sequence (topological order).
    pub instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(n_qubits: usize) -> Circuit {
        Circuit {
            n_qubits,
            instructions: Vec::new(),
        }
    }

    /// Append an arbitrary gate.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the gate arity, a qubit
    /// index is out of range, or a two-qubit gate's operands coincide.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        assert_eq!(
            gate.arity(),
            qubits.len(),
            "gate {} expects {} operands, got {:?}",
            gate.name(),
            gate.arity(),
            qubits
        );
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate on identical qubits");
        }
        self.instructions.push(Instruction {
            gate,
            qubits: qubits.to_vec(),
        });
        self
    }

    /// Append a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q])
    }

    /// Append a Pauli X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q])
    }

    /// Append an RX rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Rx(theta), &[q])
    }

    /// Append an RY rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Ry(theta), &[q])
    }

    /// Append an RZ rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Rz(theta), &[q])
    }

    /// Append a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T, &[q])
    }

    /// Append a T†.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg, &[q])
    }

    /// Append a CNOT (control first).
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::Cx, &[c, t])
    }

    /// Append a CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz, &[a, b])
    }

    /// Append a controlled-phase.
    pub fn cp(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cphase(theta), &[a, b])
    }

    /// Append a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap, &[a, b])
    }

    /// Append a Toffoli (CCX) decomposed into the standard 6-CNOT + T
    /// network (control qubits `a`, `b`, target `t`).
    pub fn ccx(&mut self, a: usize, b: usize, t: usize) -> &mut Self {
        self.h(t)
            .cx(b, t)
            .tdg(t)
            .cx(a, t)
            .t(t)
            .cx(b, t)
            .tdg(t)
            .cx(a, t)
            .t(b)
            .t(t)
            .h(t)
            .cx(a, b)
            .t(a)
            .tdg(b)
            .cx(a, b)
    }

    /// Append a Fredkin (controlled-SWAP) as `CX(t2,t1)·CCX(c,t1,t2)·CX(t2,t1)`
    /// (8 two-qubit gates after the Toffoli expansion — matching the
    /// QASMBench accounting).
    pub fn cswap(&mut self, c: usize, t1: usize, t2: usize) -> &mut Self {
        self.cx(t2, t1).ccx(c, t1, t2).cx(t2, t1)
    }

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.instructions.len()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_two_qubit())
            .count()
    }

    /// Number of explicit SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i.gate, Gate::Swap))
            .count()
    }

    /// Standard circuit depth (each gate counts 1).
    pub fn depth(&self) -> usize {
        self.weighted_depth(|_| 1.0).round() as usize
    }

    /// Depth counting only two-qubit gates (single-qubit gates are free).
    pub fn depth_2q(&self) -> usize {
        self.weighted_depth(|i| if i.gate.is_two_qubit() { 1.0 } else { 0.0 })
            .round() as usize
    }

    /// Longest path through the circuit where each instruction contributes
    /// `weight(instr)` — the critical-path duration metric MIRAGE optimizes
    /// (paper §IV-B). `weight` is called exactly once per instruction, in
    /// order.
    pub fn weighted_depth<F: FnMut(&Instruction) -> f64>(&self, mut weight: F) -> f64 {
        let timed = self.instructions.iter().map(|i| (i.operands(), weight(i)));
        critical_path(self.n_qubits, timed)
    }

    /// Concatenate another circuit (must have the same qubit count).
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    /// The inverse circuit (reversed order, inverted gates).
    pub fn inverse(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            instructions: self
                .instructions
                .iter()
                .rev()
                .map(|i| Instruction {
                    gate: i.gate.inverse(),
                    qubits: i.qubits.clone(),
                })
                .collect(),
        }
    }

    /// The reversed circuit (gates in reverse order, not inverted) — used
    /// by SABRE's forward–backward layout passes.
    pub fn reversed(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            instructions: self.instructions.iter().rev().cloned().collect(),
        }
    }

    /// Per-gate-name histogram.
    pub fn gate_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for i in &self.instructions {
            *h.entry(i.gate.name()).or_insert(0) += 1;
        }
        h
    }

    /// Remap qubit indices through `perm` (`new_q = perm[old_q]`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n_qubits`.
    pub fn relabeled(&self, perm: &[usize]) -> Circuit {
        assert_eq!(perm.len(), self.n_qubits, "permutation length mismatch");
        let mut seen = vec![false; self.n_qubits];
        for &p in perm {
            assert!(p < self.n_qubits && !seen[p], "not a permutation");
            seen[p] = true;
        }
        Circuit {
            n_qubits: self.n_qubits,
            instructions: self
                .instructions
                .iter()
                .map(|i| Instruction {
                    gate: i.gate.clone(),
                    qubits: i.qubits.iter().map(|&q| perm[q]).collect(),
                })
                .collect(),
        }
    }

    /// The set of qubit pairs touched by two-qubit gates (the interaction
    /// graph edges, normalized to `lo < hi`).
    pub fn interaction_edges(&self) -> std::collections::BTreeSet<(usize, usize)> {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_two_qubit())
            .map(|i| {
                let (a, b) = (i.qubits[0], i.qubits[1]);
                (a.min(b), a.max(b))
            })
            .collect()
    }

    /// A stable 64-bit structural fingerprint: FNV-1a over the qubit count
    /// and every instruction (gate name, exact parameter bits — including
    /// the full matrices of opaque `Unitary1`/`Unitary2` blocks — and
    /// operand order). Two circuits fingerprint equally iff they are equal
    /// as instruction sequences, up to 64-bit collision odds.
    ///
    /// The routing golden tests and the `routing_runtime` perf gate pin
    /// these values to prove optimizations are bit-identical; the hash is
    /// independent of pointer addresses, platform, and process, so pinned
    /// constants stay valid across runs and machines.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.n_qubits as u64);
        for instr in &self.instructions {
            h.write_bytes(instr.gate.name().as_bytes());
            match &instr.gate {
                Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => h.write_f64(*t),
                Gate::U3(t, p, l) => {
                    h.write_f64(*t);
                    h.write_f64(*p);
                    h.write_f64(*l);
                }
                Gate::Cphase(t) | Gate::Cry(t) | Gate::ISwapPow(t) => h.write_f64(*t),
                Gate::Rxx(t) | Gate::Ryy(t) | Gate::Rzz(t) => h.write_f64(*t),
                Gate::Unitary1(m) => {
                    for row in &m.e {
                        for z in row {
                            h.write_f64(z.re);
                            h.write_f64(z.im);
                        }
                    }
                }
                Gate::Unitary2(m) => {
                    for row in &m.e {
                        for z in row {
                            h.write_f64(z.re);
                            h.write_f64(z.im);
                        }
                    }
                }
                _ => {}
            }
            for &q in &instr.qubits {
                h.write_u64(q as u64);
            }
        }
        h.finish()
    }
}

/// Longest path over `n_qubits` wires through `timed` operations, each its
/// operands (the first qubit and, for a two-qubit gate, the second) and
/// its duration, in program order: the critical-path duration behind
/// [`Circuit::weighted_depth`] and the router's class-priced depth.
pub fn critical_path(
    n_qubits: usize,
    timed: impl IntoIterator<Item = ((usize, Option<usize>), f64)>,
) -> f64 {
    let mut ready = vec![0.0f64; n_qubits];
    for ((a, b), duration) in timed {
        let start = b.map_or(0.0f64.max(ready[a]), |b| 0.0f64.max(ready[a]).max(ready[b]));
        let end = start + duration;
        ready[a] = end;
        if let Some(b) = b {
            ready[b] = end;
        }
    }
    ready.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2).swap(0, 2);
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.two_qubit_gate_count(), 3);
        assert_eq!(c.swap_count(), 1);
    }

    #[test]
    fn depth_parallel_gates() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3); // parallel
        assert_eq!(c.depth(), 1);
        c.cx(1, 2); // forces a second layer
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn weighted_depth_with_durations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        // h = 0, cx = 1.0: critical path = 1.0
        let d = c.weighted_depth(|i| if i.gate.is_two_qubit() { 1.0 } else { 0.0 });
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depth_2q_ignores_singles() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).h(0).cx(0, 1);
        assert_eq!(c.depth_2q(), 2);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.t(0).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.instructions[0].gate, Gate::Cx);
        assert_eq!(inv.instructions[1].gate, Gate::Tdg);
    }

    #[test]
    fn ccx_expands_to_six_cnots() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 6);
    }

    #[test]
    fn cswap_expands_to_eight() {
        let mut c = Circuit::new(3);
        c.cswap(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 8);
    }

    #[test]
    fn relabeled_permutes() {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let r = c.relabeled(&[2, 1, 0]);
        assert_eq!(r.instructions[0].qubits, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabeled_rejects_non_permutation() {
        let c = Circuit::new(2);
        let _ = c.relabeled(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "identical qubits")]
    fn two_qubit_same_operand_panics() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    fn interaction_edges_normalized() {
        let mut c = Circuit::new(3);
        c.cx(2, 0).cx(0, 2).cx(1, 2);
        let edges = c.interaction_edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(0, 2)));
        assert!(edges.contains(&(1, 2)));
    }

    #[test]
    fn histogram_counts() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let h = c.gate_histogram();
        assert_eq!(h["h"], 2);
        assert_eq!(h["cx"], 1);
    }

    #[test]
    fn reversed_keeps_gates() {
        let mut c = Circuit::new(2);
        c.t(0).cx(0, 1);
        let r = c.reversed();
        assert_eq!(r.instructions[0].gate, Gate::Cx);
        assert_eq!(r.instructions[1].gate, Gate::T);
    }

    #[test]
    fn fingerprint_separates_structure() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).rz(0.25, 2);
        let mut b = Circuit::new(3);
        b.h(0).cx(0, 1).rz(0.25, 2);
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal circuits agree");

        // Operand order, parameters, qubit count, and gate identity all
        // perturb the hash.
        let mut flipped = Circuit::new(3);
        flipped.h(0).cx(1, 0).rz(0.25, 2);
        assert_ne!(a.fingerprint(), flipped.fingerprint());
        let mut param = Circuit::new(3);
        param.h(0).cx(0, 1).rz(0.26, 2);
        assert_ne!(a.fingerprint(), param.fingerprint());
        let mut wider = Circuit::new(4);
        wider.h(0).cx(0, 1).rz(0.25, 2);
        assert_ne!(a.fingerprint(), wider.fingerprint());

        // Opaque blocks hash their full matrix.
        let mut u = Circuit::new(2);
        u.push(Gate::Unitary2(crate::gate::Gate::Swap.matrix2()), &[0, 1]);
        let mut v = Circuit::new(2);
        v.push(Gate::Unitary2(crate::gate::Gate::Cx.matrix2()), &[0, 1]);
        assert_ne!(u.fingerprint(), v.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The value is part of the golden-test contract: it must never
        // change across runs, platforms, or refactors of the hasher.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert_eq!(c.fingerprint(), c.fingerprint());
        let empty = Circuit::new(0);
        assert_eq!(empty.fingerprint(), 0xA8C7_F832_281A_39C5);
    }
}
