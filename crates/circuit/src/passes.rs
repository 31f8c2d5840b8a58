//! Circuit optimization passes — the paper's §V "input cleaning": identity
//! removal, adjacent-inverse cancellation, rotation merging, and **SWAP
//! elision** (explicit SWAPs in the input are free wire relabelings and
//! must not reach the router as work).

use crate::circuit::{Circuit, Instruction};
use crate::gate::Gate;
use mirage_math::{Mat2, Mat4};

/// Remove gates that are (numerically) the identity: `RZ(0)`, `Phase(0)`,
/// identity `Unitary1`/`Unitary2` blocks, and friends.
pub fn remove_identities(c: &Circuit) -> Circuit {
    Circuit {
        n_qubits: c.n_qubits,
        instructions: without_identities(c),
    }
}

/// The instructions of `c` that are not (numerically) the identity.
fn without_identities(c: &Circuit) -> Vec<Instruction> {
    c.instructions
        .iter()
        .filter(|instr| !is_identity(&instr.gate))
        .cloned()
        .collect()
}

/// True for the gates without parameters: each has one fixed matrix.
fn is_fixed(g: &Gate) -> bool {
    matches!(
        g,
        Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Cx
            | Gate::Cz
            | Gate::Swap
            | Gate::ISwap
    )
}

/// True when `g` is the identity up to global phase (tolerance 1e-10).
/// No fixed gate is, so only parameterized gates build their matrix.
fn is_identity(g: &Gate) -> bool {
    if is_fixed(g) {
        false
    } else if g.is_two_qubit() {
        g.matrix2().approx_eq_up_to_phase(&Mat4::identity(), 1e-10)
    } else {
        g.matrix1().approx_eq_up_to_phase(&Mat2::identity(), 1e-10)
    }
}

/// Cancel adjacent gate/inverse pairs on the same wires (`H·H`, `CX·CX`,
/// `T·T†`, …), repeating until a fixpoint. Gates must be *immediately*
/// adjacent on all of their wires for cancellation.
pub fn cancel_adjacent_inverses(c: &Circuit) -> Circuit {
    Circuit {
        n_qubits: c.n_qubits,
        instructions: cancel_inverses(c.instructions.clone(), c.n_qubits),
    }
}

/// [`cancel_adjacent_inverses`] on an owned instruction list over
/// `n_qubits` wires: each pass marks cancelled pairs dead in place, and
/// the survivors are compacted once at the fixpoint.
fn cancel_inverses(instrs: Vec<Instruction>, n_qubits: usize) -> Vec<Instruction> {
    let mut alive = vec![true; instrs.len()];
    let mut last_on_wire: Vec<Option<usize>> = vec![None; n_qubits];
    loop {
        let mut changed = false;
        last_on_wire.fill(None);
        for (i, instr) in instrs.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            // Previous instruction index if it is the same on every wire.
            let first = instr.qubits.first().and_then(|&q| last_on_wire[q]);
            let same_prev =
                first.filter(|_| instr.qubits.iter().all(|&q| last_on_wire[q] == first));
            if let Some(p) = same_prev {
                let prev = &instrs[p];
                if alive[p] && prev.qubits == instr.qubits && cancels(&prev.gate, &instr.gate) {
                    alive[p] = false;
                    alive[i] = false;
                    changed = true;
                    for &q in &instr.qubits {
                        last_on_wire[q] = None;
                    }
                    continue;
                }
            }
            for &q in &instr.qubits {
                last_on_wire[q] = Some(i);
            }
        }
        if !changed {
            break;
        }
    }
    instrs
        .into_iter()
        .zip(alive)
        .filter_map(|(instr, alive)| alive.then_some(instr))
        .collect()
}

/// True when `b` undoes `a` on identical operand order. Two fixed gates
/// cancel exactly when one is the other's [`Gate::inverse`], so only
/// parameterized gates multiply matrices.
fn cancels(a: &Gate, b: &Gate) -> bool {
    if a.arity() != b.arity() {
        return false;
    }
    if is_fixed(a) && is_fixed(b) {
        return a.inverse() == *b;
    }
    if a.is_two_qubit() {
        a.matrix2()
            .mul(&b.matrix2())
            .approx_eq_up_to_phase(&Mat4::identity(), 1e-10)
    } else {
        a.matrix1()
            .mul(&b.matrix1())
            .approx_eq_up_to_phase(&Mat2::identity(), 1e-10)
    }
}

/// Merge runs of equal-axis rotations on a wire: `RZ(a)·RZ(b) → RZ(a+b)`
/// (likewise RX/RY/Phase), dropping merged gates that reach the identity.
pub fn merge_rotations(c: &Circuit) -> Circuit {
    Circuit {
        n_qubits: c.n_qubits,
        instructions: merge_runs(c.instructions.clone(), c.n_qubits),
    }
}

/// [`merge_rotations`] on an owned instruction list over `n_qubits`
/// wires (instructions move, never clone).
fn merge_runs(instrs: Vec<Instruction>, n_qubits: usize) -> Vec<Instruction> {
    let mut out: Vec<Instruction> = Vec::with_capacity(instrs.len());
    let mut last_on_wire: Vec<Option<usize>> = vec![None; n_qubits];
    for instr in instrs {
        if instr.qubits.len() == 1 {
            let q = instr.qubits[0];
            if let Some(p) = last_on_wire[q] {
                if let Some(merged) = merge_pair(&out[p].gate, &instr.gate) {
                    out[p].gate = merged;
                    continue;
                }
            }
            last_on_wire[q] = Some(out.len());
            out.push(instr);
        } else {
            for &q in &instr.qubits {
                last_on_wire[q] = None;
            }
            out.push(instr);
        }
    }
    // Drop rotations that merged to zero.
    out.retain(|i| match i.gate {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => {
            mirage_math::wrap_mod(t, std::f64::consts::TAU).abs() > 1e-12
                && (mirage_math::wrap_mod(t, std::f64::consts::TAU) - std::f64::consts::TAU).abs()
                    > 1e-12
        }
        _ => true,
    });
    out
}

fn merge_pair(a: &Gate, b: &Gate) -> Option<Gate> {
    match (a, b) {
        (Gate::Rx(x), Gate::Rx(y)) => Some(Gate::Rx(x + y)),
        (Gate::Ry(x), Gate::Ry(y)) => Some(Gate::Ry(x + y)),
        (Gate::Rz(x), Gate::Rz(y)) => Some(Gate::Rz(x + y)),
        (Gate::Phase(x), Gate::Phase(y)) => Some(Gate::Phase(x + y)),
        _ => None,
    }
}

/// Remove explicit SWAP gates by relabeling downstream wires (the paper's
/// input cleaning "removing SWAPs"). Returns the cleaned circuit and the
/// output permutation `perm` with `perm[original_wire] = output_wire`: the
/// state that the original circuit leaves on wire `w` appears on wire
/// `perm[w]` of the cleaned circuit... inverted bookkeeping is handled for
/// the caller by [`elide_swaps`]'s contract tests below.
pub fn elide_swaps(c: &Circuit) -> (Circuit, Vec<usize>) {
    // target[w] = the wire a gate addressed to original wire `w` must use
    // once the SWAPs so far have been elided.
    let mut target: Vec<usize> = (0..c.n_qubits).collect();
    let mut out: Vec<Instruction> = Vec::with_capacity(c.instructions.len());
    for instr in &c.instructions {
        if matches!(instr.gate, Gate::Swap) {
            let (a, b) = (instr.qubits[0], instr.qubits[1]);
            target.swap(a, b);
            continue;
        }
        out.push(Instruction {
            gate: instr.gate.clone(),
            qubits: instr.qubits.iter().map(|&q| target[q]).collect(),
        });
    }
    (
        Circuit {
            n_qubits: c.n_qubits,
            instructions: out,
        },
        target,
    )
}

/// The standard input-cleaning bundle: identity removal → rotation merging
/// → inverse cancellation (fixpoint). SWAP elision is *not* included
/// because it changes the output permutation; the pipeline calls it
/// explicitly.
pub fn clean(c: &Circuit) -> Circuit {
    let mut cur = without_identities(c);
    loop {
        let len = cur.len();
        cur = cancel_inverses(merge_runs(cur, c.n_qubits), c.n_qubits);
        if cur.len() == len {
            return Circuit {
                n_qubits: c.n_qubits,
                instructions: cur,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{equivalent_on_zero, run};

    #[test]
    fn removes_identity_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0.0, 0).h(0).rx(0.0, 1).cx(0, 1);
        let out = remove_identities(&c);
        assert_eq!(out.instructions.len(), 2);
        assert!(equivalent_on_zero(&c, &out, None));
    }

    #[test]
    fn cancels_hh_and_cxcx() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).cx(0, 1).cx(0, 1).t(1);
        let out = cancel_adjacent_inverses(&c);
        assert_eq!(out.instructions.len(), 1);
        assert!(equivalent_on_zero(&c, &out, None));
    }

    #[test]
    fn cancellation_respects_interference() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(1).cx(0, 1); // H blocks the cancellation
        let out = cancel_adjacent_inverses(&c);
        assert_eq!(out.instructions.len(), 3);
    }

    #[test]
    fn cancellation_cascades() {
        // T · (H · H) · T† — inner pair cancels, then the outer pair.
        let mut c = Circuit::new(1);
        c.t(0).h(0).h(0).tdg(0);
        let out = cancel_adjacent_inverses(&c);
        assert_eq!(out.instructions.len(), 0);
    }

    #[test]
    fn merges_rotations() {
        let mut c = Circuit::new(1);
        c.rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0);
        let out = merge_rotations(&c);
        assert_eq!(out.instructions.len(), 0, "sums to zero");
        let mut c2 = Circuit::new(1);
        c2.rx(0.3, 0).rx(0.5, 0);
        let out2 = merge_rotations(&c2);
        assert_eq!(out2.instructions.len(), 1);
        assert!(equivalent_on_zero(&c2, &out2, None));
    }

    #[test]
    fn rotation_merge_blocked_by_2q() {
        let mut c = Circuit::new(2);
        c.rz(0.3, 0).cx(0, 1).rz(0.4, 0);
        let out = merge_rotations(&c);
        assert_eq!(out.instructions.len(), 3);
    }

    #[test]
    fn elide_swaps_removes_all_swaps() {
        let mut c = Circuit::new(3);
        c.h(0).swap(0, 1).cx(1, 2).swap(1, 2).x(2);
        let (out, perm) = elide_swaps(&c);
        assert_eq!(out.swap_count(), 0);
        assert_eq!(out.instructions.len(), 3);
        // Semantics: the elided circuit equals the original with outputs
        // permuted by `perm`.
        let s_orig = run(&c);
        let s_new = run(&out);
        let expected = s_new.permuted(&invert(&perm));
        let _ = expected;
        // original wire w's content sits on wire... verify via fidelity of
        // permuted states.
        let s_reordered = s_orig.permuted(&perm_to_positions(&perm));
        assert!(
            s_reordered.fidelity(&s_new) > 1.0 - 1e-9,
            "elision changed semantics"
        );
    }

    fn invert(p: &[usize]) -> Vec<usize> {
        let mut inv = vec![0usize; p.len()];
        for (i, &v) in p.iter().enumerate() {
            inv[v] = i;
        }
        inv
    }

    /// `wire_of[orig] = new` — as a qubit-relabel permutation for
    /// `State::permuted` (which maps bit q -> bit perm[q]).
    fn perm_to_positions(wire_of: &[usize]) -> Vec<usize> {
        wire_of.to_vec()
    }

    #[test]
    fn elide_trailing_swap_only_permutes() {
        let mut c = Circuit::new(2);
        c.x(0).swap(0, 1);
        let (out, perm) = elide_swaps(&c);
        assert_eq!(out.instructions.len(), 1);
        assert_eq!(perm, vec![1, 0]);
        // X lands on wire 0 still (it executed before the swap)… and the
        // swap's effect is recorded purely in perm.
        assert_eq!(out.instructions[0].qubits, vec![0]);
    }

    #[test]
    fn elide_initial_swap_relabels_gates() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).x(0);
        let (out, perm) = elide_swaps(&c);
        assert_eq!(out.instructions.len(), 1);
        // After eliding the swap, "wire 0" content is what was wire 1:
        // the X must act on the relabeled wire.
        assert_eq!(out.instructions[0].qubits, vec![1]);
        assert_eq!(perm, vec![1, 0]);
    }

    #[test]
    fn clean_bundle_fixpoint() {
        let mut c = Circuit::new(2);
        c.rz(0.2, 0).rz(-0.2, 0).h(1).h(1).cx(0, 1).cx(0, 1).t(0);
        let out = clean(&c);
        assert_eq!(out.instructions.len(), 1);
        assert_eq!(out.instructions[0].gate, Gate::T);
    }

    /// Every fixed gate, with a matrix built only to check the fast paths.
    const FIXED: [Gate; 12] = [
        Gate::H,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Cx,
        Gate::Cz,
        Gate::Swap,
        Gate::ISwap,
    ];

    #[test]
    fn fixed_gate_fast_paths_agree_with_matrices() {
        for a in &FIXED {
            assert!(is_fixed(a));
            let identity = if a.is_two_qubit() {
                a.matrix2().approx_eq_up_to_phase(&Mat4::identity(), 1e-10)
            } else {
                a.matrix1().approx_eq_up_to_phase(&Mat2::identity(), 1e-10)
            };
            assert!(!identity, "{a:?} is the identity");
            for b in FIXED.iter().filter(|b| b.arity() == a.arity()) {
                let by_matrix = if a.is_two_qubit() {
                    a.matrix2()
                        .mul(&b.matrix2())
                        .approx_eq_up_to_phase(&Mat4::identity(), 1e-10)
                } else {
                    a.matrix1()
                        .mul(&b.matrix1())
                        .approx_eq_up_to_phase(&Mat2::identity(), 1e-10)
                };
                assert_eq!(cancels(a, b), by_matrix, "{a:?} then {b:?}");
            }
        }
    }

    /// A seeded circuit full of input-cleaning work: every gate kind, angles
    /// at and near the identity (0, ±2π, 4π, ±1e-12), immediate inverse
    /// pairs on equal and swapped operands, and identity unitaries.
    fn messy_circuit(n: usize, len: usize, seed: u64) -> Circuit {
        use std::f64::consts::{PI, TAU};
        let mut rng = mirage_math::Rng::new(seed);
        let angles = [0.0, TAU, -TAU, 2.0 * TAU, 1e-12, -1e-12, PI, 0.3, -0.3];
        let mut c = Circuit::new(n);
        for _ in 0..len {
            let a = rng.below(n);
            let b = (a + 1 + rng.below(n - 1)) % n;
            let t = if rng.chance(0.5) {
                angles[rng.below(angles.len())]
            } else {
                rng.uniform_range(-PI, PI)
            };
            let gate = match rng.below(27) {
                0 => Gate::H,
                1 => Gate::X,
                2 => Gate::Y,
                3 => Gate::Z,
                4 => Gate::S,
                5 => Gate::Sdg,
                6 => Gate::T,
                7 => Gate::Tdg,
                8 => Gate::Rx(t),
                9 => Gate::Ry(t),
                10 => Gate::Rz(t),
                11 => Gate::Phase(t),
                12 => Gate::U3(t, if rng.chance(0.5) { 0.0 } else { t }, 0.0),
                13 => Gate::Unitary1(if rng.chance(0.5) {
                    Mat2::identity()
                } else {
                    Gate::Rz(t).matrix1()
                }),
                14 => Gate::Cx,
                15 => Gate::Cz,
                16 => Gate::Cphase(t),
                17 => Gate::Cry(t),
                18 => Gate::Swap,
                19 => Gate::ISwap,
                20 => Gate::ISwapPow(if rng.chance(0.5) { 4.0 } else { t }),
                21 => Gate::Rxx(t),
                22 => Gate::Ryy(t),
                23 => Gate::Rzz(t),
                24 => Gate::Unitary2(if rng.chance(0.5) {
                    Mat4::identity()
                } else {
                    Gate::Rzz(t).matrix2()
                }),
                _ => Gate::Unitary2(Gate::Cx.matrix2()),
            };
            let qubits: Vec<usize> = if gate.is_two_qubit() {
                vec![a, b]
            } else {
                vec![a]
            };
            let inverse = rng.chance(0.3).then(|| gate.inverse());
            c.push(gate, &qubits);
            if let Some(inv) = inverse {
                if inv.is_two_qubit() && rng.chance(0.3) {
                    c.push(inv, &[b, a]);
                } else {
                    c.push(inv, &qubits);
                }
            }
        }
        c
    }

    /// Input cleaning is pinned output for output: an FNV-1a fold of the
    /// `clean` result's fingerprint over the paper suite, every generator
    /// family, and seeded messy circuits. Any rewrite of the passes must
    /// reproduce it exactly.
    #[test]
    fn clean_outputs_pinned() {
        use crate::generators::*;
        let mut circuits: Vec<Circuit> = paper_suite().into_iter().map(|(_, c)| c).collect();
        circuits.extend([
            ghz(12),
            wstate(9),
            bv(14, 7),
            qft(12, false),
            qft(12, true),
            qft_entangled(10),
            qpe_exact(9),
            amplitude_estimation(8),
            cuccaro_adder(5),
            multiplier(2),
            qec9xz(),
            seca(),
            qram(),
            sat(),
            portfolio_qaoa(10, 2, 7),
            swap_test(9),
            knn(9),
            two_local_full(8, 2, 3),
            two_local_linear(8, 3, 4),
            quantum_volume(6, 6, 5),
        ]);
        circuits.extend((0..40).map(|seed| messy_circuit(2 + (seed as usize % 4), 60, seed)));
        let mut h = mirage_math::hash::Fnv1a::new();
        let mut removed = 0;
        for c in &circuits {
            let out = clean(c);
            removed += c.instructions.len() - out.instructions.len();
            h.write_u64(out.fingerprint());
        }
        assert!(
            removed > 500,
            "the sweep must give cleaning work: {removed}"
        );
        assert_eq!(
            h.finish(),
            0x6350_1105_553E_5BCA,
            "clean outputs moved (removed {removed})"
        );
    }

    #[test]
    fn clean_preserves_semantics_random() {
        let mut rng = mirage_math::Rng::new(0xC1EA);
        for _ in 0..10 {
            let mut c = Circuit::new(3);
            for _ in 0..15 {
                match rng.below(4) {
                    0 => {
                        let q = rng.below(3);
                        c.h(q);
                    }
                    1 => {
                        let q = rng.below(3);
                        c.rz(rng.uniform_range(-1.0, 1.0), q);
                    }
                    2 => {
                        let a = rng.below(3);
                        c.cx(a, (a + 1) % 3);
                    }
                    _ => {
                        let q = rng.below(3);
                        c.t(q);
                    }
                }
            }
            let out = clean(&c);
            assert!(equivalent_on_zero(&c, &out, None));
            assert!(out.instructions.len() <= c.instructions.len());
        }
    }
}
