//! Seeded mutation fuzzing of the QASM importer.
//!
//! `from_qasm` reads text straight off the wire (`mirage-serve` parses
//! every submission in its connection handler), so no input may panic it.
//! Valid seed programs are mutated by byte flips, truncation, token
//! insertion (non-ASCII included) and chunk duplication; every mutant must
//! parse to `Ok` or a typed `QasmError` under `catch_unwind`, and every
//! accepted mutant must survive an export round trip. The budget is fixed
//! (three seeds of the RNG, 7000 mutants each), so a run is reproducible
//! and a failure names the seed and index that found it.

use mirage::circuit::generators::{ghz, qft};
use mirage::circuit::qasm::{from_qasm, to_qasm};
use mirage::math::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per RNG seed.
const MUTANTS: usize = 7000;

/// Valid programs the mutants start from: two exports and a hand-written
/// file with several registers, parameter expressions, a gate definition,
/// comments and ignored statements.
fn seeds() -> Vec<String> {
    let hand_written = r#"OPENQASM 2.0;
include "qelib1.inc";
// two registers, flattened in declaration order
gate mygate(theta) a,b { cx a,b; rz(theta) b; cx a,b; }
qreg a[2];
qreg anc[3];
creg c[2];
h a[0];
rz(-pi/4) a[1];
u3(pi/2, 0.25, -1.5e-3) anc[2];
cp(3*(pi+1)/2) a[0], anc[1];
ccx a[0],a[1],anc[0];
barrier a[0], anc[2];
swap anc[0],anc[2]; rxx(0.5) a[1],anc[1];
measure a[0] -> c[0];
"#;
    vec![
        to_qasm(&qft(5, true)),
        to_qasm(&ghz(4)),
        hand_written.to_owned(),
    ]
}

/// Fragments the token-insertion mutation splices in: the parser's own
/// delimiters and keywords, number extremes, and multi-byte characters.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "(", ")", "[", "]", ",", ";", "{", "}", "->", "//", "\n", " ", "pi", "-", "*", "/", "e",
    "qreg ", "gate ", "creg", "measure", "barrier", "rz(", "cx ", "q[0]", "0", "9",
    "18446744073709551615", "1e309", "é", "∞", "\u{feff}", "(é", "\u{0}",
];

/// Apply one to four random mutations to `input`.
fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            // Byte flip (a random value, often not ASCII or not UTF-8).
            0 if !bytes.is_empty() => {
                let at = at.min(bytes.len() - 1);
                bytes[at] = rng.next_u64() as u8;
            }
            // Truncation.
            1 => bytes.truncate(at),
            // Token insertion.
            2 => {
                let token = rng.choose(TOKENS).as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
            // Chunk duplication.
            _ => {
                let start = rng.below(bytes.len() + 1);
                let end = (start + rng.below(32)).min(bytes.len());
                let chunk = bytes[start..end].to_vec();
                bytes.splice(at..at, chunk);
            }
        }
    }
    bytes
}

#[test]
fn mutated_qasm_parses_or_fails_typed() {
    let seeds = seeds();
    for seed in &seeds {
        from_qasm(seed).expect("every seed program parses");
    }
    let mut accepted = 0;
    for rng_seed in [7u64, 11, 0x51_0e] {
        let mut rng = Rng::new(rng_seed);
        for index in 0..MUTANTS {
            let seed = rng.choose(&seeds);
            let bytes = mutate(&mut rng, seed.as_bytes());
            let text = String::from_utf8_lossy(&bytes);
            let parsed = catch_unwind(AssertUnwindSafe(|| from_qasm(&text)))
                .unwrap_or_else(|_| panic!("seed {rng_seed} mutant {index} panicked: {text:?}"));
            if let Ok(circuit) = parsed {
                accepted += 1;
                // Whatever was accepted exports, re-imports and exports
                // again to the same text.
                let exported = to_qasm(&circuit);
                let again = from_qasm(&exported).unwrap_or_else(|e| {
                    panic!("seed {rng_seed} mutant {index}: export of {text:?} fails to parse: {e}")
                });
                assert_eq!(
                    to_qasm(&again),
                    exported,
                    "seed {rng_seed} mutant {index}: {text:?}"
                );
            }
        }
    }
    // Both outcomes are exercised: a tenth or more of the mutants parse,
    // and a tenth or more fail.
    let total = 3 * MUTANTS;
    assert!(
        (total / 10..total - total / 10).contains(&accepted),
        "{accepted} of {total} mutants parsed"
    );
}
