//! OpenQASM 2.0 interchange: export any circuit, import the practical
//! subset the benchmark suites use.
//!
//! Export maps every gate in the vocabulary onto OpenQASM 2.0 primitives:
//! named gates directly, `Cry` by its two-CX decomposition, `ISwap`-family
//! and `Rxx/Ryy/Rzz` through custom `gate` definitions emitted on demand,
//! and opaque `Unitary1`/`Unitary2` blocks analytically via ZYZ / KAK (the
//! canonical part becomes commuting `rxx·ryy·rzz` rotations), so round
//! trips preserve semantics up to global phase. Angles are printed with
//! Rust's shortest-round-trip float formatting, so a circuit built from
//! standard gates re-imports with *bit-identical* parameters — the
//! property the network serving layer leans on to make wire submissions
//! reproduce in-process results exactly.
//!
//! Import handles `qreg` (multiple registers are flattened in declaration
//! order), the standard gate set, `pi`-expressions with `+ - * /` and
//! parentheses, and ignores `creg`, `measure`, `barrier`, comments and
//! `include`.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Export a circuit as OpenQASM 2.0 source.
pub fn to_qasm(c: &Circuit) -> String {
    let mut needs_iswap = false;
    let mut needs_rxx = false;
    let mut needs_ryy = false;
    let mut needs_rzz = false;
    let mut body = String::new();

    for instr in &c.instructions {
        let q = |k: usize| format!("q[{}]", instr.qubits[k]);
        match &instr.gate {
            Gate::H => body.push_str(&format!("h {};\n", q(0))),
            Gate::X => body.push_str(&format!("x {};\n", q(0))),
            Gate::Y => body.push_str(&format!("y {};\n", q(0))),
            Gate::Z => body.push_str(&format!("z {};\n", q(0))),
            Gate::S => body.push_str(&format!("s {};\n", q(0))),
            Gate::Sdg => body.push_str(&format!("sdg {};\n", q(0))),
            Gate::T => body.push_str(&format!("t {};\n", q(0))),
            Gate::Tdg => body.push_str(&format!("tdg {};\n", q(0))),
            Gate::Rx(t) => body.push_str(&format!("rx({t}) {};\n", q(0))),
            Gate::Ry(t) => body.push_str(&format!("ry({t}) {};\n", q(0))),
            Gate::Rz(t) => body.push_str(&format!("rz({t}) {};\n", q(0))),
            Gate::Phase(t) => body.push_str(&format!("u1({t}) {};\n", q(0))),
            Gate::U3(t, p, l) => body.push_str(&format!("u3({t},{p},{l}) {};\n", q(0))),
            Gate::Unitary1(m) => {
                let (theta, phi, lam, _alpha) = mirage_gates::euler_zyz(m);
                body.push_str(&format!("u3({theta},{phi},{lam}) {};\n", q(0)));
            }
            Gate::Cx => body.push_str(&format!("cx {},{};\n", q(0), q(1))),
            Gate::Cz => body.push_str(&format!("cz {},{};\n", q(0), q(1))),
            Gate::Cphase(t) => body.push_str(&format!("cu1({t}) {},{};\n", q(0), q(1))),
            Gate::Cry(t) => {
                // Standard 2-CX decomposition of a controlled RY.
                body.push_str(&format!("ry({}) {};\n", t / 2.0, q(1)));
                body.push_str(&format!("cx {},{};\n", q(0), q(1)));
                body.push_str(&format!("ry({}) {};\n", -t / 2.0, q(1)));
                body.push_str(&format!("cx {},{};\n", q(0), q(1)));
            }
            Gate::Swap => body.push_str(&format!("swap {},{};\n", q(0), q(1))),
            Gate::ISwap => {
                needs_iswap = true;
                body.push_str(&format!("iswap {},{};\n", q(0), q(1)));
            }
            Gate::ISwapPow(a) => {
                needs_rxx = true;
                needs_ryy = true;
                // iSWAP^α = rxx(−απ/2) · ryy(−απ/2) (commuting factors).
                let theta = -a * std::f64::consts::FRAC_PI_2;
                body.push_str(&format!("rxx({theta}) {},{};\n", q(0), q(1)));
                body.push_str(&format!("ryy({theta}) {},{};\n", q(0), q(1)));
            }
            Gate::Rxx(t) => {
                needs_rxx = true;
                body.push_str(&format!("rxx({t}) {},{};\n", q(0), q(1)));
            }
            Gate::Ryy(t) => {
                needs_ryy = true;
                body.push_str(&format!("ryy({t}) {},{};\n", q(0), q(1)));
            }
            Gate::Rzz(t) => {
                needs_rzz = true;
                body.push_str(&format!("rzz({t}) {},{};\n", q(0), q(1)));
            }
            Gate::Unitary2(m) => {
                // KAK: U = e^{iφ}(K1l⊗K1r)·CAN(a,b,c)·(K2l⊗K2r), and
                // CAN(a,b,c) = rxx(−2a)·ryy(−2b)·rzz(−2c).
                let kak = mirage_weyl::kak::kak_decompose(m).expect("unitary blocks decompose");
                needs_rxx = true;
                needs_ryy = true;
                needs_rzz = true;
                let emit_1q = |body: &mut String, u: &mirage_math::Mat2, wire: &str| {
                    let (theta, phi, lam, _alpha) = mirage_gates::euler_zyz(u);
                    body.push_str(&format!("u3({theta},{phi},{lam}) {wire};\n"));
                };
                emit_1q(&mut body, &kak.k2l, &q(0));
                emit_1q(&mut body, &kak.k2r, &q(1));
                body.push_str(&format!("rxx({}) {},{};\n", -2.0 * kak.a, q(0), q(1)));
                body.push_str(&format!("ryy({}) {},{};\n", -2.0 * kak.b, q(0), q(1)));
                body.push_str(&format!("rzz({}) {},{};\n", -2.0 * kak.c, q(0), q(1)));
                emit_1q(&mut body, &kak.k1l, &q(0));
                emit_1q(&mut body, &kak.k1r, &q(1));
            }
        }
    }

    let mut header = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    if needs_iswap {
        header.push_str("gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }\n");
    }
    if needs_rxx {
        header
            .push_str("gate rxx(theta) a,b { h a; h b; cx a,b; rz(theta) b; cx a,b; h a; h b; }\n");
    }
    if needs_ryy {
        header.push_str("gate ryy(theta) a,b { rx(pi/2) a; rx(pi/2) b; cx a,b; rz(theta) b; cx a,b; rx(-pi/2) a; rx(-pi/2) b; }\n");
    }
    if needs_rzz {
        header.push_str("gate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\n");
    }
    header.push_str(&format!("qreg q[{}];\n", c.n_qubits));
    header.push_str(&body);
    header
}

/// Errors from [`from_qasm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QASM parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for QasmError {}

/// Parse an OpenQASM 2.0 program (the supported subset — see module docs).
///
/// # Errors
///
/// Returns a [`QasmError`] with the offending line for unknown gates,
/// malformed arguments, or out-of-range qubit references.
pub fn from_qasm(src: &str) -> Result<Circuit, QasmError> {
    // Register table: name → (offset, size).
    let mut regs: Vec<(String, usize, usize)> = Vec::new();
    let mut total = 0usize;
    let mut instructions: Vec<(usize, String)> = Vec::new();

    // Strip `gate name(...) ... { body }` definition blocks up front (the
    // standard-library gates they define are built in); QASM 2.0 gate
    // bodies cannot nest braces, so a simple scan suffices.
    let mut stripped = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(start) = rest.find("gate ") {
        // Only treat it as a definition when a '{' appears before the next ';'.
        let after = &rest[start..];
        let brace = after.find('{');
        let semi = after.find(';');
        match (brace, semi) {
            (Some(b), s) if s.map(|x| b < x).unwrap_or(true) => {
                let close = after[b..].find('}').map(|p| start + b + p + 1);
                stripped.push_str(&rest[..start]);
                match close {
                    Some(c) => rest = &rest[c..],
                    None => {
                        rest = "";
                    }
                }
            }
            _ => {
                stripped.push_str(&rest[..start + 5]);
                rest = &rest[start + 5..];
            }
        }
    }
    stripped.push_str(rest);
    let src: &str = &stripped;

    // Strip comments, split on ';'.
    for (line_no, raw_line) in src.lines().enumerate() {
        let line = match raw_line.find("//") {
            Some(p) => &raw_line[..p],
            None => raw_line,
        };
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            instructions.push((line_no + 1, stmt.to_string()));
        }
    }

    let mut circuit_body: Vec<(usize, String)> = Vec::new();
    for (line, stmt) in instructions {
        if stmt.starts_with("OPENQASM")
            || stmt.starts_with("include")
            || stmt.starts_with("creg")
            || stmt.starts_with("barrier")
            || stmt.starts_with("measure")
            || stmt.starts_with("gate ")
            || stmt == "}"
        {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("qreg") {
            let rest = rest.trim();
            let open = rest.find('[').ok_or_else(|| QasmError {
                line,
                message: "qreg missing size".into(),
            })?;
            let close = rest[open..]
                .find(']')
                .map(|p| open + p)
                .ok_or_else(|| QasmError {
                    line,
                    message: "qreg missing ]".into(),
                })?;
            let name = rest[..open].trim().to_string();
            let size: usize = rest[open + 1..close]
                .trim()
                .parse()
                .map_err(|_| QasmError {
                    line,
                    message: "bad qreg size".into(),
                })?;
            regs.push((name, total, size));
            total = total.checked_add(size).ok_or_else(|| QasmError {
                line,
                message: "qreg sizes overflow".into(),
            })?;
            continue;
        }
        circuit_body.push((line, stmt));
    }

    let mut c = Circuit::new(total);
    for (line, stmt) in circuit_body {
        parse_gate(&mut c, &regs, line, &stmt)?;
    }
    Ok(c)
}

fn parse_gate(
    c: &mut Circuit,
    regs: &[(String, usize, usize)],
    line: usize,
    stmt: &str,
) -> Result<(), QasmError> {
    let err = |message: &str| QasmError {
        line,
        message: message.to_string(),
    };

    // Split "name(args) operands".
    let (head, operands) = match stmt.find(')') {
        Some(p) => (&stmt[..=p], stmt[p + 1..].trim()),
        None => match stmt.find(' ') {
            Some(p) => (&stmt[..p], stmt[p + 1..].trim()),
            None => return Err(err("malformed statement")),
        },
    };
    let (name, args) = match head.find('(') {
        Some(p) => {
            let name = head[..p].trim();
            let inner = head[p + 1..head.len() - 1].trim();
            let args: Result<Vec<f64>, QasmError> = inner
                .split(',')
                .map(|e| eval_expr(e).ok_or_else(|| err("bad parameter expression")))
                .collect();
            (name, args?)
        }
        None => (head.trim(), Vec::new()),
    };

    let qubits: Result<Vec<usize>, QasmError> = operands
        .split(',')
        .map(|op| resolve_qubit(regs, op.trim()).ok_or_else(|| err("unknown qubit operand")))
        .collect();
    let qubits = qubits?;
    if qubits
        .iter()
        .enumerate()
        .any(|(i, q)| qubits[..i].contains(q))
    {
        return Err(err("repeated qubit operand"));
    }

    let arg = |k: usize| -> Result<f64, QasmError> {
        args.get(k).copied().ok_or_else(|| err("missing parameter"))
    };

    match (name, qubits.len()) {
        ("h", 1) => c.push(Gate::H, &qubits),
        ("x", 1) => c.push(Gate::X, &qubits),
        ("y", 1) => c.push(Gate::Y, &qubits),
        ("z", 1) => c.push(Gate::Z, &qubits),
        ("s", 1) => c.push(Gate::S, &qubits),
        ("sdg", 1) => c.push(Gate::Sdg, &qubits),
        ("t", 1) => c.push(Gate::T, &qubits),
        ("tdg", 1) => c.push(Gate::Tdg, &qubits),
        ("id", 1) => return Ok(()),
        ("rx", 1) => c.push(Gate::Rx(arg(0)?), &qubits),
        ("ry", 1) => c.push(Gate::Ry(arg(0)?), &qubits),
        ("rz", 1) => c.push(Gate::Rz(arg(0)?), &qubits),
        ("p", 1) | ("u1", 1) => c.push(Gate::Phase(arg(0)?), &qubits),
        ("u2", 1) => c.push(
            Gate::U3(std::f64::consts::FRAC_PI_2, arg(0)?, arg(1)?),
            &qubits,
        ),
        ("u3", 1) | ("u", 1) => c.push(Gate::U3(arg(0)?, arg(1)?, arg(2)?), &qubits),
        ("cx", 2) => c.push(Gate::Cx, &qubits),
        ("cz", 2) => c.push(Gate::Cz, &qubits),
        ("cp", 2) | ("cu1", 2) => c.push(Gate::Cphase(arg(0)?), &qubits),
        ("cry", 2) => c.push(Gate::Cry(arg(0)?), &qubits),
        ("swap", 2) => c.push(Gate::Swap, &qubits),
        ("iswap", 2) => c.push(Gate::ISwap, &qubits),
        ("rxx", 2) => c.push(Gate::Rxx(arg(0)?), &qubits),
        ("ryy", 2) => c.push(Gate::Ryy(arg(0)?), &qubits),
        ("rzz", 2) => c.push(Gate::Rzz(arg(0)?), &qubits),
        ("ccx", 3) => c.ccx(qubits[0], qubits[1], qubits[2]),
        ("cswap", 3) => c.cswap(qubits[0], qubits[1], qubits[2]),
        (other, n) => return Err(err(&format!("unsupported gate '{other}' on {n} qubits"))),
    };
    Ok(())
}

fn resolve_qubit(regs: &[(String, usize, usize)], op: &str) -> Option<usize> {
    let open = op.find('[')?;
    let close = open + op[open..].find(']')?;
    let name = op[..open].trim();
    let idx: usize = op[open + 1..close].trim().parse().ok()?;
    let (_, offset, size) = regs.iter().find(|(n, _, _)| n == name)?;
    if idx < *size {
        Some(offset + idx)
    } else {
        None
    }
}

/// Evaluate a parameter expression: numbers, `pi`, unary minus, `+ - * /`,
/// parentheses.
fn eval_expr(src: &str) -> Option<f64> {
    let tokens = tokenize(src)?;
    let mut pos = 0usize;
    let v = parse_sum(&tokens, &mut pos)?;
    if pos == tokens.len() {
        Some(v)
    } else {
        None
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Option<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let ch = bytes[i] as char;
        match ch {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            'p' | 'P' if src[i..].to_lowercase().starts_with("pi") => {
                out.push(Tok::Num(std::f64::consts::PI));
                i += 2;
            }
            'p' | 'P' => return None,
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] as char == '.'
                        || bytes[i] as char == 'e'
                        || bytes[i] as char == 'E'
                        || ((bytes[i] as char == '-' || bytes[i] as char == '+')
                            && i > start
                            && (bytes[i - 1] as char == 'e' || bytes[i - 1] as char == 'E')))
                {
                    i += 1;
                }
                out.push(Tok::Num(src[start..i].parse().ok()?));
            }
            _ => return None,
        }
    }
    Some(out)
}

fn parse_sum(tokens: &[Tok], pos: &mut usize) -> Option<f64> {
    let mut acc = parse_product(tokens, pos)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Tok::Plus => {
                *pos += 1;
                acc += parse_product(tokens, pos)?;
            }
            Tok::Minus => {
                *pos += 1;
                acc -= parse_product(tokens, pos)?;
            }
            _ => break,
        }
    }
    Some(acc)
}

fn parse_product(tokens: &[Tok], pos: &mut usize) -> Option<f64> {
    let mut acc = parse_atom(tokens, pos)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Tok::Star => {
                *pos += 1;
                acc *= parse_atom(tokens, pos)?;
            }
            Tok::Slash => {
                *pos += 1;
                acc /= parse_atom(tokens, pos)?;
            }
            _ => break,
        }
    }
    Some(acc)
}

fn parse_atom(tokens: &[Tok], pos: &mut usize) -> Option<f64> {
    match tokens.get(*pos)? {
        Tok::Num(v) => {
            *pos += 1;
            Some(*v)
        }
        Tok::Minus => {
            *pos += 1;
            Some(-parse_atom(tokens, pos)?)
        }
        Tok::Plus => {
            *pos += 1;
            parse_atom(tokens, pos)
        }
        Tok::LParen => {
            *pos += 1;
            let v = parse_sum(tokens, pos)?;
            if tokens.get(*pos) == Some(&Tok::RParen) {
                *pos += 1;
                Some(v)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ghz, qft};
    use crate::sim::equivalent_on_zero;

    #[test]
    fn export_contains_expected_lines() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(0.5, 1);
        let q = to_qasm(&c);
        assert!(q.contains("qreg q[2];"));
        assert!(q.contains("h q[0];"));
        assert!(q.contains("cx q[0],q[1];"));
        assert!(q.contains("rz(0.5"));
    }

    #[test]
    fn roundtrip_standard_gates() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .rz(0.7, 1)
            .cp(1.1, 1, 2)
            .swap(0, 2)
            .t(2)
            .ry(-0.4, 0);
        let parsed = from_qasm(&to_qasm(&c)).expect("parses");
        assert_eq!(parsed.n_qubits, 3);
        assert!(equivalent_on_zero(&c, &parsed, None));
    }

    #[test]
    fn roundtrip_qft() {
        let c = qft(5, true);
        let parsed = from_qasm(&to_qasm(&c)).expect("parses");
        assert!(equivalent_on_zero(&c, &parsed, None));
    }

    #[test]
    fn roundtrip_cry() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cry(0.8), &[0, 1]);
        c.h(0);
        let parsed = from_qasm(&to_qasm(&c)).expect("parses");
        assert!(equivalent_on_zero(&c, &parsed, None));
    }

    #[test]
    fn roundtrip_iswap_pow() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.push(Gate::ISwapPow(0.5), &[0, 1]);
        c.push(Gate::ISwapPow(0.5), &[0, 1]);
        let parsed = from_qasm(&to_qasm(&c)).expect("parses");
        assert!(equivalent_on_zero(&c, &parsed, None));
    }

    #[test]
    fn roundtrip_unitary_blocks() {
        let mut rng = mirage_math::Rng::new(0xA5);
        let mut c = Circuit::new(2);
        c.h(0);
        c.push(Gate::Unitary2(mirage_gates::haar_2q(&mut rng)), &[0, 1]);
        c.push(Gate::Unitary1(mirage_gates::haar_1q(&mut rng)), &[1]);
        let parsed = from_qasm(&to_qasm(&c)).expect("parses");
        assert!(equivalent_on_zero(&c, &parsed, None));
    }

    #[test]
    fn parse_expressions() {
        assert!((eval_expr("pi/2").unwrap() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((eval_expr("-pi/4").unwrap() + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((eval_expr("3*(1+1)/2").unwrap() - 3.0).abs() < 1e-12);
        assert!((eval_expr("1.5e-3").unwrap() - 0.0015).abs() < 1e-15);
        assert!(eval_expr("pi pi").is_none());
        assert!(eval_expr("(1").is_none());
    }

    #[test]
    fn parse_multiple_registers() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg a[2];
            qreg b[1];
            h a[0];
            cx a[1], b[0];
        "#;
        let c = from_qasm(src).expect("parses");
        assert_eq!(c.n_qubits, 3);
        assert_eq!(c.instructions[1].qubits, vec![1, 2]);
    }

    #[test]
    fn parse_ignores_measure_and_barriers() {
        let src = r#"
            OPENQASM 2.0;
            qreg q[2];
            creg c[2];
            h q[0];
            barrier q[0], q[1];
            measure q[0] -> c[0];
        "#;
        let c = from_qasm(src).expect("parses");
        assert_eq!(c.instructions.len(), 1);
    }

    #[test]
    fn parse_ccx_expands() {
        let src = "qreg q[3];\nccx q[0],q[1],q[2];";
        let c = from_qasm(src).expect("parses");
        assert_eq!(c.two_qubit_gate_count(), 6);
    }

    #[test]
    fn error_reports_line() {
        let src = "qreg q[2];\nfrobnicate q[0];";
        let e = from_qasm(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn error_on_out_of_range_qubit() {
        let src = "qreg q[2];\nh q[5];";
        assert!(from_qasm(src).is_err());
    }

    #[test]
    fn malformed_operands_and_registers_are_errors_not_panics() {
        for (src, want) in [
            ("qreg q[2];\ncx q[0],q[0];", "repeated qubit operand"),
            ("qreg q[2];\nccx q[0],q[0],q[1];", "repeated qubit operand"),
            ("qreg q[2];\nh q]0[;", "unknown qubit operand"),
            ("qreg q]2[;", "qreg missing ]"),
            (
                "qreg a[18446744073709551615];\nqreg b[1];",
                "qreg sizes overflow",
            ),
        ] {
            let e = from_qasm(src).unwrap_err();
            assert!(e.message.contains(want), "{src:?}: got {e}");
        }
    }

    #[test]
    fn ghz_roundtrip_via_strings() {
        let c = ghz(6);
        let text = to_qasm(&c);
        let parsed = from_qasm(&text).expect("parses");
        assert!(equivalent_on_zero(&c, &parsed, None));
        // Export of the parse is stable.
        assert_eq!(to_qasm(&parsed), text);
    }
}
