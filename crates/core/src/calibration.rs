//! Device calibration data: per-edge two-qubit durations and error rates,
//! per-qubit single-qubit durations/errors, and readout errors.
//!
//! The paper's headline claim is that absorbing SWAPs into mirror gates
//! wins *on real hardware* — where every coupler has its own gate time and
//! fidelity. [`Calibration`] is the data model for that heterogeneity: one
//! [`EdgeCalibration`] per coupler and one [`QubitCalibration`] per qubit,
//! normalized so that [`Calibration::uniform`] reproduces the paper's
//! idealized device (free 1Q gates, nominal 2Q durations, zero error)
//! exactly.
//!
//! Conventions:
//!
//! * **Edge durations are scale factors.** Decomposition costs come out of
//!   the coverage set in normalized duration units (iSWAP = 1.0);
//!   [`EdgeCalibration::duration_factor`] multiplies that cost, so `1.0`
//!   means the nominal device and `10.0` a 10× slower coupler.
//! * **Edge errors are per basis-gate application.** A gate that needs
//!   `k` applications of the basis on an edge with error `e` succeeds with
//!   probability `(1 − e)^k` — a SWAP priced at 3 CNOTs (CNOT basis) or
//!   3 √iSWAPs pays 3 applications, a mirrored `SWAP·U` pays only `U`'s.
//! * **Qubit errors are per gate**, readout errors per measurement.
//!
//! A plain-text load/save format ([`Calibration::from_text`] /
//! [`Calibration::to_text`]) lets `mirage-cli` consume calibration files
//! via `--calibration <file>`; the format round-trips exactly.
//!
//! ```
//! use mirage_core::calibration::Calibration;
//! use mirage_topology::CouplingMap;
//!
//! let topo = CouplingMap::line(3);
//! let cal = Calibration::uniform(&topo);
//! let reparsed = Calibration::from_text(&cal.to_text()).unwrap();
//! assert_eq!(cal, reparsed);
//! ```

use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::collections::BTreeMap;

/// Largest `qubits` header [`Calibration::from_text`] accepts — far above
/// any real device, far below an allocation that aborts the process.
const MAX_TEXT_QUBITS: usize = 1 << 16;

/// Calibration of one physical qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Duration charged per single-qubit gate (normalized units,
    /// iSWAP = 1.0). The paper treats 1Q gates as free (§IV-B): `0.0`.
    pub duration_1q: f64,
    /// Error probability per single-qubit gate.
    pub error_1q: f64,
    /// Error probability per measurement of this qubit.
    pub readout_error: f64,
}

impl Default for QubitCalibration {
    /// The paper's idealized qubit: free, error-less 1Q gates and perfect
    /// readout.
    fn default() -> Self {
        QubitCalibration {
            duration_1q: 0.0,
            error_1q: 0.0,
            readout_error: 0.0,
        }
    }
}

/// Calibration of one coupler (undirected qubit pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCalibration {
    /// Scale factor on the decomposition duration of gates executed on this
    /// edge (`1.0` = the nominal device the coverage set is normalized to).
    pub duration_factor: f64,
    /// Error probability per basis-gate application on this edge.
    pub error_2q: f64,
}

impl Default for EdgeCalibration {
    /// The nominal coupler: unit duration scale, zero error.
    fn default() -> Self {
        EdgeCalibration {
            duration_factor: 1.0,
            error_2q: 0.0,
        }
    }
}

/// Errors from building, parsing, or validating calibration data.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// A queried or required edge has no calibration entry.
    MissingEdge {
        /// Lower endpoint.
        a: usize,
        /// Upper endpoint.
        b: usize,
    },
    /// A qubit index is outside the calibrated register.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// Calibrated register width.
        n_qubits: usize,
    },
    /// An edge entry names the same qubit twice.
    SelfLoop {
        /// The repeated qubit.
        qubit: usize,
    },
    /// The calibrated register is narrower than the device it is applied to.
    WidthMismatch {
        /// Calibrated register width.
        calibration: usize,
        /// Device width.
        device: usize,
    },
    /// A value is out of its physical range (negative duration, error
    /// outside `[0, 1)`).
    InvalidValue {
        /// Which field was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A text-format line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::MissingEdge { a, b } => {
                write!(f, "no calibration entry for edge ({a}, {b})")
            }
            CalibrationError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit {qubit} outside calibrated register of {n_qubits}")
            }
            CalibrationError::SelfLoop { qubit } => {
                write!(f, "self-loop edge ({qubit}, {qubit})")
            }
            CalibrationError::WidthMismatch {
                calibration,
                device,
            } => write!(
                f,
                "calibration covers {calibration} qubits, device has {device}"
            ),
            CalibrationError::InvalidValue { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            CalibrationError::Parse { line, msg } => {
                write!(f, "calibration parse error at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Per-edge and per-qubit calibration of a device.
///
/// See the [module docs](self) for units and conventions. Build with
/// [`Calibration::uniform`], [`Calibration::from_edges`], or
/// [`Calibration::synthetic`], or load a file with
/// [`Calibration::from_text`].
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    n_qubits: usize,
    qubits: Vec<QubitCalibration>,
    edges: BTreeMap<(usize, usize), EdgeCalibration>,
}

fn check_qubit(cal: &QubitCalibration) -> Result<(), CalibrationError> {
    let bad = |what, value| Err(CalibrationError::InvalidValue { what, value });
    if !cal.duration_1q.is_finite() || cal.duration_1q < 0.0 {
        return bad("1Q duration", cal.duration_1q);
    }
    if !(0.0..1.0).contains(&cal.error_1q) {
        return bad("1Q error", cal.error_1q);
    }
    if !(0.0..1.0).contains(&cal.readout_error) {
        return bad("readout error", cal.readout_error);
    }
    Ok(())
}

fn check_edge(cal: &EdgeCalibration) -> Result<(), CalibrationError> {
    let bad = |what, value| Err(CalibrationError::InvalidValue { what, value });
    if !cal.duration_factor.is_finite() || cal.duration_factor <= 0.0 {
        return bad("edge duration factor", cal.duration_factor);
    }
    if !(0.0..1.0).contains(&cal.error_2q) {
        return bad("edge error", cal.error_2q);
    }
    Ok(())
}

impl Calibration {
    /// The idealized uniform device over a topology: every coupler nominal
    /// ([`EdgeCalibration::default`]), every qubit ideal
    /// ([`QubitCalibration::default`]). Scoring against this calibration
    /// reproduces the uncalibrated metrics exactly.
    pub fn uniform(topo: &CouplingMap) -> Calibration {
        let edges = topo
            .edges()
            .iter()
            .map(|&e| (e, EdgeCalibration::default()))
            .collect();
        Calibration {
            n_qubits: topo.n_qubits(),
            qubits: vec![QubitCalibration::default(); topo.n_qubits()],
            edges,
        }
    }

    /// Build from an explicit edge list; qubits start ideal and can be
    /// refined with [`Calibration::set_qubit`].
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self-loops, and out-of-range values.
    pub fn from_edges(
        n_qubits: usize,
        edges: &[(usize, usize, EdgeCalibration)],
    ) -> Result<Calibration, CalibrationError> {
        let mut cal = Calibration {
            n_qubits,
            qubits: vec![QubitCalibration::default(); n_qubits],
            edges: BTreeMap::new(),
        };
        for &(a, b, e) in edges {
            cal.set_edge(a, b, e)?;
        }
        Ok(cal)
    }

    /// A seeded-random heterogeneous calibration over a topology, for
    /// benchmarks and noise-model experiments: edge durations spread over
    /// `[0.85, 1.3]×` nominal, edge errors log-uniform in `[3·10⁻³, 2·10⁻²]`
    /// per application, qubit errors in `[10⁻⁴, 10⁻³]`, readout errors in
    /// `[5·10⁻³, 4·10⁻²]`. 1Q gates stay free (the paper's convention) so
    /// depth comparisons against uniform devices remain meaningful.
    pub fn synthetic(topo: &CouplingMap, rng: &mut Rng) -> Calibration {
        let mut cal = Calibration::uniform(topo);
        for q in 0..cal.n_qubits {
            cal.qubits[q] = QubitCalibration {
                duration_1q: 0.0,
                error_1q: rng.uniform_range(1e-4, 1e-3),
                readout_error: rng.uniform_range(5e-3, 4e-2),
            };
        }
        for entry in cal.edges.values_mut() {
            let log_err = rng.uniform_range((3e-3f64).ln(), (2e-2f64).ln());
            *entry = EdgeCalibration {
                duration_factor: rng.uniform_range(0.85, 1.3),
                error_2q: log_err.exp(),
            };
        }
        cal
    }

    /// A skew model for the calibration-sweep experiment: a base
    /// calibration with `base_error` per application on every edge, then a
    /// random `outlier_fraction` of edges degraded by `factor` (duration
    /// ×`factor`, error ×`factor`, capped below 50%). `factor = 1` is the
    /// uniform device.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range `base_error` / `factor` combinations through
    /// the same validation as every other construction path.
    pub fn skewed(
        topo: &CouplingMap,
        rng: &mut Rng,
        base_error: f64,
        outlier_fraction: f64,
        factor: f64,
    ) -> Result<Calibration, CalibrationError> {
        let mut cal = Calibration::uniform(topo);
        let mut keys: Vec<(usize, usize)> = cal.edges.keys().copied().collect();
        for &(a, b) in &keys {
            cal.set_edge(
                a,
                b,
                EdgeCalibration {
                    duration_factor: 1.0,
                    error_2q: base_error,
                },
            )?;
        }
        rng.shuffle(&mut keys);
        let n_outliers = ((keys.len() as f64) * outlier_fraction).round() as usize;
        for (a, b) in keys.into_iter().take(n_outliers) {
            cal.set_edge(
                a,
                b,
                EdgeCalibration {
                    duration_factor: factor,
                    error_2q: (base_error * factor).min(0.5),
                },
            )?;
        }
        Ok(cal)
    }

    /// A drifted copy of this calibration: every edge's duration factor
    /// and error rate, and every qubit's errors, are multiplied by an
    /// independent random factor in `[1/(1+magnitude), 1+magnitude]`
    /// (log-uniform, so drift is unbiased in log space), clamped to the
    /// physical ranges. This is the serving-layer scenario: the device a
    /// long-lived `mirage_serve::TranspileService` process targets is never
    /// the device that was calibrated at boot, and
    /// [`Target::swap_calibration`](crate::target::Target::swap_calibration)
    /// absorbs the refreshed snapshot without a rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `magnitude` is negative or non-finite.
    pub fn drifted(&self, rng: &mut Rng, magnitude: f64) -> Calibration {
        assert!(
            magnitude.is_finite() && magnitude >= 0.0,
            "drift magnitude must be a finite non-negative factor"
        );
        let span = (1.0 + magnitude).ln();
        let factor = |rng: &mut Rng| rng.uniform_range(-span, span).exp();
        let mut cal = self.clone();
        for q in cal.qubits.iter_mut() {
            // 1Q durations stay put (the paper's free-1Q convention);
            // errors drift multiplicatively and stay in [0, 1).
            q.error_1q = (q.error_1q * factor(rng)).min(0.999_999);
            q.readout_error = (q.readout_error * factor(rng)).min(0.999_999);
        }
        for e in cal.edges.values_mut() {
            e.duration_factor = (e.duration_factor * factor(rng)).max(1e-6);
            e.error_2q = (e.error_2q * factor(rng)).min(0.999_999);
        }
        cal
    }

    /// Calibrated register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// True when every qubit is ideal and every edge nominal — i.e. the
    /// device is indistinguishable from [`Calibration::uniform`] and no
    /// placement can be better than any other on noise grounds. The
    /// `NoiseAware` layout strategy uses this to fall back to random
    /// seeding instead of manufacturing spurious quality differences.
    pub fn is_uniform(&self) -> bool {
        self.qubits
            .iter()
            .all(|q| *q == QubitCalibration::default())
            && self
                .edges
                .values()
                .all(|e| *e == EdgeCalibration::default())
    }

    /// Iterate over `(edge, calibration)` entries in normalized order.
    pub fn edges(&self) -> impl Iterator<Item = (&(usize, usize), &EdgeCalibration)> {
        self.edges.iter()
    }

    /// Set one qubit's calibration.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range indices and out-of-range values.
    pub fn set_qubit(&mut self, q: usize, cal: QubitCalibration) -> Result<(), CalibrationError> {
        if q >= self.n_qubits {
            return Err(CalibrationError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            });
        }
        check_qubit(&cal)?;
        self.qubits[q] = cal;
        Ok(())
    }

    /// Set one edge's calibration (endpoint order is irrelevant).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self-loops, and out-of-range values.
    pub fn set_edge(
        &mut self,
        a: usize,
        b: usize,
        cal: EdgeCalibration,
    ) -> Result<(), CalibrationError> {
        let hi = a.max(b);
        if hi >= self.n_qubits {
            return Err(CalibrationError::QubitOutOfRange {
                qubit: hi,
                n_qubits: self.n_qubits,
            });
        }
        if a == b {
            return Err(CalibrationError::SelfLoop { qubit: a });
        }
        check_edge(&cal)?;
        self.edges.insert((a.min(b), a.max(b)), cal);
        Ok(())
    }

    /// One qubit's calibration.
    ///
    /// # Errors
    ///
    /// [`CalibrationError::QubitOutOfRange`] when `q` is outside the
    /// calibrated register.
    pub fn qubit(&self, q: usize) -> Result<QubitCalibration, CalibrationError> {
        self.qubits
            .get(q)
            .copied()
            .ok_or(CalibrationError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            })
    }

    /// One edge's calibration (endpoint order is irrelevant).
    ///
    /// # Errors
    ///
    /// [`CalibrationError::MissingEdge`] when the pair has no entry — e.g.
    /// a coupler the calibration file forgot.
    pub fn edge(&self, a: usize, b: usize) -> Result<EdgeCalibration, CalibrationError> {
        let key = (a.min(b), a.max(b));
        self.edges
            .get(&key)
            .copied()
            .ok_or(CalibrationError::MissingEdge { a: key.0, b: key.1 })
    }

    /// Qubit calibration with an ideal-qubit fallback for indices outside
    /// the register (scoring stays total on any circuit).
    pub fn qubit_or_default(&self, q: usize) -> QubitCalibration {
        self.qubits.get(q).copied().unwrap_or_default()
    }

    /// Edge calibration with a nominal fallback for uncalibrated pairs
    /// (only reachable when scoring circuits that were never placed on the
    /// device — routed circuits touch calibrated couplers exclusively once
    /// the calibration passes [`Calibration::validate_for`]).
    pub fn edge_or_nominal(&self, a: usize, b: usize) -> EdgeCalibration {
        self.edges
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or_default()
    }

    /// Check that this calibration fully covers a device: the register is
    /// at least as wide and **every** coupler has an entry.
    ///
    /// # Errors
    ///
    /// [`CalibrationError::WidthMismatch`] or
    /// [`CalibrationError::MissingEdge`] for the first uncovered coupler.
    pub fn validate_for(&self, topo: &CouplingMap) -> Result<(), CalibrationError> {
        if self.n_qubits < topo.n_qubits() {
            return Err(CalibrationError::WidthMismatch {
                calibration: self.n_qubits,
                device: topo.n_qubits(),
            });
        }
        for &(a, b) in topo.edges() {
            if !self.edges.contains_key(&(a, b)) {
                return Err(CalibrationError::MissingEdge { a, b });
            }
        }
        Ok(())
    }

    /// Serialize to the plain-text format (see [`Calibration::from_text`]).
    /// Floats are written in shortest round-trip form, so
    /// `from_text(to_text())` is the identity.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# mirage calibration v1\n");
        out.push_str(&format!("qubits {}\n", self.n_qubits));
        for (q, cal) in self.qubits.iter().enumerate() {
            out.push_str(&format!(
                "qubit {q} dur {} err {} ro {}\n",
                cal.duration_1q, cal.error_1q, cal.readout_error
            ));
        }
        for (&(a, b), cal) in &self.edges {
            out.push_str(&format!(
                "edge {a} {b} dur {} err {}\n",
                cal.duration_factor, cal.error_2q
            ));
        }
        out
    }

    /// Parse the plain-text calibration format:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// qubits 4
    /// qubit 0 dur 0 err 0.001 ro 0.02
    /// edge 0 1 dur 1.25 err 0.008
    /// ```
    ///
    /// The `qubits <n>` header must come first; `qubit` lines are optional
    /// (unlisted qubits stay ideal), `edge` lines define the couplers.
    ///
    /// # Errors
    ///
    /// [`CalibrationError::Parse`] with the offending 1-based line number,
    /// or a value/range error from the setters.
    pub fn from_text(text: &str) -> Result<Calibration, CalibrationError> {
        let mut cal: Option<Calibration> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let parse_err = |msg: String| CalibrationError::Parse { line: line_no, msg };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let usize_at = |i: usize| -> Result<usize, CalibrationError> {
                tokens
                    .get(i)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| parse_err(format!("expected an integer in '{line}'")))
            };
            let f64_after = |key: &str| -> Result<f64, CalibrationError> {
                let pos = tokens
                    .iter()
                    .position(|&t| t == key)
                    .ok_or_else(|| parse_err(format!("missing '{key}' in '{line}'")))?;
                tokens
                    .get(pos + 1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| parse_err(format!("bad value for '{key}' in '{line}'")))
            };
            match tokens[0] {
                "qubits" => {
                    if cal.is_some() {
                        return Err(parse_err("duplicate 'qubits' header".into()));
                    }
                    let n = usize_at(1)?;
                    if n > MAX_TEXT_QUBITS {
                        return Err(parse_err(format!(
                            "'qubits {n}' exceeds the limit of {MAX_TEXT_QUBITS}"
                        )));
                    }
                    cal = Some(Calibration {
                        n_qubits: n,
                        qubits: vec![QubitCalibration::default(); n],
                        edges: BTreeMap::new(),
                    });
                }
                "qubit" => {
                    let cal = cal
                        .as_mut()
                        .ok_or_else(|| parse_err("'qubit' before 'qubits' header".into()))?;
                    cal.set_qubit(
                        usize_at(1)?,
                        QubitCalibration {
                            duration_1q: f64_after("dur")?,
                            error_1q: f64_after("err")?,
                            readout_error: f64_after("ro")?,
                        },
                    )
                    // Re-wrap range/value rejections with the file location.
                    .map_err(|e| parse_err(e.to_string()))?;
                }
                "edge" => {
                    let cal = cal
                        .as_mut()
                        .ok_or_else(|| parse_err("'edge' before 'qubits' header".into()))?;
                    cal.set_edge(
                        usize_at(1)?,
                        usize_at(2)?,
                        EdgeCalibration {
                            duration_factor: f64_after("dur")?,
                            error_2q: f64_after("err")?,
                        },
                    )
                    .map_err(|e| parse_err(e.to_string()))?;
                }
                other => return Err(parse_err(format!("unknown record '{other}'"))),
            }
        }
        cal.ok_or(CalibrationError::Parse {
            line: 0,
            msg: "empty calibration (no 'qubits' header)".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_every_edge_with_nominal_values() {
        let topo = CouplingMap::grid(3, 3);
        let cal = Calibration::uniform(&topo);
        assert_eq!(cal.n_qubits(), 9);
        cal.validate_for(&topo).unwrap();
        for &(a, b) in topo.edges() {
            let e = cal.edge(a, b).unwrap();
            assert_eq!(e, EdgeCalibration::default());
        }
        assert_eq!(cal.qubit(0).unwrap(), QubitCalibration::default());
    }

    #[test]
    fn missing_edge_errors_cleanly() {
        let topo = CouplingMap::line(4);
        // Leave edge (1, 2) out of the calibration.
        let cal = Calibration::from_edges(
            4,
            &[
                (0, 1, EdgeCalibration::default()),
                (2, 3, EdgeCalibration::default()),
            ],
        )
        .unwrap();
        assert_eq!(
            cal.edge(1, 2),
            Err(CalibrationError::MissingEdge { a: 1, b: 2 })
        );
        assert_eq!(
            cal.validate_for(&topo),
            Err(CalibrationError::MissingEdge { a: 1, b: 2 })
        );
        // The error formats usefully.
        let msg = cal.validate_for(&topo).unwrap_err().to_string();
        assert!(msg.contains("(1, 2)"), "{msg}");
    }

    #[test]
    fn narrow_calibration_rejected() {
        let topo = CouplingMap::line(5);
        let cal = Calibration::uniform(&CouplingMap::line(3));
        assert!(matches!(
            cal.validate_for(&topo),
            Err(CalibrationError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn edge_lookup_is_order_insensitive() {
        let mut cal = Calibration::uniform(&CouplingMap::line(3));
        cal.set_edge(
            2,
            1,
            EdgeCalibration {
                duration_factor: 2.5,
                error_2q: 0.01,
            },
        )
        .unwrap();
        assert_eq!(cal.edge(1, 2).unwrap().duration_factor, 2.5);
        assert_eq!(cal.edge(2, 1).unwrap().duration_factor, 2.5);
    }

    #[test]
    fn value_ranges_enforced() {
        let mut cal = Calibration::uniform(&CouplingMap::line(3));
        assert!(matches!(
            cal.set_edge(
                0,
                1,
                EdgeCalibration {
                    duration_factor: 0.0,
                    error_2q: 0.0
                }
            ),
            Err(CalibrationError::InvalidValue { .. })
        ));
        assert!(matches!(
            cal.set_edge(
                0,
                1,
                EdgeCalibration {
                    duration_factor: 1.0,
                    error_2q: 1.0
                }
            ),
            Err(CalibrationError::InvalidValue { .. })
        ));
        assert!(matches!(
            cal.set_qubit(
                0,
                QubitCalibration {
                    duration_1q: -0.1,
                    error_1q: 0.0,
                    readout_error: 0.0
                }
            ),
            Err(CalibrationError::InvalidValue { .. })
        ));
        assert!(matches!(
            cal.set_qubit(9, QubitCalibration::default()),
            Err(CalibrationError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn is_uniform_detects_any_degradation() {
        let topo = CouplingMap::grid(3, 3);
        let mut cal = Calibration::uniform(&topo);
        assert!(cal.is_uniform());
        cal.set_edge(
            0,
            1,
            EdgeCalibration {
                duration_factor: 1.0,
                error_2q: 1e-4,
            },
        )
        .unwrap();
        assert!(!cal.is_uniform());
        let mut cal2 = Calibration::uniform(&topo);
        cal2.set_qubit(
            4,
            QubitCalibration {
                duration_1q: 0.0,
                error_1q: 0.0,
                readout_error: 0.01,
            },
        )
        .unwrap();
        assert!(!cal2.is_uniform());
        assert!(!Calibration::synthetic(&topo, &mut Rng::new(3)).is_uniform());
    }

    #[test]
    fn text_format_round_trips() {
        let topo = CouplingMap::heavy_hex(3);
        let mut rng = Rng::new(0xCA1);
        let cal = Calibration::synthetic(&topo, &mut rng);
        let text = cal.to_text();
        let back = Calibration::from_text(&text).unwrap();
        assert_eq!(cal, back, "plain-text format must round-trip exactly");
    }

    #[test]
    fn from_text_parses_comments_and_defaults() {
        let text = "# device X\n\nqubits 3\nedge 0 1 dur 1.5 err 0.02\nedge 1 2 dur 1 err 0\n";
        let cal = Calibration::from_text(text).unwrap();
        assert_eq!(cal.n_qubits(), 3);
        // Unlisted qubits stay ideal.
        assert_eq!(cal.qubit(2).unwrap(), QubitCalibration::default());
        assert!((cal.edge(0, 1).unwrap().duration_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_text_rejects_garbage() {
        for (text, needle) in [
            ("", "qubits"),
            ("edge 0 1 dur 1 err 0\n", "before 'qubits'"),
            ("qubits 3\nqubits 3\n", "duplicate"),
            ("qubits 3\nwibble 1\n", "unknown record"),
            ("qubits 3\nedge 0 1 dur x err 0\n", "bad value"),
            ("qubits 3\nedge 0 0 dur 1 err 0\n", "self-loop"),
            ("qubits 1000000000000\n", "exceeds the limit"),
            ("qubits 18446744073709551615\n", "exceeds the limit"),
        ] {
            let err = Calibration::from_text(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} gave {err} (wanted {needle})"
            );
        }
    }

    #[test]
    fn synthetic_is_seed_deterministic_and_valid() {
        let topo = CouplingMap::grid(3, 3);
        let a = Calibration::synthetic(&topo, &mut Rng::new(7));
        let b = Calibration::synthetic(&topo, &mut Rng::new(7));
        let c = Calibration::synthetic(&topo, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.validate_for(&topo).unwrap();
        for (_, e) in a.edges() {
            assert!(e.duration_factor >= 0.85 && e.duration_factor <= 1.3);
            assert!(e.error_2q > 0.0 && e.error_2q < 1.0);
        }
    }

    #[test]
    fn drifted_stays_valid_and_bounded() {
        let topo = CouplingMap::grid(3, 3);
        let base = Calibration::synthetic(&topo, &mut Rng::new(0xD1));
        let drifted = base.drifted(&mut Rng::new(0xD2), 0.3);
        drifted.validate_for(&topo).unwrap();
        assert_ne!(base, drifted, "nonzero drift must change something");
        for ((k, e0), (k1, e1)) in base.edges().zip(drifted.edges()) {
            assert_eq!(k, k1, "drift never adds or drops couplers");
            let ratio = e1.duration_factor / e0.duration_factor;
            assert!((1.0 / 1.3..=1.3).contains(&ratio), "ratio {ratio}");
            assert!(e1.error_2q > 0.0 && e1.error_2q < 1.0);
        }
        // Zero magnitude is the identity.
        assert_eq!(base.drifted(&mut Rng::new(1), 0.0), base);
        // Seed-deterministic.
        assert_eq!(
            base.drifted(&mut Rng::new(7), 0.2),
            base.drifted(&mut Rng::new(7), 0.2)
        );
    }

    #[test]
    fn skewed_degrades_requested_fraction() {
        let topo = CouplingMap::grid(4, 4);
        let mut rng = Rng::new(11);
        let cal = Calibration::skewed(&topo, &mut rng, 5e-3, 0.25, 10.0).unwrap();
        let outliers = cal.edges().filter(|(_, e)| e.duration_factor > 1.0).count();
        let expected = ((topo.edges().len() as f64) * 0.25).round() as usize;
        assert_eq!(outliers, expected);
        for (_, e) in cal.edges() {
            assert!(e.error_2q <= 0.5);
        }
        // factor = 1 is the uniform-duration device with a base error.
        let flat = Calibration::skewed(&topo, &mut Rng::new(11), 5e-3, 0.25, 1.0).unwrap();
        assert!(flat.edges().all(|(_, e)| e.duration_factor == 1.0));
        // Same seed, different factors: the *same* edges are degraded, so a
        // skew sweep isolates magnitude from outlier placement.
        let a = Calibration::skewed(&topo, &mut Rng::new(11), 5e-3, 0.25, 10.0).unwrap();
        let b = Calibration::skewed(&topo, &mut Rng::new(11), 5e-3, 0.25, 3.0).unwrap();
        let outlier_set = |c: &Calibration| -> Vec<(usize, usize)> {
            c.edges()
                .filter(|(_, e)| e.duration_factor > 1.0)
                .map(|(k, _)| *k)
                .collect()
        };
        assert_eq!(outlier_set(&a), outlier_set(&b));
        // Out-of-range base errors are rejected, not silently stored.
        assert!(matches!(
            Calibration::skewed(&topo, &mut Rng::new(11), 1.5, 0.25, 1.0),
            Err(CalibrationError::InvalidValue { .. })
        ));
    }
}
