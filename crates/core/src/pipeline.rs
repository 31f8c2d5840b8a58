//! The end-to-end transpile pipeline (paper §V):
//! consolidate → VF2 no-SWAP check → layout + routing trials → metrics.
//!
//! Every device-specific input — topology, basis gate, coverage set, cost
//! cache, calibration — arrives through one [`Target`], so the same
//! `transpile(&circuit, &target, &opts)` call serves the paper's √iSWAP
//! configuration, CNOT/CZ backends, and calibrated noisy devices alike.
//! Placement and routing run inside one [`TrialEngine`]: the VF2 pre-pass
//! is the engine's [`Vf2Embed`](crate::placement::Vf2Embed) strategy, and
//! the trial loop spreads its layout budget across the strategies of
//! [`crate::placement`] according to
//! [`TrialOptions::strategy_mix`](crate::trials::TrialOptions::strategy_mix).

use crate::layout::Layout;
use crate::placement;
use crate::pricing::{ClassId, PriceTable};
use crate::router::RoutedCircuit;
use crate::target::Target;
use crate::trials::{Metric, TrialEngine, TrialOptions};
use mirage_circuit::consolidate::consolidate;
use mirage_circuit::Circuit;

/// Which router to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The SABRE baseline: no mirrors, swap-count post-selection.
    Sabre,
    /// MIRAGE with swap-count post-selection (the paper's MIRAGE-Swaps).
    MirageSwaps,
    /// MIRAGE with depth post-selection (the paper's headline MIRAGE).
    Mirage,
}

impl RouterKind {
    /// The post-selection metric this router uses: only the headline
    /// MIRAGE selects by duration-weighted depth; the baseline and
    /// MIRAGE-Swaps select by fewest SWAPs (paper §IV-B).
    pub fn metric(self) -> Metric {
        match self {
            RouterKind::Mirage => Metric::Depth,
            RouterKind::Sabre | RouterKind::MirageSwaps => Metric::SwapCount,
        }
    }

    /// True for the MIRAGE variants (the intermediate mirror layer runs).
    pub fn uses_mirrors(self) -> bool {
        matches!(self, RouterKind::Mirage | RouterKind::MirageSwaps)
    }
}

/// Transpilation options.
#[derive(Debug, Clone)]
pub struct TranspileOptions {
    /// Router selection.
    pub router: RouterKind,
    /// Trial-loop configuration.
    pub trials: TrialOptions,
    /// Try a VF2 embedding first and skip routing when one exists.
    pub use_vf2: bool,
    /// VF2 search-node budget.
    pub vf2_budget: usize,
}

impl TranspileOptions {
    /// Light settings for tests and examples (4 layouts × 2 passes × 4
    /// routes, trials on every core).
    pub fn quick(router: RouterKind, seed: u64) -> TranspileOptions {
        TranspileOptions {
            router,
            trials: TrialOptions::quick(router.metric(), seed),
            use_vf2: true,
            vf2_budget: 200_000,
        }
    }

    /// The paper's full evaluation settings (20 layouts × 4 passes × 20
    /// routes, trials on every core).
    pub fn paper(router: RouterKind, seed: u64) -> TranspileOptions {
        TranspileOptions {
            router,
            trials: TrialOptions::paper(router.metric(), seed),
            use_vf2: true,
            vf2_budget: 1_000_000,
        }
    }

    /// Override the post-selection metric (builder style) — e.g.
    /// [`Metric::EstimatedSuccess`] to route for predicted success
    /// probability on a calibrated target instead of the router's default.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> TranspileOptions {
        self.trials.metric = metric;
        self
    }
}

/// Aggregate metrics of a transpiled circuit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics {
    /// Duration-weighted critical path (normalized units, iSWAP = 1.0).
    pub depth_estimate: f64,
    /// Sum of two-qubit decomposition costs.
    pub total_gate_cost: f64,
    /// Number of two-qubit gates in the output.
    pub two_qubit_gates: usize,
    /// SWAP gates inserted by routing.
    pub swaps_inserted: usize,
    /// Mirror gates accepted.
    pub mirrors_accepted: usize,
    /// Two-qubit gates that went through the intermediate layer.
    pub mirror_candidates: usize,
    /// Mirror acceptance rate over intermediate-layer decisions.
    pub mirror_rate: f64,
    /// Estimated success probability under the target's calibration
    /// (gate log-fidelity product plus readout on the logical qubits'
    /// final homes; `1.0` on an uncalibrated/zero-error target).
    pub estimated_success: f64,
}

/// The transpilation result.
#[derive(Debug, Clone)]
pub struct TranspiledCircuit {
    /// Output circuit on physical qubits.
    pub circuit: Circuit,
    /// Placement at circuit start.
    pub initial_layout: Layout,
    /// Placement at circuit end.
    pub final_layout: Layout,
    /// Aggregate metrics.
    pub metrics: Metrics,
    /// True when VF2 found a SWAP-free embedding and routing was skipped.
    pub used_vf2: bool,
    /// The calibration generation of the one snapshot the whole call —
    /// placement, routing, post-selection and these metrics — was priced
    /// under (see [`Target::calibration_generation`]).
    pub generation: u64,
}

impl TranspiledCircuit {
    /// The result for `routed`, its metrics read from its run's price table
    /// through its instructions' class ids.
    fn priced(
        routed: RoutedCircuit,
        prices: &PriceTable,
        classes: &[ClassId],
        used_vf2: bool,
    ) -> TranspiledCircuit {
        let metrics = Metrics {
            depth_estimate: prices.depth_estimate(&routed.circuit, classes),
            total_gate_cost: prices.total_gate_cost(&routed.circuit, classes),
            two_qubit_gates: routed.circuit.two_qubit_gate_count(),
            swaps_inserted: routed.swaps_inserted,
            mirrors_accepted: routed.mirrors_accepted,
            mirror_candidates: routed.mirror_candidates,
            mirror_rate: routed.mirror_rate(),
            estimated_success: prices.log_success(&routed, classes).exp(),
        };
        TranspiledCircuit {
            metrics,
            circuit: routed.circuit,
            initial_layout: routed.initial_layout,
            final_layout: routed.final_layout,
            used_vf2,
            generation: prices.snapshot().generation(),
        }
    }

    /// View the result as a [`RoutedCircuit`] (the shape the verifier and
    /// router-level tooling consume).
    pub fn as_routed(&self) -> RoutedCircuit {
        RoutedCircuit {
            circuit: self.circuit.clone(),
            initial_layout: self.initial_layout.clone(),
            final_layout: self.final_layout.clone(),
            swaps_inserted: self.metrics.swaps_inserted,
            mirrors_accepted: self.metrics.mirrors_accepted,
            mirror_candidates: self.metrics.mirror_candidates,
        }
    }
}

/// Transpilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranspileError {
    /// The circuit has more qubits than the device.
    CircuitTooLarge {
        /// Circuit width.
        circuit: usize,
        /// Device width.
        device: usize,
    },
    /// The coupling graph is disconnected.
    DisconnectedTopology,
    /// A trial mix (aggression or layout-strategy shares) is
    /// mis-normalized — running it would silently re-allocate the trial
    /// budget, so it is rejected instead (see
    /// [`TrialOptions::validate`](crate::trials::TrialOptions::validate)).
    InvalidTrialMix {
        /// Which mix was rejected (`"aggression_mix"` / `"strategy_mix"`).
        which: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A trial count is zero: with no layout or no routing trial there is
    /// no candidate to select (see
    /// [`TrialOptions::validate`](crate::trials::TrialOptions::validate)).
    NoTrials {
        /// Which count is zero (`"layout_trials"` / `"routing_trials"`).
        which: &'static str,
    },
}

impl std::fmt::Display for TranspileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranspileError::CircuitTooLarge { circuit, device } => {
                write!(f, "circuit needs {circuit} qubits, device has {device}")
            }
            TranspileError::DisconnectedTopology => write!(f, "coupling map is disconnected"),
            TranspileError::InvalidTrialMix { which, detail } => {
                write!(f, "invalid {which}: {detail}")
            }
            TranspileError::NoTrials { which } => {
                write!(f, "{which} is 0; at least one trial is needed")
            }
        }
    }
}

impl std::error::Error for TranspileError {}

/// [`TranspileError::DisconnectedTopology`] unless `target`'s coupling map
/// is connected: a gate whose operands sit on different components can
/// never be routed.
pub(crate) fn require_connected(target: &Target) -> Result<(), TranspileError> {
    if target.topology().is_connected() {
        Ok(())
    } else {
        Err(TranspileError::DisconnectedTopology)
    }
}

/// Transpile `circuit` onto `target`.
///
/// One calibration snapshot prices the whole call; the result records its
/// generation.
///
/// # Errors
///
/// See [`TranspileError`].
pub fn transpile(
    circuit: &Circuit,
    target: &Target,
    opts: &TranspileOptions,
) -> Result<TranspiledCircuit, TranspileError> {
    opts.trials.validate()?;
    let topo = target.topology();
    if circuit.n_qubits > topo.n_qubits() {
        return Err(TranspileError::CircuitTooLarge {
            circuit: circuit.n_qubits,
            device: topo.n_qubits(),
        });
    }
    require_connected(target)?;

    // Input cleaning (paper §V): drop identities, cancel inverses, merge
    // rotations, and elide explicit SWAPs into a wire relabeling — a SWAP
    // written in the source is free data movement, not router work. The
    // relabeling permutation is folded back into the final layout below.
    let cleaned = mirage_circuit::passes::clean(circuit);
    let (elided, wire_perm) = mirage_circuit::passes::elide_swaps(&cleaned);
    let consolidated = consolidate(&elided);

    // One engine owns placement, refinement, routing, and post-selection.
    let engine = TrialEngine::new(&consolidated, target).with_vf2_budget(opts.vf2_budget);

    // VF2 pre-pass (the Vf2Embed strategy): a SWAP-free embedding makes
    // routing unnecessary; on calibrated targets ties between embeddings
    // break by estimated success.
    if opts.use_vf2 {
        if let Some(layout) = engine.vf2_layout() {
            let final_assignment: Vec<usize> = (0..circuit.n_qubits)
                .map(|w| layout.phys(wire_perm[w]))
                .collect();
            let placed = RoutedCircuit {
                circuit: placement::apply_layout(&consolidated, &layout),
                initial_layout: layout,
                final_layout: Layout::from_assignment(&final_assignment, topo.n_qubits()),
                swaps_inserted: 0,
                mirrors_accepted: 0,
                mirror_candidates: 0,
            };
            // Priced under the snapshot the embedding was chosen under;
            // placement maps instructions one to one, so the consolidated
            // circuit's class ids are the placed circuit's.
            let prices = engine.price_table(engine.context().snapshot().clone());
            return Ok(TranspiledCircuit::priced(
                placed,
                &prices,
                engine.circuit_classes(),
                true,
            ));
        }
    }

    let outcome = engine.run_detailed(opts.router.uses_mirrors(), &opts.trials)?;
    let mut routed = outcome.best;

    // Compose the SWAP-elision relabeling into the final layout: original
    // output wire `w` lives on elided wire `wire_perm[w]`, which routing
    // placed at `final_layout.phys(wire_perm[w])`.
    let adjusted: Vec<usize> = (0..circuit.n_qubits)
        .map(|w| routed.final_layout.phys(wire_perm[w]))
        .collect();
    routed.final_layout = Layout::from_assignment(&adjusted, topo.n_qubits());
    Ok(TranspiledCircuit::priced(
        routed,
        &outcome.prices,
        &outcome.classes,
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_routed;
    use mirage_circuit::generators::{ghz, qft, two_local_full};
    use mirage_topology::CouplingMap;

    #[test]
    fn vf2_skips_routing_for_linear_circuits() {
        let c = ghz(5);
        let target = Target::sqrt_iswap(CouplingMap::grid(3, 3));
        let out = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Sabre, 1)).unwrap();
        assert!(out.used_vf2, "GHZ embeds into a grid without SWAPs");
        assert_eq!(out.metrics.swaps_inserted, 0);
    }

    #[test]
    fn full_entanglement_requires_routing() {
        let c = two_local_full(4, 1, 7);
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let out = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Mirage, 2)).unwrap();
        assert!(!out.used_vf2);
        assert!(verify_routed(&c, &out.as_routed(), &target));
    }

    #[test]
    fn mirage_beats_or_ties_sabre_on_depth() {
        let c = qft(6, false);
        let target = Target::sqrt_iswap(CouplingMap::line(6));
        let sabre = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Sabre, 3)).unwrap();
        let mirage =
            transpile(&c, &target, &TranspileOptions::quick(RouterKind::Mirage, 3)).unwrap();
        assert!(
            mirage.metrics.depth_estimate <= sabre.metrics.depth_estimate * 1.05 + 1e-9,
            "mirage {:.2} vs sabre {:.2}",
            mirage.metrics.depth_estimate,
            sabre.metrics.depth_estimate
        );
    }

    #[test]
    fn too_large_circuit_errors() {
        let c = ghz(5);
        let target = Target::sqrt_iswap(CouplingMap::line(3));
        let e = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Sabre, 4)).unwrap_err();
        assert!(matches!(e, TranspileError::CircuitTooLarge { .. }));
    }

    #[test]
    fn disconnected_topology_errors() {
        let c = ghz(3);
        let target = Target::sqrt_iswap(CouplingMap::from_edges(4, &[(0, 1), (2, 3)], "broken"));
        let e = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Sabre, 5)).unwrap_err();
        assert_eq!(e, TranspileError::DisconnectedTopology);
    }

    #[test]
    fn metrics_populated() {
        let c = two_local_full(4, 1, 8);
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let out = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Mirage, 6)).unwrap();
        assert!(out.metrics.depth_estimate > 0.0);
        assert!(out.metrics.total_gate_cost >= out.metrics.depth_estimate);
        assert!(out.metrics.two_qubit_gates >= 6);
    }

    #[test]
    fn metric_derived_from_router_kind() {
        // The post-selection metric lives in one place: RouterKind::metric.
        assert_eq!(RouterKind::Mirage.metric(), Metric::Depth);
        assert_eq!(RouterKind::MirageSwaps.metric(), Metric::SwapCount);
        assert_eq!(RouterKind::Sabre.metric(), Metric::SwapCount);
        for kind in [
            RouterKind::Sabre,
            RouterKind::MirageSwaps,
            RouterKind::Mirage,
        ] {
            assert_eq!(
                TranspileOptions::quick(kind, 1).trials.metric,
                kind.metric()
            );
            assert_eq!(
                TranspileOptions::paper(kind, 1).trials.metric,
                kind.metric()
            );
        }
        assert!(!RouterKind::Sabre.uses_mirrors());
        assert!(RouterKind::MirageSwaps.uses_mirrors());
        assert!(RouterKind::Mirage.uses_mirrors());
    }

    #[test]
    fn second_transpile_on_a_warm_target_adds_no_coordinate_misses() {
        // One Target = one coordinate cost cache across calls. A transpile
        // prices each coordinate class of its circuit once; a second call
        // on the same target finds every class already cached.
        let c = qft(5, false);
        let target = Target::sqrt_iswap(CouplingMap::line(5));
        let mut opts = TranspileOptions::quick(RouterKind::Mirage, 11);
        opts.use_vf2 = false;
        let first = transpile(&c, &target, &opts).unwrap();
        let (hits, misses) = target.cache_stats();
        assert!(misses > 0, "the first call prices its classes");
        let second = transpile(&c, &target, &opts).unwrap();
        let (hits_after, misses_after) = target.cache_stats();
        assert_eq!(misses, misses_after, "second run must be fully warm");
        assert!(hits_after > hits, "the second run priced through the cache");
        assert_eq!(first.circuit, second.circuit);
    }

    #[test]
    fn metrics_match_the_matrix_path_scorers_bit_for_bit() {
        // The class-priced metrics and the public coords_of-deriving
        // scorers share one pricing core: they must agree exactly, through
        // both the routed and the VF2 path, on a calibrated device.
        use crate::calibration::Calibration;
        use mirage_math::Rng;
        let topo = CouplingMap::grid(3, 3);
        let cal = Calibration::skewed(&topo, &mut Rng::new(0xFACE), 3e-3, 0.25, 10.0).unwrap();
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        for (c, router) in [
            (qft(7, false), RouterKind::Mirage),
            (two_local_full(6, 1, 3), RouterKind::Sabre),
            (ghz(6), RouterKind::Mirage),
        ] {
            let out = transpile(&c, &target, &TranspileOptions::quick(router, 5)).unwrap();
            let m = out.metrics;
            let matrix_path = [
                target.depth_estimate(&out.circuit),
                target.total_gate_cost(&out.circuit),
                out.as_routed().estimated_success(&target),
            ];
            let priced = [m.depth_estimate, m.total_gate_cost, m.estimated_success];
            assert_eq!(priced.map(f64::to_bits), matrix_path.map(f64::to_bits));
            assert_eq!(out.generation, 0);
        }
    }

    #[test]
    fn cnot_target_transpiles_qft_on_line() {
        // Acceptance scenario: the same public API serves a CNOT-basis
        // device end-to-end.
        let c = qft(6, false);
        let target = Target::cnot(CouplingMap::line(6));
        let out = transpile(
            &c,
            &target,
            &TranspileOptions::quick(RouterKind::Mirage, 13),
        )
        .unwrap();
        assert!(out.metrics.depth_estimate > 0.0);
        assert!(verify_routed(&c, &out.as_routed(), &target));
    }

    #[test]
    fn swap_elision_layout_roundtrip() {
        // A circuit with explicit SWAPs: the cleaner elides them into a
        // wire relabeling, so the routed output contains none of them and
        // the final layout must absorb the permutation. The round-trip
        // check is `verify_routed` against the adjusted final layout.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).swap(1, 2).cx(2, 3).swap(0, 3).cx(1, 2);
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        for router in [RouterKind::Sabre, RouterKind::Mirage] {
            let mut opts = TranspileOptions::quick(router, 21);
            opts.use_vf2 = false;
            let out = transpile(&c, &target, &opts).unwrap();
            assert!(
                verify_routed(&c, &out.as_routed(), &target),
                "{router:?} lost the elided-SWAP permutation"
            );
        }
        // And through the VF2 path, where the embedding layout composes
        // with the elision permutation instead of a routing layout.
        let out = transpile(&c, &target, &TranspileOptions::quick(RouterKind::Sabre, 22)).unwrap();
        assert!(verify_routed(&c, &out.as_routed(), &target));
    }

    #[test]
    fn estimated_success_selectable_end_to_end() {
        use crate::calibration::Calibration;
        use crate::trials::Metric;
        use mirage_math::Rng;

        let topo = CouplingMap::line(5);
        let cal = Calibration::synthetic(&topo, &mut Rng::new(0xACC));
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let c = two_local_full(5, 1, 9);
        let opts =
            TranspileOptions::quick(RouterKind::Mirage, 7).with_metric(Metric::EstimatedSuccess);
        assert_eq!(opts.trials.metric, Metric::EstimatedSuccess);
        let out = transpile(&c, &target, &opts).unwrap();
        assert!(verify_routed(&c, &out.as_routed(), &target));
        assert!(
            out.metrics.estimated_success > 0.0 && out.metrics.estimated_success < 1.0,
            "noisy device: 0 < {} < 1",
            out.metrics.estimated_success
        );
    }

    #[test]
    fn uncalibrated_target_reports_certain_success() {
        // Zero-error (uniform) calibration: the success estimate must be
        // exactly 1 through both the VF2 and the routed path.
        let target = Target::sqrt_iswap(CouplingMap::grid(3, 3));
        let vf2 = transpile(
            &ghz(5),
            &target,
            &TranspileOptions::quick(RouterKind::Sabre, 1),
        )
        .unwrap();
        assert!(vf2.used_vf2);
        assert_eq!(vf2.metrics.estimated_success, 1.0);
        let routed = transpile(
            &two_local_full(6, 1, 17),
            &target,
            &TranspileOptions::quick(RouterKind::Mirage, 2),
        )
        .unwrap();
        assert!(!routed.used_vf2);
        assert_eq!(routed.metrics.estimated_success, 1.0);
    }

    #[test]
    fn error_display() {
        let e = TranspileError::CircuitTooLarge {
            circuit: 9,
            device: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(TranspileError::DisconnectedTopology
            .to_string()
            .contains("disconnected"));
    }
}
