//! Golden bit-identity tests for the routing hot path.
//!
//! Every case routes a fixed circuit with a fixed seed and compares the
//! routed circuit's structural fingerprint ([`Circuit::fingerprint`]),
//! SWAP count, and mirror count against pinned values. Any hot-path
//! optimization that changes a single output bit — a reordered candidate,
//! a perturbed float, a different tie-break — fails here. The pins were
//! last re-cut when the router began routing the two-qubit skeleton
//! (single-qubit gates ride their wires instead of being router nodes);
//! `tests/skeleton_routing.rs` pins what that change had to preserve.
//!
//! The matrix covers {line, grid, heavy-hex} × {SABRE, A1, A2, A3} ×
//! {uniform, skewed calibration} for direct `route` calls, plus full
//! `TrialEngine` runs per topology (which also exercise
//! `absorb_adjacent_swaps` and post-selection): one post-selecting on
//! estimated success under the skewed calibration, and two post-selecting
//! on duration-weighted depth (MIRAGE's headline metric) under the uniform
//! and the skewed calibration.
//!
//! `PAPER_GOLDEN` pins whole `transpile` calls at paper scale: a subset of
//! the Table III suite on the 6×6 lattice and the 57-qubit heavy-hex under
//! quick MIRAGE with the VF2 pre-pass on, plus one calibrated 4×4 lattice
//! call that post-selects on estimated success. `CANDIDATES_FNV` folds the
//! fingerprint of every candidate `TrialEngine::run_candidates` returns,
//! so the non-winning candidates stay pinned too.
//!
//! To re-pin after an *intentional* behavior change:
//!
//! ```text
//! MIRAGE_REGEN_GOLDEN=1 cargo test --test golden_routing -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use mirage::circuit::consolidate::consolidate;
use mirage::circuit::generators::{paper_suite, qft, two_local_full};
use mirage::circuit::{Circuit, Dag};
use mirage::core::calibration::Calibration;
use mirage::core::layout::Layout;
use mirage::core::router::{node_coords, route, Aggression, RouterConfig};
use mirage::core::trials::{Metric, TrialEngine, TrialOptions};
use mirage::core::verify::verify_routed;
use mirage::core::{transpile, RouterKind, Target, TranspileOptions};
use mirage::math::hash::Fnv1a;
use mirage::math::Rng;
use mirage::topology::CouplingMap;

/// label, routed-circuit fingerprint, swaps inserted, mirrors accepted.
type Golden = (&'static str, u64, usize, usize);

/// Pinned when the router began routing the two-qubit skeleton. Do not
/// edit by hand.
const GOLDEN: &[Golden] = &[
    ("line-8/sabre/uniform", 0x61BE7789136E864F, 36, 0),
    ("line-8/sabre/skewed", 0x61BE7789136E864F, 36, 0),
    ("line-8/a1/uniform", 0x2EB59C457BDFDF58, 37, 11),
    ("line-8/a1/skewed", 0x2042D3ACF401F93E, 38, 10),
    ("line-8/a2/uniform", 0x2EB59C457BDFDF58, 37, 11),
    ("line-8/a2/skewed", 0x2042D3ACF401F93E, 38, 10),
    ("line-8/a3/uniform", 0x5F9C1278009F9018, 29, 28),
    ("line-8/a3/skewed", 0x5F9C1278009F9018, 29, 28),
    ("grid-3x3/sabre/uniform", 0xF973C5B04A9145C2, 18, 0),
    ("grid-3x3/sabre/skewed", 0xF973C5B04A9145C2, 18, 0),
    ("grid-3x3/a1/uniform", 0xAC695912C6BEA5BE, 15, 11),
    ("grid-3x3/a1/skewed", 0xAC695912C6BEA5BE, 15, 11),
    ("grid-3x3/a2/uniform", 0xAC695912C6BEA5BE, 15, 11),
    ("grid-3x3/a2/skewed", 0xAC695912C6BEA5BE, 15, 11),
    ("grid-3x3/a3/uniform", 0xEC73033B63347F1D, 19, 32),
    ("grid-3x3/a3/skewed", 0xEC73033B63347F1D, 19, 32),
    ("heavy-hex-3/sabre/uniform", 0x6ACF80F764CFF0D0, 88, 0),
    ("heavy-hex-3/sabre/skewed", 0x6ACF80F764CFF0D0, 88, 0),
    ("heavy-hex-3/a1/uniform", 0x1363C134FF02B5DE, 81, 12),
    ("heavy-hex-3/a1/skewed", 0x1363C134FF02B5DE, 81, 12),
    ("heavy-hex-3/a2/uniform", 0x918E1C1CC532DBB0, 63, 34),
    ("heavy-hex-3/a2/skewed", 0x918E1C1CC532DBB0, 63, 34),
    ("heavy-hex-3/a3/uniform", 0xC1309A8A53AA3BA2, 72, 45),
    ("heavy-hex-3/a3/skewed", 0xC1309A8A53AA3BA2, 72, 45),
    ("line-8/trials", 0x4802562963AA4DFE, 3, 30),
    ("grid-3x3/trials", 0x38741C5D55665B77, 16, 0),
    ("heavy-hex-3/trials", 0x87E055069FDB74B1, 5, 40),
    ("line-8/depth/uniform", 0x4802562963AA4DFE, 3, 30),
    ("grid-3x3/depth/uniform", 0x525CAB636413FDAD, 10, 13),
    ("heavy-hex-3/depth/uniform", 0x87E055069FDB74B1, 5, 40),
    ("line-8/depth/skewed", 0x11EA28AF335EDE7C, 23, 0),
    ("grid-3x3/depth/skewed", 0x9A132FB8F9963E57, 9, 14),
    ("heavy-hex-3/depth/skewed", 0x87E055069FDB74B1, 5, 40),
];

struct Topo {
    name: &'static str,
    map: CouplingMap,
    circuit: Circuit,
    cal_seed: u64,
}

fn topologies() -> Vec<Topo> {
    vec![
        // QFT circuits keep their controlled-phase coordinate classes
        // through consolidation (Weyl coords are invariant under the
        // absorbed 1Q gates), and a cphase class and its mirror decompose
        // at *different* costs — so the skewed-calibration cases really
        // price edges into the mirror decision. two_local_full circuits
        // consolidate into generic SU(4) blocks whose class and mirror
        // both cost three applications, and the edge factor cancels.
        Topo {
            name: "line-8",
            map: CouplingMap::line(8),
            circuit: qft(8, false),
            cal_seed: 0xCA11,
        },
        Topo {
            name: "grid-3x3",
            map: CouplingMap::grid(3, 3),
            circuit: qft(8, true),
            cal_seed: 0xCA12,
        },
        Topo {
            name: "heavy-hex-3",
            map: CouplingMap::heavy_hex(3),
            circuit: two_local_full(10, 1, 0xC7),
            cal_seed: 0xCA13,
        },
    ]
}

fn target_for(topo: &Topo, calibrated: bool) -> Target {
    let t = Target::sqrt_iswap(topo.map.clone());
    if calibrated {
        // Strong 10x outliers (the `paper` bin's skew setting): mild synthetic
        // factors never flip a mirror decision on these small circuits, so a
        // skewed device is what actually exercises edge-priced routing.
        let cal = Calibration::skewed(&topo.map, &mut Rng::new(topo.cal_seed), 3e-3, 0.25, 10.0)
            .expect("skewed covers the map");
        t.with_calibration(cal).expect("calibration covers the map")
    } else {
        t
    }
}

/// One deterministic direct `route` call from a seeded random layout.
fn route_case(topo: &Topo, target: &Target, aggression: Option<Aggression>, seed: u64) -> Case {
    let cc = consolidate(&topo.circuit);
    let dag = Dag::from_circuit(&cc);
    let coords = node_coords(&dag);
    let config = RouterConfig {
        aggression,
        ..RouterConfig::default()
    };
    let mut rng = Rng::new(seed);
    let layout = Layout::random(cc.n_qubits, target.n_qubits(), &mut rng);
    let routed = route(&dag, &coords, target, layout, &config, &mut rng);
    assert!(
        verify_routed(&topo.circuit, &routed, target),
        "golden case must stay semantically valid"
    );
    Case {
        fingerprint: routed.circuit.fingerprint(),
        swaps: routed.swaps_inserted,
        mirrors: routed.mirrors_accepted,
    }
}

/// The trial-engine options every golden trials case runs under.
fn trials_opts(topo: &Topo, metric: Metric) -> TrialOptions {
    TrialOptions::quick(metric, 0x901D + topo.cal_seed)
}

/// One pinned trial-engine configuration: its label suffix, post-selection
/// metric, and whether the target carries the skewed calibration.
type TrialsKind = (&'static str, Metric, bool);

/// Every pinned trial-engine configuration, in `GOLDEN` order.
const TRIALS_KINDS: [TrialsKind; 3] = [
    ("trials", Metric::EstimatedSuccess, true),
    ("depth/uniform", Metric::Depth, false),
    ("depth/skewed", Metric::Depth, true),
];

/// Thread count for golden trial runs: `MIRAGE_TEST_THREADS=<n>` runs the
/// trial engine with `n` workers, `1` being the inline path (CI runs the
/// suite at 1, 3, 4 and unset to gate pool-size invariance); unset keeps the
/// default, every core.
fn env_threads() -> Option<usize> {
    std::env::var("MIRAGE_TEST_THREADS")
        .ok()
        .map(|s| s.parse().expect("MIRAGE_TEST_THREADS must be an integer"))
}

/// One full trial-engine run (layout strategies, refinement, routing
/// trials, SWAP absorption, post-selection). `threads: None` obeys
/// `MIRAGE_TEST_THREADS` (every core by default); `Some(n)` forces an
/// `n`-worker run. Every choice must produce the same pinned
/// fingerprint — that is the engine's determinism contract.
fn trials_case_threaded(topo: &Topo, kind: TrialsKind, threads: Option<usize>) -> Case {
    let (_, metric, calibrated) = kind;
    let target = target_for(topo, calibrated);
    let cc = consolidate(&topo.circuit);
    let engine = TrialEngine::new(&cc, &target);
    let mut opts = trials_opts(topo, metric);
    if let Some(n) = threads.or_else(env_threads) {
        opts.threads = n;
    }
    let outcome = engine.run_detailed(true, &opts).expect("valid mix");
    assert!(
        verify_routed(&topo.circuit, &outcome.best, &target),
        "golden trials case must stay semantically valid"
    );
    Case {
        fingerprint: outcome.best.circuit.fingerprint(),
        swaps: outcome.best.swaps_inserted,
        mirrors: outcome.best.mirrors_accepted,
    }
}

struct Case {
    fingerprint: u64,
    swaps: usize,
    mirrors: usize,
}

fn run_all() -> Vec<(String, Case)> {
    let modes: [(&str, Option<Aggression>); 4] = [
        ("sabre", None),
        ("a1", Some(Aggression::A1)),
        ("a2", Some(Aggression::A2)),
        ("a3", Some(Aggression::A3)),
    ];
    let mut out = Vec::new();
    for topo in &topologies() {
        for (mode_name, aggression) in modes {
            for (cal_name, calibrated) in [("uniform", false), ("skewed", true)] {
                let target = target_for(topo, calibrated);
                let seed = 0x5EED ^ topo.cal_seed ^ (mode_name.len() as u64) << 8;
                let case = route_case(topo, &target, aggression, seed);
                out.push((format!("{}/{}/{}", topo.name, mode_name, cal_name), case));
            }
        }
    }
    for kind in TRIALS_KINDS {
        for topo in &topologies() {
            let label = format!("{}/{}", topo.name, kind.0);
            out.push((label, trials_case_threaded(topo, kind, None)));
        }
    }
    out
}

/// Pool-size invariance: the golden trials fingerprints must come out of
/// the engine unchanged at every thread count, including an odd worker
/// count over the route tasks and more workers than layout trials.
/// Pre-split seeds + `(trial, routing trial)` reduction order make the
/// winner independent of scheduling; this is the proof.
#[test]
fn trials_fingerprints_invariant_across_thread_counts() {
    for kind in TRIALS_KINDS {
        for topo in &topologies() {
            let label = format!("{}/{}", topo.name, kind.0);
            let &(_, g_fp, g_swaps, g_mirrors) = GOLDEN
                .iter()
                .find(|(l, ..)| *l == label)
                .expect("every topology has pinned trials cases");
            for threads in [1usize, 2, 3, 4, 8] {
                let case = trials_case_threaded(topo, kind, Some(threads));
                assert_eq!(
                    (case.fingerprint, case.swaps, case.mirrors),
                    (g_fp, g_swaps, g_mirrors),
                    "{label} @ {threads} threads: run drifted from the \
                     pinned fingerprint (got 0x{:016X}, {} swaps, {} mirrors)",
                    case.fingerprint,
                    case.swaps,
                    case.mirrors
                );
            }
        }
    }
}

/// Class-priced scoring is matrix-path scoring: for every candidate of
/// every pinned trials run, the run's price table — read through the class
/// ids the router and SWAP absorption carried — must reproduce
/// `Target::depth_estimate`, `Target::total_gate_cost` and
/// `RoutedCircuit::log_success` (which re-derive Weyl coordinates from each
/// gate's matrix) bit for bit.
#[test]
fn class_priced_scores_match_matrix_path_for_every_candidate() {
    for kind in TRIALS_KINDS {
        let (name, metric, calibrated) = kind;
        for topo in &topologies() {
            let target = target_for(topo, calibrated);
            let cc = consolidate(&topo.circuit);
            let opts = trials_opts(topo, metric);
            let run = TrialEngine::new(&cc, &target)
                .run_candidates(true, &opts)
                .expect("valid mix");
            assert_eq!(
                run.candidates.len(),
                opts.layout_trials * opts.routing_trials
            );
            for (i, c) in run.candidates.iter().enumerate() {
                let label = format!("{}/{name} candidate {i}", topo.name);
                let circuit = &c.routed.circuit;
                assert_eq!(c.classes.len(), circuit.instructions.len(), "{label}");
                assert_eq!(
                    run.prices.depth_estimate(circuit, &c.classes).to_bits(),
                    target.depth_estimate(circuit).to_bits(),
                    "{label}: depth"
                );
                assert_eq!(
                    run.prices.total_gate_cost(circuit, &c.classes).to_bits(),
                    target.total_gate_cost(circuit).to_bits(),
                    "{label}: total cost"
                );
                assert_eq!(
                    run.prices.log_success(&c.routed, &c.classes).to_bits(),
                    c.routed.log_success(&target).to_bits(),
                    "{label}: log-success"
                );
            }
        }
    }
}

/// Mid-job calibration swap under parallel trials: a warm engine (pooled
/// scratches and the coordinate cache filled under calibration A) that
/// hot-swaps to calibration B must produce — at every thread count —
/// exactly what a cold engine on a fresh target built with B produces.
/// Each run takes one calibration snapshot when it starts, so the run
/// after the swap prices everything under B.
#[test]
fn calibration_swap_mid_job_matches_fresh_target_at_every_thread_count() {
    let topos = topologies();
    let topo = &topos[1]; // grid-3x3 / qft(8, true): mirror decisions price edges
    let cc = consolidate(&topo.circuit);
    let cal_b = Calibration::skewed(&topo.map, &mut Rng::new(0xB0B5EED), 3e-3, 0.25, 10.0)
        .expect("skewed covers the map");

    // Reference: a cold serial run on a fresh target carrying B from birth.
    let fresh_target = Target::sqrt_iswap(topo.map.clone())
        .with_calibration(cal_b.clone())
        .expect("calibration covers the map");
    let fresh_engine = TrialEngine::new(&cc, &fresh_target);
    let reference = fresh_engine
        .run_detailed(true, &trials_opts(topo, Metric::EstimatedSuccess))
        .expect("valid mix")
        .best
        .circuit
        .fingerprint();

    let golden_label = format!("{}/trials", topo.name);
    let &(_, warm_fp, ..) = GOLDEN
        .iter()
        .find(|(l, ..)| *l == golden_label)
        .expect("pinned trials case");

    for threads in [1usize, 2, 4, 8] {
        let target = target_for(topo, true); // calibration A (skewed, cal_seed)
        let engine = TrialEngine::new(&cc, &target);
        let mut opts = trials_opts(topo, Metric::EstimatedSuccess);
        opts.threads = threads;
        // Warm run under A: fills the shared cache — and must still match
        // the pinned golden.
        let warm = engine.run_detailed(true, &opts).expect("valid mix");
        assert_eq!(
            warm.best.circuit.fingerprint(),
            warm_fp,
            "warm run @ {threads} threads drifted from the pinned golden"
        );
        target
            .swap_calibration(std::sync::Arc::new(cal_b.clone()))
            .expect("calibration covers the map");
        let swapped = engine.run_detailed(true, &opts).expect("valid mix");
        assert_eq!(
            swapped.best.circuit.fingerprint(),
            reference,
            "post-swap run @ {threads} threads must be bit-identical to a \
             fresh target built with the new calibration"
        );
    }
}

#[test]
fn routed_circuits_match_pinned_fingerprints() {
    let actual = run_all();
    if std::env::var("MIRAGE_REGEN_GOLDEN").is_ok() {
        println!("const GOLDEN: &[Golden] = &[");
        for (label, case) in &actual {
            println!(
                "    (\"{label}\", 0x{fp:016X}, {swaps}, {mirrors}),",
                fp = case.fingerprint,
                swaps = case.swaps,
                mirrors = case.mirrors
            );
        }
        println!("];");
        panic!("MIRAGE_REGEN_GOLDEN set: paste the table above over GOLDEN");
    }
    assert_eq!(actual.len(), GOLDEN.len(), "case matrix changed shape");
    for ((label, case), &(g_label, g_fp, g_swaps, g_mirrors)) in actual.iter().zip(GOLDEN) {
        assert_eq!(label, g_label, "case order changed");
        assert_eq!(
            (case.fingerprint, case.swaps, case.mirrors),
            (g_fp, g_swaps, g_mirrors),
            "{label}: routed output drifted from the pinned behavior \
             (got fingerprint 0x{:016X}, {} swaps, {} mirrors)",
            case.fingerprint,
            case.swaps,
            case.mirrors
        );
    }
}

/// label, fingerprint, swaps, mirrors, `depth_estimate` bits,
/// `estimated_success` bits.
type PaperGolden = (&'static str, u64, usize, usize, u64, u64);

/// Pinned when the router began routing the two-qubit skeleton. Do not
/// edit by hand.
const PAPER_GOLDEN: &[PaperGolden] = &[
    (
        "grid-6x6/wstate_n27",
        0xCB025BC9AA88379A,
        0,
        0,
        0x403A000000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qftentangled_n16",
        0x56A78D9F295DBBFE,
        40,
        148,
        0x4056000000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qpeexact_n16",
        0x69DF1A287D75417F,
        57,
        34,
        0x4057600000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qft_n18",
        0x0B3E37F2112726FA,
        23,
        162,
        0x4054600000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/multiplier_n15",
        0x88601DF9A1BE79BE,
        69,
        38,
        0x4066600000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/seca_n11",
        0x5E640ADB89E8173C,
        26,
        24,
        0x404DC00000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qram_n20",
        0x7AD6C9FF984EF081,
        28,
        18,
        0x4051000000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/sat_n11",
        0x5450D9C6B70394E4,
        76,
        16,
        0x4065D00000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/knn_n25",
        0x8658F41FA573A526,
        19,
        7,
        0x4052C00000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/wstate_n27",
        0x4CB3869C4B88119E,
        0,
        0,
        0x403A000000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qftentangled_n16",
        0xB56DFF8AA413C88C,
        81,
        151,
        0x405E000000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qpeexact_n16",
        0xCCD7785295679F56,
        90,
        119,
        0x405EE00000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qft_n18",
        0x674C7A8CD1D7FD49,
        138,
        76,
        0x4062600000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/multiplier_n15",
        0xB913242B5B0C9998,
        109,
        55,
        0x406B800000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/seca_n11",
        0x7F63E526A26D1A1B,
        54,
        18,
        0x4053400000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qram_n20",
        0xA28BE2593131A6A1,
        44,
        25,
        0x4056000000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/sat_n11",
        0x26DD85758CF78A99,
        128,
        0,
        0x406EF00000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/knn_n25",
        0x8E7488F64F0AB2AB,
        43,
        0,
        0x4059E00000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-4x4/success/qft_n12",
        0x29A35FF343D07A2C,
        42,
        0,
        0x4057C4EA3DBE6786,
        0x3FB8E85B923B1EFD,
    ),
];

/// The FNV-1a fold over the fingerprints of every `run_candidates`
/// candidate of [`candidate_runs`], and the candidate count.
const CANDIDATES_FNV: (u64, usize) = (0x3403FCB145A73F8D, 32);

/// The Table III circuits pinned at paper scale: one VF2 embedding
/// (`wstate_n27` is a chain) and routed circuits of several shapes.
const PAPER_SUBSET: [&str; 9] = [
    "wstate_n27",
    "qftentangled_n16",
    "qpeexact_n16",
    "qft_n18",
    "multiplier_n15",
    "seca_n11",
    "qram_n20",
    "sat_n11",
    "knn_n25",
];

/// The calibrated 4×4 lattice of the estimated-success case.
fn calibrated_grid() -> Target {
    let topo = CouplingMap::grid(4, 4);
    let cal = Calibration::synthetic(&topo, &mut Rng::new(0x4A11));
    Target::sqrt_iswap(topo)
        .with_calibration(cal)
        .expect("synthetic covers the map")
}

/// Quick MIRAGE transpile options under `MIRAGE_TEST_THREADS`.
fn paper_opts(seed: u64) -> TranspileOptions {
    let mut opts = TranspileOptions::quick(RouterKind::Mirage, seed);
    if let Some(n) = env_threads() {
        opts.trials.threads = n;
    }
    opts
}

fn paper_case(
    label: String,
    circuit: &Circuit,
    target: &Target,
    opts: &TranspileOptions,
) -> PaperCase {
    let out = transpile(circuit, target, opts).expect("paper circuit transpiles");
    // Too wide to simulate: check that every two-qubit gate sits on a
    // coupler instead.
    for instr in &out.circuit.instructions {
        if instr.gate.is_two_qubit() {
            assert!(
                target
                    .topology()
                    .are_adjacent(instr.qubits[0], instr.qubits[1]),
                "{label}: two-qubit gate off the coupling map"
            );
        }
    }
    PaperCase {
        label,
        fingerprint: out.circuit.fingerprint(),
        swaps: out.metrics.swaps_inserted,
        mirrors: out.metrics.mirrors_accepted,
        depth: out.metrics.depth_estimate.to_bits(),
        success: out.metrics.estimated_success.to_bits(),
    }
}

struct PaperCase {
    label: String,
    fingerprint: u64,
    swaps: usize,
    mirrors: usize,
    depth: u64,
    success: u64,
}

fn run_paper() -> Vec<PaperCase> {
    let suite = paper_suite();
    let mut out = Vec::new();
    for (d, topo) in [CouplingMap::grid(6, 6), CouplingMap::heavy_hex(5)]
        .into_iter()
        .enumerate()
    {
        let target = Target::sqrt_iswap(topo.clone());
        for (i, name) in PAPER_SUBSET.iter().enumerate() {
            let (_, circuit) = suite.iter().find(|(n, _)| n == name).expect("suite member");
            let opts = paper_opts(0x7AB3 + (d * PAPER_SUBSET.len() + i) as u64);
            out.push(paper_case(
                format!("{}/{name}", topo.name()),
                circuit,
                &target,
                &opts,
            ));
        }
    }
    let target = calibrated_grid();
    let opts = paper_opts(0x5CC5).with_metric(Metric::EstimatedSuccess);
    out.push(paper_case(
        "grid-4x4/success/qft_n12".to_owned(),
        &qft(12, false),
        &target,
        &opts,
    ));
    out
}

/// The engine runs whose candidates `CANDIDATES_FNV` pins: a paper circuit
/// on the 6×6 lattice under depth post-selection and the calibrated 4×4
/// case under estimated success.
fn candidate_runs() -> (u64, usize) {
    let suite = paper_suite();
    let (_, qfte) = suite
        .iter()
        .find(|(n, _)| *n == "qftentangled_n16")
        .expect("suite member");
    let grid = Target::sqrt_iswap(CouplingMap::grid(6, 6));
    let noisy = calibrated_grid();
    let runs = [
        (consolidate(qfte), &grid, Metric::Depth, 0xCA4D),
        (
            consolidate(&qft(12, false)),
            &noisy,
            Metric::EstimatedSuccess,
            0xCA4E,
        ),
    ];
    let mut fold = Fnv1a::new();
    let mut count = 0;
    for (circuit, target, metric, seed) in &runs {
        let mut opts = TrialOptions::quick(*metric, *seed);
        if let Some(n) = env_threads() {
            opts.threads = n;
        }
        let run = TrialEngine::new(circuit, target)
            .run_candidates(true, &opts)
            .expect("valid mix");
        for c in &run.candidates {
            fold.write_u64(c.routed.circuit.fingerprint());
            count += 1;
        }
    }
    (fold.finish(), count)
}

#[test]
fn paper_scale_transpiles_match_pins() {
    let actual = run_paper();
    let candidates = candidate_runs();
    if std::env::var("MIRAGE_REGEN_GOLDEN").is_ok() {
        println!("const PAPER_GOLDEN: &[PaperGolden] = &[");
        for c in &actual {
            println!(
                "    (\"{}\", 0x{:016X}, {}, {}, 0x{:016X}, 0x{:016X}),",
                c.label, c.fingerprint, c.swaps, c.mirrors, c.depth, c.success
            );
        }
        println!("];");
        println!(
            "const CANDIDATES_FNV: (u64, usize) = (0x{:016X}, {});",
            candidates.0, candidates.1
        );
        panic!("MIRAGE_REGEN_GOLDEN set: paste the tables above over the pins");
    }
    assert_eq!(
        actual.len(),
        PAPER_GOLDEN.len(),
        "paper case matrix changed shape"
    );
    for (c, &(label, fp, swaps, mirrors, depth, success)) in actual.iter().zip(PAPER_GOLDEN) {
        assert_eq!(c.label, label, "case order changed");
        assert_eq!(
            (c.fingerprint, c.swaps, c.mirrors, c.depth, c.success),
            (fp, swaps, mirrors, depth, success),
            "{label}: transpile output drifted from the pinned behavior"
        );
    }
    assert_eq!(
        candidates, CANDIDATES_FNV,
        "run_candidates fingerprints drifted from the pinned fold"
    );
}
