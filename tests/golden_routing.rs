//! Golden bit-identity tests for the routing hot path.
//!
//! Every case routes a fixed circuit with a fixed seed and compares the
//! routed circuit's structural fingerprint ([`Circuit::fingerprint`]),
//! SWAP count, and mirror count against values pinned at the commit
//! *before* the allocation-free router rewrite landed. Any hot-path
//! optimization that changes a single output bit — a reordered candidate,
//! a perturbed float, a different tie-break — fails here.
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

/// Pinned at the pre-rewrite router; the `depth/*` trials cases were pinned
/// before class-priced post-selection replaced per-gate coordinate
/// re-derivation. Do not edit by hand.
const GOLDEN: &[Golden] = &[
    ("line-8/sabre/uniform", 0x9A5D110826D99A4D, 36, 0),
    ("line-8/sabre/skewed", 0x9A5D110826D99A4D, 36, 0),
    ("line-8/a1/uniform", 0xB009471C4D0FA0CB, 35, 10),
    ("line-8/a1/skewed", 0xFE05B8148927CF16, 36, 9),
    ("line-8/a2/uniform", 0xB009471C4D0FA0CB, 35, 10),
    ("line-8/a2/skewed", 0xFE05B8148927CF16, 36, 9),
    ("line-8/a3/uniform", 0x872775A64DF15156, 29, 28),
    ("line-8/a3/skewed", 0x872775A64DF15156, 29, 28),
    ("grid-3x3/sabre/uniform", 0x57EA49A2DC5AD9F6, 20, 0),
    ("grid-3x3/sabre/skewed", 0x57EA49A2DC5AD9F6, 20, 0),
    ("grid-3x3/a1/uniform", 0x15441373A02EDF74, 15, 11),
    ("grid-3x3/a1/skewed", 0x02AD18A7F8BAE72E, 16, 10),
    ("grid-3x3/a2/uniform", 0x15441373A02EDF74, 15, 11),
    ("grid-3x3/a2/skewed", 0x02AD18A7F8BAE72E, 16, 10),
    ("grid-3x3/a3/uniform", 0xF7DC8CCD78D891B6, 17, 32),
    ("grid-3x3/a3/skewed", 0xF7DC8CCD78D891B6, 17, 32),
    ("heavy-hex-3/sabre/uniform", 0x203C7DE95E10E290, 88, 0),
    ("heavy-hex-3/sabre/skewed", 0x203C7DE95E10E290, 88, 0),
    ("heavy-hex-3/a1/uniform", 0x7B807F7A1733BE7E, 81, 12),
    ("heavy-hex-3/a1/skewed", 0x7B807F7A1733BE7E, 81, 12),
    ("heavy-hex-3/a2/uniform", 0x969108E950B493B8, 63, 34),
    ("heavy-hex-3/a2/skewed", 0x969108E950B493B8, 63, 34),
    ("heavy-hex-3/a3/uniform", 0x71A5D446674E59D2, 72, 45),
    ("heavy-hex-3/a3/skewed", 0x71A5D446674E59D2, 72, 45),
    ("line-8/trials", 0x59F208C844814F20, 3, 30),
    ("grid-3x3/trials", 0xF2C2A7709095FF21, 15, 10),
    ("heavy-hex-3/trials", 0xFB5B655AA1A22B9D, 5, 40),
    ("line-8/depth/uniform", 0x48B12284EE19EEE8, 3, 29),
    ("grid-3x3/depth/uniform", 0x489E2465CFF3984E, 10, 33),
    ("heavy-hex-3/depth/uniform", 0xFB5B655AA1A22B9D, 5, 40),
    ("line-8/depth/skewed", 0x2603A3FA819C8731, 11, 12),
    ("grid-3x3/depth/skewed", 0xE7D63EDA46AB1D64, 10, 34),
    ("heavy-hex-3/depth/skewed", 0xFB5B655AA1A22B9D, 5, 40),
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
/// trial engine in parallel with `n` workers (CI runs the suite both ways
/// to gate pool-size invariance); unset runs it serially.
fn env_threads() -> Option<usize> {
    std::env::var("MIRAGE_TEST_THREADS")
        .ok()
        .map(|s| s.parse().expect("MIRAGE_TEST_THREADS must be an integer"))
}

/// One full trial-engine run (layout strategies, refinement, routing
/// trials, SWAP absorption, post-selection). `threads: None` obeys
/// `MIRAGE_TEST_THREADS` (serial by default); `Some(n)` forces an
/// `n`-thread parallel run. Every choice must produce the same pinned
/// fingerprint — that is the engine's determinism contract.
fn trials_case_threaded(topo: &Topo, kind: TrialsKind, threads: Option<usize>) -> Case {
    let (_, metric, calibrated) = kind;
    let target = target_for(topo, calibrated);
    let cc = consolidate(&topo.circuit);
    let engine = TrialEngine::new(&cc, &target);
    let mut opts = trials_opts(topo, metric);
    if let Some(n) = threads.or_else(env_threads) {
        opts.parallel = true;
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
/// the engine unchanged at every thread count, including more workers
/// than trials. Pre-split seeds + trial-index reduction order make the
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
            for threads in [1usize, 2, 4, 8] {
                let case = trials_case_threaded(topo, kind, Some(threads));
                assert_eq!(
                    (case.fingerprint, case.swaps, case.mirrors),
                    (g_fp, g_swaps, g_mirrors),
                    "{label} @ {threads} threads: parallel run drifted from the \
                     pinned serial fingerprint (got 0x{:016X}, {} swaps, {} mirrors)",
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
        opts.parallel = true;
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
            "{label}: routed output drifted from the pinned pre-rewrite behavior \
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

/// Pinned before the router core stopped building circuits for every
/// route. Do not edit by hand.
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
        0x55DDC75616B6B3A4,
        65,
        53,
        0x405A200000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qpeexact_n16",
        0x18ABE5D56B0517EC,
        40,
        49,
        0x4056200000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qft_n18",
        0xCEF54544CE22E1A8,
        54,
        164,
        0x405D000000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/multiplier_n15",
        0xD0FF558B2CEC0C6B,
        88,
        38,
        0x4067900000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/seca_n11",
        0xB6EDA8663D0FD984,
        31,
        18,
        0x404E000000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/qram_n20",
        0x0DC6BB8084E50B27,
        32,
        0,
        0x4053400000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/sat_n11",
        0x757D43256AA8B997,
        80,
        0,
        0x4068400000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-6x6/knn_n25",
        0x6F2FC52B65ECA50C,
        34,
        0,
        0x4053E00000000000,
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
        0x8B9AD6AF5B2B16F0,
        55,
        149,
        0x405CA00000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qpeexact_n16",
        0x8C0C182A11BCC685,
        68,
        118,
        0x405C800000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qft_n18",
        0xE5212FB39279E95E,
        109,
        163,
        0x4060B00000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/multiplier_n15",
        0x4DA9F1FFF661E206,
        110,
        51,
        0x406B800000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/seca_n11",
        0x55950A3FA92A39E3,
        50,
        27,
        0x4054400000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/qram_n20",
        0xDB1629814B9D59B6,
        44,
        20,
        0x4056400000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/sat_n11",
        0x05F134FEDB917F13,
        125,
        45,
        0x406DD00000000000,
        0x3FF0000000000000,
    ),
    (
        "heavy-hex-5/knn_n25",
        0x4628760CE0788B6F,
        41,
        6,
        0x4057200000000000,
        0x3FF0000000000000,
    ),
    (
        "grid-4x4/success/qft_n12",
        0x1490549AEA5FD793,
        19,
        24,
        0x4050D3A186EB06C2,
        0x3FC08695DF93356A,
    ),
];

/// The FNV-1a fold over the fingerprints of every `run_candidates`
/// candidate of [`candidate_runs`], and the candidate count.
const CANDIDATES_FNV: (u64, usize) = (0xD137F3AFEB9FEC50, 32);

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
        opts.trials.parallel = true;
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
            opts.parallel = true;
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
