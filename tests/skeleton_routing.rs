//! The skeleton spec of the router: what a route's two-qubit part must be.
//!
//! The router routes a circuit's two-qubit skeleton: single-qubit gates
//! never enter its front layer, its lookahead windows or its SWAP scoring.
//! So every route's two-qubit ops (operands, gate or SWAP, mirrored or
//! not), its counters and its final layout equal those of routing the same
//! input with every single-qubit gate deleted, and an input with no
//! single-qubit gate routes exactly as before.
//!
//! `full_routes_fold_to_their_skeleton_routes` checks the spec case by
//! case. `SKELETON_FOLD` folds the routes of 1Q-free inputs (the golden routing
//! inputs and the paper suite, consolidated, with their single-qubit gates
//! deleted), pinned on the router that still routed single-qubit gates as
//! DAG nodes: on 1Q-free inputs both routers agree. `NO_1Q_GOLDEN` pins
//! whole `transpile` calls of inputs whose consolidated circuit has no
//! single-qubit gate, pinned on the same router.
//!
//! To re-pin after an *intentional* behavior change:
//!
//! ```text
//! MIRAGE_REGEN_GOLDEN=1 cargo test --test skeleton_routing -- --nocapture
//! ```

use mirage::circuit::consolidate::consolidate;
use mirage::circuit::generators::{paper_suite, qft, quantum_volume, two_local_full};
use mirage::circuit::{Circuit, Dag, Gate};
use mirage::core::calibration::Calibration;
use mirage::core::layout::Layout;
use mirage::core::router::{node_coords, route, Aggression, RoutedCircuit, RouterConfig};
use mirage::core::verify::verify_routed;
use mirage::core::{transpile, RouterKind, Target, TranspileOptions};
use mirage::math::hash::Fnv1a;
use mirage::math::Rng;
use mirage::topology::CouplingMap;

/// The FNV-1a fold of [`route_fold`] over every case of [`cases`], and the
/// case count.
const SKELETON_FOLD: (u64, usize) = (0x705F0E111A67D7C4, 144);

/// label, fingerprint, swaps, mirrors, `depth_estimate` bits.
type No1qGolden = (&'static str, u64, usize, usize, u64);

/// Transpiles of 1Q-free inputs. Do not edit by hand.
const NO_1Q_GOLDEN: &[No1qGolden] = &[
    (
        "grid-6x6/qv_n16_d8/mirage",
        0x6670F4056A69FC6B,
        51,
        0,
        0x4045800000000000,
    ),
    (
        "grid-6x6/qv_n16_d8/sabre",
        0x17916518770DA020,
        48,
        0,
        0x404F000000000000,
    ),
    (
        "heavy-hex-5/qv_n20_d6/mirage",
        0x18E89184A471CFCA,
        83,
        69,
        0x4045000000000000,
    ),
    (
        "heavy-hex-5/qv_n20_d6/sabre",
        0xF1585B183C3CEFDA,
        72,
        0,
        0x4045800000000000,
    ),
    (
        "line-8/qv_n8_d8/mirage",
        0x7873962A1ACD564B,
        29,
        16,
        0x403E800000000000,
    ),
    (
        "line-8/qv_n8_d8/sabre",
        0xCE4DBA913157931F,
        26,
        0,
        0x403F800000000000,
    ),
];

/// One direct route: its label, device, consolidated input and seed.
struct RouteCase {
    label: String,
    target: Target,
    circuit: Circuit,
    aggression: Option<Aggression>,
    seed: u64,
}

/// The modes every case routes under.
const MODES: [(&str, Option<Aggression>); 4] = [
    ("sabre", None),
    ("a1", Some(Aggression::A1)),
    ("a2", Some(Aggression::A2)),
    ("a3", Some(Aggression::A3)),
];

/// The golden routing inputs (`tests/golden_routing.rs`: line, grid and
/// heavy-hex, uniform and skewed) and the paper suite on the 6×6 lattice
/// and the 57-qubit heavy-hex, each under every mode, consolidated.
fn cases() -> Vec<RouteCase> {
    let golden = [
        ("line-8", CouplingMap::line(8), qft(8, false), 0xCA11),
        ("grid-3x3", CouplingMap::grid(3, 3), qft(8, true), 0xCA12),
        (
            "heavy-hex-3",
            CouplingMap::heavy_hex(3),
            two_local_full(10, 1, 0xC7),
            0xCA13,
        ),
    ];
    let mut out = Vec::new();
    for (name, map, circuit, cal_seed) in golden {
        let skew = Calibration::skewed(&map, &mut Rng::new(cal_seed), 3e-3, 0.25, 10.0)
            .expect("skewed covers the map");
        for (mode, aggression) in MODES {
            for (cal, calibrated) in [("uniform", false), ("skewed", true)] {
                let mut target = Target::sqrt_iswap(map.clone());
                if calibrated {
                    target = target.with_calibration(skew.clone()).expect("covers");
                }
                out.push(RouteCase {
                    label: format!("{name}/{mode}/{cal}"),
                    target,
                    circuit: consolidate(&circuit),
                    aggression,
                    seed: 0x5EED ^ cal_seed ^ (mode.len() as u64) << 8,
                });
            }
        }
    }
    let suite = paper_suite();
    for (d, map) in [CouplingMap::grid(6, 6), CouplingMap::heavy_hex(5)]
        .into_iter()
        .enumerate()
    {
        for (i, (name, circuit)) in suite.iter().enumerate() {
            for (m, (mode, aggression)) in MODES.into_iter().enumerate() {
                out.push(RouteCase {
                    label: format!("{}/{name}/{mode}", map.name()),
                    target: Target::sqrt_iswap(map.clone()),
                    circuit: consolidate(circuit),
                    aggression,
                    seed: 0x5CE1 + (((d * suite.len() + i) * MODES.len() + m) as u64),
                });
            }
        }
    }
    out
}

/// `c` with every single-qubit instruction deleted.
fn skeleton(c: &Circuit) -> Circuit {
    Circuit {
        n_qubits: c.n_qubits,
        instructions: c
            .instructions
            .iter()
            .filter(|i| i.gate.is_two_qubit())
            .cloned()
            .collect(),
    }
}

/// Route `circuit` from the case's seeded random layout.
fn route_case(case: &RouteCase, circuit: &Circuit) -> RoutedCircuit {
    let dag = Dag::from_circuit(circuit);
    let coords = node_coords(&dag);
    let config = RouterConfig {
        aggression: case.aggression,
        ..RouterConfig::default()
    };
    let mut rng = Rng::new(case.seed);
    let layout = Layout::random(circuit.n_qubits, case.target.n_qubits(), &mut rng);
    route(&dag, &coords, &case.target, layout, &config, &mut rng)
}

/// The fold of a route's two-qubit part: per two-qubit op its operands and
/// whether it is a SWAP or a gate (and the gate, so a mirrored one shows
/// as `SWAP·U`), then the SWAP, mirror and mirror-candidate counts and the
/// final layout.
fn route_fold(r: &RoutedCircuit) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(skeleton(&r.circuit).fingerprint());
    for instr in r
        .circuit
        .instructions
        .iter()
        .filter(|i| i.gate.is_two_qubit())
    {
        h.write_u64(u64::from(matches!(instr.gate, Gate::Swap)));
    }
    for n in [r.swaps_inserted, r.mirrors_accepted, r.mirror_candidates] {
        h.write_u64(n as u64);
    }
    for p in r.final_layout.assignment() {
        h.write_u64(p as u64);
    }
    h.finish()
}

/// Every two-qubit op of `routed` sits on a coupler of the case's device.
fn assert_coupled(case: &RouteCase, routed: &RoutedCircuit) {
    let topo = case.target.topology();
    for instr in routed.circuit.instructions.iter() {
        if instr.gate.is_two_qubit() {
            let (a, b) = (instr.qubits[0], instr.qubits[1]);
            assert!(
                topo.are_adjacent(a, b),
                "{}: ({a}, {b}) is not coupled",
                case.label
            );
        }
    }
}

#[test]
fn skeleton_routes_match_pinned_fold() {
    let mut fold = Fnv1a::new();
    let mut count = 0;
    for case in cases() {
        let routed = route_case(&case, &skeleton(&case.circuit));
        assert_coupled(&case, &routed);
        fold.write_u64(route_fold(&routed));
        count += 1;
    }
    if std::env::var("MIRAGE_REGEN_GOLDEN").is_ok() {
        println!(
            "const SKELETON_FOLD: (u64, usize) = (0x{:016X}, {count});",
            fold.finish()
        );
        return;
    }
    assert_eq!(
        (fold.finish(), count),
        SKELETON_FOLD,
        "routes of 1Q-free inputs drifted from the pinned fold"
    );
}

/// The spec itself: every case routed with its single-qubit gates in
/// place folds, over its two-qubit part, to the fold of its skeleton's
/// route, and routes on devices of at most 20 qubits pass the statevector
/// check.
#[test]
fn full_routes_fold_to_their_skeleton_routes() {
    let mut riders = 0;
    for case in cases() {
        let routed = route_case(&case, &case.circuit);
        assert_coupled(&case, &routed);
        let bare = route_case(&case, &skeleton(&case.circuit));
        assert_eq!(
            route_fold(&routed),
            route_fold(&bare),
            "{}: the two-qubit part differs from the skeleton's route",
            case.label
        );
        let n_1q = case.circuit.instructions.len() - skeleton(&case.circuit).instructions.len();
        assert_eq!(
            routed.circuit.instructions.len(),
            bare.circuit.instructions.len() + n_1q,
            "{}: every single-qubit gate is routed once",
            case.label
        );
        riders += n_1q;
        if case.target.n_qubits() <= 20 {
            assert!(
                verify_routed(&case.circuit, &routed, &case.target),
                "{}: the route is not equivalent to its input",
                case.label
            );
        }
    }
    assert!(riders > 0, "the cases must carry single-qubit gates");
}

/// The 1Q-free inputs: quantum-volume circuits (Haar blocks on random
/// pairs; consolidation leaves no single-qubit gate) on the paper devices
/// and a line, under both routers.
fn no_1q_inputs() -> Vec<(String, Circuit, Target, RouterKind, u64)> {
    let mut out = Vec::new();
    let shapes = [
        (CouplingMap::grid(6, 6), 16, 8),
        (CouplingMap::heavy_hex(5), 20, 6),
        (CouplingMap::line(8), 8, 8),
    ];
    for (s, (map, n, depth)) in shapes.into_iter().enumerate() {
        let circuit = quantum_volume(n, depth, 0x0B + s as u64);
        for (router, name) in [(RouterKind::Mirage, "mirage"), (RouterKind::Sabre, "sabre")] {
            out.push((
                format!("{}/qv_n{n}_d{depth}/{name}", map.name()),
                circuit.clone(),
                Target::sqrt_iswap(map.clone()),
                router,
                0x1A0 + s as u64,
            ));
        }
    }
    out
}

#[test]
fn transpiles_of_1q_free_inputs_match_pins() {
    let mut actual = Vec::new();
    for (label, circuit, target, router, seed) in no_1q_inputs() {
        let cc = consolidate(&circuit);
        assert!(
            cc.instructions.iter().all(|i| i.gate.is_two_qubit()),
            "{label}: the input must be 1Q-free after consolidation"
        );
        let out = transpile(&circuit, &target, &TranspileOptions::quick(router, seed))
            .expect("transpiles");
        actual.push((
            label,
            out.circuit.fingerprint(),
            out.metrics.swaps_inserted,
            out.metrics.mirrors_accepted,
            out.metrics.depth_estimate.to_bits(),
        ));
    }
    if std::env::var("MIRAGE_REGEN_GOLDEN").is_ok() {
        println!("const NO_1Q_GOLDEN: &[No1qGolden] = &[");
        for (label, fp, swaps, mirrors, depth) in &actual {
            println!("    (\"{label}\", 0x{fp:016X}, {swaps}, {mirrors}, 0x{depth:016X}),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        actual.len(),
        NO_1Q_GOLDEN.len(),
        "case matrix changed shape"
    );
    for (a, &(label, fp, swaps, mirrors, depth)) in actual.iter().zip(NO_1Q_GOLDEN) {
        assert_eq!(a.0, label, "case order changed");
        assert_eq!(
            (a.1, a.2, a.3, a.4),
            (fp, swaps, mirrors, depth),
            "{label}: a 1Q-free transpile drifted from its pin"
        );
    }
}
