//! The routing-runtime perf gate: the persistent routing-throughput
//! trajectory, and the record of the paper's **Fig. 13b** runtime axis.
//!
//! Times the optimized, scratch-reusing router
//! ([`mirage_core::router::route_with_scratch`]) on the QFT family
//! (n = 16 … 64, line topology, seed `0x1313`) plus a two_local suite,
//! best-of-3 wall times, and emits the machine-readable
//! `BENCH_routing.json` that future PRs are held against.
//!
//! One hard gate (nonzero exit on failure): **pinned fingerprints** —
//! every case's routed-circuit fingerprint, SWAP count, and mirror count
//! must match the sanity table below. The pins were originally cut against
//! the seed-era `legacy::route` (bit-identical by construction) and have
//! survived three re-anchor cycles; the legacy module itself is now a
//! test-only fixture inside `mirage-core` (`route_matches_legacy_*`
//! sweeps), so this bin pins outputs rather than re-timing the old path.
//! A silent behavior change cannot pass off as a speedup.
//!
//! Usage: `routing_runtime [--quick] [--out PATH] [--print-fingerprints]`

use mirage_bench::report::{self, hex, num, CacheStats, Cli, Json, Sanity, Verdict};
use mirage_circuit::consolidate::consolidate;
use mirage_circuit::generators::{qft, two_local_full, two_local_linear};
use mirage_circuit::{Circuit, Dag};
use mirage_core::layout::Layout;
use mirage_core::router::{
    node_coords, route_with_scratch, Aggression, RoutedCircuit, RouterConfig, RouterScratch,
};
use mirage_core::Target;
use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::process::ExitCode;

const ROUTE_SEED: u64 = 0x1313;
const BEST_OF: usize = 3;

/// name, fingerprint, swaps, mirrors — pinned to the pre-rewrite router's
/// output (bit-identical by construction; regenerate with
/// `--print-fingerprints` after an intentional behavior change).
const SANITY: &[(&str, Sanity)] = &[
    ("qft-16", (0xC4736293D5E6AFA8, 27, 91)),
    ("qft-24", (0xEDCA2F0A70B12FE9, 33, 241)),
    ("qft-32", (0x831BAE8487AD27B8, 39, 455)),
    ("qft-48", (0xDF9CFA2B7FE470CB, 51, 1075)),
    ("qft-64", (0x3FFF2B7904DD1A08, 63, 1951)),
    ("twolocal-full-12", (0xF1F44696F4BB94A2, 7, 127)),
    ("twolocal-full-16", (0xCE22E0695E2D8363, 3, 237)),
    ("twolocal-linear-24", (0x551A34CDC86E5D27, 0, 1)),
];

const CLI: Cli = Cli {
    bin: "routing_runtime",
    default_out: "BENCH_routing.json",
    switches: &["--print-fingerprints"],
    valued: &[],
};

/// The benchmark circuits, each routed on a line as wide as itself;
/// `--quick` keeps qft-32 only.
fn cases(quick: bool) -> Vec<(&'static str, Circuit)> {
    let cases = vec![
        ("qft-16", qft(16, false)),
        ("qft-24", qft(24, false)),
        ("qft-32", qft(32, false)),
        ("qft-48", qft(48, false)),
        ("qft-64", qft(64, false)),
        ("twolocal-full-12", two_local_full(12, 2, 0xB12)),
        ("twolocal-full-16", two_local_full(16, 2, 0xB16)),
        ("twolocal-linear-24", two_local_linear(24, 4, 0xB24)),
    ];
    cases
        .into_iter()
        .filter(|&(name, _)| !quick || name == "qft-32")
        .collect()
}

struct Measured {
    name: &'static str,
    n_qubits: usize,
    twoq_gates: usize,
    optimized_ms: f64,
    swaps: usize,
    mirrors: usize,
    fingerprint: u64,
    cache: CacheStats,
}

impl Measured {
    /// Routed 2Q gates per second — the machine-portable throughput view.
    fn gates_per_s(&self) -> f64 {
        if self.optimized_ms <= 0.0 {
            0.0
        } else {
            self.twoq_gates as f64 / (self.optimized_ms / 1e3)
        }
    }

    fn pin(&self) -> (&str, Sanity) {
        (self.name, (self.fingerprint, self.swaps, self.mirrors))
    }

    fn json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.into()),
            ("n_qubits", self.n_qubits.into()),
            ("twoq_gates", self.twoq_gates.into()),
            ("optimized_ms", num(self.optimized_ms, 3)),
            ("gates_per_s", num(self.gates_per_s(), 0)),
            ("swaps", self.swaps.into()),
            ("mirrors", self.mirrors.into()),
            ("fingerprint", hex(self.fingerprint)),
        ];
        fields.extend(self.cache.fields());
        Json::Obj(fields)
    }
}

fn route_optimized(
    dag: &Dag,
    coords: &[Option<mirage_weyl::coords::WeylCoord>],
    target: &Target,
    config: &RouterConfig,
    scratch: &mut RouterScratch,
) -> RoutedCircuit {
    let mut rng = Rng::new(ROUTE_SEED);
    let layout = Layout::trivial(dag.n_qubits, target.n_qubits());
    route_with_scratch(dag, coords, target, layout, config, &mut rng, scratch)
}

fn measure((name, circuit): &(&'static str, Circuit)) -> Measured {
    let cc = consolidate(circuit);
    let dag = Dag::from_circuit(&cc);
    let coords = node_coords(&dag);
    let target = Target::sqrt_iswap(CouplingMap::line(circuit.n_qubits));
    let config = RouterConfig {
        aggression: Some(Aggression::A2),
        ..RouterConfig::default()
    };
    let mut scratch = RouterScratch::new();

    // Warm-up pass: fills the target's cost cache and sizes the scratch, so
    // the timed runs are steady-state; its output feeds the fingerprint pin.
    let routed = route_optimized(&dag, &coords, &target, &config, &mut scratch);

    let optimized_ms = report::best_ms(BEST_OF, || {
        route_optimized(&dag, &coords, &target, &config, &mut scratch)
    });

    Measured {
        name,
        n_qubits: circuit.n_qubits,
        twoq_gates: cc.two_qubit_gate_count(),
        optimized_ms,
        swaps: routed.swaps_inserted,
        mirrors: routed.mirrors_accepted,
        fingerprint: routed.circuit.fingerprint(),
        cache: CacheStats::of(&target),
    }
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    println!(
        "routing_runtime — line topology, A2, best-of-{BEST_OF} ({})\n",
        args.mode()
    );

    let rows: Vec<Measured> = cases(args.quick).iter().map(measure).collect();
    let pins: Vec<_> = rows.iter().map(Measured::pin).collect();
    if args.switch("--print-fingerprints") {
        report::print_pins("SANITY", &pins);
        return ExitCode::SUCCESS;
    }

    let cases: Vec<Json> = rows.iter().map(Measured::json).collect();
    report::print_cases(&cases);
    CacheStats::print_total(rows.iter().map(|r| r.cache));

    let mut verdict = Verdict::default();
    verdict.pins("SANITY", SANITY, &pins);
    let config = Json::Obj(vec![
        ("topology", "line".into()),
        ("aggression", "A2".into()),
        ("seed", ROUTE_SEED.into()),
        ("best_of", BEST_OF.into()),
    ]);
    let doc = report::document(CLI.bin, &args, config, cases, vec![]);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
