//! The routing-runtime perf gate: the persistent routing-throughput
//! trajectory, and the record of the paper's **Fig. 13b** runtime axis.
//!
//! Times the optimized, scratch-reusing router
//! ([`mirage_core::router::route_with_scratch`]) on the QFT family
//! (n = 16 … 64, line topology, trivial layout, seed `0x1313`) plus a
//! two_local suite, and emits the machine-readable `BENCH_routing.json`
//! that future PRs are held against. Each case is timed over seven runs
//! and records the fastest, the median and the spread
//! (`(max - min) / median`); `gates_per_s` comes from the median, so a
//! stage gain shows only where it exceeds the case's own spread.
//!
//! The line cases start from the trivial layout, so they insert only
//! 0–63 SWAPs and time mostly the execute layer and the mirror decision.
//! The `grid6x6-*` and `heavyhex5-*` cases start from a random layout
//! (drawn from the route seed) on the paper's two Fig. 12 devices, under
//! A1 (the level of the mirror-aware refinement and of routing trial 1),
//! A2 and plain SABRE: there the SWAP-step kernel (candidate build and
//! scoring) dominates the route time, as it does inside the trial engine.
//! QFT's mirror costs never tie, so its A1 and A2 routes coincide; the
//! two_local A1 routes differ from their A2 ones and pin A1's strict
//! acceptance rule.
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

use mirage_bench::report::{self, hex, num, CacheStats, Cli, Json, Sanity, Timing, Verdict};
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
/// Timed runs per case (after one warm-up run).
const RUNS: usize = 7;

/// name, fingerprint, swaps, mirrors — pinned to the pre-rewrite router's
/// output (bit-identical by construction; regenerate with
/// `--print-fingerprints` after an intentional behavior change).
const SANITY: &[(&str, Sanity)] = &[
    ("qft-16", (0x111F16CBB24A1BE2, 24, 98)),
    ("qft-24", (0x9320F6525508B488, 15, 259)),
    ("qft-32", (0x9A8BFBC7172876EE, 15, 478)),
    ("qft-48", (0x6FF97EA6AD2A6B10, 27, 1099)),
    ("qft-64", (0x1B78BD1063BD306D, 36, 1981)),
    ("twolocal-full-12", (0x275DB24BB880025C, 3, 129)),
    ("twolocal-full-16", (0xD9E29C3885E68A6F, 3, 237)),
    ("twolocal-linear-24", (0x1936E77E65F356C7, 0, 1)),
    ("grid6x6-qft-32-a2", (0x94378B43B51BFBD6, 383, 191)),
    ("grid6x6-qft-32-a1", (0x94378B43B51BFBD6, 383, 191)),
    ("grid6x6-qft-32-sabre", (0xAD96E360D0A6A6A8, 523, 0)),
    (
        "grid6x6-twolocal-full-24-a2",
        (0x14B3CF67B6959D0F, 386, 295),
    ),
    (
        "grid6x6-twolocal-full-24-a1",
        (0x5D4395FEE32431CC, 351, 218),
    ),
    (
        "grid6x6-twolocal-full-24-sabre",
        (0x192BF23BD92A1696, 542, 0),
    ),
    ("heavyhex5-qft-32-a2", (0x1F41DBF4B45650DB, 752, 256)),
    ("heavyhex5-qft-32-a1", (0x1F41DBF4B45650DB, 752, 256)),
    ("heavyhex5-qft-32-sabre", (0xBC2F24F1FB2DCA6A, 952, 0)),
    (
        "heavyhex5-twolocal-full-24-a2",
        (0x4DE49BC1BEF16440, 800, 296),
    ),
    (
        "heavyhex5-twolocal-full-24-a1",
        (0x1DD28FA644265344, 723, 293),
    ),
    (
        "heavyhex5-twolocal-full-24-sabre",
        (0x6C06A1952BB32400, 1004, 0),
    ),
];

const CLI: Cli = Cli {
    bin: "routing_runtime",
    default_out: "BENCH_routing.json",
    switches: &["--print-fingerprints"],
    valued: &[],
};

/// One benchmark case: a circuit, the device it is routed on, the router
/// (`None` = plain SABRE) and whether routing starts from a random layout
/// (drawn from the route seed) instead of the trivial one.
struct Case {
    name: &'static str,
    circuit: Circuit,
    topo: CouplingMap,
    aggression: Option<Aggression>,
    random_layout: bool,
}

/// A line-routed case: as wide as its circuit, trivial layout, A2.
fn line(name: &'static str, circuit: Circuit) -> Case {
    Case {
        name,
        topo: CouplingMap::line(circuit.n_qubits),
        circuit,
        aggression: Some(Aggression::A2),
        random_layout: false,
    }
}

/// A random-layout case on one of the paper's Fig. 12 devices.
fn device(
    name: &'static str,
    circuit: Circuit,
    topo: CouplingMap,
    aggression: Option<Aggression>,
) -> Case {
    Case {
        name,
        circuit,
        topo,
        aggression,
        random_layout: true,
    }
}

/// The benchmark cases; `--quick` keeps qft-32 and the random-layout
/// grid qft-32 under A2 and A1.
fn cases(quick: bool) -> Vec<Case> {
    let a1 = Some(Aggression::A1);
    let a2 = Some(Aggression::A2);
    let cases = vec![
        line("qft-16", qft(16, false)),
        line("qft-24", qft(24, false)),
        line("qft-32", qft(32, false)),
        line("qft-48", qft(48, false)),
        line("qft-64", qft(64, false)),
        line("twolocal-full-12", two_local_full(12, 2, 0xB12)),
        line("twolocal-full-16", two_local_full(16, 2, 0xB16)),
        line("twolocal-linear-24", two_local_linear(24, 4, 0xB24)),
        device(
            "grid6x6-qft-32-a2",
            qft(32, false),
            CouplingMap::grid(6, 6),
            a2,
        ),
        device(
            "grid6x6-qft-32-a1",
            qft(32, false),
            CouplingMap::grid(6, 6),
            a1,
        ),
        device(
            "grid6x6-qft-32-sabre",
            qft(32, false),
            CouplingMap::grid(6, 6),
            None,
        ),
        device(
            "grid6x6-twolocal-full-24-a2",
            two_local_full(24, 2, 0xB24),
            CouplingMap::grid(6, 6),
            a2,
        ),
        device(
            "grid6x6-twolocal-full-24-a1",
            two_local_full(24, 2, 0xB24),
            CouplingMap::grid(6, 6),
            a1,
        ),
        device(
            "grid6x6-twolocal-full-24-sabre",
            two_local_full(24, 2, 0xB24),
            CouplingMap::grid(6, 6),
            None,
        ),
        device(
            "heavyhex5-qft-32-a2",
            qft(32, false),
            CouplingMap::heavy_hex(5),
            a2,
        ),
        device(
            "heavyhex5-qft-32-a1",
            qft(32, false),
            CouplingMap::heavy_hex(5),
            a1,
        ),
        device(
            "heavyhex5-qft-32-sabre",
            qft(32, false),
            CouplingMap::heavy_hex(5),
            None,
        ),
        device(
            "heavyhex5-twolocal-full-24-a2",
            two_local_full(24, 2, 0xB24),
            CouplingMap::heavy_hex(5),
            a2,
        ),
        device(
            "heavyhex5-twolocal-full-24-a1",
            two_local_full(24, 2, 0xB24),
            CouplingMap::heavy_hex(5),
            a1,
        ),
        device(
            "heavyhex5-twolocal-full-24-sabre",
            two_local_full(24, 2, 0xB24),
            CouplingMap::heavy_hex(5),
            None,
        ),
    ];
    cases
        .into_iter()
        .filter(|c| {
            !quick || matches!(c.name, "qft-32" | "grid6x6-qft-32-a2" | "grid6x6-qft-32-a1")
        })
        .collect()
}

struct Measured {
    name: &'static str,
    topology: String,
    router: &'static str,
    random_layout: bool,
    n_qubits: usize,
    twoq_gates: usize,
    timing: Timing,
    swaps: usize,
    mirrors: usize,
    fingerprint: u64,
    cache: CacheStats,
}

impl Measured {
    /// Routed 2Q gates per second at the median run — the
    /// machine-portable throughput view.
    fn gates_per_s(&self) -> f64 {
        if self.timing.median_ms <= 0.0 {
            0.0
        } else {
            self.twoq_gates as f64 / (self.timing.median_ms / 1e3)
        }
    }

    fn pin(&self) -> (&str, Sanity) {
        (self.name, (self.fingerprint, self.swaps, self.mirrors))
    }

    fn json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.into()),
            ("topology", self.topology.as_str().into()),
            ("router", self.router.into()),
            ("random_layout", self.random_layout.into()),
            ("n_qubits", self.n_qubits.into()),
            ("twoq_gates", self.twoq_gates.into()),
            ("min_ms", num(self.timing.min_ms, 3)),
            ("median_ms", num(self.timing.median_ms, 3)),
            ("spread", num(self.timing.spread, 3)),
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
    random_layout: bool,
    scratch: &mut RouterScratch,
) -> RoutedCircuit {
    let mut rng = Rng::new(ROUTE_SEED);
    let layout = if random_layout {
        Layout::random(dag.n_qubits, target.n_qubits(), &mut rng)
    } else {
        Layout::trivial(dag.n_qubits, target.n_qubits())
    };
    route_with_scratch(dag, coords, target, layout, config, &mut rng, scratch)
}

fn measure(case: &Case) -> Measured {
    let cc = consolidate(&case.circuit);
    let dag = Dag::from_circuit(&cc);
    let coords = node_coords(&dag);
    let target = Target::sqrt_iswap(case.topo.clone());
    let config = RouterConfig {
        aggression: case.aggression,
        ..RouterConfig::default()
    };
    let mut scratch = RouterScratch::new();
    let route = |scratch: &mut RouterScratch| {
        route_optimized(&dag, &coords, &target, &config, case.random_layout, scratch)
    };

    // Warm-up pass: fills the target's cost cache and sizes the scratch, so
    // the timed runs are steady-state; its output feeds the fingerprint pin.
    let routed = route(&mut scratch);

    let timing = Timing::of(RUNS, || route(&mut scratch));

    Measured {
        name: case.name,
        topology: case.topo.name().to_owned(),
        router: match case.aggression {
            None => "sabre",
            Some(Aggression::A0) => "A0",
            Some(Aggression::A1) => "A1",
            Some(Aggression::A2) => "A2",
            Some(Aggression::A3) => "A3",
        },
        random_layout: case.random_layout,
        n_qubits: case.circuit.n_qubits,
        twoq_gates: cc.two_qubit_gate_count(),
        timing,
        swaps: routed.swaps_inserted,
        mirrors: routed.mirrors_accepted,
        fingerprint: routed.circuit.fingerprint(),
        cache: CacheStats::of(&target),
    }
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    println!(
        "routing_runtime — line (trivial layout, A2) and Fig. 12 devices \
         (random layout, A1, A2 and SABRE), {RUNS} runs per case ({})\n",
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
    let config = Json::Obj(vec![("seed", ROUTE_SEED.into()), ("runs", RUNS.into())]);
    let doc = report::document(CLI.bin, &args, config, cases, vec![]);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
