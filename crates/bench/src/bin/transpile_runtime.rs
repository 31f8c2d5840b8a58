//! The end-to-end transpile perf gate: placement + trials +
//! post-selection, serial vs parallel.
//!
//! Where `routing_runtime` times one `route` call, this bin times the
//! whole [`mirage_core::transpile`] pipeline — layout strategies, SABRE
//! refinement, routing trials, metric post-selection — once with the
//! serial trial loop and once with the parallel engine
//! (`trials.parallel = true`, auto thread count), best-of-3 wall times,
//! and emits the machine-readable `BENCH_transpile.json` that future PRs
//! are held against.
//!
//! Two hard gates (nonzero exit on failure):
//!
//! * **Bit identity** — every case transpiles through both modes and the
//!   outputs must be equal, with fingerprint/swaps/mirrors matching the
//!   pinned sanity table below. The parallel engine's determinism
//!   contract (pre-split seeds, fixed reduction order) is re-proven on
//!   every bench run, not just in the test suite.
//! * **Speedup** (`--quick`, the CI smoke run) — the parallel engine must
//!   be ≥ 1.5× faster than serial on the QFT-32 case, when the host has
//!   ≥ 4 cores (skipped otherwise: the gate would measure the machine,
//!   not the code).
//!
//! Usage: `transpile_runtime [--quick] [--out PATH] [--print-fingerprints]`

use mirage_bench::report::{self, hex, num, CacheStats, Cli, Json, Sanity, Verdict};
use mirage_circuit::generators::{qft, two_local_full};
use mirage_circuit::Circuit;
use mirage_core::{transpile, RouterKind, Target, TranspileOptions, TranspiledCircuit};
use mirage_topology::CouplingMap;
use std::process::ExitCode;

const TRANSPILE_SEED: u64 = 0x7147;
const BEST_OF: usize = 3;

/// name, fingerprint, swaps, mirrors — pinned to the serial trial
/// engine's output (the parallel engine must reproduce it bit for bit;
/// regenerate with `--print-fingerprints` after an intentional behavior
/// change).
const SANITY: &[(&str, Sanity)] = &[
    ("qft-16", (0x7FEEB09EE195ADB8, 3, 122)),
    ("qft-32", (0x0279BCF79D3CA2A6, 3, 498)),
    ("qft-48", (0xE1B2F216BF88B649, 138, 988)),
    ("twolocal-full-16", (0x97A40200E0C12FD6, 2, 242)),
];

const CLI: Cli = Cli {
    bin: "transpile_runtime",
    default_out: "BENCH_transpile.json",
    switches: &["--print-fingerprints"],
    valued: &[],
};

/// The benchmark circuits, each transpiled onto a line as wide as itself;
/// `--quick` keeps qft-32 only.
fn cases(quick: bool) -> Vec<(&'static str, Circuit)> {
    let cases = vec![
        ("qft-16", qft(16, false)),
        ("qft-32", qft(32, false)),
        ("qft-48", qft(48, false)),
        ("twolocal-full-16", two_local_full(16, 2, 0xB16)),
    ];
    cases
        .into_iter()
        .filter(|&(name, _)| !quick || name == "qft-32")
        .collect()
}

fn options(parallel: bool) -> TranspileOptions {
    let mut opts = TranspileOptions::quick(RouterKind::Mirage, TRANSPILE_SEED);
    // VF2 would short-circuit the trial loop on embeddable cases; this
    // bench times the trial engine, so force the full path.
    opts.use_vf2 = false;
    opts.trials.parallel = parallel;
    opts.trials.threads = 0; // auto: the host's available parallelism
    opts
}

struct Measured {
    name: &'static str,
    n_qubits: usize,
    twoq_gates: usize,
    serial_ms: f64,
    parallel_ms: f64,
    swaps: usize,
    mirrors: usize,
    fingerprint: u64,
    cache: CacheStats,
}

impl Measured {
    fn speedup(&self) -> f64 {
        if self.parallel_ms <= 0.0 {
            0.0
        } else {
            self.serial_ms / self.parallel_ms
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
            ("serial_ms", num(self.serial_ms, 3)),
            ("parallel_ms", num(self.parallel_ms, 3)),
            ("speedup", num(self.speedup(), 2)),
            ("swaps", self.swaps.into()),
            ("mirrors", self.mirrors.into()),
            ("fingerprint", hex(self.fingerprint)),
        ];
        fields.extend(self.cache.fields());
        Json::Obj(fields)
    }
}

fn run(circuit: &Circuit, target: &Target, parallel: bool) -> TranspiledCircuit {
    transpile(circuit, target, &options(parallel)).expect("bench case transpiles")
}

fn measure((name, circuit): &(&'static str, Circuit)) -> Measured {
    let target = Target::sqrt_iswap(CouplingMap::line(circuit.n_qubits));

    // Bit-identity gate (also warms the shared cost cache and the
    // engine-pooled scratches, so both timed modes run steady-state).
    let serial = run(circuit, &target, false);
    let parallel = run(circuit, &target, true);
    assert_eq!(
        serial.circuit, parallel.circuit,
        "{name}: parallel trial engine diverged from serial"
    );
    assert_eq!(
        serial.metrics.swaps_inserted,
        parallel.metrics.swaps_inserted
    );
    assert_eq!(
        serial.metrics.mirrors_accepted,
        parallel.metrics.mirrors_accepted
    );

    let serial_ms = report::best_ms(BEST_OF, || run(circuit, &target, false));
    let parallel_ms = report::best_ms(BEST_OF, || run(circuit, &target, true));

    Measured {
        name,
        n_qubits: circuit.n_qubits,
        twoq_gates: serial.metrics.two_qubit_gates,
        serial_ms,
        parallel_ms,
        swaps: serial.metrics.swaps_inserted,
        mirrors: serial.metrics.mirrors_accepted,
        fingerprint: serial.circuit.fingerprint(),
        cache: CacheStats::of(&target),
    }
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    println!(
        "transpile_runtime — line topology, mirage quick trials, best-of-{BEST_OF} \
         ({}, {} threads)\n",
        args.mode(),
        report::host_cores()
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
    if args.quick {
        let qft32 = rows
            .iter()
            .find(|r| r.name == "qft-32")
            .expect("quick mode runs qft-32");
        println!();
        verdict.scaling("parallel vs serial at qft-32", qft32.speedup(), 1.5);
    }
    let config = Json::Obj(vec![
        ("topology", "line".into()),
        ("router", "mirage".into()),
        ("seed", TRANSPILE_SEED.into()),
        ("best_of", BEST_OF.into()),
    ]);
    let doc = report::document(CLI.bin, &args, config, cases, vec![]);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
