//! The end-to-end transpile perf gate: placement + trials +
//! post-selection, serial vs parallel.
//!
//! Where `routing_runtime` times one `route` call, this bin times the
//! whole [`mirage_core::transpile`] pipeline — layout strategies, SABRE
//! refinement, routing trials, metric post-selection — once with the
//! trials inline (`trials.threads = 1`) and once on every core
//! (`trials.threads = 0`, the default), seven runs each (fastest, median
//! and spread `(max - min) / median`), and emits the machine-readable
//! `BENCH_transpile.json` that future PRs are held against. The speedup
//! is the ratio of the medians.
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

use mirage_bench::report::{self, hex, num, CacheStats, Cli, Json, Sanity, Timing, Verdict};
use mirage_circuit::generators::{qft, two_local_full};
use mirage_circuit::Circuit;
use mirage_core::{transpile, RouterKind, Target, TranspileOptions, TranspiledCircuit};
use mirage_topology::CouplingMap;
use std::process::ExitCode;

const TRANSPILE_SEED: u64 = 0x7147;
/// Timed runs per mode and case (after the bit-identity runs).
const RUNS: usize = 7;

/// name, fingerprint, swaps, mirrors — pinned to the inline trial
/// loop's output (the every-core run must reproduce it bit for bit;
/// regenerate with `--print-fingerprints` after an intentional behavior
/// change).
const SANITY: &[(&str, Sanity)] = &[
    ("qft-16", (0xD6DCA926D069722E, 3, 122)),
    ("qft-32", (0x1784F9D4473BCD18, 3, 498)),
    ("qft-48", (0xC6BE860EFD9EBCCA, 94, 1039)),
    ("twolocal-full-16", (0xC984C0695B0AFD7E, 3, 242)),
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

/// `threads`: 1 runs the trials inline (serial), 0 on every core.
fn options(threads: usize) -> TranspileOptions {
    let mut opts = TranspileOptions::quick(RouterKind::Mirage, TRANSPILE_SEED);
    // VF2 would short-circuit the trial loop on embeddable cases; this
    // bench times the trial engine, so force the full path.
    opts.use_vf2 = false;
    opts.trials.threads = threads;
    opts
}

struct Measured {
    name: &'static str,
    n_qubits: usize,
    twoq_gates: usize,
    serial: Timing,
    parallel: Timing,
    swaps: usize,
    mirrors: usize,
    fingerprint: u64,
    cache: CacheStats,
}

impl Measured {
    /// Serial over parallel median wall time.
    fn speedup(&self) -> f64 {
        if self.parallel.median_ms <= 0.0 {
            0.0
        } else {
            self.serial.median_ms / self.parallel.median_ms
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
            ("serial_min_ms", num(self.serial.min_ms, 3)),
            ("serial_median_ms", num(self.serial.median_ms, 3)),
            ("serial_spread", num(self.serial.spread, 3)),
            ("parallel_min_ms", num(self.parallel.min_ms, 3)),
            ("parallel_median_ms", num(self.parallel.median_ms, 3)),
            ("parallel_spread", num(self.parallel.spread, 3)),
            ("speedup", num(self.speedup(), 2)),
            ("swaps", self.swaps.into()),
            ("mirrors", self.mirrors.into()),
            ("fingerprint", hex(self.fingerprint)),
        ];
        fields.extend(self.cache.fields());
        Json::Obj(fields)
    }
}

fn run(circuit: &Circuit, target: &Target, threads: usize) -> TranspiledCircuit {
    transpile(circuit, target, &options(threads)).expect("bench case transpiles")
}

fn measure((name, circuit): &(&'static str, Circuit)) -> Measured {
    let target = Target::sqrt_iswap(CouplingMap::line(circuit.n_qubits));

    // Bit-identity gate (also warms the shared cost cache, so both timed
    // modes run steady-state).
    let serial = run(circuit, &target, 1);
    let parallel = run(circuit, &target, 0);
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

    let serial_time = Timing::of(RUNS, || run(circuit, &target, 1));
    let parallel_time = Timing::of(RUNS, || run(circuit, &target, 0));

    Measured {
        name,
        n_qubits: circuit.n_qubits,
        twoq_gates: serial.metrics.two_qubit_gates,
        serial: serial_time,
        parallel: parallel_time,
        swaps: serial.metrics.swaps_inserted,
        mirrors: serial.metrics.mirrors_accepted,
        fingerprint: serial.circuit.fingerprint(),
        cache: CacheStats::of(&target),
    }
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    println!(
        "transpile_runtime — line topology, mirage quick trials, {RUNS} runs per mode \
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
        ("runs", RUNS.into()),
    ]);
    let doc = report::document(CLI.bin, &args, config, cases, vec![]);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
