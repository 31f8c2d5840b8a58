//! The closed-loop compile workloads, `paper-mirage` and `wide-sabre`.
//!
//! One caller transpiles every (device, circuit) pair in turn — a *pass* —
//! with a fresh per-call seed drawn from the workload seed, and keeps
//! making passes until the timed window has run out. Runs end on a pass
//! boundary, so every run weighs the circuits equally and the percentiles
//! compare across runs. One long-lived `Target` serves each device for the
//! whole run, as in a compile service.

use crate::replica::{self, StageTrace};
use crate::report::{self, Outcome, RunContext};
use crate::speed::{self, SpeedLog};
use mirage_circuit::generators::{paper_suite, qft, quantum_volume, two_local_full};
use mirage_circuit::Circuit;
use mirage_core::{transpile, RouterKind, Target, TranspileOptions};
use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::time::Instant;

/// A compile workload: devices, inputs and router.
pub struct Spec {
    router: RouterKind,
    devices: fn() -> Vec<CouplingMap>,
    inputs: fn(&mut Rng) -> Vec<Circuit>,
}

/// The paper's Table III suite on its two √iSWAP devices, headline MIRAGE
/// configuration (VF2 on, serial trials, depth post-selection).
pub const PAPER_MIRAGE: Spec = Spec {
    router: RouterKind::Mirage,
    devices: || vec![CouplingMap::grid(6, 6), CouplingMap::heavy_hex(5)],
    inputs: |_| paper_suite().into_iter().map(|(_, c)| c).collect(),
};

/// Wide circuits on a 115-qubit heavy-hex device under plain SABRE: pure
/// SWAP search, no mirror layer, swap-count post-selection.
pub const WIDE_SABRE: Spec = Spec {
    router: RouterKind::Sabre,
    devices: || vec![CouplingMap::heavy_hex(7)],
    inputs: wide_inputs,
};

/// Quantum-volume layers in the wide workload.
const QV_DEPTH: usize = 8;

/// Each family is drawn once in each of four narrow width strata, so every
/// seed covers 48–64 qubits evenly and runs stay comparable across seeds.
fn wide_inputs(rng: &mut Rng) -> Vec<Circuit> {
    const STRATA: [(usize, usize); 4] = [(48, 49), (53, 54), (58, 59), (63, 64)];
    let mut out = Vec::new();
    for (lo, hi) in STRATA {
        let mut width = || lo + rng.below(hi - lo + 1);
        let (q, v, t) = (width(), width(), width());
        out.push(qft(q, false));
        out.push(quantum_volume(v, QV_DEPTH, rng.next_u64()));
        out.push(two_local_full(t, 1, rng.next_u64()));
    }
    out
}

/// Setups per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 3;
/// The output-quality guards cover this many leading passes, which every
/// run completes whatever the window, so they are a pure function of the
/// seed.
const QUALITY_PASSES: usize = 8;
/// Timed calls re-run after the window to check determinism.
const RERUN_SAMPLE: usize = 24;
/// Reference-kernel time spent after each call, as a share of the call
/// (at least one kernel run per call).
const KERNEL_SHARE: f64 = 0.03;

struct Input {
    circuit: Circuit,
    two_q: usize,
}

struct Bench {
    targets: Vec<Target>,
    inputs: Vec<Input>,
}

/// One timed `transpile` call and what its output looked like.
struct Call {
    device: usize,
    input: usize,
    seed: u64,
    /// Wall time, and its midpoint in seconds after the window opened.
    ms: f64,
    mid: f64,
    fingerprint: u64,
    depth: f64,
    swaps: usize,
    ok: bool,
}

/// Build the targets and inputs, then warm them with one untimed pass
/// under seeds no timed call uses.
fn setup(spec: &Spec, seed: u64) -> Bench {
    let mut rng = Rng::new(seed);
    let inputs: Vec<Input> = (spec.inputs)(&mut rng)
        .into_iter()
        .map(|circuit| Input {
            two_q: circuit.two_qubit_gate_count(),
            circuit,
        })
        .collect();
    let targets: Vec<Target> = (spec.devices)()
        .into_iter()
        .map(Target::sqrt_iswap)
        .collect();
    let mut warm = rng.spawn();
    for target in &targets {
        for input in &inputs {
            let opts = TranspileOptions::quick(spec.router, warm.next_u64());
            transpile(&input.circuit, target, &opts).expect("warm-up transpile succeeds");
        }
    }
    Bench { targets, inputs }
}

/// Every two-qubit gate sits on a coupled pair: checked here, in the
/// benchmark's own code, not by the router's verifier.
pub fn on_coupling(circuit: &Circuit, topo: &CouplingMap) -> bool {
    circuit
        .instructions
        .iter()
        .all(|i| i.qubits.len() != 2 || topo.are_adjacent(i.qubits[0], i.qubits[1]))
}

/// The closed loop: whole passes until the window has run out (and at
/// least [`QUALITY_PASSES`]). Checks and the reference kernel run between
/// calls, outside the timed call.
fn timed_calls(
    spec: &Spec,
    bench: &Bench,
    seconds: f64,
    call_seeds: &mut Rng,
    speed: &mut SpeedLog,
) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut passes = 0;
    while passes < QUALITY_PASSES || speed.now() < seconds {
        for (device, target) in bench.targets.iter().enumerate() {
            for (input, inp) in bench.inputs.iter().enumerate() {
                let seed = call_seeds.next_u64();
                let opts = TranspileOptions::quick(spec.router, seed);
                let t = Instant::now();
                let result = transpile(&inp.circuit, target, &opts);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let mid = speed.now() - ms / 2e3;
                let kernels = (ms * KERNEL_SHARE / speed::NOMINAL_MS).ceil().max(1.0);
                speed.sample(kernels as usize);
                let mut call = Call {
                    device,
                    input,
                    seed,
                    ms,
                    mid,
                    fingerprint: 0,
                    depth: 0.0,
                    swaps: 0,
                    ok: false,
                };
                match result {
                    Ok(out) => {
                        call.fingerprint = out.circuit.fingerprint();
                        call.depth = out.metrics.depth_estimate;
                        call.swaps = out.metrics.swaps_inserted;
                        call.ok = on_coupling(&out.circuit, target.topology());
                    }
                    Err(e) => eprintln!("  call failed: {e}"),
                }
                calls.push(call);
            }
        }
        passes += 1;
    }
    calls
}

/// Re-run a seeded sample of the timed calls and require the same
/// fingerprint: equal inputs must give bit-identical outputs.
fn rerun_sample(spec: &Spec, bench: &Bench, calls: &mut [Call], rng: &mut Rng) -> usize {
    let mut picks: Vec<usize> = (0..calls.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(RERUN_SAMPLE);
    for &k in &picks {
        let call = &mut calls[k];
        let opts = TranspileOptions::quick(spec.router, call.seed);
        let again = transpile(
            &bench.inputs[call.input].circuit,
            &bench.targets[call.device],
            &opts,
        );
        if again.map(|out| out.circuit.fingerprint()).ok() != Some(call.fingerprint) {
            eprintln!("  rerun of call {k} gave a different result");
            call.ok = false;
        }
    }
    picks.len()
}

/// Shared cost-cache counters, summed over targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    hits: u64,
    misses: u64,
    contention: u64,
}

impl CacheCounts {
    /// Read the counters of `targets` now.
    pub fn read<'a>(targets: impl IntoIterator<Item = &'a Target>) -> CacheCounts {
        targets.into_iter().fold(CacheCounts::default(), |acc, t| {
            let (hits, misses) = t.cache_stats();
            CacheCounts {
                hits: acc.hits + hits,
                misses: acc.misses + misses,
                contention: acc.contention + t.cache().contention(),
            }
        })
    }

    /// Report the traffic since `before` as means over `ops` operations.
    pub fn report_since(self, before: CacheCounts, ops: usize, out: &mut Outcome) {
        let hits = (self.hits - before.hits) as f64;
        let misses = (self.misses - before.misses) as f64;
        let ops = ops as f64;
        out.set("cache.hits", report::ratio(hits, ops));
        out.set("cache.misses", report::ratio(misses, ops));
        out.set("cache.hit_ratio", report::ratio(hits, hits + misses));
        out.set(
            "cache.contention",
            report::ratio((self.contention - before.contention) as f64, ops),
        );
    }
}

/// Run one compile workload.
pub fn run(spec: &Spec, ctx: &RunContext) -> Outcome {
    let mut setup_times = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        let (secs, built) = speed::timed_scaled(|| setup(spec, ctx.seed));
        setup_times.push(secs);
        bench = Some(built);
    }
    let bench = bench.expect("at least one setup");
    let mut rng = Rng::new(ctx.seed ^ 0xCA11_5EED);
    let mut call_seeds = rng.spawn();

    let cache_before = CacheCounts::read(&bench.targets);
    let mut speed = SpeedLog::new(Instant::now());
    let mut calls = timed_calls(spec, &bench, ctx.seconds, &mut call_seeds, &mut speed);
    let cache_after = CacheCounts::read(&bench.targets);
    let rerun = rerun_sample(spec, &bench, &mut calls, &mut rng);

    let mut out = Outcome {
        attempted: calls.len() as u64,
        failed: calls.iter().filter(|c| !c.ok).count() as u64,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "every output checked on the coupling map; {rerun} of {} calls re-run for determinism",
        calls.len()
    ));
    out.notes.push(format!(
        "timings scaled to the reference host speed, median factor {:.3}",
        speed.overall_factor()
    ));
    let mut trace_ok = true;
    if ctx.trace {
        trace_ok = report_layers(spec, &bench, &calls, cache_before, cache_after, &mut out);
    } else {
        report_end_to_end(&bench, &calls, &speed, &setup_times, &mut out);
    }
    out.correct = out.failed == 0 && trace_ok;
    out
}

fn report_end_to_end(
    bench: &Bench,
    calls: &[Call],
    speed: &SpeedLog,
    setup_times: &[f64],
    out: &mut Outcome,
) {
    // Every call time is scaled to the reference host speed (see
    // `speed.rs`). Latency is then taken per (device, circuit) pair as the
    // lower quartile of its calls across passes, which drops the calls a
    // preemption or a change of host speed mid-call landed in, and the
    // percentiles run over the pairs.
    let n_inputs = bench.inputs.len();
    let mut per_pair = vec![Vec::new(); bench.targets.len() * n_inputs];
    for c in calls {
        per_pair[c.device * n_inputs + c.input].push(c.ms * speed.factor_at(c.mid));
    }
    let typical: Vec<f64> = per_pair
        .iter()
        .map(|ms| report::quantile(ms, 0.25))
        .collect();
    let two_q = |pair: usize| bench.inputs[pair % n_inputs].two_q;
    let pass_2q: usize = (0..typical.len()).map(two_q).sum();
    // The small half of the inputs (by two-qubit gate count) stands in for
    // the interactive requests of a compile service: there is no lane in
    // a closed loop, but these are the calls a user sits and waits on.
    let sizes: Vec<f64> = bench.inputs.iter().map(|i| i.two_q as f64).collect();
    let small = report::quantile(&sizes, 0.5);
    let small_ms: Vec<f64> = (0..typical.len())
        .filter(|&pair| two_q(pair) as f64 <= small)
        .map(|pair| typical[pair])
        .collect();
    let quality_calls = QUALITY_PASSES * typical.len();
    let quality = &calls[..quality_calls];
    let depths: Vec<f64> = quality.iter().map(|c| c.depth).collect();

    out.set("setup_s", report::quantile(setup_times, 0.5));
    out.set("compile_ms_p50", report::quantile(&typical, 0.5));
    out.set("compile_ms_p90", report::quantile(&typical, 0.9));
    out.set(
        "compile_2q_per_s",
        report::ratio(pass_2q as f64, typical.iter().sum::<f64>() / 1e3),
    );
    // A closed loop with one caller: each call's latency is its own time.
    out.set("job_ms_p50", report::quantile(&typical, 0.5));
    out.set("job_ms_p99", report::quantile(&typical, 0.99));
    out.set("interactive_ms_p90", report::quantile(&small_ms, 0.9));
    out.set("peak_rss_mb", report::peak_rss_mb());
    out.set("out_depth_geomean", report::geomean(&depths));
    out.set(
        "out_swaps_total",
        quality.iter().map(|c| c.swaps as f64).sum(),
    );
    out.samples("calls", calls.len());
    out.samples("pairs", typical.len());
    out.samples("interactive_pairs", small_ms.len());
    out.samples("setup_s", setup_times.len());
    out.samples("quality_calls", quality_calls);
}

/// The traced half: replay every timed call through the stage replica and
/// report per-layer means per `transpile` call. Returns false when the
/// replica diverged from `transpile` on any call.
fn report_layers(
    spec: &Spec,
    bench: &Bench,
    calls: &[Call],
    cache_before: CacheCounts,
    cache_after: CacheCounts,
    out: &mut Outcome,
) -> bool {
    let mut trace = StageTrace::default();
    let mut diverged = 0usize;
    for call in calls.iter().filter(|c| c.ok) {
        let opts = TranspileOptions::quick(spec.router, call.seed);
        let replayed = replica::replay(
            &bench.inputs[call.input].circuit,
            &bench.targets[call.device],
            &opts,
            &mut trace,
        );
        if replayed.ok() != Some(call.fingerprint) {
            diverged += 1;
        }
    }
    let untraced_s: f64 = calls.iter().filter(|c| c.ok).map(|c| c.ms).sum::<f64>() / 1e3;
    if diverged > 0 {
        eprintln!(
            "TRACE INVALID: the stage replica diverged from transpile on {diverged} of {} calls; \
             update perfbench/src/replica.rs to follow the engine",
            trace.calls
        );
        out.notes.push(format!(
            "trace invalid: replica diverged on {diverged} calls"
        ));
    } else {
        out.notes.push(format!(
            "trace valid: replica fingerprint equals transpile on all {} calls",
            trace.calls
        ));
    }
    replica::report(&trace, untraced_s, out);
    cache_after.report_since(cache_before, calls.len(), out);
    out.set("atlas.load_ms", replica::atlas_load_ms());
    diverged == 0
}
