//! `serve_net` — pool scaling of the batch service, in-process and over
//! the framed-TCP network front; emits the machine-readable
//! `BENCH_serve.json`.
//!
//! A fixed seed-deterministic batch (serial in-job trials, so any speedup
//! is pool-level parallelism) runs with 1, 2, then 4 pool workers, twice
//! per pool size: in-process through `TranspileService::run_batch`, and
//! through a real `NetServer` on 127.0.0.1 by concurrent client
//! connections. Every run's results (fingerprint AND the returned QASM
//! text) must be bit-identical to the 1-worker in-process run — neither
//! the pool size nor the wire may perturb a result; the run **exits
//! nonzero** on any divergence. On hosts with at least 4 hardware threads
//! the 4-worker pool must also beat the single worker in-process by 2.0×
//! in `--quick` (the CI smoke gate, tolerant of shared runners) and 2.5×
//! in the full run, and over loopback by 1.5× / 2.0×; hosts with fewer
//! threads report the numbers but skip the speedup gates. Each
//! measurement keeps the better of two runs, so one noisy-neighbor window
//! cannot fail a gate.
//!
//! The network front's fault behaviour (garbage bytes, oversized frames,
//! full queues, expired deadlines, injected panics, chaos transports) is
//! checked by `tests/serve_net.rs`, not here.
//!
//! Usage: `serve_net [--quick] [--out PATH] [--workers N]`

use mirage_bench::report::{self, num, Cli, Json, Verdict};
use mirage_circuit::generators::{portfolio_qaoa, qft, two_local_full};
use mirage_circuit::qasm::to_qasm;
use mirage_core::{RouterKind, Target};
use mirage_serve::net::{NetClient, NetServer, ServeConfig, SubmitRequest, WireOptions};
use mirage_serve::{Lane, TranspileJob, TranspileService};
use mirage_topology::CouplingMap;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0x5EA1;

const CLI: Cli = Cli {
    bin: "serve_net",
    default_out: "BENCH_serve.json",
    switches: &[],
    valued: &[("--workers", "N")],
};

struct Config {
    quick: bool,
    max_workers: usize,
}

fn topology(cfg: &Config) -> CouplingMap {
    if cfg.quick {
        CouplingMap::grid(3, 3)
    } else {
        CouplingMap::grid(4, 4)
    }
}

fn fresh_target(cfg: &Config) -> Arc<Target> {
    Arc::new(Target::sqrt_iswap(topology(cfg)))
}

fn wire_options(cfg: &Config) -> WireOptions {
    let mut wire = WireOptions::quick(RouterKind::Mirage);
    let trials = if cfg.quick { 3 } else { 6 };
    wire.layout_trials = trials;
    wire.routing_trials = trials;
    wire.fwd_bwd_iters = 3;
    wire.use_vf2 = false; // every job must pay for routing, not embed away
    wire.threads = 1; // pool-level scaling only: inline in-job trials
    wire
}

/// The fixed workload: a cycle of routing-heavy benchmark circuits, one
/// request per (circuit, repetition) with its own seed.
fn requests(cfg: &Config) -> Vec<SubmitRequest> {
    let n = topology(cfg).n_qubits() - 2;
    let reps = if cfg.quick { 4 } else { 6 };
    let wire = wire_options(cfg);
    let suite = vec![
        (format!("qft-{n}"), to_qasm(&qft(n, false))),
        (format!("twolocal-{n}"), to_qasm(&two_local_full(n, 1, 7))),
        (format!("qaoa-{n}"), to_qasm(&portfolio_qaoa(n, 1, 7))),
    ];
    let mut out = Vec::new();
    for rep in 0..reps {
        for (name, qasm) in &suite {
            out.push(SubmitRequest {
                label: format!("{name}#{rep}"),
                qasm: qasm.clone(),
                seed: SEED + out.len() as u64,
                lane: Lane::Batch,
                deadline_ms: None,
                options: wire.clone(),
                fault: None,
            });
        }
    }
    out
}

/// What each job must come back as, regardless of transport or pool size.
type Results = BTreeMap<String, (u64, String)>;

/// Run `batch` in-process through `run_batch` on a fresh `workers`-worker
/// service, no sockets anywhere; returns (jobs/sec, per-label results).
fn in_process_once(cfg: &Config, batch: &[SubmitRequest], workers: usize) -> (f64, Results) {
    let service = TranspileService::new(fresh_target(cfg), workers);
    let jobs: Vec<TranspileJob> = batch
        .iter()
        .map(|r| {
            let circuit = mirage_circuit::qasm::from_qasm(&r.qasm).expect("workload parses");
            TranspileJob::new(r.label.clone(), circuit, r.options.to_options(r.seed))
        })
        .collect();
    let start = Instant::now();
    let results = service.run_batch(jobs).expect("service is live");
    let elapsed = start.elapsed();
    service.shutdown();
    let results: Results = results
        .into_iter()
        .map(|r| {
            let out = r.outcome.expect("benchmark jobs succeed");
            (r.label, (out.circuit.fingerprint(), to_qasm(&out.circuit)))
        })
        .collect();
    (
        batch.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        results,
    )
}

/// Push the workload through a loopback server once and return (jobs/sec,
/// per-label results). `clients` concurrent connections each carry a
/// strided share of the batch.
fn loopback_once(cfg: &Config, workers: usize, clients: usize) -> (f64, Results) {
    let server = NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &ServeConfig::new(workers))
        .expect("loopback bind");
    let addr = server.local_addr();
    let batch = requests(cfg);
    let n = batch.len();
    let start = Instant::now();
    let collected: Results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let share: Vec<SubmitRequest> = batch
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == c)
                    .map(|(_, r)| r.clone())
                    .collect();
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("loopback connect");
                    share
                        .into_iter()
                        .map(|r| {
                            let label = r.label.clone();
                            let done = client.submit(r).expect("benchmark jobs succeed").done;
                            (label, (done.fingerprint, done.qasm))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    server.shutdown();
    assert_eq!(collected.len(), n, "every job must come back exactly once");
    (n as f64 / elapsed.as_secs_f64().max(1e-9), collected)
}

/// Best of two runs: a throughput gate on shared CI runners must not fail
/// because a noisy neighbor landed on exactly one measurement window.
fn best_of_two(run: impl Fn() -> (f64, Results)) -> (f64, Results) {
    let (t1, results) = run();
    let (t2, again) = run();
    assert_eq!(results, again, "same batch, same seeds, same results");
    (t1.max(t2), results)
}

fn scaling_experiment(cfg: &Config, verdict: &mut Verdict) -> Vec<Json> {
    let batch = requests(cfg);
    let clients = 4.min(batch.len());
    println!(
        "== serve_net — pool scaling ({} jobs; loopback over {clients} connections; \
         host parallelism {}) ==\n",
        batch.len(),
        report::host_cores()
    );
    let mut pool_sizes = vec![1usize, 2, 4];
    pool_sizes.retain(|&w| w <= cfg.max_workers);
    let mut expected: Option<Results> = None;
    let (mut base_in_process, mut base_wire) = (0.0, 0.0);
    let mut cases = Vec::new();
    let mut quad = None;
    for &workers in &pool_sizes {
        let (in_process, results) = best_of_two(|| in_process_once(cfg, &batch, workers));
        let (wire, wire_results) = best_of_two(|| loopback_once(cfg, workers, clients));
        let expected = expected.get_or_insert_with(|| results.clone());
        let same = results == *expected && wire_results == *expected;
        verdict.require(
            same,
            format!("{workers}-worker results diverged from the 1-worker in-process run"),
        );
        if workers == 1 {
            (base_in_process, base_wire) = (in_process, wire);
        }
        let (in_process_speedup, speedup) = (in_process / base_in_process, wire / base_wire);
        if workers == 4 {
            quad = Some((in_process_speedup, speedup));
        }
        cases.push(Json::Obj(vec![
            ("workers", workers.into()),
            ("jobs_per_sec", num(wire, 2)),
            ("speedup", num(speedup, 2)),
            ("in_process_jobs_per_sec", num(in_process, 2)),
            ("bit_identical", same.into()),
        ]));
    }
    report::print_cases(&cases);
    if let Some((in_process_speedup, speedup)) = quad {
        let (in_process_required, wire_required) = if cfg.quick { (2.0, 1.5) } else { (2.5, 2.0) };
        println!();
        verdict.scaling(
            "4-worker in-process speedup",
            in_process_speedup,
            in_process_required,
        );
        verdict.scaling("4-worker loopback speedup", speedup, wire_required);
    }
    cases
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    let max_workers = match args.value("--workers") {
        None => 4,
        Some(w) => w
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| CLI.usage_error("--workers needs an integer >= 1")),
    };
    let cfg = Config {
        quick: args.quick,
        max_workers,
    };
    // Build the shared coverage set once, outside every timed region.
    let _ = fresh_target(&cfg).gate_cost(&mirage_weyl::coords::WeylCoord::CNOT);

    let mut verdict = Verdict::default();
    let cases = scaling_experiment(&cfg, &mut verdict);

    let jobs = requests(&cfg).len();
    let config = Json::Obj(vec![
        ("n_qubits", topology(&cfg).n_qubits().into()),
        ("router", "mirage".into()),
        ("seed", SEED.into()),
        ("jobs", jobs.into()),
        ("clients", 4.min(jobs).into()),
    ]);
    let doc = report::document(CLI.bin, &args, config, cases, vec![]);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
