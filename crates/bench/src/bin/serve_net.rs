//! `serve_net` — pool scaling of the batch service, in-process and over
//! the framed-TCP network front, plus its fault behaviour; emits the
//! machine-readable `BENCH_serve.json`.
//!
//! Three experiments over a seed-deterministic workload:
//!
//! 1. **Pool scaling** — the fixed batch (serial in-job trials, so any
//!    speedup is pool-level parallelism) runs with 1, 2, then 4 pool
//!    workers, twice per pool size: in-process through
//!    `TranspileService::run_batch`, and through a real `NetServer` on
//!    127.0.0.1 by concurrent client connections. Every run's results
//!    (fingerprint AND the returned QASM text) must be bit-identical to
//!    the 1-worker in-process run — neither the pool size nor the wire may
//!    perturb a result; the run **exits nonzero** on any divergence. On
//!    hosts with at least 4 hardware threads the 4-worker pool must also
//!    beat the single worker in-process by 2.0× in `--quick` (the CI smoke
//!    gate, tolerant of shared runners) and 2.5× in the full run, and
//!    over loopback by 1.5× / 2.0×; hosts with fewer threads report the
//!    numbers but skip the speedup gates. Each measurement keeps the
//!    better of two runs, so one noisy-neighbor window cannot fail a gate.
//! 2. **Fault smoke** — the protocol-hardening claims, re-checked from
//!    outside the test suite: garbage bytes get a typed `ProtocolError`,
//!    an oversized frame is refused from its header alone, a client that
//!    overfills its per-client admission budget gets `Busy` while another
//!    client is still admitted, an expired deadline comes back
//!    as a typed failure, and an injected worker panic fails exactly its
//!    own job while the connection keeps serving. Any silent hang or
//!    panic fails the run.
//! 3. **Chaos smoke** (`--chaos`) — a slice of the workload is pushed
//!    through a `ChaosTransport` under several fault-plan seeds, with
//!    the retrying client reconnecting through drops, truncations, and
//!    corruptions. Every job must reach a terminal state and come back
//!    bit-identical to the fault-free reference; verdicts land in the
//!    JSON next to the fault smoke.
//!
//! Usage: `serve_net [--quick] [--out PATH] [--workers N] [--chaos]`

use mirage_bench::report::{self, num, Cli, Json, Verdict};
use mirage_circuit::generators::{portfolio_qaoa, qft, two_local_full};
use mirage_circuit::qasm::to_qasm;
use mirage_core::{RouterKind, Target};
use mirage_serve::net::frame;
use mirage_serve::net::proto::{Request, Response};
use mirage_serve::net::{
    ChaosConfig, ChaosConnector, ChaosPlan, ClientError, FailureKind, NetClient, NetServer,
    RetryPolicy, ServeConfig, SubmitRequest, TcpConnector, WireOptions, DEFAULT_MAX_PAYLOAD,
};
use mirage_serve::{InjectedFault, Lane, TranspileJob, TranspileService};
use mirage_topology::CouplingMap;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0x5EA1;

const CLI: Cli = Cli {
    bin: "serve_net",
    default_out: "BENCH_serve.json",
    switches: &["--chaos"],
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
    wire.parallel = false; // pool-level scaling only: serial in-job trials
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

/// A request slow enough (full-device QFT, elevated trial budget) to keep
/// a single worker busy while faults are staged behind it.
fn slow_request(cfg: &Config) -> SubmitRequest {
    let n = topology(cfg).n_qubits();
    let mut wire = wire_options(cfg);
    wire.layout_trials = 6;
    wire.routing_trials = 8;
    SubmitRequest {
        label: format!("slow-qft-{n}"),
        qasm: to_qasm(&qft(n, false)),
        seed: SEED ^ 0x51_0e,
        lane: Lane::Batch,
        deadline_ms: None,
        options: wire,
        fault: None,
    }
}

/// Raw-socket submit: send and return the stream for manual response
/// reads (staging faults needs sub-conversation control the blocking
/// client deliberately doesn't expose).
fn raw_submit(addr: SocketAddr, submit: SubmitRequest) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    frame::write_frame(&mut stream, &Request::Submit(submit).encode()).expect("send");
    stream
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = frame::read_frame(stream, DEFAULT_MAX_PAYLOAD).expect("read frame");
    Response::decode(&payload).expect("decode response")
}

/// Occupy the single worker: submit the slow job and consume its Queued
/// and Running edges so the caller knows the pool is busy.
fn occupy_worker(addr: SocketAddr, cfg: &Config) -> TcpStream {
    let mut stream = raw_submit(addr, slow_request(cfg));
    match read_response(&mut stream) {
        Response::Queued { .. } => {}
        other => panic!("expected Queued, got {other:?}"),
    }
    match read_response(&mut stream) {
        Response::Running { .. } => {}
        other => panic!("expected Running, got {other:?}"),
    }
    stream
}

/// Each fault probe's name and whether it came back as expected.
fn fault_smoke(cfg: &Config) -> Vec<(&'static str, bool)> {
    use std::io::Write;
    println!("\n== serve_net — fault smoke (1 worker, 1 job/lane) ==\n");
    let mut verdicts = Vec::new();
    let mut record = |key, what: &str, ok: bool| {
        println!("{what:<40} : {}", if ok { "ok" } else { "FAIL" });
        verdicts.push((key, ok));
    };

    // Garbage bytes: a typed ProtocolError, not a hang or a crash.
    let garbage = {
        let server =
            NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let verdict = matches!(read_response(&mut stream), Response::ProtocolError { .. });
        server.shutdown();
        verdict
    };
    record("garbage", "garbage bytes -> typed ProtocolError", garbage);

    // Oversized frame: refused from the 14-byte header alone.
    let oversized = {
        let config = ServeConfig::new(1).with_max_payload(1024);
        let server = NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let frame = frame::encode_frame(&vec![0u8; 4096]);
        stream.write_all(&frame).unwrap();
        let verdict = matches!(read_response(&mut stream), Response::ProtocolError { .. });
        server.shutdown();
        verdict
    };
    record(
        "oversized",
        "oversized frame -> refused from header",
        oversized,
    );

    // Full per-client budget: a typed Busy answer for the flooder,
    // immediately and without blocking — while a different client's
    // budget is untouched and its submit is still admitted.
    let busy = {
        let config = ServeConfig::new(1).with_queue_capacity(1);
        let server = NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &config).unwrap();
        let addr = server.local_addr();
        let _slow = occupy_worker(addr, cfg);
        let mut filler = raw_submit(addr, slow_request(cfg));
        let filler_queued = matches!(read_response(&mut filler), Response::Queued { .. });
        // Admission is bounded per client: the same connection's next
        // submit overflows its budget (pipelined on the same socket).
        let mut probe = slow_request(cfg);
        probe.label = "busy-probe".to_owned();
        frame::write_frame(&mut filler, &Request::Submit(probe).encode()).expect("send");
        let bounced = loop {
            match read_response(&mut filler) {
                Response::Busy {
                    lane: Lane::Batch,
                    capacity: 1,
                } => break true,
                Response::Running { .. } => continue,
                other => {
                    println!("  expected Busy on the flooding connection, got {other:?}");
                    break false;
                }
            }
        };
        let mut other = raw_submit(addr, slow_request(cfg));
        let other_admitted = matches!(read_response(&mut other), Response::Queued { .. });
        let verdict = filler_queued && bounced && other_admitted;
        server.shutdown();
        verdict
    };
    record("busy", "full client budget -> typed Busy, fair", busy);

    // Expired deadline: enforced at dequeue, reported as a typed failure.
    let deadline = {
        let server =
            NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
        let addr = server.local_addr();
        let _slow = occupy_worker(addr, cfg);
        let mut client = NetClient::connect(addr).unwrap();
        let mut submit = slow_request(cfg);
        submit.label = "doomed".to_owned();
        submit.deadline_ms = Some(1);
        let verdict = matches!(
            client.submit(submit),
            Err(ClientError::Failed {
                kind: FailureKind::DeadlineExceeded,
                ..
            })
        );
        server.shutdown();
        verdict
    };
    record("deadline", "expired deadline -> typed failure", deadline);

    // Injected worker panic: exactly its own job fails, typed; the same
    // connection (and the respawned pool) keeps serving.
    let panic = {
        let config = ServeConfig::new(1).with_chaos();
        let server = NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &config).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let mut boom = requests(cfg).remove(0);
        boom.label = "boom".to_owned();
        boom.fault = Some(InjectedFault::Panic);
        let failed_typed = matches!(
            client.submit(boom),
            Err(ClientError::Failed {
                kind: FailureKind::WorkerPanicked,
                ..
            })
        );
        let mut survivor = requests(cfg).remove(1);
        survivor.label = "after-boom".to_owned();
        let survived = client.submit(survivor).is_ok();
        server.shutdown();
        failed_typed && survived
    };
    record("panic", "worker panic -> typed, job-isolated", panic);

    verdicts
}

/// Push a slice of the workload through a fault-injecting transport under
/// several plan seeds. The gate: every job reaches a terminal state (no
/// hangs, no unanswered submissions) and every result is bit-identical to
/// the fault-free reference.
fn chaos_experiment(cfg: &Config, verdict: &mut Verdict) -> Vec<Json> {
    println!("\n== serve_net — chaos transport smoke (2 workers, retrying client) ==\n");
    let server = NetServer::bind(fresh_target(cfg), "127.0.0.1:0", &ServeConfig::new(2))
        .expect("loopback bind");
    let addr = server.local_addr();
    let batch: Vec<SubmitRequest> = requests(cfg).into_iter().take(6).collect();

    // Fault-free reference over the same slice, in-process.
    let (_, expected) = in_process_once(cfg, &batch, 1);

    let mut cases = Vec::new();
    for seed in [0xC4A0_5EEDu64, 7, 1234] {
        let plan = ChaosPlan::new(ChaosConfig::new(seed));
        let connector =
            ChaosConnector::new(TcpConnector::new(addr).expect("resolve"), plan.clone());
        let policy = RetryPolicy::new(12).with_seed(seed);
        let mut client =
            NetClient::with_connector(Box::new(connector), policy).expect("chaos connect");
        let mut terminal = true;
        let mut identical = true;
        for request in &batch {
            let label = request.label.clone();
            match client.submit(request.clone()) {
                Ok(outcome) => {
                    let (fingerprint, qasm) = &expected[&label];
                    identical &=
                        outcome.done.fingerprint == *fingerprint && outcome.done.qasm == *qasm;
                }
                Err(e) => {
                    // A typed error is still terminal, but the retrying
                    // client is expected to push through a bounded plan.
                    terminal = false;
                    println!("  job {label} did not complete under seed {seed}: {e}");
                }
            }
        }
        let stats = plan.stats();
        verdict.require(
            terminal && identical,
            format!("chaos seed {seed}: terminal {terminal}, bit-identical {identical}"),
        );
        cases.push(Json::Obj(vec![
            ("seed", seed.into()),
            ("frames", stats.frames.into()),
            ("faults", stats.faults().into()),
            ("retries", client.retries().into()),
            ("terminal", terminal.into()),
            ("bit_identical", identical.into()),
        ]));
    }
    server.shutdown();
    report::print_cases(&cases);
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
    let faults = fault_smoke(&cfg);
    for &(name, ok) in &faults {
        verdict.require(ok, format!("fault smoke '{name}'"));
    }
    let chaos = if args.switch("--chaos") {
        Json::Arr(chaos_experiment(&cfg, &mut verdict))
    } else {
        "skipped".into()
    };

    let jobs = requests(&cfg).len();
    let config = Json::Obj(vec![
        ("n_qubits", topology(&cfg).n_qubits().into()),
        ("router", "mirage".into()),
        ("seed", SEED.into()),
        ("jobs", jobs.into()),
        ("clients", 4.min(jobs).into()),
    ]);
    let faults = faults
        .into_iter()
        .map(|(name, ok)| (name, (if ok { "ok" } else { "FAIL" }).into()))
        .collect();
    let extra = vec![("faults", Json::Obj(faults)), ("chaos", chaos)];
    let doc = report::document(CLI.bin, &args, config, cases, extra);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
