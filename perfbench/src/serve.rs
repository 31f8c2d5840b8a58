//! The open-loop serving workload, `serve-noisy`.
//!
//! An in-process `NetServer` on 127.0.0.1 serves a calibrated √iSWAP
//! `grid(4, 4)`. The generator sends jobs on a seeded Poisson schedule
//! (conditioned on its job count) whatever the server's state — an open
//! loop — as pipelined raw frames (`frame::write_frame` over
//! `Request::encode`) on one connection, and matches answers by the label
//! echo. On a host with two or more CPUs the server runs on one CPU and
//! the generator on the others.
//! Every job's latency runs from its *scheduled* send time, so a stall is
//! charged to every job it delays. Every [`SWAP_EVERY`] submissions the
//! generator hot-swaps the next seeded drifted calibration into the served
//! target.

use crate::compile::{on_coupling, CacheCounts};
use crate::replica;
use crate::report::{self, Outcome, RunContext};
use crate::speed::{self, CpuSplit, SpeedLog};
use mirage_circuit::generators::{
    paper_suite, portfolio_qaoa, qft, quantum_volume, two_local_full,
};
use mirage_circuit::qasm::{from_qasm, to_qasm};
use mirage_core::calibration::Calibration;
use mirage_core::trials::Metric;
use mirage_core::{transpile, verify_routed, RouterKind, Target};
use mirage_math::Rng;
use mirage_serve::net::frame::{self, FrameError};
use mirage_serve::net::{
    JobDone, NetServer, Request, Response, ServeConfig, SubmitRequest, WireOptions,
    DEFAULT_MAX_PAYLOAD,
};
use mirage_serve::Lane;
use mirage_topology::CouplingMap;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load in jobs per second: 40 % of the 63 jobs/s the saturated
/// one-worker server completed on a 2-core x86-64 host (see `README.md`),
/// so queueing stays a modest share of latency and a slower host still
/// keeps up.
const RATE_PER_S: f64 = 25.0;
/// Worker pool size, and the generator's connection count. The server
/// runs on one CPU of its own (see [`speed::cpu_split`]), so one worker
/// keeps it to a thread per core.
const WORKERS: usize = 1;
/// Submissions between calibration hot swaps.
const SWAP_EVERY: usize = 100;
/// Submissions after a swap over which its re-pricing misses are counted.
const AFTER_SWAP: usize = 10;
/// Drift magnitude of each refreshed calibration.
const DRIFT: f64 = 0.2;
/// Non-straddling jobs re-computed in-process and statevector-verified.
const CHECK_SAMPLE: usize = 120;
/// Setups per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 3;
/// How long the generator waits for answers after its last send.
const DRAIN_LIMIT: f64 = 60.0;
/// Pause between two reference-kernel runs during the window.
const KERNEL_EVERY: Duration = Duration::from_millis(10);

/// One job of the schedule.
struct Job {
    /// Scheduled send time, seconds after the window opens.
    at: f64,
    circuit: usize,
    seed: u64,
    metric: Metric,
    lane: Lane,
}

/// A pool circuit as the wire carries it.
struct PoolCircuit {
    qasm: String,
    two_q: usize,
}

/// What the generator saw of one job, in seconds after the window opened.
#[derive(Default)]
struct Receipt {
    sent: f64,
    queued: Option<f64>,
    running: Option<f64>,
    pending: u32,
    done: Option<f64>,
    answer: Option<Result<JobDone, String>>,
    /// The raw `Done` payload (traced runs time its decoding).
    payload: Option<Vec<u8>>,
}

/// One calibration hot swap.
struct Swap {
    start: f64,
    end: f64,
    misses_before: u64,
    /// Cache misses from the swap until [`AFTER_SWAP`] more submissions
    /// have been sent.
    misses_after: Option<u64>,
}

/// The job mix: every serving family at every width from 8 to 14 qubits,
/// plus the paper-suite members that fit. The composition is the same for
/// every seed; the seed draws the circuits' parameters.
fn circuit_pool(rng: &mut Rng) -> Vec<PoolCircuit> {
    let mut pool = Vec::new();
    for n in 8..=14 {
        pool.push(qft(n, false));
        pool.push(two_local_full(n, 1, rng.next_u64()));
        pool.push(portfolio_qaoa(n, 1, rng.next_u64()));
        pool.push(quantum_volume(n, 4, rng.next_u64()));
    }
    pool.extend(
        paper_suite()
            .into_iter()
            .map(|(_, c)| c)
            .filter(|c| (8..=14).contains(&c.n_qubits)),
    );
    pool.iter()
        .map(|circuit| PoolCircuit {
            qasm: to_qasm(circuit),
            two_q: circuit.two_qubit_gate_count(),
        })
        .collect()
}

/// `RATE_PER_S × seconds` arrivals, uniformly spread over the window (a
/// Poisson process conditioned on its count, so every seed offers the same
/// number of jobs). Jobs walk the pool in seeded shuffled rounds, so every
/// circuit is sent equally often; about half post-select on estimated
/// success and about a fifth ride the interactive lane.
fn schedule(rng: &mut Rng, seconds: f64, pool: usize) -> Vec<Job> {
    let n = (RATE_PER_S * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.uniform() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut round: Vec<usize> = Vec::new();
    times
        .into_iter()
        .map(|at| {
            if round.is_empty() {
                round = (0..pool).collect();
                rng.shuffle(&mut round);
            }
            Job {
                at,
                circuit: round.pop().expect("refilled above"),
                seed: rng.next_u64(),
                metric: if rng.chance(0.5) {
                    Metric::EstimatedSuccess
                } else {
                    Metric::Depth
                },
                lane: if rng.chance(0.2) {
                    Lane::Interactive
                } else {
                    Lane::Batch
                },
            }
        })
        .collect()
}

fn wire_options(job: &Job) -> WireOptions {
    let mut wire = WireOptions::quick(RouterKind::Mirage);
    wire.metric = Some(job.metric);
    wire
}

fn submit_request(index: usize, job: &Job, pool: &[PoolCircuit]) -> SubmitRequest {
    SubmitRequest {
        label: format!("j{index}"),
        qasm: pool[job.circuit].qasm.clone(),
        seed: job.seed,
        lane: job.lane,
        deadline_ms: None,
        options: wire_options(job),
        fault: None,
    }
}

/// Everything one serving run needs, built from the seed.
struct Setup {
    topo: CouplingMap,
    pool: Vec<PoolCircuit>,
    jobs: Vec<Job>,
    calibrations: Vec<Arc<Calibration>>,
    server: NetServer,
    /// The server's CPU and the generator's, when the host has two or more.
    cpus: Option<CpuSplit>,
}

/// Build inputs and calibrations, start the server, and warm it with one
/// closed pass over the circuit pool.
fn setup(seed: u64, seconds: f64, workers: usize) -> Setup {
    let mut rng = Rng::new(seed);
    let topo = CouplingMap::grid(4, 4);
    let pool = circuit_pool(&mut rng);
    let jobs = schedule(&mut rng, seconds, pool.len());
    // Each refresh drifts from the boot calibration (the device fluctuates
    // around its nominal state rather than random-walking away from it).
    let boot = Calibration::synthetic(&topo, &mut rng);
    let mut calibrations: Vec<Arc<Calibration>> = (0..jobs.len() / SWAP_EVERY)
        .map(|_| Arc::new(boot.drifted(&mut rng, DRIFT)))
        .collect();
    calibrations.insert(0, Arc::new(boot));
    let target = Target::sqrt_iswap(topo.clone())
        .with_calibration((*calibrations[0]).clone())
        .expect("synthetic calibration covers the device");
    // Every server thread inherits the mask of the thread that binds it:
    // the server gets one CPU to itself and the generator the others.
    let cpus = speed::cpu_split();
    if let Some(split) = &cpus {
        speed::pin_thread(&[split.server]);
    }
    let server = NetServer::bind(Arc::new(target), "127.0.0.1:0", &ServeConfig::new(workers))
        .expect("loopback bind");
    if let Some(split) = &cpus {
        speed::pin_thread(&split.rest);
    }
    let warm: Vec<Job> = (0..pool.len())
        .map(|circuit| Job {
            at: 0.0,
            circuit,
            seed: rng.next_u64(),
            metric: Metric::Depth,
            lane: Lane::Batch,
        })
        .collect();
    let receipts = drive(
        server.local_addr(),
        &warm,
        &pool,
        workers,
        None,
        false,
        Instant::now(),
    )
    .expect("warm-up traffic");
    assert!(
        receipts.iter().all(|r| matches!(r.answer, Some(Ok(_)))),
        "every warm-up job succeeds"
    );
    Setup {
        topo,
        pool,
        jobs,
        calibrations,
        server,
        cpus,
    }
}

/// Hot-swaps the next drifted calibration into the served target.
struct Swapper<'a> {
    target: Arc<Target>,
    calibrations: &'a [Arc<Calibration>],
    log: Mutex<Vec<Swap>>,
}

impl Swapper<'_> {
    fn before_send(&self, index: usize, t0: Instant) {
        if index % SWAP_EVERY == AFTER_SWAP {
            let mut log = self.log.lock().expect("swap log poisoned");
            if let Some(last) = log.last_mut() {
                last.misses_after = Some(self.target.cache_stats().1 - last.misses_before);
            }
            return;
        }
        if index == 0 || index % SWAP_EVERY != 0 {
            return;
        }
        let mut log = self.log.lock().expect("swap log poisoned");
        let next = log.len() + 1;
        let Some(calibration) = self.calibrations.get(next) else {
            return;
        };
        let misses_before = self.target.cache_stats().1;
        let start = t0.elapsed().as_secs_f64();
        let generation = self
            .target
            .swap_calibration(Arc::clone(calibration))
            .expect("drifted calibration covers the device");
        let end = t0.elapsed().as_secs_f64();
        assert_eq!(
            generation, next as u64,
            "only the generator swaps calibrations"
        );
        log.push(Swap {
            start,
            end,
            misses_before,
            misses_after: None,
        });
    }
}

/// Send `jobs` on their schedule, counted from `t0`, over `conns`
/// connections (job `i` rides connection `i % conns`) and collect every
/// answer. Returns one receipt per job, in job order.
fn drive(
    addr: SocketAddr,
    jobs: &[Job],
    pool: &[PoolCircuit],
    conns: usize,
    swapper: Option<&Swapper<'_>>,
    trace: bool,
    t0: Instant,
) -> Result<Vec<Receipt>, String> {
    let per_conn: Vec<Result<Vec<(usize, Receipt)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..jobs.len()).step_by(conns).collect();
                s.spawn(move || connection(addr, jobs, pool, &mine, t0, swapper, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut receipts: Vec<Receipt> = jobs.iter().map(|_| Receipt::default()).collect();
    for result in per_conn {
        for (index, receipt) in result? {
            receipts[index] = receipt;
        }
    }
    Ok(receipts)
}

fn job_index(label: &str) -> Option<usize> {
    label.strip_prefix('j')?.parse().ok()
}

/// One generator connection: send each of `mine` when it falls due, read
/// answers in between, and stop once every job has a terminal answer (or
/// [`DRAIN_LIMIT`] after the last send).
fn connection(
    addr: SocketAddr,
    jobs: &[Job],
    pool: &[PoolCircuit],
    mine: &[usize],
    t0: Instant,
    swapper: Option<&Swapper<'_>>,
    trace: bool,
) -> Result<Vec<(usize, Receipt)>, String> {
    let io = |e: std::io::Error| format!("generator socket: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut receipts: HashMap<usize, Receipt> = HashMap::new();
    let mut by_job_id: HashMap<u64, usize> = HashMap::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let last_at = mine.last().map_or(0.0, |&j| jobs[j].at);
    let mut next = 0;
    let mut open = 0usize;
    loop {
        while next < mine.len() && jobs[mine[next]].at <= t0.elapsed().as_secs_f64() {
            let index = mine[next];
            if let Some(swapper) = swapper {
                swapper.before_send(index, t0);
            }
            let payload = Request::Submit(submit_request(index, &jobs[index], pool)).encode();
            let sent = t0.elapsed().as_secs_f64();
            frame::write_frame(&mut stream, &payload).map_err(io)?;
            receipts.insert(
                index,
                Receipt {
                    sent,
                    ..Receipt::default()
                },
            );
            next += 1;
            open += 1;
        }
        let now = t0.elapsed().as_secs_f64();
        if next == mine.len() && (open == 0 || now > last_at + DRAIN_LIMIT) {
            break;
        }
        // Sleep in the socket until the next send falls due or an answer
        // arrives, whichever is first.
        let wait = if next < mine.len() {
            (jobs[mine[next]].at - now).clamp(1e-4, 5e-3)
        } else {
            5e-3
        };
        stream
            .set_read_timeout(Some(Duration::from_secs_f64(wait)))
            .map_err(io)?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed a generator connection".to_owned()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(io(e)),
        }
        let at = t0.elapsed().as_secs_f64();
        let mut consumed = 0;
        loop {
            let (payload, used) = match frame::decode_frame(&buf[consumed..], DEFAULT_MAX_PAYLOAD) {
                Ok(decoded) => decoded,
                Err(FrameError::Closed | FrameError::Truncated { .. }) => break,
                Err(e) => return Err(format!("answer frame: {e}")),
            };
            consumed += used;
            let response = Response::decode(&payload).map_err(|e| format!("answer: {e}"))?;
            match response {
                Response::Queued {
                    job_id,
                    label,
                    pending,
                    ..
                } => {
                    if let Some(j) = job_index(&label).filter(|j| receipts.contains_key(j)) {
                        by_job_id.insert(job_id, j);
                        let r = receipts.get_mut(&j).expect("checked above");
                        r.pending = pending;
                        if trace {
                            r.queued = Some(at);
                        }
                    }
                }
                Response::Running { job_id, .. } => {
                    if let Some(r) = by_job_id.get(&job_id).and_then(|j| receipts.get_mut(j)) {
                        if trace {
                            r.running = Some(at);
                        }
                    }
                }
                Response::Done(done) => {
                    open = open.saturating_sub(1);
                    if let Some(r) = job_index(&done.label).and_then(|j| receipts.get_mut(&j)) {
                        r.done = Some(at);
                        r.answer = Some(Ok(done));
                        if trace {
                            r.payload = Some(payload);
                        }
                    }
                }
                Response::Failed {
                    label,
                    kind,
                    message,
                    ..
                } => {
                    open = open.saturating_sub(1);
                    if let Some(r) = job_index(&label).and_then(|j| receipts.get_mut(&j)) {
                        r.done = Some(at);
                        r.answer = Some(Err(format!("{kind:?}: {message}")));
                    }
                }
                // Unlabelled terminal answers (Busy, Rejected, a protocol
                // error) end a submission the generator cannot name; its
                // receipt stays unanswered and counts as failed.
                other => {
                    open = open.saturating_sub(1);
                    eprintln!("  unlabelled answer: {other:?}");
                }
            }
        }
        buf.drain(..consumed);
    }
    Ok(receipts.into_iter().collect())
}

/// One timed window of the workload and what it measured.
struct Window {
    receipts: Vec<Receipt>,
    swaps: Vec<Swap>,
    cache_before: CacheCounts,
    cache_after: CacheCounts,
    /// Reference-kernel readings taken beside the generator.
    speed: SpeedLog,
}

fn run_window(setup: &Setup, conns: usize, trace: bool) -> Window {
    let target = setup.server.target();
    let swapper = Swapper {
        target: Arc::clone(&target),
        calibrations: &setup.calibrations,
        log: Mutex::new(Vec::new()),
    };
    let cache_before = CacheCounts::read([&*target]);
    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    let (receipts, speed) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut log = SpeedLog::new(t0);
            if let Some(split) = &setup.cpus {
                speed::pin_thread(&[split.server]);
            }
            while !stop.load(Ordering::Relaxed) {
                // The first run after a sleep meets cold caches; only the
                // second is recorded.
                speed::kernel_ms();
                log.sample(1);
                std::thread::sleep(KERNEL_EVERY);
            }
            log
        });
        let receipts = drive(
            setup.server.local_addr(),
            &setup.jobs,
            &setup.pool,
            conns,
            Some(&swapper),
            trace,
            t0,
        );
        stop.store(true, Ordering::Relaxed);
        let speed = sampler.join().expect("kernel sampler panicked");
        (receipts, speed)
    });
    let receipts = receipts.unwrap_or_else(|e| panic!("generator failed: {e}"));
    Window {
        speed,
        receipts,
        swaps: swapper.log.into_inner().expect("swap log poisoned"),
        cache_before,
        cache_after: CacheCounts::read([&*target]),
    }
}

/// Check every answer and return the number of failed jobs. Outside any
/// timed window.
fn check(setup: &Setup, window: &Window, rng: &mut Rng, notes: &mut Vec<String>) -> u64 {
    let mut failed = 0u64;
    let mut clean: Vec<usize> = Vec::new();
    let mut straddlers = 0usize;
    for (index, receipt) in window.receipts.iter().enumerate() {
        let (Some(done_at), Some(Ok(done))) = (receipt.done, &receipt.answer) else {
            if let Some(Err(why)) = &receipt.answer {
                eprintln!("  job {index} failed: {why}");
            }
            failed += 1;
            continue;
        };
        // The served QASM must parse, and every two-qubit gate in it must
        // sit on a coupler.
        if !from_qasm(&done.qasm).is_ok_and(|c| on_coupling(&c, &setup.topo)) {
            failed += 1;
            continue;
        }
        // A swap anywhere between the send and the answer may have landed
        // mid-job (the worker reads the generation before its Running
        // receipt arrives), so such a job has no single reference.
        if window
            .swaps
            .iter()
            .any(|s| s.end >= receipt.sent && s.start <= done_at)
        {
            straddlers += 1;
            continue;
        }
        let expected = window.swaps.iter().filter(|s| s.end < receipt.sent).count() as u64;
        if done.generation != expected {
            eprintln!(
                "  job {index} ran under generation {} but {expected} swaps preceded it",
                done.generation
            );
            failed += 1;
            continue;
        }
        clean.push(index);
    }
    rng.shuffle(&mut clean);
    clean.truncate(CHECK_SAMPLE);
    let mut references: HashMap<u64, Target> = HashMap::new();
    for &index in &clean {
        let job = &setup.jobs[index];
        let Some(Ok(done)) = &window.receipts[index].answer else {
            unreachable!("only answered jobs are sampled")
        };
        let target = references.entry(done.generation).or_insert_with(|| {
            Target::sqrt_iswap(setup.topo.clone())
                .with_calibration((*setup.calibrations[done.generation as usize]).clone())
                .expect("calibration covers the device")
        });
        let input = from_qasm(&setup.pool[job.circuit].qasm).expect("pool QASM parses");
        let options = wire_options(job).to_options(job.seed);
        let matches = transpile(&input, target, &options).is_ok_and(|reference| {
            reference.circuit.fingerprint() == done.fingerprint
                && to_qasm(&reference.circuit) == done.qasm
                && verify_routed(&input, &reference.as_routed(), target)
        });
        if !matches {
            eprintln!("  job {index} differs from its in-process reference");
            failed += 1;
        }
    }
    notes.push(format!(
        "{} jobs: every served circuit parsed and checked on the coupling map; \
         {straddlers} straddled a calibration swap; {} of the rest re-computed in-process \
         and statevector-verified",
        window.receipts.len(),
        clean.len()
    ));
    failed
}

/// Latency of every answered job, from its scheduled send, in ms at the
/// reference host speed.
fn latencies(setup: &Setup, window: &Window, lane: Option<Lane>) -> Vec<f64> {
    setup
        .jobs
        .iter()
        .zip(&window.receipts)
        .filter(|(job, _)| lane.map_or(true, |l| job.lane == l))
        .filter_map(|(job, r)| {
            r.done
                .map(|done| (done - job.at) * 1e3 * window.speed.factor_at((job.at + done) / 2.0))
        })
        .collect()
}

fn answers(window: &Window) -> impl Iterator<Item = (usize, &JobDone)> {
    window
        .receipts
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match &r.answer {
            Some(Ok(done)) => Some((i, done)),
            _ => None,
        })
}

fn report_end_to_end(setup: &Setup, window: &Window, setup_times: &[f64], out: &mut Outcome) {
    let latency = latencies(setup, window, None);
    let interactive = latencies(setup, window, Some(Lane::Interactive));
    // Server-side compute, scaled like the latencies.
    let compute: Vec<f64> = answers(window)
        .map(|(i, d)| {
            let ms = d.elapsed_us as f64 / 1e3;
            let done = window.receipts[i].done.unwrap_or_default();
            ms * window.speed.factor_at(done - ms / 2e3)
        })
        .collect();
    let two_q: usize = answers(window)
        .map(|(i, _)| setup.pool[setup.jobs[i].circuit].two_q)
        .sum();
    let depths: Vec<f64> = answers(window)
        .map(|(_, d)| d.metrics.depth_estimate)
        .collect();
    out.set("setup_s", report::quantile(setup_times, 0.5));
    out.set("compile_ms_p50", report::quantile(&compute, 0.5));
    out.set("compile_ms_p90", report::quantile(&compute, 0.9));
    out.set(
        "compile_2q_per_s",
        report::ratio(two_q as f64, compute.iter().sum::<f64>() / 1e3),
    );
    out.set("job_ms_p50", report::quantile(&latency, 0.5));
    out.set("job_ms_p99", report::quantile(&latency, 0.99));
    out.set("interactive_ms_p90", report::quantile(&interactive, 0.9));
    out.set("peak_rss_mb", report::peak_rss_mb());
    out.set("out_depth_geomean", report::geomean(&depths));
    out.set(
        "out_swaps_total",
        answers(window)
            .map(|(_, d)| f64::from(d.metrics.swaps))
            .sum(),
    );
    out.samples("setup_s", setup_times.len());
    out.samples("compile_ms_p90", compute.len());
    out.samples("job_ms_p99", latency.len());
    out.samples("interactive_ms_p90", interactive.len());
}

fn report_layers(setup: &Setup, untraced: &Window, traced: &Window, out: &mut Outcome) {
    let mut wait = Vec::new();
    let mut compute = Vec::new();
    let mut overhead = Vec::new();
    let mut pending = Vec::new();
    let (mut latency_sum, mut unattributed_sum) = (0.0, 0.0);
    for (index, done) in answers(traced) {
        let r = &traced.receipts[index];
        let (Some(queued), Some(running), Some(done_at)) = (r.queued, r.running, r.done) else {
            continue;
        };
        let latency = (done_at - setup.jobs[index].at) * 1e3;
        let waited = (running - queued) * 1e3;
        let computed = done.elapsed_us as f64 / 1e3;
        wait.push(waited);
        compute.push(computed);
        overhead.push(latency - waited - computed);
        pending.push(f64::from(r.pending));
        latency_sum += latency;
        unattributed_sum += latency - waited - computed;
    }
    let late: Vec<f64> = setup
        .jobs
        .iter()
        .zip(&traced.receipts)
        .map(|(job, r)| (r.sent - job.at) * 1e3)
        .collect();
    out.set("queue.wait_ms_p50", report::quantile(&wait, 0.5));
    out.set("queue.wait_ms_p99", report::quantile(&wait, 0.99));
    out.set("queue.pending_p99", report::quantile(&pending, 0.99));
    out.set("worker.compute_ms_p50", report::quantile(&compute, 0.5));
    out.set("worker.compute_ms_p99", report::quantile(&compute, 0.99));
    out.set("net.overhead_ms_p50", report::quantile(&overhead, 0.5));
    out.set("gen.late_ms_p99", report::quantile(&late, 0.99));
    out.set(
        "trace.unattributed_frac",
        report::ratio(unattributed_sum, latency_sum),
    );
    let p50 = |w: &Window| report::quantile(&latencies(setup, w, None), 0.5);
    out.set(
        "trace.overhead_frac",
        report::ratio(p50(traced) - p50(untraced), p50(untraced)),
    );
    for name in [
        "queue.wait_ms_p99",
        "queue.pending_p99",
        "worker.compute_ms_p99",
    ] {
        out.samples(name, compute.len());
    }
    out.samples("gen.late_ms_p99", late.len());

    // Cache traffic on the served target over the window, per job.
    traced
        .cache_after
        .report_since(traced.cache_before, compute.len(), out);
    let swaps = &traced.swaps;
    let swap_us: f64 = swaps.iter().map(|s| (s.end - s.start) * 1e6).sum();
    out.set(
        "calibration.swap_us",
        report::ratio(swap_us, swaps.len() as f64),
    );
    out.set("calibration.swaps", swaps.len() as f64);
    let after: Vec<f64> = swaps
        .iter()
        .filter_map(|s| s.misses_after.map(|m| m as f64))
        .collect();
    out.set(
        "cache.misses_after_swap",
        report::ratio(after.iter().sum(), after.len() as f64),
    );
    report_codecs(setup, traced, out);
    out.set("atlas.load_ms", replica::atlas_load_ms());
}

/// The codec layers, timed on the traced run's own payloads.
fn report_codecs(setup: &Setup, traced: &Window, out: &mut Outcome) {
    let (mut parse, mut emit, mut encode, mut decode) = (0.0, 0.0, 0.0, 0.0);
    let mut timed = 0usize;
    for (index, done) in answers(traced) {
        let Some(payload) = &traced.receipts[index].payload else {
            continue;
        };
        let job = &setup.jobs[index];
        let qasm = &setup.pool[job.circuit].qasm;
        let t = Instant::now();
        let circuit = from_qasm(qasm).expect("pool QASM parses");
        parse += t.elapsed().as_secs_f64();
        let routed = from_qasm(&done.qasm).expect("served QASM parses");
        let t = Instant::now();
        std::hint::black_box(to_qasm(&routed));
        emit += t.elapsed().as_secs_f64();
        let request = Request::Submit(submit_request(index, job, &setup.pool));
        let t = Instant::now();
        let request_bytes = request.encode();
        let response_bytes = Response::Done(done.clone()).encode();
        encode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = (Request::decode(&request_bytes), Response::decode(payload));
        decode += t.elapsed().as_secs_f64();
        assert!(
            decoded.0.is_ok() && decoded.1.is_ok() && response_bytes == *payload,
            "codec round trip"
        );
        std::hint::black_box(circuit);
        timed += 1;
    }
    let us = |s: f64| report::ratio(s * 1e6, timed as f64);
    out.set("qasm.parse_us", us(parse));
    out.set("qasm.emit_us", us(emit));
    out.set("proto.encode_us", us(encode));
    out.set("proto.decode_us", us(decode));
}

/// Run the serving workload.
pub fn run(ctx: &RunContext) -> Outcome {
    let workers = WORKERS;
    let mut setup_times = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = current.take() {
            previous.server.shutdown();
        }
        let (secs, built) = speed::timed_scaled(|| setup(ctx.seed, ctx.seconds, workers));
        setup_times.push(secs);
        current = Some(built);
    }
    let first = current.expect("at least one setup");
    let mut check_rng = Rng::new(ctx.seed ^ 0xC4EC_5EED);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "open loop at {RATE_PER_S} jobs/s over one connection into {workers} worker(s)"
    ));

    let untraced = run_window(&first, workers, false);
    out.notes.push(match &first.cpus {
        Some(split) => format!(
            "server on CPU {}, generator on CPUs {:?}; timings scaled to the reference \
             host speed, median factor {:.3}",
            split.server,
            split.rest,
            untraced.speed.overall_factor()
        ),
        None => format!(
            "single CPU, no split; timings scaled to the reference host speed, median factor {:.3}",
            untraced.speed.overall_factor()
        ),
    });
    out.attempted += untraced.receipts.len() as u64;
    out.failed += check(&first, &untraced, &mut check_rng, &mut out.notes);
    if !ctx.trace {
        report_end_to_end(&first, &untraced, &setup_times, &mut out);
    }
    first.server.shutdown();
    if ctx.trace {
        // The traced window replays the same schedule on a fresh server.
        let second = setup(ctx.seed, ctx.seconds, workers);
        let traced = run_window(&second, workers, true);
        out.attempted += traced.receipts.len() as u64;
        out.failed += check(&second, &traced, &mut check_rng, &mut out.notes);
        report_layers(&second, &untraced, &traced, &mut out);
        second.server.shutdown();
    }
    out.correct = out.failed == 0;
    out
}
