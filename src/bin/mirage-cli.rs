//! `mirage-cli` — command-line front end for the MIRAGE transpiler.
//!
//! ```text
//! mirage-cli transpile <input.qasm> --topo grid:6x6 [--basis sqrt-iswap|cnot|cz]
//!                      [--router mirage|sabre|mirage-swaps]
//!                      [--calibration cal.txt] [--metric depth|swaps|success]
//!                      [--layout random|noise-aware|degree-noise|vf2]
//!                      [--seed N] [--trials N] [--out out.qasm] [--translate] [--draw]
//! mirage-cli batch <input>... --topo grid:6x6 [--workers N] [--router ...]
//!                  [--calibration cal.txt] [--metric ...] [--layout ...]
//!                  [--seed N] [--trials N]  # inputs: qasm files or gen specs
//! mirage-cli serve --topo grid:6x6 [--listen 127.0.0.1:7878] [--workers N]
//!                  [--capacity N] [--calibration cal.txt]
//!                  [--watch-cal cal.txt] [--watch-ms 1000] [--conns N] [--chaos]
//! mirage-cli client <input>... --connect 127.0.0.1:7878 [--seed N] [--trials N]
//!                   [--router ...] [--metric ...] [--lane interactive|batch]
//!                   [--deadline-ms N] [--retries N] [--retry-ms MS] [--out out.qasm]
//! mirage-cli stats <input.qasm>
//! mirage-cli draw <input.qasm>
//! mirage-cli gen <name> [--out file.qasm]     # qft:18, ghz:8, twolocal:4, ...
//! mirage-cli gen-cal --topo heavy-hex:5 [--seed N] [--out cal.txt]
//! ```

use mirage::circuit::{generators, qasm, render, Circuit};
use mirage::core::placement::StrategyKind;
use mirage::core::{transpile, Calibration, Metric, RouterKind, Target, TranspileOptions};
use mirage::math::Rng;
use mirage::serve::net::{
    CalibrationRefresher, NetClient, NetServer, RetryPolicy, ServeConfig, SubmitRequest,
    WireOptions,
};
use mirage::serve::{Lane, TranspileJob, TranspileService};
use mirage::synth::decompose::DecompOptions;
use mirage::synth::translate::translate_circuit;
use mirage::topology::CouplingMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mirage-cli transpile <input.qasm> --topo <spec> [--basis sqrt-iswap|cnot|cz]
                       [--router mirage|sabre|mirage-swaps]
                       [--calibration cal.txt] [--metric depth|swaps|success]
                       [--layout random|noise-aware|degree-noise|vf2]
                       [--seed N] [--trials N] [--out out.qasm] [--translate] [--draw]
  mirage-cli batch <input>... --topo <spec> [--basis ...] [--workers N]
                   [--router ...] [--calibration cal.txt] [--metric ...]
                   [--layout ...] [--seed N] [--trials N]
                   # inputs are qasm files or generator specs (qft:6, ghz:8, ...);
                   # jobs run on a worker pool, results are seed-deterministic
  mirage-cli serve --topo <spec> [--listen ADDR:PORT] [--basis ...] [--workers N]
                   [--capacity N] [--calibration cal.txt]
                   [--watch-cal cal.txt] [--watch-ms MS] [--conns N] [--chaos]
                   # framed-TCP daemon; --capacity bounds each queue lane
                   # (overload answers Busy); --watch-cal hot-swaps the
                   # calibration when the file changes; --conns exits after
                   # N connections (for scripted runs); --chaos accepts
                   # fault-injection test submissions (keep off in production)
  mirage-cli client <input>... --connect ADDR:PORT [--seed N] [--trials N]
                    [--router ...] [--metric ...] [--lane interactive|batch]
                    [--deadline-ms N] [--retries N] [--retry-ms MS] [--out out.qasm]
                    # submits each input to a mirage-cli serve daemon;
                    # results are bit-identical to a local run_batch with
                    # the same seeds; --retries resubmits through Busy
                    # answers and dropped connections with jittered
                    # exponential backoff starting at --retry-ms
  mirage-cli stats <input.qasm>
  mirage-cli draw <input.qasm>
  mirage-cli gen <name> [--out file.qasm]
  mirage-cli gen-cal --topo <spec> [--seed N] [--out cal.txt]

topology specs : line:N  ring:N  grid:RxC  heavy-hex:D  a2a:N
basis gates    : sqrt-iswap (default)  cnot  cz
generator names: qft:N ghz:N wstate:N bv:N twolocal:N qaoa:N adder:BITS
metrics        : depth (default for mirage)  swaps  success (needs --calibration
                 or a zero-error device; selects on predicted success probability)
layouts        : how layout trials are seeded — random (default), noise-aware
                 (low-error regions of the calibration), degree-noise (degree
                 matching inside a low-error region), or vf2 (exact embeddings)";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "transpile" => cmd_transpile(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "draw" => cmd_draw(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "gen-cal" => cmd_gen_cal(&args[1..]),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `--flag value` pairs collected by [`split_flags`].
type Flags = Vec<(String, String)>;

/// Parse `--flag value` style options; returns (positional, flags).
fn split_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // Boolean flags have no value.
            if matches!(name, "translate" | "draw" | "chaos") {
                flags.push((name.to_string(), "true".to_string()));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
                i += 2;
            }
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    Ok((pos, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Parse a topology spec like `grid:6x6` or `heavy-hex:5`.
fn parse_topology(spec: &str) -> Result<CouplingMap, String> {
    let (kind, param) = spec
        .split_once(':')
        .ok_or_else(|| format!("topology spec '{spec}' needs kind:param"))?;
    let bad = |_| format!("bad parameter in '{spec}'");
    match kind {
        "line" => Ok(CouplingMap::line(param.parse().map_err(bad)?)),
        "ring" => Ok(CouplingMap::ring(param.parse().map_err(bad)?)),
        "a2a" => Ok(CouplingMap::all_to_all(param.parse().map_err(bad)?)),
        "heavy-hex" => match param.parse().map_err(bad)? {
            d if d >= 3 && d % 2 == 1 => Ok(CouplingMap::heavy_hex(d)),
            d => Err(format!("heavy-hex needs an odd distance >= 3, got {d}")),
        },
        "grid" => {
            let (r, c) = param
                .split_once('x')
                .ok_or_else(|| format!("grid spec '{param}' needs RxC"))?;
            Ok(CouplingMap::grid(
                r.parse().map_err(bad)?,
                c.parse().map_err(bad)?,
            ))
        }
        other => Err(format!("unknown topology kind '{other}'")),
    }
}

/// Build a [`Target`] from a topology spec and basis-gate name.
fn parse_target(topo_spec: &str, basis: &str) -> Result<Target, String> {
    let topo = parse_topology(topo_spec)?;
    match basis {
        "sqrt-iswap" | "sqrt_iswap" => Ok(Target::sqrt_iswap(topo)),
        "cnot" => Ok(Target::cnot(topo)),
        "cz" => Ok(Target::cz(topo)),
        other => Err(format!("unknown basis gate '{other}'")),
    }
}

/// Parse a generator spec like `qft:18`.
fn parse_generator(spec: &str) -> Result<Circuit, String> {
    let (kind, param) = spec.split_once(':').unwrap_or((spec, ""));
    let n: usize = if param.is_empty() {
        0
    } else {
        param.parse().map_err(|_| format!("bad size in '{spec}'"))?
    };
    match kind {
        "qft" => Ok(generators::qft(n.max(2), false)),
        "ghz" => Ok(generators::ghz(n.max(2))),
        "wstate" => Ok(generators::wstate(n.max(2))),
        "bv" => Ok(generators::bv(n.max(2), (n.max(2) - 1) / 2)),
        "twolocal" => Ok(generators::two_local_full(n.max(2), 1, 7)),
        "qaoa" => Ok(generators::portfolio_qaoa(n.max(2), 1, 7)),
        "adder" => Ok(generators::cuccaro_adder(n.max(1))),
        other => Err(format!("unknown generator '{other}'")),
    }
}

fn load_circuit(path: &str) -> Result<Circuit, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    qasm::from_qasm(&src).map_err(|e| e.to_string())
}

/// Everything `transpile` and `batch` share: the target, the options, and
/// the labels worth echoing back.
struct CommonSetup {
    target: Target,
    opts: TranspileOptions,
    router: RouterKind,
    layout: String,
    seed: u64,
}

/// Parse the flags shared by `transpile` and `batch` into a ready target
/// and options.
fn parse_common(flags: &Flags) -> Result<CommonSetup, String> {
    let mut target = parse_target(
        flag(flags, "topo").ok_or("--topo is required")?,
        flag(flags, "basis").unwrap_or("sqrt-iswap"),
    )?;
    if let Some(path) = flag(flags, "calibration") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let cal = Calibration::from_text(&text).map_err(|e| e.to_string())?;
        target = target.with_calibration(cal).map_err(|e| e.to_string())?;
    }
    let router = match flag(flags, "router").unwrap_or("mirage") {
        "mirage" => RouterKind::Mirage,
        "mirage-swaps" => RouterKind::MirageSwaps,
        "sabre" => RouterKind::Sabre,
        other => return Err(format!("unknown router '{other}'")),
    };
    let metric = match flag(flags, "metric") {
        None => None,
        Some("depth") => Some(Metric::Depth),
        Some("swaps") => Some(Metric::SwapCount),
        Some("success") => Some(Metric::EstimatedSuccess),
        Some(other) => return Err(format!("unknown metric '{other}'")),
    };
    let seed: u64 = flag(flags, "seed")
        .unwrap_or("7")
        .parse()
        .map_err(|_| "bad --seed")?;
    let trials: usize = flag(flags, "trials")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "bad --trials")?;

    let layout = flag(flags, "layout").unwrap_or("random").to_string();
    let strategy_mix = layout.parse::<StrategyKind>()?.one_hot();

    let mut opts = TranspileOptions::quick(router, seed);
    opts.trials.layout_trials = trials;
    opts.trials.routing_trials = trials;
    opts.trials.strategy_mix = strategy_mix;
    if let Some(metric) = metric {
        opts = opts.with_metric(metric);
    }
    Ok(CommonSetup {
        target,
        opts,
        router,
        layout,
        seed,
    })
}

/// A batch input: an existing qasm file, or a generator spec like `qft:6`.
fn load_batch_input(spec: &str) -> Result<Circuit, String> {
    if std::path::Path::new(spec).exists() {
        load_circuit(spec)
    } else {
        parse_generator(spec)
            .map_err(|e| format!("'{spec}' is neither a readable file nor a generator spec ({e})"))
    }
}

fn cmd_transpile(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let input = pos.first().ok_or("transpile needs an input file")?;
    let circuit = load_circuit(input)?;
    let CommonSetup {
        target,
        opts,
        router,
        layout,
        ..
    } = parse_common(&flags)?;
    let out = transpile(&circuit, &target, &opts).map_err(|e| e.to_string())?;

    eprintln!(
        "input   : {} qubits, {} two-qubit gates",
        circuit.n_qubits,
        circuit.two_qubit_gate_count()
    );
    eprintln!("target  : {} ({} qubits)", target.name(), target.n_qubits());
    eprintln!("router  : {router:?}  (vf2 shortcut: {})", out.used_vf2);
    eprintln!("layout  : {layout} seeding");
    eprintln!(
        "depth   : {:.2} duration units (iSWAP = 1.0)",
        out.metrics.depth_estimate
    );
    eprintln!(
        "cost    : {:.2} duration units total",
        out.metrics.total_gate_cost
    );
    eprintln!("swaps   : {}", out.metrics.swaps_inserted);
    eprintln!(
        "mirrors : {} ({:.0}% of decisions)",
        out.metrics.mirrors_accepted,
        100.0 * out.metrics.mirror_rate
    );
    eprintln!(
        "success : {:.4} estimated probability (incl. readout)",
        out.metrics.estimated_success
    );

    let mut result = out.circuit.clone();
    if flag(&flags, "translate").is_some() {
        let (translated, stats) =
            translate_circuit(&result, target.coverage(), &DecompOptions::default());
        eprintln!(
            "pulses  : {} {} (residual infidelity {:.1e})",
            stats.pulses,
            target.basis().name,
            stats.worst_infidelity
        );
        result = translated;
    }
    if flag(&flags, "draw").is_some() {
        println!("{}", render::render(&result));
    }
    match flag(&flags, "out") {
        Some(path) => {
            std::fs::write(path, qasm::to_qasm(&result))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote   : {path}");
        }
        None => {
            if flag(&flags, "draw").is_none() {
                print!("{}", qasm::to_qasm(&result));
            }
        }
    }
    Ok(())
}

/// Transpile many inputs on a `TranspileService` worker pool and print a
/// per-job metrics table. Jobs are seeded `--seed + index`, so the whole
/// batch is reproducible and independent of worker count.
fn cmd_batch(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    if pos.is_empty() {
        return Err("batch needs at least one input (qasm file or generator spec)".into());
    }
    let setup = parse_common(&flags)?;
    let workers: usize = match flag(&flags, "workers") {
        Some(w) => w.parse().map_err(|_| "bad --workers")?,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }

    // Input widths, indexed by job id: the routed circuit is widened to
    // the device register, so the table must remember the input's width.
    let mut input_widths = Vec::with_capacity(pos.len());
    let jobs: Vec<TranspileJob> = pos
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let circuit = load_batch_input(spec)?;
            input_widths.push(circuit.n_qubits);
            Ok(TranspileJob::new(spec.clone(), circuit, setup.opts.clone())
                .with_seed(setup.seed + i as u64))
        })
        .collect::<Result<_, String>>()?;

    eprintln!(
        "target  : {} ({} qubits), router {:?}, {} layout seeding",
        setup.target.name(),
        setup.target.n_qubits(),
        setup.router,
        setup.layout
    );
    eprintln!("batch   : {} jobs on {} workers", jobs.len(), workers);

    let service = TranspileService::new(Arc::new(setup.target), workers);
    let started = std::time::Instant::now();
    let results = service.run_batch(jobs).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let stats = service.shutdown();

    println!(
        "{:>3}  {:<24} {:>6} {:>8} {:>7} {:>8} {:>8} {:>7} {:>6}",
        "job", "input", "qubits", "depth", "swaps", "mirrors", "success", "ms", "worker"
    );
    let mut failures = 0usize;
    for r in &results {
        match &r.outcome {
            Ok(out) => println!(
                "{:>3}  {:<24} {:>6} {:>8.2} {:>7} {:>8} {:>8.4} {:>7.1} {:>6}",
                r.job_id,
                r.label,
                input_widths[r.job_id as usize],
                out.metrics.depth_estimate,
                out.metrics.swaps_inserted,
                out.metrics.mirrors_accepted,
                out.metrics.estimated_success,
                r.elapsed.as_secs_f64() * 1e3,
                r.worker
            ),
            Err(e) => {
                failures += 1;
                println!("{:>3}  {:<24} error: {e}", r.job_id, r.label);
            }
        }
    }
    let throughput = results.len() as f64 / wall.as_secs_f64().max(1e-9);
    eprintln!(
        "done    : {} jobs ({} failed) in {:.2}s — {:.2} jobs/s across {} workers",
        stats.jobs,
        failures,
        wall.as_secs_f64(),
        throughput,
        stats.per_worker.len()
    );
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

/// Run the framed-TCP serving daemon until interrupted (or, with
/// `--conns N`, until `N` connections have been accepted — the scripted
/// mode CI smoke runs use).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (_, flags) = split_flags(args)?;
    let mut target = parse_target(
        flag(&flags, "topo").ok_or("--topo is required")?,
        flag(&flags, "basis").unwrap_or("sqrt-iswap"),
    )?;
    if let Some(path) = flag(&flags, "calibration") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let cal = Calibration::from_text(&text).map_err(|e| e.to_string())?;
        target = target.with_calibration(cal).map_err(|e| e.to_string())?;
    }
    let workers: usize = match flag(&flags, "workers") {
        Some(w) => w.parse().map_err(|_| "bad --workers")?,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let mut config = ServeConfig::new(workers);
    if let Some(cap) = flag(&flags, "capacity") {
        config = config.with_queue_capacity(cap.parse().map_err(|_| "bad --capacity")?);
    }
    if flag(&flags, "chaos").is_some() {
        config = config.with_chaos();
        eprintln!("chaos    : fault-injection submissions accepted");
    }

    let target = Arc::new(target);
    let listen = flag(&flags, "listen").unwrap_or("127.0.0.1:7878");
    let server = NetServer::bind(Arc::clone(&target), listen, &config)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    eprintln!(
        "listening: {} — {} ({} qubits), {} workers{}",
        server.local_addr(),
        target.name(),
        target.n_qubits(),
        workers,
        match config.queue_capacity {
            Some(cap) => format!(", {cap} jobs/lane"),
            None => String::new(),
        }
    );

    let mut refresher = None;
    if let Some(path) = flag(&flags, "watch-cal") {
        let interval: u64 = flag(&flags, "watch-ms")
            .unwrap_or("1000")
            .parse()
            .map_err(|_| "bad --watch-ms")?;
        refresher = Some(CalibrationRefresher::spawn(
            Arc::clone(&target),
            std::path::PathBuf::from(path),
            std::time::Duration::from_millis(interval),
        ));
        eprintln!("watching : {path} (every {interval} ms)");
    }

    let limit: Option<u64> = match flag(&flags, "conns") {
        Some(n) => Some(n.parse().map_err(|_| "bad --conns")?),
        None => None,
    };
    let Some(limit) = limit else {
        // Daemon mode: serve until the process is killed.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    };
    // Wait for N *finished* conversations, not N accepts — shutting down
    // on accept would cut a client off between its jobs.
    while server.connections_closed() < limit {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    if let Some(mut refresher) = refresher.take() {
        refresher.stop();
        eprintln!("watched  : {}", refresher.status_line());
    }
    let stats = server.shutdown();
    eprintln!(
        "served   : {} connection(s), {} job(s)",
        stats.connections, stats.service.jobs
    );
    Ok(())
}

/// Submit inputs to a running `mirage-cli serve` daemon and print the
/// same per-job table as `batch`. Jobs are seeded `--seed + index`,
/// making the remote batch bit-identical to a local one.
fn cmd_client(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    if pos.is_empty() {
        return Err("client needs at least one input (qasm file or generator spec)".into());
    }
    let addr = flag(&flags, "connect").unwrap_or("127.0.0.1:7878");
    let seed: u64 = flag(&flags, "seed")
        .unwrap_or("7")
        .parse()
        .map_err(|_| "bad --seed")?;
    let trials: u32 = flag(&flags, "trials")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "bad --trials")?;
    let router = match flag(&flags, "router").unwrap_or("mirage") {
        "mirage" => RouterKind::Mirage,
        "mirage-swaps" => RouterKind::MirageSwaps,
        "sabre" => RouterKind::Sabre,
        other => return Err(format!("unknown router '{other}'")),
    };
    let lane = match flag(&flags, "lane").unwrap_or("batch") {
        "batch" => Lane::Batch,
        "interactive" => Lane::Interactive,
        other => return Err(format!("unknown lane '{other}'")),
    };
    let deadline_ms: Option<u64> = match flag(&flags, "deadline-ms") {
        Some(ms) => Some(ms.parse().map_err(|_| "bad --deadline-ms")?),
        None => None,
    };
    let mut wire = WireOptions::quick(router);
    wire.layout_trials = trials;
    wire.routing_trials = trials;
    match flag(&flags, "metric") {
        None => {}
        Some("depth") => wire.metric = Some(Metric::Depth),
        Some("swaps") => wire.metric = Some(Metric::SwapCount),
        Some("success") => wire.metric = Some(Metric::EstimatedSuccess),
        Some(other) => return Err(format!("unknown metric '{other}'")),
    }
    if flag(&flags, "out").is_some() && pos.len() > 1 {
        return Err("--out needs exactly one input".into());
    }
    let retries: u32 = flag(&flags, "retries")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --retries")?;
    let policy = if retries == 0 {
        RetryPolicy::none()
    } else {
        let base_ms: u64 = flag(&flags, "retry-ms")
            .unwrap_or("5")
            .parse()
            .map_err(|_| "bad --retry-ms")?;
        RetryPolicy::new(retries + 1)
            .with_base_delay(std::time::Duration::from_millis(base_ms.max(1)))
            .with_seed(seed)
    };

    let mut client = NetClient::connect_with_retry(addr, policy)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let info = client.ping().map_err(|e| e.to_string())?;
    eprintln!(
        "server  : {addr} (protocol v{}, {} workers, calibration generation {})",
        info.version, info.workers, info.generation
    );
    println!(
        "{:>3}  {:<24} {:>8} {:>7} {:>8} {:>8} {:>7} {:>4}",
        "job", "input", "depth", "swaps", "mirrors", "success", "ms", "gen"
    );
    let mut failures = 0usize;
    for (i, spec) in pos.iter().enumerate() {
        let circuit = load_batch_input(spec)?;
        let submit = SubmitRequest {
            label: spec.clone(),
            qasm: qasm::to_qasm(&circuit),
            seed: seed + i as u64,
            lane,
            deadline_ms,
            options: wire.clone(),
            fault: None,
        };
        match client.submit(submit) {
            Ok(outcome) => {
                let m = &outcome.done.metrics;
                println!(
                    "{:>3}  {:<24} {:>8.2} {:>7} {:>8} {:>8.4} {:>7.1} {:>4}",
                    outcome.job_id,
                    spec,
                    m.depth_estimate,
                    m.swaps,
                    m.mirrors,
                    m.estimated_success,
                    outcome.done.elapsed_us as f64 / 1e3,
                    outcome.done.generation
                );
                if let Some(path) = flag(&flags, "out") {
                    std::fs::write(path, &outcome.done.qasm)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("wrote   : {path}");
                }
            }
            Err(e) => {
                failures += 1;
                println!("{:>3}  {:<24} error: {e}", i, spec);
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, _) = split_flags(args)?;
    let input = pos.first().ok_or("stats needs an input file")?;
    let c = load_circuit(input)?;
    println!("qubits          : {}", c.n_qubits);
    println!("gates           : {}", c.gate_count());
    println!("two-qubit gates : {}", c.two_qubit_gate_count());
    println!("cx-equivalent   : {}", generators::cx_equivalent_count(&c));
    println!("depth           : {}", c.depth());
    println!("2q depth        : {}", c.depth_2q());
    println!("interactions    : {}", c.interaction_edges().len());
    println!("histogram       :");
    for (name, count) in c.gate_histogram() {
        println!("  {name:<10} {count}");
    }
    Ok(())
}

fn cmd_draw(args: &[String]) -> Result<(), String> {
    let (pos, _) = split_flags(args)?;
    let input = pos.first().ok_or("draw needs an input file")?;
    let c = load_circuit(input)?;
    println!("{}", render::render(&c));
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let spec = pos.first().ok_or("gen needs a generator spec")?;
    let c = parse_generator(spec)?;
    let text = qasm::to_qasm(&c);
    match flag(&flags, "out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Emit a seeded synthetic calibration file for a topology — a starting
/// point for hand-editing or for feeding `transpile --calibration`.
fn cmd_gen_cal(args: &[String]) -> Result<(), String> {
    let (_, flags) = split_flags(args)?;
    let topo = parse_topology(flag(&flags, "topo").ok_or("--topo is required")?)?;
    let seed: u64 = flag(&flags, "seed")
        .unwrap_or("7")
        .parse()
        .map_err(|_| "bad --seed")?;
    let cal = Calibration::synthetic(&topo, &mut Rng::new(seed));
    let text = cal.to_text();
    match flag(&flags, "out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote   : {path} ({} qubits)", cal.n_qubits());
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}
