//! Pipelining on one connection costs a fixed number of threads.
//!
//! The network front streams job statuses through one forwarder thread per
//! connection, not one per job. This file holds a single test, so it runs
//! alone in its own process and the process thread count sees only this
//! server: a connection with 49 jobs in flight must add fewer than 8
//! threads, while each job's statuses still arrive in wire order
//! `Queued` → `Running` → `Done`.

use mirage::circuit::generators::{ghz, qft};
use mirage::circuit::qasm::to_qasm;
use mirage::core::{RouterKind, Target};
use mirage::serve::net::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use mirage::serve::net::proto::{Request, Response, SubmitRequest, WireOptions};
use mirage::serve::net::{NetServer, ServeConfig};
use mirage::serve::Lane;
use mirage::topology::CouplingMap;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;

/// Jobs pipelined behind the slow one.
const PIPELINED: usize = 48;

/// This process's OS thread count (`Threads:` in `/proc/self/status`);
/// `None` off Linux.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// One trial thread per job, so the only threads a job adds are the
/// server's own.
fn submit(label: &str, qasm: String, layout_trials: u32) -> Request {
    let mut options = WireOptions::quick(RouterKind::Mirage);
    options.layout_trials = layout_trials;
    options.routing_trials = 4;
    options.use_vf2 = false;
    options.threads = 1;
    Request::Submit(SubmitRequest {
        label: label.to_owned(),
        qasm,
        seed: 3,
        lane: Lane::Batch,
        deadline_ms: None,
        options,
        fault: None,
    })
}

/// Per job: its label and the statuses seen so far, as tags.
#[derive(Default)]
struct Seen {
    label: String,
    statuses: Vec<&'static str>,
}

#[test]
fn pipelined_jobs_share_one_forwarder_and_keep_wire_order() {
    let target = Arc::new(Target::sqrt_iswap(CouplingMap::grid(3, 3)));
    let server = NetServer::bind(target, "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let before = thread_count();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // One slow job occupies the single worker, so every job behind it is
    // accepted (and, per job, would hold a forwarder) before any finishes.
    let mut requests = vec![submit("slow", to_qasm(&qft(8, false)), 64)];
    requests.extend((0..PIPELINED).map(|i| submit(&format!("ghz-{i}"), to_qasm(&ghz(3)), 2)));
    for request in &requests {
        write_frame(&mut stream, &request.encode()).unwrap();
    }

    let mut jobs: HashMap<u64, Seen> = HashMap::new();
    let mut peak = before;
    let mut done = 0;
    while done < requests.len() {
        let payload = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).expect("read frame");
        let (job_id, status) = match Response::decode(&payload).expect("decode response") {
            Response::Queued { job_id, label, .. } => {
                jobs.entry(job_id).or_default().label = label;
                (job_id, "Queued")
            }
            Response::Running { job_id, .. } => (job_id, "Running"),
            Response::Done(out) => {
                done += 1;
                assert_eq!(jobs.entry(out.job_id).or_default().label, out.label);
                (out.job_id, "Done")
            }
            other => panic!("unexpected response {other:?}"),
        };
        jobs.entry(job_id).or_default().statuses.push(status);
        peak = peak.max(thread_count());
    }

    assert_eq!(jobs.len(), requests.len());
    for (job_id, seen) in &jobs {
        assert_eq!(
            seen.statuses,
            ["Queued", "Running", "Done"],
            "job {job_id} ({}) wire order",
            seen.label
        );
    }
    if let (Some(before), Some(peak)) = (before, peak) {
        assert!(
            peak < before + 8,
            "{} pipelined jobs grew the process from {before} to {peak} threads",
            requests.len()
        );
    }
    drop(stream);
    let stats = server.shutdown();
    assert_eq!(stats.service.jobs, requests.len() as u64);
}
