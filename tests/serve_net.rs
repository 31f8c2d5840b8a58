//! The network front, proven by fault injection.
//!
//! Three rings of coverage, inside out:
//!
//! 1. **Frame codec properties** — seeded-RNG round-trips over arbitrary
//!    payloads, plus every way a frame can be damaged (truncated at each
//!    prefix, corrupted at each byte, oversized) must yield a *typed*
//!    error: no panics, no over-reads.
//! 2. **Envelope properties** — versioning, unknown tags, truncation and
//!    trailing bytes are all typed decode failures.
//! 3. **Live loopback TCP** — a real `NetServer` under hostile clients:
//!    disconnects mid-job, garbage bytes, malformed envelopes, expired
//!    deadlines, full queues. The server must answer with typed protocol
//!    responses and keep serving; and the answers it does produce must be
//!    bit-identical to in-process `TranspileService` runs with the same
//!    seeds, at pool sizes 1 and 4.

use mirage::circuit::generators::{ghz, qft};
use mirage::circuit::qasm::to_qasm;
use mirage::core::RouterKind;
use mirage::core::Target;
use mirage::math::Rng;
use mirage::serve::net::frame::{
    decode_frame, encode_frame, read_frame, FrameError, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use mirage::serve::net::proto::{
    ProtoError, Request, Response, SubmitRequest, WireOptions, PROTO_VERSION,
};
use mirage::serve::net::{
    frame, ChaosConfig, ChaosConnector, ChaosPlan, ClientError, FailureKind, NetClient, NetServer,
    RetryPolicy, ServeConfig, TcpConnector,
};
use mirage::serve::{InjectedFault, Lane, TranspileJob, TranspileService};
use mirage::topology::CouplingMap;
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Ring 1: frame codec properties
// ---------------------------------------------------------------------------

#[test]
fn frames_round_trip_arbitrary_payloads() {
    let mut rng = Rng::new(0xF4A3E);
    // Boundary sizes plus a seeded sweep of arbitrary ones.
    let mut sizes = vec![0usize, 1, 2, HEADER_LEN, 255, 256, 4096];
    for _ in 0..40 {
        sizes.push(rng.below(16 * 1024));
    }
    for size in sizes {
        let payload: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
        let frame = encode_frame(&payload);
        // Buffer decoder.
        let (decoded, consumed) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD)
            .unwrap_or_else(|e| panic!("size {size}: {e}"));
        assert_eq!(decoded, payload);
        assert_eq!(consumed, frame.len());
        // Streaming decoder, including at the exact cap.
        let mut cursor = Cursor::new(frame);
        assert_eq!(read_frame(&mut cursor, size as u32).unwrap(), payload);
    }
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error() {
    let payload = b"the quick brown fox jumps over the lazy daemon";
    let frame = encode_frame(payload);
    for cut in 0..frame.len() {
        let prefix = &frame[..cut];
        // Buffer decoder: empty input reads as Closed, anything shorter
        // than the full frame as Truncated. Never a panic, never Ok.
        match decode_frame(prefix, DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::Closed) => assert_eq!(cut, 0),
            Err(FrameError::Truncated { got, .. }) => assert!(got <= cut),
            other => panic!("prefix {cut}: expected truncation, got {other:?}"),
        }
        // Streaming decoder over the same prefix.
        let mut cursor = Cursor::new(prefix.to_vec());
        match read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::Closed) => assert_eq!(cut, 0),
            Err(FrameError::Truncated { .. }) => {}
            other => panic!("stream prefix {cut}: expected truncation, got {other:?}"),
        }
    }
}

#[test]
fn corruption_at_every_byte_is_a_typed_error_or_detected() {
    let payload = b"seeded corruption sweep";
    let clean = encode_frame(payload);
    let mut rng = Rng::new(0xC0FFEE);
    for pos in 0..clean.len() {
        let mut frame = clean.clone();
        // Flip 1..=8 random bits of this byte (never zero flips).
        let flips = 1 + rng.below(8);
        for _ in 0..flips {
            frame[pos] ^= 1u8 << rng.below(8);
        }
        if frame[pos] == clean[pos] {
            continue; // bit flips cancelled out; nothing corrupted
        }
        let result = decode_frame(&frame, DEFAULT_MAX_PAYLOAD);
        match &result {
            // Magic bytes damaged.
            Err(FrameError::BadMagic(_)) => assert!(pos < 2),
            // Length field damaged: reads as over-cap or as a longer/
            // shorter frame than the buffer holds…
            Err(FrameError::Oversized { .. }) | Err(FrameError::Truncated { .. }) => {
                assert!((2..6).contains(&pos))
            }
            // …a *shrunk* length re-frames the tail, which the checksum
            // then catches, same as checksum-field or payload damage.
            Err(FrameError::ChecksumMismatch { .. }) => {}
            other => panic!("corrupt byte {pos}: undetected corruption: {other:?}"),
        }
    }
}

#[test]
fn oversized_frames_never_over_read() {
    /// Reader that counts every byte handed out, to prove the decoder
    /// stopped at the header.
    struct Counting<R> {
        inner: R,
        read: usize,
    }
    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }
    // A frame whose header declares 1 MiB; the reader's cap is 1 KiB.
    let frame = encode_frame(&vec![0xAB; 1024 * 1024]);
    let mut counting = Counting {
        inner: Cursor::new(frame),
        read: 0,
    };
    let result = read_frame(&mut counting, 1024);
    assert_eq!(
        result,
        Err(FrameError::Oversized {
            len: 1024 * 1024,
            max: 1024
        })
    );
    assert_eq!(
        counting.read, HEADER_LEN,
        "decoder must stop after the header — no payload byte may be \
         read or buffered for a frame it already rejected"
    );
}

// ---------------------------------------------------------------------------
// Ring 2: envelope properties
// ---------------------------------------------------------------------------

fn sample_submit(label: &str, qasm: &str, seed: u64) -> SubmitRequest {
    SubmitRequest {
        label: label.to_owned(),
        qasm: qasm.to_owned(),
        seed,
        lane: Lane::Batch,
        deadline_ms: None,
        options: quick_wire(),
        fault: None,
    }
}

/// The wire options every loopback test runs under: small trial counts,
/// VF2 off (so routing actually runs), parallelism from
/// `MIRAGE_TEST_THREADS` exactly like the golden-routing suite.
fn quick_wire() -> WireOptions {
    let mut wire = WireOptions::quick(RouterKind::Mirage);
    wire.layout_trials = 2;
    wire.routing_trials = 2;
    wire.use_vf2 = false;
    if let Some(threads) = env_threads() {
        wire.parallel = true;
        wire.threads = threads as u32;
    }
    wire
}

/// Thread count for in-job parallelism: `MIRAGE_TEST_THREADS=<n>` runs
/// every loopback job's trial engine with `n` workers (CI runs the suite
/// both ways to gate thread-count invariance); unset runs it serially.
fn env_threads() -> Option<usize> {
    std::env::var("MIRAGE_TEST_THREADS")
        .ok()
        .map(|s| s.parse().expect("MIRAGE_TEST_THREADS must be an integer"))
}

#[test]
fn envelope_decode_failures_are_typed() {
    let submit = Request::Submit(sample_submit("x", "OPENQASM 2.0;\n", 1)).encode();

    // Foreign version byte.
    let mut wrong_version = submit.clone();
    wrong_version[0] = 9;
    assert_eq!(
        Request::decode(&wrong_version),
        Err(ProtoError::UnsupportedVersion(9))
    );

    // Unknown message tag.
    let mut bad_tag = submit.clone();
    bad_tag[1] = 0x7F;
    assert_eq!(
        Request::decode(&bad_tag),
        Err(ProtoError::UnknownTag {
            what: "request",
            tag: 0x7F
        })
    );

    // Truncation at every prefix is typed, never a panic.
    for cut in 0..submit.len() {
        match Request::decode(&submit[..cut]) {
            Err(
                ProtoError::Truncated { .. }
                | ProtoError::UnsupportedVersion(_)
                | ProtoError::UnknownTag { .. }
                | ProtoError::InvalidUtf8 { .. },
            ) => {}
            other => panic!("prefix {cut}: expected a typed error, got {other:?}"),
        }
    }

    // Trailing bytes after a complete message are rejected.
    let mut padded = submit.clone();
    padded.extend_from_slice(&[0, 0, 0]);
    assert_eq!(
        Request::decode(&padded),
        Err(ProtoError::TrailingBytes { extra: 3 })
    );

    // Non-UTF-8 in a string field.
    let mut bad_utf8 = Request::Submit(sample_submit("ab", "OPENQASM 2.0;\n", 1)).encode();
    // label starts after version byte + tag byte + 4-byte length.
    bad_utf8[6] = 0xFF;
    assert_eq!(
        Request::decode(&bad_utf8),
        Err(ProtoError::InvalidUtf8 { what: "label" })
    );
}

// ---------------------------------------------------------------------------
// Ring 3: live loopback TCP
// ---------------------------------------------------------------------------

fn grid_target() -> Arc<Target> {
    Arc::new(Target::sqrt_iswap(CouplingMap::grid(6, 6)))
}

/// Raw-socket submit: send the request and return the stream for manual
/// response reads (the fault tests need sub-conversation control the
/// blocking client deliberately doesn't expose).
fn raw_submit(addr: std::net::SocketAddr, submit: SubmitRequest) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    frame::write_frame(&mut stream, &Request::Submit(submit).encode()).expect("send");
    stream
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream, DEFAULT_MAX_PAYLOAD).expect("read frame");
    Response::decode(&payload).expect("decode response")
}

/// Wait for `Running` on a raw stream (consuming the `Queued` edge), so
/// the caller knows the single worker is occupied by this job.
fn wait_until_running(stream: &mut TcpStream) {
    match read_response(stream) {
        Response::Queued { .. } => {}
        other => panic!("expected Queued, got {other:?}"),
    }
    match read_response(stream) {
        Response::Running { .. } => {}
        other => panic!("expected Running, got {other:?}"),
    }
}

/// A job slow enough (hundreds of routing trials on QFT-12, tens of
/// milliseconds even with parallel trials) to keep a worker busy while a
/// test stages the queue behind it.
fn slow_submit(label: &str) -> SubmitRequest {
    let mut submit = sample_submit(label, &to_qasm(&qft(12, false)), 0x51_0e);
    submit.options.layout_trials = 24;
    submit.options.routing_trials = 8;
    submit
}

#[test]
fn ping_reports_server_identity() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(2)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let info = client.ping().unwrap();
    assert_eq!(info.version, PROTO_VERSION);
    assert_eq!(info.workers, 2);
    assert_eq!(info.generation, 0);
    let stats = server.shutdown();
    assert_eq!(stats.connections, 1);
}

/// The headline acceptance test: a loopback QFT-32 round trip is
/// bit-identical to an in-process `TranspileService::run_batch` with the
/// same seed — same fingerprint, same QASM text — at pool sizes 1 and 4.
#[test]
fn loopback_qft32_matches_in_process_service_bit_for_bit() {
    let wire = quick_wire();
    let qasm = to_qasm(&qft(32, false));
    let seed = 0x9F732;

    // In-process reference: the same job through the service directly.
    let reference = {
        let service = TranspileService::new(grid_target(), 1);
        let job = TranspileJob::new("qft-32", qft(32, false), wire.to_options(seed));
        let results = service.run_batch(vec![job]).unwrap();
        let out = results.into_iter().next().unwrap().outcome.expect("routes");
        (out.circuit.fingerprint(), to_qasm(&out.circuit))
    };

    for workers in [1usize, 4] {
        let server =
            NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(workers)).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let mut submit = sample_submit("qft-32", &qasm, seed);
        submit.options = wire.clone();
        let outcome = client.submit(submit).unwrap();
        assert_eq!(
            outcome.done.fingerprint, reference.0,
            "{workers}-worker loopback result must match the in-process fingerprint"
        );
        assert_eq!(
            outcome.done.qasm, reference.1,
            "{workers}-worker loopback QASM must match byte-for-byte"
        );
        assert_eq!(outcome.done.generation, 0);
        assert!(outcome.done.metrics.two_qubit_gates > 0);
        server.shutdown();
    }
}

#[test]
fn client_disconnect_mid_job_leaves_the_server_serving() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Occupy the worker and then vanish: connect, submit, confirm the job
    // is running, and slam the connection shut.
    {
        let mut doomed = raw_submit(addr, slow_submit("abandoned"));
        wait_until_running(&mut doomed);
        // scope end drops the stream — TCP reset/close mid-job
    }

    // The pool must finish the orphaned job and keep serving new clients.
    let mut client = NetClient::connect(addr).unwrap();
    let outcome = client
        .submit(sample_submit("survivor", &to_qasm(&ghz(4)), 7))
        .expect("server must survive a mid-job disconnect");
    assert!(outcome.done.metrics.two_qubit_gates > 0);

    let stats = server.shutdown();
    assert_eq!(
        stats.service.jobs, 2,
        "both the abandoned and the follow-up job must have been processed"
    );
}

#[test]
fn garbage_bytes_get_an_error_and_only_that_connection_dies() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Not even a frame: an HTTP request. The server must answer with a
    // typed protocol error and close only this connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    match read_response(&mut stream) {
        Response::ProtocolError { message } => assert!(message.contains("frame")),
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    // The connection is closed afterwards (stream desync is fatal).
    assert!(matches!(
        read_frame(&mut stream, DEFAULT_MAX_PAYLOAD),
        Err(FrameError::Closed | FrameError::Io(_) | FrameError::Truncated { .. })
    ));

    // A well-formed *frame* holding a malformed *envelope* keeps the
    // connection: framing preserved sync, so the conversation continues.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut bad_envelope = vec![PROTO_VERSION, 0x7F];
    bad_envelope.extend_from_slice(b" not a message");
    frame::write_frame(&mut stream, &bad_envelope).unwrap();
    match read_response(&mut stream) {
        Response::ProtocolError { message } => assert!(message.contains("tag")),
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    // …same connection, valid request: still served.
    frame::write_frame(&mut stream, &Request::Ping.encode()).unwrap();
    assert!(matches!(read_response(&mut stream), Response::Pong { .. }));

    // And the server as a whole never stopped serving.
    let mut client = NetClient::connect(addr).unwrap();
    client.ping().expect("server survives garbage connections");
    server.shutdown();
}

#[test]
fn oversized_request_is_rejected_from_the_header_alone() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Send only a header declaring one byte over the cap. A correct
    // server rejects from the header; a broken one would block waiting
    // for 16 MiB that never come.
    let mut header = frame::FRAME_MAGIC.to_vec();
    header.extend_from_slice(&(DEFAULT_MAX_PAYLOAD + 1).to_be_bytes());
    header.extend_from_slice(&0u64.to_be_bytes());
    assert_eq!(header.len(), HEADER_LEN);
    stream.write_all(&header).unwrap();
    match read_response(&mut stream) {
        Response::ProtocolError { message } => {
            assert!(message.contains("exceeds cap"), "got: {message}")
        }
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn expired_deadline_is_rejected_at_dequeue_over_the_wire() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Hold the single worker so the deadlined job has to sit in queue.
    let mut blocker = raw_submit(addr, slow_submit("blocker"));
    wait_until_running(&mut blocker);

    // This job's 1 ms deadline will be long gone when the worker frees up.
    let mut stale = sample_submit("stale", &to_qasm(&ghz(4)), 3);
    stale.deadline_ms = Some(1);
    let mut client = NetClient::connect(addr).unwrap();
    match client.submit(stale) {
        Err(ClientError::Failed { kind, message, .. }) => {
            assert_eq!(kind, FailureKind::DeadlineExceeded);
            assert!(message.contains("deadline exceeded"), "got: {message}");
        }
        other => panic!("expected a DeadlineExceeded failure, got {other:?}"),
    }

    // The blocker itself still completes fine.
    assert!(matches!(read_response(&mut blocker), Response::Done(_)));
    let stats = server.shutdown();
    assert_eq!(stats.service.jobs, 2, "the expired job counts as processed");
}

#[test]
fn full_queue_answers_typed_busy_without_blocking() {
    let config = ServeConfig::new(1).with_queue_capacity(1);
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &config).unwrap();
    let addr = server.local_addr();

    // Occupy the worker, then fill this connection's batch-lane budget
    // (admission is per client per lane).
    let mut blocker = raw_submit(addr, slow_submit("blocker"));
    wait_until_running(&mut blocker);
    let mut queued = raw_submit(addr, sample_submit("queued", &to_qasm(&ghz(4)), 5));
    match read_response(&mut queued) {
        Response::Queued { lane, .. } => assert_eq!(lane, Lane::Batch),
        other => panic!("expected Queued, got {other:?}"),
    }

    // Second submission pipelined on the SAME connection: this client's
    // batch budget is full → typed Busy, answered immediately (bounded
    // wait proves nobody blocked on the queue).
    let started = Instant::now();
    frame::write_frame(
        &mut queued,
        &Request::Submit(sample_submit("bounced", &to_qasm(&ghz(4)), 6)).encode(),
    )
    .unwrap();
    loop {
        match read_response(&mut queued) {
            Response::Busy { lane, capacity } => {
                assert_eq!(lane, Lane::Batch);
                assert_eq!(capacity, 1);
                break;
            }
            Response::Running { .. } => continue,
            other => panic!("expected Busy, got {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "Busy must be immediate, not queued-then-failed"
    );

    // A different connection is a different admission client: its own
    // batch budget is untouched, so the same instant still accepts.
    let mut other_client = raw_submit(addr, sample_submit("other-client", &to_qasm(&ghz(4)), 60));
    match read_response(&mut other_client) {
        Response::Queued { lane, .. } => assert_eq!(lane, Lane::Batch),
        other => panic!("expected Queued, got {other:?}"),
    }

    // The interactive lane has its own budget: same instant, still open.
    let mut express = sample_submit("express", &to_qasm(&ghz(4)), 7);
    express.lane = Lane::Interactive;
    let mut express_conn = raw_submit(addr, express);
    match read_response(&mut express_conn) {
        Response::Queued { lane, .. } => assert_eq!(lane, Lane::Interactive),
        other => panic!("expected Queued, got {other:?}"),
    }

    // Everything accepted completes.
    for stream in [
        &mut blocker,
        &mut queued,
        &mut other_client,
        &mut express_conn,
    ] {
        loop {
            match read_response(stream) {
                Response::Running { .. } => continue,
                Response::Done(_) => break,
                other => panic!("expected Running/Done, got {other:?}"),
            }
        }
    }
    server.shutdown();
}

#[test]
fn interactive_jobs_overtake_queued_batch_jobs_over_the_wire() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Stage the queue behind a busy worker: batch first, interactive after.
    let mut blocker = raw_submit(addr, slow_submit("blocker"));
    wait_until_running(&mut blocker);
    let mut batch = raw_submit(addr, sample_submit("batch", &to_qasm(&qft(8, false)), 8));
    match read_response(&mut batch) {
        Response::Queued { .. } => {}
        other => panic!("expected Queued, got {other:?}"),
    }
    let mut inter = sample_submit("inter", &to_qasm(&qft(8, false)), 9);
    inter.lane = Lane::Interactive;
    // Long enough that the gap between the two Running edges (this job's
    // whole execution) dwarfs reader-thread scheduling jitter.
    inter.options.layout_trials = 16;
    let mut inter = raw_submit(addr, inter);
    match read_response(&mut inter) {
        Response::Queued { .. } => {}
        other => panic!("expected Queued, got {other:?}"),
    }

    // Strict lane priority on a single worker: the interactive job must
    // reach Running (dequeue) before the batch job does, even though the
    // batch job was queued first. Observe each stream's Running edge from
    // its own thread and compare receipt times — the gap is a whole job
    // execution, not a scheduling jitter.
    let t0 = Instant::now();
    let clock = |mut stream: TcpStream| {
        std::thread::spawn(move || {
            match read_response(&mut stream) {
                Response::Running { .. } => {}
                other => panic!("expected Running, got {other:?}"),
            }
            let at = t0.elapsed();
            loop {
                match read_response(&mut stream) {
                    Response::Done(_) => return at,
                    Response::Running { .. } => continue,
                    other => panic!("expected Done, got {other:?}"),
                }
            }
        })
    };
    let inter_clock = clock(inter);
    let batch_clock = clock(batch);
    let inter_running_at = inter_clock.join().unwrap();
    let batch_running_at = batch_clock.join().unwrap();
    assert!(
        inter_running_at < batch_running_at,
        "interactive job must dequeue first (interactive at {inter_running_at:?}, \
         batch at {batch_running_at:?})"
    );

    assert!(matches!(read_response(&mut blocker), Response::Done(_)));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_accepted_job() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Accept four jobs (Queued confirms acceptance) while the single
    // worker can only have started the first.
    let mut streams: Vec<TcpStream> = (0..4)
        .map(|i| {
            let mut submit = sample_submit(&format!("drain-{i}"), &to_qasm(&qft(8, false)), i);
            submit.options.layout_trials = 4;
            let mut stream = raw_submit(addr, submit);
            match read_response(&mut stream) {
                Response::Queued { .. } => stream,
                other => panic!("expected Queued, got {other:?}"),
            }
        })
        .collect();

    // Shut down with jobs still queued: every accepted job must still be
    // executed and its result delivered before the server goes away.
    let shutdown = std::thread::spawn(move || server.shutdown());
    let mut fingerprints = Vec::new();
    for stream in &mut streams {
        loop {
            match read_response(stream) {
                Response::Running { .. } => continue,
                Response::Done(done) => {
                    fingerprints.push(done.fingerprint);
                    break;
                }
                other => panic!("expected Running/Done, got {other:?}"),
            }
        }
    }
    let stats = shutdown.join().unwrap();
    assert_eq!(
        stats.service.jobs, 4,
        "drain-then-stop runs every accepted job"
    );

    // And the drained results are the same bits a direct in-process
    // service produces for the same seeds.
    let service = TranspileService::new(grid_target(), 1);
    let jobs = (0..4)
        .map(|i| {
            let mut wire = quick_wire();
            wire.layout_trials = 4;
            TranspileJob::new(format!("direct-{i}"), qft(8, false), wire.to_options(i))
        })
        .collect();
    let direct: Vec<u64> = service
        .run_batch(jobs)
        .unwrap()
        .into_iter()
        .map(|r| r.outcome.expect("routes").circuit.fingerprint())
        .collect();
    assert_eq!(fingerprints, direct);
}

#[test]
fn injected_worker_panic_over_the_wire_fails_one_job_only() {
    let wire = quick_wire();
    // In-process reference bits for the two surviving jobs.
    let reference: Vec<u64> = {
        let service = TranspileService::new(grid_target(), 1);
        let jobs = vec![
            TranspileJob::new("a", qft(8, false), wire.to_options(21)),
            TranspileJob::new("b", ghz(6), wire.to_options(22)),
        ];
        service
            .run_batch(jobs)
            .unwrap()
            .into_iter()
            .map(|r| r.outcome.expect("routes").circuit.fingerprint())
            .collect()
    };

    // A production server refuses fault-carrying submissions outright.
    let strict = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let mut client = NetClient::connect(strict.local_addr()).unwrap();
    let mut refused = sample_submit("nope", &to_qasm(&ghz(4)), 1);
    refused.fault = Some(InjectedFault::Panic);
    match client.submit(refused) {
        Err(ClientError::Rejected { message }) => {
            assert!(
                message.contains("fault injection is disabled"),
                "got: {message}"
            )
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    strict.shutdown();

    // A chaos-enabled server runs them: a panic caught in place and a
    // worker-killing panic each fail alone with a typed wire error (never
    // a hung connection), the pool respawns the killed worker, and the
    // surviving jobs' results match the in-process reference bit for bit.
    let config = ServeConfig::new(1).with_chaos();
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut caught = sample_submit("caught", &to_qasm(&ghz(4)), 4);
    caught.fault = Some(InjectedFault::Panic);
    match client.submit(caught) {
        Err(ClientError::Failed { kind, message, .. }) => {
            assert_eq!(kind, FailureKind::WorkerPanicked);
            assert!(message.contains("panicked"), "got: {message}");
        }
        other => panic!("expected a WorkerPanicked failure, got {other:?}"),
    }
    let a = client
        .submit(sample_submit("a", &to_qasm(&qft(8, false)), 21))
        .unwrap();
    assert_eq!(a.done.fingerprint, reference[0]);
    let mut boom = sample_submit("boom", &to_qasm(&ghz(4)), 5);
    boom.fault = Some(InjectedFault::PanicKill);
    match client.submit(boom) {
        Err(ClientError::Failed { kind, message, .. }) => {
            assert_eq!(kind, FailureKind::WorkerPanicked);
            assert!(
                message.contains("panicked") || message.contains("died"),
                "got: {message}"
            );
        }
        other => panic!("expected a WorkerPanicked failure, got {other:?}"),
    }
    let b = client
        .submit(sample_submit("b", &to_qasm(&ghz(6)), 22))
        .unwrap();
    assert_eq!(b.done.fingerprint, reference[1]);
    let stats = server.shutdown();
    assert!(
        stats.service.respawns >= 1,
        "the killed worker must have been respawned"
    );
    assert_eq!(
        stats.service.jobs, 4,
        "all four jobs reached terminal state"
    );
}

/// Chaos seeds the loopback convergence sweep runs under: CI pins one via
/// `MIRAGE_CHAOS_SEED=<n>` for its extra pass; the default sweep covers
/// three fixed seeds.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("MIRAGE_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("MIRAGE_CHAOS_SEED must be an integer")],
        Err(_) => vec![0xC4A0_5EED, 7, 1234],
    }
}

/// The convergence acceptance test: under a seeded fault-injection proxy
/// that drops, truncates, corrupts, duplicates, and delays frames, a
/// retrying client's results must be **bit-identical** to the fault-free
/// loopback run — for every seed in the sweep.
#[test]
fn chaos_transport_sweep_converges_to_fault_free_results() {
    let jobs = || {
        vec![
            ("chaos-a".to_owned(), to_qasm(&ghz(5)), 31u64),
            ("chaos-b".to_owned(), to_qasm(&qft(6, false)), 32),
            ("chaos-c".to_owned(), to_qasm(&ghz(4)), 33),
            ("chaos-d".to_owned(), to_qasm(&qft(7, false)), 34),
        ]
    };
    let reference: Vec<(u64, String)> = {
        let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(2)).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let results = jobs()
            .into_iter()
            .map(|(label, qasm, seed)| {
                let outcome = client.submit(sample_submit(&label, &qasm, seed)).unwrap();
                (outcome.done.fingerprint, outcome.done.qasm)
            })
            .collect();
        server.shutdown();
        results
    };

    for seed in chaos_seeds() {
        let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(2)).unwrap();
        let plan = ChaosPlan::new(ChaosConfig::new(seed));
        let connector = ChaosConnector::new(
            TcpConnector::new(server.local_addr()).unwrap(),
            plan.clone(),
        );
        // The fault budget (8) bounds failed attempts; 12 attempts leaves
        // headroom, so a policy-exhausted error here is a real bug.
        let policy = RetryPolicy::new(12)
            .with_base_delay(Duration::from_millis(1))
            .with_seed(seed);
        let mut client = NetClient::with_connector(Box::new(connector), policy)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: connect failed: {e}"));
        for ((label, qasm, job_seed), (fingerprint, text)) in jobs().iter().zip(&reference) {
            let outcome = client
                .submit(sample_submit(label, qasm, *job_seed))
                .unwrap_or_else(|e| panic!("seed {seed:#x}, job {label}: {e}"));
            assert_eq!(
                outcome.done.fingerprint, *fingerprint,
                "seed {seed:#x}, job {label}: diverged from fault-free run"
            );
            assert_eq!(
                &outcome.done.qasm, text,
                "seed {seed:#x}, job {label}: QASM text diverged"
            );
        }
        let stats = plan.stats();
        assert!(stats.frames > 0, "seed {seed:#x}: chaos proxy saw traffic");
        server.shutdown();
    }
}

/// The fair-share acceptance test: one connection flooding the batch lane
/// cannot prevent a second client's jobs from completing — the queue's
/// round-robin interleaves clients, so the polite client's last
/// job finishes while the flood is still draining.
#[test]
fn flooding_connection_cannot_starve_another_clients_jobs() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Park the single worker so both clients queue fully before any
    // batch-lane dequeue happens.
    let mut blocker = raw_submit(addr, slow_submit("blocker"));
    wait_until_running(&mut blocker);

    // Client A floods six pipelined jobs on one connection...
    let mut flood = TcpStream::connect(addr).unwrap();
    flood.set_nodelay(true).unwrap();
    for i in 0..6u64 {
        let submit = sample_submit(&format!("flood-{i}"), &to_qasm(&qft(8, false)), 40 + i);
        frame::write_frame(&mut flood, &Request::Submit(submit).encode()).unwrap();
    }
    for _ in 0..6 {
        match read_response(&mut flood) {
            Response::Queued { .. } => {}
            other => panic!("expected Queued, got {other:?}"),
        }
    }
    // ...then client B queues two, strictly after the flood.
    let mut polite = TcpStream::connect(addr).unwrap();
    polite.set_nodelay(true).unwrap();
    for i in 0..2u64 {
        let submit = sample_submit(&format!("polite-{i}"), &to_qasm(&qft(8, false)), 50 + i);
        frame::write_frame(&mut polite, &Request::Submit(submit).encode()).unwrap();
    }
    for _ in 0..2 {
        match read_response(&mut polite) {
            Response::Queued { .. } => {}
            other => panic!("expected Queued, got {other:?}"),
        }
    }

    // Watch each stream's Done edges from its own thread: under FIFO the
    // polite client would finish dead last; under round-robin
    // its second job completes while most of the flood is still queued.
    let t0 = Instant::now();
    let clock = |mut stream: TcpStream, dones: usize| {
        std::thread::spawn(move || {
            let mut last = Duration::ZERO;
            let mut seen = 0;
            while seen < dones {
                match read_response(&mut stream) {
                    Response::Done(_) => {
                        seen += 1;
                        last = t0.elapsed();
                    }
                    Response::Running { .. } => continue,
                    other => panic!("expected Running/Done, got {other:?}"),
                }
            }
            last
        })
    };
    let flood_clock = clock(flood, 6);
    let polite_clock = clock(polite, 2);
    let polite_done = polite_clock.join().unwrap();
    let flood_done = flood_clock.join().unwrap();
    assert!(
        polite_done < flood_done,
        "fair-share violated: polite client finished at {polite_done:?}, \
         after the flood drained at {flood_done:?}"
    );

    assert!(matches!(read_response(&mut blocker), Response::Done(_)));
    let stats = server.shutdown();
    assert_eq!(stats.service.jobs, 9, "all accepted jobs completed");
}

/// Shutdown-during-retry: when the server drains while a retrying client
/// is mid-conversation, every *accepted* job still gets its terminal
/// answer, and the never-accepted submission ends in a typed error after
/// bounded retries — never a hang.
#[test]
fn shutdown_during_retry_gives_typed_answers_not_hangs() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let addr = server.local_addr();

    // Two accepted jobs: one running, one queued behind it.
    let mut blocker = raw_submit(addr, slow_submit("blocker"));
    wait_until_running(&mut blocker);
    let mut queued = raw_submit(addr, sample_submit("queued", &to_qasm(&ghz(4)), 61));
    match read_response(&mut queued) {
        Response::Queued { .. } => {}
        other => panic!("expected Queued, got {other:?}"),
    }

    // A retrying client connects now (pre-shutdown) but submits only once
    // the drain has begun, so its job is never accepted.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let late = std::thread::spawn(move || {
        let policy = RetryPolicy::new(4)
            .with_base_delay(Duration::from_millis(20))
            .with_seed(3);
        let mut client = NetClient::connect_with_retry(addr, policy).unwrap();
        ready_tx.send(()).unwrap();
        go_rx.recv().unwrap();
        client.submit(sample_submit("late", &to_qasm(&ghz(4)), 62))
    });
    ready_rx.recv().unwrap();
    let shutdown = std::thread::spawn(move || server.shutdown());
    // Let the shutdown flag reach the connection handlers (they poll
    // every 20 ms), then release the late submission into the drain.
    std::thread::sleep(Duration::from_millis(60));
    go_tx.send(()).unwrap();

    // Every accepted job still reaches Done during the drain.
    for stream in [&mut blocker, &mut queued] {
        loop {
            match read_response(stream) {
                Response::Running { .. } => continue,
                Response::Done(_) => break,
                other => panic!("expected Running/Done, got {other:?}"),
            }
        }
    }
    let stats = shutdown.join().unwrap();
    assert_eq!(stats.service.jobs, 2, "both accepted jobs drained");

    // The late client got a typed terminal error after bounded retries.
    match late.join().unwrap() {
        Err(ClientError::Io(_) | ClientError::Frame(_) | ClientError::Rejected { .. }) => {}
        other => panic!("expected a typed transport error, got {other:?}"),
    }
}

#[test]
fn unparseable_qasm_is_rejected_not_queued() {
    let server = NetServer::bind(grid_target(), "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    // Plain garbage, then malformed inputs the parser must reject with an
    // error rather than panic inside the connection handler.
    for qasm in [
        "this is not qasm",
        "qreg q[2];\ncx q[0],q[0];",
        "qreg q[2];\nccx q[0],q[0],q[1];",
        "qreg q[2];\nh q]0[;",
        "qreg q]2[;",
        "qreg a[18446744073709551615];\nqreg b[1];",
    ] {
        match client.submit(sample_submit("bad", qasm, 1)) {
            Err(ClientError::Rejected { message }) => {
                assert!(message.contains("qasm parse error"), "got: {message}")
            }
            other => panic!("{qasm:?}: expected Rejected, got {other:?}"),
        }
        // Connection stays usable after a rejection.
        client.ping().unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.service.jobs, 0, "nothing was ever queued");
}
