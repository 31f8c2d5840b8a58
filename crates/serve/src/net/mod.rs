//! The network front: a framed-TCP daemon over [`TranspileService`].
//!
//! Layering, bottom up:
//!
//! * [`frame`] — length-prefixed, checksummed byte frames (the only layer
//!   that touches raw sockets' byte streams);
//! * [`proto`] — versioned request/response envelopes inside frames;
//! * [`NetServer`] — a `std::net::TcpListener` accept loop spawning one
//!   handler thread per connection, each driving the shared worker pool
//!   through [`TranspileService`];
//! * [`NetClient`] — the matching blocking client, with a [`RetryPolicy`]
//!   for reconnect-and-resubmit recovery;
//! * [`chaos`] — a deterministic fault-injection proxy
//!   ([`ChaosTransport`]) the tests and bench wrap around any transport;
//! * [`CalibrationRefresher`] — a file-watching poller hot-swapping the
//!   served [`Target`]'s calibration.
//!
//! A connection carries **pipelined** conversations: the handler thread
//! keeps reading [`Request`]s and answers each accepted submission with
//! `Queued`, while the connection's one forwarder thread streams every
//! accepted job's `Running` → `Done`/`Failed` responses back through a
//! shared, frame-atomic writer — two threads per connection, however
//! many jobs it pipelines. A job's `Queued` always precedes its
//! `Running` on the wire. A client may therefore have many jobs in
//! flight on one socket; protocol v2 echoes the
//! submission label on every job-specific response so the client can
//! correlate them. Every connection feeds the same two-lane queue — the
//! pool, the lanes, the deadlines, and admission control are shared
//! process-wide — and each connection is a distinct *client* to the
//! queue's round-robin scheduler, so one flooding connection
//! cannot starve another's jobs.
//!
//! Fault policy (what `tests/serve_net.rs` injects):
//!
//! * an envelope that fails to decode gets a [`Response::ProtocolError`]
//!   and the connection **stays open** — framing kept the stream in sync;
//! * a frame-level failure (bad magic, checksum mismatch, oversized,
//!   truncation) means the stream can no longer be trusted: the server
//!   sends a best-effort [`Response::ProtocolError`] and closes that
//!   connection — the listener and every other connection are unaffected;
//! * a client that disconnects mid-job kills nothing: the job was already
//!   queued, the pool finishes it, the undeliverable result is discarded;
//! * a job that panics its worker fails alone
//!   ([`FailureKind::WorkerPanicked`] on the wire); the pool respawns the
//!   worker and every other job is untouched;
//! * server shutdown is graceful: accepted jobs drain and their terminal
//!   responses are delivered before connection handlers exit.

pub mod chaos;
pub mod client;
pub mod frame;
pub mod proto;
pub mod refresh;

pub use chaos::{ChaosConfig, ChaosPlan, ChaosStats, ChaosTransport};
pub use client::{
    ChaosConnector, ClientError, Connector, JobOutcome, NetClient, RetryPolicy, ServerInfo,
    TcpConnector, Transport,
};
pub use frame::{FrameError, DEFAULT_MAX_PAYLOAD};
pub use proto::{
    FailureKind, JobDone, ProtoError, Request, Response, SubmitRequest, WireMetrics, WireOptions,
    PROTO_VERSION,
};
pub use refresh::CalibrationRefresher;

use crate::{JobError, JobEvent, ServeError, ServiceStats, TranspileJob, TranspileService};
use mirage_circuit::qasm::{from_qasm, to_qasm};
use mirage_core::{Target, TranspileOptions};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How to run a [`NetServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads in the transpile pool.
    pub workers: usize,
    /// Per-client, per-lane admission bound; `None` = unbounded (see
    /// [`TranspileService::with_queue_capacity`]).
    pub queue_capacity: Option<usize>,
    /// Accept submissions carrying an injected fault
    /// ([`SubmitRequest::fault`]). Off by default: a production server
    /// rejects faulted submissions before queueing them.
    pub chaos: bool,
}

impl ServeConfig {
    /// Defaults: `workers` threads, unbounded queue, fault injection
    /// disabled.
    pub fn new(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_capacity: None,
            chaos: false,
        }
    }

    /// Bound each queue lane to `capacity` jobs (builder style); overload
    /// then surfaces as [`Response::Busy`].
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Allow submissions with injected faults (builder style) — the knob
    /// the chaos suite turns; leave off in production.
    #[must_use]
    pub fn with_chaos(mut self) -> ServeConfig {
        self.chaos = true;
        self
    }
}

/// Counters reported by [`NetServer::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server lifetime.
    pub connections: u64,
    /// The wrapped pool's drain stats.
    pub service: ServiceStats,
}

/// Shared between the accept loop, connection handlers, and the owner.
struct Shared {
    service: TranspileService,
    shutdown: AtomicBool,
    connections: AtomicU64,
    closed: AtomicU64,
    chaos: bool,
}

/// A framed-TCP transpilation daemon. Bind with [`NetServer::bind`],
/// stop with [`NetServer::shutdown`] (graceful: accepted jobs drain and
/// in-flight conversations complete their current job first).
pub struct NetServer {
    shared: Option<Arc<Shared>>,
    accept: Option<std::thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Bind a listener on `addr` (use port 0 for an OS-assigned port,
    /// recoverable via [`NetServer::local_addr`]) and start serving a
    /// fresh worker pool over `target`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configure failures.
    pub fn bind<A: ToSocketAddrs>(
        target: Arc<Target>,
        addr: A,
        config: &ServeConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking so the accept loop can observe the shutdown flag
        // instead of parking in accept(2) forever.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            service: TranspileService::with_queue_capacity(
                target,
                config.workers,
                config.queue_capacity,
            ),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            chaos: config.chaos,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("mirage-net-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("failed to spawn accept thread");
        Ok(NetServer {
            shared: Some(shared),
            accept: Some(accept),
            local_addr,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections whose conversation has ended (peer hung up or the
    /// handler dropped it). Scripted runs wait on this rather than on
    /// accepted connections, so an in-flight session is never cut off
    /// mid-conversation.
    pub fn connections_closed(&self) -> u64 {
        self.shared().closed.load(Ordering::SeqCst)
    }

    /// The served target (e.g. to attach a [`CalibrationRefresher`]).
    pub fn target(&self) -> Arc<Target> {
        Arc::clone(self.shared().service.target())
    }

    fn shared(&self) -> &Arc<Shared> {
        self.shared.as_ref().expect("server already shut down")
    }

    /// Graceful shutdown: stop accepting connections, let every handler
    /// finish its in-flight conversation, drain the job queue, join the
    /// pool, and report counters.
    pub fn shutdown(mut self) -> NetStats {
        self.stop_accepting();
        let shared = self.shared.take().expect("server already shut down");
        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("connection threads still hold the server state"));
        let connections = shared.connections.load(Ordering::SeqCst);
        NetStats {
            connections,
            service: shared.service.shutdown(),
        }
    }

    /// Flag the accept loop down and join it (it joins every connection
    /// handler before returning, so afterwards this object holds the only
    /// `Shared` reference).
    fn stop_accepting(&mut self) {
        if let Some(shared) = self.shared.as_ref() {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        if let Some(handle) = self.accept.take() {
            handle.join().expect("accept thread panicked");
        }
    }
}

impl Drop for NetServer {
    /// Dropping without [`NetServer::shutdown`] still stops the listener,
    /// joins the handlers, and drains the pool (via the service's own
    /// `Drop`).
    fn drop(&mut self) {
        self.stop_accepting();
        // `self.shared` (if still held) drops here; the service Drop
        // closes the queue and joins the workers.
    }
}

/// Poll-accept until the shutdown flag rises; joins every connection
/// handler before returning.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let n = shared.connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(format!("mirage-net-conn-{n}"))
                    .spawn(move || {
                        // Client id 0 is reserved for in-process callers
                        // (`TranspileService::submit`); connections are
                        // distinct fair-share clients starting at 1.
                        handle_connection(stream, &conn_shared, n + 1);
                        conn_shared.closed.fetch_add(1, Ordering::SeqCst);
                    })
                    .expect("failed to spawn connection handler");
                handlers.push(handle);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            // Transient accept errors (per-connection resets etc.): keep
            // listening.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
        // Reap finished handlers as we go so a long-lived server does not
        // accumulate dead join handles.
        let mut live = Vec::with_capacity(handlers.len());
        for handle in handlers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        handlers = live;
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Read-side outcome of waiting for the next request frame.
enum NextFrame {
    /// A complete frame payload.
    Payload(Vec<u8>),
    /// Peer closed / shutdown flagged / stream desynced beyond recovery:
    /// stop serving this connection (after the handler sent any
    /// best-effort error).
    Stop,
    /// Stream-level decode failure with the error to report.
    Broken(FrameError),
}

/// Wait for the next frame, staying responsive to the shutdown flag: the
/// socket blocks at most [`POLL_SLICE`] per read, and between slices the
/// flag is checked. Once the first header byte arrives the frame is read
/// to completion (still in slices, so a stalled peer cannot pin the
/// handler past shutdown *between* frames — mid-frame stalls are bounded
/// by the peer finishing or closing).
const POLL_SLICE: Duration = Duration::from_millis(20);

fn next_frame(stream: &mut TcpStream, shared: &Shared) -> NextFrame {
    // Poll for the first byte so an idle connection notices shutdown.
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return NextFrame::Stop;
        }
        match stream.read(&mut first) {
            Ok(0) => return NextFrame::Stop, // peer closed between frames
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return NextFrame::Stop,
        }
    }
    // First byte in hand: read the rest of the frame through a reader
    // that resumes on timeout slices (the peer has committed to a frame).
    let mut reader = Resumable { inner: stream };
    let mut chained = (&first[..]).chain(&mut reader);
    match frame::read_frame(&mut chained, DEFAULT_MAX_PAYLOAD) {
        Ok(payload) => NextFrame::Payload(payload),
        Err(FrameError::Closed) => NextFrame::Stop,
        Err(e) => NextFrame::Broken(e),
    }
}

/// Adapter that swallows the read-timeout slices `next_frame` configures
/// on the socket, so `read_frame` sees an ordinary blocking stream.
struct Resumable<'a> {
    inner: &'a mut TcpStream,
}

impl Read for Resumable<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

/// Write one response frame through the connection's shared writer. The
/// lock is held across the whole frame, so the forwarder thread and the
/// handler interleave at frame granularity — never mid-frame.
fn send(writer: &Mutex<TcpStream>, response: &Response) -> std::io::Result<()> {
    let mut stream = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    frame::write_frame(&mut *stream, &response.encode())
}

/// One connection's conversation loop. Requests are **pipelined**: this
/// loop keeps reading while the connection's one forwarder thread streams
/// every accepted job's statuses back through the shared writer — so a
/// client can have many jobs in flight on one socket, and one connection's
/// flood of submissions never has to finish before later requests are
/// even read.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>, client: u64) {
    // Low-latency small writes (status updates), sliced reads for
    // shutdown responsiveness.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_SLICE));
    let writer = match stream.try_clone() {
        Ok(write_half) => Arc::new(Mutex::new(write_half)),
        Err(_) => return,
    };
    let (events, received) = mpsc::channel();
    let forward_writer = Arc::clone(&writer);
    let forwarder = match std::thread::Builder::new()
        .name(format!("mirage-net-fwd-{client}"))
        .spawn(move || forward_events(&received, &forward_writer))
    {
        Ok(forwarder) => forwarder,
        Err(_) => return,
    };
    loop {
        let payload = match next_frame(&mut stream, shared) {
            NextFrame::Payload(payload) => payload,
            NextFrame::Stop => break,
            NextFrame::Broken(e) => {
                // The byte stream lost sync; report if the socket still
                // works, then stop reading (accepted jobs still deliver
                // below — outbound frames remain intact).
                let _ = send(
                    &writer,
                    &Response::ProtocolError {
                        message: format!("frame error: {e}"),
                    },
                );
                break;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame was intact, so the stream is still in sync:
                // answer the error and keep the connection.
                if send(
                    &writer,
                    &Response::ProtocolError {
                        message: e.to_string(),
                    },
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Ping => send(
                &writer,
                &Response::Pong {
                    version: PROTO_VERSION,
                    workers: shared.service.workers() as u32,
                    generation: shared.service.target().calibration_generation(),
                },
            )
            .is_ok(),
            Request::Submit(submit) => handle_submit(&writer, shared, client, submit, &events),
        };
        if !keep_going {
            break;
        }
    }
    // Every accepted job still delivers its terminal response (or
    // discovers the peer is gone) before the conversation closes — this
    // is what makes server shutdown graceful from the client's side: the
    // channel disconnects once this sender and every accepted job's are gone.
    drop(events);
    // A forwarder that panicked has already lost its statuses; the
    // conversation still closes (and is counted) normally.
    let _ = forwarder.join();
}

/// The most layout trials, routing trials, refinement passes or trial
/// threads one submission may ask for: far above the paper's 20, and low
/// enough that no request makes a worker allocate or spawn without bound.
const MAX_WIRE_COUNT: u32 = 256;

/// The options a submission runs with, or why it may not run: every count
/// within [`MAX_WIRE_COUNT`] and the expanded trial options valid. Checked
/// before the job is queued, so a bad request costs the server nothing.
fn admit_options(wire: &WireOptions, seed: u64) -> Result<TranspileOptions, String> {
    for (field, value) in [
        ("layout_trials", wire.layout_trials),
        ("routing_trials", wire.routing_trials),
        ("fwd_bwd_iters", wire.fwd_bwd_iters),
        ("threads", wire.threads),
    ] {
        if value > MAX_WIRE_COUNT {
            return Err(format!(
                "{field} {value} is above this server's bound of {MAX_WIRE_COUNT}"
            ));
        }
    }
    let options = wire.to_options(seed);
    options.trials.validate().map_err(|e| e.to_string())?;
    Ok(options)
}

/// Admit one submission; returns false when the connection should close
/// (write failure — any accepted job keeps running in the pool). An
/// accepted job streams its statuses into `events`, the connection's one
/// forwarder channel, so the caller can immediately read the next request.
fn handle_submit(
    writer: &Mutex<TcpStream>,
    shared: &Shared,
    client: u64,
    submit: SubmitRequest,
    events: &mpsc::Sender<JobEvent>,
) -> bool {
    let received = Instant::now();
    if submit.fault.is_some() && !shared.chaos {
        return send(
            writer,
            &Response::Rejected {
                message: "fault injection is disabled on this server".to_owned(),
            },
        )
        .is_ok();
    }
    let options = match admit_options(&submit.options, submit.seed) {
        Ok(options) => options,
        Err(message) => return send(writer, &Response::Rejected { message }).is_ok(),
    };
    let circuit = match from_qasm(&submit.qasm) {
        Ok(circuit) => circuit,
        Err(e) => {
            return send(
                writer,
                &Response::Rejected {
                    message: format!("qasm parse error: {e}"),
                },
            )
            .is_ok()
        }
    };
    let label = submit.label.clone();
    let mut job = TranspileJob::new(submit.label, circuit, options)
        .with_seed(submit.seed)
        .with_lane(submit.lane);
    if let Some(fault) = submit.fault {
        job = job.with_fault(fault);
    }
    if let Some(ms) = submit.deadline_ms {
        job = job.with_deadline(received + Duration::from_millis(ms));
    }
    let pending = shared.service.pending();
    // Hold the writer from queueing until the answer is written: the
    // forwarder needs the same lock, so a job's `Queued` always reaches
    // the wire before its `Running` (the client skips job traffic that
    // precedes its `Queued`).
    let mut stream = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let response = match shared.service.submit_to(client, job, events.clone()) {
        Ok(job_id) => Response::Queued {
            job_id,
            label,
            lane: submit.lane,
            pending: pending as u32,
        },
        Err(ServeError::Busy { lane, capacity }) => Response::Busy {
            lane,
            capacity: capacity as u32,
        },
        Err(ServeError::ShutDown) => Response::Rejected {
            message: "server is shutting down".to_owned(),
        },
    };
    // On a write failure the client is gone; an accepted job still runs
    // and the forwarder discards its undeliverable statuses.
    frame::write_frame(&mut *stream, &response.encode()).is_ok()
}

/// Stream a connection's job events to its shared writer until the
/// channel disconnects; stops early (discarding the rest) only if the peer
/// is unwritable.
fn forward_events(events: &mpsc::Receiver<JobEvent>, writer: &Mutex<TcpStream>) {
    for event in events {
        let response = match event {
            JobEvent::Started {
                job_id,
                worker,
                generation,
                ..
            } => Response::Running {
                job_id,
                worker: worker as u32,
                generation,
            },
            JobEvent::Finished(result) => match result.outcome {
                Ok(out) => Response::Done(JobDone {
                    job_id: result.job_id,
                    label: result.label,
                    qasm: to_qasm(&out.circuit),
                    fingerprint: out.circuit.fingerprint(),
                    generation: out.generation,
                    elapsed_us: u64::try_from(result.elapsed.as_micros()).unwrap_or(u64::MAX),
                    metrics: WireMetrics::from_metrics(&out.metrics),
                }),
                Err(error) => Response::Failed {
                    job_id: result.job_id,
                    label: result.label,
                    kind: match error {
                        JobError::Transpile(_) => FailureKind::Transpile,
                        JobError::DeadlineExceeded { .. } => FailureKind::DeadlineExceeded,
                        JobError::WorkerPanicked { .. } => FailureKind::WorkerPanicked,
                    },
                    message: error.to_string(),
                },
            },
        };
        if send(writer, &response).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_circuit::generators::ghz;
    use mirage_core::RouterKind;
    use mirage_topology::CouplingMap;

    #[test]
    fn admit_options_bounds_every_count() {
        let quick = WireOptions::quick(RouterKind::Mirage);
        assert!(admit_options(&quick, 1).is_ok());
        let fields: [fn(&mut WireOptions) -> &mut u32; 4] = [
            |w| &mut w.layout_trials,
            |w| &mut w.routing_trials,
            |w| &mut w.fwd_bwd_iters,
            |w| &mut w.threads,
        ];
        for field in fields {
            for value in [MAX_WIRE_COUNT + 1, u32::MAX] {
                let mut wire = quick.clone();
                *field(&mut wire) = value;
                let message = admit_options(&wire, 1).unwrap_err();
                assert!(message.contains(&value.to_string()), "{message}");
            }
            let mut wire = quick.clone();
            *field(&mut wire) = MAX_WIRE_COUNT;
            assert!(admit_options(&wire, 1).is_ok());
        }
        // Zero refinement passes and zero threads (host parallelism) are
        // valid; zero layout or routing trials are not.
        let mut wire = quick.clone();
        wire.fwd_bwd_iters = 0;
        wire.threads = 0;
        assert!(admit_options(&wire, 1).is_ok());
        for field in &fields[..2] {
            let mut wire = quick.clone();
            *field(&mut wire) = 0;
            let message = admit_options(&wire, 1).unwrap_err();
            assert!(message.contains("at least one trial"), "{message}");
        }
    }

    #[test]
    fn out_of_bounds_counts_are_rejected_over_the_wire() {
        let target = Arc::new(Target::sqrt_iswap(CouplingMap::line(4)));
        let server = NetServer::bind(target, "127.0.0.1:0", &ServeConfig::new(1)).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let submit = |edit: &dyn Fn(&mut WireOptions)| {
            let mut options = WireOptions::quick(RouterKind::Mirage);
            edit(&mut options);
            SubmitRequest {
                label: "bounds".to_owned(),
                qasm: to_qasm(&ghz(3)),
                seed: 1,
                lane: crate::Lane::Batch,
                deadline_ms: None,
                options,
                fault: None,
            }
        };
        let over = MAX_WIRE_COUNT + 1;
        let edits: [&dyn Fn(&mut WireOptions); 6] = [
            &|w| w.layout_trials = 0,
            &|w| w.routing_trials = 0,
            &|w| w.layout_trials = over,
            &|w| w.routing_trials = over,
            &|w| w.fwd_bwd_iters = over,
            &|w| w.threads = over,
        ];
        for edit in edits {
            match client.submit(submit(edit)) {
                Err(ClientError::Rejected { .. }) => {}
                other => panic!("expected Rejected, got {other:?}"),
            }
            client.ping().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.service.jobs, 0, "nothing was ever queued");
    }
}
