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
//! keeps reading [`Request`]s while a per-job forwarder thread streams
//! each accepted job's `Queued` → `Running` → `Done`/`Failed` responses
//! back through a shared, frame-atomic writer. A client may therefore
//! have many jobs in flight on one socket; protocol v2 echoes the
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
use mirage_core::Target;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How to run a [`NetServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads in the transpile pool.
    pub workers: usize,
    /// Per-client, per-lane admission bound; `None` = unbounded (see
    /// [`TranspileService::with_queue_capacity`]).
    pub queue_capacity: Option<usize>,
    /// Largest frame payload a connection will accept.
    pub max_payload: u32,
    /// Accept submissions carrying an injected fault
    /// ([`SubmitRequest::fault`]). Off by default: a production server
    /// rejects faulted submissions before queueing them.
    pub chaos: bool,
}

impl ServeConfig {
    /// Defaults: `workers` threads, unbounded queue, 16 MiB frames,
    /// fault injection disabled.
    pub fn new(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_capacity: None,
            max_payload: DEFAULT_MAX_PAYLOAD,
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

    /// Cap accepted frame payloads (builder style).
    #[must_use]
    pub fn with_max_payload(mut self, max_payload: u32) -> ServeConfig {
        self.max_payload = max_payload;
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
    max_payload: u32,
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
            max_payload: config.max_payload,
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
    match frame::read_frame(&mut chained, shared.max_payload) {
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
/// lock is held across the whole frame, so forwarder threads and the
/// handler interleave at frame granularity — never mid-frame.
fn send(writer: &Mutex<TcpStream>, response: &Response) -> std::io::Result<()> {
    let mut stream = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    frame::write_frame(&mut *stream, &response.encode())
}

/// One connection's conversation loop. Requests are **pipelined**: this
/// loop keeps reading while per-job forwarder threads stream each
/// accepted job's statuses back through the shared writer — so a client
/// can have many jobs in flight on one socket, and one connection's
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
    let mut forwarders: Vec<std::thread::JoinHandle<()>> = Vec::new();
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
            Request::Submit(submit) => {
                handle_submit(&writer, shared, client, submit, &mut forwarders)
            }
        };
        // Reap finished forwarders as we go so a long-lived connection
        // does not accumulate dead join handles.
        let mut live = Vec::with_capacity(forwarders.len());
        for handle in forwarders.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        forwarders = live;
        if !keep_going {
            break;
        }
    }
    // Every accepted job still delivers its terminal response (or
    // discovers the peer is gone) before the conversation closes — this
    // is what makes server shutdown graceful from the client's side.
    for handle in forwarders {
        let _ = handle.join();
    }
}

/// Admit one submission; returns false when the connection should close
/// (write failure — any accepted job keeps running in the pool). On
/// acceptance, spawns a forwarder thread that streams the job's statuses
/// so the caller can immediately read the next request.
fn handle_submit(
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared,
    client: u64,
    submit: SubmitRequest,
    forwarders: &mut Vec<std::thread::JoinHandle<()>>,
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
    let options = submit.options.to_options(submit.seed);
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
    let handle = match shared.service.submit_from(client, job) {
        Ok(handle) => handle,
        Err(ServeError::Busy { lane, capacity }) => {
            return send(
                writer,
                &Response::Busy {
                    lane,
                    capacity: capacity as u32,
                },
            )
            .is_ok()
        }
        Err(ServeError::ShutDown) => {
            return send(
                writer,
                &Response::Rejected {
                    message: "server is shutting down".to_owned(),
                },
            )
            .is_ok()
        }
    };
    if send(
        writer,
        &Response::Queued {
            job_id: handle.job_id,
            label,
            lane: submit.lane,
            pending: pending as u32,
        },
    )
    .is_err()
    {
        // Client gone; drop the handle — the pool still runs the job and
        // discards the undeliverable result.
        return false;
    }
    let forward_writer = Arc::clone(writer);
    let thread = std::thread::Builder::new()
        .name(format!("mirage-net-fwd-{client}-{}", handle.job_id))
        .spawn(move || forward_events(&handle, &forward_writer))
        .expect("failed to spawn forwarder thread");
    forwarders.push(thread);
    true
}

/// Stream one job's events to the connection's shared writer; stops
/// early (discarding the rest) only if the peer is unwritable.
fn forward_events(handle: &crate::JobHandle, writer: &Mutex<TcpStream>) {
    let label = handle.label.clone();
    loop {
        match handle.recv_event() {
            JobEvent::Started {
                job_id,
                worker,
                generation,
                ..
            } => {
                if send(
                    writer,
                    &Response::Running {
                        job_id,
                        worker: worker as u32,
                        generation,
                    },
                )
                .is_err()
                {
                    return;
                }
            }
            JobEvent::Finished(result) => {
                let response = match result.outcome {
                    Ok(out) => Response::Done(JobDone {
                        job_id: result.job_id,
                        label,
                        qasm: to_qasm(&out.circuit),
                        fingerprint: out.circuit.fingerprint(),
                        generation: out.generation,
                        elapsed_us: u64::try_from(result.elapsed.as_micros()).unwrap_or(u64::MAX),
                        metrics: WireMetrics::from_metrics(&out.metrics),
                    }),
                    Err(error) => Response::Failed {
                        job_id: result.job_id,
                        label,
                        kind: match error {
                            JobError::Transpile(_) => FailureKind::Transpile,
                            JobError::DeadlineExceeded { .. } => FailureKind::DeadlineExceeded,
                            JobError::WorkerPanicked { .. } => FailureKind::WorkerPanicked,
                        },
                        message: error.to_string(),
                    },
                };
                let _ = send(writer, &response);
                return;
            }
        }
    }
}
