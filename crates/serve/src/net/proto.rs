//! Wire envelopes: the versioned request/response messages that ride
//! inside [`super::frame`] payloads.
//!
//! Every encoded message starts with one **version byte**
//! ([`PROTO_VERSION`]) followed by a message tag and a fixed field order —
//! a hand-rolled binary format (big-endian integers, IEEE-754 bit
//! patterns for floats, length-prefixed UTF-8 for strings) so the crate
//! stays zero-dep. Decoding is total: every malformed input maps to a
//! typed [`ProtoError`], never a panic, and trailing bytes after a
//! well-formed message are themselves an error (a desynced peer should
//! fail loudly, not silently drift).
//!
//! The conversation shape (enforced by `NetServer`, not the codec):
//!
//! ```text
//! client                                server
//!   ── Request::Ping ──────────────────▶
//!   ◀─────────────────── Response::Pong ──
//!   ── Request::Submit(SubmitRequest) ─▶
//!   ◀─ Response::Queued ─ Response::Running ─ Response::Done/Failed ──
//!        (or Response::Busy / Rejected immediately, no job accepted)
//! ```

use crate::queue::Lane;
use crate::InjectedFault;
use mirage_core::pipeline::Metrics;
use mirage_core::trials::Metric;
use mirage_core::{RouterKind, TranspileOptions};

/// Protocol version this build speaks. A decoder seeing any other value
/// refuses with [`ProtoError::UnsupportedVersion`] — fields may be
/// reordered or re-typed between versions, so guessing is worse than
/// failing.
///
/// v2 (retries + chaos): submissions may carry an [`InjectedFault`], job
/// responses (`Queued` / `Done` / `Failed`) echo the submission label so a
/// retrying client can verify it is reading answers for *its* job even
/// after duplicated or replayed request frames, and `Failed` can report
/// [`FailureKind::WorkerPanicked`].
///
/// v3 (one trial control): [`WireOptions`] drops the `parallel` flag;
/// `threads` alone sets the server-side trial workers (0 = every core,
/// 1 = inline).
pub const PROTO_VERSION: u8 = 3;

/// Why a message could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The leading version byte is not [`PROTO_VERSION`].
    UnsupportedVersion(u8),
    /// A tag or enum discriminant had no defined meaning.
    UnknownTag {
        /// Which field carried the bad tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// The message ended before a field was complete.
    Truncated {
        /// The field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// Bytes remained after a complete message — a framing/desync bug.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8 {
        /// Which field held the bad bytes.
        what: &'static str,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTO_VERSION})"
                )
            }
            ProtoError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            ProtoError::Truncated { what } => write!(f, "message truncated while decoding {what}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            ProtoError::InvalidUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Primitive reader/writer
// ---------------------------------------------------------------------------

/// Append-only primitive writer; infallible (the message length cap is
/// the frame layer's business).
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            buf: vec![PROTO_VERSION],
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    fn str(&mut self, s: &str) {
        assert!(
            u32::try_from(s.len()).is_ok(),
            "string field too long for a u32 length"
        );
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
}

/// Cursor-based primitive reader; every accessor is total.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Result<Reader<'a>, ProtoError> {
        let mut r = Reader { buf, pos: 0 };
        let version = r.u8("version")?;
        if version != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion(version));
        }
        Ok(r)
    }
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Truncated { what })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }
    fn bool(&mut self, what: &'static str) -> Result<bool, ProtoError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::UnknownTag { what, tag }),
        }
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(
            self.take(4, what)?.try_into().expect("slice is 4 bytes"),
        ))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(
            self.take(8, what)?.try_into().expect("slice is 8 bytes"),
        ))
    }
    fn f64(&mut self, what: &'static str) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    fn str(&mut self, what: &'static str) -> Result<String, ProtoError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::InvalidUtf8 { what })
    }
    fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, ProtoError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            tag => Err(ProtoError::UnknownTag { what, tag }),
        }
    }
    fn finish(self) -> Result<(), ProtoError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes { extra })
        }
    }
}

fn lane_to_wire(lane: Lane) -> u8 {
    lane.index() as u8
}

fn lane_from_wire(r: &mut Reader<'_>) -> Result<Lane, ProtoError> {
    let tag = r.u8("lane")?;
    Lane::from_index(tag).ok_or(ProtoError::UnknownTag { what: "lane", tag })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The transpilation options a request carries over the wire — the
/// serving-relevant subset of [`TranspileOptions`].
///
/// [`WireOptions::to_options`] expands this onto
/// [`TranspileOptions::quick`] for the chosen router, so fields *not*
/// carried (strategy/aggression mixes, VF2 budget, mirror λ) take the
/// same defaults on every server; a request is fully reproducible from
/// its envelope alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOptions {
    /// Router selection.
    pub router: RouterKind,
    /// Post-selection metric; `None` keeps the router's default.
    pub metric: Option<Metric>,
    /// Independent initial layouts.
    pub layout_trials: u32,
    /// Independent routing runs per layout.
    pub routing_trials: u32,
    /// Forward–backward refinement passes per layout.
    pub fwd_bwd_iters: u32,
    /// Try a VF2 embedding first and skip routing when one exists.
    pub use_vf2: bool,
    /// Server-side layout-trial workers: 0 = host parallelism, 1 =
    /// inline on the job's worker. Bit-identical at any count, so this is
    /// purely a latency knob.
    pub threads: u32,
}

impl WireOptions {
    /// The wire image of [`TranspileOptions::quick`] for `router`.
    pub fn quick(router: RouterKind) -> WireOptions {
        WireOptions::from_options(&TranspileOptions::quick(router, 0))
    }

    /// Project full [`TranspileOptions`] onto the wire subset (mixes and
    /// budgets are dropped — see the type docs).
    pub fn from_options(options: &TranspileOptions) -> WireOptions {
        WireOptions {
            router: options.router,
            metric: Some(options.trials.metric),
            layout_trials: options.trials.layout_trials as u32,
            routing_trials: options.trials.routing_trials as u32,
            fwd_bwd_iters: options.trials.fwd_bwd_iters as u32,
            use_vf2: options.use_vf2,
            threads: options.trials.threads as u32,
        }
    }

    /// Expand onto [`TranspileOptions::quick`] with `seed`. This is the
    /// *defining* server-side interpretation: an in-process run with the
    /// returned options and the same seed is bit-identical to the served
    /// result.
    pub fn to_options(&self, seed: u64) -> TranspileOptions {
        let mut options = TranspileOptions::quick(self.router, seed);
        if let Some(metric) = self.metric {
            options = options.with_metric(metric);
        }
        options.trials.layout_trials = self.layout_trials as usize;
        options.trials.routing_trials = self.routing_trials as usize;
        options.trials.fwd_bwd_iters = self.fwd_bwd_iters as usize;
        options.use_vf2 = self.use_vf2;
        options.trials.threads = self.threads as usize;
        options
    }

    fn encode(&self, w: &mut Writer) {
        w.u8(router_to_wire(self.router));
        match self.metric {
            None => w.u8(255),
            Some(m) => w.u8(metric_to_wire(m)),
        }
        w.u32(self.layout_trials);
        w.u32(self.routing_trials);
        w.u32(self.fwd_bwd_iters);
        w.bool(self.use_vf2);
        w.u32(self.threads);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireOptions, ProtoError> {
        Ok(WireOptions {
            router: router_from_wire(r.u8("router")?)?,
            metric: match r.u8("metric")? {
                255 => None,
                tag => Some(metric_from_wire(tag)?),
            },
            layout_trials: r.u32("layout_trials")?,
            routing_trials: r.u32("routing_trials")?,
            fwd_bwd_iters: r.u32("fwd_bwd_iters")?,
            use_vf2: r.bool("use_vf2")?,
            threads: r.u32("threads")?,
        })
    }
}

fn router_to_wire(router: RouterKind) -> u8 {
    match router {
        RouterKind::Mirage => 0,
        RouterKind::MirageSwaps => 1,
        RouterKind::Sabre => 2,
    }
}

fn router_from_wire(tag: u8) -> Result<RouterKind, ProtoError> {
    match tag {
        0 => Ok(RouterKind::Mirage),
        1 => Ok(RouterKind::MirageSwaps),
        2 => Ok(RouterKind::Sabre),
        tag => Err(ProtoError::UnknownTag {
            what: "router",
            tag,
        }),
    }
}

fn metric_to_wire(metric: Metric) -> u8 {
    match metric {
        Metric::SwapCount => 0,
        Metric::Depth => 1,
        Metric::EstimatedSuccess => 2,
    }
}

fn metric_from_wire(tag: u8) -> Result<Metric, ProtoError> {
    match tag {
        0 => Ok(Metric::SwapCount),
        1 => Ok(Metric::Depth),
        2 => Ok(Metric::EstimatedSuccess),
        tag => Err(ProtoError::UnknownTag {
            what: "metric",
            tag,
        }),
    }
}

/// A transpile-this request: everything a server needs to produce a
/// deterministic result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Caller label, echoed back untouched.
    pub label: String,
    /// The circuit, as OpenQASM 2 text.
    pub qasm: String,
    /// Trial seed — with the options, the full determinism input.
    pub seed: u64,
    /// Queue lane (interactive jobs dequeue first).
    pub lane: Lane,
    /// Relative deadline in milliseconds from server receipt; a job
    /// still queued past it is rejected at dequeue. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Transpilation options.
    pub options: WireOptions,
    /// Chaos hook: ask the worker to panic instead of transpiling.
    /// Servers not started in chaos mode reject faulted submissions.
    pub fault: Option<InjectedFault>,
}

fn fault_to_wire(fault: Option<InjectedFault>) -> u8 {
    match fault {
        None => 0,
        Some(InjectedFault::Panic) => 1,
        Some(InjectedFault::PanicKill) => 2,
    }
}

fn fault_from_wire(r: &mut Reader<'_>) -> Result<Option<InjectedFault>, ProtoError> {
    match r.u8("fault")? {
        0 => Ok(None),
        1 => Ok(Some(InjectedFault::Panic)),
        2 => Ok(Some(InjectedFault::PanicKill)),
        tag => Err(ProtoError::UnknownTag { what: "fault", tag }),
    }
}

/// What a client can ask of a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / identity probe; answered by [`Response::Pong`].
    Ping,
    /// Submit one job; answered by a status stream (see module docs).
    Submit(SubmitRequest),
}

const REQ_PING: u8 = 0;
const REQ_SUBMIT: u8 = 1;

impl Request {
    /// Serialize (version byte included).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping => w.u8(REQ_PING),
            Request::Submit(req) => {
                w.u8(REQ_SUBMIT);
                w.str(&req.label);
                w.str(&req.qasm);
                w.u64(req.seed);
                w.u8(lane_to_wire(req.lane));
                w.opt_u64(req.deadline_ms);
                req.options.encode(&mut w);
                w.u8(fault_to_wire(req.fault));
            }
        }
        w.buf
    }

    /// Deserialize; checks the version byte first and rejects trailing
    /// bytes.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`] variant.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(bytes)?;
        let request = match r.u8("request tag")? {
            REQ_PING => Request::Ping,
            REQ_SUBMIT => Request::Submit(SubmitRequest {
                label: r.str("label")?,
                qasm: r.str("qasm")?,
                seed: r.u64("seed")?,
                lane: lane_from_wire(&mut r)?,
                deadline_ms: r.opt_u64("deadline_ms")?,
                options: WireOptions::decode(&mut r)?,
                fault: fault_from_wire(&mut r)?,
            }),
            tag => {
                return Err(ProtoError::UnknownTag {
                    what: "request",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The transpilation metrics a [`Response::Done`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetrics {
    /// Duration-weighted critical path (normalized units).
    pub depth_estimate: f64,
    /// Sum of two-qubit decomposition costs.
    pub total_gate_cost: f64,
    /// Two-qubit gates in the output.
    pub two_qubit_gates: u32,
    /// SWAPs inserted by routing.
    pub swaps: u32,
    /// Mirror gates accepted.
    pub mirrors: u32,
    /// Estimated success probability under the serving calibration.
    pub estimated_success: f64,
}

impl WireMetrics {
    /// Project the pipeline's [`Metrics`] onto the wire subset.
    pub fn from_metrics(m: &Metrics) -> WireMetrics {
        WireMetrics {
            depth_estimate: m.depth_estimate,
            total_gate_cost: m.total_gate_cost,
            two_qubit_gates: m.two_qubit_gates as u32,
            swaps: m.swaps_inserted as u32,
            mirrors: m.mirrors_accepted as u32,
            estimated_success: m.estimated_success,
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.f64(self.depth_estimate);
        w.f64(self.total_gate_cost);
        w.u32(self.two_qubit_gates);
        w.u32(self.swaps);
        w.u32(self.mirrors);
        w.f64(self.estimated_success);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireMetrics, ProtoError> {
        Ok(WireMetrics {
            depth_estimate: r.f64("depth_estimate")?,
            total_gate_cost: r.f64("total_gate_cost")?,
            two_qubit_gates: r.u32("two_qubit_gates")?,
            swaps: r.u32("swaps")?,
            mirrors: r.u32("mirrors")?,
            estimated_success: r.f64("estimated_success")?,
        })
    }
}

/// The payload of a successful job completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDone {
    /// Server-assigned job id.
    pub job_id: u64,
    /// The submission label, echoed back so a retrying client can verify
    /// this terminal answer belongs to the job it is waiting on.
    pub label: String,
    /// The routed circuit, as OpenQASM 2 text.
    pub qasm: String,
    /// [`Circuit::fingerprint`](mirage_circuit::Circuit::fingerprint) of
    /// the routed circuit — the bit-identity witness a client can compare
    /// against an in-process run without re-parsing the QASM.
    pub fingerprint: u64,
    /// Calibration generation the job ran under.
    pub generation: u64,
    /// Server-side execution time, microseconds (queue wait excluded).
    pub elapsed_us: u64,
    /// Result metrics.
    pub metrics: WireMetrics,
}

/// Why a dispatched job failed (mirrors
/// [`JobError`](crate::JobError) across the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The transpiler rejected the job.
    Transpile,
    /// The deadline passed while the job was still queued.
    DeadlineExceeded,
    /// The worker panicked while running the job. Terminal and **not
    /// retryable**: the same submission would deterministically panic
    /// again.
    WorkerPanicked,
}

/// What a server sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Protocol version the server speaks.
        version: u8,
        /// Worker threads in the pool.
        workers: u32,
        /// Current calibration generation.
        generation: u64,
    },
    /// The job was accepted and queued.
    Queued {
        /// Server-assigned job id (unique per server lifetime).
        job_id: u64,
        /// The submission label, echoed so a retrying client can match
        /// this acceptance to the request it actually sent.
        label: String,
        /// The lane it was queued into.
        lane: Lane,
        /// Jobs ahead of it across both lanes at accept time.
        pending: u32,
    },
    /// A worker dequeued the job and is running it.
    Running {
        /// The job.
        job_id: u64,
        /// Worker index that claimed it.
        worker: u32,
        /// Calibration generation it runs under.
        generation: u64,
    },
    /// Terminal: the job succeeded.
    Done(JobDone),
    /// Terminal: the job was dispatched but failed.
    Failed {
        /// The job.
        job_id: u64,
        /// The submission label, echoed for client-side correlation.
        label: String,
        /// Typed failure class.
        kind: FailureKind,
        /// Human-readable detail.
        message: String,
    },
    /// Terminal, pre-queue: admission control rejected the submission —
    /// the lane is at capacity. Nothing was queued; retry later.
    Busy {
        /// The full lane.
        lane: Lane,
        /// Its configured per-lane capacity.
        capacity: u32,
    },
    /// Terminal, pre-queue: the request was well-formed but unusable
    /// (unparseable QASM, server shutting down).
    Rejected {
        /// Human-readable reason.
        message: String,
    },
    /// The envelope itself could not be understood (decode error). The
    /// connection stays usable — framing kept the stream in sync.
    ProtocolError {
        /// Human-readable reason.
        message: String,
    },
}

const RESP_PONG: u8 = 0;
const RESP_QUEUED: u8 = 1;
const RESP_RUNNING: u8 = 2;
const RESP_DONE: u8 = 3;
const RESP_FAILED: u8 = 4;
const RESP_BUSY: u8 = 5;
const RESP_REJECTED: u8 = 6;
const RESP_PROTOCOL_ERROR: u8 = 7;

impl Response {
    /// Serialize (version byte included).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong {
                version,
                workers,
                generation,
            } => {
                w.u8(RESP_PONG);
                w.u8(*version);
                w.u32(*workers);
                w.u64(*generation);
            }
            Response::Queued {
                job_id,
                label,
                lane,
                pending,
            } => {
                w.u8(RESP_QUEUED);
                w.u64(*job_id);
                w.str(label);
                w.u8(lane_to_wire(*lane));
                w.u32(*pending);
            }
            Response::Running {
                job_id,
                worker,
                generation,
            } => {
                w.u8(RESP_RUNNING);
                w.u64(*job_id);
                w.u32(*worker);
                w.u64(*generation);
            }
            Response::Done(done) => {
                w.u8(RESP_DONE);
                w.u64(done.job_id);
                w.str(&done.label);
                w.str(&done.qasm);
                w.u64(done.fingerprint);
                w.u64(done.generation);
                w.u64(done.elapsed_us);
                done.metrics.encode(&mut w);
            }
            Response::Failed {
                job_id,
                label,
                kind,
                message,
            } => {
                w.u8(RESP_FAILED);
                w.u64(*job_id);
                w.str(label);
                w.u8(match kind {
                    FailureKind::Transpile => 0,
                    FailureKind::DeadlineExceeded => 1,
                    FailureKind::WorkerPanicked => 2,
                });
                w.str(message);
            }
            Response::Busy { lane, capacity } => {
                w.u8(RESP_BUSY);
                w.u8(lane_to_wire(*lane));
                w.u32(*capacity);
            }
            Response::Rejected { message } => {
                w.u8(RESP_REJECTED);
                w.str(message);
            }
            Response::ProtocolError { message } => {
                w.u8(RESP_PROTOCOL_ERROR);
                w.str(message);
            }
        }
        w.buf
    }

    /// Deserialize; checks the version byte first and rejects trailing
    /// bytes.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`] variant.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(bytes)?;
        let response = match r.u8("response tag")? {
            RESP_PONG => Response::Pong {
                version: r.u8("version")?,
                workers: r.u32("workers")?,
                generation: r.u64("generation")?,
            },
            RESP_QUEUED => Response::Queued {
                job_id: r.u64("job_id")?,
                label: r.str("label")?,
                lane: lane_from_wire(&mut r)?,
                pending: r.u32("pending")?,
            },
            RESP_RUNNING => Response::Running {
                job_id: r.u64("job_id")?,
                worker: r.u32("worker")?,
                generation: r.u64("generation")?,
            },
            RESP_DONE => Response::Done(JobDone {
                job_id: r.u64("job_id")?,
                label: r.str("label")?,
                qasm: r.str("qasm")?,
                fingerprint: r.u64("fingerprint")?,
                generation: r.u64("generation")?,
                elapsed_us: r.u64("elapsed_us")?,
                metrics: WireMetrics::decode(&mut r)?,
            }),
            RESP_FAILED => Response::Failed {
                job_id: r.u64("job_id")?,
                label: r.str("label")?,
                kind: match r.u8("failure kind")? {
                    0 => FailureKind::Transpile,
                    1 => FailureKind::DeadlineExceeded,
                    2 => FailureKind::WorkerPanicked,
                    tag => {
                        return Err(ProtoError::UnknownTag {
                            what: "failure kind",
                            tag,
                        })
                    }
                },
                message: r.str("message")?,
            },
            RESP_BUSY => Response::Busy {
                lane: lane_from_wire(&mut r)?,
                capacity: r.u32("capacity")?,
            },
            RESP_REJECTED => Response::Rejected {
                message: r.str("message")?,
            },
            RESP_PROTOCOL_ERROR => Response::ProtocolError {
                message: r.str("message")?,
            },
            tag => {
                return Err(ProtoError::UnknownTag {
                    what: "response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_submit() -> Request {
        Request::Submit(SubmitRequest {
            label: "qft-8 №1".to_owned(),
            qasm: "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n".to_owned(),
            seed: 0xDEADBEEF,
            lane: Lane::Interactive,
            deadline_ms: Some(1500),
            options: WireOptions::quick(RouterKind::Mirage),
            fault: None,
        })
    }

    fn faulted_submit(fault: InjectedFault) -> Request {
        match sample_submit() {
            Request::Submit(mut req) => {
                req.fault = Some(fault);
                Request::Submit(req)
            }
            other => unreachable!("sample_submit is a Submit, got {other:?}"),
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping,
            sample_submit(),
            faulted_submit(InjectedFault::Panic),
            faulted_submit(InjectedFault::PanicKill),
        ] {
            let bytes = request.encode();
            assert_eq!(bytes[0], PROTO_VERSION);
            assert_eq!(Request::decode(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn unknown_fault_tag_is_typed() {
        let mut bytes = sample_submit().encode();
        // The fault byte is the last byte of a Submit envelope.
        *bytes.last_mut().unwrap() = 9;
        assert_eq!(
            Request::decode(&bytes),
            Err(ProtoError::UnknownTag {
                what: "fault",
                tag: 9
            })
        );
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Pong {
                version: PROTO_VERSION,
                workers: 4,
                generation: 9,
            },
            Response::Queued {
                job_id: 3,
                label: "qft-8 №1".to_owned(),
                lane: Lane::Batch,
                pending: 17,
            },
            Response::Running {
                job_id: 3,
                worker: 2,
                generation: 9,
            },
            Response::Done(JobDone {
                job_id: 3,
                label: "qft-8 №1".to_owned(),
                qasm: "OPENQASM 2.0;\n".to_owned(),
                fingerprint: 0x0123_4567_89AB_CDEF,
                generation: 9,
                elapsed_us: 1234,
                metrics: WireMetrics {
                    depth_estimate: 12.5,
                    total_gate_cost: 40.25,
                    two_qubit_gates: 31,
                    swaps: 4,
                    mirrors: 7,
                    estimated_success: 0.875,
                },
            }),
            Response::Failed {
                job_id: 4,
                label: "late".to_owned(),
                kind: FailureKind::DeadlineExceeded,
                message: "deadline exceeded".to_owned(),
            },
            Response::Failed {
                job_id: 5,
                label: "boom".to_owned(),
                kind: FailureKind::WorkerPanicked,
                message: "worker panicked: injected fault".to_owned(),
            },
            Response::Busy {
                lane: Lane::Interactive,
                capacity: 64,
            },
            Response::Rejected {
                message: "qasm parse error".to_owned(),
            },
            Response::ProtocolError {
                message: "unknown request tag 9".to_owned(),
            },
        ];
        for response in responses {
            let bytes = response.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = Request::Ping.encode();
        bytes[0] = PROTO_VERSION + 1;
        assert_eq!(
            Request::decode(&bytes),
            Err(ProtoError::UnsupportedVersion(PROTO_VERSION + 1))
        );
    }

    #[test]
    fn wire_options_expand_deterministically() {
        let wire = WireOptions::quick(RouterKind::Sabre);
        let a = wire.to_options(42);
        let b = wire.to_options(42);
        assert_eq!(a.trials.seed, 42);
        assert_eq!(a.router, RouterKind::Sabre);
        assert_eq!(a.trials.layout_trials, b.trials.layout_trials);
        // Round-tripping through the wire is lossless for the carried
        // subset.
        assert_eq!(WireOptions::from_options(&a), wire);
    }
}
