//! A blocking, retrying client for the mirage-serve wire protocol.
//!
//! [`NetClient`] owns one connection (lazily re-established through a
//! [`Connector`]) and drives the request/response conversation defined in
//! [`proto`](super::proto): ping for liveness, submit-and-follow for
//! jobs. It is deliberately synchronous — one in-flight job per client —
//! because the server handles connections concurrently; callers that want
//! parallelism open more clients (see the loopback throughput bench).
//!
//! ## Retry semantics
//!
//! With a [`RetryPolicy`], transport faults (I/O errors, frame
//! truncation/corruption, protocol desync) trigger a **reconnect and
//! resubmit** after a seeded-jitter exponential backoff, and a typed
//! [`ClientError::Busy`] retries on the same connection. Resubmission is
//! idempotent by construction: a submission is keyed by its label and
//! fully determined by (qasm, options, seed), so a server running the
//! "same" job twice — a retry after a lost response, or a
//! chaos-duplicated request frame — produces bit-identical results, and
//! it does not matter which copy's answer the client reads. Protocol v2
//! echoes the submission label on `Queued`/`Done`/`Failed`, which lets
//! the client *verify* each answer belongs to its current job and
//! silently skip stale answers from phantom duplicates instead of
//! desyncing.
//!
//! Server-reported terminal answers — [`ClientError::Rejected`] and
//! [`ClientError::Failed`] (including
//! [`FailureKind::WorkerPanicked`]) — are **never retried**: the job
//! deterministically fails; retrying would fail identically.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use super::chaos::{ChaosPlan, ChaosTransport};
use super::frame::{self, FrameError, DEFAULT_MAX_PAYLOAD};
use super::proto::{FailureKind, JobDone, ProtoError, Request, Response, SubmitRequest};
use crate::queue::Lane;
use mirage_math::Rng;

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport-level I/O failure (connect, write).
    Io(std::io::ErrorKind),
    /// The byte stream failed frame decoding.
    Frame(FrameError),
    /// A frame arrived but its envelope could not be decoded.
    Proto(ProtoError),
    /// The server refused admission: this client's lane budget is full.
    Busy {
        /// The full lane.
        lane: Lane,
        /// The configured per-client, per-lane capacity.
        capacity: u32,
    },
    /// The server rejected the request before queueing it.
    Rejected {
        /// Server-supplied reason.
        message: String,
    },
    /// The job ran (or was dispatched) and failed.
    Failed {
        /// Server-assigned job id.
        job_id: u64,
        /// Typed failure class.
        kind: FailureKind,
        /// Server-supplied detail.
        message: String,
    },
    /// The server reported our envelope as malformed, or answered with a
    /// message that does not fit the conversation at this point.
    Unexpected {
        /// What arrived, or what the server complained about.
        what: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy { lane, capacity } => {
                write!(f, "server busy: {lane} lane full ({capacity} jobs queued)")
            }
            ClientError::Rejected { message } => write!(f, "request rejected: {message}"),
            ClientError::Failed {
                job_id,
                kind,
                message,
            } => {
                let kind = match kind {
                    FailureKind::Transpile => "transpile error",
                    FailureKind::DeadlineExceeded => "deadline exceeded",
                    FailureKind::WorkerPanicked => "worker panicked",
                };
                write!(f, "job {job_id} failed ({kind}): {message}")
            }
            ClientError::Unexpected { what } => write!(f, "unexpected server message: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e.kind())
    }
}

/// How a failed attempt should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// Tear the connection down and retry on a fresh one.
    Reconnect,
    /// Retry on the same connection (typed backpressure, nothing broke).
    Retry,
    /// A deterministic answer; retrying would reproduce it.
    Terminal,
}

fn recovery(error: &ClientError) -> Recovery {
    match error {
        // Transport and coherence faults: the connection state is suspect.
        ClientError::Io(_)
        | ClientError::Frame(_)
        | ClientError::Proto(_)
        | ClientError::Unexpected { .. } => Recovery::Reconnect,
        // Typed backpressure: the connection is fine, the lane is full.
        ClientError::Busy { .. } => Recovery::Retry,
        // Deterministic server verdicts (including WorkerPanicked).
        ClientError::Rejected { .. } | ClientError::Failed { .. } => Recovery::Terminal,
    }
}

/// A byte transport a [`NetClient`] can speak frames over. Blanket-implemented
/// for every `Read + Write + Send` type (TCP streams, chaos proxies, in-memory
/// test pipes).
pub trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// Produces fresh [`Transport`]s on demand — the client's reconnect hook.
pub trait Connector: Send {
    /// Establish a new transport to the server.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] (or wrapper-specific errors) on failure.
    fn connect(&mut self) -> Result<Box<dyn Transport>, ClientError>;
}

/// The standard TCP connector: resolved once, `TCP_NODELAY` set on every
/// connection.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addrs: Vec<SocketAddr>,
}

impl TcpConnector {
    /// Resolve `addr` now (so retries never re-resolve mid-flight).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when resolution fails or yields no address.
    pub fn new<A: ToSocketAddrs>(addr: A) -> Result<TcpConnector, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::ErrorKind::AddrNotAvailable));
        }
        Ok(TcpConnector { addrs })
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, ClientError> {
        let stream = TcpStream::connect(&self.addrs[..])?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    }
}

/// A connector that wraps every connection of an inner connector in a
/// [`ChaosTransport`] drawing from one shared [`ChaosPlan`] — so the
/// fault schedule *continues* across reconnects instead of restarting
/// (a schedule that restarted would replay the same first fault forever).
pub struct ChaosConnector<C> {
    inner: C,
    plan: ChaosPlan,
}

impl<C: Connector> ChaosConnector<C> {
    /// Wrap `inner`, injecting faults from `plan`.
    pub fn new(inner: C, plan: ChaosPlan) -> ChaosConnector<C> {
        ChaosConnector { inner, plan }
    }

    /// The shared plan (for stats).
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }
}

impl<C: Connector> Connector for ChaosConnector<C> {
    fn connect(&mut self) -> Result<Box<dyn Transport>, ClientError> {
        let transport = self.inner.connect()?;
        Ok(Box::new(ChaosTransport::new(transport, self.plan.clone())))
    }
}

/// Cap on one retry's backoff.
const MAX_RETRY_DELAY: Duration = Duration::from_millis(50);

/// Bounded retry with seeded-jitter exponential backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry, up to
    /// 50 ms.
    pub base_delay: Duration,
    /// Seed for the jitter stream — retries are as deterministic as
    /// everything else in this workspace.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every error surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// Retry up to `max_attempts` total attempts, backing off from 1 ms
    /// toward 50 ms.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(1),
            seed: 0x8E7_124,
        }
    }

    /// Override the initial backoff (builder style).
    #[must_use]
    pub fn with_base_delay(mut self, delay: Duration) -> RetryPolicy {
        self.base_delay = delay;
        self
    }

    /// Override the jitter seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Backoff before retry number `retry` (0-based): `base · 2^retry`,
    /// capped, scaled by a jitter factor in `[0.5, 1.0)` drawn from `rng`
    /// so a fleet of retrying clients decorrelates instead of thundering
    /// back in lockstep.
    fn backoff(&self, retry: u32, rng: &mut Rng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(retry.min(16)))
            .min(MAX_RETRY_DELAY);
        exp.mul_f64(0.5 + rng.uniform() / 2.0)
    }
}

/// What the server reported about itself in a pong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub version: u8,
    /// Worker threads in its pool.
    pub workers: u32,
    /// Its current calibration generation.
    pub generation: u64,
}

/// The full observed lifecycle of one successfully served job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job_id: u64,
    /// Whether a `Running` status was observed before the terminal
    /// response (false only if the job finished faster than the status
    /// could be streamed — the protocol does not guarantee the edge).
    pub saw_running: bool,
    /// Jobs ahead of this one at accept time.
    pub queued_behind: u32,
    /// The terminal payload.
    pub done: JobDone,
}

/// One blocking client for a mirage-serve [`NetServer`](super::NetServer):
/// a [`Connector`] to (re)establish transports plus a [`RetryPolicy`].
pub struct NetClient {
    connector: Box<dyn Connector>,
    transport: Option<Box<dyn Transport>>,
    max_payload: u32,
    policy: RetryPolicy,
    jitter: Rng,
    retries: u64,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("connected", &self.transport.is_some())
            .field("policy", &self.policy)
            .field("retries", &self.retries)
            .finish()
    }
}

impl NetClient {
    /// Connect to a server over TCP, with no retries (every fault
    /// surfaces immediately — the PR-7 behavior).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connect/configure failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, ClientError> {
        NetClient::connect_with_retry(addr, RetryPolicy::none())
    }

    /// Connect to a server over TCP with a retry policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connect/configure failure (the initial
    /// connection is attempted eagerly, once).
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
    ) -> Result<NetClient, ClientError> {
        NetClient::with_connector(Box::new(TcpConnector::new(addr)?), policy)
    }

    /// Build a client over any [`Connector`] — the seam chaos tests use to
    /// interpose a [`ChaosConnector`]. Connects eagerly once.
    ///
    /// # Errors
    ///
    /// Whatever the connector's first `connect` reports.
    pub fn with_connector(
        mut connector: Box<dyn Connector>,
        policy: RetryPolicy,
    ) -> Result<NetClient, ClientError> {
        let transport = connector.connect()?;
        let jitter = Rng::new(policy.seed);
        Ok(NetClient {
            connector,
            transport: Some(transport),
            max_payload: DEFAULT_MAX_PAYLOAD,
            policy,
            jitter,
            retries: 0,
        })
    }

    /// How many attempts were retried (reconnects + busy backoffs) over
    /// this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn transport(&mut self) -> Result<&mut Box<dyn Transport>, ClientError> {
        if self.transport.is_none() {
            self.transport = Some(self.connector.connect()?);
        }
        Ok(self.transport.as_mut().expect("just connected"))
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let bytes = request.encode();
        let transport = self.transport()?;
        frame::write_frame(transport, &bytes)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let max_payload = self.max_payload;
        let transport = self.transport()?;
        let payload = frame::read_frame(transport, max_payload)?;
        Ok(Response::decode(&payload)?)
    }

    /// Run one attempt-able operation under the retry policy.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut retry = 0u32;
        loop {
            match op(self) {
                Ok(value) => return Ok(value),
                Err(error) => {
                    let action = recovery(&error);
                    if action == Recovery::Terminal || retry + 1 >= self.policy.max_attempts {
                        return Err(error);
                    }
                    if action == Recovery::Reconnect {
                        self.transport = None;
                    }
                    let delay = self.policy.backoff(retry, &mut self.jitter);
                    retry += 1;
                    self.retries += 1;
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Liveness/identity probe (retried per the policy).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or [`ClientError::Unexpected`] if the
    /// server answers with anything but a pong.
    pub fn ping(&mut self) -> Result<ServerInfo, ClientError> {
        self.with_retry(|client| {
            client.send(&Request::Ping)?;
            loop {
                match client.recv()? {
                    Response::Pong {
                        version,
                        workers,
                        generation,
                    } => {
                        return Ok(ServerInfo {
                            version,
                            workers,
                            generation,
                        })
                    }
                    // Stale job-stream traffic from an earlier attempt
                    // (e.g. a chaos-duplicated submission): skip until the
                    // pong arrives.
                    Response::Queued { .. }
                    | Response::Running { .. }
                    | Response::Done(_)
                    | Response::Failed { .. } => continue,
                    other => return Err(unexpected(&other)),
                }
            }
        })
    }

    /// Submit one job and block until its terminal response, collecting
    /// the streamed statuses along the way. Retried per the policy;
    /// see the [module docs](self) for why resubmission is idempotent.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] / [`ClientError::Rejected`] when the server
    /// refuses the job, [`ClientError::Failed`] when it runs and fails
    /// (none of which are silently retried past the policy), plus the
    /// transport/protocol variants.
    pub fn submit(&mut self, request: SubmitRequest) -> Result<JobOutcome, ClientError> {
        self.with_retry(|client| client.submit_once(&request))
    }

    /// One submit attempt. Label echoes (protocol v2) are verified on
    /// every job-specific response: answers for other labels are stale
    /// phantoms — a duplicated request frame, or the tail of an aborted
    /// earlier attempt on this connection — and are skipped, not trusted.
    fn submit_once(&mut self, request: &SubmitRequest) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Submit(request.clone()))?;
        // Phase 1: our acceptance (or refusal).
        let (job_id, queued_behind) = loop {
            match self.recv()? {
                Response::Queued {
                    job_id,
                    label,
                    pending,
                    ..
                } => {
                    if label == request.label {
                        break (job_id, pending);
                    }
                    // A phantom duplicate's acceptance; its terminal
                    // answer will be skipped by the label check too.
                }
                Response::Busy { lane, capacity } => {
                    return Err(ClientError::Busy { lane, capacity })
                }
                Response::Rejected { message } => return Err(ClientError::Rejected { message }),
                Response::ProtocolError { message } => {
                    return Err(ClientError::Unexpected {
                        what: format!("server reported a protocol error: {message}"),
                    })
                }
                Response::Running { .. } | Response::Done(_) | Response::Failed { .. } => {
                    // Stale stream traffic from before this attempt.
                    continue;
                }
                other => return Err(unexpected(&other)),
            }
        };
        // Phase 2: statuses until our terminal message.
        let mut saw_running = false;
        loop {
            match self.recv()? {
                Response::Running {
                    job_id: running_id, ..
                } => {
                    if running_id == job_id {
                        saw_running = true;
                    }
                }
                Response::Done(done) => {
                    if done.label == request.label {
                        return Ok(JobOutcome {
                            job_id,
                            saw_running,
                            queued_behind,
                            done,
                        });
                    }
                    // A phantom's result: deterministically bit-identical
                    // to ours, but keep waiting for our own id's answer to
                    // stay aligned with the stream.
                }
                Response::Failed {
                    job_id: failed_id,
                    label,
                    kind,
                    message,
                } => {
                    if label == request.label {
                        return Err(ClientError::Failed {
                            job_id: failed_id,
                            kind,
                            message,
                        });
                    }
                }
                Response::Queued { .. } => {
                    // A phantom duplicate accepted after ours; skip.
                }
                other => return Err(unexpected(&other)),
            }
        }
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Unexpected {
        what: format!("{response:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let policy = RetryPolicy::new(8)
            .with_base_delay(Duration::from_millis(2))
            .with_seed(5);
        let mut rng = Rng::new(policy.seed);
        let mut prev_cap = Duration::ZERO;
        for retry in 0..8 {
            let delay = policy.backoff(retry, &mut rng);
            let cap = Duration::from_millis(2)
                .saturating_mul(2u32.pow(retry))
                .min(MAX_RETRY_DELAY);
            assert!(delay >= cap.mul_f64(0.5), "jitter floor at retry {retry}");
            assert!(delay < cap, "jitter ceiling at retry {retry}");
            assert!(cap >= prev_cap, "cap is monotone");
            prev_cap = cap;
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy::new(4).with_seed(77);
        let run = || {
            let mut rng = Rng::new(policy.seed);
            (0..6)
                .map(|r| policy.backoff(r, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recovery_classification() {
        assert_eq!(
            recovery(&ClientError::Io(std::io::ErrorKind::BrokenPipe)),
            Recovery::Reconnect
        );
        assert_eq!(
            recovery(&ClientError::Frame(FrameError::Closed)),
            Recovery::Reconnect
        );
        assert_eq!(
            recovery(&ClientError::Busy {
                lane: Lane::Batch,
                capacity: 4
            }),
            Recovery::Retry
        );
        assert_eq!(
            recovery(&ClientError::Rejected {
                message: "no".into()
            }),
            Recovery::Terminal
        );
        assert_eq!(
            recovery(&ClientError::Failed {
                job_id: 1,
                kind: FailureKind::WorkerPanicked,
                message: "boom".into()
            }),
            Recovery::Terminal,
            "a panicked worker is a deterministic verdict, never retried"
        );
    }

    #[test]
    fn policy_none_is_single_attempt() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_attempts, 1);
    }
}
