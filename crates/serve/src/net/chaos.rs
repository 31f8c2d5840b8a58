//! Deterministic fault injection for the framed transport.
//!
//! [`ChaosTransport`] wraps any `Read + Write` byte stream and mangles
//! traffic **at frame granularity** on a seeded, reproducible schedule:
//! each complete frame passing through (either direction) draws one
//! decision from a [`ChaosPlan`] — deliver, drop, truncate, corrupt,
//! duplicate, or delay. The same seed always produces the same fault
//! schedule, so a failing chaos run can be replayed bit-for-bit with
//! `MIRAGE_CHAOS_SEED=<n>` instead of chased.
//!
//! Faults are designed so the *peer* always detects them promptly and
//! typed-ly, never by deadlock:
//!
//! * **Drop / Truncate** also mark the transport broken — the local side's
//!   next read returns EOF and its next write fails — because a silently
//!   swallowed request would otherwise leave the client awaiting a
//!   response the server never knew to send. This models a connection
//!   reset at the moment of loss, which is how real frame loss on TCP
//!   surfaces.
//! * **Corrupt** flips one bit at a frame offset ≥ 6 — in the checksum or
//!   payload region, never in the magic or length fields — so the
//!   receiver reads a complete frame and fails its checksum/decode
//!   (typed), rather than desyncing on a bogus length and blocking for
//!   bytes that will never arrive.
//! * **Duplicate** delivers the same frame twice: the retry-idempotency
//!   probe. Protocol v2's label echo lets a client detect the phantom
//!   conversation this creates.
//! * **Delay** sleeps a deterministic, bounded duration, then delivers.
//!
//! A plan is shared (`Clone` is shallow) so reconnections — a
//! [`ChaosConnector`](super::client::ChaosConnector) wrapping every fresh
//! transport — *continue* the schedule rather than restart it; otherwise a
//! seed whose first decision is Drop would kill every reconnect forever.
//! With [`ChaosConfig::max_faults`] set, the plan delivers everything
//! cleanly once the budget is spent, guaranteeing a retrying client
//! converges.
//!
//! Bytes that do not start with the frame magic (e.g. raw-garbage test
//! traffic) pass through untouched: chaos targets the protocol, not the
//! test harness.

use super::frame::{FRAME_MAGIC, HEADER_LEN};
use mirage_math::Rng;
use std::io::{ErrorKind, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound for injected delays (drawn uniformly below this).
const MAX_CHAOS_DELAY: Duration = Duration::from_millis(2);

/// Tuning for a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the fault schedule — the only nondeterminism input.
    pub seed: u64,
    /// Probability in `[0, 1]` that a frame draws a fault.
    pub fault_rate: f64,
    /// Total faults to inject before the plan goes clean; `None` = never.
    /// A finite budget guarantees a retrying client eventually converges.
    pub max_faults: Option<u64>,
}

impl ChaosConfig {
    /// A plan seeded with `seed`: 25% fault rate, ≤2 ms delays, and a
    /// budget of 8 faults so runs always converge.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_rate: 0.25,
            max_faults: Some(8),
        }
    }

    /// Override the per-frame fault probability (builder style).
    #[must_use]
    pub fn with_fault_rate(mut self, rate: f64) -> ChaosConfig {
        self.fault_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Override the fault budget (builder style); `None` never goes clean.
    #[must_use]
    pub fn with_max_faults(mut self, max: Option<u64>) -> ChaosConfig {
        self.max_faults = max;
        self
    }
}

/// Counters of what a plan has actually done, snapshot via
/// [`ChaosPlan::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames that passed through the decision point (both directions).
    pub frames: u64,
    /// Frames silently discarded (transport then breaks).
    pub drops: u64,
    /// Frames cut short mid-flight (transport then breaks).
    pub truncates: u64,
    /// Frames with one checksum/payload bit flipped.
    pub corrupts: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames delivered after a deterministic sleep.
    pub delays: u64,
}

impl ChaosStats {
    /// Total faults injected so far.
    pub fn faults(&self) -> u64 {
        self.drops + self.truncates + self.corrupts + self.duplicates + self.delays
    }
}

/// One per-frame decision, with every random parameter already drawn so
/// application is pure.
#[derive(Debug, Clone, PartialEq)]
enum ChaosEvent {
    Deliver,
    Drop,
    Truncate { keep: usize },
    Corrupt { offset: usize, bit: u8 },
    Duplicate,
    Delay { by: Duration },
}

struct PlanState {
    rng: Rng,
    config: ChaosConfig,
    stats: ChaosStats,
}

/// The shared, seeded fault schedule. Cloning is shallow: every transport
/// (including ones created by reconnecting) holding a clone draws from the
/// *same* sequence, which is what makes a chaos run a single reproducible
/// schedule rather than per-connection noise.
#[derive(Clone)]
pub struct ChaosPlan {
    state: Arc<Mutex<PlanState>>,
}

impl std::fmt::Debug for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("chaos plan poisoned");
        f.debug_struct("ChaosPlan")
            .field("seed", &state.config.seed)
            .field("stats", &state.stats)
            .finish()
    }
}

impl ChaosPlan {
    /// A fresh schedule from `config`.
    pub fn new(config: ChaosConfig) -> ChaosPlan {
        ChaosPlan {
            state: Arc::new(Mutex::new(PlanState {
                rng: Rng::new(config.seed ^ 0xC4A0_5CA0_5EED),
                config,
                stats: ChaosStats::default(),
            })),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ChaosStats {
        self.state.lock().expect("chaos plan poisoned").stats
    }

    /// Decide the fate of one `frame_len`-byte frame, drawing all random
    /// parameters under one lock so concurrent transports still read one
    /// global deterministic sequence.
    fn next_event(&self, frame_len: usize) -> ChaosEvent {
        let mut state = self.state.lock().expect("chaos plan poisoned");
        state.stats.frames += 1;
        let budget_spent = state
            .config
            .max_faults
            .is_some_and(|max| state.stats.faults() >= max);
        if budget_spent || state.rng.uniform() >= state.config.fault_rate {
            return ChaosEvent::Deliver;
        }
        match state.rng.below(5) {
            0 => {
                state.stats.drops += 1;
                ChaosEvent::Drop
            }
            1 => {
                state.stats.truncates += 1;
                // Keep at least one byte, never the whole frame.
                let keep = 1 + state.rng.below(frame_len.max(2) - 1);
                ChaosEvent::Truncate { keep }
            }
            2 => {
                state.stats.corrupts += 1;
                // Only the checksum/payload region (offset ≥ 6): flipping
                // magic or length bytes could desync or deadlock the
                // receiver instead of producing a typed checksum error.
                let offset = 6 + state.rng.below(frame_len.saturating_sub(6).max(1));
                let bit = state.rng.below(8) as u8;
                ChaosEvent::Corrupt {
                    offset: offset.min(frame_len - 1),
                    bit,
                }
            }
            3 => {
                state.stats.duplicates += 1;
                ChaosEvent::Duplicate
            }
            _ => {
                state.stats.delays += 1;
                let micros = MAX_CHAOS_DELAY.as_micros() as usize;
                let by = Duration::from_micros(state.rng.below(micros) as u64);
                ChaosEvent::Delay { by }
            }
        }
    }
}

/// A fault-injecting proxy around any byte transport. See the
/// [module docs](self) for the fault model.
pub struct ChaosTransport<T> {
    inner: T,
    plan: ChaosPlan,
    /// Outbound bytes not yet assembled into a complete frame.
    wbuf: Vec<u8>,
    /// Inbound bytes already mangled and ready to serve to the caller.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Set by Drop/Truncate: reads return EOF (after any staged bytes),
    /// writes fail with `BrokenPipe`.
    broken: bool,
}

impl<T: Read + Write> ChaosTransport<T> {
    /// Wrap `inner`, drawing fault decisions from `plan`.
    pub fn new(inner: T, plan: ChaosPlan) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            plan,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            rpos: 0,
            broken: false,
        }
    }

    /// The shared plan (for stats).
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Read exactly one frame (or a raw non-frame chunk) from the inner
    /// transport. `Ok(None)` is clean EOF before any byte.
    fn read_raw_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0;
        while got < header.len() {
            match self.inner.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                // Partial header then EOF: hand the fragment through
                // untouched; the frame layer reports it as truncated.
                Ok(0) => return Ok(Some(header[..got].to_vec())),
                Ok(n) => got += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if header[..2] != FRAME_MAGIC {
            // Not framed traffic — pass through without chaos.
            return Ok(Some(header.to_vec()));
        }
        let len = u32::from_be_bytes(header[2..6].try_into().expect("4 bytes")) as usize;
        let mut body = vec![0u8; len];
        let mut got = 0;
        while got < len {
            match self.inner.read(&mut body[got..]) {
                Ok(0) => break, // truncated upstream; deliver what exists
                Ok(n) => got += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        body.truncate(got);
        let mut frame = header.to_vec();
        frame.extend_from_slice(&body);
        Ok(Some(frame))
    }

    fn apply_inbound(&mut self, mut frame: Vec<u8>) {
        if frame.len() < HEADER_LEN || frame[..2] != FRAME_MAGIC {
            self.rbuf = frame;
            self.rpos = 0;
            return;
        }
        match self.plan.next_event(frame.len()) {
            ChaosEvent::Deliver => {}
            ChaosEvent::Drop => {
                self.broken = true;
                frame.clear();
            }
            ChaosEvent::Truncate { keep } => {
                self.broken = true;
                frame.truncate(keep.min(frame.len()));
            }
            ChaosEvent::Corrupt { offset, bit } => {
                if let Some(byte) = frame.get_mut(offset) {
                    *byte ^= 1 << bit;
                }
            }
            ChaosEvent::Duplicate => {
                let copy = frame.clone();
                frame.extend_from_slice(&copy);
            }
            ChaosEvent::Delay { by } => std::thread::sleep(by),
        }
        self.rbuf = frame;
        self.rpos = 0;
    }

    /// Process one complete outbound frame through the plan, writing the
    /// (possibly mangled) bytes to the inner transport.
    fn apply_outbound(&mut self, mut frame: Vec<u8>) -> std::io::Result<()> {
        match self.plan.next_event(frame.len()) {
            ChaosEvent::Deliver => {}
            ChaosEvent::Drop => {
                self.broken = true;
                return Ok(());
            }
            ChaosEvent::Truncate { keep } => {
                frame.truncate(keep.min(frame.len()));
                self.inner.write_all(&frame)?;
                self.inner.flush()?;
                self.broken = true;
                return Ok(());
            }
            ChaosEvent::Corrupt { offset, bit } => {
                if let Some(byte) = frame.get_mut(offset) {
                    *byte ^= 1 << bit;
                }
            }
            ChaosEvent::Duplicate => {
                let copy = frame.clone();
                frame.extend_from_slice(&copy);
            }
            ChaosEvent::Delay { by } => std::thread::sleep(by),
        }
        self.inner.write_all(&frame)?;
        Ok(())
    }

    /// Drain the write buffer: forward complete frames through the plan,
    /// pass non-frame bytes straight through, keep incomplete tails.
    fn pump_writes(&mut self) -> std::io::Result<()> {
        loop {
            if self.wbuf.len() < 2 {
                return Ok(());
            }
            if self.wbuf[..2] != FRAME_MAGIC {
                // Unframed traffic: flush it all untouched.
                let raw = std::mem::take(&mut self.wbuf);
                self.inner.write_all(&raw)?;
                return Ok(());
            }
            if self.wbuf.len() < HEADER_LEN {
                return Ok(());
            }
            let len = u32::from_be_bytes(self.wbuf[2..6].try_into().expect("4 bytes")) as usize;
            let total = HEADER_LEN + len;
            if self.wbuf.len() < total {
                return Ok(());
            }
            let rest = self.wbuf.split_off(total);
            let frame = std::mem::replace(&mut self.wbuf, rest);
            self.apply_outbound(frame)?;
            if self.broken {
                return Ok(());
            }
        }
    }
}

impl<T: Read + Write> Read for ChaosTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.rpos < self.rbuf.len() {
                let n = (self.rbuf.len() - self.rpos).min(buf.len());
                buf[..n].copy_from_slice(&self.rbuf[self.rpos..self.rpos + n]);
                self.rpos += n;
                return Ok(n);
            }
            if self.broken {
                return Ok(0); // EOF: the peer sees a clean connection loss
            }
            match self.read_raw_frame()? {
                None => return Ok(0),
                Some(frame) => self.apply_inbound(frame),
            }
            // A Drop leaves rbuf empty with broken set; loop re-checks.
        }
    }
}

impl<T: Read + Write> Write for ChaosTransport<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.broken {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "chaos transport broken by an injected fault",
            ));
        }
        self.wbuf.extend_from_slice(buf);
        self.pump_writes()?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.broken {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "chaos transport broken by an injected fault",
            ));
        }
        self.pump_writes()?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame;
    use super::*;
    use std::collections::VecDeque;

    /// An in-memory loopback: everything written becomes readable.
    #[derive(Default)]
    struct Loopback {
        data: VecDeque<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.data.len());
            for slot in buf.iter_mut().take(n) {
                *slot = self.data.pop_front().expect("len checked");
            }
            Ok(n)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.data.extend(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn clean_plan() -> ChaosPlan {
        ChaosPlan::new(ChaosConfig::new(1).with_fault_rate(0.0))
    }

    #[test]
    fn clean_plan_is_a_transparent_proxy() {
        let mut t = ChaosTransport::new(Loopback::default(), clean_plan());
        for payload in [b"hello".as_slice(), b"", b"world!"] {
            frame::write_frame(&mut t, payload).unwrap();
            let back = frame::read_frame(&mut t, frame::DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(back, payload);
        }
        assert_eq!(t.plan().stats().faults(), 0);
        assert_eq!(t.plan().stats().frames, 6, "3 writes + 3 reads");
    }

    #[test]
    fn unframed_bytes_pass_through_untouched() {
        let mut t = ChaosTransport::new(
            Loopback::default(),
            ChaosPlan::new(ChaosConfig::new(2).with_fault_rate(1.0)),
        );
        t.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        t.flush().unwrap();
        let mut back = vec![0u8; 18];
        t.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(t.plan().stats().frames, 0, "no frames seen, no chaos");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = ChaosPlan::new(ChaosConfig::new(seed).with_max_faults(None));
            let events: Vec<ChaosEvent> = (0..64).map(|_| plan.next_event(100)).collect();
            events
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn fault_budget_caps_injections_then_goes_clean() {
        let plan = ChaosPlan::new(
            ChaosConfig::new(3)
                .with_fault_rate(1.0)
                .with_max_faults(Some(4)),
        );
        for _ in 0..100 {
            plan.next_event(50);
        }
        assert_eq!(plan.stats().faults(), 4, "budget is a hard cap");
        assert_eq!(plan.stats().frames, 100);
    }

    #[test]
    fn dropped_frame_breaks_the_transport_instead_of_hanging() {
        // fault_rate 1.0 with only Drop reachable: force by retrying seeds
        // until the first event is a Drop.
        let mut seed = 0;
        let plan = loop {
            let plan = ChaosPlan::new(ChaosConfig::new(seed).with_fault_rate(1.0));
            if plan.next_event(20) == ChaosEvent::Drop {
                break ChaosPlan::new(ChaosConfig::new(seed).with_fault_rate(1.0));
            }
            seed += 1;
        };
        let mut t = ChaosTransport::new(Loopback::default(), plan);
        // The frame is swallowed and the transport breaks immediately:
        // the trailing flush already fails fast rather than pretending
        // the bytes went out, reads see EOF (typed Closed at the frame
        // layer), and later writes fail fast too.
        match frame::write_frame(&mut t, b"lost") {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            Ok(()) => panic!("expected a broken-pipe write"),
        }
        match frame::read_frame(&mut t, frame::DEFAULT_MAX_PAYLOAD) {
            Err(frame::FrameError::Closed) => {}
            other => panic!("expected Closed after a drop, got {other:?}"),
        }
        assert!(t.write_all(b"MF").is_err(), "writes fail after the break");
    }

    /// A fresh rate-1.0 plan with a one-fault budget whose FIRST event
    /// matches `want` (the fault kind is seed-determined, so probe seeds
    /// until one fits; the fault lands on the first write, and the spent
    /// budget leaves every later frame clean).
    fn plan_opening_with(want: impl Fn(&ChaosEvent) -> bool) -> ChaosPlan {
        let mut seed = 0;
        loop {
            let config = ChaosConfig::new(seed)
                .with_fault_rate(1.0)
                .with_max_faults(Some(1));
            let probe = ChaosPlan::new(config.clone());
            if want(&probe.next_event(32)) {
                return ChaosPlan::new(config);
            }
            seed += 1;
        }
    }

    #[test]
    fn corrupted_frame_fails_its_checksum_typed() {
        let plan = plan_opening_with(|e| matches!(e, ChaosEvent::Corrupt { .. }));
        let mut t = ChaosTransport::new(Loopback::default(), plan);
        // The single budgeted fault corrupts this frame on the way out;
        // the read side (now clean) sees a complete frame whose checksum
        // no longer matches — a typed error, not a desync.
        frame::write_frame(&mut t, b"precious payload").unwrap();
        match frame::read_frame(&mut t, frame::DEFAULT_MAX_PAYLOAD) {
            Err(frame::FrameError::ChecksumMismatch { .. }) => {}
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn duplicated_frame_is_readable_twice() {
        let plan = plan_opening_with(|e| *e == ChaosEvent::Duplicate);
        let mut t = ChaosTransport::new(Loopback::default(), plan);
        // The write is duplicated on the way out; with the budget spent,
        // both staged copies then read back cleanly.
        frame::write_frame(&mut t, b"echo").unwrap();
        let first = frame::read_frame(&mut t, frame::DEFAULT_MAX_PAYLOAD).unwrap();
        let second = frame::read_frame(&mut t, frame::DEFAULT_MAX_PAYLOAD);
        assert_eq!(first, b"echo");
        assert_eq!(second.unwrap(), b"echo", "the duplicate arrives intact");
    }
}
