//! The job queue: a two-lane priority MPSC queue with per-client
//! fair-share scheduling, close/drain semantics, and bounded per-client
//! admission control, built on `Mutex` + `Condvar` (no external
//! dependencies).
//!
//! Producers ([`TranspileService::submit`](crate::TranspileService::submit))
//! push into one of two [`Lane`]s from any thread, tagged with a client
//! id; each worker pops under the lock, so every job is delivered to
//! exactly one worker. Pops always drain [`Lane::Interactive`] before
//! touching [`Lane::Batch`] — the express lane a latency-sensitive
//! request rides past a deep batch backlog. *Within* a lane, clients are
//! served round-robin, one job per turn, so one client flooding a lane
//! cannot starve another client's jobs queued behind it.
//! Closing the queue wakes every blocked worker; pops drain the
//! remaining jobs (both lanes, still interactive-first and fair-share)
//! and only then report the end of the stream — the graceful-shutdown
//! contract: **every job accepted before close is processed**.
//!
//! A queue built with [`JobQueue::bounded`] enforces a **per-client,
//! per-lane** capacity at push time: a client whose lane budget is full
//! gets [`PushError::Full`] *instead of blocking*, while other clients'
//! budgets are untouched — the admission-control mode a multi-tenant
//! network front needs: a flooding client bounces off its own bound and
//! everyone else keeps draining.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Which priority lane a job rides.
///
/// The queue is strict-priority: a popper never takes a `Batch` item while
/// an `Interactive` item is waiting. Starvation of the batch lane is
/// bounded by the interactive arrival rate — acceptable here because the
/// interactive lane is reserved for small latency-sensitive requests
/// (admission control caps how many each client can pile up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive requests: always dequeued first.
    Interactive,
    /// Throughput traffic: dequeued when the interactive lane is empty.
    /// The default for [`TranspileJob`](crate::TranspileJob)s.
    Batch,
}

impl Lane {
    /// Both lanes, in dequeue-priority order.
    pub const ALL: [Lane; 2] = [Lane::Interactive, Lane::Batch];

    /// Stable index of the lane (0 = interactive, 1 = batch) — also its
    /// wire encoding in `net::proto`.
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
        }
    }

    /// The lane for a wire index; `None` for an unknown index.
    pub fn from_index(index: u8) -> Option<Lane> {
        match index {
            0 => Some(Lane::Interactive),
            1 => Some(Lane::Batch),
            _ => None,
        }
    }

    /// Human-readable lane name (`interactive` / `batch`).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a push was refused. The item comes back so the caller can report
/// or retry without cloning every job up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The pushing client's budget in the target lane is at capacity
    /// (bounded queues only). Admission control: the caller should
    /// surface backpressure, not block — and only *this* client is over
    /// budget, other clients' pushes still succeed.
    Full(T),
    /// The queue has been closed; no further work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

/// A close-aware two-lane priority MPSC queue with per-client
/// round-robin within each lane. `T` is the queued work item.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    /// Per-client, per-lane capacity; `None` = unbounded.
    capacity: Option<usize>,
}

/// One client's FIFO sub-queue within a lane. Entries exist only while
/// non-empty: created on the client's first push, removed when its last
/// item is popped, so the round-robin scan never visits dead clients.
#[derive(Debug)]
struct ClientQueue<T> {
    client: u64,
    items: VecDeque<T>,
}

/// One lane: the active clients in round-robin order plus the scheduler
/// cursor, which indexes the client served next.
#[derive(Debug)]
struct LaneState<T> {
    clients: Vec<ClientQueue<T>>,
    cursor: usize,
    len: usize,
}

impl<T> LaneState<T> {
    fn new() -> LaneState<T> {
        LaneState {
            clients: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    fn push(&mut self, item: T, client: u64, capacity: Option<usize>) -> Result<(), T> {
        match self.clients.iter_mut().find(|c| c.client == client) {
            Some(entry) => {
                if capacity.is_some_and(|cap| entry.items.len() >= cap) {
                    return Err(item);
                }
                entry.items.push_back(item);
            }
            None => {
                // New clients join at the end of the round-robin order;
                // they get served when the cursor reaches them.
                let mut items = VecDeque::new();
                items.push_back(item);
                self.clients.push(ClientQueue { client, items });
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Pop the next item under round-robin: serve the cursor client,
    /// then move the cursor past it.
    fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        // Wrap only now, so a client that joined since the last pop (at
        // the end of the order) is served before the rotation restarts.
        if self.cursor >= self.clients.len() {
            self.cursor = 0;
        }
        let entry = &mut self.clients[self.cursor];
        let item = entry
            .items
            .pop_front()
            .expect("active clients are non-empty");
        self.len -= 1;
        if entry.items.is_empty() {
            // The emptied client leaves the rotation; the cursor now
            // points at the next client. Past the end it wraps at once,
            // so a client joining before the next pop waits its turn.
            self.clients.remove(self.cursor);
            if self.cursor >= self.clients.len() {
                self.cursor = 0;
            }
        } else {
            self.cursor += 1;
        }
        Some(item)
    }

    fn client_len(&self, client: u64) -> usize {
        self.clients
            .iter()
            .find(|c| c.client == client)
            .map_or(0, |c| c.items.len())
    }
}

#[derive(Debug)]
struct QueueState<T> {
    /// Indexed by [`Lane::index`]: interactive first.
    lanes: [LaneState<T>; 2],
    closed: bool,
}

impl<T> JobQueue<T> {
    /// An open, empty, unbounded queue.
    pub fn new() -> JobQueue<T> {
        JobQueue::with_capacity(None)
    }

    /// An open, empty queue admitting at most `capacity` items *per
    /// client, per lane*; pushes beyond that return [`PushError::Full`].
    /// Per-client (rather than total) bounds keep one flooding client
    /// from locking everyone else out of a lane.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a queue that can never accept work.
    pub fn bounded(capacity: usize) -> JobQueue<T> {
        assert!(capacity > 0, "a bounded queue needs capacity >= 1");
        JobQueue::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [LaneState::new(), LaneState::new()],
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The per-client, per-lane admission bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Enqueue one item into `lane` on behalf of `client`. Never blocks:
    /// a closed queue returns [`PushError::Closed`], a client over its
    /// lane budget gets [`PushError::Full`] — both hand the item back.
    pub fn push(&self, item: T, lane: Lane, client: u64) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if let Err(item) = state.lanes[lane.index()].push(item, client, self.capacity) {
            return Err(PushError::Full(item));
        }
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue one item, blocking while the queue is open and empty.
    /// The interactive lane always drains before the batch lane; within a
    /// lane, clients are served round-robin and each client's
    /// own items stay FIFO. Returns `None` only when the queue is closed
    /// **and** both lanes are drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.lanes.iter_mut().find_map(LaneState::pop) {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Close the queue: no further pushes are accepted, every blocked
    /// popper wakes, and remaining items drain normally.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Total jobs waiting across both lanes (not yet claimed by a worker).
    pub fn len(&self) -> usize {
        let state = self.state.lock().expect("queue poisoned");
        state.lanes.iter().map(|l| l.len).sum()
    }

    /// Jobs waiting in one lane (all clients).
    pub fn lane_len(&self, lane: Lane) -> usize {
        self.state.lock().expect("queue poisoned").lanes[lane.index()].len
    }

    /// Jobs one client has waiting in one lane (its budget usage).
    pub fn client_len(&self, lane: Lane, client: u64) -> usize {
        self.state.lock().expect("queue poisoned").lanes[lane.index()].client_len(client)
    }

    /// True when no jobs are waiting in either lane.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_a_single_client() {
        let q = JobQueue::new();
        for i in 0..5 {
            q.push(i, Lane::Batch, 0).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interactive_lane_drains_before_batch() {
        let q = JobQueue::new();
        q.push("b0", Lane::Batch, 0).unwrap();
        q.push("b1", Lane::Batch, 0).unwrap();
        q.push("i0", Lane::Interactive, 0).unwrap();
        q.push("i1", Lane::Interactive, 0).unwrap();
        // The batch items arrived first; the interactive items jump them.
        assert_eq!(q.pop(), Some("i0"));
        // New interactive arrivals keep jumping even mid-drain.
        q.push("i2", Lane::Interactive, 0).unwrap();
        assert_eq!(q.pop(), Some("i1"));
        assert_eq!(q.pop(), Some("i2"));
        assert_eq!(q.pop(), Some("b0"));
        assert_eq!(q.pop(), Some("b1"));
    }

    #[test]
    fn clients_share_a_lane_round_robin() {
        let q = JobQueue::new();
        // Client 1 floods the batch lane, then client 2 queues two jobs
        // behind the flood. Round-robin must interleave them rather than
        // make client 2 wait for the whole flood.
        for i in 0..4 {
            q.push(("flood", i), Lane::Batch, 1).unwrap();
        }
        q.push(("polite", 0), Lane::Batch, 2).unwrap();
        q.push(("polite", 1), Lane::Batch, 2).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).take(6).collect();
        assert_eq!(
            order,
            vec![
                ("flood", 0),
                ("polite", 0),
                ("flood", 1),
                ("polite", 1),
                ("flood", 2),
                ("flood", 3),
            ],
            "lane service must alternate between active clients"
        );
    }

    #[test]
    fn three_client_rotation_with_joins_and_departures() {
        // Clients 1, 2 and 3 share the batch lane while pushes interleave
        // with pops. Pins where a client that joins (or rejoins) lands in
        // the rotation, and where the rotation resumes after a client's
        // queue empties.
        let q = JobQueue::new();
        let mut order = Vec::new();
        for i in 0..3 {
            q.push((1, i), Lane::Batch, 1).unwrap();
        }
        q.push((2, 0), Lane::Batch, 2).unwrap();
        order.push(q.pop().unwrap());
        // Client 3 joins mid-rotation, behind client 2.
        q.push((3, 0), Lane::Batch, 3).unwrap();
        q.push((3, 1), Lane::Batch, 3).unwrap();
        // Client 2 empties and leaves; client 3 is next.
        order.push(q.pop().unwrap());
        order.push(q.pop().unwrap());
        // Client 2 rejoins while the last client in the rotation is being
        // served: it is next, before the rotation wraps to client 1.
        q.push((2, 1), Lane::Batch, 2).unwrap();
        order.push(q.pop().unwrap());
        // Client 2 empties again at the end of the rotation, which wraps
        // to client 1 before client 2 rejoins behind client 3.
        q.push((2, 2), Lane::Batch, 2).unwrap();
        while !q.is_empty() {
            order.push(q.pop().unwrap());
        }
        assert_eq!(
            order,
            vec![
                (1, 0),
                (2, 0),
                (3, 0),
                (2, 1),
                (1, 1),
                (3, 1),
                (2, 2),
                (1, 2),
            ]
        );
    }

    #[test]
    fn close_rejects_pushes_but_drains_both_lanes() {
        let q = JobQueue::new();
        q.push(1, Lane::Batch, 0).unwrap();
        q.push(2, Lane::Interactive, 0).unwrap();
        q.close();
        assert_eq!(q.push(3, Lane::Batch, 0), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(2), "interactive first, even while draining");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays terminated");
    }

    #[test]
    fn bounded_budget_is_per_client_and_per_lane() {
        let q = JobQueue::bounded(2);
        assert_eq!(q.capacity(), Some(2));
        q.push(0, Lane::Batch, 1).unwrap();
        q.push(1, Lane::Batch, 1).unwrap();
        // Client 1's batch budget is full; its push fails immediately and
        // hands the item back...
        assert_eq!(q.push(2, Lane::Batch, 1), Err(PushError::Full(2)));
        // ...while client 2 still has its own batch budget...
        q.push(20, Lane::Batch, 2).unwrap();
        assert_eq!(q.client_len(Lane::Batch, 1), 2);
        assert_eq!(q.client_len(Lane::Batch, 2), 1);
        // ...and client 1 still has its interactive budget.
        q.push(10, Lane::Interactive, 1).unwrap();
        q.push(11, Lane::Interactive, 1).unwrap();
        assert_eq!(q.push(12, Lane::Interactive, 1), Err(PushError::Full(12)));
        assert_eq!(q.lane_len(Lane::Batch), 3);
        assert_eq!(q.lane_len(Lane::Interactive), 2);
        // Draining frees capacity.
        assert_eq!(q.pop(), Some(10));
        q.push(12, Lane::Interactive, 1).unwrap();
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn push_error_returns_the_item() {
        let q = JobQueue::bounded(1);
        q.push("kept", Lane::Batch, 0).unwrap();
        let err = q.push("bounced", Lane::Batch, 0).unwrap_err();
        assert_eq!(err.into_inner(), "bounced");
        q.close();
        let err = q.push("late", Lane::Interactive, 0).unwrap_err();
        assert_eq!(err.into_inner(), "late");
    }

    #[test]
    fn lane_index_round_trips() {
        for lane in Lane::ALL {
            assert_eq!(Lane::from_index(lane.index() as u8), Some(lane));
        }
        assert_eq!(Lane::from_index(2), None);
        assert_eq!(Lane::Interactive.to_string(), "interactive");
        assert_eq!(Lane::Batch.to_string(), "batch");
    }

    #[test]
    fn blocked_consumers_wake_on_close_and_on_push() {
        let q = Arc::new(JobQueue::<u32>::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        while let Some(v) = q.pop() {
                            seen.push(v);
                        }
                        seen
                    })
                })
                .collect();
            for i in 0..10 {
                let lane = if i % 3 == 0 {
                    Lane::Interactive
                } else {
                    Lane::Batch
                };
                q.push(i, lane, u64::from(i % 2)).unwrap();
            }
            q.close();
            let mut all: Vec<u32> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("consumer panicked"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>(), "each job exactly once");
        });
    }
}
