//! Reference backends.
//!
//! [`IdealBackend`] is the simplest possible implementation of the ATLAHS
//! API: a contention-free network with fixed per-byte bandwidth and fixed
//! latency, and hosts that execute calcs at face value. It exists to
//! document the backend contract, to serve as a fixture for scheduler
//! tests, and as a lower bound in experiments (no congestion, no protocol
//! overheads). Real backends live in `atlahs-lgs`, `atlahs-htsim`, and
//! `atlahs-testbed`.

use atlahs_eventq::EventQueue;
use atlahs_goal::{Rank, Tag};

use crate::api::{Backend, Completion, NsPerByte, OpRef, Time};
use crate::matcher::Matcher;
use crate::snapshot::Snapshot;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// An operation finishes.
    Done(OpRef),
    /// An operation's CPU phase is over (recv posting).
    CpuFree(OpRef),
}

/// A contention-free fixed-rate network backend.
///
/// * `send` completes once the last byte has left the sender:
///   `8 · bytes / gbps` ns after issue, rounded half up;
/// * the message arrives `latency` ns after that;
/// * `recv` completes at `max(arrival, post time)`;
/// * `calc` completes after exactly `cost` ns.
#[derive(Debug)]
pub struct IdealBackend {
    /// Wire time per byte: `8 / gbps` ns.
    per_byte: NsPerByte,
    /// One-way latency in nanoseconds.
    latency: Time,
    s: IdealState,
}

/// Everything a run of the ideal backend mutates: clock, pending events,
/// and unmatched messages (the rule is in [`crate::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct IdealState {
    now: Time,
    /// Timer-wheel event core shared with the real backends; pops in
    /// `(time, push order)` order.
    events: EventQueue<Ev>,
    matcher: Matcher<Time, OpRef>,
}

impl IdealBackend {
    /// Line rate in Gb/s (e.g. `200` for 25 B/ns), `latency` in ns.
    pub fn new(gbps: u64, latency: Time) -> Self {
        assert!(gbps > 0, "bandwidth must be positive");
        IdealBackend { per_byte: NsPerByte::ratio(8, gbps), latency, s: IdealState::default() }
    }

    fn push(&mut self, time: Time, ev: Ev) {
        self.s.events.push(time, ev);
    }

    /// Time for the last of `bytes` to leave the sender.
    pub fn tx_time(&self, bytes: u64) -> Time {
        self.per_byte.round(bytes)
    }
}

impl Backend for IdealBackend {
    fn simulation_setup(&mut self, _num_ranks: usize) {
        self.s = IdealState::default();
    }

    fn now(&self) -> Time {
        self.s.now
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        let done = self.s.now + self.tx_time(bytes);
        self.push(done, Ev::Done(op));
        let key = (op.rank, dst, tag);
        let arrive = done + self.latency;
        // Record the message in flight; a recv already posted completes
        // at the arrival.
        if let Some(recv_op) = self.s.matcher.offer_send(key, arrive) {
            self.push(arrive, Ev::Done(recv_op));
        }
    }

    fn recv(&mut self, op: OpRef, src: Rank, _bytes: u64, tag: Tag) {
        let key = (src, op.rank, tag);
        // Posting a recv is non-blocking: the stream is released
        // immediately (like every real backend), otherwise schedules with
        // interleaved collectives on one stream could self-deadlock.
        self.push(self.s.now, Ev::CpuFree(op));
        if let Some(arrival) = self.s.matcher.offer_recv(key, op) {
            // The message was sent already: complete once it has arrived.
            let t = self.s.now.max(arrival);
            self.push(t, Ev::Done(op));
        }
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        self.push(self.s.now + cost, Ev::Done(op));
    }

    fn next_event(&mut self) -> Option<Completion> {
        let (time, ev) = self.s.events.pop()?;
        debug_assert!(time >= self.s.now, "event queue went backwards");
        self.s.now = time;
        Some(match ev {
            Ev::Done(op) => Completion::done(op, time),
            Ev::CpuFree(op) => Completion::cpu_free(op, time),
        })
    }
}

impl Snapshot for IdealBackend {
    type State = IdealState;

    fn checkpoint(&self) -> IdealState {
        self.s.clone()
    }

    fn restore(&mut self, state: &IdealState) {
        self.s.clone_from(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_goal::TaskId;

    fn op(rank: Rank, task: u32) -> OpRef {
        OpRef::new(rank, TaskId(task))
    }

    #[test]
    fn calc_completes_after_cost() {
        let mut b = IdealBackend::new(8, 10);
        b.simulation_setup(1);
        b.calc(op(0, 0), 42);
        let c = b.next_event().unwrap();
        assert_eq!(c.time, 42);
        assert_eq!(c.op, op(0, 0));
        assert!(b.next_event().is_none());
    }

    #[test]
    fn send_then_recv_ordering() {
        let mut b = IdealBackend::new(16, 10);
        b.simulation_setup(2);
        b.send(op(0, 0), 1, 100, 0); // tx = 50, arrive = 60
        b.recv(op(1, 0), 0, 100, 0);
        // Posting the recv releases its stream immediately (non-blocking).
        let c0 = b.next_event().unwrap();
        assert_eq!(c0.op, op(1, 0));
        assert_eq!(c0.kind, crate::api::EventKind::CpuFree);
        assert_eq!(c0.time, 0);
        let c1 = b.next_event().unwrap();
        assert_eq!(c1.op, op(0, 0));
        assert_eq!(c1.time, 50);
        let c2 = b.next_event().unwrap();
        assert_eq!(c2.op, op(1, 0));
        assert_eq!(c2.time, 60);
    }

    #[test]
    fn events_in_time_order_with_fifo_ties() {
        let mut b = IdealBackend::new(8, 0);
        b.simulation_setup(1);
        b.calc(op(0, 1), 5);
        b.calc(op(0, 2), 5);
        b.calc(op(0, 3), 1);
        let order: Vec<_> = std::iter::from_fn(|| b.next_event()).map(|c| c.op.task.0).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn setup_resets_state() {
        let mut b = IdealBackend::new(8, 0);
        b.simulation_setup(1);
        b.calc(op(0, 0), 5);
        b.simulation_setup(1);
        assert!(b.next_event().is_none());
        assert_eq!(b.now(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = IdealBackend::new(0, 0);
    }
}
