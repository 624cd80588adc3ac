//! The ATLAHS backend API (paper Fig. 7).
//!
//! ```text
//! class ATLAHS_API {
//!     virtual void simulationSetup();
//!     virtual void eventOver(Event);
//!     virtual void send(SendEvent);
//!     virtual void recv(RecvEvent);
//!     virtual void calc(CalcEvent);
//! };
//! ```
//!
//! The Rust rendering inverts `eventOver` into a poll: the scheduler calls
//! [`Backend::next_event`], which advances the backend's internal clock to
//! the next event and returns it. As long as a simulator can report *which*
//! operation finished and *when*, it can sit behind this trait — the
//! property the paper identifies as the key integration requirement.
//!
//! ## Two-phase completions
//!
//! Each issued operation produces up to two events:
//!
//! * [`EventKind::CpuFree`] — the op's *CPU phase* is over and its compute
//!   stream may issue the next task (LogGOPS: the `o` overhead elapsed; a
//!   posted recv frees its stream immediately). Optional: if a backend never
//!   emits it, the stream stays busy until `Done` (fully blocking ops).
//! * [`EventKind::Done`] — the op *semantically completed*: dependents may
//!   start (a send's buffer is reusable / a recv's message fully arrived).
//!
//! Splitting the two is what lets send/recv pairs issued on one stream
//! overlap in flight (non-blocking semantics) while calcs still occupy
//! their stream exclusively.

use atlahs_goal::{Rank, Tag, TaskId};

/// Simulated time in nanoseconds.
pub type Time = u64;

/// A reference to one GOAL task instance owned by the scheduler.
///
/// Backends treat this as an opaque token and hand it back in completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpRef {
    pub rank: Rank,
    pub task: TaskId,
}

impl OpRef {
    #[inline]
    pub fn new(rank: Rank, task: TaskId) -> Self {
        OpRef { rank, task }
    }
}

/// What a backend event signifies for the referenced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// CPU phase over: the op's compute stream may issue its next task.
    /// The op itself is still outstanding.
    CpuFree,
    /// The op semantically completed; dependents may fire. Implies
    /// `CpuFree` if none was reported earlier.
    Done,
}

/// A backend event (the paper's `eventOver`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub op: OpRef,
    pub time: Time,
    pub kind: EventKind,
}

impl Completion {
    pub fn done(op: OpRef, time: Time) -> Self {
        Completion { op, time, kind: EventKind::Done }
    }

    pub fn cpu_free(op: OpRef, time: Time) -> Self {
        Completion { op, time, kind: EventKind::CpuFree }
    }
}

/// A network simulation backend.
///
/// Lifecycle: the driver calls [`Backend::simulation_setup`] once, then
/// interleaves `send`/`recv`/`calc` issues with [`Backend::next_event`]
/// polls until the schedule drains. Backends must:
///
/// * report events in non-decreasing time order,
/// * report exactly one `Done` per issued op (and at most one `CpuFree`,
///   at or before the `Done`),
/// * complete a `send` when the sender may consider the operation done
///   under the backend's protocol model,
/// * complete a `recv` when the matched message has fully arrived and any
///   receiver-side overhead has been charged,
/// * match messages between the same `(src, dst)` pair and `tag` in FIFO
///   order ([`crate::Matcher`] implements this discipline).
pub trait Backend {
    /// Configure for a run over `num_ranks` ranks. Called exactly once,
    /// before any issue. (Paper: `simulationSetup` — topology, CC, and
    /// routing configuration happen in the backend's own constructor.)
    fn simulation_setup(&mut self, num_ranks: usize);

    /// Current simulated time (ns).
    fn now(&self) -> Time;

    /// Issue a send of `bytes` from `op.rank` to `dst`.
    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag);

    /// Issue (post) a recv on `op.rank` matching `(src, tag)`.
    fn recv(&mut self, op: OpRef, src: Rank, bytes: u64, tag: Tag);

    /// Issue a local computation of `cost` nanoseconds on `op.rank`.
    fn calc(&mut self, op: OpRef, cost: u64);

    /// Advance simulated time to the next event and return it, or `None`
    /// if the backend is quiescent (no pending work).
    fn next_event(&mut self) -> Option<Completion>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opref_ordering_is_rank_major() {
        let a = OpRef::new(0, TaskId(5));
        let b = OpRef::new(1, TaskId(0));
        assert!(a < b);
    }

    #[test]
    fn completion_constructors() {
        let op = OpRef::new(0, TaskId(0));
        assert_eq!(Completion::done(op, 5).kind, EventKind::Done);
        assert_eq!(Completion::cpu_free(op, 5).kind, EventKind::CpuFree);
    }
}
