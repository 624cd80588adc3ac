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

/// An exact per-byte cost of `num/den` nanoseconds per byte.
///
/// Every message-level time is `base + bytes × rate`: LogGOPS's `o + O·b`
/// and `g + G·b`, the Direct Drive media time, the NVLink copy, the ideal
/// wire time, a reduction. The rate is an integer fraction in lowest terms
/// (so equal rates compare equal), and a cost is integer arithmetic:
/// `u64` while `bytes · num` fits, `u128` past that, saturating at
/// `u64::MAX` when the cost itself does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsPerByte {
    num: u64,
    den: u64,
}

impl NsPerByte {
    /// No per-byte cost.
    pub const ZERO: NsPerByte = NsPerByte { num: 0, den: 1 };

    /// `ps` picoseconds per byte.
    pub const fn ps(ps: u64) -> Self {
        Self::ratio(ps, 1000)
    }

    /// `num/den` nanoseconds per byte; `den` must be positive.
    pub const fn ratio(num: u64, den: u64) -> Self {
        assert!(den > 0, "a per-byte rate needs a positive denominator");
        let (mut a, mut b) = (num, den);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        NsPerByte { num: num / a, den: den / a }
    }

    /// Nanoseconds for `bytes`, rounded down.
    pub fn trunc(self, bytes: u64) -> Time {
        self.cost(bytes, 0)
    }

    /// Nanoseconds for `bytes`, rounded half up.
    pub fn round(self, bytes: u64) -> Time {
        self.cost(bytes, self.den / 2)
    }

    /// `⌊(bytes · num + bias) / den⌋`; a bias of `⌊den/2⌋` rounds half up.
    fn cost(self, bytes: u64, bias: u64) -> Time {
        match bytes.checked_mul(self.num).and_then(|p| p.checked_add(bias)) {
            Some(p) => p / self.den,
            None => {
                let wide = (u128::from(bytes) * u128::from(self.num) + u128::from(bias))
                    / u128::from(self.den);
                Time::try_from(wide).unwrap_or(Time::MAX)
            }
        }
    }
}

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

    #[test]
    fn rates_are_kept_in_lowest_terms() {
        assert_eq!(NsPerByte::ps(40), NsPerByte::ratio(1, 25));
        assert_eq!(NsPerByte::ratio(800, 200 * 92), NsPerByte::ratio(1, 23));
        assert_eq!(NsPerByte::ps(0), NsPerByte::ZERO);
        assert_eq!(NsPerByte::ZERO.round(u64::MAX), 0);
    }

    #[test]
    fn round_breaks_ties_upward_and_trunc_drops_them() {
        // 0.18 ns/B: 25 B cost exactly 4.5 ns.
        let g = NsPerByte::ps(180);
        assert_eq!((g.trunc(25), g.round(25)), (4, 5));
        assert_eq!((g.trunc(24), g.round(24)), (4, 4));
        // An odd denominator has no ties: 1/3 and 2/3 of a nanosecond.
        let third = NsPerByte::ratio(1, 3);
        assert_eq!((third.round(1), third.round(2), third.round(3)), (0, 1, 1));
    }

    /// From 1 ns/B up, the cost of `u64::MAX` bytes does not fit in a
    /// `u64` (or just does): both rounding modes saturate, as the float
    /// cast they replaced did, instead of wrapping. Below 1 ns/B the
    /// `u128` path is exact.
    #[test]
    fn costs_saturate_instead_of_wrapping() {
        for rate in [
            NsPerByte::ps(1000),    // LGS G = 1
            NsPerByte::ps(2000),    // LGS O = 2
            NsPerByte::ratio(8, 1), // the ideal backend at 1 Gb/s
            NsPerByte::ratio(8, 7), // the ideal backend at 7 Gb/s
            NsPerByte::ratio(3, 2), // a tie-breaking denominator
        ] {
            assert_eq!(rate.trunc(u64::MAX), u64::MAX, "{rate:?}");
            assert_eq!(rate.round(u64::MAX), u64::MAX, "{rate:?}");
        }
        assert_eq!(NsPerByte::ratio(1, 2).trunc(u64::MAX), u64::MAX / 2);
        assert_eq!(NsPerByte::ratio(1, 2).round(u64::MAX), u64::MAX / 2 + 1);
    }
}
