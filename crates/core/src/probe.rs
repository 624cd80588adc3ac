//! Observing a run at the backend contract.
//!
//! Every op goes into a backend through `send`/`recv`/`calc`, and every
//! completion comes back out through `next_event` (paper §3.3, Fig. 7).
//! [`Recorded`] sits on that contract: it forwards each call to the
//! backend it wraps and appends it to one log, in call order. Anything a
//! run can say about itself — per-flow completion times today — is
//! derived from that log, not kept by the backend.
//!
//! The log is part of the wrapper's [`Snapshot`] state, so a restore
//! rewinds it with the backend. A backend that is not wrapped pays
//! nothing.
//!
//! ```
//! use atlahs_core::{backends::IdealBackend, probe::Recorded, Simulation};
//! use atlahs_goal::GoalBuilder;
//!
//! let mut b = GoalBuilder::new(2);
//! b.send(0, 1, 4096, 0);
//! b.recv(1, 0, 4096, 0);
//! let goal = b.build().unwrap();
//!
//! let mut backend = Recorded::new(IdealBackend::new(8_000, 500));
//! Simulation::new(&goal).run(&mut backend).unwrap();
//! let flows = backend.flows();
//! assert_eq!((flows.len(), flows[0].bytes), (1, 4096));
//! ```

use std::collections::BTreeMap;

use atlahs_goal::{Rank, Tag};

use crate::api::{Backend, Completion, EventKind, OpRef, Time};
use crate::snapshot::Snapshot;

/// One call a driver made into a backend, or one event it got back.
/// Issues carry the backend's clock at the moment they were made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Setup(usize),
    Send { op: OpRef, dst: Rank, bytes: u64, tag: Tag, at: Time },
    Recv { op: OpRef, src: Rank, bytes: u64, tag: Tag, at: Time },
    Calc { op: OpRef, cost: u64, at: Time },
    Event(Option<Completion>),
}

/// Completion record of one inter-rank message: issued at `start`, its
/// send `Done` at `end` (Fig. 11's message completion time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    pub src: Rank,
    pub dst: Rank,
    pub bytes: u64,
    pub start: Time,
    pub end: Time,
}

impl FlowRecord {
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// A backend that logs every call made into it (see the module docs).
pub struct Recorded<B> {
    inner: B,
    calls: Vec<Call>,
}

impl<B> Recorded<B> {
    pub fn new(inner: B) -> Self {
        Recorded { inner, calls: Vec::new() }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// The run's log: its setup, then every issue and event in call
    /// order (`Event(None)` is a poll that found the backend quiescent).
    pub fn calls(&self) -> &[Call] {
        &self.calls
    }

    /// One record per inter-rank send, in the order its `Done` arrived,
    /// with the bytes the schedule asked for. Intra-rank sends never
    /// cross the network and are left out.
    pub fn flows(&self) -> Vec<FlowRecord> {
        let mut pending = BTreeMap::new();
        let mut flows = Vec::new();
        for call in &self.calls {
            match *call {
                Call::Send { op, dst, bytes, at, .. } if op.rank != dst => {
                    pending.insert(op, (dst, bytes, at));
                }
                Call::Event(Some(Completion { op, time, kind: EventKind::Done })) => {
                    if let Some((dst, bytes, start)) = pending.remove(&op) {
                        flows.push(FlowRecord { src: op.rank, dst, bytes, start, end: time });
                    }
                }
                _ => {}
            }
        }
        flows
    }
}

impl<B: Backend> Backend for Recorded<B> {
    /// A setup starts a new run, and with it a new log, the way it resets
    /// the backend's own state.
    fn simulation_setup(&mut self, num_ranks: usize) {
        self.calls.clear();
        self.calls.push(Call::Setup(num_ranks));
        self.inner.simulation_setup(num_ranks);
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        self.calls.push(Call::Send { op, dst, bytes, tag, at: self.inner.now() });
        self.inner.send(op, dst, bytes, tag);
    }

    fn recv(&mut self, op: OpRef, src: Rank, bytes: u64, tag: Tag) {
        self.calls.push(Call::Recv { op, src, bytes, tag, at: self.inner.now() });
        self.inner.recv(op, src, bytes, tag);
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        self.calls.push(Call::Calc { op, cost, at: self.inner.now() });
        self.inner.calc(op, cost);
    }

    fn next_event(&mut self) -> Option<Completion> {
        let ev = self.inner.next_event();
        self.calls.push(Call::Event(ev));
        ev
    }
}

impl<B: Snapshot> Snapshot for Recorded<B> {
    type State = (B::State, Vec<Call>);

    fn checkpoint(&self) -> Self::State {
        (self.inner.checkpoint(), self.calls.clone())
    }

    fn restore(&mut self, (state, calls): &Self::State) {
        self.inner.restore(state);
        self.calls.clone_from(calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::IdealBackend;
    use crate::{SimDriver, Simulation};
    use atlahs_goal::{GoalBuilder, GoalSchedule, TaskId};

    /// 16 Gb/s = 2 B/ns, 10 ns latency.
    fn ideal() -> IdealBackend {
        IdealBackend::new(16, 10)
    }

    #[test]
    fn the_log_is_every_call_in_the_order_it_was_made() {
        let op = |rank, task| OpRef::new(rank, TaskId(task));
        let mut b = Recorded::new(ideal());
        b.simulation_setup(2);
        b.calc(op(0, 0), 30);
        b.send(op(0, 1), 1, 100, 7);
        b.recv(op(1, 0), 0, 100, 7);
        let events: Vec<_> = std::iter::from_fn(|| b.next_event()).collect();
        let mut want = vec![
            Call::Setup(2),
            Call::Calc { op: op(0, 0), cost: 30, at: 0 },
            Call::Send { op: op(0, 1), dst: 1, bytes: 100, tag: 7, at: 0 },
            Call::Recv { op: op(1, 0), src: 0, bytes: 100, tag: 7, at: 0 },
        ];
        want.extend(events.into_iter().map(|c| Call::Event(Some(c))));
        want.push(Call::Event(None));
        assert_eq!(b.calls(), want);

        // A second run starts a second log.
        b.simulation_setup(1);
        assert_eq!(b.calls(), [Call::Setup(1)]);
    }

    #[test]
    fn flows_are_inter_rank_sends_with_their_requested_bytes() {
        let mut g = GoalBuilder::new(2);
        let c = g.calc(0, 500);
        let late = g.send(0, 1, 4096, 0);
        g.requires(0, late, c);
        g.recv(1, 0, 4096, 0);
        g.send(1, 0, 0, 1);
        g.recv(0, 1, 0, 1);
        g.send(1, 1, 64, 2);
        g.recv(1, 1, 64, 2);
        let goal = g.build().unwrap();

        let mut b = Recorded::new(ideal());
        Simulation::new(&goal).run(&mut b).unwrap();
        let flows = b.flows();
        assert_eq!(flows.len(), 2, "{flows:?}");
        assert_eq!(flows[0], FlowRecord { src: 1, dst: 0, bytes: 0, start: 0, end: 0 });
        assert_eq!(flows[1], FlowRecord { src: 0, dst: 1, bytes: 4096, start: 500, end: 2548 });
        assert_eq!(flows[1].duration(), 2048);
    }

    fn ring(n: u32) -> GoalSchedule {
        let mut g = GoalBuilder::new(n as usize);
        for r in 0..n {
            let c = g.calc(r, 100 * u64::from(r + 1));
            let s = g.send(r, (r + 1) % n, 1000, 0);
            g.requires(r, s, c);
            g.recv(r, (r + n - 1) % n, 1000, 0);
        }
        g.build().unwrap()
    }

    /// A restore rewinds the log, in the wrapper the state came from and
    /// in a fresh one, and the run then continues into the straight run.
    #[test]
    fn a_restore_rewinds_the_log_in_any_wrapper() {
        let goal = ring(4);
        let mut straight = Recorded::new(ideal());
        let report = Simulation::new(&goal).run(&mut straight).unwrap();

        let mut b = Recorded::new(ideal());
        let mut driver = SimDriver::start(&goal, &mut b);
        driver.run_until(&mut b, 300).unwrap();
        let (at_pause, snap) = (b.calls().to_vec(), b.checkpoint());
        assert!(at_pause.len() < straight.calls().len());
        assert_eq!(driver.clone().finish(&mut b).unwrap(), report);
        assert_eq!(b.calls(), straight.calls());

        let mut fresh = Recorded::new(ideal());
        for b in [&mut b, &mut fresh] {
            b.restore(&snap);
            assert_eq!(b.calls(), at_pause);
            assert_eq!(driver.clone().finish(b).unwrap(), report);
            assert_eq!((b.calls(), b.flows()), (straight.calls(), straight.flows()));
        }
    }
}
