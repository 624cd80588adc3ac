//! The GOAL scheduler and simulation driver.
//!
//! The scheduler walks every rank's task DAG, issuing tasks to the backend
//! as their dependencies are satisfied and their compute stream becomes
//! idle. Backend events drive progress: `CpuFree` releases the issuing
//! stream, `Done` releases dependents (`requires` edges fire on completion,
//! `irequires` edges on issue). A schedule stores only its predecessor
//! lists; the successor index the releases walk is derived once per rank
//! when a run starts ([`atlahs_goal::RankSchedule::successors`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use atlahs_goal::{DepKind, GoalSchedule, Rank, RankSchedule, Successors, TaskId, TaskKind};

use crate::api::{Backend, Completion, EventKind, OpRef, Time};

/// Final report of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Time of the last completion (ns).
    pub makespan: Time,
    /// Per-rank time of the rank's last completed task (0 for empty ranks).
    pub rank_finish: Vec<Time>,
    /// Total tasks completed.
    pub completed: usize,
}

impl SimReport {
    /// The finish time of a job occupying `nodes`: the latest rank finish
    /// among them (0 for an empty node list). This is the per-job metric
    /// the multi-job and dynamic cluster reports are built from.
    pub fn job_finish(&self, nodes: &[Rank]) -> Time {
        nodes.iter().map(|&n| self.rank_finish[n as usize]).max().unwrap_or(0)
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The backend went quiescent with unfinished tasks (e.g. a recv whose
    /// send never arrives). Carries up to 8 stuck task references.
    Deadlock { completed: usize, total: usize, sample: Vec<OpRef> },
    /// The backend reported an event for a task that was not running.
    SpuriousCompletion { op: OpRef },
    /// The backend reported a time earlier than a previous event.
    TimeRegression { op: OpRef, time: Time, previous: Time },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { completed, total, sample } => write!(
                f,
                "deadlock: {completed}/{total} tasks completed; stuck tasks include {sample:?}"
            ),
            SimError::SpuriousCompletion { op } => {
                write!(f, "backend reported event for task {op:?} which was not running")
            }
            SimError::TimeRegression { op, time, previous } => {
                write!(f, "backend time went backwards at {op:?}: {time} < {previous}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-stream queue of ready task ids, popped in ascending-id order.
///
/// GOAL generators emit each stream's tasks in issue order, so ids enter
/// this queue almost always monotonically increasing: those go into a
/// plain ring buffer and pop O(1) from the front. The rare out-of-order
/// arrival (a dependency releasing an *earlier* id after a later one is
/// already queued) spills into a small binary heap, and `pop` takes the
/// minimum of the two fronts — exactly the `BinaryHeap<Reverse<u32>>`
/// min-id semantics this queue replaced, so simulation results are
/// bit-identical, without the O(log n) sift on the dense path.
#[derive(Debug, Default, Clone)]
struct ReadyQueue {
    /// Strictly increasing task ids.
    ring: VecDeque<u32>,
    /// Out-of-order arrivals (ids smaller than the ring's back).
    spill: BinaryHeap<Reverse<u32>>,
}

impl ReadyQueue {
    #[inline]
    fn push(&mut self, id: u32) {
        match self.ring.back() {
            Some(&back) if id < back => self.spill.push(Reverse(id)),
            _ => self.ring.push_back(id),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        match (self.ring.front(), self.spill.peek()) {
            (Some(&r), Some(&Reverse(s))) if s < r => {
                self.spill.pop();
                Some(s)
            }
            (Some(_), _) => self.ring.pop_front(),
            (None, Some(_)) => self.spill.pop().map(|Reverse(s)| s),
            (None, None) => None,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.spill.is_empty()
    }
}

/// One stream slot of a rank: slot `s` is the stream
/// `RankSchedule::stream_ids()[s]`.
#[derive(Debug, Default, Clone)]
struct StreamState {
    busy: bool,
    ready: ReadyQueue,
}

// A task's `remaining` word: while the task waits, the number of its
// dependency edges still to fire — below `READY`, which setup checks — and
// from then on its state.
/// Queued on its stream.
const READY: u32 = (1 << 31) - 3;
/// Issued; stream already released by a `CpuFree` event.
const FREED: u32 = (1 << 31) - 2;
const DONE: u32 = (1 << 31) - 1;
/// `RUNNING + s`: issued, stream slot `s` still held. A slot is a `u16`,
/// so every one fits.
const RUNNING: u32 = 1 << 31;

#[derive(Clone)]
struct RankState {
    /// One word per task: its countdown, then its state (see [`READY`]).
    /// Readiness does not care which kind of edge fires last, so one
    /// counter serves both kinds, and edge firing — the scheduler's most
    /// random-access-heavy path — is one decrement and a `== 0`.
    remaining: Vec<u32>,
    /// One per entry of the schedule's stream table, in its order
    /// (ascending stream id): slot order is the deterministic issue order.
    streams: Vec<StreamState>,
    /// Bit `s` is set iff stream slot `s` is idle and has a ready task,
    /// so a dispatch visits only the slots that issue.
    issuable: Vec<u64>,
}

impl RankState {
    fn new(sched: &RankSchedule) -> Self {
        let slots = sched.stream_ids().len();
        let mut rs = RankState {
            remaining: countdowns(sched),
            issuable: vec![0; slots.div_ceil(64)],
            streams: vec![StreamState::default(); slots],
        };
        for i in 0..rs.remaining.len() {
            if rs.remaining[i] == 0 {
                rs.make_ready(sched, i);
            }
        }
        rs
    }

    #[inline]
    fn mark_issuable(&mut self, s: usize) {
        self.issuable[s / 64] |= 1 << (s % 64);
    }

    /// Queue task `i`, whose countdown just reached zero, on its stream.
    #[inline]
    fn make_ready(&mut self, sched: &RankSchedule, i: usize) {
        self.remaining[i] = READY;
        let s = sched.slot(TaskId(i as u32));
        let ss = &mut self.streams[s];
        ss.ready.push(i as u32);
        if !ss.busy {
            self.mark_issuable(s);
        }
    }

    /// Release stream slot `s`.
    #[inline]
    fn free(&mut self, s: usize) {
        let ss = &mut self.streams[s];
        ss.busy = false;
        if !ss.ready.is_empty() {
            self.mark_issuable(s);
        }
    }

    /// Fire one dependency edge into `succ`.
    #[inline]
    fn release(&mut self, sched: &RankSchedule, succ: TaskId) {
        let w = &mut self.remaining[succ.index()];
        debug_assert!(*w < READY, "edge fired into {succ:?}, which no longer waits");
        *w -= 1;
        if *w == 0 {
            self.make_ready(sched, succ.index());
        }
    }

    /// Hand task `id`, already marked running, to the backend and fire its
    /// start (`irequires`) edges.
    #[inline]
    fn issue<B: Backend>(
        &mut self,
        sched: &RankSchedule,
        succs: &Successors,
        rank: Rank,
        id: TaskId,
        backend: &mut B,
    ) {
        let op = OpRef::new(rank, id);
        match sched.kind(id) {
            TaskKind::Send { bytes, dst, tag } => backend.send(op, dst, bytes, tag),
            TaskKind::Recv { bytes, src, tag } => backend.recv(op, src, bytes, tag),
            TaskKind::Calc { cost } => backend.calc(op, cost),
        }
        for dep in succs.of(id) {
            if dep.kind() == DepKind::Start {
                self.release(sched, dep.task());
            }
        }
    }

    /// Issue every ready task whose stream is idle, to fixpoint (issuing
    /// may fire `irequires` edges that ready tasks on other streams). A
    /// round takes the head of every issuable slot in ascending slot order
    /// before it issues any, so what an issue readies waits for the next
    /// round.
    ///
    /// `batch` is caller-owned scratch (cleared here) so the per-event
    /// dispatch path performs no allocation.
    fn dispatch<B: Backend>(
        &mut self,
        sched: &RankSchedule,
        succs: &Successors,
        rank: Rank,
        backend: &mut B,
        batch: &mut Vec<u32>,
    ) {
        loop {
            batch.clear();
            for (w, word) in self.issuable.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let s = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let ss = &mut self.streams[s];
                    ss.busy = true;
                    let id = ss.ready.pop().expect("an issuable slot has a ready task");
                    self.remaining[id as usize] = RUNNING + s as u32;
                    batch.push(id);
                }
            }
            if batch.is_empty() {
                return;
            }
            for &id in batch.iter() {
                self.issue(sched, succs, rank, TaskId(id), backend);
            }
        }
    }
}

/// A single simulation of one GOAL schedule over one backend.
pub struct Simulation<'g> {
    goal: &'g GoalSchedule,
}

impl<'g> Simulation<'g> {
    pub fn new(goal: &'g GoalSchedule) -> Self {
        Simulation { goal }
    }

    /// Run the schedule to completion on `backend`.
    pub fn run<B: Backend>(&self, backend: &mut B) -> Result<SimReport, SimError> {
        SimDriver::start(self.goal, backend).finish(backend)
    }
}

/// Outcome of a bounded driver step ([`SimDriver::run_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// The time bound was reached; events remain pending. This is a
    /// checkpointable position: the last processed event's time is
    /// `>=` the bound.
    Paused,
    /// The backend went quiescent: every issued operation completed (or
    /// the run deadlocked — [`SimDriver::finish`] distinguishes).
    Quiescent,
}

/// The resumable scheduler state behind [`Simulation::run`].
///
/// A driver owns everything the event loop mutates — dependency
/// countdowns, ready rings, stream busy bits, completion tallies — and
/// is `Clone`, so `driver.clone()` plus a backend
/// [`crate::Snapshot::checkpoint`] captures a *complete* simulation
/// state. The pair restores into any number of what-if continuations,
/// each bit-identical to a straight-through run (the branch-and-continue
/// engine in `atlahs_bench` is built on exactly this pair). What the loop
/// only reads — each rank's successor index, derived from the schedule at
/// [`SimDriver::start`] — sits behind an `Arc`, so a clone copies the
/// mutable state alone.
///
/// The pause boundary is deterministic by construction: `run_until(t)`
/// processes events strictly in backend order and stops *after* the
/// first event at time `>= t`, so a paused-and-resumed run processes the
/// exact event sequence of an unpaused one — no peeking, no stashed
/// events, no divergence.
#[derive(Clone)]
pub struct SimDriver<'g> {
    goal: &'g GoalSchedule,
    /// Each rank's successor index, derived once at [`SimDriver::start`]
    /// and never mutated, so a cloned driver shares it.
    succs: Arc<[Successors]>,
    ranks: Vec<RankState>,
    /// Reused across dispatch calls: the per-round issue batch.
    issue_buf: Vec<u32>,
    total: usize,
    completed: usize,
    makespan: Time,
    rank_finish: Vec<Time>,
    last_time: Time,
    /// Whether the initially ready tasks have been issued.
    issued: bool,
}

impl<'g> SimDriver<'g> {
    /// Set the backend up for `goal` and issue nothing: the first
    /// [`run_until`](Self::run_until) or [`finish`](Self::finish) issues
    /// every initially ready task. Between the two the backend is set up
    /// and idle at time 0, which is where an override lands that should
    /// hold from the first task on.
    pub fn start<B: Backend>(goal: &'g GoalSchedule, backend: &mut B) -> Self {
        backend.simulation_setup(goal.num_ranks());
        let (ranks, succs): (Vec<_>, Vec<_>) =
            goal.ranks().iter().map(|sched| (RankState::new(sched), sched.successors())).unzip();
        SimDriver {
            goal,
            succs: succs.into(),
            ranks,
            issue_buf: Vec::new(),
            total: goal.total_tasks(),
            completed: 0,
            makespan: 0,
            rank_finish: vec![0u64; goal.num_ranks()],
            last_time: 0,
            issued: false,
        }
    }

    /// Issue every initially ready task, once.
    fn issue_initial<B: Backend>(&mut self, backend: &mut B) {
        if self.issued {
            return;
        }
        self.issued = true;
        for (r, rs) in self.ranks.iter_mut().enumerate() {
            let (sched, succs) = (self.goal.rank(r as Rank), &self.succs[r]);
            rs.dispatch(sched, succs, r as Rank, backend, &mut self.issue_buf);
        }
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Time of the most recently processed event.
    pub fn last_time(&self) -> Time {
        self.last_time
    }

    /// Process events until the first event at time `>= bound` has been
    /// processed (inclusive — that event *is* processed), or the backend
    /// goes quiescent, whichever comes first.
    pub fn run_until<B: Backend>(
        &mut self,
        backend: &mut B,
        bound: Time,
    ) -> Result<RunState, SimError> {
        self.issue_initial(backend);
        while let Some(ev) = backend.next_event() {
            self.process_event(backend, ev)?;
            if ev.time >= bound {
                return Ok(RunState::Paused);
            }
        }
        Ok(RunState::Quiescent)
    }

    /// Drain the backend and build the final report (or the deadlock
    /// error if tasks remain).
    pub fn finish<B: Backend>(mut self, backend: &mut B) -> Result<SimReport, SimError> {
        self.issue_initial(backend);
        while let Some(ev) = backend.next_event() {
            self.process_event(backend, ev)?;
        }

        if self.completed != self.total {
            let stuck = self.ranks.iter().enumerate().flat_map(|(r, rs)| {
                let unfinished = rs.remaining.iter().enumerate().filter(|&(_, &w)| w != DONE);
                unfinished.map(move |(i, _)| OpRef::new(r as Rank, TaskId(i as u32)))
            });
            return Err(SimError::Deadlock {
                completed: self.completed,
                total: self.total,
                sample: stuck.take(8).collect(),
            });
        }

        Ok(SimReport {
            makespan: self.makespan,
            rank_finish: self.rank_finish,
            completed: self.completed,
        })
    }

    /// Handle one backend event: validate, update task/stream state, fire
    /// dependency edges, re-dispatch the rank.
    fn process_event<B: Backend>(
        &mut self,
        backend: &mut B,
        ev: Completion,
    ) -> Result<(), SimError> {
        if ev.time < self.last_time {
            return Err(SimError::TimeRegression {
                op: ev.op,
                time: ev.time,
                previous: self.last_time,
            });
        }
        self.last_time = ev.time;
        let op = ev.op;
        let (r, ti) = (op.rank as usize, op.task.index());
        let Some(rs) = self.ranks.get_mut(r).filter(|rs| ti < rs.remaining.len()) else {
            return Err(SimError::SpuriousCompletion { op });
        };
        let (sched, succs) = (self.goal.rank(op.rank), &self.succs[r]);
        let w = rs.remaining[ti];
        match (ev.kind, w) {
            (EventKind::CpuFree, RUNNING..=u32::MAX) => {
                rs.remaining[ti] = FREED;
                rs.free((w - RUNNING) as usize);
            }
            (EventKind::Done, RUNNING..=u32::MAX | FREED) => {
                if w >= RUNNING {
                    rs.free((w - RUNNING) as usize);
                }
                rs.remaining[ti] = DONE;
                self.completed += 1;
                self.makespan = self.makespan.max(ev.time);
                self.rank_finish[r] = self.rank_finish[r].max(ev.time);
                // Fire completion (`requires`) edges.
                for dep in succs.of(op.task) {
                    if dep.kind() == DepKind::Full {
                        rs.release(sched, dep.task());
                    }
                }
            }
            _ => return Err(SimError::SpuriousCompletion { op }),
        }
        rs.dispatch(sched, succs, op.rank, backend, &mut self.issue_buf);
        Ok(())
    }
}

/// The initial `remaining` column of a rank (see [`RankState`]): each
/// task's predecessor count.
fn countdowns(sched: &RankSchedule) -> Vec<u32> {
    (0..sched.num_tasks())
        .map(|i| {
            let preds = sched.preds(TaskId(i as u32)).len();
            assert!(preds < READY as usize, "task {i} has {preds} predecessors");
            preds as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Completion;
    use crate::backends::IdealBackend;
    use atlahs_goal::GoalBuilder;

    fn run(goal: &GoalSchedule) -> SimReport {
        let mut b = IdealBackend::new(8, 100);
        Simulation::new(goal).run(&mut b).unwrap()
    }

    #[test]
    fn countdowns_are_the_public_in_degrees_summed() {
        let mut b = GoalBuilder::new(2);
        let ids: Vec<_> = (0..6).map(|_| b.calc(0, 1)).collect();
        b.requires(0, ids[3], ids[0]);
        b.irequires(0, ids[3], ids[1]);
        b.irequires(0, ids[3], ids[2]);
        b.requires(0, ids[4], ids[3]);
        b.requires(0, ids[5], ids[3]);
        b.requires(0, ids[5], ids[4]);
        b.irequires(0, ids[5], ids[0]);
        let goal = b.build().unwrap();
        for sched in goal.ranks() {
            let (full, start) = sched.indegrees();
            let want: Vec<u32> = full.iter().zip(&start).map(|(&f, &s)| f + s).collect();
            assert_eq!(countdowns(sched), want);
        }
        assert_eq!(countdowns(goal.rank(0)), [0, 0, 0, 3, 1, 3]);
    }

    /// Past waiting, a task's word is a state: a running task on slot 1
    /// reads `RUNNING + 1`, which a decrement would silently turn into
    /// `RUNNING`, another task's claim on slot 0.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "edge fired into TaskId(1), which no longer waits")]
    fn firing_an_edge_into_a_task_that_no_longer_waits_panics_in_debug() {
        let mut b = GoalBuilder::new(1);
        b.calc_on(0, 10, 0);
        b.calc_on(0, 10, 1);
        let goal = b.build().unwrap();
        let sched = goal.rank(0);
        let mut rs = RankState::new(sched);
        let succs = sched.successors();
        rs.dispatch(sched, &succs, 0, &mut SplitPhase::new(), &mut Vec::new());
        assert_eq!(rs.remaining, [RUNNING, RUNNING + 1]);
        rs.release(sched, TaskId(1));
    }

    /// The successor index decides which dependents a completion or an
    /// issue releases first, so its order is pinned: dependents in
    /// ascending id, and within one dependent its predecessor order,
    /// whatever order the edges were inserted in and whichever kind they
    /// are. A cloned driver shares the index rather than copying it.
    #[test]
    fn the_release_order_is_dependent_order_and_clones_share_it() {
        use atlahs_goal::Dep;
        let mut b = GoalBuilder::new(1);
        let ids: Vec<_> = (0..5).map(|s| b.calc_on(0, 10, s)).collect();
        b.requires(0, ids[4], ids[0]);
        b.irequires(0, ids[2], ids[0]);
        b.requires(0, ids[3], ids[1]);
        b.irequires(0, ids[4], ids[0]);
        b.requires(0, ids[1], ids[0]);
        b.requires(0, ids[2], ids[0]);
        let goal = b.build().unwrap();
        let mut backend = IdealBackend::new(8, 100);
        let driver = SimDriver::start(&goal, &mut backend);
        let want = [
            Dep::new(ids[1], DepKind::Full),
            Dep::new(ids[2], DepKind::Start),
            Dep::new(ids[2], DepKind::Full),
            Dep::new(ids[4], DepKind::Full),
            Dep::new(ids[4], DepKind::Start),
        ];
        assert_eq!(driver.succs[0].of(ids[0]), want);
        assert_eq!(driver.succs[0].of(ids[1]), [Dep::new(ids[3], DepKind::Full)]);
        assert_eq!(driver.succs[0], goal.rank(0).successors());
        let fork = driver.clone();
        assert!(Arc::ptr_eq(&driver.succs, &fork.succs));
        assert_eq!(fork.finish(&mut backend).unwrap().completed, 5);
    }

    #[test]
    fn single_calc() {
        let mut b = GoalBuilder::new(1);
        b.calc(0, 500);
        let goal = b.build().unwrap();
        let r = run(&goal);
        assert_eq!(r.makespan, 500);
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn serial_chain_accumulates() {
        let mut b = GoalBuilder::new(1);
        let ids: Vec<_> = (0..10).map(|_| b.calc(0, 100)).collect();
        b.chain(0, &ids);
        let goal = b.build().unwrap();
        assert_eq!(run(&goal).makespan, 1000);
    }

    #[test]
    fn same_stream_serializes_without_deps() {
        let mut b = GoalBuilder::new(1);
        b.calc(0, 100);
        b.calc(0, 100);
        let goal = b.build().unwrap();
        // No dependency, same stream: still serial.
        assert_eq!(run(&goal).makespan, 200);
    }

    #[test]
    fn different_streams_overlap() {
        let mut b = GoalBuilder::new(1);
        b.calc_on(0, 100, 0);
        b.calc_on(0, 100, 1);
        let goal = b.build().unwrap();
        assert_eq!(run(&goal).makespan, 100);
    }

    #[test]
    fn ping_message_includes_latency() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 1000, 0);
        b.recv(1, 0, 1000, 0);
        let goal = b.build().unwrap();
        // IdealBackend: tx = bytes/bw = 1000ns, latency 100ns.
        let r = run(&goal);
        assert_eq!(r.makespan, 1100);
        assert_eq!(r.rank_finish, vec![1000, 1100]);
    }

    #[test]
    fn late_recv_completes_at_post_time() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 100, 0);
        let c = b.calc(1, 10_000);
        let r = b.recv(1, 0, 100, 0);
        b.requires(1, r, c);
        let goal = b.build().unwrap();
        // Message arrives at 200; recv posted at 10_000 -> completes then.
        assert_eq!(run(&goal).makespan, 10_000);
    }

    #[test]
    fn irequires_releases_on_issue() {
        let mut b = GoalBuilder::new(1);
        let long = b.calc_on(0, 1000, 0);
        let follower = b.calc_on(0, 10, 1);
        b.irequires(0, follower, long);
        let goal = b.build().unwrap();
        // follower starts when `long` starts, so finishes at 10, not 1010.
        let r = run(&goal);
        assert_eq!(r.makespan, 1000);
        assert_eq!(r.completed, 2);
    }

    #[test]
    fn deadlock_detected_on_unmatched_recv() {
        let mut b = GoalBuilder::new(2);
        b.recv(1, 0, 100, 7);
        let goal = b.build().unwrap();
        let mut backend = IdealBackend::new(8, 100);
        let err = Simulation::new(&goal).run(&mut backend).unwrap_err();
        match err {
            SimError::Deadlock { completed, total, sample } => {
                assert_eq!(completed, 0);
                assert_eq!(total, 1);
                assert_eq!(sample, vec![OpRef::new(1, TaskId(0))]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cross_rank_pipeline() {
        // 0 -> 1 -> 2 relay: makespan = 2 * (tx + L) with tx = 100ns.
        let mut b = GoalBuilder::new(3);
        b.send(0, 1, 100, 0);
        let rv = b.recv(1, 0, 100, 0);
        let sd = b.send(1, 2, 100, 0);
        b.requires(1, sd, rv);
        b.recv(2, 1, 100, 0);
        let goal = b.build().unwrap();
        assert_eq!(run(&goal).makespan, 400);
    }

    #[test]
    fn report_counts_all_tasks() {
        let mut b = GoalBuilder::new(4);
        for r in 0..4u32 {
            let dst = (r + 1) % 4;
            let src = (r + 3) % 4;
            b.send(r, dst, 64, 0);
            b.recv(r, src, 64, 0);
            b.calc(r, 10);
        }
        let goal = b.build().unwrap();
        let rep = run(&goal);
        assert_eq!(rep.completed, 12);
    }

    /// A backend that frees the CPU immediately on sends/recvs (Done later),
    /// to exercise the two-phase protocol: two sends on one stream overlap.
    struct SplitPhase {
        now: Time,
        events: std::collections::BinaryHeap<Reverse<(Time, u64, bool, OpRef)>>,
        seq: u64,
    }
    impl SplitPhase {
        fn new() -> Self {
            SplitPhase { now: 0, events: Default::default(), seq: 0 }
        }
        fn push(&mut self, t: Time, done: bool, op: OpRef) {
            self.events.push(Reverse((t, self.seq, done, op)));
            self.seq += 1;
        }
    }
    impl Backend for SplitPhase {
        fn simulation_setup(&mut self, _: usize) {}
        fn now(&self) -> Time {
            self.now
        }
        fn send(&mut self, op: OpRef, _dst: Rank, bytes: u64, _tag: atlahs_goal::Tag) {
            // CPU free after 10ns; done after bytes ns (flow completion).
            self.push(self.now + 10, false, op);
            self.push(self.now + bytes, true, op);
        }
        fn recv(&mut self, op: OpRef, _src: Rank, bytes: u64, _tag: atlahs_goal::Tag) {
            self.push(self.now + 10, false, op);
            self.push(self.now + bytes, true, op);
        }
        fn calc(&mut self, op: OpRef, cost: u64) {
            self.push(self.now + cost, true, op);
        }
        fn next_event(&mut self) -> Option<crate::api::Completion> {
            let Reverse((t, _, done, op)) = self.events.pop()?;
            self.now = t;
            Some(if done { Completion::done(op, t) } else { Completion::cpu_free(op, t) })
        }
    }

    /// The checkpoint/branch contract at the driver level: pause a run
    /// mid-flight, snapshot the backend and clone the driver, then finish
    /// both the original and the resumed copy — every report field must
    /// be identical to a straight-through run, for several pause points.
    #[test]
    fn pause_checkpoint_resume_is_bit_identical() {
        use crate::snapshot::Snapshot;
        let mut b = GoalBuilder::new(4);
        for r in 0..4u32 {
            let dst = (r + 1) % 4;
            let src = (r + 3) % 4;
            let mut prev = None;
            for lap in 0..3u64 {
                let c = b.calc(r, 50 + 10 * lap);
                let s = b.send(r, dst, 400, lap as u32);
                let v = b.recv(r, src, 400, lap as u32);
                b.requires(r, s, c);
                if let Some(p) = prev {
                    b.requires(r, c, p);
                }
                prev = Some(v);
            }
        }
        let goal = b.build().unwrap();

        let mut straight_backend = IdealBackend::new(8, 100);
        let straight = Simulation::new(&goal).run(&mut straight_backend).unwrap();

        for bound in [0u64, 1, 300, 700, 1_500, u64::MAX] {
            let mut backend = IdealBackend::new(8, 100);
            let mut driver = SimDriver::start(&goal, &mut backend);
            let state = driver.run_until(&mut backend, bound).unwrap();
            if bound == u64::MAX {
                assert_eq!(state, RunState::Quiescent, "nothing runs past u64::MAX");
            }
            // Branch: checkpoint, finish the original, then restore the
            // checkpoint into the same backend and finish the clone.
            let snap = backend.checkpoint();
            let fork = driver.clone();
            let original = driver.finish(&mut backend).unwrap();
            backend.restore(&snap);
            let resumed = fork.finish(&mut backend).unwrap();
            assert_eq!(original, straight, "paused run diverged (bound {bound})");
            assert_eq!(resumed, straight, "restored branch diverged (bound {bound})");
        }
    }

    /// `start` sets the backend up and issues nothing; the first `finish`
    /// (or `run_until`) issues the roots at time 0.
    #[test]
    fn start_sets_up_and_issues_nothing() {
        use crate::probe::{Call, Recorded};
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 1000, 0);
        b.recv(1, 0, 1000, 0);
        let goal = b.build().unwrap();
        let mut backend = Recorded::new(IdealBackend::new(8, 100));
        let driver = SimDriver::start(&goal, &mut backend);
        assert_eq!(backend.calls(), [Call::Setup(2)]);
        assert_eq!(driver.finish(&mut backend).unwrap().makespan, 1100);
        let issued_at = backend.calls()[1..3].iter().map(|c| match *c {
            Call::Send { at, .. } | Call::Recv { at, .. } => at,
            other => panic!("the roots issue first, got {other:?}"),
        });
        assert_eq!(issued_at.collect::<Vec<_>>(), [0, 0]);
    }

    #[test]
    fn run_until_pauses_after_first_event_at_or_past_bound() {
        let mut b = GoalBuilder::new(1);
        let ids: Vec<_> = (0..5).map(|_| b.calc(0, 100)).collect();
        b.chain(0, &ids);
        let goal = b.build().unwrap();
        let mut backend = IdealBackend::new(8, 0);
        let mut driver = SimDriver::start(&goal, &mut backend);
        // Events fire at 100, 200, ...; the first event at time >= 250
        // is the one at 300, and run_until processes it before pausing.
        assert_eq!(driver.run_until(&mut backend, 250).unwrap(), RunState::Paused);
        assert_eq!(driver.last_time(), 300);
        assert_eq!(driver.completed(), 3);
        let rep = driver.finish(&mut backend).unwrap();
        assert_eq!(rep.makespan, 500);
        assert_eq!(rep.completed, 5);
    }

    #[test]
    fn cpu_free_lets_same_stream_ops_overlap() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 1000, 0);
        b.send(0, 1, 1000, 1);
        let goal = b.build().unwrap();
        let mut backend = SplitPhase::new();
        // Without CpuFree the two sends would take 2000ns; with the CPU
        // released after 10ns the second overlaps: done by 1010.
        let rep = Simulation::new(&goal).run(&mut backend).unwrap();
        assert_eq!(rep.makespan, 1010);
    }
}
