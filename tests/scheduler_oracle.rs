//! The scheduler against its former self.
//!
//! The dispatch path of `atlahs_core::scheduler` at the parent commit —
//! `TaskState` in a column of its own, `u64` packed countdowns, every
//! stream slot scanned per event, issue through `Task` → `OpKind` →
//! `Backend::issue` — lives on below, verbatim, as a test-only oracle
//! (the additions are a counter of spill-heap pushes and, since a schedule
//! no longer stores its successor lists, the oracle's own, derived from
//! `dep_edges()` at start). The rewrite must
//! make the same `Backend` calls with the same arguments in the same
//! order, see the same completion stream, and return the same
//! `SimReport` or `SimError`, on random DAGs and on small instances of
//! the three benchmark pipelines, straight through and paused at random
//! bounds with the driver cloned.

use std::cell::Cell;

use atlahs::core::backends::IdealBackend;
use atlahs::core::probe::{Call, Recorded};
use atlahs::core::{Backend, SimDriver, SimError, SimReport};
use atlahs::core::{Simulation, Snapshot, Time};
use atlahs::goal::{GoalBuilder, GoalSchedule, Rank, Tag, Task, TaskId};
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::{LinkParams, TopologyConfig};
use atlahs::htsim::CcAlgo;
use atlahs::lgs::{LgsBackend, LogGopsParams};
use atlahs::schedgen::{mpi2goal, nccl2goal};
use atlahs::tracers::mpi::{lulesh, HpcAppConfig, Scaling};
use atlahs::tracers::nccl::{presets, trace_llm};
use atlahs_bench::{scenario, workloads};
use oracle::OracleDriver;
use proptest::prelude::*;

thread_local! {
    /// Out-of-order ready pushes the oracle spilled on this test's thread.
    static SPILLS: Cell<usize> = const { Cell::new(0) };
}

mod oracle {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    use atlahs::core::api::EventKind;
    use atlahs::core::{Backend, Completion, OpRef, RunState, SimError, SimReport, Time};
    use atlahs::goal::{
        Dep, DepKind, GoalSchedule, Rank, RankSchedule, Stream, Tag, TaskId, TaskKind,
    };

    use super::SPILLS;

    /// The parent's `OpKind`, with its `Backend::issue` default method as
    /// a function.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OpKind {
        Send { dst: Rank, bytes: u64, tag: Tag },
        Recv { src: Rank, bytes: u64, tag: Tag },
        Calc { cost: u64 },
    }

    fn issue<B: Backend>(backend: &mut B, op: OpRef, kind: OpKind) {
        match kind {
            OpKind::Send { dst, bytes, tag } => backend.send(op, dst, bytes, tag),
            OpKind::Recv { src, bytes, tag } => backend.recv(op, src, bytes, tag),
            OpKind::Calc { cost } => backend.calc(op, cost),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TaskState {
        Waiting,
        Ready,
        /// Issued; stream still held.
        Running,
        /// Issued; stream already released by a `CpuFree` event.
        RunningFreed,
        Done,
    }

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
                Some(&back) if id < back => {
                    SPILLS.with(|n| n.set(n.get() + 1));
                    self.spill.push(Reverse(id))
                }
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
    }

    #[derive(Debug, Clone)]
    struct StreamState {
        stream: Stream,
        busy: bool,
        ready: ReadyQueue,
    }

    /// One subtracted from a task's packed start-edge (`irequires`) counter.
    const START_ONE: u64 = 1 << 32;

    #[derive(Clone)]
    struct RankState {
        /// Packed per-task in-degree countdown: `start_remaining << 32 |
        /// full_remaining`. Edge firing is the scheduler's most
        /// random-access-heavy path (one decrement + readiness check per
        /// dependency edge), so keeping both counters in one word halves the
        /// cache lines it touches, and readiness is a single `== 0`.
        remaining: Vec<u64>,
        state: Vec<TaskState>,
        /// Sorted by stream id; iterated in that (deterministic) order on
        /// every dispatch, so a flat sorted vector beats a tree map — ranks
        /// have a handful of streams and this sits on the per-event path.
        streams: Vec<StreamState>,
    }

    impl RankState {
        #[inline]
        fn stream_idx(&self, stream: Stream) -> usize {
            // Most schedules use a single stream per rank: check it first.
            if self.streams.len() == 1 || self.streams[0].stream == stream {
                0
            } else {
                self.streams
                    .binary_search_by_key(&stream, |ss| ss.stream)
                    .expect("task stream registered at setup")
            }
        }

        /// Stream slot of task `ti`, looking its stream up only when the
        /// rank actually multiplexes streams.
        #[inline]
        fn stream_idx_of(&self, sched: &RankSchedule, ti: usize) -> usize {
            if self.streams.len() == 1 {
                0
            } else {
                self.stream_idx(sched.stream(TaskId(ti as u32)))
            }
        }
    }

    /// The parent's `SimDriver`, renamed.
    #[derive(Clone)]
    pub struct OracleDriver<'g> {
        goal: &'g GoalSchedule,
        /// `succs[r][i]`: the tasks of rank `r` that depend on task `i`.
        succs: Vec<Vec<Vec<Dep>>>,
        ranks: Vec<RankState>,
        /// Reused across dispatch calls: the per-round issue batch.
        issue_buf: Vec<TaskId>,
        total: usize,
        completed: usize,
        makespan: Time,
        rank_finish: Vec<Time>,
        last_time: Time,
    }

    impl<'g> OracleDriver<'g> {
        /// Set the backend up for `goal` and issue every initially ready
        /// task. The returned driver is positioned before the first event.
        pub fn start<B: Backend>(goal: &'g GoalSchedule, backend: &mut B) -> Self {
            backend.simulation_setup(goal.num_ranks());

            let mut ranks: Vec<RankState> = Vec::with_capacity(goal.num_ranks());
            for sched in goal.ranks() {
                let n = sched.num_tasks();
                let stream_col: Vec<Stream> =
                    (0..n).map(|i| sched.stream(TaskId(i as u32))).collect();
                let mut stream_ids = stream_col.clone();
                stream_ids.sort_unstable();
                stream_ids.dedup();
                let mut rs = RankState {
                    remaining: packed_indegrees(sched),
                    state: vec![TaskState::Waiting; n],
                    streams: stream_ids
                        .into_iter()
                        .map(|stream| StreamState {
                            stream,
                            busy: false,
                            ready: ReadyQueue::default(),
                        })
                        .collect(),
                };
                for (i, &stream) in stream_col.iter().enumerate() {
                    if rs.remaining[i] == 0 {
                        rs.state[i] = TaskState::Ready;
                        let si = rs.stream_idx(stream);
                        rs.streams[si].ready.push(i as u32);
                    }
                }
                ranks.push(rs);
            }

            let mut driver = OracleDriver {
                goal,
                succs: goal.ranks().iter().map(successor_lists).collect(),
                ranks,
                issue_buf: Vec::new(),
                total: goal.total_tasks(),
                completed: 0,
                makespan: 0,
                rank_finish: vec![0u64; goal.num_ranks()],
                last_time: 0,
            };

            // Initial dispatch on every rank.
            for r in 0..driver.ranks.len() {
                let succs = &driver.succs[r];
                dispatch_rank(
                    goal,
                    succs,
                    &mut driver.ranks,
                    r as Rank,
                    backend,
                    &mut driver.issue_buf,
                );
            }
            driver
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
            while let Some(ev) = backend.next_event() {
                self.process_event(backend, ev)?;
            }

            if self.completed != self.total {
                let mut sample = Vec::new();
                'outer: for (r, rs) in self.ranks.iter().enumerate() {
                    for (i, st) in rs.state.iter().enumerate() {
                        if *st != TaskState::Done {
                            sample.push(OpRef::new(r as Rank, TaskId(i as u32)));
                            if sample.len() >= 8 {
                                break 'outer;
                            }
                        }
                    }
                }
                return Err(SimError::Deadlock {
                    completed: self.completed,
                    total: self.total,
                    sample,
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
            let r = op.rank as usize;
            let ti = op.task.index();
            if r >= self.ranks.len() || ti >= self.ranks[r].state.len() {
                return Err(SimError::SpuriousCompletion { op });
            }
            let st = self.ranks[r].state[ti];
            let sched = self.goal.rank(op.rank);

            match ev.kind {
                EventKind::CpuFree => {
                    if st != TaskState::Running {
                        return Err(SimError::SpuriousCompletion { op });
                    }
                    self.ranks[r].state[ti] = TaskState::RunningFreed;
                    let si = self.ranks[r].stream_idx_of(sched, ti);
                    self.ranks[r].streams[si].busy = false;
                    dispatch_rank(
                        self.goal,
                        &self.succs[r],
                        &mut self.ranks,
                        op.rank,
                        backend,
                        &mut self.issue_buf,
                    );
                }
                EventKind::Done => {
                    if st != TaskState::Running && st != TaskState::RunningFreed {
                        return Err(SimError::SpuriousCompletion { op });
                    }
                    if st == TaskState::Running {
                        let si = self.ranks[r].stream_idx_of(sched, ti);
                        self.ranks[r].streams[si].busy = false;
                    }
                    self.ranks[r].state[ti] = TaskState::Done;
                    self.completed += 1;
                    self.makespan = self.makespan.max(ev.time);
                    self.rank_finish[r] = self.rank_finish[r].max(ev.time);

                    // Fire completion (`requires`) edges. The packed
                    // counter would borrow across halves on underflow
                    // instead of panicking like the old u32 arrays, so
                    // keep the debug guard explicit.
                    for dep in &self.succs[r][ti] {
                        if dep.kind() == DepKind::Full {
                            let succ = dep.task();
                            let rs = &mut self.ranks[r];
                            debug_assert!(
                                rs.remaining[succ.index()] as u32 != 0,
                                "full-edge underflow on {succ:?}"
                            );
                            rs.remaining[succ.index()] -= 1;
                            maybe_ready(sched, rs, succ);
                        }
                    }
                    dispatch_rank(
                        self.goal,
                        &self.succs[r],
                        &mut self.ranks,
                        op.rank,
                        backend,
                        &mut self.issue_buf,
                    );
                }
            }
            Ok(())
        }
    }

    /// The successor lists of a rank, straight from its edge list: each
    /// task's dependents in ascending id, and within one dependent in its
    /// predecessor order.
    fn successor_lists(sched: &RankSchedule) -> Vec<Vec<Dep>> {
        let mut succs = vec![Vec::new(); sched.num_tasks()];
        for (a, b, kind) in sched.dep_edges() {
            succs[b.index()].push(Dep::new(a, kind));
        }
        succs
    }

    /// The initial `remaining` column of a rank (see [`RankState`]): one pass
    /// over the predecessor lists, the counters of
    /// [`RankSchedule::indegrees`] already packed.
    fn packed_indegrees(sched: &RankSchedule) -> Vec<u64> {
        (0..sched.num_tasks())
            .map(|i| {
                let preds = sched.preds(TaskId(i as u32));
                preds
                    .iter()
                    .map(|dep| if dep.kind() == DepKind::Full { 1 } else { START_ONE })
                    .sum()
            })
            .collect()
    }

    fn maybe_ready(sched: &RankSchedule, rs: &mut RankState, id: TaskId) {
        let i = id.index();
        if rs.remaining[i] == 0 && rs.state[i] == TaskState::Waiting {
            rs.state[i] = TaskState::Ready;
            let si = rs.stream_idx_of(sched, i);
            rs.streams[si].ready.push(id.0);
        }
    }

    /// Mark `id` running, hand it to the backend, and fire its start
    /// (`irequires`) edges.
    #[inline]
    fn issue_task<B: Backend>(
        sched: &RankSchedule,
        succs: &[Vec<Dep>],
        ranks: &mut [RankState],
        rank: Rank,
        id: TaskId,
        backend: &mut B,
    ) {
        ranks[rank as usize].state[id.index()] = TaskState::Running;
        let kind = match sched.task(id).kind {
            TaskKind::Send { bytes, dst, tag } => OpKind::Send { dst, bytes, tag },
            TaskKind::Recv { bytes, src, tag } => OpKind::Recv { src, bytes, tag },
            TaskKind::Calc { cost } => OpKind::Calc { cost },
        };
        issue(backend, OpRef::new(rank, id), kind);
        for dep in &succs[id.index()] {
            if dep.kind() == DepKind::Start {
                let succ = dep.task();
                let rs = &mut ranks[rank as usize];
                debug_assert!(
                    rs.remaining[succ.index()] >> 32 != 0,
                    "start-edge underflow on {succ:?}"
                );
                rs.remaining[succ.index()] -= START_ONE;
                maybe_ready(sched, rs, succ);
            }
        }
    }

    /// Issue every ready task whose stream is idle on `rank`, to fixpoint
    /// (issuing may fire `irequires` edges that ready tasks on other streams).
    ///
    /// `issue_buf` is caller-owned scratch (cleared here) so the per-event
    /// dispatch path performs no allocation.
    fn dispatch_rank<B: Backend>(
        goal: &GoalSchedule,
        succs: &[Vec<Dep>],
        ranks: &mut [RankState],
        rank: Rank,
        backend: &mut B,
        issue_buf: &mut Vec<TaskId>,
    ) {
        let sched = goal.rank(rank);
        // Single-stream ranks (the overwhelmingly common shape, and this sits
        // on the per-event path): at most one task can issue — the stream
        // goes busy immediately, and `irequires` releases can only ready
        // tasks on that same busy stream — so skip the batch machinery.
        if ranks[rank as usize].streams.len() == 1 {
            let ss = &mut ranks[rank as usize].streams[0];
            if ss.busy {
                return;
            }
            let Some(id) = ss.ready.pop() else {
                return;
            };
            ss.busy = true;
            issue_task(sched, succs, ranks, rank, TaskId(id), backend);
            return;
        }
        loop {
            // Collect issuable tasks stream by stream (ascending stream id:
            // deterministic).
            let rs = &mut ranks[rank as usize];
            issue_buf.clear();
            for ss in rs.streams.iter_mut() {
                if !ss.busy {
                    if let Some(id) = ss.ready.pop() {
                        ss.busy = true;
                        issue_buf.push(TaskId(id));
                    }
                }
            }
            if issue_buf.is_empty() {
                return;
            }
            for &id in issue_buf.iter() {
                issue_task(sched, succs, ranks, rank, id, backend);
            }
        }
    }
}

// ------------------------------------------------------------ harness ----

fn assert_same_calls(got: &[Call], want: &[Call]) {
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        panic!("call {i} differs: {:?} where the oracle made {:?}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "call counts differ");
}

/// The run two [`agree`]ing schedulers made: its outcome, and the
/// backend the new scheduler drove.
struct Agreed<B> {
    outcome: Result<SimReport, SimError>,
    backend: B,
}

/// Run `goal` on a fresh backend from `make` through the scheduler and
/// through the oracle, and assert the two runs are the same run.
fn agree<B: Backend>(goal: &GoalSchedule, make: impl Fn() -> B) -> Agreed<Recorded<B>> {
    let mut got = Recorded::new(make());
    let outcome = Simulation::new(goal).run(&mut got);
    let mut want = Recorded::new(make());
    let expected = OracleDriver::start(goal, &mut want).finish(&mut want);
    assert_same_calls(got.calls(), want.calls());
    assert_eq!(outcome, expected);
    Agreed { outcome, backend: got }
}

/// [`agree`] for a run paused at `bound`, branched there (driver clone plus
/// backend checkpoint), and finished twice: original, then the restored
/// branch. The restore rewinds the log, so each finish's call stream is
/// compared on its own.
fn agree_paused<B: Backend + Snapshot>(goal: &GoalSchedule, make: impl Fn() -> B, bound: Time) {
    let mut got = Recorded::new(make());
    let mut driver = SimDriver::start(goal, &mut got);
    let paused = driver.run_until(&mut got, bound);
    let at = (paused, driver.completed(), driver.last_time());
    let snap = got.checkpoint();
    let fork = driver.clone();
    let original = driver.finish(&mut got);
    let original_calls = got.calls().to_vec();
    got.restore(&snap);
    let reports = (original, fork.finish(&mut got));

    let mut want = Recorded::new(make());
    let mut driver = OracleDriver::start(goal, &mut want);
    let paused = driver.run_until(&mut want, bound);
    let want_at = (paused, driver.completed(), driver.last_time());
    let snap = want.checkpoint();
    let fork = driver.clone();
    let original = driver.finish(&mut want);
    assert_same_calls(&original_calls, want.calls());
    want.restore(&snap);
    let want_reports = (original, fork.finish(&mut want));

    assert_same_calls(got.calls(), want.calls());
    assert_eq!(at, want_at, "paused at {bound}");
    assert_eq!(reports, want_reports, "branched at {bound}");
}

fn ideal() -> IdealBackend {
    IdealBackend::new(8, 100)
}

fn lgs_eager() -> LgsBackend {
    LgsBackend::new(LogGopsParams::ai_alps())
}

/// Messages above 1 KiB take the RTS/CTS handshake.
fn lgs_rendezvous() -> LgsBackend {
    LgsBackend::new(LogGopsParams { s: 1024, ..LogGopsParams::hpc_testbed() })
}

fn htsim(hosts: usize) -> HtsimBackend {
    let topo = TopologyConfig::SingleSwitch { hosts, link: LinkParams::default() };
    HtsimBackend::new(HtsimConfig::new(topo, CcAlgo::Mprdma))
}

// ------------------------------------------------------- random DAGs ----

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// `tasks` calcs and matched send/recv pairs over `ranks` ranks, each
/// task on one of up to `streams` sparse stream ids, plus `edges` random
/// `requires`/`irequires` edges per rank. Edges follow a random order of
/// the rank's tasks rather than id order, so ids become ready out of
/// order; cross-rank waits may deadlock, which both sides must report
/// alike.
fn random_goal(seed: u64, ranks: u32, tasks: usize, streams: u32, edges: usize) -> GoalSchedule {
    let mut rng = Rng(seed);
    let mut b = GoalBuilder::new(ranks as usize);
    let mut ids = vec![Vec::new(); ranks as usize];
    let stream = |rng: &mut Rng| 3 * rng.below(u64::from(streams)) as u32 + 5;
    for _ in 0..tasks {
        let r = rng.below(u64::from(ranks)) as Rank;
        if ranks > 1 && rng.below(3) == 0 {
            let dst = (r + 1 + rng.below(u64::from(ranks - 1)) as Rank) % ranks;
            let (bytes, tag) = (1 + rng.below(4096), rng.below(3) as Tag);
            let s = stream(&mut rng);
            ids[r as usize].push(b.add_task(r, Task::send(dst, bytes, tag).on_stream(s)));
            let s = stream(&mut rng);
            ids[dst as usize].push(b.add_task(dst, Task::recv(r, bytes, tag).on_stream(s)));
        } else {
            let s = stream(&mut rng);
            ids[r as usize].push(b.add_task(r, Task::calc(1 + rng.below(500)).on_stream(s)));
        }
    }
    for (r, order) in ids.iter_mut().enumerate() {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for _ in 0..if order.len() > 1 { edges } else { 0 } {
            let i = rng.below(order.len() as u64 - 1) as usize;
            let j = i + 1 + rng.below((order.len() - i - 1) as u64) as usize;
            if rng.below(3) == 0 {
                b.irequires(r as Rank, order[j], order[i]);
            } else {
                b.requires(r as Rank, order[j], order[i]);
            }
        }
    }
    b.build().unwrap()
}

fn distinct_streams(goal: &GoalSchedule) -> usize {
    let per_rank = goal.ranks().iter().map(|sched| {
        let mut ids: Vec<_> =
            (0..sched.num_tasks()).map(|i| sched.stream(TaskId(i as u32))).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    });
    per_rank.max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_dags_dispatch_like_the_oracle(
        seed in 0u64..u64::MAX,
        ranks in 1u32..5,
        tasks in 1usize..300,
        streams in 1u32..71,
        edges in 0usize..120,
    ) {
        let goal = random_goal(seed, ranks, tasks, streams, edges);
        agree(&goal, ideal);
        agree(&goal, lgs_eager);
        agree(&goal, lgs_rendezvous);
        agree(&goal, || htsim(ranks as usize));
    }

    #[test]
    fn paused_and_branched_runs_dispatch_like_the_oracle(
        seed in 0u64..u64::MAX,
        ranks in 1u32..4,
        tasks in 1usize..80,
        streams in 1u32..71,
        edges in 0usize..60,
        pct in 0u64..110,
    ) {
        let goal = random_goal(seed, ranks, tasks, streams, edges);
        let end = match agree(&goal, ideal).outcome {
            Ok(report) => report.makespan,
            Err(_) => 10_000,
        };
        let bound = end * pct / 100;
        agree_paused(&goal, ideal, bound);
        agree_paused(&goal, lgs_rendezvous, bound);
        agree_paused(&goal, || htsim(ranks as usize), bound);
    }
}

/// Seventy streams in one rank: the issuable set spans two bitset words,
/// and a round issues across both.
#[test]
fn seventy_streams_span_two_bitset_words() {
    let mut b = GoalBuilder::new(2);
    let mut prev = Vec::new();
    for lap in 0..3u64 {
        let mut cur = Vec::new();
        for s in 0..70u32 {
            let t = if s % 7 == 0 {
                b.send_on(0, 1, 2048, s, s)
            } else {
                b.calc_on(0, 10 + lap * s as u64, s)
            };
            if let Some(&p) = prev.get(s as usize) {
                b.requires(0, t, p);
            }
            if s > 0 && lap == 1 {
                b.irequires(0, t, cur[s as usize - 1]);
            }
            cur.push(t);
        }
        prev = cur;
    }
    for s in (0..70u32).step_by(7) {
        for _ in 0..3 {
            b.recv_on(1, 0, 2048, s, s % 3);
        }
    }
    let goal = b.build().unwrap();
    assert_eq!(distinct_streams(&goal), 70);
    let outcomes = [
        agree(&goal, ideal).outcome,
        agree(&goal, lgs_eager).outcome,
        agree(&goal, lgs_rendezvous).outcome,
    ];
    for report in outcomes {
        assert_eq!(report.unwrap().completed, goal.total_tasks());
    }
}

/// The random generator does what its doc claims: ranks past one bitset
/// word, and ready ids arriving below an already queued one.
#[test]
fn random_dags_reach_two_bitset_words_and_the_spill_heap() {
    let mut widest = 0;
    for seed in 0..24 {
        let goal = random_goal(seed, 1, 150, 70, 100);
        widest = widest.max(distinct_streams(&goal));
        agree(&goal, ideal);
    }
    assert!(widest > 64, "widest rank has {widest} streams");
    assert!(SPILLS.with(Cell::get) > 0, "no ready id ever arrived out of order");
}

/// Unmatched receives and everything behind them: the same deadlock, with
/// the same eight-task sample, on both sides.
#[test]
fn deadlock_samples_agree() {
    let mut b = GoalBuilder::new(3);
    for r in 0..3u32 {
        let first = b.recv(r, (r + 1) % 3, 64, 9);
        for s in 0..4 {
            let t = b.calc_on(r, 5, s);
            b.requires(r, t, first);
        }
        b.calc_on(r, 7, 9);
    }
    let goal = b.build().unwrap();
    for err in [
        agree(&goal, ideal).outcome,
        agree(&goal, lgs_rendezvous).outcome,
        agree(&goal, || htsim(3)).outcome,
    ] {
        match err {
            Err(SimError::Deadlock { completed: 3, total: 18, sample }) => {
                assert_eq!(sample.len(), 8)
            }
            other => panic!("expected the deadlock, got {other:?}"),
        }
    }
}

// --------------------------------------------------------- pipelines ----

/// `ai_lgs_trace` in small: a data-parallel LLM trace lowered onto
/// multi-stream node ranks, simulated on eager LGS straight through and
/// paused at five bounds.
#[test]
fn ai_pipeline_dispatches_like_the_oracle() {
    let mut cfg = presets::llama7b_dp16(0.002);
    cfg.iterations = 1;
    cfg.batch = cfg.batch.min(2 * cfg.dp);
    let goal = nccl2goal::convert(&trace_llm(&cfg), &Default::default()).unwrap();
    assert!(distinct_streams(&goal) > 1);
    let report = agree(&goal, lgs_eager).outcome.unwrap();
    assert_eq!(report.completed, goal.total_tasks());
    for pct in [0, 13, 50, 87, 100] {
        agree_paused(&goal, lgs_eager, report.makespan * pct / 100);
    }
}

/// `hpc_lgs_rendezvous` in small: LULESH halos above the rendezvous
/// threshold, one stream per rank.
#[test]
fn hpc_pipeline_dispatches_like_the_oracle() {
    let trace = lulesh(&HpcAppConfig {
        ranks: 27,
        iterations: 3,
        scaling: Scaling::Weak,
        compute_ns: 2_000_000,
        halo_bytes: 400_000,
        noise: 0.02,
        seed: 1,
    });
    let goal = mpi2goal::convert(&trace, &Default::default()).unwrap();
    let run = agree(&goal, || LgsBackend::new(LogGopsParams::hpc_testbed()));
    assert_eq!(run.outcome.unwrap().completed, goal.total_tasks());
    assert!(run.backend.inner().stats().rendezvous_messages > 0);
}

/// `storage_htsim_oversub` in small: Direct Drive requests on the 8:1
/// oversubscribed fabric.
#[test]
fn storage_pipeline_dispatches_like_the_oracle() {
    let mut trace = workloads::storage_trace_at_load(3_000, 50, 1);
    for r in &mut trace.records {
        r.ts_ns /= 12;
    }
    let layout = scenario::storage_layout();
    let mut b = GoalBuilder::new(layout.total_ranks());
    atlahs::directdrive::trace_to_goal(
        &trace,
        &layout,
        &scenario::storage_service_params(),
        &mut b,
    );
    let goal = b.build().unwrap();
    let topo = workloads::storage_topology(goal.num_ranks(), 8);
    let run = agree(&goal, || HtsimBackend::new(HtsimConfig::new(topo.clone(), CcAlgo::Mprdma)));
    assert_eq!(run.outcome.unwrap().completed, goal.total_tasks());
    assert!(run.backend.inner().net_stats().drops > 0, "the fabric is oversubscribed");
}
