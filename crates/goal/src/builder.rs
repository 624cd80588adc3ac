//! Programmatic construction of GOAL schedules.

use crate::error::GoalError;
use crate::schedule::{Edge, GoalSchedule, RankSchedule, TaskColumns};
use crate::task::{Dep, DepKind, Rank, Stream, Tag, Task, TaskId};

/// A fluent builder for [`GoalSchedule`].
///
/// Tasks go straight into the per-rank arena columns the finished
/// [`RankSchedule`] stores, and [`GoalBuilder::build`] moves those columns
/// into the schedule, indexes the dependency edges and validates peers and
/// acyclicity.
///
/// ```
/// use atlahs_goal::GoalBuilder;
/// let mut b = GoalBuilder::new(2);
/// let c = b.calc(0, 100);
/// let s = b.send(0, 1, 1024, 7);
/// b.requires(0, s, c); // the send starts after the calc completes
/// b.recv(1, 0, 1024, 7);
/// let goal = b.build().unwrap();
/// assert_eq!(goal.total_tasks(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GoalBuilder {
    /// Per rank: the task columns and the edges in insertion order.
    ranks: Vec<(TaskColumns, Vec<Edge>)>,
}

impl GoalBuilder {
    /// A builder for `num_ranks` ranks with empty schedules.
    pub fn new(num_ranks: usize) -> Self {
        GoalBuilder { ranks: vec![Default::default(); num_ranks] }
    }

    /// Number of ranks the builder was created with.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Number of tasks added to `rank` so far.
    pub fn num_tasks(&self, rank: Rank) -> usize {
        self.ranks[rank as usize].0.len()
    }

    /// Add an arbitrary task to `rank`.
    pub fn add_task(&mut self, rank: Rank, task: Task) -> TaskId {
        let tasks = &mut self.ranks[rank as usize].0;
        let id = TaskId(tasks.len() as u32);
        tasks.push(task);
        id
    }

    /// Append a whole rank schedule to `rank`: every task of `src`, passed
    /// through `map` together with the id it receives here, then every
    /// dependency edge of `src`, grouped by dependent task in id order.
    /// New ids are `base + old id`, where `base` is
    /// [`GoalBuilder::num_tasks`] at the time of the call — merging DAGs
    /// needs no id table.
    pub fn append(
        &mut self,
        rank: Rank,
        src: &RankSchedule,
        mut map: impl FnMut(TaskId, Task) -> Result<Task, GoalError>,
    ) -> Result<(), GoalError> {
        let (tasks, (pred_offsets, pred_targets)) = (src.columns(), src.pred_lists());
        let (dst, deps) = &mut self.ranks[rank as usize];
        let base = dst.len() as u32;
        dst.reserve(tasks.len());
        for i in 0..tasks.len() {
            dst.push(map(TaskId(base + i as u32), tasks.get(i))?);
        }
        for (a, w) in pred_offsets.windows(2).enumerate() {
            let a = TaskId(base + a as u32);
            deps.extend(
                pred_targets[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|dep| (a, Dep::new(TaskId(base + dep.task().0), dep.kind()))),
            );
        }
        Ok(())
    }

    /// Finish one rank on its own: move its tasks and edges out of the
    /// builder, which keeps the rank but empty, and index them. Edge
    /// indices are checked; peers and cycles are not. A lowering that goes
    /// through an intermediate level moves that level's ranks one at a time
    /// with this and [`GoalBuilder::append`], so the intermediate level
    /// never exists as a whole schedule.
    pub fn take_rank(&mut self, rank: Rank) -> Result<RankSchedule, GoalError> {
        let (tasks, deps) = std::mem::take(&mut self.ranks[rank as usize]);
        RankSchedule::assemble(rank, tasks, deps)
    }

    /// Add a calc of `cost` nanoseconds on stream 0.
    pub fn calc(&mut self, rank: Rank, cost: u64) -> TaskId {
        self.add_task(rank, Task::calc(cost))
    }

    /// Add a calc on an explicit compute stream.
    pub fn calc_on(&mut self, rank: Rank, cost: u64, stream: Stream) -> TaskId {
        self.add_task(rank, Task::calc(cost).on_stream(stream))
    }

    /// Add a send of `bytes` to `dst` with `tag`, on stream 0.
    pub fn send(&mut self, rank: Rank, dst: Rank, bytes: u64, tag: Tag) -> TaskId {
        self.add_task(rank, Task::send(dst, bytes, tag))
    }

    /// Add a send on an explicit compute stream.
    pub fn send_on(
        &mut self,
        rank: Rank,
        dst: Rank,
        bytes: u64,
        tag: Tag,
        stream: Stream,
    ) -> TaskId {
        self.add_task(rank, Task::send(dst, bytes, tag).on_stream(stream))
    }

    /// Add a recv of `bytes` from `src` with `tag`, on stream 0.
    pub fn recv(&mut self, rank: Rank, src: Rank, bytes: u64, tag: Tag) -> TaskId {
        self.add_task(rank, Task::recv(src, bytes, tag))
    }

    /// Add a recv on an explicit compute stream.
    pub fn recv_on(
        &mut self,
        rank: Rank,
        src: Rank,
        bytes: u64,
        tag: Tag,
        stream: Stream,
    ) -> TaskId {
        self.add_task(rank, Task::recv(src, bytes, tag).on_stream(stream))
    }

    /// Declare `task requires dep`: `task` starts only after `dep` completes.
    pub fn requires(&mut self, rank: Rank, task: TaskId, dep: TaskId) {
        self.ranks[rank as usize].1.push((task, Dep::new(dep, DepKind::Full)));
    }

    /// Declare `task irequires dep`: `task` starts once `dep` has started.
    pub fn irequires(&mut self, rank: Rank, task: TaskId, dep: TaskId) {
        self.ranks[rank as usize].1.push((task, Dep::new(dep, DepKind::Start)));
    }

    /// Chain a list of tasks sequentially (each requires the previous).
    pub fn chain(&mut self, rank: Rank, tasks: &[TaskId]) {
        for w in tasks.windows(2) {
            self.requires(rank, w[1], w[0]);
        }
    }

    /// Add a zero-cost dummy calc vertex, used to join/fork streams when
    /// merging DAGs (Stages 2 and 4 of the NCCL pipeline, and multi-tenancy).
    pub fn dummy(&mut self, rank: Rank) -> TaskId {
        self.calc(rank, 0)
    }

    /// Finish building: validate and produce the schedule.
    pub fn build(self) -> Result<GoalSchedule, GoalError> {
        let goal = self.build_unchecked()?;
        goal.validate()?;
        Ok(goal)
    }

    /// Finish building without the (O(V+E)) validation pass.
    ///
    /// Intended for generators that construct schedules which are correct by
    /// construction (e.g. collective decompositions) at very large scale.
    /// Dependency edge indices are still checked.
    pub fn build_unchecked(mut self) -> Result<GoalSchedule, GoalError> {
        let ranks = (0..self.ranks.len() as Rank).map(|r| self.take_rank(r));
        Ok(GoalSchedule::new(ranks.collect::<Result<_, _>>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    #[test]
    fn fig3_schedule_builds() {
        let mut b = GoalBuilder::new(2);
        let l1 = b.calc(0, 100);
        let l2 = b.calc_on(0, 200, 0);
        let l3 = b.calc_on(0, 200, 1);
        let l4 = b.send(0, 1, 10, 0);
        b.requires(0, l2, l1);
        b.requires(0, l3, l1);
        b.requires(0, l4, l2);
        b.requires(0, l4, l3);
        b.recv(1, 0, 10, 0);
        let goal = b.build().unwrap();
        assert_eq!(goal.num_ranks(), 2);
        assert_eq!(goal.rank(0).num_tasks(), 4);
        assert_eq!(goal.rank(0).preds(l4).len(), 2);
        assert_eq!(goal.rank(0).task(l3).stream, 1);
    }

    #[test]
    fn chain_serializes() {
        let mut b = GoalBuilder::new(1);
        let ids: Vec<_> = (0..5).map(|i| b.calc(0, i)).collect();
        b.chain(0, &ids);
        let goal = b.build().unwrap();
        let order = goal.rank(0).topo_order().unwrap();
        assert_eq!(order, ids);
    }

    #[test]
    fn build_rejects_bad_peer() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 5, 8, 0);
        assert!(matches!(b.build(), Err(GoalError::PeerOutOfRange { peer: 5, .. })));
    }

    #[test]
    fn build_rejects_cycle() {
        let mut b = GoalBuilder::new(1);
        let a = b.calc(0, 1);
        let c = b.calc(0, 1);
        b.requires(0, a, c);
        b.requires(0, c, a);
        assert!(matches!(b.build(), Err(GoalError::Cycle { rank: 0 })));
    }

    #[test]
    fn build_unchecked_skips_peer_validation() {
        let mut b = GoalBuilder::new(1);
        b.send(0, 5, 8, 0); // invalid peer, but unchecked
        assert!(b.build_unchecked().is_ok());
    }

    #[test]
    fn take_rank_builds_one_rank_and_leaves_it_empty() {
        let mut b = GoalBuilder::new(2);
        let ids: Vec<_> = (0..3).map(|i| b.calc(1, i)).collect();
        b.requires(1, ids[2], ids[0]);
        b.irequires(1, ids[1], ids[0]);
        b.calc(0, 7);
        let whole = b.clone().build().unwrap();
        assert_eq!(&b.take_rank(1).unwrap(), whole.rank(1));
        assert_eq!((b.num_tasks(0), b.num_tasks(1)), (1, 0));
        // What `build` rejects in a rank, taking that rank rejects too.
        b.requires(0, TaskId(0), TaskId(7));
        assert_eq!(b.take_rank(0), Err(GoalError::UnknownTask { rank: 0, task: TaskId(7) }));
    }

    #[test]
    fn dummy_is_zero_cost_calc() {
        let mut b = GoalBuilder::new(1);
        let d = b.dummy(0);
        let goal = b.build().unwrap();
        assert_eq!(goal.rank(0).task(d).kind, TaskKind::Calc { cost: 0 });
    }

    #[test]
    fn irequires_recorded_as_start_edge() {
        let mut b = GoalBuilder::new(1);
        let a = b.calc(0, 1);
        let c = b.calc(0, 1);
        b.irequires(0, c, a);
        let goal = b.build().unwrap();
        assert_eq!(goal.rank(0).preds(c), &[Dep::new(a, DepKind::Start)]);
    }
}
