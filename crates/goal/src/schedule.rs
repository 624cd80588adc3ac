//! In-memory representation of GOAL schedules.

use crate::error::GoalError;
use crate::task::{Dep, DepKind, Rank, Stream, Task, TaskId, TaskKind};

/// A dependency edge: the dependent task, then what it depends on and how.
pub(crate) type Edge = (TaskId, Dep);

/// Discriminant column of the task arena (1 byte per task).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum KindTag {
    Send,
    Recv,
    Calc,
}

/// The struct-of-arrays task arena: column `i` describes task `i`.
///
/// Every producer — [`crate::GoalBuilder`], the codecs, `merge::compose` —
/// pushes tasks straight into these columns and a finished
/// [`RankSchedule`] takes them over by move, so a task is written once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaskColumns {
    kinds: Vec<KindTag>,
    /// Message bytes (send/recv) or calc nanoseconds.
    payloads: Vec<u64>,
    /// Peer rank: dst for sends, src for recvs, 0 for calcs.
    peers: Vec<Rank>,
    /// Match tag; 0 for calcs.
    tags: Vec<u32>,
    streams: Vec<Stream>,
}

impl TaskColumns {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    pub(crate) fn reserve(&mut self, n: usize) {
        self.kinds.reserve(n);
        self.payloads.reserve(n);
        self.peers.reserve(n);
        self.tags.reserve(n);
        self.streams.reserve(n);
    }

    /// Append a task; its id is the previous [`TaskColumns::len`].
    #[inline]
    pub(crate) fn push(&mut self, t: Task) {
        let (kind, payload, peer, tag) = match t.kind {
            TaskKind::Send { bytes, dst, tag } => (KindTag::Send, bytes, dst, tag),
            TaskKind::Recv { bytes, src, tag } => (KindTag::Recv, bytes, src, tag),
            TaskKind::Calc { cost } => (KindTag::Calc, cost, 0, 0),
        };
        self.kinds.push(kind);
        self.payloads.push(payload);
        self.peers.push(peer);
        self.tags.push(tag);
        self.streams.push(t.stream);
    }

    /// The kind of task `i`, from every column but the stream. Panics if
    /// out of range.
    // Always inlined, so that `get` compiles as it did before this was split
    // out of it: the lowering phase's peak RSS moved 0.9 MiB with that code.
    #[inline(always)]
    fn kind(&self, i: usize) -> TaskKind {
        match self.kinds[i] {
            KindTag::Send => {
                TaskKind::Send { bytes: self.payloads[i], dst: self.peers[i], tag: self.tags[i] }
            }
            KindTag::Recv => {
                TaskKind::Recv { bytes: self.payloads[i], src: self.peers[i], tag: self.tags[i] }
            }
            KindTag::Calc => TaskKind::Calc { cost: self.payloads[i] },
        }
    }

    /// Task `i`, reassembled by value. Panics if out of range.
    #[inline]
    fn get(&self, i: usize) -> Task {
        Task { kind: self.kind(i), stream: self.streams[i] }
    }
}

/// One direction of the dependency graph in CSR form: the neighbours of
/// task `i` are `targets[offsets[i]..offsets[i + 1]]`.
type Csr = (Vec<u32>, Vec<Dep>);

/// Stable counting sort of `(key, neighbour)` pairs into CSR form: the
/// neighbours of each key keep the order the iterator yields them in.
fn csr(n: usize, edges: impl Iterator<Item = Edge> + Clone) -> Csr {
    let mut offsets = vec![0u32; n + 1];
    let mut m = 0usize;
    for (key, _) in edges.clone() {
        offsets[key.index() + 1] += 1;
        m += 1;
    }
    // Exclusive scan kept one slot to the right, so that `offsets[k + 1]`
    // is key k's fill cursor and ends up as key k + 1's start.
    let mut start = 0u32;
    for slot in &mut offsets[1..] {
        start += std::mem::replace(slot, start);
    }
    let mut targets = vec![Dep::new(TaskId(0), DepKind::Full); m];
    for (key, other) in edges {
        let cursor = &mut offsets[key.index() + 1];
        targets[*cursor as usize] = other;
        *cursor += 1;
    }
    (offsets, targets)
}

/// One rank's schedule: a DAG of tasks.
///
/// Tasks are stored as a **struct-of-arrays arena**: parallel
/// `kind`/`payload`/`peer`/`tag`/`stream` columns indexed by dense
/// [`TaskId`]s, 21 bytes per task amortized versus the 32 bytes of a
/// `Vec<Task>` array-of-structs. The scheduler's issue loop walks
/// ids in near-dense order, so column reads stay cache-linear, and hot
/// single-field queries (a dispatch needs only the stream id) touch one
/// 4-byte column instead of loading a 32-byte struct. [`RankSchedule::task`]
/// reassembles a [`Task`] value on demand — it is `Copy`-cheap, so the
/// arena is an internal layout choice, not an API regime.
///
/// Dependency edges are stored in CSR form in both directions so that the
/// scheduler can walk predecessors (to compute in-degrees) and successors
/// (to release dependents on completion) without allocation. An entry is a
/// packed [`Dep`], so an edge costs 4 bytes per direction on top of the two
/// 4-byte offset columns: `8·(n + 1) + 8·E` bytes in all
/// ([`RankSchedule::dep_bytes`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankSchedule {
    tasks: TaskColumns,
    // CSR: predecessors of task i are pred_targets[pred_offsets[i]..pred_offsets[i+1]]
    pred_offsets: Vec<u32>,
    pred_targets: Vec<Dep>,
    // CSR: successors of task i (tasks that depend on i)
    succ_offsets: Vec<u32>,
    succ_targets: Vec<Dep>,
}

/// The successor-direction view of an edge.
#[inline]
fn reversed((a, dep): Edge) -> Edge {
    (dep.task(), Dep::new(a, dep.kind()))
}

impl RankSchedule {
    /// Build a rank schedule from a task list and `(task, depends_on, kind)` edges.
    ///
    /// Edges referencing out-of-range tasks or self-dependencies are rejected.
    /// Cycles are *not* checked here (see [`RankSchedule::topo_order`] /
    /// [`GoalSchedule::validate`]) because callers often assemble many ranks
    /// and validate once.
    pub fn from_parts(
        rank: Rank,
        tasks: Vec<Task>,
        deps: &[(TaskId, TaskId, DepKind)],
    ) -> Result<Self, GoalError> {
        let mut cols = TaskColumns::default();
        cols.reserve(tasks.len());
        for t in tasks {
            cols.push(t);
        }
        Self::assemble(rank, cols, deps.iter().map(|&(a, b, k)| (a, Dep::new(b, k))))
    }

    /// The one constructor: take over finished task columns and index the
    /// edges in both directions. Predecessor and successor lists keep the
    /// order of `deps`, which is what makes schedules comparable with `==`.
    pub(crate) fn assemble(
        rank: Rank,
        tasks: TaskColumns,
        deps: impl Iterator<Item = Edge> + Clone,
    ) -> Result<Self, GoalError> {
        let n = tasks.len();
        check_task_count(rank, n)?;
        for (a, dep) in deps.clone() {
            check_edge(rank, n, a, dep.task())?;
        }
        let (pred_offsets, pred_targets) = csr(n, deps.clone());
        let (succ_offsets, succ_targets) = csr(n, deps.map(reversed));
        Ok(RankSchedule { tasks, pred_offsets, pred_targets, succ_offsets, succ_targets })
    }

    /// [`RankSchedule::assemble`] for edges that arrive already grouped by
    /// dependent task in id order (the binary codec's layout): task `i`
    /// owns the next `pred_counts[i]` entries of `pred_targets`. Every edge
    /// must have passed [`check_edge`].
    pub(crate) fn from_pred_lists(
        rank: Rank,
        tasks: TaskColumns,
        pred_counts: &[u32],
        pred_targets: Vec<Dep>,
    ) -> Result<Self, GoalError> {
        check_task_count(rank, tasks.len())?;
        let mut pred_offsets = Vec::with_capacity(pred_counts.len() + 1);
        let mut end = 0u32;
        pred_offsets.push(end);
        pred_offsets.extend(pred_counts.iter().map(|&count| {
            end += count;
            end
        }));
        let mut s = RankSchedule { tasks, pred_offsets, pred_targets, ..Default::default() };
        let (succ_offsets, succ_targets) = csr(s.num_tasks(), s.edges().map(reversed));
        s.succ_offsets = succ_offsets;
        s.succ_targets = succ_targets;
        Ok(s)
    }

    /// Number of tasks in this rank's schedule.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// True if the rank has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.len() == 0
    }

    /// The task with the given id, reassembled from the arena columns.
    /// Panics if out of range.
    #[inline]
    pub fn task(&self, id: TaskId) -> Task {
        self.tasks.get(id.index())
    }

    /// The kind of task `id`: [`RankSchedule::task`] without the stream
    /// column, so issuing a task reads only the columns the backend is
    /// handed. Panics if out of range.
    #[inline]
    pub fn kind(&self, id: TaskId) -> TaskKind {
        self.tasks.kind(id.index())
    }

    /// All tasks in id order (reassembled by value; see [`RankSchedule::task`]).
    #[inline]
    pub fn tasks(&self) -> impl Iterator<Item = Task> + '_ {
        (0..self.num_tasks()).map(move |i| self.tasks.get(i))
    }

    /// The compute-stream column: `streams()[id.index()]` is the stream of
    /// task `id`. The scheduler reads this column directly — a dispatch
    /// needs nothing else about the task.
    #[inline]
    pub fn streams(&self) -> &[Stream] {
        &self.tasks.streams
    }

    /// Bytes held by the task arena columns (excludes dependency CSR).
    /// Deterministic: a pure function of the task count, so it can appear
    /// in byte-compared reports.
    pub fn task_arena_bytes(&self) -> u64 {
        let per_task = std::mem::size_of::<KindTag>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<Rank>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<Stream>();
        (self.num_tasks() * per_task) as u64
    }

    /// Bytes held by the dependency CSR in both directions: two 4-byte
    /// offset columns of `n + 1` slots and two 4-byte [`Dep`] columns of
    /// one slot per edge, `8·(n + 1) + 8·E` for an assembled rank.
    /// Deterministic, like [`RankSchedule::task_arena_bytes`].
    pub fn dep_bytes(&self) -> u64 {
        let slots = self.pred_offsets.len() + self.succ_offsets.len();
        let entries = self.pred_targets.len() + self.succ_targets.len();
        (slots * std::mem::size_of::<u32>() + entries * std::mem::size_of::<Dep>()) as u64
    }

    /// Predecessors of `id`: the tasks it depends on, with edge kinds.
    #[inline]
    pub fn preds(&self, id: TaskId) -> &[Dep] {
        let lo = self.pred_offsets[id.index()] as usize;
        let hi = self.pred_offsets[id.index() + 1] as usize;
        &self.pred_targets[lo..hi]
    }

    /// Successors of `id`: the tasks that depend on it, with edge kinds.
    #[inline]
    pub fn succs(&self, id: TaskId) -> &[Dep] {
        let lo = self.succ_offsets[id.index()] as usize;
        let hi = self.succ_offsets[id.index() + 1] as usize;
        &self.succ_targets[lo..hi]
    }

    /// Total number of dependency edges.
    #[inline]
    pub fn num_deps(&self) -> usize {
        self.pred_targets.len()
    }

    /// All dependency edges as `(task, depends_on, kind)` triples, grouped
    /// by dependent task in id order.
    pub fn dep_edges(&self) -> impl Iterator<Item = (TaskId, TaskId, DepKind)> + Clone + '_ {
        self.edges().map(|(a, dep)| (a, dep.task(), dep.kind()))
    }

    /// [`RankSchedule::dep_edges`] with the entries still packed.
    pub(crate) fn edges(&self) -> impl Iterator<Item = Edge> + Clone + '_ {
        (0..self.num_tasks()).flat_map(move |i| {
            let a = TaskId(i as u32);
            self.preds(a).iter().map(move |&dep| (a, dep))
        })
    }

    /// Tasks with no predecessors (initially eligible).
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.num_tasks()).map(|i| TaskId(i as u32)).filter(|&id| self.preds(id).is_empty())
    }

    /// Per-task `(full, start)` in-degree counters, as used by schedulers.
    pub fn indegrees(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.num_tasks();
        let mut full = vec![0u32; n];
        let mut start = vec![0u32; n];
        for i in 0..n {
            for dep in self.preds(TaskId(i as u32)) {
                match dep.kind() {
                    DepKind::Full => full[i] += 1,
                    DepKind::Start => start[i] += 1,
                }
            }
        }
        (full, start)
    }

    /// A topological order of the tasks, or `None` if the graph has a cycle.
    ///
    /// Both edge kinds constrain the order (a `Start` edge still requires the
    /// predecessor to have been issued first).
    pub fn topo_order(&self) -> Option<Vec<TaskId>> {
        let mut order = Vec::with_capacity(self.num_tasks());
        self.kahn(&mut Vec::new(), |id| order.push(id)).then_some(order)
    }

    /// Kahn's algorithm: `visit` every task in a topological order (roots in
    /// id order first, then tasks as their last predecessor is visited) and
    /// report whether that reached all of them, i.e. the DAG has no cycle.
    ///
    /// All working state lives in the caller's `links` column, so checking
    /// many ranks allocates once: a slot holds its task's remaining
    /// in-degree until that drops to zero and the task joins the ready
    /// queue, and from then on the id of the task queued after it. The
    /// extra slot `n` anchors the queue (its link is the first ready task).
    fn kahn(&self, links: &mut Vec<u32>, mut visit: impl FnMut(TaskId)) -> bool {
        const NIL: u32 = u32::MAX;
        let n = self.num_tasks();
        links.clear();
        links.extend(self.pred_offsets.windows(2).map(|w| w[1] - w[0]));
        links.push(NIL);
        let mut tail = n;
        let mut enqueue = |links: &mut Vec<u32>, id: usize| {
            links[tail] = id as u32;
            links[id] = NIL;
            tail = id;
        };
        for id in 0..n {
            if links[id] == 0 {
                enqueue(links, id);
            }
        }
        let mut head = links[n];
        let mut visited = 0;
        while head != NIL {
            visit(TaskId(head));
            visited += 1;
            for dep in self.succs(TaskId(head)) {
                let succ = dep.task().index();
                links[succ] -= 1;
                if links[succ] == 0 {
                    enqueue(links, succ);
                }
            }
            head = links[head as usize];
        }
        visited == n
    }
}

/// A complete GOAL schedule: one [`RankSchedule`] per rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoalSchedule {
    ranks: Vec<RankSchedule>,
}

impl GoalSchedule {
    /// Assemble a schedule from per-rank DAGs.
    pub fn new(ranks: Vec<RankSchedule>) -> Self {
        GoalSchedule { ranks }
    }

    /// Number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The schedule of one rank. Panics if out of range.
    #[inline]
    pub fn rank(&self, r: Rank) -> &RankSchedule {
        &self.ranks[r as usize]
    }

    /// All rank schedules in rank order.
    #[inline]
    pub fn ranks(&self) -> &[RankSchedule] {
        &self.ranks
    }

    /// Total number of tasks across all ranks.
    pub fn total_tasks(&self) -> usize {
        self.ranks.iter().map(|r| r.num_tasks()).sum()
    }

    /// Total bytes held by all ranks' task arenas (see
    /// [`RankSchedule::task_arena_bytes`]).
    pub fn task_arena_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.task_arena_bytes()).sum()
    }

    /// Validate the schedule:
    ///
    /// * every send/recv peer is a valid rank,
    /// * every per-rank DAG is acyclic.
    pub fn validate(&self) -> Result<(), GoalError> {
        let nr = self.num_ranks() as Rank;
        let mut links = Vec::new();
        for (r, sched) in self.ranks.iter().enumerate() {
            let rank = r as Rank;
            let cols = &sched.tasks;
            let bad = |i: &usize| cols.kinds[*i] != KindTag::Calc && cols.peers[*i] >= nr;
            if let Some(i) = (0..cols.len()).find(bad) {
                let (task, peer) = (TaskId(i as u32), cols.peers[i]);
                return Err(GoalError::PeerOutOfRange { rank, task, peer });
            }
            if !sched.kahn(&mut links, |_| {}) {
                return Err(GoalError::Cycle { rank });
            }
        }
        Ok(())
    }
}

/// Reject a rank whose `n` tasks do not fit the id range of a packed
/// [`Dep`]. Every constructor calls this once per rank; it is also what
/// makes the id out-of-range edges saturate to, [`Dep::MAX_ID`], an unknown
/// task in every rank.
pub(crate) fn check_task_count(rank: Rank, n: usize) -> Result<(), GoalError> {
    if n > Dep::MAX_ID as usize {
        return Err(GoalError::TooManyTasks { rank, tasks: n });
    }
    Ok(())
}

/// Reject an edge `a depends on b` that leaves the rank's `n` tasks or
/// loops onto itself.
#[inline]
pub(crate) fn check_edge(rank: Rank, n: usize, a: TaskId, b: TaskId) -> Result<(), GoalError> {
    if a.index() >= n {
        return Err(GoalError::UnknownTask { rank, task: a });
    }
    if b.index() >= n {
        return Err(GoalError::UnknownTask { rank, task: b });
    }
    if a == b {
        return Err(GoalError::SelfDependency { rank, task: a });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn diamond() -> RankSchedule {
        // 0 -> {1, 2} -> 3
        let tasks = vec![Task::calc(1), Task::calc(2), Task::calc(3), Task::calc(4)];
        let deps = vec![
            (TaskId(1), TaskId(0), DepKind::Full),
            (TaskId(2), TaskId(0), DepKind::Full),
            (TaskId(3), TaskId(1), DepKind::Full),
            (TaskId(3), TaskId(2), DepKind::Full),
        ];
        RankSchedule::from_parts(0, tasks, &deps).unwrap()
    }

    #[test]
    fn csr_preds_and_succs() {
        let s = diamond();
        assert_eq!(s.num_tasks(), 4);
        assert_eq!(s.num_deps(), 4);
        assert_eq!(s.preds(TaskId(0)), &[]);
        assert_eq!(s.preds(TaskId(3)).len(), 2);
        assert_eq!(s.succs(TaskId(0)).len(), 2);
        assert_eq!(s.succs(TaskId(3)), &[]);
        let roots: Vec<_> = s.roots().collect();
        assert_eq!(roots, vec![TaskId(0)]);
    }

    #[test]
    fn topo_order_visits_all() {
        let s = diamond();
        let order = s.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(TaskId(0)) < pos(TaskId(1)));
        assert!(pos(TaskId(0)) < pos(TaskId(2)));
        assert!(pos(TaskId(1)) < pos(TaskId(3)));
        assert!(pos(TaskId(2)) < pos(TaskId(3)));
    }

    #[test]
    fn cycle_detected() {
        let tasks = vec![Task::calc(1), Task::calc(2)];
        let deps =
            vec![(TaskId(0), TaskId(1), DepKind::Full), (TaskId(1), TaskId(0), DepKind::Full)];
        let s = RankSchedule::from_parts(0, tasks, &deps).unwrap();
        assert!(s.topo_order().is_none());
        let g = GoalSchedule::new(vec![s]);
        assert_eq!(g.validate(), Err(GoalError::Cycle { rank: 0 }));
    }

    #[test]
    fn self_dependency_rejected() {
        let tasks = vec![Task::calc(1)];
        let deps = vec![(TaskId(0), TaskId(0), DepKind::Full)];
        let err = RankSchedule::from_parts(0, tasks, &deps).unwrap_err();
        assert_eq!(err, GoalError::SelfDependency { rank: 0, task: TaskId(0) });
    }

    #[test]
    fn out_of_range_dep_rejected() {
        let tasks = vec![Task::calc(1)];
        let deps = vec![(TaskId(0), TaskId(5), DepKind::Full)];
        let err = RankSchedule::from_parts(3, tasks, &deps).unwrap_err();
        assert_eq!(err, GoalError::UnknownTask { rank: 3, task: TaskId(5) });
    }

    #[test]
    fn task_count_is_bounded_by_the_packed_id_range() {
        let max = Dep::MAX_ID as usize;
        assert_eq!(check_task_count(4, 0), Ok(()));
        assert_eq!(check_task_count(4, max), Ok(()));
        assert_eq!(
            check_task_count(4, max + 1),
            Err(GoalError::TooManyTasks { rank: 4, tasks: max + 1 })
        );
        // An id past the range is an unknown task, not an alias of `id - 2^31`.
        let deps = [(TaskId(1), TaskId(1 << 31), DepKind::Full)];
        let err = RankSchedule::from_parts(0, vec![Task::calc(1); 2], &deps).unwrap_err();
        assert_eq!(err, GoalError::UnknownTask { rank: 0, task: TaskId(Dep::MAX_ID) });
    }

    #[test]
    fn footprint_is_21_bytes_per_task_and_8_per_edge() {
        assert_eq!(std::mem::size_of::<Dep>(), 4);
        let s = diamond();
        let (n, e) = (s.num_tasks() as u64, s.num_deps() as u64);
        assert_eq!(s.task_arena_bytes(), 21 * n);
        assert_eq!(s.dep_bytes(), 8 * (n + 1) + 8 * e);
    }

    #[test]
    fn peer_out_of_range_detected() {
        let tasks = vec![Task::send(7, 10, 0)];
        let s = RankSchedule::from_parts(0, tasks, &[]).unwrap();
        let g = GoalSchedule::new(vec![s]);
        assert!(matches!(g.validate(), Err(GoalError::PeerOutOfRange { peer: 7, .. })));
    }

    #[test]
    fn indegrees_split_by_kind() {
        let tasks = vec![Task::calc(1), Task::calc(2), Task::calc(3)];
        let deps =
            vec![(TaskId(2), TaskId(0), DepKind::Full), (TaskId(2), TaskId(1), DepKind::Start)];
        let s = RankSchedule::from_parts(0, tasks, &deps).unwrap();
        let (full, start) = s.indegrees();
        assert_eq!(full, vec![0, 0, 1]);
        assert_eq!(start, vec![0, 0, 1]);
    }

    #[test]
    fn dep_edges_roundtrip() {
        let s = diamond();
        let edges: Vec<_> = s.dep_edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(TaskId(3), TaskId(1), DepKind::Full)));
    }

    #[test]
    fn empty_schedule_is_valid() {
        let g = GoalSchedule::new(vec![RankSchedule::default()]);
        assert_eq!(g.total_tasks(), 0);
        assert!(g.rank(0).is_empty());
        g.validate().unwrap();
    }
}
