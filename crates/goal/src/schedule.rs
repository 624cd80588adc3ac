//! In-memory representation of GOAL schedules.
//!
//! A rank is a task arena (one kind byte and one 12-byte record per task,
//! an overflow table for the rare payload that does not fit 32 bits, plus
//! its compute streams: a sorted table of the distinct ids and, on a rank
//! with two or more, a 2-byte slot per task) plus its dependency
//! edges as a predecessor CSR, in the order they were inserted: exactly
//! what the codecs, the text writer and composition read. Every
//! constructor — the builder, the binary decoder, `from_parts` — produces
//! that CSR its own way, so tasks and edges are written once on the way
//! from a lowering or a file to the scheduler.
//! The successor direction is not stored: a simulation derives it once per
//! rank at setup ([`RankSchedule::successors`]).

use crate::error::GoalError;
use crate::task::{Dep, DepKind, Rank, Stream, Tag, Task, TaskId, TaskKind};

/// A dependency edge: the dependent task, then what it depends on and how.
pub(crate) type Edge = (TaskId, Dep);

/// Discriminant column of the task arena (1 byte per task). The values are
/// the binary codec's kind codes, so the codec converts without a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum KindTag {
    Calc = 0,
    Send = 1,
    Recv = 2,
}

impl KindTag {
    /// The tag of codec kind code `code`, if it names one.
    #[inline]
    pub(crate) fn from_code(code: u8) -> Option<KindTag> {
        match code {
            0 => Some(KindTag::Calc),
            1 => Some(KindTag::Send),
            2 => Some(KindTag::Recv),
            _ => None,
        }
    }
}

/// Everything about a task but its kind and stream, in one 12-byte record,
/// so issuing a task loads one cache line slot instead of three columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskRec {
    /// Message bytes (send/recv) or calc nanoseconds when below
    /// [`WIDE`]; [`WIDE`] when the rank's overflow table holds them.
    payload: u32,
    /// Peer rank: dst for sends, src for recvs, 0 for calcs.
    pub(crate) peer: Rank,
    /// Match tag; 0 for calcs.
    pub(crate) tag: Tag,
}

const _: () = assert!(std::mem::size_of::<TaskRec>() == 12);

/// The record payload marking a task whose payload, `u32::MAX` or more,
/// is in [`TaskColumns`]'s overflow table.
const WIDE: u32 = u32::MAX;

/// The most distinct compute streams one rank may use: a task names its
/// stream by a `u16` slot in the rank's stream table.
pub const MAX_STREAMS: usize = 1 << 16;

/// The struct-of-arrays task arena: entry `i` of each column describes
/// task `i`.
///
/// Every producer — [`crate::GoalBuilder`], the codecs, `merge::compose` —
/// pushes tasks straight into these columns and a finished
/// [`RankSchedule`] takes them over by move, so a task is written once.
/// Streams are stored once per rank: a sorted table of the distinct ids
/// and, only when there are two or more, a `u16` slot per task. A payload
/// of `u32::MAX` or more is stored once too, in the overflow table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaskColumns {
    pub(crate) kinds: Vec<KindTag>,
    pub(crate) recs: Vec<TaskRec>,
    /// `(task, payload)` for every task whose record holds [`WIDE`], in
    /// ascending task order: tasks are only appended.
    wide: Vec<(u32, u64)>,
    /// The distinct stream ids of the tasks, ascending: slot order, which
    /// is the scheduler's issue order. Once past [`MAX_STREAMS`] it stops
    /// growing, one entry over, and [`TaskColumns::finish`] fails.
    stream_ids: Vec<Stream>,
    /// Task `i`'s index into `stream_ids`; empty while there is at most
    /// one stream, so a one-stream rank stores no per-task stream bytes.
    slots: Vec<u16>,
    /// While tasks arrive, `slots` numbers the streams in order of first
    /// appearance, `appearance[k]` being that number for `stream_ids[k]`,
    /// so a new stream never renumbers earlier tasks.
    /// [`TaskColumns::finish`] renumbers them once and empties this.
    appearance: Vec<u16>,
    /// The stream of the last task once `slots` exists, so a run of tasks
    /// on one stream repeats the last slot without a search.
    last_stream: Stream,
}

impl TaskColumns {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    pub(crate) fn reserve(&mut self, n: usize) {
        self.kinds.reserve(n);
        self.recs.reserve(n);
    }

    /// Append a task from its fields; its id is the previous
    /// [`TaskColumns::len`]. A calc's `peer` and `tag` must be 0.
    #[inline(always)]
    pub(crate) fn push_fields(
        &mut self,
        kind: KindTag,
        payload: u64,
        peer: Rank,
        tag: Tag,
        stream: Stream,
    ) {
        let payload =
            if payload < u64::from(WIDE) { payload as u32 } else { self.push_wide(payload) };
        self.kinds.push(kind);
        self.recs.push(TaskRec { payload, peer, tag });
        match self.slots.last() {
            Some(&slot) if stream == self.last_stream => self.slots.push(slot),
            None if self.stream_ids.first() == Some(&stream) => {}
            _ => self.push_stream(stream),
        }
    }

    /// Put `payload`, too wide for a record, into the overflow table for
    /// the task about to be pushed, and return the record's marker.
    #[cold]
    fn push_wide(&mut self, payload: u64) -> u32 {
        self.wide.push((self.kinds.len() as u32, payload));
        WIDE
    }

    /// Record the stream of the task just pushed, unless it is the rank's
    /// only stream so far or the last task's.
    fn push_stream(&mut self, stream: Stream) {
        let at = match self.stream_ids.binary_search(&stream) {
            Ok(at) => at,
            Err(_) if self.stream_ids.len() > MAX_STREAMS => return,
            // The entry past the limit only marks the rank for `finish`
            // to reject, so its appearance number may wrap.
            Err(at) => {
                self.appearance.insert(at, self.stream_ids.len() as u16);
                self.stream_ids.insert(at, stream);
                at
            }
        };
        if self.stream_ids.len() > 1 {
            if self.slots.is_empty() {
                // The second stream: every earlier task ran on the first.
                self.slots = Vec::with_capacity(self.kinds.capacity());
                self.slots.resize(self.kinds.len() - 1, 0);
            }
            self.slots.push(self.appearance[at]);
            self.last_stream = stream;
        }
    }

    /// Renumber the slots into the sorted table's order, once every task
    /// is in. Fails if the rank uses more than [`MAX_STREAMS`] streams.
    pub(crate) fn finish(&mut self, rank: Rank) -> Result<(), GoalError> {
        if self.stream_ids.len() > MAX_STREAMS {
            return Err(GoalError::TooManyStreams { rank });
        }
        let mut slot_of = vec![0u16; self.appearance.len()];
        for (k, a) in std::mem::take(&mut self.appearance).into_iter().enumerate() {
            slot_of[usize::from(a)] = k as u16;
        }
        for slot in &mut self.slots {
            *slot = slot_of[usize::from(*slot)];
        }
        Ok(())
    }

    /// Append a task; its id is the previous [`TaskColumns::len`].
    #[inline]
    pub(crate) fn push(&mut self, t: Task) {
        let (kind, payload, peer, tag) = match t.kind {
            TaskKind::Send { bytes, dst, tag } => (KindTag::Send, bytes, dst, tag),
            TaskKind::Recv { bytes, src, tag } => (KindTag::Recv, bytes, src, tag),
            TaskKind::Calc { cost } => (KindTag::Calc, cost, 0, 0),
        };
        self.push_fields(kind, payload, peer, tag, t.stream);
    }

    /// The payload of task `i`: message bytes or calc nanoseconds. Panics
    /// if out of range.
    #[inline(always)]
    pub(crate) fn payload(&self, i: usize) -> u64 {
        match self.recs[i].payload {
            WIDE => self.wide_payload(i),
            narrow => u64::from(narrow),
        }
    }

    /// The payload of task `i` from the overflow table.
    #[cold]
    fn wide_payload(&self, i: usize) -> u64 {
        let at = self.wide.binary_search_by_key(&(i as u32), |&(task, _)| task);
        self.wide[at.expect("a task marked wide has an overflow entry")].1
    }

    /// The kind of task `i`, from its tag and record. Panics if out of
    /// range.
    #[inline(always)]
    fn kind(&self, i: usize) -> TaskKind {
        let (payload, TaskRec { peer, tag, .. }) = (self.payload(i), self.recs[i]);
        match self.kinds[i] {
            KindTag::Send => TaskKind::Send { bytes: payload, dst: peer, tag },
            KindTag::Recv => TaskKind::Recv { bytes: payload, src: peer, tag },
            KindTag::Calc => TaskKind::Calc { cost: payload },
        }
    }

    /// The slot of task `i` in the stream table: 0 on a one-stream rank
    /// without reading any per-task column. Panics if out of range on a
    /// rank with several streams.
    #[inline(always)]
    pub(crate) fn slot(&self, i: usize) -> usize {
        if self.slots.is_empty() {
            0
        } else {
            usize::from(self.slots[i])
        }
    }

    /// The stream of task `i`; out of range, as [`TaskColumns::slot`].
    #[inline]
    pub(crate) fn stream(&self, i: usize) -> Stream {
        self.stream_ids[self.slot(i)]
    }

    /// Task `i`, reassembled by value. Panics if out of range.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Task {
        Task { kind: self.kind(i), stream: self.stream(i) }
    }
}

/// One direction of the dependency graph in CSR form: the neighbours of
/// task `i` are `targets[offsets[i]..offsets[i + 1]]`.
type Csr = (Vec<u32>, Vec<Dep>);

/// Turn the counts of a counting sort, kept one slot to the right of
/// their key, into fill cursors: an exclusive scan after which
/// `offsets[k + 1]` is key k's start, and once key k's entries are placed
/// by incrementing it, key k + 1's start.
fn fill_cursors(offsets: &mut [u32]) {
    let mut start = 0u32;
    for slot in &mut offsets[1..] {
        start += std::mem::replace(slot, start);
    }
}

/// The predecessor CSR of a rank of `n` tasks: check the task count and
/// every edge in order ([`check_edge`]) while counting, then group the
/// edges by dependent task in one stable pass, so each task's entries keep
/// the order of `edges`. Takes the edge list by value, so it is freed
/// before the caller allocates the next index.
fn pred_csr(rank: Rank, n: usize, edges: Vec<Edge>) -> Result<Csr, GoalError> {
    check_task_count(rank, n)?;
    let mut offsets = vec![0u32; n + 1];
    for &(a, dep) in &edges {
        check_edge(rank, n, a, dep.task())?;
        offsets[a.index() + 1] += 1;
    }
    fill_cursors(&mut offsets);
    let mut targets = vec![Dep::new(TaskId(0), DepKind::Full); edges.len()];
    for (a, dep) in edges {
        let cursor = &mut offsets[a.index() + 1];
        targets[*cursor as usize] = dep;
        *cursor += 1;
    }
    Ok((offsets, targets))
}

/// The successor index of one rank, derived from its predecessor CSR by
/// [`RankSchedule::successors`]: the dependents of task `i` are
/// `targets[offsets[i]..offsets[i + 1]]`. A schedule does not store it;
/// the scheduler builds one per rank when a run starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Successors {
    offsets: Vec<u32>,
    targets: Vec<Dep>,
}

impl Successors {
    /// Successors of `id`: the tasks that depend on it, with edge kinds, in
    /// ascending dependent id (and, within one dependent, in its
    /// predecessor order). Panics if out of range.
    #[inline]
    pub fn of(&self, id: TaskId) -> &[Dep] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.targets[lo..hi]
    }
}

/// One rank's schedule: a DAG of tasks.
///
/// Tasks are stored as a **struct-of-arrays arena** indexed by dense
/// [`TaskId`]s: a 1-byte kind column and a column of 12-byte records
/// (payload, peer, tag), 13 bytes per task versus the 32 bytes of a
/// `Vec<Task>` array-of-structs. A record's payload is 32 bits: one of
/// `u32::MAX` or more (over 4 GiB, or over 4.29 s of compute) marks the
/// record and goes to a per-rank overflow table of `(task, payload)`
/// entries, 16 bytes each, in task order. Compute streams are stored once
/// per rank: the distinct stream ids, ascending
/// ([`RankSchedule::stream_ids`]), and, only on a rank with two or more of
/// them, a 2-byte slot column indexing that table ([`RankSchedule::slot`])
/// — 15 bytes per task there. Slot order is ascending stream id, the
/// scheduler's issue order; a payload is in the overflow table exactly
/// when it does not fit below the marker; so the form is canonical and
/// `==` still compares tasks. A rank may use at most [`MAX_STREAMS`]
/// streams. Issuing a task reads its kind and one record
/// ([`RankSchedule::kind`]); a dispatch needs only the slot.
/// [`RankSchedule::task`] reassembles a [`Task`] value on demand — it is
/// `Copy`-cheap, so the arena is an internal layout choice, not an API
/// regime.
///
/// Dependency edges are stored once, as predecessor lists in CSR form: an
/// entry is a packed [`Dep`], so the index costs a 4-byte offset column of
/// `n + 1` slots plus 4 bytes per edge, `4·(n + 1) + 4·E` in all
/// ([`RankSchedule::dep_bytes`]). Each task's predecessors keep the order
/// their edges were added in, which is what the codecs write. The
/// successor direction, which only a simulation walks, is derived on
/// demand by [`RankSchedule::successors`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankSchedule {
    tasks: TaskColumns,
    // CSR: predecessors of task i are pred_targets[pred_offsets[i]..pred_offsets[i+1]]
    pred_offsets: Vec<u32>,
    pred_targets: Vec<Dep>,
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
        let deps = deps.iter().map(|&(a, b, k)| (a, Dep::new(b, k))).collect();
        Self::assemble(rank, cols, deps)
    }

    /// Take over finished task columns and index `deps`, edges in any
    /// order: each task's predecessors keep the order of `deps`.
    pub(crate) fn assemble(
        rank: Rank,
        tasks: TaskColumns,
        deps: Vec<Edge>,
    ) -> Result<Self, GoalError> {
        let (pred_offsets, pred_targets) = pred_csr(rank, tasks.len(), deps)?;
        Self::with_preds(rank, tasks, pred_offsets, pred_targets)
    }

    /// The one constructor: take over task columns and a checked
    /// predecessor CSR, and finish the stream table
    /// ([`GoalError::TooManyStreams`] past [`MAX_STREAMS`]).
    pub(crate) fn with_preds(
        rank: Rank,
        mut tasks: TaskColumns,
        pred_offsets: Vec<u32>,
        pred_targets: Vec<Dep>,
    ) -> Result<Self, GoalError> {
        debug_assert_eq!(pred_offsets.len(), tasks.len() + 1);
        tasks.finish(rank)?;
        Ok(RankSchedule { tasks, pred_offsets, pred_targets })
    }

    /// The task arena, for the codec.
    #[inline]
    pub(crate) fn columns(&self) -> &TaskColumns {
        &self.tasks
    }

    /// The predecessor CSR `(offsets, targets)`, for the codec and the
    /// builder.
    #[inline]
    pub(crate) fn pred_lists(&self) -> (&[u32], &[Dep]) {
        (&self.pred_offsets, &self.pred_targets)
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

    /// The kind of task `id`: [`RankSchedule::task`] without the stream,
    /// so issuing a task reads its kind byte and its 12-byte record and,
    /// only for a payload past 32 bits, the overflow table. Panics if out
    /// of range.
    #[inline]
    pub fn kind(&self, id: TaskId) -> TaskKind {
        self.tasks.kind(id.index())
    }

    /// All tasks in id order (reassembled by value; see [`RankSchedule::task`]).
    #[inline]
    pub fn tasks(&self) -> impl Iterator<Item = Task> + '_ {
        (0..self.num_tasks()).map(move |i| self.tasks.get(i))
    }

    /// The compute stream of task `id`. Panics if out of range (see
    /// [`RankSchedule::slot`]).
    #[inline]
    pub fn stream(&self, id: TaskId) -> Stream {
        self.tasks.stream(id.index())
    }

    /// The rank's distinct stream ids, ascending; empty for an empty rank.
    /// Entry `s` is the stream of every task whose slot is `s`.
    #[inline]
    pub fn stream_ids(&self) -> &[Stream] {
        &self.tasks.stream_ids
    }

    /// The slot of task `id`: its stream's index in
    /// [`RankSchedule::stream_ids`]. A dispatch needs nothing else about
    /// the task, and on a one-stream rank this is 0 without a memory read,
    /// so an out-of-range id panics only on a rank with several streams.
    #[inline]
    pub fn slot(&self, id: TaskId) -> usize {
        self.tasks.slot(id.index())
    }

    /// Bytes held by the task arena columns: 13 per task, plus 2 per task
    /// on a rank with two or more streams, plus 16 per overflow entry.
    /// Excludes the dependency CSR and the per-rank stream table (4 bytes
    /// per distinct stream). Deterministic: a pure function of the task
    /// and stream counts and the payloads, so it can appear in
    /// byte-compared reports.
    pub fn task_arena_bytes(&self) -> u64 {
        let per_task = std::mem::size_of::<KindTag>() + std::mem::size_of::<TaskRec>();
        let cols = &self.tasks;
        (cols.len() * per_task
            + cols.slots.len() * std::mem::size_of::<u16>()
            + cols.wide.len() * std::mem::size_of::<(u32, u64)>()) as u64
    }

    /// Bytes held by the predecessor CSR: a 4-byte offset column of `n + 1`
    /// slots and one 4-byte [`Dep`] per edge, `4·(n + 1) + 4·E` for an
    /// assembled rank. Deterministic, like
    /// [`RankSchedule::task_arena_bytes`].
    pub fn dep_bytes(&self) -> u64 {
        (self.pred_offsets.len() * std::mem::size_of::<u32>()
            + self.pred_targets.len() * std::mem::size_of::<Dep>()) as u64
    }

    /// Predecessors of `id`: the tasks it depends on, with edge kinds.
    #[inline]
    pub fn preds(&self, id: TaskId) -> &[Dep] {
        let lo = self.pred_offsets[id.index()] as usize;
        let hi = self.pred_offsets[id.index() + 1] as usize;
        &self.pred_targets[lo..hi]
    }

    /// The successor index of this rank: task `b`'s successors are the
    /// tasks that list it, in ascending dependent id (and, within one
    /// dependent, in its predecessor order), so two schedules with equal
    /// predecessor lists give equal indexes however their edges were
    /// inserted. One counting pass over the predecessor targets and one
    /// fill pass over the lists; the result holds `4·(n + 1) + 4·E` bytes,
    /// as much as the predecessor CSR ([`RankSchedule::dep_bytes`]).
    pub fn successors(&self) -> Successors {
        let mut offsets = vec![0u32; self.num_tasks() + 1];
        for dep in &self.pred_targets {
            offsets[dep.task().index() + 1] += 1;
        }
        fill_cursors(&mut offsets);
        let mut targets = vec![Dep::new(TaskId(0), DepKind::Full); self.pred_targets.len()];
        for (a, w) in self.pred_offsets.windows(2).enumerate() {
            for dep in &self.pred_targets[w[0] as usize..w[1] as usize] {
                let cursor = &mut offsets[dep.task().index() + 1];
                targets[*cursor as usize] = Dep::new(TaskId(a as u32), dep.kind());
                *cursor += 1;
            }
        }
        Successors { offsets, targets }
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
        self.walk_preds(&mut Vec::new(), &mut Vec::new(), |id| order.push(id)).then_some(order)
    }

    /// Depth-first search over the predecessor lists: `visit` every task
    /// once all its predecessors have been visited, starting from each task
    /// in id order, and report whether that reached all of them without
    /// meeting a task still on the path, i.e. the DAG has no cycle. A rank
    /// whose edges all point to smaller ids — what the generators emit —
    /// is visited in id order with a path one task deep.
    ///
    /// All working state lives in the caller's `marks` column and `path`
    /// stack, so checking many ranks allocates once. A path entry is a task
    /// and the position in the predecessor targets it resumes from.
    fn walk_preds(
        &self,
        marks: &mut Vec<Mark>,
        path: &mut Vec<(u32, u32)>,
        mut visit: impl FnMut(TaskId),
    ) -> bool {
        let n = self.num_tasks();
        marks.clear();
        marks.resize(n, Mark::New);
        path.clear();
        for start in 0..n {
            if marks[start] != Mark::New {
                continue;
            }
            marks[start] = Mark::OnPath;
            path.push((start as u32, self.pred_offsets[start]));
            while let Some(top) = path.last_mut() {
                let (id, cursor) = *top;
                if cursor == self.pred_offsets[id as usize + 1] {
                    marks[id as usize] = Mark::Visited;
                    visit(TaskId(id));
                    path.pop();
                    continue;
                }
                top.1 += 1;
                let pred = self.pred_targets[cursor as usize].task().index();
                match marks[pred] {
                    Mark::New => {
                        marks[pred] = Mark::OnPath;
                        path.push((pred as u32, self.pred_offsets[pred]));
                    }
                    Mark::OnPath => return false,
                    Mark::Visited => {}
                }
            }
        }
        true
    }
}

/// The state of a task in [`RankSchedule::walk_preds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    New,
    OnPath,
    Visited,
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
        let (mut marks, mut path) = (Vec::new(), Vec::new());
        for (r, sched) in self.ranks.iter().enumerate() {
            let rank = r as Rank;
            let cols = &sched.tasks;
            let bad = |i: &usize| cols.kinds[*i] != KindTag::Calc && cols.recs[*i].peer >= nr;
            if let Some(i) = (0..cols.len()).find(bad) {
                let (task, peer) = (TaskId(i as u32), cols.recs[i].peer);
                return Err(GoalError::PeerOutOfRange { rank, task, peer });
            }
            if !sched.walk_preds(&mut marks, &mut path, |_| {}) {
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
        let succs = s.successors();
        assert_eq!(succs.of(TaskId(0)).len(), 2);
        assert_eq!(succs.of(TaskId(3)), &[]);
        let roots: Vec<_> = s.roots().collect();
        assert_eq!(roots, vec![TaskId(0)]);
    }

    #[test]
    fn successors_come_in_dependent_order_whatever_the_insertion_order() {
        let tasks = vec![Task::calc(1); 3];
        let deps = [(TaskId(2), TaskId(0), DepKind::Full), (TaskId(1), TaskId(0), DepKind::Start)];
        let s = RankSchedule::from_parts(0, tasks.clone(), &deps).unwrap();
        let want = [Dep::new(TaskId(1), DepKind::Start), Dep::new(TaskId(2), DepKind::Full)];
        assert_eq!(s.successors().of(TaskId(0)), &want);
        let reversed = [deps[1], deps[0]];
        let r = RankSchedule::from_parts(0, tasks, &reversed).unwrap();
        assert_eq!(r, s);
        assert_eq!(r.successors(), s.successors());
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
    fn topo_order_follows_edges_that_point_forward() {
        // 3 <- 0, 0 <- 2, 2 <- 1: the only order is 1, 2, 0, 3.
        let deps = [
            (TaskId(3), TaskId(0), DepKind::Full),
            (TaskId(0), TaskId(2), DepKind::Start),
            (TaskId(2), TaskId(1), DepKind::Full),
        ];
        let s = RankSchedule::from_parts(0, vec![Task::calc(1); 4], &deps).unwrap();
        assert_eq!(s.topo_order(), Some(vec![TaskId(1), TaskId(2), TaskId(0), TaskId(3)]));
    }

    #[test]
    fn a_cycle_behind_a_visited_task_is_found() {
        // 1 -> 2 -> 3 -> 1, entered from 4, with 0 finished first.
        let deps = [
            (TaskId(4), TaskId(1), DepKind::Full),
            (TaskId(1), TaskId(0), DepKind::Full),
            (TaskId(1), TaskId(3), DepKind::Start),
            (TaskId(3), TaskId(2), DepKind::Full),
            (TaskId(2), TaskId(1), DepKind::Full),
        ];
        let s = RankSchedule::from_parts(2, vec![Task::calc(1); 5], &deps).unwrap();
        assert!(s.topo_order().is_none());
        let g = GoalSchedule::new(vec![RankSchedule::default(), RankSchedule::default(), s]);
        assert_eq!(g.validate(), Err(GoalError::Cycle { rank: 2 }));
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
    fn footprint_is_13_bytes_per_task_15_with_streams_16_per_wide_payload_and_4_per_edge() {
        assert_eq!(std::mem::size_of::<Dep>(), 4);
        let s = diamond();
        let (n, e) = (s.num_tasks() as u64, s.num_deps() as u64);
        assert_eq!(s.task_arena_bytes(), 13 * n);
        assert_eq!(s.dep_bytes(), 4 * (n + 1) + 4 * e);
        let tasks = vec![Task::calc(1), Task::calc(2).on_stream(3), Task::calc(3)];
        let two = RankSchedule::from_parts(0, tasks, &[]).unwrap();
        assert_eq!(two.task_arena_bytes(), 15 * 3);
        let wide = [Task::calc(u64::from(u32::MAX)), Task::send(0, 1 << 32, 0), Task::calc(7)];
        let three = RankSchedule::from_parts(0, wide.to_vec(), &[]).unwrap();
        assert_eq!(three.task_arena_bytes(), 13 * 3 + 16 * 2);
    }

    #[test]
    fn payloads_from_the_marker_up_go_to_the_overflow_table() {
        let payloads = [0, u64::from(u32::MAX) - 1, u64::from(u32::MAX), 1 << 32, u64::MAX, 9];
        let tasks: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| match i % 3 {
                0 => Task::calc(p),
                1 => Task::send(0, p, 1),
                _ => Task::recv(0, p, 2),
            })
            .collect();
        let s = RankSchedule::from_parts(0, tasks.clone(), &[]).unwrap();
        assert!(s.tasks().eq(tasks));
        assert_eq!(s.tasks.wide, [(2, u64::from(u32::MAX)), (3, 1 << 32), (4, u64::MAX)]);
        assert_eq!(s.tasks.recs[1].payload, u32::MAX - 1);
    }

    #[test]
    fn stream_slots_are_the_sorted_distinct_stream_ids() {
        let tasks: Vec<_> = [7, 7, 2, 9, 2, 2, 7, 0].map(|s| Task::calc(10).on_stream(s)).into();
        let s = RankSchedule::from_parts(0, tasks.clone(), &[]).unwrap();
        assert_eq!(s.stream_ids(), [0, 2, 7, 9]);
        let slots: Vec<_> = (0..8).map(|i| s.slot(TaskId(i))).collect();
        assert_eq!(slots, [2, 2, 1, 3, 1, 1, 2, 0]);
        assert!(s.tasks().eq(tasks));
    }

    #[test]
    fn a_one_stream_rank_keeps_no_slot_column() {
        let tasks = vec![Task::calc(1).on_stream(u32::MAX); 3];
        let s = RankSchedule::from_parts(0, tasks, &[]).unwrap();
        assert_eq!(s.stream_ids(), [u32::MAX]);
        assert_eq!((s.slot(TaskId(2)), s.stream(TaskId(2))), (0, u32::MAX));
        assert!(s.tasks.slots.is_empty());
        assert!(RankSchedule::default().stream_ids().is_empty());
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
