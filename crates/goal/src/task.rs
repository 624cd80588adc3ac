//! Core task types of the GOAL format.

/// A rank (process / node) index within a schedule.
pub type Rank = u32;

/// A compute-stream label. For historical reasons the textual format calls
/// these `cpu`; GPU workloads map CUDA streams onto them.
pub type Stream = u32;

/// A message tag used for send/recv matching.
pub type Tag = u32;

/// Index of a task within one rank's schedule.
///
/// Task ids are dense indices (`0..num_tasks`), so schedules can store
/// per-task state in flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for TaskId {
    #[inline]
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The three GOAL task kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Transmit `bytes` to rank `dst` with matching tag `tag`.
    Send { bytes: u64, dst: Rank, tag: Tag },
    /// Receive (match) `bytes` from rank `src` with matching tag `tag`.
    Recv { bytes: u64, src: Rank, tag: Tag },
    /// Local computation lasting `cost` nanoseconds on the task's stream.
    Calc { cost: u64 },
}

impl TaskKind {
    /// Message size for send/recv, `None` for calc.
    #[inline]
    pub fn bytes(&self) -> Option<u64> {
        match *self {
            TaskKind::Send { bytes, .. } | TaskKind::Recv { bytes, .. } => Some(bytes),
            TaskKind::Calc { .. } => None,
        }
    }

    /// True if this is a communication task (send or recv).
    #[inline]
    pub fn is_comm(&self) -> bool {
        !matches!(self, TaskKind::Calc { .. })
    }
}

/// A single task: a kind plus the compute stream it is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    pub kind: TaskKind,
    /// Compute stream (`cpu` label). Tasks on the same stream of the same rank
    /// serialize with each other; distinct streams may run concurrently.
    pub stream: Stream,
}

impl Task {
    /// A calc task on stream 0.
    #[inline]
    pub fn calc(cost: u64) -> Self {
        Task { kind: TaskKind::Calc { cost }, stream: 0 }
    }

    /// A send task on stream 0.
    #[inline]
    pub fn send(dst: Rank, bytes: u64, tag: Tag) -> Self {
        Task { kind: TaskKind::Send { bytes, dst, tag }, stream: 0 }
    }

    /// A recv task on stream 0.
    #[inline]
    pub fn recv(src: Rank, bytes: u64, tag: Tag) -> Self {
        Task { kind: TaskKind::Recv { bytes, src, tag }, stream: 0 }
    }

    /// The same task moved to another compute stream.
    #[inline]
    pub fn on_stream(mut self, stream: Stream) -> Self {
        self.stream = stream;
        self
    }
}

/// Dependency semantics of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// `a requires b`: `a` may start only after `b` has *completed*.
    Full = 0,
    /// `a irequires b`: `a` may start once `b` has *started*
    /// (LogGOPSim's `irequires`, used to model overlapping initiation).
    Start = 1,
}

/// One entry of a dependency list, packed into 4 bytes: the neighbouring
/// task's id in the upper 31 bits and the edge's [`DepKind`] in the lowest.
///
/// The predecessor CSR of a [`crate::RankSchedule`], its derived
/// [`crate::Successors`] and the builder's edge list store these, so an
/// edge costs 4 bytes per index. The price is
/// the id range: a rank holds at most [`Dep::MAX_ID`] tasks, which the
/// schedule constructors check once per rank.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep(u32);

impl Dep {
    /// The largest id an entry can carry, `2^31 - 1`. No schedule holds a
    /// task with this id (ids stop one short), so it doubles as the value
    /// out-of-range ids saturate to.
    pub const MAX_ID: u32 = u32::MAX >> 1;

    /// Pack `task` and `kind`. An id past [`Dep::MAX_ID`] saturates to it
    /// rather than losing its top bit, so the range check every edge goes
    /// through still rejects it as an unknown task.
    #[inline]
    pub fn new(task: TaskId, kind: DepKind) -> Self {
        Dep(task.0.min(Dep::MAX_ID) << 1 | kind as u32)
    }

    /// The neighbouring task.
    #[inline]
    pub fn task(self) -> TaskId {
        TaskId(self.0 >> 1)
    }

    /// The edge's dependency semantics.
    #[inline]
    pub fn kind(self) -> DepKind {
        if self.0 & 1 == 0 {
            DepKind::Full
        } else {
            DepKind::Start
        }
    }
}

impl std::fmt::Debug for Dep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:?}, {:?})", self.task(), self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dep_packs_both_kinds_across_the_id_range() {
        assert_eq!(std::mem::size_of::<Dep>(), 4);
        for id in [0, 1, Dep::MAX_ID - 1, Dep::MAX_ID] {
            for kind in [DepKind::Full, DepKind::Start] {
                let d = Dep::new(TaskId(id), kind);
                assert_eq!((d.task(), d.kind()), (TaskId(id), kind), "id {id} {kind:?}");
            }
        }
        // Past the range an id saturates; it never aliases a small one.
        assert_eq!(Dep::new(TaskId(Dep::MAX_ID + 6), DepKind::Start).task(), TaskId(Dep::MAX_ID));
        assert_eq!(Dep::new(TaskId(u32::MAX), DepKind::Full).task(), TaskId(Dep::MAX_ID));
    }

    #[test]
    fn task_constructors_default_to_stream0() {
        assert_eq!(Task::calc(5).stream, 0);
        assert_eq!(Task::send(1, 10, 2).stream, 0);
        assert_eq!(Task::recv(1, 10, 2).stream, 0);
    }

    #[test]
    fn on_stream_moves_stream() {
        let t = Task::calc(5).on_stream(3);
        assert_eq!(t.stream, 3);
        assert_eq!(t.kind, TaskKind::Calc { cost: 5 });
    }

    #[test]
    fn bytes_accessor() {
        assert_eq!(Task::send(1, 10, 0).kind.bytes(), Some(10));
        assert_eq!(Task::recv(1, 12, 0).kind.bytes(), Some(12));
        assert_eq!(Task::calc(5).kind.bytes(), None);
    }

    #[test]
    fn is_comm() {
        assert!(Task::send(0, 1, 0).kind.is_comm());
        assert!(Task::recv(0, 1, 0).kind.is_comm());
        assert!(!Task::calc(1).kind.is_comm());
    }

    #[test]
    fn task_id_display_and_index() {
        let id = TaskId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "t7");
        assert_eq!(TaskId::from(3u32), TaskId(3));
    }
}
