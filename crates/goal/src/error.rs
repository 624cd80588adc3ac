//! Error type shared by the GOAL crate.

use crate::task::{Dep, Rank, TaskId};

/// Errors produced while building, validating, parsing, or decoding schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalError {
    /// A dependency edge references a task id outside the rank's schedule.
    UnknownTask { rank: Rank, task: TaskId },
    /// A rank index is outside the schedule.
    UnknownRank { rank: Rank },
    /// A send or recv references a peer rank outside the schedule.
    PeerOutOfRange { rank: Rank, task: TaskId, peer: Rank },
    /// The dependency graph of a rank contains a cycle.
    Cycle { rank: Rank },
    /// A task depends on itself.
    SelfDependency { rank: Rank, task: TaskId },
    /// A rank holds more tasks than the packed dependency entries can
    /// address ([`crate::Dep::MAX_ID`]).
    TooManyTasks { rank: Rank, tasks: usize },
    /// A rank uses more distinct compute streams than a task's 16-bit
    /// stream slot can address ([`crate::schedule::MAX_STREAMS`]).
    TooManyStreams { rank: Rank },
    /// Textual format parse error.
    Parse { line: usize, msg: String },
    /// Binary format decode error.
    Decode { offset: usize, msg: String },
    /// Composition error (placement / merge).
    Compose { msg: String },
}

impl std::fmt::Display for GoalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoalError::UnknownTask { rank, task } => {
                write!(f, "rank {rank}: dependency references unknown task {task}")
            }
            GoalError::UnknownRank { rank } => write!(f, "unknown rank {rank}"),
            GoalError::PeerOutOfRange { rank, task, peer } => {
                write!(f, "rank {rank}: task {task} references out-of-range peer {peer}")
            }
            GoalError::Cycle { rank } => {
                write!(f, "rank {rank}: dependency graph contains a cycle")
            }
            GoalError::SelfDependency { rank, task } => {
                write!(f, "rank {rank}: task {task} depends on itself")
            }
            GoalError::TooManyTasks { rank, tasks } => {
                write!(f, "rank {rank}: {tasks} tasks exceed the {} a rank can hold", Dep::MAX_ID)
            }
            GoalError::TooManyStreams { rank } => write!(
                f,
                "rank {rank}: more than {} distinct compute streams",
                crate::schedule::MAX_STREAMS
            ),
            GoalError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GoalError::Decode { offset, msg } => {
                write!(f, "binary decode error at byte {offset}: {msg}")
            }
            GoalError::Compose { msg } => write!(f, "composition error: {msg}"),
        }
    }
}

impl std::error::Error for GoalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GoalError::UnknownTask { rank: 3, task: TaskId(9) };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("t9"));

        let e = GoalError::Parse { line: 12, msg: "bad token".into() };
        assert!(e.to_string().contains("line 12"));

        let e = GoalError::Cycle { rank: 0 };
        assert!(e.to_string().contains("cycle"));
    }
}
