//! # atlahs-goal
//!
//! The GOAL (Group Operation Assembly Language) schedule format used as the
//! universal interchange representation of the ATLAHS toolchain.
//!
//! A GOAL schedule describes, for every rank (node) of a distributed
//! application, a directed acyclic graph of three task kinds:
//!
//! * [`TaskKind::Send`] — transmit a message to another rank,
//! * [`TaskKind::Recv`] — receive (match) a message from another rank,
//! * [`TaskKind::Calc`] — local computation for a given number of nanoseconds.
//!
//! Edges express dependencies: a task becomes eligible once all of its
//! `requires` predecessors have *completed* (and all of its `irequires`
//! predecessors have *started*). Tasks carry a compute-stream label
//! (`cpu` tag) so that independent streams can execute concurrently, which is
//! how the toolchain models CUDA streams and OpenMP regions.
//!
//! The crate provides:
//!
//! * the in-memory representation ([`GoalSchedule`], [`RankSchedule`], [`Task`]),
//! * a fluent [`builder::GoalBuilder`],
//! * the human-readable textual format of the original toolchain ([`text`]),
//! * a compact varint binary format ([`binary`]),
//! * multi-job / multi-tenant composition ([`merge`]),
//! * schedule statistics and send/recv matching ([`stats`]).
//!
//! # Example
//!
//! The schedule of Fig. 3 of the ATLAHS paper:
//!
//! ```
//! use atlahs_goal::builder::GoalBuilder;
//!
//! let mut b = GoalBuilder::new(2);
//! let l1 = b.calc(0, 100);
//! let l2 = b.calc_on(0, 200, 0);
//! let l3 = b.calc_on(0, 200, 1);
//! let l4 = b.send(0, 1, 10, 0);
//! b.requires(0, l2, l1);
//! b.requires(0, l3, l1);
//! b.requires(0, l4, l2);
//! b.requires(0, l4, l3);
//! // rank 1 receives the 10-byte message
//! b.recv(1, 0, 10, 0);
//! let goal = b.build().unwrap();
//! assert_eq!(goal.num_ranks(), 2);
//! assert_eq!(goal.rank(0).num_tasks(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod binary;
pub mod builder;
pub mod error;
pub mod merge;
pub mod schedule;
pub mod stats;
pub mod task;
pub mod text;

pub use builder::GoalBuilder;
pub use error::GoalError;
pub use schedule::{GoalSchedule, RankSchedule};
pub use stats::ScheduleStats;
pub use task::{Dep, DepKind, Rank, Stream, Tag, Task, TaskId, TaskKind};
