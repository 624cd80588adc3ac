//! # atlahs-core
//!
//! The ATLAHS toolchain core: the backend API of Fig. 7 of the paper, the
//! GOAL scheduler that drives network backends, job placement strategies for
//! multi-job / multi-tenant scenarios, and the simulation driver.
//!
//! ## Architecture
//!
//! The paper's integration contract (§3.3) is a minimal set of operations —
//! `send`, `recv`, `calc`, plus `simulationSetup` and `eventOver` — behind
//! which any network simulator can sit. This crate expresses that contract as
//! the [`Backend`] trait: the scheduler *issues* GOAL tasks whose dependencies
//! are satisfied, and the backend *advances simulated time* and reports each
//! finished operation ([`Completion`], the paper's `eventOver`).
//!
//! Compute-stream semantics: tasks on the same `(rank, stream)` pair execute
//! one at a time in dependency order; distinct streams overlap freely. This
//! is how GOAL models CUDA streams and multi-threaded hosts.
//!
//! ```
//! use atlahs_core::{Simulation, backends::IdealBackend};
//! use atlahs_goal::GoalBuilder;
//!
//! let mut b = GoalBuilder::new(2);
//! let c = b.calc(0, 1_000);
//! let s = b.send(0, 1, 4096, 0);
//! b.requires(0, s, c);
//! b.recv(1, 0, 4096, 0);
//! let goal = b.build().unwrap();
//!
//! let mut backend = IdealBackend::new(8_000, 500); // 8000 Gb/s (1000 B/ns), 500 ns latency
//! let report = Simulation::new(&goal).run(&mut backend).unwrap();
//! assert!(report.makespan > 1_000);
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod backends;
pub mod faultgen;
pub mod matcher;
pub mod placement;
pub mod probe;
pub mod scheduler;
pub mod snapshot;

pub use api::{Backend, Completion, NsPerByte, OpRef, Time};
pub use matcher::Matcher;
pub use placement::{allocate, FragStats, NodePool, PlacementStrategy};
pub use scheduler::{RunState, SimDriver, SimError, SimReport, Simulation};
pub use snapshot::Snapshot;
