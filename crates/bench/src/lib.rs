//! # atlahs-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation (docs/ARCHITECTURE.md has the paper-section index), plus shared
//! plumbing used by all of them:
//!
//! * [`args`] — a tiny `--flag value` parser (no CLI dependency),
//! * [`json`] — the workspace's one JSON codec (a re-export of
//!   `atlahs_lint::json`): report writer and depth-bounded parser,
//! * [`table`] — aligned text tables matching the paper's row format,
//! * [`workloads`] — the AI / HPC / storage workload suites at
//!   configurable scale, and the topologies the paper's experiments use,
//! * [`runner`] — run one GOAL schedule across backends, with error and
//!   wall-clock bookkeeping,
//! * [`scenario`] — declarative scenario grids (topology × workload × CC ×
//!   placement × backend) expanded into deterministic cells,
//! * [`session`] — the one cell executor: every sweep cell, branch
//!   group, and cluster batch is a session on one backend (the only
//!   place a `BackendSpec` is turned into a backend),
//! * [`sweep`] — the parallel sweep executor and JSON/CSV/markdown report
//!   writers behind the unified `atlahs` CLI (`atlahs sweep`,
//!   docs/SCENARIOS.md),
//! * [`branch`] — branch-and-continue (`atlahs sweep --branch-at`):
//!   group cells by shared prefix so each prefix is simulated once and
//!   fans out into per-cell what-if continuations,
//! * [`cluster`] — the dynamic multi-tenant cluster engine (`atlahs
//!   cluster`).
//!
//! Every binary accepts `--seed <u64>` and `--scale <f64>` (workload
//! scale; the default keeps packet-level runs tractable on a laptop) and
//! prints the same rows/series as the corresponding figure. Absolute
//! values differ from the paper (the substrate is synthetic;
//! docs/ARCHITECTURE.md, "Backends"), but the qualitative shape — who
//! wins, by what factor, where the crossovers sit — is the reproduction
//! target: the paper's claims as PAPER.md summarises them.

#![forbid(unsafe_code)]

pub mod args;
pub mod branch;
pub mod cluster;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod smoke;
pub mod sweep;
pub mod table;
pub mod workloads;

pub use atlahs_lint::json;
