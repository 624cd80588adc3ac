//! # atlahs-bench
//!
//! The evaluation layer: the scenario engine behind the unified `atlahs`
//! CLI and the paper's figures and tables (`atlahs fig <name>`;
//! docs/ARCHITECTURE.md has the paper-section index), plus shared
//! plumbing:
//!
//! * [`args`] — the CLI's `--flag value` parser and usage-error front
//!   (no CLI dependency),
//! * [`json`] — the workspace's one JSON codec: report writer and
//!   depth-bounded parser (the benchmark's readers parse with it),
//! * [`table`] — aligned text tables matching the paper's row format,
//! * [`workloads`] — the AI / HPC / storage workload suites at
//!   configurable scale, and the topologies the paper's experiments use,
//! * [`figures`] — one function per figure/table, each running its
//!   simulations as scenario cells, and the `NAMES` table `atlahs fig`
//!   dispatches on,
//! * [`runner`] — the benchmark fidelity block's API
//!   (`benchmark/src/fidelity.rs`): one GOAL schedule on a hand-built
//!   testbed, LGS or htsim backend. It goes once that block moves onto
//!   the figure cells,
//! * [`scenario`] — declarative scenario grids (topology × workload × CC ×
//!   placement × backend) expanded into deterministic cells,
//! * [`session`] — the one cell executor: every sweep cell, branch
//!   group, cluster batch and figure run is a session on one backend
//!   (the only place a `BackendSpec` is turned into a backend),
//! * [`sweep`] — the parallel sweep executor and JSON/CSV/markdown report
//!   writers behind the unified `atlahs` CLI (`atlahs sweep`,
//!   docs/SCENARIOS.md),
//! * [`branch`] — branch-and-continue (`atlahs sweep --branch-at`):
//!   group cells by shared prefix so each prefix is simulated once and
//!   fans out into per-cell what-if continuations,
//! * [`cluster`] — the dynamic multi-tenant cluster engine (`atlahs
//!   cluster`).
//!
//! Every figure accepts `--seed <u64>` and, where it has a workload
//! scale, `--scale <f64>` (the default keeps packet-level runs tractable
//! on a laptop), and prints the same rows/series as the corresponding
//! figure. Absolute values differ from the paper (the substrate is
//! synthetic; docs/ARCHITECTURE.md, "Backends"), but the qualitative
//! shape — who wins, by what factor, where the crossovers sit — is the
//! reproduction target: the paper's claims as PAPER.md summarises them.

#![forbid(unsafe_code)]

pub mod args;
pub mod branch;
pub mod cluster;
pub mod figures;
pub mod json;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod smoke;
pub mod sweep;
pub mod table;
pub mod workloads;
