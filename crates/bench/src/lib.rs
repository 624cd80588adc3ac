//! # atlahs-bench
//!
//! The evaluation layer: the scenario engine behind the unified `atlahs`
//! CLI and the paper's figures and tables (`atlahs fig <name>`;
//! docs/ARCHITECTURE.md has the paper-section index).
//!
//! The modules form layers, listed bottom-up: each names only modules
//! listed before it (`tests/layers.rs` fails on any import cycle, and a
//! `pub use` that keeps an old path alive points down too;
//! docs/ARCHITECTURE.md, "Evaluation layer", has the table).
//!
//! * [`json`] and [`table`] — the workspace's one JSON codec (report
//!   writer and depth-bounded parser; the benchmark's readers parse with
//!   it) and aligned text tables in the paper's row format,
//! * [`runner`] — the benchmark fidelity block's API
//!   (`benchmark/src/fidelity.rs`): one GOAL schedule on a hand-built
//!   testbed, LGS or htsim backend. It goes once that block moves onto
//!   the figure cells,
//! * [`args`] — tokens: the CLI's `--flag value` parser, its usage-error
//!   front, and the name-table lookups every closed vocabulary parses by,
//! * [`workloads`] — the AI / HPC / storage workload suites at
//!   configurable scale (the LLM presets among them), and the topologies
//!   the paper's experiments use,
//! * [`spec`] — the inputs of one simulation: topology, backend, fault
//!   regime (the job scope included) and the cell-seed rule,
//! * [`session`] — the one cell executor: every sweep cell, branch
//!   group, cluster batch and figure run is a session on one backend
//!   (the only place a `BackendSpec` is turned into a backend),
//! * [`scenario`] — declarative scenario grids (topology × workload × CC ×
//!   placement × backend) expanded into deterministic cells, and the run
//!   of one cell's members as a session,
//! * [`sweep`] — the parallel sweep executor, straight or
//!   branch-and-continue (`atlahs sweep --branch-at`: each shared prefix
//!   simulated once, fanned out into per-cell what-if continuations),
//!   and its JSON/CSV/markdown report writers (docs/SCENARIOS.md);
//!   [`branch`] keeps the branched executor's old path,
//! * [`cluster`] — the dynamic multi-tenant cluster engine (`atlahs
//!   cluster`) and its reports,
//! * [`smoke`] — the flag lines of the goldened smoke grids,
//! * [`figures`] — one function per figure/table, each running its
//!   simulations as scenario cells, and the `NAMES` table `atlahs fig`
//!   dispatches on.
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
pub mod spec;
pub mod sweep;
pub mod table;
pub mod workloads;
