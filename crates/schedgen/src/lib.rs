//! # atlahs-schedgen
//!
//! Schedule generators: everything that turns an application trace (or a
//! synthetic pattern) into a GOAL schedule (paper §3.1).
//!
//! * [`mpi2goal`] — replay liballprof MPI traces: timestamp gaps become
//!   `calc` vertices, collectives are substituted with point-to-point
//!   algorithms from `atlahs-collectives` (Schedgen proper, §3.1.1);
//! * [`nccl2goal`] — the four-stage NCCL pipeline of §3.1.2: per-stream
//!   DAGs with inferred computation (Stage 2), collective decomposition
//!   under `NCCL_ALGO`/`NCCL_PROTO`/channels (Stage 3), and GPU→node
//!   grouping with intra-node communication lowered to `calc` (Stage 4);
//! * [`synthetic`] — the microbenchmarks networking papers usually rely on
//!   (incast, permutation, uniform, ring), for the Fig. 1C comparison.

#![forbid(unsafe_code)]

pub mod mpi2goal;
pub mod nccl2goal;
pub mod synthetic;
