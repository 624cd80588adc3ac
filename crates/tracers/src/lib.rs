//! # atlahs-tracers
//!
//! Application tracers and trace formats (paper §3.1 and §4).
//!
//! On the real toolchain, traces come from instrumented runs on clusters:
//! `liballprof` PMPI logs for MPI applications, Nsight Systems reports (with
//! NVTX-annotated NCCL) for AI applications, and bpftrace block-I/O dumps in
//! SPC format for storage. Since this reproduction has no cluster, the same
//! *file formats* are produced by synthetic tracers that encode the
//! published communication skeletons of each application (see
//! docs/ARCHITECTURE.md, "The three application pipelines"):
//!
//! * [`mpi`] — liballprof-style MPI traces + skeletons for CloverLeaf,
//!   HPCG, LULESH, LAMMPS, ICON, and OpenMX;
//! * [`nccl`] — nsys-style per-GPU, per-stream kernel traces + LLM training
//!   generators (Llama, Mixtral/MoE, DLRM) with TP/PP/DP/EP parallelism;
//! * [`storage`] — SPC-format block I/O records + an OLTP ("Financial"-like)
//!   workload generator.
//!
//! Everything downstream of this crate — Schedgen, the NCCL 4-stage
//! pipeline, the storage converter — consumes these formats exactly as it
//! would consume real traces.

#![forbid(unsafe_code)]

pub mod mpi;
pub mod nccl;
pub mod storage;
