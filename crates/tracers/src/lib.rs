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
//!
//! ## Reading the text formats back
//!
//! [`mpi::MpiTrace::parse`] and [`nccl::NsysReport::parse`] share one
//! byte-level scanner and accept exactly what the matching `to_text`
//! writes, give or take whitespace (each parser documents its grammar):
//!
//! * **Lines** end at `\n`; blank lines are skipped; a `#` line is a
//!   comment or header.
//! * **Whitespace** is ASCII — space, `\t`, `\x0B`, `\x0C`, `\r` — and may
//!   be repeated anywhere a separator is. Non-ASCII whitespace (U+00A0,
//!   U+3000, …) separates nothing: a record that uses it as a separator is
//!   an error.
//! * **Headers** name the next timeline: `rank N` must carry the number of
//!   `rank` headers before it (0, 1, 2, …), `gpu G node M` likewise for `G`;
//!   records belong to the last header.
//! * **Records** are `NAME: key=value …` with the format's own names and
//!   keys; a missing key is 0, a repeated one keeps its last value.
//! * **Numbers** are decimal, with an optional leading `+`, and must fit
//!   the field: 64 bits for sizes and timestamps, 32 for ranks, peers,
//!   tags, communicators and streams.
//!
//! Anything else — an unknown name or key, a token without `=`, a value
//! that is not a number or does not fit, a header out of order, a record
//! before any header — is an `Err("line N: …")` naming the first bad line;
//! no input panics. [`storage::SpcTrace::parse`] reads its CSV with the
//! same `line N: …` errors, and rejects timestamps that are not finite,
//! are negative, or do not fit `u64` nanoseconds.

#![forbid(unsafe_code)]

pub mod mpi;
pub mod nccl;
mod scan;
pub mod storage;
