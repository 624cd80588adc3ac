//! Release-scale memory ratchet for the MPI lowering path.
//!
//! This test lowers the `hpc_lgs_rendezvous` benchmark input — LULESH on
//! 1024 ranks for 70 iterations, seed 1 — through `mpi2goal::convert` →
//! encode → decode and fails if the process's peak resident set
//! (`VmHWM`) exceeds the bound recorded below. The peak falls while the
//! encoded bytes sit next to the schedule, on top of what `mpi2goal`'s
//! builder held, so a second index kept by every schedule, or a builder
//! level kept past its use, shows here.
//!
//! The peak is a property of the whole process, so this file holds one test
//! and ci.sh runs it on its own; it is release-scale and runs only under
//! `ATLAHS_LARGE_GOLDENS=1`.

mod common;

use atlahs::goal::binary;
use atlahs::schedgen::mpi2goal::{convert, MpiToGoalConfig};
use atlahs::tracers::mpi::{lulesh, HpcAppConfig, Scaling};
use common::vm_hwm_kib;

/// Measured 175.0 MiB (reached while the encoded bytes sit next to the
/// schedule) plus 15 %, rounded up to a whole MiB. It was 247 MiB over a
/// measured 214.5 while every task stored a 4-byte stream id (every rank
/// of this input runs on one stream, so none stores a slot column now),
/// then 224 over 194.0 while every task stored a 64-bit payload.
const VM_HWM_BOUND_KIB: u64 = 202 * 1024;

#[test]
fn mpi_lowering_stays_under_the_recorded_peak() {
    if std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("mpi_lowering_footprint: skipped (set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }
    if vm_hwm_kib().is_none() {
        eprintln!("mpi_lowering_footprint: skipped (no VmHWM in /proc/self/status)");
        return;
    }

    let trace = lulesh(&HpcAppConfig {
        ranks: 1024,
        iterations: 70,
        scaling: Scaling::Weak,
        compute_ns: 2_000_000,
        halo_bytes: 400_000,
        noise: 0.02,
        seed: 1,
    });
    let goal = convert(&trace, &MpiToGoalConfig::default()).expect("trace lowers");
    drop(trace);
    let bytes = binary::encode(&goal);
    drop(goal);
    let goal = binary::decode(&bytes).expect("encoded schedule decodes");

    // The deterministic side of the footprint: what the schedule holds.
    let tasks = goal.total_tasks() as u64;
    let edges = goal.ranks().iter().map(|r| r.num_deps() as u64).sum::<u64>();
    let dep_bytes = goal.ranks().iter().map(|r| r.dep_bytes()).sum::<u64>();
    assert_eq!(goal.num_ranks(), 1024, "the benchmark's hpc_lgs_rendezvous input");
    assert_eq!(tasks, 4_238_080, "the benchmark's hpc_lgs_rendezvous input");
    assert_eq!(goal.task_arena_bytes(), 13 * tasks, "one stream per rank, so no slot column");
    assert_eq!(dep_bytes, 4 * (tasks + goal.num_ranks() as u64) + 4 * edges);

    let peak = vm_hwm_kib().expect("VmHWM was readable a moment ago");
    eprintln!(
        "mpi_lowering_footprint: VmHWM {:.1} MiB (bound {:.1}), {tasks} tasks, {edges} edges, \
         {} encoded B",
        peak as f64 / 1024.0,
        VM_HWM_BOUND_KIB as f64 / 1024.0,
        bytes.len(),
    );
    assert!(
        peak <= VM_HWM_BOUND_KIB,
        "MPI lowering peaked at {peak} KiB, the recorded bound is {VM_HWM_BOUND_KIB} KiB: \
         does a schedule hold a second index again?"
    );
}
