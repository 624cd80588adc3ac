//! Release-scale memory ratchet for the AI lowering path.
//!
//! `nccl2goal::convert` lowers in one level: each GPU's task columns and
//! edge list are moved into its node's, unindexed, and the GPU level is
//! never held as a second schedule. Holding both levels at once doubled
//! the peak (333 MiB in this test against 161 MiB), which is what put the
//! `nccl2goal` cliff of docs/PERFORMANCE.md where it was. Indexing each
//! GPU on its way to its node (a predecessor and a successor CSR per GPU)
//! is gone too, which took the peak from 161 MiB to 155 MiB. A schedule
//! now stores only its predecessor CSR — the scheduler derives the
//! successors when a run starts — which took it to 123.3 MiB, and a rank
//! stores its compute streams once, as a sorted table and a 2-byte slot
//! per task (17 → 19 bytes of arena per task here, from 21), which took
//! it to 118.8 MiB; measured again beside the next change, 117.5 MiB. A
//! task record then narrowed to 12 bytes, its payload to 32 bits with an
//! overflow table for wider ones (19 → 15 bytes per task), which took it
//! to 107.4 MiB.
//!
//! This test lowers the `ai_lgs_trace` benchmark input — the
//! `llama7b_dp128(0.002)` trace, 3.19 M tasks — through `convert` → encode
//! → decode and fails if the process's peak resident set (`VmHWM`) exceeds
//! the bound recorded below, so the two-level peak cannot come back
//! unnoticed.
//!
//! The peak is a property of the whole process, so this file holds one test
//! and ci.sh runs it on its own; it is release-scale and runs only under
//! `ATLAHS_LARGE_GOLDENS=1`.

mod common;

use atlahs::goal::binary;
use atlahs::schedgen::nccl2goal::{convert, NcclToGoalConfig};
use atlahs::tracers::nccl::{presets, trace_llm};
use common::vm_hwm_kib;

/// Measured 107.4 MiB (reached while the encoded bytes sit next to the
/// schedule) plus 15 %, rounded up to a whole MiB. It was 185 MiB over a
/// measured 161, then 155 with unindexed GPU ranks, while every schedule
/// also stored a successor CSR, then 142 over 123.3 while every task
/// stored a 4-byte stream id, then 137 over 118.8 while every task
/// stored a 64-bit payload.
const VM_HWM_BOUND_KIB: u64 = 124 * 1024;

#[test]
fn one_level_lowering_stays_under_the_recorded_peak() {
    if std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("lowering_footprint: skipped (set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }
    if vm_hwm_kib().is_none() {
        eprintln!("lowering_footprint: skipped (no VmHWM in /proc/self/status)");
        return;
    }

    let report = trace_llm(&presets::llama7b_dp128(0.002));
    let goal = convert(&report, &NcclToGoalConfig::default()).expect("trace lowers");
    let bytes = binary::encode(&goal);
    drop(goal);
    let goal = binary::decode(&bytes).expect("encoded schedule decodes");

    // The deterministic side of the footprint: what the schedule holds.
    let tasks = goal.total_tasks() as u64;
    let edges = goal.ranks().iter().map(|r| r.num_deps() as u64).sum::<u64>();
    let dep_bytes = goal.ranks().iter().map(|r| r.dep_bytes()).sum::<u64>();
    assert_eq!(tasks, 3_193_600, "the benchmark's ai_lgs_trace input");
    assert_eq!(goal.task_arena_bytes(), 15 * tasks);
    assert_eq!(dep_bytes, 4 * (tasks + goal.num_ranks() as u64) + 4 * edges);

    let peak = vm_hwm_kib().expect("VmHWM was readable a moment ago");
    eprintln!(
        "lowering_footprint: VmHWM {:.1} MiB (bound {:.1}), {tasks} tasks, {edges} edges, \
         {:.2} resident B/task",
        peak as f64 / 1024.0,
        VM_HWM_BOUND_KIB as f64 / 1024.0,
        (goal.task_arena_bytes() + dep_bytes) as f64 / tasks as f64,
    );
    assert!(
        peak <= VM_HWM_BOUND_KIB,
        "lowering peaked at {peak} KiB, the recorded bound is {VM_HWM_BOUND_KIB} KiB: \
         is a second schedule level resident again?"
    );
}
