//! Release-scale memory ratchet for the AI lowering path.
//!
//! `nccl2goal::convert` lowers in one level: the per-GPU DAGs are moved
//! into their nodes' and never held as a second schedule. Holding both
//! levels at once doubled the peak (333 MiB in this test against 161 MiB),
//! which is what put the `nccl2goal` cliff of docs/PERFORMANCE.md where it
//! was. This test lowers the `ai_lgs_trace` benchmark input — the
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

/// Measured 161 MiB (reached while the encoded bytes sit next to the
/// schedule) plus 15 %.
const VM_HWM_BOUND_KIB: u64 = 185 * 1024;

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
    assert_eq!(goal.task_arena_bytes(), 21 * tasks);
    assert_eq!(dep_bytes, 8 * (tasks + goal.num_ranks() as u64) + 8 * edges);

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
