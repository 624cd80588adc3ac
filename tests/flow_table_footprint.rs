//! Release-scale memory ratchet for the packet engine's flow table.
//!
//! Packets, timer chains, pull credits and the matcher name flows by slot,
//! and a delivered slot is reused once nothing names it, so the table is
//! as large as the most flows named at once: 31 320 slots of 24 bytes for
//! the 389 560 flows of this run. It used to keep an entry for every flow
//! of the run — a 16-byte tombstone per delivered flow, and before that
//! the whole 320-byte per-flow record. This test lowers the
//! `storage_htsim_oversub` benchmark input — 55 000 Direct Drive
//! operations at gap 50, arrival timestamps ÷ 12, 389 560 short messages —
//! runs it on htsim as the benchmark does, and fails if the process's peak
//! resident set (`VmHWM`) grows during the event loop by more than the
//! bound recorded below, or if the table reaches 40 000 slots. The window
//! opens after `SimDriver::start`, so what the scheduler allocates once
//! per task at setup (its countdowns and the successor index it derives
//! from the schedule) is not counted as growth.
//!
//! It then runs the same input at twice the operations and fails if the
//! table grows past 1.75× its slots. A table that kept an entry per flow
//! grows 2.0×. This one grows 1.66× (52 064 slots for 778 272 flows), not
//! less, because the input overloads its 8:1 core: its flows in flight
//! grow with the run too (21 934 at 2.19 ms of simulated time, 39 979 at
//! 4.37 ms in the longer run).
//!
//! The peak is a property of the whole process, so this file holds one test
//! and ci.sh runs it on its own; it is release-scale and runs only under
//! `ATLAHS_LARGE_GOLDENS=1`.

mod common;

use std::sync::Arc;

use atlahs::core::{SimDriver, Simulation};
use atlahs::goal::GoalSchedule;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::CcAlgo;
use atlahs_bench::scenario::WorkloadSpec;
use atlahs_bench::workloads::storage_topology;
use common::vm_hwm_kib;

/// Measured growth 23.8 MiB from the end of `SimDriver::start` plus 15 %:
/// 23.8 × 1.15 MiB in KiB. Counted from before `start`, the run grew
/// 26.9–27.1 MiB while the schedule held its own successor index (bound
/// 31 915 KiB then), and 39.9 MiB when the table kept a 16-byte entry per
/// flow of the run and the matcher a pool node per pre-posted recv.
const VM_HWM_GROWTH_BOUND_KIB: u64 = 28_028;

/// The flow slots the seed-1 run must stay below (measured 31 320).
const MAX_FLOW_SLOTS: usize = 40_000;

/// The `storage_htsim_oversub` input at `ops` operations, and the htsim
/// backend the benchmark runs it on.
fn storage(ops: usize) -> (Arc<GoalSchedule>, HtsimBackend) {
    let storage = WorkloadSpec::Storage { ops, gap_ns: 50, compress: 12 };
    let goal = storage.build_jobs(1).pop().expect("one job");
    let mut cfg = HtsimConfig::new(storage_topology(goal.num_ranks(), 8), CcAlgo::Mprdma);
    cfg.seed = 1;
    (goal, HtsimBackend::new(cfg))
}

#[test]
fn flow_slots_follow_the_live_flows() {
    if std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("flow_table_footprint: skipped (set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }

    let (goal, mut backend) = storage(55_000);
    let driver = SimDriver::start(&goal, &mut backend);
    let Some(before) = vm_hwm_kib() else {
        eprintln!("flow_table_footprint: skipped (no VmHWM in /proc/self/status)");
        return;
    };
    driver.finish(&mut backend).expect("no deadlock");
    let after = vm_hwm_kib().expect("VmHWM was readable a moment ago");

    // The bound is for this much work: the benchmark's seed-1 counts.
    let net = backend.net_stats();
    assert_eq!(net.flows, 389_560, "the benchmark's storage_htsim_oversub run");
    assert_eq!(net.packets_sent, 957_967, "the benchmark's storage_htsim_oversub run");
    assert_eq!(net.internal_events, 11_769_517, "the benchmark's storage_htsim_oversub run");
    // 484 424 timer wake-ups for 359 370 drops; 469 912 of the wake-ups
    // are expiries, so here the timers expire more often than packets
    // are lost.
    assert_eq!(net.expiries, 469_912, "the benchmark's storage_htsim_oversub run");

    let grew = after - before;
    let slots = backend.flow_slots();
    eprintln!(
        "flow_table_footprint: VmHWM {:.1} -> {:.1} MiB, grew {:.1} (bound {:.1}); \
         {slots} flow slots for {} flows",
        before as f64 / 1024.0,
        after as f64 / 1024.0,
        grew as f64 / 1024.0,
        VM_HWM_GROWTH_BOUND_KIB as f64 / 1024.0,
        net.flows,
    );
    assert!(
        grew <= VM_HWM_GROWTH_BOUND_KIB,
        "the run grew VmHWM by {grew} KiB, the recorded bound is {VM_HWM_GROWTH_BOUND_KIB} KiB: \
         does the flow table or the matcher keep what a delivered flow no longer needs?"
    );
    assert!(slots < MAX_FLOW_SLOTS, "{slots} flow slots: are delivered slots reused?");
    drop((goal, backend));

    let (goal, mut double) = storage(110_000);
    Simulation::new(&goal).run(&mut double).expect("no deadlock");
    let (slots2, flows2) = (double.flow_slots(), double.net_stats().flows);
    eprintln!("flow_table_footprint: twice the operations, {slots2} flow slots for {flows2} flows");
    assert!(flows2 > 2 * net.flows - net.flows / 10, "{flows2} flows at twice the operations");
    assert!(
        4 * slots2 <= 7 * slots,
        "{slots2} flow slots at twice the operations, {slots} at once: the table follows the \
         run's length, not its flows in flight"
    );
}
