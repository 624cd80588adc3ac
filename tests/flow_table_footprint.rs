//! Release-scale memory ratchet for the packet engine's flow table.
//!
//! Packets name flows by index, so the table keeps an entry for every
//! flow of the run — but only what a delivered flow still needs, 24 bytes.
//! An entry used to be the whole 320-byte per-flow record: 119 MiB of
//! records on this input, in a `Vec` grown to 160 MiB. This test lowers
//! the `storage_htsim_oversub` benchmark input — 55 000 Direct Drive
//! operations at gap 50, arrival timestamps ÷ 12, 389 560 short messages —
//! runs it on htsim as the benchmark does, and fails if the process's peak
//! resident set (`VmHWM`) grows during the run by more than the bound
//! recorded below.
//!
//! The peak is a property of the whole process, so this file holds one test
//! and ci.sh runs it on its own; it is release-scale and runs only under
//! `ATLAHS_LARGE_GOLDENS=1`.

mod common;

use atlahs::core::Simulation;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::CcAlgo;
use atlahs_bench::scenario::WorkloadSpec;
use atlahs_bench::workloads::storage_topology;
use common::vm_hwm_kib;

/// Measured growth 50.5 MiB (153.0 MiB at the parent commit, where a
/// delivered flow kept its 320-byte record) plus 15 %.
const VM_HWM_GROWTH_BOUND_KIB: u64 = 58 * 1024;

#[test]
fn delivered_flows_stay_tombstones() {
    if std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("flow_table_footprint: skipped (set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }

    let storage = WorkloadSpec::Storage { ops: 55_000, gap_ns: 50, compress: 12 };
    let goal = storage.build_jobs(1).pop().expect("one job");
    let mut cfg = HtsimConfig::new(storage_topology(goal.num_ranks(), 8), CcAlgo::Mprdma);
    cfg.seed = 1;
    let mut backend = HtsimBackend::new(cfg);

    let Some(before) = vm_hwm_kib() else {
        eprintln!("flow_table_footprint: skipped (no VmHWM in /proc/self/status)");
        return;
    };
    Simulation::new(&goal).run(&mut backend).expect("no deadlock");
    let after = vm_hwm_kib().expect("VmHWM was readable a moment ago");

    // The bound is for this much work: the benchmark's seed-1 counts.
    let net = backend.net_stats();
    assert_eq!(net.flows, 389_560, "the benchmark's storage_htsim_oversub run");
    assert_eq!(net.packets_sent, 1_202_014, "the benchmark's storage_htsim_oversub run");
    assert_eq!(net.internal_events, 13_340_670, "the benchmark's storage_htsim_oversub run");

    let grew = after - before;
    eprintln!(
        "flow_table_footprint: VmHWM {:.1} -> {:.1} MiB, grew {:.1} (bound {:.1}) over {} flows",
        before as f64 / 1024.0,
        after as f64 / 1024.0,
        grew as f64 / 1024.0,
        VM_HWM_GROWTH_BOUND_KIB as f64 / 1024.0,
        net.flows,
    );
    assert!(
        grew <= VM_HWM_GROWTH_BOUND_KIB,
        "the run grew VmHWM by {grew} KiB, the recorded bound is {VM_HWM_GROWTH_BOUND_KIB} KiB: \
         does a delivered flow keep per-packet state again?"
    );
}
