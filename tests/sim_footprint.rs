//! Release-scale memory ratchet for the simulated phase.
//!
//! What a packet-level run adds to the resident set once the schedule is
//! lowered should follow the events queued at once and the flows, not the
//! events processed. The event queue used to break that: each of its 8192
//! wheel slots was a buffer that kept the capacity of the busiest frame it
//! ever held, 126 MiB on this input for ≈ 60 k live events. This test
//! lowers the `ai_htsim_spray` benchmark input — `moe8x13b(0.001)`, one
//! iteration, 304 k tasks — runs it on htsim as the benchmark does, and
//! fails if the process's peak resident set (`VmHWM`) grows during the run
//! by more than the bound recorded below.
//!
//! The peak is a property of the whole process, so this file holds one test
//! and ci.sh runs it on its own; it is release-scale and runs only under
//! `ATLAHS_LARGE_GOLDENS=1`.

mod common;

use atlahs::core::Simulation;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::CcAlgo;
use atlahs::schedgen::nccl2goal::{convert, NcclToGoalConfig};
use atlahs::tracers::nccl::{presets, trace_llm};
use atlahs_bench::workloads::ai_topology;
use common::vm_hwm_kib;

/// Measured growth 2.0 MiB (10.4 MiB while a delivered flow kept its
/// 320-byte record, 122.6 MiB with per-slot buffers in the event queue and
/// its per-packet state as well) plus 15 %, rounded up to a whole MiB.
const VM_HWM_GROWTH_BOUND_KIB: u64 = 3 * 1024;

#[test]
fn a_packet_level_run_stays_under_the_recorded_growth() {
    if std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("sim_footprint: skipped (set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }

    let mut trace = presets::moe8x13b(0.001);
    trace.seed = 1;
    trace.iterations = 1;
    let goal = convert(&trace_llm(&trace), &NcclToGoalConfig::default()).expect("trace lowers");
    let mut cfg = HtsimConfig::new(ai_topology(goal.num_ranks()), CcAlgo::Mprdma);
    cfg.seed = 1;
    cfg.spray = true;
    let mut backend = HtsimBackend::new(cfg);

    let Some(before) = vm_hwm_kib() else {
        eprintln!("sim_footprint: skipped (no VmHWM in /proc/self/status)");
        return;
    };
    Simulation::new(&goal).run(&mut backend).expect("no deadlock");
    let after = vm_hwm_kib().expect("VmHWM was readable a moment ago");

    // The bound is for this much work: the benchmark's seed-1 counts.
    let net = backend.net_stats();
    assert_eq!(goal.num_ranks(), 32);
    assert_eq!(net.packets_sent, 1_642_954, "the benchmark's ai_htsim_spray run");
    assert_eq!(net.internal_events, 19_493_780, "the benchmark's ai_htsim_spray run");

    let grew = after - before;
    eprintln!(
        "sim_footprint: VmHWM {:.1} -> {:.1} MiB, grew {:.1} (bound {:.1}) over {} events",
        before as f64 / 1024.0,
        after as f64 / 1024.0,
        grew as f64 / 1024.0,
        VM_HWM_GROWTH_BOUND_KIB as f64 / 1024.0,
        net.internal_events,
    );
    assert!(
        grew <= VM_HWM_GROWTH_BOUND_KIB,
        "the run grew VmHWM by {grew} KiB, the recorded bound is {VM_HWM_GROWTH_BOUND_KIB} KiB: \
         does something retain memory per processed event again?"
    );
}
