//! End-to-end AI pipeline: trace an LLM training job, lower it through
//! the four-stage NCCL→GOAL pipeline, and predict its iteration time on
//! both ATLAHS backends — including a "what-if" GPU-to-node regrouping
//! (paper §3.1.2 Stage 4).
//!
//! ```text
//! cargo run --release --example llm_training
//! ```

use atlahs::core::Simulation;
use atlahs::goal::ScheduleStats;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::{LinkParams, TopologyConfig};
use atlahs::htsim::CcAlgo;
use atlahs::lgs::{LgsBackend, LogGopsParams};
use atlahs::schedgen::nccl2goal::{self, NcclToGoalConfig};
use atlahs::tracers::nccl::{presets, trace_llm};

fn main() {
    // ---- Stage 1: profile the application (nsys-style tracer) -----------
    let mut cfg = presets::llama7b_dp16(0.002);
    cfg.iterations = 1;
    let report = trace_llm(&cfg);
    println!(
        "traced {}: {} GPUs on {} nodes, {} kernel records, {} communicators",
        cfg.name,
        report.num_gpus(),
        report.num_nodes(),
        report.num_records(),
        report.comms.len()
    );

    // ---- Stages 2–4: lower to a node-level GOAL schedule ----------------
    let goal =
        nccl2goal::convert(&report, &NcclToGoalConfig::default()).expect("trace lowers to GOAL");
    let stats = ScheduleStats::of(&goal);
    println!(
        "GOAL: {} node ranks, {} tasks ({} sends, {:.1} MiB on the wire)",
        goal.num_ranks(),
        goal.total_tasks(),
        stats.sends,
        stats.bytes_sent as f64 / (1 << 20) as f64
    );

    // ---- Predict with the message-level backend (fast) ------------------
    let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
    let rep_lgs = Simulation::new(&goal).run(&mut lgs).expect("completes");
    println!("ATLAHS LGS   : {:.3} ms/iteration", rep_lgs.makespan as f64 / 1e6);

    // ---- Predict with the packet-level backend (accurate) ---------------
    let link = LinkParams { gbps: 200, latency_ns: 500 };
    let topo = TopologyConfig::FatTree2L {
        hosts: goal.num_ranks(),
        hosts_per_tor: 2,
        uplinks_per_tor: 2,
        edge: link,
        core: link,
    };
    let mut htsim = HtsimBackend::new(HtsimConfig::new(topo, CcAlgo::Mprdma));
    let rep_ht = Simulation::new(&goal).run(&mut htsim).expect("completes");
    let net = htsim.net_stats();
    println!(
        "ATLAHS htsim : {:.3} ms/iteration ({} packets, {} ECN marks, {} drops)",
        rep_ht.makespan as f64 / 1e6,
        net.packets_sent,
        net.ecn_marks,
        net.drops
    );

    // ---- What-if: restructure the same trace onto 8 nodes of 2 GPUs -----
    let what_if = NcclToGoalConfig { gpus_per_node: Some(2), ..NcclToGoalConfig::default() };
    let goal8 = nccl2goal::convert(&report, &what_if).expect("regrouping works");
    let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
    let rep8 = Simulation::new(&goal8).run(&mut lgs).expect("completes");
    let s8 = ScheduleStats::of(&goal8);
    println!(
        "what-if 2 GPUs/node: {} ranks, {:.1} MiB on the wire, {:.3} ms/iteration",
        goal8.num_ranks(),
        s8.bytes_sent as f64 / (1 << 20) as f64,
        rep8.makespan as f64 / 1e6
    );
    assert!(
        s8.bytes_sent >= stats.bytes_sent,
        "fewer GPUs per node => more traffic must cross the fabric"
    );
}
