//! Integration: the full AI pipeline across crates — tracer → trace file
//! round-trip → 4-stage GOAL lowering → every backend (paper §3.1.2, §5.2).

use atlahs::core::backends::IdealBackend;
use atlahs::core::{NsPerByte, Simulation};
use atlahs::goal::stats::check_matching;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::TopologyConfig;
use atlahs::htsim::CcAlgo;
use atlahs::lgs::{LgsBackend, LogGopsParams};
use atlahs::schedgen::nccl2goal::{self, NcclToGoalConfig};
use atlahs::testbed::{TestbedBackend, TestbedConfig};
use atlahs::tracers::nccl::{presets, trace_llm, LlmConfig, NsysReport};

fn tiny(mut cfg: LlmConfig) -> LlmConfig {
    cfg.iterations = 1;
    cfg.batch = cfg.batch.min(2 * cfg.dp);
    cfg
}

fn lower(cfg: &LlmConfig) -> (NsysReport, atlahs::goal::GoalSchedule) {
    let report = trace_llm(cfg);
    let goal = nccl2goal::convert(&report, &NcclToGoalConfig::default()).unwrap();
    (report, goal)
}

#[test]
fn llama_dp_pipeline_runs_on_every_backend() {
    let cfg = tiny(presets::llama7b_dp16(0.002));
    let (report, goal) = lower(&cfg);

    // The trace artifact round-trips through its on-disk form.
    let reparsed = NsysReport::parse(&report.to_text()).unwrap();
    assert_eq!(report, reparsed);

    // The lowered schedule is structurally sound.
    assert_eq!(goal.num_ranks(), 4);
    check_matching(&goal).unwrap();

    // All four backends drain it completely.
    let total = goal.total_tasks();
    let topo = TopologyConfig::fat_tree(4, 2);

    let mut ideal = IdealBackend::new(200, 1_000);
    assert_eq!(Simulation::new(&goal).run(&mut ideal).unwrap().completed, total);

    let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
    let rep_lgs = Simulation::new(&goal).run(&mut lgs).unwrap();
    assert_eq!(rep_lgs.completed, total);

    let mut ht = HtsimBackend::new(HtsimConfig::new(topo.clone(), CcAlgo::Mprdma));
    let rep_ht = Simulation::new(&goal).run(&mut ht).unwrap();
    assert_eq!(rep_ht.completed, total);

    let mut tb = TestbedBackend::new(TestbedConfig::new(topo));
    let rep_tb = Simulation::new(&goal).run(&mut tb).unwrap();
    assert_eq!(rep_tb.completed, total);

    // Sanity: every backend sees a non-trivial runtime of the same order.
    for makespan in [rep_lgs.makespan, rep_ht.makespan, rep_tb.makespan] {
        assert!(makespan > 1_000_000, "an LLM iteration is >1ms, got {makespan}");
    }
}

#[test]
fn every_fig8_config_lowers_and_completes_on_lgs() {
    for cfg in [
        presets::llama7b_dp16(0.001),
        presets::llama7b_dp128(0.001),
        presets::llama70b(0.001),
        presets::mistral8x7b(0.001),
        presets::moe8x13b(0.001),
        presets::moe8x70b(0.001),
    ] {
        let cfg = tiny(cfg);
        let (_, goal) = lower(&cfg);
        check_matching(&goal).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        assert_eq!(goal.num_ranks() as u32, cfg.nodes(), "{}", cfg.name);
        let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
        let rep = Simulation::new(&goal).run(&mut lgs).unwrap();
        assert_eq!(rep.completed, goal.total_tasks(), "{}", cfg.name);
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let cfg = tiny(presets::mistral8x7b(0.002));
    let run = || {
        let (_, goal) = lower(&cfg);
        let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
        Simulation::new(&goal).run(&mut lgs).unwrap().makespan
    };
    assert_eq!(run(), run());
}

#[test]
fn htsim_is_deterministic_per_seed() {
    let cfg = tiny(presets::llama7b_dp16(0.001));
    let (_, goal) = lower(&cfg);
    let run = |seed: u64| {
        let mut c = HtsimConfig::new(TopologyConfig::fat_tree(4, 2), CcAlgo::Mprdma);
        c.seed = seed;
        let mut ht = HtsimBackend::new(c);
        Simulation::new(&goal).run(&mut ht).unwrap().makespan
    };
    assert_eq!(run(7), run(7), "same seed, same result");
    assert_ne!(run(7), run(8), "ECMP salt should perturb");
}

#[test]
fn what_if_regrouping_trades_wire_for_nvlink() {
    let cfg = tiny(presets::llama7b_dp16(0.002));
    let report = trace_llm(&cfg);
    let bytes_at = |gpn: u32| {
        let conv = NcclToGoalConfig { gpus_per_node: Some(gpn), ..Default::default() };
        let goal = nccl2goal::convert(&report, &conv).unwrap();
        atlahs::goal::ScheduleStats::of(&goal).bytes_sent
    };
    // Monotone: packing more GPUs per node strictly reduces fabric bytes.
    let seq: Vec<u64> = [1u32, 2, 4, 8, 16].iter().map(|&g| bytes_at(g)).collect();
    for w in seq.windows(2) {
        assert!(w[0] >= w[1], "packing reduced wire bytes: {seq:?}");
    }
    assert_eq!(seq[4], 0, "single node => no fabric traffic at all");
}

#[test]
fn slower_network_cannot_speed_up_training() {
    let cfg = tiny(presets::llama7b_dp16(0.002));
    let (_, goal) = lower(&cfg);
    let time_with_g = |ps: u64| {
        let p = LogGopsParams { big_g: NsPerByte::ps(ps), ..LogGopsParams::ai_alps() };
        let mut lgs = LgsBackend::new(p);
        Simulation::new(&goal).run(&mut lgs).unwrap().makespan
    };
    assert!(time_with_g(400) > time_with_g(40));
    assert!(time_with_g(4000) > time_with_g(400));
}
