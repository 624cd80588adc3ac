//! Integration: ATLAHS vs the AstraSim-class baseline on identical
//! execution patterns (the Fig. 8/9 and §5.2 methodology).

use atlahs::baselines::{chakra, AstraError, AstraSim, AstraSystemConfig};
use atlahs::core::Simulation;
use atlahs::goal::binary;
use atlahs::lgs::{LgsBackend, LogGopsParams};
use atlahs::schedgen::nccl2goal::{self, NcclToGoalConfig};
use atlahs::tracers::nccl::{presets, trace_llm, LlmConfig};

fn tiny(mut cfg: LlmConfig) -> LlmConfig {
    cfg.iterations = 1;
    cfg.batch = cfg.batch.min(2 * cfg.dp);
    cfg
}

#[test]
fn both_toolchains_consume_the_same_trace() {
    let cfg = tiny(presets::llama7b_dp16(0.002));
    let report = trace_llm(&cfg);

    // ATLAHS side.
    let goal = nccl2goal::convert(&report, &NcclToGoalConfig::default()).unwrap();
    let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
    let atlahs_ns = Simulation::new(&goal).run(&mut lgs).unwrap().makespan;

    // AstraSim side.
    let et = chakra::from_nsys(&report);
    let astra = AstraSim::new(AstraSystemConfig::default()).run(&et).unwrap();

    // Same workload, same order of magnitude — but not the same number
    // (different models). Both must be non-trivial.
    assert!(atlahs_ns > 1_000_000);
    assert!(astra.makespan_ns > 1_000_000);
    let ratio = astra.makespan_ns as f64 / atlahs_ns as f64;
    assert!(
        (0.2..20.0).contains(&ratio),
        "models should be within 20x of each other, got {ratio} \
         (atlahs {atlahs_ns} vs astra {})",
        astra.makespan_ns
    );
}

#[test]
fn astrasim_fails_exactly_on_non_dp_configs() {
    // The paper's Fig. 8: AstraSim succeeds on the two pure-DP Llama 7B
    // runs and aborts with the same-address error everywhere else.
    let outcomes: Vec<(bool, &str)> = vec![
        (true, "llama7b_dp16"),
        (true, "llama7b_dp128"),
        (false, "llama70b"),
        (false, "mistral8x7b"),
        (false, "moe8x13b"),
        (false, "moe8x70b"),
    ];
    let cfgs = [
        presets::llama7b_dp16(0.001),
        presets::llama7b_dp128(0.001),
        presets::llama70b(0.001),
        presets::mistral8x7b(0.001),
        presets::moe8x13b(0.001),
        presets::moe8x70b(0.001),
    ];
    for ((should_pass, name), cfg) in outcomes.into_iter().zip(cfgs) {
        let et = chakra::from_nsys(&trace_llm(&tiny(cfg)));
        let result = AstraSim::new(AstraSystemConfig::default()).run(&et);
        match (should_pass, result) {
            (true, Ok(_)) => {}
            (false, Err(AstraError::SameAddress { .. })) => {}
            (ok, other) => panic!("{name}: expected pass={ok}, got {other:?}"),
        }
    }
}

#[test]
fn goal_binary_is_smaller_than_chakra_text_for_dp_workloads() {
    // The Fig. 9 claim at DP-heavy workloads: compute-gap-dominated
    // traces inflate most under Chakra's verbose schema.
    let cfg = tiny(presets::llama7b_dp16(0.002));
    let report = trace_llm(&cfg);
    let goal = nccl2goal::convert(&report, &NcclToGoalConfig::default()).unwrap();
    let goal_size = binary::encode(&goal).len();
    let chakra_size = chakra::from_nsys(&report).to_text().len();
    assert!(chakra_size > goal_size, "Chakra {chakra_size} must exceed GOAL {goal_size}");
}

#[test]
fn astrasim_mispredicts_materially_relative_to_lgs() {
    // The congestion-unaware baseline's barrier semantics, analytic ring
    // model, and chunk boundary overheads land far from ATLAHS LGS on the
    // same DP workload — the paper reports tens-of-percent errors
    // (+27% / +125%) where ATLAHS stays within 5%. Our reproduction shows
    // the same magnitude of disagreement (direction varies with scale).
    let cfg = tiny(presets::llama7b_dp16(0.002));
    let report = trace_llm(&cfg);
    let goal = nccl2goal::convert(&report, &NcclToGoalConfig::default()).unwrap();
    let mut lgs = LgsBackend::new(LogGopsParams::ai_alps());
    let atlahs_ns = Simulation::new(&goal).run(&mut lgs).unwrap().makespan;
    let et = chakra::from_nsys(&report);
    let astra = AstraSim::new(AstraSystemConfig::default()).run(&et).unwrap();
    let rel = (astra.makespan_ns as f64 - atlahs_ns as f64).abs() / atlahs_ns as f64;
    assert!(
        rel > 0.15,
        "baseline should disagree materially: astra {} vs lgs {atlahs_ns} ({:.1}%)",
        astra.makespan_ns,
        rel * 100.0
    );
}

/// What Fig. 9 measures of a Chakra trace is its text's byte length. The
/// text holds one `rank` line per rank, one `node` line per node and one
/// `attr` line per attribute, in order, and its length is pinned.
#[test]
fn chakra_text_is_what_fig09_measures() {
    let et = chakra::from_nsys(&trace_llm(&tiny(presets::llama7b_dp16(0.002))));
    let text = et.to_text();
    let mut want = Vec::new();
    for r in &et.ranks {
        want.push(format!("rank {}", r.rank));
        for n in &r.nodes {
            want.push(format!("node id={} type={} ", n.id, n.node_type.as_str()));
            want.extend(n.attrs.iter().map(|a| format!("  attr {}={}", a.key, a.value)));
        }
    }
    let tagged = |l: &&str| ["rank ", "node ", "  attr "].iter().any(|p| l.starts_with(p));
    let body: Vec<&str> = text.lines().filter(tagged).collect();
    assert_eq!(body.len(), want.len());
    for (line, want) in body.iter().zip(&want) {
        assert!(line.starts_with(want.as_str()), "`{line}` is not `{want}…`");
    }
    assert_eq!(text.len(), 2_036_641);
}
