//! Criterion microbenches of the message-level (LGS) hot paths: the
//! matcher under eager floods, the rendezvous handshake machinery, and
//! the scheduler's serial dispatch on deep dependency chains.
//!
//! These complement `benches/engine.rs` (packet-engine hot paths) by
//! pinning the pieces the message-level perf work targets: the pooled
//! fast-hash [`atlahs_core::Matcher`], the shared timer-wheel event core,
//! and the SoA task-arena scan in the core scheduler. These benches are
//! the fine-grained view; end-to-end wall clock is measured by the
//! layered benchmark (`benchmark/README.md`: `ai_lgs_trace`,
//! `hpc_lgs_rendezvous`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use atlahs_core::Simulation;
use atlahs_goal::GoalSchedule;
use atlahs_lgs::{LgsBackend, LogGopsParams};
use atlahs_schedgen::synthetic;

fn replay(goal: &GoalSchedule, params: LogGopsParams) -> atlahs_core::SimReport {
    let mut be = LgsBackend::new(params);
    Simulation::new(goal).run(&mut be).expect("scenario completes")
}

/// Eager flood: MoE all-to-alls with one matcher key per (pair, layer,
/// phase) — matcher insert/match churn dominates, every message eager.
fn bench_eager_flood(c: &mut Criterion) {
    let goal = synthetic::moe_alltoall(32, 8, 32 << 10, 4, 2_000).expect("moe builds");
    let mut g = c.benchmark_group("lgs_eager_flood");
    g.sample_size(10);
    g.bench_function("moe_alltoall_32r", |b| {
        b.iter(|| black_box(replay(&goal, LogGopsParams::ai_alps())))
    });
    g.finish();
}

/// Rendezvous handshake storm: every message above `S` pays the full
/// RTS/CTS round trip — five backend events per message instead of two.
fn bench_rendezvous_storm(c: &mut Criterion) {
    let goal = synthetic::permutation(32, 1 << 20, 1, 24).expect("permutation builds");
    let mut g = c.benchmark_group("lgs_rendezvous_storm");
    g.sample_size(10);
    g.bench_function("permutation_32r_1mib", |b| {
        b.iter(|| black_box(replay(&goal, LogGopsParams::hpc_testbed())))
    });
    g.finish();
}

/// Deep dependency chain: a two-rank ping-pong with every round chained
/// on the previous one — the scheduler's serial dispatch path, a single
/// event in flight at any time, at criterion-friendly size.
fn bench_deep_chain(c: &mut Criterion) {
    let goal = synthetic::pingpong_chain(10_000, 4 << 10).expect("chain builds");
    let mut g = c.benchmark_group("lgs_deep_chain");
    g.sample_size(10);
    g.bench_function("pingpong_10k_rounds", |b| {
        b.iter(|| black_box(replay(&goal, LogGopsParams::ai_alps())))
    });
    g.finish();
}

criterion_group!(benches, bench_eager_flood, bench_rendezvous_storm, bench_deep_chain);
criterion_main!(benches);
