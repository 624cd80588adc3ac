//! Criterion microbenches of the packet-engine hot paths: the event core
//! in isolation, and end-to-end replay across the three backend tiers
//! (ideal / LGS / htsim) at small and large scale.
//!
//! These complement `benches/backends.rs` (whole-toolchain replay cost)
//! by pinning the pieces the perf work targets: `EventQueue` push/pop
//! throughput and the packet engine's events-per-second. These benches
//! are the fine-grained view; end-to-end wall clock is measured by the
//! layered benchmark (`benchmark/README.md`: `storage_htsim_oversub`,
//! `ai_htsim_spray`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use atlahs_core::backends::IdealBackend;
use atlahs_core::Simulation;
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs_htsim::topology::TopologyConfig;
use atlahs_htsim::{CcAlgo, EventQueue};
use atlahs_lgs::{LgsBackend, LogGopsParams};

/// The event queue alone: a packet-engine-shaped mix of delays (same
/// tick, serialization-scale, RTT-scale, timer-scale) pushed and popped
/// through the wheel.
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("push_pop_mixed_4k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut now = 0u64;
            let mut x = 0x9E37_79B9u64;
            for i in 0..4096u32 {
                // Cheap xorshift over the delay profile tiers.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delay = match x % 10 {
                    0 => 0,
                    1..=5 => x % 700,              // serialization + propagation
                    6..=8 => x % 20_000,           // RTT / host overhead scale
                    _ => 100_000 + x % 10_000_000, // timers, compute
                };
                q.push(now + delay, i);
                if i % 2 == 1 {
                    if let Some((t, ev)) = q.pop() {
                        now = t;
                        black_box(ev);
                    }
                }
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        })
    });
    g.finish();
}

/// Engine events per second on a loss-free single switch: the purest
/// measure of per-event cost (no drops, no timers firing).
fn bench_engine_events(c: &mut Criterion) {
    let goal = atlahs_bench::workloads::cross_tor_permutation(16, 2 << 20);
    let mut g = c.benchmark_group("engine_event_core");
    g.sample_size(10);
    g.bench_function("single_switch_permutation", |b| {
        b.iter(|| {
            let mut be = HtsimBackend::new(HtsimConfig::new(
                TopologyConfig::SingleSwitch {
                    hosts: 16,
                    link: atlahs_htsim::LinkParams::default(),
                },
                CcAlgo::Mprdma,
            ));
            black_box(Simulation::new(&goal).run(&mut be).unwrap())
        })
    });
    g.bench_function("spray_fat_tree_permutation", |b| {
        b.iter(|| {
            let mut cfg = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
            cfg.spray = true;
            let mut be = HtsimBackend::new(cfg);
            black_box(Simulation::new(&goal).run(&mut be).unwrap())
        })
    });
    g.finish();
}

/// The three backend tiers at two scales: the §5.2 cost ladder the
/// toolchain's "choose your fidelity" story rests on.
fn bench_backend_tiers(c: &mut Criterion) {
    for (scale, hosts, bytes) in [("small_16r", 16u32, 1u64 << 20), ("large_64r", 64, 1 << 20)] {
        let goal = atlahs_bench::workloads::cross_tor_permutation(hosts, bytes);
        let mut g = c.benchmark_group(format!("replay_permutation_{scale}"));
        g.sample_size(10);
        g.bench_function("ideal", |b| {
            b.iter(|| {
                let mut be = IdealBackend::new(12.5, 500);
                black_box(Simulation::new(&goal).run(&mut be).unwrap())
            })
        });
        g.bench_function("lgs", |b| {
            b.iter(|| {
                let mut be = LgsBackend::new(LogGopsParams::hpc_testbed());
                black_box(Simulation::new(&goal).run(&mut be).unwrap())
            })
        });
        g.bench_function("htsim", |b| {
            b.iter(|| {
                let mut be = HtsimBackend::new(HtsimConfig::new(
                    TopologyConfig::fat_tree(hosts as usize, 8.min(hosts as usize)),
                    CcAlgo::Mprdma,
                ));
                black_box(Simulation::new(&goal).run(&mut be).unwrap())
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_event_queue, bench_engine_events, bench_backend_tiers);
criterion_main!(benches);
