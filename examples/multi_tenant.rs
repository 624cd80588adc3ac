//! Multi-job and multi-tenant composition (paper §3.2, Fig. 13): place an
//! AI job and an HPC job on a shared oversubscribed cluster, compare
//! packed vs random vs round-robin allocation, then co-locate two tenants
//! on the *same* nodes and observe the contention.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use atlahs::core::{allocate, PlacementStrategy, Simulation};
use atlahs::goal::merge::{compose, PlacedJob};
use atlahs::goal::{GoalBuilder, GoalSchedule};
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::{LinkParams, TopologyConfig};
use atlahs::htsim::CcAlgo;
use atlahs::schedgen::nccl2goal::{self, NcclToGoalConfig};
use atlahs::tracers::nccl::{presets, trace_llm};

/// A compute-heavy ring job standing in for an HPC application.
fn ring_job(ranks: usize, bytes: u64, rounds: u32) -> GoalSchedule {
    let mut b = GoalBuilder::new(ranks);
    let mut prev: Vec<Option<_>> = vec![None; ranks];
    for round in 0..rounds {
        for r in 0..ranks as u32 {
            let dst = (r + 1) % ranks as u32;
            let src = (r + ranks as u32 - 1) % ranks as u32;
            let c = b.calc(r, 200_000);
            let s = b.send(r, dst, bytes, round);
            let v = b.recv(r, src, bytes, round);
            b.requires(r, s, c);
            b.requires(r, v, c);
            if let Some((ps, pv)) = prev[r as usize] {
                b.requires(r, c, ps);
                b.requires(r, c, pv);
            }
            prev[r as usize] = Some((s, v));
        }
    }
    b.build().expect("ring job builds")
}

fn run(goal: &GoalSchedule, cluster: usize) -> Vec<u64> {
    let link = LinkParams { gbps: 200, latency_ns: 500 };
    let topo = TopologyConfig::FatTree2L {
        hosts: cluster,
        hosts_per_tor: 4,
        uplinks_per_tor: 1, // 4:1 oversubscribed core
        edge: link,
        core: link,
    };
    let mut backend = HtsimBackend::new(HtsimConfig::new(topo, CcAlgo::Mprdma));
    Simulation::new(goal).run(&mut backend).expect("completes").rank_finish
}

fn main() {
    // Job A: Llama 7B on 4 nodes. Job B: an 8-rank ring job.
    let mut cfg = presets::llama7b_dp16(0.001);
    cfg.iterations = 1;
    let report = trace_llm(&cfg);
    let llama = nccl2goal::convert(&report, &NcclToGoalConfig::default()).unwrap();
    let hpc = ring_job(8, 1 << 20, 4);
    let cluster = 16usize;

    println!("cluster: {cluster} nodes, 4:1 oversubscribed fat tree");
    println!(
        "job A: Llama 7B ({} nodes)   job B: ring job ({} nodes)\n",
        llama.num_ranks(),
        hpc.num_ranks()
    );

    // ---- multi-job: three allocation strategies -------------------------
    for (strategy, label) in [
        (PlacementStrategy::Packed, "packed    "),
        (PlacementStrategy::Random { seed: 3 }, "random    "),
        (PlacementStrategy::RoundRobin, "roundrobin"),
    ] {
        let placement =
            allocate(strategy, cluster, &[llama.num_ranks(), hpc.num_ranks()]).expect("fits");
        let merged = compose(
            &[
                PlacedJob::new(&llama, placement[0].clone()),
                PlacedJob::new(&hpc, placement[1].clone()),
            ],
            cluster,
        )
        .expect("composes");
        let finish = run(&merged, cluster);
        let app_time =
            |nodes: &[u32]| nodes.iter().map(|&n| finish[n as usize]).max().unwrap() as f64 / 1e6;
        println!(
            "{label}: Llama {:7.3} ms   ring job {:7.3} ms",
            app_time(&placement[0]),
            app_time(&placement[1])
        );
    }

    // ---- multi-tenant: both tenants share the same 8 nodes --------------
    let solo = run(&compose(&[PlacedJob::new(&hpc, (0..8).collect())], cluster).unwrap(), cluster);
    let tenants = compose(
        &[PlacedJob::new(&hpc, (0..8).collect()), PlacedJob::new(&hpc, (0..8).collect())],
        cluster,
    )
    .expect("tenants compose");
    let shared = run(&tenants, cluster);
    let solo_t = solo.iter().max().unwrap();
    let shared_t = shared.iter().max().unwrap();
    println!(
        "\nmulti-tenant (2x ring job on the same nodes): solo {:.3} ms -> shared {:.3} ms ({:+.0}%)",
        *solo_t as f64 / 1e6,
        *shared_t as f64 / 1e6,
        (*shared_t as f64 / *solo_t as f64 - 1.0) * 100.0
    );
    assert!(shared_t >= solo_t, "sharing nodes cannot speed a tenant up");
}
