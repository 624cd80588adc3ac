//! Distributed storage on Direct Drive: generate a Financial-like block
//! I/O trace, lower it onto the CCS/BSS service graph, and measure how
//! congestion control changes request completion under an oversubscribed
//! core (the paper's Fig. 11 case study, §6.1).
//!
//! ```text
//! cargo run --release --example storage_directdrive
//! ```

use atlahs::core::probe::Recorded;
use atlahs::core::Simulation;
use atlahs::directdrive::{trace_to_goal, DirectDriveLayout, ServiceParams};
use atlahs::goal::GoalBuilder;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::{LinkParams, TopologyConfig};
use atlahs::htsim::CcAlgo;
use atlahs::tracers::storage::{financial_like, OltpConfig};
use atlahs_bench::session::DistSummary;

fn main() {
    // ---- the workload: 1000 skewed, write-heavy OLTP operations ---------
    let trace = financial_like(&OltpConfig { operations: 1_000, seed: 7, ..Default::default() });
    println!("SPC trace: {} ops, {:.0}% writes", trace.len(), trace.write_fraction() * 100.0);

    // ---- the storage cluster: 8 clients, 2 CCS, 12 BSS ------------------
    let layout = DirectDriveLayout::standard(8, 2, 12);
    let params = ServiceParams::default();
    let mut b = GoalBuilder::new(layout.total_ranks());
    let completions = trace_to_goal(&trace, &layout, &params, &mut b);
    let goal = b.build().expect("storage GOAL builds");
    println!(
        "Direct Drive GOAL: {} ranks, {} tasks, {} tracked requests",
        goal.num_ranks(),
        goal.total_tasks(),
        completions.len()
    );

    // ---- run on an 8:1 oversubscribed fat tree, MPRDMA vs NDP -----------
    let link = LinkParams { gbps: 100, latency_ns: 500 };
    let hosts = layout.total_ranks().div_ceil(8) * 8;
    let topo = TopologyConfig::FatTree2L {
        hosts,
        hosts_per_tor: 8,
        uplinks_per_tor: 1, // 8:1 oversubscription
        edge: link,
        core: link,
    };

    for cc in [CcAlgo::Mprdma, CcAlgo::Ndp] {
        let mut backend = Recorded::new(HtsimBackend::new(HtsimConfig::new(topo.clone(), cc)));
        let rep = Simulation::new(&goal).run(&mut backend).expect("completes");

        let mct = DistSummary::of(backend.flows().iter().map(|f| f.duration()).collect());
        let net = backend.inner().net_stats();
        println!(
            "{cc:8}: drained in {:.2} ms | MCT mean {:.1} µs p99 {:.1} µs max {:.1} µs | trims/drops {}",
            rep.makespan as f64 / 1e6,
            mct.mean / 1e3,
            mct.p99 as f64 / 1e3,
            mct.max as f64 / 1e3,
            net.drops + net.trims,
        );
    }
    println!("\n(receiver-driven NDP suffers when congestion sits in the oversubscribed core)");
}
