//! The fidelity block: simulated-time error of both simulation backends
//! against the reference, stated beside every speed number.
//!
//! The reference is `atlahs_testbed`, the repository's own fluid-flow
//! emulator — **not hardware**. The numbers are simulated quantities: exact
//! and fully determined by the seed.

use atlahs_bench::table::pct_err;
use atlahs_bench::{runner, workloads as suites};
use atlahs_htsim::CcAlgo;

/// Signed makespan error (percent) of LGS and htsim against the testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Errors {
    pub lgs_err_pct: f64,
    pub htsim_err_pct: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// One quick iteration of `llama7b_dp16` (16 GPUs / 4 nodes).
    pub ai: Errors,
    /// LULESH on 128 ranks / 8 nodes.
    pub hpc: Errors,
}

pub fn measure(seed: u64) -> Fidelity {
    let ai = {
        let case = &suites::ai_suite(0.01, true, seed)[0];
        let nodes = case.cfg.nodes() as usize;
        let (_, goal) = suites::ai_goal(&case.cfg);
        let topo = suites::ai_topology(nodes);
        let (measured, _) = runner::run_testbed(&goal, topo.clone(), seed);
        let (lgs, _) = runner::run_lgs(&goal, suites::ai_lgs_params(nodes));
        let htsim = runner::run_htsim_ai(&goal, topo, CcAlgo::Mprdma, seed);
        Errors {
            lgs_err_pct: pct_err(measured.makespan, lgs.makespan),
            htsim_err_pct: pct_err(measured.makespan, htsim.report.makespan),
        }
    };
    let hpc = {
        let case = suites::hpc_suite()
            .into_iter()
            .find(|c| c.app == suites::HpcApp::Lulesh && c.procs == 128)
            .expect("Fig. 10 has a 128-rank LULESH point");
        let (_, goal) = suites::hpc_goal(&case, 0.05, seed);
        let topo = suites::hpc_topology(case.procs, case.nodes);
        let (measured, _) = runner::run_testbed(&goal, topo.clone(), seed);
        let (lgs, _) = runner::run_lgs(&goal, suites::hpc_lgs_params());
        let htsim = runner::run_htsim(&goal, topo, CcAlgo::Mprdma, seed, false);
        Errors {
            lgs_err_pct: pct_err(measured.makespan, lgs.makespan),
            htsim_err_pct: pct_err(measured.makespan, htsim.report.makespan),
        }
    };
    Fidelity { ai, hpc }
}

impl Fidelity {
    /// The four numbers by per-layer metric name.
    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        [
            ("lgs_err_pct_ai", self.ai.lgs_err_pct),
            ("htsim_err_pct_ai", self.ai.htsim_err_pct),
            ("lgs_err_pct_hpc", self.hpc.lgs_err_pct),
            ("htsim_err_pct_hpc", self.hpc.htsim_err_pct),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_exact_functions_of_the_seed() {
        let a = measure(3);
        assert_eq!(a, measure(3));
        for (name, v) in a.metrics() {
            assert!(v.is_finite() && v.abs() < 100.0, "{name} = {v}");
        }
    }
}
