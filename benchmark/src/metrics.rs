//! The metric registry: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root carries the same
//! lists; a unit test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator sees, with the share of the parent's
/// median by which it may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Bounds are set from measured spread, not from hope (README, "Noise"):
/// on the 2-vCPU reference VM the host's speed drifts by several percent
/// over minutes, so medians of back-to-back sets of runs of the *same*
/// binary differ by up to 9% in wall time; a bound below 0.2 would reject
/// unchanged code. `setup_s` is tens of microseconds on the grid workloads.
/// Peak RSS repeats to 0.1% on the four pipelines; its bound is set by the
/// grids, whose peak depends on the seed (IQR up to 4% of the median).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "tasks_per_s", unit: "tasks/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

/// A metric of one layer: (name, unit, better). Reported by every
/// workload's traced run; 0 where the layer is not on the workload's path.
pub const PER_LAYER: [(&str, &str, Better); 57] = [
    // the traced run as a whole
    ("trace_overhead_ratio", "ratio", Better::Lower),
    ("traced_wall_s", "s", Better::Lower),
    ("layer_self_sum_s", "s", Better::Lower),
    ("tracing_self_s", "s", Better::Lower),
    ("harness_self_s", "s", Better::Lower),
    ("sim_drift", "count", Better::Lower),
    // tracers
    ("parse_s", "s", Better::Lower),
    ("trace_bytes", "B", Better::Lower),
    ("trace_records", "count", Better::Higher),
    // schedgen (+ collectives, directdrive)
    ("lower_s", "s", Better::Lower),
    ("schedgen_self_s", "s", Better::Lower),
    ("lower_ns_per_task", "ns", Better::Lower),
    // goal
    ("codec_s", "s", Better::Lower),
    ("goal_bytes_per_task", "B", Better::Lower),
    ("arena_bytes_per_task", "B", Better::Lower),
    ("compose_probe_s", "s", Better::Lower),
    ("compose_calls", "count", Better::Higher),
    // core
    ("sched_self_s", "s", Better::Lower),
    ("backend_calls", "count", Better::Lower),
    ("matcher_replay_s", "s", Better::Lower),
    ("matcher_offers", "count", Better::Higher),
    ("checkpoint_us_lgs", "us", Better::Lower),
    ("restore_us_lgs", "us", Better::Lower),
    ("checkpoint_us_htsim", "us", Better::Lower),
    ("restore_us_htsim", "us", Better::Lower),
    // eventq
    ("lane_pushes", "count", Better::Higher),
    ("wheel_pushes", "count", Better::Lower),
    ("heap_pushes", "count", Better::Lower),
    ("cascades", "count", Better::Lower),
    ("eventq_probe_ns_per_op", "ns", Better::Lower),
    // the backend under the scheduler (lgs or htsim)
    ("build_s", "s", Better::Lower),
    ("backend_s", "s", Better::Lower),
    ("backend_ns_per_call", "ns", Better::Lower),
    ("messages", "count", Better::Higher),
    ("rendezvous_messages", "count", Better::Higher),
    ("ns_per_event", "ns", Better::Lower),
    ("internal_events", "count", Better::Lower),
    ("packets_sent", "count", Better::Lower),
    ("drops", "count", Better::Lower),
    ("retransmissions", "count", Better::Lower),
    ("timeouts", "count", Better::Lower),
    ("goodput_ratio", "ratio", Better::Higher),
    // bench (scenario/sweep, branch, cluster)
    ("expand_s", "s", Better::Lower),
    ("execute_s", "s", Better::Lower),
    ("cell_wall_sum_s", "s", Better::Lower),
    ("report_s", "s", Better::Lower),
    ("cells", "count", Better::Higher),
    ("prefix_runs", "count", Better::Lower),
    ("jobs", "count", Better::Higher),
    ("thread_efficiency", "ratio", Better::Higher),
    ("branch_vs_straight", "ratio", Better::Lower),
    // fidelity against the in-repo testbed emulator (not hardware)
    ("lgs_err_pct_ai", "%", Better::Lower),
    ("htsim_err_pct_ai", "%", Better::Lower),
    ("lgs_err_pct_hpc", "%", Better::Lower),
    ("htsim_err_pct_hpc", "%", Better::Lower),
    // run hygiene of the traced child
    ("kernel_share", "ratio", Better::Lower),
    ("cpu_s", "s", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use atlahs_bench::json::Json;

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no `{key}` in {j:?}"))
    }

    /// `BENCHMARK.json` is the contract other tools read; the code is what
    /// runs. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!((text(j, "name"), text(j, "why")), (w.name(), w.why()));
        }

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.name());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!((text(j, "name"), text(j, "unit")), (name, unit));
            assert_eq!(text(j, "better"), better.name());
        }

        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::Str("benchmark".into())]);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1)) {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }
}
