//! The parallel scenario-sweep executor and its report writers.
//!
//! Cells are independent, deterministic, single-threaded simulations
//! ([`crate::scenario::run_cell`]), so the sweep parallelizes across OS
//! threads with a shared claim-index queue: every idle worker steals the
//! next unclaimed cell (`fetch_add` on an atomic cursor), which load
//! balances a grid whose cell costs span orders of magnitude without any
//! coordination beyond one atomic. Results land in their cell's slot, so
//! the report is **independent of the thread count and of completion
//! order**: `--threads 1` and `--threads N` must produce byte-identical
//! JSON (what lets `tests/golden_table/mod.rs` pin the smoke grids' reports).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::json::Json;
use crate::scenario::{run_members, CellResult, ScenarioCell};
use crate::table::{fmt_ns, Table};

/// Claim-index parallel map: workers steal the next unclaimed item via
/// one atomic `fetch_add`; results land in their item's slot, so the
/// output order is independent of thread count and completion order.
/// Shared with the dynamic cluster engine ([`crate::cluster`]), whose
/// per-epoch simulations parallelize the same way.
pub(crate) fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return claimed;
                        }
                        claimed.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("sweep worker must not panic") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every item claimed exactly once")).collect()
}

/// `--threads 0` means one thread per available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Run every cell, `threads`-wide. 0 means one thread per available core.
/// Every cell is its own straight, one-member group.
pub fn execute(cells: &[ScenarioCell], threads: usize) -> Vec<CellResult> {
    let singletons: Vec<Vec<usize>> = (0..cells.len()).map(|i| vec![i]).collect();
    execute_groups(cells, &singletons, None, threads)
}

/// Run `groups` (a partition of `cells` by index; members of a group
/// differ only in their fault) and return the results in cell order.
///
/// Two phases, both over the claim-index pool: first one GOAL lowering
/// per *distinct* (workload, seed) pair — cells differing only in
/// topology, CC, placement, backend, or fault share the built schedules
/// instead of re-tracing the workload per cell — then one
/// [`run_members`] session per group. Sharing cannot change results: job
/// construction is a deterministic function of exactly that pair.
pub(crate) fn execute_groups(
    cells: &[ScenarioCell],
    groups: &[Vec<usize>],
    branch_at: Option<u64>,
    threads: usize,
) -> Vec<CellResult> {
    let threads = resolve_threads(threads);

    // Phase 1: deduplicate workload builds.
    let mut index_of: std::collections::HashMap<(String, u64), usize> =
        std::collections::HashMap::new();
    let mut uniq: Vec<&ScenarioCell> = Vec::new();
    let group_jobs: Vec<usize> = groups
        .iter()
        .map(|members| {
            let cell = &cells[members[0]];
            *index_of.entry((cell.workload.label(), cell.seed)).or_insert_with(|| {
                uniq.push(cell);
                uniq.len() - 1
            })
        })
        .collect();
    let jobs = parallel_map(&uniq, threads, |cell| cell.workload.build_jobs(cell.seed));

    // Phase 2: the simulations, scattered back into cell order.
    let group_ids: Vec<usize> = (0..groups.len()).collect();
    let per_group = parallel_map(&group_ids, threads, |&g| {
        let members: Vec<&ScenarioCell> = groups[g].iter().map(|&i| &cells[i]).collect();
        run_members(&members, &jobs[group_jobs[g]], branch_at)
    });
    let mut slots: Vec<Option<CellResult>> = cells.iter().map(|_| None).collect();
    for (members, results) in groups.iter().zip(per_group) {
        for (&i, result) in members.iter().zip(results) {
            slots[i] = Some(result);
        }
    }
    slots.into_iter().map(|s| s.expect("every cell is in exactly one group")).collect()
}

/// The head every report shares: schema, grid seed, cell count. Small
/// (typical, user-chosen) seeds stay plain numbers; seeds beyond f64's
/// exact-integer window fall back to hex strings so the recorded grid
/// seed always reproduces the run.
pub(crate) fn report_head(schema: &str, seed: u64, cells: usize) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(schema.into()));
    let exact = seed < (1 << 53);
    doc.set(
        "seed",
        if exact { Json::Num(seed as f64) } else { Json::Str(format!("{seed:#018x}")) },
    );
    doc.set("cells", Json::Num(cells as f64));
    doc
}

/// A finished sweep: the grid seed, the cells, and their results.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub seed: u64,
    pub results: Vec<CellResult>,
    /// Set when the sweep ran branched ([`crate::branch::execute_branched`]):
    /// records the branch time and the shared-prefix work actually done,
    /// so reports prove the prefix was simulated per group, not per cell.
    pub branch: Option<crate::branch::BranchStats>,
}

impl SweepReport {
    /// Total simulated-cell wall-clock (the single-threaded cost; the
    /// parallel sweep's elapsed time divides this by the effective
    /// parallelism).
    pub fn total_cell_wall(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }

    /// The deterministic JSON report. Contains only simulation outcomes —
    /// no wall-clock, no host data — so re-runs and different thread
    /// counts emit byte-identical documents.
    pub fn to_json(&self) -> Json {
        let mut doc = report_head("atlahs-sweep-v1", self.seed, self.results.len());
        // Branched sweeps record the branch point and the shared-prefix
        // work counter; straight sweeps omit the object entirely so all
        // pre-existing goldens keep their exact bytes.
        if let Some(b) = &self.branch {
            let mut br = Json::obj();
            br.set("at_ns", Json::Num(b.branch_at as f64));
            br.set("prefix_runs", Json::Num(b.prefix_runs as f64));
            doc.set("branch", br);
        }
        let mut arr = Vec::with_capacity(self.results.len());
        for r in &self.results {
            let mut cell = Json::obj();
            cell.set("key", Json::Str(r.key.clone()));
            // Derived cell seeds span the full u64 range, beyond f64's
            // exact-integer window — emit them as hex strings.
            cell.set("seed", Json::Str(format!("{:#018x}", r.seed)));
            cell.set("makespan_ns", Json::Num(r.makespan as f64));
            cell.set("tasks", Json::Num(r.tasks as f64));
            // Peak task-arena bytes: memory regressions in the GOAL task
            // storage show up as a diff in byte-compared sweep reports.
            cell.set("task_arena_bytes", Json::Num(r.task_arena_bytes as f64));
            if r.mct.count > 0 {
                let mut mct = Json::obj();
                mct.set("mean_ns", Json::Num(r.mct.mean));
                mct.set("p99_ns", Json::Num(r.mct.p99 as f64));
                mct.set("max_ns", Json::Num(r.mct.max as f64));
                mct.set("flows", Json::Num(r.mct.count as f64));
                cell.set("mct", mct);
            }
            if let Some(net) = &r.net {
                let mut n = Json::obj();
                n.set("packets", Json::Num(net.packets_sent as f64));
                n.set("drops", Json::Num(net.drops as f64));
                n.set("trims", Json::Num(net.trims as f64));
                n.set("core_drops", Json::Num(net.core_drops as f64));
                n.set("ecn_marks", Json::Num(net.ecn_marks as f64));
                n.set("retransmissions", Json::Num(net.retransmissions as f64));
                // Injected-fault discards, only for cells whose fault
                // window actually bit: fault-free reports keep their
                // exact historical bytes.
                if net.fault_drops > 0 {
                    n.set("fault_drops", Json::Num(net.fault_drops as f64));
                }
                // Per-packet stochastic realizations, only for cells
                // running a link model: every other cell makes zero
                // draws, so all pre-existing reports keep their exact
                // historical bytes.
                if net.stochastic_draws > 0 {
                    n.set("stochastic_draws", Json::Num(net.stochastic_draws as f64));
                    n.set("stochastic_drops", Json::Num(net.stochastic_drops as f64));
                    n.set("jittered", Json::Num(net.jittered as f64));
                    n.set("rtx_timeout", Json::Num(net.rtx_timeout as f64));
                    n.set("rtx_fault_drop", Json::Num(net.rtx_fault_drop as f64));
                    n.set("payload_bytes", Json::Num(net.payload_bytes as f64));
                    n.set("retransmitted_bytes", Json::Num(net.retransmitted_bytes as f64));
                    n.set("goodput_ppm", Json::Num(net.goodput_ppm() as f64));
                    n.set("rtx_storm_per_kflow", Json::Num(net.rtx_storm_per_kflow() as f64));
                }
                cell.set("net", n);
            }
            // Realized-fault telemetry: what the distributional generator
            // actually produced for this cell. Only distributional
            // regimes set it (see `FaultSpec::distributional`), so every
            // pre-existing cell keeps its exact historical bytes.
            if let Some(tel) = &r.fault {
                let mut f = Json::obj();
                f.set("windows", Json::Num(tel.windows as f64));
                f.set("downtime_ns", Json::Num(tel.downtime_ns as f64));
                f.set("stragglers", Json::Num(tel.stragglers as f64));
                cell.set("fault", f);
            }
            if r.job_finish.len() > 1 {
                cell.set(
                    "job_finish_ns",
                    Json::Arr(r.job_finish.iter().map(|&t| Json::Num(t as f64)).collect()),
                );
            }
            arr.push(cell);
        }
        doc.set("results", Json::Arr(arr));
        doc
    }

    /// CSV: one row per cell, fixed columns, `-` for absent values.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "key,seed,makespan_ns,tasks,mct_mean_ns,mct_p99_ns,mct_max_ns,flows,\
             packets,drops,trims,core_drops\n",
        );
        for r in &self.results {
            let (mean, p99, max, flows) = if r.mct.count > 0 {
                (
                    format!("{:.1}", r.mct.mean),
                    r.mct.p99.to_string(),
                    r.mct.max.to_string(),
                    r.mct.count.to_string(),
                )
            } else {
                ("-".into(), "-".into(), "-".into(), "-".into())
            };
            let (packets, drops, trims, core) = match &r.net {
                Some(n) => (
                    n.packets_sent.to_string(),
                    n.drops.to_string(),
                    n.trims.to_string(),
                    n.core_drops.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{},{},{},{},{mean},{p99},{max},{flows},{packets},{drops},{trims},{core}\n",
                crate::table::csv_field(&r.key),
                r.seed,
                r.makespan,
                r.tasks
            ));
        }
        out
    }

    /// GitHub-flavored markdown table (one row per cell).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| scenario | makespan | tasks | mean MCT | p99 MCT | drops |\n\
             |---|---:|---:|---:|---:|---:|\n",
        );
        for r in &self.results {
            let p99 = if r.mct.count > 0 { fmt_ns(r.mct.p99) } else { "-".into() };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {p99} | {} |\n",
                r.key,
                fmt_ns(r.makespan),
                r.tasks,
                mean_mct(r),
                lost(r),
            ));
        }
        out
    }

    /// Human-readable summary table for terminal output.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(["scenario", "makespan", "tasks", "mean MCT", "drops", "wall"]);
        for r in &self.results {
            t.row([
                r.key.clone(),
                fmt_ns(r.makespan),
                r.tasks.to_string(),
                mean_mct(r),
                lost(r),
                format!("{:.0} ms", r.wall.as_secs_f64() * 1e3),
            ]);
        }
        t
    }
}

/// A cell's mean message completion time for a table, `-` without flows.
fn mean_mct(r: &CellResult) -> String {
    if r.mct.count > 0 {
        fmt_ns(r.mct.mean.round() as u64)
    } else {
        "-".into()
    }
}

/// A cell's dropped plus trimmed packets for a table, `-` off the
/// packet-level backends.
fn lost(r: &CellResult) -> String {
    r.net.map_or("-".into(), |n| (n.drops + n.trims).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BackendFamily, PlacementSpec, ScenarioGrid, TopologySpec, WorkloadSpec};
    use atlahs_htsim::CcAlgo;

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid {
            topologies: vec![
                TopologySpec::SingleSwitch { hosts: 8 },
                TopologySpec::AiFatTree { nodes: 8, oversub: 2 },
            ],
            workloads: vec![
                WorkloadSpec::Ring { ranks: 8, bytes: 64 << 10, laps: 1 },
                WorkloadSpec::Incast { ranks: 5, bytes: 32 << 10, repeat: 1 },
            ],
            ccs: vec![CcAlgo::Mprdma],
            placements: vec![PlacementSpec::Packed],
            backends: vec![BackendFamily::Htsim, BackendFamily::Lgs, BackendFamily::Ideal],
            faults: vec![],
            seed: 9,
            collect_flows: true,
        }
    }

    #[test]
    fn parallel_report_matches_serial_byte_for_byte() {
        let cells = small_grid().expand();
        assert_eq!(cells.len(), 12);
        let serial = SweepReport { seed: 9, results: execute(&cells, 1), branch: None };
        let parallel = SweepReport { seed: 9, results: execute(&cells, 4), branch: None };
        assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn report_formats_are_consistent() {
        let cells = small_grid().expand();
        let report = SweepReport { seed: 9, results: execute(&cells, 2), branch: None };
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some("atlahs-sweep-v1"));
        assert_eq!(json.get("results").unwrap().as_arr().unwrap().len(), 12);
        // The JSON document parses back.
        let text = json.pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
        // CSV: header + one line per cell.
        assert_eq!(report.to_csv().lines().count(), 13);
        // Markdown: header + separator + one row per cell.
        assert_eq!(report.to_markdown().lines().count(), 14);
        assert_eq!(report.summary_table().num_rows(), 12);
    }

    /// Regression: churn fault labels embed the inline event grammar,
    /// whose `,` separators used to shear CSV rows into extra columns.
    /// Cell keys must be RFC 4180-escaped so every data row keeps the
    /// header's arity.
    #[test]
    fn csv_rows_with_churn_labelled_keys_keep_their_arity() {
        let mut grid = small_grid();
        grid.topologies = vec![TopologySpec::AiFatTree { nodes: 8, oversub: 2 }];
        grid.workloads = vec![WorkloadSpec::Ring { ranks: 8, bytes: 64 << 10, laps: 1 }];
        grid.backends = vec![BackendFamily::Htsim];
        grid.faults = vec![crate::scenario::FaultSpec::Churn {
            events: atlahs_core::faultgen::parse_churn_inline("0;0;d,5000;0;u").unwrap(),
        }];
        let cells = grid.expand();
        assert_eq!(cells.len(), 1);
        let report = SweepReport { seed: 9, results: execute(&cells, 1), branch: None };
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let columns = lines.next().unwrap().split(',').count();
        let row = lines.next().unwrap();
        // The whole key field is wrapped in quotes (the comma lives in
        // the churn label suffix).
        assert!(row.starts_with("\"ai-fattree"), "{row}");
        assert!(row.contains("churn:0;0;d,5000;0;u\","), "{row}");
        // Count commas outside quoted fields: arity must match the header.
        let mut in_quotes = false;
        let fields = 1 + row
            .chars()
            .filter(|&c| {
                if c == '"' {
                    in_quotes = !in_quotes;
                }
                c == ',' && !in_quotes
            })
            .count();
        assert_eq!(fields, columns);
    }

    #[test]
    fn htsim_cells_carry_net_stats_lgs_cells_do_not() {
        let cells = small_grid().expand();
        let results = execute(&cells, 2);
        for (cell, result) in cells.iter().zip(&results) {
            match cell.backend {
                crate::scenario::BackendSpec::Htsim { .. } => {
                    assert!(result.net.is_some(), "{}", result.key)
                }
                _ => assert!(result.net.is_none(), "{}", result.key),
            }
            assert!(result.makespan > 0, "{}", result.key);
        }
    }
}
