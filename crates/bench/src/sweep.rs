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
//!
//! ## Branch and continue
//!
//! A branched sweep (`atlahs sweep --branch-at`, [`execute_branched`])
//! simulates a shared prefix once, snapshots, and fans out into N what-if
//! continuations. It reinterprets the grid's fault axis as *branch
//! overrides*: every cell that shares a prefix — same topology,
//! workload, placement, and backend, hence the same derived seed and the
//! same composed schedule — is grouped; the group's simulation runs
//! clean up to the branch time, the backend is
//! [`atlahs_core::Snapshot::checkpoint`]ed and the scheduler driver
//! cloned, and each cell then restores the snapshot, applies its override at the branch
//! point, and runs to completion. Only the post-branch suffix is
//! re-simulated per cell; the prefix is paid once per group (the
//! `prefix_runs` counter in [`BranchStats`], surfaced in the JSON
//! report, is how CI verifies that). The mechanics are
//! [`crate::session`]'s: a group is a session with a branch point and
//! several members.
//!
//! ### Exactness
//!
//! The snapshot path must be invisible: for every cell,
//! [`execute_branched`] and [`run_cell_branched_straight`] (pause at the
//! branch time, apply the override, finish — *no* checkpoint/restore)
//! produce bit-identical [`CellResult`]s. That is the backend
//! [`atlahs_core::Snapshot`] contract, pinned by the tests in
//! [`crate::branch`] and by the `branch_smoke.json` row of the golden
//! table in `tests/golden_table/mod.rs`.
//!
//! Branched results are **not** comparable to a straight sweep of the
//! same faults. Both apply a fault the one way a backend takes one, as an
//! override, but a straight cell applies it at t = 0, before the first
//! task issues, while a branched override clamps every fault window to
//! open no earlier than the branch time and its events enter the queue
//! after the prefix's traffic. The branch answers "what if this failed
//! *from here on*?", not "what if this had been failing all along?".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atlahs_goal::GoalSchedule;

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

/// Shared-prefix work accounting of one branched sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchStats {
    /// The branch time (ns): overrides apply at the first pause at or
    /// after this simulated time.
    pub branch_at: u64,
    /// Shared-prefix groups — and therefore how many times a prefix was
    /// actually simulated. A grid whose cells all differ only in the
    /// fault axis has `prefix_runs` = 1; CI asserts `prefix_runs` <
    /// number of cells on the branch smoke grid.
    pub prefix_runs: usize,
}

/// Run a branched sweep: group cells by shared prefix, simulate each
/// prefix once, and fan each group out into its per-cell continuations.
///
/// Results are in cell order and independent of `threads` (groups
/// parallelize across the claim-index pool; cells within a group run
/// serially against the group's snapshot).
pub fn execute_branched(
    cells: &[ScenarioCell],
    branch_at: u64,
    threads: usize,
) -> (Vec<CellResult>, BranchStats) {
    // Group by everything except the fault axis: topology, workload and
    // seed, placement, and backend — exactly the state the prefix
    // depends on.
    let mut index_of: std::collections::HashMap<(String, u64), usize> =
        std::collections::HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let g = *index_of.entry((cell.prefix_key(), cell.seed)).or_insert(groups.len());
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(i);
    }
    let results = execute_groups(cells, &groups, Some(branch_at), threads);
    (results, BranchStats { branch_at, prefix_runs: groups.len() })
}

/// The straight-through reference for one branched cell: pause at the
/// branch time, apply the override, run to completion — the identical
/// mechanics with **no** checkpoint/restore (a one-member session).
/// [`execute_branched`] must match this bit for bit on every cell.
pub fn run_cell_branched_straight(
    cell: &ScenarioCell,
    jobs: &[Arc<GoalSchedule>],
    branch_at: u64,
) -> CellResult {
    run_members(&[cell], jobs, Some(branch_at)).pop().expect("one member, one result")
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
    /// Set when the sweep ran branched ([`execute_branched`]): records
    /// the branch time and the shared-prefix work actually done, so
    /// reports prove the prefix was simulated per group, not per cell.
    pub branch: Option<BranchStats>,
}

impl SweepReport {
    /// Run `cells` on `threads` workers, straight through or, when
    /// `branch_at` is set (`--branch-at`; 0 = off), branched at that time.
    pub fn run(seed: u64, cells: &[ScenarioCell], branch_at: u64, threads: usize) -> SweepReport {
        let (results, branch) = if branch_at > 0 {
            let (results, stats) = execute_branched(cells, branch_at, threads);
            (results, Some(stats))
        } else {
            (execute(cells, threads), None)
        };
        SweepReport { seed, results, branch }
    }

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
        // work counter; a straight sweep has neither.
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
                n.set("fault_drops", Json::Num(net.fault_drops as f64));
                n.set("stochastic_draws", Json::Num(net.stochastic_draws as f64));
                n.set("stochastic_drops", Json::Num(net.stochastic_drops as f64));
                n.set("jittered", Json::Num(net.jittered as f64));
                n.set("rtx_timeout", Json::Num(net.rtx_timeout as f64));
                n.set("rtx_fault_drop", Json::Num(net.rtx_fault_drop as f64));
                n.set("payload_bytes", Json::Num(net.payload_bytes as f64));
                n.set("retransmitted_bytes", Json::Num(net.retransmitted_bytes as f64));
                n.set("goodput_ppm", Json::Num(net.goodput_ppm() as f64));
                n.set("rtx_storm_per_kflow", Json::Num(net.rtx_storm_per_kflow() as f64));
                cell.set("net", n);
            }
            // Realized-fault telemetry: what a window or straggler fault
            // actually produced for this cell.
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
        let head = "key,seed,makespan_ns,tasks,mct_mean_ns,mct_p99_ns,mct_max_ns,flows,\
                    packets,drops,trims,core_drops";
        let mut t = Table::new(head.split(','));
        let dash = || "-".to_string();
        for r in &self.results {
            let mct = (r.mct.count > 0).then_some(r.mct);
            t.row([
                r.key.clone(),
                r.seed.to_string(),
                r.makespan.to_string(),
                r.tasks.to_string(),
                mct.map_or_else(dash, |m| format!("{:.1}", m.mean)),
                mct.map_or_else(dash, |m| m.p99.to_string()),
                mct.map_or_else(dash, |m| m.max.to_string()),
                mct.map_or_else(dash, |m| m.count.to_string()),
                r.net.map_or_else(dash, |n| n.packets_sent.to_string()),
                r.net.map_or_else(dash, |n| n.drops.to_string()),
                r.net.map_or_else(dash, |n| n.trims.to_string()),
                r.net.map_or_else(dash, |n| n.core_drops.to_string()),
            ]);
        }
        t.csv()
    }

    /// GitHub-flavored markdown table (one row per cell).
    pub fn to_markdown(&self) -> String {
        self.table(false).markdown()
    }

    /// The markdown table plus each cell's wall clock, for the terminal.
    pub fn summary_table(&self) -> Table {
        self.table(true)
    }

    /// One row per cell; `wall` adds the cell's wall-clock column.
    fn table(&self, wall: bool) -> Table {
        let head = ["scenario", "makespan", "tasks", "mean MCT", "p99 MCT", "drops"];
        let mut t = Table::new(head.into_iter().chain(wall.then_some("wall")));
        for r in &self.results {
            let mct = |ns: u64| if r.mct.count > 0 { fmt_ns(ns) } else { "-".into() };
            let cells = [
                r.key.clone(),
                fmt_ns(r.makespan),
                r.tasks.to_string(),
                mct(r.mct.mean.round() as u64),
                mct(r.mct.p99),
                // Dropped plus trimmed packets; `-` off the packet-level backends.
                r.net.map_or("-".into(), |n| (n.drops + n.trims).to_string()),
            ];
            let ms = wall.then(|| format!("{:.0} ms", r.wall.as_secs_f64() * 1e3));
            t.row(cells.into_iter().chain(ms));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BackendFamily, PlacementSpec, ScenarioGrid, WorkloadSpec};
    use crate::spec::TopologySpec;
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
        grid.faults = vec![crate::spec::FaultSpec::parse("churn:0;0;d,5000;0;u").unwrap()];
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

    /// The markdown and CSV bytes of a small flow-recording grid: MCT
    /// columns filled and `-`, net columns filled and `-`, a quoted key.
    #[test]
    fn markdown_and_csv_bytes_are_pinned() {
        let grid = ScenarioGrid {
            topologies: vec![TopologySpec::SingleSwitch { hosts: 4 }],
            workloads: vec![WorkloadSpec::Ring { ranks: 4, bytes: 64 << 10, laps: 1 }],
            ccs: vec![CcAlgo::Mprdma],
            placements: vec![PlacementSpec::Packed],
            backends: vec![BackendFamily::Htsim, BackendFamily::Lgs],
            faults: ["none", "churn:0;0;d,5000;0;u"]
                .map(|f| crate::spec::FaultSpec::parse(f).unwrap())
                .to_vec(),
            seed: 9,
            collect_flows: true,
        };
        let report = SweepReport { seed: 9, results: execute(&grid.expand(), 1), branch: None };
        assert_eq!(
            report.to_markdown(),
            "| scenario | makespan | tasks | mean MCT | p99 MCT | drops |\n\
             |---|---:|---:|---:|---:|---:|\n\
             | switch:4/ring:4:65536:1/packed/htsim-mprdma | 8.20 µs | 12 | 8.00 µs | 8.00 µs | 0 |\n\
             | switch:4/ring:4:65536:1/packed/htsim-mprdma/churn:0;0;d,5000;0;u | 26.86 µs | 12 \
             | 26.66 µs | 26.66 µs | 0 |\n\
             | switch:4/ring:4:65536:1/packed/lgs | 8.20 µs | 12 | - | - | - |\n"
        );
        assert_eq!(
            report.to_csv(),
            "key,seed,makespan_ns,tasks,mct_mean_ns,mct_p99_ns,mct_max_ns,flows,\
             packets,drops,trims,core_drops\n\
             switch:4/ring:4:65536:1/packed/htsim-mprdma,9328889867645612571,8200,12,\
             8000.0,8000,8000,4,64,0,0,0\n\
             \"switch:4/ring:4:65536:1/packed/htsim-mprdma/churn:0;0;d,5000;0;u\",\
             9328889867645612571,26856,12,26656.0,26656,26656,4,100,0,0,0\n\
             switch:4/ring:4:65536:1/packed/lgs,9328889867645612571,8199,12,-,-,-,-,-,-,-,-\n"
        );
    }

    #[test]
    fn htsim_cells_carry_net_stats_lgs_cells_do_not() {
        let cells = small_grid().expand();
        let results = execute(&cells, 2);
        for (cell, result) in cells.iter().zip(&results) {
            match cell.backend {
                crate::spec::BackendSpec::Htsim { .. } => {
                    assert!(result.net.is_some(), "{}", result.key)
                }
                _ => assert!(result.net.is_none(), "{}", result.key),
            }
            assert!(result.makespan > 0, "{}", result.key);
        }
    }
}
