//! Dynamic multi-tenant cluster simulation: jobs arrive over time, queue
//! for nodes, run co-scheduled on a shared fabric, and release their
//! allocation when they finish.
//!
//! The paper's multi-job case study (§3.2, Fig. 13) composes a *static*
//! batch of jobs; this module generalizes it into an online cluster loop:
//!
//! 1. a seeded **arrival process** ([`ArrivalSpec`]: Poisson or an
//!    explicit trace) draws jobs from a workload **catalog**;
//! 2. an **online allocator** ([`atlahs_core::NodePool`]) hands each
//!    admitted job its nodes — packed, random, or round-robin — and
//!    reclaims them at completion, with fragmentation accounting;
//! 3. jobs that do not fit wait in a FIFO or smallest-first queue with
//!    **backfill**: at every release/arrival instant any queued job that
//!    fits the free pool is admitted ([`QueueDiscipline`]);
//! 4. every batch of jobs admitted at the same instant is lowered through
//!    [`atlahs_goal::merge::compose`] and simulated together on the
//!    cell's backend, so co-scheduled tenants contend for the fabric
//!    exactly as in Fig. 13; each multi-job batch member is additionally
//!    simulated *alone on its allocation* to obtain its **interference
//!    slowdown** (co-scheduled completion / solo completion — the Fig. 13
//!    metric, generalized to arbitrary batches).
//!
//! Jobs admitted at different instants occupy disjoint node sets and are
//! simulated in separate backend instances; cross-batch fabric
//! interference is deliberately not modeled (documented in
//! docs/SCENARIOS.md), which keeps every cell a deterministic function of
//! its spec — the JSON report is byte-identical across `--threads 1` vs
//! `N` and across re-runs, like the sweep engine's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

use atlahs_core::faultgen;
use atlahs_core::{NodePool, SimReport};
use atlahs_goal::merge::{compose, PlacedJob, MAX_JOBS};
use atlahs_goal::{GoalSchedule, Rank};
use atlahs_htsim::CcAlgo;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::json::Json;
use crate::scenario::{
    backend_faults, by_name, cell_seed, name_of, num, too_wide, unique, unknown, BackendFamily,
    BackendSpec, FaultSpec, PlacementSpec, TopologySpec, WorkloadSpec,
};
use crate::session::{self, Session};
use crate::sweep::{parallel_map, report_head, resolve_threads};
use crate::table::Table;

// ------------------------------------------------------------ arrivals ----

/// How jobs arrive at the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalSpec {
    /// `jobs` arrivals with exponentially distributed inter-arrival gaps
    /// of mean `mean_gap_ns` (a Poisson process), drawn from the cell
    /// seed.
    Poisson { jobs: usize, mean_gap_ns: u64 },
    /// An explicit arrival trace: job `i` arrives at `times_ns[i]`
    /// (sorted ascending at parse/construction time).
    Trace { times_ns: Vec<u64> },
}

impl ArrivalSpec {
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Poisson { jobs, mean_gap_ns } => format!("poisson:{jobs}:{mean_gap_ns}"),
            ArrivalSpec::Trace { times_ns } => {
                let ts: Vec<String> = times_ns.iter().map(|t| t.to_string()).collect();
                format!("trace:{}", ts.join(";"))
            }
        }
    }

    /// Number of jobs this process generates.
    pub fn num_jobs(&self) -> usize {
        match self {
            ArrivalSpec::Poisson { jobs, .. } => *jobs,
            ArrivalSpec::Trace { times_ns } => times_ns.len(),
        }
    }

    /// Materialize the absolute arrival times (ns, ascending). Poisson
    /// draws are a deterministic function of `seed`.
    pub fn times(&self, seed: u64) -> Vec<u64> {
        match self {
            ArrivalSpec::Trace { times_ns } => times_ns.clone(),
            ArrivalSpec::Poisson { jobs, mean_gap_ns } => {
                let mut rng = StdRng::seed_from_u64(cell_seed(seed, "cluster-arrivals"));
                let mut t = 0u64;
                let mut out = Vec::with_capacity(*jobs);
                for _ in 0..*jobs {
                    // Inverse-CDF exponential: u in [0,1) so 1-u in (0,1]
                    // keeps ln finite.
                    let u: f64 = rng.random();
                    let gap = (-(1.0 - u).ln() * *mean_gap_ns as f64).round();
                    t += gap as u64;
                    out.push(t);
                }
                out
            }
        }
    }

    /// The token forms: what an unknown token's error and `atlahs list`
    /// print.
    pub const GRAMMAR: &'static str = "poisson:<jobs>:<mean_gap_ns>\ntrace:<t0>;<t1>;…";

    /// Parse a CLI token (docs/SCENARIOS.md).
    pub fn parse(tok: &str) -> Result<ArrivalSpec, String> {
        let parts: Vec<&str> = tok.split(':').collect();
        match parts.as_slice() {
            ["poisson", jobs, gap] => match num(tok, jobs)? {
                0 => Err(format!("arrivals `{tok}`: a Poisson process needs at least 1 job")),
                jobs => Ok(ArrivalSpec::Poisson { jobs, mean_gap_ns: num(tok, gap)? }),
            },
            ["trace", times] => {
                let times = times.split(';').filter(|t| !t.is_empty());
                let mut times_ns = times.map(|t| num(tok, t)).collect::<Result<Vec<u64>, _>>()?;
                if times_ns.is_empty() {
                    return Err(format!("arrivals `{tok}`: empty trace"));
                }
                times_ns.sort_unstable();
                Ok(ArrivalSpec::Trace { times_ns })
            }
            _ => Err(unknown("arrivals", tok, Self::GRAMMAR)),
        }
    }
}

// --------------------------------------------------------------- queue ----

/// Order in which the backfilling admission scan considers queued jobs.
/// Any considered job that fits the free pool is admitted (backfill), so
/// the discipline is a *preference*, not a strict gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Arrival order.
    Fifo,
    /// Fewest nodes first (ties broken by arrival order): small jobs slip
    /// into fragments ahead of wide ones.
    SmallestFirst,
}

impl QueueDiscipline {
    pub const NAMES: [(&'static str, QueueDiscipline); 2] =
        [("fifo", QueueDiscipline::Fifo), ("smallest", QueueDiscipline::SmallestFirst)];

    pub fn label(&self) -> &'static str {
        name_of(&Self::NAMES, self)
    }

    pub fn parse(tok: &str) -> Result<QueueDiscipline, String> {
        by_name("queue discipline", &Self::NAMES, tok)
    }
}

/// The admission scan order for the current queue (indices into `queue`).
/// Exposed for testing: the engine admits greedily in this order.
pub fn admission_order(
    queue: &[usize],
    discipline: QueueDiscipline,
    ranks_of: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut order: Vec<usize> = queue.to_vec();
    if discipline == QueueDiscipline::SmallestFirst {
        order.sort_by_key(|&job| (ranks_of(job), job));
    }
    order
}

// --------------------------------------------------------------- fault ----

/// Seeded job-level failure injection: the job scope of the fault axis
/// ([`FaultSpec::Job`]), parsed and decided here, next to the only engine
/// with a job lifecycle to fail.
///
/// A failed attempt occupies the job's allocation for a fraction of the
/// simulated run time, then releases its nodes and re-queues the job
/// through the ordinary admission scan — so failures interact with
/// queueing, backfill, and fragmentation exactly like real departures
/// and re-arrivals. Whether attempt `k` of job `j` fails is a pure FNV
/// hash of `(fault seed, j, k)`: no RNG stream is consumed, so a
/// fault-free cell leaves every other seeded draw untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFaultSpec {
    /// Each attempt fails with probability `pct`% (first `retries`
    /// attempts only — attempt `retries` always succeeds, bounding every
    /// job's restart count). A failed attempt holds its nodes for
    /// `at_pct`% of its simulated duration before releasing them.
    JobFail { pct: u32, at_pct: u32, retries: u32 },
    /// MTBF process: each attempt draws a seeded exponential
    /// time-to-failure with mean `mtbf_ns`
    /// ([`atlahs_core::faultgen::exp_sample`]) and fails iff the draw
    /// lands inside its run — so long jobs fail more often, and a failed
    /// attempt holds its nodes exactly until the failure instant. The
    /// first `retries` attempts may fail; attempt `retries` always runs
    /// to completion.
    Mtbf { mtbf_ns: u64, retries: u32 },
}

impl JobFaultSpec {
    pub fn label(&self) -> String {
        match self {
            JobFaultSpec::JobFail { pct, at_pct, retries } => {
                format!("jobfail:{pct}:{at_pct}:{retries}")
            }
            JobFaultSpec::Mtbf { mtbf_ns, retries } => format!("mtbf:{mtbf_ns}:{retries}"),
        }
    }

    /// Parse a `jobfail:` / `mtbf:` token. Returns `None` when the token
    /// is not from this family (so [`FaultSpec::parse`] can fall
    /// through), `Some(Err(..))` when it is but is malformed or
    /// degenerate. Percentages clamp to 100.
    pub fn parse(tok: &str) -> Option<Result<JobFaultSpec, String>> {
        let parts: Vec<&str> = tok.split(':').collect();
        let parsed = match parts.as_slice() {
            ["jobfail", pct, at_pct, retries] => Self::jobfail(tok, pct, at_pct, retries),
            ["mtbf", mtbf, retries] => Self::mtbf(tok, mtbf, retries),
            ["jobfail" | "mtbf", ..] => Err(format!(
                "fault `{tok}`: expected jobfail:<pct>:<at_pct>:<retries> or \
                 mtbf:<mtbf_ns>:<retries>"
            )),
            _ => return None,
        };
        Some(parsed)
    }

    fn jobfail(tok: &str, pct: &str, at_pct: &str, retries: &str) -> Result<Self, String> {
        Ok(JobFaultSpec::JobFail {
            pct: num::<u32>(tok, pct)?.min(100),
            at_pct: num::<u32>(tok, at_pct)?.min(100),
            retries: num(tok, retries)?,
        })
    }

    fn mtbf(tok: &str, mtbf: &str, retries: &str) -> Result<Self, String> {
        let mtbf_ns: u64 = num(tok, mtbf)?;
        if mtbf_ns == 0 {
            return Err(format!("fault `{tok}`: the mean time between failures must be >= 1 ns"));
        }
        Ok(JobFaultSpec::Mtbf { mtbf_ns, retries: num(tok, retries)? })
    }

    /// Does attempt `attempt` (0-based) of job `job` fail, and if so, how
    /// long does it occupy its allocation before releasing? `None` means
    /// the attempt runs to completion. Deterministic in
    /// `(seed, job, attempt, duration_ns)`; attempts at or past the retry
    /// bound always succeed, so every job eventually completes, and a
    /// failed attempt holds its nodes for at least 1 ns, so it is always
    /// a distinct simulation instant.
    pub fn failure_at(&self, seed: u64, job: usize, attempt: u32, duration_ns: u64) -> Option<u64> {
        let (JobFaultSpec::JobFail { retries, .. } | JobFaultSpec::Mtbf { retries, .. }) = *self;
        if attempt >= retries {
            return None;
        }
        match *self {
            JobFaultSpec::JobFail { pct, at_pct, .. } => {
                let parts: [&[u8]; 2] = [&(job as u64).to_le_bytes(), &attempt.to_le_bytes()];
                let fails = faultgen::fnv_fold(seed, &parts) % 100 < pct as u64;
                fails.then(|| (duration_ns.saturating_mul(at_pct as u64) / 100).max(1))
            }
            JobFaultSpec::Mtbf { mtbf_ns, .. } => {
                let n = ((job as u64) << 32) | attempt as u64;
                let ttf = faultgen::exp_sample(mtbf_ns, faultgen::fnv_draw(seed, "mtbf", n));
                (ttf < duration_ns).then(|| ttf.max(1))
            }
        }
    }
}

// ---------------------------------------------------------------- spec ----

/// One fully specified dynamic cluster scenario: a deterministic
/// simulation of a job stream over a shared fabric.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub topology: TopologySpec,
    /// The workload catalog arrivals draw from (seeded uniform choice).
    pub catalog: Vec<WorkloadSpec>,
    pub arrivals: ArrivalSpec,
    pub placement: PlacementSpec,
    pub backend: BackendSpec,
    pub queue: QueueDiscipline,
    /// The fault regime: [`FaultSpec::None`], a job-scope failure process
    /// ([`FaultSpec::Job`]) or per-packet link noise
    /// ([`FaultSpec::Stochastic`], applied inside every packet-level
    /// simulation of the cell — batches and solo baselines alike; jobs
    /// never restart, the noise shows up as longer simulated runs).
    /// Nothing else ([`FaultSpec::in_cluster`]).
    pub fault: FaultSpec,
    /// Cell seed: drives arrival draws, catalog choice, workload
    /// generation, random placement, and packet-level RNG.
    pub seed: u64,
}

impl ClusterSpec {
    /// Canonical cell key:
    /// `topology/arrivals/queue/placement/backend[/fault]` — the fault
    /// segment appears only for faulted cells, so fault-free keys (and
    /// goldens) are byte-identical to a build without the fault axis.
    pub fn key(&self) -> String {
        self.fault.keyed(format!(
            "{}/{}/{}/{}/{}",
            self.topology.label(),
            self.arrivals.label(),
            self.queue.label(),
            self.placement.label(),
            self.backend.label()
        ))
    }
}

// ------------------------------------------------------------- outcome ----

/// Everything the engine records about one job's life in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Arrival-order id (job 0 arrives first).
    pub id: usize,
    /// Label of the catalog workload this job instantiated.
    pub workload: String,
    /// Nodes the job occupies.
    pub ranks: usize,
    pub arrival_ns: u64,
    /// Admission instant of the *successful* attempt (allocation +
    /// simulation start).
    pub start_ns: u64,
    /// Total queueing delay across all attempts. Equals
    /// `start_ns - arrival_ns` for a job that never failed.
    pub wait_ns: u64,
    /// Simulated run time on its allocation, co-scheduled with its batch
    /// (successful attempt only).
    pub duration_ns: u64,
    /// Absolute completion: `start_ns + duration_ns`.
    pub finish_ns: u64,
    /// Turnaround: `finish_ns - arrival_ns` =
    /// `wait_ns + failed_ns + duration_ns`.
    pub completion_ns: u64,
    /// Number of failed attempts before the successful one (0 without a
    /// fault spec).
    pub restarts: u32,
    /// Total node-holding time burned by failed attempts.
    pub failed_ns: u64,
    /// Run time of the same job simulated alone on the same allocation.
    pub solo_ns: u64,
    /// Interference slowdown: `duration_ns / solo_ns` (1.0 for a batch of
    /// one, and on contention-free backends with disjoint placements).
    pub slowdown: f64,
    /// The allocated nodes.
    pub nodes: Vec<Rank>,
    /// Admission-batch index (jobs sharing it were simulated together).
    pub batch: usize,
}

/// Aggregate fragmentation accounting over a cluster run: the free pool
/// is snapshotted after every admission batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragSummary {
    /// Most free extents ever observed.
    pub peak_extents: usize,
    /// Mean fragmentation index (see [`atlahs_core::FragStats::index`]).
    pub mean_index: f64,
}

/// A finished cluster cell.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    pub key: String,
    pub seed: u64,
    /// Per-job records in arrival order.
    pub jobs: Vec<JobOutcome>,
    /// Completion of the last job (ns).
    pub makespan_ns: u64,
    /// Number of admission batches.
    pub batches: usize,
    /// Deepest the queue ever got.
    pub peak_queue: usize,
    /// Node-time utilization: busy node-ns / (cluster nodes × makespan).
    pub utilization: f64,
    pub frag: FragSummary,
    /// Realized-fault telemetry; `Some` only for faulted cells.
    pub fault: Option<ClusterFaultTelemetry>,
    /// Host wall-clock cost (not part of the JSON report).
    pub wall: Duration,
}

/// What the failure process actually did to one cluster cell: the
/// aggregate of the per-job restart records, surfaced at cell level so a
/// report is auditable at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterFaultTelemetry {
    /// Failed attempts across all jobs.
    pub restarts: u64,
    /// Total node-holding time burned by failed attempts (ns).
    pub failed_ns: u64,
}

impl ClusterOutcome {
    pub fn mean_wait_ns(&self) -> f64 {
        mean(self.jobs.iter().map(|j| j.wait_ns as f64))
    }

    pub fn mean_slowdown(&self) -> f64 {
        mean(self.jobs.iter().map(|j| j.slowdown))
    }

    pub fn max_slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.slowdown).fold(0.0, f64::max)
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in it {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

// -------------------------------------------------------------- engine ----

/// Run one dynamic cluster cell. Deterministic: the result is a pure
/// function of `spec`, independent of `threads` (which only parallelizes
/// the independent simulations within each admission instant).
pub fn run_cluster(spec: &ClusterSpec, threads: usize) -> ClusterOutcome {
    let t0 = std::time::Instant::now();
    let hosts = spec.topology.hosts();
    assert!(!spec.catalog.is_empty(), "cluster: empty workload catalog");
    if let Err(why) = spec.fault.clone().in_cluster() {
        panic!("cluster: {why} (the CLI refuses these)");
    }
    for w in &spec.catalog {
        assert!(
            w.ranks() <= hosts,
            "cluster: workload {} needs {} ranks but {} has {hosts} hosts \
             (grid expansion filters these)",
            w.label(),
            w.ranks(),
            spec.topology.label()
        );
    }

    // The job stream: arrival times and catalog picks, both seeded.
    let arrival_times = spec.arrivals.times(spec.seed);
    let mut pick_rng = StdRng::seed_from_u64(cell_seed(spec.seed, "cluster-catalog"));
    let picks: Vec<usize> =
        arrival_times.iter().map(|_| pick_rng.random_range(0..spec.catalog.len())).collect();

    // Lower every job's GOAL up front (parallel; deterministic per-job
    // seeds, so two jobs from the same catalog entry are distinct
    // instances — e.g. distinct uniform-random traffic draws).
    let job_ids: Vec<usize> = (0..arrival_times.len()).collect();
    let goals: Vec<Arc<GoalSchedule>> = parallel_map(&job_ids, threads.max(1), |&id| {
        let w = &spec.catalog[picks[id]];
        let seed = cell_seed(spec.seed, &format!("cluster-job:{id}:{}", w.label()));
        let mut built = w.build_jobs(seed);
        assert_eq!(built.len(), 1, "catalog entries must be single-job workloads");
        let goal = built.pop().expect("one schedule");
        // A zero-task job would run for 0 ns and hold nodes forever-free
        // semantics hostage; the CLI grammar rejects these at parse time,
        // so reaching here means a programmatic spec bug.
        assert!(
            goal.total_tasks() > 0,
            "cluster: workload {} generated an empty schedule; cluster jobs must do work",
            w.label()
        );
        goal
    });

    let mut pool = NodePool::new(spec.placement.strategy(spec.seed), hosts);
    let mut queue: Vec<usize> = Vec::new();
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; arrival_times.len()];
    let mut arr_ptr = 0usize;
    let mut batches = 0usize;
    let mut peak_queue = 0usize;
    let mut peak_extents = 0usize;
    let mut frag_sum = 0.0f64;
    let mut busy_node_ns = 0u64;

    // Per-job failure/restart state. All identically zero (and all
    // branches on them dead) without a job-scope fault, so a failure-free
    // cell runs the exact event sequence it always has.
    let job_fault = match spec.fault {
        FaultSpec::Job(process) => Some(process),
        _ => None,
    };
    let fault_seed = cell_seed(spec.seed, "cluster-fault");
    let mut attempts: Vec<u32> = vec![0; arrival_times.len()];
    let mut failed_acc_ns: Vec<u64> = vec![0; arrival_times.len()];
    let mut wait_acc_ns: Vec<u64> = vec![0; arrival_times.len()];
    // When the job last became runnable: arrival, or the end of a failed
    // attempt after it re-queues.
    let mut ready_ns: Vec<u64> = arrival_times.clone();
    // Allocation of the in-flight attempt (released when it leaves the
    // running set, whether it completed or failed).
    let mut cur_nodes: Vec<Vec<Rank>> = vec![Vec::new(); arrival_times.len()];
    let mut cur_failed: Vec<bool> = vec![false; arrival_times.len()];

    loop {
        // Next instant anything changes: a completion or an arrival.
        let next_finish = running.peek().map(|&Reverse((t, _))| t);
        let next_arrival = arrival_times.get(arr_ptr).copied();
        let t = match (next_finish, next_arrival) {
            (Some(f), Some(a)) => f.min(a),
            (Some(f), None) => f,
            (None, Some(a)) => a,
            (None, None) => break,
        };

        // Completions first, so freed nodes can be re-allocated to jobs
        // arriving at the very same instant. A failed attempt releases
        // its nodes exactly like a completion, then re-queues the job —
        // ahead of any new arrivals at the same instant (it has been
        // waiting longer).
        while let Some(&Reverse((f, job))) = running.peek() {
            if f > t {
                break;
            }
            running.pop();
            pool.release(&cur_nodes[job]);
            cur_nodes[job].clear();
            if cur_failed[job] {
                cur_failed[job] = false;
                queue.push(job);
            }
        }
        while arr_ptr < arrival_times.len() && arrival_times[arr_ptr] <= t {
            queue.push(arr_ptr);
            arr_ptr += 1;
        }

        // Backfilling admission: scan in discipline order, admit whatever
        // fits the free pool right now. One batch holds at most MAX_JOBS
        // jobs (compose's tag-namespace bound); any overflow simply stays
        // queued for the next instant.
        let order = admission_order(&queue, spec.queue, |job| goals[job].num_ranks());
        let mut batch: Vec<(usize, Arc<GoalSchedule>, Vec<Rank>)> = Vec::new();
        for job in order {
            if batch.len() == MAX_JOBS {
                break;
            }
            if let Some(nodes) = pool.alloc(goals[job].num_ranks()) {
                batch.push((job, Arc::clone(&goals[job]), nodes));
            }
        }
        queue.retain(|job| !batch.iter().any(|(j, _, _)| j == job));
        // Queue depth after admission: only jobs that must actually wait.
        peak_queue = peak_queue.max(queue.len());
        if batch.is_empty() {
            continue;
        }

        let frag = pool.frag();
        peak_extents = peak_extents.max(frag.extents);
        frag_sum += frag.index();
        let batch_idx = batches;
        batches += 1;

        // Simulate the composed batch, plus — when it has company — each
        // member alone on its allocation (the slowdown baseline; a batch
        // of one). All independent single-threaded sims: parallelize
        // across them.
        let mut sims = vec![(&batch[..], format!("batch:{batch_idx}"))];
        if batch.len() > 1 {
            sims.extend(batch.iter().map(|m| (std::slice::from_ref(m), format!("solo:{}", m.0))));
        }
        let reports: Vec<SimReport> = parallel_map(&sims, threads.max(1), |(members, sim)| {
            let placed: Vec<PlacedJob<'_>> =
                members.iter().map(|(_, g, nodes)| PlacedJob::new(g, nodes.clone())).collect();
            let merged = compose(&placed, hosts).expect("pool allocations are disjoint");
            simulate(spec, &merged, cell_seed(spec.seed, sim))
        });

        for (i, (job, goal, nodes)) in batch.iter().enumerate() {
            let duration = reports[0].job_finish(nodes);
            let solo = if batch.len() > 1 { reports[1 + i].job_finish(nodes) } else { duration };
            assert!(solo > 0, "a non-empty job must take time");
            wait_acc_ns[*job] += t - ready_ns[*job];
            cur_nodes[*job] = nodes.clone();
            let failure =
                job_fault.and_then(|f| f.failure_at(fault_seed, *job, attempts[*job], duration));
            if let Some(occupied) = failure {
                // Failed attempt: hold the allocation until the failure
                // instant, then release and re-queue (handled when this
                // entry pops off `running`).
                attempts[*job] += 1;
                failed_acc_ns[*job] += occupied;
                busy_node_ns += occupied * goal.num_ranks() as u64;
                ready_ns[*job] = t + occupied;
                cur_failed[*job] = true;
                running.push(Reverse((t + occupied, *job)));
                continue;
            }
            let w = &spec.catalog[picks[*job]];
            busy_node_ns += duration * goal.num_ranks() as u64;
            running.push(Reverse((t + duration, *job)));
            outcomes[*job] = Some(JobOutcome {
                id: *job,
                workload: w.label(),
                ranks: goal.num_ranks(),
                arrival_ns: arrival_times[*job],
                start_ns: t,
                wait_ns: wait_acc_ns[*job],
                duration_ns: duration,
                finish_ns: t + duration,
                completion_ns: t + duration - arrival_times[*job],
                solo_ns: solo,
                slowdown: duration as f64 / solo as f64,
                restarts: attempts[*job],
                failed_ns: failed_acc_ns[*job],
                nodes: nodes.clone(),
                batch: batch_idx,
            });
        }
    }

    let jobs: Vec<JobOutcome> =
        outcomes.into_iter().map(|o| o.expect("every arrived job eventually runs")).collect();
    let makespan_ns = jobs.iter().map(|j| j.finish_ns).max().unwrap_or(0);
    let utilization = if makespan_ns == 0 {
        0.0
    } else {
        busy_node_ns as f64 / (hosts as f64 * makespan_ns as f64)
    };
    // Restart telemetry only makes sense for job-failure processes;
    // stochastic link noise never restarts anything — its realizations
    // show up in the simulated durations instead.
    let fault = job_fault.map(|_| ClusterFaultTelemetry {
        restarts: jobs.iter().map(|j| j.restarts as u64).sum(),
        failed_ns: jobs.iter().map(|j| j.failed_ns).sum(),
    });
    ClusterOutcome {
        key: spec.key(),
        seed: spec.seed,
        jobs,
        makespan_ns,
        batches,
        peak_queue,
        utilization,
        fault,
        frag: FragSummary {
            peak_extents,
            mean_index: if batches == 0 { 0.0 } else { frag_sum / batches as f64 },
        },
        wall: t0.elapsed(),
    }
}

/// Run a composed schedule on the cell's backend: a straight
/// [`session`] that keeps only the report. The cell's fault lowers like a
/// sweep cell's (the job scope lowers to nothing: no single simulation
/// sees a job fail) — a link model's draw-stream seed derives from this
/// *simulation's* seed, so every batch and every solo baseline
/// experiences its own loss/jitter realization and no two sims share a
/// stream.
fn simulate(spec: &ClusterSpec, goal: &GoalSchedule, sim_seed: u64) -> SimReport {
    let session = Session {
        topology: &spec.topology,
        backend: spec.backend,
        seed: sim_seed,
        collect_flows: false,
    };
    let outcome = session::run(&session, goal, None, &[&spec.fault]).pop();
    outcome.expect("one member, one outcome").report
}

// ---------------------------------------------------------------- grid ----

/// A declarative cluster grid: one fabric and catalog, crossed over
/// arrival processes × queue disciplines × placements × backends — the
/// sweepable axes of the dynamic engine.
#[derive(Debug, Clone)]
pub struct ClusterGrid {
    pub topology: TopologySpec,
    pub catalog: Vec<WorkloadSpec>,
    pub arrivals: Vec<ArrivalSpec>,
    pub queues: Vec<QueueDiscipline>,
    pub placements: Vec<PlacementSpec>,
    pub ccs: Vec<CcAlgo>,
    pub backends: Vec<BackendFamily>,
    /// Fault axis ([`FaultSpec::in_cluster`] values); an empty list means
    /// a single fault-free regime, so existing grids expand to exactly
    /// the cells they always have.
    pub faults: Vec<FaultSpec>,
    pub seed: u64,
}

impl ClusterGrid {
    /// Expand to concrete cells (every key once), also returning the
    /// catalog workloads dropped because they are wider than the fabric.
    pub fn expand_counted(&self) -> (Vec<ClusterSpec>, Vec<String>) {
        let hosts = self.topology.hosts();
        let (catalog, wide): (Vec<WorkloadSpec>, _) =
            self.catalog.iter().cloned().partition(|w| w.ranks() <= hosts);
        let dropped = wide.iter().map(|w| too_wide(w, &self.topology, hosts)).collect();
        if catalog.is_empty() {
            return (Vec::new(), dropped);
        }
        let mut cells = Vec::new();
        let queues = unique(&self.queues, |q| **q);
        let placements = unique(&self.placements, |p| **p);
        let regimes = backend_faults(&self.backends, &self.ccs, &self.faults);
        for arrivals in unique(&self.arrivals, |a| a.label()) {
            // One seed per grid: cells differing only in queue/placement/
            // backend/fault simulate the same arrival stream and job
            // instances, so rows are directly comparable (and the fault
            // axis never perturbs seeds).
            let seed = cell_seed(self.seed, &arrivals.label());
            for queue in &queues {
                for placement in &placements {
                    for &(backend, fault) in &regimes {
                        cells.push(ClusterSpec {
                            topology: self.topology.clone(),
                            catalog: catalog.clone(),
                            arrivals: arrivals.clone(),
                            placement: **placement,
                            backend,
                            queue: **queue,
                            fault: fault.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        (cells, dropped)
    }
}

/// Run every cell of a cluster grid. Cells are independent; a single
/// cell parallelizes its per-instant simulations instead.
pub fn run_grid(cells: &[ClusterSpec], threads: usize) -> Vec<ClusterOutcome> {
    let threads = resolve_threads(threads);
    if cells.len() == 1 {
        vec![run_cluster(&cells[0], threads)]
    } else {
        parallel_map(cells, threads, |cell| run_cluster(cell, 1))
    }
}

// -------------------------------------------------------------- report ----

/// A finished cluster sweep: grid seed plus per-cell outcomes.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub seed: u64,
    pub results: Vec<ClusterOutcome>,
}

/// Round for report emission: keeps goldens tidy while staying a
/// deterministic function of the value.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

impl ClusterReport {
    /// The deterministic JSON report: simulation outcomes only (no
    /// wall-clock), byte-identical across thread counts and re-runs.
    pub fn to_json(&self) -> Json {
        let mut doc = report_head("atlahs-cluster-v1", self.seed, self.results.len());
        let mut arr = Vec::with_capacity(self.results.len());
        for r in &self.results {
            let mut cell = Json::obj();
            cell.set("key", Json::Str(r.key.clone()));
            cell.set("seed", Json::Str(format!("{:#018x}", r.seed)));
            cell.set("makespan_ns", Json::Num(r.makespan_ns as f64));
            cell.set("batches", Json::Num(r.batches as f64));
            cell.set("peak_queue", Json::Num(r.peak_queue as f64));
            cell.set("utilization", Json::Num(round4(r.utilization)));
            cell.set("mean_wait_ns", Json::Num(r.mean_wait_ns().round()));
            cell.set("mean_slowdown", Json::Num(round4(r.mean_slowdown())));
            let mut frag = Json::obj();
            frag.set("peak_extents", Json::Num(r.frag.peak_extents as f64));
            frag.set("mean_index", Json::Num(round4(r.frag.mean_index)));
            cell.set("frag", frag);
            // Realized-fault telemetry, faulted cells only: fault-free
            // reports keep their exact historical bytes.
            if let Some(tel) = &r.fault {
                let mut f = Json::obj();
                f.set("restarts", Json::Num(tel.restarts as f64));
                f.set("failed_ns", Json::Num(tel.failed_ns as f64));
                cell.set("fault", f);
            }
            let mut jobs = Vec::with_capacity(r.jobs.len());
            for j in &r.jobs {
                let mut job = Json::obj();
                job.set("id", Json::Num(j.id as f64));
                job.set("workload", Json::Str(j.workload.clone()));
                job.set("ranks", Json::Num(j.ranks as f64));
                job.set("arrival_ns", Json::Num(j.arrival_ns as f64));
                job.set("start_ns", Json::Num(j.start_ns as f64));
                job.set("wait_ns", Json::Num(j.wait_ns as f64));
                job.set("duration_ns", Json::Num(j.duration_ns as f64));
                job.set("finish_ns", Json::Num(j.finish_ns as f64));
                job.set("completion_ns", Json::Num(j.completion_ns as f64));
                job.set("solo_ns", Json::Num(j.solo_ns as f64));
                job.set("slowdown", Json::Num(round4(j.slowdown)));
                // Restart accounting only for jobs that actually failed:
                // failure-free reports stay byte-identical to builds
                // without the fault axis.
                if j.restarts > 0 {
                    job.set("restarts", Json::Num(j.restarts as f64));
                    job.set("failed_ns", Json::Num(j.failed_ns as f64));
                }
                job.set("nodes", Json::Arr(j.nodes.iter().map(|&n| Json::Num(n as f64)).collect()));
                job.set("batch", Json::Num(j.batch as f64));
                jobs.push(job);
            }
            cell.set("jobs", Json::Arr(jobs));
            arr.push(cell);
        }
        doc.set("results", Json::Arr(arr));
        doc
    }

    /// CSV: one row per (cell, job).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "key,job,workload,ranks,arrival_ns,start_ns,wait_ns,duration_ns,finish_ns,\
             solo_ns,slowdown,batch\n",
        );
        for r in &self.results {
            for j in &r.jobs {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{:.4},{}\n",
                    crate::table::csv_field(&r.key),
                    j.id,
                    crate::table::csv_field(&j.workload),
                    j.ranks,
                    j.arrival_ns,
                    j.start_ns,
                    j.wait_ns,
                    j.duration_ns,
                    j.finish_ns,
                    j.solo_ns,
                    j.slowdown,
                    j.batch
                ));
            }
        }
        out
    }

    /// GitHub-flavored markdown: one row per cell.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| scenario | jobs | makespan | mean wait | mean slowdown | max slowdown | util |\n\
             |---|---:|---:|---:|---:|---:|---:|\n",
        );
        for r in &self.results {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.3} | {:.3} | {:.0}% |\n",
                r.key,
                r.jobs.len(),
                crate::table::fmt_ns(r.makespan_ns),
                crate::table::fmt_ns(r.mean_wait_ns().round() as u64),
                r.mean_slowdown(),
                r.max_slowdown(),
                r.utilization * 100.0,
            ));
        }
        out
    }

    /// Human-readable summary table for terminal output.
    pub fn summary_table(&self) -> Table {
        let mut t =
            Table::new(["scenario", "jobs", "makespan", "mean wait", "slowdown", "util", "wall"]);
        for r in &self.results {
            t.row([
                r.key.clone(),
                r.jobs.len().to_string(),
                crate::table::fmt_ns(r.makespan_ns),
                crate::table::fmt_ns(r.mean_wait_ns().round() as u64),
                format!("{:.3}", r.mean_slowdown()),
                format!("{:.0}%", r.utilization * 100.0),
                format!("{:.0} ms", r.wall.as_secs_f64() * 1e3),
            ]);
        }
        t
    }

    /// Total simulated-cell wall-clock.
    pub fn total_cell_wall(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobfail(pct: u32, at_pct: u32, retries: u32) -> FaultSpec {
        FaultSpec::Job(JobFaultSpec::JobFail { pct, at_pct, retries })
    }

    fn small_spec(placement: PlacementSpec, backend: BackendSpec) -> ClusterSpec {
        ClusterSpec {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            catalog: vec![
                WorkloadSpec::Ring { ranks: 4, bytes: 32 << 10, laps: 1 },
                WorkloadSpec::Incast { ranks: 3, bytes: 16 << 10, repeat: 1 },
            ],
            arrivals: ArrivalSpec::Poisson { jobs: 8, mean_gap_ns: 50_000 },
            placement,
            backend,
            queue: QueueDiscipline::Fifo,
            fault: FaultSpec::None,
            seed: 9,
        }
    }

    #[test]
    fn arrival_specs_roundtrip_and_are_seeded() {
        for tok in ["poisson:10:500000", "trace:0;1000;2500"] {
            let spec = ArrivalSpec::parse(tok).unwrap();
            assert_eq!(spec.label(), tok);
        }
        assert!(ArrivalSpec::parse("poisson:x:1").is_err());
        assert!(ArrivalSpec::parse("burst:3").is_err());
        assert!(ArrivalSpec::parse("trace:").is_err());

        let p = ArrivalSpec::Poisson { jobs: 100, mean_gap_ns: 10_000 };
        let a = p.times(1);
        let b = p.times(1);
        let c = p.times(2);
        assert_eq!(a, b, "same seed, same arrival stream");
        assert_ne!(a, c, "different seed, different stream");
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        // The empirical mean gap should be within 3x of the nominal one.
        let mean_gap = *a.last().unwrap() as f64 / 100.0;
        assert!((3_000.0..30_000.0).contains(&mean_gap), "{mean_gap}");

        // Trace times are sorted at parse time and reproduced verbatim.
        let t = ArrivalSpec::parse("trace:5;1;9").unwrap();
        assert_eq!(t, ArrivalSpec::Trace { times_ns: vec![1, 5, 9] });
        assert_eq!(t.times(123), vec![1, 5, 9], "trace ignores the seed");
    }

    #[test]
    fn admission_order_disciplines() {
        // Jobs 0..=2 with ranks 6, 4, 2.
        let ranks = [6usize, 4, 2];
        let queue = vec![0usize, 1, 2];
        assert_eq!(admission_order(&queue, QueueDiscipline::Fifo, |j| ranks[j]), vec![0, 1, 2]);
        assert_eq!(
            admission_order(&queue, QueueDiscipline::SmallestFirst, |j| ranks[j]),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn cluster_run_is_deterministic_across_threads_and_reruns() {
        let spec = small_spec(PlacementSpec::Packed, BackendSpec::Lgs);
        let a = run_cluster(&spec, 1);
        let b = run_cluster(&spec, 4);
        let c = run_cluster(&spec, 1);
        let json =
            |r: ClusterOutcome| ClusterReport { seed: 9, results: vec![r] }.to_json().pretty();
        let (ja, jb, jc) = (json(a), json(b), json(c));
        assert_eq!(ja, jb, "thread count must not change the report");
        assert_eq!(ja, jc, "re-runs must be byte-identical");
    }

    #[test]
    fn every_job_runs_and_metrics_are_consistent() {
        let spec = small_spec(PlacementSpec::RoundRobin, BackendSpec::Ideal);
        let out = run_cluster(&spec, 2);
        assert_eq!(out.jobs.len(), 8);
        for j in &out.jobs {
            assert!(j.start_ns >= j.arrival_ns);
            assert_eq!(j.wait_ns, j.start_ns - j.arrival_ns);
            assert_eq!(j.finish_ns, j.start_ns + j.duration_ns);
            assert_eq!(j.completion_ns, j.wait_ns + j.duration_ns);
            assert!(j.duration_ns > 0);
            assert!(j.solo_ns > 0);
            assert_eq!(j.nodes.len(), j.ranks);
            assert!(j.slowdown >= 1.0 - 1e-9, "{}", j.slowdown);
        }
        assert_eq!(out.makespan_ns, out.jobs.iter().map(|j| j.finish_ns).max().unwrap());
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        assert!(out.batches >= 1);
    }

    #[test]
    fn disjoint_tenants_have_unit_slowdown_on_contention_free_backends() {
        // On the ideal backend a co-scheduled job on its own nodes runs
        // exactly as fast as alone: the slowdown metric must be 1.0 even
        // when batches of several jobs are admitted together.
        let mut spec = small_spec(PlacementSpec::Packed, BackendSpec::Ideal);
        // All jobs arrive at t=0, so they are admitted in multi-job batches.
        spec.arrivals = ArrivalSpec::Trace { times_ns: vec![0, 0, 0, 0] };
        let out = run_cluster(&spec, 1);
        assert!(
            out.jobs
                .iter()
                .any(|j| { out.jobs.iter().any(|k| k.id != j.id && k.batch == j.batch) }),
            "expected at least one multi-job batch"
        );
        for j in &out.jobs {
            assert!(
                (j.slowdown - 1.0).abs() < 1e-9,
                "job {}: ideal-backend slowdown {} != 1",
                j.id,
                j.slowdown
            );
            assert_eq!(j.duration_ns, j.solo_ns);
        }
    }

    #[test]
    fn saturated_cluster_queues_jobs() {
        // 4-rank jobs on an 8-host switch, all arriving at once: at most
        // two run concurrently, the rest wait.
        let mut spec = small_spec(PlacementSpec::Packed, BackendSpec::Lgs);
        spec.catalog = vec![WorkloadSpec::Ring { ranks: 4, bytes: 64 << 10, laps: 2 }];
        spec.arrivals = ArrivalSpec::Trace { times_ns: vec![0, 0, 0, 0, 0, 0] };
        let out = run_cluster(&spec, 1);
        assert!(out.peak_queue >= 4, "peak queue {}", out.peak_queue);
        assert!(out.jobs.iter().filter(|j| j.wait_ns > 0).count() >= 4);
        assert!(out.batches >= 3);
        // Jobs in the same batch occupy disjoint nodes.
        for a in &out.jobs {
            for b in &out.jobs {
                if a.id < b.id && a.batch == b.batch {
                    assert!(a.nodes.iter().all(|n| !b.nodes.contains(n)));
                }
            }
        }
    }

    #[test]
    fn smallest_first_lets_narrow_jobs_jump_wide_heads() {
        // Free pool of 8; a 6-rank job runs; queue gets [6-rank, 4-rank,
        // 2-rank] — fifo backfill admits the 2-rank job (first fit in
        // arrival order among those that fit: 6 no, 4 no... with 2 free
        // only the 2-rank job fits under either discipline; distinguish
        // with 4 free: fifo admits the 4-rank job, smallest the 2-rank
        // one first and then none.
        let mk = |queue| {
            let mut spec = small_spec(PlacementSpec::Packed, BackendSpec::Ideal);
            spec.queue = queue;
            spec.catalog = vec![
                WorkloadSpec::Ring { ranks: 4, bytes: 1 << 20, laps: 8 }, // long, wide
                WorkloadSpec::Ring { ranks: 4, bytes: 8 << 10, laps: 1 },
                WorkloadSpec::Ring { ranks: 2, bytes: 8 << 10, laps: 1 },
            ];
            spec
        };
        // Construct the race directly through the admission scan instead
        // of hunting for a seed: with 4 free nodes and queued jobs of
        // sizes [4, 2], fifo admits job0 first, smallest admits job1.
        let goals = [4usize, 2usize];
        let fifo = admission_order(&[0, 1], QueueDiscipline::Fifo, |j| goals[j]);
        let smallest = admission_order(&[0, 1], QueueDiscipline::SmallestFirst, |j| goals[j]);
        assert_eq!(fifo, vec![0, 1]);
        assert_eq!(smallest, vec![1, 0]);
        // And end-to-end, both disciplines still run everything.
        for queue in [QueueDiscipline::Fifo, QueueDiscipline::SmallestFirst] {
            let out = run_cluster(&mk(queue), 1);
            assert_eq!(out.jobs.len(), 8);
        }
    }

    #[test]
    fn admission_caps_batches_at_the_tag_namespace_bound() {
        // 300 two-rank jobs all arrive at t=0 on a 600-host switch:
        // everything fits the pool, but one composed batch can hold at
        // most MAX_JOBS (256) tenants, so admission must split the burst
        // instead of panicking inside compose.
        let spec = ClusterSpec {
            topology: TopologySpec::SingleSwitch { hosts: 600 },
            catalog: vec![WorkloadSpec::Incast { ranks: 2, bytes: 1 << 10, repeat: 1 }],
            arrivals: ArrivalSpec::Trace { times_ns: vec![0; 300] },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Ideal,
            queue: QueueDiscipline::Fifo,
            fault: FaultSpec::None,
            seed: 2,
        };
        let out = run_cluster(&spec, 4);
        assert_eq!(out.jobs.len(), 300);
        let first_batch = out.jobs.iter().filter(|j| j.batch == 0).count();
        assert_eq!(first_batch, MAX_JOBS, "first batch capped at the compose bound");
        assert!(out.batches >= 2, "overflow admitted in a later batch");
        assert!(out.jobs.iter().all(|j| j.duration_ns > 0));
    }

    #[test]
    fn grid_expansion_crosses_axes_and_drops_oversized_workloads() {
        let grid = ClusterGrid {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            catalog: vec![
                WorkloadSpec::Ring { ranks: 4, bytes: 1 << 10, laps: 1 },
                WorkloadSpec::Ring { ranks: 16, bytes: 1 << 10, laps: 1 }, // too wide
            ],
            arrivals: vec![
                ArrivalSpec::Poisson { jobs: 4, mean_gap_ns: 1000 },
                ArrivalSpec::Trace { times_ns: vec![0, 10] },
            ],
            queues: vec![QueueDiscipline::Fifo],
            placements: vec![PlacementSpec::Packed, PlacementSpec::Random],
            ccs: vec![CcAlgo::Mprdma],
            backends: vec![BackendFamily::Htsim, BackendFamily::Ideal],
            faults: vec![],
            seed: 3,
        };
        let (cells, dropped) = grid.expand_counted();
        // 2 arrivals × 1 queue × 2 placements × (1 htsim CC + 1 ideal) = 8.
        assert_eq!(cells.len(), 8);
        assert_eq!(dropped.len(), 1);
        assert!(dropped[0].contains("ring:16"));
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 8, "cell keys are unique");
        // Cells sharing an arrival spec share a seed (same job stream).
        for c in &cells {
            assert_eq!(c.seed, cell_seed(3, &c.arrivals.label()));
        }
    }

    #[test]
    fn grid_reports_are_thread_count_independent() {
        let grid = ClusterGrid {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            catalog: vec![WorkloadSpec::Ring { ranks: 4, bytes: 16 << 10, laps: 1 }],
            arrivals: vec![
                ArrivalSpec::Poisson { jobs: 5, mean_gap_ns: 20_000 },
                ArrivalSpec::Trace { times_ns: vec![0, 0, 50_000] },
            ],
            queues: vec![QueueDiscipline::Fifo, QueueDiscipline::SmallestFirst],
            placements: vec![PlacementSpec::Packed],
            ccs: vec![],
            backends: vec![BackendFamily::Lgs, BackendFamily::Ideal],
            faults: vec![],
            seed: 5,
        };
        let (cells, _) = grid.expand_counted();
        assert_eq!(cells.len(), 8);
        let serial = ClusterReport { seed: 5, results: run_grid(&cells, 1) };
        let parallel = ClusterReport { seed: 5, results: run_grid(&cells, 4) };
        assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
        assert_eq!(serial.to_csv(), parallel.to_csv());
        // The JSON parses back and the formats agree on cardinality.
        let json = serial.to_json();
        assert_eq!(Json::parse(&json.pretty()).unwrap(), json);
        assert_eq!(json.get("results").unwrap().as_arr().unwrap().len(), 8);
        let total_jobs: usize = serial.results.iter().map(|r| r.jobs.len()).sum();
        assert_eq!(serial.to_csv().lines().count(), total_jobs + 1);
        assert_eq!(serial.to_markdown().lines().count(), 8 + 2);
    }

    #[test]
    fn htsim_contention_shows_up_as_slowdown() {
        // Two chatty jobs admitted together on an oversubscribed fabric:
        // packed placement keeps them in separate ToRs (little
        // interference); the composed batch still must not be *faster*
        // than solo.
        let spec = ClusterSpec {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            catalog: vec![WorkloadSpec::Ring { ranks: 8, bytes: 512 << 10, laps: 1 }],
            arrivals: ArrivalSpec::Trace { times_ns: vec![0, 0] },
            placement: PlacementSpec::Random,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            queue: QueueDiscipline::Fifo,
            fault: FaultSpec::None,
            seed: 11,
        };
        let out = run_cluster(&spec, 2);
        assert_eq!(out.jobs.len(), 2);
        assert_eq!(out.jobs[0].batch, out.jobs[1].batch);
        for j in &out.jobs {
            // Random placement scatters both rings across the shared
            // 4:1 core: co-scheduling must not speed anyone up, and at
            // least some interference is expected.
            assert!(j.slowdown >= 0.999, "job {} slowdown {}", j.id, j.slowdown);
        }
        assert!(out.mean_slowdown() > 1.0, "mean {}", out.mean_slowdown());
    }

    /// The `jobfail:` decision (the grammar round-trips in
    /// `scenario::tests::fault_labels_roundtrip`).
    #[test]
    fn jobfail_draws_are_deterministic_and_retry_bounded() {
        let always = JobFaultSpec::JobFail { pct: 100, at_pct: 50, retries: 2 };
        let never = JobFaultSpec::JobFail { pct: 0, at_pct: 50, retries: 2 };
        for job in 0..8 {
            assert_eq!(always.failure_at(7, job, 0, 1000), Some(500));
            assert_eq!(always.failure_at(7, job, 1, 1000), Some(500));
            assert_eq!(always.failure_at(7, job, 2, 1000), None, "attempt == retries succeeds");
            assert_eq!(always.failure_at(7, job, 0, 0), Some(1), "a failed attempt takes >= 1 ns");
            assert_eq!(never.failure_at(7, job, 0, 1000), None);
        }
        // The draw is a pure function of (seed, job, attempt) and actually
        // depends on each of them at a 50% rate.
        let half = JobFaultSpec::JobFail { pct: 50, at_pct: 50, retries: 1 };
        let draws = |seed| -> Vec<bool> {
            (0..64).map(|j| half.failure_at(seed, j, 0, 1000).is_some()).collect()
        };
        assert_eq!(draws(1), draws(1));
        let hits = draws(1).iter().filter(|&&b| b).count();
        assert!(hits > 8 && hits < 56, "50% draw hit {hits}/64 jobs");
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn mtbf_failures_scale_with_duration_and_respect_the_retry_bound() {
        let mtbf = JobFaultSpec::Mtbf { mtbf_ns: 1_000_000, retries: 2 };
        // Short attempts rarely fail, long attempts usually do, and when
        // one fails it holds its nodes strictly inside its run.
        let mut short_fails = 0;
        let mut long_fails = 0;
        for job in 0..64 {
            if let Some(held) = mtbf.failure_at(7, job, 0, 10_000) {
                assert!((1..10_000).contains(&held));
                short_fails += 1;
            }
            if let Some(held) = mtbf.failure_at(7, job, 0, 20_000_000) {
                assert!((1..20_000_000).contains(&held));
                long_fails += 1;
            }
            assert_eq!(mtbf.failure_at(7, job, 2, u64::MAX), None, "retry bound holds");
            assert_eq!(
                mtbf.failure_at(7, job, 0, 123_456),
                mtbf.failure_at(7, job, 0, 123_456),
                "pure function of (seed, job, attempt, duration)"
            );
        }
        assert!(short_fails < 16, "10 µs attempts vs 1 ms MTBF: {short_fails}/64 failed");
        assert!(long_fails > 56, "20 ms attempts vs 1 ms MTBF: only {long_fails}/64 failed");
    }

    #[test]
    fn mtbf_cluster_runs_restart_jobs_and_report_telemetry() {
        let mut spec = small_spec(PlacementSpec::Packed, BackendSpec::Lgs);
        // Job runs are hundreds of µs; a 200 µs MTBF forces failures.
        spec.fault = FaultSpec::Job(JobFaultSpec::Mtbf { mtbf_ns: 200_000, retries: 3 });
        let out = run_cluster(&spec, 2);
        let clean = run_cluster(&small_spec(PlacementSpec::Packed, BackendSpec::Lgs), 2);
        assert_eq!(out.jobs.len(), 8, "every job still completes");
        assert_eq!(clean.fault, None, "fault-free cells carry no telemetry");
        let tel = out.fault.expect("faulted cells report telemetry");
        assert!(tel.restarts > 0, "a sub-runtime MTBF must fire: {tel:?}");
        assert_eq!(tel.restarts, out.jobs.iter().map(|j| j.restarts as u64).sum::<u64>());
        assert_eq!(tel.failed_ns, out.jobs.iter().map(|j| j.failed_ns).sum::<u64>());
        assert!(tel.failed_ns > 0, "failed attempts hold their nodes for at least 1 ns");
        for j in out.jobs.iter().filter(|j| j.restarts > 0) {
            assert!(j.failed_ns > 0);
            assert_eq!(j.start_ns, j.arrival_ns + j.wait_ns + j.failed_ns);
        }
        // Both runs are identical up to the first failure, so that job's
        // successful start must slip past its clean twin's (the cluster
        // is unsaturated, so the *makespan* need not move — the per-job
        // records must).
        assert!(
            out.jobs
                .iter()
                .filter(|j| j.restarts > 0)
                .any(|j| j.start_ns > clean.jobs[j.id].start_ns),
            "a restarted job starts later than its fault-free twin"
        );
        // Deterministic across thread counts, and the telemetry reaches
        // the JSON report.
        let json =
            |r: ClusterOutcome| ClusterReport { seed: 9, results: vec![r] }.to_json().pretty();
        let ja = json(out);
        assert_eq!(ja, json(run_cluster(&spec, 1)), "thread-count independent");
        assert!(ja.contains("\"fault\"") && ja.contains("\"failed_ns\""), "{ja}");
        assert!(!json(clean).contains("\"fault\""));
    }

    #[test]
    fn failed_jobs_release_nodes_restart_and_complete() {
        // Every job fails its first two attempts (holding nodes for half
        // the would-be run), then succeeds on the third.
        let mut spec = small_spec(PlacementSpec::Packed, BackendSpec::Lgs);
        spec.fault = jobfail(100, 50, 2);
        let out = run_cluster(&spec, 2);
        let clean = run_cluster(&small_spec(PlacementSpec::Packed, BackendSpec::Lgs), 2);
        assert_eq!(out.jobs.len(), 8, "every job still completes");
        for j in &out.jobs {
            assert_eq!(j.restarts, 2, "job {}: exactly `retries` failed attempts", j.id);
            assert!(j.failed_ns > 0);
            // Total accounting: the successful start is arrival plus all
            // queueing plus all failed-attempt occupancy.
            assert_eq!(j.start_ns, j.arrival_ns + j.wait_ns + j.failed_ns);
            assert_eq!(j.finish_ns, j.start_ns + j.duration_ns);
            assert_eq!(j.completion_ns, j.wait_ns + j.failed_ns + j.duration_ns);
            assert_eq!(j.nodes.len(), j.ranks);
            assert!(j.duration_ns > 0 && j.solo_ns > 0);
        }
        // Failed attempts burn cluster time: the faulted run takes longer
        // and the pool still drains completely (utilization stays sane,
        // which it cannot if released node accounting leaked).
        assert!(out.makespan_ns > clean.makespan_ns);
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        assert!(out.frag.peak_extents >= 1);
        // Re-runs and thread counts do not change the faulted report.
        let json =
            |r: ClusterOutcome| ClusterReport { seed: 9, results: vec![r] }.to_json().pretty();
        let ja = json(out);
        assert_eq!(ja, json(run_cluster(&spec, 1)), "faulted cell is thread-count independent");
        assert!(ja.contains("\"restarts\": 2"), "restart accounting reaches the report");
        assert!(ja.contains("\"failed_ns\""));
        assert!(!json(clean).contains("restarts"), "fault-free reports carry no restart fields");
    }

    #[test]
    fn zero_probability_faults_match_the_fault_free_engine() {
        // A fault spec that never fires must leave every job metric
        // untouched — only the cell key gains a fault segment.
        let mut spec = small_spec(PlacementSpec::Random, BackendSpec::Lgs);
        spec.fault = jobfail(0, 50, 3);
        let faulted = run_cluster(&spec, 2);
        let clean = run_cluster(&small_spec(PlacementSpec::Random, BackendSpec::Lgs), 2);
        assert_eq!(faulted.jobs, clean.jobs);
        assert_eq!(faulted.makespan_ns, clean.makespan_ns);
        assert_eq!(faulted.peak_queue, clean.peak_queue);
        assert_eq!(faulted.key, format!("{}/jobfail:0:50:3", clean.key));
    }

    #[test]
    fn requeued_jobs_count_in_queue_and_wait_metrics() {
        // A saturated switch where every job fails once: re-queued jobs
        // must show up in peak_queue and in accumulated wait.
        let mk = |fault| {
            let mut spec = small_spec(PlacementSpec::Packed, BackendSpec::Ideal);
            spec.catalog = vec![WorkloadSpec::Ring { ranks: 4, bytes: 64 << 10, laps: 2 }];
            spec.arrivals = ArrivalSpec::Trace { times_ns: vec![0, 0, 0, 0, 0, 0] };
            spec.fault = fault;
            spec
        };
        let clean = run_cluster(&mk(FaultSpec::None), 1);
        let faulted = run_cluster(&mk(jobfail(100, 100, 1)), 1);
        assert!(faulted.jobs.iter().all(|j| j.restarts == 1));
        assert!(
            faulted.peak_queue >= clean.peak_queue,
            "re-queued jobs deepen the queue: {} < {}",
            faulted.peak_queue,
            clean.peak_queue
        );
        let wait = |o: &ClusterOutcome| o.jobs.iter().map(|j| j.wait_ns).sum::<u64>();
        assert!(
            wait(&faulted) > wait(&clean),
            "failed attempts push later jobs' queueing delay up"
        );
        assert!(faulted.makespan_ns > clean.makespan_ns);
    }

    #[test]
    fn restarts_respect_the_tag_namespace_bound() {
        // The MAX_JOBS burst test, with every job failing once: re-queued
        // jobs flow through the same capped admission scan, so no batch
        // may ever exceed the compose bound.
        let spec = ClusterSpec {
            topology: TopologySpec::SingleSwitch { hosts: 600 },
            catalog: vec![WorkloadSpec::Incast { ranks: 2, bytes: 1 << 10, repeat: 1 }],
            arrivals: ArrivalSpec::Trace { times_ns: vec![0; 300] },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Ideal,
            queue: QueueDiscipline::Fifo,
            fault: jobfail(100, 25, 1),
            seed: 2,
        };
        let out = run_cluster(&spec, 4);
        assert_eq!(out.jobs.len(), 300);
        assert!(out.jobs.iter().all(|j| j.restarts == 1));
        let mut per_batch = std::collections::HashMap::new();
        for j in &out.jobs {
            *per_batch.entry(j.batch).or_insert(0usize) += 1;
        }
        assert!(per_batch.values().all(|&n| n <= MAX_JOBS), "successful-attempt batches capped");
        assert!(out.batches >= 3, "failures force extra admission batches");
    }

    #[test]
    fn grid_fault_axis_multiplies_cells_without_perturbing_seeds() {
        let base = ClusterGrid {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            catalog: vec![WorkloadSpec::Ring { ranks: 4, bytes: 16 << 10, laps: 1 }],
            arrivals: vec![ArrivalSpec::Poisson { jobs: 4, mean_gap_ns: 20_000 }],
            queues: vec![QueueDiscipline::Fifo],
            placements: vec![PlacementSpec::Packed],
            ccs: vec![],
            backends: vec![BackendFamily::Lgs, BackendFamily::Ideal],
            faults: vec![],
            seed: 5,
        };
        let mut faulted = base.clone();
        // The repeated `none` (`--faults none,none`) names the same cells
        // again and must not repeat a key in the report.
        faulted.faults = vec![FaultSpec::None, FaultSpec::None, jobfail(50, 50, 2)];
        let (plain, _) = base.expand_counted();
        let (cells, _) = faulted.expand_counted();
        assert_eq!(plain.len(), 2);
        assert_eq!(cells.len(), 4, "2 backends x 2 fault regimes");
        for c in &cells {
            // The fault axis is invisible to cell seeding: every cell
            // still derives its seed from the arrival label alone.
            assert_eq!(c.seed, cell_seed(5, &c.arrivals.label()));
        }
        let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys.iter().filter(|k| k.ends_with("/jobfail:50:50:2")).count(), 2);
        assert!(
            plain.iter().all(|c| cells.iter().any(|f| f.key() == c.key())),
            "fault-free cells keep their exact pre-axis keys"
        );
    }

    #[test]
    fn cluster_faults_apply_per_backend() {
        // Grid expansion skips stochastic cells on message-level and
        // ideal backends (packets only exist in htsim), pairs a job
        // failure process with every backend, and never perturbs the
        // base seeds.
        let grid = ClusterGrid {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            catalog: vec![WorkloadSpec::Ring { ranks: 4, bytes: 16 << 10, laps: 1 }],
            arrivals: vec![ArrivalSpec::Poisson { jobs: 4, mean_gap_ns: 20_000 }],
            queues: vec![QueueDiscipline::Fifo],
            placements: vec![PlacementSpec::Packed],
            ccs: vec![CcAlgo::Mprdma],
            backends: vec![BackendFamily::Htsim, BackendFamily::Lgs, BackendFamily::Ideal],
            faults: vec![
                FaultSpec::None,
                FaultSpec::parse("loss:50000").unwrap(),
                jobfail(50, 50, 2),
            ],
            seed: 5,
        };
        let (cells, _) = grid.expand_counted();
        // htsim: none + loss + jobfail; lgs and ideal: none + jobfail (a
        // job fails whatever simulates it).
        assert_eq!(cells.len(), 7, "{:?}", cells.iter().map(|c| c.key()).collect::<Vec<_>>());
        assert_eq!(cells.iter().filter(|c| c.key().ends_with("/jobfail:50:50:2")).count(), 3);
        let lossy: Vec<&ClusterSpec> =
            cells.iter().filter(|c| c.key().ends_with("/loss:50000")).collect();
        assert_eq!(lossy.len(), 1);
        assert!(matches!(lossy[0].backend, BackendSpec::Htsim { .. }));
        for c in &cells {
            assert_eq!(c.seed, cell_seed(5, &c.arrivals.label()));
        }
    }

    #[test]
    fn lossy_cluster_cells_complete_diverge_and_rerun_identically() {
        let mk = |fault| ClusterSpec {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            catalog: vec![WorkloadSpec::Ring { ranks: 4, bytes: 64 << 10, laps: 1 }],
            arrivals: ArrivalSpec::Trace { times_ns: vec![0, 0, 10_000, 20_000] },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            queue: QueueDiscipline::Fifo,
            fault,
            seed: 11,
        };
        let clean = run_cluster(&mk(FaultSpec::None), 1);
        let lossy_spec = mk(FaultSpec::parse("loss:100000").unwrap());
        let a = run_cluster(&lossy_spec, 1);
        let b = run_cluster(&lossy_spec, 4);
        // Liveness: sustained 10% loss stretches every run but the RTO
        // machinery still finishes all jobs.
        assert_eq!(a.jobs.len(), 4, "every job completes under loss");
        assert!(a.jobs.iter().all(|j| j.duration_ns > 0 && j.restarts == 0));
        assert_eq!(a.fault, None, "packet noise is not job-failure telemetry");
        assert!(
            a.jobs.iter().zip(&clean.jobs).any(|(l, c)| l.duration_ns > c.duration_ns),
            "10% loss must stretch at least one simulated run"
        );
        // Thread-count and rerun identity, down to the report bytes.
        let json =
            |r: ClusterOutcome| ClusterReport { seed: 11, results: vec![r] }.to_json().pretty();
        let ja = json(a);
        assert_eq!(ja, json(b), "thread count must not change a lossy report");
        assert_eq!(ja, json(run_cluster(&lossy_spec, 1)), "lossy reruns are byte-identical");
    }
}
