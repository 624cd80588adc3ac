//! The inputs of one simulation: the fabric ([`TopologySpec`]), the
//! backend on top of it ([`BackendSpec`]), the fault regime
//! ([`FaultSpec`], with its job scope [`JobFaultSpec`]) and the seed rule
//! ([`cell_seed`]). Each labels itself as the segment a report key
//! carries, and the topology and fault specs parse back from it, so a
//! key fed back to the CLI names the same simulation.
//!
//! These sit below the session that runs a simulation and the grids that
//! cross them: the session reads them, and the grids and executors above
//! it only pass them through.

use atlahs_core::faultgen::{self, num};
use atlahs_htsim::fault::WindowFault;
use atlahs_htsim::stochastic::LinkModelSpec;
use atlahs_htsim::topology::{LinkParams, TopologyConfig, MAX_ECMP, MAX_HOSTS};
use atlahs_htsim::CcAlgo;
use atlahs_lgs::{LogGopsParams, StragglerSpec};

use crate::args::{by_name, name_of, unknown};
use crate::workloads;

/// The simulated-time horizon of a spec, 2⁵³ ns (about 104 days): no
/// arrival time, no Poisson process's mean span (`jobs × mean_gap_ns`) and
/// no synthetic workload's total compute may lie past it. Reports write
/// times as JSON numbers, which hold every integer up to 2⁵³, and what
/// starts inside the horizon keeps the rest of the `u64` clock to run in.
pub const HORIZON_NS: u64 = 1 << 53;

// ------------------------------------------------------------ topology ----

/// One topology axis value.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The Alps-class AI fabric: 200 Gb/s two-level fat tree with
    /// `oversub`:1 ToR→core oversubscription (1 = fully provisioned).
    AiFatTree { nodes: usize, oversub: usize },
    /// The CSCS-class HPC fabric: 56 Gb/s fully provisioned fat tree.
    HpcFatTree { procs: usize, nodes: usize },
    /// The Direct Drive storage fabric: 100 Gb/s fat tree, `oversub`:1.
    StorageFatTree { hosts: usize, oversub: usize },
    /// Balanced dragonfly (`groups` × `routers` × `hosts_per_router`).
    Dragonfly { groups: usize, routers: usize, hosts_per_router: usize },
    /// All hosts behind one output-queued crossbar.
    SingleSwitch { hosts: usize },
}

impl TopologySpec {
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::AiFatTree { nodes, oversub } => format!("ai-fattree:{nodes}:{oversub}"),
            TopologySpec::HpcFatTree { procs, nodes } => format!("hpc-fattree:{procs}:{nodes}"),
            TopologySpec::StorageFatTree { hosts, oversub } => {
                format!("storage-fattree:{hosts}:{oversub}")
            }
            TopologySpec::Dragonfly { groups, routers, hosts_per_router } => {
                format!("dragonfly:{groups}:{routers}:{hosts_per_router}")
            }
            TopologySpec::SingleSwitch { hosts } => format!("switch:{hosts}"),
        }
    }

    /// Lower to the packet-level topology.
    pub fn config(&self) -> TopologyConfig {
        match *self {
            TopologySpec::AiFatTree { nodes, oversub } => {
                workloads::ai_topology_oversubscribed(nodes, oversub)
            }
            TopologySpec::HpcFatTree { procs, nodes } => workloads::hpc_topology(procs, nodes),
            TopologySpec::StorageFatTree { hosts, oversub } => {
                workloads::storage_topology(hosts, oversub)
            }
            TopologySpec::Dragonfly { groups, routers, hosts_per_router } => {
                TopologyConfig::dragonfly(groups, routers, hosts_per_router)
            }
            TopologySpec::SingleSwitch { hosts } => {
                TopologyConfig::SingleSwitch { hosts, link: LinkParams::default() }
            }
        }
    }

    /// Physical node count of the fabric (the cluster size placements
    /// allocate against).
    pub fn hosts(&self) -> usize {
        self.config().num_hosts()
    }

    /// The edge (host-facing) link class, from which the message-level
    /// and ideal backends derive their rate/latency parameters.
    pub fn edge_link(&self) -> LinkParams {
        self.config().edge_link()
    }

    /// The token forms, one per line: what an unknown token's error and
    /// `atlahs list` print.
    pub const GRAMMAR: &'static str = "\
        ai-fattree:<nodes>[:<oversub>]        200 Gb/s Alps-class fat tree\n\
        hpc-fattree:<procs>:<nodes>           56 Gb/s CSCS-class fat tree\n\
        storage-fattree:<hosts>[:<oversub>]   100 Gb/s Direct Drive fabric\n\
        dragonfly:<groups>:<routers>:<hosts>  balanced dragonfly\n\
        switch:<hosts>                        single crossbar switch";

    /// Parse a CLI token (the inverse of [`TopologySpec::label`]).
    pub fn parse(tok: &str) -> Result<TopologySpec, String> {
        let parts: Vec<&str> = tok.split(':').collect();
        let n = |s: &str| num::<usize>(tok, s);
        let spec = match parts.as_slice() {
            ["ai-fattree", nodes] => TopologySpec::AiFatTree { nodes: n(nodes)?, oversub: 1 },
            ["ai-fattree", nodes, ov] => {
                TopologySpec::AiFatTree { nodes: n(nodes)?, oversub: n(ov)? }
            }
            ["hpc-fattree", procs, nodes] => {
                TopologySpec::HpcFatTree { procs: n(procs)?, nodes: n(nodes)? }
            }
            ["storage-fattree", hosts] => {
                TopologySpec::StorageFatTree { hosts: n(hosts)?, oversub: 1 }
            }
            ["storage-fattree", hosts, ov] => {
                TopologySpec::StorageFatTree { hosts: n(hosts)?, oversub: n(ov)? }
            }
            ["dragonfly", g, r, h] => {
                TopologySpec::Dragonfly { groups: n(g)?, routers: n(r)?, hosts_per_router: n(h)? }
            }
            ["switch", hosts] => TopologySpec::SingleSwitch { hosts: n(hosts)? },
            _ => return Err(unknown("topology", tok, Self::GRAMMAR)),
        };
        spec.check().map_err(|e| format!("topology `{tok}`: {e}"))?;
        Ok(spec)
    }

    /// Every dimension is at least 1 — the fabric builders divide by them
    /// — a dragonfly has at least 2 groups, an oversubscription ratio
    /// divides the hosts per ToR, and the fabric fits the route cache's
    /// key ([`MAX_HOSTS`] hosts, [`MAX_ECMP`] equal-cost routes), so a
    /// degenerate fabric fails at the CLI, naming the field, not inside a
    /// worker.
    fn check(&self) -> Result<(), String> {
        let positive = |dims: &[(&str, usize)]| match dims.iter().find(|dim| dim.1 == 0) {
            Some((field, _)) => Err(format!("{field} must be at least 1")),
            None => Ok(()),
        };
        let at_most = |field: &str, value: usize, max: usize| {
            if value <= max {
                return Ok(());
            }
            Err(format!("{field} must be at most {max}"))
        };
        let divides = |oversub: usize, hosts_per_tor: usize| {
            if hosts_per_tor % oversub == 0 {
                return Ok(());
            }
            Err(format!("oversub {oversub} must divide the {hosts_per_tor} hosts per ToR"))
        };
        match *self {
            TopologySpec::AiFatTree { nodes, oversub } => {
                positive(&[("nodes", nodes), ("oversub", oversub)])?;
                at_most("nodes", nodes, MAX_HOSTS)?;
                divides(oversub, workloads::ai_hosts_per_tor(nodes))
            }
            TopologySpec::HpcFatTree { procs, nodes } => {
                positive(&[("procs", procs), ("nodes", nodes)])?;
                at_most("procs", procs, MAX_HOSTS)?;
                // One ToR per node, with an uplink per host.
                at_most("procs / nodes", procs / nodes, MAX_ECMP)
            }
            TopologySpec::StorageFatTree { hosts, oversub } => {
                positive(&[("hosts", hosts), ("oversub", oversub)])?;
                at_most("hosts", hosts, MAX_HOSTS)?;
                divides(oversub, workloads::STORAGE_HOSTS_PER_TOR)
            }
            TopologySpec::Dragonfly { groups: 0 | 1, .. } => {
                Err("groups must be at least 2".into())
            }
            TopologySpec::Dragonfly { groups, routers, hosts_per_router } => {
                positive(&[("routers", routers), ("hosts", hosts_per_router)])?;
                let hosts = groups.saturating_mul(routers).saturating_mul(hosts_per_router);
                at_most("groups × routers × hosts", hosts, MAX_HOSTS)?;
                // Two groups are joined by at most one global link per router.
                at_most("routers", routers, MAX_ECMP)
            }
            TopologySpec::SingleSwitch { hosts } => {
                positive(&[("hosts", hosts)])?;
                at_most("hosts", hosts, MAX_HOSTS)
            }
        }
    }
}

// ------------------------------------------------------------- backend ----

/// Fully resolved backend of one cell. `Testbed` is the fluid-flow
/// emulator standing in for the measured cluster, the reference the
/// validation figures (Figs. 8/10) compute error against; no
/// [`crate::scenario::BackendFamily`] expands to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    Htsim { cc: CcAlgo, spray: bool },
    Lgs,
    Ideal,
    Testbed,
}

impl BackendSpec {
    pub fn label(&self) -> String {
        match self {
            BackendSpec::Htsim { cc, spray } => {
                format!("htsim-{}{}", name_of(&CC_NAMES, cc), if *spray { "-spray" } else { "" })
            }
            BackendSpec::Lgs => "lgs".to_string(),
            BackendSpec::Ideal => "ideal".to_string(),
            BackendSpec::Testbed => "testbed".to_string(),
        }
    }
}

/// The CC axis vocabulary.
pub const CC_NAMES: [(&str, CcAlgo); 4] = [
    ("mprdma", CcAlgo::Mprdma),
    ("swift", CcAlgo::Swift),
    ("ndp", CcAlgo::Ndp),
    ("dctcp", CcAlgo::Dctcp),
];

/// Parse a CC token (any case: `CcAlgo` displays in capitals).
pub fn parse_cc(tok: &str) -> Result<CcAlgo, String> {
    by_name("CC", &CC_NAMES, &tok.to_ascii_lowercase())
}

/// LogGOPS parameters calibrated against the testbed emulator for an
/// arbitrary fabric: [`workloads::lgs_params_for_link`] applied to the
/// topology's edge link (the same calibration `ai_lgs_params` and
/// `hpc_lgs_params` use).
pub fn lgs_params_for(topo: &TopologySpec) -> LogGopsParams {
    workloads::lgs_params_for_link(topo.edge_link())
}

// --------------------------------------------------------------- fault ----

/// Fault/variability axis value — the one fault vocabulary of `atlahs
/// sweep` and `atlahs cluster` alike ([`FaultSpec::GRAMMAR`]).
///
/// A fault composes with every other axis but only *bites* on the layer
/// it models: link faults are packet-level (htsim families), the
/// straggler model is message-level (LGS), the ideal backend is never
/// faulted inside a simulation (it stays the contention-free, fault-free
/// fixed-rate reference), and job failures happen above the simulation,
/// in the cluster engine's job lifecycle. Grid expansion pairs each
/// backend only with the faults that apply to it — plus
/// [`FaultSpec::None`], which is always present and leaves the cell
/// bit-identical to a grid without a fault axis. Which subcommand takes
/// which fault is decided where tokens enter ([`FaultSpec::in_sweep`],
/// [`FaultSpec::in_cluster`]).
///
/// Fault randomness (which links fail, which ranks straggle) is keyed by
/// `cell_seed(cell.seed, fault_label)` at run time, so the base cell
/// seed — and therefore every fault-free cell and every generated
/// workload instance — is untouched by the axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Perfect fabric (the default; label `none`).
    None,
    /// A timed port-window regime: `linkflap`, `degrade`, `markov`,
    /// `rackfail`, `switchfail` or `churn` (packet-level; see
    /// [`WindowFault`]).
    Window(WindowFault),
    /// Each rank straggles with probability `prob_pct`%, inflating calc
    /// costs to `factor_pct`% plus (when `spread_pct > 0`) a per-rank
    /// Weibull(`spread_pct`, `shape`) draw, so stragglers are slowed by
    /// *different* amounts (message-level; see [`StragglerSpec`]). The
    /// spec's seed is 0 here; the run seeds it.
    Straggler(StragglerSpec),
    /// Per-packet stochastic link model: seeded random loss (`loss:` in
    /// ppm, optionally per tier) or latency jitter (`jitter:` from the
    /// faultgen Q32 samplers), evaluated in the forwarding hot path via
    /// counter-based draw streams (packet-level; see
    /// [`atlahs_htsim::stochastic`]).
    Stochastic(LinkModelSpec),
    /// Job-scope failure process (`jobfail:` / `mtbf:`): whole job
    /// attempts fail, release their nodes and re-queue. Only the cluster
    /// engine has a job lifecycle to fail, so only it takes these
    /// (see [`JobFaultSpec`]).
    Job(JobFaultSpec),
}

impl FaultSpec {
    /// Every `--faults` token form, one per line, with where it is
    /// accepted and the backends it bites on: what an unknown token's
    /// error and `atlahs list` print.
    pub const GRAMMAR: &'static str = "\
        none                                                     sweep, cluster\n\
        linkflap:<links>:<down_ns>:<up_ns>                       sweep; htsim\n\
        degrade:<links>:<bw_pct>:<lat_pct>:<from_ns>:<to_ns>     sweep; htsim\n\
        straggler:<prob_pct>:<factor_pct>[:<spread_pct>:<shape>] sweep; lgs\n\
        markov:<links>:<up_ns>:<down_ns>:<horizon_ns>            sweep; htsim\n\
        rackfail:<racks>:<from_ns>:<to_ns>                       sweep; htsim\n\
        switchfail:<switches>:<from_ns>:<to_ns>                  sweep; htsim\n\
        churn:<t;dom;d|u,...> | churn:@<trace-file>              sweep; htsim\n\
        loss:<ppm>[:core|:edge]                                  sweep, cluster; htsim\n\
        jitter:exp:<mean_ns>                                     sweep, cluster; htsim\n\
        jitter:weibull:<scale_ns>:<shape>                        sweep, cluster; htsim\n\
        jitter:uniform:<max_ns>                                  sweep, cluster; htsim\n\
        jobfail:<pct>:<at_pct>:<retries>                         cluster\n\
        mtbf:<mtbf_ns>:<retries>                                 cluster";

    pub fn label(&self) -> String {
        match *self {
            FaultSpec::None => "none".to_string(),
            FaultSpec::Window(ref window) => window.label(),
            FaultSpec::Straggler(spec) => spec.label(),
            FaultSpec::Stochastic(spec) => spec.label(),
            FaultSpec::Job(spec) => spec.label(),
        }
    }

    /// `prefix`, with a trailing `/fault` segment only for faulted cells:
    /// fault-free keys are identical to a grid without the fault axis.
    pub fn keyed(&self, prefix: String) -> String {
        match self {
            FaultSpec::None => prefix,
            fault => format!("{prefix}/{}", fault.label()),
        }
    }

    /// Whether this fault can affect the given backend at all. Pairs
    /// where it cannot are skipped at expansion — they would duplicate
    /// the `none` cell under a misleading key.
    pub fn applies_to(&self, backend: &BackendSpec) -> bool {
        match self {
            // A job fails whatever simulates it.
            FaultSpec::None | FaultSpec::Job(_) => true,
            FaultSpec::Straggler(_) => matches!(backend, BackendSpec::Lgs),
            // Port windows and link models are packet-level.
            _ => matches!(backend, BackendSpec::Htsim { .. }),
        }
    }

    /// This fault as a sweep axis value; refuses the job scope, saying why.
    pub fn in_sweep(self) -> Result<FaultSpec, String> {
        match self {
            FaultSpec::Job(job) => Err(format!(
                "fault `{}` fails and restarts whole jobs, and a sweep cell is one simulation \
                 with no queue to restart into — it is an `atlahs cluster` fault",
                job.label()
            )),
            fault => Ok(fault),
        }
    }

    /// This fault as a cluster axis value; refuses window and straggler
    /// faults, saying why.
    pub fn in_cluster(self) -> Result<FaultSpec, String> {
        match self {
            FaultSpec::None | FaultSpec::Stochastic(_) | FaultSpec::Job(_) => Ok(self),
            fault => Err(format!(
                "fault `{}` picks its ports, windows or ranks for one simulation, and a cluster \
                 cell runs many (every batch and every solo baseline, each from t=0) — it is \
                 an `atlahs sweep` fault; cluster takes none, loss:/jitter:, jobfail:/mtbf:",
                fault.label()
            )),
        }
    }

    /// Parse a CLI token (the inverse of [`FaultSpec::label`]).
    ///
    /// `churn:@<path>` loads a trace file in the line format of
    /// [`atlahs_core::faultgen::parse_churn_trace`]; the resulting spec
    /// labels itself with the canonical inline form, so a file-fed cell
    /// keys and reproduces identically to its inline twin.
    pub fn parse(tok: &str) -> Result<FaultSpec, String> {
        if let Some(path) = tok.strip_prefix("churn:@") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("fault `{tok}`: cannot read trace file: {e}"))?;
            return WindowFault::churn(tok, faultgen::parse_churn_trace(&text)?)
                .map(FaultSpec::Window);
        }
        // Every family parses and validates next to the engine that
        // consumes it; `None` means the token is not from that family and
        // falls through.
        if let Some(parsed) = WindowFault::parse(tok) {
            return parsed.map(FaultSpec::Window);
        }
        if let Some(parsed) = LinkModelSpec::parse(tok) {
            return parsed.map(FaultSpec::Stochastic);
        }
        if let Some(parsed) = StragglerSpec::parse(tok) {
            return parsed.map(FaultSpec::Straggler);
        }
        if let Some(parsed) = JobFaultSpec::parse(tok) {
            return parsed.map(FaultSpec::Job);
        }
        match tok {
            "none" => Ok(FaultSpec::None),
            _ => Err(unknown("fault", tok, Self::GRAMMAR)),
        }
    }
}

/// Realized-fault telemetry for one window or straggler cell: what the
/// fault actually produced, so a report is auditable without re-deriving
/// the draw chain. `windows`/`downtime_ns` describe the packet-level
/// schedule (every per-port window, and the summed durations of its
/// `down` windows; a degraded port is slow, not down); `stragglers`
/// counts slowed ranks on the message-level path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTelemetry {
    pub windows: u64,
    pub downtime_ns: u64,
    pub stragglers: u64,
}

// ----------------------------------------------------------- job fault ----

/// Seeded job-level failure injection: the job scope of the fault axis
/// ([`FaultSpec::Job`]), which only the cluster engine
/// ([`crate::cluster`]) has a job lifecycle to fail.
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

/// The most retries a `jobfail:` or `mtbf:` token may allow. Every retry
/// re-simulates the job, so the bound keeps a cell's run time bounded.
const MAX_RETRIES: u32 = 100;

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
            retries: Self::retries(tok, retries)?,
        })
    }

    fn mtbf(tok: &str, mtbf: &str, retries: &str) -> Result<Self, String> {
        let mtbf_ns: u64 = num(tok, mtbf)?;
        if mtbf_ns == 0 {
            return Err(format!("fault `{tok}`: the mean time between failures must be >= 1 ns"));
        }
        Ok(JobFaultSpec::Mtbf { mtbf_ns, retries: Self::retries(tok, retries)? })
    }

    fn retries(tok: &str, retries: &str) -> Result<u32, String> {
        match num(tok, retries)? {
            n if n > MAX_RETRIES => {
                Err(format!("fault `{tok}`: <retries> must be at most {MAX_RETRIES}"))
            }
            n => Ok(n),
        }
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

// --------------------------------------------------------------- seeds ----

/// Derive a cell's seed: an FNV-1a fold of the grid seed and the cell's
/// *workload label*. The fold makes seeds stable under grid reordering
/// and subsetting; keying on the workload alone (not the full cell key)
/// means every cell sharing a workload simulates the *same* generated
/// instance — so rows differing only in topology, CC, placement, or
/// backend are directly comparable, exactly as the paper's figures
/// compare them — and the sweep builds each workload once.
pub fn cell_seed(grid_seed: u64, key: &str) -> u64 {
    // Avoid the degenerate all-zero seed some PRNGs dislike.
    faultgen::fnv_fold(grid_seed, &[key.as_bytes()]) | 1
}
