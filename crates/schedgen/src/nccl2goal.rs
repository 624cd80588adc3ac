//! The four-stage NCCL-trace → GOAL pipeline (paper §3.1.2, Fig. 5).
//!
//! * **Stage 1** — profiling — is the tracer (`atlahs_tracers::nccl`): nsys
//!   reports with per-stream NCCL kernels and NVTX communicator info.
//! * **Stage 2** — per-GPU stream DAGs: kernels on one CUDA stream are
//!   linked sequentially; the timestamp gap between consecutive kernels
//!   becomes inferred computation; distinct streams get distinct GOAL
//!   compute streams so they overlap in simulation.
//! * **Stage 3** — collective decomposition: every kernel instance is
//!   replaced by its NCCL schedule (ring/tree × protocol × channels) from
//!   `atlahs_collectives::nccl`; instance correspondence uses NCCL's
//!   ordering guarantee (the k-th collective on a communicator is the same
//!   instance on every member).
//! * **Stage 4** — GPU→node grouping: GPU DAGs merge into one DAG per node
//!   (each GPU keeps a private compute-stream range); sends/recvs between
//!   GPUs of the same node are replaced by `calc` vertices costed from the
//!   intra-node (NVLink-class) bandwidth, with an explicit dependency edge
//!   preserving the data flow. Passing a different `gpus_per_node`
//!   restructures the job for "what-if" studies.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

use atlahs_collectives::nccl::{self as nc, NcclConfig};
use atlahs_core::NsPerByte;
use atlahs_eventq::hash::FastBuildHasher;
use atlahs_goal::{
    GoalBuilder, GoalError, GoalSchedule, Rank, RankSchedule, Task, TaskId, TaskKind,
};
use atlahs_tracers::nccl::{KernelRecord, NcclKernel, NsysReport};

/// Converter configuration.
#[derive(Debug, Clone)]
pub struct NcclToGoalConfig {
    /// NCCL schedule parameters (algorithm, protocol, channels, chunking).
    pub nccl: NcclConfig,
    /// Override the report's GPUs-per-node for what-if restructuring.
    pub gpus_per_node: Option<u32>,
    /// Intra-node transfer cost: base + per-byte, rounded down
    /// (NVLink-class default: 150 GB/s, 1/150 ns/B).
    pub intra_base_ns: u64,
    pub intra_per_byte: NsPerByte,
}

impl Default for NcclToGoalConfig {
    fn default() -> Self {
        NcclToGoalConfig {
            nccl: NcclConfig::default(),
            gpus_per_node: None,
            intra_base_ns: 1_000,
            intra_per_byte: NsPerByte::ratio(1, 150),
        }
    }
}

/// Stream-id stride separating GPUs merged onto one node (Stage 4).
const STREAM_STRIDE: u32 = 16;

/// Convert an nsys report into a node-level GOAL schedule.
///
/// Lowers in one level: Stage 4 takes the GPUs out of the Stage 2+3 builder
/// one at a time, so the GPU-level schedule never exists next to the
/// node-level one (only the GPU being merged is indexed).
pub fn convert(report: &NsysReport, cfg: &NcclToGoalConfig) -> Result<GoalSchedule, GoalError> {
    let mut gpus = lower_gpus(report, cfg)?;
    let gpn = cfg.gpus_per_node.unwrap_or(report.gpus_per_node).max(1);
    let mapping: Vec<u32> = (0..report.num_gpus() as u32).map(|g| g / gpn).collect();
    merge_gpus(&mapping, cfg, |g| gpus.take_rank(g))
}

/// Stages 2+3: a GOAL schedule with one rank per **GPU**.
pub fn gpu_level(report: &NsysReport, cfg: &NcclToGoalConfig) -> Result<GoalSchedule, GoalError> {
    lower_gpus(report, cfg)?.build()
}

/// Stages 2+3 into a builder with one rank per GPU.
fn lower_gpus(report: &NsysReport, cfg: &NcclToGoalConfig) -> Result<GoalBuilder, GoalError> {
    let ngpus = report.num_gpus();
    let mut b = GoalBuilder::new(ngpus);
    // ports[gpu][record] = (entry, exit) vertices of the record's decomposition.
    let mut ports: Vec<Vec<Option<(TaskId, TaskId)>>> =
        report.gpus.iter().map(|g| vec![None; g.records.len()]).collect();
    let mut next_tag: u32 = 0;

    // ---- Stage 3a: collective instances per communicator ----
    let comm_members: HashMap<u32, &[u32], FastBuildHasher> =
        report.comms.iter().map(|c| (c.id, c.gpus.as_slice())).collect();
    // comm id -> per-member ordered record indices. Iterated below, so
    // ordered: builder vertex ids must not depend on bucket layout.
    let mut instances: BTreeMap<u32, Vec<Vec<usize>>> = BTreeMap::new();
    for (gi, g) in report.gpus.iter().enumerate() {
        for (ri, rec) in g.records.iter().enumerate() {
            if matches!(rec.kernel, NcclKernel::Send { .. } | NcclKernel::Recv { .. }) {
                continue;
            }
            let members = comm_members.get(&rec.comm).ok_or_else(|| GoalError::Compose {
                msg: format!("record references unknown communicator {}", rec.comm),
            })?;
            let pos =
                members.iter().position(|&m| m == gi as u32).ok_or_else(|| GoalError::Compose {
                    msg: format!("gpu {gi} not a member of communicator {}", rec.comm),
                })?;
            let lists =
                instances.entry(rec.comm).or_insert_with(|| vec![Vec::new(); members.len()]);
            lists[pos].push(ri);
        }
    }
    for (&comm, lists) in &instances {
        let members = comm_members[&comm];
        let count = lists[0].len();
        if lists.iter().any(|l| l.len() != count) {
            return Err(GoalError::Compose {
                msg: format!("communicator {comm}: members disagree on collective count"),
            });
        }
        for i in 0..count {
            // The member records of this instance.
            let recs: Vec<&KernelRecord> = members
                .iter()
                .zip(lists.iter())
                .map(|(&g, list)| &report.gpus[g as usize].records[list[i]])
                .collect();
            let k0 = recs[0].kernel;
            if recs.iter().any(|r| std::mem::discriminant(&r.kernel) != std::mem::discriminant(&k0))
            {
                return Err(GoalError::Compose {
                    msg: format!("communicator {comm}: instance {i} kernel mismatch"),
                });
            }
            let mut ncfg = cfg.nccl;
            ncfg.stream = recs[0].stream;
            let tag = alloc_tag(&mut next_tag);
            let bytes = recs[0].bytes;
            let p = match k0 {
                NcclKernel::AllReduce => nc::allreduce(&mut b, members, bytes, tag, &ncfg),
                NcclKernel::Broadcast { root } => {
                    let root_pos = members.iter().position(|&m| m == root).ok_or_else(|| {
                        GoalError::Compose {
                            msg: format!(
                                "communicator {comm}: broadcast root {root} is not a member"
                            ),
                        }
                    })?;
                    nc::broadcast(&mut b, members, bytes, root_pos, tag, &ncfg)
                }
                NcclKernel::AllGather => nc::allgather(&mut b, members, bytes, tag, &ncfg),
                NcclKernel::ReduceScatter => nc::reduce_scatter(&mut b, members, bytes, tag, &ncfg),
                NcclKernel::AllToAll => {
                    nc::alltoall(&mut b, members, bytes / members.len() as u64, tag, &ncfg)
                }
                NcclKernel::Send { .. } | NcclKernel::Recv { .. } => unreachable!(),
            };
            for (m, &g) in members.iter().enumerate() {
                ports[g as usize][lists[m][i]] = Some((p.entry[m], p.exit[m]));
            }
        }
    }

    // ---- Stage 3b: point-to-point kernel pairs ----
    // (src, dst) -> (ordered send record idxs, ordered recv record idxs),
    // ordered because the pairs are walked to mint tags and vertices.
    let mut p2p: BTreeMap<(u32, u32), (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (gi, g) in report.gpus.iter().enumerate() {
        for (ri, rec) in g.records.iter().enumerate() {
            match rec.kernel {
                NcclKernel::Send { peer } => {
                    p2p.entry((gi as u32, peer)).or_default().0.push(ri);
                }
                NcclKernel::Recv { peer } => {
                    p2p.entry((peer, gi as u32)).or_default().1.push(ri);
                }
                _ => {}
            }
        }
    }
    for (&(src, dst), (sends, recvs)) in &p2p {
        if sends.len() != recvs.len() {
            return Err(GoalError::Compose {
                msg: format!("p2p {src}->{dst}: {} sends but {} recvs", sends.len(), recvs.len()),
            });
        }
        for (&sk, &rk) in sends.iter().zip(recvs) {
            let bytes = report.gpus[src as usize].records[sk].bytes;
            let mut ncfg = cfg.nccl;
            ncfg.stream = report.gpus[src as usize].records[sk].stream;
            ncfg.launch_ns = 0; // launch charged via the stream-gap calc
            let tag = alloc_tag(&mut next_tag);
            let (se, sx, re, rx) = nc::p2p(&mut b, src, dst, bytes, tag, &ncfg);
            ports[src as usize][sk] = Some((se, sx));
            ports[dst as usize][rk] = Some((re, rx));
        }
    }

    // ---- Stage 2: stream chains with inferred computation ----
    for (gi, g) in report.gpus.iter().enumerate() {
        // last (exit, tend) per stream; lookup-only, never iterated
        let mut last: HashMap<u32, (TaskId, u64), FastBuildHasher> =
            HashMap::with_hasher(FastBuildHasher::default());
        for (ri, rec) in g.records.iter().enumerate() {
            let (entry, exit) = ports[gi][ri].ok_or_else(|| GoalError::Compose {
                msg: format!("gpu {gi} record {ri} lost its ports"),
            })?;
            match last.get(&rec.stream) {
                Some(&(prev_exit, prev_end)) => {
                    let gap = rec.tstart.saturating_sub(prev_end);
                    if gap > 0 {
                        let c = b.calc_on(gi as Rank, gap, rec.stream);
                        b.requires(gi as Rank, c, prev_exit);
                        b.requires(gi as Rank, entry, c);
                    } else {
                        b.requires(gi as Rank, entry, prev_exit);
                    }
                }
                None => {
                    // Leading computation before the stream's first kernel.
                    if rec.tstart > 0 {
                        let c = b.calc_on(gi as Rank, rec.tstart, rec.stream);
                        b.requires(gi as Rank, entry, c);
                    }
                }
            }
            last.insert(rec.stream, (exit, rec.tend));
        }
    }

    Ok(b)
}

fn alloc_tag(next: &mut u32) -> u32 {
    let t = *next;
    *next += 64; // room for per-channel tag offsets
    t
}

/// Stage 4: merge GPU ranks into node ranks.
///
/// `mapping[g]` is the node of GPU `g`. A node's tasks are its GPUs' tasks
/// back to back in GPU order, so a task's node-local id is its old id plus
/// the task count of the node's earlier GPUs and no id table is needed.
/// Streams are offset per GPU so they stay independent; intra-node
/// sends/recvs become calc vertices joined by an explicit dependency edge
/// (the NVLink copy).
pub fn group_gpus(
    gpu_goal: &GoalSchedule,
    mapping: &[u32],
    cfg: &NcclToGoalConfig,
) -> Result<GoalSchedule, GoalError> {
    let ngpus = gpu_goal.num_ranks();
    if mapping.len() != ngpus {
        return Err(GoalError::Compose {
            msg: format!("mapping covers {} GPUs, schedule has {ngpus}", mapping.len()),
        });
    }
    merge_gpus(mapping, cfg, |g| Ok(gpu_goal.rank(g)))
}

/// The Stage 4 body. `gpu(g)` is GPU `g`'s DAG, asked for once and in GPU
/// order: borrowed from a finished schedule, or taken out of a builder and
/// dropped here as soon as it is merged.
fn merge_gpus<S: Borrow<RankSchedule>>(
    mapping: &[u32],
    cfg: &NcclToGoalConfig,
    mut gpu: impl FnMut(Rank) -> Result<S, GoalError>,
) -> Result<GoalSchedule, GoalError> {
    let node_of = |gpu: u32| {
        mapping.get(gpu as usize).copied().ok_or_else(|| GoalError::Compose {
            msg: format!("peer GPU {gpu} outside the {}-GPU mapping", mapping.len()),
        })
    };
    let nnodes = mapping.iter().copied().max().map_or(0, |m| m as usize + 1);
    // GPUs placed on each node so far: a GPU's local index within its node.
    let mut counts = vec![0u32; nnodes];

    let mut b = GoalBuilder::new(nnodes);
    // intra-node pairing: (src_gpu, dst_gpu, tag) -> fifo lists of new
    // ids. Ordered maps: the pairing loop below iterates them, and the
    // dependency-edge insertion order feeds the CSR layout.
    let mut intra_sends: BTreeMap<(u32, u32, u32), Vec<TaskId>> = BTreeMap::new();
    let mut intra_recvs: BTreeMap<(u32, u32, u32), Vec<(u32, TaskId)>> = BTreeMap::new();

    for (g, &node) in mapping.iter().enumerate() {
        let g = g as u32;
        let stream_base = counts[node as usize] * STREAM_STRIDE;
        counts[node as usize] += 1;
        b.append(node, gpu(g)?.borrow(), |id, t| {
            let task = match t.kind {
                TaskKind::Calc { cost } => Task::calc(cost),
                TaskKind::Send { bytes, dst, tag } => {
                    let dst_node = node_of(dst)?;
                    if dst_node == node {
                        // NVLink copy: sender-side cost carries the transfer.
                        intra_sends.entry((g, dst, tag)).or_default().push(id);
                        Task::calc(cfg.intra_base_ns + cfg.intra_per_byte.trunc(bytes))
                    } else {
                        // Tags gain the source GPU's low bits so merged
                        // node pairs don't cross-match different GPU pairs.
                        Task::send(dst_node, bytes, (tag << 3) | (g & 7))
                    }
                }
                TaskKind::Recv { bytes, src, tag } => {
                    let src_node = node_of(src)?;
                    if src_node == node {
                        intra_recvs.entry((src, g, tag)).or_default().push((node, id));
                        Task::calc(0)
                    } else {
                        Task::recv(src_node, bytes, (tag << 3) | (src & 7))
                    }
                }
            };
            Ok(task.on_stream(stream_base + t.stream))
        })?;
    }

    // Data-flow edges for intra-node transfers (FIFO per key).
    for (key, sends) in &intra_sends {
        let recvs = intra_recvs.get(key).ok_or_else(|| GoalError::Compose {
            msg: format!("intra-node send {key:?} has no matching recv"),
        })?;
        if sends.len() != recvs.len() {
            return Err(GoalError::Compose {
                msg: format!("intra-node pair {key:?}: send/recv count mismatch"),
            });
        }
        for (&s, &(node, r)) in sends.iter().zip(recvs) {
            b.requires(node, r, s);
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_tracers::nccl::{presets, trace_llm};

    fn small_llama() -> NsysReport {
        let mut cfg = presets::llama7b_dp16(0.01);
        cfg.iterations = 1;
        cfg.batch = 16;
        trace_llm(&cfg)
    }

    fn run(goal: &GoalSchedule) -> atlahs_core::SimReport {
        let mut be = IdealBackend::new(200, 1000);
        Simulation::new(goal).run(&mut be).expect("no deadlock")
    }

    #[test]
    fn gpu_level_matches_and_completes() {
        let rep = small_llama();
        let goal = gpu_level(&rep, &NcclToGoalConfig::default()).unwrap();
        assert_eq!(goal.num_ranks(), 16);
        check_matching(&goal).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn node_level_has_node_ranks() {
        let rep = small_llama();
        let goal = convert(&rep, &NcclToGoalConfig::default()).unwrap();
        assert_eq!(goal.num_ranks(), 4, "16 GPUs / 4 per node");
        check_matching(&goal).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn what_if_regrouping_changes_node_count() {
        let rep = small_llama();
        let cfg = NcclToGoalConfig { gpus_per_node: Some(2), ..NcclToGoalConfig::default() };
        let goal = convert(&rep, &cfg).unwrap();
        assert_eq!(goal.num_ranks(), 8, "16 GPUs / 2 per node");
        run(&goal);
    }

    #[test]
    fn intra_node_traffic_becomes_calc() {
        // All 16 GPUs on ONE node: no sends should remain.
        let rep = small_llama();
        let cfg = NcclToGoalConfig { gpus_per_node: Some(16), ..NcclToGoalConfig::default() };
        let goal = convert(&rep, &cfg).unwrap();
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 0, "single node: everything is NVLink");
        assert_eq!(goal.num_ranks(), 1);
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn fewer_gpus_per_node_means_more_wire_bytes() {
        let rep = small_llama();
        let bytes_at = |gpn: u32| {
            let cfg = NcclToGoalConfig { gpus_per_node: Some(gpn), ..NcclToGoalConfig::default() };
            let goal = convert(&rep, &cfg).unwrap();
            atlahs_goal::ScheduleStats::of(&goal).bytes_sent
        };
        assert!(bytes_at(1) >= bytes_at(4));
        assert!(bytes_at(4) >= bytes_at(8));
    }

    #[test]
    fn pp_traces_convert() {
        let mut c = presets::mistral8x7b(0.01);
        c.iterations = 1;
        c.batch = 8;
        let rep = trace_llm(&c);
        let goal = convert(&rep, &NcclToGoalConfig::default()).unwrap();
        check_matching(&goal).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
        assert_eq!(goal.num_ranks(), 16);
    }

    #[test]
    fn moe_traces_convert_with_tp_and_ep() {
        let mut c = presets::moe8x13b(0.01);
        c.iterations = 1;
        c.batch = 8;
        let rep = trace_llm(&c);
        let goal = convert(&rep, &NcclToGoalConfig::default()).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn stream_gaps_become_compute() {
        let rep = small_llama();
        let goal = gpu_level(&rep, &NcclToGoalConfig::default()).unwrap();
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // The backward-pass gaps recorded by the tracer must surface.
        assert!(stats.calc_ns > 1_000_000, "calc_ns = {}", stats.calc_ns);
    }

    #[test]
    fn conversion_is_byte_stable_across_runs() {
        // The converter walks several maps while minting tags, vertices
        // and dependency edges; all of them are ordered or lookup-only,
        // so two conversions of one report must encode identically.
        let rep = small_llama();
        let cfg = NcclToGoalConfig::default();
        let a = atlahs_goal::binary::encode(&convert(&rep, &cfg).unwrap());
        let b = atlahs_goal::binary::encode(&convert(&rep, &cfg).unwrap());
        assert_eq!(a, b, "node-level conversion must be byte-stable");
        let ga = atlahs_goal::binary::encode(&gpu_level(&rep, &cfg).unwrap());
        let gb = atlahs_goal::binary::encode(&gpu_level(&rep, &cfg).unwrap());
        assert_eq!(ga, gb, "gpu-level conversion must be byte-stable");
    }

    #[test]
    fn broadcast_from_a_non_member_root_is_an_error() {
        // Communicator {0, 1} broadcasting from GPU 2: the root used to
        // fall back to member 0 silently.
        use atlahs_tracers::nccl::{CommDef, GpuTrace};
        let record = KernelRecord {
            kernel: NcclKernel::Broadcast { root: 2 },
            bytes: 1 << 20,
            comm: 7,
            stream: 0,
            tstart: 0,
            tend: 10,
        };
        let gpus = (0..2).map(|g| GpuTrace { gpu: g, node: 0, records: vec![record] }).collect();
        let report = NsysReport {
            app: "bcast".into(),
            gpus,
            comms: vec![CommDef { id: 7, gpus: vec![0, 1] }],
            gpus_per_node: 2,
        };
        let err = gpu_level(&report, &NcclToGoalConfig::default()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, GoalError::Compose { .. }), "{msg}");
        assert!(msg.contains("communicator 7") && msg.contains("root 2"), "{msg}");
    }

    #[test]
    fn short_mapping_is_an_error_not_a_panic() {
        let gpu_goal = gpu_level(&small_llama(), &NcclToGoalConfig::default()).unwrap();
        let err = group_gpus(&gpu_goal, &[0; 15], &NcclToGoalConfig::default()).unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }), "{err}");
    }

    #[test]
    fn peer_outside_the_mapping_is_an_error_not_a_panic() {
        // An unvalidated GPU-level schedule can name a GPU that does not
        // exist; Stage 4 indexes the mapping by peer.
        let mut b = GoalBuilder::new(1);
        b.send(0, 5, 64, 0);
        let gpu_goal = b.build_unchecked().unwrap();
        let err = group_gpus(&gpu_goal, &[0], &NcclToGoalConfig::default()).unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }), "{err}");
    }

    #[test]
    fn protocol_choice_alters_wire_volume() {
        use atlahs_collectives::nccl::NcclProtocol;
        let rep = small_llama();
        let vol = |proto: NcclProtocol| {
            let mut cfg = NcclToGoalConfig::default();
            cfg.nccl.protocol = proto;
            let goal = convert(&rep, &cfg).unwrap();
            atlahs_goal::ScheduleStats::of(&goal).bytes_sent
        };
        assert!(vol(NcclProtocol::Ll) > vol(NcclProtocol::Simple) * 3 / 2);
    }
}
