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
//!   restructures the job for "what-if" studies. [`convert`] moves each
//!   GPU out of the Stage 2+3 builder as its task columns and edge list,
//!   so the GPU level is never indexed; intra-node sends and recvs are
//!   paired FIFO per (src GPU, dst GPU, tag) through a lookup table and
//!   joined in ascending key order.

use std::collections::{BTreeMap, HashMap};

use atlahs_collectives::nccl::{self as nc, NcclConfig};
use atlahs_core::NsPerByte;
use atlahs_eventq::hash::FastBuildHasher;
use atlahs_goal::{GoalBuilder, GoalError, GoalSchedule, Rank, Task, TaskId, TaskKind};
use atlahs_tracers::nccl::{KernelRecord, NcclKernel, NsysReport};

/// Converter configuration.
#[derive(Debug, Clone, Default)]
pub struct NcclToGoalConfig {
    /// NCCL schedule parameters (algorithm, protocol, channels, chunking).
    pub nccl: NcclConfig,
    /// Override the report's GPUs-per-node for what-if restructuring.
    pub gpus_per_node: Option<u32>,
}

/// Intra-node (NVLink-class, 150 GB/s) transfer cost: this base plus
/// [`INTRA_PER_BYTE`] per byte, rounded down.
pub const INTRA_BASE_NS: u64 = 1_000;
/// Intra-node per-byte cost: 1/150 ns per byte.
pub const INTRA_PER_BYTE: NsPerByte = NsPerByte::ratio(1, 150);

/// Stream-id stride separating GPUs merged onto one node (Stage 4).
const STREAM_STRIDE: u32 = 16;

/// Convert an nsys report into a node-level GOAL schedule.
///
/// Lowers in one level: Stage 4 moves the GPUs out of the Stage 2+3
/// builder one at a time as their task columns and edge lists, so the
/// GPU-level schedule is never indexed, nor held next to the node-level one.
pub fn convert(report: &NsysReport, cfg: &NcclToGoalConfig) -> Result<GoalSchedule, GoalError> {
    let gpus = lower_gpus(report, cfg)?;
    merge_gpus(gpus, cfg.gpus_per_node.unwrap_or(report.gpus_per_node).max(1))
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

/// Intra-node transfers awaiting their data-flow edge: per (src GPU,
/// dst GPU, tag) key, the send-side and the recv-side calcs in arrival
/// order (FIFO lists), found through a lookup table from key to slot.
#[derive(Default)]
struct IntraPairs {
    /// Lookup-only, never iterated: the pairing order comes from sorting
    /// `keys`.
    slots: HashMap<(u32, u32, u32), u32, FastBuildHasher>,
    keys: Vec<(u32, u32, u32)>,
    /// Per slot: the sends, then the recvs.
    lists: Vec<[Vec<TaskId>; 2]>,
}

impl IntraPairs {
    const SEND: usize = 0;
    const RECV: usize = 1;

    fn push(&mut self, key: (u32, u32, u32), side: usize, task: TaskId) {
        let next = self.keys.len() as u32;
        let slot = *self.slots.entry(key).or_insert(next) as usize;
        if slot == self.keys.len() {
            self.keys.push(key);
            self.lists.push(Default::default());
        }
        self.lists[slot][side].push(task);
    }

    /// Add the data-flow edge of every pair to `b`, on the node of the
    /// pair's GPUs (`gpn` GPUs per node): keys that have sends in
    /// ascending key order, each key's sends and recvs paired FIFO.
    fn emit(self, b: &mut GoalBuilder, gpn: u32) -> Result<(), GoalError> {
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_unstable_by_key(|&slot| self.keys[slot as usize]);
        for slot in order {
            let key = self.keys[slot as usize];
            let [sends, recvs] = &self.lists[slot as usize];
            if sends.is_empty() {
                continue;
            }
            if recvs.is_empty() {
                return Err(GoalError::Compose {
                    msg: format!("intra-node send {key:?} has no matching recv"),
                });
            }
            if sends.len() != recvs.len() {
                return Err(GoalError::Compose {
                    msg: format!("intra-node pair {key:?}: send/recv count mismatch"),
                });
            }
            let node = key.1 / gpn;
            for (&s, &r) in sends.iter().zip(recvs) {
                b.requires(node, r, s);
            }
        }
        Ok(())
    }
}

/// Stage 4: merge GPU ranks into node ranks, `gpn` consecutive GPUs per
/// node. Each GPU is moved out of the Stage 2+3 builder `gpus` in GPU
/// order and dropped once merged.
///
/// A node's tasks are its GPUs' tasks back to back in GPU order, so a
/// task's node-local id is its old id plus the task count of the node's
/// earlier GPUs and no id table is needed. Streams are offset per GPU so
/// they stay independent; intra-node sends/recvs become calc vertices
/// joined by an explicit dependency edge (the NVLink copy).
fn merge_gpus(mut gpus: GoalBuilder, gpn: u32) -> Result<GoalSchedule, GoalError> {
    let ngpus = gpus.num_ranks() as u32;
    let mut b = GoalBuilder::new(ngpus.div_ceil(gpn) as usize);
    let mut intra = IntraPairs::default();

    for g in 0..ngpus {
        let node = g / gpn;
        let stream_base = (g % gpn) * STREAM_STRIDE;
        let map = |id, t: Task| {
            let task = match t.kind {
                TaskKind::Calc { cost } => Task::calc(cost),
                TaskKind::Send { bytes, dst, tag } => {
                    let dst_node = dst / gpn;
                    if dst_node == node {
                        // NVLink copy: sender-side cost carries the transfer.
                        intra.push((g, dst, tag), IntraPairs::SEND, id);
                        Task::calc(INTRA_BASE_NS + INTRA_PER_BYTE.trunc(bytes))
                    } else {
                        // Tags gain the source GPU's low bits so merged
                        // node pairs don't cross-match different GPU pairs.
                        Task::send(dst_node, bytes, (tag << 3) | (g & 7))
                    }
                }
                TaskKind::Recv { bytes, src, tag } => {
                    let src_node = src / gpn;
                    if src_node == node {
                        intra.push((src, g, tag), IntraPairs::RECV, id);
                        Task::calc(0)
                    } else {
                        Task::recv(src_node, bytes, (tag << 3) | (src & 7))
                    }
                }
            };
            Ok(task.on_stream(stream_base + t.stream))
        };
        b.append(node, &gpus.take_rank(g)?, map)?;
    }

    // Data-flow edges for intra-node transfers.
    intra.emit(&mut b, gpn)?;
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
    fn stage4_keeps_payloads_wider_than_32_bits() {
        // GPUs 0 and 2 sit on nodes 0 and 1: GPU 0 computes and sends to
        // GPU 2 every payload at the edge of a task record's 32 bits.
        let edges = [0, (1 << 32) - 2, (1 << 32) - 1, 1 << 32, u64::MAX];
        let mut gpus = GoalBuilder::new(4);
        for (i, &p) in edges.iter().enumerate() {
            gpus.calc_on(0, p, 1);
            gpus.send(0, 2, p, i as u32);
            gpus.recv(2, 0, p, i as u32);
        }
        let goal = merge_gpus(gpus, 2).unwrap();
        let sends = edges
            .iter()
            .zip(0u32..)
            .flat_map(|(&p, tag)| [Task::calc(p).on_stream(1), Task::send(1, p, tag << 3)]);
        assert!(goal.rank(0).tasks().eq(sends));
        let recvs = edges.iter().zip(0u32..).map(|(&p, tag)| Task::recv(0, p, tag << 3));
        assert!(goal.rank(1).tasks().eq(recvs));
        // 15 B per task on two streams, 13 on one, 16 per payload of
        // u32::MAX or more.
        assert_eq!(goal.rank(0).task_arena_bytes(), 10 * 15 + 6 * 16);
        assert_eq!(goal.rank(1).task_arena_bytes(), 5 * 13 + 3 * 16);
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
