//! Stage 4 against its former implementation, and the lowered GOAL bytes
//! against hashes taken at an earlier commit.
//!
//! `convert` assigns node-local task ids arithmetically (`base + old id`)
//! while it moves the GPUs out of the Stage 2+3 builder. The map-based
//! Stage 4 it replaced lives on below, verbatim, as a test-only oracle
//! over the built GPU-level schedule: for every preset and grouping
//! factor the two must produce `==` schedules and identical binary
//! encodings.

use std::collections::{BTreeMap, HashMap};

use atlahs_eventq::hash::FastBuildHasher;
use atlahs_goal::{binary, GoalBuilder, GoalError, GoalSchedule, Rank, Task, TaskId, TaskKind};
use atlahs_schedgen::nccl2goal::{convert, gpu_level, NcclToGoalConfig, INTRA_BASE_NS};
use atlahs_tracers::nccl::{presets, trace_llm, LlmConfig, NsysReport};

const STREAM_STRIDE: u32 = 16;

/// The Stage 4 of the parent commit: ids through a `(gpu, old id)` map.
fn group_gpus_reference(
    gpu_goal: &GoalSchedule,
    mapping: &[u32],
) -> Result<GoalSchedule, GoalError> {
    let ngpus = gpu_goal.num_ranks();
    assert_eq!(mapping.len(), ngpus, "mapping must cover every GPU");
    let nnodes = mapping.iter().copied().max().map_or(0, |m| m as usize + 1);
    // local index of each gpu within its node
    let mut local = vec![0u32; ngpus];
    let mut counts = vec![0u32; nnodes];
    for g in 0..ngpus {
        local[g] = counts[mapping[g] as usize];
        counts[mapping[g] as usize] += 1;
    }

    let mut b = GoalBuilder::new(nnodes);
    // (gpu, old task id) -> new task id on the node; lookup-only
    let mut remap: HashMap<(u32, u32), TaskId, FastBuildHasher> =
        HashMap::with_hasher(FastBuildHasher::default());
    let mut intra_sends: BTreeMap<(u32, u32, u32), Vec<TaskId>> = BTreeMap::new();
    let mut intra_recvs: BTreeMap<(u32, u32, u32), Vec<(u32, TaskId)>> = BTreeMap::new();

    for g in 0..ngpus {
        let node = mapping[g];
        let sched = gpu_goal.rank(g as Rank);
        for (ti, t) in sched.tasks().enumerate() {
            let stream = local[g] * STREAM_STRIDE + t.stream;
            let new_id = match t.kind {
                TaskKind::Calc { cost } => b.add_task(node, Task::calc(cost).on_stream(stream)),
                TaskKind::Send { bytes, dst, tag } => {
                    if mapping[dst as usize] == node {
                        // The parent's float NVLink rate, 1/150 ns/B.
                        let cost = INTRA_BASE_NS + (bytes as f64 * (1.0 / 150.0)) as u64;
                        let id = b.add_task(node, Task::calc(cost).on_stream(stream));
                        intra_sends.entry((g as u32, dst, tag)).or_default().push(id);
                        id
                    } else {
                        let tag = (tag << 3) | (g as u32 & 7);
                        b.add_task(
                            node,
                            Task::send(mapping[dst as usize], bytes, tag).on_stream(stream),
                        )
                    }
                }
                TaskKind::Recv { bytes, src, tag } => {
                    if mapping[src as usize] == node {
                        let id = b.add_task(node, Task::calc(0).on_stream(stream));
                        intra_recvs.entry((src, g as u32, tag)).or_default().push((node, id));
                        id
                    } else {
                        let tag = (tag << 3) | (src & 7);
                        b.add_task(
                            node,
                            Task::recv(mapping[src as usize], bytes, tag).on_stream(stream),
                        )
                    }
                }
            };
            remap.insert((g as u32, ti as u32), new_id);
        }
    }

    // Copy intra-GPU dependency edges.
    for g in 0..ngpus {
        let node = mapping[g];
        let sched = gpu_goal.rank(g as Rank);
        for (a, dep, kind) in sched.dep_edges() {
            let na = remap[&(g as u32, a.0)];
            let nb = remap[&(g as u32, dep.0)];
            match kind {
                atlahs_goal::DepKind::Full => b.requires(node, na, nb),
                atlahs_goal::DepKind::Start => b.irequires(node, na, nb),
            }
        }
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

fn one_iteration(mut cfg: LlmConfig, batch: u32) -> NsysReport {
    cfg.iterations = 1;
    cfg.batch = batch;
    trace_llm(&cfg)
}

fn reports() -> [(&'static str, NsysReport); 3] {
    [
        ("llama7b_dp16", one_iteration(presets::llama7b_dp16(0.01), 16)),
        ("mistral8x7b", one_iteration(presets::mistral8x7b(0.01), 8)),
        ("moe8x13b", one_iteration(presets::moe8x13b(0.01), 8)),
    ]
}

/// `convert` groups the report's own `gpus_per_node` when the config
/// leaves it unset, and a factor that does not divide the GPU count leaves
/// a last node with fewer GPUs; both must match the reference.
#[test]
fn stage4_equals_the_map_based_reference() {
    for (name, report) in &reports() {
        let ngpus = report.num_gpus() as u32;
        for gpn in [None, Some(3u32), Some(5)] {
            let cfg = NcclToGoalConfig { gpus_per_node: gpn, ..NcclToGoalConfig::default() };
            let per_node = gpn.unwrap_or(report.gpus_per_node).max(1);
            let mapping: Vec<u32> = (0..ngpus).map(|g| g / per_node).collect();
            let got = convert(report, &cfg).unwrap();
            let want = group_gpus_reference(&gpu_level(report, &cfg).unwrap(), &mapping).unwrap();
            assert!(got == want, "{name} gpn={gpn:?}: schedule differs from oracle");
            assert!(
                binary::encode(&got) == binary::encode(&want),
                "{name} gpn={gpn:?}: encoding differs from oracle"
            );
        }
    }
}

/// `convert` takes the GPUs out of the Stage 2+3 builder one at a time and
/// never builds the GPU-level schedule; the reference groups the built one.
/// The two must agree for every grouping factor that divides the GPUs.
#[test]
fn one_level_convert_equals_grouping_the_gpu_level_schedule() {
    for (name, report) in &reports() {
        let ngpus = report.num_gpus() as u32;
        for gpn in [1u32, 2, 4, 8, 16] {
            let cfg = NcclToGoalConfig { gpus_per_node: Some(gpn), ..NcclToGoalConfig::default() };
            let contiguous: Vec<u32> = (0..ngpus).map(|g| g / gpn).collect();
            let got = convert(report, &cfg).unwrap();
            let want =
                group_gpus_reference(&gpu_level(report, &cfg).unwrap(), &contiguous).unwrap();
            assert!(got == want, "{name} gpn={gpn}: one-level lowering differs");
            assert!(
                binary::encode(&got) == binary::encode(&want),
                "{name} gpn={gpn}: one-level encoding differs"
            );
        }
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `conversion_is_byte_stable_across_runs` compares two conversions made by
/// one build; these constants were computed at the commit before lowering
/// became array-indexed, so they catch drift *between* commits. Moving them
/// changes every downstream GOAL file and must be a deliberate decision.
#[test]
fn lowered_bytes_match_the_cross_commit_pin() {
    let report = one_iteration(presets::llama7b_dp16(0.01), 16);
    let cfg = NcclToGoalConfig::default();
    let node = binary::encode(&convert(&report, &cfg).unwrap());
    let gpu = binary::encode(&gpu_level(&report, &cfg).unwrap());
    assert_eq!((node.len(), fnv1a(&node)), (863_273, 0x49e2_2cd6_bb3b_839f), "node level");
    assert_eq!((gpu.len(), fnv1a(&gpu)), (955_545, 0x7abf_489d_826b_b30b), "gpu level");
}
