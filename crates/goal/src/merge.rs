//! Multi-job and multi-tenant composition of GOAL schedules (paper §3.2).
//!
//! * **Multi-job**: distinct applications run on disjoint node sets. Each
//!   job's DAG is remapped onto its allocated nodes; ranks keep their own
//!   schedules.
//! * **Multi-tenancy**: several jobs share nodes. Their per-rank DAGs are
//!   merged into one schedule per node. Each job gets a disjoint range of
//!   compute streams (so tenants execute concurrently, as with the dummy-node
//!   construction of the paper) and a disjoint tag namespace (so message
//!   matching never crosses job boundaries).

use crate::builder::GoalBuilder;
use crate::error::GoalError;
use crate::schedule::GoalSchedule;
use crate::task::{Rank, Task, TaskId, TaskKind};

/// Tags are namespaced per job in the upper byte; applications must keep
/// their own tags below this bound to be composable.
pub const TAG_STRIDE: u32 = 1 << 24;

/// The most jobs one composition can hold: the tag namespace dedicates the
/// upper byte of the 32-bit tag to the job index (`u32::MAX / TAG_STRIDE + 1`
/// slots), so job indices beyond 255 would collide with earlier tenants'
/// tag ranges. [`compose`] rejects larger batches up front.
pub const MAX_JOBS: usize = (u32::MAX / TAG_STRIDE) as usize + 1;

/// A job to compose: a schedule plus the physical node each of its ranks
/// is placed on (`nodes[r]` = physical node of job rank `r`).
#[derive(Debug, Clone)]
pub struct PlacedJob<'a> {
    pub goal: &'a GoalSchedule,
    pub nodes: Vec<Rank>,
}

impl<'a> PlacedJob<'a> {
    pub fn new(goal: &'a GoalSchedule, nodes: Vec<Rank>) -> Self {
        PlacedJob { goal, nodes }
    }
}

/// Compose jobs onto a cluster of `total_ranks` physical nodes.
///
/// Jobs whose placements are disjoint produce a plain multi-job schedule;
/// overlapping placements produce multi-tenant ranks. Tags are offset by
/// [`TAG_STRIDE`] per job (at most [`MAX_JOBS`] jobs per composition);
/// compute streams of co-located tenants are offset so they never serialize
/// against each other. On nodes that genuinely host two or more tenants,
/// each tenant's sub-DAG is anchored under a zero-cost dummy root vertex,
/// mirroring the dummy-vertex merge of the paper; nodes with a single
/// tenant keep that tenant's schedule verbatim, so a disjoint multi-job
/// composition is task-for-task identical to placing each job alone.
pub fn compose(jobs: &[PlacedJob<'_>], total_ranks: usize) -> Result<GoalSchedule, GoalError> {
    if jobs.len() > MAX_JOBS {
        return Err(GoalError::Compose {
            msg: format!(
                "{} jobs exceed the {MAX_JOBS}-job tag-namespace bound \
                 (each job owns one TAG_STRIDE slice of the 32-bit tag space)",
                jobs.len()
            ),
        });
    }
    // Validate placements.
    for (j, job) in jobs.iter().enumerate() {
        if job.nodes.len() != job.goal.num_ranks() {
            return Err(GoalError::Compose {
                msg: format!(
                    "job {j}: placement has {} nodes but schedule has {} ranks",
                    job.nodes.len(),
                    job.goal.num_ranks()
                ),
            });
        }
        for &n in &job.nodes {
            if n as usize >= total_ranks {
                return Err(GoalError::Compose {
                    msg: format!("job {j}: node {n} out of range (cluster has {total_ranks})"),
                });
            }
        }
        // A job must not place two of its own ranks on the same node: its
        // sends/recvs between them would become self-messages.
        let mut seen = vec![false; total_ranks];
        for &n in &job.nodes {
            if seen[n as usize] {
                return Err(GoalError::Compose {
                    msg: format!("job {j}: node {n} used by two ranks of the same job"),
                });
            }
            seen[n as usize] = true;
        }
    }

    // How many tenants with actual work land on each node: only nodes
    // hosting >= 2 of them need dummy-root anchors (a sole tenant's
    // schedule is kept verbatim, exactly as `place` would emit it).
    let mut tenants: Vec<u32> = vec![0; total_ranks];
    for job in jobs {
        for (r, sched) in job.goal.ranks().iter().enumerate() {
            if !sched.is_empty() {
                tenants[job.nodes[r] as usize] += 1;
            }
        }
    }

    let mut b = GoalBuilder::new(total_ranks);
    // Next free stream id per node, so tenants get disjoint stream ranges.
    let mut next_stream: Vec<u32> = vec![0; total_ranks];

    for (j, job) in jobs.iter().enumerate() {
        // In range by the MAX_JOBS check above: j <= 255, so the product
        // stays within u32 and distinct jobs get disjoint tag slices.
        let tag_base = (j as u32) * TAG_STRIDE;
        for (r, sched) in job.goal.ranks().iter().enumerate() {
            if sched.is_empty() {
                // Places nothing and consumes no streams (repeated
                // composition must not leak stream ids).
                continue;
            }
            let node = job.nodes[r];
            let stream_base = next_stream[node as usize];
            let mut max_stream = 0u32;

            // Dummy root anchoring this tenant's sub-DAG, only where the
            // node is genuinely shared.
            let dummy = (tenants[node as usize] >= 2).then(|| b.calc_on(node, 0, stream_base));
            let base = b.num_tasks(node) as u32;

            b.append(node, sched, |_, t| {
                max_stream = max_stream.max(t.stream);
                let kind = match t.kind {
                    TaskKind::Calc { cost } => TaskKind::Calc { cost },
                    TaskKind::Send { bytes, dst, tag } => {
                        check_tag(j, tag)?;
                        TaskKind::Send { bytes, dst: job.nodes[dst as usize], tag: tag_base + tag }
                    }
                    TaskKind::Recv { bytes, src, tag } => {
                        check_tag(j, tag)?;
                        TaskKind::Recv { bytes, src: job.nodes[src as usize], tag: tag_base + tag }
                    }
                };
                Ok(Task { kind, stream: stream_base + t.stream })
            })?;
            if let Some(dummy) = dummy {
                for root in sched.roots() {
                    b.requires(node, TaskId(base + root.0), dummy);
                }
            }
            next_stream[node as usize] = stream_base + max_stream + 1;
        }
    }
    b.build()
}

fn check_tag(job: usize, tag: u32) -> Result<(), GoalError> {
    if tag >= TAG_STRIDE {
        return Err(GoalError::Compose {
            msg: format!("job {job}: tag {tag} exceeds composable range {TAG_STRIDE}"),
        });
    }
    Ok(())
}

/// Place a single job onto a larger cluster (multi-job building block).
pub fn place(
    goal: &GoalSchedule,
    nodes: Vec<Rank>,
    total_ranks: usize,
) -> Result<GoalSchedule, GoalError> {
    compose(&[PlacedJob::new(goal, nodes)], total_ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoalBuilder;

    fn ping(num_ranks: usize, bytes: u64) -> GoalSchedule {
        let mut b = GoalBuilder::new(num_ranks);
        b.send(0, 1, bytes, 0);
        b.recv(1, 0, bytes, 0);
        b.build().unwrap()
    }

    #[test]
    fn place_remaps_peers() {
        let job = ping(2, 64);
        let placed = place(&job, vec![3, 1], 4).unwrap();
        assert_eq!(placed.num_ranks(), 4);
        // rank 3 sends to rank 1
        let send =
            placed.rank(3).tasks().find(|t| matches!(t.kind, TaskKind::Send { .. })).unwrap();
        assert!(matches!(send.kind, TaskKind::Send { dst: 1, bytes: 64, .. }));
        let recv =
            placed.rank(1).tasks().find(|t| matches!(t.kind, TaskKind::Recv { .. })).unwrap();
        assert!(matches!(recv.kind, TaskKind::Recv { src: 3, bytes: 64, .. }));
        assert!(placed.rank(0).is_empty());
        assert!(placed.rank(2).is_empty());
    }

    #[test]
    fn disjoint_multi_job() {
        let a = ping(2, 10);
        let b = ping(2, 20);
        let merged =
            compose(&[PlacedJob::new(&a, vec![0, 1]), PlacedJob::new(&b, vec![2, 3])], 4).unwrap();
        // Every node hosts exactly one tenant, so no dummy anchors are
        // inserted: each node holds its tenant's single task, verbatim.
        for r in 0..4 {
            assert_eq!(merged.rank(r).num_tasks(), 1, "rank {r}");
            assert!(
                !merged.rank(r).tasks().any(|t| matches!(t.kind, TaskKind::Calc { cost: 0 })),
                "rank {r}: phantom dummy task in a disjoint composition"
            );
        }
        // Task-for-task identical to placing each job alone.
        let solo_a = place(&a, vec![0, 1], 4).unwrap();
        for r in 0..2 {
            assert_eq!(merged.rank(r).num_tasks(), solo_a.rank(r).num_tasks());
        }
        // Tags are namespaced by job.
        let t = merged
            .rank(2)
            .tasks()
            .find_map(|t| match t.kind {
                TaskKind::Send { tag, .. } => Some(tag),
                _ => None,
            })
            .unwrap();
        assert_eq!(t, TAG_STRIDE);
    }

    #[test]
    fn multi_tenant_shares_node_with_distinct_streams() {
        let a = ping(2, 10);
        let b = ping(2, 20);
        let merged =
            compose(&[PlacedJob::new(&a, vec![0, 1]), PlacedJob::new(&b, vec![0, 1])], 2).unwrap();
        // Node 0: dummy+send (job a) + dummy+send (job b).
        assert_eq!(merged.rank(0).num_tasks(), 4);
        let streams: Vec<u32> = merged.rank(0).tasks().map(|t| t.stream).collect();
        // Job a occupies stream 0, job b stream 1.
        assert_eq!(streams, vec![0, 0, 1, 1]);
        merged.validate().unwrap();
    }

    #[test]
    fn dummy_roots_anchor_tenant_dags() {
        let mut gb = GoalBuilder::new(1);
        let c1 = gb.calc(0, 5);
        let c2 = gb.calc(0, 7);
        gb.requires(0, c2, c1);
        let job = gb.build().unwrap();
        let merged =
            compose(&[PlacedJob::new(&job, vec![0]), PlacedJob::new(&job, vec![0])], 1).unwrap();
        let r0 = merged.rank(0);
        // 2 * (dummy + 2 calcs).
        assert_eq!(r0.num_tasks(), 6);
        // The dummy (task 0) must be the only root of tenant 0's sub-DAG.
        let roots: Vec<_> = r0.roots().collect();
        assert_eq!(roots, vec![TaskId(0), TaskId(3)]);
    }

    #[test]
    fn placement_length_mismatch_rejected() {
        let a = ping(2, 10);
        let err = compose(&[PlacedJob::new(&a, vec![0])], 2).unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }));
    }

    #[test]
    fn node_out_of_range_rejected() {
        let a = ping(2, 10);
        let err = compose(&[PlacedJob::new(&a, vec![0, 9])], 2).unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }));
    }

    #[test]
    fn duplicate_node_within_job_rejected() {
        let a = ping(2, 10);
        let err = compose(&[PlacedJob::new(&a, vec![1, 1])], 2).unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }));
    }

    #[test]
    fn empty_ranks_do_not_leak_stream_ids() {
        // Many jobs whose rank 1 is empty all park that rank on node 1.
        // Before the fix, every empty tenant still advanced node 1's
        // stream namespace by one, so a final tenant with real work there
        // started at stream `k` instead of 0.
        let mut gb = GoalBuilder::new(2);
        gb.calc(0, 5);
        let lopsided = gb.build().unwrap(); // rank 0 works, rank 1 is empty
        let mut jobs: Vec<PlacedJob<'_>> = Vec::new();
        for _ in 0..50 {
            jobs.push(PlacedJob::new(&lopsided, vec![0, 1]));
        }
        let tail = ping(2, 8); // non-empty on both ranks
        jobs.push(PlacedJob::new(&tail, vec![2, 1]));
        let merged = compose(&jobs, 3).unwrap();
        // Node 1 hosts exactly one tenant with work (the tail job's recv):
        // no dummy, and its stream must still be 0.
        assert_eq!(merged.rank(1).num_tasks(), 1);
        assert_eq!(merged.rank(1).tasks().next().unwrap().stream, 0);
        // Node 0 hosts 50 working tenants: streams stay dense (0..50).
        let max_stream = merged.rank(0).tasks().map(|t| t.stream).max().unwrap();
        assert_eq!(max_stream, 49);
        merged.validate().unwrap();
    }

    #[test]
    fn repeated_composition_keeps_streams_dense() {
        // The dynamic cluster engine composes afresh every epoch; each
        // composition must produce the same dense stream range.
        let a = ping(2, 10);
        for _ in 0..3 {
            let merged =
                compose(&[PlacedJob::new(&a, vec![0, 1]), PlacedJob::new(&a, vec![0, 1])], 2)
                    .unwrap();
            let max_stream =
                merged.ranks().iter().flat_map(|r| r.tasks()).map(|t| t.stream).max().unwrap();
            assert_eq!(max_stream, 1, "two tenants span exactly streams 0..=1");
        }
    }

    #[test]
    fn job_count_boundary_at_the_tag_namespace_limit() {
        assert_eq!(MAX_JOBS, 256);
        let mut gb = GoalBuilder::new(1);
        gb.calc(0, 1);
        let tiny = gb.build().unwrap();
        // Job index 255 (the 256th job) composes: its tag slice is the
        // last one in the 32-bit namespace.
        let jobs: Vec<PlacedJob<'_>> =
            (0..MAX_JOBS).map(|_| PlacedJob::new(&tiny, vec![0])).collect();
        let merged = compose(&jobs, 1).unwrap();
        assert_eq!(merged.total_tasks(), MAX_JOBS + MAX_JOBS); // calc + dummy each
                                                               // Job index 256 (a 257th job) is rejected with the explicit bound.
        let jobs: Vec<PlacedJob<'_>> =
            (0..MAX_JOBS + 1).map(|_| PlacedJob::new(&tiny, vec![0])).collect();
        let err = compose(&jobs, 1).unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains("256-job tag-namespace bound"), "{msg}");
    }

    #[test]
    fn oversized_tag_rejected() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 8, TAG_STRIDE);
        b.recv(1, 0, 8, TAG_STRIDE);
        let g = b.build().unwrap();
        let err = compose(&[PlacedJob::new(&g, vec![0, 1])], 2).unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }));
    }
}
