//! Multi-job and multi-tenant composition of GOAL schedules (paper §3.2).
//!
//! * **Multi-job**: distinct applications run on disjoint node sets. Each
//!   job's DAG is remapped onto its allocated nodes; ranks keep their own
//!   schedules.
//! * **Multi-tenancy**: several jobs share nodes. Their per-rank DAGs are
//!   merged into one schedule per node. Each job gets a disjoint range of
//!   compute streams (so tenants execute concurrently, as with the dummy-node
//!   construction of the paper).
//!
//! Tags follow the same split. A message matches on `(src node, dst node,
//! tag)`, so a job none of whose working ranks shares a node (a *sole
//! tenant*) cannot cross-match anyone and keeps its schedule verbatim,
//! tags included. Jobs that do share a node are shifted past each other
//! densely, in job order: each one's tags start one past the largest tag
//! of the previous sharing job.

use crate::builder::GoalBuilder;
use crate::error::GoalError;
use crate::schedule::GoalSchedule;
use crate::task::{Rank, Task, TaskId, TaskKind};

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

/// Compose jobs onto a cluster of `total_ranks` physical nodes; a single
/// job is placed by composing it alone.
///
/// Jobs whose placements are disjoint produce a plain multi-job schedule;
/// overlapping placements produce multi-tenant ranks. A sole tenant (no
/// working rank on a node another job works on) keeps its schedule
/// verbatim, tags included, so a disjoint multi-job composition is
/// task-for-task identical to placing each job alone. Sharing tenants
/// get dense, disjoint tag ranges in job order, and their compute streams
/// are offset so they never serialize against each other. On nodes that
/// genuinely host two or more tenants, each tenant's sub-DAG is anchored
/// under a zero-cost dummy root vertex, mirroring the dummy-vertex merge
/// of the paper.
///
/// Fails with [`GoalError::Compose`] on a malformed placement, when the
/// sharing tenants' shifted tags pass `u32::MAX`, or when a node's
/// tenants' stream ranges do not fit below it.
pub fn compose(jobs: &[PlacedJob<'_>], total_ranks: usize) -> Result<GoalSchedule, GoalError> {
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
    // hosting >= 2 of them need dummy-root anchors and shifted tags.
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
    // A u64, so a tenant may end at stream u32::MAX.
    let mut next_stream: Vec<u64> = vec![0; total_ranks];
    // One past the largest tag of the sharing tenants so far: the next
    // sharing tenant's tag base. A u64, so a tenant may end at u32::MAX.
    let mut free_tag = 0u64;

    for (j, job) in jobs.iter().enumerate() {
        let shares = job
            .goal
            .ranks()
            .iter()
            .zip(&job.nodes)
            .any(|(sched, &node)| !sched.is_empty() && tenants[node as usize] >= 2);
        let tag_base = if shares { free_tag } else { 0 };
        let mut tag_end = tag_base;
        for (r, sched) in job.goal.ranks().iter().enumerate() {
            if sched.is_empty() {
                // Places nothing and consumes no streams (repeated
                // composition must not leak stream ids).
                continue;
            }
            let node = job.nodes[r];
            let stream_base = next_stream[node as usize];
            let stream_of = |s: u32| {
                u32::try_from(stream_base + u64::from(s)).map_err(|_| GoalError::Compose {
                    msg: format!("job {j}: co-located tenants' streams pass u32::MAX"),
                })
            };
            let mut max_stream = 0u32;

            // Dummy root anchoring this tenant's sub-DAG, only where the
            // node is genuinely shared.
            let dummy = match tenants[node as usize] {
                2.. => Some(b.calc_on(node, 0, stream_of(0)?)),
                _ => None,
            };
            let base = b.num_tasks(node) as u32;

            b.append(node, sched, |_, t| {
                max_stream = max_stream.max(t.stream);
                let mut shift = |tag: u32| {
                    let tag = tag_base + u64::from(tag);
                    tag_end = tag_end.max(tag + 1);
                    u32::try_from(tag).map_err(|_| GoalError::Compose {
                        msg: format!("job {j}: co-located tenants' tags pass u32::MAX"),
                    })
                };
                let kind = match t.kind {
                    TaskKind::Calc { cost } => TaskKind::Calc { cost },
                    TaskKind::Send { bytes, dst, tag } => {
                        TaskKind::Send { bytes, dst: job.nodes[dst as usize], tag: shift(tag)? }
                    }
                    TaskKind::Recv { bytes, src, tag } => {
                        TaskKind::Recv { bytes, src: job.nodes[src as usize], tag: shift(tag)? }
                    }
                };
                Ok(Task { kind, stream: stream_of(t.stream)? })
            })?;
            if let Some(dummy) = dummy {
                for root in sched.roots() {
                    b.requires(node, TaskId(base + root.0), dummy);
                }
            }
            next_stream[node as usize] = stream_base + u64::from(max_stream) + 1;
        }
        if shares {
            free_tag = tag_end;
        }
    }
    b.build()
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
        let placed = compose(&[PlacedJob::new(&job, vec![3, 1])], 4).unwrap();
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
        let solo_a = compose(&[PlacedJob::new(&a, vec![0, 1])], 4).unwrap();
        for r in 0..2 {
            assert_eq!(merged.rank(r).num_tasks(), solo_a.rank(r).num_tasks());
        }
        // Sole tenants keep their tags.
        let t = merged
            .rank(2)
            .tasks()
            .find_map(|t| match t.kind {
                TaskKind::Send { tag, .. } => Some(tag),
                _ => None,
            })
            .unwrap();
        assert_eq!(t, 0);
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

    /// `(kind, tag)` of every message task of `rank`, in task order.
    fn tags(goal: &GoalSchedule, rank: Rank) -> Vec<(char, u32)> {
        goal.rank(rank)
            .tasks()
            .filter_map(|t| match t.kind {
                TaskKind::Send { tag, .. } => Some(('s', tag)),
                TaskKind::Recv { tag, .. } => Some(('r', tag)),
                TaskKind::Calc { .. } => None,
            })
            .collect()
    }

    /// A two-rank job exchanging one message per tag in `tags`.
    fn exchange(tags: &[u32]) -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        for &tag in tags {
            b.send(0, 1, 8, tag);
            b.recv(1, 0, 8, tag);
        }
        b.build().unwrap()
    }

    #[test]
    fn a_sole_tenant_keeps_tags_near_u32_max_under_any_placement() {
        let job = exchange(&[u32::MAX - 1, u32::MAX]);
        let placed = compose(&[PlacedJob::new(&job, vec![2, 0])], 3).unwrap();
        assert_eq!(tags(&placed, 2), [('s', u32::MAX - 1), ('s', u32::MAX)]);
        assert_eq!(tags(&placed, 0), [('r', u32::MAX - 1), ('r', u32::MAX)]);
    }

    #[test]
    fn colocated_copies_get_disjoint_dense_tag_ranges() {
        // Two copies share nodes 0 and 1; a third job on nodes 2 and 3 is
        // a sole tenant and neither moves nor takes tag space.
        let job = exchange(&[0, 5]);
        let lone = exchange(&[3]);
        let jobs = [
            PlacedJob::new(&job, vec![0, 1]),
            PlacedJob::new(&lone, vec![2, 3]),
            PlacedJob::new(&job, vec![1, 0]),
        ];
        let merged = compose(&jobs, 4).unwrap();
        assert_eq!(tags(&merged, 0), [('s', 0), ('s', 5), ('r', 6), ('r', 11)]);
        assert_eq!(tags(&merged, 1), [('r', 0), ('r', 5), ('s', 6), ('s', 11)]);
        assert_eq!(tags(&merged, 2), [('s', 3)]);
        assert_eq!(crate::stats::check_matching(&merged), Ok(5));
    }

    #[test]
    fn compose_has_no_job_count_bound() {
        // 300 co-located one-message jobs: one batch, tags 0..300.
        let job = exchange(&[0]);
        let jobs: Vec<PlacedJob<'_>> = (0..300).map(|_| PlacedJob::new(&job, vec![0, 1])).collect();
        let merged = compose(&jobs, 2).unwrap();
        let want: Vec<(char, u32)> = (0..300).map(|tag| ('s', tag)).collect();
        assert_eq!(tags(&merged, 0), want);
        assert_eq!(merged.total_tasks(), 4 * 300); // send/recv + dummy each
    }

    /// A job of one calc on `stream` and a one-message exchange on stream 0.
    fn on_stream(stream: u32) -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        b.calc_on(0, 5, stream);
        b.send(0, 1, 8, 0);
        b.recv(1, 0, 8, 0);
        b.build().unwrap()
    }

    #[test]
    fn stream_ranges_past_u32_max_are_rejected_not_wrapped() {
        // Alone, a job keeps stream u32::MAX.
        let top = on_stream(u32::MAX);
        let alone = compose(&[PlacedJob::new(&top, vec![0, 1])], 2).unwrap();
        assert_eq!(alone.rank(0).stream_ids(), [0, u32::MAX]);
        // Its node has no stream left for a second tenant, in either order.
        let low = on_stream(0);
        for jobs in [[&top, &low], [&low, &top]] {
            let placed = jobs.map(|goal| PlacedJob::new(goal, vec![0, 1]));
            let err = compose(&placed, 2).unwrap_err();
            assert!(matches!(err, GoalError::Compose { .. }), "{err:?}");
        }
        // Ending exactly at u32::MAX composes.
        let high = on_stream(u32::MAX - 1);
        let fits =
            compose(&[PlacedJob::new(&low, vec![0, 1]), PlacedJob::new(&high, vec![0, 1])], 2);
        assert_eq!(fits.unwrap().rank(0).stream_ids(), [0, 1, u32::MAX]);
    }

    #[test]
    fn oversized_tag_rejected() {
        // Co-located tenants whose shifted tags end exactly at u32::MAX
        // compose; one tag further is a typed error, not a wrap.
        let high = exchange(&[u32::MAX - 1]);
        let low = exchange(&[0]);
        let fits = [PlacedJob::new(&high, vec![0, 1]), PlacedJob::new(&low, vec![0, 1])];
        assert_eq!(tags(&compose(&fits, 2).unwrap(), 0), [('s', u32::MAX - 1), ('s', u32::MAX)]);
        let top = exchange(&[u32::MAX]);
        let err = compose(&[PlacedJob::new(&top, vec![0, 1]), PlacedJob::new(&low, vec![1, 0])], 2)
            .unwrap_err();
        assert!(matches!(err, GoalError::Compose { .. }), "{err:?}");
    }
}
