//! MPI trace → GOAL conversion (Schedgen, paper §3.1.1).
//!
//! The converter walks every rank's record timeline. The gap between the
//! end of one operation and the start of the next becomes a `calc` vertex
//! (the computation the tracer observed). Point-to-point records become
//! send/recv vertices directly; collective records are substituted with
//! point-to-point algorithms chosen by [`MpiToGoalConfig`].
//!
//! Collective correspondence across ranks uses MPI's own ordering rule:
//! the k-th collective call on a communicator is the same *instance* on
//! every rank, so timelines are consumed in lock-step at collective
//! boundaries while p2p records in between are emitted per rank.

use atlahs_collectives::{mpi as coll, CollParams, Ports};
use atlahs_goal::{GoalBuilder, GoalError, GoalSchedule, Rank, TaskId};
use atlahs_tracers::mpi::{MpiOp, MpiTrace};

/// Lowest tag of the collective instances, 64 tags each. A trace whose
/// point-to-point tags reach it (MPI allows far larger ones) has its
/// collectives start above its largest p2p tag instead, so the two never
/// match each other.
pub const COLL_TAG_BASE: u32 = 1 << 20;

/// Algorithm selection per collective, mirroring Schedgen's options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    Ring,
    RecursiveDoubling,
    Rabenseifner,
    /// Latency-optimal below the cutoff, bandwidth-optimal above.
    Auto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    Binomial,
    RingPipelined,
    Auto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlltoallAlgo {
    Linear,
    Pairwise,
    Bruck,
    /// Bruck up to `AUTO_CUTOFF / 8` bytes per block, pairwise above —
    /// the latency/bandwidth switch real MPI libraries apply.
    Auto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgo {
    Ring,
    Bruck,
    Auto,
}

/// Full converter configuration.
#[derive(Debug, Clone)]
pub struct MpiToGoalConfig {
    pub coll: CollParams,
    pub allreduce: AllreduceAlgo,
    pub bcast: BcastAlgo,
    pub alltoall: AlltoallAlgo,
    pub allgather: AllgatherAlgo,
}

/// Size cutoff (bytes) separating latency- from bandwidth-optimal
/// algorithms under `Auto`.
const AUTO_CUTOFF: u64 = 64 * 1024;

impl Default for MpiToGoalConfig {
    fn default() -> Self {
        MpiToGoalConfig {
            coll: CollParams::default(),
            allreduce: AllreduceAlgo::Auto,
            bcast: BcastAlgo::Auto,
            alltoall: AlltoallAlgo::Auto,
            allgather: AllgatherAlgo::Auto,
        }
    }
}

/// Convert a trace to a GOAL schedule.
pub fn convert(trace: &MpiTrace, cfg: &MpiToGoalConfig) -> Result<GoalSchedule, GoalError> {
    let n = trace.num_ranks();
    let mut b = GoalBuilder::new(n);
    let ranks: Vec<Rank> = (0..n as u32).collect();

    // Per-rank cursor state.
    let mut idx = vec![0usize; n];
    let mut tail: Vec<Option<TaskId>> = vec![None; n];
    let mut prev_end = vec![0u64; n];
    let p2p_tags = trace.timelines.iter().flatten().filter_map(|rec| match rec.op {
        MpiOp::Send { tag, .. } | MpiOp::Recv { tag, .. } | MpiOp::Sendrecv { tag, .. } => {
            Some(tag)
        }
        _ => None,
    });
    let mut next_coll_tag = p2p_tags.map(|t| t.saturating_add(1)).fold(COLL_TAG_BASE, u32::max);

    // Helper: chain `t` after the rank's tail.
    macro_rules! chain {
        ($b:expr, $tail:expr, $r:expr, $t:expr) => {{
            if let Some(prev) = $tail[$r] {
                $b.requires($r as Rank, $t, prev);
            }
            $tail[$r] = Some($t);
        }};
    }

    loop {
        let mut all_done = true;
        let mut at_collective = true;

        // Emit p2p ops until every rank is either done or at a collective.
        for r in 0..n {
            while idx[r] < trace.timelines[r].len() {
                let rec = &trace.timelines[r][idx[r]];
                if is_collective(&rec.op) {
                    break;
                }
                let gap = rec.tstart.saturating_sub(prev_end[r]);
                if gap > 0 {
                    let c = b.calc(r as Rank, gap);
                    chain!(b, tail, r, c);
                }
                prev_end[r] = rec.tend;
                match rec.op {
                    MpiOp::Send { bytes, dst, tag } => {
                        let s = b.send(r as Rank, dst, bytes, tag);
                        chain!(b, tail, r, s);
                    }
                    MpiOp::Recv { bytes, src, tag } => {
                        let v = b.recv(r as Rank, src, bytes, tag);
                        chain!(b, tail, r, v);
                    }
                    MpiOp::Sendrecv { bytes, dst, src, tag } => {
                        // send and recv overlap; a dummy joins them.
                        let prev = tail[r];
                        let s = b.send(r as Rank, dst, bytes, tag);
                        let v = b.recv(r as Rank, src, bytes, tag);
                        if let Some(p) = prev {
                            b.requires(r as Rank, s, p);
                            b.requires(r as Rank, v, p);
                        }
                        let j = b.dummy(r as Rank);
                        b.requires(r as Rank, j, s);
                        b.requires(r as Rank, j, v);
                        tail[r] = Some(j);
                    }
                    _ => unreachable!("collectives handled below"),
                }
                idx[r] += 1;
            }
            if idx[r] < trace.timelines[r].len() {
                all_done = false;
            } else {
                at_collective = false;
            }
        }
        if all_done {
            break;
        }
        if !at_collective {
            // Some rank is exhausted while others sit at a collective: the
            // trace is inconsistent (collective without all participants).
            let stuck = (0..n).find(|&r| idx[r] < trace.timelines[r].len()).unwrap();
            return Err(GoalError::Compose {
                msg: format!(
                    "rank {stuck} reaches a collective but other ranks have no records left"
                ),
            });
        }

        // All ranks at a collective record: verify and emit one instance.
        let op0 = trace.timelines[0][idx[0]].op;
        for (r, &ir) in idx.iter().enumerate().take(n).skip(1) {
            let opr = trace.timelines[r][ir].op;
            if std::mem::discriminant(&opr) != std::mem::discriminant(&op0) {
                return Err(GoalError::Compose {
                    msg: format!("collective mismatch: rank 0 at {op0:?}, rank {r} at {opr:?}"),
                });
            }
            if root(&opr) != root(&op0) {
                return Err(GoalError::Compose {
                    msg: format!(
                        "collective root mismatch: rank 0 at {op0:?}, rank {r} at {opr:?}"
                    ),
                });
            }
        }
        if let Some(root) = root(&op0).filter(|&root| root as usize >= n) {
            return Err(GoalError::Compose {
                msg: format!("{op0:?}: root {root} is not one of the {n} ranks"),
            });
        }
        // Pre-collective compute gaps.
        for r in 0..n {
            let rec = &trace.timelines[r][idx[r]];
            let gap = rec.tstart.saturating_sub(prev_end[r]);
            if gap > 0 {
                let c = b.calc(r as Rank, gap);
                chain!(b, tail, r, c);
            }
            prev_end[r] = rec.tend;
        }
        let tag = next_coll_tag;
        next_coll_tag = tag.checked_add(64).ok_or_else(|| GoalError::Compose {
            msg: format!("collective tags exhausted: no 64 tags left above tag {tag}"),
        })?;
        let ports = emit_collective(&mut b, &ranks, &op0, tag, cfg);
        for r in 0..n {
            if let Some(prev) = tail[r] {
                b.requires(r as Rank, ports.entry[r], prev);
            }
            tail[r] = Some(ports.exit[r]);
            idx[r] += 1;
        }
    }

    b.build()
}

fn is_collective(op: &MpiOp) -> bool {
    !matches!(op, MpiOp::Send { .. } | MpiOp::Recv { .. } | MpiOp::Sendrecv { .. })
}

/// The root rank of a rooted collective.
fn root(op: &MpiOp) -> Option<u32> {
    match *op {
        MpiOp::Bcast { root, .. }
        | MpiOp::Reduce { root, .. }
        | MpiOp::Gather { root, .. }
        | MpiOp::Scatter { root, .. } => Some(root),
        _ => None,
    }
}

fn emit_collective(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    op: &MpiOp,
    tag: u32,
    cfg: &MpiToGoalConfig,
) -> Ports {
    let p = &cfg.coll;
    match *op {
        MpiOp::Allreduce { bytes } => match cfg.allreduce {
            AllreduceAlgo::Ring => coll::allreduce_ring(b, ranks, bytes, tag, p),
            AllreduceAlgo::RecursiveDoubling => coll::allreduce_recdoub(b, ranks, bytes, tag, p),
            AllreduceAlgo::Rabenseifner => coll::allreduce_rabenseifner(b, ranks, bytes, tag, p),
            AllreduceAlgo::Auto => {
                if bytes <= AUTO_CUTOFF {
                    coll::allreduce_recdoub(b, ranks, bytes, tag, p)
                } else {
                    coll::allreduce_ring(b, ranks, bytes, tag, p)
                }
            }
        },
        MpiOp::Bcast { bytes, root } => match cfg.bcast {
            BcastAlgo::Binomial => coll::bcast_binomial(b, ranks, bytes, root as usize, tag, p),
            BcastAlgo::RingPipelined => {
                coll::bcast_ring_pipelined(b, ranks, bytes, root as usize, tag, p)
            }
            BcastAlgo::Auto => {
                if bytes <= AUTO_CUTOFF {
                    coll::bcast_binomial(b, ranks, bytes, root as usize, tag, p)
                } else {
                    coll::bcast_ring_pipelined(b, ranks, bytes, root as usize, tag, p)
                }
            }
        },
        MpiOp::Reduce { bytes, root } => {
            coll::reduce_binomial(b, ranks, bytes, root as usize, tag, p)
        }
        MpiOp::Allgather { bytes } => match cfg.allgather {
            AllgatherAlgo::Ring => coll::allgather_ring(b, ranks, bytes, tag, p),
            AllgatherAlgo::Bruck => coll::allgather_bruck(b, ranks, bytes, tag, p),
            AllgatherAlgo::Auto => {
                if bytes <= AUTO_CUTOFF {
                    coll::allgather_bruck(b, ranks, bytes, tag, p)
                } else {
                    coll::allgather_ring(b, ranks, bytes, tag, p)
                }
            }
        },
        MpiOp::ReduceScatter { bytes } => coll::reduce_scatter_ring(b, ranks, bytes, tag, p),
        MpiOp::Alltoall { bytes } => match cfg.alltoall {
            AlltoallAlgo::Linear => coll::alltoall_linear(b, ranks, bytes, tag, p),
            AlltoallAlgo::Pairwise => coll::alltoall_pairwise(b, ranks, bytes, tag, p),
            AlltoallAlgo::Bruck => coll::alltoall_bruck(b, ranks, bytes, tag, p),
            AlltoallAlgo::Auto => {
                // MPICH-style policy: Bruck for short blocks (log-round
                // aggregation wins), pairwise exchange for long ones.
                if bytes <= AUTO_CUTOFF / 8 {
                    coll::alltoall_bruck(b, ranks, bytes, tag, p)
                } else {
                    coll::alltoall_pairwise(b, ranks, bytes, tag, p)
                }
            }
        },
        MpiOp::Gather { bytes, root } => {
            coll::gather_binomial(b, ranks, bytes, root as usize, tag, p)
        }
        MpiOp::Scatter { bytes, root } => {
            coll::scatter_binomial(b, ranks, bytes, root as usize, tag, p)
        }
        MpiOp::Barrier => coll::barrier_dissemination(b, ranks, tag, p),
        MpiOp::Send { .. } | MpiOp::Recv { .. } | MpiOp::Sendrecv { .. } => {
            unreachable!("p2p handled by caller")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_tracers::mpi::{self, HpcAppConfig, MpiRecord};

    fn convert_ok(trace: &MpiTrace) -> GoalSchedule {
        let goal = convert(trace, &MpiToGoalConfig::default()).expect("conversion");
        check_matching(&goal).expect("matching");
        let mut backend = IdealBackend::new(80, 500);
        let rep = Simulation::new(&goal).run(&mut backend).expect("no deadlock");
        assert_eq!(rep.completed, goal.total_tasks());
        goal
    }

    #[test]
    fn all_skeleton_apps_convert_and_run() {
        let cfg = HpcAppConfig { ranks: 8, iterations: 2, ..HpcAppConfig::default() };
        for t in [
            mpi::cloverleaf(&cfg),
            mpi::hpcg(&cfg),
            mpi::lulesh(&cfg),
            mpi::lammps(&cfg),
            mpi::icon(&cfg),
            mpi::openmx(&cfg),
        ] {
            let goal = convert_ok(&t);
            assert_eq!(goal.num_ranks(), 8);
            assert!(goal.total_tasks() > 50, "{}", t.app);
        }
    }

    #[test]
    fn compute_gaps_become_calcs() {
        // One rank computes 5000 ns between two sends.
        let trace = MpiTrace {
            app: "gap".into(),
            timelines: vec![
                vec![
                    MpiRecord {
                        op: MpiOp::Send { bytes: 8, dst: 1, tag: 0 },
                        tstart: 0,
                        tend: 100,
                    },
                    MpiRecord {
                        op: MpiOp::Send { bytes: 8, dst: 1, tag: 1 },
                        tstart: 5_100,
                        tend: 5_200,
                    },
                ],
                vec![
                    MpiRecord {
                        op: MpiOp::Recv { bytes: 8, src: 0, tag: 0 },
                        tstart: 0,
                        tend: 100,
                    },
                    MpiRecord {
                        op: MpiOp::Recv { bytes: 8, src: 0, tag: 1 },
                        tstart: 100,
                        tend: 200,
                    },
                ],
            ],
        };
        let goal = convert(&trace, &MpiToGoalConfig::default()).unwrap();
        let calcs: Vec<u64> = goal
            .rank(0)
            .tasks()
            .filter_map(|t| match t.kind {
                atlahs_goal::TaskKind::Calc { cost } => Some(cost),
                _ => None,
            })
            .collect();
        assert_eq!(calcs, vec![5_000], "gap = 5100 - 100");
    }

    #[test]
    fn auto_switches_algorithms_by_size() {
        // Small allreduce -> recdoub (log p rounds of full size);
        // large -> ring. They have different send counts.
        let mk = |bytes: u64| MpiTrace {
            app: "x".into(),
            timelines: (0..4)
                .map(|_| vec![MpiRecord { op: MpiOp::Allreduce { bytes }, tstart: 0, tend: 1 }])
                .collect(),
        };
        let small = convert(&mk(1024), &MpiToGoalConfig::default()).unwrap();
        let large = convert(&mk(1 << 20), &MpiToGoalConfig::default()).unwrap();
        let s_small = atlahs_goal::ScheduleStats::of(&small);
        let s_large = atlahs_goal::ScheduleStats::of(&large);
        // recdoub at 4 ranks: 2 rounds x 4 sends = 8; ring: 2*4*3 = 24.
        assert_eq!(s_small.sends, 8);
        assert_eq!(s_large.sends, 24);
        // The switch sits exactly at the cutoff.
        let sends = |bytes| {
            let goal = convert(&mk(bytes), &MpiToGoalConfig::default()).unwrap();
            atlahs_goal::ScheduleStats::of(&goal).sends
        };
        assert_eq!((sends(AUTO_CUTOFF), sends(AUTO_CUTOFF + 1)), (8, 24));
    }

    #[test]
    fn mismatched_collectives_rejected() {
        let trace = MpiTrace {
            app: "bad".into(),
            timelines: vec![
                vec![MpiRecord { op: MpiOp::Allreduce { bytes: 8 }, tstart: 0, tend: 1 }],
                vec![MpiRecord { op: MpiOp::Barrier, tstart: 0, tend: 1 }],
            ],
        };
        assert!(convert(&trace, &MpiToGoalConfig::default()).is_err());
    }

    /// A root past the group used to underflow the binomial tree's
    /// renumbering (a panic in debug builds, a wrongly rooted tree in
    /// release), and one in `ranks..2·ranks` silently re-rooted it.
    #[test]
    fn out_of_range_or_disputed_roots_rejected() {
        let bcast = |roots: &[u32]| MpiTrace {
            app: "root".into(),
            timelines: roots
                .iter()
                .map(|&root| {
                    vec![MpiRecord { op: MpiOp::Bcast { bytes: 8, root }, tstart: 0, tend: 1 }]
                })
                .collect(),
        };
        for (roots, needle) in [
            (vec![20; 8], "root 20 is not one of the 8 ranks"),
            (vec![10; 8], "root 10 is not one of the 8 ranks"),
            (vec![1, 1, 2, 1], "root mismatch"),
        ] {
            match convert(&bcast(&roots), &MpiToGoalConfig::default()) {
                Err(GoalError::Compose { msg }) => {
                    assert!(msg.contains(needle) && msg.contains("Bcast"), "{msg}")
                }
                other => panic!("roots {roots:?}: expected a Compose error, got {other:?}"),
            }
        }
        convert_ok(&bcast(&[7; 8]));
    }

    #[test]
    fn missing_participant_rejected() {
        let trace = MpiTrace {
            app: "bad".into(),
            timelines: vec![
                vec![MpiRecord { op: MpiOp::Allreduce { bytes: 8 }, tstart: 0, tend: 1 }],
                vec![],
            ],
        };
        assert!(convert(&trace, &MpiToGoalConfig::default()).is_err());
    }

    /// Rank 0 sends 1 MiB to rank 1 under `tag` just before an allreduce;
    /// rank 1 receives it just after — so a collective using the same tag
    /// would match the p2p message instead of its own.
    fn p2p_around_allreduce(tag: u32) -> MpiTrace {
        let rec = |op, tstart| MpiRecord { op, tstart, tend: tstart + 10 };
        let (send, recv) = (
            MpiOp::Send { bytes: 1 << 20, dst: 1, tag },
            MpiOp::Recv { bytes: 1 << 20, src: 0, tag },
        );
        let allreduce = MpiOp::Allreduce { bytes: 8 };
        MpiTrace {
            app: "tags".into(),
            timelines: vec![
                vec![rec(send, 0), rec(allreduce, 1_000_000)],
                vec![rec(allreduce, 1_000_000), rec(recv, 6_000_000)],
            ],
        }
    }

    #[test]
    fn relabelling_p2p_tags_leaves_the_report_unchanged() {
        let report = |tag| {
            let goal = convert_ok(&p2p_around_allreduce(tag));
            Simulation::new(&goal).run(&mut IdealBackend::new(80, 500)).unwrap()
        };
        let base = report(7);
        for tag in [COLL_TAG_BASE - 1, COLL_TAG_BASE, COLL_TAG_BASE + 63, 1 << 30, u32::MAX - 128] {
            assert_eq!(report(tag), base, "p2p tag {tag}");
        }
    }

    #[test]
    fn exhausted_collective_tag_space_is_an_error() {
        let err = convert(&p2p_around_allreduce(u32::MAX), &MpiToGoalConfig::default());
        assert!(matches!(err, Err(GoalError::Compose { .. })), "{err:?}");
    }

    #[test]
    fn makespan_reflects_trace_compute() {
        // Strong-scaled trace has less compute -> faster simulated replay.
        let weak = mpi::lulesh(&HpcAppConfig {
            ranks: 8,
            iterations: 3,
            noise: 0.0,
            scaling: mpi::Scaling::Weak,
            ..HpcAppConfig::default()
        });
        let strong = mpi::lulesh(&HpcAppConfig {
            ranks: 8,
            iterations: 3,
            noise: 0.0,
            scaling: mpi::Scaling::Strong,
            ..HpcAppConfig::default()
        });
        let run = |t: &MpiTrace| {
            let goal = convert(t, &MpiToGoalConfig::default()).unwrap();
            let mut be = IdealBackend::new(80, 500);
            Simulation::new(&goal).run(&mut be).unwrap().makespan
        };
        assert!(run(&strong) < run(&weak));
    }

    #[test]
    fn replay_on_lgs_backend() {
        let t = mpi::hpcg(&HpcAppConfig { ranks: 8, iterations: 2, ..HpcAppConfig::default() });
        let goal = convert(&t, &MpiToGoalConfig::default()).unwrap();
        let mut be = atlahs_lgs::LgsBackend::new(atlahs_lgs::LogGopsParams::hpc_testbed());
        let rep = Simulation::new(&goal).run(&mut be).unwrap();
        assert_eq!(rep.completed, goal.total_tasks());
        assert!(rep.makespan > 0);
    }
}
