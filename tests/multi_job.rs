//! Integration: multi-job and multi-tenant composition across placement
//! strategies and backends (paper §3.2, Fig. 13).

use atlahs::core::backends::IdealBackend;
use atlahs::core::{allocate, PlacementStrategy, Simulation};
use atlahs::goal::merge::{compose, place, PlacedJob, TAG_STRIDE};
use atlahs::goal::stats::check_matching;
use atlahs::goal::{GoalBuilder, GoalSchedule, TaskKind};
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::TopologyConfig;
use atlahs::htsim::CcAlgo;
use atlahs::lgs::{LgsBackend, LogGopsParams};

/// An all-to-all-ish job: every rank sends one message to every other.
fn chatty_job(ranks: usize, bytes: u64) -> GoalSchedule {
    let mut b = GoalBuilder::new(ranks);
    for s in 0..ranks as u32 {
        for d in 0..ranks as u32 {
            if s != d {
                b.send(s, d, bytes, s * ranks as u32 + d);
                b.recv(d, s, bytes, s * ranks as u32 + d);
            }
        }
    }
    b.build().unwrap()
}

/// A compute-only job.
fn quiet_job(ranks: usize, cost: u64) -> GoalSchedule {
    let mut b = GoalBuilder::new(ranks);
    for r in 0..ranks as u32 {
        b.calc(r, cost);
    }
    b.build().unwrap()
}

#[test]
fn every_strategy_produces_a_runnable_composition() {
    let a = chatty_job(4, 64 << 10);
    let bq = quiet_job(4, 100_000);
    for strategy in [
        PlacementStrategy::Packed,
        PlacementStrategy::Random { seed: 3 },
        PlacementStrategy::RoundRobin,
    ] {
        let placement = allocate(strategy, 8, &[4, 4]).unwrap();
        let merged = compose(
            &[PlacedJob::new(&a, placement[0].clone()), PlacedJob::new(&bq, placement[1].clone())],
            8,
        )
        .unwrap();
        check_matching(&merged).unwrap();
        let mut be = IdealBackend::new(80, 500);
        let rep = Simulation::new(&merged).run(&mut be).unwrap();
        assert_eq!(rep.completed, merged.total_tasks(), "{strategy:?}");
    }
}

#[test]
fn composition_preserves_task_counts_plus_anchors() {
    let a = chatty_job(3, 1024);
    let b = quiet_job(2, 10);
    let merged =
        compose(&[PlacedJob::new(&a, vec![0, 1, 2]), PlacedJob::new(&b, vec![0, 1])], 4).unwrap();
    // Every original task survives; tenant sub-DAGs gain one dummy anchor
    // per (job, rank) pair on *genuinely shared* nodes only. Nodes 0 and 1
    // host both jobs (2 anchors each); node 2 hosts job a alone (none).
    let anchors = 2 + 2;
    assert_eq!(merged.total_tasks(), a.total_tasks() + b.total_tasks() + anchors);
}

#[test]
fn tags_never_cross_job_boundaries() {
    // Two identical jobs co-located on the same nodes: their matching
    // send/recv pairs use identical application tags. Composition must
    // namespace them (TAG_STRIDE) so messages never cross-match.
    let a = chatty_job(2, 4096);
    let merged =
        compose(&[PlacedJob::new(&a, vec![0, 1]), PlacedJob::new(&a, vec![0, 1])], 2).unwrap();
    check_matching(&merged).unwrap();
    let mut tags: Vec<u32> = Vec::new();
    for r in merged.ranks() {
        for t in r.tasks() {
            if let TaskKind::Send { tag, .. } = t.kind {
                tags.push(tag);
            }
        }
    }
    assert!(tags.iter().any(|&t| t < TAG_STRIDE), "job 0 tags in low space");
    assert!(tags.iter().any(|&t| t >= TAG_STRIDE), "job 1 tags offset");

    // And the composition actually runs without mismatched completions.
    let mut be = LgsBackend::new(LogGopsParams::ai_alps());
    let rep = Simulation::new(&merged).run(&mut be).unwrap();
    assert_eq!(rep.completed, merged.total_tasks());
}

#[test]
fn colocated_tenants_slow_each_other_on_a_real_network() {
    let job = chatty_job(4, 1 << 20);
    let topo = TopologyConfig::fat_tree(8, 4);
    let solo = place(&job, vec![0, 1, 2, 3], 8).unwrap();
    let both = compose(
        &[PlacedJob::new(&job, vec![0, 1, 2, 3]), PlacedJob::new(&job, vec![0, 1, 2, 3])],
        8,
    )
    .unwrap();
    let time = |g: &GoalSchedule| {
        let mut be = HtsimBackend::new(HtsimConfig::new(topo.clone(), CcAlgo::Mprdma));
        Simulation::new(g).run(&mut be).unwrap().makespan
    };
    let t_solo = time(&solo);
    let t_both = time(&both);
    assert!(
        t_both as f64 > t_solo as f64 * 1.3,
        "two tenants on one NIC must contend: solo {t_solo}, shared {t_both}"
    );
}

#[test]
fn spread_placement_crosses_the_core_packed_does_not() {
    // On an 8:1-oversubscribed fat tree, a chatty job packed into one ToR
    // never touches the thin core; split across two ToRs, four ranks per
    // side must funnel 4x4 cross flows through a single uplink.
    let job = chatty_job(8, 1 << 20);
    let topo = TopologyConfig::fat_tree_oversubscribed(16, 8, 8);
    let time = |nodes: Vec<u32>| {
        let placed = place(&job, nodes, 16).unwrap();
        let mut be = HtsimBackend::new(HtsimConfig::new(topo.clone(), CcAlgo::Mprdma));
        Simulation::new(&placed).run(&mut be).unwrap().makespan
    };
    let packed = time(vec![0, 1, 2, 3, 4, 5, 6, 7]); // one ToR
    let spread = time(vec![0, 1, 2, 3, 8, 9, 10, 11]); // half per ToR
    assert!(
        spread as f64 > packed as f64 * 1.5,
        "spread {spread} must pay the oversubscribed core vs packed {packed}"
    );
}

#[test]
fn empty_cluster_nodes_stay_idle() {
    let job = quiet_job(2, 1000);
    let placed = place(&job, vec![5, 9], 12).unwrap();
    let mut be = IdealBackend::new(8, 10);
    let rep = Simulation::new(&placed).run(&mut be).unwrap();
    for (r, &finish) in rep.rank_finish.iter().enumerate() {
        if r == 5 || r == 9 {
            assert!(finish > 0);
        } else {
            assert_eq!(finish, 0, "rank {r} should never run anything");
        }
    }
}

/// `merge::compose` as it stood before it was rebuilt on
/// `GoalBuilder::append`: per-node `Vec<Task>` + edge lists with
/// hand-written id offsets, through `RankSchedule::from_parts`. Kept
/// verbatim (minus the placement validation, which did not change) as the
/// oracle for [`compose_equals_the_copy_loop_reference`].
fn compose_reference(jobs: &[PlacedJob<'_>], total_ranks: usize) -> GoalSchedule {
    use atlahs::goal::{DepKind, Rank, RankSchedule, Task, TaskId};

    let mut tenants: Vec<u32> = vec![0; total_ranks];
    for job in jobs {
        for (r, sched) in job.goal.ranks().iter().enumerate() {
            if !sched.is_empty() {
                tenants[job.nodes[r] as usize] += 1;
            }
        }
    }

    // Per physical node: accumulated tasks and deps.
    let mut tasks: Vec<Vec<Task>> = vec![Vec::new(); total_ranks];
    let mut deps: Vec<Vec<(TaskId, TaskId, DepKind)>> = vec![Vec::new(); total_ranks];
    // Next free stream id per node, so tenants get disjoint stream ranges.
    let mut next_stream: Vec<u32> = vec![0; total_ranks];

    for (j, job) in jobs.iter().enumerate() {
        let tag_base = (j as u32) * TAG_STRIDE;
        for (r, sched) in job.goal.ranks().iter().enumerate() {
            let node = job.nodes[r] as usize;
            let base = tasks[node].len() as u32;
            let stream_base = next_stream[node];
            let mut max_stream = 0u32;

            let shared = tenants[node] >= 2 && !sched.is_empty();
            let dummy_offset = if shared {
                tasks[node].push(Task::calc(0).on_stream(stream_base));
                1u32
            } else {
                0
            };

            for t in sched.tasks() {
                let stream = stream_base + t.stream;
                max_stream = max_stream.max(t.stream);
                let kind = match t.kind {
                    TaskKind::Calc { cost } => TaskKind::Calc { cost },
                    TaskKind::Send { bytes, dst, tag } => {
                        TaskKind::Send { bytes, dst: job.nodes[dst as usize], tag: tag_base + tag }
                    }
                    TaskKind::Recv { bytes, src, tag } => {
                        TaskKind::Recv { bytes, src: job.nodes[src as usize], tag: tag_base + tag }
                    }
                };
                tasks[node].push(Task { kind, stream });
            }
            for (a, b, k) in sched.dep_edges() {
                deps[node].push((
                    TaskId(base + dummy_offset + a.0),
                    TaskId(base + dummy_offset + b.0),
                    k,
                ));
            }
            if dummy_offset == 1 {
                let dummy = TaskId(base);
                for root in sched.roots() {
                    deps[node].push((TaskId(base + 1 + root.0), dummy, DepKind::Full));
                }
            }
            if !sched.is_empty() {
                next_stream[node] = stream_base + max_stream + 1;
            }
        }
    }

    let mut ranks = Vec::with_capacity(total_ranks);
    for (r, (t, d)) in tasks.into_iter().zip(deps).enumerate() {
        ranks.push(RankSchedule::from_parts(r as Rank, t, &d).unwrap());
    }
    let goal = GoalSchedule::new(ranks);
    goal.validate().unwrap();
    goal
}

/// A job with real DAG structure on several streams: a per-rank chain of
/// calcs, forward and `irequires` edges, and a ring exchange.
fn layered_job(ranks: usize) -> GoalSchedule {
    let mut b = GoalBuilder::new(ranks);
    let n = ranks as u32;
    for r in 0..n {
        let c0 = b.calc(r, 100);
        let s = b.send_on(r, (r + 1) % n, 4096, r, 1);
        let v = b.recv_on(r, (r + n - 1) % n, 4096, (r + n - 1) % n, 2);
        let c1 = b.calc(r, 200);
        b.requires(r, s, c0);
        b.irequires(r, v, c0);
        b.requires(r, c1, s);
        b.requires(r, c1, v);
        // A forward edge (dependent id < dependency id) as nccl2goal emits.
        let late = b.calc_on(r, 5, 3);
        b.requires(r, c0, late);
    }
    b.build().unwrap()
}

#[test]
fn compose_equals_the_copy_loop_reference() {
    let chatty = chatty_job(4, 64 << 10);
    let quiet = quiet_job(4, 100_000);
    let layered = layered_job(4);
    let mut lopsided = GoalBuilder::new(2);
    lopsided.calc(0, 5);
    let lopsided = lopsided.build().unwrap(); // rank 1 is empty

    let mut cases: Vec<(String, Vec<PlacedJob<'_>>, usize)> = Vec::new();
    for strategy in [
        PlacementStrategy::Packed,
        PlacementStrategy::Random { seed: 3 },
        PlacementStrategy::RoundRobin,
    ] {
        let p = allocate(strategy, 8, &[4, 4]).unwrap();
        cases.push((
            format!("disjoint {strategy:?}"),
            vec![PlacedJob::new(&chatty, p[0].clone()), PlacedJob::new(&layered, p[1].clone())],
            8,
        ));
    }
    cases.push((
        "three tenants on shared nodes".into(),
        vec![
            PlacedJob::new(&layered, vec![0, 1, 2, 3]),
            PlacedJob::new(&quiet, vec![3, 2, 1, 0]),
            PlacedJob::new(&layered, vec![2, 3, 4, 5]),
        ],
        6,
    ));
    cases.push((
        "empty ranks between tenants".into(),
        vec![
            PlacedJob::new(&lopsided, vec![0, 1]),
            PlacedJob::new(&layered, vec![1, 0, 2, 3]),
            PlacedJob::new(&lopsided, vec![1, 0]),
        ],
        4,
    ));
    for (name, jobs, total) in &cases {
        let got = compose(jobs, *total).unwrap();
        assert!(got == compose_reference(jobs, *total), "{name}: compose differs from oracle");
    }
}
