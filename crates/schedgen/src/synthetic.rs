//! Synthetic microbenchmarks (the workloads the paper argues are *not*
//! enough — used by Fig. 1C to contrast with application traces), plus
//! the application-shaped synthetic generators the scenario-sweep engine
//! exposes as grid axes: MoE expert-parallel all-to-all
//! ([`moe_alltoall`]), pipeline-parallel LLM training
//! ([`pipeline_parallel`]), and fan-in storage reads ([`storage_incast`]).

use atlahs_goal::{GoalBuilder, GoalError, GoalSchedule, Rank, TaskId};

/// N-to-one incast: ranks `1..=n` each send `bytes` to rank 0, `repeat`
/// times back-to-back.
pub fn incast(n: usize, bytes: u64, repeat: u32) -> Result<GoalSchedule, GoalError> {
    let mut b = GoalBuilder::new(n + 1);
    for s in 1..=n as u32 {
        let mut prev_s = None;
        let mut prev_r = None;
        for rep in 0..repeat {
            let tag = s + rep * (n as u32 + 1);
            let snd = b.send(s, 0, bytes, tag);
            if let Some(p) = prev_s {
                b.requires(s, snd, p);
            }
            prev_s = Some(snd);
            let rcv = b.recv(0, s, bytes, tag);
            if let Some(p) = prev_r {
                b.requires(0, rcv, p);
            }
            prev_r = Some(rcv);
        }
    }
    b.build()
}

/// Shift permutation: rank `i` sends `bytes` to `(i + shift) mod n`,
/// `repeat` times.
pub fn permutation(
    n: usize,
    bytes: u64,
    shift: usize,
    repeat: u32,
) -> Result<GoalSchedule, GoalError> {
    let shift = (shift % n) as u32;
    assert!(shift != 0, "shift must move data");
    let mut b = GoalBuilder::new(n);
    for i in 0..n as u32 {
        let dst = (i + shift) % n as u32;
        let src = (i + n as u32 - shift) % n as u32;
        let mut prev_s = None;
        let mut prev_r = None;
        for rep in 0..repeat {
            let snd = b.send(i, dst, bytes, rep);
            if let Some(p) = prev_s {
                b.requires(i, snd, p);
            }
            prev_s = Some(snd);
            let rcv = b.recv(i, src, bytes, rep);
            if let Some(p) = prev_r {
                b.requires(i, rcv, p);
            }
            prev_r = Some(rcv);
        }
    }
    b.build()
}

/// Uniform random traffic: `msgs` messages of `bytes`, uniformly random
/// (src, dst) pairs, seeded.
pub fn uniform_random(
    n: usize,
    bytes: u64,
    msgs: usize,
    seed: u64,
) -> Result<GoalSchedule, GoalError> {
    // Simple xorshift so this module stays dependency-free.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GoalBuilder::new(n);
    let mut chain_s: Vec<Option<atlahs_goal::TaskId>> = vec![None; n];
    let mut chain_r: Vec<Option<atlahs_goal::TaskId>> = vec![None; n];
    for m in 0..msgs {
        let src = (next() % n as u64) as u32;
        let mut dst = (next() % n as u64) as u32;
        if dst == src {
            dst = (dst + 1) % n as u32;
        }
        let tag = m as u32;
        let s = b.send(src, dst, bytes, tag);
        if let Some(p) = chain_s[src as usize] {
            b.requires(src, s, p);
        }
        chain_s[src as usize] = Some(s);
        let r = b.recv(dst, src, bytes, tag);
        if let Some(p) = chain_r[dst as usize] {
            b.requires(dst, r, p);
        }
        chain_r[dst as usize] = Some(r);
    }
    b.build()
}

/// One full ring rotation: rank i sends to i+1, `repeat` laps.
pub fn ring(n: usize, bytes: u64, repeat: u32) -> Result<GoalSchedule, GoalError> {
    let mut b = GoalBuilder::new(n);
    let mut prev: Vec<Option<atlahs_goal::TaskId>> = vec![None; n];
    for rep in 0..repeat {
        for i in 0..n as u32 {
            let dst = (i + 1) % n as u32;
            let src = (i + n as u32 - 1) % n as u32;
            let s = b.send(i, dst, bytes, rep);
            let r = b.recv(i, src, bytes, rep);
            if let Some(p) = prev[i as usize] {
                b.requires(i, s, p);
                b.requires(i, r, p);
            }
            let j = b.dummy(i as Rank);
            b.requires(i, j, s);
            b.requires(i, j, r);
            prev[i as usize] = Some(j);
        }
    }
    b.build()
}

/// MoE expert-parallel all-to-all: the `n` ranks are partitioned into
/// expert-parallel groups of `group` consecutive ranks; every MoE layer
/// performs two all-to-alls per group (token *dispatch* to the experts,
/// then *combine* back), each moving `bytes` per peer pair, with
/// `compute_ns` of expert computation between them. Layers are chained
/// per rank through a zero-cost join vertex, matching how an MoE block's
/// all-to-alls serialize against the expert MLP.
pub fn moe_alltoall(
    n: usize,
    group: usize,
    bytes: u64,
    layers: u32,
    compute_ns: u64,
) -> Result<GoalSchedule, GoalError> {
    assert!(group >= 2, "an EP group needs at least 2 ranks");
    assert!(n % group == 0, "group size must divide the rank count");
    let mut b = GoalBuilder::new(n);
    let mut prev: Vec<Option<TaskId>> = vec![None; n];
    for layer in 0..layers {
        for phase in 0..2u32 {
            // Tags are unique per (layer, phase) so FIFO matching between a
            // pair never spans phases.
            let tag = layer * 2 + phase;
            let mut joins: Vec<TaskId> = Vec::with_capacity(n);
            for g0 in (0..n).step_by(group) {
                for i in 0..group {
                    let rank = (g0 + i) as u32;
                    let join = b.dummy(rank);
                    for j in 0..group {
                        if i == j {
                            continue;
                        }
                        let peer = (g0 + j) as u32;
                        let s = b.send(rank, peer, bytes, tag);
                        let r = b.recv(rank, peer, bytes, tag);
                        if let Some(p) = prev[rank as usize] {
                            b.requires(rank, s, p);
                            b.requires(rank, r, p);
                        }
                        b.requires(rank, join, s);
                        b.requires(rank, join, r);
                    }
                    joins.push(join);
                }
            }
            for (idx, &join) in joins.iter().enumerate() {
                let rank = idx as u32;
                if phase == 0 && compute_ns > 0 {
                    // Expert MLP between dispatch and combine.
                    let c = b.calc(rank, compute_ns);
                    b.requires(rank, c, join);
                    prev[idx] = Some(c);
                } else {
                    prev[idx] = Some(join);
                }
            }
        }
    }
    b.build()
}

/// Pipeline-parallel LLM training (GPipe-style): `stages` ranks form the
/// pipeline; each of `microbatches` microbatches flows forward through
/// every stage (activation of `bytes`, `compute_ns` per stage) and then
/// backward (gradient of `bytes`). Each stage processes its microbatches
/// serially; cross-stage dependencies ride on the matched send/recv
/// pairs, so warm-up and drain bubbles emerge naturally.
pub fn pipeline_parallel(
    stages: usize,
    microbatches: u32,
    bytes: u64,
    compute_ns: u64,
) -> Result<GoalSchedule, GoalError> {
    assert!(stages >= 2, "a pipeline needs at least 2 stages");
    assert!(microbatches >= 1, "need at least one microbatch");
    let mut b = GoalBuilder::new(stages);
    let mut prev: Vec<Option<TaskId>> = vec![None; stages];
    let seq = |b: &mut GoalBuilder, rank: u32, id: TaskId, prev: &mut Vec<Option<TaskId>>| {
        if let Some(p) = prev[rank as usize] {
            b.requires(rank, id, p);
        }
        prev[rank as usize] = Some(id);
    };
    // Forward passes.
    for mb in 0..microbatches {
        for s in 0..stages as u32 {
            if s > 0 {
                let r = b.recv(s, s - 1, bytes, mb);
                seq(&mut b, s, r, &mut prev);
            }
            let c = b.calc(s, compute_ns);
            seq(&mut b, s, c, &mut prev);
            if (s as usize) < stages - 1 {
                let snd = b.send(s, s + 1, bytes, mb);
                seq(&mut b, s, snd, &mut prev);
            }
        }
    }
    // Backward passes (tags offset past the forward namespace).
    for mb in 0..microbatches {
        let tag = microbatches + mb;
        for s in (0..stages as u32).rev() {
            if (s as usize) < stages - 1 {
                let r = b.recv(s, s + 1, bytes, tag);
                seq(&mut b, s, r, &mut prev);
            }
            let c = b.calc(s, 2 * compute_ns);
            seq(&mut b, s, c, &mut prev);
            if s > 0 {
                let snd = b.send(s, s - 1, bytes, tag);
                seq(&mut b, s, snd, &mut prev);
            }
        }
    }
    b.build()
}

/// Fan-in storage reads: `clients` client ranks each issue `reads` rounds
/// of striped reads against all `servers` storage ranks — a small request
/// out, `bytes` of data back from every server at once. The reply burst
/// converges on the client's single downlink, the classic storage-incast
/// congestion pattern. Ranks `0..clients` are clients, the rest servers.
pub fn storage_incast(
    clients: usize,
    servers: usize,
    bytes: u64,
    reads: u32,
) -> Result<GoalSchedule, GoalError> {
    assert!(clients >= 1 && servers >= 1, "need at least one client and one server");
    const REQUEST_BYTES: u64 = 64;
    let n = clients + servers;
    let mut b = GoalBuilder::new(n);
    let mut prev: Vec<Option<TaskId>> = vec![None; n];
    for round in 0..reads {
        for c in 0..clients as u32 {
            // Tag space: one tag per (round, client) keeps FIFO matching
            // between a client/server pair unambiguous across rounds.
            let tag = round * clients as u32 + c;
            let join = b.dummy(c);
            for s in 0..servers as u32 {
                let srv = clients as u32 + s;
                let req = b.send(c, srv, REQUEST_BYTES, tag);
                let data = b.recv(c, srv, bytes, tag);
                if let Some(p) = prev[c as usize] {
                    b.requires(c, req, p);
                }
                b.requires(c, join, req);
                b.requires(c, join, data);

                let srv_req = b.recv(srv, c, REQUEST_BYTES, tag);
                let reply = b.send(srv, c, bytes, tag);
                b.requires(srv, reply, srv_req);
                if let Some(p) = prev[srv as usize] {
                    b.requires(srv, srv_req, p);
                }
                prev[srv as usize] = Some(reply);
            }
            prev[c as usize] = Some(join);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;

    fn runs(goal: &GoalSchedule) {
        check_matching(goal).unwrap();
        let mut be = IdealBackend::new(80, 100);
        let rep = Simulation::new(goal).run(&mut be).unwrap();
        assert_eq!(rep.completed, goal.total_tasks());
    }

    #[test]
    fn incast_shape() {
        let g = incast(8, 4096, 3).unwrap();
        runs(&g);
        let stats = atlahs_goal::ScheduleStats::of(&g);
        assert_eq!(stats.sends, 24);
        assert_eq!(stats.recvs, 24);
        // all recvs on rank 0
        assert_eq!(
            g.rank(0)
                .tasks()
                .filter(|t| matches!(t.kind, atlahs_goal::TaskKind::Recv { .. }))
                .count(),
            24
        );
    }

    #[test]
    fn permutation_is_balanced() {
        let g = permutation(8, 1024, 3, 2).unwrap();
        runs(&g);
        for r in 0..8 {
            let sends = g
                .rank(r)
                .tasks()
                .filter(|t| matches!(t.kind, atlahs_goal::TaskKind::Send { .. }))
                .count();
            assert_eq!(sends, 2);
        }
    }

    #[test]
    fn shifts_past_u32_lower_as_their_residue() {
        // 2^32 + 1 used to be cast to u32 (1) before the modulo.
        assert_eq!(
            permutation(3, 1024, (1 << 32) + 1, 1).unwrap(),
            permutation(3, 1024, 2, 1).unwrap()
        );
        runs(&permutation(6, 1024, u32::MAX as usize, 1).unwrap());
    }

    #[test]
    #[should_panic(expected = "shift must move data")]
    fn zero_shift_panics() {
        let _ = permutation(4, 10, 4, 1);
    }

    #[test]
    fn uniform_random_matches() {
        let g = uniform_random(16, 2048, 100, 99).unwrap();
        runs(&g);
        let stats = atlahs_goal::ScheduleStats::of(&g);
        assert_eq!(stats.sends, 100);
    }

    #[test]
    fn uniform_random_deterministic() {
        let a = uniform_random(16, 2048, 50, 1).unwrap();
        let b = uniform_random(16, 2048, 50, 1).unwrap();
        assert_eq!(a, b);
        let c = uniform_random(16, 2048, 50, 2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn ring_laps() {
        let g = ring(6, 512, 4).unwrap();
        runs(&g);
        let stats = atlahs_goal::ScheduleStats::of(&g);
        assert_eq!(stats.sends, 24);
    }

    #[test]
    fn moe_alltoall_shape() {
        // 8 ranks, EP groups of 4, 2 layers: per layer each rank sends to
        // its 3 group peers twice (dispatch + combine).
        let g = moe_alltoall(8, 4, 64 << 10, 2, 1000).unwrap();
        runs(&g);
        let stats = atlahs_goal::ScheduleStats::of(&g);
        assert_eq!(stats.sends, 8 * 3 * 2 * 2);
        assert_eq!(stats.recvs, stats.sends);
        // No message ever leaves its EP group.
        for r in 0..8u32 {
            let group = r / 4;
            for t in g.rank(r).tasks() {
                if let atlahs_goal::TaskKind::Send { dst, .. } = t.kind {
                    assert_eq!(dst / 4, group, "rank {r} sent outside its group");
                }
            }
        }
    }

    #[test]
    fn moe_layers_serialize() {
        // One layer vs three layers: makespan must grow ~linearly.
        let t = |layers| {
            let g = moe_alltoall(8, 4, 256 << 10, layers, 0).unwrap();
            let mut be = IdealBackend::new(80, 100);
            Simulation::new(&g).run(&mut be).unwrap().makespan
        };
        assert!(t(3) > 2 * t(1));
    }

    #[test]
    fn pipeline_parallel_shape() {
        let g = pipeline_parallel(4, 3, 1 << 20, 5_000).unwrap();
        runs(&g);
        let stats = atlahs_goal::ScheduleStats::of(&g);
        // Forward: 3 boundaries x 3 mbs; backward the same.
        assert_eq!(stats.sends, 2 * 3 * 3);
        assert_eq!(stats.recvs, stats.sends);
        // Every rank computes: forward + backward calcs.
        assert_eq!(stats.calcs, 4 * 3 * 2);
    }

    #[test]
    fn pipeline_bubble_grows_with_stages() {
        // More stages at fixed microbatch count = proportionally more
        // warm-up/drain bubble, so makespan grows.
        let t = |stages| {
            let g = pipeline_parallel(stages, 2, 1 << 16, 10_000).unwrap();
            let mut be = IdealBackend::new(80, 100);
            Simulation::new(&g).run(&mut be).unwrap().makespan
        };
        assert!(t(8) > t(2));
    }

    #[test]
    fn storage_incast_shape() {
        let g = storage_incast(2, 6, 128 << 10, 3).unwrap();
        runs(&g);
        let stats = atlahs_goal::ScheduleStats::of(&g);
        // Per round per client: 6 requests out + 6 replies in (and the
        // mirrored server sides).
        assert_eq!(stats.sends, 3 * 2 * 6 * 2);
        // Every data byte lands on a client rank.
        for s in 0..6u32 {
            let srv = 2 + s;
            for t in g.rank(srv).tasks() {
                if let atlahs_goal::TaskKind::Send { dst, bytes, .. } = t.kind {
                    assert!(dst < 2, "server {srv} must only reply to clients");
                    assert_eq!(bytes, 128 << 10);
                }
            }
        }
    }

    #[test]
    fn new_generators_are_deterministic() {
        assert_eq!(
            moe_alltoall(8, 4, 1024, 2, 500).unwrap(),
            moe_alltoall(8, 4, 1024, 2, 500).unwrap()
        );
        assert_eq!(
            pipeline_parallel(4, 2, 1024, 500).unwrap(),
            pipeline_parallel(4, 2, 1024, 500).unwrap()
        );
        assert_eq!(storage_incast(2, 4, 1024, 2).unwrap(), storage_incast(2, 4, 1024, 2).unwrap());
    }
}
