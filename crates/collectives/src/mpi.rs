//! Point-to-point decompositions of MPI collectives.
//!
//! These are the classic algorithms used by MPICH/Open MPI, the ones
//! Schedgen substitutes for collective operations recorded in MPI traces
//! (paper §3.1.1): binomial trees, recursive doubling, rings, dissemination,
//! pairwise exchange, and Rabenseifner's reduce-scatter/allgather allreduce.
//!
//! All functions append to a [`GoalBuilder`] for a group of global ranks and
//! return [`Ports`] (per-participant entry/exit vertices). `tag` must be
//! unique per collective instance among concurrently outstanding collectives
//! between the same ranks; one tag per instance suffices.

use std::ops::Range;

use atlahs_goal::{GoalBuilder, Rank, Tag};

use crate::{chunk_sizes, CollParams, Group, Ports};

/// Binomial-tree broadcast from `root` (participant index).
pub fn bcast_binomial(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    root: usize,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let mut g = Group::new(b, ranks, params.stream);
    g.binomial_down(root, tag, |_| bytes);
    g.finish()
}

/// Ring-pipelined broadcast from `root`: the message is cut into
/// `seg_bytes` segments that travel around the ring, overlapping hops.
pub fn bcast_ring_pipelined(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    root: usize,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 && bytes > 0 {
        let seg = if params.seg_bytes == 0 { bytes } else { params.seg_bytes.min(bytes) };
        let nseg = bytes.div_ceil(seg);
        for s in 0..nseg {
            let len = if s == nseg - 1 { bytes - seg * (nseg - 1) } else { seg };
            g.ring_relay(root, len, tag);
        }
    }
    g.finish()
}

/// Binomial-tree reduce to `root`. Reduction cost is charged per merge.
pub fn reduce_binomial(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    root: usize,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let mut g = Group::new(b, ranks, params.stream);
    let merge = params.reduce_per_byte.trunc(bytes);
    g.binomial_up(root, tag, |_| bytes, Some(merge));
    g.finish()
}

/// Recursive-doubling allreduce. Non-power-of-two groups use the standard
/// fold/unfold: the first `2r` ranks pair up so a power-of-two core runs
/// the butterfly, then partners are updated.
pub fn allreduce_recdoub(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let merge = params.reduce_per_byte.trunc(bytes);
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 {
        let pof2 = 1 << k.ilog2();
        // Number of excess ranks over the power of two.
        let r = k - pof2;
        // Fold: ranks 0..2r pair up (even sends to odd neighbour).
        for i in 0..r {
            let a = 2 * i; // retires for the butterfly
            let c = 2 * i + 1; // participates for both
            g.send(a, c, bytes, tag);
            g.recv(c, a, bytes, tag);
            g.calc(c, merge);
        }
        // Core group: ranks 2i+1 for i<r, and 2r..k.
        let core: Vec<usize> = (0..r).map(|i| 2 * i + 1).chain(2 * r..k).collect();
        debug_assert_eq!(core.len(), pof2);
        let mut mask = 1usize;
        while mask < pof2 {
            for (ci, &p) in core.iter().enumerate() {
                let peer = core[ci ^ mask];
                g.sendrecv(p, peer, peer, bytes, tag);
                g.calc(p, merge);
            }
            mask <<= 1;
        }
        // Unfold: partners send the result back.
        for i in 0..r {
            let a = 2 * i;
            let c = 2 * i + 1;
            g.send(c, a, bytes, tag);
            g.recv(a, c, bytes, tag);
        }
    }
    g.finish()
}

/// Ring allreduce: reduce-scatter around the ring, then allgather.
/// Messages per step are `bytes / k`; each step's reduction is charged.
pub fn allreduce_ring(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    ring(b, ranks, bytes, tag, params, 0..2)
}

/// The ring collectives: `bytes / k` chunks through the ring-step `halves`
/// (0 = reduce-scatter, 1 = allgather).
fn ring(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    params: &CollParams,
    halves: Range<usize>,
) -> Ports {
    let mut g = Group::new(b, ranks, params.stream);
    if bytes > 0 {
        let chunks = chunk_sizes(bytes, ranks.len() as u64);
        g.ring_steps(halves, tag, |c| chunks[c], |b| b, params.reduce_per_byte);
    }
    g.finish()
}

/// Rabenseifner allreduce: reduce-scatter by recursive halving, allgather by
/// recursive doubling. Power-of-two groups only; other sizes fall back to
/// [`allreduce_ring`].
pub fn allreduce_rabenseifner(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    if k > 1 && !k.is_power_of_two() {
        return allreduce_ring(b, ranks, bytes, tag, params);
    }
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 && bytes > 0 {
        // Reduce-scatter: halve the exchanged data each round.
        let mut mask = k / 2;
        let mut piece = bytes / 2;
        while mask >= 1 {
            for p in 0..k {
                let peer = p ^ mask;
                g.sendrecv(p, peer, peer, piece.max(1), tag);
                g.calc(p, params.reduce_per_byte.trunc(piece.max(1)));
            }
            mask /= 2;
            piece /= 2;
        }
        // Allgather: double the exchanged data each round.
        let mut mask = 1;
        let mut piece = (bytes / k as u64).max(1);
        while mask < k {
            for p in 0..k {
                let peer = p ^ mask;
                g.sendrecv(p, peer, peer, piece, tag);
            }
            mask *= 2;
            piece *= 2;
        }
    }
    g.finish()
}

/// Dissemination barrier: ⌈log₂ k⌉ rounds of 1-byte notifications.
pub fn barrier_dissemination(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 {
        let mut dist = 1usize;
        while dist < k {
            for p in 0..k {
                let dst = (p + dist) % k;
                let src = (p + k - dist) % k;
                g.sendrecv(p, dst, src, 1, tag);
            }
            dist <<= 1;
        }
    }
    g.finish()
}

/// Ring allgather: each rank contributes `block_bytes`; k-1 forwarding steps.
pub fn allgather_ring(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 && block_bytes > 0 {
        for _s in 0..k - 1 {
            for p in 0..k {
                let dst = (p + 1) % k;
                let src = (p + k - 1) % k;
                g.sendrecv(p, dst, src, block_bytes, tag);
            }
        }
    }
    g.finish()
}

/// Bruck allgather: ⌈log₂ k⌉ rounds with doubling block counts — the
/// latency-optimal variant used for small blocks.
pub fn allgather_bruck(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 && block_bytes > 0 {
        let mut dist = 1usize;
        while dist < k {
            let blocks = dist.min(k - dist) as u64;
            for p in 0..k {
                let dst = (p + k - dist) % k;
                let src = (p + dist) % k;
                g.sendrecv(p, dst, src, blocks * block_bytes, tag);
            }
            dist <<= 1;
        }
    }
    g.finish()
}

/// Linear (spread) alltoall: every rank sends its block to every other rank
/// directly, targets staggered to avoid systematic incast.
pub fn alltoall_linear(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let mut g = Group::new(b, ranks, params.stream);
    if block_bytes > 0 {
        g.fan_exchange(block_bytes, tag);
    }
    g.finish()
}

/// Pairwise-exchange alltoall: k-1 synchronized rounds; in round `i` rank
/// `p` exchanges with `(p+i) mod k` (XOR pairing for powers of two).
pub fn alltoall_pairwise(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 && block_bytes > 0 {
        for i in 1..k {
            for p in 0..k {
                let (dst, src) = if k.is_power_of_two() {
                    (p ^ i, p ^ i)
                } else {
                    ((p + i) % k, (p + k - i) % k)
                };
                g.sendrecv(p, dst, src, block_bytes, tag);
            }
        }
    }
    g.finish()
}

/// Bruck alltoall: ⌈log2 k⌉ rounds; in round `j` rank `p` ships every
/// block whose destination has bit `j` set in its relative offset to
/// `(p + 2^j) mod k` — each round moves roughly half the local data
/// (`k/2` blocks), so the schedule is O(k log k) tasks instead of the
/// O(k²) of linear/pairwise exchange. The latency-optimal choice for
/// small blocks (the `Auto` policy below the cutoff).
pub fn alltoall_bruck(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, params.stream);
    if k > 1 && block_bytes > 0 {
        let rounds = usize::BITS - (k - 1).leading_zeros();
        for j in 0..rounds {
            let step = 1usize << j;
            // Number of blocks whose j-th offset bit is set.
            let blocks = (0..k).filter(|&off| off & step != 0).count() as u64;
            for p in 0..k {
                let dst = (p + step) % k;
                let src = (p + k - step) % k;
                g.sendrecv(p, dst, src, blocks * block_bytes, tag + j);
                // Local repack of the forwarded blocks.
                g.calc(p, blocks * block_bytes / 64);
            }
        }
    }
    g.finish()
}

/// Ring reduce-scatter: the first phase of [`allreduce_ring`] standalone.
/// Each rank ends with its `bytes / k` chunk of the reduction.
pub fn reduce_scatter_ring(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    ring(b, ranks, bytes, tag, params, 0..1)
}

/// Binomial-tree gather to `root`: children forward their aggregated
/// subtree, so message sizes grow toward the root.
pub fn gather_binomial(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    root: usize,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let mut g = Group::new(b, ranks, params.stream);
    if block_bytes > 0 {
        g.binomial_up(root, tag, |subtree| subtree * block_bytes, None);
    }
    g.finish()
}

/// Binomial-tree scatter from `root` (mirror of [`gather_binomial`]).
pub fn scatter_binomial(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    root: usize,
    tag: Tag,
    params: &CollParams,
) -> Ports {
    let mut g = Group::new(b, ranks, params.stream);
    if block_bytes > 0 {
        g.binomial_down(root, tag, |subtree| subtree * block_bytes);
    }
    g.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, NsPerByte, SimReport, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_goal::GoalSchedule;

    fn simulate(goal: &GoalSchedule) -> SimReport {
        let mut b = IdealBackend::new(80, 500);
        Simulation::new(goal).run(&mut b).expect("collective should not deadlock")
    }

    fn build_and_check(
        k: usize,
        f: impl FnOnce(&mut GoalBuilder, &[Rank]) -> Ports,
    ) -> (GoalSchedule, Ports) {
        let ranks: Vec<Rank> = (0..k as u32).collect();
        let mut b = GoalBuilder::new(k);
        let ports = f(&mut b, &ranks);
        let goal = b.build().expect("schedule must validate");
        check_matching(&goal).expect("sends and recvs must pair up");
        simulate(&goal);
        (goal, ports)
    }

    #[test]
    fn bcast_binomial_sizes() {
        let p = CollParams::default();
        for k in [1, 2, 3, 4, 5, 8, 13, 16] {
            for root in [0, k - 1, k / 2] {
                let (goal, _) = build_and_check(k, |b, r| bcast_binomial(b, r, 1024, root, 0, &p));
                // k-1 messages total.
                let stats = atlahs_goal::ScheduleStats::of(&goal);
                assert_eq!(stats.sends, k - 1, "k={k} root={root}");
            }
        }
    }

    #[test]
    fn bcast_ring_pipelined_segments() {
        let p = CollParams { seg_bytes: 256, ..CollParams::default() };
        let (goal, _) = build_and_check(4, |b, r| bcast_ring_pipelined(b, r, 1024, 0, 0, &p));
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // 4 segments * 3 hops
        assert_eq!(stats.sends, 12);
        assert_eq!(stats.bytes_sent, 3 * 1024);
    }

    #[test]
    fn reduce_binomial_message_count() {
        let p = CollParams::default();
        for k in [2, 3, 7, 8] {
            let (goal, _) = build_and_check(k, |b, r| reduce_binomial(b, r, 512, 0, 0, &p));
            let stats = atlahs_goal::ScheduleStats::of(&goal);
            assert_eq!(stats.sends, k - 1, "k={k}");
        }
    }

    #[test]
    fn allreduce_recdoub_pow2_rounds() {
        let p = CollParams::default();
        let (goal, _) = build_and_check(8, |b, r| allreduce_recdoub(b, r, 4096, 0, &p));
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // log2(8)=3 rounds, 8 sends each.
        assert_eq!(stats.sends, 24);
    }

    #[test]
    fn allreduce_recdoub_non_pow2() {
        let p = CollParams::default();
        for k in [3, 5, 6, 7, 12] {
            build_and_check(k, |b, r| allreduce_recdoub(b, r, 4096, 0, &p));
        }
    }

    #[test]
    fn allreduce_ring_conserves_bytes() {
        let p = CollParams::default();
        for k in [2, 3, 4, 8] {
            let bytes = 4096u64;
            let (goal, _) = build_and_check(k, |b, r| allreduce_ring(b, r, bytes, 0, &p));
            let stats = atlahs_goal::ScheduleStats::of(&goal);
            // Each rank sends (k-1)/k of the data twice (RS + AG phases).
            assert_eq!(stats.sends, 2 * k * (k - 1));
            let per_rank = stats.bytes_sent / k as u64;
            let expect = 2 * bytes * (k as u64 - 1) / k as u64;
            let tol = 2 * k as u64; // rounding of uneven chunks
            assert!(per_rank.abs_diff(expect) <= tol, "k={k}: sent {per_rank}, expected ~{expect}");
        }
    }

    #[test]
    fn allreduce_ring_beats_recdoub_on_large_messages_and_loses_on_small() {
        // Bandwidth-optimal ring should beat recursive doubling on big data
        // (recdoub sends the full buffer log2(k) times) and lose to it on
        // small data (2(k-1) latency-bound steps against log2(k)).
        let p = CollParams { reduce_per_byte: NsPerByte::ZERO, ..CollParams::default() };
        let ranks: Vec<Rank> = (0..8).collect();
        let makespan = |algo: fn(&mut GoalBuilder, &[Rank], u64, u32, &CollParams) -> Ports,
                        bytes: u64| {
            let mut b = GoalBuilder::new(8);
            algo(&mut b, &ranks, bytes, 0, &p);
            simulate(&b.build().unwrap()).makespan
        };
        let (ring, recdoub) =
            (makespan(allreduce_ring, 1 << 20), makespan(allreduce_recdoub, 1 << 20));
        assert!(ring < recdoub, "ring {ring} should beat recdoub {recdoub}");
        let (ring, recdoub) =
            (makespan(allreduce_ring, 1 << 10), makespan(allreduce_recdoub, 1 << 10));
        assert!(recdoub < ring, "at 1 KiB recdoub {recdoub} should beat ring {ring}");
    }

    #[test]
    fn rabenseifner_pow2_and_fallback() {
        let p = CollParams::default();
        for k in [2, 4, 8, 16] {
            build_and_check(k, |b, r| allreduce_rabenseifner(b, r, 8192, 0, &p));
        }
        // non-pow2 falls back to ring and still completes
        build_and_check(6, |b, r| allreduce_rabenseifner(b, r, 8192, 0, &p));
    }

    #[test]
    fn barrier_rounds() {
        let p = CollParams::default();
        for k in [2, 3, 4, 5, 8, 9] {
            let (goal, _) = build_and_check(k, |b, r| barrier_dissemination(b, r, 0, &p));
            let stats = atlahs_goal::ScheduleStats::of(&goal);
            let rounds = (k as f64).log2().ceil() as usize;
            assert_eq!(stats.sends, rounds * k, "k={k}");
        }
    }

    #[test]
    fn allgather_ring_volume() {
        let p = CollParams::default();
        let (goal, _) = build_and_check(4, |b, r| allgather_ring(b, r, 100, 0, &p));
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 12); // (k-1) * k
        assert_eq!(stats.bytes_sent, 1200);
    }

    #[test]
    fn allgather_bruck_fewer_rounds() {
        let p = CollParams::default();
        let (goal, _) = build_and_check(8, |b, r| allgather_bruck(b, r, 100, 0, &p));
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // 3 rounds of 8 sends each.
        assert_eq!(stats.sends, 24);
        // Total volume matches ring: each rank receives 7 blocks.
        assert_eq!(stats.bytes_sent, 8 * 700);
    }

    #[test]
    fn alltoall_variants_match_and_complete() {
        let p = CollParams::default();
        for k in [2, 3, 4, 8] {
            let (g1, _) = build_and_check(k, |b, r| alltoall_linear(b, r, 64, 0, &p));
            let s1 = atlahs_goal::ScheduleStats::of(&g1);
            assert_eq!(s1.sends, k * (k - 1));

            let (g2, _) = build_and_check(k, |b, r| alltoall_pairwise(b, r, 64, 0, &p));
            let s2 = atlahs_goal::ScheduleStats::of(&g2);
            assert_eq!(s2.sends, k * (k - 1));
            assert_eq!(s1.bytes_sent, s2.bytes_sent);
        }
    }

    #[test]
    fn reduce_scatter_ring_counts() {
        let p = CollParams::default();
        let (goal, _) = build_and_check(4, |b, r| reduce_scatter_ring(b, r, 4096, 0, &p));
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 12);
    }

    #[test]
    fn gather_scatter_mirror_volumes() {
        let p = CollParams::default();
        for k in [2, 3, 5, 8] {
            let (g1, _) = build_and_check(k, |b, r| gather_binomial(b, r, 64, 0, 0, &p));
            let (g2, _) = build_and_check(k, |b, r| scatter_binomial(b, r, 64, 0, 0, &p));
            let s1 = atlahs_goal::ScheduleStats::of(&g1);
            let s2 = atlahs_goal::ScheduleStats::of(&g2);
            assert_eq!(s1.bytes_sent, s2.bytes_sent, "k={k}");
            // Every rank except the root receives exactly once in scatter.
            assert_eq!(s2.recvs, k - 1);
        }
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let p = CollParams::default();
        let (goal, ports) = build_and_check(1, |b, r| allreduce_ring(b, r, 1024, 0, &p));
        assert_eq!(goal.rank(0).num_tasks(), 2); // entry + exit dummies
        assert_eq!(ports.entry.len(), 1);
    }

    #[test]
    fn ports_allow_chaining() {
        let p = CollParams::default();
        let ranks: Vec<Rank> = (0..4).collect();
        let mut b = GoalBuilder::new(4);
        let first = allreduce_ring(&mut b, &ranks, 1024, 0, &p);
        let second = allreduce_ring(&mut b, &ranks, 1024, 1, &p);
        for (i, &rk) in ranks.iter().enumerate() {
            b.requires(rk, second.entry[i], first.exit[i]);
        }
        let goal = b.build().unwrap();
        check_matching(&goal).unwrap();
        let rep = simulate(&goal);
        assert_eq!(rep.completed, goal.total_tasks());
    }

    #[test]
    fn non_trivial_makespans_scale_with_bytes() {
        let p = CollParams::default();
        let ranks: Vec<Rank> = (0..8).collect();
        let mut small = GoalBuilder::new(8);
        allreduce_ring(&mut small, &ranks, 1 << 10, 0, &p);
        let mut large = GoalBuilder::new(8);
        allreduce_ring(&mut large, &ranks, 1 << 22, 0, &p);
        let t_small = simulate(&small.build().unwrap()).makespan;
        let t_large = simulate(&large.build().unwrap()).makespan;
        assert!(t_large > 10 * t_small, "large {t_large} vs small {t_small}");
    }

    #[test]
    fn bruck_alltoall_matches_and_completes() {
        // Including non-power-of-two group sizes.
        for k in [2usize, 3, 4, 7, 8, 16, 33] {
            let ranks: Vec<Rank> = (0..k as u32).collect();
            let mut b = GoalBuilder::new(k);
            alltoall_bruck(&mut b, &ranks, 1024, 0, &CollParams::default());
            let goal = b.build().unwrap();
            check_matching(&goal).unwrap_or_else(|e| panic!("k={k}: {e}"));
            let rep = simulate(&goal);
            assert_eq!(rep.completed, goal.total_tasks(), "k={k}");
        }
    }

    #[test]
    fn bruck_is_log_rounds_pairwise_is_linear() {
        let k = 64usize;
        let ranks: Vec<Rank> = (0..k as u32).collect();
        let count = |f: &dyn Fn(&mut GoalBuilder)| {
            let mut b = GoalBuilder::new(k);
            f(&mut b);
            b.build().unwrap().total_tasks()
        };
        let p = CollParams::default();
        let bruck = count(&|b: &mut GoalBuilder| {
            alltoall_bruck(b, &ranks, 256, 0, &p);
        });
        let pairwise = count(&|b: &mut GoalBuilder| {
            alltoall_pairwise(b, &ranks, 256, 0, &p);
        });
        assert!(
            bruck * 4 < pairwise,
            "O(k log k) vs O(k²) at k=64: bruck={bruck} pairwise={pairwise}"
        );
    }

    #[test]
    fn bruck_moves_all_the_data() {
        // Total bytes shipped by Bruck is ~(k/2)·log2(k)·k·block — more
        // wire volume than pairwise's (k-1)·k·block for large k is NOT
        // expected below k ≈ e²; assert the conservation-order sanity.
        let k = 16usize;
        let ranks: Vec<Rank> = (0..k as u32).collect();
        let p = CollParams::default();
        let mut b = GoalBuilder::new(k);
        alltoall_bruck(&mut b, &ranks, 1 << 10, 0, &p);
        let goal = b.build().unwrap();
        let bytes = atlahs_goal::ScheduleStats::of(&goal).bytes_sent;
        // log2(16) = 4 rounds, 8 blocks per round, 16 ranks.
        assert_eq!(bytes, 4 * 8 * 16 * 1024);
    }
}
