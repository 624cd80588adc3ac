//! A causal oracle for every collective generator, owing nothing to the
//! generators' own code.
//!
//! Happens-before is computed over a schedule's dependency edges of both
//! kinds plus send→recv matching: the k-th send of a `(src, dst, tag)` key,
//! in task-id order, matches the k-th recv of that key. That rule is sound
//! only if same-key tasks on one rank are totally ordered by the rank's own
//! edges, so that id order is the only order any backend can issue them in;
//! the oracle checks this first. Each task then carries a `u32` bitset of
//! the ranks whose entry (task 0 of a one-collective rank) precedes it, so
//! groups hold at most 32 ranks.
//!
//! Three laws, each stated from the algorithm's definition:
//! - **reachability**: in an allreduce, allgather, alltoall, reduce-scatter
//!   or barrier every entry reaches every exit (a rank's last task); in a
//!   broadcast or scatter the root's entry reaches every exit; in a reduce
//!   or gather every entry reaches the root's exit;
//! - **matching**: every send has its recv, of the same size;
//! - **bytes**: each rank sends what the algorithm's closed form says, e.g.
//!   `2(k−1)/k · n` for a ring allreduce, with the remainder of `n / k`
//!   spread one byte each over the first chunks.

use std::collections::BTreeMap;

use atlahs_collectives::nccl::{NcclAlgo, NcclConfig, NcclProtocol};
use atlahs_collectives::{mpi, nccl, CollParams, Ports};
use atlahs_goal::{text, GoalBuilder, GoalSchedule, Rank, TaskId, TaskKind};

/// Which entries must reach which exits.
#[derive(Debug, Clone, Copy)]
enum Reach {
    /// Every entry reaches every exit.
    All,
    /// The root's entry reaches every exit.
    FromRoot(usize),
    /// Every entry reaches the root's exit.
    ToRoot(usize),
}

/// A send or recv's matching key, `(src, dst, tag)`.
type Key = (Rank, Rank, u32);

/// Whether `a` precedes `b` on one rank through that rank's edges.
fn precedes(goal: &GoalSchedule, rank: Rank, a: TaskId, b: TaskId) -> bool {
    let sched = goal.rank(rank);
    let mut seen = vec![false; sched.num_tasks()];
    let mut stack = vec![b];
    while let Some(t) = stack.pop() {
        for dep in sched.preds(t) {
            let p = dep.task();
            if p == a {
                return true;
            }
            if !std::mem::replace(&mut seen[p.0 as usize], true) {
                stack.push(p);
            }
        }
    }
    false
}

/// Happens-before from the entries: per rank, per task, the bitset of the
/// ranks whose task 0 precedes it (or is it). Errs on a same-key pair no
/// edge orders, an unmatched or mis-sized message, or a cycle.
fn causal(goal: &GoalSchedule) -> Result<Vec<Vec<u32>>, String> {
    let k = goal.num_ranks();
    assert!(k <= 32, "a u32 bitset holds 32 ranks");
    let mut sends: BTreeMap<Key, Vec<(Rank, TaskId, u64)>> = BTreeMap::new();
    let mut recvs: BTreeMap<Key, Vec<(Rank, TaskId, u64)>> = BTreeMap::new();
    for r in 0..k as Rank {
        for (i, task) in goal.rank(r).tasks().enumerate() {
            let id = TaskId(i as u32);
            match task.kind {
                TaskKind::Send { bytes, dst, tag } => {
                    sends.entry((r, dst, tag)).or_default().push((r, id, bytes))
                }
                TaskKind::Recv { bytes, src, tag } => {
                    recvs.entry((src, r, tag)).or_default().push((r, id, bytes))
                }
                TaskKind::Calc { .. } => {}
            }
        }
    }
    for (key, tasks) in sends.iter().chain(&recvs) {
        for pair in tasks.windows(2) {
            let ((r, a, _), (_, b, _)) = (pair[0], pair[1]);
            if !precedes(goal, r, a, b) {
                return Err(format!("{key:?}: rank {r} tasks {a:?} and {b:?} are unordered"));
            }
        }
    }
    // Each matched (send, recv), by global index.
    let mut offset = vec![0];
    for r in 0..k {
        offset.push(offset[r] + goal.rank(r as Rank).num_tasks());
    }
    let mut matched: Vec<(usize, usize)> = Vec::new();
    for (key, ss) in &sends {
        let rs = recvs.get(key).map_or(&[][..], Vec::as_slice);
        if ss.len() != rs.len() {
            return Err(format!("{key:?}: {} sends, {} recvs", ss.len(), rs.len()));
        }
        for (&(sr, s, sb), &(rr, v, rb)) in ss.iter().zip(rs) {
            if sb != rb {
                return Err(format!("{key:?}: a {sb}-byte send meets a {rb}-byte recv"));
            }
            matched.push((offset[sr as usize] + s.0 as usize, offset[rr as usize] + v.0 as usize));
        }
    }
    if let Some(key) = recvs.keys().find(|key| !sends.contains_key(key)) {
        return Err(format!("{key:?}: recvs without a send"));
    }
    // Kahn's algorithm over both edge sets.
    let total = offset[k];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut indegree = vec![0u32; total];
    for r in 0..k {
        let sched = goal.rank(r as Rank);
        for i in 0..sched.num_tasks() {
            for dep in sched.preds(TaskId(i as u32)) {
                succs[offset[r] + dep.task().0 as usize].push(offset[r] + i);
                indegree[offset[r] + i] += 1;
            }
        }
    }
    for &(send, recv) in &matched {
        succs[send].push(recv);
        indegree[recv] += 1;
    }
    let mut bits = vec![0u32; total];
    for r in 0..k {
        bits[offset[r]] |= 1 << r;
    }
    let mut ready: Vec<usize> = (0..total).filter(|&n| indegree[n] == 0).collect();
    let mut done = 0;
    while let Some(n) = ready.pop() {
        done += 1;
        for &s in &succs[n] {
            bits[s] |= bits[n];
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    if done != total {
        return Err(format!("{} of {total} tasks sit on a cycle", total - done));
    }
    Ok((0..k).map(|r| bits[offset[r]..offset[r + 1]].to_vec()).collect())
}

/// The oracle: matching and happens-before, `reach`, and each rank's sent
/// bytes equal to `sent`.
fn oracle(goal: &GoalSchedule, reach: Reach, sent: &[u64]) -> Result<(), String> {
    let k = goal.num_ranks();
    let bits = causal(goal)?;
    let exit = |r: usize| *bits[r].last().expect("every rank has an exit");
    let all = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
    for r in 0..k {
        let (want, got) = match reach {
            Reach::All => (all, exit(r)),
            Reach::FromRoot(root) => (1 << root, exit(r) & 1 << root),
            Reach::ToRoot(root) if r == root => (all, exit(r)),
            Reach::ToRoot(_) => continue,
        };
        if got != want {
            return Err(format!("{reach:?}: rank {r}'s exit is reached from {got:#b}"));
        }
    }
    let sent_bytes = |kind| match kind {
        TaskKind::Send { bytes, .. } => bytes,
        _ => 0,
    };
    let got: Vec<u64> =
        (0..k as Rank).map(|r| goal.rank(r).tasks().map(|t| sent_bytes(t.kind)).sum()).collect();
    if got != sent {
        return Err(format!("sent bytes per rank {got:?}, closed form {sent:?}"));
    }
    Ok(())
}

/// Build one collective on ranks `0..k` and check it; its ports must be
/// each rank's first and last task, which the oracle takes as entry and
/// exit.
fn check(k: usize, reach: Reach, sent: &[u64], f: impl FnOnce(&mut GoalBuilder, &[Rank]) -> Ports) {
    let ranks: Vec<Rank> = (0..k as Rank).collect();
    let mut b = GoalBuilder::new(k);
    let ports = f(&mut b, &ranks);
    let goal = b.build().expect("a collective builds");
    for r in 0..k {
        let last = TaskId(goal.rank(r as Rank).num_tasks() as u32 - 1);
        assert_eq!((ports.entry[r], ports.exit[r]), (TaskId(0), last), "k={k} rank {r}");
    }
    if let Err(e) = oracle(&goal, reach, sent) {
        panic!("k={k} {reach:?}: {e}");
    }
}

const KS: [usize; 8] = [1, 2, 3, 4, 5, 8, 13, 32];

/// Roots to try in a group of `k`.
fn roots(k: usize) -> Vec<usize> {
    let mut roots = vec![0, 1 % k, k / 2, k - 1];
    roots.dedup();
    roots
}

/// `n` split into `parts` near-equal chunks, the first `n mod parts` one
/// byte larger.
fn split(n: u64, parts: usize) -> Vec<u64> {
    (0..parts as u64).map(|i| n / parts as u64 + u64::from(i < n % parts as u64)).collect()
}

/// ⌈log₂ k⌉: the rounds of a doubling algorithm.
fn rounds(k: usize) -> u64 {
    u64::from(usize::BITS - k.saturating_sub(1).leading_zeros())
}

/// The binomial tree rooted at relative rank 0: node `v` (`v > 0`) hangs
/// below `v` minus its lowest set bit, and its subtree holds the
/// `min(lowbit(v), k − v)` ranks `v..`; the root's subtree is all `k`.
fn subtree(v: usize, k: usize) -> u64 {
    if v == 0 {
        k as u64
    } else {
        (v & v.wrapping_neg()).min(k - v) as u64
    }
}

/// The children of relative rank `v` in that tree: `v + 2^j` for every
/// `2^j` below `v`'s lowest set bit (every `2^j` for the root), inside `k`.
fn children(v: usize, k: usize) -> Vec<usize> {
    (0..usize::BITS)
        .map(|j| 1usize << j)
        .take_while(|&b| b < k && (v == 0 || b < v & v.wrapping_neg()))
        .map(|b| v + b)
        .filter(|&c| c < k)
        .collect()
}

/// Per rank, with relative rank `(r − root) mod k`.
fn per_relative(k: usize, root: usize, f: impl Fn(usize) -> u64) -> Vec<u64> {
    (0..k).map(|r| f((r + k - root) % k)).collect()
}

/// Ring allreduce: rank `p` sends every chunk but `p+1` (the one it owns
/// after reduce-scatter) and then every chunk but `p+2` (the one it
/// receives last) — `2(k−1)/k · n` when `k` divides `n`.
fn ring_allreduce_sent(n: u64, k: usize) -> Vec<u64> {
    let c = split(n, k);
    (0..k).map(|p| if k < 2 { 0 } else { 2 * n - c[(p + 1) % k] - c[(p + 2) % k] }).collect()
}

/// Ring reduce-scatter: every chunk but the one `p` ends up owning.
fn ring_reduce_scatter_sent(n: u64, k: usize) -> Vec<u64> {
    let c = split(n, k);
    (0..k).map(|p| if k < 2 { 0 } else { n - c[(p + 1) % k] }).collect()
}

const MPI_SIZES: [u64; 4] = [1, 1000, 65_536, 1_000_003];

#[test]
fn mpi_ring_allreduce_and_reduce_scatter() {
    let p = CollParams::default();
    for k in KS {
        for n in MPI_SIZES {
            let ar = ring_allreduce_sent(n, k);
            if k.is_power_of_two() && n % k as u64 == 0 {
                assert!(ar.iter().all(|&s| s == 2 * (k as u64 - 1) * n / k as u64));
            }
            check(k, Reach::All, &ar, |b, g| mpi::allreduce_ring(b, g, n, 3, &p));
            let rs = ring_reduce_scatter_sent(n, k);
            check(k, Reach::All, &rs, |b, g| mpi::reduce_scatter_ring(b, g, n, 3, &p));
        }
    }
}

#[test]
fn mpi_recursive_allreduces() {
    let p = CollParams::default();
    for k in KS {
        for n in MPI_SIZES {
            // Recursive doubling: the largest power of two `q ≤ k` runs
            // log₂ q exchanges of `n`; each of the `k − q` excess ranks
            // 2i folds into 2i+1, which sends the result back.
            let q = 1usize << k.ilog2();
            let excess = k - q;
            let sent: Vec<u64> = (0..k)
                .map(|p| match p {
                    p if p < 2 * excess && p % 2 == 0 => n,
                    p if p < 2 * excess => n * (u64::from(q.ilog2()) + 1),
                    _ => n * u64::from(q.ilog2()),
                })
                .collect();
            check(k, Reach::All, &sent, |b, g| mpi::allreduce_recdoub(b, g, n, 4, &p));
        }
        // Rabenseifner: recursive halving sends n/2, n/4, …, n/k, then
        // recursive doubling n/k, 2n/k, …, n/2 — `2(k−1)/k · n` — on a
        // power of two dividing `n`; any other group runs the ring.
        for n in [k as u64 * 1024, k as u64 * 3000] {
            let sent = if k.is_power_of_two() {
                vec![2 * (k as u64 - 1) * n / k as u64; k]
            } else {
                ring_allreduce_sent(n, k)
            };
            check(k, Reach::All, &sent, |b, g| mpi::allreduce_rabenseifner(b, g, n, 4, &p));
        }
    }
}

#[test]
fn mpi_allgathers_alltoalls_and_barrier() {
    let p = CollParams::default();
    for k in KS {
        for block in [1, 4096, 100_001] {
            // Every rank sends its k−1 blocks' worth, one way or another.
            let gather = vec![(k as u64 - 1) * block; k];
            check(k, Reach::All, &gather, |b, g| mpi::allgather_ring(b, g, block, 5, &p));
            check(k, Reach::All, &gather, |b, g| mpi::allgather_bruck(b, g, block, 5, &p));
            check(k, Reach::All, &gather, |b, g| mpi::alltoall_linear(b, g, block, 6, &p));
            check(k, Reach::All, &gather, |b, g| mpi::alltoall_pairwise(b, g, block, 6, &p));
            // Bruck alltoall forwards the block for relative offset `o`
            // once per set bit of `o`.
            let hops: u64 = (0..k as u64).map(|o| u64::from(o.count_ones())).sum();
            let bruck = vec![hops * block; k];
            check(k, Reach::All, &bruck, |b, g| mpi::alltoall_bruck(b, g, block, 6, &p));
        }
        // Dissemination: one byte per round.
        let barrier = vec![rounds(k); k];
        check(k, Reach::All, &barrier, |b, g| mpi::barrier_dissemination(b, g, 7, &p));
    }
}

#[test]
fn mpi_rooted_collectives() {
    let p = CollParams::default();
    for k in KS {
        for root in roots(k) {
            for n in [1, 8192, 1_000_003] {
                let bcast = per_relative(k, root, |v| n * children(v, k).len() as u64);
                let reach = Reach::FromRoot(root);
                check(k, reach, &bcast, |b, g| mpi::bcast_binomial(b, g, n, root, 8, &p));
                // Ring pipeline: every rank but the ring's last, root − 1,
                // forwards all `n` bytes.
                let ring = per_relative(k, root, |v| if v + 1 < k { n } else { 0 });
                let seg = |seg_bytes| CollParams { seg_bytes, ..p };
                for q in [seg(0), seg(4096), p] {
                    check(k, reach, &ring, |b, g| mpi::bcast_ring_pipelined(b, g, n, root, 8, &q));
                }
                let scatter = per_relative(k, root, |v| {
                    children(v, k).into_iter().map(|c| subtree(c, k) * n).sum()
                });
                check(k, reach, &scatter, |b, g| mpi::scatter_binomial(b, g, n, root, 8, &p));
                // Every rank but the root sends once: its value (reduce)
                // or its subtree's blocks (gather).
                let reach = Reach::ToRoot(root);
                let reduce = per_relative(k, root, |v| if v == 0 { 0 } else { n });
                check(k, reach, &reduce, |b, g| mpi::reduce_binomial(b, g, n, root, 8, &p));
                let gather = per_relative(k, root, |v| if v == 0 { 0 } else { subtree(v, k) * n });
                check(k, reach, &gather, |b, g| mpi::gather_binomial(b, g, n, root, 8, &p));
            }
        }
    }
}

/// NCCL configurations whose wire size is linear in the payload (Simple
/// and LL), so a rank's wire bytes are `factor ×` its payload bytes.
fn nccl_configs() -> Vec<(NcclConfig, u64)> {
    let mut out = Vec::new();
    for (protocol, factor) in [(NcclProtocol::Simple, 1), (NcclProtocol::Ll, 2)] {
        for (channels, chunk_bytes) in [(1, 0), (2, 0), (4, 8192)] {
            let cfg = NcclConfig { protocol, channels, chunk_bytes, ..NcclConfig::default() };
            out.push((cfg, factor));
        }
    }
    out
}

/// Sizes large enough that every channel's every per-rank piece is at
/// least one byte, so no message is padded to the one-byte minimum.
fn nccl_sizes(k: usize) -> [u64; 2] {
    [k as u64 * 4 * 8192 + 13, 3 << 20]
}

/// Per channel share, summed: `f(share)` per rank.
fn per_channel(n: u64, cfg: &NcclConfig, f: impl Fn(u64) -> Vec<u64>) -> Vec<u64> {
    let shares = split(n, cfg.channels as usize);
    let per: Vec<Vec<u64>> = shares.into_iter().filter(|&s| s > 0).map(f).collect();
    (0..per[0].len()).map(|p| per.iter().map(|v| v[p]).sum()).collect()
}

#[test]
fn nccl_ring_collectives() {
    for k in KS {
        for (cfg, factor) in nccl_configs() {
            for n in nccl_sizes(k) {
                let wire = |v: Vec<u64>| v.into_iter().map(|s| s * factor).collect::<Vec<_>>();
                let ar = wire(per_channel(n, &cfg, |s| ring_allreduce_sent(s, k)));
                check(k, Reach::All, &ar, |b, g| nccl::allreduce(b, g, n, 10, &cfg));
                let rs = wire(per_channel(n, &cfg, |s| ring_reduce_scatter_sent(s, k)));
                check(k, Reach::All, &rs, |b, g| nccl::reduce_scatter(b, g, n, 10, &cfg));
                let ag = vec![(k as u64 - 1) * n * factor; k];
                check(k, Reach::All, &ag, |b, g| nccl::allgather(b, g, n, 10, &cfg));
                check(k, Reach::All, &ag, |b, g| nccl::alltoall(b, g, n, 10, &cfg));
                for root in roots(k) {
                    let bc = per_relative(k, root, |v| if v + 1 < k { n * factor } else { 0 });
                    let reach = Reach::FromRoot(root);
                    check(k, reach, &bc, |b, g| nccl::broadcast(b, g, n, root, 10, &cfg));
                }
            }
        }
    }
}

#[test]
fn nccl_tree_allreduce() {
    for k in KS {
        for (cfg, factor) in nccl_configs() {
            let cfg = NcclConfig { algorithm: NcclAlgo::Tree, ..cfg };
            for n in nccl_sizes(k) {
                // A binary heap tree: rank p reduces up to (p−1)/2 and
                // broadcasts down to 2p+1 and 2p+2, the whole payload each.
                let sent: Vec<u64> = (0..k)
                    .map(|p| {
                        let kids = [2 * p + 1, 2 * p + 2].iter().filter(|&&c| c < k).count();
                        (kids as u64 + u64::from(p > 0)) * n * factor
                    })
                    .collect();
                check(k, Reach::All, &sent, |b, g| nccl::allreduce(b, g, n, 11, &cfg));
            }
        }
    }
}

/// The text form of `goal` with the first task of rank `rank` whose line
/// ends the way `pick` says removed, with every edge naming it.
fn without_first(text: &str, rank: usize, pick: &str) -> String {
    let header = format!("rank {rank} {{");
    let mut in_rank = false;
    let mut label = None;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with("rank ") {
            in_rank = line == header;
        }
        if in_rank && label.is_none() && line.contains(pick) {
            label = line.split(':').next().map(str::to_string);
            continue;
        }
        let names = |l: &str| line.split_whitespace().any(|w| w == l);
        if in_rank && label.as_deref().is_some_and(names) {
            continue;
        }
        out.push(line);
    }
    assert!(label.is_some(), "rank {rank} has no `{pick}` task");
    out.join("\n")
}

/// Dropping one send–recv pair of a ring step (rank 0's first send to rank
/// 1 and the recv that matches it) leaves a schedule that still builds and
/// runs, and the oracle rejects it; so does dropping the send alone.
#[test]
fn a_ring_missing_one_step_fails_the_oracle() {
    let (k, n) = (4, 4096);
    let ranks: Vec<Rank> = (0..k as Rank).collect();
    let mut b = GoalBuilder::new(k);
    mpi::allreduce_ring(&mut b, &ranks, n, 3, &CollParams::default());
    let whole = text::to_text(&b.build().unwrap());
    let sent = ring_allreduce_sent(n, k);
    oracle(&text::parse(&whole).unwrap(), Reach::All, &sent).expect("the whole ring passes");

    let no_send = without_first(&whole, 0, "send 1024b to 1");
    let pair = without_first(&no_send, 1, "recv 1024b from 0");
    let goal = text::parse(&pair).expect("the mutant parses");
    atlahs_goal::stats::check_matching(&goal).expect("the mutant still matches");
    let err = oracle(&goal, Reach::All, &sent).expect_err("a lost ring step must fail");
    assert!(err.starts_with("sent bytes per rank"), "{err}");

    let err = oracle(&text::parse(&no_send).unwrap(), Reach::All, &sent).unwrap_err();
    assert!(err.ends_with("5 sends, 6 recvs"), "{err}");
}
