//! NCCL collective schedules (paper §3.1.2 Stage 3, Fig. 4).
//!
//! Unlike MPI collectives, NCCL schedules depend on runtime configuration:
//! the number of **channels** (`NCCL_MAX_NCHANNELS` — parallel rings/trees,
//! each served by one SM), the **algorithm** (`NCCL_ALGO` — ring or tree),
//! and the **protocol** (`NCCL_PROTO` — Simple, LL, LL128), which changes
//! both chunking granularity and wire overhead:
//!
//! * **Simple** — large chunks bounded by the channel buffer (512 KiB slots
//!   by default); no per-line overhead, but chunk-granular synchronization.
//! * **LL** (low latency) — 8-byte lines paired with 8-byte flags: 100% wire
//!   overhead, tiny chunks, no barrier — best for small messages.
//! * **LL128** — 128-byte lines with 8 bytes of flags: 120/128 efficiency,
//!   a good compromise on NVLink-class fabrics.
//!
//! Data is split across channels; within a channel, transfers are cut into
//! protocol-sized chunks that pipeline around the ring (Fig. 4's broadcast
//! shows 2 MB moving as 4 × 512 KiB chunks). Chunks chain on each rank's
//! frontier, so hop h of chunk c overlaps hop h+1 of chunk c-1, exactly the
//! pipelining a real NCCL ring achieves.

use atlahs_goal::{GoalBuilder, Rank, Stream, Tag, TaskId};

use crate::{chunk_sizes, Group, Ports};

/// NCCL transport protocol (`NCCL_PROTO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NcclProtocol {
    Simple,
    Ll,
    Ll128,
}

impl NcclProtocol {
    /// Bytes that actually cross the wire for `data` payload bytes.
    pub fn wire_bytes(self, data: u64) -> u64 {
        match self {
            NcclProtocol::Simple => data,
            NcclProtocol::Ll => data * 2,
            NcclProtocol::Ll128 => data * 128 / 120 + u64::from(data % 120 != 0),
        }
    }

    /// Default chunk granularity of the protocol.
    pub fn default_chunk(self) -> u64 {
        match self {
            NcclProtocol::Simple => 512 * 1024,
            NcclProtocol::Ll => 16 * 1024,
            NcclProtocol::Ll128 => 64 * 1024,
        }
    }
}

/// NCCL algorithm selection (`NCCL_ALGO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NcclAlgo {
    Ring,
    Tree,
}

/// Configuration of a NCCL communicator, mirroring the environment
/// variables that select the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcclConfig {
    /// Parallel channels (`NCCL_MAX_NCHANNELS`); data is split across them.
    pub channels: u32,
    pub protocol: NcclProtocol,
    pub algorithm: NcclAlgo,
    /// Chunk size; 0 selects the protocol default.
    pub chunk_bytes: u64,
    /// Reduction cost (ns per byte) charged on the receiving GPU.
    // det-lint: allow(float) — protocol cost parameter, folded to integer ns via fixed-order ops
    pub reduce_ns_per_byte: f64,
    /// Kernel launch overhead charged once per collective per rank.
    pub launch_ns: u64,
    /// Compute stream the collective's tasks are tagged with.
    pub stream: Stream,
}

impl Default for NcclConfig {
    fn default() -> Self {
        NcclConfig {
            channels: 2,
            protocol: NcclProtocol::Simple,
            algorithm: NcclAlgo::Ring,
            chunk_bytes: 0,
            // det-lint: allow(float) — protocol cost parameter, folded to integer ns via fixed-order ops
            reduce_ns_per_byte: 0.01,
            launch_ns: 1_500,
            stream: 0,
        }
    }
}

impl NcclConfig {
    pub fn chunk(&self) -> u64 {
        if self.chunk_bytes == 0 {
            self.protocol.default_chunk()
        } else {
            self.chunk_bytes
        }
    }

    fn reduce_cost(&self, bytes: u64) -> u64 {
        // det-lint: allow(float) — protocol cost parameter, folded to integer ns via fixed-order ops
        (bytes as f64 * self.reduce_ns_per_byte) as u64
    }
}

/// Split `bytes` into per-channel shares (first channels take the remainder).
fn channel_shares(bytes: u64, channels: u32) -> Vec<u64> {
    chunk_sizes(bytes, channels as u64)
}

fn launch(g: &mut Group<'_>, cfg: &NcclConfig) {
    if cfg.launch_ns > 0 {
        for p in 0..g.size() {
            g.calc(p, cfg.launch_ns);
        }
    }
}

/// NCCL allreduce. Ring: reduce-scatter + allgather per channel with chunk
/// pipelining. Tree: reduce up + broadcast down a (k-ary = 2) tree.
pub fn allreduce(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    match cfg.algorithm {
        NcclAlgo::Ring => allreduce_ring(b, ranks, bytes, tag, cfg),
        NcclAlgo::Tree => allreduce_tree(b, ranks, bytes, tag, cfg),
    }
}

fn allreduce_ring(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, cfg.stream);
    launch(&mut g, cfg);
    if k > 1 && bytes > 0 {
        let entry_frontier = g.frontier.clone();
        // Per-channel frontiers so channels proceed independently.
        let mut exits: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for (c, &share) in channel_shares(bytes, cfg.channels).iter().enumerate() {
            if share == 0 {
                continue;
            }
            let ctag = tag + c as u32;
            let mut frontier = entry_frontier.clone();
            // Ring chunk per rank within this channel.
            let per_rank = chunk_sizes(share, k as u64);
            // Pipeline: each per-rank chunk may exceed the protocol chunk;
            // split into windows that chain on the frontier.
            let windows = per_rank[0].max(1).div_ceil(cfg.chunk());
            for w in 0..windows {
                let piece = |idx: usize| -> u64 {
                    let total = per_rank[idx];
                    let base = total / windows;
                    let rem = total % windows;
                    base + u64::from(w < rem)
                };
                // Reduce-scatter.
                for s in 0..k - 1 {
                    ring_step(&mut g, &mut frontier, s, piece, ctag, cfg, true);
                }
                // Allgather.
                for s in k - 1..2 * (k - 1) {
                    ring_step(&mut g, &mut frontier, s, piece, ctag, cfg, false);
                }
            }
            for p in 0..k {
                exits[p].push(frontier[p]);
            }
        }
        join_channels(&mut g, exits);
    }
    g.finish()
}

/// One synchronized ring step: rank p sends its current chunk to p+1 and
/// receives from p-1 (with optional reduction), all chained on `frontier`.
fn ring_step(
    g: &mut Group<'_>,
    frontier: &mut [TaskId],
    s: usize,
    piece: impl Fn(usize) -> u64,
    tag: Tag,
    cfg: &NcclConfig,
    reduce: bool,
) {
    let k = g.size();
    for (p, front) in frontier.iter_mut().enumerate().take(k) {
        // Chunk indices mirror the MPI ring; only sizes matter for timing.
        let send_chunk = (p + 2 * k - s) % k;
        let recv_chunk = (p + 2 * k - s - 1) % k;
        let send_bytes = cfg.protocol.wire_bytes(piece(send_chunk));
        let recv_bytes = cfg.protocol.wire_bytes(piece(recv_chunk));
        let dst = (p + 1) % k;
        let src = (p + k - 1) % k;
        let r = g.ranks[p];
        let prev = *front;
        let snd = g.b.send_on(r, g.ranks[dst], send_bytes.max(1), tag, g.stream);
        let rcv = g.b.recv_on(r, g.ranks[src], recv_bytes.max(1), tag, g.stream);
        g.b.requires(r, snd, prev);
        g.b.requires(r, rcv, prev);
        let mut tail = rcv;
        if reduce {
            let red = g.b.calc_on(r, cfg.reduce_cost(piece(recv_chunk)), g.stream);
            g.b.requires(r, red, rcv);
            tail = red;
        }
        let join = g.b.dummy(r);
        g.b.requires(r, join, snd);
        g.b.requires(r, join, tail);
        *front = join;
    }
}

fn allreduce_tree(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, cfg.stream);
    launch(&mut g, cfg);
    if k > 1 && bytes > 0 {
        let entry_frontier = g.frontier.clone();
        let mut exits: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for (c, &share) in channel_shares(bytes, cfg.channels).iter().enumerate() {
            if share == 0 {
                continue;
            }
            let ctag = tag + c as u32;
            let mut frontier = entry_frontier.clone();
            // Chunks pipeline through the tree.
            let nchunks = share.div_ceil(cfg.chunk());
            let chunks = chunk_sizes(share, nchunks);
            for &chunk in &chunks {
                let wire = cfg.protocol.wire_bytes(chunk).max(1);
                // Reduce up: children (2p+1, 2p+2) send to parent p.
                // Deepest level first so recvs are posted in arrival order.
                for p in (0..k).rev() {
                    let r = g.ranks[p];
                    let left = 2 * p + 1;
                    let right = 2 * p + 2;
                    for child in [left, right] {
                        if child < k {
                            let rcv = g.b.recv_on(r, g.ranks[child], wire, ctag, g.stream);
                            g.b.requires(r, rcv, frontier[p]);
                            let red = g.b.calc_on(r, cfg.reduce_cost(chunk), g.stream);
                            g.b.requires(r, red, rcv);
                            frontier[p] = red;
                        }
                    }
                    if p > 0 {
                        let parent = (p - 1) / 2;
                        let snd = g.b.send_on(r, g.ranks[parent], wire, ctag, g.stream);
                        g.b.requires(r, snd, frontier[p]);
                        frontier[p] = snd;
                    }
                }
                // Broadcast down.
                for (p, front) in frontier.iter_mut().enumerate().take(k) {
                    let r = g.ranks[p];
                    if p > 0 {
                        let parent = (p - 1) / 2;
                        let rcv = g.b.recv_on(r, g.ranks[parent], wire, ctag, g.stream);
                        g.b.requires(r, rcv, *front);
                        *front = rcv;
                    }
                    for child in [2 * p + 1, 2 * p + 2] {
                        if child < k {
                            let snd = g.b.send_on(r, g.ranks[child], wire, ctag, g.stream);
                            g.b.requires(r, snd, *front);
                            *front = snd;
                        }
                    }
                }
            }
            for p in 0..k {
                exits[p].push(frontier[p]);
            }
        }
        join_channels(&mut g, exits);
    }
    g.finish()
}

/// NCCL ring broadcast from `root` — the Fig. 4 schedule: the payload is
/// divided into protocol chunks that travel around the ring sequentially
/// from the root, each relay forwarding chunk-by-chunk.
pub fn broadcast(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    root: usize,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, cfg.stream);
    launch(&mut g, cfg);
    if k > 1 && bytes > 0 {
        let entry_frontier = g.frontier.clone();
        let mut exits: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for (c, &share) in channel_shares(bytes, cfg.channels).iter().enumerate() {
            if share == 0 {
                continue;
            }
            let ctag = tag + c as u32;
            let mut frontier = entry_frontier.clone();
            let nchunks = share.div_ceil(cfg.chunk());
            let chunks = chunk_sizes(share, nchunks);
            for &chunk in &chunks {
                let wire = cfg.protocol.wire_bytes(chunk).max(1);
                for hop in 0..k - 1 {
                    let from = (root + hop) % k;
                    let to = (root + hop + 1) % k;
                    let rf = g.ranks[from];
                    let rt = g.ranks[to];
                    let snd = g.b.send_on(rf, rt, wire, ctag, g.stream);
                    g.b.requires(rf, snd, frontier[from]);
                    frontier[from] = snd;
                    let rcv = g.b.recv_on(rt, rf, wire, ctag, g.stream);
                    g.b.requires(rt, rcv, frontier[to]);
                    frontier[to] = rcv;
                }
            }
            for p in 0..k {
                exits[p].push(frontier[p]);
            }
        }
        join_channels(&mut g, exits);
    }
    g.finish()
}

/// NCCL ring allgather: each rank contributes `block_bytes`.
pub fn allgather(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, cfg.stream);
    launch(&mut g, cfg);
    if k > 1 && block_bytes > 0 {
        let entry_frontier = g.frontier.clone();
        let mut exits: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for (c, &share) in channel_shares(block_bytes, cfg.channels).iter().enumerate() {
            if share == 0 {
                continue;
            }
            let ctag = tag + c as u32;
            let mut frontier = entry_frontier.clone();
            let windows = share.max(1).div_ceil(cfg.chunk());
            for w in 0..windows {
                let base = share / windows;
                let rem = share % windows;
                let piece_sz = base + u64::from(w < rem);
                if piece_sz == 0 {
                    continue;
                }
                for s in 0..k - 1 {
                    ring_step(&mut g, &mut frontier, s, |_| piece_sz, ctag, cfg, false);
                }
            }
            for p in 0..k {
                exits[p].push(frontier[p]);
            }
        }
        join_channels(&mut g, exits);
    }
    g.finish()
}

/// NCCL ring reduce-scatter: `bytes` total per rank, each ends with a chunk.
pub fn reduce_scatter(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, cfg.stream);
    launch(&mut g, cfg);
    if k > 1 && bytes > 0 {
        let entry_frontier = g.frontier.clone();
        let mut exits: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for (c, &share) in channel_shares(bytes, cfg.channels).iter().enumerate() {
            if share == 0 {
                continue;
            }
            let ctag = tag + c as u32;
            let mut frontier = entry_frontier.clone();
            let per_rank = chunk_sizes(share, k as u64);
            let windows = per_rank[0].max(1).div_ceil(cfg.chunk());
            for w in 0..windows {
                let piece = |idx: usize| -> u64 {
                    let total = per_rank[idx];
                    let base = total / windows;
                    let rem = total % windows;
                    base + u64::from(w < rem)
                };
                for s in 0..k - 1 {
                    ring_step(&mut g, &mut frontier, s, piece, ctag, cfg, true);
                }
            }
            for p in 0..k {
                exits[p].push(frontier[p]);
            }
        }
        join_channels(&mut g, exits);
    }
    g.finish()
}

/// NCCL alltoall (as used by expert parallelism): direct chunked P2P between
/// every pair, staggered ring-style to avoid a fixed incast order.
pub fn alltoall(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    block_bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = Group::new(b, ranks, cfg.stream);
    launch(&mut g, cfg);
    if k > 1 && block_bytes > 0 {
        let wire = cfg.protocol.wire_bytes(block_bytes).max(1);
        let entry = g.frontier.clone();
        let mut last: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for i in 1..k {
            for p in 0..k {
                let dst = (p + i) % k;
                let src = (p + k - i) % k;
                let r = g.ranks[p];
                let s = g.b.send_on(r, g.ranks[dst], wire, tag, g.stream);
                let v = g.b.recv_on(r, g.ranks[src], wire, tag, g.stream);
                g.b.requires(r, s, entry[p]);
                g.b.requires(r, v, entry[p]);
                last[p].push(s);
                last[p].push(v);
            }
        }
        for (p, lasts) in last.iter().enumerate().take(k) {
            let r = g.ranks[p];
            let join = g.b.dummy(r);
            for &t in lasts {
                g.b.requires(r, join, t);
            }
            g.frontier[p] = join;
        }
    }
    g.finish()
}

/// Chunked point-to-point transfer (NCCL send/recv pair, used for pipeline
/// parallelism). Participant 0 of `ranks` is the sender, 1 the receiver.
pub fn p2p(
    b: &mut GoalBuilder,
    from: Rank,
    to: Rank,
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> (TaskId, TaskId, TaskId, TaskId) {
    // entry/exit per side: (send_entry, send_exit, recv_entry, recv_exit)
    let se = b.calc_on(from, cfg.launch_ns, cfg.stream);
    let re = b.calc_on(to, cfg.launch_ns, cfg.stream);
    let mut sf = se;
    let mut rf = re;
    let nchunks = bytes.max(1).div_ceil(cfg.chunk());
    let chunks = chunk_sizes(bytes.max(1), nchunks);
    for &chunk in &chunks {
        let wire = cfg.protocol.wire_bytes(chunk).max(1);
        let s = b.send_on(from, to, wire, tag, cfg.stream);
        b.requires(from, s, sf);
        sf = s;
        let r = b.recv_on(to, from, wire, tag, cfg.stream);
        b.requires(to, r, rf);
        rf = r;
    }
    let sx = b.calc_on(from, 0, cfg.stream);
    b.requires(from, sx, sf);
    let rx = b.calc_on(to, 0, cfg.stream);
    b.requires(to, rx, rf);
    (se, sx, re, rx)
}

/// Join per-channel exit vertices into each participant's frontier.
fn join_channels(g: &mut Group<'_>, exits: Vec<Vec<TaskId>>) {
    for (p, outs) in exits.into_iter().enumerate() {
        if outs.is_empty() {
            continue;
        }
        let r = g.ranks[p];
        let join = g.b.dummy(r);
        for t in outs {
            g.b.requires(r, join, t);
        }
        g.frontier[p] = join;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_goal::{GoalSchedule, ScheduleStats};

    fn simulate(goal: &GoalSchedule) -> u64 {
        let mut b = IdealBackend::new(25.0, 1_000);
        Simulation::new(goal).run(&mut b).expect("no deadlock").makespan
    }

    fn check(goal: &GoalSchedule) {
        check_matching(goal).expect("matching");
        simulate(goal);
    }

    #[test]
    fn fig4_broadcast_chunks() {
        // 2 MB broadcast over 4 GPUs, Simple protocol, 1 channel:
        // 4 chunks of 512 KiB, each crossing 3 hops.
        let cfg = NcclConfig { channels: 1, launch_ns: 0, ..NcclConfig::default() };
        let ranks: Vec<Rank> = (0..4).collect();
        let mut b = GoalBuilder::new(4);
        broadcast(&mut b, &ranks, 2 * 1024 * 1024, 0, 0, &cfg);
        let goal = b.build().unwrap();
        check(&goal);
        let stats = ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 4 * 3, "4 chunks x 3 hops");
        assert_eq!(stats.bytes_sent, 3 * 2 * 1024 * 1024);
    }

    #[test]
    fn ring_allreduce_send_counts_scale_with_channels() {
        let ranks: Vec<Rank> = (0..4).collect();
        let mk = |channels: u32| {
            let cfg = NcclConfig { channels, launch_ns: 0, ..NcclConfig::default() };
            let mut b = GoalBuilder::new(4);
            allreduce(&mut b, &ranks, 1 << 20, 0, &cfg);
            let goal = b.build().unwrap();
            check(&goal);
            ScheduleStats::of(&goal)
        };
        let s1 = mk(1);
        let s4 = mk(4);
        // Same total bytes on the wire regardless of channel count.
        assert_eq!(s1.bytes_sent, s4.bytes_sent);
        assert!(s4.sends >= s1.sends);
    }

    #[test]
    fn ll_protocol_doubles_wire_bytes() {
        let ranks: Vec<Rank> = (0..4).collect();
        let mk = |protocol: NcclProtocol| {
            let cfg = NcclConfig { protocol, channels: 1, launch_ns: 0, ..NcclConfig::default() };
            let mut b = GoalBuilder::new(4);
            allreduce(&mut b, &ranks, 1 << 20, 0, &cfg);
            let goal = b.build().unwrap();
            check(&goal);
            ScheduleStats::of(&goal).bytes_sent
        };
        let simple = mk(NcclProtocol::Simple);
        let ll = mk(NcclProtocol::Ll);
        assert!(ll > simple * 19 / 10, "LL {ll} should be ~2x Simple {simple}");
    }

    #[test]
    fn ll128_overhead_is_small() {
        assert_eq!(NcclProtocol::Ll128.wire_bytes(120), 128);
        assert_eq!(NcclProtocol::Simple.wire_bytes(120), 120);
        assert_eq!(NcclProtocol::Ll.wire_bytes(120), 240);
    }

    #[test]
    fn tree_beats_ring_on_latency_small_messages() {
        // For tiny payloads on many ranks, tree depth log2(k) beats ring 2(k-1).
        let ranks: Vec<Rank> = (0..16).collect();
        let mk = |algorithm: NcclAlgo| {
            let cfg = NcclConfig { algorithm, channels: 1, launch_ns: 0, ..NcclConfig::default() };
            let mut b = GoalBuilder::new(16);
            allreduce(&mut b, &ranks, 256, 0, &cfg);
            let goal = b.build().unwrap();
            check_matching(&goal).unwrap();
            simulate(&goal)
        };
        let ring = mk(NcclAlgo::Ring);
        let tree = mk(NcclAlgo::Tree);
        assert!(tree < ring, "tree {tree} should beat ring {ring} at 256 B");
    }

    #[test]
    fn ring_beats_tree_on_bandwidth_large_messages() {
        let ranks: Vec<Rank> = (0..8).collect();
        let mk = |algorithm: NcclAlgo| {
            let cfg = NcclConfig { algorithm, channels: 1, launch_ns: 0, ..NcclConfig::default() };
            let mut b = GoalBuilder::new(8);
            allreduce(&mut b, &ranks, 64 << 20, 0, &cfg);
            let goal = b.build().unwrap();
            simulate(&goal)
        };
        let ring = mk(NcclAlgo::Ring);
        let tree = mk(NcclAlgo::Tree);
        assert!(ring < tree, "ring {ring} should beat tree {tree} at 64 MB");
    }

    #[test]
    fn allgather_and_reduce_scatter_complete() {
        let ranks: Vec<Rank> = (0..6).collect();
        let cfg = NcclConfig { channels: 2, ..NcclConfig::default() };
        let mut b = GoalBuilder::new(6);
        allgather(&mut b, &ranks, 1 << 18, 0, &cfg);
        reduce_scatter(&mut b, &ranks, 1 << 18, 64, &cfg);
        let goal = b.build().unwrap();
        check(&goal);
    }

    #[test]
    fn alltoall_pair_count() {
        let ranks: Vec<Rank> = (0..8).collect();
        let cfg = NcclConfig { channels: 1, launch_ns: 0, ..NcclConfig::default() };
        let mut b = GoalBuilder::new(8);
        alltoall(&mut b, &ranks, 4096, 0, &cfg);
        let goal = b.build().unwrap();
        check(&goal);
        let stats = ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 8 * 7);
    }

    #[test]
    fn p2p_chunked_pipeline() {
        let cfg = NcclConfig { channels: 1, launch_ns: 0, ..NcclConfig::default() };
        let mut b = GoalBuilder::new(2);
        p2p(&mut b, 0, 1, 2 * 1024 * 1024, 0, &cfg);
        let goal = b.build().unwrap();
        check(&goal);
        let stats = ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 4); // 2 MiB / 512 KiB
                                    // Smaller chunks pipeline finer and multiply the schedule.
        let fine = NcclConfig { chunk_bytes: 64 << 10, ..cfg };
        let mut b = GoalBuilder::new(2);
        p2p(&mut b, 0, 1, 2 * 1024 * 1024, 0, &fine);
        assert_eq!(ScheduleStats::of(&b.build().unwrap()).sends, 32); // 2 MiB / 64 KiB
    }

    #[test]
    fn launch_overhead_charged_once_per_rank() {
        let ranks: Vec<Rank> = (0..4).collect();
        let cfg = NcclConfig { channels: 1, launch_ns: 5_000, ..NcclConfig::default() };
        let mut b = GoalBuilder::new(4);
        allreduce(&mut b, &ranks, 1 << 16, 0, &cfg);
        let goal = b.build().unwrap();
        let stats = ScheduleStats::of(&goal);
        assert!(stats.calc_ns >= 4 * 5_000);
        check(&goal);
    }

    #[test]
    fn zero_bytes_is_launch_only() {
        let ranks: Vec<Rank> = (0..4).collect();
        let cfg = NcclConfig::default();
        let mut b = GoalBuilder::new(4);
        allreduce(&mut b, &ranks, 0, 0, &cfg);
        let goal = b.build().unwrap();
        let stats = ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 0);
        check(&goal);
    }
}
