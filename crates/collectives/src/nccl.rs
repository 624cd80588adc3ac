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

use std::ops::Range;

use atlahs_core::NsPerByte;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NcclConfig {
    /// Parallel channels (`NCCL_MAX_NCHANNELS`); data is split across them.
    pub channels: u32,
    pub protocol: NcclProtocol,
    pub algorithm: NcclAlgo,
    /// Chunk size; 0 selects the protocol default.
    pub chunk_bytes: u64,
    /// Reduction cost per byte, rounded down, charged on the receiving GPU.
    pub reduce_per_byte: NsPerByte,
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
            reduce_per_byte: NsPerByte::ps(10),
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

    /// `bytes` cut into near-equal pieces of at most one chunk.
    fn pieces(&self, bytes: u64) -> Vec<u64> {
        chunk_sizes(bytes, bytes.div_ceil(self.chunk()))
    }

    /// Wire bytes of a `data`-byte transfer; never an empty message.
    fn wire(&self, data: u64) -> u64 {
        self.protocol.wire_bytes(data).max(1)
    }
}

/// A group whose every participant first pays the kernel launch.
fn launched<'b>(b: &'b mut GoalBuilder, ranks: &[Rank], cfg: &NcclConfig) -> Group<'b> {
    let mut g = Group::new(b, ranks, cfg.stream);
    if cfg.launch_ns > 0 {
        for p in 0..g.size() {
            g.calc(p, cfg.launch_ns);
        }
    }
    g
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
        NcclAlgo::Ring => ring(b, ranks, bytes, tag, cfg, 0..2),
        NcclAlgo::Tree => allreduce_tree(b, ranks, bytes, tag, cfg),
    }
}

/// The ring collectives: per channel, every rank's block (a `1/k` chunk of
/// the share when the ring reduces, the whole share for allgather) is cut
/// into protocol-chunk windows, and each window runs the ring-step
/// `halves` (0 = reduce-scatter, 1 = allgather).
fn ring(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
    halves: Range<usize>,
) -> Ports {
    let k = ranks.len();
    let mut g = launched(b, ranks, cfg);
    g.channels(bytes, cfg.channels, tag, |g, share, ctag| {
        let per_rank =
            if halves.start == 0 { chunk_sizes(share, k as u64) } else { vec![share; k] };
        let windows = per_rank[0].max(1).div_ceil(cfg.chunk());
        for w in 0..windows {
            let piece = |c: usize| per_rank[c] / windows + u64::from(w < per_rank[c] % windows);
            g.ring_steps(halves.clone(), ctag, piece, |b| cfg.wire(b), cfg.reduce_per_byte);
        }
    });
    g.finish()
}

fn allreduce_tree(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    let k = ranks.len();
    let mut g = launched(b, ranks, cfg);
    g.channels(bytes, cfg.channels, tag, |g, share, ctag| {
        // Chunks pipeline through the tree.
        for chunk in cfg.pieces(share) {
            let wire = cfg.wire(chunk);
            let merge = cfg.reduce_per_byte.trunc(chunk);
            // Reduce up: children (2p+1, 2p+2) send to parent p.
            // Deepest level first so recvs are posted in arrival order.
            for p in (0..k).rev() {
                for child in [2 * p + 1, 2 * p + 2] {
                    if child < k {
                        g.recv(p, child, wire, ctag);
                        g.calc(p, merge);
                    }
                }
                if p > 0 {
                    g.send(p, (p - 1) / 2, wire, ctag);
                }
            }
            // Broadcast down.
            for p in 0..k {
                if p > 0 {
                    g.recv(p, (p - 1) / 2, wire, ctag);
                }
                for child in [2 * p + 1, 2 * p + 2] {
                    if child < k {
                        g.send(p, child, wire, ctag);
                    }
                }
            }
        }
    });
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
    let mut g = launched(b, ranks, cfg);
    g.channels(bytes, cfg.channels, tag, |g, share, ctag| {
        for chunk in cfg.pieces(share) {
            g.ring_relay(root, cfg.wire(chunk), ctag);
        }
    });
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
    ring(b, ranks, block_bytes, tag, cfg, 1..2)
}

/// NCCL ring reduce-scatter: `bytes` total per rank, each ends with a chunk.
pub fn reduce_scatter(
    b: &mut GoalBuilder,
    ranks: &[Rank],
    bytes: u64,
    tag: Tag,
    cfg: &NcclConfig,
) -> Ports {
    ring(b, ranks, bytes, tag, cfg, 0..1)
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
    let mut g = launched(b, ranks, cfg);
    if block_bytes > 0 {
        g.fan_exchange(cfg.wire(block_bytes), tag);
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
    for chunk in cfg.pieces(bytes.max(1)) {
        let wire = cfg.wire(chunk);
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

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_goal::{GoalSchedule, ScheduleStats};

    fn simulate(goal: &GoalSchedule) -> u64 {
        let mut b = IdealBackend::new(200, 1_000);
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
