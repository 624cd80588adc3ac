//! Every collective generator against the implementation it replaced.
//!
//! The generators are written in terms of four schedule shapes (ring step,
//! channel pipeline, binomial walk, fan exchange). The bodies they replaced
//! live on below, verbatim, as a test-only reference: the hand-written
//! loops, the parent `Group` and `chunk_sizes`, and the float reduction
//! cost. For every public MPI and NCCL generator, group size, byte count,
//! root, segment size and NCCL configuration the two must build schedules
//! with identical binary encodings and identical ports — task order,
//! per-task edge order, sizes, tags and streams included.

use atlahs_collectives::nccl::{NcclAlgo, NcclConfig, NcclProtocol};
use atlahs_collectives::{mpi, nccl, CollParams, Ports};
use atlahs_core::NsPerByte;
use atlahs_goal::{binary, GoalBuilder, Rank, Tag};

mod reference {
    use atlahs_goal::{GoalBuilder, Rank, Stream, TaskId};

    pub use atlahs_collectives::Ports;

    /// The parent's `CollParams`: reduction cost as float ns per byte.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CollParams {
        pub stream: Stream,
        pub reduce_ns_per_byte: f64,
        pub seg_bytes: u64,
    }

    impl CollParams {
        pub(crate) fn reduce_cost(&self, bytes: u64) -> u64 {
            (bytes as f64 * self.reduce_ns_per_byte) as u64
        }
    }

    pub(crate) struct Group<'b> {
        pub b: &'b mut GoalBuilder,
        pub ranks: Vec<Rank>,
        pub stream: Stream,
        pub entry: Vec<TaskId>,
        /// Latest vertex per participant; the exit dummy will depend on it.
        pub frontier: Vec<TaskId>,
    }

    impl<'b> Group<'b> {
        pub fn new(b: &'b mut GoalBuilder, ranks: &[Rank], stream: Stream) -> Self {
            let entry: Vec<TaskId> = ranks
                .iter()
                .map(|&r| b.add_task(r, atlahs_goal::Task::calc(0).on_stream(stream)))
                .collect();
            let frontier = entry.clone();
            Group { b, ranks: ranks.to_vec(), stream, entry, frontier }
        }

        pub fn size(&self) -> usize {
            self.ranks.len()
        }

        pub fn send(&mut self, p: usize, dst_p: usize, bytes: u64, tag: u32) -> TaskId {
            let r = self.ranks[p];
            let t = self.b.send_on(r, self.ranks[dst_p], bytes, tag, self.stream);
            self.b.requires(r, t, self.frontier[p]);
            self.frontier[p] = t;
            t
        }

        pub fn recv(&mut self, p: usize, src_p: usize, bytes: u64, tag: u32) -> TaskId {
            let r = self.ranks[p];
            let t = self.b.recv_on(r, self.ranks[src_p], bytes, tag, self.stream);
            self.b.requires(r, t, self.frontier[p]);
            self.frontier[p] = t;
            t
        }

        pub fn calc(&mut self, p: usize, cost: u64) -> TaskId {
            let r = self.ranks[p];
            let t = self.b.calc_on(r, cost, self.stream);
            self.b.requires(r, t, self.frontier[p]);
            self.frontier[p] = t;
            t
        }

        pub fn sendrecv(
            &mut self,
            p: usize,
            dst_p: usize,
            src_p: usize,
            bytes: u64,
            tag: u32,
        ) -> (TaskId, TaskId) {
            let r = self.ranks[p];
            let prev = self.frontier[p];
            let s = self.b.send_on(r, self.ranks[dst_p], bytes, tag, self.stream);
            let v = self.b.recv_on(r, self.ranks[src_p], bytes, tag, self.stream);
            self.b.requires(r, s, prev);
            self.b.requires(r, v, prev);
            let j = self.b.add_task(r, atlahs_goal::Task::calc(0).on_stream(self.stream));
            self.b.requires(r, j, s);
            self.b.requires(r, j, v);
            self.frontier[p] = j;
            (s, v)
        }

        pub fn finish(self) -> Ports {
            let mut exit = Vec::with_capacity(self.ranks.len());
            for (p, &r) in self.ranks.iter().enumerate() {
                let e = self.b.add_task(r, atlahs_goal::Task::calc(0).on_stream(self.stream));
                self.b.requires(r, e, self.frontier[p]);
                exit.push(e);
            }
            Ports { entry: self.entry, exit }
        }
    }

    pub(crate) fn chunk_sizes(bytes: u64, parts: u64) -> Vec<u64> {
        let parts = parts.max(1);
        let base = bytes / parts;
        let rem = bytes % parts;
        (0..parts).map(|i| base + u64::from(i < rem)).collect()
    }

    /// The parent's `mpi.rs`, verbatim.
    pub mod mpi {
        use atlahs_goal::{GoalBuilder, Rank, Tag};

        use super::{chunk_sizes, CollParams, Group, Ports};

        /// Binomial-tree broadcast from `root` (participant index).
        pub fn bcast_binomial(
            b: &mut GoalBuilder,
            ranks: &[Rank],
            bytes: u64,
            root: usize,
            tag: Tag,
            params: &CollParams,
        ) -> Ports {
            let k = ranks.len();
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 {
                for p in 0..k {
                    // Virtual rank, root at 0.
                    let v = (p + k - root) % k;
                    // Receive phase: find the bit that locates our parent.
                    let mut mask = 1usize;
                    while mask < k {
                        if v & mask != 0 {
                            let parent = (v - mask + root) % k;
                            g.recv(p, parent, bytes, tag);
                            break;
                        }
                        mask <<= 1;
                    }
                    // Send phase: from the highest relevant bit downward.
                    let mut mask = prev_pow2(k);
                    while mask > 0 {
                        if v & (mask - 1) == 0 && v & mask == 0 && v + mask < k {
                            let child = (v + mask + root) % k;
                            g.send(p, child, bytes, tag);
                        }
                        mask >>= 1;
                    }
                }
            }
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
                    // Each segment travels root -> root+1 -> ... -> root+k-1.
                    for hop in 0..k - 1 {
                        let from = (root + hop) % k;
                        let to = (root + hop + 1) % k;
                        // The relay's send is ordered after its recv by the frontier.
                        g.send(from, to, len, tag);
                        g.recv(to, from, len, tag);
                    }
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
            let k = ranks.len();
            let reduce_cost = params.reduce_cost(bytes);
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 {
                for p in 0..k {
                    let v = (p + k - root) % k;
                    let mut mask = 1usize;
                    while mask < k {
                        if v & mask != 0 {
                            let parent = (v - mask + root) % k;
                            g.send(p, parent, bytes, tag);
                            break;
                        } else if v + mask < k {
                            let child = (v + mask + root) % k;
                            g.recv(p, child, bytes, tag);
                            g.calc(p, reduce_cost);
                        }
                        mask <<= 1;
                    }
                }
            }
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
            let reduce_cost = params.reduce_cost(bytes);
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 {
                let pof2 = prev_pow2(k);
                // Number of excess ranks over the power of two.
                let r = k - pof2;
                // Fold: ranks 0..2r pair up (even sends to odd neighbour).
                for i in 0..r {
                    let a = 2 * i; // retires for the butterfly
                    let c = 2 * i + 1; // participates for both
                    g.send(a, c, bytes, tag);
                    g.recv(c, a, bytes, tag);
                    g.calc(c, reduce_cost);
                }
                // Core group: ranks 2i+1 for i<r, and 2r..k.
                let core: Vec<usize> = (0..r).map(|i| 2 * i + 1).chain(2 * r..k).collect();
                debug_assert_eq!(core.len(), pof2);
                let mut mask = 1usize;
                while mask < pof2 {
                    for (ci, &p) in core.iter().enumerate() {
                        let peer = core[ci ^ mask];
                        g.sendrecv(p, peer, peer, bytes, tag);
                        g.calc(p, reduce_cost);
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
            let k = ranks.len();
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 && bytes > 0 {
                let chunks = chunk_sizes(bytes, k as u64);
                // Reduce-scatter: k-1 steps. At step s, rank p sends chunk (p-s) and
                // receives chunk (p-s-1), reducing into it.
                for s in 0..k - 1 {
                    for p in 0..k {
                        let send_chunk = (p + k - s) % k;
                        let recv_chunk = (p + k - s - 1) % k;
                        let dst = (p + 1) % k;
                        let src = (p + k - 1) % k;
                        let prev = g.frontier[p];
                        let r = g.ranks[p];
                        let snd = g.b.send_on(r, g.ranks[dst], chunks[send_chunk], tag, g.stream);
                        let rcv = g.b.recv_on(r, g.ranks[src], chunks[recv_chunk], tag, g.stream);
                        g.b.requires(r, snd, prev);
                        g.b.requires(r, rcv, prev);
                        let red = g.b.calc_on(r, params.reduce_cost(chunks[recv_chunk]), g.stream);
                        g.b.requires(r, red, rcv);
                        let join = g.b.dummy(r);
                        g.b.requires(r, join, snd);
                        g.b.requires(r, join, red);
                        g.frontier[p] = join;
                    }
                }
                // Allgather: k-1 steps forwarding the reduced chunks.
                for s in 0..k - 1 {
                    for p in 0..k {
                        let send_chunk = (p + 1 + k - s) % k;
                        let recv_chunk = (p + k - s) % k;
                        let dst = (p + 1) % k;
                        let src = (p + k - 1) % k;
                        let prev = g.frontier[p];
                        let r = g.ranks[p];
                        let snd = g.b.send_on(r, g.ranks[dst], chunks[send_chunk], tag, g.stream);
                        let rcv = g.b.recv_on(r, g.ranks[src], chunks[recv_chunk], tag, g.stream);
                        g.b.requires(r, snd, prev);
                        g.b.requires(r, rcv, prev);
                        let join = g.b.dummy(r);
                        g.b.requires(r, join, snd);
                        g.b.requires(r, join, rcv);
                        g.frontier[p] = join;
                    }
                }
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
                        g.calc(p, params.reduce_cost(piece.max(1)));
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
            let k = ranks.len();
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 && block_bytes > 0 {
                // All transfers are independent: fan out of the entry vertex, fan
                // into the exit vertex, to model non-blocking isend/irecv + waitall.
                let entry = g.entry.clone();
                let mut last: Vec<Vec<atlahs_goal::TaskId>> = vec![Vec::new(); k];
                for p in 0..k {
                    let r = g.ranks[p];
                    for i in 1..k {
                        let dst = (p + i) % k;
                        let src = (p + k - i) % k;
                        let s = g.b.send_on(r, g.ranks[dst], block_bytes, tag, g.stream);
                        let v = g.b.recv_on(r, g.ranks[src], block_bytes, tag, g.stream);
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
                        let r = g.ranks[p];
                        let repack = g.b.calc_on(r, blocks * block_bytes / 64, g.stream);
                        g.b.requires(r, repack, g.frontier[p]);
                        g.frontier[p] = repack;
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
            let k = ranks.len();
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 && bytes > 0 {
                let chunks = chunk_sizes(bytes, k as u64);
                for s in 0..k - 1 {
                    for p in 0..k {
                        let send_chunk = (p + k - s) % k;
                        let recv_chunk = (p + k - s - 1) % k;
                        let dst = (p + 1) % k;
                        let src = (p + k - 1) % k;
                        let prev = g.frontier[p];
                        let r = g.ranks[p];
                        let snd = g.b.send_on(r, g.ranks[dst], chunks[send_chunk], tag, g.stream);
                        let rcv = g.b.recv_on(r, g.ranks[src], chunks[recv_chunk], tag, g.stream);
                        g.b.requires(r, snd, prev);
                        g.b.requires(r, rcv, prev);
                        let red = g.b.calc_on(r, params.reduce_cost(chunks[recv_chunk]), g.stream);
                        g.b.requires(r, red, rcv);
                        let join = g.b.dummy(r);
                        g.b.requires(r, join, snd);
                        g.b.requires(r, join, red);
                        g.frontier[p] = join;
                    }
                }
            }
            g.finish()
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
            let k = ranks.len();
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 && block_bytes > 0 {
                for p in 0..k {
                    let v = (p + k - root) % k;
                    let mut mask = 1usize;
                    while mask < k {
                        if v & mask != 0 {
                            let parent = (v - mask + root) % k;
                            // we forward our own block plus everything gathered below
                            let subtree = mask.min(k - v) as u64;
                            g.send(p, parent, subtree * block_bytes, tag);
                            break;
                        } else if v + mask < k {
                            let child = (v + mask + root) % k;
                            let subtree = mask.min(k - (v + mask)) as u64;
                            g.recv(p, child, subtree * block_bytes, tag);
                        }
                        mask <<= 1;
                    }
                }
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
            let k = ranks.len();
            let mut g = Group::new(b, ranks, params.stream);
            if k > 1 && block_bytes > 0 {
                for p in 0..k {
                    let v = (p + k - root) % k;
                    let mut mask = 1usize;
                    while mask < k {
                        if v & mask != 0 {
                            let parent = (v - mask + root) % k;
                            let subtree = mask.min(k - v) as u64;
                            g.recv(p, parent, subtree * block_bytes, tag);
                            break;
                        }
                        mask <<= 1;
                    }
                    // send phase from high bit down (after the recv, via frontier)
                    let mut mask = prev_pow2(k);
                    while mask > 0 {
                        if v & (mask - 1) == 0 && v & mask == 0 && v + mask < k {
                            let child = (v + mask + root) % k;
                            let subtree = mask.min(k - (v + mask)) as u64;
                            g.send(p, child, subtree * block_bytes, tag);
                        }
                        mask >>= 1;
                    }
                }
            }
            g.finish()
        }

        /// Largest power of two `<= n` (`n >= 1`).
        fn prev_pow2(n: usize) -> usize {
            let mut p = 1usize;
            while p * 2 <= n {
                p *= 2;
            }
            p
        }
    }

    /// The parent's `nccl.rs`, verbatim.
    pub mod nccl {
        use atlahs_goal::{GoalBuilder, Rank, Stream, Tag, TaskId};

        use super::{chunk_sizes, Group, Ports};

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
    }
}

const KS: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 16, 17, 32];

fn byte_counts(k: usize) -> [u64; 7] {
    let k = k as u64;
    [0, 1, k - 1, k, k + 1, 4097, (1 << 20) + 3]
}

/// Build one generator's schedule on a `k`-member group embedded in a
/// `k + 1`-rank job, members in reverse order, so participant indices and
/// global ranks differ.
fn build<P>(k: usize, gen: impl FnOnce(&mut GoalBuilder, &[Rank]) -> P) -> (Vec<u8>, P) {
    let ranks: Vec<Rank> = (1..=k as Rank).rev().collect();
    let mut b = GoalBuilder::new(k + 1);
    let ports = gen(&mut b, &ranks);
    let goal = b.build_unchecked().expect("edge indices are valid");
    (binary::encode(&goal), ports)
}

fn same(
    what: &str,
    k: usize,
    new: impl FnOnce(&mut GoalBuilder, &[Rank]) -> Ports,
    old: impl FnOnce(&mut GoalBuilder, &[Rank]) -> Ports,
) {
    let (got, got_ports) = build(k, new);
    let (want, want_ports) = build(k, old);
    assert!(got == want, "{what} k={k}: encoding differs from the reference");
    assert_eq!(
        (got_ports.entry, got_ports.exit),
        (want_ports.entry, want_ports.exit),
        "{what} k={k}: ports differ"
    );
}

/// The reduction costs non-test callers use (0.05 and 0.01 ns per byte),
/// plus zero.
const REDUCE: [(u64, f64); 3] = [(50, 0.05), (10, 0.01), (0, 0.0)];

#[test]
fn mpi_generators_equal_the_reference() {
    type Unrooted = fn(&mut GoalBuilder, &[Rank], u64, Tag, &CollParams) -> Ports;
    type RefUnrooted = fn(&mut GoalBuilder, &[Rank], u64, Tag, &reference::CollParams) -> Ports;
    type Rooted = fn(&mut GoalBuilder, &[Rank], u64, usize, Tag, &CollParams) -> Ports;
    type RefRooted =
        fn(&mut GoalBuilder, &[Rank], u64, usize, Tag, &reference::CollParams) -> Ports;
    let unrooted: [(&str, Unrooted, RefUnrooted); 10] = [
        ("allreduce_recdoub", mpi::allreduce_recdoub, reference::mpi::allreduce_recdoub),
        ("allreduce_ring", mpi::allreduce_ring, reference::mpi::allreduce_ring),
        (
            "allreduce_rabenseifner",
            mpi::allreduce_rabenseifner,
            reference::mpi::allreduce_rabenseifner,
        ),
        ("allgather_ring", mpi::allgather_ring, reference::mpi::allgather_ring),
        ("allgather_bruck", mpi::allgather_bruck, reference::mpi::allgather_bruck),
        ("alltoall_linear", mpi::alltoall_linear, reference::mpi::alltoall_linear),
        ("alltoall_pairwise", mpi::alltoall_pairwise, reference::mpi::alltoall_pairwise),
        ("alltoall_bruck", mpi::alltoall_bruck, reference::mpi::alltoall_bruck),
        ("reduce_scatter_ring", mpi::reduce_scatter_ring, reference::mpi::reduce_scatter_ring),
        // The barrier ignores the byte count; it rides along as one.
        (
            "barrier_dissemination",
            |b, r, _, t, p| mpi::barrier_dissemination(b, r, t, p),
            |b, r, _, t, p| reference::mpi::barrier_dissemination(b, r, t, p),
        ),
    ];
    let rooted: [(&str, Rooted, RefRooted); 4] = [
        ("bcast_binomial", mpi::bcast_binomial, reference::mpi::bcast_binomial),
        ("reduce_binomial", mpi::reduce_binomial, reference::mpi::reduce_binomial),
        ("gather_binomial", mpi::gather_binomial, reference::mpi::gather_binomial),
        ("scatter_binomial", mpi::scatter_binomial, reference::mpi::scatter_binomial),
    ];
    for (i, &k) in KS.iter().enumerate() {
        for (j, bytes) in byte_counts(k).into_iter().enumerate() {
            // Streams, reduction costs and tags rotate across the cases.
            let (ps, ns) = REDUCE[(i + j) % REDUCE.len()];
            let stream = ((i + j) % 2) as u32 * 3;
            let tag = 40 + (i + j) as Tag;
            let p = CollParams { stream, reduce_per_byte: NsPerByte::ps(ps), seg_bytes: 0 };
            let q = reference::CollParams { stream, reduce_ns_per_byte: ns, seg_bytes: 0 };
            for (name, new, old) in unrooted {
                let what = format!("mpi::{name} bytes={bytes}");
                same(&what, k, |b, r| new(b, r, bytes, tag, &p), |b, r| old(b, r, bytes, tag, &q));
            }
            for (name, new, old) in rooted {
                for root in 0..k {
                    let what = format!("mpi::{name} bytes={bytes} root={root}");
                    same(
                        &what,
                        k,
                        |b, r| new(b, r, bytes, root, tag, &p),
                        |b, r| old(b, r, bytes, root, tag, &q),
                    );
                }
            }
            // Only the pipelined broadcast reads the segment size. 1 MiB in
            // 256-byte segments for every root of a large group would be
            // most of this test's debug-build runtime, so that corner takes
            // four roots.
            for seg_bytes in [0, 256, 64 << 10] {
                let p = CollParams { seg_bytes, ..p };
                let q = reference::CollParams { seg_bytes, ..q };
                let roots: Vec<usize> = if seg_bytes == 256 && bytes > 1 << 16 && k > 8 {
                    vec![0, 1, k / 2, k - 1]
                } else {
                    (0..k).collect()
                };
                for root in roots {
                    let what = format!(
                        "mpi::bcast_ring_pipelined bytes={bytes} seg={seg_bytes} root={root}"
                    );
                    same(
                        &what,
                        k,
                        |b, r| mpi::bcast_ring_pipelined(b, r, bytes, root, tag, &p),
                        |b, r| reference::mpi::bcast_ring_pipelined(b, r, bytes, root, tag, &q),
                    );
                }
            }
        }
    }
}

/// Every NCCL configuration of the grid: channels × protocol × algorithm ×
/// chunk × launch overhead, 72 in all.
fn nccl_configs() -> Vec<(NcclConfig, reference::nccl::NcclConfig)> {
    use reference::nccl as old;
    let protocols = [
        (NcclProtocol::Simple, old::NcclProtocol::Simple),
        (NcclProtocol::Ll, old::NcclProtocol::Ll),
        (NcclProtocol::Ll128, old::NcclProtocol::Ll128),
    ];
    let algorithms = [(NcclAlgo::Ring, old::NcclAlgo::Ring), (NcclAlgo::Tree, old::NcclAlgo::Tree)];
    let mut out = Vec::new();
    for channels in [1, 2, 4] {
        for (protocol, old_protocol) in protocols {
            for (algorithm, old_algorithm) in algorithms {
                for chunk_bytes in [0, 64 << 10] {
                    for launch_ns in [0, 5000] {
                        let i = out.len();
                        let (ps, ns) = REDUCE[i % REDUCE.len()];
                        let stream = (i % 2) as u32 * 2;
                        out.push((
                            NcclConfig {
                                channels,
                                protocol,
                                algorithm,
                                chunk_bytes,
                                reduce_per_byte: NsPerByte::ps(ps),
                                launch_ns,
                                stream,
                            },
                            old::NcclConfig {
                                channels,
                                protocol: old_protocol,
                                algorithm: old_algorithm,
                                chunk_bytes,
                                reduce_ns_per_byte: ns,
                                launch_ns,
                                stream,
                            },
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn nccl_generators_equal_the_reference() {
    let configs = nccl_configs();
    assert_eq!(configs.len(), 72);
    for (i, &k) in KS.iter().enumerate() {
        for (j, bytes) in byte_counts(k).into_iter().enumerate() {
            // Every configuration for groups of up to 4; above that a
            // rotating sixth of them. The seven byte counts cover every
            // residue mod 6, so each configuration still meets every group
            // size.
            let sampled =
                configs.iter().enumerate().filter(|(c, _)| k <= 4 || (c + i + j) % 6 == 0);
            for (c, (new, old)) in sampled {
                let tag = 8 * c as Tag;
                let what = |name: &str| format!("nccl::{name} bytes={bytes} cfg={new:?}");
                same(
                    &what("allreduce"),
                    k,
                    |b, r| nccl::allreduce(b, r, bytes, tag, new),
                    |b, r| reference::nccl::allreduce(b, r, bytes, tag, old),
                );
                if new.algorithm == NcclAlgo::Tree {
                    // Only allreduce reads the algorithm.
                    continue;
                }
                same(
                    &what("allgather"),
                    k,
                    |b, r| nccl::allgather(b, r, bytes, tag, new),
                    |b, r| reference::nccl::allgather(b, r, bytes, tag, old),
                );
                same(
                    &what("reduce_scatter"),
                    k,
                    |b, r| nccl::reduce_scatter(b, r, bytes, tag, new),
                    |b, r| reference::nccl::reduce_scatter(b, r, bytes, tag, old),
                );
                same(
                    &what("alltoall"),
                    k,
                    |b, r| nccl::alltoall(b, r, bytes, tag, new),
                    |b, r| reference::nccl::alltoall(b, r, bytes, tag, old),
                );
                for root in 0..k {
                    same(
                        &format!("{} root={root}", what("broadcast")),
                        k,
                        |b, r| nccl::broadcast(b, r, bytes, root, tag, new),
                        |b, r| reference::nccl::broadcast(b, r, bytes, root, tag, old),
                    );
                }
                if k == 2 {
                    let (got, got_ids) = build(2, |b, r| nccl::p2p(b, r[0], r[1], bytes, tag, new));
                    let (want, want_ids) =
                        build(2, |b, r| reference::nccl::p2p(b, r[0], r[1], bytes, tag, old));
                    assert!(got == want && got_ids == want_ids, "{}", what("p2p"));
                }
            }
        }
    }
}
