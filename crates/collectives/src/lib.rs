//! # atlahs-collectives
//!
//! Collective→point-to-point decomposition (paper §3.1.1 and §3.1.2 Stage 3).
//!
//! Schedgen replaces collective operations found in application traces with
//! their point-to-point algorithms. This crate provides:
//!
//! * [`mpi`] — the classic algorithms used by MPI libraries (binomial trees,
//!   recursive doubling, ring/segmented pipelines, dissemination, pairwise
//!   exchange, Rabenseifner reduction),
//! * [`nccl`] — NCCL's ring/tree schedules, parameterized by channel count,
//!   protocol (Simple / LL / LL128) and chunking, as selected by
//!   `NCCL_MAX_NCHANNELS`, `NCCL_ALGO`, and `NCCL_PROTO` (Fig. 4 of the
//!   paper shows the chunked ring broadcast this reproduces).
//!
//! Both are written in terms of four schedule shapes on one participant
//! group: the **ring step** (with its one-piece relay), the per-channel
//! **pipeline**, the **binomial walk** in either direction, and the **fan
//! exchange**. The rest is recursive doubling and the dissemination family,
//! which are one exchange per round.
//!
//! Every generator appends tasks for a *group* of participating ranks to a
//! [`GoalBuilder`] and returns [`Ports`]: one entry and one exit vertex per
//! participant, so callers can chain collectives with surrounding
//! computation or other collectives:
//!
//! ```
//! use atlahs_goal::GoalBuilder;
//! use atlahs_collectives::{mpi, CollParams};
//!
//! let mut b = GoalBuilder::new(4);
//! let ranks: Vec<u32> = (0..4).collect();
//! let p = CollParams::default();
//! let ports = mpi::allreduce_ring(&mut b, &ranks, 1 << 20, 100, &p);
//! // chain a 1 ms computation after the allreduce on every rank
//! for (i, &r) in ranks.iter().enumerate() {
//!     let c = b.calc(r, 1_000_000);
//!     b.requires(r, c, ports.exit[i]);
//! }
//! let goal = b.build().unwrap();
//! assert_eq!(goal.num_ranks(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod mpi;
pub mod nccl;

use std::ops::Range;

use atlahs_core::NsPerByte;
use atlahs_goal::{GoalBuilder, Rank, Stream, Tag, TaskId};

/// Boundary vertices of a decomposed collective: `entry[i]` / `exit[i]` are
/// the first/last vertex of participant `i` (indexed by position in the
/// rank group, not by global rank).
#[derive(Debug, Clone)]
pub struct Ports {
    pub entry: Vec<TaskId>,
    pub exit: Vec<TaskId>,
}

/// Parameters shared by collective generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollParams {
    /// Compute stream the collective's tasks run on.
    pub stream: Stream,
    /// Cost of reducing one byte, rounded down (used for allreduce/reduce).
    pub reduce_per_byte: NsPerByte,
    /// Segment size for pipelined algorithms; 0 disables segmentation.
    pub seg_bytes: u64,
}

impl Default for CollParams {
    fn default() -> Self {
        // ~20 GB/s reduction rate, 64 KiB segments.
        CollParams { stream: 0, reduce_per_byte: NsPerByte::ps(50), seg_bytes: 64 * 1024 }
    }
}

impl CollParams {
    pub fn on_stream(mut self, stream: Stream) -> Self {
        self.stream = stream;
        self
    }
}

/// Internal helper: per-participant entry/exit dummies plus a "frontier"
/// cursor used to serialize phases of an algorithm on each rank.
pub(crate) struct Group<'b> {
    b: &'b mut GoalBuilder,
    ranks: Vec<Rank>,
    stream: Stream,
    entry: Vec<TaskId>,
    /// Latest vertex per participant; the exit dummy will depend on it.
    frontier: Vec<TaskId>,
}

impl<'b> Group<'b> {
    fn new(b: &'b mut GoalBuilder, ranks: &[Rank], stream: Stream) -> Self {
        let entry: Vec<TaskId> = ranks
            .iter()
            .map(|&r| b.add_task(r, atlahs_goal::Task::calc(0).on_stream(stream)))
            .collect();
        let frontier = entry.clone();
        Group { b, ranks: ranks.to_vec(), stream, entry, frontier }
    }

    /// Number of participants.
    fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Append a send by participant `p` to participant `dst_p`, serialized
    /// after `p`'s frontier; advances the frontier.
    fn send(&mut self, p: usize, dst_p: usize, bytes: u64, tag: Tag) {
        let r = self.ranks[p];
        let t = self.b.send_on(r, self.ranks[dst_p], bytes, tag, self.stream);
        self.b.requires(r, t, self.frontier[p]);
        self.frontier[p] = t;
    }

    /// Append a recv by participant `p` from participant `src_p`.
    fn recv(&mut self, p: usize, src_p: usize, bytes: u64, tag: Tag) {
        let r = self.ranks[p];
        let t = self.b.recv_on(r, self.ranks[src_p], bytes, tag, self.stream);
        self.b.requires(r, t, self.frontier[p]);
        self.frontier[p] = t;
    }

    /// Append a calc on participant `p`.
    fn calc(&mut self, p: usize, cost: u64) {
        let r = self.ranks[p];
        let t = self.b.calc_on(r, cost, self.stream);
        self.b.requires(r, t, self.frontier[p]);
        self.frontier[p] = t;
    }

    /// A send/recv exchange step where `p` both sends to and receives from
    /// peers (the two are independent of each other but both follow the
    /// frontier); the frontier advances past both.
    fn sendrecv(&mut self, p: usize, dst_p: usize, src_p: usize, bytes: u64, tag: Tag) {
        let r = self.ranks[p];
        let prev = self.frontier[p];
        let s = self.b.send_on(r, self.ranks[dst_p], bytes, tag, self.stream);
        let v = self.b.recv_on(r, self.ranks[src_p], bytes, tag, self.stream);
        self.b.requires(r, s, prev);
        self.b.requires(r, v, prev);
        // Join with a zero-cost dummy so the frontier is a single vertex.
        let j = self.b.add_task(r, atlahs_goal::Task::calc(0).on_stream(self.stream));
        self.b.requires(r, j, s);
        self.b.requires(r, j, v);
        self.frontier[p] = j;
    }

    /// Join `deps` on participant `p` with a zero-cost dummy on stream 0,
    /// which becomes `p`'s frontier.
    fn join(&mut self, p: usize, deps: impl IntoIterator<Item = TaskId>) {
        let r = self.ranks[p];
        let j = self.b.dummy(r);
        for t in deps {
            self.b.requires(r, j, t);
        }
        self.frontier[p] = j;
    }

    /// **Shape 1, the ring step.** A ring collective is `2(k−1)` steps: the
    /// first `k−1` (half 0) reduce-scatter, the next `k−1` (half 1)
    /// allgather. This runs the steps of `halves`. At step `s` participant
    /// `p` sends chunk `(p − s) mod k` to `p+1` and receives chunk
    /// `(p − s − 1) mod k` from `p−1`, both after its frontier, each of
    /// `wire(chunk(c))` bytes; in half 0 the received chunk is reduced at
    /// `reduce_per_byte`. A stream-0 dummy joins the send and the
    /// receive (or its reduction) into the new frontier.
    fn ring_steps(
        &mut self,
        halves: Range<usize>,
        tag: Tag,
        chunk: impl Fn(usize) -> u64,
        wire: impl Fn(u64) -> u64,
        reduce_per_byte: NsPerByte,
    ) {
        let k = self.size();
        if k < 2 {
            return;
        }
        for s in halves.start * (k - 1)..halves.end * (k - 1) {
            for p in 0..k {
                let (send_chunk, recv_chunk) = ((p + 2 * k - s) % k, (p + 2 * k - s - 1) % k);
                let (r, prev) = (self.ranks[p], self.frontier[p]);
                let dst = self.ranks[(p + 1) % k];
                let src = self.ranks[(p + k - 1) % k];
                let snd = self.b.send_on(r, dst, wire(chunk(send_chunk)), tag, self.stream);
                let rcv = self.b.recv_on(r, src, wire(chunk(recv_chunk)), tag, self.stream);
                self.b.requires(r, snd, prev);
                self.b.requires(r, rcv, prev);
                let mut tail = rcv;
                if s < k - 1 {
                    let cost = reduce_per_byte.trunc(chunk(recv_chunk));
                    tail = self.b.calc_on(r, cost, self.stream);
                    self.b.requires(r, tail, rcv);
                }
                self.join(p, [snd, tail]);
            }
        }
    }

    /// The ring step's one-piece form: `bytes` travel from `root` around
    /// the ring (`root → root+1 → … → root+k−1`), each relay's send
    /// ordered after its receive by the frontier. `k ≥ 2`.
    fn ring_relay(&mut self, root: usize, bytes: u64, tag: Tag) {
        let k = self.size();
        for hop in 0..k - 1 {
            let (from, to) = ((root + hop) % k, (root + hop + 1) % k);
            self.send(from, to, bytes, tag);
            self.recv(to, from, bytes, tag);
        }
    }

    /// **Shape 2, the channel pipeline.** `bytes` split across `channels`
    /// (first channels take the remainder); `body` runs once per non-empty
    /// share with the channel's tag (`tag + c`) on a frontier starting at
    /// the current one, so channels proceed independently; a stream-0
    /// dummy per participant then joins every channel's last vertex.
    fn channels(
        &mut self,
        bytes: u64,
        channels: u32,
        tag: Tag,
        mut body: impl FnMut(&mut Self, u64, Tag),
    ) {
        let k = self.size();
        if k < 2 || bytes == 0 {
            return;
        }
        let entry = self.frontier.clone();
        let mut exits: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for (c, share) in chunk_sizes(bytes, channels as u64).into_iter().enumerate() {
            if share == 0 {
                continue;
            }
            self.frontier.clone_from(&entry);
            body(self, share, tag + c as u32);
            for (out, &last) in exits.iter_mut().zip(&self.frontier) {
                out.push(last);
            }
        }
        // Channel 0 always has a share, so every participant joins.
        for (p, outs) in exits.into_iter().enumerate() {
            self.join(p, outs);
        }
    }

    /// **Shape 3a, the binomial walk down** from `root` (broadcast,
    /// scatter). With ranks renumbered so the root is 0, `v` receives from
    /// `v` minus its lowest set bit, then sends to `v + 2^j` for every
    /// `2^j` below that bit, highest first. A message to the subtree of
    /// `n` ranks carries `size(n)` bytes.
    fn binomial_down(&mut self, root: usize, tag: Tag, size: impl Fn(u64) -> u64) {
        let k = self.size();
        if k < 2 {
            return;
        }
        let subtree = |w: usize, mask: usize| size(mask.min(k - w) as u64);
        for p in 0..k {
            let v = (p + k - root) % k;
            let low = if v == 0 { k.next_power_of_two() } else { v & v.wrapping_neg() };
            if v != 0 {
                self.recv(p, (v - low + root) % k, subtree(v, low), tag);
            }
            let mut mask = low >> 1;
            while mask > 0 {
                if v + mask < k {
                    self.send(p, (v + mask + root) % k, subtree(v + mask, mask), tag);
                }
                mask >>= 1;
            }
        }
    }

    /// **Shape 3b, the binomial walk up** to `root` (reduce, gather), the
    /// mirror of [`Group::binomial_down`]: `v` receives from `v + 2^j` for
    /// every `2^j` below its lowest set bit, lowest first, charging
    /// `reduce_ns` after each receive when given, then sends to its parent.
    fn binomial_up(
        &mut self,
        root: usize,
        tag: Tag,
        size: impl Fn(u64) -> u64,
        reduce_ns: Option<u64>,
    ) {
        let k = self.size();
        if k < 2 {
            return;
        }
        let subtree = |w: usize, mask: usize| size(mask.min(k - w) as u64);
        for p in 0..k {
            let v = (p + k - root) % k;
            let mut mask = 1usize;
            while mask < k {
                if v & mask != 0 {
                    self.send(p, (v - mask + root) % k, subtree(v, mask), tag);
                    break;
                }
                if v + mask < k {
                    self.recv(p, (v + mask + root) % k, subtree(v + mask, mask), tag);
                    if let Some(cost) = reduce_ns {
                        self.calc(p, cost);
                    }
                }
                mask <<= 1;
            }
        }
    }

    /// **Shape 4, the fan exchange** (linear alltoall): every participant
    /// sends `bytes` to and receives `bytes` from every other one, all
    /// transfers fanning out of its frontier — peers `p+i` and `p−i` for
    /// `i = 1..k` — and a stream-0 dummy joins them: non-blocking
    /// isend/irecv plus waitall.
    fn fan_exchange(&mut self, bytes: u64, tag: Tag) {
        let k = self.size();
        if k < 2 {
            return;
        }
        let mut ends = Vec::with_capacity(2 * (k - 1));
        for p in 0..k {
            let (r, start) = (self.ranks[p], self.frontier[p]);
            for i in 1..k {
                let s = self.b.send_on(r, self.ranks[(p + i) % k], bytes, tag, self.stream);
                let v = self.b.recv_on(r, self.ranks[(p + k - i) % k], bytes, tag, self.stream);
                self.b.requires(r, s, start);
                self.b.requires(r, v, start);
                ends.extend([s, v]);
            }
            self.join(p, ends.drain(..));
        }
    }

    /// Close the group: add exit dummies depending on each frontier.
    fn finish(self) -> Ports {
        let mut exit = Vec::with_capacity(self.ranks.len());
        for (p, &r) in self.ranks.iter().enumerate() {
            let e = self.b.add_task(r, atlahs_goal::Task::calc(0).on_stream(self.stream));
            self.b.requires(r, e, self.frontier[p]);
            exit.push(e);
        }
        Ports { entry: self.entry, exit }
    }
}

/// Split `bytes` into `parts` near-equal chunks (first chunks get the
/// remainder); every chunk is at least 1 byte when `bytes >= parts`, and
/// trailing chunks may be 0 when `bytes < parts` — callers usually guard.
pub(crate) fn chunk_sizes(bytes: u64, parts: u64) -> Vec<u64> {
    let parts = parts.max(1);
    let base = bytes / parts;
    let rem = bytes % parts;
    (0..parts).map(|i| base + u64::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sizes_sum_and_balance() {
        let c = chunk_sizes(10, 4);
        assert_eq!(c.iter().sum::<u64>(), 10);
        assert_eq!(c, vec![3, 3, 2, 2]);
        assert_eq!(chunk_sizes(7, 1), vec![7]);
        assert_eq!(chunk_sizes(0, 3), vec![0, 0, 0]);
        assert_eq!(chunk_sizes(5, 0), vec![5]);
    }

    #[test]
    fn group_entry_exit_wrap_ops() {
        let mut b = GoalBuilder::new(2);
        let mut g = Group::new(&mut b, &[0, 1], 0);
        g.send(0, 1, 100, 5);
        g.recv(1, 0, 100, 5);
        let ports = g.finish();
        let goal = b.build().unwrap();
        // rank 0: entry dummy, send, exit dummy
        assert_eq!(goal.rank(0).num_tasks(), 3);
        assert_eq!(goal.rank(0).preds(ports.exit[0]).len(), 1);
        atlahs_goal::stats::check_matching(&goal).unwrap();
    }

    #[test]
    fn sendrecv_overlaps_but_joins() {
        let mut b = GoalBuilder::new(2);
        let mut g = Group::new(&mut b, &[0, 1], 0);
        g.sendrecv(0, 1, 1, 64, 9);
        g.sendrecv(1, 0, 0, 64, 9);
        let _ = g.finish();
        let goal = b.build().unwrap();
        atlahs_goal::stats::check_matching(&goal).unwrap();
        // entry + send + recv + join + exit per rank
        assert_eq!(goal.rank(0).num_tasks(), 5);
    }
}
