//! # atlahs-lgs
//!
//! The LogGOPSim message-level backend: a discrete-event implementation of
//! the **LogGOPS** model (LogGP extended with per-byte CPU overhead `O` and
//! an eager/rendezvous switch `S`), the model behind the original
//! LogGOPSim and the "ATLAHS LGS" configuration of the paper.
//!
//! Parameters:
//!
//! | param | unit | meaning |
//! |-------|------|---------|
//! | `L`   | ns | wire latency between any two ranks |
//! | `o`   | ns | per-message CPU overhead (send and recv side) |
//! | `g`   | ns | inter-message gap at the NIC |
//! | `G`   | ns/B, an exact fraction | per-byte gap (inverse bandwidth) at the NIC |
//! | `O`   | ns/B, an exact fraction | per-byte CPU overhead |
//! | `S`   | B  | rendezvous threshold: messages larger than `S` handshake first (`0` disables) |
//!
//! `G` and `O` are [`NsPerByte`] rates; `G·b` and `O·b` round half up to
//! whole nanoseconds.
//!
//! ## Operation timing
//!
//! * `calc cost` — occupies its compute stream for `cost` ns.
//! * eager send — CPU busy `o + O·b`; the message then occupies the sender
//!   NIC for `g + G·b` (serialized per rank) and arrives `L` later; the send
//!   is *done* (dependents fire) at CPU completion, like a buffered send.
//! * rendezvous send (`b > S > 0`) — CPU busy `o + O·b`, then an RTS travels
//!   `L`; when the matching recv is posted, a CTS returns (`o + L`); only
//!   then does the payload occupy the NIC; the send is done when the last
//!   byte leaves (buffer reusable).
//! * recv — posting is free (stream released immediately); the recv is done
//!   `o + O·b` after the matched payload has fully arrived (and the
//!   receiving NIC charged its `g`).
//!
//! The paper's parameters: AI (Alps): `L=3700, o=200, g=5, G=1/25 (0.04),
//! O=0, S=0`; HPC test-bed: `L=3000, o=6000, g=0, G=9/50 (0.18), O=0,
//! S=256000`.
//!
//! ## Stragglers
//!
//! The message-level fault family lives next to the backend it slows:
//! [`StragglerSpec`] parses and labels its `straggler:` token, and
//! [`LgsBackend::apply_straggler_now`] puts it onto a set-up run.

#![forbid(unsafe_code)]

use atlahs_core::faultgen::num;
use atlahs_core::matcher::MatchKey;
use atlahs_core::{Backend, Completion, Matcher, NsPerByte, OpRef, Snapshot, Time};
use atlahs_eventq::EventQueue;
use atlahs_goal::{Rank, Tag};

/// LogGOPS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogGopsParams {
    /// Wire latency (ns).
    pub l: u64,
    /// Per-message CPU overhead (ns).
    pub o: u64,
    /// Inter-message NIC gap (ns).
    pub g: u64,
    /// Per-byte NIC gap — `G`.
    pub big_g: NsPerByte,
    /// Per-byte CPU overhead — `O`.
    pub big_o: NsPerByte,
    /// Rendezvous threshold (bytes) — `S`; 0 disables rendezvous.
    pub s: u64,
}

impl LogGopsParams {
    /// The paper's AI validation parameters (Alps, §5.2).
    pub fn ai_alps() -> Self {
        Self { l: 3700, o: 200, g: 5, big_g: NsPerByte::ps(40), big_o: NsPerByte::ZERO, s: 0 }
    }

    /// The paper's HPC validation parameters (§5.3).
    pub fn hpc_testbed() -> Self {
        LogGopsParams {
            l: 3000,
            o: 6000,
            g: 0,
            big_g: NsPerByte::ps(180),
            big_o: NsPerByte::ZERO,
            s: 256_000,
        }
    }

    /// CPU time of a `bytes`-byte send or receive: `o + O·b`.
    #[inline]
    pub fn cpu_cost(&self, bytes: u64) -> u64 {
        self.o + self.big_o.round(bytes)
    }

    /// NIC occupancy of a `bytes`-byte message: `g + G·b`.
    #[inline]
    pub fn nic_cost(&self, bytes: u64) -> u64 {
        self.g + self.big_g.round(bytes)
    }

    #[inline]
    fn is_rendezvous(&self, bytes: u64) -> bool {
        self.s > 0 && bytes > self.s
    }
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LgsStats {
    pub messages: u64,
    pub bytes: u64,
    pub rendezvous_messages: u64,
}

/// Seeded per-rank straggler model (fault injection).
///
/// Applied by [`LgsBackend::apply_straggler_now`], each rank
/// independently becomes a straggler with probability `prob_pct`% (an FNV
/// draw over `(seed, rank)` — no RNG stream, so the decision is a pure
/// function of the spec and composes with any grid seeding). A
/// straggler's every `calc` cost is scaled to `factor_pct`% of nominal at
/// dispatch; communication timing (`L`, `o`, `g`, `G`) is untouched, so a
/// rank's issue *order* can never change — only its timestamps stretch.
///
/// With `spread_pct > 0` the factor is **distribution-drawn** instead of
/// uniform: each straggler adds an independent Weibull sample (scale
/// `spread_pct` percentage points, integer `shape`) on top of
/// `factor_pct`, so a population of stragglers has the heavy-tailed
/// slowdown spread measured on real clusters rather than one shared
/// knob. The draw is the fixed-point inverse CDF of
/// [`atlahs_core::faultgen`] over `(seed, "spread", rank)` — still a
/// pure integer function of the spec.
///
/// The default (and any spec with `prob_pct == 0`, or `factor_pct ==
/// 100` with no spread) is a no-op: the dispatch path degenerates to one
/// branch on an empty table and timings are bit-identical to a
/// straggler-free build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StragglerSpec {
    /// Percent chance (0–100) that a rank straggles.
    pub prob_pct: u32,
    /// Base calc-cost scale for stragglers, percent (150 = 1.5× slower).
    pub factor_pct: u32,
    /// Weibull scale, in percentage points added on top of `factor_pct`
    /// per straggler (0 = every straggler shares `factor_pct` exactly).
    pub spread_pct: u32,
    /// Weibull shape for the spread draw (clamped to ≥ 1 when used).
    pub shape: u32,
    /// Seed for the per-rank draws.
    pub seed: u64,
}

impl StragglerSpec {
    /// Parse a `straggler:<prob_pct>:<factor_pct>[:<spread_pct>:<shape>]`
    /// fault token (the inverse of [`StragglerSpec::label`]) with seed 0;
    /// the run seeds it. `prob_pct` clamps to 100 and `shape` to 1..=16.
    /// Returns `None` when the token is not this grammar (so callers can
    /// fall through to other fault grammars), `Some(Err(..))` when it is
    /// but a number is malformed.
    pub fn parse(tok: &str) -> Option<Result<Self, String>> {
        Self::parse_fields(tok).transpose()
    }

    fn parse_fields(tok: &str) -> Result<Option<Self>, String> {
        let parts: Vec<&str> = tok.split(':').collect();
        let (prob, factor, spread, shape) = match parts[..] {
            ["straggler", prob, factor] => (prob, factor, "0", "1"),
            ["straggler", prob, factor, spread, shape] => (prob, factor, spread, shape),
            _ => return Ok(None),
        };
        Ok(Some(StragglerSpec {
            prob_pct: num::<u32>(tok, prob)?.min(100),
            factor_pct: num(tok, factor)?,
            spread_pct: num(tok, spread)?,
            shape: num::<u32>(tok, shape)?.clamp(1, 16),
            seed: 0,
        }))
    }

    /// The fault token of this spec (the seed is not part of it). Without
    /// a spread it is the short pre-spread form, so uniform-straggler
    /// cells keep their historical keys (and therefore seeds and goldens).
    pub fn label(&self) -> String {
        let StragglerSpec { prob_pct, factor_pct, spread_pct, shape, .. } = *self;
        if spread_pct == 0 {
            format!("straggler:{prob_pct}:{factor_pct}")
        } else {
            format!("straggler:{prob_pct}:{factor_pct}:{spread_pct}:{shape}")
        }
    }

    /// True when the spec cannot change any timing.
    pub fn is_noop(&self) -> bool {
        self.prob_pct == 0 || (self.factor_pct == 100 && self.spread_pct == 0)
    }

    /// The straggler decision for one rank: FNV-1a over `(seed, rank)`.
    pub fn is_straggler(&self, rank: usize) -> bool {
        let h = atlahs_core::faultgen::fnv_fold(self.seed, &[&(rank as u64).to_le_bytes()]);
        h % 100 < self.prob_pct as u64
    }

    /// The realized calc-cost scale (percent) for one rank: 100 for
    /// non-stragglers, `factor_pct` plus the rank's Weibull spread draw
    /// for stragglers. Pure in `(spec, rank)`.
    pub fn factor_pct_for(&self, rank: usize) -> u64 {
        if !self.is_straggler(rank) {
            return 100;
        }
        let mut factor = self.factor_pct as u64;
        if self.spread_pct > 0 {
            factor += atlahs_core::faultgen::weibull_sample(
                self.spread_pct as u64,
                self.shape.max(1),
                atlahs_core::faultgen::fnv_draw(self.seed, "spread", rank as u64),
            );
        }
        factor
    }

    /// The per-rank calc-cost table (percent) a run dispatches through;
    /// empty for a no-op spec, so `calc` stays one `is_empty` branch.
    fn calc_scale(&self, num_ranks: usize) -> Vec<u64> {
        if self.is_noop() {
            Vec::new()
        } else {
            (0..num_ranks).map(|r| self.factor_pct_for(r)).collect()
        }
    }
}

/// A scheduled backend event; the [`EventQueue`] orders them by
/// `(time, push order)` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Emit a `Done` completion for the op.
    Done(OpRef),
    /// Emit a `CpuFree` completion for the op.
    CpuFree(OpRef),
    /// Eager payload arrives at the destination NIC.
    Arrive { key: MatchKey, bytes: u64 },
    /// Rendezvous RTS arrives at the destination.
    RtsArrive { key: MatchKey, send_op: OpRef, bytes: u64 },
    /// Rendezvous CTS arrives back at the sender.
    CtsArrive { send_op: OpRef, recv_op: OpRef, bytes: u64 },
    /// Rendezvous payload arrives at the destination.
    DataArrive { recv_op: OpRef, bytes: u64 },
}

// The event queue stores `Option<Ev>` in every node: a variant that used
// up the enum's niche would grow them all.
const _: () = assert!(std::mem::size_of::<Option<Ev>>() == std::mem::size_of::<Ev>());

/// The LogGOPSim backend: parameters fixed at construction, everything a
/// run mutates in [`LgsState`].
#[derive(Debug)]
pub struct LgsBackend {
    params: LogGopsParams,
    s: LgsState,
}

/// Everything a run of the LGS backend mutates: clock, pending events,
/// NIC occupancy rails, both match queues, counters, and the effective
/// straggler table (the rule is in [`atlahs_core::snapshot`]).
#[derive(Debug, Clone)]
pub struct LgsState {
    now: Time,
    /// Timer-wheel event core shared with the packet engine.
    events: EventQueue<Ev>,
    nic_tx_free: Vec<Time>,
    nic_rx_free: Vec<Time>,
    /// Eager: in-flight arrivals (value: time data is available) vs posted recvs.
    eager: Matcher<Time, (OpRef, Time)>,
    /// Rendezvous: RTS arrivals vs posted recvs.
    rdv: Matcher<(OpRef, u64), (OpRef, Time)>,
    stats: LgsStats,
    /// Per-rank calc-cost scale in percent: empty (every calc at face
    /// value) until [`LgsBackend::apply_straggler_now`] fills it.
    calc_scale: Vec<u64>,
}

impl LgsState {
    fn new(num_ranks: usize) -> Self {
        LgsState {
            now: 0,
            events: EventQueue::new(),
            nic_tx_free: vec![0; num_ranks],
            nic_rx_free: vec![0; num_ranks],
            eager: Matcher::new(),
            rdv: Matcher::new(),
            stats: LgsStats::default(),
            calc_scale: Vec::new(),
        }
    }
}

impl LgsBackend {
    pub fn new(params: LogGopsParams) -> Self {
        LgsBackend { params, s: LgsState::new(0) }
    }

    /// Apply a straggler model to a set-up simulation — the one way a
    /// straggler enters the backend. Calcs dispatched after the call are
    /// scaled by `straggler` while everything already scheduled keeps its
    /// timing; applied before the first task, it holds for the whole run.
    /// Only the state's table changes, so a restore or the next run
    /// undoes it.
    pub fn apply_straggler_now(&mut self, straggler: StragglerSpec) {
        self.s.calc_scale = straggler.calc_scale(self.s.nic_tx_free.len());
    }

    pub fn params(&self) -> &LogGopsParams {
        &self.params
    }

    pub fn stats(&self) -> LgsStats {
        self.s.stats
    }

    fn push(&mut self, time: Time, ev: Ev) {
        self.s.events.push(time, ev);
    }

    /// Occupy the sender NIC starting no earlier than `earliest`; returns
    /// the time the last byte has left.
    fn tx(&mut self, rank: Rank, earliest: Time, bytes: u64) -> Time {
        let start = earliest.max(self.s.nic_tx_free[rank as usize]);
        let end = start + self.params.nic_cost(bytes);
        self.s.nic_tx_free[rank as usize] = end;
        end
    }

    /// Charge the receive-side NIC gap; returns the time the data is
    /// available to the host.
    fn rx(&mut self, rank: Rank, arrival: Time) -> Time {
        let avail = arrival.max(self.s.nic_rx_free[rank as usize]);
        self.s.nic_rx_free[rank as usize] = avail + self.params.g;
        avail
    }
}

impl Snapshot for LgsBackend {
    type State = LgsState;

    fn checkpoint(&self) -> LgsState {
        self.s.clone()
    }

    fn restore(&mut self, state: &LgsState) {
        self.s.clone_from(state);
    }
}

impl Backend for LgsBackend {
    fn simulation_setup(&mut self, num_ranks: usize) {
        self.s = LgsState::new(num_ranks);
    }

    fn now(&self) -> Time {
        self.s.now
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        self.s.stats.messages += 1;
        self.s.stats.bytes += bytes;
        let key: MatchKey = (op.rank, dst, tag);
        let cpu_done = self.s.now + self.params.cpu_cost(bytes);
        if self.params.is_rendezvous(bytes) {
            self.s.stats.rendezvous_messages += 1;
            self.push(cpu_done, Ev::CpuFree(op));
            let rts_at = cpu_done + self.params.l;
            self.push(rts_at, Ev::RtsArrive { key, send_op: op, bytes });
        } else {
            // Eager: done at CPU completion; payload overlaps with progress.
            self.push(cpu_done, Ev::Done(op));
            let tx_end = self.tx(op.rank, cpu_done, bytes);
            let arrive = tx_end + self.params.l;
            self.push(arrive, Ev::Arrive { key, bytes });
        }
    }

    fn recv(&mut self, op: OpRef, src: Rank, bytes: u64, tag: Tag) {
        let key: MatchKey = (src, op.rank, tag);
        // Posting is cheap: release the stream immediately.
        self.push(self.s.now, Ev::CpuFree(op));
        if self.params.is_rendezvous(bytes) {
            if let Some((send_op, b)) = self.s.rdv.offer_recv(key, (op, self.s.now)) {
                // RTS already here: CTS leaves after receiver overhead.
                let cts_at = self.s.now + self.params.o + self.params.l;
                self.push(cts_at, Ev::CtsArrive { send_op, recv_op: op, bytes: b });
            }
        } else if let Some(avail) = self.s.eager.offer_recv(key, (op, self.s.now)) {
            // Payload already arrived.
            let done = avail.max(self.s.now) + self.params.cpu_cost(bytes);
            self.push(done, Ev::Done(op));
        }
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        let cost = if self.s.calc_scale.is_empty() {
            cost
        } else {
            cost.saturating_mul(self.s.calc_scale[op.rank as usize]) / 100
        };
        self.push(self.s.now + cost, Ev::Done(op));
    }

    fn next_event(&mut self) -> Option<Completion> {
        while let Some((time, ev)) = self.s.events.pop() {
            debug_assert!(time >= self.s.now);
            self.s.now = time;
            match ev {
                Ev::Done(op) => return Some(Completion::done(op, time)),
                Ev::CpuFree(op) => return Some(Completion::cpu_free(op, time)),
                Ev::Arrive { key, bytes } => {
                    let avail = self.rx(key.1, time);
                    if let Some((recv_op, post)) = self.s.eager.offer_send(key, avail) {
                        let done = avail.max(post) + self.params.cpu_cost(bytes);
                        self.push(done, Ev::Done(recv_op));
                    }
                }
                Ev::RtsArrive { key, send_op, bytes } => {
                    if let Some((recv_op, _post)) = self.s.rdv.offer_send(key, (send_op, bytes)) {
                        let cts_at = time + self.params.o + self.params.l;
                        self.push(cts_at, Ev::CtsArrive { send_op, recv_op, bytes });
                    }
                }
                Ev::CtsArrive { send_op, recv_op, bytes } => {
                    let tx_end = self.tx(send_op.rank, time, bytes);
                    // Buffer reusable once the last byte left the NIC.
                    self.push(tx_end, Ev::Done(send_op));
                    self.push(tx_end + self.params.l, Ev::DataArrive { recv_op, bytes });
                }
                Ev::DataArrive { recv_op, bytes } => {
                    let avail = self.rx(recv_op.rank, time);
                    let done = avail + self.params.cpu_cost(bytes);
                    self.push(done, Ev::Done(recv_op));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::Simulation;
    use atlahs_goal::{GoalBuilder, GoalSchedule};

    fn run(goal: &GoalSchedule, params: LogGopsParams) -> atlahs_core::SimReport {
        let mut b = LgsBackend::new(params);
        Simulation::new(goal).run(&mut b).expect("no deadlock")
    }

    fn ping(bytes: u64) -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, bytes, 0);
        b.recv(1, 0, bytes, 0);
        b.build().unwrap()
    }

    #[test]
    fn eager_ping_timing_exact() {
        // o=200, g=5, G=1/25, L=3700, O=0:
        // send done at o=200; wire: 200 + 5 + 40 = 245; arrive 3945;
        // recv done at 3945 + 200 = 4145.
        let p = LogGopsParams::ai_alps();
        let rep = run(&ping(1000), p);
        assert_eq!(rep.rank_finish[0], 200);
        assert_eq!(rep.rank_finish[1], 4145);
    }

    #[test]
    fn rendezvous_ping_timing_exact() {
        // s=100 so 1000B is rendezvous. o=100, g=0, G=1, L=500, O=0.
        let p = LogGopsParams {
            l: 500,
            o: 100,
            g: 0,
            big_g: NsPerByte::ps(1000),
            big_o: NsPerByte::ZERO,
            s: 100,
        };
        let rep = run(&ping(1000), p);
        // send cpu done 100; RTS at 600; recv posted at 0 -> CTS at 600+100+500=1200;
        // data tx 1200..2200 (G=1ns/B); send done 2200; arrive 2700;
        // recv done 2700 + o = 2800.
        assert_eq!(rep.rank_finish[0], 2200);
        assert_eq!(rep.rank_finish[1], 2800);
    }

    #[test]
    fn rendezvous_waits_for_late_recv() {
        let p = LogGopsParams {
            l: 500,
            o: 100,
            g: 0,
            big_g: NsPerByte::ps(1000),
            big_o: NsPerByte::ZERO,
            s: 100,
        };
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 1000, 0);
        let c = b.calc(1, 50_000);
        let r = b.recv(1, 0, 1000, 0);
        b.requires(1, r, c);
        let goal = b.build().unwrap();
        let rep = run(&goal, p);
        // recv posts at 50_000; CTS at 50_600; data 50_600..51_600;
        // arrive 52_100; done 52_200.
        assert_eq!(rep.rank_finish[1], 52_200);
        assert_eq!(rep.rank_finish[0], 51_600);
    }

    #[test]
    fn nic_gap_serializes_back_to_back_sends() {
        // Two eager sends from rank 0: NIC occupancy serializes the wire.
        let p = LogGopsParams {
            l: 0,
            o: 10,
            g: 100,
            big_g: NsPerByte::ZERO,
            big_o: NsPerByte::ZERO,
            s: 0,
        };
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 8, 0);
        b.send(0, 1, 8, 1);
        b.recv(1, 0, 8, 0);
        b.recv(1, 0, 8, 1);
        let goal = b.build().unwrap();
        let rep = run(&goal, p);
        // send1 cpu done 10, tx 10..110; send2 issues at 10, cpu done 20,
        // tx 110..210; arrivals at 110 and 210 (rx gap pushes availability);
        // recv2 done 210 + 10 = 220.
        assert_eq!(rep.makespan, 220);
    }

    #[test]
    fn per_byte_cpu_overhead_counts() {
        let p = LogGopsParams {
            l: 0,
            o: 0,
            g: 0,
            big_g: NsPerByte::ZERO,
            big_o: NsPerByte::ps(2000),
            s: 0,
        };
        let rep = run(&ping(100), p);
        // send done at 200 (O*b), arrive 200, recv done 200 + 200.
        assert_eq!(rep.rank_finish[0], 200);
        assert_eq!(rep.rank_finish[1], 400);
    }

    #[test]
    fn exchange_pattern_no_deadlock_under_rendezvous() {
        // Both ranks send then recv (same stream). Rendezvous requires the
        // peer's recv to be posted; CpuFree after o lets the recv post.
        let p = LogGopsParams {
            l: 100,
            o: 10,
            g: 0,
            big_g: NsPerByte::ps(100),
            big_o: NsPerByte::ZERO,
            s: 10,
        };
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 1000, 0);
        b.recv(0, 1, 1000, 0);
        b.send(1, 0, 1000, 0);
        b.recv(1, 0, 1000, 0);
        let goal = b.build().unwrap();
        let rep = run(&goal, p);
        assert_eq!(rep.completed, 4);
    }

    #[test]
    fn collective_on_lgs_completes() {
        use atlahs_collectives::{mpi, CollParams};
        let ranks: Vec<u32> = (0..8).collect();
        let mut b = GoalBuilder::new(8);
        mpi::allreduce_ring(&mut b, &ranks, 1 << 20, 0, &CollParams::default());
        let goal = b.build().unwrap();
        let rep = run(&goal, LogGopsParams::hpc_testbed());
        assert_eq!(rep.completed, goal.total_tasks());
        assert!(rep.makespan > 0);
    }

    #[test]
    fn stats_track_messages() {
        let p = LogGopsParams::ai_alps();
        let mut backend = LgsBackend::new(p);
        let goal = ping(4096);
        Simulation::new(&goal).run(&mut backend).unwrap();
        let st = backend.stats();
        assert_eq!(st.messages, 1);
        assert_eq!(st.bytes, 4096);
        assert_eq!(st.rendezvous_messages, 0);
    }

    #[test]
    fn bandwidth_bound_scales_with_g() {
        let slow = LogGopsParams { big_g: NsPerByte::ps(1000), ..LogGopsParams::ai_alps() };
        let fast = LogGopsParams { big_g: NsPerByte::ps(10), ..LogGopsParams::ai_alps() };
        let t_slow = run(&ping(1 << 20), slow).makespan;
        let t_fast = run(&ping(1 << 20), fast).makespan;
        assert!(t_slow > 50 * t_fast, "slow {t_slow} vs fast {t_fast}");
    }

    #[test]
    fn larger_clusters_take_longer_rings() {
        use atlahs_collectives::{mpi, CollParams};
        let time_for = |k: usize| {
            let ranks: Vec<u32> = (0..k as u32).collect();
            let mut b = GoalBuilder::new(k);
            mpi::allreduce_ring(&mut b, &ranks, 1 << 16, 0, &CollParams::default());
            run(&b.build().unwrap(), LogGopsParams::hpc_testbed()).makespan
        };
        assert!(time_for(16) > time_for(4));
    }

    // ---- straggler injection ----------------------------------------

    /// Run `goal` with `straggler` applied before the first task issues.
    fn run_straggled(goal: &GoalSchedule, straggler: StragglerSpec) -> atlahs_core::SimReport {
        let mut b = LgsBackend::new(LogGopsParams::ai_alps());
        let driver = atlahs_core::SimDriver::start(goal, &mut b);
        b.apply_straggler_now(straggler);
        driver.finish(&mut b).expect("no deadlock")
    }

    fn compute_ping(cost: u64) -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        let c = b.calc(0, cost);
        let s = b.send(0, 1, 1000, 0);
        b.requires(0, s, c);
        b.recv(1, 0, 1000, 0);
        b.build().unwrap()
    }

    #[test]
    fn straggler_inflates_calc_exactly() {
        // prob 100% makes every rank a straggler; factor 300% triples the
        // 10_000 ns calc. Eager ping timing after it is unchanged: with
        // ai_alps the fault-free run finishes at 10_000 + 4145.
        let goal = compute_ping(10_000);
        let clean = run(&goal, LogGopsParams::ai_alps());
        let spec = StragglerSpec { prob_pct: 100, factor_pct: 300, seed: 9, ..Default::default() };
        let faulty = run_straggled(&goal, spec);
        assert_eq!(clean.makespan, 14_145);
        assert_eq!(faulty.makespan, 34_145, "30_000 ns calc + the same wire time");
    }

    #[test]
    fn noop_straggler_specs_change_nothing() {
        let goal = compute_ping(5_000);
        let clean = run(&goal, LogGopsParams::ai_alps());
        for spec in [
            StragglerSpec::default(),
            StragglerSpec { prob_pct: 0, factor_pct: 500, seed: 3, ..Default::default() },
            StragglerSpec { prob_pct: 100, factor_pct: 100, seed: 3, ..Default::default() },
        ] {
            let rep = run_straggled(&goal, spec);
            assert_eq!(rep.makespan, clean.makespan, "{spec:?}");
            assert_eq!(rep.rank_finish, clean.rank_finish, "{spec:?}");
        }
    }

    #[test]
    fn straggler_tokens_parse_clamp_and_fall_through() {
        let spec = StragglerSpec::parse("straggler:25:300:150:2").unwrap().unwrap();
        let want =
            StragglerSpec { prob_pct: 25, factor_pct: 300, spread_pct: 150, shape: 2, seed: 0 };
        assert_eq!(spec, want);
        assert_eq!(spec.label(), "straggler:25:300:150:2");
        let short = StragglerSpec::parse("straggler:25:300").unwrap().unwrap();
        assert_eq!(
            (short.spread_pct, short.shape, short.label()),
            (0, 1, "straggler:25:300".into())
        );
        let clamped = StragglerSpec::parse("straggler:250:300:100:99").unwrap().unwrap();
        assert_eq!(clamped.label(), "straggler:100:300:100:16");
        let err = StragglerSpec::parse("straggler:25:x").unwrap().unwrap_err();
        assert_eq!(err, "bad number `x` in `straggler:25:x`");
        for other in ["straggler:1:2:3", "straggler", "loss:5000"] {
            assert_eq!(StragglerSpec::parse(other), None, "{other}");
        }
    }

    #[test]
    fn straggler_draw_is_per_rank_and_seeded() {
        // With a 50% probability over many ranks, some — but not all —
        // ranks straggle, and the same seed reproduces the same set.
        let spec = StragglerSpec { prob_pct: 50, factor_pct: 200, seed: 42, ..Default::default() };
        let set: Vec<bool> = (0..64).map(|r| spec.is_straggler(r)).collect();
        let again: Vec<bool> = (0..64).map(|r| spec.is_straggler(r)).collect();
        assert_eq!(set, again);
        let hit = set.iter().filter(|&&s| s).count();
        assert!(hit > 8 && hit < 56, "50% over 64 ranks: got {hit}");
        let other = StragglerSpec { seed: 43, ..spec };
        let shifted: Vec<bool> = (0..64).map(|r| other.is_straggler(r)).collect();
        assert_ne!(set, shifted, "a different seed picks a different set");
    }

    #[test]
    fn spread_draws_distinct_factors_per_straggler() {
        // Distribution-drawn factors: every straggler's scale is at least
        // the base factor, non-stragglers stay at 100, and the Weibull
        // spread separates stragglers from each other (uniform factors
        // cannot). Pure in the spec: the same spec re-derives the same
        // table, and a different seed moves it.
        let spec =
            StragglerSpec { prob_pct: 100, factor_pct: 200, spread_pct: 150, shape: 2, seed: 7 };
        let factors: Vec<u64> = (0..64).map(|r| spec.factor_pct_for(r)).collect();
        assert!(factors.iter().all(|&f| f >= 200), "spread only adds on top of the base");
        let distinct: std::collections::HashSet<u64> = factors.iter().copied().collect();
        assert!(distinct.len() > 16, "the spread must differentiate stragglers: {factors:?}");
        assert_eq!(factors, (0..64).map(|r| spec.factor_pct_for(r)).collect::<Vec<_>>());
        let reseeded = StragglerSpec { seed: 8, ..spec };
        assert_ne!(factors, (0..64).map(|r| reseeded.factor_pct_for(r)).collect::<Vec<_>>());
        // Half-probability: non-stragglers are untouched by the spread.
        let half = StragglerSpec { prob_pct: 50, ..spec };
        for r in 0..64 {
            if !half.is_straggler(r) {
                assert_eq!(half.factor_pct_for(r), 100);
            }
        }
        // A pure-spread spec (base factor 100) is *not* a no-op…
        assert!(!StragglerSpec {
            prob_pct: 50,
            factor_pct: 100,
            spread_pct: 80,
            shape: 1,
            seed: 1
        }
        .is_noop());
        // …and it slows a compute-heavy run down.
        let goal = compute_ping(10_000);
        let clean = run(&goal, LogGopsParams::ai_alps());
        let spread_run = run_straggled(&goal, spec);
        assert!(spread_run.makespan > clean.makespan);
    }

    /// A straggler applied between `start` and `finish` scales the very
    /// first calc: `start` issues nothing, so no task runs at face value.
    #[test]
    fn straggler_applied_after_start_scales_the_first_calc() {
        use atlahs_core::SimDriver;
        let mut gb = GoalBuilder::new(1);
        gb.calc(0, 10_000);
        let goal = gb.build().unwrap();
        let mut b = LgsBackend::new(LogGopsParams::ai_alps());
        let driver = SimDriver::start(&goal, &mut b);
        b.apply_straggler_now(StragglerSpec {
            prob_pct: 100,
            factor_pct: 300,
            ..Default::default()
        });
        assert_eq!(driver.finish(&mut b).unwrap().makespan, 30_000);
    }

    /// `apply_straggler_now` belongs to the run it was applied to: the
    /// next run on the same backend is a fresh backend's clean run.
    #[test]
    fn straggler_override_does_not_outlive_its_run() {
        use atlahs_core::{RunState, SimDriver};
        let mut gb = GoalBuilder::new(2);
        let calcs = [1_000, 1_000, 10_000].map(|cost| gb.calc(0, cost));
        gb.requires(0, calcs[1], calcs[0]);
        gb.requires(0, calcs[2], calcs[1]);
        let goal = gb.build().unwrap();
        let clean = run(&goal, LogGopsParams::ai_alps());

        let mut b = LgsBackend::new(LogGopsParams::ai_alps());
        let mut driver = SimDriver::start(&goal, &mut b);
        assert_eq!(driver.run_until(&mut b, 500).unwrap(), RunState::Paused);
        b.apply_straggler_now(StragglerSpec {
            prob_pct: 100,
            factor_pct: 300,
            ..Default::default()
        });
        let slowed = driver.finish(&mut b).unwrap();
        // The pause processed the first completion, which issued the
        // second calc at face value; only the third is issued afterwards.
        assert_eq!(slowed.makespan, 32_000, "calcs issued after the override triple");

        assert_eq!(Simulation::new(&goal).run(&mut b).unwrap(), clean);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use atlahs_collectives::{mpi, CollParams};
        use atlahs_core::{RunState, SimDriver, Snapshot};
        let ranks: Vec<u32> = (0..8).collect();
        let mut gb = GoalBuilder::new(8);
        mpi::allreduce_ring(&mut gb, &ranks, 1 << 20, 0, &CollParams::default());
        let goal = gb.build().unwrap();
        let params = LogGopsParams::hpc_testbed();
        let straight = run(&goal, params);

        // Pause at several points (including rendezvous handshakes in
        // flight), fork, and both the original and the fork must agree
        // with the straight-through run exactly.
        for bound in [1, 10_000, straight.makespan / 2, straight.makespan - 1] {
            let mut b = LgsBackend::new(params);
            let mut driver = SimDriver::start(&goal, &mut b);
            assert_eq!(driver.run_until(&mut b, bound).unwrap(), RunState::Paused);
            let snap = b.checkpoint();
            let fork_driver = driver.clone();
            let original = driver.finish(&mut b).unwrap();
            assert_eq!(original.makespan, straight.makespan, "bound {bound}");
            assert_eq!(original.rank_finish, straight.rank_finish, "bound {bound}");
            let stats = b.stats();

            b.restore(&snap);
            let fork = fork_driver.finish(&mut b).unwrap();
            assert_eq!(fork.makespan, straight.makespan, "fork at {bound}");
            assert_eq!(fork.rank_finish, straight.rank_finish, "fork at {bound}");
            assert_eq!(b.stats(), stats, "fork at {bound}");
        }
    }

    #[test]
    fn nccl_collective_on_lgs() {
        use atlahs_collectives::nccl::{self, NcclConfig};
        let ranks: Vec<u32> = (0..16).collect();
        let mut b = GoalBuilder::new(16);
        nccl::allreduce(&mut b, &ranks, 8 << 20, 0, &NcclConfig::default());
        let goal = b.build().unwrap();
        let rep = run(&goal, LogGopsParams::ai_alps());
        assert_eq!(rep.completed, goal.total_tasks());
    }
}
