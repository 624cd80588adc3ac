//! The packet-level discrete-event engine and ATLAHS backend.
//!
//! Every GOAL send becomes a *flow*: the message is segmented into MTU-sized
//! packets that traverse output-queued switch ports with finite buffers,
//! ECN marking between `K_min` and `K_max`, tail drop (or NDP trimming), and
//! per-flow congestion control ([`crate::cc`]). ACKs travel the reverse
//! path and are themselves queued.
//!
//! Loss recovery follows RFC 6298 and RFC 3522. The retransmission timeout
//! is measured: every (source, destination) pair keeps an integer SRTT and
//! RTTVAR that all its flows feed and start from, and a flow's timeout is
//! `SRTT + max(G, 4·RTTVAR)` with [`bdp_and_rto`]'s static timeout as `G`.
//! Only ACKs of originals that were never resent are sampled (Karn). An
//! expiry collapses the window and resends one probe, the oldest unacked
//! packet, not the window. Every data packet says whether it is a
//! retransmitted copy and its ACK echoes that bit, so the sender learns
//! which copy arrived: if it is the probe's, every unacked packet sent
//! before the probe is lost and they are all resent; if it is the
//! original's, the expiry was spurious and nothing else is resent. Under
//! NDP a trimmed packet's NACK resends exactly that packet.
//!
//! Operation semantics (paper §3.3): a send's compute stream is released
//! after the host overhead (200 ns); the send is *done* when the receiver
//! holds every byte of the message. A recv is done when its FIFO-matched
//! flow (by `(src, dst, tag)`, in issue order) has fully arrived.
//!
//! A flow is typed by its lifecycle. Until the receiver holds every byte,
//! its slot in the flow table owns a boxed `InFlight` — sender window,
//! receiver bitmap, timer chain — and a reader that wants per-packet
//! state has to go through that `Option`. Delivery takes the box; what
//! stays is a 24-byte entry that can still ACK a late duplicate, and that
//! the flow's packets, timers and credits still in the fabric find empty.
//! The entry counts what can still name its slot: packets in the pool,
//! NDP pull credits, the matcher while it holds the send for a recv not
//! yet posted, and until delivery the flow's timer chain or its local
//! delivery. Delivery ends the chain by moving its generation on, so the
//! chain's queued event is turned away without holding the slot. A
//! delivered slot whose count reaches zero goes on a free list, and the
//! next send takes it, so the table is as large as the most flows ever
//! named at once, not as the run is long. Flow ids never order, hash or
//! salt anything, so which slot a flow gets changes no result.
//!
//! Packets live in one pool in the run state and travel as 4-byte
//! handles: events, port queues and a port's in-service slot name a
//! packet by its pool index, so a hop moves 4 bytes, not the 32-byte
//! packet, and an event is 12 bytes. A packet takes a slot where it
//! originates and gives it back at its one fate: dropped on admission,
//! blackholed by a down port, lost on the wire, or received by its host.
//! Routes come from per-pair route sets ([`crate::topology`]): a flow
//! keeps its pair's forward and reverse sets, and a sprayed packet picks
//! its route by index, without hashing.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

use atlahs_core::matcher::MatchKey;
use atlahs_core::{Backend, Completion, Matcher, OpRef, Snapshot, Time};
use atlahs_eventq::hash::FastBuildHasher;
use atlahs_eventq::{EventQueue, QueueStats};
use atlahs_goal::{Rank, Tag};

use crate::cc::{CcAlgo, CcState};
use crate::fault::{FaultKind, PortFault};
use crate::stochastic::LinkModel;
use crate::topology::{PathRef, PortSpec, RouteCache, RouteSet, Topology, TopologyConfig};

/// Wire overhead per packet (headers), bytes.
const HDR_BYTES: u32 = 64;
/// Payload bytes per packet.
const MTU: u32 = 4096;
/// Wire size of a full frame.
const WIRE_MTU: u32 = MTU + HDR_BYTES;
/// Host-side per-operation overhead (ns).
const HOST_O: u64 = 200;
/// The largest message the engine carries: `u32::MAX` packets of 4096
/// payload bytes. The workload grammar rejects larger `<bytes>` fields.
pub const MAX_MESSAGE_BYTES: u64 = u32::MAX as u64 * MTU as u64;

/// Backend configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HtsimConfig {
    pub topology: TopologyConfig,
    pub cc: CcAlgo,
    /// Per-port buffering capacity (paper: 1 MiB). ECN marking starts at
    /// 20 % of it and is certain from 80 % (the paper's K_min / K_max).
    pub queue_bytes: u64,
    /// RNG seed (ECN probabilistic marking, ECMP salt).
    pub seed: u64,
    /// Per-packet path spraying (UEC/REPS-style adaptive load balancing)
    /// instead of per-flow ECMP hashing. Spraying removes hash-collision
    /// hotspots on fully provisioned fabrics at the cost of out-of-order
    /// arrival (harmless here: receivers track per-packet bitmaps).
    pub spray: bool,
}

impl HtsimConfig {
    pub fn new(topology: TopologyConfig, cc: CcAlgo) -> Self {
        HtsimConfig { topology, cc, queue_bytes: 1 << 20, seed: 1, spray: false }
    }
}

/// Aggregate network statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub packets_sent: u64,
    pub drops: u64,
    pub trims: u64,
    pub ecn_marks: u64,
    pub max_queue_bytes: u64,
    /// Drops/trims on ToR↔core links only (the oversubscribed tier).
    pub core_drops: u64,
    pub flows: u64,
    pub retransmissions: u64,
    /// Internal engine events processed (cost diagnostic).
    pub internal_events: u64,
    /// Retransmission-timer wake-ups processed: every expiry, plus every
    /// lazy re-arm of a timer that woke while its flow was still active.
    /// Wake-ups of delivered flows and of superseded timer chains are
    /// not counted.
    pub timeouts: u64,
    /// Retransmission-timer expiries alone: the wake-ups of `timeouts`
    /// that collapsed a window and resent a probe.
    pub expiries: u64,
    /// Packets discarded by a down link (fault injection), all kinds.
    /// Counted separately from `drops` so congestion loss and injected
    /// loss stay distinguishable in reports.
    pub fault_drops: u64,
    /// Stochastic draws consumed (one per packet leaving a port while a
    /// [`LinkModel`] is active). 0 ⇔ the run was model-free, which is
    /// what gates the stochastic telemetry out of legacy reports.
    pub stochastic_draws: u64,
    /// Packets lost to the per-packet stochastic model, all kinds.
    pub stochastic_drops: u64,
    /// Packets whose wire latency was inflated by a nonzero jitter
    /// sample.
    pub jittered: u64,
    /// Retransmissions whose previous copy is known lost to an injected
    /// fault (down-link blackhole or stochastic loss).
    pub rtx_fault_drop: u64,
    /// Retransmissions recovering congestion loss or trimmed packets
    /// (everything not attributable to an injected fault).
    pub rtx_timeout: u64,
    /// Payload bytes handed to the fabric, retransmitted copies
    /// included.
    pub payload_bytes: u64,
    /// Payload bytes of retransmitted copies only; `payload_bytes -
    /// retransmitted_bytes` is the unique goodput, invariant between a
    /// clean and a lossy run of the same workload.
    pub retransmitted_bytes: u64,
}

impl NetStats {
    /// Goodput as parts-per-million of offered payload: the share of
    /// sent payload bytes that was not a retransmitted copy. 1_000_000
    /// on a loss-free run.
    pub fn goodput_ppm(&self) -> u64 {
        if self.payload_bytes == 0 {
            return 1_000_000;
        }
        (self.payload_bytes - self.retransmitted_bytes) * 1_000_000 / self.payload_bytes
    }

    /// Retransmission-storm diagnostic: retransmission-timer wake-ups
    /// ([`NetStats::timeouts`], lazy re-arms included, so not only
    /// expiries) per thousand flows. A handful per flow is normal; hundreds
    /// per flow means timers keep waking on flows that make no progress.
    pub fn rtx_storm_per_kflow(&self) -> u64 {
        self.timeouts * 1_000 / self.flows.max(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PktKind {
    Data,
    /// Data packet trimmed to a header by an overflowing queue (NDP).
    Trimmed,
    Ack,
    /// Receiver-side loss notification (NDP): re-queue `idx` at the sender.
    Nack,
    /// Receiver-paced credit releasing one packet at the sender (NDP).
    Pull,
}

#[derive(Debug, Clone, Copy)]
struct Packet {
    flow: u32,
    idx: u32,
    hop: u8,
    kind: PktKind,
    wire: u32,
    ecn: bool,
    /// Data: this is a retransmitted copy. ACK: echoes the flag of the
    /// data copy it acknowledges.
    rtx: bool,
    /// ECMP selector: the flow's salt, or a per-packet value when
    /// spraying.
    ecmp: u64,
    /// The packet's full route, resolved once at origination. Forwarding
    /// hops are then pure arena index arithmetic — no flow-record load,
    /// no route lookup, even when spraying.
    path: PathRef,
}

/// [`Port::in_service`] of an idle port.
const NO_PKT: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Ev {
    TxDone(u32),
    /// Packet `pkt` (a handle into [`HtsimState::pkts`]) reaches the far
    /// end of `port`.
    Arrive {
        port: u32,
        pkt: u32,
    },
    /// Retransmission timer for `flow`. `gen` identifies the timer chain:
    /// events whose generation no longer matches the slot's are stale
    /// (the chain was re-armed early on backoff recovery, its flow was
    /// delivered, or the slot has a new flow since) and are dropped.
    Timeout {
        flow: u32,
        gen: u32,
    },
    PullTick {
        host: u32,
    },
    Emit {
        op: OpRef,
        done: bool,
    },
    LocalDone {
        flow: u32,
    },
    /// Fault-window boundary: `idx` into the state's fault table, `start`
    /// marks the opening edge.
    Fault {
        idx: u32,
        start: bool,
    },
}

// The event queue stores `Option<Ev>` in every node: a variant that used
// up the enum's niche, or a payload past 8 bytes, would grow them all.
const _: () = assert!(std::mem::size_of::<Packet>() == 32);
const _: () = assert!(std::mem::size_of::<Ev>() == 12);
const _: () = assert!(std::mem::size_of::<Option<Ev>>() == std::mem::size_of::<Ev>());

/// One output queue. `rate` is the link rate in units of 10 Mb/s
/// ([`LinkParams::rate`](crate::LinkParams::rate)): the one value
/// serialisation, pull pacing and a new flow's BDP and RTO derive from.
#[derive(Clone)]
struct Port {
    rate: u64,
    latency: u64,
    to_host: Option<u32>,
    is_core: bool,
    /// Packet handles, as [`Ev::Arrive`] carries them.
    queue: VecDeque<u32>,
    qbytes: u64,
    /// The handle of the packet on the wire, or [`NO_PKT`] while the port
    /// is idle.
    in_service: u32,
    /// Serialization times for the two wire sizes that dominate traffic
    /// (full MTU frames and bare headers), cached from [`tx_ns`] so the
    /// divide is off the per-packet path.
    tx_mtu: u64,
    tx_hdr: u64,
    /// Inside a [`FaultKind::Down`] window: the port discards everything
    /// offered to its queue (packets already queued or in service drain).
    down: bool,
    /// Stochastic draw counter: packet `n` leaving this port draws
    /// `fnv_draw2(seed, stream, port, n)`. Monotone, never reset
    /// mid-run, and carried by [`HtsimState`] (via the port clone) so a
    /// restored run resumes the exact draw sequence. Stays 0 while the
    /// link model is inactive.
    draws: u64,
}

impl Port {
    /// Change the link rate and re-derive the cached serialisation times.
    fn set_rate(&mut self, rate: u64) {
        self.rate = rate;
        self.tx_mtu = tx_ns(rate, WIRE_MTU);
        self.tx_hdr = tx_ns(rate, HDR_BYTES);
    }
}

/// Serialisation time of `wire` bytes at `rate` (units of 10 Mb/s):
/// `⌈wire·800 / rate⌉` ns.
pub fn tx_ns(rate: u64, wire: u32) -> u64 {
    (wire as u64 * 800).div_ceil(rate)
}

/// A new flow's initial window and the static part of its retransmission
/// timeout at its host port's `rate`: one bandwidth-delay product,
/// `⌊base_rtt·rate / 800⌋` bytes, and `3·base_rtt` plus ten MTUs'
/// serialisation, rounded down.
pub fn bdp_and_rto(rate: u64, base_rtt: u64) -> (u64, u64) {
    let bdp = u64::try_from(base_rtt as u128 * rate as u128 / 800).unwrap_or(u64::MAX);
    (bdp, 3 * base_rtt + 10 * MTU as u64 * 800 / rate)
}

/// Whether a data packet that finds `q` bytes queued in a buffer of
/// `queue_bytes` is ECN-marked: never up to `K_min` (20 % of the buffer),
/// always from `K_max` (80 %), and in between with probability
/// `(q − K_min) / (K_max − K_min)`, taking the top 53 bits of one RNG
/// `word` as the uniform variate and comparing exactly.
pub fn ecn_mark(q: u64, queue_bytes: u64, word: impl FnOnce() -> u64) -> bool {
    let (kmin, kmax) = (queue_bytes / 5, queue_bytes * 4 / 5);
    let below = |w: u64| ((w >> 11) as u128 * (kmax - kmin) as u128) < ((q - kmin) as u128) << 53;
    q >= kmax || (q > kmin && below(word()))
}

/// The round-trip estimator of one (source, destination) pair, RFC 6298
/// in integer nanoseconds. Every flow between the pair feeds it, and a
/// new flow starts from its timeout: each collective message is a new
/// flow, so a per-flow estimator would never warm up.
#[derive(Debug, Clone, Copy, Default)]
struct RttEstimator {
    /// Smoothed RTT; 0 until the first sample (samples are ≥ 1 ns).
    srtt: u64,
    rttvar: u64,
}

impl RttEstimator {
    fn sample(&mut self, rtt: u64) {
        if self.srtt == 0 {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
        } else {
            self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(rtt)) / 4;
            self.srtt = (7 * self.srtt + rtt) / 8;
        }
    }

    /// RFC 6298's `SRTT + max(G, 4·RTTVAR)` with `G = rto_min`: never
    /// below `rto_min` (which is all it is before the first sample), and
    /// `rto_min` clear of the smoothed round trip when samples barely
    /// vary.
    fn rto(&self, rto_min: u64) -> u64 {
        self.srtt + rto_min.max(4 * self.rttvar)
    }
}

/// [`InFlight::probe`] when no probe is outstanding.
const NO_PROBE: u32 = u32::MAX;

/// Dense bitmaps for per-packet sender/receiver state.
///
/// Flows of ≤64 packets — the overwhelming majority in storage- and
/// collective-style workloads — keep their bits inline in the flow's
/// [`InFlight`] state: five bitmaps cost no allocation of their own and
/// no second pointer chase on the per-packet ACK/receive path.
#[derive(Debug, Clone)]
enum Bitmap {
    Small(u64),
    Large(Box<[u64]>),
}

impl Bitmap {
    fn new(n: u32) -> Self {
        if n <= 64 {
            Bitmap::Small(0)
        } else {
            Bitmap::Large(vec![0u64; (n as usize).div_ceil(64)].into_boxed_slice())
        }
    }
    #[inline]
    fn get(&self, i: u32) -> bool {
        match self {
            Bitmap::Small(w) => w >> i & 1 == 1,
            Bitmap::Large(ws) => ws[i as usize / 64] >> (i % 64) & 1 == 1,
        }
    }
    #[inline]
    fn set(&mut self, i: u32) {
        match self {
            Bitmap::Small(w) => *w |= 1 << i,
            Bitmap::Large(ws) => ws[i as usize / 64] |= 1 << (i % 64),
        }
    }
    #[inline]
    fn clear(&mut self, i: u32) {
        match self {
            Bitmap::Small(w) => *w &= !(1 << i),
            Bitmap::Large(ws) => ws[i as usize / 64] &= !(1 << (i % 64)),
        }
    }
}

/// One slot of the flow table, which packets, events and the matcher name
/// by index: the part a *delivered* flow still needs — a late duplicate
/// is ACKed along the reverse route — plus the state of a flow that is
/// not delivered yet, and the references that keep the slot from reuse.
#[derive(Clone)]
struct Flow {
    /// The pair's reverse route set: a control packet takes the route its
    /// triggering packet's ECMP selector picks (symmetric spraying).
    rset: RouteSet,
    /// `None` once the receiver holds every byte.
    in_flight: Option<Box<InFlight>>,
    /// What can still name this slot: pool packets of the flow, until
    /// delivery its timer chain or its [`Ev::LocalDone`], its queued NDP
    /// pull credits, and the matcher while it holds the send. Timer
    /// events of an ended chain are not counted: their generation turns
    /// them away, whoever holds the slot by then.
    refs: u32,
    /// Current timer-chain generation (see [`Ev::Timeout`]), moved on by
    /// backoff recovery and by delivery. It carries over to the slot's
    /// next flow, one past, so that flow's chain matches no timer event
    /// of an earlier one.
    gen: u32,
}

// The table holds a slot per flow named at once, read on every packet.
const _: () = assert!(std::mem::size_of::<Flow>() <= 24);

/// Everything a flow needs until it is delivered.
#[derive(Clone)]
struct InFlight {
    op: OpRef,
    bytes: u64,
    npkts: u32,
    /// The pair's forward route set, which a data packet picks its route
    /// from with its ECMP selector.
    fwd: RouteSet,
    /// ECMP salt; per-packet spray values derive from it.
    salt: u64,
    /// [`bdp_and_rto`]'s static timeout for this flow's path: the least
    /// timeout, and the margin over the smoothed round trip.
    rto_min: u64,
    /// The flow's (source, destination) slot in [`HtsimState::rtt`].
    pair: u32,
    /// Expiries since the last ACK progress: the timeout is doubled this
    /// many times (see [`InFlight::rto`]).
    backoff: u32,
    /// The packet the last expiry resent, until an ACK for it arrives
    /// ([`NO_PROBE`] otherwise).
    probe: u32,
    cc: CcState,
    // sender state
    next_idx: u32,
    acked: Bitmap,
    inflight: u64,
    rtx: VecDeque<u32>,
    /// Queued in `rtx` and not yet resent.
    in_rtx: Bitmap,
    /// A retransmitted copy has been sent: an ACK of the original no
    /// longer times the path (Karn).
    resent: Bitmap,
    /// Indices whose most recent copy died to an *injected* fault (down
    /// link or stochastic loss), set at the discard site and cleared on
    /// resend — attributing each retransmission to its cause exactly
    /// ([`NetStats::rtx_fault_drop`] vs [`NetStats::rtx_timeout`]).
    fault_lost: Bitmap,
    send_ts: Box<[Time]>,
    last_activity: Time,
    // receiver state
    rcvd: Bitmap,
    rcvd_count: u32,
    recv_op: Option<OpRef>,
}

/// Expiries back off at most this many doublings, and never past this
/// many doublings of the static timeout (64× `rto_min`).
const MAX_BACKOFF: u32 = 6;

impl InFlight {
    /// The current retransmission timeout: the pair's estimate read now,
    /// doubled once per expiry since the last ACK progress, but backed
    /// off no further than 64× `rto_min`. A pair whose estimate grew
    /// under heavy queueing would otherwise leave a flow that keeps
    /// losing its probe silent for 64 of those.
    fn rto(&self, rtt: &[RttEstimator]) -> u64 {
        let rto = rtt[self.pair as usize].rto(self.rto_min);
        (rto << self.backoff).min(rto.max(self.rto_min << MAX_BACKOFF))
    }

    /// Take the next packet to put on the wire: the head of the
    /// retransmission queue, else the next never-sent index. An rtx entry
    /// acked since it was queued comes back as is — the window path skips
    /// it, the pull path spends its credit on it.
    fn next_packet(&mut self) -> Option<u32> {
        let fresh = self.next_idx;
        self.rtx.pop_front().or_else(|| {
            (fresh < self.npkts).then(|| {
                self.next_idx += 1;
                fresh
            })
        })
    }

    fn payload(&self, idx: u32) -> u32 {
        if idx + 1 == self.npkts {
            (self.bytes - (self.npkts as u64 - 1) * MTU as u64) as u32
        } else {
            MTU
        }
    }
}

#[derive(Clone)]
struct PullPacer {
    credits: VecDeque<u32>,
    busy: bool,
}

/// The packet-level backend: configuration fixed at construction,
/// everything a run mutates in [`HtsimState`].
pub struct HtsimBackend {
    cfg: HtsimConfig,
    topo: Topology,
    s: HtsimState,
}

/// Everything a run of the packet engine mutates: every port's queue and
/// link parameters (fault windows rescale them), every flow, the event
/// queue, the clock, the RNG, the message matcher, NDP pull pacers,
/// and counters — plus the fault table and link model, which every run
/// starts without and only the overrides ([`HtsimBackend::inject_fault`],
/// [`HtsimBackend::set_link_model`]) fill in.
/// The rule is in [`atlahs_core::snapshot`].
#[derive(Clone)]
pub struct HtsimState {
    ports: Vec<Port>,
    /// Flow slots, named by packets, events, pull credits and the
    /// matcher; the table only grows, to the most flows named at once.
    flows: Vec<Flow>,
    /// Delivered slots nothing names any more ([`Flow::refs`] 0), reused
    /// last freed first.
    flow_free: Vec<u32>,
    queue: EventQueue<Ev>,
    now: Time,
    rng: StdRng,
    matcher: Matcher<u32, OpRef>,
    pacers: Vec<PullPacer>,
    stats: NetStats,
    /// Every packet in the fabric, named by its handle (index). A slot is
    /// taken where the packet originates ([`HtsimBackend::send_packet`],
    /// [`HtsimBackend::control_packet`]) and given back at its one fate:
    /// an admission drop or a down port ([`HtsimBackend::enqueue`]), a
    /// loss on the wire ([`HtsimBackend::on_tx_done`]), or arrival at its
    /// host ([`HtsimBackend::on_arrive`]). An NDP trim keeps it.
    pkts: Vec<Packet>,
    /// Free slots of `pkts`, reused last freed first.
    free: Vec<u32>,
    /// Interned routes ([`Topology::route_set`]): every [`RouteSet`] and
    /// [`PathRef`] held by a flow or a packet in this state indexes
    /// `routes` and `arena`, which is why they are state and not a cache
    /// on the topology — a state restored into another backend must
    /// bring the routes its references point at.
    arena: Vec<u32>,
    routes: RouteCache,
    /// In-queue [`Ev::Fault`] events index into this table.
    faults: Vec<PortFault>,
    /// Round-trip estimators, one per (source, destination) pair that has
    /// carried a fabric flow; `rtt_slots` maps `src << 32 | dst` to its
    /// index, which the pair's flows keep in [`InFlight::pair`].
    rtt: Vec<RttEstimator>,
    rtt_slots: HashMap<u64, u32, FastBuildHasher>,
    /// The stochastic link model in force.
    model: LinkModel,
}

impl HtsimState {
    /// The state a run over `ports` starts from. A backend that was never
    /// set up holds the port-less one.
    fn new(cfg: &HtsimConfig, ports: &[PortSpec], hosts: usize) -> Self {
        let ports = ports.iter().map(|spec| {
            let mut port = Port {
                rate: 0,
                latency: spec.link.latency_ns,
                to_host: ((spec.to as usize) < hosts).then_some(spec.to),
                is_core: spec.is_core,
                queue: VecDeque::new(),
                qbytes: 0,
                in_service: NO_PKT,
                tx_mtu: 0,
                tx_hdr: 0,
                down: false,
                draws: 0,
            };
            port.set_rate(spec.link.rate(100));
            port
        });
        HtsimState {
            ports: ports.collect(),
            flows: Vec::new(),
            flow_free: Vec::new(),
            queue: EventQueue::new(),
            now: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            matcher: Matcher::new(),
            pacers: vec![PullPacer { credits: VecDeque::new(), busy: false }; hosts],
            stats: NetStats::default(),
            pkts: Vec::new(),
            free: Vec::new(),
            arena: Vec::new(),
            routes: RouteCache::default(),
            faults: Vec::new(),
            model: LinkModel::default(),
            rtt: Vec::new(),
            rtt_slots: Default::default(),
        }
    }

    /// One more reference names flow slot `fid`.
    fn hold(&mut self, fid: u32) {
        self.flows[fid as usize].refs += 1;
    }

    /// A reference to flow slot `fid` is gone: a delivered slot that
    /// nothing names any more is free for the next send.
    fn release(&mut self, fid: u32) {
        let flow = &mut self.flows[fid as usize];
        flow.refs -= 1;
        if flow.refs == 0 && flow.in_flight.is_none() {
            self.flow_free.push(fid);
        }
    }

    /// Put `pkt` in a pool slot and return its handle. The caller has
    /// given the packet a reference to its flow's slot.
    fn alloc_pkt(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.pkts[h as usize] = pkt;
                h
            }
            None => {
                let h = u32::try_from(self.pkts.len()).ok().filter(|&h| h != NO_PKT);
                let h = h.expect("packet pool past u32 handles");
                self.pkts.push(pkt);
                h
            }
        }
    }

    /// Give packet `h`'s pool slot back, and its reference to its flow.
    fn free_pkt(&mut self, h: u32) {
        self.free.push(h);
        self.release(self.pkts[h as usize].flow);
    }
}

impl HtsimBackend {
    pub fn new(cfg: HtsimConfig) -> Self {
        let topo = Topology::build(cfg.topology.clone());
        HtsimBackend { s: HtsimState::new(&cfg, &[], 0), topo, cfg }
    }

    /// Network statistics accumulated so far.
    pub fn net_stats(&self) -> NetStats {
        self.s.stats
    }

    pub fn config(&self) -> &HtsimConfig {
        &self.cfg
    }

    /// The fabric built from the configuration: what a window fault
    /// lowers onto ([`WindowFault::lower`](crate::fault::WindowFault::lower)).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Event-queue diagnostics: how pushes split across the O(1) lane,
    /// the timer wheel, and the overflow heap (perf tooling and tests).
    pub fn queue_stats(&self) -> QueueStats {
        self.s.queue.stats()
    }

    fn push(&mut self, t: Time, ev: Ev) {
        self.s.queue.push(t, ev);
    }

    /// Packets waiting in port queues, the ones on the wire not counted.
    #[cfg(test)]
    pub(crate) fn queued_packets(&self) -> usize {
        self.s.ports.iter().map(|p| p.queue.len()).sum()
    }

    /// Flow slots on the free list, and slots something still names.
    #[cfg(test)]
    pub(crate) fn flow_slot_census(&self) -> (usize, usize) {
        (self.s.flow_free.len(), self.s.flows.iter().filter(|f| f.refs > 0).count())
    }

    /// The flow table's size: the most flows named at once so far, since
    /// a slot is reused once nothing names it and the table never
    /// shrinks. For the memory ratchets; `NetStats::flows` counts flows.
    #[doc(hidden)]
    pub fn flow_slots(&self) -> usize {
        self.s.flows.len()
    }

    // ---- port machinery ------------------------------------------------

    /// An injected fault killed packet `h`: mark a data packet for the
    /// retransmission split (a straggling duplicate of a delivered flow
    /// will never be resent), and give its slot back.
    fn fault_loss(&mut self, h: u32) {
        let pkt = &self.s.pkts[h as usize];
        if pkt.kind == PktKind::Data {
            if let Some(t) = self.s.flows[pkt.flow as usize].in_flight.as_mut() {
                t.fault_lost.set(pkt.idx);
            }
        }
        self.s.free_pkt(h);
    }

    fn enqueue(&mut self, port_id: u32, h: u32) {
        if self.s.ports[port_id as usize].down {
            // Ingress blackhole: data, acks, and credits all die on the
            // down link; the retransmission timer recovers once the
            // window closes. No RNG draw — the ECN stream stays aligned
            // with a run where this packet was never offered.
            self.s.stats.fault_drops += 1;
            self.fault_loss(h);
            return;
        }
        // One borrow of the port and the packet for the whole admission
        // path (`rng`, `stats`, and `cc` are disjoint fields of the state).
        let port = &mut self.s.ports[port_id as usize];
        let pkt = &mut self.s.pkts[h as usize];
        if pkt.kind == PktKind::Data {
            let (q, cap) = (port.qbytes, self.cfg.queue_bytes);
            // ECN marking on instantaneous occupancy.
            pkt.ecn |= ecn_mark(q, cap, || self.s.rng.next_u64());
            if pkt.ecn {
                self.s.stats.ecn_marks += 1;
            }
            // Admission: trim (NDP) or drop on overflow.
            if q + pkt.wire as u64 > cap {
                if self.cfg.cc == CcAlgo::Ndp {
                    pkt.kind = PktKind::Trimmed;
                    pkt.wire = HDR_BYTES;
                    self.s.stats.trims += 1;
                    if port.is_core {
                        self.s.stats.core_drops += 1;
                    }
                } else {
                    self.s.stats.drops += 1;
                    if port.is_core {
                        self.s.stats.core_drops += 1;
                    }
                    self.s.free_pkt(h);
                    return;
                }
            }
        }
        port.qbytes += pkt.wire as u64;
        self.s.stats.max_queue_bytes = self.s.stats.max_queue_bytes.max(port.qbytes);
        port.queue.push_back(h);
        if port.in_service == NO_PKT {
            self.start_tx(port_id);
        }
    }

    /// Put the head of the port's queue on the wire, if there is one.
    fn start_tx(&mut self, port_id: u32) {
        let port = &mut self.s.ports[port_id as usize];
        let Some(h) = port.queue.pop_front() else { return };
        let wire = self.s.pkts[h as usize].wire;
        port.qbytes -= wire as u64;
        port.in_service = h;
        let tx = if wire == WIRE_MTU {
            port.tx_mtu
        } else if wire == HDR_BYTES {
            port.tx_hdr
        } else {
            tx_ns(port.rate, wire)
        };
        self.push(self.s.now + tx, Ev::TxDone(port_id));
    }

    fn on_tx_done(&mut self, port_id: u32) {
        let (h, mut latency, stoch) = {
            let port = &mut self.s.ports[port_id as usize];
            let h = std::mem::replace(&mut port.in_service, NO_PKT);
            debug_assert_ne!(h, NO_PKT, "TxDone without packet");
            // Per-packet stochastic link model: every packet leaving a
            // port consumes exactly one draw-counter value, loss or not,
            // jitter or not — the stream position is a pure function of
            // (port, packets transmitted), so it survives snapshot and
            // restore via the port clone, and an inactive model consumes
            // nothing at all.
            let stoch = if self.s.model.active() {
                let n = port.draws;
                port.draws += 1;
                Some((n, port.is_core))
            } else {
                None
            };
            (h, port.latency, stoch)
        };
        if let Some((n, is_core)) = stoch {
            let model = self.s.model;
            self.s.stats.stochastic_draws += 1;
            if model.drops(port_id, n, is_core) {
                // The packet vanishes on the wire: for data the RTO
                // path recovers it (and the loss is attributed to the
                // fault for the retransmission split); lost acks and
                // credits are re-elicited the same way.
                self.s.stats.stochastic_drops += 1;
                self.fault_loss(h);
                self.start_tx(port_id);
                return;
            }
            let extra = model.jitter_ns(port_id, n);
            if extra > 0 {
                self.s.stats.jittered += 1;
                latency += extra;
            }
        }
        self.push(self.s.now + latency, Ev::Arrive { port: port_id, pkt: h });
        self.start_tx(port_id);
    }

    fn on_arrive(&mut self, port_id: u32, h: u32) {
        if let Some(host) = self.s.ports[port_id as usize].to_host {
            // The packet's journey ends: its slot is free before the host
            // originates anything in answer.
            let pkt = self.s.pkts[h as usize];
            self.s.free.push(h);
            self.host_receive(host, pkt);
            return;
        }
        // Forward through the switch: the packet carries its interned
        // route, so this is a single arena load — no flow access.
        let pkt = &mut self.s.pkts[h as usize];
        pkt.hop += 1;
        let next = pkt.path.of(&self.s.arena)[pkt.hop as usize];
        self.enqueue(next, h);
    }

    // ---- sender --------------------------------------------------------

    fn try_send(&mut self, fid: u32) {
        loop {
            let Some(t) = self.s.flows[fid as usize].in_flight.as_mut() else { return };
            if t.inflight >= t.cc.window() {
                return;
            }
            match t.next_packet() {
                Some(i) if t.acked.get(i) => continue, // stale rtx entry
                Some(i) => self.send_packet(fid, i),
                None => return,
            }
        }
    }

    fn send_packet(&mut self, fid: u32, idx: u32) {
        let flow = &mut self.s.flows[fid as usize];
        let Some(t) = flow.in_flight.as_mut() else { return };
        // The packet names the slot until it is lost, or answered by a
        // control packet that takes the reference over.
        flow.refs += 1;
        let payload = t.payload(idx);
        t.send_ts[idx as usize] = self.s.now;
        t.inflight += payload as u64;
        t.last_activity = self.s.now;
        // Clear the retransmission marker: if this copy is lost too,
        // the next timeout must be able to requeue the packet.
        let was_rtx = t.in_rtx.get(idx);
        if was_rtx {
            t.in_rtx.clear(idx);
            t.resent.set(idx);
        }
        // Attribute the retransmission: was the previous copy killed
        // by an injected fault, or by congestion/timeout noise?
        let was_fault_lost = t.fault_lost.get(idx);
        if was_fault_lost {
            t.fault_lost.clear(idx);
        }
        let ecmp = if self.cfg.spray {
            t.salt ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        } else {
            t.salt
        };
        // Resolve the route once; hops index into it.
        let path = self.s.routes.route(t.fwd, ecmp);
        let pkt = Packet {
            flow: fid,
            idx,
            hop: 0,
            kind: PktKind::Data,
            wire: payload + HDR_BYTES,
            ecn: false,
            rtx: was_rtx,
            ecmp,
            path,
        };
        let payload = payload as u64;
        self.s.stats.packets_sent += 1;
        self.s.stats.payload_bytes += payload;
        if was_rtx {
            self.s.stats.retransmissions += 1;
            self.s.stats.retransmitted_bytes += payload;
            // `retransmissions == rtx_fault_drop + rtx_timeout` holds by
            // construction: every retransmission lands in exactly one
            // bucket here.
            if was_fault_lost {
                self.s.stats.rtx_fault_drop += 1;
            } else {
                self.s.stats.rtx_timeout += 1;
            }
        }
        let port0 = path.of(&self.s.arena)[0];
        let h = self.s.alloc_pkt(pkt);
        self.enqueue(port0, h);
    }

    /// Control packets (ACK/NACK/PULL) travel the reverse path, reusing
    /// the triggering packet's ECMP selector (symmetric spraying) and
    /// echoing its ECN mark and retransmission flag. This reads only what
    /// a delivered flow keeps. A control packet takes over the flow-slot
    /// reference of what it answers: the data or trimmed packet that
    /// arrived, or the pull credit that was spent.
    fn control_packet(
        &mut self,
        fid: u32,
        idx: u32,
        kind: PktKind,
        ecn: bool,
        rtx: bool,
        ecmp: u64,
    ) {
        let path = self.s.routes.route(self.s.flows[fid as usize].rset, ecmp);
        let pkt = Packet { flow: fid, idx, hop: 0, kind, wire: HDR_BYTES, ecn, rtx, ecmp, path };
        let port0 = path.of(&self.s.arena)[0];
        let h = self.s.alloc_pkt(pkt);
        self.enqueue(port0, h);
    }

    // ---- receiver ------------------------------------------------------

    fn host_receive(&mut self, host: u32, pkt: Packet) {
        if !matches!(pkt.kind, PktKind::Data | PktKind::Trimmed) {
            // Nothing answers an ACK, a NACK or a credit, so its reference
            // goes now; a flow in flight holds its slot through its timer
            // chain.
            self.s.release(pkt.flow);
        }
        let now = self.s.now;
        let Flow { in_flight, gen, .. } = &mut self.s.flows[pkt.flow as usize];
        let in_flight = in_flight.as_mut();
        match pkt.kind {
            PktKind::Data => {
                let all_in = in_flight.is_some_and(|t| {
                    let fresh = !t.rcvd.get(pkt.idx);
                    if fresh {
                        t.rcvd.set(pkt.idx);
                        t.rcvd_count += 1;
                    }
                    fresh && t.rcvd_count == t.npkts
                });
                self.control_packet(pkt.flow, pkt.idx, PktKind::Ack, pkt.ecn, pkt.rtx, pkt.ecmp);
                if self.cfg.cc == CcAlgo::Ndp {
                    self.add_pull_credit(host, pkt.flow);
                }
                if all_in {
                    self.deliver(pkt.flow);
                }
            }
            PktKind::Trimmed => {
                self.control_packet(pkt.flow, pkt.idx, PktKind::Nack, false, false, pkt.ecmp);
                self.add_pull_credit(host, pkt.flow);
            }
            PktKind::Ack => {
                let idx = pkt.idx;
                let Some(t) = in_flight.filter(|t| !t.acked.get(idx)) else { return };
                t.acked.set(idx);
                t.inflight = t.inflight.saturating_sub(t.payload(idx) as u64);
                let sent = t.send_ts[idx as usize];
                let rtt = now.saturating_sub(sent).max(1);
                t.cc.on_ack(now, rtt, pkt.ecn);
                t.last_activity = now;
                if !pkt.rtx && !t.resent.get(idx) {
                    self.s.rtt[t.pair as usize].sample(rtt);
                }
                if idx == t.probe {
                    // An ACK of the original says the expiry was
                    // spurious: nothing else is resent. The probe's copy
                    // answering while the original did not says that
                    // everything still unacked that left before it is
                    // lost.
                    t.probe = NO_PROBE;
                    if pkt.rtx {
                        for i in 0..t.next_idx {
                            if !t.acked.get(i) && !t.in_rtx.get(i) && t.send_ts[i as usize] < sent {
                                t.in_rtx.set(i);
                                t.rtx.push_back(i);
                            }
                        }
                    }
                }
                if t.backoff > 0 {
                    // Backoff recovery: re-arm the timer promptly — the
                    // pending timeout event sits up to 64x `rto_min` in
                    // the future and would delay detection of a new stall
                    // by that much. Bumping the generation invalidates the
                    // old chain; the slot's reference moves to the new one.
                    t.backoff = 0;
                    *gen = gen.wrapping_add(1);
                    let ev = Ev::Timeout { flow: pkt.flow, gen: *gen };
                    self.s.queue.push(now + t.rto(&self.s.rtt), ev);
                }
                self.try_send(pkt.flow);
            }
            PktKind::Nack => {
                let Some(t) = in_flight else { return };
                if !t.acked.get(pkt.idx) && !t.in_rtx.get(pkt.idx) {
                    t.in_rtx.set(pkt.idx);
                    t.rtx.push_back(pkt.idx);
                    // The trimmed payload is no longer in flight.
                    t.inflight = t.inflight.saturating_sub(t.payload(pkt.idx) as u64);
                }
            }
            PktKind::Pull => {
                // Release exactly one packet, bypassing the window.
                let Some(t) = in_flight else { return };
                if let Some(i) = t.next_packet().filter(|&i| !t.acked.get(i)) {
                    self.send_packet(pkt.flow, i);
                }
            }
        }
    }

    fn add_pull_credit(&mut self, host: u32, fid: u32) {
        if self.s.flows[fid as usize].in_flight.is_none() {
            return;
        }
        self.s.hold(fid);
        self.s.pacers[host as usize].credits.push_back(fid);
        if !self.s.pacers[host as usize].busy {
            self.s.pacers[host as usize].busy = true;
            self.push(self.s.now, Ev::PullTick { host });
        }
    }

    fn on_pull_tick(&mut self, host: u32) {
        let fid = self.s.pacers[host as usize].credits.pop_front();
        match fid {
            None => {
                self.s.pacers[host as usize].busy = false;
            }
            Some(fid) => {
                match &self.s.flows[fid as usize].in_flight {
                    Some(t) => self.control_packet(fid, 0, PktKind::Pull, false, false, t.salt),
                    None => self.s.release(fid),
                }
                // Pace at the receiver's edge-link rate: one full frame's
                // serialisation time per credit.
                let interval = self.s.ports[host as usize].tx_mtu;
                self.push(self.s.now + interval, Ev::PullTick { host });
            }
        }
    }

    /// The last byte of `fid` is where it was going: the send is done
    /// now, a recv already matched to it one host overhead later (a recv
    /// posted from here on finds the flow delivered and completes
    /// itself). Taking the in-flight state turns away whatever of the
    /// flow is still in the fabric, and dropping it gives the buffers
    /// back. Moving the generation on ends the retransmission-timer
    /// chain: its queued event is turned away like a superseded one, so
    /// the chain (or the local delivery) lets go of the slot here.
    fn deliver(&mut self, fid: u32) {
        let flow = &mut self.s.flows[fid as usize];
        let t = flow.in_flight.take().expect("a flow is delivered once");
        flow.gen = flow.gen.wrapping_add(1);
        self.push(self.s.now, Ev::Emit { op: t.op, done: true });
        if let Some(r) = t.recv_op {
            self.push(self.s.now + HOST_O, Ev::Emit { op: r, done: true });
        }
        self.s.release(fid);
    }

    /// Apply or lift one fault window ([`Ev::Fault`]).
    ///
    /// Degradation rescales the port's rate and latency; the closing edge
    /// restores the *nominal* link parameters from the topology's port
    /// table.
    fn on_fault(&mut self, idx: u32, start: bool) {
        let f = self.s.faults[idx as usize];
        let link = self.topo.ports()[f.port as usize].link;
        let port = &mut self.s.ports[f.port as usize];
        match f.kind {
            FaultKind::Down => port.down = start,
            FaultKind::Degrade { bw_pct, lat_pct } => {
                let (bw_pct, lat_pct) = if start { (bw_pct, lat_pct) } else { (100, 100) };
                port.set_rate(link.rate(bw_pct));
                port.latency = link.latency_ns * lat_pct as u64 / 100;
            }
        }
    }

    fn on_timeout(&mut self, fid: u32, gen: u32) {
        let now = self.s.now;
        // Lazily cancelled timers (superseded chains, delivered flows,
        // earlier flows of the slot) die here without touching anything.
        let flow = &mut self.s.flows[fid as usize];
        let Some(t) = flow.in_flight.as_mut().filter(|_| gen == flow.gen) else { return };
        self.s.stats.timeouts += 1;
        let rto = t.rto(&self.s.rtt);
        let next = if now.saturating_sub(t.last_activity) < rto {
            t.last_activity + rto
        } else {
            // Expiry: collapse the window and resend one probe, the
            // oldest unacked packet, ahead of anything queued. Its ACK
            // says whether the rest of the window is lost too (see the
            // ACK handler). Whatever was in flight no longer holds the
            // window.
            self.s.stats.expiries += 1;
            t.cc.on_timeout();
            t.probe = NO_PROBE;
            if let Some(i) = (0..t.next_idx).find(|&i| !t.acked.get(i)) {
                if !t.in_rtx.get(i) {
                    t.in_rtx.set(i);
                    t.rtx.push_front(i);
                }
                t.probe = i;
            }
            t.inflight = 0;
            t.last_activity = now;
            // Exponential backoff: a flow whose probes die too keeps
            // probing ever more rarely.
            t.backoff = (t.backoff + 1).min(MAX_BACKOFF);
            now + t.rto(&self.s.rtt)
        };
        self.try_send(fid);
        self.push(next, Ev::Timeout { flow: fid, gen });
    }
}

impl Backend for HtsimBackend {
    fn simulation_setup(&mut self, num_ranks: usize) {
        assert!(
            num_ranks <= self.topo.num_hosts(),
            "schedule needs {num_ranks} ranks but topology has {} hosts",
            self.topo.num_hosts()
        );
        self.s = HtsimState::new(&self.cfg, self.topo.ports(), self.topo.num_hosts());
    }

    fn now(&self) -> Time {
        self.s.now
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        let key: MatchKey = (op.rank, dst, tag);
        self.push(self.s.now + HOST_O, Ev::Emit { op, done: false });
        let fid = match self.s.flow_free.pop() {
            Some(fid) => fid,
            None => u32::try_from(self.s.flows.len()).expect("flow table past u32 slots"),
        };
        self.s.stats.flows += 1;
        let (rset, mut t) = self.make_flow(op, dst, bytes);
        t.recv_op = self.s.matcher.offer_send(key, fid);
        let rto = if op.rank == dst { 0 } else { t.rto(&self.s.rtt) };
        // The timer chain or the local delivery names the slot, and the
        // matcher does until the recv is posted.
        let refs = 1 + u32::from(t.recv_op.is_none());
        let gen = self.s.flows.get(fid as usize).map_or(0, |slot| slot.gen.wrapping_add(1));
        let flow = Flow { rset, in_flight: Some(Box::new(t)), refs, gen };
        match self.s.flows.get_mut(fid as usize) {
            Some(slot) => *slot = flow,
            None => self.s.flows.push(flow),
        }
        if op.rank == dst {
            // Intra-node message: no fabric traversal (Stage 4 normally
            // replaces these with calcs; handle gracefully if present).
            self.push(self.s.now + HOST_O, Ev::LocalDone { flow: fid });
        } else {
            self.try_send(fid);
            self.push(self.s.now + rto, Ev::Timeout { flow: fid, gen });
        }
    }

    fn recv(&mut self, op: OpRef, src: Rank, _bytes: u64, tag: Tag) {
        let key: MatchKey = (src, op.rank, tag);
        self.push(self.s.now, Ev::Emit { op, done: false });
        if let Some(fid) = self.s.matcher.offer_recv(key, op) {
            match self.s.flows[fid as usize].in_flight.as_mut() {
                Some(t) => t.recv_op = Some(op),
                None => self.push(self.s.now + HOST_O, Ev::Emit { op, done: true }),
            }
            self.s.release(fid);
        }
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        self.push(self.s.now + cost, Ev::Emit { op, done: true });
    }

    fn next_event(&mut self) -> Option<Completion> {
        while let Some((t, ev)) = self.s.queue.pop() {
            debug_assert!(t >= self.s.now);
            self.s.now = t;
            self.s.stats.internal_events += 1;
            match ev {
                Ev::Emit { op, done } => {
                    return Some(if done {
                        Completion::done(op, t)
                    } else {
                        Completion::cpu_free(op, t)
                    });
                }
                Ev::TxDone(p) => self.on_tx_done(p),
                Ev::Arrive { port, pkt } => self.on_arrive(port, pkt),
                Ev::Timeout { flow, gen } => self.on_timeout(flow, gen),
                Ev::PullTick { host } => self.on_pull_tick(host),
                Ev::Fault { idx, start } => self.on_fault(idx, start),
                Ev::LocalDone { flow } => self.deliver(flow),
            }
        }
        None
    }
}

impl HtsimBackend {
    /// The reverse route set and the in-flight state of a new flow; an
    /// intra-node one gets no routes, no salt draw and no timer.
    fn make_flow(&mut self, op: OpRef, dst: Rank, bytes: u64) -> (RouteSet, InFlight) {
        let bytes = bytes.max(1);
        let npkts = u32::try_from(bytes.div_ceil(MTU as u64)).unwrap_or_else(|_| {
            panic!("a {bytes} B message is over MAX_MESSAGE_BYTES = {MAX_MESSAGE_BYTES} B")
        });
        let (fwd, rset, salt, rto_min, pair, cc) = if op.rank == dst {
            let cc = CcState::new(self.cfg.cc, MTU, 1, 1);
            (RouteSet::default(), RouteSet::default(), 0, 0, u32::MAX, cc)
        } else {
            let salt = self.s.rng.random::<u64>();
            let (arena, routes) = (&mut self.s.arena, &mut self.s.routes);
            let fwd = self.topo.route_set(arena, routes, op.rank, dst);
            let rset = self.topo.route_set(arena, routes, dst, op.rank);
            let (path, rpath) = (routes.route(fwd, salt), routes.route(rset, salt));
            let base_rtt = self.topo.base_rtt(path.of(arena), rpath.of(arena), MTU);
            let (bdp, rto) = bdp_and_rto(self.s.ports[op.rank as usize].rate, base_rtt);
            let cc = CcState::new(self.cfg.cc, MTU, base_rtt, bdp);
            let slots = self.s.rtt.len() as u32;
            let key = (op.rank as u64) << 32 | dst as u64;
            let pair = *self.s.rtt_slots.entry(key).or_insert(slots);
            if pair == slots {
                self.s.rtt.push(RttEstimator::default());
            }
            (fwd, rset, salt, rto.max(1), pair, cc)
        };
        let in_flight = InFlight {
            op,
            bytes,
            npkts,
            fwd,
            salt,
            rto_min,
            pair,
            backoff: 0,
            probe: NO_PROBE,
            cc,
            next_idx: 0,
            acked: Bitmap::new(npkts),
            inflight: 0,
            rtx: VecDeque::new(),
            in_rtx: Bitmap::new(npkts),
            resent: Bitmap::new(npkts),
            fault_lost: Bitmap::new(npkts),
            send_ts: vec![0; npkts as usize].into_boxed_slice(),
            last_activity: self.s.now,
            rcvd: Bitmap::new(npkts),
            rcvd_count: 0,
            recv_op: None,
        };
        (rset, in_flight)
    }

    // ---- overrides -----------------------------------------------------

    /// Switch the per-packet stochastic link model ([`crate::stochastic`])
    /// — the one way a model enters the engine; every run starts with the
    /// inactive one, which consumes no draws. Applied before the first
    /// task, it holds for the whole run; mid-run, packets already on the
    /// wire are unaffected and the next packet to finish transmitting on
    /// each port draws from the new model at the port's current counter
    /// position. Only the state's model changes, so a restore or the next
    /// run undoes the switch.
    pub fn set_link_model(&mut self, model: LinkModel) {
        self.s.model = model;
    }

    /// Advance a port's stochastic draw counter by `n` without
    /// transmitting anything — deliberately desynchronizing the draw
    /// stream. This exists purely as a verification hook: the
    /// snapshot-identity meta-tests use it to emulate an engine that
    /// *fails* to carry draw counters across restore, proving those
    /// tests detect stream misalignment. Never called by the engine.
    #[doc(hidden)]
    pub fn skip_stochastic_draws(&mut self, port: u32, n: u64) {
        self.s.ports[port as usize].draws += n;
    }

    /// Inject a fault window into a set-up simulation — the one way a
    /// link fault enters the engine. The window is clamped to open no
    /// earlier than `now`; windows that would close at or before that
    /// are ignored. The window's events enter the queue at call time, so
    /// their tie-break order against same-timestamp traffic reflects the
    /// injection point: injected at time 0, before the driver issues the
    /// first task, they precede all traffic. The window joins the state's
    /// fault table only, so a restore or the next run forgets it.
    pub fn inject_fault(&mut self, mut f: PortFault) {
        let ports = self.topo.ports().len();
        assert!(
            (f.port as usize) < ports,
            "fault targets port {} but topology has {ports} ports",
            f.port
        );
        f.start_ns = f.start_ns.max(self.s.now);
        if f.end_ns <= f.start_ns {
            return;
        }
        let idx = self.s.faults.len() as u32;
        self.s.faults.push(f);
        self.s.queue.push(f.start_ns, Ev::Fault { idx, start: true });
        self.s.queue.push(f.end_ns, Ev::Fault { idx, start: false });
    }
}

impl Snapshot for HtsimBackend {
    type State = HtsimState;

    fn checkpoint(&self) -> HtsimState {
        self.s.clone()
    }

    fn restore(&mut self, state: &HtsimState) {
        self.s.clone_from(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::Simulation;
    use atlahs_goal::GoalBuilder;

    use crate::topology::LinkParams;

    /// Every other host of a 16-host switch sends 256 KiB to host 0 into
    /// 64 KiB port buffers.
    fn incast_on_switch(cc: CcAlgo) -> (HtsimBackend, atlahs_goal::GoalSchedule) {
        let mut b = GoalBuilder::new(16);
        for s in 1..16 {
            b.send(s, 0, 256 << 10, 0);
            b.recv(0, s, 256 << 10, 0);
        }
        let topology = TopologyConfig::SingleSwitch { hosts: 16, link: LinkParams::default() };
        let mut cfg = HtsimConfig::new(topology, cc);
        cfg.queue_bytes = 64 << 10;
        (HtsimBackend::new(cfg), b.build().unwrap())
    }

    /// Nothing is in the fabric and no slot leaked: every pool slot is on
    /// the free list, once, and so is every flow slot, with nothing
    /// naming it.
    fn assert_drained(be: &HtsimBackend, case: &str) {
        let mut free = be.s.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), be.s.free.len(), "{case}: a slot was freed twice");
        assert_eq!(free.len(), be.s.pkts.len(), "{case}: a slot leaked");
        assert!(!be.s.pkts.is_empty(), "{case}: no packet was sent");
        let mut free = be.s.flow_free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), be.s.flow_free.len(), "{case}: a flow slot was freed twice");
        assert_eq!(free.len(), be.s.flows.len(), "{case}: a flow slot leaked");
        for (fid, flow) in be.s.flows.iter().enumerate() {
            assert_eq!(flow.refs, 0, "{case}: flow slot {fid} is still named");
            assert!(flow.in_flight.is_none(), "{case}: flow slot {fid} was never delivered");
        }
    }

    fn op(rank: Rank, task: u32) -> OpRef {
        OpRef::new(rank, atlahs_goal::TaskId(task))
    }

    /// A 2-host switch, set up for a run.
    fn pair(cc: CcAlgo) -> HtsimBackend {
        let topology = TopologyConfig::SingleSwitch { hosts: 2, link: LinkParams::default() };
        let mut be = HtsimBackend::new(HtsimConfig::new(topology, cc));
        be.simulation_setup(2);
        be
    }

    /// The retransmission-timer events in the queue, as `(time, flow,
    /// generation)`, in pop order.
    fn queued_timers(be: &HtsimBackend) -> Vec<(Time, u32, u32)> {
        let mut queue = be.s.queue.clone();
        std::iter::from_fn(|| queue.pop())
            .filter_map(|(t, ev)| match ev {
                Ev::Timeout { flow, gen } => Some((t, flow, gen)),
                _ => None,
            })
            .collect()
    }

    /// A packet gives its pool slot back at every fate: a congestion
    /// drop, an NDP trim (which keeps the slot until the trimmed header
    /// arrives), a down port, a loss on the wire, and a late duplicate
    /// of a delivered flow, which is ACKed. At the end every flow slot is
    /// free too: whatever named it let go.
    #[test]
    fn every_packet_fate_returns_its_slot() {
        let run = |cc, apply: &dyn Fn(&mut HtsimBackend)| {
            let (mut be, goal) = incast_on_switch(cc);
            let driver = atlahs_core::SimDriver::start(&goal, &mut be);
            apply(&mut be);
            let rep = driver.finish(&mut be).expect("no deadlock");
            assert_eq!(rep.completed, goal.total_tasks());
            be
        };

        let be = run(CcAlgo::Mprdma, &|_| ());
        assert!(be.net_stats().drops > 0, "{:?}", be.net_stats());
        assert_drained(&be, "congestion drop");

        let be = run(CcAlgo::Ndp, &|_| ());
        assert!(be.net_stats().trims > 0, "{:?}", be.net_stats());
        assert_drained(&be, "NDP trim");

        let down = PortFault { port: 3, start_ns: 5_000, end_ns: 40_000, kind: FaultKind::Down };
        let be = run(CcAlgo::Mprdma, &|be| be.inject_fault(down));
        assert!(be.net_stats().fault_drops > 0, "{:?}", be.net_stats());
        assert_drained(&be, "down port");

        let loss =
            LinkModel { core_loss_ppm: 10_000, edge_loss_ppm: 10_000, jitter: None, seed: 1 };
        let be = run(CcAlgo::Mprdma, &|be| be.set_link_model(loss));
        assert!(be.net_stats().stochastic_drops > 0, "{:?}", be.net_stats());
        assert_drained(&be, "loss:10000");

        // A copy of flow 0's first packet, offered after the run ended:
        // its flow is delivered, so the receiver only ACKs it.
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 64 << 10, 0);
        b.recv(1, 0, 64 << 10, 0);
        let topology = TopologyConfig::SingleSwitch { hosts: 2, link: LinkParams::default() };
        let mut be = HtsimBackend::new(HtsimConfig::new(topology, CcAlgo::Mprdma));
        Simulation::new(&b.build().unwrap()).run(&mut be).expect("no deadlock");
        assert!(be.s.flows[0].in_flight.is_none());
        // The copy names flow 0's slot: it is not free while the copy and
        // its ACK travel.
        assert_eq!(be.s.flow_free.pop(), Some(0));
        be.s.hold(0);
        let set = be.topo.route_set(&mut be.s.arena, &mut be.s.routes, 0, 1);
        let path = be.s.routes.route(set, 0);
        let (kind, wire) = (PktKind::Data, WIRE_MTU);
        let dup =
            Packet { flow: 0, idx: 0, hop: 0, kind, wire, ecn: false, rtx: true, ecmp: 0, path };
        let h = be.s.alloc_pkt(dup);
        let events = be.net_stats().internal_events;
        be.enqueue(path.of(&be.s.arena)[0], h);
        assert!(be.next_event().is_none(), "a late duplicate completes nothing");
        // Two hops and their transmissions for the copy, then for its ACK.
        assert_eq!(be.net_stats().internal_events - events, 8);
        assert_drained(&be, "late duplicate");
    }

    /// The matcher names a send until its recv is posted: a flow
    /// delivered before that keeps its slot, which the recv lets go of
    /// and the next send takes.
    #[test]
    fn a_recv_posted_after_delivery_keeps_the_slot_until_it_takes_it() {
        let mut be = pair(CcAlgo::Mprdma);
        let send = op(0, 0);
        be.send(send, 1, 64 << 10, 0);
        let events: Vec<Completion> = std::iter::from_fn(|| be.next_event()).collect();
        assert_eq!(events.last(), Some(&Completion::done(send, events[1].time)), "{events:?}");
        assert!(be.s.flows[0].in_flight.is_none(), "delivered");
        assert_eq!(be.s.flows[0].refs, 1, "the matcher names it");
        assert!(be.s.flow_free.is_empty());

        let recv = op(1, 0);
        let now = be.now();
        be.recv(recv, 0, 64 << 10, 0);
        assert!(be.s.flow_free == [0], "the recv took the send and let go of the slot");
        let events: Vec<Completion> = std::iter::from_fn(|| be.next_event()).collect();
        let done = Completion::done(recv, now + HOST_O);
        assert_eq!(events, [Completion::cpu_free(recv, now), done]);
        assert_drained(&be, "recv after delivery");

        be.send(op(0, 1), 1, 4096, 1);
        assert!(be.s.flows.len() == 1 && be.s.flow_free.is_empty(), "the next send took slot 0");
    }

    /// Timer events outlive their chain: backoff recovery leaves the
    /// superseded chain's event queued far out, and delivery leaves the
    /// last chain's. Neither holds the slot, so the next send takes it
    /// while they are still queued, and they must not touch the new flow:
    /// the run equals one where the new flow gets a slot of its own.
    #[test]
    fn a_stale_timer_of_a_reused_slot_leaves_the_new_flow_untouched() {
        let run = |reuse: bool| {
            let mut be = pair(CcAlgo::Mprdma);
            let to_host1 = be.s.ports.iter().position(|p| p.to_host == Some(1)).unwrap();
            let port = to_host1 as u32;
            be.inject_fault(PortFault { port, start_ns: 0, end_ns: 60_000, kind: FaultKind::Down });
            be.send(op(0, 0), 1, 64 << 10, 0);
            be.recv(op(1, 0), 0, 64 << 10, 0);
            let done = |c: &Completion| c.kind == atlahs_core::api::EventKind::Done;
            assert_eq!(std::iter::from_fn(|| be.next_event()).filter(done).take(2).count(), 2);
            // Generation 0 expired into backoff, recovery started 1,
            // delivery ended it.
            assert_eq!(be.s.flows[0].gen, 2);
            let timers = queued_timers(&be);
            assert!(timers.iter().all(|&(_, f, g)| f == 0 && g < 2), "{timers:?}");
            let stale = *timers.last().expect("a superseded event is queued");
            assert_eq!(stale.2, 0, "the first chain's event is the last to fire: {timers:?}");

            // Run to just before the first chain's event: the slot is
            // free, the stale event queued.
            be.calc(op(0, 1), stale.0 - 1_000 - be.now());
            assert_eq!(be.next_event().map(|c| c.time), Some(stale.0 - 1_000));
            assert!(be.s.flow_free == [0], "nothing names slot 0 but stale timers");
            if !reuse {
                be.s.flow_free.clear();
            }
            be.send(op(0, 2), 1, 64 << 10, 1);
            be.recv(op(1, 1), 0, 64 << 10, 1);
            assert_eq!(be.s.flows.len(), if reuse { 1 } else { 2 });
            let events: Vec<Completion> = std::iter::from_fn(|| be.next_event()).collect();
            assert!(events.last().unwrap().time > stale.0, "the stale event fired mid-flow");
            if !reuse {
                be.s.flow_free.push(0);
            }
            assert_drained(&be, if reuse { "reused slot" } else { "fresh slot" });
            (events, be.net_stats())
        };
        assert_eq!(run(true), run(false));
    }
}
