//! The packet-level discrete-event engine and ATLAHS backend.
//!
//! Every GOAL send becomes a *flow*: the message is segmented into MTU-sized
//! packets that traverse output-queued switch ports with finite buffers,
//! ECN marking between `K_min` and `K_max`, tail drop (or NDP trimming), and
//! per-flow congestion control ([`crate::cc`]). ACKs travel the reverse
//! path and are themselves queued. A retransmission timer recovers losses.
//!
//! Operation semantics (paper §3.3): a send's compute stream is released
//! after the host overhead (200 ns); the send is *done* when the receiver
//! holds every byte of the message. A recv is done when its FIFO-matched
//! flow (by `(src, dst, tag)`, in issue order) has fully arrived.
//!
//! A flow is typed by its lifecycle. Until the receiver holds every byte,
//! its entry in the flow table owns a boxed `InFlight` — sender window,
//! receiver bitmap, timer chain — and a reader that wants per-packet
//! state has to go through that `Option`. Delivery takes the box; what
//! stays for the rest of the run is a 24-byte tombstone that can still
//! ACK a late duplicate, and that the flow's packets, timers and credits
//! still in the fabric find empty.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

use atlahs_core::matcher::MatchKey;
use atlahs_core::{Backend, Completion, Matcher, OpRef, Snapshot, Time};
use atlahs_eventq::{EventQueue, QueueStats};
use atlahs_goal::{Rank, Tag};

use crate::cc::{CcAlgo, CcState};
use crate::fault::{FaultKind, PortFault};
use crate::stochastic::LinkModel;
use crate::topology::{PathRef, PortSpec, RouteCache, Topology, TopologyConfig};

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
    /// Timeout events processed (retransmission-storm diagnostic).
    pub timeouts: u64,
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

    /// Retransmission-storm diagnostic: timeout *firings* per thousand
    /// flows. A handful is normal recovery; hundreds per flow means the
    /// RTO policy is re-injecting faster than the fabric drains.
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
    /// ECMP selector: the flow's salt, or a per-packet value when
    /// spraying.
    ecmp: u64,
    /// The packet's full route, resolved once at origination. Forwarding
    /// hops are then pure arena index arithmetic — no flow-record load,
    /// no route lookup, even when spraying.
    path: PathRef,
}

#[derive(Debug, Clone)]
enum Ev {
    TxDone(u32),
    Arrive {
        port: u32,
        pkt: Packet,
    },
    /// Retransmission timer for `flow`. `gen` identifies the timer chain:
    /// events whose generation no longer matches the flow's are stale
    /// (the chain was re-armed early on backoff recovery) and are dropped,
    /// as are all those of a delivered flow.
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
// up the enum's niche would grow them all.
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
    busy: bool,
    queue: VecDeque<Packet>,
    qbytes: u64,
    in_service: Option<Packet>,
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

/// A new flow's initial window and retransmission timeout at its host
/// port's `rate`: one bandwidth-delay product, `⌊base_rtt·rate / 800⌋`
/// bytes, and `3·base_rtt` plus ten MTUs' serialisation, rounded down.
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

/// Dense bitmaps for per-packet sender/receiver state.
///
/// Flows of ≤64 packets — the overwhelming majority in storage- and
/// collective-style workloads — keep their bits inline in the flow's
/// [`InFlight`] state: four bitmaps cost no allocation of their own and
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

/// One entry of the flow table, kept for the whole run because packets
/// name flows by index: the part a *delivered* flow still needs — a late
/// duplicate is ACKed along the reverse route — plus the state of a flow
/// that is not delivered yet.
#[derive(Clone)]
struct Flow {
    src: u32,
    dst: u32,
    /// Interned reverse route (resolved via [`PathRef::of`]).
    rpath: PathRef,
    /// `None` once the receiver holds every byte.
    in_flight: Option<Box<InFlight>>,
}

// The table holds every flow of the run; an entry stays a tombstone.
const _: () = assert!(std::mem::size_of::<Flow>() <= 32);

/// Everything a flow needs until it is delivered.
#[derive(Clone)]
struct InFlight {
    op: OpRef,
    bytes: u64,
    npkts: u32,
    /// Interned forward route.
    path: PathRef,
    /// ECMP salt; per-packet spray values derive from it.
    salt: u64,
    /// Current retransmission timeout (backs off exponentially while the
    /// flow makes no progress; see [`HtsimBackend::on_timeout`]).
    rto: u64,
    /// The RTO the flow started with; restored on ACK progress.
    rto_base: u64,
    /// Current timer-chain generation (see [`Ev::Timeout`]).
    timeout_gen: u32,
    cc: CcState,
    // sender state
    next_idx: u32,
    acked: Bitmap,
    inflight: u64,
    rtx: VecDeque<u32>,
    in_rtx: Bitmap,
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

impl InFlight {
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
    flows: Vec<Flow>,
    queue: EventQueue<Ev>,
    now: Time,
    rng: StdRng,
    matcher: Matcher<u32, (OpRef, Time)>,
    pacers: Vec<PullPacer>,
    stats: NetStats,
    /// Interned routes ([`Topology::route_ref`]): every [`PathRef`] held
    /// by a flow or a packet in this state indexes `arena`, which is why
    /// the arena and its lookup map are state and not a cache on the
    /// topology — a state restored into another backend must bring the
    /// routes its references point at.
    arena: Vec<u32>,
    routes: RouteCache,
    /// In-queue [`Ev::Fault`] events index into this table.
    faults: Vec<PortFault>,
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
                to_host: spec.to_host,
                is_core: spec.is_core,
                busy: false,
                queue: VecDeque::new(),
                qbytes: 0,
                in_service: None,
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
            queue: EventQueue::new(),
            now: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            matcher: Matcher::new(),
            pacers: vec![PullPacer { credits: VecDeque::new(), busy: false }; hosts],
            stats: NetStats::default(),
            arena: Vec::new(),
            routes: RouteCache::default(),
            faults: Vec::new(),
            model: LinkModel::default(),
        }
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

    /// Event-queue diagnostics: how pushes split across the O(1) lane,
    /// the timer wheel, and the overflow heap (perf tooling and tests).
    pub fn queue_stats(&self) -> QueueStats {
        self.s.queue.stats()
    }

    fn push(&mut self, t: Time, ev: Ev) {
        self.s.queue.push(t, ev);
    }

    // ---- port machinery ------------------------------------------------

    /// An injected fault killed this copy of `pkt`: mark a data packet
    /// for the retransmission split (a straggling duplicate of a
    /// delivered flow will never be resent).
    fn note_fault_loss(&mut self, pkt: &Packet) {
        if pkt.kind == PktKind::Data {
            if let Some(t) = self.s.flows[pkt.flow as usize].in_flight.as_mut() {
                t.fault_lost.set(pkt.idx);
            }
        }
    }

    fn enqueue(&mut self, port_id: u32, mut pkt: Packet) {
        if self.s.ports[port_id as usize].down {
            // Ingress blackhole: data, acks, and credits all die on the
            // down link; the retransmission timer recovers once the
            // window closes. No RNG draw — the ECN stream stays aligned
            // with a run where this packet was never offered.
            self.s.stats.fault_drops += 1;
            self.note_fault_loss(&pkt);
            return;
        }
        // One borrow of the port for the whole admission path (`rng`,
        // `stats`, and `cc` are disjoint fields of the state).
        let port = &mut self.s.ports[port_id as usize];
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
                    return;
                }
            }
        }
        port.qbytes += pkt.wire as u64;
        self.s.stats.max_queue_bytes = self.s.stats.max_queue_bytes.max(port.qbytes);
        port.queue.push_back(pkt);
        if !port.busy {
            self.start_tx(port_id);
        }
    }

    fn start_tx(&mut self, port_id: u32) {
        let (tx_ns, ok) = {
            let port = &mut self.s.ports[port_id as usize];
            if let Some(pkt) = port.queue.pop_front() {
                port.qbytes -= pkt.wire as u64;
                port.busy = true;
                let tx = if pkt.wire == WIRE_MTU {
                    port.tx_mtu
                } else if pkt.wire == HDR_BYTES {
                    port.tx_hdr
                } else {
                    tx_ns(port.rate, pkt.wire)
                };
                port.in_service = Some(pkt);
                (tx, true)
            } else {
                port.busy = false;
                (0, false)
            }
        };
        if ok {
            self.push(self.s.now + tx_ns, Ev::TxDone(port_id));
        }
    }

    fn on_tx_done(&mut self, port_id: u32) {
        let (pkt, mut latency, stoch) = {
            let port = &mut self.s.ports[port_id as usize];
            let pkt = port.in_service.take().expect("TxDone without packet");
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
            (pkt, port.latency, stoch)
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
                self.note_fault_loss(&pkt);
                self.start_tx(port_id);
                return;
            }
            let extra = model.jitter_ns(port_id, n);
            if extra > 0 {
                self.s.stats.jittered += 1;
                latency += extra;
            }
        }
        self.push(self.s.now + latency, Ev::Arrive { port: port_id, pkt });
        self.start_tx(port_id);
    }

    fn on_arrive(&mut self, port_id: u32, mut pkt: Packet) {
        if let Some(host) = self.s.ports[port_id as usize].to_host {
            self.host_receive(host, pkt);
            return;
        }
        // Forward through the switch: the packet carries its interned
        // route, so this is a single arena load — no flow access.
        pkt.hop += 1;
        let next = pkt.path.of(&self.s.arena)[pkt.hop as usize];
        self.enqueue(next, pkt);
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
        let f = &mut self.s.flows[fid as usize];
        let Some(t) = f.in_flight.as_mut() else { return };
        let payload = t.payload(idx);
        t.send_ts[idx as usize] = self.s.now;
        t.inflight += payload as u64;
        t.last_activity = self.s.now;
        // Clear the retransmission marker: if this copy is lost too,
        // the next timeout must be able to requeue the packet.
        let was_rtx = t.in_rtx.get(idx);
        if was_rtx {
            t.in_rtx.clear(idx);
        }
        // Attribute the retransmission: was the previous copy killed
        // by an injected fault, or by congestion/timeout noise?
        let was_fault_lost = t.fault_lost.get(idx);
        if was_fault_lost {
            t.fault_lost.clear(idx);
        }
        let (ecmp, path) = if self.cfg.spray {
            let ecmp = t.salt ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Resolve the sprayed route once; hops index into it.
            (ecmp, self.topo.route_ref(&mut self.s.arena, &mut self.s.routes, f.src, f.dst, ecmp))
        } else {
            (t.salt, t.path)
        };
        let pkt = Packet {
            flow: fid,
            idx,
            hop: 0,
            kind: PktKind::Data,
            wire: payload + HDR_BYTES,
            ecn: false,
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
        let port0 = pkt.path.of(&self.s.arena)[0];
        self.enqueue(port0, pkt);
    }

    /// Control packets (ACK/NACK/PULL) travel the reverse path, reusing
    /// the triggering packet's ECMP selector (symmetric spraying). This
    /// reads only what a delivered flow keeps.
    fn control_packet(&mut self, fid: u32, idx: u32, kind: PktKind, ecn: bool, ecmp: u64) {
        let f = &self.s.flows[fid as usize];
        let path = if self.cfg.spray {
            self.topo.route_ref(&mut self.s.arena, &mut self.s.routes, f.dst, f.src, ecmp)
        } else {
            f.rpath
        };
        let pkt = Packet { flow: fid, idx, hop: 0, kind, wire: HDR_BYTES, ecn, ecmp, path };
        let port0 = path.of(&self.s.arena)[0];
        self.enqueue(port0, pkt);
    }

    // ---- receiver ------------------------------------------------------

    fn host_receive(&mut self, host: u32, pkt: Packet) {
        let now = self.s.now;
        let in_flight = self.s.flows[pkt.flow as usize].in_flight.as_mut();
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
                self.control_packet(pkt.flow, pkt.idx, PktKind::Ack, pkt.ecn, pkt.ecmp);
                if self.cfg.cc == CcAlgo::Ndp {
                    self.add_pull_credit(host, pkt.flow);
                }
                if all_in {
                    self.deliver(pkt.flow);
                }
            }
            PktKind::Trimmed => {
                self.control_packet(pkt.flow, pkt.idx, PktKind::Nack, false, pkt.ecmp);
                self.add_pull_credit(host, pkt.flow);
            }
            PktKind::Ack => {
                let Some(t) = in_flight.filter(|t| !t.acked.get(pkt.idx)) else { return };
                t.acked.set(pkt.idx);
                t.inflight = t.inflight.saturating_sub(t.payload(pkt.idx) as u64);
                let rtt = now.saturating_sub(t.send_ts[pkt.idx as usize]).max(1);
                t.cc.on_ack(now, rtt, pkt.ecn);
                t.last_activity = now;
                if t.rto != t.rto_base {
                    // Backoff recovery: restore the base RTO and re-arm
                    // the timer promptly — the pending timeout event sits
                    // up to 64x base in the future and would delay
                    // detection of a new stall by that much. Bumping the
                    // generation invalidates the old chain.
                    t.rto = t.rto_base;
                    t.timeout_gen = t.timeout_gen.wrapping_add(1);
                    let ev = Ev::Timeout { flow: pkt.flow, gen: t.timeout_gen };
                    self.s.queue.push(now + t.rto_base, ev);
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
                if let Some(t) = &self.s.flows[fid as usize].in_flight {
                    self.control_packet(fid, 0, PktKind::Pull, false, t.salt);
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
    /// itself). Taking the in-flight state is what cancels the
    /// retransmission-timer chain and turns away whatever of the flow is
    /// still in the fabric; dropping it gives the buffers back.
    fn deliver(&mut self, fid: u32) {
        let t = self.s.flows[fid as usize].in_flight.take().expect("a flow is delivered once");
        self.push(self.s.now, Ev::Emit { op: t.op, done: true });
        if let Some(r) = t.recv_op {
            self.push(self.s.now + HOST_O, Ev::Emit { op: r, done: true });
        }
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
        // Lazily cancelled timers (delivered flows, superseded chains)
        // die here without touching anything.
        let in_flight = self.s.flows[fid as usize].in_flight.as_mut();
        let Some(t) = in_flight.filter(|t| gen == t.timeout_gen) else { return };
        self.s.stats.timeouts += 1;
        let next = if now.saturating_sub(t.last_activity) < t.rto {
            t.last_activity + t.rto
        } else {
            // Timeout fires: requeue every sent-but-unacked packet.
            t.cc.on_timeout();
            for i in 0..t.next_idx {
                if !t.acked.get(i) && !t.in_rtx.get(i) {
                    t.in_rtx.set(i);
                    t.rtx.push_back(i);
                }
            }
            t.inflight = 0;
            t.last_activity = now;
            // Exponential backoff (capped at 64x base): a static RTO
            // sized from the *base* RTT livelocks once queueing delay
            // exceeds it — every flow times out each RTO, re-injects
            // its whole window, and the storm sustains the very
            // congestion that caused it.
            t.rto = t.rto.saturating_mul(2).min(t.rto_base.saturating_mul(64));
            now + t.rto
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
        let fid = self.s.flows.len() as u32;
        self.s.stats.flows += 1;
        let (rpath, mut t) = self.make_flow(op, dst, bytes);
        t.recv_op = self.s.matcher.offer_send(key, fid).map(|(recv_op, _)| recv_op);
        let rto = t.rto;
        self.s.flows.push(Flow { src: op.rank, dst, rpath, in_flight: Some(Box::new(t)) });
        if op.rank == dst {
            // Intra-node message: no fabric traversal (Stage 4 normally
            // replaces these with calcs; handle gracefully if present).
            self.push(self.s.now + HOST_O, Ev::LocalDone { flow: fid });
        } else {
            self.try_send(fid);
            self.push(self.s.now + rto, Ev::Timeout { flow: fid, gen: 0 });
        }
    }

    fn recv(&mut self, op: OpRef, src: Rank, _bytes: u64, tag: Tag) {
        let key: MatchKey = (src, op.rank, tag);
        self.push(self.s.now, Ev::Emit { op, done: false });
        if let Some(fid) = self.s.matcher.offer_recv(key, (op, self.s.now)) {
            match self.s.flows[fid as usize].in_flight.as_mut() {
                Some(t) => t.recv_op = Some(op),
                None => self.push(self.s.now + HOST_O, Ev::Emit { op, done: true }),
            }
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
    /// The reverse route and the in-flight state of a new flow; an
    /// intra-node one gets no routes, no salt draw and no timer.
    fn make_flow(&mut self, op: OpRef, dst: Rank, bytes: u64) -> (PathRef, InFlight) {
        let bytes = bytes.max(1);
        let npkts = u32::try_from(bytes.div_ceil(MTU as u64)).unwrap_or_else(|_| {
            panic!("a {bytes} B message is over MAX_MESSAGE_BYTES = {MAX_MESSAGE_BYTES} B")
        });
        let (path, rpath, salt, rto, cc) = if op.rank == dst {
            (PathRef::EMPTY, PathRef::EMPTY, 0, 0, CcState::new(self.cfg.cc, MTU, 1, 1))
        } else {
            let salt = self.s.rng.random::<u64>();
            let path =
                self.topo.route_ref(&mut self.s.arena, &mut self.s.routes, op.rank, dst, salt);
            let rpath =
                self.topo.route_ref(&mut self.s.arena, &mut self.s.routes, dst, op.rank, salt);
            let base_rtt = self.topo.base_rtt(path.of(&self.s.arena), rpath.of(&self.s.arena), MTU);
            let (bdp, rto) = bdp_and_rto(self.s.ports[op.rank as usize].rate, base_rtt);
            let cc = CcState::new(self.cfg.cc, MTU, base_rtt, bdp);
            (path, rpath, salt, rto, cc)
        };
        let in_flight = InFlight {
            op,
            bytes,
            npkts,
            path,
            salt,
            rto,
            rto_base: rto.max(1),
            timeout_gen: 0,
            cc,
            next_idx: 0,
            acked: Bitmap::new(npkts),
            inflight: 0,
            rtx: VecDeque::new(),
            in_rtx: Bitmap::new(npkts),
            fault_lost: Bitmap::new(npkts),
            send_ts: vec![0; npkts as usize].into_boxed_slice(),
            last_activity: self.s.now,
            rcvd: Bitmap::new(npkts),
            rcvd_count: 0,
            recv_op: None,
        };
        (rpath, in_flight)
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
