//! The packet engine against closed forms of its own model (§3.2): the
//! expected values come from store-and-forward arithmetic, not from
//! engine code.
//!
//! * One flow on an idle two-hop path: every hop serialises a packet in
//!   `⌈wire·8 / gbps⌉` ns and then adds its latency, the sender's packets
//!   leave the host back to back (the message fits the initial window),
//!   and the recv completes one host overhead after the last byte lands.
//! * An N→1 incast cannot beat the receiver's link: `N·bytes·8 / gbps`.

use atlahs_core::{SimReport, Simulation};
use atlahs_goal::GoalBuilder;
use atlahs_htsim::{CcAlgo, HtsimBackend, HtsimConfig, LinkParams, TopologyConfig};

/// Payload per packet, and the header every packet adds on the wire.
const MTU: u64 = 4096;
const HDR: u64 = 64;
/// Per-hop propagation latency (ns).
const LATENCY: u64 = 500;
/// Host overhead between the last byte landing and the recv completing.
const HOST_O: u64 = 200;

/// `senders` ranks each send `bytes` to rank 0 over one crossbar switch
/// whose links run at `gbps`.
fn fan_in(gbps: u64, senders: u32, bytes: u64) -> SimReport {
    let mut b = GoalBuilder::new(senders as usize + 1);
    for s in 1..=senders {
        b.send(s, 0, bytes, s);
        b.recv(0, s, bytes, s);
    }
    let goal = b.build().unwrap();
    let link = LinkParams { gbps, latency_ns: LATENCY };
    let topology = TopologyConfig::SingleSwitch { hosts: senders as usize + 1, link };
    let mut backend = HtsimBackend::new(HtsimConfig::new(topology, CcAlgo::Mprdma));
    Simulation::new(&goal).run(&mut backend).expect("no deadlock")
}

/// When the last of `bytes`, cut into packets that all leave the host
/// at time 0, has crossed `hops` store-and-forward links at `gbps`.
fn store_and_forward(bytes: u64, gbps: u64, hops: usize) -> u64 {
    let mut free = vec![0; hops]; // when each link next falls idle
    let mut last = 0;
    for i in 0..bytes.div_ceil(MTU) {
        let wire = (bytes - i * MTU).min(MTU) + HDR;
        let mut t = 0;
        for f in &mut free {
            t = t.max(*f) + (wire * 8).div_ceil(gbps);
            *f = t;
            t += LATENCY;
        }
        last = last.max(t);
    }
    last
}

/// A flow's initial window: one bandwidth-delay product, `⌊rtt·gbps/8⌋`
/// bytes, of the base RTT of a two-hop path — an MTU payload each way
/// out, a header each way back, rounded half up.
fn initial_window(gbps: u64) -> u64 {
    let serialisation = 2 * 8 * (MTU + HDR);
    let rtt = 4 * LATENCY + (2 * serialisation + gbps) / (2 * gbps);
    rtt * gbps / 8
}

#[test]
fn one_flow_on_an_idle_path_is_store_and_forward() {
    for gbps in [200, 100, 56] {
        for bytes in [1, MTU, MTU + 1, initial_window(gbps) - 1] {
            let want = store_and_forward(bytes, gbps, 2) + HOST_O;
            assert_eq!(fan_in(gbps, 1, bytes).makespan, want, "{bytes} B at {gbps} Gb/s");
        }
    }
    // The single-packet case spelled out: 65 B on the wire at 200 Gb/s
    // is 3 ns per hop.
    assert_eq!(fan_in(200, 1, 1).makespan, 2 * (3 + LATENCY) + HOST_O);
}

#[test]
fn incast_is_bounded_by_the_receiver_link() {
    for gbps in [200, 100, 56] {
        for (senders, bytes) in [(2, 1 << 20), (8, 256 << 10)] {
            let floor = (senders as u64 * bytes * 8).div_ceil(gbps);
            let rep = fan_in(gbps, senders, bytes);
            assert_eq!(rep.completed, 2 * senders as usize);
            assert!(rep.makespan >= floor, "{senders}x{bytes} B at {gbps} Gb/s: {rep:?}");
        }
    }
}
