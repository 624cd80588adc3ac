//! Transport laws: the packet engine's loss recovery against what the
//! algorithms it is named after do, not against its own past output.
//!
//! A retransmission repairs a loss. RFC 6298's timer and RFC 3522's
//! detection of spurious expiries let a sender resend roughly what the
//! fabric lost, so over every shape below:
//!
//! * **Law 1 (no invented losses).** `retransmissions ≤ 1.5·(drops +
//!   trims + fault_drops + stochastic_drops) + packets_sent / 100`: a
//!   run that loses nothing resends at most one packet in a hundred
//!   (probes of timers that expired under queueing), and a lossy run
//!   resends each loss about once.
//! * **Law 2 (recovery under random loss).** With every link dropping
//!   one packet in a hundred (`loss:10000`), `retransmissions ≤
//!   1.5·(drops + trims + stochastic_drops)`, with no slack, and the
//!   timers expire fewer times than packets are lost: `expiries < drops +
//!   trims + stochastic_drops`.
//!
//! The shapes are {`switch:16`, `ai-fattree:16:4`} × {incast, perm,
//! ring} × the four congestion controls × {ECMP, spray}. Integer
//! arithmetic only: `1.5·x` is checked as `2·rtx ≤ 3·x`.

use atlahs_core::SimDriver;
use atlahs_goal::{GoalBuilder, GoalSchedule};
use atlahs_htsim::{
    CcAlgo, HtsimBackend, HtsimConfig, LinkModelSpec, LinkParams, NetStats, TopologyConfig,
};

const HOSTS: u32 = 16;

/// The two fabrics, labelled as the sweep spells them: one crossbar of
/// 100 Gb/s links, and a 200 Gb/s two-level fat tree of two 8-host ToRs
/// with 4:1 ToR→core oversubscription.
fn fabrics() -> [(&'static str, TopologyConfig); 2] {
    let ai = LinkParams { gbps: 200, latency_ns: 500 };
    [
        ("switch:16", TopologyConfig::SingleSwitch { hosts: 16, link: LinkParams::default() }),
        (
            "ai-fattree:16:4",
            TopologyConfig::FatTree2L {
                hosts: 16,
                hosts_per_tor: 8,
                uplinks_per_tor: 2,
                edge: ai,
                core: ai,
            },
        ),
    ]
}

/// Every other host sends `bytes` to host 0, `rounds` times.
fn incast(bytes: u64, rounds: u32) -> GoalSchedule {
    let mut b = GoalBuilder::new(HOSTS as usize);
    for round in 0..rounds {
        for s in 1..HOSTS {
            b.send(s, 0, bytes, round);
            b.recv(0, s, bytes, round);
        }
    }
    b.build().unwrap()
}

/// Host `h` sends `bytes` to host `h + 8`: on the fat tree every flow
/// crosses the oversubscribed core.
fn perm(bytes: u64, rounds: u32) -> GoalSchedule {
    let mut b = GoalBuilder::new(HOSTS as usize);
    for round in 0..rounds {
        for h in 0..HOSTS {
            let dst = (h + HOSTS / 2) % HOSTS;
            b.send(h, dst, bytes, round);
            b.recv(dst, h, bytes, round);
        }
    }
    b.build().unwrap()
}

/// A ring of `steps` steps: host `h` sends `bytes` to `h + 1` once it has
/// received the previous step's chunk from `h − 1`.
fn ring(bytes: u64, steps: u32) -> GoalSchedule {
    let mut b = GoalBuilder::new(HOSTS as usize);
    for h in 0..HOSTS {
        let (next, prev) = ((h + 1) % HOSTS, (h + HOSTS - 1) % HOSTS);
        let mut last_recv = None;
        for step in 0..steps {
            let send = b.send(h, next, bytes, step);
            if let Some(r) = last_recv {
                b.requires(h, send, r);
            }
            last_recv = Some(b.recv(h, prev, bytes, step));
        }
    }
    b.build().unwrap()
}

fn shapes() -> [(&'static str, GoalSchedule); 3] {
    [("incast", incast(512 << 10, 2)), ("perm", perm(1 << 20, 2)), ("ring", ring(256 << 10, 8))]
}

const CCS: [CcAlgo; 4] = [CcAlgo::Mprdma, CcAlgo::Swift, CcAlgo::Ndp, CcAlgo::Dctcp];

/// Run every shape, returning `(cell label, stats)`; `loss` is the
/// stochastic model's token, applied before the first task.
fn run_all(loss: Option<&str>) -> Vec<(String, NetStats)> {
    let model = loss.map(|tok| LinkModelSpec::parse(tok).unwrap().unwrap().model(1));
    let mut out = Vec::new();
    for (fabric, topology) in fabrics() {
        for (shape, goal) in shapes() {
            for cc in CCS {
                for spray in [false, true] {
                    let mut cfg = HtsimConfig::new(topology.clone(), cc);
                    cfg.spray = spray;
                    let mut backend = HtsimBackend::new(cfg);
                    let driver = SimDriver::start(&goal, &mut backend);
                    if let Some(model) = model {
                        backend.set_link_model(model);
                    }
                    let report = driver.finish(&mut backend).expect("no deadlock");
                    assert_eq!(report.completed, goal.total_tasks());
                    let routing = if spray { "spray" } else { "ecmp" };
                    out.push((format!("{fabric} {shape} {cc} {routing}"), backend.net_stats()));
                }
            }
        }
    }
    out
}

/// The cells that break a law, one line each with the values it reads
/// (every cell's line is printed; `--nocapture` shows them).
fn violations(cells: &[(String, NetStats)], law: impl Fn(&NetStats) -> bool) -> Vec<String> {
    let mut bad = Vec::new();
    for (cell, st) in cells {
        let line = format!(
            "{cell}: retransmissions {} and expiries {} for drops {} + trims {} + \
             fault_drops {} + stochastic_drops {} of {} packets",
            st.retransmissions,
            st.expiries,
            st.drops,
            st.trims,
            st.fault_drops,
            st.stochastic_drops,
            st.packets_sent
        );
        println!("{line}");
        if !law(st) {
            bad.push(line);
        }
    }
    bad
}

#[test]
fn law1_retransmissions_repair_losses() {
    let cells = run_all(None);
    assert!(cells.iter().any(|(_, st)| st.drops + st.trims > 0), "some shape must lose packets");
    let bad = violations(&cells, |st| {
        let lost = st.drops + st.trims + st.fault_drops + st.stochastic_drops;
        2 * st.retransmissions <= 3 * lost + st.packets_sent / 50
    });
    assert!(bad.is_empty(), "law 1 broken:\n{}", bad.join("\n"));
}

#[test]
fn law2_random_loss_is_resent_about_once() {
    let cells = run_all(Some("loss:10000"));
    let bad = violations(&cells, |st| {
        assert!(st.stochastic_drops > 0, "1% loss must bite: {st:?}");
        let lost = st.drops + st.trims + st.stochastic_drops;
        2 * st.retransmissions <= 3 * lost && st.expiries < lost
    });
    assert!(bad.is_empty(), "law 2 broken:\n{}", bad.join("\n"));
}
