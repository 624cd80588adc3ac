//! # atlahs-htsim
//!
//! The packet-level network backend of the toolchain (the paper's "ATLAHS
//! htsim" configuration): an output-queued, ECN-capable packet simulator
//! with fat-tree topologies, ECMP routing, and the congestion-control
//! algorithms the paper's case studies compare — **MPRDMA**, **Swift**, and
//! **NDP** (plus DCTCP as a reference).
//!
//! Packet-level simulation is what enables the statistics message-level
//! models cannot see: packet drops, trims, queue occupancy, per-message
//! completion times (Fig. 11 and Fig. 12 of the paper are regenerated from
//! [`HtsimBackend::net_stats`] and, for per-message completion times, the
//! call log of an [`atlahs_core::probe::Recorded`] wrapper).
//!
//! ```
//! use atlahs_core::Simulation;
//! use atlahs_goal::GoalBuilder;
//! use atlahs_htsim::{CcAlgo, HtsimBackend, HtsimConfig, TopologyConfig};
//!
//! let mut b = GoalBuilder::new(2);
//! b.send(0, 1, 64 * 1024, 0);
//! b.recv(1, 0, 64 * 1024, 0);
//! let goal = b.build().unwrap();
//!
//! let cfg = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
//! let mut backend = HtsimBackend::new(cfg);
//! let report = Simulation::new(&goal).run(&mut backend).unwrap();
//! assert!(report.makespan > 0);
//! ```

#![forbid(unsafe_code)]

pub mod cc;
pub mod engine;
pub mod fault;
pub mod stochastic;
pub mod topology;

pub use cc::{CcAlgo, CcState};
pub use engine::{HtsimBackend, HtsimConfig, NetStats, MAX_MESSAGE_BYTES};
pub use fault::{select_fault_ports, FaultKind, PortFault};
pub use stochastic::{LinkModel, LinkModelSpec, LossTier};
pub use topology::{LinkParams, PathRef, Topology, TopologyConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::probe::Recorded;
    use atlahs_core::{SimDriver, SimReport, Simulation};
    use atlahs_goal::{GoalBuilder, GoalSchedule};

    fn run_with(goal: &GoalSchedule, cfg: HtsimConfig) -> (SimReport, HtsimBackend) {
        let mut backend = HtsimBackend::new(cfg);
        let report = Simulation::new(goal).run(&mut backend).expect("no deadlock");
        (report, backend)
    }

    /// Run `goal` with `apply`'s overrides in place before the first task
    /// issues: a fault or link model that holds for the whole run.
    fn run_overridden(
        goal: &GoalSchedule,
        cfg: HtsimConfig,
        apply: impl FnOnce(&mut HtsimBackend),
    ) -> (SimReport, HtsimBackend) {
        let mut backend = HtsimBackend::new(cfg);
        let driver = SimDriver::start(goal, &mut backend);
        apply(&mut backend);
        let report = driver.finish(&mut backend).expect("no deadlock");
        (report, backend)
    }

    fn ping(bytes: u64) -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, bytes, 0);
        b.recv(1, 0, bytes, 0);
        b.build().unwrap()
    }

    fn small_switch(cc: CcAlgo) -> HtsimConfig {
        HtsimConfig::new(
            TopologyConfig::SingleSwitch { hosts: 16, link: LinkParams::default() },
            cc,
        )
    }

    #[test]
    fn single_packet_ping_latency_is_sane() {
        // 100 Gb/s = 12.5 B/ns; packet = 4096+64 B -> ~333 ns per hop;
        // 2 hops + 2x500 ns propagation + host overheads.
        let (rep, _) = run_with(&ping(4096), small_switch(CcAlgo::Mprdma));
        assert!(rep.makespan > 1_600, "{}", rep.makespan);
        assert!(rep.makespan < 4_000, "{}", rep.makespan);
    }

    #[test]
    fn large_transfer_approaches_line_rate() {
        let bytes = 8 << 20; // 8 MiB
        let (rep, _) = run_with(&ping(bytes as u64), small_switch(CcAlgo::Mprdma));
        // Ideal: 8 MiB / 12.5 B/ns ≈ 671 µs + header overhead (64/4096 ≈ 1.6%).
        let ideal = (bytes as f64 / 12.5) as u64;
        assert!(rep.makespan > ideal, "can't beat line rate: {}", rep.makespan);
        assert!(
            rep.makespan < ideal * 13 / 10,
            "within 30% of line rate: {} vs {ideal}",
            rep.makespan
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let goal = ping(1 << 20);
        let (r1, _) = run_with(&goal, small_switch(CcAlgo::Swift));
        let (r2, _) = run_with(&goal, small_switch(CcAlgo::Swift));
        assert_eq!(r1.makespan, r2.makespan);
    }

    fn incast(n: u32, bytes: u64) -> GoalSchedule {
        // ranks 1..=n all send to rank 0.
        let mut b = GoalBuilder::new(n as usize + 1);
        for s in 1..=n {
            b.send(s, 0, bytes, s);
            b.recv(0, s, bytes, s);
        }
        b.build().unwrap()
    }

    #[test]
    fn incast_completes_under_all_cc() {
        for cc in [CcAlgo::Mprdma, CcAlgo::Swift, CcAlgo::Ndp, CcAlgo::Dctcp] {
            let goal = incast(8, 256 * 1024);
            let (rep, backend) = run_with(&goal, small_switch(cc));
            assert_eq!(rep.completed, goal.total_tasks(), "{cc}");
            // 8 x 256 KiB into one 100 Gb/s link: >= 2 MiB / 12.5 B/ns.
            assert!(rep.makespan > 150_000, "{cc}: {}", rep.makespan);
            let st = backend.net_stats();
            assert!(st.packets_sent >= 8 * 64, "{cc}");
        }
    }

    #[test]
    fn ndp_trims_instead_of_dropping() {
        let mut cfg = small_switch(CcAlgo::Ndp);
        cfg.queue_bytes = 64 * 1024; // tiny buffers force overflow
        let goal = incast(8, 512 * 1024);
        let (_, backend) = run_with(&goal, cfg);
        let st = backend.net_stats();
        assert!(st.trims > 0, "incast with tiny buffers must trim: {st:?}");
        assert_eq!(st.drops, 0, "NDP never drops data packets");
    }

    #[test]
    fn ecn_marks_appear_under_congestion() {
        let mut cfg = small_switch(CcAlgo::Mprdma);
        cfg.queue_bytes = 256 * 1024;
        let goal = incast(8, 512 * 1024);
        let (_, backend) = run_with(&goal, cfg);
        assert!(backend.net_stats().ecn_marks > 0);
    }

    fn permutation(hosts: u32, bytes: u64) -> GoalSchedule {
        let mut b = GoalBuilder::new(hosts as usize);
        for h in 0..hosts {
            let dst = (h + hosts / 2) % hosts;
            b.send(h, dst, bytes, h);
            b.recv(dst, h, bytes, h);
        }
        b.build().unwrap()
    }

    #[test]
    fn oversubscription_slows_permutation() {
        // ECMP collisions already degrade the fully provisioned case, so
        // the oversubscribed run is compared against the contention-free
        // wire time: 4 flows forced through one uplink cannot beat 4x the
        // line-rate transfer, and must be strictly slower than full
        // provisioning.
        let goal = permutation(16, 1 << 20);
        let full = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
        let over =
            HtsimConfig::new(TopologyConfig::fat_tree_oversubscribed(16, 4, 4), CcAlgo::Mprdma);
        let (r_full, _) = run_with(&goal, full);
        let (r_over, _) = run_with(&goal, over);
        let wire_ns = ((1u64 << 20) as f64 / 12.5) as u64;
        assert!(
            r_over.makespan > 4 * wire_ns,
            "4 flows through one uplink: {} vs 4x wire {}",
            r_over.makespan,
            4 * wire_ns
        );
        assert!(r_over.makespan > r_full.makespan);
    }

    #[test]
    fn intra_tor_traffic_unaffected_by_oversubscription() {
        // hosts 0 and 1 share a ToR: no core crossing.
        let goal = ping(1 << 20);
        let full = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
        let over =
            HtsimConfig::new(TopologyConfig::fat_tree_oversubscribed(16, 4, 4), CcAlgo::Mprdma);
        let (r_full, _) = run_with(&goal, full);
        let (r_over, _) = run_with(&goal, over);
        assert_eq!(r_full.makespan, r_over.makespan);
    }

    #[test]
    fn collective_runs_on_packet_backend() {
        use atlahs_collectives::{mpi, CollParams};
        let ranks: Vec<u32> = (0..8).collect();
        let mut b = GoalBuilder::new(8);
        mpi::allreduce_ring(&mut b, &ranks, 1 << 18, 0, &CollParams::default());
        let goal = b.build().unwrap();
        let cfg = HtsimConfig::new(TopologyConfig::fat_tree(8, 4), CcAlgo::Mprdma);
        let (rep, backend) = run_with(&goal, cfg);
        assert_eq!(rep.completed, goal.total_tasks());
        assert!(backend.net_stats().drops == 0, "no drops expected at this load");
    }

    #[test]
    fn drops_recovered_by_timeout() {
        // Non-NDP with tiny buffers: drops happen, RTO must recover them.
        let mut cfg = small_switch(CcAlgo::Dctcp);
        cfg.queue_bytes = 32 * 1024;
        let goal = incast(8, 256 * 1024);
        let (rep, backend) = run_with(&goal, cfg);
        assert_eq!(rep.completed, goal.total_tasks());
        assert!(backend.net_stats().drops > 0, "expected drops with 32 KiB buffers");
    }

    #[test]
    fn local_send_completes_without_network() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 0, 4096, 0);
        b.recv(0, 0, 4096, 0);
        let goal = b.build().unwrap();
        let (rep, backend) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        assert_eq!(rep.completed, 2);
        assert_eq!(backend.net_stats().packets_sent, 0);
    }

    /// Intra-node sends end in the same `deliver` as fabric flows. The
    /// send is done one host overhead after it was issued; a recv matched
    /// by then one more overhead later, a recv posted after delivery one
    /// overhead after its own issue.
    #[test]
    fn local_flow_completion_times_in_either_issue_order() {
        use atlahs_core::api::EventKind;
        use atlahs_core::{Backend, OpRef};
        use atlahs_goal::TaskId;
        let (send, recv) = (OpRef::new(0, TaskId(0)), OpRef::new(0, TaskId(1)));
        // The `Done` times of (send, recv), issuing through `issue` and,
        // when `late_recv` is set, posting the recv at t = 1000.
        let done_times = |issue: &dyn Fn(&mut HtsimBackend), late_recv: bool| {
            let mut b = HtsimBackend::new(small_switch(CcAlgo::Mprdma));
            b.simulation_setup(2);
            issue(&mut b);
            let (mut send_done, mut recv_done) = (None, None);
            while let Some(c) = b.next_event() {
                match (c.kind, c.op) {
                    (EventKind::Done, op) if op == send => send_done = Some(c.time),
                    (EventKind::Done, op) if op == recv => recv_done = Some(c.time),
                    (EventKind::Done, _) if late_recv => b.recv(recv, 0, 4096, 7),
                    _ => {}
                }
            }
            assert_eq!(b.net_stats().packets_sent, 0);
            (send_done.unwrap(), recv_done.unwrap())
        };
        let send_first = |b: &mut HtsimBackend| {
            b.send(send, 0, 4096, 7);
            b.recv(recv, 0, 4096, 7);
        };
        let recv_first = |b: &mut HtsimBackend| {
            b.recv(recv, 0, 4096, 7);
            b.send(send, 0, 4096, 7);
        };
        let send_then_wait = |b: &mut HtsimBackend| {
            b.send(send, 0, 4096, 7);
            b.calc(OpRef::new(1, TaskId(0)), 1000);
        };
        assert_eq!(done_times(&send_first, false), (200, 400));
        assert_eq!(done_times(&recv_first, false), (200, 400));
        assert_eq!(done_times(&send_then_wait, true), (200, 1200));
    }

    #[test]
    fn swift_and_mprdma_similar_on_uncongested_path() {
        let goal = ping(1 << 20);
        let (a, _) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let (b, _) = run_with(&goal, small_switch(CcAlgo::Swift));
        let ratio = a.makespan as f64 / b.makespan as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "uncongested: CC choice should not matter much ({} vs {})",
            a.makespan,
            b.makespan
        );
    }

    /// Regression: a retransmitted packet that is dropped *again* must be
    /// requeued by the next timeout. (The `in_rtx` marker used to stay
    /// set after the retransmission was sent, so a twice-dropped packet
    /// could never be retried and its flow's timeout respawned forever.)
    #[test]
    fn repeatedly_dropped_packets_eventually_deliver() {
        // Brutal incast into 16 KiB buffers: many packets drop several
        // times. The run must still complete, with retransmissions
        // counted and simulated time bounded (no timeout livelock).
        let mut cfg = small_switch(CcAlgo::Mprdma);
        cfg.queue_bytes = 16 * 1024;
        let goal = incast(12, 256 * 1024);
        let (rep, backend) = run_with(&goal, cfg);
        assert_eq!(rep.completed, goal.total_tasks());
        let st = backend.net_stats();
        assert!(st.drops > 100, "this scenario must drop heavily: {st:?}");
        assert!(st.retransmissions > 0, "drops imply retransmissions: {st:?}");
        assert!(
            rep.makespan < 1_000_000_000,
            "timeout livelock: sim time exploded to {} ns",
            rep.makespan
        );
    }

    #[test]
    fn retransmissions_only_under_loss() {
        let (_, clean) = run_with(&ping(1 << 20), small_switch(CcAlgo::Mprdma));
        assert_eq!(clean.net_stats().retransmissions, 0);
        assert_eq!(clean.net_stats().drops, 0);
    }

    #[test]
    fn timeouts_stop_after_completion() {
        // Timeout events stop respawning once flows complete: the total
        // count stays within a small multiple of the flow count.
        let goal = incast(8, 64 * 1024);
        let (_, backend) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let st = backend.net_stats();
        assert!(st.timeouts <= 20 * st.flows, "timer events must be bounded per flow: {st:?}");
    }

    #[test]
    fn ndp_recovers_trims_via_nack_and_pull() {
        let mut cfg = small_switch(CcAlgo::Ndp);
        cfg.queue_bytes = 32 * 1024;
        let goal = incast(12, 256 * 1024);
        let (rep, backend) = run_with(&goal, cfg);
        assert_eq!(rep.completed, goal.total_tasks());
        let st = backend.net_stats();
        assert!(st.trims > 0);
        assert!(st.retransmissions > 0, "trimmed payloads are resent: {st:?}");
    }

    #[test]
    fn max_queue_stat_respects_capacity() {
        let mut cfg = small_switch(CcAlgo::Mprdma);
        cfg.queue_bytes = 128 * 1024;
        let goal = incast(8, 512 * 1024);
        let (_, backend) = run_with(&goal, cfg);
        let st = backend.net_stats();
        assert!(st.max_queue_bytes > 0);
        assert!(
            st.max_queue_bytes <= 128 * 1024 + 4160,
            "occupancy may exceed cap by at most one packet: {st:?}"
        );
    }

    #[test]
    fn spraying_removes_ecmp_collision_hotspots() {
        // Cross-ToR permutation on a fully provisioned fat tree: per-flow
        // ECMP suffers hash collisions (some uplink carries 2+ flows);
        // per-packet spraying spreads every flow over all uplinks and
        // approaches the contention-free wire time.
        let goal = permutation(16, 4 << 20);
        let wire_ns = ((4u64 << 20) as f64 / 12.5) as u64;
        let mk = |spray: bool| {
            let mut cfg = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
            cfg.spray = spray;
            cfg
        };
        let (hashed, _) = run_with(&goal, mk(false));
        let (sprayed, _) = run_with(&goal, mk(true));
        assert!(
            sprayed.makespan < hashed.makespan,
            "spraying must not be slower: {} vs {}",
            sprayed.makespan,
            hashed.makespan
        );
        assert!(
            (sprayed.makespan as f64) < wire_ns as f64 * 1.4,
            "sprayed permutation should run near line rate: {} vs wire {wire_ns}",
            sprayed.makespan
        );
    }

    #[test]
    fn spraying_is_deterministic_and_complete() {
        let goal = permutation(16, 1 << 20);
        let mut cfg = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
        cfg.spray = true;
        let (r1, b1) = run_with(&goal, cfg.clone());
        let (r2, _) = run_with(&goal, cfg);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.completed, goal.total_tasks());
        assert_eq!(b1.net_stats().drops, 0, "no drops expected when spread evenly");
    }

    #[test]
    fn event_core_stays_on_the_fast_tiers() {
        // The zero-allocation contract in steady state: packet events
        // (serialization, propagation, acks) live in the O(1) lane and
        // the wheel; only far-future timers and compute releases may
        // overflow into the heap tier.
        let goal = permutation(16, 4 << 20);
        let (_, backend) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let qs = backend.queue_stats();
        let total = qs.lane_pushes + qs.wheel_pushes + qs.heap_pushes;
        assert!(total > 10_000, "expected a packet-heavy run: {qs:?}");
        assert!(qs.heap_pushes * 100 <= total, "heap tier must stay <1% of pushes: {qs:?}");
    }

    // ---- fault injection --------------------------------------------

    /// A transient link-down window blackholes traffic mid-transfer; the
    /// retransmission machinery must deliver every byte once the window
    /// closes, and the run must end no earlier than the fault-free one.
    #[test]
    fn link_flap_recovers_and_slows_the_run() {
        let goal = ping(2 << 20);
        let (clean, _) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        // Port 0 is host 0's uplink: flap it squarely inside the transfer.
        let flap = PortFault { port: 0, start_ns: 20_000, end_ns: 80_000, kind: FaultKind::Down };
        let (faulty, backend) =
            run_overridden(&goal, small_switch(CcAlgo::Mprdma), |b| b.inject_fault(flap));
        assert_eq!(faulty.completed, goal.total_tasks(), "flap must be recovered");
        let st = backend.net_stats();
        assert!(st.fault_drops > 0, "the window must actually bite: {st:?}");
        assert!(st.retransmissions > 0, "blackholed packets are resent: {st:?}");
        assert!(
            faulty.makespan > clean.makespan,
            "a 60 µs outage cannot speed the run up: {} vs {}",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn degraded_link_slows_the_run_without_loss() {
        let goal = ping(2 << 20);
        let (clean, _) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        // Quarter bandwidth, 4x latency for most of the transfer.
        let degrade = PortFault {
            port: 0,
            start_ns: 0,
            end_ns: 1_000_000,
            kind: FaultKind::Degrade { bw_pct: 25, lat_pct: 400 },
        };
        let (faulty, backend) =
            run_overridden(&goal, small_switch(CcAlgo::Mprdma), |b| b.inject_fault(degrade));
        assert_eq!(faulty.completed, goal.total_tasks());
        assert_eq!(backend.net_stats().fault_drops, 0, "degradation never discards");
        assert!(
            faulty.makespan > clean.makespan * 2,
            "quarter rate must at least double the transfer: {} vs {}",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn degrade_window_end_restores_nominal_rate() {
        // A degrade window that closes before the transfer starts must
        // leave the port at nominal parameters: same makespan as clean.
        let goal = ping(1 << 20);
        let (clean, _) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let blip = PortFault {
            port: 0,
            start_ns: 0,
            end_ns: 1,
            kind: FaultKind::Degrade { bw_pct: 10, lat_pct: 1000 },
        };
        let (faulty, _) =
            run_overridden(&goal, small_switch(CcAlgo::Mprdma), |b| b.inject_fault(blip));
        assert_eq!(faulty.makespan, clean.makespan);
    }

    #[test]
    fn empty_fault_list_is_bit_identical_to_no_faults() {
        let goal = incast(8, 256 * 1024);
        let (a, ba) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        // Nothing injected between `start` and `finish`.
        let (b, bb) = run_overridden(&goal, small_switch(CcAlgo::Mprdma), |_| ());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(ba.net_stats(), bb.net_stats());
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let goal = incast(6, 512 * 1024);
        let mk = || {
            run_overridden(&goal, small_switch(CcAlgo::Ndp), |b| {
                b.inject_fault(PortFault {
                    port: 6, // sender 6's uplink into the switch
                    start_ns: 50_000,
                    end_ns: 120_000,
                    kind: FaultKind::Down,
                })
            })
        };
        let (r1, b1) = mk();
        let (r2, b2) = mk();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(b1.net_stats(), b2.net_stats());
        assert!(b1.net_stats().fault_drops > 0);
    }

    // ---- checkpoint / restore ---------------------------------------

    /// Pause `goal` at three bounds, checkpoint, finish, restore and
    /// finish again: both finishes must match the straight run's
    /// makespan, statistics and flow records. `apply` is applied before
    /// the first task of every run. Returns the straight run.
    fn assert_resumes_bit_identically(
        goal: &GoalSchedule,
        cfg: &HtsimConfig,
        apply: impl Fn(&mut HtsimBackend),
    ) -> Recorded<HtsimBackend> {
        use atlahs_core::{RunState, Snapshot};
        let start = || {
            let mut b = Recorded::new(HtsimBackend::new(cfg.clone()));
            let driver = SimDriver::start(goal, &mut b);
            apply(b.inner_mut());
            (driver, b)
        };
        let (driver, mut sb) = start();
        let straight = driver.finish(&mut sb).expect("no deadlock");
        let want = (straight.makespan, sb.inner().net_stats(), sb.flows());
        for bound in [1, 50_000, straight.makespan / 2] {
            let (mut driver, mut b) = start();
            assert_eq!(driver.run_until(&mut b, bound).unwrap(), RunState::Paused);
            let snap = b.checkpoint();
            let fork_driver = driver.clone();
            let original = driver.finish(&mut b).unwrap().makespan;
            assert_eq!((original, b.inner().net_stats(), b.flows()), want, "bound {bound}");

            b.restore(&snap);
            let fork = fork_driver.finish(&mut b).unwrap().makespan;
            assert_eq!((fork, b.inner().net_stats(), b.flows()), want, "fork at {bound}");
        }
        sb
    }

    /// Pause → checkpoint → resume must be byte-identical to running
    /// straight through, including the RNG-driven parts (ECN marking,
    /// ECMP salts) and per-flow records — on a congested, lossy run.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut cfg = small_switch(CcAlgo::Mprdma);
        cfg.queue_bytes = 64 * 1024; // force drops + ECN draws
        assert_resumes_bit_identically(&incast(8, 256 * 1024), &cfg, |_| ());
    }

    /// Checkpoint/resume composes with fault windows already in flight:
    /// pausing *inside* a down window and restoring must replay the
    /// recovery byte-for-byte.
    #[test]
    fn checkpoint_resume_inside_a_fault_window() {
        use atlahs_core::{RunState, Snapshot};
        let goal = ping(2 << 20);
        let cfg = small_switch(CcAlgo::Mprdma);
        let flap = PortFault { port: 0, start_ns: 20_000, end_ns: 80_000, kind: FaultKind::Down };
        let (straight, sb) = run_overridden(&goal, cfg.clone(), |b| b.inject_fault(flap));
        assert!(sb.net_stats().fault_drops > 0);

        let mut b = HtsimBackend::new(cfg);
        let mut driver = SimDriver::start(&goal, &mut b);
        b.inject_fault(flap);
        assert_eq!(driver.run_until(&mut b, 50_000).unwrap(), RunState::Paused);
        let snap = b.checkpoint();
        let fork_driver = driver.clone();
        assert!(driver.finish(&mut b).is_ok());

        b.restore(&snap);
        let fork = fork_driver.finish(&mut b).unwrap();
        assert_eq!(fork.makespan, straight.makespan);
        assert_eq!(b.net_stats(), sb.net_stats());
    }

    /// A 2 MiB ping plus a pause-point clock: the driver can only pause at
    /// completion events, and a bare ping emits none between the host
    /// overhead and the flow finish — so rank 2 runs a chain of 5 µs calcs.
    fn clocked_ping() -> GoalSchedule {
        let mut b = GoalBuilder::new(3);
        b.send(0, 1, 2 << 20, 0);
        b.recv(1, 0, 2 << 20, 0);
        let mut prev = None;
        for _ in 0..6 {
            let c = b.calc(2, 5_000);
            if let Some(p) = prev {
                b.requires(2, c, p);
            }
            prev = Some(c);
        }
        b.build().unwrap()
    }

    /// Branch override: restoring one checkpoint twice — once clean, once
    /// with an injected fault — yields a clean continuation identical to
    /// the straight-through run and a faulted continuation identical to a
    /// fresh run that injects the same window at the same pause point.
    #[test]
    fn injected_fault_branch_matches_straight_through_injection() {
        use atlahs_core::{RunState, Snapshot};
        let goal = clocked_ping();
        let cfg = small_switch(CcAlgo::Mprdma);
        let (clean, _) = run_with(&goal, cfg.clone());
        let window = PortFault { port: 0, start_ns: 30_000, end_ns: 90_000, kind: FaultKind::Down };

        // Reference: fresh run, pause at 25 µs, inject, run to completion.
        let mut rb = HtsimBackend::new(cfg.clone());
        let mut rd = SimDriver::start(&goal, &mut rb);
        assert_eq!(rd.run_until(&mut rb, 25_000).unwrap(), RunState::Paused);
        rb.inject_fault(window);
        let reference = rd.finish(&mut rb).unwrap();
        assert!(rb.net_stats().fault_drops > 0, "the injected window must bite");
        assert!(reference.makespan > clean.makespan);

        // Branched: one prefix, one checkpoint, two continuations.
        let mut b = HtsimBackend::new(cfg);
        let mut driver = SimDriver::start(&goal, &mut b);
        assert_eq!(driver.run_until(&mut b, 25_000).unwrap(), RunState::Paused);
        let snap = b.checkpoint();

        let faulted_driver = driver.clone();
        let clean_branch = driver.finish(&mut b).unwrap();
        assert_eq!(clean_branch.makespan, clean.makespan);

        b.restore(&snap);
        b.inject_fault(window);
        let faulted_branch = faulted_driver.finish(&mut b).unwrap();
        assert_eq!(faulted_branch.makespan, reference.makespan);
        assert_eq!(b.net_stats(), rb.net_stats());
    }

    // ---- per-packet stochastic link models ---------------------------

    fn loss_model(ppm: u32, seed: u64) -> LinkModel {
        LinkModel { core_loss_ppm: ppm, edge_loss_ppm: ppm, jitter: None, seed }
    }

    #[test]
    fn inactive_link_model_is_bit_identical_and_draw_free() {
        let goal = incast(8, 256 * 1024);
        let (a, ba) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let (b, bb) = run_overridden(&goal, small_switch(CcAlgo::Mprdma), |b| {
            b.set_link_model(LinkModel::default()) // explicit inactive model
        });
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(ba.net_stats(), bb.net_stats());
        assert_eq!(ba.net_stats().stochastic_draws, 0, "no model ⇒ no draws consumed");
        assert_eq!(ba.net_stats().stochastic_drops, 0);
    }

    #[test]
    fn stochastic_loss_bites_recovers_and_reruns_identically() {
        let goal = ping(2 << 20);
        let (clean, cb) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let lossy = |model: LinkModel| {
            run_overridden(&goal, small_switch(CcAlgo::Mprdma), |b| b.set_link_model(model))
        };
        let (faulty, b1) = lossy(loss_model(50_000, 0xbeef)); // 5% everywhere
        assert_eq!(faulty.completed, goal.total_tasks(), "all bytes delivered under 5% loss");
        let st = b1.net_stats();
        assert!(st.stochastic_draws > 0);
        assert!(st.stochastic_drops > 0, "5% of a 500+ packet transfer must drop: {st:?}");
        assert!(st.rtx_fault_drop > 0, "stochastic losses are attributed to the fault: {st:?}");
        assert!(faulty.makespan > clean.makespan, "recovery takes time");
        // Same seed ⇒ bit-identical; different model seed ⇒ different run.
        let (again, b2) = lossy(loss_model(50_000, 0xbeef));
        assert_eq!(faulty.makespan, again.makespan);
        assert_eq!(b1.net_stats(), b2.net_stats());
        let (_, b3) = lossy(loss_model(50_000, 0xbef0));
        assert_ne!(b1.net_stats(), b3.net_stats(), "the model seed drives the draws");
        // The clean run is untouched by the layer existing.
        assert_eq!(cb.net_stats().stochastic_draws, 0);
    }

    /// RTO liveness: the window never shrinks below one MTU and the
    /// timer chain always re-arms, so every flow finishes under *any*
    /// loss rate < 100% — exercised here at a brutal 20% on every link
    /// (data, acks, and credits all dropping), on both a timeout-driven
    /// and the receiver-driven (NDP) recovery path.
    #[test]
    fn heavy_stochastic_loss_never_livelocks() {
        for cc in [CcAlgo::Mprdma, CcAlgo::Ndp] {
            let goal = incast(6, 128 * 1024);
            let model = loss_model(200_000, 7);
            let (rep, backend) =
                run_overridden(&goal, small_switch(cc), |b| b.set_link_model(model));
            assert_eq!(rep.completed, goal.total_tasks(), "{cc}: flows must complete");
            let st = backend.net_stats();
            assert!(st.stochastic_drops > 0, "{cc}: the model must bite: {st:?}");
            assert!(
                rep.makespan < 1_000_000_000,
                "{cc}: RTO livelock — sim time exploded to {} ns",
                rep.makespan
            );
            assert_eq!(
                st.retransmissions,
                st.rtx_timeout + st.rtx_fault_drop,
                "{cc}: every retransmission lands in exactly one bucket: {st:?}"
            );
            assert!(st.goodput_ppm() < 1_000_000, "{cc}: lossy runs burn overhead bytes");
        }
    }

    /// A delivered flow keeps nothing per packet, and its packets keep
    /// arriving: under spraying, shallow queues, random loss, a core link
    /// that goes down and jitter with a tail past the RTO, timeouts resend
    /// packets whose originals or ACKs are merely late, the packet that
    /// was really missing completes the flow, and the other copies land
    /// on a flow that is already delivered (133 of them in this run) or
    /// die on the way to it (6). They are ACKed along the reverse route
    /// and change nothing.
    #[test]
    fn late_packets_of_a_delivered_flow_are_acked_and_touch_nothing() {
        use atlahs_core::faultgen::Distribution;
        let mut b = GoalBuilder::new(16);
        for round in 0..4 {
            for h in 0..16 {
                let dst = (h + 4 + round) % 16;
                b.send(h, dst, 96 * 1024, round);
                b.recv(dst, h, 96 * 1024, round);
            }
        }
        let goal = b.build().unwrap();
        let mk = || {
            let topology = TopologyConfig::fat_tree(16, 4);
            let core = select_fault_ports(&Topology::build(topology.clone()), 1, 3)[0];
            let mut cfg = HtsimConfig::new(topology, CcAlgo::Mprdma);
            cfg.spray = true;
            cfg.queue_bytes = 16 * 1024;
            let jitter = Some(Distribution::Exp { mean_ns: 10_000 });
            run_overridden(&goal, cfg, |b| {
                b.set_link_model(LinkModel { jitter, ..loss_model(30_000, 0xface) });
                b.inject_fault(PortFault {
                    port: core,
                    start_ns: 10_000,
                    end_ns: 60_000,
                    kind: FaultKind::Down,
                });
            })
        };
        let (rep, b1) = mk();
        assert_eq!(rep.completed, goal.total_tasks());
        let st = b1.net_stats();
        assert!(st.fault_drops > 0 && st.stochastic_drops > 0 && st.drops > 0, "{st:?}");
        assert!(st.timeouts > 0, "{st:?}");
        assert_eq!(st.retransmissions, st.rtx_fault_drop + st.rtx_timeout, "{st:?}");
        let (again, b2) = mk();
        assert_eq!(rep, again);
        assert_eq!(st, b2.net_stats());
    }

    #[test]
    fn jitter_delays_but_never_drops() {
        use atlahs_core::faultgen::Distribution;
        let goal = ping(1 << 20);
        let (clean, _) = run_with(&goal, small_switch(CcAlgo::Mprdma));
        let model = LinkModel {
            core_loss_ppm: 0,
            edge_loss_ppm: 0,
            jitter: Some(Distribution::Exp { mean_ns: 2_000 }),
            seed: 3,
        };
        let (jit, backend) =
            run_overridden(&goal, small_switch(CcAlgo::Mprdma), |b| b.set_link_model(model));
        assert_eq!(jit.completed, goal.total_tasks());
        let st = backend.net_stats();
        assert!(st.jittered > 0, "exp(2 µs) jitter must perturb timestamps: {st:?}");
        assert_eq!(st.stochastic_drops, 0, "pure jitter never drops");
        assert_eq!(st.retransmissions, 0, "jitter alone must not trigger spurious RTOs: {st:?}");
        assert!(
            jit.makespan > clean.makespan,
            "per-packet delays accumulate: {} vs {}",
            jit.makespan,
            clean.makespan
        );
    }

    /// The acceptance criterion of the stochastic layer: a lossy run
    /// checkpointed mid-loss, restored, and finished is byte-identical
    /// to the straight-through run — the per-port draw counters travel
    /// in the snapshot.
    #[test]
    fn checkpoint_resume_mid_loss_is_bit_identical() {
        use atlahs_core::faultgen::Distribution;
        let model = LinkModel {
            core_loss_ppm: 30_000,
            edge_loss_ppm: 30_000,
            jitter: Some(Distribution::Uniform { max_ns: 1_500 }),
            seed: 0xf00d,
        };
        let cfg = small_switch(CcAlgo::Mprdma);
        let sb = assert_resumes_bit_identically(&incast(8, 256 * 1024), &cfg, |b| {
            b.set_link_model(model)
        });
        assert!(sb.inner().net_stats().stochastic_drops > 0, "the scenario must be lossy");
    }

    /// Branch override: restoring one checkpoint twice — once clean,
    /// once with a stochastic model switched on mid-run — yields a
    /// clean continuation identical to the straight-through run and a
    /// lossy continuation identical to a fresh run applying the same
    /// override at the same pause point.
    #[test]
    fn set_link_model_branch_matches_straight_through_override() {
        use atlahs_core::{RunState, Snapshot};
        let goal = clocked_ping();
        let cfg = small_switch(CcAlgo::Mprdma);
        let (clean, _) = run_with(&goal, cfg.clone());
        let model = loss_model(100_000, 0x10ad);

        // Reference: fresh run, pause at 25 µs, switch the model on.
        let mut rb = HtsimBackend::new(cfg.clone());
        let mut rd = SimDriver::start(&goal, &mut rb);
        assert_eq!(rd.run_until(&mut rb, 25_000).unwrap(), RunState::Paused);
        rb.set_link_model(model);
        let reference = rd.finish(&mut rb).unwrap();
        assert!(rb.net_stats().stochastic_drops > 0, "the override must bite");
        assert!(reference.makespan > clean.makespan);

        // Branched: one prefix, one checkpoint, two continuations.
        let mut b = HtsimBackend::new(cfg);
        let mut driver = SimDriver::start(&goal, &mut b);
        assert_eq!(driver.run_until(&mut b, 25_000).unwrap(), RunState::Paused);
        let snap = b.checkpoint();

        let lossy_driver = driver.clone();
        let clean_branch = driver.finish(&mut b).unwrap();
        assert_eq!(clean_branch.makespan, clean.makespan);
        assert_eq!(b.net_stats().stochastic_draws, 0, "clean branch consumed no draws");

        b.restore(&snap);
        b.set_link_model(model);
        let lossy_branch = lossy_driver.finish(&mut b).unwrap();
        assert_eq!(lossy_branch.makespan, reference.makespan);
        assert_eq!(b.net_stats(), rb.net_stats());
    }

    /// An override belongs to the run it was applied to: a second run on
    /// the same backend is a fresh backend's clean run, and the
    /// configuration is still what the caller passed.
    #[test]
    fn overrides_do_not_outlive_their_run() {
        use atlahs_core::RunState;
        let goal = clocked_ping();
        let cfg = small_switch(CcAlgo::Mprdma);
        let (clean, fresh) = run_with(&goal, cfg.clone());

        let mut b = HtsimBackend::new(cfg.clone());
        let mut driver = SimDriver::start(&goal, &mut b);
        assert_eq!(driver.run_until(&mut b, 25_000).unwrap(), RunState::Paused);
        b.inject_fault(PortFault {
            port: 0,
            start_ns: 30_000,
            end_ns: 90_000,
            kind: FaultKind::Down,
        });
        b.set_link_model(loss_model(100_000, 0x10ad));
        let overridden = driver.finish(&mut b).unwrap();
        assert!(overridden.makespan > clean.makespan, "the overrides must bite");
        assert!(b.net_stats().fault_drops > 0 && b.net_stats().stochastic_drops > 0);
        assert_eq!(b.config(), &cfg, "overrides must not rewrite the configuration");

        let rerun = Simulation::new(&goal).run(&mut b).unwrap();
        assert_eq!(rerun, clean);
        assert_eq!(b.net_stats(), fresh.net_stats());
    }
}
