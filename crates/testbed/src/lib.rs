//! # atlahs-testbed
//!
//! A fluid-flow cluster emulator that stands in for the *measured* systems
//! of the paper's validation (the Alps supercomputer and the CSCS HPC
//! test-bed — hardware we do not have; see docs/ARCHITECTURE.md, "Backends").
//!
//! The model is deliberately *different* from both ATLAHS backends so that
//! validation errors are honest:
//!
//! * messages are fluid flows sharing links by **max-min fairness**
//!   (recomputed on every arrival/departure), not LogGOPS gaps and not
//!   per-packet queues;
//! * links run at a configurable `efficiency_pct` of nominal rate (protocol
//!   and scheduling overheads real fabrics exhibit);
//! * computation is perturbed by seeded multiplicative noise (OS jitter,
//!   DVFS, cache effects) so no backend can match it exactly.
//!
//! It implements the same [`Backend`] and [`Snapshot`] traits, so the same
//! GOAL schedule can be "run on the cluster" (this crate) and *predicted*
//! by `atlahs-lgs` / `atlahs-htsim`, mirroring the paper's methodology.

#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use atlahs_core::matcher::MatchKey;
use atlahs_core::{Backend, Completion, Matcher, OpRef, Snapshot, Time};
use atlahs_goal::{Rank, Tag};
use atlahs_htsim::topology::{Topology, TopologyConfig};

/// Emulator configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    pub topology: TopologyConfig,
    /// Host per-operation overhead (ns).
    pub host_o: u64,
    /// Percent of nominal link rate actually achievable, 1..=100.
    pub efficiency_pct: u64,
    /// Amplitude of multiplicative computation noise (e.g. 0.02 = ±2%).
    // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
    pub noise_frac: f64,
    pub seed: u64,
}

impl TestbedConfig {
    /// The default host overhead (ns): the `o` of the LogGOPS parameters
    /// calibrated against this emulator.
    pub const HOST_O: u64 = 250;
    /// The default link efficiency (percent): the `G` of the calibrated
    /// LogGOPS parameters is the inverse of the derated rate.
    pub const EFFICIENCY_PCT: u64 = 92;

    pub fn new(topology: TopologyConfig) -> Self {
        TestbedConfig {
            topology,
            host_o: Self::HOST_O,
            efficiency_pct: Self::EFFICIENCY_PCT,
            // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
            noise_frac: 0.015,
            seed: 42,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Emit { op: OpRef, done: bool },
}

#[derive(Debug, Clone)]
struct Flow {
    op: OpRef,
    // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
    remaining: f64,
    // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
    rate: f64,
    /// Latency to add between drain and delivery.
    latency: u64,
    path: Vec<u32>,
    recv_op: Option<OpRef>,
    complete_time: Option<Time>,
}

/// The fluid-flow "measured cluster": configuration, fabric and per-port
/// rates fixed at construction, everything a run mutates in
/// [`TestbedState`] (the rule is in [`atlahs_core::snapshot`]).
pub struct TestbedBackend {
    cfg: TestbedConfig,
    topo: Topology,
    // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
    port_rates: Vec<f64>,
    s: TestbedState,
}

/// Everything a run of the testbed mutates: clock, fixed-time events,
/// flows, the matcher and the noise RNG.
#[derive(Debug, Clone)]
pub struct TestbedState {
    now: Time,
    last_advance: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<(Time, u64, Ev)>>,
    flows: Vec<Flow>,
    active: Vec<usize>,
    matcher: Matcher<usize, (OpRef, Time)>,
    rng: StdRng,
}

impl TestbedState {
    fn new(cfg: &TestbedConfig) -> Self {
        TestbedState {
            now: 0,
            last_advance: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            flows: Vec::new(),
            active: Vec::new(),
            matcher: Matcher::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }
}

impl TestbedBackend {
    pub fn new(cfg: TestbedConfig) -> Self {
        let topo = Topology::build(cfg.topology.clone());
        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
        let efficiency = cfg.efficiency_pct as f64 / 100.0;
        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
        let port_rates = topo.ports().iter().map(|p| p.link.gbps as f64 / 8.0 * efficiency);
        let port_rates = port_rates.collect();
        TestbedBackend { s: TestbedState::new(&cfg), topo, port_rates, cfg }
    }

    fn push(&mut self, t: Time, ev: Ev) {
        self.s.heap.push(Reverse((t, self.s.seq, ev)));
        self.s.seq += 1;
    }

    /// Drain all active flows up to time `t`.
    fn advance(&mut self, t: Time) {
        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
        let dt = (t - self.s.last_advance) as f64;
        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
        if dt > 0.0 {
            for &fi in &self.s.active {
                let f = &mut self.s.flows[fi];
                // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.s.last_advance = t;
    }

    /// Max-min fair rate allocation over ports (progressive filling).
    fn recompute_rates(&mut self) {
        let n = self.s.active.len();
        if n == 0 {
            return;
        }
        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
        let mut assigned: Vec<Option<f64>> = vec![None; n];
        // Per-port: remaining capacity and unfrozen flow count.
        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
        let mut cap: Vec<f64> = self.port_rates.clone();
        let mut count: Vec<u32> = vec![0; cap.len()];
        for &fi in &self.s.active {
            for &p in &self.s.flows[fi].path {
                count[p as usize] += 1;
            }
        }
        let mut remaining = n;
        while remaining > 0 {
            // Find the tightest port among those carrying unfrozen flows.
            // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
            let mut best: Option<(f64, usize)> = None;
            for (p, &c) in count.iter().enumerate() {
                if c > 0 {
                    // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
                    let share = cap[p] / c as f64;
                    if best.map_or(true, |(s, _)| share < s) {
                        best = Some((share, p));
                    }
                }
            }
            let Some((share, port)) = best else { break };
            // Freeze every unfrozen flow crossing that port.
            for (ai, &fi) in self.s.active.iter().enumerate() {
                if assigned[ai].is_none() && self.s.flows[fi].path.contains(&(port as u32)) {
                    assigned[ai] = Some(share);
                    remaining -= 1;
                    for &p in &self.s.flows[fi].path {
                        count[p as usize] -= 1;
                        // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
                        cap[p as usize] = (cap[p as usize] - share).max(0.0);
                    }
                }
            }
        }
        for (ai, &fi) in self.s.active.iter().enumerate() {
            // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
            self.s.flows[fi].rate = assigned[ai].unwrap_or(f64::INFINITY).max(1e-9);
        }
    }

    /// Earliest (time, active-index) a flow drains, if any.
    fn next_flow_completion(&self) -> Option<(Time, usize)> {
        let mut best: Option<(Time, usize)> = None;
        for (ai, &fi) in self.s.active.iter().enumerate() {
            let f = &self.s.flows[fi];
            let t = self.s.last_advance + (f.remaining / f.rate).ceil() as Time;
            if best.map_or(true, |(bt, _)| t < bt) {
                best = Some((t, ai));
            }
        }
        best
    }

    fn complete_flow(&mut self, ai: usize, t: Time) {
        let fi = self.s.active.swap_remove(ai);
        let deliver = t + self.s.flows[fi].latency;
        let (op, recv_op) = {
            let f = &mut self.s.flows[fi];
            f.complete_time = Some(deliver);
            (f.op, f.recv_op)
        };
        self.push(deliver, Ev::Emit { op, done: true });
        if let Some(r) = recv_op {
            self.push(deliver + self.cfg.host_o, Ev::Emit { op: r, done: true });
        }
        self.recompute_rates();
    }

    // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
    fn noise(&mut self) -> f64 {
        // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
        if self.cfg.noise_frac == 0.0 {
            // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
            1.0
        } else {
            // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
            1.0 + self.cfg.noise_frac * (2.0 * self.s.rng.random::<f64>() - 1.0)
        }
    }
}

impl Snapshot for TestbedBackend {
    type State = TestbedState;

    fn checkpoint(&self) -> TestbedState {
        self.s.clone()
    }

    fn restore(&mut self, state: &TestbedState) {
        self.s.clone_from(state);
    }
}

impl Backend for TestbedBackend {
    fn simulation_setup(&mut self, num_ranks: usize) {
        assert!(
            num_ranks <= self.topo.num_hosts(),
            "schedule needs {num_ranks} ranks but topology has {} hosts",
            self.topo.num_hosts()
        );
        self.s = TestbedState::new(&self.cfg);
    }

    fn now(&self) -> Time {
        self.s.now
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        let key: MatchKey = (op.rank, dst, tag);
        self.push(self.s.now + self.cfg.host_o, Ev::Emit { op, done: false });
        let fi = self.s.flows.len();

        if op.rank == dst {
            // Intra-node copy: effectively instant at this fidelity.
            let deliver = self.s.now + self.cfg.host_o;
            let mut f = Flow {
                op,
                // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
                remaining: 0.0,
                // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
                rate: f64::INFINITY,
                latency: 0,
                path: Vec::new(),
                recv_op: None,
                complete_time: Some(deliver),
            };
            if let Some((recv_op, _)) = self.s.matcher.offer_send(key, fi) {
                f.recv_op = Some(recv_op);
            }
            self.push(deliver, Ev::Emit { op, done: true });
            if let Some(r) = f.recv_op {
                self.push(deliver + self.cfg.host_o, Ev::Emit { op: r, done: true });
            }
            self.s.flows.push(f);
            return;
        }

        self.advance(self.s.now);
        let salt = self.s.rng.random::<u64>();
        let path = self.topo.route(op.rank, dst, salt);
        let latency: u64 =
            path.iter().map(|&p| self.topo.ports()[p as usize].link.latency_ns).sum();
        let mut f = Flow {
            op,
            // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
            remaining: bytes.max(1) as f64,
            // det-lint: allow(float) — fluid solver, fixed-order IEEE-754, pinned by fidelity_smoke.json
            rate: 0.0,
            latency: latency + self.cfg.host_o,
            path,
            recv_op: None,
            complete_time: None,
        };
        if let Some((recv_op, _)) = self.s.matcher.offer_send(key, fi) {
            f.recv_op = Some(recv_op);
        }
        self.s.flows.push(f);
        self.s.active.push(fi);
        self.recompute_rates();
    }

    fn recv(&mut self, op: OpRef, src: Rank, _bytes: u64, tag: Tag) {
        let key: MatchKey = (src, op.rank, tag);
        self.push(self.s.now, Ev::Emit { op, done: false });
        if let Some(fi) = self.s.matcher.offer_recv(key, (op, self.s.now)) {
            match self.s.flows[fi].complete_time {
                Some(t) => {
                    let done = t.max(self.s.now) + self.cfg.host_o;
                    self.push(done, Ev::Emit { op, done: true });
                }
                None => self.s.flows[fi].recv_op = Some(op),
            }
        }
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        // det-lint: allow(float) — calc noise, fixed-order IEEE-754, pinned by fidelity_smoke.json
        let noised = (cost as f64 * self.noise()).round() as u64;
        self.push(self.s.now + noised, Ev::Emit { op, done: true });
    }

    fn next_event(&mut self) -> Option<Completion> {
        loop {
            let fixed = self.s.heap.peek().map(|Reverse((t, _, _))| *t);
            let flow = self.next_flow_completion();
            match (fixed, flow) {
                (None, None) => return None,
                (Some(ft), Some((wt, ai))) if wt < ft => {
                    self.advance(wt);
                    self.s.now = wt;
                    self.complete_flow(ai, wt);
                }
                (None, Some((wt, ai))) => {
                    self.advance(wt);
                    self.s.now = wt;
                    self.complete_flow(ai, wt);
                }
                (Some(ft), _) => {
                    self.advance(ft);
                    self.s.now = ft;
                    let Reverse((t, _, Ev::Emit { op, done })) = self.s.heap.pop().unwrap();
                    return Some(if done {
                        Completion::done(op, t)
                    } else {
                        Completion::cpu_free(op, t)
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::Simulation;
    use atlahs_goal::{GoalBuilder, GoalSchedule};
    use atlahs_htsim::LinkParams;

    fn cfg() -> TestbedConfig {
        let mut c = TestbedConfig::new(TopologyConfig::SingleSwitch {
            hosts: 16,
            link: LinkParams { gbps: 100, latency_ns: 500 },
        });
        c.noise_frac = 0.0;
        c.efficiency_pct = 100;
        c
    }

    fn run(goal: &GoalSchedule, c: TestbedConfig) -> atlahs_core::SimReport {
        let mut b = TestbedBackend::new(c);
        Simulation::new(goal).run(&mut b).expect("no deadlock")
    }

    fn ping(bytes: u64) -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, bytes, 0);
        b.recv(1, 0, bytes, 0);
        b.build().unwrap()
    }

    #[test]
    fn ping_matches_fluid_model() {
        // 1 MiB at 12.5 B/ns = 83886 ns drain + 1000 ns path latency
        // + host_o (latency term) + host_o (recv side).
        let rep = run(&ping(1 << 20), cfg());
        let drain = ((1u64 << 20) as f64 / 12.5).ceil() as u64;
        let expect = drain + 1000 + 250 + 250;
        assert!(rep.makespan.abs_diff(expect) <= 2, "{} vs {expect}", rep.makespan);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        // Two flows into the same destination: each gets half rate.
        let mut b = GoalBuilder::new(3);
        b.send(0, 2, 1 << 20, 0);
        b.recv(2, 0, 1 << 20, 0);
        b.send(1, 2, 1 << 20, 0);
        b.recv(2, 1, 1 << 20, 0);
        let goal = b.build().unwrap();
        let one = run(&ping(1 << 20), cfg()).makespan;
        let two = run(&goal, cfg()).makespan;
        let ratio = two as f64 / one as f64;
        assert!((1.8..2.2).contains(&ratio), "sharing should double completion: {ratio}");
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let mut b = GoalBuilder::new(4);
        b.send(0, 1, 1 << 20, 0);
        b.recv(1, 0, 1 << 20, 0);
        b.send(2, 3, 1 << 20, 0);
        b.recv(3, 2, 1 << 20, 0);
        let goal = b.build().unwrap();
        let one = run(&ping(1 << 20), cfg()).makespan;
        let both = run(&goal, cfg()).makespan;
        assert!(both.abs_diff(one) <= 2, "{both} vs {one}");
    }

    #[test]
    fn noise_is_reproducible_and_bounded() {
        let mut c = cfg();
        c.noise_frac = 0.05;
        let mut b = GoalBuilder::new(1);
        b.calc(0, 1_000_000);
        let goal = b.build().unwrap();
        let r1 = run(&goal, c.clone()).makespan;
        let r2 = run(&goal, c.clone()).makespan;
        assert_eq!(r1, r2, "same seed, same noise");
        assert!((950_000..=1_050_000).contains(&r1), "{r1}");
        c.seed = 7;
        let r3 = run(&goal, c).makespan;
        assert_ne!(r1, r3, "different seed should perturb");
    }

    #[test]
    fn efficiency_slows_transfers() {
        let mut slow = cfg();
        slow.efficiency_pct = 50;
        let fast = run(&ping(1 << 20), cfg()).makespan;
        let halved = run(&ping(1 << 20), slow).makespan;
        assert!(halved as f64 > fast as f64 * 1.7, "{halved} vs {fast}");
    }

    #[test]
    fn collective_completes_on_testbed() {
        use atlahs_collectives::{mpi, CollParams};
        let ranks: Vec<u32> = (0..8).collect();
        let mut b = GoalBuilder::new(8);
        mpi::allreduce_ring(&mut b, &ranks, 1 << 18, 0, &CollParams::default());
        let goal = b.build().unwrap();
        let rep = run(&goal, cfg());
        assert_eq!(rep.completed, goal.total_tasks());
    }

    #[test]
    fn oversubscribed_core_congests_fluid_flows() {
        let mk = |ratio: usize| {
            let mut c = cfg();
            c.topology = if ratio == 1 {
                TopologyConfig::fat_tree(16, 4)
            } else {
                TopologyConfig::fat_tree_oversubscribed(16, 4, ratio)
            };
            // permutation across ToRs
            let mut b = GoalBuilder::new(16);
            for h in 0..16u32 {
                let dst = (h + 8) % 16;
                b.send(h, dst, 1 << 20, h);
                b.recv(dst, h, 1 << 20, h);
            }
            run(&b.build().unwrap(), c).makespan
        };
        let full = mk(1);
        let over = mk(4);
        // ECMP collisions already slow the fully provisioned case, so
        // compare against the contention-free wire time: 4 flows through
        // one uplink cannot beat 3x line rate, and must be strictly worse
        // than full provisioning.
        let wire = ((1u64 << 20) as f64 / 12.5) as u64;
        assert!(over as f64 > 3.0 * wire as f64, "{over} vs wire {wire}");
        assert!(over > full, "{over} vs {full}");
    }

    #[test]
    fn intra_node_send_is_local() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 0, 1 << 30, 0);
        b.recv(0, 0, 1 << 30, 0);
        let goal = b.build().unwrap();
        let rep = run(&goal, cfg());
        assert!(rep.makespan < 1_000, "local copy should skip the fabric");
    }
}
