//! `Timed<B>`: a `Backend` that times every call into the backend it
//! wraps, from outside.
//!
//! Used only in traced runs. It forwards every call unchanged, so the
//! simulation — `SimReport`, statistics, fingerprint — is identical to a
//! bare run (pinned by this module's tests); it adds two clock reads per
//! call, which [`crate::span::Calibration`] takes out again.
//!
//! It also keeps the `(src, dst, tag)` offer script the backend saw at
//! `send`/`recv`, so the matcher can be replayed on its own afterwards.

use std::time::Instant;

use atlahs_core::{Backend, Completion, OpRef, Time};
use atlahs_goal::{Rank, Tag};

use crate::span::{Aggregate, Layer, SpanId, SpanLog};

/// One matcher offer as the backend received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    pub is_send: bool,
    pub src: Rank,
    pub dst: Rank,
    pub tag: Tag,
}

/// Time and call count of one `Backend` method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodTime {
    pub ns: u64,
    pub calls: u64,
}

impl MethodTime {
    #[inline]
    fn add(&mut self, from: Instant, to: Instant) {
        self.ns += (to - from).as_nanos() as u64;
        self.calls += 1;
    }
}

pub struct Timed<B> {
    inner: B,
    pub setup: MethodTime,
    pub send: MethodTime,
    pub recv: MethodTime,
    pub calc: MethodTime,
    pub next_event: MethodTime,
    /// Time spent appending to `offers` (charged to the tracing layer).
    pub record: MethodTime,
    pub offers: Vec<Offer>,
}

impl<B> Timed<B> {
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            setup: MethodTime::default(),
            send: MethodTime::default(),
            recv: MethodTime::default(),
            calc: MethodTime::default(),
            next_event: MethodTime::default(),
            record: MethodTime::default(),
            offers: Vec::new(),
        }
    }

    #[cfg(test)]
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend and the recorded offer script.
    pub fn into_parts(self) -> (B, Vec<Offer>) {
        (self.inner, self.offers)
    }

    /// Calls into the wrapped backend (the offer recording is not one).
    pub fn backend_calls(&self) -> u64 {
        self.setup.calls
            + self.send.calls
            + self.recv.calls
            + self.calc.calls
            + self.next_event.calls
    }

    /// Fold the per-method totals into aggregate spans under `parent`
    /// (the `core.run` span), charged to `layer`.
    pub fn record_aggregates(&self, log: &mut SpanLog, parent: SpanId, layer: Layer) {
        for (name, layer, m) in [
            ("backend.simulation_setup", layer, self.setup),
            ("backend.send", layer, self.send),
            ("backend.recv", layer, self.recv),
            ("backend.calc", layer, self.calc),
            ("backend.next_event", layer, self.next_event),
            ("trace.record_offer", Layer::Tracing, self.record),
        ] {
            log.aggregate(Aggregate { name, layer, parent, total_ns: m.ns, calls: m.calls });
        }
    }
}

impl<B: Backend> Backend for Timed<B> {
    fn simulation_setup(&mut self, num_ranks: usize) {
        let t0 = Instant::now();
        self.inner.simulation_setup(num_ranks);
        self.setup.add(t0, Instant::now());
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        let t0 = Instant::now();
        self.offers.push(Offer { is_send: true, src: op.rank, dst, tag });
        let t1 = Instant::now();
        self.inner.send(op, dst, bytes, tag);
        let t2 = Instant::now();
        self.record.add(t0, t1);
        self.send.add(t1, t2);
    }

    fn recv(&mut self, op: OpRef, src: Rank, bytes: u64, tag: Tag) {
        let t0 = Instant::now();
        self.offers.push(Offer { is_send: false, src, dst: op.rank, tag });
        let t1 = Instant::now();
        self.inner.recv(op, src, bytes, tag);
        let t2 = Instant::now();
        self.record.add(t0, t1);
        self.recv.add(t1, t2);
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        let t0 = Instant::now();
        self.inner.calc(op, cost);
        self.calc.add(t0, Instant::now());
    }

    fn next_event(&mut self) -> Option<Completion> {
        let t0 = Instant::now();
        let ev = self.inner.next_event();
        self.next_event.add(t0, Instant::now());
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{fingerprint_htsim, fingerprint_lgs};
    use atlahs_core::Simulation;
    use atlahs_htsim::{CcAlgo, HtsimBackend, HtsimConfig, TopologyConfig};
    use atlahs_lgs::{LgsBackend, LogGopsParams};
    use atlahs_schedgen::synthetic;

    #[test]
    fn wrapper_leaves_an_lgs_run_identical() {
        let goal = synthetic::moe_alltoall(16, 4, 300_000, 2, 5_000).unwrap();
        let mut bare = LgsBackend::new(LogGopsParams::hpc_testbed());
        let bare_report = Simulation::new(&goal).run(&mut bare).unwrap();
        let mut timed = Timed::new(LgsBackend::new(LogGopsParams::hpc_testbed()));
        let timed_report = Simulation::new(&goal).run(&mut timed).unwrap();
        assert_eq!(bare_report, timed_report);
        assert_eq!(bare.stats(), timed.inner().stats());
        assert!(bare.stats().rendezvous_messages > 0);
        assert_eq!(
            fingerprint_lgs(&bare_report, &bare.stats()),
            fingerprint_lgs(&timed_report, &timed.inner().stats())
        );
        // Every task is issued once and reports at least one event.
        let issued = timed.send.calls + timed.recv.calls + timed.calc.calls;
        assert_eq!(issued, goal.total_tasks() as u64);
        assert!(timed.next_event.calls > issued);
        assert_eq!(timed.offers.len() as u64, timed.send.calls + timed.recv.calls);
        assert_eq!(timed.record.calls, timed.offers.len() as u64);
        assert_eq!(timed.setup.calls, 1);
    }

    #[test]
    fn wrapper_leaves_an_htsim_run_identical() {
        let goal = synthetic::permutation(16, 200_000, 8, 2).unwrap();
        let cfg = || {
            let mut c = HtsimConfig::new(TopologyConfig::fat_tree(16, 4), CcAlgo::Mprdma);
            c.seed = 3;
            c.spray = true;
            c
        };
        let mut bare = HtsimBackend::new(cfg());
        let bare_report = Simulation::new(&goal).run(&mut bare).unwrap();
        let mut timed = Timed::new(HtsimBackend::new(cfg()));
        let timed_report = Simulation::new(&goal).run(&mut timed).unwrap();
        assert_eq!(bare_report, timed_report);
        assert_eq!(
            fingerprint_htsim(&bare_report, &bare.net_stats()),
            fingerprint_htsim(&timed_report, &timed.inner().net_stats())
        );
        assert_eq!(bare.queue_stats(), timed.inner().queue_stats());
    }

    #[test]
    fn aggregates_carry_every_method() {
        let goal = synthetic::ring(4, 4096, 1).unwrap();
        let mut timed = Timed::new(LgsBackend::new(LogGopsParams::ai_alps()));
        Simulation::new(&goal).run(&mut timed).unwrap();
        let mut log = SpanLog::new(0);
        let run = log.open("core.run", Layer::Core, None);
        log.close(run);
        timed.record_aggregates(&mut log, run, Layer::Lgs);
        assert_eq!(log.aggregates.len(), 6);
        let calls: u64 =
            log.aggregates.iter().filter(|a| a.layer == Layer::Lgs).map(|a| a.calls).sum();
        assert_eq!(calls, timed.backend_calls());
        let ns: u64 =
            log.aggregates.iter().filter(|a| a.layer == Layer::Lgs).map(|a| a.total_ns).sum();
        assert!(ns > 0);
    }
}
