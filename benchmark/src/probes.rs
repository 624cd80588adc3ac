//! Per-layer probes a traced run makes after its pipeline has finished:
//! small, fixed pieces of work aimed at one layer each, timed on their own
//! so they never enter `wall_s`.

use std::sync::Arc;
use std::time::Instant;

use atlahs_bench::branch::run_cell_branched_straight;
use atlahs_bench::scenario::{
    lgs_params_for, prepare_goal, BackendSpec, FaultSpec, PlacementSpec, ScenarioCell,
};
use atlahs_bench::sweep;
use atlahs_core::{Backend, Matcher, SimDriver, Snapshot};
use atlahs_eventq::EventQueue;
use atlahs_goal::GoalSchedule;
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs_lgs::LgsBackend;

use crate::stats::median;
use crate::timed::Offer;

/// Host nanoseconds per `EventQueue` operation on a fixed, seeded mix of
/// push delays: same-tick lane hits, level-0 and level-1 wheel slots, and
/// far-future heap overflows, with a standing population of 4096 events.
pub fn eventq_ns_per_op() -> f64 {
    const POPULATION: u64 = 4096;
    const ROUNDS: u64 = 1 << 21;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut delay = move || {
        // xorshift64*: the mix must not depend on any crate under test.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        match r % 100 {
            0..=39 => 0,                                // same-tick lane
            40..=74 => 1 + (r >> 8) % 4_000,            // level-0 frame
            75..=94 => 5_000 + (r >> 8) % 10_000_000,   // level-1 superframe
            _ => 20_000_000 + (r >> 8) % 1_000_000_000, // overflow heap
        }
    };
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..POPULATION {
        q.push(delay(), i as u32);
    }
    let t0 = Instant::now();
    for i in 0..ROUNDS {
        let (now, ev) = q.pop().expect("population never drains");
        std::hint::black_box(ev);
        q.push(now + delay(), i as u32);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(q.len());
    ns / (2 * ROUNDS) as f64
}

/// Replay the offer script a backend saw into a bare `core::Matcher`;
/// returns the seconds it took.
pub fn matcher_replay_s(offers: &[Offer]) -> f64 {
    let mut matcher: Matcher<u32, u32> = Matcher::new();
    let t0 = Instant::now();
    for (i, o) in offers.iter().enumerate() {
        let key = (o.src, o.dst, o.tag);
        if o.is_send {
            std::hint::black_box(matcher.offer_send(key, i as u32));
        } else {
            std::hint::black_box(matcher.offer_recv(key, i as u32));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Re-issue what the sweep executor does per cell before simulating —
/// `WorkloadSpec::build_jobs` and `scenario::prepare_goal` (allocate +
/// `merge::compose`) — for every cell. Returns (seconds, cells that went
/// through `compose`).
pub fn compose_probe(cells: &[ScenarioCell]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut composed = 0u64;
    for cell in cells {
        let jobs = cell.workload.build_jobs(cell.seed);
        let prepared = prepare_goal(cell, &jobs);
        std::hint::black_box(prepared.goal(&jobs).total_tasks());
        composed += u64::from(jobs.len() > 1 || cell.placement != PlacementSpec::Packed);
    }
    (t0.elapsed().as_secs_f64(), composed)
}

/// Seconds `sweep::execute` takes on one thread.
pub fn execute_one_thread_s(cells: &[ScenarioCell]) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(sweep::execute(cells, 1));
    t0.elapsed().as_secs_f64()
}

/// Seconds the straight-through reference takes over all cells: every
/// cell pauses at the branch time and finishes, with no snapshot and no
/// shared prefix. Workload lowering is left out on both sides.
pub fn straight_sum_s(cells: &[ScenarioCell], branch_at: u64) -> f64 {
    let mut built: Vec<(String, Vec<Arc<GoalSchedule>>)> = Vec::new();
    let mut total = 0.0;
    for cell in cells {
        let label = cell.workload.label();
        if !built.iter().any(|(l, _)| *l == label) {
            built.push((label.clone(), cell.workload.build_jobs(cell.seed)));
        }
        let jobs = &built.iter().find(|(l, _)| *l == label).expect("just built").1;
        let t0 = Instant::now();
        std::hint::black_box(run_cell_branched_straight(cell, jobs, branch_at));
        total += t0.elapsed().as_secs_f64();
    }
    total
}

/// Median microseconds of one `checkpoint` and one `restore`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SnapshotCost {
    pub checkpoint_us: f64,
    pub restore_us: f64,
}

fn snapshot_cost<B: Backend + Snapshot>(
    goal: &GoalSchedule,
    backend: &mut B,
    at: u64,
) -> SnapshotCost {
    const REPS: usize = 15;
    let mut driver = SimDriver::start(goal, backend);
    driver.run_until(backend, at).expect("the clean prefix cannot deadlock");
    let mut checkpoint = Vec::with_capacity(REPS);
    let mut restore = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let state = std::hint::black_box(backend.checkpoint());
        checkpoint.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        backend.restore(&state);
        restore.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    SnapshotCost { checkpoint_us: median(&checkpoint), restore_us: median(&restore) }
}

/// Checkpoint/restore cost of the first clean LGS prefix and the first
/// clean htsim prefix of a branched grid, paused at its branch time.
/// Returns `(lgs, htsim)`; a backend the grid lacks reports zeros.
pub fn snapshot_costs(cells: &[ScenarioCell], branch_at: u64) -> (SnapshotCost, SnapshotCost) {
    let clean = |want_lgs: bool| {
        cells.iter().find(|c| {
            c.fault == FaultSpec::None
                && want_lgs == matches!(c.backend, BackendSpec::Lgs)
                && !matches!(c.backend, BackendSpec::Ideal)
        })
    };
    let lgs = clean(true).map_or(SnapshotCost::default(), |cell| {
        let jobs = cell.workload.build_jobs(cell.seed);
        let prepared = prepare_goal(cell, &jobs);
        let mut backend = LgsBackend::new(lgs_params_for(&cell.topology));
        snapshot_cost(prepared.goal(&jobs), &mut backend, branch_at)
    });
    let htsim = clean(false).map_or(SnapshotCost::default(), |cell| {
        let BackendSpec::Htsim { cc, spray } = cell.backend else {
            unreachable!("clean(false) only returns htsim cells");
        };
        let jobs = cell.workload.build_jobs(cell.seed);
        let prepared = prepare_goal(cell, &jobs);
        let mut cfg = HtsimConfig::new(cell.topology.config(), cc);
        cfg.seed = cell.seed;
        cfg.spray = spray;
        let mut backend = HtsimBackend::new(cfg);
        snapshot_cost(prepared.goal(&jobs), &mut backend, branch_at)
    });
    (lgs, htsim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventq_probe_is_positive_and_sane() {
        let ns = eventq_ns_per_op();
        assert!(ns > 0.0 && ns < 100_000.0, "{ns}");
    }

    #[test]
    fn matcher_replay_pairs_every_offer() {
        let offers: Vec<Offer> = (0..1000u32)
            .flat_map(|i| {
                [
                    Offer { is_send: true, src: i % 7, dst: i % 5, tag: i },
                    Offer { is_send: false, src: i % 7, dst: i % 5, tag: i },
                ]
            })
            .collect();
        assert!(matcher_replay_s(&offers) >= 0.0);
    }
}
