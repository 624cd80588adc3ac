//! The ideal backend against its documented model, exactly, on
//! contention-free one-pair schedules: a send holds its stream until its
//! last byte has left, `t = 8·n / gbps` ns rounded half up after issue; the
//! message arrives `latency` later; a recv, posted at once, is done at the
//! arrival; a calc takes exactly its cost. So `k` back-to-back sends of
//! `n` bytes leave at `t, 2t, …, k·t`: the sender finishes at `k·t`, the
//! receiver at `k·t + latency`.

use atlahs_core::backends::IdealBackend;
use atlahs_core::{SimReport, Simulation};
use atlahs_goal::{GoalBuilder, GoalSchedule};

/// `8·n / gbps` ns, rounded half up.
fn wire(gbps: u64, n: u64) -> u64 {
    let (n, gbps) = (u128::from(n), u128::from(gbps));
    ((16 * n + gbps) / (2 * gbps)) as u64
}

fn run(goal: &GoalSchedule, gbps: u64, latency: u64) -> SimReport {
    Simulation::new(goal).run(&mut IdealBackend::new(gbps, latency)).expect("no deadlock")
}

#[test]
fn back_to_back_messages_are_exact() {
    for (gbps, latency) in [(200, 1000), (56, 700), (3, 0)] {
        // 2³² B is past a task record's 32 bits: the payload goes through
        // the schedule's overflow table on its way to the backend.
        for n in [0, 1, 7, 4096, 1_000_000, 1 << 32] {
            for k in [1u32, 2, 5] {
                let mut b = GoalBuilder::new(2);
                for tag in 0..k {
                    b.send(0, 1, n, tag);
                    b.recv(1, 0, n, tag);
                }
                let last = u64::from(k) * wire(gbps, n);
                let rep = run(&b.build().unwrap(), gbps, latency);
                assert_eq!(
                    rep.rank_finish,
                    [last, last + latency],
                    "{gbps} Gb/s, k = {k}, n = {n}"
                );
                assert_eq!(rep.makespan, last + latency);
            }
        }
    }
}

#[test]
fn a_calc_past_32_bits_of_nanoseconds_ends_exactly_there() {
    // 2³² + 5 ns goes through the overflow table, u32::MAX ns is its marker.
    let mut b = GoalBuilder::new(2);
    b.calc(0, (1 << 32) + 5);
    b.calc(1, u64::from(u32::MAX));
    let rep = run(&b.build().unwrap(), 200, 1000);
    assert_eq!(rep.rank_finish, [(1 << 32) + 5, u64::from(u32::MAX)]);
}
