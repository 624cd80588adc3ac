//! LGS against closed forms of the LogGOPS rules in the crate docs, on
//! contention-free one-pair schedules: rank 0 sends `k` messages of `n`
//! bytes back to back on one stream, and rank 1 posts the `k` matching
//! recvs at time 0. The expected values come from the documented
//! operation timing and the paper's parameters as the docs state them,
//! not from the backend.
//!
//! Let `c = g + G·n` (rounded half up) be one message's NIC occupancy.
//!
//! * **Eager** (`S = 0` or `n ≤ S`): the send occupies the CPU for `o` and
//!   is done then, so send `i` is done at `(i + 1)·o` and hands its
//!   message to the NIC at that time. The NIC serialises them: message
//!   `i` has left at `max over j ≤ i of (j + 1)·o + (i − j + 1)·c`, i.e.
//!   `(i + 1)·o + c` if `c ≤ o`, else `o + (i + 1)·c`. It arrives `L`
//!   later (arrivals are at least `c ≥ g` apart, so the receive NIC's gap
//!   never delays one) and its recv is done `o` after that. The sender
//!   finishes at `k·o`, the receiver `L + o` after the last message left.
//! * **Rendezvous** (`n > S > 0`): the send holds the CPU for `o`, its RTS
//!   arrives `L` later, finds the recv posted, and the CTS is back `o + L`
//!   after that, at `(i + 2)·o + 2L`. Only then does the message occupy
//!   the NIC, so it has left at `2·o + 2L + (i + 1)·c` if `c ≥ o`, else
//!   `(i + 2)·o + 2L + c`, and that is when the send is done. The sender
//!   finishes when the last message has left, the receiver `L + o` later.

use atlahs_core::{SimReport, Simulation};
use atlahs_goal::GoalBuilder;
use atlahs_lgs::{LgsBackend, LogGopsParams};

/// The LogGOPS parameters as the crate docs state them, `G` as the
/// fraction `g_num / g_den` ns per byte (`O` is 0 in both sets).
struct Model {
    l: u64,
    o: u64,
    g: u64,
    g_num: u64,
    g_den: u64,
    s: u64,
}

/// AI (Alps): `L=3700, o=200, g=5, G=1/25, O=0, S=0`.
const AI_ALPS: Model = Model { l: 3700, o: 200, g: 5, g_num: 1, g_den: 25, s: 0 };
/// HPC test-bed: `L=3000, o=6000, g=0, G=9/50, O=0, S=256000`.
const HPC_TESTBED: Model = Model { l: 3000, o: 6000, g: 0, g_num: 9, g_den: 50, s: 256_000 };

impl Model {
    /// `c = g + G·n`, `G·n` rounded half up.
    fn nic(&self, n: u64) -> u64 {
        let (n, num, den) = (u128::from(n), u128::from(self.g_num), u128::from(self.g_den));
        self.g + ((2 * n * num + den) / (2 * den)) as u64
    }

    /// `(sender finish, receiver finish)` of `k ≥ 1` messages of `n` bytes.
    fn finish(&self, k: u64, n: u64) -> (u64, u64) {
        let (o, l, c) = (self.o, self.l, self.nic(n));
        if self.s > 0 && n > self.s {
            let left = if c >= o { 2 * o + 2 * l + k * c } else { (k + 1) * o + 2 * l + c };
            (left, left + l + o)
        } else {
            let left = if c <= o { k * o + c } else { o + k * c };
            (k * o, left + l + o)
        }
    }
}

/// Simulate `k` back-to-back messages of `n` bytes from rank 0 to rank 1.
fn run(params: LogGopsParams, k: u32, n: u64) -> SimReport {
    let mut b = GoalBuilder::new(2);
    for tag in 0..k {
        b.send(0, 1, n, tag % 2);
        b.recv(1, 0, n, tag % 2);
    }
    let goal = b.build().unwrap();
    Simulation::new(&goal).run(&mut LgsBackend::new(params)).expect("no deadlock")
}

fn check(model: &Model, params: LogGopsParams, sizes: &[u64]) {
    for k in [1, 2, 5] {
        for &n in sizes {
            let (sender, receiver) = model.finish(u64::from(k), n);
            let rep = run(params, k, n);
            assert_eq!(rep.rank_finish, [sender, receiver], "k = {k}, n = {n}");
            assert_eq!(rep.makespan, receiver.max(sender), "k = {k}, n = {n}");
        }
    }
}

#[test]
fn the_presets_are_the_documented_parameters() {
    for (model, params) in
        [(AI_ALPS, LogGopsParams::ai_alps()), (HPC_TESTBED, LogGopsParams::hpc_testbed())]
    {
        assert_eq!((params.l, params.o, params.g, params.s), (model.l, model.o, model.g, model.s));
        for n in [1, 12, 13, 25, 1000, 1 << 32] {
            assert_eq!(params.nic_cost(n), model.nic(n), "n = {n}");
            assert_eq!(params.cpu_cost(n), model.o, "O = 0, n = {n}");
        }
    }
}

/// `S = 0`: every message is eager. 4875 B is the largest `n` with
/// `c = o`; 2³² B is past a task record's 32 bits, so the payload goes
/// through the schedule's overflow table on its way to the backend.
#[test]
fn ai_alps_eager_messages_follow_the_closed_form() {
    check(&AI_ALPS, LogGopsParams::ai_alps(), &[0, 1, 1000, 4875, 4876, 10_000, 1 << 32]);
}

/// Both sides of `S = 256 000`: `c = o` at 33 333 B, the last eager size
/// at `S`, the first rendezvous one past it, and 2³² B through the
/// overflow table.
#[test]
fn hpc_testbed_messages_follow_the_closed_form_on_both_sides_of_s() {
    let sizes = [1, 1000, 33_333, 40_000, 256_000, 256_001, 1_000_000, 1 << 32];
    check(&HPC_TESTBED, LogGopsParams::hpc_testbed(), &sizes);
}
