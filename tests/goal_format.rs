//! Integration + property tests of the GOAL interchange formats: the
//! binary and textual encodings round-trip arbitrary well-formed
//! schedules, and the scheduler executes whatever the formats carry.

use atlahs::core::backends::IdealBackend;
use atlahs::core::Simulation;
use atlahs::goal::{binary, text, GoalBuilder, GoalError, GoalSchedule, TaskId};
use proptest::prelude::*;

/// Strategy: a random well-formed multi-rank schedule. Dependencies only
/// point backwards (acyclic by construction); every send has a matching
/// recv with the same (src, dst, tag, bytes).
fn arb_goal() -> impl Strategy<Value = GoalSchedule> {
    // (ranks, per-rank calc specs, messages)
    (2usize..6)
        .prop_flat_map(|nranks| {
            let calcs =
                proptest::collection::vec((0..nranks as u32, 0u64..1_000_000, 0u32..3), 0..24);
            let msgs = proptest::collection::vec(
                (0..nranks as u32, 0..nranks as u32, 1u64..(1 << 20), 0u32..8),
                0..24,
            );
            (Just(nranks), calcs, msgs)
        })
        .prop_map(|(nranks, calcs, msgs)| {
            let mut b = GoalBuilder::new(nranks);
            let mut last: Vec<Option<TaskId>> = vec![None; nranks];
            for (r, cost, stream) in calcs {
                let id = b.calc_on(r, cost, stream);
                if let Some(prev) = last[r as usize] {
                    // Randomized-ish chaining: link every other calc.
                    if cost % 2 == 0 {
                        b.requires(r, id, prev);
                    }
                }
                last[r as usize] = Some(id);
            }
            for (i, (src, dst, bytes, tag)) in msgs.into_iter().enumerate() {
                let dst = if src == dst { (dst + 1) % nranks as u32 } else { dst };
                // Tags must be unique per (src,dst) direction to keep FIFO
                // matching trivially correct in this generator.
                let tag = tag + 8 * i as u32;
                let s = b.send(src, dst, bytes, tag);
                let r = b.recv(dst, src, bytes, tag);
                if let Some(prev) = last[src as usize] {
                    b.requires(src, s, prev);
                }
                if let Some(prev) = last[dst as usize] {
                    b.requires(dst, r, prev);
                }
            }
            b.build().expect("generator builds well-formed schedules")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_roundtrip_is_identity(goal in arb_goal()) {
        let bytes = binary::encode(&goal);
        let back = binary::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&goal, &back);
    }

    #[test]
    fn text_roundtrip_preserves_structure(goal in arb_goal()) {
        let t = text::to_text(&goal);
        let back = text::parse(&t).expect("own text parses");
        prop_assert_eq!(goal.num_ranks(), back.num_ranks());
        prop_assert_eq!(goal.total_tasks(), back.total_tasks());
        // Canonical form: re-serializing is stable.
        prop_assert_eq!(text::to_text(&back), t);
    }

    #[test]
    fn binary_is_never_bigger_than_text(goal in arb_goal()) {
        let b = binary::encode(&goal).len();
        let t = text::to_text(&goal).len();
        // The compact binary encoding is the published dataset format
        // (Table 1); it must not regress above the textual form.
        prop_assert!(b <= t, "binary {} vs text {}", b, t);
    }

    #[test]
    fn random_schedules_complete_on_the_scheduler(goal in arb_goal()) {
        let mut be = IdealBackend::new(80, 100);
        let rep = Simulation::new(&goal).run(&mut be).expect("no deadlock");
        prop_assert_eq!(rep.completed, goal.total_tasks());
    }

    #[test]
    fn decode_survives_truncation_without_panicking(goal in arb_goal()) {
        // Every strict prefix of an encoding is missing a count, a task or
        // an edge, so each must be rejected, never panic, loop or decode,
        // and a decode error must point into the prefix.
        let bytes = binary::encode(&goal);
        for cut in 0..bytes.len() {
            match binary::decode(&bytes[..cut]) {
                Ok(_) => prop_assert!(false, "prefix of {cut}/{} bytes decoded", bytes.len()),
                Err(GoalError::Decode { offset, .. }) => prop_assert!(offset <= cut),
                Err(_) => {}
            }
        }
    }
}

/// Single-byte corruptions of one real encoding: every position XOR a few
/// masks (the low bit, the tag flag, the continuation bit, all bits).
/// Decoding must return without panicking, a decode error's offset must lie
/// within the input (at most its length, where truncation is reported), and
/// whatever decodes must survive its own round trip.
#[test]
fn single_byte_corruptions_are_typed_errors() {
    let bytes = binary::encode(&lulesh(4, 1));
    assert!(bytes.len() > 200, "a real encoding, not a toy");
    for at in 0..bytes.len() {
        for mask in [0x01, 0x04, 0x80, 0xff] {
            let mut data = bytes.clone();
            data[at] ^= mask;
            match binary::decode(&data) {
                Ok(goal) => assert_eq!(binary::decode(&binary::encode(&goal)).unwrap(), goal),
                Err(GoalError::Decode { offset, msg }) => {
                    assert!(offset <= data.len(), "byte {at} ^ {mask:#x}: {msg} at {offset}")
                }
                Err(_) => {}
            }
        }
    }
}

#[test]
fn corrupted_magic_rejected() {
    let mut b = GoalBuilder::new(1);
    b.calc(0, 5);
    let goal = b.build().unwrap();
    let mut bytes = binary::encode(&goal);
    bytes[0] ^= 0xFF;
    assert!(binary::decode(&bytes).is_err());
}

#[test]
fn fig3_text_matches_paper_syntax() {
    // The paper's Fig. 3 schedule in its textual syntax must parse.
    let src = "\
num_ranks 2
rank 0 {
l1: calc 100
l2: calc 200 cpu 0
l3: calc 200 cpu 1
l4: send 10b to 1 tag 0
l2 requires l1
l3 requires l1
l4 requires l2
l4 requires l3
}
rank 1 {
r1: recv 10b from 0 tag 0
}
";
    let goal = text::parse(src).expect("Fig. 3 syntax parses");
    assert_eq!(goal.num_ranks(), 2);
    assert_eq!(goal.rank(0).num_tasks(), 4);
    assert_eq!(goal.rank(1).num_tasks(), 1);
    let mut be = IdealBackend::new(8, 10);
    let rep = Simulation::new(&goal).run(&mut be).unwrap();
    assert_eq!(rep.completed, 5);
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    atlahs::core::faultgen::fnv_fold(0, &[bytes])
}

/// A small LULESH trace lowered through `mpi2goal`.
fn lulesh(ranks: usize, iterations: u32) -> GoalSchedule {
    use atlahs::schedgen::mpi2goal;
    use atlahs::tracers::mpi;
    let cfg = mpi::HpcAppConfig {
        ranks,
        iterations,
        scaling: mpi::Scaling::Weak,
        compute_ns: 100_000,
        halo_bytes: 8 * 1024,
        noise: 0.02,
        seed: 5,
    };
    mpi2goal::convert(&mpi::lulesh(&cfg), &Default::default()).unwrap()
}

/// A hand-built schedule that exercises every encoded field: tags, streams
/// other than 0, both edge kinds, and edges inserted out of dependent order.
fn hand_built() -> GoalSchedule {
    let mut b = GoalBuilder::new(3);
    let c0 = b.calc(0, 1_000_000);
    let s0 = b.send_on(0, 1, 4096, 7, 2);
    let c1 = b.calc_on(0, 300, 1);
    b.requires(0, c1, s0);
    b.irequires(0, s0, c0);
    b.requires(0, s0, c0);
    let r1 = b.recv_on(1, 0, 4096, 7, 5);
    let s1 = b.send(1, 2, 1 << 40, 0);
    let c2 = b.calc(1, 0);
    b.requires(1, c2, s1);
    b.requires(1, c2, r1);
    b.irequires(1, s1, r1);
    let r2 = b.recv_on(2, 1, 1 << 40, 0, 300);
    let c3 = b.calc_on(2, u64::MAX, u32::MAX);
    b.requires(2, c3, r2);
    b.build().unwrap()
}

/// The on-disk GOAL format, pinned: the length and FNV-1a hash of
/// `binary::encode` for one schedule per lowering path plus a hand-built
/// one. A codec change that moves a byte fails here; so does a lowering
/// change, which is what the goldens would catch one layer later.
#[test]
fn encodings_are_pinned_byte_for_byte() {
    use atlahs::directdrive::{trace_to_goal, DirectDriveLayout, ServiceParams};
    use atlahs::schedgen::nccl2goal;
    use atlahs::tracers::{nccl, storage};

    let ai = {
        let mut cfg = nccl::presets::llama7b_dp16(0.002);
        cfg.iterations = 1;
        nccl2goal::convert(&nccl::trace_llm(&cfg), &Default::default()).unwrap()
    };
    let hpc = lulesh(8, 2);
    let storage = {
        let layout = DirectDriveLayout::standard(8, 2, 12);
        let trace = storage::financial_like(&storage::OltpConfig {
            operations: 200,
            seed: 3,
            ..Default::default()
        });
        let mut b = GoalBuilder::new(layout.total_ranks());
        trace_to_goal(&trace, &layout, &ServiceParams::default(), &mut b);
        b.build().unwrap()
    };
    let pins: [(&str, GoalSchedule, usize, u64); 4] = [
        ("nccl2goal llama7b_dp16(0.002)", ai, 172_205, 0x7e48_49fa_b7ee_919a),
        ("mpi2goal lulesh 8 ranks", hpc, 2_489, 0x841c_da6c_afbf_00fa),
        ("directdrive 200 ops", storage, 23_693, 0x73dc_5070_41a9_163b),
        ("hand-built", hand_built(), 85, 0x4163_f2ac_1b2b_4772),
    ];
    for (name, goal, len, hash) in pins {
        let bytes = binary::encode(&goal);
        let got = (bytes.len(), fnv1a(&bytes));
        assert_eq!(got, (len, hash), "{name}: the encoding moved to {} B, {:#018x}", got.0, got.1);
        assert_eq!(binary::decode(&bytes).unwrap(), goal, "{name}: decode is not the source");
    }
}
