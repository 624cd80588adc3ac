//! Integration + property tests of the GOAL interchange formats: the
//! binary and textual encodings round-trip arbitrary well-formed
//! schedules, and the scheduler executes whatever the formats carry.

use atlahs::core::backends::IdealBackend;
use atlahs::core::Simulation;
use atlahs::goal::{binary, text, GoalBuilder, GoalSchedule, TaskId};
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
    fn decode_survives_truncation_without_panicking(goal in arb_goal(), cut in 0usize..64) {
        let bytes = binary::encode(&goal);
        let cut = cut.min(bytes.len());
        // Truncated input must error, never panic or loop.
        let _ = binary::decode(&bytes[..bytes.len() - cut]);
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
