//! Property tests: a task payload of any width survives every producer of
//! a schedule — the builder, the binary decoder, the text parser,
//! `merge::compose` and `GoalBuilder::append`.
//!
//! A task record keeps a payload below `u32::MAX` in 32 bits and marks one
//! of `u32::MAX` or more, which its rank's overflow table then holds.
//! Whichever producer made a schedule, each task must read back its own
//! payload, schedules from different producers must compare equal, the
//! arena must count 16 bytes per overflow entry, and the binary encoding
//! must be the per-task encoder's, whose format predates the table.

mod common;

use atlahs_goal::merge::{compose, PlacedJob};
use atlahs_goal::task::{TaskId, TaskKind};
use atlahs_goal::{binary, text, GoalBuilder, GoalSchedule, RankSchedule};
use common::{encode_per_task, put_varint};
use proptest::collection::vec;
use proptest::prelude::*;

/// The payloads at the edge of a record's 32 bits: 0, the largest that
/// stays in the record, the marker value itself, the first past 32 bits
/// and the largest of all.
const EDGES: [u64; 5] = [0, (1 << 32) - 2, (1 << 32) - 1, 1 << 32, u64::MAX];

/// The payload a task reads back, whatever its kind.
fn payload(kind: TaskKind) -> u64 {
    match kind {
        TaskKind::Calc { cost } => cost,
        TaskKind::Send { bytes, .. } | TaskKind::Recv { bytes, .. } => bytes,
    }
}

/// Each rank's payloads, in task order.
fn payloads(sched: &RankSchedule) -> Vec<u64> {
    sched.tasks().map(|t| payload(t.kind)).collect()
}

/// Build a schedule whose rank `r` holds one task per entry of
/// `ranks[r]`, cycling calc, send and recv, alternating streams 0 and 1 on
/// the odd ranks, each task requiring the one before it.
fn build(ranks: &[Vec<u64>]) -> GoalSchedule {
    let n = ranks.len() as u32;
    let mut b = GoalBuilder::new(ranks.len());
    for (r, rank) in ranks.iter().enumerate() {
        let r = r as u32;
        for (i, &p) in rank.iter().enumerate() {
            let stream = r % 2 * (i as u32 % 2);
            let id = match i % 3 {
                0 => b.calc_on(r, p, stream),
                1 => b.send_on(r, (r + 1) % n, p, i as u32, stream),
                _ => b.recv_on(r, (r + n - 1) % n, p, 0, stream),
            };
            if i > 0 {
                b.requires(r, id, TaskId(i as u32 - 1));
            }
        }
    }
    b.build().expect("a valid schedule by construction")
}

/// Check that every task of `goal` reads back its payload, and that each
/// rank's arena counts 13 or 15 bytes per task and 16 per wide payload.
fn check_payloads(goal: &GoalSchedule, want: &[Vec<u64>]) {
    for (r, (sched, want)) in goal.ranks().iter().zip(want).enumerate() {
        assert_eq!(payloads(sched), *want, "rank {r}");
        for (i, &p) in want.iter().enumerate() {
            assert_eq!(payload(sched.kind(TaskId(i as u32))), p);
        }
        let per_task = if sched.stream_ids().len() > 1 { 15 } else { 13 };
        let wide = want.iter().filter(|&&p| p >= u64::from(u32::MAX)).count() as u64;
        assert_eq!(sched.task_arena_bytes(), per_task * want.len() as u64 + 16 * wide);
    }
}

/// `goal` rebuilt rank by rank through [`GoalBuilder::append`].
fn appended(goal: &GoalSchedule) -> GoalSchedule {
    let mut b = GoalBuilder::new(goal.num_ranks());
    for (r, sched) in goal.ranks().iter().enumerate() {
        b.append(r as u32, sched, |_, t| Ok(t)).unwrap();
    }
    b.build().unwrap()
}

/// A payload draw: one of [`EDGES`] five times in six, any other once.
fn wide_payload() -> impl Strategy<Value = u64> {
    (0usize..6, 0..u64::MAX).prop_map(|(pick, v)| EDGES.get(pick).copied().unwrap_or(v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_producer_keeps_each_tasks_payload(ranks in vec(vec(wide_payload(), 0..12), 2..5)) {
        let goal = build(&ranks);
        check_payloads(&goal, &ranks);

        let bytes = binary::encode(&goal);
        prop_assert_eq!(&bytes, &encode_per_task(&goal));
        let decoded = binary::decode(&bytes).expect("encoded bytes decode");
        check_payloads(&decoded, &ranks);
        prop_assert_eq!(&decoded, &goal);
        prop_assert_eq!(binary::encode(&decoded), bytes);

        let parsed = text::parse(&text::to_text(&goal)).expect("emitted text parses");
        prop_assert_eq!(&parsed, &goal);

        prop_assert_eq!(&appended(&goal), &goal);

        // A sole tenant is placed verbatim.
        let nodes: Vec<u32> = (0..ranks.len() as u32).collect();
        let alone = compose(&[PlacedJob::new(&goal, nodes.clone())], ranks.len()).unwrap();
        prop_assert_eq!(&alone, &goal);
        // Two tenants on the same nodes: a zero-cost dummy, then each
        // tenant's tasks, on every node where the job works.
        let twice = [PlacedJob::new(&goal, nodes.clone()), PlacedJob::new(&goal, nodes)];
        let shared = compose(&twice, ranks.len()).unwrap();
        for (sched, want) in shared.ranks().iter().zip(&ranks) {
            let tenant: Vec<u64> = std::iter::once(0).chain(want.iter().copied()).collect();
            let both = if want.is_empty() { vec![] } else { [&tenant[..], &tenant[..]].concat() };
            prop_assert_eq!(payloads(sched), both);
        }
    }
}

/// The bytes the encoder wrote before the record narrowed to 32 bits, for
/// every edge payload on a calc (streams 0 and 1), a send and a recv.
const PINNED: &str = "474f414c42310000020a000001000108feffffff0f0105feffffff0f010100ffffffff0f05\
    ffffffff0f010208808080801001058080808010010300ffffffffffffffffff0105ffffffffffffffffff01010400\
    0502000006feffffff0f000106ffffffff0f0002068080808010000306ffffffffffffffffff01000400";

#[test]
fn edge_payloads_encode_as_before_and_decode_back() {
    let mut b = GoalBuilder::new(2);
    for (i, &p) in EDGES.iter().enumerate() {
        b.calc_on(0, p, i as u32 % 2);
        b.send(0, 1, p, i as u32);
        b.recv(1, 0, p, i as u32);
    }
    let goal = b.build().unwrap();
    let bytes = binary::encode(&goal);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, PINNED);
    assert_eq!(binary::decode(&bytes).unwrap(), goal);
    // The marker value is an ordinary payload on the wire.
    let mut one = b"GOALB1\0\0".to_vec();
    one.extend_from_slice(&[1, 1, 0]);
    put_varint(&mut one, u64::from(u32::MAX));
    one.push(0);
    let marker = binary::decode(&one).unwrap();
    assert_eq!(marker.rank(0).task(TaskId(0)).kind, TaskKind::Calc { cost: u64::from(u32::MAX) });
    assert_eq!(marker.rank(0).task_arena_bytes(), 13 + 16);
}
