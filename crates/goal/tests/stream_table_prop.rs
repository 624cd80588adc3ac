//! Property tests: a rank's stream table survives every way a schedule is
//! made — the builder, the binary codec and the text format.
//!
//! A rank stores the distinct stream ids of its tasks once, ascending, and
//! a per-task slot into that table only when it has two or more. Whatever
//! order streams first appear in, each task must read back its own
//! stream, every slot must index the sorted table, and the binary encoding
//! must be byte for byte what a per-task encoder writes (the encoder's
//! format predates the table and does not depend on it).

mod common;

use atlahs_goal::schedule::MAX_STREAMS;
use atlahs_goal::task::{Stream, TaskId};
use atlahs_goal::{binary, text, GoalBuilder, GoalError, GoalSchedule};
use common::{encode_per_task, put_varint};
use proptest::collection::vec;
use proptest::prelude::*;

/// Check every rank of `goal` against the streams its tasks were given.
fn check_streams(goal: &GoalSchedule, want: &[Vec<Stream>]) {
    for (sched, want) in goal.ranks().iter().zip(want) {
        let mut ids = want.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(sched.stream_ids(), &ids[..]);
        for (i, &stream) in want.iter().enumerate() {
            let id = TaskId(i as u32);
            assert_eq!(sched.task(id).stream, stream);
            assert_eq!(sched.stream(id), stream);
            assert_eq!(sched.stream_ids()[sched.slot(id)], stream);
        }
        // The byte count shows whether a slot column is kept: only on a
        // rank with two or more streams.
        let per_task = if ids.len() > 1 { 15 } else { 13 };
        assert_eq!(sched.task_arena_bytes(), per_task * want.len() as u64);
    }
}

/// A stream draw: 0, `u32::MAX`, one of a few small ids or any other,
/// each a quarter of the time.
fn stream() -> impl Strategy<Value = Stream> {
    (0u8..4, 0..u32::MAX).prop_map(|(pick, v)| match pick {
        0 => 0,
        1 => u32::MAX,
        2 => 1 + v % 5,
        _ => v,
    })
}

/// One rank's streams: one drawn per task, or one stream for all.
fn rank_streams() -> impl Strategy<Value = Vec<Stream>> {
    (0u8..2, vec(stream(), 0..24), stream(), 1usize..24).prop_map(|(one, many, s, n)| {
        if one == 1 {
            vec![s; n]
        } else {
            many
        }
    })
}

/// Build a schedule whose rank `r` holds one task per entry of
/// `streams[r]`, cycling calc, send and recv, each task requiring the one
/// two before it and issue-requiring the first.
fn build(streams: &[Vec<Stream>]) -> GoalSchedule {
    let n = streams.len() as u32;
    let mut b = GoalBuilder::new(streams.len());
    for (r, rank) in streams.iter().enumerate() {
        let r = r as u32;
        for (i, &s) in rank.iter().enumerate() {
            let id = match i % 3 {
                0 => b.calc_on(r, i as u64, s),
                1 => b.send_on(r, (r + 1) % n, 64, i as u32, s),
                _ => b.recv_on(r, (r + n - 1) % n, 64, 0, s),
            };
            if i >= 2 {
                b.requires(r, id, TaskId(i as u32 - 2));
                b.irequires(r, id, TaskId(0));
            }
        }
    }
    b.build().expect("a valid schedule by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_path_keeps_each_tasks_stream(streams in vec(rank_streams(), 1..5)) {
        let goal = build(&streams);
        check_streams(&goal, &streams);

        let bytes = binary::encode(&goal);
        prop_assert_eq!(&bytes, &encode_per_task(&goal));
        let decoded = binary::decode(&bytes).expect("encoded bytes decode");
        check_streams(&decoded, &streams);
        prop_assert_eq!(&decoded, &goal);

        let parsed = text::parse(&text::to_text(&goal)).expect("emitted text parses");
        check_streams(&parsed, &streams);
        prop_assert_eq!(&parsed, &goal);
    }
}

/// `count` distinct streams, one per task: `u32::MAX`, then 0, 1, …,
/// so every new stream but the first sorts in before an earlier one.
fn wide_rank(count: u32) -> Vec<Stream> {
    std::iter::once(u32::MAX).chain(0..count - 1).collect()
}

#[test]
fn max_streams_are_accepted_and_one_more_is_a_typed_error() {
    let limit = MAX_STREAMS as u32;
    let good = wide_rank(limit);
    let goal = {
        let mut b = GoalBuilder::new(1);
        for &s in &good {
            b.calc_on(0, 1, s);
        }
        b.build().unwrap()
    };
    check_streams(&goal, std::slice::from_ref(&good));
    assert_eq!(goal.rank(0).slot(TaskId(0)), MAX_STREAMS - 1);
    let bytes = binary::encode(&goal);
    assert_eq!(bytes, encode_per_task(&goal));
    assert_eq!(binary::decode(&bytes).unwrap(), goal);
    assert_eq!(text::parse(&text::to_text(&goal)).unwrap(), goal);

    // One more stream, on rank 1 of two, through each path.
    let want = Err(GoalError::TooManyStreams { rank: 1 });
    let bad = wide_rank(limit + 1);
    let mut b = GoalBuilder::new(2);
    for &s in &bad {
        b.calc_on(1, 1, s);
    }
    b.calc(0, 1);
    assert_eq!(b.clone().build_unchecked().map(|_| ()), want);
    assert_eq!(b.take_rank(1).map(|_| ()), want);

    let mut bytes = b"GOALB1\0\0".to_vec();
    put_varint(&mut bytes, 2);
    bytes.extend_from_slice(&[1, 0, 1, 0]); // rank 0: one calc of 1 ns, no edges
    put_varint(&mut bytes, bad.len() as u64);
    for &s in &bad {
        bytes.extend_from_slice(&[1 << 3, 1]); // a calc of 1 ns with a stream
        put_varint(&mut bytes, u64::from(s));
    }
    bytes.push(0);
    assert_eq!(binary::decode(&bytes).map(|_| ()), want);

    let mut src = String::from("num_ranks 2\nrank 0 {\nl0: calc 1\n}\nrank 1 {\n");
    for (i, s) in bad.iter().enumerate() {
        src.push_str(&format!("l{i}: calc 1 cpu {s}\n"));
    }
    src.push_str("}\n");
    assert_eq!(text::parse(&src).map(|_| ()), want);
}
