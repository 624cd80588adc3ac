//! Property tests: the GOAL text and binary codecs are identities on
//! arbitrary valid schedules.
//!
//! The generator draws random schedules directly from the codec's input
//! domain — any mix of calc/send/recv tasks on arbitrary streams with
//! arbitrary tags, plus random *backward* dependency edges (a task may
//! only require an earlier task, which guarantees acyclicity by
//! construction). Schedules are not required to have matched send/recv
//! pairs: the codecs must round-trip unmatched traffic too (a schedule
//! fragment is still a schedule).

use atlahs_goal::builder::GoalBuilder;
use atlahs_goal::task::{Task, TaskKind};
use atlahs_goal::{binary, text, GoalSchedule};
use proptest::collection::vec;
use proptest::prelude::*;

/// Raw material for one task: (kind selector, bytes/cost, peer draw, tag
/// draw, stream draw, dependency draws).
type RawTask = (u8, u64, u32, u32, u32, Vec<u32>);

/// Deterministically assemble a valid schedule from raw draws.
fn assemble(num_ranks: usize, raw: Vec<RawTask>) -> GoalSchedule {
    assemble_with_idle(num_ranks, None, raw)
}

/// [`assemble`], but rank `idle` receives no task (it stays a valid peer).
fn assemble_with_idle(num_ranks: usize, idle: Option<usize>, raw: Vec<RawTask>) -> GoalSchedule {
    let mut b = GoalBuilder::new(num_ranks);
    let mut per_rank_count = vec![0u32; num_ranks];
    let busy: Vec<u32> = (0..num_ranks).filter(|&r| Some(r) != idle).map(|r| r as u32).collect();
    for (i, (kind_sel, size, peer_draw, tag_draw, stream_draw, dep_draws)) in
        raw.into_iter().enumerate()
    {
        let rank = busy[i % busy.len()];
        // Tags span one- to four-byte varints; streams small (realistic).
        let tag = tag_draw % (1 << 24);
        let stream = stream_draw % 3;
        // Sends/recvs need a distinct peer; degenerate 1-rank schedules
        // only get calcs.
        let kind = if num_ranks == 1 {
            TaskKind::Calc { cost: size }
        } else {
            let peer = {
                let p = peer_draw % (num_ranks as u32 - 1);
                if p >= rank {
                    p + 1
                } else {
                    p
                }
            };
            match kind_sel % 3 {
                0 => TaskKind::Calc { cost: size },
                1 => TaskKind::Send { bytes: size, dst: peer, tag },
                _ => TaskKind::Recv { bytes: size, src: peer, tag },
            }
        };
        let id = b.add_task(rank, Task { kind, stream });
        // Backward edges only: acyclic by construction. Alternate edge
        // kinds so both `requires` and `irequires` round-trip.
        let earlier = per_rank_count[rank as usize];
        for (k, draw) in dep_draws.into_iter().enumerate() {
            if earlier == 0 {
                break;
            }
            let dep = atlahs_goal::task::TaskId(draw % earlier);
            if k % 2 == 0 {
                b.requires(rank, id, dep);
            } else {
                b.irequires(rank, id, dep);
            }
        }
        per_rank_count[rank as usize] += 1;
    }
    b.build().expect("assembled schedule is valid by construction")
}

/// LEB128 as the codec writes it; the test's own copy, so that it can write
/// values the encoder never would.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn raw_task() -> impl Strategy<Value = RawTask> {
    (0u8..255, 0u64..(1 << 40), 0u32..1024, 0u32..(1 << 30), 0u32..64, vec(0u32..1024, 0..3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn text_codec_is_identity(num_ranks in 1usize..5, raw in vec(raw_task(), 0..40)) {
        let goal = assemble(num_ranks, raw);
        let emitted = text::to_text(&goal);
        let parsed = text::parse(&emitted).expect("emitted text must parse");
        prop_assert_eq!(&parsed, &goal);
        // Emission is canonical: a second round trip is a fixed point.
        prop_assert_eq!(text::to_text(&parsed), emitted);
    }

    #[test]
    fn binary_codec_is_identity(num_ranks in 1usize..5, raw in vec(raw_task(), 0..40)) {
        let goal = assemble(num_ranks, raw);
        let encoded = binary::encode(&goal);
        let decoded = binary::decode(&encoded).expect("encoded bytes must decode");
        prop_assert_eq!(&decoded, &goal);
        // Encoding is canonical too.
        prop_assert_eq!(binary::encode(&decoded), encoded);
    }

    #[test]
    fn decode_into_columns_preserves_every_accessor(
        num_ranks in 2usize..5,
        idle in 0usize..5,
        raw in vec(raw_task(), 8..40),
    ) {
        // The decoder fills the task columns and the predecessor CSR
        // straight from the byte stream, and the successor index derived
        // from them must match the source's. Besides `==`, read everything
        // back through the public accessors, on schedules that are sure to
        // hold an empty rank and a tagged send on stream 1 with a
        // `requires` and an `irequires` edge (8+ tasks on at most 4 ranks:
        // the last has a predecessor).
        let mut raw = raw;
        let last = raw.last_mut().expect("at least 8 tasks");
        (last.0, last.3, last.4, last.5) = (1, last.3 | 1, 1, vec![0, 0]);
        let goal = assemble_with_idle(num_ranks, Some(idle % num_ranks), raw);
        let decoded = binary::decode(&binary::encode(&goal)).expect("encoded bytes must decode");
        prop_assert_eq!(&decoded, &goal);
        prop_assert!(decoded.rank((idle % num_ranks) as u32).is_empty());
        for (got, want) in decoded.ranks().iter().zip(goal.ranks()) {
            prop_assert_eq!(got.num_tasks(), want.num_tasks());
            prop_assert_eq!(got.stream_ids(), want.stream_ids());
            prop_assert_eq!(got.indegrees(), want.indegrees());
            prop_assert_eq!(got.roots().collect::<Vec<_>>(), want.roots().collect::<Vec<_>>());
            prop_assert_eq!(got.topo_order(), want.topo_order());
            let (got_succs, want_succs) = (got.successors(), want.successors());
            for i in 0..want.num_tasks() {
                let id = atlahs_goal::task::TaskId(i as u32);
                prop_assert_eq!(got.task(id), want.task(id));
                prop_assert_eq!(got.preds(id), want.preds(id));
                prop_assert_eq!(got_succs.of(id), want_succs.of(id));
            }
        }
    }

    #[test]
    fn overwritten_bytes_never_panic(
        num_ranks in 2usize..5,
        raw in vec(raw_task(), 1..24),
        at in 0usize..4096,
        patch in vec(0u16..256, 1..12),
    ) {
        // Overwrite a run of bytes past the magic with arbitrary ones —
        // continuation bits included, so varints grow, shrink and overflow.
        // Decoding must return, and whatever it accepts it must have read
        // faithfully: the accepted schedule survives its own round trip.
        let mut data = binary::encode(&assemble(num_ranks, raw));
        let at = 8 + at % (data.len() - 8);
        for (slot, byte) in data[at..].iter_mut().zip(patch) {
            *slot = byte as u8;
        }
        if let Ok(accepted) = binary::decode(&data) {
            let again = binary::decode(&binary::encode(&accepted)).expect("re-encoded bytes decode");
            prop_assert_eq!(again, accepted);
        }
    }

    #[test]
    fn wide_fields_are_rejected_not_truncated(
        bytes in 0u64..u64::MAX,
        fields in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        keep_wide in 0u8..8,
    ) {
        // A hand-written file holding one send whose peer, tag and stream
        // varints are drawn from the full 64-bit range (each narrowed to
        // 32 bits unless its `keep_wide` bit is set). The decoder either
        // returns exactly these values or names the first field that does
        // not fit; it never keeps the low 32 bits of a wider number.
        let narrow = |v: u64, bit: u8| if keep_wide >> bit & 1 == 1 { v } else { v & 0xffff_ffff };
        let (peer, tag, stream) = (narrow(fields.0, 0), narrow(fields.1, 1), narrow(fields.2, 2));
        let mut data = binary::encode(&GoalBuilder::new(0).build().unwrap());
        data.truncate(8); // the magic
        data.extend_from_slice(&[1, 1, 1 | 1 << 2 | 1 << 3]); // 1 rank, 1 task: tagged send on a stream
        for v in [bytes, peer, tag, stream, 0] {
            put_varint(&mut data, v);
        }
        let wide = [("peer", peer), ("tag", tag), ("stream", stream)]
            .into_iter()
            .find(|&(_, v)| v > u32::MAX as u64);
        match (binary::decode(&data), wide) {
            (Ok(goal), None) => {
                let want = Task {
                    kind: TaskKind::Send { bytes, dst: peer as u32, tag: tag as u32 },
                    stream: stream as u32,
                };
                prop_assert_eq!(goal.rank(0).task(atlahs_goal::task::TaskId(0)), want);
            }
            (Err(atlahs_goal::GoalError::Decode { msg, .. }), Some((field, _))) => {
                prop_assert!(msg.starts_with(field), "{}: {}", field, msg);
            }
            (other, wide) => prop_assert!(false, "wide field {:?}, decoder said {:?}", wide, other),
        }
    }

    #[test]
    fn codecs_agree_through_each_other(num_ranks in 2usize..4, raw in vec(raw_task(), 0..24)) {
        // text -> schedule -> binary -> schedule -> text is still the
        // same document: the two codecs share one canonical form.
        let goal = assemble(num_ranks, raw);
        let via_binary = binary::decode(&binary::encode(&goal)).unwrap();
        prop_assert_eq!(text::to_text(&via_binary), text::to_text(&goal));
    }
}
