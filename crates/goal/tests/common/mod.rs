//! What the GOAL integration tests share: a reference binary encoder.

use atlahs_goal::task::TaskKind;
use atlahs_goal::GoalSchedule;

/// Append `v` as an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// The binary format written from `Task` values, one task at a time: a
/// header byte (kind code, bit 2 for a tag, bit 3 for a stream), the
/// payload, the peer of a send or recv, the tag and the stream when not 0,
/// then the edges as delta-coded `(dependent, zigzag(dependent - dependency)
/// << 1 | kind)` pairs.
pub fn encode_per_task(goal: &GoalSchedule) -> Vec<u8> {
    let mut out = b"GOALB1\0\0".to_vec();
    put_varint(&mut out, goal.num_ranks() as u64);
    for sched in goal.ranks() {
        put_varint(&mut out, sched.num_tasks() as u64);
        for t in sched.tasks() {
            let (code, payload, peer, tag) = match t.kind {
                TaskKind::Calc { cost } => (0, cost, None, 0),
                TaskKind::Send { bytes, dst, tag } => (1, bytes, Some(dst), tag),
                TaskKind::Recv { bytes, src, tag } => (2, bytes, Some(src), tag),
            };
            out.push(code | u8::from(tag != 0) << 2 | u8::from(t.stream != 0) << 3);
            put_varint(&mut out, payload);
            let fields = [peer, (tag != 0).then_some(tag), (t.stream != 0).then_some(t.stream)];
            for v in fields.into_iter().flatten() {
                put_varint(&mut out, u64::from(v));
            }
        }
        put_varint(&mut out, sched.num_deps() as u64);
        let mut prev = 0u64;
        for (a, b, kind) in sched.dep_edges() {
            put_varint(&mut out, u64::from(a.0) - prev);
            prev = u64::from(a.0);
            let diff = i64::from(a.0) - i64::from(b.0);
            put_varint(&mut out, (((diff << 1) ^ (diff >> 63)) as u64) << 1 | kind as u64);
        }
    }
    out
}
