//! Compact binary GOAL encoding.
//!
//! GOAL schedules are "stored and executed in a compact binary format"
//! (paper §2.1). This module implements a varint-based encoding optimized for
//! the structure of real schedules:
//!
//! * LEB128 varints for all integers (sizes, peers, costs),
//! * one header byte per task with kind + presence flags for tag/stream,
//! * dependency edges grouped per dependent task, delta-encoded
//!   (`a` is non-decreasing; `a - b` is usually a small positive number).
//!
//! The trace-size results of Table 1 / Fig. 9 are measured on this encoding.

use bytes::BufMut;

use crate::error::GoalError;
use crate::schedule::{check_edge, GoalSchedule, RankSchedule, TaskColumns};
use crate::task::{Dep, DepKind, Rank, Task, TaskId, TaskKind};

const MAGIC: &[u8; 8] = b"GOALB1\0\0";

const KIND_CALC: u8 = 0;
const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const FLAG_TAG: u8 = 1 << 2;
const FLAG_STREAM: u8 = 1 << 3;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Cursor over encoded bytes; `pos` doubles as the offset errors report.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    #[cold]
    fn error(&self, msg: impl Into<String>) -> GoalError {
        GoalError::Decode { offset: self.pos, msg: msg.into() }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, GoalError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err(self.error("truncated varint"));
            };
            // The tenth byte holds bit 63 alone: anything above it (or an
            // eleventh byte) would be shifted out of the value.
            if shift >= 64 || (shift == 63 && byte & 0x7e != 0) {
                return Err(self.error("varint overflow"));
            }
            self.pos += 1;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint that must fit the 32-bit `field` it fills.
    #[inline]
    fn varint_u32(&mut self, field: &str) -> Result<u32, GoalError> {
        let offset = self.pos;
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| GoalError::Decode {
            offset,
            msg: format!("{field} {v} does not fit 32 bits"),
        })
    }

    /// Read an element count and bound it by the input left: a rank, task
    /// or edge occupies at least two bytes, so a larger count cannot be
    /// honest and must not reach an allocator.
    fn count(&mut self, what: &str) -> Result<usize, GoalError> {
        let n = self.varint()?;
        let left = self.remaining();
        if n > (left / 2) as u64 {
            return Err(self.error(format!("{what} count {n} exceeds the {left} bytes left")));
        }
        Ok(n as usize)
    }

    #[inline]
    fn task(&mut self) -> Result<Task, GoalError> {
        let Some(&header) = self.data.get(self.pos) else {
            return Err(self.error("truncated task header"));
        };
        self.pos += 1;
        let code = header & 0x3;
        if code > KIND_RECV {
            return Err(self.error(format!("unknown task kind {code}")));
        }
        let payload = self.varint()?;
        let peer = if code == KIND_CALC { 0 } else { self.varint_u32("peer")? };
        let tag = if header & FLAG_TAG != 0 { self.varint_u32("tag")? } else { 0 };
        let stream = if header & FLAG_STREAM != 0 { self.varint_u32("stream")? } else { 0 };
        let kind = match code {
            KIND_CALC => TaskKind::Calc { cost: payload },
            KIND_SEND => TaskKind::Send { bytes: payload, dst: peer, tag },
            _ => TaskKind::Recv { bytes: payload, src: peer, tag },
        };
        Ok(Task { kind, stream })
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode a schedule into the compact binary format.
pub fn encode(goal: &GoalSchedule) -> Vec<u8> {
    // Rough pre-size: ~6 bytes per task + ~3 per edge.
    let cap =
        16 + goal.ranks().iter().map(|r| 6 * r.num_tasks() + 3 * r.num_deps() + 10).sum::<usize>();
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(MAGIC);
    put_varint(&mut out, goal.num_ranks() as u64);
    for sched in goal.ranks() {
        put_varint(&mut out, sched.num_tasks() as u64);
        for t in sched.tasks() {
            encode_task(&mut out, &t);
        }
        put_varint(&mut out, sched.num_deps() as u64);
        let mut prev_a = 0u64;
        for (a, b, k) in sched.dep_edges() {
            // dep_edges yields edges grouped by `a` in increasing order.
            let a = a.0 as u64;
            put_varint(&mut out, a - prev_a);
            prev_a = a;
            let diff = zigzag(a as i64 - b.0 as i64);
            let kind_bit = match k {
                DepKind::Full => 0,
                DepKind::Start => 1,
            };
            put_varint(&mut out, (diff << 1) | kind_bit);
        }
    }
    out
}

fn encode_task(out: &mut Vec<u8>, t: &Task) {
    let (kind, tag) = match t.kind {
        TaskKind::Calc { .. } => (KIND_CALC, 0),
        TaskKind::Send { tag, .. } => (KIND_SEND, tag),
        TaskKind::Recv { tag, .. } => (KIND_RECV, tag),
    };
    let mut header = kind;
    if tag != 0 {
        header |= FLAG_TAG;
    }
    if t.stream != 0 {
        header |= FLAG_STREAM;
    }
    out.put_u8(header);
    match t.kind {
        TaskKind::Calc { cost } => put_varint(out, cost),
        TaskKind::Send { bytes, dst, .. } => {
            put_varint(out, bytes);
            put_varint(out, dst as u64);
        }
        TaskKind::Recv { bytes, src, .. } => {
            put_varint(out, bytes);
            put_varint(out, src as u64);
        }
    }
    if tag != 0 {
        put_varint(out, tag as u64);
    }
    if t.stream != 0 {
        put_varint(out, t.stream as u64);
    }
}

/// Decode a schedule from the compact binary format.
pub fn decode(data: &[u8]) -> Result<GoalSchedule, GoalError> {
    let mut r = Reader { data, pos: 0 };
    if !data.starts_with(MAGIC) {
        return Err(r.error("bad magic"));
    }
    r.pos = MAGIC.len();

    let num_ranks = r.count("rank")?;
    let mut ranks = Vec::with_capacity(num_ranks);
    for rank in 0..num_ranks as Rank {
        let num_tasks = r.count("task")?;
        let mut tasks = TaskColumns::default();
        tasks.reserve(num_tasks);
        for _ in 0..num_tasks {
            tasks.push(r.task()?);
        }
        // Edges are stored grouped by dependent task in increasing order,
        // i.e. as predecessor lists already: count and append.
        let num_deps = r.count("edge")?;
        let mut pred_counts = vec![0u32; num_tasks];
        let mut pred_targets = Vec::with_capacity(num_deps);
        let mut a = 0u64;
        for _ in 0..num_deps {
            a = a.saturating_add(r.varint()?);
            let packed = r.varint()?;
            let kind = if packed & 1 == 1 { DepKind::Start } else { DepKind::Full };
            let b = u32::try_from(a)
                .ok()
                .and_then(|a| i64::from(a).checked_sub(unzigzag(packed >> 1)))
                .and_then(|b| u32::try_from(b).ok());
            let Some(b) = b else {
                return Err(r.error("edge index out of range"));
            };
            check_edge(rank, num_tasks, TaskId(a as u32), TaskId(b))?;
            pred_counts[a as usize] += 1;
            pred_targets.push(Dep::new(TaskId(b), kind));
        }
        ranks.push(RankSchedule::from_pred_lists(rank, tasks, &pred_counts, pred_targets)?);
    }
    if r.remaining() > 0 {
        return Err(r.error("trailing bytes"));
    }
    Ok(GoalSchedule::new(ranks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoalBuilder;

    fn sample() -> GoalSchedule {
        let mut b = GoalBuilder::new(3);
        let c0 = b.calc(0, 1_000_000);
        let s0 = b.send(0, 1, 4096, 7);
        b.requires(0, s0, c0);
        let r1 = b.recv(1, 0, 4096, 7);
        let s1 = b.send_on(1, 2, 128, 0, 3);
        b.irequires(1, s1, r1);
        b.recv(2, 1, 128, 0);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip() {
        let goal = sample();
        let data = encode(&goal);
        let back = decode(&data).unwrap();
        assert_eq!(goal, back);
    }

    #[test]
    fn magic_checked() {
        let mut data = encode(&sample());
        data[0] = b'X';
        assert!(matches!(decode(&data), Err(GoalError::Decode { .. })));
    }

    #[test]
    fn truncation_detected() {
        let data = encode(&sample());
        for cut in [3, 9, data.len() - 1] {
            assert!(decode(&data[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut data = encode(&sample());
        data.push(0);
        assert!(matches!(decode(&data), Err(GoalError::Decode { .. })));
    }

    #[test]
    fn forged_counts_are_rejected_before_allocating() {
        // Each header claims 2^60 elements in a file of a dozen bytes; the
        // counts used to go straight to `Vec::with_capacity`.
        let forged = |prefix: &[u64]| {
            let mut data = MAGIC.to_vec();
            for &v in prefix {
                put_varint(&mut data, v);
            }
            put_varint(&mut data, 1 << 60);
            data.extend_from_slice(&[0, 0]);
            data
        };
        for (what, prefix) in [("rank", &[][..]), ("task", &[1]), ("edge", &[1, 0])] {
            match decode(&forged(prefix)) {
                Err(GoalError::Decode { msg, .. }) => {
                    assert!(msg.starts_with(&format!("{what} count")), "{what}: {msg}")
                }
                other => panic!("{what}: forged count accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_edges_are_typed_errors() {
        let with_edge = |delta: u64, packed: u64| {
            let mut data = MAGIC.to_vec();
            for v in [1, 2, 0, 5, 0, 5, 1, delta, packed] {
                put_varint(&mut data, v); // 1 rank, 2 calcs, 1 edge
            }
            data
        };
        // a = 1, b = 0 decodes; everything else is rejected, not wrapped.
        assert!(decode(&with_edge(1, zigzag(1) << 1)).is_ok());
        assert!(matches!(
            decode(&with_edge(1, zigzag(0) << 1)),
            Err(GoalError::SelfDependency { .. })
        ));
        assert!(matches!(
            decode(&with_edge(2, zigzag(1) << 1)),
            Err(GoalError::UnknownTask { .. })
        ));
        for (delta, diff) in [(u64::MAX, 1), (1, -1 << 40), (1, 2), (1 << 40, 1)] {
            assert!(
                matches!(
                    decode(&with_edge(delta, zigzag(diff) << 1)),
                    Err(GoalError::Decode { .. })
                ),
                "delta {delta} diff {diff}"
            );
        }
    }

    #[test]
    fn empty_schedule_roundtrips() {
        let goal = GoalBuilder::new(4).build().unwrap();
        let back = decode(&encode(&goal)).unwrap();
        assert_eq!(goal, back);
    }

    #[test]
    fn compactness_small_tasks() {
        // A calc with small cost should take 2 bytes (header + varint).
        let mut b = GoalBuilder::new(1);
        b.calc(0, 5);
        let goal = b.build().unwrap();
        let data = encode(&goal);
        // magic(8) + num_ranks(1) + num_tasks(1) + task(2) + num_deps(1)
        assert_eq!(data.len(), 13);
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut r = Reader { data: &buf, pos: 0 };
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn tenth_varint_byte_may_only_carry_bit_63() {
        let read = |last: &[u8]| {
            let data = [&[0x80u8; 9][..], last].concat();
            Reader { data: &data, pos: 0 }.varint()
        };
        assert_eq!(read(&[0x01]), Ok(1 << 63));
        // Bits 1-6 of the tenth byte used to be shifted out silently.
        for last in [&[0x02][..], &[0x7f], &[0x41], &[0x81, 0x00]] {
            match read(last) {
                Err(GoalError::Decode { msg, .. }) => assert_eq!(msg, "varint overflow"),
                other => panic!("tenth byte {last:02x?}: {other:?}"),
            }
        }
    }

    #[test]
    fn fields_wider_than_32_bits_are_rejected_not_truncated() {
        // 1 rank, 1 task: a tagged send on an explicit stream, no edges.
        let send = |peer: u64, tag: u64, stream: u64| {
            let mut data = MAGIC.to_vec();
            data.extend_from_slice(&[1, 1, KIND_SEND | FLAG_TAG | FLAG_STREAM, 64]);
            for v in [peer, tag, stream, 0] {
                put_varint(&mut data, v);
            }
            data
        };
        let max = u32::MAX as u64;
        let goal = decode(&send(max, max, max)).unwrap();
        assert_eq!(
            goal.rank(0).task(TaskId(0)),
            Task::send(u32::MAX, 64, u32::MAX).on_stream(u32::MAX)
        );
        // `2^32 + 1` used to decode as 1. The offset is the field's first byte.
        let wide = (1 << 32) + 1;
        for (field, offset, data) in [
            ("peer", 12, send(wide, 2, 3)),
            ("tag", 13, send(1, wide, 3)),
            ("stream", 14, send(1, 2, wide)),
        ] {
            match decode(&data) {
                Err(GoalError::Decode { offset: at, msg }) => {
                    assert_eq!(at, offset, "{field}");
                    assert!(msg.starts_with(field) && msg.contains("4294967297"), "{msg}");
                }
                other => panic!("{field}: wide value accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
