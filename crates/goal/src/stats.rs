//! Schedule statistics and send/recv matching.

use crate::schedule::GoalSchedule;
use crate::task::TaskKind;

/// Aggregate statistics of a schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    pub ranks: usize,
    pub tasks: usize,
    pub sends: usize,
    pub recvs: usize,
    pub calcs: usize,
    pub deps: usize,
    /// Total bytes across all send tasks.
    pub bytes_sent: u64,
    /// Total nanoseconds across all calc tasks.
    pub calc_ns: u64,
    /// Highest compute-stream id used, plus one (0 for an empty schedule).
    pub streams: u32,
}

impl ScheduleStats {
    /// Compute statistics for a schedule.
    pub fn of(goal: &GoalSchedule) -> Self {
        let mut s = ScheduleStats { ranks: goal.num_ranks(), ..Default::default() };
        for sched in goal.ranks() {
            s.tasks += sched.num_tasks();
            s.deps += sched.num_deps();
            for t in sched.tasks() {
                s.streams = s.streams.max(t.stream + 1);
                match t.kind {
                    TaskKind::Send { bytes, .. } => {
                        s.sends += 1;
                        s.bytes_sent += bytes;
                    }
                    TaskKind::Recv { .. } => s.recvs += 1,
                    TaskKind::Calc { cost } => {
                        s.calcs += 1;
                        s.calc_ns += cost;
                    }
                }
            }
        }
        s
    }
}

/// Check that every send in the schedule has a matching recv (same pair of
/// ranks, same tag, same size) and vice versa. Returns the number of matched
/// pairs, or an error message describing the imbalance with the smallest
/// `(src, dst, tag, bytes)` key — the ordered map makes the reported error a
/// pure function of the schedule (a default-hashed map used to surface an
/// arbitrary imbalance per process).
pub fn check_matching(goal: &GoalSchedule) -> Result<usize, String> {
    use std::collections::BTreeMap;
    // key: (src, dst, tag, bytes) -> count (sends positive, recvs negative)
    let mut pending: BTreeMap<(u32, u32, u32, u64), i64> = BTreeMap::new();
    let mut pairs = 0usize;
    for (r, sched) in goal.ranks().iter().enumerate() {
        for t in sched.tasks() {
            match t.kind {
                TaskKind::Send { bytes, dst, tag } => {
                    let k = (r as u32, dst, tag, bytes);
                    let e = pending.entry(k).or_insert(0);
                    *e += 1;
                    if *e <= 0 {
                        pairs += 1;
                    }
                }
                TaskKind::Recv { bytes, src, tag } => {
                    let k = (src, r as u32, tag, bytes);
                    let e = pending.entry(k).or_insert(0);
                    *e -= 1;
                    if *e >= 0 {
                        pairs += 1;
                    }
                }
                TaskKind::Calc { .. } => {}
            }
        }
    }
    for ((src, dst, tag, bytes), count) in pending {
        if count != 0 {
            return Err(format!(
                "unmatched {}: {src}->{dst} tag {tag} ({bytes} B), imbalance {count}",
                if count > 0 { "send(s)" } else { "recv(s)" }
            ));
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoalBuilder;

    fn sample() -> GoalSchedule {
        let mut b = GoalBuilder::new(2);
        let c = b.calc(0, 1000);
        let s = b.send_on(0, 1, 4096, 3, 1);
        b.requires(0, s, c);
        b.recv(1, 0, 4096, 3);
        b.build().unwrap()
    }

    #[test]
    fn stats_counts() {
        let s = ScheduleStats::of(&sample());
        assert_eq!(s.ranks, 2);
        assert_eq!(s.tasks, 3);
        assert_eq!(s.sends, 1);
        assert_eq!(s.recvs, 1);
        assert_eq!(s.calcs, 1);
        assert_eq!(s.bytes_sent, 4096);
        assert_eq!(s.calc_ns, 1000);
        assert_eq!(s.streams, 2);
        assert_eq!(s.deps, 1);
    }

    #[test]
    fn matching_balanced() {
        assert_eq!(check_matching(&sample()).unwrap(), 1);
    }

    #[test]
    fn matching_detects_missing_recv() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 8, 0);
        let g = b.build().unwrap();
        assert!(check_matching(&g).is_err());
    }

    #[test]
    fn matching_error_is_deterministic() {
        // Two independent imbalances: the report must always name the one
        // with the smallest (src, dst, tag, bytes) key, not whichever a
        // hashed map happens to yield first.
        let mut b = GoalBuilder::new(3);
        b.send(2, 1, 64, 9);
        b.send(0, 1, 8, 5);
        let g = b.build().unwrap();
        for _ in 0..4 {
            let err = check_matching(&g).unwrap_err();
            assert_eq!(err, "unmatched send(s): 0->1 tag 5 (8 B), imbalance 1");
        }
    }

    #[test]
    fn matching_detects_size_mismatch() {
        let mut b = GoalBuilder::new(2);
        b.send(0, 1, 8, 0);
        b.recv(1, 0, 16, 0);
        let g = b.build().unwrap();
        assert!(check_matching(&g).is_err());
    }
}
