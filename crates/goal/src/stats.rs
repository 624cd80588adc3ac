//! Schedule statistics and a simple analytic cost model.

use crate::schedule::{GoalSchedule, RankSchedule};
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

/// A minimal LogGP-flavoured per-task cost assignment used for quick,
/// network-oblivious critical-path estimates (no contention, no matching).
///
/// All values in nanoseconds (G in ns/byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleCostModel {
    /// CPU overhead charged for issuing a send or recv.
    pub o: u64,
    /// Wire latency added to a message path (charged on the recv side).
    pub latency: u64,
    /// Per-byte cost charged to the sender.
    // det-lint: allow(float) — analytic LogGP estimate, reporting aid only — never feeds simulated time
    pub gap_per_byte: f64,
}

impl Default for SimpleCostModel {
    fn default() -> Self {
        // Loosely the paper's AI parameters: o=200ns, L=3700ns, G=0.04ns/B.
        // det-lint: allow(float) — analytic LogGP estimate, reporting aid only — never feeds simulated time
        SimpleCostModel { o: 200, latency: 3700, gap_per_byte: 0.04 }
    }
}

impl SimpleCostModel {
    /// Cost assigned to a single task.
    pub fn task_cost(&self, kind: &TaskKind) -> u64 {
        match *kind {
            TaskKind::Calc { cost } => cost,
            // det-lint: allow(float) — analytic LogGP estimate, reporting aid only — never feeds simulated time
            TaskKind::Send { bytes, .. } => self.o + (bytes as f64 * self.gap_per_byte) as u64,
            TaskKind::Recv { .. } => self.o + self.latency,
        }
    }

    /// Longest weighted path through one rank's DAG (dependency edges only;
    /// message timing across ranks is not modelled).
    pub fn local_critical_path(&self, sched: &RankSchedule) -> u64 {
        let Some(order) = sched.topo_order() else {
            return 0;
        };
        let mut finish = vec![0u64; sched.num_tasks()];
        let mut best = 0u64;
        for id in order {
            let start = sched.preds(id).iter().map(|p| finish[p.task().index()]).max().unwrap_or(0);
            let f = start + self.task_cost(&sched.task(id).kind);
            finish[id.index()] = f;
            best = best.max(f);
        }
        best
    }

    /// The maximum local critical path over all ranks: a lower bound on any
    /// simulated makespan that respects per-rank dependencies.
    pub fn makespan_lower_bound(&self, goal: &GoalSchedule) -> u64 {
        goal.ranks().iter().map(|r| self.local_critical_path(r)).max().unwrap_or(0)
    }
}

/// Earliest-start levels of a rank DAG (level = longest hop count from any
/// root), useful for visualization and tests.
pub fn dag_levels(sched: &RankSchedule) -> Option<Vec<u32>> {
    let order = sched.topo_order()?;
    let mut level = vec![0u32; sched.num_tasks()];
    for id in order {
        for p in sched.preds(id) {
            level[id.index()] = level[id.index()].max(level[p.task().index()] + 1);
        }
    }
    Some(level)
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
    fn critical_path_serial_chain() {
        let mut b = GoalBuilder::new(1);
        let ids: Vec<_> = (0..4).map(|_| b.calc(0, 100)).collect();
        b.chain(0, &ids);
        let g = b.build().unwrap();
        let m = SimpleCostModel::default();
        assert_eq!(m.local_critical_path(g.rank(0)), 400);
    }

    #[test]
    fn critical_path_takes_longest_branch() {
        let mut b = GoalBuilder::new(1);
        let root = b.calc(0, 10);
        let short = b.calc(0, 5);
        let long = b.calc(0, 500);
        let join = b.calc(0, 1);
        b.requires(0, short, root);
        b.requires(0, long, root);
        b.requires(0, join, short);
        b.requires(0, join, long);
        let g = b.build().unwrap();
        let m = SimpleCostModel { o: 0, latency: 0, gap_per_byte: 0.0 };
        assert_eq!(m.local_critical_path(g.rank(0)), 511);
    }

    #[test]
    fn makespan_lower_bound_is_max_over_ranks() {
        let mut b = GoalBuilder::new(2);
        b.calc(0, 10);
        b.calc(1, 99);
        let g = b.build().unwrap();
        let m = SimpleCostModel { o: 0, latency: 0, gap_per_byte: 0.0 };
        assert_eq!(m.makespan_lower_bound(&g), 99);
    }

    #[test]
    fn dag_levels_simple() {
        let g = sample();
        let levels = dag_levels(g.rank(0)).unwrap();
        assert_eq!(levels, vec![0, 1]);
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
