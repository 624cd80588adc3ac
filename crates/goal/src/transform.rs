//! Schedule transformations for "what-if" studies (paper §7).
//!
//! The paper's discussion section describes adapting traces gathered on
//! one hardware platform to another by scaling all `calc` costs by a
//! profiled factor, and restructuring rank placements. These operate on
//! the GOAL schedule itself, so they compose with any tracer and any
//! backend.

use crate::builder::GoalBuilder;
use crate::error::GoalError;
use crate::schedule::GoalSchedule;
use crate::task::{Rank, Task, TaskKind};

/// Scale every `calc` cost by `factor` (rounding to the nearest ns).
///
/// This is the paper's cross-platform adaptation: profile both systems,
/// derive the relative compute speed, and replay the trace "as if" it ran
/// on the other machine. Sends/recvs are untouched — the network is the
/// backend's business.
///
/// ```
/// use atlahs_goal::{GoalBuilder, transform};
/// let mut b = GoalBuilder::new(1);
/// b.calc(0, 1000);
/// let goal = b.build().unwrap();
/// let faster = transform::scale_calcs(&goal, 0.5);
/// assert_eq!(faster.rank(0).task(atlahs_goal::TaskId(0)).kind,
///            atlahs_goal::TaskKind::Calc { cost: 500 });
/// ```
// det-lint: allow(float) — what-if scale factor applied once at transform time, fixed-order ops
pub fn scale_calcs(goal: &GoalSchedule, factor: f64) -> GoalSchedule {
    // det-lint: allow(float) — what-if scale factor applied once at transform time, fixed-order ops
    assert!(factor >= 0.0 && factor.is_finite(), "factor must be finite and non-negative");
    map_tasks(goal, |t| match t.kind {
        TaskKind::Calc { cost } => Task {
            // det-lint: allow(float) — what-if scale factor applied once at transform time, fixed-order ops
            kind: TaskKind::Calc { cost: (cost as f64 * factor).round() as u64 },
            stream: t.stream,
        },
        _ => *t,
    })
}

/// Scale every message size by `factor` (e.g. to model a precision change
/// from fp32 to bf16 gradients, or message aggregation).
// det-lint: allow(float) — what-if scale factor applied once at transform time, fixed-order ops
pub fn scale_message_bytes(goal: &GoalSchedule, factor: f64) -> GoalSchedule {
    // det-lint: allow(float) — what-if scale factor applied once at transform time, fixed-order ops
    assert!(factor >= 0.0 && factor.is_finite(), "factor must be finite and non-negative");
    // det-lint: allow(float) — what-if scale factor applied once at transform time, fixed-order ops
    let scale = |b: u64| ((b as f64 * factor).round() as u64).max(1);
    map_tasks(goal, |t| match t.kind {
        TaskKind::Send { bytes, dst, tag } => {
            Task { kind: TaskKind::Send { bytes: scale(bytes), dst, tag }, stream: t.stream }
        }
        TaskKind::Recv { bytes, src, tag } => {
            Task { kind: TaskKind::Recv { bytes: scale(bytes), src, tag }, stream: t.stream }
        }
        _ => *t,
    })
}

/// Renumber ranks: `mapping[old] = new`. The mapping must be a bijection
/// onto `0..num_ranks` (use [`crate::merge::place`] to embed a schedule
/// into a *larger* cluster instead).
pub fn permute_ranks(goal: &GoalSchedule, mapping: &[Rank]) -> Result<GoalSchedule, GoalError> {
    let n = goal.num_ranks();
    if mapping.len() != n {
        return Err(GoalError::Compose {
            msg: format!("mapping covers {} ranks, schedule has {n}", mapping.len()),
        });
    }
    let mut seen = vec![false; n];
    for &m in mapping {
        if m as usize >= n || std::mem::replace(&mut seen[m as usize], true) {
            return Err(GoalError::Compose {
                msg: format!("mapping is not a bijection onto 0..{n}"),
            });
        }
    }
    let mut b = GoalBuilder::new(n);
    for (old, sched) in goal.ranks().iter().enumerate() {
        b.append(mapping[old], sched, |_, t| {
            let kind = match t.kind {
                TaskKind::Send { bytes, dst, tag } => {
                    TaskKind::Send { bytes, dst: mapping[dst as usize], tag }
                }
                TaskKind::Recv { bytes, src, tag } => {
                    TaskKind::Recv { bytes, src: mapping[src as usize], tag }
                }
                calc => calc,
            };
            Ok(Task { kind, stream: t.stream })
        })?;
    }
    b.build_unchecked()
}

fn map_tasks(goal: &GoalSchedule, f: impl Fn(&Task) -> Task) -> GoalSchedule {
    let mut b = GoalBuilder::new(goal.num_ranks());
    for (r, sched) in goal.ranks().iter().enumerate() {
        b.append(r as Rank, sched, |_, t| Ok(f(&t))).expect("the mapping cannot fail");
    }
    b.build_unchecked().expect("structure unchanged by task mapping")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoalBuilder;
    use crate::stats::ScheduleStats;
    use crate::task::TaskId;

    fn sample() -> GoalSchedule {
        let mut b = GoalBuilder::new(3);
        let c = b.calc(0, 1000);
        let s = b.send(0, 1, 4096, 5);
        b.requires(0, s, c);
        b.recv(1, 0, 4096, 5);
        b.calc_on(2, 777, 2);
        b.build().unwrap()
    }

    #[test]
    fn scale_calcs_scales_only_calcs() {
        let g = sample();
        let half = scale_calcs(&g, 0.5);
        assert_eq!(half.rank(0).task(TaskId(0)).kind, TaskKind::Calc { cost: 500 });
        assert_eq!(
            half.rank(0).task(TaskId(1)).kind,
            TaskKind::Send { bytes: 4096, dst: 1, tag: 5 }
        );
        // Streams and dependencies survive.
        assert_eq!(half.rank(2).task(TaskId(0)).stream, 2);
        assert_eq!(half.rank(0).preds(TaskId(1)).len(), 1);
    }

    #[test]
    fn scale_calcs_identity_at_one() {
        let g = sample();
        assert_eq!(scale_calcs(&g, 1.0), g);
    }

    #[test]
    fn scale_messages_preserves_matching() {
        let g = sample();
        let bigger = scale_message_bytes(&g, 2.0);
        crate::stats::check_matching(&bigger).unwrap();
        let st = ScheduleStats::of(&bigger);
        assert_eq!(st.bytes_sent, 8192);
    }

    #[test]
    fn scale_messages_floors_at_one_byte() {
        let g = sample();
        let tiny = scale_message_bytes(&g, 1e-9);
        let st = ScheduleStats::of(&tiny);
        assert_eq!(st.bytes_sent, 1);
    }

    #[test]
    fn permute_ranks_remaps_peers() {
        let g = sample();
        // 0 -> 2, 1 -> 0, 2 -> 1
        let p = permute_ranks(&g, &[2, 0, 1]).unwrap();
        assert_eq!(p.rank(2).task(TaskId(1)).kind, TaskKind::Send { bytes: 4096, dst: 0, tag: 5 });
        assert_eq!(p.rank(0).task(TaskId(0)).kind, TaskKind::Recv { bytes: 4096, src: 2, tag: 5 });
        crate::stats::check_matching(&p).unwrap();
    }

    #[test]
    fn permute_rejects_non_bijections() {
        let g = sample();
        assert!(permute_ranks(&g, &[0, 0, 1]).is_err(), "duplicate");
        assert!(permute_ranks(&g, &[0, 1]).is_err(), "wrong length");
        assert!(permute_ranks(&g, &[0, 1, 9]).is_err(), "out of range");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_factor_rejected() {
        scale_calcs(&sample(), -1.0);
    }

    #[test]
    fn double_permutation_round_trips() {
        let g = sample();
        let p = permute_ranks(&g, &[1, 2, 0]).unwrap();
        let back = permute_ranks(&p, &[2, 0, 1]).unwrap();
        assert_eq!(back, g);
    }
}
