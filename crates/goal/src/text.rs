//! The human-readable textual GOAL format.
//!
//! This mirrors the format used by the original toolchain (Fig. 3 of the
//! paper):
//!
//! ```text
//! num_ranks 2
//! rank 0 {
//! l1: calc 100
//! l2: calc 200 cpu 1
//! l3: send 10b to 1 tag 5
//! l4: recv 10b from 1
//! l2 requires l1
//! l4 irequires l3
//! }
//! rank 1 { ... }
//! ```
//!
//! * labels are arbitrary identifiers; task ids are assigned in order of
//!   appearance,
//! * sizes accept `b`, `kb`, `mb`, `gb` suffixes (powers of 1024; a bare
//!   number means bytes),
//! * `cpu N` moves a task to compute stream `N` (`cpuN` is also accepted),
//! * `tag N` sets the match tag (default 0),
//! * `#` and `//` start comments.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::GoalError;
use crate::schedule::{GoalSchedule, RankSchedule};
use crate::task::{DepKind, Rank, Task, TaskId, TaskKind};

/// Parse a textual GOAL schedule.
pub fn parse(input: &str) -> Result<GoalSchedule, GoalError> {
    Parser::new(input).parse()
}

/// Serialize a schedule to the canonical textual form.
pub fn to_text(goal: &GoalSchedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "num_ranks {}", goal.num_ranks());
    for (r, sched) in goal.ranks().iter().enumerate() {
        let _ = writeln!(out, "rank {r} {{");
        for (i, t) in sched.tasks().enumerate() {
            let _ = write!(out, "l{i}: ");
            match t.kind {
                TaskKind::Calc { cost } => {
                    let _ = write!(out, "calc {cost}");
                }
                TaskKind::Send { bytes, dst, tag } => {
                    let _ = write!(out, "send {bytes}b to {dst}");
                    if tag != 0 {
                        let _ = write!(out, " tag {tag}");
                    }
                }
                TaskKind::Recv { bytes, src, tag } => {
                    let _ = write!(out, "recv {bytes}b from {src}");
                    if tag != 0 {
                        let _ = write!(out, " tag {tag}");
                    }
                }
            }
            if t.stream != 0 {
                let _ = write!(out, " cpu {}", t.stream);
            }
            out.push('\n');
        }
        for (a, b, k) in sched.dep_edges() {
            let word = match k {
                DepKind::Full => "requires",
                DepKind::Start => "irequires",
            };
            let _ = writeln!(out, "l{} {} l{}", a.0, word, b.0);
        }
        out.push_str("}\n");
    }
    out
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { lines: input.lines().enumerate() }
    }

    fn parse(mut self) -> Result<GoalSchedule, GoalError> {
        let mut num_ranks: Option<usize> = None;
        let mut ranks: Vec<RankSchedule> = Vec::new();
        let mut seen: Vec<bool> = Vec::new();

        while let Some((lineno, raw)) = self.lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let lineno = lineno + 1;
            if let Some(rest) = line.strip_prefix("num_ranks") {
                let n: usize = rest.trim().parse().map_err(|_| GoalError::Parse {
                    line: lineno,
                    msg: format!("invalid rank count `{}`", rest.trim()),
                })?;
                num_ranks = Some(n);
                ranks = vec![RankSchedule::default(); n];
                seen = vec![false; n];
            } else if let Some(rest) = line.strip_prefix("rank") {
                let nr = num_ranks.ok_or_else(|| GoalError::Parse {
                    line: lineno,
                    msg: "`rank` block before `num_ranks`".into(),
                })?;
                let rest = rest.trim();
                let rest = rest.strip_suffix('{').ok_or_else(|| GoalError::Parse {
                    line: lineno,
                    msg: "expected `{` after rank number".into(),
                })?;
                let r: usize = rest.trim().parse().map_err(|_| GoalError::Parse {
                    line: lineno,
                    msg: format!("invalid rank number `{}`", rest.trim()),
                })?;
                if r >= nr {
                    return Err(GoalError::Parse {
                        line: lineno,
                        msg: format!("rank {r} out of range (num_ranks {nr})"),
                    });
                }
                if seen[r] {
                    return Err(GoalError::Parse {
                        line: lineno,
                        msg: format!("duplicate block for rank {r}"),
                    });
                }
                seen[r] = true;
                ranks[r] = self.parse_rank_block(r as Rank)?;
            } else {
                return Err(GoalError::Parse {
                    line: lineno,
                    msg: format!("unexpected line `{line}`"),
                });
            }
        }

        if num_ranks.is_none() {
            return Err(GoalError::Parse { line: 0, msg: "missing `num_ranks`".into() });
        }
        let goal = GoalSchedule::new(ranks);
        goal.validate()?;
        Ok(goal)
    }

    fn parse_rank_block(&mut self, rank: Rank) -> Result<RankSchedule, GoalError> {
        let mut labels: BTreeMap<&'a str, TaskId> = BTreeMap::new();
        let mut tasks: Vec<Task> = Vec::new();
        let mut deps: Vec<(TaskId, TaskId, DepKind)> = Vec::new();

        for (lineno, raw) in self.lines.by_ref() {
            let line = strip_comment(raw).trim();
            let lineno = lineno + 1;
            if line.is_empty() {
                continue;
            }
            if line == "}" {
                return RankSchedule::from_parts(rank, tasks, &deps);
            }
            if let Some((label, body)) = line.split_once(':') {
                // task definition
                let label = label.trim();
                let id = TaskId(tasks.len() as u32);
                if labels.insert(label, id).is_some() {
                    return Err(GoalError::Parse {
                        line: lineno,
                        msg: format!("duplicate label `{label}`"),
                    });
                }
                tasks.push(parse_task(body.trim(), lineno)?);
            } else {
                // dependency: `a requires b` / `a irequires b`
                let mut it = line.split_whitespace();
                let (a, word, b) = match (it.next(), it.next(), it.next(), it.next()) {
                    (Some(a), Some(w), Some(b), None) => (a, w, b),
                    _ => {
                        return Err(GoalError::Parse {
                            line: lineno,
                            msg: format!("expected `<label> requires <label>`, got `{line}`"),
                        })
                    }
                };
                let kind = match word {
                    "requires" => DepKind::Full,
                    "irequires" => DepKind::Start,
                    _ => {
                        return Err(GoalError::Parse {
                            line: lineno,
                            msg: format!("unknown dependency keyword `{word}`"),
                        })
                    }
                };
                let ida = *labels.get(a).ok_or_else(|| GoalError::Parse {
                    line: lineno,
                    msg: format!("unknown label `{a}`"),
                })?;
                let idb = *labels.get(b).ok_or_else(|| GoalError::Parse {
                    line: lineno,
                    msg: format!("unknown label `{b}`"),
                })?;
                deps.push((ida, idb, kind));
            }
        }
        Err(GoalError::Parse { line: 0, msg: format!("unterminated block for rank {rank}") })
    }
}

fn strip_comment(line: &str) -> &str {
    let line = match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    };
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_size(tok: &str, line: usize) -> Result<u64, GoalError> {
    let lower = tok.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("kb") {
        (d, 1024)
    } else if let Some(d) = lower.strip_suffix("mb") {
        (d, 1024 * 1024)
    } else if let Some(d) = lower.strip_suffix("gb") {
        (d, 1024 * 1024 * 1024)
    } else if let Some(d) = lower.strip_suffix('b') {
        (d, 1)
    } else {
        (lower.as_str(), 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| GoalError::Parse { line, msg: format!("invalid size `{tok}`") })?;
    Ok(n * mult)
}

fn parse_task(body: &str, line: usize) -> Result<Task, GoalError> {
    let toks: Vec<&str> = body.split_whitespace().collect();
    if toks.is_empty() {
        return Err(GoalError::Parse { line, msg: "empty task body".into() });
    }
    let err = |msg: String| GoalError::Parse { line, msg };
    let parse_u32 = |tok: &str| -> Result<u32, GoalError> {
        tok.parse().map_err(|_| GoalError::Parse { line, msg: format!("invalid number `{tok}`") })
    };

    // Parse trailing `cpu N` / `cpuN` / `tag N` modifiers shared by all kinds.
    let mut stream = 0u32;
    let mut tag = 0u32;
    let mut i;
    let kind = match toks[0] {
        "calc" => {
            if toks.len() < 2 {
                return Err(err("calc requires a cost".into()));
            }
            i = 2;
            TaskKind::Calc { cost: parse_size(toks[1], line)? }
        }
        "send" => {
            if toks.len() < 4 || toks[2] != "to" {
                return Err(err(format!("expected `send <size> to <rank>`, got `{body}`")));
            }
            i = 4;
            TaskKind::Send { bytes: parse_size(toks[1], line)?, dst: parse_u32(toks[3])?, tag: 0 }
        }
        "recv" => {
            if toks.len() < 4 || toks[2] != "from" {
                return Err(err(format!("expected `recv <size> from <rank>`, got `{body}`")));
            }
            i = 4;
            TaskKind::Recv { bytes: parse_size(toks[1], line)?, src: parse_u32(toks[3])?, tag: 0 }
        }
        other => return Err(err(format!("unknown task kind `{other}`"))),
    };

    while i < toks.len() {
        match toks[i] {
            "cpu" => {
                let v = toks.get(i + 1).ok_or_else(|| GoalError::Parse {
                    line,
                    msg: "`cpu` requires a stream number".into(),
                })?;
                stream = parse_u32(v)?;
                i += 2;
            }
            "tag" => {
                let v = toks.get(i + 1).ok_or_else(|| GoalError::Parse {
                    line,
                    msg: "`tag` requires a number".into(),
                })?;
                tag = parse_u32(v)?;
                i += 2;
            }
            t if t.starts_with("cpu") => {
                stream = parse_u32(&t[3..])?;
                i += 1;
            }
            other => {
                return Err(GoalError::Parse { line, msg: format!("unexpected token `{other}`") })
            }
        }
    }

    let kind = match kind {
        TaskKind::Send { bytes, dst, .. } => TaskKind::Send { bytes, dst, tag },
        TaskKind::Recv { bytes, src, .. } => TaskKind::Recv { bytes, src, tag },
        c => c,
    };
    Ok(Task { kind, stream })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoalBuilder;
    use crate::task::Dep;

    const FIG3: &str = r#"
num_ranks 2
rank 0 {
  l1: calc 100
  l2: calc 200 cpu0
  l3: calc 200 cpu 1
  l4: send 10b to 1
  l2 requires l1
  l3 requires l1
  l4 requires l2
  l4 requires l3
}
rank 1 {
  r1: recv 10b from 0
}
"#;

    #[test]
    fn parses_fig3() {
        let goal = parse(FIG3).unwrap();
        assert_eq!(goal.num_ranks(), 2);
        let r0 = goal.rank(0);
        assert_eq!(r0.num_tasks(), 4);
        assert_eq!(r0.task(TaskId(2)).stream, 1);
        assert_eq!(r0.task(TaskId(3)).kind, TaskKind::Send { bytes: 10, dst: 1, tag: 0 });
        assert_eq!(r0.preds(TaskId(3)).len(), 2);
        assert_eq!(goal.rank(1).num_tasks(), 1);
    }

    #[test]
    fn roundtrip_text() {
        let goal = parse(FIG3).unwrap();
        let text = to_text(&goal);
        let goal2 = parse(&text).unwrap();
        assert_eq!(goal, goal2);
    }

    #[test]
    fn parse_is_byte_stable_across_runs() {
        // The parser's label table must not leak any map-layout effects
        // into the schedule: two parses encode to identical bytes.
        let a = crate::binary::encode(&parse(FIG3).unwrap());
        let b = crate::binary::encode(&parse(FIG3).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn size_suffixes() {
        let g = parse("num_ranks 2\nrank 0 {\na: send 2kb to 1\nb: send 1mb to 1\nc: send 3 to 1\n}\nrank 1 {\n}").unwrap();
        assert_eq!(g.rank(0).task(TaskId(0)).kind.bytes(), Some(2048));
        assert_eq!(g.rank(0).task(TaskId(1)).kind.bytes(), Some(1024 * 1024));
        assert_eq!(g.rank(0).task(TaskId(2)).kind.bytes(), Some(3));
    }

    #[test]
    fn tags_parse_and_print() {
        let g = parse("num_ranks 2\nrank 0 {\na: send 8b to 1 tag 9\n}\nrank 1 {\nb: recv 8b from 0 tag 9 cpu 2\n}").unwrap();
        assert_eq!(g.rank(0).task(TaskId(0)).kind, TaskKind::Send { bytes: 8, dst: 1, tag: 9 });
        let t = g.rank(1).task(TaskId(0));
        assert_eq!(t.kind, TaskKind::Recv { bytes: 8, src: 0, tag: 9 });
        assert_eq!(t.stream, 2);
        // round-trips
        let g2 = parse(&to_text(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_ignored() {
        let g =
            parse("num_ranks 1 // trailing\nrank 0 {\n# full-line comment\na: calc 5\n}").unwrap();
        assert_eq!(g.rank(0).num_tasks(), 1);
    }

    #[test]
    fn irequires_roundtrip() {
        let src = "num_ranks 1\nrank 0 {\na: calc 1\nb: calc 2\nb irequires a\n}";
        let g = parse(src).unwrap();
        assert_eq!(g.rank(0).preds(TaskId(1)), &[Dep::new(TaskId(0), DepKind::Start)]);
        let g2 = parse(&to_text(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("num_ranks 1\nrank 0 {\na: calcx 5\n}").unwrap_err();
        assert!(matches!(err, GoalError::Parse { line: 3, .. }), "{err:?}");

        let err = parse("num_ranks 1\nrank 0 {\na requires b\n}").unwrap_err();
        assert!(matches!(err, GoalError::Parse { line: 3, .. }));

        let err = parse("rank 0 {\n}").unwrap_err();
        assert!(matches!(err, GoalError::Parse { line: 1, .. }));
    }

    #[test]
    fn unterminated_block_errors() {
        let err = parse("num_ranks 1\nrank 0 {\na: calc 1\n").unwrap_err();
        assert!(matches!(err, GoalError::Parse { .. }));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = parse("num_ranks 1\nrank 0 {\na: calc 1\na: calc 2\n}").unwrap_err();
        assert!(err.to_string().contains("duplicate label"));
    }

    #[test]
    fn builder_output_matches_parse() {
        let mut b = GoalBuilder::new(2);
        let c = b.calc(0, 42);
        let s = b.send_on(0, 1, 100, 3, 2);
        b.requires(0, s, c);
        b.recv(1, 0, 100, 3);
        let goal = b.build().unwrap();
        let parsed = parse(&to_text(&goal)).unwrap();
        assert_eq!(goal, parsed);
    }
}
