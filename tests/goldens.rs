//! The golden table's own checks: every file under `tests/goldens/` has a
//! row in [`golden_table::GOLDENS`], every grid row is the command
//! docs/SCENARIOS.md prints for it, and the cluster-engine rows (whose
//! goldens no older test file owns) reproduce byte for byte. The other
//! rows are checked where their grids' tests live; the table's module
//! docs list which test checks which row.

mod golden_table;

use atlahs_bench::args::Args;
use atlahs_bench::cluster::ClusterGrid;
use atlahs_bench::scenario::ScenarioGrid;
use atlahs_bench::smoke;

#[test]
fn every_golden_has_a_row() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_table::dir())
        .expect("tests/goldens is checked in")
        .map(|e| e.expect("readable entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let rows = golden_table::GOLDENS.iter().map(|(name, ..)| *name);
    let mut tabled: Vec<String> = rows.chain([golden_table::FIDELITY]).map(String::from).collect();
    tabled.sort();
    assert_eq!(on_disk, tabled, "every file under tests/goldens/ needs its row in GOLDENS");
}

/// The `atlahs sweep` and `atlahs cluster` commands docs/SCENARIOS.md
/// prints, as the subcommand and its flags: `\` continuations joined,
/// shell quotes dropped.
fn documented_commands() -> Vec<(String, Args)> {
    let docs = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/SCENARIOS.md"))
        .expect("docs/SCENARIOS.md is checked in");
    let mut commands = Vec::new();
    let mut lines = docs.lines().map(str::trim);
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("atlahs ") else { continue };
        let mut command = rest.to_string();
        while let Some(head) = command.strip_suffix('\\') {
            command = format!("{head} {}", lines.next().unwrap_or_default());
        }
        let (sub, flags) = command.split_once(' ').unwrap_or((&command, ""));
        if sub == "sweep" || sub == "cluster" {
            commands.push((sub.to_string(), smoke::args(&flags.replace('\'', ""))));
        }
    }
    commands
}

/// What a grid command runs: each cell's key and seed (and, on a sweep,
/// whether it records flows), and the branch time.
fn runs(sub: &str, args: &Args) -> Result<(Vec<String>, u64), String> {
    let cells = if sub == "sweep" {
        let cells = ScenarioGrid::from_args(args)?.expand();
        cells.iter().map(|c| format!("{} {:#x} {}", c.key(), c.seed, c.collect_flows)).collect()
    } else {
        let cells = ClusterGrid::from_args(args)?.expand_counted().0;
        cells.iter().map(|c| format!("{} {:#x}", c.key(), c.seed)).collect()
    };
    Ok((cells, args.number("branch-at", 0)?))
}

/// Each grid row's flag line is the command docs/SCENARIOS.md prints to
/// regenerate its golden (the one with `--out tests/goldens/<golden>`),
/// and the fault grid, which has no golden of its own, is one of the
/// documented commands without `--out`: parsed by the CLI's own parser,
/// both expand to the same cells, seeds and branch time.
#[test]
fn documented_grid_commands_are_the_golden_rows() {
    let documented = documented_commands();
    let rows = golden_table::GOLDENS
        .map(|(name, sub, flags)| (name, sub, flags, format!("tests/goldens/{name}")));
    let fault_grid = ("the fault grid", "sweep", smoke::FAULT, String::new());
    for (name, sub, flags, out) in rows.into_iter().chain([fault_grid]) {
        let want = runs(sub, &smoke::args(flags)).expect("the row parses");
        let candidates: Vec<_> = documented
            .iter()
            .filter(|(s, args)| s == sub && args.get_str("out", "") == out)
            .map(|(_, args)| runs(sub, args))
            .collect();
        assert!(
            !candidates.is_empty(),
            "{name}: docs/SCENARIOS.md prints no `atlahs {sub}` for it"
        );
        assert!(
            candidates.iter().any(|got| got.as_ref() == Ok(&want)),
            "{name}: the documented command runs {candidates:?}, the row runs {want:?}"
        );
    }
}

#[test]
fn cluster_smoke_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("cluster_smoke.json");
}

#[test]
fn cluster_fault_smoke_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("cluster_fault_smoke.json");
}
