//! The byte-level trace parsers against the `str`-method loops they
//! replaced.
//!
//! `MpiTrace::parse` and `NsysReport::parse` used to walk `str::lines`,
//! Unicode `trim`, `split_whitespace`, `split_once` and `str::parse`. Those
//! loops live on below, verbatim, as test-only oracles. Wherever the oracle
//! rejects an input the parser must reject it too, with the same `line N:
//! …` message, and wherever the parser accepts one the two results must be
//! `==`. The parser may reject more in
//! exactly two documented ways: a `rank N` / `gpu G` header that does not
//! name the next rank or GPU (the oracle filed records under the wrong
//! timeline), and non-ASCII whitespace (the oracle split on it).
//!
//! Inputs: every HPC skeleton and LLM preset at small scale through
//! `to_text`, proptest ASCII mutations of such texts (tabs, CRLF, `+`,
//! repeated keys, values at and past the 32- and 64-bit limits), and
//! arbitrary strings, which all three parsers must answer without a panic
//! and with a `line N: …` error or a result no larger than its headers.
//! Under `ATLAHS_LARGE_GOLDENS=1` the benchmark's full-size inputs are
//! compared too (ci.sh stage 6, release build).

use atlahs_tracers::mpi::{self, HpcAppConfig, MpiOp, MpiRecord, MpiTrace, Scaling};
use atlahs_tracers::nccl::{
    presets, trace_llm, CommDef, GpuTrace, KernelRecord, LlmConfig, NcclKernel, NsysReport,
};
use atlahs_tracers::storage::SpcTrace;
use proptest::prelude::*;

/// The parsers of the parent commit, verbatim.
mod oracle {
    use super::*;

    pub fn mpi(input: &str) -> Result<MpiTrace, String> {
        let mut app = String::new();
        let mut timelines: Vec<Vec<MpiRecord>> = Vec::new();
        for (ln, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if let Some(i) = rest.find("app ") {
                    app = rest[i + 4..].trim().to_string();
                }
                continue;
            }
            if let Some(r) = line.strip_prefix("rank ") {
                let r: usize =
                    r.trim().parse().map_err(|_| format!("line {}: bad rank", ln + 1))?;
                while timelines.len() <= r {
                    timelines.push(Vec::new());
                }
                continue;
            }
            let (name, rest) =
                line.split_once(':').ok_or(format!("line {}: missing colon", ln + 1))?;
            let mut bytes = 0u64;
            let mut dst = 0u32;
            let mut src = 0u32;
            let mut tag = 0u32;
            let mut root = 0u32;
            let mut tstart = 0u64;
            let mut tend = 0u64;
            for tok in rest.split_whitespace() {
                let (k, v) = tok.split_once('=').ok_or(format!("line {}: bad token", ln + 1))?;
                let err = |_| format!("line {}: bad value in {tok}", ln + 1);
                match k {
                    "bytes" => bytes = v.parse().map_err(err)?,
                    "dest" => dst = v.parse().map_err(err)?,
                    "src" => src = v.parse().map_err(err)?,
                    "tag" => tag = v.parse().map_err(err)?,
                    "root" => root = v.parse().map_err(err)?,
                    "tstart" => tstart = v.parse().map_err(err)?,
                    "tend" => tend = v.parse().map_err(err)?,
                    other => return Err(format!("line {}: unknown key {other}", ln + 1)),
                }
            }
            let op = match name {
                "MPI_Send" => MpiOp::Send { bytes, dst, tag },
                "MPI_Recv" => MpiOp::Recv { bytes, src, tag },
                "MPI_Sendrecv" => MpiOp::Sendrecv { bytes, dst, src, tag },
                "MPI_Allreduce" => MpiOp::Allreduce { bytes },
                "MPI_Bcast" => MpiOp::Bcast { bytes, root },
                "MPI_Reduce" => MpiOp::Reduce { bytes, root },
                "MPI_Allgather" => MpiOp::Allgather { bytes },
                "MPI_Reduce_scatter" => MpiOp::ReduceScatter { bytes },
                "MPI_Alltoall" => MpiOp::Alltoall { bytes },
                "MPI_Gather" => MpiOp::Gather { bytes, root },
                "MPI_Scatter" => MpiOp::Scatter { bytes, root },
                "MPI_Barrier" => MpiOp::Barrier,
                other => return Err(format!("line {}: unknown op {other}", ln + 1)),
            };
            let tl = timelines.last_mut().ok_or(format!("line {}: record before rank", ln + 1))?;
            tl.push(MpiRecord { op, tstart, tend });
        }
        Ok(MpiTrace { app, timelines })
    }

    pub fn nsys(input: &str) -> Result<NsysReport, String> {
        let mut app = String::new();
        let mut gpus_per_node = 1u32;
        let mut comms = Vec::new();
        let mut gpus: Vec<GpuTrace> = Vec::new();
        for (ln, line) in input.lines().enumerate() {
            let line = line.trim();
            let err = |m: &str| format!("line {}: {m}", ln + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                // The app name may contain spaces; it is delimited by the
                // " app " and " gpus " markers.
                if let Some(part) = rest.split(" app ").nth(1) {
                    app = part.split(" gpus ").next().unwrap_or("").to_string();
                }
                if let Some(i) = rest.find("gpus_per_node ") {
                    gpus_per_node =
                        rest[i + 14..].trim().parse().map_err(|_| err("bad gpus_per_node"))?;
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("comm ") {
                let (id, list) = rest.split_once(" gpus ").ok_or(err("bad comm line"))?;
                let id: u32 = id.trim().parse().map_err(|_| err("bad comm id"))?;
                let gpus_list: Result<Vec<u32>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                comms.push(CommDef { id, gpus: gpus_list.map_err(|_| err("bad gpu list"))? });
                continue;
            }
            if let Some(rest) = line.strip_prefix("gpu ") {
                let (g, n) = rest.split_once(" node ").ok_or(err("bad gpu line"))?;
                gpus.push(GpuTrace {
                    gpu: g.trim().parse().map_err(|_| err("bad gpu id"))?,
                    node: n.trim().parse().map_err(|_| err("bad node id"))?,
                    records: Vec::new(),
                });
                continue;
            }
            let (name, rest) = line.split_once(':').ok_or(err("missing colon"))?;
            let name = name.strip_prefix("ncclKernel_").ok_or(err("not a kernel"))?;
            let mut bytes = 0u64;
            let mut comm = 0u32;
            let mut stream = 0u32;
            let mut peer = 0u32;
            let mut root = 0u32;
            let mut tstart = 0u64;
            let mut tend = 0u64;
            for tok in rest.split_whitespace() {
                let (k, v) = tok.split_once('=').ok_or(err("bad token"))?;
                match k {
                    "bytes" => bytes = v.parse().map_err(|_| err("bad bytes"))?,
                    "comm" => comm = v.parse().map_err(|_| err("bad comm"))?,
                    "stream" => stream = v.parse().map_err(|_| err("bad stream"))?,
                    "peer" => peer = v.parse().map_err(|_| err("bad peer"))?,
                    "root" => root = v.parse().map_err(|_| err("bad root"))?,
                    "tstart" => tstart = v.parse().map_err(|_| err("bad tstart"))?,
                    "tend" => tend = v.parse().map_err(|_| err("bad tend"))?,
                    _ => return Err(err("unknown key")),
                }
            }
            let kernel = match name {
                "AllReduce" => NcclKernel::AllReduce,
                "Broadcast" => NcclKernel::Broadcast { root },
                "AllGather" => NcclKernel::AllGather,
                "ReduceScatter" => NcclKernel::ReduceScatter,
                "AllToAll" => NcclKernel::AllToAll,
                "Send" => NcclKernel::Send { peer },
                "Recv" => NcclKernel::Recv { peer },
                _ => return Err(err("unknown kernel")),
            };
            let g = gpus.last_mut().ok_or(err("kernel before gpu"))?;
            g.records.push(KernelRecord { kernel, bytes, comm, stream, tstart, tend });
        }
        Ok(NsysReport { app, gpus, comms, gpus_per_node })
    }
}

/// The error of a `rank N` / `gpu G` header that does not name the next
/// rank or GPU — the one way an ASCII input the oracle accepts may fail.
fn is_header_order_error(e: &str) -> bool {
    let what = e.split_once(": ").map_or("", |(_, what)| what);
    (what.starts_with("rank ") || what.starts_with("gpu ")) && what.contains(", expected ")
}

/// `parse` agrees with `oracle` on the ASCII `text`; the verdict, for the
/// caller. Both reject on the same line with the same message, unless the
/// parser stopped earlier at a header out of order.
fn agree<T: PartialEq + std::fmt::Debug>(
    text: &str,
    parse: fn(&str) -> Result<T, String>,
    oracle: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let (new, old) = (parse(text), oracle(text));
    match (&new, &old) {
        (Ok(n), Ok(o)) => assert_eq!(n, o, "accepted differently:\n{text}"),
        (Ok(_), Err(e)) => panic!("accepted what the oracle rejects ({e}):\n{text}"),
        (Err(e), Ok(_)) => {
            assert!(is_header_order_error(e), "rejected what the oracle accepts ({e}):\n{text}")
        }
        (Err(e), Err(o)) if !is_header_order_error(e) => assert_eq!(e, o, "\n{text}"),
        (Err(_), Err(_)) => {}
    }
    new
}

fn agree_mpi(text: &str) -> Result<MpiTrace, String> {
    agree(text, MpiTrace::parse, oracle::mpi)
}

fn agree_nsys(text: &str) -> Result<NsysReport, String> {
    agree(text, NsysReport::parse, oracle::nsys)
}

type AppGen = fn(&HpcAppConfig) -> MpiTrace;

const APPS: [AppGen; 6] =
    [mpi::cloverleaf, mpi::hpcg, mpi::lulesh, mpi::lammps, mpi::icon, mpi::openmx];

fn presets(scale: f64) -> Vec<LlmConfig> {
    vec![
        presets::llama7b_dp16(scale),
        presets::llama7b_dp128(scale),
        presets::llama70b(scale),
        presets::mistral8x7b(scale),
        presets::moe8x13b(scale),
        presets::moe8x70b(scale),
        presets::dlrm(scale),
    ]
}

/// A preset shrunk to one iteration of one microbatch.
fn small(mut cfg: LlmConfig) -> NsysReport {
    cfg.iterations = 1;
    cfg.batch = cfg.dp;
    trace_llm(&cfg)
}

#[test]
fn every_skeleton_and_preset_parses_as_the_oracle_does() {
    for (i, app) in APPS.iter().enumerate() {
        for ranks in [1, 6, 16] {
            let cfg = HpcAppConfig { ranks, iterations: 3, seed: i as u64, ..Default::default() };
            let trace = app(&cfg);
            assert_eq!(agree_mpi(&trace.to_text()).as_ref(), Ok(&trace), "{}", trace.app);
        }
    }
    for cfg in presets(0.001) {
        let report = small(cfg);
        assert_eq!(agree_nsys(&report.to_text()).as_ref(), Ok(&report), "{}", report.app);
    }
}

#[test]
fn large_benchmark_inputs_parse_as_the_oracle_does() {
    if std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("parse_oracle: full-size inputs skipped (set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }
    // `hpc_lgs_rendezvous` and `ai_lgs_trace`, seed 1 (benchmark/src/workloads.rs).
    let lulesh = mpi::lulesh(&HpcAppConfig {
        ranks: 1024,
        iterations: 70,
        scaling: Scaling::Weak,
        compute_ns: 2_000_000,
        halo_bytes: 400_000,
        noise: 0.02,
        seed: 1,
    });
    let text = lulesh.to_text();
    assert_eq!(text.len(), 35_593_746, "the benchmark's trace_bytes");
    assert_eq!(agree_mpi(&text), Ok(lulesh));

    let mut cfg = presets::llama7b_dp128(0.002);
    cfg.seed = 1;
    let report = trace_llm(&cfg);
    assert_eq!(agree_nsys(&report.to_text()), Ok(report));
}

/// Edit `text` line by line: each `(line, kind, arg)` rewrites one line
/// with one of the ASCII liberties the format allows (or does not).
fn mutate(text: &str, edits: &[(u32, u8, u32)]) -> String {
    const WIDE: [&str; 6] =
        ["4294967295", "4294967296", "18446744073709551615", "18446744073709551616", "-1", ""];
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &(at, kind, arg) in edits {
        let i = at as usize % lines.len();
        let line = &mut lines[i];
        let record = line.contains('=');
        *line = match kind {
            0 => line.replace(' ', ["\t", "  ", "\x0B", "\x0C \t"][arg as usize % 4]),
            1 => format!("{line}\r"),
            2 => format!("{}{line}{}", [" ", "\t", "\r", "\x0C"][arg as usize % 4], " \t"),
            3 => line.replace('=', "=+"),
            4 => line.replace('=', "=00"),
            5 if record => format!("{line} bytes={arg} tag={arg}"),
            6 if record => format!(
                "{line} {}={}",
                ["tend", "root", "peer"][arg as usize % 3],
                WIDE[arg as usize % 6]
            ),
            7 if record => line.replacen('=', &format!("={}", WIDE[arg as usize % 6]), 1),
            8 => format!("{line}\n\n\t"),
            9 if record => line.replacen(' ', " junk ", 1),
            10 if record => line.replacen('=', "", 1),
            11 => renumber(line, arg),
            _ => line.clone(),
        };
    }
    lines.join(if edits.len() % 2 == 0 { "\n" } else { "\r\n" })
}

/// `rank N` → `rank N+k`, `gpu G node M` → `gpu G+k node M`, k in 1..=3: a
/// header out of order, which the parser rejects and the oracle misfiles.
fn renumber(line: &str, arg: u32) -> String {
    let mut words: Vec<String> = line.split(' ').map(str::to_string).collect();
    if let ("rank" | "gpu", Some(Ok(v))) =
        (words[0].as_str(), words.get(1).map(|w| w.parse::<u32>()))
    {
        words[1] = (v + 1 + arg % 3).to_string();
    }
    words.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ascii_mutations_parse_as_the_oracle_does(
        app in 0usize..6,
        preset in 0usize..7,
        edits in proptest::collection::vec((0u32..100_000, 0u8..13, 0u32..1_000), 1..8),
    ) {
        let cfg = HpcAppConfig { ranks: 4, iterations: 2, ..Default::default() };
        let text = mutate(&APPS[app](&cfg).to_text(), &edits);
        let _ = agree_mpi(&text);
        let text = mutate(&small(presets(0.0005).swap_remove(preset)).to_text(), &edits);
        let _ = agree_nsys(&text);
    }

    #[test]
    fn arbitrary_strings_get_a_typed_answer(
        pieces in proptest::collection::vec(0usize..PIECES.len(), 0..48),
    ) {
        let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
        let typed = |e: &String| prop_assert!(e.starts_with("line "), "untyped error {e:?}");
        match MpiTrace::parse(&text) {
            Ok(t) => prop_assert!(t.timelines.len() <= text.matches("rank ").count()),
            Err(e) => typed(&e),
        }
        match NsysReport::parse(&text) {
            Ok(r) => prop_assert!(r.gpus.len() <= text.matches("gpu ").count()),
            Err(e) => typed(&e),
        }
        match SpcTrace::parse(&text) {
            Ok(t) => prop_assert!(t.len() <= text.lines().count()),
            Err(e) => typed(&e),
        }
        // On ASCII the oracles apply too — the MPI one only where it would
        // not allocate a timeline for every rank number up to a huge one.
        if text.is_ascii() {
            let _ = agree_nsys(&text);
            let small_ranks = text.lines().all(|l| {
                l.trim().strip_prefix("rank ").and_then(|r| r.trim().parse::<u64>().ok()) < Some(1000)
            });
            if small_ranks {
                let _ = agree_mpi(&text);
            }
        }
    }
}

/// Fragments of all three formats, their numbers at the edges of the
/// integer types, and every kind of whitespace, ASCII or not.
const PIECES: [&str; 52] = [
    "rank ",
    "gpu ",
    " node ",
    "comm ",
    " gpus ",
    "#",
    " app ",
    "gpus_per_node ",
    "MPI_Send",
    "MPI_Barrier",
    "ncclKernel_AllReduce",
    "ncclKernel_Send",
    ":",
    "=",
    ",",
    "bytes",
    "tag",
    "dest",
    "peer",
    "tend",
    "0",
    "1",
    "7",
    "+",
    "-",
    ".",
    "e9",
    "nan",
    "inf",
    "4294967296",
    "18446744073709551616",
    "99999999999",
    "R",
    "W",
    " ",
    " ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "\r",
    "\x0B",
    "\x0C",
    "\u{a0}",
    "\u{85}",
    "\u{2028}",
    "\u{3000}",
    "é",
    "\0",
    "\u{10FFFF}",
    "x",
    "0,1,512,W,0.5\n",
];
