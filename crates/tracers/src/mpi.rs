//! liballprof-style MPI traces and HPC application skeletons.
//!
//! The tracer records every MPI call with its arguments and start/end
//! timestamps (ns); Schedgen later infers computation from the gaps between
//! consecutive operations (paper §3.1.1). One trace holds one timeline per
//! rank.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::scan;

/// One MPI operation as recorded by the PMPI wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiOp {
    Send {
        bytes: u64,
        dst: u32,
        tag: u32,
    },
    Recv {
        bytes: u64,
        src: u32,
        tag: u32,
    },
    /// Combined exchange (MPI_Sendrecv).
    Sendrecv {
        bytes: u64,
        dst: u32,
        src: u32,
        tag: u32,
    },
    Allreduce {
        bytes: u64,
    },
    Bcast {
        bytes: u64,
        root: u32,
    },
    Reduce {
        bytes: u64,
        root: u32,
    },
    Allgather {
        bytes: u64,
    },
    ReduceScatter {
        bytes: u64,
    },
    Alltoall {
        bytes: u64,
    },
    Gather {
        bytes: u64,
        root: u32,
    },
    Scatter {
        bytes: u64,
        root: u32,
    },
    Barrier,
}

/// A timed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiRecord {
    pub op: MpiOp,
    pub tstart: u64,
    pub tend: u64,
}

/// A full application trace: one record timeline per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiTrace {
    pub app: String,
    pub timelines: Vec<Vec<MpiRecord>>,
}

impl MpiTrace {
    pub fn num_ranks(&self) -> usize {
        self.timelines.len()
    }

    /// Total recorded operations.
    pub fn num_records(&self) -> usize {
        self.timelines.iter().map(|t| t.len()).sum()
    }

    /// Serialize in the (line-oriented) liballprof-like text format — this
    /// is the artifact whose size Table 1 reports.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# liballprof trace: {} ranks, app {}", self.num_ranks(), self.app);
        for (r, tl) in self.timelines.iter().enumerate() {
            let _ = writeln!(out, "rank {r}");
            for rec in tl {
                let (name, args) = match rec.op {
                    MpiOp::Send { bytes, dst, tag } => {
                        ("MPI_Send", format!("bytes={bytes} dest={dst} tag={tag}"))
                    }
                    MpiOp::Recv { bytes, src, tag } => {
                        ("MPI_Recv", format!("bytes={bytes} src={src} tag={tag}"))
                    }
                    MpiOp::Sendrecv { bytes, dst, src, tag } => {
                        ("MPI_Sendrecv", format!("bytes={bytes} dest={dst} src={src} tag={tag}"))
                    }
                    MpiOp::Allreduce { bytes } => ("MPI_Allreduce", format!("bytes={bytes}")),
                    MpiOp::Bcast { bytes, root } => {
                        ("MPI_Bcast", format!("bytes={bytes} root={root}"))
                    }
                    MpiOp::Reduce { bytes, root } => {
                        ("MPI_Reduce", format!("bytes={bytes} root={root}"))
                    }
                    MpiOp::Allgather { bytes } => ("MPI_Allgather", format!("bytes={bytes}")),
                    MpiOp::ReduceScatter { bytes } => {
                        ("MPI_Reduce_scatter", format!("bytes={bytes}"))
                    }
                    MpiOp::Alltoall { bytes } => ("MPI_Alltoall", format!("bytes={bytes}")),
                    MpiOp::Gather { bytes, root } => {
                        ("MPI_Gather", format!("bytes={bytes} root={root}"))
                    }
                    MpiOp::Scatter { bytes, root } => {
                        ("MPI_Scatter", format!("bytes={bytes} root={root}"))
                    }
                    MpiOp::Barrier => ("MPI_Barrier", String::new()),
                };
                let _ = writeln!(out, "{name}: {args} tstart={} tend={}", rec.tstart, rec.tend);
            }
        }
        out
    }

    /// Parse the text format back (round-trip of [`MpiTrace::to_text`]).
    ///
    /// The grammar is what `to_text` writes, read line by line:
    ///
    /// * blank lines are skipped; a line starting with `#` is a comment,
    ///   and the text after its first `app ` (trimmed) names the app;
    /// * `rank N` opens the timeline of rank `N`, which must be the next
    ///   rank: `N` equals the number of `rank` headers before it, so ranks
    ///   come in order from 0 and every later record belongs to `N`;
    /// * `NAME: key=value …` is a record of the last opened rank, `NAME`
    ///   one of the `MPI_*` ops `to_text` writes, keys from `bytes`,
    ///   `dest`, `src`, `tag`, `root`, `tstart`, `tend` (absent keys are 0,
    ///   a repeated key keeps its last value);
    /// * numbers are decimal with an optional leading `+`; `bytes`,
    ///   `tstart` and `tend` must fit 64 bits, the others 32;
    /// * whitespace is ASCII (space, `\t`, `\x0B`, `\x0C`, `\r`; lines end
    ///   at `\n`) — other Unicode whitespace does not separate anything.
    ///
    /// Anything else is an error `line N: …` naming the first bad line.
    pub fn parse(input: &str) -> Result<MpiTrace, String> {
        let mut app = String::new();
        let mut timelines: Vec<Vec<MpiRecord>> = Vec::new();
        for line in scan::lines(input) {
            if let Some(rest) = line.text.strip_prefix('#') {
                if let Some(i) = rest.find("app ") {
                    app = scan::trim(&rest[i + 4..]).to_string();
                }
                continue;
            }
            if let Some(r) = line.text.strip_prefix("rank ") {
                let r: usize = scan::number(r).ok_or_else(|| line.err("bad rank"))?;
                if r != timelines.len() {
                    return Err(line.err(format_args!("rank {r}, expected {}", timelines.len())));
                }
                timelines.push(Vec::new());
                continue;
            }
            let (name, fields) = line.record().ok_or_else(|| line.err("missing colon"))?;
            let (mut bytes, mut tstart, mut tend) = (0u64, 0u64, 0u64);
            let (mut dst, mut src, mut tag, mut root) = (0u32, 0u32, 0u32, 0u32);
            for field in fields {
                let f = field.map_err(|_| line.err("bad token"))?;
                let err = || line.err(format_args!("bad value in {}", f.token));
                match f.key {
                    "bytes" => bytes = f.value().ok_or_else(err)?,
                    "dest" => dst = f.value().ok_or_else(err)?,
                    "src" => src = f.value().ok_or_else(err)?,
                    "tag" => tag = f.value().ok_or_else(err)?,
                    "root" => root = f.value().ok_or_else(err)?,
                    "tstart" => tstart = f.value().ok_or_else(err)?,
                    "tend" => tend = f.value().ok_or_else(err)?,
                    other => return Err(line.err(format_args!("unknown key {other}"))),
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
                other => return Err(line.err(format_args!("unknown op {other}"))),
            };
            let tl = timelines.last_mut().ok_or_else(|| line.err("record before rank"))?;
            tl.push(MpiRecord { op, tstart, tend });
        }
        Ok(MpiTrace { app, timelines })
    }
}

/// Weak vs strong scaling of the skeleton generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Problem size per rank fixed (compute per rank constant).
    Weak,
    /// Total problem size fixed (compute per rank shrinks with ranks).
    Strong,
}

/// Parameters shared by the HPC skeleton generators.
#[derive(Debug, Clone)]
pub struct HpcAppConfig {
    pub ranks: usize,
    pub iterations: u32,
    pub scaling: Scaling,
    /// Base per-rank compute per iteration at 1 rank-equivalent load (ns).
    pub compute_ns: u64,
    /// Bytes exchanged with each neighbour per iteration (weak-scaling base).
    pub halo_bytes: u64,
    /// Relative computation noise (recorded in the trace timestamps).
    pub noise: f64,
    pub seed: u64,
}

impl Default for HpcAppConfig {
    fn default() -> Self {
        HpcAppConfig {
            ranks: 8,
            iterations: 10,
            scaling: Scaling::Weak,
            compute_ns: 2_000_000,
            halo_bytes: 64 * 1024,
            noise: 0.02,
            seed: 1,
        }
    }
}

impl HpcAppConfig {
    fn compute_per_rank(&self) -> u64 {
        match self.scaling {
            Scaling::Weak => self.compute_ns,
            Scaling::Strong => (self.compute_ns as f64 / self.ranks as f64).ceil() as u64,
        }
    }
}

/// Internal builder that tracks one clock per rank and inserts the "gap"
/// computation the tracer would observe.
struct Timeline {
    clocks: Vec<u64>,
    timelines: Vec<Vec<MpiRecord>>,
    rng: StdRng,
    noise: f64,
}

impl Timeline {
    fn new(ranks: usize, seed: u64, noise: f64) -> Self {
        Timeline {
            clocks: vec![0; ranks],
            timelines: vec![Vec::new(); ranks],
            rng: StdRng::seed_from_u64(seed),
            noise,
        }
    }

    fn compute(&mut self, rank: usize, ns: u64) {
        let f = 1.0 + self.noise * (2.0 * self.rng.random::<f64>() - 1.0);
        self.clocks[rank] += (ns as f64 * f).round() as u64;
    }

    /// Record `op` on `rank`; the op's own duration is a rough estimate —
    /// Schedgen replaces it with the simulator's model.
    fn record(&mut self, rank: usize, op: MpiOp, est_ns: u64) {
        let t0 = self.clocks[rank];
        let t1 = t0 + est_ns;
        self.timelines[rank].push(MpiRecord { op, tstart: t0, tend: t1 });
        self.clocks[rank] = t1;
    }

    fn finish(self, app: &str) -> MpiTrace {
        MpiTrace { app: app.to_string(), timelines: self.timelines }
    }
}

fn est_coll(bytes: u64) -> u64 {
    5_000 + (bytes as f64 * 0.1) as u64
}

fn est_p2p(bytes: u64) -> u64 {
    2_000 + (bytes as f64 * 0.05) as u64
}

/// 2D structured hydrodynamics (CloverLeaf): 4-neighbour halo exchange,
/// periodic field summaries.
pub fn cloverleaf(cfg: &HpcAppConfig) -> MpiTrace {
    let n = cfg.ranks;
    let (px, py) = grid_2d(n);
    let mut tl = Timeline::new(n, cfg.seed, cfg.noise);
    let comp = cfg.compute_per_rank();
    for it in 0..cfg.iterations {
        for r in 0..n {
            let (x, y) = (r % px, r / px);
            tl.compute(r, comp);
            // Halo exchange in x then y (reflective boundaries: edge ranks
            // skip the missing neighbour, like the real app).
            for (nx, ny) in [(x.wrapping_sub(1), y), (x + 1, y), (x, y.wrapping_sub(1)), (x, y + 1)]
            {
                if nx < px && ny < py {
                    let peer = (ny * px + nx) as u32;
                    tl.record(
                        r,
                        MpiOp::Sendrecv { bytes: cfg.halo_bytes, dst: peer, src: peer, tag: it },
                        est_p2p(cfg.halo_bytes),
                    );
                }
            }
        }
        // dt reduction every iteration, field summary every 10.
        for r in 0..n {
            tl.record(r, MpiOp::Allreduce { bytes: 8 }, est_coll(8));
            if it % 10 == 9 {
                tl.record(r, MpiOp::Allreduce { bytes: 64 }, est_coll(64));
            }
        }
    }
    tl.finish("CloverLeaf")
}

/// HPCG: 3D 6-face halo exchange for SpMV + two dot-product allreduces per
/// CG iteration, plus the MG preconditioner's coarse sweeps.
pub fn hpcg(cfg: &HpcAppConfig) -> MpiTrace {
    let n = cfg.ranks;
    let (px, py, pz) = grid_3d(n);
    let mut tl = Timeline::new(n, cfg.seed, cfg.noise);
    let comp = cfg.compute_per_rank();
    for it in 0..cfg.iterations {
        for r in 0..n {
            tl.compute(r, comp);
            halo_3d(&mut tl, r, px, py, pz, cfg.halo_bytes, it);
        }
        // Two dot products per CG iteration.
        for r in 0..n {
            tl.record(r, MpiOp::Allreduce { bytes: 8 }, est_coll(8));
            tl.record(r, MpiOp::Allreduce { bytes: 8 }, est_coll(8));
        }
        // One coarse-grid sweep with smaller halos.
        for r in 0..n {
            tl.compute(r, comp / 8);
            halo_3d(&mut tl, r, px, py, pz, cfg.halo_bytes / 8, 1000 + it);
        }
    }
    tl.finish("HPCG")
}

/// LULESH: 26-neighbour 3D halo (approximated by 6 faces with 3x volume,
/// matching the dominant face exchange) + dt allreduce.
pub fn lulesh(cfg: &HpcAppConfig) -> MpiTrace {
    let n = cfg.ranks;
    let (px, py, pz) = grid_3d(n);
    let mut tl = Timeline::new(n, cfg.seed, cfg.noise);
    let comp = cfg.compute_per_rank();
    for it in 0..cfg.iterations {
        for r in 0..n {
            tl.compute(r, comp);
            halo_3d(&mut tl, r, px, py, pz, cfg.halo_bytes * 3, it);
        }
        for r in 0..n {
            tl.record(r, MpiOp::Allreduce { bytes: 8 }, est_coll(8));
        }
    }
    tl.finish("LULESH")
}

/// LAMMPS: 6-way ghost-atom exchange each step; thermo output allreduce
/// every 10 steps; neighbour-list rebuild (larger exchange) every 20.
pub fn lammps(cfg: &HpcAppConfig) -> MpiTrace {
    let n = cfg.ranks;
    let (px, py, pz) = grid_3d(n);
    let mut tl = Timeline::new(n, cfg.seed, cfg.noise);
    let comp = cfg.compute_per_rank();
    for it in 0..cfg.iterations {
        for r in 0..n {
            tl.compute(r, comp);
            let bytes = if it % 20 == 19 { cfg.halo_bytes * 4 } else { cfg.halo_bytes };
            halo_3d(&mut tl, r, px, py, pz, bytes, it);
        }
        if it % 10 == 9 {
            for r in 0..n {
                tl.record(r, MpiOp::Allreduce { bytes: 48 }, est_coll(48));
            }
        }
    }
    tl.finish("LAMMPS")
}

/// ICON (climate): icosahedral neighbour exchange (≈5 neighbours, modelled
/// on a 2D decomposition with diagonal links) + frequent small reductions
/// for the dynamics solver.
pub fn icon(cfg: &HpcAppConfig) -> MpiTrace {
    let n = cfg.ranks;
    let (px, py) = grid_2d(n);
    let mut tl = Timeline::new(n, cfg.seed, cfg.noise);
    let comp = cfg.compute_per_rank();
    for it in 0..cfg.iterations {
        for r in 0..n {
            let (x, y) = (r % px, r / px);
            tl.compute(r, comp);
            // 4-point stencil plus both diagonals of one axis; the
            // diagonal pair must be symmetric (r exchanges with both its
            // upper-right and lower-left partner) or Sendrecv matching
            // breaks at the grid border.
            let neigh = [
                (x.wrapping_sub(1), y),
                (x + 1, y),
                (x, y.wrapping_sub(1)),
                (x, y + 1),
                (x + 1, y + 1),
                (x.wrapping_sub(1), y.wrapping_sub(1)),
            ];
            for (nx, ny) in neigh {
                if nx < px && ny < py && (ny * px + nx) != r {
                    let peer = (ny * px + nx) as u32;
                    tl.record(
                        r,
                        MpiOp::Sendrecv { bytes: cfg.halo_bytes, dst: peer, src: peer, tag: it },
                        est_p2p(cfg.halo_bytes),
                    );
                }
            }
        }
        for r in 0..n {
            tl.record(r, MpiOp::Allreduce { bytes: 16 }, est_coll(16));
            if it % 4 == 3 {
                tl.record(r, MpiOp::Allreduce { bytes: 8 }, est_coll(8));
            }
        }
    }
    tl.finish("ICON")
}

/// OpenMX (DFT): alltoall-dominated (3D FFT transposes) with broadcasts of
/// eigenvalue data and reductions of densities.
pub fn openmx(cfg: &HpcAppConfig) -> MpiTrace {
    let n = cfg.ranks;
    let mut tl = Timeline::new(n, cfg.seed, cfg.noise);
    let comp = cfg.compute_per_rank();
    let a2a_block = (cfg.halo_bytes / n as u64).max(256);
    for it in 0..cfg.iterations {
        for r in 0..n {
            tl.compute(r, comp);
            tl.record(r, MpiOp::Alltoall { bytes: a2a_block }, est_coll(a2a_block * n as u64));
            tl.compute(r, comp / 2);
            tl.record(r, MpiOp::Alltoall { bytes: a2a_block }, est_coll(a2a_block * n as u64));
        }
        for r in 0..n {
            tl.record(r, MpiOp::Bcast { bytes: 4096, root: 0 }, est_coll(4096));
            tl.record(r, MpiOp::Allreduce { bytes: 1024 }, est_coll(1024));
        }
        let _ = it;
    }
    tl.finish("OpenMX")
}

fn halo_3d(tl: &mut Timeline, r: usize, px: usize, py: usize, pz: usize, bytes: u64, tag: u32) {
    let x = r % px;
    let y = (r / px) % py;
    let z = r / (px * py);
    let neigh = [
        (x.wrapping_sub(1), y, z),
        (x + 1, y, z),
        (x, y.wrapping_sub(1), z),
        (x, y + 1, z),
        (x, y, z.wrapping_sub(1)),
        (x, y, z + 1),
    ];
    for (nx, ny, nz) in neigh {
        if nx < px && ny < py && nz < pz {
            let peer = ((nz * py + ny) * px + nx) as u32;
            tl.record(r, MpiOp::Sendrecv { bytes, dst: peer, src: peer, tag }, est_p2p(bytes));
        }
    }
}

/// Near-square 2D factorization of `n`.
pub fn grid_2d(n: usize) -> (usize, usize) {
    let mut px = (n as f64).sqrt() as usize;
    while px > 1 && n % px != 0 {
        px -= 1;
    }
    (px.max(1), n / px.max(1))
}

/// Near-cubic 3D factorization of `n`.
pub fn grid_3d(n: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, n);
    let mut best_score = usize::MAX;
    let mut px = 1;
    while px * px * px <= n {
        if n % px == 0 {
            let rem = n / px;
            let (py, pz) = grid_2d(rem);
            let dims = [px, py, pz];
            let score = dims.iter().max().unwrap() - dims.iter().min().unwrap();
            if score < best_score {
                best_score = score;
                best = (px, py, pz);
            }
        }
        px += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ranks: usize) -> HpcAppConfig {
        HpcAppConfig { ranks, iterations: 3, ..HpcAppConfig::default() }
    }

    #[test]
    fn grid_factorizations() {
        assert_eq!(grid_2d(16), (4, 4));
        assert_eq!(grid_2d(12), (3, 4));
        assert_eq!(grid_2d(7), (1, 7));
        assert_eq!(grid_3d(8), (2, 2, 2));
        assert_eq!(grid_3d(27), (3, 3, 3));
        let (x, y, z) = grid_3d(64);
        assert_eq!(x * y * z, 64);
        assert_eq!((x, y, z), (4, 4, 4));
    }

    #[test]
    fn all_apps_generate_nonempty_traces() {
        for (name, f) in apps() {
            let t = f(&cfg(8));
            assert_eq!(t.num_ranks(), 8, "{name}");
            assert!(t.num_records() > 0, "{name}");
            for tl in &t.timelines {
                assert!(!tl.is_empty(), "{name}: every rank participates");
                // Timestamps strictly ordered within a rank.
                for w in tl.windows(2) {
                    assert!(w[1].tstart >= w[0].tend, "{name}: overlapping records");
                }
            }
        }
    }

    type AppGen = fn(&HpcAppConfig) -> MpiTrace;

    fn apps() -> Vec<(&'static str, AppGen)> {
        vec![
            ("CloverLeaf", cloverleaf),
            ("HPCG", hpcg),
            ("LULESH", lulesh),
            ("LAMMPS", lammps),
            ("ICON", icon),
            ("OpenMX", openmx),
        ]
    }

    #[test]
    fn sendrecv_peers_are_symmetric() {
        // In a halo exchange every (r -> peer) sendrecv has a (peer -> r) twin.
        let t = lulesh(&cfg(8));
        let mut pairs = std::collections::HashMap::new();
        for (r, tl) in t.timelines.iter().enumerate() {
            for rec in tl {
                if let MpiOp::Sendrecv { dst, bytes, tag, .. } = rec.op {
                    *pairs.entry((r as u32, dst, bytes, tag)).or_insert(0i64) += 1;
                }
            }
        }
        for (&(a, b, bytes, tag), &count) in &pairs {
            let twin = pairs.get(&(b, a, bytes, tag)).copied().unwrap_or(0);
            assert_eq!(count, twin, "{a}<->{b} asymmetric");
        }
    }

    #[test]
    fn strong_scaling_reduces_compute_gaps() {
        let weak = lulesh(&HpcAppConfig { ranks: 8, scaling: Scaling::Weak, noise: 0.0, ..cfg(8) });
        let strong =
            lulesh(&HpcAppConfig { ranks: 8, scaling: Scaling::Strong, noise: 0.0, ..cfg(8) });
        let end_weak = weak.timelines[0].last().unwrap().tend;
        let end_strong = strong.timelines[0].last().unwrap().tend;
        assert!(end_strong < end_weak, "{end_strong} !< {end_weak}");
    }

    #[test]
    fn trace_text_roundtrip() {
        let t = hpcg(&cfg(4));
        let text = t.to_text();
        let back = MpiTrace::parse(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = icon(&cfg(8));
        let b = icon(&cfg(8));
        assert_eq!(a, b);
        let c = icon(&HpcAppConfig { seed: 99, ..cfg(8) });
        assert_ne!(a, c);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MpiTrace::parse("MPI_Send: bytes=1").is_err()); // record before rank
        assert!(MpiTrace::parse("rank 0\nMPI_Warp: bytes=1 tstart=0 tend=1").is_err());
        assert!(MpiTrace::parse("rank 0\nMPI_Send: bytes=x tstart=0 tend=1").is_err());
    }

    #[test]
    fn rank_headers_name_the_next_rank() {
        // Reopening rank 0 must not file its Recv under the last rank.
        let text = "rank 0\nrank 1\nMPI_Send: bytes=8 dest=0 tag=0 tstart=0 tend=1\n\
                    rank 0\nMPI_Recv: bytes=8 src=1 tag=0 tstart=0 tend=1\n";
        assert_eq!(MpiTrace::parse(text).unwrap_err(), "line 4: rank 0, expected 2");
        // A large rank number is an error, not millions of empty timelines.
        assert_eq!(
            MpiTrace::parse("rank 30000000").unwrap_err(),
            "line 1: rank 30000000, expected 0"
        );
        assert_eq!(MpiTrace::parse("\nrank 1\n").unwrap_err(), "line 2: rank 1, expected 0");
        assert_eq!(MpiTrace::parse("rank 0\nrank 0").unwrap_err(), "line 2: rank 0, expected 1");
        assert_eq!(MpiTrace::parse("rank -1").unwrap_err(), "line 1: bad rank");
        let two = MpiTrace::parse("rank 0\nrank  +1\nMPI_Barrier:").unwrap();
        assert_eq!(
            two.timelines,
            [vec![], vec![MpiRecord { op: MpiOp::Barrier, tstart: 0, tend: 0 }]]
        );
    }

    #[test]
    fn openmx_is_alltoall_heavy() {
        let t = openmx(&cfg(8));
        let a2a = t.timelines[0].iter().filter(|r| matches!(r.op, MpiOp::Alltoall { .. })).count();
        let other = t.timelines[0].len() - a2a;
        assert!(a2a >= other / 2, "a2a={a2a} other={other}");
    }
}
