//! nsys-style NCCL traces and LLM training skeletons.
//!
//! Nsight Systems profiles every GPU's CUDA streams; the (NVTX-annotated)
//! NCCL kernels carry their communicator, payload size, and timestamps
//! (paper §3.1.2 Stage 1). This module reproduces exactly that artifact —
//! per-GPU, per-stream timed kernel records plus communicator definitions —
//! from synthetic LLM training loops with tensor (TP), pipeline (PP), data
//! (DP), and expert (EP) parallelism.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::scan;

/// A NCCL kernel as it appears in an nsys report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NcclKernel {
    AllReduce,
    Broadcast { root: u32 },
    AllGather,
    ReduceScatter,
    AllToAll,
    Send { peer: u32 },
    Recv { peer: u32 },
}

/// One record on one CUDA stream of one GPU. Computation shows up as gaps
/// between records on stream 0 (the compute stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRecord {
    pub kernel: NcclKernel,
    /// Payload bytes of this rank's contribution.
    pub bytes: u64,
    /// Communicator id (indexes [`NsysReport::comms`]).
    pub comm: u32,
    /// CUDA stream the kernel was launched on.
    pub stream: u32,
    pub tstart: u64,
    pub tend: u64,
}

/// Communicator definition captured through the NVTX annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommDef {
    pub id: u32,
    /// Global GPU ids, in rank order within the communicator.
    pub gpus: Vec<u32>,
}

/// One GPU's profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuTrace {
    pub gpu: u32,
    /// Node (host) the GPU sits in.
    pub node: u32,
    pub records: Vec<KernelRecord>,
}

/// A full nsys capture of a distributed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsysReport {
    pub app: String,
    pub gpus: Vec<GpuTrace>,
    pub comms: Vec<CommDef>,
    pub gpus_per_node: u32,
}

impl NsysReport {
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    pub fn num_nodes(&self) -> usize {
        self.gpus.iter().map(|g| g.node).max().map_or(0, |m| m as usize + 1)
    }

    pub fn num_records(&self) -> usize {
        self.gpus.iter().map(|g| g.records.len()).sum()
    }

    /// Serialize as the text artifact whose size Table 1 / Fig. 9 report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# nsys report: app {} gpus {} gpus_per_node {}",
            self.app,
            self.num_gpus(),
            self.gpus_per_node
        );
        for c in &self.comms {
            let list: Vec<String> = c.gpus.iter().map(|g| g.to_string()).collect();
            let _ = writeln!(out, "comm {} gpus {}", c.id, list.join(","));
        }
        for g in &self.gpus {
            let _ = writeln!(out, "gpu {} node {}", g.gpu, g.node);
            for r in &g.records {
                let (name, extra) = match r.kernel {
                    NcclKernel::AllReduce => ("AllReduce", String::new()),
                    NcclKernel::Broadcast { root } => ("Broadcast", format!(" root={root}")),
                    NcclKernel::AllGather => ("AllGather", String::new()),
                    NcclKernel::ReduceScatter => ("ReduceScatter", String::new()),
                    NcclKernel::AllToAll => ("AllToAll", String::new()),
                    NcclKernel::Send { peer } => ("Send", format!(" peer={peer}")),
                    NcclKernel::Recv { peer } => ("Recv", format!(" peer={peer}")),
                };
                let _ = writeln!(
                    out,
                    "ncclKernel_{name}: bytes={} comm={} stream={}{extra} tstart={} tend={}",
                    r.bytes, r.comm, r.stream, r.tstart, r.tend
                );
            }
        }
        out
    }

    /// Parse the text artifact back.
    ///
    /// The grammar is what [`NsysReport::to_text`] writes, read line by
    /// line with the whitespace rule of [`MpiTrace::parse`](crate::mpi::MpiTrace::parse)
    /// (ASCII only; blank lines skipped):
    ///
    /// * a `#` line is the header: the app name sits between ` app ` and
    ///   ` gpus `, and `gpus_per_node N` (the rest of the line) sets it;
    /// * `comm ID gpus G,G,…` defines a communicator;
    /// * `gpu G node N` opens the profile of GPU `G`, which must be the next
    ///   GPU: `G` equals the number of `gpu` headers before it;
    /// * `ncclKernel_NAME: key=value …` is a kernel of the last opened GPU,
    ///   keys from `bytes`, `comm`, `stream`, `peer`, `root`, `tstart`,
    ///   `tend` (absent keys are 0, a repeated key keeps its last value).
    ///
    /// Numbers are decimal with an optional leading `+`; `bytes`, `tstart`
    /// and `tend` must fit 64 bits, the rest 32. Anything else is an error
    /// `line N: …` naming the first bad line.
    pub fn parse(input: &str) -> Result<NsysReport, String> {
        let mut app = String::new();
        let mut gpus_per_node = 1u32;
        let mut comms = Vec::new();
        let mut gpus: Vec<GpuTrace> = Vec::new();
        for line in scan::lines(input) {
            let err = |m: &str| line.err(m);
            let number = |s: &str, m: &str| scan::number(s).ok_or_else(|| err(m));
            if let Some(rest) = line.text.strip_prefix('#') {
                // The app name may contain spaces; it is delimited by the
                // " app " and " gpus " markers.
                if let Some(part) = rest.split(" app ").nth(1) {
                    app = part.split(" gpus ").next().unwrap_or("").to_string();
                }
                if let Some(i) = rest.find("gpus_per_node ") {
                    gpus_per_node = number(&rest[i + 14..], "bad gpus_per_node")?;
                }
                continue;
            }
            if let Some(rest) = line.text.strip_prefix("comm ") {
                let (id, list) = rest.split_once(" gpus ").ok_or_else(|| err("bad comm line"))?;
                let id = number(id, "bad comm id")?;
                let members: Result<Vec<u32>, _> =
                    list.split(',').map(|s| number(s, "bad gpu list")).collect();
                comms.push(CommDef { id, gpus: members? });
                continue;
            }
            if let Some(rest) = line.text.strip_prefix("gpu ") {
                let (g, n) = rest.split_once(" node ").ok_or_else(|| err("bad gpu line"))?;
                let gpu = number(g, "bad gpu id")?;
                if gpu as usize != gpus.len() {
                    return Err(line.err(format_args!("gpu {gpu}, expected {}", gpus.len())));
                }
                gpus.push(GpuTrace { gpu, node: number(n, "bad node id")?, records: Vec::new() });
                continue;
            }
            let (name, fields) = line.record().ok_or_else(|| err("missing colon"))?;
            let name = name.strip_prefix("ncclKernel_").ok_or_else(|| err("not a kernel"))?;
            let (mut bytes, mut tstart, mut tend) = (0u64, 0u64, 0u64);
            let (mut comm, mut stream, mut peer, mut root) = (0u32, 0u32, 0u32, 0u32);
            for field in fields {
                let f = field.map_err(|_| err("bad token"))?;
                match f.key {
                    "bytes" => bytes = f.value().ok_or_else(|| err("bad bytes"))?,
                    "comm" => comm = f.value().ok_or_else(|| err("bad comm"))?,
                    "stream" => stream = f.value().ok_or_else(|| err("bad stream"))?,
                    "peer" => peer = f.value().ok_or_else(|| err("bad peer"))?,
                    "root" => root = f.value().ok_or_else(|| err("bad root"))?,
                    "tstart" => tstart = f.value().ok_or_else(|| err("bad tstart"))?,
                    "tend" => tend = f.value().ok_or_else(|| err("bad tend"))?,
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
            let g = gpus.last_mut().ok_or_else(|| err("kernel before gpu"))?;
            g.records.push(KernelRecord { kernel, bytes, comm, stream, tstart, tend });
        }
        Ok(NsysReport { app, gpus, comms, gpus_per_node })
    }
}

/// LLM training job description.
///
/// The parallelization follows Megatron conventions: `tp * pp * dp = gpus`
/// (EP partitions the DP group in MoE layers). GPU global rank is
/// `((dp_idx * pp + stage) * tp + tp_idx)`.
#[derive(Debug, Clone)]
pub struct LlmConfig {
    pub name: String,
    /// Total parameter bytes of the model (fp16/bf16).
    pub param_bytes: u64,
    pub layers: u32,
    pub hidden: u64,
    /// Sequence length × micro-batch tokens.
    pub tokens_per_microbatch: u64,
    pub tp: u32,
    pub pp: u32,
    pub dp: u32,
    /// Expert parallelism (1 = dense model).
    pub ep: u32,
    /// MoE: number of MoE layers (alltoall per such layer); 0 = dense.
    pub moe_layers: u32,
    pub gpus_per_node: u32,
    pub batch: u32,
    pub iterations: u32,
    /// ns of compute per token per layer per GPU (fwd; bwd = 2x).
    pub compute_ns_per_token_layer: f64,
    /// DP gradient bucket size (bytes).
    pub bucket_bytes: u64,
    pub seed: u64,
}

impl LlmConfig {
    pub fn gpus(&self) -> u32 {
        self.tp * self.pp * self.dp
    }

    pub fn nodes(&self) -> u32 {
        self.gpus().div_ceil(self.gpus_per_node)
    }

    pub fn microbatches(&self) -> u32 {
        (self.batch / self.dp).max(1)
    }

    fn rank(&self, dp: u32, stage: u32, tp: u32) -> u32 {
        (dp * self.pp + stage) * self.tp + tp
    }
}

/// Paper configurations (Fig. 8 / Table 1). Sizes are scaled by
/// `scale` ∈ (0, 1] so packet-level simulation stays tractable; 1.0 is the
/// paper's nominal model size.
pub mod presets {
    use super::LlmConfig;

    fn base(name: &str, params_gb: f64, layers: u32, hidden: u64, scale: f64) -> LlmConfig {
        LlmConfig {
            name: name.to_string(),
            param_bytes: (params_gb * 2e9 * scale) as u64, // bf16
            layers,
            hidden: (hidden as f64 * scale.sqrt()) as u64,
            tokens_per_microbatch: 4096,
            tp: 1,
            pp: 1,
            dp: 1,
            ep: 1,
            moe_layers: 0,
            gpus_per_node: 4,
            batch: 32,
            iterations: 2,
            // Compute scales like hidden² ∝ scale, but the trace keeps a
            // realistic exposed-communication share only if compute and
            // wire volume shrink together; √scale on the per-token cost
            // (with hidden already √scale) gives compute ∝ scale overall.
            compute_ns_per_token_layer: 25.0 * scale.sqrt(),
            // The DDP bucket shrinks with the model so the bucket *count*
            // (and therefore the trace's communication structure) tracks
            // the full-size system at any scale; the floor keeps buckets
            // in NCCL's bandwidth (ring) regime.
            bucket_bytes: ((25u64 << 20) as f64 * scale).max((4 << 20) as f64) as u64,
            seed: 7,
        }
    }

    /// Llama 7B, 16 GPUs / 4 nodes, TP1 PP1 DP16, batch 32.
    pub fn llama7b_dp16(scale: f64) -> LlmConfig {
        LlmConfig { tp: 1, pp: 1, dp: 16, batch: 32, ..base("Llama 7B", 7.0, 32, 4096, scale) }
    }

    /// Llama 7B, 128 GPUs / 32 nodes, TP1 PP1 DP128, batch 128.
    pub fn llama7b_dp128(scale: f64) -> LlmConfig {
        LlmConfig { tp: 1, pp: 1, dp: 128, batch: 128, ..base("Llama 7B", 7.0, 32, 4096, scale) }
    }

    /// Llama 70B, 256 GPUs / 64 nodes, TP1 PP8 DP32, batch 32.
    pub fn llama70b(scale: f64) -> LlmConfig {
        LlmConfig { tp: 1, pp: 8, dp: 32, batch: 32, ..base("Llama 70B", 70.0, 80, 8192, scale) }
    }

    /// Mistral 8x7B, 64 GPUs / 16 nodes, TP1 PP8 DP8 EP1, batch 32.
    pub fn mistral8x7b(scale: f64) -> LlmConfig {
        LlmConfig {
            tp: 1,
            pp: 8,
            dp: 8,
            ep: 1,
            moe_layers: 32,
            batch: 32,
            ..base("Mistral 8x7B", 47.0, 32, 4096, scale)
        }
    }

    /// MoE 8x13B, 128 GPUs / 32 nodes, TP4 PP4 DP8 EP4, batch 128.
    pub fn moe8x13b(scale: f64) -> LlmConfig {
        LlmConfig {
            tp: 4,
            pp: 4,
            dp: 8,
            ep: 4,
            moe_layers: 40,
            batch: 128,
            ..base("MoE 8x13B", 13.0 * 8.0, 40, 5120, scale)
        }
    }

    /// MoE 8x70B, 256 GPUs / 64 nodes, TP4 PP8 DP8 EP8, batch 128.
    pub fn moe8x70b(scale: f64) -> LlmConfig {
        LlmConfig {
            tp: 4,
            pp: 8,
            dp: 8,
            ep: 8,
            moe_layers: 80,
            batch: 128,
            ..base("MoE 8x70B", 70.0 * 8.0, 80, 8192, scale)
        }
    }

    /// DLRM, 4 GPUs / 4 nodes (Table 1): embedding alltoall + dense allreduce.
    pub fn dlrm(scale: f64) -> LlmConfig {
        LlmConfig {
            tp: 1,
            pp: 1,
            dp: 4,
            batch: 16,
            moe_layers: 8, // reuse the alltoall path for embedding exchange
            ep: 4,
            ..base("DLRM", 1.0, 8, 1024, scale)
        }
    }
}

/// Generate the nsys report for an LLM training job.
///
/// Stream assignment mirrors real Megatron+NCCL behaviour: stream 0 carries
/// compute and the in-line TP/PP/EP kernels; stream 1 carries the DP
/// gradient allreduces, which overlap the backward pass bucket by bucket
/// (the Fig. 1A space-time pattern).
pub fn trace_llm(cfg: &LlmConfig) -> NsysReport {
    let gpus = cfg.gpus();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut s = Streams {
        traces: (0..gpus)
            .map(|g| GpuTrace { gpu: g, node: g / cfg.gpus_per_node, records: Vec::new() })
            .collect(),
        clock: vec![[0; 2]; gpus as usize],
    };
    let mut comms: Vec<CommDef> = Vec::new();

    // Communicators.
    let mut tp_comm = vec![0u32; gpus as usize];
    let mut dp_comm = vec![0u32; gpus as usize];
    let mut ep_comm = vec![0u32; gpus as usize];
    if cfg.tp > 1 {
        for dp in 0..cfg.dp {
            for st in 0..cfg.pp {
                let id = comms.len() as u32;
                let members: Vec<u32> = (0..cfg.tp).map(|t| cfg.rank(dp, st, t)).collect();
                for &m in &members {
                    tp_comm[m as usize] = id;
                }
                comms.push(CommDef { id, gpus: members });
            }
        }
    }
    // DP communicators: one per (stage, tp) pair across dp replicas.
    for st in 0..cfg.pp {
        for t in 0..cfg.tp {
            let id = comms.len() as u32;
            let members: Vec<u32> = (0..cfg.dp).map(|dp| cfg.rank(dp, st, t)).collect();
            for &m in &members {
                dp_comm[m as usize] = id;
            }
            comms.push(CommDef { id, gpus: members });
        }
    }
    // EP communicators partition each DP group.
    if cfg.ep > 1 {
        for st in 0..cfg.pp {
            for t in 0..cfg.tp {
                for chunk in 0..cfg.dp / cfg.ep {
                    let id = comms.len() as u32;
                    let members: Vec<u32> =
                        (0..cfg.ep).map(|e| cfg.rank(chunk * cfg.ep + e, st, t)).collect();
                    for &m in &members {
                        ep_comm[m as usize] = id;
                    }
                    comms.push(CommDef { id, gpus: members });
                }
            }
        }
    }

    let layers_per_stage = (cfg.layers / cfg.pp).max(1);
    let act_bytes = cfg.tokens_per_microbatch * cfg.hidden * 2; // bf16 activations
    let fwd_ns = |cfg: &LlmConfig, rng: &mut StdRng| -> u64 {
        let base = cfg.compute_ns_per_token_layer
            * cfg.tokens_per_microbatch as f64
            * layers_per_stage as f64
            / cfg.tp as f64;
        (base * (1.0 + 0.02 * (2.0 * rng.random::<f64>() - 1.0))) as u64
    };
    let stage_params = cfg.param_bytes / cfg.pp as u64;
    let moe_per_stage = cfg.moe_layers / cfg.pp;
    // Payloads: PP activations, TP and EP kernels (aggregated over the
    // stage's layers). `max(1)`: with no TP ranks or EP groups the value
    // is never used, and must not divide by zero.
    let act = act_bytes / cfg.tp.max(1) as u64;
    let tp_bytes = act * layers_per_stage as u64 / 4;
    let ep_bytes = act_bytes / cfg.ep.max(1) as u64 * moe_per_stage as u64 / 4;

    for _it in 0..cfg.iterations {
        let mb = cfg.microbatches();
        // Forward + backward, microbatch by microbatch (GPipe-flavoured).
        for m in 0..mb {
            for dp in 0..cfg.dp {
                for st in 0..cfg.pp {
                    for t in 0..cfg.tp {
                        let g = cfg.rank(dp, st, t) as usize;
                        // recv activations from previous stage
                        if st > 0 {
                            let peer = cfg.rank(dp, st - 1, t);
                            s.push(g, 0, NcclKernel::Recv { peer }, act, 0, 2_000);
                        }
                        // forward compute
                        s.clock[g][0] += fwd_ns(cfg, &mut rng);
                        // TP allreduce per stage (aggregated over its layers)
                        if cfg.tp > 1 {
                            s.push(g, 0, NcclKernel::AllReduce, tp_bytes, tp_comm[g], 20_000);
                        }
                        // EP alltoall in MoE layers (fwd)
                        if cfg.ep > 1 && moe_per_stage > 0 {
                            s.push(g, 0, NcclKernel::AllToAll, ep_bytes, ep_comm[g], 30_000);
                        }
                        // send activations to next stage
                        if st + 1 < cfg.pp {
                            let peer = cfg.rank(dp, st + 1, t);
                            s.push(g, 0, NcclKernel::Send { peer }, act, 0, 2_000);
                        }
                    }
                }
                // backward, reverse stage order
                for st in (0..cfg.pp).rev() {
                    for t in 0..cfg.tp {
                        let g = cfg.rank(dp, st, t) as usize;
                        if st + 1 < cfg.pp {
                            let peer = cfg.rank(dp, st + 1, t);
                            s.push(g, 0, NcclKernel::Recv { peer }, act, 0, 2_000);
                        }
                        s.clock[g][0] += 2 * fwd_ns(cfg, &mut rng);
                        if cfg.tp > 1 {
                            s.push(g, 0, NcclKernel::AllReduce, tp_bytes, tp_comm[g], 20_000);
                        }
                        if cfg.ep > 1 && moe_per_stage > 0 {
                            s.push(g, 0, NcclKernel::AllToAll, ep_bytes, ep_comm[g], 30_000);
                        }
                        if st > 0 {
                            let peer = cfg.rank(dp, st - 1, t);
                            s.push(g, 0, NcclKernel::Send { peer }, act, 0, 2_000);
                        }
                        // On the last microbatch, gradient buckets of this
                        // stage start their DP allreduce on stream 1,
                        // overlapping the rest of the backward pass.
                        if m + 1 == mb && cfg.dp > 1 {
                            let buckets =
                                (stage_params / cfg.tp as u64).div_ceil(cfg.bucket_bytes).max(1);
                            for _ in 0..buckets {
                                let b = (stage_params / cfg.tp as u64 / buckets).max(1);
                                // stream 1 kernels start no earlier than "now"
                                s.clock[g][1] = s.clock[g][1].max(s.clock[g][0]);
                                s.push(g, 1, NcclKernel::AllReduce, b, dp_comm[g], 50_000);
                            }
                        }
                    }
                }
            }
        }
        // Iteration boundary: optimizer step after DP sync.
        for [clock0, clock1] in &mut s.clock {
            *clock0 = (*clock0).max(*clock1) + (stage_params / 50) / cfg.tp as u64;
        }
    }

    NsysReport { app: cfg.name.clone(), gpus: s.traces, comms, gpus_per_node: cfg.gpus_per_node }
}

/// Every GPU's records and the clocks of its two streams while a job is
/// traced.
struct Streams {
    traces: Vec<GpuTrace>,
    clock: Vec<[u64; 2]>,
}

impl Streams {
    /// Record `kernel` on `stream` of GPU `g`: it starts at the stream's
    /// clock and holds the stream for `est_ns`.
    fn push(
        &mut self,
        g: usize,
        stream: u32,
        kernel: NcclKernel,
        bytes: u64,
        comm: u32,
        est_ns: u64,
    ) {
        let clock = &mut self.clock[g][stream as usize];
        let tstart = *clock;
        *clock += est_ns;
        let rec = KernelRecord { kernel, bytes, comm, stream, tstart, tend: *clock };
        self.traces[g].records.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_gpu_counts() {
        assert_eq!(presets::llama7b_dp16(0.1).gpus(), 16);
        assert_eq!(presets::llama7b_dp128(0.1).gpus(), 128);
        assert_eq!(presets::llama70b(0.1).gpus(), 256);
        assert_eq!(presets::mistral8x7b(0.1).gpus(), 64);
        assert_eq!(presets::moe8x13b(0.1).gpus(), 128);
        assert_eq!(presets::moe8x70b(0.1).gpus(), 256);
        assert_eq!(presets::dlrm(0.1).gpus(), 4);
        // node counts
        assert_eq!(presets::llama7b_dp16(0.1).nodes(), 4);
        assert_eq!(presets::llama70b(0.1).nodes(), 64);
    }

    #[test]
    fn trace_structure_dp_only() {
        let mut cfg = presets::llama7b_dp16(0.02);
        cfg.iterations = 1;
        let rep = trace_llm(&cfg);
        assert_eq!(rep.num_gpus(), 16);
        assert_eq!(rep.num_nodes(), 4);
        // DP-only: every comm kernel is an AllReduce on stream 1.
        for g in &rep.gpus {
            assert!(!g.records.is_empty());
            for r in &g.records {
                assert_eq!(r.stream, 1);
                assert!(matches!(r.kernel, NcclKernel::AllReduce));
            }
        }
        // 16 DP communicators... actually one (pp=1, tp=1).
        assert_eq!(rep.comms.len(), 1);
        assert_eq!(rep.comms[0].gpus.len(), 16);
    }

    #[test]
    fn trace_structure_pp_has_sendrecv() {
        let mut cfg = presets::llama70b(0.02);
        cfg.iterations = 1;
        let rep = trace_llm(&cfg);
        let sends = rep
            .gpus
            .iter()
            .flat_map(|g| &g.records)
            .filter(|r| matches!(r.kernel, NcclKernel::Send { .. }))
            .count();
        let recvs = rep
            .gpus
            .iter()
            .flat_map(|g| &g.records)
            .filter(|r| matches!(r.kernel, NcclKernel::Recv { .. }))
            .count();
        assert!(sends > 0);
        assert_eq!(sends, recvs, "every PP send has a matching recv");
    }

    #[test]
    fn moe_traces_contain_alltoall() {
        let mut cfg = presets::moe8x13b(0.02);
        cfg.iterations = 1;
        cfg.batch = 16; // keep it small
        let rep = trace_llm(&cfg);
        let a2a = rep
            .gpus
            .iter()
            .flat_map(|g| &g.records)
            .filter(|r| matches!(r.kernel, NcclKernel::AllToAll))
            .count();
        assert!(a2a > 0, "MoE must produce EP alltoalls");
    }

    #[test]
    fn streams_are_sequential_per_gpu() {
        let mut cfg = presets::mistral8x7b(0.02);
        cfg.iterations = 1;
        let rep = trace_llm(&cfg);
        for g in &rep.gpus {
            let mut last_end = [0u64; 2];
            for r in &g.records {
                let s = r.stream as usize;
                assert!(r.tstart >= last_end[s], "stream {s} records overlap");
                last_end[s] = r.tend;
            }
        }
    }

    #[test]
    fn text_roundtrip() {
        let mut cfg = presets::llama7b_dp16(0.02);
        cfg.iterations = 1;
        cfg.batch = 16;
        let rep = trace_llm(&cfg);
        let text = rep.to_text();
        let back = NsysReport::parse(&text).unwrap();
        assert_eq!(rep, back);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = presets::llama7b_dp16(0.02);
        assert_eq!(trace_llm(&cfg), trace_llm(&cfg));
        let mut cfg2 = cfg.clone();
        cfg2.seed = 1234;
        assert_ne!(trace_llm(&cfg), trace_llm(&cfg2));
    }

    #[test]
    fn dp_comm_membership_is_correct() {
        let mut cfg = presets::moe8x13b(0.02);
        cfg.iterations = 1;
        cfg.batch = 16;
        let rep = trace_llm(&cfg);
        // Every comm's member list has distinct gpus within range.
        for c in &rep.comms {
            let mut seen = std::collections::HashSet::new();
            for &g in &c.gpus {
                assert!(g < cfg.gpus());
                assert!(seen.insert(g), "duplicate member in comm {}", c.id);
            }
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(NsysReport::parse("ncclKernel_AllReduce: bytes=1").is_err());
        assert!(
            NsysReport::parse("gpu 0 node 0\nncclKernel_Bogus: bytes=1 tstart=0 tend=1").is_err()
        );
    }

    #[test]
    fn gpu_headers_name_the_next_gpu() {
        // A first profile labelled gpu 1 must not become gpus[0].
        let text = "gpu 1 node 0\nncclKernel_AllReduce: bytes=8 tstart=0 tend=1\n";
        assert_eq!(NsysReport::parse(text).unwrap_err(), "line 1: gpu 1, expected 0");
        let text = "gpu 0 node 0\ngpu 0 node 1\n";
        assert_eq!(NsysReport::parse(text).unwrap_err(), "line 2: gpu 0, expected 1");
        let text = "gpu 0 node 0\ngpu 2 node 0\n";
        assert_eq!(NsysReport::parse(text).unwrap_err(), "line 2: gpu 2, expected 1");
        let ok = NsysReport::parse("gpu 0 node 0\ngpu +1 node 0\n").unwrap();
        assert_eq!(ok.gpus.iter().map(|g| g.gpu).collect::<Vec<_>>(), [0, 1]);
    }
}
