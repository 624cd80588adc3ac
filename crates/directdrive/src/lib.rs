//! # atlahs-directdrive
//!
//! A model of **Azure Direct Drive**, Microsoft's next-generation block
//! storage architecture, as described in the paper (§3.1.3, Fig. 6) and
//! Microsoft's public materials. Direct Drive is proprietary; like the
//! paper, this model is built from the published request flows.
//!
//! Components (each instance is one GOAL rank):
//!
//! * **VDC** — virtual disk clients (the application hosts),
//! * **CCS** — Change Coordinator Services: map a request's slab to the
//!   Block Storage Service holding it and serialize changes,
//! * **BSS** — Block Storage Services: hold slab replicas on local media,
//! * **MDS** — Metadata Service (slab maps, health; consulted rarely),
//! * **GS / SLB** — Gateway and Software Load Balancer fronting the
//!   cluster (control-plane; on the data path only at connection setup).
//!
//! Request flows lowered to GOAL:
//!
//! * **Read** (Fig. 6B): client → CCS lookup → client → BSS read request →
//!   BSS media read → BSS → client data transfer.
//! * **Write**: client → CCS coordinate → client streams data to the
//!   primary BSS, which replicates to `replicas-1` secondaries; acks fold
//!   back through the primary to the client.
//!
//! Each component's operations share its compute stream, so service times
//! queue like a single-threaded server while network waits overlap.

#![forbid(unsafe_code)]

use atlahs_core::NsPerByte;
use atlahs_goal::{GoalBuilder, Rank, TaskId};
use atlahs_tracers::storage::SpcTrace;

/// Placement of Direct Drive components on cluster ranks.
#[derive(Debug, Clone)]
pub struct DirectDriveLayout {
    pub clients: Vec<Rank>,
    pub ccs: Vec<Rank>,
    pub bss: Vec<Rank>,
    pub mds: Rank,
    pub gs: Rank,
    pub slb: Rank,
}

impl DirectDriveLayout {
    /// Standard layout on ranks `0..total`: clients first, then CCS, BSS,
    /// and the three singleton services last.
    pub fn standard(clients: usize, ccs: usize, bss: usize) -> Self {
        assert!(clients > 0 && ccs > 0 && bss > 0);
        let mut next = 0u32;
        let mut take = |n: usize| {
            let v: Vec<Rank> = (next..next + n as u32).collect();
            next += n as u32;
            v
        };
        let clients = take(clients);
        let ccs = take(ccs);
        let bss = take(bss);
        let mds = next;
        let gs = next + 1;
        let slb = next + 2;
        DirectDriveLayout { clients, ccs, bss, mds, gs, slb }
    }

    /// Total ranks the layout occupies.
    pub fn total_ranks(&self) -> usize {
        (self.slb + 1) as usize
    }
}

/// Service-time and message-size parameters.
#[derive(Debug, Clone)]
pub struct ServiceParams {
    /// CCS slab-lookup compute (ns).
    pub ccs_lookup_ns: u64,
    /// BSS media read base time (ns).
    pub bss_read_base_ns: u64,
    /// BSS media write base time (ns).
    pub bss_write_base_ns: u64,
    /// BSS media time per byte, read or write, on top of the base.
    pub bss_per_byte: NsPerByte,
    /// Control message sizes (bytes).
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub ack_bytes: u64,
    /// Total copies of each slab (1 primary + N-1 secondaries).
    pub replicas: usize,
    /// Slab size in 512-byte blocks (64 MiB slabs by default).
    pub slab_blocks: u64,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            ccs_lookup_ns: 2_000,
            bss_read_base_ns: 15_000,
            bss_write_base_ns: 20_000,
            bss_per_byte: NsPerByte::ps(50),
            req_bytes: 256,
            resp_bytes: 128,
            ack_bytes: 64,
            replicas: 3,
            slab_blocks: (64 << 20) / 512,
        }
    }
}

impl ServiceParams {
    /// BSS media time of a `bytes`-byte read or write: its base plus the
    /// per-byte time, rounded down.
    pub fn media_ns(&self, write: bool, bytes: u64) -> u64 {
        let base = if write { self.bss_write_base_ns } else { self.bss_read_base_ns };
        base + self.bss_per_byte.trunc(bytes)
    }
}

/// Slab placement: which BSS instances hold a given LBA's slab.
pub fn slab_replicas(lba: u64, params: &ServiceParams, num_bss: usize) -> Vec<usize> {
    let slab = lba / params.slab_blocks;
    // Deterministic spread (Fibonacci hashing) + consecutive replicas.
    let primary = ((slab.wrapping_mul(0x9E3779B97F4A7C15)) >> 33) as usize % num_bss;
    (0..params.replicas.min(num_bss)).map(|i| (primary + i) % num_bss).collect()
}

/// Convert an SPC block trace into GOAL operations appended to `b`.
///
/// Requests pace per client according to trace timestamps (the think-time
/// gap becomes a `calc`); requests of one client issue in order but their
/// network legs overlap, and different clients are fully concurrent.
/// Returns the per-request completion vertices (on the client rank).
pub fn trace_to_goal(
    trace: &SpcTrace,
    layout: &DirectDriveLayout,
    params: &ServiceParams,
    b: &mut GoalBuilder,
) -> Vec<TaskId> {
    let ncli = layout.clients.len();
    let nccs = layout.ccs.len();
    let nbss = layout.bss.len();
    // Per-client issue chain (timestamp pacing) and last timestamp.
    let mut chain: Vec<Option<TaskId>> = vec![None; ncli];
    let mut last_ts: Vec<u64> = vec![0; ncli];
    let mut completions = Vec::with_capacity(trace.records.len());

    for (ri, rec) in trace.records.iter().enumerate() {
        let tag = ri as u32;
        let ci = (rec.asu as usize + ri) % ncli; // spread ASUs over clients
        let client = layout.clients[ci];
        let ccs = layout.ccs[(rec.lba / params.slab_blocks) as usize % nccs];
        let repl = slab_replicas(rec.lba, params, nbss);
        let primary = layout.bss[repl[0]];

        // Pacing: think time since the client's previous request.
        let gap = rec.ts_ns.saturating_sub(last_ts[ci]);
        last_ts[ci] = rec.ts_ns;
        let pace = b.calc(client, gap);
        if let Some(prev) = chain[ci] {
            b.requires(client, pace, prev);
        }
        chain[ci] = Some(pace);

        // --- CCS lookup leg (shared by reads and writes) ---
        let s_req = b.send(client, ccs, params.req_bytes, tag);
        b.requires(client, s_req, pace);
        let r_req = b.recv(ccs, client, params.req_bytes, tag);
        let lookup = b.calc(ccs, params.ccs_lookup_ns);
        b.requires(ccs, lookup, r_req);
        let s_resp = b.send(ccs, client, params.resp_bytes, tag);
        b.requires(ccs, s_resp, lookup);
        let r_resp = b.recv(client, ccs, params.resp_bytes, tag);
        b.requires(client, r_resp, s_req);

        let done = if rec.write {
            // --- write path: stream data to primary, replicate, ack ---
            let s_data = b.send(client, primary, rec.bytes as u64, tag);
            b.requires(client, s_data, r_resp);
            let r_data = b.recv(primary, client, rec.bytes as u64, tag);
            // Primary persists and fans out to secondaries concurrently.
            let w_prim = b.calc(primary, params.media_ns(true, rec.bytes as u64));
            b.requires(primary, w_prim, r_data);
            let mut acks = Vec::new();
            for &sec_i in &repl[1..] {
                let sec = layout.bss[sec_i];
                let s_rep = b.send(primary, sec, rec.bytes as u64, tag);
                b.requires(primary, s_rep, r_data);
                let r_rep = b.recv(sec, primary, rec.bytes as u64, tag);
                let w_sec = b.calc(sec, params.media_ns(true, rec.bytes as u64));
                b.requires(sec, w_sec, r_rep);
                let s_ack = b.send(sec, primary, params.ack_bytes, tag);
                b.requires(sec, s_ack, w_sec);
                let r_ack = b.recv(primary, sec, params.ack_bytes, tag);
                acks.push(r_ack);
            }
            // Client ack once primary write + all replica acks are in.
            let s_done = b.send(primary, client, params.ack_bytes, tag);
            b.requires(primary, s_done, w_prim);
            for a in acks {
                b.requires(primary, s_done, a);
            }
            let r_done = b.recv(client, primary, params.ack_bytes, tag);
            b.requires(client, r_done, s_data);
            r_done
        } else {
            // --- read path ---
            let s_rreq = b.send(client, primary, params.req_bytes, tag);
            b.requires(client, s_rreq, r_resp);
            let r_rreq = b.recv(primary, client, params.req_bytes, tag);
            let media = b.calc(primary, params.media_ns(false, rec.bytes as u64));
            b.requires(primary, media, r_rreq);
            let s_data = b.send(primary, client, rec.bytes as u64, tag);
            b.requires(primary, s_data, media);
            let r_data = b.recv(client, primary, rec.bytes as u64, tag);
            b.requires(client, r_data, s_rreq);
            r_data
        };
        completions.push(done);
        // The next request of this client may start pacing immediately
        // (open-loop arrivals), so the chain hangs off `pace`, not `done`.
    }
    completions
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_tracers::storage::{financial_like, OltpConfig, SpcRecord};

    fn small_trace(n: usize) -> SpcTrace {
        financial_like(&OltpConfig { operations: n, ..OltpConfig::default() })
    }

    #[test]
    fn layout_ranks_are_disjoint_and_dense() {
        let l = DirectDriveLayout::standard(4, 2, 6);
        assert_eq!(l.clients, vec![0, 1, 2, 3]);
        assert_eq!(l.ccs, vec![4, 5]);
        assert_eq!(l.bss.len(), 6);
        assert_eq!(l.total_ranks(), 15);
    }

    #[test]
    fn slab_replicas_distinct_and_stable() {
        let p = ServiceParams::default();
        let r1 = slab_replicas(0, &p, 8);
        let r2 = slab_replicas(0, &p, 8);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 3);
        let set: std::collections::HashSet<_> = r1.iter().collect();
        assert_eq!(set.len(), 3, "replicas must be distinct BSS");
        // Different slabs spread over different primaries.
        let primaries: std::collections::HashSet<usize> =
            (0..64).map(|s| slab_replicas(s * p.slab_blocks, &p, 8)[0]).collect();
        assert!(primaries.len() >= 6, "spread: {primaries:?}");
    }

    #[test]
    fn goal_generation_matches_and_completes() {
        let layout = DirectDriveLayout::standard(4, 2, 6);
        let params = ServiceParams::default();
        let trace = small_trace(100);
        let mut b = GoalBuilder::new(layout.total_ranks());
        let done = trace_to_goal(&trace, &layout, &params, &mut b);
        assert_eq!(done.len(), 100);
        let goal = b.build().unwrap();
        check_matching(&goal).unwrap();
        let mut backend = IdealBackend::new(100, 500);
        let rep = Simulation::new(&goal).run(&mut backend).unwrap();
        assert_eq!(rep.completed, goal.total_tasks());
    }

    #[test]
    fn writes_produce_replica_traffic() {
        let layout = DirectDriveLayout::standard(2, 1, 4);
        let params = ServiceParams::default();
        let one_write = SpcTrace {
            records: vec![SpcRecord { asu: 1, lba: 42, bytes: 8192, write: true, ts_ns: 10 }],
        };
        let mut b = GoalBuilder::new(layout.total_ranks());
        trace_to_goal(&one_write, &layout, &params, &mut b);
        let goal = b.build().unwrap();
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // client->ccs, ccs->client, client->primary data, 2 replica copies,
        // 2 replica acks, primary->client ack = 8 sends.
        assert_eq!(stats.sends, 8);
        // data travels 3x (client + 2 replicas)
        assert!(stats.bytes_sent >= 3 * 8192);
    }

    #[test]
    fn reads_skip_replication() {
        let layout = DirectDriveLayout::standard(2, 1, 4);
        let params = ServiceParams::default();
        let one_read = SpcTrace {
            records: vec![SpcRecord { asu: 1, lba: 42, bytes: 8192, write: false, ts_ns: 10 }],
        };
        let mut b = GoalBuilder::new(layout.total_ranks());
        trace_to_goal(&one_read, &layout, &params, &mut b);
        let goal = b.build().unwrap();
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // client->ccs, ccs->client, client->bss req, bss->client data.
        assert_eq!(stats.sends, 4);
        let data_sends = goal
            .ranks()
            .iter()
            .flat_map(|r| r.tasks())
            .filter(|t| matches!(t.kind, atlahs_goal::TaskKind::Send { bytes: 8192, .. }))
            .count();
        assert_eq!(data_sends, 1, "read data travels once");
    }

    #[test]
    fn pacing_respects_timestamps() {
        // Two requests 1 ms apart on an instant network: completion times
        // must be at least 1 ms apart.
        let layout = DirectDriveLayout::standard(1, 1, 3);
        let params = ServiceParams::default();
        let trace = SpcTrace {
            records: vec![
                SpcRecord { asu: 1, lba: 0, bytes: 4096, write: false, ts_ns: 0 },
                SpcRecord { asu: 1, lba: 0, bytes: 4096, write: false, ts_ns: 1_000_000 },
            ],
        };
        let mut b = GoalBuilder::new(layout.total_ranks());
        trace_to_goal(&trace, &layout, &params, &mut b);
        let goal = b.build().unwrap();
        let mut backend = IdealBackend::new(8000, 1);
        let rep = Simulation::new(&goal).run(&mut backend).unwrap();
        assert!(rep.makespan >= 1_000_000, "{}", rep.makespan);
    }

    #[test]
    fn many_clients_run_concurrently() {
        // Same op count, 1 vs 8 clients: more clients => shorter makespan
        // (service parallelism across BSS).
        let params = ServiceParams::default();
        let trace = small_trace(200);
        let time_with = |ncli: usize| {
            let layout = DirectDriveLayout::standard(ncli, 2, 8);
            let mut b = GoalBuilder::new(layout.total_ranks());
            trace_to_goal(&trace, &layout, &params, &mut b);
            let goal = b.build().unwrap();
            let mut backend = IdealBackend::new(100, 500);
            Simulation::new(&goal).run(&mut backend).unwrap().makespan
        };
        // (identical arrival pacing; concurrency shows up in the tail)
        assert!(time_with(8) <= time_with(1));
    }
}
