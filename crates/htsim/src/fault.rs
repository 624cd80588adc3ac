//! Seeded, deterministic link-fault injection for the packet engine.
//!
//! A fault is a *timed window* on one port: either the link is **down**
//! (every packet entering the port's queue is discarded — an ingress
//! blackhole, recovered by the retransmission machinery exactly as a
//! congestion loss would be) or **degraded** (bandwidth and latency are
//! scaled for the duration of the window, so congestion control reacts to
//! the slower link naturally).
//!
//! A window enters a set-up engine through
//! [`HtsimBackend::inject_fault`](crate::engine::HtsimBackend::inject_fault),
//! the one way a fault gets in (the configuration holds none), and is
//! delivered through the engine's timer wheel as two ordinary events.
//! Injected between `SimDriver::start` and the first task, its events
//! precede all simulation traffic. A run with no windows schedules
//! nothing, touches no RNG stream, and is bit-identical to a fault-free
//! engine.
//!
//! Integer percentages (not floats) keep fault specs `Eq`/hashable and
//! their labels exact, which the grid layer's seeded cell keys rely on.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::topology::Topology;

/// What happens to the port inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Link down: every packet entering the port is discarded.
    Down,
    /// Degraded link: bandwidth scaled to `bw_pct`% of nominal and
    /// propagation latency to `lat_pct`% (so `lat_pct > 100` slows the
    /// wire down).
    Degrade { bw_pct: u32, lat_pct: u32 },
}

/// One timed fault window on one port.
///
/// Windows on the same port must not overlap: the end of a window
/// restores the port to its *nominal* parameters, not to any previous
/// window's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortFault {
    /// Port id in the topology's port table.
    pub port: u32,
    /// Window start (simulation ns).
    pub start_ns: u64,
    /// Window end (simulation ns); must be `> start_ns` for the fault to
    /// have any effect, and finite windows are what guarantee recovery.
    pub end_ns: u64,
    pub kind: FaultKind,
}

/// Validate and normalize a fault schedule, **enforcing** the
/// windows-on-one-port-must-not-overlap contract [`PortFault`] documents.
///
/// * Windows with `end_ns <= start_ns` are dropped (they could never
///   fire; the engine already skips them).
/// * Windows are sorted by `(port, start, end)` so event scheduling is
///   independent of generation order.
/// * Overlapping or abutting windows **of the same kind** on one port
///   are merged into their union — a Markov window train or several
///   failure domains sharing a port collapse to an equivalent schedule.
/// * Overlapping windows of *different* kinds on one port are rejected:
///   the end of a window restores the port to nominal, so there is no
///   meaningful serialization of, say, a `Down` inside a `Degrade`.
pub fn normalize_windows(faults: Vec<PortFault>) -> Result<Vec<PortFault>, String> {
    let mut faults: Vec<PortFault> = faults.into_iter().filter(|f| f.end_ns > f.start_ns).collect();
    faults.sort_unstable_by_key(|f| (f.port, f.start_ns, f.end_ns));
    let mut out: Vec<PortFault> = Vec::with_capacity(faults.len());
    for f in faults {
        match out.last_mut() {
            Some(prev) if prev.port == f.port && f.start_ns <= prev.end_ns => {
                if prev.kind != f.kind {
                    return Err(format!(
                        "port {}: window [{}, {}) ({:?}) overlaps [{}, {}) ({:?}) \
                         of a different kind",
                        f.port, f.start_ns, f.end_ns, f.kind, prev.start_ns, prev.end_ns, prev.kind
                    ));
                }
                prev.end_ns = prev.end_ns.max(f.end_ns);
            }
            _ => out.push(f),
        }
    }
    Ok(out)
}

/// Deterministically pick up to `count` failure domains of the chosen
/// tier (see [`Topology::failure_domains`]): a seeded shuffle of the
/// domain indices, truncated and re-sorted — the domain-level analogue
/// of [`select_fault_ports`]. Downing every port of a returned set
/// models that switch (and for the edge tier, its rack) failing whole.
pub fn select_fault_domains(
    topo: &Topology,
    count: usize,
    core_tier: bool,
    seed: u64,
) -> Vec<Vec<u32>> {
    let domains = topo.failure_domains(core_tier);
    let mut idx: Vec<usize> = (0..domains.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx.truncate(count.min(domains.len()));
    idx.sort_unstable();
    idx.into_iter().map(|i| domains[i].clone()).collect()
}

/// Deterministically pick up to `count` fault-candidate ports.
///
/// Core (inter-switch) ports are preferred — they are the shared tier
/// whose failures reroute or stall many flows at once; topologies without
/// a core tier (`SingleSwitch`) fall back to the switch→host delivery
/// ports. Selection is a seeded shuffle, so the same `(topology, seed)`
/// always yields the same ports regardless of grid position or thread
/// count; the result is sorted so downstream event scheduling is
/// order-independent of the shuffle.
pub fn select_fault_ports(topo: &Topology, count: usize, seed: u64) -> Vec<u32> {
    let core: Vec<u32> =
        topo.ports().iter().enumerate().filter(|(_, p)| p.is_core).map(|(i, _)| i as u32).collect();
    let mut candidates = if core.is_empty() {
        topo.ports()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.to_host.is_some())
            .map(|(i, _)| i as u32)
            .collect()
    } else {
        core
    };
    let mut rng = StdRng::seed_from_u64(seed);
    candidates.shuffle(&mut rng);
    candidates.truncate(count.min(candidates.len()));
    candidates.sort_unstable();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkParams, TopologyConfig};

    #[test]
    fn selection_is_deterministic_and_prefers_core() {
        let topo = Topology::build(TopologyConfig::fat_tree_oversubscribed(16, 4, 4));
        let a = select_fault_ports(&topo, 2, 7);
        let b = select_fault_ports(&topo, 2, 7);
        assert_eq!(a, b, "same seed, same ports");
        assert_eq!(a.len(), 2);
        for &p in &a {
            assert!(topo.ports()[p as usize].is_core, "fat tree faults hit the core tier");
        }
        let c = select_fault_ports(&topo, 2, 8);
        assert!(a != c || a.len() < 2, "a different seed may pick different ports");
    }

    #[test]
    fn single_switch_falls_back_to_delivery_ports() {
        let topo =
            Topology::build(TopologyConfig::SingleSwitch { hosts: 8, link: LinkParams::default() });
        let picked = select_fault_ports(&topo, 3, 1);
        assert_eq!(picked.len(), 3);
        for &p in &picked {
            assert!(topo.ports()[p as usize].to_host.is_some());
        }
    }

    fn down(port: u32, start_ns: u64, end_ns: u64) -> PortFault {
        PortFault { port, start_ns, end_ns, kind: FaultKind::Down }
    }

    #[test]
    fn normalize_sorts_merges_and_drops_empty_windows() {
        let messy = vec![
            down(3, 500, 900),
            down(1, 0, 100),
            down(3, 100, 600), // overlaps the first window on port 3
            down(3, 900, 950), // abuts the merged window
            down(1, 400, 400), // empty: dropped
            down(2, 50, 60),
        ];
        let clean = normalize_windows(messy).unwrap();
        assert_eq!(clean, vec![down(1, 0, 100), down(2, 50, 60), down(3, 100, 950)]);
        // Already-normal schedules pass through untouched.
        assert_eq!(normalize_windows(clean.clone()).unwrap(), clean);
        assert_eq!(normalize_windows(Vec::new()).unwrap(), Vec::new());
    }

    #[test]
    fn normalize_keeps_disjoint_windows_and_other_ports_apart() {
        // Same instants on different ports never merge; disjoint windows
        // on one port stay distinct.
        let faults = vec![down(1, 0, 100), down(2, 0, 100), down(1, 200, 300)];
        let clean = normalize_windows(faults).unwrap();
        assert_eq!(clean, vec![down(1, 0, 100), down(1, 200, 300), down(2, 0, 100)]);
    }

    #[test]
    fn normalize_rejects_cross_kind_overlap() {
        let degrade = PortFault {
            port: 1,
            start_ns: 50,
            end_ns: 150,
            kind: FaultKind::Degrade { bw_pct: 50, lat_pct: 200 },
        };
        let err = normalize_windows(vec![down(1, 0, 100), degrade]).unwrap_err();
        assert!(err.contains("different kind"), "{err}");
        // The same pair on different ports is fine.
        let mut ok = degrade;
        ok.port = 2;
        assert_eq!(normalize_windows(vec![down(1, 0, 100), ok]).unwrap().len(), 2);
    }

    #[test]
    fn domain_selection_is_seeded_and_clamped() {
        let topo = Topology::build(TopologyConfig::fat_tree_oversubscribed(16, 4, 4));
        let a = select_fault_domains(&topo, 1, false, 7);
        assert_eq!(a, select_fault_domains(&topo, 1, false, 7), "same seed, same domains");
        assert_eq!(a.len(), 1);
        assert!(!a[0].is_empty());
        // More domains than the tier has collapses to all of them.
        let all = select_fault_domains(&topo, 100, false, 7);
        assert_eq!(all.len(), topo.failure_domains(false).len());
    }

    #[test]
    fn count_is_clamped_to_candidates() {
        let topo =
            Topology::build(TopologyConfig::SingleSwitch { hosts: 4, link: LinkParams::default() });
        let picked = select_fault_ports(&topo, 100, 1);
        assert_eq!(picked.len(), 4, "only 4 delivery ports exist");
    }
}
