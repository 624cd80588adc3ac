//! Seeded, deterministic link-fault injection for the packet engine.
//!
//! A fault is a *timed window* on one port: either the link is **down**
//! (every packet entering the port's queue is discarded — an ingress
//! blackhole, recovered by the retransmission machinery exactly as a
//! congestion loss would be) or **degraded** (bandwidth and latency are
//! scaled for the duration of the window, so congestion control reacts to
//! the slower link naturally).
//!
//! The window regimes a grid names ([`WindowFault`]: `linkflap`,
//! `degrade`, `markov`, `rackfail`, `switchfail`, `churn`) parse, label
//! and lower here, next to the ports they fail: [`WindowFault::lower`]
//! turns one into [`PortFault`]s on a built [`Topology`] from a seed,
//! picking single ports ([`select_fault_ports`]) or whole failure domains
//! ([`Topology::failure_domains`]) and normalizing the result.
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

use atlahs_core::faultgen::{self, num, ChurnEvent, Distribution};
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

/// A timed-window fault regime: the `--faults` tokens that lower to
/// [`PortFault`] windows on a built topology. Labels are canonical —
/// `parse(label())` roundtrips — because they key cells and seed the
/// draws (`cell_seed(cell_seed, label)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowFault {
    /// `links` seeded fault-candidate ports go down at `down_ns` and come
    /// back at `up_ns` (recovered by retransmission).
    LinkFlap { links: usize, down_ns: u64, up_ns: u64 },
    /// `links` seeded ports run at `bw_pct`% bandwidth and `lat_pct`%
    /// latency between `from_ns` and `to_ns`.
    Degrade { links: usize, bw_pct: u32, lat_pct: u32, from_ns: u64, to_ns: u64 },
    /// Gilbert–Elliott flapping: `links` seeded ports alternate between
    /// up (Exp mean `up_ns`) and down (Exp mean `down_ns`) sojourns,
    /// unrolled deterministically into down-windows over `[0, horizon_ns)`.
    Markov { links: usize, up_ns: u64, down_ns: u64, horizon_ns: u64 },
    /// Correlated failure: `racks` seeded edge-tier failure domains (a
    /// ToR and every port touching it) go down whole between `from_ns`
    /// and `to_ns`.
    RackFail { racks: usize, from_ns: u64, to_ns: u64 },
    /// Correlated failure: `switches` seeded core-tier failure domains
    /// down whole between `from_ns` and `to_ns`.
    SwitchFail { switches: usize, from_ns: u64, to_ns: u64 },
    /// Churn-trace replay: a validated down/up event sequence per trace
    /// domain, mapped onto the topology's edge failure domains (see
    /// [`atlahs_core::faultgen::parse_churn_trace`]).
    Churn { events: Vec<ChurnEvent> },
}

impl WindowFault {
    pub fn label(&self) -> String {
        match *self {
            WindowFault::LinkFlap { links, down_ns, up_ns } => {
                format!("linkflap:{links}:{down_ns}:{up_ns}")
            }
            WindowFault::Degrade { links, bw_pct, lat_pct, from_ns, to_ns } => {
                format!("degrade:{links}:{bw_pct}:{lat_pct}:{from_ns}:{to_ns}")
            }
            WindowFault::Markov { links, up_ns, down_ns, horizon_ns } => {
                format!("markov:{links}:{up_ns}:{down_ns}:{horizon_ns}")
            }
            WindowFault::RackFail { racks, from_ns, to_ns } => {
                format!("rackfail:{racks}:{from_ns}:{to_ns}")
            }
            WindowFault::SwitchFail { switches, from_ns, to_ns } => {
                format!("switchfail:{switches}:{from_ns}:{to_ns}")
            }
            WindowFault::Churn { ref events } => {
                format!("churn:{}", faultgen::churn_inline_label(events))
            }
        }
    }

    /// Parse a window-fault token (the inverse of [`WindowFault::label`]).
    /// Returns `None` when the token is not from this family (so callers
    /// can fall through to other fault grammars), `Some(Err(..))` when it
    /// is but is malformed or degenerate. `churn:` takes the inline event
    /// grammar (`<t_ns>;<domain>;<d|u>` joined by `,`); a trace *file*
    /// is read by the caller and handed to [`WindowFault::churn`].
    pub fn parse(tok: &str) -> Option<Result<Self, String>> {
        Self::parse_fields(tok).transpose()
    }

    fn parse_fields(tok: &str) -> Result<Option<Self>, String> {
        if let Some(rest) = tok.strip_prefix("churn:") {
            return Self::churn(tok, faultgen::parse_churn_inline(rest)?).map(Some);
        }
        // The `[from, to)` fields of a window fault.
        let window = |from: &str, to: &str| -> Result<(u64, u64), String> {
            let (from_ns, to_ns) = (num(tok, from)?, num(tok, to)?);
            if to_ns <= from_ns {
                return Err(format!("fault `{tok}`: the window must close after it opens"));
            }
            Ok((from_ns, to_ns))
        };
        let parts: Vec<&str> = tok.split(':').collect();
        Ok(Some(match parts.as_slice() {
            ["linkflap", links, down, up] => {
                let (down_ns, up_ns) = window(down, up)?;
                WindowFault::LinkFlap { links: num(tok, links)?, down_ns, up_ns }
            }
            ["degrade", links, bw, lat, from, to] => {
                let (from_ns, to_ns) = window(from, to)?;
                let (bw_pct, lat_pct): (u32, u32) = (num(tok, bw)?, num(tok, lat)?);
                if bw_pct == 0 {
                    return Err(format!(
                        "fault `{tok}`: bw_pct must be >= 1 — a 0-bandwidth link never drains; \
                         model an outage with linkflap/markov/rackfail instead"
                    ));
                }
                if lat_pct == 0 {
                    return Err(format!(
                        "fault `{tok}`: lat_pct must be >= 1 — a zero-latency wire is not a \
                         degradation (100 = nominal, >100 = slower)"
                    ));
                }
                WindowFault::Degrade { links: num(tok, links)?, bw_pct, lat_pct, from_ns, to_ns }
            }
            ["markov", links, up, down, horizon] => {
                let (up_ns, down_ns, horizon_ns): (u64, u64, u64) =
                    (num(tok, up)?, num(tok, down)?, num(tok, horizon)?);
                if up_ns == 0 || down_ns == 0 {
                    return Err(format!(
                        "fault `{tok}`: mean sojourn times must be >= 1 ns in both states"
                    ));
                }
                if horizon_ns == 0 {
                    return Err(format!("fault `{tok}`: the flapping horizon must be >= 1 ns"));
                }
                WindowFault::Markov { links: num(tok, links)?, up_ns, down_ns, horizon_ns }
            }
            ["rackfail", racks, from, to] => {
                let (from_ns, to_ns) = window(from, to)?;
                WindowFault::RackFail { racks: num(tok, racks)?, from_ns, to_ns }
            }
            ["switchfail", switches, from, to] => {
                let (from_ns, to_ns) = window(from, to)?;
                WindowFault::SwitchFail { switches: num(tok, switches)?, from_ns, to_ns }
            }
            _ => return Ok(None),
        }))
    }

    /// A churn replay of `events`, refused when the trace is empty (`tok`
    /// names the token in the error).
    pub fn churn(tok: &str, events: Vec<ChurnEvent>) -> Result<Self, String> {
        if events.is_empty() {
            return Err(format!("fault `{tok}`: the churn trace has no events"));
        }
        Ok(WindowFault::Churn { events })
    }

    /// The concrete port windows of this regime on `topo`, every draw
    /// keyed by `fault_seed`.
    pub fn lower(&self, topo: &Topology, fault_seed: u64) -> Vec<PortFault> {
        match *self {
            WindowFault::LinkFlap { links, down_ns: start_ns, up_ns: end_ns }
            | WindowFault::Degrade { links, from_ns: start_ns, to_ns: end_ns, .. } => {
                let kind = match *self {
                    WindowFault::Degrade { bw_pct, lat_pct, .. } => {
                        FaultKind::Degrade { bw_pct, lat_pct }
                    }
                    _ => FaultKind::Down,
                };
                select_fault_ports(topo, links, fault_seed)
                    .into_iter()
                    .map(|port| PortFault { port, start_ns, end_ns, kind })
                    .collect()
            }
            WindowFault::Markov { links, up_ns, down_ns, horizon_ns } => {
                let up = Distribution::Exp { mean_ns: up_ns };
                let down = Distribution::Exp { mean_ns: down_ns };
                let faults = select_fault_ports(topo, links, fault_seed)
                    .into_iter()
                    .flat_map(|port| {
                        // One derived seed per port: which ports the
                        // shuffle picked never changes *how* a given
                        // port flaps.
                        let per_port = faultgen::fnv_draw(fault_seed, "markov-port", port as u64);
                        faultgen::unroll_two_state(
                            per_port,
                            &up,
                            &down,
                            horizon_ns,
                            MAX_FLAP_WINDOWS,
                        )
                        .into_iter()
                        .map(move |(start_ns, end_ns)| PortFault {
                            port,
                            start_ns,
                            end_ns,
                            kind: FaultKind::Down,
                        })
                    })
                    .collect();
                // Per-port trains are disjoint by construction; normalize
                // only re-sorts across ports (and would catch a generator
                // regression).
                normalize_windows(faults).expect("two-state unroll yields disjoint down-windows")
            }
            WindowFault::RackFail { racks, from_ns, to_ns } => {
                domain_windows(topo, racks, false, fault_seed, from_ns, to_ns)
            }
            WindowFault::SwitchFail { switches, from_ns, to_ns } => {
                domain_windows(topo, switches, true, fault_seed, from_ns, to_ns)
            }
            WindowFault::Churn { ref events } => {
                let domains = topo.failure_domains(false);
                let mut faults = Vec::new();
                let mut seen: Vec<u32> = events.iter().map(|e| e.domain).collect();
                seen.sort_unstable();
                seen.dedup();
                for dom in seen {
                    let ports = &domains[dom as usize % domains.len()];
                    for (start_ns, end_ns) in faultgen::churn_windows(events, dom) {
                        for &port in ports {
                            faults.push(PortFault {
                                port,
                                start_ns,
                                end_ns,
                                kind: FaultKind::Down,
                            });
                        }
                    }
                }
                // Two trace domains may alias to one topology domain;
                // same-kind overlap merges into the union window.
                normalize_windows(faults).expect("churn replay emits only Down windows")
            }
        }
    }
}

/// Cap on generated windows per flapping port — a backstop against a
/// pathological `up_ns`/`down_ns` vs. horizon ratio, far above anything
/// a realistic spec unrolls.
const MAX_FLAP_WINDOWS: usize = 4096;

/// Down every port of `count` seeded failure domains for `[from_ns, to_ns)`.
fn domain_windows(
    topo: &Topology,
    count: usize,
    core_tier: bool,
    fault_seed: u64,
    from_ns: u64,
    to_ns: u64,
) -> Vec<PortFault> {
    let faults = select_fault_domains(topo, count, core_tier, fault_seed)
        .into_iter()
        .flatten()
        .map(|port| PortFault { port, start_ns: from_ns, end_ns: to_ns, kind: FaultKind::Down })
        .collect();
    // Edge domains partition the port table but core domains of a fat
    // tree share nothing either; dedup via merge keeps this robust if a
    // topology ever yields overlapping domains.
    normalize_windows(faults).expect("domain failure emits only Down windows")
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
fn normalize_windows(faults: Vec<PortFault>) -> Result<Vec<PortFault>, String> {
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
fn select_fault_domains(
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
            .filter(|(_, p)| (p.to as usize) < topo.num_hosts())
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
            assert!((topo.ports()[p as usize].to as usize) < topo.num_hosts());
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
    fn generated_port_windows_are_seeded_and_normalized() {
        // The AI fabric of `ai-fattree:16:4`: 2 ToRs of 8, 2 uplinks each.
        let topo = Topology::build(TopologyConfig::fat_tree_oversubscribed(16, 8, 4));
        let markov =
            WindowFault::Markov { links: 2, up_ns: 40_000, down_ns: 8_000, horizon_ns: 400_000 };
        let a = markov.lower(&topo, 7);
        assert_eq!(a, markov.lower(&topo, 7), "same seed, same schedule");
        assert_ne!(a, markov.lower(&topo, 8), "flap schedules are seed-sensitive");
        assert!(!a.is_empty(), "a 5:1 up:down ratio over 400 µs must flap");
        assert_eq!(normalize_windows(a.clone()).unwrap(), a, "per-port windows stay disjoint");
        // Correlated domain failure downs every port of the rack at once.
        let rack =
            WindowFault::RackFail { racks: 1, from_ns: 10_000, to_ns: 90_000 }.lower(&topo, 7);
        let dom_sizes: Vec<usize> = topo.failure_domains(false).iter().map(|d| d.len()).collect();
        assert!(dom_sizes.contains(&rack.len()), "one whole rack domain fails: {rack:?}");
        assert!(rack.iter().all(|f| f.start_ns == 10_000 && f.end_ns == 90_000));
        // Churn maps trace domains onto rack domains and replays windows.
        let churn =
            WindowFault::parse("churn:1000;0;d,5000;0;u,2000;1;d,7000;1;u").unwrap().unwrap();
        let replay = churn.lower(&topo, 7);
        assert_eq!(replay, churn.lower(&topo, 99), "replay ignores the seed");
        assert_eq!(replay.len(), dom_sizes[0] + dom_sizes[1]);
    }

    #[test]
    fn parse_falls_through_outside_the_family() {
        for tok in ["none", "loss:20000", "linkflap:1:2", "rackfail:1:2:3:4", "straggler:1:2"] {
            assert_eq!(WindowFault::parse(tok), None, "{tok}");
        }
        let err = WindowFault::parse("switchfail:x:1:2").unwrap().unwrap_err();
        assert_eq!(err, "bad number `x` in `switchfail:x:1:2`");
        let err = WindowFault::parse("churn:").unwrap().unwrap_err();
        assert_eq!(err, "churn event ``: expected `t;domain;d|u`");
        let err = WindowFault::churn("churn:@empty", Vec::new()).unwrap_err();
        assert_eq!(err, "fault `churn:@empty`: the churn trace has no events");
    }

    #[test]
    fn count_is_clamped_to_candidates() {
        let topo =
            Topology::build(TopologyConfig::SingleSwitch { hosts: 4, link: LinkParams::default() });
        let picked = select_fault_ports(&topo, 100, 1);
        assert_eq!(picked.len(), 4, "only 4 delivery ports exist");
    }
}
