//! Network topologies: port layout and routing.
//!
//! The packet engine sees a flat array of unidirectional **ports** (output
//! queues). A topology assigns ports to host NICs and switch interfaces and
//! computes per-flow paths (lists of port ids) with ECMP hashing across
//! equal-cost core links.
//!
//! Routes are **interned**: [`Topology::route_ref`] memoizes each distinct
//! `(src, dst, ECMP bucket)` path into one flat arena and hands out a
//! [`PathRef`] (offset + length). The engine stores `PathRef`s in flows
//! and packets and resolves per-hop next ports with pure index arithmetic
//! — no per-packet or per-hop allocation, which is what makes per-packet
//! spraying (a route decision on *every hop of every packet*) affordable.
//! The arena and its lookup map belong to the *caller* (the engine keeps
//! them in its run state, next to the `PathRef`s that index them); the
//! topology itself is immutable once built.

use std::collections::HashMap;

use atlahs_eventq::hash::FastBuildHasher;

/// Physical parameters of one link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Line rate in Gbit/s.
    pub gbps: u64,
    /// Propagation latency in ns.
    pub latency_ns: u64,
}

impl LinkParams {
    /// The port rate at `bw_pct` % of line rate (nominal is 100), in
    /// units of 10 Mb/s: a byte takes `800 / rate` ns.
    pub fn rate(&self, bw_pct: u32) -> u64 {
        self.gbps.checked_mul(bw_pct.max(1) as u64).expect("link rate overflows u64")
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        // 100 Gb/s, 500 ns per hop.
        LinkParams { gbps: 100, latency_ns: 500 }
    }
}

/// Topology selection.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyConfig {
    /// All hosts behind one output-queued crossbar switch.
    SingleSwitch { hosts: usize, link: LinkParams },
    /// Two-level fat tree: ToR switches with `hosts_per_tor` downlinks and
    /// `uplinks_per_tor` core uplinks. The oversubscription ratio is
    /// `hosts_per_tor / uplinks_per_tor` (1 = fully provisioned).
    FatTree2L {
        hosts: usize,
        hosts_per_tor: usize,
        uplinks_per_tor: usize,
        edge: LinkParams,
        core: LinkParams,
    },
    /// Single-level Dragonfly (the Alps/Slingshot class): `groups` groups
    /// of `routers_per_group` routers, `hosts_per_router` hosts each.
    /// Routers within a group are all-to-all connected; each router owns
    /// `global_per_router` global links, distributed round-robin over the
    /// other groups. Minimal routing is `host → router [→ local] [→
    /// global] [→ local] → host`.
    Dragonfly {
        groups: usize,
        routers_per_group: usize,
        hosts_per_router: usize,
        /// Global links per router (≥1; the canonical balanced dragonfly
        /// has `groups - 1` globals spread over a group's routers).
        global_per_router: usize,
        edge: LinkParams,
        local: LinkParams,
        global: LinkParams,
    },
}

impl TopologyConfig {
    /// A fully provisioned fat tree for `hosts` hosts.
    pub fn fat_tree(hosts: usize, hosts_per_tor: usize) -> Self {
        TopologyConfig::FatTree2L {
            hosts,
            hosts_per_tor,
            uplinks_per_tor: hosts_per_tor,
            edge: LinkParams::default(),
            core: LinkParams::default(),
        }
    }

    /// A fat tree with `ratio:1` oversubscription between ToR and core.
    pub fn fat_tree_oversubscribed(hosts: usize, hosts_per_tor: usize, ratio: usize) -> Self {
        assert!(ratio >= 1 && hosts_per_tor % ratio == 0, "ratio must divide hosts_per_tor");
        TopologyConfig::FatTree2L {
            hosts,
            hosts_per_tor,
            uplinks_per_tor: hosts_per_tor / ratio,
            edge: LinkParams::default(),
            core: LinkParams::default(),
        }
    }

    /// A balanced dragonfly: every router carries enough global links for
    /// each group to reach every other group directly.
    pub fn dragonfly(groups: usize, routers_per_group: usize, hosts_per_router: usize) -> Self {
        let global_per_router = (groups - 1).div_ceil(routers_per_group).max(1);
        TopologyConfig::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
            global_per_router,
            edge: LinkParams::default(),
            local: LinkParams::default(),
            global: LinkParams { gbps: 100, latency_ns: 1_500 }, // long fibres
        }
    }

    /// The edge (host-facing) link class.
    pub fn edge_link(&self) -> LinkParams {
        match *self {
            TopologyConfig::SingleSwitch { link, .. } => link,
            TopologyConfig::FatTree2L { edge, .. } | TopologyConfig::Dragonfly { edge, .. } => edge,
        }
    }

    pub fn num_hosts(&self) -> usize {
        match *self {
            TopologyConfig::SingleSwitch { hosts, .. } => hosts,
            TopologyConfig::FatTree2L { hosts, .. } => hosts,
            TopologyConfig::Dragonfly { groups, routers_per_group, hosts_per_router, .. } => {
                groups * routers_per_group * hosts_per_router
            }
        }
    }
}

/// Description of one port for the engine.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    pub link: LinkParams,
    /// Host id this port delivers to, if it is the last hop of a path.
    pub to_host: Option<u32>,
    /// True for ToR→core and core→ToR ports (used in statistics).
    pub is_core: bool,
}

/// A route interned by [`Topology::route_ref`]: `len` port ids starting
/// at `off` in the arena it was interned into. Resolve with
/// [`PathRef::of`].
///
/// The empty reference (`len == 0`) stands for "no fabric traversal"
/// (intra-node flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathRef {
    off: u32,
    len: u16,
}

impl PathRef {
    /// The empty path (local, non-fabric flows).
    pub const EMPTY: PathRef = PathRef { off: 0, len: 0 };

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolve against the arena the route was interned into.
    #[inline]
    pub fn of(self, arena: &[u32]) -> &[u32] {
        &arena[self.off as usize..self.off as usize + self.len as usize]
    }
}

/// Route-cache map for the packed `(src, dst, bucket)` key: the key is a
/// single well-mixed `u64`, so SipHash's per-lookup cost (this sits on
/// the per-hop spray path) buys nothing. Uses the deterministic
/// multiplicative hasher shared with the message-level matcher
/// (`atlahs_eventq::hash`); the bucket layout never influences routing —
/// path selection is `ecmp % degree`, the map is lookup-only.
pub type RouteCache = HashMap<u64, PathRef, FastBuildHasher>;

/// Dragonfly bookkeeping: geometry plus the global-link wiring map.
#[derive(Debug, Clone)]
struct DragonflyMap {
    routers_per_group: usize,
    hosts_per_router: usize,
    local_base: usize,
    /// `links[g][tg]` = global links from group `g` to group `tg`, each as
    /// `(source router, port id, landing router)`.
    links: Vec<Vec<Vec<(u32, u32, u32)>>>,
}

/// A built topology: port table plus routing.
#[derive(Debug, Clone)]
pub struct Topology {
    config: TopologyConfig,
    ports: Vec<PortSpec>,
    hosts: usize,
    // FatTree2L bookkeeping
    hosts_per_tor: usize,
    uplinks: usize,
    tors: usize,
    // Dragonfly bookkeeping
    df: Option<DragonflyMap>,
}

impl Topology {
    pub fn build(config: TopologyConfig) -> Self {
        let topo = match config {
            TopologyConfig::SingleSwitch { hosts, link } => {
                let mut ports = Vec::with_capacity(2 * hosts);
                // 0..hosts: host h -> switch
                for _ in 0..hosts {
                    ports.push(PortSpec { link, to_host: None, is_core: false });
                }
                // hosts..2*hosts: switch -> host h
                for h in 0..hosts {
                    ports.push(PortSpec { link, to_host: Some(h as u32), is_core: false });
                }
                Topology {
                    config: TopologyConfig::SingleSwitch { hosts, link },
                    ports,
                    hosts,
                    hosts_per_tor: hosts,
                    uplinks: 0,
                    tors: 1,
                    df: None,
                }
            }
            TopologyConfig::FatTree2L { hosts, hosts_per_tor, uplinks_per_tor, edge, core } => {
                assert!(hosts_per_tor > 0 && uplinks_per_tor > 0);
                let tors = hosts.div_ceil(hosts_per_tor);
                let mut ports = Vec::new();
                // 0..H: host h -> its ToR
                for _ in 0..hosts {
                    ports.push(PortSpec { link: edge, to_host: None, is_core: false });
                }
                // H..2H: ToR -> host h
                for h in 0..hosts {
                    ports.push(PortSpec { link: edge, to_host: Some(h as u32), is_core: false });
                }
                // 2H..2H+T*U: tor t uplink u -> core u
                for _ in 0..tors * uplinks_per_tor {
                    ports.push(PortSpec { link: core, to_host: None, is_core: true });
                }
                // 2H+T*U..2H+2*T*U: core u downlink -> tor t
                for _ in 0..tors * uplinks_per_tor {
                    ports.push(PortSpec { link: core, to_host: None, is_core: true });
                }
                Topology {
                    config: TopologyConfig::FatTree2L {
                        hosts,
                        hosts_per_tor,
                        uplinks_per_tor,
                        edge,
                        core,
                    },
                    ports,
                    hosts,
                    hosts_per_tor,
                    uplinks: uplinks_per_tor,
                    tors,
                    df: None,
                }
            }
            TopologyConfig::Dragonfly {
                groups,
                routers_per_group: r,
                hosts_per_router: h,
                global_per_router: gl,
                edge,
                local,
                global,
            } => {
                assert!(groups >= 2 && r > 0 && h > 0 && gl > 0);
                assert!(
                    r * gl >= groups - 1,
                    "each group needs ≥ groups-1 global links to reach every peer \
                     (have {} = {r} routers x {gl} globals, need {})",
                    r * gl,
                    groups - 1
                );
                let hosts = groups * r * h;
                let mut ports = Vec::new();
                // [0, N): host -> its router.
                for _ in 0..hosts {
                    ports.push(PortSpec { link: edge, to_host: None, is_core: false });
                }
                // [N, 2N): router -> host.
                for hh in 0..hosts {
                    ports.push(PortSpec { link: edge, to_host: Some(hh as u32), is_core: false });
                }
                // Local all-to-all within each group: (g, a, b) with a != b.
                let local_base = ports.len();
                for _ in 0..groups * r * (r - 1) {
                    ports.push(PortSpec { link: local, to_host: None, is_core: false });
                }
                // Global links: router (g, rr) owns `gl` of them.
                let global_base = ports.len();
                for _ in 0..groups * r * gl {
                    ports.push(PortSpec { link: global, to_host: None, is_core: true });
                }
                // Wire globals: link j of group g targets the j-th other
                // group in cyclic order, landing on a spread-out router.
                let mut links = vec![vec![Vec::new(); groups]; groups];
                for (g, from_g) in links.iter_mut().enumerate() {
                    for j in 0..r * gl {
                        let src_router = (j / gl) as u32;
                        let k = j % gl;
                        let tg = (g + 1 + (j % (groups - 1))) % groups;
                        let dst_router = ((g + j / (groups - 1)) % r) as u32;
                        let port = (global_base + (g * r + src_router as usize) * gl + k) as u32;
                        from_g[tg].push((src_router, port, dst_router));
                    }
                }
                Topology {
                    config: TopologyConfig::Dragonfly {
                        groups,
                        routers_per_group: r,
                        hosts_per_router: h,
                        global_per_router: gl,
                        edge,
                        local,
                        global,
                    },
                    ports,
                    hosts,
                    hosts_per_tor: r * h, // hosts per group (for stats naming)
                    uplinks: gl,
                    tors: groups,
                    df: Some(DragonflyMap {
                        routers_per_group: r,
                        hosts_per_router: h,
                        local_base,
                        links,
                    }),
                }
            }
        };
        assert!(topo.ports.iter().all(|p| p.link.gbps > 0), "a link needs a rate above 0 Gb/s");
        topo
    }

    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    pub fn num_hosts(&self) -> usize {
        self.hosts
    }

    pub fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    /// Correlated failure domains: for each switch of the chosen tier,
    /// the set of ports that stop moving packets when that switch dies —
    /// the ports the switch owns (it can no longer forward) plus every
    /// port whose egress feeds *into* it (traffic heading to a dead
    /// switch is blackholed on entry). Downing a whole domain in one
    /// window is how the fault layer models rack- and switch-level
    /// failures.
    ///
    /// `core_tier == false` enumerates edge switches (fat-tree ToRs with
    /// their host links — "whole rack"; dragonfly routers; the single
    /// switch). `core_tier == true` enumerates the core tier (fat-tree
    /// core switches); topologies without a distinct core tier
    /// (`SingleSwitch`, dragonfly's single router level) fall back to
    /// the edge domains, mirroring [`crate::fault::select_fault_ports`]'s
    /// fallback. Every domain is a sorted, non-empty port set; domain
    /// order is the tier's switch order, so it is stable under any seed.
    pub fn failure_domains(&self, core_tier: bool) -> Vec<Vec<u32>> {
        let mut domains: Vec<Vec<u32>> = match &self.config {
            TopologyConfig::SingleSwitch { hosts, .. } => {
                vec![(0..2 * *hosts as u32).collect()]
            }
            TopologyConfig::FatTree2L { hosts, .. } => {
                let (h, t, u) = (*hosts, self.tors, self.uplinks);
                if core_tier {
                    // Core switch c: every ToR's uplink `c` feeds it; it
                    // owns downlink `c*T + t` to each ToR.
                    (0..u)
                        .map(|c| {
                            let mut d: Vec<u32> = (0..t)
                                .map(|tor| (2 * h + tor * u + c) as u32)
                                .chain((0..t).map(|tor| (2 * h + t * u + c * t + tor) as u32))
                                .collect();
                            d.sort_unstable();
                            d
                        })
                        .collect()
                } else {
                    // Rack tor: both edge directions of its hosts, its
                    // uplinks, and every core downlink landing on it.
                    (0..t)
                        .map(|tor| {
                            let mut d: Vec<u32> = (0..h)
                                .filter(|&host| self.tor_of(host as u32) == tor)
                                .flat_map(|host| [host as u32, (h + host) as u32])
                                .collect();
                            d.extend((0..u).map(|up| (2 * h + tor * u + up) as u32));
                            d.extend((0..u).map(|c| (2 * h + t * u + c * t + tor) as u32));
                            d.sort_unstable();
                            d
                        })
                        .collect()
                }
            }
            TopologyConfig::Dragonfly { groups, .. } => {
                // One router level: rack and core tiers coincide. Domain
                // for router (g, rr): its hosts' edge ports (both
                // directions), locals it owns and locals into it, globals
                // it owns and globals landing on it.
                let df = self.df.as_ref().expect("built dragonfly");
                let (r, hpr) = (df.routers_per_group, df.hosts_per_router);
                let local_port = |g: usize, a: usize, b: usize| -> u32 {
                    let slot = if b < a { b } else { b - 1 };
                    (df.local_base + (g * r + a) * (r - 1) + slot) as u32
                };
                (0..*groups)
                    .flat_map(|g| (0..r).map(move |rr| (g, rr)))
                    .map(|(g, rr)| {
                        let router = g * r + rr;
                        let mut d: Vec<u32> = (router * hpr..(router + 1) * hpr)
                            .flat_map(|host| [host as u32, (self.hosts + host) as u32])
                            .collect();
                        for b in (0..r).filter(|&b| b != rr) {
                            d.push(local_port(g, rr, b));
                            d.push(local_port(g, b, rr));
                        }
                        // Globals the router owns.
                        let global_base = df.local_base + *groups * r * (r - 1);
                        d.extend(
                            (0..self.uplinks)
                                .map(|k| (global_base + router * self.uplinks + k) as u32),
                        );
                        // Globals landing on it: scan the wiring map.
                        for (g2, from) in df.links.iter().enumerate() {
                            if g2 == g {
                                continue;
                            }
                            for &(_, port, dst_router) in &from[g] {
                                if dst_router as usize == rr {
                                    d.push(port);
                                }
                            }
                        }
                        d.sort_unstable();
                        d.dedup();
                        d
                    })
                    .collect()
            }
        };
        domains.retain(|d| !d.is_empty());
        domains
    }

    fn tor_of(&self, host: u32) -> usize {
        host as usize / self.hosts_per_tor
    }

    /// Number of equal-cost routes between `src` and `dst`: every ECMP
    /// selector collapses to a *bucket* `ecmp % degree`, and all selectors
    /// in one bucket share one path.
    fn ecmp_degree(&self, src: u32, dst: u32) -> u64 {
        match self.config {
            TopologyConfig::SingleSwitch { .. } => 1,
            TopologyConfig::FatTree2L { .. } => {
                if self.tor_of(src) == self.tor_of(dst) {
                    1
                } else {
                    self.uplinks as u64
                }
            }
            TopologyConfig::Dragonfly { .. } => {
                let df = self.df.as_ref().expect("built dragonfly");
                let gh = df.routers_per_group * df.hosts_per_router;
                let (gs, gd) = (src as usize / gh, dst as usize / gh);
                if gs == gd {
                    1
                } else {
                    df.links[gs][gd].len() as u64
                }
            }
        }
    }

    /// Append the path for `src → dst` under selector `ecmp` onto `out`.
    fn compute_route_into(&self, src: u32, dst: u32, ecmp: u64, out: &mut Vec<u32>) {
        assert_ne!(src, dst, "no self-routing: intra-node traffic is a calc");
        match self.config {
            TopologyConfig::SingleSwitch { hosts, .. } => {
                out.extend([src, (hosts + dst as usize) as u32]);
            }
            TopologyConfig::FatTree2L { hosts, .. } => {
                let h = hosts;
                let ts = self.tor_of(src);
                let td = self.tor_of(dst);
                if ts == td {
                    out.extend([src, (h + dst as usize) as u32]);
                } else {
                    // ECMP over the uplinks (one per core switch).
                    let u = (ecmp % self.uplinks as u64) as usize;
                    let tor_up = 2 * h + ts * self.uplinks + u;
                    let core_down = 2 * h + self.tors * self.uplinks + u * self.tors + td;
                    out.extend([src, tor_up as u32, core_down as u32, (h + dst as usize) as u32]);
                }
            }
            TopologyConfig::Dragonfly { .. } => {
                let df = self.df.as_ref().expect("built dragonfly");
                let r = df.routers_per_group;
                let h = df.hosts_per_router;
                let router_of = |host: u32| host as usize / h;
                let group_of = |host: u32| host as usize / (r * h);
                // Port id of the local link router a -> router b in group g.
                let local_port = |g: usize, a: usize, b: usize| -> u32 {
                    debug_assert_ne!(a, b);
                    let slot = if b < a { b } else { b - 1 };
                    (df.local_base + (g * r + a) * (r - 1) + slot) as u32
                };
                let down = (self.hosts + dst as usize) as u32;
                let gs = group_of(src);
                let gd = group_of(dst);
                let rs = router_of(src) % r;
                let rd = router_of(dst) % r;
                out.push(src);
                if gs == gd {
                    if rs != rd {
                        out.push(local_port(gs, rs, rd));
                    }
                } else {
                    // Minimal routing, ECMP over the direct global links.
                    let options = &df.links[gs][gd];
                    let (ra, gport, rb) = options[(ecmp % options.len() as u64) as usize];
                    if rs != ra as usize {
                        out.push(local_port(gs, rs, ra as usize));
                    }
                    out.push(gport);
                    if rb as usize != rd {
                        out.push(local_port(gd, rb as usize, rd));
                    }
                }
                out.push(down);
            }
        }
    }

    /// The path (list of port ids) for a flow from `src` to `dst`, using
    /// `ecmp` to pick among equal-cost core links.
    ///
    /// Allocates a fresh vector per call; the engine's hot paths use the
    /// interning [`Topology::route_ref`] instead.
    pub fn route(&self, src: u32, dst: u32, ecmp: u64) -> Vec<u32> {
        let mut out = Vec::with_capacity(5);
        self.compute_route_into(src, dst, ecmp, &mut out);
        out
    }

    /// The interned path for `src → dst` under selector `ecmp`: computed
    /// at most once per `(src, dst, ECMP bucket)` into the caller's
    /// `arena`, then served from `cache` as a [`PathRef`] — no allocation
    /// on cache hits. `cache` maps packed keys to references into `arena`;
    /// the two travel together.
    pub fn route_ref(
        &self,
        arena: &mut Vec<u32>,
        cache: &mut RouteCache,
        src: u32,
        dst: u32,
        ecmp: u64,
    ) -> PathRef {
        let bucket = ecmp % self.ecmp_degree(src, dst);
        debug_assert!(self.hosts <= 1 << 24 && bucket < 1 << 16, "route key packing");
        let key = (src as u64) << 40 | (dst as u64) << 16 | bucket;
        if let Some(&r) = cache.get(&key) {
            return r;
        }
        let off = arena.len();
        self.compute_route_into(src, dst, bucket, arena);
        let r = PathRef { off: off as u32, len: (arena.len() - off) as u16 };
        cache.insert(key, r);
        r
    }

    /// Base round-trip estimate for a path and its reverse: propagation plus
    /// one MTU serialization per forward hop and one header per reverse hop.
    /// A hop of `b` bytes costs `latency + 8·b / gbps` ns; the sum is kept
    /// as an exact fraction and rounded half up once.
    pub fn base_rtt(&self, path: &[u32], rpath: &[u32], mtu: u32) -> u64 {
        let hops = path.iter().map(|&p| (p, mtu as u128)).chain(rpath.iter().map(|&p| (p, 64)));
        let hops = hops.map(|(p, bytes)| (self.ports[p as usize].link, bytes));
        // Serialisation over the lcm of the hop rates, which on most paths
        // is their one rate: then no hop divides.
        let den = hops.clone().fold(1, |d, (l, _)| lcm(d, l.gbps as u128));
        let (latency, num) = hops.fold((0, 0), |(latency, num), (l, bytes)| {
            let scale = if l.gbps as u128 == den { 1 } else { den / l.gbps as u128 };
            (latency + l.latency_ns, num + 8 * bytes * scale)
        });
        latency + ((2 * num + den) / (2 * den)) as u64
    }
}

/// The least common multiple, without dividing when `a == b`.
fn lcm(a: u128, b: u128) -> u128 {
    if a == b {
        return a;
    }
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_failure_domains_cover_both_tiers() {
        // 16 hosts, 4 per ToR, 4:1 oversubscribed ⇒ 4 ToRs × 1 uplink.
        let t = Topology::build(TopologyConfig::fat_tree_oversubscribed(16, 4, 4));
        let racks = t.failure_domains(false);
        assert_eq!(racks.len(), 4, "one rack domain per ToR");
        for (tor, d) in racks.iter().enumerate() {
            // 4 hosts × 2 edge directions + 1 uplink + 1 core downlink.
            assert_eq!(d.len(), 10, "rack {tor}: {d:?}");
            assert!(d.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for h in 4 * tor..4 * tor + 4 {
                assert!(d.contains(&(h as u32)), "host→ToR port of host {h}");
                assert!(d.contains(&((16 + h) as u32)), "ToR→host port of host {h}");
            }
        }
        // Rack domains partition the port table: every port forwards
        // through exactly one edge switch.
        let mut all: Vec<u32> = racks.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..t.ports().len() as u32).collect::<Vec<_>>());

        let cores = t.failure_domains(true);
        assert_eq!(cores.len(), 1, "4:1 oversubscription leaves one core switch");
        assert_eq!(cores[0].len(), 8, "4 uplinks + 4 downlinks");
        assert!(cores[0].iter().all(|&p| t.ports()[p as usize].is_core));
    }

    #[test]
    fn single_switch_and_dragonfly_domains_fall_back_to_one_tier() {
        let t =
            Topology::build(TopologyConfig::SingleSwitch { hosts: 4, link: LinkParams::default() });
        for tier in [false, true] {
            let d = t.failure_domains(tier);
            assert_eq!(d.len(), 1, "one switch, one domain");
            assert_eq!(d[0], (0..8).collect::<Vec<u32>>());
        }

        let t = Topology::build(TopologyConfig::dragonfly(3, 2, 2));
        let d = t.failure_domains(false);
        assert_eq!(d.len(), 6, "one domain per router");
        assert_eq!(d, t.failure_domains(true), "a single router level has no separate core tier");
        // Every port is in some domain (owned by or feeding a router),
        // and each domain holds its router's host edge ports.
        let covered: std::collections::HashSet<u32> = d.iter().flatten().copied().collect();
        assert_eq!(covered.len(), t.ports().len());
        for (router, dom) in d.iter().enumerate() {
            for h in 2 * router..2 * router + 2 {
                assert!(dom.contains(&(h as u32)) && dom.contains(&((12 + h) as u32)));
            }
            assert!(dom.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        }
    }

    #[test]
    fn single_switch_routes() {
        let t =
            Topology::build(TopologyConfig::SingleSwitch { hosts: 4, link: LinkParams::default() });
        assert_eq!(t.route(0, 3, 0), vec![0, 4 + 3]);
        assert_eq!(t.ports().len(), 8);
        assert_eq!(t.ports()[7].to_host, Some(3));
    }

    #[test]
    fn fat_tree_intra_tor_short_path() {
        let t = Topology::build(TopologyConfig::fat_tree(16, 4));
        // hosts 0 and 3 share ToR 0: two hops.
        assert_eq!(t.route(0, 3, 0).len(), 2);
        // hosts 0 and 5 are on different ToRs: four hops.
        assert_eq!(t.route(0, 5, 0).len(), 4);
    }

    #[test]
    fn fat_tree_ecmp_spreads_over_uplinks() {
        let t = Topology::build(TopologyConfig::fat_tree(16, 4));
        let paths: std::collections::HashSet<Vec<u32>> =
            (0..16).map(|e| t.route(0, 5, e)).collect();
        assert_eq!(paths.len(), 4, "4 uplinks -> 4 distinct paths");
    }

    #[test]
    fn oversubscription_reduces_uplinks() {
        let t = Topology::build(TopologyConfig::fat_tree_oversubscribed(16, 8, 8));
        let paths: std::collections::HashSet<Vec<u32>> =
            (0..16).map(|e| t.route(0, 9, e)).collect();
        assert_eq!(paths.len(), 1, "8:1 oversubscription leaves one uplink");
        // Core ports flagged for statistics.
        let cores = t.ports().iter().filter(|p| p.is_core).count();
        assert_eq!(cores, 2 * 2); // 2 tors x 1 uplink, both directions
    }

    #[test]
    fn last_hop_delivers_to_destination() {
        let t = Topology::build(TopologyConfig::fat_tree(16, 4));
        for (src, dst) in [(0u32, 5u32), (7, 2), (15, 0)] {
            let path = t.route(src, dst, 3);
            let last = *path.last().unwrap();
            assert_eq!(t.ports()[last as usize].to_host, Some(dst));
        }
    }

    #[test]
    fn base_rtt_scales_with_hops() {
        let t = Topology::build(TopologyConfig::fat_tree(16, 4));
        let near = t.route(0, 1, 0);
        let far = t.route(0, 5, 0);
        let rtt_near = t.base_rtt(&near, &near, 4096);
        let rtt_far = t.base_rtt(&far, &far, 4096);
        assert!(rtt_far > rtt_near);
    }

    #[test]
    #[should_panic(expected = "no self-routing")]
    fn self_route_rejected() {
        let t = Topology::build(TopologyConfig::fat_tree(16, 4));
        t.route(3, 3, 0);
    }

    // ---- Route interning --------------------------------------------

    #[test]
    fn route_ref_agrees_with_route_everywhere() {
        // Every (src, dst, ecmp) must resolve to the identical path via
        // the interned arena and the allocating compatibility API, across
        // all three topology families.
        let topos = [
            Topology::build(TopologyConfig::SingleSwitch { hosts: 6, link: LinkParams::default() }),
            Topology::build(TopologyConfig::fat_tree(16, 4)),
            Topology::build(TopologyConfig::fat_tree_oversubscribed(16, 4, 2)),
            Topology::build(TopologyConfig::dragonfly(3, 4, 2)),
        ];
        for t in topos {
            let (mut arena, mut cache) = (Vec::new(), RouteCache::default());
            let n = t.num_hosts() as u32;
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    for ecmp in [0u64, 1, 7, 0xDEAD_BEEF] {
                        let owned = t.route(src, dst, ecmp);
                        let r = t.route_ref(&mut arena, &mut cache, src, dst, ecmp);
                        assert_eq!(r.of(&arena), &owned[..], "{src}->{dst} ecmp={ecmp}");
                    }
                }
            }
        }
    }

    #[test]
    fn route_ref_hits_cache_within_a_bucket() {
        let t = Topology::build(TopologyConfig::fat_tree(16, 4));
        let (mut arena, mut cache) = (Vec::new(), RouteCache::default());
        // 4 uplinks: selectors congruent mod 4 share a bucket and must
        // return the same interned reference without growing the arena.
        let a = t.route_ref(&mut arena, &mut cache, 0, 5, 3);
        let arena_len = arena.len();
        let b = t.route_ref(&mut arena, &mut cache, 0, 5, 7);
        assert_eq!(a, b, "same ECMP bucket must intern once");
        assert_eq!(arena.len(), arena_len);
        let c = t.route_ref(&mut arena, &mut cache, 0, 5, 4);
        assert_ne!(a.of(&arena), c.of(&arena), "different bucket, different uplink");
    }

    #[test]
    fn empty_pathref_is_empty() {
        assert!(PathRef::EMPTY.is_empty());
        assert_eq!(PathRef::EMPTY.len(), 0);
        assert_eq!(PathRef::EMPTY.of(&[]), &[] as &[u32]);
    }

    // ---- Dragonfly --------------------------------------------------

    fn df() -> Topology {
        // 4 groups x 3 routers x 2 hosts = 24 hosts; gl = ceil(3/3)=1.
        Topology::build(TopologyConfig::dragonfly(4, 3, 2))
    }

    #[test]
    fn dragonfly_geometry() {
        let t = df();
        assert_eq!(t.num_hosts(), 24);
        // ports: 2*24 edge + 4*3*2 local + 4*3*1 global.
        assert_eq!(t.ports().len(), 48 + 24 + 12);
        let globals = t.ports().iter().filter(|p| p.is_core).count();
        assert_eq!(globals, 12);
    }

    #[test]
    fn dragonfly_paths_terminate_at_destination() {
        let t = df();
        for (s, d) in [(0u32, 1u32), (0, 2), (0, 5), (0, 7), (0, 23), (13, 2), (22, 6)] {
            let path = t.route(s, d, 3);
            let last = *path.last().unwrap();
            assert_eq!(t.ports()[last as usize].to_host, Some(d), "{s}->{d}: {path:?}");
            assert!(path.len() <= 5, "minimal route is ≤5 hops: {path:?}");
        }
    }

    #[test]
    fn dragonfly_same_router_is_two_hops() {
        let t = df();
        // hosts 0 and 1 share router 0 of group 0.
        assert_eq!(t.route(0, 1, 0).len(), 2);
        // hosts 0 and 2 are different routers, same group: 3 hops.
        assert_eq!(t.route(0, 2, 0).len(), 3);
        // cross-group: at least one global hop.
        let cross = t.route(0, 23, 0);
        assert!(cross.len() >= 3);
        assert!(
            cross.iter().any(|&p| t.ports()[p as usize].is_core),
            "cross-group path must take a global link: {cross:?}"
        );
    }

    #[test]
    fn dragonfly_intra_group_avoids_globals() {
        let t = df();
        for d in 1..6u32 {
            let path = t.route(0, d, 7);
            assert!(
                path.iter().all(|&p| !t.ports()[p as usize].is_core),
                "intra-group traffic must stay local: 0->{d} {path:?}"
            );
        }
    }

    #[test]
    fn dragonfly_every_group_pair_is_connected() {
        let t = df();
        // Sample a host per group; every pair must route.
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    let s = a * 6;
                    let d = b * 6 + 1;
                    let path = t.route(s, d, a as u64 * 7 + b as u64);
                    assert_eq!(t.ports()[*path.last().unwrap() as usize].to_host, Some(d));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "global links")]
    fn dragonfly_underprovisioned_globals_rejected() {
        Topology::build(TopologyConfig::Dragonfly {
            groups: 8,
            routers_per_group: 2,
            hosts_per_router: 1,
            global_per_router: 1, // 2 < 7 required
            edge: LinkParams::default(),
            local: LinkParams::default(),
            global: LinkParams::default(),
        });
    }

    #[test]
    fn dragonfly_runs_traffic_end_to_end() {
        use atlahs_core::Simulation;
        use atlahs_goal::GoalBuilder;
        let mut b = GoalBuilder::new(24);
        for s in 0..24u32 {
            let d = (s + 7) % 24;
            b.send(s, d, 64 << 10, s);
            b.recv(d, s, 64 << 10, s);
        }
        let goal = b.build().unwrap();
        let cfg =
            crate::HtsimConfig::new(TopologyConfig::dragonfly(4, 3, 2), crate::CcAlgo::Mprdma);
        let mut be = crate::HtsimBackend::new(cfg);
        let rep = Simulation::new(&goal).run(&mut be).unwrap();
        assert_eq!(rep.completed, goal.total_tasks());
    }
}
