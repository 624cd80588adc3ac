//! Network topologies: port layout and routing.
//!
//! The packet engine sees a flat array of unidirectional **ports** (output
//! queues). A topology assigns ports to host NICs and switch interfaces and
//! computes per-flow paths (lists of port ids) with ECMP hashing across
//! equal-cost core links.
//!
//! Routes are **interned** per host pair: on a pair's first use,
//! `Topology::route_set` computes all of its equal-cost routes into one
//! flat arena, one [`PathRef`] (offset + length) each, and files them as a
//! contiguous `RouteSet` in bucket order. Picking a route is then
//! `set.first + ecmp % set.degree`, an index into the set table with no
//! hashing, which is what makes per-packet spraying (a route decision for
//! *every packet*) affordable; forwarding hops are index arithmetic on the
//! `PathRef` the packet carries. The arena, the set table and the pair
//! map ([`RouteCache`]) belong to the *caller* (the engine keeps them in
//! its run state, next to the references that index them); the topology
//! itself is immutable once built.

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

/// A route is named by its key `(src, dst, bucket)`: the pair picks a
/// `RouteSet`, the bucket a route in it. [`Topology::build`] refuses a
/// fabric with more hosts than a key's `src` and `dst` range over, and
/// the scenario grammar checks the same bound, so an oversized fabric
/// fails at the CLI, naming the field.
pub const MAX_HOSTS: usize = 1 << 24;

/// The most equal-cost routes between two hosts a route key tells apart
/// (see [`MAX_HOSTS`]). A pair's first flow interns its whole set, so this
/// also bounds what one pair costs: `degree` routes of at most five ports.
pub const MAX_ECMP: usize = 1 << 16;

/// Description of one port for the engine.
///
/// Ports connect *nodes*: hosts are nodes `0..hosts`, and the switches
/// follow them, the edge tier (ToRs, dragonfly routers, the single
/// switch) first and then the core tier.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    pub link: LinkParams,
    /// The node the port leaves.
    pub from: u32,
    /// The node the port enters: a host id when the port is the last hop
    /// of a path.
    pub to: u32,
    /// True for ToR→core and core→ToR ports (used in statistics).
    pub is_core: bool,
}

/// A route interned by `Topology::route_set`: `len` port ids starting
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

/// All equal-cost routes of one host pair, interned by
/// [`Topology::route_set`]: `degree` [`PathRef`]s from `first` in the
/// set table of the [`RouteCache`] that interned them, in bucket order.
/// The default set is empty and stands for "no fabric traversal".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RouteSet {
    first: u32,
    degree: u32,
}

/// The interned route sets: the set table, and the map from a pair to
/// its set. The map is keyed by `src << 32 | dst`, a single well-mixed
/// `u64`, with the deterministic multiplicative hasher shared with the
/// message-level matcher (`atlahs_eventq::hash`); it is lookup-only, so
/// its bucket layout never influences routing. Only a pair's first flow
/// looks it up: packets pick their routes from the set the flow keeps.
#[derive(Debug, Clone, Default)]
pub struct RouteCache {
    pairs: HashMap<u64, RouteSet, FastBuildHasher>,
    sets: Vec<PathRef>,
}

impl RouteCache {
    /// The route of `set` that selector `ecmp` picks: bucket
    /// `ecmp % degree`, as in [`Topology::route`].
    #[inline]
    pub(crate) fn route(&self, set: RouteSet, ecmp: u64) -> PathRef {
        self.sets[set.first as usize + (ecmp % set.degree as u64) as usize]
    }
}

/// A built topology: port table plus routing.
#[derive(Debug, Clone)]
pub struct Topology {
    config: TopologyConfig,
    ports: Vec<PortSpec>,
    hosts: usize,
    /// Switches per tier, edge then core; their node ids follow the hosts'.
    switches: [usize; 2],
    /// A dragonfly's global-link wiring (empty for other fabrics):
    /// `globals[g][tg]` = the links from group `g` to group `tg`, each as
    /// `(source router, port id, landing router)`.
    globals: Vec<Vec<Vec<(u32, u32, u32)>>>,
}

impl Topology {
    pub fn build(config: TopologyConfig) -> Self {
        let hosts = config.num_hosts();
        assert!(hosts <= MAX_HOSTS, "{hosts} hosts: a route key holds at most {MAX_HOSTS}");
        let port = |link: LinkParams, from: usize, to: usize, is_core: bool| PortSpec {
            link,
            from: from as u32,
            to: to as u32,
            is_core,
        };
        // Hosts per edge switch, and edge switches.
        let (per_edge, edges) = match config {
            TopologyConfig::SingleSwitch { .. } => (hosts.max(1), 1),
            TopologyConfig::FatTree2L { hosts_per_tor, uplinks_per_tor, .. } => {
                assert!(hosts_per_tor > 0 && uplinks_per_tor > 0);
                (hosts_per_tor, hosts.div_ceil(hosts_per_tor))
            }
            TopologyConfig::Dragonfly {
                groups,
                routers_per_group: r,
                hosts_per_router: h,
                global_per_router: gl,
                ..
            } => {
                assert!(groups >= 2 && r > 0 && h > 0 && gl > 0);
                assert!(
                    r * gl >= groups - 1,
                    "each group needs ≥ groups-1 global links to reach every peer \
                     (have {} = {r} routers x {gl} globals, need {})",
                    r * gl,
                    groups - 1
                );
                (h, groups * r)
            }
        };
        let edge = config.edge_link();
        // [0, H): host h -> its edge switch; [H, 2H): that switch -> host h.
        let mut ports: Vec<PortSpec> =
            (0..hosts).map(|h| port(edge, h, hosts + h / per_edge, false)).collect();
        ports.extend((0..hosts).map(|h| port(edge, hosts + h / per_edge, h, false)));
        let (mut cores, mut globals) = (0, Vec::new());
        let ecmp = match config {
            TopologyConfig::SingleSwitch { .. } => 1,
            TopologyConfig::FatTree2L { uplinks_per_tor: u, core, .. } => {
                cores = u;
                // 2H + t·U + c: ToR t's uplink c -> core switch c.
                for t in 0..edges {
                    ports.extend((0..u).map(|c| port(core, hosts + t, hosts + edges + c, true)));
                }
                // 2H + T·U + c·T + t: core switch c -> ToR t.
                for c in 0..u {
                    ports
                        .extend((0..edges).map(|t| port(core, hosts + edges + c, hosts + t, true)));
                }
                u
            }
            TopologyConfig::Dragonfly {
                groups,
                routers_per_group: r,
                global_per_router: gl,
                local,
                global,
                ..
            } => {
                let router = |g: usize, a: usize| hosts + g * r + a;
                // [2H, 2H + G·R·(R-1)): local all-to-all within each
                // group, (g, a, b) with a != b.
                for (g, a) in (0..groups).flat_map(|g| (0..r).map(move |a| (g, a))) {
                    ports.extend(
                        (0..r)
                            .filter(|&b| b != a)
                            .map(|b| port(local, router(g, a), router(g, b), false)),
                    );
                }
                // Global links: link j of group g, owned by router j / gl,
                // targets the j-th other group in cyclic order, landing on
                // a spread-out router.
                globals = vec![vec![Vec::new(); groups]; groups];
                for (g, from_g) in globals.iter_mut().enumerate() {
                    for j in 0..r * gl {
                        let (src, tg) = (j / gl, (g + 1 + (j % (groups - 1))) % groups);
                        let dst = (g + j / (groups - 1)) % r;
                        from_g[tg].push((src as u32, ports.len() as u32, dst as u32));
                        ports.push(port(global, router(g, src), router(tg, dst), true));
                    }
                }
                globals.iter().flatten().map(Vec::len).max().unwrap_or(1)
            }
        };
        assert!(ecmp <= MAX_ECMP, "{ecmp} equal-cost routes: a route key tells {MAX_ECMP} apart");
        assert!(ports.iter().all(|p| p.link.gbps > 0), "a link needs a rate above 0 Gb/s");
        Topology { config, ports, hosts, switches: [edges, cores], globals }
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

    /// Correlated failure domains: for each switch of the chosen tier, in
    /// switch order, the ports that stop moving packets when that switch
    /// dies — every port that leaves it (it can no longer forward) or
    /// enters it (traffic heading to a dead switch is blackholed on
    /// entry). Downing a whole domain in one window is how the fault layer
    /// models rack- and switch-level failures.
    ///
    /// `core_tier == false` enumerates the edge switches (fat-tree ToRs
    /// with their host links — "whole rack"; dragonfly routers; the single
    /// switch), `core_tier == true` the core switches; a fabric without a
    /// core tier (`SingleSwitch`, dragonfly's single router level) falls
    /// back to the edge domains, mirroring
    /// [`crate::fault::select_fault_ports`]'s fallback. Every domain is a
    /// sorted, non-empty port set.
    pub fn failure_domains(&self, core_tier: bool) -> Vec<Vec<u32>> {
        let [edges, cores] = self.switches;
        let (first, count) =
            if core_tier && cores > 0 { (self.hosts + edges, cores) } else { (self.hosts, edges) };
        let mut domains: Vec<Vec<u32>> = vec![Vec::new(); count];
        for (id, p) in self.ports.iter().enumerate() {
            for node in [p.from, p.to] {
                if let Some(d) = (node as usize).checked_sub(first).and_then(|s| domains.get_mut(s))
                {
                    d.push(id as u32);
                }
            }
        }
        domains.retain(|d| !d.is_empty());
        domains
    }

    /// Number of equal-cost routes between `src` and `dst`: every ECMP
    /// selector collapses to a *bucket* `ecmp % degree`, and all selectors
    /// in one bucket share one path.
    fn ecmp_degree(&self, src: u32, dst: u32) -> u64 {
        match self.config {
            TopologyConfig::SingleSwitch { .. } => 1,
            TopologyConfig::FatTree2L { hosts_per_tor, uplinks_per_tor, .. } => {
                if src as usize / hosts_per_tor == dst as usize / hosts_per_tor {
                    1
                } else {
                    uplinks_per_tor as u64
                }
            }
            TopologyConfig::Dragonfly { routers_per_group, hosts_per_router, .. } => {
                let gh = routers_per_group * hosts_per_router;
                let (gs, gd) = (src as usize / gh, dst as usize / gh);
                if gs == gd {
                    1
                } else {
                    self.globals[gs][gd].len() as u64
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
            TopologyConfig::FatTree2L { hosts: h, hosts_per_tor, uplinks_per_tor: u, .. } => {
                let ts = src as usize / hosts_per_tor;
                let td = dst as usize / hosts_per_tor;
                if ts == td {
                    out.extend([src, (h + dst as usize) as u32]);
                } else {
                    // ECMP over the uplinks (one per core switch).
                    let up = (ecmp % u as u64) as usize;
                    let tors = h.div_ceil(hosts_per_tor);
                    let tor_up = 2 * h + ts * u + up;
                    let core_down = 2 * h + tors * u + up * tors + td;
                    out.extend([src, tor_up as u32, core_down as u32, (h + dst as usize) as u32]);
                }
            }
            TopologyConfig::Dragonfly { routers_per_group: r, hosts_per_router: h, .. } => {
                let router_of = |host: u32| host as usize / h;
                let group_of = |host: u32| host as usize / (r * h);
                // Port id of the local link router a -> router b in group g.
                let local_port = |g: usize, a: usize, b: usize| -> u32 {
                    debug_assert_ne!(a, b);
                    let slot = if b < a { b } else { b - 1 };
                    (2 * self.hosts + (g * r + a) * (r - 1) + slot) as u32
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
                    let options = &self.globals[gs][gd];
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
    /// interned route sets of `Topology::route_set` instead.
    pub fn route(&self, src: u32, dst: u32, ecmp: u64) -> Vec<u32> {
        let mut out = Vec::with_capacity(5);
        self.compute_route_into(src, dst, ecmp, &mut out);
        out
    }

    /// The interned route set of `src → dst`: on the pair's first use
    /// every equal-cost route is computed into the caller's `arena` and
    /// filed in `cache`'s set table, then the set is served from `cache`
    /// with no allocation. `cache` holds references into `arena`; the two
    /// travel together.
    pub(crate) fn route_set(
        &self,
        arena: &mut Vec<u32>,
        cache: &mut RouteCache,
        src: u32,
        dst: u32,
    ) -> RouteSet {
        let key = (src as u64) << 32 | dst as u64;
        if let Some(&set) = cache.pairs.get(&key) {
            return set;
        }
        let degree = self.ecmp_degree(src, dst);
        let first = u32::try_from(cache.sets.len()).expect("route sets past u32 indices");
        let set = RouteSet { first, degree: degree as u32 };
        for bucket in 0..degree {
            let off = u32::try_from(arena.len()).expect("route arena past u32 offsets");
            self.compute_route_into(src, dst, bucket, arena);
            cache.sets.push(PathRef { off, len: (arena.len() - off as usize) as u16 });
        }
        cache.pairs.insert(key, set);
        set
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
    fn routes_chain_through_the_port_table() {
        // Every path leaves its source host, enters its destination host,
        // and each hop enters the node the next hop leaves.
        for t in [
            Topology::build(TopologyConfig::SingleSwitch { hosts: 5, link: LinkParams::default() }),
            Topology::build(TopologyConfig::fat_tree_oversubscribed(14, 4, 2)),
            Topology::build(TopologyConfig::dragonfly(5, 2, 2)),
        ] {
            let n = t.num_hosts() as u32;
            for (src, dst) in
                (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|(s, d)| s != d)
            {
                for ecmp in 0..3 {
                    let hops: Vec<PortSpec> =
                        t.route(src, dst, ecmp).iter().map(|&p| t.ports()[p as usize]).collect();
                    assert_eq!(hops[0].from, src);
                    assert_eq!(hops[hops.len() - 1].to, dst);
                    assert!(hops.windows(2).all(|w| w[0].to == w[1].from), "{src}->{dst}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "route key tells 65536 apart")]
    fn ecmp_degrees_past_the_route_key_are_refused() {
        // 70 000 uplinks per ToR: bucket 65 536 of host 0 -> 70 000 would
        // pack to the key of bucket 0 of host 0 -> 70 001.
        Topology::build(TopologyConfig::fat_tree(140_000, 70_000));
    }

    #[test]
    #[should_panic(expected = "a route key holds at most 16777216")]
    fn hosts_past_the_route_key_are_refused() {
        let link = LinkParams::default();
        Topology::build(TopologyConfig::SingleSwitch { hosts: MAX_HOSTS + 1, link });
    }

    #[test]
    fn single_switch_routes() {
        let t =
            Topology::build(TopologyConfig::SingleSwitch { hosts: 4, link: LinkParams::default() });
        assert_eq!(t.route(0, 3, 0), vec![0, 4 + 3]);
        assert_eq!(t.ports().len(), 8);
        assert_eq!(t.ports()[7].to, 3);
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
            assert_eq!(t.ports()[last as usize].to, dst);
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
                        let set = t.route_set(&mut arena, &mut cache, src, dst);
                        let r = cache.route(set, ecmp);
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
        let mut route = |ecmp| {
            let set = t.route_set(&mut arena, &mut cache, 0, 5);
            (cache.route(set, ecmp), arena.len())
        };
        let (a, arena_len) = route(3);
        let (b, len) = route(7);
        assert_eq!(a, b, "same ECMP bucket must intern once");
        assert_eq!(len, arena_len);
        let (c, _) = route(4);
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
            assert_eq!(t.ports()[last as usize].to, d, "{s}->{d}: {path:?}");
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
                    assert_eq!(t.ports()[*path.last().unwrap() as usize].to, d);
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
