//! `Topology::failure_domains` against its former implementation.
//!
//! Failure domains are now read off the port table: each port records the
//! node it leaves and the node it enters, and a switch's domain is every
//! port touching it. The per-topology index arithmetic they replaced lives
//! on below, verbatim but for where it reads the fabric's geometry, as a
//! test-only oracle: on every fabric family, on both tiers, the two must
//! return `==` domains.

use atlahs_htsim::topology::{LinkParams, Topology, TopologyConfig};

/// The geometry the parent read off private `Topology` fields, rebuilt
/// from the config: `(tors, uplinks)` of a fat tree, and a dragonfly's
/// local-port base with its global wiring map (the parent builder's loop).
struct Geometry {
    tors: usize,
    uplinks: usize,
    local_base: usize,
    links: Vec<Vec<Vec<(u32, u32, u32)>>>,
}

fn geometry(config: &TopologyConfig) -> Geometry {
    match *config {
        TopologyConfig::SingleSwitch { hosts, .. } => {
            Geometry { tors: 1, uplinks: 0, local_base: 2 * hosts, links: Vec::new() }
        }
        TopologyConfig::FatTree2L { hosts, hosts_per_tor, uplinks_per_tor, .. } => Geometry {
            tors: hosts.div_ceil(hosts_per_tor),
            uplinks: uplinks_per_tor,
            local_base: 2 * hosts,
            links: Vec::new(),
        },
        TopologyConfig::Dragonfly {
            groups, routers_per_group: r, global_per_router: gl, ..
        } => {
            let local_base = 2 * config.num_hosts();
            let global_base = local_base + groups * r * (r - 1);
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
            Geometry { tors: groups, uplinks: gl, local_base, links }
        }
    }
}

/// The parent commit's `Topology::failure_domains`.
fn failure_domains_reference(config: &TopologyConfig, core_tier: bool) -> Vec<Vec<u32>> {
    let geo = geometry(config);
    let hosts_per_tor = match *config {
        TopologyConfig::SingleSwitch { hosts, .. } => hosts,
        TopologyConfig::FatTree2L { hosts_per_tor, .. } => hosts_per_tor,
        TopologyConfig::Dragonfly { routers_per_group, hosts_per_router, .. } => {
            routers_per_group * hosts_per_router
        }
    };
    let tor_of = |host: u32| host as usize / hosts_per_tor;
    let mut domains: Vec<Vec<u32>> = match config {
        TopologyConfig::SingleSwitch { hosts, .. } => {
            vec![(0..2 * *hosts as u32).collect()]
        }
        TopologyConfig::FatTree2L { hosts, .. } => {
            let (h, t, u) = (*hosts, geo.tors, geo.uplinks);
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
                            .filter(|&host| tor_of(host as u32) == tor)
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
        TopologyConfig::Dragonfly { groups, routers_per_group, hosts_per_router, .. } => {
            // One router level: rack and core tiers coincide. Domain
            // for router (g, rr): its hosts' edge ports (both
            // directions), locals it owns and locals into it, globals
            // it owns and globals landing on it.
            let hosts = config.num_hosts();
            let (r, hpr) = (*routers_per_group, *hosts_per_router);
            let local_port = |g: usize, a: usize, b: usize| -> u32 {
                let slot = if b < a { b } else { b - 1 };
                (geo.local_base + (g * r + a) * (r - 1) + slot) as u32
            };
            (0..*groups)
                .flat_map(|g| (0..r).map(move |rr| (g, rr)))
                .map(|(g, rr)| {
                    let router = g * r + rr;
                    let mut d: Vec<u32> = (router * hpr..(router + 1) * hpr)
                        .flat_map(|host| [host as u32, (hosts + host) as u32])
                        .collect();
                    for b in (0..r).filter(|&b| b != rr) {
                        d.push(local_port(g, rr, b));
                        d.push(local_port(g, b, rr));
                    }
                    // Globals the router owns.
                    let global_base = geo.local_base + *groups * r * (r - 1);
                    d.extend(
                        (0..geo.uplinks).map(|k| (global_base + router * geo.uplinks + k) as u32),
                    );
                    // Globals landing on it: scan the wiring map.
                    for (g2, from) in geo.links.iter().enumerate() {
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

fn assert_agrees(config: TopologyConfig) {
    let topo = Topology::build(config.clone());
    for core_tier in [false, true] {
        assert_eq!(
            topo.failure_domains(core_tier),
            failure_domains_reference(&config, core_tier),
            "{config:?}, core tier: {core_tier}"
        );
    }
}

#[test]
fn fat_tree_domains_match_the_reference() {
    let partial_last_rack = |hosts, hosts_per_tor, uplinks_per_tor| TopologyConfig::FatTree2L {
        hosts,
        hosts_per_tor,
        uplinks_per_tor,
        edge: LinkParams::default(),
        core: LinkParams::default(),
    };
    for config in [
        TopologyConfig::fat_tree(16, 4),
        TopologyConfig::fat_tree(64, 8),
        TopologyConfig::fat_tree_oversubscribed(16, 4, 2),
        TopologyConfig::fat_tree_oversubscribed(16, 4, 4),
        TopologyConfig::fat_tree_oversubscribed(48, 8, 8),
        partial_last_rack(13, 4, 2),
        partial_last_rack(21, 8, 8),
        partial_last_rack(1, 4, 4),
    ] {
        assert_agrees(config);
    }
}

#[test]
fn dragonfly_domains_match_the_reference() {
    for config in [
        TopologyConfig::dragonfly(3, 2, 2),
        TopologyConfig::dragonfly(4, 3, 2),
        // global_per_router > 1: more groups than routers per group.
        TopologyConfig::dragonfly(5, 2, 2),
        TopologyConfig::dragonfly(7, 2, 1),
        TopologyConfig::dragonfly(9, 3, 3),
        TopologyConfig::Dragonfly {
            groups: 3,
            routers_per_group: 2,
            hosts_per_router: 1,
            global_per_router: 3,
            edge: LinkParams::default(),
            local: LinkParams::default(),
            global: LinkParams::default(),
        },
    ] {
        if let TopologyConfig::Dragonfly { groups: 5 | 7 | 9, global_per_router, .. } = config {
            assert!(global_per_router > 1, "{config:?}");
        }
        assert_agrees(config);
    }
}

#[test]
fn single_switch_domains_match_the_reference() {
    for hosts in [1, 4, 8, 33] {
        assert_agrees(TopologyConfig::SingleSwitch { hosts, link: LinkParams::default() });
    }
}
