//! Job placement strategies for multi-job and multi-tenant scenarios
//! (paper §3.2 and the Fig. 13 case study), plus the online
//! allocate → run → release node-pool lifecycle the dynamic cluster
//! engine schedules against.

use atlahs_goal::Rank;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// How jobs are mapped onto cluster nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Nodes are assigned sequentially to each job: job 0 gets nodes
    /// `0..n0`, job 1 gets `n0..n0+n1`, … — communication stays local
    /// (the paper's "Packed Allocation").
    Packed,
    /// Nodes are drawn from a seeded random permutation of the cluster —
    /// no locality (the paper's "Random Allocation").
    Random { seed: u64 },
    /// Nodes are dealt to jobs round-robin, interleaving them across the
    /// cluster (worst-case sharing of every switch).
    RoundRobin,
}

/// Allocate cluster nodes to jobs.
///
/// Returns one node list per job (`result[j][r]` = physical node of job `j`
/// rank `r`). Fails if the jobs need more nodes than the cluster has.
pub fn allocate(
    strategy: PlacementStrategy,
    cluster_size: usize,
    job_sizes: &[usize],
) -> Result<Vec<Vec<Rank>>, String> {
    let needed: usize = job_sizes.iter().sum();
    if needed > cluster_size {
        return Err(format!("jobs need {needed} nodes but the cluster has {cluster_size}"));
    }

    match strategy {
        PlacementStrategy::Packed => {
            let mut next = 0u32;
            Ok(job_sizes
                .iter()
                .map(|&n| {
                    let nodes = (next..next + n as u32).collect();
                    next += n as u32;
                    nodes
                })
                .collect())
        }
        PlacementStrategy::Random { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool: Vec<Rank> = (0..cluster_size as u32).collect();
            pool.shuffle(&mut rng);
            let mut next = 0usize;
            Ok(job_sizes
                .iter()
                .map(|&n| {
                    let nodes = pool[next..next + n].to_vec();
                    next += n;
                    nodes
                })
                .collect())
        }
        PlacementStrategy::RoundRobin => {
            let mut result: Vec<Vec<Rank>> = job_sizes.iter().map(|_| Vec::new()).collect();
            let mut remaining: Vec<usize> = job_sizes.to_vec();
            let mut node = 0u32;
            loop {
                let mut assigned = false;
                for (j, need) in remaining.iter_mut().enumerate() {
                    if *need > 0 {
                        result[j].push(node);
                        node += 1;
                        *need -= 1;
                        assigned = true;
                    }
                }
                if !assigned {
                    break;
                }
            }
            Ok(result)
        }
    }
}

// ----------------------------------------------------------- node pool ----

/// Fragmentation snapshot of a [`NodePool`]'s free set.
///
/// A *free extent* is a maximal run of contiguous free node indices. A
/// freshly drained cluster has one extent covering everything; as jobs of
/// different sizes come and go, the free set shatters into many small
/// extents, and jobs needing contiguous locality (packed placement) pay
/// for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragStats {
    /// Free nodes right now.
    pub free: usize,
    /// Number of maximal contiguous free extents.
    pub extents: usize,
    /// Size of the largest free extent.
    pub largest_extent: usize,
}

/// An online cluster-node allocator: the allocate → run → release
/// lifecycle behind dynamic job scheduling.
///
/// [`allocate`] maps a *static* batch of jobs onto an empty cluster; a
/// `NodePool` instead tracks which nodes are busy as jobs arrive and
/// leave, hands each admitted job a node set drawn according to its
/// [`PlacementStrategy`], and reclaims the nodes on release. All draws
/// are deterministic: `Random` consumes a seeded permutation stream, so
/// a pool replayed with the same strategy and the same alloc/release
/// sequence always yields the same placements.
#[derive(Debug, Clone)]
pub struct NodePool {
    strategy: PlacementStrategy,
    /// `busy[n]` — node `n` is currently allocated.
    busy: Vec<bool>,
    num_free: usize,
    /// RoundRobin rotation point: the next scan starts here.
    cursor: usize,
    /// Seeded generator backing `Random` draws.
    rng: StdRng,
}

impl NodePool {
    /// An empty (fully free) pool of `cluster_size` nodes.
    pub fn new(strategy: PlacementStrategy, cluster_size: usize) -> NodePool {
        let seed = match strategy {
            PlacementStrategy::Random { seed } => seed,
            _ => 0,
        };
        NodePool {
            strategy,
            busy: vec![false; cluster_size],
            num_free: cluster_size,
            cursor: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Total nodes in the cluster.
    pub fn cluster_size(&self) -> usize {
        self.busy.len()
    }

    /// Nodes currently free.
    pub fn num_free(&self) -> usize {
        self.num_free
    }

    /// Try to allocate `n` nodes; `None` if the pool cannot satisfy the
    /// request (the caller keeps the job queued). A refused request
    /// consumes no allocator state — not even `Random`'s RNG stream — so
    /// queue order never perturbs later placements.
    pub fn alloc(&mut self, n: usize) -> Option<Vec<Rank>> {
        if n > self.num_free {
            return None;
        }
        if n == 0 {
            return Some(Vec::new());
        }
        let nodes = match self.strategy {
            PlacementStrategy::Packed => {
                // Lowest-index free nodes: keeps allocations compact and
                // lets fragmentation accumulate at realistic boundaries.
                (0..self.busy.len() as u32).filter(|&i| !self.busy[i as usize]).take(n).collect()
            }
            PlacementStrategy::Random { .. } => {
                // A seeded partial Fisher–Yates over the free list.
                let mut pool: Vec<Rank> =
                    (0..self.busy.len() as u32).filter(|&i| !self.busy[i as usize]).collect();
                let mut picked = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = self.rng.random_range(0..pool.len());
                    picked.push(pool.swap_remove(i));
                }
                picked
            }
            PlacementStrategy::RoundRobin => {
                // Scan cyclically from the rotation point, then advance it
                // past the last node handed out, spreading successive jobs
                // around the fabric.
                let len = self.busy.len();
                let mut picked = Vec::with_capacity(n);
                let mut last = self.cursor;
                for off in 0..len {
                    let i = (self.cursor + off) % len;
                    if !self.busy[i] {
                        picked.push(i as u32);
                        last = i;
                        if picked.len() == n {
                            break;
                        }
                    }
                }
                self.cursor = (last + 1) % len;
                picked
            }
        };
        debug_assert_eq!(nodes.len(), n);
        for &node in &nodes {
            self.busy[node as usize] = true;
        }
        self.num_free -= n;
        Some(nodes)
    }

    /// Return a job's nodes to the pool. Panics on nodes that are out of
    /// range or not currently allocated (double release is a scheduler
    /// bug, not a recoverable condition).
    pub fn release(&mut self, nodes: &[Rank]) {
        for &node in nodes {
            let i = node as usize;
            assert!(i < self.busy.len(), "release: node {node} out of range");
            assert!(self.busy[i], "release: node {node} is not allocated");
            self.busy[i] = false;
        }
        self.num_free += nodes.len();
    }

    /// Fragmentation snapshot of the current free set.
    pub fn frag(&self) -> FragStats {
        let mut extents = 0;
        let mut largest = 0;
        let mut run = 0;
        for &b in &self.busy {
            if !b {
                if run == 0 {
                    extents += 1;
                }
                run += 1;
                largest = largest.max(run);
            } else {
                run = 0;
            }
        }
        FragStats { free: self.num_free, extents, largest_extent: largest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_is_sequential() {
        let p = allocate(PlacementStrategy::Packed, 8, &[3, 2]).unwrap();
        assert_eq!(p, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn random_is_a_permutation_and_deterministic() {
        let p1 = allocate(PlacementStrategy::Random { seed: 7 }, 16, &[8, 8]).unwrap();
        let p2 = allocate(PlacementStrategy::Random { seed: 7 }, 16, &[8, 8]).unwrap();
        assert_eq!(p1, p2, "same seed, same placement");
        let mut all: Vec<Rank> = p1.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());

        let p3 = allocate(PlacementStrategy::Random { seed: 8 }, 16, &[8, 8]).unwrap();
        assert_ne!(p1, p3, "different seed should (overwhelmingly) differ");
    }

    #[test]
    fn round_robin_interleaves() {
        let p = allocate(PlacementStrategy::RoundRobin, 8, &[2, 2]).unwrap();
        assert_eq!(p, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn round_robin_uneven_jobs() {
        let p = allocate(PlacementStrategy::RoundRobin, 8, &[3, 1]).unwrap();
        assert_eq!(p, vec![vec![0, 2, 3], vec![1]]);
    }

    #[test]
    fn overcommit_rejected() {
        assert!(allocate(PlacementStrategy::Packed, 4, &[3, 2]).is_err());
    }

    #[test]
    fn exact_fit_ok() {
        let p = allocate(PlacementStrategy::Packed, 5, &[3, 2]).unwrap();
        assert_eq!(p[1], vec![3, 4]);
    }

    #[test]
    fn exact_fit_every_strategy_uses_the_whole_cluster() {
        for strategy in [
            PlacementStrategy::Packed,
            PlacementStrategy::Random { seed: 3 },
            PlacementStrategy::RoundRobin,
        ] {
            let p = allocate(strategy, 6, &[4, 2]).unwrap();
            let mut all: Vec<Rank> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..6).collect::<Vec<_>>(), "{strategy:?}");
            assert_eq!(p[0].len(), 4, "{strategy:?}");
            assert_eq!(p[1].len(), 2, "{strategy:?}");
        }
    }

    #[test]
    fn empty_job_list_allocates_nothing() {
        for strategy in [
            PlacementStrategy::Packed,
            PlacementStrategy::Random { seed: 1 },
            PlacementStrategy::RoundRobin,
        ] {
            assert_eq!(allocate(strategy, 8, &[]).unwrap(), Vec::<Vec<Rank>>::new());
            // Degenerate but legal: an empty cluster with no jobs.
            assert_eq!(allocate(strategy, 0, &[]).unwrap(), Vec::<Vec<Rank>>::new());
        }
    }

    #[test]
    fn zero_size_job_gets_an_empty_placement() {
        for strategy in [
            PlacementStrategy::Packed,
            PlacementStrategy::Random { seed: 5 },
            PlacementStrategy::RoundRobin,
        ] {
            let p = allocate(strategy, 4, &[2, 0, 2]).unwrap();
            assert_eq!(p.len(), 3, "{strategy:?}");
            assert!(p[1].is_empty(), "{strategy:?}");
            // The zero-size job must not eat nodes: its neighbors still
            // get disjoint placements covering 4 nodes.
            let mut used: Vec<Rank> = p.iter().flatten().copied().collect();
            used.sort_unstable();
            assert_eq!(used, (0..4).collect::<Vec<_>>(), "{strategy:?}");
        }
    }

    #[test]
    fn pool_packed_allocates_lowest_free_and_reuses_released() {
        let mut pool = NodePool::new(PlacementStrategy::Packed, 8);
        let a = pool.alloc(3).unwrap();
        let b = pool.alloc(2).unwrap();
        assert_eq!(a, vec![0, 1, 2]);
        assert_eq!(b, vec![3, 4]);
        assert_eq!(pool.num_free(), 3);
        pool.release(&a);
        // The freed low nodes are preferred over the untouched tail.
        let c = pool.alloc(4).unwrap();
        assert_eq!(c, vec![0, 1, 2, 5]);
    }

    #[test]
    fn pool_refuses_overcommit_without_consuming_state() {
        let mut pool = NodePool::new(PlacementStrategy::Random { seed: 11 }, 8);
        let mut replay = NodePool::new(PlacementStrategy::Random { seed: 11 }, 8);
        let _ = pool.alloc(6).unwrap();
        assert_eq!(pool.alloc(3), None, "only 2 nodes left");
        // The refused request must not have advanced the RNG: the next
        // successful draw matches a replay that never saw the refusal.
        let _ = replay.alloc(6).unwrap();
        assert_eq!(pool.alloc(2), replay.alloc(2));
    }

    #[test]
    fn pool_random_is_deterministic_and_disjoint() {
        let draw = |seed| {
            let mut pool = NodePool::new(PlacementStrategy::Random { seed }, 16);
            (pool.alloc(5).unwrap(), pool.alloc(5).unwrap())
        };
        let (a1, b1) = draw(7);
        let (a2, b2) = draw(7);
        assert_eq!((a1.clone(), b1.clone()), (a2, b2), "same seed, same draws");
        let mut all: Vec<Rank> = a1.iter().chain(b1.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10, "allocations never overlap");
        let (a3, _) = draw(8);
        assert_ne!(a1, a3, "different seed should (overwhelmingly) differ");
    }

    #[test]
    fn pool_round_robin_rotates_across_jobs() {
        let mut pool = NodePool::new(PlacementStrategy::RoundRobin, 8);
        assert_eq!(pool.alloc(3).unwrap(), vec![0, 1, 2]);
        // The next job starts where the previous one stopped.
        assert_eq!(pool.alloc(3).unwrap(), vec![3, 4, 5]);
        pool.release(&[0, 1, 2]);
        // Wraps past the busy tail onto the freed head.
        assert_eq!(pool.alloc(3).unwrap(), vec![6, 7, 0]);
    }

    #[test]
    fn pool_release_then_alloc_cycles_forever() {
        let mut pool = NodePool::new(PlacementStrategy::Packed, 4);
        for _ in 0..100 {
            let nodes = pool.alloc(4).unwrap();
            assert_eq!(pool.num_free(), 0);
            pool.release(&nodes);
            assert_eq!(pool.num_free(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn pool_double_release_panics() {
        let mut pool = NodePool::new(PlacementStrategy::Packed, 4);
        let nodes = pool.alloc(2).unwrap();
        pool.release(&nodes);
        pool.release(&nodes);
    }

    #[test]
    fn frag_stats_track_extent_shatter() {
        let mut pool = NodePool::new(PlacementStrategy::Packed, 10);
        assert_eq!(pool.frag(), FragStats { free: 10, extents: 1, largest_extent: 10 });
        let a = pool.alloc(2).unwrap(); // 0,1
        let b = pool.alloc(2).unwrap(); // 2,3
        let c = pool.alloc(2).unwrap(); // 4,5
        pool.release(&a);
        pool.release(&c);
        // Free: {0,1} and {4..9} (the released 4,5 merge with the
        // untouched tail) — two extents, largest 6.
        assert_eq!(pool.frag(), FragStats { free: 8, extents: 2, largest_extent: 6 });
        pool.release(&b);
        assert_eq!(pool.frag(), FragStats { free: 10, extents: 1, largest_extent: 10 });
    }

    #[test]
    fn pool_zero_size_alloc_is_empty() {
        let mut pool = NodePool::new(PlacementStrategy::RoundRobin, 4);
        assert_eq!(pool.alloc(0), Some(Vec::new()));
        assert_eq!(pool.num_free(), 4);
    }

    #[test]
    fn random_is_stable_across_cluster_reuse() {
        // Same seed, same cluster, different job splits: the underlying
        // permutation is identical, so the flattened node order agrees.
        let a = allocate(PlacementStrategy::Random { seed: 42 }, 12, &[12]).unwrap();
        let b = allocate(PlacementStrategy::Random { seed: 42 }, 12, &[6, 6]).unwrap();
        let flat_a: Vec<Rank> = a.into_iter().flatten().collect();
        let flat_b: Vec<Rank> = b.into_iter().flatten().collect();
        assert_eq!(flat_a, flat_b);
    }
}
