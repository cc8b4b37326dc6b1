//! Amortised path-set preprocessing for the [`crate::Backend::KspRestricted`]
//! backend.
//!
//! Freezing a commodity's k-shortest path set (Yen's algorithm over an
//! adjacency-list rebuild of the net) is a third to a half of a cold
//! KSP-restricted solve — on RRG(40, 10, 6) under a permutation (about
//! 153 switch pairs, k = 8) 1.6 ms, 10.5 µs a pair, of 3.4–5.0 ms — and
//! it depends only on the *topology* and `k`, not on the traffic matrix.
//! The paper's core experiment sweeps many traffic matrices over one
//! fixed topology, so [`PathSetCache`] memoises frozen path sets per
//! `(CsrNet structure, k)` and per `(src, dst)` pair: the first solve
//! against a topology pays for Yen, every later solve that routes
//! between previously-seen switch pairs reuses the frozen arc sequences.
//! A miss runs [`dctopo_graph::kshortest::yen_k_shortest_with`] on one
//! [`YenWorkspace`] held for the whole freeze, so the Yen runs of a
//! freeze share their scratch arrays and allocate only what they return.
//!
//! ## Why an identity token, not a structural hash
//!
//! The key is [`CsrNet::structure_id`] — a process-unique token assigned
//! when a net (or a structure-changing view) is built and preserved by
//! `Clone` **and by capacity-only delta views**. structure_id equality
//! guarantees identical adjacency and arc numbering, and Yen's paths
//! here are hop-metric — they depend only on structure — so a hit can
//! never return paths invalid for the requesting net. This is what lets
//! a capacity-degradation sweep (uniform scaling, line-card mixes) reuse
//! one topology's frozen path sets across every cell, while
//! failure views ([`CsrNet::with_disabled_arcs`]) carry a fresh
//! structure_id and correctly re-freeze. Structurally equal nets built
//! separately simply miss; correctness never depends on a structural
//! hash.
//!
//! ## Bounded memory
//!
//! Because every failure view is a new key, a long-lived cache that
//! serves such views (`topobench serve` answering `ksp:K` what-ifs,
//! `plan --backend ksp:K`) would grow by one key per view forever. The
//! cache holds at most [`PATH_CACHE_KEYS`] keys and evicts the one
//! inserted longest ago. A hit and a miss return the same bits, so
//! eviction changes no answer, only what a later lookup costs.
//!
//! ## Determinism invariant
//!
//! A cached solve is **bit-identical** to a cold solve: Yen's algorithm
//! and the arc translation are deterministic functions of
//! `(topology, src, dst, k)`, the cache stores their exact output, and
//! the multiplicative-weights loop consumes frozen paths the same way in
//! both cases. `tests/properties.rs` pins this across 50 seeded graphs
//! and three values of `k`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use dctopo_graph::kshortest::YenWorkspace;
use dctopo_graph::{CsrNet, NodeId};

use crate::{Commodity, FlowError};

/// Most `(structure, k)` keys a [`PathSetCache`] holds; inserting one
/// more evicts the key inserted longest ago. A key holds one frozen set
/// per switch pair asked for under it, `k` paths of a few arcs each at
/// 8 B an arc plus a 24 B `Vec` header a path. `topobench serve` on
/// RRG(16, 8, 4) answering a two-link failure with `ksp:4` adds about
/// 21 KB a key (86 MB resident after 4,000 such batches without the
/// cap, 4.7 MB with it); on
/// RRG(40, 10, 6) under a permutation (about 153 pairs) with `k = 8`
/// and 3–4 arcs a path, a key is about 153 × 8 × (24 + 8 × 3.5) B ≈
/// 64 KB, so a full cache is about 4 MiB.
pub const PATH_CACHE_KEYS: usize = 64;

/// A frozen k-shortest path set for one `(src, dst)` pair: each path is
/// the sequence of [`dctopo_graph::ArcId`]s from source to destination,
/// in non-decreasing hop-length order (Yen order).
pub type FrozenPathSet = Arc<Vec<Vec<usize>>>;

/// Cache hit/miss counters (one entry = one `(src, dst)` pair frozen
/// under one `(net, k)` key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pair lookups served from the cache.
    pub hits: u64,
    /// Pair lookups that had to run Yen's algorithm.
    pub misses: u64,
}

/// Per-`(net structure, k)` cache statistics snapshot (see
/// [`PathSetCache::key_stats`]).
///
/// `k` and `entries` are pure functions of the workload; `hits` /
/// `misses` are not when solves race (two concurrent solvers missing
/// the same pair both count a miss), and `structure_id` allocation
/// order follows net construction order — so telemetry emitting these
/// should put the split and the raw id in the non-deterministic
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyStats {
    /// The [`CsrNet::structure_id`] half of the cache key.
    pub structure_id: u64,
    /// The `k` half of the cache key.
    pub k: usize,
    /// Frozen `(src, dst)` pairs stored under this key.
    pub entries: usize,
    /// Pair lookups under this key served from the cache.
    pub hits: u64,
    /// Pair lookups under this key that ran Yen's algorithm.
    pub misses: u64,
}

/// Memoises frozen k-shortest path sets per `(CsrNet identity, k)` so
/// repeated [`crate::Backend::KspRestricted`] solves on one topology amortise
/// Yen preprocessing across traffic matrices — mirroring what the FPTAS
/// already gets from reusing one [`CsrNet`].
///
/// Thread-safe (`&self` everywhere, internal mutex); share one cache per
/// topology sweep, e.g. via `ThroughputEngine` in `dctopo-core`. Yen
/// runs for missing pairs execute *outside* the lock, so concurrent
/// solvers on different nets never serialise on each other's
/// preprocessing.
#[derive(Debug, Default)]
pub struct PathSetCache {
    keys: Mutex<Keys>,
}

/// The keys of a [`PathSetCache`], at most [`PATH_CACHE_KEYS`] of them.
#[derive(Debug, Default)]
struct Keys {
    /// One [`Key`] per `(net structure id, k)`.
    map: HashMap<(u64, usize), Key>,
    /// The same keys, inserted longest ago first.
    order: VecDeque<(u64, usize)>,
    /// The lookups made under keys since evicted, so
    /// [`PathSetCache::stats`] stays cumulative.
    evicted: CacheStats,
}

impl Keys {
    /// The entry for `key`, inserted (evicting the oldest key at the
    /// cap) when absent.
    fn entry(&mut self, key: (u64, usize)) -> &mut Key {
        if !self.map.contains_key(&key) {
            if self.order.len() == PATH_CACHE_KEYS {
                let oldest = self.order.pop_front().expect("the cap is positive");
                let gone = self.map.remove(&oldest).expect("order mirrors map");
                self.evicted.hits += gone.hits;
                self.evicted.misses += gone.misses;
            }
            self.order.push_back(key);
        }
        self.map.entry(key).or_default()
    }
}

/// What one `(structure, k)` key holds: its frozen pairs and the
/// lookups made under it.
#[derive(Debug, Default)]
struct Key {
    pairs: HashMap<(NodeId, NodeId), FrozenPathSet>,
    hits: u64,
    misses: u64,
}

impl PathSetCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Keys> {
        self.keys.lock().expect("path cache poisoned")
    }

    /// Frozen path sets for every commodity, in commodity order: cached
    /// pairs are returned as-is, missing pairs are frozen with Yen's
    /// algorithm (outside the lock) and inserted.
    ///
    /// # Errors
    /// [`FlowError::Unreachable`] when a commodity's endpoints are
    /// disconnected; failed pairs are not inserted.
    pub fn freeze(
        &self,
        net: &CsrNet,
        commodities: &[Commodity],
        k: usize,
    ) -> Result<Vec<FrozenPathSet>, FlowError> {
        let key = (net.structure_id(), k);
        // phase 1 (locked): resolve hits, collect distinct misses
        let mut out: Vec<Option<FrozenPathSet>> = vec![None; commodities.len()];
        let mut missing: Vec<(NodeId, NodeId)> = Vec::new();
        let mut missing_set: std::collections::HashSet<(NodeId, NodeId)> =
            std::collections::HashSet::new();
        {
            let mut keys = self.lock();
            let entry = keys.entry(key);
            for (j, c) in commodities.iter().enumerate() {
                match entry.pairs.get(&(c.src, c.dst)) {
                    Some(p) => out[j] = Some(Arc::clone(p)),
                    None => {
                        if missing_set.insert((c.src, c.dst)) {
                            missing.push((c.src, c.dst));
                        }
                    }
                }
            }
            let hits = out.iter().filter(|p| p.is_some()).count() as u64;
            entry.hits += hits;
            entry.misses += commodities.len() as u64 - hits;
            if missing.is_empty() {
                return Ok(out.into_iter().map(|p| p.expect("all hits")).collect());
            }
        }
        // phase 2 (unlocked): freeze the missing pairs. Yen enumerates
        // node paths on an adjacency-list rebuild of the net — its
        // per-node neighbour order (ascending live edge id) is what
        // breaks Yen's ties, and `to_graph` is deterministic, so every
        // freeze of a structure sees the same one; the rebuild costs
        // 3–4 µs at 40 switches against 1.6 ms of Yen for 153 pairs.
        // Arc translation goes through `net` so the stored sequences use
        // the net's own arc numbering (the rebuild's edge ids compact on
        // degraded views).
        let graph = net.to_graph();
        let mut ws = YenWorkspace::new(graph.node_count());
        let mut frozen: Vec<((NodeId, NodeId), FrozenPathSet)> = Vec::with_capacity(missing.len());
        for &(src, dst) in &missing {
            let paths = crate::ksp::freeze_pair(&graph, net, src, dst, k, &mut ws)?;
            frozen.push(((src, dst), Arc::new(paths)));
        }
        // phase 3 (locked): publish. A racing freeze of the same pair
        // computed identical paths (Yen is deterministic), so
        // first-writer-wins is safe either way.
        let mut keys = self.lock();
        let pairs = &mut keys.entry(key).pairs;
        for (pair, paths) in frozen {
            pairs.entry(pair).or_insert(paths);
        }
        for (j, c) in commodities.iter().enumerate() {
            if out[j].is_none() {
                out[j] = Some(Arc::clone(&pairs[&(c.src, c.dst)]));
            }
        }
        Ok(out.into_iter().map(|p| p.expect("filled")).collect())
    }

    /// Cumulative hit/miss counters: the sum over every key, evicted
    /// ones included.
    pub fn stats(&self) -> CacheStats {
        let keys = self.lock();
        keys.map.values().fold(keys.evicted, |sum, key| CacheStats {
            hits: sum.hits + key.hits,
            misses: sum.misses + key.misses,
        })
    }

    /// Per-`(structure, k)` statistics of the keys held, sorted by
    /// `(structure_id, k)` so the listing order is stable for a given
    /// set of keys.
    pub fn key_stats(&self) -> Vec<KeyStats> {
        let mut out: Vec<KeyStats> = self
            .lock()
            .map
            .iter()
            .map(|(&(structure_id, k), key)| KeyStats {
                structure_id,
                k,
                entries: key.pairs.len(),
                hits: key.hits,
                misses: key.misses,
            })
            .collect();
        out.sort_unstable_by_key(|s| (s.structure_id, s.k));
        out
    }

    /// Drop every cached path set (counters included). Useful when
    /// sweeping many topologies through one long-lived cache.
    pub fn clear(&self) {
        *self.lock() = Keys::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;

    fn net() -> CsrNet {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)] {
            g.add_unit_edge(u, v).unwrap();
        }
        CsrNet::from_graph(&g)
    }

    /// Frozen `(src, dst)` entries across every key.
    fn entries(cache: &PathSetCache) -> usize {
        cache.key_stats().iter().map(|key| key.entries).sum()
    }

    #[test]
    fn second_freeze_hits() {
        let cache = PathSetCache::new();
        let net = net();
        let cs = [Commodity::unit(0, 4), Commodity::unit(1, 4)];
        let a = cache.freeze(&net, &cs, 2).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(entries(&cache), 2);
        let b = cache.freeze(&net, &cs, 2).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
        for (x, y) in a.iter().zip(&b) {
            assert!(Arc::ptr_eq(x, y), "hit must return the same frozen set");
        }
    }

    #[test]
    fn keys_separate_nets_and_k() {
        let cache = PathSetCache::new();
        let (n1, n2) = (net(), net());
        assert_ne!(
            n1.id(),
            n2.id(),
            "structurally equal nets keep distinct ids"
        );
        let cs = [Commodity::unit(0, 4)];
        cache.freeze(&n1, &cs, 2).unwrap();
        cache.freeze(&n2, &cs, 2).unwrap();
        cache.freeze(&n1, &cs, 3).unwrap();
        assert_eq!(
            cache.stats().misses,
            3,
            "distinct (net, k) keys never collide"
        );
        assert_eq!(entries(&cache), 3);
        // a clone shares identity, so it hits
        let clone = n1.clone();
        cache.freeze(&clone, &cs, 2).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn capacity_views_share_frozen_paths_but_failure_views_refreeze() {
        let cache = PathSetCache::new();
        let net = net();
        let cs = [Commodity::unit(0, 4)];
        let a = cache.freeze(&net, &cs, 2).unwrap();
        // capacity-only view: same structure_id, so the pair hits
        let scaled = net.with_scaled_capacity(3.0).unwrap();
        let b = cache.freeze(&scaled, &cs, 2).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert!(Arc::ptr_eq(&a[0], &b[0]), "scaled view must reuse paths");
        // failure view: fresh structure_id, must re-freeze
        let failed = net.with_disabled_arcs(&[0]).unwrap();
        cache.freeze(&failed, &cs, 2).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn key_stats_split_per_structure_and_k() {
        let cache = PathSetCache::new();
        let (n1, n2) = (net(), net());
        let cs = [Commodity::unit(0, 4), Commodity::unit(1, 4)];
        cache.freeze(&n1, &cs, 2).unwrap();
        cache.freeze(&n1, &cs, 2).unwrap();
        cache.freeze(&n2, &cs, 3).unwrap();
        let ks = cache.key_stats();
        assert_eq!(ks.len(), 2);
        // sorted by (structure_id, k); ids are allocated in net build order
        assert!(ks[0].structure_id < ks[1].structure_id);
        assert_eq!(
            (ks[0].k, ks[0].entries, ks[0].hits, ks[0].misses),
            (2, 2, 2, 2)
        );
        assert_eq!(
            (ks[1].k, ks[1].entries, ks[1].hits, ks[1].misses),
            (3, 2, 0, 2)
        );
        cache.clear();
        assert!(cache.key_stats().is_empty());
    }

    /// One key past the cap evicts the first structure: the key count
    /// stays at the cap, the counters stay cumulative, the first
    /// structure re-freezes on its next solve, and that solve is
    /// bitwise the cold one.
    #[test]
    fn the_key_inserted_longest_ago_is_evicted_at_the_cap() {
        use crate::{solve_with_cache, Backend, FlowOptions};

        let cache = PathSetCache::new();
        let nets: Vec<CsrNet> = (0..=PATH_CACHE_KEYS).map(|_| net()).collect();
        let cs = [Commodity::unit(0, 4), Commodity::unit(1, 4)];
        let opts = FlowOptions::default().with_backend(Backend::KspRestricted { k: 2 });
        let first = solve_with_cache(&nets[0], &cs, &opts, &cache).unwrap();
        for n in &nets[1..] {
            cache.freeze(n, &cs, 2).unwrap();
        }
        let held = cache.key_stats();
        assert_eq!(held.len(), PATH_CACHE_KEYS);
        assert!(held
            .iter()
            .all(|k| k.structure_id != nets[0].structure_id()));
        let lookups = 2 * nets.len() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: lookups
            }
        );

        let again = solve_with_cache(&nets[0], &cs, &opts, &cache).unwrap();
        assert_eq!(
            cache.stats().misses,
            lookups + 2,
            "the first structure re-froze"
        );
        assert_eq!(cache.key_stats().len(), PATH_CACHE_KEYS);
        let cold = solve_with_cache(&nets[0], &cs, &opts, &PathSetCache::new()).unwrap();
        for s in [&first, &again] {
            assert_eq!(s.throughput.to_bits(), cold.throughput.to_bits());
            assert_eq!(s.upper_bound.to_bits(), cold.upper_bound.to_bits());
            assert_eq!(s.phases, cold.phases);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s.arc_flow), bits(&cold.arc_flow));
        }
    }

    #[test]
    fn unreachable_pair_is_error_and_not_cached() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let net = CsrNet::from_graph(&g);
        let cache = PathSetCache::new();
        let bad = [Commodity::unit(0, 3)];
        assert!(matches!(
            cache.freeze(&net, &bad, 2),
            Err(FlowError::Unreachable { .. })
        ));
        assert_eq!(entries(&cache), 0);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
