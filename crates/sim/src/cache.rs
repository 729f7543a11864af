//! Set-associative cache models and the three-level hierarchy.
//!
//! Write-back, write-allocate, true-LRU caches over 64-byte lines. The
//! hierarchy returns the *total* access latency: the sum of the level
//! latencies down to the hitting level, plus main memory on a full miss
//! (3 / 11 / 38 / 158 cycles with the Table 4 defaults).
//!
//! `access` runs once per replayed memory op, so its host cost bounds
//! replay throughput: the `sim.cache_ns_per_access` benchmark metric
//! times it on real traces' memory ops (perfbench/README.md,
//! BENCHMARK.json).

use crate::config::{CacheLevelConfig, MemoryConfig};

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1] (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// One set-associative, true-LRU cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    tick: u64,
    stats: CacheStats,
    /// Per-set index of the most recently touched way. Purely a lookup
    /// accelerator for the dominant same-line-again case: a stale hint is
    /// harmless because the full-scan path below stays authoritative.
    mru: Vec<u32>,
}

impl Cache {
    /// Builds a cache from its level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set.
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        last_use: 0
                    };
                    cfg.ways as usize
                ];
                sets as usize
            ],
            tick: 0,
            stats: CacheStats::default(),
            mru: vec![0; sets as usize],
        }
    }

    /// Accesses the line with number `line` (address / 64); returns whether
    /// it hit, allocating it on a miss.
    pub fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        let idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[idx];
        // MRU fast path: the way this set hit last time.
        let hint = self.mru[idx] as usize;
        if let Some(w) = set.get_mut(hint) {
            if w.valid && w.tag == tag {
                w.last_use = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        if let Some((i, w)) = set
            .iter_mut()
            .enumerate()
            .find(|(_, w)| w.valid && w.tag == tag)
        {
            w.last_use = self.tick;
            self.mru[idx] = i as u32;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let (i, victim) = set
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.last_use } else { 0 })
            .expect("invariant: associativity >= 1, so every set has a way");
        victim.tag = tag;
        victim.valid = true;
        victim.last_use = self.tick;
        self.mru[idx] = i as u32;
        false
    }

    /// Applies `n` additional hits to `line`, as if [`Cache::access`]
    /// had been called `n` times in a row — the run-length extension of
    /// the MRU way hint: a batch of same-line ops costs one model
    /// update instead of `n`.
    ///
    /// Equivalence to `n` sequential hits: each would advance the clock
    /// by one and refresh the same way's last-use to the new clock,
    /// touching no other way or set, so `tick += n` + one final
    /// last-use write + `hits += n` is state-identical. If the line is
    /// (unexpectedly) not resident, this falls back to `n` sequential
    /// accesses, so the batched call is *always* equivalent.
    pub fn access_batched(&mut self, line: u64, n: u64) -> bool {
        if n == 0 || self.hit_batched(line, n) {
            return true;
        }
        let mut all_hit = true;
        for _ in 0..n {
            all_hit &= self.access(line);
        }
        all_hit
    }

    /// Applies `n` hits to `line` in one update **iff** the line is
    /// resident, returning whether it was. On `false` the cache is left
    /// completely untouched (no clock advance, no counters), so a caller
    /// can probe-and-commit: try the batch, and fall back to exact
    /// sequential accesses without having perturbed any state.
    pub fn hit_batched(&mut self, line: u64, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        let idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[idx];
        let hint = self.mru[idx] as usize;
        let hit_at = if matches!(set.get(hint), Some(w) if w.valid && w.tag == tag) {
            Some(hint)
        } else {
            set.iter().position(|w| w.valid && w.tag == tag)
        };
        match hit_at {
            Some(i) => {
                self.tick += n;
                set[i].last_use = self.tick;
                self.mru[idx] = i as u32;
                self.stats.hits += n;
                true
            }
            None => false,
        }
    }

    /// Installs a line without touching hit/miss counters (prefetch).
    pub fn prefetch(&mut self, line: u64) {
        self.tick += 1;
        let idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[idx];
        if set.iter().any(|w| w.valid && w.tag == tag) {
            return;
        }
        let tick = self.tick;
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            .expect("invariant: associativity >= 1, so every set has a way");
        victim.tag = tag;
        victim.valid = true;
        victim.last_use = tick;
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Statistics across the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1D counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
}

/// The L1D/L2/L3 + memory hierarchy.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    l1_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    memory_latency: u64,
    next_line_prefetch: bool,
    prefetches: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from the memory configuration.
    pub fn new(cfg: &MemoryConfig) -> Self {
        MemoryHierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            l1_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            l3_latency: cfg.l3.latency,
            memory_latency: cfg.memory_latency,
            next_line_prefetch: cfg.next_line_prefetch,
            prefetches: 0,
        }
    }

    /// Accesses the line containing physical address `pa`, returning the
    /// total latency in cycles.
    pub fn access(&mut self, pa: u64) -> u64 {
        let line = pa / 64;
        let mut latency = self.l1_latency;
        if self.l1d.access(line) {
            return latency;
        }
        if self.next_line_prefetch {
            self.prefetches += 1;
            self.l1d.prefetch(line + 1);
            self.l2.prefetch(line + 1);
            self.l3.prefetch(line + 1);
        }
        latency += self.l2_latency;
        if self.l2.access(line) {
            return latency;
        }
        latency += self.l3_latency;
        if self.l3.access(line) {
            return latency;
        }
        latency + self.memory_latency
    }

    /// Applies `n` accesses to the line containing `pa` in one model
    /// update when the line is L1-resident, returning the *total*
    /// latency of the batch (`n * l1_latency` on that path). When the
    /// line is not L1-resident the accesses are replayed individually —
    /// the batch degenerates to a loop, but the returned total and the
    /// model state stay exactly equivalent to `n` sequential
    /// [`MemoryHierarchy::access`] calls, so callers never have to
    /// reason about residency to stay correct, only to go fast.
    pub fn access_batched(&mut self, pa: u64, n: u64) -> u64 {
        let line = pa / 64;
        if self.l1d.hit_batched(line, n) {
            return self.l1_latency * n;
        }
        let mut total = 0;
        for _ in 0..n {
            total += self.access(pa);
        }
        total
    }

    /// The L1-hit latency (the pipelined, stall-free case).
    pub fn l1_latency(&self) -> u64 {
        self.l1_latency
    }

    /// Next-line prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Counters for all levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&MemoryConfig::default())
    }

    #[test]
    fn latencies_accumulate_down_the_hierarchy() {
        let mut h = hierarchy();
        assert_eq!(
            h.access(0x1000),
            3 + 8 + 27 + 120,
            "cold miss goes to memory"
        );
        assert_eq!(h.access(0x1000), 3, "now L1-resident");
        assert_eq!(h.access(0x1008), 3, "same line");
        assert_eq!(h.access(0x1040), 158, "next line misses");
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = hierarchy();
        h.access(0);
        // 32KB 8-way: 64 sets. Touch 8 more lines mapping to set 0 to evict.
        for i in 1..=8u64 {
            h.access(i * 64 * 64);
        }
        let lat = h.access(0);
        assert_eq!(lat, 3 + 8, "evicted from L1 but still in L2");
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = Cache::new(CacheLevelConfig {
            capacity: 2 * 64,
            ways: 2,
            latency: 1,
        });
        // 1 set, 2 ways.
        assert!(!c.access(0));
        assert!(!c.access(1));
        assert!(c.access(0)); // refresh 0 → 1 is LRU
        assert!(!c.access(2)); // evicts 1
        assert!(c.access(0));
        assert!(!c.access(1), "1 was evicted");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut h = hierarchy();
        h.access(0);
        h.access(0);
        let s = h.stats();
        assert_eq!(s.l1d.hits, 1);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
        assert_eq!(s.l1d.miss_rate(), 0.5);
    }

    #[test]
    fn distinct_addresses_do_not_alias() {
        let mut h = hierarchy();
        // Fill a few thousand distinct lines; all must miss exactly once.
        for i in 0..4000u64 {
            h.access(i * 64);
        }
        assert_eq!(h.stats().l1d.misses, 4000);
        assert_eq!(h.stats().l1d.hits, 0);
    }

    /// Plain linear-scan true-LRU with no MRU way hint: the semantics
    /// `Cache` must preserve.
    struct ReferenceCache {
        sets: Vec<Vec<Way>>,
        tick: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn access(&mut self, line: u64) -> bool {
            self.tick += 1;
            let idx = (line % self.sets.len() as u64) as usize;
            let tag = line / self.sets.len() as u64;
            let set = &mut self.sets[idx];
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.last_use = self.tick;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let victim = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_use } else { 0 })
                .unwrap();
            victim.tag = tag;
            victim.valid = true;
            victim.last_use = self.tick;
            false
        }
    }

    #[test]
    fn mru_fast_path_matches_reference_lru() {
        // 4 sets × 4 ways, hammered with a mix of line-local runs, a hot
        // working set larger than one set, and scattered lines: exercises
        // the hint hit, hint misses that still hit on scan, fills, and
        // LRU evictions. Every per-access outcome must match.
        let cfg = CacheLevelConfig {
            capacity: 16 * 64,
            ways: 4,
            latency: 1,
        };
        let mut cache = Cache::new(cfg);
        let mut reference = ReferenceCache {
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        last_use: 0
                    };
                    4
                ];
                4
            ],
            tick: 0,
            stats: CacheStats::default(),
        };
        let mut x: u64 = 0xDEAD;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = match i % 4 {
                0 | 1 => i / 9,     // line-local runs
                2 => x % 24,        // hot set bigger than capacity
                _ => x % (1 << 20), // scattered
            };
            assert_eq!(
                cache.access(line),
                reference.access(line),
                "access {i} diverged"
            );
        }
        assert_eq!(cache.stats(), reference.stats);
        assert!(reference.stats.hits > 0 && reference.stats.misses > 16);
    }

    #[test]
    fn batched_hits_match_sequential_accesses() {
        // Interleave batched and sequential updates against the
        // reference model: run-length batching must be state-identical
        // to n sequential accesses, including when the batched line is
        // not resident (the fallback path).
        let cfg = CacheLevelConfig {
            capacity: 16 * 64,
            ways: 4,
            latency: 1,
        };
        let mut cache = Cache::new(cfg);
        let mut reference = ReferenceCache {
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        last_use: 0
                    };
                    4
                ];
                4
            ],
            tick: 0,
            stats: CacheStats::default(),
        };
        let mut x: u64 = 0xC0FE;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = x % 24; // hot set larger than capacity: misses too
            let n = x % 7;
            let got = cache.access_batched(line, n);
            let mut want = true;
            for _ in 0..n {
                want &= reference.access(line);
            }
            if n > 0 {
                assert_eq!(got, want, "batch {i} diverged");
            }
            // A plain access in between keeps the interleaving honest.
            assert_eq!(cache.access(line ^ 1), reference.access(line ^ 1));
        }
        assert_eq!(cache.stats(), reference.stats);
    }

    #[test]
    fn failed_hit_batch_leaves_the_cache_untouched() {
        let cfg = CacheLevelConfig {
            capacity: 4 * 64,
            ways: 4,
            latency: 1,
        };
        let mut c = Cache::new(cfg);
        c.access(1);
        let before = c.stats();
        assert!(!c.hit_batched(2, 5), "line 2 was never brought in");
        assert_eq!(c.stats(), before, "failed probe must not count");
        assert!(c.access(1), "line 1 must still be resident and MRU-intact");
    }

    #[test]
    fn hierarchy_batched_access_matches_sequential() {
        // The batched hierarchy access must return the same total
        // latency and leave identical state as n sequential accesses,
        // resident or not (the miss path goes through the real access
        // loop, prefetches included).
        let mut a = hierarchy();
        let mut b = hierarchy();
        let mut x: u64 = 0xFACE;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pa = (x % 512) * 64 + (x % 64);
            let n = x % 5;
            let got = a.access_batched(pa, n);
            let mut want = 0;
            for _ in 0..n {
                want += b.access(pa);
            }
            assert_eq!(got, want, "batch {i} diverged");
            assert_eq!(a.access(pa ^ 0x40), b.access(pa ^ 0x40));
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.prefetches(), b.prefetches());
    }
}
