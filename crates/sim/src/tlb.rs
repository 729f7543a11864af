//! Data TLB model: fully associative, true-LRU over 4 KB page numbers.
//!
//! `access` runs once per replayed memory op, so its host cost bounds
//! replay throughput: the `sim.tlb_ns_per_access` benchmark metric times
//! it on real traces' memory ops (perfbench/README.md, BENCHMARK.json).

/// Hit/miss counters for the TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations that required a page walk.
    pub misses: u64,
}

/// A fully associative D-TLB (Table 4: 64 entries, 30-cycle miss penalty
/// charged by the core models).
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page number, last use)
    capacity: usize,
    tick: u64,
    stats: TlbStats,
    /// Index of the most recently touched entry. Purely a lookup
    /// accelerator: memory accesses repeat pages heavily, so the common
    /// case resolves without scanning the whole (64-entry) array. Any
    /// stale value is harmless — the slow path below is the authority.
    mru: usize,
}

impl Tlb {
    /// Creates a TLB with `entries` slots.
    pub fn new(entries: usize) -> Self {
        Tlb {
            entries: Vec::with_capacity(entries),
            capacity: entries,
            tick: 0,
            stats: TlbStats::default(),
            mru: 0,
        }
    }

    /// Looks up the page containing virtual address `va`; returns whether
    /// the translation hit, installing it on a miss.
    pub fn access(&mut self, va: u64) -> bool {
        self.tick += 1;
        let page = va >> 12;
        let tick = self.tick;
        // MRU fast path: same page as the previous access.
        if let Some(e) = self.entries.get_mut(self.mru) {
            if e.0 == page {
                e.1 = tick;
                self.stats.hits += 1;
                return true;
            }
        }
        if let Some((i, e)) = self
            .entries
            .iter_mut()
            .enumerate()
            .find(|(_, (p, _))| *p == page)
        {
            e.1 = tick;
            self.mru = i;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((page, tick));
            self.mru = self.entries.len() - 1;
        } else {
            let (i, victim) = self
                .entries
                .iter_mut()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .expect("invariant: capacity > 0, checked in new()");
            *victim = (page, tick);
            self.mru = i;
        }
        false
    }

    /// Applies `n` additional hits to the page containing `va`, as if
    /// [`Tlb::access`] had been called `n` times in a row — the
    /// run-length extension of the MRU fast path: a batch of same-page
    /// ops costs one model update instead of `n`.
    ///
    /// Equivalence to `n` sequential MRU hits: each would advance the
    /// clock by one and refresh the same entry's last-use to the new
    /// clock, touching nothing else, so `tick += n` + one final
    /// last-use write + `hits += n` is state-identical. If the page is
    /// (unexpectedly) not resident, this falls back to `n` sequential
    /// accesses, so the batched call is *always* equivalent.
    pub fn access_batched(&mut self, va: u64, n: u64) -> bool {
        if n == 0 || self.hit_batched(va, n) {
            return true;
        }
        let mut all_hit = true;
        for _ in 0..n {
            all_hit &= self.access(va);
        }
        all_hit
    }

    /// Applies `n` hits to the page containing `va` in one update
    /// **iff** the page is resident, returning whether it was. On
    /// `false` the TLB is left completely untouched (no clock advance,
    /// no counters), so a caller can probe-and-commit: try the batch,
    /// and fall back to exact sequential accesses without having
    /// perturbed any state.
    pub fn hit_batched(&mut self, va: u64, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        let page = va >> 12;
        // Fast path: the MRU hint (or a full scan) finds the page.
        let hit_at = if matches!(self.entries.get(self.mru), Some((p, _)) if *p == page) {
            Some(self.mru)
        } else {
            self.entries.iter().position(|(p, _)| *p == page)
        };
        match hit_at {
            Some(i) => {
                self.tick += n;
                self.entries[i].1 = self.tick;
                self.mru = i;
                self.stats.hits += n;
                true
            }
            None => false,
        }
    }

    /// Counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.access(0x1000));
        assert!(tlb.access(0x1FFF));
        assert!(!tlb.access(0x2000));
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.access(0x1000);
        tlb.access(0x2000);
        tlb.access(0x1000); // refresh
        tlb.access(0x3000); // evicts 0x2000
        assert!(tlb.access(0x1000));
        assert!(!tlb.access(0x2000));
    }

    #[test]
    fn stats_accumulate() {
        let mut tlb = Tlb::new(2);
        tlb.access(0x1000);
        tlb.access(0x1100);
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut tlb = Tlb::new(0);
        tlb.access(0x1000);
        assert!(!tlb.access(0x1000));
    }

    /// Plain linear-scan true-LRU, with no MRU fast path: the semantics
    /// `Tlb` must preserve.
    struct ReferenceTlb {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        tick: u64,
        stats: TlbStats,
    }

    impl ReferenceTlb {
        fn access(&mut self, va: u64) -> bool {
            self.tick += 1;
            let page = va >> 12;
            let tick = self.tick;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
                e.1 = tick;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if self.entries.len() < self.capacity {
                self.entries.push((page, tick));
            } else {
                *self.entries.iter_mut().min_by_key(|(_, t)| *t).unwrap() = (page, tick);
            }
            false
        }
    }

    #[test]
    fn mru_fast_path_matches_reference_lru() {
        // A page-local access pattern with periodic strides and revisits:
        // exercises the fast path, fills, LRU evictions, and re-touches
        // of evicted pages. Every per-access outcome must match.
        let mut tlb = Tlb::new(8);
        let mut reference = ReferenceTlb {
            entries: Vec::new(),
            capacity: 8,
            tick: 0,
            stats: TlbStats::default(),
        };
        let mut x: u64 = 0x9E37;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = match i % 4 {
                0 | 1 => (i / 7) * 4096 + (x % 4096), // page-local runs
                2 => (x % 16) * 4096,                 // 16 hot pages over 8 slots
                _ => x % (1 << 30),                   // scattered
            };
            assert_eq!(tlb.access(va), reference.access(va), "access {i} diverged");
        }
        assert_eq!(tlb.stats(), reference.stats);
        assert!(reference.stats.hits > 0 && reference.stats.misses > 8);
    }

    #[test]
    fn batched_hits_match_sequential_accesses() {
        // Interleave batched and sequential updates against the
        // reference model: run-length batching must be state-identical
        // to n sequential accesses, including when the batched page is
        // not resident (the fallback path).
        let mut tlb = Tlb::new(8);
        let mut reference = ReferenceTlb {
            entries: Vec::new(),
            capacity: 8,
            tick: 0,
            stats: TlbStats::default(),
        };
        let mut x: u64 = 0xB5AD;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = (x % 16) * 4096 + (x % 4096);
            let n = x % 7;
            let got = tlb.access_batched(va, n);
            let mut want = true;
            for _ in 0..n {
                want &= reference.access(va);
            }
            if n > 0 {
                assert_eq!(got, want, "batch {i} diverged");
            }
            // A plain access in between keeps the interleaving honest.
            assert_eq!(tlb.access(va ^ 0x7000), reference.access(va ^ 0x7000));
        }
        assert_eq!(tlb.stats(), reference.stats);
    }
}
