//! An LRU buffer cache of block addresses.
//!
//! Models the host OS page/buffer cache: after an explicit image copy
//! (Table 2's persistent mode) the copied blocks are warm, which is
//! why the paper's reboot-after-copy is much faster than a cold-disk
//! boot. The cache tracks *which* blocks are resident, not their
//! bytes — the data plane already holds the bytes; timing is all the
//! cache influences.
//!
//! Recency bookkeeping is the shared O(1) intrusive
//! [`LruSet`]; this type adds hit/miss
//! accounting on top.

use gridvm_simcore::lru::LruSet;

use crate::block::BlockAddr;

/// Fixed-capacity LRU set of resident blocks.
///
/// ```
/// use gridvm_storage::block::BlockAddr;
/// use gridvm_storage::cache::BufferCache;
///
/// let mut c = BufferCache::new(2);
/// c.insert(BlockAddr(1));
/// c.insert(BlockAddr(2));
/// assert!(c.touch(BlockAddr(1))); // hit, refreshes LRU position
/// c.insert(BlockAddr(3));         // evicts 2 (least recent)
/// assert!(!c.touch(BlockAddr(2)));
/// assert!(c.touch(BlockAddr(1)));
/// ```
#[derive(Clone, Debug)]
pub struct BufferCache {
    resident: LruSet<BlockAddr>,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        BufferCache {
            resident: LruSet::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.resident.capacity()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Looks up `addr`; on a hit refreshes its recency and returns
    /// `true`. Counts hit/miss statistics.
    pub fn touch(&mut self, addr: BlockAddr) -> bool {
        if self.resident.touch(&addr) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks residency without affecting recency or statistics.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.resident.contains(&addr)
    }

    /// Inserts `addr` as most-recently-used, evicting the LRU block
    /// if full. Returns the evicted address, if any.
    pub fn insert(&mut self, addr: BlockAddr) -> Option<BlockAddr> {
        self.resident.insert(addr)
    }

    /// Removes `addr` (e.g. on invalidation). Returns whether it was
    /// resident.
    pub fn evict(&mut self, addr: BlockAddr) -> bool {
        self.resident.remove(&addr)
    }

    /// Drops everything (e.g. host reboot).
    pub fn clear(&mut self) {
        self.resident.clear();
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all lookups (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = BufferCache::new(4);
        assert!(!c.touch(a(1)));
        c.insert(a(1));
        assert!(c.touch(a(1)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BufferCache::new(3);
        c.insert(a(1));
        c.insert(a(2));
        c.insert(a(3));
        c.touch(a(1)); // 2 is now LRU
        let evicted = c.insert(a(4));
        assert_eq!(evicted, Some(a(2)));
        assert!(c.contains(a(1)));
        assert!(c.contains(a(3)));
        assert!(c.contains(a(4)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = BufferCache::new(2);
        c.insert(a(1));
        c.insert(a(2));
        assert_eq!(c.insert(a(1)), None, "already resident");
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(a(3)), Some(a(2)), "1 was refreshed, 2 evicts");
    }

    #[test]
    fn explicit_eviction_and_clear() {
        let mut c = BufferCache::new(2);
        c.insert(a(1));
        assert!(c.evict(a(1)));
        assert!(!c.evict(a(1)));
        c.insert(a(2));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = BufferCache::new(5);
        for i in 0..100 {
            c.insert(a(i));
        }
        assert_eq!(c.len(), 5);
        // most recent five remain
        for i in 95..100 {
            assert!(c.contains(a(i)));
        }
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = BufferCache::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The cache never exceeds capacity and a just-inserted block
        /// is always resident.
        #[test]
        fn capacity_invariant(cap in 1usize..16, ops in proptest::collection::vec(0u64..64, 1..200)) {
            let mut c = BufferCache::new(cap);
            for addr in ops {
                c.insert(BlockAddr(addr));
                prop_assert!(c.len() <= cap);
                prop_assert!(c.contains(BlockAddr(addr)));
            }
        }

        /// Sequential scan larger than capacity has zero reuse (LRU's
        /// pathological case) — verifies strict LRU, not random.
        #[test]
        fn sequential_scan_thrashes(cap in 1usize..8, rounds in 2usize..5) {
            let n = cap as u64 + 1; // scan one more than fits
            let mut c = BufferCache::new(cap);
            for _ in 0..rounds {
                for i in 0..n {
                    if !c.touch(BlockAddr(i)) {
                        c.insert(BlockAddr(i));
                    }
                }
            }
            prop_assert_eq!(c.hits(), 0, "strict LRU must thrash on scan of cap+1");
        }
    }
}
