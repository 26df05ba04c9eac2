//! An LRU buffer pool over page identifiers.
//!
//! Disk seeks are the paper's headline cost, but real systems also cache
//! pages: a curve that clusters queries into few ranges touches fewer
//! distinct pages, so repeated workloads hit the buffer pool more often.
//! The pool counts hits/misses for a stream of page accesses and lets
//! experiments compare curve layouts under a bounded cache.
//!
//! Every access is `O(1)`: recency is an intrusive doubly-linked list
//! threaded through a slot arena, with a hash map from page id to slot, so
//! a leaf cache can consult the pool on each leaf a scan touches. Each
//! slot also carries a `T` beside its page id: the
//! [`SegmentTree`](crate::SegmentTree) leaf cache keeps a page's decoded
//! leaf there, so one lookup decides residency and finds the contents,
//! and an evicted page's buffers pass to the page that takes its slot.

use std::collections::HashMap;

/// Sentinel slot index meaning "no neighbor" in the recency list.
const NIL: usize = usize::MAX;

/// One resident page: arena slot of the intrusive recency list.
#[derive(Debug)]
struct Slot<T> {
    page: u64,
    /// Towards more recently used (NIL at the head).
    prev: usize,
    /// Towards less recently used (NIL at the tail).
    next: usize,
    /// What the pool's owner keeps for this page.
    value: T,
}

/// A fixed-capacity LRU cache over page identifiers, each resident page
/// owning one slot that carries a `T` (nothing, by default).
#[derive(Debug)]
pub struct LruBufferPool<T = ()> {
    capacity: usize,
    /// page id -> arena slot.
    resident: HashMap<u64, usize>,
    /// Slot arena; at most `capacity` slots are ever allocated.
    slots: Vec<Slot<T>>,
    /// Most recently used slot (NIL while empty).
    head: usize,
    /// Least recently used slot — the eviction victim (NIL while empty).
    tail: usize,
    hits: u64,
    misses: u64,
}

impl LruBufferPool {
    /// Creates a pool holding at most `capacity` pages (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        LruBufferPool::with_slots(capacity)
    }
}

impl<T: Default> LruBufferPool<T> {
    /// Creates a pool holding at most `capacity` pages (`capacity ≥ 1`),
    /// each slot carrying a `T` that starts as `T::default()`.
    pub(crate) fn with_slots(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache needs at least one page");
        LruBufferPool {
            capacity,
            resident: HashMap::with_capacity(capacity + 1),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    /// Accesses a page; returns `true` on a cache hit. `O(1)`.
    pub fn access(&mut self, page: u64) -> bool {
        self.access_slot(page).0
    }

    /// Accesses a page and returns whether it was a hit, with the value
    /// of the slot that now holds it. `O(1)`, one map lookup on a hit.
    /// On a miss the slot is a fresh one (`T::default()`) or the least
    /// recently used page's, still carrying that page's value: the
    /// caller takes or overwrites it.
    pub(crate) fn access_slot(&mut self, page: u64) -> (bool, &mut T) {
        if let Some(&slot) = self.resident.get(&page) {
            self.hits += 1;
            if self.head != slot {
                self.unlink(slot);
                self.link_front(slot);
            }
            return (true, &mut self.slots[slot].value);
        }
        self.misses += 1;
        let slot = if self.slots.len() < self.capacity {
            // Arena not full yet: allocate a fresh slot.
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
                value: T::default(),
            });
            self.slots.len() - 1
        } else {
            // Evict the least recently used page and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.resident.remove(&self.slots[victim].page);
            self.slots[victim].page = page;
            victim
        };
        self.resident.insert(page, slot);
        self.link_front(slot);
        (false, &mut self.slots[slot].value)
    }

    /// The value of the slot holding `page`, if it is resident, without
    /// counting an access or touching recency.
    pub(crate) fn slot_mut(&mut self, page: u64) -> Option<&mut T> {
        let slot = *self.resident.get(&page)?;
        Some(&mut self.slots[slot].value)
    }

    /// Accesses every page overlapped by the inclusive key range, given
    /// `page_size` keys per page.
    pub fn access_range(&mut self, lo: u64, hi: u64, page_size: u64) {
        debug_assert!(lo <= hi && page_size >= 1);
        for page in (lo / page_size)..=(hi / page_size) {
            self.access(page);
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (each miss is a page read from the medium).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of pages currently resident.
    pub fn resident(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hit ratio in `[0, 1]`; 0 for an untouched pool.
    fn hit_ratio(pool: &LruBufferPool) -> f64 {
        let total = pool.hits() + pool.misses();
        if total == 0 {
            0.0
        } else {
            pool.hits() as f64 / total as f64
        }
    }

    #[test]
    fn cold_accesses_miss_then_hit() {
        let mut pool = LruBufferPool::new(4);
        assert!(!pool.access(1));
        assert!(!pool.access(2));
        assert!(pool.access(1));
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 2);
        assert!((hit_ratio(&pool) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_respected_with_lru_eviction() {
        let mut pool = LruBufferPool::new(2);
        pool.access(1);
        pool.access(2);
        pool.access(1); // 1 is now most recent
        pool.access(3); // evicts 2
        assert_eq!(pool.resident(), 2);
        assert!(pool.access(1), "1 must still be resident");
        assert!(!pool.access(2), "2 was evicted");
    }

    #[test]
    fn range_access_touches_each_overlapped_page_once() {
        let mut pool = LruBufferPool::new(16);
        pool.access_range(0, 255, 64); // pages 0..=3
        assert_eq!(pool.misses(), 4);
        pool.access_range(100, 120, 64); // page 1 only — a hit
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn sequential_scan_thrashes_small_cache() {
        let mut pool = LruBufferPool::new(2);
        for round in 0..3 {
            for page in 0..10u64 {
                let hit = pool.access(page);
                assert!(!hit, "round {round} page {page} cannot hit an LRU of 2");
            }
        }
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 30);
    }

    #[test]
    fn slot_values_follow_their_pages_and_pass_on_eviction() {
        let mut pool: LruBufferPool<Option<u64>> = LruBufferPool::with_slots(2);
        let (hit, value) = pool.access_slot(1);
        assert!(!hit);
        assert_eq!(*value, None, "a fresh slot starts at the default");
        *value = Some(10);
        *pool.access_slot(2).1 = Some(20);
        assert_eq!(pool.access_slot(1), (true, &mut Some(10)));
        // 2 is least recent: 3 takes its slot and finds 2's value there.
        let (hit, value) = pool.access_slot(3);
        assert!(!hit);
        assert_eq!(value.take(), Some(20));
        assert_eq!(pool.slot_mut(2), None, "2 is no longer resident");
        assert_eq!(pool.slot_mut(3), Some(&mut None));
        assert_eq!(pool.slot_mut(1), Some(&mut Some(10)));
        assert_eq!(
            (pool.hits(), pool.misses()),
            (1, 3),
            "slot_mut is no access"
        );
        // Nor does it touch recency: 1 is still the eviction victim.
        assert_eq!(pool.access_slot(4), (false, &mut Some(10)));
    }

    /// The old `O(capacity)`-per-miss implementation, kept as an oracle:
    /// the intrusive-list rewrite must preserve hit/miss semantics exactly.
    struct NaiveLru {
        capacity: usize,
        last_use: std::collections::HashMap<u64, u64>,
        tick: u64,
    }

    impl NaiveLru {
        fn access(&mut self, page: u64) -> bool {
            self.tick += 1;
            let hit = self.last_use.contains_key(&page);
            self.last_use.insert(page, self.tick);
            if !hit && self.last_use.len() > self.capacity {
                let (&victim, _) = self.last_use.iter().min_by_key(|&(_, &t)| t).unwrap();
                self.last_use.remove(&victim);
            }
            hit
        }
    }

    #[test]
    fn matches_naive_reference_on_adversarial_streams() {
        for capacity in [1usize, 2, 3, 7, 16] {
            let mut fast = LruBufferPool::new(capacity);
            let mut naive = NaiveLru {
                capacity,
                last_use: std::collections::HashMap::new(),
                tick: 0,
            };
            // Deterministic pseudo-random page stream over a small id space
            // (plenty of re-touches and evictions at every capacity).
            let mut state = 0x2545F4914F6CDD1Du64;
            for step in 0..4000u32 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let page = state % 24;
                assert_eq!(
                    fast.access(page),
                    naive.access(page),
                    "capacity {capacity}, step {step}, page {page}"
                );
            }
            assert_eq!(fast.resident(), naive.last_use.len(), "capacity {capacity}");
            assert!(fast.resident() <= capacity);
        }
    }

    #[test]
    fn clustered_ranges_cache_better_than_scattered() {
        // Two layouts of the same 64 "cells": 4 contiguous ranges vs 32
        // scattered fragments; replay the workload twice with a small pool.
        let page = 8u64;
        let mut clustered = LruBufferPool::new(8);
        let mut scattered = LruBufferPool::new(8);
        for _ in 0..2 {
            for r in 0..4u64 {
                clustered.access_range(r * 16, r * 16 + 15, page);
            }
            for f in 0..32u64 {
                scattered.access_range(f * 40, f * 40 + 1, page);
            }
        }
        assert!(
            hit_ratio(&clustered) > hit_ratio(&scattered),
            "clustered {:.2} vs scattered {:.2}",
            hit_ratio(&clustered),
            hit_ratio(&scattered)
        );
    }
}
