//! An LRU buffer pool over page identifiers.
//!
//! Disk seeks are the paper's headline cost, but real systems also cache
//! pages: a curve that clusters queries into few ranges touches fewer
//! distinct pages, so repeated workloads hit the buffer pool more often.
//! The pool counts hits/misses for a stream of page accesses and decides
//! residency for the [`SegmentTree`](crate::SegmentTree) leaf cache; it
//! also lets experiments compare curve layouts under a bounded cache.
//!
//! Every access is `O(1)`: recency is an intrusive doubly-linked list
//! threaded through a slot arena, with a hash map from page id to slot, so
//! a leaf cache can consult the pool on each leaf a scan touches.

use std::collections::HashMap;

/// Sentinel slot index meaning "no neighbor" in the recency list.
const NIL: usize = usize::MAX;

/// One resident page: arena slot of the intrusive recency list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page: u64,
    /// Towards more recently used (NIL at the head).
    prev: usize,
    /// Towards less recently used (NIL at the tail).
    next: usize,
}

/// A fixed-capacity LRU cache over page identifiers.
#[derive(Debug)]
pub struct LruBufferPool {
    capacity: usize,
    /// page id -> arena slot.
    resident: HashMap<u64, usize>,
    /// Slot arena; at most `capacity` slots are ever allocated.
    slots: Vec<Slot>,
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
        let Slot { prev, next, .. } = self.slots[slot];
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
        self.access_evicting(page).0
    }

    /// Accesses a page, additionally reporting which page (if any) was
    /// evicted to make room. `O(1)`. Callers that keep page *contents*
    /// resident alongside this pool (the segment leaf cache) use the
    /// victim to drop their copy, so memory tracks the pool's bound.
    pub(crate) fn access_evicting(&mut self, page: u64) -> (bool, Option<u64>) {
        if let Some(&slot) = self.resident.get(&page) {
            self.hits += 1;
            if self.head != slot {
                self.unlink(slot);
                self.link_front(slot);
            }
            return (true, None);
        }
        self.misses += 1;
        let mut evicted = None;
        let slot = if self.slots.len() < self.capacity {
            // Arena not full yet: allocate a fresh slot.
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Evict the least recently used page and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.resident.remove(&self.slots[victim].page);
            evicted = Some(self.slots[victim].page);
            self.slots[victim].page = page;
            victim
        };
        self.resident.insert(page, slot);
        self.link_front(slot);
        (false, evicted)
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
