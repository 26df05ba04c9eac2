//! An in-memory B+-tree keyed by `u64` SFC indexes.
//!
//! Written from scratch for this workspace: fixed fanout, leaves linked for
//! range scans, bulk loading from sorted input, insertion with node splits,
//! and (lazy) removal. It is the storage engine the range-decomposition
//! experiments run against; leaf visits map one-to-one onto simulated disk
//! pages.
//!
//! All read paths take `&self` and report page counts per call (on
//! [`RangeIter::pages`] or through [`BPlusTree::scan_range`]'s page
//! callback), so a shared tree can serve concurrent scans without interior
//! mutability — the property the sharded table layer builds on.
//!
//! Pages are copy-on-write: the arena holds `Arc<Node>` slots, so cloning a
//! tree is O(pages) pointer copies and mutating a clone copies only the
//! nodes on the actually-written path ([`Arc::make_mut`]). Two versions of
//! a tree share every page neither has touched, which is what makes
//! epoch-stamped table versions affordable — see the MVCC section of
//! `docs/ARCHITECTURE.md`. Arena indices (node ids, leaf `next` links) are
//! preserved across clones because a clone never reorders the arena, so
//! page ids stay stable across a linear version history.

use std::ops::Deref;
use std::sync::Arc;

/// Maximum number of keys per node (fanout − 1 for internals). Chosen so a
/// leaf of `(u64, u64)` entries is roughly a 4 KiB page.
pub const DEFAULT_NODE_CAPACITY: usize = 256;

/// How many ranges ahead of the one being scanned
/// [`BPlusTree::scan_ranges`] descends: the size of its ring of landed
/// leaves.
const DESCEND_AHEAD: usize = 8;

/// How many ranges ahead of the one being scanned
/// [`BPlusTree::scan_ranges`] hints the landing leaf's key lines. Smaller
/// than [`DESCEND_AHEAD`], so the leaf node hinted at the descent has had
/// a few ranges' time to arrive before its key array's address is read.
const KEYS_AHEAD: usize = 4;

/// `u64` keys per 64-byte cache line.
const KEYS_PER_LINE: usize = 64 / std::mem::size_of::<u64>();

#[derive(Debug, Clone)]
enum Node<V> {
    Leaf {
        keys: Vec<u64>,
        values: Vec<V>,
        /// Index of the next leaf in `BPlusTree::leaves_order`, if any.
        next: Option<usize>,
    },
    Internal {
        /// `separators[i]` is the smallest key reachable under
        /// `children[i + 1]`.
        separators: Vec<u64>,
        children: Vec<usize>,
    },
}

/// A B+-tree mapping `u64` keys to values, duplicates allowed.
///
/// ```
/// use sfc_index::BPlusTree;
///
/// let mut t = BPlusTree::new(4);
/// for k in [5u64, 1, 9, 7, 3] {
///     t.insert(k, k * 10);
/// }
/// assert_eq!(t.get(7), Some(&70));
/// let range: Vec<_> = t.range(3, 7).map(|(k, _)| k).collect();
/// assert_eq!(range, vec![3, 5, 7]);
/// ```
#[derive(Debug)]
pub struct BPlusTree<V> {
    nodes: Vec<Arc<Node<V>>>,
    root: usize,
    len: usize,
    capacity: usize,
}

/// Cloning is an O(pages) *fork*, not a deep copy: the new tree shares
/// every page with the original, and subsequent mutations on either side
/// copy only the pages they actually write (path copying via
/// [`Arc::make_mut`]). This is deliberately implemented by hand rather than
/// derived so it needs no `V: Clone` bound — forking never touches values.
impl<V> Clone for BPlusTree<V> {
    fn clone(&self) -> Self {
        BPlusTree {
            nodes: self.nodes.clone(),
            root: self.root,
            len: self.len,
            capacity: self.capacity,
        }
    }
}

impl<V> BPlusTree<V> {
    /// Creates an empty tree with the given node capacity (≥ 2).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "node capacity must be at least 2");
        BPlusTree {
            nodes: vec![Arc::new(Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
                next: None,
            })],
            root: 0,
            len: 0,
            capacity,
        }
    }

    /// Bulk-loads a tree from entries sorted ascending by key.
    ///
    /// # Panics
    /// If the input is not sorted.
    pub fn bulk_load(entries: Vec<(u64, V)>, capacity: usize) -> Self {
        assert!(capacity >= 2);
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load requires sorted input"
        );
        if entries.is_empty() {
            return Self::new(capacity);
        }
        let len = entries.len();
        let mut nodes: Vec<Arc<Node<V>>> = Vec::new();
        // Build leaves left to right.
        let mut level: Vec<(u64, usize)> = Vec::new(); // (min key, node id)
        let per_leaf = capacity;
        let mut iter = entries.into_iter().peekable();
        while iter.peek().is_some() {
            let mut keys = Vec::with_capacity(per_leaf);
            let mut values = Vec::with_capacity(per_leaf);
            for _ in 0..per_leaf {
                match iter.next() {
                    Some((k, v)) => {
                        keys.push(k);
                        values.push(v);
                    }
                    None => break,
                }
            }
            let id = nodes.len();
            let min = keys[0];
            nodes.push(Arc::new(Node::Leaf {
                keys,
                values,
                next: None,
            }));
            if let Some(&(_, prev)) = level.last() {
                // Freshly built nodes are unshared, so this never clones.
                let prev_node = Arc::get_mut(&mut nodes[prev]).expect("fresh node is unique");
                if let Node::Leaf { next, .. } = prev_node {
                    *next = Some(id);
                }
            }
            level.push((min, id));
        }
        // Build internal levels bottom-up.
        while level.len() > 1 {
            let mut upper: Vec<(u64, usize)> = Vec::new();
            for chunk in level.chunks(capacity) {
                let id = nodes.len();
                let separators = chunk[1..].iter().map(|&(k, _)| k).collect();
                let children = chunk.iter().map(|&(_, c)| c).collect();
                nodes.push(Arc::new(Node::Internal {
                    separators,
                    children,
                }));
                upper.push((chunk[0].0, id));
            }
            level = upper;
        }
        let root = level[0].1;
        BPlusTree {
            nodes,
            root,
            len,
            capacity,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Descends to a leaf. With `leftmost`, routes to the leftmost leaf that
    /// can hold `key` (correct start for range scans over duplicate keys);
    /// otherwise to the rightmost (where a point insert/lookup lands).
    fn find_leaf(&self, key: u64, leftmost: bool) -> usize {
        let mut id = self.root;
        loop {
            match &*self.nodes[id] {
                Node::Leaf { .. } => return id,
                Node::Internal {
                    separators,
                    children,
                } => {
                    let pos = if leftmost {
                        separators.partition_point(|&s| s < key)
                    } else {
                        separators.partition_point(|&s| s <= key)
                    };
                    id = children[pos];
                }
            }
        }
    }

    /// Looks up a value stored under `key`. Among duplicates, returns the
    /// **newest** (last-inserted) entry: inserts append after existing
    /// equal keys, so the newest copy sits last in the rightmost leaf the
    /// descent lands on — which is what makes read-your-writes hold for a
    /// write into an occupied cell.
    pub fn get(&self, key: u64) -> Option<&V> {
        let leaf = self.find_leaf(key, false);
        let Node::Leaf { keys, values, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        let pos = keys.partition_point(|&k| k <= key);
        if pos > 0 && keys[pos - 1] == key {
            Some(&values[pos - 1])
        } else {
            None
        }
    }

    /// Looks up `key` and returns a *pinned* read: the guard holds the
    /// leaf page's `Arc`, so the value stays readable — and bit-identical —
    /// even if the tree (or a forked version of it) is mutated afterwards.
    /// The guard's extra reference also *protects* the page: any later
    /// [`Arc::make_mut`] sees the page shared and copies it instead of
    /// editing it in place. This is what lets `ShardedTable::get` hand out
    /// values without cloning them.
    pub(crate) fn get_pinned(&self, key: u64) -> Option<EntryGuard<V>> {
        let leaf = self.find_leaf(key, false);
        let Node::Leaf { keys, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        let pos = keys.partition_point(|&k| k <= key);
        if pos > 0 && keys[pos - 1] == key {
            Some(EntryGuard::page(Arc::clone(&self.nodes[leaf]), pos - 1))
        } else {
            None
        }
    }
}

/// Mutations require `V: Clone` because copy-on-write may have to duplicate
/// a shared page — including its values — before editing it. Pure reads and
/// forks ([`Clone`]) stay bound-free.
impl<V: Clone> BPlusTree<V> {
    /// Mutable lookup of a value stored under `key` — like [`Self::get`],
    /// the **newest** duplicate.
    ///
    /// Copies the leaf page first if it is shared with another tree
    /// version (copy-on-write), but only when the key is actually present.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let leaf = self.find_leaf(key, false);
        let Node::Leaf { keys, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        let pos = keys.partition_point(|&k| k <= key);
        if pos > 0 && keys[pos - 1] == key {
            let Node::Leaf { values, .. } = Arc::make_mut(&mut self.nodes[leaf]) else {
                unreachable!()
            };
            Some(&mut values[pos - 1])
        } else {
            None
        }
    }

    /// Removes the first entry stored under `key` (insertion order among
    /// duplicates) and returns its value.
    ///
    /// Removal is *lazy*: leaves are never merged or rebalanced, so a node
    /// may drop below half occupancy — the invariants
    /// [`Self::check_invariants`] verifies (ordering, separator consistency,
    /// leaf-chain completeness) are all preserved, and scans skip empty
    /// leaves. This mirrors the deferred-compaction strategy of real
    /// storage engines, which reclaim space in the background rather than
    /// on every delete.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut leaf = self.find_leaf(key, true);
        loop {
            // Probe immutably first: only the leaf that actually loses an
            // entry is copied-on-write; leaves merely walked past stay
            // shared with other versions.
            let Node::Leaf { keys, next, .. } = &*self.nodes[leaf] else {
                unreachable!()
            };
            let pos = keys.partition_point(|&k| k < key);
            if pos < keys.len() {
                if keys[pos] != key {
                    return None;
                }
                let Node::Leaf { keys, values, .. } = Arc::make_mut(&mut self.nodes[leaf]) else {
                    unreachable!()
                };
                keys.remove(pos);
                let v = values.remove(pos);
                self.len -= 1;
                return Some(v);
            }
            // Leaf exhausted without passing `key`: duplicates (or the key
            // itself, after deletions emptied this leaf) may continue on the
            // next page.
            match *next {
                Some(n) => leaf = n,
                None => return None,
            }
        }
    }

    /// Inserts an entry (duplicates allowed, kept in insertion order among
    /// equal keys).
    pub fn insert(&mut self, key: u64, value: V) {
        self.len += 1;
        if let Some((sep, right)) = self.insert_rec(self.root, key, value) {
            // Root split: grow the tree by one level.
            let new_root = self.nodes.len();
            let old_root = self.root;
            self.nodes.push(Arc::new(Node::Internal {
                separators: vec![sep],
                children: vec![old_root, right],
            }));
            self.root = new_root;
        }
    }

    /// Returns `Some((separator, new_node_id))` when the child split.
    ///
    /// Copy-on-write discipline: internal nodes are probed immutably for
    /// routing and only copied (`Arc::make_mut`) when a child split forces
    /// a separator insert; the destination leaf is always copied, since an
    /// insert always edits it. Split-off right siblings are appended to the
    /// arena — versions forked *before* the insert never see those slots
    /// (their `next` links and child ids predate them), and the linear
    /// version history means no two live versions ever race to claim the
    /// same new slot.
    fn insert_rec(&mut self, id: usize, key: u64, value: V) -> Option<(u64, usize)> {
        let capacity = self.capacity;
        match &*self.nodes[id] {
            Node::Leaf { .. } => {
                // The id the right sibling will get if this insert splits:
                // nothing is pushed between here and that push.
                let right_id = self.nodes.len();
                let Node::Leaf { keys, values, next } = Arc::make_mut(&mut self.nodes[id]) else {
                    unreachable!()
                };
                let pos = keys.partition_point(|&k| k <= key);
                keys.insert(pos, key);
                values.insert(pos, value);
                if keys.len() <= capacity {
                    return None;
                }
                // Split leaf: move the upper half into a new right sibling.
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_values = values.split_off(mid);
                let sep = right_keys[0];
                let old_next = *next;
                *next = Some(right_id);
                self.nodes.push(Arc::new(Node::Leaf {
                    keys: right_keys,
                    values: right_values,
                    next: old_next,
                }));
                Some((sep, right_id))
            }
            Node::Internal {
                separators,
                children,
            } => {
                let pos = separators.partition_point(|&s| s <= key);
                let child = children[pos];
                let split = self.insert_rec(child, key, value)?;
                let right_id = self.nodes.len();
                let Node::Internal {
                    separators,
                    children,
                } = Arc::make_mut(&mut self.nodes[id])
                else {
                    unreachable!()
                };
                separators.insert(pos, split.0);
                children.insert(pos + 1, split.1);
                if separators.len() <= capacity {
                    return None;
                }
                // Split internal node.
                let mid = separators.len() / 2;
                let sep_up = separators[mid];
                let right_seps = separators.split_off(mid + 1);
                separators.pop(); // sep_up moves up
                let right_children = children.split_off(mid + 1);
                self.nodes.push(Arc::new(Node::Internal {
                    separators: right_seps,
                    children: right_children,
                }));
                Some((sep_up, right_id))
            }
        }
    }
}

impl<V> BPlusTree<V> {
    /// Iterates entries with keys in `lo..=hi`, ascending. The iterator
    /// counts the leaf pages it touches ([`RangeIter::pages`]).
    pub fn range(&self, lo: u64, hi: u64) -> RangeIter<'_, V> {
        let leaf = self.find_leaf(lo, true);
        let Node::Leaf { keys, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        let pos = keys.partition_point(|&k| k < lo);
        RangeIter {
            tree: self,
            leaf,
            pos,
            hi,
            pages: 0,
            counted_leaf: false,
        }
    }

    /// Scans entries with keys in `lo..=hi`, ascending, reporting each
    /// *read* leaf page's node id to `on_page` before its entries reach
    /// `visit`. It is the one-range call of [`Self::scan_ranges`].
    ///
    /// This is the storage-backend primitive: page ids let the caller
    /// account for every touched page, and the whole scan is `&self` with
    /// per-call accounting, so concurrent scans of a shared tree never
    /// contend.
    ///
    /// A page is reported only when the scan loop examines at least one
    /// of its keys as scan data. The *landing* leaf — where the descent
    /// for `lo` arrives — is not reported when `lo` is greater than all
    /// of its keys (which happens whenever `lo` equals a separator key,
    /// i.e. starts exactly on a page boundary): the descent's probe of
    /// that page is index navigation, accounted like internal nodes
    /// (free, as in a real engine whose upper levels live in memory),
    /// while the end-of-scan peek at the next leaf *is* scan data — the
    /// loop must read its first key to decide termination. Before this
    /// rule, a plan re-scanning a coalesced super-range whose start
    /// coincided with a page boundary counted the boundary page twice —
    /// visible as inflated `cache_hits` in [`IoStats`](crate::IoStats).
    /// Leaves emptied by lazy removal are skipped without being reported
    /// for the same reason.
    pub fn scan_range(
        &self,
        lo: u64,
        hi: u64,
        on_page: &mut dyn FnMut(usize),
        visit: &mut dyn FnMut(u64, &V),
    ) {
        self.scan_ranges(&[(lo, hi)], on_page, visit);
    }

    /// Scans each of `ranges` (sorted, disjoint, inclusive) in order,
    /// exactly as [`Self::scan_range`] would one after another: the same
    /// entries reach `visit` and the same page ids reach `on_page`, in the
    /// same order.
    ///
    /// What differs is when the misses are paid. Each range starts with a
    /// landing: a descent to its first leaf, then a binary search of that
    /// leaf's keys. The internal levels stay cache-resident, but the leaf
    /// node and its key lines are cold, and one range's landing depends on
    /// nothing from the range before it. So while range `i` is scanned,
    /// the walk has already descended range `i + DESCEND_AHEAD` and hinted
    /// its leaf node, and hinted the key lines of range `i + KEYS_AHEAD`'s
    /// leaf: the landings of a plan overlap instead of queuing one behind
    /// another. The landed leaf ids live in a fixed on-stack ring, so the
    /// scan allocates nothing.
    pub fn scan_ranges(
        &self,
        ranges: &[(u64, u64)],
        on_page: &mut dyn FnMut(usize),
        visit: &mut dyn FnMut(u64, &V),
    ) {
        debug_assert!(
            ranges.windows(2).all(|w| w[0].1 < w[1].0),
            "ranges must be sorted and disjoint"
        );
        // ring[i % DESCEND_AHEAD] holds range i's landing leaf from when it
        // is descended until range i is scanned.
        let mut ring = [0usize; DESCEND_AHEAD];
        for (slot, &(lo, _)) in ring.iter_mut().zip(ranges) {
            *slot = self.land(lo);
        }
        for &leaf in ring.iter().take(KEYS_AHEAD.min(ranges.len())) {
            self.hint_keys(leaf);
        }
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let slot = i % DESCEND_AHEAD;
            let leaf = ring[slot];
            if let Some(&(ahead, _)) = ranges.get(i + DESCEND_AHEAD) {
                ring[slot] = self.land(ahead);
            }
            if i + KEYS_AHEAD < ranges.len() {
                self.hint_keys(ring[(i + KEYS_AHEAD) % DESCEND_AHEAD]);
            }
            self.walk_leaves(leaf, lo, hi, on_page, visit);
        }
    }

    /// Descends to the leftmost leaf that can hold `lo` and hints its node
    /// into cache.
    fn land(&self, lo: u64) -> usize {
        let leaf = self.find_leaf(lo, true);
        crate::prefetch::prefetch_read(&*self.nodes[leaf]);
        leaf
    }

    /// Hints every cache line of a leaf's key array, so the binary search
    /// that positions a scan in it finds them loaded.
    fn hint_keys(&self, leaf: usize) {
        let Node::Leaf { keys, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        for i in (0..keys.len()).step_by(KEYS_PER_LINE) {
            crate::prefetch::prefetch_read(keys.as_ptr().wrapping_add(i));
        }
    }

    /// The leaf walk of one range, from its landing leaf: positions on the
    /// first key `>= lo`, then follows the leaf chain until a key passes
    /// `hi`. Page reporting follows [`Self::scan_range`]'s rule.
    fn walk_leaves(
        &self,
        mut leaf: usize,
        lo: u64,
        hi: u64,
        on_page: &mut dyn FnMut(usize),
        visit: &mut dyn FnMut(u64, &V),
    ) {
        let Node::Leaf { keys, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        let mut pos = keys.partition_point(|&k| k < lo);
        loop {
            let Node::Leaf { keys, values, next } = &*self.nodes[leaf] else {
                unreachable!()
            };
            // Hint the next leaf's node while this one is consumed: after
            // incremental inserts the linked leaves are scattered through
            // `nodes` in split order, so every hop is a data-dependent miss
            // the hardware prefetcher cannot predict. Issuing the hint a
            // full leaf early overlaps that miss with this leaf's visits.
            if let Some(nxt) = *next {
                crate::prefetch::prefetch_read(&*self.nodes[nxt]);
            }
            if pos < keys.len() {
                on_page(leaf);
                while pos < keys.len() {
                    let k = keys[pos];
                    if k > hi {
                        return;
                    }
                    visit(k, &values[pos]);
                    pos += 1;
                }
            }
            let Some(nxt) = *next else { return };
            leaf = nxt;
            pos = 0;
        }
    }

    /// The pinned no-prefetch form of [`Self::scan_range`]: identical
    /// reporting and visiting semantics, entry-at-a-time loop, no cache
    /// hints. Exists as the baseline the `index/scan_range` benches and the
    /// equivalence tests compare the prefetched scan against, and as the
    /// per-range oracle for the windowed [`Self::scan_ranges`].
    pub fn scan_range_reference(
        &self,
        lo: u64,
        hi: u64,
        on_page: &mut dyn FnMut(usize),
        visit: &mut dyn FnMut(u64, &V),
    ) {
        let mut leaf = self.find_leaf(lo, true);
        let Node::Leaf { keys, .. } = &*self.nodes[leaf] else {
            unreachable!()
        };
        let mut pos = keys.partition_point(|&k| k < lo);
        let mut counted = false;
        loop {
            let Node::Leaf { keys, values, next } = &*self.nodes[leaf] else {
                unreachable!()
            };
            if pos < keys.len() {
                if !counted {
                    counted = true;
                    on_page(leaf);
                }
                let k = keys[pos];
                if k > hi {
                    return;
                }
                visit(k, &values[pos]);
                pos += 1;
            } else {
                let Some(nxt) = *next else { return };
                leaf = nxt;
                pos = 0;
                counted = false;
            }
        }
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> RangeIter<'_, V> {
        self.range(0, u64::MAX)
    }

    /// Validates structural invariants (sorted keys, separator consistency,
    /// linked leaves cover all entries in order). Test helper.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every leaf's keys are sorted; the leaf chain yields a global
        // sorted sequence of exactly `len` keys.
        let mut count = 0usize;
        let mut last: Option<u64> = None;
        for (k, _) in self.iter() {
            if let Some(prev) = last {
                if k < prev {
                    return Err(format!("keys out of order: {prev} then {k}"));
                }
            }
            last = Some(k);
            count += 1;
        }
        if count != self.len {
            return Err(format!(
                "leaf chain has {count} entries, len is {}",
                self.len
            ));
        }
        self.check_node(self.root, None, None)
    }

    fn check_node(&self, id: usize, lo: Option<u64>, hi: Option<u64>) -> Result<(), String> {
        match &*self.nodes[id] {
            Node::Leaf { keys, .. } => {
                for &k in keys {
                    // With duplicates, a left sibling may hold keys equal to
                    // the separator, so the upper bound is non-strict.
                    if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k > h) {
                        return Err(format!("leaf key {k} outside ({lo:?}, {hi:?})"));
                    }
                }
                Ok(())
            }
            Node::Internal {
                separators,
                children,
            } => {
                if children.len() != separators.len() + 1 {
                    return Err("child/separator arity mismatch".into());
                }
                if !separators.windows(2).all(|w| w[0] <= w[1]) {
                    return Err("separators out of order".into());
                }
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(separators[i - 1]) };
                    let chi = if i == separators.len() {
                        hi
                    } else {
                        Some(separators[i])
                    };
                    self.check_node(child, clo, chi)?;
                }
                Ok(())
            }
        }
    }
}

/// A pinned point-read handle from every
/// [`Backend::get_pinned`](crate::Backend::get_pinned).
///
/// For in-memory trees the guard owns a reference to the leaf *page*
/// holding the entry, not a copy of the value: dereferencing is free, and
/// the pin outlives the tree it came from. Because the guard keeps the
/// page's `Arc` refcount above one, every copy-on-write mutation path sees
/// the page as shared and copies it before editing — the guarded value can
/// never change or move underneath the reader, without any `unsafe`.
///
/// Disk-resident backends cannot hand out borrows into pages that live in
/// a file, so the guard also has an owned representation
/// ([`EntryGuard::owned`]): the value is decoded once at read time and the
/// guard carries it. Either way the caller sees one stable `Deref<Target
/// = V>` — the representational split is exactly the in-memory/
/// disk-resident storage split, hidden behind one read API.
#[derive(Debug)]
pub struct EntryGuard<V> {
    repr: GuardRepr<V>,
}

#[derive(Debug)]
enum GuardRepr<V> {
    /// Pins a shared leaf page; the value is read in place.
    Page { node: Arc<Node<V>>, pos: usize },
    /// Carries a value decoded from storage that cannot be borrowed.
    Owned(Box<V>),
}

impl<V> EntryGuard<V> {
    /// A guard pinning `pos` within a leaf page.
    fn page(node: Arc<Node<V>>, pos: usize) -> Self {
        EntryGuard {
            repr: GuardRepr::Page { node, pos },
        }
    }

    /// A guard carrying an already-materialized value — the form
    /// disk-resident backends return, where the storage page cannot be
    /// borrowed.
    pub fn owned(value: V) -> Self {
        EntryGuard {
            repr: GuardRepr::Owned(Box::new(value)),
        }
    }
}

impl<V: Clone> Clone for EntryGuard<V> {
    fn clone(&self) -> Self {
        match &self.repr {
            GuardRepr::Page { node, pos } => EntryGuard::page(Arc::clone(node), *pos),
            GuardRepr::Owned(v) => EntryGuard::owned((**v).clone()),
        }
    }
}

impl<V> Deref for EntryGuard<V> {
    type Target = V;

    fn deref(&self) -> &V {
        match &self.repr {
            GuardRepr::Page { node, pos } => {
                let Node::Leaf { values, .. } = &**node else {
                    unreachable!("EntryGuard always pins a leaf page")
                };
                &values[*pos]
            }
            GuardRepr::Owned(v) => v,
        }
    }
}

/// Iterator over a key range of a [`BPlusTree`].
pub struct RangeIter<'a, V> {
    tree: &'a BPlusTree<V>,
    leaf: usize,
    pos: usize,
    hi: u64,
    pages: u64,
    counted_leaf: bool,
}

impl<V> RangeIter<'_, V> {
    /// Leaf pages this iterator has read so far (simulated page reads):
    /// pages from which at least one key was examined. The landing leaf of
    /// a scan starting past its last key is *not* counted — see
    /// [`BPlusTree::scan_range`] for the accounting rule (and the
    /// double-count it fixes).
    pub fn pages(&self) -> u64 {
        self.pages
    }
}

impl<'a, V> Iterator for RangeIter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<(u64, &'a V)> {
        loop {
            let Node::Leaf {
                keys, values, next, ..
            } = &*self.tree.nodes[self.leaf]
            else {
                unreachable!()
            };
            if self.pos < keys.len() {
                if !self.counted_leaf {
                    self.counted_leaf = true;
                    self.pages += 1;
                    // First touch of a new leaf: hint the one after it so
                    // the hop at the end of this page is already in cache
                    // (see `BPlusTree::scan_range`).
                    if let Some(nxt) = *next {
                        crate::prefetch::prefetch_read(&*self.tree.nodes[nxt]);
                    }
                }
                let k = keys[self.pos];
                if k > self.hi {
                    return None;
                }
                let v = &values[self.pos];
                self.pos += 1;
                return Some((k, v));
            }
            let nxt = (*next)?;
            self.leaf = nxt;
            self.pos = 0;
            self.counted_leaf = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree height (1 for a lone leaf).
    fn height<V>(t: &BPlusTree<V>) -> usize {
        let mut h = 1;
        let mut id = t.root;
        while let Node::Internal { children, .. } = &*t.nodes[id] {
            id = children[0];
            h += 1;
        }
        h
    }

    #[test]
    fn empty_tree() {
        let t: BPlusTree<u32> = BPlusTree::new(4);
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        assert_eq!(t.range(0, 100).count(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_get_with_splits() {
        let mut t = BPlusTree::new(4);
        for k in 0..1000u64 {
            t.insert(k * 7 % 1000, k);
        }
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
        assert!(height(&t) > 2, "splits must have grown the tree");
        for k in [0u64, 1, 499, 999] {
            assert!(t.get(k).is_some(), "missing key {k}");
        }
        assert_eq!(t.get(1000), None);
    }

    #[test]
    fn range_scan_is_sorted_and_complete() {
        let mut t = BPlusTree::new(8);
        for k in (0..500u64).rev() {
            t.insert(k, ());
        }
        let got: Vec<u64> = t.range(100, 199).map(|(k, _)| k).collect();
        let expect: Vec<u64> = (100..=199).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = BPlusTree::new(4);
        for i in 0..10u64 {
            t.insert(42, i);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.range(42, 42).count(), 10);
    }

    #[test]
    fn point_reads_return_newest_duplicate() {
        let mut t = BPlusTree::new(4);
        for k in [7u64, 42, 99] {
            for i in 0..10u64 {
                t.insert(k, (k, i));
            }
        }
        t.check_invariants().unwrap();
        // get / get_pinned / get_mut all answer the last-inserted copy,
        // even when the duplicate run spans several leaves.
        assert_eq!(t.get(42), Some(&(42, 9)));
        assert_eq!(t.get_pinned(42).as_deref(), Some(&(42, 9)));
        assert_eq!(t.get_mut(42), Some(&mut (42, 9)));
        // A fresh insert is immediately the one reads see.
        t.insert(42, (42, 10));
        assert_eq!(t.get(42), Some(&(42, 10)));
        // remove still takes the oldest, so scans keep insertion order.
        assert_eq!(t.remove(42), Some((42, 0)));
        assert_eq!(t.get(42), Some(&(42, 10)));
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let entries: Vec<(u64, u64)> = (0..777u64).map(|k| (k * 3, k)).collect();
        let bulk = BPlusTree::bulk_load(entries.clone(), 16);
        bulk.check_invariants().unwrap();
        let mut inc = BPlusTree::new(16);
        for (k, v) in entries {
            inc.insert(k, v);
        }
        let a: Vec<_> = bulk.iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = inc.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn bulk_load_rejects_unsorted() {
        let _ = BPlusTree::bulk_load(vec![(3u64, ()), (1, ())], 4);
    }

    #[test]
    fn range_iter_counts_pages() {
        let entries: Vec<(u64, ())> = (0..256u64).map(|k| (k, ())).collect();
        let t = BPlusTree::bulk_load(entries, 16); // 16 leaves
        let mut it = t.range(0, 255);
        assert_eq!(it.by_ref().count(), 256);
        assert_eq!(it.pages(), 16);
        // A scan ending strictly inside a page stops there: one visit.
        let mut it = t.range(0, 14);
        assert_eq!(it.by_ref().count(), 15);
        assert_eq!(it.pages(), 1);
        // A scan ending exactly on a page boundary must peek at the next
        // page (duplicates of the bound could continue there): two visits.
        let mut it = t.range(0, 15);
        assert_eq!(it.by_ref().count(), 16);
        assert_eq!(it.pages(), 2);
    }

    #[test]
    fn scan_starting_on_page_boundary_counts_the_boundary_page_once() {
        // 16 leaves of 16 entries; key 16 is the first key of leaf 1, so it
        // is also the separator above leaf 0. A leftmost descent for lo=16
        // lands on leaf 0 (duplicates of 16 could live there), but reads no
        // entry from it — the old accounting still billed leaf 0, so a scan
        // [16, 20] reported two pages for one page of data. That phantom
        // page is what double-counted cache hits when a planner re-scanned
        // a coalesced super-range starting on a page boundary.
        let entries: Vec<(u64, ())> = (0..256u64).map(|k| (k, ())).collect();
        let t = BPlusTree::bulk_load(entries, 16);
        let mut pages = Vec::new();
        let mut n = 0u32;
        t.scan_range(16, 20, &mut |id| pages.push(id), &mut |_, _| n += 1);
        assert_eq!(n, 5);
        assert_eq!(pages.len(), 1, "only the page actually read is reported");
        // Same rule through the iterator view.
        let mut it = t.range(16, 20);
        assert_eq!(it.by_ref().count(), 5);
        assert_eq!(it.pages(), 1);
        // A scan entirely past the keyspace reads nothing and counts
        // nothing.
        let mut it = t.range(300, 400);
        assert_eq!(it.by_ref().count(), 0);
        assert_eq!(it.pages(), 0);
    }

    #[test]
    fn scan_range_reports_pages_and_entries() {
        let entries: Vec<(u64, u64)> = (0..256u64).map(|k| (k, k * 2)).collect();
        let t = BPlusTree::bulk_load(entries, 16);
        let mut pages = Vec::new();
        let mut got = Vec::new();
        t.scan_range(0, 255, &mut |id| pages.push(id), &mut |k, &v| {
            got.push((k, v))
        });
        assert_eq!(got.len(), 256);
        assert_eq!(pages.len(), 16);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        // Matches the RangeIter view exactly.
        let via_iter: Vec<(u64, u64)> = t.range(0, 255).map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, via_iter);
    }

    #[test]
    fn prefetched_scan_matches_reference_scan() {
        // Random-order inserts scatter the leaf chain through `nodes`
        // (the case prefetching targets); lazy removals add empty leaves
        // the scan must skip identically on both paths.
        let mut t = BPlusTree::new(4);
        for k in 0..512u64 {
            t.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 509, k);
        }
        for k in (0..509u64).step_by(3) {
            t.remove(k);
        }
        for (lo, hi) in [
            (0u64, 508u64),
            (100, 101),
            (17, 400),
            (508, 600),
            (600, 700),
        ] {
            let (mut pages_a, mut got_a) = (Vec::new(), Vec::new());
            t.scan_range(lo, hi, &mut |id| pages_a.push(id), &mut |k, &v| {
                got_a.push((k, v))
            });
            let (mut pages_b, mut got_b) = (Vec::new(), Vec::new());
            t.scan_range_reference(lo, hi, &mut |id| pages_b.push(id), &mut |k, &v| {
                got_b.push((k, v))
            });
            assert_eq!(got_a, got_b, "entries diverge on [{lo}, {hi}]");
            assert_eq!(pages_a, pages_b, "page accounting diverges on [{lo}, {hi}]");
        }
    }

    /// `(visits, page ids)` of one `scan_ranges` call over `ranges`, and of
    /// `scan_range_reference` called once per range, in order.
    type Trace = (Vec<(u64, u64)>, Vec<usize>);

    fn windowed_and_reference(t: &BPlusTree<u64>, ranges: &[(u64, u64)]) -> (Trace, Trace) {
        let (mut pages, mut got) = (Vec::new(), Vec::new());
        t.scan_ranges(ranges, &mut |id| pages.push(id), &mut |k, &v| {
            got.push((k, v))
        });
        let (mut ref_pages, mut ref_got) = (Vec::new(), Vec::new());
        for &(lo, hi) in ranges {
            t.scan_range_reference(lo, hi, &mut |id| ref_pages.push(id), &mut |k, &v| {
                ref_got.push((k, v))
            });
        }
        ((got, pages), (ref_got, ref_pages))
    }

    /// First key of every non-empty leaf after the first, in chain order:
    /// the keys a range can start on to begin exactly at a page boundary.
    fn leaf_first_keys(t: &BPlusTree<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut leaf = Some(t.find_leaf(0, true));
        while let Some(id) = leaf {
            let Node::Leaf { keys, next, .. } = &*t.nodes[id] else {
                unreachable!()
            };
            out.extend(keys.first());
            leaf = *next;
        }
        out.remove(0);
        out
    }

    /// A sorted, disjoint list of short ranges with small gaps (so
    /// neighbours share a leaf or sit in adjacent leaves), every fourth
    /// one snapped to start on a leaf's first key, ending with two ranges
    /// past the last key.
    fn range_list(t: &BPlusTree<u64>, seed: u64, n: usize) -> Vec<(u64, u64)> {
        let starts = leaf_first_keys(t);
        let last = t.iter().last().map_or(0, |(k, _)| k);
        let mut state = seed;
        let mut draw = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut out = Vec::new();
        let mut lo = draw(4);
        while out.len() < n && lo <= last {
            if out.len() % 4 == 1 {
                if let Some(&s) = starts.iter().find(|&&s| s >= lo) {
                    lo = s;
                }
            }
            let hi = lo + draw(6);
            out.push((lo, hi));
            lo = hi + 1 + draw(5);
        }
        out.push((last + 1, last + 3));
        out.push((last + 10, u64::MAX));
        out
    }

    #[test]
    fn scan_ranges_matches_per_range_reference() {
        // Scattered inserts leave the leaf chain out of arena order; lazy
        // removals empty some leaves, which both paths must skip unseen.
        let mut scattered = BPlusTree::new(4);
        for k in 0..512u64 {
            scattered.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 509, k);
        }
        for k in (0..509u64).step_by(3) {
            scattered.remove(k);
        }
        for k in 200..260u64 {
            scattered.remove(k);
        }
        // Each even key five times over: duplicate runs straddle leaves at
        // both capacities, so a leftmost landing matters.
        let dups: Vec<(u64, u64)> = (0..600u64).map(|i| (i / 5 * 2, i)).collect();
        let trees = [
            scattered,
            BPlusTree::bulk_load(dups.clone(), 4),
            BPlusTree::bulk_load(dups, 16),
        ];
        for (n, t) in trees.iter().enumerate() {
            t.check_invariants().unwrap();
            let starts = leaf_first_keys(t);
            for seed in 0..4u64 {
                let ranges = range_list(t, seed, 3 * DESCEND_AHEAD + 6);
                assert!(ranges.len() > 3 * DESCEND_AHEAD, "tree {n}: list too short");
                // The list covers the cases the window must get right.
                let landings: Vec<usize> = ranges
                    .iter()
                    .map(|&(lo, _)| t.find_leaf(lo, true))
                    .collect();
                let next_of = |id: usize| match &*t.nodes[id] {
                    Node::Leaf { next, .. } => *next,
                    Node::Internal { .. } => unreachable!(),
                };
                assert!(
                    landings.windows(2).any(|w| w[0] == w[1]),
                    "tree {n}: no shared leaf"
                );
                assert!(
                    landings.windows(2).any(|w| next_of(w[0]) == Some(w[1])),
                    "tree {n}: no adjacent leaves"
                );
                assert!(
                    ranges.iter().any(|(lo, _)| starts.contains(lo)),
                    "tree {n}: no range starts on a page boundary"
                );
                // Every prefix: empty, fill only, steady state, and drain.
                for len in 0..=ranges.len() {
                    let (got, reference) = windowed_and_reference(t, &ranges[..len]);
                    assert_eq!(
                        got.0, reference.0,
                        "tree {n} seed {seed}: entries diverge at {len} ranges"
                    );
                    assert_eq!(
                        got.1, reference.1,
                        "tree {n} seed {seed}: pages diverge at {len} ranges"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_ranges_over_one_leaf_and_past_the_end() {
        let t = BPlusTree::bulk_load((0..256u64).map(|k| (k, k)).collect(), 16);
        // Twenty single-key ranges over the first two 16-key leaves: all
        // but one range land on the leaf the range before it landed on.
        let dense: Vec<(u64, u64)> = (0..20u64).map(|k| (k, k)).collect();
        let (got, reference) = windowed_and_reference(&t, &dense);
        assert_eq!(got, reference);
        assert_eq!(got.0.len(), 20);
        // Ranges wholly past the last key read nothing and count nothing.
        let past: Vec<(u64, u64)> = (0..12u64).map(|i| (300 + 2 * i, 300 + 2 * i)).collect();
        let (got, reference) = windowed_and_reference(&t, &past);
        assert_eq!(got, reference);
        assert!(got.0.is_empty() && got.1.is_empty());
    }

    #[test]
    fn remove_takes_first_duplicate_and_preserves_invariants() {
        let mut t = BPlusTree::new(4);
        for i in 0..10u64 {
            t.insert(42, i);
        }
        t.insert(7, 100);
        assert_eq!(t.remove(42), Some(0), "first duplicate goes first");
        assert_eq!(t.remove(42), Some(1));
        assert_eq!(t.len(), 9);
        t.check_invariants().unwrap();
        assert_eq!(t.remove(99), None);
        assert_eq!(t.remove(7), Some(100));
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_everything_leaves_working_tree() {
        let mut t = BPlusTree::new(4);
        for k in 0..200u64 {
            t.insert(k * 3 % 200, k);
        }
        for k in 0..200u64 {
            assert!(t.remove(k * 7 % 200).is_some(), "key {k}");
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        assert_eq!(t.range(0, u64::MAX).count(), 0);
        // The emptied tree still accepts inserts and finds them.
        t.insert(5, 55);
        assert_eq!(t.get(5), Some(&55));
        t.check_invariants().unwrap();
    }

    #[test]
    fn scans_skip_emptied_leaves() {
        let mut t = BPlusTree::new(2); // tiny leaves: deletions empty them fast
        for k in 0..64u64 {
            t.insert(k, k);
        }
        for k in 10..40u64 {
            assert_eq!(t.remove(k), Some(k));
        }
        t.check_invariants().unwrap();
        let got: Vec<u64> = t.range(0, 63).map(|(k, _)| k).collect();
        let expect: Vec<u64> = (0..10u64).chain(40..64).collect();
        assert_eq!(got, expect);
        assert_eq!(t.get(20), None);
        assert_eq!(t.get(40), Some(&40));
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut t = BPlusTree::new(4);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        *t.get_mut(42).unwrap() = 777;
        assert_eq!(t.get(42), Some(&777));
        assert_eq!(t.get_mut(1000), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn fork_shares_pages_and_isolates_mutations() {
        let mut t = BPlusTree::new(4);
        for k in 0..512u64 {
            t.insert(k, k);
        }
        let snap = t.clone();
        // Mutate the original every way a batch can: the fork must keep
        // seeing the pre-fork state bit-for-bit.
        for k in 0..256u64 {
            t.remove(k * 2);
        }
        for k in 512..600u64 {
            t.insert(k, k);
        }
        *t.get_mut(511).unwrap() = 9999;
        t.check_invariants().unwrap();
        snap.check_invariants().unwrap();
        assert_eq!(snap.len(), 512);
        let got: Vec<u64> = snap.iter().map(|(k, _)| k).collect();
        let expect: Vec<u64> = (0..512).collect();
        assert_eq!(got, expect, "fork still sees every pre-fork key");
        assert_eq!(snap.get(511), Some(&511), "fork unaffected by get_mut");
        assert_eq!(t.get(511), Some(&9999));
        // And the reverse: mutating the fork leaves the original alone.
        let mut fork2 = t.clone();
        fork2.remove(511);
        assert_eq!(t.get(511), Some(&9999));
    }

    #[test]
    fn entry_guard_outlives_tree_mutation_and_drop() {
        let mut t = BPlusTree::new(4);
        for k in 0..128u64 {
            t.insert(k, k * 10);
        }
        let pin = t.get_pinned(42).unwrap();
        assert_eq!(*pin, 420);
        // Overwrite, delete, split around it: the pinned page is shared,
        // so copy-on-write must copy rather than edit it in place.
        *t.get_mut(42).unwrap() = 1;
        for k in 0..128u64 {
            t.insert(k, k);
        }
        t.remove(42);
        assert_eq!(*pin, 420, "pin still reads the pre-mutation value");
        drop(t);
        assert_eq!(*pin, 420, "pin outlives the tree entirely");
        assert!(t_missing_pin().is_none());
    }

    fn t_missing_pin() -> Option<EntryGuard<u64>> {
        let t: BPlusTree<u64> = BPlusTree::new(4);
        t.get_pinned(7)
    }

    #[test]
    fn range_outside_keyspace_is_empty() {
        let t = BPlusTree::bulk_load(vec![(10u64, ()), (20, ())], 4);
        assert_eq!(t.range(30, 40).count(), 0);
        assert_eq!(t.range(0, 5).count(), 0);
        assert_eq!(t.range(10, 20).count(), 2);
    }
}
