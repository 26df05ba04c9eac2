//! The segment leaf cache keeps each decoded leaf in the buffer-pool slot
//! that holds its page, and a miss reuses the evicted leaf's buffers.
//! These tests pin what that must not change: readers on a tiny pool,
//! where slots are reassigned while other readers hold leaves and while
//! reads are in flight, get every answer right (random concurrent reads,
//! and each of those two interleavings forced); and a failed read fails
//! its scan, leaves its slot empty, and is read again by the next access.

use onion_core::SfcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_index::{FileStore, PageStore, SegmentTree, StoreStats};
use sfc_workloads::{Fault, FaultInjector, FaultStore};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Each key's stored values, oldest first, built from the input entries:
/// the reference every read through the cache is checked against.
struct Model(BTreeMap<u64, Vec<u64>>);

impl Model {
    fn new(entries: &[(u64, u64)]) -> Self {
        let mut copies: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(k, v) in entries {
            copies.entry(k).or_default().push(v);
        }
        Model(copies)
    }

    fn copies(&self, key: u64) -> &[u64] {
        self.0.get(&key).map_or(&[], Vec::as_slice)
    }

    /// `(key, value, dup_idx)` of every entry in `lo..=hi`, in scan order.
    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, u64, u32)> {
        self.0
            .range(lo..=hi)
            .flat_map(|(&k, vs)| vs.iter().enumerate().map(move |(i, &v)| (k, v, i as u32)))
            .collect()
    }
}

#[test]
fn concurrent_readers_on_a_two_page_pool_read_what_was_stored() {
    let dir = test_dir("leaf-cache-concurrent");
    // 1 500 entries over 600 keys: duplicate runs, some crossing leaves
    // of 6 entries (128-byte pages), ~250 leaves behind 2 slots.
    let mut rng = StdRng::seed_from_u64(0x1EAF);
    let mut keys: Vec<u64> = (0..1500).map(|_| rng.random_range(0..600u64)).collect();
    keys.sort_unstable();
    let entries: Vec<(u64, u64)> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, (k << 20) | i as u64))
        .collect();
    let model = Model::new(&entries);
    let seg: SegmentTree<u64> = SegmentTree::build(
        FileStore::create(&dir.join("shared.seg"), 128).unwrap(),
        2,
        entries.iter().copied(),
    )
    .unwrap();
    let start = Barrier::new(4);
    let (seg, model, start) = (&seg, &model, &start);
    std::thread::scope(|s| {
        for thread in 0..4u64 {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(thread);
                start.wait();
                for step in 0..20_000 {
                    // Three reads in four land on a hot window of a few
                    // leaves, so threads hit, miss and evict the same
                    // pages at once; the rest roam the whole segment.
                    let key = if rng.random_bool(0.75) {
                        300 + rng.random_range(0..12u64)
                    } else {
                        rng.random_range(0..602u64)
                    };
                    let copies = model.copies(key);
                    match rng.random_range(0..4u32) {
                        0 => {
                            let hi = key + rng.random_range(0..16u64);
                            let mut got = Vec::new();
                            seg.scan(key, hi, &mut |k, &v, d| got.push((k, v, d)))
                                .unwrap();
                            assert_eq!(got, model.scan(key, hi), "scan {key}..={hi}");
                        }
                        1 => assert_eq!(seg.get(key).unwrap(), copies.last().copied()),
                        2 => assert_eq!(seg.count(key).unwrap() as usize, copies.len()),
                        _ => {
                            let idx = rng.random_range(0..=copies.len());
                            assert_eq!(
                                seg.dup(key, idx as u32).unwrap(),
                                copies.get(idx).copied(),
                                "thread {thread} step {step}: dup({key}, {idx})"
                            );
                        }
                    }
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_short_read_fails_its_scan_and_the_next_access_reads_again() {
    let dir = test_dir("leaf-cache-short-read");
    let entries: Vec<(u64, u64)> = (0..60u64).map(|k| (k, k * 7)).collect();
    let injector = FaultInjector::new();
    // 128-byte pages hold 6 entries: leaf i holds keys 6i..=6i+5.
    let seg: SegmentTree<u64, _> = SegmentTree::build(
        FaultStore::new(
            FileStore::create(&dir.join("faulty.seg"), 128).unwrap(),
            Arc::clone(&injector),
        ),
        2,
        entries.iter().copied(),
    )
    .unwrap();
    // Keys 6i+1..=6i+5 lie in leaf i alone (a scan from 6i would start
    // one leaf early, where older copies of 6i could end).
    let scan_leaf = |leaf: u64| {
        let mut got = Vec::new();
        seg.scan(6 * leaf + 1, 6 * leaf + 5, &mut |k, &v, _| got.push((k, v)))
            .map(|io| {
                let want: Vec<(u64, u64)> =
                    (6 * leaf + 1..=6 * leaf + 5).map(|k| (k, k * 7)).collect();
                assert_eq!(got, want, "leaf {leaf}");
                (io.real_reads, io.cache_hits)
            })
    };
    assert_eq!(scan_leaf(0).unwrap(), (1, 0));
    assert_eq!(scan_leaf(1).unwrap(), (1, 0));

    // Leaf 2's miss takes leaf 0's slot, and its read is struck.
    injector.schedule(injector.op_count(), Fault::ShortRead);
    let err = scan_leaf(2).expect_err("the struck read must fail the scan");
    assert!(
        matches!(err, SfcError::Storage { .. }),
        "unexpected error: {err}"
    );
    assert_eq!(injector.injected(), 1);

    // The slot was left empty: the next access reads leaf 2 again.
    assert_eq!(scan_leaf(2).unwrap(), (1, 0), "re-read after the failure");
    assert_eq!(scan_leaf(2).unwrap(), (0, 1), "then served from its slot");
    assert_eq!(scan_leaf(1).unwrap(), (0, 1), "leaf 1 kept its slot");
    assert_eq!(scan_leaf(0).unwrap(), (1, 0), "leaf 0 was evicted");
    drop(seg);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A gated page: its next read announces itself on the sender, then
/// waits on the receiver.
type Gate = (u64, Sender<()>, Receiver<()>);

/// A [`FileStore`] that can hold one read of one page in flight.
struct GatedStore {
    inner: FileStore,
    gate: Mutex<Option<Gate>>,
}

impl PageStore for GatedStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn read_page(&self, page: u64, buf: &mut [u8]) -> io::Result<()> {
        let gate = {
            let mut gate = self.gate.lock().unwrap();
            match *gate {
                Some((gated, ..)) if gated == page => gate.take(),
                _ => None,
            }
        };
        if let Some((_, entered, release)) = gate {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_page(page, buf)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }

    fn path(&self) -> PathBuf {
        self.inner.path()
    }

    fn publish(&self, to: &Path) -> io::Result<()> {
        self.inner.publish(to)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn slots_reassigned_under_a_held_leaf_and_an_in_flight_read_stay_right() {
    let dir = test_dir("leaf-cache-interleavings");
    let entries: Vec<(u64, u64)> = (0..60u64).map(|k| (k, k * 7)).collect();
    // 128-byte pages hold 6 entries: leaf i holds keys 6i..=6i+5, and
    // lives in store page i + 1 (page 0 is the header).
    let seg = SegmentTree::build(
        GatedStore {
            inner: FileStore::create(&dir.join("gated.seg"), 128).unwrap(),
            gate: Mutex::new(None),
        },
        2,
        entries.iter().copied(),
    )
    .unwrap();
    let get = |key: u64| seg.get(key).unwrap();

    // A scan holds leaf 0 while its visitor reads leaves 2..=5 through
    // the 2-slot pool: leaf 0's slot is reassigned under the held leaf,
    // whose entries must not change.
    let mut seen = Vec::new();
    seg.scan(1, 5, &mut |k, &v, _| {
        seen.push((k, v));
        for leaf in 2..=5 {
            assert_eq!(get(6 * leaf + 1), Some((6 * leaf + 1) * 7));
        }
    })
    .unwrap();
    let want: Vec<(u64, u64)> = (1..=5).map(|k| (k, k * 7)).collect();
    assert_eq!(seen, want);

    // Hold leaf 7's read in flight. Meanwhile another reader misses on
    // it again (its slot is still empty) and then leaves 8 and 9 evict
    // it, so its slot belongs to leaf 9 when the held read finishes.
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    *seg.store().gate.lock().unwrap() = Some((8, entered_tx, release_rx));
    std::thread::scope(|s| {
        // Owned here, so a failed assertion drops it and frees the held
        // reader instead of hanging the scope's join.
        let release = release;
        let held = s.spawn(|| get(43));
        entered.recv().unwrap();
        assert_eq!(get(44), Some(44 * 7), "a read beside the in-flight one");
        assert_eq!(get(49), Some(49 * 7));
        assert_eq!(get(55), Some(55 * 7));
        release.send(()).unwrap();
        assert_eq!(held.join().unwrap(), Some(43 * 7));
    });
    // Leaves 8 and 9 are resident, and the held read must not have
    // filled either slot with leaf 7.
    for key in 48..60u64 {
        assert_eq!(get(key), Some(key * 7), "resident get({key})");
    }
    for key in 0..62u64 {
        assert_eq!(get(key), (key < 60).then_some(key * 7), "get({key})");
    }
    drop(seg);
    let _ = std::fs::remove_dir_all(&dir);
}
