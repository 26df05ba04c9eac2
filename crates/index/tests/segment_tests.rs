//! Integration tests of the bulk-built [`SegmentTree`] durable format:
//! equivalence with the live [`BPlusTree`] over random key sets
//! (duplicates included), survival across reopen from the raw file,
//! rejection of unsorted input and oversized entries, corruption
//! detection through the per-page checksums, and rejection of crafted
//! pages whose checksums are valid but whose counts are not.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_index::{crc32, BPlusTree, FileStore, PageStore, SegmentTree, DEFAULT_NODE_CAPACITY};
use std::path::{Path, PathBuf};

/// A fresh per-test directory under cargo's target tmpdir (inside the
/// workspace, wiped with `target/`).
fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sorted random entries with duplicate runs; values encode insertion
/// order so duplicate ordering is checkable.
fn entries(seed: u64, count: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..count)
        .map(|_| rng.random_range(0..count as u64 / 2 + 1))
        .collect();
    keys.sort_unstable();
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, (k << 20) | i as u64))
        .collect()
}

fn build_segment(dir: &Path, name: &str, es: &[(u64, u64)]) -> SegmentTree<u64> {
    let store = FileStore::create(&dir.join(name), 256).unwrap();
    SegmentTree::build(store, 8, es.iter().copied()).unwrap()
}

#[test]
fn segment_matches_live_tree_on_gets_and_scans() {
    let dir = test_dir("segment-vs-live");
    for seed in [1u64, 7, 42] {
        let es = entries(seed, 600);
        let seg = build_segment(&dir, &format!("s{seed}.seg"), &es);
        let live = BPlusTree::bulk_load(es.clone(), DEFAULT_NODE_CAPACITY);
        assert_eq!(seg.len(), es.len() as u64);

        // Point gets return the newest duplicate, exactly like the tree.
        let max_key = es.last().unwrap().0;
        for key in 0..=max_key + 2 {
            assert_eq!(
                seg.get(key).unwrap(),
                live.get(key).copied(),
                "get({key}) seed {seed}"
            );
            assert_eq!(
                seg.count(key).unwrap() as usize,
                es.iter().filter(|&&(k, _)| k == key).count(),
                "count({key})"
            );
        }

        // Range scans emit identical entries in identical order
        // (oldest-to-newest within a duplicate run).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for _ in 0..40 {
            let a = rng.random_range(0..=max_key + 3);
            let b = rng.random_range(0..=max_key + 3);
            let (lo, hi) = (a.min(b), a.max(b));
            let mut from_seg = Vec::new();
            seg.scan(lo, hi, &mut |k, v, _| from_seg.push((k, *v)))
                .unwrap();
            let mut from_live = Vec::new();
            live.scan_range(lo, hi, &mut |_| {}, &mut |k, v| from_live.push((k, *v)));
            assert_eq!(from_seg, from_live, "scan [{lo}, {hi}] seed {seed}");
        }

        // `dup` indexes the duplicate run oldest-first.
        for &(k, _) in es.iter().take(50) {
            let run: Vec<u64> = es
                .iter()
                .filter(|&&(ek, _)| ek == k)
                .map(|&(_, v)| v)
                .collect();
            for (i, v) in run.iter().enumerate() {
                assert_eq!(seg.dup(k, i as u32).unwrap(), Some(*v), "dup({k}, {i})");
            }
            assert_eq!(seg.dup(k, run.len() as u32).unwrap(), None);
        }
    }
}

#[test]
fn segment_survives_reopen_from_the_raw_file() {
    let dir = test_dir("segment-reopen");
    let es = entries(9, 400);
    let path = dir.join("reopen.seg");
    {
        let store = FileStore::create(&path, 128).unwrap();
        let seg = SegmentTree::build(store, 4, es.iter().copied()).unwrap();
        assert_eq!(seg.len(), es.len() as u64);
        // Dropped here: only the bytes on disk survive.
    }
    let reopened = SegmentTree::open(FileStore::open(&path, 128).unwrap(), 4).unwrap();
    assert_eq!(reopened.len(), es.len() as u64);
    let mut streamed = Vec::new();
    reopened
        .stream(&mut |k, v: &u64, _| streamed.push((k, *v)))
        .unwrap();
    assert_eq!(streamed, es, "full stream equals the build input");
    // A tiny leaf cache still answers everything (just slower).
    let tiny = SegmentTree::open(FileStore::open(&path, 128).unwrap(), 1).unwrap();
    for &(k, _) in es.iter().step_by(17) {
        assert_eq!(tiny.get(k).unwrap(), reopened.get(k).unwrap());
    }
}

#[test]
fn scan_stats_report_real_io_and_cache_hits() {
    let dir = test_dir("segment-stats");
    let es: Vec<(u64, u64)> = (0..2000u64).map(|k| (k, k * 3)).collect();
    let seg = build_segment(&dir, "stats.seg", &es);
    let cold = seg.scan(0, 1999, &mut |_, _, _| {}).unwrap();
    assert!(cold.pages > 1, "dataset spans pages");
    assert!(cold.real_reads > 0, "cold scan touches the medium");
    // The full scan left the trailing leaves resident in the (8-page)
    // pool, so a small head scan is cold again but repeating it is warm.
    let first = seg.scan(0, 50, &mut |_, _, _| {}).unwrap();
    let warm_small = seg.scan(0, 50, &mut |_, _, _| {}).unwrap();
    // `pages`/`real_reads` count store fetches; warmed leaves show up as
    // `cache_hits` instead.
    assert_eq!(warm_small.real_reads, 0, "warm rescan: {warm_small:?}");
    assert_eq!(
        warm_small.cache_hits,
        first.pages + first.cache_hits,
        "every leaf of the repeat scan is resident"
    );
    // The store's own counters are the ground truth the stats mirror.
    assert!(seg.store().stats().reads >= cold.real_reads);
}

#[test]
fn build_rejects_unsorted_input() {
    let dir = test_dir("segment-unsorted");
    let store = FileStore::create(&dir.join("unsorted.seg"), 128).unwrap();
    let err = SegmentTree::build(store, 4, vec![(5u64, 0u64), (1, 1)]).unwrap_err();
    assert!(
        err.to_string().contains("not sorted"),
        "unexpected error: {err}"
    );
    // Equal keys are fine (duplicates), strictly descending is not.
    let store = FileStore::create(&dir.join("dups.seg"), 128).unwrap();
    SegmentTree::build(store, 4, vec![(1u64, 0u64), (1, 1), (2, 2)]).unwrap();
}

#[test]
fn build_rejects_entries_larger_than_a_page() {
    let dir = test_dir("segment-oversized");
    let store = FileStore::create(&dir.join("big.seg"), 64).unwrap();
    let huge = vec![0u8; 200];
    let err = SegmentTree::build(store, 4, vec![(1u64, huge)]).unwrap_err();
    assert!(err.to_string().contains("page"), "unexpected error: {err}");
}

#[test]
fn empty_segment_round_trips() {
    let dir = test_dir("segment-empty");
    let path = dir.join("empty.seg");
    let seg: SegmentTree<u64> =
        SegmentTree::build(FileStore::create(&path, 128).unwrap(), 4, Vec::new()).unwrap();
    assert!(seg.is_empty());
    assert_eq!(seg.get(0).unwrap(), None);
    let stats = seg.scan(0, u64::MAX, &mut |_, _, _| {}).unwrap();
    assert_eq!(stats.pages, 0);
    let reopened: SegmentTree<u64> =
        SegmentTree::open(FileStore::open(&path, 128).unwrap(), 4).unwrap();
    assert!(reopened.is_empty());
}

#[test]
fn corrupted_leaf_page_is_detected_by_its_checksum() {
    let dir = test_dir("segment-corrupt");
    let es = entries(3, 300);
    let path = dir.join("corrupt.seg");
    {
        let store = FileStore::create(&path, 128).unwrap();
        SegmentTree::build(store, 4, es.iter().copied()).unwrap();
    }
    // Flip one byte inside the first leaf page (page 1; page 0 is the
    // header).
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(128 + 40)).unwrap();
        f.write_all(&[0xFF]).unwrap();
    }
    // Open succeeds (it validates the header and fence pages eagerly);
    // the leaf checksum fires on first read of the damaged page.
    let seg = SegmentTree::<u64>::open(FileStore::open(&path, 128).unwrap(), 4).unwrap();
    let err = seg
        .scan(0, u64::MAX, &mut |_, _, _| {})
        .expect_err("scan crosses the flipped byte");
    assert!(
        err.to_string().contains("checksum"),
        "unexpected error: {err}"
    );
    // Point reads of the damaged leaf fail the same way.
    assert!(seg.get(es[0].0).is_err());
}

#[test]
fn wrong_magic_and_page_size_are_rejected_on_open() {
    let dir = test_dir("segment-magic");
    let path = dir.join("magic.seg");
    {
        let store = FileStore::create(&path, 128).unwrap();
        SegmentTree::build(store, 4, vec![(1u64, 2u64)]).unwrap();
    }
    // Opening with a mismatched page size shreds the header layout.
    assert!(SegmentTree::<u64>::open(FileStore::open(&path, 256).unwrap(), 4).is_err());
    // A non-segment file is rejected outright.
    let junk = dir.join("junk.seg");
    std::fs::write(&junk, vec![0u8; 512]).unwrap();
    assert!(SegmentTree::<u64>::open(FileStore::open(&junk, 128).unwrap(), 4).is_err());
}

/// Overwrites bytes of one page of a segment file at `at` and re-seals
/// the page's checksum (the header's over bytes 8..36, a leaf or fence
/// page's over everything after it), so only a bounds check on the
/// crafted count can reject the page.
fn craft_page(path: &Path, page_size: usize, page: u64, at: usize, bytes: &[u8]) {
    let mut file = std::fs::read(path).unwrap();
    let start = page as usize * page_size;
    let p = &mut file[start..start + page_size];
    p[at..at + bytes.len()].copy_from_slice(bytes);
    if page == 0 {
        let crc = crc32(&p[8..36]);
        p[36..40].copy_from_slice(&crc.to_le_bytes());
    } else {
        let crc = crc32(&p[4..]);
        p[..4].copy_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(path, file).unwrap();
}

#[test]
fn crafted_counts_are_rejected_without_panicking_or_over_allocating() {
    let dir = test_dir("segment-crafted");
    let es: Vec<(u64, u64)> = (0..20u64).map(|k| (k, k * 7)).collect();
    let pristine = dir.join("pristine.seg");
    {
        let store = FileStore::create(&pristine, 128).unwrap();
        SegmentTree::build(store, 4, es.iter().copied()).unwrap();
    }
    // 20-byte entries: 6 per 128-byte leaf, so 4 leaves (pages 1..=4) and
    // one fence page (page 5) behind the header.
    let fresh = |name: &str| {
        let path = dir.join(name);
        std::fs::copy(&pristine, &path).unwrap();
        path
    };
    let open = |path: &Path| SegmentTree::<u64>::open(FileStore::open(path, 128).unwrap(), 4);
    assert_eq!(open(&pristine).unwrap().len(), 20);

    // A fence page claiming more keys than it holds.
    let path = fresh("fence-count.seg");
    craft_page(&path, 128, 5, 4, &1000u32.to_le_bytes());
    assert!(open(&path).is_err(), "fence count past the page");

    // A header claiming more leaves than the file holds.
    let path = fresh("leaf-count.seg");
    craft_page(&path, 128, 0, 12, &(u64::MAX / 4).to_le_bytes());
    assert!(open(&path).is_err(), "leaf count past the store");

    // A leaf count whose sum with the header and fence pages overflows.
    let path = fresh("leaf-count-overflow.seg");
    craft_page(&path, 128, 0, 12, &u64::MAX.to_le_bytes());
    assert!(open(&path).is_err(), "page count sum overflows");

    // A leaf claiming u32::MAX entries: open reads no leaf, so reads of
    // that leaf must fail before sizing a buffer by the count.
    let path = fresh("entry-count.seg");
    craft_page(&path, 128, 1, 4, &u32::MAX.to_le_bytes());
    let seg = open(&path).unwrap();
    assert!(seg.scan(0, u64::MAX, &mut |_, _, _| {}).is_err());
    assert!(seg.get(0).is_err());
}

#[test]
fn page_sizes_below_the_header_are_rejected_with_a_typed_error() {
    let dir = test_dir("segment-tiny-pages");
    let es: Vec<(u64, u64)> = (0..10u64).map(|k| (k, k)).collect();
    let is_page_size_error = |err: &onion_core::SfcError, size: usize| {
        matches!(err, onion_core::SfcError::Storage { context }
            if context.contains(&format!("page size {size}")) && context.contains("40-byte"))
    };
    // Build writes a 40-byte header page, so anything smaller is refused
    // before a byte is written.
    for size in [24usize, 32, 39] {
        let store = FileStore::create(&dir.join(format!("build{size}.seg")), size).unwrap();
        let err = SegmentTree::build(store, 4, es.iter().copied()).unwrap_err();
        assert!(is_page_size_error(&err, size), "build at {size}: {err}");
    }
    // Opening a valid segment with a caller page size below the header
    // is refused before the header is read.
    let path = dir.join("valid.seg");
    SegmentTree::build(
        FileStore::create(&path, 128).unwrap(),
        4,
        es.iter().copied(),
    )
    .unwrap();
    for size in [8usize, 11] {
        let err = SegmentTree::<u64>::open(FileStore::open(&path, size).unwrap(), 4).unwrap_err();
        assert!(is_page_size_error(&err, size), "open at {size}: {err}");
    }
    // The header size itself still builds and round-trips (one entry per
    // leaf at 40 bytes: an 8-byte page header plus a 20-byte entry).
    let path = dir.join("min.seg");
    SegmentTree::build(FileStore::create(&path, 40).unwrap(), 4, es.iter().copied()).unwrap();
    let reopened = SegmentTree::<u64>::open(FileStore::open(&path, 40).unwrap(), 4).unwrap();
    let mut streamed = Vec::new();
    reopened
        .stream(&mut |k, v: &u64, _| streamed.push((k, *v)))
        .unwrap();
    assert_eq!(streamed, es);
}
