//! Durability-layer round trips at the index level: WAL framing against
//! byte-level damage, snapshot round trips across backends and shard
//! counts, and the persist/restore hooks feeding them.

use onion_core::{Onion2D, Point, SfcError};
use sfc_clustering::RectQuery;
use sfc_index::{
    read_snapshot, write_snapshot, BatchOp, DiskModel, QueryOptions, Record, ShardedTable,
    StoreConfig, Wal, WAL_MAGIC,
};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_ops(n: u64) -> Vec<BatchOp<2, u64>> {
    (0..n)
        .map(|i| {
            let p = Point::new([(i % 13) as u32, (i % 7) as u32]);
            match i % 3 {
                0 => BatchOp::Insert(p, i),
                1 => BatchOp::Update(p, i * 10),
                _ => BatchOp::Delete(p),
            }
        })
        .collect()
}

#[test]
fn wal_replays_epochs_in_order_and_continues_appending() {
    let dir = test_dir("wal-replay");
    let path = dir.join("wal.log");
    let (mut wal, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert!(frames.is_empty());
    assert!(wal.is_empty());
    wal.append_epoch(1, &sample_ops(5)).unwrap();
    wal.append_epoch(2, &sample_ops(3)).unwrap();
    assert_eq!(wal.last_epoch(), 2);
    drop(wal);

    // Reopen, replay, and keep committing — numbering carries on.
    let (mut wal, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 2);
    assert_eq!((frames[0].epoch, frames[1].epoch), (1, 2));
    assert_eq!(frames[0].ops, sample_ops(5));
    assert_eq!(frames[1].ops, sample_ops(3));
    wal.append_epoch(3, &sample_ops(1)).unwrap();
    drop(wal);
    let (_, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_is_truncated_and_overwritten_by_the_next_commit() {
    let dir = test_dir("wal-torn");
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open::<2, u64>(&path).unwrap();
    wal.append_epoch(1, &sample_ops(4)).unwrap();
    let committed = wal.len();
    wal.append_epoch(2, &sample_ops(4)).unwrap();
    drop(wal);

    // Tear the second frame a few bytes past its header.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(committed + 5).unwrap();
    drop(file);

    let (mut wal, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 1, "the torn frame is gone");
    assert_eq!(wal.len(), committed, "valid prefix ends before the tear");
    // Truncation is lazy: a read-only open leaves the damaged bytes on
    // disk for inspection...
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        committed + 5,
        "read-only opens preserve the torn tail"
    );
    // ...and the first append cuts them off before writing; epoch 2 can
    // be recommitted immediately.
    wal.append_epoch(2, &sample_ops(2)).unwrap();
    drop(wal);
    let (_, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[1].ops, sample_ops(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn frame_header_damage_stops_replay_but_destroys_nothing_on_open() {
    // A frame *header* (len/crc) is the one region no checksum vouches
    // for: damage there strands every later frame. Replay must stop at
    // the damage — prefix semantics — while a read-only open leaves the
    // stranded (intact!) frames on disk rather than truncating them.
    let dir = test_dir("wal-header-damage");
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open::<2, u64>(&path).unwrap();
    wal.append_epoch(1, &sample_ops(4)).unwrap();
    let first_end = wal.len();
    wal.append_epoch(2, &sample_ops(4)).unwrap();
    wal.append_epoch(3, &sample_ops(4)).unwrap();
    drop(wal);

    let mut bytes = std::fs::read(&path).unwrap();
    bytes[first_end as usize] ^= 0x10; // frame 2's length field
    std::fs::write(&path, &bytes).unwrap();

    let (wal, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 1, "replay stops at the damaged header");
    assert_eq!(wal.len(), first_end);
    drop(wal);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "no byte was destroyed by opening — frames 2 and 3 remain for repair"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rereads_refuse_a_damaged_committed_frame() {
    // `read_frames` re-reads the committed prefix of a live log (the
    // time-travel fallback's source). Every byte of that prefix was
    // committed, so a frame failing its checksum is damage: it must be
    // reported, never decoded into a wrong value.
    let dir = test_dir("wal-reread-damage");
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open::<2, u64>(&path).unwrap();
    wal.append_epoch(1, &sample_ops(3)).unwrap();
    wal.append_epoch(2, &sample_ops(3)).unwrap();
    assert_eq!(wal.read_frames::<2, u64>().unwrap().len(), 2);

    // Epoch 1's first op is `Insert([0, 0], 0)`: its value sits after
    // the magic, the frame header (len, crc), the epoch, the op count,
    // the op tag and the point. Flip one of its bytes through a second
    // handle, as a media fault would.
    let value_at = WAL_MAGIC.len() + 8 + 8 + 4 + 1 + 2 * 4;
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(value_at as u64)).unwrap();
    file.read_exact(&mut byte).unwrap();
    assert_eq!(byte[0], 0, "the first op's value is 0");
    file.seek(SeekFrom::Start(value_at as u64)).unwrap();
    file.write_all(&[byte[0] ^ 0x40]).unwrap();
    drop(file);

    let err = wal.read_frames::<2, u64>().unwrap_err();
    assert!(matches!(err, SfcError::Storage { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_files_are_refused_not_truncated() {
    let dir = test_dir("wal-foreign");
    let path = dir.join("wal.log");
    std::fs::write(&path, b"definitely not a WAL, but 8+ bytes long").unwrap();
    let err = Wal::open::<2, u64>(&path).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");
    // The file was left alone.
    assert!(std::fs::read(&path).unwrap().starts_with(b"definitely"));
    // A file shorter than the magic is fair game: it cannot hold data.
    let stub = dir.join("stub.log");
    std::fs::write(&stub, &WAL_MAGIC[..3]).unwrap();
    let (wal, frames) = Wal::open::<2, u64>(&stub).unwrap();
    assert!(frames.is_empty());
    assert!(wal.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_logs_are_locked_against_second_openers() {
    let dir = test_dir("wal-lock");
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open::<2, u64>(&path).unwrap();
    wal.append_epoch(1, &sample_ops(2)).unwrap();
    // A second engine (same or another process) must be refused while
    // the first is serving — silent interleaved appends would corrupt
    // fsync-acknowledged frames.
    let err = Wal::open::<2, u64>(&path).unwrap_err();
    assert!(err.to_string().contains("locking WAL"), "{err}");
    drop(wal); // releases the OS lock (as would a crash)
    let (_, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 1, "nothing was lost to the refused opener");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mistyped_opens_error_instead_of_truncating() {
    let dir = test_dir("wal-mistyped");
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open::<2, String>(&path).unwrap();
    wal.append_epoch(
        1,
        &[BatchOp::Insert(Point::new([1, 2]), "hello".to_string())],
    )
    .unwrap();
    drop(wal);
    // The frame is intact (CRC passes) but holds Strings, not u64s:
    // that is a caller mistake, not a torn tail — refuse, don't destroy.
    let before = std::fs::read(&path).unwrap();
    let err = Wal::open::<2, u64>(&path).unwrap_err();
    assert!(err.to_string().contains("does not decode"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
    // The right type still replays everything.
    let (_, frames) = Wal::open::<2, String>(&path).unwrap();
    assert_eq!(frames.len(), 1);
    assert_eq!(
        frames[0].ops,
        vec![BatchOp::Insert(Point::new([1, 2]), "hello".to_string())]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rollback_last_uncommits_exactly_one_frame() {
    let dir = test_dir("wal-rollback");
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open::<2, u64>(&path).unwrap();
    wal.append_epoch(1, &sample_ops(3)).unwrap();
    let len_after_first = wal.len();
    wal.append_epoch(2, &sample_ops(5)).unwrap();
    wal.rollback_last().unwrap();
    assert_eq!(wal.len(), len_after_first);
    assert_eq!(wal.last_epoch(), 1);
    // Only the most recent append is undoable; a second undo errors.
    assert!(wal.rollback_last().is_err());
    // Epoch 2 can now be recommitted with different contents.
    wal.append_epoch(2, &sample_ops(1)).unwrap();
    drop(wal);
    let (_, frames) = Wal::open::<2, u64>(&path).unwrap();
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[1].ops, sample_ops(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[should_panic(expected = "strictly increasing")]
fn non_monotonic_epochs_are_rejected() {
    let dir = test_dir("wal-monotonic");
    let (mut wal, _) = Wal::open::<2, u64>(&dir.join("wal.log")).unwrap();
    wal.append_epoch(5, &sample_ops(1)).unwrap();
    let _ = wal.append_epoch(5, &sample_ops(1));
}

fn dense_table(side: u32, shards: usize) -> ShardedTable<Onion2D, u64, 2> {
    let records: Vec<(Point<2>, u64)> = (0..side)
        .flat_map(|x| (0..side).map(move |y| (Point::new([x, y]), u64::from(x * 100 + y))))
        .collect();
    ShardedTable::build(
        Onion2D::new(side).unwrap(),
        records,
        DiskModel::ssd(),
        shards,
    )
    .unwrap()
}

#[test]
fn snapshot_round_trips_across_shard_counts_and_backends() {
    let dir = test_dir("snapshot-roundtrip");
    let side = 16u32;
    let source = dense_table(side, 3);
    // Mutate through the batch path so the snapshot sees a lived-in
    // table (duplicates included).
    source
        .apply_batch(vec![
            BatchOp::Insert(Point::new([2, 2]), 999),
            BatchOp::Delete(Point::new([5, 5])),
            BatchOp::Update(Point::new([7, 7]), 42),
        ])
        .unwrap();
    let path = dir.join("snapshot.bin");
    write_snapshot(&path, 17, &source).unwrap();

    let (epoch, entries) = read_snapshot::<2, u64>(&path).unwrap().unwrap();
    assert_eq!(epoch, 17);
    assert_eq!(entries.len(), source.len());
    assert!(
        entries.windows(2).all(|w| w[0].0 <= w[1].0),
        "snapshot entries arrive in curve order"
    );

    let queries = [
        RectQuery::new([0, 0], [side, side]).unwrap(),
        RectQuery::new([1, 1], [9, 6]).unwrap(),
    ];
    let reference: Vec<Vec<Record<2, u64>>> = queries
        .iter()
        .map(|q| {
            source
                .query_rect(q, &QueryOptions::default())
                .unwrap()
                .records
        })
        .collect();
    // Restore into different shard counts and the file-backed backend:
    // same records, same order, every time.
    for shards in [1usize, 2, 5] {
        let target: ShardedTable<Onion2D, u64, 2> = ShardedTable::build(
            Onion2D::new(side).unwrap(),
            Vec::new(),
            DiskModel::ssd(),
            shards,
        )
        .unwrap();
        target.restore_entries(entries.clone()).unwrap();
        assert_eq!(target.len(), source.len(), "{shards} shards");
        for (q, expect) in queries.iter().zip(&reference) {
            assert_eq!(
                &target
                    .query_rect(q, &QueryOptions::default())
                    .unwrap()
                    .records,
                expect,
                "{shards} shards"
            );
        }
    }
    let stored = ShardedTable::build_stored(
        Onion2D::new(side).unwrap(),
        Vec::new(),
        DiskModel::ssd(),
        2,
        &dir.join("segments"),
        StoreConfig::default(),
    )
    .unwrap();
    stored.restore_entries(entries).unwrap();
    for (q, expect) in queries.iter().zip(&reference) {
        assert_eq!(
            &stored
                .query_rect(q, &QueryOptions::default())
                .unwrap()
                .records,
            expect,
            "stored"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_snapshots_are_reported_not_applied() {
    let dir = test_dir("snapshot-corrupt");
    let path = dir.join("snapshot.bin");
    assert!(
        read_snapshot::<2, u64>(&path).unwrap().is_none(),
        "missing is fine"
    );
    write_snapshot(&path, 1, &dense_table(8, 2)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let err = read_snapshot::<2, u64>(&path).unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restore_rejects_keys_outside_the_universe() {
    let table: ShardedTable<Onion2D, u64, 2> =
        ShardedTable::build(Onion2D::new(4).unwrap(), Vec::new(), DiskModel::ssd(), 2).unwrap();
    let bogus = vec![(
        999u64, // 4x4 universe has 16 cells
        Record {
            point: Point::new([0, 0]),
            value: 1u64,
        },
    )];
    assert!(table.restore_entries(bogus).is_err());
    assert!(table.is_empty(), "nothing applied");
    // Unsorted entries are a reportable error too (never a panic — a
    // durable engine's open must be able to surface them).
    let rec = |x: u32, v: u64| Record {
        point: Point::new([x, 0]),
        value: v,
    };
    let unsorted = vec![(9u64, rec(1, 1)), (3u64, rec(2, 2))];
    let err = table.restore_entries(unsorted).unwrap_err();
    assert!(err.to_string().contains("curve-key order"), "{err}");
    assert!(table.is_empty(), "nothing applied");
}
