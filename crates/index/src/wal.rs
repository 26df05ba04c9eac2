//! Durability: an epoch-framed write-ahead log and point-in-time
//! snapshots of table contents in curve order.
//!
//! The serving layer (`sfc-engine`) applies writes in *epochs* — batches
//! sorted into curve-key order and pushed through
//! [`ShardedTable::apply_batch`](crate::ShardedTable::apply_batch). That
//! batch is exactly the right unit of logging: this module persists each
//! epoch as one checksummed frame, appended in epoch order (singly and
//! synced, or in batched groups the serving layer's commit pipeline
//! syncs once), so a crash at any instant loses at most the writes of
//! epochs that were never acknowledged as flushed — what survives is
//! always an epoch-boundary prefix. Recovery is `snapshot + WAL suffix`:
//! restore the last snapshot (entries in global curve order, sectioned by
//! the writing table's [`partition_universe`](crate::partition_universe)
//! partitions), then re-apply every WAL frame with a later epoch.
//!
//! ## On-disk formats
//!
//! Both files start with an 8-byte magic. Integers are little-endian.
//!
//! **WAL** (`SFCWAL01`): a sequence of frames, each
//! `[payload_len: u32][crc32(payload): u32][payload]` with
//! `payload = [epoch: u64][op_count: u32][ops…]`. Epochs are strictly
//! increasing. The trailing frame of a crashed process may be *torn*
//! (short or checksum-mismatched): replay stops at the first invalid
//! frame and truncates the file there, so the recovered state is always
//! a prefix of fully committed epochs — never a half-applied one. A
//! re-read of the committed prefix ([`Wal::read_frames`]) walks the
//! frames the same way, checksums included, and reports a damaged frame
//! as an error instead of decoding it.
//!
//! **Snapshot** (`SFCSNP01`): `[crc32(body): u32][body]` with
//! `body = [epoch: u64][shard_count: u32]` followed by one section per
//! shard: `[partition lo: u64][hi: u64][entry_count: u64][entries…]`,
//! each entry `[key: u64][point][value]`. Sections are written in shard
//! order, so concatenating them yields the whole table in curve-key
//! order — which is why a snapshot taken at one shard count restores
//! cleanly into any other ([`ShardedTable::restore_entries`]
//! re-partitions). Snapshots are written to a temporary file and
//! `rename`d into place, so a crash mid-snapshot leaves the previous
//! snapshot intact.
//!
//! Values cross the disk boundary through [`WalCodec`], a minimal
//! explicit byte codec (no serde — the workspace is dependency-free);
//! implementations ship for the integer primitives, `bool`, `String`,
//! `Vec<u8>`, `f64`, and the spatial types ([`Point`], [`Record`],
//! [`BatchOp`]).
//!
//! ```
//! use sfc_index::{BatchOp, Wal};
//! use onion_core::Point;
//!
//! let dir = std::env::temp_dir().join(format!("sfc-wal-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("wal.log");
//! # let _ = std::fs::remove_file(&path);
//!
//! // Commit two epochs, "crash" (drop), and replay them back.
//! let (mut wal, replayed) = Wal::open::<2, u64>(&path).unwrap();
//! assert!(replayed.is_empty());
//! wal.append_epoch(1, &[BatchOp::Insert(Point::new([1, 2]), 10u64)]).unwrap();
//! wal.append_epoch(2, &[BatchOp::<2, u64>::Delete(Point::new([1, 2]))]).unwrap();
//! drop(wal);
//!
//! let (_wal, replayed) = Wal::open::<2, u64>(&path).unwrap();
//! assert_eq!(replayed.len(), 2);
//! assert_eq!(replayed[0].epoch, 1);
//! assert_eq!(replayed[0].ops, vec![BatchOp::Insert(Point::new([1, 2]), 10u64)]);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::backend::Backend;
use crate::checksum::crc32;
use crate::plan::QueryPlan;
use crate::shard::{BatchOp, ShardedTable};
use crate::table::Record;
use onion_core::{Point, SfcError, SpaceFillingCurve};
use sfc_clustering::RectQuery;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a WAL file (format version 01).
pub const WAL_MAGIC: [u8; 8] = *b"SFCWAL01";
/// Magic bytes opening a snapshot file (format version 01).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SFCSNP01";

// ---------------------------------------------------------------------------
// Value codec
// ---------------------------------------------------------------------------

/// A bounded read cursor over a decoded frame's bytes. Every read is
/// checked: running off the end yields `None`, which the replay path
/// treats as a torn/corrupt frame.
pub struct WalCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> WalCursor<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        WalCursor { bytes, at: 0 }
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// Byte codec for values crossing the durability boundary (WAL frames and
/// snapshot entries).
///
/// The contract is the usual round-trip law: `decode(encode(v)) == v`,
/// with `decode` consuming exactly the bytes `encode` produced. `decode`
/// returns `None` on malformed input (replay treats that as a torn
/// frame). Implementations ship for the integer primitives, `bool`,
/// `f64`, `String`, `Vec<u8>`, and the spatial types; applications
/// implement it for their own payload types to use the durable engine.
pub trait WalCodec: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one value, consuming exactly its encoding from the cursor.
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self>;
}

macro_rules! impl_wal_codec_int {
    ($($t:ty),*) => {$(
        impl WalCodec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
                Some(<$t>::from_le_bytes(
                    cur.take(std::mem::size_of::<$t>())?.try_into().ok()?,
                ))
            }
        }
    )*};
}

impl_wal_codec_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl WalCodec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        match cur.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl WalCodec for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        Some(f64::from_bits(cur.u64()?))
    }
}

impl WalCodec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_cur: &mut WalCursor<'_>) -> Option<Self> {
        Some(())
    }
}

impl WalCodec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self);
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        let len = cur.u32()? as usize;
        Some(cur.take(len)?.to_vec())
    }
}

impl WalCodec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        let len = cur.u32()? as usize;
        String::from_utf8(cur.take(len)?.to_vec()).ok()
    }
}

impl<const D: usize> WalCodec for Point<D> {
    fn encode(&self, buf: &mut Vec<u8>) {
        for c in self.0 {
            c.encode(buf);
        }
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        let mut coords = [0u32; D];
        for c in &mut coords {
            *c = cur.u32()?;
        }
        Some(Point::new(coords))
    }
}

impl<const D: usize, V: WalCodec> WalCodec for Record<D, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.point.encode(buf);
        self.value.encode(buf);
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        Some(Record {
            point: Point::decode(cur)?,
            value: V::decode(cur)?,
        })
    }
}

/// Op tags of the WAL frame encoding (one byte per op).
const OP_INSERT: u8 = 0;
const OP_UPDATE: u8 = 1;
const OP_DELETE: u8 = 2;

impl<const D: usize, V: WalCodec> WalCodec for BatchOp<D, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            BatchOp::Insert(p, v) => {
                buf.push(OP_INSERT);
                p.encode(buf);
                v.encode(buf);
            }
            BatchOp::Update(p, v) => {
                buf.push(OP_UPDATE);
                p.encode(buf);
                v.encode(buf);
            }
            BatchOp::Delete(p) => {
                buf.push(OP_DELETE);
                p.encode(buf);
            }
        }
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        match cur.u8()? {
            OP_INSERT => Some(BatchOp::Insert(Point::decode(cur)?, V::decode(cur)?)),
            OP_UPDATE => Some(BatchOp::Update(Point::decode(cur)?, V::decode(cur)?)),
            OP_DELETE => Some(BatchOp::Delete(Point::decode(cur)?)),
            _ => None,
        }
    }
}

/// Errors cross the durability boundary too — a replica or a remote
/// client must see exactly the failure the transactor produced. The
/// encoding leads with [`SfcError::code`] (the stable per-variant `u16`),
/// then the variant's fields; an unknown code decodes to `None`, so a
/// client built before a new variant treats it as a torn frame rather
/// than mis-classifying it.
impl WalCodec for SfcError {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.code().encode(buf);
        match self {
            SfcError::ZeroSide => {}
            SfcError::UniverseTooLarge { side, dims } => {
                side.encode(buf);
                (*dims as u64).encode(buf);
            }
            SfcError::SideNotPowerOfTwo { side } => side.encode(buf),
            SfcError::PointOutOfBounds { point, side } => {
                point.encode(buf);
                side.encode(buf);
            }
            SfcError::IndexOutOfBounds { index, cells } => {
                index.encode(buf);
                cells.encode(buf);
            }
            SfcError::DimensionUnsupported { dims } => (*dims as u64).encode(buf),
            SfcError::Storage { context }
            | SfcError::Unavailable { context }
            | SfcError::DeadlineExceeded { context }
            | SfcError::ConnectionLost { context }
            | SfcError::TornFrame { context }
            | SfcError::AmbiguousWrite { context }
            | SfcError::ReadOnly { context } => context.encode(buf),
            SfcError::EpochTruncated { requested, horizon } => {
                requested.encode(buf);
                horizon.encode(buf);
            }
        }
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        match u16::decode(cur)? {
            1 => Some(SfcError::ZeroSide),
            2 => Some(SfcError::UniverseTooLarge {
                side: cur.u32()?,
                dims: usize::try_from(cur.u64()?).ok()?,
            }),
            3 => Some(SfcError::SideNotPowerOfTwo { side: cur.u32()? }),
            4 => Some(SfcError::PointOutOfBounds {
                point: String::decode(cur)?,
                side: cur.u32()?,
            }),
            5 => Some(SfcError::IndexOutOfBounds {
                index: cur.u64()?,
                cells: cur.u64()?,
            }),
            6 => Some(SfcError::DimensionUnsupported {
                dims: usize::try_from(cur.u64()?).ok()?,
            }),
            7 => Some(SfcError::Storage {
                context: String::decode(cur)?,
            }),
            8 => Some(SfcError::Unavailable {
                context: String::decode(cur)?,
            }),
            9 => Some(SfcError::DeadlineExceeded {
                context: String::decode(cur)?,
            }),
            10 => Some(SfcError::ConnectionLost {
                context: String::decode(cur)?,
            }),
            11 => Some(SfcError::TornFrame {
                context: String::decode(cur)?,
            }),
            12 => Some(SfcError::AmbiguousWrite {
                context: String::decode(cur)?,
            }),
            13 => Some(SfcError::EpochTruncated {
                requested: cur.u64()?,
                horizon: cur.u64()?,
            }),
            14 => Some(SfcError::ReadOnly {
                context: String::decode(cur)?,
            }),
            _ => None,
        }
    }
}

/// Queries ride the wire as `lo + side_lengths`; decoding re-validates
/// through [`RectQuery::new`], so a frame carrying a degenerate rectangle
/// is rejected as malformed instead of constructing an invalid query.
impl<const D: usize> WalCodec for RectQuery<D> {
    fn encode(&self, buf: &mut Vec<u8>) {
        for c in self.lo() {
            c.encode(buf);
        }
        for l in self.side_lengths() {
            l.encode(buf);
        }
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        let mut lo = [0u32; D];
        for c in &mut lo {
            *c = cur.u32()?;
        }
        let mut len = [0u32; D];
        for l in &mut len {
            *l = cur.u32()?;
        }
        RectQuery::new(lo, len).ok()
    }
}

impl WalCodec for (u64, u64) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        Some((cur.u64()?, cur.u64()?))
    }
}

/// Encodes a length-prefixed sequence of codec values — the list idiom
/// shared by every composite frame (`[count: u32][items…]`).
pub fn encode_seq<T: WalCodec>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).encode(buf);
    for item in items {
        item.encode(buf);
    }
}

/// Decodes a sequence written by [`encode_seq`]. The pre-allocation is
/// clamped to as many elements as the remaining bytes could fill if each
/// decoded into its full in-memory size, so a hostile length prefix can
/// never reserve more than the frame's own bytes before the per-item
/// decodes fail; a longer sequence grows the vector normally.
pub fn decode_seq<T: WalCodec>(cur: &mut WalCursor<'_>) -> Option<Vec<T>> {
    let len = cur.u32()? as usize;
    let fits = cur.remaining() / std::mem::size_of::<T>().max(1);
    let mut out = Vec::with_capacity(len.min(fits));
    for _ in 0..len {
        out.push(T::decode(cur)?);
    }
    Some(out)
}

/// Plans are wire values so `Explain` can answer remotely: the chosen
/// ranges plus the cost-model numbers that justified them.
impl WalCodec for QueryPlan {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_seq(&self.ranges, buf);
        (self.clusters as u64).encode(buf);
        self.extra_cells.encode(buf);
        self.hit_rate.encode(buf);
        self.est_full_us.encode(buf);
        self.est_chosen_us.encode(buf);
        self.shard_skew.encode(buf);
    }
    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        Some(QueryPlan {
            ranges: decode_seq(cur)?,
            clusters: usize::try_from(cur.u64()?).ok()?,
            extra_cells: cur.u64()?,
            hit_rate: f64::decode(cur)?,
            est_full_us: f64::decode(cur)?,
            est_chosen_us: f64::decode(cur)?,
            shard_skew: f64::decode(cur)?,
        })
    }
}

/// Formats an [`SfcError::Storage`] with a context line and the cause.
pub(crate) fn storage_err(context: &str, cause: impl std::fmt::Display) -> SfcError {
    SfcError::Storage {
        context: format!("{context}: {cause}"),
    }
}

// ---------------------------------------------------------------------------
// The write-ahead log
// ---------------------------------------------------------------------------

/// One committed epoch read back from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochFrame<const D: usize, V> {
    /// The epoch number the frame committed (strictly increasing within a
    /// log, 1-based — matching `Engine::epoch()` after the apply).
    pub epoch: u64,
    /// The epoch's writes, in submission order.
    pub ops: Vec<BatchOp<D, V>>,
}

/// Encodes one epoch's frame payload — `[epoch][op_count][ops…]` — into a
/// caller-owned buffer (cleared first). Exposed so the serving layer can
/// encode on its flush path and frame whole groups in its group sync
/// ([`Wal::append_payloads_unsynced`]), and so a reused buffer makes
/// steady-state commits allocation-free.
pub fn encode_epoch_payload_into<const D: usize, V: WalCodec>(
    epoch: u64,
    ops: &[BatchOp<D, V>],
    payload: &mut Vec<u8>,
) {
    payload.clear();
    payload.reserve(16 + ops.len() * (1 + D * 4 + 8));
    epoch.encode(payload);
    encode_seq(ops, payload);
}

/// [`encode_epoch_payload_into`] into a fresh allocation.
pub(crate) fn encode_epoch_payload<const D: usize, V: WalCodec>(
    epoch: u64,
    ops: &[BatchOp<D, V>],
) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_epoch_payload_into(epoch, ops, &mut payload);
    payload
}

/// Decodes a frame payload; `None` if it is malformed or has trailing
/// garbage (both are treated as corruption by replay).
fn decode_epoch_payload<const D: usize, V: WalCodec>(payload: &[u8]) -> Option<EpochFrame<D, V>> {
    let mut cur = WalCursor::new(payload);
    let epoch = cur.u64()?;
    let ops = decode_seq(&mut cur)?;
    if cur.remaining() != 0 {
        return None;
    }
    Some(EpochFrame { epoch, ops })
}

/// The one frame walker behind [`Wal::open`] and [`Wal::read_frames`]:
/// decodes the frames of a log image (header included) in order and
/// returns them with the byte length of the intact prefix. The walk ends
/// at the first short or checksum-mismatched frame — a torn tail at
/// open, a damaged committed frame on a re-read.
///
/// Damage the checksum *vouches for* is refused, not cut off: a CRC-valid
/// frame that fails typed decoding (a log written with a different value
/// type or dimensionality) or breaks epoch monotonicity is not a torn
/// tail, and truncating it would destroy committed data on a mistyped
/// open.
fn walk_frames<const D: usize, V: WalCodec>(
    bytes: &[u8],
    path: &Path,
) -> Result<(Vec<EpochFrame<D, V>>, usize), SfcError> {
    let mut frames: Vec<EpochFrame<D, V>> = Vec::new();
    let mut at = WAL_MAGIC.len();
    while let Some(header) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("8-byte slice")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("8-byte slice"));
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // torn or corrupted payload
        }
        let Some(frame) = decode_epoch_payload::<D, V>(payload) else {
            return Err(storage_err(
                "reading WAL",
                format_args!(
                    "{}: intact frame at byte {at} does not decode — \
                     was this log written with a different value type \
                     or dimensionality?",
                    path.display()
                ),
            ));
        };
        let last_epoch = frames.last().map_or(0, |f| f.epoch);
        if frame.epoch <= last_epoch {
            return Err(storage_err(
                "reading WAL",
                format_args!(
                    "{}: intact frame at byte {at} breaks epoch \
                     monotonicity ({} after {last_epoch}) — not a log \
                     this build wrote",
                    path.display(),
                    frame.epoch
                ),
            ));
        }
        frames.push(frame);
        at += 8 + len;
    }
    Ok((frames, at))
}

/// An append-only, checksummed, epoch-framed write-ahead log.
///
/// See the [module docs](self) for the on-disk format and the
/// torn-tail policy. A `Wal` is single-writer by construction (`&mut
/// self` appends); the serving layer commits only from its flush leader
/// and wraps the log in a `Mutex`.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Byte length of the valid prefix (header + fully committed frames).
    /// A failed append truncates back to this, so one bad write never
    /// strands later frames behind garbage.
    valid_len: u64,
    /// Highest epoch committed or replayed; appends must exceed it.
    last_epoch: u64,
    /// `(valid_len, last_epoch)` before the most recent append — the
    /// undo record [`Self::rollback_last`] restores when a committed
    /// frame's in-memory application fails and the caller needs the log
    /// to match the table again.
    undo: Option<(u64, u64)>,
    /// Whether bytes past `valid_len` (a torn or damaged tail found at
    /// open) are still physically present. They are truncated lazily,
    /// right before the first append overwrites them — so an open that
    /// never writes preserves the damaged bytes for inspection instead
    /// of destroying possible evidence (a frame *header* corruption,
    /// which no checksum vouches for, strands every later frame behind
    /// it; eager truncation would delete those intact frames for good).
    dirty_tail: bool,
    /// Whether a [`Self::rollback_last`] failed on its truncation I/O
    /// and must be completed before the next append (its undo record is
    /// still in `undo`). Keeps the watermark honest across a rollback
    /// whose own I/O failed: the next append retries the rollback
    /// instead of asserting on the stale `last_epoch`.
    pending_rollback: bool,
    /// Reusable frame assembly buffer (`[len][crc][payload]`), so every
    /// append is one contiguous `write_all` with no per-commit
    /// allocation once the buffer has grown to the working frame size.
    frame_buf: Vec<u8>,
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying every fully
    /// committed epoch in order. A torn or corrupt tail — the signature
    /// of a crash mid-append: a short frame, or one whose checksum does
    /// not match — ends the replay; everything before it is returned and
    /// the log is positioned for appending. The damaged bytes themselves
    /// are left on disk until the first append overwrites them, so an
    /// open that only reads never destroys material an operator might
    /// want to inspect (e.g. intact frames stranded behind a corrupted
    /// frame *header*, which no checksum can vouch for).
    ///
    /// The opener takes an OS advisory lock on the file (released when
    /// the `Wal` drops, or automatically when the process dies — so a
    /// crash never wedges the directory) to keep a second engine from
    /// appending over committed frames.
    ///
    /// A CRC-valid frame that fails typed decoding (a log written with a
    /// different value type or dimensionality) or breaks epoch
    /// monotonicity is not a torn tail: truncating it would destroy
    /// committed data, so it errors like a bad magic does.
    ///
    /// # Errors
    /// On I/O failure, if another live process holds the log, or if the
    /// file exists but is not (or is no longer) a readable WAL: bad
    /// magic, or an intact frame that cannot be decoded as `(D, V)`.
    pub fn open<const D: usize, V: WalCodec>(
        path: &Path,
    ) -> Result<(Wal, Vec<EpochFrame<D, V>>), SfcError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| storage_err("opening WAL", format_args!("{}: {e}", path.display())))?;
        file.try_lock().map_err(|e| {
            storage_err(
                "locking WAL",
                format_args!(
                    "{}: {e} (is another engine serving this directory?)",
                    path.display()
                ),
            )
        })?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| storage_err("reading WAL", e))?;

        if bytes.len() < WAL_MAGIC.len() {
            // New (or torn before the header finished): start fresh.
            file.set_len(0)
                .map_err(|e| storage_err("resetting WAL", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| storage_err("seeking WAL", e))?;
            file.write_all(&WAL_MAGIC)
                .map_err(|e| storage_err("writing WAL header", e))?;
            file.sync_all()
                .map_err(|e| storage_err("syncing WAL header", e))?;
            bytes = WAL_MAGIC.to_vec();
        } else if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(storage_err(
                "opening WAL",
                format_args!("{} is not a WAL file (bad magic)", path.display()),
            ));
        }

        // Replay the valid prefix and position at its end; a torn tail
        // beyond it is left on disk until the first append (see
        // `dirty_tail`).
        let (frames, valid_len) = walk_frames::<D, V>(&bytes, path)?;
        file.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| storage_err("seeking WAL", e))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                valid_len: valid_len as u64,
                last_epoch: frames.last().map_or(0, |f| f.epoch),
                undo: None,
                pending_rollback: false,
                dirty_tail: valid_len < bytes.len(),
                frame_buf: Vec::new(),
            },
            frames,
        ))
    }

    /// Commits one epoch on its own: frames, checksums, appends, and
    /// syncs the batch. When this returns `Ok`, the epoch is durable. (The
    /// serving layer commits groups instead: one
    /// [`Self::append_payloads_unsynced`] and one sync for every epoch
    /// queued since the last group.)
    ///
    /// # Errors
    /// On I/O failure; the file is truncated back to its last valid
    /// length so the failed frame never corrupts the log.
    ///
    /// # Panics
    /// If `epoch` is not strictly greater than every previously
    /// committed epoch (the log would become ambiguous to replay).
    pub fn append_epoch<const D: usize, V: WalCodec>(
        &mut self,
        epoch: u64,
        ops: &[BatchOp<D, V>],
    ) -> Result<(), SfcError> {
        self.append_payloads_unsynced(&[(epoch, encode_epoch_payload(epoch, ops))])?;
        if let Err(e) = self.file.sync_data() {
            // Roll the file back to the last committed frame; best-effort,
            // and replay would stop at the torn frame anyway.
            let (len, last) = self.undo.take().expect("append just set the undo record");
            let _ = self.file.set_len(len);
            let _ = self.file.seek(SeekFrom::Start(len));
            self.valid_len = len;
            self.last_epoch = last;
            return Err(storage_err(
                "syncing epoch to WAL",
                format_args!("{}: {e}", self.path.display()),
            ));
        }
        Ok(())
    }

    /// Appends a group of epoch frames **without syncing them**, with one
    /// contiguous `write_all` from a reused buffer (no allocation once the
    /// buffer has grown, no userspace buffering to lose on drop): one
    /// syscall, and one inode touch, per group. The frames are written
    /// but not yet durable. The caller owns the commit point: they
    /// survive a crash only once a subsequent [`File::sync_data`] on
    /// [`Self::sync_handle`] (or a synced append) returns — which is how
    /// the serving layer's group sync confirms every epoch queued since
    /// the last one with a single fsync, while keeping the synced-append
    /// commit point for everything `flush` acknowledges.
    ///
    /// Frames land in slice order, and append order is frame order, so
    /// syncing the file at any instant makes a *prefix* of appended
    /// epochs durable — pipelining never reorders the log. On success the
    /// undo record covers the group's *last* frame, so a subsequent
    /// [`Self::rollback_last`] removes exactly the newest epoch.
    ///
    /// # Errors
    /// On I/O failure (the file is truncated back to its last valid
    /// length — the whole group rolls back) or a frame over the 4 GiB
    /// limit.
    ///
    /// # Panics
    /// If the epochs are not strictly increasing across the group and
    /// past every previously appended epoch (the log would become
    /// ambiguous to replay).
    pub fn append_payloads_unsynced<P: AsRef<[u8]>>(
        &mut self,
        group: &[(u64, P)],
    ) -> Result<(), SfcError> {
        if group.is_empty() {
            return Ok(());
        }
        // A rollback that failed on its I/O leaves the frame on disk and
        // the epoch watermark advanced; completing it here (or erroring
        // again, cleanly) is what lets a retried flush re-commit the same
        // epoch number without tripping the monotonicity assert below.
        if self.pending_rollback {
            self.rollback_last()?;
        }
        let mut last = self.last_epoch;
        for (epoch, payload) in group {
            assert!(
                *epoch > last,
                "WAL epochs must be strictly increasing: {epoch} after {last}"
            );
            last = *epoch;
            let len = payload.as_ref().len();
            if u32::try_from(len).is_err() {
                // The frame length field is u32; silently wrapping it
                // would fsync-acknowledge an epoch that replay can only
                // see as a torn tail. Refuse instead: the caller can
                // flush smaller epochs.
                return Err(storage_err(
                    "committing epoch to WAL",
                    format_args!(
                        "epoch {epoch} payload is {len} bytes, over the 4 GiB frame limit"
                    ),
                ));
            }
        }
        // First write after recovering past a damaged tail: cut the dead
        // bytes off now, so the new frames land on a clean edge instead
        // of a prefix of garbage a crash mid-write could splice with.
        if self.dirty_tail {
            self.file
                .set_len(self.valid_len)
                .and_then(|_| self.file.sync_all())
                .map_err(|e| storage_err("truncating torn WAL tail", e))?;
            self.dirty_tail = false;
        }
        self.frame_buf.clear();
        let mut undo = (self.valid_len, self.last_epoch);
        let mut prev_epoch = self.last_epoch;
        for (epoch, payload) in group {
            let payload = payload.as_ref();
            undo = (self.valid_len + self.frame_buf.len() as u64, prev_epoch);
            prev_epoch = *epoch;
            (payload.len() as u32).encode(&mut self.frame_buf);
            crc32(payload).encode(&mut self.frame_buf);
            self.frame_buf.extend_from_slice(payload);
        }
        if let Err(e) = self.file.write_all(&self.frame_buf) {
            // Roll the file back to the last committed frame; best-effort,
            // and replay would stop at the torn frame anyway.
            let _ = self.file.set_len(self.valid_len);
            let _ = self.file.seek(SeekFrom::Start(self.valid_len));
            return Err(storage_err(
                "committing epoch to WAL",
                format_args!("{}: {e}", self.path.display()),
            ));
        }
        self.undo = Some(undo);
        self.valid_len += self.frame_buf.len() as u64;
        self.last_epoch = last;
        Ok(())
    }

    /// A second handle to the log file, for offloading `sync_data` to a
    /// dedicated thread (both handles share one open file description, so
    /// a sync through either covers every byte appended through the
    /// other). The advisory lock is per file description and stays held.
    ///
    /// # Errors
    /// On I/O failure duplicating the descriptor.
    pub fn sync_handle(&self) -> Result<File, SfcError> {
        self.file
            .try_clone()
            .map_err(|e| storage_err("cloning WAL handle", e))
    }

    /// Un-commits the most recently appended epoch: truncates its frame
    /// away and restores the previous epoch watermark. The serving
    /// layer calls this when a committed epoch's in-memory application
    /// fails, so the log never holds an epoch the table does not — and a
    /// retried flush can re-commit the same epoch number cleanly.
    ///
    /// If the truncation itself fails, the undo record is *kept*: the
    /// rollback stays pending and the next append completes it first (or
    /// fails with the same error) — a double failure degrades to clean,
    /// retryable errors, never to an inconsistent watermark.
    ///
    /// # Errors
    /// On I/O failure (retryable — see above), or if there is no append
    /// to undo (nothing appended since open, or already undone).
    pub fn rollback_last(&mut self) -> Result<(), SfcError> {
        let Some((len, epoch)) = self.undo else {
            return Err(storage_err(
                "rolling back WAL",
                "no committed frame to undo",
            ));
        };
        let truncate = self
            .file
            .set_len(len)
            .and_then(|_| self.file.seek(SeekFrom::Start(len)))
            .and_then(|_| self.file.sync_all());
        if let Err(e) = truncate {
            self.pending_rollback = true;
            return Err(storage_err("rolling back WAL", e));
        }
        self.undo = None;
        self.pending_rollback = false;
        self.valid_len = len;
        self.last_epoch = epoch;
        Ok(())
    }

    /// Discards every committed frame (keeping the header) — the
    /// compaction step after a snapshot has absorbed the log. Epoch
    /// numbering continues from where it was; it never restarts.
    ///
    /// # Errors
    /// On I/O failure.
    pub fn reset(&mut self) -> Result<(), SfcError> {
        let header = WAL_MAGIC.len() as u64;
        self.file
            .set_len(header)
            .map_err(|e| storage_err("compacting WAL", e))?;
        self.file
            .seek(SeekFrom::Start(header))
            .map_err(|e| storage_err("seeking WAL", e))?;
        self.file
            .sync_all()
            .map_err(|e| storage_err("syncing compacted WAL", e))?;
        self.valid_len = header;
        self.undo = None;
        self.dirty_tail = false;
        Ok(())
    }

    /// Re-reads every committed frame from the open (and advisory-locked)
    /// handle — the time-travel fallback's source: a `snapshot + frame
    /// prefix` replay reconstructs any epoch the log still covers, without
    /// a second `open` fighting this process's own file lock. Reads
    /// exactly the valid prefix (`[0, len())`), so a torn tail left for
    /// inspection is never touched, and repositions the handle at the
    /// append point afterwards. The frames go through the same walker as
    /// [`Self::open`], checksums included: every byte of the prefix was
    /// committed, so a frame that no longer matches its checksum is
    /// damage, reported instead of decoded.
    ///
    /// Callers serialize this against appends and [`Self::reset`] (the
    /// durable layer holds its WAL mutex across the call), so the prefix
    /// read is of a quiescent file.
    ///
    /// # Errors
    /// On I/O failure, if a committed frame fails its checksum, or if an
    /// intact frame no longer decodes as `(D, V)` — the mistyped-log
    /// refusal of [`Self::open`].
    pub fn read_frames<const D: usize, V: WalCodec>(
        &mut self,
    ) -> Result<Vec<EpochFrame<D, V>>, SfcError> {
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| storage_err("seeking WAL", e))?;
        let mut bytes = vec![0u8; self.valid_len as usize];
        self.file
            .read_exact(&mut bytes)
            .map_err(|e| storage_err("re-reading WAL prefix", e))?;
        self.file
            .seek(SeekFrom::Start(self.valid_len))
            .map_err(|e| storage_err("seeking WAL", e))?;
        let (frames, intact) = walk_frames::<D, V>(&bytes, &self.path)?;
        if intact < bytes.len() {
            return Err(storage_err(
                "re-reading WAL prefix",
                format_args!(
                    "{}: committed frame at byte {intact} is damaged (short or checksum mismatch)",
                    self.path.display()
                ),
            ));
        }
        Ok(frames)
    }

    /// Byte length of the valid prefix (header plus appended frames).
    /// After a synced append ([`Self::append_epoch`]) returns, everything
    /// up to this offset survives any crash — the number the crash-point
    /// tests key on. Frames appended with
    /// [`Self::append_payloads_unsynced`] are counted as soon as they are
    /// written; they survive once the pipeline's next sync returns.
    pub fn len(&self) -> u64 {
        self.valid_len
    }

    /// Whether the log holds no committed frames.
    pub fn is_empty(&self) -> bool {
        self.valid_len <= WAL_MAGIC.len() as u64
    }

    /// Highest epoch committed to (or replayed from) this log.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Writes a point-in-time snapshot of `table` at `epoch` to `path`,
/// atomically (temporary file + rename): a crash mid-write leaves the
/// previous snapshot untouched. Entries are streamed shard by shard via
/// [`Backend::persist`] from one pinned version
/// ([`ShardedTable::snapshot`]), so the file holds the whole table at one
/// epoch in curve-key order, sectioned by the table's partitions, even
/// if batches are applied while it is written.
///
/// # Errors
/// On I/O failure.
pub fn write_snapshot<const D: usize, C, V, B>(
    path: &Path,
    epoch: u64,
    table: &ShardedTable<C, V, D, B>,
) -> Result<(), SfcError>
where
    C: SpaceFillingCurve<D>,
    V: Clone + WalCodec,
    B: Backend<Record<D, V>>,
{
    let parts = table.partitions();
    let version = table.snapshot();
    let mut body = Vec::new();
    epoch.encode(&mut body);
    (parts.len() as u32).encode(&mut body);
    for (shard, part) in parts.iter().enumerate() {
        part.lo.encode(&mut body);
        part.hi.encode(&mut body);
        // Patch the count in after streaming the section.
        let count_at = body.len();
        0u64.encode(&mut body);
        let mut count = 0u64;
        version.persist_shard(shard, &mut |key, rec| {
            key.encode(&mut body);
            rec.encode(&mut body);
            count += 1;
        })?;
        body[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    }

    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(|e| storage_err("creating snapshot temp file", e))?;
    file.write_all(&SNAPSHOT_MAGIC)
        .and_then(|()| file.write_all(&crc32(&body).to_le_bytes()))
        .and_then(|()| file.write_all(&body))
        .and_then(|()| file.sync_all())
        .map_err(|e| storage_err("writing snapshot", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| storage_err("publishing snapshot", e))?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A decoded snapshot: the epoch it captured and every keyed record in
/// curve-key order (shard sections concatenated).
pub type SnapshotContents<const D: usize, V> = (u64, Vec<(u64, Record<D, V>)>);

/// Reads a snapshot back: the epoch it was taken at and every entry in
/// curve-key order (shard sections concatenated). Returns `Ok(None)` if
/// no snapshot exists at `path`.
///
/// # Errors
/// On I/O failure, or if the file is corrupt (bad magic, checksum
/// mismatch, malformed body). Unlike the WAL's torn tail, a damaged
/// snapshot is not recoverable-by-prefix — it is reported, not silently
/// truncated.
pub fn read_snapshot<const D: usize, V: WalCodec>(
    path: &Path,
) -> Result<Option<SnapshotContents<D, V>>, SfcError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(storage_err("reading snapshot", e)),
    };
    let corrupt = |what: &str| {
        storage_err(
            "decoding snapshot",
            format_args!("{}: {what}", path.display()),
        )
    };
    if bytes.len() < 12 || bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    let body = &bytes[12..];
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut cur = WalCursor::new(body);
    let mut next = || -> Option<SnapshotContents<D, V>> {
        let epoch = cur.u64()?;
        let shards = cur.u32()?;
        let mut entries = Vec::new();
        for _ in 0..shards {
            let _lo = cur.u64()?;
            let _hi = cur.u64()?;
            let count = cur.u64()?;
            for _ in 0..count {
                entries.push((cur.u64()?, Record::decode(&mut cur)?));
            }
        }
        (cur.remaining() == 0).then_some((epoch, entries))
    };
    next().map(Some).ok_or_else(|| corrupt("malformed body"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_primitives() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        (-7i32).encode(&mut buf);
        true.encode(&mut buf);
        String::from("curve").encode(&mut buf);
        vec![1u8, 2, 3].encode(&mut buf);
        1.5f64.encode(&mut buf);
        Point::new([3u32, 4, 5]).encode(&mut buf);
        let mut cur = WalCursor::new(&buf);
        assert_eq!(u64::decode(&mut cur), Some(42));
        assert_eq!(i32::decode(&mut cur), Some(-7));
        assert_eq!(bool::decode(&mut cur), Some(true));
        assert_eq!(String::decode(&mut cur), Some("curve".into()));
        assert_eq!(Vec::<u8>::decode(&mut cur), Some(vec![1, 2, 3]));
        assert_eq!(f64::decode(&mut cur), Some(1.5));
        assert_eq!(Point::<3>::decode(&mut cur), Some(Point::new([3, 4, 5])));
        assert_eq!(cur.remaining(), 0);
        assert_eq!(u8::decode(&mut cur), None, "reads past the end fail");
    }

    #[test]
    fn batch_op_round_trips() {
        let ops: Vec<BatchOp<2, String>> = vec![
            BatchOp::Insert(Point::new([1, 2]), "a".into()),
            BatchOp::Update(Point::new([3, 4]), "b".into()),
            BatchOp::Delete(Point::new([5, 6])),
        ];
        let payload = encode_epoch_payload(9, &ops);
        let frame = decode_epoch_payload::<2, String>(&payload).unwrap();
        assert_eq!(frame.epoch, 9);
        assert_eq!(frame.ops, ops);
        // Trailing garbage is malformed, not silently ignored.
        let mut noisy = payload.clone();
        noisy.push(0);
        assert!(decode_epoch_payload::<2, String>(&noisy).is_none());
        // A bad op tag is malformed (the first op's tag sits right after
        // the 8-byte epoch and 4-byte count).
        let mut bad = payload;
        bad[12] = 0xFF;
        assert!(decode_epoch_payload::<2, String>(&bad).is_none());
    }
}
