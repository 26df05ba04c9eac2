//! The wire envelope: a connection preamble plus length-prefixed,
//! checksummed frames — the WAL's `SFCWAL01` framing idiom
//! ([`sfc_index::wal`]) lifted onto a socket.
//!
//! # Connection preamble
//!
//! Each side sends 10 bytes on connect — the magic [`NET_MAGIC`]
//! (`SFCNET01`) followed by [`PROTOCOL_VERSION`] as a little-endian
//! `u16` — and validates the peer's before any frame is exchanged, so a
//! mistyped port or an incompatible peer fails immediately and legibly
//! instead of desynchronizing mid-stream.
//!
//! # Frames
//!
//! ```text
//! [payload_len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! — byte-for-byte the WAL's frame layout, with the same [`crc32`] over
//! the payload. Payloads are [`WalCodec`]-encoded
//! [`Request`](sfc_engine::Request)/[`Response`](sfc_engine::Response)
//! values. A frame longer than [`MAX_FRAME`] is rejected before allocation (a
//! corrupt or hostile length prefix cannot balloon memory), and a
//! checksum mismatch poisons the connection — unlike the WAL's torn
//! *tail*, a torn *middle* of a live stream has no honest recovery.
//!
//! Each frame leaves in one `write`, like the WAL's appends:
//! `write_frame` (the one writer, for client and server alike)
//! assembles header and payload in the connection's reused buffer.
//! With `TCP_NODELAY`, a header written on its own goes out as a
//! segment of its own, and the peer wakes for it, finds no whole frame
//! and sleeps again — two wake-ups per frame where one suffices. The
//! frame reader likewise sets the socket's read timeout only when it
//! changes, not before every read.

use onion_core::SfcError;
use sfc_index::{crc32, WalCodec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Connection preamble magic; the peer must present it verbatim.
pub const NET_MAGIC: [u8; 8] = *b"SFCNET01";

/// Protocol revision sent in the preamble. Bumped on any change to the
/// frame layout or the [`Request`](sfc_engine::Request)/
/// [`Response`](sfc_engine::Response) encodings.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame payload (64 MiB): large enough for any epoch
/// batch or query result this workspace produces, small enough that a
/// corrupt length prefix cannot exhaust memory.
pub const MAX_FRAME: u32 = 64 << 20;

/// Maps an I/O failure into the storage arm of [`SfcError`], keeping the
/// wire layer's errors representable on the wire itself.
pub(crate) fn net_err(context: impl Into<String>, err: std::io::Error) -> SfcError {
    SfcError::Storage {
        context: format!("{}: {err}", context.into()),
    }
}

/// Maps an I/O failure that means "the peer is gone" into the typed
/// [`SfcError::ConnectionLost`] arm, so retry logic can distinguish a
/// dead transport from corrupt or mis-spoken protocol (which stays
/// [`SfcError::Storage`]).
pub(crate) fn lost_err(context: impl Into<String>, err: std::io::Error) -> SfcError {
    SfcError::ConnectionLost {
        context: format!("{}: {err}", context.into()),
    }
}

/// Sends the 10-byte preamble.
pub(crate) fn write_hello(stream: &mut TcpStream) -> Result<(), SfcError> {
    let mut hello = [0u8; 10];
    hello[..8].copy_from_slice(&NET_MAGIC);
    hello[8..].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    stream
        .write_all(&hello)
        .map_err(|e| net_err("write hello", e))
}

/// Reads and validates the peer's preamble, waiting at most `timeout`
/// (`None` blocks indefinitely). A bounded read here is what keeps a
/// black-holed or silent peer from pinning the caller forever — both
/// [`Client::connect`](crate::Client::connect) and the server's handler
/// threads bound their preamble wait.
pub(crate) fn read_hello(
    stream: &mut TcpStream,
    timeout: Option<Duration>,
) -> Result<(), SfcError> {
    stream
        .set_read_timeout(timeout)
        .map_err(|e| net_err("set preamble timeout", e))?;
    let mut hello = [0u8; 10];
    let read = stream.read_exact(&mut hello);
    // Restore blocking reads before any error path: the connection's
    // later traffic manages its own timeouts.
    stream.set_read_timeout(None).ok();
    read.map_err(|e| {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            SfcError::DeadlineExceeded {
                context: format!("no preamble within {timeout:?}"),
            }
        } else {
            lost_err("read hello", e)
        }
    })?;
    if hello[..8] != NET_MAGIC {
        return Err(SfcError::Storage {
            context: format!("bad protocol magic {:?}", &hello[..8]),
        });
    }
    let version = u16::from_le_bytes([hello[8], hello[9]]);
    if version != PROTOCOL_VERSION {
        return Err(SfcError::Storage {
            context: format!("protocol version {version} (expected {PROTOCOL_VERSION})"),
        });
    }
    Ok(())
}

/// Encodes `msg` and writes it as one `[len][crc32][payload]` frame with
/// a single `write_all`: the message is encoded into `buf` (the
/// connection's reused buffer) behind 8 reserved header bytes, whose
/// length and checksum are then filled in.
///
/// # Errors
/// [`SfcError::Storage`], naming the size and [`MAX_FRAME`], if the
/// payload is over `MAX_FRAME`; nothing has been written then and the
/// stream is still at a frame boundary. [`SfcError::ConnectionLost`] if
/// the write fails, after which some of the frame may have been sent.
pub(crate) fn write_frame<W: Write, M: WalCodec>(
    out: &mut W,
    buf: &mut Vec<u8>,
    msg: &M,
) -> Result<(), SfcError> {
    buf.clear();
    buf.extend_from_slice(&[0u8; 8]);
    msg.encode(buf);
    let len = buf.len() - 8;
    if len as u64 > MAX_FRAME as u64 {
        // Give back the oversize allocation: the connection lives on.
        *buf = Vec::new();
        return Err(SfcError::Storage {
            context: format!("frame payload of {len} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes)"),
        });
    }
    let crc = crc32(&buf[8..]);
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    out.write_all(buf).map_err(|e| lost_err("write frame", e))
}

/// One step of [`FrameReader::poll`].
pub(crate) enum PollFrame<'a> {
    /// A complete, checksum-verified payload, lent until the next poll.
    Frame(&'a [u8]),
    /// The timeout elapsed with no complete frame; poll again.
    Idle,
    /// The peer closed the connection at a clean frame boundary.
    Closed,
}

/// Size of the reader's socket read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reader: accumulates raw socket bytes across
/// [`poll`](Self::poll) calls and yields only complete, verified frames,
/// so a read timeout can never strand the stream mid-header — partial
/// bytes simply stay buffered for the next poll.
///
/// After construction the reader must be the only code that sets the
/// socket's read timeout: it remembers the last one it set and skips
/// the `setsockopt` while the caller keeps asking for the same one.
pub(crate) struct FrameReader {
    /// Received bytes, starting at the frame lent by the last poll.
    acc: Vec<u8>,
    /// Length (header included) of the frame the last poll lent out;
    /// dropped from `acc` when the next poll starts.
    lent: usize,
    /// Socket read buffer, allocated once per connection.
    chunk: Box<[u8]>,
    /// The read timeout last set on the socket; `None` until the first
    /// poll sets one.
    timeout: Option<Option<Duration>>,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader {
            acc: Vec::new(),
            lent: 0,
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            timeout: None,
        }
    }

    /// Waits up to `timeout` for the next frame. `None` as `timeout`
    /// blocks indefinitely (the plain request/response path).
    pub(crate) fn poll(
        &mut self,
        stream: &mut TcpStream,
        timeout: Option<Duration>,
    ) -> Result<PollFrame<'_>, SfcError> {
        loop {
            if let Some(len) = self.next_frame()? {
                return Ok(PollFrame::Frame(&self.acc[8..8 + len]));
            }
            if self.timeout != Some(timeout) {
                stream
                    .set_read_timeout(timeout)
                    .map_err(|e| net_err("set read timeout", e))?;
                self.timeout = Some(timeout);
            }
            match stream.read(&mut self.chunk) {
                Ok(0) => {
                    // A close at a frame boundary is the peer's clean
                    // goodbye; a close with bytes buffered tore a frame in
                    // half. Retry logic must tell them apart — a torn
                    // response may have been *partially* acted on.
                    return if self.acc.is_empty() {
                        Ok(PollFrame::Closed)
                    } else {
                        Err(SfcError::TornFrame {
                            context: format!(
                                "connection closed mid-frame ({} bytes buffered)",
                                self.acc.len()
                            ),
                        })
                    };
                }
                Ok(n) => self.acc.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(PollFrame::Idle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(if self.acc.is_empty() {
                        lost_err("read frame", e)
                    } else {
                        SfcError::TornFrame {
                            context: format!(
                                "read failed mid-frame ({} bytes buffered): {e}",
                                self.acc.len()
                            ),
                        }
                    })
                }
            }
        }
    }

    /// Drops the frame lent by the last poll, then checks whether the
    /// next one has fully arrived: validates the length bound and the
    /// checksum, lends it, and returns its payload length. When the lent
    /// frame was all that was buffered (the request/response case), the
    /// drop is a truncate, not a copy.
    fn next_frame(&mut self) -> Result<Option<usize>, SfcError> {
        self.acc.drain(..self.lent);
        self.lent = 0;
        if self.acc.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.acc[..4].try_into().expect("4 bytes")) as usize;
        if len as u64 > MAX_FRAME as u64 {
            return Err(SfcError::Storage {
                context: format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
            });
        }
        if self.acc.len() < 8 + len {
            return Ok(None);
        }
        let expect = u32::from_le_bytes(self.acc[4..8].try_into().expect("4 bytes"));
        if crc32(&self.acc[8..8 + len]) != expect {
            return Err(SfcError::Storage {
                context: "frame checksum mismatch".into(),
            });
        }
        self.lent = 8 + len;
        Ok(Some(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_index::WalCursor;
    use std::net::TcpListener;

    /// A message whose encoding is exactly its bytes, so a test can
    /// frame any payload through the production writer.
    struct Raw(Vec<u8>);

    impl WalCodec for Raw {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }
        fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
            Some(Raw(cur.take(cur.remaining())?.to_vec()))
        }
    }

    /// A `Write` that records the length of every `write` call.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for Recorder {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes.push(data.len());
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &mut Vec::new(), &Raw(payload.to_vec())).unwrap();
        bytes
    }

    /// The next buffered frame's payload, as `poll` would lend it.
    fn pop(reader: &mut FrameReader) -> Result<Option<Vec<u8>>, SfcError> {
        Ok(reader
            .next_frame()?
            .map(|len| reader.acc[8..8 + len].to_vec()))
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        let mut buf = Vec::new();
        for len in [0usize, 24, 1 << 20] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut out = Recorder::default();
            write_frame(&mut out, &mut buf, &Raw(payload.clone())).unwrap();
            assert_eq!(out.writes, [8 + len], "a {len}-byte payload");
            // The wire layout: [len: u32 LE][crc32: u32 LE][payload].
            assert_eq!(out.bytes[..4], (len as u32).to_le_bytes());
            assert_eq!(out.bytes[4..8], crc32(&payload).to_le_bytes());
            assert_eq!(out.bytes[8..], payload);
        }
    }

    #[test]
    fn oversize_payload_is_refused_before_any_write() {
        let mut out = Recorder::default();
        let mut buf = Vec::new();
        let msg = Raw(vec![0; MAX_FRAME as usize + 1]);
        let err = write_frame(&mut out, &mut buf, &msg).unwrap_err();
        let SfcError::Storage { context } = err else {
            panic!("an oversize frame must be a storage error, got {err:?}");
        };
        assert!(context.contains("MAX_FRAME"), "{context}");
        assert!(context.contains(&(MAX_FRAME + 1).to_string()), "{context}");
        assert!(out.writes.is_empty(), "nothing may be sent");
        assert_eq!(buf.capacity(), 0, "the oversize buffer is released");
    }

    #[test]
    fn frame_split_across_two_reads_is_held_until_complete() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut receiver, _) = listener.accept().unwrap();
        sender.set_nodelay(true).unwrap();
        let bytes = framed(b"split payload");
        let mut reader = FrameReader::new();
        let wait = Some(Duration::from_millis(50));

        sender.write_all(&bytes[..8]).unwrap();
        assert!(matches!(
            reader.poll(&mut receiver, wait).unwrap(),
            PollFrame::Idle
        ));
        assert_eq!(reader.acc.len(), 8, "the header stays buffered");

        sender.write_all(&bytes[8..]).unwrap();
        match reader.poll(&mut receiver, wait).unwrap() {
            PollFrame::Frame(payload) => assert_eq!(payload, b"split payload"),
            _ => panic!("the completed frame must be yielded"),
        }

        drop(sender);
        assert!(matches!(
            reader.poll(&mut receiver, wait).unwrap(),
            PollFrame::Closed
        ));
    }

    #[test]
    fn a_changed_read_timeout_takes_effect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut receiver, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        let short = Some(Duration::from_millis(10));
        for _ in 0..2 {
            assert!(matches!(
                reader.poll(&mut receiver, short).unwrap(),
                PollFrame::Idle
            ));
        }
        // The frame arrives long after the short timeout: a reader still
        // on it would return `Idle` instead of waiting.
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            sender.write_all(&framed(b"late")).unwrap();
            sender
        });
        match reader
            .poll(&mut receiver, Some(Duration::from_secs(10)))
            .unwrap()
        {
            PollFrame::Frame(payload) => assert_eq!(payload, b"late"),
            _ => panic!("the longer timeout must be in force"),
        }
        drop(late.join().unwrap());
    }

    #[test]
    fn truncated_frames_yield_nothing_at_every_prefix_length() {
        let bytes = framed(b"torn-frame probe payload");
        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new();
            reader.acc.extend_from_slice(&bytes[..cut]);
            assert!(
                matches!(pop(&mut reader), Ok(None)),
                "a frame cut at byte {cut} must stay buffered, not decode"
            );
        }
        let mut reader = FrameReader::new();
        reader.acc.extend_from_slice(&bytes);
        assert_eq!(
            pop(&mut reader).unwrap().as_deref(),
            Some(b"torn-frame probe payload".as_slice())
        );
        assert!(matches!(pop(&mut reader), Ok(None)));
        assert!(reader.acc.is_empty(), "a lent frame is fully drained");
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let clean = framed(b"checksums catch flips");
        for i in 0..clean.len() {
            for flip in [0x01u8, 0x80] {
                let mut bytes = clean.clone();
                bytes[i] ^= flip;
                let mut reader = FrameReader::new();
                reader.acc.extend_from_slice(&bytes);
                match pop(&mut reader) {
                    // Corrupting the length prefix may leave the frame
                    // "incomplete" (a longer claimed length) — that is a
                    // safe stall, never a mis-decode.
                    Ok(None) => assert!(i < 4, "byte {i}: only length damage may stall"),
                    Ok(Some(payload)) => {
                        panic!("byte {i} flipped by {flip:#x} decoded as {payload:?}")
                    }
                    Err(SfcError::Storage { .. }) => {}
                    Err(e) => panic!("unexpected error class: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        let mut reader = FrameReader::new();
        reader.acc.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        reader.acc.extend_from_slice(&[0u8; 4]);
        let err = pop(&mut reader).unwrap_err();
        let SfcError::Storage { context } = err else {
            panic!("oversize frame must be a storage error");
        };
        assert!(context.contains("MAX_FRAME"), "{context}");
    }

    #[test]
    fn back_to_back_frames_pop_in_order() {
        let mut reader = FrameReader::new();
        reader.acc.extend_from_slice(&framed(b"first"));
        reader.acc.extend_from_slice(&framed(b"second"));
        assert_eq!(
            pop(&mut reader).unwrap().as_deref(),
            Some(b"first".as_slice())
        );
        assert_eq!(
            pop(&mut reader).unwrap().as_deref(),
            Some(b"second".as_slice())
        );
        assert!(matches!(pop(&mut reader), Ok(None)));
    }

    #[test]
    fn empty_payload_frames_are_valid() {
        let mut reader = FrameReader::new();
        reader.acc.extend_from_slice(&framed(b""));
        assert_eq!(pop(&mut reader).unwrap().as_deref(), Some(&[] as &[u8]));
    }
}
