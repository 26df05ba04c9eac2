//! The blocking threaded server: an [`Engine`] put on a TCP listener.
//!
//! One accept thread, one handler thread per connection — the same
//! thread-per-request shape the engine is built for (lock-free reads of
//! pinned epoch versions, group-committing flushes), so N concurrent
//! connections exercise exactly the concurrency the engine proptests
//! pin. Every connection speaks the framed protocol of
//! [`frame`](crate::frame): preamble exchange, then
//! [`Request`]/[`Response`] frames. Each decoded request goes to
//! [`Engine::execute`], the engine's one dispatcher, and an `Err` it
//! returns leaves as [`Response::Error`] — the only place a `Result`
//! becomes a wire frame. The engine may sit on any backend, so a
//! disk-resident engine serves exactly as an in-memory one does.
//!
//! A connection that sends [`Request::SubscribeEpochs`] flips one-way:
//! the handler replays WAL catch-up frames, then forwards the engine's
//! live epoch feed ([`Engine::subscribe_epochs`]) until the peer
//! disconnects or the server shuts down. Everything else is strict
//! request/response; a response too large for one frame (over
//! [`MAX_FRAME`](crate::MAX_FRAME)) is answered with a typed
//! [`Response::Error`] instead, and the connection serves on.
//!
//! Shutdown is cooperative: [`Server::shutdown`] (or drop) raises a
//! flag, wakes the accept loop with a self-connection, and joins every
//! handler — handlers poll their sockets with a short timeout, so none
//! blocks past it.

use crate::frame::{net_err, read_hello, write_frame, write_hello, FrameReader, PollFrame};
use onion_core::{SfcError, SpaceFillingCurve};
use sfc_engine::{Engine, FeedEvent, Request, Response};
use sfc_index::{Backend, Record, WalCodec};
use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a handler blocks on its socket (or the epoch feed) before
/// re-checking the shutdown flag — the bound on shutdown latency.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Bound on the preamble exchange per connection — an accepted socket
/// that never speaks is dropped after this.
const PREAMBLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Overload and lifecycle knobs for a [`Server`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Admission cap: connections accepted beyond this limit are turned
    /// away with a typed [`SfcError::Unavailable`] frame (sent after
    /// the preamble, so the refusal is legible) and closed. The request
    /// was never read, let alone executed — retrying is safe for every
    /// verb.
    pub max_connections: usize,
    /// Disconnect a connection that has sent no frame for this long, so
    /// a dead or vanished peer cannot pin a handler thread (and its
    /// admission slot) forever. `None` disables the idle deadline.
    pub idle_timeout: Option<Duration>,
    /// On shutdown, how long to wait for in-flight handlers to finish
    /// before their sockets are forcibly shut down. The drain bound
    /// keeps [`Server::shutdown`] from hanging on a stalled peer.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
            idle_timeout: None,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// State shared between the accept loop, every handler thread, and the
/// [`Server`] handle.
struct Shared {
    stop: AtomicBool,
    config: ServerConfig,
    /// Admitted (serving) connections right now — compared against
    /// `config.max_connections` at accept time.
    active: AtomicUsize,
    /// Clones of every live connection's stream, so drain can forcibly
    /// shut down stragglers. Keyed by a monotonic id; handlers remove
    /// their entry on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicUsize,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Decrements the active-connection count and unregisters the stream
/// clone when a handler exits, however it exits.
struct AdmissionGuard<'a> {
    shared: &'a Shared,
    conn_id: u64,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        self.shared
            .conns
            .lock()
            .expect("connection registry poisoned")
            .remove(&self.conn_id);
    }
}

/// A running server: the listener address plus the shutdown machinery.
/// Dropping it shuts the server down and joins every thread.
pub struct Server {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts serving `engine` — on any backend — with
    /// [`ServerConfig`] defaults until [`shutdown`](Self::shutdown) or
    /// drop.
    ///
    /// # Errors
    /// If the bind fails.
    pub fn spawn<C, V, const D: usize, B>(
        engine: Arc<Engine<C, V, D, B>>,
        addr: &str,
    ) -> Result<Server, SfcError>
    where
        C: SpaceFillingCurve<D> + Send + Sync + 'static,
        V: Clone + Send + Sync + WalCodec + 'static,
        B: Backend<Record<D, V>> + Send + Sync + 'static,
    {
        Self::spawn_with(engine, addr, ServerConfig::default())
    }

    /// [`Server::spawn`] with explicit overload-protection knobs.
    ///
    /// # Errors
    /// If the bind fails.
    pub fn spawn_with<C, V, const D: usize, B>(
        engine: Arc<Engine<C, V, D, B>>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server, SfcError>
    where
        C: SpaceFillingCurve<D> + Send + Sync + 'static,
        V: Clone + Send + Sync + WalCodec + 'static,
        B: Backend<Record<D, V>> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr).map_err(|e| net_err(format!("bind {addr}"), e))?;
        let local = listener
            .local_addr()
            .map_err(|e| net_err("local_addr", e))?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            config,
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicUsize::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, engine, shared))
        };
        Ok(Server {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the server is listening on — connect
    /// [`Client`](crate::Client)s here.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Connections currently admitted and being served. Busy-rejected
    /// connections never count.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Stops accepting, drains in-flight handlers (bounded by
    /// [`ServerConfig::drain_deadline`], after which straggler sockets
    /// are forcibly shut down), and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the accept loop: it blocks in accept(), so poke it with a
        // throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<C, V, const D: usize, B>(
    listener: TcpListener,
    engine: Arc<Engine<C, V, D, B>>,
    shared: Arc<Shared>,
) where
    C: SpaceFillingCurve<D> + Send + Sync + 'static,
    V: Clone + Send + Sync + WalCodec + 'static,
    B: Backend<Record<D, V>> + Send + Sync + 'static,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if shared.stopping() {
            break; // the shutdown poke itself
        }
        // Admission decision happens here, before a handler thread is
        // committed to serving: over the cap, a cheap refusal thread
        // completes the preamble and sends the typed busy frame so the
        // client fails legibly (and safely — nothing was executed).
        let admitted = shared.active.load(Ordering::Acquire) < shared.config.max_connections;
        let shared = Arc::clone(&shared);
        let handle = if admitted {
            shared.active.fetch_add(1, Ordering::AcqRel);
            let conn_id = shared.next_conn_id.fetch_add(1, Ordering::AcqRel) as u64;
            if let Ok(clone) = stream.try_clone() {
                shared
                    .conns
                    .lock()
                    .expect("connection registry poisoned")
                    .insert(conn_id, clone);
            }
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let _guard = AdmissionGuard {
                    shared: &shared,
                    conn_id,
                };
                // A failed preamble or a poisoned connection just ends
                // this handler; the listener keeps serving others.
                let _ = handle_connection(stream, &engine, &shared);
            })
        } else {
            std::thread::spawn(move || {
                let _ = refuse_connection::<D, V>(stream, &shared);
            })
        };
        reap_finished(&mut handlers);
        handlers.push(handle);
    }
    drain(&shared);
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Joins every handler thread that has exited, so the list holds only
/// live connections' threads: an exited thread nobody joins keeps its
/// stack mapped until the server shuts down.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    for handle in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = handle.join();
    }
}

/// Waits up to the drain deadline for handlers to notice the stop flag
/// and finish; whatever is still running then (a peer stalling a write,
/// typically) gets its socket forcibly shut down, which unblocks the
/// handler with an I/O error.
fn drain(shared: &Shared) {
    let deadline = Instant::now() + shared.config.drain_deadline;
    while shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for stream in shared
        .conns
        .lock()
        .expect("connection registry poisoned")
        .values()
    {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Turns away a connection accepted over the admission cap: complete
/// the preamble (so the refusal is protocol-legible, not a mute hangup),
/// send one typed busy frame, close.
fn refuse_connection<const D: usize, V: WalCodec>(
    mut stream: TcpStream,
    shared: &Shared,
) -> Result<(), SfcError> {
    stream.set_nodelay(true).ok();
    write_hello(&mut stream)?;
    read_hello(&mut stream, Some(PREAMBLE_TIMEOUT))?;
    let mut buf = Vec::new();
    write_frame(
        &mut stream,
        &mut buf,
        &Response::<D, V>::Error(SfcError::Unavailable {
            context: format!(
                "admission cap reached ({} connections)",
                shared.config.max_connections
            ),
        }),
    )
}

/// Serves one connection until the peer hangs up or goes idle past the
/// deadline, an error poisons the stream, or shutdown is raised.
fn handle_connection<C, V, const D: usize, B>(
    mut stream: TcpStream,
    engine: &Engine<C, V, D, B>,
    shared: &Shared,
) -> Result<(), SfcError>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
    B: Backend<Record<D, V>> + Send + Sync,
{
    stream.set_nodelay(true).ok();
    write_hello(&mut stream)?;
    read_hello(&mut stream, Some(PREAMBLE_TIMEOUT))?;
    let mut reader = FrameReader::new();
    let mut buf = Vec::new();
    let mut last_frame = Instant::now();
    while !shared.stopping() {
        let payload = match reader.poll(&mut stream, Some(POLL_INTERVAL))? {
            PollFrame::Frame(payload) => payload,
            PollFrame::Idle => {
                if let Some(idle) = shared.config.idle_timeout {
                    if last_frame.elapsed() > idle {
                        // A peer that stopped talking loses its slot; a
                        // live client reconnects transparently.
                        return Ok(());
                    }
                }
                continue;
            }
            PollFrame::Closed => return Ok(()),
        };
        last_frame = Instant::now();
        let mut cur = sfc_index::WalCursor::new(payload);
        let Some(request) = Request::<D, V>::decode(&mut cur) else {
            // An undecodable request is answered, not fatal: the frame
            // checksum already passed, so the bytes arrived intact and
            // the peer merely spoke a verb this side does not know.
            write_frame(
                &mut stream,
                &mut buf,
                &Response::<D, V>::Error(SfcError::Storage {
                    context: "undecodable request".into(),
                }),
            )?;
            continue;
        };
        if let Request::SubscribeEpochs { from } = request {
            return stream_epochs(stream, engine, &shared.stop, from);
        }
        let response = engine.execute(request).unwrap_or_else(Response::Error);
        match write_frame(&mut stream, &mut buf, &response) {
            // A response over MAX_FRAME was refused before any byte
            // left: answer with the typed error and keep serving.
            Err(e) if !e.is_transport() => {
                write_frame(&mut stream, &mut buf, &Response::<D, V>::Error(e))?
            }
            sent => sent?,
        }
    }
    Ok(())
}

/// The replication tap: catch the subscriber up from the WAL, then
/// forward live feed events until disconnect or shutdown, each live
/// epoch only once it is durable ([`Engine::wait_durable`]).
///
/// Ordering: subscribe to the live feed *first*, then read the WAL for
/// `(from, start_epoch]` — every epoch is thus delivered exactly once
/// (catch-up covers everything published before the subscription
/// existed; the feed covers everything after).
fn stream_epochs<C, V, const D: usize, B>(
    mut stream: TcpStream,
    engine: &Engine<C, V, D, B>,
    stop: &AtomicBool,
    from: u64,
) -> Result<(), SfcError>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
    B: Backend<Record<D, V>> + Send + Sync,
{
    let sub = engine.subscribe_epochs();
    let mut buf = Vec::new();
    // Acknowledge before anything else: once the subscriber sees this
    // frame, the live tap is registered and no later epoch can be lost —
    // a replica gates its transactor's writes on it.
    write_frame(
        &mut stream,
        &mut buf,
        &Response::<D, V>::Subscribed {
            start_epoch: sub.start_epoch(),
        },
    )?;
    if from < sub.start_epoch() {
        let frames = match engine.committed_frames_since(from) {
            Ok(frames) => frames,
            Err(e) => {
                // An in-memory transactor has no WAL to replay; tell the
                // subscriber instead of silently skipping epochs.
                write_frame(&mut stream, &mut buf, &Response::<D, V>::Error(e))?;
                return Ok(());
            }
        };
        let durable = engine.durable_epoch();
        for frame in frames {
            if frame.epoch > sub.start_epoch() {
                break; // the live feed takes over from here
            }
            write_frame(
                &mut stream,
                &mut buf,
                &Response::Epoch {
                    epoch: frame.epoch,
                    durable_epoch: durable,
                    ops: frame.ops,
                },
            )?;
        }
    }
    while !stop.load(Ordering::Acquire) {
        match sub.next_timeout(POLL_INTERVAL) {
            Some(FeedEvent::Epoch(epoch, ops)) => {
                // Ship only what a transactor crash can no longer lose: a
                // follower keeps every epoch it applies. A poisoned commit
                // pipeline ends the stream with its error instead.
                if let Err(e) = engine.wait_durable(epoch) {
                    write_frame(&mut stream, &mut buf, &Response::<D, V>::Error(e))?;
                    return Ok(());
                }
                write_frame(
                    &mut stream,
                    &mut buf,
                    &Response::Epoch {
                        epoch,
                        durable_epoch: engine.durable_epoch(),
                        ops: ops.to_vec(),
                    },
                )?;
            }
            Some(FeedEvent::Lagged) => {
                write_frame(&mut stream, &mut buf, &Response::<D, V>::Lagged)?;
                return Ok(());
            }
            None => {
                // Idle: probe the peer so a vanished subscriber does not
                // pin this handler (and its feed slot) forever.
                if is_closed(&stream) {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

/// Whether the peer has hung up: a zero-length peek after a read-ready
/// poll. Subscribers never send frames after `SubscribeEpochs`, so any
/// readable state that peeks 0 bytes is a close.
fn is_closed(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    stream.set_nonblocking(true).ok();
    let closed = matches!(stream.peek(&mut probe), Ok(0));
    stream.set_nonblocking(false).ok();
    closed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaping_keeps_only_unfinished_handlers() {
        let (release, wait) = std::sync::mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let mut handlers = vec![live];
        for _ in 0..100 {
            let exited = std::thread::spawn(|| {});
            while !exited.is_finished() {
                std::thread::yield_now();
            }
            handlers.push(exited);
        }
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "every exited handler is joined");
        assert!(!handlers[0].is_finished());
        drop(release);
        handlers.pop().unwrap().join().unwrap();
    }
}
