//! In-memory spans for the traced run, written out when the run ends.
//!
//! Each request gets a root span; every public call made for it (the
//! replays through lower layers, then the request itself) is a child span
//! of that root. The calls run one after another, not nested, so a
//! layer's self time is its call's duration minus the next-lower call's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `index.query_rect`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span, `u32::MAX` for a root.
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
}

/// Spans kept per run: about the first 25k requests' worth, so a long
/// traced run writes a file of a few MB rather than one line per call
/// served. Later calls are still timed; only their spans are not kept.
pub const MAX_SPANS: usize = 1 << 17;

/// Span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    request: u32,
    root: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            request: 0,
            root: u32::MAX,
        }
    }
}

impl Tracer {
    fn keep(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        }
    }

    /// Spans kept, and requests begun.
    pub fn kept(&self) -> (usize, u32) {
        (self.spans.len(), self.request)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request named `name`.
    pub fn begin(&mut self, name: &'static str) {
        self.request += 1;
        self.root = self.spans.len() as u32;
        let now = self.now_ns();
        self.keep(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: u32::MAX,
            request: self.request,
        });
    }

    /// Closes the current request's root span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.end_ns = now;
        }
    }

    /// Runs `f` as a child span of the current request and returns its
    /// result with the span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.keep(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            request: self.request,
        });
        (out, end_ns - start_ns)
    }

    /// Writes every span as a tab-separated row:
    /// `id name start_ns end_ns parent request`.
    ///
    /// # Errors
    /// On I/O failure.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
