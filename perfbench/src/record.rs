//! What the benchmark's microthreads and client thread record: one
//! process clock shared by every site, per-frame wait records, and (in
//! the traced pass) spans kept in memory.

use sdvm_core::ExecCtx;
use sdvm_types::SdvmResult;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process clock's epoch. Every site of a cluster
/// runs in this process, so a timestamp taken on one site can be compared
/// with one taken on another.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span names of the traced pass.
pub mod span {
    /// One closed-loop operation, from the client's first call to the
    /// verified result.
    pub const ITERATION: &str = "iteration";
    /// `Site::launch`, including the bootstrap.
    pub const LAUNCH: &str = "site.launch";
    /// `ProgramHandle::wait`.
    pub const WAIT: &str = "handle.wait";
    /// One microthread execution.
    pub const FRAME: &str = "frame.exec";
    /// `ExecCtx::create_frame`.
    pub const CREATE: &str = "memory.create";
    /// `ExecCtx::read`.
    pub const READ: &str = "memory.read";
    /// `ExecCtx::write`.
    pub const WRITE: &str = "memory.write";
    /// `ExecCtx::send`.
    pub const SEND: &str = "memory.send";
    /// `SiteInner::request` of one ping.
    pub const REQUEST: &str = "net.request";
}

/// One recorded span. `trace` is the program id (the ping index on
/// `ping_tcp`); a `parent` of 0 on a `frame.exec` span means "the
/// iteration of this trace", resolved after the run.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots and unresolved frame spans.
    pub parent: u64,
    /// Trace id shared by every span of one operation.
    pub trace: u64,
    /// Span name (one of [`span`]).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
}

/// One executed microframe, stamped on the site that ran it.
#[derive(Clone, Copy, Debug)]
pub struct FrameRec {
    /// Program it belongs to.
    pub program: u32,
    /// Site that executed it.
    pub site: u32,
    /// Site that created it (its address's home).
    pub home: u32,
    /// When its last parameter was sent.
    pub sent: u64,
    /// When its handler started.
    pub start: u64,
    /// When its handler finished.
    pub end: u64,
}

impl FrameRec {
    /// From its last parameter's send to its handler's start (ns).
    pub fn wait_ns(&self) -> u64 {
        self.start.saturating_sub(self.sent)
    }
}

/// An open `frame.exec` (or `site.launch`) scope that child spans hang
/// under; for a frame it also carries the frame's record until it ends.
pub struct Scope {
    id: u64,
    trace: u64,
    frame: Option<FrameRec>,
}

/// The shared recorder. Microthread closures hold it by `Arc`.
#[derive(Default)]
pub struct Recorder {
    tracing: AtomicBool,
    next_id: AtomicU64,
    frames: Mutex<Vec<FrameRec>>,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// Switch span recording on or off (between operations).
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::SeqCst)
    }

    /// A fresh span id.
    pub fn span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Store a finished span (only while tracing).
    pub fn push_span(&self, s: Span) {
        if self.tracing() {
            self.spans.lock().expect("span store poisoned").push(s);
        }
    }

    /// Open a scope for a handler that starts now. Its wait starts at the
    /// latest send time among its parameters (each a `u64` slice whose
    /// last word is its send time).
    pub fn frame_begin(&self, ctx: &ExecCtx<'_>) -> SdvmResult<Scope> {
        let start = now_ns();
        let mut sent = 0;
        for i in 0..ctx.param_count() {
            let words = ctx.param(i as u32)?.as_u64_slice()?;
            sent = sent.max(words.last().copied().unwrap_or(0));
        }
        let frame = FrameRec {
            program: ctx.program().0,
            site: ctx.site_id().0,
            home: ctx.frame_id().map(|a| a.home.0).unwrap_or(0),
            sent: sent.min(start),
            start,
            end: start,
        };
        Ok(Scope {
            id: self.span_id(),
            trace: u64::from(frame.program),
            frame: Some(frame),
        })
    }

    /// Close a handler scope: record the frame and its `frame.exec` span.
    pub fn frame_end(&self, scope: Scope) {
        let Some(mut frame) = scope.frame else {
            return;
        };
        frame.end = now_ns();
        self.push_span(Span {
            id: scope.id,
            parent: 0,
            trace: scope.trace,
            name: span::FRAME,
            start: frame.start,
            end: frame.end,
        });
        self.frames
            .lock()
            .expect("frame store poisoned")
            .push(frame);
    }

    /// A scope for the bootstrap, under the client's `site.launch` span
    /// `launch_id`; its trace is the program.
    pub fn launch_scope(&self, ctx: &ExecCtx<'_>, launch_id: u64) -> Scope {
        Scope {
            id: launch_id,
            trace: u64::from(ctx.program().0),
            frame: None,
        }
    }

    /// Run `f` (one call into a layer) as a child span `name` of `scope`.
    pub fn child<T>(&self, scope: &Scope, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing() {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.push_span(Span {
            id: self.span_id(),
            parent: scope.id,
            trace: scope.trace,
            name,
            start,
            end,
        });
        out
    }

    /// Take every frame record so far.
    pub fn take_frames(&self) -> Vec<FrameRec> {
        std::mem::take(&mut *self.frames.lock().expect("frame store poisoned"))
    }

    /// Take every span so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}
