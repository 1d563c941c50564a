//! In-memory span recorder for the traced run.
//!
//! Every shim in [`crate::shim`] opens one span per forwarded call. Spans
//! nest strictly (the gateway loop is single-threaded), so a per-thread
//! stack gives each span its parent. Nothing is recorded unless
//! [`Recording::start`] armed the recorder: the untraced runs pay one
//! thread-local flag read per shim call.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// The layer a span is charged to. Names follow the crate modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One benchmark run phase: the root span; its self time is the
    /// unattributed remainder (benchmark glue between layer calls).
    Run,
    /// `puf`: `Puf` trait calls (`PhotonicPuf` over `photonic`).
    Puf,
    /// `protocols::wire`: initiator-side `Session` calls.
    WireInitiator,
    /// `protocols::wire`: responder-side `Session` calls.
    WireResponder,
    /// `protocols::transport`: `Transport::send` / `recv`.
    Transport,
    /// `protocols::gateway`: one `run_gateway` /
    /// `run_persistent_gateway` call; self time is the loop itself.
    Gateway,
    /// `protocols::gateway::admission`: `AdmissionPolicy` calls.
    Admission,
    /// `system::crp_store`: checkout / commit.
    CrpStore,
    /// The benchmark's `KeepAlive` controller callbacks.
    KeepAlive,
    /// `protocols::secure_nn`: client-side input sealing.
    Seal,
    /// `protocols::secure_nn`: client-side output opening.
    Open,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 11] = [
        Layer::Run,
        Layer::Puf,
        Layer::WireInitiator,
        Layer::WireResponder,
        Layer::Transport,
        Layer::Gateway,
        Layer::Admission,
        Layer::CrpStore,
        Layer::KeepAlive,
        Layer::Seal,
        Layer::Open,
    ];

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Puf => "puf",
            Layer::WireInitiator => "wire.initiator",
            Layer::WireResponder => "wire.responder",
            Layer::Transport => "transport",
            Layer::Gateway => "gateway",
            Layer::Admission => "admission",
            Layer::CrpStore => "crp_store",
            Layer::KeepAlive => "keepalive",
            Layer::Seal => "secure_nn.seal",
            Layer::Open => "secure_nn.open",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer charged with the call.
    pub layer: Layer,
    /// Nanoseconds since the recording started.
    pub start: u64,
    /// Nanoseconds since the recording started.
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Wire session id the call served (0 when none applies).
    pub session: u64,
}

const NO_PARENT: u32 = u32::MAX;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State::new());
}

struct State {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl State {
    fn new() -> Self {
        State {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// An open span; closing it stamps the end time. Dropping it unclosed
/// (a panic unwinding through a shim) leaves the span open, which
/// [`Recording::finish`] reports as an error.
#[must_use]
pub struct OpenSpan(Option<u32>);

/// Opens a span charged to `layer` for `session` when recording. A
/// span opened with session 0 inherits its parent's session.
pub fn open(layer: Layer, session: u64) -> OpenSpan {
    if !enabled() {
        return OpenSpan(None);
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let now = s.origin.elapsed().as_nanos() as u64;
        let parent = s.stack.last().copied().unwrap_or(NO_PARENT);
        let session = match (session, parent) {
            (0, p) if p != NO_PARENT => s.spans[p as usize].session,
            _ => session,
        };
        let idx = s.spans.len() as u32;
        s.spans.push(Span {
            layer,
            start: now,
            end: now,
            parent,
            session,
        });
        s.stack.push(idx);
        OpenSpan(Some(idx))
    })
}

impl OpenSpan {
    /// Closes the span.
    pub fn close(self) {
        let Some(idx) = self.0 else { return };
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let now = s.origin.elapsed().as_nanos() as u64;
            let popped = s.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close in LIFO order");
            s.spans[idx as usize].end = now;
        });
    }
}

/// Runs `f` inside a span.
pub fn scoped<R>(layer: Layer, session: u64, f: impl FnOnce() -> R) -> R {
    let span = open(layer, session);
    let out = f();
    span.close();
    out
}

/// Arms the recorder for one traced run phase.
pub struct Recording(());

impl Recording {
    /// Clears any earlier spans and starts recording on this thread.
    pub fn start() -> Self {
        STATE.with(|s| *s.borrow_mut() = State::new());
        ENABLED.with(|e| e.set(true));
        Recording(())
    }

    /// Stops recording and hands back the spans.
    ///
    /// # Errors
    ///
    /// A span left open (its call never returned through the shim).
    pub fn finish(self) -> Result<Vec<Span>, String> {
        ENABLED.with(|e| e.set(false));
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if !s.stack.is_empty() {
                return Err(format!("{} spans left open", s.stack.len()));
            }
            Ok(std::mem::take(&mut s.spans))
        })
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        ENABLED.with(|e| e.set(false));
    }
}

/// Self time per layer: each span's duration minus the time its direct
/// children cover, summed per layer (nanoseconds, indexed like
/// [`Layer::ALL`]).
pub fn self_times(spans: &[Span]) -> [u64; Layer::ALL.len()] {
    let mut child_time = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_time[span.parent as usize] += span.end - span.start;
        }
    }
    let mut out = [0u64; Layer::ALL.len()];
    for (span, children) in spans.iter().zip(&child_time) {
        out[span.layer.index()] += (span.end - span.start).saturating_sub(*children);
    }
    out
}

/// Total span time of `layer`, in nanoseconds.
pub fn total_time(spans: &[Span], layer: Layer) -> u64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.end - s.start)
        .sum()
}

/// Writes the spans as JSON lines: one object per span with its index,
/// layer name, start, end, parent index (-1 for a root) and session.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
            s.layer.name(),
            s.start,
            s.end,
            s.session
        )?;
    }
    out.flush()
}
