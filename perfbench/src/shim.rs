//! Forwarding shims around the layer traits.
//!
//! Each shim forwards every trait method — defaulted ones included —
//! to the wrapped value, so an override in the wrapped type (a
//! wake-based schedule, a faster `respond_golden`) keeps working
//! through the shim. Every forwarded call opens one span (recorded only
//! in a traced run). Counters that the end-to-end runs also need are
//! kept in plain fields.

use crate::span::{self, Layer};
use neuropuls::photonic::Environment;
use neuropuls::protocols::error::ProtocolError;
use neuropuls::protocols::gateway::{AdmissionPolicy, AdmissionRequest};
use neuropuls::protocols::transport::{Side, Transport};
use neuropuls::protocols::wire::{NextWake, Session, SessionAction};
use neuropuls::puf::bits::{Challenge, Response};
use neuropuls::puf::traits::{Puf, PufError, PufKind};
use std::cell::{Cell, RefCell};
use std::ops::DerefMut;
use std::rc::Rc;
use std::time::Instant;

thread_local! {
    /// PUF evaluations made through [`TimedPuf`] on this thread.
    static PUF_EVALS: Cell<u64> = const { Cell::new(0) };
}

/// PUF evaluations made through any [`TimedPuf`] on this thread so far.
pub fn puf_evals() -> u64 {
    PUF_EVALS.with(Cell::get)
}

fn count_evals(n: usize) {
    PUF_EVALS.with(|c| c.set(c.get() + n as u64));
}

/// `Puf` shim: one `puf` span per call, evaluations counted.
#[derive(Debug)]
pub struct TimedPuf<P> {
    inner: P,
}

impl<P: Puf> TimedPuf<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedPuf { inner }
    }
}

impl<P: Puf> Puf for TimedPuf<P> {
    fn challenge_bits(&self) -> usize {
        span::scoped(Layer::Puf, 0, || self.inner.challenge_bits())
    }

    fn response_bits(&self) -> usize {
        span::scoped(Layer::Puf, 0, || self.inner.response_bits())
    }

    fn kind(&self) -> PufKind {
        span::scoped(Layer::Puf, 0, || self.inner.kind())
    }

    fn respond(&mut self, challenge: &Challenge) -> Result<Response, PufError> {
        count_evals(1);
        span::scoped(Layer::Puf, 0, || self.inner.respond(challenge))
    }

    fn set_environment(&mut self, env: Environment) {
        span::scoped(Layer::Puf, 0, || self.inner.set_environment(env));
    }

    fn environment(&self) -> Environment {
        span::scoped(Layer::Puf, 0, || self.inner.environment())
    }

    fn respond_golden(
        &mut self,
        challenge: &Challenge,
        reads: usize,
    ) -> Result<Response, PufError> {
        count_evals(reads);
        span::scoped(Layer::Puf, 0, || {
            self.inner.respond_golden(challenge, reads)
        })
    }

    fn latency_ns(&self) -> f64 {
        span::scoped(Layer::Puf, 0, || self.inner.latency_ns())
    }

    fn throughput_gbps(&self) -> f64 {
        span::scoped(Layer::Puf, 0, || self.inner.throughput_gbps())
    }
}

/// Host-time stamps of one session: admission is the first initiator
/// step, close is the later of the two sides finishing.
#[derive(Debug, Default)]
pub struct Stamp {
    admitted: Option<Instant>,
    done: [Option<Instant>; 2],
    failed: bool,
}

impl Stamp {
    /// A fresh, shareable stamp for one session's two shims.
    pub fn shared() -> Rc<RefCell<Stamp>> {
        Rc::new(RefCell::new(Stamp::default()))
    }

    /// Admission-to-close host time, or `None` when the session failed
    /// or did not finish on both sides.
    pub fn latency_ns(&self) -> Option<u64> {
        if self.failed {
            return None;
        }
        let admitted = self.admitted?;
        let closed = self.done[0]?.max(self.done[1]?);
        Some(closed.duration_since(admitted).as_nanos() as u64)
    }
}

/// `Session` shim over anything that dereferences to a session (a
/// `Box` for owned endpoints, `&mut` for endpoints the caller reads
/// back after the run): one `wire.*` span per call, plus the latency
/// stamp when one is attached.
pub struct TimedSession<S> {
    inner: S,
    layer: Layer,
    session: u64,
    stamp: Option<Rc<RefCell<Stamp>>>,
}

impl<S> TimedSession<S>
where
    S: DerefMut,
    S::Target: Session,
{
    /// Wraps the initiator (`Side::A`) endpoint of session `session`.
    pub fn initiator(inner: S, session: u64) -> Self {
        TimedSession {
            inner,
            layer: Layer::WireInitiator,
            session,
            stamp: None,
        }
    }

    /// Wraps the responder (`Side::B`) endpoint of session `session`.
    pub fn responder(inner: S, session: u64) -> Self {
        TimedSession {
            inner,
            layer: Layer::WireResponder,
            session,
            stamp: None,
        }
    }

    /// Attaches a latency stamp shared with the peer shim.
    pub fn stamped(mut self, stamp: &Rc<RefCell<Stamp>>) -> Self {
        self.stamp = Some(Rc::clone(stamp));
        self
    }

    /// The wrapped endpoint.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn side(&self) -> usize {
        usize::from(self.layer == Layer::WireResponder)
    }
}

impl<S> Session for TimedSession<S>
where
    S: DerefMut,
    S::Target: Session,
{
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        if let Some(stamp) = &self.stamp {
            let mut stamp = stamp.borrow_mut();
            if self.layer == Layer::WireInitiator && stamp.admitted.is_none() {
                stamp.admitted = Some(Instant::now());
            }
        }
        let out = span::scoped(self.layer, self.session, || self.inner.step(incoming));
        if let Some(stamp) = &self.stamp {
            let mut stamp = stamp.borrow_mut();
            let side = self.side();
            if out.is_err() {
                stamp.failed = true;
            } else if stamp.done[side].is_none() && self.inner.done() {
                stamp.done[side] = Some(Instant::now());
            }
        }
        out
    }

    fn done(&self) -> bool {
        span::scoped(self.layer, self.session, || self.inner.done())
    }

    fn retransmits(&self) -> u32 {
        span::scoped(self.layer, self.session, || self.inner.retransmits())
    }

    fn next_wake(&self) -> NextWake {
        span::scoped(self.layer, self.session, || self.inner.next_wake())
    }

    fn skip_silence(&mut self, ticks: u32) {
        span::scoped(self.layer, self.session, || self.inner.skip_silence(ticks));
    }
}

/// `Transport` shim: one `transport` span per call; frames and bytes
/// handed to `send` are counted.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    frames: u64,
    bytes: u64,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            frames: 0,
            bytes: 0,
        }
    }

    /// Frames and bytes handed to `send` so far.
    pub fn sent(&self) -> (u64, u64) {
        (self.frames, self.bytes)
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, from: Side, frame: Vec<u8>) {
        self.frames += 1;
        self.bytes += frame.len() as u64;
        span::scoped(Layer::Transport, 0, || self.inner.send(from, frame));
    }

    fn recv(&mut self, to: Side) -> Option<Vec<u8>> {
        span::scoped(Layer::Transport, 0, || self.inner.recv(to))
    }
}

/// `AdmissionPolicy` shim: one `admission` span per call.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn AdmissionPolicy>,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn AdmissionPolicy>) -> Self {
        TimedPolicy { inner }
    }
}

impl AdmissionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        span::scoped(Layer::Admission, 0, || self.inner.name())
    }

    fn push(&mut self, request: AdmissionRequest) {
        span::scoped(Layer::Admission, 0, || self.inner.push(request));
    }

    fn pop(&mut self) -> Option<usize> {
        span::scoped(Layer::Admission, 0, || self.inner.pop())
    }

    fn len(&self) -> usize {
        span::scoped(Layer::Admission, 0, || self.inner.len())
    }

    fn is_empty(&self) -> bool {
        span::scoped(Layer::Admission, 0, || self.inner.is_empty())
    }

    fn fresh(&self) -> Box<dyn AdmissionPolicy> {
        let inner = span::scoped(Layer::Admission, 0, || self.inner.fresh());
        Box::new(TimedPolicy { inner })
    }
}
