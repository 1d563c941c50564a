//! End-to-end and per-layer benchmark of the §III services stack.
//!
//! Three workloads drive the verifier gateway through the public API
//! of the `neuropuls` crates:
//!
//! * [`auth_fleet`] — §III-A mutual re-authentication of a resident
//!   fleet on the persistent keep-alive gateway (noisy PUF path, timer
//!   wheel, CRP store);
//! * [`attest_burst`] — §III-B attestation rounds on the batch gateway
//!   (deterministic pPUF walk on both sides, SHA-256 chain, admission
//!   backlog);
//! * [`sealed_infer`] — §III-C batched sealed inference on the batch
//!   gateway (no PUF evaluations: accelerator, ChaCha20/HMAC, 8 KiB
//!   chunk frames).
//!
//! Every workload shares one faulty link ([`link`]) so ARQ retransmits
//! and late frames are exercised. [`runner`] times set-up and run
//! phases from outside; [`shim`] and [`span`] give the traced run its
//! per-layer time split.

pub mod attest_burst;
pub mod auth_fleet;
pub mod runner;
pub mod sealed_infer;
pub mod shim;
pub mod span;

use crate::shim::TimedTransport;
use neuropuls::crypto::sha256::Sha256;
use neuropuls::photonic::process::DieId;
use neuropuls::protocols::transport::{FaultRates, FaultyChannel};
use neuropuls::puf::bits::Challenge;
use neuropuls::puf::photonic::PhotonicPuf;
use neuropuls::puf::traits::Puf;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::SeedableRng;
use std::time::Instant;

/// The shared link every workload runs over: 10 % frame loss, so ARQ
/// retransmits, and 2 % duplication, so copies of a session's last
/// frames arrive after it closed (late frames).
pub fn link(seed: u64) -> TimedTransport<FaultyChannel> {
    TimedTransport::new(FaultyChannel::new(
        FaultRates {
            drop: 0.1,
            duplicate: 0.02,
            ..FaultRates::none()
        },
        seed,
    ))
}

/// Workload size: `Full` is what the benchmark measures, `Small` keeps
/// the same shape at a size the determinism tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few sessions, same code paths.
    Small,
}

/// Deterministic outcome and counters of one run phase.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Digest of everything deterministic the run produced.
    pub digest: [u8; 32],
    /// Sessions (or epochs) started.
    pub attempted: u64,
    /// Sessions (or epochs) completed successfully.
    pub completed: u64,
    /// Admission-to-close host time of each completed session.
    pub latencies_ns: Vec<u64>,
    /// Per-layer operation counts.
    pub counters: Counters,
}

/// Operation counts of one run phase, read from the layers' own
/// reports and the shims.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Gateway ticks processed.
    pub ticks: u64,
    /// Real `Session::step` calls the gateway made.
    pub session_steps: u64,
    /// Steps a dense poll loop would have made.
    pub dense_equiv_steps: u64,
    /// ARQ retransmissions.
    pub retransmits: u64,
    /// Frames that arrived for closed sessions.
    pub late_frames: u64,
    /// Most sessions active at once.
    pub peak_active: u64,
    /// Frames handed to the transport.
    pub frames: u64,
    /// Bytes handed to the transport.
    pub bytes: u64,
    /// Frames the lossy link dropped.
    pub dropped: u64,
    /// Backlog wait of every admitted session, in ticks.
    pub admission_waits: Vec<u64>,
    /// CRP-store checkouts plus commits.
    pub crp_ops: u64,
    /// CRP-store hot-set hits.
    pub crp_hits: u64,
    /// CRP-store archive misses.
    pub crp_misses: u64,
    /// PUF evaluations made by the run.
    pub puf_evals: u64,
    /// Inferences the accelerators executed.
    pub inferences: u64,
    /// MACs the accelerators executed.
    pub macs: u64,
    /// Gaussian noise draws the accelerators consumed.
    pub noise_draws: u64,
    /// Items the client sealed.
    pub sealed_items: u64,
    /// Items the client opened.
    pub opened_items: u64,
}

/// A set-up phase's product: the state the run phase consumes.
pub struct Setup<S> {
    /// Everything the run phase needs.
    pub state: S,
    /// PUF evaluations the set-up made.
    pub puf_evals: u64,
}

/// Incremental digest over the deterministic results of a run.
pub struct Digest(Sha256);

impl Digest {
    /// An empty digest labelled with the workload name.
    pub fn new(label: &str) -> Self {
        let mut h = Sha256::new();
        h.update(label.as_bytes());
        Digest(h)
    }

    /// Folds in one number.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// The final digest.
    pub fn finish(self) -> [u8; 32] {
        self.0.finalize()
    }
}

/// Stretches `(seed, stream, index)` into one 64-bit value (SplitMix64
/// finaliser), so every input of a workload derives from the seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` bytes derived from `(seed, stream)`.
pub fn derive_bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| derive(seed, stream, i as u64) as u8)
        .collect()
}

/// Mean host time of one noise-free `PhotonicPuf` evaluation
/// (`respond_deterministic`), in microseconds, over `n` evaluations of
/// a fresh reference die. Used where the PUF sits behind a concrete
/// type the shims cannot wrap.
pub fn probe_deterministic_eval_us(n: usize) -> f64 {
    let mut puf = PhotonicPuf::reference(DieId(0x9B0B), 1);
    let mut rng = StdRng::seed_from_u64(0x9B0B);
    let challenges: Vec<Challenge> = (0..n)
        .map(|_| Challenge::random(puf.challenge_bits(), &mut rng))
        .collect();
    let start = Instant::now();
    for c in &challenges {
        let r = puf.respond_deterministic(c);
        std::hint::black_box(r.expect("reference challenges fit the die"));
    }
    start.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}
