//! `attest_burst`: §III-B attestation rounds on the batch gateway.
//!
//! Devices come from the one-call manufacturing flow; the verifier
//! holds a `PhotonicPuf` model of each die and a golden copy of each
//! firmware image. Every round submits one session per device to one
//! `run_gateway` call with fewer active slots than sessions, so the
//! admission backlog is real: a closed loop of [`MAX_ACTIVE`] clients.

use crate::shim::{Stamp, TimedPolicy, TimedSession, TimedTransport};
use crate::span::{self, Layer};
use crate::{derive, derive_bytes, link, Digest, Pass, Setup, Size};
use neuropuls::manufacture::{manufacture, ManufactureConfig};
use neuropuls::photonic::process::DieId;
use neuropuls::protocols::attestation::{
    run_wire_attestation, AttestationVerifier, AttestingDevice, TimingModel,
    WireAttestationVerifier, WireAttestingDevice, CHUNK_BYTES,
};
use neuropuls::protocols::error::ProtocolError;
use neuropuls::protocols::gateway::{run_gateway, Fifo, GatewayConfig, SessionPair};
use neuropuls::protocols::transport::{Channel, FaultyChannel};
use neuropuls::protocols::wire::{ProtocolId, SessionConfig};
use neuropuls::puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::{Registry, Tracer};

/// Sessions running at once: the closed loop's client count.
pub const MAX_ACTIVE: usize = 16;
/// Sessions staged between the policy backlog and the active set.
const ACCEPT_QUEUE: usize = 4;

/// Shape of the burst.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Attesting devices.
    pub devices: usize,
    /// Rounds; each attests every device once.
    pub rounds: usize,
    /// Firmware image size in bytes.
    pub image_bytes: usize,
}

impl Params {
    /// The measured burst, or a small one for the determinism tests.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Params {
                devices: 32,
                rounds: 32,
                image_bytes: 320,
            },
            Size::Small => Params {
                devices: 4,
                rounds: 3,
                image_bytes: 192,
            },
        }
    }

    /// PUF evaluations one completed session makes: the walk visits
    /// every chunk once, on the device and again on the verifier model.
    pub fn evals_per_session(&self) -> u64 {
        2 * self.image_bytes.div_ceil(CHUNK_BYTES) as u64
    }
}

const STREAM_DIE: u64 = 11;
const STREAM_IMAGE: u64 = 12;
const STREAM_LINK: u64 = 13;

/// Manufactured devices and their verifier records.
pub struct State {
    devices: Vec<AttestingDevice>,
    verifiers: Vec<AttestationVerifier>,
    link: TimedTransport<FaultyChannel>,
    params: Params,
    /// Byte 7 of device 0's image, which the gate flips.
    gate_byte: u8,
}

/// Manufactures the devices and builds each verifier's die model.
///
/// # Errors
///
/// A manufacturing failure.
pub fn setup(seed: u64, size: Size) -> Result<Setup<State>, String> {
    let params = Params::new(size);
    let mut devices = Vec::with_capacity(params.devices);
    let mut verifiers = Vec::with_capacity(params.devices);
    let mut puf_evals = 0;
    let mut gate_byte = 0;
    for i in 0..params.devices {
        let die_id = derive(seed, STREAM_DIE, i as u64);
        let mut lot = manufacture(&ManufactureConfig {
            die_id,
            noise_seed: die_id ^ 0xA11CE,
            ..ManufactureConfig::default()
        })
        .map_err(|e| format!("attest_burst: manufacturing device {i} failed: {e:?}"))?;
        puf_evals += lot.device.evaluations() + lot.weak.inner_mut().evaluations();
        let image = derive_bytes(seed ^ i as u64, STREAM_IMAGE, params.image_bytes);
        if i == 0 {
            gate_byte = image[7];
        }
        let model = PhotonicPuf::reference(DieId(die_id), 0);
        verifiers.push(AttestationVerifier::new(
            model,
            image.clone(),
            TimingModel::photonic(),
        ));
        devices.push(AttestingDevice::new(
            lot.device,
            image,
            TimingModel::photonic(),
        ));
    }
    Ok(Setup {
        state: State {
            devices,
            verifiers,
            link: link(derive(seed, STREAM_LINK, 0)),
            params,
            gate_byte,
        },
        puf_evals,
    })
}

/// Runs every round on its own `run_gateway` call over the shared link.
///
/// # Errors
///
/// A session that did not complete.
pub fn run(state: &mut State) -> Result<Pass, String> {
    let params = state.params;
    let cfg = SessionConfig {
        max_retries: 10,
        ..SessionConfig::default()
    };
    let mut digest = Digest::new("attest_burst");
    let mut pass = Pass::default();
    let c = &mut pass.counters;
    for round in 0..params.rounds {
        let stamps: Vec<_> = (0..params.devices).map(|_| Stamp::shared()).collect();
        let mut verifier_sides: Vec<_> = state
            .verifiers
            .iter_mut()
            .enumerate()
            .map(|(d, v)| WireAttestationVerifier::new(v, session_id(params, round, d), cfg))
            .collect();
        let mut device_sides: Vec<_> = state
            .devices
            .iter_mut()
            .map(|d| WireAttestingDevice::new(d, cfg))
            .collect();
        let sessions: Vec<SessionPair<'_>> = verifier_sides
            .iter_mut()
            .zip(device_sides.iter_mut())
            .enumerate()
            .map(|(d, (v, dev))| {
                let sid = session_id(params, round, d);
                SessionPair::new(
                    ProtocolId::Attestation,
                    sid,
                    Box::new(TimedSession::initiator(v, sid).stamped(&stamps[d])),
                    Box::new(TimedSession::responder(dev, sid).stamped(&stamps[d])),
                )
            })
            .collect();
        let link = &mut state.link;
        let report = span::scoped(Layer::Gateway, 0, || {
            run_gateway(
                link,
                sessions,
                GatewayConfig {
                    max_active: MAX_ACTIVE,
                    accept_queue: ACCEPT_QUEUE,
                    max_ticks: 1 << 16,
                    policy: Box::new(TimedPolicy::new(Box::new(Fifo::new()))),
                },
                &mut Tracer::disabled(),
                &Registry::new(),
            )
        });
        // Frames still in flight belong to closed sessions: drain them
        // as late so the next round starts on an empty link.
        let drained = state.link.inner_mut().drain_late() as u64;
        for v in [
            report.ticks,
            report.completed as u64,
            report.failed as u64,
            report.retransmits,
            report.session_steps,
            report.late_frames,
            drained,
        ] {
            digest.u64(v);
        }
        for o in &report.outcomes {
            digest.u64(o.id);
            digest.u64(o.result.as_ref().map_or(u64::MAX, |t| u64::from(*t)));
            digest.u64(u64::from(o.retransmits));
            digest.u64(o.admitted_at.unwrap_or(u64::MAX));
            if let Some(at) = o.admitted_at {
                c.admission_waits.push(at);
            }
            if let Err(e) = &o.result {
                return Err(format!("attest_burst: session {} failed: {e:?}", o.id));
            }
        }
        pass.attempted += report.sessions as u64;
        pass.completed += report.completed as u64;
        pass.latencies_ns
            .extend(stamps.iter().filter_map(|s| s.borrow().latency_ns()));
        c.ticks += report.ticks;
        c.session_steps += report.session_steps;
        c.dense_equiv_steps += report.dense_equiv_steps;
        c.retransmits += report.retransmits;
        c.late_frames += report.late_frames + drained;
        c.peak_active = c.peak_active.max(report.peak_active as u64);
    }
    let (frames, bytes) = state.link.sent();
    c.frames = frames;
    c.bytes = bytes;
    c.dropped = state.link.inner_mut().stats().dropped as u64;
    // Derived, not measured: `PhotonicPuf` does not count the walk's
    // noise-free evaluations, and the walk's PUF is a concrete type no
    // shim can wrap.
    c.puf_evals = pass.completed * params.evals_per_session();
    pass.digest = digest.finish();
    Ok(pass)
}

fn session_id(params: Params, round: usize, device: usize) -> u64 {
    (round * params.devices + device) as u64 + 1
}

/// Gate: an image corrupted by one byte must fail attestation with a
/// digest mismatch.
///
/// # Errors
///
/// The corrupted image attested, or failed for another reason.
pub fn gate(mut state: State) -> Result<(), String> {
    let device = &mut state.devices[0];
    device.corrupt_memory(7, state.gate_byte ^ 0x01);
    let report = run_wire_attestation(
        &mut Channel::new(),
        device,
        &mut state.verifiers[0],
        u64::MAX,
        SessionConfig::default(),
        &mut Tracer::disabled(),
    );
    match report.result {
        Err(ProtocolError::AttestationDigestMismatch) => Ok(()),
        other => Err(format!(
            "attest_burst gate: a corrupted image gave {other:?}, not a digest mismatch"
        )),
    }
}
