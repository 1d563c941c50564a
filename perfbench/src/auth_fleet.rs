//! `auth_fleet`: §III-A mutual re-authentication of a resident fleet on
//! the persistent keep-alive gateway.
//!
//! The controller mirrors the policy of `system::fleet`'s persistent
//! fleet: the verifier record is checked out of the sharded CRP store
//! when a slot's timer fires and committed back when the epoch closes,
//! the next fire is re-armed one jittered period after the last, and a
//! device failing twice in a row is evicted. It is rebuilt here from
//! public pieces so set-up is timed on its own and every device's PUF
//! sits behind the [`TimedPuf`] shim.

use crate::shim::{self, TimedPolicy, TimedPuf, TimedSession};
use crate::span::{self, Layer};
use crate::{derive, derive_bytes, link, Counters, Digest, Pass, Setup, Size};
use neuropuls::photonic::process::DieId;
use neuropuls::protocols::error::ProtocolError;
use neuropuls::protocols::gateway::{
    run_persistent_gateway, ClassId, EpochOutcome, EpochSession, Fifo, KeepAlive, PersistentConfig,
    SlotVerdict,
};
use neuropuls::protocols::mutual_auth::{
    run_wire_session, Device, Verifier, WireDevice, WireVerifier,
};
use neuropuls::protocols::transport::Channel;
use neuropuls::protocols::wire::{ProtocolId, SessionConfig};
use neuropuls::puf::photonic::PhotonicPuf;
use neuropuls::system::crp_store::{CrpStore, CrpStoreConfig};
use neuropuls::system::fleet::PersistentFleetConfig;
use neuropuls_rt::trace::{Registry, Tracer};
use std::time::Instant;

type AuthPuf = TimedPuf<PhotonicPuf>;
type AuthDevice = Device<AuthPuf>;
type Initiator = TimedSession<Box<WireVerifier<Verifier>>>;
type Responder = TimedSession<Box<WireDevice<AuthDevice, AuthPuf>>>;

/// Shape of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Resident devices.
    pub devices: usize,
    /// Re-authentication epochs per device.
    pub epochs: u32,
    /// Ticks between a device's fires.
    pub period: u64,
    /// Largest jitter added to each period.
    pub jitter: u64,
}

impl Params {
    /// The measured fleet, or a small one for the determinism tests.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Params {
                devices: 256,
                epochs: 4,
                period: 512,
                jitter: 64,
            },
            Size::Small => Params {
                devices: 6,
                epochs: 2,
                period: 64,
                jitter: 16,
            },
        }
    }

    fn horizon(&self) -> u64 {
        (self.period + self.jitter) * (u64::from(self.epochs) + 2)
    }
}

/// Ticks an epoch may stay live before it is closed as missed.
const EPOCH_BUDGET: u64 = 256;
/// Consecutive failed epochs before a device is evicted.
const MAX_CONSECUTIVE_FAILURES: u32 = 2;

/// Stream labels for [`derive`].
const STREAM_DIE: u64 = 1;
const STREAM_MEMORY: u64 = 2;
const STREAM_JITTER: u64 = 3;
const STREAM_LINK: u64 = 4;

/// The provisioned fleet, ready for one run.
pub struct State {
    controller: Controller,
    first_fire: Vec<u64>,
    link_seed: u64,
    params: Params,
}

struct Controller {
    params: Params,
    seed: u64,
    cfg: SessionConfig,
    devices: Vec<Option<AuthDevice>>,
    store: CrpStore<Verifier>,
    last_fire: Vec<u64>,
    fired_at: Vec<Option<Instant>>,
    fails: Vec<u32>,
    evicted: Vec<bool>,
    /// `(device, epoch, ok, ticks, retransmits, missed)` per closed epoch.
    records: Vec<(usize, u32, bool, u32, u32, bool)>,
    latencies_ns: Vec<u64>,
    crp_ops: u64,
}

impl Controller {
    fn jitter(&self, slot: usize, epoch: u32) -> u64 {
        derive(
            self.seed,
            STREAM_JITTER,
            ((slot as u64) << 32) | u64::from(epoch),
        ) % (self.params.jitter + 1)
    }

    fn session_id(&self, slot: usize, epoch: u32) -> u64 {
        u64::from(epoch) * self.params.devices as u64 + slot as u64 + 1
    }

    fn fire(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
    ) -> Option<EpochSession<Initiator, Responder>> {
        if epoch >= self.params.epochs {
            return None;
        }
        let device = self.devices[slot].take()?;
        let checkout = span::scoped(Layer::CrpStore, 0, || self.store.checkout(slot as u64));
        self.crp_ops += 1;
        let Ok(verifier) = checkout else {
            self.devices[slot] = Some(device);
            return None;
        };
        self.last_fire[slot] = now;
        let sid = self.session_id(slot, epoch);
        Some(EpochSession {
            protocol: ProtocolId::MutualAuth,
            id: sid,
            initiator: TimedSession::initiator(
                Box::new(WireVerifier::new(verifier, sid, self.cfg)),
                sid,
            ),
            responder: TimedSession::responder(Box::new(WireDevice::new(device, self.cfg)), sid),
        })
    }

    fn close(
        &mut self,
        slot: usize,
        epoch: u32,
        outcome: &EpochOutcome,
        initiator: Initiator,
        responder: Responder,
    ) -> SlotVerdict {
        let verifier = initiator.into_inner().into_inner();
        let device = responder.into_inner().into_inner();
        // Every commit follows its own checkout, so it cannot fail; a
        // lost record would show as a failed fire and break the
        // conservation gate.
        let _ = span::scoped(Layer::CrpStore, 0, || {
            self.store.commit(slot as u64, verifier)
        });
        self.crp_ops += 1;
        self.devices[slot] = Some(device);
        let ticks = *outcome.result.as_ref().unwrap_or(&0);
        self.records.push((
            slot,
            epoch,
            outcome.succeeded(),
            ticks,
            outcome.retransmits,
            outcome.missed_deadline,
        ));
        if outcome.succeeded() {
            if let Some(at) = self.fired_at[slot] {
                self.latencies_ns.push(at.elapsed().as_nanos() as u64);
            }
            self.fails[slot] = 0;
        } else {
            self.fails[slot] += 1;
            if self.fails[slot] >= MAX_CONSECUTIVE_FAILURES {
                self.evicted[slot] = true;
                return SlotVerdict::Evict;
            }
        }
        SlotVerdict::Rearm {
            at: self.last_fire[slot] + self.params.period + self.jitter(slot, epoch + 1),
        }
    }
}

impl KeepAlive for Controller {
    type Initiator = Initiator;
    type Responder = Responder;

    fn on_fire(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
    ) -> Option<EpochSession<Initiator, Responder>> {
        // Admission: the host-time latency of an epoch starts here.
        self.fired_at[slot] = Some(Instant::now());
        let sid = self.session_id(slot, epoch);
        span::scoped(Layer::KeepAlive, sid, || self.fire(slot, epoch, now))
    }

    fn on_close(
        &mut self,
        slot: usize,
        epoch: u32,
        _now: u64,
        outcome: &EpochOutcome,
        initiator: Initiator,
        responder: Responder,
    ) -> SlotVerdict {
        let sid = self.session_id(slot, epoch);
        span::scoped(Layer::KeepAlive, sid, || {
            self.close(slot, epoch, outcome, initiator, responder)
        })
    }

    fn class(&self, _slot: usize) -> ClassId {
        ClassId::CONTROL_AUTH
    }
}

/// Provisions the fleet: one reference die per device, `r_0` enrolled
/// with the verifier, verifier records enrolled in the CRP store.
///
/// # Errors
///
/// A die that cannot be provisioned, or a store enrollment failure.
pub fn setup(seed: u64, size: Size) -> Result<Setup<State>, String> {
    let params = Params::new(size);
    let evals_before = shim::puf_evals();
    // The persistent fleet's own CRP-store geometry: its hot sets are far
    // smaller than the fleet, so round-robin fires mostly miss and take
    // the archive promote/evict path.
    let fleet = PersistentFleetConfig::default();
    let mut store = CrpStore::new(CrpStoreConfig {
        shards: fleet.crp_shards,
        hot_capacity: fleet.crp_hot_capacity,
    });
    let mut devices = Vec::with_capacity(params.devices);
    for i in 0..params.devices {
        let die = DieId(derive(seed, STREAM_DIE, i as u64));
        let puf = TimedPuf::new(PhotonicPuf::reference(die, 1));
        let memory = derive_bytes(seed ^ i as u64, STREAM_MEMORY, 256);
        let (device, provisioned) = Device::provision(puf, memory, b"perfbench-auth")
            .map_err(|e| format!("auth_fleet: provisioning device {i} failed: {e:?}"))?;
        store
            .enroll(
                i as u64,
                Verifier::new(provisioned, b"perfbench-auth-verifier"),
            )
            .map_err(|e| format!("auth_fleet: enrolling device {i} failed: {e:?}"))?;
        devices.push(Some(device));
    }
    let mut controller = Controller {
        params,
        seed,
        cfg: SessionConfig {
            // Enough retries that a 10% lossy link costs retransmits,
            // never epochs.
            max_retries: 10,
            ..SessionConfig::default()
        },
        devices,
        store,
        last_fire: vec![0; params.devices],
        fired_at: vec![None; params.devices],
        fails: vec![0; params.devices],
        evicted: vec![false; params.devices],
        records: Vec::new(),
        latencies_ns: Vec::new(),
        crp_ops: 0,
    };
    let first_fire = (0..params.devices)
        .map(|slot| 1 + controller.jitter(slot, 0))
        .collect();
    controller
        .records
        .reserve(params.devices * params.epochs as usize);
    Ok(Setup {
        state: State {
            controller,
            first_fire,
            link_seed: derive(seed, STREAM_LINK, 0),
            params,
        },
        puf_evals: shim::puf_evals() - evals_before,
    })
}

/// Runs every device's epochs on one persistent gateway over the shared
/// lossy link.
///
/// Every scheduled epoch counts as attempted. A die with a noisy CRP can
/// fail two epochs in a row and be evicted, as in the persistent fleet;
/// its epochs that never fired count as failed.
///
/// # Errors
///
/// A broken epoch conservation identity, or a device still resident
/// that did not fire every epoch.
pub fn run(state: &mut State) -> Result<Pass, String> {
    let evals_before = shim::puf_evals();
    let mut link = link(state.link_seed);
    let params = state.params;
    let controller = &mut state.controller;
    let gw = span::scoped(Layer::Gateway, 0, || {
        run_persistent_gateway(
            &mut link,
            &state.first_fire,
            controller,
            PersistentConfig {
                horizon: params.horizon(),
                epoch_budget: EPOCH_BUDGET,
                policy: Box::new(TimedPolicy::new(Box::new(Fifo::new()))),
            },
            &mut Tracer::disabled(),
            &Registry::new(),
        )
    });
    let expected = params.devices as u64 * u64::from(params.epochs);
    let closed = gw.epochs_completed + gw.epochs_failed + gw.epochs_missed;
    if closed != gw.epochs_fired || controller.records.len() as u64 != gw.epochs_fired {
        return Err(format!(
            "auth_fleet: epoch conservation broken: fired {} completed {} failed {} missed {} records {}",
            gw.epochs_fired,
            gw.epochs_completed,
            gw.epochs_failed,
            gw.epochs_missed,
            controller.records.len()
        ));
    }
    let mut fired = vec![0u32; params.devices];
    for record in &controller.records {
        fired[record.0] += 1;
    }
    let short =
        (0..params.devices).find(|&slot| !controller.evicted[slot] && fired[slot] != params.epochs);
    let evicted = controller.evicted.iter().filter(|&&e| e).count();
    if let Some(slot) = short {
        return Err(format!(
            "auth_fleet: resident device {slot} fired {} of {} epochs inside the horizon",
            fired[slot], params.epochs
        ));
    }
    if evicted != gw.evicted {
        return Err(format!(
            "auth_fleet: the gateway reports {} evictions, the controller {evicted}",
            gw.evicted
        ));
    }

    controller.records.sort_unstable_by_key(|r| (r.0, r.1));
    let mut digest = Digest::new("auth_fleet");
    for v in [
        gw.ticks,
        gw.epochs_fired,
        gw.epochs_completed,
        gw.epochs_failed,
        gw.epochs_missed,
        gw.evicted as u64,
        gw.retransmits,
        gw.session_steps,
        gw.dense_equiv_steps,
        gw.late_frames,
        gw.peak_live as u64,
    ] {
        digest.u64(v);
    }
    for (device, epoch, ok, ticks, retransmits, missed) in &controller.records {
        for v in [
            *device as u64,
            u64::from(*epoch),
            u64::from(*ok),
            u64::from(*ticks),
            u64::from(*retransmits),
            u64::from(*missed),
        ] {
            digest.u64(v);
        }
    }

    let crp = controller.store.stats();
    let (frames, bytes) = link.sent();
    Ok(Pass {
        digest: digest.finish(),
        attempted: expected,
        completed: gw.epochs_completed,
        latencies_ns: std::mem::take(&mut controller.latencies_ns),
        counters: Counters {
            ticks: gw.ticks,
            session_steps: gw.session_steps,
            dense_equiv_steps: gw.dense_equiv_steps,
            retransmits: gw.retransmits,
            late_frames: gw.late_frames,
            peak_active: gw.peak_live as u64,
            frames,
            bytes,
            dropped: link.inner_mut().stats().dropped as u64,
            // The persistent gateway admits every fire on its own tick:
            // the policy only orders same-tick fires.
            admission_waits: vec![0; gw.epochs_fired as usize],
            crp_ops: controller.crp_ops,
            crp_hits: crp.hits,
            crp_misses: crp.misses,
            puf_evals: shim::puf_evals() - evals_before,
            ..Counters::default()
        },
    })
}

/// Sessions the gate may spend on a tampered device whose noisy PUF
/// read failed the session before its memory hash was looked at.
const GATE_ATTEMPTS: u64 = 4;

/// Gate: a resident device whose firmware memory was tampered with must
/// be rejected by its verifier record for a memory-hash mismatch.
///
/// The verifier checks the MAC, keyed by the device's PUF response,
/// before the memory hash, and commits nothing on a rejection; a session
/// lost to a noisy read (uncorrectable, or corrected to a response the
/// MAC check rejects) is therefore repeated, up to [`GATE_ATTEMPTS`].
///
/// # Errors
///
/// Every device evicted, the tampered device authenticated, failed for
/// another reason, or gave a noisy read on every attempt.
pub fn gate(mut state: State) -> Result<(), String> {
    let c = &mut state.controller;
    let slot = (0..c.params.devices)
        .find(|&slot| !c.evicted[slot])
        .ok_or("auth_fleet gate: every device was evicted")?;
    let mut device = c.devices[slot]
        .take()
        .ok_or(format!("auth_fleet gate: device {slot} is missing"))?;
    let mut verifier = c
        .store
        .checkout(slot as u64)
        .map_err(|e| format!("auth_fleet gate: {e:?}"))?;
    // Memory derivation as in `setup`.
    let original = derive_bytes(c.seed ^ slot as u64, STREAM_MEMORY, 256)[100];
    device.corrupt_memory(100, original ^ 0x01);
    let mut last = None;
    for attempt in 0..GATE_ATTEMPTS {
        let report = run_wire_session(
            &mut Channel::new(),
            &mut device,
            &mut verifier,
            u64::MAX - attempt,
            c.cfg,
            &mut Tracer::disabled(),
        );
        match report.result {
            Err(ProtocolError::AuthenticationFailed(msg)) if msg.contains("memory") => {
                return Ok(())
            }
            // A read the fuzzy extractor could not correct, or corrected
            // to the wrong response.
            Err(e @ (ProtocolError::Crypto(_) | ProtocolError::Puf(_))) => last = Some(e),
            Err(ProtocolError::AuthenticationFailed(msg)) if msg.contains("MAC invalid") => {
                last = Some(ProtocolError::AuthenticationFailed(msg));
            }
            other => {
                return Err(format!(
                    "auth_fleet gate: tampered device {slot} gave {other:?}, not a memory-hash rejection"
                ))
            }
        }
    }
    Err(format!(
        "auth_fleet gate: tampered device {slot} gave a noisy read {GATE_ATTEMPTS} times, last {last:?}"
    ))
}
