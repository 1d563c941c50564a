//! `sealed_infer`: §III-C batched sealed inference on the batch gateway.
//!
//! Every accelerator comes from the one-call manufacturing flow and
//! holds the E21 reference MLP, sealed by its `NetworkOwner` under the
//! device key and loaded at set-up. All sessions of a run go through one
//! `run_gateway` call with a closed loop of [`MAX_ACTIVE`] clients; each
//! ships one sealed batch to an already-loaded accelerator. The client
//! seals its inputs and opens its outputs inside the timed run. The run
//! makes no PUF evaluation.

use crate::shim::{Stamp, TimedPolicy, TimedSession, TimedTransport};
use crate::span::{self, Layer};
use crate::{derive, link, Digest, Pass, Setup, Size};
use neuropuls::accel::engine::{AnalogModel, PhotonicEngine};
use neuropuls::manufacture::{manufacture, ManufactureConfig};
use neuropuls::protocols::gateway::{run_gateway, Fifo, GatewayConfig, SessionPair};
use neuropuls::protocols::secure_nn::{
    share_accelerator, NetworkOwner, SecureAccelerator, SharedAccelerator, WireNnBatchClient,
    WireNnBatchServer,
};
use neuropuls::protocols::transport::FaultyChannel;
use neuropuls::protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_bench::experiments::accel_throughput::{reference_network, REFERENCE_WIDTH};
use neuropuls_rt::trace::{Registry, Tracer};

/// Sessions running at once: the closed loop's client count.
pub const MAX_ACTIVE: usize = 16;
/// Sessions staged between the policy backlog and the active set.
const ACCEPT_QUEUE: usize = 4;
/// Inputs per sealed batch.
pub const BATCH: usize = 16;
/// Distinct input vectors the batches draw from.
const INPUT_POOL: usize = 64;
/// Bounds on how far the analog outputs may sit from the noise-free
/// computation of the same quantized network, relative to the RMS of
/// the noise-free outputs: the RMS deviation, and the worst single
/// one. The reference model's per-MAC noise (σ = 0.5 %) gives about
/// 0.025 and 0.2; a wrong network, key or input gives about 1.
const MAX_RMS_DEVIATION: f64 = 0.05;
const MAX_DEVIATION: f64 = 0.5;

/// Shape of the run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Accelerators, each holding its own sealed copy of the network.
    pub accelerators: usize,
    /// Batched sessions per run.
    pub sessions: usize,
}

impl Params {
    /// The measured run, or a small one for the determinism tests.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Params {
                accelerators: 32,
                sessions: 2000,
            },
            Size::Small => Params {
                accelerators: 2,
                sessions: 40,
            },
        }
    }
}

const STREAM_DIE: u64 = 21;
const STREAM_INPUT: u64 = 22;
const STREAM_PICK: u64 = 23;
const STREAM_LINK: u64 = 24;

/// Loaded accelerators, their owners and the client inputs.
pub struct State {
    owners: Vec<NetworkOwner>,
    accels: Vec<SharedAccelerator>,
    inputs: Vec<Vec<f64>>,
    /// Per session: indices into `inputs`.
    batches: Vec<Vec<usize>>,
    link: TimedTransport<FaultyChannel>,
    /// Opened outputs of the last run, per session.
    outputs: Vec<Vec<Vec<f64>>>,
}

/// Manufactures the accelerators, seals the network for each under its
/// device key and loads it.
///
/// # Errors
///
/// A manufacturing or load failure.
pub fn setup(seed: u64, size: Size) -> Result<Setup<State>, String> {
    let params = Params::new(size);
    let network = reference_network();
    let mut owners = Vec::with_capacity(params.accelerators);
    let mut accels = Vec::with_capacity(params.accelerators);
    let mut puf_evals = 0;
    for i in 0..params.accelerators {
        let die_id = derive(seed, STREAM_DIE, i as u64);
        let mut lot = manufacture(&ManufactureConfig {
            die_id,
            noise_seed: die_id ^ 0xA11CE,
            ..ManufactureConfig::default()
        })
        .map_err(|e| format!("sealed_infer: manufacturing accelerator {i} failed: {e:?}"))?;
        puf_evals += lot.device.evaluations() + lot.weak.inner_mut().evaluations();
        let key = lot.enrolled_key.key;
        let mut owner = NetworkOwner::new(key, &die_id.to_le_bytes());
        let mut accel = SecureAccelerator::new(PhotonicEngine::reference(die_id), key);
        accel
            .load_network(&owner.cipher_network(&network))
            .map_err(|e| format!("sealed_infer: loading accelerator {i} failed: {e:?}"))?;
        owners.push(owner);
        accels.push(share_accelerator(accel));
    }
    let inputs = (0..INPUT_POOL)
        .map(|n| {
            (0..REFERENCE_WIDTH)
                .map(|i| {
                    let r = derive(seed, STREAM_INPUT, (n * REFERENCE_WIDTH + i) as u64);
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                })
                .collect()
        })
        .collect();
    let batches = (0..params.sessions)
        .map(|s| {
            (0..BATCH)
                .map(|k| derive(seed, STREAM_PICK, (s * BATCH + k) as u64) as usize % INPUT_POOL)
                .collect()
        })
        .collect();
    Ok(Setup {
        state: State {
            owners,
            accels,
            inputs,
            batches,
            link: link(derive(seed, STREAM_LINK, 0)),
            outputs: Vec::new(),
        },
        puf_evals,
    })
}

/// Seals every batch, runs all sessions on one gateway, opens every
/// output.
///
/// # Errors
///
/// A session that did not complete, or an output that did not open.
pub fn run(state: &mut State) -> Result<Pass, String> {
    let n = state.batches.len();
    let accels = state.accels.len();
    let cfg = SessionConfig {
        max_retries: 10,
        ..SessionConfig::default()
    };
    let stats_before: Vec<_> = state.accels.iter().map(|a| a.borrow().stats()).collect();

    let mut clients = Vec::with_capacity(n);
    for (s, batch) in state.batches.iter().enumerate() {
        let plain: Vec<Vec<f64>> = batch.iter().map(|&i| state.inputs[i].clone()).collect();
        let sid = s as u64 + 1;
        let owner = &mut state.owners[s % accels];
        let sealed = span::scoped(Layer::Seal, sid, || owner.cipher_inputs(&plain));
        clients.push(WireNnBatchClient::execute_only(sid, &sealed, cfg));
    }
    let mut servers: Vec<_> = (0..n)
        .map(|s| WireNnBatchServer::new(state.accels[s % accels].clone(), cfg))
        .collect();
    let stamps: Vec<_> = (0..n).map(|_| Stamp::shared()).collect();
    let sessions: Vec<SessionPair<'_>> = clients
        .iter_mut()
        .zip(servers.iter_mut())
        .enumerate()
        .map(|(s, (client, server))| {
            let sid = s as u64 + 1;
            SessionPair::new(
                ProtocolId::SecureNn,
                sid,
                Box::new(TimedSession::initiator(client, sid).stamped(&stamps[s])),
                Box::new(TimedSession::responder(server, sid).stamped(&stamps[s])),
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
                max_ticks: 1 << 20,
                policy: Box::new(TimedPolicy::new(Box::new(Fifo::new()))),
            },
            &mut Tracer::disabled(),
            &Registry::new(),
        )
    });
    let drained = state.link.inner_mut().drain_late() as u64;

    let mut digest = Digest::new("sealed_infer");
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
    let mut pass = Pass::default();
    let c = &mut pass.counters;
    for o in &report.outcomes {
        digest.u64(o.id);
        digest.u64(o.result.as_ref().map_or(u64::MAX, |t| u64::from(*t)));
        digest.u64(u64::from(o.retransmits));
        if let Some(at) = o.admitted_at {
            c.admission_waits.push(at);
        }
        if let Err(e) = &o.result {
            return Err(format!("sealed_infer: session {} failed: {e:?}", o.id));
        }
    }
    state.outputs.clear();
    for (s, client) in clients.iter().enumerate() {
        let sid = s as u64 + 1;
        let blobs = client
            .output_blobs()
            .ok_or_else(|| format!("sealed_infer: session {sid} returned no outputs"))?;
        let owner = &state.owners[s % accels];
        let opened = span::scoped(Layer::Open, sid, || owner.decipher_outputs(blobs))
            .map_err(|e| format!("sealed_infer: session {sid} output did not open: {e:?}"))?;
        for value in opened.iter().flatten() {
            digest.u64(value.to_bits());
        }
        c.sealed_items += BATCH as u64;
        c.opened_items += blobs.len() as u64;
        state.outputs.push(opened);
    }

    for (accel, before) in state.accels.iter().zip(&stats_before) {
        let after = accel.borrow().stats();
        c.inferences += after.inferences - before.inferences;
        c.macs += after.macs - before.macs;
        c.noise_draws += after.noise_draws - before.noise_draws;
    }
    let (frames, bytes) = state.link.sent();
    c.ticks = report.ticks;
    c.session_steps = report.session_steps;
    c.dense_equiv_steps = report.dense_equiv_steps;
    c.retransmits = report.retransmits;
    c.late_frames = report.late_frames + drained;
    c.peak_active = report.peak_active as u64;
    c.frames = frames;
    c.bytes = bytes;
    c.dropped = state.link.inner_mut().stats().dropped as u64;
    pass.attempted = report.sessions as u64;
    pass.completed = report.completed as u64;
    pass.latencies_ns = stamps
        .iter()
        .filter_map(|s| s.borrow().latency_ns())
        .collect();
    pass.digest = digest.finish();
    Ok(pass)
}

/// Gates: every opened output must match the noise-free computation of
/// the same quantized network within the analog noise envelope, and a
/// sealed input with one flipped bit must be rejected.
///
/// # Errors
///
/// An output off the reference, or a tampered input that executed.
pub fn gate(mut state: State) -> Result<(), String> {
    let mut twin = PhotonicEngine::new(
        AnalogModel {
            mac_noise: 0.0,
            ..AnalogModel::reference()
        },
        0,
    );
    twin.load(reference_network())
        .map_err(|e| format!("sealed_infer gate: {e:?}"))?;
    let expected: Vec<Vec<f64>> = state
        .inputs
        .iter()
        .map(|x| twin.infer(x))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("sealed_infer gate: {e:?}"))?;
    let (mut worst, mut err2, mut ref2, mut count) = (0.0f64, 0.0, 0.0, 0.0);
    for (batch, outputs) in state.batches.iter().zip(&state.outputs) {
        if outputs.len() != batch.len() {
            return Err("sealed_infer gate: a batch lost outputs".into());
        }
        for (&i, out) in batch.iter().zip(outputs) {
            if out.len() != expected[i].len() {
                return Err("sealed_infer gate: an output has the wrong width".into());
            }
            for (y, r) in out.iter().zip(&expected[i]) {
                worst = worst.max((y - r).abs());
                err2 += (y - r) * (y - r);
                ref2 += r * r;
                count += 1.0;
            }
        }
    }
    let scale = (ref2 / count).sqrt();
    let rms = (err2 / count).sqrt() / scale;
    let worst = worst / scale;
    // Written so that a NaN fails too.
    if !(rms <= MAX_RMS_DEVIATION && worst <= MAX_DEVIATION) {
        return Err(format!(
            "sealed_infer gate: outputs sit off the noise-free network (RMS {rms}, worst {worst} of the output scale)"
        ));
    }

    let mut blob = state.owners[0].cipher_input(&state.inputs[0]);
    let mid = blob.len() / 2;
    blob[mid] ^= 0x04;
    if state.accels[0]
        .borrow_mut()
        .execute_network_batch(&[blob])
        .is_ok()
    {
        return Err("sealed_infer gate: a bit-flipped sealed input executed".into());
    }
    Ok(())
}
