//! Times set-up and run phases from outside and turns rounds into the
//! benchmark's metrics.
//!
//! A round is: set-up (timed), run (timed), gate (untimed, consumes the
//! state). Each round of a process draws its inputs from its own round
//! seed; a traced replay of a round must produce its digest exactly.

use crate::span::{self, Layer, Recording, Span};
use crate::{
    attest_burst, auth_fleet, derive, probe_deterministic_eval_us, sealed_infer, Pass, Setup, Size,
};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §III-A re-authentication on the persistent gateway.
    AuthFleet,
    /// §III-B attestation rounds on the batch gateway.
    AttestBurst,
    /// §III-C batched sealed inference on the batch gateway.
    SealedInfer,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::AuthFleet,
        Workload::AttestBurst,
        Workload::SealedInfer,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuthFleet => "auth_fleet",
            Workload::AttestBurst => "attest_burst",
            Workload::SealedInfer => "sealed_infer",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one round.
    ///
    /// # Errors
    ///
    /// A set-up failure, a run that broke a workload invariant, a gate
    /// that failed, or a span left open.
    pub fn round(self, seed: u64, size: Size, traced: bool) -> Result<Round, String> {
        match self {
            Workload::AuthFleet => round(
                auth_fleet::setup,
                auth_fleet::run,
                auth_fleet::gate,
                seed,
                size,
                traced,
            ),
            Workload::AttestBurst => round(
                attest_burst::setup,
                attest_burst::run,
                attest_burst::gate,
                seed,
                size,
                traced,
            ),
            Workload::SealedInfer => round(
                sealed_infer::setup,
                sealed_infer::run,
                sealed_infer::gate,
                seed,
                size,
                traced,
            ),
        }
    }
}

/// One measured round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Set-up wall time.
    pub setup: Duration,
    /// Run-phase wall time.
    pub run: Duration,
    /// PUF evaluations the set-up made.
    pub setup_puf_evals: u64,
    /// The run's deterministic outcome and counters.
    pub pass: Pass,
    /// Set-up and run spans, in a traced round.
    pub spans: Option<(Vec<Span>, Vec<Span>)>,
}

fn round<S>(
    setup: fn(u64, Size) -> Result<Setup<S>, String>,
    run: fn(&mut S) -> Result<Pass, String>,
    gate: fn(S) -> Result<(), String>,
    seed: u64,
    size: Size,
    traced: bool,
) -> Result<Round, String> {
    let recording = traced.then(Recording::start);
    let start = Instant::now();
    let built = span::scoped(Layer::Run, 0, || setup(seed, size))?;
    let setup_time = start.elapsed();
    let setup_spans = recording.map(Recording::finish).transpose()?;

    let Setup {
        mut state,
        puf_evals,
    } = built;
    let recording = traced.then(Recording::start);
    let start = Instant::now();
    let pass = span::scoped(Layer::Run, 0, || run(&mut state))?;
    let run_time = start.elapsed();
    let run_spans = recording.map(Recording::finish).transpose()?;

    gate(state)?;
    Ok(Round {
        setup: setup_time,
        run: run_time,
        setup_puf_evals: puf_evals,
        pass,
        spans: setup_spans.zip(run_spans),
    })
}

/// Fewest rounds per process: the set-up time is their median.
pub const MIN_ROUNDS: usize = 3;
/// Fewest completed sessions per process: the 99th percentile then
/// has at least ten samples beyond it.
pub const MIN_SESSIONS: u64 = 1000;
/// Shortest set-up or run phase that repeats within the benchmark's
/// bounds on a small shared VM (a fixed 1.1 s CPU loop already moves
/// about ±6 % between processes; 0.15 s phases move ±20 %).
pub const MIN_PHASE: Duration = Duration::from_millis(500);
/// Largest share of a timed run phase its root span may leave uncovered.
const SPAN_COVER_TOLERANCE: f64 = 0.01;
/// No new round starts past this point, so a process ends well inside
/// its time limit.
const ROUND_DEADLINE: Duration = Duration::from_secs(120);

/// Runs rounds until their run phases add up to `seconds` (and, when
/// untraced, at least [`MIN_ROUNDS`] rounds ran). Round `k` runs on
/// [`round_seed`]`(seed, k)`, so a process covers several input sets.
/// In a traced process every round is a pair: an untraced and a traced
/// run of the same inputs; both count toward `seconds`.
///
/// # Errors
///
/// The first round that failed.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<Round>, String> {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    for k in 0.. {
        let round_seed = round_seed(seed, k);
        // Traced pairs alternate which side runs first, so warm-up
        // cannot bias the overhead figure.
        let order: &[bool] = match (traced, k % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &t in order {
            rounds.push(workload.round(round_seed, Size::Full, t)?);
        }
        for r in &rounds[rounds.len() - order.len()..] {
            eprintln!(
                "{} round {k}: set-up {:.3} s, run {:.3} s, {} of {} sessions{}",
                workload.name(),
                r.setup.as_secs_f64(),
                r.run.as_secs_f64(),
                r.pass.completed,
                r.pass.attempted,
                if r.spans.is_some() { ", traced" } else { "" }
            );
        }
        let run_total: f64 = rounds.iter().map(|r| r.run.as_secs_f64()).sum();
        let enough = run_total >= seconds && (traced || k + 1 >= MIN_ROUNDS);
        let per_round = started.elapsed() / (k as u32 + 1);
        if enough || started.elapsed() + per_round > ROUND_DEADLINE {
            break;
        }
    }
    Ok(rounds)
}

/// The seed of round `k` of a process started with `seed`.
pub fn round_seed(seed: u64, k: usize) -> u64 {
    derive(seed, 0x5EED, k as u64)
}

/// Checks that make a run's figures trustworthy; returns the first
/// violation.
pub fn validity(rounds: &[Round], traced: bool) -> Result<(), String> {
    if rounds.is_empty() {
        return Err("no round ran".into());
    }
    if traced {
        for pair in rounds.chunks(2) {
            if let [plain, replay] = pair {
                if plain.pass.digest != replay.pass.digest {
                    return Err(format!(
                        "tracing changed the run: digest {} untraced, {} traced",
                        hex(&plain.pass.digest),
                        hex(&replay.pass.digest)
                    ));
                }
            }
        }
    }
    let untraced: Vec<&Round> = rounds.iter().filter(|r| r.spans.is_none()).collect();
    if !traced {
        if untraced.len() < MIN_ROUNDS {
            return Err(format!(
                "only {} rounds fit the time limit; set-up needs {MIN_ROUNDS}",
                untraced.len()
            ));
        }
        let completed: u64 = untraced.iter().map(|r| r.pass.completed).sum();
        if completed < MIN_SESSIONS {
            return Err(format!(
                "{completed} sessions completed; the 99th percentile needs {MIN_SESSIONS}"
            ));
        }
    }
    for r in &untraced {
        if r.setup < MIN_PHASE || r.run < MIN_PHASE {
            return Err(format!(
                "phase too short to repeat: set-up {:.3} s, run {:.3} s (minimum {:.3} s)",
                r.setup.as_secs_f64(),
                r.run.as_secs_f64(),
                MIN_PHASE.as_secs_f64()
            ));
        }
    }
    Ok(())
}

/// Lowercase hex of a digest.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `sorted` (ascending).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// `/proc/self/status` unreadable or without `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end metrics of an untraced process.
///
/// A failed session counts as missing every latency limit: it sorts
/// after every completed one.
pub fn end_to_end(rounds: &[Round]) -> Result<Vec<Metric>, String> {
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.pass.completed as f64 / r.run.as_secs_f64())
        .collect();
    let mut latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.pass.latencies_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let failed: u64 = rounds
        .iter()
        .map(|r| r.pass.attempted - r.pass.completed)
        .sum();
    latencies.extend((0..failed).map(|_| f64::INFINITY));
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    if !p99.is_finite() {
        return Err(format!(
            "{failed} failed sessions reach the 99th percentile"
        ));
    }
    Ok(vec![
        ("setup_s", median(&setup), "s"),
        ("sessions_per_s", median(&rates), "1/s"),
        ("session_p50_ms", p50, "ms"),
        ("session_p99_ms", p99, "ms"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced process: counts from the layers'
/// reports and the shims, self times from the traced rounds' spans,
/// overhead from the untraced rounds they replay.
///
/// # Errors
///
/// Root spans that do not cover the timed run phases, or self times
/// that do not split them exactly (overlapping spans).
pub fn per_layer(workload: Workload, rounds: &[Round]) -> Result<Vec<Metric>, String> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.spans.is_some()).collect();
    let untraced_run: f64 = rounds
        .iter()
        .filter(|r| r.spans.is_none())
        .map(|r| r.run.as_secs_f64())
        .sum();
    let traced_run: f64 = traced.iter().map(|r| r.run.as_secs_f64()).sum();
    let n = traced.len() as f64;

    let mut run_self = [0f64; Layer::ALL.len()];
    let mut setup_self = [0f64; Layer::ALL.len()];
    let (mut wall, mut setup_wall) = (0.0, 0.0);
    let (mut crp_time, mut crp_calls) = (0.0, 0.0);
    let (mut seal_time, mut open_time) = (0.0, 0.0);
    for r in &traced {
        let (setup_spans, run_spans) = r.spans.as_ref().expect("filtered on spans");
        for (acc, ns) in run_self.iter_mut().zip(span::self_times(run_spans)) {
            *acc += ns as f64 / 1e9;
        }
        for (acc, ns) in setup_self.iter_mut().zip(span::self_times(setup_spans)) {
            *acc += ns as f64 / 1e9;
        }
        wall += span::total_time(run_spans, Layer::Run) as f64 / 1e9;
        setup_wall += span::total_time(setup_spans, Layer::Run) as f64 / 1e9;
        crp_time += span::total_time(run_spans, Layer::CrpStore) as f64 / 1e9;
        crp_calls += r.pass.counters.crp_ops as f64;
        seal_time += span::total_time(run_spans, Layer::Seal) as f64 / 1e9;
        open_time += span::total_time(run_spans, Layer::Open) as f64 / 1e9;
    }
    let sum = |f: fn(&Round) -> u64| traced.iter().map(|r| f(r) as f64).sum::<f64>();
    let attempted = sum(|r| r.pass.attempted);
    let puf_evals = sum(|r| r.pass.counters.puf_evals);
    let setup_evals = sum(|r| r.setup_puf_evals);
    let steps = sum(|r| r.pass.counters.session_steps);
    let ticks = sum(|r| r.pass.counters.ticks);
    let frames = sum(|r| r.pass.counters.frames);
    let inferences = sum(|r| r.pass.counters.inferences);

    // Where a PUF sits behind a concrete type — the attestation walk
    // inside a wire step, the weak PUF inside `manufacture` — no shim
    // can span it: its time stays in the enclosing span, and the
    // per-evaluation time comes from a direct probe of the same call.
    let eval_us = if workload == Workload::AttestBurst {
        probe_deterministic_eval_us(100)
    } else {
        ratio(run_self[Layer::Puf.index()] * 1e6, puf_evals)
    };
    let setup_puf = setup_self[Layer::Puf.index()];

    // Shares are of the run phases as `round` timed them with `Instant`,
    // not of the span tree: the time between the phase clock and the
    // root span counts as unattributed.
    let share = |layer: Layer| ratio(run_self[layer.index()], traced_run);
    let unattributed = ratio(
        run_self[Layer::Run.index()] + (traced_run - wall),
        traced_run,
    );
    let shares = [
        ("puf.self_share", share(Layer::Puf)),
        ("wire.initiator_self_share", share(Layer::WireInitiator)),
        ("wire.responder_self_share", share(Layer::WireResponder)),
        ("transport.self_share", share(Layer::Transport)),
        ("gateway.self_share", share(Layer::Gateway)),
        ("admission.self_share", share(Layer::Admission)),
        ("crp_store.self_share", share(Layer::CrpStore)),
        ("keepalive.self_share", share(Layer::KeepAlive)),
        (
            "secure_nn.self_share",
            share(Layer::Seal) + share(Layer::Open),
        ),
        ("trace.unattributed_share", unattributed),
    ];
    // The root spans must cover the timed phases; and the self times
    // must split the root spans exactly, which fails when spans overlap
    // (a child outliving its parent is clipped to a zero self time).
    if wall > traced_run || wall < (1.0 - SPAN_COVER_TOLERANCE) * traced_run {
        return Err(format!(
            "root spans cover {wall} s of {traced_run} s of timed run phases"
        ));
    }
    let total: f64 = shares.iter().map(|(_, v)| v).sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(format!(
            "layer self times add up to {total} of the run wall time"
        ));
    }

    let mut waits: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.pass.counters.admission_waits.iter().copied())
        .collect();
    waits.sort_unstable();
    let wire_self = run_self[Layer::WireInitiator.index()] + run_self[Layer::WireResponder.index()];
    let crp_hits = sum(|r| r.pass.counters.crp_hits);
    let crp_lookups = crp_hits + sum(|r| r.pass.counters.crp_misses);

    let mut out: Vec<Metric> = vec![
        (
            "puf.evals_per_session",
            ratio(puf_evals, attempted),
            "count",
        ),
        ("puf.eval_us", eval_us, "us"),
        ("setup.puf_share", ratio(setup_puf, setup_wall), "ratio"),
        ("setup.puf_evals", ratio(setup_evals, n), "count"),
        ("wire.steps_per_session", ratio(steps, attempted), "count"),
        ("wire.step_self_us", ratio(wire_self * 1e6, steps), "us"),
        (
            "wire.retransmits_per_session",
            ratio(sum(|r| r.pass.counters.retransmits), attempted),
            "count",
        ),
        (
            "transport.frames_per_session",
            ratio(frames, attempted),
            "count",
        ),
        (
            "transport.bytes_per_session",
            ratio(sum(|r| r.pass.counters.bytes), attempted),
            "bytes",
        ),
        (
            "transport.dropped_share",
            ratio(sum(|r| r.pass.counters.dropped), frames),
            "ratio",
        ),
        (
            "gateway.self_us_per_tick",
            ratio(run_self[Layer::Gateway.index()] * 1e6, ticks),
            "us",
        ),
        ("gateway.ticks", ratio(ticks, n), "ticks"),
        (
            "gateway.step_saving",
            ratio(sum(|r| r.pass.counters.dense_equiv_steps), steps),
            "ratio",
        ),
        (
            "gateway.peak_active",
            traced
                .iter()
                .map(|r| r.pass.counters.peak_active)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "gateway.late_frames",
            ratio(sum(|r| r.pass.counters.late_frames), n),
            "count",
        ),
        (
            "admission.wait_p99_ticks",
            percentile(&waits, 99.0) as f64,
            "ticks",
        ),
        ("crp_store.ops", ratio(crp_calls, n), "count"),
        ("crp_store.op_us", ratio(crp_time * 1e6, crp_calls), "us"),
        ("crp_store.hit_rate", ratio(crp_hits, crp_lookups), "ratio"),
        (
            "secure_nn.seal_us_per_item",
            ratio(seal_time * 1e6, sum(|r| r.pass.counters.sealed_items)),
            "us",
        ),
        (
            "secure_nn.open_us_per_item",
            ratio(open_time * 1e6, sum(|r| r.pass.counters.opened_items)),
            "us",
        ),
        (
            "accel.macs_per_inference",
            ratio(sum(|r| r.pass.counters.macs), inferences),
            "count",
        ),
        (
            "accel.noise_draws_per_inference",
            ratio(sum(|r| r.pass.counters.noise_draws), inferences),
            "count",
        ),
        (
            "trace.overhead_share",
            ratio(traced_run, untraced_run) - 1.0,
            "ratio",
        ),
    ];
    out.extend(shares.iter().map(|&(name, v)| (name, v, "ratio")));
    Ok(out)
}
