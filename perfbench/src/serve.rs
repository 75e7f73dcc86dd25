//! `serve_open`: open-loop online classification serving.
//!
//! One generator thread sends requests on a Poisson schedule; `nproc`
//! worker threads pop them from a `qt_serve::BoundedQueue`, run
//! `Engine::process` and route through a shared `CircuitBreaker`, as
//! `qt_serve::Server`'s workers do. Latency is timed from each request's
//! due time, so a stalled generator or a growing queue shows up in it.

use crate::golden;
use crate::layers::{self, LayerCtx};
use crate::stats::{exp_sample, median, median_ms_of, quantile, Fnv, Outcome};
use crate::Opts;
use qt_autograd::Tape;
use qt_quant::{ElemFormat, QuantScheme};
use qt_robust::NoFaults;
use qt_serve::{
    BoundedQueue, BreakerPolicy, CircuitBreaker, Engine, OutcomeKind, Request, ServeConfig,
};
use qt_transformer::{Model, QuantCtx, TaskHead, TokenBatch, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The rate ladder, rps. The first rung is the light rate, the third
/// the heavy rate; every rung counts toward `max_rps_p99_le_100ms`.
const RATES: [f64; 6] = [20.0, 40.0, 60.0, 75.0, 90.0, 105.0];
const LIGHT: usize = 0;
const HEAVY: usize = 2;
/// Share of the measured time each rung gets.
const RUNG_SHARE: [f64; 6] = [0.3, 0.06, 0.3, 0.06, 0.06, 0.06];
/// Share of the measured time for the saturation burst, sized at
/// `SAT_SIZING_RPS`.
const SAT_SHARE: f64 = 0.16;
const SAT_SIZING_RPS: f64 = 100.0;
/// The latency limit of the max-rate metric, ms.
const P99_LIMIT_MS: f64 = 100.0;
/// A send this much later than due counts as late, ms.
const LATE_MS: f64 = 1.0;
/// Prompt lengths, tokens (uniform, inclusive).
const MIN_LEN: usize = 8;
const MAX_LEN: usize = 48;

/// One finished request.
#[derive(Debug, Clone)]
pub struct Served {
    pub id: u64,
    pub outcome: OutcomeKind,
    pub label: Option<usize>,
    pub attempts: u32,
    /// Due time to completion, ms.
    pub latency_ms: f64,
    /// Due time to worker pickup, ms.
    pub queue_wait_ms: f64,
    /// `Engine::process` wall time, ms.
    pub process_ms: f64,
}

/// What one open-loop phase at a fixed rate produced.
#[derive(Debug)]
pub struct Phase {
    pub rate: f64,
    pub served: Vec<Served>,
    /// Per-send generator lateness, ms.
    pub lateness_ms: Vec<f64>,
    /// Sent-but-unfinished requests, sampled at every send.
    pub backlog: Vec<f64>,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.served.iter().map(|s| s.latency_ms).collect()
    }

    /// Whether the backlog grew over the phase: the mean over the last
    /// third of sends exceeds the first third's by more than two
    /// requests per worker.
    pub fn backlog_grew(&self, workers: usize) -> bool {
        let n = self.backlog.len();
        if n < 3 {
            return false;
        }
        let first = crate::stats::mean(&self.backlog[..n / 3]);
        let last = crate::stats::mean(&self.backlog[n - n / 3..]);
        last > first + 2.0 * workers as f64
    }

    pub fn late_sends(&self) -> usize {
        self.lateness_ms.iter().filter(|&&l| l > LATE_MS).count()
    }
}

fn random_tokens(rng: &mut StdRng, lens: (usize, usize), vocab: usize) -> Vec<usize> {
    let len = rng.gen_range(lens.0..=lens.1);
    (0..len).map(|_| rng.gen_range(0..vocab)).collect()
}

/// A Poisson schedule of `rate` rps over `secs`, ids from `first_id`;
/// `arrival_us` holds each request's due offset.
pub fn schedule(
    seed: u64,
    rate: f64,
    secs: f64,
    lens: (usize, usize),
    vocab: usize,
    first_id: u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ (rate.to_bits().rotate_left(17)));
    let mut out = Vec::new();
    let mut t = exp_sample(&mut rng, rate);
    while t < secs {
        let id = first_id + out.len() as u64;
        out.push(
            Request::new(id, random_tokens(&mut rng, lens, vocab)).with_arrival((t * 1e6) as u64),
        );
        t += exp_sample(&mut rng, rate);
    }
    out
}

/// `n` requests all due at once, ids from `first_id`.
fn burst(seed: u64, n: usize, vocab: usize, first_id: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a7);
    (0..n as u64)
        .map(|i| {
            Request::new(
                first_id + i,
                random_tokens(&mut rng, (MIN_LEN, MAX_LEN), vocab),
            )
        })
        .collect()
}

/// Serve `reqs` open-loop: the calling thread is the generator,
/// `workers` threads each pinned to a one-thread kernel pool.
pub fn open_loop(engine: &Engine, reqs: Vec<Request>, rate: f64, workers: usize) -> Phase {
    let queue: BoundedQueue<(Request, Instant)> = BoundedQueue::new(reqs.len().max(1));
    let breaker = Mutex::new(CircuitBreaker::new(BreakerPolicy::default()));
    let clock = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    // The breaker's logical clock: one tick per breaker interaction.
    let tick = || {
        let t = clock.fetch_add(1, Ordering::Relaxed);
        (
            breaker
                .lock()
                .expect("no worker panics holding the breaker"),
            t,
        )
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    qt_par::with_threads(1, || {
                        let mut out = Vec::new();
                        while let Some((req, due)) = queue.pop() {
                            let pick = Instant::now();
                            let po = engine.process(
                                &req,
                                req.arrival_us,
                                |_| {
                                    let (mut b, t) = tick();
                                    b.route(t)
                                },
                                |h, _| {
                                    let (mut b, t) = tick();
                                    b.on_primary_outcome(h, t)
                                },
                            );
                            let done = Instant::now();
                            completed.fetch_add(1, Ordering::Relaxed);
                            out.push(Served {
                                id: req.id,
                                outcome: po.response.outcome,
                                label: po.response.label,
                                attempts: po.response.attempts,
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                queue_wait_ms: (pick - due).as_secs_f64() * 1e3,
                                process_ms: (done - pick).as_secs_f64() * 1e3,
                            });
                        }
                        out
                    })
                })
            })
            .collect();
        let start = Instant::now() + Duration::from_millis(5);
        let mut lateness_ms = Vec::with_capacity(reqs.len());
        let mut backlog = Vec::with_capacity(reqs.len());
        for (sent, req) in reqs.into_iter().enumerate() {
            let due = start + Duration::from_micros(req.arrival_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lateness_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            backlog.push((sent as u64).saturating_sub(completed.load(Ordering::Relaxed)) as f64);
            if queue.try_push((req, due)).is_err() {
                unreachable!("the queue holds the whole schedule");
            }
        }
        queue.close();
        let mut served: Vec<Served> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        served.sort_by_key(|s| s.id);
        Phase {
            rate,
            served,
            lateness_ms,
            backlog,
        }
    })
}

/// The label `Model::forward` gives `tokens` through `qctx`.
pub fn reference_label(model: &Model, qctx: &QuantCtx, tokens: &[usize]) -> usize {
    let mut tape = Tape::new();
    let batch = TokenBatch::dense(tokens.to_vec(), 1, tokens.len());
    let out = model.forward(&mut tape, qctx, &batch, None, TrainMode::Frozen);
    let logits = tape.value(out.logits).data();
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn build_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(
        TransformerConfig::bert_base_sim(),
        TaskHead::Classify(2),
        &mut rng,
    )
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        primary: ElemFormat::P8E1,
        ..ServeConfig::default()
    }
}

/// Label digest of a fixed-seed canary, checked against the committed
/// value so a change in output bits fails the run on any seed.
fn canary(out: &mut Outcome) {
    let model = build_model(golden::CANARY_SEED);
    let engine = Engine::new(model.clone(), &serve_config(), Box::new(NoFaults));
    let reqs = schedule(
        golden::CANARY_SEED,
        20.0,
        0.5,
        (MIN_LEN, MAX_LEN),
        model.cfg.vocab,
        0,
    );
    let mut d = Fnv::default();
    for r in &reqs {
        let po = engine.process(r, 0, |_| qt_serve::Route::Primary, |_, _| {});
        d.u64(r.id)
            .u64(po.response.label.map_or(u64::MAX, |l| l as u64));
    }
    out.attempted += 1;
    let got = d.get();
    out.check(got == golden::SERVE_LABEL_DIGEST, || {
        format!(
            "serve canary label digest {got:#018x} != committed {:#018x}",
            golden::SERVE_LABEL_DIGEST
        )
    });
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let workers = opts.nproc;
    // Rung durations: the measured window minus a reserve for draining
    // and the output check.
    let window = (opts.seconds * 0.8).max(1.0);
    let build = || {
        let model = build_model(opts.seed);
        let engine = Engine::new(model.clone(), &serve_config(), Box::new(NoFaults));
        let vocab = model.cfg.vocab;
        let mut first = 0u64;
        let mut rungs: Vec<Vec<Request>> = Vec::new();
        for (&rate, share) in RATES.iter().zip(RUNG_SHARE) {
            rungs.push(schedule(
                opts.seed,
                rate,
                window * share,
                (MIN_LEN, MAX_LEN),
                vocab,
                first,
            ));
            first += rungs.last().map_or(0, |r| r.len() as u64);
        }
        let burst = burst(
            opts.seed,
            (SAT_SHARE * window * SAT_SIZING_RPS) as usize,
            vocab,
            first,
        );
        (model, engine, rungs, burst)
    };
    let ((model, engine, rungs, burst), setup_ms) = median_ms_of(15, build);
    let tokens: Vec<Vec<usize>> = rungs
        .iter()
        .flatten()
        .chain(&burst)
        .map(|r| r.tokens.clone())
        .collect();
    out.note(format!("workers = {workers} (1 kernel thread each)"));

    let trace = opts.trace;
    let mut phases: Vec<Phase> = Vec::new();
    for (i, reqs) in rungs.into_iter().enumerate() {
        // The traced run needs only the heavy rung.
        if trace && i != HEAVY {
            continue;
        }
        let p = open_loop(&engine, reqs, RATES[i], workers);
        let stop = i >= HEAVY
            && (quantile(&p.latencies(), 0.99) > P99_LIMIT_MS || p.backlog_grew(workers));
        phases.push(p);
        if stop {
            break;
        }
    }
    let saturation = (!trace).then(|| open_loop(&engine, burst, f64::INFINITY, workers));

    // Output check: every served label equals a fresh forward's.
    let qctx = QuantCtx::inference(QuantScheme::uniform(ElemFormat::P8E1));
    let mut digest = Fnv::default();
    for s in phases.iter().chain(&saturation).flat_map(|p| &p.served) {
        out.attempted += 1;
        let want = reference_label(&model, &qctx, &tokens[s.id as usize]);
        digest.u64(s.id).u64(s.label.map_or(u64::MAX, |l| l as u64));
        out.check(s.outcome.is_served() && s.label == Some(want), || {
            format!(
                "request {}: {} label {:?}, fresh forward says {want}",
                s.id,
                s.outcome.name(),
                s.label
            )
        });
    }
    canary(&mut out);
    if trace {
        layers::serve_metrics(&mut out, &phases[0].served);
        let ctx = LayerCtx::for_serving(&model, ElemFormat::P8E1, opts.seed, 1);
        layers::probe(&ctx, opts, &mut out, None);
        return out;
    }
    let saturation = saturation.expect("untraced runs measure saturation");
    report(&mut out, &phases, &saturation, workers);
    out.note(format!("label_digest = {:#018x}", digest.get()));
    out.metric("setup_s", setup_ms / 1e3, "s");
    out
}

fn report(out: &mut Outcome, phases: &[Phase], saturation: &Phase, workers: usize) {
    let mut max_rps = 0.0f64;
    let mut all_late: Vec<f64> = Vec::new();
    for p in phases {
        let lat = p.latencies();
        let (p50, p90, p99) = (median(&lat), quantile(&lat, 0.9), quantile(&lat, 0.99));
        let grew = p.backlog_grew(workers);
        if p99 <= P99_LIMIT_MS && !grew {
            max_rps = max_rps.max(p.rate);
        }
        all_late.extend_from_slice(&p.lateness_ms);
        out.note(format!(
            "rung {} rps: samples = {}, p50 = {p50:.3} ms, p90 = {p90:.3} ms, p99 = {p99:.3} ms, backlog_grew = {grew}, \
             late_sends = {}, lateness_max = {:.3} ms",
            p.rate,
            lat.len(),
            p.late_sends(),
            p.lateness_ms.iter().cloned().fold(0.0, f64::max),
        ));
    }
    let light = phases[LIGHT].latencies();
    let heavy = phases[HEAVY].latencies();
    out.info("light_samples", light.len() as f64, "count");
    out.info("light_p50_ms", median(&light), "ms");
    out.info("light_p99_ms", quantile(&light, 0.99), "ms");
    out.info("heavy_samples", heavy.len() as f64, "count");
    out.info("heavy_p50_ms", median(&heavy), "ms");
    out.info("heavy_p90_ms", quantile(&heavy, 0.9), "ms");
    out.info("heavy_p99_ms", quantile(&heavy, 0.99), "ms");
    out.info(
        "generator_lateness_max_ms",
        all_late.iter().cloned().fold(0.0, f64::max),
        "ms",
    );
    out.info("generator_lateness_p99_ms", quantile(&all_late, 0.99), "ms");
    out.info(
        "generator_late_sends",
        all_late.iter().filter(|&&l| l > LATE_MS).count() as f64,
        "count",
    );
    out.info("max_rps_p99_le_100ms", max_rps, "1/s");
    // Saturation: every request due at once; completions per second of
    // the whole burst.
    let makespan_s = saturation.latencies().into_iter().fold(0.0, f64::max) / 1e3;
    let sat_rps = saturation.served.len() as f64 / makespan_s;
    out.info(
        "saturation_samples",
        saturation.served.len() as f64,
        "count",
    );
    out.info("saturation_rps", sat_rps, "1/s");
    out.metric("p50_ms", median(&light), "ms");
    out.metric("work_per_s", sat_rps, "1/s");
}
