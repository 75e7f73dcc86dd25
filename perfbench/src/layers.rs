//! Per-layer metrics for the traced run.
//!
//! Every layer is measured on every workload, at that workload's model
//! and shapes, by timing calls into the layer's public functions from
//! here. Metrics a workload already measured on its own path (queue wait
//! on `serve_open`, the fleet run on `fleet_sim`, span shares on
//! `ptq_eval` and `finetune_lora`) are not probed again.

use crate::serve;
use crate::stats::{median, quantile, timed, Outcome};
use crate::{fleet, Opts};
use qt_autograd::Tape;
use qt_fleet::FleetReport;
use qt_quant::{matmul_codes, ElemFormat, FakeQuant, PackedQuantB, QuantScheme};
use qt_robust::{BerFaultSource, CodeFormat, FaultSource, NoFaults};
use qt_serve::{Engine, Request, ServeConfig};
use qt_tensor::Tensor;
use qt_trace::{RecordKind, TraceSession};
use qt_train::{AdamW, Optimizer};
use qt_transformer::{LoraConfig, Model, QuantCtx, TaskHead, TokenBatch, TrainMode};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Bit-error rate of the `corrupt_p50_ms` probe.
const PROBE_BER: f64 = 1e-4;

/// The workload's model and shapes, as the probes see them.
pub struct LayerCtx<'a> {
    pub model: &'a Model,
    /// Primary forward format.
    pub format: ElemFormat,
    /// One batch at the workload's shape.
    pub batch: TokenBatch,
    /// One single-sequence request at the workload's length.
    pub request: Vec<usize>,
    /// Kernel-pool size the workload runs its forwards at.
    pub pool: usize,
    pub seed: u64,
}

impl<'a> LayerCtx<'a> {
    /// Serving shapes: single sequences of the mean prompt length.
    pub fn for_serving(model: &'a Model, format: ElemFormat, seed: u64, pool: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e5);
        let request: Vec<usize> = (0..28).map(|_| rng.gen_range(0..model.cfg.vocab)).collect();
        Self {
            model,
            format,
            batch: TokenBatch::dense(request.clone(), 1, request.len()),
            request,
            pool,
            seed,
        }
    }

    /// Batch shapes: `batch` as given, requests are its first row.
    pub fn for_batch(model: &'a Model, format: ElemFormat, batch: TokenBatch, seed: u64) -> Self {
        let request = batch.ids[..batch.seq].to_vec();
        Self {
            model,
            format,
            batch,
            request,
            pool: qt_par::threads(),
            seed,
        }
    }
}

/// Repeat `f` until at least `min_reps` runs and `min_ms` of wall time;
/// returns each run's wall time in ms.
pub fn repeat_ms(min_reps: usize, min_ms: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < min_reps || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        xs.push(timed(&mut f).1);
    }
    xs
}

fn gauss(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape, &mut StdRng::seed_from_u64(seed))
}

/// qt-serve figures from requests served open-loop.
pub fn serve_metrics(out: &mut Outcome, served: &[serve::Served]) {
    let wait: Vec<f64> = served.iter().map(|s| s.queue_wait_ms).collect();
    let proc_ms: Vec<f64> = served.iter().map(|s| s.process_ms).collect();
    let attempts: u64 = served.iter().map(|s| s.attempts as u64).sum();
    out.info("serve_samples", served.len() as f64, "count");
    out.metric("queue_wait_p50_ms", median(&wait), "ms");
    out.metric("queue_wait_p99_ms", quantile(&wait, 0.99), "ms");
    out.metric("process_p50_ms", median(&proc_ms), "ms");
    out.metric(
        "attempts_per_request",
        attempts as f64 / served.len().max(1) as f64,
        "count",
    );
}

/// Span shares of the forward passes recorded in `session`: each forward
/// runs from its `embed` span's start to its `head` span's end, and the
/// shares are of that wall time. `uncovered_share` is what no leaf span
/// (`embed`, `attn`, `ffn`, `head`) covers. Also reports weight-pack
/// cache misses per forward from the `gemm.pack_cache` counter.
pub fn span_metrics(out: &mut Outcome, session: &TraceSession) {
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut wall = 0.0;
    let mut forwards = 0u64;
    let mut embed_start = None;
    for r in session.records() {
        if r.kind != RecordKind::SpanClosed {
            continue;
        }
        let cat = r.cat.as_str();
        if matches!(cat, "embed" | "attn" | "ffn" | "head") {
            *sums.entry(cat).or_default() += r.wall_dur_ns as f64;
        }
        match cat {
            "embed" => embed_start = embed_start.or(Some(r.t_ns)),
            "head" => {
                if let Some(t0) = embed_start.take() {
                    wall += (r.t_ns + r.wall_dur_ns - t0) as f64;
                    forwards += 1;
                }
            }
            _ => {}
        }
    }
    let share = |c: &str| sums.get(c).copied().unwrap_or(0.0) / wall.max(1.0);
    let covered: f64 = ["embed", "attn", "ffn", "head"]
        .iter()
        .map(|c| share(c))
        .sum();
    out.metric("embed_share", share("embed"), "ratio");
    out.metric("attn_share", share("attn"), "ratio");
    out.metric("ffn_share", share("ffn"), "ratio");
    out.metric("head_share", share("head"), "ratio");
    out.metric("uncovered_share", 1.0 - covered, "ratio");
    let misses = session
        .metrics()
        .counter_value("gemm.pack_cache", &[("event", "miss")]);
    out.info("traced_forwards", forwards as f64, "count");
    out.metric(
        "pack_misses_per_forward",
        misses as f64 / forwards.max(1) as f64,
        "count",
    );
}

/// Names of the parameters the forward multiplies as GEMM weights.
fn gemm_weights(model: &Model) -> Vec<String> {
    model
        .params
        .names()
        .into_iter()
        .filter(|n| {
            model.params.get(n).ndim() == 2
                && !n.contains(".lora_")
                && n != "embed.pos"
                && (n != "embed.tok" || model.head == TaskHead::LmTied)
        })
        .collect()
}

/// Every per-layer metric not yet in `out`, measured at `ctx`'s shapes
/// on `ctx.pool` kernel threads. `fleet_run` is a run of the workload's
/// own fleet with its host ms.
pub fn probe(
    ctx: &LayerCtx,
    opts: &Opts,
    out: &mut Outcome,
    fleet_run: Option<(&FleetReport, f64)>,
) {
    qt_par::with_threads(ctx.pool, || probe_pinned(ctx, opts, out, fleet_run));
}

fn probe_pinned(
    ctx: &LayerCtx,
    opts: &Opts,
    out: &mut Outcome,
    fleet_run: Option<(&FleetReport, f64)>,
) {
    let model = ctx.model;
    let scheme = QuantScheme::uniform(ctx.format);
    let single = TokenBatch::dense(ctx.request.clone(), 1, ctx.request.len());

    // qt-transformer: a served attempt (fresh context, cold pack cache)
    // against a forward on a reused context.
    let cfg = ServeConfig {
        primary: ctx.format,
        ..ServeConfig::default()
    };
    let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
    let req = Request::new(0, ctx.request.clone());
    let cold = median(&repeat_ms(7, 400.0, || {
        engine.attempt(&req, 0, true, u64::MAX);
    }));
    let warm_ctx = QuantCtx::inference(scheme);
    let warm = median(&repeat_ms(7, 400.0, || {
        let mut tape = Tape::new();
        let r = model.try_forward(&mut tape, &warm_ctx, &single, None, TrainMode::Frozen);
        assert!(r.is_ok(), "uncancellable forward");
    }));
    out.metric("cold_forward_p50_ms", cold, "ms");
    out.metric("warm_forward_p50_ms", warm, "ms");
    out.metric("cold_over_warm", cold / warm, "ratio");

    // DES calibration: measured wall per block against the virtual cost.
    let blocks = model.blocks_per_forward().max(1) as f64;
    let measured_us = cold * 1e3 / blocks;
    let virtual_us = engine.per_block_us() as f64;
    out.metric("measured_block_us", measured_us, "us");
    out.metric("block_us_over_virtual", measured_us / virtual_us, "ratio");
    let diverges = (measured_us / virtual_us - 1.0).abs() > 0.2;
    out.note(format!(
        "des_calibration: measured_block_us = {measured_us:.1} us vs per_block_us = {virtual_us} us \
         (virtual){}",
        if diverges { " -- DIVERGES by more than 20%" } else { "" }
    ));

    // Span shares of cold single-request forwards, for workloads without
    // a traced context of their own; the tracing overhead of such a
    // forward is theirs too, unless they measured their own.
    if !out.has("embed_share") {
        let session = TraceSession::new("perfbench.forward").handle();
        let fresh = |trace: bool| {
            let mut qctx = QuantCtx::inference(scheme);
            if trace {
                qctx = qctx.with_trace(session.clone());
            }
            let mut tape = Tape::new();
            let r = model.try_forward(&mut tape, &qctx, &single, None, TrainMode::Frozen);
            assert!(r.is_ok(), "uncancellable forward");
        };
        // Alternate so drift in the host's speed hits both alike.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            untraced.push(timed(|| fresh(false)).1);
            traced.push(timed(|| fresh(true)).1);
        }
        if !out.has("trace_overhead_ratio") {
            out.metric(
                "trace_overhead_ratio",
                median(&traced) / median(&untraced),
                "ratio",
            );
        }
        span_metrics(out, &session.borrow());
    }

    // qt-quant: weight quantize + pack over every GEMM weight.
    let fq = FakeQuant::new(ctx.format);
    let names = gemm_weights(model);
    let pack_ms = repeat_ms(3, 300.0, || {
        for n in &names {
            let codes = fq
                .quantize_to_codes(model.params.get(n))
                .expect("8-bit format");
            std::hint::black_box(PackedQuantB::pack(&codes));
        }
    });
    out.metric("weight_pack_ms", median(&pack_ms), "ms");

    // Activation-shaped operands: [rows·seq, hidden] against an FFN weight.
    let (b, s) = (ctx.batch.batch, ctx.batch.seq);
    let (h, f) = (model.cfg.hidden, model.cfg.ffn);
    let x = gauss(&[b * s, h], ctx.seed ^ 1);
    for (fmt, tag) in [
        (ElemFormat::P8E1, "p8e1"),
        (ElemFormat::E4M3, "e4m3"),
        (ElemFormat::E5M2, "e5m2"),
    ] {
        let q = FakeQuant::new(fmt);
        let t = repeat_ms(5, 150.0, || {
            std::hint::black_box(q.quantize_with_health(&x));
        });
        out.metric(
            &format!("fake_quant_ns_per_elem.{tag}"),
            median(&t) * 1e6 / x.len() as f64,
            "ns",
        );
    }
    let w = gauss(&[h, f], ctx.seed ^ 2).mul_scalar(1.0 / (h as f32).sqrt());
    let pack = PackedQuantB::pack(&fq.quantize_to_codes(&w).expect("8-bit format"));
    let flop = 2.0 * (b * s * h * f) as f64;
    let codes_ms = median(&repeat_ms(5, 200.0, || {
        std::hint::black_box(matmul_codes(&x, &pack));
    }));
    let f32_ms = median(&repeat_ms(5, 200.0, || {
        std::hint::black_box(x.matmul(&w));
    }));
    out.metric("matmul_codes_gflops", flop / (codes_ms * 1e6), "GFLOP/s");
    out.metric("matmul_gflops", flop / (f32_ms * 1e6), "GFLOP/s");

    // qt-tensor: attention-score softmax and layernorm rows.
    let heads = model.cfg.heads;
    let scores = gauss(&[b * heads * s, s], ctx.seed ^ 3);
    let (gamma, beta) = (Tensor::ones(&[h]), Tensor::zeros(&[h]));
    let sm = median(&repeat_ms(5, 150.0, || {
        std::hint::black_box(scores.softmax_lastdim());
    }));
    let ln = median(&repeat_ms(5, 150.0, || {
        std::hint::black_box(x.layernorm_lastdim(&gamma, &beta, 1e-5));
    }));
    out.metric("softmax_ns_per_elem", sm * 1e6 / scores.len() as f64, "ns");
    out.metric("layernorm_ns_per_elem", ln * 1e6 / x.len() as f64, "ns");

    // qt-par: pool size and chunk tasks issued by one forward at the
    // workload's batch shape, on this single caller thread.
    out.metric("pool_threads", ctx.pool as f64, "count");
    if !out.has("chunk_tasks_per_forward") {
        let qctx = QuantCtx::inference(scheme);
        let before = qt_par::tasks_executed();
        model.forward(&mut Tape::new(), &qctx, &ctx.batch, None, TrainMode::Frozen);
        out.metric(
            "chunk_tasks_per_forward",
            (qt_par::tasks_executed() - before) as f64,
            "count",
        );
    }

    train_probe(ctx, out);

    // qt-robust: the fault path's per-attempt corruption of the model.
    let codec = CodeFormat::new(ctx.format).expect("storage format");
    let src = BerFaultSource::new(ctx.seed, codec, PROBE_BER);
    let mut id = 0u64;
    let corrupt = repeat_ms(5, 300.0, || {
        std::hint::black_box(src.corrupt_for_request(model, id, 0));
        id += 1;
    });
    out.metric("corrupt_p50_ms", median(&corrupt), "ms");

    // qt-shield: one full scrub pass over the model's code plane.
    let mut shield =
        qt_serve::shield_model(model, ctx.format).expect("8-bit format has a code plane");
    let mut words = 0u64;
    let t = repeat_ms(3, 200.0, || {
        words = shield.scrub(usize::MAX).words_scrubbed;
    });
    out.metric(
        "scrub_ns_per_word",
        median(&t) * 1e6 / words.max(1) as f64,
        "ns",
    );

    // qt-serve at this workload's model: an open-loop burst at half the
    // workers' capacity.
    if !out.has("queue_wait_p50_ms") {
        let workers = opts.nproc;
        let rate = 0.5 * workers as f64 / (cold / 1e3);
        let len = ctx.request.len();
        let reqs = serve::schedule(ctx.seed, rate, 1.5, (len, len), model.cfg.vocab, 0);
        let phase = serve::open_loop(&engine, reqs, rate, workers);
        serve_metrics(out, &phase.served);
    }

    // qt-fleet, qt-adapt, qt-shield: a short fleet run on this model.
    match fleet_run {
        Some((report, host_ms)) => fleet::fleet_metrics(out, report, host_ms, cold),
        None => {
            let run = fleet::FleetRun::new(model, ctx.seed, ctx.request.len(), 0.2);
            let (report, host_ms) = run.run_once(None);
            fleet::fleet_metrics(out, &report, host_ms, cold);
        }
    }
}

/// A LoRA fine-tuning step taken apart at `ctx`'s batch shape: forward,
/// loss, `Tape::backward`, `Optimizer::step`, each timed on its own.
fn train_probe(ctx: &LayerCtx, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7ea1);
    let mut model = ctx.model.clone();
    if model.lora.is_none() {
        model.add_lora(LoraConfig::roberta_default(), &mut rng);
    }
    let qctx = QuantCtx::training(QuantScheme::uniform(ctx.format));
    let mut opt = AdamW::new(1e-3);
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let mut skipped = 0u64;
    let start = Instant::now();
    for attempt in 0..1000 {
        if attempt >= 5 && start.elapsed().as_secs_f64() > 0.6 {
            break;
        }
        let mut tape = Tape::new();
        let ((o, loss), f_ms) = timed(|| {
            let o = model.forward(&mut tape, &qctx, &ctx.batch, None, TrainMode::Lora);
            let logits = tape.value(o.logits);
            let last = *logits.shape().last().expect("logits have a class axis");
            let rows = logits.len() / last;
            let targets: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..last)).collect();
            let r = tape.reshape(o.logits, &[rows, last]);
            let loss = tape.cross_entropy(r, &targets);
            (o, loss)
        });
        let (grads, b_ms) = timed(|| tape.backward(loss));
        let mut named = BTreeMap::new();
        let mut finite = true;
        for (name, var) in &o.param_vars {
            if let Some(g) = grads.get(*var) {
                finite &= g.data().iter().all(|x| x.is_finite());
                named.insert(name.clone(), g.clone());
            }
        }
        if !finite {
            skipped += 1;
            continue;
        }
        let ((), s_ms) = timed(|| opt.step(&mut model.params, &named));
        fwd.push(f_ms);
        bwd.push(b_ms);
        step.push(s_ms);
    }
    out.metric("forward_p50_ms", median(&fwd), "ms");
    out.metric("backward_p50_ms", median(&bwd), "ms");
    out.metric("optimizer_p50_ms", median(&step), "ms");
    if !out.has("skipped_steps") {
        out.metric("skipped_steps", skipped as f64, "count");
    }
}
