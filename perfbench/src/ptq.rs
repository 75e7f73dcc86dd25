//! `ptq_eval`: offline post-training-quantization evaluation.
//!
//! Teacher-forced perplexity of LLaMA-2-7B-sim over 16×64-token batches,
//! each batch scored once under posit8 and once under FP8 (E4M3 forward),
//! each scheme through one reused `QuantCtx` so the weight-pack cache
//! stays warm. One caller thread, default kernel pool.

use crate::golden;
use crate::layers::{self, LayerCtx};
use crate::stats::{median, median_ms_of, quantile, timed, Outcome};
use crate::Opts;
use qt_datagen::LmTask;
use qt_quant::{ElemFormat, QuantScheme};
use qt_trace::TraceSession;
use qt_train::evaluate_lm_perplexity;
use qt_transformer::{Model, QuantCtx, TaskHead, TokenBatch, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};

const BATCH: usize = 16;
const SEQ: usize = 64;
/// Distinct batches the timed loop cycles through.
const POOL: usize = 2;

type LmBatch = (TokenBatch, Vec<usize>);

fn schemes() -> [QuantScheme; 2] {
    [QuantScheme::posit8(), QuantScheme::fp8()]
}

fn build(seed: u64, n_batches: usize) -> (Model, Vec<LmBatch>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(TransformerConfig::llama7b_sim(), TaskHead::LmTied, &mut rng);
    let task = LmTask::new(model.cfg.vocab, SEQ, seed);
    let rows = task.dataset(n_batches * BATCH, seed ^ 0x9e37);
    let batches = rows.chunks(BATCH).map(|c| task.batch(c)).collect();
    (model, batches)
}

/// Perplexity of one batch under each scheme, through `ctxs`.
fn score(model: &Model, ctxs: &[QuantCtx; 2], batch: &LmBatch) -> [f64; 2] {
    let one = std::slice::from_ref(batch);
    [
        evaluate_lm_perplexity(model, &ctxs[0], one),
        evaluate_lm_perplexity(model, &ctxs[1], one),
    ]
}

fn contexts() -> [QuantCtx; 2] {
    schemes().map(QuantCtx::inference)
}

/// Score batches round-robin until `until` (at least `min` rounds),
/// each batch once through every context set in turn, checking every
/// perplexity's bits against `want`. Returns each set's pair times.
fn timed_loop(
    out: &mut Outcome,
    model: &Model,
    batches: &[LmBatch],
    want: &[[f64; 2]],
    sets: &[&[QuantCtx; 2]],
    until: Instant,
    min: usize,
) -> Vec<Vec<f64>> {
    let mut pair_ms = vec![Vec::new(); sets.len()];
    let mut i = 0;
    while Instant::now() < until || i < min {
        let k = i % batches.len();
        for (ctxs, times) in sets.iter().zip(&mut pair_ms) {
            let (got, ms) = timed(|| score(model, ctxs, &batches[k]));
            times.push(ms);
            for s in 0..2 {
                out.attempted += 1;
                out.check(got[s].to_bits() == want[k][s].to_bits(), || {
                    format!(
                        "batch {k} scheme {s}: perplexity {} != fresh-context {}",
                        got[s], want[k][s]
                    )
                });
            }
        }
        i += 1;
    }
    pair_ms
}

fn canary(out: &mut Outcome) {
    let (model, batches) = build(golden::CANARY_SEED, 1);
    let got = score(&model, &contexts(), &batches[0]);
    for (s, want) in golden::PTQ_PPL_BITS.iter().enumerate() {
        out.attempted += 1;
        out.check(got[s].to_bits() == *want, || {
            format!(
                "ptq canary scheme {s}: perplexity bits {:#018x} != committed {want:#018x}",
                got[s].to_bits()
            )
        });
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let ((model, batches), setup_ms) = median_ms_of(15, || {
        let mb = build(opts.seed, POOL);
        let _ = contexts();
        mb
    });
    // Reference: each batch scored on fresh contexts (cold pack cache).
    let want: Vec<[f64; 2]> = batches
        .iter()
        .map(|b| score(&model, &contexts(), b))
        .collect();
    let ctxs = contexts();
    let until =
        Instant::now() + Duration::from_secs_f64(opts.seconds * if opts.trace { 0.4 } else { 0.8 });

    if opts.trace {
        // Untraced and traced pairs alternate; the traced contexts are
        // clones of warm untraced ones, so they share the pack cache.
        for b in &batches {
            score(&model, &ctxs, b);
        }
        let session = TraceSession::new("perfbench.ptq").handle();
        let traced = ctxs.clone().map(|c| c.with_trace(session.clone()));
        let ms = timed_loop(
            &mut out,
            &model,
            &batches,
            &want,
            &[&ctxs, &traced],
            until,
            2,
        );
        out.metric(
            "trace_overhead_ratio",
            median(&ms[1]) / median(&ms[0]),
            "ratio",
        );
        layers::span_metrics(&mut out, &session.borrow());
        let ctx = LayerCtx::for_batch(&model, ElemFormat::P8E1, batches[0].0.clone(), opts.seed);
        layers::probe(&ctx, opts, &mut out, None);
        canary(&mut out);
        return out;
    }

    let pair_ms = timed_loop(&mut out, &model, &batches, &want, &[&ctxs], until, 5).remove(0);
    canary(&mut out);
    let p50 = median(&pair_ms);
    let tokens = (2 * BATCH * SEQ) as f64;
    out.info("pairs", pair_ms.len() as f64, "count");
    out.info("tokens_per_s", tokens / (p50 / 1e3), "1/s");
    out.info("ppl_posit8", want[0][0], "");
    out.info("ppl_fp8", want[0][1], "");
    out.metric("setup_s", setup_ms / 1e3, "s");
    out.metric("p50_ms", p50, "ms");
    out.info("pair_p90_ms", quantile(&pair_ms, 0.9), "ms");
    out.metric("work_per_s", tokens / (p50 / 1e3), "1/s");
    out
}
