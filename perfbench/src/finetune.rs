//! `finetune_lora`: 8-bit LoRA fine-tuning (paper §5).
//!
//! `Trainer::step_classify` on BERT_base-sim with the RoBERTa LoRA
//! configuration (rank 8 on Wq/Wv), a GLUE-like classification task at
//! batch 16 × sequence 24, posit8 forward and backward with per-tensor
//! amax scaling. Each episode trains fresh adapters from the same start
//! over the same batches, so every episode's loss trajectory and final
//! adapter bits must match the first's.

use crate::golden;
use crate::layers::{self, LayerCtx};
use crate::stats::{median, median_ms_of, quantile, timed, Fnv, Outcome};
use crate::Opts;
use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::{ElemFormat, QuantScheme};
use qt_trace::{TraceHandle, TraceSession};
use qt_train::{AdamW, Trainer};
use qt_transformer::{
    LoraConfig, Model, QuantCtx, TaskHead, TokenBatch, TrainMode, TransformerConfig,
};
use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};

const BATCH: usize = 16;
const SEQ: usize = 24;
const STEPS: usize = 8;
const LR: f32 = 1e-3;
const KIND: ClassifyKind = ClassifyKind::Sst2;

type ClsBatch = (TokenBatch, Vec<usize>);

fn build(seed: u64, steps: usize) -> (Model, Vec<ClsBatch>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(
        TransformerConfig::bert_base_sim(),
        TaskHead::Classify(KIND.classes()),
        &mut rng,
    );
    let task = ClassifyTask::new(KIND, model.cfg.vocab, SEQ);
    let data = task.dataset(steps * BATCH, seed ^ 0x10);
    let batches = data.chunks(BATCH).map(|c| task.batch(c)).collect();
    (model, batches)
}

fn trainer(base: &Model, seed: u64, trace: Option<&TraceHandle>) -> Trainer<AdamW> {
    let mut model = base.clone();
    model.add_lora(
        LoraConfig::roberta_default(),
        &mut StdRng::seed_from_u64(seed ^ 0x1a),
    );
    let mut qctx = QuantCtx::training(QuantScheme::posit8());
    if let Some(t) = trace {
        qctx = qctx.with_trace(t.clone());
    }
    Trainer::new(model, qctx, TrainMode::Lora, AdamW::new(LR))
}

/// What one episode produced.
struct Episode {
    /// Digest of the loss trajectory and the final LoRA parameter bits.
    digest: u64,
    losses: Vec<f32>,
    step_ms: Vec<f64>,
    skipped: usize,
}

fn episode(base: &Model, seed: u64, batches: &[ClsBatch], trace: Option<&TraceHandle>) -> Episode {
    let mut tr = trainer(base, seed, trace);
    let mut losses = Vec::with_capacity(batches.len());
    let mut step_ms = Vec::with_capacity(batches.len());
    for (b, labels) in batches {
        let (loss, ms) = timed(|| tr.step_classify(b, labels));
        losses.push(loss);
        step_ms.push(ms);
    }
    let mut d = Fnv::default();
    d.f32s(&losses);
    for (name, t) in tr.model.params.iter() {
        if name.contains(".lora_") {
            d.bytes(name.as_bytes()).f32s(t.data());
        }
    }
    Episode {
        digest: d.get(),
        losses,
        step_ms,
        skipped: tr.skipped(),
    }
}

/// Run episodes until `until` (at least `min` rounds), each round one
/// episode per trace option in turn, checking each against `want`.
/// Returns each option's step times and the skipped-step count.
#[allow(clippy::too_many_arguments)]
fn timed_loop(
    out: &mut Outcome,
    base: &Model,
    seed: u64,
    batches: &[ClsBatch],
    want: u64,
    traces: &[Option<&TraceHandle>],
    until: Instant,
    min: usize,
) -> (Vec<Vec<f64>>, usize) {
    let (mut step_ms, mut skipped, mut n) = (vec![Vec::new(); traces.len()], 0, 0);
    while Instant::now() < until || n < min {
        for (trace, times) in traces.iter().zip(&mut step_ms) {
            let e = episode(base, seed, batches, *trace);
            out.attempted += e.losses.len() as u64;
            out.failed += e.skipped as u64;
            if e.digest != want {
                out.failed += (e.losses.len() - e.skipped) as u64;
                out.mismatches.push(format!(
                    "episode {n}: loss/LoRA digest {:#018x} != first episode's {want:#018x}",
                    e.digest
                ));
            }
            times.extend(e.step_ms);
            skipped += e.skipped;
        }
        n += 1;
    }
    (step_ms, skipped)
}

fn canary(out: &mut Outcome) {
    let (base, batches) = build(golden::CANARY_SEED, 3);
    let e = episode(&base, golden::CANARY_SEED, &batches, None);
    out.attempted += 1;
    out.check(e.digest == golden::FINETUNE_DIGEST, || {
        format!(
            "finetune canary digest {:#018x} != committed {:#018x}",
            e.digest,
            golden::FINETUNE_DIGEST
        )
    });
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let ((base, batches), setup_ms) = median_ms_of(15, || {
        let (base, batches) = build(opts.seed, STEPS);
        let _ = trainer(&base, opts.seed, None);
        (base, batches)
    });
    let first = episode(&base, opts.seed, &batches, None);
    out.note(format!(
        "loss_trajectory = [{}]",
        first
            .losses
            .iter()
            .map(|l| format!("{l:.5}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!("lora_digest = {:#018x}", first.digest));

    let until =
        Instant::now() + Duration::from_secs_f64(opts.seconds * if opts.trace { 0.4 } else { 0.8 });

    if opts.trace {
        // Untraced and traced episodes alternate.
        let session = TraceSession::new("perfbench.finetune").handle();
        let (ms, skipped) = timed_loop(
            &mut out,
            &base,
            opts.seed,
            &batches,
            first.digest,
            &[None, Some(&session)],
            until,
            1,
        );
        out.metric(
            "trace_overhead_ratio",
            median(&ms[1]) / median(&ms[0]),
            "ratio",
        );
        out.metric("skipped_steps", skipped as f64, "count");
        layers::span_metrics(&mut out, &session.borrow());
        let ctx = LayerCtx::for_batch(&base, ElemFormat::P8E1, batches[0].0.clone(), opts.seed);
        layers::probe(&ctx, opts, &mut out, None);
        canary(&mut out);
        return out;
    }

    let (mut ms, skipped) = timed_loop(
        &mut out,
        &base,
        opts.seed,
        &batches,
        first.digest,
        &[None],
        until,
        2,
    );
    let step_ms = ms.remove(0);
    canary(&mut out);
    let p50 = median(&step_ms);
    let tokens = (BATCH * SEQ) as f64;
    out.info("steps", step_ms.len() as f64, "count");
    out.info("step_p50_ms", p50, "ms");
    out.info("tokens_per_s", tokens / (p50 / 1e3), "1/s");
    out.info("skipped_steps", skipped as f64, "count");
    out.metric("setup_s", setup_ms / 1e3, "s");
    out.metric("p50_ms", p50, "ms");
    out.info("step_p90_ms", quantile(&step_ms, 0.9), "ms");
    out.metric("work_per_s", tokens / (p50 / 1e3), "1/s");
    out
}
