//! The per-request execution engine: attempts, retries, deadline
//! enforcement, and health-driven degradation for one model.
//!
//! The engine owns the pristine master weights and two inference
//! schemes: the quantized *primary* path (8-bit storage — the thing
//! faults corrupt) and the *degraded* BF16 reference path, which reads
//! the uncorrupted master weights and therefore cannot be poisoned by
//! storage upsets. One call to [`Engine::process`] takes a request from
//! admission to a final [`Response`], threading a block-budget
//! [`CancelToken`] through every forward pass so a deadline aborts
//! mid-model rather than after the fact.
//!
//! The engine is deliberately clock-free: time is a parameter (virtual
//! µs), routing decisions come from caller-supplied closures, and all
//! randomness is derived from the request id. The deterministic
//! simulation driver and the threaded server are both thin shells
//! around this one code path.

use crate::breaker::Route;
use crate::config::ServeConfig;
use crate::request::{OutcomeKind, Request, Response};
use crate::retry::{Backoff, RetryPolicy};
use qt_autograd::Tape;
use qt_quant::{HealthWindow, QuantScheme, TensorHealth};
use qt_robust::{cell_seed, FaultSource};
use qt_transformer::{CancelToken, Model, ModelKind, QuantCtx, TokenBatch, TrainMode};

/// Hard cap on attempts per request beyond the retry policy, so a
/// deadline-less request against a pathological fault environment still
/// terminates (it degrades, and if even that is flagged, it misses).
const ATTEMPT_HARD_CAP: u32 = 16;

/// What one forward attempt produced.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// `false` when the pass was cancelled by the block budget.
    pub completed: bool,
    /// Argmax over the logits (completed attempts only).
    pub label: Option<usize>,
    /// Aggregate quantization health of the pass, including a final
    /// non-finite scan of the logits themselves.
    pub health: TensorHealth,
    /// Transformer blocks actually executed.
    pub blocks: u64,
    /// Bits the fault source flipped into this attempt's weight read.
    pub bits_flipped: u64,
}

/// Everything [`Engine::process`] learned about one request.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// The final response.
    pub response: Response,
    /// Blocks executed across all attempts (the compute actually spent).
    pub blocks: u64,
    /// Virtual time spent in retry backoff, µs.
    pub backoff_us: u64,
    /// Total service time (compute + backoff), µs.
    pub service_us: u64,
    /// Bits flipped into this request's weight reads across attempts.
    pub bits_flipped: u64,
}

/// The serving engine for one model.
pub struct Engine {
    model: Model,
    primary: QuantScheme,
    fallback: QuantScheme,
    fault: Box<dyn FaultSource + Send + Sync>,
    retry: RetryPolicy,
    retry_seed: u64,
    per_block_us: u64,
}

impl Engine {
    /// Engine serving `model` under `cfg`, reading weights through
    /// `fault` (use [`qt_robust::NoFaults`] for healthy hardware).
    pub fn new(model: Model, cfg: &ServeConfig, fault: Box<dyn FaultSource + Send + Sync>) -> Self {
        let cfg = cfg.clone().normalized();
        Self {
            model,
            primary: QuantScheme::uniform(cfg.primary),
            fallback: QuantScheme::bf16(),
            fault,
            retry: cfg.retry,
            retry_seed: cfg.retry_seed,
            per_block_us: cfg.per_block_us,
        }
    }

    /// The served model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Virtual cost of one transformer block, µs.
    pub fn per_block_us(&self) -> u64 {
        self.per_block_us
    }

    /// Virtual cost of one complete forward pass, µs.
    pub fn full_pass_us(&self) -> u64 {
        self.model.blocks_per_forward() * self.per_block_us
    }

    /// Run one forward attempt. `primary` selects the quantized path
    /// (with fault injection) or the degraded reference path (pristine
    /// weights); `block_budget` is enforced cooperatively between
    /// transformer blocks via a [`CancelToken`].
    pub fn attempt(
        &self,
        req: &Request,
        attempt_idx: u32,
        primary: bool,
        block_budget: u64,
    ) -> Attempt {
        let (faulted, bits_flipped) = if primary {
            match self.fault.corrupt_for_request(&self.model, req.id, attempt_idx) {
                Some((m, r)) => (Some(m), r.bits_flipped),
                None => (None, 0),
            }
        } else {
            (None, 0)
        };
        let model = faulted.as_ref().unwrap_or(&self.model);
        let scheme = if primary { self.primary } else { self.fallback };
        let token = CancelToken::with_block_budget(block_budget);
        let qctx = QuantCtx::inference(scheme).with_cancel(token.clone());
        let mut tape = Tape::new();
        let batch = TokenBatch::dense(req.tokens.clone(), 1, req.tokens.len());
        let dec = (model.cfg.kind == ModelKind::EncDec).then(|| batch.clone());
        match model.try_forward(&mut tape, &qctx, &batch, dec.as_ref(), TrainMode::Frozen) {
            Ok(out) => {
                let mut health = TensorHealth::default();
                for (_, h) in qctx.health_report() {
                    health.merge(&h);
                }
                let logits = tape.value(out.logits).data();
                // Belt and braces: even if every cut site were fused
                // away, a non-finite logit must flag the response.
                let bad_logits = logits.iter().filter(|x| !x.is_finite()).count() as u64;
                health.elements += logits.len() as u64;
                health.nonfinite_out += bad_logits;
                let label = logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                Attempt {
                    completed: true,
                    label: Some(label),
                    health,
                    blocks: model.blocks_per_forward(),
                    bits_flipped,
                }
            }
            Err(cancelled) => Attempt {
                completed: false,
                label: None,
                health: TensorHealth::default(),
                blocks: cancelled.blocks_completed,
                bits_flipped,
            },
        }
    }

    /// Take `req` from service start to a final response.
    ///
    /// `start_us` is when a worker picked the request up (virtual clock).
    /// `route` is consulted before each attempt (the circuit breaker);
    /// `record` receives the health of every *primary* attempt so the
    /// breaker sees exactly what the quantized path produced. Both take
    /// the current virtual time.
    ///
    /// Invariants, by construction:
    /// - an attempt whose health carries non-finite traffic is never the
    ///   served response — it is retried with backoff, degraded, or the
    ///   request misses;
    /// - a cancelled forward contributes no partial result — the request
    ///   misses its deadline;
    /// - attempts after `retry.max_attempts` are forced onto the
    ///   degraded path regardless of breaker state.
    pub fn process(
        &self,
        req: &Request,
        start_us: u64,
        mut route: impl FnMut(u64) -> Route,
        mut record: impl FnMut(&TensorHealth, u64),
    ) -> ProcessOutcome {
        let mut blocks = 0u64;
        let mut backoff_us = 0u64;
        let mut bits_flipped = 0u64;
        let mut flagged = 0u32;
        let mut backoff = Backoff::new(
            self.retry,
            cell_seed(self.retry_seed, req.id as usize, 0, 0),
        );
        let mut attempt_idx = 0u32;
        loop {
            let now = start_us + blocks * self.per_block_us + backoff_us;
            let budget = if req.deadline_us == Request::NO_DEADLINE {
                u64::MAX
            } else {
                req.deadline_us.saturating_sub(now) / self.per_block_us
            };
            if budget == 0 || attempt_idx >= ATTEMPT_HARD_CAP {
                return self.finish(
                    req,
                    OutcomeKind::DeadlineMiss,
                    None,
                    attempt_idx,
                    flagged,
                    now,
                    blocks,
                    backoff_us,
                    bits_flipped,
                );
            }
            let primary =
                attempt_idx < self.retry.max_attempts.max(1) && route(now) == Route::Primary;
            let a = self.attempt(req, attempt_idx, primary, budget);
            blocks += a.blocks;
            bits_flipped += a.bits_flipped;
            let after = start_us + blocks * self.per_block_us + backoff_us;
            if primary && a.completed {
                record(&a.health, after);
            }
            if !a.completed {
                // The block budget ran out mid-pass: no partial result
                // exists, the request misses.
                return self.finish(
                    req,
                    OutcomeKind::DeadlineMiss,
                    None,
                    attempt_idx + 1,
                    flagged,
                    after,
                    blocks,
                    backoff_us,
                    bits_flipped,
                );
            }
            if HealthWindow::is_unhealthy(&a.health) {
                // Flagged: this output never leaves the engine.
                flagged += 1;
                attempt_idx += 1;
                backoff_us += backoff.next_delay_us();
                continue;
            }
            let outcome = if primary {
                OutcomeKind::ServedPrimary
            } else {
                OutcomeKind::ServedDegraded
            };
            return self.finish(
                req,
                outcome,
                a.label,
                attempt_idx + 1,
                flagged,
                after,
                blocks,
                backoff_us,
                bits_flipped,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        req: &Request,
        outcome: OutcomeKind,
        label: Option<usize>,
        attempts: u32,
        flagged: u32,
        finish_us: u64,
        blocks: u64,
        backoff_us: u64,
        bits_flipped: u64,
    ) -> ProcessOutcome {
        ProcessOutcome {
            response: Response {
                id: req.id,
                outcome,
                label,
                attempts,
                flagged,
                finish_us,
                latency_us: finish_us.saturating_sub(req.arrival_us),
            },
            blocks,
            backoff_us,
            service_us: blocks * self.per_block_us + backoff_us,
            bits_flipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::ElemFormat;
    use qt_robust::{BerFaultSource, CodeFormat, NoFaults};
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TransformerConfig::mobilebert_tiny_sim();
        Model::new(cfg, TaskHead::Classify(2), &mut rng)
    }

    fn request(id: u64, model: &Model) -> Request {
        let mut rng = StdRng::seed_from_u64(100 + id);
        let tokens = (0..8).map(|_| rng.gen_range(0..model.cfg.vocab)).collect();
        Request::new(id, tokens)
    }

    #[test]
    fn healthy_request_is_served_primary_in_one_attempt() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
        let req = request(0, &model);
        let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(out.response.outcome, OutcomeKind::ServedPrimary);
        assert_eq!(out.response.attempts, 1);
        assert_eq!(out.response.flagged, 0);
        assert!(out.response.label.is_some());
        assert_eq!(out.blocks, model.blocks_per_forward());
        assert_eq!(out.service_us, engine.full_pass_us());
    }

    #[test]
    fn deadline_shorter_than_one_pass_misses_without_partial_result() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
        let blocks = model.blocks_per_forward();
        // Budget for exactly one block less than a full pass.
        let req = request(1, &model).with_deadline((blocks - 1) * cfg.per_block_us);
        let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(out.response.outcome, OutcomeKind::DeadlineMiss);
        assert!(out.response.label.is_none(), "no partial result");
        assert_eq!(out.blocks, blocks - 1, "cancelled between blocks");
    }

    #[test]
    fn degraded_route_serves_from_pristine_weights() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        // A brutal fault source: the primary path would be corrupted,
        // but routing is Degraded so it is never consulted.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let fault = BerFaultSource::new(3, codec, 0.05);
        let engine = Engine::new(model.clone(), &cfg, Box::new(fault));
        let req = request(2, &model);
        let mut recorded = 0;
        let out = engine.process(&req, 0, |_| Route::Degraded, |_, _| recorded += 1);
        assert_eq!(out.response.outcome, OutcomeKind::ServedDegraded);
        assert_eq!(out.bits_flipped, 0, "degraded path reads master weights");
        assert_eq!(recorded, 0, "degraded attempts are not breaker samples");
    }

    #[test]
    fn flagged_attempts_retry_then_degrade_and_never_serve_unhealthy() {
        let model = tiny_model();
        let mut cfg = ServeConfig::default();
        cfg.retry.max_attempts = 2;
        // BER high enough that essentially every primary read is flagged.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let fault = BerFaultSource::new(5, codec, 0.05);
        let engine = Engine::new(model.clone(), &cfg, Box::new(fault));
        let mut served_any_unhealthy = false;
        for id in 0..6u64 {
            let req = request(10 + id, &model);
            let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
            assert!(out.response.outcome.is_served());
            if out.response.flagged > 0 {
                // Retried at least once; the served attempt must have
                // been clean (degraded or a lucky clean re-read).
                served_any_unhealthy = false;
            }
            assert!(out.response.attempts <= cfg.retry.max_attempts + 1);
        }
        assert!(!served_any_unhealthy);
    }

    #[test]
    fn process_is_deterministic_for_a_given_request() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let engine = Engine::new(
            model.clone(),
            &cfg,
            Box::new(BerFaultSource::new(7, codec, 1e-3)),
        );
        let req = request(3, &model).with_deadline(500_000);
        let a = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        let b = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(a.response, b.response);
        assert_eq!(a.bits_flipped, b.bits_flipped);
        assert_eq!(a.service_us, b.service_us);
    }

    /// Threaded hosts share one engine across their workers.
    #[test]
    fn engine_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Engine>();
    }
}
