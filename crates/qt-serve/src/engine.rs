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
//! Each path keeps one shared [`QuantState`] (quantizer tables, softmax
//! and resident weight packs), filled by the first attempt on pristine
//! weights that completes; every later attempt on that path builds its
//! [`QuantCtx`] over it instead of from scratch. The state is a pure
//! function of the master weights and the scheme, so it does not matter
//! which attempt (or thread) fills it. A faulted attempt's flipped
//! weights fail the resident fingerprint check and repack into that
//! pass's own cache; faulted and cancelled attempts never fill it.
//!
//! The engine is deliberately clock-free: time is a parameter (virtual
//! µs), routing decisions come from caller-supplied closures, and all
//! randomness is derived from the request id. The deterministic
//! simulation driver, the fleet's replicas and threaded benchmark
//! harnesses are all thin shells around this one code path.

use crate::breaker::Route;
use crate::config::ServeConfig;
use crate::request::{OutcomeKind, Request, Response};
use crate::retry::{Backoff, RetryPolicy};
use qt_autograd::Tape;
use qt_quant::{HealthWindow, QuantScheme, TensorHealth};
use qt_robust::{cell_seed, FaultSource};
use qt_transformer::{CancelToken, Model, ModelKind, QuantCtx, QuantState, TokenBatch, TrainMode};
use std::sync::{Arc, OnceLock};

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
    /// Shared quantization state of the primary (`[0]`) and degraded
    /// (`[1]`) paths. Filled lazily, never in [`Engine::new`], so
    /// construction stays as cheap as cloning the model.
    states: [OnceLock<Arc<QuantState>>; 2],
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
            states: Default::default(),
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
        let faulted = if primary {
            self.fault
                .corrupt_for_request(&self.model, req.id, attempt_idx)
        } else {
            None
        };
        let token = CancelToken::with_block_budget(block_budget);
        let qctx = self.context(primary).with_cancel(token);
        match &faulted {
            Some((model, report)) => Attempt {
                bits_flipped: report.bits_flipped,
                ..forward(model, &qctx, req)
            },
            None => {
                let a = forward(&self.model, &qctx, req);
                if a.completed {
                    self.publish(primary, &qctx);
                }
                a
            }
        }
    }

    /// An inference context for one pass on the primary or degraded path:
    /// over that path's shared state once it is filled, else from scratch.
    fn context(&self, primary: bool) -> QuantCtx {
        match self.state_slot(primary).get() {
            Some(state) => QuantCtx::over(Arc::clone(state)),
            None if primary => QuantCtx::inference(self.primary),
            None => QuantCtx::inference(self.fallback),
        }
    }

    /// Fill the path's shared state from a completed pass over the master
    /// weights, unless another pass already did.
    fn publish(&self, primary: bool, qctx: &QuantCtx) {
        self.state_slot(primary)
            .get_or_init(|| Arc::new(qctx.resident_state()));
    }

    fn state_slot(&self, primary: bool) -> &OnceLock<Arc<QuantState>> {
        &self.states[usize::from(!primary)]
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

/// One forward pass of `req` through `model` under `qctx`. The caller
/// fills in `bits_flipped`.
fn forward(model: &Model, qctx: &QuantCtx, req: &Request) -> Attempt {
    let mut tape = Tape::new();
    let batch = TokenBatch::dense(req.tokens.clone(), 1, req.tokens.len());
    let dec = (model.cfg.kind == ModelKind::EncDec).then(|| batch.clone());
    match model.try_forward(&mut tape, qctx, &batch, dec.as_ref(), TrainMode::Frozen) {
        Ok(out) => {
            let mut health = qctx.health_total();
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
                bits_flipped: 0,
            }
        }
        Err(cancelled) => Attempt {
            completed: false,
            label: None,
            health: TensorHealth::default(),
            blocks: cancelled.blocks_completed,
            bits_flipped: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::ElemFormat;
    use qt_robust::{BerFaultSource, BurstFaultSource, CodeFormat, NoFaults};
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::rc::Rc;

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
        // Requests 10..16 read at a BER high enough that essentially
        // every primary read is flagged; request 0 reads clean.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let fault = BurstFaultSource::new(BerFaultSource::new(5, codec, 0.0), 0.05, 10..16);
        let engine = Engine::new(model.clone(), &cfg, Box::new(fault));
        // The clean request fills the primary path's shared state, so the
        // faulted attempts below run with it warm.
        let warmup = engine.process(&request(0, &model), 0, |_| Route::Primary, |_, _| {});
        assert_eq!(warmup.response.outcome, OutcomeKind::ServedPrimary);
        assert!(engine.state_slot(true).get().is_some());
        for id in 10..16u64 {
            let req = request(id, &model);
            let mut unhealthy = 0u32;
            let mut last_primary_healthy = None;
            let out = engine.process(
                &req,
                0,
                |_| Route::Primary,
                |h, _| {
                    let bad = HealthWindow::is_unhealthy(h);
                    unhealthy += u32::from(bad);
                    last_primary_healthy = Some(!bad);
                },
            );
            assert!(out.response.outcome.is_served());
            // Every unhealthy primary attempt was flagged, and the
            // degraded path (master weights) flagged nothing.
            assert_eq!(out.response.flagged, unhealthy, "request {id}");
            assert!(unhealthy > 0, "request {id} should read corrupted");
            if out.response.outcome == OutcomeKind::ServedPrimary {
                assert_eq!(
                    last_primary_healthy,
                    Some(true),
                    "served an unhealthy attempt"
                );
            }
            assert!(out.response.attempts <= cfg.retry.max_attempts + 1);
        }
    }

    /// Each request's response and merged primary health, served by one
    /// engine (shared state warm after the first clean read) and by a
    /// fresh engine per request (every attempt from scratch).
    fn served(engine: &Engine, req: &Request) -> (Response, TensorHealth, u64) {
        let mut health = TensorHealth::default();
        let out = engine.process(req, 0, |_| Route::Primary, |h, _| health.merge(h));
        (out.response, health, out.bits_flipped)
    }

    #[test]
    fn shared_state_serves_the_same_bits_as_a_cold_engine() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        // About half of the reads at this BER flip at least one bit.
        let ber = BerFaultSource::new(9, codec, 2e-6);
        let sources: [&dyn Fn() -> Box<dyn FaultSource + Send + Sync>; 2] =
            [&|| Box::new(NoFaults), &|| Box::new(ber)];
        let mut faulted = Vec::new();
        for source in sources {
            let shared = Engine::new(model.clone(), &cfg, source());
            let mut flipped = 0;
            for id in 0..20u64 {
                let req = request(200 + id, &model);
                let cold = Engine::new(model.clone(), &cfg, source());
                let got = served(&shared, &req);
                assert_eq!(got, served(&cold, &req), "request {id}");
                flipped += usize::from(got.2 > 0);
            }
            assert!(shared.state_slot(true).get().is_some(), "never warmed");
            faulted.push(flipped);
        }
        // Both sources ran; the BER source mixed faulted and clean reads.
        assert_eq!(faulted[0], 0);
        assert!((1..20).contains(&faulted[1]), "{faulted:?}");
    }

    /// The GEMM site that reads parameter `name`, if any.
    fn gemm_site(name: &str) -> Option<String> {
        let (prefix, last) = name.rsplit_once('.')?;
        let site = match last {
            "wq" => "q",
            "wk" => "k",
            "wv" => "v",
            "wo" => "o",
            "w1" => "up",
            "w2" => "down",
            "w" => return Some(prefix.to_string()),
            _ => return None,
        };
        Some(format!("{prefix}.{site}"))
    }

    #[test]
    fn faulted_attempt_repacks_exactly_its_flipped_sites() {
        let model = tiny_model();
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let src = BerFaultSource::new(21, codec, 2e-6);
        let engine = Engine::new(model.clone(), &ServeConfig::default(), Box::new(src));
        // Warm the primary state with the first clean read.
        let clean = (0..64u64)
            .find(|&id| src.corrupt_for_request(&model, id, 0).is_none())
            .expect("a clean read at this BER");
        engine.attempt(&request(clean, &model), 0, true, u64::MAX);
        let state = engine
            .state_slot(true)
            .get()
            .expect("clean read fills the state");
        let sites = state.resident_packs();
        // A read whose flips hit some GEMM weights but not all of them.
        let (id, faulted, flipped) = (0..256u64)
            .find_map(|id| {
                let (m, _) = src.corrupt_for_request(&model, id, 0)?;
                let flipped: BTreeSet<String> = src
                    .positions_for_request(&model, id, 0)
                    .iter()
                    .filter_map(|(name, _)| gemm_site(name))
                    .collect();
                (!flipped.is_empty() && flipped.len() < sites).then_some((id, m, flipped))
            })
            .expect("a read that flips some GEMM weights");
        let session = qt_trace::TraceSession::new("t").handle();
        let qctx = engine.context(true).with_trace(Rc::clone(&session));
        let a = forward(&faulted, &qctx, &request(id, &model));
        assert!(a.completed);
        let packed: BTreeSet<String> = qctx.packed_sites().into_iter().collect();
        assert_eq!(packed, flipped, "request {id}");
        let sess = session.borrow();
        let m = sess.metrics();
        let miss = m.counter_value("gemm.pack_cache", &[("event", "miss")]);
        let hit = m.counter_value("gemm.pack_cache", &[("event", "hit")]);
        assert_eq!(miss as usize, flipped.len());
        assert_eq!(
            (hit + miss) as usize,
            sites,
            "every other site hit the store"
        );
        // The faulted pass left the shared state as it was.
        assert_eq!(
            engine.state_slot(true).get().unwrap().resident_packs(),
            sites
        );
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
