//! [`QuantCtx`]: injects quantization at operation boundaries.
//!
//! The paper's simulation recipe (§6): *"clipping tensor values to the
//! Posit8 or FP8 representable range before and after each operation;
//! storing the value back into BFloat16"*. Here every operation input runs
//! through [`QuantCtx::cut`], which
//!
//! - **forward**: fake-quantizes the value to the forward format — unless
//!   the site’s [`OpClass`] is fused at the scheme’s fusion level;
//! - **backward**: quantizes the gradient to the backward format, applying
//!   per-tensor delayed scaling (§5.1) and recording the observed amax into
//!   the shared [`AmaxTracker`].
//!
//! A context has two parts. The immutable [`QuantState`] (scheme,
//! quantizer tables, softmax, resident weight packs) is `Send + Sync` and
//! may be shared by any number of passes on any thread. Everything a pass
//! mutates (health, amax history, its own pack cache, trace, probe,
//! cancel token) is per-context `Rc` state.

use crate::cancel::{CancelToken, ForwardCancelled};
use crate::probe::ProbeStore;
use crate::softmax::Softmax;
use qt_autograd::{reduce_grad_to_shape, Tape, Var};
use qt_quant::{
    matmul_codes, AmaxTracker, ElemFormat, FakeQuant, OpClass, PackedQuantB, QuantScheme,
    ScalingMode, TensorHealth,
};
use qt_tensor::{Tensor, TensorStats};
use qt_trace::{CycleModel, QuantEvent, SpanId, TraceHandle};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// One weight pack: the decoded KC×NR panels plus the fingerprint of the
/// f32 weight bits it was built from. A fingerprint, shape or format
/// mismatch (weight update, LoRA merge change, injected bit flip, another
/// scheme's store) repacks.
#[derive(Clone)]
struct PackEntry {
    fingerprint: u64,
    pack: Arc<PackedQuantB>,
}

impl PackEntry {
    /// Was this pack built from a `[k, n]` weight with fingerprint `fp`
    /// in `format`?
    fn holds(&self, fp: u64, k: usize, n: usize, format: ElemFormat) -> bool {
        self.fingerprint == fp
            && self.pack.k() == k
            && self.pack.n() == n
            && self.pack.format() == format
    }
}

/// FNV-1a-style hash over whole 32-bit words of the exact f32 bit
/// patterns: one xor-then-multiply by the odd FNV prime per weight.
///
/// For a fixed word each step is a bijection of the 64-bit state (xor is,
/// and multiplying by an odd number is invertible mod 2^64), so two
/// equal-length inputs that differ in any single word — a single-bit
/// weight flip included — always hash differently. The value is only ever
/// compared with fingerprints made by this same function, never stored or
/// reported, so hashing words instead of bytes changes no output.
fn fnv1a64(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in data {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The immutable, shareable part of a quantization context: the scheme,
/// its quantizer tables and softmax, and a store of resident weight packs
/// keyed by GEMM site. It is a pure function of the scheme and the weight
/// bits its packs were built from, so a serving engine builds it once and
/// every later pass reads it through [`QuantCtx::over`].
#[derive(Clone)]
pub struct QuantState {
    scheme: QuantScheme,
    fq_fwd: Arc<FakeQuant>,
    /// Gradient quantizer; built for training contexts only, since
    /// inference cuts never quantize gradients.
    fq_bwd: Option<Arc<FakeQuant>>,
    softmax: Arc<Softmax>,
    /// Resident weight packs by GEMM site. Every lookup still checks the
    /// fingerprint, shape and format, so a pass over different weight
    /// bits misses and packs into its own cache instead.
    resident: BTreeMap<String, PackEntry>,
}

impl QuantState {
    fn build(scheme: QuantScheme, training: bool) -> Self {
        let quantizer = |fmt| {
            Arc::new(FakeQuant::with_guard(
                fmt,
                scheme.underflow,
                scheme.nonfinite,
            ))
        };
        Self {
            scheme,
            fq_fwd: quantizer(scheme.fwd),
            fq_bwd: training.then(|| quantizer(scheme.bwd)),
            softmax: Arc::new(Softmax::new(scheme.softmax)),
            resident: BTreeMap::new(),
        }
    }

    /// Number of resident weight packs.
    pub fn resident_packs(&self) -> usize {
        self.resident.len()
    }
}

impl core::fmt::Debug for QuantState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QuantState")
            .field("scheme", &self.scheme)
            .field("resident_packs", &self.resident.len())
            .finish()
    }
}

/// Quantization context threaded through a model's forward pass.
#[derive(Clone)]
pub struct QuantCtx {
    state: Arc<QuantState>,
    tracker: Rc<RefCell<AmaxTracker>>,
    health: Rc<RefCell<BTreeMap<String, TensorHealth>>>,
    /// Weight packs this context built itself (inference only; shared
    /// across clones of this context, like the health map). Sites the
    /// resident store answers never land here.
    gemm_cache: Rc<RefCell<BTreeMap<String, PackEntry>>>,
    probe: Option<Rc<RefCell<ProbeStore>>>,
    trace: Option<TraceHandle>,
    cycles: Option<Rc<dyn CycleModel>>,
    cancel: Option<CancelToken>,
    training: bool,
}

impl QuantCtx {
    /// Context for inference (no gradient bookkeeping).
    pub fn inference(scheme: QuantScheme) -> Self {
        Self::build(Arc::new(QuantState::build(scheme, false)), false)
    }

    /// Context for training: gradients are quantized and amax history is
    /// tracked.
    pub fn training(scheme: QuantScheme) -> Self {
        Self::build(Arc::new(QuantState::build(scheme, true)), true)
    }

    /// Inference context over a shared [`QuantState`]: no quantizer table
    /// is built, and GEMM weights whose bits match a resident pack are not
    /// repacked.
    pub fn over(state: Arc<QuantState>) -> Self {
        Self::build(state, false)
    }

    fn build(state: Arc<QuantState>, training: bool) -> Self {
        let history = match state.scheme.scaling {
            ScalingMode::PerTensorAmax { history } => history,
            _ => 1,
        };
        Self {
            state,
            tracker: Rc::new(RefCell::new(AmaxTracker::new(history))),
            health: Rc::new(RefCell::new(BTreeMap::new())),
            gemm_cache: Rc::new(RefCell::new(BTreeMap::new())),
            probe: None,
            trace: None,
            cycles: None,
            cancel: None,
            training,
        }
    }

    /// The shared state this context reads, with every pack this context
    /// built added to its resident store. Publish it only from a pass
    /// over the weights later passes will read: packs of other weights
    /// are never wrong (lookups check the fingerprint), only useless.
    pub fn resident_state(&self) -> QuantState {
        let mut state = QuantState::clone(&self.state);
        let cache = self.gemm_cache.borrow();
        state
            .resident
            .extend(cache.iter().map(|(site, e)| (site.clone(), e.clone())));
        state
    }

    /// Attach a cooperative cancellation token: the model charges one
    /// block credit per transformer block against it and
    /// [`crate::Model::try_forward`] aborts cleanly when the token
    /// cancels or its budget runs dry.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Charge one block credit against the attached token; infallible
    /// when no token is attached.
    pub fn charge_block(&self) -> Result<(), ForwardCancelled> {
        match &self.cancel {
            Some(t) => t.charge_block(),
            None => Ok(()),
        }
    }

    /// Attach a probe that records pre-quantization tensor statistics at
    /// every cut.
    pub fn with_probe(mut self, probe: Rc<RefCell<ProbeStore>>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attach a trace session: every cut emits a quantization event, the
    /// model wraps blocks/attention/FFNs in spans, and (with a cycle
    /// model) each GEMM becomes a span whose duration is simulated
    /// cycles. Without a session none of that work happens.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attach a cycle-cost oracle (e.g. `qt_accel::SystolicSim`) used to
    /// attribute simulated cycles to GEMM/softmax spans. Only consulted
    /// when a trace session is also attached.
    pub fn with_cycle_model(mut self, model: Rc<dyn CycleModel>) -> Self {
        self.cycles = Some(model);
        self
    }

    /// The attached trace session, if any.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// `true` when a trace session is attached (cheap gate for callers
    /// that would otherwise build span names for nothing).
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Open a span on the attached session; no-op (returns `None`)
    /// untraced.
    pub fn span_begin(&self, name: &str, cat: &str) -> Option<SpanId> {
        self.trace
            .as_ref()
            .map(|t| t.borrow_mut().begin(name, cat))
    }

    /// Close a span opened by [`QuantCtx::span_begin`].
    pub fn span_end(&self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (&self.trace, id) {
            t.borrow_mut().end(id);
        }
    }

    /// Record a simulated-GEMM span at `site` for a `[m, k] × [k, n]`
    /// GEMM, and attribute its simulated cycles to the active kernel
    /// backend (`gemm.backend.cycles`, labelled by the dispatch decision —
    /// deterministic, never wall time). No-op unless both a session and a
    /// cycle model are attached.
    pub fn gemm_span(&self, site: &str, m: usize, k: usize, n: usize) {
        if let (Some(t), Some(cm)) = (&self.trace, &self.cycles) {
            let cost = cm.gemm_cost(m as u64, k as u64, n as u64);
            let mut t = t.borrow_mut();
            t.metrics_mut().counter_add(
                "gemm.backend.cycles",
                &[("backend", qt_tensor::kernels::active().name())],
                cost.cycles,
            );
            t.gemm(site, [m as u64, k as u64, n as u64], cost);
        }
    }

    /// Count one GEMM dispatch on the `gemm.backend` metric: which SIMD
    /// backend the kernel layer selected and which domain the multiply ran
    /// in (`code` = pre-packed quantized weight, `f32` = dequantize-then-
    /// matmul). Records the dispatch *decision*, so manifests stay
    /// deterministic. No-op untraced.
    fn note_gemm_backend(&self, domain: &str) {
        if let Some(t) = &self.trace {
            t.borrow_mut().metrics_mut().counter_add(
                "gemm.backend",
                &[
                    ("backend", qt_tensor::kernels::active().name()),
                    ("domain", domain),
                ],
                1,
            );
        }
    }

    /// The scheme in effect.
    pub fn scheme(&self) -> &QuantScheme {
        &self.state.scheme
    }

    /// Shared amax tracker (inspect after training for Figure 10).
    pub fn tracker(&self) -> Rc<RefCell<AmaxTracker>> {
        Rc::clone(&self.tracker)
    }

    /// Per-cut numerical health accumulated since the last
    /// [`QuantCtx::reset_health`], sorted by cut name. Forward cuts are
    /// keyed by their site name, gradient cuts by `"<name>.grad"`.
    pub fn health_report(&self) -> Vec<(String, TensorHealth)> {
        self.health
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Health of one cut site, if it has run.
    pub fn health_of(&self, name: &str) -> Option<TensorHealth> {
        self.health.borrow().get(name).copied()
    }

    /// All health counters folded into one summary.
    pub fn health_total(&self) -> TensorHealth {
        let mut total = TensorHealth::default();
        for h in self.health.borrow().values() {
            total.merge(h);
        }
        total
    }

    /// Clear accumulated health counters (e.g. between batches).
    pub fn reset_health(&self) {
        self.health.borrow_mut().clear();
    }

    /// Is this site quantized under the scheme?
    pub fn quantizes(&self, op: OpClass) -> bool {
        let scheme = &self.state.scheme;
        !matches!(scheme.fwd, ElemFormat::Fp32) && scheme.quantized_ops().contains(op)
    }

    /// Quantization cut: returns a [`Var`] whose forward value is the
    /// (possibly) quantized input and whose backward pass quantizes the
    /// gradient. `name` keys the probe entry and the per-tensor amax
    /// history; use stable names like `"layer2.ffn0.act"`.
    pub fn cut(&self, tape: &mut Tape, x: Var, op: OpClass, name: &str) -> Var {
        if let Some(p) = &self.probe {
            let stats = TensorStats::of(tape.value(x));
            // Probe records also flow into the attached session's metrics
            // registry, on the same binade axis.
            if let Some(t) = &self.trace {
                let mut t = t.borrow_mut();
                let m = t.metrics_mut();
                m.merge_hist("probe.log2", &[("site", name)], &stats.log2_hist);
                m.gauge_set("probe.amax", &[("site", name)], stats.amax as f64);
            }
            p.borrow_mut().record_stats(name, stats);
        }
        let quantize_fwd = self.quantizes(op);
        let scheme = &self.state.scheme;
        let quantize_bwd = self.training && !matches!(scheme.bwd, ElemFormat::Fp32);
        if !quantize_fwd && !quantize_bwd {
            return x;
        }
        let fwd_value = if quantize_fwd {
            let (v, h) = self.state.fq_fwd.quantize_with_health(tape.value(x));
            if let Some(t) = &self.trace {
                t.borrow_mut().quant(&QuantEvent {
                    site: name,
                    format: scheme.fwd.name(),
                    amax: tape.value(x).amax(),
                    elements: h.elements,
                    saturated: h.saturated,
                    underflowed: h.underflowed,
                    nonfinite_in: h.nonfinite_in,
                    nonfinite_out: h.nonfinite_out,
                });
            }
            self.health
                .borrow_mut()
                .entry(name.to_string())
                .or_default()
                .merge(&h);
            v
        } else {
            tape.value(x).clone()
        };
        if !quantize_bwd {
            return tape.custom(vec![x], fwd_value, Box::new(|g, _, _| vec![g.clone()]));
        }
        let fq_bwd = Arc::clone(
            self.state
                .fq_bwd
                .as_ref()
                .expect("training contexts build the gradient quantizer"),
        );
        let tracker = Rc::clone(&self.tracker);
        let health = Rc::clone(&self.health);
        let scaling = scheme.scaling;
        let bwd_fmt = scheme.bwd;
        let key = format!("{name}.grad");
        let probe = self.probe.clone();
        let trace = self.trace.clone();
        tape.custom(
            vec![x],
            fwd_value,
            Box::new(move |g, _parents, _| {
                if let Some(p) = &probe {
                    p.borrow_mut().record(&key, g);
                }
                let (gq, h) = match scaling {
                    ScalingMode::None | ScalingMode::LossScale(_) => {
                        fq_bwd.quantize_with_health(g)
                    }
                    ScalingMode::PerTensorAmax { .. } => {
                        // Delayed scaling: use the scale predicted from
                        // history, then record this step's amax.
                        let scale = tracker.borrow().scale_for(&key, bwd_fmt);
                        let amax = g.amax();
                        tracker.borrow_mut().record(&key, amax);
                        fq_bwd.quantize_scaled_with_health(g, scale)
                    }
                };
                if let Some(t) = &trace {
                    t.borrow_mut().quant(&QuantEvent {
                        site: &key,
                        format: bwd_fmt.name(),
                        amax: g.amax(),
                        elements: h.elements,
                        saturated: h.saturated,
                        underflowed: h.underflowed,
                        nonfinite_in: h.nonfinite_in,
                        nonfinite_out: h.nonfinite_out,
                    });
                }
                health
                    .borrow_mut()
                    .entry(key.clone())
                    .or_default()
                    .merge(&h);
                vec![gq]
            }),
        )
    }

    /// Quantize a weight tensor entering a GEMM. Weights are always cut at
    /// GEMM sites in an 8-bit scheme.
    pub fn cut_weight(&self, tape: &mut Tape, w: Var, name: &str) -> Var {
        self.cut(tape, w, OpClass::Gemm, name)
    }

    /// The quantized GEMM entry point: `x @ w` where both operands have
    /// already been cut. In an inference context with a quantized scheme
    /// and a 2-D weight, this runs the **code-domain path**: the weight is
    /// encoded to storage codes and decoded once into packed `KC × NR`
    /// panels (looked up per `site` in the resident store, then in this
    /// context's own cache, each entry validated by shape, format and an
    /// FNV-1a fingerprint of the exact weight bits, so weight updates and
    /// injected bit flips repack), then multiplied through the
    /// SIMD-dispatched blocked engine without materializing a fresh f32
    /// weight per call. Anything else — training, `Fp32` schemes, batched
    /// weights — takes the ordinary [`Tape::matmul`].
    ///
    /// Both paths are bitwise-identical (the code-domain contract is
    /// asserted in tests) and both register the exact matmul backward, so
    /// gradients are unaffected by the forward path choice.
    pub fn matmul_q(&self, tape: &mut Tape, x: Var, w: Var, site: &str) -> Var {
        let code_eligible = !self.training
            && !matches!(self.state.scheme.fwd, ElemFormat::Fp32)
            && tape.value(w).ndim() == 2
            && tape.value(x).ndim() >= 2
            && tape.value(x).shape()[tape.value(x).ndim() - 1] == tape.value(w).shape()[0];
        if !code_eligible {
            self.note_gemm_backend("f32");
            return tape.matmul(x, w);
        }
        let pack = self.weight_pack(site, tape.value(w));
        let y = matmul_codes(tape.value(x), &pack);
        self.note_gemm_backend("code");
        tape.custom(
            vec![x, w],
            y,
            Box::new(|g, parents, _| {
                // Exactly Tape::matmul's backward.
                let ga = g.matmul(&parents[1].transpose_last2());
                let gb = parents[0].transpose_last2().matmul(g);
                vec![
                    reduce_grad_to_shape(&ga, parents[0].shape()),
                    reduce_grad_to_shape(&gb, parents[1].shape()),
                ]
            }),
        )
    }

    /// Fetch the decoded panel pack for `site`'s weight: from the resident
    /// store, else from this context's cache, else build it into the cache.
    fn weight_pack(&self, site: &str, w: &Tensor) -> Arc<PackedQuantB> {
        let fp = fnv1a64(w.data());
        let (k, n) = (w.shape()[0], w.shape()[1]);
        let format = self.state.scheme.fwd;
        let mut cache = self.gemm_cache.borrow_mut();
        let found = [self.state.resident.get(site), cache.get(site)]
            .into_iter()
            .flatten()
            .find(|e| e.holds(fp, k, n, format));
        if let Some(e) = found {
            self.note_pack_cache("hit");
            return Arc::clone(&e.pack);
        }
        let codes = self
            .state
            .fq_fwd
            .quantize_to_codes(w)
            .expect("code path requires a non-Fp32 scheme");
        let pack = Arc::new(PackedQuantB::pack(&codes));
        cache.insert(
            site.to_string(),
            PackEntry {
                fingerprint: fp,
                pack: Arc::clone(&pack),
            },
        );
        self.note_pack_cache("miss");
        pack
    }

    /// Count a weight-pack cache event (`gemm.pack_cache`, labelled
    /// hit/miss). No-op untraced.
    fn note_pack_cache(&self, event: &str) {
        if let Some(t) = &self.trace {
            t.borrow_mut()
                .metrics_mut()
                .counter_add("gemm.pack_cache", &[("event", event)], 1);
        }
    }

    /// GEMM sites whose weight this context packed itself rather than
    /// reading it from the resident store, sorted (tests / diagnostics).
    pub fn packed_sites(&self) -> Vec<String> {
        self.gemm_cache.borrow().keys().cloned().collect()
    }

    /// The scheme's softmax, recorded with its custom backward.
    pub fn softmax(&self, tape: &mut Tape, scores: Var) -> Var {
        self.state.softmax.apply(tape, scores)
    }

    /// [`QuantCtx::softmax`] that also attributes vector-unit cycles at
    /// `site` when a session and cycle model are attached. Rows are the
    /// product of the leading dimensions, width the trailing one — the
    /// shape the accelerator's vector unit sees.
    pub fn softmax_named(&self, tape: &mut Tape, scores: Var, site: &str) -> Var {
        if let (Some(t), Some(cm)) = (&self.trace, &self.cycles) {
            let shape = tape.value(scores).shape().to_vec();
            if let Some((&width, rows)) = shape.split_last() {
                let rows: usize = rows.iter().product();
                let cycles = cm.softmax_cycles(rows as u64, width as u64);
                t.borrow_mut().vector(site, cycles, (rows * width) as u64);
            }
        }
        self.state.softmax.apply(tape, scores)
    }

    /// `true` when constructed with [`QuantCtx::training`].
    pub fn is_training(&self) -> bool {
        self.training
    }
}

impl core::fmt::Debug for QuantCtx {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QuantCtx")
            .field("scheme", &self.state.scheme)
            .field("training", &self.training)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::FusionLevel;
    use qt_tensor::Tensor;

    #[test]
    fn cut_quantizes_forward_value() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.03, 9999.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        assert_eq!(tape.value(q).data(), &[1.0, 4096.0]);
    }

    #[test]
    fn fusion_skips_forward_quantization() {
        let scheme = QuantScheme::posit8().with_fusion(FusionLevel::Residual);
        let ctx = QuantCtx::inference(scheme);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.03], &[1]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Residual, "t");
        assert_eq!(tape.value(q).data(), &[1.03]); // untouched
        let g = ctx.cut(&mut tape, x, OpClass::Gemm, "t2");
        assert_eq!(tape.value(g).data(), &[1.0]); // GEMM still quantized
    }

    #[test]
    fn training_quantizes_gradients_with_scaling() {
        let ctx = QuantCtx::training(QuantScheme::posit8());
        let mut tape = Tape::new();
        // gradient magnitude ~1e-5: underflows Posit8 without scaling
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        let s = tape.sum_all(q);
        let tiny = tape.mul_scalar(s, 1e-5);
        // First backward: no history → scale derived from amax=1 (64);
        // 1e-5·64 ≈ 2^-10.6 sits at the very bottom of the posit range,
        // so the gradient survives only coarsely (> 30% error).
        let g1 = tape.backward(tiny);
        let coarse = g1.get(x).unwrap().data()[0];
        assert!(coarse > 0.0, "coarse grad lost entirely");
        assert!(
            (coarse - 1e-5).abs() / 1e-5 > 0.3,
            "first step should be coarse, got {coarse}"
        );
        // History now knows amax=1e-5 → next step's scale rescues it.
        let g2 = tape.backward(tiny);
        let gx = g2.get(x).unwrap();
        assert!(
            (gx.data()[0] - 1e-5).abs() / 1e-5 < 0.05,
            "rescued grad {:?}",
            gx.data()
        );
    }

    #[test]
    fn identity_scheme_is_transparent() {
        let ctx = QuantCtx::training(QuantScheme::fp32());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.12345], &[1]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        assert_eq!(q, x); // no node inserted at all
    }

    #[test]
    fn cut_accumulates_health_per_site() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        // One saturating and one underflowing element at site "a"; a clean
        // tensor at site "b".
        let a = tape.leaf(Tensor::from_vec(vec![1e9, 1e-9, 1.0], &[3]), false);
        let b = tape.leaf(Tensor::from_vec(vec![0.5, -0.25], &[2]), false);
        let _ = ctx.cut(&mut tape, a, OpClass::Gemm, "a");
        let _ = ctx.cut(&mut tape, b, OpClass::Gemm, "b");
        let ha = ctx.health_of("a").unwrap();
        assert_eq!(ha.elements, 3);
        assert_eq!(ha.saturated, 1);
        assert_eq!(ha.underflowed, 1);
        let hb = ctx.health_of("b").unwrap();
        assert!(hb.is_clean());
        // Second pass over the same site accumulates.
        let _ = ctx.cut(&mut tape, a, OpClass::Gemm, "a");
        assert_eq!(ctx.health_of("a").unwrap().elements, 6);
        let total = ctx.health_total();
        assert_eq!(total.elements, 8);
        assert_eq!(total.saturated, 2);
        ctx.reset_health();
        assert!(ctx.health_report().is_empty());
    }

    #[test]
    fn gradient_cut_reports_health_under_grad_key() {
        let ctx = QuantCtx::training(QuantScheme::posit8());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        let s = tape.sum_all(q);
        let _ = tape.backward(s);
        let names: Vec<String> = ctx.health_report().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"t".to_string()));
        assert!(names.contains(&"t.grad".to_string()), "{names:?}");
    }

    #[test]
    fn health_report_is_sorted_and_merges_repeat_sites() {
        let ctx = QuantCtx::training(QuantScheme::posit8());
        let mut tape = Tape::new();
        // Cut sites deliberately out of lexicographic order, one repeated.
        for (name, n) in [("z.act", 2usize), ("a.act", 3), ("m.act", 1), ("a.act", 3)] {
            let x = tape.leaf(Tensor::from_vec(vec![1.0; n], &[n]), true);
            let q = ctx.cut(&mut tape, x, OpClass::Gemm, name);
            let s = tape.sum_all(q);
            let _ = tape.backward(s);
        }
        let report = ctx.health_report();
        let names: Vec<&str> = report.iter().map(|(n, _)| n.as_str()).collect();
        // Sorted by site name, forward and ".grad" keys interleaved.
        assert_eq!(
            names,
            [
                "a.act",
                "a.act.grad",
                "m.act",
                "m.act.grad",
                "z.act",
                "z.act.grad"
            ]
        );
        // The repeated site merged both passes: 3 + 3 elements.
        let a = &report[0].1;
        assert_eq!(a.elements, 6);
        assert_eq!(ctx.health_of("a.act.grad").unwrap().elements, 6);
    }

    #[test]
    fn traced_cut_emits_quant_events_and_probe_metrics() {
        let probe = Rc::new(RefCell::new(ProbeStore::new()));
        let session = qt_trace::TraceSession::new("t").handle();
        let ctx = QuantCtx::training(QuantScheme::posit8())
            .with_probe(Rc::clone(&probe))
            .with_trace(Rc::clone(&session));
        assert!(ctx.traced());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1e9, 1.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "site");
        let s = tape.sum_all(q);
        let _ = tape.backward(s);
        let sess = session.borrow();
        // Forward event carries pre-quant amax and the saturation count.
        let fwd = &sess.quant_sites()["site"];
        assert_eq!(fwd.events, 1);
        assert_eq!(fwd.saturated, 1);
        assert_eq!(fwd.amax_max, 1e9);
        assert!(fwd.formats.contains("Posit(8,1)"));
        // Backward event lands under the .grad key.
        assert_eq!(sess.quant_sites()["site.grad"].events, 1);
        // Probe records flowed into the metrics registry.
        let hist = sess
            .metrics()
            .hist("probe.log2", &[("site", "site")])
            .unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(
            sess.metrics()
                .gauge_value("probe.amax", &[("site", "site")]),
            Some(1e9)
        );
    }

    #[test]
    fn untraced_ctx_keeps_hot_path_quiet() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        assert!(!ctx.traced());
        assert!(ctx.span_begin("x", "block").is_none());
        ctx.span_end(None);
        ctx.gemm_span("g", 4, 4, 4); // no session/model: silently ignored
    }

    #[test]
    fn matmul_q_code_path_is_bitwise_identical_to_tape_matmul() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        let (b, m, k, n) = (2usize, 5, 33, 17);
        let xs: Vec<f32> = (0..b * m * k).map(|i| (i as f32) * 0.173 - 9.0).collect();
        let ws: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.031 - 4.0).collect();
        let x0 = tape.leaf(Tensor::from_vec(xs, &[b, m, k]), true);
        let w0 = tape.leaf(Tensor::from_vec(ws, &[k, n]), true);
        // Cut both operands as the model does; code path quantizes the
        // (already on-grid) weight idempotently.
        let x = ctx.cut(&mut tape, x0, OpClass::Gemm, "x");
        let w = ctx.cut_weight(&mut tape, w0, "w");
        let yq = ctx.matmul_q(&mut tape, x, w, "site");
        let yf = tape.matmul(x, w);
        let (qv, fv) = (tape.value(yq).clone(), tape.value(yf).clone());
        assert_eq!(qv.shape(), fv.shape());
        for (a, b) in qv.data().iter().zip(fv.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "code path diverged: {a} vs {b}");
        }
        // Backward through the custom node is the exact matmul backward.
        let sq = tape.sum_all(yq);
        let gq = tape.backward(sq);
        let sf = tape.sum_all(yf);
        let gf = tape.backward(sf);
        for v in [x0, w0] {
            let (a, b) = (gq.get(v).unwrap(), gf.get(v).unwrap());
            assert_eq!(a.data(), b.data(), "grad mismatch through code path");
        }
    }

    #[test]
    fn matmul_q_caches_packs_and_repacks_on_weight_change() {
        let session = qt_trace::TraceSession::new("t").handle();
        let ctx = QuantCtx::inference(QuantScheme::posit8()).with_trace(Rc::clone(&session));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0; 8], &[2, 4]), false);
        let w1 = tape.leaf(Tensor::from_vec(vec![0.5; 12], &[4, 3]), false);
        let _ = ctx.matmul_q(&mut tape, x, w1, "site");
        assert_eq!(ctx.packed_sites().len(), 1);
        let _ = ctx.matmul_q(&mut tape, x, w1, "site");
        assert_eq!(ctx.packed_sites().len(), 1, "same bits must reuse the pack");
        // Same site, different weight bits: fingerprint mismatch repacks.
        let w2 = tape.leaf(Tensor::from_vec(vec![0.25; 12], &[4, 3]), false);
        let _ = ctx.matmul_q(&mut tape, x, w2, "site");
        assert_eq!(
            ctx.packed_sites().len(),
            1,
            "stale entry replaced, not grown"
        );
        let sess = session.borrow();
        let m = sess.metrics();
        assert_eq!(m.counter_value("gemm.pack_cache", &[("event", "miss")]), 2);
        assert_eq!(m.counter_value("gemm.pack_cache", &[("event", "hit")]), 1);
        assert_eq!(
            m.counter_value(
                "gemm.backend",
                &[
                    ("backend", qt_tensor::kernels::active().name()),
                    ("domain", "code")
                ]
            ),
            3
        );
    }

    #[test]
    fn only_training_contexts_build_the_gradient_quantizer() {
        assert!(QuantCtx::inference(QuantScheme::posit8())
            .state
            .fq_bwd
            .is_none());
        assert!(QuantCtx::training(QuantScheme::posit8())
            .state
            .fq_bwd
            .is_some());
    }

    #[test]
    fn fingerprint_detects_every_single_bit_flip() {
        let w: Vec<f32> = (0..67).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let base = fnv1a64(&w);
        for i in [0, 1, 33, 66] {
            for bit in 0..32 {
                let mut v = w.clone();
                v[i] = f32::from_bits(v[i].to_bits() ^ (1 << bit));
                assert_ne!(fnv1a64(&v), base, "word {i} bit {bit}");
            }
        }
    }

    /// Run `x @ w` at `site` through `ctx`, returning the output.
    fn gemm(ctx: &QuantCtx, x: &Tensor, w: &Tensor, site: &str) -> Tensor {
        let mut tape = Tape::new();
        let (x, w) = (tape.leaf(x.clone(), false), tape.leaf(w.clone(), false));
        let y = ctx.matmul_q(&mut tape, x, w, site);
        tape.value(y).clone()
    }

    #[test]
    fn shared_state_serves_resident_packs_and_repacks_changed_bits() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.5).collect(), &[2, 4]);
        let w1 = Tensor::from_vec(vec![0.5; 12], &[4, 3]);
        let w2 = Tensor::from_vec(vec![0.25; 12], &[4, 3]);
        let first = QuantCtx::inference(QuantScheme::posit8());
        let y1 = gemm(&first, &x, &w1, "site");
        let state = Arc::new(first.resident_state());
        assert_eq!(state.resident_packs(), 1);

        let session = qt_trace::TraceSession::new("t").handle();
        let ctx = QuantCtx::over(Arc::clone(&state)).with_trace(Rc::clone(&session));
        assert_eq!(gemm(&ctx, &x, &w1, "site").data(), y1.data());
        assert!(
            ctx.packed_sites().is_empty(),
            "same bits read the resident pack"
        );
        // Different bits at the same site miss and pack into the pass's
        // own cache; the shared store is untouched.
        let y2 = gemm(&ctx, &x, &w2, "site");
        assert_eq!(ctx.packed_sites(), ["site"]);
        assert_eq!(state.resident_packs(), 1);
        let fresh = QuantCtx::inference(QuantScheme::posit8());
        assert_eq!(y2.data(), gemm(&fresh, &x, &w2, "site").data());
        let sess = session.borrow();
        let m = sess.metrics();
        assert_eq!(m.counter_value("gemm.pack_cache", &[("event", "hit")]), 1);
        assert_eq!(m.counter_value("gemm.pack_cache", &[("event", "miss")]), 1);
    }

    #[test]
    fn resident_packs_are_never_read_in_another_format() {
        // Values on both the Posit(8,1) and E4M3 grids: fingerprint and
        // shape match across the two schemes, only the format differs.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 4.0], &[1, 4]);
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.0, -0.5, 0.125, 8.0], &[4, 2]);
        let posit = QuantCtx::inference(QuantScheme::posit8());
        let _ = gemm(&posit, &x, &w, "site");
        let posit_state = posit.resident_state();
        // An E4M3 state handed the Posit(8,1) store.
        let e4m3 = QuantState {
            resident: posit_state.resident.clone(),
            ..QuantState::build(QuantScheme::uniform(ElemFormat::E4M3), false)
        };
        let ctx = QuantCtx::over(Arc::new(e4m3));
        let y = gemm(&ctx, &x, &w, "site");
        assert_eq!(ctx.packed_sites(), ["site"], "format mismatch must repack");
        let fresh = QuantCtx::inference(QuantScheme::uniform(ElemFormat::E4M3));
        assert_eq!(y.data(), gemm(&fresh, &x, &w, "site").data());
    }

    #[test]
    fn matmul_q_falls_back_to_f32_when_ineligible() {
        // Training contexts and Fp32 schemes must not take the code path.
        let session = qt_trace::TraceSession::new("t").handle();
        let ctx = QuantCtx::training(QuantScheme::posit8()).with_trace(Rc::clone(&session));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]), true);
        let w = tape.leaf(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]), true);
        let y = ctx.matmul_q(&mut tape, x, w, "site");
        assert_eq!(tape.value(y).data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ctx.packed_sites().len(), 0);
        // Batched (non-2-D) weights fall back too, e.g. attention scores.
        let ctx2 = QuantCtx::inference(QuantScheme::posit8());
        let mut tape2 = Tape::new();
        let a = tape2.leaf(Tensor::from_vec(vec![1.0; 8], &[2, 2, 2]), false);
        let bt = tape2.leaf(Tensor::from_vec(vec![1.0; 8], &[2, 2, 2]), false);
        let _ = ctx2.matmul_q(&mut tape2, a, bt, "scores");
        assert_eq!(ctx2.packed_sites().len(), 0);
        let sess = session.borrow();
        let m = sess.metrics();
        assert_eq!(
            m.counter_value(
                "gemm.backend",
                &[
                    ("backend", qt_tensor::kernels::active().name()),
                    ("domain", "f32")
                ]
            ),
            1
        );
    }

    #[test]
    fn probe_records_pre_quant_stats() {
        let probe = Rc::new(RefCell::new(ProbeStore::new()));
        let ctx = QuantCtx::inference(QuantScheme::posit8()).with_probe(Rc::clone(&probe));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![123456.0], &[1]), false);
        let _ = ctx.cut(&mut tape, x, OpClass::Gemm, "site");
        let p = probe.borrow();
        let (name, stats) = &p.entries()[0];
        assert_eq!(name, "site");
        assert_eq!(stats.amax, 123456.0); // pre-quantization value
    }
}
