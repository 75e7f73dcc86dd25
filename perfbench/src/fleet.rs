//! `fleet_sim`: the deterministic multi-replica discrete-event simulation.
//!
//! Three replicas (posit8, E4M3, BF16) behind health-aware routing, one
//! scheduled crash, runtime weight faults on the 8-bit replicas, storage
//! rot under qt-shield scrubbing, and CoDel + brownout armed. Every run
//! of the same inputs must produce the same `FleetReport`, byte for byte.

use crate::golden;
use crate::layers::{self, LayerCtx};
use crate::stats::{median, median_ms_of, quantile, timed, Fnv, Outcome};
use crate::Opts;
use qt_adapt::{BrownoutConfig, CodelConfig};
use qt_fleet::{
    audit_unflagged_corruption, ArrivalShape, Fleet, FleetConfig, FleetLoadSpec, FleetReport,
    FleetRequest, MemSnapStore, ReplicaSpec, RouterPolicy, ShieldConfig,
};
use qt_quant::ElemFormat;
use qt_robust::{BerFaultSource, CodeFormat, CrashSchedule, FaultSource, NoFaults};
use qt_trace::TraceSession;
use qt_transformer::{Model, TaskHead, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};

/// Virtual arrival rate, rps.
const RPS: f64 = 100.0;
/// Virtual horizon of one fleet run, s.
const HORIZON_S: f64 = 0.4;
/// Tokens per simulated request.
const SEQ: usize = 24;
/// Per-bit flip probability of each 8-bit replica's weight reads.
const READ_BER: f64 = 1e-6;
/// Per-bit, per-scrub-window storage rot under the shield.
const STORAGE_BER: f64 = 1e-6;

/// One fully specified fleet run: the model, configuration and request
/// stream, rebuilt into a fresh `Fleet` for every run.
pub struct FleetRun<'a> {
    model: &'a Model,
    cfg: FleetConfig,
    requests: Vec<FleetRequest>,
    seed: u64,
}

impl<'a> FleetRun<'a> {
    pub fn new(model: &'a Model, seed: u64, seq: usize, horizon_s: f64) -> Self {
        let horizon_us = (horizon_s * 1e6) as u64;
        let crashed = ReplicaSpec::new(ElemFormat::E4M3)
            .with_crashes(CrashSchedule::single(horizon_us / 3, horizon_us / 6));
        let cfg = FleetConfig {
            replicas: vec![
                ReplicaSpec::new(ElemFormat::P8E1),
                crashed,
                ReplicaSpec::new(ElemFormat::Bf16),
            ],
            policy: RouterPolicy::HealthAware,
            retry_seed: seed,
            adapt_every_us: 20_000,
            codel: Some(CodelConfig::default()),
            brownout: Some(BrownoutConfig::default()),
            shield: Some(ShieldConfig {
                storage_ber: STORAGE_BER,
                storage_seed: seed ^ 0x5_1e1d,
                ..ShieldConfig::default()
            }),
            ..FleetConfig::default()
        };
        let requests = FleetLoadSpec {
            rps: RPS,
            duration_us: horizon_us,
            shape: ArrivalShape::Constant,
            period_us: horizon_us,
            users: 100_000,
            tenants: cfg.tenants,
            deadline_us: 0,
            seq,
            seed,
        }
        .requests(model.cfg.vocab);
        Self {
            model,
            cfg,
            requests,
            seed,
        }
    }

    /// Runtime fault sources, one per replica (the BF16 replica reads
    /// pristine weights).
    fn faults(&self) -> Vec<Box<dyn FaultSource + Send + Sync>> {
        self.cfg
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| -> Box<dyn FaultSource + Send + Sync> {
                match r.format {
                    ElemFormat::Bf16 => Box::new(NoFaults),
                    f => Box::new(BerFaultSource::new(
                        self.seed ^ (0xfa17 + i as u64),
                        CodeFormat::new(f).expect("storage format"),
                        READ_BER,
                    )),
                }
            })
            .collect()
    }

    pub fn offered(&self) -> u64 {
        self.requests.len() as u64
    }

    pub fn build(&self) -> Fleet {
        Fleet::new(
            self.model,
            self.cfg.clone(),
            self.faults(),
            Box::new(MemSnapStore::new()),
        )
    }

    /// Build and run once; returns the report and the run's host wall
    /// time in ms (build excluded).
    pub fn run_once(&self, trace: Option<&qt_trace::TraceHandle>) -> (FleetReport, f64) {
        let fleet = self.build();
        timed(|| fleet.run(&self.requests, trace))
    }

    /// Served responses the replay audit finds corrupt (must be 0).
    pub fn audit(&self, report: &FleetReport) -> u64 {
        audit_unflagged_corruption(self.model, &self.cfg, &self.requests, self.faults(), report)
    }
}

/// Digest of a report's canonical JSON rendering.
pub fn report_digest(report: &FleetReport) -> (u64, String) {
    let text = serde_json::to_string(&report.to_json()).expect("report serializes");
    (Fnv::default().bytes(text.as_bytes()).get(), text)
}

/// qt-fleet / qt-shield / qt-adapt figures of one run. `attempt_ms` is
/// the median wall time of one `Engine::attempt` on the same model.
pub fn fleet_metrics(out: &mut Outcome, report: &FleetReport, host_ms: f64, attempt_ms: f64) {
    let attempts: u64 = report.responses.iter().map(|r| r.attempts as u64).sum();
    out.metric("run_host_s", host_ms / 1e3, "s");
    out.metric("attempts", attempts as f64, "count");
    out.metric(
        "host_ms_per_attempt",
        host_ms / attempts.max(1) as f64,
        "ms",
    );
    out.metric(
        "des_overhead_share",
        1.0 - attempts as f64 * attempt_ms / host_ms,
        "ratio",
    );
    out.metric(
        "scrub_corrected",
        (report.scrub_corrected + report.read_corrected) as f64,
        "count",
    );
    out.info("storage_flips", report.storage_flips as f64, "count");
    out.metric("shed_overload", report.shed_overload as f64, "count");
    out.metric("codel_drops", report.codel_drops as f64, "count");
    out.metric("brownout_sheds", report.brownout_sheds as f64, "count");
}

fn build_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(
        TransformerConfig::bert_base_sim(),
        TaskHead::Classify(2),
        &mut rng,
    )
}

/// Check one run: every request served, report identical to the first.
fn check_run(out: &mut Outcome, report: &FleetReport, first: &str, offered: u64) {
    out.attempted += offered;
    if report_digest(report).1 != first {
        out.failed += offered;
        out.mismatches
            .push("fleet report differs from the first run's".into());
        return;
    }
    let unserved = offered - (report.served_primary + report.served_degraded);
    out.failed += unserved;
    if unserved > 0 {
        out.mismatches.push(format!(
            "fleet left {unserved} of {offered} requests unserved"
        ));
    }
}

fn canary(out: &mut Outcome) {
    let model = build_model(golden::CANARY_SEED);
    let run = FleetRun::new(&model, golden::CANARY_SEED, SEQ, 0.1);
    let (report, _) = run.run_once(None);
    let (got, _) = report_digest(&report);
    out.attempted += 1;
    out.check(got == golden::FLEET_REPORT_DIGEST, || {
        format!(
            "fleet canary report digest {got:#018x} != committed {:#018x}",
            golden::FLEET_REPORT_DIGEST
        )
    });
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let model = build_model(opts.seed);
    let run = FleetRun::new(&model, opts.seed, SEQ, HORIZON_S);
    let (_, setup_ms) = median_ms_of(15, || (build_model(opts.seed), run.build()));
    let offered = run.offered();
    let until =
        Instant::now() + Duration::from_secs_f64(opts.seconds * if opts.trace { 0.4 } else { 0.8 });

    let (first, _) = run.run_once(None);
    let (first_digest, first_text) = report_digest(&first);
    check_run(&mut out, &first, &first_text, offered);
    let audit = run.audit(&first);
    out.attempted += 1;
    out.check(audit == 0, || {
        format!("audit_unflagged_corruption = {audit}")
    });

    if opts.trace {
        // Untraced and traced runs alternate.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut last = None;
        while Instant::now() < until || traced.len() < 2 {
            let (r, ms) = run.run_once(None);
            check_run(&mut out, &r, &first_text, offered);
            untraced.push(ms);
            let session = TraceSession::new("perfbench.fleet").handle();
            let (r, ms) = run.run_once(Some(&session));
            check_run(&mut out, &r, &first_text, offered);
            traced.push(ms);
            last = Some((r, ms));
        }
        out.metric(
            "trace_overhead_ratio",
            median(&traced) / median(&untraced),
            "ratio",
        );
        let (report, ms) = last.expect("at least one traced run");
        let ctx = LayerCtx::for_serving(&model, ElemFormat::P8E1, opts.seed, qt_par::threads());
        layers::probe(&ctx, opts, &mut out, Some((&report, ms)));
        canary(&mut out);
        return out;
    }

    let mut host_ms = Vec::new();
    while Instant::now() < until || host_ms.len() < 3 {
        let (r, ms) = run.run_once(None);
        check_run(&mut out, &r, &first_text, offered);
        host_ms.push(ms);
    }
    canary(&mut out);
    let p50 = median(&host_ms);
    let crashes: u64 = first.replicas.iter().map(|r| r.stats.crashes).sum();
    out.info("fleet_runs", host_ms.len() as f64, "count");
    out.info("sim_requests_per_run", offered as f64, "count");
    out.info(
        "sim_requests_per_host_s",
        offered as f64 / (p50 / 1e3),
        "1/s",
    );
    out.info("audit_unflagged_corruption", audit as f64, "count");
    out.info("fleet_crashes", crashes as f64, "count");
    out.info(
        "fleet_served_degraded",
        first.served_degraded as f64,
        "count",
    );
    out.info(
        "fleet_flagged_attempts",
        first.flagged_attempts as f64,
        "count",
    );
    out.info("fleet_storage_flips", first.storage_flips as f64, "count");
    out.note(format!("fleet_report_digest = {first_digest:#018x}"));
    out.metric("setup_s", setup_ms / 1e3, "s");
    out.metric("p50_ms", p50, "ms");
    out.info("run_p90_ms", quantile(&host_ms, 0.9), "ms");
    out.metric("work_per_s", offered as f64 / (p50 / 1e3), "1/s");
    out
}
