//! The repository benchmark: end-to-end and per-layer wall-clock numbers
//! for four workloads, with every output checked.
//!
//! ```text
//! perfbench --workload <serve_open|ptq_eval|finetune_lora|fleet_sim|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints `name = value unit` lines, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. `--workload all` runs each workload in a child process
//! and prints their result lines in turn.

mod finetune;
mod fleet;
mod golden;
mod layers;
mod ptq;
mod serve;
mod stats;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["serve_open", "ptq_eval", "finetune_lora", "fleet_sim"];

/// End-to-end metrics, reported by every workload (see README.md for
/// what each means per workload).
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "p50_ms", "work_per_s"];

/// Per-layer metrics, reported by every workload's traced run.
const PER_LAYER: &[&str] = &[
    // qt-serve
    "queue_wait_p50_ms",
    "queue_wait_p99_ms",
    "process_p50_ms",
    "attempts_per_request",
    "measured_block_us",
    "block_us_over_virtual",
    // qt-transformer
    "cold_forward_p50_ms",
    "warm_forward_p50_ms",
    "cold_over_warm",
    "embed_share",
    "attn_share",
    "ffn_share",
    "head_share",
    "uncovered_share",
    // qt-quant
    "weight_pack_ms",
    "pack_misses_per_forward",
    "fake_quant_ns_per_elem.p8e1",
    "fake_quant_ns_per_elem.e4m3",
    "fake_quant_ns_per_elem.e5m2",
    "matmul_codes_gflops",
    // qt-tensor
    "matmul_gflops",
    "softmax_ns_per_elem",
    "layernorm_ns_per_elem",
    // qt-par
    "pool_threads",
    "chunk_tasks_per_forward",
    // qt-autograd
    "backward_p50_ms",
    // qt-train
    "forward_p50_ms",
    "optimizer_p50_ms",
    "skipped_steps",
    // qt-robust
    "corrupt_p50_ms",
    // qt-fleet
    "run_host_s",
    "attempts",
    "host_ms_per_attempt",
    "des_overhead_share",
    // qt-shield
    "scrub_ns_per_word",
    "scrub_corrected",
    // qt-adapt
    "shed_overload",
    "codel_drops",
    "brownout_sheds",
    // qt-trace
    "trace_overhead_ratio",
];

/// Parsed command line plus the host's core count.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match id.trim() {
        "" => "unknown".into(),
        s => s.chars().take(12).collect(),
    }
}

/// Run every workload in a child process, in turn.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("perfbench: workload {w} failed: {status:?}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let pool = qt_par::threads();
    if pool > opts.nproc {
        // A kernel pool wider than the host measures oversubscription,
        // not scaling: refuse to report it.
        eprintln!(
            "perfbench: kernel pool {pool} exceeds nproc {}; refusing to report",
            opts.nproc
        );
        return ExitCode::from(2);
    }
    println!("workload = {}", opts.workload);
    println!("seed = {}", opts.seed);
    println!("nproc = {}", opts.nproc);
    let pool_note = if opts.workload == "serve_open" {
        "1 per worker"
    } else {
        "default"
    };
    println!("kernel_pool = {pool} ({pool_note})");
    println!("gemm_backend = {}", qt_tensor::kernels::active().name());
    println!("commit = {}", commit());

    let mut out = match opts.workload.as_str() {
        "serve_open" => serve::run(&opts),
        "ptq_eval" => ptq::run(&opts),
        "finetune_lora" => finetune::run(&opts),
        "fleet_sim" => fleet::run(&opts),
        _ => unreachable!("workload validated in parse"),
    };
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");

    for line in &out.info {
        println!("{line}");
    }
    for m in &out.mismatches {
        println!("MISMATCH: {m}");
    }
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );

    let wanted: Vec<&str> = if opts.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = BTreeMap::new();
    for name in &wanted {
        let Some(m) = out.metrics.iter().rev().find(|m| m.name == *name) else {
            eprintln!(
                "perfbench: workload {} did not report metric {name}",
                opts.workload
            );
            return ExitCode::FAILURE;
        };
        metrics.insert(name.to_string(), json!({"value": m.value, "unit": m.unit}));
    }
    let result = json!({
        "correct": out.failed == 0 && out.mismatches.is_empty(),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}
