//! Committed output digests of the fixed-seed canaries.
//!
//! Every run, whatever its `--seed`, also runs each workload's canary on
//! `CANARY_SEED` and compares it with these values, so a change in the
//! program's output bits fails the benchmark. A change that alters output
//! bits on purpose updates them here (a mismatching run prints the new
//! value).

/// Seed of every canary input.
pub const CANARY_SEED: u64 = 0x0c0f_fee5;
/// `serve_open`: FNV-1a over (request id, served label).
pub const SERVE_LABEL_DIGEST: u64 = 0x557e_5589_210c_c008;
/// `ptq_eval`: perplexity bits under posit8 and FP8.
pub const PTQ_PPL_BITS: [u64; 2] = [0x408a_9f50_1faf_6cf8, 0x408b_72d7_bdf2_8871];
/// `finetune_lora`: FNV-1a over the loss trajectory and LoRA parameters.
pub const FINETUNE_DIGEST: u64 = 0x1704_1e2f_645d_cf80;
/// `fleet_sim`: FNV-1a over the report's JSON.
pub const FLEET_REPORT_DIGEST: u64 = 0xf8c8_da41_1deb_d4c7;
