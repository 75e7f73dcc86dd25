//! Serving runtime configuration.

use crate::breaker::BreakerPolicy;
use crate::retry::RetryPolicy;
use qt_quant::ElemFormat;

/// Everything the runtime needs to know that is not the model itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker count: simulated service resources in the deterministic
    /// driver. Independent of the `QT_THREADS` kernel pool — a worker
    /// *uses* the pool, it is not sized by it.
    pub workers: usize,
    /// Admission-queue capacity (requests shed beyond it).
    pub queue_cap: usize,
    /// Virtual service cost of one transformer block, µs. Deadline
    /// budgets are converted to block credits through this, so deadline
    /// enforcement is exact and deterministic.
    pub per_block_us: u64,
    /// Element format of the primary quantized path.
    pub primary: ElemFormat,
    /// Retry limits and backoff shape for flagged attempts.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy over primary-path health.
    pub breaker: BreakerPolicy,
    /// Master seed for retry jitter streams (per-request streams are
    /// derived from it, mixed with the request id).
    pub retry_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_cap: 8,
            per_block_us: 1_000,
            primary: ElemFormat::P8E1,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            retry_seed: 0x5e_17e5,
        }
    }
}

impl ServeConfig {
    /// Clamp the structural knobs to their minimums (≥ 1 worker, ≥ 1
    /// queue slot, ≥ 1 µs per block).
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_cap = self.queue_cap.max(1);
        self.per_block_us = self.per_block_us.max(1);
        self
    }
}
