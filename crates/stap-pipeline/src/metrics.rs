//! Per-task timing and the paper's performance equations.
//!
//! Each task node measures, per CPI, the three phases of Figure 10:
//! receive (`t1 - t0`, includes waiting for predecessors and unpacking),
//! compute (`t2 - t1`) and send (`t3 - t2`, collection/reorganization and
//! posting). Equations (1)-(3) of the paper turn per-task totals into
//! pipeline throughput and latency.

/// Accumulated phase times of one task (averaged over measured CPIs),
/// in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskTiming {
    /// Receive phase (may contain idle time waiting on predecessors).
    pub recv: f64,
    /// Computation phase.
    pub comp: f64,
    /// Send phase (packing + posting; asynchronous completion).
    pub send: f64,
    /// Receive idle time (portion of `recv` spent waiting rather than
    /// unpacking) — the quantity equation (3) subtracts.
    pub recv_idle: f64,
}

impl TaskTiming {
    /// Total task time per CPI: `recv + comp + send`.
    pub fn total(&self) -> f64 {
        self.recv + self.comp + self.send
    }

    /// Task time with receive idle excluded (`T'_i` in equation (3)).
    pub fn total_without_idle(&self) -> f64 {
        self.total() - self.recv_idle
    }

    /// Element-wise sum (for averaging across nodes and CPIs).
    pub fn add(&mut self, other: &TaskTiming) {
        self.recv += other.recv;
        self.comp += other.comp;
        self.send += other.send;
        self.recv_idle += other.recv_idle;
    }

    /// Element-wise scale.
    pub fn scale(&self, s: f64) -> TaskTiming {
        TaskTiming {
            recv: self.recv * s,
            comp: self.comp * s,
            send: self.send * s,
            recv_idle: self.recv_idle * s,
        }
    }
}

/// Per-edge fault-tolerance counters (indexed by
/// [`crate::msg::edge_of_tag`] / `Edge as usize`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeHealth {
    /// Receive deadlines that expired and were retried.
    pub retries: u64,
    /// Messages declared lost on this edge (timeout after retries, or a
    /// disconnected peer).
    pub dropped: u64,
    /// CPIs beamformed with last-good (stale) weights because this
    /// weight edge overran its grace deadline or carried a drop marker.
    pub stale_weights: u64,
    /// Payloads rejected by the non-finite screen.
    pub quarantined: u64,
    /// Late or duplicated messages discarded by sequence checking or
    /// end-of-CPI purging.
    pub late_or_dup: u64,
}

impl EdgeHealth {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: &EdgeHealth) {
        self.retries += other.retries;
        self.dropped += other.dropped;
        self.stale_weights += other.stale_weights;
        self.quarantined += other.quarantined;
        self.late_or_dup += other.late_or_dup;
    }

    /// True when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != EdgeHealth::default()
    }
}

/// Aggregated fault-tolerance health of one run (or one task node,
/// before merging).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Per-edge counters, indexed by `Edge as usize`.
    pub edges: [EdgeHealth; crate::msg::NUM_EDGES],
    /// CPIs the driver classified as dropped end-to-end.
    pub dropped_cpis: u64,
    /// CPIs the driver classified as degraded (stale weights).
    pub degraded_cpis: u64,
    /// Largest buffered mailbox depth observed per edge (sampled once
    /// per CPI/slot at each receiver). Depth telemetry, not a fault
    /// signal: excluded from [`PipelineHealth::any`].
    pub max_mailbox_depth: [u64; crate::msg::NUM_EDGES],
    /// Mailbox pushes that landed at or above the configured soft
    /// high-water mark, summed across ranks (0 when no mark is set).
    pub mailbox_over_high_water: u64,
}

impl PipelineHealth {
    /// Accumulates another node's counters into this one (max-merging
    /// the depth high-water marks).
    pub fn merge(&mut self, other: &PipelineHealth) {
        for (a, b) in self.edges.iter_mut().zip(&other.edges) {
            a.add(b);
        }
        self.dropped_cpis += other.dropped_cpis;
        self.degraded_cpis += other.degraded_cpis;
        for (a, b) in self
            .max_mailbox_depth
            .iter_mut()
            .zip(&other.max_mailbox_depth)
        {
            *a = (*a).max(*b);
        }
        self.mailbox_over_high_water += other.mailbox_over_high_water;
    }

    /// True when any *fault* counter anywhere is non-zero. Mailbox depth
    /// telemetry does not count: healthy pipelined runs legitimately
    /// buffer in-flight messages.
    pub fn any(&self) -> bool {
        self.edges.iter().any(EdgeHealth::any) || self.dropped_cpis > 0 || self.degraded_cpis > 0
    }
}

/// How one CPI made it through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpiOutcome {
    /// Fully processed with fresh weights.
    Ok,
    /// Processed, but at least one beamform node used last-good weights
    /// (the paper's CPI `i` -> `i + beams` temporal dependency widened
    /// by one revisit).
    DegradedStaleWeights,
    /// Lost end-to-end (no detections reported).
    Dropped,
}

/// Timings for all seven tasks (paper order) plus measured pipeline
/// rates.
#[derive(Clone, Debug, Default)]
pub struct PipelineTimings {
    /// Per-task phase times, averaged over the measured CPIs.
    pub tasks: [TaskTiming; 7],
    /// Measured throughput: inverse of the mean interval between
    /// successive pipeline completions (CPIs per second).
    pub measured_throughput: f64,
    /// Measured latency: mean time from a CPI entering the first task to
    /// its detection report (seconds).
    pub measured_latency: f64,
    /// Fault-tolerance counters merged across every node. All zero in a
    /// healthy (or non-fault-tolerant) run.
    pub health: PipelineHealth,
    /// Per-CPI outcome as classified by the driver. Empty when the run
    /// was not fault-tolerant (every CPI is implicitly `Ok`).
    pub outcomes: Vec<CpiOutcome>,
    /// Complex buffer pool counters (hits vs misses tells whether the
    /// steady state stayed allocation-free). A runner keeps its pools
    /// across runs, so these count every run of that runner so far; the
    /// pools handed to `run_rank` count whatever ran on them.
    pub pool_cx: stap_cube::PoolStats,
    /// Real buffer pool counters, counted like `pool_cx`.
    pub pool_real: stap_cube::PoolStats,
}

/// Equation (1): `throughput = 1 / max_i T_i`.
pub fn throughput_eq1(tasks: &[TaskTiming; 7]) -> f64 {
    let worst = tasks.iter().map(TaskTiming::total).fold(0.0, f64::max);
    if worst > 0.0 {
        1.0 / worst
    } else {
        f64::INFINITY
    }
}

/// Equation (2): `latency = T_0 + max(T_3, T_4) + T_5 + T_6` — the
/// weight tasks (1, 2) are off the latency path thanks to the temporal
/// dependency. This is an upper bound: receive phases contain idle time.
pub fn latency_eq2(tasks: &[TaskTiming; 7]) -> f64 {
    tasks[0].total() + tasks[3].total().max(tasks[4].total()) + tasks[5].total() + tasks[6].total()
}

/// Equation (3): like (2) but with receive idle excluded from the
/// downstream tasks (`T'_i`), the paper's "real latency".
pub fn real_latency_eq3(tasks: &[TaskTiming; 7]) -> f64 {
    tasks[0].total()
        + tasks[3]
            .total_without_idle()
            .max(tasks[4].total_without_idle())
        + tasks[5].total_without_idle()
        + tasks[6].total_without_idle()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(recv: f64, comp: f64, send: f64, idle: f64) -> TaskTiming {
        TaskTiming {
            recv,
            comp,
            send,
            recv_idle: idle,
        }
    }

    #[test]
    fn throughput_is_inverse_of_slowest_task() {
        let mut tasks = [TaskTiming::default(); 7];
        tasks[2] = t(0.05, 0.15, 0.0, 0.0); // 0.2 s: bottleneck
        tasks[0] = t(0.01, 0.05, 0.01, 0.0);
        assert!((throughput_eq1(&tasks) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn latency_skips_weight_tasks() {
        let mut tasks = [TaskTiming::default(); 7];
        tasks[0] = t(0.0, 0.1, 0.0, 0.0);
        tasks[1] = t(0.0, 99.0, 0.0, 0.0); // weight: must not count
        tasks[2] = t(0.0, 99.0, 0.0, 0.0);
        tasks[3] = t(0.0, 0.2, 0.0, 0.0);
        tasks[4] = t(0.0, 0.3, 0.0, 0.0);
        tasks[5] = t(0.0, 0.1, 0.0, 0.0);
        tasks[6] = t(0.0, 0.05, 0.0, 0.0);
        assert!((latency_eq2(&tasks) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn real_latency_excludes_idle() {
        let mut tasks = [TaskTiming::default(); 7];
        tasks[0] = t(0.0, 0.1, 0.0, 0.0);
        tasks[3] = t(0.2, 0.1, 0.0, 0.15);
        tasks[4] = t(0.0, 0.05, 0.0, 0.0);
        tasks[5] = t(0.1, 0.1, 0.0, 0.1);
        tasks[6] = t(0.0, 0.05, 0.0, 0.0);
        let eq2 = latency_eq2(&tasks);
        let eq3 = real_latency_eq3(&tasks);
        assert!(eq3 < eq2);
        assert!((eq3 - (0.1 + 0.15 + 0.1 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn eq3_never_exceeds_eq2() {
        let tasks = [
            t(0.1, 0.2, 0.05, 0.08),
            t(0.0, 0.0, 0.0, 0.0),
            t(0.0, 0.0, 0.0, 0.0),
            t(0.3, 0.1, 0.0, 0.2),
            t(0.2, 0.2, 0.0, 0.1),
            t(0.1, 0.3, 0.0, 0.05),
            t(0.2, 0.1, 0.0, 0.15),
        ];
        assert!(real_latency_eq3(&tasks) <= latency_eq2(&tasks) + 1e-15);
    }
}
