//! Platform cost constants, calibrated from the paper's measurements.
//!
//! Every constant is documented with its source in the paper. `CostModel`
//! is consumed by the virtual platform (as ground-truth costs), by the
//! Predictor (as model parameters), and by PGP. The Predictor can also run
//! with [`CostModel::conservative`] parameters — §6.2: "Chiron adopts larger
//! parameters to estimate the latency, avoiding performance violation
//! resulting from mispredictions."

use crate::time::SimDuration;

/// Costs of starting, communicating and executing on the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cold start of a fresh sandbox (167 ms for a Python container, §1).
    pub sandbox_cold_start: SimDuration,
    /// `T_Startup`: fork syscall to first bytecode of the child (7.5 ms
    /// mean, Fig. 5).
    pub process_startup: SimDuration,
    /// `T_Block`: additional wait per fork queued ahead of a process
    /// (≈3.45 ms; 49 preceding forks → 169 ms, Observation 2).
    pub process_block: SimDuration,
    /// Thread clone cost (96 % below process startup, §1 ⇒ 0.3 ms).
    pub thread_clone: SimDuration,
    /// Dispatch of a task onto a pre-forked pool worker (§4).
    pub pool_dispatch: SimDuration,
    /// `T_IPC`: returning one process's result over a Linux pipe (≈1 ms,
    /// FINRA-5's 4.3 ms total interaction, Fig. 5).
    pub ipc_pipe: SimDuration,
    /// `T_RPC`: one wrap-to-wrap network invocation (gateway traversal,
    /// watchdog dispatch and response on the local cluster).
    pub rpc: SimDuration,
    /// `T_INV`: client-side overhead per additional invocation issued by
    /// wrap 1 (Eq. 2's `(k-1) × T_INV`) — serialising and issuing an async
    /// HTTP invocation from the orchestrator.
    pub inv: SimDuration,
    /// CPython's GIL switch interval (`sys.getswitchinterval()` = 5 ms).
    pub gil_switch_interval: SimDuration,
    /// Worker node CPU count (Table 2: Intel Xeon Gold 6230, 40 threads).
    pub node_cpus: u32,
    /// Worker node DRAM in bytes (Table 2: 128 GB).
    pub node_memory_bytes: u64,
    /// CPU base frequency in GHz (billing unit, §6.3).
    pub cpu_ghz: f64,
    /// Resident memory of the language runtime + libraries per sandbox
    /// (the redundancy the one-to-one model duplicates; ≈25 MB).
    pub sandbox_base_bytes: u64,
    /// Extra resident memory per forked process (copy-on-write leaves most
    /// pages shared; ≈1.6 MB private).
    pub process_overhead_bytes: u64,
    /// Extra resident memory per thread (stack + interpreter state).
    pub thread_overhead_bytes: u64,
    /// Resident memory per persistent pool worker. Pool workers hold a full
    /// private interpreter image (§6.3: "long-running processes consume
    /// more than 5× memory").
    pub pool_worker_bytes: u64,
}

impl CostModel {
    /// Constants calibrated from the paper (see DESIGN.md §4).
    pub fn paper_calibrated() -> Self {
        CostModel {
            sandbox_cold_start: SimDuration::from_millis(167),
            process_startup: SimDuration::from_millis_f64(7.5),
            process_block: SimDuration::from_millis_f64(3.45),
            thread_clone: SimDuration::from_millis_f64(0.3),
            pool_dispatch: SimDuration::from_millis_f64(0.2),
            ipc_pipe: SimDuration::from_millis_f64(1.0),
            rpc: SimDuration::from_millis_f64(5.0),
            inv: SimDuration::from_millis_f64(1.5),
            gil_switch_interval: SimDuration::from_millis(5),
            node_cpus: 40,
            node_memory_bytes: 128 << 30,
            cpu_ghz: 2.1,
            sandbox_base_bytes: 25 << 20,
            process_overhead_bytes: 1_600 << 10,
            thread_overhead_bytes: 256 << 10,
            pool_worker_bytes: 26 << 20,
        }
    }

    /// Inflated parameters for SLO-safe planning (§6.2). Startup-related and
    /// interaction constants are scaled by `margin` (e.g. 1.25).
    pub fn conservative(&self, margin: f64) -> Self {
        let mut c = self.clone();
        c.process_startup = c.process_startup.mul_f64(margin);
        c.process_block = c.process_block.mul_f64(margin);
        c.thread_clone = c.thread_clone.mul_f64(margin);
        c.pool_dispatch = c.pool_dispatch.mul_f64(margin);
        c.ipc_pipe = c.ipc_pipe.mul_f64(margin);
        c.rpc = c.rpc.mul_f64(margin);
        c.inv = c.inv.mul_f64(margin);
        c
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_calibrated()
    }
}

/// Gateway scheduling-overhead parameters for the one-to-one systems
/// (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingModel {
    /// ASF: per-function scheduling latency (150 ms).
    pub asf_per_function: SimDuration,
    /// ASF: effective scheduling wave width. The paper reports ASF runs up
    /// to 10 functions concurrently, but its measured stage totals
    /// (150/874/1628 ms at 5/25/50 functions, Fig. 3) imply an effective
    /// wave of ~5 concurrent 150 ms scheduling operations; 5 reproduces
    /// those totals.
    pub asf_concurrency_cap: u32,
    /// OpenFaaS gateway: `sched(n) = linear·n + quadratic·n²` total overhead
    /// for launching `n` functions of one stage. Fit through the paper's
    /// (5, 2 ms), (25, 70 ms), (50, 180 ms) points.
    pub openfaas_linear: SimDuration,
    pub openfaas_quadratic: SimDuration,
}

impl SchedulingModel {
    pub fn paper_calibrated() -> Self {
        // Fit through Fig. 3's end points: 0.0711·n² + 0.0444·n gives
        // 2.0 ms at n = 5 and 180 ms at n = 50 exactly, with the paper's
        // super-linear growth in between (≈46 ms at n = 25).
        SchedulingModel {
            asf_per_function: SimDuration::from_millis(150),
            asf_concurrency_cap: 5,
            openfaas_linear: SimDuration::from_millis_f64(0.0444),
            openfaas_quadratic: SimDuration::from_millis_f64(0.0711),
        }
    }

    /// Total gateway overhead for launching `n` parallel functions under
    /// the OpenFaaS local gateway.
    pub fn openfaas_stage_overhead(&self, n: u32) -> SimDuration {
        self.openfaas_linear * u64::from(n)
            + self.openfaas_quadratic * (u64::from(n) * u64::from(n))
    }

    /// Time until the `i`-th (0-based) of `n` functions has been scheduled
    /// by ASF: launches proceed in waves of `asf_concurrency_cap`.
    pub fn asf_schedule_time(&self, i: u32) -> SimDuration {
        let wave = u64::from(i / self.asf_concurrency_cap);
        self.asf_per_function * (wave + 1)
    }
}

impl Default for SchedulingModel {
    fn default() -> Self {
        SchedulingModel::paper_calibrated()
    }
}

/// Billing rates (§6.3, Google Cloud Functions pricing \[7\] plus ASF state
/// transitions \[54\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingModel {
    /// Dollars per GB-second of allocated memory.
    pub usd_per_gb_second: f64,
    /// Dollars per GHz-second of allocated CPU.
    pub usd_per_ghz_second: f64,
    /// Dollars per workflow state transition (ASF only).
    pub usd_per_state_transition: f64,
}

impl BillingModel {
    pub fn paper_calibrated() -> Self {
        BillingModel {
            usd_per_gb_second: 0.000_002_5,
            usd_per_ghz_second: 0.000_010_0,
            usd_per_state_transition: 0.000_025,
        }
    }
}

impl Default for BillingModel {
    fn default() -> Self {
        BillingModel::paper_calibrated()
    }
}

/// Random perturbation applied by the virtual platform so that ground truth
/// diverges from the Predictor's constant-parameter model, as a real
/// cluster's does. All spreads are relative standard deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Spread on fork startup / block / clone costs (lognormal-ish).
    pub startup_rel_std: f64,
    /// Spread on CPU segment durations.
    pub cpu_rel_std: f64,
    /// Spread on blocking-syscall durations.
    pub io_rel_std: f64,
    /// Spread on RPC/IPC costs.
    pub comm_rel_std: f64,
}

impl JitterModel {
    /// No noise: the platform reproduces the cost model exactly.
    pub const NONE: JitterModel = JitterModel {
        startup_rel_std: 0.0,
        cpu_rel_std: 0.0,
        io_rel_std: 0.0,
        comm_rel_std: 0.0,
    };

    /// Noise levels representative of a lightly loaded local cluster.
    pub fn cluster() -> Self {
        JitterModel {
            startup_rel_std: 0.20,
            cpu_rel_std: 0.06,
            io_rel_std: 0.12,
            comm_rel_std: 0.15,
        }
    }

    pub fn is_none(&self) -> bool {
        self.startup_rel_std == 0.0
            && self.cpu_rel_std == 0.0
            && self.io_rel_std == 0.0
            && self.comm_rel_std == 0.0
    }
}

/// Everything the virtual platform needs besides the deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    pub costs: CostModel,
    pub scheduling: SchedulingModel,
    pub billing: BillingModel,
    pub jitter: JitterModel,
}

impl PlatformConfig {
    pub fn paper_calibrated() -> Self {
        PlatformConfig {
            costs: CostModel::paper_calibrated(),
            scheduling: SchedulingModel::paper_calibrated(),
            billing: BillingModel::paper_calibrated(),
            jitter: JitterModel::NONE,
        }
    }

    pub fn with_jitter(mut self, jitter: JitterModel) -> Self {
        self.jitter = jitter;
        self
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_scaling_matches_observation_2() {
        let c = CostModel::paper_calibrated();
        // 50 parallel functions: the last of them waits for 49 forks.
        let blocked = c.process_block * 49;
        let ms = blocked.as_millis_f64();
        assert!((165.0..175.0).contains(&ms), "got {ms}");
    }

    #[test]
    fn thread_clone_is_96_percent_cheaper() {
        let c = CostModel::paper_calibrated();
        let ratio = c.thread_clone.as_millis_f64() / c.process_startup.as_millis_f64();
        assert!(ratio < 0.05, "thread clone should be ≤4% of fork: {ratio}");
    }

    #[test]
    fn openfaas_fit_matches_figure_3() {
        let s = SchedulingModel::paper_calibrated();
        let at = |n: u32| s.openfaas_stage_overhead(n).as_millis_f64();
        assert!((at(5) - 2.0).abs() < 1.0, "n=5: {}", at(5));
        assert!((40.0..80.0).contains(&at(25)), "n=25: {}", at(25));
        assert!((at(50) - 180.0).abs() < 5.0, "n=50: {}", at(50));
    }

    #[test]
    fn asf_waves_match_figure_3() {
        let s = SchedulingModel::paper_calibrated();
        assert_eq!(s.asf_schedule_time(0).as_millis_f64(), 150.0);
        assert_eq!(s.asf_schedule_time(4).as_millis_f64(), 150.0);
        assert_eq!(s.asf_schedule_time(5).as_millis_f64(), 300.0);
        // Last of 25 / 50 functions: close to the paper's 874 / 1628 ms.
        assert_eq!(s.asf_schedule_time(24).as_millis_f64(), 750.0);
        assert_eq!(s.asf_schedule_time(49).as_millis_f64(), 1500.0);
    }

    #[test]
    fn conservative_inflates_only_overheads() {
        let base = CostModel::paper_calibrated();
        let c = base.conservative(1.25);
        assert!(c.process_startup > base.process_startup);
        assert!(c.rpc > base.rpc);
        assert_eq!(c.gil_switch_interval, base.gil_switch_interval);
        assert_eq!(c.sandbox_base_bytes, base.sandbox_base_bytes);
    }

    #[test]
    fn jitter_flags() {
        assert!(JitterModel::NONE.is_none());
        assert!(!JitterModel::cluster().is_none());
    }
}
