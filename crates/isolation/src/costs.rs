//! Cost models for the thread memory-isolation mechanisms of §4 (Table 1).
//!
//! Table 1 reports, for a Python application on the paper's testbed:
//!
//! | Mechanism | Startup | Interaction | Exec (Fibonacci) | Exec (DiskIO) |
//! |-----------|---------|-------------|------------------|---------------|
//! | SFI       | 18 ms   | 8 ms        | 52.9 %           | 29.4 %        |
//! | Intel MPK | 0.2 ms  | 0           | 35.2 %           | 7.3 %         |
//!
//! We decompose the per-workload execution overhead into a CPU-segment
//! slowdown and a blocking-segment slowdown: MPK instruments user-space
//! instructions only (blocking syscalls are unaffected), while
//! WebAssembly-based SFI also pays trampoline costs on syscalls. With a
//! disk-I/O function that is ≈20 % CPU, these two factors reproduce the
//! table's per-workload percentages.

use chiron_model::{FunctionSpec, IsolationKind, Segment, SimDuration};

/// The cost profile of one isolation mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationCosts {
    /// One-time cost of entering the isolation domain when a thread starts
    /// (module instantiation for SFI, `wrpkru` setup for MPK).
    pub startup: SimDuration,
    /// Cost of each cross-domain data hand-off between threads.
    pub interaction: SimDuration,
    /// Relative slowdown of CPU segments (0.352 ⇒ 35.2 % slower).
    pub cpu_overhead: f64,
    /// Relative slowdown of blocking segments.
    pub io_overhead: f64,
}

impl IsolationCosts {
    /// No isolation: bare threads.
    pub const NONE: IsolationCosts = IsolationCosts {
        startup: SimDuration::ZERO,
        interaction: SimDuration::ZERO,
        cpu_overhead: 0.0,
        io_overhead: 0.0,
    };

    /// Intel MPK (Table 1, row 2).
    pub fn mpk() -> Self {
        IsolationCosts {
            startup: SimDuration::from_millis_f64(0.2),
            interaction: SimDuration::ZERO,
            cpu_overhead: 0.352,
            io_overhead: 0.003,
        }
    }

    /// WebAssembly SFI (Table 1, row 1).
    pub fn sfi() -> Self {
        IsolationCosts {
            startup: SimDuration::from_millis(18),
            interaction: SimDuration::from_millis(8),
            cpu_overhead: 0.529,
            io_overhead: 0.235,
        }
    }

    pub fn for_kind(kind: IsolationKind) -> Self {
        match kind {
            IsolationKind::None => IsolationCosts::NONE,
            IsolationKind::Mpk => IsolationCosts::mpk(),
            IsolationKind::Sfi => IsolationCosts::sfi(),
        }
    }

    /// The duration of one segment after applying the mechanism's slowdown.
    pub fn stretch_segment(&self, seg: Segment) -> SimDuration {
        match seg {
            Segment::Cpu(d) => d.mul_f64(1.0 + self.cpu_overhead),
            Segment::Block { dur, .. } => dur.mul_f64(1.0 + self.io_overhead),
        }
    }

    /// Overall execution slowdown of a function running solo under this
    /// mechanism (the quantity Table 1 reports per workload).
    pub fn execution_overhead(&self, func: &FunctionSpec) -> f64 {
        let base = func.solo_latency().as_millis_f64();
        if base == 0.0 {
            return 0.0;
        }
        let stretched: f64 = func
            .segments
            .iter()
            .map(|&s| self.stretch_segment(s).as_millis_f64())
            .sum();
        stretched / base - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::SyscallKind;

    fn fibonacci() -> FunctionSpec {
        FunctionSpec::new("fibonacci", vec![Segment::cpu_ms(36)])
    }

    /// A disk-I/O function that is ≈20 % CPU, as in SLApp.
    fn disk_io() -> FunctionSpec {
        FunctionSpec::new(
            "disk_io",
            vec![
                Segment::cpu_ms_f64(4.0),
                Segment::block_ms(SyscallKind::DiskIo, 28.0),
                Segment::cpu_ms_f64(4.0),
            ],
        )
    }

    #[test]
    fn mpk_matches_table_1() {
        let mpk = IsolationCosts::mpk();
        assert_eq!(mpk.startup.as_millis_f64(), 0.2);
        assert_eq!(mpk.interaction, SimDuration::ZERO);
        let fib = mpk.execution_overhead(&fibonacci());
        assert!((fib - 0.352).abs() < 0.01, "MPK fibonacci: {fib}");
        let disk = mpk.execution_overhead(&disk_io());
        assert!((disk - 0.073).abs() < 0.02, "MPK disk-io: {disk}");
    }

    #[test]
    fn sfi_matches_table_1() {
        let sfi = IsolationCosts::sfi();
        assert_eq!(sfi.startup.as_millis_f64(), 18.0);
        assert_eq!(sfi.interaction.as_millis_f64(), 8.0);
        let fib = sfi.execution_overhead(&fibonacci());
        assert!((fib - 0.529).abs() < 0.01, "SFI fibonacci: {fib}");
        let disk = sfi.execution_overhead(&disk_io());
        assert!((disk - 0.294).abs() < 0.03, "SFI disk-io: {disk}");
    }

    #[test]
    fn none_is_free() {
        let none = IsolationCosts::for_kind(IsolationKind::None);
        assert_eq!(none.execution_overhead(&fibonacci()), 0.0);
        assert_eq!(
            none.stretch_segment(Segment::cpu_ms(10)).as_millis_f64(),
            10.0
        );
    }

    #[test]
    fn mpk_strictly_cheaper_than_sfi() {
        let mpk = IsolationCosts::mpk();
        let sfi = IsolationCosts::sfi();
        assert!(mpk.startup < sfi.startup);
        assert!(mpk.interaction < sfi.interaction);
        assert!(mpk.cpu_overhead < sfi.cpu_overhead);
        assert!(mpk.io_overhead < sfi.io_overhead);
    }
}
