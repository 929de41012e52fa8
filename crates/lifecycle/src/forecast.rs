//! Per-workflow demand forecasting for the prewarm pools.
//!
//! The pool policy needs one number per autoscaler tick: the arrival
//! rate it should be provisioned for. An exponentially weighted moving
//! average over the observed per-tick rate is the same residual-tracking
//! idea the drift monitor applies to latency, pointed at demand — cheap,
//! deterministic, and reactive enough to re-provision pools within a few
//! ticks of a demand swing (a fault-recovery wave, a diurnal ramp).

/// EWMA of the observed arrival rate (requests/second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandForecast {
    /// Smoothing weight of the newest sample, in `(0, 1]`.
    alpha: f64,
    rate: f64,
    primed: bool,
}

impl DemandForecast {
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        DemandForecast {
            alpha,
            rate: 0.0,
            primed: false,
        }
    }

    /// Feeds one observed per-tick rate sample. The first sample primes
    /// the average directly, so a pool does not spend its first ticks
    /// crawling up from zero.
    pub fn observe(&mut self, rate: f64) {
        if self.primed {
            self.rate = self.alpha * rate + (1.0 - self.alpha) * self.rate;
        } else {
            self.rate = rate;
            self.primed = true;
        }
    }

    /// The forecast demand, requests/second (zero before any sample).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_primes() {
        let mut f = DemandForecast::new(0.3);
        assert_eq!(f.rate(), 0.0);
        f.observe(50.0);
        assert_eq!(f.rate(), 50.0);
    }

    #[test]
    fn converges_toward_sustained_demand() {
        let mut f = DemandForecast::new(0.3);
        f.observe(10.0);
        for _ in 0..20 {
            f.observe(80.0);
        }
        assert!((f.rate() - 80.0).abs() < 1.0, "rate {}", f.rate());
    }

    #[test]
    fn smoothing_damps_a_single_spike() {
        let mut f = DemandForecast::new(0.3);
        for _ in 0..5 {
            f.observe(50.0);
        }
        f.observe(500.0);
        assert!(
            f.rate() < 200.0,
            "one burst must not dominate: {}",
            f.rate()
        );
        assert!(f.rate() > 50.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn zero_alpha_rejected() {
        DemandForecast::new(0.0);
    }
}
