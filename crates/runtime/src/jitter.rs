//! Deterministic random perturbation of platform costs.
//!
//! The Predictor models the platform with constant parameters; a real
//! cluster does not behave that way. When a [`JitterModel`] is active, the
//! virtual platform multiplies every cost by a lognormal factor with unit
//! mean, seeded per request, so that prediction error (Fig. 12) and SLO
//! violations (Fig. 14) are meaningful quantities.
//!
//! A factor is one table lookup: each spread of the model has a
//! [`LognormalTable`] of its quantile function, and one `next_u64` picks a
//! cell with its top bits and a point inside the cell with the rest. The
//! tables are built from IEEE basic operations only
//! ([`chiron_metrics::math`]), so every jittered output is the same on
//! every host, whatever its libm.

use chiron_metrics::math::{exp, normal_quantile, normal_upper_tail};
use chiron_model::{JitterModel, SimDuration};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Cells per table; the top `CELL_BITS` bits of a draw pick one.
const CELL_BITS: u32 = 10;
const CELLS: usize = 1 << CELL_BITS;
/// The draw bits below the cell index that place a point inside it.
const FRACTION_BITS: u32 = 53;

/// The inverse CDF of the unit-mean lognormal with log-spread `σ`, as
/// `CELLS` equiprobable cells with linear interpolation inside each.
///
/// Inner knots are the exact quantiles `exp(σ·Φ⁻¹(i/K) − σ²/2)`. The two
/// unbounded end cells get the outer knot that makes the cell's mean the
/// lognormal's mean over that cell, and the whole table is then rescaled
/// so its mean is exactly 1.
#[derive(Clone)]
pub struct LognormalTable {
    sigma: f64,
    /// `[start, width]` of each cell.
    cells: Box<[[f64; 2]; CELLS]>,
}

impl LognormalTable {
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "lognormal σ = {sigma}");
        let k = CELLS as f64;
        let mu = -0.5 * sigma * sigma;
        let mut knots = vec![0.0; CELLS + 1];
        for (i, knot) in knots.iter_mut().enumerate().take(CELLS).skip(1) {
            *knot = exp(mu + sigma * normal_quantile(i as f64 / k));
        }
        // E[X·1{Z > a}] = 1 − Φ(a − σ) for the unit-mean lognormal
        // X = exp(μ + σZ); each end cell holds probability 1/K.
        let z_top = normal_quantile(1.0 - 1.0 / k);
        let top_mean = k * normal_upper_tail(z_top - sigma);
        let bottom_mean = k * normal_upper_tail(sigma - normal_quantile(1.0 / k));
        knots[CELLS] = 2.0 * top_mean - knots[CELLS - 1];
        knots[0] = (2.0 * bottom_mean - knots[1]).max(0.0);
        let mean = knots.windows(2).map(|w| w[0] + w[1]).sum::<f64>() / (2.0 * k);
        let mut cells = Box::new([[0.0; 2]; CELLS]);
        for (cell, w) in cells.iter_mut().zip(knots.windows(2)) {
            *cell = [w[0] / mean, (w[1] - w[0]) / mean];
        }
        LognormalTable { sigma, cells }
    }

    /// The factor for one 64-bit uniform draw.
    #[inline]
    pub fn sample(&self, bits: u64) -> f64 {
        let [start, width] = self.cells[(bits >> (64 - CELL_BITS)) as usize];
        let fraction = ((bits >> (64 - CELL_BITS - FRACTION_BITS)) & ((1 << FRACTION_BITS) - 1))
            as f64
            * (1.0 / (1u64 << FRACTION_BITS) as f64);
        start + width * fraction
    }
}

impl std::fmt::Debug for LognormalTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LognormalTable")
            .field("sigma", &self.sigma)
            .finish_non_exhaustive()
    }
}

/// One table per nonzero spread of a [`JitterModel`]; a zero spread has
/// none and leaves its costs unchanged. [`JitterModel::NONE`] builds
/// nothing.
#[derive(Debug, Clone)]
pub struct JitterTables {
    startup: Option<LognormalTable>,
    cpu: Option<LognormalTable>,
    io: Option<LognormalTable>,
    comm: Option<LognormalTable>,
}

impl JitterTables {
    pub fn new(model: &JitterModel) -> Self {
        // exp(σZ) and exp(−σZ) have one law, so a negative spread is its
        // magnitude.
        let table = |sigma: f64| (sigma != 0.0).then(|| LognormalTable::new(sigma.abs()));
        JitterTables {
            startup: table(model.startup_rel_std),
            cpu: table(model.cpu_rel_std),
            io: table(model.io_rel_std),
            comm: table(model.comm_rel_std),
        }
    }

    /// Whether no spread has a table (every cost passes unchanged).
    pub fn is_empty(&self) -> bool {
        [&self.startup, &self.cpu, &self.io, &self.comm]
            .iter()
            .all(|t| t.is_none())
    }
}

/// A seeded source of multiplicative noise: one draw per jittered cost,
/// none for a cost whose spread is zero.
#[derive(Debug)]
pub struct Jitter<'t> {
    rng: StdRng,
    tables: &'t JitterTables,
}

impl<'t> Jitter<'t> {
    pub fn new(tables: &'t JitterTables, seed: u64) -> Self {
        Jitter {
            rng: StdRng::seed_from_u64(seed),
            tables,
        }
    }

    #[inline]
    fn draw(&mut self, table: Option<&LognormalTable>, d: SimDuration) -> SimDuration {
        match table {
            Some(table) => d.mul_f64(table.sample(self.rng.next_u64())),
            None => d,
        }
    }

    pub fn startup(&mut self, d: SimDuration) -> SimDuration {
        self.draw(self.tables.startup.as_ref(), d)
    }

    pub fn cpu(&mut self, d: SimDuration) -> SimDuration {
        self.draw(self.tables.cpu.as_ref(), d)
    }

    pub fn io(&mut self, d: SimDuration) -> SimDuration {
        self.draw(self.tables.io.as_ref(), d)
    }

    pub fn comm(&mut self, d: SimDuration) -> SimDuration {
        self.draw(self.tables.comm.as_ref(), d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone_positive_and_unit_mean() {
        for sigma in [0.06, 0.2, 1.0] {
            let table = LognormalTable::new(sigma);
            assert!(table.sample(0) > 0.0, "σ={sigma}");
            let mut prev = 0.0;
            let mut sum = 0.0;
            for [start, width] in table.cells.iter() {
                assert!(*start >= prev * (1.0 - 1e-15) && *width > 0.0, "σ={sigma}");
                prev = start + width;
                sum += start + width / 2.0;
            }
            assert!((sum / CELLS as f64 - 1.0).abs() < 1e-12, "σ={sigma}");
            assert!(table.sample(u64::MAX) <= prev, "σ={sigma}");
        }
    }

    #[test]
    fn jitter_never_negative() {
        let tables = JitterTables::new(&JitterModel::cluster());
        let mut j = Jitter::new(&tables, 3);
        for _ in 0..1000 {
            assert!(j.io(SimDuration::from_millis(1)) > SimDuration::ZERO);
        }
    }
}
