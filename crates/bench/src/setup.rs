//! Workload configuration shared by all figure generators.

use rae_data::Database;
use rae_tpch::{generate, prepare_selections, TpchScale};

/// Scale/seed configuration for a harness run.
///
/// The paper ran at TPC-H scale factor 5 on a 496 GB server; the default
/// here is a laptop-scale 0.01 (≈130k tuples), adjustable via `repro --sf`.
/// Curve *shapes* are scale-invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// TPC-H-style scale factor.
    pub sf: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { sf: 0.01, seed: 42 }
    }
}

impl BenchConfig {
    /// A very small configuration for smoke tests.
    pub fn smoke() -> Self {
        BenchConfig {
            sf: 0.001,
            seed: 42,
        }
    }

    /// Generates the database (with the UCQ selection relations prepared).
    pub fn build_db(&self) -> Database {
        let mut db = generate(&TpchScale::from_sf(self.sf), self.seed);
        prepare_selections(&mut db).expect("selection relations");
        db
    }
}

/// The answer-percentage ladder of Figure 1.
pub const PERCENT_LADDER: [u32; 7] = [1, 5, 10, 30, 50, 70, 90];

/// The extended ladder of Figure 4b.
pub const PERCENT_LADDER_FULL: [u32; 8] = [1, 5, 10, 30, 50, 70, 90, 100];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_builds_a_database() {
        let db = BenchConfig::smoke().build_db();
        assert!(db.contains("lineitem"));
        assert!(db.contains("nation_us"));
        assert!(db.total_tuples() > 100);
    }
}
