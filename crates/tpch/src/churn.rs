//! Churn-style ingest: drop/re-ingest cycles over a long-lived database.
//!
//! Production-scale serving is not one static instance: relations are
//! dropped and re-ingested with *fresh* values (new order keys, new
//! customer tags) while dimension tables persist. The database's
//! dictionary only grows, so each cycle ends by compacting it
//! ([`rae_data::Database::compact_dictionary`]): the live relations are
//! re-encoded in a fresh dictionary and the dropped cohort's values go
//! with the old one. The dictionary is thus bounded by one live cohort
//! plus the dimension tables — the property `tests/churn.rs` checks across
//! eleven cycles.
//!
//! Each cycle's cohort is deliberately value-fresh: integer keys are
//! offset by a per-cycle stride and string tags embed the cycle number, so
//! nothing is shared across cohorts and an unbounded-domain leak would be
//! visible immediately.
//!
//! Interning is the serial bottleneck of bulk ingest; the cohort's values
//! are pre-interned into the database's dictionary through
//! [`rae_data::Dictionary::intern_all`], which partitions them by
//! dictionary shard and interns disjoint shards on separate threads (zero
//! writer-lock contention).

use crate::scale::TpchScale;
use rae_data::{Database, Relation, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Names of the relations replaced every churn cycle.
pub const CHURN_RELATIONS: [&str; 2] = ["churn_orders", "churn_lineitem"];

/// The cycle-invariant churn query text: a free-connex join of the two
/// churned relations on the order key.
pub const CHURN_QUERY: &str = "Q(o, t, p) :- churn_orders(o, t), churn_lineitem(o, p)";

/// Configuration of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Number of drop/re-ingest cycles.
    pub cycles: usize,
    /// Orders ingested per cycle (lineitems are 1–3 per order).
    pub orders_per_cycle: usize,
    /// Generator seed (each cycle derives its own stream).
    pub seed: u64,
    /// Interning threads for the bulk pre-intern pass (1 = serial).
    pub threads: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            cycles: 12,
            orders_per_cycle: 2_000,
            seed: 42,
            threads: 4,
        }
    }
}

/// Dictionary and ingest statistics recorded after each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStats {
    /// Cycle number (0-based).
    pub cycle: usize,
    /// Values in the database's dictionary after the cycle's ingest.
    pub live_values: usize,
    /// Dictionary high-water mark so far: the most values the database's
    /// dictionary has held after any cycle. Bounded churn means this
    /// plateaus while cumulative distinct values grow linearly.
    pub allocated_slots: usize,
    /// Rows ingested this cycle across the churned relations.
    pub rows_ingested: usize,
}

/// Builds the long-lived base of the churn database (dimension tables from
/// the standard generator at the given scale).
pub fn base_database(scale: &TpchScale, seed: u64) -> Database {
    crate::generate(scale, seed)
}

/// Ingests cycle `cycle`'s cohort: `churn_orders(co_orderkey, co_custtag)`
/// and `churn_lineitem(cl_orderkey, cl_partkey)` with cycle-unique fresh
/// values. Returns the number of rows ingested.
///
/// The cohort's values are bulk pre-interned (in parallel when
/// `cfg.threads > 1`) before row construction, so per-row interning runs
/// on the read-lock fast path.
pub fn ingest_cycle(db: &mut Database, cycle: usize, cfg: &ChurnConfig) -> Result<usize> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (cycle as u64).wrapping_mul(0x9E37_79B9));
    let stride = (cycle as i64 + 1) * 1_000_000_000;

    let dict = db.dictionary();
    let mut orders = Relation::new_in(Schema::new(["co_orderkey", "co_custtag"])?, dict);
    let mut lineitem = Relation::new_in(Schema::new(["cl_orderkey", "cl_partkey"])?, dict);
    let mut order_rows: Vec<(i64, Value)> = Vec::with_capacity(cfg.orders_per_cycle);
    let mut line_rows: Vec<(i64, i64)> = Vec::new();
    for i in 0..cfg.orders_per_cycle {
        let o = stride + i as i64;
        // Fresh string per order: the unbounded-domain part of the cohort.
        let tag = Value::str(format!(
            "ct-{cycle}-{}",
            rng.gen_range(0..cfg.orders_per_cycle)
        ));
        order_rows.push((o, tag));
        for _ in 0..rng.gen_range(1..=3usize) {
            line_rows.push((o, stride + rng.gen_range(0..cfg.orders_per_cycle as i64)));
        }
    }

    // Bulk pre-intern the cohort, sharded across threads.
    let mut cohort: Vec<Value> = Vec::with_capacity(order_rows.len() * 2 + line_rows.len() * 2);
    for (o, tag) in &order_rows {
        cohort.push(Value::Int(*o));
        cohort.push(tag.clone());
    }
    for (o, p) in &line_rows {
        cohort.push(Value::Int(*o));
        cohort.push(Value::Int(*p));
    }
    dict.intern_all(&cohort, cfg.threads)?;

    for (o, tag) in order_rows {
        orders.push_row(vec![Value::Int(o), tag])?;
    }
    for (o, p) in line_rows {
        lineitem.push_row(vec![Value::Int(o), Value::Int(p)])?;
    }
    let rows = orders.len() + lineitem.len();
    db.set_relation("churn_orders", orders)?;
    db.set_relation("churn_lineitem", lineitem)?;
    Ok(rows)
}

/// Drops the churned relations (if present) and compacts the dictionary,
/// so the dropped cohort's values leave it.
pub fn drop_and_reclaim(db: &mut Database) -> Result<()> {
    for name in CHURN_RELATIONS {
        if db.contains(name) {
            db.remove_relation(name)?;
        }
    }
    db.compact_dictionary()
}

/// Runs `cfg.cycles` drop/re-ingest cycles against `db`, returning per-cycle
/// dictionary statistics.
///
/// Each cycle: drop the previous cohort, compact the dictionary, ingest a
/// fresh cohort. Indexes built in earlier cycles keep answering: they hold
/// ranks into their own value tables, never dictionary codes.
pub fn run_churn(db: &mut Database, cfg: &ChurnConfig) -> Result<Vec<CycleStats>> {
    let mut stats: Vec<CycleStats> = Vec::with_capacity(cfg.cycles);
    for cycle in 0..cfg.cycles {
        drop_and_reclaim(db)?;
        let rows_ingested = ingest_cycle(db, cycle, cfg)?;
        let live_values = db.dictionary().len();
        let high_water = stats.last().map_or(0, |s| s.allocated_slots);
        stats.push(CycleStats {
            cycle,
            live_values,
            allocated_slots: high_water.max(live_values),
            rows_ingested,
        });
    }
    Ok(stats)
}
