//! The seeded synthetic data generator.

use crate::scale::TpchScale;
use crate::{NATIONS, REGIONS};
use rae_data::{Database, Relation, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Foreign-key degree distribution of the generated data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Skew {
    /// Quadratic skew (`⌊u²·n⌋` for uniform `u`): hot keys get ~`√n`-fold
    /// the average fan-out, as in real-world workloads. This is the default
    /// because the paper's Olken-baseline comparisons (appendix Figures 6/8)
    /// are driven by degree variance; a perfectly uniform generator makes
    /// rejection sampling look artificially good (DESIGN.md §4).
    #[default]
    Zipfish,
    /// Uniform foreign keys (closer to stock `dbgen`).
    Uniform,
}

impl Skew {
    /// Draws an index in `0..n` under the distribution.
    fn draw<R: Rng>(self, rng: &mut R, n: usize) -> usize {
        debug_assert!(n > 0);
        match self {
            Skew::Uniform => rng.gen_range(0..n),
            Skew::Zipfish => {
                let u: f64 = rng.gen();
                (((u * u) * n as f64) as usize).min(n - 1)
            }
        }
    }
}

/// Schemas generated, trimmed to the columns the paper's queries use:
///
/// * `region(r_regionkey, r_name)`
/// * `nation(n_nationkey, n_name, n_regionkey)`
/// * `supplier(s_suppkey, s_nationkey)`
/// * `customer(c_custkey, c_nationkey)`
/// * `part(p_partkey, p_size)`
/// * `partsupp(ps_partkey, ps_suppkey)`
/// * `orders(o_orderkey, o_custkey)`
/// * `lineitem(l_orderkey, l_linenumber, l_partkey, l_suppkey)`
///
/// Foreign keys are dense (every key joins), `(l_partkey, l_suppkey)` always
/// occurs in `partsupp` (as in real TPC-H), and the generator is fully
/// deterministic in `(scale, seed)`. Uses the default [`Skew::Zipfish`]
/// degree distribution; see [`generate_with`].
pub fn generate(scale: &TpchScale, seed: u64) -> Database {
    generate_with(scale, seed, Skew::default())
}

/// [`generate`] with an explicit foreign-key degree distribution.
pub fn generate_with(scale: &TpchScale, seed: u64, skew: Skew) -> Database {
    try_generate(scale, seed, skew).expect("generator produces consistent schemas")
}

fn try_generate(scale: &TpchScale, seed: u64, skew: Skew) -> Result<Database> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    // region
    let mut region = Relation::new_in(Schema::new(["r_regionkey", "r_name"])?, db.dictionary());
    for (key, name) in REGIONS {
        region.push_row(vec![Value::Int(key), Value::str(name)])?;
    }
    db.add_relation("region", region)?;

    // nation
    let mut nation = Relation::new_in(
        Schema::new(["n_nationkey", "n_name", "n_regionkey"])?,
        db.dictionary(),
    );
    for (key, name, region_key) in NATIONS {
        nation.push_row(vec![
            Value::Int(key),
            Value::str(name),
            Value::Int(region_key),
        ])?;
    }
    db.add_relation("nation", nation)?;

    // supplier (nation keys stay uniform: a 25-value dimension attribute,
    // and the UCQ experiments select specific nations by name/key)
    let mut supplier =
        Relation::new_in(Schema::new(["s_suppkey", "s_nationkey"])?, db.dictionary());
    for s in 0..scale.suppliers {
        supplier.push_row(vec![Value::from(s), Value::Int(rng.gen_range(0..25))])?;
    }
    db.add_relation("supplier", supplier)?;

    // customer
    let mut customer =
        Relation::new_in(Schema::new(["c_custkey", "c_nationkey"])?, db.dictionary());
    for c in 0..scale.customers {
        customer.push_row(vec![Value::from(c), Value::Int(rng.gen_range(0..25))])?;
    }
    db.add_relation("customer", customer)?;

    // part
    let mut part = Relation::new_in(Schema::new(["p_partkey", "p_size"])?, db.dictionary());
    for p in 0..scale.parts {
        part.push_row(vec![Value::from(p), Value::Int(rng.gen_range(1..=50))])?;
    }
    db.add_relation("part", part)?;

    // partsupp: up to 4 distinct suppliers per part. Suppliers are drawn
    // under the configured skew (stock dbgen uses a uniform stride), so a
    // few "popular" suppliers carry most parts.
    let n_suppliers = scale.suppliers;
    let mut part_suppliers: Vec<Vec<i64>> = Vec::with_capacity(scale.parts);
    let mut partsupp =
        Relation::new_in(Schema::new(["ps_partkey", "ps_suppkey"])?, db.dictionary());
    for p in 0..scale.parts {
        let mut suppliers_of_part = Vec::with_capacity(4);
        for _ in 0..4usize {
            let s = i64::try_from(skew.draw(&mut rng, n_suppliers)).expect("supplier key fits i64");
            if !suppliers_of_part.contains(&s) {
                suppliers_of_part.push(s);
            }
        }
        for &s in &suppliers_of_part {
            partsupp.push_row(vec![Value::from(p), Value::Int(s)])?;
        }
        part_suppliers.push(suppliers_of_part);
    }
    db.add_relation("partsupp", partsupp)?;

    // orders
    let mut orders = Relation::new_in(Schema::new(["o_orderkey", "o_custkey"])?, db.dictionary());
    for o in 0..scale.orders {
        orders.push_row(vec![
            Value::from(o),
            Value::Int(skew.draw(&mut rng, scale.customers) as i64),
        ])?;
    }
    db.add_relation("orders", orders)?;

    // lineitem: 1–7 lines per order; supplier drawn from the part's
    // registered suppliers so the L ⋈ PS join behaves like real TPC-H.
    let mut lineitem = Relation::new_in(
        Schema::new(["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])?,
        db.dictionary(),
    );
    for o in 0..scale.orders {
        let lines = rng.gen_range(1..=7usize);
        for line in 0..lines {
            let p = skew.draw(&mut rng, scale.parts);
            let suppliers_of_part = &part_suppliers[p];
            let s = suppliers_of_part[rng.gen_range(0..suppliers_of_part.len())];
            lineitem.push_row(vec![
                Value::from(o),
                Value::from(line),
                Value::from(p),
                Value::Int(s),
            ])?;
        }
    }
    db.add_relation("lineitem", lineitem)?;

    Ok(db)
}

/// Materializes the derived selections used by the UCQ benchmark queries
/// (the paper phrases these as "different selections applied on the same
/// initial relations", Section 5.2):
///
/// * `nation_us` — `σ[n_name = 'UNITED STATES'](nation)` (for Q7S/Q7C),
/// * `nation_k24` / `nation_k23` — `σ[n_nationkey = 24 | 23]` (for QA/QE),
/// * `nation_k0` — `σ[n_nationkey = 0]` (for QN2),
/// * `partsupp_evenpart` — `σ[ps_partkey mod 2 = 0](partsupp)` (for QP2),
/// * `partsupp_evensupp` — `σ[ps_suppkey mod 2 = 0](partsupp)` (for QS2).
pub fn prepare_selections(db: &mut Database) -> Result<()> {
    db.derive_selection("nation", "nation_us", |row| {
        row[1].as_str() == Some("UNITED STATES")
    })?;
    db.derive_selection("nation", "nation_k24", |row| row[0] == Value::Int(24))?;
    db.derive_selection("nation", "nation_k23", |row| row[0] == Value::Int(23))?;
    db.derive_selection("nation", "nation_k0", |row| row[0] == Value::Int(0))?;
    db.derive_selection("partsupp", "partsupp_evenpart", |row| {
        row[0].as_int().is_some_and(|v| v % 2 == 0)
    })?;
    db.derive_selection("partsupp", "partsupp_evensupp", |row| {
        row[1].as_int().is_some_and(|v| v % 2 == 0)
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let scale = TpchScale::tiny();
        let a = generate(&scale, 7);
        let b = generate(&scale, 7);
        for name in ["supplier", "orders", "lineitem", "partsupp"] {
            assert_eq!(
                a.relation(name).unwrap(),
                b.relation(name).unwrap(),
                "{name} differs between runs"
            );
        }
        let c = generate(&scale, 8);
        assert_ne!(
            a.relation("lineitem").unwrap(),
            c.relation("lineitem").unwrap(),
            "different seeds should differ"
        );
    }

    #[test]
    fn cardinalities_match_scale() {
        let scale = TpchScale::tiny();
        let db = generate(&scale, 1);
        assert_eq!(db.relation("region").unwrap().len(), 5);
        assert_eq!(db.relation("nation").unwrap().len(), 25);
        assert_eq!(db.relation("supplier").unwrap().len(), scale.suppliers);
        assert_eq!(db.relation("customer").unwrap().len(), scale.customers);
        assert_eq!(db.relation("part").unwrap().len(), scale.parts);
        assert_eq!(db.relation("orders").unwrap().len(), scale.orders);
        let li = db.relation("lineitem").unwrap().len();
        assert!(li >= scale.orders && li <= scale.orders * 7);
        // ≤ 4 suppliers per part.
        let ps = db.relation("partsupp").unwrap().len();
        assert!(ps <= scale.parts * 4 && ps >= scale.parts);
    }

    #[test]
    fn lineitem_part_supplier_pairs_exist_in_partsupp() {
        let db = generate(&TpchScale::tiny(), 99);
        let ps = db.relation("partsupp").unwrap();
        let pairs: std::collections::BTreeSet<(i64, i64)> = ps
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        for row in db.relation("lineitem").unwrap().rows() {
            let pair = (row[2].as_int().unwrap(), row[3].as_int().unwrap());
            assert!(
                pairs.contains(&pair),
                "lineitem pair {pair:?} missing from partsupp"
            );
        }
    }

    #[test]
    fn selections_materialize() {
        let mut db = generate(&TpchScale::tiny(), 1);
        prepare_selections(&mut db).unwrap();
        assert_eq!(db.relation("nation_us").unwrap().len(), 1);
        assert_eq!(db.relation("nation_k24").unwrap().len(), 1);
        assert_eq!(db.relation("nation_k23").unwrap().len(), 1);
        assert_eq!(db.relation("nation_k0").unwrap().len(), 1);
        let even_part = db.relation("partsupp_evenpart").unwrap();
        assert!(!even_part.is_empty());
        assert!(even_part.rows().all(|r| r[0].as_int().unwrap() % 2 == 0));
        // nation_us is nationkey 24.
        assert_eq!(db.relation("nation_us").unwrap().row(0)[0], Value::Int(24));
    }

    #[test]
    fn foreign_keys_are_dense() {
        let db = generate(&TpchScale::tiny(), 5);
        let nations: std::collections::BTreeSet<i64> = db
            .relation("nation")
            .unwrap()
            .rows()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        for row in db.relation("supplier").unwrap().rows() {
            assert!(nations.contains(&row[1].as_int().unwrap()));
        }
        let customers = db.relation("customer").unwrap().len() as i64;
        for row in db.relation("orders").unwrap().rows() {
            let c = row[1].as_int().unwrap();
            assert!((0..customers).contains(&c));
        }
    }

    #[test]
    fn skew_produces_heavy_hitters_and_uniform_does_not() {
        let scale = TpchScale {
            suppliers: 50,
            customers: 400,
            parts: 100,
            orders: 4000,
        };
        let degree_ratio = |db: &Database| {
            let mut counts = vec![0usize; scale.customers];
            for row in db.relation("orders").unwrap().rows() {
                counts[row[1].as_int().unwrap() as usize] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            let mean = scale.orders as f64 / scale.customers as f64;
            max / mean
        };
        let skewed = degree_ratio(&generate_with(&scale, 1, Skew::Zipfish));
        let uniform = degree_ratio(&generate_with(&scale, 1, Skew::Uniform));
        assert!(
            skewed > uniform * 2.0,
            "skewed max/mean {skewed:.1} should dominate uniform {uniform:.1}"
        );
        assert!(skewed > 5.0, "expected heavy hitters, got {skewed:.1}");
    }
}
