//! Loading external (dbgen-format) data: write a `.tbl` directory the way
//! TPC-H's dbgen would, load it back with typed schemas, and answer a query
//! with the paper's machinery. Real `dbgen` output can be loaded the same
//! way.
//!
//! Run with `cargo run --example external_data`.

use rae::prelude::*;
use rae_data::{read_tbl, write_tbl, ColumnType};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::BufReader;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("rae_external_data_example");
    fs::create_dir_all(&dir)?;

    // 1. Produce dbgen-style files (stand-in for real `dbgen` output).
    write_sample_files(&dir)?;
    println!("wrote nation.tbl and supplier.tbl to {}", dir.display());

    // 2. Load them back with typed schemas.
    let mut db = Database::new();
    let nation = read_tbl(
        BufReader::new(fs::File::open(dir.join("nation.tbl"))?),
        Schema::new(["n_nationkey", "n_name", "n_regionkey"])?,
        &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
        db.dictionary(),
    )?;
    let supplier = read_tbl(
        BufReader::new(fs::File::open(dir.join("supplier.tbl"))?),
        Schema::new(["s_suppkey", "s_name", "s_nationkey"])?,
        &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
        db.dictionary(),
    )?;
    println!(
        "loaded {} nations, {} suppliers",
        nation.len(),
        supplier.len()
    );
    db.add_relation("nation", nation)?;
    db.add_relation("supplier", supplier)?;

    // 3. Query: suppliers with their nation keys and names. (The join
    // variable `nk` must stay in the head: projecting it away would link
    // supplier and nation names through an existential variable, which is
    // exactly the non-free-connex pattern the dichotomy rules out.)
    let q: ConjunctiveQuery =
        "Q(sk, sname, nk, nname) :- supplier(sk, sname, nk), nation(nk, nname, rk)".parse()?;
    let index = CqIndex::build(&q, &db)?;
    println!("\n{} supplier-nation answers; random order:", index.count());
    for answer in index.random_permutation(StdRng::seed_from_u64(3)) {
        println!("  {answer:?}");
    }

    fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn write_sample_files(dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let nation = Relation::from_rows(
        Schema::new(["n_nationkey", "n_name", "n_regionkey"])?,
        vec![
            vec![Value::Int(7), Value::str("GERMANY"), Value::Int(3)],
            vec![Value::Int(23), Value::str("UNITED KINGDOM"), Value::Int(3)],
            vec![Value::Int(24), Value::str("UNITED STATES"), Value::Int(1)],
        ],
    )?;
    let supplier = Relation::from_rows(
        Schema::new(["s_suppkey", "s_name", "s_nationkey"])?,
        vec![
            vec![Value::Int(1), Value::str("Supplier#1"), Value::Int(7)],
            vec![Value::Int(2), Value::str("Supplier#2"), Value::Int(24)],
            vec![Value::Int(3), Value::str("Supplier#3"), Value::Int(24)],
            vec![Value::Int(4), Value::str("Supplier#4"), Value::Int(23)],
        ],
    )?;
    write_tbl(&nation, fs::File::create(dir.join("nation.tbl"))?)?;
    write_tbl(&supplier, fs::File::create(dir.join("supplier.tbl"))?)?;
    Ok(())
}
