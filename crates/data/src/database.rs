//! Named collections of relations, plus the relation lifecycle driver
//! (drop, re-ingest, dictionary-generation advance).

use crate::dict::{self, Generation};
use crate::error::DataError;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::symbol::Symbol;
use crate::Result;
use std::fmt;

/// A database: a mapping from relation symbols to relations.
#[derive(Clone, Default)]
pub struct Database {
    relations: FxHashMap<Symbol, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Registers `rel` under `name`, rejecting duplicates.
    pub fn add_relation(&mut self, name: impl Into<Symbol>, rel: Relation) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(DataError::DuplicateRelation(name));
        }
        self.relations.insert(name, rel);
        Ok(())
    }

    /// Registers or replaces `rel` under `name`.
    pub fn set_relation(&mut self, name: impl Into<Symbol>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    /// Drops the relation named `name`, returning it.
    ///
    /// Dropping alone does **not** reclaim dictionary codes — the dropped
    /// relation's values stay interned until the next
    /// [`Database::advance_generation`] sweep excludes them from the live
    /// set. This is the first half of the drop/re-ingest churn cycle.
    pub fn remove_relation(&mut self, name: &str) -> Result<Relation> {
        self.relations
            .remove(name)
            .ok_or_else(|| DataError::UnknownRelation(Symbol::new(name)))
    }

    /// Advances the process-wide dictionary generation with **this
    /// database's** values as the live set, reclaiming the codes of every
    /// value that only dropped relations used. Returns the new generation.
    ///
    /// All relations registered here are rehydrated/re-stamped, so the
    /// database is fully current afterwards; their codes do not change
    /// (sweep survivors are never remapped). Any *other* relation in the
    /// process — other databases and standalone clones — becomes stale and
    /// must be rehydrated before code-based use (stale use is detected, not
    /// silently wrong). Built indexes are unaffected: they hold ranks into
    /// their own value tables, so the sweep only bounds dictionary memory.
    pub fn advance_generation(&mut self) -> Result<Generation> {
        // Stale relations must be re-encoded *before* the sweep so the live
        // set is computed against mirrors that match current codes.
        for rel in self.relations.values_mut() {
            if !rel.is_current() {
                rel.rehydrate()?;
            }
        }
        let generation =
            dict::advance_generation(self.relations.values().flat_map(Relation::values));
        for rel in self.relations.values_mut() {
            rel.stamp_generation(generation);
        }
        Ok(generation)
    }

    /// Fetches a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(Symbol::new(name)))
    }

    /// Whether a relation named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Number of registered relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations (the paper's `|D|`).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Derives a new relation by filtering an existing one, registering it
    /// under `target`. This is how the benchmark queries materialize
    /// selections such as `n_name = 'UNITED STATES'` (see DESIGN.md §4).
    pub fn derive_selection(
        &mut self,
        source: &str,
        target: impl Into<Symbol>,
        pred: impl FnMut(&[crate::Value]) -> bool,
    ) -> Result<()> {
        let mut rel = self.relation(source)?.clone();
        rel.retain_rows(pred);
        self.add_relation(target, rel)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&Symbol> = self.relations.keys().collect();
        names.sort();
        writeln!(f, "Database [{} relations]", names.len())?;
        for name in names {
            let rel = &self.relations[name];
            writeln!(f, "  {name}{:?}: {} rows", rel.schema(), rel.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn sample_rel() -> Relation {
        Relation::from_rows(
            Schema::new(["x", "y"]).unwrap(),
            (0..4i64).map(|i| vec![Value::Int(i), Value::Int(i * i)]),
        )
        .unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        db.add_relation("R", sample_rel()).unwrap();
        assert!(db.contains("R"));
        assert_eq!(db.relation("R").unwrap().len(), 4);
        assert!(matches!(
            db.relation("S"),
            Err(DataError::UnknownRelation(_))
        ));
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut db = Database::new();
        db.add_relation("R", sample_rel()).unwrap();
        assert!(matches!(
            db.add_relation("R", sample_rel()),
            Err(DataError::DuplicateRelation(_))
        ));
        // set_relation overwrites without error.
        db.set_relation("R", sample_rel());
    }

    #[test]
    fn total_tuples_sums_relations() {
        let mut db = Database::new();
        db.add_relation("R", sample_rel()).unwrap();
        db.add_relation("S", sample_rel()).unwrap();
        assert_eq!(db.total_tuples(), 8);
        assert_eq!(db.relation_count(), 2);
    }

    #[test]
    fn derive_selection_filters_rows() {
        let mut db = Database::new();
        db.add_relation("R", sample_rel()).unwrap();
        db.derive_selection("R", "R_even", |row| row[0].as_int().unwrap() % 2 == 0)
            .unwrap();
        assert_eq!(db.relation("R_even").unwrap().len(), 2);
        // Source is untouched.
        assert_eq!(db.relation("R").unwrap().len(), 4);
    }
}
