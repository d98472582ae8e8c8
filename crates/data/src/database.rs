//! Named collections of relations sharing one value dictionary, plus the
//! dictionary's compaction under drop/re-ingest churn.

use crate::dict::Dictionary;
use crate::error::DataError;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::symbol::Symbol;
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// A database: a mapping from relation symbols to relations, all encoded
/// in the database's own [`Dictionary`]. Clones share the dictionary.
#[derive(Clone, Default)]
pub struct Database {
    relations: FxHashMap<Symbol, Relation>,
    dict: Arc<Dictionary>,
}

impl Database {
    /// Creates an empty database with an empty dictionary.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates an empty database over `dict`: relations already encoded in
    /// it are registered without re-encoding.
    pub fn with_dictionary(dict: Arc<Dictionary>) -> Self {
        Database {
            relations: FxHashMap::default(),
            dict,
        }
    }

    /// The dictionary every relation of this database is encoded in. Build
    /// relations straight into it with [`Relation::new_in`].
    pub fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Registers `rel` under `name`, rejecting duplicates. A relation from
    /// another dictionary is re-encoded in this database's.
    pub fn add_relation(&mut self, name: impl Into<Symbol>, rel: Relation) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(DataError::DuplicateRelation(name));
        }
        self.set_relation(name, rel)
    }

    /// Registers or replaces `rel` under `name`. A relation from another
    /// dictionary is re-encoded in this database's.
    pub fn set_relation(&mut self, name: impl Into<Symbol>, mut rel: Relation) -> Result<()> {
        rel.encode_into(&self.dict)?;
        self.relations.insert(name.into(), rel);
        Ok(())
    }

    /// Drops the relation named `name`, returning it.
    ///
    /// Its values stay in the dictionary; [`Database::compact_dictionary`]
    /// drops the values no remaining relation uses.
    pub fn remove_relation(&mut self, name: &str) -> Result<Relation> {
        self.relations
            .remove(name)
            .ok_or_else(|| DataError::UnknownRelation(Symbol::new(name)))
    }

    /// Re-encodes every relation in a fresh dictionary that holds only
    /// their values, and makes it this database's. This is how a
    /// long-lived database bounds its dictionary under drop/re-ingest
    /// churn. Relations, clones and databases still holding the old
    /// dictionary keep it alive and stay valid; built indexes hold ranks
    /// into their own value tables and never read a dictionary. On error
    /// the database is unchanged.
    pub fn compact_dictionary(&mut self) -> Result<()> {
        let fresh = Arc::new(Dictionary::new());
        let mut compacted = FxHashMap::default();
        for (name, rel) in &self.relations {
            let mut rel = rel.clone();
            rel.encode_into(&fresh)?;
            compacted.insert(name.clone(), rel);
        }
        self.relations = compacted;
        self.dict = fresh;
        Ok(())
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
        db.set_relation("R", sample_rel()).unwrap();
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
