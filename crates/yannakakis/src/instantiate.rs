//! Atom instantiation: from an atom over a stored relation to a materialized
//! relation over the atom's *variables*, selected and projected on
//! dictionary codes.

use crate::Result;
use rae_data::{Database, Relation, Schema};
use rae_query::{Atom, QueryError, Term};

/// Materializes the sub-relation of `db` matched by `atom`:
///
/// * rows whose values disagree with a constant term are dropped,
/// * rows violating repeated-variable equality are dropped,
/// * columns are projected (and reordered) onto the atom's distinct
///   variables in **sorted variable order** (the canonical bag layout used
///   by join-tree plans),
/// * duplicates are removed (set semantics).
///
/// Everything runs on the stored relation's code mirror
/// ([`Relation::select_project`]): a constant resolves once through the
/// stored relation's dictionary and is never interned (an unknown constant
/// matches no row), repeated variables compare codes, and surviving rows
/// are copied code by code rather than re-interned, so the result shares
/// the stored relation's dictionary.
///
/// Self-joins are handled naturally: each atom instantiates its own copy.
pub fn instantiate_atom(atom: &Atom, db: &Database) -> Result<Relation> {
    let stored = db.relation(&atom.relation)?;
    if stored.arity() != atom.terms.len() {
        return Err(QueryError::AtomArityMismatch {
            relation: atom.relation.clone(),
            relation_arity: stored.arity(),
            atom_arity: atom.terms.len(),
        });
    }

    // Sorted distinct variables define the output schema.
    let vars = atom.var_set();
    let schema = Schema::new(vars.iter().cloned())?;

    // The first column of the atom where a variable occurs.
    let first_col = |v| {
        atom.terms
            .iter()
            .position(|t| t.as_var() == Some(v))
            .expect("variables come from the atom")
    };
    let cols: Vec<usize> = schema.attrs().iter().map(first_col).collect();

    // Constant checks as (column, code) and repeated-variable checks as
    // (first column, other column).
    let mut const_codes = Vec::new();
    let mut eq_cols = Vec::new();
    for (i, t) in atom.terms.iter().enumerate() {
        match t {
            Term::Const(c) => match stored.dictionary().and_then(|d| d.code_of(c)) {
                Some(code) => const_codes.push((i, code)),
                None => return Ok(Relation::new(schema)),
            },
            Term::Var(v) => {
                let first = first_col(v);
                if first != i {
                    eq_cols.push((first, i));
                }
            }
        }
    }

    let mut out = stored.select_project(&const_codes, &eq_cols, &cols, schema)?;
    out.sort_dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_data::{Symbol, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let rel = Relation::from_rows(
            Schema::new(["a", "b", "c"]).unwrap(),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::str("x")],
                vec![Value::Int(1), Value::Int(2), Value::str("y")],
                vec![Value::Int(2), Value::Int(2), Value::str("x")],
                vec![Value::Int(1), Value::Int(2), Value::str("y")], // duplicate
            ],
        )
        .unwrap();
        db.add_relation("R", rel).unwrap();
        db
    }

    #[test]
    fn plain_variables_project_in_sorted_order() {
        // Atom R(q, p, s): output schema must be (p, q, s) sorted.
        let atom = Atom::new("R", ["q", "p", "s"]);
        let rel = instantiate_atom(&atom, &db()).unwrap();
        assert_eq!(
            rel.schema().attrs(),
            &[Symbol::new("p"), Symbol::new("q"), Symbol::new("s")]
        );
        assert_eq!(rel.len(), 3); // duplicate removed
                                  // p is column b of the source, q is column a.
        assert!(rel.contains_row(&[Value::Int(2), Value::Int(1), Value::str("y")]));
    }

    #[test]
    fn constants_filter_rows() {
        let atom = Atom::with_terms(
            "R",
            vec![Term::var("x"), Term::Const(Value::Int(2)), Term::var("s")],
        );
        let rel = instantiate_atom(&atom, &db()).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.schema().attrs(), &[Symbol::new("s"), Symbol::new("x")]);
    }

    #[test]
    fn string_constants_filter_rows() {
        let atom = Atom::with_terms(
            "R",
            vec![Term::var("x"), Term::var("y"), Term::Const(Value::str("x"))],
        );
        let rel = instantiate_atom(&atom, &db()).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let atom = Atom::with_terms("R", vec![Term::var("v"), Term::var("v"), Term::var("s")]);
        let rel = instantiate_atom(&atom, &db()).unwrap();
        // Only rows with a == b: (1,1,"x") and (2,2,"x").
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.schema().attrs(), &[Symbol::new("s"), Symbol::new("v")]);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let atom = Atom::new("R", ["x", "y"]);
        assert!(matches!(
            instantiate_atom(&atom, &db()),
            Err(QueryError::AtomArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let atom = Atom::new("Nope", ["x", "y", "z"]);
        assert!(instantiate_atom(&atom, &db()).is_err());
    }

    #[test]
    fn all_constant_atom_yields_arity_zero_relation() {
        let atom = Atom::with_terms(
            "R",
            vec![
                Term::Const(Value::Int(1)),
                Term::Const(Value::Int(2)),
                Term::Const(Value::str("y")),
            ],
        );
        let rel = instantiate_atom(&atom, &db()).unwrap();
        assert_eq!(rel.arity(), 0);
        assert_eq!(rel.len(), 1); // satisfied: contains the empty tuple once
    }

    #[test]
    fn all_constant_atom_unsatisfied_is_empty() {
        let atom = Atom::with_terms(
            "R",
            vec![
                Term::Const(Value::Int(9)),
                Term::Const(Value::Int(9)),
                Term::Const(Value::str("?")),
            ],
        );
        let rel = instantiate_atom(&atom, &db()).unwrap();
        assert_eq!(rel.arity(), 0);
        assert!(rel.is_empty());
    }
}
