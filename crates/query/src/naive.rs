//! Naive (brute-force) CQ/UCQ evaluation by backtracking search.
//!
//! Exponential in query size, linear-ish only on tiny inputs — used purely
//! as ground truth for tests and for sanity rows in the benchmark harness.

use crate::ast::{ConjunctiveQuery, Term, UnionQuery};
use crate::error::QueryError;
use crate::Result;
use rae_data::{Database, FxHashMap, Relation, Schema, Symbol, Value};

/// Evaluates a CQ by exhaustive backtracking over atom matches.
///
/// Returns the answer *set* as a relation over the head variables, sorted
/// lexicographically and encoded in `db`'s dictionary.
pub fn naive_eval(cq: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    for atom in cq.body() {
        let rel = db.relation(&atom.relation)?;
        if rel.arity() != atom.terms.len() {
            return Err(QueryError::AtomArityMismatch {
                relation: atom.relation.clone(),
                relation_arity: rel.arity(),
                atom_arity: atom.terms.len(),
            });
        }
    }

    let schema = Schema::new(cq.head().iter().cloned())?;
    let mut out = Relation::new_in(schema, db.dictionary());
    let mut binding: FxHashMap<Symbol, Value> = FxHashMap::default();
    search(cq, db, 0, &mut binding, &mut out)?;
    out.sort_dedup();
    Ok(out)
}

fn search(
    cq: &ConjunctiveQuery,
    db: &Database,
    atom_idx: usize,
    binding: &mut FxHashMap<Symbol, Value>,
    out: &mut Relation,
) -> Result<()> {
    if atom_idx == cq.body().len() {
        let row: Vec<Value> = cq.head().iter().map(|v| binding[v].clone()).collect();
        out.push_row(row)?;
        return Ok(());
    }
    let atom = &cq.body()[atom_idx];
    let rel = db.relation(&atom.relation)?;
    'rows: for row in rel.rows() {
        // Check consistency and collect new bindings.
        let mut added: Vec<Symbol> = Vec::new();
        for (term, value) in atom.terms.iter().zip(row.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        undo(binding, &added);
                        continue 'rows;
                    }
                }
                Term::Var(v) => match binding.get(v) {
                    Some(bound) => {
                        if bound != value {
                            undo(binding, &added);
                            continue 'rows;
                        }
                    }
                    None => {
                        binding.insert(v.clone(), value.clone());
                        added.push(v.clone());
                    }
                },
            }
        }
        search(cq, db, atom_idx + 1, binding, out)?;
        undo(binding, &added);
    }
    Ok(())
}

fn undo(binding: &mut FxHashMap<Symbol, Value>, added: &[Symbol]) {
    for v in added {
        binding.remove(v);
    }
}

/// Evaluates a UCQ as the set union of its disjuncts' answers.
pub fn naive_eval_union(ucq: &UnionQuery, db: &Database) -> Result<Relation> {
    let schema = Schema::new(ucq.head().iter().cloned())?;
    let mut out = Relation::new_in(schema, db.dictionary());
    for d in ucq.disjuncts() {
        let part = naive_eval(d, db)?;
        for row in part.rows() {
            out.push_row_slice(row)?;
        }
    }
    out.sort_dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;

    fn int_rel(attrs: &[&str], rows: &[&[i64]]) -> Relation {
        Relation::from_rows(
            Schema::new(attrs.iter().copied()).unwrap(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    fn db2() -> Database {
        let mut db = Database::new();
        db.add_relation("R", int_rel(&["a", "b"], &[&[1, 2], &[1, 3], &[2, 3]]))
            .unwrap();
        db.add_relation("S", int_rel(&["a", "b"], &[&[2, 5], &[3, 5], &[3, 6]]))
            .unwrap();
        db
    }

    #[test]
    fn path_join() {
        let q = ConjunctiveQuery::new(
            "Q",
            ["x", "y", "z"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        )
        .unwrap();
        let ans = naive_eval(&q, &db2()).unwrap();
        let rows: Vec<Vec<i64>> = ans
            .rows()
            .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![1, 2, 5],
                vec![1, 3, 5],
                vec![1, 3, 6],
                vec![2, 3, 5],
                vec![2, 3, 6],
            ]
        );
    }

    #[test]
    fn projection_dedups() {
        let q = ConjunctiveQuery::new(
            "Q",
            ["x"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        )
        .unwrap();
        let ans = naive_eval(&q, &db2()).unwrap();
        assert_eq!(ans.len(), 2); // x ∈ {1, 2}
    }

    #[test]
    fn constants_select() {
        let q = ConjunctiveQuery::new(
            "Q",
            ["x"],
            vec![Atom::with_terms(
                "R",
                vec![Term::var("x"), Term::Const(Value::Int(3))],
            )],
        )
        .unwrap();
        let ans = naive_eval(&q, &db2()).unwrap();
        assert_eq!(ans.len(), 2); // (1,3) and (2,3)
    }

    #[test]
    fn repeated_vars_filter() {
        let mut db = Database::new();
        db.add_relation("R", int_rel(&["a", "b"], &[&[1, 1], &[1, 2], &[3, 3]]))
            .unwrap();
        let q = ConjunctiveQuery::new(
            "Q",
            ["x"],
            vec![Atom::with_terms("R", vec![Term::var("x"), Term::var("x")])],
        )
        .unwrap();
        let ans = naive_eval(&q, &db).unwrap();
        assert_eq!(ans.len(), 2); // x ∈ {1, 3}
    }

    #[test]
    fn self_join_uses_same_relation_twice() {
        let mut db = Database::new();
        db.add_relation("E", int_rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 4]]))
            .unwrap();
        // Two-step paths.
        let q = ConjunctiveQuery::new(
            "Q",
            ["x", "z"],
            vec![Atom::new("E", ["x", "y"]), Atom::new("E", ["y", "z"])],
        )
        .unwrap();
        let ans = naive_eval(&q, &db).unwrap();
        assert_eq!(ans.len(), 2); // 1→3, 2→4
    }

    #[test]
    fn empty_result_when_no_match() {
        let q = ConjunctiveQuery::new(
            "Q",
            ["x"],
            vec![Atom::with_terms(
                "R",
                vec![Term::var("x"), Term::Const(Value::Int(99))],
            )],
        )
        .unwrap();
        let ans = naive_eval(&q, &db2()).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn arity_mismatch_detected() {
        let q = ConjunctiveQuery::new("Q", ["x"], vec![Atom::new("R", ["x"])]).unwrap();
        assert!(matches!(
            naive_eval(&q, &db2()),
            Err(QueryError::AtomArityMismatch { .. })
        ));
    }

    #[test]
    fn union_is_set_union() {
        let q1 = ConjunctiveQuery::new("Q1", ["x", "y"], vec![Atom::new("R", ["x", "y"])]).unwrap();
        let q2 = ConjunctiveQuery::new("Q2", ["x", "y"], vec![Atom::new("S", ["x", "y"])]).unwrap();
        let u = UnionQuery::new(vec![q1, q2]).unwrap();
        let ans = naive_eval_union(&u, &db2()).unwrap();
        assert_eq!(ans.len(), 6); // 3 + 3, disjoint
    }

    #[test]
    fn union_dedups_shared_answers() {
        let mut db = Database::new();
        db.add_relation("R", int_rel(&["a"], &[&[1], &[2]]))
            .unwrap();
        db.add_relation("S", int_rel(&["a"], &[&[2], &[3]]))
            .unwrap();
        let q1 = ConjunctiveQuery::new("Q1", ["x"], vec![Atom::new("R", ["x"])]).unwrap();
        let q2 = ConjunctiveQuery::new("Q2", ["x"], vec![Atom::new("S", ["x"])]).unwrap();
        let u = UnionQuery::new(vec![q1, q2]).unwrap();
        let ans = naive_eval_union(&u, &db).unwrap();
        assert_eq!(ans.len(), 3);
    }
}
