//! Abstract syntax for conjunctive queries and their unions.

use crate::error::QueryError;
use crate::Result;
use rae_data::{Symbol, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A term in an atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A query variable.
    Var(Symbol),
    /// A constant value (implicit selection).
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<Symbol>) -> Self {
        Term::Var(name.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&Symbol> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Int(i)) => write!(f, "{i}"),
            Term::Const(Value::Str(s)) => write!(f, "{:?}", s.as_str()),
        }
    }
}

/// A body atom `R(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation symbol.
    pub relation: Symbol,
    /// The terms, in relation-column order.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom over variables only.
    pub fn new(
        relation: impl Into<Symbol>,
        vars: impl IntoIterator<Item = impl Into<Symbol>>,
    ) -> Self {
        Atom {
            relation: relation.into(),
            terms: vars.into_iter().map(|v| Term::Var(v.into())).collect(),
        }
    }

    /// Builds an atom from arbitrary terms.
    pub fn with_terms(relation: impl Into<Symbol>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Distinct variables of the atom, in first-appearance order.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Distinct variables as a sorted set.
    pub fn var_set(&self) -> BTreeSet<Symbol> {
        self.terms
            .iter()
            .filter_map(Term::as_var)
            .cloned()
            .collect()
    }

    /// Whether the atom contains any constant terms.
    pub fn has_constants(&self) -> bool {
        self.terms.iter().any(|t| matches!(t, Term::Const(_)))
    }

    /// Whether some variable occurs in more than one position.
    pub fn has_repeated_vars(&self) -> bool {
        let vars: Vec<&Symbol> = self.terms.iter().filter_map(Term::as_var).collect();
        let set: BTreeSet<&Symbol> = vars.iter().copied().collect();
        set.len() != vars.len()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A conjunctive query `Q(x⃗) :- R1(t⃗1), …, Rn(t⃗n)`.
///
/// Head variables must be distinct and *safe* (each occurs in the body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    name: Symbol,
    head: Vec<Symbol>,
    body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Builds and validates a CQ.
    pub fn new(
        name: impl Into<Symbol>,
        head: impl IntoIterator<Item = impl Into<Symbol>>,
        body: Vec<Atom>,
    ) -> Result<Self> {
        let cq = ConjunctiveQuery {
            name: name.into(),
            head: head.into_iter().map(Into::into).collect(),
            body,
        };
        cq.validate()?;
        Ok(cq)
    }

    fn validate(&self) -> Result<()> {
        if self.body.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        for (i, v) in self.head.iter().enumerate() {
            if self.head[..i].contains(v) {
                return Err(QueryError::DuplicateHeadVariable(v.clone()));
            }
        }
        let body_vars = self.var_set();
        for v in &self.head {
            if !body_vars.contains(v) {
                return Err(QueryError::UnsafeHeadVariable(v.clone()));
            }
        }
        Ok(())
    }

    /// The query's name.
    pub fn name(&self) -> &Symbol {
        &self.name
    }

    /// The head (free) variables, in output order.
    pub fn head(&self) -> &[Symbol] {
        &self.head
    }

    /// The body atoms.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// All body variables, in first-appearance order.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for atom in &self.body {
            for v in atom.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// All body variables as a sorted set.
    pub fn var_set(&self) -> BTreeSet<Symbol> {
        self.body.iter().flat_map(|a| a.var_set()).collect()
    }

    /// The head variables as a sorted set.
    pub fn head_set(&self) -> BTreeSet<Symbol> {
        self.head.iter().cloned().collect()
    }

    /// The existential (non-head) variables as a sorted set.
    pub fn existential_vars(&self) -> BTreeSet<Symbol> {
        let head = self.head_set();
        self.var_set()
            .into_iter()
            .filter(|v| !head.contains(v))
            .collect()
    }

    /// Whether the query is a full join (no existential variables).
    pub fn is_full(&self) -> bool {
        self.existential_vars().is_empty()
    }

    /// Whether two distinct atoms share a relation symbol (Section 2).
    pub fn has_self_join(&self) -> bool {
        for (i, a) in self.body.iter().enumerate() {
            if self.body[i + 1..].iter().any(|b| b.relation == a.relation) {
                return true;
            }
        }
        false
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A union of CQs `Q1(x⃗) ∪ … ∪ Qm(x⃗)`.
///
/// All disjuncts must share the same head-variable sequence, matching the
/// paper's definition (answers are tuples over a single `x⃗`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionQuery {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Builds and validates a UCQ.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Result<Self> {
        let first = disjuncts.first().ok_or(QueryError::EmptyUnion)?;
        let expected = first.head().to_vec();
        for d in &disjuncts[1..] {
            if d.head() != expected.as_slice() {
                return Err(QueryError::MismatchedUnionHeads {
                    expected,
                    actual: d.head().to_vec(),
                });
            }
        }
        Ok(UnionQuery { disjuncts })
    }

    /// The disjunct CQs.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Number of disjuncts (the paper's `m`).
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Whether the union is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// The shared head variables.
    pub fn head(&self) -> &[Symbol] {
        self.disjuncts[0].head()
    }

    /// The intersection CQ `⋂_{i∈I} Q_i` as a single CQ: the conjunction of
    /// all bodies with existential variables renamed apart (Section 5.2).
    ///
    /// `indices` must be non-empty and in range.
    pub fn intersection_cq(&self, indices: &[usize]) -> Result<ConjunctiveQuery> {
        assert!(!indices.is_empty(), "intersection over an empty index set");
        let head: Vec<Symbol> = self.head().to_vec();
        let head_set: BTreeSet<Symbol> = head.iter().cloned().collect();
        let mut body = Vec::new();
        let mut name = String::from("Cap");
        for &i in indices {
            let d = &self.disjuncts[i];
            name.push('_');
            name.push_str(d.name().as_str());
            for atom in d.body() {
                // Rename existential variables apart per disjunct.
                let terms = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) if !head_set.contains(v) => {
                            Term::Var(Symbol::new(format!("{v}@{i}")))
                        }
                        other => other.clone(),
                    })
                    .collect();
                body.push(Atom::with_terms(atom.relation.clone(), terms));
            }
        }
        ConjunctiveQuery::new(name, head, body)
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(head: &[&str], body: Vec<Atom>) -> Result<ConjunctiveQuery> {
        ConjunctiveQuery::new("Q", head.iter().copied(), body)
    }

    #[test]
    fn safety_is_enforced() {
        let err = q(&["x", "z"], vec![Atom::new("R", ["x", "y"])]).unwrap_err();
        assert_eq!(err, QueryError::UnsafeHeadVariable(Symbol::new("z")));
    }

    #[test]
    fn duplicate_head_vars_rejected() {
        let err = q(&["x", "x"], vec![Atom::new("R", ["x"])]).unwrap_err();
        assert_eq!(err, QueryError::DuplicateHeadVariable(Symbol::new("x")));
    }

    #[test]
    fn empty_body_rejected() {
        let err = q(&[], vec![]).unwrap_err();
        assert_eq!(err, QueryError::EmptyBody);
    }

    #[test]
    fn vars_in_first_appearance_order() {
        let cq = q(
            &["x"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        )
        .unwrap();
        assert_eq!(
            cq.vars(),
            vec![Symbol::new("x"), Symbol::new("y"), Symbol::new("z")]
        );
        assert_eq!(
            cq.existential_vars().into_iter().collect::<Vec<_>>(),
            vec![Symbol::new("y"), Symbol::new("z")]
        );
        assert!(!cq.is_full());
    }

    #[test]
    fn full_join_detection() {
        let cq = q(&["x", "y"], vec![Atom::new("R", ["x", "y"])]).unwrap();
        assert!(cq.is_full());
    }

    #[test]
    fn self_join_detection() {
        let cq = q(
            &["x"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("R", ["y", "x"])],
        )
        .unwrap();
        assert!(cq.has_self_join());
        let cq2 = q(
            &["x"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "x"])],
        )
        .unwrap();
        assert!(!cq2.has_self_join());
    }

    #[test]
    fn atom_helpers() {
        let a = Atom::with_terms(
            "R",
            vec![
                Term::var("x"),
                Term::Const(Value::Int(3)),
                Term::var("x"),
                Term::var("y"),
            ],
        );
        assert!(a.has_constants());
        assert!(a.has_repeated_vars());
        assert_eq!(a.vars(), vec![Symbol::new("x"), Symbol::new("y")]);
        assert_eq!(a.to_string(), "R(x, 3, x, y)");
    }

    #[test]
    fn union_requires_matching_heads() {
        let q1 = ConjunctiveQuery::new("Q1", ["x"], vec![Atom::new("R", ["x"])]).unwrap();
        let q2 = ConjunctiveQuery::new("Q2", ["y"], vec![Atom::new("S", ["y"])]).unwrap();
        assert!(matches!(
            UnionQuery::new(vec![q1.clone(), q2]),
            Err(QueryError::MismatchedUnionHeads { .. })
        ));
        let q3 = ConjunctiveQuery::new("Q3", ["x"], vec![Atom::new("S", ["x"])]).unwrap();
        let u = UnionQuery::new(vec![q1, q3]).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.head(), &[Symbol::new("x")]);
    }

    #[test]
    fn union_rejects_empty() {
        assert_eq!(UnionQuery::new(vec![]).unwrap_err(), QueryError::EmptyUnion);
    }

    #[test]
    fn intersection_cq_renames_existentials_apart() {
        let q1 = ConjunctiveQuery::new("Q1", ["x"], vec![Atom::new("R", ["x", "y"])]).unwrap();
        let q2 = ConjunctiveQuery::new("Q2", ["x"], vec![Atom::new("S", ["x", "y"])]).unwrap();
        let u = UnionQuery::new(vec![q1, q2]).unwrap();
        let cap = u.intersection_cq(&[0, 1]).unwrap();
        assert_eq!(cap.head(), &[Symbol::new("x")]);
        assert_eq!(cap.body().len(), 2);
        // The two y's must now be distinct variables.
        let vars = cap.var_set();
        assert!(vars.contains(&Symbol::new("y@0")));
        assert!(vars.contains(&Symbol::new("y@1")));
    }

    #[test]
    fn display_roundtrip_shape() {
        let cq = q(
            &["x", "y"],
            vec![
                Atom::new("R", ["x", "z"]),
                Atom::with_terms(
                    "S",
                    vec![Term::var("z"), Term::var("y"), Value::Int(7).into()],
                ),
            ],
        )
        .unwrap();
        assert_eq!(cq.to_string(), "Q(x, y) :- R(x, z), S(z, y, 7)");
    }
}
