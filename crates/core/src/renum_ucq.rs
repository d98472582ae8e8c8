//! Algorithm 5 / Theorem 5.4 — REnum(UCQ): random-order enumeration of a
//! union of free-connex CQs with expected logarithmic delay.
//!
//! Every iteration samples a member CQ weighted by its remaining answer
//! count, samples an element of that member uniformly, determines the
//! element's *providers* (members still containing it) and its *owner* (the
//! provider with the least index), deletes the element from the non-owners,
//! and emits it only when it was reached through its owner — otherwise the
//! iteration *rejects*. Each element is rejected at most once overall, which
//! gives the amortized-constant and expected-constant iteration bounds of
//! Lemma 5.2.

// Sanctioned panics: each `expect` names an Algorithm 5 invariant (provenance indexes point
// at live members); violation is a bug, not a recoverable state.
#![allow(clippy::expect_used)]

use crate::delset::DeletableSet;
use crate::error::CoreError;
use crate::index::CqIndex;
use crate::ordered::{OrderedCqIndex, OrderedEnumeration};
use crate::scratch::AccessScratch;
use crate::weight::Weight;
use crate::Result;
use rae_data::{Database, Symbol, Value};
use rae_query::UnionQuery;
use rand::Rng;
use std::cmp::Ordering;
use std::sync::Arc;

/// One step of Algorithm 5: either an emitted answer or a rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UcqEvent {
    /// A fresh answer, uniform among those not yet emitted.
    Answer(Vec<Value>),
    /// A rejected iteration (the element was reached via a non-owner; it has
    /// now been deleted from all non-owners and will not be rejected again).
    Rejected,
}

/// Random-order enumeration of a union of free-connex CQs.
///
/// The iterator interface yields answers only; use
/// [`UcqShuffle::next_event`] to observe rejections (the Figure 5
/// experiment measures the time they consume).
#[derive(Debug)]
pub struct UcqShuffle<R: Rng> {
    members: Vec<Member>,
    rng: R,
    rejections: u64,
    emitted: u64,
    /// Lines 6–7 of Algorithm 5. Disabling turns the "each answer rejected
    /// at most once" amortization off — kept as an ablation knob for the
    /// benchmark harness; always `true` in normal use.
    delete_on_rejection: bool,
    /// Scratch for producing the sampled element (holds the element between
    /// access and emission).
    element_scratch: AccessScratch,
    /// Scratch for the providers' inverted-access probes.
    probe_scratch: AccessScratch,
    /// Reused provider list `(member, index-in-member)`.
    providers: Vec<(usize, Weight)>,
}

#[derive(Debug)]
struct Member {
    index: Arc<CqIndex>,
    set: DeletableSet,
}

impl<R: Rng> UcqShuffle<R> {
    /// Builds the per-disjunct indexes (with inverted access) and starts the
    /// enumeration. Linear preprocessing in `|D|` per disjunct.
    pub fn build(ucq: &UnionQuery, db: &Database, rng: R) -> Result<Self> {
        let mut indexes = Vec::with_capacity(ucq.len());
        for d in ucq.disjuncts() {
            let idx = CqIndex::build(d, db)?;
            idx.prepare_inverted_access();
            indexes.push(Arc::new(idx));
        }
        Ok(Self::from_indexes(indexes, rng))
    }

    /// Starts the enumeration over pre-built member indexes. All members
    /// must share the same head arity (guaranteed when they come from one
    /// [`UnionQuery`]).
    pub fn from_indexes(indexes: Vec<Arc<CqIndex>>, rng: R) -> Self {
        let members = indexes
            .into_iter()
            .map(|index| {
                let set = DeletableSet::new(index.count());
                Member { index, set }
            })
            .collect();
        UcqShuffle {
            members,
            rng,
            rejections: 0,
            emitted: 0,
            delete_on_rejection: true,
            element_scratch: AccessScratch::new(),
            probe_scratch: AccessScratch::new(),
            providers: Vec::new(),
        }
    }

    /// Ablation knob: disables the deletion of rejected elements from
    /// non-owner members (Algorithm 5, lines 6–7). The permutation stays
    /// uniform, but shared answers can then be rejected repeatedly, losing
    /// the amortized-constant guarantee of Lemma 5.2.
    pub fn with_rejection_deletion(mut self, enabled: bool) -> Self {
        self.delete_on_rejection = enabled;
        self
    }

    /// Total remaining (not yet emitted) indices across members, counting an
    /// answer shared by `k` members up to `k` times until its duplicates are
    /// discovered and deleted.
    pub fn remaining_indices(&self) -> Weight {
        self.members.iter().map(|m| m.set.remaining()).sum()
    }

    /// Number of rejected iterations so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Number of answers emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Runs one iteration of Algorithm 5.
    ///
    /// Returns `None` once every answer has been emitted.
    pub fn next_event(&mut self) -> Option<UcqEvent> {
        let total: Weight = self.remaining_indices();
        if total == 0 {
            return None;
        }

        // Line 2: choose a member weighted by its remaining count.
        let mut pick = self.rng.gen_range(0..total);
        let mut chosen = 0usize;
        for (i, m) in self.members.iter().enumerate() {
            let c = m.set.remaining();
            if pick < c {
                chosen = i;
                break;
            }
            pick -= c;
        }

        // Line 3: sample an element of the chosen member uniformly. The
        // element lives in `element_scratch` — rejected iterations never
        // materialize an owned answer.
        let chosen_idx = self.members[chosen]
            .set
            .sample(&mut self.rng)
            .expect("chosen member is non-empty");
        self.members[chosen]
            .index
            .access_into(chosen_idx, &mut self.element_scratch)
            .expect("sampled index is in range");

        // Line 4: providers — members that still contain the element.
        self.providers.clear();
        for (i, m) in self.members.iter().enumerate() {
            if let Some(idx) = m
                .index
                .inverted_access_of(self.element_scratch.answer(), &mut self.probe_scratch)
            {
                if m.set.contains(idx) {
                    self.providers.push((i, idx));
                }
            }
        }
        debug_assert!(self.providers.iter().any(|&(i, _)| i == chosen));

        // Line 5: the owner is the provider with the minimum index.
        let &(owner, owner_idx) = self.providers.first().expect("chosen is a provider");

        // Lines 6–7: delete from all non-owners.
        if self.delete_on_rejection || owner == chosen {
            for p in 1..self.providers.len() {
                let (i, idx) = self.providers[p];
                debug_assert_ne!(i, owner);
                self.members[i].set.delete(idx);
            }
        }

        // Lines 8–9: emit only when reached through the owner.
        if owner == chosen {
            self.members[owner].set.delete(owner_idx);
            self.emitted += 1;
            Some(UcqEvent::Answer(self.element_scratch.answer().to_vec()))
        } else {
            self.rejections += 1;
            Some(UcqEvent::Rejected)
        }
    }
}

impl<R: Rng> Iterator for UcqShuffle<R> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        loop {
            match self.next_event()? {
                UcqEvent::Answer(a) => return Some(a),
                UcqEvent::Rejected => continue,
            }
        }
    }
}

/// One member stream of an ordered union merge.
#[derive(Debug)]
struct MergeMember<'a> {
    window: OrderedEnumeration<'a>,
    /// The member's next (not yet emitted) answer; reused across steps.
    current: Vec<Value>,
    exhausted: bool,
}

impl MergeMember<'_> {
    fn advance(&mut self) {
        match self.window.next_ref() {
            Some(ans) => {
                self.current.clear();
                self.current.extend(ans.iter().cloned());
            }
            None => self.exhausted = true,
        }
    }
}

/// Validates that every member shares one head layout **and** one realized
/// variable order — the precondition of every positional union structure
/// (the k-way merge and [`crate::RankedUcq`]'s rank algebra both compare
/// and emit tuples positionally, so permuted heads would silently mix
/// layouts). Returns the shared order-significant head positions; the
/// unified rejection is [`CoreError::MismatchedOrders`].
pub(crate) fn ensure_shared_layout<'a>(
    members: impl IntoIterator<Item = &'a OrderedCqIndex>,
) -> Result<Vec<usize>> {
    let mut first: Option<&OrderedCqIndex> = None;
    for index in members {
        match first {
            None => first = Some(index),
            Some(f) if f.order() != index.order() || f.head() != index.head() => {
                let layout = |i: &OrderedCqIndex| {
                    i.head()
                        .iter()
                        .chain(i.order())
                        .map(Symbol::to_string)
                        .collect::<Vec<_>>()
                };
                return Err(CoreError::MismatchedOrders {
                    expected: layout(f),
                    got: layout(index),
                });
            }
            Some(_) => {}
        }
    }
    Ok(first
        .map(|f| f.order_to_head().to_vec())
        .unwrap_or_default())
}

/// A duplicate-eliminating k-way merge over member streams that share one
/// lexicographic order — the ordered scan of [`crate::RankedUcq`]. Delay is
/// O(m) per answer, constant in data complexity, and the merge buffers are
/// reused, so steady-state production via
/// [`OrderedUnionEnumeration::next_ref`] allocates nothing.
#[derive(Debug)]
pub struct OrderedUnionEnumeration<'a> {
    members: Vec<MergeMember<'a>>,
    /// Order-significant head positions (shared by all members).
    cmp_positions: Vec<usize>,
    /// The answer being emitted (backs [`OrderedUnionEnumeration::next_ref`]).
    answer: Vec<Value>,
}

impl<'a> OrderedUnionEnumeration<'a> {
    /// Merges the full streams of `members`.
    ///
    /// Errors with [`CoreError::MismatchedOrders`] unless all members share
    /// one variable order.
    pub fn from_members(
        members: impl IntoIterator<Item = &'a OrderedCqIndex>,
    ) -> Result<OrderedUnionEnumeration<'a>> {
        Self::from_windows(members.into_iter().map(|m| (m, m.enumerate())).collect())
    }

    /// Merges caller-chosen rank windows, one per member (used for prefix
    /// scans and union rank windows; the windows must cover
    /// order-contiguous, aligned ranges for the merged stream to be
    /// meaningful).
    pub(crate) fn from_windows(
        windows: Vec<(&'a OrderedCqIndex, OrderedEnumeration<'a>)>,
    ) -> Result<OrderedUnionEnumeration<'a>> {
        let cmp_positions = ensure_shared_layout(windows.iter().map(|&(index, _)| index))?;
        let mut members: Vec<MergeMember<'a>> = windows
            .into_iter()
            .map(|(_, window)| MergeMember {
                window,
                current: Vec::new(),
                exhausted: false,
            })
            .collect();
        for m in &mut members {
            m.advance();
        }
        Ok(OrderedUnionEnumeration {
            members,
            cmp_positions,
            answer: Vec::new(),
        })
    }

    fn cmp_key(&self, a: &[Value], b: &[Value]) -> Ordering {
        for &p in &self.cmp_positions {
            match a[p].cmp(&b[p]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// The next union answer (smallest unemitted under the shared order) as
    /// a borrow of the merge buffer — zero allocations in steady state.
    pub fn next_ref(&mut self) -> Option<&[Value]> {
        // The smallest member head becomes the answer...
        let mut best: Option<usize> = None;
        for (i, m) in self.members.iter().enumerate() {
            if m.exhausted {
                continue;
            }
            best = match best {
                Some(b)
                    if self.cmp_key(&self.members[b].current, &m.current) != Ordering::Greater =>
                {
                    Some(b)
                }
                _ => Some(i),
            };
        }
        let best = best?;
        self.answer.clear();
        let (answer, members) = (&mut self.answer, &mut self.members);
        answer.extend(members[best].current.iter().cloned());
        // ... and every member holding it advances (duplicate elimination;
        // the order covers all free variables, so order-key equality is
        // tuple equality).
        for i in 0..self.members.len() {
            if !self.members[i].exhausted
                && self.cmp_key(&self.members[i].current, &self.answer) == Ordering::Equal
            {
                self.members[i].advance();
            }
        }
        Some(&self.answer)
    }
}

impl Iterator for OrderedUnionEnumeration<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        self.next_ref().map(<[Value]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use crate::RankedUcq;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn overlapping_db() -> Database {
        db_of([
            (
                "R",
                rel_int(&["a", "b"], &[&[1, 1], &[1, 2], &[2, 1], &[3, 3]]),
            ),
            (
                "S",
                rel_int(&["a", "b"], &[&[1, 1], &[2, 1], &[4, 4], &[5, 1]]),
            ),
        ])
    }

    fn union() -> UnionQuery {
        ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).")
    }

    #[test]
    fn emits_union_without_duplicates() {
        let db = overlapping_db();
        let u = union();
        let shuffle = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(3)).unwrap();
        let mut got: Vec<Vec<Value>> = shuffle.collect();
        let expected = naive_union(&u, &db);
        assert_eq!(got.len(), expected.len());
        got.sort();
        got.dedup();
        assert_eq!(got.len(), expected.len(), "duplicates emitted");
        for row in expected.rows() {
            assert!(got.iter().any(|g| g.as_slice() == row));
        }
    }

    #[test]
    fn each_shared_answer_rejected_at_most_once() {
        let db = overlapping_db();
        let u = union();
        let mut shuffle = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(17)).unwrap();
        let mut events = 0usize;
        while shuffle.next_event().is_some() {
            events += 1;
        }
        // Shared answers: (1,1) and (2,1) ⇒ at most 2 rejections; total
        // iterations ≤ answers + shared.
        assert!(shuffle.rejections() <= 2, "too many rejections");
        assert_eq!(shuffle.emitted(), 6);
        assert!(events <= 8);
    }

    #[test]
    fn disjoint_union_never_rejects() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2]]));
        add(&mut db, "S", rel_int(&["a"], &[&[3], &[4]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let mut shuffle = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(0)).unwrap();
        while shuffle.next_event().is_some() {}
        assert_eq!(shuffle.rejections(), 0);
        assert_eq!(shuffle.emitted(), 4);
    }

    #[test]
    fn identical_members_emit_once() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2], &[3]]));
        add(&mut db, "S", rel_int(&["a"], &[&[1], &[2], &[3]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let got: Vec<Vec<Value>> = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(5))
            .unwrap()
            .collect();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn permutation_is_uniform_over_answers() {
        // Q1 ∪ Q2 with 2+2 disjoint answers; the first emitted answer must be
        // uniform over all 4.
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2]]));
        add(&mut db, "S", rel_int(&["a"], &[&[3], &[4]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        let mut seed_rng = StdRng::seed_from_u64(1234);
        let trials = 4000usize;
        for _ in 0..trials {
            let seed = rand::Rng::gen::<u64>(&mut seed_rng);
            let mut s = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(seed)).unwrap();
            let first = s.next().unwrap();
            *counts.entry(first[0].as_int().unwrap()).or_insert(0) += 1;
        }
        for (v, c) in counts {
            assert!(
                (800..=1200).contains(&c),
                "answer {v} first {c} times (expected ≈1000)"
            );
        }
    }

    #[test]
    fn shared_answers_not_overrepresented() {
        // (1) is in both members, (2) and (3) in one each. A biased sampler
        // would emit (1) first about half the time; the correct algorithm
        // emits each answer first with probability 1/3.
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2]]));
        add(&mut db, "S", rel_int(&["a"], &[&[1], &[3]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        let mut seed_rng = StdRng::seed_from_u64(77);
        let trials = 6000usize;
        for _ in 0..trials {
            let seed = rand::Rng::gen::<u64>(&mut seed_rng);
            let mut s = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(seed)).unwrap();
            let first = s.next().unwrap();
            *counts.entry(first[0].as_int().unwrap()).or_insert(0) += 1;
        }
        let expected = trials as f64 / 3.0;
        for (v, c) in counts {
            let ratio = c as f64 / expected;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "answer {v} first {c} times (expected ≈{expected:.0})"
            );
        }
    }

    #[test]
    fn three_way_union_matches_naive() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[&[1, 1], &[2, 2]]));
        add(&mut db, "S", rel_int(&["a", "b"], &[&[2, 2], &[3, 3]]));
        add(
            &mut db,
            "T",
            rel_int(&["a", "b"], &[&[3, 3], &[1, 1], &[4, 4]]),
        );
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y). Q3(x, y) :- T(x, y).");
        let expected = naive_union(&u, &db);
        let mut got: Vec<Vec<Value>> = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(2))
            .unwrap()
            .collect();
        got.sort();
        got.dedup();
        assert_eq!(got.len(), expected.len());
    }

    #[test]
    fn ablation_disabling_deletion_stays_correct_but_rejects_more() {
        let db = overlapping_db();
        let u = union();
        let expected = naive_union(&u, &db);

        let mut with_del = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(3)).unwrap();
        let mut without_del = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(3))
            .unwrap()
            .with_rejection_deletion(false);
        let mut got = Vec::new();
        while let Some(ev) = without_del.next_event() {
            if let UcqEvent::Answer(a) = ev {
                got.push(a);
            }
        }
        while with_del.next_event().is_some() {}

        got.sort();
        got.dedup();
        assert_eq!(got.len(), expected.len(), "ablation must stay correct");
        // The deletion rule bounds rejections by the number of shared
        // answers; without it rejections can only be ≥.
        assert!(without_del.rejections() >= with_del.rejections());
    }

    fn sorted_union(u: &UnionQuery, db: &Database, order: &[&str]) -> Vec<Vec<Value>> {
        let expected = naive_union(u, db);
        let head = u.head().to_vec();
        let positions: Vec<usize> = order
            .iter()
            .map(|v| head.iter().position(|h| h.as_str() == *v).unwrap())
            .collect();
        let mut rows: Vec<Vec<Value>> = expected.rows().map(<[Value]>::to_vec).collect();
        rows.sort_by(|a, b| {
            positions
                .iter()
                .map(|&p| a[p].cmp(&b[p]))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        rows
    }

    #[test]
    fn ordered_union_merge_matches_naive_sorted() {
        let db = overlapping_db();
        let u = union();
        for order in [&["x", "y"], &["y", "x"]] {
            let syms: Vec<Symbol> = order.iter().map(Symbol::new).collect();
            let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
            let got: Vec<Vec<Value>> = ranked.enumerate().collect();
            assert_eq!(got, sorted_union(&u, &db, order), "order {order:?}");
        }
    }

    #[test]
    fn ordered_union_prefix_scan_matches_filtered_naive() {
        let db = overlapping_db();
        let u = union();
        let syms: Vec<Symbol> = ["y", "x"].iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        let all = sorted_union(&u, &db, &["y", "x"]);
        // Prefix y = 1: answers whose second head position (y) is 1.
        let got: Vec<Vec<Value>> = ranked.enumerate_prefix(&[Value::Int(1)]).unwrap().collect();
        let expected: Vec<Vec<Value>> = all
            .iter()
            .filter(|a| a[1] == Value::Int(1))
            .cloned()
            .collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
        // Empty prefix = everything; missing value = nothing.
        assert_eq!(ranked.enumerate_prefix(&[]).unwrap().count(), all.len());
        assert_eq!(
            ranked.enumerate_prefix(&[Value::Int(999)]).unwrap().count(),
            0
        );
    }

    #[test]
    fn ordered_union_next_ref_reuses_buffers() {
        let db = overlapping_db();
        let u = union();
        let syms: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        let mut merge = ranked.enumerate();
        let mut seen = 0usize;
        let mut prev: Option<Vec<Value>> = None;
        while let Some(ans) = merge.next_ref() {
            if let Some(p) = &prev {
                assert!(p.as_slice() < ans, "merge must be strictly increasing");
            }
            prev = Some(ans.to_vec());
            seen += 1;
        }
        assert_eq!(seen, naive_union(&u, &db).len());
    }

    #[test]
    fn mismatched_member_orders_are_rejected() {
        let db = overlapping_db();
        let u = union();
        let xy: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let yx: Vec<Symbol> = ["y", "x"].iter().map(Symbol::new).collect();
        let a = OrderedCqIndex::build(&u.disjuncts()[0], &db, &xy).unwrap();
        let b = OrderedCqIndex::build(&u.disjuncts()[1], &db, &yx).unwrap();
        assert!(matches!(
            OrderedUnionEnumeration::from_members([&a, &b]),
            Err(CoreError::MismatchedOrders { .. })
        ));
    }

    #[test]
    fn mismatched_member_heads_are_rejected() {
        // Same variable order, permuted heads: the merge compares tuples
        // positionally, so this must be refused, not silently mixed.
        let db = overlapping_db();
        let q_xy = cq("Q(x, y) :- R(x, y)");
        let q_yx = cq("Q(y, x) :- S(x, y)");
        let order: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let a = OrderedCqIndex::build(&q_xy, &db, &order).unwrap();
        let b = OrderedCqIndex::build(&q_yx, &db, &order).unwrap();
        assert_ne!(a.head(), b.head());
        assert_eq!(a.order(), b.order());
        assert!(matches!(
            OrderedUnionEnumeration::from_members([&a, &b]),
            Err(CoreError::MismatchedOrders { .. })
        ));
    }

    #[test]
    fn empty_union_enumerates_nothing() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[]));
        add(&mut db, "S", rel_int(&["a"], &[]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let mut s = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(0)).unwrap();
        assert!(s.next_event().is_none());
    }
}
