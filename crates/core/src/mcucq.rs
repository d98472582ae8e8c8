//! Theorem 5.5 — random access for mutually compatible UCQs (mc-UCQs) in
//! O(log² n) access time, via the Durand–Strozecki union trick
//! (Algorithms 6–8).
//!
//! The implemented class is the one the paper's own experiments use
//! (Section 6.1): every CQ in the union reduces to the **same join-tree
//! template** (identical bags and shape), differing only in node relations —
//! e.g. different selections of the same base tables. Over a shared
//! template, the intersection `Q_I = ⋂_{i∈I} Q_i` of full joins equals the
//! full join of the node-wise intersected relations, so the builder
//! materializes one [`CqIndex`] per non-empty `I ⊆ [m]` (2^m − 1 indexes).
//! Because every index sorts its nodes canonically over the same template,
//! all enumeration orders are *compatible* (each is a subsequence of the
//! others restricted to shared answers) — exactly the mc-UCQ requirement.
//!
//! Random access to `S_ℓ ∪ … ∪ S_m` follows Algorithm 7: try `S_ℓ`, and on
//! collision with the suffix union compute the rank `k = |{a_1…a_j} ∩ B|`
//! by inclusion–exclusion over the intersection indexes (Algorithm 8),
//! where each term is a `rank` computed by binary search over
//! `T.access` / `S_ℓ.inverted_access` (the `Largest` routine of the
//! Theorem 5.5 proof, fused with `InvAcc` as in the paper's implementation).

// Sanctioned panics: each `expect` names an Algorithm 6-8 invariant (the full reduction
// guarantees matching child buckets; ranks are dense); violation is a bug,
// not a recoverable state.
#![allow(clippy::expect_used)]

use crate::error::CoreError;
use crate::index::{BuildOptions, CqIndex};
use crate::scratch::AccessScratch;
use crate::shuffle::LazyShuffle;
use crate::weight::Weight;
use crate::Result;
use rae_data::{Database, FxHashSet, Relation, Symbol, Value};
use rae_query::UnionQuery;
use rae_yannakakis::reduce_to_full_acyclic;
use rand::Rng;

/// Maximum number of disjuncts: preprocessing builds `2^m − 1` indexes and
/// access performs `2^m`-term inclusion–exclusion, matching the paper's
/// `O(2^m · t)` bound — `m` is part of the (fixed) query in data complexity.
pub const MAX_DISJUNCTS: usize = 12;

/// How the Algorithm 8 rank terms are computed — an ablation knob for the
/// benchmark harness validating the Theorem 5.5 log² component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankStrategy {
    /// Binary search over the intersection index (O(log²) per term, the
    /// paper's algorithm).
    #[default]
    BinarySearch,
    /// Linear scan over the intersection index (O(|T|·log) per term) — only
    /// for the `ablation-binary` experiment.
    LinearScan,
}

/// The mc-UCQ random-access structure (Theorem 5.5):
/// `RAccess⟨lin, log²⟩` and, via Fisher–Yates, `REnum⟨lin, log²⟩`.
#[derive(Debug)]
pub struct McUcqIndex {
    m: usize,
    head: Vec<Symbol>,
    /// `structs[mask]` = index of `⋂_{i ∈ mask} Q_i`; `mask` ranges over
    /// non-empty subsets of `[m]`; singletons are the member CQs.
    structs: Vec<Option<CqIndex>>,
    /// `cap_ab[ℓ] = |S_ℓ ∩ (S_{ℓ+1} ∪ … ∪ S_{m-1})|`.
    cap_ab: Vec<Weight>,
    /// `suffix_counts[ℓ] = |S_ℓ ∪ … ∪ S_{m-1}|`.
    suffix_counts: Vec<Weight>,
    rank_strategy: RankStrategy,
}

/// The rows of `rel` that `node` of `index` also holds (node-wise set
/// intersection over one plan): `rel`'s values become ranks in the index's
/// table, and a value the table lacks drops the row.
fn node_intersection(rel: &Relation, index: &CqIndex, node: usize) -> Relation {
    let held: FxHashSet<&[u32]> = (0..index.node_len(node) as u32)
        .map(|row| index.node_ranks(node, row))
        .collect();
    let mut ranks: Vec<u32> = Vec::with_capacity(rel.arity());
    let mut out = rel.clone();
    out.retain_rows(|row| {
        ranks.clear();
        row.iter()
            .all(|v| index.values().rank_of(v).map(|r| ranks.push(r)).is_some())
            && held.contains(ranks.as_slice())
    });
    out
}

impl McUcqIndex {
    /// Builds the structure for a union of same-template free-connex CQs.
    ///
    /// Errors with [`CoreError::IncompatibleTemplates`] when the disjuncts do
    /// not reduce to one join-tree shape (the implemented mc-UCQ subclass),
    /// and with [`CoreError::TooManyDisjuncts`] beyond [`MAX_DISJUNCTS`].
    pub fn build(ucq: &UnionQuery, db: &Database) -> Result<Self> {
        // Transactional boundary: panics anywhere in the 2^m-subset build
        // convert to `BuildPanicked` (see `catch_build`).
        crate::error::catch_build("McUcqIndex::build", || Self::build_inner(ucq, db))
    }

    fn build_inner(ucq: &UnionQuery, db: &Database) -> Result<Self> {
        let m = ucq.len();
        if m > MAX_DISJUNCTS {
            return Err(CoreError::TooManyDisjuncts {
                max: MAX_DISJUNCTS,
                got: m,
            });
        }
        let head: Vec<Symbol> = ucq.head().to_vec();

        // Reduce every disjunct; check the shared template.
        let fjs: Vec<_> = ucq
            .disjuncts()
            .iter()
            .map(|d| reduce_to_full_acyclic(d, db))
            .collect::<std::result::Result<_, _>>()?;
        let plan = fjs[0].plan.clone();
        for (i, fj) in fjs.iter().enumerate().skip(1) {
            if !fj.plan.same_shape(&plan) {
                return Err(CoreError::IncompatibleTemplates {
                    first: ucq.disjuncts()[0].name().to_string(),
                    other: ucq.disjuncts()[i].name().to_string(),
                });
            }
        }

        // One index per non-empty subset; relations of `mask` = node-wise
        // intersection of the lowest member with the already-built rest.
        let mut structs: Vec<Option<CqIndex>> = (0..(1usize << m)).map(|_| None).collect();
        for mask in 1..(1usize << m) {
            let lowest = mask.trailing_zeros() as usize;
            let rest = mask & (mask - 1);
            let relations: Vec<Relation> = if rest == 0 {
                fjs[lowest].relations.clone()
            } else {
                let rest_idx = structs[rest].as_ref().expect("built in mask order");
                (0..plan.node_count())
                    .map(|node| node_intersection(&fjs[lowest].relations[node], rest_idx, node))
                    .collect()
            };
            let idx = CqIndex::from_parts_with(
                plan.clone(),
                relations,
                head.clone(),
                BuildOptions::default(),
            )?;
            if mask.count_ones() == 1 {
                // Member indexes serve membership tests and rank lookups at
                // access time; force their lookup tables during
                // preprocessing as the paper's implementation does.
                idx.prepare_inverted_access();
            }
            structs[mask] = Some(idx);
        }

        // Access-time inclusion–exclusion (Algorithm 8) sums subset ranks
        // on the hot path; every term is bounded by its subset's count, so
        // proving here that Σ subset counts fits `u128` makes those sums
        // overflow-free by construction. Extreme synthetic cardinalities
        // surface as a structured capacity error instead of wrapping.
        let over = || crate::error::rank_overflow("inclusion–exclusion sums");
        let mut all: Weight = 0;
        for s in structs.iter().flatten() {
            all = all.checked_add(s.count()).ok_or_else(over)?;
        }

        // |S_ℓ ∩ suffix-union| by inclusion–exclusion; then suffix counts.
        let count_of = |mask: usize| structs[mask].as_ref().expect("built").count();
        let mut cap_ab = vec![0 as Weight; m];
        #[allow(clippy::needless_range_loop)]
        for l in 0..m.saturating_sub(1) {
            let suffix_mask = (((1usize << m) - 1) >> (l + 1)) << (l + 1);
            let (mut plus, mut minus) = (0 as Weight, 0 as Weight);
            let mut sub = suffix_mask;
            while sub != 0 {
                let t = count_of(sub | (1 << l));
                if sub.count_ones() % 2 == 1 {
                    plus = plus.checked_add(t).ok_or_else(over)?;
                } else {
                    minus = minus.checked_add(t).ok_or_else(over)?;
                }
                sub = (sub - 1) & suffix_mask;
            }
            cap_ab[l] = plus.checked_sub(minus).ok_or_else(over)?;
        }

        let mut suffix_counts = vec![0 as Weight; m];
        suffix_counts[m - 1] = count_of(1 << (m - 1));
        for l in (0..m - 1).rev() {
            suffix_counts[l] = count_of(1 << l)
                .checked_add(suffix_counts[l + 1])
                .and_then(|s| s.checked_sub(cap_ab[l]))
                .ok_or_else(over)?;
        }

        Ok(McUcqIndex {
            m,
            head,
            structs,
            cap_ab,
            suffix_counts,
            rank_strategy: RankStrategy::default(),
        })
    }

    /// Selects how Algorithm 8 rank terms are computed (ablation knob; the
    /// default binary search is the paper's algorithm).
    pub fn set_rank_strategy(&mut self, strategy: RankStrategy) {
        self.rank_strategy = strategy;
    }

    #[inline]
    fn member(&self, l: usize) -> &CqIndex {
        self.structs[1 << l].as_ref().expect("member index built")
    }

    /// Number of disjuncts.
    pub fn members(&self) -> usize {
        self.m
    }

    /// The head attributes, in answer order.
    pub fn head(&self) -> &[Symbol] {
        &self.head
    }

    /// The intersection index for a non-empty member subset (testing/bench
    /// introspection).
    pub fn intersection_index(&self, mask: usize) -> Option<&CqIndex> {
        self.structs.get(mask).and_then(Option::as_ref)
    }

    /// `|Q_1(D) ∪ … ∪ Q_m(D)|`, computed during preprocessing — O(1).
    pub fn count(&self) -> Weight {
        self.suffix_counts[0]
    }

    /// Algorithm 7 (iterated): the `j`-th answer of the union's
    /// Durand–Strozecki enumeration order, or `None` when `j ≥ count()`.
    pub fn access(&self, j: Weight) -> Option<Vec<Value>> {
        let mut scratch = McScratch::default();
        self.access_with(j, &mut scratch)
    }

    /// [`McUcqIndex::access`] reusing caller-held scratch buffers: the
    /// access/inverted-access sub-calls of Algorithms 7–8 all run through
    /// the two scratches, so only the returned answer is allocated.
    pub(crate) fn access_with(&self, j: Weight, scratch: &mut McScratch) -> Option<Vec<Value>> {
        if j >= self.count() {
            return None;
        }
        Some(self.access_level(0, j, scratch))
    }

    fn access_level(&self, l: usize, j: Weight, scratch: &mut McScratch) -> Vec<Value> {
        let a = self.member(l);
        if l == self.m - 1 {
            return a
                .access_into(j, &mut scratch.access)
                .expect("index in range by invariant")
                .to_vec();
        }
        let a_count = a.count();
        if j < a_count {
            let answer = a.access_into(j, &mut scratch.access).expect("j < |A|");
            if !Self::in_suffix_of(&self.structs, self.m, l + 1, answer, &mut scratch.probe) {
                return answer.to_vec();
            }
            // Algorithm 8: k = |{a_0..a_j} ∩ B| ≥ 1; emit b_{k-1}.
            let k = self.rank_in_suffix_union(l, j, scratch);
            debug_assert!(k >= 1);
            self.access_level(l + 1, k - 1, scratch)
        } else {
            self.access_level(l + 1, j - a_count + self.cap_ab[l], scratch)
        }
    }

    /// Membership of `answer` in `S_from ∪ … ∪ S_{m-1}`.
    ///
    /// An associated function (not a method) so callers can hold `answer`
    /// borrowed from one scratch while probing with the other.
    fn in_suffix_of(
        structs: &[Option<CqIndex>],
        m: usize,
        from: usize,
        answer: &[Value],
        probe: &mut AccessScratch,
    ) -> bool {
        (from..m).any(|i| {
            structs[1 << i]
                .as_ref()
                .expect("member built")
                .inverted_access_of(answer, probe)
                .is_some()
        })
    }

    /// `|{a_0, …, a_j} ∩ (S_{l+1} ∪ …)|` by inclusion–exclusion over the
    /// intersection indexes (Algorithm 8).
    fn rank_in_suffix_union(&self, l: usize, j: Weight, scratch: &mut McScratch) -> Weight {
        let suffix_mask = (((1usize << self.m) - 1) >> (l + 1)) << (l + 1);
        let (mut plus, mut minus) = (0 as Weight, 0 as Weight);
        let mut sub = suffix_mask;
        while sub != 0 {
            let t = self.structs[sub | (1 << l)].as_ref().expect("built");
            let r = self.rank_leq(t, l, j, scratch);
            if sub.count_ones() % 2 == 1 {
                plus += r;
            } else {
                minus += r;
            }
            sub = (sub - 1) & suffix_mask;
        }
        plus - minus
    }

    /// Number of elements of `t` whose rank in `S_l`'s enumeration order is
    /// at most `j` — the proof of Theorem 5.5's `Largest` + `InvAcc`, fused
    /// into one binary search over `t`'s positions (O(log²) time).
    fn rank_leq(&self, t: &CqIndex, l: usize, j: Weight, scratch: &mut McScratch) -> Weight {
        let a = self.member(l);
        match self.rank_strategy {
            RankStrategy::BinarySearch => {
                let (mut lo, mut hi) = (0 as Weight, t.count());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let x = t.access_into(mid, &mut scratch.access).expect("mid < |T|");
                    let rank_in_a = a
                        .inverted_access_of(x, &mut scratch.probe)
                        .expect("T ⊆ S_l with a compatible order");
                    if rank_in_a <= j {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            RankStrategy::LinearScan => {
                // Compatibility means T's order is a subsequence of S_l's,
                // so the first element beyond rank j ends the scan.
                let mut rank = 0 as Weight;
                for pos in 0..t.count() {
                    let x = t.access_into(pos, &mut scratch.access).expect("pos < |T|");
                    let rank_in_a = a
                        .inverted_access_of(x, &mut scratch.probe)
                        .expect("T ⊆ S_l with a compatible order");
                    if rank_in_a <= j {
                        rank += 1;
                    } else {
                        break;
                    }
                }
                rank
            }
        }
    }

    /// Sequential enumeration in the union's access order.
    pub fn enumerate(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.count()).map(move |j| self.access(j).expect("in range"))
    }

    /// REnum(mcUCQ): Fisher–Yates over the union's random access — uniformly
    /// random order with guaranteed O(log²) delay (Theorem 5.5).
    pub fn random_permutation<R: Rng>(&self, rng: R) -> McUcqShuffle<'_, R> {
        McUcqShuffle {
            index: self,
            shuffle: LazyShuffle::new(self.count(), rng),
            scratch: McScratch::default(),
        }
    }
}

/// The scratch pair threaded through the Algorithm 7/8 walk: one buffer set
/// for access descents, one for inverted-access probes (an answer borrowed
/// from the first stays valid while the second probes).
#[derive(Debug, Default)]
pub(crate) struct McScratch {
    access: AccessScratch,
    probe: AccessScratch,
}

/// Random-order enumeration over an [`McUcqIndex`].
#[derive(Debug)]
pub struct McUcqShuffle<'a, R: Rng> {
    index: &'a McUcqIndex,
    shuffle: LazyShuffle<R>,
    scratch: McScratch,
}

impl<R: Rng> McUcqShuffle<'_, R> {
    /// Answers not yet emitted.
    pub fn remaining(&self) -> Weight {
        self.shuffle.remaining()
    }
}

impl<R: Rng> Iterator for McUcqShuffle<'_, R> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        let j = self.shuffle.next()?;
        Some(
            self.index
                .access_with(j, &mut self.scratch)
                .expect("in range"),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.shuffle.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use crate::RankedUcq;
    use rae_data::{Database, FxHashSet};
    use std::cmp::Ordering;

    use rae_query::parser::parse_ucq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Database with three same-schema binary relations, pairwise
    /// overlapping, for same-template unions over the path join.
    fn db3() -> Database {
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            rel_int(&["a", "b"], &[&[1, 1], &[1, 2], &[2, 1], &[3, 2]]),
        );
        add(
            &mut db,
            "S",
            rel_int(&["a", "b"], &[&[1, 1], &[2, 1], &[4, 2], &[5, 2]]),
        );
        add(
            &mut db,
            "T",
            rel_int(&["a", "b"], &[&[1, 2], &[4, 2], &[6, 1]]),
        );
        add(
            &mut db,
            "W",
            rel_int(&["b", "c"], &[&[1, 10], &[2, 20], &[2, 30]]),
        );
        db
    }

    /// Reference Durand–Strozecki union order (Algorithm 6) over explicit
    /// sequences.
    fn ds_reference(seqs: &[Vec<Vec<Value>>]) -> Vec<Vec<Value>> {
        if seqs.len() == 1 {
            return seqs[0].clone();
        }
        let b = ds_reference(&seqs[1..]);
        let b_set: FxHashSet<&Vec<Value>> = b.iter().collect();
        let mut out = Vec::new();
        let mut b_iter = b.iter();
        for a in &seqs[0] {
            if b_set.contains(a) {
                out.push(b_iter.next().expect("enough b elements").clone());
            } else {
                out.push(a.clone());
            }
        }
        out.extend(b_iter.cloned());
        out
    }

    fn check_against_reference(ucq_text: &str, db: &Database) {
        let u = parse_ucq(ucq_text).unwrap();
        let mc = McUcqIndex::build(&u, db).unwrap();

        // Set correctness and count.
        let expected = naive_union(&u, db);
        assert_eq!(mc.count() as usize, expected.len(), "count mismatch");
        let got: Vec<Vec<Value>> = mc.enumerate().collect();
        let got_set: FxHashSet<&Vec<Value>> = got.iter().collect();
        assert_eq!(got_set.len(), got.len(), "duplicates in union enumeration");
        for row in expected.rows() {
            assert!(got_set.contains(&row.to_vec()), "missing answer {row:?}");
        }

        // Order correctness: must equal the Durand–Strozecki reference over
        // the member enumeration orders.
        let member_seqs: Vec<Vec<Vec<Value>>> = (0..mc.members())
            .map(|l| mc.member(l).enumerate().collect())
            .collect();
        let reference = ds_reference(&member_seqs);
        assert_eq!(
            got, reference,
            "union enumeration order must match Algorithm 6"
        );
    }

    #[test]
    fn two_member_overlapping_union() {
        check_against_reference("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).", &db3());
    }

    #[test]
    fn three_member_union() {
        check_against_reference(
            "Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y). Q3(x, y) :- T(x, y).",
            &db3(),
        );
    }

    #[test]
    fn union_with_existential_template() {
        // Same template with a projected-away tail: Qi(x,y) :- Ri(x,y), W(y,z).
        check_against_reference(
            "Q1(x, y) :- R(x, y), W(y, z). Q2(x, y) :- S(x, y), W(y, z).",
            &db3(),
        );
    }

    #[test]
    fn disjoint_union() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2]]));
        add(&mut db, "S", rel_int(&["a"], &[&[3], &[4]]));
        check_against_reference("Q1(x) :- R(x). Q2(x) :- S(x).", &db);
    }

    #[test]
    fn identical_members() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2], &[3]]));
        add(&mut db, "S", rel_int(&["a"], &[&[1], &[2], &[3]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let mc = McUcqIndex::build(&u, &db).unwrap();
        assert_eq!(mc.count(), 3);
        check_against_reference("Q1(x) :- R(x). Q2(x) :- S(x).", &db);
    }

    #[test]
    fn one_member_degenerates_to_cq() {
        let u = ucq("Q1(x, y) :- R(x, y).");
        let mc = McUcqIndex::build(&u, &db3()).unwrap();
        assert_eq!(mc.count(), 4);
        let member: Vec<_> = mc.member(0).enumerate().collect();
        let union: Vec<_> = mc.enumerate().collect();
        assert_eq!(member, union);
    }

    #[test]
    fn empty_members_are_fine() {
        let mut db = db3();
        db.set_relation("S", rel_int(&["a", "b"], &[]));
        check_against_reference("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).", &db);
    }

    #[test]
    fn out_of_bounds_access() {
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).");
        let mc = McUcqIndex::build(&u, &db3()).unwrap();
        assert!(mc.access(mc.count()).is_none());
    }

    #[test]
    fn incompatible_templates_rejected() {
        // Q1's template is a single {x,y} bag; Q2 is free-connex but its
        // projected template is two disjoint bags {x}, {y}.
        let mut db = db3();
        add(&mut db, "U", rel_int(&["a"], &[&[1], &[2]]));
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- R(x, z), U(y).");
        assert!(matches!(
            McUcqIndex::build(&u, &db),
            Err(CoreError::IncompatibleTemplates { .. })
        ));
    }

    #[test]
    fn non_free_connex_member_surfaces_query_error() {
        let db = db3();
        // Q2(x,y) :- R(x,z), W(z,y) has a cyclic extended hypergraph.
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- R(x, z), W(z, y).");
        assert!(matches!(
            McUcqIndex::build(&u, &db),
            Err(CoreError::Query(rae_query::QueryError::NotFreeConnex(_)))
        ));
    }

    #[test]
    fn shuffle_is_uniform_and_complete() {
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).");
        let db = db3();
        let mc = McUcqIndex::build(&u, &db).unwrap();
        let expected = naive_union(&u, &db);

        let mut all: Vec<Vec<Value>> = mc.random_permutation(StdRng::seed_from_u64(8)).collect();
        assert_eq!(all.len(), expected.len());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), expected.len());

        // First answer uniform across the union.
        let n = mc.count();
        let mut counts: std::collections::BTreeMap<Vec<Value>, usize> = Default::default();
        let mut seed_rng = StdRng::seed_from_u64(4242);
        let trials = 3000usize;
        for _ in 0..trials {
            let seed = rand::Rng::gen::<u64>(&mut seed_rng);
            let first = mc
                .random_permutation(StdRng::seed_from_u64(seed))
                .next()
                .unwrap();
            *counts.entry(first).or_insert(0) += 1;
        }
        assert_eq!(counts.len() as Weight, n);
        let expected_freq = trials as f64 / n as f64;
        for (ans, c) in counts {
            let ratio = c as f64 / expected_freq;
            assert!(
                (0.7..=1.3).contains(&ratio),
                "answer {ans:?} first {c} times (expected ≈{expected_freq:.0})"
            );
        }
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

    /// The same-template unions of this module, served in order by the
    /// ordered union structure, against naive materialize-sort-dedup.
    fn check_ordered_union(ucq_text: &str, db: &Database, order: &[&str]) {
        let u = parse_ucq(ucq_text).unwrap();
        let syms: Vec<Symbol> = order.iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(&u, db, &syms).unwrap();
        let expected = sorted_union(&u, db, order);
        assert_eq!(ranked.count() as usize, expected.len(), "count mismatch");
        for (k, row) in expected.iter().enumerate() {
            assert_eq!(
                ranked.ordered_access(k as Weight).as_ref(),
                Some(row),
                "rank {k} of {ucq_text} under {order:?}"
            );
            assert_eq!(
                ranked.ordered_inverted_access(row),
                Some(k as Weight),
                "inverted rank {k}"
            );
        }
        assert!(ranked.ordered_access(ranked.count()).is_none());
        // The merged scan equals rank-by-rank access.
        let merged: Vec<Vec<Value>> = ranked.enumerate().collect();
        assert_eq!(merged, expected, "merge vs ranks");
        // Range counts for every single-variable prefix value.
        let first_head = ranked.members()[0].order_to_head()[0];
        let mut prefix_values: Vec<Value> =
            expected.iter().map(|r| r[first_head].clone()).collect();
        prefix_values.dedup();
        for v in prefix_values {
            let expected_count = expected.iter().filter(|r| r[first_head] == v).count() as Weight;
            assert_eq!(
                ranked.range_count(std::slice::from_ref(&v)).unwrap(),
                expected_count,
                "prefix {v:?}"
            );
            let range = ranked.range_of_prefix(std::slice::from_ref(&v)).unwrap();
            assert_eq!(range.end - range.start, expected_count);
            if expected_count > 0 {
                let first_in_range = ranked.ordered_access(range.start).unwrap();
                assert_eq!(first_in_range[first_head], v);
            }
        }
    }

    #[test]
    fn ordered_union_matches_naive_sorted() {
        let db = db3();
        for order in [&["a", "b"], &["b", "a"]] {
            check_ordered_union("Q1(a, b) :- R(a, b). Q2(a, b) :- S(a, b).", &db, order);
            check_ordered_union(
                "Q1(a, b) :- R(a, b). Q2(a, b) :- S(a, b). Q3(a, b) :- T(a, b).",
                &db,
                order,
            );
        }
    }

    #[test]
    fn ordered_union_with_existential_template() {
        let db = db3();
        for order in [&["x", "y"], &["y", "x"]] {
            check_ordered_union(
                "Q1(x, y) :- R(x, y), W(y, z). Q2(x, y) :- S(x, y), W(y, z).",
                &db,
                order,
            );
        }
    }

    #[test]
    fn ordered_union_rejects_bad_inputs() {
        // Incompatible templates: refused by the mc-UCQ builder, served in
        // order by the ordered union structure.
        let mut db2 = db3();
        add(&mut db2, "U", rel_int(&["a"], &[&[1], &[2]]));
        let mixed = "Q1(a, b) :- R(a, b). Q2(a, b) :- R(a, z), U(b).";
        assert!(matches!(
            McUcqIndex::build(&ucq(mixed), &db2),
            Err(CoreError::IncompatibleTemplates { .. })
        ));
        check_ordered_union(mixed, &db2, &["a", "b"]);
        // Orders that are not a permutation of the head.
        let db = db3();
        let u = ucq("Q1(a, b) :- R(a, b). Q2(a, b) :- S(a, b).");
        for bad in [&["a"][..], &["a", "a"], &["a", "b", "c"]] {
            let bad: Vec<Symbol> = bad.iter().map(Symbol::new).collect();
            assert!(matches!(
                RankedUcq::build(&u, &db, &bad),
                Err(CoreError::Query(
                    rae_query::QueryError::OrderVariableMismatch { .. }
                ))
            ));
        }
    }

    #[test]
    fn too_many_disjuncts_rejected() {
        let mut db = Database::new();
        let mut text = String::new();
        for i in 0..13 {
            add(
                &mut db,
                format!("R{i}").as_str(),
                rel_int(&["a"], &[&[i as i64]]),
            );
            text.push_str(&format!("Q{i}(x) :- R{i}(x). "));
        }
        let u = parse_ucq(&text).unwrap();
        assert!(matches!(
            McUcqIndex::build(&u, &db),
            Err(CoreError::TooManyDisjuncts { .. })
        ));
    }

    #[test]
    fn linear_rank_strategy_gives_identical_orders() {
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y). Q3(x, y) :- T(x, y).");
        let db = db3();
        let binary = McUcqIndex::build(&u, &db).unwrap();
        let mut linear = McUcqIndex::build(&u, &db).unwrap();
        linear.set_rank_strategy(RankStrategy::LinearScan);
        for j in 0..binary.count() {
            assert_eq!(binary.access(j), linear.access(j), "mismatch at {j}");
        }
    }

    #[test]
    fn intersection_indexes_match_set_intersections() {
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).");
        let db = db3();
        let mc = McUcqIndex::build(&u, &db).unwrap();
        let cap = mc.intersection_index(0b11).unwrap();
        // R ∩ S = {(1,1), (2,1)}.
        assert_eq!(cap.count(), 2);
        let items: Vec<_> = cap.enumerate().collect();
        assert!(items.contains(&vec![Value::Int(1), Value::Int(1)]));
        assert!(items.contains(&vec![Value::Int(2), Value::Int(1)]));
    }
}
