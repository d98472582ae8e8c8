//! Ordered- and weighted-window sampling over rank-aware indexes
//! (DESIGN.md §11, §17).
//!
//! [`OrderedCqIndex`] resolves any `ORDER BY`-prefix to a contiguous rank
//! window in O(log n); drawing a uniform rank from that window and serving
//! it with `ordered_access_into` yields a **rejection-free, exactly
//! uniform** sampler over the answers matching the prefix — e.g. "sample
//! among the top-k" or "sample uniformly within one key group" — including
//! over plans the decomposition-complete synthesis built with projection
//! nodes. [`WeightedWindowSampler`] does the same over a
//! [`WeightedCqIndex`]'s sum-of-weights rank space (e.g. "uniform among
//! the k cheapest answers" or within a weight band). Attempts are
//! allocation-free like every other sampler here.

use crate::JoinSampler;
use rae_core::{AccessScratch, CqIndex, OrderedCqIndex, Weight, WeightedCqIndex};
use rae_data::Value;
use rand::Rng;
use std::ops::Range;

/// A uniform with-replacement sampler over a rank window of an
/// [`OrderedCqIndex`] — every attempt succeeds (no rejections).
///
/// ```
/// use rae_core::{AccessScratch, OrderedCqIndex};
/// use rae_data::{Database, Relation, Schema, Symbol, Value};
/// use rae_sampler::{JoinSampler, OrderedWindowSampler};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut db = Database::new();
/// db.add_relation(
///     "R",
///     Relation::from_rows(
///         Schema::new(["a", "b"]).unwrap(),
///         (0..20).map(|i| vec![Value::Int(i % 4), Value::Int(i)]),
///     )
///     .unwrap(),
/// )
/// .unwrap();
/// let q = "Q(x, y) :- R(x, y)".parse().unwrap();
/// let order = [Symbol::new("x"), Symbol::new("y")];
/// let idx = OrderedCqIndex::build(&q, &db, &order).unwrap();
///
/// // Sample uniformly among the answers with x = 2.
/// let sampler = OrderedWindowSampler::for_prefix(&idx, &[Value::Int(2)]).unwrap();
/// let mut rng = StdRng::seed_from_u64(9);
/// let mut scratch = AccessScratch::new();
/// let answer = sampler.attempt_into(&mut rng, &mut scratch).unwrap();
/// assert_eq!(answer[0], Value::Int(2));
/// ```
#[derive(Debug)]
pub struct OrderedWindowSampler<'a> {
    index: &'a OrderedCqIndex,
    window: Range<Weight>,
}

impl<'a> OrderedWindowSampler<'a> {
    /// A sampler over the rank window `[range.start, range.end)` of the
    /// requested order (out-of-bounds ends are clamped to `count()`).
    pub fn new(index: &'a OrderedCqIndex, range: Range<Weight>) -> Self {
        let lo = range.start.min(index.count());
        let hi = range.end.min(index.count()).max(lo);
        OrderedWindowSampler {
            index,
            window: lo..hi,
        }
    }

    /// A sampler over every answer matching a prefix of order values
    /// (empty prefix ⇒ the whole answer set). Errors only when the rank
    /// descent's capacity guard trips ([`rae_core::CoreError::CapacityExceeded`]).
    pub fn for_prefix(index: &'a OrderedCqIndex, prefix: &[Value]) -> rae_core::Result<Self> {
        Ok(Self::new(index, index.range_of_prefix(prefix)?))
    }

    /// The sampled rank window.
    pub fn window(&self) -> Range<Weight> {
        self.window.clone()
    }

    /// Number of answers in the window.
    pub fn window_len(&self) -> Weight {
        self.window.end - self.window.start
    }
}

impl JoinSampler for OrderedWindowSampler<'_> {
    fn attempt_into<'s, R: Rng>(
        &self,
        rng: &mut R,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        // Chaos site: an injected fault reads as one more rejected attempt,
        // which the rejection samplers already tolerate uniformly.
        rae_faults::fail_point!("sampler/attempt", |_site| None);
        if self.window.is_empty() {
            return None;
        }
        let k = rng.gen_range(self.window.clone());
        self.index.ordered_access_into(k, scratch)
    }

    fn index(&self) -> &CqIndex {
        self.index.index()
    }

    /// Unlike the join samplers, an empty *window* (not an empty query)
    /// also yields `None`.
    fn sample_into<'s, R: Rng>(
        &self,
        rng: &mut R,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        if self.window.is_empty() {
            return None;
        }
        self.attempt_into(rng, scratch)
    }

    fn name(&self) -> &'static str {
        "OW"
    }
}

/// A uniform with-replacement sampler over a **weighted** rank window of a
/// [`WeightedCqIndex`] — every attempt succeeds (no rejections). Windows
/// come from weighted ranks directly ([`WeightedWindowSampler::new`],
/// e.g. `0..k` for the k cheapest answers) or from a weight band
/// ([`WeightedWindowSampler::for_weight_range`]).
///
/// ```
/// use rae_core::WeightedCqIndex;
/// use rae_data::{Database, Relation, Schema, Symbol, Value, VarWeights};
/// use rae_sampler::{JoinSampler, WeightedWindowSampler};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut db = Database::new();
/// db.add_relation(
///     "R",
///     Relation::from_rows(
///         Schema::new(["a", "b"]).unwrap(),
///         (0..20).map(|i| vec![Value::Int(i % 4), Value::Int(i)]),
///     )
///     .unwrap(),
/// )
/// .unwrap();
/// let q = "Q(x, y) :- R(x, y)".parse().unwrap();
/// let order = [Symbol::new("x"), Symbol::new("y")];
/// let mut weights = VarWeights::new();
/// for v in 0..4 {
///     weights.set("x", Value::Int(v), (10 - v) as u128);
/// }
/// let idx = WeightedCqIndex::build(&q, &db, &order, &weights).unwrap();
///
/// // Sample uniformly among the 5 cheapest answers.
/// let sampler = WeightedWindowSampler::new(&idx, 0..5);
/// let mut rng = StdRng::seed_from_u64(9);
/// let answer = sampler.sample(&mut rng).unwrap();
/// assert!(idx.ranked_inverted_access(&answer).unwrap() < 5);
/// ```
#[derive(Debug)]
pub struct WeightedWindowSampler<'a> {
    index: &'a WeightedCqIndex,
    window: Range<Weight>,
}

impl<'a> WeightedWindowSampler<'a> {
    /// A sampler over the weighted-rank window `[range.start, range.end)`
    /// (out-of-bounds ends are clamped to `count()`).
    pub fn new(index: &'a WeightedCqIndex, range: Range<Weight>) -> Self {
        let lo = range.start.min(index.count());
        let hi = range.end.min(index.count()).max(lo);
        WeightedWindowSampler {
            index,
            window: lo..hi,
        }
    }

    /// A sampler over every answer whose weight falls in `weights`
    /// (half-open) — the window is contiguous in weighted ranks by
    /// construction ([`WeightedCqIndex::weight_window`]).
    pub fn for_weight_range(index: &'a WeightedCqIndex, weights: Range<u128>) -> Self {
        Self::new(index, index.weight_window(weights))
    }

    /// The sampled weighted-rank window.
    pub fn window(&self) -> Range<Weight> {
        self.window.clone()
    }

    /// Number of answers in the window.
    pub fn window_len(&self) -> Weight {
        self.window.end - self.window.start
    }
}

impl JoinSampler for WeightedWindowSampler<'_> {
    fn attempt_into<'s, R: Rng>(
        &self,
        rng: &mut R,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        // Same chaos site as the ordered sampler: an injected fault reads
        // as one more rejected attempt.
        rae_faults::fail_point!("sampler/attempt", |_site| None);
        if self.window.is_empty() {
            return None;
        }
        let k = rng.gen_range(self.window.clone());
        self.index.ranked_access_into(k, scratch)
    }

    fn index(&self) -> &CqIndex {
        self.index.index().index()
    }

    /// Unlike the join samplers, an empty *window* (not an empty query)
    /// also yields `None`.
    fn sample_into<'s, R: Rng>(
        &self,
        rng: &mut R,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        if self.window.is_empty() {
            return None;
        }
        self.attempt_into(rng, scratch)
    }

    fn name(&self) -> &'static str {
        "WW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_data::{Database, Relation, Schema, Symbol};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(["a", "b"]).unwrap(),
                (0..6).map(|i| vec![Value::Int(i % 3), Value::Int(i)]),
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(
                Schema::new(["b", "c"]).unwrap(),
                (0..6).flat_map(|i| {
                    (0..(i % 2 + 1)).map(move |j| vec![Value::Int(i), Value::Int(10 * i + j)])
                }),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn ordered_index(db: &Database) -> OrderedCqIndex {
        let q = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
        let order: Vec<Symbol> = ["x", "y", "z"].iter().map(Symbol::new).collect();
        OrderedCqIndex::build(&q, db, &order).unwrap()
    }

    #[test]
    fn prefix_window_is_uniform_over_matching_answers() {
        let db = db();
        let idx = ordered_index(&db);
        let prefix = [Value::Int(1)];
        let expected: Vec<Vec<Value>> = idx.enumerate_prefix(&prefix).unwrap().collect();
        assert!(expected.len() >= 2);
        let sampler = OrderedWindowSampler::for_prefix(&idx, &prefix).unwrap();
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        let trials = 3000usize;
        for _ in 0..trials {
            let a = sampler.sample(&mut rng).unwrap();
            assert_eq!(a[0], Value::Int(1), "sampled outside the prefix");
            *counts.entry(a).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), expected.len(), "some window answer missed");
        let freq = trials as f64 / expected.len() as f64;
        for (a, c) in counts {
            let ratio = c as f64 / freq;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "answer {a:?} sampled {c} times (expected ≈{freq:.0})"
            );
        }
    }

    #[test]
    fn empty_window_never_yields() {
        let db = db();
        let idx = ordered_index(&db);
        let sampler = OrderedWindowSampler::for_prefix(&idx, &[Value::Int(999)]).unwrap();
        assert_eq!(sampler.window_len(), 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sampler.sample(&mut rng).is_none());
        assert!(sampler.attempt(&mut rng).is_none());
    }

    #[test]
    fn full_window_covers_every_answer() {
        let db = db();
        let idx = ordered_index(&db);
        let sampler = OrderedWindowSampler::new(&idx, 0..Weight::MAX);
        assert_eq!(sampler.window_len(), idx.count());
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen: std::collections::BTreeSet<Vec<Value>> = Default::default();
        for _ in 0..2000 {
            seen.insert(sampler.sample(&mut rng).unwrap());
        }
        assert_eq!(seen.len() as Weight, idx.count());
    }

    fn weighted_index(db: &Database) -> WeightedCqIndex {
        let q = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
        let order: Vec<Symbol> = ["x", "y", "z"].iter().map(Symbol::new).collect();
        let mut weights = rae_data::VarWeights::new();
        for v in 0..3 {
            weights.set("x", Value::Int(v), (7 * (v + 1)) as u128);
        }
        WeightedCqIndex::build(&q, db, &order, &weights).unwrap()
    }

    #[test]
    fn weighted_window_is_uniform_over_cheapest_answers() {
        let db = db();
        let widx = weighted_index(&db);
        assert!(widx.count() >= 4);
        let k: Weight = widx.count() / 2;
        let sampler = WeightedWindowSampler::new(&widx, 0..k);
        assert_eq!(sampler.window_len(), k);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        for _ in 0..3000 {
            let a = sampler.sample(&mut rng).unwrap();
            let rank = widx.ranked_inverted_access(&a).unwrap();
            assert!(rank < k, "sampled outside the cheapest-{k} window");
            *counts.entry(a).or_insert(0) += 1;
        }
        assert_eq!(counts.len() as Weight, k, "some window answer missed");
        let freq = 3000f64 / k as f64;
        for (a, c) in counts {
            let ratio = c as f64 / freq;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "answer {a:?} sampled {c} times (expected ≈{freq:.0})"
            );
        }
    }

    #[test]
    fn weight_band_window_stays_in_band() {
        let db = db();
        let widx = weighted_index(&db);
        let (lo_w, hi_w) = (widx.min_weight().unwrap(), widx.max_weight().unwrap());
        assert!(lo_w < hi_w, "fixture needs at least two weight classes");
        let sampler = WeightedWindowSampler::for_weight_range(&widx, lo_w..hi_w);
        assert_eq!(
            sampler.window_len(),
            widx.weight_range_count(lo_w..hi_w),
            "band window length"
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = AccessScratch::new();
        for _ in 0..200 {
            let a = sampler.sample(&mut rng).unwrap();
            let w = widx.weight_of(&a, &mut scratch).unwrap();
            assert!((lo_w..hi_w).contains(&w), "weight {w} outside the band");
        }
        // Empty band ⇒ empty window ⇒ no samples.
        let empty = WeightedWindowSampler::for_weight_range(&widx, 0..lo_w);
        assert_eq!(empty.window_len(), 0);
        assert!(empty.sample(&mut rng).is_none());
    }
}
