//! The sorted value table every index owns (DESIGN.md §5).
//!
//! An index stores its rows as `u32` *ranks* into one table of its distinct
//! values, sorted in [`Value`] order: the integers first, as one `i64`
//! column, then the strings. Because ranks preserve the value order, rank
//! equality is value equality and rank comparison is value comparison, so
//! every read path after the build works on integers. Only the edges
//! translate: access materializes `table[rank]`, and inverted or ordered
//! access binary-searches the probe values once per call.
//!
//! The archive stores the same table, so a cold start checks that each half
//! is strictly increasing and adopts it: the integer column stays a
//! zero-copy view into a snapshot, and no value goes through a
//! dictionary.

use crate::column::Col;
use rae_data::fxhash::{finalize, FxHasher};
use rae_data::{Symbol, Value};
use std::hash::{Hash, Hasher};

/// The distinct values of one index in [`Value`] order: rank `r` is
/// `ints[r]` for `r < ints.len()`, else `strs[r - ints.len()]`.
///
/// A live index's table is strictly increasing in each half; an archived
/// one is checked for that before it is served ([`ValueTable::check`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueTable {
    /// The integer values, strictly increasing.
    pub ints: Col<i64>,
    /// The string values, strictly increasing.
    pub strs: Vec<Symbol>,
}

impl ValueTable {
    /// Number of values (one past the largest valid rank).
    #[inline]
    pub fn len(&self) -> usize {
        self.ints.len() + self.strs.len()
    }

    /// Whether the table holds no value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of `rank` (panics out of range, like slice indexing).
    #[inline]
    pub fn get(&self, rank: u32) -> Value {
        let r = rank as usize;
        match self.ints.get(r) {
            Some(&i) => Value::Int(i),
            None => Value::Str(self.strs[r - self.ints.len()].clone()),
        }
    }

    /// Overwrites `slot` with the value of `rank`. The access descent uses
    /// this rather than assigning [`ValueTable::get`]'s result: that form
    /// read 7–15% slower `access_p50_ns` in same-run perfbench pairs.
    #[inline]
    pub fn write(&self, rank: u32, slot: &mut Value) {
        let r = rank as usize;
        match self.ints.get(r) {
            Some(&i) => *slot = Value::Int(i),
            None => *slot = Value::Str(self.strs[r - self.ints.len()].clone()),
        }
    }

    /// Where `value` sits in the table: the number of table values below
    /// it, and whether the value at that rank equals it. Two binary
    /// searches at most, one per half, with no allocation.
    #[inline]
    pub fn lower_bound(&self, value: &Value) -> (u32, bool) {
        let (below, found) = match value {
            Value::Int(i) => match self.ints.binary_search(i) {
                Ok(r) => (r, true),
                Err(r) => (r, false),
            },
            Value::Str(s) => match self.strs.binary_search_by(|t| t.as_str().cmp(s.as_str())) {
                Ok(r) => (self.ints.len() + r, true),
                Err(r) => (self.ints.len() + r, false),
            },
        };
        // Ranks fit u32: a table is at most as long as the dictionary's
        // u32 code space (built) or is refused at load (archived).
        (below as u32, found)
    }

    /// The rank of `value`, or `None` when the table does not hold it.
    #[inline]
    pub fn rank_of(&self, value: &Value) -> Option<u32> {
        match self.lower_bound(value) {
            (rank, true) => Some(rank),
            (_, false) => None,
        }
    }

    /// Refuses a table that is not strictly increasing in each half (one
    /// pass per half), or whose ranks would not fit `u32`.
    pub fn check(&self) -> Result<(), String> {
        if u32::try_from(self.len()).is_err() {
            return Err(format!("{} values exceed the u32 rank space", self.len()));
        }
        if let Some(i) = self.ints.windows(2).position(|w| w[0] >= w[1]) {
            return Err(format!(
                "integer values not strictly increasing at {}",
                i + 1
            ));
        }
        if let Some(i) = self.strs.windows(2).position(|w| w[0] >= w[1]) {
            return Err(format!(
                "string values not strictly increasing at {}",
                i + 1
            ));
        }
        Ok(())
    }
}

/// A hash index over one [`ValueTable`]: value → rank in about one probe,
/// for inverted access, where a probe answer's every value needs its rank.
/// The slots hold ranks only (open addressing, linear probing); a probe
/// compares against the table itself, so the index adds four bytes per
/// slot and no second copy of any value.
#[derive(Debug)]
pub(crate) struct RankIndex {
    /// `EMPTY` or a rank; a power-of-two count at most half full.
    slots: Vec<u32>,
}

impl RankIndex {
    const EMPTY: u32 = u32::MAX;

    /// Indexes every rank of `table` (ranks fit `u32` below `EMPTY`: a
    /// table is checked against the `u32` rank space), hashing each value
    /// where the table holds it.
    pub(crate) fn new(table: &ValueTable) -> Self {
        let mut slots = vec![Self::EMPTY; (table.len() * 2).next_power_of_two().max(2)];
        let mask = slots.len() - 1;
        let ints = table.ints.iter().map(|&i| hash_int(i));
        let strs = table.strs.iter().map(|s| hash_str(s.as_str()));
        for (rank, hash) in ints.chain(strs).enumerate() {
            let mut at = hash & mask;
            while slots[at] != Self::EMPTY {
                at = (at + 1) & mask;
            }
            slots[at] = rank as u32;
        }
        RankIndex { slots }
    }

    /// The rank of `value` in `table` (the table this index was built
    /// over), or `None` when the table does not hold it.
    #[inline]
    pub(crate) fn rank_of(&self, table: &ValueTable, value: &Value) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut at = hash_of(value) & mask;
        loop {
            let rank = self.slots[at];
            if rank == Self::EMPTY {
                return None;
            }
            let r = rank as usize;
            let hit = match value {
                Value::Int(i) => table.ints.get(r) == Some(i),
                Value::Str(s) => r >= table.ints.len() && table.strs[r - table.ints.len()] == *s,
            };
            if hit {
                return Some(rank);
            }
            at = (at + 1) & mask;
        }
    }
}

#[inline]
fn hash_of(value: &Value) -> usize {
    match value {
        Value::Int(i) => hash_int(*i),
        Value::Str(s) => hash_str(s.as_str()),
    }
}

/// Raw Fx of an integer: one multiply by an odd constant, so integers
/// differing in their low bits (keys, dense ids) keep distinct low bits
/// and land about one probe each.
#[inline]
fn hash_int(i: i64) -> usize {
    let mut h = FxHasher::default();
    h.write_i64(i);
    h.finish() as usize
}

/// Finalized Fx of a string: raw Fx's low bits depend only on the last
/// word, which same-length strings often share.
#[inline]
fn hash_str(s: &str) -> usize {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    finalize(h.finish()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ValueTable {
        ValueTable {
            ints: Col::Owned(vec![-3, 10, 42]),
            strs: vec![Symbol::new("a"), Symbol::new("b")],
        }
    }

    #[test]
    fn ranks_follow_value_order() {
        let t = table();
        assert_eq!(t.len(), 5);
        let values: Vec<Value> = (0..5).map(|r| t.get(r)).collect();
        let mut sorted = values.clone();
        sorted.sort();
        assert_eq!(values, sorted);
        for (r, v) in values.iter().enumerate() {
            assert_eq!(t.rank_of(v), Some(r as u32));
            let mut slot = Value::str("old");
            t.write(r as u32, &mut slot);
            assert_eq!(&slot, v);
        }
    }

    #[test]
    fn lower_bound_places_missing_values() {
        let t = table();
        assert_eq!(t.lower_bound(&Value::Int(-4)), (0, false));
        assert_eq!(t.lower_bound(&Value::Int(11)), (2, false));
        assert_eq!(t.lower_bound(&Value::Int(i64::MAX)), (3, false));
        assert_eq!(t.lower_bound(&Value::str("")), (3, false));
        assert_eq!(t.lower_bound(&Value::str("ab")), (4, false));
        assert_eq!(t.lower_bound(&Value::str("c")), (5, false));
        assert_eq!(t.rank_of(&Value::str("zz")), None);
    }

    #[test]
    fn rank_index_agrees_with_binary_search() {
        let t = ValueTable {
            ints: Col::Owned((0..300).map(|i| i * 7 - 500).collect()),
            strs: (0..200).map(|i| Symbol::new(format!("s{i:04}"))).collect(),
        };
        let index = RankIndex::new(&t);
        for r in 0..t.len() as u32 {
            assert_eq!(index.rank_of(&t, &t.get(r)), Some(r));
        }
        for miss in [Value::Int(-499), Value::Int(i64::MIN), Value::str("s")] {
            assert_eq!(index.rank_of(&t, &miss), None);
            assert_eq!(t.rank_of(&miss), None);
        }
        let empty = ValueTable::default();
        assert_eq!(RankIndex::new(&empty).rank_of(&empty, &Value::Int(0)), None);
    }

    /// Mean probes per hit over every value of `table`.
    fn mean_probes(table: &ValueTable) -> f64 {
        let index = RankIndex::new(table);
        let mask = index.slots.len() - 1;
        let total: usize = (0..table.len() as u32)
            .map(|rank| {
                let home = hash_of(&table.get(rank)) & mask;
                let at = (home..)
                    .position(|at| index.slots[at & mask] == rank)
                    .unwrap();
                at + 1
            })
            .sum();
        total as f64 / table.len() as f64
    }

    #[test]
    fn same_length_strings_probe_like_a_uniform_hash() {
        // Same-length strings that differ in a few middle bytes, like the
        // churn workload's tags: raw Fx's low bits depend on the last word
        // only, which these strings share in part.
        let mut strs: Vec<Symbol> = (0..4_000)
            .map(|i| Symbol::new(format!("ct-0-{i:04}-x")))
            .collect();
        strs.sort();
        let table = ValueTable {
            ints: Col::Owned(Vec::new()),
            strs,
        };
        // Linear probing at this load (4,000 in 8,192 slots) averages
        // about 1.5 probes a hit under a uniform hash; raw Fx reads 3.65.
        let mean = mean_probes(&table);
        assert!(mean < 2.0, "{mean:.2} probes per hit");
        // Dense integers stay at one probe each on the raw hash.
        let ints = ValueTable {
            ints: Col::Owned((0..3_000).collect()),
            strs: Vec::new(),
        };
        assert_eq!(mean_probes(&ints), 1.0);
    }

    #[test]
    fn check_refuses_unsorted_halves() {
        assert!(table().check().is_ok());
        let mut ints = table();
        ints.ints = Col::Owned(vec![1, 1]);
        assert!(ints.check().unwrap_err().contains("integer"));
        let mut strs = table();
        strs.strs.reverse();
        assert!(strs.check().unwrap_err().contains("string"));
    }
}
