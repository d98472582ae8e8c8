//! [`CodeKeyMap`]: an open-addressing hash map from fixed-width `&[u32]`
//! code keys to `u32` values, probed with **borrowed** slices.
//!
//! `std::collections::HashMap<Box<[Value]>, u32>` forces every probe to
//! materialize an owned boxed key (`key_of`), which puts one heap
//! allocation on the hot path of bucket lookup and inverted access. This
//! map stores all keys in one flat `Vec<u32>` (every key has the same
//! width, fixed at construction) and resolves probes by linear probing on a
//! power-of-two table — the same raw-entry technique `hashbrown` exposes,
//! specialized to dictionary codes. Lookups take `&[u32]` and never
//! allocate.
//!
//! The map is build-once/probe-many: inserts happen during preprocessing
//! (growing is amortized O(1)); the answer path only calls [`CodeKeyMap::get`].

use crate::dict::ValueCode;

const EMPTY: u32 = u32::MAX;
/// Grow when occupancy exceeds 7/8 of the table.
const MAX_LOAD_NUM: usize = 7;
const MAX_LOAD_DEN: usize = 8;

/// Fx-style hash over a slice of codes (multiply-rotate per word; see
/// [`crate::fxhash`]).
#[inline]
fn hash_codes(key: &[ValueCode]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    const ROTATE: u32 = 5;
    let mut h: u64 = key.len() as u64;
    for &c in key {
        h = (h.rotate_left(ROTATE) ^ u64::from(c)).wrapping_mul(SEED);
    }
    // The table masks low bits, which raw Fx leaves weak.
    crate::fxhash::finalize(h)
}

/// A hash map from fixed-width code tuples to `u32` values with
/// allocation-free borrowed-slice lookups.
#[derive(Debug, Clone)]
pub struct CodeKeyMap {
    width: usize,
    /// Flat key storage: entry `e`'s key is `keys[e*width .. (e+1)*width]`.
    keys: Vec<ValueCode>,
    values: Vec<u32>,
    /// Power-of-two probe table holding entry indexes (or `EMPTY`).
    table: Vec<u32>,
    mask: usize,
}

impl CodeKeyMap {
    /// Creates a map for keys of `width` codes, pre-sized for `capacity`
    /// entries.
    pub fn with_capacity(width: usize, capacity: usize) -> Self {
        let slots = (capacity * MAX_LOAD_DEN / MAX_LOAD_NUM + 1)
            .next_power_of_two()
            .max(8);
        CodeKeyMap {
            width,
            keys: Vec::with_capacity(capacity * width),
            values: Vec::with_capacity(capacity),
            table: vec![EMPTY; slots],
            mask: slots - 1,
        }
    }

    /// Creates an empty map for keys of `width` codes.
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// The fixed key width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    fn key_at(&self, entry: usize) -> &[ValueCode] {
        &self.keys[entry * self.width..(entry + 1) * self.width]
    }

    /// Looks up `key`, borrowing it — no allocation, no key construction.
    ///
    /// # Panics
    /// Debug-asserts that `key.len()` equals the map's width.
    #[inline]
    pub fn get(&self, key: &[ValueCode]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.width, "probe key width mismatch");
        let mut slot = hash_codes(key) as usize & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return None;
            }
            let e = entry as usize;
            if self.key_at(e) == key {
                return Some(self.values[e]);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: &[ValueCode]) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present (in which case the stored value is replaced).
    pub fn insert(&mut self, key: &[ValueCode], value: u32) -> Option<u32> {
        assert_eq!(key.len(), self.width, "insert key width mismatch");
        if (self.len() + 1) * MAX_LOAD_DEN > self.table.len() * MAX_LOAD_NUM {
            self.grow();
        }
        let mut slot = hash_codes(key) as usize & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                let e = self.values.len();
                assert!(e < EMPTY as usize, "CodeKeyMap entry count overflow");
                self.keys.extend_from_slice(key);
                self.values.push(value);
                self.table[slot] = e as u32;
                return None;
            }
            let e = entry as usize;
            if self.key_at(e) == key {
                return Some(std::mem::replace(&mut self.values[e], value));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_slots = (self.table.len() * 2).max(8);
        let mut table = vec![EMPTY; new_slots];
        let mask = new_slots - 1;
        for e in 0..self.values.len() {
            let mut slot = hash_codes(self.key_at(e)) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = e as u32;
        }
        self.table = table;
        self.mask = mask;
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&[ValueCode], u32)> + '_ {
        (0..self.values.len()).map(move |e| (self.key_at(e), self.values[e]))
    }
}

impl Default for CodeKeyMap {
    /// An empty zero-width map. The probe table is still allocated, so
    /// `get` on a default map is a miss, never an out-of-bounds panic.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut m = CodeKeyMap::new(2);
        assert!(m.is_empty());
        for i in 0..1000u32 {
            assert_eq!(m.insert(&[i, i * 31], i), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&[i, i * 31]), Some(i), "key {i}");
        }
        assert_eq!(m.get(&[5, 5]), None);
        assert_eq!(m.get(&[1000, 31000]), None);
    }

    #[test]
    fn replace_returns_old_value() {
        let mut m = CodeKeyMap::new(1);
        assert_eq!(m.insert(&[7], 1), None);
        assert_eq!(m.insert(&[7], 2), Some(1));
        assert_eq!(m.get(&[7]), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_width_keys() {
        let mut m = CodeKeyMap::new(0);
        assert_eq!(m.get(&[]), None);
        assert_eq!(m.insert(&[], 42), None);
        assert_eq!(m.get(&[]), Some(42));
        assert_eq!(m.insert(&[], 43), Some(42));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_through_many_collisions() {
        // Keys designed to collide in low bits before finalization.
        let mut m = CodeKeyMap::with_capacity(1, 4);
        for i in 0..10_000u32 {
            m.insert(&[i * 1024], i);
        }
        for i in 0..10_000u32 {
            assert_eq!(m.get(&[i * 1024]), Some(i));
        }
    }

    #[test]
    fn iter_visits_every_entry() {
        let mut m = CodeKeyMap::new(2);
        m.insert(&[1, 2], 10);
        m.insert(&[3, 4], 20);
        let got: Vec<(Vec<u32>, u32)> = m.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        assert_eq!(got, vec![(vec![1, 2], 10), (vec![3, 4], 20)]);
    }

    #[test]
    fn default_map_probes_as_miss() {
        let m = CodeKeyMap::default();
        assert!(m.is_empty());
        assert_eq!(m.get(&[]), None);
    }

    #[test]
    fn sentinel_code_is_a_valid_key_word() {
        // u32::MAX never appears as a *code*, but the map must not confuse a
        // key containing it with an empty slot.
        let mut m = CodeKeyMap::new(1);
        m.insert(&[u32::MAX], 9);
        assert_eq!(m.get(&[u32::MAX]), Some(9));
    }
}
