//! Dictionary encoding: a **sharded, append-only** interner mapping every
//! [`Value`] to a dense `u32` *code*.
//!
//! The enumeration indexes spend their preprocessing hashing and comparing
//! tuple keys. Hashing a `Value` means branching on the enum discriminant
//! and, for strings, walking the character data; comparing two
//! `Box<[Value]>` keys repeats that per attribute. Interning each distinct
//! value once at load time collapses all of that to `u32` word operations:
//! two values are equal **iff** their codes in one [`Dictionary`] are equal,
//! so bucket keys, full-tuple lookups, and semijoin probes can run over
//! borrowed `&[u32]` slices with zero allocation (see
//! [`crate::codemap::CodeKeyMap`] and DESIGN.md §5).
//!
//! ## One dictionary per database
//!
//! A [`crate::Database`] owns one dictionary, shared by `Arc` with every
//! [`crate::Relation`] whose codes it issued. A dictionary only grows: a
//! code, once issued, means its value for the dictionary's whole life, so
//! no relation holding the dictionary can ever see its codes go stale.
//! Memory stays bounded by dropping dictionaries, not by recycling codes:
//! a short-lived database takes its dictionary with it, and a long-lived
//! one that churns calls [`crate::Database::compact_dictionary`], which
//! re-encodes its live relations into a fresh dictionary. Relations and
//! clones still holding the old one keep it alive and stay valid.
//!
//! ## Sharding
//!
//! Values hash-partition into [`SHARD_COUNT`] shards, each an independent
//! `RwLock`-protected map. A code packs `(local slot, shard)` into one
//! `u32`: `code = (local << SHARD_BITS) | shard`. Two threads interning
//! values that land in different shards never contend, which is what makes
//! parallel ingest ([`Dictionary::intern_all`] with `threads > 1`) scale.
//!
//! Concurrency: read-mostly `RwLock`s, one per shard. [`Dictionary::code_of`]
//! (probe without inserting, used to resolve query constants) takes only
//! the shard's read lock; [`Dictionary::intern`] upgrades to the write lock
//! on a genuine miss.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::value::Value;
use crate::DataError;
use rae_faults::fail_point;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Codes are dense `u32`s; `u32::MAX` is reserved as a sentinel for hash-map
/// internals.
pub type ValueCode = u32;

/// The reserved sentinel code (never assigned to a value).
pub const NO_CODE: ValueCode = u32::MAX;

/// Number of shards the value space hash-partitions into. A power of two;
/// 16 shards keep lock contention negligible at ingest parallelism levels a
/// single machine supports while costing only 4 bits of code space.
pub const SHARD_COUNT: usize = 16;
const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();
/// Largest local slot that still composes to a code below [`NO_CODE`].
const MAX_LOCAL: u32 = (u32::MAX >> SHARD_BITS) - 1;

/// Values held by all live dictionaries together.
static HELD: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`HELD`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Number of values held by all live dictionaries of the process.
///
/// Exists only for perfbench's `data.interned` metric until its dictionary
/// metrics are redefined per database (ROADMAP M); library code never
/// reads it.
pub fn interned_count() -> usize {
    HELD.load(Ordering::Relaxed)
}

/// High-water mark of [`interned_count`] over the life of the process.
///
/// Exists only for perfbench's `data.allocated_slots` metric until its
/// dictionary metrics are redefined per database (ROADMAP M); library code
/// never reads it.
pub fn allocated_slot_count() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// One shard: value → local slot. Slots are issued densely in insertion
/// order, so a shard's next slot is its map's length.
#[derive(Default)]
struct Shard {
    map: FxHashMap<Value, u32>,
}

/// Shard read access, recovering from lock poisoning. A writer that
/// panicked mid-`intern_at` can at worst have panicked before its insert:
/// every map entry it did write is a complete `value → local` pair, so the
/// shard state a poisoned guard exposes is always safe to read. Recovering
/// here keeps one panicking writer from permanently wedging every
/// subsequent intern.
fn read_shard(lock: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Shard write access, recovering from lock poisoning (see [`read_shard`]).
fn write_shard(lock: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The shard a value hash-partitions into.
#[inline]
fn shard_of(value: &Value) -> usize {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    let h = hasher.finish();
    // Fold high bits in: the per-shard maps use the same hash function, so
    // taking raw low bits for shard selection would drain their entropy.
    ((h >> 32) ^ h) as usize & (SHARD_COUNT - 1)
}

/// Packs `(local slot, shard)` into a code, rejecting slots beyond the
/// per-shard capacity (so [`NO_CODE`] is never minted).
#[inline]
fn compose_code(shard: usize, local: u32) -> Result<ValueCode, DataError> {
    if local > MAX_LOCAL {
        return Err(DataError::DictionaryFull);
    }
    Ok((local << SHARD_BITS) | shard as u32)
}

/// An append-only value ↔ code dictionary (see the module docs).
pub struct Dictionary {
    shards: [RwLock<Shard>; SHARD_COUNT],
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            shards: std::array::from_fn(|_| RwLock::default()),
        }
    }
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Interns `value`, returning its code (issuing a fresh one on first
    /// sight).
    ///
    /// # Errors
    /// Returns [`DataError::DictionaryFull`] if the value's shard has
    /// exhausted its slot space (2^28 − 1 values per shard).
    pub fn intern(&self, value: &Value) -> Result<ValueCode, DataError> {
        self.intern_at(shard_of(value), value)
    }

    /// [`Dictionary::intern`] with the shard already resolved (callers that
    /// partition by shard — [`Dictionary::intern_all`] — hash each value for
    /// shard selection only once).
    fn intern_at(&self, s: usize, value: &Value) -> Result<ValueCode, DataError> {
        fail_point!("dict/intern", |site| Err(DataError::FaultInjected { site }));
        {
            let guard = read_shard(&self.shards[s]);
            if let Some(&local) = guard.map.get(value) {
                return compose_code(s, local);
            }
        }
        let mut guard = write_shard(&self.shards[s]);
        // Panic-kind faults here fire while the write guard is held,
        // poisoning the shard lock before any mutation — exactly the
        // scenario the recovering guards above exist for.
        fail_point!("dict/shard_write");
        if let Some(&local) = guard.map.get(value) {
            return compose_code(s, local);
        }
        let local = guard.map.len() as u32;
        // Validate before inserting so a full shard stays unmodified.
        let code = compose_code(s, local)?;
        guard.map.insert(value.clone(), local);
        let held = HELD.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK.fetch_max(held, Ordering::Relaxed);
        Ok(code)
    }

    /// Looks up the code of `value` without interning.
    ///
    /// `None` means the value is not in this dictionary — for
    /// answer-membership probes that is a definitive "not an answer".
    pub fn code_of(&self, value: &Value) -> Option<ValueCode> {
        let s = shard_of(value);
        let guard = read_shard(&self.shards[s]);
        guard
            .map
            .get(value)
            .map(|&local| (local << SHARD_BITS) | s as u32)
    }

    /// Interns a batch of values, optionally in parallel.
    ///
    /// With `threads > 1` the batch is pre-partitioned by shard and each
    /// thread interns a disjoint set of shards, so writer locks never
    /// contend. Codes are identical to serial interning; this is purely an
    /// ingest-throughput lever for churn-style bulk loads.
    pub fn intern_all(&self, values: &[Value], threads: usize) -> Result<(), DataError> {
        let threads = threads.clamp(1, SHARD_COUNT);
        if threads == 1 || values.len() < 1024 {
            for v in values {
                self.intern(v)?;
            }
            return Ok(());
        }
        // One partition pass (the only place each value is hashed for shard
        // selection), then shard-striped workers interning disjoint shards.
        let mut by_shard: Vec<Vec<&Value>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for v in values {
            by_shard[shard_of(v)].push(v);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let stripes: Vec<(usize, &[&Value])> = by_shard
                    .iter()
                    .enumerate()
                    .filter(|(s, _)| s % threads == t)
                    .map(|(s, vs)| (s, vs.as_slice()))
                    .collect();
                handles.push(scope.spawn(move || -> Result<(), DataError> {
                    for (s, stripe) in stripes {
                        for v in stripe {
                            self.intern_at(s, v)?;
                        }
                    }
                    Ok(())
                }));
            }
            // Join every handle before reporting (an early return would make
            // `scope` re-throw the panic of any still-unjoined worker), and
            // surface a worker panic as a structured, retryable error:
            // interning is additive, so whatever the workers did complete is
            // valid state.
            let mut result = Ok(());
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        if result.is_ok() {
                            result = Err(e);
                        }
                    }
                    Err(_) => {
                        if result.is_ok() {
                            result = Err(DataError::WorkerPanicked {
                                context: "dict/intern_all",
                            });
                        }
                    }
                }
            }
            result
        })
    }

    /// Number of values interned.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).map.len()).sum()
    }

    /// Whether no value is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Dictionary {
    fn drop(&mut self) {
        let held: usize = self
            .shards
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum();
        HELD.fetch_sub(held, Ordering::Relaxed);
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dictionary [{} values]", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_value_same_code() {
        let dict = Dictionary::new();
        let a = dict.intern(&Value::Int(123_456)).unwrap();
        let b = dict.intern(&Value::Int(123_456)).unwrap();
        assert_eq!(a, b);
        let s1 = dict.intern(&Value::str("dict-test-string")).unwrap();
        let s2 = dict.intern(&Value::str("dict-test-string")).unwrap();
        assert_eq!(s1, s2);
        assert_ne!(a, s1);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn distinct_values_distinct_codes() {
        let dict = Dictionary::new();
        let a = dict.intern(&Value::Int(777_001)).unwrap();
        let b = dict.intern(&Value::Int(777_002)).unwrap();
        assert_ne!(a, b);
        // Int and Str with "same" content are different values.
        let i = dict.intern(&Value::Int(777_003)).unwrap();
        let s = dict.intern(&Value::str("777003")).unwrap();
        assert_ne!(i, s);
    }

    #[test]
    fn code_of_probes_without_inserting() {
        let dict = Dictionary::new();
        assert_eq!(dict.code_of(&Value::str("never-interned-probe")), None);
        assert_eq!(dict.code_of(&Value::str("never-interned-probe")), None);
        assert!(dict.is_empty());
        let code = dict.intern(&Value::str("never-interned-probe")).unwrap();
        assert_eq!(
            dict.code_of(&Value::str("never-interned-probe")),
            Some(code)
        );
    }

    #[test]
    fn concurrent_intern_is_consistent() {
        let dict = Dictionary::new();
        let results: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..100)
                            .map(|i| dict.intern(&Value::Int(900_000 + i)).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thread must have observed the same code per value.
        for per_thread in &results[1..] {
            assert_eq!(per_thread, &results[0]);
        }
        assert_eq!(dict.len(), 100);
    }

    #[test]
    fn parallel_batch_intern_matches_serial_codes() {
        let values: Vec<Value> = (0..5000i64)
            .map(|i| {
                if i % 3 == 0 {
                    Value::str(format!("par-intern-{i}"))
                } else {
                    Value::Int(7_000_000 + i)
                }
            })
            .collect();
        let dict = Dictionary::new();
        dict.intern_all(&values, 4).unwrap();
        assert_eq!(dict.len(), values.len());
        for v in &values {
            // Serial re-intern must agree with what the parallel pass stored.
            assert_eq!(dict.intern(v).unwrap(), dict.code_of(v).unwrap());
        }
    }

    #[test]
    fn codes_round_trip_shard_and_slot() {
        // Codes from different shards never collide: (local, shard) packing
        // is injective under MAX_LOCAL.
        for shard in 0..SHARD_COUNT {
            for local in [0u32, 1, 17, MAX_LOCAL] {
                let code = compose_code(shard, local).unwrap();
                assert_ne!(code, NO_CODE);
                assert_eq!(code & (SHARD_COUNT as u32 - 1), shard as u32);
                assert_eq!(code >> SHARD_BITS, local);
            }
        }
    }

    #[test]
    fn compose_code_rejects_exhausted_slot_space() {
        // The u32-code-overflow error path: one slot past MAX_LOCAL must be
        // a recoverable DictionaryFull, never a wrapped/sentinel code.
        assert!(matches!(
            compose_code(0, MAX_LOCAL + 1),
            Err(DataError::DictionaryFull)
        ));
        assert!(matches!(
            compose_code(SHARD_COUNT - 1, u32::MAX >> SHARD_BITS),
            Err(DataError::DictionaryFull)
        ));
        // The largest legal slot in the last shard is still below NO_CODE.
        let max = compose_code(SHARD_COUNT - 1, MAX_LOCAL).unwrap();
        assert!(max < NO_CODE);
    }

    #[test]
    fn shard_partition_is_reasonably_balanced() {
        let mut counts = [0usize; SHARD_COUNT];
        for i in 0..16_000i64 {
            counts[shard_of(&Value::Int(i))] += 1;
        }
        let expected = 16_000 / SHARD_COUNT;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 4 && c < expected * 4,
                "shard {s} got {c} of 16000 values (expected ≈{expected})"
            );
        }
    }
}
