//! Dictionary encoding: a process-wide, **sharded, generational** interner
//! mapping every [`Value`] to a dense `u32` *code*.
//!
//! The enumeration indexes spend their hot path hashing and comparing tuple
//! keys. Hashing a `Value` means branching on the enum discriminant and, for
//! strings, walking the character data; comparing two `Box<[Value]>` keys
//! repeats that per attribute. Interning each distinct value once at load
//! time collapses all of that to `u32` word operations: two values are equal
//! **iff** their codes are equal *within one dictionary generation*, so
//! bucket keys, full-tuple lookups, and semijoin probes can run over
//! borrowed `&[u32]` slices with zero allocation (see
//! [`crate::codemap::CodeKeyMap`] and DESIGN.md §5).
//!
//! ## Sharding
//!
//! Values hash-partition into [`SHARD_COUNT`] shards, each an independent
//! `RwLock`-protected map. A code packs `(local slot, shard)` into one
//! `u32`: `code = (local << SHARD_BITS) | shard`. Two threads interning
//! values that land in different shards never contend, which is what makes
//! parallel ingest ([`intern_all`] with `threads > 1`) scale.
//!
//! ## Generations and the relation lifecycle
//!
//! The PR-1 dictionary was append-only: values interned by relations that
//! had since been dropped stayed resident forever, so long-running ingest of
//! unbounded fresh values leaked codes without bound. The dictionary is now
//! *generational*:
//!
//! * [`current_generation`] is a monotone counter, bumped by
//!   [`advance_generation`].
//! * [`advance_generation`] takes the set of **live** values (the values of
//!   every relation the caller intends to keep), frees the codes of all
//!   other values onto per-shard free lists, and bumps the generation.
//!   Live values keep their numeric codes — survivors never need remapping.
//! * Freed codes are **reused** by later interns, so the slot high-water
//!   mark ([`allocated_slot_count`]) is bounded by the peak number of
//!   *simultaneously live* values, not by the total ever interned.
//!
//! Every [`crate::Relation`] records the generation its code mirror was
//! encoded against. After a sweep, a relation whose values were not in the
//! live set may hold codes that have been reused for *different* values, so
//! its mirror is **stale**: code equality no longer implies value equality.
//! Stale relations are detected (not silently mis-joined) — mutating a stale
//! relation returns [`DataError::StaleGeneration`], and `rae-core` indexes
//! refuse to build over (and report stale access on) relations from an old
//! generation. [`crate::Relation::rehydrate`] re-encodes a stale mirror.
//!
//! [`advance_generation`] is a **process-level** operation (the dictionary
//! is global): every database in the process must either contribute its
//! values to the live set or rehydrate afterwards.
//! [`crate::Database::advance_generation`] drives the common
//! single-database lifecycle. Test binaries that sweep serialize their
//! tests behind a mutex so concurrently running tests never observe a
//! sweep mid-flight.
//!
//! Concurrency: read-mostly `RwLock`s, one per shard. `code_of` (probe
//! without inserting, used by inverted access) takes only the shard's read
//! lock; `intern` upgrades to the write lock on a genuine miss.

use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::value::Value;
use crate::DataError;
use rae_faults::fail_point;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Codes are dense `u32`s; `u32::MAX` is reserved as a sentinel for hash-map
/// internals.
pub type ValueCode = u32;

/// The reserved sentinel code (never assigned to a value).
pub const NO_CODE: ValueCode = u32::MAX;

/// A dictionary generation number (monotone, process-wide).
pub type Generation = u64;

/// Number of shards the value space hash-partitions into. A power of two;
/// 16 shards keep lock contention negligible at ingest parallelism levels a
/// single machine supports while costing only 4 bits of code space.
pub const SHARD_COUNT: usize = 16;
const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();
/// Largest local slot that still composes to a code below [`NO_CODE`].
const MAX_LOCAL: u32 = (u32::MAX >> SHARD_BITS) - 1;

/// One shard: value → local slot, plus the free list of reclaimed slots.
#[derive(Default)]
struct Shard {
    map: FxHashMap<Value, u32>,
    /// Local slots freed by [`advance_generation`] and cleared for reuse,
    /// consumed before fresh slots are minted.
    free: Vec<u32>,
    /// Slots freed by a sweep while some [`GenerationPin`] older than that
    /// sweep was alive, tagged with the generation the sweep produced. They
    /// graduate to `free` only once every pin from before their sweep is
    /// gone (see [`release_quarantine`]) — recycling them earlier would let
    /// a pinned reader's code mean a *different* value mid-read.
    quarantine: Vec<(Generation, Vec<u32>)>,
    /// High-water slot count (fresh slots minted so far).
    next_local: u32,
}

fn shards() -> &'static [RwLock<Shard>; SHARD_COUNT] {
    static SHARDS: OnceLock<[RwLock<Shard>; SHARD_COUNT]> = OnceLock::new();
    SHARDS.get_or_init(|| std::array::from_fn(|_| RwLock::new(Shard::default())))
}

/// Shard read access, recovering from lock poisoning. A writer that panicked
/// mid-`intern_at` can at worst have popped a free slot it never inserted
/// (a leaked slot, not a wrong mapping): every map entry it did write is a
/// complete `value → local` pair, so the shard state a poisoned guard
/// exposes is always safe to read. Recovering here keeps one panicking
/// writer from permanently wedging every subsequent intern.
fn read_shard(lock: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Shard write access, recovering from lock poisoning (see [`read_shard`]).
fn write_shard(lock: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Alive [`GenerationPin`]s: generation → pin count. A `BTreeMap` so the
/// oldest pinned generation is `keys().next()`.
static PINS: Mutex<BTreeMap<Generation, usize>> = Mutex::new(BTreeMap::new());

fn lock_pins() -> MutexGuard<'static, BTreeMap<Generation, usize>> {
    // The registry only holds counters; a panic under the guard cannot
    // leave them half-written in a way reads would misinterpret.
    PINS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The oldest generation some alive pin holds, if any.
fn min_pinned() -> Option<Generation> {
    lock_pins().keys().next().copied()
}

/// Holds the dictionary generation it was created at: while the pin is
/// alive, no slot freed by a sweep *newer than that generation* is recycled
/// (it sits in per-shard quarantine instead). This is the safety half of
/// concurrent serving — a reader thread holding a published snapshot can
/// keep probing the snapshot's codes while the writer sweeps, without an
/// unchecked hot-path access ever resolving a code to a recycled slot's new
/// value. (Keeping swept values *probe-able* for the snapshot is the
/// liveness half, handled by the sweeper passing them as extra live
/// values — see [`crate::Database::advance_generation_with_extra_live`].)
///
/// Dropping the pin releases the hold; quarantined slots are reclaimed
/// lazily by later interns.
#[derive(Debug)]
pub struct GenerationPin {
    generation: Generation,
}

impl GenerationPin {
    /// The generation this pin holds.
    pub fn generation(&self) -> Generation {
        self.generation
    }
}

impl Drop for GenerationPin {
    fn drop(&mut self) {
        let mut pins = lock_pins();
        if let Some(count) = pins.get_mut(&self.generation) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.generation);
            }
        }
    }
}

/// Pins the current generation (see [`GenerationPin`]).
///
/// Pinning races a concurrent sweep benignly: if the generation advances
/// between the read and the registration, the stale registration is undone
/// and the pin moves forward — the returned pin's generation is always one
/// whose sweep-freed predecessors either were quarantined or had already
/// been freed before any snapshot at this generation could exist.
pub fn pin_current_generation() -> GenerationPin {
    let mut pins = lock_pins();
    loop {
        let g = current_generation();
        *pins.entry(g).or_insert(0) += 1;
        // `advance_generation` bumps the counter *before* consulting the
        // registry, so if the generation is unchanged here, our registration
        // is visible to every sweep that could free generation-`g` codes.
        if current_generation() == g {
            return GenerationPin { generation: g };
        }
        // A sweep raced the registration: undo it and pin the new
        // generation instead.
        if let Some(count) = pins.get_mut(&g) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&g);
            }
        }
    }
}

/// Number of alive generation pins (observability for tests).
pub fn pinned_generation_count() -> usize {
    lock_pins().values().sum()
}

/// Moves every quarantine entry whose pins are all gone onto the shard's
/// free list. An entry tagged `g` (freed by the sweep that produced
/// generation `g`) is releasable when no alive pin is older than `g`: pins
/// at `≥ g` were taken after that sweep and never saw the freed codes.
fn release_quarantine(shard: &mut Shard) {
    if shard.quarantine.is_empty() {
        return;
    }
    let min = min_pinned();
    let Shard {
        free, quarantine, ..
    } = shard;
    quarantine.retain_mut(|(tag, slots)| {
        // MSRV 1.75: spelled as a match, `Option::is_none_or` is 1.82+.
        let releasable = match min {
            None => true,
            Some(m) => m >= *tag,
        };
        if releasable {
            free.append(slots);
            false
        } else {
            true
        }
    });
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

/// The current dictionary generation. Relations whose recorded generation is
/// older may hold reused codes and must be rehydrated before code-based use.
#[inline]
pub fn current_generation() -> Generation {
    GENERATION.load(Ordering::Acquire)
}

/// Interns `value`, returning its code (assigning a fresh or recycled one on
/// first sight since the last sweep).
///
/// # Errors
/// Returns [`DataError::DictionaryFull`] if the value's shard has exhausted
/// its slot space (2^28 − 1 simultaneously live values per shard).
pub fn intern(value: &Value) -> Result<ValueCode, DataError> {
    intern_at(shard_of(value), value)
}

/// [`intern`] with the shard already resolved (callers that partition by
/// shard — [`intern_all`] — hash each value for shard selection only once).
fn intern_at(s: usize, value: &Value) -> Result<ValueCode, DataError> {
    fail_point!("dict/intern", |site| Err(DataError::FaultInjected { site }));
    {
        let guard = read_shard(&shards()[s]);
        if let Some(&local) = guard.map.get(value) {
            return compose_code(s, local);
        }
    }
    let mut guard = write_shard(&shards()[s]);
    // Panic-kind faults here fire while the write guard is held, poisoning
    // the shard lock before any mutation — exactly the scenario the
    // recovering guards above exist for.
    fail_point!("dict/shard_write");
    insert_locked(&mut guard, s, value)
}

/// Interns `value` into shard `s`, whose write lock the caller holds.
fn insert_locked(shard: &mut Shard, s: usize, value: &Value) -> Result<ValueCode, DataError> {
    if let Some(&local) = shard.map.get(value) {
        return compose_code(s, local);
    }
    if shard.free.is_empty() {
        // Reclaim pin-expired quarantined slots before minting fresh ones,
        // so pinning delays reuse instead of leaking slot space.
        release_quarantine(shard);
    }
    let local = match shard.free.pop() {
        Some(recycled) => recycled,
        None => {
            let fresh = shard.next_local;
            // Validate before minting so a full shard stays unmodified.
            compose_code(s, fresh)?;
            shard.next_local += 1;
            fresh
        }
    };
    let code = compose_code(s, local)?;
    shard.map.insert(value.clone(), local);
    Ok(code)
}

/// Looks up the code of `value` without interning.
///
/// `None` means the value is not interned in the current generation — for
/// answer-membership probes that is a definitive "not an answer".
pub fn code_of(value: &Value) -> Option<ValueCode> {
    let s = shard_of(value);
    let guard = read_shard(&shards()[s]);
    guard
        .map
        .get(value)
        .map(|&local| (local << SHARD_BITS) | s as u32)
}

/// Looks up the codes of a whole tuple, appending them to `out` (not
/// cleared). Returns `false` — leaving `out` in an unspecified, partially
/// extended state — as soon as any value is unknown, which for answer probes
/// means "not an answer".
///
/// This is the hot-path variant for inverted access: lookups are grouped by
/// shard, so each shard's read lock is acquired at most once per tuple (not
/// once per attribute) and each value is hashed for shard selection only
/// once. Steady-state it allocates nothing (`out` grows to the tuple arity
/// once and is reused by the caller's scratch).
pub fn codes_of(values: &[Value], out: &mut Vec<ValueCode>) -> bool {
    // Pass 1: record each value's shard in the output slots.
    let start = out.len();
    for value in values {
        out.push(shard_of(value) as ValueCode);
    }
    // Pass 2: one guard per distinct shard, overwriting slots with codes.
    // Shard ids and codes share the slot space safely: slots still holding
    // a shard id are exactly the not-yet-visited ones for a later shard.
    let slots = &mut out[start..];
    for s in 0..SHARD_COUNT as ValueCode {
        if !slots.contains(&s) {
            continue;
        }
        let guard = read_shard(&shards()[s as usize]);
        for (slot, value) in slots.iter_mut().zip(values) {
            if *slot == s {
                match guard.map.get(value) {
                    Some(&local) => *slot = (local << SHARD_BITS) | s,
                    None => return false,
                }
            }
        }
    }
    true
}

/// Interns a batch of values, optionally in parallel.
///
/// With `threads > 1` the batch is pre-partitioned by shard and each thread
/// interns a disjoint set of shards, so writer locks never contend. Codes
/// are identical to serial interning (the dictionary is shared); this is
/// purely an ingest-throughput lever for churn-style bulk loads.
pub fn intern_all(values: &[Value], threads: usize) -> Result<(), DataError> {
    let threads = threads.clamp(1, SHARD_COUNT);
    if threads == 1 || values.len() < 1024 {
        for v in values {
            intern(v)?;
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
                        intern_at(s, v)?;
                    }
                }
                Ok(())
            }));
        }
        // Join every handle before reporting (an early return would make
        // `scope` re-throw the panic of any still-unjoined worker), and
        // surface a worker panic as a structured, retryable error: interning
        // is additive, so whatever the workers did complete is valid state.
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

/// Sweeps the dictionary: frees the code of every value **not** in `live`,
/// bumps the generation, and returns the new generation number.
///
/// Live values keep their codes; freed codes go onto per-shard free lists
/// and are recycled by later [`intern`] calls. Because recycled codes can
/// come to mean *different* values, any relation whose mirror was encoded
/// before the sweep and whose values were not all in `live` is stale — see
/// the module docs and [`crate::Relation::rehydrate`].
///
/// All shard write locks are held for the duration, so the sweep is atomic
/// with respect to concurrent interns and probes.
pub fn advance_generation<'a>(live: impl IntoIterator<Item = &'a Value>) -> Generation {
    // Panic-kind faults fire before any guard is taken or state touched, so
    // an aborted sweep leaves dictionary and generation exactly as they were.
    fail_point!("dict/sweep");
    let mut guards: Vec<_> = shards().iter().map(write_shard).collect();
    let mut live_locals: Vec<FxHashSet<u32>> =
        (0..SHARD_COUNT).map(|_| FxHashSet::default()).collect();
    for value in live {
        let s = shard_of(value);
        if let Some(&local) = guards[s].map.get(value) {
            live_locals[s].insert(local);
        }
    }
    // Bump the generation *before* freeing any slot. If the sweep below
    // panics mid-way, the recycled-slot invariant still holds: every freed
    // slot belongs to an older generation than any relation stamp a caller
    // can hold (stamping happens after this function returns), so a partial
    // sweep can only leak slots, never let two values share a live code
    // within one generation. The counter itself advances exactly once —
    // never half-way.
    let next = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
    // Pins taken before this sweep (generation < next) may still be probing
    // the codes we are about to free; route those slots through quarantine.
    // `min_pinned` is read after the bump, matching the registration-order
    // handshake in `pin_current_generation`.
    let quarantine_freed = min_pinned().is_some_and(|m| m < next);
    for (guard, live) in guards.iter_mut().zip(&live_locals) {
        let Shard {
            map,
            free,
            quarantine,
            ..
        } = &mut **guard;
        let mut freed = Vec::new();
        map.retain(|_, local| {
            if live.contains(local) {
                true
            } else {
                freed.push(*local);
                false
            }
        });
        if !freed.is_empty() {
            if quarantine_freed {
                quarantine.push((next, freed));
            } else {
                free.append(&mut freed);
            }
        }
        // While all the write locks are held anyway, reclaim whatever older
        // quarantine entries have outlived their pins.
        release_quarantine(guard);
    }
    next
}

/// Number of freed slots currently quarantined behind generation pins.
pub fn quarantined_slot_count() -> usize {
    shards()
        .iter()
        .map(|s| {
            read_shard(s)
                .quarantine
                .iter()
                .map(|(_, v)| v.len())
                .sum::<usize>()
        })
        .sum()
}

/// Number of distinct values interned in the current generation.
pub fn interned_count() -> usize {
    shards().iter().map(|s| read_shard(s).map.len()).sum()
}

/// High-water slot count: codes ever minted fresh (recycled slots are not
/// re-counted). Bounded churn means this plateaus while cumulative distinct
/// values grow without bound — the churn benchmark records exactly this.
pub fn allocated_slot_count() -> usize {
    shards()
        .iter()
        .map(|s| read_shard(s).next_local as usize)
        .sum()
}

/// Number of reclaimed codes currently awaiting reuse.
pub fn free_slot_count() -> usize {
    shards().iter().map(|s| read_shard(s).free.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: no test in this (unit) binary may call `advance_generation` —
    // unit tests across the crate run concurrently against the process-wide
    // dictionary, and a sweep would corrupt their mirrors. Sweep semantics
    // are covered by the serialized integration suite in
    // `tests/dict_generations.rs`.

    #[test]
    fn same_value_same_code() {
        let a = intern(&Value::Int(123_456)).unwrap();
        let b = intern(&Value::Int(123_456)).unwrap();
        assert_eq!(a, b);
        let s1 = intern(&Value::str("dict-test-string")).unwrap();
        let s2 = intern(&Value::str("dict-test-string")).unwrap();
        assert_eq!(s1, s2);
        assert_ne!(a, s1);
    }

    #[test]
    fn distinct_values_distinct_codes() {
        let a = intern(&Value::Int(777_001)).unwrap();
        let b = intern(&Value::Int(777_002)).unwrap();
        assert_ne!(a, b);
        // Int and Str with "same" content are different values.
        let i = intern(&Value::Int(777_003)).unwrap();
        let s = intern(&Value::str("777003")).unwrap();
        assert_ne!(i, s);
    }

    #[test]
    fn code_of_probes_without_inserting() {
        assert_eq!(code_of(&Value::str("never-interned-probe-xyzzy")), None);
        assert_eq!(code_of(&Value::str("never-interned-probe-xyzzy")), None);
        let code = intern(&Value::str("never-interned-probe-xyzzy")).unwrap();
        assert_eq!(
            code_of(&Value::str("never-interned-probe-xyzzy")),
            Some(code)
        );
    }

    #[test]
    fn codes_of_batches_a_tuple() {
        let a = intern(&Value::Int(555_001)).unwrap();
        let b = intern(&Value::str("codes-of-batch-test")).unwrap();
        let mut out = Vec::new();
        assert!(codes_of(
            &[Value::Int(555_001), Value::str("codes-of-batch-test")],
            &mut out
        ));
        assert_eq!(out, vec![a, b]);
        // Unknown value anywhere in the tuple → false.
        let mut out = Vec::new();
        assert!(!codes_of(
            &[Value::Int(555_001), Value::str("codes-of-never-interned")],
            &mut out
        ));
    }

    #[test]
    fn concurrent_intern_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| intern(&Value::Int(900_000 + i)).unwrap())
                        .collect::<Vec<_>>()
                        .into_iter()
                        .zip(0..100)
                        .map(move |(c, i)| (t, i, c))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<(i32, i64, u32)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must have observed the same code per value.
        for per_thread in &results[1..] {
            for (a, b) in results[0].iter().zip(per_thread) {
                assert_eq!(a.2, b.2, "value {} got two codes", a.1);
            }
        }
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
        intern_all(&values, 4).unwrap();
        for v in &values {
            // Serial re-intern must agree with what the parallel pass stored.
            assert_eq!(intern(v).unwrap(), code_of(v).unwrap());
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

    #[test]
    fn generation_counter_is_monotone_readable() {
        // Reading the generation must not require any lock; sweeps happen
        // only in the serialized integration suite.
        let g = current_generation();
        assert!(current_generation() >= g);
    }
}
