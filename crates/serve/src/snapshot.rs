//! Immutable published snapshots and the epoch-gated reader handles.
//!
//! A [`Snapshot`] is the unit of publication: a frozen `(base ⊎ delta) ∖ T`
//! access structure — a [`RankedUcq`] union of the base index and at most
//! one delta index, with deletions realized as *tombstoned union ranks*.
//! Publication is an `Arc` swap behind [`ServingIndex`]; steady-state
//! readers pay one atomic epoch load per operation and otherwise touch no
//! shared mutable state.

use crate::Result;
use crate::ServeError;
use rae_core::{DeletableSet, RankedScratch, RankedUcq, Weight};
use rae_data::{Symbol, Value};
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A frozen, immutable access structure over one published state of the
/// data: union members (base and optionally delta) plus tombstoned union
/// ranks. All operations are `&self` and lock-free; snapshots are shared
/// across reader threads via `Arc`.
///
/// A snapshot reads nothing outside itself: every member index holds ranks
/// into its own value table, so dictionary sweeps by later folds cannot
/// change what a held snapshot serves.
#[derive(Debug)]
pub struct Snapshot {
    /// Base ⊎ delta with duplicates counted once (union rank algebra).
    union: RankedUcq,
    /// Sorted union ranks of answers deleted since the base was built.
    tombstone_ranks: Vec<Weight>,
    /// The survivor set over the union-rank universe (Lemma 5.3): plain
    /// access and sampling go through its O(1) `select`/`sample`.
    live: DeletableSet,
    /// Monotone publication counter (0 = initial snapshot).
    epoch: u64,
    /// Answers contributed by the delta member (0 for a folded snapshot).
    delta_count: Weight,
}

impl Snapshot {
    pub(crate) fn assemble(
        union: RankedUcq,
        mut tombstone_ranks: Vec<Weight>,
        epoch: u64,
        delta_count: Weight,
    ) -> Result<Self> {
        tombstone_ranks.sort_unstable();
        tombstone_ranks.dedup();
        let universe = union.count();
        let mut live = DeletableSet::new(universe);
        for &r in &tombstone_ranks {
            if !live.delete(r) {
                return Err(ServeError::Invariant(
                    "tombstone rank out of the union-rank universe",
                ));
            }
        }
        Ok(Snapshot {
            union,
            tombstone_ranks,
            live,
            epoch,
            delta_count,
        })
    }

    /// The number of live (non-tombstoned) answers — O(1).
    pub fn count(&self) -> Weight {
        self.live.remaining()
    }

    /// The publication epoch of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tombstoned (deleted-but-unfolded) answers — O(1).
    pub fn tombstone_count(&self) -> Weight {
        self.tombstone_ranks.len() as Weight
    }

    /// Answers served by the delta member (0 after a fold) — O(1).
    pub fn delta_count(&self) -> Weight {
        self.delta_count
    }

    /// The head attributes, in answer-tuple order.
    pub fn head(&self) -> &[Symbol] {
        self.union.head()
    }

    /// The realized lexicographic variable order.
    pub fn order(&self) -> &[Symbol] {
        self.union.order()
    }

    /// Translates a live rank `k` to its union rank in one binary search.
    /// `t_j − j` counts the live ranks below tombstone `t_j` and never
    /// decreases in `j`; the first `j` with `t_j − j > k` is the number of
    /// tombstones below the `k`-th live answer, whose union rank is `k + j`.
    fn union_rank(&self, k: Weight) -> Weight {
        let t = &self.tombstone_ranks;
        let (mut lo, mut hi) = (0usize, t.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // Sorted distinct ranks: t_j ≥ j.
            if t[mid] - mid as Weight <= k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        k + lo as Weight
    }

    /// The `k`-th live answer under the order, or `None` when
    /// `k ≥ count()` — a tombstone rank translation (one O(log |T|) binary
    /// search) plus the union access ([`RankedUcq::ordered_access`]): a
    /// folded snapshot reads one core access; an overlay snapshot searches
    /// the delta's fences (stride 1 for the single-atom delta, so no
    /// probes) and then makes one member access.
    pub fn ordered_access(&self, k: Weight) -> Option<Vec<Value>> {
        RankedScratch::with_thread_local(|s| self.ordered_access_into(k, s).map(<[Value]>::to_vec))
    }

    /// Allocation-free [`Snapshot::ordered_access`]: writes into `scratch`
    /// and returns a borrow.
    pub fn ordered_access_into<'s>(
        &self,
        k: Weight,
        scratch: &'s mut RankedScratch,
    ) -> Option<&'s [Value]> {
        if k >= self.count() {
            return None;
        }
        self.union.ordered_access_into(self.union_rank(k), scratch)
    }

    /// The live rank of `answer`, or `None` if it is not a live answer
    /// (unknown tuples and tombstoned answers are indistinguishable here,
    /// exactly as deletion semantics require). One hash probe per member
    /// that contains the answer, a rank descent per member that lacks it.
    pub fn ordered_inverted_access(&self, answer: &[Value]) -> Option<Weight> {
        RankedScratch::with_thread_local(|s| self.ordered_inverted_access_of(answer, s))
    }

    /// Allocation-free [`Snapshot::ordered_inverted_access`] over the
    /// buffers in `scratch`.
    pub fn ordered_inverted_access_of(
        &self,
        answer: &[Value],
        scratch: &mut RankedScratch,
    ) -> Option<Weight> {
        let u = self.union.ordered_inverted_access_of(answer, scratch)?;
        let below = self.tombstone_ranks.partition_point(|&r| r < u);
        if self.tombstone_ranks.get(below) == Some(&u) {
            return None;
        }
        Some(u - below as Weight)
    }

    /// Plain (order-free) random access over the live answers: the `k`-th
    /// survivor in the [`DeletableSet`]'s arbitrary-but-fixed permuted
    /// order. Together with [`Snapshot::count`] this is the paper's plain
    /// access pair; rank-sensitive callers use
    /// [`Snapshot::ordered_access`].
    pub fn select(&self, k: Weight) -> Option<Vec<Value>> {
        RankedScratch::with_thread_local(|s| self.select_into(k, s).map(<[Value]>::to_vec))
    }

    /// Allocation-free [`Snapshot::select`].
    pub fn select_into<'s>(
        &self,
        k: Weight,
        scratch: &'s mut RankedScratch,
    ) -> Option<&'s [Value]> {
        let u = self.live.select(k)?;
        self.union.ordered_access_into(u, scratch)
    }

    /// Uniform sample over the live answers (with replacement), or `None`
    /// when the snapshot is empty.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Vec<Value>> {
        RankedScratch::with_thread_local(|s| self.sample_into(rng, s).map(<[Value]>::to_vec))
    }

    /// Allocation-free [`Snapshot::sample`].
    pub fn sample_into<'s, R: Rng>(
        &self,
        rng: &mut R,
        scratch: &'s mut RankedScratch,
    ) -> Option<&'s [Value]> {
        let u = self.live.sample(rng)?;
        self.union.ordered_access_into(u, scratch)
    }

    /// How many live answers match a prefix of order values — two rank
    /// descents plus two binary searches over the tombstones.
    pub fn range_count(&self, prefix: &[Value]) -> rae_core::Result<Weight> {
        let (lt, le) = self.union.prefix_bounds(prefix)?;
        let dead = self.tombstone_ranks.partition_point(|&r| r < le)
            - self.tombstone_ranks.partition_point(|&r| r < lt);
        Ok((le - lt) - dead as Weight)
    }

    /// A constant-delay-per-answer scan of the live answers in order.
    pub fn scan(&self) -> SnapshotScan<'_> {
        SnapshotScan {
            window: self.union.range(0..self.union.count()),
            rank: 0,
            tombstones: &self.tombstone_ranks,
            cursor: 0,
        }
    }

    /// An order-insensitive-free digest of the full live answer list *in
    /// enumeration order* — two snapshots (or a snapshot and a rebuilt
    /// oracle) serve the same answers in the same order iff their digests
    /// agree. Stable within a process; see [`enumeration_digest`].
    pub fn digest(&self) -> u64 {
        let mut scan = self.scan();
        let mut h = DefaultHasher::new();
        let mut n: u64 = 0;
        while let Some(row) = scan.next_ref() {
            row.hash(&mut h);
            n += 1;
        }
        n.hash(&mut h);
        h.finish()
    }
}

/// Digest of an answer enumeration, computed exactly as
/// [`Snapshot::digest`] computes it — the differential tests and the
/// chaos harness digest their fold-and-rebuild oracles through this to
/// compare against a served snapshot.
pub fn enumeration_digest<'a>(rows: impl Iterator<Item = &'a [Value]>) -> u64 {
    let mut h = DefaultHasher::new();
    let mut n: u64 = 0;
    for row in rows {
        row.hash(&mut h);
        n += 1;
    }
    n.hash(&mut h);
    h.finish()
}

/// Streaming scan over a [`Snapshot`]'s live answers (tombstones skipped
/// by a merge cursor, so a scan costs O(live + |T|) total).
#[derive(Debug)]
pub struct SnapshotScan<'a> {
    window: rae_core::RankedUnionWindow<'a>,
    rank: Weight,
    tombstones: &'a [Weight],
    cursor: usize,
}

impl SnapshotScan<'_> {
    /// The next live answer as a borrow of the merge buffer, or `None`
    /// when the scan is exhausted.
    pub fn next_ref(&mut self) -> Option<&[Value]> {
        loop {
            // Borrow-checker friendly: decide skip/keep from the rank
            // cursor before touching the window's buffer.
            let rank = self.rank;
            self.rank += 1;
            let dead = match self.tombstones.get(self.cursor) {
                Some(&t) if t == rank => {
                    self.cursor += 1;
                    true
                }
                _ => false,
            };
            if dead {
                self.window.next_ref()?;
                continue;
            }
            // `match` on the Option would extend the mutable borrow into
            // the `None` arm; polonius-free workaround.
            if self.window.remaining() == 0 {
                return None;
            }
            return self.window.next_ref();
        }
    }
}

/// The writer⇄reader rendezvous: one `RwLock`ed `Arc` slot plus a
/// monotone epoch. Readers re-lock only when the epoch moved; the writer
/// holds the write lock just long enough to swap one pointer.
#[derive(Debug)]
pub(crate) struct Shared {
    slot: RwLock<Arc<Snapshot>>,
    epoch: AtomicU64,
}

impl Shared {
    pub(crate) fn new(initial: Arc<Snapshot>) -> Self {
        let epoch = initial.epoch();
        Shared {
            slot: RwLock::new(initial),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// Publishes `snap` — called by the single writer only. A reader
    /// poisoned the lock only if it panicked while *cloning an Arc*, which
    /// leaves the slot intact, so poison is safely bypassed (same policy
    /// as the dictionary shards).
    pub(crate) fn publish(&self, snap: Arc<Snapshot>) {
        let epoch = snap.epoch();
        *self.slot.write().unwrap_or_else(PoisonError::into_inner) = snap;
        self.epoch.store(epoch, Ordering::Release);
    }

    fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A handle to the published snapshot sequence. Cheap to clone; hand one
/// to each thread and call [`ServingIndex::reader`] there, or use
/// [`ServingIndex::snapshot`] for one-shot access.
#[derive(Debug, Clone)]
pub struct ServingIndex {
    pub(crate) shared: Arc<Shared>,
}

impl ServingIndex {
    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.load()
    }

    /// The current publication epoch (atomic load).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// A per-thread reader handle caching the current snapshot.
    pub fn reader(&self) -> ServingReader {
        ServingReader {
            cached: self.shared.load(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Cold-start recovery: loads the newest valid persisted snapshot in
    /// `dir` (quarantining everything that fails validation — see
    /// [`rae_store::recover_dir`]) and publishes it as a read-only serving
    /// sequence at the snapshot's recorded epoch.
    ///
    /// The recovered index serves reads immediately; to resume writes,
    /// build a fresh [`crate::ServeWriter`] over the recovered base data
    /// and point it at the same persistence directory (its next fold
    /// epochs continue past the recovered one).
    ///
    /// Returns the serving handle together with the snapshot's validated
    /// metadata (epoch, artifact digest, and whether the base serves
    /// zero-copy from the mapped file).
    ///
    /// Recovery reads and checksums the winning file once and decodes the
    /// base from those bytes (see [`rae_store::recover_dir_with`]).
    pub fn recover(dir: &std::path::Path) -> Result<(Self, rae_store::SnapshotMeta)> {
        // Zero-copy cold start: the recovered index serves straight from a
        // read-only mapping of the snapshot file, falling back to an owned
        // decode on buffers that cannot support views (`meta.borrowed`
        // records which path won). Validation is identical either way.
        let (_path, artifact, meta) = rae_store::recover_dir_with(dir, true)?;
        let rae_store::Artifact::Ordered(base) = artifact else {
            return Err(ServeError::Store(rae_store::StoreError::Corrupt {
                section: "footer".to_string(),
                detail: format!(
                    "recovered snapshot holds a `{}` index, but serving resumes from \
                     ordered bases",
                    meta.kind
                ),
            }));
        };
        // The epoch-0-style read state: the base alone, no tombstones, no
        // delta.
        let union = RankedUcq::from_shared_members(vec![Arc::new(base)])?;
        let snap = Arc::new(Snapshot::assemble(union, Vec::new(), meta.epoch, 0)?);
        let shared = Arc::new(Shared::new(snap));
        Ok((ServingIndex { shared }, meta))
    }
}

/// A per-thread read handle: keeps an `Arc` to the last snapshot it saw
/// and refreshes it only when the publication epoch moves, so the
/// steady-state cost of staying current is a single atomic load.
#[derive(Debug, Clone)]
pub struct ServingReader {
    shared: Arc<Shared>,
    cached: Arc<Snapshot>,
}

impl ServingReader {
    /// The freshest published snapshot: one atomic epoch load, and a slot
    /// read only if the epoch moved since this handle last looked.
    pub fn refresh(&mut self) -> &Snapshot {
        if self.shared.epoch() != self.cached.epoch() {
            self.cached = self.shared.load();
        }
        &self.cached
    }

    /// The cached snapshot without checking for a newer epoch — readers
    /// that need a *stable* view across several operations use this
    /// between explicit refreshes.
    pub fn current(&self) -> &Snapshot {
        &self.cached
    }

    /// The cached snapshot as an owned `Arc` (outlives the handle).
    pub fn pinned(&self) -> Arc<Snapshot> {
        Arc::clone(&self.cached)
    }
}
