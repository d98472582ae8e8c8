//! The single-writer side of the serving lifecycle: batched mutations,
//! admission control, overlay publication, and base folds.
//!
//! One [`ServeWriter`] owns all mutable state. Readers never block it and
//! it never blocks readers: publication is an `Arc` swap, and the only
//! writer↔reader contention is the pointer-sized critical section inside
//! [`crate::snapshot::ServingIndex`].
//!
//! The lifecycle (DESIGN.md §14):
//!
//! ```text
//!   apply(batch)*  →  publish()  →  …  →  fold_now() / begin_fold()+poll_fold()
//!   (admission)       (base ⊎ delta ∖ T)     (rebuild base, reset delta)
//! ```
//!
//! `publish` never touches the base index: it re-derives the delta
//! answers and tombstones from the pending row sets (output-sensitive
//! seeded joins, [`crate::delta`]), builds a small delta index, and
//! assembles a new [`Snapshot`]. Every fallible step happens *before*
//! the swap, so a mid-publish fault — injected (`serve/publish`) or real
//! — leaves the previous snapshot published and the pending state
//! intact; retrying the publish is always safe (idempotent).

use crate::delta::{delta_eligible, JoinCtx, JoinPlan};
use crate::snapshot::{ServingIndex, Shared, Snapshot};
use crate::Result;
use crate::ServeError;
use rae_core::{OrderedCqIndex, RankedUcq, Weight};
use rae_data::{Database, FxHashMap, FxHashSet, Relation, Schema, Symbol, Value};
use rae_faults::fail_point;
use rae_query::{Atom, ConjunctiveQuery};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Relation name of the materialized delta member inside a publish.
const DELTA_REL: &str = "__serve_delta";

/// Registers `rows` under `name`, encoded straight in `db`'s dictionary.
fn add_rows(
    db: &mut Database,
    name: Symbol,
    schema: Schema,
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Result<()> {
    let mut rel = Relation::new_in(schema, db.dictionary());
    for row in rows {
        rel.push_row(row)?;
    }
    Ok(db.add_relation(name, rel)?)
}

/// What a completed fold did, handed to the [`ServeWriter::on_fold`]
/// callback after the folded snapshot is published (and, when fold
/// persistence is enabled, durably on disk).
#[derive(Debug, Clone)]
pub struct FoldEvent {
    /// The epoch the folded snapshot was published under.
    pub epoch: u64,
    /// Where the folded base was persisted, when
    /// [`ServeWriter::persist_folds_to`] is configured.
    pub persisted: Option<PathBuf>,
}

/// Post-fold side-effect hook (closures have no useful `Debug`).
struct FoldHook(Box<dyn FnMut(&FoldEvent) + Send>);

impl std::fmt::Debug for FoldHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FoldHook")
    }
}

/// Admission control for the writer: how much pending (unfolded) delta
/// the serving structure will carry.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Reject batches once `pending_ops() + batch.len()` exceeds this:
    /// the delta overlay is meant to stay small relative to the base, and
    /// past this point a fold is cheaper than a wider union. Backpressure
    /// is a *transient* error — retry after a fold.
    pub max_pending_ops: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_pending_ops: 4096,
        }
    }
}

/// One mutation against a served relation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Insert `row` into `relation` (no-op if already present).
    Insert {
        /// Target relation.
        relation: Symbol,
        /// The row, in schema column order.
        row: Vec<Value>,
    },
    /// Delete `row` from `relation` (no-op if absent).
    Delete {
        /// Target relation.
        relation: Symbol,
        /// The row, in schema column order.
        row: Vec<Value>,
    },
}

/// A batch of mutations, applied atomically: admission and validation
/// happen for the whole batch before any row set is touched.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    ops: Vec<Op>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Queues an insert.
    pub fn insert(&mut self, relation: impl Into<Symbol>, row: Vec<Value>) -> &mut Self {
        self.ops.push(Op::Insert {
            relation: relation.into(),
            row,
        });
        self
    }

    /// Queues a delete.
    pub fn delete(&mut self, relation: impl Into<Symbol>, row: Vec<Value>) -> &mut Self {
        self.ops.push(Op::Delete {
            relation: relation.into(),
            row,
        });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// How the writer realizes mutations in the published structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Full, self-join-free CQ: serve base ⊎ delta with tombstones and
    /// fold periodically.
    DeltaOverlay,
    /// Any other query shape: rebuild the (single-member) snapshot on
    /// every publish.
    RebuildPerPublish,
}

/// Pending row state of one served relation.
#[derive(Debug)]
struct RelState {
    name: Symbol,
    schema: Schema,
    /// Rows of the relation at the last fold (the base index's input).
    base: FxHashSet<Vec<Value>>,
    /// Base rows deleted since the last fold (`⊆ base`).
    deleted: FxHashSet<Vec<Value>>,
    /// Rows inserted since the last fold (`∩ base = ∅`).
    delta: FxHashSet<Vec<Value>>,
}

impl RelState {
    fn current_contains(&self, row: &[Value]) -> bool {
        (self.base.contains(row) && !self.deleted.contains(row)) || self.delta.contains(row)
    }

    fn current_rows(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.base
            .iter()
            .filter(|r| !self.deleted.contains(*r))
            .chain(self.delta.iter())
    }

    fn current_set(&self) -> FxHashSet<Vec<Value>> {
        self.current_rows().cloned().collect()
    }

    fn pending(&self) -> usize {
        self.deleted.len() + self.delta.len()
    }
}

/// An in-flight background fold: the worker builds the new base over a
/// frozen copy `X` of the current rows; the writer diffs its live state
/// against `X` at integration time, so no replay log is needed.
struct FoldJob {
    handle: JoinHandle<Result<OrderedCqIndex>>,
    /// Per-slot row sets the worker is building from.
    x: Vec<FxHashSet<Vec<Value>>>,
}

impl std::fmt::Debug for FoldJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoldJob")
            .field("slots", &self.x.len())
            .finish()
    }
}

/// The single writer of a serving lifecycle. All methods take `&mut
/// self` — exactly one thread drives mutation, which is what makes the
/// epoch/`Arc`-swap publication protocol race-free by construction.
#[derive(Debug)]
pub struct ServeWriter {
    query: ConjunctiveQuery,
    /// The realized lexicographic order all members are built over.
    order: Vec<Symbol>,
    strategy: Strategy,
    plan: Option<JoinPlan>,
    /// Row state per relation slot (one per distinct relation symbol).
    rels: Vec<RelState>,
    rel_of: FxHashMap<Symbol, usize>,
    /// Body atom → relation slot.
    atom_rel: Vec<usize>,
    /// The shared base index of the latest fold.
    base: Arc<OrderedCqIndex>,
    /// Seeded-join universe: base rows plus every row inserted since the
    /// last fold (superset of current; exact filters run on the results).
    ctx: JoinCtx,
    /// Per atom: rows known to be in `ctx` (dedups appends).
    in_ctx: Vec<FxHashSet<Vec<Value>>>,
    shared: Arc<Shared>,
    epoch: u64,
    policy: AdmissionPolicy,
    fold: Option<FoldJob>,
    /// When set, every completed fold persists the new base here as
    /// `snap-<epoch>.rae` via `rae-store`'s atomic-publish protocol.
    persist_dir: Option<PathBuf>,
    /// Post-publish fold observer (tests, metrics, persistence fan-out).
    on_fold: Option<FoldHook>,
}

impl ServeWriter {
    /// Builds the initial base index over `db` and publishes epoch 0.
    /// Returns the writer and the reader-facing [`ServingIndex`].
    ///
    /// `order` is the requested lexicographic order (as in
    /// [`OrderedCqIndex::build`]); the realized order is
    /// [`ServeWriter::order`]. Full, self-join-free queries get the
    /// delta-overlay fast path; anything else is served by rebuilding
    /// per publish (same interface, no overlay).
    pub fn new(
        query: ConjunctiveQuery,
        db: &Database,
        order: &[Symbol],
        policy: AdmissionPolicy,
    ) -> Result<(Self, ServingIndex)> {
        let mut rels: Vec<RelState> = Vec::new();
        let mut rel_of: FxHashMap<Symbol, usize> = FxHashMap::default();
        let mut atom_rel = Vec::with_capacity(query.body().len());
        for atom in query.body() {
            let slot = match rel_of.get(&atom.relation) {
                Some(&s) => s,
                None => {
                    let rel = db.relation(&atom.relation)?;
                    let slot = rels.len();
                    rels.push(RelState {
                        name: atom.relation.clone(),
                        schema: rel.schema().clone(),
                        base: rel.rows().map(<[Value]>::to_vec).collect(),
                        deleted: FxHashSet::default(),
                        delta: FxHashSet::default(),
                    });
                    rel_of.insert(atom.relation.clone(), slot);
                    slot
                }
            };
            atom_rel.push(slot);
        }

        let strategy = if delta_eligible(&query) {
            Strategy::DeltaOverlay
        } else {
            Strategy::RebuildPerPublish
        };
        let plan = match strategy {
            Strategy::DeltaOverlay => Some(JoinPlan::new(&query)?),
            Strategy::RebuildPerPublish => None,
        };

        let base = Arc::new(OrderedCqIndex::build(&query, db, order)?);
        let realized = base.order().to_vec();

        // Epoch-0 snapshot: the base alone, no tombstones, no delta.
        let union = RankedUcq::from_shared_members(vec![Arc::clone(&base)])?;
        let snap = Arc::new(Snapshot::assemble(union, Vec::new(), 0, 0)?);
        let shared = Arc::new(Shared::new(snap));

        let mut writer = ServeWriter {
            query,
            order: realized,
            strategy,
            plan,
            rels,
            rel_of,
            atom_rel,
            base,
            ctx: JoinCtx::new(Vec::new()),
            in_ctx: Vec::new(),
            shared,
            epoch: 0,
            policy,
            fold: None,
            persist_dir: None,
            on_fold: None,
        };
        writer.rebuild_ctx();
        let index = ServingIndex {
            shared: Arc::clone(&writer.shared),
        };
        Ok((writer, index))
    }

    /// The reader-facing handle (same sequence [`ServeWriter::new`]
    /// returned; cheap to clone per thread).
    pub fn serving(&self) -> ServingIndex {
        ServingIndex {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The realized lexicographic order of every published member.
    pub fn order(&self) -> &[Symbol] {
        &self.order
    }

    /// The last published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pending (unfolded) delta + tombstone rows across all relations.
    pub fn pending_ops(&self) -> usize {
        self.rels.iter().map(RelState::pending).sum()
    }

    /// Whether a background fold is currently running.
    pub fn fold_in_progress(&self) -> bool {
        self.fold.is_some()
    }

    /// Whether this lifecycle runs the delta-overlay fast path (full,
    /// self-join-free query) or rebuilds per publish.
    pub fn is_delta_overlay(&self) -> bool {
        self.strategy == Strategy::DeltaOverlay
    }

    /// Applies a batch to the pending row state. Atomic: admission and
    /// validation run for the whole batch first, and a rejected batch
    /// ([`ServeError::Backpressure`] et al.) changes nothing. Does **not**
    /// publish — call [`ServeWriter::publish`] (or use
    /// [`ServeWriter::commit`]) to make the mutations visible.
    pub fn apply(&mut self, batch: &Batch) -> Result<usize> {
        fail_point!("serve/apply", |site| Err(ServeError::FaultInjected {
            site
        }));
        let pending = self.pending_ops();
        if pending + batch.ops.len() > self.policy.max_pending_ops {
            return Err(ServeError::Backpressure {
                pending,
                limit: self.policy.max_pending_ops,
            });
        }
        // Validate everything before mutating anything.
        for op in &batch.ops {
            let (relation, row) = match op {
                Op::Insert { relation, row } | Op::Delete { relation, row } => (relation, row),
            };
            let slot = *self
                .rel_of
                .get(relation)
                .ok_or_else(|| ServeError::UnknownRelation(relation.clone()))?;
            let expected = self.rels[slot].schema.arity();
            if row.len() != expected {
                return Err(ServeError::ArityMismatch {
                    relation: relation.clone(),
                    expected,
                    got: row.len(),
                });
            }
        }
        for op in &batch.ops {
            match op {
                Op::Insert { relation, row } => {
                    let slot = self.rel_of[relation];
                    let rel = &mut self.rels[slot];
                    if rel.base.contains(row) {
                        rel.deleted.remove(row.as_slice());
                    } else if rel.delta.insert(row.clone())
                        && self.strategy == Strategy::DeltaOverlay
                        && self.in_ctx[slot].insert(row.clone())
                    {
                        self.ctx.append(slot, row.clone());
                    }
                }
                Op::Delete { relation, row } => {
                    let slot = self.rel_of[relation];
                    let rel = &mut self.rels[slot];
                    if !rel.delta.remove(row.as_slice()) && rel.base.contains(row) {
                        rel.deleted.insert(row.clone());
                    }
                }
            }
        }
        Ok(batch.ops.len())
    }

    /// Publishes the pending state as a new snapshot. Overlay strategy:
    /// base ⊎ delta with tombstoned union ranks, the base index untouched.
    /// Rebuild strategy: a full fold. On error the previous snapshot
    /// stays published and pending state is unchanged — publishing is
    /// idempotent and retryable.
    pub fn publish(&mut self) -> Result<u64> {
        match self.strategy {
            Strategy::DeltaOverlay => self.publish_overlay(),
            Strategy::RebuildPerPublish => self.fold_now(),
        }
    }

    /// [`ServeWriter::apply`] + [`ServeWriter::publish`].
    pub fn commit(&mut self, batch: &Batch) -> Result<u64> {
        self.apply(batch)?;
        self.publish()
    }

    fn publish_overlay(&mut self) -> Result<u64> {
        fail_point!("serve/publish", |site| Err(ServeError::FaultInjected {
            site
        }));
        let plan = self
            .plan
            .as_ref()
            .ok_or(ServeError::Invariant("overlay publish without a join plan"))?;

        // Seeded joins first (they need the mutable join universe), exact
        // membership filters second. The joins run over the superset
        // universe base ∪ delta; the filters below make the results exact.
        //
        // Kill candidates: answers that contained a deleted row.
        let mut kills: FxHashSet<Vec<Value>> = FxHashSet::default();
        // Grown candidates: answers that contain an inserted row.
        let mut grown: FxHashSet<Vec<Value>> = FxHashSet::default();
        for (a, &slot) in self.atom_rel.iter().enumerate() {
            for row in &self.rels[slot].deleted {
                plan.seeded_answers(a, row, &mut self.ctx, &mut kills);
            }
            for row in &self.rels[slot].delta {
                plan.seeded_answers(a, row, &mut self.ctx, &mut grown);
            }
        }
        let is_base = |ans: &[Value]| {
            self.atom_rel
                .iter()
                .enumerate()
                .all(|(a, &slot)| self.rels[slot].base.contains(&plan.project(a, ans)))
        };
        let in_current = |ans: &[Value]| {
            self.atom_rel
                .iter()
                .enumerate()
                .all(|(a, &slot)| self.rels[slot].current_contains(&plan.project(a, ans)))
        };
        // Tombstones: base answers no longer derivable from the current
        // rows. A kill candidate that is re-derivable (its deleted row
        // was re-inserted — full CQs have exactly one derivation) is
        // *not* tombstoned: revived answers heal automatically.
        let tombstones: Vec<Vec<Value>> = kills
            .into_iter()
            .filter(|ans| is_base(ans) && !in_current(ans))
            .collect();
        // Delta answers: current answers that use an inserted row and are
        // not base answers (those are already served — or tombstoned —
        // by the base member).
        let delta_answers: Vec<Vec<Value>> = grown
            .into_iter()
            .filter(|ans| in_current(ans) && !is_base(ans))
            .collect();
        let delta_count = delta_answers.len() as Weight;

        let members: Vec<Arc<OrderedCqIndex>> = if delta_answers.is_empty() {
            vec![Arc::clone(&self.base)]
        } else {
            let head: Vec<Symbol> = self.query.head().to_vec();
            let schema = Schema::new(head.iter().cloned())?;
            let mut ddb = Database::new();
            add_rows(&mut ddb, DELTA_REL.into(), schema, delta_answers)?;
            let dcq = ConjunctiveQuery::new(
                "__serve_delta_q",
                head.iter().cloned(),
                vec![Atom::new(DELTA_REL, head.iter().cloned())],
            )?;
            let didx = OrderedCqIndex::build(&dcq, &ddb, &self.order)?;
            vec![Arc::clone(&self.base), Arc::new(didx)]
        };
        let union = RankedUcq::from_shared_members(members)?;
        let mut ranks = Vec::with_capacity(tombstones.len());
        for t in &tombstones {
            ranks.push(
                union
                    .ordered_inverted_access(t)
                    .ok_or(ServeError::Invariant(
                        "tombstoned base answer missing from the published union",
                    ))?,
            );
        }
        self.swap_in(Snapshot::assemble(
            union,
            ranks,
            self.epoch + 1,
            delta_count,
        )?)
    }

    /// Everything fallible has succeeded — advance the epoch and swap.
    fn swap_in(&mut self, snap: Snapshot) -> Result<u64> {
        let snap = Arc::new(snap);
        self.epoch = snap.epoch();
        self.shared.publish(snap);
        Ok(self.epoch)
    }

    /// Rebuilds the seeded-join universe from the (new) base + delta.
    fn rebuild_ctx(&mut self) {
        if self.strategy != Strategy::DeltaOverlay {
            return;
        }
        let slots = self.rels.len();
        let mut rows: Vec<Vec<Vec<Value>>> = Vec::with_capacity(slots);
        let mut in_ctx: Vec<FxHashSet<Vec<Value>>> = Vec::with_capacity(slots);
        for rel in &self.rels {
            let mut rs: Vec<Vec<Value>> = rel.base.iter().cloned().collect();
            let mut set = rel.base.clone();
            for r in &rel.delta {
                if set.insert(r.clone()) {
                    rs.push(r.clone());
                }
            }
            rows.push(rs);
            in_ctx.push(set);
        }
        self.ctx = JoinCtx::new(rows);
        self.in_ctx = in_ctx;
    }

    fn fold_db(&self) -> Result<Database> {
        let mut db = Database::new();
        for rel in &self.rels {
            let rows = rel.current_rows().cloned();
            add_rows(&mut db, rel.name.clone(), rel.schema.clone(), rows)?;
        }
        Ok(db)
    }

    /// Synchronously folds the pending delta into a fresh base: rebuilds
    /// a database (and its dictionary) from the current rows, rebuilds the
    /// base index over it, drops both, clears the pending state, and
    /// publishes the folded snapshot.
    pub fn fold_now(&mut self) -> Result<u64> {
        fail_point!("serve/fold", |site| Err(ServeError::FaultInjected { site }));
        let db = self.fold_db()?;
        let idx = OrderedCqIndex::build(&self.query, &db, &self.order)?;
        self.install_fold(Arc::new(idx), false)
    }

    /// Starts a background fold: a worker thread rebuilds the base over a
    /// frozen copy of the current rows while the writer keeps applying
    /// and publishing overlay snapshots. Integrate with
    /// [`ServeWriter::poll_fold`]. For rebuild-per-publish lifecycles
    /// this degrades to a synchronous [`ServeWriter::fold_now`].
    pub fn begin_fold(&mut self) -> Result<()> {
        if self.fold.is_some() {
            return Err(ServeError::FoldInProgress);
        }
        if self.strategy != Strategy::DeltaOverlay {
            self.fold_now()?;
            return Ok(());
        }
        let x: Vec<FxHashSet<Vec<Value>>> = self.rels.iter().map(RelState::current_set).collect();
        let parts: Vec<(Symbol, Schema, Vec<Vec<Value>>)> = self
            .rels
            .iter()
            .zip(&x)
            .map(|(rel, rows)| {
                (
                    rel.name.clone(),
                    rel.schema.clone(),
                    rows.iter().cloned().collect(),
                )
            })
            .collect();
        let query = self.query.clone();
        let order = self.order.clone();
        let handle = std::thread::Builder::new()
            .name("rae-serve-fold".into())
            .spawn(move || -> Result<OrderedCqIndex> {
                fail_point!("serve/fold", |site| Err(ServeError::FaultInjected { site }));
                let mut db = Database::new();
                for (name, schema, rows) in parts {
                    add_rows(&mut db, name, schema, rows)?;
                }
                Ok(OrderedCqIndex::build(&query, &db, &order)?)
            })
            .map_err(|_| ServeError::Invariant("could not spawn the fold worker"))?;
        self.fold = Some(FoldJob { handle, x });
        Ok(())
    }

    /// Integrates a finished background fold (non-blocking): diffs the
    /// live row state against the fold's frozen copy to re-derive the
    /// pending delta, swaps the base, and publishes. Returns `Ok(false)`
    /// while the worker is still running, `Ok(true)` once a fold was
    /// integrated. A worker failure or panic is transient: the old base
    /// and snapshot remain in service.
    pub fn poll_fold(&mut self) -> Result<bool> {
        let done = match &self.fold {
            None => return Ok(false),
            Some(job) => job.handle.is_finished(),
        };
        if !done {
            return Ok(false);
        }
        let job = match self.fold.take() {
            Some(job) => job,
            None => return Ok(false),
        };
        let idx = match job.handle.join() {
            Err(_) => return Err(ServeError::FoldPanicked),
            Ok(res) => res?,
        };
        // Re-derive the pending state as the diff between now and the
        // frozen fold input X: inserts since X become the new delta,
        // deletes since X the new tombstone candidates.
        for (rel, x) in self.rels.iter_mut().zip(job.x) {
            let current = rel.current_set();
            rel.delta = current.difference(&x).cloned().collect();
            rel.deleted = x.difference(&current).cloned().collect();
            rel.base = x;
        }
        self.install_fold(Arc::new(idx), true)?;
        Ok(true)
    }

    /// Blocks until the running background fold (if any) is integrated.
    pub fn finish_fold(&mut self) -> Result<bool> {
        if self.fold.is_none() {
            return Ok(false);
        }
        loop {
            if self.poll_fold()? {
                return Ok(true);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Common tail of both fold paths: swap the base, reset/re-derive
    /// pending state, rebuild the join universe, publish. `rederived`
    /// says whether the caller already diffed the pending state against
    /// the fold input (background path) or the fold consumed it all
    /// (synchronous path).
    fn install_fold(&mut self, base: Arc<OrderedCqIndex>, rederived: bool) -> Result<u64> {
        self.base = base;
        if !rederived {
            // Synchronous fold: the new base *is* the current state.
            for rel in &mut self.rels {
                rel.base = rel.current_set();
                rel.deleted.clear();
                rel.delta.clear();
            }
        }
        self.rebuild_ctx();
        let epoch = match self.strategy {
            Strategy::DeltaOverlay => self.publish_overlay(),
            Strategy::RebuildPerPublish => {
                let union = RankedUcq::from_shared_members(vec![Arc::clone(&self.base)])?;
                self.swap_in(Snapshot::assemble(union, Vec::new(), self.epoch + 1, 0)?)
            }
        }?;
        // Persist the folded base AFTER publication: a persistence
        // failure (full disk, injected `store/*` fault) leaves the folded
        // snapshot serving; only durability is lost, and recovery falls
        // back to the previous on-disk epoch.
        let persisted = match &self.persist_dir {
            Some(dir) => {
                let path = dir.join(format!("snap-{epoch}.{}", rae_store::SNAPSHOT_EXT));
                let archive = rae_store::ArtifactArchive::Ordered(self.base.to_archive());
                rae_store::save(&path, &archive, epoch, self.query.name())?;
                Some(path)
            }
            None => None,
        };
        let event = FoldEvent { epoch, persisted };
        if let Some(hook) = &mut self.on_fold {
            (hook.0)(&event);
        }
        Ok(epoch)
    }

    /// Enables fold persistence: every completed fold (synchronous or
    /// background) durably writes its new base index to
    /// `dir/snap-<epoch>.rae` through `rae-store`'s crash-consistent
    /// publish protocol, after the in-memory snapshot swap. Cold starts
    /// resume from the newest valid file via
    /// [`crate::ServingIndex::recover`].
    pub fn persist_folds_to(&mut self, dir: impl Into<PathBuf>) {
        self.persist_dir = Some(dir.into());
    }

    /// The configured fold-persistence directory, if any.
    pub fn persist_target(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// Registers a callback fired after every completed fold — once the
    /// folded snapshot is published and (if configured) persisted. Replaces
    /// any previous callback. This is the push-style complement of
    /// [`ServeWriter::poll_fold`]: persistence bookkeeping and tests count
    /// folds here instead of polling.
    pub fn on_fold(&mut self, hook: impl FnMut(&FoldEvent) + Send + 'static) {
        self.on_fold = Some(FoldHook(Box::new(hook)));
    }
}
