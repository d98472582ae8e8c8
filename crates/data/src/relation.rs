//! Flat, row-major relations with a dictionary-encoded code mirror.
//!
//! Every relation records the dictionary [`Generation`] its mirror was
//! encoded against. After [`dict::advance_generation`] recycles codes, a
//! relation from an older generation is *stale*: its mirror may hold codes
//! that now mean different values, so code-based operations on it are
//! detected and refused ([`DataError::StaleGeneration`]) until
//! [`Relation::rehydrate`] re-encodes the mirror.

use crate::dict::{self, Generation, ValueCode};
use crate::error::DataError;
use crate::schema::Schema;
use crate::sort::{self, SortAlgorithm, RADIX_MIN_ROWS};
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An owned row used as a hash-map key (bucket keys, inverted access).
pub type RowKey = Box<[Value]>;

/// Extracts the values of `row` at `cols` as an owned key.
#[inline]
pub fn key_of(row: &[Value], cols: &[usize]) -> RowKey {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// A set of same-arity tuples with named attributes, stored row-major in a
/// single flat vector.
///
/// The flat layout keeps preprocessing cache-friendly and makes "row id"
/// (`usize` index) a natural tuple identity for the index structures.
/// `Relation` itself does not enforce set semantics on insert; callers that
/// need sets use [`Relation::sort_dedup`] (the Yannakakis layer always does).
///
/// Alongside the `Value` storage, every relation maintains a flat `u32`
/// mirror of dictionary codes (one per value, via [`crate::dict`]), kept in
/// lockstep by every mutation. Code equality is value equality, so hash
/// probes on the hot path ([`crate::CodeKeyMap`]) run on borrowed
/// `&[u32]` slices instead of owned `Box<[Value]>` keys.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    data: Vec<Value>,
    /// Dictionary-code mirror of `data` (same length, same layout).
    codes: Vec<ValueCode>,
    /// Dictionary generation the mirror was encoded against.
    generation: Generation,
    /// Sort fingerprint: `Some(key_cols)` when the rows are currently in
    /// `(key_cols, full row)` value order (`Some([])` ⇒ full-row order).
    /// Lets downstream passes skip redundant re-sorts; invalidated by any
    /// mutation that can reorder or insert rows.
    sorted_by: Option<Box<[usize]>>,
    /// Consistency witness: relations holding the same token (compared by
    /// `Arc::ptr_eq`) are globally consistent as a set. See
    /// [`Relation::mark_consistent`] for which operations keep it.
    witness: Option<Arc<()>>,
}

/// The empty arity-0 relation (useful as a `std::mem::take` placeholder).
impl Default for Relation {
    fn default() -> Self {
        Relation::new(Schema::empty())
    }
}

/// Equality is value equality: the code mirror is derived state and the
/// generation stamp and consistency witness are lifecycle metadata, so none
/// of them participates.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.data == other.data
    }
}

impl Eq for Relation {}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            data: Vec::new(),
            codes: Vec::new(),
            generation: dict::current_generation(),
            sorted_by: None,
            witness: None,
        }
    }

    /// Creates an empty relation from attribute names.
    pub fn with_attrs(attrs: impl IntoIterator<Item = impl Into<crate::Symbol>>) -> Result<Self> {
        Ok(Relation::new(Schema::new(attrs)?))
    }

    /// Builds a relation from rows, validating arity.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<Self> {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push_row(row)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of attributes per row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        if self.arity() == 0 {
            // Arity-0 relations distinguish "empty" from "contains the empty
            // tuple" via an explicit marker value count.
            self.data.len()
        } else {
            self.data.len() / self.arity()
        }
    }

    /// Whether the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i`-th row.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.arity();
        if a == 0 {
            assert!(i < self.len(), "row index out of bounds");
            &[]
        } else {
            &self.data[i * a..(i + 1) * a]
        }
    }

    /// Iterator over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// The dictionary codes of the `i`-th row (layout-parallel to
    /// [`Relation::row`]).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row_codes(&self, i: usize) -> &[ValueCode] {
        let a = self.arity();
        if a == 0 {
            assert!(i < self.len(), "row index out of bounds");
            &[]
        } else {
            &self.codes[i * a..(i + 1) * a]
        }
    }

    /// The full flat code mirror (row-major, like the value storage).
    #[inline]
    pub fn codes(&self) -> &[ValueCode] {
        &self.codes
    }

    /// The dictionary generation the code mirror was encoded against.
    #[inline]
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Whether the code mirror is valid against the current dictionary
    /// generation. Relations without dictionary-encoded rows (empty, or
    /// arity 0, whose sentinel codes never touch the dictionary) are
    /// trivially current.
    #[inline]
    pub fn is_current(&self) -> bool {
        self.arity() == 0 || self.codes.is_empty() || self.generation == dict::current_generation()
    }

    /// Errors with [`DataError::StaleGeneration`] unless the mirror is
    /// current (see [`Relation::is_current`]).
    pub fn verify_current(&self) -> Result<()> {
        if self.is_current() {
            Ok(())
        } else {
            Err(DataError::StaleGeneration {
                relation: self.generation,
                dictionary: dict::current_generation(),
            })
        }
    }

    /// Re-encodes the code mirror against the current dictionary generation,
    /// re-interning every value. After a sweep this is how a stale relation
    /// (one whose values were not in the live set) becomes usable again.
    pub fn rehydrate(&mut self) -> Result<()> {
        rae_faults::fail_point!("relation/rehydrate", |site| Err(DataError::FaultInjected {
            site
        }));
        // Record the generation before interning: if a sweep lands mid-way,
        // the stamp stays behind the new generation and the relation reads
        // as stale rather than silently mixed.
        let generation = dict::current_generation();
        if self.arity() != 0 {
            for (slot, value) in self.data.iter().enumerate() {
                self.codes[slot] = dict::intern(value)?;
            }
        }
        self.generation = generation;
        Ok(())
    }

    /// Re-stamps the generation without re-encoding. Only sound when every
    /// value of this relation was in the live set of the sweep that produced
    /// `generation` (survivor codes are never remapped) — the database
    /// lifecycle driver guarantees exactly that.
    pub(crate) fn stamp_generation(&mut self, generation: Generation) {
        self.generation = generation;
    }

    /// Stamps one fresh consistency witness on every relation of
    /// `relations`. The caller asserts that they are globally consistent as
    /// a set: every tuple of every relation extends to a tuple of their
    /// natural join (a cross product across relations sharing no
    /// attribute), so one empty relation means all are empty. A reduction
    /// that just established this is the intended caller.
    ///
    /// The witness survives exactly the operations that keep a consistent
    /// set consistent: `clone`, [`Relation::sort_dedup`],
    /// [`Relation::sort_by_key_then_row`], [`Relation::rehydrate`], and
    /// [`Relation::select_project`] with no selection and no renamed
    /// column (a projection of a consistent set is consistent under any
    /// join tree of the projected bags; DESIGN.md §3). Adding rows
    /// ([`Relation::push_row`]), removing them ([`Relation::retain_rows`],
    /// [`Relation::retain_by_index`]), intersecting, selecting or renaming
    /// drops it. Two calls never mint the same witness.
    pub fn mark_consistent(relations: &mut [Relation]) {
        let witness = Arc::new(());
        for rel in relations {
            rel.witness = Some(Arc::clone(&witness));
        }
    }

    /// Whether `relations` is non-empty and every relation carries one
    /// shared consistency witness (see [`Relation::mark_consistent`]), so
    /// the set is known to be globally consistent.
    pub fn share_consistency_witness(relations: &[Relation]) -> bool {
        let Some(Some(first)) = relations.first().map(|r| &r.witness) else {
            return false;
        };
        relations
            .iter()
            .all(|r| r.witness.as_ref().is_some_and(|w| Arc::ptr_eq(w, first)))
    }

    /// Drops this relation's consistency witness, if any.
    pub fn clear_consistency_witness(&mut self) {
        self.witness = None;
    }

    /// Iterator over every stored value (row-major). Arity-0 relations
    /// yield nothing: their storage holds sentinels, not dictionary values.
    pub fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        let take = if self.arity() == 0 {
            0
        } else {
            self.data.len()
        };
        self.data[..take].iter()
    }

    /// Appends a row, validating arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.arity() {
            return Err(DataError::ArityMismatch {
                context: format!("relation {:?}", self.schema),
                expected: self.arity(),
                actual: row.len(),
            });
        }
        self.sorted_by = None;
        self.witness = None;
        if self.arity() == 0 {
            // Represent an arity-0 row with a sentinel so len() works.
            self.data.push(Value::Int(0));
            self.codes.push(0);
        } else {
            let current = dict::current_generation();
            if self.codes.is_empty() {
                // First coded row (re)binds the relation to the current
                // generation.
                self.generation = current;
            } else if self.generation != current {
                // Mixing codes from two generations would make the mirror
                // internally inconsistent; the caller must rehydrate first.
                return Err(DataError::StaleGeneration {
                    relation: self.generation,
                    dictionary: current,
                });
            }
            let start = self.codes.len();
            for v in &row {
                match dict::intern(v) {
                    Ok(c) => self.codes.push(c),
                    Err(e) => {
                        self.codes.truncate(start);
                        return Err(e);
                    }
                }
            }
            self.data.extend(row);
        }
        Ok(())
    }

    /// Appends a row from a slice, validating arity.
    pub fn push_row_slice(&mut self, row: &[Value]) -> Result<()> {
        self.push_row(row.to_vec())
    }

    /// Compares two rows lexicographically in schema order.
    #[inline]
    pub fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
        a.cmp(b)
    }

    /// Sorts rows lexicographically and removes duplicates (set semantics).
    pub fn sort_dedup(&mut self) {
        self.sort_dedup_with(SortAlgorithm::Auto);
    }

    /// [`Relation::sort_dedup`] with an explicit sort implementation
    /// (ablation / differential-testing knob).
    pub fn sort_dedup_with(&mut self, algo: SortAlgorithm) {
        let a = self.arity();
        if a == 0 {
            let n = self.len().min(1);
            self.data.truncate(n);
            self.codes.truncate(n);
            return;
        }
        if self.is_sorted_by(&[]) {
            // Already in full-row order: duplicates are adjacent, one linear
            // dedup pass suffices.
            self.dedup_sorted();
            self.sorted_by = Some(Box::from(&[][..]));
            return;
        }
        self.check_u32_slots();
        if self.use_radix(algo) {
            sort::with_sort_scratch(|s| {
                let perm = s.rank_sort_permutation(&self.data, &self.codes, a, &[]);
                self.apply_permutation(perm);
            });
            self.dedup_sorted();
        } else {
            let mut perm: Vec<u32> = (0..self.len() as u32).collect();
            perm.sort_by(|&i, &j| self.row(i as usize).cmp(self.row(j as usize)));
            perm.dedup_by(|&mut i, &mut j| self.row(i as usize) == self.row(j as usize));
            self.apply_permutation(&perm);
        }
        self.sorted_by = Some(Box::from(&[][..]));
    }

    /// Sorts rows by `(key columns, full row)` lexicographically.
    ///
    /// This is the canonical node order of the enumeration indexes: rows
    /// sharing a bucket key become contiguous, and the within-bucket order is
    /// the restriction of one global total order (so sub-relations stay
    /// order-compatible; see DESIGN.md §3).
    ///
    /// A no-op when the [`Relation::sorted_by`] fingerprint already covers
    /// `key_cols`. Dispatches to the LSD radix sort for non-trivial row
    /// counts (see DESIGN.md §10); both paths produce byte-identical orders.
    pub fn sort_by_key_then_row(&mut self, key_cols: &[usize]) {
        self.sort_by_key_then_row_with(key_cols, SortAlgorithm::Auto);
    }

    /// [`Relation::sort_by_key_then_row`] with an explicit sort
    /// implementation (ablation / differential-testing knob).
    pub fn sort_by_key_then_row_with(&mut self, key_cols: &[usize], algo: SortAlgorithm) {
        if self.arity() == 0 || self.is_sorted_by(key_cols) {
            return;
        }
        self.check_u32_slots();
        if self.use_radix(algo) {
            let a = self.arity();
            sort::with_sort_scratch(|s| {
                let perm = s.rank_sort_permutation(&self.data, &self.codes, a, key_cols);
                self.apply_permutation(perm);
            });
        } else {
            let mut perm: Vec<u32> = (0..self.len() as u32).collect();
            perm.sort_by(|&i, &j| {
                let (ri, rj) = (self.row(i as usize), self.row(j as usize));
                for &c in key_cols {
                    match ri[c].cmp(&rj[c]) {
                        Ordering::Equal => {}
                        other => return other,
                    }
                }
                ri.cmp(rj)
            });
            self.apply_permutation(&perm);
        }
        self.sorted_by = Some(Self::canonical_fingerprint(key_cols));
    }

    /// The sort fingerprint: `Some(key_cols)` when rows are known to be in
    /// `(key_cols, full row)` value order (`Some([])` ⇒ plain full-row
    /// order), `None` when unknown.
    #[inline]
    pub fn sorted_by(&self) -> Option<&[usize]> {
        self.sorted_by.as_deref()
    }

    /// Whether the rows are known to already be in `(key_cols, full row)`
    /// order, so a re-sort by `key_cols` can be skipped. Full-row order
    /// covers any `key_cols` that is a prefix of the schema order.
    pub fn is_sorted_by(&self, key_cols: &[usize]) -> bool {
        if self.len() <= 1 {
            return true;
        }
        match &self.sorted_by {
            Some(s) if &**s == key_cols => true,
            Some(s) if s.is_empty() => Self::is_schema_prefix(key_cols),
            _ => false,
        }
    }

    /// A schema-prefix key (`[0, 1, .., k]`) sorts identically to the full
    /// row; canonicalize it to `[]` so the fingerprint matches more re-sorts.
    fn canonical_fingerprint(key_cols: &[usize]) -> Box<[usize]> {
        if Self::is_schema_prefix(key_cols) {
            Box::from(&[][..])
        } else {
            Box::from(key_cols)
        }
    }

    #[inline]
    fn is_schema_prefix(key_cols: &[usize]) -> bool {
        key_cols.iter().enumerate().all(|(i, &c)| i == c)
    }

    /// Both sort paths address rows (and, in the radix path, flat value
    /// slots) with `u32` indices; reject relations whose flat storage
    /// exceeds that before any cast can wrap.
    #[inline]
    fn check_u32_slots(&self) {
        assert!(
            self.codes.len() <= u32::MAX as usize,
            "relation too large for u32 value-slot ids"
        );
    }

    #[inline]
    fn use_radix(&self, algo: SortAlgorithm) -> bool {
        let radix = match algo {
            SortAlgorithm::Auto => self.len() >= RADIX_MIN_ROWS,
            SortAlgorithm::Radix => true,
            SortAlgorithm::Comparison => false,
        };
        // Graceful degradation: when scratch growth is denied (injected
        // fault standing in for allocation pressure), fall back to the
        // comparison sort — same byte-identical order, no scratch buffers.
        if radix && rae_faults::eval_error("sort/scratch") {
            rae_faults::degrade::record("sort/scratch");
            return false;
        }
        radix
    }

    /// Removes adjacent duplicate rows (callers guarantee rows are sorted, so
    /// duplicates are adjacent). Compares dictionary codes: within one
    /// relation, code equality is value equality.
    fn dedup_sorted(&mut self) {
        let a = self.arity();
        debug_assert!(a > 0);
        let n = self.len();
        if n <= 1 {
            return;
        }
        let mut write = 1usize;
        for read in 1..n {
            if self.codes[read * a..(read + 1) * a] == self.codes[(read - 1) * a..read * a] {
                continue;
            }
            if write != read {
                let (head, tail) = self.data.split_at_mut(read * a);
                head[write * a..(write + 1) * a].clone_from_slice(&tail[..a]);
                self.codes.copy_within(read * a..(read + 1) * a, write * a);
            }
            write += 1;
        }
        self.data.truncate(write * a);
        self.codes.truncate(write * a);
    }

    fn apply_permutation(&mut self, perm: &[u32]) {
        let a = self.arity();
        let mut new_data = Vec::with_capacity(perm.len() * a);
        let mut new_codes = Vec::with_capacity(perm.len() * a);
        for &i in perm {
            new_data.extend_from_slice(self.row(i as usize));
            new_codes.extend_from_slice(self.row_codes(i as usize));
        }
        self.data = new_data;
        self.codes = new_codes;
        // Callers (the sort entry points) set the fingerprint afterwards.
        self.sorted_by = None;
    }

    /// Keeps only rows satisfying `pred`.
    pub fn retain_rows(&mut self, mut pred: impl FnMut(&[Value]) -> bool) {
        self.witness = None;
        let a = self.arity();
        if a == 0 {
            if !self.data.is_empty() && !pred(&[]) {
                self.data.clear();
                self.codes.clear();
            }
            return;
        }
        let mut write = 0usize;
        for read in 0..self.len() {
            let keep = {
                let row = &self.data[read * a..(read + 1) * a];
                pred(row)
            };
            if keep {
                if write != read {
                    let (head, tail) = self.data.split_at_mut(read * a);
                    head[write * a..(write + 1) * a].clone_from_slice(&tail[..a]);
                    self.codes.copy_within(read * a..(read + 1) * a, write * a);
                }
                write += 1;
            }
        }
        self.data.truncate(write * a);
        self.codes.truncate(write * a);
    }

    /// Keeps rows whose index satisfies `keep`.
    pub fn retain_by_index(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "mask length mismatch");
        let mut i = 0;
        self.retain_rows(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Projects onto the given columns (no dedup; combine with
    /// [`Relation::sort_dedup`] for set projection). A column not below the
    /// arity is a [`DataError::ColumnOutOfRange`].
    pub fn project(&self, cols: &[usize], attrs: Schema) -> Result<Self> {
        self.select_project(&[], &[], cols, attrs)
    }

    /// Selection and projection on dictionary codes: keeps the rows whose
    /// code at `col` is `code` for every `(col, code)` in `const_codes` and
    /// whose codes at `a` and `b` agree for every `(a, b)` in `eq_cols`, and
    /// projects them onto `cols` (in that order) under `attrs`. No dedup.
    ///
    /// Values are cloned and codes copied from the mirror; nothing is
    /// re-interned. The result carries this relation's generation, so
    /// `const_codes` must be codes of that generation. Filtering keeps row
    /// order: a schema-prefix projection of a relation in full-row order is
    /// itself in full-row order and keeps that fingerprint, which turns a
    /// following [`Relation::sort_dedup`] into one linear dedup pass. A
    /// plain projection (no selection, every kept column under its own
    /// name) keeps the consistency witness; anything else drops it.
    ///
    /// Every column index in `const_codes`, `eq_cols` and `cols` must be
    /// below the arity, or the call is a [`DataError::ColumnOutOfRange`]
    /// (checked before any row is read, so an empty relation refuses it
    /// too).
    pub fn select_project(
        &self,
        const_codes: &[(usize, ValueCode)],
        eq_cols: &[(usize, usize)],
        cols: &[usize],
        attrs: Schema,
    ) -> Result<Self> {
        if cols.len() != attrs.arity() {
            return Err(DataError::ArityMismatch {
                context: "projection schema".into(),
                expected: cols.len(),
                actual: attrs.arity(),
            });
        }
        let arity = self.arity();
        let columns = const_codes
            .iter()
            .map(|&(c, _)| ("selection column", c))
            .chain(
                eq_cols
                    .iter()
                    .flat_map(|&(a, b)| [("equality column", a), ("equality column", b)]),
            )
            .chain(cols.iter().map(|&c| ("projection column", c)));
        for (context, column) in columns {
            if column >= arity {
                return Err(DataError::ColumnOutOfRange {
                    context,
                    column,
                    arity,
                });
            }
        }
        let plain = const_codes.is_empty()
            && eq_cols.is_empty()
            && cols
                .iter()
                .zip(attrs.attrs())
                .all(|(&c, a)| self.schema.attrs().get(c) == Some(a));
        let mut out = Relation::new(attrs);
        if plain {
            out.witness.clone_from(&self.witness);
        }
        let width = cols.len();
        if const_codes.is_empty() && eq_cols.is_empty() {
            // Every row survives: size the output exactly, once.
            out.data.reserve_exact(self.len() * width.max(1));
            out.codes.reserve_exact(self.len() * width.max(1));
        }
        'rows: for i in 0..self.len() {
            let row_codes = self.row_codes(i);
            for &(col, code) in const_codes {
                if row_codes[col] != code {
                    continue 'rows;
                }
            }
            for &(a, b) in eq_cols {
                if row_codes[a] != row_codes[b] {
                    continue 'rows;
                }
            }
            if width == 0 {
                // Arity-0 rows are sentinels (see `push_row`).
                out.data.push(Value::Int(0));
                out.codes.push(0);
                continue;
            }
            let row = self.row(i);
            for &c in cols {
                out.data.push(row[c].clone());
                out.codes.push(row_codes[c]);
            }
        }
        // Copied codes carry the source's generation, not the current one.
        out.generation = self.generation;
        if width > 0 && Self::is_schema_prefix(cols) && self.is_sorted_by(&[]) {
            out.sorted_by = Some(Box::from(&[][..]));
        }
        Ok(out)
    }

    /// Set intersection with another relation over the same schema.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        if self.schema != other.schema {
            return Err(DataError::ArityMismatch {
                context: format!("intersect {:?} with {:?}", self.schema, other.schema),
                expected: self.arity(),
                actual: other.arity(),
            });
        }
        // Code equality only means value equality within one generation.
        if self.arity() != 0
            && !self.is_empty()
            && !other.is_empty()
            && self.generation != other.generation
        {
            return Err(DataError::GenerationMismatch {
                left: self.generation,
                right: other.generation,
            });
        }
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        // Membership over dictionary codes: u32-slice hashing, and the probe
        // side borrows straight from the code mirror.
        let set: crate::FxHashSet<&[ValueCode]> =
            (0..small.len()).map(|i| small.row_codes(i)).collect();
        let mut out = Relation::new(self.schema.clone());
        // Output codes are copied from the operands' mirrors.
        out.generation = large.generation;
        let mut seen: crate::FxHashSet<&[ValueCode]> = crate::FxHashSet::default();
        for i in 0..large.len() {
            let codes = large.row_codes(i);
            if set.contains(codes) && seen.insert(codes) {
                out.data.extend_from_slice(large.row(i));
                out.codes.extend_from_slice(codes);
                if out.arity() == 0 {
                    out.push_row(Vec::new())?;
                }
            }
        }
        Ok(out)
    }

    /// Whether `row` occurs in the relation (linear scan; tests only).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.rows().any(|r| r == row)
    }

    /// Memory footprint estimate in values.
    pub fn value_count(&self) -> usize {
        self.data.len()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{:?} [{} rows]", self.schema, self.len())?;
        for row in self.rows().take(20) {
            writeln!(f, "  {row:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(attrs: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        Relation::from_rows(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn push_validates_arity() {
        let mut r = Relation::with_attrs(["x", "y"]).unwrap();
        assert!(r.push_row(vec![Value::Int(1)]).is_err());
        assert!(r.push_row(vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn sort_dedup_gives_set_semantics() {
        let mut r = rel(&["x", "y"], &[&[2, 1], &[1, 1], &[2, 1], &[1, 0]]);
        r.sort_dedup();
        let rows: Vec<Vec<i64>> = r
            .rows()
            .map(|row| row.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        assert_eq!(rows, vec![vec![1, 0], vec![1, 1], vec![2, 1]]);
    }

    #[test]
    fn sort_by_key_groups_buckets() {
        let mut r = rel(&["k", "v"], &[&[2, 9], &[1, 5], &[2, 3], &[1, 7]]);
        r.sort_by_key_then_row(&[0]);
        let rows: Vec<Vec<i64>> = r
            .rows()
            .map(|row| row.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        assert_eq!(rows, vec![vec![1, 5], vec![1, 7], vec![2, 3], vec![2, 9]]);
    }

    #[test]
    fn sort_by_key_secondary_is_full_row() {
        // Same key, order decided by the remaining columns.
        let mut r = rel(&["k", "a", "b"], &[&[1, 2, 9], &[1, 2, 3], &[1, 1, 8]]);
        r.sort_by_key_then_row(&[0]);
        let rows: Vec<i64> = r.rows().map(|row| row[2].as_int().unwrap()).collect();
        assert_eq!(rows, vec![8, 3, 9]);
    }

    #[test]
    fn retain_rows_filters_in_place() {
        let mut r = rel(&["x"], &[&[1], &[2], &[3], &[4]]);
        r.retain_rows(|row| row[0].as_int().unwrap() % 2 == 0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[Value::Int(2)]);
        assert_eq!(r.row(1), &[Value::Int(4)]);
    }

    #[test]
    fn retain_by_index_uses_mask() {
        let mut r = rel(&["x"], &[&[1], &[2], &[3]]);
        r.retain_by_index(&[true, false, true]);
        assert_eq!(r.len(), 2);
        assert!(r.contains_row(&[Value::Int(1)]));
        assert!(!r.contains_row(&[Value::Int(2)]));
    }

    #[test]
    fn project_and_dedup() {
        let r = rel(&["x", "y"], &[&[1, 5], &[1, 6], &[2, 5]]);
        let mut p = r.project(&[0], Schema::new(["x"]).unwrap()).unwrap();
        p.sort_dedup();
        assert_eq!(p.len(), 2);
    }

    /// `call` must refuse `column` as out of range, on an empty and on a
    /// non-empty two-column relation alike.
    fn assert_column_refused(
        call: impl Fn(&Relation) -> Result<Relation>,
        context: &'static str,
        column: usize,
    ) {
        for r in [rel(&["x", "y"], &[]), rel(&["x", "y"], &[&[1, 5]])] {
            let expected = DataError::ColumnOutOfRange {
                context,
                column,
                arity: 2,
            };
            assert_eq!(call(&r).unwrap_err(), expected);
        }
    }

    #[test]
    fn out_of_range_projection_column_is_refused() {
        let x = || Schema::new(["x"]).unwrap();
        assert_column_refused(|r| r.project(&[2], x()), "projection column", 2);
    }

    #[test]
    fn out_of_range_selection_column_is_refused() {
        let x = || Schema::new(["x"]).unwrap();
        let call = |r: &Relation| r.select_project(&[(5, 0)], &[], &[0], x());
        assert_column_refused(call, "selection column", 5);
    }

    #[test]
    fn out_of_range_equality_column_is_refused() {
        let x = || Schema::new(["x"]).unwrap();
        let call = |r: &Relation| r.select_project(&[], &[(0, 3)], &[0], x());
        assert_column_refused(call, "equality column", 3);
    }

    #[test]
    fn intersect_is_set_intersection() {
        let a = rel(&["x"], &[&[1], &[2], &[3], &[3]]);
        let b = rel(&["x"], &[&[3], &[4], &[1]]);
        let mut i = a.intersect(&b).unwrap();
        i.sort_dedup();
        assert_eq!(i.len(), 2);
        assert!(i.contains_row(&[Value::Int(1)]));
        assert!(i.contains_row(&[Value::Int(3)]));
    }

    #[test]
    fn intersect_rejects_schema_mismatch() {
        let a = rel(&["x"], &[&[1]]);
        let b = rel(&["y"], &[&[1]]);
        assert!(a.intersect(&b).is_err());
    }

    #[test]
    fn arity_zero_relation_tracks_empty_tuple() {
        let mut r = Relation::with_attrs(Vec::<&str>::new()).unwrap();
        assert!(r.is_empty());
        r.push_row(vec![]).unwrap();
        r.push_row(vec![]).unwrap();
        assert_eq!(r.len(), 2);
        r.sort_dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[] as &[Value]);
    }

    /// Whether `a` and `b` share one consistency witness.
    fn share(a: &Relation, b: &Relation) -> bool {
        Relation::share_consistency_witness(&[a.clone(), b.clone()])
    }

    fn marked_pair() -> (Relation, Relation) {
        let mut rels = [
            rel(&["x", "y"], &[&[2, 1], &[1, 1], &[2, 1]]),
            rel(&["y", "z"], &[&[1, 7], &[1, 8]]),
        ];
        Relation::mark_consistent(&mut rels);
        let [a, b] = rels;
        (a, b)
    }

    #[test]
    fn witness_survives_clone_sort_rehydrate_and_plain_projection() {
        let (mut a, b) = marked_pair();
        assert!(share(&a, &b));
        assert!(share(&a.clone(), &b));
        a.sort_dedup();
        assert!(share(&a, &b));
        a.sort_by_key_then_row(&[1]);
        assert!(share(&a, &b));
        a.rehydrate().unwrap();
        assert!(share(&a, &b));
        // Same names, any column order, no selection.
        let p = a
            .project(&[1, 0], Schema::new(["y", "x"]).unwrap())
            .unwrap();
        assert!(share(&p, &b));
        let p = a.project(&[1], Schema::new(["y"]).unwrap()).unwrap();
        assert!(share(&p, &b));
    }

    #[test]
    fn witness_is_dropped_by_every_filtering_or_renaming_operation() {
        let (a, b) = marked_pair();
        let mut pushed = a.clone();
        pushed.push_row(vec![Value::Int(9), Value::Int(9)]).unwrap();
        assert!(!share(&pushed, &b));
        let mut pushed = a.clone();
        pushed
            .push_row_slice(&[Value::Int(9), Value::Int(9)])
            .unwrap();
        assert!(!share(&pushed, &b));
        // Even a filter that removes nothing drops it.
        let mut kept = a.clone();
        kept.retain_rows(|_| true);
        assert!(!share(&kept, &b));
        let mut kept = a.clone();
        kept.retain_by_index(&vec![true; a.len()]);
        assert!(!share(&kept, &b));
        let i = a.intersect(&a).unwrap();
        assert!(!share(&i, &b));
        let one = dict::code_of(&Value::Int(1)).unwrap();
        let schema = || Schema::new(["x", "y"]).unwrap();
        let selected = a
            .select_project(&[(1, one)], &[], &[0, 1], schema())
            .unwrap();
        assert!(!share(&selected, &b));
        let equal = a.select_project(&[], &[(0, 1)], &[0, 1], schema()).unwrap();
        assert!(!share(&equal, &b));
        let renamed = a
            .project(&[0, 1], Schema::new(["u", "y"]).unwrap())
            .unwrap();
        assert!(!share(&renamed, &b));
        let swapped = a.project(&[1, 0], schema()).unwrap();
        assert!(!share(&swapped, &b));
        let mut cleared = a.clone();
        cleared.clear_consistency_witness();
        assert!(!share(&cleared, &b));
    }

    #[test]
    fn witnesses_of_two_marks_differ() {
        let (a, _) = marked_pair();
        let (_, b) = marked_pair();
        assert!(!share(&a, &b));
        assert!(!Relation::share_consistency_witness(&[]));
        let unmarked = rel(&["x"], &[&[1]]);
        assert!(!Relation::share_consistency_witness(&[unmarked]));
    }

    #[test]
    fn key_of_extracts_columns() {
        let row = [Value::Int(1), Value::Int(2), Value::Int(3)];
        let key = key_of(&row, &[2, 0]);
        assert_eq!(&*key, &[Value::Int(3), Value::Int(1)]);
    }
}
