//! Ordered random access for **general** unions of free-connex CQs
//! (DESIGN.md §11) — no shared-template (mc-UCQ) restriction.
//!
//! The mc-UCQ structure ([`crate::McUcqIndex`], Theorem 5.5) counts union
//! ranks by inclusion–exclusion over materialized *intersection indexes*,
//! which only exist when every disjunct reduces to one join-tree template.
//! [`RankedUcq`] drops that requirement: each disjunct gets its own
//! [`OrderedCqIndex`] (possibly a completely different synthesized layout —
//! only the realized variable order must agree), and the union rank of any
//! tuple is corrected for duplicates by per-member *ownership*: an answer
//! shared by several members is owned by (counted at) the least member
//! containing it.
//!
//! For member `i`, preprocessing materializes the sorted list of its
//! **non-owned positions** — ranks of answers that also occur in some
//! member `j < i`. The number of *owned* answers among member `i`'s first
//! `p` positions is then `p − |{non-owned < p}|` (one binary search), and
//! every union-rank question becomes a sum over members:
//!
//! * `lt_∪(t) = Σᵢ owned_before_i(ltᵢ(t))` — the distinct-union rank of `t`
//!   (each `ltᵢ` is an O(log n) rank descent, [`OrderedCqIndex::prefix_bounds`]);
//! * [`RankedUcq::ordered_access`]`(k)` locates, in each member `i ≥ 1`, the
//!   first answer whose union `le`-rank exceeds `k`. Preprocessing stored
//!   *fences* — the union `le`-ranks of member `i`'s answers at positions
//!   `0, sᵢ, 2sᵢ, …` — so the search is one binary search over the fences
//!   plus O(log sᵢ) probes inside the stride window the fences leave. If
//!   that answer's `le`-rank is `k + 1` it *is* the `k`-th union answer and
//!   is returned; otherwise its owned prefix `cᵢ` is summed. Member 0 owns
//!   every answer it contains, so when no later member holds the answer it
//!   sits in member 0 at `k − Σ cᵢ`. One member access in total; no rank
//!   descent at all when every stride is 1;
//! * [`RankedUcq::ordered_inverted_access`] is one Algorithm 4 hash probe
//!   per member that contains the answer and a rank descent per member
//!   that lacks it;
//! * [`RankedUcq::range_count`] is a single sweep of rank descents.
//!
//! The stride is `sᵢ = ⌈nᵢ / rowsᵢ⌉`, where `rowsᵢ` is the total length of
//! member `i`'s node relations, so member `i` keeps at most `rowsᵢ` fences
//! and preprocessing stays linear in the input. A member whose output does
//! not exceed its input (a single-atom index, e.g. the serving layer's
//! delta) gets stride 1: every answer's union rank is stored and the access
//! makes zero probes. Building a fence costs one member access plus a rank
//! descent in each *other* member (member `i`'s own term is its position).
//!
//! Non-owned positions are discovered by a pairwise *leapfrog* walk over
//! the ordered indexes: both cursors jump via rank descents, so a pair
//! costs O((|Qᵢ(D) ∩ Qⱼ(D)| + alternations) · log n) — it never enumerates
//! the non-overlapping bulk of either member. Worst case (two members with
//! a huge intersection) this is output-sensitive rather than linear in
//! `|D|`. That worst case is **cost-capped**: the walk counts its steps,
//! and once they exceed the point where a plain linear merge of the two
//! constant-delay member enumerations is cheaper (each leapfrog step costs
//! O(log n) rank descents; the merge costs O(1) per answer), discovery
//! restarts as that merge (`merge_matches`) — so per-pair preprocessing
//! is `O(min((matches + alternations)·log n, nᵢ + nⱼ))`, never worse than
//! linear in the member outputs — also for near-identical members, where
//! the merge is the whole discovery (DESIGN.md §17).

// Sanctioned panics: each `expect` names a rank-structure invariant (members are built over
// the same order, so windows and cursors stay in bounds); violation is a bug.
#![allow(clippy::expect_used)]

use crate::archive::OrderedCqIndexArchive;
use crate::error::CoreError;
use crate::ordered::{OrderedCqIndex, OrderedEnumeration};
use crate::renum_ucq::{ensure_shared_layout, OrderedUnionEnumeration};
use crate::scratch::AccessScratch;
use crate::weight::Weight;
use crate::Result;
use rae_data::{Database, Symbol, Value};
use rae_faults::degrade;
use rae_query::{QueryError, UnionQuery};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Ordered random access, rank lookup, and range counting over a general
/// union of free-connex CQs, duplicates counted once.
///
/// ```
/// use rae_core::RankedUcq;
/// use rae_data::{Database, Relation, Schema, Symbol, Value};
///
/// let mut db = Database::new();
/// let rel = |rows: &[[i64; 2]]| {
///     Relation::from_rows(
///         Schema::new(["a", "b"]).unwrap(),
///         rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
///     )
///     .unwrap()
/// };
/// db.add_relation("R", rel(&[[1, 1], [2, 2]])).unwrap();
/// db.add_relation("S", rel(&[[2, 2], [3, 3]])).unwrap();
/// let u = "Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y)."
///     .parse()
///     .unwrap();
/// let order = [Symbol::new("x"), Symbol::new("y")];
/// let ranked = RankedUcq::build(&u, &db, &order).unwrap();
///
/// // (2,2) is shared: the distinct union has 3 answers, ranked by x.
/// assert_eq!(ranked.count(), 3);
/// assert_eq!(
///     ranked.ordered_access(1).unwrap(),
///     vec![Value::Int(2), Value::Int(2)]
/// );
/// assert_eq!(
///     ranked.ordered_inverted_access(&[Value::Int(3), Value::Int(3)]),
///     Some(2)
/// );
/// assert_eq!(ranked.range_count(&[Value::Int(2)]).unwrap(), 1);
/// ```
#[derive(Debug)]
pub struct RankedUcq {
    /// Members are `Arc`-shared so a large base index can participate in
    /// many union structures (the serving layer republishes base ⊎ delta on
    /// every write batch) without being copied or rebuilt.
    members: Vec<Arc<OrderedCqIndex>>,
    /// Per member: sorted ranks of answers owned by an earlier member.
    non_owned: Vec<Vec<Weight>>,
    /// Per member: union `le`-ranks sampled at a fixed stride (module
    /// docs). Empty for member 0.
    fences: Vec<Fences>,
    /// The most plan nodes of any member: both scratch buffers are sized
    /// for it, so answers from any member land in them without growing.
    max_nodes: usize,
    /// Order-significant head positions (shared by all members).
    cmp_positions: Vec<usize>,
    /// `|Q_1(D) ∪ … ∪ Q_m(D)|`.
    total: Weight,
}

/// Member `i`'s union `le`-ranks at positions `0, stride, 2·stride, …`:
/// `ranks[j]` counts the distinct union answers at or below member `i`'s
/// answer at position `j · stride`.
#[derive(Debug, Default)]
struct Fences {
    stride: Weight,
    ranks: Vec<Weight>,
}

/// Reusable buffers for [`RankedUcq`]'s allocation-free accessors: two
/// [`AccessScratch`]es — `probe` for in-window search probes and the
/// inverted hash probes, `out` for the returned answer, which may come from
/// any member. The access paths size both for the widest member on first
/// use.
#[derive(Debug, Default)]
pub struct RankedScratch {
    probe: AccessScratch,
    out: AccessScratch,
}

impl RankedScratch {
    /// Runs `f` over the calling thread's own scratch, so one-shot
    /// accessors (the allocating wrappers here and in the serving layer)
    /// reuse warm buffers instead of sizing fresh ones on every call. A
    /// nested call, while the thread's scratch is lent out, gets a fresh
    /// one.
    pub fn with_thread_local<T>(f: impl FnOnce(&mut RankedScratch) -> T) -> T {
        thread_local! {
            static LOCAL: RefCell<RankedScratch> = RefCell::default();
        }
        LOCAL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut RankedScratch::default()),
        })
    }
}

impl RankedUcq {
    /// Builds one ordered index per disjunct, all realizing `order`, and
    /// discovers cross-member duplicates.
    ///
    /// Fails like [`OrderedCqIndex::build`] when any disjunct is outside
    /// the tractable class or cannot realize the order, and with
    /// [`rae_query::QueryError::EmptyUnion`] on an empty union.
    pub fn build(ucq: &UnionQuery, db: &Database, order: &[Symbol]) -> Result<Self> {
        let members = ucq
            .disjuncts()
            .iter()
            .map(|d| OrderedCqIndex::build(d, db, order).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Self::from_shared_members(members)
    }

    /// Builds the union rank structure over pre-built member indexes.
    ///
    /// Errors with [`CoreError::MismatchedOrders`] unless all members share
    /// one head layout and realized order.
    pub fn from_members(members: Vec<OrderedCqIndex>) -> Result<Self> {
        Self::from_shared_members(members.into_iter().map(Arc::new).collect())
    }

    /// [`RankedUcq::from_members`] over `Arc`-shared member indexes: members
    /// already owned elsewhere (e.g. a serving snapshot's base index) join
    /// the union without a copy.
    pub fn from_shared_members(members: Vec<Arc<OrderedCqIndex>>) -> Result<Self> {
        // Catch boundary for the duplicate-discovery phase (the member
        // builds carry their own); a panic here surfaces as `BuildPanicked`.
        crate::error::catch_build("RankedUcq::from_members", move || {
            if members.is_empty() {
                return Err(CoreError::Query(QueryError::EmptyUnion));
            }
            let cmp_positions = ensure_shared_layout(members.iter().map(Arc::as_ref))?;
            // Guard the union's rank space before the (possibly expensive)
            // duplicate discovery: every union rank sum below is bounded by
            // Σ member counts, so checking that one sum here makes extreme
            // synthetic cardinalities fail fast and structured instead of
            // wrapping inside a rank query.
            let over = || crate::error::rank_overflow("union rank sums");
            members.iter().try_fold(0 as Weight, |acc, m| {
                acc.checked_add(m.count()).ok_or_else(over)
            })?;
            let non_owned = discover_non_owned(&members, &cmp_positions);
            let total = members
                .iter()
                .zip(&non_owned)
                .map(|(m, d)| m.count() - d.len() as Weight)
                .sum();
            let max_nodes = members
                .iter()
                .map(|m| m.index().node_count())
                .max()
                .unwrap_or(0);
            let mut ranked = RankedUcq {
                members,
                non_owned,
                fences: Vec::new(),
                max_nodes,
                cmp_positions,
                total,
            };
            ranked.fences = ranked.build_fences()?;
            Ok(ranked)
        })
    }

    /// The archive form (DESIGN.md §15): one ordered archive per member, in
    /// member order. Ownership and fences are derived state and are not
    /// archived.
    pub fn to_archive(&self) -> Vec<OrderedCqIndexArchive> {
        self.members.iter().map(|m| m.to_archive()).collect()
    }

    /// Reconstructs the union from member archives: each passes the full
    /// [`OrderedCqIndex::from_archive`] validation, then
    /// [`RankedUcq::from_members`] recomputes ownership and fences, so no
    /// union-level state is trusted from the file. Fails like
    /// `from_members` on zero members or on members whose heads or realized
    /// orders differ.
    pub fn from_archive(members: Vec<OrderedCqIndexArchive>) -> Result<Self> {
        let members = members
            .into_iter()
            .map(OrderedCqIndex::from_archive)
            .collect::<Result<Vec<_>>>()?;
        Self::from_members(members)
    }

    /// The fences of every member (member 0 gets none): member `i`'s union
    /// `le`-ranks at stride `⌈nᵢ / rowsᵢ⌉`, at most `rowsᵢ` of them, each
    /// one member access plus a rank descent in every other member.
    fn build_fences(&self) -> Result<Vec<Fences>> {
        let mut scratch = AccessScratch::new();
        let mut out = Vec::with_capacity(self.members.len());
        out.push(Fences::default());
        for (i, member) in self.members.iter().enumerate().skip(1) {
            let index = member.index();
            let rows: usize = (0..index.node_count())
                .map(|node| index.node_relation(node).len())
                .sum();
            let n = member.count();
            let stride = n.div_ceil(rows.max(1) as Weight).max(1);
            // At most `rows` fences, so the count fits a `usize`.
            let len = n.div_ceil(stride) as usize;
            let mut ranks = Vec::with_capacity(len);
            for j in 0..len {
                let pos = j as Weight * stride;
                let ans = member
                    .ordered_access_into(pos, &mut scratch)
                    .expect("pos < count");
                ranks.push(self.member_union_le(i, pos, ans)?);
            }
            out.push(Fences { stride, ranks });
        }
        Ok(out)
    }

    /// The per-disjunct ordered indexes (shared handles; deref to
    /// [`OrderedCqIndex`]).
    pub fn members(&self) -> &[Arc<OrderedCqIndex>] {
        &self.members
    }

    /// The head attributes, in answer-tuple order.
    pub fn head(&self) -> &[Symbol] {
        self.members[0].head()
    }

    /// The realized lexicographic variable order.
    pub fn order(&self) -> &[Symbol] {
        self.members[0].order()
    }

    /// `|Q_1(D) ∪ … ∪ Q_m(D)|` (duplicates counted once) — O(1).
    pub fn count(&self) -> Weight {
        self.total
    }

    /// Answers among member `i`'s first `p` positions that member `i` owns.
    #[inline]
    fn owned_before(&self, i: usize, p: Weight) -> Weight {
        p - self.non_owned[i].partition_point(|&x| x < p) as Weight
    }

    /// The union `le`-rank of `ans`, member `i`'s answer at position `pos`:
    /// member `i` contributes its owned answers among positions `0..=pos`
    /// directly; only the other members pay a rank descent.
    fn member_union_le(&self, i: usize, pos: Weight, ans: &[Value]) -> Result<Weight> {
        let over = || crate::error::rank_overflow("union rank sums");
        let mut le = self.owned_before(i, pos + 1);
        for (j, m) in self.members.iter().enumerate() {
            if j != i {
                let (_, e) = m.tuple_bounds(ans)?;
                le = le.checked_add(self.owned_before(j, e)).ok_or_else(over)?;
            }
        }
        Ok(le)
    }

    /// The `(lt, le)` union ranks bracketing a prefix of order values:
    /// distinct union answers strictly below / below-or-matching the
    /// prefix. O(m log n), allocation-free.
    ///
    /// # Panics
    /// When `prefix` is longer than the arity.
    pub fn prefix_bounds(&self, prefix: &[Value]) -> Result<(Weight, Weight)> {
        let over = || crate::error::rank_overflow("union rank sums");
        let (mut lt, mut le) = (0 as Weight, 0 as Weight);
        for (i, m) in self.members.iter().enumerate() {
            let (l, e) = m.prefix_bounds(prefix)?;
            lt = lt.checked_add(self.owned_before(i, l)).ok_or_else(over)?;
            le = le.checked_add(self.owned_before(i, e)).ok_or_else(over)?;
        }
        Ok((lt, le))
    }

    /// The number of distinct union answers matching a prefix of order
    /// values — O(m log n), nothing enumerated.
    pub fn range_count(&self, prefix: &[Value]) -> Result<Weight> {
        let (lt, le) = self.prefix_bounds(prefix)?;
        Ok(le - lt)
    }

    /// The contiguous union-rank range of all answers matching a prefix of
    /// order values.
    pub fn range_of_prefix(&self, prefix: &[Value]) -> Result<Range<Weight>> {
        let (lt, le) = self.prefix_bounds(prefix)?;
        Ok(lt..le)
    }

    /// The `k`-th distinct union answer under the order, or `None` when
    /// `k ≥ count()` — per member `i ≥ 1` a binary search over its fences
    /// and O(log sᵢ) probes of O(m log n) each, then one member access:
    /// O(m log n) plus one core access when every stride is 1, a single
    /// core access when m = 1.
    pub fn ordered_access(&self, k: Weight) -> Option<Vec<Value>> {
        RankedScratch::with_thread_local(|s| self.ordered_access_into(k, s).map(<[Value]>::to_vec))
    }

    /// Allocation-free [`RankedUcq::ordered_access`]: writes into `scratch`
    /// and returns a borrow.
    pub fn ordered_access_into<'s>(
        &self,
        k: Weight,
        scratch: &'s mut RankedScratch,
    ) -> Option<&'s [Value]> {
        if k >= self.total {
            return None;
        }
        let arity = self.head().len();
        scratch.probe.reserve_access(arity, self.max_nodes);
        scratch.out.reserve_access(arity, self.max_nodes);
        // Per member i ≥ 1: `lo`, the first position whose answer's union
        // le-rank exceeds k (the union rank is strictly increasing along the
        // member's order). If that answer's le-rank is exactly k + 1 it is
        // the k-th union answer u_k. Otherwise u_k is not in member i, and
        // its `c_i` owned answers before `lo` are exactly member i's owned
        // answers below u_k. If no member i ≥ 1 holds u_k, member 0 owns it
        // and every union answer below it has one owner, so member 0 owns
        // `k − Σ c_i` answers below u_k — which, since member 0 owns all
        // its answers, is u_k's position there.
        let mut below: Weight = 0;
        for (i, member) in self.members.iter().enumerate().skip(1) {
            let Fences { stride, ranks } = &self.fences[i];
            // Fence f−1 is at or below k and fence f above it, so `lo` lies
            // in ((f−1)·s, f·s] — an empty window when s = 1.
            let f = ranks.partition_point(|&le| le <= k) as Weight;
            let mut lo = if f == 0 { 0 } else { (f - 1) * stride + 1 };
            let mut hi = (f * stride).min(member.count());
            // The le-rank at `hi`; 0 (never k + 1) when `hi` is past the
            // member's last answer.
            let mut le_hi = ranks.get(f as usize).copied().unwrap_or(0);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let ans = member
                    .ordered_access_into(mid, &mut scratch.probe)
                    .expect("mid < count");
                // Build-checked: Σ member counts fits the rank space and
                // bounds every union sum, so the checked arithmetic cannot
                // trip on a successfully built structure.
                let le = self.member_union_le(i, mid, ans).ok()?;
                if le > k {
                    hi = mid;
                    le_hi = le;
                } else {
                    lo = mid + 1;
                }
            }
            if le_hi == k + 1 {
                return member.ordered_access_into(lo, &mut scratch.out);
            }
            below += self.owned_before(i, lo);
        }
        // Σ c_i ≤ k: the c_i count distinct union answers below u_k.
        self.members[0].ordered_access_into(k - below, &mut scratch.out)
    }

    /// The rank of `answer` (head order) among the distinct union answers,
    /// or `None` when no member contains it — one hash probe per member,
    /// plus an O(log n) rank descent per member that lacks the answer.
    pub fn ordered_inverted_access(&self, answer: &[Value]) -> Option<Weight> {
        RankedScratch::with_thread_local(|s| self.ordered_inverted_access_of(answer, s))
    }

    /// Allocation-free [`RankedUcq::ordered_inverted_access`] over the
    /// buffers in `scratch`.
    ///
    /// A member containing the answer gives its exact position by
    /// Algorithm 4 ([`OrderedCqIndex::ordered_inverted_access_of`]: hash
    /// probes on dictionary codes); only members that lack it fall back to
    /// a rank descent for the number of their answers below it.
    pub fn ordered_inverted_access_of(
        &self,
        answer: &[Value],
        scratch: &mut RankedScratch,
    ) -> Option<Weight> {
        if answer.len() != self.head().len() {
            return None;
        }
        // The checked sums are build-guarded (Σ member counts fits the rank
        // space); a trip would mean a corrupted structure and degrades to
        // "not found".
        let (mut lt, mut contained) = (0 as Weight, false);
        for (i, m) in self.members.iter().enumerate() {
            let l = match m.ordered_inverted_access_of(answer, &mut scratch.probe) {
                Some(pos) => {
                    contained = true;
                    pos
                }
                None => m.tuple_bounds(answer).ok()?.0,
            };
            lt = lt.checked_add(self.owned_before(i, l))?;
        }
        contained.then_some(lt)
    }

    /// Compares two answers (head order) by the shared lexicographic order.
    pub fn order_cmp(&self, a: &[Value], b: &[Value]) -> Ordering {
        for &p in &self.cmp_positions {
            match a[p].cmp(&b[p]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// A constant-delay ordered scan of the whole distinct union (the
    /// k-way member merge).
    pub fn enumerate(&self) -> OrderedUnionEnumeration<'_> {
        OrderedUnionEnumeration::from_members(self.members.iter().map(Arc::as_ref))
            .expect("members share one layout by construction")
    }

    /// A duplicate-eliminating scan over a union-rank window
    /// `[range.start, range.end)` (out-of-bounds ends are clamped): each
    /// member is seeked past the answers below the window in O(log n), so
    /// skipped pages are never paid for.
    pub fn range(&self, range: Range<Weight>) -> RankedUnionWindow<'_> {
        let lo = range.start.min(self.total);
        let hi = range.end.min(self.total).max(lo);
        if lo == hi {
            let merge = OrderedUnionEnumeration::from_windows(
                self.members
                    .iter()
                    .map(|m| (m.as_ref(), m.range(0..0)))
                    .collect(),
            )
            .expect("members share one layout by construction");
            return RankedUnionWindow {
                merge,
                remaining: 0,
            };
        }
        let mut scratch = RankedScratch::default();
        let first = self
            .ordered_access_into(lo, &mut scratch)
            .expect("lo < count");
        let windows: Vec<(&OrderedCqIndex, OrderedEnumeration<'_>)> = self
            .members
            .iter()
            .map(|m| {
                let (lt, _) = m
                    .tuple_bounds(first)
                    .expect("rank sums bounded by build-checked member counts");
                (m.as_ref(), m.range(lt..m.count()))
            })
            .collect();
        let merge =
            OrderedUnionEnumeration::from_windows(windows).expect("layout checked at build");
        RankedUnionWindow {
            merge,
            remaining: hi - lo,
        }
    }

    /// A duplicate-eliminating scan of every union answer matching a prefix
    /// of order values, in order.
    pub fn enumerate_prefix(&self, prefix: &[Value]) -> Result<RankedUnionWindow<'_>> {
        Ok(self.range(self.range_of_prefix(prefix)?))
    }
}

/// A bounded window over a [`RankedUcq`]'s duplicate-eliminating merge
/// (see [`RankedUcq::range`]).
#[derive(Debug)]
pub struct RankedUnionWindow<'a> {
    merge: OrderedUnionEnumeration<'a>,
    remaining: Weight,
}

impl RankedUnionWindow<'_> {
    /// Distinct answers left in the window.
    pub fn remaining(&self) -> Weight {
        self.remaining
    }

    /// The next distinct union answer as a borrow of the merge buffer
    /// (zero-allocation), or `None` when the window is exhausted.
    pub fn next_ref(&mut self) -> Option<&[Value]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.merge.next_ref()
    }
}

impl Iterator for RankedUnionWindow<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        self.next_ref().map(<[Value]>::to_vec)
    }
}

/// Per member: sorted ranks of answers also contained in an earlier member
/// (the non-owned positions). Member 0 owns everything it contains.
///
/// Each pair is first walked by the cost-capped leapfrog; if the cap trips
/// (or the `"ranked/leapfrog"` failpoint fires), the pair is redone by the
/// linear [`merge_matches`], so a pair never costs more than
/// `O(nᵢ + nⱼ)` regardless of the intersection shape. The `BTreeSet`
/// absorbs any positions the aborted leapfrog already found — they are all
/// genuine matches, so the merge simply completes the set.
fn discover_non_owned(
    members: &[Arc<OrderedCqIndex>],
    cmp_positions: &[usize],
) -> Vec<Vec<Weight>> {
    let mut scratch = AccessScratch::new();
    let mut out: Vec<Vec<Weight>> = Vec::with_capacity(members.len());
    out.push(Vec::new());
    for j in 1..members.len() {
        let mut dupes: BTreeSet<Weight> = BTreeSet::new();
        for i in 0..j {
            let (a, b) = (members[i].as_ref(), members[j].as_ref());
            let capped = rae_faults::eval_error("ranked/leapfrog")
                || !leapfrog_matches(a, b, &mut dupes, &mut scratch, step_cap(a, b));
            if capped {
                degrade::record("ranked/leapfrog");
                merge_matches(a, b, cmp_positions, &mut dupes);
            }
        }
        out.push(dupes.into_iter().collect());
    }
    out
}

/// Leapfrog step allowance for a member pair. Each leapfrog step performs
/// O(log n) rank descents where a merge step costs O(1), so once the walk
/// has taken more than ~an eighth of the merge's step count the merge is
/// the cheaper algorithm; the constant floor keeps tiny members from
/// degrading on noise.
fn step_cap(a: &OrderedCqIndex, b: &OrderedCqIndex) -> u64 {
    let n = (a.count() + b.count()) as u64;
    n / 8 + 64
}

/// Inserts into `out` the positions in `b` of every answer shared with `a`,
/// by a leapfrog walk: each side's cursor jumps over the other's gaps with
/// one O(log n) rank descent, so runs of non-overlapping answers cost one
/// step instead of one step per answer.
///
/// Returns `false` when the walk exceeds `cap` steps (adversarial overlap
/// shapes make leapfrog output-sensitive); the caller then falls back to
/// the linear [`merge_matches`]. Positions already inserted stay valid.
fn leapfrog_matches(
    a: &OrderedCqIndex,
    b: &OrderedCqIndex,
    out: &mut BTreeSet<Weight>,
    scratch: &mut AccessScratch,
    cap: u64,
) -> bool {
    let (na, nb) = (a.count(), b.count());
    let (mut pa, mut pb) = (0 as Weight, 0 as Weight);
    let mut steps = 0u64;
    while pa < na && pb < nb {
        steps += 1;
        if steps > cap {
            return false;
        }
        let Some(ta) = a.ordered_access_into(pa, scratch) else {
            unreachable!("pa < member count");
        };
        let (lt_b, le_b) = b
            .tuple_bounds(ta)
            .expect("rank descents over a built member stay in rank space");
        if le_b > lt_b {
            // ta ∈ b at position lt_b; continue after it on both sides.
            out.insert(lt_b);
            pa += 1;
            pb = le_b;
        } else {
            if lt_b >= nb {
                break; // every remaining b-answer is below ta
            }
            // b's next candidate is its first answer above ta; jump a past
            // everything below it. tb > ta guarantees progress (lt_a > pa).
            let Some(tb) = b.ordered_access_into(lt_b, scratch) else {
                unreachable!("lt_b < member count");
            };
            let (lt_a, _) = a
                .tuple_bounds(tb)
                .expect("rank descents over a built member stay in rank space");
            pa = lt_a;
            pb = lt_b;
        }
    }
    true
}

/// Linear fallback for [`leapfrog_matches`]: a dual-cursor merge over the
/// two members' constant-delay ordered enumerations, inserting into `out`
/// the `b`-positions of every shared answer. Exactly `O(na + nb)` steps —
/// the graceful-degradation bound when leapfrog's output sensitivity makes
/// it the slower algorithm.
fn merge_matches(
    a: &OrderedCqIndex,
    b: &OrderedCqIndex,
    cmp_positions: &[usize],
    out: &mut BTreeSet<Weight>,
) {
    let cmp_at = |x: &[Value], y: &[Value]| -> Ordering {
        for &p in cmp_positions {
            match x[p].cmp(&y[p]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    };
    let mut ea = a.range(0..a.count());
    let mut eb = b.range(0..b.count());
    // The enumerations lend their cursor buffer, so each side keeps its own
    // reusable copy of the current tuple.
    let mut ta: Vec<Value> = Vec::new();
    let mut tb: Vec<Value> = Vec::new();
    let next_into = |e: &mut OrderedEnumeration<'_>, buf: &mut Vec<Value>| -> bool {
        match e.next_ref() {
            Some(t) => {
                buf.clear();
                buf.extend_from_slice(t);
                true
            }
            None => false,
        }
    };
    let mut have_a = next_into(&mut ea, &mut ta);
    let mut have_b = next_into(&mut eb, &mut tb);
    let mut pb: Weight = 0;
    while have_a && have_b {
        match cmp_at(&ta, &tb) {
            Ordering::Less => {
                have_a = next_into(&mut ea, &mut ta);
            }
            Ordering::Greater => {
                have_b = next_into(&mut eb, &mut tb);
                pb += 1;
            }
            Ordering::Equal => {
                out.insert(pb);
                have_a = next_into(&mut ea, &mut ta);
                have_b = next_into(&mut eb, &mut tb);
                pb += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use rae_data::{Relation, Schema};

    /// A mixed-template union: Q1 reduces to the single bag {x,y}, Q2 to
    /// the cross-product forest {x}, {y} — no shared template, so the
    /// mc-UCQ structure refuses it while RankedUcq serves it.
    fn mixed_db() -> Database {
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            rel_int(&["a", "b"], &[&[1, 1], &[1, 2], &[2, 1], &[3, 3]]),
        );
        add(&mut db, "S", rel_int(&["a"], &[&[1], &[2]]));
        add(&mut db, "T", rel_int(&["a"], &[&[1], &[3]]));
        db
    }

    fn mixed_union() -> UnionQuery {
        ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x), T(y).")
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

    fn check_ranked(u: &UnionQuery, db: &Database, order: &[&str]) {
        let syms: Vec<Symbol> = order.iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(u, db, &syms).unwrap();
        let expected = sorted_union(u, db, order);
        assert_eq!(ranked.count() as usize, expected.len(), "count");
        // One scratch across every call: candidate swaps must not leak
        // state from one access into the next.
        let mut scratch = RankedScratch::default();
        for (k, row) in expected.iter().enumerate() {
            assert_eq!(
                ranked.ordered_access(k as Weight).as_ref(),
                Some(row),
                "rank {k} under {order:?}"
            );
            assert_eq!(
                ranked.ordered_access_into(k as Weight, &mut scratch),
                Some(row.as_slice()),
                "scratch rank {k} under {order:?}"
            );
            assert_eq!(
                ranked.ordered_inverted_access(row),
                Some(k as Weight),
                "inverted rank {k}"
            );
            assert_eq!(
                ranked.ordered_inverted_access_of(row, &mut scratch),
                Some(k as Weight),
                "scratch inverted rank {k}"
            );
        }
        assert!(ranked.ordered_access(ranked.count()).is_none());
        assert!(ranked
            .ordered_access_into(ranked.count(), &mut scratch)
            .is_none());
        let merged: Vec<Vec<Value>> = ranked.enumerate().collect();
        assert_eq!(merged, expected, "merge vs ranks");
        check_fences(&ranked);
    }

    /// Every member `i ≥ 1` keeps at most `rowsᵢ` fences, one per stride,
    /// each the union `le`-rank of the answer it samples; member 0 keeps
    /// none.
    fn check_fences(ranked: &RankedUcq) {
        assert!(ranked.fences[0].ranks.is_empty(), "member 0 has no fences");
        for (i, m) in ranked.members().iter().enumerate().skip(1) {
            let Fences { stride, ranks } = &ranked.fences[i];
            let index = m.index();
            let rows: usize = (0..index.node_count())
                .map(|node| index.node_relation(node).len())
                .sum();
            assert!(ranks.len() <= rows, "member {i}: {} fences", ranks.len());
            assert_eq!(*stride, m.count().div_ceil(rows.max(1) as Weight).max(1));
            assert_eq!(ranks.len() as Weight, m.count().div_ceil(*stride));
            for (j, &le) in ranks.iter().enumerate() {
                let ans = m.ordered_access(j as Weight * stride).unwrap();
                assert_eq!(Some(le - 1), ranked.ordered_inverted_access(&ans));
            }
        }
    }

    /// A member whose output exceeds its input rows gets stride > 1, so
    /// access binary-searches inside the window between two fences.
    #[test]
    fn stride_windows_match_naive() {
        let int_rel = |attrs: &[&str], rows: Vec<Vec<i64>>| {
            let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            rel_int(attrs, &rows)
        };
        let mut db = Database::new();
        add(
            &mut db,
            "A",
            int_rel(&["a"], (0..7).map(|v| vec![v]).collect()),
        );
        add(
            &mut db,
            "B",
            int_rel(&["a"], (0..5).map(|v| vec![v]).collect()),
        );
        // P meets A × B on some pairs and adds answers outside it.
        let p = (0..9).map(|v| vec![v, (v * 3) % 6]).collect();
        add(&mut db, "P", int_rel(&["a", "b"], p));
        let unions = [
            "Q1(x, y) :- P(x, y). Q2(x, y) :- A(x), B(y).",
            "Q1(x, y) :- A(x), B(y). Q2(x, y) :- P(x, y).",
            "Q1(x, y) :- P(x, y). Q2(x, y) :- A(x), B(y). Q3(x, y) :- B(x), A(y).",
        ];
        for text in unions {
            let u = ucq(text);
            check_ranked(&u, &db, &["x", "y"]);
            check_ranked(&u, &db, &["y", "x"]);
        }
        let ranked = RankedUcq::build(&ucq(unions[0]), &db, &syms(&["x", "y"])).unwrap();
        // 35 answers over 12 rows.
        assert_eq!(ranked.fences[1].stride, 3);
    }

    #[test]
    fn mixed_template_union_matches_naive_sorted() {
        let db = mixed_db();
        let u = mixed_union();
        check_ranked(&u, &db, &["x", "y"]);
        check_ranked(&u, &db, &["y", "x"]);
        // The same union is refused by the mc-UCQ template builder.
        assert!(matches!(
            crate::McUcqIndex::build(&u, &db),
            Err(CoreError::IncompatibleTemplates { .. })
        ));
    }

    #[test]
    fn range_count_matches_naive_filter() {
        let db = mixed_db();
        let u = mixed_union();
        let syms: Vec<Symbol> = ["y", "x"].iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        let all = sorted_union(&u, &db, &["y", "x"]);
        let head_of = |p: usize| ranked.members()[0].order_to_head()[p];
        for answer in &all {
            for plen in 0..=2 {
                let prefix: Vec<Value> = (0..plen).map(|p| answer[head_of(p)].clone()).collect();
                let expected = all
                    .iter()
                    .filter(|r| (0..plen).all(|p| r[head_of(p)] == prefix[p]))
                    .count() as Weight;
                assert_eq!(
                    ranked.range_count(&prefix).unwrap(),
                    expected,
                    "prefix {prefix:?}"
                );
                let window: Vec<Vec<Value>> = ranked.enumerate_prefix(&prefix).unwrap().collect();
                assert_eq!(window.len() as Weight, expected);
            }
        }
        assert_eq!(ranked.range_count(&[Value::Int(999)]).unwrap(), 0);
        assert_eq!(ranked.range_count(&[]).unwrap(), ranked.count());
    }

    #[test]
    fn range_windows_paginate_consistently() {
        let db = mixed_db();
        let u = mixed_union();
        let syms: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        let all: Vec<Vec<Value>> = ranked.enumerate().collect();
        for window in [1 as Weight, 2, 3] {
            let mut paged: Vec<Vec<Value>> = Vec::new();
            let mut at: Weight = 0;
            while at < ranked.count() {
                paged.extend(ranked.range(at..at + window));
                at += window;
            }
            assert_eq!(paged, all, "window {window}");
        }
        assert_eq!(ranked.range(ranked.count()..Weight::MAX).count(), 0);
    }

    #[test]
    fn identical_members_count_once() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2], &[3]]));
        add(&mut db, "S", rel_int(&["a"], &[&[1], &[2], &[3]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        check_ranked(&u, &db, &["x"]);
        let syms = [Symbol::new("x")];
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        assert_eq!(ranked.count(), 3);
    }

    /// A union of single-relation members `Qi(x, y) :- Ri(x, y)`, one per
    /// row list.
    fn member_union(members: &[&[&[i64]]]) -> (UnionQuery, Database) {
        let mut db = Database::new();
        let mut text = String::new();
        for (i, rows) in members.iter().enumerate() {
            add(&mut db, &format!("R{i}"), rel_int(&["a", "b"], rows));
            text.push_str(&format!("Q{i}(x, y) :- R{i}(x, y). "));
        }
        (ucq(text.trim_end()), db)
    }

    /// Member 0 is positioned by arithmetic on the other members' owned
    /// prefixes; these shapes stress every term of that sum.
    #[test]
    fn union_access_edge_shapes_match_naive() {
        let shapes: [&[&[&[i64]]]; 6] = [
            // Member 0 empty: every answer is member 1's.
            &[&[], &[&[1, 1], &[2, 0], &[3, 5]]],
            // Member 0 ⊂ member 1: member 1 owns only the rest.
            &[
                &[&[2, 2], &[4, 4]],
                &[&[1, 1], &[2, 2], &[3, 3], &[4, 4], &[5, 5]],
            ],
            // Member 1 ⊂ member 0: member 1 owns nothing.
            &[&[&[1, 1], &[2, 2], &[3, 3]], &[&[1, 1], &[3, 3]]],
            // Member 0 wholly below, then wholly above, member 1.
            &[&[&[1, 1], &[1, 2]], &[&[5, 0], &[6, 1]]],
            &[&[&[5, 0], &[6, 1]], &[&[1, 1], &[1, 2]]],
            // Three overlapping members.
            &[
                &[&[1, 1], &[2, 2], &[3, 3]],
                &[&[2, 2], &[3, 3], &[4, 4]],
                &[&[1, 1], &[4, 4], &[5, 5], &[3, 1]],
            ],
        ];
        for members in shapes {
            let (u, db) = member_union(members);
            check_ranked(&u, &db, &["x", "y"]);
            check_ranked(&u, &db, &["y", "x"]);
        }
        let (u, db) = member_union(shapes[2]);
        let ranked = RankedUcq::build(&u, &db, &syms(&["x", "y"])).unwrap();
        assert_eq!(
            ranked.non_owned[1].len() as Weight,
            ranked.members()[1].count(),
            "member 1 should own nothing"
        );
    }

    #[test]
    fn inverted_access_edge_answers() {
        let (u, db) = member_union(&[
            &[&[1, 1], &[2, 2]],
            &[&[2, 2], &[3, 3]],
            &[&[0, 9], &[3, 3]],
        ]);
        let ranked = RankedUcq::build(&u, &db, &syms(&["x", "y"])).unwrap();
        let mut scratch = RankedScratch::default();
        let int = |a: i64, b: i64| [Value::Int(a), Value::Int(b)];
        let unseen = [Value::str("ranked-ucq-value-never-interned"), Value::Int(1)];
        // The union is (0,9) < (1,1) < (2,2) < (3,3).
        let cases: [(&[Value], Option<Weight>); 7] = [
            (&int(0, 9), Some(0)), // only in the last member
            (&int(3, 3), Some(3)), // only in later members
            (&int(2, 2), Some(2)), // shared by members 0 and 1
            (&int(1, 2), None),    // known values, in no member
            (&unseen, None),       // a value the dictionary never saw
            (&[Value::Int(1)], None),
            (&[Value::Int(1), Value::Int(1), Value::Int(1)], None),
        ];
        for (answer, rank) in cases {
            assert_eq!(ranked.ordered_inverted_access(answer), rank, "{answer:?}");
            assert_eq!(
                ranked.ordered_inverted_access_of(answer, &mut scratch),
                rank,
                "{answer:?}"
            );
        }
    }

    #[test]
    fn three_member_mixed_union() {
        let mut db = mixed_db();
        add(
            &mut db,
            "U",
            rel_int(&["a", "b"], &[&[1, 2], &[9, 9], &[2, 1]]),
        );
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x), T(y). Q3(x, y) :- U(x, y).");
        check_ranked(&u, &db, &["x", "y"]);
        check_ranked(&u, &db, &["y", "x"]);
    }

    #[test]
    fn empty_union_and_empty_members() {
        assert!(matches!(
            RankedUcq::from_members(Vec::new()),
            Err(CoreError::Query(QueryError::EmptyUnion))
        ));
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[]));
        add(&mut db, "S", rel_int(&["a"], &[&[7]]));
        let u = ucq("Q1(x) :- R(x). Q2(x) :- S(x).");
        let syms = [Symbol::new("x")];
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        assert_eq!(ranked.count(), 1);
        assert_eq!(ranked.ordered_access(0).unwrap(), vec![Value::Int(7)]);
        assert!(ranked.ordered_access(1).is_none());
    }

    #[test]
    fn mismatched_member_layouts_are_rejected() {
        let db = mixed_db();
        let q_xy = cq("Q(x, y) :- R(x, y)");
        let xy: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let yx: Vec<Symbol> = ["y", "x"].iter().map(Symbol::new).collect();
        let a = OrderedCqIndex::build(&q_xy, &db, &xy).unwrap();
        let b = OrderedCqIndex::build(&q_xy, &db, &yx).unwrap();
        assert!(matches!(
            RankedUcq::from_members(vec![a, b]),
            Err(CoreError::MismatchedOrders { .. })
        ));
    }

    #[test]
    fn wrong_arity_inverted_access_is_none() {
        let db = mixed_db();
        let u = mixed_union();
        let syms: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let ranked = RankedUcq::build(&u, &db, &syms).unwrap();
        assert_eq!(ranked.ordered_inverted_access(&[Value::Int(1)]), None);
        assert_eq!(
            ranked.ordered_inverted_access(&[Value::Int(777), Value::Int(0)]),
            None
        );
    }

    /// The linear merge fallback must find exactly the duplicate positions
    /// the leapfrog walk finds — including when the leapfrog is aborted
    /// mid-way by a tiny step cap and the merge completes a partial set.
    #[test]
    fn merge_fallback_agrees_with_leapfrog() {
        let mut db = Database::new();
        // Heavy overlap (the leapfrog's worst case): R and S share most rows.
        let shared: Vec<Vec<i64>> = (0..200).map(|i| vec![i, i % 7]).collect();
        let mut r_rows = shared.clone();
        r_rows.push(vec![500, 0]);
        let mut s_rows = shared;
        s_rows.extend([vec![600, 1], vec![601, 2]]);
        let to_rel = |rows: &[Vec<i64>]| {
            Relation::from_rows(
                Schema::new(["a", "b"]).unwrap(),
                rows.iter()
                    .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
            )
            .unwrap()
        };
        add(&mut db, "R", to_rel(&r_rows));
        add(&mut db, "S", to_rel(&s_rows));
        let u = ucq("Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).");
        let syms: Vec<Symbol> = ["x", "y"].iter().map(Symbol::new).collect();
        let members: Vec<OrderedCqIndex> = u
            .disjuncts()
            .iter()
            .map(|d| OrderedCqIndex::build(d, &db, &syms).unwrap())
            .collect();
        let cmp_positions = ensure_shared_layout(members.iter()).unwrap();
        let (a, b) = (&members[0], &members[1]);
        let mut scratch = AccessScratch::new();

        let mut by_leapfrog = BTreeSet::new();
        assert!(leapfrog_matches(
            a,
            b,
            &mut by_leapfrog,
            &mut scratch,
            u64::MAX
        ));

        let mut by_merge = BTreeSet::new();
        merge_matches(a, b, &cmp_positions, &mut by_merge);
        assert_eq!(by_leapfrog, by_merge);
        assert_eq!(by_merge.len(), 200);

        // Abort the leapfrog after 3 steps, then let the merge complete the
        // partial set — the end state must be identical.
        let mut completed = BTreeSet::new();
        assert!(!leapfrog_matches(a, b, &mut completed, &mut scratch, 3));
        merge_matches(a, b, &cmp_positions, &mut completed);
        assert_eq!(completed, by_merge);

        // And the capped full build still answers correctly end to end.
        check_ranked(&u, &db, &["x", "y"]);
    }
}
