//! Archive round-trip: `to_archive` → `from_archive` must reproduce the
//! exact answer stream, and `from_archive` must refuse tampered archives
//! with a structured `CoreError::InvalidArchive` (never a panic, never a
//! wrong answer), whether the archive's columns are owned or borrowed.

#[path = "support/borrow.rs"]
mod borrow;

use borrow::{borrowed_cq, borrowed_ordered};
use rae_core::{
    CoreError, CqIndex, CqIndexArchive, NodeArchive, OrderedCqIndex, OrderedCqIndexArchive,
    RankedUcq, Starts,
};
use rae_data::{Database, Relation, Schema, Symbol, Value};
use rae_query::QueryError;

fn db() -> Database {
    let mut db = Database::new();
    let r = Relation::from_rows(
        Schema::new(["a", "b"]).unwrap(),
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(10)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(3), Value::Int(30)],
        ],
    )
    .unwrap();
    let s = Relation::from_rows(
        Schema::new(["b", "c"]).unwrap(),
        vec![
            vec![Value::Int(10), Value::str("x")],
            vec![Value::Int(10), Value::str("y")],
            vec![Value::Int(20), Value::str("x")],
            vec![Value::Int(30), Value::str("z")],
        ],
    )
    .unwrap();
    db.add_relation("R", r).unwrap();
    db.add_relation("S", s).unwrap();
    db
}

#[test]
fn cq_round_trip_preserves_every_answer() {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let idx = CqIndex::build(&cq, &db).unwrap();
    let restored = CqIndex::from_archive(idx.to_archive()).unwrap();
    assert_eq!(restored.count(), idx.count());
    for j in 0..idx.count() {
        assert_eq!(restored.access(j), idx.access(j));
    }
    // Inverted access over the restored index agrees too.
    for j in 0..idx.count() {
        let answer = idx.access(j).unwrap();
        assert_eq!(restored.inverted_access(&answer), Some(j));
    }
}

#[test]
fn archives_are_deterministic() {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let idx = CqIndex::build(&cq, &db).unwrap();
    let a = idx.to_archive();
    let b = CqIndex::from_archive(idx.to_archive())
        .unwrap()
        .to_archive();
    assert_eq!(a, b, "archive → load → archive must be a fixed point");
}

#[test]
fn ordered_round_trip_preserves_order_semantics() {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order = [Symbol::new("z"), Symbol::new("y"), Symbol::new("x")];
    let idx = OrderedCqIndex::build(&cq, &db, &order).unwrap();
    let restored = OrderedCqIndex::from_archive(idx.to_archive()).unwrap();
    assert_eq!(restored.count(), idx.count());
    assert_eq!(restored.order(), idx.order());
    for k in 0..idx.count() {
        assert_eq!(restored.ordered_access(k), idx.ordered_access(k));
    }
    assert_eq!(
        restored.range_count(&[Value::str("x")]),
        idx.range_count(&[Value::str("x")])
    );
}

#[test]
fn ordered_union_round_trip() {
    let db = db();
    let ucq = "Q(x, y) :- R(x, y) ; Q(x, y) :- S(x, y)".parse().unwrap();
    let order = [Symbol::new("y"), Symbol::new("x")];
    let idx = RankedUcq::build(&ucq, &db, &order).unwrap();
    let archive = idx.to_archive();
    assert_eq!(archive.len(), 2, "one archive per member");
    let restored = RankedUcq::from_archive(archive).unwrap();
    assert_eq!(restored.count(), idx.count());
    for k in 0..idx.count() {
        let answer = idx.ordered_access(k).unwrap();
        assert_eq!(restored.ordered_access(k).as_ref(), Some(&answer));
        assert_eq!(restored.ordered_inverted_access(&answer), Some(k));
    }
    assert_eq!(
        restored.range_count(&[Value::Int(10)]).unwrap(),
        idx.range_count(&[Value::Int(10)]).unwrap()
    );
}

#[test]
fn tampered_parent_pointers_are_refused() {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let idx = CqIndex::build(&cq, &db).unwrap();

    let mut cyclic = idx.to_archive();
    let n = cyclic.parent.len();
    for p in cyclic.parent.iter_mut() {
        *p = Some(0); // includes a self-loop at node 0
    }
    assert!(matches!(
        CqIndex::from_archive(cyclic),
        Err(CoreError::InvalidArchive(_))
    ));

    let mut out_of_range = idx.to_archive();
    out_of_range.parent[0] = Some(n + 7);
    assert!(matches!(
        CqIndex::from_archive(out_of_range),
        Err(CoreError::InvalidArchive(_))
    ));
}

#[test]
fn tampered_value_ref_is_refused() {
    let (archive, leaf, _) = two_node_archive();
    // A rank one past the value table in row 3's x column. It would pass
    // every later check: row 3 is alone in its bucket, and x is in no key
    // and no link.
    let table = archive.values.len() as u32;
    assert_refused(archive, leaf, "outside the value table", |n| {
        n.refs.to_mut()[6] = table;
    });
}

#[test]
fn unsorted_int_values_are_refused() {
    let (mut archive, _, _) = two_node_archive();
    archive.values.ints.to_mut().swap(0, 1);
    assert_invalid(archive, "integer values not strictly increasing");
}

#[test]
fn unsorted_string_values_are_refused() {
    let (mut archive, _, _) = two_node_archive();
    // Equal neighbours are refused too: ranks must name distinct values.
    archive.values.strs[1] = archive.values.strs[0].clone();
    assert_invalid(archive, "string values not strictly increasing");
}

#[test]
fn ordered_bucket_out_of_order_on_ranks_is_refused() {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order = [Symbol::new("x"), Symbol::new("y"), Symbol::new("z")];
    let mut archive = OrderedCqIndex::build(&cq, &db, &order)
        .unwrap()
        .to_archive();
    // The leaf {y, z}, keyed on y, introduces z: its y = 10 bucket holds
    // (10, x) then (10, y). Swapping them breaks only the order on z —
    // the leaf has unit weights, no children, and one key per bucket.
    let leaf = archive
        .index
        .parent
        .iter()
        .position(Option::is_some)
        .unwrap();
    assert_eq!(
        archive.index.bags[leaf],
        [Symbol::new("y"), Symbol::new("z")]
    );
    let node = &mut archive.index.nodes[leaf];
    assert_eq!(node.buckets.start.as_slice(), &[0, 2, 3]);
    node.refs.to_mut().swap(1, 3);
    assert_invalid_ordered(archive, "rows out of order on the realized order columns");
}

#[test]
fn tampered_sort_order_is_refused_for_ordered_layouts() {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order = [Symbol::new("x"), Symbol::new("y"), Symbol::new("z")];
    let idx = OrderedCqIndex::build(&cq, &db, &order).unwrap();
    let mut archive = idx.to_archive();
    // Swap two rows of one node inside a single bucket by rewriting refs;
    // find a node with a bucket of at least two rows first.
    let plain = CqIndex::from_archive(archive.index.clone()).unwrap();
    let mut target = None;
    'outer: for node in 0..plain.node_count() {
        for bucket_id in 0..plain.bucket_count(node) {
            let b = plain.bucket(node, bucket_id as u32);
            if b.end - b.start >= 2 {
                target = Some((node, b.start as usize));
                break 'outer;
            }
        }
    }
    let Some((node, row)) = target else {
        panic!("expected some bucket with two rows");
    };
    let arity = archive.index.bags[node].len();
    let refs = archive.index.nodes[node].refs.to_mut();
    for c in 0..arity {
        refs.swap(row * arity + c, (row + 1) * arity + c);
    }
    // The swap breaks either the within-bucket sort order or a structural
    // invariant below it — never yields a working index silently.
    assert!(OrderedCqIndex::from_archive(archive).is_err());
}

#[test]
fn repeated_head_variable_is_refused() {
    let db = db();
    let cq = "Q(x, y) :- R(x, y)".parse().unwrap();
    let mut archive = CqIndex::build(&cq, &db).unwrap().to_archive();
    // Head [x, y, x] over the bag {x, y}: no node writes the second x slot.
    archive.head.push(Symbol::new("x"));
    match CqIndex::from_archive(archive) {
        Err(CoreError::Query(QueryError::DuplicateHeadVariable(v))) => {
            assert_eq!(v, Symbol::new("x"));
        }
        other => panic!("expected DuplicateHeadVariable, got {other:?}"),
    }
}

// One tamper per invariant of the node validator. Each archive passes every
// check before the tampered one, and each test names the check that must
// refuse it, so deleting that check fails the test even where a later check
// would refuse the archive for another reason.
//
// The fixture's plan for `Q(x, y, z) :- R(x, y), S(y, z)`:
// - leaf `{x, y}`, keyed on y: rows (1,10) (2,10) | (1,20) | (3,30), three
//   buckets, all weights 1;
// - root `{y, z}`: rows (10,x) (10,y) (20,x) (30,z) in one bucket, weights
//   2 2 1 1, starts 0 2 4 5, total 6, maximum 2.
//
// Weights are not stored: each is the next start in its bucket (or the
// bucket total) minus the row's own start, so a weight is tampered with
// through a start.

/// The fixture's archive with its leaf and root node ids.
fn two_node_archive() -> (CqIndexArchive, usize, usize) {
    let db = db();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let archive = CqIndex::build(&cq, &db).unwrap().to_archive();
    let leaf = archive.parent.iter().position(Option::is_some).unwrap();
    let root = archive.parent.iter().position(Option::is_none).unwrap();
    let l = &archive.nodes[leaf];
    assert_eq!(archive.bags[leaf], [Symbol::new("x"), Symbol::new("y")]);
    assert_eq!(l.buckets.start.as_slice(), &[0, 2, 3]);
    assert_eq!(l.buckets.end.as_slice(), &[2, 3, 4]);
    let r = &archive.nodes[root];
    assert_eq!(r.child_buckets[0].as_slice(), &[0, 0, 1, 2]);
    assert!(matches!(r.starts, Starts::Compact(_)));
    let idx = CqIndex::from_archive(archive.clone()).unwrap();
    let weights: Vec<_> = (0..4).map(|row| idx.row_weight(root, row)).collect();
    assert_eq!(weights, [2, 2, 1, 1]);
    (archive, leaf, root)
}

/// Expects `from_archive` to refuse `archive` — owned and borrowed — with
/// an `InvalidArchive` naming `needle`.
fn assert_invalid(archive: CqIndexArchive, needle: &str) {
    let borrowed = borrowed_cq(&archive);
    for (path, archive) in [("owned", archive), ("borrowed", borrowed)] {
        match CqIndex::from_archive(archive) {
            Err(CoreError::InvalidArchive(detail)) => {
                assert!(
                    detail.contains(needle),
                    "{path}: expected {needle:?}, got: {detail}"
                );
            }
            other => panic!("{path}: expected InvalidArchive ({needle}), got {other:?}"),
        }
    }
}

/// [`assert_invalid`] for an ordered archive.
fn assert_invalid_ordered(archive: OrderedCqIndexArchive, needle: &str) {
    let borrowed = borrowed_ordered(&archive);
    for (path, archive) in [("owned", archive), ("borrowed", borrowed)] {
        match OrderedCqIndex::from_archive(archive) {
            Err(CoreError::InvalidArchive(detail)) => {
                assert!(
                    detail.contains(needle),
                    "{path}: expected {needle:?}, got: {detail}"
                );
            }
            other => panic!("{path}: expected InvalidArchive ({needle}), got {other:?}"),
        }
    }
}

/// Applies `tamper` to node `node` and expects a refusal naming `needle`.
fn assert_refused(
    mut archive: CqIndexArchive,
    node: usize,
    needle: &str,
    tamper: impl FnOnce(&mut NodeArchive),
) {
    tamper(&mut archive.nodes[node]);
    assert_invalid(archive, needle);
}

#[test]
fn tampered_bucket_partition_is_refused() {
    let (archive, leaf, _) = two_node_archive();
    // Bucket 0 ends at row 1, but bucket 1 still starts at row 2.
    assert_refused(archive, leaf, "row partition", |n| {
        n.buckets.end.to_mut()[0] = 1;
    });
}

#[test]
fn tampered_bucket_id_is_refused() {
    let (archive, leaf, _) = two_node_archive();
    // Row 1 of bucket 0 claims bucket 1: still one step per bucket start in
    // count, but the step sits at row 1 instead of row 2.
    assert_refused(archive, leaf, "bucket ids disagree", |n| {
        n.bucket_of_row.to_mut()[1] = 1;
    });
}

#[test]
fn tampered_key_grouping_is_refused() {
    let (archive, leaf, _) = two_node_archive();
    // Row 1 of the y = 10 bucket now reads y = 20 (row 2's y reference).
    assert_refused(archive, leaf, "rows do not share a pAtts key", |n| {
        let refs = n.refs.to_mut();
        refs[3] = refs[5];
    });
}

#[test]
fn two_buckets_with_one_key_are_refused() {
    let (archive, leaf, _) = two_node_archive();
    // The one-row bucket 2, (3, 30), now reads (3, 10): bucket 0's key.
    assert_refused(archive, leaf, "two buckets share one pAtts key", |n| {
        let refs = n.refs.to_mut();
        refs[7] = refs[1];
    });
}

#[test]
fn child_bucket_out_of_range_is_refused() {
    let (archive, _, root) = two_node_archive();
    assert_refused(archive, root, "out of range", |n| {
        n.child_buckets[0].to_mut()[0] = 3;
    });
}

#[test]
fn link_key_mismatch_is_refused() {
    let (archive, _, root) = two_node_archive();
    // Row (10, x) linked to the leaf's y = 20 bucket.
    assert_refused(archive, root, "different shared-attribute key", |n| {
        n.child_buckets[0].to_mut()[0] = 1;
    });
}

/// The fixture node's compact starts, for tampering.
fn compact_starts(n: &mut NodeArchive) -> &mut Vec<u64> {
    let Starts::Compact(starts) = &mut n.starts else {
        unreachable!("checked by the fixture")
    };
    starts.to_mut()
}

#[test]
fn tampered_weight_is_refused() {
    let (archive, _, root) = two_node_archive();
    // Root starts 0 2 4 5 become 0 3 4 5: rows 0 and 1 derive weights 3
    // and 1 where their child products are 2 and 2.
    assert_refused(archive, root, "row 0 weight 3", |n| {
        compact_starts(n)[1] += 1;
    });
}

#[test]
fn tampered_start_index_is_refused() {
    let (archive, leaf, _) = two_node_archive();
    // The leaf's one-row bucket 1 starts at 1 instead of 0.
    assert_refused(
        archive,
        leaf,
        "bucket 1 startIndex does not begin at 0",
        |n| {
            compact_starts(n)[2] = 1;
        },
    );
}

#[test]
fn decreasing_start_index_is_refused() {
    let (archive, _, root) = two_node_archive();
    // Root starts 0 2 4 5 become 0 2 1 5: row 1's weight would be
    // negative, and it is refused rather than wrapped.
    assert_refused(archive, root, "row 2 startIndex 1 is below", |n| {
        compact_starts(n)[2] = 1;
    });
}

#[test]
fn tampered_bucket_total_is_refused() {
    let (archive, leaf, _) = two_node_archive();
    assert_refused(archive, leaf, "bucket 1 total disagrees", |n| {
        n.buckets.total.to_mut()[1] += 1;
    });
}

#[test]
fn tampered_bucket_maximum_is_refused() {
    let (archive, _, root) = two_node_archive();
    assert_refused(archive, root, "bucket 0 maximum disagrees", |n| {
        n.buckets.max_weight.to_mut()[0] = 1;
    });
}
