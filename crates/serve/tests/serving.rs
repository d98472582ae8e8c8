//! Integration tests for the serving lifecycle: overlay exactness against
//! a fold-and-rebuild oracle, concurrent readers under churn, and held
//! snapshots that keep serving across folds after every dictionary their
//! values were encoded in is gone.
//!
//! Every writer builds over databases of its own, so the tests run in
//! parallel.

use rae_core::{OrderedCqIndex, RankedScratch, Weight};
use rae_data::{Database, Relation, Schema, Symbol, Value};
use rae_query::ConjunctiveQuery;
use rae_serve::{enumeration_digest, AdmissionPolicy, Batch, ServeError, ServeWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn iv(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

fn two_rel_db(r: &[[i64; 2]], s: &[[i64; 2]]) -> Database {
    let mut db = Database::new();
    let rel = |attrs: [&str; 2], rows: &[[i64; 2]]| {
        Relation::from_rows(
            Schema::new(attrs).unwrap(),
            rows.iter().map(|row| iv(&row[..])),
        )
        .unwrap()
    };
    db.add_relation("R", rel(["o", "t"], r)).unwrap();
    db.add_relation("S", rel(["o", "p"], s)).unwrap();
    db
}

fn join_query() -> ConjunctiveQuery {
    "Q(o, t, p) :- R(o, t), S(o, p)".parse().unwrap()
}

fn order() -> Vec<Symbol> {
    ["o", "t", "p"].into_iter().map(Symbol::new).collect()
}

/// Fold-and-rebuild oracle: a fresh index over the given row sets,
/// enumerated and digested exactly like a snapshot.
fn oracle_digest(cq: &ConjunctiveQuery, r: &[Vec<Value>], s: &[Vec<Value>]) -> u64 {
    let rows = oracle_rows(cq, r, s);
    enumeration_digest(rows.iter().map(Vec::as_slice))
}

/// The fold-and-rebuild oracle's answers, in enumeration order.
fn oracle_rows(cq: &ConjunctiveQuery, r: &[Vec<Value>], s: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut db = Database::new();
    db.add_relation(
        "R",
        Relation::from_rows(Schema::new(["o", "t"]).unwrap(), r.iter().cloned()).unwrap(),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(Schema::new(["o", "p"]).unwrap(), s.iter().cloned()).unwrap(),
    )
    .unwrap();
    let idx = OrderedCqIndex::build(cq, &db, &order()).unwrap();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut e = idx.enumerate();
    while let Some(row) = e.next_ref() {
        rows.push(row.to_vec());
    }
    rows
}

/// Mirror of the served state kept by the tests: plain row vectors.
#[derive(Clone)]
struct Mirror {
    r: Vec<Vec<Value>>,
    s: Vec<Vec<Value>>,
}

impl Mirror {
    fn insert(&mut self, rel: &str, row: Vec<Value>) {
        let rows = if rel == "R" { &mut self.r } else { &mut self.s };
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    fn delete(&mut self, rel: &str, row: &[Value]) {
        let rows = if rel == "R" { &mut self.r } else { &mut self.s };
        rows.retain(|x| x != row);
    }
}

/// Full consistency check of one snapshot against the oracle digest plus
/// the snapshot's own access algebra.
fn check_snapshot(snap: &rae_serve::Snapshot, cq: &ConjunctiveQuery, m: &Mirror) {
    assert_eq!(
        snap.digest(),
        oracle_digest(cq, &m.r, &m.s),
        "snapshot (epoch {}) diverged from the fold-and-rebuild oracle",
        snap.epoch()
    );
    let n = snap.count();
    // ordered_access ↔ ordered_inverted_access are inverse bijections, and
    // the scratch variants (one scratch reused throughout) agree with them.
    let mut scratch = RankedScratch::default();
    for k in 0..n {
        let t = snap.ordered_access(k).expect("rank in range");
        assert_eq!(snap.ordered_inverted_access(&t), Some(k), "rank {k}");
        assert_eq!(
            snap.ordered_access_into(k, &mut scratch),
            Some(t.as_slice())
        );
        assert_eq!(snap.ordered_inverted_access_of(&t, &mut scratch), Some(k));
        assert_eq!(
            snap.select_into(k, &mut scratch).map(<[Value]>::to_vec),
            snap.select(k)
        );
    }
    assert_eq!(snap.ordered_access(n), None);
    assert_eq!(snap.ordered_access_into(n, &mut scratch), None);
    // select() is a bijection onto the same answer set.
    let mut selected: Vec<Vec<Value>> = (0..n).map(|k| snap.select(k).unwrap()).collect();
    selected.sort();
    let mut ordered: Vec<Vec<Value>> = (0..n).map(|k| snap.ordered_access(k).unwrap()).collect();
    ordered.sort();
    assert_eq!(selected, ordered, "select() must cover exactly the answers");
    // range_count sums to count over first-order-variable groups.
    let firsts: std::collections::BTreeSet<Value> = ordered.iter().map(|t| t[0].clone()).collect();
    let total: Weight = firsts
        .iter()
        .map(|v| snap.range_count(std::slice::from_ref(v)).unwrap())
        .sum();
    assert_eq!(total, n);
    // Sampling stays within the live answers.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20.min(n as usize * 4) {
        if let Some(t) = snap.sample(&mut rng) {
            assert!(snap.ordered_inverted_access(&t).is_some());
        }
    }
}

#[test]
fn overlay_matches_rebuild_oracle_through_churn() {
    let cq = join_query();
    let mut m = Mirror {
        r: vec![iv(&[1, 10]), iv(&[2, 20]), iv(&[3, 30])],
        s: vec![iv(&[1, 100]), iv(&[2, 200]), iv(&[2, 201]), iv(&[4, 400])],
    };
    let db = two_rel_db(
        &[[1, 10], [2, 20], [3, 30]],
        &[[1, 100], [2, 200], [2, 201], [4, 400]],
    );
    let (mut w, idx) =
        ServeWriter::new(cq.clone(), &db, &order(), AdmissionPolicy::default()).unwrap();
    assert!(w.is_delta_overlay());
    check_snapshot(&idx.snapshot(), &cq, &m);

    // Insert rows that create new joins and some that join nothing.
    let mut b = Batch::new();
    b.insert("R", iv(&[4, 40]))
        .insert("S", iv(&[3, 300]))
        .insert("S", iv(&[9, 900]));
    m.insert("R", iv(&[4, 40]));
    m.insert("S", iv(&[3, 300]));
    m.insert("S", iv(&[9, 900]));
    w.commit(&b).unwrap();
    check_snapshot(&idx.snapshot(), &cq, &m);
    assert!(
        idx.snapshot().delta_count() > 0,
        "insert-driven delta member expected"
    );

    // Delete a base row shared by two answers; tombstones, base untouched.
    let mut b = Batch::new();
    b.delete("R", iv(&[2, 20]));
    m.delete("R", &iv(&[2, 20]));
    w.commit(&b).unwrap();
    check_snapshot(&idx.snapshot(), &cq, &m);
    assert!(idx.snapshot().tombstone_count() >= 2);

    // Revive: re-insert the deleted row — answers heal, tombstones clear.
    let mut b = Batch::new();
    b.insert("R", iv(&[2, 20]));
    m.insert("R", iv(&[2, 20]));
    w.commit(&b).unwrap();
    let snap = idx.snapshot();
    assert_eq!(
        snap.tombstone_count(),
        0,
        "revived answers must shed their tombstones"
    );
    check_snapshot(&snap, &cq, &m);

    // Mixed churn, then fold: the folded snapshot serves identically.
    let mut b = Batch::new();
    b.delete("S", iv(&[1, 100]))
        .insert("R", iv(&[1, 11]))
        .delete("R", iv(&[3, 30]));
    m.delete("S", &iv(&[1, 100]));
    m.insert("R", iv(&[1, 11]));
    m.delete("R", &iv(&[3, 30]));
    w.commit(&b).unwrap();
    let pre_fold = idx.snapshot().digest();
    check_snapshot(&idx.snapshot(), &cq, &m);
    w.fold_now().unwrap();
    let folded = idx.snapshot();
    assert_eq!(
        folded.digest(),
        pre_fold,
        "fold must not change the served answers"
    );
    assert_eq!(folded.tombstone_count(), 0);
    assert_eq!(folded.delta_count(), 0);
    assert_eq!(w.pending_ops(), 0);
    check_snapshot(&folded, &cq, &m);
}

/// An overlay whose delta answers all sort on one side of every base
/// answer (`o` below or above the base's 10..14), with tombstones from a
/// base deletion: the base, member 0 of the union, is then positioned
/// entirely by the delta's owned prefix.
fn check_delta_at_one_end(delta_o: std::ops::Range<i64>) {
    let cq = join_query();
    let base_r: Vec<[i64; 2]> = (10..14).map(|o| [o, o * 10]).collect();
    let base_s: Vec<[i64; 2]> = (10..14)
        .flat_map(|o| [[o, o * 100], [o, o * 100 + 1]])
        .collect();
    let mut m = Mirror {
        r: base_r.iter().map(|row| iv(row)).collect(),
        s: base_s.iter().map(|row| iv(row)).collect(),
    };
    let (mut w, idx) = ServeWriter::new(
        cq.clone(),
        &two_rel_db(&base_r, &base_s),
        &order(),
        AdmissionPolicy::default(),
    )
    .unwrap();
    let mut b = Batch::new();
    for o in delta_o.clone() {
        for row in [("R", iv(&[o, o * 10])), ("S", iv(&[o, o * 100]))] {
            b.insert(row.0, row.1.clone());
            m.insert(row.0, row.1);
        }
    }
    b.delete("S", iv(&[12, 1200]));
    m.delete("S", &iv(&[12, 1200]));
    w.commit(&b).unwrap();
    let snap = idx.snapshot();
    assert_eq!(snap.delta_count(), delta_o.clone().count() as Weight);
    assert_eq!(snap.tombstone_count(), 1);
    let n = snap.count();
    let (first, last) = (
        snap.ordered_access(0).unwrap(),
        snap.ordered_access(n - 1).unwrap(),
    );
    if delta_o.start < 10 {
        assert!(delta_o.contains(&first[0].as_int().unwrap()), "{first:?}");
    } else {
        assert!(delta_o.contains(&last[0].as_int().unwrap()), "{last:?}");
    }
    check_snapshot(&snap, &cq, &m);
}

#[test]
fn delta_answers_all_before_the_base_round_trip() {
    check_delta_at_one_end(1..5);
}

#[test]
fn delta_answers_all_after_the_base_round_trip() {
    check_delta_at_one_end(50..54);
}

/// Deleting an order tombstones all of its answers, which are adjacent
/// under `[o, t, p]`: runs of ≥ 64 contiguous tombstoned ranks at the
/// front, in the middle and at the end of the base, beside delta answers.
/// Every live rank translates through the runs to the oracle's answer.
#[test]
fn tombstone_runs_translate_every_live_rank() {
    let cq = join_query();
    let base_r: Vec<[i64; 2]> = (0..64).map(|o| [o, o + 1000]).collect();
    let base_s: Vec<[i64; 2]> = (0..64).flat_map(|o| (0..8).map(move |p| [o, p])).collect();
    let mut m = Mirror {
        r: base_r.iter().map(|row| iv(row)).collect(),
        s: base_s.iter().map(|row| iv(row)).collect(),
    };
    let (mut w, idx) = ServeWriter::new(
        cq.clone(),
        &two_rel_db(&base_r, &base_s),
        &order(),
        AdmissionPolicy::default(),
    )
    .unwrap();
    let mut b = Batch::new();
    for o in (0..8).chain(28..38).chain(56..64) {
        let row = iv(&[o, o + 1000]);
        b.delete("R", row.clone());
        m.delete("R", &row);
    }
    // Delta answers between the runs, which stay contiguous in union ranks.
    for o in [20, 45] {
        let row = iv(&[o, o + 2000]);
        b.insert("R", row.clone());
        m.insert("R", row);
    }
    w.commit(&b).unwrap();
    let snap = idx.snapshot();
    assert_eq!(snap.tombstone_count(), (8 + 10 + 8) * 8);
    assert_eq!(snap.delta_count(), 2 * 8);
    let expected = oracle_rows(&cq, &m.r, &m.s);
    assert_eq!(snap.count(), expected.len() as Weight);
    let mut scratch = RankedScratch::default();
    for (k, row) in expected.iter().enumerate() {
        let k = k as Weight;
        assert_eq!(snap.ordered_access(k).as_ref(), Some(row), "rank {k}");
        assert_eq!(
            snap.ordered_access_into(k, &mut scratch),
            Some(row.as_slice())
        );
        assert_eq!(snap.ordered_inverted_access(row), Some(k), "rank {k}");
    }
    check_snapshot(&snap, &cq, &m);
}

#[test]
fn randomized_differential_overlay_vs_oracle() {
    let cq = join_query();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut m = Mirror {
        r: Vec::new(),
        s: Vec::new(),
    };
    for o in 0..6i64 {
        for t in 0..2i64 {
            m.insert("R", iv(&[o, 10 + o * 2 + t]));
        }
        m.insert("S", iv(&[o, 100 + o]));
    }
    let db = {
        let mut db = Database::new();
        db.add_relation(
            "R",
            Relation::from_rows(Schema::new(["o", "t"]).unwrap(), m.r.iter().cloned()).unwrap(),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(Schema::new(["o", "p"]).unwrap(), m.s.iter().cloned()).unwrap(),
        )
        .unwrap();
        db
    };
    let (mut w, idx) =
        ServeWriter::new(cq.clone(), &db, &order(), AdmissionPolicy::default()).unwrap();
    for round in 0..30 {
        let mut b = Batch::new();
        for _ in 0..rng.gen_range(1..=4u32) {
            let rel = if rng.gen_range(0..2u32) == 0 {
                "R"
            } else {
                "S"
            };
            let rows = if rel == "R" { &m.r } else { &m.s };
            if !rows.is_empty() && rng.gen_range(0..3u32) == 0 {
                let victim = rows[rng.gen_range(0..rows.len())].clone();
                b.delete(rel, victim.clone());
                m.delete(rel, &victim);
            } else {
                let row = if rel == "R" {
                    iv(&[
                        rng.gen_range(0..8u64) as i64,
                        rng.gen_range(0..50u64) as i64,
                    ])
                } else {
                    iv(&[
                        rng.gen_range(0..8u64) as i64,
                        100 + rng.gen_range(0..50u64) as i64,
                    ])
                };
                b.insert(rel, row.clone());
                m.insert(rel, row);
            }
        }
        w.commit(&b).unwrap();
        let snap = idx.snapshot();
        assert_eq!(
            snap.digest(),
            oracle_digest(&cq, &m.r, &m.s),
            "round {round}: overlay diverged from the oracle"
        );
        if round % 10 == 9 {
            w.fold_now().unwrap();
            assert_eq!(idx.snapshot().digest(), oracle_digest(&cq, &m.r, &m.s));
        }
    }
    check_snapshot(&idx.snapshot(), &cq, &m);
}

#[test]
fn backpressure_rejects_oversized_pending_delta() {
    let db = two_rel_db(&[[1, 10]], &[[1, 100]]);
    let policy = AdmissionPolicy { max_pending_ops: 3 };
    let (mut w, _idx) = ServeWriter::new(join_query(), &db, &order(), policy).unwrap();
    let mut b = Batch::new();
    b.insert("R", iv(&[5, 50]))
        .insert("R", iv(&[6, 60]))
        .insert("R", iv(&[7, 70]));
    w.apply(&b).unwrap();
    let mut b2 = Batch::new();
    b2.insert("S", iv(&[5, 500]));
    let err = w.apply(&b2).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Backpressure {
            pending: 3,
            limit: 3
        }
    ));
    assert!(rae_faults::Transient::is_transient(&err));
    // A fold drains the pending delta and admits the batch again.
    w.fold_now().unwrap();
    w.apply(&b2).unwrap();
}

#[test]
fn invalid_batches_are_rejected_atomically() {
    let db = two_rel_db(&[[1, 10]], &[[1, 100]]);
    let (mut w, idx) =
        ServeWriter::new(join_query(), &db, &order(), AdmissionPolicy::default()).unwrap();
    // Valid op before an invalid one: nothing must be applied.
    let mut b = Batch::new();
    b.insert("R", iv(&[2, 20])).insert("T", iv(&[1, 1]));
    assert!(matches!(w.apply(&b), Err(ServeError::UnknownRelation(_))));
    let mut b = Batch::new();
    b.insert("R", iv(&[2, 20])).insert("S", iv(&[1, 2, 3]));
    assert!(matches!(w.apply(&b), Err(ServeError::ArityMismatch { .. })));
    assert_eq!(w.pending_ops(), 0);
    w.publish().unwrap();
    assert_eq!(idx.snapshot().count(), 1);
}

#[test]
fn non_full_queries_fall_back_to_rebuild_per_publish() {
    let cq: ConjunctiveQuery = "Q(o) :- R(o, t), S(o, p)".parse().unwrap();
    let db = two_rel_db(&[[1, 10], [2, 20]], &[[1, 100], [3, 300]]);
    let ord = vec![Symbol::new("o")];
    let (mut w, idx) = ServeWriter::new(cq, &db, &ord, AdmissionPolicy::default()).unwrap();
    assert!(!w.is_delta_overlay());
    assert_eq!(idx.snapshot().count(), 1); // o = 1
    let mut b = Batch::new();
    b.insert("S", iv(&[2, 200])).delete("R", iv(&[1, 10]));
    w.commit(&b).unwrap();
    let snap = idx.snapshot();
    assert_eq!(snap.count(), 1); // o = 2 now
    assert_eq!(snap.ordered_access(0).unwrap(), iv(&[2]));
    assert_eq!(
        snap.tombstone_count(),
        0,
        "rebuild strategy serves a clean base"
    );
    assert_eq!(w.pending_ops(), 0, "rebuild publish folds as it goes");
}

#[test]
fn background_fold_overlaps_with_writes_and_integrates_the_diff() {
    let cq = join_query();
    let mut m = Mirror {
        r: (0..40i64).map(|o| iv(&[o, o + 1000])).collect(),
        s: (0..40i64).map(|o| iv(&[o, o + 2000])).collect(),
    };
    let mut db = Database::new();
    db.add_relation(
        "R",
        Relation::from_rows(Schema::new(["o", "t"]).unwrap(), m.r.iter().cloned()).unwrap(),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(Schema::new(["o", "p"]).unwrap(), m.s.iter().cloned()).unwrap(),
    )
    .unwrap();
    let (mut w, idx) =
        ServeWriter::new(cq.clone(), &db, &order(), AdmissionPolicy::default()).unwrap();

    // Stack up a pending delta, start the fold, then keep writing while
    // the worker rebuilds — the integrated state must reflect *all* of it.
    let mut b = Batch::new();
    b.delete("R", iv(&[0, 1000])).insert("R", iv(&[100, 1100]));
    m.delete("R", &iv(&[0, 1000]));
    m.insert("R", iv(&[100, 1100]));
    w.commit(&b).unwrap();
    w.begin_fold().unwrap();
    assert!(matches!(w.begin_fold(), Err(ServeError::FoldInProgress)));
    let mut b = Batch::new();
    b.insert("S", iv(&[100, 2100])).delete("S", iv(&[1, 2001]));
    m.insert("S", iv(&[100, 2100]));
    m.delete("S", &iv(&[1, 2001]));
    w.commit(&b).unwrap();
    check_snapshot(&idx.snapshot(), &cq, &m);
    assert!(w.finish_fold().unwrap());
    assert!(!w.fold_in_progress());
    check_snapshot(&idx.snapshot(), &cq, &m);
    // The mid-fold writes survived as the re-derived pending delta.
    assert!(w.pending_ops() > 0);
    w.fold_now().unwrap();
    assert_eq!(w.pending_ops(), 0);
    check_snapshot(&idx.snapshot(), &cq, &m);
}

/// Seeded multi-threaded churn with a fold (and so a fresh database and
/// dictionary) each round while reader threads keep serving an *old held
/// snapshot*. Snapshots hold ranks into their members' own value tables,
/// so folds underneath them must not change a single answer.
#[test]
fn held_snapshots_survive_concurrent_folds() {
    let cq = join_query();
    let r: Vec<[i64; 2]> = (0..30).map(|o| [o, o + 1000]).collect();
    let s: Vec<[i64; 2]> = (0..30).map(|o| [o, o + 500]).collect();
    let db = two_rel_db(&r, &s);
    let (mut w, idx) = ServeWriter::new(cq, &db, &order(), AdmissionPolicy::default()).unwrap();

    let snap0 = idx.snapshot();
    let digest0 = snap0.digest();
    let stop = Arc::new(AtomicBool::new(false));
    // The churn starts once every reader has checked the old snapshot, so
    // no reader can miss it however the threads are scheduled.
    let running = Arc::new(Barrier::new(5));

    // Readers hammer the *old* snapshot and the live sequence while the
    // writer churns and folds underneath them.
    let mut readers = Vec::new();
    for seed in 0..4u64 {
        let stop = Arc::clone(&stop);
        let running = Arc::clone(&running);
        let idx = idx.clone();
        let old = Arc::clone(&snap0);
        readers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reader = idx.reader();
            let mut old_checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Old held snapshot: answers must never change.
                let k = rng.gen_range(0..old.count());
                let t = old.ordered_access(k).expect("held snapshot rank");
                assert_eq!(old.ordered_inverted_access(&t), Some(k));
                old_checks += 1;
                if old_checks == 1 {
                    running.wait();
                }
                // Fresh snapshot: internally consistent at every epoch.
                let snap = reader.refresh();
                let n = snap.count();
                if n > 0 {
                    let k = rng.gen_range(0..n);
                    let t = snap.ordered_access(k).expect("fresh snapshot rank");
                    assert_eq!(snap.ordered_inverted_access(&t), Some(k));
                }
            }
            old_checks
        }));
    }

    // Writer: delete/insert churn with a fold each round. Each deleted
    // row's `t` (`round + 1000`) is used by no other row, so the fold's
    // database lacks a value the old snapshot still serves.
    running.wait();
    for round in 0..6i64 {
        let mut b = Batch::new();
        b.delete("R", iv(&[round, round + 1000]))
            .insert(
                "R",
                vec![Value::Int(round + 100), Value::str(format!("t{round}"))],
            )
            .insert(
                "S",
                vec![Value::Int(round + 100), Value::str(format!("p{round}"))],
            );
        w.commit(&b).unwrap();
        w.fold_now().unwrap();
    }

    stop.store(true, Ordering::Relaxed);
    for h in readers {
        let old_checks = h.join().expect("reader panicked");
        assert!(old_checks > 0);
    }
    // After all that churn the held snapshot still serves its original
    // answers, byte for byte.
    assert_eq!(snap0.digest(), digest0);
}

#[test]
fn concurrent_readers_see_monotone_epochs_under_churn() {
    let cq = join_query();
    let r: Vec<[i64; 2]> = (0..20).map(|o| [o, o + 10]).collect();
    let s: Vec<[i64; 2]> = (0..20).map(|o| [o, o + 500]).collect();
    let db = two_rel_db(&r, &s);
    let (mut w, idx) = ServeWriter::new(cq, &db, &order(), AdmissionPolicy::default()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    // Every reader completes one op before the first commit, so a reader
    // first scheduled after the writer finishes still reports ops > 0.
    const READERS: usize = 4;
    let started = Arc::new(Barrier::new(READERS + 1));
    let mut readers = Vec::new();
    for seed in 0..READERS as u64 {
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        let idx = idx.clone();
        readers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut reader = idx.reader();
            let mut last_epoch = 0u64;
            let mut ops = 0u64;
            loop {
                let snap = reader.refresh();
                assert!(
                    snap.epoch() >= last_epoch,
                    "epochs must be monotone per reader"
                );
                last_epoch = snap.epoch();
                let n = snap.count();
                if n > 0 {
                    let k = rng.gen_range(0..n);
                    let t = snap.ordered_access(k).expect("rank");
                    assert_eq!(snap.ordered_inverted_access(&t), Some(k));
                    assert!(snap.select(rng.gen_range(0..n)).is_some());
                }
                ops += 1;
                if ops == 1 {
                    started.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            ops
        }));
    }
    started.wait();
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..60i64 {
        let mut b = Batch::new();
        if rng.gen_range(0..3u32) == 0 {
            b.delete("R", iv(&[i % 20, (i % 20) + 10]));
        } else {
            b.insert("R", iv(&[i % 20, 700 + i]));
        }
        w.commit(&b).unwrap();
        if i % 20 == 19 {
            w.fold_now().unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        assert!(h.join().expect("reader panicked") > 0);
    }
    assert!(w.epoch() >= 60);
}

/// Holds an overlay snapshot whose base and delta both hold values the next
/// fold drops, runs `fold`, and checks that every rank of the held snapshot
/// still round-trips (access → inverted access) after the fold, with its
/// delta answer and its tombstone intact. The source database is dropped
/// as soon as the writer is built, and every fold and publish builds over
/// a database of its own that it drops, so no dictionary the snapshot's
/// values were encoded in outlives the fold: access and inverted access
/// resolve values through each member's own value table.
fn held_overlay_survives_fold(fold: impl FnOnce(&mut ServeWriter)) {
    let cq = join_query();
    let row = |o: i64, tag: &str| vec![Value::Int(o), Value::str(format!("{tag}{o}"))];
    let mut db = Database::new();
    for (name, attrs, tag) in [("R", ["o", "t"], "r"), ("S", ["o", "p"], "s")] {
        let rows = (0..20).map(|o| row(o, tag));
        db.add_relation(
            name,
            Relation::from_rows(Schema::new(attrs).unwrap(), rows).unwrap(),
        )
        .unwrap();
    }
    let (mut w, idx) = ServeWriter::new(cq, &db, &order(), AdmissionPolicy::default()).unwrap();
    drop(db);

    // The held overlay: one delta answer (o = 100), one tombstone (o = 0).
    let mut b = Batch::new();
    b.insert("R", row(100, "dr"))
        .insert("S", row(100, "ds"))
        .delete("R", row(0, "r"));
    w.commit(&b).unwrap();
    let held = idx.snapshot();
    let answers: Vec<Vec<Value>> = (0..held.count())
        .map(|k| held.ordered_access(k).unwrap())
        .collect();
    let delta_answer = vec![Value::Int(100), Value::str("dr100"), Value::str("ds100")];
    let dead_answer = vec![Value::Int(0), Value::str("r0"), Value::str("s0")];
    assert_eq!(answers.last(), Some(&delta_answer));
    assert!(!answers.contains(&dead_answer));

    // Drop the delta rows and one base answer before the fold, so the
    // folded base holds none of their values.
    let mut b = Batch::new();
    b.delete("R", row(100, "dr"))
        .delete("S", row(100, "ds"))
        .delete("R", row(1, "r"))
        .delete("S", row(1, "s"));
    w.commit(&b).unwrap();
    fold(&mut w);
    assert_eq!(idx.snapshot().count(), 18);

    assert_eq!(held.count(), answers.len() as Weight);
    assert_eq!(held.delta_count(), 1);
    assert_eq!(held.tombstone_count(), 1);
    assert_eq!(held.ordered_inverted_access(&dead_answer), None);
    let mut scratch = RankedScratch::default();
    for (k, answer) in answers.iter().enumerate() {
        let k = k as Weight;
        assert_eq!(held.ordered_access(k).as_ref(), Some(answer), "rank {k}");
        assert_eq!(
            held.ordered_inverted_access_of(answer, &mut scratch),
            Some(k),
            "rank {k}: {answer:?}"
        );
    }
}

#[test]
fn snapshot_held_across_fold_now_round_trips_every_rank() {
    held_overlay_survives_fold(|w| {
        w.fold_now().unwrap();
    });
}

#[test]
fn snapshot_held_across_background_fold_round_trips_every_rank() {
    held_overlay_survives_fold(|w| {
        w.begin_fold().unwrap();
        assert!(w.finish_fold().unwrap());
    });
}

/// Two folds in a row: the second builds over a fresh database with fresh
/// codes and drops the first fold's.
#[test]
fn snapshot_held_across_repeated_folds_round_trips_every_rank() {
    held_overlay_survives_fold(|w| {
        w.fold_now().unwrap();
        w.fold_now().unwrap();
    });
}
