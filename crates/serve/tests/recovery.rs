//! Fold persistence and cold-start recovery: `persist_folds_to` writes a
//! durable snapshot after every fold publication, the `on_fold` callback
//! observes it, and `ServingIndex::recover` restarts read service from the
//! newest valid snapshot — falling back past corrupted files, which are
//! quarantined, never deleted.
//!
//! Folds sweep the process-global dictionary generation, so every test
//! serializes on [`lock`] like the main serving suite.

use rae_core::{Col, RankedScratch};
use rae_data::{Database, Relation, Schema, Symbol, Value};
use rae_query::ConjunctiveQuery;
use rae_serve::{AdmissionPolicy, Batch, FoldEvent, ServeWriter, ServingIndex};
use rae_store::ArtifactArchive;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rae-serve-recovery-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn iv(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

fn setup() -> (ServeWriter, ServingIndex) {
    let mut db = Database::new();
    let rel = |attrs: [&str; 2], rows: &[[i64; 2]]| {
        Relation::from_rows(
            Schema::new(attrs).unwrap(),
            rows.iter().map(|row| iv(&row[..])),
        )
        .unwrap()
    };
    db.add_relation("R", rel(["o", "t"], &[[1, 10], [2, 20]]))
        .unwrap();
    db.add_relation("S", rel(["o", "p"], &[[1, 7], [2, 8]]))
        .unwrap();
    let query: ConjunctiveQuery = "Q(o, t, p) :- R(o, t), S(o, p)".parse().unwrap();
    let order: Vec<Symbol> = ["o", "t", "p"].into_iter().map(Symbol::new).collect();
    ServeWriter::new(query, &db, &order, AdmissionPolicy::default()).unwrap()
}

#[test]
fn folds_persist_snapshots_and_fire_the_callback() {
    let _guard = lock();
    let dir = scratch("persist");
    let (mut writer, _index) = setup();
    writer.persist_folds_to(&dir);
    assert_eq!(writer.persist_target(), Some(dir.as_path()));

    let events: Arc<Mutex<Vec<FoldEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    writer.on_fold(move |e: &FoldEvent| sink.lock().unwrap().push(e.clone()));

    let mut batch = Batch::new();
    batch.insert("R", iv(&[3, 30]));
    batch.insert("S", iv(&[3, 9]));
    writer.commit(&batch).unwrap();
    let epoch1 = writer.fold_now().unwrap();

    let mut batch = Batch::new();
    batch.delete("S", iv(&[2, 8]));
    writer.commit(&batch).unwrap();
    let epoch2 = writer.fold_now().unwrap();
    assert!(epoch2 > epoch1);

    let events = events.lock().unwrap();
    assert_eq!(events.len(), 2, "one event per fold");
    assert_eq!(events[0].epoch, epoch1);
    assert_eq!(events[1].epoch, epoch2);
    for e in events.iter() {
        let path = e.persisted.as_ref().expect("fold persisted");
        assert!(path.starts_with(&dir));
        assert!(path.exists(), "{path:?} missing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_restores_the_newest_fold_exactly() {
    let _guard = lock();
    let dir = scratch("recover");
    let (mut writer, index) = setup();
    writer.persist_folds_to(&dir);

    let mut batch = Batch::new();
    batch.insert("R", iv(&[3, 30]));
    batch.insert("S", iv(&[3, 9]));
    batch.delete("S", iv(&[2, 8]));
    writer.commit(&batch).unwrap();
    let epoch = writer.fold_now().unwrap();

    let mut live = index.reader();
    let live_snap = live.refresh();
    let live_digest = live_snap.digest();
    let live_count = live_snap.count();

    // Cold start: a different "process" (fresh ServingIndex) from disk.
    let (recovered, meta) = ServingIndex::recover(&dir).unwrap();
    assert_eq!(meta.epoch, epoch);
    let mut reader = recovered.reader();
    let snap = reader.refresh();
    assert_eq!(snap.epoch(), epoch);
    assert_eq!(snap.count(), live_count);
    assert_eq!(snap.digest(), live_digest, "recovered answers diverge");
    assert_eq!(snap.tombstone_count(), 0, "folds are tombstone-free");
    // The access algebra works end to end on the recovered snapshot.
    for k in 0..snap.count() {
        let row = snap.ordered_access(k).unwrap();
        assert_eq!(snap.ordered_inverted_access(&row), Some(k));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A base recovered zero-copy from a mapped snapshot file builds its
/// inverted-access lookup tables lazily from the borrowed node tables on
/// the first probe; every live rank must round-trip through them. The
/// union's inverted access reports an answer only when a member's hash
/// probe finds it, so a round trip proves the recovered tables work.
#[test]
fn recovered_borrowed_base_round_trips_inverted_access() {
    let _guard = lock();
    let dir = scratch("borrowed");
    let (mut writer, _index) = setup();
    writer.persist_folds_to(&dir);
    let mut batch = Batch::new();
    for o in 3..40 {
        batch.insert("R", iv(&[o, 10 * o]));
        batch.insert("S", iv(&[o, o % 7]));
        batch.insert("S", iv(&[o, 100 + o]));
    }
    writer.commit(&batch).unwrap();
    writer.fold_now().unwrap();

    let (recovered, meta) = ServingIndex::recover(&dir).unwrap();
    assert!(meta.borrowed, "recovery should serve from the mapping here");
    let snap = recovered.snapshot();
    assert_eq!(snap.count(), 2 + 37 * 2);
    let mut scratch = RankedScratch::default();
    for k in 0..snap.count() {
        let row = snap.ordered_access(k).unwrap();
        assert_eq!(snap.ordered_inverted_access(&row), Some(k), "rank {k}");
        assert_eq!(snap.ordered_inverted_access_of(&row, &mut scratch), Some(k));
    }
    assert_eq!(snap.ordered_inverted_access(&iv(&[1, 10, 8])), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_falls_back_past_a_corrupted_newest_snapshot() {
    let _guard = lock();
    let dir = scratch("fallback");
    let (mut writer, _index) = setup();
    writer.persist_folds_to(&dir);

    let mut batch = Batch::new();
    batch.insert("R", iv(&[3, 30]));
    writer.commit(&batch).unwrap();
    let epoch1 = writer.fold_now().unwrap();

    let mut batch = Batch::new();
    batch.insert("S", iv(&[3, 9]));
    writer.commit(&batch).unwrap();
    let epoch2 = writer.fold_now().unwrap();

    // Flip one payload byte of the newest snapshot.
    let newest = dir.join(format!("snap-{epoch2}.rae"));
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    let (recovered, meta) = ServingIndex::recover(&dir).unwrap();
    assert_eq!(meta.epoch, epoch1, "must fall back to the older fold");
    assert!(recovered.reader().refresh().count() > 0);
    // The corrupted file was quarantined aside, not deleted.
    assert!(!newest.exists());
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().contains(".corrupt"))
        .count();
    assert_eq!(quarantined, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The newest snapshot passes every checksum but its archive is
/// semantically invalid (one row weight bumped, so `from_archive` refuses
/// it). Recovery verifies both files in one scan, fails to realize the
/// winner from its verified bytes, quarantines it, and falls back to the
/// older snapshot through the full load. Checked through the owned and the
/// zero-copy store entry points and through the serving cold start.
#[test]
fn recovery_falls_back_past_a_newest_snapshot_that_fails_realization() {
    let _guard = lock();
    for via in ["recover_dir", "recover_dir_with", "ServingIndex::recover"] {
        let dir = scratch("realize");
        let (mut writer, _index) = setup();
        writer.persist_folds_to(&dir);
        let mut batch = Batch::new();
        batch.insert("R", iv(&[3, 30]));
        batch.insert("S", iv(&[3, 9]));
        writer.commit(&batch).unwrap();
        let older_epoch = writer.fold_now().unwrap();
        let older = dir.join(format!("snap-{older_epoch}.rae"));

        let (archive, older_meta) = rae_store::load_archive(&older).unwrap();
        let ArtifactArchive::Ordered(mut bad) = archive else {
            panic!("serving persists ordered bases");
        };
        let Col::Owned(weights) = &mut bad.index.nodes[0].weights else {
            panic!("the owned decode copies every column");
        };
        weights[0] += 1;
        let newest_epoch = older_epoch + 1;
        let newest = dir.join(format!("snap-{newest_epoch}.rae"));
        rae_store::save(
            &newest,
            &ArtifactArchive::Ordered(bad),
            newest_epoch,
            "bumped",
        )
        .unwrap();
        assert_eq!(rae_store::verify(&newest).unwrap().epoch, newest_epoch);
        assert!(
            rae_store::load(&newest).is_err(),
            "from_archive must refuse the bumped weight"
        );

        let (epoch, digest) = match via {
            "recover_dir" => {
                let (path, _, meta) = rae_store::recover_dir(&dir).unwrap();
                assert_eq!(path, older);
                (meta.epoch, meta.artifact_digest)
            }
            "recover_dir_with" => {
                let (path, _, meta) = rae_store::recover_dir_with(&dir, true).unwrap();
                assert_eq!(path, older);
                assert!(meta.borrowed, "the fallback load serves zero-copy too");
                (meta.epoch, meta.artifact_digest)
            }
            _ => {
                let (recovered, meta) = ServingIndex::recover(&dir).unwrap();
                assert_eq!(recovered.snapshot().count(), 3);
                (meta.epoch, meta.artifact_digest)
            }
        };
        assert_eq!(epoch, older_epoch, "{via}");
        assert_eq!(digest, older_meta.artifact_digest, "{via}");
        // The refused file was moved aside, not deleted.
        assert!(older.exists(), "{via}");
        assert!(!newest.exists(), "{via}");
        assert!(
            dir.join(format!("snap-{newest_epoch}.rae.corrupt"))
                .exists(),
            "{via}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot of the previous format version is rebuilt, not migrated:
/// the newest file in the directory is a checksum-valid snapshot stamped
/// `FORMAT_VERSION - 1`, and recovery must quarantine it and serve the
/// older current-version snapshot. Checked through the owned and the
/// zero-copy store entry points and through the serving cold start.
#[test]
fn recovery_quarantines_a_previous_version_snapshot() {
    let _guard = lock();
    let old_version = rae_store::FORMAT_VERSION - 1;
    for via in ["recover_dir", "recover_dir_with", "ServingIndex::recover"] {
        let dir = scratch("version");
        let (mut writer, _index) = setup();
        writer.persist_folds_to(&dir);
        let mut batch = Batch::new();
        batch.insert("R", iv(&[3, 30]));
        batch.insert("S", iv(&[3, 9]));
        writer.commit(&batch).unwrap();
        let current_epoch = writer.fold_now().unwrap();
        let current = dir.join(format!("snap-{current_epoch}.rae"));
        let (archive, current_meta) = rae_store::load_archive(&current).unwrap();

        // The same index one epoch newer, its header re-stamped with the
        // previous version (and a matching header checksum, so the
        // version check is what refuses it).
        let stale_epoch = current_epoch + 1;
        let stale = dir.join(format!("snap-{stale_epoch}.rae"));
        rae_store::save(&stale, &archive, stale_epoch, "stale").unwrap();
        let mut bytes = std::fs::read(&stale).unwrap();
        bytes[8..12].copy_from_slice(&old_version.to_le_bytes());
        let sum = rae_store::fnv64(&bytes[..24]).to_le_bytes();
        bytes[24..32].copy_from_slice(&sum);
        std::fs::write(&stale, &bytes).unwrap();
        assert!(
            matches!(
                rae_store::load(&stale),
                Err(rae_store::StoreError::VersionMismatch { found, .. }) if found == old_version
            ),
            "{via}"
        );

        let (epoch, digest) = match via {
            "recover_dir" => {
                let (path, _, meta) = rae_store::recover_dir(&dir).unwrap();
                assert_eq!(path, current);
                (meta.epoch, meta.artifact_digest)
            }
            "recover_dir_with" => {
                let (path, _, meta) = rae_store::recover_dir_with(&dir, true).unwrap();
                assert_eq!(path, current);
                assert!(meta.borrowed, "{via}");
                (meta.epoch, meta.artifact_digest)
            }
            _ => {
                let (recovered, meta) = ServingIndex::recover(&dir).unwrap();
                assert_eq!(recovered.snapshot().count(), 3);
                (meta.epoch, meta.artifact_digest)
            }
        };
        assert_eq!(epoch, current_epoch, "{via}");
        assert_eq!(digest, current_meta.artifact_digest, "{via}");
        // The stale file was moved aside, not deleted.
        assert!(current.exists(), "{via}");
        assert!(!stale.exists(), "{via}");
        assert_eq!(
            std::fs::read(dir.join(format!("snap-{stale_epoch}.rae.corrupt"))).unwrap(),
            bytes,
            "{via}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovery_of_an_empty_directory_is_a_structured_error() {
    let _guard = lock();
    let dir = scratch("nothing");
    let err = ServingIndex::recover(&dir).unwrap_err();
    assert!(
        err.to_string().contains("no loadable snapshot"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
