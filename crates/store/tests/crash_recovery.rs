//! Crash-injection harness for the publish protocol (DESIGN.md §15).
//!
//! The parent test re-executes this test binary as a child process with
//! `RAE_STORE_CRASH` set, so `rae_store::save` aborts the child at a named
//! point of the write → fsync → rename → dir-fsync protocol. For every
//! crash point and every seed (the seed picks the `mid-write` truncation
//! offset), the parent then runs cold-start recovery on the directory and
//! asserts the only two legal outcomes:
//!
//! * the **old** snapshot, byte-identical (digest equal to the fault-free
//!   in-memory build of artifact A), or
//! * the **new** snapshot, ditto for artifact B — only possible once the
//!   rename has happened.
//!
//! Never a partial file served, never a wrong digest, and the old snapshot
//! file is never deleted by a failed publish.
//!
//! Seeds come from the `CRASH_SEEDS` environment variable (comma-
//! separated); CI pins 8, the nightly sweep runs 64.

use rae_core::{CqIndex, OrderedCqIndex};
use rae_data::{Database, Relation, Schema, Symbol, Value};
use rae_store::{digest_of, recover_dir, save, ArtifactArchive, StoreError, SNAPSHOT_EXT};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const DEFAULT_SEEDS: &str = "11,42,1337,12648430,7,2026,99991,424242";

/// Environment variable naming the snapshot directory the child writes to.
const DIR_ENV: &str = "RAE_CRASH_DIR";

/// Fault schedules are process-wide: the torn test's `store/torn` schedule
/// would also fire inside another test's fault-free `save`. Every test of
/// this binary holds this lock for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn seeds() -> Vec<u64> {
    let raw = std::env::var("CRASH_SEEDS").unwrap_or_else(|_| DEFAULT_SEEDS.to_string());
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("CRASH_SEEDS must be u64s"))
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rae-store-crash-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chain_db(shift: i64) -> Database {
    let mut db = Database::new();
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(["a", "b"]).unwrap(),
            (0..8i64).map(|i| vec![Value::Int(i % 4), Value::Int(i + shift)]),
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(
            Schema::new(["b", "c"]).unwrap(),
            (0..8i64).map(|i| vec![Value::Int(i + shift), Value::Int(i * 10)]),
        )
        .unwrap(),
    )
    .unwrap();
    db
}

fn build(shift: i64) -> ArtifactArchive {
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order: Vec<Symbol> = CqIndex::build(&cq, &chain_db(shift))
        .unwrap()
        .plan()
        .attrs_dfs();
    let idx = OrderedCqIndex::build(&cq, &chain_db(shift), &order).unwrap();
    ArtifactArchive::Ordered(idx.to_archive())
}

/// The snapshot that exists *before* the crashing publish (epoch 1).
fn artifact_old() -> ArtifactArchive {
    build(0)
}

/// The snapshot the crashing publish is writing (epoch 2). Archives are
/// process-independent, so the child's bytes hash to this digest too.
fn artifact_new() -> ArtifactArchive {
    build(100)
}

/// SplitMix64 finalizer — derives the mid-write truncation offset from a
/// sweep seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The child role: invoked by the parent with `RAE_CRASH_DIR` (and
/// `RAE_STORE_CRASH`) set, writes artifact B as epoch 2 and — at most
/// crash points — aborts inside `save`. Inert under plain `--ignored`
/// runs of the suite.
#[test]
#[ignore = "child process role of the crash harness"]
fn child_crash_writer() {
    let _serial = lock();
    let Ok(dir) = std::env::var(DIR_ENV) else {
        return;
    };
    let path = Path::new(&dir).join(format!("snap-2.{SNAPSHOT_EXT}"));
    // A successful save (crash env unset or point never reached) is fine:
    // the parent classifies the outcome by what recovery finds.
    let _ = save(&path, &artifact_new(), 2, "crash-child");
}

/// Spawns the child writer against `dir` with `RAE_STORE_CRASH=point` and
/// waits for it to die (or finish).
fn run_child(dir: &Path, point: &str) {
    let exe = std::env::current_exe().unwrap();
    let status = Command::new(exe)
        .args(["child_crash_writer", "--exact", "--ignored"])
        .env(DIR_ENV, dir)
        .env(rae_store::CRASH_ENV, point)
        .output()
        .expect("spawn child writer")
        .status;
    // Every point in the protocol aborts the child; reaching the end
    // without crashing would mean the point was never hit.
    assert!(
        !status.success(),
        "child survived crash point `{point}` — the point was not exercised"
    );
}

#[test]
fn crash_at_every_protocol_point_recovers_old_or_new() {
    let _serial = lock();
    let old = artifact_old();
    let new = artifact_new();
    let digest_old = digest_of(&old);
    let digest_new = digest_of(&new);
    assert_ne!(digest_old, digest_new);

    // The exact image size of the new snapshot (for mid-write offsets),
    // measured from a fault-free save.
    let probe = scratch("probe");
    let file_len = save(
        &probe.join(format!("p.{SNAPSHOT_EXT}")),
        &new,
        2,
        "crash-child",
    )
    .unwrap()
    .file_len;
    std::fs::remove_dir_all(&probe).ok();

    for seed in seeds() {
        let cut = 1 + mix(seed) % (file_len - 1);
        let points = [
            "temp-created".to_string(),
            format!("mid-write:{cut}"),
            "after-write".to_string(),
            "after-fsync".to_string(),
            "after-rename".to_string(),
        ];
        for point in &points {
            let dir = scratch("sweep");
            let old_path = dir.join(format!("snap-1.{SNAPSHOT_EXT}"));
            save(&old_path, &old, 1, "crash-old").unwrap();

            run_child(&dir, point);

            let (path, _artifact, meta) = recover_dir(&dir)
                .unwrap_or_else(|e| panic!("seed {seed} point {point}: recovery failed: {e}"));
            let renamed = point == "after-rename";
            if renamed {
                // The new file is complete and durable under its final name.
                assert_eq!(meta.epoch, 2, "seed {seed} point {point}");
                assert_eq!(
                    meta.artifact_digest, digest_new,
                    "seed {seed} point {point}"
                );
            } else {
                // The publish never renamed: recovery must serve the old
                // snapshot, byte-exact.
                assert_eq!(meta.epoch, 1, "seed {seed} point {point}");
                assert_eq!(
                    meta.artifact_digest, digest_old,
                    "seed {seed} point {point}"
                );
                assert_eq!(path, old_path);
            }
            // A failed publish never deletes the previous snapshot.
            assert!(
                old_path.exists(),
                "seed {seed} point {point}: old snapshot deleted"
            );
            // And nothing valid was quarantined: the only *.corrupt files a
            // crash can leave would be torn finals, which the temp-file
            // protocol makes impossible.
            let corrupt = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.path().to_string_lossy().contains(".corrupt"))
                .count();
            assert_eq!(corrupt, 0, "seed {seed} point {point}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The same protocol sweep through the zero-copy cold start
/// (`recover_dir_with(dir, true)`, the path `rae-serve` boots on): after
/// every crash point, recovery must serve the old or new snapshot with the
/// exact digest — and because the surviving file is a well-formed aligned
/// image, the recovered index must actually borrow its tables from it.
#[test]
fn crash_sweep_through_borrowed_recovery_serves_old_or_new() {
    let _serial = lock();
    let old = artifact_old();
    let new = artifact_new();
    let digest_old = digest_of(&old);
    let digest_new = digest_of(&new);

    for seed in seeds() {
        for point in ["temp-created", "after-fsync", "after-rename"] {
            let dir = scratch("borrowed");
            let old_path = dir.join(format!("snap-1.{SNAPSHOT_EXT}"));
            save(&old_path, &old, 1, "crash-old").unwrap();

            run_child(&dir, point);

            let (_, artifact, meta) = rae_store::recover_dir_with(&dir, true)
                .unwrap_or_else(|e| panic!("seed {seed} point {point}: recovery failed: {e}"));
            if point == "after-rename" {
                assert_eq!(meta.epoch, 2, "seed {seed} point {point}");
                assert_eq!(
                    meta.artifact_digest, digest_new,
                    "seed {seed} point {point}"
                );
            } else {
                assert_eq!(meta.epoch, 1, "seed {seed} point {point}");
                assert_eq!(
                    meta.artifact_digest, digest_old,
                    "seed {seed} point {point}"
                );
            }
            assert!(
                meta.borrowed,
                "seed {seed} point {point}: recovery fell back to the owned decode"
            );
            let rae_store::Artifact::Ordered(idx) = artifact else {
                panic!("seed {seed} point {point}: wrong artifact kind");
            };
            assert!(
                idx.index().storage_is_borrowed(),
                "seed {seed} point {point}: recovered index does not serve zero-copy"
            );
            assert!(idx.count() > 0, "seed {seed} point {point}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn crash_before_rename_with_no_prior_snapshot_reports_nothing_durable() {
    let _serial = lock();
    let dir = scratch("empty");
    run_child(&dir, "after-fsync");
    match recover_dir(&dir) {
        Err(StoreError::NoSnapshot { quarantined, .. }) => {
            assert!(quarantined.is_empty(), "crash temp files are not snapshots");
        }
        other => panic!("expected NoSnapshot, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_after_rename_with_no_prior_snapshot_recovers_the_new_one() {
    let _serial = lock();
    let dir = scratch("first");
    run_child(&dir, "after-rename");
    let (_, _, meta) = recover_dir(&dir).unwrap();
    assert_eq!(meta.epoch, 2);
    assert_eq!(meta.artifact_digest, digest_of(&artifact_new()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn-write injection: the `store/torn` failpoint models a non-atomic
/// writer leaving a seed-chosen prefix under the FINAL name. Recovery must
/// quarantine the torn file (never delete it) and fall back to the old
/// snapshot.
#[cfg(feature = "failpoints")]
mod torn {
    use super::*;
    use rae_faults::{install, FaultKind, FaultSchedule};

    #[test]
    fn torn_final_file_is_quarantined_and_old_snapshot_served() {
        let _serial = lock();
        let old = artifact_old();
        let new = artifact_new();
        let digest_old = digest_of(&old);

        for seed in seeds() {
            let dir = scratch("torn");
            let old_path = dir.join(format!("snap-1.{SNAPSHOT_EXT}"));
            save(&old_path, &old, 1, "crash-old").unwrap();

            let new_path = dir.join(format!("snap-2.{SNAPSHOT_EXT}"));
            let guard = install(FaultSchedule::new(seed).always("store/torn", FaultKind::Error));
            let err = save(&new_path, &new, 2, "crash-child").unwrap_err();
            drop(guard);
            assert!(
                matches!(err, StoreError::FaultInjected { site: "store/torn" }),
                "seed {seed}: {err}"
            );
            // The torn prefix landed under the final name.
            assert!(new_path.exists(), "seed {seed}: no torn file");

            let (_, _, meta) = recover_dir(&dir).unwrap();
            assert_eq!(meta.epoch, 1, "seed {seed}");
            assert_eq!(meta.artifact_digest, digest_old, "seed {seed}");
            // Torn file quarantined aside, not deleted.
            assert!(!new_path.exists(), "seed {seed}: torn file still live");
            let corrupt = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.path().to_string_lossy().contains(".corrupt"))
                .count();
            assert_eq!(corrupt, 1, "seed {seed}: torn file not quarantined");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
