//! Snapshot round-trips over the paper's TPC-H benchmark queries, and a
//! byte-level corruption fuzz: every single-byte corruption of a snapshot
//! file must surface as a structured [`StoreError`] — never a panic, never
//! a silently wrong index.

use proptest::prelude::*;
use rae_core::{CqIndex, OrderedCqIndex, RankedUcq, Starts};
use rae_data::{Database, Relation, Schema, Symbol, Value};
use rae_store::{
    digest_of, load, load_archive, load_archive_borrowed, load_borrowed, save, verify, Artifact,
    ArtifactArchive, StoreError, FORMAT_VERSION, SNAPSHOT_EXT,
};
use rae_tpch::{generate, prepare_selections, queries, TpchScale};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rae-store-roundtrip-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tpch_db() -> Database {
    let mut db = generate(&TpchScale::tiny(), 42);
    prepare_selections(&mut db).unwrap();
    db
}

/// Round-trips `archive` through a snapshot file and checks the digest
/// chain: in-memory digest == on-disk digest == re-serialized digest.
fn round_trip(dir: &std::path::Path, name: &str, archive: ArtifactArchive) -> Artifact {
    let expected = digest_of(&archive);
    let path = dir.join(format!("{name}.{SNAPSHOT_EXT}"));
    let meta = save(&path, &archive, 1, name).unwrap();
    assert_eq!(meta.artifact_digest, expected, "{name}: save digest");
    assert_eq!(verify(&path).unwrap().artifact_digest, expected);
    let (artifact, meta) = load(&path).unwrap();
    assert_eq!(meta.artifact_digest, expected, "{name}: load digest");
    // Serialization of the restored index is a fixed point.
    let re_archived = match &artifact {
        Artifact::Cq(idx) => ArtifactArchive::Cq(idx.to_archive()),
        Artifact::Ordered(idx) => ArtifactArchive::Ordered(idx.to_archive()),
        Artifact::OrderedUnion(idx) => ArtifactArchive::OrderedUnion(idx.to_archive()),
    };
    assert_eq!(
        digest_of(&re_archived),
        expected,
        "{name}: re-archive digest"
    );
    artifact
}

#[test]
fn tpch_cq_snapshots_round_trip() {
    let db = tpch_db();
    let dir = scratch("cq");
    for (name, cq) in queries::all_cqs() {
        let idx = CqIndex::build(&cq, &db).unwrap();
        let Artifact::Cq(restored) = round_trip(&dir, name, ArtifactArchive::Cq(idx.to_archive()))
        else {
            panic!("{name}: wrong artifact kind");
        };
        assert_eq!(restored.count(), idx.count(), "{name}: count");
        let n = idx.count();
        let stride = (n / 64).max(1);
        let mut j = 0;
        while j < n {
            assert_eq!(restored.access(j), idx.access(j), "{name}: access({j})");
            j += stride;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tpch_ordered_snapshots_round_trip() {
    let db = tpch_db();
    let dir = scratch("ordered");
    for (name, cq) in queries::all_cqs() {
        // The plan's own DFS new-attribute sequence is realizable by
        // construction — the head order itself need not be.
        let order: Vec<Symbol> = CqIndex::build(&cq, &db).unwrap().plan().attrs_dfs();
        let idx = OrderedCqIndex::build(&cq, &db, &order).unwrap();
        let Artifact::Ordered(restored) =
            round_trip(&dir, name, ArtifactArchive::Ordered(idx.to_archive()))
        else {
            panic!("{name}: wrong artifact kind");
        };
        assert_eq!(restored.count(), idx.count(), "{name}: count");
        assert_eq!(restored.order(), idx.order(), "{name}: order");
        let n = idx.count();
        let stride = (n / 64).max(1);
        let mut k = 0;
        while k < n {
            assert_eq!(
                restored.ordered_access(k),
                idx.ordered_access(k),
                "{name}: ordered_access({k})"
            );
            k += stride;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tpch_union_snapshots_round_trip() {
    let db = tpch_db();
    let dir = scratch("union");
    for (name, ucq) in queries::all_ucqs() {
        // The benchmark unions' members share one join-tree template, so
        // the first member's DFS attribute sequence realizes for every one.
        let order: Vec<Symbol> = CqIndex::build(&ucq.disjuncts()[0], &db)
            .unwrap()
            .plan()
            .attrs_dfs();
        let idx = RankedUcq::build(&ucq, &db, &order).unwrap();
        let file = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect::<String>();
        let Artifact::OrderedUnion(restored) =
            round_trip(&dir, &file, ArtifactArchive::OrderedUnion(idx.to_archive()))
        else {
            panic!("{name}: wrong artifact kind");
        };
        assert_eq!(restored.count(), idx.count(), "{name}: count");
        let n = idx.count();
        let stride = (n / 64).max(1);
        let mut k = 0;
        while k < n {
            let t = idx.ordered_access(k);
            assert_eq!(restored.ordered_access(k), t, "{name}: ordered_access({k})");
            let t = t.unwrap();
            assert_eq!(
                restored.ordered_inverted_access(&t),
                Some(k),
                "{name}: inverted({k})"
            );
            k += stride;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A union snapshot whose members disagree on the realized order or on the
/// head layout decodes, then fails realization with the structured
/// `MismatchedOrders` error: the union is rebuilt from its members, and
/// `RankedUcq::from_members` checks the shared layout.
#[test]
fn union_members_with_differing_heads_or_orders_are_refused() {
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add_relation(
            name,
            Relation::from_rows(
                Schema::new(["a", "b"]).unwrap(),
                (0..5i64).map(|i| vec![Value::Int(i), Value::Int(i % 2)]),
            )
            .unwrap(),
        )
        .unwrap();
    }
    let syms = |vars: &[&str]| vars.iter().map(|v| Symbol::new(*v)).collect::<Vec<_>>();
    let member = |text: &str, order: &[&str]| {
        OrderedCqIndex::build(&text.parse().unwrap(), &db, &syms(order))
            .unwrap()
            .to_archive()
    };
    let dir = scratch("mismatch");
    let cases = [
        (
            "orders",
            member("Q(x, y) :- R(x, y)", &["x", "y"]),
            member("Q(x, y) :- S(x, y)", &["y", "x"]),
        ),
        (
            "heads",
            member("Q(x, y) :- R(x, y)", &["x", "y"]),
            member("Q(y, x) :- S(x, y)", &["x", "y"]),
        ),
    ];
    for (what, first, second) in cases {
        let path = dir.join(format!("{what}.{SNAPSHOT_EXT}"));
        save(
            &path,
            &ArtifactArchive::OrderedUnion(vec![first, second]),
            1,
            what,
        )
        .unwrap();
        for result in [load(&path), load_borrowed(&path)] {
            match result {
                Err(StoreError::Archive(rae_core::CoreError::MismatchedOrders { .. })) => {}
                other => panic!("{what}: expected MismatchedOrders, got {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every single-bit flip and every truncation of the snapshot at `path`,
/// whose bytes are `pristine`, must be refused by both `load` and
/// `load_borrowed`: a structured error every time, never a panic, never a
/// silent load. The file is patched in place, one byte at a time, and
/// holds `pristine` again on return. Returns how many flips `load` refused.
fn sweep_corruptions(path: &Path, pristine: &[u8]) -> usize {
    let mut file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    let mut patch = |at: usize, byte: u8| {
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&[byte]).unwrap();
    };
    let mut refused = 0usize;
    for (i, &byte) in pristine.iter().enumerate() {
        for bit in 0..8 {
            patch(i, byte ^ (1 << bit));
            match load(path) {
                Err(_) => refused += 1,
                Ok((_, meta)) => panic!(
                    "flip at byte {i} bit {bit} loaded silently (digest {:#x})",
                    meta.artifact_digest
                ),
            }
            // The zero-copy path must refuse the identical corruption —
            // same checksums, same structured errors, no mapped-memory UB.
            if let Ok((_, meta)) = load_borrowed(path) {
                panic!(
                    "flip at byte {i} bit {bit} borrow-loaded silently (digest {:#x})",
                    meta.artifact_digest
                );
            }
        }
        patch(i, byte);
    }

    // And every truncation, on both paths, shortest last.
    for cut in (0..pristine.len()).rev() {
        file.set_len(cut as u64).unwrap();
        assert!(load(path).is_err(), "truncation to {cut} bytes loaded");
        assert!(
            load_borrowed(path).is_err(),
            "truncation to {cut} bytes borrow-loaded"
        );
    }
    drop(file);
    std::fs::write(path, pristine).unwrap();
    refused
}

/// A small fixed index for the corruption fuzz (keeps the file a few KB so
/// the exhaustive sweep stays fast).
fn small_archive() -> ArtifactArchive {
    let mut db = Database::new();
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(["a", "b"]).unwrap(),
            (0..6i64).map(|i| vec![Value::Int(i % 3), Value::Int(i)]),
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(
            Schema::new(["b", "c"]).unwrap(),
            (0..6i64).map(|i| vec![Value::Int(i), Value::str(["x", "y"][i as usize % 2])]),
        )
        .unwrap(),
    )
    .unwrap();
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order: Vec<Symbol> = ["x", "y", "z"].into_iter().map(Symbol::new).collect();
    ArtifactArchive::Ordered(
        OrderedCqIndex::build(&cq, &db, &order)
            .unwrap()
            .to_archive(),
    )
}

#[test]
fn every_single_byte_corruption_is_refused() {
    let dir = scratch("fuzz");
    let path = dir.join(format!("victim.{SNAPSHOT_EXT}"));
    let archive = small_archive();
    save(&path, &archive, 1, "fuzz").unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let expected = digest_of(&archive);

    let refused = sweep_corruptions(&path, &pristine);
    assert_eq!(refused, pristine.len() * 8);

    // The pristine bytes still load — the harness itself isn't broken.
    assert_eq!(load(&path).unwrap().1.artifact_digest, expected);
    let (_, meta) = load_borrowed(&path).unwrap();
    assert_eq!(meta.artifact_digest, expected);
    assert!(meta.borrowed, "aligned mapping should serve zero-copy");
    std::fs::remove_dir_all(&dir).ok();
}

/// A dense single-attribute index: one bucket of 256 consecutive starts,
/// saved compact. The bit-flip and truncation sweeps below cover its
/// startIndex section on both load paths.
fn dense_archive() -> ArtifactArchive {
    let mut db = Database::new();
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(["a"]).unwrap(),
            (0..256i64).map(|i| vec![Value::Int(i)]),
        )
        .unwrap(),
    )
    .unwrap();
    let cq = "Q(x) :- R(x)".parse().unwrap();
    ArtifactArchive::Cq(CqIndex::build(&cq, &db).unwrap().to_archive())
}

#[test]
fn every_corruption_of_dense_snapshot_is_refused() {
    let dir = scratch("dense-fuzz");
    let path = dir.join(format!("victim.{SNAPSHOT_EXT}"));
    save(&path, &dense_archive(), 1, "dense-fuzz").unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Sanity: this snapshot really is served zero-copy off a compact
    // startIndex view — otherwise the sweep would not cover what it claims.
    let (archive, _) = load_archive_borrowed(&path).unwrap();
    let ArtifactArchive::Cq(a) = &archive else {
        panic!("wrong archive kind");
    };
    assert!(
        matches!(&a.nodes[0].starts, Starts::Compact(c) if c.is_borrowed() && c.len() == 256),
        "dense starts should be a borrowed compact column"
    );
    let (artifact, meta) = load_borrowed(&path).unwrap();
    assert!(meta.borrowed);
    let Artifact::Cq(idx) = artifact else {
        panic!("wrong artifact kind");
    };
    assert!(idx.storage_is_borrowed());
    assert_eq!(idx.count(), 256);

    sweep_corruptions(&path, &pristine);
    std::fs::remove_dir_all(&dir).ok();
}

/// 16 unary relations of 255 values under `ORDER BY x1, …, x16`: 255^16
/// ≈ 3.19e38 answers, within a factor 1.07 of `u128::MAX`, so the upper
/// nodes' startIndex overflows `u64` and is built wide.
fn near_u128_cross_product() -> OrderedCqIndex {
    const VARS: usize = 16;
    let mut db = Database::new();
    for i in 1..=VARS {
        let rel = Relation::from_rows(
            Schema::new(["a"]).unwrap(),
            (0..255i64).map(|v| vec![Value::Int(v)]),
        )
        .unwrap();
        db.add_relation(format!("R{i}"), rel).unwrap();
    }
    let head: Vec<String> = (1..=VARS).map(|i| format!("x{i}")).collect();
    let body: Vec<String> = (1..=VARS).map(|i| format!("R{i}(x{i})")).collect();
    let cq = format!("Q({}) :- {}", head.join(", "), body.join(", "))
        .parse()
        .unwrap();
    let order: Vec<Symbol> = (1..=VARS).map(|i| Symbol::new(format!("x{i}"))).collect();
    OrderedCqIndex::build(&cq, &db, &order).unwrap()
}

#[test]
fn wide_starts_round_trip_through_both_load_paths() {
    let built = near_u128_cross_product();
    let n = built.count();
    assert!(n > u128::from(u64::MAX));
    let dir = scratch("wide");
    let archive = ArtifactArchive::Ordered(built.to_archive());
    let expected = digest_of(&archive);
    let path = dir.join(format!("wide.{SNAPSHOT_EXT}"));
    save(&path, &archive, 1, "wide").unwrap();

    // Both decodes keep the wide nodes wide: an owned copy, and a view
    // into the mapping on the borrowed path.
    for borrowed in [false, true] {
        let (decoded, meta) = if borrowed {
            load_archive_borrowed(&path).unwrap()
        } else {
            load_archive(&path).unwrap()
        };
        assert_eq!(meta.artifact_digest, expected);
        assert_eq!(meta.borrowed, borrowed);
        let ArtifactArchive::Ordered(a) = &decoded else {
            panic!("wrong archive kind");
        };
        // Whether each wide node's column is a view into the mapping.
        let wide_views: Vec<bool> = a
            .index
            .nodes
            .iter()
            .filter_map(|node| match &node.starts {
                Starts::Wide(col) => Some(col.is_borrowed()),
                Starts::Compact(_) => None,
            })
            .collect();
        assert!(
            !wide_views.is_empty(),
            "no node of the cross product is wide"
        );
        assert!(wide_views.iter().all(|&view| view == borrowed));
        assert_eq!(decoded, archive);
    }

    // Access and inverted access agree with the built index at sampled
    // ranks, on both load paths.
    let probes = [0, 1, 254, 255, n / 3, n / 2, n - 2, n - 1];
    for (artifact, meta) in [load(&path).unwrap(), load_borrowed(&path).unwrap()] {
        let Artifact::Ordered(idx) = artifact else {
            panic!("wrong artifact kind");
        };
        assert_eq!(idx.index().storage_is_borrowed(), meta.borrowed);
        assert_eq!(idx.count(), n);
        for k in probes {
            let answer = built.ordered_access(k).unwrap();
            assert_eq!(idx.ordered_access(k).as_ref(), Some(&answer), "rank {k}");
            assert_eq!(idx.ordered_inverted_access(&answer), Some(k), "rank {k}");
        }
        assert!(idx.ordered_access(n).is_none());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_errors_are_structured() {
    // Spot-check that representative corruptions map to the intended
    // variants, not just "some error".
    let dir = scratch("variants");
    let path = dir.join(format!("victim.{SNAPSHOT_EXT}"));
    save(&path, &small_archive(), 1, "variants").unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Unsupported versions: a future one, and the previous format, which
    // is rebuilt from base data rather than migrated.
    for version in [0xFF, FORMAT_VERSION - 1] {
        let mut bytes = pristine.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        // Re-stamp the header checksum (FNV over the first 24 bytes) so
        // the version check itself is reached even if checks reorder.
        let sum = rae_store::fnv64(&bytes[..24]).to_le_bytes();
        bytes[24..32].copy_from_slice(&sum);
        std::fs::write(&path, &bytes).unwrap();
        for loaded in [load(&path).err(), load_borrowed(&path).err()] {
            assert!(
                matches!(
                    loaded,
                    Some(StoreError::VersionMismatch { found, supported })
                        if found == version && supported == FORMAT_VERSION
                ),
                "version {version}: {loaded:?}"
            );
        }
    }

    // Lost trailer → truncation report.
    std::fs::write(&path, &pristine[..pristine.len() - 8]).unwrap();
    assert!(matches!(load(&path), Err(StoreError::TruncatedFile { .. })));

    // Flip one payload byte and fix up nothing: section checksum catches it.
    let mut bytes = pristine.clone();
    bytes[40] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(load(&path), Err(StoreError::Corrupt { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

type Rows = Vec<(i64, i64)>;

fn two_table_db(r_rows: &Rows, s_rows: &Rows) -> Database {
    let rel = |schema: [&str; 2], rows: &Rows| {
        Relation::from_rows(
            Schema::new(schema).unwrap(),
            rows.iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)]),
        )
        .unwrap()
    };
    let mut db = Database::new();
    db.add_relation("R", rel(["a", "b"], r_rows)).unwrap();
    db.add_relation("S", rel(["b", "c"], s_rows)).unwrap();
    db
}

/// One random-database round-trip case: serialize → load → identical
/// digest and identical ordered answer stream.
fn check_random_round_trip(r_rows: &Rows, s_rows: &Rows) {
    let db = two_table_db(r_rows, s_rows);
    let cq = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order: Vec<Symbol> = ["z", "y", "x"].into_iter().map(Symbol::new).collect();
    let idx = OrderedCqIndex::build(&cq, &db, &order).unwrap();
    let archive = ArtifactArchive::Ordered(idx.to_archive());
    let expected = digest_of(&archive);

    let dir = scratch("prop");
    let path = dir.join(format!("p.{SNAPSHOT_EXT}"));
    let meta = save(&path, &archive, 7, "prop").unwrap();
    assert_eq!(meta.artifact_digest, expected);
    let (artifact, meta) = load(&path).unwrap();
    assert_eq!(meta.artifact_digest, expected);
    let Artifact::Ordered(restored) = artifact else {
        panic!("wrong artifact kind");
    };
    assert_eq!(restored.count(), idx.count());
    for k in 0..idx.count() {
        assert_eq!(restored.ordered_access(k), idx.ordered_access(k));
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_indexes_round_trip(
        r_rows in prop::collection::vec((-4..4i64, -4..4i64), 0..20),
        s_rows in prop::collection::vec((-4..4i64, -4..4i64), 0..20),
    ) {
        check_random_round_trip(&r_rows, &s_rows);
    }
}
