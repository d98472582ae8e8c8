//! Borrowed-vs-owned differential: every TPC-H index, loaded zero-copy
//! via `load_borrowed`, must agree *rank by rank* with the owned load and
//! with the fresh build — counts, random access, inverted access, range
//! counts, enumeration windows, random-order samples, and digests. The
//! borrowed path changes where bytes live, never what any rank answers.
//!
//! Also the misalignment gate: a snapshot image at an odd offset in
//! memory must fall back to the owned decode (correct answers, UB-free),
//! reported via `meta.borrowed == false`.

use rae_core::{CqIndex, OrderedCqIndex, RankedUcq};
use rae_data::{Symbol, Value};
use rae_store::{
    digest_of, load, load_borrowed, load_borrowed_at_offset, save, Artifact, ArtifactArchive,
    SNAPSHOT_EXT,
};
use rae_tpch::{generate, prepare_selections, queries, TpchScale};
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rae-store-borrowed-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tpch_db() -> rae_data::Database {
    let mut db = generate(&TpchScale::tiny(), 42);
    prepare_selections(&mut db).unwrap();
    db
}

/// Saves `archive`, loads it back on both paths, and returns the two
/// artifacts after checking meta/digest agreement and that the borrowed
/// load really borrowed.
fn both_loads(
    dir: &std::path::Path,
    name: &str,
    archive: &ArtifactArchive,
) -> (Artifact, Artifact) {
    let expected = digest_of(archive);
    let path = dir.join(format!("{name}.{SNAPSHOT_EXT}"));
    save(&path, archive, 1, name).unwrap();
    let (owned, owned_meta) = load(&path).unwrap();
    let (borrowed, borrowed_meta) = load_borrowed(&path).unwrap();
    assert_eq!(owned_meta.artifact_digest, expected, "{name}: owned digest");
    assert_eq!(
        borrowed_meta.artifact_digest, expected,
        "{name}: borrowed digest"
    );
    assert!(!owned_meta.borrowed);
    assert!(
        borrowed_meta.borrowed,
        "{name}: aligned mapping should serve zero-copy"
    );
    (owned, borrowed)
}

/// Every-rank agreement over three plain CQ indexes (fresh build, owned
/// load, borrowed load): count, strided access, inverted access of the
/// accessed tuples, and seeded random-permutation prefixes.
fn assert_cq_agree(name: &str, built: &CqIndex, owned: &CqIndex, borrowed: &CqIndex) {
    assert!(
        borrowed.storage_is_borrowed(),
        "{name}: borrowed index does not serve from snapshot bytes"
    );
    assert!(!owned.storage_is_borrowed());
    let n = built.count();
    assert_eq!(owned.count(), n, "{name}: owned count");
    assert_eq!(borrowed.count(), n, "{name}: borrowed count");
    let stride = (n / 128).max(1);
    let mut j = 0;
    while j < n {
        let t = built.access(j);
        assert_eq!(owned.access(j), t, "{name}: owned access({j})");
        assert_eq!(borrowed.access(j), t, "{name}: borrowed access({j})");
        if let Some(tuple) = &t {
            assert_eq!(
                borrowed.inverted_access(tuple),
                Some(j),
                "{name}: borrowed inverted_access({j})"
            );
            assert_eq!(owned.inverted_access(tuple), Some(j));
        }
        j += stride;
    }
    // Random-order samples: the same seed must yield the same stream from
    // every storage (the shuffle consumes access + count only).
    let take = n.min(16) as usize;
    let from_built: Vec<_> = built
        .random_permutation(StdRng::seed_from_u64(9))
        .take(take)
        .collect();
    let from_owned: Vec<_> = owned
        .random_permutation(StdRng::seed_from_u64(9))
        .take(take)
        .collect();
    let from_borrowed: Vec<_> = borrowed
        .random_permutation(StdRng::seed_from_u64(9))
        .take(take)
        .collect();
    assert_eq!(from_owned, from_built, "{name}: owned sample stream");
    assert_eq!(from_borrowed, from_built, "{name}: borrowed sample stream");
}

/// Every-rank agreement over ordered indexes: adds ordered access,
/// ordered inverted access, per-prefix range counts, and window
/// enumeration.
fn assert_ordered_agree(
    name: &str,
    built: &OrderedCqIndex,
    owned: &OrderedCqIndex,
    borrowed: &OrderedCqIndex,
) {
    assert_cq_agree(name, built.index(), owned.index(), borrowed.index());
    assert_eq!(owned.order(), built.order());
    assert_eq!(borrowed.order(), built.order());
    let n = built.count();
    let stride = (n / 128).max(1);
    let mut k = 0;
    while k < n {
        let t = built.ordered_access(k);
        assert_eq!(owned.ordered_access(k), t, "{name}: owned ordered({k})");
        assert_eq!(
            borrowed.ordered_access(k),
            t,
            "{name}: borrowed ordered({k})"
        );
        if let Some(tuple) = &t {
            assert_eq!(
                borrowed.ordered_inverted_access(tuple),
                Some(k),
                "{name}: borrowed ordered_inverted({k})"
            );
            // Range counts under every prefix of this answer, in order
            // coordinates.
            let head_to_order: Vec<Value> = built
                .order_to_head()
                .iter()
                .map(|&h| tuple[h].clone())
                .collect();
            for p in 0..=head_to_order.len() {
                let prefix = &head_to_order[..p];
                let expect = built.range_count(prefix);
                assert_eq!(
                    owned.range_count(prefix),
                    expect,
                    "{name}: owned range_count@{k}/{p}"
                );
                assert_eq!(
                    borrowed.range_count(prefix),
                    expect,
                    "{name}: borrowed range_count@{k}/{p}"
                );
            }
        }
        k += stride;
    }
    // A mid-stream enumeration window must stream identically.
    let lo = n / 3;
    let hi = (lo + 64).min(n);
    let expect: Vec<_> = built.range(lo..hi).collect();
    assert_eq!(owned.range(lo..hi).collect::<Vec<_>>(), expect);
    assert_eq!(borrowed.range(lo..hi).collect::<Vec<_>>(), expect);
}

#[test]
fn tpch_cq_borrowed_matches_owned_and_build() {
    let db = tpch_db();
    let dir = scratch("cq");
    for (name, cq) in queries::all_cqs() {
        let built = CqIndex::build(&cq, &db).unwrap();
        let archive = ArtifactArchive::Cq(built.to_archive());
        let (owned, borrowed) = both_loads(&dir, name, &archive);
        let (Artifact::Cq(owned), Artifact::Cq(borrowed)) = (owned, borrowed) else {
            panic!("{name}: wrong artifact kind");
        };
        assert_cq_agree(name, &built, &owned, &borrowed);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tpch_ordered_borrowed_matches_owned_and_build() {
    let db = tpch_db();
    let dir = scratch("ordered");
    for (name, cq) in queries::all_cqs() {
        let order: Vec<Symbol> = CqIndex::build(&cq, &db).unwrap().plan().attrs_dfs();
        let built = OrderedCqIndex::build(&cq, &db, &order).unwrap();
        let archive = ArtifactArchive::Ordered(built.to_archive());
        let (owned, borrowed) = both_loads(&dir, name, &archive);
        let (Artifact::Ordered(owned), Artifact::Ordered(borrowed)) = (owned, borrowed) else {
            panic!("{name}: wrong artifact kind");
        };
        assert_ordered_agree(name, &built, &owned, &borrowed);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tpch_union_borrowed_matches_owned_and_build() {
    let db = tpch_db();
    let dir = scratch("union");
    for (name, ucq) in queries::all_ucqs() {
        let order: Vec<Symbol> = CqIndex::build(&ucq.disjuncts()[0], &db)
            .unwrap()
            .plan()
            .attrs_dfs();
        let built = RankedUcq::build(&ucq, &db, &order).unwrap();
        let file = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect::<String>();
        let archive = ArtifactArchive::OrderedUnion(built.to_archive());
        let (owned, borrowed) = both_loads(&dir, &file, &archive);
        let (Artifact::OrderedUnion(owned), Artifact::OrderedUnion(borrowed)) = (owned, borrowed)
        else {
            panic!("{name}: wrong artifact kind");
        };
        let n = built.count();
        assert_eq!(owned.count(), n, "{name}: owned count");
        assert_eq!(borrowed.count(), n, "{name}: borrowed count");
        let stride = (n / 128).max(1);
        let mut k = 0;
        while k < n {
            let t = built.ordered_access(k);
            assert_eq!(owned.ordered_access(k), t, "{name}: owned union({k})");
            assert_eq!(borrowed.ordered_access(k), t, "{name}: borrowed union({k})");
            if let Some(tuple) = &t {
                assert_eq!(
                    owned.ordered_inverted_access(tuple),
                    Some(k),
                    "{name}: owned union inverted({k})"
                );
                assert_eq!(
                    borrowed.ordered_inverted_access(tuple),
                    Some(k),
                    "{name}: borrowed union inverted({k})"
                );
            }
            k += stride;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn misaligned_image_falls_back_to_owned_decode() {
    let db = tpch_db();
    let dir = scratch("misaligned");
    let (name, cq) = &queries::all_cqs()[0];
    let built = CqIndex::build(cq, &db).unwrap();
    let archive = ArtifactArchive::Cq(built.to_archive());
    let path = dir.join(format!("{name}.{SNAPSHOT_EXT}"));
    save(&path, &archive, 1, name).unwrap();

    for prefix in [1usize, 3, 7, 9] {
        // The image starts `prefix` bytes into an aligned buffer, so no
        // 16-aligned view can exist: the loader must fall back to the
        // owned decode and still answer every rank correctly.
        let (artifact, meta) = load_borrowed_at_offset(&path, prefix).unwrap();
        assert!(
            !meta.borrowed,
            "prefix {prefix}: misaligned buffer cannot serve zero-copy"
        );
        let Artifact::Cq(loaded) = artifact else {
            panic!("wrong artifact kind");
        };
        assert!(!loaded.storage_is_borrowed());
        assert_eq!(loaded.count(), built.count());
        let n = built.count();
        let stride = (n / 32).max(1);
        let mut j = 0;
        while j < n {
            assert_eq!(loaded.access(j), built.access(j), "prefix {prefix} j {j}");
            j += stride;
        }
    }

    // Offset 0 through the same in-memory fixture: aligned, so it borrows.
    let (_, meta) = load_borrowed_at_offset(&path, 0).unwrap();
    assert!(meta.borrowed);
    std::fs::remove_dir_all(&dir).ok();
}
