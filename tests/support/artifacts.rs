//! Field-by-field equality of two `CqIndex` builds.
//!
//! Test support, not a test target: a test binary includes it with
//! `#[path = "support/artifacts.rs"] mod artifacts;`.

use rae_core::CqIndex;

/// Compares every artifact the index exposes, row by row and bucket by
/// bucket. `enumerate()` equality alone would miss internal divergence that
/// happens to cancel out; this does not.
pub fn assert_identical_artifacts(label: &str, a: &CqIndex, b: &CqIndex) {
    assert_eq!(a.count(), b.count(), "{label}: answer count");
    assert_eq!(a.node_count(), b.node_count(), "{label}: node count");
    for node in 0..a.node_count() {
        let (ra, rb) = (a.node_relation(node), b.node_relation(node));
        assert_eq!(ra, rb, "{label}: node {node} relation rows");
        assert_eq!(ra.codes(), rb.codes(), "{label}: node {node} code mirror");
        assert_eq!(
            a.node_key_cols(node),
            b.node_key_cols(node),
            "{label}: node {node} key cols"
        );
        assert_eq!(
            a.bucket_count(node),
            b.bucket_count(node),
            "{label}: node {node} bucket count"
        );
        for bucket in 0..a.bucket_count(node) as u32 {
            assert_eq!(
                a.bucket(node, bucket),
                b.bucket(node, bucket),
                "{label}: node {node} bucket {bucket}"
            );
        }
        let children = a.plan().children(node).len();
        for row in 0..ra.len() as u32 {
            assert_eq!(
                a.row_weight(node, row),
                b.row_weight(node, row),
                "{label}: node {node} row {row} weight"
            );
            assert_eq!(
                a.row_start(node, row),
                b.row_start(node, row),
                "{label}: node {node} row {row} startIndex"
            );
            assert_eq!(
                a.bucket_of_row(node, row),
                b.bucket_of_row(node, row),
                "{label}: node {node} row {row} bucket id"
            );
            for child_pos in 0..children {
                assert_eq!(
                    a.child_bucket(node, row, child_pos),
                    b.child_bucket(node, row, child_pos),
                    "{label}: node {node} row {row} child {child_pos} bucket"
                );
            }
        }
    }
}
