//! Borrowed copies of archives: every numeric column re-homed as a
//! zero-copy view into a 16-aligned buffer, as the store's borrowed load
//! hands them to `from_archive`.
//!
//! Test support, not a test target: a test binary includes it with
//! `#[path = "support/borrow.rs"] mod borrow;`.

use rae_core::column::pod_bytes;
use rae_core::{
    AlignedBytes, Buckets, Col, CqIndexArchive, NodeArchive, OrderedCqIndexArchive, Pod,
    StableBytes, Starts, ValueTable,
};
use std::sync::Arc;

/// A borrowed view over a copy of `col`'s elements.
pub fn view<T: Pod>(col: &Col<T>) -> Col<T> {
    let owner: Arc<dyn StableBytes> = Arc::new(AlignedBytes::copy_from(pod_bytes(col)));
    Col::borrowed(owner, 0, col.len()).expect("a 16-aligned copy is borrowable")
}

/// `archive` with every column borrowed (the values' integer half too).
pub fn borrowed_cq(archive: &CqIndexArchive) -> CqIndexArchive {
    CqIndexArchive {
        values: ValueTable {
            ints: view(&archive.values.ints),
            strs: archive.values.strs.clone(),
        },
        bags: archive.bags.clone(),
        parent: archive.parent.clone(),
        head: archive.head.clone(),
        nodes: archive
            .nodes
            .iter()
            .map(|n| NodeArchive {
                rows: n.rows,
                refs: view(&n.refs),
                starts: match &n.starts {
                    Starts::Compact(s) => Starts::Compact(view(s)),
                    Starts::Wide(s) => Starts::Wide(view(s)),
                },
                buckets: Buckets {
                    start: view(&n.buckets.start),
                    end: view(&n.buckets.end),
                    total: view(&n.buckets.total),
                    max_weight: view(&n.buckets.max_weight),
                },
                bucket_of_row: view(&n.bucket_of_row),
                child_buckets: n.child_buckets.iter().map(view).collect(),
            })
            .collect(),
    }
}

/// [`borrowed_cq`] for an ordered archive.
pub fn borrowed_ordered(archive: &OrderedCqIndexArchive) -> OrderedCqIndexArchive {
    OrderedCqIndexArchive {
        index: borrowed_cq(&archive.index),
        order: archive.order.clone(),
        node_new: archive.node_new.clone(),
    }
}
