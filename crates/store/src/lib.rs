#![deny(missing_docs)]
// A corrupted snapshot must never panic the process: every extractor on
// the load path returns a structured `StoreError`. No allows — this crate
// is born under the lints.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # rae-store — crash-consistent durable snapshots
//!
//! A versioned, checksummed on-disk format for the built PODS 2020 access
//! structures, with an atomic publish protocol and cold-start recovery
//! (DESIGN.md §15):
//!
//! * [`save`] — serialize an index archive into contiguous little-endian
//!   sections (flat `u32` reference columns, startIndex prefix sums,
//!   bucket tables, the deduplicated value table), each individually
//!   checksummed (FNV-1a 64), with a checksummed footer carrying the
//!   format version, endianness tag, and the whole-artifact digest; then
//!   publish via temp file → fsync → atomic rename → directory fsync.
//! * [`load`] — validate every checksum and the digest, decode, and run
//!   the full `from_archive` semantic re-validation before handing out an
//!   index. Corruption is always a structured [`StoreError`]; a bad file
//!   is quarantined (renamed aside), never deleted, never served.
//! * [`recover_dir`] — cold-start entry point: newest valid snapshot wins,
//!   everything invalid is quarantined. Each candidate is read and
//!   checksummed once, and the winner is decoded from those verified
//!   bytes; the scan keeps only the newest verified buffer, so at most two
//!   buffers are live at once.
//! * [`load_borrowed`] / [`recover_dir_with`] — the zero-copy variants
//!   (DESIGN.md §16): the file is mapped read-only and the index serves
//!   rank descents from views into the mapped, 16-byte-aligned section
//!   payloads — same validation, no column copies. Misalignment or a
//!   foreign-endian host falls back to the owned decode (`meta.borrowed`
//!   reports which path served).
//!
//! The `artifact_digest` is computed over the process-independent archive
//! bytes (value-table references, never dictionary codes), so the same
//! logical index digests identically in any process — the crash-injection
//! harness uses this to prove recovery exactness: after a `SIGKILL` at any
//! protocol point, recovery yields a snapshot whose digest equals either
//! the old or the new fault-free build, nothing else.

mod artifact;
mod checksum;
mod error;
mod format;
#[cfg(unix)]
mod map;
mod wire;

pub use artifact::{Artifact, ArtifactArchive, ArtifactKind};
pub use checksum::{fnv64, fnv64_fast, Fnv64};
pub use error::StoreError;
pub use format::{
    load, load_archive, load_archive_borrowed, load_borrowed, load_borrowed_at_offset, quarantine,
    recover_dir, recover_dir_with, save, verify, SnapshotMeta, CRASH_ENV, FORMAT_VERSION,
    SNAPSHOT_EXT,
};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// The artifact digest of an archive without writing anything: the same
/// value [`save`] records in the footer — FNV-1a 64 over each section's
/// `(name, fnv64_fast(payload))` pair in section order. The crash harness
/// uses this to compute the fault-free expectation in memory.
pub fn digest_of(artifact: &ArtifactArchive) -> u64 {
    let mut digest = Fnv64::new();
    for (name, payload) in artifact.to_sections() {
        digest.update(name.as_bytes());
        digest.update(&fnv64_fast(&payload).to_le_bytes());
    }
    digest.finish()
}
