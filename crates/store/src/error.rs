//! Error type for the snapshot store. Every load-path failure is a
//! structured, non-panicking error: a corrupted file must never take the
//! process down or leak a wrong answer.

use std::fmt;
use std::path::PathBuf;

/// Errors raised while persisting or loading snapshot files.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure (open, write, fsync, rename). Transient:
    /// retrying against a healthy filesystem is sound because the publish
    /// protocol never leaves a partially visible file under the final name.
    Io {
        /// The protocol step that failed ("create temp", "fsync", …).
        context: &'static str,
        /// The underlying error, stringified (I/O errors are not `Clone`).
        detail: String,
    },
    /// The file ends before the region the format requires; the classic
    /// torn-write / partial-crash shape.
    TruncatedFile {
        /// Bytes the format needed.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section (or the header/footer) failed its checksum or decoded to
    /// garbage.
    Corrupt {
        /// The section name, or `"header"` / `"footer"` / `"trailer"`.
        section: String,
        /// What went wrong.
        detail: String,
    },
    /// The file's format version is not the one this build reads. Old
    /// snapshots are rebuilt, not migrated (DESIGN.md §15).
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// Every section passed its own checksum but the whole-artifact digest
    /// disagrees with the footer (e.g. sections of two snapshots spliced
    /// together).
    DigestMismatch {
        /// Digest recorded in the footer.
        expected: u64,
        /// Digest recomputed over the payload.
        actual: u64,
    },
    /// The decoded archive failed the semantic re-validation of
    /// `from_archive` (checksum-valid bytes, logically broken artifact).
    Archive(rae_core::CoreError),
    /// A deterministic fault fired at the named failpoint (only reachable
    /// under the `failpoints` feature).
    FaultInjected {
        /// The failpoint site, e.g. `"store/write"`.
        site: &'static str,
    },
    /// The file is valid, but zero-copy column views cannot be
    /// constructed over this buffer (a misaligned mapping or a big-endian
    /// host). `load_borrowed` catches this internally and falls back to
    /// the owned decode; it never signals a bad file.
    Unborrowable {
        /// Why the view was refused.
        detail: String,
    },
    /// No loadable snapshot was found during directory recovery (the
    /// payload lists the files that were quarantined on the way).
    NoSnapshot {
        /// Directory that was scanned.
        dir: PathBuf,
        /// Files that failed validation and were quarantined.
        quarantined: Vec<PathBuf>,
    },
}

impl rae_faults::Transient for StoreError {
    fn is_transient(&self) -> bool {
        match self {
            // The atomic-publish protocol makes a retry after an I/O error
            // (or an injected fault standing in for one) safe.
            StoreError::Io { .. } | StoreError::FaultInjected { .. } => true,
            StoreError::Archive(e) => e.is_transient(),
            // Corruption does not heal on retry; rebuild instead.
            StoreError::TruncatedFile { .. }
            | StoreError::Corrupt { .. }
            | StoreError::VersionMismatch { .. }
            | StoreError::DigestMismatch { .. }
            // Alignment/endianness of a mapping does not change on retry.
            | StoreError::Unborrowable { .. }
            | StoreError::NoSnapshot { .. } => false,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, detail } => {
                write!(f, "snapshot I/O failed at {context}: {detail}")
            }
            StoreError::TruncatedFile { expected, actual } => write!(
                f,
                "snapshot file truncated: format requires {expected} bytes, found {actual}"
            ),
            StoreError::Corrupt { section, detail } => {
                write!(f, "snapshot section `{section}` is corrupt: {detail}")
            }
            StoreError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not the supported version {supported}"
            ),
            StoreError::DigestMismatch { expected, actual } => write!(
                f,
                "artifact digest mismatch: footer says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            StoreError::Archive(e) => write!(f, "snapshot decoded but failed validation: {e}"),
            StoreError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
            StoreError::Unborrowable { detail } => {
                write!(f, "zero-copy views unavailable for this buffer: {detail}")
            }
            StoreError::NoSnapshot { dir, quarantined } => write!(
                f,
                "no loadable snapshot in {} ({} file(s) quarantined)",
                dir.display(),
                quarantined.len()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Archive(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rae_core::CoreError> for StoreError {
    fn from(e: rae_core::CoreError) -> Self {
        StoreError::Archive(e)
    }
}

/// Maps an `io::Error` at a named protocol step.
pub(crate) fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |e| StoreError::Io {
        context,
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_faults::Transient;

    #[test]
    fn classification_and_messages() {
        assert!(StoreError::Io {
            context: "fsync",
            detail: "boom".into()
        }
        .is_transient());
        let c = StoreError::Corrupt {
            section: "node0/starts".into(),
            detail: "checksum".into(),
        };
        assert!(!c.is_transient());
        assert!(c.to_string().contains("node0/starts"));
        let v = StoreError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains('9'));
    }
}
