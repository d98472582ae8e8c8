//! The on-disk container and the crash-consistent publish protocol
//! (DESIGN.md §15).
//!
//! ## File layout (format v5)
//!
//! ```text
//! header  (32 B): magic "RAESTOR1" | version u32 | endian tag u32
//!                 | alignment u32 (16) | reserved u32 (0)
//!                 | FNV-1a 64 over the previous 24 bytes
//! payload       : section payloads, back to back (offsets in the footer);
//!                 every payload is a 16-byte multiple with numeric arrays
//!                 on 16-byte payload boundaries, so with the 32-byte
//!                 header every array is 16-aligned in the FILE — the
//!                 invariant the zero-copy `load_borrowed` path builds on
//! footer        : kind tag | version (redundant) | epoch | label
//!                 | artifact_digest | section table
//!                 (name, offset, len, FNV-1a 64 per section)
//! trailer (32 B): footer offset u64 | footer len u64
//!                 | FNV-1a 64 over the footer bytes | magic "RAEEND.1"
//! ```
//!
//! All integers little-endian. The trailer is found from EOF, so loading
//! never scans; a file truncated anywhere fails either the trailer magic,
//! the footer checksum, or a section checksum — always a structured
//! [`StoreError`], never a panic or a wrong answer.
//!
//! ## Zero-copy loads
//!
//! [`load_borrowed`] maps the file read-only (falling back to a 16-aligned
//! heap read where mapping fails), runs the exact same checksum + digest
//! validation, then decodes with *borrowed* columns: every numeric table
//! of the resulting index — rank columns and the integer values included —
//! is a validated view into the mapping, kept alive
//! by a shared owner handle. A buffer that cannot support views (odd
//! alignment, big-endian host) silently falls back to the owned decode —
//! same artifact, same digest, just copied. Mutating a published snapshot
//! file in place while it is mapped is outside the protocol's contract
//! (the publish path only ever renames whole files).
//!
//! ## Publish protocol
//!
//! Writes go to a unique temp file in the destination directory, then:
//! write → `fsync(temp)` → `rename(temp, final)` → `fsync(dir)`. POSIX
//! rename atomicity guarantees a reader (or a post-crash recovery) sees
//! either the old complete file or the new complete file under the final
//! name — never a prefix. The `RAE_STORE_CRASH` environment variable aborts
//! the process at named points of this protocol (the crash harness drives
//! it from a parent process), and the `store/write` / `store/fsync` /
//! `store/torn` failpoints inject the corresponding I/O failures
//! deterministically.

use crate::artifact::{
    check_member_count, Artifact, ArtifactArchive, ArtifactKind, SectionData, Sections,
};
use crate::checksum::{fnv64, fnv64_fast, Fnv64};
use crate::error::{io_err, StoreError};
use crate::wire::{Reader, Writer};
use rae_core::{AlignedBytes, StableBytes};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The snapshot format version this build reads and writes. Bump on any
/// layout change; old versions are rebuilt from base data, not migrated.
/// v2: 32-byte header with alignment tag; 16-aligned section payloads
/// (zero-copy loadable); struct-of-arrays bucket tables. v3: every node's
/// startIndex is stored as built, compact `u64` or wide `u128` prefix sums.
/// v4: each index stores its sorted value table (an aligned `i64` column,
/// then the strings), and node rows are ranks into it. v5: section
/// payloads are checksummed by the eight-lane [`fnv64_fast`], and nodes no
/// longer store the per-row weight column (it is derived from startIndex).
pub const FORMAT_VERSION: u32 = 5;

/// File extension of live snapshot files (`recover_dir` scans for it).
pub const SNAPSHOT_EXT: &str = "rae";

/// Environment variable aborting the process at a named point of the
/// publish protocol (crash-injection harness). Values: `temp-created`,
/// `mid-write:<bytes>`, `after-write`, `after-fsync`, `after-rename`.
pub const CRASH_ENV: &str = "RAE_STORE_CRASH";

const MAGIC: &[u8; 8] = b"RAESTOR1";
const END_MAGIC: &[u8; 8] = b"RAEEND.1";
const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
const ALIGN_TAG: u32 = 16;
const HEADER_LEN: usize = 32;
const TRAILER_LEN: usize = 32;

/// Validated metadata of one snapshot file.
#[derive(Debug, Clone)]
pub struct SnapshotMeta {
    /// Format version found in the header.
    pub version: u32,
    /// What kind of index the file holds.
    pub kind: ArtifactKind,
    /// Writer-assigned epoch (the serve layer uses its publish epoch).
    pub epoch: u64,
    /// Free-form writer label (e.g. the query name).
    pub label: String,
    /// The process-independent identity of the artifact: FNV-1a 64 over
    /// each section's `(name, checksum)` pair in table order, where the
    /// per-section checksum is the eight-lane
    /// [`fnv64_fast`](crate::fnv64_fast) of its payload. Validating the
    /// sections therefore validates the digest in the same single pass.
    pub artifact_digest: u64,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Whether this load serves zero-copy views into the snapshot buffer
    /// (`true` only for a [`load_borrowed`] that did not fall back).
    pub borrowed: bool,
}

fn crash_point(point: &str) {
    if let Ok(v) = std::env::var(CRASH_ENV) {
        if v == point {
            std::process::abort();
        }
    }
}

/// The `mid-write:<n>` crash point: how many bytes to write before
/// aborting, if armed.
fn mid_write_budget() -> Option<usize> {
    let v = std::env::var(CRASH_ENV).ok()?;
    let n = v.strip_prefix("mid-write:")?;
    n.parse().ok()
}

/// Serializes the full file image (header + payload + footer + trailer)
/// of an artifact's sections and returns it with the artifact digest.
fn build_image(
    kind: ArtifactKind,
    sections: &[(String, Vec<u8>)],
    epoch: u64,
    label: &str,
) -> (Vec<u8>, u64) {
    let mut image = Vec::new();
    image.extend_from_slice(MAGIC);
    image.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    image.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
    image.extend_from_slice(&ALIGN_TAG.to_le_bytes());
    image.extend_from_slice(&0u32.to_le_bytes()); // reserved
    let header_sum = fnv64(&image[..24]);
    image.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(image.len(), HEADER_LEN);

    let mut digest = Fnv64::new();
    let mut table = Vec::with_capacity(sections.len());
    for (name, payload) in sections {
        let offset = image.len() as u64;
        // Padded payloads + 32-byte header keep every section payload —
        // and hence every array within one — 16-aligned in the file.
        debug_assert_eq!(offset % u64::from(ALIGN_TAG), 0, "section {name}");
        let sum = fnv64_fast(payload);
        digest.update(name.as_bytes());
        digest.update(&sum.to_le_bytes());
        table.push((name.clone(), offset, payload.len() as u64, sum));
        image.extend_from_slice(payload);
    }
    let artifact_digest = digest.finish();

    let mut footer = Writer::new();
    footer.put_u8(kind.tag());
    footer.put_u32(FORMAT_VERSION);
    footer.put_u64(epoch);
    footer.put_str(label);
    footer.put_u64(artifact_digest);
    footer.put_len(table.len());
    for (name, offset, len, sum) in &table {
        footer.put_str(name);
        footer.put_u64(*offset);
        footer.put_u64(*len);
        footer.put_u64(*sum);
    }
    let footer = footer.into_bytes();
    let footer_offset = image.len() as u64;
    let footer_sum = fnv64(&footer);
    image.extend_from_slice(&footer);

    image.extend_from_slice(&footer_offset.to_le_bytes());
    image.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    image.extend_from_slice(&footer_sum.to_le_bytes());
    image.extend_from_slice(END_MAGIC);

    (image, artifact_digest)
}

fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    // Directory fsync makes the rename itself durable. On platforms where
    // directories cannot be opened for sync this is best-effort.
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().map_err(io_err("fsync directory"))?;
    }
    Ok(())
}

/// Persists `artifact` at `path` crash-consistently and returns the
/// snapshot metadata (including the artifact digest).
///
/// The write is atomic-publish: a reader of `path` — concurrent or after a
/// crash at any point — sees either the previous complete file or the new
/// complete file, never a partial one. A union with no members or more
/// than 64 is refused with [`StoreError::Corrupt`] before anything is
/// written.
pub fn save(
    path: &Path,
    artifact: &ArtifactArchive,
    epoch: u64,
    label: &str,
) -> Result<SnapshotMeta, StoreError> {
    if let ArtifactArchive::OrderedUnion(members) = artifact {
        check_member_count(members.len())?;
    }
    let (image, artifact_digest) =
        build_image(artifact.kind(), &artifact.to_sections(), epoch, label);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());

    // Injected torn write: a seed-derived prefix lands under the FINAL
    // name (modelling a non-atomic in-place writer / lying disk), then the
    // save fails. Recovery must detect and quarantine the torn file.
    if rae_faults::eval_error("store/torn") {
        let seed = rae_faults::active_seed().unwrap_or(0);
        // SplitMix64 finalizer over the seed picks the truncation offset.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let cut = 1 + (z as usize) % (image.len() - 1);
        fs::write(path, &image[..cut]).map_err(io_err("torn write"))?;
        return Err(StoreError::FaultInjected { site: "store/torn" });
    }

    if rae_faults::eval_error("store/write") {
        return Err(StoreError::FaultInjected {
            site: "store/write",
        });
    }

    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));

    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(io_err("create temp"))?;
        crash_point("temp-created");
        if let Some(budget) = mid_write_budget() {
            let cut = budget.min(image.len());
            f.write_all(&image[..cut]).map_err(io_err("write temp"))?;
            std::process::abort();
        }
        f.write_all(&image).map_err(io_err("write temp"))?;
        crash_point("after-write");
        if rae_faults::eval_error("store/fsync") {
            return Err(StoreError::FaultInjected {
                site: "store/fsync",
            });
        }
        f.sync_all().map_err(io_err("fsync temp"))?;
        drop(f);
        crash_point("after-fsync");
        fs::rename(&tmp, path).map_err(io_err("rename into place"))?;
        crash_point("after-rename");
        if let Some(dir) = dir {
            fsync_dir(dir)?;
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the unique temp name makes a leftover inert.
        let _ = fs::remove_file(&tmp);
    }
    result?;

    Ok(SnapshotMeta {
        version: FORMAT_VERSION,
        kind: artifact.kind(),
        epoch,
        label: label.to_string(),
        artifact_digest,
        file_len: image.len() as u64,
        borrowed: false,
    })
}

/// Parsed-and-verified file: metadata plus the located section payloads as
/// `(offset, len)` regions of the file bytes (no copies — `verify` never
/// materializes payloads, and `load_archive` decodes straight from the
/// mapped regions).
struct VerifiedFile {
    meta: SnapshotMeta,
    sections: BTreeMap<String, (usize, usize)>,
}

fn corrupt(section: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        section: section.to_string(),
        detail: detail.into(),
    }
}

/// Reads and checksum-validates every layer of the file: trailer, header,
/// footer, every section, and the artifact digest. No decoding of section
/// contents happens here.
fn verify_bytes(bytes: &[u8]) -> Result<VerifiedFile, StoreError> {
    let len = bytes.len() as u64;
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(StoreError::TruncatedFile {
            expected: (HEADER_LEN + TRAILER_LEN) as u64,
            actual: len,
        });
    }
    // Header.
    if &bytes[..8] != MAGIC {
        return Err(corrupt("header", "bad magic"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let endian = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if endian != ENDIAN_TAG {
        return Err(corrupt("header", format!("endianness tag {endian:#010x}")));
    }
    let align = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    if align != ALIGN_TAG {
        return Err(corrupt(
            "header",
            format!("alignment tag {align}, expected {ALIGN_TAG}"),
        ));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[24..32]);
    if u64::from_le_bytes(sum) != fnv64(&bytes[..24]) {
        return Err(corrupt("header", "header checksum mismatch"));
    }
    // Trailer.
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    if &trailer[24..32] != END_MAGIC {
        // A crashed or torn write usually lands here: the file simply ends
        // early, so the bytes where the trailer should be are payload.
        return Err(StoreError::TruncatedFile {
            expected: len + TRAILER_LEN as u64,
            actual: len,
        });
    }
    let footer_offset = u64::from_le_bytes(
        trailer[..8]
            .try_into()
            .map_err(|_| corrupt("trailer", "short read"))?,
    );
    let footer_len = u64::from_le_bytes(
        trailer[8..16]
            .try_into()
            .map_err(|_| corrupt("trailer", "short read"))?,
    );
    let footer_sum = u64::from_le_bytes(
        trailer[16..24]
            .try_into()
            .map_err(|_| corrupt("trailer", "short read"))?,
    );
    let footer_end = footer_offset.checked_add(footer_len);
    let trailer_start = len - TRAILER_LEN as u64;
    if footer_offset < HEADER_LEN as u64 || footer_end.is_none_or(|e| e != trailer_start) {
        return Err(corrupt(
            "trailer",
            format!("footer region [{footer_offset}, +{footer_len}) out of bounds"),
        ));
    }
    let footer_bytes = &bytes[footer_offset as usize..(footer_offset + footer_len) as usize];
    if fnv64(footer_bytes) != footer_sum {
        return Err(corrupt("footer", "footer checksum mismatch"));
    }
    // Footer.
    let mut r = Reader::new("footer", footer_bytes);
    let kind = ArtifactKind::from_tag(r.get_u8()?)
        .ok_or_else(|| corrupt("footer", "unknown artifact kind tag"))?;
    let footer_version = r.get_u32()?;
    if footer_version != version {
        return Err(corrupt(
            "footer",
            format!("footer version {footer_version} disagrees with header {version}"),
        ));
    }
    let epoch = r.get_u64()?;
    let label = r.get_str()?.to_string();
    let artifact_digest = r.get_u64()?;
    let table_len = r.get_len(1)?;
    let mut digest = Fnv64::new();
    let mut sections = BTreeMap::new();
    for _ in 0..table_len {
        let name = r.get_str()?.to_string();
        let offset = r.get_u64()?;
        let sec_len = r.get_u64()?;
        let sec_sum = r.get_u64()?;
        let end = offset.checked_add(sec_len);
        if offset < HEADER_LEN as u64 || end.is_none_or(|e| e > footer_offset) {
            return Err(corrupt(
                &name,
                format!("section region [{offset}, +{sec_len}) out of bounds"),
            ));
        }
        let payload = &bytes[offset as usize..(offset + sec_len) as usize];
        if fnv64_fast(payload) != sec_sum {
            return Err(corrupt(&name, "section checksum mismatch"));
        }
        digest.update(name.as_bytes());
        digest.update(&sec_sum.to_le_bytes());
        if sections
            .insert(name.clone(), (offset as usize, sec_len as usize))
            .is_some()
        {
            return Err(corrupt(&name, "duplicate section name"));
        }
    }
    r.finish()?;
    let actual = digest.finish();
    if actual != artifact_digest {
        return Err(StoreError::DigestMismatch {
            expected: artifact_digest,
            actual,
        });
    }
    Ok(VerifiedFile {
        meta: SnapshotMeta {
            version,
            kind,
            epoch,
            label,
            artifact_digest,
            file_len: len,
            borrowed: false,
        },
        sections,
    })
}

fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    fs::read(path).map_err(io_err("read snapshot"))
}

/// Checksum-validates a snapshot file without decoding it: every section
/// checksum, the footer/trailer/header sums, and the artifact digest. The
/// checksum runs in place over the mapping [`load_borrowed`] uses (or its
/// aligned read where mapping fails).
pub fn verify(path: &Path) -> Result<SnapshotMeta, StoreError> {
    Ok(verify_bytes(map_or_read(path)?.stable_bytes())?.meta)
}

/// Builds the name → (payload, absolute offset) view over verified bytes.
/// `image_start` is where the file image begins inside the full owner
/// buffer (nonzero only for the deliberately misaligned test fixture).
fn section_map<'a>(verified: &VerifiedFile, bytes: &'a [u8], image_start: usize) -> Sections<'a> {
    verified
        .sections
        .iter()
        .map(|(name, &(offset, len))| {
            (
                name.clone(),
                SectionData {
                    bytes: &bytes[offset..offset + len],
                    abs: image_start + offset,
                },
            )
        })
        .collect()
}

/// Decodes verified bytes: with an `owner`, numeric columns are views
/// anchored in it (`image_start` is where `bytes` begins inside it), and a
/// buffer that cannot support views falls back to the owned decode;
/// without one, everything is copied out. `meta.borrowed` says which.
fn decode_verified(
    verified: VerifiedFile,
    bytes: &[u8],
    image_start: usize,
    owner: Option<&Arc<dyn StableBytes>>,
) -> Result<(ArtifactArchive, SnapshotMeta), StoreError> {
    let sections = section_map(&verified, bytes, image_start);
    let mut meta = verified.meta;
    if owner.is_some() {
        match ArtifactArchive::from_sections(meta.kind, &sections, owner) {
            Ok(archive) => {
                meta.borrowed = true;
                return Ok((archive, meta));
            }
            Err(StoreError::Unborrowable { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    let archive = ArtifactArchive::from_sections(meta.kind, &sections, None)?;
    Ok((archive, meta))
}

/// Loads a snapshot back to its archive form (checksums + decode, no
/// dictionary interning and no semantic re-validation yet).
pub fn load_archive(path: &Path) -> Result<(ArtifactArchive, SnapshotMeta), StoreError> {
    let bytes = read_file(path)?;
    let verified = verify_bytes(&bytes)?;
    decode_verified(verified, &bytes, 0, None)
}

/// Loads a snapshot all the way to a live, validated index: checksums,
/// decode, dictionary interning, and the full `from_archive` semantic
/// re-validation. This is the only function handing out a usable index.
pub fn load(path: &Path) -> Result<(Artifact, SnapshotMeta), StoreError> {
    let (archive, meta) = load_archive(path)?;
    Ok((archive.realize()?, meta))
}

/// Maps the file read-only where the platform supports it, else reads it
/// into a 16-aligned heap buffer (either way the buffer address is
/// alignment-compatible with the format's 16-byte discipline).
fn map_or_read(path: &Path) -> Result<Arc<dyn StableBytes>, StoreError> {
    // Mapping failures (empty file, exotic fs) degrade to a read — the
    // borrowed decode works identically over the aligned copy.
    #[cfg(unix)]
    if let Ok(m) = crate::map::MappedFile::open(path) {
        return Ok(Arc::new(m));
    }
    Ok(Arc::new(AlignedBytes::copy_from(&read_file(path)?)))
}

/// The borrowed archive load: verify, then decode with zero-copy columns
/// anchored in `owner`, falling back to the owned decode when the buffer
/// cannot support views. `meta.borrowed` reports which path was taken.
fn load_archive_from_owner(
    owner: Arc<dyn StableBytes>,
    image_start: usize,
) -> Result<(ArtifactArchive, SnapshotMeta), StoreError> {
    let all = owner.stable_bytes();
    let bytes = all.get(image_start..).ok_or(StoreError::TruncatedFile {
        expected: image_start as u64,
        actual: all.len() as u64,
    })?;
    let verified = verify_bytes(bytes)?;
    decode_verified(verified, bytes, image_start, Some(&owner))
}

/// [`load_archive`], zero-copy: the archive's numeric tables are views
/// into a read-only mapping of the file (kept alive by the archive
/// itself). Falls back to the owned decode — same artifact, same digest —
/// when views cannot be constructed; `meta.borrowed` says which happened.
pub fn load_archive_borrowed(path: &Path) -> Result<(ArtifactArchive, SnapshotMeta), StoreError> {
    load_archive_from_owner(map_or_read(path)?, 0)
}

/// [`load`], zero-copy: the validated live index serves counts, accesses,
/// rank descents, and samples straight from the mapped snapshot bytes.
/// Validation is identical to the owned path — every checksum, the
/// artifact digest, and the full `from_archive` semantic re-validation
/// run before any borrowed view escapes.
pub fn load_borrowed(path: &Path) -> Result<(Artifact, SnapshotMeta), StoreError> {
    let (archive, meta) = load_archive_borrowed(path)?;
    Ok((archive.realize()?, meta))
}

/// Test hook: loads through a deliberately misaligned in-memory copy (the
/// image starts `prefix` bytes into an aligned buffer), to prove the
/// misalignment fallback returns a correct owned index instead of UB.
#[doc(hidden)]
pub fn load_borrowed_at_offset(
    path: &Path,
    prefix: usize,
) -> Result<(Artifact, SnapshotMeta), StoreError> {
    let bytes = read_file(path)?;
    let owner: Arc<dyn StableBytes> = Arc::new(AlignedBytes::copy_from_at(prefix, &bytes));
    let (archive, meta) = load_archive_from_owner(owner, prefix)?;
    Ok((archive.realize()?, meta))
}

/// Moves a failed file aside as `<name>.corrupt` (numbered on collision)
/// in the same directory — quarantined for diagnosis, never deleted.
pub fn quarantine(path: &Path) -> Result<PathBuf, StoreError> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    let mut target = path.with_file_name(format!("{file_name}.corrupt"));
    let mut attempt = 1u32;
    while target.exists() {
        target = path.with_file_name(format!("{file_name}.corrupt.{attempt}"));
        attempt += 1;
    }
    fs::rename(path, &target).map_err(io_err("quarantine rename"))?;
    Ok(target)
}

/// Cold-start recovery: scans `dir` for `*.rae` snapshots, quarantines
/// every file that fails validation (renamed aside, never deleted), and
/// loads the newest valid one (highest epoch, file name as tie-break).
///
/// Each candidate is read and checksummed once; the winner is decoded from
/// the bytes that passed its checksums, so a cold start costs one pass
/// over the winning file (see [`recover_dir_with`]).
///
/// Returns [`StoreError::NoSnapshot`] — listing the quarantined files —
/// when nothing loadable remains.
pub fn recover_dir(dir: &Path) -> Result<(PathBuf, Artifact, SnapshotMeta), StoreError> {
    recover_dir_with(dir, false)
}

/// A candidate's bytes, read once by [`recover_dir_with`]: a read-only
/// mapping (or 16-aligned copy) for the zero-copy path, a plain read for
/// the owned one.
enum Buffer {
    Owned(Vec<u8>),
    Shared(Arc<dyn StableBytes>),
}

impl Buffer {
    fn read(path: &Path, borrowed: bool) -> Result<Buffer, StoreError> {
        Ok(if borrowed {
            Buffer::Shared(map_or_read(path)?)
        } else {
            Buffer::Owned(read_file(path)?)
        })
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Buffer::Owned(bytes) => bytes,
            Buffer::Shared(owner) => owner.stable_bytes(),
        }
    }

    /// Decodes and realizes the index from these bytes, which `verified`
    /// was computed over.
    fn realize(self, verified: VerifiedFile) -> Result<(Artifact, SnapshotMeta), StoreError> {
        let (archive, meta) = match &self {
            Buffer::Owned(bytes) => decode_verified(verified, bytes, 0, None)?,
            Buffer::Shared(owner) => {
                decode_verified(verified, owner.stable_bytes(), 0, Some(owner))?
            }
        };
        Ok((archive.realize()?, meta))
    }
}

/// [`recover_dir`] with a choice of load path: `prefer_borrowed` loads
/// the winning snapshot zero-copy (falling back to owned on buffers that
/// cannot support views). Validation and quarantine behavior are
/// identical either way.
///
/// The scan maps (borrowed) or reads (owned) each candidate once and
/// checks every checksum and the digest on those bytes. It keeps only the
/// newest verified buffer, so at most two buffers are live at once, and
/// the winner is decoded and realized from that buffer without reading or
/// checksumming the file again. If the winner then fails to decode or
/// realize, it is quarantined and the next candidate goes through the full
/// [`load`] / [`load_borrowed`].
pub fn recover_dir_with(
    dir: &Path,
    prefer_borrowed: bool,
) -> Result<(PathBuf, Artifact, SnapshotMeta), StoreError> {
    let entries = fs::read_dir(dir).map_err(io_err("read snapshot directory"))?;
    let mut quarantined = Vec::new();
    // A file that failed validation is moved aside; an I/O error
    // (unreadable now ≠ corrupt) leaves it alone.
    let mut reject = |path: PathBuf, err: StoreError| {
        if !matches!(err, StoreError::Io { .. }) {
            quarantined.push(quarantine(&path).unwrap_or(path));
        }
    };
    // The newest verified candidate with the bytes it was verified from,
    // and the keys of every other verified candidate.
    let mut best: Option<((u64, PathBuf), Buffer, VerifiedFile)> = None;
    let mut others: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_err("read snapshot directory"))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXT) {
            continue;
        }
        let checked = Buffer::read(&path, prefer_borrowed)
            .and_then(|buf| verify_bytes(buf.bytes()).map(|verified| (buf, verified)));
        match checked {
            Ok((buf, verified)) => {
                let key = (verified.meta.epoch, path);
                match &best {
                    Some((best_key, ..)) if *best_key > key => others.push(key),
                    _ => others.extend(best.replace((key, buf, verified)).map(|(k, ..)| k)),
                }
            }
            Err(e) => reject(path, e),
        }
    }
    if let Some(((_, path), buf, verified)) = best {
        match buf.realize(verified) {
            Ok((artifact, meta)) => return Ok((path, artifact, meta)),
            Err(e) => reject(path, e),
        }
    }
    // Rare path: the newest verified file did not decode or realize.
    // Newest first.
    others.sort_by(|a, b| b.cmp(a));
    for (_, path) in others {
        let loaded = if prefer_borrowed {
            load_borrowed(&path)
        } else {
            load(&path)
        };
        match loaded {
            Ok((artifact, meta)) => return Ok((path, artifact, meta)),
            Err(e) => reject(path, e),
        }
    }
    Err(StoreError::NoSnapshot {
        dir: dir.to_path_buf(),
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_core::{OrderedCqIndex, OrderedCqIndexArchive, RankedUcq, Weight};
    use rae_data::{Database, Relation, Schema, Symbol, Value};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_file(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rae-store-format-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.{SNAPSHOT_EXT}"))
    }

    /// Ordered archives of `Q(x, y) :- Rel(x, y)` under ORDER BY y, x, one
    /// per row list, each over its own relation.
    fn member_archives(members: &[&[(i64, i64)]]) -> Vec<OrderedCqIndexArchive> {
        let order = [Symbol::new("y"), Symbol::new("x")];
        members
            .iter()
            .enumerate()
            .map(|(i, rows)| {
                let mut db = Database::new();
                let rel = Relation::from_rows(
                    Schema::new(["a", "b"]).unwrap(),
                    rows.iter()
                        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
                )
                .unwrap();
                db.add_relation(format!("R{i}"), rel).unwrap();
                let cq = format!("Q(x, y) :- R{i}(x, y)").parse().unwrap();
                OrderedCqIndex::build(&cq, &db, &order)
                    .unwrap()
                    .to_archive()
            })
            .collect()
    }

    fn union_section(m: u32, head: &[Symbol]) -> (String, Vec<u8>) {
        let mut w = Writer::new();
        w.put_u32(m);
        w.put_symbols(head);
        w.pad_to_16();
        ("union".to_string(), w.into_bytes())
    }

    /// Writes `sections` as an ordered-union snapshot and loads it through
    /// both decode paths.
    fn load_both(tag: &str, sections: &[(String, Vec<u8>)]) -> [Result<Artifact, StoreError>; 2] {
        let path = scratch_file(tag);
        let (image, _) = build_image(ArtifactKind::OrderedUnion, sections, 1, tag);
        fs::write(&path, image).unwrap();
        let out = [
            load(&path).map(|(a, _)| a),
            load_borrowed(&path).map(|(a, _)| a),
        ];
        fs::remove_dir_all(path.parent().unwrap()).ok();
        out
    }

    fn assert_union_refused(result: &Result<Artifact, StoreError>, needle: &str) {
        match result {
            Err(StoreError::Corrupt { section, detail }) => {
                assert_eq!(section, "union");
                assert!(detail.contains(needle), "unexpected detail: {detail}");
            }
            other => panic!("expected a refused union section, got {other:?}"),
        }
    }

    #[test]
    fn zero_member_union_is_refused() {
        let members = member_archives(&[&[(1, 1)]]);
        let mut sections = ArtifactArchive::OrderedUnion(members.clone()).to_sections();
        sections[0] = union_section(0, &members[0].index.head);
        for result in load_both("zero", &sections) {
            assert_union_refused(&result, "implausible member count 0");
        }
        // Nothing to save either.
        let path = scratch_file("zero-save");
        assert!(matches!(
            save(&path, &ArtifactArchive::OrderedUnion(Vec::new()), 1, "zero"),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(!path.exists());
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn implausible_member_count_is_refused() {
        let members = member_archives(&[&[(1, 1)], &[(2, 2)]]);
        let head = members[0].index.head.clone();
        let mut sections = ArtifactArchive::OrderedUnion(members.clone()).to_sections();
        for m in [3, 65, u32::MAX] {
            sections[0] = union_section(m, &head);
            let [owned, borrowed] = load_both("implausible", &sections);
            if m == 3 {
                // Plausible, but member 2's sections are not in the file.
                for result in [owned, borrowed] {
                    assert!(matches!(
                        result,
                        Err(StoreError::Corrupt { section, .. }) if section == "m4/plan"
                    ));
                }
            } else {
                assert_union_refused(&owned, "implausible member count");
                assert_union_refused(&borrowed, "implausible member count");
            }
        }
        // The writer refuses a union the reader would refuse.
        let path = scratch_file("implausible-save");
        let too_many = ArtifactArchive::OrderedUnion(vec![members[0].clone(); 65]);
        match save(&path, &too_many, 1, "too-many") {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("implausible member count 65"), "{detail}");
            }
            other => panic!("expected a refused save, got {other:?}"),
        }
        assert!(!path.exists());
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn union_head_differing_from_the_members_is_refused() {
        let members = member_archives(&[&[(1, 1)], &[(2, 2)]]);
        let mut sections = ArtifactArchive::OrderedUnion(members).to_sections();
        sections[0] = union_section(2, &[Symbol::new("y"), Symbol::new("x")]);
        for result in load_both("head", &sections) {
            assert_union_refused(&result, "head");
        }
    }

    /// A file in the layout this kind used to have — every non-empty member
    /// subset under its mask — loads as the union of its singleton members
    /// `m1/`, `m2/`, `m4/`; the subset indexes are never read.
    #[test]
    fn old_subset_layout_loads_as_the_union_of_its_members() {
        let rows: [&[(i64, i64)]; 3] = [
            &[(1, 1), (2, 1), (3, 2)],
            &[(2, 1), (4, 2), (5, 1)],
            &[(1, 1), (4, 2), (6, 3)],
        ];
        let members = member_archives(&rows);
        let expected = RankedUcq::from_archive(members.clone()).unwrap();
        let sections = ArtifactArchive::OrderedUnion(members).to_sections();
        let mut old = sections.clone();
        // The subset masks 3, 5, 6 and 7 held intersection indexes; any
        // valid ordered archive stands in for them.
        let filler = &member_archives(&[&[(9, 9)]])[0];
        for mask in [3, 5, 6, 7] {
            crate::artifact::encode_ordered(&format!("m{mask}/"), filler, &mut old);
        }
        for result in load_both("old-layout", &old) {
            let Ok(Artifact::OrderedUnion(union)) = result else {
                panic!("old layout did not load as a union: {result:?}");
            };
            assert_eq!(union.count(), expected.count());
            assert_eq!(union.count(), 6);
            for k in 0..expected.count() {
                let answer = expected.ordered_access(k).unwrap();
                assert_eq!(union.ordered_access(k).as_ref(), Some(&answer), "rank {k}");
                assert_eq!(union.ordered_inverted_access(&answer), Some(k as Weight));
            }
            // Re-archiving drops the subset sections: the new layout.
            let digest = crate::digest_of(&ArtifactArchive::OrderedUnion(union.to_archive()));
            assert_eq!(
                digest,
                crate::digest_of(&ArtifactArchive::OrderedUnion(expected.to_archive()))
            );
        }
    }
}
