//! Owned-or-borrowed numeric columns (DESIGN.md §16).
//!
//! Every per-row artifact table of an index — flat `u32` reference
//! columns, `u128` weights, startIndex prefix sums, bucket tables,
//! child-bucket links — is stored as a [`Col<T>`]: either an owned `Vec<T>`
//! (fresh builds, owned snapshot decodes) or a *borrowed view* into a
//! shared immutable byte buffer (a validated snapshot file). Borrowed
//! columns are what make zero-copy snapshot serving possible: `rae-store`'s
//! `load_borrowed` maps the file once and hands out `Col`s pointing
//! straight into it, so N serving processes share one read-only artifact
//! with near-zero decode cost.
//!
//! The design deliberately avoids lifetime parameters: a borrowed column
//! carries an `Arc` to its byte owner, so an index served from a snapshot
//! is an ordinary `'static` value — `rae-serve` publishes it through the
//! same `Arc<Snapshot>` slots as a freshly built one.
//!
//! ## Safety contract
//!
//! A borrowed view reinterprets raw little-endian file bytes as `&[T]`.
//! That is sound only under conditions [`Col::borrowed`] checks up front
//! and refuses (with a structured [`ColumnError`], never UB) otherwise:
//!
//! * **Pod element types.** `T` is one of `u32`/`u64`/`u128`/`i64` (the sealed
//!   [`Pod`] trait): every bit pattern is a valid value, so no byte
//!   sequence can construct an invalid `T`.
//! * **Alignment.** The absolute address of the first element must be a
//!   multiple of `align_of::<T>()`. The v2 snapshot format 16-aligns every
//!   array, but a foreign or hand-truncated file (or a buffer copied to an
//!   odd offset) fails this check and the loader falls back to an owned
//!   decode.
//! * **Endianness.** On-disk integers are little-endian; on a big-endian
//!   host reinterpretation would be wrong, so construction is refused at
//!   runtime (`cfg!(target_endian)`) and the loader falls back.
//! * **Stability.** The owner implements [`StableBytes`], an `unsafe`
//!   trait promising the bytes never move and never mutate for the
//!   owner's lifetime; the `Arc` keeps the owner alive as long as any
//!   view exists.

use std::fmt;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for u128 {}
    impl Sealed for i64 {}
}

/// Plain-old-data element types a [`Col`] may borrow from raw bytes:
/// fixed-width integers where every bit pattern is valid.
/// Sealed — the zero-copy safety argument is per-type, not structural.
pub trait Pod: Copy + Send + Sync + PartialEq + Eq + fmt::Debug + sealed::Sealed + 'static {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for u128 {}
impl Pod for i64 {}

/// An immutable, address-stable byte buffer borrowed columns can point
/// into.
///
/// # Safety
///
/// Implementors promise that the slice returned by
/// [`StableBytes::stable_bytes`] has a stable address and stable contents
/// for the implementor's entire lifetime (no reallocation, no interior
/// mutation, no in-place file truncation for mapped files). [`Col`] caches
/// raw pointers into this slice and dereferences them for as long as the
/// owning `Arc` lives.
pub unsafe trait StableBytes: Send + Sync + 'static {
    /// The stable byte contents.
    fn stable_bytes(&self) -> &[u8];
}

/// A heap byte buffer whose base address is 16-byte aligned (the widest
/// element alignment in a snapshot, `u128`), backed by a boxed `u128`
/// allocation. The portable fallback owner when a file cannot be mapped,
/// and the buffer the misalignment tests build odd-offset copies in.
pub struct AlignedBytes {
    words: Box<[u128]>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 16-aligned allocation.
    pub fn copy_from(bytes: &[u8]) -> Self {
        Self::copy_from_at(0, bytes)
    }

    /// Copies `bytes` into a fresh allocation at byte offset `prefix`
    /// (zero-filled before it). The buffer base stays 16-aligned, so an
    /// odd `prefix` makes every wide array inside `bytes` deliberately
    /// misaligned — the fixture for the fallback-not-UB tests.
    pub fn copy_from_at(prefix: usize, bytes: &[u8]) -> Self {
        let len = prefix + bytes.len();
        let words = vec![0u128; len.div_ceil(16)].into_boxed_slice();
        let mut out = AlignedBytes { words, len };
        // Sound: the u128 allocation is at least `len` bytes and uniquely
        // owned here.
        unsafe {
            let dst = out.words.as_mut_ptr().cast::<u8>().add(prefix);
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len());
        }
        out
    }

    /// The buffer contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // Sound: the u128 allocation holds at least `len` initialized
        // bytes (zero-filled then overwritten).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBytes({} bytes)", self.len)
    }
}

// Safety: the backing allocation is boxed (never reallocated) and the
// struct exposes no mutation after construction.
unsafe impl StableBytes for AlignedBytes {
    fn stable_bytes(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Why a borrowed view could not be constructed. Never UB — the loader
/// maps these to a fallback onto the owned decode path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnError {
    /// The array's absolute address is not a multiple of the element
    /// alignment (e.g. a snapshot image copied to an odd offset).
    Misaligned {
        /// Absolute address modulo the required alignment.
        remainder: usize,
        /// Required element alignment.
        align: usize,
    },
    /// The requested region does not fit inside the owner's bytes.
    OutOfBounds {
        /// Requested end offset (saturated).
        end: usize,
        /// Owner byte length.
        len: usize,
    },
    /// The host is big-endian; little-endian file bytes cannot be
    /// reinterpreted in place.
    ForeignEndian,
}

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnError::Misaligned { remainder, align } => {
                write!(f, "array misaligned by {remainder} bytes (need {align})")
            }
            ColumnError::OutOfBounds { end, len } => {
                write!(f, "array region ends at {end} beyond the {len}-byte buffer")
            }
            ColumnError::ForeignEndian => f.write_str("big-endian host cannot borrow LE bytes"),
        }
    }
}

impl std::error::Error for ColumnError {}

/// A borrowed view over `len` little-endian `T`s inside a shared byte
/// owner. Construction (via [`Col::borrowed`]) validated bounds,
/// alignment, and host endianness; the `Arc` keeps the bytes alive.
pub struct BorrowedCol<T: Pod> {
    owner: Arc<dyn StableBytes>,
    ptr: *const T,
    len: usize,
}

// Safety: the view is read-only over immutable shared bytes whose owner
// is itself Send + Sync; the raw pointer is derived from (and outlived
// by) the Arc'd owner.
unsafe impl<T: Pod> Send for BorrowedCol<T> {}
unsafe impl<T: Pod> Sync for BorrowedCol<T> {}

impl<T: Pod> Clone for BorrowedCol<T> {
    fn clone(&self) -> Self {
        BorrowedCol {
            owner: Arc::clone(&self.owner),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

/// An owned-or-borrowed numeric column. Owned for fresh builds and owned
/// snapshot decodes; borrowed for zero-copy snapshot serving. All read
/// paths go through [`Col::as_slice`] (also available via `Deref`), which
/// allocates nothing in either representation.
#[derive(Clone)]
pub enum Col<T: Pod> {
    /// Heap-owned storage.
    Owned(Vec<T>),
    /// A validated zero-copy view into a shared snapshot buffer.
    Borrowed(BorrowedCol<T>),
}

impl<T: Pod> Col<T> {
    /// A validated zero-copy view of `len` elements starting `offset`
    /// bytes into `owner`'s stable bytes. Refuses (structured error,
    /// never UB) on misalignment, out-of-bounds regions, or a big-endian
    /// host — see the module-level safety contract.
    pub fn borrowed(
        owner: Arc<dyn StableBytes>,
        offset: usize,
        len: usize,
    ) -> Result<Self, ColumnError> {
        if cfg!(target_endian = "big") {
            return Err(ColumnError::ForeignEndian);
        }
        let bytes = owner.stable_bytes();
        let width = std::mem::size_of::<T>();
        let end = len
            .checked_mul(width)
            .and_then(|b| offset.checked_add(b))
            .ok_or(ColumnError::OutOfBounds {
                end: usize::MAX,
                len: bytes.len(),
            })?;
        if end > bytes.len() {
            return Err(ColumnError::OutOfBounds {
                end,
                len: bytes.len(),
            });
        }
        let ptr = unsafe { bytes.as_ptr().add(offset) };
        let align = std::mem::align_of::<T>();
        let remainder = (ptr as usize) % align;
        if remainder != 0 {
            return Err(ColumnError::Misaligned { remainder, align });
        }
        Ok(Col::Borrowed(BorrowedCol {
            ptr: ptr.cast(),
            len,
            owner,
        }))
    }

    /// The elements as a slice — zero-allocation for both representations.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Col::Owned(v) => v,
            // Sound: construction checked bounds + alignment, T is Pod
            // (every bit pattern valid), the host is little-endian, and
            // the Arc'd owner guarantees address/content stability.
            Col::Borrowed(b) => unsafe { std::slice::from_raw_parts(b.ptr, b.len) },
        }
    }

    /// Whether this column is a zero-copy view into a snapshot buffer.
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        matches!(self, Col::Borrowed(_))
    }

    /// Mutable access to the elements, copying a borrowed view into
    /// owned storage first (`Cow::to_mut` semantics — the snapshot bytes
    /// themselves are immutable).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if self.is_borrowed() {
            *self = Col::Owned(self.as_slice().to_vec());
        }
        match self {
            Col::Owned(v) => v,
            Col::Borrowed(_) => unreachable!("converted to owned above"),
        }
    }
}

impl<T: Pod> std::ops::Deref for Col<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Col<T> {
    fn from(v: Vec<T>) -> Self {
        Col::Owned(v)
    }
}

impl<T: Pod> Default for Col<T> {
    fn default() -> Self {
        Col::Owned(Vec::new())
    }
}

impl<T: Pod> fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_borrowed() {
            "Col::Borrowed"
        } else {
            "Col::Owned"
        };
        write!(f, "{tag}({} elems)", self.len())
    }
}

/// Equality is element equality: an owned column and a borrowed view of
/// the same values are the same column (round-trip tests rely on this).
impl<T: Pod> PartialEq for Col<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> Eq for Col<T> {}

/// The raw little-endian bytes of a pod slice (little-endian hosts only —
/// there the in-memory representation *is* the wire representation). The
/// store's bulk section encoder uses this to emit whole arrays with one
/// `extend_from_slice` instead of a per-element loop.
#[cfg(target_endian = "little")]
pub fn pod_bytes<T: Pod>(v: &[T]) -> &[u8] {
    // Sound: T is Pod (no padding bytes in u32/u64/u128/i64), and on a
    // little-endian host the memory bytes equal the wire bytes.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Materializes an owned `Vec<T>` from little-endian bytes. `bytes.len()`
/// must be a multiple of `size_of::<T>()` (caller-checked). Single
/// `memcpy` on little-endian hosts, per-element conversion elsewhere.
pub fn pod_vec_from_bytes<T: Pod + FromLeBytes>(bytes: &[u8]) -> Vec<T> {
    let width = std::mem::size_of::<T>();
    debug_assert_eq!(bytes.len() % width, 0);
    let n = bytes.len() / width;
    #[cfg(target_endian = "little")]
    {
        let mut v: Vec<T> = Vec::with_capacity(n);
        // Sound: the copy fills exactly the `n` elements reserved above
        // and T is Pod, so any byte content is a valid initialization.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), v.as_mut_ptr().cast::<u8>(), bytes.len());
            v.set_len(n);
        }
        v
    }
    #[cfg(target_endian = "big")]
    {
        (0..n)
            .map(|i| T::from_le_slice(&bytes[i * width..(i + 1) * width]))
            .collect()
    }
}

/// Per-type little-endian decoding (the big-endian fallback of
/// [`pod_vec_from_bytes`]).
pub trait FromLeBytes: Sized {
    /// Decodes one element from exactly `size_of::<Self>()` bytes.
    fn from_le_slice(bytes: &[u8]) -> Self;
}

macro_rules! impl_from_le {
    ($($t:ty),*) => {$(
        impl FromLeBytes for $t {
            fn from_le_slice(bytes: &[u8]) -> Self {
                let mut a = [0u8; std::mem::size_of::<$t>()];
                a.copy_from_slice(bytes);
                <$t>::from_le_bytes(a)
            }
        }
    )*};
}
impl_from_le!(u32, u64, u128, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_base_is_16_aligned() {
        let b = AlignedBytes::copy_from(&[1, 2, 3, 4, 5]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(b.as_slice().as_ptr() as usize % 16, 0);
    }

    #[test]
    fn borrowed_round_trips_values() {
        let vals: Vec<u64> = (0..9u64).map(|i| i * 1_000_000_007).collect();
        let owner = Arc::new(AlignedBytes::copy_from(pod_bytes(&vals)));
        let col: Col<u64> = Col::borrowed(owner, 0, vals.len()).unwrap();
        assert!(col.is_borrowed());
        assert_eq!(col.as_slice(), vals.as_slice());
        assert_eq!(col, Col::Owned(vals));
    }

    #[test]
    fn misaligned_offset_is_refused_not_ub() {
        let vals: Vec<u32> = vec![7, 8, 9];
        let owner: Arc<dyn StableBytes> = Arc::new(AlignedBytes::copy_from_at(1, pod_bytes(&vals)));
        assert!(matches!(
            Col::<u32>::borrowed(Arc::clone(&owner), 1, 3),
            Err(ColumnError::Misaligned { .. })
        ));
        // Out of bounds is a separate refusal.
        assert!(matches!(
            Col::<u32>::borrowed(owner, 0, 1000),
            Err(ColumnError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn pod_vec_round_trips() {
        let vals: Vec<u128> = vec![0, 1, u128::MAX / 5];
        let bytes = pod_bytes(&vals);
        assert_eq!(pod_vec_from_bytes::<u128>(bytes), vals);
    }
}
