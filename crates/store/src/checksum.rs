//! FNV-1a 64 — the workspace's checksum (same algorithm the failpoint
//! registry uses for site hashing) — in two forms: byte-wise [`fnv64`] for
//! the snapshot header, footer and artifact digest, and the eight-lane
//! word fold [`fnv64_fast`] for section payloads, which runs one pass at
//! memory speed. Not cryptographic: it defends against torn writes,
//! truncation, and bit rot, not an adversary.

/// FNV-1a 64 offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME: u64 = 0x100_0000_01b3;

/// A streaming FNV-1a 64 hasher over byte slices.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Starts a fresh hash at the offset basis.
    pub fn new() -> Self {
        Fnv64 { state: OFFSET }
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = step(self.state, u64::from(b));
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Independent accumulators of [`fnv64_fast`]: one per 8-byte word of a
/// 64-byte block.
const LANES: usize = 8;

/// The FNV-1a 64 step on one word. For a fixed word it is a bijection of
/// the state (xor, then a multiply by an odd prime), and for a fixed
/// state a bijection of the word.
#[inline(always)]
fn step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(PRIME)
}

/// The little-endian word at `bytes[at..at + 8]`.
#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Eight-lane word-folded FNV-1a 64: the checksum of **section payloads**
/// in the snapshot format (small fixed-size regions keep the canonical
/// byte-wise [`fnv64`]; the two are not byte-compatible).
///
/// Lane `i` starts at `(OFFSET ^ len ^ i) * PRIME` and folds word `i`
/// (8 bytes, little-endian) of every whole 64-byte block through the
/// [`fnv64`] xor-multiply step. Lanes 1–7 then fold, in order, into lane
/// 0 through the same step, and the tail's words (the last one
/// zero-padded) fold into that state. The eight chains are independent,
/// so the pass runs at memory speed rather than at the latency of one
/// serial multiply per word.
///
/// Every single-bit flip still changes the hash: a flipped block word
/// changes its lane (each step is a bijection of the state for a fixed
/// word, and of the word for a fixed state), a changed lane changes the
/// folded state, and every later step is again a bijection of the state;
/// a flipped tail word changes the state directly. The length in every
/// lane's seed separates payloads that differ only by zero-padding of the
/// tail word.
pub fn fnv64_fast(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut lanes: [u64; LANES] =
        std::array::from_fn(|i| (OFFSET ^ len ^ i as u64).wrapping_mul(PRIME));
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(block, 8 * i));
        }
    }
    let mut state = lanes[1..].iter().fold(lanes[0], |s, &lane| step(s, lane));
    let mut tail = blocks.remainder().chunks_exact(8);
    for w in &mut tail {
        state = step(state, word(w, 0));
    }
    let rem = tail.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        state = step(state, u64::from_le_bytes(w));
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    /// A payload of `len` bytes with no repeated structure at lane width.
    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn single_bit_flips_change_the_hash() {
        let base = b"the quick brown fox".to_vec();
        let h0 = fnv64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv64(&flipped), h0, "flip at byte {i} bit {bit}");
            }
        }
        // Every tail length on both sides of a 64-byte block, and two
        // whole blocks.
        for len in 0..=130 {
            let base = payload(len);
            let f0 = fnv64_fast(&base);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = base.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(
                        fnv64_fast(&flipped),
                        f0,
                        "fast flip at len {len} byte {i} bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_variant_separates_zero_padded_tails() {
        // Same padded tail word, different lengths: the length fold keeps
        // the hashes apart.
        assert_ne!(fnv64_fast(&[1]), fnv64_fast(&[1, 0]));
        assert_ne!(fnv64_fast(&[]), fnv64_fast(&[0; 8]));
        assert_ne!(fnv64_fast(&[0; 8]), fnv64_fast(&[0; 16]));
    }

    #[test]
    fn fast_variant_known_answers() {
        // Pinned from an independent implementation of the lane fold over
        // `payload(len)`: a change to the fold or its seeds fails here.
        let expected: [(usize, u64); 8] = [
            (0, 0x3f4d_49f3_c532_35f2),
            (1, 0x032a_e5fa_a7ee_9f55),
            (8, 0x6968_4917_4185_5d5f),
            (63, 0x6f27_cfb3_3e24_94bc),
            (64, 0x6a6b_030b_7774_e1a0),
            (65, 0xd20a_c572_dad3_691f),
            (128, 0xde3b_6e42_587c_9312),
            (1000, 0x36cf_f4f3_047c_3945),
        ];
        for (len, sum) in expected {
            assert_eq!(fnv64_fast(&payload(len)), sum, "length {len}");
        }
    }

    #[test]
    fn fast_variant_matches_a_lane_reference() {
        // Independent re-derivation: eight lanes seeded with the length
        // and their index, word `i` of each block into lane `i`, the lanes
        // folded in order into lane 0, then the zero-padded tail words.
        let fold = |s: u64, w: u64| (s ^ w).wrapping_mul(0x100_0000_01b3);
        for len in [0usize, 7, 64, 71, 200, 1000] {
            let bytes = payload(len);
            let mut lanes: Vec<u64> = (0..8u64)
                .map(|i| (0xcbf2_9ce4_8422_2325u64 ^ len as u64 ^ i).wrapping_mul(0x100_0000_01b3))
                .collect();
            let whole = len / 64 * 64;
            for (k, chunk) in bytes[..whole].chunks(8).enumerate() {
                let w = u64::from_le_bytes(chunk.try_into().unwrap());
                lanes[k % 8] = fold(lanes[k % 8], w);
            }
            let mut state = lanes[0];
            for &lane in &lanes[1..] {
                state = fold(state, lane);
            }
            for chunk in bytes[whole..].chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                state = fold(state, u64::from_le_bytes(w));
            }
            assert_eq!(fnv64_fast(&bytes), state, "length {len}");
        }
    }

    #[test]
    fn swapping_words_of_different_lanes_changes_the_hash() {
        let base = payload(128);
        let f0 = fnv64_fast(&base);
        // Words 1 and 6 of block 0 (lanes 1 and 6), word 0 of block 0
        // against word 3 of block 1 (lanes 0 and 3).
        for (a, b) in [(1usize, 6usize), (0, 11)] {
            let mut swapped = base.clone();
            for k in 0..8 {
                swapped.swap(8 * a + k, 8 * b + k);
            }
            assert_ne!(swapped, base);
            assert_ne!(fnv64_fast(&swapped), f0, "words {a} and {b}");
        }
    }
}
