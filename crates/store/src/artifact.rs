//! Artifact ⇄ section codec. An artifact (one built index in archive form)
//! encodes to a deterministic ordered list of named sections — flat `u32`
//! reference columns, startIndex prefix sums exactly as the build laid
//! them out (compact `u64`, or wide `u128` when a start overflows `u64`),
//! struct-of-arrays bucket tables, and the deduplicated value table — and
//! the `artifact_digest` is the FNV-1a 64 over the concatenated section
//! payloads in that order. The encoding references the archive's own
//! value table (never process-local dictionary codes), so the digest of a
//! logical index is identical across processes: the crash harness
//! compares digests computed in different processes to prove recovery
//! exactness.
//!
//! Every numeric array sits on a 16-byte payload boundary (zero padding
//! inside the checksummed payload), which is what lets
//! [`ArtifactArchive::from_sections`] decode in *borrowed* mode: columns
//! become validated zero-copy [`rae_core::Col`] views straight into the
//! snapshot buffer instead of owned copies. Owned and borrowed decodes
//! run the same code and differ only in where a column's bytes live, so
//! `save(load(x))` digests to `digest(x)` whichever path loaded it.

use crate::error::StoreError;
use crate::wire::{ColSource, Reader, Writer};
use rae_core::{
    Buckets, Col, CqIndex, CqIndexArchive, NodeArchive, OrderedCqIndex, OrderedCqIndexArchive,
    RankedUcq, StableBytes, Starts, ValueTable,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// startIndex layout tags on the wire.
const STARTS_COMPACT: u8 = 0;
const STARTS_WIDE: u8 = 1;

/// The most members an ordered-union snapshot holds. Member `i`'s sections
/// are named by its singleton mask `1 << i` (`m1/`, `m2/`, `m4/`, …): the
/// mc-UCQ layout this kind used to store kept every non-empty member
/// subset under its mask, so such a file still reads as the union of its
/// singleton members.
const MAX_UNION_MEMBERS: usize = 64;

fn member_prefix(i: usize) -> String {
    format!("m{}/", 1u64 << i)
}

/// Refuses a union member count no snapshot can hold.
pub(crate) fn check_member_count(m: usize) -> Result<(), StoreError> {
    if m == 0 || m > MAX_UNION_MEMBERS {
        return Err(StoreError::Corrupt {
            section: "union".to_string(),
            detail: format!("implausible member count {m} (1..={MAX_UNION_MEMBERS})"),
        });
    }
    Ok(())
}

/// What kind of index a snapshot holds (the footer's kind tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A plain [`CqIndex`] (Theorem 4.3 layout).
    Cq,
    /// An [`OrderedCqIndex`] (lex-ordered layout).
    Ordered,
    /// A [`RankedUcq`] (its m ordered members).
    OrderedUnion,
}

impl ArtifactKind {
    pub(crate) fn tag(self) -> u8 {
        match self {
            ArtifactKind::Cq => 1,
            ArtifactKind::Ordered => 2,
            ArtifactKind::OrderedUnion => 3,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(ArtifactKind::Cq),
            2 => Some(ArtifactKind::Ordered),
            3 => Some(ArtifactKind::OrderedUnion),
            _ => None,
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArtifactKind::Cq => "cq",
            ArtifactKind::Ordered => "ordered",
            ArtifactKind::OrderedUnion => "ordered-union",
        })
    }
}

/// The archived (process-independent) form of one persistable index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactArchive {
    /// A plain CQ index archive.
    Cq(CqIndexArchive),
    /// An ordered CQ index archive.
    Ordered(OrderedCqIndexArchive),
    /// An ordered union archive: one ordered archive per member
    /// ([`RankedUcq::to_archive`]).
    OrderedUnion(Vec<OrderedCqIndexArchive>),
}

/// A live, validated index reconstructed from a snapshot.
#[derive(Debug)]
pub enum Artifact {
    /// A plain CQ index.
    Cq(CqIndex),
    /// An ordered CQ index.
    Ordered(OrderedCqIndex),
    /// An ordered union of free-connex CQs.
    OrderedUnion(RankedUcq),
}

/// One named section: its payload bytes plus the payload's absolute
/// offset within the snapshot buffer (what anchors borrowed views).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectionData<'a> {
    pub bytes: &'a [u8],
    pub abs: usize,
}

pub(crate) type Sections<'a> = BTreeMap<String, SectionData<'a>>;

impl ArtifactArchive {
    /// The kind tag this archive serializes under.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            ArtifactArchive::Cq(_) => ArtifactKind::Cq,
            ArtifactArchive::Ordered(_) => ArtifactKind::Ordered,
            ArtifactArchive::OrderedUnion(_) => ArtifactKind::OrderedUnion,
        }
    }

    /// Encodes into the deterministic ordered section list. Every payload
    /// is a 16-byte multiple (padding is part of the checksummed bytes).
    pub(crate) fn to_sections(&self) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        match self {
            ArtifactArchive::Cq(a) => encode_cq("", a, &mut out),
            ArtifactArchive::Ordered(a) => encode_ordered("", a, &mut out),
            ArtifactArchive::OrderedUnion(members) => {
                // `save` refuses a count past the cap; encoding stays total.
                let members = &members[..members.len().min(MAX_UNION_MEMBERS)];
                let mut w = Writer::new();
                w.put_u32(members.len() as u32);
                w.put_symbols(members.first().map_or(&[], |m| &m.index.head));
                w.pad_to_16();
                out.push(("union".to_string(), w.into_bytes()));
                for (i, member) in members.iter().enumerate() {
                    encode_ordered(&member_prefix(i), member, &mut out);
                }
            }
        }
        debug_assert!(out.iter().all(|(_, p)| p.len() % 16 == 0));
        out
    }

    /// Decodes an archive of `kind` from named section payloads. With an
    /// `owner`, numeric columns are zero-copy views into it (anchored at
    /// each section's absolute offset); a view the buffer cannot support
    /// surfaces as [`StoreError::Unborrowable`] for the caller to fall
    /// back on. Without one, everything is copied out as owned vectors.
    pub(crate) fn from_sections(
        kind: ArtifactKind,
        sections: &Sections<'_>,
        owner: Option<&Arc<dyn StableBytes>>,
    ) -> Result<Self, StoreError> {
        match kind {
            ArtifactKind::Cq => Ok(ArtifactArchive::Cq(decode_cq("", sections, owner)?)),
            ArtifactKind::Ordered => Ok(ArtifactArchive::Ordered(decode_ordered(
                "", sections, owner,
            )?)),
            ArtifactKind::OrderedUnion => {
                let sec = section(sections, "union")?;
                let mut r = Reader::new("union", sec.bytes);
                let m = r.get_u32()? as usize;
                let head = r.get_symbols()?;
                r.finish_padded()?;
                check_member_count(m)?;
                let members = (0..m)
                    .map(|i| decode_ordered(&member_prefix(i), sections, owner))
                    .collect::<Result<Vec<_>, _>>()?;
                if members[0].index.head != head {
                    return Err(StoreError::Corrupt {
                        section: "union".to_string(),
                        detail: "union head differs from member 0's head".to_string(),
                    });
                }
                Ok(ArtifactArchive::OrderedUnion(members))
            }
        }
    }

    /// Reconstructs the live index, running the full `from_archive`
    /// semantic validation (the backstop behind the checksums). A union
    /// validates each member and then recomputes its ownership and fences
    /// ([`RankedUcq::from_archive`]); nothing union-level is read from the
    /// file.
    pub fn realize(self) -> Result<Artifact, StoreError> {
        Ok(match self {
            ArtifactArchive::Cq(a) => Artifact::Cq(CqIndex::from_archive(a)?),
            ArtifactArchive::Ordered(a) => Artifact::Ordered(OrderedCqIndex::from_archive(a)?),
            ArtifactArchive::OrderedUnion(members) => {
                Artifact::OrderedUnion(RankedUcq::from_archive(members)?)
            }
        })
    }
}

fn encode_cq(prefix: &str, a: &CqIndexArchive, out: &mut Vec<(String, Vec<u8>)>) {
    let mut w = Writer::new();
    w.put_symbols(&a.head);
    w.put_len(a.bags.len());
    for (bag, parent) in a.bags.iter().zip(&a.parent) {
        match parent {
            Some(p) => {
                w.put_u8(1);
                w.put_u32(*p as u32);
            }
            None => w.put_u8(0),
        }
        w.put_symbols(bag);
    }
    w.pad_to_16();
    out.push((format!("{prefix}plan"), w.into_bytes()));

    // The sorted value table: the int column aligned for a zero-copy
    // view, then the strings, length-prefixed.
    let mut w = Writer::new();
    w.put_len(a.values.ints.len());
    w.pad_to_16();
    w.put_col(&a.values.ints);
    w.put_symbols(&a.values.strs);
    w.pad_to_16();
    out.push((format!("{prefix}values"), w.into_bytes()));

    for (i, node) in a.nodes.iter().enumerate() {
        let mut w = Writer::new();
        w.put_u32(node.rows);
        w.put_len(node.refs.len());
        w.pad_to_16();
        w.put_col(&node.refs);
        w.pad_to_16();
        out.push((format!("{prefix}node{i}/refs"), w.into_bytes()));

        let mut w = Writer::new();
        match &node.starts {
            Starts::Compact(v) => {
                w.put_u8(STARTS_COMPACT);
                w.put_len(v.len());
                w.pad_to_16();
                w.put_col(v);
                w.pad_to_16();
            }
            Starts::Wide(v) => {
                w.put_u8(STARTS_WIDE);
                w.put_len(v.len());
                w.pad_to_16();
                w.put_col(v);
            }
        }
        out.push((format!("{prefix}node{i}/starts"), w.into_bytes()));

        let mut w = Writer::new();
        w.put_len(node.buckets.len());
        w.pad_to_16();
        w.put_col(&node.buckets.start);
        w.pad_to_16();
        w.put_col(&node.buckets.end);
        w.pad_to_16();
        w.put_col(&node.buckets.total);
        w.put_col(&node.buckets.max_weight);
        out.push((format!("{prefix}node{i}/buckets"), w.into_bytes()));

        let mut w = Writer::new();
        w.put_len(node.bucket_of_row.len());
        w.put_len(node.child_buckets.len());
        w.pad_to_16();
        w.put_col(&node.bucket_of_row);
        w.pad_to_16();
        for col in &node.child_buckets {
            w.put_len(col.len());
            w.pad_to_16();
            w.put_col(col);
            w.pad_to_16();
        }
        out.push((format!("{prefix}node{i}/links"), w.into_bytes()));
    }
}

pub(crate) fn encode_ordered(
    prefix: &str,
    a: &OrderedCqIndexArchive,
    out: &mut Vec<(String, Vec<u8>)>,
) {
    encode_cq(prefix, &a.index, out);
    let mut w = Writer::new();
    w.put_symbols(&a.order);
    w.put_len(a.node_new.len());
    for cols in &a.node_new {
        w.put_len(cols.len());
        for &(col, pos) in cols {
            w.put_u32(col);
            w.put_u32(pos);
        }
    }
    w.pad_to_16();
    out.push((format!("{prefix}order"), w.into_bytes()));
}

fn section<'a>(sections: &Sections<'a>, name: &str) -> Result<SectionData<'a>, StoreError> {
    sections
        .get(name)
        .copied()
        .ok_or_else(|| StoreError::Corrupt {
            section: name.to_string(),
            detail: "section missing from the file".to_string(),
        })
}

/// Reader for a named section, wired to decode columns from `owner` (or
/// owned copies when borrowing is off).
fn reader<'a>(
    name: &'a str,
    sec: SectionData<'a>,
    owner: Option<&Arc<dyn StableBytes>>,
) -> Reader<'a> {
    match owner {
        Some(owner) => Reader::with_source(
            name,
            sec.bytes,
            ColSource::Borrowed {
                owner: Arc::clone(owner),
                payload_base: sec.abs,
            },
        ),
        None => Reader::new(name, sec.bytes),
    }
}

fn decode_cq(
    prefix: &str,
    sections: &Sections<'_>,
    owner: Option<&Arc<dyn StableBytes>>,
) -> Result<CqIndexArchive, StoreError> {
    let name = format!("{prefix}plan");
    let mut r = Reader::new(&name, section(sections, &name)?.bytes);
    let head = r.get_symbols()?;
    let n = r.get_len(1)?;
    let mut bags = Vec::with_capacity(n);
    let mut parent = Vec::with_capacity(n);
    for _ in 0..n {
        parent.push(match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u32()? as usize),
            tag => {
                return Err(StoreError::Corrupt {
                    section: name.clone(),
                    detail: format!("unknown parent tag {tag}"),
                })
            }
        });
        bags.push(r.get_symbols()?);
    }
    r.finish_padded()?;

    let name = format!("{prefix}values");
    let mut r = reader(&name, section(sections, &name)?, owner);
    let len = r.get_len(8)?;
    let ints: Col<i64> = r.get_col(len)?;
    let strs = r.get_symbols()?;
    r.finish_padded()?;
    let values = ValueTable { ints, strs };

    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("{prefix}node{i}/refs");
        let mut r = reader(&name, section(sections, &name)?, owner);
        let rows = r.get_u32()?;
        let len = r.get_len(4)?;
        let refs: Col<u32> = r.get_col(len)?;
        r.finish_padded()?;

        let name = format!("{prefix}node{i}/starts");
        let mut r = reader(&name, section(sections, &name)?, owner);
        let starts = match r.get_u8()? {
            STARTS_COMPACT => {
                let len = r.get_len(8)?;
                Starts::Compact(r.get_col(len)?)
            }
            STARTS_WIDE => {
                let len = r.get_len(16)?;
                Starts::Wide(r.get_col(len)?)
            }
            tag => {
                return Err(StoreError::Corrupt {
                    section: name.clone(),
                    detail: format!("unknown starts tag {tag}"),
                })
            }
        };
        r.finish_padded()?;

        let name = format!("{prefix}node{i}/buckets");
        let mut r = reader(&name, section(sections, &name)?, owner);
        let len = r.get_len(40)?;
        let b_start: Col<u32> = r.get_col(len)?;
        let b_end: Col<u32> = r.get_col(len)?;
        let b_total: Col<u128> = r.get_col(len)?;
        let b_max: Col<u128> = r.get_col(len)?;
        let buckets = Buckets::from_cols(b_start, b_end, b_total, b_max).map_err(|detail| {
            StoreError::Corrupt {
                section: name.clone(),
                detail,
            }
        })?;
        r.finish_padded()?;

        let name = format!("{prefix}node{i}/links");
        let mut r = reader(&name, section(sections, &name)?, owner);
        let len = r.get_len(4)?;
        let cols = r.get_len(0)?;
        let bucket_of_row: Col<u32> = r.get_col(len)?;
        // Each column is followed by its own padding; consume it so the
        // next length is read aligned, exactly as encoded.
        r.align_16()?;
        let mut child_buckets = Vec::with_capacity(cols);
        for _ in 0..cols {
            let len = r.get_len(4)?;
            let col: Col<u32> = r.get_col(len)?;
            r.align_16()?;
            child_buckets.push(col);
        }
        r.finish_padded()?;

        nodes.push(NodeArchive {
            rows,
            refs,
            starts,
            buckets,
            bucket_of_row,
            child_buckets,
        });
    }

    Ok(CqIndexArchive {
        values,
        bags,
        parent,
        head,
        nodes,
    })
}

fn decode_ordered(
    prefix: &str,
    sections: &Sections<'_>,
    owner: Option<&Arc<dyn StableBytes>>,
) -> Result<OrderedCqIndexArchive, StoreError> {
    let index = decode_cq(prefix, sections, owner)?;
    let name = format!("{prefix}order");
    let mut r = Reader::new(&name, section(sections, &name)?.bytes);
    let order = r.get_symbols()?;
    let n = r.get_len(8)?;
    let mut node_new = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.get_len(8)?;
        let mut cols = Vec::with_capacity(len);
        for _ in 0..len {
            cols.push((r.get_u32()?, r.get_u32()?));
        }
        node_new.push(cols);
    }
    r.finish_padded()?;
    Ok(OrderedCqIndexArchive {
        index,
        order,
        node_new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_data::Symbol;

    pub(crate) fn tiny_cq_archive() -> CqIndexArchive {
        // One node, one attribute, two rows — hand-rolled but consistent.
        CqIndexArchive {
            values: ValueTable {
                ints: Col::Owned(vec![1, 2]),
                strs: Vec::new(),
            },
            bags: vec![vec![Symbol::new("x")]],
            parent: vec![None],
            head: vec![Symbol::new("x")],
            nodes: vec![NodeArchive {
                rows: 2,
                refs: Col::Owned(vec![0, 1]),
                starts: Starts::Compact(Col::Owned(vec![0, 1])),
                buckets: Buckets::from_cols(
                    Col::Owned(vec![0]),
                    Col::Owned(vec![2]),
                    Col::Owned(vec![2]),
                    Col::Owned(vec![1]),
                )
                .unwrap(),
                bucket_of_row: Col::Owned(vec![0, 0]),
                child_buckets: vec![],
            }],
        }
    }

    fn as_sections(owned: &[(String, Vec<u8>)]) -> Sections<'_> {
        owned
            .iter()
            .map(|(n, p)| {
                (
                    n.clone(),
                    SectionData {
                        bytes: p.as_slice(),
                        abs: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn sections_round_trip() {
        let archive = ArtifactArchive::Cq(tiny_cq_archive());
        let owned = archive.to_sections();
        let decoded =
            ArtifactArchive::from_sections(ArtifactKind::Cq, &as_sections(&owned), None).unwrap();
        assert_eq!(decoded, archive);
    }

    #[test]
    fn missing_section_is_structured() {
        let archive = ArtifactArchive::Cq(tiny_cq_archive());
        let owned = archive.to_sections();
        let mut sections = as_sections(&owned);
        sections.remove("node0/starts");
        assert!(matches!(
            ArtifactArchive::from_sections(ArtifactKind::Cq, &sections, None),
            Err(StoreError::Corrupt { section, .. }) if section == "node0/starts"
        ));
    }

    #[test]
    fn encode_order_is_deterministic() {
        let archive = ArtifactArchive::Cq(tiny_cq_archive());
        assert_eq!(archive.to_sections(), archive.to_sections());
    }

    #[test]
    fn payloads_are_aligned_multiples() {
        let archive = ArtifactArchive::Cq(tiny_cq_archive());
        for (name, payload) in archive.to_sections() {
            assert_eq!(payload.len() % 16, 0, "section {name} not padded");
        }
    }

    #[test]
    fn dense_starts_stay_compact_and_round_trip() {
        // One bucket, consecutive starts: the node is saved exactly as
        // built (compact, 8 bytes a row) and decodes back to the identical
        // archive.
        let rows = 4096u32;
        let mut a = tiny_cq_archive();
        let node = &mut a.nodes[0];
        node.rows = rows;
        node.refs = Col::Owned((0..rows).map(|_| 0).collect());
        node.starts = Starts::Compact(Col::Owned((0..rows as u64).collect()));
        node.buckets = Buckets::from_cols(
            Col::Owned(vec![0]),
            Col::Owned(vec![rows]),
            Col::Owned(vec![rows as u128]),
            Col::Owned(vec![1]),
        )
        .unwrap();
        node.bucket_of_row = Col::Owned(vec![0; rows as usize]);
        let archive = ArtifactArchive::Cq(a);
        let owned = archive.to_sections();
        let starts_payload = &owned.iter().find(|(n, _)| n == "node0/starts").unwrap().1;
        assert_eq!(starts_payload[0], STARTS_COMPACT);
        assert_eq!(starts_payload.len(), 16 + rows as usize * 8);
        let decoded =
            ArtifactArchive::from_sections(ArtifactKind::Cq, &as_sections(&owned), None).unwrap();
        assert_eq!(decoded, archive);
        // Digest fixed point: re-encoding the decode yields equal bytes.
        assert_eq!(decoded.to_sections(), owned);
    }
}
