//! The persistent database catalog: one versioned, checksummed blob
//! holding every relation's heap roots, slot table and index metadata,
//! committed through the pager's shadow-page meta protocol (see
//! `cdb_storage::FilePager::commit_meta`). The planner keeps no state: a
//! reopened database plans as the one that was closed.
//!
//! Layout (all integers little-endian; every bracketed type is laid out by
//! its own [`Wire`] impl, `Option` as a presence byte, lists as a `u32`
//! count then the items):
//!
//! ```text
//! magic "CDBC" u32 | version u16 | durable_lsn u64 | relation count u32
//! per relation (sorted by name):
//!   name str | dim u32 (1 up to what a heap page admits)
//!   heap:   page list u32 ...
//!   slots:  list of [Option<RecordId>]
//!   per index slot, in IndexKind order: present u8, [ corrupt u8, body ]
//!     dual index: [SlopeGeometry] of k elements, (up tree, down tree) ×k
//!     R⁺-tree:    [RTreeMeta], fill f64, unbounded u32 list
//! ```
//!
//! A geometry is a tag byte (0 a slope set, 1 slope points) and then its
//! own layout — the one the log and the wire use too; one whose dimension
//! is not its relation's is damage. B⁺-trees serialize as the forest's
//! `TreeMeta` — scalars only, because
//! node contents (handicaps included) live in their pages on disk. The
//! corrupt byte is the relation's health flag for that index: set when
//! maintenance found the index out of step with its heap, cleared by a
//! rebuild. Open degrades the relation for it, whatever the checksums say.
//!
//! Integrity is layered: the pager's meta protocol CRCs the whole blob, so
//! `decode` normally sees exactly what `encode` produced. Decoding still
//! never panics on bad input and never allocates from a forged count —
//! every field type refuses what its constructor would `assert!` against,
//! surfaced as [`CdbError::CorruptRecord`] with the [`CATALOG_RECORD`]
//! sentinel.

use std::collections::HashMap;

use cdb_rplustree::RPlusTree;
use cdb_storage::codec::{finite, get_option, put_option};
use cdb_storage::{CodecError, HeapFile, RecordId, RecordReader, RecordWriter, Wire};

use crate::error::{CdbError, CATALOG_RECORD};
use crate::index::forest::Forest;
use crate::index::{DualIndex, Index, IndexKind, RPlusIndex, SlopeGeometry};
use crate::relation::Relation;

/// Catalog magic: `"CDBC"`.
const MAGIC: u32 = 0x4344_4243;
/// Current catalog format version. Version 2 added the `durable_lsn`
/// WAL watermark: every mutation with an LSN at or below it is covered by
/// this blob, so replay applies only the strictly newer log suffix.
/// Version 3 added the optional partition spec of a sharded engine.
/// Version 4 dropped the planner feedback and the reserved strategy,
/// anchor and handicap-refresh bytes, and added each index's corrupt flag.
/// Version 5 dropped the slope points' grid axes: every point set is
/// routed by the Voronoi cells of its points. Version 6 dropped the
/// partition spec: an engine is one node with one id space. Version 7
/// dropped the R⁺-tree's tombstone list: the tree is packed once, and a
/// write to its relation drops it instead of maintaining it. Version 8
/// has one dual slot instead of a 2-D and a d-dimensional one, and its
/// body leads with the geometry's tag byte. Version 9 has the layout of 8,
/// but the end trees of a slope set hold handicaps for the strip through
/// the vertical, which T2 trusts: a version 8 index holds neutral slots
/// there and would miss tuples.
const VERSION: u16 = 9;

// ---------------------------------------------------------------- indexes

/// An R⁺-tree's persisted scalars.
struct RTreeMeta {
    root: u32,
    height: usize,
    len: u64,
    pages: u64,
}

cdb_storage::wire_struct!(RTreeMeta {
    root,
    height,
    len,
    pages
});

/// One built index in its kind's layout (see the module docs). B⁺-trees
/// serialize through [`Forest::put_trees`].
fn put_index(index: &Index, w: &mut RecordWriter) {
    match index {
        Index::Dual(idx) => {
            idx.geometry.put(w);
            idx.forest.put_trees(w)
        }
        Index::RPlus(rp) => {
            RTreeMeta {
                root: rp.tree.root(),
                height: rp.tree.height(),
                len: rp.tree.len(),
                pages: rp.tree.page_count(),
            }
            .put(w);
            rp.fill.put(w);
            rp.unbounded.put(w)
        }
    }
}

/// Mirror of [`put_index`] for the slot of `kind` in a `dim`-dimensional
/// relation.
fn get_index(
    r: &mut RecordReader<'_>,
    kind: IndexKind,
    dim: usize,
    page_size: usize,
) -> Result<Index, CodecError> {
    Ok(match kind {
        IndexKind::Dual => {
            let geometry = SlopeGeometry::get(r)?;
            if geometry.dim() != dim {
                return Err(CodecError::Invalid("a geometry of another dimension"));
            }
            let forest = Forest::get_trees(r, geometry.len(), page_size)?;
            Index::Dual(DualIndex::from_parts(geometry, forest))
        }
        IndexKind::RPlus => {
            let m: RTreeMeta = Wire::get(r)?;
            Index::RPlus(RPlusIndex {
                tree: RPlusTree::from_parts(page_size, m.root, m.height, m.len, m.pages),
                fill: finite::get(r)?,
                unbounded: Wire::get(r)?,
            })
        }
    })
}

// -------------------------------------------------------------- relations

fn put_relation(rel: &Relation, w: &mut RecordWriter) {
    rel.name.put(w);
    rel.dim.put(w);
    w.put_counted(rel.heap.pages());
    rel.slots.put(w);
    for kind in IndexKind::ALL {
        put_option(rel.built(kind), w, |index, w| {
            rel.health.is_corrupt(kind).put(w);
            put_index(index, w)
        });
    }
}

/// Mirror of [`put_relation`]. `live` is derived from the slot table, so a
/// reopened database never rescans its heap.
fn get_relation(r: &mut RecordReader<'_>, page_size: usize) -> Result<Relation, CodecError> {
    let name = String::get(r)?;
    let dim = usize::get(r)?;
    // Relations come out `Healthy` but for their flagged indexes: the
    // open-time verification pass adds what the pages say right after
    // decoding (see `ConstraintDb::open`). A dimension `create_relation`
    // would refuse is damage.
    let heap = HeapFile::from_pages(page_size, Wire::get(r)?);
    let mut rel =
        Relation::new(&name, dim, heap).map_err(|_| CodecError::Invalid("relation dimension"))?;
    rel.slots = Vec::<Option<RecordId>>::get(r)?;
    let mut records: Vec<RecordId> = rel.slots.iter().flatten().copied().collect();
    if records.iter().any(|rid| !rel.heap.owns(rid.page)) {
        return Err(CodecError::Invalid("a tuple outside its relation's heap"));
    }
    records.sort_unstable();
    if records.windows(2).any(|w| w[0] == w[1]) {
        return Err(CodecError::Invalid("two tuples sharing a record"));
    }
    rel.live = records.len() as u64;
    for kind in IndexKind::ALL {
        let slot = get_option(r, |r| {
            Ok((bool::get(r)?, get_index(r, kind, dim, page_size)?))
        })?;
        if let Some((corrupt, index)) = slot {
            rel.indexes[kind as usize] = Some(index);
            rel.set_corrupt(kind, corrupt);
        }
    }
    Ok(rel)
}

// ------------------------------------------------------------------- blob

/// Serializes the WAL durability watermark and every relation into one
/// catalog blob. Relations are written in name order, so identical database
/// states produce identical bytes.
pub(crate) fn encode(durable_lsn: u64, relations: &HashMap<String, Relation>) -> Vec<u8> {
    let mut w = RecordWriter::new();
    (MAGIC, VERSION, durable_lsn).put(&mut w);
    relations.len().put(&mut w);
    let mut names: Vec<&String> = relations.keys().collect();
    names.sort();
    for name in names {
        put_relation(&relations[name], &mut w);
    }
    w.into_bytes()
}

/// Rebuilds the full relation map from a catalog blob.
///
/// # Errors
/// [`CdbError::CorruptRecord`] (id [`CATALOG_RECORD`]) on any structural
/// violation: bad magic, unknown version or enum code, truncation, a
/// duplicate relation name, values a constructor would refuse, or trailing
/// garbage.
pub(crate) fn decode(blob: &[u8], page_size: usize) -> Result<DecodedCatalog, CdbError> {
    read(blob, page_size).map_err(|_| CdbError::CorruptRecord(CATALOG_RECORD))
}

fn read(blob: &[u8], page_size: usize) -> Result<DecodedCatalog, CodecError> {
    let r = &mut RecordReader::new(blob);
    if (u32::get(r)?, u16::get(r)?) != (MAGIC, VERSION) {
        return Err(CodecError::Invalid("catalog magic or version"));
    }
    let durable_lsn = u64::get(r)?;
    let mut relations = HashMap::new();
    for _ in 0..usize::get(r)? {
        let rel = get_relation(r, page_size)?;
        if relations.insert(rel.name.clone(), rel).is_some() {
            return Err(CodecError::Invalid("duplicate relation name"));
        }
    }
    r.finish()?;
    Ok(DecodedCatalog {
        durable_lsn,
        relations,
    })
}

/// Everything [`decode`] rebuilds from one catalog blob.
pub(crate) struct DecodedCatalog {
    pub durable_lsn: u64,
    pub relations: HashMap<String, Relation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ConstraintDb, DbConfig};
    use crate::index::ddim::SlopePoints;
    use crate::plan::MethodKind;
    use crate::query::{Selection, SelectionKind, Strategy};
    use crate::slopes::SlopeSet;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_geometry::{HalfPlane, LinearConstraint, RelOp};
    use cdb_storage::codec;
    use cdb_storage::conformance::{conformance, wire_conformance};

    fn is_corrupt(r: Result<DecodedCatalog, CdbError>) -> bool {
        matches!(r, Err(CdbError::CorruptRecord(CATALOG_RECORD)))
    }

    /// The catalog of a 2-D relation (dual index after churn, R⁺-tree
    /// packed after it with an unbounded tuple and flagged corrupt, an
    /// absent slot, queries that leave nothing to persist) and a 3-D
    /// relation with a dual index over a grid of slope points — the state
    /// behind `golden/catalog_v9.hex`.
    fn sample_blob() -> Vec<u8> {
        let cube = |lo: &[f64], side: f64| {
            let mut cs = Vec::new();
            for (axis, &l) in lo.iter().enumerate() {
                let mut unit = vec![0.0; lo.len()];
                unit[axis] = 1.0;
                cs.push(LinearConstraint::new(unit.clone(), -l, RelOp::Ge));
                cs.push(LinearConstraint::new(unit, -(l + side), RelOp::Le));
            }
            GeneralizedTuple::new(cs)
        };
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("plane", 2).unwrap();
        let mut first = None;
        for i in 0..6 {
            let id = db
                .insert("plane", cube(&[i as f64, 2.0 * i as f64], 1.5))
                .unwrap();
            first.get_or_insert(id);
        }
        let quadrant = GeneralizedTuple::new(vec![
            LinearConstraint::new(vec![1.0, 0.0], 0.0, RelOp::Ge),
            LinearConstraint::new(vec![0.0, 1.0], 0.0, RelOp::Ge),
        ]);
        db.insert("plane", quadrant).unwrap();
        db.build_dual_index("plane", SlopeSet::new(vec![-1.5, 0.25, 2.0]))
            .unwrap();
        db.delete("plane", first.unwrap()).unwrap();
        db.build_rplus_index("plane", 0.8).unwrap();
        db.query("plane", Selection::exist(HalfPlane::above(0.5, 1.0)))
            .unwrap();
        db.query("plane", Selection::all(HalfPlane::below(0.25, 40.0)))
            .unwrap();
        db.create_relation("space", 3).unwrap();
        for i in 0..4 {
            db.insert("space", cube(&[i as f64, 1.0, -(i as f64)], 2.0))
                .unwrap();
        }
        db.build_dual_index("space", SlopePoints::grid(3, 2, 1.0))
            .unwrap();
        db.query(
            "space",
            Selection::exist(HalfPlane::new(vec![0.25, -0.5], 0.0, RelOp::Ge)),
        )
        .unwrap();
        let plane = db.for_update("plane").unwrap().1;
        plane.set_corrupt(IndexKind::RPlus, true);
        encode(17, &db.relations)
    }

    fn reencoded(blob: &[u8]) -> Result<Vec<u8>, CdbError> {
        let cat = decode(blob, 1024)?;
        Ok(encode(cat.durable_lsn, &cat.relations))
    }

    #[test]
    fn catalog_conformance() {
        // A blob is its own sample: the round trip is decode, then encode.
        let empty = encode(17, &HashMap::new());
        conformance(&[sample_blob(), empty], Vec::clone, reencoded);
    }

    #[test]
    fn golden_bytes_are_those_of_the_format() {
        let golden = crate::unhex(include_str!("../golden/catalog_v9.hex").trim_end());
        assert_eq!(sample_blob(), golden);
        assert_eq!(reencoded(&golden).unwrap(), golden);
        let cat = decode(&golden, 1024).unwrap();
        assert_eq!(cat.durable_lsn, 17);
        let plane = &cat.relations["plane"];
        assert_eq!((plane.dim, plane.live), (2, 6));
        assert!(plane.index().is_some() && plane.built(IndexKind::RPlus).is_some());
        assert!(
            plane.usable(IndexKind::Dual).is_some() && plane.usable(IndexKind::RPlus).is_none()
        );
        let space = cat.relations["space"].index().expect("a 3-D dual index");
        assert_eq!(space.points(), Some(&SlopePoints::grid(3, 2, 1.0)));
    }

    /// A 2-D relation's bytes keep their length from version 7 to 8: the
    /// geometry's tag byte takes the place of the dropped second dual
    /// slot's presence byte.
    #[test]
    fn a_planar_relation_keeps_its_length_across_version_8() {
        let old = crate::unhex(include_str!("../golden/catalog_v7.hex").trim_end());
        let new = crate::unhex(include_str!("../golden/catalog_v8.hex").trim_end());
        // Header, relation count, then "plane" (sorted first): a u32
        // length and its 5 bytes, then the rest of the relation.
        let space = |blob: &[u8]| {
            let name = b"\x05\x00\x00\x00space";
            blob.windows(name.len()).position(|w| w == name).unwrap()
        };
        assert_eq!(space(&old), space(&new));
        assert_eq!(old[..space(&old)].len(), new[..space(&new)].len());
    }

    /// The previous formats stay frozen, and are refused as damage: they
    /// hold bytes version 9 no longer reads — version 4 a grid presence
    /// byte after every slope-point set, versions 3 to 5 the partition
    /// spec's presence byte in the header, versions 3 to 6 the R⁺-tree's
    /// tombstone list, versions 3 to 7 a second dual slot and no geometry
    /// tag — or trees version 9 would misread: version 8's slope-set end
    /// trees hold neutral handicaps for the strip through the vertical,
    /// bytes for bytes its layout.
    #[test]
    fn golden_bytes_of_versions_3_to_8_are_refused() {
        for (version, hex) in [
            (3u16, include_str!("../golden/catalog_v3.hex")),
            (4, include_str!("../golden/catalog_v4.hex")),
            (5, include_str!("../golden/catalog_v5.hex")),
            (6, include_str!("../golden/catalog_v6.hex")),
            (7, include_str!("../golden/catalog_v7.hex")),
            (8, include_str!("../golden/catalog_v8.hex")),
        ] {
            let old = crate::unhex(hex.trim_end());
            assert_eq!(old[4..6], version.to_le_bytes());
            assert!(is_corrupt(decode(&old, 1024)), "v{version}");
        }
    }

    #[test]
    fn forged_slope_count_is_corrupt_not_an_abort() {
        // One relation with a 2-D index claiming u32::MAX slopes: decoding
        // must run out of bytes, not reserve 32 GiB for them.
        let mut w = RecordWriter::new();
        (MAGIC, VERSION, 0u64).put(&mut w);
        (1u32, "r".to_string(), 2u32).put(&mut w);
        (0u32, 0u32).put(&mut w); // no heap pages, no slots
        (true, false, 0u8).put(&mut w); // a healthy dual index over a slope set
        u32::MAX.put(&mut w);
        assert!(is_corrupt(decode(&w.into_bytes(), 1024)));
    }

    /// The slot table is the heap's only map, and every read of a tuple
    /// goes through it: a slot naming a page outside its relation's heap
    /// (here a page of the relation's own dual index) would panic the
    /// first read of that tuple, and two slots sharing a record would make
    /// one record two tuples. Both are damage.
    #[test]
    fn slots_outside_the_heap_or_sharing_a_record_are_corrupt() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for i in 0..20 {
            let x = i as f64;
            let strip = GeneralizedTuple::new(vec![
                LinearConstraint::new(vec![1.0, 0.0], -x, RelOp::Ge),
                LinearConstraint::new(vec![1.0, 0.0], -(x + 1.0), RelOp::Le),
                LinearConstraint::new(vec![0.0, 1.0], 0.0, RelOp::Ge),
            ]);
            db.insert("r", strip).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
        assert_eq!(
            decode(&encode(0, &db.relations), 1024).unwrap().relations["r"].live,
            20
        );
        let rel = db.for_update("r").unwrap().1;
        let index_page = rel.index().unwrap().forest.tree(0, true).root();
        let (kept, shared) = (rel.slots[3], rel.slots[4]);
        rel.slots[3] = Some(RecordId {
            page: index_page,
            slot: 0,
        });
        assert!(is_corrupt(decode(&encode(0, &db.relations), 1024)));
        let rel = db.for_update("r").unwrap().1;
        rel.slots[3] = shared;
        assert!(is_corrupt(decode(&encode(0, &db.relations), 1024)));
        db.for_update("r").unwrap().1.slots[3] = kept;
        assert_eq!(
            decode(&encode(0, &db.relations), 1024).unwrap().relations["r"].live,
            20
        );
    }

    #[test]
    fn slope_points_past_the_cell_bound_are_corrupt_not_an_abort() {
        // An 8-D relation whose d-dimensional index claims 8 points: more
        // cell work than any index may ask for, refused before the trees.
        let mut w = RecordWriter::new();
        (MAGIC, VERSION, 0u64).put(&mut w);
        (1u32, "r".to_string(), 8u32).put(&mut w);
        (0u32, 0u32).put(&mut w); // no heap pages, no slots
        (true, false, 1u8).put(&mut w); // a healthy dual index over slope points
        (8u32, 8u32).put(&mut w); // 8 of them, in 8-D
        for _ in 0..8 {
            w.put_seq(&[0.5; 7]);
        }
        assert!(is_corrupt(decode(&w.into_bytes(), 1024)));
    }

    /// A dual index whose geometry is not of its relation's dimension —
    /// a slope set on a 3-D relation, 3-D slope points on a 2-D or a 4-D
    /// one — is damage, refused before its trees are read.
    #[test]
    fn a_geometry_of_another_dimension_is_corrupt_not_a_panic() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        for (name, dim) in [("flat", 2), ("space", 3), ("wide", 4)] {
            db.create_relation(name, dim).unwrap();
        }
        db.build_dual_index("flat", SlopeSet::uniform_tan(3))
            .unwrap();
        db.build_dual_index("space", SlopePoints::grid(3, 2, 1.0))
            .unwrap();
        assert!(decode(&encode(0, &db.relations), 1024).is_ok());
        let dual = |name: &str| db.relations[name].indexes[IndexKind::Dual as usize].clone();
        for (name, from) in [("space", "flat"), ("flat", "space"), ("wide", "space")] {
            let mut relations = db.relations.clone();
            relations.get_mut(name).unwrap().indexes[IndexKind::Dual as usize] = dual(from);
            let blob = encode(0, &relations);
            assert!(is_corrupt(decode(&blob, 1024)), "{from}'s index on {name}");
        }
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        assert!(is_corrupt(decode(b"not a catalog", 1024)));
        assert!(is_corrupt(decode(&[], 1024)));
        let mut bytes = encode(0, &HashMap::new());
        bytes[4] += 1; // the version's low byte
        assert!(is_corrupt(decode(&bytes, 1024)));
    }

    /// A relation of a dimension `create_relation` refuses — zero, or so
    /// wide that one constraint outgrows a heap page — is damage: decoding
    /// must not size anything by it.
    #[test]
    fn relation_dimensions_past_the_page_bound_are_corrupt() {
        let blob = |dim: u32| {
            let mut w = RecordWriter::new();
            (MAGIC, VERSION, 0u64).put(&mut w);
            (1u32, "r".to_string(), dim).put(&mut w);
            (0u32, 0u32).put(&mut w); // no heap pages, no slots
            (false, false).put(&mut w); // no indexes
            w.into_bytes()
        };
        assert_eq!(decode(&blob(125), 1024).unwrap().relations["r"].dim, 125);
        for dim in [0, 126, 4_000_000_000] {
            assert!(is_corrupt(decode(&blob(dim), 1024)), "{dim}-D");
        }
    }

    #[test]
    fn enum_tags_conform_and_unknown_tags_fail() {
        wire_conformance(&[
            Strategy::Auto,
            Strategy::Restricted,
            Strategy::T2,
            Strategy::Scan,
            Strategy::RPlus,
        ]);
        wire_conformance(&[
            MethodKind::Restricted,
            MethodKind::T2,
            MethodKind::SeqScan,
            MethodKind::RPlus,
        ]);
        wire_conformance(&[SelectionKind::Exist, SelectionKind::All]);
        assert!(codec::decode::<Strategy>(&[99]).is_err());
        // Strategy tag 2 and MethodKind tag 1 named T1, tag 3 the
        // d-dimensional index: methods no more.
        assert!(codec::decode::<Strategy>(&[2]).is_err());
        assert!(codec::decode::<MethodKind>(&[1]).is_err());
        assert!(codec::decode::<MethodKind>(&[3]).is_err());
        assert!(codec::decode::<MethodKind>(&[6]).is_err());
        assert!(codec::decode::<SelectionKind>(&[2]).is_err());
    }
}
