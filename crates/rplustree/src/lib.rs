//! An R⁺-tree (Sellis, Roussopoulos & Faloutsos, VLDB 1987) over
//! `cdb-storage` pages — the baseline structure of the paper's evaluation.
//!
//! The R⁺-tree is an R-tree variant in which sibling directory rectangles
//! never overlap; objects whose rectangle spans several regions are *clipped*
//! and appear in every spanned subtree. Point queries follow a single path,
//! but region queries can report the same object several times — the
//! duplication problem that Section 4.2 of the 1999 paper sets out to avoid.
//!
//! Notes on fidelity:
//!
//! * Entries are 20 bytes (4 × `f32` rectangle + `u32` pointer/oid) on the
//!   paper's 1024-byte pages: fan-out 51. Rectangles are rounded *outward*
//!   when narrowed to `f32`, so clipping can only add false hits, which the
//!   caller's exact refinement step removes.
//! * Only bounded objects are representable — the very limitation (Figure 1)
//!   motivating the dual-representation techniques; the experiments
//!   therefore compare on bounded workloads, like the paper's.
//! * The tree is bulk-built only ([`RPlusTree::pack`]), as in the paper's
//!   evaluation; there is no dynamic insert or delete. A pack clips
//!   straddling objects into both sides of a leaf cut while straddlers stay
//!   few, so those leaf regions are disjoint; on dense data, and at the
//!   STR-packed upper levels, sibling rectangles can overlap. What a pack
//!   guarantees is coverage: every object is covered by its stored pieces,
//!   and (what [`RPlusTree::validate`] checks) every entry lies inside its
//!   parent's rectangle and all leaves share one depth. Searches visit
//!   every intersecting child, so they stay exact either way.
//! * ALL (containment) selections are processed as the paper prescribes for
//!   non-rectangular queries: approximated by an EXIST search plus exact
//!   refinement by the caller.

pub mod node;
pub mod tree;

pub use tree::{RPlusTree, SearchStats};
