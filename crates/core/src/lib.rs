//! The paper's contribution: **dual-representation indexing for linear
//! constraint databases** (Bertino, Catania & Chidlovskii, ICDE 1999).
//!
//! A [`DualIndex`] stores, for every slope `aᵢ` of a predefined
//! [`slopes::SlopeSet`] `S`, two B⁺-trees over the relation: `Bᵢ^up` keyed by
//! `TOP_P(aᵢ)` and `Bᵢ^down` keyed by `BOT_P(aᵢ)` (Section 3). ALL and EXIST
//! half-plane selections are then:
//!
//! * **exact** — one tree search plus a leaf sweep — when the query slope is
//!   in `S` ([`plan::PlanCase::Member`]);
//! * **approximated by a single handicap-guided search** in the tree of the
//!   nearest slope ([`plan::PlanCase::Between`], Sections 4.2–4.3) — an upward
//!   and a downward sweep over *disjoint* leaf sets, so no duplicates, with
//!   per-leaf handicap values bounding how far the second sweep must go,
//!   followed by an exact refinement step. Past the ends of `S` the
//!   rotation wraps through the vertical, and the trees at the nearer end
//!   answer in the frame `t = 1/a` (the paper's "similarly handled" case).
//!
//! The paper's other technique, T1 (Section 4.1: two app-queries at slopes
//! of `S` bracketing the query slope, duplicates possible), is no access
//! method here; the experiment harness composes it of restricted searches
//! to compare T2 against.
//!
//! Both finite and infinite (unbounded) polyhedra are supported uniformly —
//! unbounded tuples simply contribute `±∞` keys.
//!
//! The same index — built, maintained and searched by the same code — over
//! the other [`SlopeGeometry`] extends the scheme to `E^d` (Section 4.4):
//! `S` becomes a set of [`index::ddim::SlopePoints`] in slope space
//! `E^{d-1}`, queries with slopes in `S` stay exact, and T2 answers the
//! rest inside the bounding box of `S` over the Voronoi cell of the nearest
//! point. What each geometry keeps to itself is its routing table.
//!
//! [`db::ConstraintDb`] is a small engine facade tying relations (heap
//! files), indexes and queries together; its whole read side — and a
//! pinned [`Snapshot`]'s — is the one [`ReadSurface`] in [`read`]. See the
//! crate-level examples of `constraint-db`.
//!
//! The whole query path is `&self` over the read half of the pager
//! ([`cdb_storage::PageReader`]), so one built index can serve many queries
//! concurrently: [`ReadSurface::query_batch`] fans a batch of selections
//! out over scoped threads sharing the same snapshot, with exact per-query
//! [`QueryStats`] via [`cdb_storage::TrackedReader`].
//!
//! Every query path — the dual index, a sequential scan, and the Section 5
//! R⁺-tree baseline — is one variant of the [`plan::AccessMethod`] enum;
//! [`plan::Planner`] runs the forced one or, in every dimension, the
//! paper's rule — the dual index wherever it routes the slope (the
//! restricted search at a member of `S`, T2 elsewhere), the scan where it
//! routes nothing — and [`ReadSurface::explain`] renders the
//! decision next to the actuals.

pub mod catalog;
pub mod db;
pub mod error;
pub mod index;
pub mod logical;
pub mod physical;
pub mod plan;
pub mod pretty;
pub mod query;
pub mod read;
pub mod relation;
pub mod slopes;
pub mod sql;
pub(crate) mod wal;
pub mod wire;

pub use db::{ConstraintDb, DbConfig, DbStats, RecoveryReport, WalReplay, WalStats};
pub use error::{CdbError, CATALOG_RECORD, WAL_RECORD};
pub use index::{ddim, DualIndex, Index, IndexKind, IndexSpec, SlopeGeometry};
pub use plan::{AccessMethod, ExplainReport, MethodKind, PlanCase, Planner, QueryPlan, Rejection};
pub use pretty::PlanNode;
pub use query::{QueryResult, QueryStats, QueryTimings, Selection, SelectionKind, Strategy};
pub use read::{PageSource, ReadSurface, Snapshot};
pub use relation::{Relation, RelationHealth, RelationStats};
pub use slopes::SlopeSet;
pub use sql::{SqlError, SqlMode, SqlOutcome, SqlQuery, SqlRow};

#[cfg(test)]
#[global_allocator]
static PEAK_ALLOC: cdb_storage::conformance::PeakAlloc = cdb_storage::conformance::PeakAlloc;

/// Parses one line of a `golden/*.hex` fixture.
#[cfg(test)]
pub(crate) fn unhex(line: &str) -> Vec<u8> {
    (0..line.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex fixture"))
        .collect()
}
