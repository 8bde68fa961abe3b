//! # constraint-db
//!
//! A reproduction, as a reusable Rust library, of **Bertino, Catania &
//! Chidlovskii, "Indexing Constraint Databases by Using a Dual
//! Representation" (ICDE 1999)**.
//!
//! Linear constraint databases store *generalized tuples* — conjunctions of
//! linear constraints, i.e. possibly unbounded convex polyhedra — and must
//! answer two selection types against a query half-plane `q`:
//!
//! * **ALL(q)**: tuples whose extension is contained in `q`;
//! * **EXIST(q)**: tuples whose extension intersects `q`.
//!
//! The paper maps each polyhedron to its dual `TOP`/`BOT` intercept surfaces
//! and indexes their values at a predefined set `S` of slopes with pairs of
//! B⁺-trees, yielding an exact `O(log_B n + t)` index for slopes in `S`
//! (Section 3), and two approximation techniques for arbitrary slopes —
//! **T1** (two app-queries, Section 4.1) and **T2** (single handicap-guided
//! search, Sections 4.2–4.3) — both uniform over ALL/EXIST and over finite
//! and infinite objects. The index runs T2 at every slope outside `S`, the
//! slopes past its ends through the vertical included; T1 is an ablation of
//! the experiment harness (`cdb-bench`), composed of restricted searches.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`geometry`] — constraints, tuples, half-planes, dual surfaces, exact
//!   predicates (the refinement step / oracle);
//! * [`storage`] — the paged-storage substrate with I/O accounting;
//! * [`btree`] — a disk-based B⁺-tree with per-leaf handicap slots;
//! * [`rplustree`] — the R⁺-tree baseline used in the paper's evaluation;
//! * [`index`] — the paper's contribution: [`index::DualIndex`] with the
//!   restricted and T2 query strategies over a slope set or, in `E^d`,
//!   slope points, and the planner ([`index::plan`]) that unifies every query
//!   path (dual techniques, sequential scan, R⁺-tree baseline) as the
//!   variants of one `AccessMethod` enum and runs the paper's rule over
//!   them, with `EXPLAIN` output;
//! * [`workload`] — seeded generators reproducing the paper's experimental
//!   setup.
//!
//! ## Quickstart
//!
//! ```
//! use constraint_db::prelude::*;
//!
//! // Three parcels of land as generalized tuples (convex polygons).
//! let parcels = [
//!     "y >= 0 && y <= 2 && x >= 0 && x + y <= 4",   // bounded
//!     "y >= x && y <= x + 1 && x >= 10",            // unbounded strip
//!     "y >= -1 && y <= 1 && x >= -3 && x <= -1",
//! ];
//!
//! let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
//! db.create_relation("parcels", 2).unwrap();
//! for p in &parcels {
//!     let t = parse_tuple(p).unwrap();
//!     db.insert("parcels", t).unwrap();
//! }
//!
//! // Index on 4 predefined slopes; query an arbitrary slope with T2.
//! db.build_dual_index("parcels", SlopeSet::uniform_tan(4)).unwrap();
//! let q = HalfPlane::above(0.3, -5.0); // y >= 0.3x - 5
//! let hits = db.query("parcels", Selection::exist(q)).unwrap();
//! assert_eq!(hits.ids().len(), 3);
//! ```

pub use cdb_btree as btree;
pub use cdb_core as index;
pub use cdb_geometry as geometry;
pub use cdb_net as net;
pub use cdb_rplustree as rplustree;
pub use cdb_storage as storage;
pub use cdb_workload as workload;

pub mod shell;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use cdb_core::db::{ConstraintDb, DbConfig, Snapshot};
    pub use cdb_core::plan::{
        AccessMethod, ExplainReport, MethodKind, PlanCase, Planner, QueryPlan, Rejection,
    };
    pub use cdb_core::query::{QueryStats, Selection, SelectionKind, Strategy};
    pub use cdb_core::slopes::SlopeSet;
    pub use cdb_core::sql::{SqlMode, SqlOutcome, SqlRow};
    pub use cdb_core::DualIndex;
    pub use cdb_geometry::parse::{parse_constraint, parse_tuple};
    pub use cdb_geometry::{GeneralizedTuple, HalfPlane, LinearConstraint, Polygon, Rect, RelOp};
    pub use cdb_rplustree::RPlusTree;
    pub use cdb_storage::{IoStats, MemPager, PageReader, Pager, TrackedReader};
    pub use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, TupleGen};
}

#[cfg(test)]
#[global_allocator]
static PEAK_ALLOC: cdb_storage::conformance::PeakAlloc = cdb_storage::conformance::PeakAlloc;
