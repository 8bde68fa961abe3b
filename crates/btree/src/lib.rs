//! A disk-based B⁺-tree over `cdb-storage` pages.
//!
//! This is the index substrate of the dual-representation techniques of
//! Bertino, Catania and Chidlovskii (ICDE 1999). Each `B^up`/`B^down` tree of
//! Section 3 is one [`BTree`] keyed by `TOP_P`/`BOT_P` surface values and
//! storing tuple identifiers; many trees share one pager, so the space
//! measurements of Figure 10 fall out of the pager's live-page count.
//!
//! Specifics dictated by the paper:
//!
//! * **4-byte stored values** — keys are serialized as `f32` and record ids
//!   as `u32`, giving the fan-out the paper's page geometry implies
//!   (≈ 122 leaf entries per 1024-byte page). Callers pass `f64` keys;
//!   [`layout::key_slack`] bounds the rounding and query code widens scans
//!   accordingly (the refinement step removes the resulting false hits).
//! * **`±∞` keys** — unbounded polyhedra have infinite `TOP`/`BOT` values;
//!   they are stored as IEEE infinities, which order correctly.
//! * **bidirectional leaf sweeps** — leaves form a doubly-linked list so both
//!   the upward and downward sweeps of technique T2 cost one page per leaf;
//!   both are the one [`BTree::sweep`] over a [`Direction`].
//! * **handicap slots** — each leaf reserves four `f64` slots
//!   (`low_prev`, `low_next`, `high_prev`, `high_next`; Section 4.2 Step 2)
//!   that the index layer fills and the sweep callbacks expose.

pub mod layout;
pub mod node;
pub mod tree;

pub use layout::{key_slack, Direction, Handicaps, Side, NULL_PAGE};
pub use tree::{BTree, LeafInfo, LeafSnapshot, LeafView, SweepControl};
