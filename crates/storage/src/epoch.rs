//! Epoch views: frozen, lock-free read snapshots of a pager, plus the
//! shared bookkeeping that makes recycling freed pages safe while such
//! snapshots are alive.
//!
//! The MVCC protocol has one writer and any number of readers:
//!
//! 1. The writer mutates its copy-on-write working set as before.
//! 2. [`Pager::publish_view`](crate::pager::Pager::publish_view) freezes
//!    the current page table into a [`SnapshotReader`] — an immutable view
//!    any thread can read without taking a lock — and starts a new
//!    *generation*. Pages captured by the view are sealed: later writes to
//!    the same logical page go to fresh physical pages.
//! 3. Physical pages superseded or freed while a view may still map them
//!    enter a **quarantine** keyed by the generation at which every
//!    then-live view must have drained. The writer sweeps the quarantine at
//!    each publish and commit; drained pages return to the free pool.
//!
//! Each view holds a `PinGuard`; dropping the view unpins its
//! generation. New views always pin the *latest* generation, so an entry
//! quarantined at generation `g` is reclaimable exactly when the oldest
//! live pin is `> g` (or no pins remain).
//!
//! Pins are taken and released from any thread; the quarantine and the
//! reclaimable pool are mutated **only by the writer** (via
//! `EpochHub::sweep` and friends), which keeps the list a commit
//! serializes stable for the duration of that commit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::pager::PageReader;

/// Operational counters of the epoch machinery, served live so a snapshot
/// taken minutes ago still reports the *current* backlog.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Generation of the latest published view (0 before the first
    /// publish). Bumped by every `publish_view`, not by durable commits.
    pub current_epoch: u64,
    /// Live reader views across all generations (each pins one epoch).
    pub pinned_epochs: u64,
    /// Freed physical pages awaiting GC until pinned readers drain.
    pub quarantined_pages: u64,
}

crate::wire_struct!(EpochStats {
    current_epoch,
    pinned_epochs,
    quarantined_pages
});

/// A frozen read view of a pager at one publish point.
///
/// The whole [`PageReader`] surface works from `&self` with no lock on the
/// page-read path; [`epoch_stats`](Self::epoch_stats) reports the owning
/// pager's *live* epoch bookkeeping (not the state at capture time).
pub trait SnapshotReader: PageReader + Send + Sync {
    /// Live epoch counters of the pager this view was published from.
    fn epoch_stats(&self) -> EpochStats;
}

#[derive(Debug, Default)]
struct HubState {
    /// Latest published generation.
    current: u64,
    /// Live pin count per generation.
    pins: BTreeMap<u64, u64>,
    /// `(safe_gen, pages)`: reclaimable once the oldest live pin is
    /// `>= safe_gen` (new pins always pin the newest generation, so this
    /// condition is monotone).
    quarantine: Vec<(u64, Vec<u32>)>,
    /// Swept out of quarantine; the writer drains these back into its free
    /// pool.
    reclaimable: Vec<u32>,
}

impl HubState {
    fn quarantined_pages(&self) -> u64 {
        self.quarantine.iter().map(|(_, p)| p.len() as u64).sum()
    }
}

/// Shared epoch bookkeeping between one writer and its published views.
///
/// Cheap to clone (an `Arc` around a small mutex-guarded table); the lock
/// is held only for pin/unpin and the writer's sweep — never on the page
/// read path.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochHub {
    state: Arc<Mutex<HubState>>,
}

impl EpochHub {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().expect("epoch hub poisoned")
    }

    /// Starts a new generation, returning it. Called by the writer at each
    /// `publish_view`.
    pub(crate) fn publish(&self) -> u64 {
        let mut st = self.lock();
        st.current += 1;
        st.current
    }

    /// Pins the current generation for a newly published view.
    pub(crate) fn pin(&self) -> PinGuard {
        let mut st = self.lock();
        let gen = st.current;
        *st.pins.entry(gen).or_insert(0) += 1;
        PinGuard {
            hub: self.clone(),
            gen,
        }
    }

    /// Quarantines freed physical pages: views published at or before the
    /// current generation may still map them, so they become reclaimable
    /// only once every such view drains.
    pub(crate) fn quarantine(&self, pages: Vec<u32>) {
        if pages.is_empty() {
            return;
        }
        let mut st = self.lock();
        let safe = st.current + 1;
        st.quarantine.push((safe, pages));
    }

    /// Restores a quarantine backlog persisted by an earlier process. No
    /// reader from that process can still exist, so the entries are
    /// immediately sweepable — but they stay visible in
    /// [`stats`](Self::stats) until the writer's next sweep.
    pub(crate) fn load_quarantine(&self, pages: Vec<u32>) {
        if pages.is_empty() {
            return;
        }
        self.lock().quarantine.push((0, pages));
    }

    /// Writer-side GC step: moves every drained quarantine entry to the
    /// reclaimable pool and returns that pool's contents. An entry is
    /// drained when no live pin is older than its safe generation.
    pub(crate) fn sweep(&self) -> Vec<u32> {
        let mut st = self.lock();
        let oldest = st.pins.keys().next().copied();
        let mut kept = Vec::new();
        let mut freed = Vec::new();
        for (safe, pages) in std::mem::take(&mut st.quarantine) {
            if oldest.is_none_or(|g| g >= safe) {
                freed.extend(pages);
            } else {
                kept.push((safe, pages));
            }
        }
        st.quarantine = kept;
        st.reclaimable.extend(freed);
        std::mem::take(&mut st.reclaimable)
    }

    /// Physical pages currently in quarantine, for persistence alongside a
    /// commit.
    pub(crate) fn quarantined(&self) -> Vec<u32> {
        let st = self.lock();
        st.quarantine
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect()
    }

    /// Live counters.
    pub(crate) fn stats(&self) -> EpochStats {
        let st = self.lock();
        EpochStats {
            current_epoch: st.current,
            pinned_epochs: st.pins.values().sum(),
            quarantined_pages: st.quarantined_pages(),
        }
    }
}

/// Keeps one view's generation pinned; dropping it unpins.
#[derive(Debug)]
pub(crate) struct PinGuard {
    hub: EpochHub,
    gen: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut st = self.hub.lock();
        if let Some(n) = st.pins.get_mut(&self.gen) {
            *n -= 1;
            if *n == 0 {
                st.pins.remove(&self.gen);
            }
        }
        // No sweep here: reclamation is writer-side only, so a commit can
        // serialize the quarantine without racing reader drops.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_waits_for_older_pins() {
        let hub = EpochHub::new();
        hub.publish();
        let pin = hub.pin(); // view at generation 1
        hub.quarantine(vec![10, 11]); // safe at generation 2
        assert!(hub.sweep().is_empty(), "generation-1 pin still live");
        assert_eq!(hub.stats().quarantined_pages, 2);
        hub.publish();
        let newer = hub.pin(); // generation 2: does not block the entry
        assert!(hub.sweep().is_empty(), "old pin still blocks");
        drop(pin);
        assert_eq!(hub.sweep(), vec![10, 11]);
        assert_eq!(hub.stats().quarantined_pages, 0);
        drop(newer);
    }

    #[test]
    fn no_pins_means_immediate_reclaim() {
        let hub = EpochHub::new();
        hub.quarantine(vec![5]);
        assert_eq!(hub.sweep(), vec![5]);
    }

    #[test]
    fn loaded_quarantine_is_visible_then_sweepable() {
        let hub = EpochHub::new();
        hub.load_quarantine(vec![7, 8, 9]);
        assert_eq!(hub.stats().quarantined_pages, 3);
        let mut got = hub.sweep();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8, 9]);
    }

    #[test]
    fn stats_count_pins_per_generation() {
        let hub = EpochHub::new();
        hub.publish();
        let a = hub.pin();
        let b = hub.pin();
        hub.publish();
        let c = hub.pin();
        assert_eq!(hub.stats().pinned_epochs, 3);
        assert_eq!(hub.stats().current_epoch, 2);
        drop(a);
        drop(c);
        assert_eq!(hub.stats().pinned_epochs, 1);
        drop(b);
        assert_eq!(hub.stats().pinned_epochs, 0);
    }
}
