//! I/O accounting — the metric reported by every experiment.

/// Counters of page-level operations performed through a pager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read (one per page visit; re-reads of the same page count).
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Pages freed.
    pub frees: u64,
}

crate::wire_struct!(IoStats {
    reads,
    writes,
    allocations,
    frees
});

impl IoStats {
    /// Total page accesses (reads + writes) — the headline experiment metric.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise difference `self − earlier`, for measuring a window.
    ///
    /// # Panics
    /// Panics (in debug builds) if `earlier` is not a prefix of `self`.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        debug_assert!(self.reads >= earlier.reads && self.writes >= earlier.writes);
        IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocations: self.allocations - earlier.allocations,
            frees: self.frees - earlier.frees,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            allocations: self.allocations + other.allocations,
            frees: self.frees + other.frees,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} (accesses={})",
            self.reads,
            self.writes,
            self.accesses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_sums_reads_and_writes() {
        let s = IoStats {
            reads: 3,
            writes: 2,
            allocations: 1,
            frees: 0,
        };
        assert_eq!(s.accesses(), 5);
    }

    #[test]
    fn since_window() {
        let before = IoStats {
            reads: 10,
            writes: 5,
            allocations: 2,
            frees: 1,
        };
        let after = IoStats {
            reads: 14,
            writes: 6,
            allocations: 2,
            frees: 1,
        };
        let w = after.since(&before);
        assert_eq!(w.reads, 4);
        assert_eq!(w.writes, 1);
        assert_eq!(w.accesses(), 5);
    }

    #[test]
    fn plus_accumulates() {
        let a = IoStats {
            reads: 1,
            writes: 2,
            allocations: 3,
            frees: 4,
        };
        let b = a.plus(&a);
        assert_eq!(b.reads, 2);
        assert_eq!(b.frees, 8);
    }
}
