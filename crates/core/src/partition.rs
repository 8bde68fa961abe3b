//! Deterministic tuple-id partitioning for sharded deployments.
//!
//! A sharded deployment runs one engine per shard; every engine holds the
//! same schema but only the tuples whose ids it *owns*. Ownership is a
//! pure function of `(seed, id)` — no directory, no coordination — so any
//! client holding the same [`PartitionSpec`] parameters routes every id
//! to the same shard, and EXIST/ALL answers over the shards are unions of
//! disjoint id sets.
//!
//! Because `ConstraintDb::insert` assigns ids as `slots.len()`, a shard
//! cannot be handed an id from outside — it *allocates* only ids it owns,
//! skipping foreign ids by pushing absent slots (see
//! [`crate::db::ConstraintDb::set_partition`]). When one router feeds the
//! deployment in insert order, the allocated ids are exactly the global
//! sequence `0, 1, 2, …` spread across shards, which is what makes a
//! sharded deployment answer queries identically to one unsharded engine
//! over the same insert stream.
//!
//! The [`Partitioner`] trait keeps the assignment strategy open: id-space
//! hashing is what [`PartitionSpec`] implements today, and a slope-space
//! range partitioner (tuples grouped by the dual-plane region they occupy)
//! can implement the same trait later without touching the routing layers.

use crate::error::CdbError;

/// Assigns every tuple id to exactly one shard.
///
/// Implementations must be pure: the same id maps to the same shard on
/// every call, in every process, on every machine — routing correctness
/// and recovery determinism both lean on it.
pub trait Partitioner {
    /// Number of shards ids are spread over (at least 1).
    fn shards(&self) -> u32;
    /// The shard owning tuple `id` (always `< self.shards()`).
    fn owner(&self, id: u32) -> u32;
}

/// The shard owning `id` under id-space hash partitioning with `seed` —
/// the routing function, usable without a full [`PartitionSpec`] (clients
/// know the deployment's `(seed, shards)` but are no shard themselves).
///
/// The mix is a splitmix64-style finalizer: full-width avalanche, so
/// consecutive ids land on unrelated shards and every shard's share of n
/// ids concentrates tightly around `n / shards`.
pub fn hash_owner(seed: u64, shards: u32, id: u32) -> u32 {
    assert!(shards >= 1, "a deployment has at least one shard");
    let mut x = seed ^ (u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % u64::from(shards)) as u32
}

/// One engine's place in an id-hash-partitioned deployment: the shard
/// count, this engine's shard index, and the deployment-wide hash seed.
///
/// The spec is persisted in the catalog (and write-ahead-logged when
/// installed on a live engine), so id allocation stays deterministic
/// across process restarts, catalog reopens, and WAL replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Total number of shards in the deployment.
    pub shards: u32,
    /// This engine's shard index (`< shards`).
    pub shard: u32,
    /// Deployment-wide hash seed; identical on every shard.
    pub seed: u64,
}

// A range `new` would refuse is damage.
cdb_storage::wire_struct!(PartitionSpec { shards, shard, seed } => |s: &PartitionSpec| {
    PartitionSpec::new(s.shards, s.shard, s.seed).is_ok()
});

impl PartitionSpec {
    /// Builds a validated spec.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] when `shards` is zero or `shard` is
    /// out of range.
    pub fn new(shards: u32, shard: u32, seed: u64) -> Result<PartitionSpec, CdbError> {
        if shards == 0 {
            return Err(CdbError::UnsupportedQuery(
                "a partition spec needs at least one shard".into(),
            ));
        }
        if shard >= shards {
            return Err(CdbError::UnsupportedQuery(format!(
                "shard index {shard} out of range for {shards} shard(s)"
            )));
        }
        Ok(PartitionSpec {
            shards,
            shard,
            seed,
        })
    }

    /// Whether this engine's shard owns tuple `id`.
    pub fn owns(&self, id: u32) -> bool {
        self.owner(id) == self.shard
    }
}

impl Partitioner for PartitionSpec {
    fn shards(&self) -> u32 {
        self.shards
    }

    fn owner(&self, id: u32) -> u32 {
        hash_owner(self.seed, self.shards, id)
    }
}

impl std::fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}/{} (seed {:#x})",
            self.shard, self.shards, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PartitionSpec::new(0, 0, 1).is_err());
        assert!(PartitionSpec::new(2, 2, 1).is_err());
        assert!(PartitionSpec::new(2, 3, 1).is_err());
        assert!(PartitionSpec::new(1, 0, 1).is_ok());
    }

    #[test]
    fn ownership_is_deterministic_and_total() {
        // Two independently constructed specs agree on every id — the
        // property every router and every restarted engine relies on.
        let a = PartitionSpec::new(4, 0, 0xC0FFEE).unwrap();
        let b = PartitionSpec::new(4, 3, 0xC0FFEE).unwrap();
        for id in 0..10_000 {
            let owner = a.owner(id);
            assert!(owner < 4);
            assert_eq!(owner, b.owner(id));
            assert_eq!(owner, hash_owner(0xC0FFEE, 4, id));
        }
    }

    #[test]
    fn shares_are_balanced() {
        // Avalanche check: over n ids each of k shards holds n/k ± a few
        // percent, for several seeds and shard counts.
        for &seed in &[0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for &shards in &[2u32, 3, 5, 8] {
                let n = 40_000u32;
                let mut counts = vec![0u32; shards as usize];
                for id in 0..n {
                    counts[hash_owner(seed, shards, id) as usize] += 1;
                }
                let expect = n / shards;
                for (k, &c) in counts.iter().enumerate() {
                    assert!(
                        (c as i64 - expect as i64).unsigned_abs() < u64::from(expect) / 10,
                        "seed {seed:#x}, {shards} shards: shard {k} holds {c} of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_is_pinned_for_on_disk_compatibility() {
        // Golden values. Ownership is persisted implicitly in every shard
        // file (each holds exactly the ids it hashed to), so changing the
        // mix would corrupt every existing deployment on restart. If this
        // test fails, the hash changed — don't update the constants, make
        // the change a new partitioner instead.
        let got: Vec<u32> = (0..16).map(|id| hash_owner(0xC0DB, 4, id)).collect();
        assert_eq!(got, [0, 0, 1, 3, 1, 0, 1, 0, 0, 2, 3, 0, 1, 0, 3, 0]);
        let got: Vec<u32> = (0..12).map(|id| hash_owner(7, 3, id)).collect();
        assert_eq!(got, [1, 1, 0, 2, 0, 1, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn different_seeds_shuffle_ownership() {
        let disagreements = (0..1000)
            .filter(|&id| hash_owner(1, 4, id) != hash_owner(2, 4, id))
            .count();
        assert!(disagreements > 500, "seed barely matters: {disagreements}");
    }
}
