//! Sharding: a fan-out/merge client over hash-partitioned shard groups.
//!
//! A sharded deployment splits one logical constraint database across `K`
//! independent shard groups, each a primary plus optional followers
//! running the unmodified server. Partitioning is by **tuple id**: shard
//! ownership is [`cdb_core::hash_owner`]`(seed, K, id)`, and every shard
//! carries the same persisted [`cdb_core::PartitionSpec`], so an engine
//! only ever *assigns* ids it owns (foreign ids are skipped at insert).
//! The shards' id spaces are therefore disjoint by construction, which
//! makes the merge rules trivial and exact:
//!
//! * **EXIST/ALL selections** — every shard evaluates the same selection
//!   over its local tuples; the global answer is the sorted union of the
//!   per-shard id sets (no duplicates possible), with I/O accounting
//!   summed.
//! * **Single-relation SQL** — rows emerge from each shard in ascending
//!   id order, so per-shard `LIMIT n` + a merge sort by id + a final
//!   truncation to `n` is equivalent to running `LIMIT n` on one node.
//!   Cross-shard joins are refused with a typed error rather than
//!   answered wrong.
//! * **DML** — an insert is routed to the shard that owns the next
//!   global id (so sharded deployments assign the *same* ids a single
//!   node would, in the same order); deletes and point fetches are routed
//!   by the id's owner. A node that receives a misrouted id answers
//!   [`NetError::WrongShard`] naming the owner, which the client follows
//!   once.
//!
//! Each shard group is driven by its own [`ClusterClient`], so failover,
//! backoff and read-your-writes (per-shard LSN watermarks) compose with
//! sharding instead of being reimplemented under it.

use std::collections::HashMap;
use std::fmt;

use cdb_core::query::{QueryResult, QueryStats};
use cdb_core::sql::SqlOutcome;

use crate::api::{
    expect_explain, expect_query, expect_relations, expect_sql, expect_unit, Api, Backend,
    StatsReply,
};
use crate::cluster::{ClusterClient, ClusterConfig};
use crate::proto::{NetError, Request, Response};

/// An epoch-versioned map from shard id to that shard's member
/// addresses: the first address of each group is the primary, the rest
/// are followers. The epoch lets servers and clients detect that they
/// disagree about the topology (a [`NetError::WrongShard`] redirect
/// carries the server's epoch).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    seed: u64,
    groups: Vec<Vec<String>>,
}

impl ShardMap {
    /// Builds a map from a spec string: shard groups separated by `;`,
    /// member addresses within a group by `,`, the first member of each
    /// group being the primary — e.g.
    /// `"127.0.0.1:4001,127.0.0.1:4002;127.0.0.1:4003"` is two shards,
    /// the first with one follower.
    ///
    /// # Errors
    /// [`NetError::Malformed`] for an empty spec, an empty group, or an
    /// empty address.
    pub fn parse(spec: &str, seed: u64, epoch: u64) -> Result<ShardMap, NetError> {
        let mut groups = Vec::new();
        for group in spec.split(';') {
            let members: Vec<String> = group.split(',').map(|a| a.trim().to_string()).collect();
            if members.iter().any(String::is_empty) {
                return Err(NetError::Malformed(format!(
                    "bad shard spec {spec:?}: every `;`-separated group needs \
                     `,`-separated non-empty addresses"
                )));
            }
            groups.push(members);
        }
        if groups.is_empty() {
            return Err(NetError::Malformed(
                "a shard map needs at least one shard group".into(),
            ));
        }
        Ok(ShardMap {
            epoch,
            seed,
            groups,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.groups.len() as u32
    }

    /// The map's topology epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The deployment-wide partition hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Member addresses of shard `i` (primary first).
    pub fn group(&self, i: u32) -> &[String] {
        &self.groups[i as usize]
    }

    /// The shard owning tuple id `id`.
    pub fn owner(&self, id: u32) -> u32 {
        cdb_core::hash_owner(self.seed, self.shards(), id)
    }
}

impl fmt::Display for ShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard map: {} shards, seed {:#x}, epoch {}",
            self.shards(),
            self.seed,
            self.epoch
        )?;
        for (i, group) in self.groups.iter().enumerate() {
            write!(f, "  shard {i}: {} (primary)", group[0])?;
            for follower in &group[1..] {
                write!(f, ", {follower}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A sharded deployment as a [`Backend`]: owner-routed DML, concurrent
/// fan-out reads, exact merges. See the module docs for the routing and
/// merge rules.
pub struct Shards {
    map: ShardMap,
    clients: Vec<ClusterClient>,
    /// Predicted next global id per relation, kept in lockstep with the
    /// servers' assignments and resynced from every acknowledged insert.
    next_ids: HashMap<String, u32>,
}

/// The typed API over a sharded deployment.
pub type ShardedClient = Api<Shards>;

impl ShardedClient {
    /// Builds a client over the map, one [`ClusterClient`] per shard
    /// group (connections are lazy). The cluster config applies to every
    /// group; the backoff seed is decorrelated per shard.
    ///
    /// # Errors
    /// [`NetError::Malformed`] when a group's member list is empty
    /// (already ruled out by [`ShardMap::parse`]).
    pub fn new(map: ShardMap, config: ClusterConfig) -> Result<ShardedClient, NetError> {
        let clients = map
            .groups
            .iter()
            .enumerate()
            .map(|(i, group)| {
                let mut c = config;
                c.seed ^= (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ClusterClient::new(group.iter().cloned(), c)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Api(Shards {
            map,
            clients,
            next_ids: HashMap::new(),
        }))
    }
}

impl Shards {
    /// The shard map this client routes by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Runs `f` against every shard concurrently (scoped threads, one per
    /// shard) and returns the outcomes in shard order.
    fn fan_out<T, F>(&mut self, f: F) -> Vec<Result<T, NetError>>
    where
        T: Send,
        F: Fn(&mut ClusterClient) -> Result<T, NetError> + Sync,
    {
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| s.spawn(move || f(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(NetError::Transport("a shard worker panicked".into()))
                    })
                })
                .collect()
        })
    }

    /// Fans the request out to every shard and demands success everywhere
    /// — DDL and merged reads have no partial-success story.
    fn all_shards(&mut self, request: &Request) -> Result<Vec<Response>, NetError> {
        self.fan_out(|c| c.call(request.clone()))
            .into_iter()
            .collect()
    }

    /// `stats` from every member of every shard: one `(shard, address,
    /// outcome)` row per member, in map order — the fan-in behind the
    /// shell's `cluster stats` table.
    #[allow(clippy::type_complexity)]
    pub fn member_stats(&mut self) -> Vec<(u32, String, Result<StatsReply, NetError>)> {
        let rows = self.fan_out(|c| Ok(c.member_stats()));
        rows.into_iter()
            .enumerate()
            .flat_map(|(shard, rows)| {
                rows.unwrap_or_default()
                    .into_iter()
                    .map(move |(addr, reply)| (shard as u32, addr, reply))
            })
            .collect()
    }
}

impl Backend for Shards {
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        match &request {
            // Routed to the shard owning the next global id — so a sharded
            // deployment assigns exactly the ids a single node would, in
            // the same order. The counter resyncs from every acknowledged
            // id, which also recovers from other writers or pre-existing
            // data.
            Request::Insert { relation, .. } => {
                let relation = relation.clone();
                let next = self.next_ids.get(&relation).copied().unwrap_or(0);
                let shard = self.map.owner(next);
                let response = self.clients[shard as usize].call(request)?;
                if let Response::Inserted(id) = response {
                    self.next_ids.insert(relation, id + 1);
                }
                Ok(response)
            }
            // Routed to the shard owning the id; a `WrongShard` redirect
            // (stale map) is followed once.
            Request::Delete { id, .. } | Request::FetchTuple { id, .. } => {
                let shard = self.map.owner(*id);
                match self.clients[shard as usize].call(request.clone()) {
                    Err(NetError::WrongShard { hint, .. })
                        if hint != shard && (hint as usize) < self.clients.len() =>
                    {
                        self.clients[hint as usize].call(request)
                    }
                    outcome => outcome,
                }
            }
            // The shards' id sets are disjoint, so the global answer is
            // their sorted union, with I/O accounting summed.
            Request::Query { .. } | Request::QueryLine { .. } => {
                let parts = self.all_shards(&request)?;
                let parts = parts
                    .into_iter()
                    .map(expect_query)
                    .collect::<Result<_, _>>()?;
                Ok(Response::Query((&merge_results(parts)).into()))
            }
            // The per-shard reports labeled and concatenated, the results
            // merged like a query's.
            Request::Explain { .. } => {
                let mut rendered = Vec::new();
                let mut results = Vec::new();
                for (shard, part) in self.all_shards(&request)?.into_iter().enumerate() {
                    let (report, result) = expect_explain(part)?;
                    rendered.push(format!("shard {shard}:\n{}", report.trim_end()));
                    results.push(result);
                }
                Ok(Response::Explain {
                    rendered: rendered.join("\n"),
                    result: (&merge_results(results)).into(),
                })
            }
            // Rows merged by ascending id, `LIMIT` re-applied after the
            // merge (exact: each shard's rows are already its `LIMIT`-sized
            // ascending-id prefix). Multi-relation queries are refused — a
            // per-shard join would silently drop every cross-shard pair.
            Request::Sql { text, .. } => {
                let query = match cdb_core::sql::parse(text) {
                    Ok(q) => q,
                    // Let one engine report the parse error with its own
                    // (richer) diagnostics — it fails the same everywhere.
                    Err(_) => return self.clients[0].call(request),
                };
                if query.relations.len() > 1 {
                    return Err(NetError::Malformed(format!(
                        "cross-shard joins are not supported: the query names {} relations \
                         and shards hold disjoint id ranges of each",
                        query.relations.len()
                    )));
                }
                let parts = self.all_shards(&request)?;
                let parts = parts
                    .into_iter()
                    .map(expect_sql)
                    .collect::<Result<_, _>>()?;
                Ok(Response::Sql(merge_sql(parts, query.limit)))
            }
            // Sorted union — normally identical on every shard, since DDL
            // fans out.
            Request::ListRelations => {
                let mut names = Vec::new();
                for part in self.all_shards(&request)? {
                    names.extend(expect_relations(part)?);
                }
                names.sort();
                names.dedup();
                Ok(Response::Relations(names))
            }
            // Liveness, DDL, index builds and checkpoints apply to every
            // shard.
            Request::Ping
            | Request::CreateRelation { .. }
            | Request::DropRelation { .. }
            | Request::BuildDual { .. }
            | Request::BuildDualD { .. }
            | Request::BuildRPlus { .. }
            | Request::Checkpoint => {
                for part in self.all_shards(&request)? {
                    expect_unit(part)?;
                }
                match request {
                    Request::CreateRelation { relation, .. } => {
                        self.next_ids.insert(relation, 0);
                    }
                    Request::DropRelation { relation } => {
                        self.next_ids.remove(&relation);
                    }
                    _ => {}
                }
                Ok(Response::Unit)
            }
            // One node's answer is a fragment of the deployment's.
            Request::Stats | Request::Fsck | Request::Shutdown | Request::Subscribe { .. } => {
                Err(NetError::Malformed(format!(
                    "'{}' has no single answer on a sharded session — address one member \
                 (the shell's 'cluster stats' walks them all)",
                    request.op_name()
                )))
            }
        }
    }
}

/// Sorted union of disjoint per-shard results, I/O accounting summed.
fn merge_results(parts: Vec<QueryResult>) -> QueryResult {
    let mut ids = Vec::new();
    let mut stats = QueryStats::default();
    for part in parts {
        ids.extend_from_slice(part.ids());
        stats.accumulate(&part.stats);
    }
    QueryResult::new(ids, stats)
}

/// Merges per-shard SQL outcomes: rows sorted by their id vector and cut
/// to `limit`, plans concatenated, accounting summed.
fn merge_sql(parts: Vec<SqlOutcome>, limit: Option<u64>) -> SqlOutcome {
    let mut merged = SqlOutcome {
        columns: Vec::new(),
        rows: Vec::new(),
        plan: None,
        stats: QueryStats::default(),
    };
    let mut plans = Vec::new();
    for (shard, part) in parts.into_iter().enumerate() {
        if merged.columns.is_empty() {
            merged.columns = part.columns;
        }
        merged.rows.extend(part.rows);
        if let Some(p) = part.plan {
            plans.push(format!("shard {shard}:\n{p}"));
        }
        merged.stats.accumulate(&part.stats);
    }
    merged.rows.sort_by(|a, b| a.ids.cmp(&b.ids));
    if let Some(n) = limit {
        merged.rows.truncate(n as usize);
    }
    if !plans.is_empty() {
        merged.plan = Some(plans.join("\n"));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_parses_groups_and_rejects_garbage() {
        let map = ShardMap::parse("a:1,b:2;c:3", 7, 2).unwrap();
        assert_eq!(map.shards(), 2);
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.group(0), ["a:1", "b:2"]);
        assert_eq!(map.group(1), ["c:3"]);
        assert!(ShardMap::parse("", 7, 0).is_err());
        assert!(ShardMap::parse("a:1;;b:2", 7, 0).is_err());
        assert!(ShardMap::parse("a:1,;b:2", 7, 0).is_err());
    }

    #[test]
    fn shard_map_ownership_matches_the_engine_hash() {
        let map = ShardMap::parse("a;b;c", 0xC0FFEE, 0).unwrap();
        for id in 0..1000 {
            assert_eq!(map.owner(id), cdb_core::hash_owner(0xC0FFEE, 3, id));
            assert!(map.owner(id) < 3);
        }
    }

    #[test]
    fn merged_sql_rows_are_sorted_and_limited() {
        use cdb_core::sql::SqlRow;
        let outcome = |ids: &[u32]| SqlOutcome {
            columns: vec!["r".into()],
            rows: ids
                .iter()
                .map(|&i| SqlRow {
                    ids: vec![i],
                    region: None,
                })
                .collect(),
            plan: None,
            stats: QueryStats::default(),
        };
        let merged = merge_sql(vec![outcome(&[1, 5, 9]), outcome(&[0, 2, 4])], Some(4));
        let ids: Vec<u32> = merged.rows.iter().map(|r| r.ids[0]).collect();
        assert_eq!(ids, [0, 1, 2, 4]);
        assert_eq!(merged.columns, ["r"]);
    }
}
