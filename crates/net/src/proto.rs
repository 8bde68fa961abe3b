//! The `cdb` wire protocol: typed requests/responses over crc-framed
//! record payloads.
//!
//! Every message is one frame ([`cdb_storage::write_frame`] /
//! [`cdb_storage::read_frame`]: `[len u32][payload][crc32 u32]`), whose
//! payload is the message type's [`Wire`] layout — the same trait, over
//! the same fallible [`RecordWriter`] / [`RecordReader`] pair, that lays
//! out the durable catalog and the WAL records: little-endian,
//! length-prefixed strings, explicit tags. Each type in this file declares
//! its layout once, in the `wire_struct!` / `wire_enum!` line under it (the
//! engine's own types declare theirs in `cdb-core`). Decoding therefore
//! *fails* (never panics, never over-allocates) on torn, malicious or
//! version-skewed bytes, exactly like catalog reads.
//!
//! Connection lifecycle:
//!
//! 1. **Greeting** (server → client, immediately on accept):
//!    `[magic "CDBN"][version u16][status u8]`. A non-zero status
//!    (version-mismatch / overloaded / shutting-down) means the server is
//!    refusing the session and will close the socket.
//! 2. **Hello** (client → server): `[magic "CDBN"][version u16]`. The
//!    server verifies magic and version before serving any request.
//! 3. **Requests** (client → server):
//!    `[request_id u64][deadline_ms u32][op u8][op body]`. `deadline_ms`
//!    is relative to receipt; 0 means no deadline.
//! 4. **Responses** (server → client):
//!    `[request_id u64][lsn u64][status u8][body]` where status 0 carries
//!    a tagged [`Response`] and any other status is the tag of a
//!    [`NetError`]. The request id is echoed verbatim. `lsn` stamps the state the
//!    answer reflects — the snapshot's applied LSN for reads, the durable
//!    LSN after the batch for writes.
//!
//! Structured errors survive the wire: every [`CdbError`] variant —
//! including `Quarantined`, `ReadOnly` and `CorruptRecord` — has a stable
//! tag, so a client can distinguish "your query is wrong" from "the
//! relation is quarantined" without parsing message strings.

use cdb_core::query::{QueryResult, QueryStats, Selection, SelectionKind, Strategy};
use cdb_core::sql::{SqlMode, SqlOutcome};
use cdb_core::wire::tuple;
use cdb_core::{CdbError, DbStats, RelationHealth, WalReplay};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::codec::{self, ascending, finite};
use cdb_storage::{
    wire_enum, wire_struct, CodecError, PagerRecovery, RecordReader, RecordWriter, Wire,
};

/// Protocol magic, first bytes of both greeting and hello.
pub const MAGIC: [u8; 4] = *b"CDBN";

/// Protocol version spoken by this build. Bumped on any frame-layout or
/// tag change; the handshake refuses mismatched peers. Version 2 added
/// the WAL fields to `Stats` and `Fsck` responses; version 3 added the
/// epoch counters to `Stats` and the quarantine verdict to `Fsck`;
/// version 4 added the `Sql` request/response pair; version 5 added
/// replication (a subscription request, WAL stream frames, a follower
/// redirect error, a replication section in `Stats`) and an LSN stamp on
/// every response envelope; version 6 added sharding (a redirect error,
/// and the active-session count plus a shard identity in `Stats`); version
/// 7 gave every type its one `Wire` layout: `Strategy` and `SelectionKind`
/// take the catalog's tags, the replication section of `Stats` and the
/// quarantine verdict of `Fsck` are plain `Option`s, and
/// `Transport`/`Timeout` have error tags; version 8 dropped sharding (the
/// redirect error and the shard identity in `Stats`) and added the
/// engine's dimension and tuple-size refusals; version 9 dropped
/// replication (request tag 18, response tag 9, the stream frames, error
/// tag 7 and the replication section of `Stats`); version 10 dropped the
/// planner's cost estimate from `QueryStats` and added its count of
/// candidates rejected by key; version 11 retired `MethodKind` tag 3 (the
/// d-dimensional index is the dual index over slope points, and its
/// queries name the restricted search or T2); version 12 retired T1:
/// `Strategy` tag 2 and `MethodKind` tag 1.
pub const PROTOCOL_VERSION: u16 = 12;

/// Handshake verdict carried by the server's greeting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeStatus {
    /// Session admitted; requests may follow.
    Ok,
    /// The server speaks a different protocol version.
    VersionMismatch,
    /// Admission control refused the session (connection limit or request
    /// queue full). Retry later.
    Overloaded,
    /// The server is draining for shutdown and accepts no new sessions.
    ShuttingDown,
}

wire_enum!(HandshakeStatus { 0 => Ok, 1 => VersionMismatch, 2 => Overloaded, 3 => ShuttingDown });

/// The length-prefixed [`MAGIC`] that opens both handshake payloads.
struct Magic;

impl Wire for Magic {
    fn put(&self, w: &mut RecordWriter) {
        w.put_bytes(&MAGIC)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        if r.get_bytes()? == MAGIC {
            Ok(Magic)
        } else {
            Err(CodecError::Invalid("handshake magic"))
        }
    }
}

/// Encodes the server's greeting payload.
pub fn encode_greeting(version: u16, status: HandshakeStatus) -> Vec<u8> {
    codec::encode(&(Magic, version, status))
}

/// Decodes a greeting payload into `(server_version, status)`.
pub fn decode_greeting(buf: &[u8]) -> Result<(u16, HandshakeStatus), CodecError> {
    let (Magic, version, status) = codec::decode(buf)?;
    Ok((version, status))
}

/// Encodes the client's hello payload.
pub fn encode_hello(version: u16) -> Vec<u8> {
    codec::encode(&(Magic, version))
}

/// Decodes a hello payload into the client's version.
pub fn decode_hello(buf: &[u8]) -> Result<u16, CodecError> {
    let (Magic, version) = codec::decode(buf)?;
    Ok(version)
}

/// One operation a client can ask the server to perform. Mirrors the
/// engine facade (and through it, every `cdb` shell command).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Unit`].
    Ping,
    /// `ConstraintDb::create_relation`.
    CreateRelation {
        /// Relation name.
        relation: String,
        /// Tuple dimension.
        dim: u32,
    },
    /// `ConstraintDb::drop_relation`.
    DropRelation {
        /// Relation name.
        relation: String,
    },
    /// `ConstraintDb::insert`; answered with [`Response::Inserted`].
    Insert {
        /// Target relation.
        relation: String,
        /// The tuple to store.
        tuple: GeneralizedTuple,
    },
    /// `ConstraintDb::delete`; answered with the removed tuple.
    Delete {
        /// Target relation.
        relation: String,
        /// Tuple id.
        id: u32,
    },
    /// `ConstraintDb::build_dual_index` over an explicit slope set (2-D).
    BuildDual {
        /// Target relation.
        relation: String,
        /// Slopes of `S` (≥ 2 distinct finite values).
        slopes: Vec<f64>,
    },
    /// `ConstraintDb::build_dual_index` over a regular grid of slope points
    /// of the relation's dimension.
    BuildDualD {
        /// Target relation.
        relation: String,
        /// Grid points per slope axis (≥ 2).
        per_axis: u32,
        /// Grid half-extent per axis.
        range: f64,
    },
    /// `ConstraintDb::build_rplus_index`.
    BuildRPlus {
        /// Target relation.
        relation: String,
        /// Packing fill factor.
        fill: f64,
    },
    /// `ConstraintDb::query_with`; answered with [`Response::Query`].
    Query {
        /// Target relation.
        relation: String,
        /// The ALL/EXIST half-plane selection.
        selection: Selection,
        /// Execution strategy (`Auto` = planner).
        strategy: Strategy,
    },
    /// `ConstraintDb::explain`; answered with the rendered report plus the
    /// executed result.
    Explain {
        /// Target relation.
        relation: String,
        /// The selection to plan and execute.
        selection: Selection,
    },
    /// `ConstraintDb::exist_line` / `all_line` — the paper's equality
    /// (line) query convenience; answered with [`Response::Query`].
    QueryLine {
        /// Target relation.
        relation: String,
        /// EXIST (intersects the line) or ALL (lies on the line).
        kind: SelectionKind,
        /// Line slope in `y = a·x + c`.
        a: f64,
        /// Line intercept in `y = a·x + c`.
        c: f64,
    },
    /// `ConstraintDb::sql` / `Snapshot::sql` — one constraint-SQL
    /// statement through the operator pipeline; answered with
    /// [`Response::Sql`]. A read: the server runs it against the latest
    /// snapshot, never the writer lane.
    Sql {
        /// The SQL text.
        text: String,
        /// Execute / explain / explain-analyze.
        mode: SqlMode,
    },
    /// `ConstraintDb::fetch_tuple`; answered with [`Response::Tuple`].
    FetchTuple {
        /// Target relation.
        relation: String,
        /// Tuple id.
        id: u32,
    },
    /// `ConstraintDb::relation_names`.
    ListRelations,
    /// `ConstraintDb::stats_snapshot`.
    Stats,
    /// `ConstraintDb::verify_now` — online page verification.
    Fsck,
    /// `ConstraintDb::checkpoint` — explicit durable commit.
    Checkpoint,
    /// Begin graceful shutdown: the server stops admitting sessions,
    /// drains in-flight requests, checkpoints, and exits.
    Shutdown,
}

impl Request {
    /// `true` when the operation mutates the database and must go through
    /// the server's single writer lane.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::CreateRelation { .. }
                | Request::DropRelation { .. }
                | Request::Insert { .. }
                | Request::Delete { .. }
                | Request::BuildDual { .. }
                | Request::BuildDualD { .. }
                | Request::BuildRPlus { .. }
                | Request::Checkpoint
        )
    }

    /// Operation name for logs and metrics.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::CreateRelation { .. } => "create",
            Request::DropRelation { .. } => "drop",
            Request::Insert { .. } => "insert",
            Request::Delete { .. } => "delete",
            Request::BuildDual { .. } => "index",
            Request::BuildDualD { .. } => "index-d",
            Request::BuildRPlus { .. } => "rplus",
            Request::Query { .. } => "query",
            Request::Explain { .. } => "explain",
            Request::QueryLine { .. } => "line",
            Request::Sql { .. } => "sql",
            Request::FetchTuple { .. } => "show",
            Request::ListRelations => "relations",
            Request::Stats => "stats",
            Request::Fsck => "fsck",
            Request::Checkpoint => "checkpoint",
            Request::Shutdown => "shutdown",
        }
    }
}

wire_enum!(Request {
    0 => Ping,
    1 => CreateRelation { relation, dim },
    2 => DropRelation { relation },
    3 => Insert { relation, tuple as tuple },
    4 => Delete { relation, id },
    5 => BuildDual { relation, slopes as finite },
    6 => BuildDualD { relation, per_axis, range as finite },
    7 => BuildRPlus { relation, fill as finite },
    8 => Query { relation, strategy, selection },
    9 => Explain { relation, selection },
    10 => FetchTuple { relation, id },
    11 => ListRelations,
    12 => Stats,
    13 => Fsck,
    14 => Checkpoint,
    15 => Shutdown,
    16 => QueryLine { relation, kind, a as finite, c as finite },
    17 => Sql { text, mode },
});

/// A request frame: id, relative deadline, operation.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen id, echoed verbatim in the response.
    pub request_id: u64,
    /// Relative deadline in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// The operation.
    pub request: Request,
}

wire_struct!(RequestEnvelope {
    request_id,
    deadline_ms,
    request
});

/// Successful response bodies, tagged so the decoder is self-describing.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Acknowledgement with no payload.
    Unit,
    /// Id assigned by an insert.
    Inserted(u32),
    /// A stored tuple (delete returns the removed one, show a fetched one).
    Tuple(GeneralizedTuple),
    /// Query outcome: matching ids plus full cost accounting.
    Query(WireQueryResult),
    /// EXPLAIN ANALYZE outcome: rendered report plus the executed result.
    Explain {
        /// The report as rendered by `ExplainReport::render`.
        rendered: String,
        /// The executed query result.
        result: WireQueryResult,
    },
    /// Constraint-SQL outcome: columns, rows and/or a rendered plan.
    Sql(SqlOutcome),
    /// Relation names, sorted.
    Relations(Vec<String>),
    /// Engine statistics snapshot plus the serving node's session count.
    Stats {
        /// Engine statistics.
        db: DbStats,
        /// Client sessions currently admitted (the serving layer's
        /// connection count, the one admission control caps).
        connections: u32,
    },
    /// Online verification report.
    Fsck(WireRecoveryReport),
}

wire_enum!(Response {
    0 => Unit,
    1 => Inserted(id),
    2 => Tuple(t as tuple),
    3 => Query(result),
    4 => Explain { rendered, result },
    5 => Relations(names),
    6 => Stats { db, connections },
    7 => Fsck(report),
    8 => Sql(outcome),
});

/// A [`QueryResult`] in transportable form: ids are sorted and unique
/// (validated on decode), stats carry the full planner accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct WireQueryResult {
    /// Matching tuple ids, ascending.
    pub ids: Vec<u32>,
    /// Execution statistics, including the search that ran when planned.
    pub stats: QueryStats,
}

wire_struct!(WireQueryResult { ids as ascending, stats });

impl From<&QueryResult> for WireQueryResult {
    fn from(r: &QueryResult) -> Self {
        WireQueryResult {
            ids: r.ids().to_vec(),
            stats: r.stats,
        }
    }
}

/// `ConstraintDb::verify_now` report in transportable form.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRecoveryReport {
    /// Header recovery performed at open.
    pub pager: PagerRecovery,
    /// Write-ahead-log replay performed at open, if a log was present.
    pub wal: Option<WalReplay>,
    /// `(relation, health)` pairs, sorted by name.
    pub relations: Vec<(String, RelationHealth)>,
    /// Deferred-reclaim (quarantine) cross-check: `Some(true)` when every
    /// quarantined page is non-live, `Some(false)` on a violation, `None`
    /// for engines without a durable quarantine.
    pub quarantine: Option<bool>,
}

wire_struct!(WireRecoveryReport {
    pager,
    wal,
    relations,
    quarantine
});

/// Failure responses. `Db` carries the engine's structured error; the
/// rest are conditions of the serving layer itself.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// The engine refused the operation.
    Db(CdbError),
    /// Admission control refused the request (queue full). Retry later.
    Overloaded,
    /// The request's deadline expired before execution began.
    DeadlineExceeded,
    /// The request frame failed to decode; the session is closed.
    Malformed(String),
    /// The server is draining for shutdown.
    ShuttingDown,
    /// Handshake failure: the server speaks `server_version`.
    VersionMismatch {
        /// Version advertised by the server's greeting.
        server_version: u16,
    },
    /// Client-side transport failure (connection reset, frame corruption).
    /// No server generates it.
    Transport(String),
    /// A client-side socket timeout: the peer was slow, hung or
    /// blackholed. The request may or may not have executed, so only
    /// idempotent operations should be retried. No server generates it.
    Timeout,
}

// Tags are the response envelope's status byte; 0 is taken by success,
// 7 was the replication redirect and 8 the sharding one.
wire_enum!(NetError {
    1 => Db(e),
    2 => Overloaded,
    3 => DeadlineExceeded,
    4 => Malformed(why),
    5 => ShuttingDown,
    6 => VersionMismatch { server_version },
    9 => Transport(why),
    10 => Timeout,
});

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Db(e) => write!(f, "{e}"),
            NetError::Overloaded => write!(f, "server overloaded, retry later"),
            NetError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            NetError::Malformed(m) => write!(f, "malformed request: {m}"),
            NetError::ShuttingDown => write!(f, "server is shutting down"),
            NetError::VersionMismatch { server_version } => {
                write!(
                    f,
                    "protocol version mismatch: server speaks v{server_version}, client v{PROTOCOL_VERSION}"
                )
            }
            NetError::Transport(m) => write!(f, "transport failure: {m}"),
            NetError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for NetError {}

// ------------------------------------------------------------------ frames

/// Encodes a request envelope into a frame payload.
pub fn encode_request(env: &RequestEnvelope) -> Vec<u8> {
    codec::encode(env)
}

/// Decodes a request frame payload.
pub fn decode_request(buf: &[u8]) -> Result<RequestEnvelope, CodecError> {
    codec::decode(buf)
}

/// Encodes a response frame payload: `Ok(response)` or `Err(error)` for
/// the given request id. `lsn` stamps the state the answer reflects (see
/// the module docs).
pub fn encode_response(request_id: u64, lsn: u64, outcome: &Result<Response, NetError>) -> Vec<u8> {
    let mut w = RecordWriter::new();
    (request_id, lsn).put(&mut w);
    outcome.put(&mut w);
    w.into_bytes()
}

/// Decodes a response frame payload into `(request_id, lsn, outcome)`.
#[allow(clippy::type_complexity)]
pub fn decode_response(buf: &[u8]) -> Result<(u64, u64, Result<Response, NetError>), CodecError> {
    codec::decode(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::plan::MethodKind;
    use cdb_core::sql::SqlRow;
    use cdb_core::{RelationStats, WalStats};
    use cdb_geometry::constraint::{LinearConstraint, RelOp};
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_storage::conformance::{conformance, wire_conformance};
    use cdb_storage::{EpochStats, IoStats};

    fn sample_tuple() -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new(vec![0.0, 1.0], -1.0, RelOp::Ge),
            LinearConstraint::new(vec![0.0, 1.0], 3.0, RelOp::Le),
            LinearConstraint::new(vec![1.0, 1.0], 5.0, RelOp::Le),
        ])
    }

    /// The sample after `prev`, one arm per variant: a new variant does
    /// not compile until it is given a sample here. The same shape serves
    /// `Response`, `NetError` and `CdbError` below.
    fn request_after(prev: Option<&Request>) -> Option<Request> {
        let relation = || "r".to_string();
        Some(match prev {
            None => Request::Ping,
            Some(Request::Ping) => Request::CreateRelation {
                relation: relation(),
                dim: 3,
            },
            Some(Request::CreateRelation { .. }) => Request::DropRelation {
                relation: relation(),
            },
            Some(Request::DropRelation { .. }) => Request::Insert {
                relation: relation(),
                tuple: sample_tuple(),
            },
            Some(Request::Insert { .. }) => Request::Delete {
                relation: relation(),
                id: 7,
            },
            Some(Request::Delete { .. }) => Request::BuildDual {
                relation: relation(),
                slopes: vec![-1.0, 0.5, 2.0],
            },
            Some(Request::BuildDual { .. }) => Request::BuildDualD {
                relation: relation(),
                per_axis: 3,
                range: 2.0,
            },
            Some(Request::BuildDualD { .. }) => Request::BuildRPlus {
                relation: relation(),
                fill: 0.7,
            },
            Some(Request::BuildRPlus { .. }) => Request::Query {
                relation: relation(),
                selection: Selection::exist(HalfPlane::above(0.3, -5.0)),
                strategy: Strategy::Auto,
            },
            Some(Request::Query { .. }) => Request::Explain {
                relation: relation(),
                selection: Selection::all(HalfPlane::new(vec![0.1, -0.2], 1.0, RelOp::Le)),
            },
            Some(Request::Explain { .. }) => Request::QueryLine {
                relation: relation(),
                kind: SelectionKind::Exist,
                a: 0.5,
                c: 2.0,
            },
            Some(Request::QueryLine { .. }) => Request::Sql {
                text: "SELECT x, y FROM r JOIN s WHERE x <= 1 EXIST".into(),
                mode: SqlMode::ExplainAnalyze,
            },
            Some(Request::Sql { .. }) => Request::FetchTuple {
                relation: relation(),
                id: 9,
            },
            Some(Request::FetchTuple { .. }) => Request::ListRelations,
            Some(Request::ListRelations) => Request::Stats,
            Some(Request::Stats) => Request::Fsck,
            Some(Request::Fsck) => Request::Checkpoint,
            Some(Request::Checkpoint) => Request::Shutdown,
            Some(Request::Shutdown) => return None,
        })
    }

    fn full_stats() -> QueryStats {
        QueryStats {
            index_io: IoStats {
                reads: 5,
                ..IoStats::default()
            },
            heap_io: IoStats {
                reads: 3,
                ..IoStats::default()
            },
            candidates: 9,
            duplicates: 1,
            false_hits: 2,
            rejected_by_key: 4,
            accepted_by_key: 0,
            method: Some(MethodKind::T2),
        }
    }

    fn db_stats(relations: Vec<RelationStats>, wal: Option<WalStats>) -> DbStats {
        DbStats {
            read_only: !relations.is_empty(),
            relations,
            live_pages: 20,
            io: IoStats {
                reads: 1,
                writes: 2,
                allocations: 3,
                frees: 0,
            },
            checkpoint_failures: 3,
            wal,
            epochs: EpochStats {
                current_epoch: 9,
                pinned_epochs: 2,
                quarantined_pages: 5,
            },
        }
    }

    fn response_after(prev: Option<&Response>) -> Option<Response> {
        Some(match prev {
            None => Response::Unit,
            Some(Response::Unit) => Response::Inserted(11),
            Some(Response::Inserted(_)) => Response::Tuple(sample_tuple()),
            Some(Response::Tuple(_)) => Response::Query(WireQueryResult {
                ids: vec![1, 4, 9],
                stats: full_stats(),
            }),
            Some(Response::Query(_)) => Response::Explain {
                rendered: "plan ...".into(),
                result: WireQueryResult {
                    ids: vec![],
                    stats: QueryStats::default(),
                },
            },
            Some(Response::Explain { .. }) => Response::Sql(SqlOutcome {
                columns: vec!["id(r)".into(), "id(s)".into(), "region(x, y)".into()],
                rows: vec![
                    SqlRow {
                        ids: vec![3, 7],
                        region: Some(sample_tuple()),
                    },
                    SqlRow {
                        ids: vec![4, 1],
                        region: None,
                    },
                ],
                plan: Some("NestedLoopJoin\n├─ IndexScan r\n└─ SeqScan s\n".into()),
                stats: QueryStats::default(),
            }),
            Some(Response::Sql(_)) => Response::Relations(vec!["a".into(), "b".into()]),
            Some(Response::Relations(_)) => Response::Stats {
                db: db_stats(
                    vec![RelationStats {
                        name: "r".into(),
                        dim: 2,
                        live: 100,
                        heap_pages: 7,
                        total_pages: 19,
                        indexes: vec!["dual".into(), "rplus".into()],
                        health: RelationHealth::Degraded {
                            corrupt_indexes: vec!["rplus".into()],
                        },
                    }],
                    Some(WalStats {
                        durable_lsn: 41,
                        next_lsn: 44,
                        pending: 2,
                    }),
                ),
                connections: 3,
            },
            Some(Response::Stats { .. }) => Response::Fsck(WireRecoveryReport {
                pager: PagerRecovery::FellBack {
                    recovered_epoch: 4,
                    lost_epoch: 5,
                },
                wal: Some(WalReplay {
                    start_lsn: 7,
                    replayed: 2,
                    first_lsn: 7,
                    last_lsn: 8,
                    torn_tail: true,
                    error: Some("replay stopped at lsn 9: boom".into()),
                }),
                relations: vec![
                    ("a".into(), RelationHealth::Healthy),
                    (
                        "b".into(),
                        RelationHealth::Quarantined {
                            detail: "heap page 3".into(),
                        },
                    ),
                ],
                quarantine: Some(false),
            }),
            Some(Response::Fsck(_)) => return None,
        })
    }

    /// The stats of an engine with no relations and no log, which
    /// `response_after`'s one `Stats` leaves out, and the fsck report of an
    /// engine with nothing to report.
    fn more_responses() -> Vec<Response> {
        vec![
            Response::Stats {
                db: db_stats(Vec::new(), None),
                connections: 17,
            },
            Response::Fsck(WireRecoveryReport {
                pager: PagerRecovery::Clean,
                wal: None,
                relations: Vec::new(),
                quarantine: None,
            }),
        ]
    }

    fn db_error_after(prev: Option<&CdbError>) -> Option<CdbError> {
        Some(match prev {
            None => CdbError::RelationNotFound("r".into()),
            Some(CdbError::RelationNotFound(_)) => CdbError::RelationExists("r".into()),
            Some(CdbError::RelationExists(_)) => CdbError::DimensionMismatch {
                expected: 2,
                got: 3,
            },
            Some(CdbError::DimensionMismatch { .. }) => CdbError::UnsatisfiableTuple,
            Some(CdbError::UnsatisfiableTuple) => CdbError::NoSuchTuple(5),
            Some(CdbError::NoSuchTuple(_)) => CdbError::NoIndex("r".into()),
            Some(CdbError::NoIndex(_)) => CdbError::UnsupportedQuery("vertical".into()),
            Some(CdbError::UnsupportedQuery(_)) => {
                CdbError::CorruptRecord(cdb_core::CATALOG_RECORD)
            }
            Some(CdbError::CorruptRecord(_)) => CdbError::Io("disk gone".into()),
            Some(CdbError::Io(_)) => CdbError::Quarantined("r".into()),
            Some(CdbError::Quarantined(_)) => CdbError::ReadOnly,
            Some(CdbError::ReadOnly) => CdbError::DimensionOutOfRange { dim: 126, max: 125 },
            Some(CdbError::DimensionOutOfRange { .. }) => CdbError::TupleTooLarge {
                len: 1529,
                max: 1016,
            },
            Some(CdbError::TupleTooLarge { .. }) => return None,
        })
    }

    fn net_error_after(prev: Option<&NetError>) -> Option<NetError> {
        Some(match prev {
            None => NetError::Db(CdbError::ReadOnly),
            Some(NetError::Db(_)) => NetError::Overloaded,
            Some(NetError::Overloaded) => NetError::DeadlineExceeded,
            Some(NetError::DeadlineExceeded) => NetError::Malformed("bad tag".into()),
            Some(NetError::Malformed(_)) => NetError::ShuttingDown,
            Some(NetError::ShuttingDown) => NetError::VersionMismatch { server_version: 2 },
            Some(NetError::VersionMismatch { .. }) => NetError::Transport("reset".into()),
            Some(NetError::Transport(_)) => NetError::Timeout,
            Some(NetError::Timeout) => return None,
        })
    }

    fn chain<T>(after: fn(Option<&T>) -> Option<T>) -> impl Iterator<Item = T> {
        std::iter::successors(after(None), move |prev| after(Some(prev)))
    }

    #[test]
    fn request_frames_conform() {
        let samples: Vec<_> = chain(request_after)
            .map(|request| RequestEnvelope {
                request_id: 42,
                deadline_ms: 250,
                request,
            })
            .collect();
        conformance(&samples, encode_request, decode_request);
    }

    #[test]
    fn response_frames_conform() {
        let outcomes = chain(response_after)
            .chain(more_responses())
            .map(Ok)
            .chain(chain(db_error_after).map(|e| Err(NetError::Db(e))))
            .chain(chain(net_error_after).map(Err));
        // The request id and the lsn stamp are echoed with every outcome.
        let samples: Vec<_> = outcomes.map(|outcome| (7u64, 99u64, outcome)).collect();
        conformance(
            &samples,
            |(id, lsn, outcome)| encode_response(*id, *lsn, outcome),
            decode_response,
        );
    }

    #[test]
    fn handshake_conforms_and_rejects_bad_magic() {
        let greetings = [
            (PROTOCOL_VERSION, HandshakeStatus::Ok),
            (PROTOCOL_VERSION, HandshakeStatus::VersionMismatch),
            (3, HandshakeStatus::Overloaded),
            (PROTOCOL_VERSION, HandshakeStatus::ShuttingDown),
        ];
        conformance(
            &greetings,
            |(v, s)| encode_greeting(*v, *s),
            decode_greeting,
        );
        conformance(&[PROTOCOL_VERSION], |v| encode_hello(*v), decode_hello);
        let mut bad = encode_hello(PROTOCOL_VERSION);
        bad[4] ^= 0xFF; // corrupt the magic bytes (after the length prefix)
        assert!(decode_hello(&bad).is_err());
    }

    #[test]
    fn leaf_types_conform_on_their_own() {
        wire_conformance(&[SqlMode::Execute, SqlMode::Explain, SqlMode::ExplainAnalyze]);
        wire_conformance(&[
            Selection::exist(HalfPlane::above(0.3, -5.0)),
            Selection::all(HalfPlane::new(vec![], 1.0, RelOp::Le)),
        ]);
        wire_conformance(&[full_stats(), QueryStats::default()]);
    }

    /// A `Query` request frame with the given half-plane intercept.
    fn query_frame(intercept: f64) -> Vec<u8> {
        let mut w = RecordWriter::new();
        (1u64, 0u32, 8u8).put(&mut w); // id, no deadline, the Query op
        ("r".to_string(), Strategy::Auto, SelectionKind::Exist).put(&mut w);
        (1u8, intercept, vec![0.5]).put(&mut w); // Ge
        w.into_bytes()
    }

    #[test]
    fn non_finite_coefficients_are_rejected() {
        // The decoder must fail cleanly instead of constructing a HalfPlane
        // (whose constructor would panic).
        assert!(decode_request(&query_frame(2.0)).is_ok());
        assert!(decode_request(&query_frame(f64::NAN)).is_err());
        let nan_fill = encode_request(&RequestEnvelope {
            request_id: 1,
            deadline_ms: 0,
            request: Request::BuildRPlus {
                relation: "r".into(),
                fill: f64::NAN,
            },
        });
        assert!(decode_request(&nan_fill).is_err());
    }

    #[test]
    fn unsorted_result_ids_are_rejected() {
        let result = |ids| {
            let stats = QueryStats::default();
            encode_response(1, 0, &Ok(Response::Query(WireQueryResult { ids, stats })))
        };
        assert!(decode_response(&result(vec![3, 9])).is_ok());
        assert!(decode_response(&result(vec![9, 3])).is_err());
        assert!(decode_response(&result(vec![3, 3])).is_err());
    }
}
