//! The one `Request` → engine dispatcher.
//!
//! [`apply_read`] answers the read operations from any
//! [`cdb_core::ReadSurface`]; [`apply_engine`] applies the operations that
//! need the live [`ConstraintDb`]. The server runs the first against
//! published snapshots in its session workers and the second in its
//! writer lane; an in-process engine is a [`Backend`] that runs both
//! against itself — so a local shell session gets exactly the validation
//! a wire peer gets.

use cdb_core::ddim::SlopePoints;
use cdb_core::slopes::SlopeSet;
use cdb_core::{ConstraintDb, IndexSpec, PageSource, ReadSurface};

use crate::api::Backend;
use crate::proto::{
    NetError, ReplicationInfo, Request, Response, ShardIdentity, WireRecoveryReport,
};

/// What `stats` reports about the answering node beyond its engine. The
/// default is an in-process engine: no replication role, no sessions, no
/// shard identity.
#[derive(Default)]
pub(crate) struct NodeStatus {
    pub replication: Option<ReplicationInfo>,
    pub connections: u32,
    pub shard: Option<ShardIdentity>,
}

/// Mutations must reach the engine's owner; Stats and Fsck report the
/// live engine (WAL watermarks, quarantine cross-check). Everything else
/// is a read.
pub(crate) fn needs_engine(request: &Request) -> bool {
    request.is_write() || matches!(request, Request::Stats | Request::Fsck)
}

impl Backend for ConstraintDb {
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        if needs_engine(&request) {
            apply_engine(self, request, NodeStatus::default)
        } else {
            apply_read(self, &request)
        }
    }
}

/// Executes a read-only request against a read surface — a pinned
/// snapshot on the server (no lock is held while this runs: the
/// snapshot's epoch keeps every page it can reach stable regardless of
/// what the writer commits meanwhile), the live engine in process.
pub(crate) fn apply_read<P: PageSource>(
    snap: &ReadSurface<P>,
    request: &Request,
) -> Result<Response, NetError> {
    match request {
        Request::Ping => Ok(Response::Unit),
        Request::Query {
            relation,
            selection,
            strategy,
        } => snap
            .query_with(relation, selection.clone(), *strategy)
            .map(|r| Response::Query((&r).into()))
            .map_err(NetError::Db),
        Request::Explain {
            relation,
            selection,
        } => snap
            .explain(relation, selection.clone())
            .map(|rep| Response::Explain {
                rendered: rep.render(),
                result: (&rep.result).into(),
            })
            .map_err(NetError::Db),
        Request::QueryLine {
            relation,
            kind,
            a,
            c,
        } => {
            let res = match kind {
                cdb_core::query::SelectionKind::Exist => snap.exist_line(relation, *a, *c),
                cdb_core::query::SelectionKind::All => snap.all_line(relation, *a, *c),
            };
            res.map(|r| Response::Query((&r).into()))
                .map_err(NetError::Db)
        }
        Request::Sql { text, mode } => snap
            .sql(text, *mode)
            .map(Response::Sql)
            .map_err(NetError::Db),
        Request::FetchTuple { relation, id } => snap
            .fetch_tuple(relation, *id)
            .map(Response::Tuple)
            .map_err(NetError::Db),
        Request::ListRelations => Ok(Response::Relations(snap.relation_names())),
        other => Err(NetError::Malformed(format!(
            "'{}' is not a read operation",
            other.op_name()
        ))),
    }
}

/// Applies one request that needs the live engine (a mutation, or a
/// Stats/Fsck report). Raw wire parameters become the engine's checked
/// types here — refusals are answered as `Malformed`, never a panic — and
/// the engine checks the rest itself ([`IndexSpec::check`]). `node` is only
/// consulted for `Stats`.
pub(crate) fn apply_engine(
    db: &mut ConstraintDb,
    request: Request,
    node: impl FnOnce() -> NodeStatus,
) -> Result<Response, NetError> {
    match request {
        Request::Stats => {
            let node = node();
            Ok(Response::Stats {
                db: db.stats_snapshot(),
                replication: node.replication,
                connections: node.connections,
                shard: node.shard,
            })
        }
        Request::Fsck => {
            let rep = db.verify_now();
            Ok(Response::Fsck(WireRecoveryReport {
                pager: rep.pager,
                wal: rep.wal,
                relations: rep.relations,
                quarantine: db.quarantine_clean(),
            }))
        }
        Request::CreateRelation { relation, dim } => {
            if dim == 0 {
                return Err(NetError::Malformed("dimension must be positive".into()));
            }
            db.create_relation(&relation, dim as usize)
                .map(|_| Response::Unit)
                .map_err(NetError::Db)
        }
        Request::DropRelation { relation } => db
            .drop_relation(&relation)
            .map(|_| Response::Unit)
            .map_err(NetError::Db),
        Request::Insert { relation, tuple } => db
            .insert(&relation, tuple)
            .map(Response::Inserted)
            .map_err(NetError::Db),
        Request::Delete { relation, id } => db
            .delete(&relation, id)
            .map(Response::Tuple)
            .map_err(NetError::Db),
        Request::BuildDual { relation, slopes } => {
            let slopes = SlopeSet::try_new(slopes).map_err(malformed)?;
            build_index(db, &relation, IndexSpec::Dual(slopes))
        }
        Request::BuildDualD {
            relation,
            per_axis,
            range,
        } => {
            let dim = db.relation(&relation).map_err(NetError::Db)?.dim();
            let points = SlopePoints::try_grid(dim, per_axis as usize, range).map_err(malformed)?;
            build_index(db, &relation, IndexSpec::DualD(points))
        }
        Request::BuildRPlus { relation, fill } => {
            build_index(db, &relation, IndexSpec::RPlus { fill })
        }
        Request::Checkpoint => db
            .checkpoint()
            .map(|_| Response::Unit)
            .map_err(NetError::Db),
        other => Err(NetError::Malformed(format!(
            "'{}' is not an engine-lane operation",
            other.op_name()
        ))),
    }
}

fn malformed(why: &'static str) -> NetError {
    NetError::Malformed(why.into())
}

/// Parameters no relation could take are the request's fault; whether the
/// spec fits this relation is the engine's answer.
fn build_index(
    db: &mut ConstraintDb,
    relation: &str,
    spec: IndexSpec,
) -> Result<Response, NetError> {
    spec.check_parameters().map_err(malformed)?;
    db.build_index(relation, spec)
        .map(|_| Response::Unit)
        .map_err(NetError::Db)
}
