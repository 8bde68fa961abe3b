//! The typed client API, written once.
//!
//! A [`Backend`] is anything that can turn one [`Request`] into one
//! [`Response`]: an in-process [`cdb_core::ConstraintDb`] (through the
//! server's own dispatcher, `dispatch.rs`) or one wire session
//! ([`crate::client::Connection`]). [`Api`] wraps either with the typed
//! helpers — build the request, send it, unwrap the one response variant
//! that answers it — so "who executes" never changes what a caller
//! writes. [`crate::Client`] is `Api` over a wire session.

use std::ops::{Deref, DerefMut};

use cdb_core::query::{QueryResult, Selection, SelectionKind, Strategy};
use cdb_core::sql::{SqlMode, SqlOutcome};
use cdb_core::{DbStats, IndexSpec, RecoveryReport};
use cdb_geometry::tuple::GeneralizedTuple;

use crate::proto::{NetError, Request, Response, WireQueryResult};

/// One way of executing requests. See the module docs.
pub trait Backend {
    /// Executes one request and returns its response.
    ///
    /// # Errors
    /// Whatever the executing side answers with — an engine refusal, a
    /// validation failure, a routing or transport error.
    fn call(&mut self, request: Request) -> Result<Response, NetError>;
}

impl<B: Backend + ?Sized> Backend for &mut B {
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        (**self).call(request)
    }
}

/// Everything a node's `stats` reports, as one typed reply.
#[derive(Clone, Debug)]
pub struct StatsReply {
    /// Engine statistics.
    pub db: DbStats,
    /// Client sessions currently admitted on the node.
    pub connections: u32,
}

/// The typed operations over a [`Backend`]. Dereferences to the backend,
/// so its own methods (connection tuning) are reachable on the same
/// handle.
pub struct Api<B>(pub B);

impl<B> Deref for Api<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.0
    }
}

impl<B> DerefMut for Api<B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.0
    }
}

fn protocol_violation(got: &Response) -> NetError {
    NetError::Transport(format!("unexpected response variant: {got:?}"))
}

fn expect_unit(response: Response) -> Result<(), NetError> {
    match response {
        Response::Unit => Ok(()),
        other => Err(protocol_violation(&other)),
    }
}

fn expect_query(response: Response) -> Result<QueryResult, NetError> {
    match response {
        Response::Query(WireQueryResult { ids, stats }) => Ok(QueryResult::new(ids, stats)),
        other => Err(protocol_violation(&other)),
    }
}

fn expect_sql(response: Response) -> Result<SqlOutcome, NetError> {
    match response {
        Response::Sql(o) => Ok(o),
        other => Err(protocol_violation(&other)),
    }
}

fn expect_relations(response: Response) -> Result<Vec<String>, NetError> {
    match response {
        Response::Relations(names) => Ok(names),
        other => Err(protocol_violation(&other)),
    }
}

fn expect_tuple(response: Response) -> Result<GeneralizedTuple, NetError> {
    match response {
        Response::Tuple(t) => Ok(t),
        other => Err(protocol_violation(&other)),
    }
}

impl<B: Backend> Api<B> {
    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        expect_unit(self.0.call(Request::Ping)?)
    }

    /// Creates a relation of the given dimension.
    pub fn create_relation(&mut self, relation: &str, dim: u32) -> Result<(), NetError> {
        expect_unit(self.0.call(Request::CreateRelation {
            relation: relation.into(),
            dim,
        })?)
    }

    /// Drops a relation and frees its pages.
    pub fn drop_relation(&mut self, relation: &str) -> Result<(), NetError> {
        expect_unit(self.0.call(Request::DropRelation {
            relation: relation.into(),
        })?)
    }

    /// Inserts a tuple; returns its assigned id.
    pub fn insert(&mut self, relation: &str, tuple: GeneralizedTuple) -> Result<u32, NetError> {
        match self.0.call(Request::Insert {
            relation: relation.into(),
            tuple,
        })? {
            Response::Inserted(id) => Ok(id),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Deletes a tuple; returns the removed tuple.
    pub fn delete(&mut self, relation: &str, id: u32) -> Result<GeneralizedTuple, NetError> {
        expect_tuple(self.0.call(Request::Delete {
            relation: relation.into(),
            id,
        })?)
    }

    /// Builds the index `spec` names: the dual index over a slope set or
    /// slope points, or the R⁺-tree baseline.
    pub fn build_index(&mut self, relation: &str, spec: IndexSpec) -> Result<(), NetError> {
        expect_unit(self.0.call(Request::Build {
            relation: relation.into(),
            spec,
        })?)
    }

    /// Runs an ALL/EXIST selection with the given strategy.
    pub fn query(
        &mut self,
        relation: &str,
        selection: Selection,
        strategy: Strategy,
    ) -> Result<QueryResult, NetError> {
        expect_query(self.0.call(Request::Query {
            relation: relation.into(),
            selection,
            strategy,
        })?)
    }

    /// Equality (line) query: EXIST tuples intersecting `y = a·x + c`, or
    /// ALL tuples lying entirely on it.
    pub fn query_line(
        &mut self,
        relation: &str,
        kind: SelectionKind,
        a: f64,
        c: f64,
    ) -> Result<QueryResult, NetError> {
        expect_query(self.0.call(Request::QueryLine {
            relation: relation.into(),
            kind,
            a,
            c,
        })?)
    }

    /// Runs one constraint-SQL statement. `mode` selects execution,
    /// `EXPLAIN`, or `EXPLAIN ANALYZE`; the rendered plan (when present)
    /// is byte-identical whichever backend executes it.
    pub fn sql(&mut self, text: &str, mode: SqlMode) -> Result<SqlOutcome, NetError> {
        expect_sql(self.0.call(Request::Sql {
            text: text.into(),
            mode,
        })?)
    }

    /// Fetches a stored tuple by id.
    pub fn fetch_tuple(&mut self, relation: &str, id: u32) -> Result<GeneralizedTuple, NetError> {
        expect_tuple(self.0.call(Request::FetchTuple {
            relation: relation.into(),
            id,
        })?)
    }

    /// Relation names, sorted.
    pub fn relations(&mut self) -> Result<Vec<String>, NetError> {
        expect_relations(self.0.call(Request::ListRelations)?)
    }

    /// Engine statistics snapshot, plus the answering node's session
    /// count.
    pub fn stats(&mut self) -> Result<StatsReply, NetError> {
        match self.0.call(Request::Stats)? {
            Response::Stats { db, connections } => Ok(StatsReply { db, connections }),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Online page-verification report.
    pub fn fsck(&mut self) -> Result<RecoveryReport, NetError> {
        match self.0.call(Request::Fsck)? {
            Response::Fsck(rep) => Ok(rep),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Forces a durable checkpoint.
    pub fn checkpoint(&mut self) -> Result<(), NetError> {
        expect_unit(self.0.call(Request::Checkpoint)?)
    }

    /// Asks the server to shut down gracefully (drain, checkpoint, exit).
    /// The acknowledgement arrives before the server exits.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        expect_unit(self.0.call(Request::Shutdown)?)
    }
}
