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
use crate::proto::{NetError, Request, Response, WireRecoveryReport};

/// Mutations must reach the engine's owner; Stats and Fsck report the
/// live engine (WAL watermarks, quarantine cross-check). Everything else
/// is a read.
pub(crate) fn needs_engine(request: &Request) -> bool {
    request.is_write() || matches!(request, Request::Stats | Request::Fsck)
}

impl Backend for ConstraintDb {
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        if needs_engine(&request) {
            // An in-process engine admits no sessions.
            apply_engine(self, request, || 0)
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
/// the engine checks the rest itself ([`IndexSpec::check`]).
/// `connections` counts the client sessions the answering node has
/// admitted; it is only consulted for `Stats`.
pub(crate) fn apply_engine(
    db: &mut ConstraintDb,
    request: Request,
    connections: impl FnOnce() -> u32,
) -> Result<Response, NetError> {
    match request {
        Request::Stats => Ok(Response::Stats {
            db: db.stats_snapshot(),
            connections: connections(),
        }),
        Request::Fsck => {
            let rep = db.verify_now();
            Ok(Response::Fsck(WireRecoveryReport {
                pager: rep.pager,
                wal: rep.wal,
                relations: rep.relations,
                quarantine: db.quarantine_clean(),
            }))
        }
        Request::CreateRelation { relation, dim } => db
            .create_relation(&relation, dim as usize)
            .map(|_| Response::Unit)
            .map_err(NetError::Db),
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
            build_index(db, &relation, IndexSpec::Dual(slopes.into()))
        }
        Request::BuildDualD {
            relation,
            per_axis,
            range,
        } => {
            let dim = db.relation(&relation).map_err(NetError::Db)?.dim();
            let points = SlopePoints::try_grid(dim, per_axis as usize, range).map_err(malformed)?;
            build_index(db, &relation, IndexSpec::Dual(points.into()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::plan::{MethodKind, Rejection};
    use cdb_core::{DbConfig, Selection, Strategy};
    use cdb_geometry::{HalfPlane, LinearConstraint, RelOp};
    use cdb_storage::conformance::peak_during;

    /// Index parameters whose cells no engine should compute are refused
    /// as `Malformed` before anything is sized by them. At the parent each
    /// aborted the writer lane's process: a 12 GB allocation (30-D), the
    /// box-corner enumeration (14-D), a 32 GB allocation (4·10⁹ points).
    #[test]
    fn unbuildable_slope_grids_are_malformed_not_an_abort() {
        for (dim, per_axis) in [(30, 2), (14, 2), (2, 4_000_000_000)] {
            let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
            let relation = "r".to_string();
            let create = Request::CreateRelation {
                relation: relation.clone(),
                dim,
            };
            apply_engine(&mut db, create, || 0).expect("create");
            let build = Request::BuildDualD {
                relation,
                per_axis,
                range: 1.0,
            };
            let (got, peak) = peak_during(|| apply_engine(&mut db, build, || 0));
            assert!(
                matches!(got, Err(NetError::Malformed(_))),
                "{dim}-D: {got:?}"
            );
            assert!(peak < 1 << 16, "{dim}-D: {peak} bytes at once");
        }
    }

    /// Regression: on a grid slope set a query slope outside the grid box
    /// fell through to the simplex search, which materialised all `C(k, d)`
    /// point subsets — 88 M for this 4-D grid of 216 points, aborting the
    /// process from one `BuildDualD` and one `Query` frame. Outside the box
    /// the index rejects the slope at once and the scan answers.
    #[test]
    fn out_of_box_slope_on_a_4d_grid_is_planned_as_a_scan() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        let engine = |db: &mut ConstraintDb, request| {
            apply_engine(db, request, || 0).expect("engine request")
        };
        let relation = "r".to_string();
        let create = Request::CreateRelation {
            relation: relation.clone(),
            dim: 4,
        };
        engine(&mut db, create);
        for i in 0..8 {
            let cube = (0..4).flat_map(|axis| {
                let mut unit = vec![0.0; 4];
                unit[axis] = 1.0;
                let lo = LinearConstraint::new(unit.clone(), -f64::from(i), RelOp::Ge);
                [
                    lo,
                    LinearConstraint::new(unit, -f64::from(i + 2), RelOp::Le),
                ]
            });
            let tuple = cdb_geometry::GeneralizedTuple::new(cube.collect());
            let insert = Request::Insert {
                relation: relation.clone(),
                tuple,
            };
            engine(&mut db, insert);
        }
        let build = Request::BuildDualD {
            relation: relation.clone(),
            per_axis: 6,
            range: 1.0,
        };
        engine(&mut db, build);

        let slope = vec![0.2, -1.5, 0.3];
        let selection = Selection::exist(HalfPlane::new(slope.clone(), 3.0, RelOp::Ge));
        // Embedded: the plan names the scan and the typed rejection.
        let (plan, peak) = peak_during(|| db.plan_query("r", &selection).expect("planned"));
        assert_eq!(plan.method, MethodKind::SeqScan);
        let why = Rejection::OutsideBox(slope);
        assert_eq!(plan.rejected, [(MethodKind::Dual, why)]);
        assert!(peak < 4096, "one allocation of {peak} bytes to plan a scan");
        // And through the dispatcher, as a wire peer's frame would arrive.
        let query = Request::Query {
            relation,
            selection: selection.clone(),
            strategy: Strategy::Auto,
        };
        let (answer, peak) = peak_during(|| apply_read(&db, &query));
        let Ok(Response::Query(answer)) = answer else {
            panic!("not a query answer: {answer:?}");
        };
        assert_eq!(answer.stats.method, Some(MethodKind::SeqScan));
        let scanned = db.scan_relation("r").unwrap();
        let want = scanned.iter().filter(|(_, t)| selection.holds(t));
        assert_eq!(answer.ids, want.map(|(id, _)| *id).collect::<Vec<_>>());
        assert!(
            peak < 1 << 16,
            "one allocation of {peak} bytes to scan 8 tuples"
        );
    }
}
