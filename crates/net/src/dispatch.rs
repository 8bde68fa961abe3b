//! The one `Request` → engine dispatcher.
//!
//! [`apply_read`] answers the read operations from any
//! [`cdb_core::ReadSurface`]; [`apply_engine`] applies the operations that
//! need the live [`ConstraintDb`]. The server runs the first against
//! published snapshots in its session workers and the second in its
//! writer lane; an in-process engine is a [`Backend`] that runs both
//! against itself — so a local shell session gets exactly the validation
//! a wire peer gets.

use cdb_core::{ConstraintDb, PageSource, ReadSurface};

use crate::api::Backend;
use crate::proto::{NetError, Request, Response};

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
/// Stats/Fsck report). A request carries the engine's own checked types
/// (decoding ran their constructors); parameters no relation could take
/// are answered as `Malformed`, never a panic, and the engine checks the
/// rest itself ([`IndexSpec::check`](cdb_core::IndexSpec::check)).
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
        Request::Fsck => Ok(Response::Fsck(db.verify_now())),
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
        // Parameters no relation could take are the request's fault;
        // whether the spec fits this relation is the engine's answer.
        Request::Build { relation, spec } => {
            spec.check_parameters()
                .map_err(|why| NetError::Malformed(why.into()))?;
            db.build_index(&relation, spec)
                .map(|_| Response::Unit)
                .map_err(NetError::Db)
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

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::ddim::SlopePoints;
    use cdb_core::plan::{MethodKind, Rejection};
    use cdb_core::{DbConfig, IndexSpec, Selection, SlopeGeometry, Strategy};
    use cdb_geometry::{HalfPlane, LinearConstraint, RelOp};
    use cdb_storage::conformance::peak_during;
    use cdb_storage::{RecordWriter, Wire};

    /// A `Build` frame for `relation` "r" whose slope geometry is
    /// `geometry`'s bytes.
    fn build_frame(geometry: impl FnOnce(&mut RecordWriter)) -> Vec<u8> {
        let mut w = RecordWriter::new();
        (1u64, 0u32, 19u8).put(&mut w); // id, no deadline, the Build op
        ("r".to_string(), 0u8).put(&mut w); // relation, `IndexSpec::Dual`
        geometry(&mut w);
        w.into_bytes()
    }

    /// Slope geometries whose cells no engine should compute are refused
    /// as the frame is decoded — which a server answers `Malformed` —
    /// before anything is sized by their counts. Sent as grid parameters,
    /// the slope-point ones aborted the writer lane's process: a 12 GB
    /// allocation (30-D), the box-corner enumeration (14-D), a 32 GB
    /// allocation (4·10⁹ points); 20 000 slopes allocated 40 000 pages.
    #[test]
    fn unbuildable_slope_geometries_are_refused_before_their_cells() {
        let slopes = |k: u32| {
            build_frame(move |w| {
                (0u8, k).put(w); // `SlopeGeometry::Set`, the count
                w.put_seq(&(0..k).map(f64::from).collect::<Vec<_>>());
            })
        };
        let points = |dim: u32, k: u32| {
            build_frame(move |w| (1u8, dim, k).put(w)) // `Points`, no coordinates
        };
        for (what, frame) in [
            ("20 000 slopes", slopes(20_000)),
            ("2 046 slopes", slopes(2_046)),
            ("30-D", points(30, 1 << 29)),
            ("14-D", points(14, 8192)),
            ("4·10⁹ points", points(2, 4_000_000_000)),
        ] {
            let (got, peak) = peak_during(|| crate::proto::decode_request(&frame));
            assert!(got.is_err(), "{what}: {got:?}");
            assert!(peak < 1 << 10, "{what}: {peak} bytes at once");
        }
        let decoded = crate::proto::decode_request(&slopes(2_045)).expect("2 045 slopes");
        match decoded.request {
            Request::Build {
                spec: IndexSpec::Dual(SlopeGeometry::Set(set)),
                ..
            } => assert_eq!(set.len(), 2_045),
            other => panic!("not a slope-set build: {other:?}"),
        }
    }

    /// Regression: on a grid slope set a query slope outside the grid box
    /// fell through to the simplex search, which materialised all `C(k, d)`
    /// point subsets — 88 M for this 4-D grid of 216 points, aborting the
    /// process from one `Build` and one `Query` frame. Outside the box
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
        let build = Request::Build {
            relation: relation.clone(),
            spec: IndexSpec::Dual(SlopePoints::grid(4, 6, 1.0).into()),
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
