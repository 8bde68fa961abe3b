//! Logical query plans: the bridge between parsed constraint-SQL
//! ([`crate::sql`]) and the batch-at-a-time operators ([`crate::physical`]).
//!
//! Lowering resolves relation names to dimensions, lifts every `WHERE`
//! conjunct into the query's combined variable space (the maximum relation
//! dimension), and builds a left-deep tree of scan / join / filter /
//! project / limit nodes. Three rewrites then run, in order:
//!
//! 1. **Constant folding** — conjuncts that mention no variable are
//!    decided now: vacuous ones are dropped, false ones collapse the whole
//!    plan to [`LogicalPlan::Empty`].
//! 2. **Unsatisfiable-constraint short-circuit** — if the `WHERE` region
//!    itself is empty (phase-1 simplex over the conjunction), the plan is
//!    [`LogicalPlan::Empty`]: under `EXIST` nothing can intersect it, and
//!    under `ALL` nothing can be contained in it because stored tuples are
//!    satisfiable by construction.
//! 3. **Predicate pushdown** — a non-vertical conjunct becomes the
//!    [`Selection`] of an [`LogicalPlan::IndexSelection`] node replacing a
//!    bare scan, so the planner picks an access method for it
//!    inside the pipeline. Under `ALL` containment distributes over
//!    conjunction, so the pushed conjunct leaves the residual filter; under
//!    `EXIST` joint satisfiability does not distribute, so the pushed
//!    conjunct is a *prefilter* and the filter keeps every conjunct —
//!    unless it was the only one, in which case the index answer is exact
//!    and the filter disappears (this is how a single-constraint SQL query
//!    becomes byte-identical to the typed query path). Joins push `EXIST`
//!    prefilters into both branches when a conjunct fits the branch's
//!    dimension; `ALL` never pushes through a join (`t∧u ⊆ q` does not
//!    bound `t` alone).

use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::LinearConstraint;

use crate::error::CdbError;
use crate::query::{Selection, SelectionKind};
use crate::sql::{Projection, SqlQuery};

/// A logical plan node. `dim` fields give the width (coordinate count) of
/// the rows the node produces.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalPlan {
    /// Statically decided to produce no rows.
    Empty {
        /// Relations the query named (for column headers).
        relations: Vec<String>,
        /// Why the plan is empty, for EXPLAIN.
        reason: String,
    },
    /// Full scan of one relation.
    Scan {
        /// Relation name.
        relation: String,
        /// Relation dimension.
        dim: usize,
    },
    /// Planned access-method selection on one relation: the planner runs
    /// the paper's rule over the dual index and the scan at execution.
    IndexSelection {
        /// Relation name.
        relation: String,
        /// Relation dimension.
        dim: usize,
        /// The pushed-down selection: the whole answer, or a candidate
        /// prefilter when a residual `Filter` sits above the node.
        selection: Selection,
    },
    /// Exact predicate filter over the full `WHERE` conjunction.
    Filter {
        /// EXIST (intersection) or ALL (containment) semantics.
        kind: SelectionKind,
        /// Conjuncts, all lifted to `dim` coordinates.
        constraints: Vec<LinearConstraint>,
        /// Row width.
        dim: usize,
        /// Input node.
        input: Box<LogicalPlan>,
    },
    /// Conjunction join: pairs whose combined constraint system is
    /// satisfiable survive.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Combined row width (max of the inputs').
        dim: usize,
    },
    /// Projection as existential variable elimination (Fourier–Motzkin).
    Project {
        /// Coordinates to keep, in output order.
        keep: Vec<usize>,
        /// Input node.
        input: Box<LogicalPlan>,
    },
    /// Stop after `n` rows.
    Limit {
        /// Row budget.
        n: u64,
        /// Input node.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The relations feeding this plan, in `FROM` order.
    pub fn relations(&self) -> Vec<String> {
        match self {
            LogicalPlan::Empty { relations, .. } => relations.clone(),
            LogicalPlan::Scan { relation, .. } | LogicalPlan::IndexSelection { relation, .. } => {
                vec![relation.clone()]
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Limit { input, .. } => input.relations(),
            LogicalPlan::Join { left, right, .. } => {
                let mut r = left.relations();
                r.extend(right.relations());
                r
            }
        }
    }
}

/// Lowers a parsed query into a logical plan. `resolve` maps a relation
/// name to its dimension (and is the existence check).
///
/// # Errors
/// Propagates `resolve` failures; [`CdbError::UnsupportedQuery`] when a
/// constraint or projected variable lies outside the combined space.
pub fn lower(
    q: &SqlQuery,
    resolve: impl Fn(&str) -> Result<usize, CdbError>,
) -> Result<LogicalPlan, CdbError> {
    let mut dims = Vec::with_capacity(q.relations.len());
    for (name, _) in &q.relations {
        dims.push(resolve(name)?);
    }
    let dim = *dims.iter().max().expect("parser guarantees ≥1 relation");
    let mut constraints = Vec::new();
    for ast in &q.constraints {
        let lowered = ast
            .lower(dim)
            .map_err(|e| CdbError::UnsupportedQuery(e.to_string()))?;
        constraints.extend(lowered);
    }
    let mut plan = LogicalPlan::Scan {
        relation: q.relations[0].0.clone(),
        dim: dims[0],
    };
    for ((name, _), d) in q.relations.iter().zip(&dims).skip(1) {
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::Scan {
                relation: name.clone(),
                dim: *d,
            }),
            dim,
        };
    }
    if !constraints.is_empty() {
        plan = LogicalPlan::Filter {
            kind: q.kind,
            constraints,
            dim,
            input: Box::new(plan),
        };
    }
    if let Projection::Vars(vars) = &q.projection {
        for (v, _) in vars {
            if *v >= dim {
                return Err(CdbError::UnsupportedQuery(format!(
                    "cannot project {}: the query space is {dim}-dimensional",
                    crate::sql::var_name(*v)
                )));
            }
        }
        plan = LogicalPlan::Project {
            keep: vars.iter().map(|(v, _)| *v).collect(),
            input: Box::new(plan),
        };
    }
    if let Some(n) = q.limit {
        plan = LogicalPlan::Limit {
            n,
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

/// Runs the rewrite pipeline: constant folding, unsatisfiable-`WHERE`
/// short-circuit, predicate pushdown.
pub fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter {
            kind,
            constraints,
            dim,
            input,
        } => {
            let relations = input.relations();
            // Constant folding: conjuncts with no variable are decided now.
            let zero = vec![0.0; dim];
            let mut live = Vec::with_capacity(constraints.len());
            for c in constraints {
                let constant = c.coeffs.iter().all(|a| *a == 0.0);
                if !constant {
                    live.push(c);
                } else if !c.satisfied_by(&zero) {
                    return LogicalPlan::Empty {
                        relations,
                        reason: "WHERE contains a false constant constraint".into(),
                    };
                }
            }
            if live.is_empty() {
                return rewrite(*input);
            }
            // Unsatisfiable conjunction: nothing intersects an empty
            // region, and no (satisfiable) stored tuple fits inside one.
            if !GeneralizedTuple::new(live.clone()).is_satisfiable() {
                return LogicalPlan::Empty {
                    relations,
                    reason: "WHERE region is unsatisfiable".into(),
                };
            }
            push_down(kind, live, dim, rewrite(*input))
        }
        LogicalPlan::Join { left, right, dim } => LogicalPlan::Join {
            left: Box::new(rewrite(*left)),
            right: Box::new(rewrite(*right)),
            dim,
        },
        LogicalPlan::Project { keep, input } => LogicalPlan::Project {
            keep,
            input: Box::new(rewrite(*input)),
        },
        LogicalPlan::Limit { n, input } => LogicalPlan::Limit {
            n,
            input: Box::new(rewrite(*input)),
        },
        leaf => leaf,
    }
}

/// Tries to turn the first conjunct that fits `dim` coordinates and is
/// non-vertical into a [`Selection`] of the given kind.
fn pushable(
    kind: SelectionKind,
    constraints: &[LinearConstraint],
    dim: usize,
) -> Option<(usize, Selection)> {
    for (i, c) in constraints.iter().enumerate() {
        if c.coeffs.len() > dim && c.coeffs[dim..].iter().any(|a| *a != 0.0) {
            continue;
        }
        let mut fitted = c.clone();
        fitted.coeffs.resize(dim, 0.0);
        if let Some(hp) = HalfPlane::from_constraint(&fitted) {
            return Some((
                i,
                Selection {
                    kind,
                    halfplane: hp,
                },
            ));
        }
    }
    None
}

/// Predicate pushdown over an already-rewritten input.
fn push_down(
    kind: SelectionKind,
    constraints: Vec<LinearConstraint>,
    dim: usize,
    input: LogicalPlan,
) -> LogicalPlan {
    match input {
        LogicalPlan::Scan {
            relation,
            dim: rel_dim,
        } => {
            let Some((i, selection)) = pushable(kind, &constraints, rel_dim) else {
                return LogicalPlan::Filter {
                    kind,
                    constraints,
                    dim,
                    input: Box::new(LogicalPlan::Scan {
                        relation,
                        dim: rel_dim,
                    }),
                };
            };
            // ALL distributes over conjunction: the pushed conjunct is
            // answered exactly by the access method and leaves the
            // residual. EXIST does not: the index prunes, but joint
            // satisfiability must still be checked over every conjunct —
            // unless there is only one.
            let residual: Vec<LinearConstraint> = match kind {
                SelectionKind::All => constraints
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, c)| c.clone())
                    .collect(),
                SelectionKind::Exist => {
                    if constraints.len() == 1 {
                        Vec::new()
                    } else {
                        constraints.clone()
                    }
                }
            };
            let scan = LogicalPlan::IndexSelection {
                relation,
                dim: rel_dim,
                selection,
            };
            if residual.is_empty() {
                scan
            } else {
                LogicalPlan::Filter {
                    kind,
                    constraints: residual,
                    dim,
                    input: Box::new(scan),
                }
            }
        }
        LogicalPlan::Join {
            left,
            right,
            dim: jdim,
        } => {
            // EXIST prefilters are sound on each branch (t∧u∧Q satisfiable
            // implies t∧q_i satisfiable); ALL containment is not.
            let (left, right) = if kind == SelectionKind::Exist {
                (
                    prefilter_branch(&constraints, *left),
                    prefilter_branch(&constraints, *right),
                )
            } else {
                (*left, *right)
            };
            LogicalPlan::Filter {
                kind,
                constraints,
                dim,
                input: Box::new(LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    dim: jdim,
                }),
            }
        }
        other => LogicalPlan::Filter {
            kind,
            constraints,
            dim,
            input: Box::new(other),
        },
    }
}

/// Replaces bare scans under a join branch with EXIST prefilter
/// index-selections when some conjunct fits the branch dimension.
fn prefilter_branch(constraints: &[LinearConstraint], branch: LogicalPlan) -> LogicalPlan {
    match branch {
        LogicalPlan::Scan { relation, dim } => {
            match pushable(SelectionKind::Exist, constraints, dim) {
                Some((_, selection)) => LogicalPlan::IndexSelection {
                    relation,
                    dim,
                    selection,
                },
                None => LogicalPlan::Scan { relation, dim },
            }
        }
        LogicalPlan::Join { left, right, dim } => LogicalPlan::Join {
            left: Box::new(prefilter_branch(constraints, *left)),
            right: Box::new(prefilter_branch(constraints, *right)),
            dim,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;

    fn resolve2(_: &str) -> Result<usize, CdbError> {
        Ok(2)
    }

    fn lowered(text: &str) -> LogicalPlan {
        rewrite(lower(&parse(text).unwrap(), resolve2).unwrap())
    }

    #[test]
    fn single_constraint_exist_becomes_exact_index_selection() {
        let plan = lowered("SELECT * FROM r WHERE y >= 0.3x - 5 EXIST");
        match plan {
            LogicalPlan::IndexSelection { selection, .. } => {
                assert_eq!(selection.kind, SelectionKind::Exist);
            }
            other => panic!("expected a bare IndexSelection, got {other:?}"),
        }
    }

    #[test]
    fn multi_constraint_exist_keeps_full_filter() {
        let plan = lowered("SELECT * FROM r WHERE y >= 0.3x - 5 && x <= 4 EXIST");
        match plan {
            LogicalPlan::Filter {
                constraints, input, ..
            } => {
                assert_eq!(constraints.len(), 2);
                assert!(matches!(*input, LogicalPlan::IndexSelection { .. }));
            }
            other => panic!("expected Filter, got {other:?}"),
        }
    }

    #[test]
    fn all_pushdown_drops_pushed_conjunct_from_residual() {
        let plan = lowered("SELECT * FROM r WHERE y <= 10 && y >= -10 ALL");
        match plan {
            LogicalPlan::Filter {
                constraints, input, ..
            } => {
                assert_eq!(constraints.len(), 1);
                assert!(matches!(*input, LogicalPlan::IndexSelection { .. }));
            }
            other => panic!("expected Filter, got {other:?}"),
        }
    }

    #[test]
    fn vertical_only_where_stays_scan_plus_filter() {
        let plan = lowered("SELECT * FROM r WHERE x <= 4 EXIST");
        match plan {
            LogicalPlan::Filter { input, .. } => {
                assert!(matches!(*input, LogicalPlan::Scan { .. }));
            }
            other => panic!("expected Filter over Scan, got {other:?}"),
        }
    }

    #[test]
    fn constant_folding_drops_vacuous_and_kills_false() {
        assert!(matches!(
            lowered("SELECT * FROM r WHERE 1 <= 2 && y >= 0"),
            LogicalPlan::IndexSelection { .. }
        ));
        assert!(matches!(
            lowered("SELECT * FROM r WHERE 2 <= 1 && y >= 0"),
            LogicalPlan::Empty { .. }
        ));
    }

    #[test]
    fn unsatisfiable_where_short_circuits() {
        assert!(matches!(
            lowered("SELECT * FROM r WHERE y <= 0 && y >= 1"),
            LogicalPlan::Empty { .. }
        ));
    }

    #[test]
    fn join_gets_exist_prefilters_but_not_all() {
        let plan = lowered("SELECT * FROM r JOIN s WHERE y >= 0 EXIST");
        match &plan {
            LogicalPlan::Filter { input, .. } => match input.as_ref() {
                LogicalPlan::Join { left, right, .. } => {
                    assert!(matches!(**left, LogicalPlan::IndexSelection { .. }));
                    assert!(matches!(**right, LogicalPlan::IndexSelection { .. }));
                }
                other => panic!("expected Join, got {other:?}"),
            },
            other => panic!("expected Filter, got {other:?}"),
        }
        let plan = lowered("SELECT * FROM r JOIN s WHERE y >= 0 ALL");
        match &plan {
            LogicalPlan::Filter { input, .. } => match input.as_ref() {
                LogicalPlan::Join { left, right, .. } => {
                    assert!(matches!(**left, LogicalPlan::Scan { .. }));
                    assert!(matches!(**right, LogicalPlan::Scan { .. }));
                }
                other => panic!("expected Join, got {other:?}"),
            },
            other => panic!("expected Filter, got {other:?}"),
        }
    }

    #[test]
    fn projection_validates_space() {
        let q = parse("SELECT z FROM r").unwrap();
        assert!(lower(&q, resolve2).is_err());
    }
}
