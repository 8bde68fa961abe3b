//! Shared implementation of the interactive shells: command parsing over
//! a [`Session`], which is an in-process engine or a wire connection to a
//! `cdb-server`.
//!
//! The `cdb` binary starts local and can `connect <addr>` mid-session; the
//! `cdb-client` binary starts connected. Every data command is written
//! once over the typed [`Api`] of whatever [`Backend`] the session holds
//! — same requests, same validation, same rendering; only session
//! management (`open` needs to own a file, `shutdown` needs a server)
//! looks at the session kind.

use std::io::{BufRead, Write};

use cdb_core::db::{ConstraintDb, DbConfig, DbStats};
use cdb_core::ddim::SlopePoints;
use cdb_core::query::{QueryResult, Selection, SelectionKind, Strategy};
use cdb_core::slopes::SlopeSet;
use cdb_core::sql::{SqlMode, SqlOutcome};
use cdb_core::{CdbError, IndexSpec, RecoveryReport, RelationHealth, WalReplay};
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::parse::{parse_comparison, parse_constraint, parse_tuple};
use cdb_net::{Api, Backend, Client};
use cdb_storage::PagerRecovery;

/// Where commands execute: in-process or over the wire.
pub enum Session {
    /// An owned engine in this process (boxed: the engine is much larger
    /// than a client handle).
    Local(Box<ConstraintDb>),
    /// A connected `cdb-server` session.
    Remote(Client),
}

/// Runs the read-eval-print loop over `source` until EOF or `quit`.
pub fn repl(mut session: Session, source: Box<dyn BufRead>, interactive: bool) {
    let mut out = std::io::stdout();
    for line in source.lines() {
        if interactive {
            print!("cdb> ");
            let _ = out.flush();
        }
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        match run_command(&mut session, line) {
            Ok(msg) => println!("{msg}"),
            Err(e) => println!("error: {e}"),
        }
    }
}

/// Executes one shell command against the session, returning the text to
/// print or an error message.
pub fn run_command(session: &mut Session, line: &str) -> Result<String, String> {
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    match cmd {
        "help" => Ok(HELP.trim().to_string()),
        "connect" => {
            let addr = rest.trim();
            if addr.is_empty() {
                return Err("usage: connect <host:port>".into());
            }
            let client = Client::connect(addr).map_err(|e| e.to_string())?;
            *session = Session::Remote(client);
            Ok(format!("connected to {addr}"))
        }
        "disconnect" => {
            *session = Session::Local(Box::new(ConstraintDb::in_memory(DbConfig::paper_1999())));
            Ok("disconnected; now on a fresh in-memory database".into())
        }
        "ping" => {
            session.api().ping().map_err(|e| e.to_string())?;
            Ok("pong".into())
        }
        "create" => {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("usage: create <name> <dim>")?;
            let dim: u32 = it
                .next()
                .ok_or("usage: create <name> <dim>")?
                .parse()
                .map_err(|_| "dim must be a number")?;
            session
                .api()
                .create_relation(name, dim)
                .map_err(|e| e.to_string())?;
            Ok(format!("created {dim}-D relation '{name}'"))
        }
        "insert" => {
            let (name, expr) = rest.split_once(' ').ok_or("usage: insert <rel> <tuple>")?;
            let t = parse_tuple(expr).map_err(|e| e.to_string())?;
            let id = session.api().insert(name, t).map_err(|e| e.to_string())?;
            Ok(format!("tuple {id}"))
        }
        "delete" => {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("usage: delete <rel> <id>")?;
            let id: u32 = it
                .next()
                .ok_or("usage: delete <rel> <id>")?
                .parse()
                .map_err(|_| "id must be a number")?;
            session.api().delete(name, id).map_err(|e| e.to_string())?;
            Ok(format!("deleted tuple {id}"))
        }
        "index" => {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("usage: index <rel> <k>")?;
            let k: usize = it
                .next()
                .ok_or("usage: index <rel> <k>")?
                .parse()
                .map_err(|_| "k must be a number >= 2")?;
            let slopes = SlopeSet::try_uniform_tan(k)?;
            build(session, name, IndexSpec::Dual(slopes.into()))?;
            Ok(format!("dual index built over {k} slopes"))
        }
        "indexd" => {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("usage: indexd <rel> <per_axis> [range]")?;
            let per_axis: u32 = it
                .next()
                .ok_or("usage: indexd <rel> <per_axis> [range]")?
                .parse()
                .map_err(|_| "per_axis must be a number >= 2")?;
            let range: f64 = it
                .next()
                .map(str::parse)
                .transpose()
                .map_err(|_| "range must be a number")?
                .unwrap_or(1.0);
            // The grid has the relation's dimension.
            let stats = session.api().stats().map_err(|e| e.to_string())?;
            let rel = stats.db.relations.iter().find(|r| r.name == name);
            let dim = rel
                .ok_or_else(|| CdbError::RelationNotFound(name.into()).to_string())?
                .dim;
            let points = SlopePoints::try_grid(dim, per_axis as usize, range)?;
            build(session, name, IndexSpec::Dual(points.into()))?;
            Ok(format!(
                "d-dimensional dual index built over a {per_axis}-per-axis grid (range {range})"
            ))
        }
        "line" => {
            let (name, expr) = rest
                .split_once(' ')
                .ok_or("usage: line <rel> <y = ax + c>")?;
            let c = parse_comparison(expr).map_err(|e| e.to_string())?;
            if !c.eq {
                return Err("a line query must be a single equality, e.g. y = 0.5x + 2".into());
            }
            // A line is 2-D: `x = 1` is vertical, not a 1-D half-plane.
            let ge = c.lower(2).map_err(|e| e.to_string())?.remove(0);
            let h = HalfPlane::from_constraint(&ge)
                .ok_or("vertical lines are not supported by the dual transform")?;
            let r = session
                .api()
                .query_line(name, SelectionKind::Exist, h.slope2d(), h.intercept)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "{} matches: {:?} ({} index + {} heap page accesses)",
                r.len(),
                preview(r.ids()),
                r.stats.index_io.accesses(),
                r.stats.heap_io.accesses(),
            ))
        }
        "rplus" => {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("usage: rplus <rel> [fill]")?;
            let fill: f64 = it
                .next()
                .map(str::parse)
                .transpose()
                .map_err(|_| "usage: rplus <rel> [fill] — fill must be a number")?
                .unwrap_or(1.0);
            build(session, name, IndexSpec::RPlus { fill })?;
            Ok(format!("R+-tree baseline packed at fill {fill}"))
        }
        "sql" => {
            let text = rest.trim();
            if text.is_empty() {
                return Err("usage: sql <SELECT ...>".into());
            }
            run_sql(session, text, SqlMode::Execute)
        }
        "explain" => {
            // `explain analyze <sql>` or `explain <sql>`.
            let trimmed = rest.trim();
            let lower = trimmed.to_ascii_lowercase();
            if let Some(stripped) = lower
                .strip_prefix("analyze")
                .filter(|s| s.starts_with(char::is_whitespace))
            {
                let text = trimmed[trimmed.len() - stripped.len()..].trim();
                return run_sql(session, text, SqlMode::ExplainAnalyze);
            }
            if lower.starts_with("select") {
                return run_sql(session, trimmed, SqlMode::Explain);
            }
            Err("usage: explain [analyze] <SELECT ...>".into())
        }
        "exist" | "all" | "scan" => {
            let (name, expr) = rest
                .split_once(' ')
                .ok_or("usage: <kind> <rel> <halfplane>")?;
            let q = parse_halfplane(expr)?;
            let sel = if cmd == "all" {
                Selection::all(q)
            } else {
                Selection::exist(q)
            };
            let strategy = if cmd == "scan" {
                Strategy::Scan
            } else {
                Strategy::Auto
            };
            let r = session
                .api()
                .query(name, sel, strategy)
                .map_err(|e| e.to_string())?;
            Ok(render_result(&r))
        }
        "show" => {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("usage: show <rel> <id>")?;
            let id: u32 = it
                .next()
                .ok_or("usage: show <rel> <id>")?
                .parse()
                .map_err(|_| "id must be a number")?;
            let t = session
                .api()
                .fetch_tuple(name, id)
                .map_err(|e| e.to_string())?;
            Ok(format!("{t}"))
        }
        "relations" => {
            let names = session.api().relations().map_err(|e| e.to_string())?;
            Ok(format!("{names:?}"))
        }
        "stats" => {
            let reply = session.api().stats().map_err(|e| e.to_string())?;
            let mut out = render_stats(&reply.db);
            // An in-process engine admits no sessions; a server counts at
            // least the one asking.
            if reply.connections > 0 {
                out.push_str(&format!("\nconnections: {}", reply.connections));
            }
            Ok(out)
        }
        "open" => {
            let Session::Local(db) = session else {
                return Err(
                    "open is unavailable over a connection — the server owns its file".into(),
                );
            };
            let path = std::path::Path::new(rest.trim());
            if path.as_os_str().is_empty() {
                return Err("usage: open <path>".into());
            }
            let (opened, verb) = if path.exists() {
                (
                    ConstraintDb::open(path).map_err(|e| e.to_string())?,
                    "opened",
                )
            } else {
                (
                    ConstraintDb::create(path, DbConfig::paper_1999())
                        .map_err(|e| e.to_string())?,
                    "created",
                )
            };
            let rels = opened.relation_names();
            **db = opened;
            Ok(format!(
                "{verb} {} ({} relations: {:?})",
                path.display(),
                rels.len(),
                rels
            ))
        }
        "save" => {
            session.api().checkpoint().map_err(|e| e.to_string())?;
            Ok("catalog checkpointed".into())
        }
        // With a path: offline verification of that file. Without: the
        // session's own engine verifies itself, wherever it runs.
        "fsck" if rest.trim().is_empty() => {
            let rep = session.api().fsck().map_err(|e| e.to_string())?;
            let mut out = String::new();
            let problems = render_report(&mut out, &rep);
            out.push_str(if problems {
                "fsck: problems found"
            } else {
                "fsck: ok"
            });
            Ok(out)
        }
        "fsck" => fsck(rest),
        "shutdown" => {
            if let Session::Local(_) = session {
                return Err("shutdown needs a connection — see 'connect'".into());
            }
            session.api().shutdown().map_err(|e| e.to_string())?;
            Ok("server is draining and will checkpoint before exit".into())
        }
        other => Err(format!("unknown command '{other}' — try 'help'")),
    }
}

impl Session {
    /// The typed API over whichever backend the session holds: the one
    /// place data commands meet the session kind.
    fn api(&mut self) -> Api<&mut dyn Backend> {
        Api(match self {
            Session::Local(db) => &mut **db,
            Session::Remote(c) => &mut c.0,
        })
    }
}

/// Builds the index `spec` names on `relation`.
fn build(session: &mut Session, relation: &str, spec: IndexSpec) -> Result<(), String> {
    session
        .api()
        .build_index(relation, spec)
        .map_err(|e| e.to_string())
}

/// Runs one SQL statement and renders its outcome. Every backend returns
/// the same [`SqlOutcome`] type, so `sql`, `explain <sql>` and `explain
/// analyze <sql>` print byte-identical text wherever the data lives.
fn run_sql(session: &mut Session, text: &str, mode: SqlMode) -> Result<String, String> {
    let o = session.api().sql(text, mode).map_err(|e| e.to_string())?;
    Ok(render_sql_outcome(&o))
}

fn render_sql_outcome(o: &SqlOutcome) -> String {
    if let Some(plan) = &o.plan {
        return plan.trim_end().to_string();
    }
    let mut out = format!("{} row(s): {}", o.rows.len(), o.columns.join(" | "));
    for row in o.rows.iter().take(20) {
        let mut cells: Vec<String> = row.ids.iter().map(|id| id.to_string()).collect();
        if let Some(region) = &row.region {
            cells.push(region.to_string());
        }
        out.push_str(&format!("\n  {}", cells.join(" | ")));
    }
    if o.rows.len() > 20 {
        out.push_str(&format!("\n  … {} more row(s)", o.rows.len() - 20));
    }
    out.push_str(&format!(
        "\n  {} index + {} heap page accesses, {} candidates",
        o.stats.index_io.accesses(),
        o.stats.heap_io.accesses(),
        o.stats.candidates,
    ));
    out
}

fn render_result(r: &QueryResult) -> String {
    format!(
        "{} matches: {:?}\n  {} index + {} heap page accesses, {} candidates, {} false hits, {} rejected by key, {} duplicates",
        r.len(),
        preview(r.ids()),
        r.stats.index_io.accesses(),
        r.stats.heap_io.accesses(),
        r.stats.candidates,
        r.stats.false_hits,
        r.stats.rejected_by_key,
        r.stats.duplicates,
    )
}

fn render_stats(s: &DbStats) -> String {
    let mut out = format!(
        "pager: {} live pages, {} reads, {} writes since start{}",
        s.live_pages,
        s.io.reads,
        s.io.writes,
        if s.read_only { " (read-only)" } else { "" }
    );
    if let Some(wal) = &s.wal {
        out.push_str(&format!(
            "\nwal: durable through lsn {}, next lsn {}, {} pending record(s)",
            wal.durable_lsn, wal.next_lsn, wal.pending
        ));
    }
    if s.epochs.current_epoch > 0 || s.epochs.pinned_epochs > 0 || s.epochs.quarantined_pages > 0 {
        out.push_str(&format!(
            "\nepochs: current {}, {} pinned reader(s), {} page(s) awaiting gc",
            s.epochs.current_epoch, s.epochs.pinned_epochs, s.epochs.quarantined_pages
        ));
    }
    if s.checkpoint_failures > 0 {
        out.push_str(&format!(
            "\nwarning: {} consecutive checkpoint failure(s)",
            s.checkpoint_failures
        ));
    }
    for rel in &s.relations {
        out.push_str(&format!(
            "\n  {}: {}-D, {} tuples, {} heap / {} total pages, indexes [{}], {}",
            rel.name,
            rel.dim,
            rel.live,
            rel.heap_pages,
            rel.total_pages,
            rel.indexes.join(", "),
            rel.health,
        ));
    }
    out
}

/// Renders the WAL-replay section of a recovery report: how many records
/// were replayed over the last checkpoint, their LSN range, whether the log
/// ended in a torn tail, and any replay error.
fn render_wal_replay(out: &mut String, wal: &Option<WalReplay>) {
    let Some(wal) = wal else {
        out.push_str("wal: none\n");
        return;
    };
    if wal.replayed > 0 || wal.error.is_none() {
        let mut line = if wal.replayed > 0 {
            format!(
                "wal: replayed {} record(s), lsn {}..={}",
                wal.replayed, wal.first_lsn, wal.last_lsn
            )
        } else {
            format!("wal: empty (starts at lsn {})", wal.start_lsn)
        };
        if wal.torn_tail {
            line.push_str(", torn tail dropped");
        }
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(err) = &wal.error {
        out.push_str(&format!("wal: {err}\n"));
    }
}

/// Renders a verification report's findings — pager verdict, WAL replay,
/// per-relation health, quarantine cross-check — into `out`. Returns
/// whether any of them is a problem.
fn render_report(out: &mut String, rep: &RecoveryReport) -> bool {
    match rep.pager {
        PagerRecovery::Clean => out.push_str("pager: clean\n"),
        PagerRecovery::FellBack {
            recovered_epoch,
            lost_epoch,
        } => out.push_str(&format!(
            "pager: commit {lost_epoch} was torn; fell back to epoch {recovered_epoch}\n"
        )),
    }
    render_wal_replay(out, &rep.wal);
    if rep.relations.is_empty() {
        out.push_str("no relations\n");
    }
    for (name, health) in &rep.relations {
        out.push_str(&format!("  {name}: {health}\n"));
    }
    match rep.quarantine {
        Some(true) => out.push_str("quarantine: clean (no freed page is still live)\n"),
        Some(false) => out.push_str("quarantine: VIOLATION — a quarantined page is still live\n"),
        None => {}
    }
    rep.relations
        .iter()
        .any(|(_, h)| *h != RelationHealth::Healthy)
        || rep.wal.as_ref().is_some_and(|w| w.error.is_some())
        || rep.quarantine == Some(false)
}

/// Verifies every page of an on-disk database through the checksumming
/// pager and reports per-relation health. With `--rebuild-indexes`, corrupt
/// indexes of degraded relations are re-derived from the (verified) heap and
/// the repair is committed.
pub fn fsck(rest: &str) -> Result<String, String> {
    const USAGE: &str = "usage: fsck <path> [--rebuild-indexes]";
    let mut path: Option<&str> = None;
    let mut rebuild = false;
    for tok in rest.split_whitespace() {
        match tok {
            "--rebuild-indexes" => rebuild = true,
            p if path.is_none() => path = Some(p),
            _ => return Err(USAGE.into()),
        }
    }
    let path = std::path::Path::new(path.ok_or(USAGE)?);
    let mut db = if rebuild {
        ConstraintDb::open(path).map_err(|e| e.to_string())?
    } else {
        ConstraintDb::open_read_only(path).map_err(|e| e.to_string())?
    };
    let report = db.verify_now();
    let fell_back = matches!(report.pager, PagerRecovery::FellBack { .. });
    let mut out = String::new();
    let problems = render_report(&mut out, &report);
    if rebuild {
        let degraded: Vec<String> = report
            .relations
            .iter()
            .filter(|(_, h)| matches!(h, RelationHealth::Degraded { .. }))
            .map(|(n, _)| n.clone())
            .collect();
        for name in &degraded {
            let rebuilt = db.rebuild_indexes(name).map_err(|e| e.to_string())?;
            out.push_str(&format!("  rebuilt {name}: {}\n", rebuilt.join(", ")));
        }
        db.close().map_err(|e| e.to_string())?;
        if degraded.is_empty() {
            out.push_str("nothing to rebuild\n");
        }
    }
    let verdict = if problems {
        if rebuild {
            "fsck: repairs applied (quarantined relations, if any, need manual attention)"
        } else {
            "fsck: problems found"
        }
    } else if fell_back {
        "fsck: ok (after fallback to the previous commit)"
    } else {
        "fsck: ok"
    };
    out.push_str(verdict);
    Ok(out)
}

/// Parses a half-plane in solved form, e.g. `y >= 0.3x - 5`.
pub fn parse_halfplane(expr: &str) -> Result<HalfPlane, String> {
    let c = parse_constraint(expr).map_err(|e| e.to_string())?;
    HalfPlane::from_constraint(&c)
        .ok_or_else(|| "vertical query boundaries are not supported by the dual transform".into())
}

fn preview(ids: &[u32]) -> Vec<u32> {
    ids.iter().take(20).copied().collect()
}

/// The shell's command reference.
pub const HELP: &str = r#"
commands:
  create <rel> <dim>        create a relation (dim 2 for the 2-D index)
  insert <rel> <tuple>      e.g. insert r y >= 0 && y <= 2 && x + y <= 4
  delete <rel> <id>
  index <rel> <k>           build the dual index over k predefined slopes
  indexd <rel> <p> [range]  build the dual index over a p-per-axis grid of
                            slope points (any dim >= 2; replaces `index`)
  exist <rel> <halfplane>   EXIST selection, e.g. exist r y >= 0.3x - 5
  all <rel> <halfplane>     ALL (containment) selection
  line <rel> <y = ax + c>   EXIST against an equality (line) query; planned like
                            any selection, so it works with or without an index
  scan <rel> <halfplane>    sequential-scan EXIST (no index needed)
  rplus <rel> [fill]        pack the R+-tree baseline (Section 5)
  sql <SELECT ...>          constraint-SQL over the operator pipeline, e.g.
                            sql SELECT x, y FROM r WHERE y >= 0.3x - 5 EXIST
                            (joins: FROM r JOIN s; ALL for containment;
                            LIMIT n caps the row count)
  explain <SELECT ...>      render the operator tree with each scan's plan:
                            chosen method, case, refinement, rejections
  explain analyze <SELECT ...>
                            execute, then annotate the tree with observed
                            rows and timings per operator and each scan's
                            actual cost
  show <rel> <id>           print a stored tuple
  relations                 list relations
  stats                     pager + per-relation statistics
  open <path>               open (or create) an on-disk database file;
                            replaces the current in-memory session (local)
  save                      checkpoint the catalog (local file or server)
  fsck [<path>] [--rebuild-indexes]
                            verify page checksums; with no path on a
                            connected session, asks the server to verify
  connect <host:port>       proxy all commands to a cdb-server
  disconnect                drop the connection, back to local in-memory
  ping                      liveness probe
  shutdown                  ask the connected server to drain and exit
  quit
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn local() -> Session {
        let mut s = Session::Local(Box::new(ConstraintDb::in_memory(DbConfig::paper_1999())));
        run_command(&mut s, "create r 2").unwrap();
        s
    }

    /// Lines of shell input that used to take the process down: a `Vec`
    /// sized from `x18446744073709551615`, and `slope2d` on the 1-D or
    /// 3-D half-plane a `line` command made of `x = 1` or `y = z`.
    #[test]
    fn malformed_constraints_are_errors_not_panics() {
        let mut s = local();
        for line in [
            "insert r x18446744073709551615 >= 1",
            "insert r x4000000000 >= 1",
            "insert r 2x3y >= 0",
            "line r x = 1",
            "line r y = z",
            "line r y >= x",
            "exist r y = x",
            "exist r y >= x && x >= 0",
        ] {
            assert!(run_command(&mut s, line).is_err(), "{line}");
        }
        assert!(run_command(&mut s, "line r y = 0.5x + 2").is_ok());
        assert!(run_command(&mut s, "exist r y >= 1e-3x - 5").is_ok());
    }

    /// Lines that used to take the process down: a 61-constraint tuple
    /// panicked in `HeapFile::insert`, and a relation of 4·10⁹ dimensions
    /// let one SQL statement ask for 32 GB. Both are error lines, and the
    /// session keeps working.
    #[test]
    fn records_and_dimensions_past_a_heap_page_are_errors_not_aborts() {
        let mut s = local();
        let wide: Vec<String> = (0..61).map(|i| format!("y >= {i}")).collect();
        let wide = format!("insert r {}", wide.join(" && "));
        for line in [
            wide.as_str(),
            "create big 4000000000",
            "sql SELECT * FROM big WHERE y >= 0",
        ] {
            assert!(run_command(&mut s, line).is_err(), "{line}");
        }
        assert_eq!(run_command(&mut s, "insert r y >= 0"), Ok("tuple 0".into()));
    }

    /// `indexd` parameters that used to abort the process — on a 12 GB
    /// allocation (30-D), in the box-corner enumeration (14-D), on a 32 GB
    /// allocation (4·10⁹ points) — are an error line.
    #[test]
    fn unbuildable_slope_grids_are_errors_not_aborts() {
        use cdb_storage::conformance::peak_during;
        for (dim, per_axis) in [(30, 2), (14, 2), (2, 4_000_000_000u32)] {
            let mut s = Session::Local(Box::new(ConstraintDb::in_memory(DbConfig::paper_1999())));
            run_command(&mut s, &format!("create r {dim}")).unwrap();
            let line = format!("indexd r {per_axis}");
            let (got, peak) = peak_during(|| run_command(&mut s, &line));
            assert!(got.is_err(), "{dim}-D `{line}`: {got:?}");
            assert!(peak < 1 << 16, "{dim}-D `{line}`: {peak} bytes at once");
        }
    }

    /// A slope set larger than the index computes regions for is refused
    /// before a slope is computed: `index r 20000` used to build 40 000
    /// pages of index.
    #[test]
    fn oversized_slope_sets_are_errors_before_any_allocation() {
        use cdb_storage::conformance::peak_during;
        let mut s = local();
        for line in ["index r 2046", "index r 20000", "index r 4000000000"] {
            let (got, peak) = peak_during(|| run_command(&mut s, line));
            assert!(got.is_err(), "`{line}`: {got:?}");
            assert!(peak < 1 << 10, "`{line}`: {peak} bytes at once");
        }
        let stats = run_command(&mut s, "stats").unwrap();
        assert!(stats.contains("indexes []"), "{stats}");
        assert!(run_command(&mut s, "index r 2045").is_ok());
    }
}
