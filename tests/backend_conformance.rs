//! One request-execution surface, two executors: the same seeded op
//! script must produce the same answers — equal to the brute-force
//! predicate oracle — through an in-process engine and one wire session;
//! and the shell must print the same text for the same lines wherever the
//! data lives.

use cdb_prng::StdRng;
use constraint_db::geometry::predicates;
use constraint_db::index::db::{ConstraintDb, DbConfig};
use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::{CdbError, IndexSpec};
use constraint_db::net::server::{Server, ServerConfig, ShutdownHandle};
use constraint_db::net::{Api, Backend, Client, NetError};
use constraint_db::prelude::*;
use constraint_db::shell::{run_command, Session};

/// An in-process server on an ephemeral port, stopped on
/// [`Served::stop`].
struct Served {
    addr: String,
    stop: ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

/// Boots one in-memory server.
fn boot() -> Served {
    let db = ConstraintDb::in_memory(DbConfig::paper_1999());
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).unwrap();
    Served {
        addr: server.local_addr().to_string(),
        stop: server.shutdown_handle(),
        thread: std::thread::spawn(move || {
            server.run().unwrap();
        }),
    }
}

impl Served {
    fn stop(self) {
        self.stop.shutdown();
        self.thread.join().unwrap();
    }
}

fn seeded_tuples() -> Vec<GeneralizedTuple> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut tuples: Vec<GeneralizedTuple> = (0..40)
        .map(|_| {
            let x0: f64 = rng.gen_range(-50.0..45.0);
            let y0: f64 = rng.gen_range(-50.0..45.0);
            let (w, h) = (rng.gen_range(1.0..6.0), rng.gen_range(1.0..6.0));
            parse_tuple(&format!(
                "x >= {x0} && x <= {} && y >= {y0} && y <= {}",
                x0 + w,
                y0 + h
            ))
            .unwrap()
        })
        .collect();
    // An unbounded tuple in the middle of the id sequence.
    tuples.insert(17, parse_tuple("y >= x && x >= 10").unwrap());
    tuples
}

/// Live `(id, tuple)` pairs the oracle evaluates over.
type Model = Vec<(u32, GeneralizedTuple)>;

fn oracle(model: &Model, sel: &Selection) -> Vec<u32> {
    let all = sel.kind == SelectionKind::All;
    predicates::oracle_select(&sel.halfplane, all, model.iter().map(|(_, t)| t))
        .into_iter()
        .map(|i| model[i].0)
        .collect()
}

/// Selections with slopes inside and outside the index's slope set `S`,
/// both operators, both kinds.
fn selections(slopes: &[f64]) -> Vec<Selection> {
    let mut out = Vec::new();
    for (i, a) in [slopes[1], slopes[2], 0.3, -0.45].into_iter().enumerate() {
        let q = if i % 2 == 0 {
            HalfPlane::above(a, -5.0)
        } else {
            HalfPlane::below(a, 12.0)
        };
        out.push(Selection::exist(q.clone()));
        out.push(Selection::all(q));
    }
    out
}

/// The op script. Asserts every answer against the oracle and returns
/// the answers, so the caller can also compare backends with each other.
fn run_script<B: Backend>(api: &mut Api<B>, label: &str) -> Vec<Vec<u32>> {
    let mut transcript = Vec::new();
    api.ping().unwrap();
    api.create_relation("r", 2).unwrap();
    let mut model: Model = Vec::new();
    for (i, t) in seeded_tuples().into_iter().enumerate() {
        let id = api.insert("r", t.clone()).unwrap();
        assert_eq!(id, i as u32, "{label}: ids are the single-node sequence");
        model.push((id, t));
    }
    let slope_set = SlopeSet::uniform_tan(4);
    api.build_index("r", IndexSpec::Dual(slope_set.clone().into()))
        .unwrap();

    // The dispatcher's validation answers every backend the same way.
    // (Slopes no slope set takes cannot be sent typed: see
    // `forged_build_frames_are_malformed_and_build_nothing`.)
    for bad_fill in [0.1, 1.5] {
        let rplus = IndexSpec::RPlus { fill: bad_fill };
        assert!(
            matches!(api.build_index("r", rplus), Err(NetError::Malformed(_))),
            "{label}: fill {bad_fill} must be refused, not packed"
        );
    }
    assert!(matches!(
        api.create_relation("zero", 0),
        Err(NetError::Db(CdbError::DimensionOutOfRange { dim: 0, .. }))
    ));

    let sels = selections(slope_set.as_slice());
    for sel in &sels {
        let r = api.query("r", sel.clone(), Strategy::Auto).unwrap();
        assert_eq!(r.ids(), oracle(&model, sel), "{label}: {sel:?}");
        transcript.push(r.ids().to_vec());
    }

    let (a, c) = (0.5, 1.0);
    let line = api.query_line("r", SelectionKind::Exist, a, c).unwrap();
    let expected: Vec<u32> = model
        .iter()
        .filter(|(_, t)| predicates::exist_hyperplane(&[a], c, t))
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(line.ids(), expected, "{label}: line query");
    assert!(!expected.is_empty(), "the line query must select something");
    transcript.push(line.ids().to_vec());

    let exist = Selection::exist(HalfPlane::above(0.3, -5.0));
    let full = oracle(&model, &exist);
    assert!(full.len() > 5, "LIMIT must actually cut");
    let o = api
        .sql(
            "SELECT * FROM r WHERE y >= 0.3x - 5 EXIST LIMIT 5",
            SqlMode::Execute,
        )
        .unwrap();
    let rows: Vec<u32> = o.rows.iter().map(|row| row.ids[0]).collect();
    assert_eq!(rows, full[..5], "{label}: SQL LIMIT keeps the lowest ids");
    transcript.push(rows);

    let explained = api
        .sql(
            "SELECT * FROM r WHERE y >= 0.3x - 5 EXIST",
            SqlMode::ExplainAnalyze,
        )
        .unwrap();
    let rendered = explained.plan.expect("a rendered plan");
    assert!(rendered.contains("method="), "{label}: {rendered}");
    let rows = format!(" {} rows\n", full.len());
    assert!(
        rendered.contains(&rows),
        "{label}: EXPLAIN executes: {rendered}"
    );

    // Delete a bounded tuple and the unbounded one; both disappear.
    for id in [3u32, 17] {
        let at = model.iter().position(|(i, _)| *i == id).unwrap();
        let (_, t) = model.remove(at);
        assert_eq!(api.delete("r", id).unwrap(), t, "{label}: delete {id}");
        assert!(api.fetch_tuple("r", id).is_err(), "{label}: {id} is gone");
    }
    assert_eq!(api.fetch_tuple("r", 4).unwrap(), model[3].1);
    for sel in &sels {
        let r = api.query("r", sel.clone(), Strategy::Auto).unwrap();
        assert_eq!(r.ids(), oracle(&model, sel), "{label} after delete");
        transcript.push(r.ids().to_vec());
    }

    assert_eq!(api.relations().unwrap(), ["r"]);
    api.checkpoint().unwrap();
    api.drop_relation("r").unwrap();
    assert!(api.relations().unwrap().is_empty(), "{label}: dropped");
    transcript
}

#[test]
fn every_backend_answers_the_script_like_the_oracle() {
    let mut local = Api(ConstraintDb::in_memory(DbConfig::paper_1999()));
    let reference = run_script(&mut local, "local");

    let served = boot();
    let mut client = Client::connect(served.addr.as_str()).unwrap();
    assert_eq!(run_script(&mut client, "client"), reference);
    served.stop();
}

/// Each stats-bearing backend reports through the same typed reply; the
/// in-process engine has no sessions.
#[test]
fn stats_and_fsck_answer_on_every_single_answer_backend() {
    let mut local = Api(ConstraintDb::in_memory(DbConfig::paper_1999()));
    local.create_relation("r", 2).unwrap();
    let reply = local.stats().unwrap();
    assert_eq!(reply.db.relations[0].name, "r");
    assert_eq!(reply.connections, 0);
    assert!(local.fsck().unwrap().relations[0].0 == "r");
    // An in-process engine has no server to stop, and no wire decoder in
    // front of it: the dispatcher itself refuses a non-finite fill (slope
    // sets and slope points refuse theirs in their constructors).
    assert!(local.shutdown().is_err());
    let nan = IndexSpec::RPlus { fill: f64::NAN };
    assert!(matches!(
        local.build_index("r", nan),
        Err(NetError::Malformed(_))
    ));
    assert!(SlopeSet::try_new(vec![f64::NAN, 1.0]).is_err());
    assert!(SlopePoints::try_grid(2, 3, f64::INFINITY).is_err());

    let served = boot();
    let mut client = Client::connect(served.addr.as_str()).unwrap();
    client.create_relation("r", 2).unwrap();
    assert!(client.stats().unwrap().connections >= 1);
    assert_eq!(client.fsck().unwrap().relations[0].0, "r");
    served.stop();
}

/// Slopes no slope set takes cannot be sent as a typed `IndexSpec`; a peer
/// that forges them anyway — a repeated slope, a NaN, 20 000 slopes (which
/// allocated 40 000 pages when slope sets had no size bound) — is answered
/// `Malformed` as the frame is decoded, and the node allocates no page for
/// it. The largest slope set a node builds, 2 045 slopes, is accepted.
#[test]
fn forged_build_frames_are_malformed_and_build_nothing() {
    use constraint_db::net::proto::{
        decode_greeting, decode_response, encode_hello, PROTOCOL_VERSION,
    };
    use constraint_db::storage::codec::{read_frame, write_frame, DEFAULT_MAX_FRAME};
    use constraint_db::storage::{RecordWriter, Wire};

    let served = boot();
    let mut client = Client::connect(served.addr.as_str()).unwrap();
    client.create_relation("r", 2).unwrap();
    for t in seeded_tuples() {
        client.insert("r", t).unwrap();
    }
    let allocations = |client: &mut Client| client.stats().unwrap().db.io.allocations;
    let before = allocations(&mut client);
    let build = |slopes: &[f64]| {
        let mut w = RecordWriter::new();
        (1u64, 0u32, 19u8).put(&mut w); // id, no deadline, the Build op
        ("r".to_string(), 0u8, 0u8).put(&mut w); // `IndexSpec::Dual` of a `SlopeGeometry::Set`
        slopes.to_vec().put(&mut w);
        w.into_bytes()
    };
    let many: Vec<f64> = (0..20_000).map(f64::from).collect();
    for (what, frame) in [
        ("a repeated slope", build(&[1.0, 1.0])),
        ("a NaN", build(&[f64::NAN, 1.0])),
        ("20 000 slopes", build(&many)),
        ("2 046 slopes", build(&many[..2046])),
    ] {
        let mut stream = std::net::TcpStream::connect(served.addr.as_str()).unwrap();
        let greeting = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(decode_greeting(&greeting).unwrap().0, PROTOCOL_VERSION);
        write_frame(&mut stream, &encode_hello(PROTOCOL_VERSION)).unwrap();
        write_frame(&mut stream, &frame).unwrap();
        let answer = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        let outcome = decode_response(&answer).unwrap().2;
        assert!(
            matches!(outcome, Err(NetError::Malformed(_))),
            "{what}: {outcome:?}"
        );
    }
    assert_eq!(
        allocations(&mut client),
        before,
        "pages for a refused build"
    );
    let largest = SlopeSet::try_new(many[..2045].to_vec()).unwrap();
    client
        .build_index("r", IndexSpec::Dual(largest.into()))
        .unwrap();
    assert!(allocations(&mut client) > before, "the 2 045-slope build");
    served.stop();
}

/// The same shell lines on a local and a remote session: identical text
/// for queries, SQL and EXPLAIN; identical refusals for bad arguments.
#[test]
fn shell_renders_the_same_text_local_and_remote() {
    let served = boot();
    let mut remote = Session::Remote(Client::connect(served.addr.as_str()).unwrap());
    let mut local = Session::Local(Box::new(ConstraintDb::in_memory(DbConfig::paper_1999())));

    let lines = [
        "ping",
        "create r 2",
        "insert r y >= 0 && y <= 2 && x >= 0 && x + y <= 4",
        "insert r y >= x && y <= x + 1 && x >= 10",
        "insert r y >= -1 && y <= 1 && x >= -3 && x <= -1",
        "insert r y >= x && x >= 20",
        "index r 4",
        "explain SELECT * FROM r WHERE y >= 0.3x - 5 EXIST",
        "sql SELECT * FROM r WHERE y >= 0.3x - 5 EXIST LIMIT 3",
        "explain analyze SELECT * FROM r WHERE y <= 100 ALL",
        "scan r y >= 0.3x - 5",
        "line r y = 0.5x + 1",
        "show r 1",
        "delete r 0",
        "relations",
        "rplus r 0.75",
        "save",
        "fsck",
    ];
    // What executed reads taught the planner outlives the write after
    // them: the remote reads ran on a snapshot the write replaced.
    let boxes = (0..40).map(|i| {
        let (x, y) = ((i * 37) % 100 - 50, (i * 53) % 100 - 50);
        format!(
            "insert b x >= {x} && x <= {} && y >= {y} && y <= {}",
            x + 4,
            y + 3
        )
    });
    let feedback = std::iter::once("create b 2".to_string())
        .chain(boxes)
        .chain(
            [
                "index b 4",
                "rplus b 1.0",
                "all b y <= 0.3x + 10",
                "all b y <= 0.3x + 12",
                "insert b x >= 1 && x <= 2 && y >= 1 && y <= 2",
                "explain analyze SELECT * FROM b WHERE y <= 0.3x + 11 ALL",
            ]
            .map(String::from),
        );
    // EXPLAIN ANALYZE's wall-clock lines are the one thing that differs.
    let untimed = |out: Result<String, String>| {
        out.map(|text| {
            let lines = text
                .lines()
                .filter(|l| !l.trim_start().starts_with("time:"));
            lines.collect::<Vec<_>>().join("\n")
        })
    };
    for line in lines.map(String::from).into_iter().chain(feedback) {
        let line = line.as_str();
        let l = untimed(run_command(&mut local, line));
        let r = untimed(run_command(&mut remote, line));
        assert!(l.is_ok(), "local `{line}`: {l:?}");
        assert_eq!(l, r, "`{line}` must render identically");
    }

    // Bad arguments are refused by the one dispatcher — never a panic,
    // never silently defaulted — with the same message on both sides.
    for line in [
        "rplus r 0.1",
        "rplus r abc",
        "create z 0",
        "index r 1",
        "indexd r 1",
        "indexd r 3 -2",
        "show r 0",
        "exist nope y >= 0",
    ] {
        let l = run_command(&mut local, line);
        let r = run_command(&mut remote, line);
        assert!(l.is_err(), "local `{line}` must be refused: {l:?}");
        assert_eq!(l, r, "`{line}` must be refused identically");
    }

    // Session management is the one place the kind shows.
    assert!(run_command(&mut local, "shutdown").is_err());
    assert!(run_command(&mut remote, "open /nonexistent").is_err());
    served.stop();
}
