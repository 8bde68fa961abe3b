//! `perf` — the benchmark of the constraint database.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! perf --all [--quick] [--seed N] [--reps R] [--out FILE]  every workload, untraced then traced
//! perf compare A.json B.json                               verdict per (metric, workload)
//! ```
//!
//! See `README.md` for the workloads, the metrics and how they interact.

mod bed;
mod churn;
mod compare;
mod embedded;
mod inputs;
mod json;
mod model;
mod report;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{QuerySet, Scale};
use json::Json;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Seed of `--all` when none is given; `BENCHMARK.json`'s baseline uses it.
const DEFAULT_SEED: u64 = 12;
/// Measured seconds per run: `run_seconds` of `BENCHMARK.json`.
const FULL_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 3.0;

/// Why a run could not finish: an engine, wire or file error, or a check
/// of the harness itself.
pub type Failure = Box<dyn std::error::Error + Send + Sync>;
pub type Run<T> = Result<T, Failure>;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// How long the untraced run measures. A traced run does a fixed
    /// amount of work instead.
    pub seconds: f64,
    pub scale: Scale,
}

/// The four workloads. Names are fixed; later issues refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EmbeddedT2,
    EmbeddedRestricted,
    DurableChurn,
    ServedMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EmbeddedT2,
        Workload::EmbeddedRestricted,
        Workload::DurableChurn,
        Workload::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbeddedT2 => "embedded_t2",
            Workload::EmbeddedRestricted => "embedded_restricted",
            Workload::DurableChurn => "durable_churn",
            Workload::ServedMixed => "served_mixed",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run(self, cfg: &Cfg, traced: bool) -> Run<Outcome> {
        match (self, traced) {
            (Workload::EmbeddedT2, false) => embedded::run(QuerySet::T2, cfg),
            (Workload::EmbeddedT2, true) => embedded::trace(QuerySet::T2, cfg),
            (Workload::EmbeddedRestricted, false) => embedded::run(QuerySet::Restricted, cfg),
            (Workload::EmbeddedRestricted, true) => embedded::trace(QuerySet::Restricted, cfg),
            (Workload::DurableChurn, false) => churn::run(cfg),
            (Workload::DurableChurn, true) => churn::trace(cfg),
            (Workload::ServedMixed, false) => served::run(cfg),
            (Workload::ServedMixed, true) => served::trace(cfg),
        }
    }
}

/// Cores available to this process: the cap on generator threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This package's directory: cargo sets `CARGO_MANIFEST_DIR` for
/// `cargo run`; a binary started by hand falls back to where it was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The benchmark's contract file at the root of the repository.
pub fn benchmark_json() -> PathBuf {
    package_dir().join("..").join("BENCHMARK.json")
}

/// Where traces and scratch databases go: `perf/target/perf/`, which
/// `perf/.gitignore` hides.
pub fn out_dir() -> PathBuf {
    package_dir().join("target").join("perf")
}

/// Writes a run's spans to `perf/target/perf/trace-<workload>.json`.
pub fn write_trace(workload: &str, tracer: &trace::Tracer) -> Run<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload).render())?;
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload NAME --seed N --seconds S --trace 0|1\n       \
         perf --all [--quick] [--seed N] [--reps R] [--out FILE]\n       \
         perf compare A.json B.json\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Command-line options of the two run modes.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    all: bool,
    quick: bool,
    reps: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => a.all = true,
            "--quick" => a.quick = true,
            "--workload" => a.workload = Some(it.next()?.clone()),
            "--seed" => a.seed = Some(it.next()?.parse().ok()?),
            "--seconds" => {
                let s: f64 = it.next()?.parse().ok()?;
                a.seconds = (s.is_finite() && s > 0.0).then_some(s);
                a.seconds?;
            }
            "--trace" => {
                a.trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--reps" => a.reps = Some(it.next()?.parse().ok().filter(|&r| r >= 1)?),
            "--out" => a.out = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    Some(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let scale = if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    let default_seconds = if args.quick {
        QUICK_SECONDS
    } else {
        FULL_SECONDS
    };
    let cfg = Cfg {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(default_seconds),
        scale,
    };
    if args.all {
        return all(
            &cfg,
            args.quick,
            args.reps.unwrap_or(1),
            args.out.as_deref(),
        );
    }
    let (Some(name), Some(traced)) = (args.workload, args.trace) else {
        return usage();
    };
    let Some(workload) = Workload::parse(&name) else {
        eprintln!("unknown workload {name}");
        return usage();
    };
    one(workload, &cfg, traced)
}

/// Driver mode: one run, the result as the last line of standard output.
fn one(workload: Workload, cfg: &Cfg, traced: bool) -> ExitCode {
    match workload.run(cfg, traced) {
        Ok(out) => {
            let (defs, title) = if traced {
                (PER_LAYER, "per-layer")
            } else {
                (END_TO_END, "end-to-end")
            };
            out.print(&format!("{} ({title})", workload.name()), defs, traced);
            println!("{}", out.driver_line(traced));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Suite mode: every workload untraced (`reps` times) and traced (once),
/// every metric printed by name, results optionally written to a file.
fn all(cfg: &Cfg, quick: bool, reps: usize, out_path: Option<&std::path::Path>) -> ExitCode {
    let mut failed_ops = 0u64;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut runs = Vec::with_capacity(reps);
        for rep in 0..reps {
            match w.run(cfg, false) {
                Ok(o) => {
                    o.print(
                        &format!("{} end-to-end (run {} of {reps})", w.name(), rep + 1),
                        END_TO_END,
                        false,
                    );
                    failed_ops += o.failed;
                    runs.push(o);
                }
                Err(e) => {
                    eprintln!("{}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        let traced = match w.run(cfg, true) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{} (traced): {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        traced.print(&format!("{} per-layer", w.name()), PER_LAYER, true);
        failed_ops += traced.failed;
        workloads.push((w.name(), compare::workload_json(&runs, &traced)));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("cdb-perf")),
        ("commit", Json::str(commit())),
        ("nproc", Json::Num(nproc() as f64)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("quick", Json::Bool(quick)),
        ("seconds", Json::Num(cfg.seconds)),
        ("reps", Json::Num(reps as f64)),
        (
            "scale",
            Json::obj([
                ("n", Json::Num(cfg.scale.n as f64)),
                ("n_write", Json::Num(cfg.scale.n_write as f64)),
                (
                    "queries_per_round",
                    Json::Num(2.0 * cfg.scale.per_kind as f64),
                ),
                (
                    "trace_mutations",
                    Json::Num(cfg.scale.trace_mutations as f64),
                ),
                ("setup_builds", Json::Num(cfg.scale.setup_builds as f64)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
        ("ops_failed", Json::Num(failed_ops as f64)),
        // This harness is the instrument; it claims no gain.
        ("claim", Json::Null),
    ]);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!("ops failed: {failed_ops}");
    println!("\"claim\": null");
    if failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
