//! `cdb-server` — serves a constraint database over the `cdb-net` wire
//! protocol.
//!
//! ```text
//! cdb-server db.cdb --addr 127.0.0.1:7878
//! cdb-server --in-memory --addr 127.0.0.1:0   # ephemeral port, printed
//! ```
//!
//! The server prints `listening on <addr>` once ready (scripts and tests
//! parse this line to discover an ephemeral port), then serves until a
//! client sends `shutdown` or the process receives SIGINT/SIGTERM — on a
//! clean shutdown it drains in-flight requests, checkpoints, and exits 0.

use constraint_db::index::db::{ConstraintDb, DbConfig};
use constraint_db::net::server::{Server, ServerConfig};
use std::io::Write as _;

const USAGE: &str = "usage: cdb-server <db-path | --in-memory> [--addr HOST:PORT] \
[--workers N] [--max-connections N] [--write-queue N] [--checkpoint-every N]";

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut in_memory = false;
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--in-memory" => in_memory = true,
            "--addr" => addr = flag_value(&mut args, "--addr")?,
            "--workers" => config.workers = parse_flag(&mut args, "--workers")?,
            "--max-connections" => {
                config.max_connections = parse_flag(&mut args, "--max-connections")?;
            }
            "--write-queue" => config.write_queue = parse_flag(&mut args, "--write-queue")?,
            "--checkpoint-every" => {
                config.checkpoint_every = parse_flag(&mut args, "--checkpoint-every")?;
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(arg),
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    // No session could ever be admitted, not even one asking to shut down.
    if config.max_connections == 0 {
        return Err("--max-connections must be at least 1".into());
    }

    let db = match (&path, in_memory) {
        (Some(_), true) => {
            return Err(format!(
                "choose a db path or --in-memory, not both\n{USAGE}"
            ))
        }
        (None, false) => return Err(USAGE.into()),
        (None, true) => ConstraintDb::in_memory(DbConfig::paper_1999()),
        (Some(p), false) => {
            let p = std::path::Path::new(p);
            if p.exists() {
                ConstraintDb::open(p).map_err(|e| e.to_string())?
            } else {
                ConstraintDb::create(p, DbConfig::paper_1999()).map_err(|e| e.to_string())?
            }
        }
    };
    let server = Server::bind(addr.as_str(), db, config).map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    // run() blocks until a client requests shutdown, then drains, checkpoints
    // and hands the database back; close() absorbs and removes the WAL so a
    // graceful exit leaves only the committed database file.
    let db = server.run().map_err(|e| e.to_string())?;
    db.close().map_err(|e| e.to_string())?;
    Ok(())
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    flag_value(args, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs a number\n{USAGE}"))
}
