//! `cdb` — a tiny interactive shell over the constraint database engine.
//!
//! ```text
//! cargo run --release --bin cdb
//! cdb> create parcels 2
//! cdb> insert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4
//! cdb> insert parcels y >= x && x >= 10
//! cdb> index parcels 4
//! cdb> exist parcels y >= 0.3x - 5
//! cdb> explain analyze SELECT * FROM parcels WHERE y >= 0.3x - 5 EXIST
//! cdb> all parcels y <= 100
//! cdb> stats
//! ```
//!
//! Also usable non-interactively: `echo "..." | cdb` or `cdb script.cdb`.
//! Commands run against an in-memory engine until `open <path>` (on-disk
//! file) or `connect <host:port>` (a running `cdb-server`) redirects them.

use std::io::BufRead;

use constraint_db::prelude::*;
use constraint_db::shell::{fsck, repl, Session};

fn main() {
    // `cdb fsck <path> [--rebuild-indexes]` works as a one-shot CLI, so an
    // operator (or ci.sh) can health-check a file without entering the shell.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fsck") {
        match fsck(&args[1..].join(" ")) {
            Ok(msg) => {
                println!("{msg}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let interactive = std::env::args().len() == 1 && atty_stdin();
    let source: Box<dyn BufRead> = match std::env::args().nth(1) {
        Some(path) => match std::fs::File::open(&path) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }
        },
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    if interactive {
        println!("constraint-db shell — 'help' for commands, 'quit' to exit");
    }
    let session = Session::Local(Box::new(ConstraintDb::in_memory(DbConfig::paper_1999())));
    repl(session, source, interactive);
}

/// Best-effort TTY detection without external crates.
fn atty_stdin() -> bool {
    // If stdin is a file or pipe, reading its metadata length usually
    // succeeds; for a terminal this is not reliable cross-platform, so fall
    // back to the conservative default of printing prompts only when the
    // TERM variable is present.
    std::env::var_os("TERM").is_some()
}
