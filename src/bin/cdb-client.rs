//! `cdb-client` — the `cdb` shell pointed at a running `cdb-server`.
//!
//! ```text
//! cdb-client 127.0.0.1:7878                 # interactive shell
//! echo "stats" | cdb-client 127.0.0.1:7878  # scripted
//! cdb-client 127.0.0.1:7878 exist parcels "y >= 0.3x - 5"   # one-shot
//! ```
//!
//! Every shell command is proxied over the wire protocol; `help` lists them.

use std::io::BufRead;

use constraint_db::net::Client;
use constraint_db::shell::{repl, run_command, Session};

const USAGE: &str = "usage: cdb-client <host:port> [command ...]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(1);
    }
    let addr = args.remove(0);
    let mut session = match Client::connect(addr.as_str()) {
        Ok(c) => Session::Remote(c),
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    // One-shot mode: the remaining arguments form a single command.
    if !args.is_empty() {
        match run_command(&mut session, &args.join(" ")) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let interactive = std::env::var_os("TERM").is_some();
    if interactive {
        println!("constraint-db client — connected to {addr}; 'help' for commands");
    }
    let source: Box<dyn BufRead> = Box::new(std::io::BufReader::new(std::io::stdin()));
    repl(session, source, interactive);
}
