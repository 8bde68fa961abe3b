//! `cdb-client` — the `cdb` shell pointed at a running `cdb-server`.
//!
//! ```text
//! cdb-client 127.0.0.1:7878                 # interactive shell
//! echo "stats" | cdb-client 127.0.0.1:7878  # scripted
//! cdb-client 127.0.0.1:7878 exist parcels "y >= 0.3x - 5"   # one-shot
//! cdb-client --cluster a:7878,b:7878,c:7878 # replicated deployment:
//!                                           # writes to the primary, reads
//!                                           # load-balanced over followers
//! ```
//!
//! Every shell command is proxied over the wire protocol; `help` lists them.

use std::io::BufRead;

use constraint_db::net::{Client, ClusterClient, ClusterConfig};
use constraint_db::shell::{repl, run_command, Session};

const USAGE: &str = "usage: cdb-client <host:port | --cluster a:p,b:p,...> [command ...]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut cluster: Option<String> = None;
    if args.first().is_some_and(|a| a == "--cluster") {
        args.remove(0);
        if args.is_empty() {
            eprintln!("--cluster needs a member list\n{USAGE}");
            std::process::exit(1);
        }
        cluster = Some(args.remove(0));
    }
    let (mut session, connected_to) = if let Some(members) = &cluster {
        let list: Vec<&str> = members
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let cc = match ClusterClient::new(list, ClusterConfig::default()) {
            Ok(cc) => cc,
            Err(e) => {
                eprintln!("bad cluster member list '{members}': {e}");
                std::process::exit(1);
            }
        };
        (Session::Cluster(cc), format!("cluster {members}"))
    } else {
        if args.is_empty() {
            eprintln!("{USAGE}");
            std::process::exit(1);
        }
        let addr = args.remove(0);
        let client = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        };
        (Session::Remote(client), addr)
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
        println!("constraint-db client — connected to {connected_to}; 'help' for commands");
    }
    let source: Box<dyn BufRead> = Box::new(std::io::BufReader::new(std::io::stdin()));
    repl(session, source, interactive);
}
