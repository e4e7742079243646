//! One replication node as a process, for multi-process tests and demos.
//!
//! ```text
//! repl_node leader   --dir DIR [--http ADDR] [--repl ADDR]
//! repl_node follower --dir DIR --leader ADDR [--http ADDR]
//! ```
//!
//! Prints `HTTP <addr>`, (leader) `REPL <addr>`, then `READY` on stdout and
//! serves until stdin reaches EOF — so a parent process shuts a node down
//! gracefully by closing the child's stdin, or simulates a crash by
//! killing it.

#![forbid(unsafe_code)]

use rulekit_repl::{FollowerConfig, FollowerNode, LeaderConfig, LeaderNode, NodeConfig};
use rulekit_store::{FileStorage, Storage};
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: repl_node leader   --dir DIR [--http ADDR] [--repl ADDR]\n\
         \x20      repl_node follower --dir DIR --leader ADDR [--http ADDR]"
    );
    std::process::exit(2);
}

struct Args {
    role: String,
    dir: Option<String>,
    http: String,
    repl: String,
    leader: Option<String>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let Some(role) = argv.next() else { usage() };
    let mut args = Args {
        role,
        dir: None,
        http: "127.0.0.1:0".to_string(),
        repl: "127.0.0.1:0".to_string(),
        leader: None,
    };
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--dir" => args.dir = Some(value),
            "--http" => args.http = value,
            "--repl" => args.repl = value,
            "--leader" => args.leader = Some(value),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(dir) = args.dir.clone() else { usage() };
    let storage: Arc<dyn Storage> = match FileStorage::open(&dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("repl_node: cannot open storage dir {dir}: {e}");
            std::process::exit(1);
        }
    };
    let mut cfg = NodeConfig::default();
    cfg.net.addr = args.http.clone();
    // Keep the serving tier small and snappy: these nodes exist to observe
    // replication, not to saturate CPUs.
    cfg.serve.shards = 2;
    cfg.serve.refresh_interval = Duration::from_millis(10);

    let stdout = std::io::stdout();
    match args.role.as_str() {
        "leader" => {
            let leader_cfg = LeaderConfig { addr: args.repl.clone(), ..Default::default() };
            let node = match LeaderNode::start(storage, cfg, leader_cfg) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("repl_node: leader start failed: {e}");
                    std::process::exit(1);
                }
            };
            {
                let mut out = stdout.lock();
                writeln!(out, "HTTP {}", node.http_addr()).ok();
                writeln!(out, "REPL {}", node.repl_addr()).ok();
                writeln!(out, "READY").ok();
                out.flush().ok();
            }
            wait_for_stdin_eof();
            drop(node);
        }
        "follower" => {
            let Some(leader) = args.leader.clone() else { usage() };
            let leader_addr: SocketAddr = match leader.parse() {
                Ok(a) => a,
                Err(_) => {
                    eprintln!("repl_node: bad --leader address {leader}");
                    std::process::exit(1);
                }
            };
            let mut follower_cfg = FollowerConfig::new(leader_addr);
            // Fast reconnect for interactive/test usage.
            follower_cfg.backoff_base = Duration::from_millis(25);
            follower_cfg.backoff_cap = Duration::from_millis(500);
            let node = match FollowerNode::start(storage, cfg, follower_cfg) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("repl_node: follower start failed: {e}");
                    std::process::exit(1);
                }
            };
            {
                let mut out = stdout.lock();
                writeln!(out, "HTTP {}", node.http_addr()).ok();
                writeln!(out, "READY").ok();
                out.flush().ok();
            }
            wait_for_stdin_eof();
            drop(node);
        }
        _ => usage(),
    }
}

/// Blocks until the parent closes our stdin (graceful shutdown signal).
fn wait_for_stdin_eof() {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    while let Some(Ok(_)) = lines.next() {}
}
