//! The shard-server binary: bind a TCP listener and serve shard sessions.
//!
//! ```text
//! shard-server --listen 127.0.0.1:7701 [--max-sessions M] [--data-dir PATH]
//!              [--stats-interval SECS] [--chaos SEED]
//! ```
//!
//! One process serves any number of independent cleaning sessions
//! concurrently ([`cp_rpc::ShardServer`] is multi-tenant): each coordinator
//! connects, opens its session (`Open` mints a session handle), drives scans
//! and cleaning steps, and ends with `Close` + `Shutdown`. Identical `Open`
//! payloads share one similarity-index build. The process serves until it
//! is killed; once bound, it prints `shard-server listening on ADDR` (the
//! resolved address, so `--listen 127.0.0.1:0` reports its ephemeral
//! port). A bad argument exits non-zero before anything is bound.
//!
//! `--data-dir PATH` makes sessions durable: every `Open` payload and
//! applied pin is appended (fsync'd, CRC-framed) to a per-session
//! write-ahead log under PATH, and a restarted server pointed at the same
//! PATH replays the logs and resumes every in-flight session — a
//! reconnecting coordinator's retransmitted `Step` lands on recovered
//! state.
//!
//! `--stats-interval SECS` dumps the `cp-obs` metric registry to stderr
//! every SECS seconds (the same snapshot the wire-level `Stats` request
//! returns); set `CP_LOG=info` or `debug` for per-connection diagnostics.
//!
//! `--chaos SEED` arms deterministic fault injection on every connection's
//! response path ([`cp_rpc::FaultPlan::mixed`] with SEED): frames are
//! dropped, delayed, bit-flipped, truncated, duplicated, and connections
//! killed mid-stream, on a seeded schedule. A correct coordinator rides
//! through all of it (CRC trailers + retry/failover); this flag exists to
//! prove that against a *real* process, not just in-process tests.

use cp_rpc::{FaultPlan, ServerConfig};
use std::net::TcpListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut listen = String::from("127.0.0.1:7701");
    let mut cfg = ServerConfig::default();
    let mut stats_interval: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(addr) => listen = addr,
                None => {
                    eprintln!("shard-server: --listen requires an address");
                    return ExitCode::FAILURE;
                }
            },
            "--max-sessions" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => cfg.max_sessions = n,
                _ => {
                    eprintln!("shard-server: --max-sessions requires a positive count");
                    return ExitCode::FAILURE;
                }
            },
            "--data-dir" => match args.next() {
                Some(path) => cfg.data_dir = Some(path.into()),
                None => {
                    eprintln!("shard-server: --data-dir requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--stats-interval" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => stats_interval = Some(n),
                _ => {
                    eprintln!("shard-server: --stats-interval requires a positive second count");
                    return ExitCode::FAILURE;
                }
            },
            "--chaos" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seed) => cfg.chaos = Some(FaultPlan::mixed(seed)),
                None => {
                    eprintln!("shard-server: --chaos requires a u64 seed");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: shard-server [--listen ADDR] [--max-sessions M] [--data-dir PATH] \
                     [--stats-interval SECS] [--chaos SEED]"
                );
                println!(
                    "  --listen ADDR         bind address (default 127.0.0.1:7701; port 0 \
                     picks a free one)"
                );
                println!(
                    "  --max-sessions M      cap on concurrent sessions (default {})",
                    ServerConfig::default().max_sessions
                );
                println!(
                    "  --data-dir PATH       write-ahead-log sessions under PATH; a restart \
                     replays and resumes them"
                );
                println!("  --stats-interval SECS dump the metric registry to stderr every SECS");
                println!(
                    "  --chaos SEED          inject seeded frame faults on every response path"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("shard-server: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("shard-server: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("shard-server listening on {addr}"),
        Err(_) => println!("shard-server listening on {listen}"),
    }

    if let Some(secs) = stats_interval {
        // Detached reporter; dies with the process when serve_with returns.
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let snap = cp_obs::snapshot();
            if !snap.is_empty() {
                eprintln!("{}", snap.render_text());
            }
        });
    }

    match cp_rpc::serve_with(listener, cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard-server: {e}");
            ExitCode::FAILURE
        }
    }
}
