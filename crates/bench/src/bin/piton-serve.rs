//! `piton-serve` — the sweep-as-a-service daemon.
//!
//! Listens on a Unix domain socket for newline-delimited JSON
//! experiment requests, serves every previously-computed grid point
//! from a persistent content-addressed cache, computes only the
//! misses, and streams checksummed result frames back. See
//! `piton_core::serve` for the protocol and invariants.
//!
//! Usage:
//!
//! ```text
//! piton-serve --socket PATH --cache-dir DIR [--jobs N] [--shard N]
//! ```
//!
//! Every flag accepts `--flag VALUE` or `--flag=VALUE`; no environment
//! variable sets one, and any other argument exits 2 before the socket
//! is bound, naming it. The daemon prints one `listening` line to
//! stderr once the socket is bound (scripts wait for it), runs until a
//! `{"op":"shutdown"}` request arrives, then writes
//! `serve-manifest.json` into the cache directory, removes the socket
//! and prints a counter summary. Exit status: 0 on clean shutdown, 1 on
//! serve failures, 2 on usage errors.

use piton_bench::{flag_value, unknown_arg};
use piton_core::runner;
use piton_core::serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: piton-serve --socket PATH --cache-dir DIR [--jobs N] [--shard N]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(a) = unknown_arg(&args, &["socket", "cache-dir", "jobs", "shard"], &[]) {
        eprintln!("piton-serve: unknown argument {a:?}");
        usage();
    }
    let flag = |name: &str| flag_value(&args, name);
    let Some(socket) = flag("socket") else {
        usage()
    };
    let Some(cache_dir) = flag("cache-dir") else {
        usage()
    };
    let parse_count = |spec: Option<String>, what: &str| -> Option<usize> {
        spec.map(|s| match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("piton-serve: {what} {s:?} is not a positive integer");
                std::process::exit(2);
            }
        })
    };
    let jobs = parse_count(flag("jobs"), "--jobs").unwrap_or_else(runner::default_jobs);
    let shard = parse_count(flag("shard"), "--shard").unwrap_or(512);

    let config = ServerConfig::new(&socket, &cache_dir)
        .with_jobs(jobs)
        .with_shard_points(shard);
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("piton-serve: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("piton-serve: listening on {socket} (cache {cache_dir}, jobs {jobs}, shard {shard})");
    match server.run() {
        Ok(manifest) => {
            let line = manifest
                .counters
                .iter()
                .map(|(n, v)| format!("{}={v}", n.trim_start_matches("serve.")))
                .collect::<Vec<_>>()
                .join(" ");
            eprintln!("piton-serve: shutdown clean: {line}");
        }
        Err(e) => {
            eprintln!("piton-serve: {e}");
            std::process::exit(1);
        }
    }
}
