//! `perfbench`: the processes of one benchmark round, plus the reference
//! renders and the per-layer replay.
//!
//! `run.py` starts these subcommands as separate processes, times them
//! from outside and reads the JSON object each prints as its last line:
//!
//! ```text
//! perfbench refs WORKLOAD --seed S --out FILE   plain reference renders
//! perfbench threads --coherence 0|1 --refs FILE [--traced]
//! perfbench tcp-master --coherence 0|1 --refs FILE [--traced]
//! perfbench tcp-worker --coherence 0|1 [--traced]
//! perfbench svc-master --root DIR [--traced]
//! perfbench svc-worker [--traced]
//! perfbench svc-client --seed S --refs FILE
//! perfbench replay WORKLOAD --seed S --dir DIR  per-layer replay
//! ```
//!
//! A master prints `listening ADDR` once bound. Workers and the client
//! are launched together with it: each builds what it needs, then reads
//! the master's address as one line on stdin, so a round's set-up does
//! not wait for one process to start before the next is launched.
//!
//! Every process calls the program only through the public items of its
//! crates; the timing wrappers in [`probe`] live here, not in the program.

mod check;
mod farm;
mod mix;
mod out;
mod probe;
mod replay;
mod service;

use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("refs") => check::cmd_refs(rest),
        Some("threads") => farm::cmd_threads(rest),
        Some("tcp-master") => farm::cmd_tcp_master(rest),
        Some("tcp-worker") => farm::cmd_tcp_worker(rest),
        Some("svc-master") => service::cmd_master(rest),
        Some("svc-worker") => service::cmd_worker(rest),
        Some("svc-client") => service::cmd_client(rest),
        Some("replay") => replay::cmd_replay(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The value after `flag`, if present.
pub fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value after `flag`, required.
pub fn need<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

/// True when `flag` is present.
pub fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The first argument, when it is not a flag (an address or workload).
pub fn positional(args: &[String]) -> Result<&str, String> {
    args.first()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| "missing positional argument".to_string())
}

/// The master's address, read as one line from stdin.
pub fn master_addr() -> Result<String, String> {
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| format!("read master address: {e}"))?;
    match line.trim() {
        "" => Err("no master address on stdin".to_string()),
        addr => Ok(addr.to_string()),
    }
}

/// `--seed S`.
pub fn seed(args: &[String]) -> Result<u64, String> {
    need(args, "--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_string())
}

/// `--coherence 0|1`.
pub fn coherence(args: &[String]) -> Result<bool, String> {
    match need(args, "--coherence")? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad --coherence {other}")),
    }
}
