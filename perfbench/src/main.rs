//! End-to-end and per-layer benchmark of the SENS-Join workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot_paper|continuous_durable|serve_multitenant> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: the next op starts when
//! the previous one returns, and the program uses its own worker threads.
//! Inputs are generated from `--seed`; every op is checked against an exact
//! join that bypasses the network, outside the timed region. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced ops, re-runs every layer on the traced
//! ops' inputs, and prints the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is the result object. The exit
//! code is non-zero when any check fails.

mod alloc;
mod common;
mod continuous;
mod oneshot;
mod probe;
mod report;
mod serve;
mod trace;

use common::Cfg;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["oneshot_paper", "continuous_durable", "serve_multitenant"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    alloc::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return usage(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        out_dir,
    };
    let mut outcome = match workload.as_str() {
        "oneshot_paper" => oneshot::run(&cfg),
        "continuous_durable" => continuous::run(&cfg),
        "serve_multitenant" => serve::run(&cfg),
        other => return usage(&format!("unknown workload {other}")),
    };
    if !trace {
        outcome.check_end_to_end();
    }
    outcome.print(&cfg);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
