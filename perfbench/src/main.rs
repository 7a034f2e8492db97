//! End-to-end and per-layer benchmark of the bitmap-index stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_scan|serve_read|serve_ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds its inputs from `--seed`, checks every answer against
//! an oracle computed apart from the program, and prints one JSON object
//! as its last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! A run with a wrong answer or a failed operation still prints its
//! report, then exits with a non-zero code. See `perfbench/README.md`.

mod batch_scan;
mod probes;
mod serve;
mod store;
mod trace;
mod util;

use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload batch_scan|serve_read|serve_ingest \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload.as_str(), args.trace) {
        ("batch_scan", false) => batch_scan::run(&args),
        ("batch_scan", true) => batch_scan::run_traced(&args),
        ("serve_read", false) => serve::run(&args, serve::Kind::Read),
        ("serve_read", true) => serve::run_traced(&args, serve::Kind::Read),
        ("serve_ingest", false) => serve::run(&args, serve::Kind::Ingest),
        ("serve_ingest", true) => serve::run_traced(&args, serve::Kind::Ingest),
        (w, _) => {
            eprintln!("error: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:>40} {value:>14.4} {unit}");
    }
    println!("{}", report.to_json());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
