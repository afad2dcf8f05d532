//! The HeteSim benchmark: three workloads, each reporting the end-to-end
//! metrics a user sees (untraced run) or the per-layer metrics that explain
//! them (traced run). See `README.md` for the workloads and the map from
//! layer metrics to end-to-end metrics.
//!
//! ```text
//! perfbench prepare --seed N --out DIR
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --data DIR --spans FILE
//! ```
//!
//! `run.py` builds this package, prepares the inputs in a process of their
//! own, runs one workload and removes the inputs again.

mod calls;
mod engine_cold;
mod engine_warm;
mod http;
mod inputs;
mod json;
mod metrics;
mod report;
mod rng;
mod serve_warm;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve_warm", "engine_cold", "engine_warm"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub data: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

impl Args {
    /// `(traced, seconds)` of each measured phase. A traced run spends its
    /// first half untraced, so that tracing overhead compares like with
    /// like inside one process.
    pub fn phases(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [k, v] if k.starts_with("--") => Ok((k[2..].to_string(), v.clone())),
            _ => Err(format!("expected --flag value pairs, got {pair:?}")),
        })
        .collect()
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, String> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing --{name}"))
}

fn number<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<T, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} must be a number"))
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("missing command: prepare or run")?;
    let f = flags(rest)?;
    match command.as_str() {
        "prepare" => {
            inputs::prepare(number(&f, "seed")?, flag(&f, "out")?.as_ref())?;
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let args = Args {
                workload: flag(&f, "workload")?.to_string(),
                seed: number(&f, "seed")?,
                seconds: number(&f, "seconds")?,
                trace: match flag(&f, "trace")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                },
                data: flag(&f, "data")?.into(),
                spans: flag(&f, "spans")?.into(),
            };
            let mut report = report::Report::default();
            report.note(format!(
                "{} seed={} seconds={} trace={} cores={}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                std::thread::available_parallelism().map_or(1, |n| n.get())
            ));
            match args.workload.as_str() {
                "serve_warm" => serve_warm::run(&args, &mut report)?,
                "engine_cold" => engine_cold::run(&args, &mut report)?,
                "engine_warm" => engine_warm::run(&args, &mut report)?,
                other => return Err(format!("unknown workload {other:?}")),
            }
            report.print();
            Ok(if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
