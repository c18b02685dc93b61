//! The owql benchmark: `POST /v1/query` end to end over real TCP, and
//! the same requests layer by layer in process, at the 100k-person
//! tier. See `perfbench/README.md`.
//!
//! ```text
//! owql-perfbench --workload <lookup_mix|analytic>
//!                --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones.

mod client;
mod drive;
mod scenario;
mod trace;
mod verify;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where span files and the durable store's data directory go.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The machine and build every result was measured on.
fn print_environment(args: &Args) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    // `run.py` passes the toolchain and revision it built with.
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "rustc unknown".into());
    let revision = std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "environment: nproc {threads}; cpu {cpu}; kernel {kernel}; {rustc}; revision {revision}; \
         profile {profile}; workload {}; seed {}; seconds {}; trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: owql-perfbench --workload <lookup_mix|analytic> --seed <n> \
                 --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(1);
    }
    print_environment(&args);
    let self_test = verify::self_test(args.seed);
    match &self_test {
        Ok(n) => println!("self-test: {n} templates agree with the reference evaluator"),
        Err(e) => println!("self-test FAILED: {e}"),
    }
    let mut report = match args.workload.as_str() {
        "lookup_mix" => scenario::lookup_mix(&args),
        "analytic" => scenario::analytic(&args),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.correct &= self_test.is_ok();

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
