//! The repository benchmark: three workloads through vtrain's public
//! facade, end-to-end metrics untraced and per-layer metrics traced.
//!
//! ```text
//! perfbench --workload <mtnlg-grid|fair-sweep|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench gen --seed <n> [--frames <k>]
//! ```
//!
//! A run prints one info line (host block, thread pins, exact work
//! counters, output digests) and, last, the result line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod gen;
mod layers;
mod report;
mod serve;
mod sweep;

use std::process::ExitCode;

use serde::Serialize;

use report::{object, to_json, Host};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    frames: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, frames: 1000 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()? as f64,
            "--trace" => parsed.trace = number()? != 0,
            "--frames" => parsed.frames = number()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("gen") => ("gen", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if command == "gen" {
        // The serve-mix generator on its own: the measured shares of the
        // first `frames` frames of the seed's stream.
        println!("{}", to_json(&gen::mix_shares(args.seed, 0..args.frames)));
        return ExitCode::SUCCESS;
    }
    let host = Host::probe();
    let result = match args.workload.as_str() {
        "mtnlg-grid" => sweep::run(&sweep::MTNLG_GRID, args.seed, args.seconds, args.trace),
        "fair-sweep" => sweep::run(&sweep::FAIR_SWEEP, args.seed, args.seconds, args.trace),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let threads = object([
        ("sweep", 1.to_value()),
        ("serve_workers", serve::WORKERS.to_value()),
        ("serve_clients", serve::CLIENTS.to_value()),
        ("serve_sweep_threads", serve::SWEEP_THREADS.to_value()),
    ]);
    let header = vec![
        ("workload".to_owned(), args.workload.to_value()),
        ("seed".to_owned(), args.seed.to_value()),
        ("trace".to_owned(), args.trace.to_value()),
        ("host".to_owned(), host.to_value()),
        ("threads".to_owned(), threads),
    ];
    result.print(header);
    ExitCode::SUCCESS
}
