//! `heteroprio-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use heteroprio_benchmark::{run, Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: heteroprio-benchmark --workload <cholesky_x1000|dag_cholesky|k3_online|observed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::CholeskyX1000,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("--seconds {value} is not a duration"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
