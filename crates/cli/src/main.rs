#![forbid(unsafe_code)]

//! Command-line interface to the HeteroPrio reproduction.
//!
//! ```text
//! heteroprio-cli schedule --cpus M --gpus N [--algo NAME] [--svg FILE] [--trace FILE] [--summary] INSTANCE
//! heteroprio-cli bounds   --cpus M --gpus N INSTANCE
//! heteroprio-cli gen      (cholesky|qr|lu) N [OUTPUT]
//! ```

use heteroprio_cli::{
    cmd_audit, cmd_bounds, cmd_dag, cmd_export, cmd_gen, cmd_perf, cmd_perf_gate, cmd_schedule,
    parse_platform_args, CmdOutput, FaultOpts, OutputOpts,
};
use heteroprio_core::ClassTable;
use heteroprio_schedulers::{IndepAlgo, Scheduler};
use heteroprio_taskgraph::Factorization;
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

/// `{INDEP}` and `{DAG}` stand for the scheduler tables' names.
const USAGE: &str = "\
usage:
  heteroprio-cli schedule --cpus M --gpus N [--algo NAME] [--svg FILE]
                          (--cpus M --gpus N may be replaced everywhere by
                          --platform name=count[,name=count...], e.g.
                          --platform cpu=16,gpu=4,fpga=2)
                          [--trace FILE] [--summary] [--audit] [--metrics]
                          [--journal FILE [--crash-at N] [--snapshot FILE]
                          [--checkpoint-every K]] INSTANCE
  heteroprio-cli bounds   --cpus M --gpus N INSTANCE
  heteroprio-cli gen      (cholesky|qr|lu) N [OUTPUT]
  heteroprio-cli dag      (cholesky|qr|lu) N --cpus M --gpus N [--algo NAME]
                          [--svg FILE] [--trace FILE] [--summary] [--audit]
                          [--metrics] [--faults SPEC] [--exec-jitter J]
                          [--retry-max K] [--fault-seed S]
                          [--journal FILE [--crash-at N] [--snapshot FILE]
                          [--checkpoint-every K]]
  heteroprio-cli resume   --journal FILE [--snapshot FILE] --cpus M --gpus N
                          [--algo NAME] [--no-audit] [--trace FILE]
                          [--summary] [--metrics] (INSTANCE | (cholesky|qr|lu) N
                          [--faults SPEC] [--exec-jitter J] ...)
  heteroprio-cli export   --journal FILE [--trace OUT.jsonl]
  heteroprio-cli audit    --cpus M --gpus N [--algo NAME]
                          [--trace FILE.jsonl] INSTANCE
  heteroprio-cli audit    (cholesky|qr|lu) N --cpus M --gpus N [--algo NAME]
                          [--faults SPEC] [--exec-jitter J]
  heteroprio-cli perf     [--smoke] [--out FILE] [--against BASELINE]
                          [--platform name=count[,...]]

INSTANCE is a text file with one `cpu_time gpu_time [priority]` task per
line (`#` comments); under a k-class --platform each line carries k
per-class times. `gen` writes such a file for the kernel mix of an
N-tile factorization.

--algo picks the scheduler (default hp). INSTANCE forms (`schedule`, and
`audit`/`resume` on a file) take {INDEP}; workload forms (`dag`, and
`audit`/`resume` on cholesky|qr|lu) take {DAG}.

--platform declares the worker classes by name and count (class 0 pops
the affinity queue from the CPU end, the last class from the GPU end).
`--cpus M --gpus N` is the two-class alias `cpu=M,gpu=N`. `dag` and
`resume` accept any two-class --platform; k>2 needs `schedule` (the
factorization timing model is two-class). `perf --platform` appends a
custom-platform case to the suite.

--trace FILE exports the scheduler's event stream: Chrome trace_event
JSON (open in https://ui.perfetto.dev) by default, or JSONL when FILE
ends in `.jsonl`. --summary appends per-worker busy/idle/aborted time,
spoliation wasted work, and ready-queue statistics to the report.

--audit (and the `audit` command) replays the recorded event stream
through the paper-invariant auditor: pop-order consistency, the no-idle
list property, spoliation legality, and the Lemma 1-2 / Theorem 7-9-12
certificates. `audit INSTANCE --trace FILE.jsonl` checks a previously
exported JSONL trace instead of running a scheduler; `audit
(cholesky|qr|lu) N` audits a fresh runtime execution. Violations are
printed with their rule name and the exit code is nonzero.

--metrics runs the scheduler with the kernel's self-profiling registry
enabled and appends the counter/gauge/histogram report (events, queue
pushes/pops, spoliations, pick latency percentiles, peak queue depths).
The kernel's own event counter is cross-checked against the recorded
trace, so dropped events fail the command. Every --algo runs in the
kernel (heft, minmin, ... execute their plan there), so every run can be
metered, journaled and resumed; `dag --algo heft` refuses --faults.

perf runs the kernel self-profiling suite (Fig. 6-scale and 1000x-scale
workloads) and prints the schema-versioned BENCH_kernel.json document;
--out FILE writes it instead, --smoke runs the tiny deterministic cases
used as a CI gate. --against BASELINE compares the run's tasks/sec
case-by-case against a committed BENCH_kernel.json and fails if any
overlapping case regressed more than 20% (run in release mode: debug
timings always regress). `scripts/bench.sh` wraps the full run.

--journal FILE appends the kernel's event stream to a crash-durable
length+CRC-framed journal as it runs. --crash-at N kills the run right
after the Nth journaled event (deterministic crash injection; the
command still exits 0 — the crash is the harness, not an error).
--snapshot FILE additionally checkpoints the kernel state every K
events (--checkpoint-every, default 64). `resume` recovers the journal
(truncating any torn tail), restores the snapshot when one is usable,
replays deterministically — verifying the journaled prefix event for
event — and continues the run to completion, re-auditing the full
stream against the paper's invariants (--no-audit skips that). Resume
must be given the same inputs (instance/workload, platform, --algo,
fault flags) as the original run; divergence is detected and reported.

export prints a journal (HPJL2, or the older HPJL1) as JSONL, the lines
`--trace FILE.jsonl` writes for the same run; --trace OUT.jsonl writes
them to a file instead. A damaged journal exits 1 naming the damage
(kind, byte offset, records kept) and exports nothing.

--faults injects worker failures and task failures into the `dag`
command. SPEC is comma-separated clauses: `wN|cpu|gpu|all @ time[+dur]`
(no duration = permanent; `time%` = percent of the fault-free makespan,
which is measured by a baseline run first), `fail=P` (per-attempt task
failure probability), `seed=N`. Example: `--faults gpu@25%,fail=0.05`.
--exec-jitter J draws actual runtimes log-uniformly from
[est/(1+J), est*(1+J)]; --retry-max K caps attempts per task (default 3).
";

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    /// `--platform name=count[,name=count...]`: a k-class worker spec.
    /// `--cpus M --gpus N` stays as the `cpu=M,gpu=N` alias.
    platform: Option<String>,
    cpus: Option<usize>,
    gpus: Option<usize>,
    /// Raw `--algo` value, parsed against the command's own table.
    algo: Option<String>,
    opts: OutputOpts,
    /// `perf --smoke`: tiny deterministic cases only.
    smoke: bool,
    /// `perf --out FILE`: write the JSON document instead of printing it.
    out: Option<String>,
    /// `perf --against FILE`: fail if tasks/sec regressed more than the
    /// gate tolerance versus this committed baseline.
    against: Option<String>,
    faults: FaultOpts,
    /// `resume --no-audit`: skip the post-recovery invariant audit.
    no_audit: bool,
}

/// Why a command stopped: `--help` (the usage alone, a success), a bad
/// command line, answered with the usage text, or a failure of the run
/// itself (an unreadable file, a bad instance row, a resume divergence),
/// which `main` reports as its one `error:` line. The commands' own
/// `String` errors are run failures.
enum Failure {
    Help,
    Usage(String),
    Run(String),
}

/// An argument error.
fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

/// A numeric flag value.
fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, Failure> {
    v.parse().map_err(|_| usage(format!("bad {flag} `{v}`")))
}

/// Parse the flags and positionals after the command. An unknown flag is
/// an error, not a positional.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, Failure> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(usage(format!("{flag} needs {what}")));
        match flag.as_str() {
            "--platform" => args.platform = Some(value("name=count[,...]")?),
            "--cpus" => args.cpus = Some(number(&flag, value("a value")?)?),
            "--gpus" => args.gpus = Some(number(&flag, value("a value")?)?),
            "--algo" => args.algo = Some(value("a value")?),
            "--svg" => args.opts.svg = Some(value("a file name")?),
            "--trace" => args.opts.trace = Some(value("a file name")?),
            "--summary" => args.opts.summary = true,
            "--audit" => args.opts.audit = true,
            "--metrics" => args.opts.metrics = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file name")?),
            "--against" => args.against = Some(value("a baseline file")?),
            "--faults" => args.faults.spec = Some(value("a spec")?),
            "--exec-jitter" => args.faults.exec_jitter = number(&flag, value("a value")?)?,
            "--retry-max" => args.faults.retry_max = Some(number(&flag, value("a value")?)?),
            "--fault-seed" => args.faults.seed = Some(number(&flag, value("a value")?)?),
            "--journal" => args.opts.durable.journal = Some(value("a file name")?),
            "--crash-at" => match number(&flag, value("an event number")?)? {
                0 => return Err(usage("--crash-at counts from 1 (the first journaled event)")),
                n => args.opts.durable.crash_at = Some(n),
            },
            "--snapshot" => args.opts.durable.snapshot = Some(value("a file name")?),
            "--checkpoint-every" => match number(&flag, value("a value")?)? {
                0 => return Err(usage("--checkpoint-every must be at least 1")),
                n => args.opts.durable.checkpoint_every = Some(n),
            },
            "--no-audit" => args.no_audit = true,
            "--help" | "-h" => return Err(Failure::Help),
            _ if flag.starts_with('-') && flag.len() > 1 => {
                return Err(usage(format!("unknown flag `{flag}`")))
            }
            _ => args.positional.push(flag),
        }
    }
    Ok(args)
}

fn platform_of(args: &Args) -> Result<ClassTable, Failure> {
    parse_platform_args(args.platform.as_deref(), args.cpus, args.gpus).map_err(Failure::Usage)
}

/// `--algo` against the independent-task table.
fn indep_algo(args: &Args) -> Result<IndepAlgo, Failure> {
    match &args.algo {
        None => Ok(IndepAlgo::HeteroPrio),
        Some(name) => IndepAlgo::parse(name).ok_or_else(|| {
            usage(format!("unknown algorithm `{name}` ({})", IndepAlgo::NAMES.join(", ")))
        }),
    }
}

/// `--algo` against the DAG scheduler table.
fn dag_algo(args: &Args) -> Result<Scheduler, Failure> {
    match &args.algo {
        None => Ok(Scheduler::default()),
        Some(name) => Scheduler::parse(name).ok_or_else(|| {
            usage(format!("unknown DAG algorithm `{name}` ({})", Scheduler::NAMES.join(", ")))
        }),
    }
}

/// The command's positionals, of which it takes at most `max`.
fn positionals(args: &Args, max: usize) -> Result<&[String], Failure> {
    match args.positional.get(max) {
        Some(extra) => Err(usage(format!("unexpected argument `{extra}`"))),
        None => Ok(&args.positional),
    }
}

/// The tile count after a workload kind.
fn tile_count(pos: &[String], command: &str) -> Result<usize, Failure> {
    let n = pos.get(1).ok_or_else(|| usage(format!("{command} needs a tile count")))?;
    n.parse().map_err(|_| usage("bad tile count"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Print to stdout. A reader that closes the pipe early (`| head`) ends
/// the output, not the command: the rest of the text is dropped, and
/// output files are still written.
fn print(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

/// Write an output file and say so.
fn write(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))?;
    print(&format!("wrote {path}\n"))
}

/// Print the report and write the artifacts a command produced.
fn emit(out: CmdOutput) -> Result<(), String> {
    print(&out.report)?;
    for (path, contents) in out.svg.into_iter().chain(out.trace) {
        write(&path, contents)?;
    }
    Ok(())
}

fn run() -> Result<(), Failure> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or(usage(""))?;
    if matches!(command.as_str(), "--help" | "-h") {
        return Err(Failure::Help);
    }
    let mut args = parse_args(argv)?;
    match command.as_str() {
        "schedule" | "dag" | "resume" => {
            let platform = platform_of(&args)?;
            if command == "resume" {
                if args.opts.durable.journal.is_none() {
                    return Err(usage("resume needs --journal FILE"));
                }
                if args.opts.durable.crash_at.is_some() {
                    return Err(usage("--crash-at only applies to the original run"));
                }
                args.opts.durable.resume = true;
                // Recovery re-audits the full stream by default.
                args.opts.audit = !args.no_audit;
            }
            let first = args.positional.first().ok_or(usage(match command.as_str() {
                "schedule" => "missing INSTANCE file",
                "dag" => "dag needs a workload kind",
                _ => "resume needs an INSTANCE file or a workload kind",
            }))?;
            // `resume` continues either form, told apart by the first argument.
            let out = if command == "dag"
                || command == "resume" && Factorization::parse(first).is_some()
            {
                let n = tile_count(positionals(&args, 2)?, &command)?;
                cmd_dag(first, n, &platform, dag_algo(&args)?, &args.opts, &args.faults)?
            } else {
                positionals(&args, 1)?;
                cmd_schedule(&read(first)?, &platform, indep_algo(&args)?, &args.opts)?
            };
            Ok(emit(out)?)
        }
        "bounds" => {
            let pos = positionals(&args, 1)?;
            let platform = platform_of(&args)?;
            let file = pos.first().ok_or(usage("missing INSTANCE file"))?;
            print(&cmd_bounds(&read(file)?, &platform)?)?;
            Ok(())
        }
        "audit" => {
            let platform = platform_of(&args)?;
            let first = args
                .positional
                .first()
                .ok_or(usage("audit needs an INSTANCE file or a workload kind"))?;
            if Factorization::parse(first).is_some() {
                // Workload form: audit a fresh runtime execution.
                let pos = positionals(&args, 2)?;
                let n = tile_count(pos, "audit")?;
                let opts = OutputOpts { audit: true, ..OutputOpts::default() };
                let out = cmd_dag(first, n, &platform, dag_algo(&args)?, &opts, &args.faults)?;
                print(&out.report)?;
            } else {
                // Instance form: audit a recorded JSONL trace, or a fresh
                // traced run when no --trace is given.
                positionals(&args, 1)?;
                let text = read(first)?;
                let trace_text = args.opts.trace.as_deref().map(read).transpose()?;
                let algo = indep_algo(&args)?;
                print(&cmd_audit(&text, &platform, algo, trace_text.as_deref())?)?;
            }
            Ok(())
        }
        "perf" => {
            positionals(&args, 0)?;
            let custom = match &args.platform {
                Some(spec) => Some(ClassTable::parse(spec).map_err(|e| usage(e.to_string()))?),
                None => None,
            };
            let doc = cmd_perf(args.smoke, custom.as_ref())?;
            match &args.out {
                Some(path) => write(path, doc.clone())?,
                None if args.against.is_none() => print(&doc)?,
                None => {}
            }
            if let Some(path) = &args.against {
                print(&cmd_perf_gate(&doc, &read(path)?)?)?;
            }
            Ok(())
        }
        "export" => {
            positionals(&args, 0)?;
            let path =
                args.opts.durable.journal.as_deref().ok_or(usage("export needs --journal FILE"))?;
            let text = cmd_export(path)?;
            match &args.opts.trace {
                Some(out) => write(out, text)?,
                None => print(&text)?,
            }
            Ok(())
        }
        "gen" => {
            let pos = positionals(&args, 3)?;
            let kind = pos.first().ok_or(usage("gen needs a workload kind"))?;
            let text = cmd_gen(kind, tile_count(pos, "gen")?)?;
            match pos.get(2) {
                Some(path) => write(path, text)?,
                None => print(&text)?,
            }
            Ok(())
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// The usage text, with the scheduler tables' names filled in.
fn usage_text() -> String {
    let indep = IndepAlgo::NAMES.join(", ");
    let dag = Scheduler::NAMES.join(", ");
    USAGE.replace("{INDEP}", &indep).replace("{DAG}", &dag)
}

/// Report a run failure as the one `error:` line.
fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Help) => match print(&usage_text()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => fail(&msg),
        },
        Err(Failure::Run(msg)) => fail(&msg),
        Err(Failure::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{}", usage_text());
            ExitCode::FAILURE
        }
    }
}
