//! End-to-end smoke test of the installed binary: `schedule --trace`
//! and `dag --trace` must write parseable trace files and report them,
//! and a bad instance file must fail with a message, not a panic.

use heteroprio_core::{CheckpointStore, FileCheckpointStore};
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_heteroprio-cli"))
}

/// A scratch path that each test owns (process id keeps parallel test
/// binaries from colliding).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("heteroprio-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn schedule_trace_writes_a_parseable_chrome_trace() {
    let instance = scratch("schedule.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n# comment\n3 3\n").unwrap();
    let trace = scratch("schedule-trace.json");

    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--summary", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace summary"), "--summary missing from report:\n{stdout}");
    assert!(stdout.contains(&format!("wrote {}", trace.display())));

    let doc = std::fs::read_to_string(&trace).expect("trace file written");
    let v = heteroprio_trace::json::parse(&doc).expect("trace file is valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let slices =
        events.iter().filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("task")).count();
    assert_eq!(slices, 5, "one complete slice per task");

    let _ = std::fs::remove_file(&instance);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn audit_accepts_a_clean_trace_and_rejects_a_corrupted_one() {
    let instance = scratch("audit-instance.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();
    let trace = scratch("audit-trace.jsonl");

    // Record a JSONL trace of a HeteroPrio run.
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Auditing the recorded trace is clean: exit 0.
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("audit clean"), "clean audit missing:\n{stdout}");

    // Corrupt the trace: flip every GPU front-pop into a back-pop. The
    // auditor must reject it, naming the violated rule on stderr.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("front"), "expected at least one GPU pop in:\n{text}");
    std::fs::write(&trace, text.replace("front", "back")).unwrap();
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit (corrupted)");
    assert!(!out.status.success(), "corrupted trace must fail the audit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pop_order_consistency"), "rule name missing from stderr:\n{stderr}");

    // A syntactically broken line is a hard error, not a clean audit.
    std::fs::write(&trace, "{\"type\":\"task_ready\",\"time\":0}\nnot json\n").unwrap();
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit (malformed)");
    assert!(!out.status.success(), "malformed JSONL must fail");

    let _ = std::fs::remove_file(&instance);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn audit_reports_a_worker_beyond_the_platform_instead_of_panicking() {
    let instance = scratch("audit-worker-instance.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();
    let trace = scratch("audit-worker-trace.jsonl");
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Move worker 2's runs onto worker 9, which a 3-worker platform lacks.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("\"worker\":2"), "expected a run on worker 2 in:\n{text}");
    std::fs::write(&trace, text.replace("\"worker\":2", "\"worker\":9")).unwrap();
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit (unknown worker)");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown worker W9"), "violation missing from stderr:\n{stderr}");

    let _ = std::fs::remove_file(&instance);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn schedule_rejects_a_bad_row_without_panicking() {
    for (name, row) in [
        ("ratio-overflow.txt", "5e-324 1"),
        ("ratio-underflow.txt", "1 1e-320"),
        ("priority-nan.txt", "1 2 nan"),
        ("priority-inf.txt", "2 1 inf"),
    ] {
        let instance = scratch(name);
        std::fs::write(&instance, format!("8 1\n{row}\n")).unwrap();
        let out = bin()
            .args(["schedule", "--cpus", "2", "--gpus", "1"])
            .arg(&instance)
            .output()
            .expect("run heteroprio-cli schedule");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{row}: stderr: {stderr}");
        assert!(stderr.contains("line 2:"), "{row}: the error names no line:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{row}: {stderr}");
        let _ = std::fs::remove_file(&instance);
    }
}

#[test]
fn dag_qr_runs_the_figure_7_graph() {
    let out = bin()
        .args(["dag", "qr", "8", "--cpus", "20", "--gpus", "4"])
        .output()
        .expect("run heteroprio-cli dag qr");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Fig. 7's QR N=8 row (results/fig7.txt): 204 tasks, lower bound 355.0,
    // HeteroPrio-min ratio 1.4366. The one-handle-per-tile graph had 504
    // edges and a 425.00 ms bound.
    assert!(stdout.starts_with("qr N=8: 204 tasks, 476 edges"), "{stdout}");
    assert!(stdout.contains("lower bound : 355.00 ms"), "{stdout}");
    assert!(stdout.contains("ratio       : 1.4366"), "{stdout}");
}

#[test]
fn audit_flag_and_workload_form_audit_clean() {
    let instance = scratch("audit-flag.txt");
    std::fs::write(&instance, "28.8 1.0\n8.72 1.0\n1.72 1.0\n1.0 3.0\n2.0 6.0\n").unwrap();
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--audit"])
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule --audit");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("audit clean"), "audit render missing:\n{stdout}");
    assert!(stdout.contains("enforced"), "independent HP certificate is enforced:\n{stdout}");

    // Workload form: audits a fresh fault-free runtime execution.
    let out = bin()
        .args(["audit", "cholesky", "4", "--cpus", "2", "--gpus", "1"])
        .output()
        .expect("run heteroprio-cli audit cholesky");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("audit clean"), "audit render missing:\n{stdout}");

    let _ = std::fs::remove_file(&instance);
}

#[test]
fn dag_trace_writes_jsonl_when_asked() {
    let trace = scratch("dag-trace.jsonl");
    let out = bin()
        .args(["dag", "cholesky", "4", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .output()
        .expect("run heteroprio-cli");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = heteroprio_trace::json::parse(line).expect("every JSONL line parses");
        assert!(v.get("type").is_some(), "line carries a type tag: {line}");
    }

    let _ = std::fs::remove_file(&trace);
}

#[test]
fn algo_is_checked_against_the_commands_own_table() {
    let instance = scratch("algo-table.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();
    let journal = scratch("algo-table.journal");
    // DAG-only names are not independent-task algorithms: every instance
    // form must refuse them instead of running HeteroPrio.
    for algo in ["list", "dualhp-fifo"] {
        for form in [
            vec!["schedule", "--cpus", "2", "--gpus", "1", "--algo", algo],
            vec!["audit", "--cpus", "2", "--gpus", "1", "--algo", algo],
            vec!["resume", "--cpus", "2", "--gpus", "1", "--algo", algo, "--journal"],
        ] {
            let mut cmd = bin();
            cmd.args(&form);
            if form[0] == "resume" {
                cmd.arg(&journal);
            }
            let out = cmd.arg(&instance).output().expect("run heteroprio-cli");
            assert_eq!(out.status.code(), Some(1), "{form:?} must fail");
            assert!(out.stdout.is_empty(), "{form:?} ran a scheduler");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!(
                    "unknown algorithm `{algo}` (hp, hp-ns, dualhp, heft, minmin, maxmin, \
                     sufferage, mct)"
                )),
                "{form:?}: {stderr}"
            );
        }
    }
    // The workload forms take the DAG table's names only.
    let out = bin()
        .args(["dag", "cholesky", "4", "--cpus", "2", "--gpus", "1", "--algo", "minmin"])
        .output()
        .expect("run heteroprio-cli dag");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(hp, dualhp, dualhp-fifo, heft, list)"), "{stderr}");
    assert!(!journal.exists(), "a refused resume touches no journal");

    let _ = std::fs::remove_file(&instance);
}

#[test]
fn unknown_flags_and_surplus_arguments_are_errors() {
    let instance = scratch("typo.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n").unwrap();
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1"])
        .arg(&instance)
        .arg("--sumary")
        .output()
        .expect("run heteroprio-cli");
    assert_eq!(out.status.code(), Some(1), "a typo'd flag must not be ignored");
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--sumary`"));

    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1"])
        .arg(&instance)
        .arg("second.txt")
        .output()
        .expect("run heteroprio-cli");
    assert_eq!(out.status.code(), Some(1), "a surplus positional must not be ignored");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument `second.txt`"));

    let generated = scratch("gen.txt");
    let out = bin()
        .args(["gen", "cholesky", "2"])
        .arg(&generated)
        .arg("extra")
        .output()
        .expect("run heteroprio-cli gen");
    assert_eq!(out.status.code(), Some(1));
    assert!(!generated.exists(), "a refused command writes nothing");

    let _ = std::fs::remove_file(&instance);
}

#[test]
fn argument_errors_print_the_usage_and_run_failures_one_line() {
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--bogus"])
        .output()
        .expect("run heteroprio-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr.starts_with("error: unknown flag `--bogus`\n"), "{stderr}");
    assert!(stderr.contains("usage:"), "an argument error shows the usage:\n{stderr}");

    // A bad instance row fails the run, not the command line.
    let instance = scratch("one-line-error.txt");
    std::fs::write(&instance, "8 1\n1 2 nan\n").unwrap();
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1"])
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(stderr, "error: line 2: priority must be finite, got NaN\n");
    let _ = std::fs::remove_file(&instance);

    // So does resuming a journal on another workload: a divergence.
    let journal = scratch("one-line-error.journal");
    let platform = ["--cpus", "2", "--gpus", "1", "--journal"];
    let out = bin()
        .args(["dag", "cholesky", "4"])
        .args(platform)
        .arg(&journal)
        .args(["--crash-at", "10"])
        .output()
        .expect("run heteroprio-cli dag");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out =
        bin().args(["resume", "lu", "4"]).args(platform).arg(&journal).output().expect("resume");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr.starts_with("error: resume failed: "), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "a run failure is one line:\n{stderr}");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn help_prints_the_usage_alone_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["schedule", "--help"], &["dag", "cholesky", "-h"]] {
        let out = bin().args(args).output().expect("run heteroprio-cli");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout.starts_with("usage:\n"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn both_resume_forms_report_a_divergence_on_the_same_line() {
    let divergence = "error: resume failed: replay diverged from the journal at event ";
    let platform = ["--cpus", "2", "--gpus", "1", "--journal"];
    // An instance file resumed against another instance.
    let (recorded, other) = (scratch("diverge-a.txt"), scratch("diverge-b.txt"));
    std::fs::write(&recorded, "2 1\n3 1.5\n1 4\n").unwrap();
    std::fs::write(&other, "2 1\n3 1.5\n2 4\n").unwrap();
    let journal = scratch("diverge-instance.journal");
    let out = bin()
        .arg("schedule")
        .args(platform)
        .arg(&journal)
        .args(["--crash-at", "8"])
        .arg(&recorded)
        .output()
        .expect("run heteroprio-cli schedule");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out =
        bin().arg("resume").args(platform).arg(&journal).arg(&other).output().expect("resume");
    let instance_form = String::from_utf8_lossy(&out.stderr).into_owned();
    // A workload journal resumed as another workload.
    let dag_journal = scratch("diverge-dag.journal");
    let out = bin()
        .args(["dag", "cholesky", "4"])
        .args(platform)
        .arg(&dag_journal)
        .args(["--crash-at", "10"])
        .output()
        .expect("run heteroprio-cli dag");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["resume", "lu", "4"])
        .args(platform)
        .arg(&dag_journal)
        .output()
        .expect("resume");
    let workload_form = String::from_utf8_lossy(&out.stderr).into_owned();
    for stderr in [&instance_form, &workload_form] {
        assert!(stderr.starts_with(divergence), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    for path in [&recorded, &other, &journal, &dag_journal] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn export_prints_a_journal_as_the_runs_jsonl_and_refuses_a_damaged_one() {
    let instance = scratch("export.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();
    let reference = scratch("export-reference.jsonl");
    let journal = scratch("export.journal");
    let exported = scratch("export-out.jsonl");
    for (flag, path) in [("--trace", &reference), ("--journal", &journal)] {
        let out = bin()
            .args(["schedule", "--cpus", "2", "--gpus", "1", flag])
            .arg(path)
            .arg(&instance)
            .output()
            .expect("run heteroprio-cli schedule");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    }
    let bytes = std::fs::read(&journal).unwrap();
    assert_eq!(&bytes[..6], b"HPJL2\n", "new journals are binary");
    let want = std::fs::read_to_string(&reference).unwrap();

    // To stdout, and to a file: both are the run's JSONL trace.
    let out = bin().args(["export", "--journal"]).arg(&journal).output().expect("run export");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    let out = bin()
        .args(["export", "--journal"])
        .arg(&journal)
        .arg("--trace")
        .arg(&exported)
        .output()
        .expect("run export --trace");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read_to_string(&exported).unwrap(), want);
    std::fs::remove_file(&exported).unwrap();

    // A flipped bit in the last record: exit 1 with the typed damage.
    let mut damaged = bytes.clone();
    *damaged.last_mut().unwrap() ^= 0x01;
    std::fs::write(&journal, &damaged).unwrap();
    let out = bin()
        .args(["export", "--journal"])
        .arg(&journal)
        .arg("--trace")
        .arg(&exported)
        .output()
        .expect("run export on a damaged journal");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("journal damaged: BadChecksum at byte"), "{stderr}");
    assert!(!exported.exists(), "a damaged journal exports nothing");

    for path in [&instance, &reference, &journal] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn resume_never_turns_a_tampered_checkpoint_into_a_different_trace() {
    let instance = scratch("tamper.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();
    let reference = scratch("tamper-reference.jsonl");
    let journal = scratch("tamper.journal");
    let snapshot = scratch("tamper.ckpt");
    let resumed = scratch("tamper-resumed.jsonl");
    let plat = ["--cpus", "2", "--gpus", "1"];
    let out = bin()
        .arg("schedule")
        .args(plat)
        .arg("--trace")
        .arg(&reference)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .arg("schedule")
        .args(plat)
        .args(["--crash-at", "14", "--checkpoint-every", "2", "--journal"])
        .arg(&journal)
        .arg("--snapshot")
        .arg(&snapshot)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule --crash-at");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // A second live completion for a worker that already has one, written
    // back with a valid frame so only the snapshot's meaning is wrong.
    let (snap, damage) = FileCheckpointStore::load(&snapshot);
    let mut snap = snap.unwrap_or_else(|| panic!("checkpoint unreadable: {damage:?}"));
    let (t, w, g) = snap.heap[0];
    snap.heap.push((t + 0.5, w, g));
    FileCheckpointStore::new(&snapshot).save(&snap).expect("rewrite the checkpoint");

    let out = bin()
        .arg("resume")
        .args(plat)
        .arg("--journal")
        .arg(&journal)
        .arg("--snapshot")
        .arg(&snapshot)
        .arg("--trace")
        .arg(&resumed)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli resume");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "resume panicked: {stderr}");
    if out.status.success() {
        let want = std::fs::read_to_string(&reference).unwrap();
        assert_eq!(std::fs::read_to_string(&resumed).unwrap(), want, "resume changed the trace");
    } else {
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    }

    for path in [&instance, &reference, &journal, &snapshot, &resumed] {
        let _ = std::fs::remove_file(path);
    }
}
