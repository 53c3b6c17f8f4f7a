//! Integration tests for the token-aware static-analysis pass: each new
//! rule is proven live by a minimal snippet that fires it exactly once
//! (with an allow-listed twin passing), the false-positive/negative
//! classes of the regex-era scanner are pinned, the rule registry is
//! checked for self-consistency, and the SARIF output is golden-tested
//! against the 2.1.0 shape.

use heteroprio::lint::baseline::{self, BaselineEntry};
use heteroprio::lint::{help_text, lint_source, LintViolation, RULES};
use heteroprio::trace::json::{self, Value};

fn count(violations: &[LintViolation], rule: &str) -> usize {
    violations.iter().filter(|v| v.rule == rule).count()
}

/// A path inside the kernel crates, where the panic-path and
/// map-iter-order rules apply.
const KERNEL: &str = "crates/core/src/example.rs";

// ------------------------------------------------- determinism rule family

#[test]
fn map_iter_order_fires_once_and_allow_twin_passes() {
    let bad = "type Memo = std::collections::HashMap<u64, u64>;\n";
    let v = lint_source(KERNEL, bad);
    assert_eq!(count(&v, "map-iter-order"), 1, "got: {v:?}");

    let ok = "// lint: allow(map-iter-order): keys are drained via a sorted Vec, never iterated\n\
              type Memo = std::collections::HashMap<u64, u64>;\n";
    assert!(lint_source(KERNEL, ok).is_empty());

    // The rule is scoped to the kernel crates: tooling code may hash.
    assert!(lint_source("crates/bench/src/example.rs", bad).is_empty());
}

#[test]
fn unfenced_concurrency_fires_on_spawn_and_primitives() {
    let spawn = "fn f() -> u64 {\n    std::thread::spawn(|| 0).join().expect(\"joins\")\n}\n";
    let v = lint_source(KERNEL, spawn);
    assert_eq!(count(&v, "unfenced-concurrency"), 1, "got: {v:?}");

    let mutex = "use std::sync::Mutex;\n";
    let v = lint_source("crates/trace/src/example.rs", mutex);
    assert_eq!(count(&v, "unfenced-concurrency"), 1, "got: {v:?}");

    // The sanctioned fence modules are exempt by path.
    assert!(lint_source("crates/core/src/parallel.rs", spawn).is_empty());
    assert!(lint_source("crates/metrics/src/registry.rs", mutex).is_empty());

    let ok = "fn f() -> u64 {\n\
              \x20   // lint: allow(unfenced-concurrency): join fences the worker deterministically\n\
              \x20   std::thread::spawn(|| 0).join().expect(\"joins\")\n}\n";
    assert!(lint_source(KERNEL, ok).is_empty());
}

#[test]
fn unseeded_rng_fires_once_and_allow_twin_passes() {
    let bad = "fn f() -> u32 {\n    rand::random()\n}\n";
    let v = lint_source("crates/workloads/src/example.rs", bad);
    assert_eq!(count(&v, "unseeded-rng"), 1, "got: {v:?}");

    let thread_rng = "fn f() -> u32 {\n    let mut r = rand::thread_rng();\n    r.next()\n}\n";
    assert_eq!(count(&lint_source(KERNEL, thread_rng), "unseeded-rng"), 1);

    let ok = "fn f() -> u32 {\n    rand::random() // lint: allow(unseeded-rng): \
              diagnostic jitter only, never feeds the schedule\n}\n";
    assert!(lint_source(KERNEL, ok).is_empty());
}

// -------------------------------------------------- panic-path rule family

#[test]
fn slice_index_fires_once_and_allow_twin_passes() {
    let bad = "fn f(v: &[u64], i: usize) -> u64 {\n    v[i]\n}\n";
    let v = lint_source(KERNEL, bad);
    assert_eq!(count(&v, "slice-index"), 1, "got: {v:?}");
    assert_eq!(v.first().map(|v| v.line), Some(2));

    let ok = "fn f(v: &[u64], i: usize) -> u64 {\n    v[i] // lint: allow(slice-index): \
              i is range-asserted at the call site\n}\n";
    assert!(lint_source(KERNEL, ok).is_empty());

    // Scoped to kernel crates: experiment harness code is not gated.
    assert!(lint_source("crates/experiments/src/example.rs", bad).is_empty());
}

#[test]
fn unchecked_arith_fires_once_on_counter_vocabulary() {
    let bad = "fn f(retry_count: u64) -> u64 {\n    retry_count + 1\n}\n";
    let v = lint_source(KERNEL, bad);
    assert_eq!(count(&v, "unchecked-arith"), 1, "got: {v:?}");

    // Non-counter names are not the rule's business.
    let plain = "fn f(makespan: f64, width: f64) -> f64 {\n    makespan * width\n}\n";
    assert_eq!(count(&lint_source(KERNEL, plain), "unchecked-arith"), 0);

    let ok =
        "fn f(retry_count: u64) -> u64 {\n    retry_count + 1 // lint: allow(unchecked-arith): \
              bounded by max_attempts, proven at config parse\n}\n";
    assert!(lint_source(KERNEL, ok).is_empty());
}

// ----------------------------------------------- encapsulation rule family

#[test]
fn hardcoded_class_mutation_is_caught_outside_compat() {
    // The mutation scenario: re-introducing the two-class dichotomy into
    // scheduler code (the exact regression the k-class refactor fences off)
    // must fail the gate.
    let seeded = "fn pick(kind: ResourceKind) -> bool {\n    kind == ResourceKind::Gpu\n}\n";
    let v = lint_source("crates/schedulers/src/example.rs", seeded);
    assert_eq!(count(&v, "hardcoded-class"), 1, "got: {v:?}");
    assert_eq!(v.first().map(|v| v.line), Some(2));

    // compat.rs is the one module allowed to spell Cpu/Gpu.
    assert!(lint_source("crates/core/src/model/compat.rs", seeded).is_empty());

    // Frozen k=2 reference paths allow-list each site with the reason.
    let ok = "fn pick(kind: ResourceKind) -> bool {\n    kind == ResourceKind::Gpu \
              // lint: allow(hardcoded-class): frozen k=2 seed reference, pinned by kernel_parity\n}\n";
    assert!(lint_source("crates/bench/src/example.rs", ok).is_empty());

    // Lower-case class *names* (ClassTable vocabulary) are not variants.
    assert!(lint_source(KERNEL, "let gpu = table.id_of(\"gpu\");\n").is_empty());
}

#[test]
fn empty_reason_directive_is_itself_a_violation_and_suppresses_nothing() {
    let src = "fn f(v: &[u64], i: usize) -> u64 {\n    v[i] // lint: allow(slice-index):\n}\n";
    let v = lint_source(KERNEL, src);
    assert_eq!(count(&v, "allow-directive"), 1, "got: {v:?}");
    assert_eq!(count(&v, "slice-index"), 1, "a malformed directive must not suppress");
}

// ------------------------------------- regex-era scanner bugs, pinned fixed

#[test]
fn needles_inside_strings_and_doc_comments_do_not_fire() {
    // The old line scanner flagged `.unwrap()` and `Instant::now(` wherever
    // the bytes appeared — including string literals and doc comments.
    let src = "/// Never call `.unwrap()` here; prefer Instant::now( wrappers.\n\
               fn f() -> &'static str {\n\
               \x20   \"docs mention .unwrap() and Instant::now( safely\"\n\
               }\n";
    let v = lint_source(KERNEL, src);
    assert!(v.is_empty(), "got: {v:?}");
}

#[test]
fn mid_comment_allow_mention_is_not_a_directive() {
    // The old scanner exempted any line whose comment tail merely
    // *mentioned* `lint: allow`; the grammar now requires the comment to
    // lead with `lint:`.
    let src = "fn f(o: Option<u64>) -> u64 {\n\
               \x20   o.unwrap() // the old scanner honored any lint: allow(unwrap): mention\n\
               }\n";
    let v = lint_source(KERNEL, src);
    assert_eq!(count(&v, "unwrap"), 1, "got: {v:?}");
}

#[test]
fn cfg_test_scope_ends_with_the_annotated_item() {
    let src = "#[cfg(test)]\n\
               fn helper(v: &[u64]) -> u64 {\n\
               \x20   v[0]\n\
               }\n\
               \n\
               fn prod(v: &[u64]) -> u64 {\n\
               \x20   v[0]\n\
               }\n";
    let v = lint_source(KERNEL, src);
    assert_eq!(count(&v, "slice-index"), 1, "got: {v:?}");
    assert_eq!(v.first().map(|v| v.line), Some(7), "only the non-test item is gated");
}

#[test]
fn line_numbers_survive_multi_line_strings() {
    // A string with an embedded newline and a line-continuation escape —
    // both hide newlines from naive lexers and drift every later line.
    let src = "const BANNER: &str = \"one\ntwo \\\nthree\";\n\
               fn f(o: Option<u64>) -> u64 {\n\
               \x20   o.unwrap()\n\
               }\n";
    let v = lint_source(KERNEL, src);
    assert_eq!(count(&v, "unwrap"), 1, "got: {v:?}");
    assert_eq!(v.first().map(|v| v.line), Some(5));
}

// ------------------------------------------------------- self-consistency

#[test]
fn rules_metadata_module_docs_and_help_agree() {
    let names: Vec<&str> = RULES.iter().map(|m| m.name).collect();
    for pair in names.windows(2) {
        assert_ne!(pair[0], pair[1], "duplicate adjacent rule names");
    }

    let rules_rs = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/lint/src/rules.rs");
    let src = std::fs::read_to_string(rules_rs).expect("rules.rs is readable from the workspace");
    let doc_names: Vec<&str> = src
        .lines()
        .filter_map(|l| l.trim().strip_prefix("//! * `"))
        .filter_map(|rest| rest.split('`').next())
        .collect();
    assert_eq!(doc_names, names, "rules.rs module doc must list exactly the registry");

    let help = help_text();
    let help_names: Vec<&str> = help
        .split("rules:\n")
        .nth(1)
        .expect("--help has a rules section")
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(help_names, names, "--help must list exactly the registry");
}

// ------------------------------------------------------- SARIF golden shape

fn str_at<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a str> {
    let mut cur = v;
    for k in keys {
        cur = cur.get(k)?;
    }
    cur.as_str()
}

#[test]
fn sarif_report_matches_the_2_1_0_shape() {
    let new = lint_source(KERNEL, "fn f(v: &[u64], i: usize) -> u64 {\n    v[i]\n}\n");
    assert_eq!(new.len(), 1);
    let mut violations = new;
    violations.push(LintViolation {
        file: "crates/core/src/old.rs".into(),
        line: 3,
        rule: "unwrap",
        message: "bare unwrap".into(),
    });
    let grandfather = vec![BaselineEntry {
        file: "crates/core/src/old.rs".into(),
        rule: "unwrap".into(),
        allowed: 1,
        note: "burns down with the durability refactor".into(),
    }];
    let report = baseline::apply(violations, &grandfather);
    assert_eq!(report.new.len(), 1);
    assert_eq!(report.baselined.len(), 1);
    assert!(report.stale.is_empty());

    let sarif = json::parse(&report.sarif()).expect("sarif output parses as JSON");
    assert!(
        str_at(&sarif, &["$schema"]).is_some_and(|s| s.contains("sarif-schema-2.1.0")),
        "must point at the 2.1.0 schema"
    );
    assert_eq!(str_at(&sarif, &["version"]), Some("2.1.0"));

    let runs = sarif.get("runs").and_then(Value::as_arr).expect("runs array");
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(str_at(run, &["tool", "driver", "name"]), Some("audit-lint"));
    let rules = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Value::as_arr)
        .expect("driver.rules array");
    assert_eq!(rules.len(), RULES.len(), "the full registry rides on the driver");
    for (rule, meta) in rules.iter().zip(RULES) {
        assert_eq!(str_at(rule, &["id"]), Some(meta.name));
        assert_eq!(str_at(rule, &["shortDescription", "text"]), Some(meta.summary));
    }

    let results = run.get("results").and_then(Value::as_arr).expect("results array");
    assert_eq!(results.len(), 2, "new + baselined");

    let fresh = &results[0];
    assert_eq!(str_at(fresh, &["ruleId"]), Some("slice-index"));
    assert_eq!(str_at(fresh, &["level"]), Some("error"));
    let loc = fresh.get("locations").and_then(Value::as_arr).expect("locations")[0]
        .get("physicalLocation")
        .cloned()
        .expect("physicalLocation");
    assert_eq!(str_at(&loc, &["artifactLocation", "uri"]), Some(KERNEL));
    assert_eq!(loc.get("region").and_then(|r| r.get("startLine")).and_then(Value::as_i64), Some(2));
    assert!(fresh.get("suppressions").is_none(), "new findings carry no suppression");

    let grandfathered = &results[1];
    assert_eq!(str_at(grandfathered, &["ruleId"]), Some("unwrap"));
    assert_eq!(str_at(grandfathered, &["level"]), Some("note"));
    let sup =
        grandfathered.get("suppressions").and_then(Value::as_arr).expect("suppressions")[0].clone();
    assert_eq!(str_at(&sup, &["kind"]), Some("external"));
    assert_eq!(str_at(&sup, &["justification"]), Some("burns down with the durability refactor"));
}

// --------------------------------------------------------- baseline strictness

#[test]
fn stale_baseline_entries_fail_the_gate() {
    let entries = vec![BaselineEntry {
        file: "crates/core/src/gone.rs".into(),
        rule: "slice-index".into(),
        allowed: 2,
        note: "already fixed".into(),
    }];
    let report = baseline::apply(Vec::new(), &entries);
    assert!(report.new.is_empty());
    assert_eq!(report.stale.len(), 1, "undercount must surface as stale");
    assert!(report.gate_failures() > 0, "stale entries fail the gate");
    assert!(report.summary_line().contains("stale"));
}
