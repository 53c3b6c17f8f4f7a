//! The rule registry and every content rule, token-level and line-level.
//!
//! Rules (names are what `lint: allow(...)` directives must use):
//!
//! * `float-eq` — `==` / `!=` with a float-literal operand. All time
//!   comparisons must go through `core/src/time.rs`; exact sentinels (a
//!   value set literally and never produced by arithmetic) may be
//!   allow-listed with a comment stating that invariant.
//! * `float-ord` — `<` / `>` / `<=` / `>=` with a *non-zero* float-literal
//!   operand. Comparisons against literal `0.0` are sign checks and exempt.
//! * `partial-cmp` — any `.partial_cmp(` call. Scheduling code sorts with
//!   `total_cmp` or `F64Ord`; `partial_cmp` reintroduces NaN panics.
//! * `cast-trunc` — numeric `as` casts to integer types whose operand looks
//!   like scheduling math (contains a float literal, `f64`/`f32`,
//!   `ceil`/`floor`/`round`, or `*` / `/` arithmetic). Deliberate
//!   quantization must be allow-listed.
//! * `unwrap` — bare `.unwrap()` in non-test library code. Use `.expect()`
//!   with a message stating the invariant instead.
//! * `slice-index` — postfix `[...]` indexing or slicing in the kernel
//!   crates (`core`, `simulator`, `runtime`, `schedulers`). A bad index is
//!   a panic in the event loop; use `.get()`/`.get_mut()` with `.expect()`
//!   stating the invariant, or allow-list with the bound stated.
//! * `unchecked-arith` — `+` / `-` / `*` (or the compound assignments) on
//!   an identifier named like a task/event counter (`*count*`, `*seen*`,
//!   `*emitted*`, `*retri*`, `*attempt*`, `*ticks*`, `*epoch*`, `seq`).
//!   Overflow wraps silently in release; route through `checked_*` /
//!   `saturating_*` with the invariant stated, or allow with a reason.
//! * `map-iter-order` — `HashMap` / `HashSet` in the kernel crates. Hash
//!   iteration order is nondeterministic across runs and platforms, which
//!   silently breaks bit-identical replay; use `BTreeMap` / `BTreeSet` or
//!   collect-and-sort before iterating.
//! * `unfenced-concurrency` — `thread::spawn` / `thread::scope`,
//!   `.spawn(`, `Mutex`, `RwLock`, `Condvar`, `Barrier`, `mpsc` or atomics
//!   outside the two sanctioned modules (`metrics/src/registry.rs`, the
//!   lock-free metrics slab, and `core/src/parallel.rs`, the deterministic
//!   worker pool). Stray concurrency primitives are how a future parallel
//!   kernel loop loses event-order determinism.
//! * `unseeded-rng` — RNG construction not threaded from an explicit seed
//!   (`thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`, `ThreadRng`,
//!   `rand::random`). Every run must be reproducible from its inputs.
//! * `instant-now` — `Instant::now()` / `SystemTime::now()` outside
//!   `crates/metrics`. Wall-clock reads scattered through scheduling code
//!   make runs non-reproducible and measurements inconsistent; all timing
//!   goes through `heteroprio_metrics` (`Stopwatch`, `ScopedTimer`), which
//!   is the one crate allowed to touch the clock.
//! * `raw-journal-io` — raw filesystem writes (`File::create(`,
//!   `fs::write(`, `File::options(`, `OpenOptions`) on a line that handles
//!   a journal/checkpoint/snapshot artifact, outside the two durability
//!   modules (`trace/src/journal.rs`, `core/src/durability.rs`). Writing
//!   durability artifacts by hand bypasses the length+CRC framing, the
//!   fsync cadence and the atomic tmp+rename protocol that crash recovery
//!   depends on; route the bytes through `FileJournal` /
//!   `FileCheckpointStore` instead.
//! * `schedule-mut` — mutating calls on a `.runs` / `.aborted` field outside
//!   `crates/core`. The kernel owns `Schedule` construction, and the one
//!   rebuild of a schedule from a recorded trace
//!   (`core::schedule_from_events`) lives in core too; everything else
//!   receives a schedule and must treat it as sealed. A site that truly
//!   needs an exception allow-lists itself with the reason.
//! * `hardcoded-class` — a `Cpu` / `Gpu` identifier outside
//!   `core/src/model/compat.rs`. The class model is runtime-sized
//!   (`ClassId` / `ClassTable`); `compat::ResourceKind` is the one module
//!   allowed to spell the two-class dichotomy. Frozen k=2 reference paths
//!   (the seed engine, the Lemma 1/2 certificates) carry baseline entries
//!   or allow each site with the reason.
//! * `forbid-unsafe` — every crate root must carry `#![forbid(unsafe_code)]`
//!   (checked by [`lint_workspace`], not per-line).
//! * `allow-directive` — a malformed `lint: allow` directive: an unknown
//!   rule name, an unterminated argument list, or a missing reason. The
//!   reason is mandatory; an empty reason is itself a violation.
//!
//! An allow directive is a plain line (or block) comment whose content
//! *starts with* `lint: allow(rule): reason` and applies to its own line,
//! or — when the line is comment-only — to the next line with code. Doc
//! comments (`///`, `//!`) are documentation, never directives, and a
//! trailing comment that merely mentions the grammar mid-sentence does not
//! exempt the code sharing its line.
//!
//! `core/src/time.rs` is exempt from the float rules: it is the one place
//! raw comparisons are allowed, because it *defines* the tolerant ones.
//! `#[cfg(test)]` item scopes are exempt from all content rules.

use crate::source::SourceFile;
use crate::token::{Token, TokenKind};
use crate::LintViolation;
use std::path::{Path, PathBuf};

/// The rule family a rule belongs to; drives report grouping and the
/// DESIGN.md §11 map from rule family to the plane it protects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Raw f64 comparisons and truncations — protects the tolerant time
    /// algebra the paper's bounds are checked with.
    FloatDiscipline,
    /// Panic paths in the event loop — indexing, overflow, bare unwraps.
    PanicFreedom,
    /// Bit-identical replay — iteration order, concurrency, RNG, clocks.
    Determinism,
    /// Crash recovery — journal/checkpoint framing and fsync discipline.
    Durability,
    /// Ownership boundaries — who may construct/mutate core artifacts.
    Encapsulation,
    /// Workspace structure — per-crate soundness attributes.
    Structure,
    /// The directive grammar itself.
    Meta,
}

impl Family {
    pub fn as_str(self) -> &'static str {
        match self {
            Family::FloatDiscipline => "float-discipline",
            Family::PanicFreedom => "panic-freedom",
            Family::Determinism => "determinism",
            Family::Durability => "durability",
            Family::Encapsulation => "encapsulation",
            Family::Structure => "structure",
            Family::Meta => "meta",
        }
    }
}

/// Per-rule metadata: registry entry for reports, `--rules` and SARIF.
#[derive(Clone, Copy, Debug)]
pub struct RuleMeta {
    pub name: &'static str,
    pub summary: &'static str,
    pub family: Family,
    /// What breaks if this rule is ignored — the plane or ROADMAP item the
    /// rule fences.
    pub protects: &'static str,
}

/// The full registry. Order here is the order of the module docs above,
/// `--rules` output and the SARIF rule table (pinned by a test).
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        name: "float-eq",
        summary: "==/!= with a float literal outside core/src/time.rs",
        family: Family::FloatDiscipline,
        protects: "tolerant time algebra behind the paper's bound checks",
    },
    RuleMeta {
        name: "float-ord",
        summary: "</>/<=/>= with a non-zero float literal outside core/src/time.rs",
        family: Family::FloatDiscipline,
        protects: "tolerant time algebra behind the paper's bound checks",
    },
    RuleMeta {
        name: "partial-cmp",
        summary: ".partial_cmp( outside core/src/time.rs",
        family: Family::FloatDiscipline,
        protects: "NaN-total ordering in every scheduling sort",
    },
    RuleMeta {
        name: "cast-trunc",
        summary: "integer `as` cast of scheduling math without an allow comment",
        family: Family::FloatDiscipline,
        protects: "exact task/time accounting across the bounds and reports",
    },
    RuleMeta {
        name: "unwrap",
        summary: "bare .unwrap() in non-test library code",
        family: Family::PanicFreedom,
        protects: "panic-free kernel loop (ROADMAP item 1: long-running daemon)",
    },
    RuleMeta {
        name: "slice-index",
        summary: "postfix [..] indexing in kernel crates without a stated bound",
        family: Family::PanicFreedom,
        protects: "panic-free kernel loop (ROADMAP item 1: long-running daemon)",
    },
    RuleMeta {
        name: "unchecked-arith",
        summary: "+/-/* on a task/event counter that wraps silently in release",
        family: Family::PanicFreedom,
        protects: "monotone event/task counters the recovery plane keys on",
    },
    RuleMeta {
        name: "map-iter-order",
        summary: "HashMap/HashSet in kernel crates (nondeterministic iteration)",
        family: Family::Determinism,
        protects: "bit-identical replay (ROADMAP item 2: parallel kernel loop)",
    },
    RuleMeta {
        name: "unfenced-concurrency",
        summary: "concurrency primitive outside metrics slab / core::parallel",
        family: Family::Determinism,
        protects: "bit-identical replay (ROADMAP item 2: parallel kernel loop)",
    },
    RuleMeta {
        name: "unseeded-rng",
        summary: "RNG construction not threaded from an explicit seed",
        family: Family::Determinism,
        protects: "reproducible fault plans, jitter and generated workloads",
    },
    RuleMeta {
        name: "instant-now",
        summary: "Instant::now()/SystemTime::now() outside crates/metrics",
        family: Family::Determinism,
        protects: "clock-free scheduling decisions; metrics is the clock room",
    },
    RuleMeta {
        name: "raw-journal-io",
        summary: "raw fs write of a journal/checkpoint artifact outside the durability modules",
        family: Family::Durability,
        protects: "CRC framing + fsync + atomic-rename crash-recovery protocol",
    },
    RuleMeta {
        name: "schedule-mut",
        summary: "Schedule runs/aborted mutated outside crates/core",
        family: Family::Encapsulation,
        protects: "kernel-owned Schedule construction (audit replays trust it)",
    },
    RuleMeta {
        name: "hardcoded-class",
        summary: "Cpu/Gpu identifier outside core::model::compat (k=2 dichotomy leak)",
        family: Family::Encapsulation,
        protects: "runtime-sized class model; compat::ResourceKind is the one k=2 site",
    },
    RuleMeta {
        name: "forbid-unsafe",
        summary: "crate root missing #![forbid(unsafe_code)]",
        family: Family::Structure,
        protects: "memory safety as a workspace-wide invariant",
    },
    RuleMeta {
        name: "allow-directive",
        summary: "malformed lint: allow directive (unknown rule or missing reason)",
        family: Family::Meta,
        protects: "every exemption carries a stated invariant",
    },
];

/// Look up a rule's metadata by name.
pub fn rule_meta(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|m| m.name == name)
}

/// The crates whose sources are "scheduling code" for the determinism and
/// panic-path families: a panic or a nondeterministic iteration here is a
/// kernel-loop bug, not a tooling inconvenience.
const KERNEL_CRATES: &[&str] =
    &["crates/core/", "crates/simulator/", "crates/runtime/", "crates/schedulers/"];

fn in_kernel_crates(path: &str) -> bool {
    KERNEL_CRATES.iter().any(|p| path.starts_with(p))
}

/// Apply every content rule to one source file. `path` is used for
/// reporting and for the per-module exemptions described in the module
/// docs; it should be workspace-relative (`crates/...`).
pub fn lint_source(path: &str, text: &str) -> Vec<LintViolation> {
    let sf = SourceFile::parse(path, text);
    let mut violations = sf.directive_violations.clone();
    check_lines(&sf, &mut violations);
    check_tokens(&sf, &mut violations);
    violations.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    violations
}

/// The line-shaped rules, ported from the regex-era scanner onto the
/// masked (code-only) view the tokenizer produces: the expression
/// heuristics are unchanged, but they can no longer be fooled by strings,
/// comments, or multi-line literals.
fn check_lines(sf: &SourceFile<'_>, violations: &mut Vec<LintViolation>) {
    let path = sf.path;
    let float_exempt = path.ends_with("core/src/time.rs");
    let schedule_exempt = path.starts_with("crates/core/");
    let clock_exempt = path.starts_with("crates/metrics/");
    let journal_exempt =
        path.ends_with("trace/src/journal.rs") || path.ends_with("core/src/durability.rs");
    for (i, code) in sf.masked.iter().enumerate() {
        if sf.in_test(i) {
            continue;
        }
        let mut push = |rule: &'static str, message: String| {
            if !sf.allowed(i, rule) {
                violations.push(LintViolation {
                    file: path.to_string(),
                    line: i + 1,
                    rule,
                    message,
                });
            }
        };
        if !float_exempt && code.contains(".partial_cmp(") {
            push("partial-cmp", "use total_cmp or F64Ord instead of partial_cmp".into());
        }
        if code.contains(".unwrap()") {
            push("unwrap", "bare unwrap in library code; use expect with the invariant".into());
        }
        if !float_exempt {
            check_float_comparisons(code, &mut push);
        }
        check_int_casts(code, &mut push);
        if !schedule_exempt {
            check_schedule_mutations(code, &mut push);
        }
        if !clock_exempt {
            for needle in ["Instant::now(", "SystemTime::now("] {
                if code.contains(needle) {
                    push(
                        "instant-now",
                        format!(
                            "direct clock read `{needle})` outside crates/metrics; use \
                             heteroprio_metrics::Stopwatch or ScopedTimer"
                        ),
                    );
                }
            }
        }
        if !journal_exempt {
            check_raw_journal_io(code, &mut push);
        }
    }
}

/// The token-shaped rules: the determinism family and the panic-path
/// family added for the parallel-kernel work.
fn check_tokens(sf: &SourceFile<'_>, violations: &mut Vec<LintViolation>) {
    let path = sf.path;
    let kernel = in_kernel_crates(path);
    let concurrency_exempt =
        path.ends_with("metrics/src/registry.rs") || path.ends_with("core/src/parallel.rs");
    let compat_exempt = path.ends_with("core/src/model/compat.rs");
    let code: Vec<&Token<'_>> = sf.code_tokens().collect();
    let mut push = |line: usize, rule: &'static str, message: String| {
        let line0 = line - 1;
        if !sf.in_test(line0) && !sf.allowed(line0, rule) {
            violations.push(LintViolation { file: path.to_string(), line, rule, message });
        }
    };
    for (i, t) in code.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| code[j]);
        let next = code.get(i + 1).copied();
        match t.kind {
            TokenKind::Ident => {
                if !compat_exempt && matches!(t.text, "Cpu" | "Gpu") {
                    push(
                        t.line,
                        "hardcoded-class",
                        format!(
                            "hard-coded resource class `{}` outside core::model::compat; \
                             the class model is runtime-sized — take a ClassId/ClassTable \
                             from the caller, or allow-list a frozen k=2 reference path",
                            t.text
                        ),
                    );
                }
                if kernel && matches!(t.text, "HashMap" | "HashSet") {
                    push(
                        t.line,
                        "map-iter-order",
                        format!(
                            "`{}` in kernel code: hash iteration order is nondeterministic \
                             across runs; use BTreeMap/BTreeSet or a sorted collect",
                            t.text
                        ),
                    );
                }
                if !concurrency_exempt && is_concurrency_primitive(t.text) {
                    push(
                        t.line,
                        "unfenced-concurrency",
                        format!(
                            "concurrency primitive `{}` outside the sanctioned modules \
                             (metrics registry slab, core::parallel); unfenced threads and \
                             shared state break deterministic replay",
                            t.text
                        ),
                    );
                }
                if !concurrency_exempt
                    && matches!(t.text, "spawn" | "scope")
                    && prev.is_some_and(|p| p.text == "::")
                    && i >= 2
                    && code[i - 2].text == "thread"
                {
                    push(
                        t.line,
                        "unfenced-concurrency",
                        format!("`thread::{}` outside core::parallel; route worker threads through the sanctioned pool", t.text),
                    );
                }
                if !concurrency_exempt
                    && t.text == "spawn"
                    && prev.is_some_and(|p| p.text == ".")
                    && next.is_some_and(|n| n.text == "(")
                {
                    push(
                        t.line,
                        "unfenced-concurrency",
                        "`.spawn(` outside core::parallel; route worker threads through the sanctioned pool".into(),
                    );
                }
                if is_unseeded_rng(t.text)
                    || (t.text == "random"
                        && prev.is_some_and(|p| p.text == "::")
                        && i >= 2
                        && code[i - 2].text == "rand")
                {
                    push(
                        t.line,
                        "unseeded-rng",
                        format!(
                            "`{}` constructs an RNG without an explicit seed; thread a seed \
                             from the caller so every run is reproducible",
                            t.text
                        ),
                    );
                }
            }
            TokenKind::Punct => {
                if kernel && t.text == "[" {
                    if let Some(p) = prev {
                        let base_ident = p.kind == TokenKind::Ident && !is_keyword(p.text);
                        if base_ident || matches!(p.text, ")" | "]") {
                            push(
                                t.line,
                                "slice-index",
                                format!(
                                    "bare `{}[..]` indexing in kernel code panics on a bad \
                                     index; use .get()/.get_mut() with .expect() stating the \
                                     bound invariant",
                                    p.text
                                ),
                            );
                        }
                    }
                }
                if matches!(t.text, "+" | "-" | "*" | "+=" | "-=" | "*=") {
                    let left = prev
                        .filter(|p| p.kind == TokenKind::Ident && is_counter_name(p.text))
                        .map(|p| p.text);
                    let right = left.is_none().then(|| counter_in_chain(&code, i + 1)).flatten();
                    if let Some(name) = left.or(right) {
                        push(
                            t.line,
                            "unchecked-arith",
                            format!(
                                "unchecked `{}` on counter `{name}` wraps silently in \
                                 release; use checked_*/saturating_* with the invariant \
                                 stated",
                                t.text
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

fn is_concurrency_primitive(name: &str) -> bool {
    matches!(
        name,
        "Mutex"
            | "RwLock"
            | "Condvar"
            | "Barrier"
            | "mpsc"
            | "AtomicBool"
            | "AtomicUsize"
            | "AtomicIsize"
            | "AtomicU8"
            | "AtomicU16"
            | "AtomicU32"
            | "AtomicU64"
            | "AtomicI8"
            | "AtomicI16"
            | "AtomicI32"
            | "AtomicI64"
    )
}

fn is_unseeded_rng(name: &str) -> bool {
    matches!(name, "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" | "ThreadRng")
}

/// Identifier names that mark a value as a task/event counter for the
/// `unchecked-arith` rule. Deliberately vocabulary-based: the kernel's
/// counters are all named this way, and the rule is cheap to allow where
/// the name collides with non-counter math.
fn is_counter_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n == "seq"
        || n.ends_with("_seq")
        || ["count", "seen", "emitted", "retri", "attempt", "ticks", "epoch"]
            .iter()
            .any(|w| n.contains(w))
}

/// Walk the postfix chain starting at `code[from]` (`self.a.b`...) and
/// return the first counter-named field that is not a method call.
fn counter_in_chain<'a>(code: &[&Token<'a>], from: usize) -> Option<&'a str> {
    let mut j = from;
    while j < code.len() && code[j].kind == TokenKind::Ident {
        let followed_by_call = code.get(j + 1).is_some_and(|t| t.text == "(");
        if is_counter_name(code[j].text) && !followed_by_call {
            return Some(code[j].text);
        }
        if code.get(j + 1).is_some_and(|t| t.text == ".") {
            j += 2;
        } else {
            break;
        }
    }
    None
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "let"
            | "in"
            | "if"
            | "else"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "loop"
            | "while"
            | "for"
            | "move"
            | "mut"
            | "ref"
            | "dyn"
            | "impl"
            | "as"
            | "box"
            | "where"
            | "yield"
            | "static"
            | "const"
            | "fn"
            | "type"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "mod"
            | "unsafe"
            | "async"
            | "await"
            | "try"
            | "enum"
            | "struct"
            | "trait"
            | "union"
    )
}

/// Raw filesystem writes aimed at durability artifacts. Matching is
/// per-line: a raw-write call is a violation when the same statement
/// mentions a journal/checkpoint/snapshot, which is how such code names
/// its paths and bindings in practice.
fn check_raw_journal_io(code: &str, push: &mut impl FnMut(&'static str, String)) {
    let lower = code.to_ascii_lowercase();
    if !["journal", "checkpoint", "snapshot"].iter().any(|w| lower.contains(w)) {
        return;
    }
    for needle in ["File::create(", "fs::write(", "File::options(", "OpenOptions"] {
        if code.contains(needle) {
            push(
                "raw-journal-io",
                format!(
                    "raw `{needle}` writing a journal/checkpoint artifact outside the \
                     durability modules; use FileJournal / FileCheckpointStore (framing, \
                     CRC, fsync and atomic-rename live there)"
                ),
            );
        }
    }
}

/// Scan a whole workspace: content rules over `crates/*/src/**/*.rs`, plus
/// the `forbid-unsafe` crate-root rule over `crates/*` and `shims/*`.
pub fn lint_workspace(root: &Path) -> Result<Vec<LintViolation>, String> {
    let mut violations = Vec::new();
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
    for crate_dir in subdirs(&root.join("crates"))? {
        let src = crate_dir.join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for f in &files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            violations.extend(lint_source(&rel(f), &text));
        }
    }
    for base in ["crates", "shims"] {
        for crate_dir in subdirs(&root.join(base))? {
            let src = crate_dir.join("src");
            let mut roots: Vec<PathBuf> =
                ["lib.rs", "main.rs"].iter().map(|n| src.join(n)).filter(|p| p.is_file()).collect();
            if let Ok(entries) = std::fs::read_dir(src.join("bin")) {
                for e in entries.flatten() {
                    let p = e.path();
                    if p.extension().is_some_and(|x| x == "rs") {
                        roots.push(p);
                    }
                }
            }
            roots.sort();
            for root_file in roots {
                let text = std::fs::read_to_string(&root_file)
                    .map_err(|e| format!("{}: {e}", root_file.display()))?;
                let rel_path = rel(&root_file);
                let sf = SourceFile::parse(&rel_path, &text);
                if !sf.masked.iter().any(|l| l.contains("#![forbid(unsafe_code)]")) {
                    violations.push(LintViolation {
                        file: rel(&root_file),
                        line: 0,
                        rule: "forbid-unsafe",
                        message: "crate root missing #![forbid(unsafe_code)]".into(),
                    });
                }
            }
        }
    }
    Ok(violations)
}

fn subdirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for e in entries {
        let p = e.map_err(|e| e.to_string())?.path();
        if p.is_dir() {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(()) };
    for e in entries {
        let p = e.map_err(|e| e.to_string())?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

const INT_TYPES: &[&str] =
    &["usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128"];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Is this token a float literal (e.g. `1.0`, `.5`, `2e-9`, `3.0_f64`)?
fn is_float_literal(token: &str) -> bool {
    let t = token
        .trim_start_matches('-')
        .trim_end_matches("_f64")
        .trim_end_matches("_f32")
        .trim_end_matches("f64")
        .trim_end_matches("f32");
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return false;
    }
    let has_digit = t.chars().any(|c| c.is_ascii_digit());
    let floaty = t.contains('.') || t.contains('e') || t.contains('E');
    has_digit
        && floaty
        && t.chars().all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '_' | '-' | '+'))
}

/// A zero literal (`0.0`, `-0.0`, `.0`): sign checks against exact zero are
/// the sanctioned common case for `float-ord`.
fn is_zero_literal(token: &str) -> bool {
    is_float_literal(token) && !token.chars().any(|c| ('1'..='9').contains(&c))
}

/// The token immediately left of byte offset `at` (identifier chars, dots,
/// sign via preceding context).
fn token_left(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut end = at;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (is_ident_char(bytes[start - 1] as char) || bytes[start - 1] == b'.') {
        start -= 1;
    }
    &code[start..end]
}

/// The token immediately right of byte offset `at`.
fn token_right(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = at;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    if start < bytes.len() && bytes[start] == b'-' {
        start += 1;
        // keep the sign out; magnitude is what matters
    }
    let mut end = start;
    while end < bytes.len() && (is_ident_char(bytes[end] as char) || bytes[end] == b'.') {
        end += 1;
    }
    &code[start..end]
}

/// The expression span left of a comparison operator at `at`: walk back to
/// an unbalanced `(`/`[` or a top-level boundary (`{ ; , = & | < >`).
fn expr_left(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut start = at;
    while start > 0 {
        let c = bytes[start - 1];
        match c {
            b')' | b']' => depth += 1,
            b'(' | b'[' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b'{' | b';' | b',' | b'=' | b'&' | b'|' | b'<' | b'>' if depth == 0 => break,
            _ => {}
        }
        start -= 1;
    }
    &code[start..at]
}

/// The expression span right of a comparison operator: the mirror image of
/// [`expr_left`].
fn expr_right(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut end = at;
    while end < bytes.len() {
        let c = bytes[end];
        match c {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b'{' | b';' | b',' | b'=' | b'&' | b'|' | b'<' | b'>' if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    &code[at..end]
}

/// Does the expression span contain a non-zero float literal token?
fn expr_has_nonzero_float(expr: &str) -> bool {
    expr.split(|c: char| !(is_ident_char(c) || c == '.'))
        .any(|tok| is_float_literal(tok) && !is_zero_literal(tok))
}

fn check_float_comparisons(code: &str, push: &mut impl FnMut(&'static str, String)) {
    // Equality: any float literal operand.
    for op in ["==", "!="] {
        for pos in find_all(code, op) {
            // Exclude ===, <=, >=, != handled separately by their own ops.
            if pos > 0 && matches!(code.as_bytes()[pos - 1], b'=' | b'!' | b'<' | b'>') {
                continue;
            }
            let left = token_left(code, pos);
            let right = token_right(code, pos + op.len());
            if is_float_literal(left) || is_float_literal(right) {
                push(
                    "float-eq",
                    format!("float equality `{left} {op} {right}`; use time::approx_eq or state the sentinel invariant"),
                );
            }
        }
    }
    // Ordering: a non-zero float literal anywhere in either side of the
    // comparison (`a < b - 1e-9` is the canonical smell, not just
    // `a < 1e-9`). rustfmt guarantees binary comparison operators are
    // space-separated, which disambiguates them from generics, shifts and
    // arrows.
    for op in [" < ", " > ", " <= ", " >= "] {
        for pos in find_all(code, op) {
            let left = expr_left(code, pos);
            let right = expr_right(code, pos + op.len());
            if expr_has_nonzero_float(left) || expr_has_nonzero_float(right) {
                push(
                    "float-ord",
                    format!(
                        "raw float comparison `{}{op}{}`; use time::strictly_less / approx_le",
                        left.trim(),
                        right.trim(),
                    ),
                );
            }
        }
    }
}

/// Mutating `Vec` methods that count as rewriting a `Schedule` when called
/// on a `.runs` / `.aborted` field. Reads (`len`, `iter`, indexing) pass.
const SCHEDULE_MUTATORS: &[&str] = &[
    "push",
    "pop",
    "clear",
    "retain",
    "truncate",
    "extend",
    "insert",
    "remove",
    "swap_remove",
    "append",
    "drain",
    "iter_mut",
];

fn check_schedule_mutations(code: &str, push: &mut impl FnMut(&'static str, String)) {
    for field in [".runs.", ".aborted."] {
        for pos in find_all(code, field) {
            let method = token_right(code, pos + field.len());
            if SCHEDULE_MUTATORS.contains(&method) || method.starts_with("sort") {
                let owner = token_left(code, pos);
                push(
                    "schedule-mut",
                    format!(
                        "`{owner}{field}{method}()` mutates a Schedule outside crates/core; \
                         route the change through the kernel or allow-list the invariant"
                    ),
                );
            }
        }
    }
}

fn check_int_casts(code: &str, push: &mut impl FnMut(&'static str, String)) {
    for pos in find_all(code, " as ") {
        let target = token_right(code, pos + 4);
        if !INT_TYPES.contains(&target) {
            continue;
        }
        let operand = cast_operand(code, pos);
        let suspicious = operand.contains('*')
            || operand.contains('/')
            || operand.contains("f64")
            || operand.contains("f32")
            || operand.contains(".ceil(")
            || operand.contains(".floor(")
            || operand.contains(".round(")
            || operand.split(|c: char| !(is_ident_char(c) || c == '.')).any(is_float_literal);
        if suspicious {
            push(
                "cast-trunc",
                format!("truncating cast of scheduling math `{} as {target}`", operand.trim()),
            );
        }
    }
}

/// The full expression being cast: a trailing method chain of identifiers,
/// dots and balanced parenthesis groups.
fn cast_operand(code: &str, cast_at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut i = cast_at;
    loop {
        if i > 0 && bytes[i - 1] == b')' {
            let mut depth = 0usize;
            let mut j = i;
            while j > 0 {
                j -= 1;
                match bytes[j] {
                    b')' => depth += 1,
                    b'(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            i = j;
        } else if i > 0 && (is_ident_char(bytes[i - 1] as char) || bytes[i - 1] == b'.') {
            while i > 0 && (is_ident_char(bytes[i - 1] as char) || bytes[i - 1] == b'.') {
                i -= 1;
            }
        } else {
            break;
        }
    }
    &code[i..cast_at]
}

fn find_all(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find(needle) {
        out.push(from + p);
        from += p + needle.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, text: &str) -> Vec<&'static str> {
        lint_source(path, text).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_float_equality_and_ordering() {
        assert_eq!(rules_of("x.rs", "if a == 1.0 {}"), vec!["float-eq"]);
        assert_eq!(rules_of("x.rs", "if a != 0.0 {}"), vec!["float-eq"]);
        assert_eq!(rules_of("x.rs", "if a < 1e-9 {}"), vec!["float-ord"]);
        assert_eq!(rules_of("x.rs", "if 2.5 >= b {}"), vec!["float-ord"]);
        // Sign checks against exact zero are fine.
        assert!(rules_of("x.rs", "if a > 0.0 {}").is_empty());
        // Integer comparisons are fine.
        assert!(rules_of("x.rs", "if a == 1 {}").is_empty());
        assert!(rules_of("x.rs", "if n < 10 {}").is_empty());
    }

    #[test]
    fn time_rs_is_exempt_from_float_rules() {
        assert!(rules_of("crates/core/src/time.rs", "a < b - 1e-9 && a.partial_cmp(&b)").is_empty());
        assert_eq!(rules_of("crates/core/src/other.rs", "x.partial_cmp(&y)"), vec!["partial-cmp"]);
    }

    #[test]
    fn flags_unwrap_but_not_expect() {
        assert_eq!(rules_of("x.rs", "foo().unwrap();"), vec!["unwrap"]);
        assert!(rules_of("x.rs", "foo().expect(\"invariant\");").is_empty());
    }

    #[test]
    fn flags_truncating_casts_only_for_float_math() {
        assert_eq!(rules_of("x.rs", "let s = (r.start * scale) as usize;"), vec!["cast-trunc"]);
        assert_eq!(rules_of("x.rs", "let e = (x * k).ceil() as usize;"), vec!["cast-trunc"]);
        assert!(rules_of("x.rs", "let w = (a + 1) as u32;").is_empty());
        assert!(rules_of("x.rs", "let k = idx as u64;").is_empty());
        assert!(rules_of("x.rs", "let f = n as f64;").is_empty());
        assert!(rules_of("x.rs", "let b = (kind == Kind::Fast) as u8;").is_empty());
    }

    #[test]
    fn allow_directive_suppresses_and_requires_reason() {
        let ok = "// lint: allow(float-eq): exact sentinel, never computed.\nif a == 1.0 {}\n";
        assert!(rules_of("x.rs", ok).is_empty());
        let inline = "if a == 1.0 {} // lint: allow(float-eq): exact sentinel.\n";
        assert!(rules_of("x.rs", inline).is_empty());
        let no_reason = "// lint: allow(float-eq)\nif a == 1.0 {}\n";
        let got = rules_of("x.rs", no_reason);
        assert!(got.contains(&"allow-directive"), "{got:?}");
        let unknown = "// lint: allow(made-up): why\nif a == 1.0 {}\n";
        assert!(rules_of("x.rs", unknown).contains(&"allow-directive"));
        // A directive covers the next code line even across comment lines.
        let stacked =
            "// lint: allow(float-eq): sentinel, with a long\n// continuation comment.\nif a == 1.0 {}\n";
        assert!(rules_of("x.rs", stacked).is_empty());
    }

    #[test]
    fn test_regions_and_comments_and_strings_are_exempt() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); assert!(a == 1.0); }\n}\nfn after() { y.unwrap(); }\n";
        let got = lint_source("x.rs", text);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 6);
        assert!(rules_of("x.rs", "// a == 1.0 in a comment\n").is_empty());
        assert!(rules_of("x.rs", "let s = \"a == 1.0\";\n").is_empty());
        assert!(rules_of("x.rs", "let s = r#\"a == 1.0\"#;\n").is_empty());
        // Char literals with braces must not derail test-region tracking.
        let tricky = "#[cfg(test)]\nmod tests {\n    fn t() { out.push('\\u{8}'); x.unwrap(); }\n}\nfn after() { z.unwrap(); }\n";
        let got = lint_source("x.rs", tricky);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 5);
    }

    #[test]
    fn schedule_mut_rule_fires_outside_core_only() {
        let mutation = "fn f(s: &mut Schedule) { s.runs.push(r); }\n";
        assert_eq!(rules_of("crates/simulator/src/x.rs", mutation), vec!["schedule-mut"]);
        assert_eq!(
            rules_of("crates/runtime/src/lib.rs", "sched.aborted.clear();"),
            vec!["schedule-mut"]
        );
        // crates/core owns Schedule construction and is exempt.
        assert!(rules_of("crates/core/src/kernel.rs", mutation).is_empty());
        // Reads are fine anywhere.
        assert!(rules_of("crates/audit/src/auditor.rs", "let n = s.runs.len();").is_empty());
        assert!(rules_of("crates/audit/src/auditor.rs", "for r in &s.aborted {}").is_empty());
        // The escape hatch works and demands a reason.
        let allowed =
            "// lint: allow(schedule-mut): rebuilding a schedule from a trace.\ns.runs.push(r);\n";
        assert!(rules_of("crates/audit/src/auditor.rs", allowed).is_empty());
    }

    #[test]
    fn instant_now_rule_fences_the_clock_into_metrics() {
        let read = "let t0 = Instant::now();\n";
        assert_eq!(rules_of("crates/experiments/src/bin/complexity.rs", read), vec!["instant-now"]);
        assert_eq!(
            rules_of("crates/cli/src/commands.rs", "let w = SystemTime::now();"),
            vec!["instant-now"]
        );
        // The metrics crate is the sanctioned clock room.
        assert!(rules_of("crates/metrics/src/timer.rs", read).is_empty());
        // Mentions in comments and strings do not count.
        assert!(rules_of("crates/cli/src/main.rs", "// Instant::now() is banned\n").is_empty());
        // The escape hatch works with a reason.
        let allowed = "// lint: allow(instant-now): one-off cold-start stamp, not scheduling.\nlet t = Instant::now();\n";
        assert!(rules_of("crates/cli/src/main.rs", allowed).is_empty());
    }

    #[test]
    fn raw_journal_io_rule_fences_writes_into_the_durability_modules() {
        let write = "let f = File::create(journal_path)?;\n";
        assert_eq!(rules_of("crates/cli/src/commands.rs", write), vec!["raw-journal-io"]);
        assert_eq!(
            rules_of("crates/experiments/src/sweep.rs", "fs::write(&snapshot_file, bytes)?;"),
            vec!["raw-journal-io"]
        );
        // The two durability modules own these writes and are exempt.
        assert!(rules_of("crates/trace/src/journal.rs", write).is_empty());
        assert!(rules_of(
            "crates/core/src/durability.rs",
            "let f = File::create(&tmp_checkpoint)?;"
        )
        .is_empty());
        // Raw writes of non-durability artifacts are not this rule's business.
        assert!(rules_of("crates/cli/src/main.rs", "fs::write(path, svg)?;").is_empty());
        // `FileJournal::create(...)` is the sanctioned API, not a raw `File::create`.
        assert!(rules_of("crates/cli/src/commands.rs", "FileJournal::create(path)?;").is_empty());
        // Mentions in comments and strings do not count.
        assert!(rules_of(
            "crates/cli/src/commands.rs",
            "// File::create(journal) is banned here\n"
        )
        .is_empty());
    }

    #[test]
    fn map_iter_order_fires_in_kernel_crates_only() {
        let use_map = "use std::collections::HashMap;\n";
        assert_eq!(rules_of("crates/core/src/kernel.rs", use_map), vec!["map-iter-order"]);
        assert_eq!(
            rules_of("crates/schedulers/src/dualhp.rs", "let s: HashSet<u32> = HashSet::new();\n")
                .len(),
            2,
            "one violation per hash-collection token"
        );
        // Non-kernel crates may use hash collections (no replay there).
        assert!(rules_of("crates/cli/src/commands.rs", use_map).is_empty());
        // BTree collections are the sanctioned alternative.
        assert!(
            rules_of("crates/core/src/kernel.rs", "use std::collections::BTreeMap;\n").is_empty()
        );
        // Mentions in comments/strings do not count.
        assert!(rules_of("crates/core/src/kernel.rs", "// HashMap is banned here\n").is_empty());
    }

    #[test]
    fn unfenced_concurrency_fences_primitives_into_sanctioned_modules() {
        assert_eq!(
            rules_of("crates/core/src/kernel.rs", "let m = Mutex::new(0);\n"),
            vec!["unfenced-concurrency"]
        );
        assert_eq!(
            rules_of("crates/experiments/src/sweep.rs", "thread::spawn(|| {});\n"),
            vec!["unfenced-concurrency"]
        );
        assert_eq!(
            rules_of("crates/trace/src/sink.rs", "let (tx, rx) = mpsc::channel();\n"),
            vec!["unfenced-concurrency"]
        );
        assert_eq!(
            rules_of("crates/core/src/kernel.rs", "s.spawn(move || work());\n"),
            vec!["unfenced-concurrency"]
        );
        // The sanctioned modules are exempt.
        assert!(rules_of("crates/metrics/src/registry.rs", "AtomicU64::new(0);\n").is_empty());
        assert!(rules_of("crates/core/src/parallel.rs", "thread::scope(|s| {});\n").is_empty());
        // `scope` and `spawn` as ordinary identifiers are fine.
        assert!(rules_of("crates/core/src/kernel.rs", "let scope = audit_scope();\n").is_empty());
    }

    #[test]
    fn unseeded_rng_requires_explicit_seeds() {
        assert_eq!(
            rules_of("crates/workloads/src/random.rs", "let mut rng = rand::thread_rng();\n"),
            vec!["unseeded-rng"]
        );
        assert_eq!(
            rules_of("crates/core/src/kernel.rs", "let rng = StdRng::from_entropy();\n"),
            vec!["unseeded-rng"]
        );
        assert_eq!(
            rules_of("crates/taskgraph/src/generators.rs", "let x: f64 = rand::random();\n"),
            vec!["unseeded-rng"]
        );
        // Seeded construction is the sanctioned path.
        assert!(rules_of(
            "crates/workloads/src/random.rs",
            "let mut rng = StdRng::seed_from_u64(seed);\n"
        )
        .is_empty());
        // `random_range` on an already-seeded generator is fine.
        assert!(rules_of("crates/workloads/src/random.rs", "rng.random_range(0..n);\n").is_empty());
    }

    #[test]
    fn slice_index_fires_on_postfix_indexing_in_kernel_crates() {
        assert_eq!(
            rules_of("crates/core/src/kernel.rs", "let x = tasks[i];\n"),
            vec!["slice-index"]
        );
        assert_eq!(
            rules_of("crates/simulator/src/engine.rs", "let (s, d) = faults[i];\n"),
            vec!["slice-index"]
        );
        assert_eq!(
            rules_of("crates/core/src/queue.rs", "self.buckets[b].pop_front();\n"),
            vec!["slice-index"]
        );
        // Chained and sliced forms count too.
        assert_eq!(rules_of("crates/runtime/src/runtime.rs", "a[i][j]\n").len(), 2);
        assert_eq!(rules_of("crates/core/src/schedule.rs", "&mut row[s..e]\n").len(), 1);
        // .get()/.get_mut() are the sanctioned accessors.
        assert!(rules_of("crates/core/src/kernel.rs", "tasks.get(i).expect(\"in range\");\n")
            .is_empty());
        // Array types, slice patterns, attributes and macros are not indexing.
        assert!(rules_of("crates/core/src/kernel.rs", "let a: [u64; 4] = make();\n").is_empty());
        assert!(rules_of("crates/core/src/kernel.rs", "let [a, b] = pair;\n").is_empty());
        assert!(rules_of("crates/core/src/kernel.rs", "#[derive(Clone)]\nstruct X;\n").is_empty());
        assert!(rules_of("crates/core/src/kernel.rs", "let v = vec![1, 2];\n").is_empty());
        // Outside the kernel crates, indexing is tooling's business.
        assert!(rules_of("crates/cli/src/format.rs", "let x = cols[i];\n").is_empty());
    }

    #[test]
    fn unchecked_arith_guards_counter_vocabulary() {
        assert_eq!(
            rules_of("crates/trace/src/summary.rs", "self.spoliation_count += 1;\n"),
            vec!["unchecked-arith"]
        );
        assert_eq!(
            rules_of("crates/core/src/queue.rs", "self.seq += 1;\n"),
            vec!["unchecked-arith"]
        );
        assert_eq!(
            rules_of("crates/core/src/kernel.rs", "let d = done - self.seen_syncs;\n"),
            vec!["unchecked-arith"]
        );
        // The right-hand side is scanned through field chains.
        assert_eq!(
            rules_of("crates/metrics/src/snapshot.rs", "let r = q * self.count;\n"),
            vec!["unchecked-arith"]
        );
        // checked_*/saturating_* are the sanctioned forms.
        assert!(rules_of(
            "crates/core/src/kernel.rs",
            "self.emitted = self.emitted.checked_add(1).expect(\"u64 event counter\");\n"
        )
        .is_empty());
        // Method calls named like counters are not counter reads.
        assert!(
            rules_of("crates/core/src/schedule.rs", "horizon * platform.count(kind)\n").is_empty()
        );
        // Ordinary arithmetic is untouched.
        assert!(rules_of("crates/core/src/kernel.rs", "let t = start + dur;\n").is_empty());
    }

    #[test]
    fn hardcoded_class_fences_the_dichotomy_into_compat() {
        assert_eq!(
            rules_of("crates/cli/src/commands.rs", "let k = ResourceKind::Cpu;\n"),
            vec!["hardcoded-class"]
        );
        assert_eq!(
            rules_of("crates/core/src/kernel.rs", "if kind == ResourceKind::Gpu { return; }\n"),
            vec!["hardcoded-class"]
        );
        // compat.rs is the one module allowed to spell the dichotomy.
        assert!(rules_of(
            "crates/core/src/model/compat.rs",
            "pub enum ResourceKind { Cpu, Gpu }\n"
        )
        .is_empty());
        // Lower-case identifiers (variables, class *names*) are not variants.
        assert!(rules_of("crates/cli/src/commands.rs", "let cpu = table.count(c);\n").is_empty());
        // Mentions in comments and strings do not count.
        assert!(rules_of("crates/cli/src/main.rs", "// ResourceKind::Cpu is banned\n").is_empty());
        assert!(rules_of("crates/cli/src/main.rs", "let s = \"Cpu\";\n").is_empty());
        // The escape hatch works with a reason.
        let allowed = "// lint: allow(hardcoded-class): frozen k=2 seed reference, pinned by kernel_parity.\nlet k = ResourceKind::Gpu;\n";
        assert!(rules_of("crates/bench/src/seed_reference.rs", allowed).is_empty());
    }

    #[test]
    fn seeded_violation_is_caught() {
        // The acceptance-criteria scenario: a tolerance-free float
        // comparison seeded into scheduler-like code must fail the gate.
        let seeded = "fn pick(a: f64, b: f64) -> bool { a < b - 1e-9 }\n";
        let got = lint_source("crates/core/src/heteroprio.rs", seeded);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "float-ord");
        assert!(got[0].to_string().contains("heteroprio.rs:1"));
    }
}
