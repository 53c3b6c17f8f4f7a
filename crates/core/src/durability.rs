//! Durability plane for the kernel: crash plans, serializable snapshots,
//! checkpoint stores, and journal metering.
//!
//! The kernel's trace stream doubles as a write-ahead journal (see
//! `heteroprio_trace::journal`): every state transition is emitted as a
//! `SchedEvent` *before* the kernel acts on its consequences, and the
//! kernel itself is a deterministic function of (workload, policy, fault
//! model, options). Recovery therefore needs no redo/undo log — replaying
//! the journaled prefix through a fresh kernel reproduces the crashed
//! run's state bit-for-bit, and the run then continues past the crash
//! point ([`kernel::Resume`](crate::kernel::Resume)).
//!
//! A [`KernelSnapshot`] is an optimization on top of that contract: it
//! captures the kernel's complete mid-run state (task states, running
//! intervals, the *actual* — possibly jittered — pending completion
//! instants, RNG state, the policy's ready order) so recovery can skip
//! re-executing the journaled prefix and only verify the tail. Snapshots
//! are written atomically (temp file + rename) with the same CRC framing
//! as journal records, so a crash mid-checkpoint leaves the previous
//! checkpoint intact and a torn checkpoint is detected and discarded — the
//! journal remains the source of truth.

use crate::kernel::{RunningTask, TaskState};
use crate::model::{ClassId, TaskId, WorkerId};
use crate::schedule::{Schedule, TaskRun};
use heteroprio_metrics::{CounterId, HistogramId, MetricsRegistry, SpanSampler, Stopwatch};
use heteroprio_trace::journal::{crc32, Journal, JournalError};
use heteroprio_trace::{json, JournalSink, OpenRuns, RunOutcome, SchedEvent, TeeSink, TraceSink};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Metric names for the durability plane (see `crates/metrics`).
pub mod metric {
    /// Journal records appended.
    pub const JOURNAL_APPENDS_TOTAL: &str = "journal_appends_total";
    /// Explicit or cadence-triggered journal fsyncs.
    pub const JOURNAL_SYNCS_TOTAL: &str = "journal_syncs_total";
    /// Framed bytes written to the journal.
    pub const JOURNAL_BYTES_TOTAL: &str = "journal_bytes_total";
    /// Latency of a single journal append, nanoseconds.
    pub const JOURNAL_APPEND_NS: &str = "journal_append_ns";
    /// Latency of a single journal sync, nanoseconds.
    pub const JOURNAL_SYNC_NS: &str = "journal_sync_ns";
    /// Wall time spent replaying/verifying journaled events on recovery,
    /// nanoseconds.
    pub const RECOVERY_REPLAY_NS: &str = "recovery_replay_ns";
}

/// Crash-injection plan, modeled on [`FaultPlan`](crate::FaultPlan): the
/// kernel "dies" after emitting its `at_event`-th trace event. From that
/// point no further events reach the sink (the journal holds exactly
/// `at_event` records, like a real torn process) and the run aborts with
/// [`RunError::Crashed`](crate::RunError::Crashed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Die after this many emitted events (`None` = never).
    pub at_event: Option<u64>,
}

impl CrashPlan {
    /// The no-crash plan.
    pub const NONE: CrashPlan = CrashPlan { at_event: None };

    /// Crash after the `n`-th emitted event.
    pub fn at_event(n: u64) -> Self {
        CrashPlan { at_event: Some(n) }
    }

    pub fn is_none(&self) -> bool {
        self.at_event.is_none()
    }
}

/// Run `f` with a sink that feeds both `sink` and `journal`, then commit
/// the journal. This is the one place a run's journal is closed: the first
/// append error latched during the run fails the call, and a final
/// [`Journal::sync`] makes the whole stream durable whether `f` completed,
/// stopped at an injected crash or resumed a recovered run — the sync
/// cadence only bounds loss mid-run, and a crash report points the user at
/// this journal.
///
/// The journal must already hold exactly the events the run re-emits
/// before its first new one: nothing for a fresh run, the recovered prefix
/// for a resume. Those are not appended again.
pub fn journaled<J: Journal + ?Sized, S: TraceSink, R>(
    journal: &mut J,
    sink: &mut S,
    f: impl FnOnce(&mut TeeSink<&mut S, JournalSink<'_, J>>) -> R,
) -> Result<R, JournalError> {
    let skip = journal.len();
    let mut tee = TeeSink(sink, JournalSink::resuming(journal, skip));
    let result = f(&mut tee);
    if let Some(e) = tee.1.error() {
        return Err(e.clone());
    }
    drop(tee);
    journal.sync()?;
    Ok(result)
}

/// Sink for kernel checkpoints.
pub trait CheckpointStore {
    fn save(&mut self, snapshot: &KernelSnapshot) -> Result<(), String>;
}

/// In-memory checkpoint store: keeps the latest snapshot.
#[derive(Debug, Default)]
pub struct MemCheckpointStore {
    pub latest: Option<KernelSnapshot>,
    pub saves: usize,
}

impl MemCheckpointStore {
    pub fn new() -> Self {
        MemCheckpointStore::default()
    }
}

impl CheckpointStore for MemCheckpointStore {
    fn save(&mut self, snapshot: &KernelSnapshot) -> Result<(), String> {
        self.latest = Some(snapshot.clone());
        self.saves += 1;
        Ok(())
    }
}

/// File header of a checkpoint: magic, then `[len: u32 LE][crc32: u32 LE]`
/// over the JSON payload — the same framing discipline as journal records.
const SNAP_MAGIC: &[u8; 6] = b"HPSN1\n";

/// File-backed checkpoint store with atomic replacement: each save writes
/// `<path>.tmp`, fsyncs it, and renames it over `<path>`, so a crash at any
/// point leaves either the previous checkpoint or a complete new one.
#[derive(Debug)]
pub struct FileCheckpointStore {
    path: PathBuf,
    last_error: Option<String>,
    pub saves: usize,
}

impl FileCheckpointStore {
    pub fn new<P: AsRef<Path>>(path: P) -> Self {
        FileCheckpointStore { path: path.as_ref().to_path_buf(), last_error: None, saves: 0 }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// First save error since the last call, if any. The kernel treats
    /// checkpointing as best-effort; callers that care poll this.
    pub fn take_error(&mut self) -> Option<String> {
        self.last_error.take()
    }

    /// Load the checkpoint at `path`. Returns `(snapshot, damage_note)`:
    /// a missing file is `(None, None)`; a torn or corrupt checkpoint is
    /// discarded as `(None, Some(why))` — recovery then falls back to
    /// journal-only replay, which is always correct.
    pub fn load<P: AsRef<Path>>(path: P) -> (Option<KernelSnapshot>, Option<String>) {
        let bytes = match fs::read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (None, None),
            Err(e) => return (None, Some(format!("read: {e}"))),
        };
        match decode_snapshot(&bytes) {
            Ok(s) => (Some(s), None),
            Err(why) => (None, Some(why)),
        }
    }
}

fn encode_snapshot(snapshot: &KernelSnapshot) -> Vec<u8> {
    let payload = snapshot.to_json().into_bytes();
    let mut bytes = Vec::with_capacity(SNAP_MAGIC.len() + 8 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode_snapshot(bytes: &[u8]) -> Result<KernelSnapshot, String> {
    let body = bytes
        .strip_prefix(SNAP_MAGIC.as_slice())
        .ok_or_else(|| "not a checkpoint file (bad magic)".to_string())?;
    if body.len() < 8 {
        return Err("torn checkpoint: header incomplete".into());
    }
    // lint: allow(cast-trunc): u32 -> usize frame length, lossless on every supported target.
    let len = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let payload = body[8..].get(..len).ok_or("torn checkpoint: payload incomplete")?;
    if crc32(payload) != crc {
        return Err("corrupt checkpoint: CRC mismatch".into());
    }
    let text = std::str::from_utf8(payload).map_err(|e| format!("corrupt checkpoint: {e}"))?;
    KernelSnapshot::parse(text)
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&mut self, snapshot: &KernelSnapshot) -> Result<(), String> {
        let result = (|| -> Result<(), String> {
            let tmp = self.path.with_extension("tmp");
            let bytes = encode_snapshot(snapshot);
            let mut file = fs::File::create(&tmp).map_err(|e| format!("create: {e}"))?;
            file.write_all(&bytes).map_err(|e| format!("write: {e}"))?;
            file.sync_all().map_err(|e| format!("sync: {e}"))?;
            drop(file);
            fs::rename(&tmp, &self.path).map_err(|e| format!("rename: {e}"))?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.saves += 1;
                Ok(())
            }
            Err(e) => {
                if self.last_error.is_none() {
                    self.last_error = Some(e.clone());
                }
                Err(e)
            }
        }
    }
}

/// Complete serializable mid-run kernel state, captured at a quiescent
/// point (end of an event-loop iteration, after the assignment fixpoint).
///
/// Everything the continuation depends on is here — including the *actual*
/// pending completion instants (under jitter these differ from the
/// estimates in `TaskStart::expected_end` and are recoverable from nowhere
/// else) and the raw RNG state, so a resumed stochastic run draws the exact
/// same stream.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSnapshot {
    /// Simulated time of capture.
    pub now: f64,
    /// Events emitted (= journal records) up to capture.
    pub events_seen: u64,
    pub workers: usize,
    pub tasks: usize,
    pub state: Vec<TaskState>,
    pub ran_kind: Vec<Option<ClassId>>,
    pub running: Vec<Option<RunningTask>>,
    /// Per-worker abort counters; each `heap` entry carries its worker's.
    pub generation: Vec<u64>,
    /// Pending completion/failure events `(time, worker, generation)`, one
    /// per running worker at its current generation, sorted by time, then
    /// worker, for a canonical encoding.
    pub heap: Vec<(f64, u32, u64)>,
    pub idle: Vec<u32>,
    pub idle_announced: Vec<bool>,
    pub alive: Vec<bool>,
    pub will_fail: Vec<bool>,
    pub failures: Vec<u32>,
    pub timeline_pos: usize,
    /// Pending retries `(ready_time, task)`, sorted.
    pub retries: Vec<(f64, u32)>,
    /// Raw xoshiro256++ state; `None` for deterministic (fault-free) runs.
    pub rng: Option<[u64; 4]>,
    /// Ready tasks in the policy's internal queue order
    /// ([`SnapshotPolicy::ready_order`](crate::kernel::SnapshotPolicy)).
    pub ready: Vec<TaskId>,
}

fn fmt_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "non-finite time {x} in snapshot");
    format!("{x}")
}

fn json_u64_array(values: impl Iterator<Item = u64>) -> String {
    // Hex strings: JSON numbers round-trip through f64 here, which cannot
    // carry a full-range u64 (RNG words use all 64 bits).
    let items: Vec<String> = values.map(|v| format!("\"{v:x}\"")).collect();
    format!("[{}]", items.join(","))
}

fn parse_hex_u64(v: &json::Value) -> Result<u64, String> {
    let s = v.as_str().ok_or("expected hex string")?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex u64 {s:?}: {e}"))
}

fn get<'a>(obj: &'a json::Value, key: &str) -> Result<&'a json::Value, String> {
    obj.get(key).ok_or_else(|| format!("snapshot field {key:?} missing"))
}

fn get_arr<'a>(obj: &'a json::Value, key: &str) -> Result<&'a [json::Value], String> {
    get(obj, key)?.as_arr().ok_or_else(|| format!("snapshot field {key:?} is not an array"))
}

fn get_f64(obj: &json::Value, key: &str) -> Result<f64, String> {
    get(obj, key)?.as_f64().ok_or_else(|| format!("snapshot field {key:?} is not a number"))
}

fn get_usize(obj: &json::Value, key: &str) -> Result<usize, String> {
    num_u64(get(obj, key)?, key).map(|n| n as usize)
}

fn num_f64(v: &json::Value, what: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{what}: expected number"))
}

/// A count serialized as a JSON number: exact only below 2^53, which every
/// kernel counter (events, generations, timeline cursor) stays far under.
fn num_u64(v: &json::Value, what: &str) -> Result<u64, String> {
    let n = v.as_i64().and_then(|n| u64::try_from(n).ok());
    n.ok_or_else(|| format!("{what}: not a valid count: {v:?}"))
}

impl KernelSnapshot {
    /// Serialize to a single-line JSON object. Floats use Rust's shortest
    /// round-trip formatting, so `parse` recovers them bit-exactly; u64s
    /// that may need all 64 bits (RNG words) go as hex strings.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"format\":\"heteroprio-snapshot\",\"version\":1");
        s.push_str(&format!(",\"now\":{}", fmt_f64(self.now)));
        s.push_str(&format!(",\"events_seen\":{}", self.events_seen));
        s.push_str(&format!(",\"workers\":{}", self.workers));
        s.push_str(&format!(",\"tasks\":{}", self.tasks));
        let state: Vec<String> = self
            .state
            .iter()
            .map(|st| {
                (match st {
                    TaskState::Pending => "0",
                    TaskState::Ready => "1",
                    TaskState::Running => "2",
                    TaskState::Waiting => "3",
                    TaskState::Done => "4",
                })
                .to_string()
            })
            .collect();
        s.push_str(&format!(",\"state\":[{}]", state.join(",")));
        let ran: Vec<String> = self
            .ran_kind
            .iter()
            .map(|k| {
                match k {
                    // Tag = class index + 1; 0 is "not finished". The
                    // two-class encoding (1 = CPU, 2 = GPU) is unchanged.
                    None => "0".to_string(),
                    Some(c) => (c.0 + 1).to_string(),
                }
            })
            .collect();
        s.push_str(&format!(",\"ran_kind\":[{}]", ran.join(",")));
        let running: Vec<String> = self
            .running
            .iter()
            .map(|r| match r {
                None => "null".to_string(),
                Some(r) => format!("[{},{},{}]", r.task.0, fmt_f64(r.start), fmt_f64(r.end)),
            })
            .collect();
        s.push_str(&format!(",\"running\":[{}]", running.join(",")));
        let gens: Vec<String> = self.generation.iter().map(|g| g.to_string()).collect();
        s.push_str(&format!(",\"generation\":[{}]", gens.join(",")));
        let heap: Vec<String> =
            self.heap.iter().map(|&(t, w, g)| format!("[{},{w},{g}]", fmt_f64(t))).collect();
        s.push_str(&format!(",\"heap\":[{}]", heap.join(",")));
        let idle: Vec<String> = self.idle.iter().map(|w| w.to_string()).collect();
        s.push_str(&format!(",\"idle\":[{}]", idle.join(",")));
        let bools = |v: &[bool]| -> String {
            let items: Vec<&str> = v.iter().map(|&b| if b { "true" } else { "false" }).collect();
            format!("[{}]", items.join(","))
        };
        s.push_str(&format!(",\"idle_announced\":{}", bools(&self.idle_announced)));
        s.push_str(&format!(",\"alive\":{}", bools(&self.alive)));
        s.push_str(&format!(",\"will_fail\":{}", bools(&self.will_fail)));
        let fails: Vec<String> = self.failures.iter().map(|f| f.to_string()).collect();
        s.push_str(&format!(",\"failures\":[{}]", fails.join(",")));
        s.push_str(&format!(",\"timeline_pos\":{}", self.timeline_pos));
        let retries: Vec<String> =
            self.retries.iter().map(|&(t, task)| format!("[{},{task}]", fmt_f64(t))).collect();
        s.push_str(&format!(",\"retries\":[{}]", retries.join(",")));
        match self.rng {
            None => s.push_str(",\"rng\":null"),
            Some(words) => s.push_str(&format!(",\"rng\":{}", json_u64_array(words.into_iter()))),
        }
        let ready: Vec<String> = self.ready.iter().map(|t| t.0.to_string()).collect();
        s.push_str(&format!(",\"ready\":[{}]", ready.join(",")));
        s.push('}');
        s
    }

    /// Parse a snapshot serialized by [`KernelSnapshot::to_json`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("snapshot JSON: {e}"))?;
        match get(&v, "format")?.as_str() {
            Some("heteroprio-snapshot") => {}
            _ => return Err("not a heteroprio snapshot".into()),
        }
        let version = get_usize(&v, "version")?;
        if version != 1 {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let state = get_arr(&v, "state")?
            .iter()
            .map(|x| match num_u64(x, "state")? {
                0 => Ok(TaskState::Pending),
                1 => Ok(TaskState::Ready),
                2 => Ok(TaskState::Running),
                3 => Ok(TaskState::Waiting),
                4 => Ok(TaskState::Done),
                n => Err(format!("bad task state tag {n}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ran_kind = get_arr(&v, "ran_kind")?
            .iter()
            .map(|x| match num_u64(x, "ran_kind")? {
                0 => Ok(None),
                n if n <= crate::model::MAX_CLASSES as u64 => Ok(Some(ClassId(n as u16 - 1))),
                n => Err(format!("bad ran_kind tag {n}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let running = get_arr(&v, "running")?
            .iter()
            .map(|x| {
                if matches!(x, json::Value::Null) {
                    return Ok(None);
                }
                let triple = x.as_arr().ok_or("running: expected null or [task,start,end]")?;
                if triple.len() != 3 {
                    return Err("running: expected [task,start,end]".to_string());
                }
                Ok(Some(RunningTask {
                    task: TaskId(num_u64(&triple[0], "running.task")? as u32),
                    start: num_f64(&triple[1], "running.start")?,
                    end: num_f64(&triple[2], "running.end")?,
                }))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let generation = get_arr(&v, "generation")?
            .iter()
            .map(|x| num_u64(x, "generation"))
            .collect::<Result<Vec<_>, _>>()?;
        let heap = get_arr(&v, "heap")?
            .iter()
            .map(|x| {
                let triple = x.as_arr().ok_or("heap: expected [time,worker,generation]")?;
                if triple.len() != 3 {
                    return Err("heap: expected [time,worker,generation]".to_string());
                }
                Ok((
                    num_f64(&triple[0], "heap.time")?,
                    num_u64(&triple[1], "heap.worker")? as u32,
                    num_u64(&triple[2], "heap.generation")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let idle = get_arr(&v, "idle")?
            .iter()
            .map(|x| num_u64(x, "idle").map(|w| w as u32))
            .collect::<Result<Vec<_>, _>>()?;
        let parse_bools = |key: &str| -> Result<Vec<bool>, String> {
            get_arr(&v, key)?
                .iter()
                .map(|x| x.as_bool().ok_or_else(|| format!("{key}: expected bool")))
                .collect()
        };
        let retries = get_arr(&v, "retries")?
            .iter()
            .map(|x| {
                let pair = x.as_arr().ok_or("retries: expected [time,task]")?;
                if pair.len() != 2 {
                    return Err("retries: expected [time,task]".to_string());
                }
                Ok((num_f64(&pair[0], "retries.time")?, num_u64(&pair[1], "retries.task")? as u32))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let rng = match get(&v, "rng")? {
            json::Value::Null => None,
            arr => {
                let words = arr.as_arr().ok_or("rng: expected null or array")?;
                if words.len() != 4 {
                    return Err("rng: expected 4 words".to_string());
                }
                let mut out = [0u64; 4];
                for (slot, w) in out.iter_mut().zip(words) {
                    *slot = parse_hex_u64(w)?;
                }
                Some(out)
            }
        };
        let ready = get_arr(&v, "ready")?
            .iter()
            .map(|x| num_u64(x, "ready").map(|t| TaskId(t as u32)))
            .collect::<Result<Vec<_>, _>>()?;
        let snap = KernelSnapshot {
            now: get_f64(&v, "now")?,
            events_seen: num_u64(get(&v, "events_seen")?, "events_seen")?,
            workers: get_usize(&v, "workers")?,
            tasks: get_usize(&v, "tasks")?,
            state,
            ran_kind,
            running,
            generation,
            heap,
            idle,
            idle_announced: parse_bools("idle_announced")?,
            alive: parse_bools("alive")?,
            will_fail: parse_bools("will_fail")?,
            failures: get_arr(&v, "failures")?
                .iter()
                .map(|x| num_u64(x, "failures").map(|f| f as u32))
                .collect::<Result<Vec<_>, _>>()?,
            timeline_pos: get_usize(&v, "timeline_pos")?,
            retries,
            rng,
            ready,
        };
        snap.validate()?;
        Ok(snap)
    }

    /// Internal-consistency check: every per-task/per-worker vector matches
    /// the declared counts, ids stay in range, and the pending events are
    /// exactly one per running worker, at a finite instant no earlier than
    /// `now`.
    pub fn validate(&self) -> Result<(), String> {
        let t = self.tasks;
        let w = self.workers;
        let check = |name: &str, len: usize, want: usize| -> Result<(), String> {
            if len != want {
                return Err(format!("snapshot {name} has {len} entries, expected {want}"));
            }
            Ok(())
        };
        check("state", self.state.len(), t)?;
        check("ran_kind", self.ran_kind.len(), t)?;
        check("failures", self.failures.len(), t)?;
        check("running", self.running.len(), w)?;
        check("generation", self.generation.len(), w)?;
        check("idle_announced", self.idle_announced.len(), w)?;
        check("alive", self.alive.len(), w)?;
        check("will_fail", self.will_fail.len(), w)?;
        let task_ok = |id: u32| (id as usize) < t;
        let worker_ok = |id: u32| (id as usize) < w;
        if let Some(r) = self.running.iter().flatten().find(|r| !task_ok(r.task.0)) {
            return Err(format!("snapshot running references unknown task {}", r.task));
        }
        if let Some(&(_, wk, _)) = self.heap.iter().find(|&&(_, wk, _)| !worker_ok(wk)) {
            return Err(format!("snapshot heap references unknown worker {wk}"));
        }
        self.validate_pending()?;
        if let Some(&wk) = self.idle.iter().find(|&&wk| !worker_ok(wk)) {
            return Err(format!("snapshot idle references unknown worker {wk}"));
        }
        if let Some(&(_, task)) = self.retries.iter().find(|&&(_, task)| !task_ok(task)) {
            return Err(format!("snapshot retries reference unknown task {task}"));
        }
        if let Some(&id) = self.ready.iter().find(|&&id| !task_ok(id.0)) {
            return Err(format!("snapshot ready order references unknown task {id}"));
        }
        for &id in &self.ready {
            if self.state[id.index()] != TaskState::Ready {
                return Err(format!("snapshot ready order lists {id}, which is not ready"));
            }
        }
        Ok(())
    }

    /// The kernel keeps one pending event per running worker and none
    /// for an idle one. A snapshot that disagrees would resume into
    /// completions the run never scheduled. Worker ids and vector lengths
    /// are checked by the caller.
    fn validate_pending(&self) -> Result<(), String> {
        let mut has_event = vec![false; self.workers];
        for &(at, wk, g) in &self.heap {
            if !at.is_finite() || at < 0.0 || at < self.now {
                return Err(format!(
                    "snapshot heap has worker {wk} finishing at {at}, before now ({}) or not finite",
                    self.now
                ));
            }
            let seen = has_event.get_mut(wk as usize).expect("worker ids checked");
            if std::mem::replace(seen, true) {
                return Err(format!("snapshot heap has two events for worker {wk}"));
            }
            if self.generation.get(wk as usize) != Some(&g) {
                return Err(format!("snapshot heap event for worker {wk} has a stale generation"));
            }
            if matches!(self.running.get(wk as usize), Some(None)) {
                return Err(format!("snapshot heap has an event for idle worker {wk}"));
            }
        }
        let orphan = self.running.iter().zip(&has_event).position(|(r, &e)| r.is_some() && !e);
        if let Some(wk) = orphan {
            return Err(format!("snapshot running worker {wk} has no pending event"));
        }
        Ok(())
    }
}

/// Rebuild the [`Schedule`] a recorded event stream encodes: the one
/// definition, used to resume from a journaled prefix and to audit a trace
/// that arrives without its schedule.
///
/// Runs are paired by [`OpenRuns`], which takes each start from its
/// `TaskStart` event, so the rebuilt intervals equal the kernel's
/// `schedule` field bit for bit. Push order is preserved: completions
/// append to `runs` in `TaskComplete` order; spoliation victims, failed
/// attempts, and runs lost to worker deaths append to `aborted` in event
/// order — the same order the live kernel pushes them.
pub fn schedule_from_events(events: &[SchedEvent]) -> Schedule {
    let mut open = OpenRuns::new();
    let mut schedule = Schedule::new();
    for run in events.iter().filter_map(|e| open.step(e)) {
        let r = TaskRun {
            task: TaskId(run.task),
            worker: WorkerId(run.worker),
            start: run.start,
            end: run.end,
        };
        match run.outcome {
            RunOutcome::Completed => schedule.runs.push(r),
            _ => schedule.aborted.push(r),
        }
    }
    schedule
}

/// A [`Journal`] wrapper that meters every append and sync through
/// `crates/metrics`: count, bytes, and latency histograms (see
/// [`metric`]). Lives in core — not trace — so the trace crate stays
/// dependency-free.
///
/// Appends, bytes and syncs are tallied locally and published on
/// [`sync`](Journal::sync), on [`into_inner`](Self::into_inner), and on a
/// failed append or sync: every exit of [`journaled`]. A wrapper dropped
/// with appends after its last sync, and no error, leaves them
/// unpublished. The append latency is sampled 1-in-
/// [`SAMPLE_EVERY`](heteroprio_metrics::SAMPLE_EVERY), so its two clock
/// reads do not tax the group-commit fast path (sub-microsecond buffered
/// appends).
pub struct MeteredJournal<'m, J: Journal, M: MetricsRegistry + ?Sized> {
    inner: J,
    m: &'m M,
    appends_id: CounterId,
    syncs_id: CounterId,
    bytes_id: CounterId,
    append_ns: HistogramId,
    sync_ns: HistogramId,
    append_sampler: SpanSampler,
    /// Appends and bytes not yet published.
    appends: u64,
    bytes: u64,
    /// The inner [`Journal::syncs`] at the last publication, so
    /// cadence-triggered group commits inside `append` are counted too,
    /// not only the syncs this wrapper initiates.
    syncs_published: u64,
}

impl<'m, J: Journal, M: MetricsRegistry + ?Sized> MeteredJournal<'m, J, M> {
    pub fn new(inner: J, m: &'m M) -> Self {
        MeteredJournal {
            inner,
            m,
            appends_id: m.counter(metric::JOURNAL_APPENDS_TOTAL),
            syncs_id: m.counter(metric::JOURNAL_SYNCS_TOTAL),
            bytes_id: m.counter(metric::JOURNAL_BYTES_TOTAL),
            append_ns: m.histogram(metric::JOURNAL_APPEND_NS),
            sync_ns: m.histogram(metric::JOURNAL_SYNC_NS),
            append_sampler: SpanSampler::default(),
            appends: 0,
            bytes: 0,
            syncs_published: 0,
        }
    }

    pub fn inner(&self) -> &J {
        &self.inner
    }

    /// The wrapped journal, after publishing the tallies.
    pub fn into_inner(mut self) -> J {
        self.publish();
        self.inner
    }

    fn publish(&mut self) {
        if !self.m.is_enabled() {
            return;
        }
        let syncs = self.inner.syncs();
        self.m.inc_by(self.appends_id, std::mem::take(&mut self.appends));
        self.m.inc_by(self.bytes_id, std::mem::take(&mut self.bytes));
        self.m.inc_by(self.syncs_id, syncs.saturating_sub(self.syncs_published));
        self.syncs_published = syncs;
    }
}

impl<J: Journal, M: MetricsRegistry + ?Sized> Journal for MeteredJournal<'_, J, M> {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        let clock = self.append_sampler.clock(self.m);
        let written = self.inner.append(event).inspect_err(|_| self.publish())?;
        if let Some(clock) = clock {
            self.m.observe(self.append_ns, clock.elapsed_ns());
        }
        if self.m.is_enabled() {
            self.appends += 1;
            self.bytes += written as u64;
        }
        Ok(written)
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let clock = Stopwatch::start();
        self.inner.sync().inspect_err(|_| self.publish())?;
        self.m.observe(self.sync_ns, clock.elapsed_ns());
        self.publish();
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        self.inner.replay()
    }

    fn syncs(&self) -> u64 {
        self.inner.syncs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_metrics::InMemoryRegistry;
    use heteroprio_trace::MemJournal;

    fn sample_snapshot() -> KernelSnapshot {
        KernelSnapshot {
            now: 3.25,
            events_seen: 17,
            workers: 3,
            tasks: 4,
            state: vec![TaskState::Done, TaskState::Running, TaskState::Ready, TaskState::Waiting],
            ran_kind: vec![Some(ClassId(1)), None, None, Some(ClassId(0))],
            running: vec![Some(RunningTask { task: TaskId(1), start: 2.5, end: 4.1 }), None, None],
            generation: vec![2, 0, 1],
            heap: vec![(4.05, 0, 2)],
            idle: vec![1, 2],
            idle_announced: vec![false, true, true],
            alive: vec![true, true, false],
            will_fail: vec![true, false, false],
            failures: vec![0, 1, 0, 2],
            timeline_pos: 1,
            retries: vec![(5.5, 3)],
            rng: Some([u64::MAX, 1, 0x0123_4567_89AB_CDEF, 42]),
            ready: vec![TaskId(2)],
        }
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let snap = sample_snapshot();
        let text = snap.to_json();
        let back = KernelSnapshot::parse(&text).expect("parse");
        assert_eq!(back, snap);
        // Awkward floats survive the text round trip bit-for-bit.
        let mut snap = snap;
        snap.now = 0.1 + 0.2;
        // A pending event may not precede `now`; a run's start may.
        snap.running[0] = Some(RunningTask { task: TaskId(1), start: f64::MIN_POSITIVE, end: 4.1 });
        assert_eq!(KernelSnapshot::parse(&snap.to_json()).expect("parse"), snap);
    }

    #[test]
    fn snapshot_validation_rejects_inconsistency() {
        let mut snap = sample_snapshot();
        snap.ready = vec![TaskId(0)]; // task 0 is Done, not Ready
        assert!(!snap.to_json().is_empty());
        let err = KernelSnapshot::parse(&snap.to_json()).unwrap_err();
        assert!(err.contains("not ready"), "{err}");
    }

    #[test]
    fn file_checkpoint_store_replaces_atomically_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("hp-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("snap.ckpt");
        let mut store = FileCheckpointStore::new(&path);
        let mut snap = sample_snapshot();
        store.save(&snap).expect("save 1");
        snap.events_seen = 99;
        store.save(&snap).expect("save 2");
        assert_eq!(store.saves, 2);
        let (loaded, damage) = FileCheckpointStore::load(&path);
        assert!(damage.is_none(), "{damage:?}");
        assert_eq!(loaded.expect("snapshot").events_seen, 99);

        // Flip a payload byte: the load reports damage and yields nothing.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let (loaded, damage) = FileCheckpointStore::load(&path);
        assert!(loaded.is_none());
        assert!(damage.expect("damage note").contains("CRC"));

        // A missing file is simply "no checkpoint yet".
        let (loaded, damage) = FileCheckpointStore::load(dir.join("absent.ckpt"));
        assert!(loaded.is_none() && damage.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_rebuild_tracks_starts_and_abort_order() {
        let events = [
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 10.0 },
            SchedEvent::TaskStart { time: 0.0, task: 1, worker: 0, expected_end: 7.0 },
            SchedEvent::TaskFailed { time: 2.0, task: 1, worker: 0, lost_work: 2.0, attempt: 1 },
            SchedEvent::Spoliation { time: 3.0, task: 0, victim: 1, thief: 2, wasted_work: 3.0 },
            SchedEvent::TaskStart { time: 3.0, task: 0, worker: 2, expected_end: 4.0 },
            SchedEvent::TaskComplete { time: 4.0, task: 0, worker: 2 },
        ];
        let schedule = schedule_from_events(&events);
        assert_eq!(
            schedule.runs,
            vec![TaskRun { task: TaskId(0), worker: WorkerId(2), start: 3.0, end: 4.0 }]
        );
        assert_eq!(
            schedule.aborted,
            vec![
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 0.0, end: 2.0 },
                TaskRun { task: TaskId(0), worker: WorkerId(1), start: 0.0, end: 3.0 },
            ]
        );
    }

    #[test]
    fn journaled_commits_on_success_and_reports_append_errors() {
        let e = SchedEvent::TaskReady { time: 0.0, task: 7 };
        let mut journal = MemJournal::new();
        let mut seen = heteroprio_trace::VecSink::new();
        journaled(&mut journal, &mut seen, |sink| sink.emit(e)).expect("commit");
        assert_eq!((journal.events(), journal.syncs()), (&[e][..], 1));
        assert_eq!(seen.events, vec![e]);
        // A resumed run re-emits the prefix already in the journal.
        journaled(&mut journal, &mut seen, |sink| (sink.emit(e), sink.emit(e))).expect("commit");
        assert_eq!((journal.events(), journal.syncs()), (&[e, e][..], 2));

        struct Broken;
        impl Journal for Broken {
            fn append(&mut self, _: &SchedEvent) -> Result<usize, JournalError> {
                Err(JournalError::Io { op: "append", detail: "disk full".into() })
            }
            fn sync(&mut self) -> Result<(), JournalError> {
                unreachable!("a failed append must not be committed")
            }
            fn len(&self) -> usize {
                0
            }
            fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
                Ok(Vec::new())
            }
        }
        let err = journaled(&mut Broken, &mut heteroprio_trace::NullSink, |sink| sink.emit(e));
        assert_eq!(err.unwrap_err().to_string(), "journal append failed: disk full");
    }

    #[test]
    fn metered_journal_counts_appends_bytes_and_syncs() {
        let registry = InMemoryRegistry::new();
        let mut journal = MeteredJournal::new(MemJournal::new(), &registry);
        let e = SchedEvent::TaskReady { time: 0.0, task: 7 };
        let written = journal.append(&e).expect("append");
        journal.append(&e).expect("append");
        journal.sync().expect("sync");
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.replay().expect("replay"), vec![e, e]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(metric::JOURNAL_APPENDS_TOTAL), Some(2));
        assert_eq!(snap.counter(metric::JOURNAL_SYNCS_TOTAL), Some(1));
        assert_eq!(snap.counter(metric::JOURNAL_BYTES_TOTAL), Some(2 * written as u64));
    }
}
