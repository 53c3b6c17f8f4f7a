//! Write-ahead journaling of [`SchedEvent`] streams.
//!
//! The kernel's event stream is a complete, deterministic record of a run:
//! replaying it (or re-executing the run and checking against it) recovers
//! every scheduling decision. This module makes that stream durable:
//!
//! * [`Journal`] — the persistence trait (append, sync, replay);
//! * [`MemJournal`] — in-memory implementation for tests and embedding;
//! * [`FileJournal`] — file-backed implementation framing each event as a
//!   `[len: u32 LE][crc32: u32 LE][payload]` record, the payload encoded
//!   straight into the write buffer behind a reserved header;
//! * [`JournalSink`] — a [`TraceSink`] adapter appending every emitted
//!   event, so any instrumented engine journals without modification.
//!
//! The file magic names the payload format. New journals are `HPJL2\n`:
//! each payload is the event's fixed-layout binary record
//! ([`encode_record`]), with floats stored as raw `f64` bits, so nothing
//! is formatted and the round trip is bit-exact by construction. Journals
//! written as `HPJL1\n` carry the event's JSONL line
//! ([`crate::jsonl::encode_into`]) instead; they still recover, and
//! reopening one keeps appending JSONL frames, so a resumed journal never
//! mixes formats. JSONL stays the export view of either format.
//!
//! A journal hit by a torn write, truncation or bit corruption never takes
//! the run's history down with it: [`FileJournal::open`] scans the file,
//! keeps the longest valid prefix of records, truncates the damage away and
//! reports it precisely as a typed [`JournalDamage`] instead of failing.
//!
//! All durable writes in the workspace must go through this module — the
//! audit lint (`raw-journal-io`) flags raw `std::fs` writes aimed at
//! journal paths elsewhere, so the CRC framing and fsync discipline cannot
//! be bypassed.

use crate::jsonl::{encode_into, parse_event_line};
use crate::{Decision, QueueEnd, SchedEvent, TraceSink};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic of the binary journal, version 2: what every new journal
/// writes.
pub const MAGIC: &[u8; 6] = b"HPJL2\n";

/// File magic of the JSONL-payload journal, version 1: still read, and
/// still appended to when such a file is reopened.
const MAGIC_V1: &[u8; 6] = b"HPJL1\n";

/// A journal file's payload format, named by its magic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    /// `HPJL1\n`: each payload is the event's JSONL line.
    Jsonl,
    /// `HPJL2\n`: each payload is the event's binary record.
    Binary,
}

impl Format {
    /// The format whose magic `bytes` start with.
    fn of(bytes: &[u8]) -> Option<Format> {
        match bytes.get(..MAGIC.len())? {
            m if m == MAGIC => Some(Format::Binary),
            m if m == MAGIC_V1 => Some(Format::Jsonl),
            _ => None,
        }
    }

    fn encode(self, event: &SchedEvent, out: &mut Vec<u8>) {
        match self {
            Format::Jsonl => encode_into(event, out),
            Format::Binary => encode_record(event, out),
        }
    }

    fn decode(self, payload: &[u8]) -> Result<SchedEvent, String> {
        match self {
            Format::Jsonl => std::str::from_utf8(payload)
                .map_err(|e| format!("not UTF-8: {e}"))
                .and_then(parse_event_line),
            Format::Binary => decode_record(payload),
        }
    }
}

/// Append `event`'s HPJL2 payload to `out`: a tag byte (the variant's
/// declaration index), `time` as raw `f64` bits, then the variant's fields
/// in declaration order. Ids are `u32` and floats raw `f64` bits, all
/// little-endian. `QueueEnd`, `Decision`, `Option` and `bool` are one byte
/// each (`Front`/`Back`, `Pick`/`Spoliate`/`Idle`, `None`/`Some`,
/// `false`/`true` as 0, 1, 2), followed by their `u32` where they carry
/// one.
pub fn encode_record(event: &SchedEvent, out: &mut Vec<u8>) {
    let w = &mut Record(out);
    match *event {
        SchedEvent::TaskReady { time, task } => w.head(0, time).id(task),
        SchedEvent::TaskStart { time, task, worker, expected_end } => {
            w.head(1, time).id(task).id(worker).num(expected_end)
        }
        SchedEvent::TaskComplete { time, task, worker } => w.head(2, time).id(task).id(worker),
        SchedEvent::Spoliation { time, task, victim, thief, wasted_work } => {
            w.head(3, time).id(task).id(victim).id(thief).num(wasted_work)
        }
        SchedEvent::WorkerIdleBegin { time, worker } => w.head(4, time).id(worker),
        SchedEvent::WorkerIdleEnd { time, worker } => w.head(5, time).id(worker),
        SchedEvent::QueuePop { time, task, worker, end } => {
            w.head(6, time).id(task).id(worker).byte(match end {
                QueueEnd::Front => 0,
                QueueEnd::Back => 1,
            })
        }
        SchedEvent::PolicyDecision { time, worker, decision } => {
            let w = w.head(7, time).id(worker);
            match decision {
                Decision::Pick(task) => w.byte(0).id(task),
                Decision::Spoliate(victim) => w.byte(1).id(victim),
                Decision::Idle => w.byte(2),
            }
        }
        SchedEvent::WorkerDown { time, worker, lost_task, permanent } => {
            let w = w.head(8, time).id(worker);
            let w = match lost_task {
                Some(task) => w.byte(1).id(task),
                None => w.byte(0),
            };
            w.byte(u8::from(permanent))
        }
        SchedEvent::WorkerUp { time, worker } => w.head(9, time).id(worker),
        SchedEvent::TaskFailed { time, task, worker, lost_work, attempt } => {
            w.head(10, time).id(task).id(worker).num(lost_work).id(attempt)
        }
        SchedEvent::TaskRetry { time, task, attempt, delay } => {
            w.head(11, time).id(task).id(attempt).num(delay)
        }
    };
}

/// Bytes of `event`'s HPJL2 payload, known from its shape without
/// encoding it.
fn record_len(event: &SchedEvent) -> usize {
    // Tag byte + `time`, then the fields.
    9 + match *event {
        SchedEvent::TaskReady { .. }
        | SchedEvent::WorkerIdleBegin { .. }
        | SchedEvent::WorkerIdleEnd { .. }
        | SchedEvent::WorkerUp { .. } => 4,
        SchedEvent::TaskComplete { .. } => 8,
        SchedEvent::QueuePop { .. } => 9,
        SchedEvent::TaskStart { .. } | SchedEvent::TaskRetry { .. } => 16,
        SchedEvent::Spoliation { .. } | SchedEvent::TaskFailed { .. } => 20,
        SchedEvent::PolicyDecision { decision: Decision::Idle, .. } => 5,
        SchedEvent::PolicyDecision { .. } => 9,
        SchedEvent::WorkerDown { lost_task: None, .. } => 6,
        SchedEvent::WorkerDown { .. } => 10,
    }
}

/// Bytes an HPJL2 [`FileJournal`] writes for `event`: header plus payload.
pub fn frame_len(event: &SchedEvent) -> usize {
    8 + record_len(event)
}

/// Decode one HPJL2 payload, the inverse of [`encode_record`]. An unknown
/// tag, a payload that is short or has bytes left over, an out-of-range
/// enum, option or bool byte, and a non-finite `time` are errors.
fn decode_record(payload: &[u8]) -> Result<SchedEvent, String> {
    let r = &mut Fields(payload);
    let tag = r.byte()?;
    let time = r.num()?;
    if !time.is_finite() {
        return Err(format!("non-finite time {time}"));
    }
    let event = match tag {
        0 => SchedEvent::TaskReady { time, task: r.id()? },
        1 => SchedEvent::TaskStart { time, task: r.id()?, worker: r.id()?, expected_end: r.num()? },
        2 => SchedEvent::TaskComplete { time, task: r.id()?, worker: r.id()? },
        3 => SchedEvent::Spoliation {
            time,
            task: r.id()?,
            victim: r.id()?,
            thief: r.id()?,
            wasted_work: r.num()?,
        },
        4 => SchedEvent::WorkerIdleBegin { time, worker: r.id()? },
        5 => SchedEvent::WorkerIdleEnd { time, worker: r.id()? },
        6 => SchedEvent::QueuePop {
            time,
            task: r.id()?,
            worker: r.id()?,
            end: match r.byte()? {
                0 => QueueEnd::Front,
                1 => QueueEnd::Back,
                b => return Err(format!("bad queue end byte {b}")),
            },
        },
        7 => SchedEvent::PolicyDecision {
            time,
            worker: r.id()?,
            decision: match r.byte()? {
                0 => Decision::Pick(r.id()?),
                1 => Decision::Spoliate(r.id()?),
                2 => Decision::Idle,
                b => return Err(format!("bad decision byte {b}")),
            },
        },
        8 => SchedEvent::WorkerDown {
            time,
            worker: r.id()?,
            lost_task: match r.byte()? {
                0 => None,
                1 => Some(r.id()?),
                b => return Err(format!("bad option byte {b}")),
            },
            permanent: match r.byte()? {
                0 => false,
                1 => true,
                b => return Err(format!("bad bool byte {b}")),
            },
        },
        9 => SchedEvent::WorkerUp { time, worker: r.id()? },
        10 => SchedEvent::TaskFailed {
            time,
            task: r.id()?,
            worker: r.id()?,
            lost_work: r.num()?,
            attempt: r.id()?,
        },
        11 => SchedEvent::TaskRetry { time, task: r.id()?, attempt: r.id()?, delay: r.num()? },
        tag => return Err(format!("unknown record tag {tag}")),
    };
    match r.0.len() {
        0 => Ok(event),
        n => Err(format!("{n} bytes after the record")),
    }
}

/// An HPJL2 payload being appended to a byte buffer, field by field.
struct Record<'a>(&'a mut Vec<u8>);

impl Record<'_> {
    fn head(&mut self, tag: u8, time: f64) -> &mut Self {
        self.byte(tag).num(time)
    }

    fn byte(&mut self, b: u8) -> &mut Self {
        self.0.push(b);
        self
    }

    fn id(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn num(&mut self, x: f64) -> &mut Self {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }
}

/// The unread rest of an HPJL2 payload.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (field, rest) = self.0.split_first_chunk::<N>().ok_or("payload ends mid-record")?;
        self.0 = rest;
        Ok(*field)
    }

    fn byte(&mut self) -> Result<u8, String> {
        self.take().map(u8::from_le_bytes)
    }

    fn id(&mut self) -> Result<u32, String> {
        self.take().map(u32::from_le_bytes)
    }

    fn num(&mut self) -> Result<f64, String> {
        self.take().map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }
}

/// Upper bound on a single record's payload. HPJL2 records are at most
/// 29 bytes and HPJL1 lines ~100; anything claiming more is a corrupt
/// length field, not a record.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        let lo = (word as u32) ^ c;
        let hi = (word >> 32) as u32;
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// An unrecoverable journal failure (I/O error, unreadable header).
/// Recoverable damage inside the record stream is reported as
/// [`JournalDamage`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying storage failed.
    Io { op: &'static str, detail: String },
    /// The file exists but is not a journal (bad or missing magic).
    BadHeader { detail: String },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, detail } => write!(f, "journal {op} failed: {detail}"),
            JournalError::BadHeader { detail } => write!(f, "not a journal: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<JournalError> for String {
    fn from(e: JournalError) -> String {
        e.to_string()
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> JournalError {
    move |e| JournalError::Io { op, detail: e.to_string() }
}

/// What kind of damage cut the record stream short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DamageKind {
    /// The file ends mid-record: a torn write or truncation.
    TornWrite,
    /// A length field claims an implausible record size (corrupt framing).
    BadLength,
    /// A record's payload does not match its CRC-32 (bit corruption).
    BadChecksum,
    /// The CRC matched but the payload does not decode to an event.
    BadPayload,
}

/// Precise report of journal damage found during recovery. Everything
/// before [`valid_records`](JournalDamage::valid_records) is intact and was
/// kept; everything from [`offset`](JournalDamage::offset) on was
/// unrecoverable.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalDamage {
    pub kind: DamageKind,
    /// Records successfully decoded before the damage (all preserved).
    pub valid_records: usize,
    /// Byte offset of the first damaged record.
    pub offset: u64,
    /// Bytes from `offset` to the end of the file, dropped by recovery.
    pub lost_bytes: u64,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for JournalDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} at byte {}: {} ({} valid records kept, {} bytes dropped)",
            self.kind, self.offset, self.detail, self.valid_records, self.lost_bytes
        )
    }
}

/// How often a [`FileJournal`] commits appended records to stable storage.
///
/// Appends are group-committed: records accumulate in an in-process
/// buffer and reach the file in one write (plus one fsync) per cadence
/// window — the textbook trade of bounded loss for throughput. The
/// cadence bounds what a killed process or failed machine can lose;
/// an orderly shutdown loses nothing ([`Journal::sync`] and `Drop` both
/// flush the buffer, and `Drop` of an unsynced journal also writes it
/// out). Recovery tolerates any prefix, so a lost window never corrupts
/// what was committed before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync explicitly; rely on the OS writeback.
    Never,
    /// fsync after every record. Maximum durability, maximum latency.
    EveryRecord,
    /// fsync once every `n` records (and on [`Journal::sync`]).
    EveryN(u64),
}

impl SyncPolicy {
    /// The default cadence: every 4096 records (roughly 105 KiB of HPJL2).
    ///
    /// The window can afford to be wide because the journaled run is
    /// deterministic and recomputable: an OS or power crash inside the
    /// window costs re-executing at most 4096 events from the last
    /// committed prefix — microseconds of kernel time — not data. A
    /// process crash loses even less (the OS still writes back whatever
    /// was flushed to the page cache). A tight cadence would buy
    /// thousands of fsyncs per second at kernel event rates and protect
    /// nothing that replay does not already recover.
    pub const DEFAULT: SyncPolicy = SyncPolicy::EveryN(4096);
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::DEFAULT
    }
}

/// Append-only persistence for an event stream.
///
/// `append` returns the number of bytes the record occupied, so callers
/// can meter write volume without knowing the framing.
pub trait Journal {
    /// Durably order `event` after everything appended so far.
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError>;

    /// Force everything appended so far to stable storage.
    fn sync(&mut self) -> Result<(), JournalError>;

    /// Number of records in the journal (recovered + appended).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read back every record currently in the journal, in append order.
    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError>;

    /// Stable-storage syncs performed so far, explicit *and*
    /// cadence-triggered — so metering layers wrapping a journal can
    /// observe group commits they did not initiate themselves.
    fn syncs(&self) -> u64 {
        0
    }
}

/// In-memory journal: the persistence trait without the persistence. Used
/// by tests and by crash-injection harnesses that only need the journal's
/// *contents*, not a file.
#[derive(Clone, Debug, Default)]
pub struct MemJournal {
    events: Vec<SchedEvent>,
    synced: usize,
    sync_calls: u64,
}

impl MemJournal {
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// The journaled events, in order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Records covered by the last [`Journal::sync`] (for harnesses
    /// asserting fsync discipline).
    pub fn synced(&self) -> usize {
        self.synced
    }
}

impl Journal for MemJournal {
    /// Reports the frame a new [`FileJournal`] would write.
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        self.events.push(*event);
        Ok(frame_len(event))
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.synced = self.events.len();
        self.sync_calls += 1;
        Ok(())
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        Ok(self.events.clone())
    }

    fn syncs(&self) -> u64 {
        self.sync_calls
    }
}

/// Decode the record stream of a journal file body (after the magic),
/// each payload in `format`. Returns the events of the longest valid
/// prefix, the byte offset where that prefix ends, and the damage that
/// stopped the scan, if any.
fn decode_records(
    body: &[u8],
    body_start: u64,
    format: Format,
) -> (Vec<SchedEvent>, u64, Option<JournalDamage>) {
    let mut events = Vec::new();
    let mut pos = 0usize;
    let damage = loop {
        if pos == body.len() {
            break None;
        }
        let at = body_start + pos as u64;
        let fail = |kind, detail: String| JournalDamage {
            kind,
            valid_records: events.len(),
            offset: at,
            lost_bytes: (body.len() - pos) as u64,
            detail,
        };
        if body.len() - pos < 8 {
            break Some(fail(
                DamageKind::TornWrite,
                format!("{} trailing bytes, record header needs 8", body.len() - pos),
            ));
        }
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(body[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            break Some(fail(
                DamageKind::BadLength,
                format!("record claims {len} payload bytes (max {MAX_PAYLOAD})"),
            ));
        }
        let len = len as usize;
        if body.len() - pos - 8 < len {
            break Some(fail(
                DamageKind::TornWrite,
                format!("record needs {len} payload bytes, {} remain", body.len() - pos - 8),
            ));
        }
        let payload = &body[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break Some(fail(DamageKind::BadChecksum, "payload CRC-32 mismatch".to_string()));
        }
        match format.decode(payload) {
            Ok(e) => events.push(e),
            Err(e) => break Some(fail(DamageKind::BadPayload, e)),
        }
        pos += 8 + len;
    };
    (events, body_start + pos as u64, damage)
}

/// Frames not yet handed to the OS are flushed once they exceed this, so
/// the group-commit buffer stays bounded even under [`SyncPolicy::Never`].
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// File-backed journal with group commit: appends frame into an in-process
/// buffer; one write (and, per [`SyncPolicy`], one fsync) commits a whole
/// cadence window. See the module docs for the record framing.
#[derive(Debug)]
pub struct FileJournal {
    file: std::fs::File,
    path: PathBuf,
    records: usize,
    since_sync: u64,
    policy: SyncPolicy,
    /// Framed records not yet written to `file`.
    buf: Vec<u8>,
    sync_count: u64,
    /// The payload format of the file: HPJL2 unless an HPJL1 file was
    /// reopened.
    format: Format,
}

impl FileJournal {
    /// Create (or truncate) an HPJL2 journal at `path`, writing the magic
    /// header.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path).map_err(io_err("create"))?;
        file.write_all(MAGIC).map_err(io_err("write header"))?;
        Ok(FileJournal {
            file,
            path,
            records: 0,
            since_sync: 0,
            policy: SyncPolicy::DEFAULT,
            buf: Vec::new(),
            sync_count: 0,
            format: Format::Binary,
        })
    }

    /// Set the fsync cadence (builder style).
    pub fn with_sync(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Open an existing journal for appending, recovering its contents.
    ///
    /// Scans every record, keeps the longest valid prefix, **truncates the
    /// file** to that prefix if anything after it is damaged, and returns
    /// the recovered events plus the damage report (if any). The returned
    /// journal appends after the last valid record, in the file's own
    /// format.
    pub fn open<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Self, Vec<SchedEvent>, Option<JournalDamage>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            std::fs::File::options().read(true).write(true).open(&path).map_err(io_err("open"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read"))?;
        let (format, events, valid_end, damage) = Self::decode(&bytes)?;
        if damage.is_some() {
            file.set_len(valid_end).map_err(io_err("truncate damage"))?;
            file.sync_all().map_err(io_err("sync truncation"))?;
        }
        file.seek(SeekFrom::Start(valid_end)).map_err(io_err("seek"))?;
        let records = events.len();
        Ok((
            FileJournal {
                file,
                path,
                records,
                since_sync: 0,
                policy: SyncPolicy::DEFAULT,
                buf: Vec::new(),
                sync_count: 0,
                format,
            },
            events,
            damage,
        ))
    }

    /// Read-only recovery: decode `path` without modifying the file.
    pub fn recover<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Vec<SchedEvent>, Option<JournalDamage>), JournalError> {
        let bytes = std::fs::read(path).map_err(io_err("read"))?;
        let (_, events, _, damage) = Self::decode(&bytes)?;
        Ok((events, damage))
    }

    /// Pick the payload decoder by magic, then decode the records.
    fn decode(
        bytes: &[u8],
    ) -> Result<(Format, Vec<SchedEvent>, u64, Option<JournalDamage>), JournalError> {
        let format = Format::of(bytes).ok_or_else(|| JournalError::BadHeader {
            detail: format!(
                "expected {:?} or {:?} magic, found {:?}",
                MAGIC,
                MAGIC_V1,
                &bytes[..bytes.len().min(MAGIC.len())]
            ),
        })?;
        let (events, valid_end, damage) =
            decode_records(&bytes[MAGIC.len()..], MAGIC.len() as u64, format);
        Ok((format, events, valid_end, damage))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Hand buffered frames to the OS (one write, no fsync).
    fn flush_buf(&mut self) -> Result<(), JournalError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf).map_err(io_err("append"))?;
            self.buf.clear();
        }
        Ok(())
    }
}

impl Drop for FileJournal {
    /// Best-effort: an orderly shutdown (including panics that unwind)
    /// writes out the buffered tail, so only a killed process or failed
    /// machine can lose the unsynced window.
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

impl Journal for FileJournal {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        // Frame in place: reserve the header, encode the payload after it,
        // then patch in its length and CRC. No per-event allocation once
        // the buffer has grown to its flush threshold.
        let header = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        self.format.encode(event, &mut self.buf);
        let payload = &self.buf[header + 8..];
        let len = payload.len();
        let crc = crc32(payload);
        self.buf[header..header + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
        self.since_sync += 1;
        let due = match self.policy {
            SyncPolicy::Never => false,
            SyncPolicy::EveryRecord => true,
            SyncPolicy::EveryN(n) => self.since_sync >= n.max(1),
        };
        if due {
            self.sync()?;
        } else if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_buf()?;
        }
        Ok(8 + len)
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.flush_buf()?;
        if self.since_sync > 0 {
            self.file.sync_data().map_err(io_err("sync"))?;
            self.since_sync = 0;
            self.sync_count = self.sync_count.checked_add(1).expect("u64 sync tally");
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.records
    }

    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        self.flush_buf()?;
        let (events, _damage) = Self::recover(&self.path)?;
        Ok(events)
    }

    fn syncs(&self) -> u64 {
        self.sync_count
    }
}

/// Adapts a [`Journal`] into a [`TraceSink`], so any engine that emits a
/// trace journals for free (typically behind a
/// [`TeeSink`](crate::TeeSink)).
///
/// [`TraceSink::emit`] cannot fail, so the first append error is latched
/// and appending stops; callers check [`JournalSink::error`] after the run.
/// On resume, [`JournalSink::resuming`] skips the first `skip` events — the
/// prefix already present in the journal — and appends only the
/// continuation.
pub struct JournalSink<'j, J: Journal + ?Sized> {
    journal: &'j mut J,
    skip: usize,
    seen: usize,
    error: Option<JournalError>,
}

impl<'j, J: Journal + ?Sized> JournalSink<'j, J> {
    pub fn new(journal: &'j mut J) -> Self {
        JournalSink { journal, skip: 0, seen: 0, error: None }
    }

    /// A sink for resumed runs: the first `skip` emitted events are already
    /// in the journal (verified replay of the recovered prefix) and must
    /// not be appended again.
    pub fn resuming(journal: &'j mut J, skip: usize) -> Self {
        JournalSink { journal, skip, seen: 0, error: None }
    }

    /// The first append failure, if any. A run whose sink reports an error
    /// completed in memory but is not durably recorded past that point.
    pub fn error(&self) -> Option<&JournalError> {
        self.error.as_ref()
    }

    /// Events offered to the sink (including skipped prefix events).
    pub fn seen(&self) -> usize {
        self.seen
    }
}

impl<J: Journal + ?Sized> TraceSink for JournalSink<'_, J> {
    fn emit(&mut self, event: SchedEvent) {
        self.seen = self.seen.checked_add(1).expect("event tally fits in usize");
        if self.seen <= self.skip || self.error.is_some() {
            return;
        }
        if let Err(e) = self.journal.append(&event) {
            self.error = Some(e);
        }
    }

    fn is_enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::every_shape;

    fn sample_events() -> Vec<SchedEvent> {
        vec![
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 2.5 },
            SchedEvent::WorkerIdleBegin { time: 0.0, worker: 0 },
            SchedEvent::TaskComplete { time: 2.5, task: 0, worker: 1 },
            SchedEvent::WorkerIdleBegin { time: 2.5, worker: 1 },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hpj_test_{}_{name}.hpj", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Reference CRC: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_crc() {
        // xorshift64: a fixed, dependency-free byte source.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bytes: Vec<u8> = (0..72).map(|_| next() as u8).collect();
        // Every length 0..=64 at every alignment 0..8: covers empty input,
        // pure remainders, whole words and every word/remainder split.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        for round in 0..64 {
            let len = (next() % 4096) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "random buffer {round} of {len} bytes");
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn mem_journal_round_trips() {
        let mut j = MemJournal::new();
        for e in sample_events() {
            assert!(j.append(&e).unwrap() > 8);
        }
        assert_eq!(j.len(), 5);
        assert_eq!(j.synced(), 0);
        j.sync().unwrap();
        assert_eq!(j.synced(), 5);
        assert_eq!(j.replay().unwrap(), sample_events());
    }

    #[test]
    fn file_journal_round_trips_through_reopen() {
        let path = tmp("roundtrip");
        let events = sample_events();
        {
            let mut j = FileJournal::create(&path).unwrap().with_sync(SyncPolicy::EveryRecord);
            let mut mem = MemJournal::new();
            for e in &events {
                // Both journals report the framed size of the same record.
                assert_eq!(j.append(e).unwrap(), mem.append(e).unwrap());
            }
            assert_eq!(j.replay().unwrap(), events);
        }
        let (mut j, recovered, damage) = FileJournal::open(&path).unwrap();
        assert_eq!(recovered, events);
        assert!(damage.is_none());
        // Appending after reopen extends the same stream.
        j.append(&events[0]).unwrap();
        j.sync().unwrap();
        let (replayed, damage) = FileJournal::recover(&path).unwrap();
        assert_eq!(replayed.len(), events.len() + 1);
        assert!(damage.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_reported_and_healed() {
        let path = tmp("torn");
        let events = sample_events();
        {
            let mut j = FileJournal::create(&path).unwrap();
            for e in &events {
                j.append(e).unwrap();
            }
            j.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the final record: a torn write.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (j, recovered, damage) = FileJournal::open(&path).unwrap();
        drop(j);
        assert_eq!(recovered, events[..events.len() - 1].to_vec());
        let damage = damage.expect("torn write must be reported");
        assert_eq!(damage.kind, DamageKind::TornWrite);
        assert_eq!(damage.valid_records, events.len() - 1);
        // open() healed the file: a second open is clean.
        let (_, again, damage) = FileJournal::open(&path).unwrap();
        assert_eq!(again, recovered);
        assert!(damage.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let path = tmp("flip");
        let events = sample_events();
        {
            let mut j = FileJournal::create(&path).unwrap();
            for e in &events {
                j.append(e).unwrap();
            }
            j.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit in the second record's body.
        let target = bytes.len() / 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, damage) = FileJournal::recover(&path).unwrap();
        let damage = damage.expect("bit flip must be reported");
        assert!(
            matches!(
                damage.kind,
                DamageKind::BadChecksum
                    | DamageKind::BadLength
                    | DamageKind::TornWrite
                    | DamageKind::BadPayload
            ),
            "{damage:?}"
        );
        // The valid prefix is intact.
        assert_eq!(recovered, events[..recovered.len()].to_vec());
        std::fs::remove_file(&path).ok();
    }

    /// Every shape over the `every_shape` grid: finite times, and ±inf and
    /// NaN in the other float fields.
    fn codec_grid() -> Vec<SchedEvent> {
        let times = [0.0, -0.0, 5e-324, 0.1 + 0.2, 1e300];
        let extra = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut grid = Vec::new();
        for time in times {
            for x in times.iter().chain(&extra) {
                for id in [0, u32::MAX] {
                    grid.extend(every_shape(time, *x, id));
                }
            }
        }
        grid
    }

    fn record(e: &SchedEvent) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(e, &mut out);
        out
    }

    #[test]
    fn hpjl2_round_trips_every_shape_bit_exactly() {
        for e in codec_grid() {
            let bytes = record(&e);
            assert_eq!(bytes.len(), record_len(&e), "{e:?}");
            let back = decode_record(&bytes).unwrap_or_else(|err| panic!("{e:?}: {err}"));
            // Re-encoding compares every float bit, NaN payloads and the
            // sign of zero included; `==` cannot see those.
            assert_eq!(record(&back), bytes, "{e:?}");
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&e));
        }
    }

    #[test]
    fn hpjl2_layout_is_the_documented_one() {
        let e =
            SchedEvent::TaskStart { time: 2.0, task: 3, worker: 0x0102_0304, expected_end: -1.0 };
        let want: Vec<u8> = [
            &[1][..],
            &2.0f64.to_bits().to_le_bytes(),
            &[3, 0, 0, 0],
            &[4, 3, 2, 1],
            &(-1.0f64).to_bits().to_le_bytes(),
        ]
        .concat();
        assert_eq!(record(&e), want);
        let e =
            SchedEvent::WorkerDown { time: 0.5, worker: 9, lost_task: Some(7), permanent: true };
        let want: Vec<u8> =
            [&[8][..], &0.5f64.to_bits().to_le_bytes(), &[9, 0, 0, 0], &[1, 7, 0, 0, 0], &[1]]
                .concat();
        assert_eq!(record(&e), want);
        let e = SchedEvent::PolicyDecision { time: 0.0, worker: 2, decision: Decision::Idle };
        assert_eq!(record(&e), [&[7][..], &[0; 8], &[2, 0, 0, 0], &[2]].concat());
    }

    /// Frame `payload` with a correct length and CRC after an HPJL2 magic.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    #[test]
    fn malformed_hpjl2_payloads_are_bad_payload_damage() {
        let time = 1.5f64.to_bits().to_le_bytes();
        let head = |tag: u8| [&[tag][..], &time].concat();
        let mut bad: Vec<Vec<u8>> = vec![
            Vec::new(),
            head(12),
            head(255),
            [&head(6)[..], &[0; 8], &[2]].concat(),
            [&head(7)[..], &[0; 4], &[3]].concat(),
            [&head(8)[..], &[0; 4], &[2, 0]].concat(),
            [&head(8)[..], &[0; 4], &[0, 2]].concat(),
        ];
        for t in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            bad.push(record(&SchedEvent::TaskReady { time: t, task: 0 }));
        }
        for e in every_shape(2.5, 0.5, 7) {
            let full = record(&e);
            // Every short prefix, and one byte too many.
            bad.extend((0..full.len()).map(|n| full[..n].to_vec()));
            bad.push([&full[..], &[0]].concat());
        }
        for payload in bad {
            assert!(decode_record(&payload).is_err(), "{payload:?} decoded");
            let file = framed(&payload);
            let format = Format::of(&file).expect("HPJL2 magic");
            let (events, end, damage) = decode_records(&file[6..], 6, format);
            let damage = damage.expect("a bad payload is damage");
            assert_eq!(damage.kind, DamageKind::BadPayload, "{payload:?}: {damage}");
            assert_eq!((events.len(), end, damage.offset), (0, 6, 6));
        }
    }

    #[test]
    fn non_journal_file_is_a_header_error() {
        let path = tmp("hdr");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(FileJournal::open(&path), Err(JournalError::BadHeader { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_sink_skips_the_resumed_prefix() {
        let events = sample_events();
        let mut j = MemJournal::new();
        for e in &events[..2] {
            j.append(e).unwrap();
        }
        {
            let mut sink = JournalSink::resuming(&mut j, 2);
            for e in &events {
                sink.emit(*e);
            }
            assert!(sink.error().is_none());
            assert_eq!(sink.seen(), events.len());
        }
        assert_eq!(j.events(), &events[..]);
    }
}
