//! Write-ahead, content-addressed result journal — the durability
//! layer under `runner::try_sweep_journaled` and the `piton-serve`
//! result cache.
//!
//! The paper's characterization campaign is days of measurement across
//! thousands of grid points; a killed process used to throw away every
//! completed point. A [`Journal`] makes sweep results durable: every
//! completed grid point is appended to its file as a self-checksummed
//! record *before* the run proceeds, so a crashed run relaunched with
//! `--resume` serves completed points from disk and recomputes only the
//! missing ones. Because every sweep is already byte-deterministic at
//! any `--jobs` level, a resumed run's output is **byte-identical** to
//! an uninterrupted one.
//!
//! A journal belongs to whoever opened it (`reproduce`, a test, the
//! serve cache) and is lent to sweeps as `Option<&Mutex<Journal>>`.
//!
//! # File formats
//!
//! Every line is framed as `<16 lowercase hex digits> <text>\n`, the
//! digits being an FNV-1a-64 checksum; no text holds a newline. The
//! first line is a header naming the file's schema and context.
//!
//! **`piton-journal/v1`**, the write-ahead form: every later line is a
//! record, and each line's checksum covers its JSON text.
//!
//! ```text
//! f33c08cbdbd51271 {"schema":"piton-journal/v1","context":"<context spec>"}
//! 68b329da9893e340 {"key":1234,"section":"epi","index":0,"payload":{...}}
//! ...
//! ```
//!
//! **`piton-snapshot/v1`**, the compacted form [`Journal::compact`]
//! writes: every point once, in (section, index) order, sections sorted
//! by their bytes. A *run* line `{"section":S,"first":I}` (checksummed
//! like a record) names the section and index of the point line after
//! it; each further point line takes the next index, and a gap in the
//! indices starts a new run. A point line's text is its payload's JSON,
//! and its checksum is the FNV-1a-64 of `context 0x1f section 0x1f
//! decimal(index) 0x1f payload`, so each point is bound to its context,
//! section and index without spelling them out. Points recorded after
//! compaction follow as ordinary `piton-journal/v1` record lines: the
//! write-ahead record stays the only append path.
//!
//! ```text
//! 0b4e51f5d2a1c7e6 {"schema":"piton-snapshot/v1","context":"<context spec>"}
//! 9a71c3d0e25b8f44 {"section":"design_space","first":0}
//! 52c8e0a1f7b39d16 {"power_w":1.9,...}
//! 1f0d9be2c4a87e35 {"power_w":1.9,...}
//! 68b329da9893e340 {"key":1234,"section":"noc","index":7,"payload":2.5}
//! ```
//!
//! A reader that knows only `piton-journal/v1` meets an unknown schema
//! in the header and restarts the file; it never serves from it.
//!
//! The header pins the *context* — experiment fidelity, fault-plan
//! effects, backend, code version and, for analytic runs, the model's
//! law digest — and every record's `key` is the
//! 64-bit content hash of (section, index, context), so a journal can
//! never leak results into a run configured differently. `--jobs` is
//! deliberately **not** part of the context: results are
//! jobs-invariant, so a journal written at `--jobs 4` serves a
//! `--jobs 1` resume.
//!
//! # Torn-write recovery
//!
//! Recovery trusts exactly the longest valid prefix of lines: the first
//! line that fails its checksum, lacks its trailing newline or is not
//! laid out as this module writes it marks the torn tail, which is
//! truncated off (and counted in [`JournalStats::torn`]) — torn points
//! are *recomputed, never trusted*. Every point of a compacted file has
//! a line and a checksum of its own, so a tear or a flipped bit there
//! costs exactly the points from the damaged one on, as in a record
//! tail. Appends are batched and fsync'd at sweep boundaries, plus
//! immediately before an injected `crash=` abort so the crashed point
//! itself survives. Compaction writes a temporary file beside the
//! journal, fsyncs it, renames it over the journal and fsyncs the
//! directory, so a killed process leaves the old file or the new one,
//! never a mix.
//!
//! Only the header line is parsed whole. A record line's key digits,
//! section token and index digits are read off the fixed layout
//! `{"key":K,"section":S,"index":I,"payload":P}`; the key must equal
//! [`point_key`] of that section and index; the line must start with
//! exactly the head `record` would write for them, so non-canonical
//! digits or escapes are foreign; and `P` must pass [`json::parse`] —
//! the one JSON grammar, with no second validator. A run line is read
//! the same way and must be exactly the one compaction writes. A
//! compacted point is trusted on its checksum: compaction only writes
//! text that passed those checks or came from [`Journal::record`].
//!
//! # In memory
//!
//! Every section's payload texts, recovered or recorded, lie back to
//! back in one arena, with a dense index → span table beside it; a
//! lookup hands out a slice of the arena. A table covers indices below
//! 2^24 and 4 GiB of text: [`Journal::record`] refuses a point beyond
//! that, and recovery treats a line that holds one as damaged.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use piton_arch::config::Backend;
use piton_arch::error::PitonError;
use piton_arch::units::Watts;
use piton_board::fault::FaultPlan;
use piton_obs::json::{self, ObjectBuilder, Value};
use piton_obs::manifest::JournalStats;

use crate::measure::WithError;

/// The schema identifier in a write-ahead journal's header.
pub const JOURNAL_SCHEMA: &str = "piton-journal/v1";

/// The schema identifier in a compacted journal's header.
pub const SNAPSHOT_SCHEMA: &str = "piton-snapshot/v1";

/// A section's dense index table covers the indices below this: far
/// above any grid (`design_space` has 105 000 points), yet small enough
/// that a damaged index can never make recovery allocate without bound.
const MAX_POINTS: usize = 1 << 24;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a 64-bit hash over `bytes`.
fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continues an FNV-1a 64-bit hash over `bytes` up to their first
/// newline: the hash and the number of bytes before the newline, or
/// `None` when there is none.
fn fnv64_line(mut h: u64, bytes: &[u8]) -> Option<(u64, usize)> {
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            return Some((h, i));
        }
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    None
}

/// FNV-1a 64-bit hash — the checksum framing every journal line and
/// the content hash behind every record key.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// The run context spec shared by `reproduce --journal` and the
/// `piton-serve` result cache: everything a served result must agree
/// on — code version, fidelity, the result-affecting fault effects and
/// the experiment backend. `--jobs` is deliberately excluded (results
/// are jobs-invariant), as are crash points (they decide when the
/// process dies, never what it computes). The backend is included
/// unconditionally: a cycle journal must never be served to an
/// analytic run or vice versa. A backend that runs the analytic model
/// also records the model's law digest, so a change of a coefficient or
/// of the summation order never serves results of the old law.
#[must_use]
pub fn run_context(fidelity: &str, plan: Option<&FaultPlan>, backend: Backend) -> String {
    let mut context = format!(
        "piton/{}|fidelity={fidelity}|effects={}|backend={}",
        env!("CARGO_PKG_VERSION"),
        plan.and_then(FaultPlan::render_effects)
            .unwrap_or_else(|| "none".to_owned()),
        backend.label()
    );
    if backend.runs_analytic() {
        let digest = crate::analytic::AnalyticModel::reference().digest();
        let _ = write!(context, "|model={digest:016x}");
    }
    context
}

/// Writes `n` in decimal into the tail of `buf` (`u64::MAX` has 20
/// digits) and returns the digits.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII")
}

/// The content-addressed key of one grid point under one context: the
/// FNV-1a-64 of `section 0x1f decimal(index) 0x1f context`.
#[must_use]
pub fn point_key(context: &str, section: &str, index: usize) -> u64 {
    let mut digits = [0u8; 20];
    let h = fnv64_extend(FNV_OFFSET, section.as_bytes());
    let h = fnv64_extend(h, &[0x1f]);
    let h = fnv64_extend(h, decimal(index as u64, &mut digits).as_bytes());
    let h = fnv64_extend(h, &[0x1f]);
    fnv64_extend(h, context.as_bytes())
}

/// A sweep result that can ride in a journal record. Implementations
/// must round-trip *exactly* (the JSON writer renders `f64` in
/// shortest-round-trip form, so bit-exactness holds for finite values
/// and the tagged string forms cover the rest).
pub trait JournalPayload: Sized {
    /// Encodes the payload as a JSON value.
    fn to_value(&self) -> Value;
    /// Decodes a payload encoded by [`JournalPayload::to_value`].
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the value has the wrong shape.
    fn from_value(v: &Value) -> Result<Self, PitonError>;
}

fn f64_to_value(v: f64) -> Value {
    // `Value::Float` renders NaN/inf as tagged strings already; keep
    // the payload total by accepting them back below.
    Value::Float(v)
}

fn f64_from_value(v: &Value) -> Result<f64, PitonError> {
    match v {
        Value::Float(f) => Ok(*f),
        #[allow(clippy::cast_precision_loss)]
        Value::Int(i) => Ok(*i as f64),
        Value::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            _ => Err(PitonError::codec(format!("non-numeric payload {s:?}"))),
        },
        other => Err(PitonError::codec(format!(
            "expected a number payload, got {other:?}"
        ))),
    }
}

impl JournalPayload for f64 {
    fn to_value(&self) -> Value {
        f64_to_value(*self)
    }

    fn from_value(v: &Value) -> Result<Self, PitonError> {
        f64_from_value(v)
    }
}

impl JournalPayload for Watts {
    fn to_value(&self) -> Value {
        f64_to_value(self.0)
    }

    fn from_value(v: &Value) -> Result<Self, PitonError> {
        f64_from_value(v).map(Watts)
    }
}

impl JournalPayload for WithError {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("v", f64_to_value(self.value))
            .field("e", f64_to_value(self.error))
            .build()
    }

    fn from_value(v: &Value) -> Result<Self, PitonError> {
        Ok(WithError {
            value: f64_from_value(
                v.get("v")
                    .ok_or_else(|| PitonError::codec("payload missing 'v'"))?,
            )?,
            error: f64_from_value(
                v.get("e")
                    .ok_or_else(|| PitonError::codec("payload missing 'e'"))?,
            )?,
        })
    }
}

/// The 16 lowercase hex digits of `sum`, most significant first.
fn hex_digits(sum: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut hex = [0u8; 16];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = HEX[(sum >> (60 - 4 * i) & 0xf) as usize];
    }
    hex
}

/// Reads a checksum spelled exactly as [`hex_digits`] spells it: 16
/// lowercase hex digits. Any other spelling — upper case, a sign — is
/// refused, so a flipped bit that only changes a letter's case still
/// loses its line.
fn read_hex(digits: &[u8]) -> Option<u64> {
    if digits.len() != 16 {
        return None;
    }
    digits.iter().try_fold(0u64, |sum, &d| {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(sum << 4 | u64::from(nibble))
    })
}

/// Appends one checksummed line, `<16-hex FNV-1a-64> <json>\n`, whose
/// JSON text `write_json` appends in place — the framing shared by
/// journal records and `piton-serve` response frames.
pub fn push_frame_line(out: &mut String, write_json: impl FnOnce(&mut String)) {
    let start = out.len();
    out.push_str("0000000000000000 ");
    write_json(out);
    let sum = fnv64(&out.as_bytes()[start + 17..]);
    out.replace_range(
        start..start + 16,
        std::str::from_utf8(&hex_digits(sum)).expect("hex digits are ASCII"),
    );
    out.push('\n');
}

/// Splits a line into its checksum and text, unverified. `None` when
/// it is not framed: no separator, or a checksum not spelled as
/// [`push_frame_line`] writes it.
fn split_frame(line: &[u8]) -> Option<(u64, &[u8])> {
    if line.len() < 18 || line[16] != b' ' {
        return None;
    }
    Some((read_hex(&line[..16])?, &line[17..]))
}

/// Splits a framed line into its verified JSON text. `None` for any
/// framing violation: missing separator, a checksum that is not 16
/// lowercase hex digits, mismatch.
#[must_use]
pub fn unframe_line(line: &[u8]) -> Option<&str> {
    let (sum, json) = split_frame(line)?;
    if fnv64(json) != sum {
        return None;
    }
    std::str::from_utf8(json).ok()
}

/// A header line's JSON: the schema and the context it pins.
fn header_json(schema: &str, context: &str) -> String {
    ObjectBuilder::new()
        .field("schema", Value::Str(schema.to_owned()))
        .field("context", Value::Str(context.to_owned()))
        .build()
        .render()
}

/// Reads a run of decimal digits off the front of `s`: the number and
/// the rest of `s`.
fn leading_digits(s: &str) -> Option<(u64, &str)> {
    let n = s.bytes().take_while(u8::is_ascii_digit).count();
    Some((s[..n].parse().ok()?, &s[n..]))
}

/// Reads the JSON string token at the front of `s` by its layout: it
/// ends at the first `"` that no `\` escapes, and only a token with
/// escapes needs the JSON reader to decode it. Returns the string and
/// the rest of `s`.
fn string_token(s: &str) -> Option<(Cow<'_, str>, &str)> {
    let body = s.strip_prefix('"')?.as_bytes();
    let mut end = 0;
    let mut escaped = false;
    loop {
        match *body.get(end)? {
            b'"' => break,
            b'\\' => {
                escaped = true;
                end += 2;
            }
            _ => end += 1,
        }
    }
    let (token, rest) = s.split_at(end + 2);
    let text = if escaped {
        match json::parse(token).ok()? {
            Value::Str(s) => Cow::Owned(s),
            _ => return None,
        }
    } else {
        Cow::Borrowed(&token[1..=end])
    };
    Some((text, rest))
}

/// A record line's JSON up to its payload text:
/// `{"key":K,"section":S,"index":I,"payload":`. [`Journal::record`]
/// writes it and recovery checks it, so a record's payload text is
/// exactly what lies between this head and the closing `}`.
fn write_record_head(out: &mut String, key: u64, section: &str, index: usize) {
    let mut digits = [0u8; 20];
    out.push_str("{\"key\":");
    out.push_str(decimal(key, &mut digits));
    out.push_str(",\"section\":");
    json::write_escaped(out, section);
    out.push_str(",\"index\":");
    out.push_str(decimal(index as u64, &mut digits));
    out.push_str(",\"payload\":");
}

/// Reads the key, section and index off a record line's JSON by the
/// layout [`write_record_head`] writes, without building values: the
/// key's digits, the section's string token, the index's digits. `None`
/// when the line does not start that way. The caller still holds the
/// line against the canonical head, so non-canonical digits or escapes
/// that read back to the same fields are caught there.
fn record_fields(json: &str) -> Option<(u64, Cow<'_, str>, usize)> {
    let (key, rest) = leading_digits(json.strip_prefix("{\"key\":")?)?;
    let (section, rest) = string_token(rest.strip_prefix(",\"section\":")?)?;
    let (index, _) = leading_digits(rest.strip_prefix(",\"index\":")?)?;
    Some((key, section, usize::try_from(index).ok()?))
}

/// A compacted file's run line JSON: `{"section":S,"first":I}`.
fn write_run_line(out: &mut String, section: &str, first: usize) {
    let mut digits = [0u8; 20];
    out.push_str("{\"section\":");
    json::write_escaped(out, section);
    out.push_str(",\"first\":");
    out.push_str(decimal(first as u64, &mut digits));
    out.push('}');
}

/// Reads the section and first index off a run line by the layout
/// [`write_run_line`] writes; the caller holds the line against the
/// canonical one.
fn run_fields(json: &str) -> Option<(Cow<'_, str>, usize)> {
    let (section, rest) = string_token(json.strip_prefix("{\"section\":")?)?;
    let (first, _) = leading_digits(rest.strip_prefix(",\"first\":")?)?;
    Some((section, usize::try_from(first).ok()?))
}

/// The FNV-1a-64 state after `context 0x1f section 0x1f`, where every
/// compacted point checksum of that section starts.
fn point_seed(context: &str, section: &str) -> u64 {
    let h = fnv64_extend(FNV_OFFSET, context.as_bytes());
    let h = fnv64_extend(h, &[0x1f]);
    let h = fnv64_extend(h, section.as_bytes());
    fnv64_extend(h, &[0x1f])
}

/// `seed` ([`point_seed`]) continued over `decimal(index) 0x1f`: a
/// compacted point line's checksum before its payload.
fn point_prefix(seed: u64, index: usize) -> u64 {
    let mut digits = [0u8; 20];
    let h = fnv64_extend(seed, decimal(index as u64, &mut digits).as_bytes());
    fnv64_extend(h, &[0x1f])
}

/// One section's completed points: their payload texts back to back in
/// one arena, and a dense index → span table (an empty span is a point
/// not there).
#[derive(Debug)]
struct Section {
    name: String,
    arena: String,
    spans: Vec<Range<u32>>,
}

impl Section {
    fn get(&self, index: usize) -> Option<&str> {
        let span = self.spans.get(index)?;
        (!span.is_empty()).then(|| &self.arena[span.start as usize..span.end as usize])
    }

    /// Whether `payload` can be stored at `index`: the index lies in the
    /// table's range, the text is not empty, and the arena stays
    /// addressable by `u32` spans.
    fn fits(&self, index: usize, payload: &str) -> bool {
        index < MAX_POINTS
            && !payload.is_empty()
            && u32::try_from(self.arena.len() + payload.len()).is_ok()
    }

    /// Stores a point's payload text, replacing any earlier one at
    /// `index`; the caller checked that it [`fits`](Self::fits).
    fn insert(&mut self, index: usize, payload: &str) {
        let start = self.arena.len() as u32;
        self.arena.push_str(payload);
        if self.spans.len() <= index {
            self.spans.resize(index + 1, 0..0);
        }
        self.spans[index] = start..self.arena.len() as u32;
    }

    fn len(&self) -> usize {
        self.spans.iter().filter(|span| !span.is_empty()).count()
    }
}

/// Where a line is read during recovery.
#[derive(Debug, Clone, Copy)]
enum Region {
    /// The header line.
    Header,
    /// A compacted file's points, inside the given run once a run line
    /// has started one.
    Points(Option<Run>),
    /// Record lines, to the end of the file.
    Records,
}

/// A run of compacted points: its section, the section's
/// [`point_seed`], and the index of its next point.
#[derive(Debug, Clone, Copy)]
struct Run {
    slot: usize,
    seed: u64,
    next: usize,
}

/// A write-ahead result journal bound to one file and one context.
///
/// Completed points are held as their payload's canonical JSON text
/// ([`Value::render`]) — the bytes their record or point line carries —
/// so a lookup hands out stored text without allocating or re-rendering.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    context: String,
    file: File,
    /// Completed points, one entry per section.
    sections: Vec<Section>,
    /// Whether the file holds record lines: what [`Journal::compact`]
    /// folds into a snapshot.
    has_records: bool,
    stats: JournalStats,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the given context.
    ///
    /// An existing file is recovered line by line: the longest valid
    /// prefix is trusted, the torn tail (if any) is truncated off and
    /// counted. A file whose header is torn, missing or of an unknown
    /// schema is restarted from scratch — there is nothing trustworthy
    /// to keep. A compacted file's points are verified by their
    /// checksums and indexed as they stand; a record line is read by
    /// its fixed layout rather than parsed into values: key, section
    /// and index come off the head, the head must be byte-for-byte the
    /// one [`Journal::record`] writes, and only the payload text goes
    /// through [`json::parse`]. A point recorded twice counts once.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the file cannot be opened/written,
    /// or when it carries a valid header for a *different* context —
    /// serving those results would silently mix configurations, so the
    /// mismatch is refused instead.
    pub fn open(path: &Path, context: &str) -> Result<Self, PitonError> {
        let io = |what: &str, e: std::io::Error| {
            PitonError::codec(format!("journal {}: {what}: {e}", path.display()))
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io("open", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io("read", e))?;

        let mut journal = Journal {
            path: path.to_path_buf(),
            context: context.to_owned(),
            file,
            sections: Vec::new(),
            has_records: false,
            stats: JournalStats::default(),
        };
        let valid_end = journal.recover(&bytes)?;
        journal.stats.torn = (bytes.len() - valid_end) as u64;
        // Distinct points: a point recorded twice counts once.
        journal.stats.recovered = journal.sections.iter().map(Section::len).sum::<usize>() as u64;

        journal
            .file
            .set_len(valid_end as u64)
            .map_err(|e| io("truncate torn tail", e))?;
        journal
            .file
            .seek(SeekFrom::Start(valid_end as u64))
            .map_err(|e| io("seek", e))?;
        if valid_end == 0 {
            // Fresh file (or no valid header): restart it.
            let header = header_json(JOURNAL_SCHEMA, context);
            journal.write_line(|out| out.push_str(&header))?;
            journal.sync()?;
        }
        Ok(journal)
    }

    /// Indexes the longest valid prefix of `bytes` — header, compacted
    /// points, record lines — and returns where it ends: 0 when there
    /// is no valid header, which also leaves nothing indexed.
    fn recover(&mut self, bytes: &[u8]) -> Result<usize, PitonError> {
        let mut region = Region::Header;
        let mut head = String::new();
        let mut valid_end = 0;
        loop {
            let rest = &bytes[valid_end..];
            // Most lines of a compacted file are the next point of the
            // current run.
            if let Region::Points(Some(run)) = region {
                if let Some(len) = self.point_line(run, rest) {
                    let next = run.next + 1;
                    region = Region::Points(Some(Run { next, ..run }));
                    valid_end += len;
                    continue;
                }
            }
            // An unterminated tail line is torn by definition.
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                break;
            };
            let Some((sum, text)) = split_frame(&rest[..nl]) else {
                break;
            };
            match self.read_line(region, sum, text, &mut head)? {
                Some(next) => region = next,
                None => break,
            }
            valid_end += nl + 1;
        }
        Ok(valid_end)
    }

    /// Reads the next point of `run` off the front of `rest` into its
    /// section, hashing the payload while it looks for the line's end:
    /// the line's length, newline included, or `None` when the next
    /// line is not that point.
    fn point_line(&mut self, run: Run, rest: &[u8]) -> Option<usize> {
        if rest.get(16) != Some(&b' ') {
            return None;
        }
        let sum = read_hex(&rest[..16])?;
        let text = &rest[17..];
        let (hash, len) = fnv64_line(point_prefix(run.seed, run.next), text)?;
        if hash != sum {
            return None;
        }
        let payload = std::str::from_utf8(&text[..len]).ok()?;
        let section = &mut self.sections[run.slot];
        if !section.fits(run.next, payload) {
            return None;
        }
        section.insert(run.next, payload);
        Some(17 + len + 1)
    }

    /// Reads one framed line other than a run's next point, found in
    /// `region`: the region the next line is read in, or `None` when
    /// this line is not valid there.
    fn read_line(
        &mut self,
        region: Region,
        sum: u64,
        text: &[u8],
        head: &mut String,
    ) -> Result<Option<Region>, PitonError> {
        // These lines' checksums cover their JSON text.
        if fnv64(text) != sum {
            return Ok(None);
        }
        let Ok(json) = std::str::from_utf8(text) else {
            return Ok(None);
        };
        Ok(match region {
            Region::Header => self.header(json)?,
            Region::Points(_) => match self.run_line(json, head) {
                Some(run) => Some(Region::Points(Some(run))),
                None => self.record_line(json, head).then_some(Region::Records),
            },
            Region::Records => self.record_line(json, head).then_some(Region::Records),
        })
    }

    /// Reads the header: the region its schema's body starts in, or
    /// `None` for an unknown schema or a malformed header.
    fn header(&self, json: &str) -> Result<Option<Region>, PitonError> {
        let Ok(v) = json::parse(json) else {
            return Ok(None);
        };
        let region = match v.get("schema").and_then(Value::as_str) {
            Some(JOURNAL_SCHEMA) => Region::Records,
            Some(SNAPSHOT_SCHEMA) => Region::Points(None),
            _ => return Ok(None),
        };
        let Some(ctx) = v.get("context").and_then(Value::as_str) else {
            return Ok(None);
        };
        if ctx != self.context {
            return Err(PitonError::codec(format!(
                "journal {}: context mismatch: file was recorded under {ctx:?}, \
                 this run is {:?}",
                self.path.display(),
                self.context
            )));
        }
        Ok(Some(region))
    }

    /// Reads a compacted file's run line: the run it starts, or `None`
    /// when the line is not one laid out as compaction writes it.
    fn run_line(&mut self, json: &str, head: &mut String) -> Option<Run> {
        let (section, first) = run_fields(json)?;
        head.clear();
        write_run_line(head, &section, first);
        if json != head.as_str() {
            return None;
        }
        Some(Run {
            slot: self.slot(&section),
            seed: point_seed(&self.context, &section),
            next: first,
        })
    }

    /// Reads a record line into the index; `false` when it is not one
    /// laid out as [`Journal::record`] writes it.
    fn record_line(&mut self, json: &str, head: &mut String) -> bool {
        let Some((key, section, index)) = record_fields(json) else {
            return false;
        };
        if key != point_key(&self.context, &section, index) {
            return false; // foreign or corrupted key: never trust it
        }
        // Only a line laid out as `record` writes it — the canonical
        // head, one JSON document, `}` — yields its payload's text; any
        // other layout is foreign.
        head.clear();
        write_record_head(head, key, &section, index);
        let Some(payload) = json
            .strip_prefix(head.as_str())
            .and_then(|rest| rest.strip_suffix('}'))
            .filter(|payload| json::parse(payload).is_ok())
        else {
            return false;
        };
        let slot = self.slot(&section);
        if !self.sections[slot].fits(index, payload) {
            return false;
        }
        self.sections[slot].insert(index, payload);
        self.has_records = true;
        true
    }

    /// The position of section `name` in [`Journal::sections`], added
    /// empty when missing.
    fn slot(&mut self, name: &str) -> usize {
        match self.sections.iter().position(|s| s.name == name) {
            Some(slot) => slot,
            None => {
                self.sections.push(Section {
                    name: name.to_owned(),
                    arena: String::new(),
                    spans: Vec::new(),
                });
                self.sections.len() - 1
            }
        }
    }

    fn write_line(&mut self, write_json: impl FnOnce(&mut String)) -> Result<(), PitonError> {
        let mut line = String::new();
        push_frame_line(&mut line, write_json);
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| PitonError::codec(format!("journal {}: append: {e}", self.path.display())))
    }

    /// The context spec this journal is bound to.
    #[must_use]
    pub fn context(&self) -> &str {
        &self.context
    }

    /// The content-addressed key of a grid point under this journal's
    /// context.
    #[must_use]
    pub fn key_for(&self, section: &str, index: usize) -> u64 {
        point_key(&self.context, section, index)
    }

    /// The recovered/served/appended/torn accounting so far.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Whether a completed point is present, *without* counting a
    /// serve (the serving layer uses this to find whether a request
    /// misses at all, and to avoid double-recording points a concurrent
    /// identical request already appended).
    #[must_use]
    pub fn contains(&self, section: &str, index: usize) -> bool {
        self.sections
            .iter()
            .any(|s| s.name == section && s.get(index).is_some())
    }

    /// Looks up a completed point's payload text — the canonical JSON
    /// of the [`Value`] it was recorded with — counting a successful hit
    /// as served.
    pub fn serve(&mut self, section: &str, index: usize) -> Option<&str> {
        let payload = self
            .sections
            .iter()
            .find(|s| s.name == section)?
            .get(index)?;
        self.stats.served += 1;
        Some(payload)
    }

    /// Appends one completed point as a write-ahead record. Not
    /// fsync'd — call [`Journal::sync`] at the batch boundary (and
    /// before any deliberate abort).
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the write fails, or when the point
    /// does not fit its section's table: an index of 2^24 or more, or a
    /// section past 4 GiB of payload text.
    pub fn record(
        &mut self,
        section: &str,
        index: usize,
        payload: &Value,
    ) -> Result<(), PitonError> {
        let payload = payload.render();
        let slot = self.slot(section);
        if !self.sections[slot].fits(index, &payload) {
            return Err(PitonError::codec(format!(
                "journal {}: point {section}:{index} does not fit the section's table",
                self.path.display()
            )));
        }
        let key = point_key(&self.context, section, index);
        self.write_line(|out| {
            write_record_head(out, key, section, index);
            out.push_str(&payload);
            out.push('}');
        })?;
        self.sections[slot].insert(index, &payload);
        self.has_records = true;
        self.stats.appended += 1;
        Ok(())
    }

    /// Forces every appended record onto disk (the batch boundary).
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), PitonError> {
        self.file
            .sync_data()
            .map_err(|e| PitonError::codec(format!("journal {}: sync: {e}", self.path.display())))
    }

    /// Rewrites the file as a `piton-snapshot/v1` journal of every
    /// point it holds, when it holds record lines; a file already
    /// compacted with nothing recorded since is left alone. Returns
    /// whether the file was rewritten.
    ///
    /// The snapshot is streamed to a temporary file beside the journal
    /// (its name with `.compacting` appended), fsync'd, renamed over the
    /// journal, and the directory fsync'd: a crash at any moment leaves
    /// the old file or the new one. The bytes depend only on the
    /// context and the points, never on the order they were recorded
    /// in. Later records append to the new file. Compaction is always
    /// an explicit call, never a side effect of dropping the journal.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when writing, syncing or renaming fails;
    /// the journal's file is then the old one, whole.
    pub fn compact(&mut self) -> Result<bool, PitonError> {
        if !self.has_records {
            return Ok(false);
        }
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".compacting");
        let temp = self.path.with_file_name(name);
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let written = File::create(&temp).and_then(|mut file| {
            self.write_snapshot(&mut file)?;
            file.sync_all()?;
            std::fs::rename(&temp, &self.path)?;
            File::open(dir)?.sync_all()?;
            Ok(file)
        });
        match written {
            Ok(file) => {
                self.file = file;
                self.has_records = false;
                Ok(true)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&temp);
                Err(PitonError::codec(format!(
                    "journal {}: compact: {e}",
                    self.path.display()
                )))
            }
        }
    }

    /// Streams the snapshot of every point to `out` in 64 KiB chunks:
    /// the header, then each section (sorted by name) as runs of
    /// consecutive indices.
    fn write_snapshot(&self, out: &mut impl Write) -> std::io::Result<()> {
        const CHUNK: usize = 1 << 16;
        let mut buf = String::with_capacity(2 * CHUNK);
        push_frame_line(&mut buf, |line| {
            line.push_str(&header_json(SNAPSHOT_SCHEMA, &self.context));
        });
        let mut sections: Vec<&Section> = self.sections.iter().collect();
        sections.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        for section in sections {
            let seed = point_seed(&self.context, &section.name);
            let mut next = None;
            for index in 0..section.spans.len() {
                let Some(payload) = section.get(index) else {
                    continue;
                };
                if next != Some(index) {
                    push_frame_line(&mut buf, |line| {
                        write_run_line(line, &section.name, index);
                    });
                }
                let sum = fnv64_extend(point_prefix(seed, index), payload.as_bytes());
                buf.push_str(std::str::from_utf8(&hex_digits(sum)).expect("hex digits are ASCII"));
                buf.push(' ');
                buf.push_str(payload);
                buf.push('\n');
                next = Some(index + 1);
                if buf.len() >= CHUNK {
                    out.write_all(buf.as_bytes())?;
                    buf.clear();
                }
            }
        }
        out.write_all(buf.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "piton-journal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        p
    }

    /// A served point decoded as `T`.
    fn served<T: JournalPayload>(j: &mut Journal, section: &str, index: usize) -> Option<T> {
        let text = j.serve(section, index)?;
        Some(T::from_value(&json::parse(text).unwrap()).unwrap())
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "ctx-a").unwrap();
            j.record(
                "epi",
                0,
                &WithError {
                    value: 1.25,
                    error: 0.5,
                }
                .to_value(),
            )
            .unwrap();
            j.record("noc", 3, &Watts(0.123_456_789).to_value())
                .unwrap();
            j.record("scaling", 7, &2.5f64.to_value()).unwrap();
            j.sync().unwrap();
            assert_eq!(j.stats().appended, 3);
        }
        let mut j = Journal::open(&path, "ctx-a").unwrap();
        assert_eq!(j.stats().recovered, 3);
        assert_eq!(j.stats().torn, 0);
        let w: WithError = served(&mut j, "epi", 0).unwrap();
        assert_eq!((w.value, w.error), (1.25, 0.5));
        let watts: Watts = served(&mut j, "noc", 3).unwrap();
        assert_eq!(watts.0, 0.123_456_789);
        assert_eq!(served::<f64>(&mut j, "scaling", 7), Some(2.5));
        assert!(j.serve("epi", 1).is_none());
        assert_eq!(j.stats().served, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_recovers_exactly_the_complete_prefix() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            for i in 0..8usize {
                j.record("scaling", i, &(i as f64 * 0.25).to_value())
                    .unwrap();
            }
            j.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let line_ends: Vec<usize> = full
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
            .collect();
        assert_eq!(line_ends.len(), 9); // header + 8 records
                                        // Truncate at every byte offset: recovery must always yield
                                        // exactly the complete-record prefix — never a panic, never a
                                        // bogus value, never a dropped complete record.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut j = Journal::open(&path, "ctx").unwrap();
            let whole_lines = line_ends.iter().filter(|&&e| e <= cut).count();
            let expected = whole_lines.saturating_sub(1); // minus header
            let k = j.stats().recovered as usize;
            assert_eq!(k, expected, "cut={cut}");
            for i in 0..k {
                let v: f64 = served(&mut j, "scaling", i).unwrap();
                assert_eq!(v, i as f64 * 0.25, "cut={cut}");
            }
            assert!(j.serve("scaling", k).is_none(), "cut={cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_tail_is_truncated_and_journal_stays_appendable() {
        let path = temp_path("garbage");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            j.record("epi", 0, &1.0f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n', b'x', b'\n']);
        std::fs::write(&path, &bytes).unwrap();
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            assert_eq!(j.stats().recovered, 1);
            assert_eq!(j.stats().torn, 5);
            j.record("epi", 1, &2.0f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() > clean_len);
        let mut j = Journal::open(&path, "ctx").unwrap();
        assert_eq!(j.stats().recovered, 2);
        assert_eq!(served::<f64>(&mut j, "epi", 1), Some(2.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn context_mismatch_is_refused() {
        let path = temp_path("ctx-mismatch");
        // Under a record-line header and under a compacted one.
        for compact in [false, true] {
            let _ = std::fs::remove_file(&path);
            {
                let mut j = Journal::open(&path, "quick|fault=none").unwrap();
                j.record("epi", 0, &1.0f64.to_value()).unwrap();
                j.sync().unwrap();
                if compact {
                    assert!(j.compact().unwrap());
                }
            }
            let err = Journal::open(&path, "full|fault=none").unwrap_err();
            assert!(matches!(err, PitonError::Codec { .. }), "{err:?}");
            assert!(err.to_string().contains("context mismatch"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_restarts_the_file() {
        let path = temp_path("bad-header");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, b"not a journal at all\n").unwrap();
        let j = Journal::open(&path, "ctx").unwrap();
        assert_eq!(j.stats().recovered, 0);
        assert_eq!(j.stats().torn, 21);
        // The file was restarted with a valid header for this context.
        let j2 = Journal::open(&path, "ctx").unwrap();
        assert_eq!(j2.stats().torn, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keys_separate_sections_indices_and_contexts() {
        let k = point_key("ctx", "epi", 3);
        assert_ne!(k, point_key("ctx", "epi", 4));
        assert_ne!(k, point_key("ctx", "noc", 3));
        assert_ne!(k, point_key("ctx2", "epi", 3));
        // Separator prevents ("ab", 1) colliding with ("a", "b1")-style smears.
        assert_ne!(point_key("c", "ab", 1), point_key("c", "a", 11));
        // Keys are stored in journals and sent in frames: the layout
        // they hash is fixed.
        for index in [0, 7, 10, 99_999, usize::MAX] {
            let text = format!("design_space\u{1f}{index}\u{1f}ctx");
            assert_eq!(
                point_key("ctx", "design_space", index),
                fnv64(text.as_bytes())
            );
        }
    }

    #[test]
    fn frame_lines_are_checksum_space_json_newline() {
        for json in ["{}", "{\"frame\":\"bye\"}"] {
            let mut line = "kept ".to_owned();
            push_frame_line(&mut line, |out| out.push_str(json));
            let sum = fnv64(json.as_bytes());
            assert_eq!(line, format!("kept {sum:016x} {json}\n"));
            assert_eq!(unframe_line(line[5..].trim_end().as_bytes()), Some(json));
        }
    }

    #[test]
    fn records_not_laid_out_as_record_writes_them_are_not_trusted() {
        let path = temp_path("layout");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            j.record("noc", 0, &1.5f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let key = point_key("ctx", "noc", 1);
        for json in [
            format!("{{\"section\":\"noc\",\"key\":{key},\"index\":1,\"payload\":2.5}}"),
            format!("{{\"key\":{key},\"section\":\"noc\",\"index\":1,\"payload\":2.5,\"x\":1}}"),
            format!("{{\"key\":{key},\"section\":\"noc\",\"index\":1}}"),
        ] {
            let mut bytes = clean.clone();
            let mut line = String::new();
            push_frame_line(&mut line, |out| out.push_str(&json));
            bytes.extend_from_slice(line.as_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let mut j = Journal::open(&path, "ctx").unwrap();
            assert_eq!(j.stats().recovered, 1, "{json}");
            assert_eq!(j.stats().torn, line.len() as u64, "{json}");
            assert_eq!(j.serve("noc", 0), Some("1.5"));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The parse-based record check, the oracle the layout reader is
    /// held against: parse the whole line, take `key`, `section` and
    /// `index` from the value, and require the exact head `record`
    /// writes, one payload value, `}` and exactly four fields.
    fn parsed_record(context: &str, json: &str) -> Option<(String, usize, String)> {
        let v = json::parse(json).ok()?;
        let key = v.get("key").and_then(Value::as_u64)?;
        let section = v.get("section").and_then(Value::as_str)?;
        let index = v.get("index").and_then(Value::as_u64)? as usize;
        if key != point_key(context, section, index) {
            return None;
        }
        let mut head = String::new();
        write_record_head(&mut head, key, section, index);
        let payload = json
            .strip_prefix(head.as_str())
            .and_then(|rest| rest.strip_suffix('}'))
            .filter(|_| matches!(&v, Value::Object(fields) if fields.len() == 4))?;
        Some((section.to_owned(), index, payload.to_owned()))
    }

    /// A record line's JSON text as `record` writes it.
    fn record_json(context: &str, section: &str, index: usize, payload: &str) -> String {
        let mut json = String::new();
        write_record_head(
            &mut json,
            point_key(context, section, index),
            section,
            index,
        );
        json.push_str(payload);
        json.push('}');
        json
    }

    /// Replaces a record line's key digits with the key of the section
    /// and index the whole line parses to, so that a mutation of the
    /// section or index meets the layout check rather than the key
    /// check. `None` when the line has no such fields or key digits.
    fn rekeyed(context: &str, json: &str) -> Option<String> {
        let v = json::parse(json).ok()?;
        let section = v.get("section").and_then(Value::as_str)?;
        let index = v.get("index").and_then(Value::as_u64)? as usize;
        let rest = json.strip_prefix("{\"key\":")?;
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let key = point_key(context, section, index);
        Some(format!("{{\"key\":{key}{}", &rest[digits..]))
    }

    #[test]
    fn layout_reader_decides_every_mutated_record_as_the_parse_oracle() {
        const CTX: &str = "layout-ctx";
        let path = temp_path("differential");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, CTX).unwrap();
            j.record("noc", 0, &1.5f64.to_value()).unwrap();
            j.record("noc", 1, &2.5f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let lines = [
            record_json(CTX, "noc", 1, "2.5"),
            record_json(CTX, "epi", 12, r#"{"v":1.25,"e":-0.5}"#),
            record_json(CTX, "q\"b\\s\nt", 3, "[1,2e3]"),
            record_json(CTX, "dé\u{1F980}", 40, r#""x""#),
        ];
        let subs = [
            "\"", "\\", "{", "}", ",", ":", " ", "0", "9", "-", ".", "e", "a", "é",
        ];
        let (mut checked, mut trusted) = (0usize, 0usize);
        for line in &lines {
            let bytes = line.as_bytes();
            for at in 0..=bytes.len() {
                for sub in subs {
                    let mut variants = Vec::new();
                    for replace in [true, false] {
                        if replace && at == bytes.len() {
                            continue;
                        }
                        let tail = &bytes[at + usize::from(replace)..];
                        let mutated = [&bytes[..at], sub.as_bytes(), tail].concat();
                        // A substitution inside a multibyte character
                        // leaves no UTF-8, which framing alone refuses.
                        let Ok(mutated) = String::from_utf8(mutated) else {
                            continue;
                        };
                        variants.extend(rekeyed(CTX, &mutated));
                        variants.push(mutated);
                    }
                    for json in variants {
                        let mut framed = String::new();
                        push_frame_line(&mut framed, |out| out.push_str(&json));
                        let mut file = clean.clone();
                        file.extend_from_slice(framed.as_bytes());
                        std::fs::write(&path, &file).unwrap();
                        let mut j = Journal::open(&path, CTX).unwrap();
                        match parsed_record(CTX, &json) {
                            Some((section, index, payload)) => {
                                let fresh = !(section == "noc" && index < 2);
                                assert_eq!(j.stats().recovered, 2 + u64::from(fresh), "{json}");
                                assert_eq!(j.stats().torn, 0, "{json}");
                                assert_eq!(j.serve(&section, index), Some(payload.as_str()));
                                if fresh {
                                    assert_eq!(j.serve("noc", 0), Some("1.5"), "{json}");
                                    assert_eq!(j.serve("noc", 1), Some("2.5"), "{json}");
                                }
                                trusted += 1;
                            }
                            None => {
                                assert_eq!(j.stats().recovered, 2, "{json}");
                                assert_eq!(j.stats().torn, framed.len() as u64, "{json}");
                                assert_eq!(j.serve("noc", 0), Some("1.5"), "{json}");
                                assert_eq!(j.serve("noc", 1), Some("2.5"), "{json}");
                            }
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked > 5000 && trusted > 500,
            "checked {checked}, trusted {trusted}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Five records in four sections, whose names hold `"`, `\\` and
    /// `é`; one payload is NaN and one index is the last of the
    /// `design_space` grid.
    fn damage_records() -> [(&'static str, usize, Value); 5] {
        [
            (
                "epi",
                0,
                WithError {
                    value: 1.25,
                    error: 0.5,
                }
                .to_value(),
            ),
            ("noc", 3, 0.75f64.to_value()),
            ("dé\"s\\", 7, f64::NAN.to_value()),
            ("epi", 1, (-2.0f64).to_value()),
            ("design_space", 104_999, 3.5e-9f64.to_value()),
        ]
    }

    #[test]
    fn a_flipped_bit_anywhere_loses_exactly_its_line() {
        const CTX: &str = "flip-ctx";
        let path = temp_path("bitflip");
        let _ = std::fs::remove_file(&path);
        let records = damage_records();
        {
            let mut j = Journal::open(&path, CTX).unwrap();
            for (section, index, payload) in &records {
                j.record(section, *index, payload).unwrap();
            }
            j.sync().unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let header_end = clean.iter().position(|&b| b == b'\n').unwrap() + 1;
        let fresh_header = clean[..header_end].to_vec();
        for at in 0..clean.len() {
            // The line the damaged byte belongs to (its newline included).
            let line = clean[..at].iter().filter(|&&b| b == b'\n').count();
            let line_start = clean[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[at] ^= 1 << bit;
                std::fs::write(&path, &damaged).unwrap();
                let mut j = Journal::open(&path, CTX).unwrap();
                let kept = line.saturating_sub(1);
                assert_eq!(j.stats().recovered as usize, kept, "at={at} bit={bit}");
                for (n, (section, index, payload)) in records.iter().enumerate() {
                    let want = payload.render();
                    let got = j.serve(section, *index);
                    if n < kept {
                        assert_eq!(got, Some(want.as_str()), "at={at} bit={bit}");
                    } else {
                        assert_eq!(got, None, "at={at} bit={bit}");
                    }
                }
                // The file is cut where the damaged line starts; a hit
                // header restarts it with a fresh one.
                let on_disk = std::fs::read(&path).unwrap();
                let want = if line == 0 {
                    &fresh_header
                } else {
                    &clean[..line_start]
                };
                assert_eq!(on_disk, want, "at={at} bit={bit}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Records `records` into a fresh journal at `path`, compacts it and
    /// returns the compacted bytes.
    fn compacted(path: &Path, context: &str, records: &[(&str, usize, Value)]) -> Vec<u8> {
        let _ = std::fs::remove_file(path);
        let mut j = Journal::open(path, context).unwrap();
        for (section, index, payload) in records {
            j.record(section, *index, payload).unwrap();
        }
        j.sync().unwrap();
        assert!(j.compact().unwrap());
        std::fs::read(path).unwrap()
    }

    /// The header a restarted file gets for `context`.
    fn fresh_header(context: &str) -> Vec<u8> {
        let mut line = String::new();
        push_frame_line(&mut line, |out| {
            out.push_str(&header_json(JOURNAL_SCHEMA, context));
        });
        line.into_bytes()
    }

    /// Opens the journal at `path` and checks that it holds exactly the
    /// first `kept` of `points` (in file order) and that the file now
    /// reads `on_disk`.
    fn assert_kept(
        path: &Path,
        context: &str,
        points: &[&(&str, usize, Value)],
        kept: usize,
        on_disk: &[u8],
        what: &str,
    ) {
        let mut j = Journal::open(path, context).unwrap();
        assert_eq!(j.stats().recovered as usize, kept, "{what}");
        for (n, (section, index, payload)) in points.iter().enumerate() {
            let want = payload.render();
            let want = (n < kept).then_some(want.as_str());
            assert_eq!(j.serve(section, *index), want, "{what}: point {n}");
        }
        assert_eq!(std::fs::read(path).unwrap(), on_disk, "{what}");
    }

    #[test]
    fn a_compacted_file_keeps_exactly_the_points_before_its_first_damage() {
        const CTX: &str = "snap-ctx";
        let path = temp_path("snap-damage");
        let records = damage_records();
        let clean = compacted(&path, CTX, &records);
        assert!(clean[17..].starts_with(b"{\"schema\":\"piton-snapshot/v1\""));
        let mut points: Vec<&(&str, usize, Value)> = records.iter().collect();
        points.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        // Each line's end, and how many points the file holds up to it.
        let mut ends = Vec::new();
        let mut points_through = Vec::new();
        for (n, line) in clean.split_inclusive(|&b| b == b'\n').enumerate() {
            let is_point = n > 0 && !line[17..].starts_with(b"{\"section\":");
            let before = points_through.last().copied().unwrap_or(0);
            ends.push(ends.last().copied().unwrap_or(0) + line.len());
            points_through.push(before + usize::from(is_point));
        }
        assert_eq!(points_through.last(), Some(&5));
        assert_eq!(ends.last(), Some(&clean.len()));
        // The lines before line `n` survive, with their points; a
        // damaged header restarts the file with a fresh one.
        let header = fresh_header(CTX);
        let expect = |n: usize| -> (usize, Vec<u8>) {
            match n {
                0 => (0, header.clone()),
                n => (points_through[n - 1], clean[..ends[n - 1]].to_vec()),
            }
        };
        for cut in 0..=clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let (kept, on_disk) = expect(whole);
            assert_kept(&path, CTX, &points, kept, &on_disk, &format!("cut={cut}"));
        }
        for at in 0..clean.len() {
            let line = ends.iter().filter(|&&end| end <= at).count();
            let (kept, on_disk) = expect(line);
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[at] ^= 1 << bit;
                std::fs::write(&path, &damaged).unwrap();
                let what = format!("at={at} bit={bit}");
                assert_kept(&path, CTX, &points, kept, &on_disk, &what);
                let torn = Journal::open(&path, CTX).unwrap().stats().torn;
                assert_eq!(torn, 0, "{what}: the damage was cut off once");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_cut_compacted_file_serves_its_kept_points_and_later_appends() {
        const CTX: &str = "snap-append";
        let path = temp_path("snap-append");
        let records = damage_records();
        let clean = compacted(&path, CTX, &records);
        let header_end = clean.iter().position(|&b| b == b'\n').unwrap() + 1;
        for cut in header_end..=clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            {
                // Re-record the lost points, and one new one.
                let mut j = Journal::open(&path, CTX).unwrap();
                for (section, index, payload) in &records {
                    if !j.contains(section, *index) {
                        j.record(section, *index, payload).unwrap();
                    }
                }
                j.record("epi", 2, &4.5f64.to_value()).unwrap();
                j.sync().unwrap();
            }
            let mut j = Journal::open(&path, CTX).unwrap();
            assert_eq!(j.stats().torn, 0, "cut={cut}");
            assert_eq!(j.stats().recovered as usize, records.len() + 1, "cut={cut}");
            for (section, index, payload) in &records {
                let want = payload.render();
                assert_eq!(j.serve(section, *index), Some(want.as_str()), "cut={cut}");
            }
            assert_eq!(j.serve("epi", 2), Some("4.5"), "cut={cut}");
            // Folding the appends in again compacts to the bytes of a
            // journal that recorded all six points at once.
            assert!(j.compact().unwrap(), "cut={cut}");
            drop(j);
            let mut all = records.to_vec();
            all.push(("epi", 2, 4.5f64.to_value()));
            let whole = compacted(&temp_path("snap-append-whole"), CTX, &all);
            assert_eq!(std::fs::read(&path).unwrap(), whole, "cut={cut}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(temp_path("snap-append-whole"));
    }

    #[test]
    fn the_same_points_compact_to_the_same_bytes() {
        const CTX: &str = "snap-same";
        let records = damage_records();
        let forward = compacted(&temp_path("snap-forward"), CTX, &records);
        // Another order, with a point recorded twice.
        let mut shuffled: Vec<(&str, usize, Value)> = records.iter().rev().cloned().collect();
        shuffled.push(records[2].clone());
        let backward = compacted(&temp_path("snap-backward"), CTX, &shuffled);
        assert_eq!(forward, backward);
        // A compacted file with nothing recorded since stays as it is.
        let path = temp_path("snap-backward");
        let mut j = Journal::open(&path, CTX).unwrap();
        assert_eq!(j.stats().recovered as usize, records.len());
        assert!(!j.compact().unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), forward);
        // Compaction leaves no file but the journal behind.
        let mut temp = path.clone().into_os_string();
        temp.push(".compacting");
        assert!(!Path::new(&temp).exists());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(temp_path("snap-forward"));
    }

    #[test]
    fn checksums_are_read_only_as_sixteen_lowercase_hex_digits() {
        assert_eq!(read_hex(b"0123456789abcdef"), Some(0x0123_4567_89ab_cdef));
        for spelling in [
            &b"0123456789ABCDEF"[..],
            b"+123456789abcdef",
            b"123456789abcdef",
        ] {
            assert_eq!(read_hex(spelling), None, "{spelling:?}");
        }
    }

    #[test]
    fn payloads_round_trip_non_finite_values() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-300] {
            let enc = v.to_value();
            let back = f64::from_value(&json::parse(&enc.render()).unwrap()).unwrap();
            assert!(back == v || (back.is_nan() && v.is_nan()), "{v} -> {back}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Append N records, tear the file at a random byte
            /// offset: recovery yields exactly the records whose whole
            /// line survived, each with its exact payload.
            #[test]
            fn torn_tail_recovery_is_exactly_the_complete_prefix(
                raw in proptest::collection::vec(proptest::strategy::any::<u64>(), 1..24),
                cut_seed in proptest::strategy::any::<u64>(),
            ) {
                let path = temp_path("torn-prop");
                let _ = std::fs::remove_file(&path);
                let values: Vec<f64> =
                    raw.iter().map(|&v| (v % 4096) as f64 / 8.0).collect();
                {
                    let mut j = Journal::open(&path, "prop-ctx").unwrap();
                    for (i, &v) in values.iter().enumerate() {
                        j.record("noc", i, &v.to_value()).unwrap();
                    }
                    j.sync().unwrap();
                }
                let full = std::fs::read(&path).unwrap();
                let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
                std::fs::write(&path, &full[..cut]).unwrap();
                let whole_lines = full[..cut].iter().filter(|&&b| b == b'\n').count();
                let expected = whole_lines.saturating_sub(1); // header line
                let mut j = Journal::open(&path, "prop-ctx").unwrap();
                prop_assert_eq!(j.stats().recovered as usize, expected);
                for (i, &v) in values.iter().enumerate().take(expected) {
                    let got: f64 = served(&mut j, "noc", i).unwrap();
                    prop_assert_eq!(got, v, "record {}", i);
                }
                prop_assert!(j.serve("noc", expected).is_none());
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
