//! Write-ahead, content-addressed result journal — the durability
//! layer under `runner::try_sweep_journaled`, the one sweep that serves
//! and commits points for `reproduce --journal` and the `piton-serve`
//! result cache.
//!
//! The paper's characterization campaign is days of measurement across
//! thousands of grid points; a killed process used to throw away every
//! completed point. A [`Journal`] makes sweep results durable: the grid
//! points a sweep completes are appended to its file as self-checksummed
//! records, in index order, *before* the run proceeds, so a crashed run
//! relaunched with `--resume` serves completed points from disk and
//! recomputes only the missing ones. Because every sweep is already byte-deterministic at
//! any `--jobs` level, a resumed run's output is **byte-identical** to
//! an uninterrupted one.
//!
//! A journal belongs to whoever opened it (`reproduce`, a test, the
//! serve cache) and is lent to sweeps as `Option<&Mutex<Journal>>`.
//!
//! # File format
//!
//! One schema, `piton-journal/v3`. Every line ends in a newline, holds
//! no other, and starts with 16 lowercase hex digits — an FNV-1a-64
//! checksum — and a space. The first line is a header naming the schema
//! and the context. Two kinds of line follow it:
//!
//! * a *run* line `{"section":S,"first":I}` names the section and index
//!   of the point line after it;
//! * a *point* line is one point's payload JSON, and takes the next
//!   index of its run.
//!
//! The checksum of the header and of a run line covers its JSON text. A
//! point line's checksum is the FNV-1a-64 of `context 0x1f section 0x1f
//! decimal(index) 0x1f payload`, so each point is bound to its context,
//! section and index without spelling them out.
//!
//! ```text
//! 0b4e51f5d2a1c7e6 {"schema":"piton-journal/v3","context":"<context spec>"}
//! 9a71c3d0e25b8f44 {"section":"design_space","first":0}
//! 52c8e0a1f7b39d16 {"power_w":1.9,...}
//! 1f0d9be2c4a87e35 {"power_w":1.9,...}
//! 3c5a0e9d7b21f468 {"section":"noc","first":7}
//! 68b329da9893e340 2.5
//! ```
//!
//! [`Journal::record`] appends a run line only when its point is not the
//! next index of the run the file ends in, then the point line: points
//! appended in ascending index order share one run line, and an
//! out-of-order or repeated point costs one more. A later line for the
//! same point replaces the earlier one. Nothing rewrites the file, so a
//! killed process leaves the same bytes a clean exit does.
//!
//! A file of any other schema — the `piton-journal/v1` record lines and
//! `piton-snapshot/v1` snapshots of earlier builds among them — meets an
//! unknown schema in its header and is restarted; it is never served
//! from. `piton-journal/v2` files share this layout but not its index
//! space: `reproduce` wrote Figure 13's quick points under their
//! position in the 7-core subset, where v3 uses the canonical grid
//! index, so they restart too.
//!
//! The header pins the *context* — experiment fidelity, fault-plan
//! effects, backend, code version and, for analytic runs, the model's
//! law digest — and every point's checksum covers it, so a journal can
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
//! are *recomputed, never trusted*. Every point has a line and a
//! checksum of its own, so a tear or a flipped bit costs exactly the
//! points from the damaged line on. Recovery ends in the run the kept
//! prefix ends in, and the next append continues that run. A sweep
//! appends each computed point as soon as every earlier point of the
//! sweep is done, and fsyncs once when it ends; an injected `crash=`
//! abort fires only after that fsync, so the crashed point itself
//! survives.
//!
//! Only the header line is parsed whole. A run line's section token and
//! index digits are read off its fixed layout, and the line must be
//! exactly the one [`Journal::record`] writes for them, so non-canonical
//! digits or escapes are foreign. A point is trusted on its checksum.
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

/// The schema identifier in a journal's header.
pub const JOURNAL_SCHEMA: &str = "piton-journal/v3";

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
/// the content hash behind every point key.
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

/// A sweep result that can ride in a journal point line. Implementations
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

    /// The payload's point-line text: its value's canonical JSON.
    fn to_text(&self) -> String {
        self.to_value().render()
    }

    /// Decodes a point-line text written by [`JournalPayload::to_text`].
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the text is not JSON of the right
    /// shape.
    fn from_text(text: &str) -> Result<Self, PitonError> {
        Self::from_value(&json::parse(text).map_err(PitonError::codec)?)
    }
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
/// journal headers and run lines and `piton-serve` response frames.
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

/// Splits a framed line into its verified JSON text. `None` for any
/// framing violation: missing separator, a checksum that is not 16
/// lowercase hex digits, mismatch.
#[must_use]
pub fn unframe_line(line: &[u8]) -> Option<&str> {
    if line.len() < 18 || line[16] != b' ' {
        return None;
    }
    let json = &line[17..];
    if fnv64(json) != read_hex(&line[..16])? {
        return None;
    }
    std::str::from_utf8(json).ok()
}

/// The verified JSON text of the framed line at the front of `bytes`,
/// and the line's length with its newline. `None` for an unterminated
/// line, which is torn by definition, or any framing violation.
fn framed_line(bytes: &[u8]) -> Option<(&str, usize)> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    Some((unframe_line(&bytes[..nl])?, nl + 1))
}

/// A header line's JSON: the schema and the context it pins.
fn header_json(context: &str) -> String {
    ObjectBuilder::new()
        .field("schema", Value::Str(JOURNAL_SCHEMA.to_owned()))
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

/// A run line's JSON: `{"section":S,"first":I}`.
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
/// point checksum of that section starts.
fn point_seed(context: &str, section: &str) -> u64 {
    let h = fnv64_extend(FNV_OFFSET, context.as_bytes());
    let h = fnv64_extend(h, &[0x1f]);
    let h = fnv64_extend(h, section.as_bytes());
    fnv64_extend(h, &[0x1f])
}

/// `seed` ([`point_seed`]) continued over `decimal(index) 0x1f`: a
/// point line's checksum before its payload.
fn point_prefix(seed: u64, index: usize) -> u64 {
    let mut digits = [0u8; 20];
    let h = fnv64_extend(seed, decimal(index as u64, &mut digits).as_bytes());
    fnv64_extend(h, &[0x1f])
}

/// Appends the point line of `payload` at `index` of a section whose
/// [`point_seed`] is `seed`.
fn push_point_line(out: &mut String, seed: u64, index: usize, payload: &str) {
    let sum = fnv64_extend(point_prefix(seed, index), payload.as_bytes());
    out.push_str(std::str::from_utf8(&hex_digits(sum)).expect("hex digits are ASCII"));
    out.push(' ');
    out.push_str(payload);
    out.push('\n');
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

/// A run of points: its section, the section's [`point_seed`], and the
/// index of its next point.
#[derive(Debug, Clone, Copy)]
struct Run {
    slot: usize,
    seed: u64,
    next: usize,
}

/// A write-ahead result journal bound to one file and one context.
///
/// Completed points are held as their payload's canonical JSON text
/// ([`Value::render`]) — the bytes their point line carries — so a
/// lookup hands out stored text without allocating or re-rendering.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    context: String,
    file: File,
    /// Completed points, one entry per section.
    sections: Vec<Section>,
    /// The run the file ends in, which the next append continues when
    /// its point is that run's next index; `None` before the first run
    /// line.
    tail: Option<Run>,
    stats: JournalStats,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the given context.
    ///
    /// An existing file is recovered line by line: the longest valid
    /// prefix is trusted, the torn tail (if any) is truncated off and
    /// counted. A file whose header is torn, missing or of an unknown
    /// schema is restarted from scratch — there is nothing trustworthy
    /// to keep. Run lines are read by their fixed layout and points are
    /// verified by their checksums; no payload is parsed. A point with
    /// several lines counts once and holds the payload of its last.
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
            tail: None,
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
            let mut header = String::new();
            push_frame_line(&mut header, |out| {
                out.push_str(&header_json(context));
            });
            journal.append(&header)?;
            journal.sync()?;
        }
        Ok(journal)
    }

    /// Indexes the longest valid prefix of `bytes` — the header, then
    /// run and point lines — and returns where it ends: 0 when there is
    /// no valid header, which also leaves nothing indexed. The journal's
    /// tail is left at the run the prefix ends in.
    fn recover(&mut self, bytes: &[u8]) -> Result<usize, PitonError> {
        let Some(mut valid_end) = self.header(bytes)? else {
            return Ok(0);
        };
        let mut canonical = String::new();
        let mut tail = None;
        loop {
            let rest = &bytes[valid_end..];
            // Most lines are the next point of the current run.
            if let Some(run) = tail {
                if let Some(len) = self.point_line(run, rest) {
                    tail = Some(Run {
                        next: run.next + 1,
                        ..run
                    });
                    valid_end += len;
                    continue;
                }
            }
            let Some((run, len)) = self.run_line(rest, &mut canonical) else {
                break;
            };
            tail = Some(run);
            valid_end += len;
        }
        self.tail = tail;
        Ok(valid_end)
    }

    /// Reads the header line at the front of `bytes`: its length, or
    /// `None` when it is torn, malformed or of another schema.
    fn header(&self, bytes: &[u8]) -> Result<Option<usize>, PitonError> {
        let Some((json, len)) = framed_line(bytes) else {
            return Ok(None);
        };
        let Ok(v) = json::parse(json) else {
            return Ok(None);
        };
        if v.get("schema").and_then(Value::as_str) != Some(JOURNAL_SCHEMA) {
            return Ok(None);
        }
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
        Ok(Some(len))
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

    /// Reads the run line at the front of `rest`: the run it starts and
    /// the line's length, or `None` when the line is not exactly one
    /// [`write_run_line`] writes.
    fn run_line(&mut self, rest: &[u8], canonical: &mut String) -> Option<(Run, usize)> {
        let (json, len) = framed_line(rest)?;
        let (section, first) = run_fields(json)?;
        canonical.clear();
        write_run_line(canonical, &section, first);
        if json != canonical.as_str() {
            return None;
        }
        let run = Run {
            slot: self.slot(&section),
            seed: point_seed(&self.context, &section),
            next: first,
        };
        Some((run, len))
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

    fn append(&mut self, lines: &str) -> Result<(), PitonError> {
        self.file
            .write_all(lines.as_bytes())
            .map_err(|e| PitonError::codec(format!("journal {}: append: {e}", self.path.display())))
    }

    /// The context spec this journal is bound to.
    #[must_use]
    pub fn context(&self) -> &str {
        &self.context
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

    /// Appends one completed point: [`Journal::record_text`] of the
    /// value's canonical JSON.
    ///
    /// # Errors
    ///
    /// As [`Journal::record_text`].
    pub fn record(
        &mut self,
        section: &str,
        index: usize,
        payload: &Value,
    ) -> Result<(), PitonError> {
        self.record_text(section, index, &payload.render())
    }

    /// Appends one completed point's payload text — the canonical JSON
    /// ([`Value::render`]) of its value, stored as given: a run line
    /// when the point is not the next index of the run the file ends
    /// in, then its point line. Not fsync'd — call [`Journal::sync`] at
    /// the batch boundary (and before any deliberate abort).
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the write fails, or when the point
    /// does not fit its section's table: an index of 2^24 or more, or a
    /// section past 4 GiB of payload text.
    pub fn record_text(
        &mut self,
        section: &str,
        index: usize,
        payload: &str,
    ) -> Result<(), PitonError> {
        let slot = self.slot(section);
        if !self.sections[slot].fits(index, payload) {
            return Err(PitonError::codec(format!(
                "journal {}: point {section}:{index} does not fit the section's table",
                self.path.display()
            )));
        }
        let mut lines = String::new();
        let run = match self.tail {
            Some(run) if run.slot == slot && run.next == index => run,
            _ => {
                push_frame_line(&mut lines, |out| write_run_line(out, section, index));
                Run {
                    slot,
                    seed: point_seed(&self.context, section),
                    next: index,
                }
            }
        };
        push_point_line(&mut lines, run.seed, index, payload);
        self.append(&lines)?;
        self.sections[slot].insert(index, payload);
        self.tail = Some(Run {
            next: index + 1,
            ..run
        });
        self.stats.appended += 1;
        Ok(())
    }

    /// Forces every appended line onto disk (the batch boundary).
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), PitonError> {
        self.file
            .sync_data()
            .map_err(|e| PitonError::codec(format!("journal {}: sync: {e}", self.path.display())))
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

    /// `json` framed under its own checksum, spelled out.
    fn framed(json: &str) -> String {
        format!("{:016x} {json}\n", fnv64(json.as_bytes()))
    }

    /// The header line of a journal for `context`, spelled out.
    fn header_line(context: &str) -> String {
        framed(&format!(
            "{{\"schema\":\"piton-journal/v3\",\"context\":\"{context}\"}}"
        ))
    }

    /// The run line of a plain `section` starting at `first`, spelled
    /// out.
    fn run_line(section: &str, first: usize) -> String {
        framed(&format!("{{\"section\":\"{section}\",\"first\":{first}}}"))
    }

    /// The point line of `payload` at `section:index` under `context`,
    /// spelled out.
    fn point_line(context: &str, section: &str, index: usize, payload: &str) -> String {
        let bound = format!("{context}\u{1f}{section}\u{1f}{index}\u{1f}{payload}");
        format!("{:016x} {payload}\n", fnv64(bound.as_bytes()))
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
    fn ascending_appends_write_the_header_one_run_line_per_gap_then_points() {
        const CTX: &str = "ascending-ctx";
        let path = temp_path("ascending");
        let _ = std::fs::remove_file(&path);
        let points = [
            ("noc", 0, 0.5),
            ("noc", 1, 1.5),
            ("noc", 2, 2.5),
            ("noc", 5, 5.5),
            ("noc", 6, 6.5),
            ("scaling", 0, 7.5),
        ];
        {
            let mut j = Journal::open(&path, CTX).unwrap();
            for (section, index, v) in points {
                j.record(section, index, &v.to_value()).unwrap();
            }
            j.sync().unwrap();
        }
        let point = |section: &str, index: usize, v: f64| {
            point_line(CTX, section, index, &v.to_value().render())
        };
        let want = [
            header_line(CTX),
            run_line("noc", 0),
            point("noc", 0, 0.5),
            point("noc", 1, 1.5),
            point("noc", 2, 2.5),
            run_line("noc", 5),
            point("noc", 5, 5.5),
            point("noc", 6, 6.5),
            run_line("scaling", 0),
            point("scaling", 0, 7.5),
        ]
        .concat();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        let mut j = Journal::open(&path, CTX).unwrap();
        assert_eq!(j.stats().recovered, 6);
        assert_eq!(j.stats().torn, 0);
        for (section, index, v) in points {
            assert_eq!(served::<f64>(&mut j, section, index), Some(v));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_gap_or_an_index_at_or_below_the_tail_adds_exactly_one_run_line() {
        const CTX: &str = "tail-ctx";
        let path = temp_path("tail");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, CTX).unwrap();
        j.record("noc", 3, &0.5f64.to_value()).unwrap();
        // (section, index, whether a run line comes first), each after
        // the one before it.
        for (section, index, run) in [
            ("noc", 4, false), // the tail's next index
            ("noc", 4, true),  // at the tail
            ("noc", 2, true),  // below it
            ("noc", 3, false),
            ("noc", 9, true), // a gap
            ("noc", 10, false),
            ("epi", 11, true), // the next index, of another section
        ] {
            let before = std::fs::metadata(&path).unwrap().len() as usize;
            let v = index as f64 + 0.25;
            j.record(section, index, &v.to_value()).unwrap();
            let added = std::fs::read_to_string(&path).unwrap()[before..].to_owned();
            let mut want = String::new();
            if run {
                want.push_str(&run_line(section, index));
            }
            want.push_str(&point_line(CTX, section, index, &v.to_value().render()));
            assert_eq!(added, want, "{section}:{index}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_repeated_point_serves_its_later_payload_after_reopen() {
        let path = temp_path("repeat");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            j.record("noc", 0, &1.5f64.to_value()).unwrap();
            j.record("noc", 1, &2.5f64.to_value()).unwrap();
            j.record("noc", 0, &3.5f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            assert_eq!(j.stats().recovered, 2);
            assert_eq!(j.serve("noc", 0), Some("3.5"));
            assert_eq!(j.serve("noc", 1), Some("2.5"));
            // Once more, continuing the run recovery ended in.
            j.record("noc", 1, &4.5f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        let mut j = Journal::open(&path, "ctx").unwrap();
        assert_eq!(j.stats().recovered, 2);
        assert_eq!(j.stats().torn, 0);
        assert_eq!(j.serve("noc", 0), Some("3.5"));
        assert_eq!(j.serve("noc", 1), Some("4.5"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appending_the_first_lost_index_after_a_cut_mid_run_writes_no_run_line() {
        const CTX: &str = "cut-ctx";
        let path = temp_path("cut-run");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, CTX).unwrap();
            for i in 0..5usize {
                j.record("noc", i, &(i as f64 + 0.5).to_value()).unwrap();
            }
            j.sync().unwrap();
        }
        let whole = std::fs::read_to_string(&path).unwrap();
        let lost: Vec<String> = (3..5usize)
            .map(|i| point_line(CTX, "noc", i, &(i as f64 + 0.5).to_value().render()))
            .collect();
        // Cut inside point 3's line: points 0-2 and their run stay.
        let cut = whole.len() - lost[1].len() - 3;
        std::fs::write(&path, &whole.as_bytes()[..cut]).unwrap();
        let mut j = Journal::open(&path, CTX).unwrap();
        assert_eq!(j.stats().recovered, 3);
        assert_eq!(j.stats().torn as usize, lost[0].len() - 3);
        for (i, line) in (3..5usize).zip(&lost) {
            let before = std::fs::metadata(&path).unwrap().len() as usize;
            j.record("noc", i, &(i as f64 + 0.5).to_value()).unwrap();
            let added = std::fs::read_to_string(&path).unwrap()[before..].to_owned();
            assert_eq!(&added, line, "noc:{i}");
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), whole);
        let _ = std::fs::remove_file(&path);
    }

    /// A `piton-journal/v1` file of records, as builds before this
    /// layout wrote it: `noc` 0 and 1 under the context `old-ctx`.
    const V1_FILE: &str = concat!(
        "4ed1356ea425d3e0 {\"schema\":\"piton-journal/v1\",\"context\":\"old-ctx\"}\n",
        "ea50174fb45c10d3 {\"key\":16676036298523884806,\"section\":\"noc\",\"index\":0,\"payload\":1.5}\n",
        "c7f50b4396068667 {\"key\":6775257370581777581,\"section\":\"noc\",\"index\":1,\"payload\":2.5}\n",
    );

    /// The same two points in the `piton-snapshot/v1` file those builds
    /// compacted it into.
    const SNAPSHOT_V1_FILE: &str = concat!(
        "c6b7a8e72dbeb8a5 {\"schema\":\"piton-snapshot/v1\",\"context\":\"old-ctx\"}\n",
        "e94ba96603580038 {\"section\":\"noc\",\"first\":0}\n",
        "4ce70614f2382a4b 1.5\n",
        "bce18d03d95280d9 2.5\n",
    );

    /// The head of a `piton-journal/v2` file that `reproduce quick
    /// --journal` wrote: its `scaling` points 0-4 are positions in
    /// Figure 13's 7-core subset (point 4 is Int 1 T/C on 17 cores),
    /// not canonical grid indices (where 4 is Int 1 T/C on 5 cores).
    const V2_QUICK_FILE: &str = concat!(
        "8353dfd4b9080f7c {\"schema\":\"piton-journal/v2\",\"context\":\"piton/0.1.0|fidelity=quick|effects=none|backend=cycle\"}\n",
        "a8e90c6e8f5b0f75 {\"section\":\"scaling\",\"first\":0}\n",
        "36b836178eaf7dda 1.93675\n",
        "a730b40f6113c614 2.12175\n",
        "dec2b803fcbf944a 2.3076666666666665\n",
        "1d1138d9b56b0594 2.4943750000000002\n",
        "f4d2d3b62a36b659 2.6820833333333334\n",
    );

    #[test]
    fn files_of_the_older_layouts_restart_with_a_fresh_header() {
        let path = temp_path("older");
        let quick = run_context("quick", None, Backend::Cycle);
        for (old, context, section) in [
            (V1_FILE, "old-ctx", "noc"),
            (SNAPSHOT_V1_FILE, "old-ctx", "noc"),
            (V2_QUICK_FILE, quick.as_str(), "scaling"),
        ] {
            std::fs::write(&path, old).unwrap();
            let mut j = Journal::open(&path, context).unwrap();
            assert_eq!(j.stats().recovered, 0, "{context}");
            assert_eq!(j.stats().torn, old.len() as u64, "{context}");
            assert_eq!(j.serve(section, 0), None);
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                header_line(context)
            );
        }
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
        assert_eq!(line_ends.len(), 10); // header + run line + 8 points
                                         // Truncate at every byte offset: recovery must always yield
                                         // exactly the complete-point prefix — never a panic, never a
                                         // bogus value, never a dropped complete point.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut j = Journal::open(&path, "ctx").unwrap();
            let whole_lines = line_ends.iter().filter(|&&e| e <= cut).count();
            let expected = whole_lines.saturating_sub(2); // minus header and run line
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
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "quick|fault=none").unwrap();
            j.record("epi", 0, &1.0f64.to_value()).unwrap();
            j.sync().unwrap();
        }
        let err = Journal::open(&path, "full|fault=none").unwrap_err();
        assert!(matches!(err, PitonError::Codec { .. }), "{err:?}");
        assert!(err.to_string().contains("context mismatch"), "{err}");
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
        // Keys are sent in frames: the layout they hash is fixed.
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

    /// The parse-based run-line check, the oracle the layout reader is
    /// held against: parse the whole line, take `section` and `first`
    /// from the value, and require exactly the line [`write_run_line`]
    /// writes for them.
    fn parsed_run(json: &str) -> Option<(String, usize)> {
        let v = json::parse(json).ok()?;
        let section = v.get("section").and_then(Value::as_str)?;
        let first = usize::try_from(v.get("first").and_then(Value::as_u64)?).ok()?;
        let mut canonical = String::new();
        write_run_line(&mut canonical, section, first);
        (canonical == json).then(|| (section.to_owned(), first))
    }

    #[test]
    fn layout_reader_decides_every_mutated_run_line_as_the_parse_oracle() {
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
        let runs = [
            ("noc", 2),
            ("epi", 12),
            ("q\"b\\s\nt", 3),
            ("dé\u{1F980}", 40),
            ("design_space", 104_999),
            ("scaling", 0),
        ];
        let subs = [
            "\"", "\\", "{", "}", ",", ":", " ", "0", "9", "-", ".", "e", "a", "é",
        ];
        let (mut checked, mut trusted) = (0usize, 0usize);
        for (section, first) in runs {
            let mut line = String::new();
            write_run_line(&mut line, section, first);
            let bytes = line.as_bytes();
            for at in 0..=bytes.len() {
                for sub in subs {
                    for replace in [true, false] {
                        if replace && at == bytes.len() {
                            continue;
                        }
                        let tail = &bytes[at + usize::from(replace)..];
                        let mutated = [&bytes[..at], sub.as_bytes(), tail].concat();
                        // A substitution inside a multibyte character
                        // leaves no UTF-8, which framing alone refuses.
                        let Ok(json) = String::from_utf8(mutated) else {
                            continue;
                        };
                        // After the line, a point of the run the oracle
                        // reads, or else of the unmutated run: a line
                        // the reader wrongly trusts shows in what it
                        // keeps.
                        let oracle = parsed_run(&json);
                        let (point_section, point_index) = oracle
                            .clone()
                            .unwrap_or_else(|| (section.to_owned(), first));
                        let framed_run = framed(&json);
                        let point = point_line(CTX, &point_section, point_index, "7.5");
                        let mut file = clean.clone();
                        file.extend_from_slice(framed_run.as_bytes());
                        file.extend_from_slice(point.as_bytes());
                        std::fs::write(&path, &file).unwrap();
                        let mut j = Journal::open(&path, CTX).unwrap();
                        let stats = j.stats();
                        match oracle {
                            Some((section, index)) => {
                                let fresh = !(section == "noc" && index < 2);
                                assert_eq!(stats.recovered, 2 + u64::from(fresh), "{json}");
                                assert_eq!(stats.torn, 0, "{json}");
                                assert_eq!(j.serve(&section, index), Some("7.5"), "{json}");
                                for (i, v) in [(0, "1.5"), (1, "2.5")] {
                                    if fresh || index != i {
                                        assert_eq!(j.serve("noc", i), Some(v), "{json}");
                                    }
                                }
                                trusted += 1;
                            }
                            None => {
                                assert_eq!(stats.recovered, 2, "{json}");
                                let torn = framed_run.len() + point.len();
                                assert_eq!(stats.torn, torn as u64, "{json}");
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

    /// The damage file's appends: five points in four sections, whose
    /// names hold `"`, `\\` and `é`; one payload is NaN and one index
    /// is the last of the `design_space` grid. `epi` 0 comes after
    /// `epi` 1, which is then recorded again, so run lines sit mid-file.
    fn damage_appends() -> [(&'static str, usize, Value); 6] {
        [
            ("noc", 3, 0.75f64.to_value()),
            ("epi", 1, (-2.0f64).to_value()),
            (
                "epi",
                0,
                WithError {
                    value: 1.25,
                    error: 0.5,
                }
                .to_value(),
            ),
            ("epi", 1, 4.5f64.to_value()),
            ("dé\"s\\", 7, f64::NAN.to_value()),
            ("design_space", 104_999, 3.5e-9f64.to_value()),
        ]
    }

    /// Records [`damage_appends`] into a fresh journal at `path`. Returns
    /// the file's bytes and, per line, where it ends and which append's
    /// point it holds (`None` for the header and run lines).
    fn damage_file(path: &Path, context: &str) -> (Vec<u8>, Vec<(usize, Option<usize>)>) {
        let _ = std::fs::remove_file(path);
        let mut j = Journal::open(path, context).unwrap();
        let mut lines = vec![(std::fs::metadata(path).unwrap().len() as usize, None)];
        for (n, (section, index, payload)) in damage_appends().iter().enumerate() {
            j.record(section, *index, payload).unwrap();
            let bytes = std::fs::read(path).unwrap();
            let start = lines.last().unwrap().0;
            let added: Vec<usize> = bytes[start..]
                .split_inclusive(|&b| b == b'\n')
                .map(<[u8]>::len)
                .collect();
            for (k, len) in added.iter().enumerate() {
                let end = lines.last().unwrap().0 + len;
                lines.push((end, (k + 1 == added.len()).then_some(n)));
            }
        }
        j.sync().unwrap();
        let bytes = std::fs::read(path).unwrap();
        // A run line before every append but the repeat of `epi` 1.
        assert_eq!(lines.len(), 1 + 5 + 6);
        assert_eq!(lines.last().unwrap().0, bytes.len());
        (bytes, lines)
    }

    /// Opens the journal at `path` and checks that it holds exactly the
    /// points of the first `kept` lines of the damage file (`lines`),
    /// each with the payload of its last line there, and that the file
    /// now reads `on_disk`.
    fn assert_kept(
        path: &Path,
        context: &str,
        lines: &[(usize, Option<usize>)],
        kept: usize,
        on_disk: &[u8],
        what: &str,
    ) {
        let appends = damage_appends();
        let mut want: Vec<((&str, usize), String)> = Vec::new();
        for &(_, n) in &lines[..kept] {
            let Some(n) = n else { continue };
            let (section, index, payload) = &appends[n];
            want.retain(|(point, _)| *point != (*section, *index));
            want.push(((section, *index), payload.render()));
        }
        let mut j = Journal::open(path, context).unwrap();
        assert_eq!(j.stats().recovered as usize, want.len(), "{what}");
        for (section, index, _) in &appends {
            let expected = want
                .iter()
                .find(|(point, _)| *point == (*section, *index))
                .map(|(_, payload)| payload.as_str());
            assert_eq!(
                j.serve(section, *index),
                expected,
                "{what}: {section}:{index}"
            );
        }
        assert_eq!(std::fs::read(path).unwrap(), on_disk, "{what}");
    }

    #[test]
    fn a_cut_anywhere_keeps_exactly_the_points_of_the_whole_lines_before_it() {
        const CTX: &str = "cut-ctx";
        let path = temp_path("cut-damage");
        let (clean, lines) = damage_file(&path, CTX);
        for cut in 0..=clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let whole = lines.iter().filter(|&&(end, _)| end <= cut).count();
            // A cut header restarts the file with a fresh one.
            let on_disk = &clean[..lines[whole.max(1) - 1].0];
            assert_kept(&path, CTX, &lines, whole, on_disk, &format!("cut={cut}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_bit_anywhere_loses_exactly_its_line_and_the_lines_after() {
        const CTX: &str = "flip-ctx";
        let path = temp_path("bitflip");
        let (clean, lines) = damage_file(&path, CTX);
        for at in 0..clean.len() {
            // The lines wholly before the damaged byte survive; a hit
            // header restarts the file with a fresh one.
            let line = lines.iter().filter(|&&(end, _)| end <= at).count();
            let on_disk = &clean[..lines[line.max(1) - 1].0];
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[at] ^= 1 << bit;
                std::fs::write(&path, &damaged).unwrap();
                let what = format!("at={at} bit={bit}");
                assert_kept(&path, CTX, &lines, line, on_disk, &what);
                let torn = Journal::open(&path, CTX).unwrap().stats().torn;
                assert_eq!(torn, 0, "{what}: the damage was cut off once");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_cut_file_serves_its_kept_points_and_later_appends() {
        const CTX: &str = "cut-append";
        let path = temp_path("cut-append");
        let whole_path = temp_path("cut-append-whole");
        let (clean, lines) = damage_file(&path, CTX);
        let appends = damage_appends();
        let extra = ("epi", 2, 4.5f64.to_value());
        // A journal that recorded every append, then the extra point.
        let whole = {
            let (_, _) = damage_file(&whole_path, CTX);
            let mut j = Journal::open(&whole_path, CTX).unwrap();
            j.record(extra.0, extra.1, &extra.2).unwrap();
            j.sync().unwrap();
            std::fs::read(&whole_path).unwrap()
        };
        for cut in 0..=clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            // The appends whose point line is whole survive the cut.
            let kept = lines
                .iter()
                .filter(|&&(end, n)| end <= cut && n.is_some())
                .count();
            {
                // Append the lost points again, then the extra one.
                let mut j = Journal::open(&path, CTX).unwrap();
                for (section, index, payload) in appends[kept..].iter().chain([&extra]) {
                    j.record(section, *index, payload).unwrap();
                }
                j.sync().unwrap();
            }
            let mut j = Journal::open(&path, CTX).unwrap();
            assert_eq!(j.stats().torn, 0, "cut={cut}");
            assert_eq!(j.stats().recovered, 6, "cut={cut}");
            for n in [0, 2, 3, 4, 5] {
                let (section, index, payload) = &appends[n];
                let want = payload.render();
                assert_eq!(j.serve(section, *index), Some(want.as_str()), "cut={cut}");
            }
            assert_eq!(j.serve("epi", 2), Some("4.5"), "cut={cut}");
            // The appends continue the kept file exactly as the
            // uninterrupted journal went on.
            assert_eq!(std::fs::read(&path).unwrap(), whole, "cut={cut}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&whole_path);
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

            /// Append N points, tear the file at a random byte offset:
            /// recovery yields exactly the points whose whole line
            /// survived, each with its exact payload.
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
                let expected = whole_lines.saturating_sub(2); // header and run line
                let mut j = Journal::open(&path, "prop-ctx").unwrap();
                prop_assert_eq!(j.stats().recovered as usize, expected);
                for (i, &v) in values.iter().enumerate().take(expected) {
                    let got: f64 = served(&mut j, "noc", i).unwrap();
                    prop_assert_eq!(got, v, "point {}", i);
                }
                prop_assert!(j.serve("noc", expected).is_none());
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
