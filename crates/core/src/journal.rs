//! Write-ahead, content-addressed result journal — the durability
//! layer under `runner::try_sweep_journaled`.
//!
//! The paper's characterization campaign is days of measurement across
//! thousands of grid points; a killed process used to throw away every
//! completed point. A [`Journal`] makes sweep results durable: every
//! completed grid point is appended to a `piton-journal/v1` file as a
//! self-checksummed record *before* the run proceeds, so a crashed run
//! relaunched with `--resume` serves completed points from disk and
//! recomputes only the missing ones. Because every sweep is already
//! byte-deterministic at any `--jobs` level, a resumed run's output is
//! **byte-identical** to an uninterrupted one.
//!
//! A journal belongs to whoever opened it (`reproduce`, a test, the
//! serve cache) and is lent to sweeps as `Option<&Mutex<Journal>>`.
//!
//! # File format (`piton-journal/v1`)
//!
//! One line per entry, each framed as
//! `<16-hex FNV-1a-64 of the JSON bytes> <compact JSON>\n`:
//!
//! ```text
//! f33c08cbdbd51271 {"schema":"piton-journal/v1","context":"<context spec>"}
//! 68b329da9893e340 {"key":1234,"section":"epi","index":0,"payload":{...}}
//! ...
//! ```
//!
//! The header pins the *context* — experiment fidelity, fault-plan
//! effects, backend, code version and, for analytic runs, the model's
//! coefficient digest — and every record's `key` is the
//! 64-bit content hash of (section, index, context), so a journal can
//! never leak results into a run configured differently. `--jobs` is
//! deliberately **not** part of the context: results are
//! jobs-invariant, so a journal written at `--jobs 4` serves a
//! `--jobs 1` resume.
//!
//! # Torn-write recovery
//!
//! Recovery trusts exactly the longest valid prefix: the first line
//! that fails its checksum, fails to parse, carries a foreign key, is
//! not laid out as [`Journal::record`] writes it, or lacks its trailing
//! newline marks the torn tail, which is truncated
//! off (and counted in [`JournalStats::torn`]) — torn records are
//! *recomputed, never trusted*. Appends are batched and fsync'd at
//! sweep boundaries, plus immediately before an injected `crash=`
//! abort so the crashed point itself survives.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use piton_arch::config::Backend;
use piton_arch::error::PitonError;
use piton_arch::units::Watts;
use piton_board::fault::FaultPlan;
use piton_obs::json::{self, ObjectBuilder, Value};
use piton_obs::manifest::JournalStats;

use crate::measure::WithError;

/// The schema identifier in every journal header.
pub const JOURNAL_SCHEMA: &str = "piton-journal/v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash over `bytes`.
fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
/// also records the model's coefficient digest, so a coefficient change
/// never serves results of the old table.
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

/// The content-addressed key of one grid point under one context: the
/// FNV-1a-64 of `section 0x1f decimal(index) 0x1f context`.
#[must_use]
pub fn point_key(context: &str, section: &str, index: usize) -> u64 {
    let mut digits = [0u8; 20]; // u64::MAX has 20 decimal digits
    let mut start = digits.len();
    let mut rest = index;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let h = fnv64_extend(FNV_OFFSET, section.as_bytes());
    let h = fnv64_extend(h, &[0x1f]);
    let h = fnv64_extend(h, &digits[start..]);
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

/// Appends one checksummed line, `<16-hex FNV-1a-64> <json>\n`, whose
/// JSON text `write_json` appends in place — the framing shared by
/// journal records and `piton-serve` response frames.
pub fn push_frame_line(out: &mut String, write_json: impl FnOnce(&mut String)) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let start = out.len();
    out.push_str("0000000000000000 ");
    write_json(out);
    let sum = fnv64(&out.as_bytes()[start + 17..]);
    let mut hex = [0u8; 16];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = HEX[(sum >> (60 - 4 * i) & 0xf) as usize];
    }
    out.replace_range(
        start..start + 16,
        std::str::from_utf8(&hex).expect("hex digits are ASCII"),
    );
    out.push('\n');
}

/// A record line's JSON up to its payload text:
/// `{"key":K,"section":S,"index":I,"payload":`. [`Journal::record`]
/// writes it and recovery checks it, so a record's payload text is
/// exactly what lies between this head and the closing `}`.
fn write_record_head(out: &mut String, key: u64, section: &str, index: usize) {
    let _ = write!(out, "{{\"key\":{key},\"section\":");
    json::write_escaped(out, section);
    let _ = write!(out, ",\"index\":{index},\"payload\":");
}

/// Splits a framed line into its verified JSON text. `None` for any
/// framing violation: missing separator, non-hex checksum, mismatch.
#[must_use]
pub fn unframe_line(line: &[u8]) -> Option<&str> {
    if line.len() < 18 || line[16] != b' ' {
        return None;
    }
    let sum = std::str::from_utf8(&line[..16]).ok()?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    let json = &line[17..];
    if fnv64(json) != sum {
        return None;
    }
    std::str::from_utf8(json).ok()
}

/// A write-ahead result journal bound to one file and one context.
///
/// Completed points are held as their payload's canonical JSON text
/// ([`Value::render`]) — the bytes their record line carries — so a
/// lookup hands out stored text without allocating or re-rendering.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    context: String,
    file: File,
    /// Payload text by section, then grid index.
    entries: HashMap<String, HashMap<usize, Box<str>>>,
    stats: JournalStats,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the given context.
    ///
    /// An existing file is recovered record by record: the longest
    /// valid prefix is trusted, the torn tail (if any) is truncated
    /// off and counted. A file whose header is torn or missing is
    /// restarted from scratch — there is nothing trustworthy to keep.
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
            entries: HashMap::new(),
            stats: JournalStats::default(),
        };

        let mut valid_end = 0usize;
        let mut saw_header = false;
        let mut cursor = 0usize;
        let mut head = String::new();
        while cursor < bytes.len() {
            let Some(nl) = bytes[cursor..].iter().position(|&b| b == b'\n') else {
                break; // unterminated tail line: torn by definition
            };
            let line = &bytes[cursor..cursor + nl];
            let Some(json) = unframe_line(line) else {
                break;
            };
            let Ok(v) = json::parse(json) else { break };
            if !saw_header {
                let Some(schema) = v.get("schema").and_then(Value::as_str) else {
                    break;
                };
                if schema != JOURNAL_SCHEMA {
                    break;
                }
                let Some(ctx) = v.get("context").and_then(Value::as_str) else {
                    break;
                };
                if ctx != context {
                    return Err(PitonError::codec(format!(
                        "journal {}: context mismatch: file was recorded under {ctx:?}, \
                         this run is {context:?}",
                        path.display()
                    )));
                }
                saw_header = true;
            } else {
                let (Some(key), Some(section), Some(index)) = (
                    v.get("key").and_then(Value::as_u64),
                    v.get("section").and_then(Value::as_str),
                    v.get("index").and_then(Value::as_u64),
                ) else {
                    break;
                };
                let index = index as usize;
                if key != point_key(context, section, index) {
                    break; // foreign or corrupted key: never trust it
                }
                // Only a line laid out as `record` writes it — the head,
                // one payload value, `}` — yields its payload's text;
                // any other layout is foreign.
                head.clear();
                write_record_head(&mut head, key, section, index);
                let Some(payload) = json
                    .strip_prefix(head.as_str())
                    .and_then(|rest| rest.strip_suffix('}'))
                    .filter(|_| matches!(&v, Value::Object(fields) if fields.len() == 4))
                else {
                    break;
                };
                journal.insert(section, index, payload.into());
            }
            cursor += nl + 1;
            valid_end = cursor;
        }
        journal.stats.torn = (bytes.len() - valid_end) as u64;
        // Distinct points: a point recorded twice counts once.
        journal.stats.recovered = journal.entries.values().map(HashMap::len).sum::<usize>() as u64;

        journal
            .file
            .set_len(valid_end as u64)
            .map_err(|e| io("truncate torn tail", e))?;
        journal
            .file
            .seek(SeekFrom::Start(valid_end as u64))
            .map_err(|e| io("seek", e))?;
        if !saw_header {
            // Fresh file (or nothing salvageable): restart it.
            journal.entries.clear();
            journal.stats.recovered = 0;
            journal.file.set_len(0).map_err(|e| io("restart", e))?;
            journal
                .file
                .seek(SeekFrom::Start(0))
                .map_err(|e| io("seek", e))?;
            let header = ObjectBuilder::new()
                .field("schema", Value::Str(JOURNAL_SCHEMA.to_owned()))
                .field("context", Value::Str(context.to_owned()))
                .build()
                .render();
            journal.write_line(|out| out.push_str(&header))?;
            journal.sync()?;
        }
        Ok(journal)
    }

    fn insert(&mut self, section: &str, index: usize, payload: Box<str>) {
        match self.entries.get_mut(section) {
            Some(points) => {
                points.insert(index, payload);
            }
            None => {
                self.entries
                    .insert(section.to_owned(), HashMap::from([(index, payload)]));
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
        self.entries
            .get(section)
            .is_some_and(|points| points.contains_key(&index))
    }

    /// Looks up a completed point's payload text — the canonical JSON
    /// of the [`Value`] it was recorded with — counting a successful hit
    /// as served.
    pub fn serve(&mut self, section: &str, index: usize) -> Option<&str> {
        let payload = self.entries.get(section)?.get(&index)?;
        self.stats.served += 1;
        Some(payload)
    }

    /// Appends one completed point as a write-ahead record. Not
    /// fsync'd — call [`Journal::sync`] at the batch boundary (and
    /// before any deliberate abort).
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the write fails.
    pub fn record(
        &mut self,
        section: &str,
        index: usize,
        payload: &Value,
    ) -> Result<(), PitonError> {
        let key = point_key(&self.context, section, index);
        let payload = payload.render();
        self.write_line(|out| {
            write_record_head(out, key, section, index);
            out.push_str(&payload);
            out.push('}');
        })?;
        self.insert(section, index, payload.into_boxed_str());
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
