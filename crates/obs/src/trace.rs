//! Structured trace events, ring-buffered collection, and JSONL codec.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** Every instrumentation site in the
//!    simulator sits behind one of two gates, both reads of *this
//!    thread's* collector mask — a `const`-initialised, destructor-free
//!    thread-local that is 0 without a collector. Sites whose event is
//!    cheap to build are `if trace::active() { trace::emit(..) }`
//!    (mask ≠ 0); sites whose event allocates (`Retire` formats its
//!    opcode name) are `if trace::wants(SUB_..) { .. }` (mask has the
//!    bit), so an event the mask would drop is never built. Either is
//!    one thread-local load and one branch, and a collector on another
//!    thread opens neither. Both gates only ever skip work — no
//!    simulator decision may read them. `reproduce` stdout must stay
//!    byte-identical and the NoC hot loop within noise of the
//!    pre-observability binary.
//! 2. **Deterministic per-thread streams.** Collectors are
//!    thread-local, so sweep workers never interleave events. A
//!    file-backed collector ([`to_file`]) shares its JSONL buffer with
//!    the collectors its sweep workers inherit through
//!    [`crate::Scope`]; each worker's ring flushes into it as one
//!    contiguous block when the worker's scope ends, the owner's ring
//!    last, and the owner writes the file.
//! 3. **Bounded memory.** The collector is a ring: past `cap` events,
//!    the oldest are dropped and counted in `dropped`, never
//!    reallocated on the hot path.
//!
//! NoC emit sites have no cycle argument (the fabric API is
//! cycle-agnostic), so the machine publishes an *ambient cycle clock*
//! ([`set_cycle`]) that hop events read back.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::{self, ObjectBuilder, Value};

/// Subsystem filter bits for [`TraceSpec::mask`].
pub const SUB_RETIRE: u32 = 1 << 0;
/// Cache/directory transition events.
pub const SUB_CACHE: u32 = 1 << 1;
/// NoC flit-hop events.
pub const SUB_NOC: u32 = 1 << 2;
/// Board ADC conversion events.
pub const SUB_ADC: u32 = 1 << 3;
/// Cycle-engine mode-switch events.
pub const SUB_ENGINE: u32 = 1 << 4;
/// DVFS governor operating-point changes.
pub const SUB_GOVERNOR: u32 = 1 << 5;
/// Result-journal serve/append decisions.
pub const SUB_JOURNAL: u32 = 1 << 6;
/// All subsystems.
pub const SUB_ALL: u32 =
    SUB_RETIRE | SUB_CACHE | SUB_NOC | SUB_ADC | SUB_ENGINE | SUB_GOVERNOR | SUB_JOURNAL;

/// Which cache level an event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLevel {
    L1I,
    L1D,
    L15,
    L2,
    Memory,
}

impl CacheLevel {
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CacheLevel::L1I => "l1i",
            CacheLevel::L1D => "l1d",
            CacheLevel::L15 => "l15",
            CacheLevel::L2 => "l2",
            CacheLevel::Memory => "mem",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "l1i" => CacheLevel::L1I,
            "l1d" => CacheLevel::L1D,
            "l15" => CacheLevel::L15,
            "l2" => CacheLevel::L2,
            "mem" => CacheLevel::Memory,
            _ => return None,
        })
    }
}

/// What happened at that cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKind {
    Hit,
    Fill,
    Upgrade,
    Invalidate,
    Writeback,
    Atomic,
}

impl CacheKind {
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CacheKind::Hit => "hit",
            CacheKind::Fill => "fill",
            CacheKind::Upgrade => "upgrade",
            CacheKind::Invalidate => "invalidate",
            CacheKind::Writeback => "writeback",
            CacheKind::Atomic => "atomic",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "hit" => CacheKind::Hit,
            "fill" => CacheKind::Fill,
            "upgrade" => CacheKind::Upgrade,
            "invalidate" => CacheKind::Invalidate,
            "writeback" => CacheKind::Writeback,
            "atomic" => CacheKind::Atomic,
            _ => return None,
        })
    }
}

/// Which cycle engine a `run` call entered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Batched dense polling over the live core set.
    Dense,
    /// The reference per-cycle-polling engine.
    Naive,
}

impl EngineMode {
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            EngineMode::Dense => "dense",
            EngineMode::Naive => "naive",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "dense" => EngineMode::Dense,
            "naive" => EngineMode::Naive,
            _ => return None,
        })
    }
}

/// What the result journal did with a grid point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalKind {
    /// The point was served from a recovered journal record.
    Serve,
    /// The point was computed and its record appended.
    Append,
}

impl JournalKind {
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            JournalKind::Serve => "serve",
            JournalKind::Append => "append",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "serve" => JournalKind::Serve,
            "append" => JournalKind::Append,
            _ => return None,
        })
    }
}

/// One structured trace event. Every variant carries its cycle stamp
/// and the identity (tile or monitor channel) it concerns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction left the pipeline on `tile`/`thread`.
    Retire {
        cycle: u64,
        tile: u32,
        thread: u32,
        op: String,
        pc: u64,
    },
    /// A cache or directory transition at `level` for `addr`, observed
    /// from `tile`.
    Cache {
        cycle: u64,
        tile: u32,
        level: CacheLevel,
        kind: CacheKind,
        addr: u64,
    },
    /// One flit-group hop `from -> to` on network `noc`.
    NocHop {
        cycle: u64,
        noc: u32,
        from: u32,
        to: u32,
        flits: u32,
    },
    /// One ADC conversion on the monitor channel seeded `channel`
    /// (the channel's stable identity). Power is kept in integer
    /// microwatts so the event round-trips exactly.
    Adc {
        channel: u64,
        sample: u64,
        microwatts: i64,
    },
    /// The cycle engine switched regime.
    Engine { cycle: u64, mode: EngineMode },
    /// The DVFS governor changed operating point. Frequency is kept in
    /// integer kilohertz and the junction temperature in integer
    /// millidegrees Celsius so the event round-trips exactly.
    Governor {
        cycle: u64,
        khz: u64,
        millicelsius: i64,
        policy: String,
    },
    /// The result journal served or appended a grid point. `key` is the
    /// point's content hash; the grid index doubles as the clock.
    Journal {
        section: String,
        index: u64,
        kind: JournalKind,
        key: u64,
    },
}

impl TraceEvent {
    /// The subsystem bit this event belongs to.
    #[must_use]
    pub const fn subsystem(&self) -> u32 {
        match self {
            TraceEvent::Retire { .. } => SUB_RETIRE,
            TraceEvent::Cache { .. } => SUB_CACHE,
            TraceEvent::NocHop { .. } => SUB_NOC,
            TraceEvent::Adc { .. } => SUB_ADC,
            TraceEvent::Engine { .. } => SUB_ENGINE,
            TraceEvent::Governor { .. } => SUB_GOVERNOR,
            TraceEvent::Journal { .. } => SUB_JOURNAL,
        }
    }

    /// The cycle stamp (ADC events use the sample index as their clock).
    #[must_use]
    pub const fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Retire { cycle, .. }
            | TraceEvent::Cache { cycle, .. }
            | TraceEvent::NocHop { cycle, .. }
            | TraceEvent::Engine { cycle, .. }
            | TraceEvent::Governor { cycle, .. } => *cycle,
            TraceEvent::Adc { sample, .. } => *sample,
            TraceEvent::Journal { index, .. } => *index,
        }
    }

    /// The tile (or `from`-tile / channel) identity, when one applies.
    #[must_use]
    pub fn entity(&self) -> Option<u64> {
        match self {
            TraceEvent::Retire { tile, .. } | TraceEvent::Cache { tile, .. } => {
                Some(u64::from(*tile))
            }
            TraceEvent::NocHop { from, .. } => Some(u64::from(*from)),
            TraceEvent::Adc { channel, .. } => Some(*channel),
            TraceEvent::Engine { .. }
            | TraceEvent::Governor { .. }
            | TraceEvent::Journal { .. } => None,
        }
    }

    /// Serializes to one compact JSONL line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let v = match self {
            TraceEvent::Retire {
                cycle,
                tile,
                thread,
                op,
                pc,
            } => ObjectBuilder::new()
                .field("e", Value::Str("retire".to_owned()))
                .field("cycle", Value::Int(i128::from(*cycle)))
                .field("tile", Value::Int(i128::from(*tile)))
                .field("thread", Value::Int(i128::from(*thread)))
                .field("op", Value::Str(op.clone()))
                .field("pc", Value::Int(i128::from(*pc)))
                .build(),
            TraceEvent::Cache {
                cycle,
                tile,
                level,
                kind,
                addr,
            } => ObjectBuilder::new()
                .field("e", Value::Str("cache".to_owned()))
                .field("cycle", Value::Int(i128::from(*cycle)))
                .field("tile", Value::Int(i128::from(*tile)))
                .field("level", Value::Str(level.name().to_owned()))
                .field("kind", Value::Str(kind.name().to_owned()))
                .field("addr", Value::Int(i128::from(*addr)))
                .build(),
            TraceEvent::NocHop {
                cycle,
                noc,
                from,
                to,
                flits,
            } => ObjectBuilder::new()
                .field("e", Value::Str("noc".to_owned()))
                .field("cycle", Value::Int(i128::from(*cycle)))
                .field("noc", Value::Int(i128::from(*noc)))
                .field("from", Value::Int(i128::from(*from)))
                .field("to", Value::Int(i128::from(*to)))
                .field("flits", Value::Int(i128::from(*flits)))
                .build(),
            TraceEvent::Adc {
                channel,
                sample,
                microwatts,
            } => ObjectBuilder::new()
                .field("e", Value::Str("adc".to_owned()))
                .field("channel", Value::Int(i128::from(*channel)))
                .field("sample", Value::Int(i128::from(*sample)))
                .field("uw", Value::Int(i128::from(*microwatts)))
                .build(),
            TraceEvent::Engine { cycle, mode } => ObjectBuilder::new()
                .field("e", Value::Str("engine".to_owned()))
                .field("cycle", Value::Int(i128::from(*cycle)))
                .field("mode", Value::Str(mode.name().to_owned()))
                .build(),
            TraceEvent::Governor {
                cycle,
                khz,
                millicelsius,
                policy,
            } => ObjectBuilder::new()
                .field("e", Value::Str("governor".to_owned()))
                .field("cycle", Value::Int(i128::from(*cycle)))
                .field("khz", Value::Int(i128::from(*khz)))
                .field("mc", Value::Int(i128::from(*millicelsius)))
                .field("policy", Value::Str(policy.clone()))
                .build(),
            TraceEvent::Journal {
                section,
                index,
                kind,
                key,
            } => ObjectBuilder::new()
                .field("e", Value::Str("journal".to_owned()))
                .field("section", Value::Str(section.clone()))
                .field("index", Value::Int(i128::from(*index)))
                .field("kind", Value::Str(kind.name().to_owned()))
                .field("key", Value::Int(i128::from(*key)))
                .build(),
        };
        v.render()
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/ill-typed field.
    pub fn from_jsonl(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let kind = v
            .get("e")
            .and_then(Value::as_str)
            .ok_or("missing event kind 'e'")?;
        let int = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field '{key}' in {kind} event"))
        };
        let narrow = |key: &str| -> Result<u32, String> {
            u32::try_from(int(key)?).map_err(|_| format!("field '{key}' out of u32 range"))
        };
        let text = |key: &str| -> Result<&str, String> {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing string field '{key}' in {kind} event"))
        };
        match kind {
            "retire" => Ok(TraceEvent::Retire {
                cycle: int("cycle")?,
                tile: narrow("tile")?,
                thread: narrow("thread")?,
                op: text("op")?.to_owned(),
                pc: int("pc")?,
            }),
            "cache" => Ok(TraceEvent::Cache {
                cycle: int("cycle")?,
                tile: narrow("tile")?,
                level: CacheLevel::parse(text("level")?)
                    .ok_or_else(|| format!("unknown cache level '{}'", text("level").unwrap()))?,
                kind: CacheKind::parse(text("kind")?)
                    .ok_or_else(|| format!("unknown cache kind '{}'", text("kind").unwrap()))?,
                addr: int("addr")?,
            }),
            "noc" => Ok(TraceEvent::NocHop {
                cycle: int("cycle")?,
                noc: narrow("noc")?,
                from: narrow("from")?,
                to: narrow("to")?,
                flits: narrow("flits")?,
            }),
            "adc" => Ok(TraceEvent::Adc {
                channel: int("channel")?,
                sample: int("sample")?,
                microwatts: v
                    .get("uw")
                    .and_then(Value::as_i128)
                    .and_then(|x| i64::try_from(x).ok())
                    .ok_or("missing integer field 'uw' in adc event")?,
            }),
            "engine" => Ok(TraceEvent::Engine {
                cycle: int("cycle")?,
                mode: EngineMode::parse(text("mode")?)
                    .ok_or_else(|| format!("unknown engine mode '{}'", text("mode").unwrap()))?,
            }),
            "governor" => Ok(TraceEvent::Governor {
                cycle: int("cycle")?,
                khz: int("khz")?,
                millicelsius: v
                    .get("mc")
                    .and_then(Value::as_i128)
                    .and_then(|x| i64::try_from(x).ok())
                    .ok_or("missing integer field 'mc' in governor event")?,
                policy: text("policy")?.to_owned(),
            }),
            "journal" => Ok(TraceEvent::Journal {
                section: text("section")?.to_owned(),
                index: int("index")?,
                kind: JournalKind::parse(text("kind")?)
                    .ok_or_else(|| format!("unknown journal kind '{}'", text("kind").unwrap()))?,
                key: int("key")?,
            }),
            other => Err(format!("unknown event kind '{other}'")),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Retire {
                cycle,
                tile,
                thread,
                op,
                pc,
            } => write!(
                f,
                "cycle {cycle:>8}  tile {tile:>2}.{thread}  retire {op} @pc={pc}"
            ),
            TraceEvent::Cache {
                cycle,
                tile,
                level,
                kind,
                addr,
            } => write!(
                f,
                "cycle {cycle:>8}  tile {tile:>2}    cache {} {} addr={addr:#x}",
                level.name(),
                kind.name()
            ),
            TraceEvent::NocHop {
                cycle,
                noc,
                from,
                to,
                flits,
            } => write!(
                f,
                "cycle {cycle:>8}  tile {from:>2}    noc{noc} hop ->{to} ({flits} flits)"
            ),
            TraceEvent::Adc {
                channel,
                sample,
                microwatts,
            } => write!(
                f,
                "sample {sample:>7}  chan {channel:#x}  adc {} uW",
                microwatts
            ),
            TraceEvent::Engine { cycle, mode } => {
                write!(f, "cycle {cycle:>8}  engine -> {}", mode.name())
            }
            TraceEvent::Governor {
                cycle,
                khz,
                millicelsius,
                policy,
            } => write!(
                f,
                "cycle {cycle:>8}  governor {policy} -> {:.2} MHz @ {:.1} C",
                *khz as f64 / 1_000.0,
                *millicelsius as f64 / 1_000.0
            ),
            TraceEvent::Journal {
                section,
                index,
                kind,
                key,
            } => write!(
                f,
                "point {index:>8}  {section:<8} journal {} key={key:#018x}",
                kind.name()
            ),
        }
    }
}

/// Encodes a slice of events as JSONL (one event per line).
#[must_use]
pub fn encode_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

/// Decodes a JSONL document (blank lines skipped) back into events.
///
/// # Errors
///
/// Returns the 1-based line number and the codec error for the first
/// undecodable line.
pub fn decode_jsonl(doc: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(TraceEvent::from_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// A parsed `--trace SPEC`. Grammar (comma-separated parts, echoing the
/// `FaultPlan` spec style):
///
/// ```text
/// SPEC  := PART {"," PART}
/// PART  := "all" | "retire" | "cache" | "noc" | "adc" | "engine" | "governor" | "journal"
///                             subsystem enables
///        | "out=PATH"       JSONL sink path   (default piton-trace.jsonl)
///        | "cap=N"          per-thread ring capacity (default 65536)
///        | "tile=N"         keep only events for tile/entity N
/// ```
///
/// Subsystem parts are additive; a spec with no subsystem part enables
/// all of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    pub mask: u32,
    pub out: String,
    pub capacity: usize,
    pub tile: Option<u64>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            mask: SUB_ALL,
            out: "piton-trace.jsonl".to_owned(),
            capacity: 65_536,
            tile: None,
        }
    }
}

impl TraceSpec {
    /// Parses the spec grammar above.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending part.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = TraceSpec {
            mask: 0,
            ..TraceSpec::default()
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part {
                "all" => out.mask |= SUB_ALL,
                "retire" => out.mask |= SUB_RETIRE,
                "cache" => out.mask |= SUB_CACHE,
                "noc" => out.mask |= SUB_NOC,
                "adc" => out.mask |= SUB_ADC,
                "engine" => out.mask |= SUB_ENGINE,
                "governor" => out.mask |= SUB_GOVERNOR,
                "journal" => out.mask |= SUB_JOURNAL,
                _ => {
                    let (key, value) = part
                        .split_once('=')
                        .ok_or_else(|| format!("unknown trace spec part '{part}'"))?;
                    match key {
                        "out" => out.out = value.to_owned(),
                        "cap" => {
                            out.capacity = value
                                .parse()
                                .map_err(|e| format!("bad cap '{value}': {e}"))?;
                        }
                        "tile" => {
                            out.tile = Some(
                                value
                                    .parse()
                                    .map_err(|e| format!("bad tile '{value}': {e}"))?,
                            );
                        }
                        _ => return Err(format!("unknown trace spec key '{key}'")),
                    }
                }
            }
        }
        if out.mask == 0 {
            out.mask = SUB_ALL;
        }
        if out.capacity == 0 {
            return Err("trace ring capacity must be > 0".to_owned());
        }
        Ok(out)
    }
}

thread_local! {
    /// This thread's collector mask, 0 without a collector: the whole
    /// gate, kept apart from [`COLLECTOR`] so reading it is one load.
    static MASK: Cell<u32> = const { Cell::new(0) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static AMBIENT_CYCLE: Cell<u64> = const { Cell::new(0) };
}

/// The JSONL buffer behind one trace file, shared by the collector
/// that owns the file and those its sweep workers inherit.
#[derive(Default)]
struct Sink {
    lines: String,
    dropped: u64,
}

struct Collector {
    spec: TraceSpec,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    /// The file buffer this collector flushes into when dropped
    /// (`None` for [`capture`]).
    sink: Option<Arc<Mutex<Sink>>>,
}

impl Collector {
    fn new(spec: &TraceSpec, sink: Option<Arc<Mutex<Sink>>>) -> Self {
        Collector {
            spec: spec.clone(),
            ring: VecDeque::with_capacity(spec.capacity.min(4096)),
            dropped: 0,
            sink,
        }
    }
}

impl Drop for Collector {
    /// A file-backed collector's events reach the file as one
    /// contiguous block, whether its scope ended or unwound.
    fn drop(&mut self) {
        let Some(sink) = &self.sink else { return };
        let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
        for e in self.ring.drain(..) {
            sink.lines.push_str(&e.to_jsonl());
            sink.lines.push('\n');
        }
        sink.dropped += self.dropped;
    }
}

/// A file-backed collector's filter and buffer: what [`crate::Scope`]
/// carries to a sweep worker so its events reach the same file.
#[derive(Clone)]
pub(crate) struct Inherited {
    spec: TraceSpec,
    sink: Arc<Mutex<Sink>>,
}

/// The current thread's file-backed collector, for its workers to
/// inherit. An in-memory [`capture`] covers its own thread only.
pub(crate) fn inheritable() -> Option<Inherited> {
    if !active() {
        return None;
    }
    COLLECTOR.with(|c| {
        let slot = c.borrow();
        let col = slot.as_ref()?;
        Some(Inherited {
            spec: col.spec.clone(),
            sink: Arc::clone(col.sink.as_ref()?),
        })
    })
}

/// Runs `body` with a collector like `inherited` on this thread (none
/// when `None`); see [`crate::Scope::enter`].
pub(crate) fn enter<T>(inherited: Option<&Inherited>, body: impl FnOnce() -> T) -> T {
    let collector = inherited.map(|i| Collector::new(&i.spec, Some(Arc::clone(&i.sink))));
    scoped(collector, body).0
}

/// Is a collector installed on this thread? One thread-local load; the
/// entire cost of the trace layer when disabled.
#[inline(always)]
#[must_use]
pub fn active() -> bool {
    MASK.with(Cell::get) != 0
}

/// Would the current thread's collector keep an event of `subsystem`
/// (a `SUB_*` bit)? The gate for emit sites whose event allocates: it
/// costs what [`active`] does and spares a traced thread from building
/// events its own mask drops. The collector's tile filter still applies
/// in [`emit`].
#[inline(always)]
#[must_use]
pub fn wants(subsystem: u32) -> bool {
    MASK.with(Cell::get) & subsystem != 0
}

/// Publishes the ambient cycle clock used by emit sites whose call
/// path has no cycle argument (NoC hops). Call only under
/// `if active()`.
#[inline]
pub fn set_cycle(now: u64) {
    AMBIENT_CYCLE.with(|c| c.set(now));
}

/// Reads back the ambient cycle clock.
#[inline]
#[must_use]
pub fn ambient_cycle() -> u64 {
    AMBIENT_CYCLE.with(Cell::get)
}

/// Puts `next` in this thread's collector slot and returns what was
/// there.
fn swap(next: Option<Collector>) -> Option<Collector> {
    MASK.with(|m| m.set(next.as_ref().map_or(0, |c| c.spec.mask)));
    COLLECTOR.with(|c| c.replace(next))
}

/// Runs `body` with `collector` in place of this thread's collector,
/// which is put back afterwards — also when `body` panics, so a failing
/// test doesn't leak its collector into later ones on the same thread.
/// Returns `body`'s result and the collector it ran with.
fn scoped<T>(collector: Option<Collector>, body: impl FnOnce() -> T) -> (T, Option<Collector>) {
    struct Restore(Option<Option<Collector>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prior) = self.0.take() {
                swap(prior);
            }
        }
    }
    let mut restore = Restore(Some(swap(collector)));
    let out = body();
    let ours = swap(restore.0.take().flatten());
    (out, ours)
}

/// Emits one event into the current thread's collector, applying its
/// subsystem mask and tile filter. No-op without a collector.
pub fn emit(event: TraceEvent) {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.as_mut() else { return };
        if col.spec.mask & event.subsystem() == 0 {
            return;
        }
        if let (Some(want), Some(got)) = (col.spec.tile, event.entity()) {
            if want != got {
                return;
            }
        }
        if col.ring.len() == col.spec.capacity {
            col.ring.pop_front();
            col.dropped += 1;
        }
        col.ring.push_back(event);
    });
}

/// Runs `body` with a fresh in-memory collector on this thread and
/// returns `(body result, captured events)`. The primary capture entry
/// point for tests. Sweep workers do not inherit it.
pub fn capture<T>(spec: &TraceSpec, body: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    let (out, col) = scoped(Some(Collector::new(spec, None)), body);
    let mut col = col.expect("the collector this scope installed");
    (out, Vec::from(std::mem::take(&mut col.ring)))
}

/// Runs `body` with a file-backed collector on this thread, which the
/// sweep workers it spawns inherit (see [`crate::Scope`]), then writes
/// everything collected to `spec.out` as JSONL: each worker's ring as
/// one block in the order the workers finished, this thread's ring
/// last. Returns `body`'s result and `(lines written, ring-dropped
/// events)`, or the I/O error annotated with the path.
pub fn to_file<T>(spec: &TraceSpec, body: impl FnOnce() -> T) -> (T, Result<(usize, u64), String>) {
    let sink = Arc::new(Mutex::new(Sink::default()));
    let (out, col) = scoped(Some(Collector::new(spec, Some(Arc::clone(&sink)))), body);
    drop(col);
    let sink = sink.lock().expect("trace sink lock");
    let written = std::fs::write(&spec.out, &sink.lines)
        .map(|()| (sink.lines.lines().count(), sink.dropped))
        .map_err(|e| format!("writing trace sink {}: {e}", spec.out));
    (out, written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Retire {
                cycle: 12,
                tile: 3,
                thread: 1,
                op: "Add".to_owned(),
                pc: 64,
            },
            TraceEvent::Cache {
                cycle: 15,
                tile: 3,
                level: CacheLevel::L15,
                kind: CacheKind::Fill,
                addr: 0x80_0040,
            },
            TraceEvent::NocHop {
                cycle: 16,
                noc: 2,
                from: 3,
                to: 8,
                flits: 5,
            },
            TraceEvent::Adc {
                channel: 0xdead_beef,
                sample: 7,
                microwatts: -1_250,
            },
            TraceEvent::Engine {
                cycle: 20,
                mode: EngineMode::Dense,
            },
            TraceEvent::Journal {
                section: "epi".to_owned(),
                index: 11,
                kind: JournalKind::Serve,
                key: 0x0123_4567_89ab_cdef,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip() {
        let events = sample_events();
        let doc = encode_jsonl(&events);
        assert_eq!(decode_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn capture_respects_mask_and_tile() {
        let spec = TraceSpec::parse("retire,noc,tile=3").unwrap();
        let ((), events) = capture(&spec, || {
            for e in sample_events() {
                emit(e);
            }
        });
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::Retire { tile: 3, .. }));
        assert!(matches!(events[1], TraceEvent::NocHop { from: 3, .. }));

        // Both gates answer for this thread's mask only: `wants` is true
        // for the subsystems in it, and a thread with no collector sees
        // both gates shut while this one is capturing.
        let ((), _) = capture(&spec, || {
            assert!(wants(SUB_RETIRE) && wants(SUB_NOC));
            assert!(!wants(SUB_CACHE) && !wants(SUB_ENGINE));
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!active(), "a collector opens only its own thread's gate");
                    assert!(!wants(SUB_RETIRE) && !wants(SUB_NOC));
                });
            });
        });
    }

    #[test]
    fn ring_drops_oldest() {
        let spec = TraceSpec::parse("engine,cap=2").unwrap();
        let ((), events) = capture(&spec, || {
            for cycle in 0..5 {
                emit(TraceEvent::Engine {
                    cycle,
                    mode: EngineMode::Dense,
                });
            }
        });
        assert_eq!(
            events
                .iter()
                .map(super::TraceEvent::cycle)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn active_flag_set_during_capture() {
        // The gate is per thread, so other tests' collectors never
        // reach this one: it is shut exactly outside the capture, and
        // a panicking capture shuts it too.
        let spec = TraceSpec::default();
        assert!(!active());
        let ((), _) = capture(&spec, || assert!(active()));
        assert!(!active());
        let unwound = std::panic::catch_unwind(|| capture(&spec, || panic!("mid-capture")));
        assert!(unwound.is_err());
        assert!(!active());
    }

    #[test]
    fn file_collector_is_inherited_by_entered_workers() {
        let mut path = std::env::temp_dir();
        path.push(format!("piton-trace-inherit-{}.jsonl", std::process::id()));
        let spec = TraceSpec::parse(&format!("engine,out={}", path.display())).unwrap();
        let engine = |cycle| TraceEvent::Engine {
            cycle,
            mode: EngineMode::Dense,
        };
        let ((), written) = to_file(&spec, || {
            emit(engine(1));
            let scope = crate::current();
            std::thread::scope(|s| {
                s.spawn(|| scope.enter(|| emit(engine(2))));
                // A thread that does not enter the scope is untraced.
                s.spawn(|| {
                    assert!(!active());
                    emit(engine(3));
                });
            });
        });
        assert_eq!(written, Ok((2, 0)));
        // The worker's block lands first, the owner's ring last.
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(decode_jsonl(&doc).unwrap(), vec![engine(2), engine(1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spec_parse_defaults_and_errors() {
        let spec = TraceSpec::parse("out=/tmp/t.jsonl").unwrap();
        assert_eq!(spec.mask, SUB_ALL);
        assert_eq!(spec.out, "/tmp/t.jsonl");
        assert!(TraceSpec::parse("bogus").is_err());
        assert!(TraceSpec::parse("cap=0").is_err());
        assert!(TraceSpec::parse("tile=x").is_err());
        assert_eq!(TraceSpec::parse("journal").unwrap().mask, SUB_JOURNAL);
    }
}
