//! Structured trace events, ring-buffered collection, and JSONL codec.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** Every instrumentation site in the
//!    simulator sits behind one of two gates. Sites whose event is
//!    cheap to build are `if trace::active() { trace::emit(..) }`;
//!    [`active`] is one `Relaxed` load of a process-wide `AtomicBool`
//!    that is only `true` while some thread has a collector installed.
//!    Sites whose event allocates (`Retire` formats its opcode name)
//!    are `if trace::wants(SUB_..) { .. }`: [`wants`] puts the same
//!    inlined load in front of an outlined read of *this thread's*
//!    collector mask, so an event the mask would drop is never built.
//!    Both gates only ever skip work — no simulator decision may read
//!    them. `reproduce` stdout must stay byte-identical and the NoC hot
//!    loop within noise of the pre-observability binary.
//! 2. **Deterministic per-thread streams.** Collectors are
//!    thread-local, so sweep workers never interleave events; each
//!    worker's ring flushes to the shared JSONL sink as one contiguous
//!    block when the collector is uninstalled (or the thread exits).
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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

/// Which cycle-engine regime the machine entered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Event-driven ready-calendar scheduling.
    Calendar,
    /// Dense polling over the live core set.
    Dense,
    /// The reference per-cycle-polling engine.
    Naive,
}

impl EngineMode {
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            EngineMode::Calendar => "calendar",
            EngineMode::Dense => "dense",
            EngineMode::Naive => "naive",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "calendar" => EngineMode::Calendar,
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

/// Process-wide gate: `true` only while at least one thread has a
/// collector installed. Emit sites branch over this before doing any
/// event construction.
static TRACE_ACTIVE: AtomicBool = AtomicBool::new(false);
/// Number of threads with a live collector (guards `TRACE_ACTIVE`).
static COLLECTORS: Mutex<u32> = Mutex::new(0);
/// The shared JSONL sink collectors flush into (when file-backed
/// tracing is configured via [`install_sink`]).
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

struct Sink {
    path: String,
    lines: String,
    dropped: u64,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static AMBIENT_CYCLE: Cell<u64> = const { Cell::new(0) };
}

struct Collector {
    mask: u32,
    tile: Option<u64>,
    cap: usize,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    /// Flush to the global [`SINK`] on uninstall (file-backed mode).
    to_sink: bool,
}

/// Is any collector installed on this process? One relaxed load; the
/// entire cost of the trace layer when disabled.
#[inline(always)]
#[must_use]
pub fn active() -> bool {
    TRACE_ACTIVE.load(Ordering::Relaxed)
}

/// Would the current thread's collector keep an event of `subsystem`
/// (a `SUB_*` bit)? The gate for emit sites whose event allocates:
/// [`active`]'s inlined load short-circuits the untraced case, and the
/// outlined mask read spares a traced thread from building events its
/// own mask drops. The collector's tile filter still applies in
/// [`emit`].
#[inline(always)]
#[must_use]
pub fn wants(subsystem: u32) -> bool {
    active() && thread_mask() & subsystem != 0
}

/// The current thread's collector mask (0 without a collector).
#[inline(never)]
fn thread_mask() -> u32 {
    COLLECTOR.with(|c| c.borrow().as_ref().map_or(0, |col| col.mask))
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

fn add_collector() {
    let mut n = COLLECTORS.lock().unwrap();
    *n += 1;
    TRACE_ACTIVE.store(true, Ordering::Relaxed);
}

fn remove_collector() {
    let mut n = COLLECTORS.lock().unwrap();
    *n = n.saturating_sub(1);
    if *n == 0 {
        TRACE_ACTIVE.store(false, Ordering::Relaxed);
    }
}

/// Installs a ring collector on the current thread. Returns `false`
/// (and changes nothing) if one is already installed.
pub fn install(spec: &TraceSpec, to_sink: bool) -> bool {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(Collector {
            mask: spec.mask,
            tile: spec.tile,
            cap: spec.capacity,
            ring: VecDeque::with_capacity(spec.capacity.min(4096)),
            dropped: 0,
            to_sink,
        });
        add_collector();
        true
    })
}

/// Uninstalls the current thread's collector, returning its buffered
/// events in emit order and the count of ring-dropped events. If the
/// collector was sink-bound, the events are also appended to the
/// global sink buffer.
#[must_use]
pub fn uninstall() -> (Vec<TraceEvent>, u64) {
    let taken = COLLECTOR.with(|c| c.borrow_mut().take());
    let Some(col) = taken else {
        return (Vec::new(), 0);
    };
    remove_collector();
    let events: Vec<TraceEvent> = col.ring.into_iter().collect();
    if col.to_sink {
        let mut sink = SINK.lock().unwrap();
        if let Some(sink) = sink.as_mut() {
            for e in &events {
                sink.lines.push_str(&e.to_jsonl());
                sink.lines.push('\n');
            }
            sink.dropped += col.dropped;
        }
    }
    (events, col.dropped)
}

/// Emits one event into the current thread's collector, applying its
/// subsystem mask and tile filter. No-op without a collector.
pub fn emit(event: TraceEvent) {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.as_mut() else { return };
        if col.mask & event.subsystem() == 0 {
            return;
        }
        if let (Some(want), Some(got)) = (col.tile, event.entity()) {
            if want != got {
                return;
            }
        }
        if col.ring.len() == col.cap {
            col.ring.pop_front();
            col.dropped += 1;
        }
        col.ring.push_back(event);
    });
}

/// Spec that short-lived worker threads (the sweep engine's) adopt via
/// [`worker_scope`] while file-backed tracing is configured.
static WORKER_SPEC: Mutex<Option<TraceSpec>> = Mutex::new(None);

/// Publishes (or clears) the collector spec worker threads should
/// adopt. Set by the CLI together with [`install_sink`].
pub fn set_worker_spec(spec: Option<TraceSpec>) {
    *WORKER_SPEC.lock().unwrap() = spec;
}

/// Runs `body` with a sink-bound collector installed on this thread iff
/// tracing is live and a worker spec is published; otherwise runs
/// `body` untouched. The sweep engine wraps each worker thread's
/// point-loop in this so events emitted off the main thread still reach
/// the JSONL sink.
pub fn worker_scope<T>(body: impl FnOnce() -> T) -> T {
    if !active() {
        return body();
    }
    let spec = WORKER_SPEC.lock().unwrap().clone();
    let Some(spec) = spec else {
        return body();
    };
    if !install(&spec, true) {
        return body();
    }
    // Flush to the sink even if a grid point panics (the runner's
    // catch_unwind will resume it).
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = uninstall();
        }
    }
    let _guard = Guard;
    body()
}

/// Configures the process-wide JSONL sink `uninstall` flushes into.
/// The file is written by [`flush_sink_to_file`].
pub fn install_sink(path: &str) {
    let mut sink = SINK.lock().unwrap();
    *sink = Some(Sink {
        path: path.to_owned(),
        lines: String::new(),
        dropped: 0,
    });
}

/// Writes all sink-buffered JSONL lines to the sink path and clears
/// the sink. Returns `(path, line_count, ring_dropped)` if a sink was
/// installed.
///
/// # Errors
///
/// Propagates the underlying I/O error annotated with the path.
pub fn flush_sink_to_file() -> Result<Option<(String, usize, u64)>, String> {
    let taken = SINK.lock().unwrap().take();
    let Some(sink) = taken else { return Ok(None) };
    let count = sink.lines.lines().count();
    std::fs::write(&sink.path, &sink.lines)
        .map_err(|e| format!("writing trace sink {}: {e}", sink.path))?;
    Ok(Some((sink.path, count, sink.dropped)))
}

/// Runs `body` with a fresh in-memory collector installed on this
/// thread and returns `(body result, captured events)`. The primary
/// capture entry point for tests and `trace_diff`.
///
/// # Panics
///
/// Panics if a collector is already installed on this thread.
pub fn capture<T>(spec: &TraceSpec, body: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    assert!(
        install(spec, false),
        "trace::capture: collector already installed on this thread"
    );
    // Ensure the collector is removed even if `body` panics, so a
    // failing test doesn't poison later captures on the same thread.
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = uninstall();
        }
    }
    let guard = Guard;
    let out = body();
    std::mem::forget(guard);
    let (events, _) = uninstall();
    (out, events)
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

        // `wants` answers for this thread's mask only: true for the
        // subsystems in it, false on a thread with no collector even
        // while this one is capturing.
        let ((), _) = capture(&spec, || {
            assert!(wants(SUB_RETIRE) && wants(SUB_NOC));
            assert!(!wants(SUB_CACHE) && !wants(SUB_ENGINE));
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(active(), "the capturing thread holds the global gate open");
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
                    mode: EngineMode::Calendar,
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
        // Other test threads may also hold collectors, so only the
        // "set while captured" direction is assertable here.
        let spec = TraceSpec::default();
        let ((), _) = capture(&spec, || assert!(active()));
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
