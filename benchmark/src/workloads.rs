//! The six workloads. All are closed-loop with one client: the next
//! process or request starts when the previous one has finished, and
//! everything runs `--jobs 1` (one daemon worker, one connection).

use std::path::Path;
use std::time::Instant;

use crate::reproduce;
use crate::serve::{self, Conn, JournalStats, Response};
use crate::spans::{SpanId, SpanLog};
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond};
use crate::Env;

/// Attempted and failed operations. A process run or a request is one
/// operation; a non-zero exit, a deadline, a refused request or a
/// failed output check fails it. One that did not complete contributes
/// no latency sample.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation and keeps its value if it succeeded.
    fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    /// Fails an operation that was already counted.
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }

    /// A check on an operation that itself succeeded.
    fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what, &why());
        }
        ok
    }

    /// Share of operations with nothing wrong. One operation can fail
    /// several checks, so the failure count is capped at the attempts.
    pub fn ok_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 100.0;
        }
        100.0 * self.attempted.saturating_sub(self.failed) as f64 / self.attempted as f64
    }
}

/// What one run of one workload measured.
pub struct Outcome {
    /// Every end-to-end metric, in `spec::END_TO_END` order.
    pub e2e: Vec<(&'static str, f64)>,
    /// The per-layer metrics this workload's own spans and manifests
    /// give (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    pub ops: Ops,
    pub reps: usize,
    pub notes: Vec<String>,
}

/// Reps run until the measuring budget is spent. The stop rule rounds
/// to the nearest whole rep so a run neither stops far short of the
/// budget nor overshoots it by most of a rep.
struct Budget {
    start: Instant,
    seconds: f64,
    done: usize,
}

/// Three reps at least, however long one takes: the median of three
/// shrugs off one rep that met a slow stretch of the host, the median
/// of two is their mean. (A traced run alternates recorded and
/// unrecorded reps and needs one of each.)
const MIN_REPS: usize = 3;

impl Budget {
    fn new(env: &Env) -> Self {
        Self {
            start: Instant::now(),
            seconds: env.seconds,
            done: 0,
        }
    }

    fn more(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let go = self.done < MIN_REPS || elapsed + 0.5 * elapsed / self.done as f64 <= self.seconds;
        self.done += 1;
        go
    }
}

/// xorshift64*: workload inputs are a pure function of `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // splitmix64 of the seed, so 0 and other small seeds are fine.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// In a traced run every other rep records spans; the rest are the
/// untraced side of `harness.trace_overhead_pct`.
fn set_recording(env: &Env, log: &mut SpanLog, rep: usize) -> bool {
    log.recording = env.traced && rep.is_multiple_of(2);
    log.recording
}

fn join_samples(samples: &[f64]) -> String {
    let shown: Vec<String> = samples.iter().map(|s| format!("{s:.6}")).collect();
    shown.join(" ")
}

fn trace_overhead_pct(walls: &[(bool, f64)]) -> Option<f64> {
    let side = |recorded: bool| -> Vec<f64> {
        walls
            .iter()
            .filter(|(r, _)| *r == recorded)
            .map(|(_, w)| *w)
            .collect()
    };
    let (on, off) = (side(true), side(false));
    (!on.is_empty() && !off.is_empty()).then(|| 100.0 * (median(&on) - median(&off)) / median(&off))
}

// ---------------------------------------------------------------------
// reproduce_quick, reproduce_quick_trace_on
// ---------------------------------------------------------------------

/// `reproduce quick --jobs 1`, one discarded process then timed ones.
///
/// `reproduce` has no result cache and no daemon, so the serve-shaped
/// metrics take their process-shaped meaning here: every process is a
/// start from nothing, so the "restart" and the warm operation are the
/// timed process itself, a "frame" is a stdout line, and the bytes per
/// point are what a run leaves on disk (manifest, plus the trace when
/// on) per sweep point.
pub fn reproduce_workload(
    env: &Env,
    name: &str,
    trace_on: bool,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    log.recording = env.traced;
    let root = log.open(name, None, 0);

    let warmup_span = log.open("setup:discarded_run", root, 0);
    let first = ops.op("discarded run", reproduce::run(env, "warmup", trace_on));
    log.close(warmup_span);
    let reference = first.as_ref().map(|r| r.stdout.clone());
    if let Some(run) = &first {
        for why in reproduce::stdout_failures(&run.stdout, &env.goldens, None) {
            ops.fail("discarded run", &why);
        }
    }

    let mut runs: Vec<reproduce::Run> = Vec::new();
    let mut walls: Vec<(bool, f64)> = Vec::new();
    let mut budget = Budget::new(env);
    let mut rep = 0;
    while budget.more() {
        let recorded = set_recording(env, log, rep);
        let id = rep as u32 + 1;
        let rep_span = log.open("rep", root, id);
        let process = log.open("process:reproduce", rep_span, id);
        let run = ops.op(
            "reproduce",
            reproduce::run(env, &format!("r{rep}"), trace_on),
        );
        log.close(process);
        if let Some(run) = run {
            manifest_spans(log, process, &run);
            // A process that ran to the end is timed even when its
            // output is wrong: the result line then carries the failed
            // operations beside numbers, not an error instead of them.
            for why in reproduce::stdout_failures(&run.stdout, &env.goldens, reference.as_deref()) {
                ops.fail("reproduce", &why);
            }
            walls.push((recorded, run.wall_s));
            runs.push(run);
        }
        log.close(rep_span);
        rep += 1;
    }
    log.recording = env.traced;
    log.close(root);

    if runs.is_empty() {
        return Err(format!("no rep succeeded: {}", ops.failures.join("; ")));
    }
    let wall: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    // Set-up is the scratch directory and the discarded run. That run
    // is one more sample of what the timed runs sample, so its cost is
    // taken as the median over all of them: one process on a shared
    // host is off by 10 % as often as not.
    let every_process: Vec<f64> = first.iter().chain(&runs).map(|r| r.wall_s).collect();
    let setup_s = env.scratch_s + median(&every_process);
    let per_run = |f: &dyn Fn(&reproduce::Run) -> f64| -> f64 {
        median(&runs.iter().map(f).collect::<Vec<f64>>())
    };
    let paper_dev = runs
        .iter()
        .map(|r| reproduce::paper_dev_pct(&r.stdout))
        .collect::<Option<Vec<f64>>>()
        .ok_or("stdout lacks the Figure 12/13 'vs paper' cells")?;
    // A handful of processes supports no percentile above the median.
    let supported = highest_supported_percentile(wall.len(), &[50.0, 90.0]);
    let e2e = vec![
        ("setup_s", setup_s),
        ("wall_s", median(&wall)),
        (
            "sim_mcycles_per_s",
            per_run(&|r| r.manifest.sim_cycles() as f64 / 1e6 / r.wall_s),
        ),
        ("peak_rss_mb", per_run(&|r| r.peak_rss_kb as f64 / 1024.0)),
        ("ok_ops_pct", ops.ok_pct()),
        ("paper_dev_pct", median(&paper_dev)),
        (
            "warm_stream_kframes_per_s",
            per_run(&|r| r.stdout.lines().count() as f64 / 1e3 / r.wall_s),
        ),
        ("warm_p50_ms", 1e3 * median(&wall)),
        (
            "warm_p90_ms",
            1e3 * if supported > 50.0 {
                percentile(&wall, supported)
            } else {
                median(&wall)
            },
        ),
        ("restart_first_request_s", median(&wall)),
        (
            "cache_bytes_per_point",
            per_run(&|r| r.disk_bytes as f64 / r.manifest.points.max(1) as f64),
        ),
    ];

    let mut layers = Vec::new();
    if env.traced {
        for l in crate::spec::PER_LAYER {
            if let Some(bucket) = l.name.strip_prefix("bench.reproduce.section_wall_s.") {
                let in_bucket = |r: &reproduce::Run| -> f64 {
                    r.manifest
                        .sections
                        .iter()
                        .filter(|(title, _)| reproduce::section_bucket(title) == bucket)
                        .map(|(_, wall_s)| wall_s)
                        .sum()
                };
                layers.push((l.name, per_run(&in_bucket)));
            } else if let Some(counter) = l.name.strip_prefix("sim.machine.") {
                if l.source == crate::spec::Source::Reproduce {
                    layers.push((l.name, per_run(&|r| r.manifest.engine(counter) as f64)));
                }
            }
        }
        layers.push((
            "bench.reproduce.startup_manifest_s",
            per_run(&|r| r.wall_s - r.manifest.total_wall_s),
        ));
        if let Some(pct) = trace_overhead_pct(&walls) {
            layers.push(("harness.trace_overhead_pct", pct));
        }
    }
    let notes = vec![
        format!(
            "{} timed process run(s); highest percentile with ten samples beyond it: p{supported}",
            wall.len()
        ),
        format!("wall_s per rep: {}", join_samples(&wall)),
    ];
    Ok(Outcome {
        e2e,
        layers,
        ops,
        reps: runs.len(),
        notes,
    })
}

/// Turns the child's own account of its time — the manifest's section
/// walls — into child spans of the process span. Sections run back to
/// back from the start of `main`; what the process took beyond
/// `total_wall_s` (exec, argument parsing, manifest write, exit) is
/// one `startup_manifest` span, drawn at the end.
fn manifest_spans(log: &mut SpanLog, process: SpanId, run: &reproduce::Run) {
    let mut offset = 0.0;
    for (title, wall_s) in &run.manifest.sections {
        log.child_at(&format!("section:{title}"), process, offset, *wall_s);
        offset += wall_s;
    }
    let rest = (run.wall_s - run.manifest.total_wall_s).max(0.0);
    log.child_at("startup_manifest", process, run.wall_s - rest, rest);
}

// ---------------------------------------------------------------------
// scaling_saturated, scaling_sparse, noc_stream, design_space_serve
// ---------------------------------------------------------------------

/// One `piton-serve` workload: what is requested cold, and how the
/// warm phase re-requests it.
pub struct Shape {
    pub name: &'static str,
    pub section: &'static str,
    pub grid: &'static str,
    pub fidelity: &'static str,
    /// The grid indices `grid` selects, ascending.
    pub indices: Vec<u64>,
    /// Machine cycles the cold request simulates.
    pub sim_cycles: u64,
    /// Requests per warm operation. A request for a handful of cached
    /// points costs little more than the two thread wake-ups around it,
    /// which measure the host, not the product; on the small grids a
    /// warm operation is therefore this many requests pipelined on the
    /// one connection, and its latency is the batch's wall time per
    /// request.
    pub batch: usize,
    /// Warm whole-grid operations per rep (frame throughput).
    pub streams: usize,
    /// Warm window operations per rep (latency percentiles).
    pub windows: usize,
    /// Restarts on the rep's cache, each timed to its first answer.
    pub restarts: usize,
    /// Points per window: a contiguous range at a seeded offset, or 0
    /// for a seeded non-empty subset of a small grid.
    pub window_len: u64,
    /// Whether the warm phase's timings are end-to-end metrics. They
    /// are where the cache holds 105 000 points and a warm request is
    /// frame-codec and journal work. On the 6- and 36-point grids it
    /// is mostly wake-ups, which follow the host's mood (they moved by
    /// 30 % between two sets of ten runs while `wall_s` moved by 4 %):
    /// there the warm phase is checked for correctness, its timings are
    /// per-layer only, and the end-to-end warm metrics restate the cold
    /// request, as they restate the process on `reproduce`.
    pub warm_is_end_to_end: bool,
}

/// `s=,c=,w=` of a fidelity spec (`quick` is `s=12,c=3000,w=30000`).
pub fn parse_fidelity(spec: &str) -> Option<(u64, u64, u64)> {
    if spec == "quick" {
        return Some((12, 3_000, 30_000));
    }
    let (mut s, mut c, mut w) = (None, None, None);
    for term in spec.split(',') {
        let (key, val) = term.split_once('=')?;
        let slot = match key {
            "s" => &mut s,
            "c" => &mut c,
            "w" => &mut w,
            _ => return None,
        };
        *slot = Some(val.parse().ok()?);
    }
    Some((s?, c?, w?))
}

/// Simulated machine cycles of one request, from the measurement
/// protocol: a `scaling` point warms up for `w` cycles and takes `s`
/// samples of `c` cycles; a `noc` point warms up for `w/4`. A cold
/// `design_space` request runs the calibration battery, whose 95
/// core-driven probes each follow the `scaling` pattern at `quick`
/// (its 16 chipset-driven NoC probes advance no engine cycles) — the
/// 6 270 000 cycles `reproduce quick --backend analytic` records as
/// `engine.event_cycles + engine.batched_cycles`.
pub fn sim_cycles(section: &str, points: u64, fidelity: &str) -> Option<u64> {
    let (s, c, w) = parse_fidelity(fidelity)?;
    match section {
        "scaling" => Some(points * (w + s * c)),
        "noc" => Some(points * (w / 4 + s * c)),
        "design_space" => Some(95 * (w + s * c)),
        _ => None,
    }
}

/// `scaling` grid index of (bench, threads per core, cores): three
/// benchmarks (Int, HP, Hist) by 1 or 2 T/C by 1..=25 cores.
pub fn scaling_index(bench: u64, tpc: u64, cores: u64) -> u64 {
    bench * 50 + (tpc - 1) * 25 + (cores - 1)
}

/// Inverse of [`scaling_index`].
#[cfg(test)]
fn scaling_point(index: u64) -> (u64, u64, u64) {
    (index / 50, index % 50 / 25 + 1, index % 25 + 1)
}

const DESIGN_SPACE_POINTS: u64 = 105_000;
const NOC_POINTS: u64 = 36;
const SMALL_GRID_BATCH: usize = 64;
/// Warm operations and restarts per rep on the 6- and 36-point grids.
const SMALL_GRID_STREAMS: usize = 20;
const SMALL_GRID_WINDOWS: usize = 100;
const SMALL_GRID_RESTARTS: usize = 8;

pub fn shape(name: &str) -> Option<Shape> {
    let scaling = |name, cores: u64, fidelity, grid| {
        let indices: Vec<u64> = (0..3)
            .flat_map(|bench| (1..=2).map(move |tpc| scaling_index(bench, tpc, cores)))
            .collect();
        Shape {
            name,
            section: "scaling",
            grid,
            fidelity,
            sim_cycles: sim_cycles("scaling", indices.len() as u64, fidelity)
                .expect("fidelity spec"),
            indices,
            batch: SMALL_GRID_BATCH,
            streams: SMALL_GRID_STREAMS,
            windows: SMALL_GRID_WINDOWS,
            restarts: SMALL_GRID_RESTARTS,
            window_len: 0,
            warm_is_end_to_end: false,
        }
    };
    match name {
        "scaling_saturated" => Some(scaling(
            "scaling_saturated",
            25,
            "s=64,c=10000,w=200000",
            "24,49,74,99,124,149",
        )),
        "scaling_sparse" => Some(scaling(
            "scaling_sparse",
            1,
            "s=128,c=200000,w=300000",
            "0,25,50,75,100,125",
        )),
        "noc_stream" => {
            let fidelity = "s=128,c=1000000,w=300000";
            Some(Shape {
                name: "noc_stream",
                section: "noc",
                grid: "all",
                fidelity,
                indices: (0..NOC_POINTS).collect(),
                sim_cycles: sim_cycles("noc", NOC_POINTS, fidelity).expect("fidelity spec"),
                batch: SMALL_GRID_BATCH,
                streams: SMALL_GRID_STREAMS,
                windows: SMALL_GRID_WINDOWS,
                restarts: SMALL_GRID_RESTARTS,
                window_len: 0,
                warm_is_end_to_end: false,
            })
        }
        "design_space_serve" => Some(Shape {
            name: "design_space_serve",
            section: "design_space",
            grid: "all",
            fidelity: "quick",
            indices: (0..DESIGN_SPACE_POINTS).collect(),
            sim_cycles: sim_cycles("design_space", DESIGN_SPACE_POINTS, "quick").expect("quick"),
            batch: 1,
            streams: 1,
            windows: 100,
            restarts: 1,
            window_len: 2048,
            warm_is_end_to_end: true,
        }),
        _ => None,
    }
}

impl Shape {
    /// The next warm window: its grid spec and the indices it selects.
    fn window(&self, rng: &mut Rng) -> (String, Vec<u64>) {
        if self.window_len > 0 {
            let first = rng.next() % (self.indices.len() as u64 - self.window_len + 1);
            let last = first + self.window_len - 1;
            return (format!("{first}-{last}"), (first..=last).collect());
        }
        // A non-empty subset of a grid of at most 63 points.
        let mask = rng.next() % ((1u64 << self.indices.len()) - 1) + 1;
        let picked: Vec<u64> = self
            .indices
            .iter()
            .enumerate()
            .filter(|(bit, _)| mask >> bit & 1 == 1)
            .map(|(_, idx)| *idx)
            .collect();
        let spec: Vec<String> = picked.iter().map(u64::to_string).collect();
        (spec.join(","), picked)
    }
}

/// Samples gathered over all reps of a serve workload.
#[derive(Default)]
struct ServeSamples {
    spawn_s: Vec<f64>,
    connect_s: Vec<f64>,
    cold_wall_s: Vec<f64>,
    cold_ttff_s: Vec<f64>,
    rss_kb: Vec<f64>,
    cold_kframes_per_s: Vec<f64>,
    /// The warm phase of each rep.
    warm: Vec<WarmPhase>,
    restart_first_s: Vec<f64>,
    bytes_per_point: Vec<f64>,
    file_bytes: Vec<f64>,
    /// `metrics` op of the first daemon, just before shutdown.
    counters: Vec<[u64; 3]>,
    first_journal: Vec<JournalStats>,
    restart_journal: Vec<JournalStats>,
    restart_recovered: Vec<u64>,
}

/// What one rep's warm operations added up to.
#[derive(Default)]
struct WarmPhase {
    streams: usize,
    frames: u64,
    wall_s: f64,
    /// Latency of each window operation (per request, in a batch).
    window_s: Vec<f64>,
}

impl WarmPhase {
    fn kframes_per_s(&self) -> f64 {
        self.frames as f64 / 1e3 / self.wall_s
    }
}

/// A pipelined batch of run requests under one span, with `ttff` and
/// `stream` children. Returns the batch's wall time and its responses.
fn spanned_batch(
    conn: &mut Conn,
    log: &mut SpanLog,
    parent: SpanId,
    rep: u32,
    name: &str,
    requests: &[String],
) -> Result<(f64, Vec<Response>), String> {
    let span = log.open(name, parent, rep);
    let batch = conn.pipeline(requests);
    log.close(span);
    if let Ok((wall_s, responses)) = &batch {
        let ttff_s = responses.first().map_or(0.0, |r| r.ttff_s);
        log.child_at("ttff", span, 0.0, ttff_s);
        log.child_at("stream", span, ttff_s, wall_s - ttff_s);
    }
    batch
}

const ACCEPT_LOOP_SETTLE: std::time::Duration = std::time::Duration::from_millis(1);

/// Spawns a daemon and connects to it, both under spans.
fn start_daemon(
    env: &Env,
    log: &mut SpanLog,
    parent: SpanId,
    rep: u32,
    socket: &str,
    cache: &str,
    samples: &mut ServeSamples,
) -> Result<(crate::child::Daemon, Conn), String> {
    let spawn = log.open("daemon_spawn", parent, rep);
    let t = Instant::now();
    let daemon = serve::spawn_daemon(env, socket, cache);
    samples.spawn_s.push(t.elapsed().as_secs_f64());
    log.close(spawn);
    let daemon = daemon?;
    // The daemon polls `accept` every 5 ms. A client that connects the
    // instant it sees `listening` races the first poll and wins a
    // quarter to a half of the time, and the median of the restarts
    // then sits at 2 ms or at 7 ms as luck has it. One millisecond
    // later the loop is in its first sleep for certain.
    std::thread::sleep(ACCEPT_LOOP_SETTLE);
    let connect = log.open("connect", parent, rep);
    let t = Instant::now();
    let conn = Conn::connect(Path::new(socket));
    samples.connect_s.push(t.elapsed().as_secs_f64());
    log.close(connect);
    Ok((daemon, conn?))
}

/// What a rep's phases share.
struct Rep<'a> {
    env: &'a Env,
    shape: &'a Shape,
    /// Span id shared by the rep's spans (1-based).
    id: u32,
    parent: SpanId,
    socket: String,
    cache: String,
}

fn counter(r: &Response, name: &str) -> Result<u64, String> {
    r.counter(name).ok_or(format!("metrics frame lacks {name}"))
}

impl Rep<'_> {
    fn points(&self) -> u64 {
        self.shape.indices.len() as u64
    }

    fn whole_grid(&self) -> String {
        serve::run_request(self.shape.section, self.shape.grid, self.shape.fidelity)
    }

    /// Cold: every point computed, appended and fsynced before its
    /// frame. Returns the response digest the warm phases compare to.
    fn cold(
        &self,
        conn: &mut Conn,
        log: &mut SpanLog,
        samples: &mut ServeSamples,
        ops: &mut Ops,
    ) -> Option<u64> {
        let requests = [self.whole_grid()];
        let (_, mut responses) = ops.op(
            "cold request",
            spanned_batch(conn, log, self.parent, self.id, "request:cold", &requests),
        )?;
        let cold = responses.remove(0);
        let after = ops.op("metrics", conn.metrics())?;
        let computed = ops.op("metrics", counter(&after, "serve.points_computed"))?;
        let ok = match cold.check_run(&self.shape.indices) {
            Err(why) => ops.check("cold request", false, || why),
            Ok(()) => ops.check("cold request", computed == self.points(), || {
                format!(
                    "serve.points_computed is {computed} after a cold request of {} point(s)",
                    self.points()
                )
            }),
        };
        if ok {
            samples.cold_wall_s.push(cold.wall_s);
            samples.cold_ttff_s.push(cold.ttff_s);
            samples
                .cold_kframes_per_s
                .push(cold.frames as f64 / 1e3 / cold.wall_s);
        }
        Some(cold.digest)
    }

    /// Warm streams (the whole grid again, byte for byte) and warm
    /// windows at seed-derived offsets, in pipelined batches of
    /// `shape.batch`; then nothing may have computed a point.
    fn warm(
        &self,
        conn: &mut Conn,
        cold_digest: u64,
        rng: &mut Rng,
        log: &mut SpanLog,
        samples: &mut ServeSamples,
        ops: &mut Ops,
    ) -> Option<()> {
        let batch = self.shape.batch;
        let mut warm = WarmPhase::default();
        let frames = |responses: &[Response]| -> u64 { responses.iter().map(|r| r.frames).sum() };
        let phase = log.open("warm_streams", self.parent, self.id);
        let requests = vec![self.whole_grid(); batch];
        for _ in 0..self.shape.streams {
            ops.attempted += batch as u64 - 1;
            let (wall_s, responses) = ops.op(
                "warm stream",
                spanned_batch(conn, log, phase, self.id, "request:warm_stream", &requests),
            )?;
            let identical = responses.iter().all(|r| r.digest == cold_digest);
            if ops.check("warm stream", identical, || {
                "warm response is not byte-identical to the cold one".to_owned()
            }) {
                warm.streams += 1;
                warm.frames += frames(&responses);
                warm.wall_s += wall_s;
            }
        }
        log.close(phase);

        let phase = log.open("warm_windows", self.parent, self.id);
        for _ in 0..self.shape.windows {
            let windows: Vec<(String, Vec<u64>)> =
                (0..batch).map(|_| self.shape.window(rng)).collect();
            let requests: Vec<String> = windows
                .iter()
                .map(|(grid, _)| serve::run_request(self.shape.section, grid, self.shape.fidelity))
                .collect();
            ops.attempted += batch as u64 - 1;
            let (wall_s, responses) = ops.op(
                "warm window",
                spanned_batch(conn, log, phase, self.id, "request:warm_window", &requests),
            )?;
            let wrong: Vec<String> = responses
                .iter()
                .zip(&windows)
                .filter_map(|(r, (_, expect))| r.check_run(expect).err())
                .collect();
            for why in &wrong {
                ops.fail("warm window", why);
            }
            if wrong.is_empty() {
                warm.frames += frames(&responses);
                warm.wall_s += wall_s;
                warm.window_s.push(wall_s / batch as f64);
            }
        }
        log.close(phase);
        if warm.streams > 0 && !warm.window_s.is_empty() {
            samples.warm.push(warm);
        }
        Some(())
    }

    /// `metrics` and peak RSS just before the first daemon exits, the
    /// clean shutdown, and what it left on disk.
    fn finish_first_daemon(
        &self,
        mut conn: Conn,
        daemon: &mut crate::child::Daemon,
        log: &mut SpanLog,
        samples: &mut ServeSamples,
        ops: &mut Ops,
    ) -> Option<()> {
        let before_exit = ops.op("metrics", conn.metrics())?;
        let counters = ops.op(
            "metrics",
            [
                "serve.requests",
                "serve.cache_hits",
                "serve.points_computed",
            ]
            .iter()
            .map(|name| counter(&before_exit, name))
            .collect::<Result<Vec<u64>, String>>(),
        )?;
        ops.check("warm phase", counters[2] == self.points(), || {
            format!(
                "serve.points_computed is {} after the warm phase, {} were requested cold",
                counters[2],
                self.points()
            )
        });
        samples
            .counters
            .push([counters[0], counters[1], counters[2]]);
        if let Some(kb) = crate::child::vm_hwm_kb(daemon.pid()) {
            samples.rss_kb.push(kb as f64);
        }
        let span = log.open("shutdown", self.parent, self.id);
        let down = ops.op("shutdown", conn.shutdown(daemon));
        log.close(span);
        down?;
        let journal = ops.op("serve manifest", self.read_manifest())?;
        ops.check("serve manifest", journal.appended == self.points(), || {
            format!(
                "journal appended {} of {} point(s)",
                journal.appended,
                self.points()
            )
        });
        samples.first_journal.push(journal);
        let bytes = ops.op("cache size", serve::journal_bytes(Path::new(&self.cache)))?;
        samples.file_bytes.push(bytes as f64);
        samples
            .bytes_per_point
            .push(bytes as f64 / self.points() as f64);
        Some(())
    }

    fn read_manifest(&self) -> Result<JournalStats, String> {
        let path = Path::new(&self.cache).join("serve-manifest.json");
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("serve-manifest.json: {e}"))?;
        serve::parse_serve_manifest(&text)
    }

    /// A new daemon on the same cache, timed from its spawn to the
    /// `done` frame of its first request: everything recovered from
    /// disk, nothing computed, the same bytes as the cold response.
    fn restart(
        &self,
        cold_digest: u64,
        log: &mut SpanLog,
        samples: &mut ServeSamples,
        ops: &mut Ops,
    ) -> Option<()> {
        let span = log.open("restart", self.parent, self.id);
        let start = Instant::now();
        let (mut daemon, mut conn) = ops.op(
            "daemon restart",
            start_daemon(
                self.env,
                log,
                span,
                self.id,
                &self.socket,
                &self.cache,
                samples,
            ),
        )?;
        let requests = [self.whole_grid()];
        let (_, responses) = ops.op(
            "first request after restart",
            spanned_batch(
                &mut conn,
                log,
                span,
                self.id,
                "request:restart_first",
                &requests,
            ),
        )?;
        let restart_s = start.elapsed().as_secs_f64();
        let after = ops.op("metrics", conn.metrics())?;
        let recovered = ops.op("metrics", counter(&after, "serve.recovered"))?;
        let recomputed = ops.op("metrics", counter(&after, "serve.points_computed"))?;
        let identical = ops.check(
            "first request after restart",
            responses[0].digest == cold_digest,
            || "response after restart is not byte-identical to the cold one".to_owned(),
        );
        let from_disk = ops.check(
            "first request after restart",
            recovered == self.points() && recomputed == 0,
            || {
                format!(
                    "after restart serve.recovered={recovered} (expected {}), serve.points_computed={recomputed} (expected 0)",
                    self.points()
                )
            },
        );
        if identical && from_disk {
            samples.restart_first_s.push(restart_s);
        }
        samples.restart_recovered.push(recovered);
        let down = ops.op("shutdown", conn.shutdown(&mut daemon));
        log.close(span);
        down
    }
}

/// One rep: fresh daemon on an empty cache, the cold request, the warm
/// phase, a clean shutdown, then new daemons on the same cache and
/// their first request. A hard failure abandons the rep (the daemon
/// guard reaps the process).
fn serve_rep(
    rep: &Rep,
    rng: &mut Rng,
    log: &mut SpanLog,
    samples: &mut ServeSamples,
    ops: &mut Ops,
) -> Option<()> {
    let (mut daemon, mut conn) = ops.op(
        "daemon start",
        start_daemon(
            rep.env,
            log,
            rep.parent,
            rep.id,
            &rep.socket,
            &rep.cache,
            samples,
        ),
    )?;
    let cold_digest = rep.cold(&mut conn, log, samples, ops)?;
    rep.warm(&mut conn, cold_digest, rng, log, samples, ops)?;
    rep.finish_first_daemon(conn, &mut daemon, log, samples, ops)?;
    for _ in 0..rep.shape.restarts {
        rep.restart(cold_digest, log, samples, ops)?;
    }
    samples
        .restart_journal
        .push(ops.op("serve manifest", rep.read_manifest())?);
    Some(())
}

pub fn serve_workload(env: &Env, shape: &Shape, log: &mut SpanLog) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut rng = Rng::new(env.seed);
    log.recording = env.traced;
    let root = log.open(shape.name, None, 0);

    // One `reproduce quick` first: it warms the host and states the
    // model's error beside the speed measured below. It is no part of
    // `setup_s`, which is what stands between a user and the first
    // answer: directory, daemon, connection.
    let span = log.open("accuracy_run", root, 0);
    let accuracy = ops.op("accuracy run", reproduce::run(env, "accuracy", false));
    log.close(span);
    let mut paper_dev = None;
    if let Some(run) = &accuracy {
        for why in reproduce::stdout_failures(&run.stdout, &env.goldens, None) {
            ops.fail("accuracy run", &why);
        }
        paper_dev = reproduce::paper_dev_pct(&run.stdout);
    }

    let mut samples = ServeSamples::default();
    let mut walls: Vec<(bool, f64)> = Vec::new();
    let mut budget = Budget::new(env);
    let mut rep = 0;
    while budget.more() {
        let recorded = set_recording(env, log, rep);
        let colds = samples.cold_wall_s.len();
        let span = log.open("rep", root, rep as u32 + 1);
        let this = Rep {
            env,
            shape,
            id: rep as u32 + 1,
            parent: span,
            socket: format!("d{rep}.sock"),
            cache: format!("cache{rep}"),
        };
        let done = serve_rep(&this, &mut rng, log, &mut samples, &mut ops);
        log.close(span);
        if done.is_some() && samples.cold_wall_s.len() > colds {
            walls.push((recorded, samples.cold_wall_s[colds]));
        }
        // A rep's cache can be 17 MB; do not let them pile up.
        let _ = std::fs::remove_dir_all(format!("cache{rep}"));
        rep += 1;
    }
    log.recording = env.traced;
    log.close(root);

    if samples
        .bytes_per_point
        .windows(2)
        .any(|pair| pair[0] != pair[1])
    {
        ops.fail(
            "cache size",
            "journal bytes differ between reps of the same request",
        );
    }
    let need = |what: &str, s: &[f64]| -> Result<f64, String> {
        if s.is_empty() {
            Err(format!("no successful {what}: {}", ops.failures.join("; ")))
        } else {
            Ok(median(s))
        }
    };
    let wall_s = need("cold request", &samples.cold_wall_s)?;
    // The warm phase as measured: per rep, frames over wall of all its
    // operations and the percentiles of its windows; then the median
    // over reps, so a rep that met a slow stretch of the host cannot
    // drag a percentile into its own samples.
    let per_rep =
        |f: &dyn Fn(&WarmPhase) -> f64| -> Vec<f64> { samples.warm.iter().map(f).collect() };
    let kframes = per_rep(&WarmPhase::kframes_per_s);
    let p50s = per_rep(&|w| 1e3 * percentile(&w.window_s, 50.0));
    let p90s = per_rep(&|w| 1e3 * percentile(&w.window_s, 90.0));
    let pooled: Vec<f64> = samples
        .warm
        .iter()
        .flat_map(|w| w.window_s.iter().copied())
        .collect();
    let measured = [need("warm phase", &kframes)?, median(&p50s), median(&p90s)];
    let [warm_kframes, warm_p50_ms, warm_p90_ms] = if shape.warm_is_end_to_end {
        measured
    } else {
        [
            need("cold request", &samples.cold_kframes_per_s)?,
            1e3 * wall_s,
            1e3 * wall_s,
        ]
    };
    let rates: Vec<f64> = samples
        .cold_wall_s
        .iter()
        .map(|w| shape.sim_cycles as f64 / 1e6 / w)
        .collect();
    let e2e = vec![
        (
            "setup_s",
            env.scratch_s
                + need("daemon start", &samples.spawn_s)?
                + need("connect", &samples.connect_s)?,
        ),
        ("wall_s", wall_s),
        ("sim_mcycles_per_s", median(&rates)),
        (
            "peak_rss_mb",
            need("daemon RSS sample", &samples.rss_kb)? / 1024.0,
        ),
        ("ok_ops_pct", ops.ok_pct()),
        (
            "paper_dev_pct",
            paper_dev.ok_or("accuracy run lacks the Figure 12/13 'vs paper' cells")?,
        ),
        ("warm_stream_kframes_per_s", warm_kframes),
        ("warm_p50_ms", warm_p50_ms),
        ("warm_p90_ms", warm_p90_ms),
        (
            "restart_first_request_s",
            need("first request after restart", &samples.restart_first_s)?,
        ),
        (
            "cache_bytes_per_point",
            need("cache size", &samples.bytes_per_point)?,
        ),
    ];

    let mut layers = Vec::new();
    if env.traced {
        let last = |v: &[JournalStats]| v.last().copied().unwrap_or_default();
        let (first_journal, restart_journal) =
            (last(&samples.first_journal), last(&samples.restart_journal));
        let [requests, hits, computed] = samples.counters.last().copied().unwrap_or_default();
        layers = vec![
            ("core.journal.appended", first_journal.appended as f64),
            ("core.journal.served", first_journal.served as f64),
            ("core.journal.recovered", restart_journal.recovered as f64),
            ("core.journal.torn_bytes", restart_journal.torn as f64),
            ("core.journal.file_bytes", median(&samples.file_bytes)),
            ("core.serve.connect_ms", 1e3 * median(&samples.connect_s)),
            ("core.serve.ttff_ms", 1e3 * median(&samples.cold_ttff_s)),
            (
                "core.serve.stream_ms",
                1e3 * median(
                    &samples
                        .cold_wall_s
                        .iter()
                        .zip(&samples.cold_ttff_s)
                        .map(|(w, t)| w - t)
                        .collect::<Vec<f64>>(),
                ),
            ),
            ("core.serve.warm_kframes_per_s", measured[0]),
            ("core.serve.warm_p50_ms", measured[1]),
            ("core.serve.warm_p90_ms", measured[2]),
            ("core.serve.warm_p99_ms", 1e3 * percentile(&pooled, 99.0)),
            ("core.serve.requests", requests as f64),
            ("core.serve.cache_hits", hits as f64),
            ("core.serve.points_computed", computed as f64),
            (
                "core.serve.recovered",
                samples
                    .restart_recovered
                    .last()
                    .copied()
                    .unwrap_or_default() as f64,
            ),
            (
                "core.serve.hit_ratio",
                hits as f64 / (hits + computed).max(1) as f64,
            ),
        ];
        if let Some(pct) = trace_overhead_pct(&walls) {
            layers.push(("harness.trace_overhead_pct", pct));
        }
    }
    let n = pooled.len();
    let notes = vec![
        format!(
            "{} cold request(s), {} warm stream(s), {n} warm window(s), {} a rep; highest percentile with ten samples beyond it in a rep: p{}; p99 over all of them has {} beyond",
            samples.cold_wall_s.len(),
            samples.warm.iter().map(|w| w.streams).sum::<usize>(),
            shape.windows,
            highest_supported_percentile(shape.windows, &[50.0, 90.0, 99.0]),
            samples_beyond(n, 99.0)
        ),
        format!("wall_s per rep: {}", join_samples(&samples.cold_wall_s)),
        format!("restart_first_request_s per rep: {}", join_samples(&samples.restart_first_s)),
        format!("warm kframes/s per rep: {}", join_samples(&kframes)),
        format!("warm p50 ms per rep: {}", join_samples(&p50s)),
        format!("warm p90 ms per rep: {}", join_samples(&p90s)),
    ];
    Ok(Outcome {
        e2e,
        layers,
        ops,
        reps: samples.cold_wall_s.len(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_indices_map_to_bench_threads_and_cores() {
        // (bench, T/C, cores): Int/HP/Hist = 0/1/2.
        assert_eq!(scaling_index(0, 1, 1), 0);
        assert_eq!(scaling_index(0, 1, 25), 24);
        assert_eq!(scaling_index(0, 2, 25), 49);
        assert_eq!(scaling_index(1, 1, 25), 74);
        assert_eq!(scaling_index(2, 2, 25), 149);
        for index in 0..150 {
            let (bench, tpc, cores) = scaling_point(index);
            assert!(bench < 3 && (1..=2).contains(&tpc) && (1..=25).contains(&cores));
            assert_eq!(scaling_index(bench, tpc, cores), index);
        }
        let spec = |s: &Shape| {
            s.indices
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let saturated = shape("scaling_saturated").unwrap();
        assert_eq!(spec(&saturated), saturated.grid);
        assert!(saturated.indices.iter().all(|i| scaling_point(*i).2 == 25));
        let sparse = shape("scaling_sparse").unwrap();
        assert_eq!(spec(&sparse), sparse.grid);
        assert!(sparse.indices.iter().all(|i| scaling_point(*i).2 == 1));
    }

    #[test]
    fn simulated_cycles_follow_the_measurement_protocol() {
        assert_eq!(
            parse_fidelity("s=64,c=10000,w=200000"),
            Some((64, 10_000, 200_000))
        );
        assert_eq!(parse_fidelity("w=1,s=2,c=3"), Some((2, 3, 1)));
        assert_eq!(parse_fidelity("quick"), Some((12, 3_000, 30_000)));
        assert_eq!(parse_fidelity("s=1,c=2"), None);
        assert_eq!(parse_fidelity("s=1,c=2,x=3"), None);
        // w + s*c per scaling point, w/4 + s*c per noc point.
        assert_eq!(
            sim_cycles("scaling", 1, "s=64,c=10000,w=200000"),
            Some(840_000)
        );
        assert_eq!(
            sim_cycles("noc", 1, "s=128,c=1000000,w=300000"),
            Some(128_075_000)
        );
        assert_eq!(shape("scaling_saturated").unwrap().sim_cycles, 5_040_000);
        assert_eq!(shape("scaling_sparse").unwrap().sim_cycles, 155_400_000);
        assert_eq!(shape("noc_stream").unwrap().sim_cycles, 4_610_700_000);
        assert_eq!(shape("design_space_serve").unwrap().sim_cycles, 6_270_000);
        assert_eq!(sim_cycles("epi", 1, "quick"), None);
    }

    #[test]
    fn windows_are_a_pure_function_of_the_seed_and_stay_inside_the_grid() {
        let ds = shape("design_space_serve").unwrap();
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let mut differs = false;
        for _ in 0..200 {
            let (grid, expect) = ds.window(&mut a);
            assert_eq!((grid.clone(), expect.clone()), ds.window(&mut b));
            differs |= grid != ds.window(&mut c).0;
            assert_eq!(expect.len(), 2048);
            assert!(*expect.last().unwrap() < DESIGN_SPACE_POINTS);
            assert_eq!(grid, format!("{}-{}", expect[0], expect[2047]));
        }
        assert!(differs, "another seed must give other windows");
        let sat = shape("scaling_saturated").unwrap();
        let mut sizes = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let (grid, expect) = sat.window(&mut a);
            assert!(!expect.is_empty() && expect.iter().all(|i| sat.indices.contains(i)));
            assert!(expect.windows(2).all(|p| p[0] < p[1]));
            assert_eq!(grid.split(',').count(), expect.len());
            sizes.insert(expect.len());
        }
        assert!(sizes.len() > 3);
    }

    #[test]
    fn ops_count_failures_against_attempts() {
        let mut ops = Ops::default();
        assert_eq!(ops.op("a", Ok::<u8, String>(1)), Some(1));
        assert_eq!(ops.op::<u8>("b", Err("refused".to_owned())), None);
        assert!(ops.check("c", true, String::new));
        assert!(!ops.check("c", false, || "bad digest".to_owned()));
        assert_eq!((ops.attempted, ops.failed), (2, 2));
        assert_eq!(ops.ok_pct(), 0.0);
        assert_eq!(ops.failures, ["b: refused", "c: bad digest"]);
        assert_eq!(Ops::default().ok_pct(), 100.0);
    }

    #[test]
    fn trace_overhead_compares_recorded_and_unrecorded_reps() {
        let walls = [(true, 2.2), (false, 2.0), (true, 2.0), (false, 2.0)];
        let pct = trace_overhead_pct(&walls).unwrap();
        assert!((pct - 5.0).abs() < 1e-9, "{pct}");
        assert_eq!(trace_overhead_pct(&[(true, 1.0)]), None);
    }
}
