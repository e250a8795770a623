//! Sweep-as-a-service: the `piton-serve` daemon core.
//!
//! A [`Server`] listens on a Unix domain socket for newline-delimited
//! JSON requests ([`request`]), keys every requested grid point by the
//! content hash of (section, index, context) — the exact journal
//! context of `reproduce --journal` — and answers from a persistent
//! on-disk [`cache`] wherever it can, computing only the misses on the
//! shared index-ordered worker pool. Responses stream back as
//! checksummed [`frames`].
//!
//! The serving loop's invariants:
//!
//! * **Byte-identical responses.** Frames carry no cache-state: the
//!   same request answered cold, warm, or after a crash+restart
//!   produces the same bytes. Hit/miss behavior is observable only via
//!   the `serve.*` counters (`op: "metrics"`).
//! * **Sharded population.** Large selections are processed in shards
//!   of [`ServerConfig::shard_points`]. Each shard is one
//!   [`crate::runner::try_sweep_journaled`] call — the sweep
//!   `reproduce --journal` runs: serve what the cache holds, compute
//!   the misses behind the request's fault gate, append them in index
//!   order as they finish, fsync —
//!   and is streamed after it returns. A killed daemon keeps every point
//!   appended so far, a restart serves them from disk, and a cache file
//!   holds the bytes `reproduce` writes for the same points.
//! * **Cached points are stored bytes.** The journal holds each point's
//!   payload as the JSON text its point line carries; a shard serves it
//!   as that `String` and a result frame is laid out around the text
//!   ([`frames::push_result_line`]) with no decode or re-render. Only a request that misses resolves its compute path,
//!   so an all-cached request — warm, or the first after a restart —
//!   never calibrates.
//! * **Buffered stream.** Frames go through one buffered writer per
//!   connection, flushed after `hello`, after each shard (whose frames
//!   are written only once its fsync returned), and after each reply.
//! * **Crash points are durable-first.** A `crash=SECTION:IDX` fault
//!   term aborts the daemon only *after* the shard that computed the
//!   point is fsync'd — the journaled sweep's one crash rule — so a
//!   restart serves it from cache and the crash never re-fires: the
//!   deterministic hook the crash suite uses.
//! * **Shutdown rewrites no cache file.** A daemon SIGKILLed between
//!   requests leaves the bytes a cleanly stopped one does, and a
//!   restarted daemon recovers them without parsing.
//! * **Failures are holes, not poison.** A point that fails every
//!   attempt is reported in the done frame and *not* cached; a
//!   malformed request gets an error frame and the connection (and
//!   daemon) stay up.

pub mod cache;
pub mod eval;
pub mod frames;
pub mod request;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use piton_arch::error::PitonError;
use piton_board::fault::SabotageKind;
use piton_obs::manifest::{ServeContextRecord, ServeManifest};

use crate::experiments::Prepared;
use crate::journal::point_key;
use crate::runner;

use cache::ResultCache;
use frames::{Frame, FrameHole};
use request::{Request, RunRequest};

/// The manifest file the daemon writes into its cache directory on
/// clean shutdown.
pub const SERVE_MANIFEST_FILE: &str = "serve-manifest.json";

/// The longest request line the daemon reads, newline included: far
/// above any grid spec a client sends. A longer line gets an error
/// frame and its connection is closed, so a client that never sends
/// `\n` cannot grow the daemon without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Result-cache directory (created if missing).
    pub cache_dir: PathBuf,
    /// Worker threads for computing cache misses.
    pub jobs: usize,
    /// Grid points per durability shard: each shard is partitioned,
    /// computed, appended and fsync'd as a unit before streaming.
    pub shard_points: usize,
}

impl ServerConfig {
    /// Default configuration for the given socket and cache directory:
    /// [`runner::default_jobs`] workers, 512-point shards.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            cache_dir: cache_dir.into(),
            jobs: runner::default_jobs(),
            shard_points: 512,
        }
    }

    /// Same configuration with `jobs` miss-compute workers.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Same configuration with `shard_points` points per shard.
    #[must_use]
    pub fn with_shard_points(mut self, shard_points: usize) -> Self {
        self.shard_points = shard_points.max(1);
        self
    }
}

macro_rules! counters {
    ($($field:ident => $name:literal),* $(,)?) => {
        /// The daemon's `serve.*` counters, atomically maintained.
        #[derive(Debug, Default)]
        pub struct ServeCounters {
            $($field: AtomicU64,)*
        }

        impl ServeCounters {
            $(
                fn $field(&self, n: u64) {
                    self.$field.fetch_add(n, Ordering::Relaxed);
                }
            )*

            /// Every counter as `(name, value)`, sorted by name.
            #[must_use]
            pub fn snapshot(&self) -> Vec<(String, u64)> {
                let mut out = vec![
                    $(($name.to_owned(), self.$field.load(Ordering::Relaxed)),)*
                ];
                out.sort();
                out
            }

            /// One counter by its `serve.*` name (0 when unknown).
            #[must_use]
            pub fn value(&self, name: &str) -> u64 {
                match name {
                    $($name => self.$field.load(Ordering::Relaxed),)*
                    _ => 0,
                }
            }
        }
    };
}

counters! {
    cache_hits => "serve.cache_hits",
    calibrations => "serve.calibrations",
    connections => "serve.connections",
    errors => "serve.errors",
    holes => "serve.holes",
    points_computed => "serve.points_computed",
    recovered => "serve.recovered",
    requests => "serve.requests",
    torn => "serve.torn",
}

/// Section inputs by section and rendered request fidelity. A
/// section's inputs are built on the first request at its fidelity that
/// misses the cache (see [`eval::SectionEval::compute_fn`]) and kept for
/// the daemon's lifetime; `serve.calibrations` counts the `design_space`
/// rate libraries among them.
type SectionInputs = Mutex<HashMap<(&'static str, String), Prepared>>;

/// Shared per-connection context.
struct ConnCtx {
    cache: Arc<ResultCache>,
    inputs: Arc<SectionInputs>,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
    jobs: usize,
    shard_points: usize,
}

/// The daemon: a bound listener plus its cache and counters.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    listener: UnixListener,
    cache: Arc<ResultCache>,
    inputs: Arc<SectionInputs>,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the socket (replacing a stale socket file from a killed
    /// daemon) and opens the cache directory.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] on bind or cache-directory failures.
    pub fn bind(config: ServerConfig) -> Result<Self, PitonError> {
        let io = |what: &str, e: std::io::Error| {
            PitonError::codec(format!("socket {}: {what}: {e}", config.socket.display()))
        };
        // A socket file left by a SIGKILL'd daemon would fail the bind
        // forever; nothing can still be listening on it once we can
        // remove it.
        match std::fs::remove_file(&config.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io("remove stale socket", e)),
        }
        let listener = UnixListener::bind(&config.socket).map_err(|e| io("bind", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io("set nonblocking", e))?;
        let cache = Arc::new(ResultCache::open(&config.cache_dir)?);
        Ok(Self {
            config,
            listener,
            cache,
            inputs: Arc::default(),
            counters: Arc::new(ServeCounters::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The daemon's counters (shared; live while connections run).
    #[must_use]
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.counters)
    }

    /// A handle that stops [`Server::run`] when set to `true` (the
    /// in-process equivalent of the `shutdown` request).
    #[must_use]
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The bound socket path.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.config.socket
    }

    /// The current manifest view: configuration, counters, and every
    /// cached context's accounting.
    #[must_use]
    pub fn manifest(&self) -> ServeManifest {
        ServeManifest {
            jobs: self.config.jobs,
            shard_points: self.config.shard_points,
            counters: self.counters.snapshot(),
            contexts: self
                .cache
                .contexts()
                .into_iter()
                .map(|(context, file, stats)| ServeContextRecord {
                    context,
                    file,
                    stats,
                })
                .collect(),
        }
    }

    /// Runs the accept loop until shutdown (via a `shutdown` request or
    /// the [`Server::shutdown_handle`]), then drains connections,
    /// writes [`SERVE_MANIFEST_FILE`] into the cache directory and
    /// removes the socket file.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the final manifest cannot be
    /// written; accept errors on individual connections are absorbed.
    pub fn run(self) -> Result<ServeManifest, PitonError> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    self.counters.connections(1);
                    let ctx = ConnCtx {
                        cache: Arc::clone(&self.cache),
                        inputs: Arc::clone(&self.inputs),
                        counters: Arc::clone(&self.counters),
                        shutdown: Arc::clone(&self.shutdown),
                        jobs: self.config.jobs,
                        shard_points: self.config.shard_points,
                    };
                    handles.push(std::thread::spawn(move || handle_connection(stream, &ctx)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    // A single failed accept (e.g. a client vanishing
                    // mid-handshake) must not take the daemon down.
                    eprintln!("piton-serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            // Reap finished connection threads as we go.
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    let _ = handles.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
        let manifest = self.manifest();
        let path = self.cache.dir().join(SERVE_MANIFEST_FILE);
        std::fs::write(&path, manifest.to_json())
            .map_err(|e| PitonError::codec(format!("manifest {}: write: {e}", path.display())))?;
        let _ = std::fs::remove_file(&self.config.socket);
        Ok(manifest)
    }

    /// Spawns [`Server::run`] on a background thread — the in-process
    /// harness used by the conformance suite.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let socket = self.config.socket.clone();
        let counters = self.counters();
        let shutdown = self.shutdown_handle();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            socket,
            counters,
            shutdown,
            thread,
        }
    }
}

/// A background daemon started by [`Server::spawn`].
#[derive(Debug)]
pub struct ServerHandle {
    socket: PathBuf,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Result<ServeManifest, PitonError>>,
}

impl ServerHandle {
    /// The socket the daemon listens on.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's live counters.
    #[must_use]
    pub fn counters(&self) -> &ServeCounters {
        &self.counters
    }

    /// Requests shutdown and joins the daemon, returning its final
    /// manifest.
    ///
    /// # Errors
    ///
    /// Propagates the run loop's error, or reports the panic if the
    /// daemon thread died.
    pub fn stop(self) -> Result<ServeManifest, PitonError> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| PitonError::codec("serve thread panicked"))?
    }
}

fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(frame.encode().as_bytes())
}

fn handle_connection(stream: UnixStream, ctx: &ConnCtx) {
    // I/O failures mean the client is gone; drop the connection, keep
    // the daemon.
    let _ = serve_connection(stream, ctx);
}

/// Why a run request stopped early: the connection died (give up on
/// the client) versus the request was refused (error frame, carry on).
enum RunAbort {
    Io(std::io::Error),
    Refused(PitonError),
}

fn serve_connection(stream: UnixStream, ctx: &ConnCtx) -> std::io::Result<()> {
    // A short read timeout keeps idle request loops responsive to
    // shutdown: a client that holds its connection open must not pin
    // the daemon past a shutdown request.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        // `read_until` keeps partial data in `line` across timeouts, so
        // a request split over several reads reassembles intact; `take`
        // stops it at the line cap.
        let budget = (MAX_REQUEST_LINE - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        if line.len() == MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            ctx.counters.errors(1);
            write_frame(
                &mut writer,
                &Frame::Error {
                    message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                },
            )?;
            return writer.flush();
        }
        let request = String::from_utf8(std::mem::take(&mut line))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let line = request.trim_end_matches('\n');
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(line) {
            Err(e) => {
                ctx.counters.errors(1);
                write_frame(
                    &mut writer,
                    &Frame::Error {
                        message: e.to_string(),
                    },
                )?;
            }
            Ok(Request::Ping) => write_frame(
                &mut writer,
                &Frame::Pong {
                    version: env!("CARGO_PKG_VERSION").to_owned(),
                },
            )?,
            Ok(Request::Metrics) => write_frame(
                &mut writer,
                &Frame::Metrics {
                    counters: ctx.counters.snapshot(),
                },
            )?,
            Ok(Request::Shutdown) => {
                write_frame(&mut writer, &Frame::Bye)?;
                writer.flush()?;
                ctx.shutdown.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Ok(Request::Run(run)) => match handle_run(&mut writer, ctx, &run) {
                Ok(()) => {}
                Err(RunAbort::Io(e)) => return Err(e),
                Err(RunAbort::Refused(e)) => {
                    ctx.counters.errors(1);
                    write_frame(
                        &mut writer,
                        &Frame::Error {
                            message: e.to_string(),
                        },
                    )?;
                }
            },
        }
        writer.flush()?;
    }
}

fn handle_run(writer: &mut impl Write, ctx: &ConnCtx, run: &RunRequest) -> Result<(), RunAbort> {
    let eval = eval::resolve(run).map_err(RunAbort::Refused)?;
    let indices = run.grid.resolve(eval.len).map_err(RunAbort::Refused)?;
    let (journal, opened) = ctx
        .cache
        .journal(&eval.context)
        .map_err(RunAbort::Refused)?;
    if let Some(stats) = opened {
        ctx.counters.recovered(stats.recovered);
        ctx.counters.torn(stats.torn);
    }
    // Only a miss needs the compute path, so only a miss calibrates: a
    // request the cache holds whole never runs the cycle engine. A
    // point cached now stays cached, so a shard can only miss what this
    // scan saw missing. A `kill=` point is no miss: the fault gate
    // holes it on every attempt, so it never reaches the closure.
    let killed = |idx: usize| {
        run.fault.as_ref().is_some_and(|plan| {
            plan.sabotage_for(&run.section, idx)
                .is_some_and(|s| s.kind == SabotageKind::Kill)
        })
    };
    let missing = {
        let j = journal.lock().expect("cache journal lock");
        indices
            .iter()
            .any(|&idx| !j.contains(&run.section, idx) && !killed(idx))
    };
    let compute = missing
        .then(|| eval.compute_fn(&ctx.inputs, &ctx.counters))
        .transpose()
        .map_err(RunAbort::Refused)?;
    ctx.counters.requests(1);
    write_frame(
        writer,
        &Frame::Hello {
            id: run.id.clone(),
            section: run.section.clone(),
            context: eval.context.clone(),
            points: indices.len() as u64,
        },
    )
    .map_err(RunAbort::Io)?;
    writer.flush().map_err(RunAbort::Io)?;

    let mut holes: Vec<FrameHole> = Vec::new();
    // Per shard: its result frames laid out for one write.
    let mut lines = String::new();
    for shard in indices.chunks(ctx.shard_points.max(1)) {
        // Serve, compute, append and fsync the shard as one journaled
        // sweep before any frame (or any injected crash) references it.
        // Each item is the point's position in the shard. A point is
        // computed when the sweep called the compute closure for it or
        // it ended a hole: a served point does neither, and a `kill=`
        // point is a hole the closure never saw.
        let called: Vec<AtomicBool> = shard.iter().map(|_| AtomicBool::new(false)).collect();
        let out = runner::try_sweep_journaled(
            ctx.jobs,
            shard
                .iter()
                .enumerate()
                .map(|(pos, &idx)| (idx, pos))
                .collect(),
            &run.section,
            run.fault.as_ref(),
            Some(&journal),
            |idx, &pos, attempt| {
                called[pos].store(true, Ordering::Relaxed);
                let compute = compute
                    .as_ref()
                    .expect("the scan before hello saw every miss");
                compute(idx, attempt)
            },
        );
        let computed = out
            .iter()
            .zip(&called)
            .filter(|(point, called)| point.is_err() || called.load(Ordering::Relaxed))
            .count() as u64;
        ctx.counters.points_computed(computed);
        ctx.counters.cache_hits(shard.len() as u64 - computed);
        lines.clear();
        for (&idx, point) in shard.iter().zip(&out) {
            match point {
                Ok(text) => frames::push_result_line(
                    &mut lines,
                    &run.section,
                    idx as u64,
                    point_key(&eval.context, &run.section, idx),
                    text,
                ),
                Err(e) => holes.push(FrameHole {
                    index: idx as u64,
                    attempts: e.attempts,
                    error: e.failure.to_string(),
                }),
            }
        }
        writer.write_all(lines.as_bytes()).map_err(RunAbort::Io)?;
        writer.flush().map_err(RunAbort::Io)?;
    }
    ctx.counters.holes(holes.len() as u64);
    write_frame(
        writer,
        &Frame::Done {
            id: run.id.clone(),
            section: run.section.clone(),
            points: (indices.len() - holes.len()) as u64,
            holes,
        },
    )
    .map_err(RunAbort::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "piton-serve-mod-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        p
    }

    fn request_lines(socket: &Path, lines: &str) -> Vec<Frame> {
        let mut stream = UnixStream::connect(socket).expect("connect");
        stream.write_all(lines.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(stream)
            .lines()
            .map(|l| Frame::decode(l.unwrap().as_bytes()).expect("verified frame"))
            .collect()
    }

    #[test]
    fn config_builders_clamp_and_default() {
        let c = ServerConfig::new("/tmp/x.sock", "/tmp/cache")
            .with_jobs(0)
            .with_shard_points(0);
        assert_eq!((c.jobs, c.shard_points), (1, 1));
        assert!(ServerConfig::new("a", "b").jobs >= 1);
    }

    #[test]
    fn counters_snapshot_is_sorted_and_addressable() {
        let c = ServeCounters::default();
        c.cache_hits(3);
        c.requests(1);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 9);
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(c.value("serve.cache_hits"), 3);
        assert_eq!(c.value("serve.requests"), 1);
        assert_eq!(c.value("serve.nope"), 0);
    }

    #[test]
    fn daemon_answers_control_ops_and_shuts_down_cleanly() {
        let socket = temp_path("ctl.sock");
        let cache_dir = temp_path("ctl-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Server::bind(ServerConfig::new(&socket, &cache_dir)).unwrap();
        let handle = server.spawn();
        let frames = request_lines(
            &socket,
            "{\"op\":\"ping\"}\n{\"op\":\"metrics\"}\nnot json\n{\"op\":\"shutdown\"}\n",
        );
        assert!(
            matches!(&frames[0], Frame::Pong { version } if version == env!("CARGO_PKG_VERSION"))
        );
        assert!(matches!(&frames[1], Frame::Metrics { .. }));
        // The malformed line got an error frame and the daemon kept
        // answering on the same connection.
        assert!(matches!(&frames[2], Frame::Error { .. }));
        assert!(matches!(&frames[3], Frame::Bye));
        let manifest = handle.stop().unwrap();
        assert_eq!(manifest.counters.len(), 9);
        // The shutdown path wrote the manifest and removed the socket.
        let on_disk = std::fs::read_to_string(cache_dir.join(SERVE_MANIFEST_FILE)).unwrap();
        assert_eq!(ServeManifest::from_json(&on_disk).unwrap(), manifest);
        assert!(!socket.exists());
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn stale_socket_files_are_replaced_on_bind() {
        let socket = temp_path("stale.sock");
        let cache_dir = temp_path("stale-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::write(&socket, b"stale").unwrap();
        let server = Server::bind(ServerConfig::new(&socket, &cache_dir)).unwrap();
        assert_eq!(server.socket(), socket.as_path());
        drop(server);
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}
