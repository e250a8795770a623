//! A `piton-serve` client written against the socket protocol alone:
//! newline-delimited JSON requests in, FNV-framed JSON lines out.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::child::{self, Daemon};
use crate::frame;
use crate::json::{self, Value};
use crate::Env;

/// The slowest request (a cold `design_space` or `noc` grid) takes
/// ~4 s on the authoring host.
const REQUEST_DEADLINE: Duration = Duration::from_secs(90);
const SPAWN_DEADLINE: Duration = Duration::from_secs(20);
const EXIT_DEADLINE: Duration = Duration::from_secs(20);

/// Starts `piton-serve --jobs 1` on a socket and cache directory in the
/// current (scratch) directory. Relative paths keep the socket path
/// well inside the 108-byte `sun_path` limit wherever the checkout is.
pub fn spawn_daemon(env: &Env, socket: &str, cache_dir: &str) -> Result<Daemon, String> {
    let mut cmd = Command::new(&env.serve);
    cmd.args(["--socket", socket, "--cache-dir", cache_dir, "--jobs", "1"]);
    child::scrub_env(&mut cmd);
    Daemon::spawn(&mut cmd, SPAWN_DEADLINE)
}

/// One request's verified response.
#[derive(Debug)]
pub struct Response {
    pub wall_s: f64,
    /// Write to first result frame (the `hello` frame before it only
    /// acknowledges the request); to the terminal frame when there is
    /// no result.
    pub ttff_s: f64,
    pub frames: u64,
    /// FNV-1a-64 over every response byte: two responses are
    /// byte-identical exactly when these agree.
    pub digest: u64,
    /// The terminal frame (`done`, `error`, `pong`, `metrics`, `bye`).
    pub last: Value,
    /// `index` of every result frame, in arrival order.
    pub indices: Vec<u64>,
}

impl Response {
    fn kind(&self) -> &str {
        self.last
            .get("frame")
            .and_then(Value::as_str)
            .unwrap_or("?")
    }

    /// Checks a run response: a `done` frame that accounts for exactly
    /// the selected points, in order, with no holes.
    pub fn check_run(&self, expect: &[u64]) -> Result<(), String> {
        if self.kind() != "done" {
            let why = self
                .last
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("");
            return Err(format!("request refused: {} frame {why}", self.kind()));
        }
        let points = self.last.get("points").and_then(Value::as_u64);
        let holes = self
            .last
            .get("holes")
            .and_then(Value::as_array)
            .map(<[Value]>::len);
        if points != Some(expect.len() as u64) || holes != Some(0) {
            return Err(format!(
                "done frame reports {points:?} point(s) and {holes:?} hole(s), expected {} and 0",
                expect.len()
            ));
        }
        if self.indices != expect {
            return Err("result frames do not match the requested grid".to_owned());
        }
        Ok(())
    }

    /// The `serve.*` counters of a `metrics` frame.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.last.get("counters")?.get(name)?.as_u64()
    }
}

pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: Vec<u8>,
}

impl Conn {
    /// Connects, then waits for a `pong`: the daemon's accept loop
    /// polls every 5 ms, and that wait belongs to connecting, not to
    /// the first request's latency.
    pub fn connect(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REQUEST_DEADLINE))
            .and_then(|()| stream.set_write_timeout(Some(REQUEST_DEADLINE)))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        let mut conn = Self {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            line: Vec::with_capacity(256),
        };
        let pong = conn.request("{\"op\":\"ping\"}")?;
        if pong.kind() != "pong" {
            return Err(format!("ping answered with a {} frame", pong.kind()));
        }
        Ok(conn)
    }

    /// Sends one request line and reads to its terminal frame.
    pub fn request(&mut self, request: &str) -> Result<Response, String> {
        let (_, mut responses) = self.pipeline(&[request])?;
        Ok(responses.remove(0))
    }

    /// Writes every request line at once, then reads each response to
    /// its terminal frame, in order; returns the wall time of the whole
    /// batch. Every line's checksum is verified; a timeout, EOF or
    /// framing violation fails the operation. Each response's times
    /// run from the batch's write.
    pub fn pipeline<S: AsRef<str>>(
        &mut self,
        requests: &[S],
    ) -> Result<(f64, Vec<Response>), String> {
        let mut lines = String::new();
        for r in requests {
            lines.push_str(r.as_ref());
            lines.push('\n');
        }
        let start = Instant::now();
        self.writer
            .write_all(lines.as_bytes())
            .map_err(|e| format!("write request: {e}"))?;
        let responses = requests
            .iter()
            .map(|_| self.read_response(start))
            .collect::<Result<Vec<Response>, String>>()?;
        Ok((start.elapsed().as_secs_f64(), responses))
    }

    fn read_response(&mut self, start: Instant) -> Result<Response, String> {
        let mut ttff_s = None;
        let mut frames = 0;
        let mut digest = frame::fnv64(b"");
        let mut indices = Vec::new();
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.line)
                .map_err(|e| format!("read frame: {e}"))?;
            if n == 0 || self.line.last() != Some(&b'\n') {
                return Err("daemon hung up mid-response".to_owned());
            }
            frames += 1;
            digest = frame::fnv64_extend(digest, &self.line);
            let body = frame::verify(&self.line[..n - 1])
                .ok_or_else(|| format!("frame {frames} fails its checksum"))?;
            if frame::is_result(body) {
                ttff_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
                indices.push(frame::result_index(body).ok_or("result frame without an index")?);
                continue;
            }
            let v = json::parse(body).map_err(|e| format!("frame {frames}: {e}"))?;
            if v.get("frame").and_then(Value::as_str) == Some("hello") {
                continue;
            }
            let wall_s = start.elapsed().as_secs_f64();
            return Ok(Response {
                wall_s,
                ttff_s: ttff_s.unwrap_or(wall_s),
                frames,
                digest,
                last: v,
                indices,
            });
        }
    }

    pub fn metrics(&mut self) -> Result<Response, String> {
        let r = self.request("{\"op\":\"metrics\"}")?;
        (r.kind() == "metrics")
            .then_some(r)
            .ok_or_else(|| "metrics op answered with another frame".to_owned())
    }

    /// Asks the daemon to exit and waits until it has, cleanly.
    pub fn shutdown(mut self, daemon: &mut Daemon) -> Result<(), String> {
        let bye = self.request("{\"op\":\"shutdown\"}")?;
        if bye.kind() != "bye" {
            return Err(format!("shutdown answered with a {} frame", bye.kind()));
        }
        drop(self);
        match daemon.wait_exit(EXIT_DEADLINE) {
            Some(true) => Ok(()),
            Some(false) => Err(format!(
                "daemon exited with a failure: {}",
                daemon.log.join(" | ")
            )),
            None => Err("daemon did not exit after shutdown; killed".to_owned()),
        }
    }
}

/// An `op: "run"` request line.
pub fn run_request(section: &str, grid: &str, fidelity: &str) -> String {
    format!(
        "{{\"op\":\"run\",\"section\":{},\"grid\":{},\"fidelity\":{}}}",
        json::quote(section),
        json::quote(grid),
        json::quote(fidelity)
    )
}

/// Journal accounting of the one context in a `serve-manifest.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    pub served: u64,
    pub appended: u64,
    pub recovered: u64,
    pub torn: u64,
}

/// Reads `serve-manifest.json`; the workloads use one context each.
pub fn parse_serve_manifest(text: &str) -> Result<JournalStats, String> {
    let v = json::parse(text).map_err(|e| format!("serve manifest: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some("piton-serve-manifest/v1") {
        return Err("serve manifest: schema is not piton-serve-manifest/v1".to_owned());
    }
    let contexts = v
        .get("contexts")
        .and_then(Value::as_array)
        .ok_or("serve manifest: no contexts")?;
    let [context] = contexts else {
        return Err(format!(
            "serve manifest: {} contexts, expected 1",
            contexts.len()
        ));
    };
    let field = |k: &str| {
        context
            .path(&format!("journal/{k}"))
            .and_then(Value::as_u64)
            .ok_or(format!("serve manifest: no journal/{k}"))
    };
    Ok(JournalStats {
        served: field("served")?,
        appended: field("appended")?,
        recovered: field("recovered")?,
        torn: field("torn")?,
    })
}

/// Bytes of every `ctx-*.journal` in a cache directory.
pub fn journal_bytes(cache_dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in
        std::fs::read_dir(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?
    {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name().to_string_lossy().ends_with(".journal") {
            total += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(last: &str, indices: &[u64]) -> Response {
        Response {
            wall_s: 0.0,
            ttff_s: 0.0,
            frames: 0,
            digest: 0,
            last: json::parse(last).unwrap(),
            indices: indices.to_vec(),
        }
    }

    #[test]
    fn metrics_frame_counters_are_extracted_from_a_committed_sample() {
        let line = include_str!("../testdata/metrics-frame.line").trim_end();
        let body = frame::verify(line.as_bytes()).expect("committed frame verifies");
        let r = response(body, &[]);
        assert_eq!(r.kind(), "metrics");
        assert_eq!(r.counter("serve.points_computed"), Some(6));
        assert_eq!(r.counter("serve.cache_hits"), Some(2));
        assert_eq!(r.counter("serve.requests"), Some(2));
        assert_eq!(r.counter("serve.nope"), None);
    }

    #[test]
    fn serve_manifest_journal_block_is_extracted_from_a_committed_sample() {
        let stats = parse_serve_manifest(include_str!("../testdata/serve-manifest.json")).unwrap();
        assert_eq!(
            stats,
            JournalStats {
                served: 2,
                appended: 6,
                recovered: 0,
                torn: 0
            }
        );
        assert!(
            parse_serve_manifest("{\"schema\":\"piton-serve-manifest/v1\",\"contexts\":[]}")
                .is_err()
        );
    }

    #[test]
    fn run_responses_must_account_for_every_requested_point() {
        let done = r#"{"frame":"done","section":"scaling","points":2,"holes":[]}"#;
        assert!(response(done, &[24, 49]).check_run(&[24, 49]).is_ok());
        assert!(response(done, &[24, 49]).check_run(&[24, 49, 74]).is_err());
        assert!(response(done, &[49, 24]).check_run(&[24, 49]).is_err());
        let holed = r#"{"frame":"done","section":"scaling","points":1,"holes":[{"index":49,"attempts":3,"error":"x"}]}"#;
        assert!(response(holed, &[24]).check_run(&[24]).is_err());
        let refused = r#"{"frame":"error","message":"unknown section"}"#;
        let err = response(refused, &[]).check_run(&[]).unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
    }
}
