//! Request-level conformance suite for the `piton-serve` daemon.
//!
//! Drives an in-process [`Server`] over real Unix sockets and pins the
//! cache contract down at the protocol level:
//!
//! * a cold request computes and caches every grid point;
//! * an identical re-request is answered **entirely** from cache
//!   (zero points computed, asserted via the `serve.*` counters) and
//!   its frame stream is byte-identical to the cold one;
//! * any context change — fidelity, backend, fault effects — is a
//!   full miss;
//! * overlapping grids hit exactly the intersection;
//! * malformed requests produce a structured error frame and leave
//!   the daemon serving; an over-long request line closes only its own
//!   connection, and one just under the cap — a long string or deep
//!   nesting — is answered promptly;
//! * concurrent interleaved clients see exactly the responses serial
//!   execution produces;
//! * `design_space` calibrates on its first miss only — never for a
//!   request the cache holds whole — and never serves a file cached
//!   under another analytic model;
//! * a `kill=` fault on a `design_space` point holes that point in the
//!   done frame and streams the rest, and a request whose only misses
//!   are killed points does not calibrate;
//! * the cold Figure 12 (`noc`) transcripts match
//!   `tests/golden/serve_noc.jsonl` byte for byte.
//!
//! Everything runs at a tiny custom fidelity so the whole suite
//! computes milliseconds of simulation, not minutes.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use piton::characterization::experiments::design_space::DesignPoint;
use piton::characterization::journal::{Journal, JournalPayload};
use piton::characterization::serve::cache::context_file_name;
use piton::characterization::serve::frames::Frame;
use piton::characterization::serve::{Server, ServerConfig, ServerHandle};

/// Tiny custom fidelity used by every request in this suite.
const FIDELITY: &str = "s=2,c=500,w=2000";

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "piton-serve-conformance-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn_server(dir: &Path) -> ServerHandle {
    spawn_server_sharded(dir, 4)
}

fn spawn_server_sharded(dir: &Path, shard_points: usize) -> ServerHandle {
    let config = ServerConfig::new(dir.join("serve.sock"), dir.join("cache"))
        .with_jobs(2)
        .with_shard_points(shard_points);
    Server::bind(config).expect("bind").spawn()
}

/// Sends one request line and returns the raw frame bytes up to and
/// including the terminal frame, plus the decoded frames.
fn roundtrip(socket: &Path, request: &str) -> (Vec<u8>, Vec<Frame>) {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("write request");
    read_response(&mut BufReader::new(stream))
}

/// Reads frames off an existing connection until the terminal frame.
fn read_response(reader: &mut BufReader<UnixStream>) -> (Vec<u8>, Vec<Frame>) {
    let mut raw = Vec::new();
    let mut frames = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read frame");
        assert_ne!(n, 0, "daemon hung up mid-response");
        raw.extend_from_slice(line.as_bytes());
        let frame = Frame::decode(line.as_bytes()).expect("frame decodes");
        let done = matches!(
            frame,
            Frame::Done { .. }
                | Frame::Error { .. }
                | Frame::Pong { .. }
                | Frame::Metrics { .. }
                | Frame::Bye
        );
        frames.push(frame);
        if done {
            break;
        }
    }
    (raw, frames)
}

fn run_request(section: &str, grid: &str) -> String {
    format!(r#"{{"op":"run","section":"{section}","grid":"{grid}","fidelity":"{FIDELITY}"}}"#)
}

/// Result payloads of a response stream, keyed by index.
fn payloads(frames: &[Frame]) -> Vec<(u64, String)> {
    frames
        .iter()
        .filter_map(|f| match f {
            Frame::Result { index, payload, .. } => Some((*index, payload.render())),
            _ => None,
        })
        .collect()
}

#[test]
fn warm_rerequest_serves_from_cache_byte_identically() {
    let dir = temp_dir("warm");
    let server = spawn_server(&dir);
    let req = run_request("scaling", "0-9");

    let (cold_bytes, cold_frames) = roundtrip(server.socket(), &req);
    let computed_cold = server.counters().value("serve.points_computed");
    let hits_cold = server.counters().value("serve.cache_hits");
    assert_eq!(computed_cold, 10, "cold request computes the full grid");
    assert_eq!(hits_cold, 0, "nothing cached before the first request");
    assert_eq!(payloads(&cold_frames).len(), 10);

    let (warm_bytes, _) = roundtrip(server.socket(), &req);
    assert_eq!(
        server.counters().value("serve.points_computed"),
        computed_cold,
        "warm request computes zero points"
    );
    assert_eq!(
        server.counters().value("serve.cache_hits"),
        10,
        "warm request is served entirely from cache"
    );
    assert_eq!(
        cold_bytes, warm_bytes,
        "cold and warm responses are byte-identical"
    );

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_context_change_is_a_full_miss() {
    let dir = temp_dir("context");
    let server = spawn_server(&dir);

    roundtrip(server.socket(), &run_request("scaling", "0-4"));
    let base = server.counters().value("serve.points_computed");
    assert_eq!(base, 5);

    // Same section and grid, different fidelity / fault effects: the
    // context string differs, so every point is recomputed.
    for (tag, request) in [
        (
            "fidelity",
            r#"{"op":"run","section":"scaling","grid":"0-4","fidelity":"s=3,c=500,w=2000"}"#
                .to_owned(),
        ),
        (
            "fault",
            format!(
                r#"{{"op":"run","section":"scaling","grid":"0-4","fidelity":"{FIDELITY}","fault":"seed=9,drop=0.25"}}"#
            ),
        ),
    ] {
        let before = server.counters().value("serve.points_computed");
        let hits_before = server.counters().value("serve.cache_hits");
        let (_, frames) = roundtrip(server.socket(), &request);
        assert_eq!(payloads(&frames).len(), 5, "{tag}");
        assert_eq!(
            server.counters().value("serve.points_computed") - before,
            5,
            "{tag}: full miss"
        );
        assert_eq!(
            server.counters().value("serve.cache_hits"),
            hits_before,
            "{tag}: no cross-context hits"
        );
    }

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_grids_hit_exactly_the_intersection() {
    let dir = temp_dir("overlap");
    let server = spawn_server(&dir);

    let (_, first) = roundtrip(server.socket(), &run_request("scaling", "0-9"));
    assert_eq!(server.counters().value("serve.points_computed"), 10);

    // 5-14 overlaps 0-9 on exactly {5..=9}: five hits, five computes.
    let (_, second) = roundtrip(server.socket(), &run_request("scaling", "5-14"));
    assert_eq!(server.counters().value("serve.points_computed"), 15);
    assert_eq!(server.counters().value("serve.cache_hits"), 5);

    // The shared points carry identical payloads in both streams.
    let first: std::collections::HashMap<u64, String> = payloads(&first).into_iter().collect();
    for (index, payload) in payloads(&second) {
        if let Some(cached) = first.get(&index) {
            assert_eq!(&payload, cached, "index {index}");
        }
    }

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_error_frames_and_the_daemon_stays_up() {
    let dir = temp_dir("malformed");
    let server = spawn_server(&dir);

    let stream = UnixStream::connect(server.socket()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for bad in [
        "this is not json",
        "{}",
        r#"{"op":"run"}"#,
        r#"{"op":"run","section":"scaling","grid":"9-2"}"#,
        r#"{"op":"run","section":"noc","backend":"analytic"}"#,
    ] {
        writer.write_all(format!("{bad}\n").as_bytes()).unwrap();
        let (_, frames) = read_response(&mut reader);
        assert!(
            matches!(frames.as_slice(), [Frame::Error { .. }]),
            "{bad}: {frames:?}"
        );
    }
    // Same connection still serves well-formed requests afterwards.
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let (_, frames) = read_response(&mut reader);
    assert!(matches!(frames.as_slice(), [Frame::Pong { .. }]));
    assert_eq!(server.counters().value("serve.errors"), 5);
    assert_eq!(server.counters().value("serve.points_computed"), 0);

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_interleaved_clients_match_serial_execution() {
    let requests: Vec<String> = vec![
        run_request("scaling", "0-7"),
        run_request("scaling", "4-11"),
        run_request("scaling", "0-3,10-13"),
        run_request("scaling", "2,5,8,11"),
    ];

    // Serial reference: one fresh daemon, requests one at a time.
    let serial_dir = temp_dir("serial");
    let serial = spawn_server(&serial_dir);
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| roundtrip(serial.socket(), r).0)
        .collect();
    serial.stop().expect("clean stop");

    // Concurrent: a fresh daemon, all requests in flight at once from
    // separate connections.
    let conc_dir = temp_dir("concurrent");
    let server = spawn_server(&conc_dir);
    let socket = server.socket().to_path_buf();
    let got: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|r| {
                let socket = socket.clone();
                scope.spawn(move || roundtrip(&socket, r).0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(
            want, have,
            "request {i} must match its serial response byte-for-byte"
        );
    }
    // Whatever the interleaving, the union of work is bounded by the
    // serial union (14 distinct points) plus benign duplicate computes
    // of racing shards — and every distinct point was computed.
    let computed = server.counters().value("serve.points_computed");
    assert!(computed >= 14, "computed {computed}");

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&conc_dir);
}

#[test]
fn cache_persists_across_daemon_restarts() {
    let dir = temp_dir("restart");
    let req = run_request("scaling", "0-9");

    let first = spawn_server(&dir);
    let (cold_bytes, _) = roundtrip(first.socket(), &req);
    assert_eq!(first.counters().value("serve.points_computed"), 10);
    first.stop().expect("clean stop");

    // A brand-new daemon over the same cache directory answers the
    // same request without computing anything.
    let second = spawn_server(&dir);
    let (warm_bytes, _) = roundtrip(second.socket(), &req);
    assert_eq!(second.counters().value("serve.points_computed"), 0);
    assert_eq!(second.counters().value("serve.cache_hits"), 10);
    assert_eq!(cold_bytes, warm_bytes);

    second.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn design_space_calibrates_on_the_first_miss_only() {
    let dir = temp_dir("calibrate");
    let req = run_request("design_space", "0-2999");

    let first = spawn_server_sharded(&dir, 512);
    let (cold_bytes, cold_frames) = roundtrip(first.socket(), &req);
    assert_eq!(payloads(&cold_frames).len(), 3000);
    assert_eq!(first.counters().value("serve.points_computed"), 3000);
    assert_eq!(first.counters().value("serve.calibrations"), 1);
    first.stop().expect("clean stop");

    // A daemon restarted on the full cache answers byte-identically
    // without fitting the model or computing a point.
    let second = spawn_server_sharded(&dir, 512);
    let (warm_bytes, _) = roundtrip(second.socket(), &req);
    assert_eq!(cold_bytes, warm_bytes);
    assert_eq!(second.counters().value("serve.points_computed"), 0);
    assert_eq!(second.counters().value("serve.calibrations"), 0);

    // Mixing cached and missing points calibrates once; the fitted
    // model then serves later misses at the same fidelity.
    for (grid, computed) in [("2990-3009", 10), ("3005-3020", 21)] {
        let (_, frames) = roundtrip(second.socket(), &run_request("design_space", grid));
        assert!(matches!(frames.last(), Some(Frame::Done { holes, .. }) if holes.is_empty()));
        assert_eq!(
            second.counters().value("serve.points_computed"),
            computed,
            "{grid}"
        );
        assert_eq!(second.counters().value("serve.calibrations"), 1, "{grid}");
    }

    second.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The analytic context names the model's coefficient digest. A cache
/// file written under the context string of a model without one (the
/// least-squares refit's) is never opened, so its numbers never reach
/// a client.
#[test]
fn design_space_misses_a_cache_recorded_without_the_model_digest() {
    let dir = temp_dir("stale-model");
    let stale = format!(
        "piton/{}|fidelity={FIDELITY}|effects=none|backend=analytic",
        env!("CARGO_PKG_VERSION")
    );
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let planted = DesignPoint {
        power_w: 1.5,
        nj_per_inst: 2.5,
        junction_c: 30.0,
    };
    let mut journal = Journal::open(&cache.join(context_file_name(&stale)), &stale).unwrap();
    journal
        .record_text("design_space", 0, &planted.to_text())
        .unwrap();
    journal.sync().unwrap();
    drop(journal);

    let server = spawn_server(&dir);
    let (_, frames) = roundtrip(server.socket(), &run_request("design_space", "0"));
    assert_eq!(server.counters().value("serve.cache_hits"), 0);
    assert_eq!(server.counters().value("serve.points_computed"), 1);
    let served = payloads(&frames);
    assert_eq!(served.len(), 1);
    assert_ne!(served[0].1, planted.to_text());

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_design_space_point_is_a_hole_in_the_done_frame() {
    let dir = temp_dir("ds-kill");
    let server = spawn_server(&dir);
    let request = format!(
        r#"{{"op":"run","section":"design_space","grid":"0-3","fidelity":"{FIDELITY}","fault":"kill=design_space:2"}}"#
    );
    let (_, frames) = roundtrip(server.socket(), &request);
    let served: Vec<u64> = payloads(&frames).into_iter().map(|(i, _)| i).collect();
    assert_eq!(served, [0, 1, 3]);
    match frames.last() {
        Some(Frame::Done { points, holes, .. }) => {
            assert_eq!(*points, 3);
            assert_eq!(holes.len(), 1, "{holes:?}");
            assert_eq!((holes[0].index, holes[0].attempts), (2, 3));
        }
        other => panic!("expected a done frame, got {other:?}"),
    }
    // The hole was a miss, not a hit, and it is not cached.
    assert_eq!(server.counters().value("serve.points_computed"), 4);
    assert_eq!(server.counters().value("serve.cache_hits"), 0);

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request whose only misses are `kill=` points has nothing to
/// compute, so a daemon restarted on the rest of its grid answers it
/// without calibrating and still holes the killed point.
#[test]
fn a_request_missing_only_killed_points_does_not_calibrate() {
    let dir = temp_dir("ds-kill-restart");
    let killed = |grid: &str| {
        format!(
            r#"{{"op":"run","section":"design_space","grid":"{grid}","fidelity":"{FIDELITY}","fault":"kill=design_space:2"}}"#
        )
    };
    let first = spawn_server(&dir);
    let (_, frames) = roundtrip(first.socket(), &killed("0,1,3"));
    assert_eq!(payloads(&frames).len(), 3);
    assert_eq!(first.counters().value("serve.calibrations"), 1);
    first.stop().expect("clean stop");

    let second = spawn_server(&dir);
    let (_, frames) = roundtrip(second.socket(), &killed("0-3"));
    let served: Vec<u64> = payloads(&frames).into_iter().map(|(i, _)| i).collect();
    assert_eq!(served, [0, 1, 3]);
    match frames.last() {
        Some(Frame::Done { points, holes, .. }) => {
            assert_eq!(*points, 3);
            assert_eq!(holes.len(), 1, "{holes:?}");
            assert_eq!((holes[0].index, holes[0].attempts), (2, 3));
        }
        other => panic!("expected a done frame, got {other:?}"),
    }
    assert_eq!(second.counters().value("serve.calibrations"), 0);
    assert_eq!(second.counters().value("serve.cache_hits"), 3);

    second.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Figure 12 bridge stream, served cold at the benchmark's
/// fidelity and at one where neither the sample nor the warm-up is a
/// multiple of the 47-cycle bridge pattern, is pinned byte for byte.
#[test]
fn cold_noc_transcripts_match_the_golden() {
    let dir = temp_dir("noc-golden");
    let server = spawn_server(&dir);
    // Rendered as `piton-client` prints them: one frame per line,
    // without the wire checksum.
    let mut transcript = String::new();
    for fidelity in ["s=128,c=1000000,w=300000", "s=3,c=1001,w=999"] {
        let request =
            format!(r#"{{"op":"run","section":"noc","grid":"all","fidelity":"{fidelity}"}}"#);
        for frame in roundtrip(server.socket(), &request).1 {
            transcript.push_str(&frame.to_value().render());
            transcript.push('\n');
        }
    }
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serve_noc.jsonl"
    ))
    .expect("read the golden");
    assert!(
        transcript == golden,
        "the cold noc transcripts drifted from tests/golden/serve_noc.jsonl"
    );
    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_line_just_under_the_cap_is_parsed_promptly() {
    use piton::characterization::serve::MAX_REQUEST_LINE;

    let dir = temp_dir("cap-line");
    let server = spawn_server(&dir);

    let stream = UnixStream::connect(server.socket()).expect("connect");
    // The cap bounds CPU as well as memory: parsing the line must take
    // well under this timeout, not minutes.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let (head, tail) = (r#"{"op":"ping","id":""#, "\"}\n");
    let mut line = head.to_owned();
    while line.len() + tail.len() + 16 < MAX_REQUEST_LINE {
        line.push_str(r#"é \"ab\\"#);
    }
    while line.len() + tail.len() < MAX_REQUEST_LINE - 1 {
        line.push('x');
    }
    line.push_str(tail);
    assert_eq!(line.len(), MAX_REQUEST_LINE - 1);
    writer.write_all(line.as_bytes()).unwrap();
    let (_, frames) = read_response(&mut reader);
    assert!(
        matches!(frames.as_slice(), [Frame::Pong { .. }]),
        "{frames:?}"
    );

    // Nesting that fills the line is refused, not a stack overflow.
    let mut deep = "[".repeat(MAX_REQUEST_LINE - 1);
    deep.push('\n');
    writer.write_all(deep.as_bytes()).unwrap();
    let (_, frames) = read_response(&mut reader);
    assert!(
        matches!(frames.as_slice(), [Frame::Error { message }] if message.contains("nesting")),
        "{frames:?}"
    );

    // The same connection keeps serving.
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let (_, frames) = read_response(&mut reader);
    assert!(matches!(frames.as_slice(), [Frame::Pong { .. }]));
    assert_eq!(server.counters().value("serve.errors"), 1);

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_over_long_request_line_closes_only_its_connection() {
    use piton::characterization::serve::MAX_REQUEST_LINE;

    let dir = temp_dir("long-line");
    let server = spawn_server(&dir);

    let stream = UnixStream::connect(server.socket()).expect("connect");
    // The daemon must answer, not wait for a newline that never comes.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..=MAX_REQUEST_LINE / chunk.len() + 1 {
            // The daemon hangs up once the cap is passed.
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let (_, frames) = read_response(&mut reader);
    assert!(
        matches!(frames.as_slice(), [Frame::Error { message }] if message.contains("exceeds")),
        "{frames:?}"
    );
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "connection stays open: {rest:?}"
    );
    flood.join().unwrap();
    assert_eq!(server.counters().value("serve.errors"), 1);

    // Other connections are still served.
    let (_, frames) = roundtrip(server.socket(), r#"{"op":"ping"}"#);
    assert!(matches!(frames.as_slice(), [Frame::Pong { .. }]));

    server.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
}
