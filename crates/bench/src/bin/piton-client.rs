//! `piton-client` — scripting client for the `piton-serve` daemon.
//!
//! Sends each request over one connection and prints every verified
//! response frame's JSON body to stdout, one per line — so two
//! invocations with the same requests against the same daemon can be
//! byte-compared directly (the cold-vs-warm conformance check).
//!
//! Usage:
//!
//! ```text
//! piton-client --socket PATH REQUEST [REQUEST ...]
//! piton-client --socket PATH -            # requests from stdin, one per line
//! ```
//!
//! A REQUEST is either a full JSON request line, or one of the
//! shorthands `ping`, `metrics`, `shutdown`. The client retries the
//! initial connect for ~5 s so scripts can launch it right after the
//! daemon. Frames are checksum-verified before printing; a framing
//! violation, a premature EOF, or a connect failure exits 1. Usage
//! errors exit 2. (Server-side `error` frames are printed and do not
//! change the exit status: refused requests are a daemon behavior
//! scripts assert on, not a client failure.)

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use piton_core::serve::frames::Frame;

fn usage() -> ! {
    eprintln!("usage: piton-client --socket PATH REQUEST [REQUEST ...]   (REQUEST may be '-')");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("piton-client: {msg}");
    std::process::exit(1);
}

/// The daemon may still be binding its socket when a script launches
/// the client; retry briefly before giving up.
fn connect(socket: &str) -> UnixStream {
    let mut last = None;
    for _ in 0..50 {
        match UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    fail(&format!(
        "connect {socket}: {}",
        last.expect("at least one attempt")
    ));
}

fn request_line(arg: &str) -> String {
    match arg {
        "ping" | "metrics" | "shutdown" => format!("{{\"op\":\"{arg}\"}}"),
        _ => arg.to_owned(),
    }
}

/// Whether this frame ends a request's response stream.
fn is_terminal(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::Done { .. }
            | Frame::Error { .. }
            | Frame::Pong { .. }
            | Frame::Metrics { .. }
            | Frame::Bye
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut requests: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--socket=") {
            socket = Some(v.to_owned());
        } else if args[i] == "--socket" {
            i += 1;
            socket = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
        } else {
            requests.push(args[i].clone());
        }
        i += 1;
    }
    let socket = socket.unwrap_or_else(|| usage());
    if requests.is_empty() {
        usage();
    }
    if requests.iter().any(|r| r == "-") {
        let mut stdin = String::new();
        if std::io::stdin().read_to_string(&mut stdin).is_err() {
            fail("could not read stdin");
        }
        let lines: Vec<String> = stdin
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_owned)
            .collect();
        requests = requests
            .into_iter()
            .flat_map(|r| if r == "-" { lines.clone() } else { vec![r] })
            .collect();
    }

    let stream = connect(&socket);
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        fail(&format!("clone stream: {e}"));
    });
    let mut reader = BufReader::new(stream);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for req in &requests {
        let line = request_line(req);
        if writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            fail("daemon hung up while writing the request");
        }
        // Read frames until this request's terminal frame.
        loop {
            let mut raw = String::new();
            match reader.read_line(&mut raw) {
                Ok(0) => fail("daemon hung up mid-response"),
                Ok(_) => {}
                Err(e) => fail(&format!("read: {e}")),
            }
            let frame = match Frame::decode(raw.as_bytes()) {
                Ok(f) => f,
                Err(e) => fail(&format!("corrupt frame: {e} (line: {})", raw.trim_end())),
            };
            // Print the verified JSON body — checksums are a transport
            // concern; consumers get clean JSONL.
            let done = is_terminal(&frame);
            if writeln!(out, "{}", frame.to_value().render()).is_err() {
                std::process::exit(1);
            }
            if done {
                break;
            }
        }
    }
}
