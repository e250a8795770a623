//! `Journal::{open, record, sync, serve}` on a journal the size of one
//! `design_space` shard run (20 000 points, 512-point shards), written
//! to the working directory the harness provides.

#[path = "../timing.rs"]
mod timing;

use std::path::Path;
use std::time::Instant;

use piton_core::journal::Journal;
use piton_obs::json::{ObjectBuilder, Value};

const POINTS: usize = 20_000;
const SHARD: usize = 512;
const CONTEXT: &str = "piton/probe|fidelity=quick|effects=none|backend=analytic";

/// A payload the size of a design-space point's.
fn payload(i: usize) -> Value {
    let x = i as f64;
    ObjectBuilder::new()
        .field("power_w", Value::Float(1.9 + x * 1e-5))
        .field("epi_pj", Value::Float(210.0 + x * 1e-3))
        .field("junction_c", Value::Float(41.0 + x * 1e-4))
        .build()
}

fn main() {
    let path = Path::new("probe.journal");
    let payloads: Vec<Value> = (0..POINTS).map(payload).collect();
    let (mut record_s, mut sync_s, mut recover_s, mut serve_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let _ = std::fs::remove_file(path);
        let mut journal = Journal::open(path, CONTEXT).expect("open");
        let (mut recording, mut syncing) = (0.0, 0.0);
        for shard in payloads.chunks(SHARD).enumerate() {
            let start = Instant::now();
            for (i, v) in shard.1.iter().enumerate() {
                journal
                    .record("design_space", shard.0 * SHARD + i, v)
                    .expect("record");
            }
            recording += start.elapsed().as_secs_f64();
            let start = Instant::now();
            journal.sync().expect("sync");
            syncing += start.elapsed().as_secs_f64();
        }
        record_s.push(recording / POINTS as f64);
        sync_s.push(syncing / POINTS.div_ceil(SHARD) as f64);
        drop(journal);

        let start = Instant::now();
        let mut journal = Journal::open(path, CONTEXT).expect("reopen");
        recover_s.push(start.elapsed().as_secs_f64() / POINTS as f64);
        assert_eq!(journal.stats().recovered, POINTS as u64);

        let start = Instant::now();
        for i in 0..POINTS {
            std::hint::black_box(journal.serve("design_space", i).expect("served"));
        }
        serve_s.push(start.elapsed().as_secs_f64() / POINTS as f64);
    }
    let _ = std::fs::remove_file(path);
    timing::report(
        "core.journal.record_ns_per_point",
        timing::median(record_s) * 1e9,
    );
    timing::report("core.journal.sync_ms", timing::median(sync_s) * 1e3);
    timing::report(
        "core.journal.recover_ns_per_point",
        timing::median(recover_s) * 1e9,
    );
    timing::report(
        "core.journal.serve_ns_per_point",
        timing::median(serve_s) * 1e9,
    );
}
