//! `MemorySystem::{load, store_drain, cas}`, one address stream per
//! hit level. Each stream checks the level it was built to produce.

#[path = "../timing.rs"]
mod timing;

use std::hint::black_box;

use piton_arch::config::ChipConfig;
use piton_arch::topology::TileId;
use piton_sim::events::ActivityCounters;
use piton_sim::memsys::{HitLevel, MemorySystem};

const LINES: u64 = 4_096;
const BASE: u64 = 0x4000_0000;

fn line_addr(i: u64) -> u64 {
    BASE + i * 64
}

fn main() {
    let cfg = ChipConfig::piton();
    let (t0, t1) = (TileId::new(0), TileId::new(12));

    // L1 hit: the same word again and again.
    let mut ms = MemorySystem::new(&cfg);
    let mut act = ActivityCounters::default();
    ms.load(t0, BASE, 0, &mut act);
    assert_eq!(ms.load(t0, BASE, 1, &mut act).level, HitLevel::L1);
    timing::report(
        "sim.memsys.load_l1_hit_ns",
        timing::ns_per_call(5, 200_000, |i| ms.load(t0, BASE, i, &mut act).latency),
    );

    // Miss: every line is touched for the first time.
    let secs = timing::median_secs_with(
        5,
        || (MemorySystem::new(&cfg), ActivityCounters::default()),
        |(ms, act)| {
            for i in 0..LINES {
                let out = ms.load(t0, line_addr(i), i, act);
                debug_assert!(matches!(out.level, HitLevel::Memory { .. }));
                black_box(out);
            }
        },
    );
    timing::report("sim.memsys.load_miss_ns", secs * 1e9 / LINES as f64);

    // L2 hit: another tile brought the lines on chip first.
    let mut l2_hits = 0u64;
    let secs = timing::median_secs_with(
        5,
        || {
            let (mut ms, mut act) = (MemorySystem::new(&cfg), ActivityCounters::default());
            for i in 0..LINES {
                ms.load(t0, line_addr(i), i, &mut act);
            }
            (ms, act)
        },
        |(ms, act)| {
            for i in 0..LINES {
                let out = ms.load(t1, line_addr(i), LINES + i, act);
                l2_hits += u64::from(matches!(out.level, HitLevel::L2 { .. }));
                black_box(out);
            }
        },
    );
    assert!(
        l2_hits * 10 >= 5 * LINES * 9,
        "stream built for L2 hits produced {l2_hits}"
    );
    timing::report("sim.memsys.load_l2_hit_ns", secs * 1e9 / LINES as f64);

    // Store drain and CAS on a line the tile already owns.
    let mut ms = MemorySystem::new(&cfg);
    let mut act = ActivityCounters::default();
    ms.store_drain(t0, BASE, 1, 0, &mut act);
    timing::report(
        "sim.memsys.store_drain_ns",
        timing::ns_per_call(5, 200_000, |i| ms.store_drain(t0, BASE, i, i, &mut act)),
    );
    timing::report(
        "sim.memsys.cas_ns",
        timing::ns_per_call(5, 200_000, |i| ms.cas(t0, BASE + 64, i, i + 1, i, &mut act)),
    );
}
