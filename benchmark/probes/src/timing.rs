//! Shared by every probe through `#[path]`: timing loops and the
//! `name value` output protocol the harness parses.

// Each probe is its own crate and uses a subset of these helpers.
#![allow(dead_code)]

use std::hint::black_box;
use std::time::Instant;

/// Prints one metric line.
pub fn report(name: &str, value: f64) {
    println!("{name} {value}");
}

pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median of `rounds` timings of `body`, in seconds. The first round
/// is discarded: it pays for page faults and cold caches.
pub fn median_secs(rounds: usize, mut body: impl FnMut()) -> f64 {
    body();
    median(
        (0..rounds)
            .map(|_| {
                let start = Instant::now();
                body();
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Like [`median_secs`] for work that needs fresh state each round:
/// `setup` is not timed, `body` is.
pub fn median_secs_with<S>(
    rounds: usize,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S),
) -> f64 {
    median(
        (0..rounds)
            .map(|_| {
                let mut state = setup();
                let start = Instant::now();
                body(&mut state);
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Nanoseconds per call of `op`, as the median over `rounds` rounds of
/// `calls` calls each. The result of every call passes through
/// `black_box` so the work cannot be optimised away.
pub fn ns_per_call<T>(rounds: usize, calls: u64, mut op: impl FnMut(u64) -> T) -> f64 {
    let secs = median_secs(rounds, || {
        for i in 0..calls {
            black_box(op(black_box(i)));
        }
    });
    secs * 1e9 / calls as f64
}
