//! Per-run metrics registry: counters, gauges, log₂ histograms.
//!
//! A registry belongs to the thread that called [`enable`] and to the
//! sweep workers that enter that thread's [`crate::Scope`], so two runs
//! in one process record into two registries. It sits *off* the
//! simulator's hot paths: cycle engines accumulate their tallies in
//! plain struct fields and publish them here once per machine (see
//! `Machine::publish_metrics` in `piton-sim`), and sweep/monitor code
//! records rare events (retries, holes, dropped ADC samples) directly.
//! Recording is gated on [`enabled`] — one thread-local load — so
//! threads that never opt in (unit tests, benches, the serve daemon)
//! pay a branch, not a mutex.
//!
//! Snapshots serialize into the `piton-run-manifest/v1` document (see
//! [`crate::manifest`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json::{ObjectBuilder, Value};

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` counts values
/// `v` with `bit_len(v) == i` (bucket 0 holds zeros), saturating at
/// the top bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-shape log₂ histogram over `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Arithmetic mean of the observations, if any.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A registry shared between a run's thread and its sweep workers. Its
/// contents have the shape of a [`MetricsSnapshot`].
pub(crate) type Shared = Arc<Mutex<MetricsSnapshot>>;

thread_local! {
    /// Whether this thread has a registry: the gate [`enabled`] reads,
    /// kept apart from [`REGISTRY`] so it is one destructor-free load.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REGISTRY: RefCell<Option<Shared>> = const { RefCell::new(None) };
}

/// Is metrics recording on for this thread? One thread-local load.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns metrics recording on for this thread, installing a fresh
/// registry if it has none (idempotent).
pub fn enable() {
    if !enabled() {
        install(Some(Shared::default()));
    }
}

/// Puts `registry` in this thread's slot and returns what was there.
fn install(registry: Option<Shared>) -> Option<Shared> {
    ENABLED.with(|e| e.set(registry.is_some()));
    REGISTRY.with(|r| r.replace(registry))
}

/// This thread's registry, for its sweep workers to share.
pub(crate) fn current() -> Option<Shared> {
    REGISTRY.with(|r| r.borrow().clone())
}

/// Runs `body` recording into `registry` (nowhere when `None`) and
/// puts this thread's own registry back afterwards, also on unwind;
/// see [`crate::Scope::enter`].
pub(crate) fn enter<T>(registry: Option<Shared>, body: impl FnOnce() -> T) -> T {
    struct Restore(Option<Shared>);
    impl Drop for Restore {
        fn drop(&mut self) {
            install(self.0.take());
        }
    }
    let _restore = Restore(install(registry));
    body()
}

fn with_registry(f: impl FnOnce(&mut MetricsSnapshot)) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow().as_ref() {
            f(&mut reg.lock().expect("metrics registry lock"));
        }
    });
}

/// Adds `delta` to counter `name` (created at zero on first use).
pub fn counter_add(name: &str, delta: u64) {
    with_registry(|reg| {
        *reg.counters.entry(name.to_owned()).or_insert(0) += delta;
    });
}

/// Sets gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    with_registry(|reg| {
        reg.gauges.insert(name.to_owned(), value);
    });
}

/// Records `value` into histogram `name`.
pub fn histogram_observe(name: &str, value: u64) {
    with_registry(|reg| {
        reg.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    });
}

/// Merges a locally-accumulated histogram into histogram `name` in one
/// registry lock (the publish path for per-machine duty histograms).
pub fn histogram_merge(name: &str, h: &Histogram) {
    with_registry(|reg| {
        reg.histograms.entry(name.to_owned()).or_default().merge(h);
    });
}

/// An immutable copy of the registry contents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (the `metrics` field of a
    /// run manifest).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(i128::from(*v))))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Value::Array(
                        h.buckets
                            .iter()
                            .map(|&b| Value::Int(i128::from(b)))
                            .collect(),
                    );
                    let obj = ObjectBuilder::new()
                        .field("count", Value::Int(i128::from(h.count)))
                        .field("sum", Value::Int(i128::from(h.sum)))
                        .field("min", Value::Int(i128::from(h.min)))
                        .field("max", Value::Int(i128::from(h.max)))
                        .field("buckets", buckets)
                        .build();
                    (k.clone(), obj)
                })
                .collect(),
        );
        ObjectBuilder::new()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
            .build()
    }

    /// Parses a snapshot back from the JSON produced by
    /// [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the ill-typed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let mut out = MetricsSnapshot::default();
        if let Some(Value::Object(fields)) = v.get("counters") {
            for (k, v) in fields {
                out.counters.insert(
                    k.clone(),
                    v.as_u64()
                        .ok_or_else(|| format!("counter '{k}' not a u64"))?,
                );
            }
        }
        if let Some(Value::Object(fields)) = v.get("gauges") {
            for (k, v) in fields {
                out.gauges.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| format!("gauge '{k}' not a number"))?,
                );
            }
        }
        if let Some(Value::Object(fields)) = v.get("histograms") {
            for (k, v) in fields {
                let int = |key: &str| {
                    v.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("histogram '{k}' field '{key}' not a u64"))
                };
                let mut h = Histogram {
                    count: int("count")?,
                    sum: int("sum")?,
                    min: int("min")?,
                    max: int("max")?,
                    buckets: [0; HISTOGRAM_BUCKETS],
                };
                let buckets = v
                    .get("buckets")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("histogram '{k}' missing buckets"))?;
                if buckets.len() != HISTOGRAM_BUCKETS {
                    return Err(format!(
                        "histogram '{k}' has {} buckets, expected {HISTOGRAM_BUCKETS}",
                        buckets.len()
                    ));
                }
                for (slot, b) in h.buckets.iter_mut().zip(buckets) {
                    *slot = b
                        .as_u64()
                        .ok_or_else(|| format!("histogram '{k}' bucket not a u64"))?;
                }
                out.histograms.insert(k.clone(), h);
            }
        }
        Ok(out)
    }
}

/// Copies out this thread's registry contents (empty when disabled).
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    current().map_or_else(MetricsSnapshot::default, |reg| {
        reg.lock().expect("metrics registry lock").clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[11], 1); // 1024
        assert!((h.mean().unwrap() - 206.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [5, 9, 13] {
            a.observe(v);
            all.observe(v);
        }
        for v in [2, 70_000] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_round_trip_through_json() {
        // The registry is this test thread's alone, so the snapshot
        // holds exactly what this test recorded.
        assert!(!enabled());
        enable();
        counter_add("test.counter", 3);
        counter_add("test.counter", 4);
        gauge_set("test.gauge", 2.5);
        histogram_observe("test.hist", 17);
        let snap = snapshot();
        let mut hist = Histogram::default();
        hist.observe(17);
        let expected = MetricsSnapshot {
            counters: BTreeMap::from([("test.counter".to_owned(), 7)]),
            gauges: BTreeMap::from([("test.gauge".to_owned(), 2.5)]),
            histograms: BTreeMap::from([("test.hist".to_owned(), hist)]),
        };
        assert_eq!(snap, expected);
        assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn entered_threads_share_the_registry_and_others_do_not_record() {
        enable();
        let scope = crate::current();
        std::thread::scope(|s| {
            s.spawn(|| scope.enter(|| counter_add("shared", 2)));
            s.spawn(|| {
                assert!(!enabled());
                counter_add("shared", 100);
            });
        });
        counter_add("shared", 1);
        assert_eq!(
            snapshot().counters,
            BTreeMap::from([("shared".to_owned(), 3)])
        );
    }
}
