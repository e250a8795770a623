//! Round-trip property tests for the observability layer: trace
//! events through their JSONL encoding, fault plans through their spec
//! rendering, and run manifests through their JSON document.

// The vendored `proptest!` macro is a token-muncher; keep each
// invocation to a single property so expansion stays within the
// default recursion limit.
#![recursion_limit = "256"]

use proptest::prelude::*;

use piton::board::fault::{Brownout, CrashPoint, FaultPlan, Sabotage, SabotageKind};
use piton::obs::manifest::{HoleRecord, JournalStats, RunManifest, SectionRecord};
use piton::obs::metrics::Histogram;
use piton::obs::trace::{
    decode_jsonl, encode_jsonl, CacheKind, CacheLevel, EngineMode, TraceEvent,
};
use piton::obs::MetricsSnapshot;

/// Decodes one trace event from raw random words — every variant and
/// every enum value is reachable, with full-range integer payloads.
fn event_from_words(tag: u64, a: u64, b: u64, c: u64) -> TraceEvent {
    const OPS: [&str; 5] = ["Add", "Sdivx", "Ldx", "Casx", "Membar"];
    const LEVELS: [CacheLevel; 5] = [
        CacheLevel::L1I,
        CacheLevel::L1D,
        CacheLevel::L15,
        CacheLevel::L2,
        CacheLevel::Memory,
    ];
    const KINDS: [CacheKind; 6] = [
        CacheKind::Hit,
        CacheKind::Fill,
        CacheKind::Upgrade,
        CacheKind::Invalidate,
        CacheKind::Writeback,
        CacheKind::Atomic,
    ];
    const MODES: [EngineMode; 2] = [EngineMode::Dense, EngineMode::Naive];
    const POLICIES: [&str; 3] = ["throttle-on-boot", "race-to-halt", "energy-frontier"];
    match tag % 6 {
        0 => TraceEvent::Retire {
            cycle: a,
            tile: (b % 25) as u32,
            thread: (b >> 32) as u32 % 2,
            op: OPS[c as usize % OPS.len()].to_owned(),
            pc: c,
        },
        1 => TraceEvent::Cache {
            cycle: a,
            tile: (b % 25) as u32,
            level: LEVELS[b as usize % LEVELS.len()],
            kind: KINDS[(b >> 8) as usize % KINDS.len()],
            addr: c,
        },
        2 => TraceEvent::NocHop {
            cycle: a,
            noc: (b % 3) as u32,
            from: (b >> 8) as u32 % 25,
            to: (b >> 16) as u32 % 25,
            flits: (b >> 24) as u32 % 8,
        },
        3 => TraceEvent::Adc {
            channel: a,
            sample: b,
            microwatts: c as i64,
        },
        4 => TraceEvent::Engine {
            cycle: a,
            mode: MODES[b as usize % MODES.len()],
        },
        _ => TraceEvent::Governor {
            cycle: a,
            khz: b,
            millicelsius: c as i64,
            policy: POLICIES[b as usize % POLICIES.len()].to_owned(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity on arbitrary event sequences,
    /// including extreme u64/i64 payloads.
    #[test]
    fn trace_jsonl_round_trips(
        words in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
            ),
            0..40,
        ),
    ) {
        let events: Vec<TraceEvent> = words
            .iter()
            .map(|&(tag, a, b, c)| event_from_words(tag, a, b, c))
            .collect();
        let doc = encode_jsonl(&events);
        let back = decode_jsonl(&doc).expect("encoded stream must decode");
        prop_assert_eq!(back, events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FaultPlan::parse(&plan.render())` reconstructs the plan exactly
    /// (bitwise f64 rates included — `Display` round-trips shortest
    /// form).
    #[test]
    fn fault_plan_spec_round_trips(
        seed in proptest::strategy::any::<u64>(),
        rates in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        zero_mask in 0u8..8,
        brownout in (0u8..2, 0usize..512, 1usize..64, 0.0f64..1.0),
        sabotage in proptest::collection::vec(
            (0u8..2, 0usize..3, 0usize..64, 1u32..6),
            0..4,
        ),
        crash in proptest::collection::vec((0usize..3, 0usize..64), 0..3),
    ) {
        const SECTIONS: [&str; 3] = ["epi", "noc", "scaling"];
        let zeroed = |bit: u8, r: f64| if zero_mask & bit != 0 { 0.0 } else { r };
        let plan = FaultPlan {
            seed,
            drop_rate: zeroed(1, rates.0),
            stuck_rate: zeroed(2, rates.1),
            glitch_rate: zeroed(4, rates.2),
            brownout: (brownout.0 == 1).then_some(Brownout {
                start_sample: brownout.1,
                samples: brownout.2,
                factor: brownout.3,
            }),
            sabotage: sabotage
                .iter()
                .map(|&(kind, section, index, attempts)| Sabotage {
                    section: SECTIONS[section].to_owned(),
                    index,
                    kind: if kind == 0 {
                        SabotageKind::Kill
                    } else {
                        SabotageKind::Flaky { failing_attempts: attempts }
                    },
                })
                .collect(),
            crash: crash
                .iter()
                .map(|&(section, index)| CrashPoint {
                    section: SECTIONS[section].to_owned(),
                    index,
                })
                .collect(),
        };
        let spec = plan.render();
        let back = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("rendered spec {spec:?} must parse: {e}"));
        prop_assert_eq!(back, plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Run manifests round-trip through their JSON document with
    /// arbitrary metrics payloads.
    #[test]
    fn run_manifest_round_trips(
        jobs in 1usize..64,
        wall in (0.0f64..10_000.0, 0.0f64..10_000.0),
        counters in proptest::collection::vec(
            (0usize..6, proptest::strategy::any::<u64>()),
            0..6,
        ),
        observations in proptest::collection::vec(proptest::strategy::any::<u64>(), 1..20),
        hole_count in 0usize..3,
        with_fault in 0u8..2,
    ) {
        const NAMES: [&str; 6] = [
            "engine.steps",
            "engine.rewinds",
            "sweep.retries",
            "sweep.holes",
            "monitor.kept",
            "monitor.dropped",
        ];
        let mut metrics = MetricsSnapshot::default();
        for &(name, value) in &counters {
            let slot = metrics.counters.entry(NAMES[name].to_owned()).or_insert(0);
            *slot = slot.wrapping_add(value);
        }
        metrics.gauges.insert("bench.temp_c".to_owned(), wall.1);
        let mut h = Histogram::default();
        for &v in &observations {
            h.observe(v);
        }
        metrics.histograms.insert("engine.issue_duty".to_owned(), h);

        let manifest = RunManifest {
            fidelity: "quick".to_owned(),
            jobs,
            fault_plan: (with_fault == 1)
                .then(|| FaultPlan::with_seed(jobs as u64).render()),
            fault_effects: (with_fault == 1)
                .then(|| FaultPlan::with_seed(jobs as u64).render()),
            governor: (jobs % 2 == 1).then(|| "throttle-on-boot".to_owned()),
            backend: (jobs % 4 == 0).then(|| "analytic".to_owned()),
            journal: (jobs % 3 == 0).then(|| JournalStats {
                served: jobs as u64,
                appended: 46 - jobs as u64 % 47,
                recovered: jobs as u64,
                torn: u64::from(with_fault),
            }),
            total_wall_s: wall.0,
            sections: vec![SectionRecord {
                title: "Figure 11 — energy per instruction".to_owned(),
                wall_s: wall.0,
                busy_s: wall.1,
                sweeps: 1,
                points: 46,
            }],
            holes: (0..hole_count)
                .map(|i| HoleRecord {
                    section: "noc".to_owned(),
                    index: i,
                    point: format!("point {i}"),
                    attempts: 3,
                    error: "injected".to_owned(),
                })
                .collect(),
            metrics,
        };
        let doc = manifest.to_json();
        let back = RunManifest::from_json(&doc)
            .unwrap_or_else(|e| panic!("manifest must parse back: {e}"));
        prop_assert_eq!(back, manifest);
    }
}

/// A representative manifest with every optional block populated, used
/// by the torn-input robustness tests below.
fn dense_manifest() -> RunManifest {
    let mut metrics = MetricsSnapshot::default();
    metrics.counters.insert("journal.served".to_owned(), 104);
    metrics
        .gauges
        .insert("engine.record_hwm".to_owned(), 1000.0);
    let mut h = Histogram::default();
    h.observe(7);
    metrics.histograms.insert("engine.issue_duty".to_owned(), h);
    RunManifest {
        fidelity: "quick".to_owned(),
        jobs: 4,
        fault_plan: Some("seed=7,drop=0.25,kill=epi:3,crash=noc:1".to_owned()),
        fault_effects: Some("seed=7,drop=0.25,kill=epi:3".to_owned()),
        governor: Some("race-to-halt".to_owned()),
        backend: Some("both".to_owned()),
        journal: Some(JournalStats {
            served: 104,
            appended: 20,
            recovered: 104,
            torn: 69,
        }),
        total_wall_s: 3.25,
        sections: vec![SectionRecord {
            title: "Figure 12 - NoC energy per flit".to_owned(),
            wall_s: 0.5,
            busy_s: 1.75,
            sweeps: 1,
            points: 36,
        }],
        holes: vec![HoleRecord {
            section: "epi".to_owned(),
            index: 3,
            point: "add/Random".to_owned(),
            attempts: 3,
            error: "injected kill".to_owned(),
        }],
        metrics,
    }
}

/// The decode path must be total over torn input: truncating a valid
/// manifest at *every* byte offset yields a structured `PitonError` —
/// never a panic, never a silently-accepted partial document.
#[test]
fn manifest_decode_rejects_every_truncation() {
    let doc = dense_manifest().to_json();
    // Stop before the closing brace: dropping only the trailing
    // newline still leaves a complete document, which must decode.
    for cut in 0..doc.trim_end().len() {
        let torn = String::from_utf8_lossy(&doc.as_bytes()[..cut]);
        assert!(
            RunManifest::from_json(&torn).is_err(),
            "truncation at byte {cut} must not decode: {torn:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single-byte corruption of a valid manifest never
    /// panics the decoder: it either still round-trips (the byte landed
    /// in an equivalent encoding) or fails with a structured error.
    #[test]
    fn corrupted_manifest_never_panics(
        offset in proptest::strategy::any::<u64>(),
        byte in proptest::strategy::any::<u64>(),
    ) {
        let mut bytes = dense_manifest().to_json().into_bytes();
        let len = bytes.len() as u64;
        bytes[(offset % len) as usize] = (byte % 256) as u8;
        let doc = String::from_utf8_lossy(&bytes).into_owned();
        // Totality is the property: no panic, structured result.
        let _ = RunManifest::from_json(&doc);
    }
}

// ---------------------------------------------------------------------------
// piton-serve wire codec: request grammar and response frames.
// ---------------------------------------------------------------------------

use piton::arch::request::GridSpec;
use piton::characterization::journal::point_key;
use piton::characterization::serve::frames::{Frame, FrameHole};
use piton::obs::json::Value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grid specs render canonically: building a spec from an
    /// arbitrary index set, rendering, and parsing reconstructs the
    /// spec exactly, and the re-render is stable.
    #[test]
    fn grid_spec_round_trips_canonically(
        indices in proptest::collection::vec(0usize..4096, 1..48),
    ) {
        let spec = GridSpec::from_indices(&indices);
        let rendered = spec.render();
        let back = GridSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered spec {rendered:?} must parse: {e}"));
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.render(), rendered);
        // The spec selects exactly the deduped index set.
        let mut expect: Vec<usize> = indices.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(spec.resolve(4096).unwrap(), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parsing arbitrary grid-spec strings is total: structured result
    /// or error, never a panic — and whatever parses re-renders to a
    /// form that parses back to the same spec.
    #[test]
    fn grid_spec_parse_is_total(
        chars in proptest::collection::vec(0usize..14, 0..24),
    ) {
        const ALPHABET: [char; 14] =
            ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ',', '-', 'a', 'l'];
        let spec: String = chars.iter().map(|&c| ALPHABET[c]).collect();
        if let Ok(parsed) = GridSpec::parse(&spec) {
            let rendered = parsed.render();
            prop_assert_eq!(GridSpec::parse(&rendered).unwrap(), parsed);
        }
    }
}

/// Decodes one response frame from raw random words — every frame
/// kind, with and without optional fields, with full-range keys.
fn frame_from_words(tag: u64, a: u64, b: u64, c: u64) -> Frame {
    let id = a.is_multiple_of(2).then(|| format!("req-{b}"));
    match tag % 7 {
        0 => Frame::Hello {
            id,
            section: "scaling".to_owned(),
            context: format!("piton/0.1.0|fidelity=quick|effects=none|backend=cycle#{c}"),
            points: b,
        },
        1 => Frame::Result {
            section: "noc".to_owned(),
            index: a,
            key: b,
            payload: Value::Float((c % 4096) as f64 / 8.0),
        },
        2 => Frame::Done {
            id,
            section: "design_space".to_owned(),
            points: a,
            holes: (0..b % 4)
                .map(|i| FrameHole {
                    index: c.wrapping_add(i),
                    attempts: (i % 5) as u32,
                    error: format!("injected fault {i}"),
                })
                .collect(),
        },
        3 => Frame::Error {
            message: format!("unknown section \"sec-{c}\""),
        },
        4 => Frame::Pong {
            version: format!("{}.{}.{}", a % 10, b % 10, c % 10),
        },
        5 => Frame::Metrics {
            counters: vec![
                ("serve.cache_hits".to_owned(), a),
                ("serve.points_computed".to_owned(), b),
            ],
        },
        _ => Frame::Bye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity on every frame kind, including
    /// extreme u64 keys and counts.
    #[test]
    fn serve_frames_round_trip(
        words in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
            ),
            1..24,
        ),
    ) {
        for &(tag, a, b, c) in &words {
            let frame = frame_from_words(tag, a, b, c);
            let line = frame.encode();
            prop_assert_eq!(Frame::decode(line.as_bytes()).unwrap(), frame);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frame checksum makes decode total and tamper-evident:
    /// truncating an encoded frame at *every* byte offset fails with a
    /// structured error, and arbitrary single-byte corruption either
    /// errors or (when the byte is unchanged) still decodes equal —
    /// never panics, never yields a different frame.
    #[test]
    fn serve_frame_truncation_and_corruption_are_detected(
        tag in proptest::strategy::any::<u64>(),
        a in proptest::strategy::any::<u64>(),
        b in proptest::strategy::any::<u64>(),
        c in proptest::strategy::any::<u64>(),
        offset in proptest::strategy::any::<u64>(),
        byte in proptest::strategy::any::<u64>(),
    ) {
        let frame = frame_from_words(tag, a, b, c);
        let line = frame.encode();
        let bytes = line.trim_end().as_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Frame::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut corrupt = bytes.to_vec();
        let at = (offset % corrupt.len() as u64) as usize;
        corrupt[at] = (byte % 256) as u8;
        if let Ok(back) = Frame::decode(&corrupt) {
            prop_assert_eq!(back, frame);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache-key collision sanity: distinct (section, index, context)
    /// triples map to pairwise-distinct content keys, so a cache hit
    /// can only ever serve the exact requested point.
    #[test]
    fn serve_cache_keys_separate_distinct_points(
        sections in proptest::collection::vec(0usize..3, 2..24),
        indices in proptest::collection::vec(0usize..200_000, 2..24),
        contexts in proptest::collection::vec(0usize..4, 2..24),
    ) {
        const SECTIONS: [&str; 3] = ["noc", "scaling", "design_space"];
        const CONTEXTS: [&str; 4] = [
            "piton/0.1.0|fidelity=quick|effects=none|backend=cycle",
            "piton/0.1.0|fidelity=full|effects=none|backend=cycle",
            "piton/0.1.0|fidelity=quick|effects=seed=7,drop=0.25|backend=cycle",
            "piton/0.1.0|fidelity=quick|effects=none|backend=analytic",
        ];
        let mut triples: Vec<(&str, usize, &str)> = sections
            .iter()
            .zip(&indices)
            .zip(&contexts)
            .map(|((&s, &i), &ctx)| (SECTIONS[s], i, CONTEXTS[ctx]))
            .collect();
        triples.sort_unstable();
        triples.dedup();
        let keys: Vec<u64> = triples
            .iter()
            .map(|&(s, i, ctx)| point_key(ctx, s, i))
            .collect();
        for x in 0..keys.len() {
            for y in (x + 1)..keys.len() {
                prop_assert_ne!(
                    keys[x], keys[y],
                    "collision: {:?} vs {:?}", triples[x], triples[y]
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The byte path: stored payload text → journal → result frame.
// ---------------------------------------------------------------------------

use piton::arch::units::Watts;
use piton::characterization::experiments::design_space::DesignPoint;
use piton::characterization::journal::{push_frame_line, Journal, JournalPayload};
use piton::characterization::measure::WithError;
use piton::characterization::serve::frames::push_result_line;

/// A float from a random word: often a special value (NaN, ±inf, −0.0,
/// a subnormal), otherwise an arbitrary finite bit pattern, so every
/// exponent and mantissa width shows up.
fn float_from_word(w: u64) -> f64 {
    match w % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(w >> 12), // exponent bits zero: subnormal
        _ => Some(f64::from_bits(w))
            .filter(|f| f.is_finite())
            .unwrap_or(1.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A result frame laid out around a payload's text is the frame
    /// `Frame::encode` gives for the payload as a `Value`, byte for
    /// byte the generic layout of the frame's `to_value`, and decodes
    /// to a frame that re-encodes to the same bytes.
    #[test]
    fn result_frames_laid_out_from_payload_text_match_encode(
        words in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
            ),
            1..24,
        ),
    ) {
        for &(a, b, index, key) in &words {
            let payload = if index % 2 == 0 {
                Value::Float(float_from_word(a))
            } else {
                DesignPoint {
                    power_w: float_from_word(a),
                    nj_per_inst: float_from_word(b),
                    junction_c: float_from_word(a ^ b),
                }
                .to_value()
            };
            let mut laid = String::new();
            push_result_line(&mut laid, "design_space", index, key, &payload.render());
            let frame = Frame::Result {
                section: "design_space".to_owned(),
                index,
                key,
                payload,
            };
            prop_assert_eq!(&laid, &frame.encode());
            let mut generic = String::new();
            push_frame_line(&mut generic, |body| body.push_str(&frame.to_value().render()));
            prop_assert_eq!(&laid, &generic);
            prop_assert_eq!(&Frame::decode(laid.as_bytes()).unwrap().encode(), &laid);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A journal reopened after `record` serves, for every payload
    /// type, exactly the text `Value::render` gives for what was
    /// recorded — the text the serving loop puts on the wire.
    #[test]
    fn reopened_journals_serve_the_rendered_payload_text(
        words in proptest::collection::vec(proptest::strategy::any::<u64>(), 3..40),
    ) {
        let floats: Vec<f64> = words.iter().map(|&w| float_from_word(w)).collect();
        let payloads: Vec<(&str, Value)> = floats
            .windows(3)
            .enumerate()
            .map(|(i, f)| match i % 4 {
                0 => ("scaling", f[0].to_value()),
                1 => ("noc", Watts(f[0]).to_value()),
                2 => ("epi", WithError { value: f[0], error: f[1] }.to_value()),
                _ => (
                    "design_space",
                    DesignPoint {
                        power_w: f[0],
                        nj_per_inst: f[1],
                        junction_c: f[2],
                    }
                    .to_value(),
                ),
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "piton-obs-roundtrip-journal-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "ctx").unwrap();
            for (i, (section, v)) in payloads.iter().enumerate() {
                j.record(section, i, v).unwrap();
            }
            j.sync().unwrap();
        }
        let mut j = Journal::open(&path, "ctx").unwrap();
        prop_assert_eq!(j.stats().recovered as usize, payloads.len());
        for (i, (section, v)) in payloads.iter().enumerate() {
            prop_assert_eq!(j.serve(section, i), Some(v.render().as_str()));
        }
        let _ = std::fs::remove_file(&path);
    }
}
