//! Property-based tests for the telemetry crate: histogram-merge
//! equivalence, well-formedness of the Prometheus text exposition, and
//! the JSON writer's round trip through the reader.

use gemini_check::prelude::*;
use gemini_check::test_runner::TestRng;
use gemini_telemetry::json::{self, Json, MAX_DEPTH};
use gemini_telemetry::{FixedHistogram, Key, MetricsRegistry};

/// Characters that stress the string writer: every escape JSON has, the
/// `\\u00xx` controls, DEL, the line separator, and 2- to 4-byte UTF-8
/// (the last two outside the BMP).
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    '\u{2028}',
    'é',
    '—',
    '😀',
    '\u{10ffff}',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.usize_in(0, 6))
        .map(|_| CHARS[rng.usize_in(0, CHARS.len())])
        .collect()
}

/// A key from a pool of four half the time, so objects often repeat one.
fn key(rng: &mut TestRng) -> String {
    match rng.usize_in(0, 8) {
        0..=3 => ["id", "", "é\"", "😀"][rng.usize_in(0, 4)].to_string(),
        _ => string(rng),
    }
}

/// A scalar; numbers come from every typed constructor, over all `f64`
/// bit patterns (a non-finite one is `null`).
fn scalar(rng: &mut TestRng) -> Json {
    let x = f64::from_bits(rng.next_u64());
    match rng.usize_in(0, 7) {
        0 => Json::Null,
        1 => Json::from(rng.next_u64() % 2 == 0),
        2 => Json::from(rng.next_u64()),
        3 => Json::fixed(x, rng.usize_in(0, 10)),
        4 => Json::fixed(rng.next_f64() * 1e6 - 5e5, rng.usize_in(0, 10)),
        5 => Json::float(x),
        _ => Json::Str(string(rng)),
    }
}

/// A value at most `levels` containers deep: a scalar, an empty
/// container, or a one-level container.
fn shallow(rng: &mut TestRng, levels: usize) -> Json {
    match (levels, rng.usize_in(0, 4)) {
        (0, _) | (_, 0) => scalar(rng),
        (_, 1) => Json::Arr(Vec::new()),
        (_, 2) => Json::Obj(Vec::new()),
        _ => nested(rng, 1),
    }
}

/// A value nested exactly `depth` containers deep along one path, with
/// siblings that never nest deeper.
fn nested(rng: &mut TestRng, depth: usize) -> Json {
    if depth == 0 {
        return scalar(rng);
    }
    let mut items: Vec<Json> = (0..rng.usize_in(0, 3))
        .map(|_| shallow(rng, depth - 1))
        .collect();
    let at = rng.usize_in(0, items.len() + 1);
    items.insert(at, nested(rng, depth - 1));
    if rng.next_u64() % 2 == 0 {
        Json::Arr(items)
    } else {
        Json::Obj(items.into_iter().map(|v| (key(rng), v)).collect())
    }
}

/// Generated JSON values, a quarter of them nested to [`MAX_DEPTH`].
struct JsonValues;

impl Strategy for JsonValues {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        let depth = match rng.usize_in(0, 4) {
            0 => MAX_DEPTH,
            _ => rng.usize_in(0, 6),
        };
        nested(rng, depth)
    }
}

/// Strictly-increasing bucket bounds.
fn bounds_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(1u64..1_000_000, 1..8).prop_map(|s| s.into_iter().collect())
}

proptest! {
    /// Merging two histograms is exactly recording the concatenated sample
    /// stream — counts, sum and every bucket agree.
    #[test]
    fn histogram_merge_equals_concatenated_stream(
        bounds in bounds_strategy(),
        a in prop::collection::vec(0u64..2_000_000, 0..60),
        b in prop::collection::vec(0u64..2_000_000, 0..60),
    ) {
        let mut ha = FixedHistogram::new(&bounds);
        let mut hb = FixedHistogram::new(&bounds);
        let mut hboth = FixedHistogram::new(&bounds);
        for &v in &a {
            ha.record(v);
            hboth.record(v);
        }
        for &v in &b {
            hb.record(v);
            hboth.record(v);
        }
        let merged = ha.merged(&hb).expect("same bounds merge");
        prop_assert_eq!(&merged, &hboth);
        // Merge is symmetric.
        prop_assert_eq!(hb.merged(&ha).expect("same bounds merge"), hboth);
        // Invariants: total count equals the stream length, buckets sum to
        // the count.
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.bucket_counts().iter().sum::<u64>(), merged.count());
    }

    /// The Prometheus exposition stays line-by-line parseable for any mix
    /// of recorded metrics: every line is either a `# TYPE name kind`
    /// comment or `name[{labels}] value` with a numeric value, names use
    /// only legal characters, and every sample line's family was declared
    /// by a preceding TYPE comment.
    #[test]
    fn prometheus_exposition_parses_line_by_line(
        counters in prop::collection::vec((0usize..4, 0u64..1_000), 0..12),
        gauges in prop::collection::vec((0usize..4, -1e9f64..1e9), 0..12),
        samples in prop::collection::vec((0usize..4, 0u64..10_000_000), 0..40),
    ) {
        const COUNTER_NAMES: [&str; 4] =
            ["ckpt.chunks", "kv.heartbeats", "net.transfers", "recovery.plans"];
        const GAUGE_NAMES: [&str; 4] = [
            "net.nic_busy_frac",
            "kv.alive_workers",
            "ckpt.remaining_idle_us",
            "sim.run_end_us",
        ];
        const HIST_KEYS: [Key; 4] = [
            Key {
                name: "recovery.retrieval_us",
                label: Some(("tier", "local_cpu")),
                label2: None,
            },
            Key {
                name: "recovery.retrieval_us",
                label: Some(("tier", "remote_cpu")),
                label2: Some(("cell", "kill_mid_checkpoint:1")),
            },
            Key {
                name: "ckpt.stall_us",
                label: None,
                label2: None,
            },
            Key {
                name: "net.transfer_queue_us",
                label: None,
                label2: None,
            },
        ];
        let mut m = MetricsRegistry::new();
        for (i, delta) in counters {
            m.counter_add(Key::plain(COUNTER_NAMES[i]), delta);
        }
        for (i, value) in gauges {
            m.gauge_set(Key::plain(GAUGE_NAMES[i]), value);
        }
        for (i, value) in samples {
            m.observe(HIST_KEYS[i], value);
        }

        let text = m.to_prometheus();
        let mut declared: Vec<String> = Vec::new();
        for line in text.lines() {
            prop_assert!(!line.is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().expect("type name");
                let kind = it.next().expect("type kind");
                prop_assert!(it.next().is_none());
                prop_assert!(["counter", "gauge", "histogram"].contains(&kind));
                declared.push(name.to_string());
                continue;
            }
            // Sample line: name[{labels}] value.
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            prop_assert!(
                value.parse::<f64>().is_ok(),
                "non-numeric value {value:?} in {line:?}"
            );
            let name = series.split('{').next().unwrap();
            prop_assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name {name:?}"
            );
            // The family (histogram suffixes stripped) must have been
            // declared by a TYPE line earlier in the text.
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            prop_assert!(
                declared.iter().any(|d| d == family || d == name),
                "sample {name:?} has no preceding TYPE declaration"
            );
            // Labels, when present, are balanced and quoted.
            if let Some(idx) = series.find('{') {
                prop_assert!(series.ends_with('}'), "unbalanced labels in {series:?}");
                let body = &series[idx + 1..series.len() - 1];
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').expect("label pair");
                    prop_assert!(!k.is_empty());
                    prop_assert!(v.starts_with('"') && v.ends_with('"'), "{v:?}");
                }
            }
        }
        // Histogram invariant in the exposition: cumulative +Inf bucket
        // equals the series count.
        if m.histogram(HIST_KEYS[2]).is_some() {
            let h = m.histogram(HIST_KEYS[2]).unwrap();
            let needle = format!("ckpt_stall_us_count {}", h.count());
            prop_assert!(text.contains(&needle), "{needle:?} missing");
        }
    }

    /// JSON export round-trips deterministically: rendering twice (and
    /// rendering a clone) yields byte-identical output.
    #[test]
    fn json_export_is_deterministic(
        counters in prop::collection::vec((0usize..3, 1u64..100), 0..10),
    ) {
        const NAMES: [&str; 3] = ["a.one", "b.two", "c.three"];
        let mut m = MetricsRegistry::new();
        for (i, delta) in counters {
            m.counter_add(Key::plain(NAMES[i]), delta);
        }
        let once = m.to_json();
        prop_assert_eq!(&once, &m.to_json());
        prop_assert_eq!(&once, &m.clone().to_json());
    }

    /// The writer's two forms read back to the value that was written,
    /// and the compact one escapes every control character (the reader
    /// accepts them raw, so the round trip alone would not notice).
    #[test]
    fn json_writes_parse_back_to_the_same_value(v in JsonValues) {
        let compact = v.compact();
        prop_assert!(compact.bytes().all(|b| b >= 0x20), "raw control byte: {compact:?}");
        prop_assert_eq!(json::parse(&compact).as_ref(), Ok(&v));
        prop_assert_eq!(json::parse(&v.pretty()).as_ref(), Ok(&v));
    }

    /// A float's shortest text reads back to the same `f64`.
    #[test]
    fn float_text_reads_back_to_the_same_f64(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        let written = json::parse(&Json::float(x).compact()).unwrap();
        match written.as_f64() {
            Some(y) => prop_assert_eq!(y.to_bits(), x.to_bits()),
            None => prop_assert!(!x.is_finite(), "{x} wrote {written:?}"),
        }
    }
}
