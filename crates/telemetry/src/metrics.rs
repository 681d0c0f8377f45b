//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Keys are `&'static str` names with an optional single static label, so
//! recording never allocates. Everything is stored in `BTreeMap`s and all
//! exporters iterate in key order, making exports byte-deterministic for
//! deterministic simulations.

use crate::{json::Json, json_obj};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Default histogram bucket upper bounds, in microseconds: decades from
/// 10 µs to 1000 s. Everything above the last bound lands in `+Inf`.
pub const DEFAULT_TIME_BOUNDS_US: &[u64] = &[
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// A metric identity: a dotted family name and at most two static labels.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Key {
    /// Dotted family name, e.g. `"recovery.retrieval_us"`.
    pub name: &'static str,
    /// Optional `(label_key, label_value)` pair, e.g. `("tier", "local_cpu")`.
    pub label: Option<(&'static str, &'static str)>,
    /// Optional second label pair, e.g. `("cell", "kill_mid_checkpoint:1")`.
    /// Dynamic values (plan/seed cells) come from [`intern_label`].
    pub label2: Option<(&'static str, &'static str)>,
}

impl Key {
    /// A label-free key.
    pub fn plain(name: &'static str) -> Key {
        Key {
            name,
            label: None,
            label2: None,
        }
    }

    /// A key with one label.
    pub fn labeled(name: &'static str, key: &'static str, value: &'static str) -> Key {
        Key {
            name,
            label: Some((key, value)),
            label2: None,
        }
    }

    /// A key with two labels.
    pub fn labeled2(
        name: &'static str,
        key1: &'static str,
        value1: &'static str,
        key2: &'static str,
        value2: &'static str,
    ) -> Key {
        Key {
            name,
            label: Some((key1, value1)),
            label2: Some((key2, value2)),
        }
    }

    /// All label pairs present, in declaration order.
    pub fn label_pairs(&self) -> Vec<(&'static str, &'static str)> {
        self.label.into_iter().chain(self.label2).collect()
    }

    /// Human-readable form: `name`, `name{key="value"}` or
    /// `name{k1="v1",k2="v2"}`.
    pub fn display(&self) -> String {
        format!("{}{}", self.name, labels(self, None))
    }
}

/// Hard cap on distinct interned label values in the process-wide
/// interner. Campaign cells (catalog × seed matrix) stay far below this;
/// a long-running service feeding per-tenant values through
/// [`intern_label`] hits the cap instead of leaking without bound.
pub const INTERN_LABEL_CAP: usize = 4096;

/// The shared value returned for every distinct label past an interner's
/// cap: cardinality collapses instead of memory growing.
pub const INTERN_OVERFLOW_LABEL: &str = "__label_overflow";

/// A bounded `&'static str` interner: each distinct value is leaked once
/// (re-interning returns the identical pointer), but at most `cap` values
/// are ever admitted — the `cap+1`-th distinct value and every later one
/// map to the shared [`INTERN_OVERFLOW_LABEL`]. High-cardinality inputs
/// therefore lose per-value resolution, never stability or memory safety.
pub struct BoundedInterner {
    cap: usize,
    set: Mutex<BTreeSet<&'static str>>,
    overflows: std::sync::atomic::AtomicU64,
}

impl BoundedInterner {
    /// An empty interner admitting at most `cap` distinct values.
    pub const fn new(cap: usize) -> BoundedInterner {
        BoundedInterner {
            cap,
            set: Mutex::new(BTreeSet::new()),
            overflows: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Interns `value`: pointer-stable for values admitted under the cap,
    /// [`INTERN_OVERFLOW_LABEL`] (also pointer-stable) once the table is
    /// full and `value` is new.
    pub fn intern(&self, value: &str) -> &'static str {
        let mut set = self.set.lock().expect("label interner poisoned");
        if let Some(existing) = set.get(value) {
            return existing;
        }
        if set.len() >= self.cap {
            self.overflows
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return INTERN_OVERFLOW_LABEL;
        }
        let leaked: &'static str = Box::leak(value.to_string().into_boxed_str());
        set.insert(leaked);
        leaked
    }

    /// Distinct values currently held; never exceeds the cap.
    pub fn len(&self) -> usize {
        self.set.lock().expect("label interner poisoned").len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many intern calls were turned away to the overflow label.
    pub fn overflow_count(&self) -> u64 {
        self.overflows.load(std::sync::atomic::Ordering::Relaxed)
    }
}

static GLOBAL_INTERNER: BoundedInterner = BoundedInterner::new(INTERN_LABEL_CAP);

/// Interns a dynamic label value (e.g. a `plan:seed` campaign cell) into a
/// `&'static str` usable in a [`Key`], via a process-wide
/// [`BoundedInterner`] capped at [`INTERN_LABEL_CAP`]. Formerly this
/// leaked every distinct value forever — fatal for a long-running service
/// with tenant-supplied labels; the bound makes the worst case a fixed
/// table plus a shared overflow label.
pub fn intern_label(value: &str) -> &'static str {
    GLOBAL_INTERNER.intern(value)
}

/// The number of distinct label values held by the process-wide interner.
/// Monotone, and never exceeds [`INTERN_LABEL_CAP`].
pub fn interned_label_count() -> usize {
    GLOBAL_INTERNER.len()
}

/// A histogram over `u64` samples with caller-fixed bucket bounds.
///
/// Samples, counts and sums are all integers, so merging two histograms is
/// *exactly* equal to recording the concatenated sample streams — the
/// property the crate's proptests pin down.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FixedHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl FixedHistogram {
    /// A histogram with the given strictly-increasing upper bounds; one
    /// extra implicit `+Inf` bucket catches everything beyond the last.
    pub fn new(bounds: &[u64]) -> FixedHistogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The mean sample, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Merges two snapshots taken with identical bounds. Returns `None`
    /// when the bounds differ (the histograms are not mergeable).
    pub fn merged(&self, other: &FixedHistogram) -> Option<FixedHistogram> {
        if self.bounds != other.bounds {
            return None;
        }
        let mut out = self.clone();
        for (c, o) in out.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        out.count += other.count;
        out.sum = out.sum.saturating_add(other.sum);
        Some(out)
    }
}

/// The registry: three metric kinds under [`Key`]s.
#[derive(Clone, Default, Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, FixedHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, key: Key, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, key: Key, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Records into a histogram with [`DEFAULT_TIME_BOUNDS_US`] buckets.
    pub fn observe(&mut self, key: Key, value: u64) {
        self.observe_with(key, value, DEFAULT_TIME_BOUNDS_US);
    }

    /// Records into a histogram created with the given bounds on first use.
    pub fn observe_with(&mut self, key: Key, value: u64, bounds: &[u64]) {
        self.histograms
            .entry(key)
            .or_insert_with(|| FixedHistogram::new(bounds))
            .record(value);
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, key: Key) -> Option<f64> {
        self.gauges.get(&key).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, key: Key) -> Option<&FixedHistogram> {
        self.histograms.get(&key)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The distinct dotted family prefixes present (`"ckpt"`, `"kv"`, …).
    pub fn families(&self) -> Vec<&'static str> {
        let mut fams: Vec<&'static str> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.name.split('.').next().unwrap_or(k.name))
            .collect();
        fams.sort_unstable();
        fams.dedup();
        fams
    }

    /// Renders the Prometheus text exposition format (`# TYPE` comments,
    /// one sample per line, histograms as `_bucket`/`_sum`/`_count`).
    /// Dots in names become underscores to satisfy the metric-name grammar.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(String, &'static str)> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
            if last_type.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((name, kind)) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some((name.to_string(), kind));
            }
        };
        for (key, value) in &self.counters {
            let name = sanitize(key.name);
            type_line(&mut out, &name, "counter");
            let _ = writeln!(out, "{name}{} {value}", labels(key, None));
        }
        for (key, value) in &self.gauges {
            let name = sanitize(key.name);
            type_line(&mut out, &name, "gauge");
            let _ = writeln!(out, "{name}{} {value}", labels(key, None));
        }
        for (key, hist) in &self.histograms {
            let name = sanitize(key.name);
            type_line(&mut out, &name, "histogram");
            let mut cumulative = 0u64;
            for (i, c) in hist.bucket_counts().iter().enumerate() {
                cumulative += c;
                let le = hist
                    .bounds()
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".to_string());
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    labels(key, Some(("le", &le)))
                );
            }
            let _ = writeln!(out, "{name}_sum{} {}", labels(key, None), hist.sum());
            let _ = writeln!(out, "{name}_count{} {}", labels(key, None), hist.count());
        }
        out
    }

    /// Renders the whole registry as a pretty JSON object: counters,
    /// gauges and histograms, each keyed by [`Key::display`].
    pub fn to_json(&self) -> String {
        let histogram = |h: &FixedHistogram| {
            let buckets =
                h.bucket_counts().iter().enumerate().map(|(i, &c)| {
                    Json::from(vec![Json::from(h.bounds().get(i).copied()), c.into()])
                });
            json_obj! {
                "count" => h.count(),
                "sum" => h.sum(),
                "buckets" => Json::Arr(buckets.collect()),
            }
        };
        let doc = json_obj! {
            "counters" => keyed(&self.counters, |&v| v.into()),
            "gauges" => keyed(&self.gauges, |&v| Json::float(v)),
            "histograms" => keyed(&self.histograms, histogram),
        };
        doc.pretty() + "\n"
    }
}

/// A JSON object of `map`'s values under their [`Key::display`] names.
fn keyed<V>(map: &BTreeMap<Key, V>, value: impl Fn(&V) -> Json) -> Json {
    Json::obj(map.iter().map(|(k, v)| (k.display(), value(v))))
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn labels(key: &Key, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<(&str, &str)> = key.label_pairs();
    if let Some((k, v)) = extra {
        pairs.push((k, v));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add(Key::plain("kv.puts_total"), 1);
        m.counter_add(Key::plain("kv.puts_total"), 2);
        assert_eq!(m.counter(Key::plain("kv.puts_total")), 3);
        assert_eq!(m.counter(Key::plain("kv.gets_total")), 0);
    }

    #[test]
    fn labeled_keys_are_distinct() {
        let mut m = MetricsRegistry::new();
        let local = Key::labeled("recovery.tier_total", "tier", "local_cpu");
        let remote = Key::labeled("recovery.tier_total", "tier", "remote_cpu");
        m.counter_add(local, 5);
        m.counter_add(remote, 1);
        assert_eq!(m.counter(local), 5);
        assert_eq!(m.counter(remote), 1);
    }

    #[test]
    fn histogram_buckets_and_inf() {
        let mut h = FixedHistogram::new(&[10, 100]);
        for v in [1, 9, 10, 11, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), &[3, 2, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 9 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn merged_equals_concatenated_stream() {
        let mut a = FixedHistogram::new(&[10, 100]);
        let mut b = FixedHistogram::new(&[10, 100]);
        let mut both = FixedHistogram::new(&[10, 100]);
        for v in [1u64, 50, 200] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 99, 10_000] {
            b.record(v);
            both.record(v);
        }
        assert_eq!(a.merged(&b).unwrap(), both);
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let a = FixedHistogram::new(&[10]);
        let b = FixedHistogram::new(&[10, 100]);
        assert!(a.merged(&b).is_none());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut m = MetricsRegistry::new();
        m.counter_add(Key::plain("ckpt.chunks_total"), 7);
        m.gauge_set(Key::plain("net.nic_busy_frac"), 0.25);
        m.observe_with(
            Key::labeled("recovery.retrieval_us", "tier", "remote_cpu"),
            42,
            &[10, 100],
        );
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE ckpt_chunks_total counter"));
        assert!(text.contains("ckpt_chunks_total 7"));
        assert!(text.contains("net_nic_busy_frac 0.25"));
        assert!(text.contains("recovery_retrieval_us_bucket{tier=\"remote_cpu\",le=\"100\"} 1"));
        assert!(text.contains("recovery_retrieval_us_bucket{tier=\"remote_cpu\",le=\"+Inf\"} 1"));
        assert!(text.contains("recovery_retrieval_us_count{tier=\"remote_cpu\"} 1"));
        // Every line is a comment or "name[{labels}] value".
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn two_label_keys_render_everywhere() {
        let cell = intern_label("kill_mid_checkpoint:1");
        assert_eq!(cell, "kill_mid_checkpoint:1");
        // Interning the same value twice returns the same pointer.
        assert!(std::ptr::eq(cell, intern_label("kill_mid_checkpoint:1")));
        let key = Key::labeled2(
            "chaos.replacement_retries",
            "class",
            "hardware",
            "cell",
            cell,
        );
        assert_eq!(
            key.display(),
            "chaos.replacement_retries{class=\"hardware\",cell=\"kill_mid_checkpoint:1\"}"
        );
        let mut m = MetricsRegistry::new();
        m.counter_add(key, 3);
        m.observe_with(Key::labeled2("a.us", "x", "1", "y", "2"), 5, &[10]);
        let text = m.to_prometheus();
        assert!(text.contains(
            "chaos_replacement_retries{class=\"hardware\",cell=\"kill_mid_checkpoint:1\"} 3"
        ));
        assert!(text.contains("a_us_bucket{x=\"1\",y=\"2\",le=\"10\"} 1"));
        assert!(m.to_json().contains(
            "chaos.replacement_retries{class=\\\"hardware\\\",cell=\\\"kill_mid_checkpoint:1\\\"}"
        ));
    }

    #[test]
    fn interner_holds_bounded_memory_under_label_flood() {
        // Regression for the unbounded `Box::leak`-per-value interner: a
        // million distinct tenant labels must leave the table at its cap,
        // not a million leaked strings. (Pre-fix this loop leaked ~1M
        // strings and the len bound below had no ceiling to hold.)
        let interner = BoundedInterner::new(64);
        let stable = interner.intern("stable-pre-cap");
        let mut buf = String::new();
        for i in 0..1_000_000u32 {
            buf.clear();
            let _ = write!(buf, "tenant-{i}");
            let got = interner.intern(&buf);
            assert!(got == buf || got == INTERN_OVERFLOW_LABEL);
        }
        assert_eq!(interner.len(), 64, "table must stay at its cap");
        // Exactly (1M - 63) distinct post-cap values were turned away.
        assert_eq!(interner.overflow_count(), 1_000_000 - 63);
        // Values admitted under the cap stay pointer-stable after the flood…
        assert!(std::ptr::eq(stable, interner.intern("stable-pre-cap")));
        assert!(std::ptr::eq(
            interner.intern("tenant-0"),
            interner.intern("tenant-0")
        ));
        // …and every rejected value maps to one shared overflow label.
        let o1 = interner.intern("fresh-after-flood-a");
        let o2 = interner.intern("fresh-after-flood-b");
        assert_eq!(o1, INTERN_OVERFLOW_LABEL);
        assert!(std::ptr::eq(o1, o2));
    }

    #[test]
    fn global_interner_is_capped() {
        let before = interned_label_count();
        let a = intern_label("global-intern-cap-probe");
        assert!(std::ptr::eq(a, intern_label("global-intern-cap-probe")));
        assert!(interned_label_count() >= before);
        assert!(interned_label_count() <= INTERN_LABEL_CAP);
    }

    #[test]
    fn families_deduplicate_prefixes() {
        let mut m = MetricsRegistry::new();
        m.counter_add(Key::plain("kv.puts_total"), 1);
        m.counter_add(Key::plain("kv.gets_total"), 1);
        m.gauge_set(Key::plain("net.nic_busy_frac"), 0.5);
        assert_eq!(m.families(), vec!["kv", "net"]);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let mut m = MetricsRegistry::new();
        m.counter_add(Key::plain("z.last"), 1);
        m.counter_add(Key::plain("a.first"), 1);
        let j = m.to_json();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        assert_eq!(j, m.clone().to_json());
    }
}
