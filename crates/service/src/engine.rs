//! The long-running query engine.
//!
//! [`ServiceEngine`] owns the shared world state — the chaos-plan catalog,
//! the answer memo, the keyed recoverability memo and the single-flight
//! table — and answers batches of queries in parallel. Three layers keep
//! thousands of concurrent tenants cheap:
//!
//! 1. **Answer memo** ([`gemini_core::MemoCache`]): a response is a pure
//!    function of its canonical query ([`Query::canonical`]), so the
//!    id-less response tail is memoized under that key, at most
//!    [`ANSWER_MEMO_CAP`] entries of at most [`ANSWER_MEMO_ENTRY_BYTES`]
//!    each. A repeated question formats only its id around the stored
//!    tail: it never reaches the layers below or a simulation.
//! 2. **Single-flight dedup** ([`gemini_parallel::SingleFlight`]): answer
//!    memo misses are keyed on the same canonical form; identical
//!    questions in flight at the same moment run once and everyone gets
//!    the answer. The leader fills the answer memo.
//! 3. **Keyed memoization** ([`gemini_core::RecoveryMemo`]): placement
//!    recoverability curves are pure functions of (strategy, N, m, k), so
//!    distinct questions about equivalent placements (a different
//!    `max_k`, say) share one computation, with hit/miss telemetry. The
//!    key is derived from the query in O(1)
//!    ([`gemini_core::PlacementSpecKey::mixed`], which shares Algorithm
//!    1's one strategy rule with `Placement::mixed`); a memo hit costs
//!    O(max_k). A miss never builds the O(N) placement either: the key's
//!    group shape feeds one truncated convolution that yields every
//!    missing point of the curve. Its run of `G` all-to-all groups resumes
//!    from the memo's stored group-polynomial powers (one every
//!    [`gemini_core::memo::POWER_STRIDE`] groups, shared by every fleet size
//!    with the same `m`), so a miss convolves fewer than 64 groups plus
//!    the ring tail: at `N = 9 998, m = 2, max_k = 7`, 105 multiply-adds
//!    instead of 74 936. Only the first miss to reach a fleet size pays
//!    O(groups · max_k · m) up to it. The engine starts with no stored
//!    powers.
//!
//! A query that runs a simulation owns plain values: a drill runs the
//! [`DrillConfig`] its query parsed into, and a chaos or lookahead query
//! runs a clone of the catalog plan with its `machines`/`replicas`
//! overrides applied in place.
//!
//! Requests are read, and responses written, with the workspace's one
//! JSON module, [`gemini_telemetry::json`].
//!
//! Determinism is the load-bearing guarantee: a response depends only on
//! the query (never on cache state, dedup timing, worker count or the
//! telemetry sink), so serving is byte-identical at any `--jobs`, cold or
//! warm, sink on or off — and identical to the equivalent one-shot
//! [`Scenario`] builder run. Simulations triggered by queries always run
//! with a *disabled* sink internally; the engine's own sink only carries
//! `service.*` counters about the serving layer itself.

use crate::query::{
    known_kind, query_id, ChaosQuery, LookaheadQuery, Query, QueryKind, RecoverabilityQuery,
};
use gemini_core::policy::PolicySpec;
use gemini_core::{MemoCache, PlacementSpecKey, RecoveryMemo};
use gemini_harness::{ChaosPlan, DrillConfig, Scenario};
use gemini_parallel::{par_map, SingleFlight};
use gemini_telemetry::json::{self, Json};
use gemini_telemetry::TelemetrySink;
use std::sync::Arc;

/// Entries the answer memo holds at most. Past the cap, answers are still
/// computed and served, only no longer memoized.
pub const ANSWER_MEMO_CAP: usize = 512;

/// The largest entry, canonical key plus response tail in bytes, the
/// answer memo keeps; a larger answer is served but not memoized, and its
/// repeats execute again. The largest catalog chaos render (`nic_collapse`
/// under `mode_shrink`) is about 12.5 KB and the largest 257-line
/// recoverability curve about 11.5 KB, so those fit. Fleet-size overrides
/// grow renders past it (`nic_collapse` at 128 machines), and a
/// `fleet_wide_churn` render is about 1.3 MB. The memo's keys and tails
/// therefore take at most `ANSWER_MEMO_CAP × ANSWER_MEMO_ENTRY_BYTES` =
/// 8 MiB, whatever the traffic.
pub const ANSWER_MEMO_ENTRY_BYTES: usize = 16 * 1024;

/// Serving statistics for one [`ServiceEngine::serve_batch_with_stats`]
/// call. Counter fields are deltas over the batch, not engine lifetime
/// totals.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Lines served (responses emitted), including error responses.
    pub queries: u64,
    /// Responses with `"ok":false`.
    pub errors: u64,
    /// Queries answered from the answer memo without executing.
    pub answer_hits: u64,
    /// Parsed queries the answer memo did not hold.
    pub answer_misses: u64,
    /// Whole-query executions that actually ran (single-flight leaders).
    pub executions: u64,
    /// Queries answered by piggybacking on an identical in-flight one.
    pub dedup_hits: u64,
    /// Recoverability-memo hits.
    pub cache_hits: u64,
    /// Recoverability-memo misses.
    pub cache_misses: u64,
    /// Wall-clock latency per response, input order (microseconds).
    /// Purely observational — never part of a response.
    pub latencies_us: Vec<u64>,
}

impl BatchStats {
    /// The p-th latency percentile (nearest-rank), 0 for an empty batch.
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// The multi-tenant what-if query engine. Cheap to share by reference
/// across a serve loop; all interior state is synchronized.
pub struct ServiceEngine {
    plans: Vec<ChaosPlan>,
    answers: MemoCache<String, Arc<str>>,
    memo: RecoveryMemo,
    flight: SingleFlight<String, Arc<str>>,
    sink: TelemetrySink,
}

impl ServiceEngine {
    /// An engine over the full extended chaos-plan catalog. The sink
    /// carries the `service.*` serving metrics; pass a disabled sink to opt
    /// out.
    pub fn new(sink: TelemetrySink) -> ServiceEngine {
        ServiceEngine {
            plans: ChaosPlan::extended_catalog(),
            answers: MemoCache::new(ANSWER_MEMO_CAP),
            memo: RecoveryMemo::new(),
            flight: SingleFlight::new(),
            sink,
        }
    }

    /// Serves one request line: parse, look up the answer memo, dedup,
    /// answer. Always returns a single-line JSON response; never panics on
    /// malformed input.
    pub fn serve_line(&self, line: &str) -> String {
        let query = match Query::parse(line) {
            Ok(q) => q,
            Err(e) => {
                self.sink.counter_add("service.parse_errors", 1);
                // Best-effort id and kind recovery so tenants can
                // correlate the error even when validation (not syntax)
                // failed.
                let v = json::parse(line).ok();
                let id = v
                    .as_ref()
                    .and_then(|v| query_id(v).ok())
                    .unwrap_or_default();
                let mut members = vec![("id", Json::from(id))];
                if let Some(kind) = v.as_ref().and_then(known_kind) {
                    members.push(("kind", Json::from(kind)));
                }
                members.push(("ok", Json::from(false)));
                members.push(("error", Json::from(e)));
                return Json::obj(members).compact();
            }
        };
        let key = query.canonical();
        let tail = self.answers.get(&key).unwrap_or_else(|| {
            let (tail, _led) = self.flight.run(key.clone(), || {
                let tail = self.answer_tail(&query);
                // Memoized before the flight lands, so a caller arriving
                // after it finds the answer.
                if key.len() + tail.len() <= ANSWER_MEMO_ENTRY_BYTES {
                    self.answers.insert(key.clone(), Arc::clone(&tail));
                }
                tail
            });
            tail
        });
        format!("{{\"id\":{},{tail}}}", Json::Str(query.id).compact())
    }

    /// Serves a batch of request lines across `jobs` workers, responses
    /// in input order. Byte-identical output at any `jobs`, cold or warm.
    pub fn serve_batch(&self, lines: &[String], jobs: usize) -> Vec<String> {
        self.serve_batch_with_stats(lines, jobs).0
    }

    /// [`ServiceEngine::serve_batch`] plus serving statistics, and the
    /// `service.*` counters updated on the engine's sink.
    pub fn serve_batch_with_stats(
        &self,
        lines: &[String],
        jobs: usize,
    ) -> (Vec<String>, BatchStats) {
        let (answer_hits0, answer_miss0) = (self.answers.hits(), self.answers.misses());
        let (hits0, miss0) = (self.memo.hits(), self.memo.misses());
        let (exec0, dedup0) = (self.flight.executions(), self.flight.dedup_hits());
        let timed: Vec<(String, u64)> = par_map(jobs.max(1), lines.len(), |i| {
            let start = std::time::Instant::now();
            let response = self.serve_line(&lines[i]);
            (response, start.elapsed().as_micros() as u64)
        });
        let mut responses = Vec::with_capacity(timed.len());
        let mut stats = BatchStats::default();
        for (response, us) in timed {
            stats.queries += 1;
            if response.contains("\"ok\":false") {
                stats.errors += 1;
            }
            stats.latencies_us.push(us);
            responses.push(response);
        }
        stats.answer_hits = self.answers.hits() - answer_hits0;
        stats.answer_misses = self.answers.misses() - answer_miss0;
        stats.cache_hits = self.memo.hits() - hits0;
        stats.cache_misses = self.memo.misses() - miss0;
        stats.executions = self.flight.executions() - exec0;
        stats.dedup_hits = self.flight.dedup_hits() - dedup0;
        self.sink.counter_add("service.queries", stats.queries);
        self.sink.counter_add("service.errors", stats.errors);
        self.sink
            .counter_add("service.answer_hits", stats.answer_hits);
        self.sink
            .counter_add("service.answer_misses", stats.answer_misses);
        self.sink
            .counter_add("service.cache_hits", stats.cache_hits);
        self.sink
            .counter_add("service.cache_misses", stats.cache_misses);
        self.sink
            .counter_add("service.executions", stats.executions);
        self.sink
            .counter_add("service.dedup_hits", stats.dedup_hits);
        for &us in &stats.latencies_us {
            self.sink.observe_us("service.query_latency_us", || us);
        }
        (responses, stats)
    }

    /// Recoverability-memo hit rate over the engine's lifetime.
    pub fn cache_hit_rate(&self) -> f64 {
        self.memo.hit_rate()
    }

    /// Number of answers the answer memo holds (at most
    /// [`ANSWER_MEMO_CAP`]).
    pub fn answer_memo_len(&self) -> usize {
        self.answers.len()
    }

    /// Lifetime single-flight counters `(executions, dedup_hits)`.
    pub fn flight_counters(&self) -> (u64, u64) {
        (self.flight.executions(), self.flight.dedup_hits())
    }

    /// The response minus its `id` field — everything after `{"id":"…",`.
    /// This is the unit the answer memo and the single-flight layer share
    /// between tenants: identical canonical queries from different ids get
    /// the same tail.
    fn answer_tail(&self, query: &Query) -> Arc<str> {
        let outcome = match self.answer(&query.kind) {
            Ok(body) => [("ok", Json::from(true)), ("body", Json::from(body))],
            Err(e) => [("ok", Json::from(false)), ("error", Json::from(e))],
        };
        let mut members = vec![("kind", Json::from(query.kind_tag()))];
        members.extend(outcome);
        // The tail is the response object's members: drop its braces.
        let object = Json::obj(members).compact();
        Arc::from(&object[1..object.len() - 1])
    }

    fn answer(&self, kind: &QueryKind) -> Result<String, String> {
        match kind {
            QueryKind::Drill(q) => self.answer_drill(q),
            QueryKind::Recoverability(q) => self.answer_recoverability(q),
            QueryKind::Chaos(q) => self.answer_chaos(q),
            QueryKind::Lookahead(q) => self.answer_lookahead(q),
        }
    }

    fn answer_drill(&self, cfg: &DrillConfig) -> Result<String, String> {
        let report = Scenario::drill(cfg.clone())
            // The response is the render, which carries no events: record
            // nothing (and intern no per-seed cell label).
            .sink(TelemetrySink::disabled())
            .run()
            .map_err(|e| e.to_string())?;
        Ok(report.render())
    }

    fn answer_recoverability(&self, q: &RecoverabilityQuery) -> Result<String, String> {
        // The key costs O(1), and a missing curve comes from it in one
        // kernel pass: no deployment or placement is built.
        let key = PlacementSpecKey::mixed(q.machines, q.replicas).map_err(|e| e.to_string())?;
        let curve = self.memo.spec_curve(key, q.max_k);
        let mut body = format!(
            "recoverability strategy={:?} machines={} replicas={}\n",
            key.strategy, q.machines, q.replicas
        );
        for (k, p) in curve.iter().enumerate() {
            body.push_str(&format!("k={k} p={p}\n"));
        }
        Ok(body)
    }

    /// A query's own copy of the catalog plan `name`, with the fleet-size
    /// and replica-count overrides applied.
    fn plan_for(
        &self,
        name: &str,
        machines: Option<usize>,
        replicas: Option<usize>,
    ) -> Result<ChaosPlan, String> {
        let mut plan = self
            .plans
            .iter()
            .find(|p| p.name == name)
            .cloned()
            .ok_or_else(|| format!("unknown chaos plan {name:?}"))?;
        if let Some(n) = machines {
            plan.scenario.machines = n;
        }
        if let Some(m) = replicas {
            plan.scenario.config.replicas = m;
        }
        Ok(plan)
    }

    fn policy_spec(&self, name: &str) -> Result<PolicySpec, String> {
        if name == "adaptive" {
            return Ok(PolicySpec::adaptive());
        }
        gemini_baselines::fixed_policies()
            .into_iter()
            .chain(gemini_baselines::fixed_scheme_policies())
            .chain(gemini_baselines::fixed_mode_policies())
            .find(|p| p.name == name)
            .map(PolicySpec::Fixed)
            .ok_or_else(|| format!("unknown policy {name:?}"))
    }

    fn answer_chaos(&self, q: &ChaosQuery) -> Result<String, String> {
        let plan = self.plan_for(&q.plan, q.machines, q.replicas)?;
        // The response is the render: record nothing (and intern no
        // per-seed cell label).
        let mut run = Scenario::chaos(plan)
            .seed(q.seed)
            .sink(TelemetrySink::disabled());
        if let Some(name) = &q.policy {
            run = run.policy(self.policy_spec(name)?);
        } else if let Some(mode) = q.mode {
            // `mode` is shorthand for the matching fixed comparator.
            run = run.policy(self.policy_spec(&format!("mode_{}", mode.label()))?);
        }
        let report = run.run().map_err(|e| e.to_string())?;
        Ok(report.render())
    }

    /// The speculative-selection primitive: price every candidate policy
    /// forward on its own clone of the plan under the same seed, answer
    /// with the cheapest by total wasted time (ties to the earlier
    /// candidate).
    fn answer_lookahead(&self, q: &LookaheadQuery) -> Result<String, String> {
        let plan = self.plan_for(&q.plan, q.machines, q.replicas)?;
        let mut body = format!("lookahead plan={} seed={}\n", q.plan, q.seed);
        let mut best: Option<(usize, f64)> = None;
        for (i, name) in q.candidates.iter().enumerate() {
            let report = Scenario::chaos(plan.clone())
                .seed(q.seed)
                .sink(TelemetrySink::disabled())
                .policy(self.policy_spec(name)?)
                .run()
                .map_err(|e| e.to_string())?;
            let wasted = report.wasted.total().as_secs_f64();
            body.push_str(&format!(
                "candidate={name} wasted={wasted:.3}s green={}\n",
                report.is_green()
            ));
            if best.map(|(_, w)| wasted < w).unwrap_or(true) {
                best = Some((i, wasted));
            }
        }
        let (i, wasted) = best.expect("candidates are validated non-empty");
        body.push_str(&format!("best={} wasted={wasted:.3}s\n", q.candidates[i]));
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ServiceEngine {
        ServiceEngine::new(TelemetrySink::disabled())
    }

    #[test]
    fn malformed_lines_get_error_responses_not_panics() {
        let e = engine();
        for line in [
            "",
            "not json",
            "{\"kind\":\"warp\"}",
            "{\"machines\":0}",
            "{\"kind\":\"drill\",\"failures\":[[5,\"hardware\"],[5,\"hardware\"]]}",
        ] {
            let resp = e.serve_line(line);
            assert!(resp.contains("\"ok\":false"), "line {line:?} -> {resp}");
            assert!(resp.ends_with('}'), "single JSON object: {resp}");
        }
    }

    #[test]
    fn hostile_lines_are_rejected_on_the_caller_and_on_pool_workers() {
        let e = engine();
        let deep = "[".repeat(100_000);
        let expected =
            "{\"id\":\"\",\"ok\":false,\"error\":\"nesting deeper than 128 at byte 128\"}";
        assert_eq!(e.serve_line(&deep), expected);
        let lines = vec![deep.clone(), format!("{{\"id\":\"q\",\"x\":{deep}")];
        for resp in e.serve_batch(&lines, 2) {
            assert!(
                resp.contains("\"ok\":false,\"error\":\"nesting deeper than 128 at byte"),
                "{resp}"
            );
        }
        // An escaped surrogate pair is one character, echoed back raw.
        let resp = e.serve_line(r#"{"id":"\ud83d\ude00","kind":"warp"}"#);
        assert_eq!(
            resp,
            "{\"id\":\"😀\",\"ok\":false,\"error\":\"unknown query kind \\\"warp\\\"\"}"
        );
    }

    #[test]
    fn ids_echo_the_last_duplicate_and_a_numeric_value() {
        let e = engine();
        let echo = |id: &str| {
            let line = format!(r#"{{"id":{id},"kind":"recoverability","machines":16}}"#);
            let resp = e.serve_line(&line);
            resp[..resp.find(",\"kind\"").unwrap()].to_string()
        };
        assert_eq!(echo(r#""a","id":"b""#), r#"{"id":"b""#);
        assert_eq!(echo("1.0"), r#"{"id":"1""#);
        assert_eq!(echo("1e2"), r#"{"id":"100""#);
    }

    #[test]
    fn error_responses_keep_numeric_ids_like_answers_do() {
        let e = engine();
        let bad = e.serve_line(r#"{"id":5,"kind":"recoverability","machines":0}"#);
        assert!(
            bad.starts_with(r#"{"id":"5","kind":"recoverability","ok":false,"error":"#),
            "{bad}"
        );
        let good = e.serve_line(r#"{"id":5,"kind":"recoverability","machines":16}"#);
        assert!(
            good.starts_with(r#"{"id":"5","kind":"recoverability","ok":true"#),
            "{good}"
        );
        let fractional = e.serve_line(r#"{"id":2.5,"kind":"warp"}"#);
        assert!(
            fractional.starts_with(r#"{"id":"2.5","ok":false"#),
            "{fractional}"
        );
    }

    #[test]
    fn recoverability_is_served_from_the_memo() {
        let e = engine();
        let q = r#"{"id":"r","kind":"recoverability","machines":16,"replicas":2,"max_k":3}"#;
        let a = e.serve_line(q);
        assert!(a.contains("\"ok\":true"), "{a}");
        assert!(a.contains("k=0 p=1"), "{a}");
        let misses_after_first = e.memo_misses();
        // A shorter curve over the same spec is a new question whose
        // points are all memoized.
        let b = e.serve_line(
            r#"{"id":"r","kind":"recoverability","machines":16,"replicas":2,"max_k":2}"#,
        );
        assert!(a.starts_with(b.strip_suffix("\"}").unwrap()), "{a} vs {b}");
        assert_eq!(
            (e.memo_hits(), e.memo_misses()),
            (3, misses_after_first),
            "the shorter curve must not recompute"
        );
        // A repeat is answered by the answer memo, above the curve memo.
        assert_eq!(a, e.serve_line(q), "warm answer must be byte-identical");
        assert_eq!((e.memo_hits(), e.memo_misses()), (3, misses_after_first));
        assert_eq!(e.answer_memo_len(), 2);
    }

    #[test]
    fn drill_response_matches_the_one_shot_builder() {
        use gemini_harness::DrillConfig;
        let e = engine();
        let resp = e.serve_line(r#"{"id":"d","kind":"drill","seed":1}"#);
        let direct = Scenario::drill(DrillConfig::fig14()).run().unwrap();
        let expected = format!(
            "\"kind\":\"drill\",\"ok\":true,\"body\":{}",
            Json::from(direct.render()).compact()
        );
        assert_eq!(resp, format!("{{\"id\":\"d\",{expected}}}"));
    }

    #[test]
    fn batch_order_is_input_order_at_any_jobs() {
        let e = engine();
        let lines: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "{{\"id\":\"q{i}\",\"kind\":\"recoverability\",\"max_k\":{}}}",
                    i % 3
                )
            })
            .collect();
        let (one, _) = e.serve_batch_with_stats(&lines, 1);
        let (four, stats) = engine().serve_batch_with_stats(&lines, 4);
        assert_eq!(one, four);
        assert_eq!(stats.queries, 6);
        for (i, resp) in one.iter().enumerate() {
            assert!(resp.starts_with(&format!("{{\"id\":\"q{i}\"")), "{resp}");
        }
    }

    impl ServiceEngine {
        fn memo_hits(&self) -> u64 {
            self.memo.hits()
        }
        fn memo_misses(&self) -> u64 {
            self.memo.misses()
        }
    }
}
