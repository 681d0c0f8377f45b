//! The scenario-as-a-service benchmark: drive a [`ServiceEngine`] with a
//! deterministic mixed query batch and report serving metrics.
//!
//! ```text
//! cargo run --release -p gemini-bench --bin service             # full batch (>= 1000 queries)
//! cargo run -p gemini-bench --bin service -- --quick            # CI smoke batch
//! cargo run -p gemini-bench --bin service -- --jobs 8 --out /tmp/bench.json
//! ```
//!
//! Checks (the process exits non-zero when any fails):
//!
//! 1. **Determinism** — the batch's responses are byte-identical at
//!    `--jobs 1` (fresh engine) vs `--jobs N` (fresh engine) vs a warm
//!    rerun on the same engine. This is the service's load-bearing
//!    guarantee; see `docs/SERVICE.md`.
//! 2. **Error isolation** — the malformed queries seeded into the batch
//!    produce exactly per-query error responses, never a crash.
//! 3. **Single-flight dedup** — identical queries issued concurrently
//!    (thread barrier) collapse onto one execution: the dedup counter is
//!    asserted `> 0`.
//!
//! The summary is spliced into `BENCH_harness.json` (`--out FILE`
//! overrides; a `--quick` run without `--out` prints it and writes no
//! file) as the `"service"` section. Deterministic keys (`queries`,
//! `errors`, `cache_hit_rate`, the invariant booleans, and the jobs=1
//! reference run's `answer_hits` and `executions`) are gated by
//! benchgate at the standard tolerance; wall-clock keys (`wall_s`,
//! `queries_per_s`, `p50_us`, `p99_us`) are machine-dependent and
//! auto-skipped.

use gemini_bench::BenchCli;
use gemini_service::ServiceEngine;
use gemini_telemetry::{json::Json, json_obj, TelemetrySink};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// The deterministic mixed batch. Repetition is deliberate: repeated
/// whole queries are answered by the answer memo, and the malformed tail
/// proves error isolation. (Each placement spec is asked with one `max_k`
/// only, so the recoverability memo sees no repeats.)
fn queries(quick: bool) -> Vec<String> {
    let mut lines = Vec::new();
    let (rec_n, drill_n, chaos_n, look_n, bad_n) = if quick {
        (40, 8, 2, 1, 2)
    } else {
        (624, 360, 12, 4, 8)
    };
    // Recoverability curves over a small spec space, cycled so most
    // queries re-ask an already-answered spec.
    let machines = [4usize, 8, 12, 16, 24, 32, 48, 64];
    let replicas = [1usize, 2, 4];
    for i in 0..rec_n {
        let n = machines[i % machines.len()];
        let m = replicas[(i / machines.len()) % replicas.len()];
        let k = 2 + (i % 3) * 2;
        lines.push(format!(
            "{{\"id\":\"rec-{i}\",\"kind\":\"recoverability\",\"machines\":{n},\"replicas\":{m},\"max_k\":{k}}}"
        ));
    }
    // Drills over a handful of distinct configs, repeated.
    let drill_machines = [8usize, 16];
    for i in 0..drill_n {
        let n = drill_machines[i % drill_machines.len()];
        let seed = 1 + (i / 2) % 5;
        let rank = (i / 10) % n;
        lines.push(format!(
            "{{\"id\":\"drill-{i}\",\"kind\":\"drill\",\"machines\":{n},\"seed\":{seed},\
             \"failures\":[[{rank},\"hardware\"]]}}"
        ));
    }
    // A few chaos plans (the cheap ones; the DES bench owns the heavy
    // fleet-scale plans).
    let plans = ["kill_mid_checkpoint", "root_churn"];
    for i in 0..chaos_n {
        let plan = plans[i % plans.len()];
        let seed = 1 + i / plans.len();
        lines.push(format!(
            "{{\"id\":\"chaos-{i}\",\"kind\":\"chaos\",\"plan\":\"{plan}\",\"seed\":{seed},\
             \"policy\":\"adaptive\"}}"
        ));
    }
    // Speculative lookahead: price three policies forward per query.
    for i in 0..look_n {
        let plan = plans[i % plans.len()];
        lines.push(format!(
            "{{\"id\":\"look-{i}\",\"kind\":\"lookahead\",\"plan\":\"{plan}\",\"seed\":{},\
             \"candidates\":[\"adaptive\",\"paper_3h\",\"no_persist\"]}}",
            1 + i
        ));
    }
    // Malformed tail: parse errors and validation errors (among them a
    // drill that names one rank twice). All must answer, none may kill
    // the loop.
    let bad = [
        "not json at all",
        "{\"kind\":\"warp\"}",
        "{\"machines\":0}",
        "{\"kind\":\"recoverability\",\"max_k\":100000}",
        "{\"kind\":\"chaos\",\"plan\":\"nope\"}",
        "{\"kind\":\"drill\",\"failures\":[[3,\"hardware\"],[3,\"hardware\"]]}",
        "{\"kind\":\"drill\",\"fail_during_iteration\":0}",
        "{\"id\":\"trunc\",\"kind\":",
    ];
    for b in bad.iter().take(bad_n) {
        lines.push((*b).to_string());
    }
    lines
}

/// Forces genuinely concurrent identical queries through the engine with
/// a thread barrier and returns the dedup delta. One attempt can
/// legitimately see zero collapses (the leader may finish before a
/// follower arrives), so the caller retries. Each attempt asks a question
/// no earlier attempt or batch line asked: a repeat would be answered by
/// the answer memo and never reach the single-flight layer.
fn dedup_attempt(engine: &ServiceEngine, attempt: u64) -> u64 {
    let (_, dedup0) = engine.flight_counters();
    let workers = 8;
    let barrier = std::sync::Barrier::new(workers);
    let line = format!(
        "{{\"id\":\"dedup\",\"kind\":\"drill\",\"machines\":16,\"seed\":{}}}",
        77 + attempt
    );
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                barrier.wait();
                engine.serve_line(&line);
            });
        }
    });
    let (_, dedup1) = engine.flight_counters();
    dedup1 - dedup0
}

fn main() {
    let mut cli = BenchCli::from_env();
    let jobs = cli.telemetry.effective_jobs().max(2);
    let quick = cli.flag("--quick");
    let out_path = cli.report_path(quick).unwrap_or_else(|e| fail(&e));
    cli.reject_unknown().unwrap_or_else(|e| fail(&e));

    let lines = queries(quick);
    eprintln!("service bench: {} queries, jobs={jobs}", lines.len());

    // Reference run: fresh engine, jobs=1 — the deterministic baseline
    // for both the byte-identity checks and the gated cache stats.
    let reference = ServiceEngine::new(TelemetrySink::disabled());
    let (ref_responses, ref_stats) = reference.serve_batch_with_stats(&lines, 1);

    // Timed run: fresh engine, jobs=N.
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let t0 = std::time::Instant::now();
    let (responses, stats) = engine.serve_batch_with_stats(&lines, jobs);
    let wall = t0.elapsed().as_secs_f64();

    // Warm rerun on the same engine: caches populated, must not change a
    // byte.
    let (warm_responses, _) = engine.serve_batch_with_stats(&lines, jobs);

    let mut failures = Vec::new();
    if responses != ref_responses {
        failures.push("responses differ between --jobs 1 and --jobs N".to_string());
    }
    if warm_responses != ref_responses {
        failures.push("responses differ between cold and warm caches".to_string());
    }
    let expected_errors = if quick { 2 } else { 8 } as u64;
    if ref_stats.errors != expected_errors {
        failures.push(format!(
            "expected exactly {expected_errors} error responses, got {}",
            ref_stats.errors
        ));
    }
    if ref_stats.queries != lines.len() as u64 {
        failures.push("a query went unanswered".to_string());
    }

    // Single-flight collapse, forced concurrent.
    let mut dedup = 0;
    for attempt in 0..20 {
        dedup = dedup_attempt(&engine, attempt);
        if dedup > 0 {
            break;
        }
    }
    if dedup == 0 {
        failures.push("single-flight never collapsed concurrent identical queries".to_string());
    }

    let hit_denom = ref_stats.cache_hits + ref_stats.cache_misses;
    let cache_hit_rate = if hit_denom == 0 {
        0.0
    } else {
        ref_stats.cache_hits as f64 / hit_denom as f64
    };
    let p50 = stats.latency_percentile_us(50.0);
    let p99 = stats.latency_percentile_us(99.0);
    let per_s = lines.len() as f64 / wall.max(1e-9);

    println!("\n| metric | value |");
    println!("|--------|------:|");
    println!("| queries | {} |", ref_stats.queries);
    println!("| errors (seeded) | {} |", ref_stats.errors);
    println!("| cache hit rate | {cache_hit_rate:.3} |");
    println!("| answer memo hits (jobs=1) | {} |", ref_stats.answer_hits);
    println!("| executions (jobs=1) | {} |", ref_stats.executions);
    println!("| dedup collapsed (forced) | {dedup} |");
    println!("| batch dedup hits (jobs={jobs}) | {} |", stats.dedup_hits);
    println!("| queries/s | {per_s:.0} |");
    println!("| p50 / p99 latency (us) | {p50} / {p99} |");

    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }

    // ---- splice the "service" section into the bench report --------------
    let section = json_obj! {
        "quick" => quick, "jobs" => jobs,
        "queries" => ref_stats.queries, "errors" => ref_stats.errors,
        "cache_hit_rate" => Json::fixed(cache_hit_rate, 3),
        "answer_hits" => ref_stats.answer_hits, "executions" => ref_stats.executions,
        "dedup_collapsed" => 1u64, "byte_identical_jobs" => 1u64, "byte_identical_warm" => 1u64,
        "wall_s" => Json::fixed(wall, 3), "queries_per_s" => Json::fixed(per_s, 1),
        "p50_us" => p50, "p99_us" => p99,
    };
    gemini_bench::out::splice_section(out_path.as_deref(), "service", section)
        .unwrap_or_else(|e| fail(&e));
}
