//! Perf-trajectory reporter for the deterministic parallel engine and the
//! placement hot-path kernels. Prints the report and writes it to
//! `BENCH_harness.json` at the repo root (override with `--out FILE`); a
//! `--quick` run without `--out` only prints it.
//!
//! ```text
//! cargo run --release -p gemini-bench --bin perf
//! cargo run --release -p gemini-bench --bin perf -- --jobs 8 --quick --out /tmp/b.json
//! ```
//!
//! This is the one binary that records the **wall-clock** half of the
//! `parallel.*` metric family (`parallel.jobs`, `parallel.speedup`,
//! `parallel.wall_us`, `parallel.busy_us`) via
//! [`gemini_harness::par::record_stats_timing`] — deliberately kept off
//! the figure/table paths, whose telemetry exports are byte-compared
//! across job counts. See `docs/PERFORMANCE.md`.
//!
//! Measurements:
//!
//! 1. **Figure regeneration** — full `render_all` serial vs `--jobs N`,
//!    asserting the rendered markdown is byte-identical and the pool ran
//!    one task per artifact; the speedup is reported only.
//! 2. **Monte-Carlo recovery kernel** — bitmask fast path
//!    (`sample_mask` + `FatalSets`) vs the retained `BTreeSet` reference
//!    kernel, in trials/second.
//! 3. **Exact enumeration** — Gosper-iterated subset walk at
//!    C(50, 7) ≈ 9.99 × 10⁷ subsets (the old implementation's 10⁷ cap
//!    refused this outright), in subsets/second.
//! 4. **Recoverability check** — `recoverable_mask` vs the `BTreeSet`
//!    wrapper, in checks/second.
//! 5. **DES scheduler** — the timing-wheel engine backend vs the
//!    reference binary heap on three workloads (dense timers,
//!    heavy-cancel heartbeats, chaos-plan replay), in events/second,
//!    with fingerprints asserted identical across backends. Recorded as
//!    `des.*` gauges and the `"des"` report section.
//! 6. **Fleet scale** — the analytic kernel at N = 10 000 (gated on its
//!    multiply-add count), the recoverability memo's cold N = 10 000 and
//!    warm N = 9 998 curves (gated on the multiply-adds each spends), and
//!    a simulated month of 10 000 machines'
//!    heartbeats on the timing wheel (gated on the wheel's cascaded and
//!    drained nodes); both wall clocks are medians over the reps with
//!    min/max, reported only. The `"scale"` report section.
//! 7. **Control plane** — the real worker and root agents on a KV store
//!    in steady state at N = 16 and N = 10 000: every worker heartbeats
//!    each period, then the root scans the health prefix into one reused
//!    report, as the chaos executor's coordination tick does; separately,
//!    the root candidates (at most [`ROOT_CANDIDATES`]) run election
//!    rounds against a held key. Nanoseconds per heartbeat, per scan and
//!    per election round are reported only; the KV op counters of an
//!    identical counting pass (heartbeats, scans, leases granted and
//!    expired) are gated. The `"control_plane"` report section.

use gemini_bench::{
    run_des, run_des_with_work, BenchCli, DesWorkload, FLEET_MACHINES, FLEET_MONTH_NS,
};
use gemini_core::agents::{RootAgent, ScanReport, WorkerAgent};
use gemini_core::placement::analytic::{analytic_recovery_probability, recovery_curve};
use gemini_core::placement::probability::{
    binomial, exact_recovery_probability, monte_carlo_recovery_probability_jobs,
    monte_carlo_recovery_probability_reference, FatalSets,
};
use gemini_core::{GeminiConfig, Placement, PlacementSpecKey, RecoveryMemo};
use gemini_harness::chaos::ROOT_CANDIDATES;
use gemini_harness::experiments::{render_all_jobs, render_all_stats};
use gemini_harness::par;
use gemini_kvstore::KvStore;
use gemini_sim::{DetRng, SimDuration, SimTime};
use gemini_telemetry::{json::Json, json_obj, Key, TelemetrySink};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Drives `n` registered workers through `rounds` heartbeat periods, then
/// the root through `scans` health scans into one reused report at the
/// last beat's instant, on a store reporting through `sink`. Every lease
/// stays live, so each scan must see all `n` ranks. Returns the seconds
/// spent heartbeating and scanning.
fn control_plane(n: usize, rounds: u64, scans: u64, sink: TelemetrySink) -> (f64, f64) {
    let cfg = GeminiConfig::default();
    let mut kv = KvStore::new().with_telemetry(sink);
    let mut workers: Vec<WorkerAgent> =
        (0..n).map(|r| WorkerAgent::new(r, r as u64, cfg)).collect();
    for w in &mut workers {
        w.register(&mut kv, SimTime::ZERO).expect("register");
    }
    let mut now = SimTime::ZERO;
    let beat_s = secs(|| {
        for _ in 0..rounds {
            now += cfg.heartbeat_period;
            for w in &mut workers {
                w.heartbeat(&mut kv, now).expect("heartbeat");
            }
        }
    });
    let root = RootAgent::new("root", &cfg);
    let mut report = ScanReport::default();
    let scan_s = secs(|| {
        for _ in 0..scans {
            root.scan(&mut kv, now, n, black_box(&mut report));
        }
    });
    assert_eq!(
        report.alive.len(),
        n,
        "a steady-state scan missed a live worker"
    );
    (beat_s, scan_s)
}

/// Times `rounds` steady-state election rounds of `candidates` root
/// candidates on a disabled sink, one simulated second apart: the first
/// candidate holds the key and renews it, the others wait. Returns the
/// seconds spent electing.
fn election(candidates: usize, rounds: u64) -> f64 {
    let cfg = GeminiConfig::default();
    let mut kv = KvStore::new();
    let mut roots: Vec<RootAgent> = (0..candidates)
        .map(|r| RootAgent::new(&format!("machine-{r}"), &cfg))
        .collect();
    let mut now = SimTime::ZERO;
    // The first round claims the key; the timed ones renew it.
    assert_eq!(
        RootAgent::elect(&mut roots, &mut kv, now, |_| true),
        Some(0)
    );
    let mut holder = None;
    let elect_s = secs(|| {
        for _ in 0..rounds {
            now += SimDuration::from_secs(1);
            holder = black_box(RootAgent::elect(&mut roots, &mut kv, now, |_| true));
        }
    });
    assert_eq!(holder, Some(0), "the steady-state holder lost the key");
    elect_s
}

fn main() {
    let mut cli = BenchCli::from_env();
    let targs = cli.telemetry.clone();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Default to a parallel run even when --jobs/GEMINI_JOBS is absent:
    // the whole point is to exercise the pool. Speedup is bounded by the
    // host's core count (reported as "cpus" in the output).
    let jobs = match targs.jobs {
        Some(j) => j,
        None => gemini_harness::par::default_jobs().max(cpus.max(2)),
    };
    let quick = cli.flag("--quick");
    let out_path = cli.report_path(quick).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    cli.reject_unknown().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    let sink = TelemetrySink::enabled();

    // ---- 1. figure regeneration: serial vs parallel ---------------------
    // Warm once (OnceLock tables, allocator) so both sides start equal.
    let _ = render_all_jobs(true, 1);
    let mut serial_tables = Vec::new();
    let figures_serial_s = secs(|| serial_tables = render_all_jobs(false, 1));
    let t0 = Instant::now();
    let (par_tables, stats) = render_all_stats(false, jobs);
    let figures_par_s = t0.elapsed().as_secs_f64();
    par::record_stats_timing(&sink, &stats);
    let serial_md: String = serial_tables.iter().map(|t| t.to_markdown()).collect();
    let par_md: String = par_tables.iter().map(|t| t.to_markdown()).collect();
    let byte_identical = serial_md == par_md;
    assert!(byte_identical, "parallel render diverged from serial");
    // The checks are deterministic: byte identity above, and one pool task
    // per artifact here. The speedup reads the host's speed, so it is
    // reported, never asserted.
    assert_eq!(
        stats.tasks,
        serial_tables.len(),
        "the parallel render must run one pool task per artifact"
    );
    // When the pool's granularity model falls back to the literal serial
    // loop (single-core host, or a task set too cheap to split), both
    // timed sides ran the same code path and the pool's speedup is 1.0 by
    // construction — record it as such rather than as timing noise.
    let figures_fallback = stats.serial_fallback() || stats.jobs <= 1;
    let figures_speedup = if figures_fallback {
        1.0
    } else {
        figures_serial_s / figures_par_s.max(1e-12)
    };

    // ---- 2. Monte-Carlo kernel: bitmask vs reference --------------------
    let placement = Placement::mixed(32, 2).expect("valid placement");
    let trials: u32 = if quick { 20_000 } else { 400_000 };
    let mut p_fast = 0.0;
    let mc_fast_s = secs(|| {
        p_fast =
            monte_carlo_recovery_probability_jobs(&placement, 2, trials, &mut DetRng::new(7), 1);
    });
    let mut p_ref = 0.0;
    let mc_ref_s = secs(|| {
        p_ref =
            monte_carlo_recovery_probability_reference(&placement, 2, trials, &mut DetRng::new(7));
    });
    assert!((p_fast - p_ref).abs() < 0.02, "{p_fast} vs {p_ref}");
    let mut p_par = 0.0;
    let mc_par_s = secs(|| {
        p_par =
            monte_carlo_recovery_probability_jobs(&placement, 2, trials, &mut DetRng::new(7), jobs);
    });
    assert_eq!(p_fast.to_bits(), p_par.to_bits(), "MC not job-invariant");

    // ---- 3. exact enumeration at ~1e8 subsets ---------------------------
    let (en_n, en_k) = if quick { (40usize, 7usize) } else { (50, 7) };
    let enum_placement = Placement::mixed(en_n, 2).expect("valid placement");
    let subsets = binomial(en_n as u64, en_k as u64);
    let mut p_enum = None;
    let enum_s = secs(|| {
        p_enum = exact_recovery_probability(&enum_placement, en_k);
    });
    let p_enum = p_enum.expect("within the enumeration cap");

    // ---- 4. recoverability check: fatal-mask kernel vs BTreeSet entry ---
    // `FatalSets::recoverable` is the deduplicated, superset-minimized
    // bitmask kernel the enumerator and MC sampler sit on; the BTreeSet
    // entry point is the legacy-shaped API (which now folds to a mask but
    // still pays the set walk and the full per-machine host scan).
    let checks: u64 = if quick { 200_000 } else { 2_000_000 };
    let fatal = FatalSets::from_placement(&placement).expect("N <= 128");
    let mut rng = DetRng::new(13);
    let failed_masks: Vec<u128> = (0..1024).map(|_| rng.sample_mask(32, 3)).collect();
    let failed_sets: Vec<BTreeSet<usize>> = failed_masks
        .iter()
        .map(|&m| (0..32).filter(|&i| m >> i & 1 == 1).collect())
        .collect();
    let mut acc = 0u64;
    let mask_s = secs(|| {
        for i in 0..checks {
            acc += fatal.recoverable(failed_masks[(i % 1024) as usize]) as u64;
        }
    });
    let mut acc2 = 0u64;
    let set_s = secs(|| {
        for i in 0..checks {
            acc2 += placement.recoverable(&failed_sets[(i % 1024) as usize]) as u64;
        }
    });
    assert_eq!(acc, acc2, "mask and set kernels disagree");

    // ---- 5. DES scheduler: timing wheel vs reference heap ---------------
    // Each workload runs on both engine backends; the fingerprints
    // (processed count, final clock, event-stream checksum) must match, so
    // the timed runs double as an equivalence check. `des.*` gauges land in
    // the telemetry export; the JSON section feeds docs/PERFORMANCE.md.
    let des_events: u64 = if quick { 200_000 } else { 2_000_000 };
    use gemini_sim::QueueBackend;
    let mut des_rows = Vec::new();
    for w in DesWorkload::ALL {
        // Warm both backends once so allocator effects cancel out.
        let _ = run_des(w, QueueBackend::TimingWheel, des_events / 20);
        let _ = run_des(w, QueueBackend::ReferenceHeap, des_events / 20);
        let mut wheel_fp = None;
        let wheel_s = secs(|| wheel_fp = Some(run_des(w, QueueBackend::TimingWheel, des_events)));
        let mut heap_fp = None;
        let heap_s = secs(|| heap_fp = Some(run_des(w, QueueBackend::ReferenceHeap, des_events)));
        let (wheel_fp, heap_fp) = (wheel_fp.unwrap(), heap_fp.unwrap());
        assert_eq!(
            wheel_fp,
            heap_fp,
            "backend divergence on {} while benchmarking",
            w.key()
        );
        assert_eq!(
            wheel_fp.processed,
            des_events,
            "{} did not consume its whole event budget",
            w.key()
        );
        let speedup = heap_s / wheel_s.max(1e-12);
        let processed = wheel_fp.processed;
        sink.gauge_set_labeled("des.wheel_events_per_s", "workload", w.key(), || {
            processed as f64 / wheel_s.max(1e-12)
        });
        sink.gauge_set_labeled("des.heap_events_per_s", "workload", w.key(), || {
            processed as f64 / heap_s.max(1e-12)
        });
        sink.gauge_set_labeled("des.speedup", "workload", w.key(), || speedup);
        des_rows.push((w, processed, wheel_s, heap_s, speedup));
    }
    sink.gauge_set("des.events", || des_events as f64);

    // ---- 6. fleet scale: analytic kernel + month-long DES ---------------
    // The DP/analytic recoverability kernel at the ROADMAP's fleet
    // frontier: exact probability at N = 10,000, k = 7, where enumeration
    // (C(10000,7) ~ 2e24 subsets) is intractable. The gated reading is the
    // kernel's own multiply-add count (`cells`), which does not depend on
    // the host; the latency is reported only, as a median over the reps
    // with its spread.
    let scale_n = 10_000usize;
    let scale_k = 7usize;
    let dp_placement = Placement::mixed(scale_n, 2).expect("valid placement");
    let (dp_curve, dp_cells) = recovery_curve(&dp_placement.shape(), 2, scale_k);
    let p_dp = dp_curve[scale_k];
    let dp_reps: u32 = if quick { 20 } else { 100 };
    let dp_eval = || {
        black_box(analytic_recovery_probability(&dp_placement, scale_k));
    };
    let mut dp_samples: Vec<f64> = (0..dp_reps).map(|_| secs(dp_eval) * 1e3).collect();
    dp_samples.sort_by(f64::total_cmp);
    let dp_ms = dp_samples[dp_samples.len() / 2];
    let (dp_min_ms, dp_max_ms) = (dp_samples[0], dp_samples[dp_samples.len() - 1]);
    // Differential anchor on the very case enumeration just timed: the
    // analytic kernel must reproduce the Gosper walk bit-for-bit.
    let p_dp_enum = analytic_recovery_probability(&enum_placement, en_k);
    assert_eq!(
        p_dp_enum.to_bits(),
        p_enum.to_bits(),
        "analytic kernel diverged from enumeration at n={en_n}, k={en_k}: \
         {p_dp_enum} vs {p_enum}"
    );
    sink.gauge_set("scale.dp_ms", || dp_ms);

    // The service's recoverability memo on the same spec: a cold curve
    // stores a power of the group polynomial every 64 groups as it goes,
    // so a warm curve one group smaller resumes from the last of them.
    // Both are gated on the multiply-adds the memo spends.
    let memo = RecoveryMemo::new();
    let memo_warm_n = scale_n - 2;
    let mut memo_cells = Vec::new();
    for n in [scale_n, memo_warm_n] {
        let key = PlacementSpecKey::mixed(n, 2).expect("valid placement spec");
        let before = memo.cells();
        let curve = memo.spec_curve(key, scale_k);
        memo_cells.push(memo.cells() - before);
        let (direct, _) = recovery_curve(&key.shape(), 2, scale_k);
        assert!(
            curve
                .iter()
                .zip(&direct)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "memo curve diverged from the kernel at N={n}"
        );
    }
    let (memo_cold_cells, memo_warm_cells) = (memo_cells[0], memo_cells[1]);

    // A month of simulated time with 10k machines' heartbeat/timeout
    // chains live on the timing wheel — heavy-cancel at fleet population,
    // with the heartbeat period tuned so the processed-event budget
    // carries the clock across 30 days. Both backends must agree on the
    // fingerprint. The gated readings are the wheel's own work counters
    // (nodes cascaded, nodes drained), which do not depend on the host;
    // the wall clock and events/s are reported only, as a median over the
    // reps with its spread.
    let fleet_events: u64 = if quick { 400_000 } else { 4_000_000 };
    let fleet_reps = 5;
    let _ = run_des(
        DesWorkload::FleetMonth,
        QueueBackend::TimingWheel,
        fleet_events / 20,
    );
    let mut fleet_runs = Vec::with_capacity(fleet_reps);
    let mut fleet_samples: Vec<f64> = (0..fleet_reps)
        .map(|_| {
            secs(|| {
                fleet_runs.push(run_des_with_work(
                    DesWorkload::FleetMonth,
                    QueueBackend::TimingWheel,
                    fleet_events,
                ))
            })
        })
        .collect();
    fleet_samples.sort_by(f64::total_cmp);
    let fleet_s = fleet_samples[fleet_samples.len() / 2];
    let (fleet_min_s, fleet_max_s) = (fleet_samples[0], fleet_samples[fleet_samples.len() - 1]);
    let (fleet_fp, fleet_work) = fleet_runs[0];
    assert!(
        fleet_runs.iter().all(|run| *run == (fleet_fp, fleet_work)),
        "fleet DES reps diverged"
    );
    let fleet_heap = run_des(
        DesWorkload::FleetMonth,
        QueueBackend::ReferenceHeap,
        fleet_events,
    );
    assert_eq!(fleet_fp, fleet_heap, "fleet-month backend divergence");
    assert!(
        fleet_fp.now_ns >= FLEET_MONTH_NS,
        "fleet DES stopped at {} simulated days, short of a month",
        fleet_fp.now_ns as f64 / 86_400e9
    );
    let fleet_eps = fleet_fp.processed as f64 / fleet_s.max(1e-12);
    let sim_days = fleet_fp.now_ns as f64 / 86_400e9;

    // ---- 7. control plane: heartbeats and health scans ------------------
    // Timed on a disabled sink, as the chaos executor runs; the KV op
    // counters come from an identical pass on an enabled sink.
    let cp_scale = if quick { 1 } else { 10 };
    let cp_json: Vec<(String, Json)> = [(16usize, 10_000u64, 50_000u64), (10_000, 5, 20)]
        .iter()
        .map(|&(n, rounds, scans)| {
            let (rounds, scans) = (rounds * cp_scale, scans * cp_scale);
            let (beat_s, scan_s) = control_plane(n, rounds, scans, TelemetrySink::disabled());
            // Election rounds cost the same at both scales (the candidates
            // are capped), so both get as many as the small scale's scans.
            let elect_rounds = 50_000 * cp_scale;
            let elect_s = election(n.min(ROOT_CANDIDATES), elect_rounds);
            let counted = TelemetrySink::enabled();
            control_plane(n, rounds, scans, counted.clone());
            let snap = counted.metrics_snapshot();
            let count = |name| snap.counter(Key::plain(name));
            let beats = count("kv.heartbeats");
            assert_eq!(beats, n as u64 * rounds, "every steady beat is a heartbeat");
            let heartbeat_ns = beat_s * 1e9 / beats.max(1) as f64;
            let scan_ns = scan_s * 1e9 / scans.max(1) as f64;
            let elect_ns = elect_s * 1e9 / elect_rounds as f64;
            eprintln!(
                "control plane N={n}: {heartbeat_ns:.0} ns/heartbeat, {scan_ns:.0} ns/scan, \
                 {elect_ns:.0} ns/election round ({beats} heartbeats, {scans} scans)"
            );
            let section = json_obj! {
                "workers" => n, "heartbeats" => beats, "health_scans" => count("kv.health_scans"),
                "leases_granted" => count("kv.leases_granted"),
                "leases_expired" => count("kv.leases_expired"),
                "heartbeat_ns" => Json::fixed(heartbeat_ns, 1),
                "scan_ns" => Json::fixed(scan_ns, 1),
                "elect_ns" => Json::fixed(elect_ns, 1),
            };
            (format!("n{n}"), section)
        })
        .collect();
    sink.gauge_set("scale.fleet_events_per_s", || fleet_eps);
    sink.gauge_set("scale.fleet_machines", || FLEET_MACHINES as f64);
    // Wall clocks to the microsecond, rates and speedups.
    let wall = |s: f64| Json::fixed(s, 6);
    let per_s = |count: f64, s: f64| Json::fixed(count / s.max(1e-12), 1);
    let ratio = |x: f64| Json::fixed(x, 3);
    let des_json = des_rows
        .iter()
        .map(|&(w, processed, wheel_s, heap_s, speedup)| {
            let n = processed as f64;
            let section = json_obj! {
                "events" => processed, "wheel_s" => wall(wheel_s), "heap_s" => wall(heap_s),
                "wheel_events_per_s" => per_s(n, wheel_s), "heap_events_per_s" => per_s(n, heap_s),
                "speedup" => ratio(speedup),
            };
            (w.key(), section)
        });
    let report = json_obj! {
        "bench" => "harness", "quick" => quick, "jobs" => jobs, "cpus" => cpus,
        "figures" => json_obj! {
            "serial_s" => wall(figures_serial_s), "parallel_s" => wall(figures_par_s),
            "speedup" => ratio(figures_speedup), "serial_fallback" => figures_fallback,
            "byte_identical" => byte_identical, "artifacts" => serial_tables.len(),
        },
        "monte_carlo" => json_obj! {
            "trials" => trials, "bitmask_s" => wall(mc_fast_s), "reference_s" => wall(mc_ref_s),
            "parallel_s" => wall(mc_par_s),
            "bitmask_trials_per_s" => per_s(trials as f64, mc_fast_s),
            "reference_trials_per_s" => per_s(trials as f64, mc_ref_s),
            "kernel_speedup" => ratio(mc_ref_s / mc_fast_s.max(1e-12)),
            "estimate" => Json::fixed(p_fast, 6),
        },
        "enumeration" => json_obj! {
            "n" => en_n, "k" => en_k, "subsets" => Json::fixed(subsets, 0),
            "wall_s" => wall(enum_s), "subsets_per_s" => per_s(subsets, enum_s),
            "probability" => Json::fixed(p_enum, 9),
        },
        "recoverable" => json_obj! {
            "checks" => checks, "mask_s" => wall(mask_s), "btreeset_s" => wall(set_s),
            "mask_checks_per_s" => per_s(checks as f64, mask_s),
            "speedup" => ratio(set_s / mask_s.max(1e-12)),
        },
        "des" => Json::obj(des_json),
        "scale" => json_obj! {
            "dp" => json_obj! {
                "n" => scale_n, "k" => scale_k, "reps" => dp_reps, "cells" => dp_cells,
                "dp_ms" => Json::fixed(dp_ms, 4), "dp_min_ms" => Json::fixed(dp_min_ms, 4),
                "dp_max_ms" => Json::fixed(dp_max_ms, 4), "probability" => Json::fixed(p_dp, 9),
            },
            "memo" => json_obj! {
                "n" => scale_n, "warm_n" => memo_warm_n, "k" => scale_k,
                "cold_cells" => memo_cold_cells, "warm_cells" => memo_warm_cells,
            },
            "fleet_des" => json_obj! {
                "machines" => FLEET_MACHINES, "events" => fleet_fp.processed,
                "sim_days" => Json::fixed(sim_days, 2),
                "wheel_cascaded" => fleet_work.cascaded, "wheel_drained" => fleet_work.drained,
                "reps" => fleet_reps, "wall_s" => wall(fleet_s),
                "wall_min_s" => wall(fleet_min_s), "wall_max_s" => wall(fleet_max_s),
                "events_per_s" => Json::fixed(fleet_eps, 1),
            },
        },
        "control_plane" => Json::Obj(cp_json),
        "parallel_metrics" => json_obj! {
            "tasks" => stats.tasks, "pool_jobs" => stats.jobs,
            "wall_us" => Json::fixed(stats.wall.as_secs_f64() * 1e6, 1),
            "busy_us" => Json::fixed(stats.busy.as_secs_f64() * 1e6, 1),
        },
    };
    let pretty = report.pretty();
    if let Some(out_path) = &out_path {
        std::fs::write(out_path, format!("{pretty}\n")).unwrap_or_else(|e| {
            eprintln!("error: writing {out_path}: {e}");
            std::process::exit(1)
        });
    }
    println!("{pretty}");
    eprintln!(
        "figures: {figures_serial_s:.3}s -> {figures_par_s:.3}s at --jobs {jobs} \
         ({figures_speedup:.2}x, byte-identical; host has {cpus} cpu(s))"
    );
    eprintln!(
        "mc kernel: {:.2}x over reference; enumeration: {:.1}M subsets/s; \
         recoverable: {:.2}x over BTreeSet",
        mc_ref_s / mc_fast_s.max(1e-12),
        subsets / enum_s.max(1e-12) / 1e6,
        set_s / mask_s.max(1e-12),
    );
    for (w, processed, wheel_s, heap_s, speedup) in &des_rows {
        eprintln!(
            "des {}: wheel {:.1}M ev/s vs heap {:.1}M ev/s ({speedup:.2}x)",
            w.key(),
            *processed as f64 / wheel_s.max(1e-12) / 1e6,
            *processed as f64 / heap_s.max(1e-12) / 1e6,
        );
    }
    eprintln!(
        "scale: analytic N={scale_n} k={scale_k} in {dp_ms:.3} ms median \
         [{dp_min_ms:.3}, {dp_max_ms:.3}], {dp_cells} cells (p={p_dp:.6}); \
         memo N={scale_n} cold {memo_cold_cells} cells, N={memo_warm_n} warm \
         {memo_warm_cells} cells; \
         fleet DES {machines} machines x {sim_days:.0} simulated days at \
         {:.1}M events/s median [{fleet_min_s:.3}s, {fleet_max_s:.3}s], \
         {} cascaded / {} drained wheel nodes",
        fleet_eps / 1e6,
        fleet_work.cascaded,
        fleet_work.drained,
        machines = FLEET_MACHINES,
    );
    if let Some(out_path) = &out_path {
        eprintln!("wrote {out_path}");
    }
    if let Err(e) = targs.write(&sink) {
        eprintln!("error: writing telemetry outputs: {e}");
        std::process::exit(1)
    }
}
