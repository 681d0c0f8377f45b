//! The deterministic-parallelism contract, end to end: every artifact the
//! harness can produce — markdown, CSV, JSON, telemetry exports, campaign
//! sweeps, Monte-Carlo estimates — must be **byte-identical** whether it
//! was computed serially or on a worker pool, at any `--jobs` value.
//!
//! These tests are the enforcement teeth behind `docs/PERFORMANCE.md`'s
//! determinism contract: parallel work is expressed as indexed task sets,
//! per-task results depend only on the task index and the caller's
//! configuration, and results merge by index.

use gemini_core::placement::probability::monte_carlo_recovery_probability_jobs;
use gemini_core::Placement;
use gemini_harness::campaign::{campaign_grid, Solution};
use gemini_harness::des_campaign::{run_des_sweep, DesCampaignConfig};
use gemini_harness::experiments::{render_all_jobs, render_all_with_jobs};
use gemini_harness::{par, Scenario};
use gemini_sim::DetRng;
use gemini_telemetry::TelemetrySink;

#[test]
fn rendered_artifacts_are_byte_identical_across_job_counts() {
    let serial = render_all_jobs(true, 1);
    for jobs in [2, 8] {
        let par = render_all_jobs(true, jobs);
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(par.iter()) {
            assert_eq!(s.title, p.title, "order diverged at jobs={jobs}");
            assert_eq!(
                s.to_markdown(),
                p.to_markdown(),
                "markdown diverged for {} at jobs={jobs}",
                s.title
            );
            assert_eq!(
                s.to_csv(),
                p.to_csv(),
                "csv diverged for {} at jobs={jobs}",
                s.title
            );
            assert_eq!(
                s.json().pretty(),
                p.json().pretty(),
                "json diverged for {} at jobs={jobs}",
                s.title
            );
        }
    }
}

#[test]
fn telemetry_exports_are_byte_identical_across_job_counts() {
    // The figure-regeneration path records only deterministic metrics
    // (artifact counters + `parallel.tasks`), so the *exported* Prometheus
    // text and metrics JSON must match byte-for-byte at any job count.
    let export = |jobs: usize| {
        let sink = TelemetrySink::enabled();
        let _ = render_all_with_jobs(true, jobs, &sink);
        (sink.export_prometheus(), sink.export_metrics_json())
    };
    let (prom1, json1) = export(1);
    for jobs in [2, 8] {
        let (prom, json) = export(jobs);
        assert_eq!(prom1, prom, "Prometheus export diverged at jobs={jobs}");
        assert_eq!(json1, json, "metrics JSON diverged at jobs={jobs}");
    }
    // And the deterministic parallel.tasks counter is actually in there.
    assert!(
        prom1.contains("parallel_tasks") || prom1.contains("parallel.tasks"),
        "parallel.tasks missing from export:\n{prom1}"
    );
}

#[test]
fn campaign_grid_sweep_is_bit_identical_across_job_counts() {
    // seeds × failure-rates × solutions, the Fig. 15a grid shape.
    let grid = campaign_grid(
        &[42, 7],
        &[0.0, 4.0, 8.0],
        &[Solution::Gemini, Solution::Strawman, Solution::HighFreq],
    );
    assert_eq!(grid.len(), 2 * 3 * 3);
    let sweep = |jobs| Scenario::campaign_sweep(grid.clone()).jobs(jobs).run();
    let serial = sweep(1).expect("campaigns run");
    for jobs in [2, 8] {
        let par = sweep(jobs).expect("campaigns run");
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(par.iter()) {
            assert_eq!(
                s.effective_ratio.to_bits(),
                p.effective_ratio.to_bits(),
                "ratio diverged at jobs={jobs}"
            );
            assert_eq!(s.failures, p.failures);
            assert_eq!(s.iterations, p.iterations);
            assert_eq!(
                s.recovery_lost.as_nanos(),
                p.recovery_lost.as_nanos(),
                "recovery_lost diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn des_sweep_is_bit_identical_across_job_counts() {
    let configs: Vec<DesCampaignConfig> = [(0.0, 1), (2.0, 11), (8.0, 11)]
        .iter()
        .map(|&(per_day, seed)| DesCampaignConfig::software_only(per_day, seed))
        .collect();
    let serial = run_des_sweep(&configs, 1).expect("sweeps run");
    for jobs in [2, 8] {
        let par = run_des_sweep(&configs, jobs).expect("sweeps run");
        for (s, p) in serial.iter().zip(par.iter()) {
            assert_eq!(s.effective_ratio.to_bits(), p.effective_ratio.to_bits());
            assert_eq!(s.iterations, p.iterations);
            assert_eq!(s.failures, p.failures);
            assert_eq!(s.absorbed_failures, p.absorbed_failures);
        }
    }
}

#[test]
fn monte_carlo_estimates_are_bit_identical_across_job_counts() {
    for n in [16usize, 64, 128] {
        let placement = Placement::mixed(n, 2).expect("valid placement");
        let serial =
            monte_carlo_recovery_probability_jobs(&placement, 2, 50_000, &mut DetRng::new(5), 1);
        for jobs in [2, 8] {
            let par = monte_carlo_recovery_probability_jobs(
                &placement,
                2,
                50_000,
                &mut DetRng::new(5),
                jobs,
            );
            assert_eq!(
                serial.to_bits(),
                par.to_bits(),
                "N={n} jobs={jobs}: {serial} vs {par}"
            );
        }
    }
}

#[test]
fn process_default_jobs_change_the_pool_not_the_output() {
    // Raising the process default (what `--jobs` / `GEMINI_JOBS` does in
    // the bench binaries) must leave every rendered byte unchanged.
    let baseline: Vec<String> = render_all_jobs(true, 1)
        .iter()
        .map(|t| t.to_markdown())
        .collect();
    par::set_default_jobs(8);
    let under_default: Vec<String> = gemini_harness::experiments::render_all(true)
        .iter()
        .map(|t| t.to_markdown())
        .collect();
    par::set_default_jobs(0); // restore
    assert_eq!(baseline, under_default);
}
