//! End-to-end chaos campaign: every catalogued fault plan crossed with
//! several seeds, with all four engine invariants asserted green and the
//! byte-identical-rerun (determinism) invariant checked explicitly.

use gemini_cluster::FailureKind;
use gemini_core::recovery::RecoveryCase;
use gemini_harness::{ChaosPlan, FaultKind, Scenario, TimedFault};
use gemini_sim::{SimDuration, SimTime};
use gemini_telemetry::{CausalKind, TelemetrySink};

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn full_catalog_times_seeds_runs_green() {
    let plans = ChaosPlan::catalog();
    assert!(plans.len() >= 5, "catalog must hold at least 5 plans");
    let reports = Scenario::chaos_campaign(plans.clone())
        .seeds(&SEEDS)
        .jobs(2)
        .run()
        .unwrap();
    assert_eq!(reports.len(), plans.len() * SEEDS.len());
    for report in &reports {
        // Invariants 1-3 are folded into `violations` by the engine.
        assert!(
            report.is_green(),
            "plan {} seed {}: {:?}",
            report.plan_name,
            report.seed,
            report.violations
        );
        // Invariant 1, belt and braces: never two leaders.
        assert!(
            report.max_concurrent_leaders <= 1,
            "plan {} seed {}: {} concurrent leaders",
            report.plan_name,
            report.seed,
            report.max_concurrent_leaders
        );
        // The confirmation streak absorbed every blip.
        assert_eq!(
            report.spurious_detections, 0,
            "plan {} seed {}: spurious detections",
            report.plan_name, report.seed
        );
        // Faults actually fired and training made progress to the horizon.
        assert!(report.faults_injected > 0);
        assert!(report.final_iteration > 0);
    }
}

#[test]
fn reruns_with_the_same_seed_are_byte_identical() {
    // Invariant 4. Rendering (not JSON) is the canonical comparison form,
    // and an enabled telemetry sink must not perturb the model.
    for plan in ChaosPlan::catalog() {
        for seed in SEEDS {
            let run = |sink: TelemetrySink| {
                Scenario::chaos(plan.clone())
                    .seed(seed)
                    .sink(sink)
                    .run()
                    .unwrap()
            };
            let a = run(TelemetrySink::disabled());
            let b = run(TelemetrySink::disabled());
            let c = run(TelemetrySink::enabled());
            assert_eq!(
                a.render(),
                b.render(),
                "plan {} seed {seed} differs across reruns",
                plan.name
            );
            assert_eq!(
                a.render(),
                c.render(),
                "plan {} seed {seed} perturbed by telemetry",
                plan.name
            );
        }
    }
}

#[test]
fn campaign_is_jobs_invariant() {
    let plans = ChaosPlan::catalog();
    let run = |jobs| {
        Scenario::chaos_campaign(plans.clone())
            .seeds(&SEEDS)
            .jobs(jobs)
            .run()
            .unwrap()
    };
    let (serial, parallel) = (run(1), run(4));
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.render(), b.render());
    }
}

#[test]
fn recovery_tiers_cover_all_three_cases_across_the_catalog() {
    // The catalog is diverse enough to exercise every recovery mechanism.
    let plans = ChaosPlan::catalog();
    let reports = Scenario::chaos_campaign(plans).jobs(2).run().unwrap();
    let cases: Vec<RecoveryCase> = reports
        .iter()
        .flat_map(|r| r.waves.iter().map(|w| w.case))
        .collect();
    for expect in [
        RecoveryCase::SoftwareLocal,
        RecoveryCase::HardwareFromCpu,
        RecoveryCase::PersistentFallback,
    ] {
        assert!(
            cases.contains(&expect),
            "no catalogued plan exercised {expect:?} (got {cases:?})"
        );
    }
}

#[test]
fn fleet_wide_churn_holds_invariants_at_ten_thousand_machines() {
    // The extended-catalog plan: 10,000 machines, Poisson single-machine
    // software churn plus one correlated hardware pair loss. Exercises the
    // SoA cluster/chaos state lanes and the O(n) scan path at fleet scale
    // under the same four invariants as the paper-scale catalog. Kept out
    // of the default campaign matrix so the committed baselines (9 plans)
    // stay byte-identical.
    let plan = ChaosPlan::fleet_wide_churn();
    assert!(
        !ChaosPlan::catalog().iter().any(|p| p.name == plan.name),
        "fleet plan must not join the default campaign matrix"
    );
    assert!(
        ChaosPlan::extended_catalog()
            .iter()
            .any(|p| p.name == plan.name),
        "fleet plan missing from the extended catalog"
    );
    let report = Scenario::chaos(plan)
        .seed(1)
        .sink(TelemetrySink::disabled())
        .run()
        .unwrap();
    // Invariants 1-3 fold into `violations`; "ranks still down at the
    // horizon" is a violation too, so green means every wave completed.
    assert!(report.is_green(), "{:?}", report.violations);
    assert!(report.max_concurrent_leaders <= 1);
    assert_eq!(report.spurious_detections, 0, "spurious detections");
    assert!(report.faults_injected >= 5, "churn too sparse");
    assert!(report.waves.len() >= 2, "waves merged into fewer than 2");
    // Single-machine churn recovers from local CPU memory; the correlated
    // pair loss destroys both replicas of a shard and must fall back to
    // the persistent tier.
    assert!(report
        .waves
        .iter()
        .any(|w| w.case == RecoveryCase::SoftwareLocal));
    assert!(report
        .waves
        .iter()
        .any(|w| w.case == RecoveryCase::PersistentFallback));
    assert!(report.final_iteration > 0, "training never progressed");
}

#[test]
fn hardened_paths_exercise_retry_and_degradation() {
    let exhaustion = Scenario::chaos(ChaosPlan::replacement_exhaustion())
        .seed(1)
        .sink(TelemetrySink::disabled())
        .run()
        .unwrap();
    assert!(exhaustion.is_green(), "{:?}", exhaustion.violations);
    assert!(exhaustion.retry_attempts > 0);
    assert_eq!(exhaustion.retry_attempts, exhaustion.replacements_denied);

    let partition = Scenario::chaos(ChaosPlan::degraded_nic_partition())
        .seed(1)
        .sink(TelemetrySink::disabled())
        .run()
        .unwrap();
    assert!(partition.is_green(), "{:?}", partition.violations);
    assert_eq!(partition.waves.len(), 1);
    assert!(partition.waves[0].degraded.is_some());
    assert_eq!(partition.waves[0].case, RecoveryCase::PersistentFallback);
}

#[test]
fn shared_sink_counters_stay_cell_scoped_across_runs() {
    // Label hygiene: two Scenario runs recording into one sink must not
    // collapse their run counters into a single cell — each run's counts
    // stay attributable under its own `cell="{plan}:{seed}"` label.
    use gemini_telemetry::{intern_label, Key};
    let sink = TelemetrySink::enabled();
    for seed in [1u64, 2] {
        Scenario::chaos(ChaosPlan::kill_mid_checkpoint())
            .seed(seed)
            .sink(sink.clone())
            .run()
            .unwrap();
    }
    let snap = sink.metrics_snapshot();
    for seed in [1u64, 2] {
        let cell = intern_label(&format!("kill_mid_checkpoint:{seed}"));
        assert_eq!(
            snap.counter(Key::labeled("chaos.runs", "cell", cell)),
            1,
            "seed {seed}: chaos.runs not cell-scoped"
        );
        assert_eq!(
            snap.counter(Key::labeled("chaos.faults", "cell", cell)),
            1,
            "seed {seed}: chaos.faults not cell-scoped"
        );
        assert_eq!(
            snap.counter(Key::labeled("chaos.waves", "cell", cell)),
            1,
            "seed {seed}: chaos.waves not cell-scoped"
        );
    }
    // No un-labelled fallback cell silently aggregating across runs.
    assert_eq!(snap.counter(Key::plain("chaos.runs")), 0);
    assert_eq!(snap.counter(Key::plain("chaos.faults")), 0);
}

#[test]
fn detection_latency_respects_the_confirmation_bound_on_every_plan() {
    // Worst case for a clean fault: up to one heartbeat period (5s) before
    // the last beat ages, the 15s health TTL, then 7 one-second
    // confirmation scans — comfortably under 30s. Plans that *delay*
    // heartbeats (delayed_heartbeats, root_churn mutes) can stretch the
    // confirmed timestamp but never past the churn-mute ceiling, so the
    // bound still holds; a regression in the detector (longer streak,
    // slower scans, missed TTL expiry) pushes past it.
    let bound = SimDuration::from_secs(30);
    for plan in ChaosPlan::catalog() {
        let sink = TelemetrySink::enabled();
        let report = Scenario::chaos(plan.clone())
            .seed(1)
            .sink(sink.clone())
            .run()
            .unwrap();
        let mut confirmed = 0usize;
        for ev in &report.trace {
            if let CausalKind::Confirmed { rank, latency } = &ev.kind {
                confirmed += 1;
                assert!(
                    *latency <= bound,
                    "plan {} rank {rank}: detection took {latency} (> {bound})",
                    plan.name
                );
            }
        }
        assert!(
            confirmed > 0,
            "plan {}: no Confirmed events in the causal trace",
            plan.name
        );
        // The same latencies are exported as a per-plan histogram.
        let prom = sink.export_prometheus();
        assert!(
            prom.contains("chaos_detection_latency_us"),
            "plan {}: detection-latency histogram missing from export",
            plan.name
        );
        assert!(
            prom.contains(&format!("plan=\"{}\"", plan.name)),
            "plan {}: histogram not labelled with the plan name",
            plan.name
        );
    }
}

#[test]
fn control_plane_traffic_is_pinned() {
    // The KV control plane's work, counted exactly: a change to the store
    // or the agents that adds, drops or reorders a heartbeat, scan, lease
    // or campaign moves one of these numbers. The values are the ones the
    // store produced before it lost its revision counter and watch feed;
    // a rework of heartbeat delivery must keep them too.
    use gemini_telemetry::Key;
    let cases = [
        (
            ChaosPlan::kill_mid_checkpoint(),
            [7551, 2401, 1, 18, 1, 0, 2401],
        ),
        (
            ChaosPlan::kv_outage_blackout(),
            [7481, 2371, 2, 35, 18, 0, 2371],
        ),
    ];
    let names = [
        "kv.heartbeats",
        "kv.health_scans",
        "kv.election_rounds",
        "kv.leases_granted",
        "kv.leases_expired",
        "kv.election_lease_revoked",
        // One read of the election key per coordination tick with a
        // reachable store, shared by every campaign and the census.
        "kv.election_reads",
    ];
    for (plan, want) in cases {
        let sink = TelemetrySink::enabled();
        Scenario::chaos(plan.clone())
            .seed(1)
            .sink(sink.clone())
            .run()
            .unwrap();
        let snap = sink.metrics_snapshot();
        let got = names.map(|name| snap.counter(Key::plain(name)));
        assert_eq!(got, want, "plan {}: {names:?}", plan.name);
    }
}

#[test]
fn software_kill_after_a_persistent_rollback_recovers_from_storage() {
    // A whole placement group dies at 600 s, so wave 1 rolls every rank
    // back to the persistent checkpoint. A software kill at 1000 s is
    // confirmed while that retrieval runs and opens a software-only wave
    // 2. No CPU iteration is recoverable then (group 1's new machines
    // hold nothing yet), but the persistent checkpoint wave 1 read still
    // exists: the planner must take it instead of refusing the job.
    let mut plan = ChaosPlan::correlated_group_loss();
    plan.name = "group_loss_then_software_kill".to_string();
    plan.faults.push(TimedFault {
        at: SimTime::from_secs(1000),
        fault: FaultKind::Kill {
            rank: 9,
            kind: FailureKind::Software,
        },
    });
    // Wave 2 resumes at about 2605 s; a planner that refuses it fails by
    // about 1900 s.
    plan.horizon = SimTime::from_secs(2700);
    let report = Scenario::chaos(plan).seed(1).run().unwrap();
    assert!(report.is_green(), "violations: {:?}", report.violations);
    assert_eq!(report.waves.len(), 2);
    let persistent = report.waves[0].resumed_from_iteration;
    assert_eq!(report.waves[0].case, RecoveryCase::PersistentFallback);
    assert_eq!(report.waves[1].failures, vec!["9:sw".to_string()]);
    assert_eq!(report.waves[1].case, RecoveryCase::PersistentFallback);
    assert_eq!(report.waves[1].resumed_from_iteration, persistent);
    assert_eq!(report.waves[1].degraded, None);
}
