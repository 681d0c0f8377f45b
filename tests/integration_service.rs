//! Scenario-as-a-service acceptance: responses are byte-identical across
//! worker counts, cache temperature and sink state, and match the
//! equivalent one-shot `Scenario` builder runs byte-for-byte.

use gemini_cluster::{FailureKind, OperatorConfig};
use gemini_core::placement::analytic::analytic_recovery_probability;
use gemini_core::policy::PolicySpec;
use gemini_core::Placement;
use gemini_harness::{ChaosPlan, Deployment, DrillConfig, Scenario};
use gemini_service::{ServiceEngine, ANSWER_MEMO_CAP, ANSWER_MEMO_ENTRY_BYTES};
use gemini_telemetry::json::Json;
use gemini_telemetry::TelemetrySink;

/// `s` as a JSON string literal, as the service writes it.
fn lit(s: &str) -> String {
    Json::from(s).compact()
}

/// A canned batch covering every query kind, duplicates (dedup food) and
/// malformed lines (error isolation).
fn canned_batch() -> Vec<String> {
    [
        r#"{"id":"q1","kind":"drill","seed":1}"#,
        r#"{"id":"q2","kind":"drill","model":"GPT-2 40B","instance":"p3dn.24xlarge","seed":2}"#,
        r#"{"id":"q3","kind":"drill","machines":8,"replicas":2,"failures":[[3,"software"]],"seed":1}"#,
        r#"{"id":"q4","kind":"recoverability","machines":16,"replicas":2,"max_k":4}"#,
        r#"{"id":"q5","kind":"recoverability","machines":24,"replicas":3,"max_k":6}"#,
        r#"{"id":"q6","kind":"chaos","plan":"kill_mid_checkpoint","seed":1,"policy":"adaptive"}"#,
        r#"{"id":"q7","kind":"chaos","plan":"root_churn","seed":2}"#,
        r#"{"id":"q8","kind":"lookahead","plan":"kill_mid_checkpoint","seed":1,"candidates":["adaptive","paper_3h"]}"#,
        r#"{"id":"q9","kind":"drill","seed":1}"#,
        r#"{"id":"q10","kind":"drill","failures":[[5,"hardware"],[5,"hardware"]]}"#,
        r#"{"id":"q11","kind":"recoverability","machines":16,"replicas":2,"max_k":4}"#,
        "not json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn serve_is_byte_identical_across_jobs_cache_and_sink() {
    let batch = canned_batch();

    // Cold engine, serial.
    let cold = ServiceEngine::new(TelemetrySink::disabled());
    let serial = cold.serve_batch(&batch, 1);

    // Fresh engine, 4 workers.
    let jobs4 = ServiceEngine::new(TelemetrySink::disabled()).serve_batch(&batch, 4);
    assert_eq!(
        serial, jobs4,
        "responses differ between --jobs 1 and --jobs 4"
    );

    // Warm rerun on the already-populated engine.
    let warm = cold.serve_batch(&batch, 4);
    assert_eq!(
        serial, warm,
        "responses differ between cold and warm caches"
    );

    // Enabled sink: `service.*` counters flow, responses must not move.
    let sink_on = ServiceEngine::new(TelemetrySink::enabled()).serve_batch(&batch, 2);
    assert_eq!(serial, sink_on, "responses differ between sink off and on");

    // Error isolation: exactly the two malformed lines answer ok=false,
    // everything else ok=true, every line answered in order.
    assert_eq!(serial.len(), batch.len());
    for (i, resp) in serial.iter().enumerate() {
        let expect_err = i == 9 || i == 11;
        assert_eq!(
            resp.contains("\"ok\":false"),
            expect_err,
            "line {i}: {resp}"
        );
    }
    assert!(serial[9].starts_with("{\"id\":\"q10\""));
}

#[test]
fn drill_responses_match_the_one_shot_builder_byte_for_byte() {
    let engine = ServiceEngine::new(TelemetrySink::disabled());

    // The default drill is exactly Fig. 14.
    let served = engine.serve_batch(&[r#"{"id":"d","kind":"drill","seed":1}"#.to_string()], 1);
    let one_shot = Scenario::drill(DrillConfig::fig14()).run().unwrap();
    assert_eq!(
        served[0],
        format!(
            "{{\"id\":\"d\",\"kind\":\"drill\",\"ok\":true,\"body\":{}}}",
            lit(&one_shot.render())
        )
    );

    // A diverged query (smaller fleet, software failure) against the
    // hand-built deployment.
    let served = engine.serve_batch(
        &[
            r#"{"id":"d2","kind":"drill","machines":8,"failures":[[3,"software"]],"seed":5}"#
                .to_string(),
        ],
        1,
    );
    let mut deployment = Deployment::dense_gpt2_100b_p4d();
    deployment.machines = 8;
    let one_shot = Scenario::drill(DrillConfig {
        scenario: deployment,
        failures: vec![(3, FailureKind::Software)],
        fail_during_iteration: 4,
        operator: OperatorConfig::default(),
        seed: 5,
        mode: gemini_core::RecoveryMode::Wait,
    })
    .run()
    .unwrap();
    assert!(served[0].contains(&lit(&one_shot.render())));

    // A recovery mode on an MoE deployment; the default failure strikes
    // rank (N - 1) / 2.
    let line = r#"{"id":"d3","kind":"drill","mode":"shrink","workload":"moe"}"#;
    let served = engine.serve_batch(&[line.to_string()], 1);
    let one_shot = Scenario::drill(DrillConfig {
        scenario: Deployment::moe_gpt2_100b_p4d(),
        failures: vec![(7, FailureKind::Hardware)],
        mode: gemini_core::RecoveryMode::Shrink,
        ..DrillConfig::fig14()
    })
    .run()
    .unwrap();
    assert!(one_shot.shrink.is_some());
    assert_eq!(
        served[0],
        format!(
            "{{\"id\":\"d3\",\"kind\":\"drill\",\"ok\":true,\"body\":{}}}",
            lit(&one_shot.render())
        )
    );
}

#[test]
fn chaos_and_lookahead_match_one_shot_runs() {
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let served = engine.serve_batch(
        &[
            r#"{"id":"c","kind":"chaos","plan":"kill_mid_checkpoint","seed":3,"policy":"adaptive"}"#
                .to_string(),
            r#"{"id":"l","kind":"lookahead","plan":"root_churn","seed":2,"candidates":["adaptive","paper_3h"]}"#
                .to_string(),
        ],
        2,
    );

    let plan = ChaosPlan::extended_catalog()
        .into_iter()
        .find(|p| p.name == "kill_mid_checkpoint")
        .unwrap();
    let one_shot = Scenario::chaos(plan)
        .seed(3)
        .policy(PolicySpec::adaptive())
        .run()
        .unwrap();
    assert_eq!(
        served[0],
        format!(
            "{{\"id\":\"c\",\"kind\":\"chaos\",\"ok\":true,\"body\":{}}}",
            lit(&one_shot.render())
        )
    );

    // Lookahead = one chaos run per candidate under the same seed; the
    // winner is the lower total wasted time.
    let mut wasted = Vec::new();
    for spec in [
        PolicySpec::adaptive(),
        PolicySpec::Fixed(
            gemini_baselines::fixed_policies()
                .into_iter()
                .find(|p| p.name == "paper_3h")
                .unwrap(),
        ),
    ] {
        let plan = ChaosPlan::extended_catalog()
            .into_iter()
            .find(|p| p.name == "root_churn")
            .unwrap();
        let report = Scenario::chaos(plan).seed(2).policy(spec).run().unwrap();
        wasted.push(report.wasted.total().as_secs_f64());
    }
    let best = if wasted[1] < wasted[0] {
        "paper_3h"
    } else {
        "adaptive"
    };
    assert!(
        served[1].contains(&format!("best={best}")),
        "lookahead winner mismatch: {} (wasted {wasted:?})",
        served[1]
    );
    for (name, w) in ["adaptive", "paper_3h"].iter().zip(&wasted) {
        assert!(
            served[1].contains(&format!("candidate={name} wasted={w:.3}s")),
            "candidate pricing mismatch for {name}: {}",
            served[1]
        );
    }
}

#[test]
fn recoverability_matches_the_analytic_kernel_bit_for_bit() {
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let served = engine.serve_batch(
        &[
            r#"{"id":"r","kind":"recoverability","machines":12,"replicas":3,"max_k":5}"#
                .to_string(),
        ],
        1,
    );
    let placement = Placement::mixed(12, 3).unwrap();
    for k in 0..=5usize {
        let p = analytic_recovery_probability(&placement, k);
        assert!(
            served[0].contains(&format!("k={k} p={p}")),
            "k={k}: expected p={p} in {}",
            served[0]
        );
    }
}

/// Serves a recoverability grid (valid and invalid specs) cold and then
/// warm on one engine. Every response matches the one rendered from a
/// freshly built `Placement::mixed` and the analytic kernel, the warm pass
/// repeats the cold one byte for byte, and the curve memo counts one lookup
/// per curve point it is asked for: a warm curve point never misses and a
/// cold one misses once.
#[test]
fn recoverability_grid_is_identical_cold_and_warm() {
    const MAX_KS: [usize; 3] = [0, 3, 8];
    let sizes: Vec<usize> = (1..=70)
        .chain([97, 128, 1000, 1001, 4096, 9999, 10000])
        .collect();
    let mut lines = Vec::new();
    let mut expected = Vec::new();
    let mut valid_specs = 0u64;
    // (line index, max_k) of every line with a valid spec.
    let mut valid_lines = Vec::new();
    for &n in &sizes {
        for m in 1..=9usize {
            let built = Placement::mixed(n, m);
            let curve: Vec<f64> = match &built {
                Ok(p) => {
                    valid_specs += 1;
                    (0..=MAX_KS[2])
                        .map(|k| analytic_recovery_probability(p, k))
                        .collect()
                }
                Err(_) => Vec::new(),
            };
            for max_k in MAX_KS {
                if built.is_ok() {
                    valid_lines.push((lines.len(), max_k));
                }
                let id = format!("r{n}_{m}_{max_k}");
                lines.push(format!(
                    r#"{{"id":"{id}","kind":"recoverability","machines":{n},"replicas":{m},"max_k":{max_k}}}"#
                ));
                expected.push(match &built {
                    Ok(p) => {
                        let mut body = format!(
                            "recoverability strategy={:?} machines={n} replicas={m}\n",
                            p.strategy()
                        );
                        for (k, pk) in curve[..=max_k].iter().enumerate() {
                            body.push_str(&format!("k={k} p={pk}\n"));
                        }
                        format!(
                            r#"{{"id":"{id}","kind":"recoverability","ok":true,"body":{}}}"#,
                            lit(&body)
                        )
                    }
                    Err(e) => format!(
                        r#"{{"id":"{id}","kind":"recoverability","ok":false,"error":{}}}"#,
                        lit(&e.to_string())
                    ),
                });
            }
        }
    }
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let (cold, cold_stats) = engine.serve_batch_with_stats(&lines, 1);
    let (warm, warm_stats) = engine.serve_batch_with_stats(&lines, 1);
    assert_eq!(cold.len(), expected.len());
    for (got, want) in cold.iter().zip(&expected) {
        assert_eq!(got, want);
    }
    assert_eq!(
        cold, warm,
        "warm pass must repeat the cold one byte for byte"
    );
    let errors = (sizes.len() * 9 * MAX_KS.len()) as u64 - valid_specs * MAX_KS.len() as u64;
    assert_eq!((cold_stats.errors, warm_stats.errors), (errors, errors));
    // Per valid spec the cold pass asks for 1 + 4 + 9 points, of which
    // 0 + 1 + 4 are already memoized.
    assert_eq!(
        (cold_stats.cache_hits, cold_stats.cache_misses),
        (5 * valid_specs, 9 * valid_specs)
    );
    // Every question is distinct, so the serial cold pass memoizes the
    // answers to the first ANSWER_MEMO_CAP lines. The warm pass answers
    // those from the answer memo; the rest reach the curve memo, where
    // every point hits.
    assert_eq!(cold_stats.answer_hits, 0);
    assert_eq!(warm_stats.answer_hits, ANSWER_MEMO_CAP as u64);
    let warm_points: u64 = valid_lines
        .iter()
        .filter(|&&(line, _)| line >= ANSWER_MEMO_CAP)
        .map(|&(_, max_k)| max_k as u64 + 1)
        .sum();
    assert_eq!(
        (warm_stats.cache_hits, warm_stats.cache_misses),
        (warm_points, 0)
    );
}

/// Serial repeats of a question execute once: the answer memo answers
/// every repeat, byte-identical to the one-shot builder run.
#[test]
fn serial_repeats_execute_once_per_distinct_question() {
    let questions = [
        r#""kind":"drill","seed":1"#,
        r#""kind":"chaos","plan":"kill_mid_checkpoint","seed":3,"policy":"adaptive""#,
        r#""kind":"recoverability","machines":12,"replicas":3,"max_k":5"#,
    ];
    let lines: Vec<String> = (0..3)
        .flat_map(|round| {
            questions
                .iter()
                .enumerate()
                .map(move |(i, q)| format!(r#"{{"id":"r{round}q{i}",{q}}}"#))
        })
        .collect();
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let (served, stats) = engine.serve_batch_with_stats(&lines, 1);
    assert_eq!(stats.executions, 3, "one execution per distinct question");
    assert_eq!((stats.answer_hits, stats.answer_misses), (6, 3));

    let drill = Scenario::drill(DrillConfig::fig14())
        .run()
        .unwrap()
        .render();
    let plan = ChaosPlan::extended_catalog()
        .into_iter()
        .find(|p| p.name == "kill_mid_checkpoint")
        .unwrap();
    let chaos = Scenario::chaos(plan)
        .seed(3)
        .policy(PolicySpec::adaptive())
        .run()
        .unwrap()
        .render();
    let placement = Placement::mixed(12, 3).unwrap();
    let mut curve = format!(
        "recoverability strategy={:?} machines=12 replicas=3\n",
        placement.strategy()
    );
    for k in 0..=5usize {
        let p = analytic_recovery_probability(&placement, k);
        curve.push_str(&format!("k={k} p={p}\n"));
    }
    let bodies = [
        ("drill", drill),
        ("chaos", chaos),
        ("recoverability", curve),
    ];
    for (i, resp) in served.iter().enumerate() {
        let (kind, body) = &bodies[i % 3];
        assert_eq!(
            resp,
            &format!(
                r#"{{"id":"r{}q{}","kind":"{kind}","ok":true,"body":{}}}"#,
                i / 3,
                i % 3,
                lit(body)
            )
        );
    }
}

/// Past its cap the answer memo stops growing, and answers stay exactly
/// what a cold engine gives.
#[test]
fn answer_memo_stays_within_its_cap() {
    let lines: Vec<String> = (0..ANSWER_MEMO_CAP + 10)
        .map(|i| {
            format!(
                r#"{{"id":"r{i}","kind":"recoverability","machines":{},"replicas":2,"max_k":{}}}"#,
                8 + i / 8,
                i % 8
            )
        })
        .collect();
    // Every question is distinct, so a fresh engine answers each cold.
    let cold = ServiceEngine::new(TelemetrySink::disabled()).serve_batch(&lines, 1);
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let (first, first_stats) = engine.serve_batch_with_stats(&lines, 2);
    assert_eq!(engine.answer_memo_len(), ANSWER_MEMO_CAP);
    let (again, again_stats) = engine.serve_batch_with_stats(&lines, 1);
    assert_eq!(engine.answer_memo_len(), ANSWER_MEMO_CAP);
    assert_eq!(first, cold);
    assert_eq!(again, cold);
    assert_eq!(first_stats.errors, 0);
    assert_eq!(first_stats.answer_hits, 0);
    assert_eq!(
        (again_stats.answer_hits, again_stats.answer_misses),
        (ANSWER_MEMO_CAP as u64, 10)
    );
}

/// An answer larger than one memo entry may be is served but not
/// memoized, so its repeats execute again and the memo's bytes stay
/// bounded.
#[test]
fn oversized_answers_are_served_but_not_memoized() {
    let line = r#"{"id":"big","kind":"chaos","plan":"nic_collapse","seed":1,"policy":"mode_shrink","machines":128}"#;
    let lines = vec![line.to_string(); 2];
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let (served, stats) = engine.serve_batch_with_stats(&lines, 1);
    assert!(
        served[0].len() > ANSWER_MEMO_ENTRY_BYTES + 16,
        "the answer must outgrow an entry: {} bytes",
        served[0].len()
    );
    assert!(served[0].contains("\"ok\":true"));
    assert_eq!(served[0], served[1]);
    assert_eq!((stats.executions, stats.answer_hits), (2, 0));
    assert_eq!(engine.answer_memo_len(), 0);
}
