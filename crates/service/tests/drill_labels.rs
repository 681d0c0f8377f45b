//! Service drill, chaos and lookahead queries run on a disabled telemetry
//! sink. A long-running serve loop answering them for arbitrary seeds must
//! not grow the process-wide label interner: an enabled sink would intern
//! one `plan:seed` cell label per distinct seed.
//!
//! This is a test binary of its own, and its tests take `SERIAL`, so no
//! concurrently running test can intern labels while the count is compared.

use std::sync::Mutex;

use gemini_harness::{ChaosPlan, DrillConfig, Scenario};
use gemini_service::ServiceEngine;
use gemini_telemetry::json::Json;
use gemini_telemetry::metrics::interned_label_count;
use gemini_telemetry::TelemetrySink;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn drill_queries_intern_no_labels_and_match_the_builder() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let lines: Vec<String> = (1..=100u64)
        .map(|seed| format!(r#"{{"id":"d{seed}","kind":"drill","seed":{seed}}}"#))
        .collect();
    let before = interned_label_count();
    let served = engine.serve_batch(&lines, 2);
    assert_eq!(
        interned_label_count(),
        before,
        "drill queries interned labels"
    );
    for (seed, response) in (1..=100u64).zip(&served) {
        let direct = Scenario::drill(DrillConfig::fig14())
            .seed(seed)
            .run()
            .unwrap();
        assert_eq!(
            *response,
            format!(
                "{{\"id\":\"d{seed}\",\"kind\":\"drill\",\"ok\":true,\"body\":{}}}",
                Json::from(direct.render()).compact()
            )
        );
    }
}

#[test]
fn chaos_and_lookahead_queries_intern_no_labels_and_match_the_builder() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const PLAN: &str = "kill_mid_checkpoint";
    let engine = ServiceEngine::new(TelemetrySink::disabled());
    let mut lines: Vec<String> = (1..=100u64)
        .map(|seed| format!(r#"{{"id":"c{seed}","kind":"chaos","plan":"{PLAN}","seed":{seed}}}"#))
        .collect();
    lines.extend((1..=3u64).map(|seed| {
        format!(
            r#"{{"id":"l{seed}","kind":"lookahead","plan":"{PLAN}","seed":{seed},"candidates":["adaptive","paper_3h"]}}"#
        )
    }));
    let before = interned_label_count();
    let served = engine.serve_batch(&lines, 2);
    assert_eq!(
        interned_label_count(),
        before,
        "chaos or lookahead queries interned labels"
    );
    assert!(
        served[100..].iter().all(|r| r.contains("\"ok\":true")),
        "{served:?}"
    );
    let plan = ChaosPlan::extended_catalog()
        .into_iter()
        .find(|p| p.name == PLAN)
        .unwrap();
    for (seed, response) in (1..=100u64).zip(&served) {
        let direct = Scenario::chaos(plan.clone()).seed(seed).run().unwrap();
        assert_eq!(
            *response,
            format!(
                "{{\"id\":\"c{seed}\",\"kind\":\"chaos\",\"ok\":true,\"body\":{}}}",
                Json::from(direct.render()).compact()
            )
        );
    }
}
