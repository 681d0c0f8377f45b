//! Every JSON document the workspace writes parses with the workspace's
//! one JSON reader: the Chrome trace and metrics exports of the Fig. 14
//! drill, the per-run incident documents of the chaos catalog, and the
//! `figures --json` tables.

use gemini_core::policy::PolicySpec;
use gemini_harness::experiments::render_all_with;
use gemini_harness::{incident, ChaosPlan, DrillConfig, Scenario};
use gemini_telemetry::json::{self, Json};
use gemini_telemetry::TelemetrySink;

fn parse(what: &str, doc: &str) -> Json {
    json::parse(doc).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}\n{doc}"))
}

#[test]
fn drill_telemetry_exports_parse() {
    let sink = TelemetrySink::enabled();
    Scenario::drill(DrillConfig::fig14())
        .sink(sink.clone())
        .run()
        .unwrap();
    let trace = parse("chrome trace", &sink.export_chrome_trace());
    let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(events.len() > 10, "{} trace events", events.len());
    let metrics = parse("metrics json", &sink.export_metrics_json());
    for section in ["counters", "gauges", "histograms"] {
        assert!(
            matches!(metrics.get(section), Some(Json::Obj(_))),
            "{section}"
        );
    }
}

#[test]
fn incident_documents_parse_for_the_whole_catalog() {
    let plans = ChaosPlan::catalog();
    let reports = Scenario::chaos_campaign(plans.clone())
        .seeds(&[1])
        .jobs(2)
        .policy(PolicySpec::adaptive())
        .run()
        .unwrap();
    assert_eq!(reports.len(), plans.len());
    for report in &reports {
        let value = incident::incidents_json(report);
        let doc = parse(&report.plan_name, &value.pretty());
        assert_eq!(doc, value);
        assert_eq!(
            doc.get("plan").and_then(Json::as_str),
            Some(report.plan_name.as_str())
        );
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(1));
        assert!(doc.get("incidents").and_then(Json::as_array).is_some());
    }
}

#[test]
fn figure_tables_parse_back_to_their_cells() {
    for table in render_all_with(true, &TelemetrySink::disabled()) {
        let doc = parse(&table.title, &table.json().pretty());
        assert_eq!(doc.get("title").and_then(Json::as_str), Some(&*table.title));
        let strings = |v: &Json| -> Vec<String> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|c| c.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings(doc.get("headers").unwrap()), table.headers);
        let rows: Vec<Vec<String>> = doc
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(strings)
            .collect();
        assert_eq!(rows, table.rows, "{}", table.title);
    }
}
