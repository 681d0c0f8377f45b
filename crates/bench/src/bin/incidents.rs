//! The incident flight-recorder runner: chaos plans replayed through the
//! causal trace, stitched into per-incident postmortems with critical-path
//! analysis and nanosecond-exact wasted-time attribution.
//!
//! ```text
//! cargo run -p gemini-bench --bin incidents                  # full catalog, seed 1
//! cargo run -p gemini-bench --bin incidents -- --list        # plan names
//! cargo run -p gemini-bench --bin incidents -- --plan kill_mid_checkpoint --seed 1
//! cargo run -p gemini-bench --bin incidents -- --quick --jobs 2
//! cargo run -p gemini-bench --bin incidents -- --policy off --out incidents.json
//! cargo run -p gemini-bench --bin incidents -- --plan correlated_group_loss \
//!     --seed 2 --trace-out incidents.trace.json --metrics-out incidents.prom
//! ```
//!
//! For every run the bin prints the postmortem table (one row per
//! incident: detection latency and the serialize / replace / retrieve /
//! warmup legs), the attribution table (every wasted nanosecond keyed by
//! incident x phase x machine-group x policy-epoch), and the one-line
//! incident summaries. Stdout is byte-identical across reruns, `--jobs`
//! counts, and sink on/off — the flight recorder observes the run, it
//! never perturbs it.
//!
//! Exit status 2 if any run has an invariant violation, stitches to zero
//! incidents, or fails the exact-attribution check against its
//! [`WastedLedger`](gemini_core::WastedLedger).

use gemini_bench::BenchCli;
use gemini_core::policy::PolicySpec;
use gemini_harness::{incident, ChaosPlan, ChaosReport, Scenario};
use gemini_telemetry::{json::Json, json_obj};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Renders one run's human-readable postmortem block to stdout and
/// returns `(incidents, exact, violations)` for the gate.
fn show(report: &ChaosReport) -> (usize, bool, usize) {
    let analysis = incident::analyze(report);
    print!("{}", incident::postmortem(report).to_markdown());
    println!();
    print!("{}", incident::attribution_table(report).to_markdown());
    println!();
    for line in incident::render_summary(report) {
        println!("{line}");
    }
    (
        analysis.incidents.len(),
        analysis.attribution_exact(),
        report.violations.len(),
    )
}

fn main() {
    let mut cli = BenchCli::from_env();
    let targs = cli.telemetry.clone();
    let jobs = targs.effective_jobs();
    let list = cli.flag("--list");
    let quick = cli.flag("--quick");
    let plan_name = cli.value("--plan").unwrap_or_else(|e| fail(&e));
    let policy_arg = cli.value("--policy").unwrap_or_else(|e| fail(&e));
    let out = cli.value("--out").unwrap_or_else(|e| fail(&e));
    cli.reject_unknown()
        .unwrap_or_else(|e| fail(&format!("{e}; see --list")));
    let seeds = cli.seeds_or(&[1]);

    let policy: Option<PolicySpec> = match policy_arg.as_deref() {
        None | Some("adaptive") => Some(PolicySpec::adaptive()),
        Some("off") => None,
        Some(other) => fail(&format!("unknown --policy {other:?} (adaptive|off)")),
    };

    let mut catalog = ChaosPlan::catalog();
    if list {
        for p in &catalog {
            println!("{}", p.name);
        }
        return;
    }
    if quick {
        catalog.truncate(3);
    }

    let plans: Vec<ChaosPlan> = match &plan_name {
        Some(name) => {
            let plan = catalog
                .iter()
                .find(|p| &p.name == name)
                .unwrap_or_else(|| fail(&format!("unknown plan {name:?}; see --list")));
            vec![plan.clone()]
        }
        None => catalog,
    };

    let reports: Vec<ChaosReport> = if plans.len() == 1 && seeds.len() == 1 {
        // Single run: record through the (possibly enabled) sink so
        // --trace-out / --metrics-out capture spans, flow lanes and the
        // mirrored causal events alongside the printed postmortem.
        let sink = targs.sink();
        let mut scenario = Scenario::chaos(plans[0].clone())
            .seed(seeds[0])
            .sink(sink.clone());
        if let Some(spec) = policy.clone() {
            scenario = scenario.policy(spec);
        }
        let report = scenario
            .run()
            .unwrap_or_else(|e| fail(&format!("chaos run failed: {e}")));
        if let Err(e) = targs.write(&sink) {
            fail(&format!("writing telemetry exports: {e}"));
        }
        vec![report]
    } else {
        if targs.any() {
            fail("--trace-out/--metrics-out need a single --plan and --seed");
        }
        let mut scenario = Scenario::chaos_campaign(plans.clone())
            .seeds(&seeds)
            .jobs(jobs);
        if let Some(spec) = policy.clone() {
            scenario = scenario.policy(spec);
        }
        scenario
            .run()
            .unwrap_or_else(|e| fail(&format!("incident campaign failed: {e}")))
    };

    let mut incidents = 0usize;
    let mut inexact = 0usize;
    let mut empty = 0usize;
    let mut violations = 0usize;
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let (n, exact, viol) = show(report);
        incidents += n;
        violations += viol;
        if n == 0 {
            empty += 1;
        }
        if !exact {
            inexact += 1;
        }
    }

    if let Some(path) = out {
        let runs = reports.iter().map(incident::incidents_json).collect();
        let doc = json_obj! { "runs" => Json::Arr(runs) };
        if let Err(e) = std::fs::write(&path, doc.pretty() + "\n") {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("incident report: {path}");
    }

    eprintln!(
        "incidents: {} run(s), {} incident(s), {} inexact, {} empty, {} violation(s)",
        reports.len(),
        incidents,
        inexact,
        empty,
        violations
    );
    if violations > 0 || inexact > 0 || empty > 0 {
        std::process::exit(2);
    }
}
