//! Prints every figure of the paper's evaluation section as markdown.
//!
//! ```text
//! cargo run -p gemini-bench --bin figures [--fast] [--csv | --json]
//! cargo run -p gemini-bench --bin figures -- --fast --metrics-out figs.prom
//! cargo run --release -p gemini-bench --bin figures -- --jobs 4
//! ```
//!
//! `--jobs N` (or `GEMINI_JOBS=N`) regenerates the artifacts on `N`
//! worker threads; the output — markdown, CSV, JSON and every telemetry
//! export — is byte-identical at any job count (`docs/PERFORMANCE.md`).
//!
//! With `--trace-out`/`--metrics-out`/`--metrics-json-out` the binary also
//! runs the Fig. 14 recovery drill through an enabled telemetry sink and
//! exports the resulting spans, events and metrics.

use gemini_bench::BenchCli;
use gemini_harness::experiments::render_all_with;
use gemini_harness::report::Table;
use gemini_harness::{DrillConfig, Scenario};
use gemini_telemetry::json::Json;

fn main() {
    let mut cli = BenchCli::from_env();
    let targs = cli.telemetry.clone();
    let sink = targs.sink();
    let fast = cli.flag("--fast");
    let csv = cli.flag("--csv");
    let json = cli.flag("--json");
    cli.reject_unknown().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });

    // When telemetry export is requested, seed the trace with the Fig. 14
    // drill so the span/event tracks are populated.
    if sink.is_enabled() {
        let _ = Scenario::drill(DrillConfig::fig14())
            .sink(sink.clone())
            .run();
    }

    let tables = render_all_with(fast, &sink);
    if json {
        println!(
            "{}",
            Json::Arr(tables.iter().map(Table::json).collect()).pretty()
        );
    } else {
        for table in &tables {
            if csv {
                println!("# {}", table.title);
                println!("{}", table.to_csv());
            } else {
                println!("{}", table.to_markdown());
            }
        }
    }

    if let Err(e) = targs.write(&sink) {
        eprintln!("error: writing telemetry outputs: {e}");
        std::process::exit(1)
    }
}
