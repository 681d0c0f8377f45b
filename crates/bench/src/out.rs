//! Shared `--trace-out` / `--metrics-out` handling for the bench binaries.
//!
//! Every binary accepts:
//!
//! * `--trace-out FILE` — write the run's spans and typed events as Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`);
//! * `--metrics-out FILE` — write the metrics registry as Prometheus text
//!   exposition;
//! * `--metrics-json-out FILE` — write the metrics registry as JSON;
//! * `--jobs N` — run the harness's indexed task sets on `N` worker
//!   threads (`GEMINI_JOBS` is the environment fallback). Output is
//!   byte-identical at every `N`; see `docs/PERFORMANCE.md`.
//!
//! When none of the flags is present the returned sink is disabled, so the
//! instrumented code paths cost a single branch.

use gemini_telemetry::json::{self, Json};
use gemini_telemetry::{json_obj, TelemetrySink};
use std::path::PathBuf;

/// Parsed telemetry-output flags.
#[derive(Clone, Debug, Default)]
pub struct TelemetryArgs {
    /// Destination for Chrome trace-event JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Destination for Prometheus text exposition, if requested.
    pub metrics_out: Option<PathBuf>,
    /// Destination for the JSON metrics snapshot, if requested.
    pub metrics_json_out: Option<PathBuf>,
    /// Worker threads for the deterministic pool (`--jobs N`); `None`
    /// falls back to `GEMINI_JOBS`, then serial.
    pub jobs: Option<usize>,
}

impl TelemetryArgs {
    /// Splits the telemetry flags out of `args`, returning the parsed
    /// flags and the remaining arguments in their original order. A flag
    /// missing its FILE operand is an error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(TelemetryArgs, Vec<String>), String> {
        let mut out = TelemetryArgs::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--jobs" {
                let n = it
                    .next()
                    .ok_or_else(|| "--jobs requires an N operand".to_string())?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--jobs expects a positive integer, got 0".to_string());
                }
                if out.jobs.is_some() {
                    return Err("--jobs given more than once".to_string());
                }
                out.jobs = Some(n);
                continue;
            }
            let slot = match arg.as_str() {
                "--trace-out" => &mut out.trace_out,
                "--metrics-out" => &mut out.metrics_out,
                "--metrics-json-out" => &mut out.metrics_json_out,
                _ => {
                    rest.push(arg);
                    continue;
                }
            };
            if slot.is_some() {
                return Err(format!("{arg} given more than once"));
            }
            match it.next() {
                Some(path) => *slot = Some(PathBuf::from(path)),
                None => return Err(format!("{arg} requires a FILE operand")),
            }
        }
        Ok((out, rest))
    }

    /// The effective worker count: `--jobs` if given, else the process
    /// default (which already honours `GEMINI_JOBS`, falling back to 1).
    pub fn effective_jobs(&self) -> usize {
        gemini_harness::par::resolve_jobs(self.jobs)
    }

    /// Installs [`TelemetryArgs::effective_jobs`] as the process-wide
    /// default, so every harness entry point that runs at
    /// [`gemini_harness::par::default_jobs`] (figure regeneration,
    /// campaign sweeps, Monte-Carlo estimators) picks it up. Returns the
    /// installed count.
    pub fn install_jobs(&self) -> usize {
        let jobs = self.effective_jobs();
        gemini_harness::par::set_default_jobs(jobs);
        jobs
    }

    /// Whether any output was requested.
    pub fn any(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.metrics_json_out.is_some()
    }

    /// An enabled sink when any output is requested, a disabled one (zero
    /// recording cost) otherwise.
    pub fn sink(&self) -> TelemetrySink {
        if self.any() {
            TelemetrySink::enabled()
        } else {
            TelemetrySink::disabled()
        }
    }

    /// Writes the requested exports from `sink`.
    pub fn write(&self, sink: &TelemetrySink) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, sink.export_chrome_trace())?;
            eprintln!("wrote Chrome trace to {}", path.display());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, sink.export_prometheus())?;
            eprintln!("wrote Prometheus metrics to {}", path.display());
        }
        if let Some(path) = &self.metrics_json_out {
            std::fs::write(path, sink.export_metrics_json())?;
            eprintln!("wrote metrics JSON to {}", path.display());
        }
        Ok(())
    }
}

/// Sets the `name` member of the bench report at `out_path` to
/// `section`: a previous `name` section is replaced in place, keeping the
/// members after it, and a new one is appended; a missing report starts
/// as `{"bench": "harness"}`. The report is written back pretty. With no
/// path (a `--quick` run without `--out`) the section is printed on stdout
/// as its own object and no file is written.
pub fn splice_section(out_path: Option<&str>, name: &str, section: Json) -> Result<(), String> {
    let Some(out_path) = out_path else {
        println!("{}", json_obj! { name => section }.pretty());
        return Ok(());
    };
    let mut report = match std::fs::read_to_string(out_path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("parsing {out_path}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => json_obj! { "bench" => "harness" },
        Err(e) => return Err(format!("reading {out_path}: {e}")),
    };
    if !report.set(name, section) {
        return Err(format!("{out_path} is not a JSON object"));
    }
    std::fs::write(out_path, report.pretty() + "\n")
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!("spliced \"{name}\" section into {out_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_preserves_the_rest() {
        let (args, rest) = TelemetryArgs::parse(s(&[
            "{\"model\":\"x\"}",
            "--trace-out",
            "t.json",
            "--fast",
            "--metrics-out",
            "m.prom",
        ]))
        .unwrap();
        assert_eq!(args.trace_out.as_deref().unwrap().to_str(), Some("t.json"));
        assert_eq!(
            args.metrics_out.as_deref().unwrap().to_str(),
            Some("m.prom")
        );
        assert!(args.metrics_json_out.is_none());
        assert_eq!(rest, s(&["{\"model\":\"x\"}", "--fast"]));
        assert!(args.any());
        assert!(args.sink().is_enabled());
    }

    /// A fresh path under the temp dir for one test's report.
    fn report_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("{tag}_{}.json", std::process::id()))
    }

    fn cells(n: u64) -> Json {
        json_obj! { "cells" => n, "x" => 0u64 }
    }

    #[test]
    fn a_spliced_section_replaces_its_predecessor() {
        let path = report_path("splice");
        let path_str = path.to_str().unwrap();
        std::fs::write(&path, "{\n  \"bench\": \"harness\"\n}\n").unwrap();
        splice_section(Some(path_str), "policy", cells(1)).unwrap();
        splice_section(Some(path_str), "policy", cells(2)).unwrap();
        let merged = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            merged,
            "{\n  \"bench\": \"harness\",\n  \"policy\": {\n    \"cells\": 2,\n    \"x\": 0\n  }\n}\n"
        );
    }

    #[test]
    fn re_splicing_a_section_keeps_the_members_after_it() {
        let path = report_path("resplice");
        let path_str = path.to_str().unwrap();
        // A missing report is created.
        let _ = std::fs::remove_file(&path);
        for (name, n) in [("perf", 1), ("policy", 2), ("service", 3), ("policy", 4)] {
            splice_section(Some(path_str), name, cells(n)).unwrap();
        }
        let merged = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let want = r#"{
  "bench": "harness",
  "perf": {
    "cells": 1,
    "x": 0
  },
  "policy": {
    "cells": 4,
    "x": 0
  },
  "service": {
    "cells": 3,
    "x": 0
  }
}
"#;
        assert_eq!(merged, want);
    }

    #[test]
    fn a_report_that_is_not_an_object_is_an_error() {
        let path = report_path("not_object");
        let path_str = path.to_str().unwrap();
        std::fs::write(&path, "[1, 2]\n").unwrap();
        let err = splice_section(Some(path_str), "policy", cells(1)).unwrap_err();
        assert_eq!(err, format!("{path_str} is not a JSON object"));
        std::fs::write(&path, "{\"bench\": ").unwrap();
        let err = splice_section(Some(path_str), "policy", cells(1)).unwrap_err();
        assert!(err.starts_with(&format!("parsing {path_str}: ")), "{err}");
        // Neither error touched the file.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"bench\": ");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_flags_means_disabled_sink() {
        let (args, rest) = TelemetryArgs::parse(s(&["--fast"])).unwrap();
        assert!(!args.any());
        assert!(!args.sink().is_enabled());
        assert_eq!(rest, s(&["--fast"]));
    }

    #[test]
    fn missing_operand_is_an_error() {
        assert!(TelemetryArgs::parse(s(&["--trace-out"])).is_err());
    }

    #[test]
    fn parses_jobs() {
        let (args, rest) = TelemetryArgs::parse(s(&["--jobs", "4", "--fast"])).unwrap();
        assert_eq!(args.jobs, Some(4));
        assert_eq!(rest, s(&["--fast"]));
        assert_eq!(args.effective_jobs(), 4);
    }

    #[test]
    fn jobs_rejects_bad_operands() {
        assert!(TelemetryArgs::parse(s(&["--jobs"])).is_err());
        assert!(TelemetryArgs::parse(s(&["--jobs", "zero"])).is_err());
        assert!(TelemetryArgs::parse(s(&["--jobs", "0"])).is_err());
    }
}
