//! The bench-trajectory regression gate: compares a freshly generated
//! bench report (`perf --quick --out …` / `policy --quick --out …`)
//! against a committed baseline and fails CI when a deterministic metric
//! drifts beyond the tolerance.
//!
//! ```text
//! cargo run -p gemini-bench --bin benchgate -- \
//!     --fresh /tmp/bench_quick.json \
//!     --baseline crates/bench/baselines/perf_quick.json \
//!     --tolerance 25
//! ```
//!
//! Machine-dependent readings (wall-clock seconds, speedups, throughput
//! rates, pool sizes, the serial-fallback flag) are skipped everywhere
//! *except* the `policy`
//! section, whose `*_s` values are simulated time and therefore exact.
//! The `scale` section gates work counters, not host speed: the DP kernel
//! on its multiply-add count (`scale.dp.cells`), the recoverability memo
//! on the multiply-adds of its cold and warm curves
//! (`scale.memo.cold_cells`, `scale.memo.warm_cells`) and the fleet DES on
//! the timing wheel's cascaded and drained nodes
//! (`scale.fleet_des.wheel_cascaded`, `scale.fleet_des.wheel_drained`).
//! Their latencies and event rates (`*_ms`, `wall*`, `events_per_s`) are
//! reported only. The `control_plane` section gates the KV op counts of
//! its steady-state agent runs (`heartbeats`, `health_scans`,
//! `leases_granted`, `leases_expired`); its per-op costs (`*_ns`) are
//! reported only.
//! Deterministic metrics — event counts, trial counts, byte-identity
//! flags, policy rework/downtime/overhead — are compared with a relative
//! tolerance (default 25%) over an absolute floor (`--abs-eps`, default
//! 1e-6): a baseline at or near zero would turn float noise into an
//! unbounded relative drift, so any |fresh − baseline| within the floor
//! passes outright. Every numeric key present in the baseline
//! must also exist in the fresh report (schema regressions fail too).
//! Exit status 2 on any regression or missing key.
//!
//! Reports are read with the workspace's one JSON reader
//! ([`gemini_telemetry::json`]); a short walk flattens numeric (and
//! boolean) leaves into `section.key` paths.

use gemini_telemetry::json::{self, Json};
use std::collections::BTreeMap;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Records every numeric leaf under its dotted path, booleans as 0/1.
/// Strings and nulls are not recorded; array elements get their index as
/// a path segment.
fn walk(value: &Json, path: &mut Vec<String>, out: &mut BTreeMap<String, f64>) {
    let leaf = match value {
        Json::Num(_) => value.as_f64().expect("a parsed number reads"),
        Json::Bool(b) => f64::from(u8::from(*b)),
        Json::Null | Json::Str(_) => return,
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i.to_string());
                walk(item, path, out);
                path.pop();
            }
            return;
        }
        Json::Obj(members) => {
            for (key, member) in members {
                path.push(key.clone());
                walk(member, path, out);
                path.pop();
            }
            return;
        }
    };
    out.insert(path.join("."), leaf);
}

fn flatten(path: &str) -> BTreeMap<String, f64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")));
    let mut out = BTreeMap::new();
    walk(&doc, &mut Vec::new(), &mut out);
    out
}

/// Leaves skipped in every section: the run depth (`quick`, checked
/// separately) and readings of the host rather than the workload — the
/// pool size follows the CPU count, and `serial_fallback` is `jobs <= 1`.
const HOST_LEAVES: &[&str] = &["quick", "jobs", "cpus", "pool_jobs", "serial_fallback"];

/// Whether a dotted path is machine-dependent and must not be gated.
/// Simulated-time values under `policy.` are deterministic and kept.
fn skipped(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if HOST_LEAVES.contains(&leaf) {
        return true;
    }
    let policy_section = path == "policy" || path.starts_with("policy.");
    if policy_section {
        // Only genuinely-wall-clock keys are volatile here.
        return leaf.contains("wall") || leaf.contains("speedup") || leaf.contains("per_s");
    }
    if path.starts_with("scale.") {
        // The DP kernel, the memo and the fleet DES are gated on their
        // work counters (`cells`, `cold_cells`, `warm_cells`,
        // `wheel_cascaded`, `wheel_drained`); their
        // latencies, wall-clock readings and event rates stay volatile.
        // Counts, sim_days and the recovery probability are
        // deterministic and gate exactly.
        return leaf.contains("wall") || leaf.ends_with("_ms") || leaf.contains("per_s");
    }
    leaf.contains("wall")
        || leaf.contains("speedup")
        || leaf.contains("per_s")
        || leaf.contains("busy")
        || leaf.ends_with("_s")
        || leaf.ends_with("_us")
        || leaf.ends_with("_ns")
}

/// Whether `value` drifted from `base` beyond the gate. Relative drift
/// alone explodes against a zero or near-zero baseline (the denominator
/// clamps at 1e-12, so a 1e-9 absolute wobble in a "0.0" metric reads as
/// +100 000 % and fails the gate); any |value − base| within the
/// absolute floor `abs_eps` passes first, and only then is the relative
/// tolerance applied.
fn drift_exceeds(value: f64, base: f64, tolerance: f64, abs_eps: f64) -> bool {
    let abs = (value - base).abs();
    if abs <= abs_eps {
        return false;
    }
    let denom = base.abs().max(1e-12);
    abs / denom > tolerance
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut fresh_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    let mut abs_eps = 1e-6f64;
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--fresh" => fresh_path = Some(take("--fresh")),
            "--baseline" => baseline_path = Some(take("--baseline")),
            "--tolerance" => {
                let raw = take("--tolerance");
                tolerance_pct = raw
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --tolerance {raw:?}")));
            }
            "--abs-eps" => {
                let raw = take("--abs-eps");
                abs_eps = raw
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --abs-eps {raw:?}")));
            }
            other => fail(&format!(
                "unknown argument {other:?} \
                 (--fresh F --baseline F [--tolerance PCT] [--abs-eps X])"
            )),
        }
    }
    let fresh_path = fresh_path.unwrap_or_else(|| fail("--fresh is required"));
    let baseline_path = baseline_path.unwrap_or_else(|| fail("--baseline is required"));

    let fresh = flatten(&fresh_path);
    let baseline = flatten(&baseline_path);

    if let (Some(fq), Some(bq)) = (fresh.get("quick"), baseline.get("quick")) {
        if fq != bq {
            fail("fresh and baseline were produced at different depths (quick flags differ)");
        }
    }

    let tolerance = tolerance_pct / 100.0;
    let mut compared = 0usize;
    let mut skipped_count = 0usize;
    let mut failures = 0usize;
    for (path, base) in &baseline {
        if skipped(path) {
            skipped_count += 1;
            continue;
        }
        match fresh.get(path) {
            None => {
                eprintln!("  MISSING    {path}: baseline={base} absent from fresh report");
                failures += 1;
            }
            Some(value) => {
                compared += 1;
                if drift_exceeds(*value, *base, tolerance, abs_eps) {
                    let drift = (value - base) / base.abs().max(1e-12);
                    eprintln!(
                        "  REGRESSION {path}: baseline={base} fresh={value} ({:+.1}%)",
                        drift * 100.0
                    );
                    failures += 1;
                }
            }
        }
    }

    eprintln!(
        "benchgate: {compared} metric(s) compared, {skipped_count} skipped \
         (machine-dependent), {failures} failure(s), tolerance {tolerance_pct}%"
    );
    if failures > 0 {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::{drift_exceeds, json, skipped, walk, HOST_LEAVES};
    use std::collections::BTreeMap;

    #[test]
    fn host_leaves_are_skipped_in_every_section() {
        for leaf in HOST_LEAVES {
            for prefix in [
                "",
                "figures.",
                "policy.",
                "scale.",
                "service.",
                "des.workload.",
            ] {
                let path = format!("{prefix}{leaf}");
                assert!(skipped(&path), "{path} must not be gated");
            }
        }
        // The gate keeps the deterministic leaves beside them.
        for path in ["figures.byte_identical", "des.events", "policy.rework_s"] {
            assert!(!skipped(path), "{path} must be gated");
        }
    }

    #[test]
    fn scale_gates_work_counters_not_latency_or_rates() {
        for path in [
            "scale.dp.cells",
            "scale.dp.probability",
            "scale.fleet_des.events",
            "scale.fleet_des.wheel_cascaded",
            "scale.fleet_des.wheel_drained",
        ] {
            assert!(!skipped(path), "{path} must be gated");
        }
        for path in [
            "scale.dp.dp_ms",
            "scale.dp.dp_min_ms",
            "scale.dp.dp_max_ms",
            "scale.fleet_des.wall_s",
            "scale.fleet_des.wall_min_s",
            "scale.fleet_des.wall_max_s",
            "scale.fleet_des.events_per_s",
        ] {
            assert!(skipped(path), "{path} must not be gated");
        }
    }

    #[test]
    fn control_plane_gates_op_counts_not_per_op_costs() {
        for n in ["n16", "n10000"] {
            for leaf in [
                "workers",
                "heartbeats",
                "health_scans",
                "leases_granted",
                "leases_expired",
            ] {
                let path = format!("control_plane.{n}.{leaf}");
                assert!(!skipped(&path), "{path} must be gated");
            }
            for leaf in ["heartbeat_ns", "scan_ns"] {
                let path = format!("control_plane.{n}.{leaf}");
                assert!(skipped(&path), "{path} must not be gated");
            }
        }
    }

    #[test]
    fn walk_flattens_numbers_and_bools_under_dotted_paths() {
        let doc = json::parse(
            r#"{"quick": true, "figures": {"serial_fallback": false, "ms": [1.5, 2e3]},
                "name": "x", "gone": null}"#,
        )
        .unwrap();
        let mut out = BTreeMap::new();
        walk(&doc, &mut Vec::new(), &mut out);
        let want: BTreeMap<String, f64> = [
            ("figures.ms.0", 1.5),
            ("figures.ms.1", 2000.0),
            ("figures.serial_fallback", 0.0),
            ("quick", 1.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert_eq!(out, want);
    }

    const EPS: f64 = 1e-6;

    #[test]
    fn zero_baseline_tolerates_float_noise() {
        // Without the absolute floor this is a 1e8-percent "regression".
        assert!(!drift_exceeds(1e-9, 0.0, 0.25, EPS));
        assert!(!drift_exceeds(-1e-9, 0.0, 0.25, EPS));
        assert!(!drift_exceeds(0.0, 0.0, 0.25, EPS));
    }

    #[test]
    fn zero_baseline_still_catches_real_drift() {
        // A metric that was 0 and became 3.2 is a genuine regression.
        assert!(drift_exceeds(3.2, 0.0, 0.25, EPS));
        assert!(drift_exceeds(2e-6, 0.0, 0.25, EPS));
    }

    #[test]
    fn near_zero_baseline_uses_the_floor_not_the_ratio() {
        // base 1e-9: a same-magnitude wobble is a 100% relative drift but
        // sits far inside the absolute floor.
        assert!(!drift_exceeds(2e-9, 1e-9, 0.25, EPS));
        assert!(drift_exceeds(0.5, 1e-9, 0.25, EPS));
    }

    #[test]
    fn normal_baselines_keep_the_relative_gate() {
        assert!(!drift_exceeds(110.0, 100.0, 0.25, EPS));
        assert!(drift_exceeds(130.0, 100.0, 0.25, EPS));
        assert!(drift_exceeds(70.0, 100.0, 0.25, EPS));
        // Exactly on the tolerance edge passes (strict >).
        assert!(!drift_exceeds(125.0, 100.0, 0.25, 0.0));
    }

    #[test]
    fn zero_floor_reproduces_the_old_behaviour() {
        // abs_eps = 0 is the historical gate: near-zero baselines explode.
        assert!(drift_exceeds(1e-9, 0.0, 0.25, 0.0));
    }
}
