//! Incident stitching, critical-path analysis and wasted-time attribution
//! over the chaos flight recorder.
//!
//! [`crate::chaos`] narrates every recovery as
//! [`CausalEvent`](gemini_telemetry::CausalEvent)s sharing an
//! incident id (the wave index). This module turns that flat trace into:
//!
//! * [`Incident`] records — one per wave, with the causal timestamps
//!   (injected → confirmed → wave opened → serialize done → replacements
//!   ready → retrieval → resumed) stitched back together;
//! * a **critical path** per incident over the causal DAG: serialization
//!   and machine replacement run concurrently after detection, so the path
//!   keeps whichever leg actually gated retrieval, then retrieve → warmup
//!   (→ rework when progress was rolled back);
//! * an **attribution table** assigning every nanosecond of the run's
//!   [`WastedLedger`](gemini_core::WastedLedger) to an `(incident, phase,
//!   machine-group, policy-epoch)` key. The downtime phases partition each
//!   incident's detect→resume window exactly (telescoping timestamps),
//!   rework rows reuse the exact value charged by the model, and overhead
//!   rows mirror each persist charge — so
//!   [`check_attribution`](gemini_core::WastedLedger::check_attribution)
//!   holds to the nanosecond or the analysis reports a mismatch.
//!
//! Everything is derived from `ChaosReport::trace` (model-side state), so
//! the analysis is identical with the sink on or off and byte-identical
//! across `--jobs`. [`record_sink_artifacts`] additionally projects the
//! analysis into an enabled sink *after* the run: `incident.*` /
//! `critical_path.*` metrics, per-phase spans and a chrome-trace flow lane
//! (incidents render as arrows in `chrome://tracing`).

use crate::chaos::ChaosReport;
use crate::report::Table;
use gemini_sim::{SimDuration, SimTime};
use gemini_telemetry::json::escape;
use gemini_telemetry::{intern_label, CausalKind, FlowPhase, Key, Phase, TelemetrySink};
use std::collections::BTreeMap;

/// Bucket bounds (µs) for the per-plan `chaos.detection_latency_us`
/// histogram. Detection is bounded by one heartbeat period (5 s) + the
/// health-key TTL (15 s) + the confirmation streak (7 × 1 s scans) plus
/// scan alignment, so the interesting range is seconds-scale.
pub const DETECTION_LATENCY_BOUNDS_US: &[u64] = &[
    5_000_000,
    10_000_000,
    15_000_000,
    20_000_000,
    25_000_000,
    30_000_000,
    60_000_000,
    120_000_000,
];

/// Bucket bounds (µs) for recovery-phase and incident-downtime
/// histograms: recovery phases run seconds to an hour (replacement
/// exhaustion backs off for a long time).
pub const RECOVERY_PHASE_BOUNDS_US: &[u64] = &[
    1_000_000,
    5_000_000,
    15_000_000,
    30_000_000,
    60_000_000,
    120_000_000,
    300_000_000,
    600_000_000,
    1_800_000_000,
    3_600_000_000,
];

/// One stitched recovery incident: a wave's causal timestamps rebuilt
/// from the flight-recorder trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Incident {
    /// The incident id (the wave index).
    pub id: u64,
    /// Every rank the wave handled (open + merges), sorted.
    pub ranks: Vec<usize>,
    /// Machine-group label: `g<N>` when every rank shares one placement
    /// group, `multi` otherwise.
    pub group: String,
    /// The policy epoch (applied-decision count) at detection.
    pub policy_epoch: u64,
    /// Earliest fault injection adopted by the wave.
    pub injected_at: Option<SimTime>,
    /// When the wave opened (detection).
    pub detected_at: Option<SimTime>,
    /// When the (final, post-merge) serialization finished.
    pub serialize_done_at: Option<SimTime>,
    /// When the last replacement machine joined, if any were needed.
    pub replace_done_at: Option<SimTime>,
    /// When retrieval started.
    pub retrieval_started_at: Option<SimTime>,
    /// When retrieval finished.
    pub retrieval_done_at: Option<SimTime>,
    /// When training resumed (closes the incident).
    pub resumed_at: Option<SimTime>,
    /// Worst per-rank injection→confirmation latency.
    pub detection_latency: SimDuration,
    /// `Debug` form of the recovery case.
    pub case: String,
    /// The iteration all ranks rolled back to.
    pub rollback_to: u64,
    /// Exact re-training cost charged to the ledger.
    pub rework: SimDuration,
    /// Retrieval sources per tier: (local, remote, persistent).
    pub tiers: (usize, usize, usize),
}

impl Incident {
    fn empty(id: u64) -> Incident {
        Incident {
            id,
            ranks: Vec::new(),
            group: String::new(),
            policy_epoch: 0,
            injected_at: None,
            detected_at: None,
            serialize_done_at: None,
            replace_done_at: None,
            retrieval_started_at: None,
            retrieval_done_at: None,
            resumed_at: None,
            detection_latency: SimDuration::ZERO,
            case: String::new(),
            rollback_to: 0,
            rework: SimDuration::ZERO,
            tiers: (0, 0, 0),
        }
    }

    /// Whether the incident ran to completion (training resumed). Only
    /// complete incidents contribute to the ledger, and only they carry
    /// attribution rows.
    pub fn is_complete(&self) -> bool {
        self.detected_at.is_some()
            && self.serialize_done_at.is_some()
            && self.retrieval_started_at.is_some()
            && self.retrieval_done_at.is_some()
            && self.resumed_at.is_some()
    }

    /// Detection→resume downtime (zero while incomplete). Matches the
    /// wave's [`gemini_core::WastedLedger`] contribution exactly.
    pub fn downtime(&self) -> SimDuration {
        match (self.detected_at, self.resumed_at) {
            (Some(d), Some(r)) => r.saturating_since(d),
            _ => SimDuration::ZERO,
        }
    }

    /// The wall-clock phase partition: Detect plus the four downtime
    /// phases whose durations telescope to exactly
    /// [`Incident::downtime`]. `None` while incomplete.
    pub fn phase_durations(&self) -> Option<Vec<(Phase, SimDuration)>> {
        let detected = self.detected_at?;
        let serialized = self.serialize_done_at?;
        let retrieval_started = self.retrieval_started_at?;
        let retrieval_done = self.retrieval_done_at?;
        let resumed = self.resumed_at?;
        let injected = self.injected_at.unwrap_or(detected);
        Some(vec![
            (Phase::Detect, detected.saturating_since(injected)),
            (Phase::Serialize, serialized.saturating_since(detected)),
            (
                Phase::Replace,
                retrieval_started.saturating_since(serialized),
            ),
            (
                Phase::Retrieve,
                retrieval_done.saturating_since(retrieval_started),
            ),
            (Phase::Warmup, resumed.saturating_since(retrieval_done)),
        ])
    }

    /// The critical path over the causal DAG. Serialization and machine
    /// replacement run concurrently after detection and retrieval waits
    /// on both, so the path keeps whichever leg finished *last* (charged
    /// with the whole detection→retrieval-start gap), then retrieve and
    /// warmup, then rework when progress was rolled back. Empty while
    /// incomplete.
    pub fn critical_path(&self) -> Vec<(Phase, SimDuration)> {
        let (Some(detected), Some(serialized), Some(retrieval_started)) = (
            self.detected_at,
            self.serialize_done_at,
            self.retrieval_started_at,
        ) else {
            return Vec::new();
        };
        let (Some(retrieval_done), Some(resumed)) = (self.retrieval_done_at, self.resumed_at)
        else {
            return Vec::new();
        };
        let injected = self.injected_at.unwrap_or(detected);
        let replace_gated = self.replace_done_at.is_some_and(|done| done > serialized);
        let gate = if replace_gated {
            Phase::Replace
        } else {
            Phase::Serialize
        };
        let mut path = vec![
            (Phase::Detect, detected.saturating_since(injected)),
            (gate, retrieval_started.saturating_since(detected)),
            (
                Phase::Retrieve,
                retrieval_done.saturating_since(retrieval_started),
            ),
            (Phase::Warmup, resumed.saturating_since(retrieval_done)),
        ];
        if !self.rework.is_zero() {
            path.push((Phase::Rework, self.rework));
        }
        path
    }

    /// The phase that bounded end-to-end recovery: the longest leg of the
    /// critical path (earliest wins ties). `None` while incomplete.
    pub fn bounding_phase(&self) -> Option<Phase> {
        let path = self.critical_path();
        let mut best: Option<(Phase, SimDuration)> = None;
        for (p, d) in path {
            if best.map_or(true, |(_, bd)| d > bd) {
                best = Some((p, d));
            }
        }
        best.map(|(p, _)| p)
    }
}

/// One attribution row: `amount` of wasted time charged to an
/// `(incident, phase, machine-group, policy-epoch)` key. `incident` is
/// `None` for background overhead (persist charges).
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionRow {
    /// The incident charged, or `None` for background overhead.
    pub incident: Option<u64>,
    /// The phase charged.
    pub phase: Phase,
    /// The incident's machine-group label (`all` for background rows).
    pub group: String,
    /// The policy epoch in force.
    pub policy_epoch: u64,
    /// The exact amount charged.
    pub amount: SimDuration,
}

/// The complete flight-recorder analysis of one chaos run.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentAnalysis {
    /// Stitched incidents, by id.
    pub incidents: Vec<Incident>,
    /// Every attribution row, incident-major then background overhead.
    pub rows: Vec<AttributionRow>,
    /// Attributed sums per ledger category: (rework, downtime, overhead).
    pub attributed: (SimDuration, SimDuration, SimDuration),
    /// Ledger-vs-attribution mismatches as
    /// `(category, ledger_amount, attributed_amount)`; empty ⇔ the
    /// invariant holds exactly.
    pub mismatches: Vec<(&'static str, SimDuration, SimDuration)>,
}

impl IncidentAnalysis {
    /// Whether the attribution invariant holds to the nanosecond.
    pub fn attribution_exact(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Stitches the flat causal trace back into per-wave [`Incident`]s.
pub fn stitch(report: &ChaosReport) -> Vec<Incident> {
    let mut map: BTreeMap<u64, Incident> = BTreeMap::new();
    for ev in &report.trace {
        let Some(id) = ev.incident else {
            continue; // background event (policy decision / persist charge)
        };
        let inc = map.entry(id).or_insert_with(|| Incident::empty(id));
        match &ev.kind {
            CausalKind::FaultInjected { .. } => {
                inc.injected_at = Some(match inc.injected_at {
                    Some(t) => t.min(ev.at),
                    None => ev.at,
                });
            }
            CausalKind::Confirmed { latency, .. } => {
                inc.detection_latency = inc.detection_latency.max(*latency);
            }
            CausalKind::WaveOpened {
                ranks,
                group,
                policy_epoch,
            } => {
                inc.detected_at = Some(ev.at);
                inc.ranks = ranks.clone();
                inc.group = group.clone();
                inc.policy_epoch = *policy_epoch;
            }
            CausalKind::WaveMerged { ranks, group } => {
                for r in ranks {
                    if !inc.ranks.contains(r) {
                        inc.ranks.push(*r);
                    }
                }
                inc.ranks.sort_unstable();
                if *group != inc.group {
                    inc.group = "multi".to_string();
                }
            }
            // Merges restart serialization; the last (valid) completion
            // wins, which is exactly the one retrieval waited on.
            CausalKind::SerializeDone => inc.serialize_done_at = Some(ev.at),
            CausalKind::ReplacementReady { .. } => {
                inc.replace_done_at = Some(match inc.replace_done_at {
                    Some(t) => t.max(ev.at),
                    None => ev.at,
                });
            }
            CausalKind::RetrievalStarted {
                case,
                rollback_to,
                local,
                remote,
                persistent,
            } => {
                inc.retrieval_started_at = Some(ev.at);
                inc.case = case.clone();
                inc.rollback_to = *rollback_to;
                inc.tiers = (*local, *remote, *persistent);
            }
            CausalKind::TierRead { .. } => {}
            CausalKind::RetrievalDone => inc.retrieval_done_at = Some(ev.at),
            CausalKind::RolledBack { rework, .. } => inc.rework = *rework,
            CausalKind::Resumed { .. } => inc.resumed_at = Some(ev.at),
            CausalKind::PolicyDecision { .. } | CausalKind::PersistCharged { .. } => {}
        }
    }
    map.into_values().collect()
}

/// Stitches incidents, builds the attribution table and checks it against
/// the run's [`gemini_core::WastedLedger`] — exactly.
pub fn analyze(report: &ChaosReport) -> IncidentAnalysis {
    let incidents = stitch(report);
    let mut rows = Vec::new();
    let mut rework_sum = SimDuration::ZERO;
    let mut downtime_sum = SimDuration::ZERO;
    let mut overhead_sum = SimDuration::ZERO;
    for inc in &incidents {
        let Some(phases) = inc.phase_durations() else {
            continue; // incomplete: never reached the ledger either
        };
        // Skip Detect: the ledger's downtime window starts at detection.
        for &(phase, amount) in phases.iter().skip(1) {
            downtime_sum = downtime_sum.saturating_add(amount);
            rows.push(AttributionRow {
                incident: Some(inc.id),
                phase,
                group: inc.group.clone(),
                policy_epoch: inc.policy_epoch,
                amount,
            });
        }
        rework_sum = rework_sum.saturating_add(inc.rework);
        rows.push(AttributionRow {
            incident: Some(inc.id),
            phase: Phase::Rework,
            group: inc.group.clone(),
            policy_epoch: inc.policy_epoch,
            amount: inc.rework,
        });
    }
    for ev in &report.trace {
        if let CausalKind::PersistCharged { amount, epoch } = &ev.kind {
            overhead_sum = overhead_sum.saturating_add(*amount);
            rows.push(AttributionRow {
                incident: None,
                phase: Phase::Overhead,
                group: "all".to_string(),
                policy_epoch: *epoch,
                amount: *amount,
            });
        }
    }
    let mismatches = report
        .wasted
        .check_attribution(rework_sum, downtime_sum, overhead_sum)
        .err()
        .unwrap_or_default();
    IncidentAnalysis {
        incidents,
        rows,
        attributed: (rework_sum, downtime_sum, overhead_sum),
        mismatches,
    }
}

/// Deterministic plain-text summary lines appended to
/// [`ChaosReport::render`], so the existing byte-identity invariants
/// cover the derived analysis too.
pub fn render_summary(report: &ChaosReport) -> Vec<String> {
    let analysis = analyze(report);
    let mut out = Vec::new();
    for inc in &analysis.incidents {
        if !inc.is_complete() {
            out.push(format!(
                "incident {}: incomplete (no resume before the horizon)",
                inc.id
            ));
            continue;
        }
        let path = inc
            .critical_path()
            .iter()
            .map(|(p, d)| format!("{}:{:.3}s", p.label(), d.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" > ");
        let bounded = inc.bounding_phase().map_or("-", |p| p.label());
        out.push(format!(
            "incident {}: ranks={:?} group={} epoch={} case={} \
             detect_latency={:.3}s downtime={:.3}s rework={:.3}s \
             critical_path=[{path}] bounded_by={bounded}",
            inc.id,
            inc.ranks,
            inc.group,
            inc.policy_epoch,
            inc.case,
            inc.detection_latency.as_secs_f64(),
            inc.downtime().as_secs_f64(),
            inc.rework.as_secs_f64(),
        ));
    }
    if analysis.attribution_exact() {
        out.push(format!(
            "attribution: exact rework={:.3}s downtime={:.3}s overhead={:.3}s rows={}",
            analysis.attributed.0.as_secs_f64(),
            analysis.attributed.1.as_secs_f64(),
            analysis.attributed.2.as_secs_f64(),
            analysis.rows.len(),
        ));
    } else {
        for (name, ledger, attributed) in &analysis.mismatches {
            out.push(format!(
                "attribution: MISMATCH {name} ledger={}ns attributed={}ns",
                ledger.as_nanos(),
                attributed.as_nanos(),
            ));
        }
    }
    out
}

/// The human-readable postmortem table for one run: one row per incident
/// with its phase breakdown and bounding phase.
pub fn postmortem(report: &ChaosReport) -> Table {
    let analysis = analyze(report);
    let mut t = Table::new(
        &format!("Postmortem — {} seed {}", report.plan_name, report.seed),
        &[
            "incident",
            "ranks",
            "group",
            "epoch",
            "case",
            "detect_s",
            "serialize_s",
            "replace_s",
            "retrieve_s",
            "warmup_s",
            "downtime_s",
            "rework_s",
            "bounded_by",
        ],
    );
    for inc in &analysis.incidents {
        let Some(phases) = inc.phase_durations() else {
            t.push(vec![
                inc.id.to_string(),
                format!("{:?}", inc.ranks),
                inc.group.clone(),
                inc.policy_epoch.to_string(),
                "incomplete".to_string(),
            ]);
            continue;
        };
        let mut row = vec![
            inc.id.to_string(),
            format!("{:?}", inc.ranks),
            inc.group.clone(),
            inc.policy_epoch.to_string(),
            inc.case.clone(),
        ];
        for &(_, d) in &phases {
            row.push(crate::report::secs(d.as_secs_f64()));
        }
        row.push(crate::report::secs(inc.downtime().as_secs_f64()));
        row.push(crate::report::secs(inc.rework.as_secs_f64()));
        row.push(inc.bounding_phase().map_or("-", |p| p.label()).to_string());
        t.push(row);
    }
    t
}

/// The attribution table for one run: one row per `(incident, phase,
/// group, epoch)` charge.
pub fn attribution_table(report: &ChaosReport) -> Table {
    let analysis = analyze(report);
    let mut t = Table::new(
        &format!(
            "Wasted-time attribution — {} seed {}",
            report.plan_name, report.seed
        ),
        &["incident", "phase", "group", "epoch", "seconds"],
    );
    for row in &analysis.rows {
        t.push(vec![
            row.incident.map_or("-".to_string(), |i| i.to_string()),
            row.phase.label().to_string(),
            row.group.clone(),
            row.policy_epoch.to_string(),
            format!("{:.9}", row.amount.as_secs_f64()),
        ]);
    }
    t
}

fn json_secs(d: SimDuration) -> String {
    format!("{:.9}", d.as_secs_f64())
}

/// Per-run incident JSON, assembled field by field so its bytes are
/// deterministic.
pub fn incidents_json(report: &ChaosReport) -> String {
    let analysis = analyze(report);
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"plan\": \"{}\",\n  \"seed\": {},\n",
        escape(&report.plan_name),
        report.seed
    ));
    out.push_str("  \"incidents\": [");
    for (i, inc) in analysis.incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"id\": {}, \"ranks\": {:?}, \"group\": \"{}\", \"epoch\": {}, \
             \"case\": \"{}\", \"rollback_to\": {}, \"complete\": {}, \
             \"detection_latency_s\": {}, \"downtime_s\": {}, \"rework_s\": {}, \
             \"tiers\": {{\"local\": {}, \"remote\": {}, \"persistent\": {}}}",
            inc.id,
            inc.ranks,
            escape(&inc.group),
            inc.policy_epoch,
            escape(&inc.case),
            inc.rollback_to,
            inc.is_complete(),
            json_secs(inc.detection_latency),
            json_secs(inc.downtime()),
            json_secs(inc.rework),
            inc.tiers.0,
            inc.tiers.1,
            inc.tiers.2,
        ));
        if let Some(phases) = inc.phase_durations() {
            out.push_str(", \"phases\": {");
            for (j, (p, d)) in phases.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", p.label(), json_secs(*d)));
            }
            out.push('}');
            out.push_str(", \"critical_path\": [");
            for (j, (p, d)) in inc.critical_path().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"phase\": \"{}\", \"seconds\": {}}}",
                    p.label(),
                    json_secs(*d)
                ));
            }
            out.push(']');
            out.push_str(&format!(
                ", \"bounding_phase\": \"{}\"",
                inc.bounding_phase().map_or("-", |p| p.label())
            ));
        }
        out.push('}');
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"attribution\": [");
    for (i, row) in analysis.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"incident\": {}, \"phase\": \"{}\", \"group\": \"{}\", \
             \"epoch\": {}, \"seconds\": {}}}",
            row.incident.map_or("null".to_string(), |v| v.to_string()),
            row.phase.label(),
            escape(&row.group),
            row.policy_epoch,
            json_secs(row.amount),
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"ledger\": {{\"rework_s\": {}, \"downtime_s\": {}, \"overhead_s\": {}, \
         \"total_s\": {}}},\n",
        json_secs(report.wasted.rework),
        json_secs(report.wasted.downtime),
        json_secs(report.wasted.overhead),
        json_secs(report.wasted.total()),
    ));
    out.push_str(&format!(
        "  \"attribution_exact\": {}\n}}\n",
        analysis.attribution_exact()
    ));
    out
}

/// Projects a finished run's flight-recorder analysis into an enabled
/// sink: mirrors the trace into the sink's ring buffer, emits `incident.*`
/// / `critical_path.*` / `incident.downtime_us` metrics, per-phase spans
/// on the `incident` track, and a chrome-trace flow lane so each incident
/// renders as an arrow chain (injected → detected → retrieval → resumed)
/// in `chrome://tracing`. No-op on a disabled sink; runs *after* the
/// simulation so it can never perturb model execution.
pub fn record_sink_artifacts(report: &ChaosReport, sink: &TelemetrySink) {
    if !sink.is_enabled() {
        return;
    }
    for ev in &report.trace {
        sink.causal(|| ev.clone());
    }
    let cell = intern_label(&format!("{}:{}", report.plan_name, report.seed));
    let analysis = analyze(report);
    for inc in &analysis.incidents {
        sink.counter_add_key(Key::labeled("incident.count", "cell", cell), 1);
        let name = format!("incident-{}", inc.id);
        let (Some(detected), Some(resumed)) = (inc.detected_at, inc.resumed_at) else {
            sink.counter_add_key(Key::labeled("incident.incomplete", "cell", cell), 1);
            continue;
        };
        sink.span("incident", || name.clone(), detected, resumed);
        if let Some(phases) = inc.phase_durations() {
            let mut cursor = inc.injected_at.unwrap_or(detected);
            for (phase, d) in phases {
                let end = cursor + d;
                if !d.is_zero() {
                    let label = format!("{name}/{}", phase.label());
                    sink.span("incident", || label.clone(), cursor, end);
                }
                cursor = end;
            }
        }
        let injected = inc.injected_at.unwrap_or(detected);
        sink.flow(
            "incident",
            || name.clone(),
            inc.id,
            injected,
            FlowPhase::Start,
        );
        sink.flow(
            "incident",
            || name.clone(),
            inc.id,
            detected,
            FlowPhase::Step,
        );
        if let Some(rs) = inc.retrieval_started_at {
            sink.flow("incident", || name.clone(), inc.id, rs, FlowPhase::Step);
        }
        sink.flow("incident", || name.clone(), inc.id, resumed, FlowPhase::End);
        sink.observe_us_key(
            Key::labeled("incident.downtime_us", "cell", cell),
            RECOVERY_PHASE_BOUNDS_US,
            || inc.downtime().as_nanos() / 1_000,
        );
        if let Some(bounding) = inc.bounding_phase() {
            sink.counter_add_key(
                Key::labeled("incident.bounding_phase", "phase", bounding.label()),
                1,
            );
        }
        for (phase, d) in inc.critical_path() {
            sink.observe_us_key(
                Key::labeled("critical_path.phase_us", "phase", phase.label()),
                RECOVERY_PHASE_BOUNDS_US,
                || d.as_nanos() / 1_000,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::Scenario;

    #[test]
    fn stitched_incident_partitions_its_downtime_exactly() {
        let report = Scenario::chaos(ChaosPlan::kill_mid_checkpoint())
            .seed(1)
            .run()
            .unwrap();
        let analysis = analyze(&report);
        assert_eq!(analysis.incidents.len(), 1);
        let inc = &analysis.incidents[0];
        assert!(inc.is_complete());
        assert_eq!(inc.ranks, vec![5]);
        assert!(inc.group.starts_with('g'), "group = {}", inc.group);
        let phases = inc.phase_durations().unwrap();
        let downtime_phases: SimDuration = phases
            .iter()
            .skip(1)
            .fold(SimDuration::ZERO, |acc, &(_, d)| acc.saturating_add(d));
        assert_eq!(downtime_phases, inc.downtime());
        assert_eq!(inc.downtime(), report.wasted.downtime);
        assert!(
            analysis.attribution_exact(),
            "mismatches: {:?}",
            analysis.mismatches
        );
        assert_eq!(analysis.attributed.0, report.wasted.rework);
    }

    #[test]
    fn replacement_exhaustion_is_bounded_by_the_replace_leg() {
        // The operator outage stalls replacement far past serialization,
        // so the critical path must route through Replace.
        let report = Scenario::chaos(ChaosPlan::replacement_exhaustion())
            .seed(5)
            .run()
            .unwrap();
        let analysis = analyze(&report);
        let inc = analysis
            .incidents
            .iter()
            .find(|i| i.is_complete())
            .expect("a complete incident");
        assert!(inc.replace_done_at.is_some());
        assert!(inc
            .critical_path()
            .iter()
            .any(|&(p, _)| p == Phase::Replace));
        assert!(!inc
            .critical_path()
            .iter()
            .any(|&(p, _)| p == Phase::Serialize));
    }

    #[test]
    fn every_catalog_plan_attributes_exactly() {
        for plan in ChaosPlan::catalog() {
            let report = Scenario::chaos(plan.clone()).seed(1).run().unwrap();
            let analysis = analyze(&report);
            assert!(
                !analysis.incidents.is_empty(),
                "plan {} produced no incidents",
                plan.name
            );
            assert!(
                analysis.attribution_exact(),
                "plan {}: {:?}",
                plan.name,
                analysis.mismatches
            );
            assert_eq!(
                analysis
                    .incidents
                    .iter()
                    .filter(|i| i.is_complete())
                    .count() as u64,
                report.wasted.failures,
                "plan {}: complete incidents must match ledger failures",
                plan.name
            );
        }
    }

    #[test]
    fn incidents_json_is_deterministic_and_balanced() {
        let report = Scenario::chaos(ChaosPlan::correlated_group_loss())
            .seed(2)
            .run()
            .unwrap();
        let a = incidents_json(&report);
        let b = incidents_json(&report);
        assert_eq!(a, b);
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "unbalanced JSON:\n{a}"
        );
        assert!(a.contains("\"attribution_exact\": true"), "{a}");
        let table = postmortem(&report);
        assert_eq!(table.headers.len(), 13);
        assert!(!table.rows.is_empty());
        assert!(!attribution_table(&report).rows.is_empty());
    }

    #[test]
    fn sink_artifacts_mirror_the_trace_and_count_incidents() {
        use gemini_telemetry::TelemetrySink;
        let sink = TelemetrySink::enabled();
        let report = Scenario::chaos(ChaosPlan::kill_mid_checkpoint())
            .seed(1)
            .sink(sink.clone())
            .run()
            .unwrap();
        assert_eq!(sink.causal_events(), report.trace);
        let snap = sink.metrics_snapshot();
        let cell = intern_label("kill_mid_checkpoint:1");
        assert_eq!(
            snap.counter(Key::labeled("incident.count", "cell", cell)),
            1
        );
        let prom = sink.export_prometheus();
        assert!(prom.contains("incident_downtime_us"), "{prom}");
        assert!(prom.contains("critical_path_phase_us"), "{prom}");
        assert!(prom.contains("chaos_detection_latency_us"), "{prom}");
        let trace = sink.export_chrome_trace();
        assert!(trace.contains("\"ph\":\"s\""), "flow lane missing");
        assert!(trace.contains("incident-0/"), "phase spans missing");
    }
}
