//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`).
//!
//! The Chrome trace-event format is a JSON object with a `traceEvents`
//! array. We emit:
//!
//! * one `"M"` (metadata) event naming the process, plus one per track
//!   naming its thread;
//! * one `"X"` (complete) event per closed [`SpanRecord`], with `ts` and
//!   `dur` in **integer microseconds** (`as_nanos() / 1000`) so the output
//!   is deterministic and diff-friendly;
//! * one `"i"` (instant) event per [`TimedEvent`], carrying the typed
//!   event's `Debug` form under `args.message`;
//! * one `"s"`/`"t"`/`"f"` (flow) event per [`FlowRecord`] hop, so causal
//!   chains — e.g. a recovery incident's fault → detect → retrieve →
//!   resume path — render as arrows across tracks.
//!
//! Tracks map to Chrome "threads": pid is always 1 and each distinct track
//! gets a tid in first-use order (spans first, then events), so a given
//! simulation always yields byte-identical output.

use crate::event::TimedEvent;
use crate::spans::{FlowRecord, SpanRecord};
use crate::{json::Json, json_obj};
use gemini_sim::SimTime;
use std::collections::BTreeMap;

/// Assigns tids to tracks in first-use order (spans, then instants, then
/// flow hops).
fn track_ids<'a>(
    spans: &'a [SpanRecord],
    events: &'a [TimedEvent],
    flows: &'a [FlowRecord],
) -> (Vec<&'a str>, BTreeMap<&'a str, usize>) {
    let mut order = Vec::new();
    let mut ids = BTreeMap::new();
    let tracks = spans.iter().map(|s| s.track);
    let tracks = tracks.chain(events.iter().map(|e| e.event.track()));
    for track in tracks.chain(flows.iter().map(|f| f.track)) {
        ids.entry(track).or_insert_with(|| {
            order.push(track);
            order.len() - 1
        });
    }
    (order, ids)
}

/// Renders spans, instant events and flow arrows as a Chrome trace-event
/// JSON document: a fixed wrapper holding one compact event per line, so
/// the whole trace is never built as one value.
pub fn chrome_trace(spans: &[SpanRecord], events: &[TimedEvent], flows: &[FlowRecord]) -> String {
    let (order, ids) = track_ids(spans, events, flows);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut push = |event: Json| {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&event.compact());
    };
    let us = |t: SimTime| t.as_nanos() / 1_000;

    push(json_obj! {
        "ph" => "M", "pid" => 1u64, "name" => "process_name",
        "args" => json_obj! { "name" => "gemini-sim" },
    });
    for (tid, &track) in order.iter().enumerate() {
        push(json_obj! {
            "ph" => "M", "pid" => 1u64, "tid" => tid, "name" => "thread_name",
            "args" => json_obj! { "name" => track },
        });
    }
    for s in spans {
        push(json_obj! {
            "ph" => "X", "pid" => 1u64, "tid" => ids[s.track], "ts" => us(s.start),
            "dur" => s.duration().as_nanos() / 1_000, "cat" => s.track, "name" => s.name.as_str(),
        });
    }
    for e in events {
        let track = e.event.track();
        push(json_obj! {
            "ph" => "i", "pid" => 1u64, "tid" => ids[track], "ts" => us(e.time), "s" => "t",
            "cat" => track, "name" => e.event.name(),
            "args" => json_obj! { "message" => format!("{:?}", e.event) },
        });
    }
    for fl in flows {
        let mut event = json_obj! {
            "ph" => fl.phase.ph(), "pid" => 1u64, "tid" => ids[fl.track], "ts" => us(fl.at),
            "id" => fl.id,
        };
        // "f" (finish) hops carry `"bp":"e"` so the arrow binds to the
        // enclosing slice, matching what chrome://tracing expects.
        if fl.phase.ph() == "f" {
            event.set("bp", "e".into());
        }
        event.set("cat", fl.track.into());
        event.set("name", fl.name.as_str().into());
        push(event);
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use gemini_sim::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = vec![SpanRecord {
            track: "ckpt",
            name: "flush".to_string(),
            start: t(100),
            end: t(250),
        }];
        let events = vec![TimedEvent {
            time: t(300),
            event: TelemetryEvent::CkptCommitted { iteration: 1 },
        }];
        let doc = chrome_trace(&spans, &events, &[]);
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"M\""));
        assert!(doc.contains("\"name\":\"gemini-sim\""));
        assert!(doc.contains("\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":100,\"dur\":150"));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"name\":\"ckpt.committed\""));
        assert!(doc.contains("CkptCommitted { iteration: 1 }"));
        assert!(doc.trim_end().ends_with("]}"));
    }

    #[test]
    fn distinct_tracks_get_distinct_tids() {
        let events = vec![
            TimedEvent {
                time: t(1),
                event: TelemetryEvent::HeartbeatMissed { rank: 0 },
            },
            TimedEvent {
                time: t(2),
                event: TelemetryEvent::RetrievalFinished,
            },
        ];
        let doc = chrome_trace(&[], &events, &[]);
        assert!(doc.contains("\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"kv\"}"));
        assert!(doc.contains("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"recovery\"}"));
    }

    #[test]
    fn empty_inputs_still_form_valid_document() {
        let doc = chrome_trace(&[], &[], &[]);
        assert!(doc.contains("traceEvents"));
        assert!(doc.contains("process_name"));
    }

    #[test]
    fn flow_hops_render_as_arrows_with_shared_ids() {
        use crate::spans::{FlowPhase, FlowRecord};
        let flows = vec![
            FlowRecord {
                track: "incident",
                name: "incident-0".to_string(),
                id: 7,
                at: t(100),
                phase: FlowPhase::Start,
            },
            FlowRecord {
                track: "recovery",
                name: "incident-0".to_string(),
                id: 7,
                at: t(250),
                phase: FlowPhase::Step,
            },
            FlowRecord {
                track: "incident",
                name: "incident-0".to_string(),
                id: 7,
                at: t(400),
                phase: FlowPhase::End,
            },
        ];
        let doc = chrome_trace(&[], &[], &flows);
        assert!(doc.contains("\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":100,\"id\":7"));
        assert!(doc.contains("\"ph\":\"t\",\"pid\":1,\"tid\":1,\"ts\":250,\"id\":7"));
        assert!(doc.contains("\"ph\":\"f\",\"pid\":1,\"tid\":0,\"ts\":400,\"id\":7,\"bp\":\"e\""));
        // Flow tracks get thread-name metadata like any other track.
        assert!(doc.contains("\"args\":{\"name\":\"incident\"}"));
    }
}
