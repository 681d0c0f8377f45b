//! Observability for the GEMINI reproduction: typed events, simulated-time
//! metrics and trace-viewer export.
//!
//! The simulation stack used to explain itself through free-form trace
//! strings ([`gemini_sim::TraceLog`]). This crate replaces that with three
//! structured pillars behind one cheap handle, [`TelemetrySink`]:
//!
//! * **Typed events** — [`TelemetryEvent`] is a closed enum of everything
//!   noteworthy that happens across the stack (checkpoint chunks leaving
//!   the NIC, heartbeats lapsing, leaders being elected, recovery tiers
//!   being hit, policy knobs moving, …), each carrying a
//!   [`gemini_sim::SimTime`] and typed fields. Tests query events
//!   structurally instead of grepping strings.
//! * **Metrics** — [`MetricsRegistry`] holds counters, gauges and
//!   fixed-bucket histograms keyed by `&'static str` names (plus optional
//!   static labels), driven entirely by simulated time. Snapshots export
//!   as JSON and as Prometheus text exposition.
//! * **Spans** — begin/end pairs on the simulation clock, exported as
//!   Chrome trace-event JSON that loads directly into Perfetto /
//!   `chrome://tracing`, with one track per subsystem.
//!
//! It also hosts the workspace's one JSON module, [`json`] (a value type
//! with its reader and writer), which every crate that reads or writes
//! JSON uses.
//!
//! # Zero cost when disabled
//!
//! [`TelemetrySink::disabled`] carries no allocation at all (`Option` is
//! `None`); every recording method takes its payload through a closure
//! that is **never evaluated** on a disabled sink, mirroring `TraceLog`'s
//! contract. Instrumented hot paths therefore cost one branch when
//! telemetry is off.
//!
//! # Determinism
//!
//! All storage iterates in `BTreeMap` order and all exporters format
//! integers (or `f64` via Rust's shortest-roundtrip `Display`), so two
//! runs of the same seeded simulation produce byte-identical exports —
//! guarded by `tests/integration_determinism.rs` at the workspace root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod incident;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod sink;
pub mod spans;

pub use event::{FailureClass, TelemetryEvent, Tier, TimedEvent};
pub use incident::{
    CausalEvent, CausalKind, FlightRecorder, Phase, PolicySignalsSnapshot, DEFAULT_FLIGHT_CAPACITY,
};
pub use metrics::{intern_label, FixedHistogram, Key, MetricsRegistry, DEFAULT_TIME_BOUNDS_US};
pub use probe::EngineTelemetryProbe;
pub use sink::{SpanHandle, TelemetrySink};
pub use spans::{FlowPhase, FlowRecord, SpanRecord};
