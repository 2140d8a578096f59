//! # mutsvc-workload — client simulation and experiment driving
//!
//! Reproduces the paper's measurement methodology (§3.3):
//!
//! * client groups co-located with their application servers,
//!   10 requests/s per group, 80 % browsers / 20 % buyers-bidders;
//! * **soft delays**: a session sends its next request a fixed interval
//!   after the previous *send*, so the offered load is independent of
//!   response times;
//! * a warm-up window excluded from statistics, then a measured window;
//! * per-page statistics split by client group and usage pattern — exactly
//!   the axes of Tables 6/7 and Figures 7/8.
//!
//! [`driver::run_experiment`] wires an application, a deployment descriptor
//! and a topology into a deterministic discrete-event run;
//! [`parallel::run_experiment_parallel`] runs the same experiment as
//! independent client-region shards, each to the horizon on its own world
//! replica, and merges their reports exactly (DESIGN.md §6.5); the result
//! is byte-identical at every thread count. The live-migration controller
//! ([`adaptive`], DESIGN.md §6.8) runs on the sequential driver only.
//!
//! With [`spec::MetricsSettings`] armed, a run additionally rolls a
//! windowed metrics [`recorder`](mutsvc_desim::recorder) — per-page
//! response-time histograms, request outcome counters, per-WAN-link
//! traffic, and engine self-profile series — which [`slo::evaluate`]
//! grades against an [`slo::SloSpec`] via window burn rates (DESIGN.md
//! §6.7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod driver;
pub mod parallel;
pub mod slo;
pub mod spec;
pub mod stats;
pub mod trace_report;

pub use adaptive::{
    AdaptiveData, AdaptiveObs, Controller, MigrationOrder, MigrationRecord, MoveKind, RoundRecord,
};
pub use driver::{run_experiment, ExperimentInput, ExperimentReport, MetricsData, ShardProfile};
pub use parallel::run_experiment_parallel;
pub use slo::{evaluate, SloEvent, SloEventKind, SloObjective, SloReport, SloSpec, SloVerdict};
pub use spec::{
    paper_groups, AdaptiveSettings, ClientGroup, FaultPolicy, FaultSettings, MetricsSettings,
    Surge, TraceSettings, WorkloadSpec,
};
pub use stats::{GroupOutcome, SeriesKey, WorkloadStats};
pub use trace_report::{
    chrome_trace_json, jsonl, page_breakdown, validate_chrome_trace, PageTraceRow, TraceData,
};
