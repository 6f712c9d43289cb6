//! `pro-trace` — structured event tracing and metrics for the PRO
//! simulator.
//!
//! The simulator's argument (like the paper's) rests on measurement: the
//! §II.B stall taxonomy, TB timelines, and warp-progress disparity are all
//! observability artifacts. This crate is the instrumentation substrate:
//!
//! * [`event`] — the typed event schema: warp issue and per-unit stall
//!   attribution, scoreboard set/clear, barrier arrive/release, SIMT
//!   divergence, TB launch/complete, and the full memory-request lifecycle
//!   (coalesce → L1 → MSHR → L2 → DRAM → line fill → load complete) keyed
//!   by request IDs for end-to-end latency.
//! * [`tracer`] — the bus: a [`Tracer`] trait whose no-op implementation
//!   costs one predictable branch on the hot path, a bounded in-memory
//!   [`RingTracer`], a streaming [`JsonlTracer`], and a [`Tee`] combinator.
//! * [`metrics`] — `Copy` fixed-bucket histograms ([`Hist16`]) for embedding
//!   in hot stats structs, and a named end-of-run registry ([`Metrics`])
//!   snapshotted into `RunResult`.
//! * [`prof`] — the same discipline pointed inward: a host-side
//!   wall-clock phase profiler ([`HostProf`]) whose `host/*` output lands
//!   in the registry but stays outside the determinism boundary.
//! * [`chrome`] — Chrome `trace_event` JSON export (Perfetto-loadable).
//! * [`report`] — JSONL → per-kernel stall/latency summaries
//!   (the `trace-report` subcommand).
//! * [`json`] — the minimal zero-dependency JSON writer/parser backing the
//!   exporters and their validation tests.
//!
//! Everything here is dependency-free, keeping the workspace hermetic.
//!
//! # Example
//!
//! ```
//! use pro_trace::{Event, RingTracer, StallReason, Tracer};
//!
//! let mut t = RingTracer::new(1024);
//! // An instrumented component checks `wants` before building the event…
//! if t.wants(pro_trace::EventClass::Stall) {
//!     t.emit(17, &Event::UnitStall { sm: 0, unit: 1, reason: StallReason::Idle });
//! }
//! assert_eq!(t.len(), 1);
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod report;
pub mod tracer;

pub use chrome::chrome_trace;
pub use event::{req_id, ClassSet, Event, EventClass, Record, ReqId, StallReason};
pub use json::Json;
pub use metrics::{Hist16, Metrics};
pub use prof::{HostPhase, HostProf, IssueProf, PhaseTimer};
pub use report::{aggregate, KernelReport};
pub use tracer::{
    count_unit_stalls, mask_of, write_event_jsonl, BufferTracer, JsonlTracer, NoopTracer,
    PanicTracer, RingTracer, Tee, Tracer,
};
