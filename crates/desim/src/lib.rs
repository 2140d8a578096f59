//! # mutsvc-desim — deterministic discrete-event simulation kernel
//!
//! The foundation of the Mutable Services wide-area distribution testbed:
//! a minimal, allocation-conscious discrete-event engine with
//!
//! * exact integer [`time`] (microsecond instants/durations),
//! * a typed-event [`sim`] scheduler with deterministic tie-breaking and no
//!   per-event allocation,
//! * analytic multi-server FIFO [`resource`]s (CPUs, link serialization),
//! * seeded, stream-splittable randomness ([`rng`]),
//! * constant-memory streaming [`metrics`] (Welford moments plus a
//!   log-bucketed histogram per series),
//! * windowed time-series [`recorder`]s over the same exactly-mergeable
//!   log-bucketed histograms,
//! * the [`json`] codec every artifact is built, rendered and checked with.
//!
//! Higher layers (network, middleware, applications) are worlds `W` plugged
//! into [`Simulation<W, E>`], each with its own event type `E`. Parallel
//! runs need nothing more from the kernel: the workload crate splits an
//! experiment into independent client-region shards, each one
//! [`Simulation`] on its own thread, and merges their results.
//!
//! ## Example
//!
//! ```
//! use mutsvc_desim::{Context, FifoResource, Fire, SimDuration, Simulation};
//!
//! struct World {
//!     cpu: FifoResource,
//!     completions: Vec<f64>,
//! }
//!
//! /// The model's events: a job arrives at the CPU, or finishes on it.
//! enum Ev {
//!     Arrive,
//!     Done,
//! }
//!
//! impl Fire<World> for Ev {
//!     fn fire(self, w: &mut World, ctx: &mut Context<'_, World, Ev>) {
//!         match self {
//!             Ev::Arrive => {
//!                 let done = w.cpu.admit(ctx.now(), SimDuration::from_millis(10));
//!                 ctx.schedule_event_at(done, Ev::Done);
//!             }
//!             Ev::Done => w.completions.push(ctx.now().as_millis_f64()),
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::with_events(World {
//!     cpu: FifoResource::new("cpu", 2),
//!     completions: Vec::new(),
//! });
//!
//! // Three jobs arrive together on a dual-CPU box: two run at once.
//! for _ in 0..3 {
//!     sim.schedule_event_in(SimDuration::ZERO, Ev::Arrive);
//! }
//! sim.run();
//! assert_eq!(sim.world().completions, vec![10.0, 10.0, 20.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod resource;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use fault::{message_lost, FaultEvent, FaultKind, FaultSchedule};
pub use metrics::{nearest_rank, weighted_mean, Summary, Welford};
pub use recorder::{CounterId, GaugeId, HistId, LogHistogram, Recorder, WindowRow};
pub use resource::FifoResource;
pub use rng::SimRng;
pub use sim::{Context, Fire, QueueDepths, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{
    critical_path, CompletedTrace, PathBreakdown, Span, SpanCtx, SpanKind, TraceMeta, Tracer,
};
