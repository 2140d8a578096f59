//! # mutsvc-netsim — wide-area network emulation
//!
//! Models the paper's testbed network (Figure 2): hosts with multi-CPU
//! queues, a star of shaped links through a software router, and the
//! protocols whose round trips dominate wide-area response times.
//!
//! * [`topology`] — nodes, directed links, latency-shortest routes.
//! * [`network`] — the live network: CPU and link queueing state.
//! * [`protocol`] — TCP / HTTP / RMI / JDBC / JMS cost recipes as
//!   [`Step`] fragments.
//! * [`job`] — the step executor: sequential, parallel (blocking push) and
//!   forked (asynchronous push) request programs, each one shared
//!   `Arc<[Step]>`.
//!
//! ## Example: a remote HTTP request over a 100 ms WAN
//!
//! ```
//! use mutsvc_desim::{Context, Fire, SimDuration, SimTime, Simulation};
//! use mutsvc_netsim::{advance_job, spawn_program, Jobs, JobWorld, NetEvent, Network,
//!                     ProtocolParams, Step, TopologyBuilder};
//!
//! let mut b = TopologyBuilder::new();
//! let client = b.node("client", 1);
//! let router = b.node("router", 1);
//! let server = b.node("server", 2);
//! b.duplex_link(client, router, SimDuration::from_micros(100), 100e6);
//! b.duplex_link(router, server, SimDuration::from_millis(100), 100e6);
//!
//! struct World { net: Network, jobs: Jobs<World>, done_at: Option<SimTime> }
//!
//! /// The world's events: the executor's step boundaries, a request start
//! /// and its completion.
//! enum Ev { Net(NetEvent), Start(Vec<Step>), Done }
//!
//! impl From<NetEvent> for Ev {
//!     fn from(e: NetEvent) -> Ev { Ev::Net(e) }
//! }
//! impl Fire<World> for Ev {
//!     fn fire(self, w: &mut World, ctx: &mut Context<'_, World, Ev>) {
//!         match self {
//!             Ev::Net(NetEvent::Advance { job }) => advance_job(w, ctx, job),
//!             Ev::Start(steps) => spawn_program(w, ctx, steps.into(), Ev::Done, None),
//!             Ev::Done => w.done_at = Some(ctx.now()),
//!         }
//!     }
//! }
//! impl JobWorld for World {
//!     type Event = Ev;
//!     fn network_mut(&mut self) -> &mut Network { &mut self.net }
//!     fn jobs_mut(&mut self) -> &mut Jobs<World> { &mut self.jobs }
//! }
//!
//! let protocols = ProtocolParams::default();
//! let mut steps = protocols.http_request(client, server, 0);
//! steps.push(Step::cpu(server, SimDuration::from_millis(20)));
//! steps.push(protocols.http_response(server, client, 10_000));
//!
//! let mut sim = Simulation::with_events(World {
//!     net: Network::new(b.finalize()),
//!     jobs: Jobs::new(),
//!     done_at: None,
//! });
//! sim.schedule_event_at(SimTime::ZERO, Ev::Start(steps));
//! sim.run();
//!
//! // Two WAN round trips (~400 ms) + 20 ms service + transmission.
//! let ms = sim.world().done_at.unwrap().as_millis_f64();
//! assert!(ms > 420.0 && ms < 430.0, "got {ms}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod network;
pub mod protocol;
pub mod topology;

pub use job::{advance_job, spawn_program, JobId, JobWorld, Jobs, NetEvent, Step};
pub use network::Network;
pub use protocol::ProtocolParams;
pub use topology::{
    LinkId, LinkSpec, NodeId, NodeSpec, Topology, TopologyBuilder, WAN_LATENCY_THRESHOLD,
};
