//! # mutsvc-core — the wide-area distribution study
//!
//! Ties the testbed together and reproduces the paper's evaluation:
//!
//! * [`topology`] — the Figure 2 network (three application servers, shaped
//!   100 ms WAN legs through a software router);
//! * [`configs`] — the five configurations of §4 as deployment descriptors;
//! * [`experiment`] — scenario assembly and sweeps;
//! * [`paper`] — the published Tables 6/7 as reference data;
//! * [`report`] — regenerating Tables 6/7 and Figures 7/8, comparing against
//!   the paper, and validating the qualitative shape criteria.
//!
//! ## Example: one cell of Table 6
//!
//! ```no_run
//! use mutsvc_core::{AppKind, Config, Scenario};
//!
//! let report = Scenario::quick(AppKind::PetStore, Config::RemoteFacade).run();
//! let item = report.stats.mean_ms("local", "Browser", "Item").unwrap();
//! println!("local browser Item page: {item:.0} ms");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod experiment;
pub mod faultsuite;
pub mod invariants;
pub mod paper;
pub mod report;
pub mod topology;

pub use configs::{
    petstore_adaptive_baseline, petstore_descriptor_on, rubis_adaptive_baseline,
    rubis_descriptor_on, Config,
};
pub use experiment::{
    adaptive_episode_input, fanout_input, multi_tier_input, run_sweep, AppKind, Scenario,
};
pub use faultsuite::{AdaptiveEpisode, EpisodeTargets, EpisodeView, FaultCase};
pub use invariants::{wan_invariant, WanInvariant};
pub use mutsvc_workload::{MetricsSettings, SloSpec};
pub use report::{
    figure_series, measured_mean, measured_p95, render_comparison, render_figure,
    render_percentiles, render_table, table_cells, validate_shapes, FigureBar,
};
pub use topology::{
    fanout_topology, multi_tier_topology, paper_topology, FanoutNodes, MultiTierNodes,
    MultiTierSpec, PaperNodes,
};
