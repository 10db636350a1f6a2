//! HeteroOS — the paper's contribution as a Rust library.
//!
//! This crate implements the policies and simulators of *HeteroOS: OS Design
//! for Heterogeneous Memory Management in Datacenter* (ISCA '17) on top of
//! the workspace's substrates:
//!
//! * [`policy`] — the incremental HeteroOS mechanisms (Table 5) and every
//!   evaluation baseline,
//! * [`config`] — the simulation platform configuration (§5.1 defaults),
//! * [`engine`] — the single-VM epoch engine ([`SingleVmSim`], [`run_app`]),
//! * [`multivm`] — the multi-VM engine with DRF/max-min sharing (Fig 13),
//! * [`cluster`] — the rack-scale layer: many hosts, seeded VM arrivals,
//!   consolidation placement, inter-host pre-copy live migration,
//! * [`adaptive`] — the Eq. 1 tracking-interval controller,
//! * [`metrics`] — [`RunReport`] with the paper's figures of merit,
//! * [`experiments`] — one function per table/figure of the evaluation.
//!
//! # Examples
//!
//! ```no_run
//! use hetero_core::{run_app, Policy, SimConfig};
//! use hetero_workloads::apps;
//!
//! let cfg = SimConfig::paper_default().with_capacity_ratio(1, 4);
//! let report = run_app(&cfg, Policy::HeteroLru, apps::graphchi());
//! let base = run_app(&cfg, Policy::SlowMemOnly, apps::graphchi());
//! println!("gain over SlowMem-only: {:.0}%", report.gain_percent_vs(&base));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod eventq;
pub mod experiments;
pub mod metrics;
pub mod multivm;
pub mod policy;
pub mod snapshot;

pub use cluster::{
    ArrivalMode, ArrivalProcess, Cluster, ClusterOutcome, ClusterReport, ClusterSpec,
    MigrationPolicy, MigrationRecord,
};
pub use config::{SchedMode, SimConfig};
pub use engine::{run_app, SingleVmSim};
pub use eventq::{EngineEvent, EventQueue};
pub use hetero_faults::AuditLevel;
pub use metrics::RunReport;
pub use policy::{Policy, Tracking};
