//! # gtn-core — the GPU-TN programming model and cluster
//!
//! The paper's contribution, assembled: this crate wires the substrates
//! (memory, fabric, NIC, GPU, host CPU) into simulated cluster nodes and
//! exposes the GPU-TN programming model on top.
//!
//! - [`config`] — the Table 2 cluster configuration in one place.
//! - [`cluster`] — the world: per-node CPU + GPU + NIC over a shared
//!   coherent memory pool and a star fabric, with a single deterministic
//!   event loop and an experiment-readable activity log.
//! - [`host_api`] — the Fig. 6 host-side API: `rdma_init`, `trig_put`,
//!   `launch_kern`, mirrored onto host programs.
//! - [`kernel_api`] — the §4.2 kernel-side messaging granularities
//!   (work-item / work-group / kernel / mixed) as planners that pair GPU
//!   trigger stores with matching NIC registrations.
//! - [`observe`] — the namespaced stats registry
//!   ([`observe::ClusterStats`]) that snapshots every component's counters
//!   and stage-latency histograms for reports.
//! - [`scenario`] — the unified scenario vocabulary
//!   ([`scenario::ScenarioParams`] / [`scenario::ScenarioResult`]) the
//!   workload harness drives every evaluation workload through.
//! - [`stall`] — structured diagnostics for runs that wedge: which nodes
//!   are stuck, on what, and what their NICs were still retrying.
//! - [`tenancy`] — multi-tenant serving vocabulary: tenant→trigger-list
//!   partition mapping encoded in tag low bits, and bounded-queue
//!   admission control with conservation-checked shed counters.
//! - [`strategy`] — the names of the four evaluated configurations
//!   (§5.1): CPU, HDN, GDS, GPU-TN.
//! - [`timeline`] — turns the cluster log into Fig. 3/Fig. 8 style latency
//!   decompositions.
//!
//! A workload realizes a strategy with the substrate calls themselves, not
//! through a driver layer: CPU/HDN send and receive over
//! [`gtn_host::mpi::MpiWorld`]; GDS and GPU-TN pre-register
//! [`gtn_nic::nic::NicCommand::TriggeredPut`]s with
//! [`gtn_host::HostProgram::nic_post`]; a GDS launch carries its
//! kernel-boundary doorbell ([`gtn_gpu::KernelLaunch::with_doorbell`]),
//! which [`cluster`] rings after teardown; a GPU-TN kernel fires its
//! triggers mid-execution ([`gtn_gpu::kernel::ProgramBuilder::release_triggers`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod config;
pub mod host_api;
pub mod kernel_api;
pub mod membership;
pub mod observe;
pub mod scenario;
pub mod stall;
pub mod strategy;
pub mod tenancy;
pub mod timeline;

pub use cluster::{Cluster, ClusterResult, LogKind, LogRecord};
pub use config::ClusterConfig;
pub use membership::{DetectorKind, FailureConfig, Liveness, MembershipView, RecoveryPolicy};
pub use observe::ClusterStats;
pub use stall::{BlockedOn, NodeStall, StallReason, StallReport};
pub use strategy::Strategy;
pub use tenancy::{Admission, TenantMap};
