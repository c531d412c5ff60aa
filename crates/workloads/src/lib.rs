//! # gtn-workloads — the paper's evaluation suite
//!
//! One module per experiment family, each driving full clusters through
//! [`gtn_core::Cluster`] and verifying *functional* results (payload bytes,
//! stencil values, reduction sums) alongside the timing measurements the
//! figures report:
//!
//! - [`launch_study`] — Fig. 1: kernel launch latency vs. queued commands
//!   on three GPU scheduler profiles.
//! - [`pingpong`] — Fig. 8: single-message latency decomposition for HDN,
//!   GDS, and GPU-TN, including the intra-kernel early-delivery phenomenon.
//! - [`jacobi`] — Fig. 9: 2-D Jacobi relaxation on a 2×2 node decomposition
//!   with halo exchange, all four strategies, verified against a sequential
//!   reference sweep.
//! - [`allreduce`] — Fig. 10: 8 MB ring Allreduce strong scaling, 2–32
//!   nodes, verified against the exact elementwise sum. The ring and the
//!   tree (variant 1) and hierarchical (variant 2 / `allreduce_hier`)
//!   variants are all lowered by the generic [`collective`] executor.
//! - [`allgather`] — ring AllGather: the pure-messaging collective, every
//!   inbound segment a copy, verified element-exact.
//! - [`deeplearning`] — Table 3 + Fig. 11: the six CNTK workloads as
//!   Allreduce-characteristic models, projected with the paper's
//!   methodology over simulated collective times.
//!
//! The [`serving`] module is the production counterpart: an open-loop,
//! trace-driven multi-tenant serving workload (pingpong-style RPCs plus
//! small collectives) with seeded Poisson / bounded-Pareto arrivals,
//! per-tenant trigger-list partitions, admission-control shedding, and
//! p50/p99/p99.9 + goodput SLO reporting.
//!
//! The [`chaos`] module is the robustness counterpart: it runs any of the
//! above under crash-stop injections and interprets the outcome through a
//! recovery policy (abort / checkpoint-restart / rebuild-collective),
//! reporting time-to-detect and recovery cost as data.
//!
//! The [`harness`] module is the shared frame: unified scenario
//! parameters/results, the [`harness::Workload`] trait each experiment
//! implements, and the `GTN_STRATEGIES` strategy filter the benches use.
//! Each workload spells out its strategies' communication itself, on the
//! substrate calls: MPI send/receive ops ([`gtn_host::mpi::MpiWorld`]),
//! NIC posts and triggered-put registrations
//! ([`gtn_host::HostProgram::nic_post`]), GDS doorbells on the kernel
//! launch ([`gtn_gpu::KernelLaunch::with_doorbell`]) and GPU-TN trigger
//! stores ([`gtn_gpu::kernel::ProgramBuilder::release_triggers`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allgather;
pub mod allreduce;
pub mod chaos;
pub mod collective;
pub mod deeplearning;
pub mod harness;
pub mod jacobi;
pub mod launch_study;
pub mod pingpong;
pub mod serving;
