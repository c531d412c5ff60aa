//! Ring Allreduce (Fig. 2, Fig. 10, §5.4.1).
//!
//! The libNBC-style schedule ([`gtn_host::nbc::ring_allreduce`]) runs
//! `2(P−1)` rounds: a reduce-scatter phase (each round sends a vector chunk
//! to the ring successor, receives one from the predecessor, and folds it
//! in) followed by an allgather phase (fully-reduced chunks circulate).
//! The generic [`collective`] executor lowers it, as
//! [`Collective::RingAllreduce`], onto each strategy the way §5.4.1
//! describes:
//! - **CPU** — sends/recvs via the eager MPI layer, reductions on the CPU.
//! - **HDN** — same messaging; each reduction is its own GPU kernel, so
//!   every round pays the kernel boundary.
//! - **GDS** — puts are pre-registered; a kernel per round whose boundary
//!   doorbell launches the next round's send.
//! - **GPU-TN** — "the entire collective operation is performed from
//!   within a single GPU kernel. The GPU kernel polls on a memory location
//!   to know when an adjacent node has contributed data for the reduction
//!   ... and triggers the GPU to send data for the next phase."
//!
//! This module adds the ring's own verification: results are checked
//! against the exact ring-order chain sum (bit-exact f32), and all nodes
//! must agree.

use crate::collective::{self, input_value, Collective, CollectiveParams};
use crate::harness::{JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::config::ClusterConfig;
use gtn_core::Strategy;
use gtn_host::nbc::chunk_range;
use gtn_mem::view::f32s;

/// Parameters of one Allreduce run.
#[derive(Debug, Clone, Copy)]
pub struct AllreduceParams {
    /// Participating nodes (Fig. 10 sweeps 2..=32).
    pub nodes: u32,
    /// Elements of the f32 vector (Fig. 10: 8 MB = 2 Mi elements).
    pub elems: u64,
    /// Strategy.
    pub strategy: Strategy,
    /// Seed for the input vectors.
    pub seed: u64,
}

impl AllreduceParams {
    /// Assemble params field-by-field.
    pub fn new(nodes: u32, elems: u64, strategy: Strategy, seed: u64) -> Self {
        AllreduceParams {
            nodes,
            elems,
            strategy,
            seed,
        }
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct AllreduceResult {
    /// The unified result; its `total` is the completion time of the
    /// slowest node (the Fig. 10 quantity).
    pub scenario: ScenarioResult,
    /// Final vector of node 0 (all nodes are asserted identical).
    pub result: Vec<f32>,
}

/// Exact expected result: for chunk `c`, the partial starts at rank `c`
/// and folds ranks `c+1, c+2, …` in ring order (`acc = v_j + acc`),
/// matching the distributed arithmetic bit-for-bit.
pub fn reference(nodes: u32, elems: u64, seed: u64) -> Vec<f32> {
    let ranks: Vec<u32> = (0..nodes).collect();
    reference_ranks(&ranks, elems, seed)
}

/// [`reference()`] over an explicit rank list: position `k` of the ring
/// contributes rank `ranks[k]`'s input vector. The rebuild-collective
/// recovery policy verifies its survivor ring against this — the dead
/// rank's contribution is (correctly) absent.
pub fn reference_ranks(ranks: &[u32], elems: u64, seed: u64) -> Vec<f32> {
    let p = ranks.len() as u32;
    let mut out = vec![0f32; elems as usize];
    for c in 0..p {
        let (off, len) = chunk_range(c, elems, p);
        for j in off..off + len {
            let mut acc = input_value(seed, ranks[c as usize], j);
            for step in 1..p {
                let pos = (c + step) % p;
                acc += input_value(seed, ranks[pos as usize], j);
            }
            out[j as usize] = acc;
        }
    }
    out
}

/// Run one configuration with the default (lossless) cluster config.
pub fn run(params: AllreduceParams) -> AllreduceResult {
    run_with_config(params, |_| {})
}

/// Run one configuration, applying `mutate` to the cluster config after
/// the workload's defaults are set (fault-injection studies hook in here).
pub fn run_with_config(
    params: AllreduceParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> AllreduceResult {
    run_inner(params, None, mutate)
        .unwrap_or_else(|failure| panic!("allreduce did not complete\n{failure}"))
}

/// [`run_with_config`] with structured failure: a run the failure detector
/// or watchdog terminated comes back as `Err(JobFailure)`.
pub fn try_run_with_config(
    params: AllreduceParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    run_inner(params, None, mutate)
}

/// Run a rebuilt ring: `params.nodes` positions whose inputs are the
/// original vectors of `ranks` (so a `p−1`-node ring of survivors reduces
/// exactly the surviving contributions). `ranks.len()` must equal
/// `params.nodes`. Verify against [`reference_ranks`] with the same list.
pub fn run_with_ranks(
    params: AllreduceParams,
    ranks: &[u32],
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    run_inner(params, Some(ranks), mutate)
}

fn run_inner(
    params: AllreduceParams,
    ranks: Option<&[u32]>,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    let cparams = CollectiveParams {
        nodes: params.nodes,
        elems: params.elems,
        strategy: params.strategy,
        seed: params.seed,
    };
    let (cluster, scenario, vecs) = collective::execute(
        "allreduce",
        Collective::RingAllreduce,
        cparams,
        ranks,
        mutate,
    )?;

    // All nodes must agree (f32 `==`, compared in place); return node 0's
    // vector.
    let mem = cluster.mem();
    let v0 = mem.read_f32s(vecs[0], params.elems as usize);
    for (node, &vec) in vecs.iter().enumerate().skip(1) {
        assert!(
            f32s(mem.read(vec, params.elems * 4)).eq(v0.iter().copied()),
            "node {node} disagrees with node 0"
        );
    }

    Ok(AllreduceResult {
        scenario,
        result: v0,
    })
}

/// The [`collective`] schedule family behind a non-zero scenario variant.
fn variant_kind(variant: u32) -> Collective {
    match variant {
        1 => Collective::TreeAllreduce,
        2 => Collective::HierAllreduce { group_size: 0 },
        v => panic!("unknown allreduce variant {v}"),
    }
}

fn collective_params(params: &ScenarioParams) -> CollectiveParams {
    CollectiveParams {
        nodes: params.node_count(),
        elems: params.size,
        strategy: params.strategy,
        seed: params.seed,
    }
}

/// Strict verification of a collective-executor variant: every rank must
/// reproduce the lock-step replay bit-for-bit.
fn verify_variant(name: &'static str, params: &ScenarioParams) -> Result<ScenarioResult, String> {
    let patch = params.patch;
    let kind = variant_kind(params.variant);
    let r = collective::run_with_config(name, kind, collective_params(params), |config| {
        patch.apply(config)
    });
    let expect = collective::reference(kind, params.node_count(), params.size, params.seed);
    for (rank, v) in r.vectors.iter().enumerate() {
        if v != &expect[rank] {
            return Err(format!(
                "{} rank {rank} diverges from the lock-step replay",
                params.strategy
            ));
        }
    }
    Ok(r.scenario)
}

/// Lenient run of a collective-executor variant: structured failures pass
/// through, completed runs must still be bit-exact.
fn run_variant_lenient(
    name: &'static str,
    params: &ScenarioParams,
) -> Result<ScenarioResult, JobFailure> {
    let patch = params.patch;
    let kind = variant_kind(params.variant);
    let r = collective::try_run_with_config(name, kind, collective_params(params), |config| {
        patch.apply(config)
    })?;
    let expect = collective::reference(kind, params.node_count(), params.size, params.seed);
    for (rank, v) in r.vectors.iter().enumerate() {
        assert_eq!(v, &expect[rank], "completed {kind:?} run diverges");
    }
    Ok(r.scenario)
}

/// Fig. 10's workload, adapted to the shared [`Workload`] frame.
///
/// All three variants run through the [`collective`] executor: variant 0
/// (the default, Fig. 10) is its ring schedule, checked against the
/// ring-order chain sum of [`reference()`]; variant 1 runs the
/// binomial-tree schedule and variant 2 the hierarchical schedule, each
/// checked against the executor's lock-step replay.
#[derive(Debug, Default)]
pub struct Allreduce;

impl Workload for Allreduce {
    fn name(&self) -> &'static str {
        "allreduce"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(5)
            .size(64 * 1024)
            .seed(0xBEEF)
    }

    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String> {
        if params.variant != 0 {
            return verify_variant(self.name(), params);
        }
        let patch = params.patch;
        let r = run_with_config(
            AllreduceParams {
                nodes: params.node_count(),
                elems: params.size,
                strategy: params.strategy,
                seed: params.seed,
            },
            |config| patch.apply(config),
        );
        let expect = reference(params.node_count(), params.size, params.seed);
        if r.result != expect {
            return Err(format!(
                "{} ring sum diverges from the sequential reference",
                params.strategy
            ));
        }
        Ok(r.scenario)
    }

    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        if params.variant != 0 {
            return run_variant_lenient(self.name(), params);
        }
        let patch = params.patch;
        let r = try_run_with_config(
            AllreduceParams {
                nodes: params.node_count(),
                elems: params.size,
                strategy: params.strategy,
                seed: params.seed,
            },
            |config| patch.apply(config),
        )?;
        let expect = reference(params.node_count(), params.size, params.seed);
        assert_eq!(r.result, expect, "completed allreduce run diverges");
        Ok(r.scenario)
    }
}

/// The hierarchical (group-then-leader-ring) Allreduce as a first-class
/// workload: intra-group binomial reduce, ring Allreduce among the group
/// leaders, intra-group broadcast. Smoke uses 8 nodes in groups of 2 so
/// every phase — including a leader ring wider than two — is exercised.
#[derive(Debug, Default)]
pub struct HierAllreduce;

impl Workload for HierAllreduce {
    fn name(&self) -> &'static str {
        "allreduce_hier"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(8)
            .size(4 * 1024)
            .seed(0xBEEF)
            .variant(2)
    }

    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String> {
        assert_eq!(params.variant, 2, "allreduce_hier is variant 2");
        verify_variant(self.name(), params)
    }

    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        assert_eq!(params.variant, 2, "allreduce_hier is variant 2");
        run_variant_lenient(self.name(), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(strategy: Strategy, nodes: u32, elems: u64) -> AllreduceParams {
        AllreduceParams::new(nodes, elems, strategy, 0xBEEF)
    }

    fn total_us(p: AllreduceParams) -> f64 {
        run(p).scenario.total.as_us_f64()
    }

    #[test]
    fn ragged_chunks_and_edge_node_counts_work() {
        // 5 nodes, 1001 elements: chunks of 201/200/200/200/200 — and the
        // 2-node minimum.
        for (nodes, elems, seed) in [(5u32, 1001u64, 1u64), (2, 512, 3)] {
            let expect = reference(nodes, elems, seed);
            for strategy in [Strategy::Hdn, Strategy::GpuTn] {
                let r = run(AllreduceParams::new(nodes, elems, strategy, seed));
                assert_eq!(r.result, expect, "{strategy} P={nodes}");
            }
        }
    }

    #[test]
    fn gputn_scales_better_than_hdn() {
        // Strong scaling at a small vector (compressed version of the
        // Fig. 10 effect): as nodes grow, HDN's per-round kernel overheads
        // bite and GPU-TN's advantage widens.
        let elems = 64 * 1024; // 256 kB
        let ratio = |p: u32| {
            total_us(params(Strategy::Hdn, p, elems)) / total_us(params(Strategy::GpuTn, p, elems))
        };
        let small = ratio(2);
        let large = ratio(8);
        assert!(
            large > small,
            "advantage should widen: P=2 {small}, P=8 {large}"
        );
        assert!(large > 1.0);
    }

    #[test]
    fn hdn_eventually_loses_to_cpu_while_gputn_does_not() {
        // The Fig. 10 crossover, compressed: with many nodes and small
        // chunks, HDN's kernel-boundary overhead drops it below the CPU
        // baseline; GPU-TN stays ahead.
        let elems = 32 * 1024; // small chunks at P=16
        let cpu = total_us(params(Strategy::Cpu, 16, elems));
        let hdn = total_us(params(Strategy::Hdn, 16, elems));
        let tn = total_us(params(Strategy::GpuTn, 16, elems));
        assert!(hdn > cpu, "HDN {hdn} should fall below CPU {cpu} at scale");
        assert!(tn < cpu, "GPU-TN {tn} should stay ahead of CPU {cpu}");
    }
}
