//! Ring AllGather (§5.4.1's "other collectives" point, made concrete).
//!
//! Each rank contributes chunk `rank` of the vector; after `P−1` rounds of
//! neighbor forwarding every rank holds all `P` contributions. Unlike
//! Allreduce there is no arithmetic at all — every inbound segment is a
//! `Replace`, so the workload isolates the *pure messaging* cost of the
//! four strategies: HDN still pays a kernel boundary per forwarded round,
//! GDS forwards at kernel-boundary doorbells, and GPU-TN's persistent
//! kernel polls the round flag and releases the next trigger with no host
//! involvement.
//!
//! The schedule is [`gtn_host::nbc::ring_allgather`], lowered by the
//! generic [`collective`] executor. Verification is exact: element `j` of
//! chunk `c` on every rank must equal rank `c`'s deterministic input —
//! bit-for-bit, since the payload is only ever copied.

use crate::collective::input_value;
use crate::collective::{self, Collective, CollectiveParams, CollectiveResult};
use crate::harness::{JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::config::ClusterConfig;
use gtn_host::nbc::chunk_range;

/// Run one ring AllGather, panicking on structured failure.
pub fn run_with_config(
    params: CollectiveParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> CollectiveResult {
    collective::run_with_config("allgather", Collective::RingAllgather, params, mutate)
}

/// Run one ring AllGather with structured failure reporting.
pub fn try_run_with_config(
    params: CollectiveParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<CollectiveResult, JobFailure> {
    collective::try_run_with_config("allgather", Collective::RingAllgather, params, mutate)
}

/// Every rank's chunk `c` must be rank `c`'s input, untouched.
fn check_gathered(r: &CollectiveResult, params: &CollectiveParams) -> Result<(), String> {
    for (rank, v) in r.vectors.iter().enumerate() {
        for c in 0..params.nodes {
            let (off, len) = chunk_range(c, params.elems, params.nodes);
            for j in off..off + len {
                let want = input_value(params.seed, c, j);
                if v[j as usize] != want {
                    return Err(format!(
                        "rank {rank} chunk {c} element {j}: got {}, want {want}",
                        v[j as usize]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Ring AllGather as a first-class workload.
#[derive(Debug, Default)]
pub struct Allgather;

impl Workload for Allgather {
    fn name(&self) -> &'static str {
        "allgather"
    }

    fn smoke_scenario(&self, strategy: gtn_core::Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(5)
            .size(16 * 1024)
            .seed(0xBEEF)
    }

    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String> {
        let patch = params.patch;
        let cp = CollectiveParams {
            nodes: params.node_count(),
            elems: params.size,
            strategy: params.strategy,
            seed: params.seed,
        };
        let r = run_with_config(cp, |config| patch.apply(config));
        check_gathered(&r, &cp).map_err(|e| format!("{} {e}", params.strategy))?;
        Ok(r.scenario)
    }

    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        let patch = params.patch;
        let cp = CollectiveParams {
            nodes: params.node_count(),
            elems: params.size,
            strategy: params.strategy,
            seed: params.seed,
        };
        let r = try_run_with_config(cp, |config| patch.apply(config))?;
        check_gathered(&r, &cp).expect("completed allgather run diverges");
        Ok(r.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_core::Strategy;

    #[test]
    fn gather_is_exact_on_ragged_chunks() {
        for strategy in [Strategy::Cpu, Strategy::GpuTn] {
            let cp = CollectiveParams {
                nodes: 5,
                elems: 1001,
                strategy,
                seed: 17,
            };
            let r = run_with_config(cp, |_| {});
            check_gathered(&r, &cp).unwrap();
        }
    }

    #[test]
    fn workload_frame_verifies_the_smoke_scenario() {
        let w = Allgather;
        let p = w.smoke_scenario(Strategy::Gds);
        let scenario = w.verify(&p).expect("smoke verifies");
        assert_eq!(scenario.workload, "allgather");
    }
}
