//! Regression: the one-sided ring Allreduce stays exact under packet loss.
//!
//! Under loss the ARQ layer delays retransmitted chunks, so a GDS or GPU-TN
//! ring sender can run up to `P−1` rounds ahead of its receiver. Each
//! round's put must land in a staging span of its own; a small ring of
//! reused staging slots lets a run-ahead chunk overwrite one that has not
//! been folded yet, and the run completes `Ok` with a wrong sum.

use gpu_tn::core::scenario::ConfigPatch;
use gpu_tn::core::Strategy;
use gpu_tn::workloads::allreduce::{self, AllreduceParams};

#[test]
fn one_sided_ring_allreduce_is_exact_under_loss() {
    let (elems, seed) = (64 * 1024, 7);
    for nodes in [6u32, 8, 12] {
        let expect = allreduce::reference(nodes, elems, seed);
        for loss_seed in 1..=5 {
            let patch = ConfigPatch::loss(loss_seed, 0.02);
            for strategy in [Strategy::Gds, Strategy::GpuTn] {
                let params = AllreduceParams::new(nodes, elems, strategy, seed);
                let r = allreduce::try_run_with_config(params, |c| patch.apply(c))
                    .unwrap_or_else(|f| panic!("{strategy} P={nodes} loss seed {loss_seed}: {f}"));
                assert!(
                    r.result == expect,
                    "{strategy} P={nodes} loss seed {loss_seed}: wrong Allreduce result"
                );
            }
        }
    }
}
