//! The workload harness: one parameter vocabulary, one result shape, one
//! execution path for every evaluation workload.
//!
//! The vocabulary types — [`ScenarioParams`], [`ScenarioResult`], and
//! [`ConfigPatch`] — live in [`gtn_core::scenario`] and are re-exported
//! here. This module adds what is workload-shaped:
//!
//! - [`Workload`] — the trait the four workloads implement, which is what
//!   lets one generic invariant test suite (and one strategy-subset bench
//!   filter) drive all of them.
//! - [`Harness`] — cluster execution (build → run → assert completion →
//!   collect) plus the `GTN_STRATEGIES` env filter benches use to run a
//!   strategy subset.

use gtn_core::cluster::Cluster;
use gtn_core::config::ClusterConfig;
use gtn_core::{StallReport, Strategy};
use gtn_host::HostProgram;
use gtn_mem::MemPool;
use std::fmt;

pub use gtn_core::scenario::{ConfigPatch, ResourceLimits, ScenarioParams, ScenarioResult};

/// A run that terminated without completing: the structured diagnosis plus
/// the event cost of finding out. This is the *expected* outcome of a
/// chaos scenario under the `Abort` recovery policy — a crash-stop failure
/// surfaces as data, not as a panic or a hang.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Who is stuck, on what, and why the loop stopped (e.g.
    /// [`gtn_core::StallReason::PeerDead`] naming the culprit).
    pub report: StallReport,
    /// Events the engine processed before giving up (the liveness
    /// contract: bounded, never a hang).
    pub events: u64,
    /// When the failure detector first saw a peer leave `Alive`, sim ns
    /// (`None` when detection is off or nothing was ever suspected). With
    /// the report's termination time this gives the
    /// `injection → suspect → dead` detection-latency timeline.
    pub suspect_ns: Option<u64>,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (after {} events)", self.report, self.events)
    }
}

/// Env var naming a strategy subset for benches, e.g.
/// `GTN_STRATEGIES=hdn,gpu-tn` (comma- or whitespace-separated, any case
/// [`Strategy`]'s `FromStr` accepts). Unset or empty means all four.
pub const STRATEGIES_ENV: &str = "GTN_STRATEGIES";

/// A paper evaluation workload, drivable generically: the invariant test
/// suite and the strategy-filtered benches only speak this trait.
pub trait Workload {
    /// Short name used in results and failure messages.
    fn name(&self) -> &'static str;

    /// The strategies this workload compares (presentation order). The
    /// launch study overrides this — it measures the GPU scheduler, not a
    /// networking strategy.
    fn strategies(&self) -> Vec<Strategy> {
        Strategy::all().to_vec()
    }

    /// A seconds-scale scenario of `strategy` on which this workload's
    /// qualitative orderings (GPU-TN ≤ GDS ≤ HDN) are expected to hold.
    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams;

    /// Run one scenario, returning the unified result. The default runs
    /// the verifying path and panics on a functional mismatch — sim-time
    /// results are identical either way, so only workloads with a cheaper
    /// unverified path need to override.
    fn run_scenario(&self, params: &ScenarioParams) -> ScenarioResult {
        self.verify(params)
            .unwrap_or_else(|e| panic!("{} failed verification: {e}", self.name()))
    }

    /// Run one scenario *and* check functional correctness against the
    /// workload's reference computation, describing any mismatch.
    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String>;

    /// Run one scenario tolerating structured failure: `Ok` carries a
    /// completed (and, where the workload supports it, verified) result;
    /// `Err` carries the [`JobFailure`] of a run the failure detector or
    /// watchdog terminated. A functional mismatch on a *completed* run
    /// still panics — that is a bug, not a failure scenario. The default
    /// covers workloads without crash scenarios (the launch study) by
    /// delegating to the strict path.
    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        Ok(self.run_scenario(params))
    }
}

/// Every [`Workload`] the evaluation drives, in figure order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::launch_study::LaunchStudy),
        Box::new(crate::pingpong::Pingpong),
        Box::new(crate::jacobi::Jacobi),
        Box::new(crate::allreduce::Allreduce),
        Box::new(crate::allreduce::HierAllreduce),
        Box::new(crate::allgather::Allgather),
    ]
}

/// Shared execution and strategy-filter plumbing.
pub struct Harness;

impl Harness {
    /// The strategy sweep benches should run: [`Strategy::all`] unless
    /// the `GTN_STRATEGIES` env var names a subset.
    ///
    /// # Panics
    /// Panics on an unparseable spec (a bench typo should fail loudly,
    /// not silently run the wrong sweep).
    pub fn strategies() -> Vec<Strategy> {
        match std::env::var(STRATEGIES_ENV) {
            Ok(spec) => Self::parse_filter(&spec).expect("invalid GTN_STRATEGIES"),
            Err(_) => Strategy::all().to_vec(),
        }
    }

    /// Parse a strategy-subset spec: comma- or whitespace-separated
    /// [`Strategy`] names, deduplicated and normalized to the
    /// [`Strategy::all`] presentation order. Empty means all four.
    pub fn parse_filter(spec: &str) -> Result<Vec<Strategy>, String> {
        let mut picked = Vec::new();
        for token in spec.split([',', ' ', '\t']).filter(|t| !t.is_empty()) {
            let s: Strategy = token.parse()?;
            if !picked.contains(&s) {
                picked.push(s);
            }
        }
        if picked.is_empty() {
            return Ok(Strategy::all().to_vec());
        }
        Ok(Strategy::all()
            .into_iter()
            .filter(|s| picked.contains(s))
            .collect())
    }

    /// Build the cluster, run it to completion, and snapshot the unified
    /// result. Panics with the rendered [`StallReport`] if the run does
    /// not complete — the failure message reads like a diagnosis, not a
    /// debug dump.
    pub fn execute(
        workload: &'static str,
        params: &ScenarioParams,
        config: ClusterConfig,
        mem: MemPool,
        programs: Vec<HostProgram>,
    ) -> (Cluster, ScenarioResult) {
        match Self::try_execute(workload, params, config, mem, programs) {
            Ok(done) => done,
            Err(failure) => panic!(
                "{workload} {} P={} did not complete\n{failure}",
                params.strategy,
                params.node_count()
            ),
        }
    }

    /// [`Harness::execute`] without the completion assertion: an
    /// uncompleted run comes back as a structured [`JobFailure`] for the
    /// chaos/recovery layers to interpret.
    pub fn try_execute(
        workload: &'static str,
        params: &ScenarioParams,
        config: ClusterConfig,
        mem: MemPool,
        programs: Vec<HostProgram>,
    ) -> Result<(Cluster, ScenarioResult), JobFailure> {
        let mut cluster = Cluster::new(config, mem, programs);
        let result = cluster.run();
        if !result.completed {
            let report = result
                .stall
                .clone()
                .expect("uncompleted runs carry a stall report");
            return Err(JobFailure {
                report,
                events: result.events,
                suspect_ns: cluster.first_suspect().map(|(_, at)| at.as_ps() / 1000),
            });
        }
        let scenario = ScenarioResult::collect(workload, params, &cluster, &result);
        Ok((cluster, scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_filter_accepts_separators_and_normalizes_order() {
        let both = vec![Strategy::Hdn, Strategy::GpuTn];
        assert_eq!(Harness::parse_filter("hdn,gpu-tn").unwrap(), both);
        assert_eq!(Harness::parse_filter("gpu-tn hdn").unwrap(), both);
        assert_eq!(Harness::parse_filter("GPU-TN,\thdn,hdn").unwrap(), both);
    }

    #[test]
    fn parse_filter_empty_means_all() {
        assert_eq!(Harness::parse_filter("").unwrap(), Strategy::all().to_vec());
        assert_eq!(
            Harness::parse_filter(" , ").unwrap(),
            Strategy::all().to_vec()
        );
    }

    #[test]
    fn parse_filter_rejects_unknown_names() {
        assert!(Harness::parse_filter("hdn,warp-drive").is_err());
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_figures() {
        let names: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "launch_study",
                "pingpong",
                "jacobi",
                "allreduce",
                "allreduce_hier",
                "allgather"
            ]
        );
    }
}
