//! The three benchmark workloads: how a seed becomes inputs, how one cell
//! runs through the public `gtn_workloads` entry points, and how its output
//! is checked against the workload's reference.

use gtn_core::membership::{FailureConfig, RecoveryPolicy};
use gtn_core::scenario::ConfigPatch;
use gtn_core::{ClusterConfig, ClusterStats, Strategy};
use gtn_fabric::Topology;
use gtn_sim::rng::SimRng;
use gtn_workloads::collective::{self, Collective, CollectiveParams};
use gtn_workloads::{allreduce, jacobi};
use std::panic::{self, AssertUnwindSafe};

/// Jacobi node grid (Fig. 9 stencil, 4x4 nodes).
const JACOBI_GRID: u32 = 4;
/// Local tile edge: small, so halo bytes are negligible and per-event
/// dispatch dominates host time.
const JACOBI_TILE: u32 = 16;
/// Base sweep count; the seed adds up to 7 more (see [`Inputs::from_seed`]).
const JACOBI_ITERS: u32 = 800;
/// Distinct input grids per run.
const JACOBI_DATA_SEEDS: usize = 2;

/// Ring Allreduce ranks on the paper's star.
const BULK_NODES: u32 = 8;
/// Base vector length: 4 MiB of f32, so payload copies and reductions
/// dominate host time. The seed adds up to 15 KiB elements.
const BULK_ELEMS: u64 = 1 << 20;

/// Halving-doubling ranks on the dragonfly.
const DRAGONFLY_NODES: u32 = 128;
/// Vector length: 32 KiB of f32.
const DRAGONFLY_ELEMS: u64 = 8 * 1024;
/// Seeded per-packet loss rate.
const DRAGONFLY_LOSS: f64 = 0.01;
/// Loss streams per run. Simulated completion time varies by ~10% from one
/// loss stream to the next, so `sim_us.*` is the mean over this many.
const DRAGONFLY_LOSS_SEEDS: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Fig. 9 stencil, small tiles, many sweeps: per-event dispatch bound.
    JacobiHalo,
    /// Fig. 10 ring Allreduce with MB-scale vectors: payload-byte bound.
    AllreduceBulk,
    /// Halving-doubling Allreduce on a 128-node dragonfly with 1% loss,
    /// phi-accrual heartbeats and abort-on-failure: multi-hop and lossy.
    DragonflyLossy,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::JacobiHalo,
        WorkloadKind::AllreduceBulk,
        WorkloadKind::DragonflyLossy,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::JacobiHalo => "jacobi_halo",
            WorkloadKind::AllreduceBulk => "allreduce_bulk",
            WorkloadKind::DragonflyLossy => "dragonfly_lossy",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Participating nodes.
    pub fn nodes(self) -> u32 {
        match self {
            WorkloadKind::JacobiHalo => JACOBI_GRID * JACOBI_GRID,
            WorkloadKind::AllreduceBulk => BULK_NODES,
            WorkloadKind::DragonflyLossy => DRAGONFLY_NODES,
        }
    }

    /// The fabric shape the cells run on.
    pub fn topology(self) -> Topology {
        match self {
            WorkloadKind::DragonflyLossy => Topology::dragonfly_for(DRAGONFLY_NODES as usize),
            _ => Topology::Star,
        }
    }

    /// The collective schedule the workload's traffic follows. Jacobi has
    /// none of its own; its probe builds the ring over its 16 nodes.
    pub fn schedule(self) -> Collective {
        match self {
            WorkloadKind::DragonflyLossy => Collective::RhdAllreduce,
            _ => Collective::RingAllreduce,
        }
    }

    /// Bytes of one typical message: a halo edge, a ring chunk, or the
    /// first halving-doubling exchange (half the vector).
    pub fn message_bytes(self, inputs: &Inputs) -> u64 {
        match self {
            WorkloadKind::JacobiHalo => inputs.size * 4,
            WorkloadKind::AllreduceBulk => inputs.size * 4 / BULK_NODES as u64,
            WorkloadKind::DragonflyLossy => inputs.size * 4 / 2,
        }
    }

    /// The cluster config a cell runs under, after the workload's own
    /// defaults: only the lossy workload overrides anything.
    pub fn patch(self, loss_seed: Option<u64>) -> ConfigPatch {
        match (self, loss_seed) {
            (WorkloadKind::DragonflyLossy, Some(seed)) => ConfigPatch::loss(seed, DRAGONFLY_LOSS)
                .with_topology(self.topology())
                .with_failure(FailureConfig::phi_accrual())
                .with_detection(RecoveryPolicy::Abort),
            _ => ConfigPatch::NONE,
        }
    }
}

/// Everything a run derives from its `--seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The workload.
    pub kind: WorkloadKind,
    /// Jacobi tile edge, or vector elements.
    pub size: u64,
    /// Jacobi sweeps (1 for the collectives).
    pub iters: u32,
    /// Input-data seeds; each gets its own reference.
    pub data_seeds: Vec<u64>,
    /// Fault-plan seeds (lossy workload only).
    pub loss_seeds: Vec<u64>,
}

impl Inputs {
    /// Derive the run's inputs. Besides the data and loss streams, the seed
    /// nudges the problem length (under 0.9% for Jacobi, under 1.5% for the
    /// bulk Allreduce): on a lossless star the simulated time does not depend
    /// on the data, so without this every seed would give the same `sim_us.*`.
    pub fn from_seed(kind: WorkloadKind, seed: u64) -> Self {
        let mut rng = SimRng::seeded(seed ^ 0x7065_7266_6265_6e63);
        let mut draw =
            |n: usize| -> Vec<u64> { (0..n).map(|_| rng.range_u64(0, u64::MAX)).collect() };
        match kind {
            WorkloadKind::JacobiHalo => {
                let data_seeds = draw(JACOBI_DATA_SEEDS);
                let extra = draw(1)[0] % 8;
                Inputs {
                    kind,
                    size: JACOBI_TILE as u64,
                    iters: JACOBI_ITERS + extra as u32,
                    data_seeds,
                    loss_seeds: Vec::new(),
                }
            }
            WorkloadKind::AllreduceBulk => {
                let data_seeds = draw(1);
                let extra = draw(1)[0] % 16;
                Inputs {
                    kind,
                    size: BULK_ELEMS + 1024 * extra,
                    iters: 1,
                    data_seeds,
                    loss_seeds: Vec::new(),
                }
            }
            WorkloadKind::DragonflyLossy => Inputs {
                kind,
                size: DRAGONFLY_ELEMS,
                iters: 1,
                data_seeds: draw(1),
                loss_seeds: draw(DRAGONFLY_LOSS_SEEDS),
            },
        }
    }

    /// One round of cells: every data seed x loss seed x strategy, in a fixed
    /// order. A run repeats whole rounds.
    pub fn cells(&self) -> Vec<CellSpec> {
        let losses: Vec<Option<u64>> = if self.loss_seeds.is_empty() {
            vec![None]
        } else {
            self.loss_seeds.iter().copied().map(Some).collect()
        };
        let mut out = Vec::new();
        for data in 0..self.data_seeds.len() {
            for &loss_seed in &losses {
                for strategy in Strategy::all() {
                    out.push(CellSpec {
                        strategy,
                        data,
                        loss_seed,
                    });
                }
            }
        }
        out
    }

    /// The expected output for data seed `data`.
    pub fn reference(&self, data: usize) -> Reference {
        let seed = self.data_seeds[data];
        let nodes = self.kind.nodes();
        match self.kind {
            WorkloadKind::JacobiHalo => Reference::Grids(jacobi::reference(
                JACOBI_GRID,
                JACOBI_GRID,
                self.size as u32,
                self.iters,
                seed,
            )),
            WorkloadKind::AllreduceBulk => {
                Reference::Vector(allreduce::reference(nodes, self.size, seed))
            }
            WorkloadKind::DragonflyLossy => Reference::Grids(collective::reference(
                self.kind.schedule(),
                nodes,
                self.size,
                seed,
            )),
        }
    }

    /// Table 2 defaults for the workload's node count plus its patch: the
    /// config set-up and the `core` probe build a cluster from (the entry
    /// points' own tweaks, such as the trigger lookup kind, aside).
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::table2(self.kind.nodes());
        config.log_events = false;
        self.kind
            .patch(self.loss_seeds.first().copied())
            .apply(&mut config);
        config
    }
}

/// One cell of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Networking strategy.
    pub strategy: Strategy,
    /// Index into [`Inputs::data_seeds`].
    pub data: usize,
    /// Fault-plan seed, lossy workload only.
    pub loss_seed: Option<u64>,
}

/// A workload's expected output.
#[derive(Debug, Clone)]
pub enum Reference {
    /// Per-node vectors (Jacobi interiors, or every rank's collective
    /// result).
    Grids(Vec<Vec<f32>>),
    /// The one Allreduce result every rank holds.
    Vector(Vec<f32>),
}

/// What one cell's simulation produced, before checking.
#[derive(Debug)]
pub struct CellOutput {
    /// Simulated completion time, ps.
    pub total_ps: u64,
    /// Every component's stats.
    pub stats: ClusterStats,
    /// Messages abandoned after retry exhaustion.
    pub delivery_failures: u64,
    /// The functional output, in the reference's shape.
    pub output: Reference,
}

/// Run one cell through the workload's public entry point. A structured
/// job failure or a panic inside the simulator comes back as `Err`.
pub fn run_cell(inputs: &Inputs, cell: CellSpec) -> Result<CellOutput, String> {
    let kind = inputs.kind;
    let seed = inputs.data_seeds[cell.data];
    let patch = kind.patch(cell.loss_seed);
    let mutate = move |c: &mut ClusterConfig| patch.apply(c);
    let attempt = panic::catch_unwind(AssertUnwindSafe(|| match kind {
        WorkloadKind::JacobiHalo => {
            let params = jacobi::JacobiParams::new(
                JACOBI_GRID,
                JACOBI_GRID,
                inputs.size as u32,
                inputs.iters,
                cell.strategy,
                seed,
            );
            jacobi::try_run_with_config(params, mutate)
                .map(|r| (r.scenario, Reference::Grids(r.interiors)))
        }
        WorkloadKind::AllreduceBulk => {
            let params =
                allreduce::AllreduceParams::new(kind.nodes(), inputs.size, cell.strategy, seed);
            allreduce::try_run_with_config(params, mutate)
                .map(|r| (r.scenario, Reference::Vector(r.result)))
        }
        WorkloadKind::DragonflyLossy => {
            let params = CollectiveParams {
                nodes: kind.nodes(),
                elems: inputs.size,
                strategy: cell.strategy,
                seed,
            };
            collective::try_run_with_config("dragonfly_rhd", kind.schedule(), params, mutate)
                .map(|r| (r.scenario, Reference::Grids(r.vectors)))
        }
    }));
    match attempt {
        Ok(Ok((scenario, output))) => Ok(CellOutput {
            total_ps: scenario.total.as_ps(),
            stats: scenario.stats,
            delivery_failures: scenario.delivery_failures,
            output,
        }),
        Ok(Err(failure)) => Err(format!("job failed: {failure}")),
        Err(payload) => Err(format!("panicked: {}", panic_message(&payload))),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The correctness gate: the output equals the reference bit for bit, no
/// message was abandoned, and no event was scheduled in the past.
pub fn check(out: &CellOutput, reference: &Reference) -> Result<(), String> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let same = match (&out.output, reference) {
        (Reference::Grids(got), Reference::Grids(want)) => {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| bits(g) == bits(w))
        }
        (Reference::Vector(got), Reference::Vector(want)) => bits(got) == bits(want),
        _ => false,
    };
    if !same {
        return Err("output differs from the reference".into());
    }
    if out.delivery_failures != 0 {
        return Err(format!("{} delivery failures", out.delivery_failures));
    }
    let clamped = out.stats.counter("engine", "clamped_past_events");
    if clamped != 0 {
        return Err(format!("{clamped} events clamped from the past"));
    }
    Ok(())
}

/// Digest of everything simulated about a cell: its identity, completion
/// time and every stats counter and histogram (FNV-1a over the stats'
/// deterministic rendering). Host time never enters it.
pub fn fingerprint(cell: CellSpec, out: &CellOutput) -> u64 {
    let text = format!(
        "{}|{}|{:?}|{}|{}",
        cell.strategy.name(),
        cell.data,
        cell.loss_seed,
        out.total_ps,
        out.stats
    );
    fnv1a(text.as_bytes())
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
