//! End-to-end and per-layer benchmark of the cluster simulator.
//!
//! One run takes a workload, a seed and a duration. It sets up the
//! workload's inputs and references (several times, reporting the median
//! set-up time), then repeats whole rounds of cells — every input seed x
//! every strategy, one after another on one thread — until the duration is
//! spent. Every cell is checked against the reference and fingerprinted.
//!
//! An untraced run reports the end-to-end metrics. A traced run runs every
//! cell twice, untraced and under spans, then one probe per layer, and
//! reports the per-layer metrics plus the gap between the two passes as
//! tracing overhead. See `README.md` beside this crate.

pub mod probes;
pub mod spans;
pub mod workload;

use gtn_core::{Cluster, ClusterStats, Strategy};
use gtn_mem::MemPool;
use gtn_sim::stats::StatSet;
use gtn_workloads::pingpong;
use spans::Recorder;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use workload::{CellSpec, Inputs, Reference, WorkloadKind};

/// Environment knobs that change what the simulator runs or how; the
/// benchmark refuses to run under any of them.
pub const FORBIDDEN_ENV: [&str; 3] = ["GTN_SIM_SHARDS", "GTN_STRATEGIES", "GTN_BENCH_SMOKE"];

/// Set-up is timed this many times; `setup_s` is the median. The first
/// runs before any cell, the rest are spread evenly over the run so the
/// median sees the same host conditions as the cells do.
pub const SETUP_SAMPLES: usize = 9;

/// Percentiles the tail may be reported at, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples the tail percentile must leave beyond itself.
const TAIL_BEYOND: usize = 10;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const E2E_METRICS: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cell_ms.p50", "ms"),
    ("cell_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_us.cpu", "us"),
    ("sim_us.hdn", "us"),
    ("sim_us.gds", "us"),
    ("sim_us.gpu_tn", "us"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.clamped_past_events", "count"),
    ("sim.calendar_ns_per_event", "ns"),
    ("mem.copy_ns_per_kib", "ns/KiB"),
    ("nic.puts_injected", "count"),
    ("nic.bytes_tx", "B"),
    ("nic.trigger_writes", "count"),
    ("nic.doorbells", "count"),
    ("nic.retransmits", "count"),
    ("nic.acks_tx", "count"),
    ("nic.rx_duplicates", "count"),
    ("nic.retransmit_ratio", "ratio"),
    ("nic.trigger_ns_per_fire", "ns"),
    ("nic.stage_trigger_match_ns.p50", "ns"),
    ("nic.stage_injection_ns.p50", "ns"),
    ("nic.stage_wire_ns.p50", "ns"),
    ("nic.stage_commit_ns.p50", "ns"),
    ("fabric.messages_sent", "count"),
    ("fabric.wire_bytes", "B"),
    ("fabric.max_link_bytes", "B"),
    ("fabric.messages_judged", "count"),
    ("fabric.drops", "count"),
    ("fabric.route_ns_per_hop", "ns"),
    ("fabric.graph_build_ms", "ms"),
    ("gpu.kernels_completed", "count"),
    ("gpu.trigger_stores", "count"),
    ("gpu.poll_retries", "count"),
    ("gpu.poll_hit_ratio", "ratio"),
    ("gpu.launch_latency_ns.p50", "ns"),
    ("host.sends_posted", "count"),
    ("host.kernel_launches", "count"),
    ("host.poll_hit_ratio", "ratio"),
    ("host.poll_wait_ns.p50", "ns"),
    ("host.schedule_build_us", "us"),
    ("core.cluster_new_ms", "ms"),
    ("core.phi_eval_ns", "ns"),
    ("workloads.run_ms", "ms"),
    ("workloads.reference_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.cell_ms.p50", "ms"),
    ("trace.untraced_cell_ms.p50", "ms"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; at least one whole round always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--spans <path>]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
            (None, None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(WorkloadKind::parse(&value).ok_or_else(|| {
                        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?}; expected one of {names:?}")
                    })?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(format!("--seconds must be in [0, 3600], got {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        let seed = seed.ok_or("missing --seed")?;
        let spans = spans.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-{seed}.jsonl", workload.name()))
        });
        Ok(Args {
            workload,
            seed,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            spans,
        })
    }
}

/// Refuse to run when an environment knob would change the measurement.
pub fn check_env() -> Result<(), String> {
    let set: Vec<&str> = FORBIDDEN_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration; unset it",
            set.join(", ")
        ))
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Every cell passed the correctness gate and matched its fingerprint.
    pub correct: bool,
    /// Cells run.
    pub attempted: u64,
    /// Cells that failed the gate or the fingerprint.
    pub failed: u64,
    /// The run's metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Digest of the first round's simulated results.
    pub fingerprint: u64,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no infinity: a failed cell's latency prints as the
            // largest finite double, which misses any bound.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// What a finished set-up hands to the cells.
struct Setup {
    inputs: Inputs,
    references: Vec<Reference>,
}

/// Derive the inputs, build every reference and one cluster of the
/// workload's shape (validating the config and building its fabric graph).
fn setup(kind: WorkloadKind, seed: u64, rec: &mut Recorder, trace: &str) -> Setup {
    rec.span(trace, "setup", None, |rec, id| {
        let inputs = Inputs::from_seed(kind, seed);
        let references = (0..inputs.data_seeds.len())
            .map(|d| rec.span(trace, "reference", Some(id), |_, _| inputs.reference(d)))
            .collect();
        let config = inputs.cluster_config();
        rec.span(trace, "cluster_new", Some(id), |_, _| {
            let n = config.n_nodes;
            let programs = (0..n).map(|_| gtn_host::HostProgram::new()).collect();
            std::hint::black_box(Cluster::new(config, MemPool::new(n as usize), programs).now());
        });
        Setup { inputs, references }
    })
}

/// [`setup`], timed into `samples` (and spanned as `setup-<n>`).
fn timed_setup(kind: WorkloadKind, seed: u64, rec: &mut Recorder, samples: &mut Vec<f64>) -> Setup {
    let t = Instant::now();
    let state = setup(kind, seed, rec, &format!("setup-{}", samples.len()));
    samples.push(t.elapsed().as_secs_f64());
    state
}

/// What the benchmark keeps from one cell.
struct CellRecord {
    spec: CellSpec,
    ok: Result<(), String>,
    host_ms: f64,
    fingerprint: u64,
    total_ps: u64,
    stats: ClusterStats,
}

/// Run, check and fingerprint one cell, under span `cell` when `rec`
/// records.
fn run_one(setup: &Setup, spec: CellSpec, rec: &mut Recorder, trace: &str) -> CellRecord {
    let start = Instant::now();
    let record = rec.span(trace, "cell", None, |rec, id| {
        let out = rec.span(trace, "run_with_config", Some(id), |_, _| {
            workload::run_cell(&setup.inputs, spec)
        });
        match out {
            Ok(out) => {
                let ok = rec.span(trace, "compare", Some(id), |_, _| {
                    workload::check(&out, &setup.references[spec.data])
                });
                CellRecord {
                    spec,
                    ok,
                    host_ms: 0.0,
                    fingerprint: workload::fingerprint(spec, &out),
                    total_ps: out.total_ps,
                    stats: out.stats,
                }
            }
            Err(e) => CellRecord {
                spec,
                ok: Err(e),
                host_ms: 0.0,
                fingerprint: 0,
                total_ps: 0,
                stats: ClusterStats::new(),
            },
        }
    });
    CellRecord {
        host_ms: start.elapsed().as_secs_f64() * 1e3,
        ..record
    }
}

/// Bookkeeping across a run's cells.
struct Tally {
    first: Vec<CellRecord>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Count `rec` (cell `index` of round `round`). Later rounds must
    /// reproduce the first round's fingerprint exactly.
    fn add(&mut self, round: usize, index: usize, mut rec: CellRecord) -> f64 {
        self.attempted += 1;
        if round > 0 && rec.ok.is_ok() && rec.fingerprint != self.first[index].fingerprint {
            rec.ok = Err(format!(
                "fingerprint {:016x} differs from round 0's {:016x}",
                rec.fingerprint, self.first[index].fingerprint
            ));
        }
        let host_ms = match &rec.ok {
            Ok(()) => rec.host_ms,
            Err(e) => {
                self.fail(format!(
                    "cell {index} round {round} ({} data={} loss={:?}): {e}",
                    rec.spec.strategy.name(),
                    rec.spec.data,
                    rec.spec.loss_seed
                ));
                // A failed cell misses every latency bound.
                f64::INFINITY
            }
        };
        if round == 0 {
            self.first.push(rec);
        }
        host_ms
    }

    /// Count a failure; the first few are kept for the report.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for r in &self.first {
            bytes.extend_from_slice(&r.fingerprint.to_le_bytes());
        }
        workload::fnv1a(&bytes)
    }
}

/// Nearest-rank percentile of sorted `v`, with how many samples lie beyond.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    (sorted[idx], n - 1 - idx)
}

/// Median; NaN (printed as a missed bound) when nothing was measured.
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0).0
}

/// Run the benchmark.
pub fn run(args: &Args) -> Result<Report, String> {
    check_env()?;
    let kind = args.workload;
    let mut lines = Vec::new();
    let mut rec = Recorder::new(args.trace);
    let mut off = Recorder::new(false);

    let mut setup_s = Vec::new();
    let setup_state = timed_setup(kind, args.seed, &mut rec, &mut setup_s);
    let cells = setup_state.inputs.cells();
    lines.push(format!(
        "workload {} seed {}: {} nodes, size {}, iters {}, {} cells per round ({} data seeds, {} loss seeds x 4 strategies)",
        kind.name(),
        args.seed,
        kind.nodes(),
        setup_state.inputs.size,
        setup_state.inputs.iters,
        cells.len(),
        setup_state.inputs.data_seeds.len(),
        setup_state.inputs.loss_seeds.len().max(1),
    ));

    let mut tally = Tally {
        first: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut cell_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_events = 0u64;
    let start = Instant::now();
    // Cells run in whole groups of the four strategies, and the first round
    // always completes: its results are the run's simulated metrics and the
    // fingerprint later rounds must match.
    let groups_per_round = cells.len() / Strategy::all().len();
    let mut k = 0;
    while k < cells.len()
        || k % Strategy::all().len() != 0
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let due = args.seconds * setup_s.len() as f64 / SETUP_SAMPLES as f64;
        if k % Strategy::all().len() == 0
            && setup_s.len() < SETUP_SAMPLES
            && start.elapsed().as_secs_f64() >= due
        {
            timed_setup(kind, args.seed, &mut rec, &mut setup_s);
        }
        let (round, i) = (k / cells.len(), k % cells.len());
        let spec = cells[i];
        k += 1;
        if !args.trace {
            let r = run_one(&setup_state, spec, &mut off, "");
            cell_ms.push(tally.add(round, i, r));
            continue;
        }
        // Alternate which pass goes first, from cell to cell and round to
        // round, so neither gets the warmer caches; the untraced pass is the
        // one the fingerprint is taken from.
        let traced_first = (i + round) % 2 == 0;
        let trace_id = format!("cell-{round}-{i}");
        let mut traced = None;
        if traced_first {
            traced = Some(run_one(&setup_state, spec, &mut rec, &trace_id));
        }
        let plain = run_one(&setup_state, spec, &mut off, "");
        let mut traced = traced.unwrap_or_else(|| run_one(&setup_state, spec, &mut rec, &trace_id));
        if traced.ok.is_ok() && traced.fingerprint != plain.fingerprint {
            traced.ok = Err("traced pass fingerprint differs from the untraced pass".into());
        }
        traced_ms.push(traced.host_ms);
        traced_events += traced.stats.counter("engine", "events_processed");
        cell_ms.push(tally.add(round, i, plain));
        tally.attempted += 1;
        if let Err(e) = traced.ok {
            tally.fail(format!("cell {i} round {round} traced pass: {e}"));
        }
    }
    while setup_s.len() < SETUP_SAMPLES {
        timed_setup(kind, args.seed, &mut rec, &mut setup_s);
    }
    let fingerprint = tally.fingerprint();
    lines.push(format!(
        "ran {} strategy groups ({groups_per_round} per round), {} cells in {:.3} s; fingerprint {fingerprint:016x}",
        k / Strategy::all().len(),
        tally.attempted,
        start.elapsed().as_secs_f64()
    ));
    lines.extend(tally.errors.iter().map(|e| format!("FAILED {e}")));
    for strategy in Strategy::all() {
        let ms: Vec<f64> = (0..cell_ms.len())
            .filter(|&k| cells[k % cells.len()].strategy == strategy)
            .map(|k| cell_ms[k])
            .collect();
        lines.push(format!(
            "cell_ms {}: p50 {:.3} ms over {} cells",
            strategy.name(),
            median(&ms),
            ms.len()
        ));
    }
    lines.extend(accuracy_lines());

    let metrics = if args.trace {
        let m = layer_metrics(
            &setup_state,
            &tally.first,
            &mut rec,
            &cell_ms,
            &traced_ms,
            traced_events,
        );
        rec.write_jsonl(&args.spans)
            .map_err(|e| format!("writing spans to {}: {e}", args.spans.display()))?;
        lines.push(format!(
            "wrote {} spans to {}",
            rec.spans().len(),
            args.spans.display()
        ));
        m
    } else {
        let (m, tail_line) = e2e_metrics(&setup_s, &cell_ms, &tally.first)?;
        lines.push(tail_line);
        m
    };
    for m in &metrics {
        lines.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fingerprint,
        lines,
    })
}

/// Simulated completion time, µs, per strategy: the mean over the first
/// round's cells of that strategy (on the lossy workload, over its loss
/// streams).
fn sim_us(first: &[CellRecord], strategy: Strategy) -> f64 {
    let v: Vec<f64> = first
        .iter()
        .filter(|r| r.spec.strategy == strategy)
        .map(|r| r.total_ps as f64 / 1e6)
        .collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn e2e_metrics(
    setup_s: &[f64],
    cell_ms: &[f64],
    first: &[CellRecord],
) -> Result<(Vec<Metric>, String), String> {
    let mut sorted = cell_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| percentile(&sorted, p).1 >= TAIL_BEYOND)
        .unwrap_or(50.0);
    let tail_line = format!(
        "cell_ms.tail is p{tail_p} of {} cells ({} beyond it)",
        sorted.len(),
        percentile(&sorted, tail_p).1
    );
    let values = [
        median(setup_s),
        percentile(&sorted, 50.0).0,
        percentile(&sorted, tail_p).0,
        peak_rss_mb()?,
        sim_us(first, Strategy::Cpu),
        sim_us(first, Strategy::Hdn),
        sim_us(first, Strategy::Gds),
        sim_us(first, Strategy::GpuTn),
    ];
    let metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Ok((metrics, tail_line))
}

/// Peak resident set of this process, MB, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-layer metrics: counters averaged over the first round's cells,
/// simulated-stage medians over all of them, host times from the traced
/// pass's spans, and one probe per layer.
fn layer_metrics(
    setup: &Setup,
    first: &[CellRecord],
    rec: &mut Recorder,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    traced_events: u64,
) -> Vec<Metric> {
    let cells = first.len().max(1) as f64;
    let sum = |f: &dyn Fn(&ClusterStats) -> u64| -> f64 {
        first.iter().map(|r| f(&r.stats) as f64).sum()
    };
    let mean = |f: &dyn Fn(&ClusterStats) -> u64| -> f64 { sum(f) / cells };
    let nic = |name: &'static str| move |s: &ClusterStats| s.counter_across("nic", name);
    let gpu = |name: &'static str| move |s: &ClusterStats| s.counter_across("gpu", name);
    let cpu = |name: &'static str| move |s: &ClusterStats| s.counter_across("cpu", name);
    let fabric = |name: &'static str| move |s: &ClusterStats| s.counter("fabric", name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let merged = |suffix: &str| {
        let mut out = StatSet::new();
        for r in first {
            out.absorb(&r.stats.merged(suffix));
        }
        out
    };
    let p50_ns =
        |set: &StatSet, name: &str| set.histogram(name).map_or(0.0, |h| h.median().as_ns_f64());
    let (nic_set, gpu_set, cpu_set) = (merged("nic"), merged("gpu"), merged("cpu"));

    let events = |s: &ClusterStats| s.counter("engine", "events_processed");
    let mean_events = mean(&events);
    let max_of =
        |f: &dyn Fn(&ClusterStats) -> u64| first.iter().map(|r| f(&r.stats)).max().unwrap_or(0);
    let run_ns: f64 = rec
        .durations("run_with_config")
        .iter()
        .map(|&d| d as f64)
        .sum();
    let ns_per_event = ratio(run_ns, traced_events as f64);

    // The probes, each under its own span.
    let kind = setup.inputs.kind;
    let nodes = kind.nodes();
    let config = setup.inputs.cluster_config();
    let msg = kind.message_bytes(&setup.inputs);
    let bytes_tx = mean(&nic("bytes_tx")) as u64;
    let fires = max_of(&nic("trigger_writes"));
    let probe = rec.span("probes", "probes", None, |rec, id| {
        let mut p = |name: &'static str, f: &dyn Fn() -> f64| {
            rec.span("probes", name, Some(id), |_, _| f())
        };
        [
            p("probe.sim.calendar", &|| {
                probes::calendar_ns_per_event(mean_events as u64)
            }),
            p("probe.mem.copy", &|| probes::copy_ns_per_kib(msg, bytes_tx)),
            p("probe.nic.trigger", &|| probes::trigger_ns_per_fire(fires)),
            p("probe.fabric.route", &|| {
                probes::route_ns_per_hop(kind.topology(), nodes)
            }),
            p("probe.fabric.graph_build", &|| {
                probes::graph_build_ms(kind.topology(), nodes)
            }),
            p("probe.host.schedule", &|| {
                probes::schedule_build_us(kind.schedule(), nodes)
            }),
            p("probe.core.cluster_new", &|| {
                probes::cluster_new_ms(&config)
            }),
            p("probe.core.phi", &|| probes::phi_eval_ns(nodes, 64)),
        ]
    });
    let [calendar, copy, trigger, route, graph_build, schedule, cluster_new, phi] = probe;

    let ms = |name: &str| {
        median(
            &rec.durations(name)
                .iter()
                .map(|&d| d as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let traced_p50 = median(traced_ms);
    let untraced_p50 = median(untraced_ms);
    let retransmits = sum(&nic("retransmits"));
    let values: [f64; 44] = [
        mean_events,
        ns_per_event,
        mean(&|s| s.counter("engine", "clamped_past_events")),
        calendar,
        copy,
        mean(&nic("puts_injected")),
        mean(&nic("bytes_tx")),
        mean(&nic("trigger_writes")),
        mean(&nic("doorbells")),
        mean(&nic("retransmits")),
        mean(&nic("acks_tx")),
        mean(&nic("rx_duplicates")),
        ratio(retransmits, sum(&nic("puts_injected"))),
        trigger,
        p50_ns(&nic_set, "stage_trigger_match"),
        p50_ns(&nic_set, "stage_injection"),
        p50_ns(&nic_set, "stage_wire"),
        p50_ns(&nic_set, "stage_commit"),
        mean(&fabric("messages_sent")),
        mean(&fabric("wire_bytes")),
        mean(&fabric("max_link_bytes")),
        mean(&fabric("messages_judged")),
        mean(&fabric("drops")),
        route,
        graph_build,
        mean(&gpu("kernels_completed")),
        mean(&gpu("trigger_stores")),
        mean(&gpu("poll_retries")),
        ratio(
            sum(&gpu("poll_hits")),
            sum(&gpu("poll_hits")) + sum(&gpu("poll_retries")),
        ),
        p50_ns(&gpu_set, "launch_latency"),
        mean(&cpu("sends_posted")),
        mean(&cpu("kernel_launches")),
        ratio(
            sum(&cpu("poll_hits")),
            sum(&cpu("poll_hits")) + sum(&cpu("poll_retries")),
        ),
        p50_ns(&cpu_set, "poll_wait"),
        schedule,
        cluster_new,
        phi,
        ms("run_with_config"),
        ms("reference"),
        ms("compare"),
        ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
        traced_p50,
        untraced_p50,
        // Counted before the file is written; the probes' own spans are in.
        rec.spans().len() as f64,
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Simulated single-message target latency next to the paper's Fig. 8
/// values: context for the simulated numbers, not gated.
fn accuracy_lines() -> Vec<String> {
    let paper = [
        (Strategy::Hdn, 4.21),
        (Strategy::Gds, 3.76),
        (Strategy::GpuTn, 2.71),
    ];
    paper
        .iter()
        .map(|&(strategy, paper_us)| {
            let sim = pingpong::run_any(strategy).target_completion.as_us_f64();
            format!(
                "accuracy pingpong {}: simulated {sim:.3} us, paper Fig. 8 {paper_us:.2} us, error {:+.1}%",
                strategy.name(),
                (sim - paper_us) / paper_us * 100.0
            )
        })
        .collect()
}
