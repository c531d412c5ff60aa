//! The benchmark's own contract: `BENCHMARK.json` names what the runner
//! prints, seeds change inputs but not the metric set, traced runs write
//! well-formed spans and reproduce the untraced fingerprint, and the
//! environment knobs that would change the measurement are refused.

use gtn_perfbench::workload::{Inputs, WorkloadKind};
use gtn_perfbench::{run, Args, Report, E2E_METRICS, LAYER_METRICS};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `"name"` strings of the array under key `section`, and their
/// `"unit"`s where present.
fn names_in(json: &str, section: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                string_field(obj, "name").expect("every entry has a name"),
                string_field(obj, "unit"),
            )
        })
        .collect()
}

fn string_field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = &obj[at + key.len() + 2..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

fn run_once(workload: WorkloadKind, seed: u64, trace: bool, spans: PathBuf) -> Report {
    let args = Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        spans,
    };
    let report = run(&args).expect("benchmark runs");
    assert!(report.correct, "{}", report.lines.join("\n"));
    assert_eq!(report.failed, 0);
    assert!(report.attempted >= 4);
    report
}

fn spans_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn printed(report: &Report) -> Vec<(String, Option<String>)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
        .collect()
}

#[test]
fn benchmark_json_names_the_set_the_runner_prints() {
    let json = benchmark_json();
    let workloads: Vec<String> = names_in(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = WorkloadKind::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
    let e2e = names_in(&json, "end_to_end");
    let layers = names_in(&json, "per_layer");
    assert_eq!(e2e.len(), E2E_METRICS.len());
    assert_eq!(layers.len(), LAYER_METRICS.len());
    for kind in WorkloadKind::ALL {
        let plain = run_once(kind, 7, false, spans_path("unused.jsonl"));
        assert_eq!(printed(&plain), e2e, "{} untraced", kind.name());
        let path = spans_path(&format!("names-{}.jsonl", kind.name()));
        let traced = run_once(kind, 7, true, path);
        assert_eq!(printed(&traced), layers, "{} traced", kind.name());
        // The traced pass simulates exactly what the untraced one does.
        assert_eq!(traced.fingerprint, plain.fingerprint, "{}", kind.name());
        let json_line = plain.json_line();
        assert!(json_line.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, _) in &e2e {
            assert!(
                json_line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_but_not_the_metric_set() {
    for kind in WorkloadKind::ALL {
        assert_ne!(
            Inputs::from_seed(kind, 1),
            Inputs::from_seed(kind, 2),
            "{}",
            kind.name()
        );
        assert_eq!(Inputs::from_seed(kind, 3), Inputs::from_seed(kind, 3));
    }
    let kind = WorkloadKind::AllreduceBulk;
    let a = run_once(kind, 1, false, spans_path("unused.jsonl"));
    let b = run_once(kind, 2, false, spans_path("unused.jsonl"));
    assert_eq!(printed(&a), printed(&b));
    assert_ne!(a.fingerprint, b.fingerprint);
    // Same seed, same simulated results.
    let again = run_once(kind, 1, false, spans_path("unused.jsonl"));
    assert_eq!(a.fingerprint, again.fingerprint);
    let sim = |r: &Report| -> Vec<f64> {
        r.metrics
            .iter()
            .filter(|m| m.name.starts_with("sim_us."))
            .map(|m| m.value)
            .collect()
    };
    assert_eq!(sim(&a), sim(&again));
    assert_ne!(sim(&a), sim(&b));
}

#[test]
fn traced_run_writes_well_formed_spans() {
    let path = spans_path("spans-allreduce.jsonl");
    let report = run_once(WorkloadKind::AllreduceBulk, 3, true, path.clone());
    let text = std::fs::read_to_string(&path).expect("spans written");
    let mut spans = HashMap::new();
    for line in text.lines() {
        let id: u64 = number_field(line, "id").expect("id");
        let parent = number_field(line, "parent");
        let start = number_field(line, "start_ns").expect("start");
        let end = number_field(line, "end_ns").expect("end");
        let trace = string_field(line, "trace").expect("trace");
        let name = string_field(line, "name").expect("name");
        assert!(start <= end, "{line}");
        assert!(
            spans
                .insert(id, (parent, start, end, trace, name))
                .is_none(),
            "duplicate id {id}"
        );
    }
    let count = report
        .metrics
        .iter()
        .find(|m| m.name == "trace.spans")
        .expect("span count")
        .value;
    assert_eq!(spans.len() as f64, count);
    let mut names = HashSet::new();
    for (id, (parent, start, end, trace, name)) in &spans {
        names.insert(name.clone());
        if let Some(p) = parent {
            let (_, ps, pe, ptrace, _) = spans
                .get(p)
                .unwrap_or_else(|| panic!("span {id}: parent {p} missing"));
            assert!(ps <= start && end <= pe, "span {id} outside its parent {p}");
            assert_eq!(trace, ptrace, "span {id} and its parent {p} share a trace");
        }
    }
    for expected in [
        "setup",
        "reference",
        "cluster_new",
        "cell",
        "run_with_config",
        "compare",
        "probes",
        "probe.sim.calendar",
        "probe.mem.copy",
        "probe.nic.trigger",
        "probe.fabric.route",
        "probe.fabric.graph_build",
        "probe.host.schedule",
        "probe.core.cluster_new",
        "probe.core.phi",
    ] {
        assert!(names.contains(expected), "no {expected} span");
    }
}

fn number_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))?;
    let rest = &line[at + key.len() + 3..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

#[test]
fn environment_knobs_are_refused() {
    for knob in gtn_perfbench::FORBIDDEN_ENV {
        let out = Command::new(env!("CARGO_BIN_EXE_gtn-perfbench"))
            .args([
                "--workload",
                "jacobi_halo",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ])
            .env(knob, "1")
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{knob} accepted");
        assert!(out.stdout.is_empty(), "{knob}: printed a result");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("refusing") && err.contains(knob), "{err}");
    }
}
