//! One standalone probe per layer: each times that layer's public functions
//! on traffic sized from a cell's own counters, outside any cluster run.
//! Every probe repeats its measurement [`REPEATS`] times and returns the
//! median.

use gtn_core::{Cluster, ClusterConfig, FailureConfig, MembershipView};
use gtn_fabric::{FabricGraph, Topology};
use gtn_host::HostProgram;
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_nic::{LookupKind, NetOp, Tag, TriggerList};
use gtn_sim::time::{SimDuration, SimTime};
use gtn_sim::Engine;
use gtn_workloads::collective::Collective;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe.
const REPEATS: usize = 5;

/// Calendar events kept pending by the hold model.
const HOLD_DEPTH: u64 = 256;

/// Median host ns of `REPEATS` runs of `f`, divided by `units`.
fn median_ns_per(units: u64, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPEATS / 2] / units.max(1) as f64
}

/// `sim`: host ns per event of `Engine::schedule_at` + `step` in the
/// classic hold model (pop one, schedule one a pseudo-random delay ahead),
/// replayed for `events` events.
pub fn calendar_ns_per_event(events: u64) -> f64 {
    let delays: Vec<u64> = (0..1024u64)
        .map(|i| 50 + (i.wrapping_mul(0x9E37_79B9) >> 7) % 5_000)
        .collect();
    median_ns_per(events, || {
        let mut engine: Engine<u64> = Engine::new();
        for i in 0..HOLD_DEPTH {
            engine.schedule_at(SimTime::from_ns(delays[i as usize]), i);
        }
        for i in 0..events {
            let (now, payload) = engine.step().expect("hold model never drains");
            let delay = SimDuration::from_ns(delays[(i % 1024) as usize]);
            engine.schedule_at(now + delay, black_box(payload));
        }
    })
}

/// `mem`: host ns per KiB for one `MemPool::write` + `copy` + `read` cycle
/// of a `msg_bytes` message, repeated until `total_bytes` have moved.
pub fn copy_ns_per_kib(msg_bytes: u64, total_bytes: u64) -> f64 {
    let msg = msg_bytes.max(1);
    let reps = (total_bytes / msg).max(1);
    let mut mem = MemPool::new(2);
    let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), msg, "probe.src"));
    let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), msg, "probe.dst"));
    let payload: Vec<u8> = (0..msg).map(|i| i as u8).collect();
    let kib = (reps * msg).div_ceil(1024);
    median_ns_per(kib, || {
        for _ in 0..reps {
            mem.write(src, black_box(&payload));
            mem.copy(src, dst, msg);
            black_box(mem.read(dst, msg)[0]);
        }
    })
}

/// `nic`: host ns per fire of `TriggerList::register` + `trigger` with the
/// hash lookup the workloads use, for `fires` distinct tags.
pub fn trigger_ns_per_fire(fires: u64) -> f64 {
    let fires = fires.max(1);
    let mut mem = MemPool::new(2);
    let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "probe.src"));
    let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), 64, "probe.dst"));
    let op = NetOp::Put {
        src,
        len: 64,
        target: NodeId(1),
        dst,
        notify: None,
        completion: None,
    };
    median_ns_per(fires, || {
        let mut list = TriggerList::new(LookupKind::HashTable);
        for t in 0..fires {
            list.register(Tag(t), op.clone(), 1)
                .expect("fresh tag registers");
            let fired = list.trigger(Tag(t)).expect("armed tag triggers");
            black_box(fired.is_some());
        }
    })
}

/// `fabric`: host ns per hop of `FabricGraph::next_edge`, walking every
/// ordered host pair's route.
pub fn route_ns_per_hop(topo: Topology, nodes: u32) -> f64 {
    let graph = FabricGraph::build(topo, nodes as usize, 0);
    let walk = |graph: &FabricGraph| -> u64 {
        let mut hops = 0;
        for src in 0..nodes {
            for dst in 0..nodes {
                let mut at = src;
                while at != dst {
                    let e = graph.next_edge(at, src, dst);
                    at = graph.edge_endpoints(black_box(e)).1;
                    hops += 1;
                }
            }
        }
        hops
    };
    let hops = walk(&graph);
    median_ns_per(hops, || {
        black_box(walk(&graph));
    })
}

/// `fabric`: host ms of `FabricGraph::build`.
pub fn graph_build_ms(topo: Topology, nodes: u32) -> f64 {
    median_ns_per(1, || {
        black_box(FabricGraph::build(topo, nodes as usize, 0).edge_count());
    }) / 1e6
}

/// `host`: host µs to build the `nbc` schedule of every rank.
pub fn schedule_build_us(kind: Collective, nodes: u32) -> f64 {
    median_ns_per(1, || {
        for rank in 0..nodes {
            black_box(kind.schedule(rank, nodes).rounds.len());
        }
    }) / 1e3
}

/// `core`: host ms of `Cluster::new` with empty host programs under
/// `config`.
pub fn cluster_new_ms(config: &ClusterConfig) -> f64 {
    let n = config.n_nodes;
    median_ns_per(1, || {
        let programs = (0..n).map(|_| HostProgram::new()).collect();
        let cluster = Cluster::new(config.clone(), MemPool::new(n as usize), programs);
        black_box(cluster.now());
    }) / 1e6
}

/// `core`: host ns per `MembershipView::record_alive` + `liveness` pair
/// under `phi_accrual()`, for `nodes - 1` peers over `rounds` probe
/// periods with a little arrival jitter.
pub fn phi_eval_ns(nodes: u32, rounds: u64) -> f64 {
    let config = FailureConfig::phi_accrual();
    let period = config.heartbeat_period_ns;
    let evals = rounds * (nodes as u64 - 1);
    median_ns_per(evals, || {
        let mut view = MembershipView::new(0, nodes);
        for r in 1..=rounds {
            for peer in 1..nodes {
                let jitter = (r * 7 + peer as u64 * 13) % 997;
                let at = SimTime::from_ns(r * period + jitter);
                view.record_alive(peer, at);
                black_box(view.liveness(peer, at + SimDuration::from_ns(period / 2), &config));
            }
        }
    })
}
