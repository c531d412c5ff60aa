//! Property tests for the event calendar and engine: total ordering,
//! determinism, and FIFO-within-instant — the invariants every other crate
//! in the workspace silently relies on.

use gtn_sim::engine::Engine;
use gtn_sim::event::EventQueue;
use gtn_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Popping always yields non-decreasing timestamps, and events that share
    /// a timestamp come out in insertion order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Two engines fed the same schedule fire the same sequence.
    #[test]
    fn engine_is_deterministic(times in prop::collection::vec(0u64..500, 1..100)) {
        let run = || {
            let mut eng: Engine<usize> = Engine::new();
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_ns(t), i);
            }
            let mut order = Vec::new();
            eng.run(|e, v| {
                order.push((e.now(), v));
                // Deterministic feedback: even payloads spawn a child.
                if v % 2 == 0 && v < 1_000 {
                    e.schedule_after(SimDuration::from_ns(3), v + 1_001);
                }
            });
            order
        };
        prop_assert_eq!(run(), run());
    }

    /// The clock never runs backwards under any interleaving of
    /// schedule_after calls from inside handlers.
    #[test]
    fn clock_is_monotonic(seed_events in prop::collection::vec((0u64..100, 0u64..50), 1..50)) {
        let mut eng: Engine<u64> = Engine::new();
        for &(t, d) in &seed_events {
            eng.schedule_at(SimTime::from_ns(t), d);
        }
        let mut prev = SimTime::ZERO;
        eng.run(|e, d| {
            assert!(e.now() >= prev);
            prev = e.now();
            if d > 0 {
                e.schedule_after(SimDuration::from_ns(d), d / 2);
            }
        });
    }
}
