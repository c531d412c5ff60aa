//! Property tests pinning the two-tier calendar (`EventQueue`) to a
//! reference model: a plain pending set popped in ascending `(time, seq)`
//! order — exactly what the old `BinaryHeap<Scheduled<E>>` implementation
//! computed. The bucket ladder, overflow heap, window migration, and
//! front-cache fast path must all be invisible at this interface.
//!
//! Time ranges are chosen to straddle the ladder window (~8.4 µs): small
//! timestamps exercise bucket placement and same-instant ties, large ones
//! force the overflow tier and the window-jump migration path.

use gtn_sim::event::{EventQueue, WINDOW_SPAN_PS};
use gtn_sim::time::SimTime;
use proptest::prelude::*;

/// Reference model: the pending set, popped min-first by `(time, seq)`.
struct Reference {
    pending: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            pending: Vec::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, payload: usize) {
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn min_key(&self) -> Option<(SimTime, u64)> {
        self.pending.iter().map(|&(t, s, _)| (t, s)).min()
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let key = self.min_key()?;
        let i = self
            .pending
            .iter()
            .position(|&(t, s, _)| (t, s) == key)
            .unwrap();
        let (t, _, p) = self.pending.remove(i);
        Some((t, p))
    }
}

/// Mixed near/far timestamp: `far` sends the event past the ladder window
/// into the overflow heap; `!far` lands it in the buckets with many ties.
fn at(raw: u64, far: bool) -> SimTime {
    if far {
        SimTime::from_ps(raw % 500_000_000)
    } else {
        SimTime::from_ps(raw % 20_000)
    }
}

proptest! {
    /// Drain-after-fill: arbitrary schedules (ties, both tiers) pop in
    /// exactly the reference order.
    #[test]
    fn pops_match_reference_model(
        events in prop::collection::vec((0u64..u64::MAX, any::<bool>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        for (i, &(raw, far)) in events.iter().enumerate() {
            q.push(at(raw, far), i);
            model.push(at(raw, far), i);
        }
        loop {
            let got = q.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Interleaved pushes and pops (the standalone-queue contract, which is
    /// broader than the engine's monotonic use: pushes may land before
    /// already-popped instants and must still pop in pending-set order).
    #[test]
    fn interleaved_push_pop_matches_reference(
        ops in prop::collection::vec((0u64..u64::MAX, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        let mut payload = 0usize;
        for &(raw, far, is_pop) in &ops {
            if is_pop {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                q.push(at(raw, far), payload);
                model.push(at(raw, far), payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.pending.len());
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}

/// Timestamps clustered on ladder-window boundaries: multiples of the
/// window span nudged by a few ps either side, plus the top of the u64
/// range (where the window's nominal end is unrepresentable and the
/// checked advance arithmetic must stay exact). Regression generator for
/// the `window_start + WINDOW_SPAN` routing bug class.
fn boundary_at(k: u64, delta: i64, near_max: bool) -> SimTime {
    let base = if near_max {
        u64::MAX - (k % 4) * WINDOW_SPAN_PS
    } else {
        (k % 8) * WINDOW_SPAN_PS
    };
    let ps = if delta < 0 {
        base.saturating_sub(delta.unsigned_abs())
    } else {
        base.saturating_add(delta as u64)
    };
    SimTime::from_ps(ps)
}

proptest! {
    /// Interleaved boundary-timestamp pushes and pops match the reference
    /// pending set exactly: an event at precisely `window_start +
    /// WINDOW_SPAN` must route to the overflow tier (never wrap into a
    /// stale ring bucket), and window advances in the last representable
    /// span must not saturate or reorder.
    #[test]
    fn window_boundary_timestamps_match_reference(
        ops in prop::collection::vec(
            (0u64..16, -3i64..4, any::<bool>(), any::<bool>()),
            1..250,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        let mut payload = 0usize;
        for &(k, delta, near_max, is_pop) in &ops {
            if is_pop {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let t = boundary_at(k, delta, near_max);
                q.push(t, payload);
                model.push(t, payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.pending.len());
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}
