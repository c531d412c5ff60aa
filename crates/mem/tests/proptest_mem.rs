//! Property tests for the memory substrate: byte-level roundtrips, copy
//! semantics (including overlap), and the fence-discipline checker.

use gtn_mem::addr::{Addr, NodeId, RegionId};
use gtn_mem::pool::{MemError, MemPool};
use gtn_mem::scope::{check_fence_discipline, MemOrdering, MemScope, ScopedOp};
use proptest::prelude::*;

proptest! {
    /// Any write is read back exactly, and bytes outside the window are
    /// untouched.
    #[test]
    fn write_read_roundtrip(
        data in prop::collection::vec(any::<u8>(), 1..256),
        offset in 0u64..256,
    ) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 512, "t");
        let base = Addr::base(NodeId(0), r);
        let addr = base.offset_by(offset);
        p.write(addr, &data);
        prop_assert_eq!(p.read(addr, data.len() as u64), &data[..]);
        // Prefix untouched.
        prop_assert!(p.read(base, offset).iter().all(|&b| b == 0));
    }

    /// Cross-region copy equals a read-then-write, for any geometry: same
    /// node in both region orders and across nodes in both node orders.
    /// The split borrow beneath it sees the same bytes, and an out-of-bounds
    /// range on either side is reported against that side.
    #[test]
    fn copy_matches_read_write(
        data in prop::collection::vec(any::<u8>(), 1..200),
        src_off in 0u64..56,
        dst_off in 0u64..56,
        layout in 0usize..4,
        excess in 1u64..64,
    ) {
        let mut p = MemPool::new(2);
        for node in [NodeId(0), NodeId(1)] {
            p.alloc(node, 256, "r0");
            p.alloc(node, 256, "r1");
        }
        // (src node, src region, dst node, dst region)
        let (sn, sr, dn, dr) = [(0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 1)][layout];
        let src = Addr::base(NodeId(sn), RegionId(sr)).offset_by(src_off);
        let dst = Addr::base(NodeId(dn), RegionId(dr)).offset_by(dst_off);
        let len = data.len() as u64;
        p.write(src, &data);
        p.copy(src, dst, len);
        prop_assert_eq!(p.read(dst, len), &data[..]);
        prop_assert_eq!(p.read(src, len), &data[..], "src preserved");

        let (s, d) = p.try_split_borrow(src, len, dst, len).unwrap();
        prop_assert_eq!(s, &data[..]);
        prop_assert_eq!(&d[..], &data[..]);

        let src_oob = 256 - src_off + excess;
        let err = p.try_split_borrow(src, src_oob, dst, len).unwrap_err();
        prop_assert_eq!(
            err,
            MemError::OutOfBounds { addr: src, len: src_oob, region_size: 256 }
        );
        let dst_oob = 256 - dst_off + excess;
        let err = p.try_split_borrow(src, len, dst, dst_oob).unwrap_err();
        prop_assert_eq!(
            err,
            MemError::OutOfBounds { addr: dst, len: dst_oob, region_size: 256 }
        );
    }

    /// Same-region overlapping copy behaves like memmove; a split borrow of
    /// the same two ranges is refused with an error.
    #[test]
    fn overlapping_copy_is_memmove(
        len in 1usize..64,
        src_off in 0u64..32,
        dst_off in 0u64..32,
    ) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 128, "t");
        let base = Addr::base(NodeId(0), r);
        let init: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
        p.write(base, &init);

        let mut expect = init.clone();
        expect.copy_within(
            src_off as usize..src_off as usize + len,
            dst_off as usize,
        );
        let (src, dst) = (base.offset_by(src_off), base.offset_by(dst_off));
        p.copy(src, dst, len as u64);
        prop_assert_eq!(p.read(base, 128), &expect[..]);
        prop_assert_eq!(
            p.try_split_borrow(src, len as u64, dst, len as u64).unwrap_err(),
            MemError::SameRegion(NodeId(0), r)
        );
    }

    /// f32 slices roundtrip through the byte store.
    #[test]
    fn f32_roundtrip(vals in prop::collection::vec(-1e6f32..1e6, 1..128)) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 1024, "t");
        let a = Addr::base(NodeId(0), r);
        p.write_f32s(a, &vals);
        prop_assert_eq!(p.read_f32s(a, vals.len()), vals);
    }

    /// Inserting a system-release fence immediately before a trigger store
    /// always repairs an UnreleasedWrites violation, and never introduces
    /// a new one.
    #[test]
    fn release_fence_repairs_any_program(ops in arb_ops(12)) {
        let mut repaired = Vec::with_capacity(ops.len() * 2);
        for op in &ops {
            if matches!(op, ScopedOp::TriggerStore(..)) {
                repaired.push(ScopedOp::Fence(MemScope::System, MemOrdering::Release));
                // Also normalize the trigger store itself to system scope.
                repaired.push(ScopedOp::TriggerStore(
                    MemScope::System,
                    MemOrdering::Relaxed,
                ));
            } else {
                repaired.push(*op);
            }
        }
        match check_fence_discipline(&repaired) {
            Ok(()) => {}
            Err(e) => prop_assert!(
                matches!(e, gtn_mem::scope::ScopeViolation::UnacquiredReadAfterPoll { .. }),
                "only acquire-side violations may remain: {e}"
            ),
        }
    }
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<ScopedOp>> {
    let scope = prop_oneof![
        Just(MemScope::WorkGroup),
        Just(MemScope::Device),
        Just(MemScope::System)
    ];
    let ord = prop_oneof![
        Just(MemOrdering::Relaxed),
        Just(MemOrdering::Acquire),
        Just(MemOrdering::Release),
        Just(MemOrdering::AcqRel)
    ];
    let op = prop_oneof![
        Just(ScopedOp::GlobalWrite),
        Just(ScopedOp::GlobalRead),
        (scope.clone(), ord.clone()).prop_map(|(s, o)| ScopedOp::Fence(s, o)),
        (scope.clone(), ord.clone()).prop_map(|(s, o)| ScopedOp::AtomicStore(s, o)),
        (scope.clone(), ord.clone()).prop_map(|(s, o)| ScopedOp::AtomicLoad(s, o)),
        (scope, ord).prop_map(|(s, o)| ScopedOp::TriggerStore(s, o)),
        Just(ScopedOp::Barrier),
    ];
    prop::collection::vec(op, 0..max_len)
}
