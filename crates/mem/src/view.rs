//! Typed views over raw regions: `f32` vectors and `u64` flags.
//!
//! The evaluation workloads are single-precision (the 8 MB Allreduce is
//! "single-precision floating point", §5.4.1; Jacobi grids are f32 here),
//! and both the GPU-TN completion hooks (§4.2.4) and PGAS-style target-side
//! notification (§4.2.5) poll 64-bit flags. All multi-byte values are
//! little-endian, matching the simulated hosts.
//!
//! A kernel that touches many elements borrows its buffers once
//! ([`MemPool::try_read_mut`], [`MemPool::try_split_borrow`]) and indexes
//! the slices with [`load_f32`], [`store_f32`] and [`f32s`].

use crate::addr::Addr;
use crate::pool::{MemError, MemPool};

/// Size of an `f32` element in bytes.
pub const F32_BYTES: u64 = 4;
/// Size of a `u64` flag in bytes.
pub const U64_BYTES: u64 = 8;

/// The little-endian `f32` at byte offset `at` of a borrowed region slice.
pub fn load_f32(bytes: &[u8], at: usize) -> f32 {
    f32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

/// Store `v` little-endian at byte offset `at` of a borrowed region slice.
pub fn store_f32(bytes: &mut [u8], at: usize, v: f32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The consecutive little-endian `f32`s of a borrowed region slice.
pub fn f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(F32_BYTES as usize)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

impl MemPool {
    /// Read `n` consecutive `f32`s starting at `addr`.
    pub fn read_f32s(&self, addr: Addr, n: usize) -> Vec<f32> {
        f32s(self.read(addr, n as u64 * F32_BYTES)).collect()
    }

    /// Write a slice of `f32`s starting at `addr`.
    #[track_caller]
    pub fn write_f32s(&mut self, addr: Addr, vals: &[f32]) {
        self.fill_f32s(addr, vals.len(), |i| vals[i]);
    }

    /// Write `f(i)` as element `i` of the `n` consecutive `f32`s starting at
    /// `addr`, straight into the region.
    #[track_caller]
    pub fn fill_f32s(&mut self, addr: Addr, n: usize, mut f: impl FnMut(usize) -> f32) {
        let bytes = match self.try_read_mut(addr, n as u64 * F32_BYTES) {
            Ok(b) => b,
            Err(e) => panic!("simulated memory fault: {e}"),
        };
        for (i, c) in bytes.chunks_exact_mut(F32_BYTES as usize).enumerate() {
            c.copy_from_slice(&f(i).to_le_bytes());
        }
    }

    /// Apply `op` elementwise: `dst[i] = op(dst[i], src[i])` for `n` f32
    /// elements. This is the reduction primitive beneath Allreduce. Every
    /// `src[i]` is the value from before the call, even when `src` and `dst`
    /// overlap within one region.
    pub fn zip_f32s(
        &mut self,
        dst: Addr,
        src: Addr,
        n: usize,
        op: impl Fn(f32, f32) -> f32,
    ) -> Result<(), MemError> {
        let len = n as u64 * F32_BYTES;
        if dst.node != src.node || dst.region != src.region {
            let (s, d) = self.try_split_borrow(src, len, dst, len)?;
            for (dc, sv) in d.chunks_exact_mut(F32_BYTES as usize).zip(f32s(s)) {
                let dv = f32::from_le_bytes([dc[0], dc[1], dc[2], dc[3]]);
                dc.copy_from_slice(&op(dv, sv).to_le_bytes());
            }
            return Ok(());
        }
        // One region, so the ranges may overlap: check both, borrow the
        // span covering them, and walk away from the overlap as memmove
        // does, so each `src[i]` is read before any write reaches its bytes.
        self.try_read(src, len)?;
        self.try_read(dst, len)?;
        let lo = src.offset.min(dst.offset);
        let span_len = src.offset.max(dst.offset) - lo + len;
        let span = self.try_read_mut(Addr { offset: lo, ..dst }, span_len)?;
        let (s, d) = ((src.offset - lo) as usize, (dst.offset - lo) as usize);
        let mut fold = |i: usize| {
            let at = i * F32_BYTES as usize;
            let v = op(load_f32(span, d + at), load_f32(span, s + at));
            store_f32(span, d + at, v);
        };
        if d <= s {
            (0..n).for_each(&mut fold);
        } else {
            (0..n).rev().for_each(fold);
        }
        Ok(())
    }

    /// Read a 64-bit flag.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let b = self.read(addr, U64_BYTES);
        u64::from_le_bytes(b.try_into().expect("8-byte read"))
    }

    /// Write a 64-bit flag.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Atomically (at event granularity — events are serialized) add to a
    /// 64-bit flag, returning the new value.
    pub fn fetch_add_u64(&mut self, addr: Addr, delta: u64) -> u64 {
        let v = self.read_u64(addr).wrapping_add(delta);
        self.write_u64(addr, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;

    fn pool() -> (MemPool, Addr) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 1024, "t");
        (p, Addr::base(NodeId(0), r))
    }

    #[test]
    fn f32_scalar_roundtrip() {
        let (mut p, a) = pool();
        let bytes = p.try_read_mut(a, 16).unwrap();
        store_f32(bytes, 4, 3.25);
        assert_eq!(load_f32(bytes, 4), 3.25);
        assert_eq!(load_f32(bytes, 0), 0.0);
        assert_eq!(p.read_f32s(a, 2), vec![0.0, 3.25]);
    }

    #[test]
    fn f32_slice_roundtrip() {
        let (mut p, a) = pool();
        let vals: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        p.write_f32s(a, &vals);
        assert_eq!(p.read_f32s(a, 100), vals);
    }

    #[test]
    fn zip_is_elementwise_reduce() {
        let (mut p, a) = pool();
        let dst = a;
        let src = a.offset_by(512);
        p.write_f32s(dst, &[1.0, 2.0, 3.0]);
        p.write_f32s(src, &[10.0, 20.0, 30.0]);
        p.zip_f32s(dst, src, 3, |x, y| x + y).unwrap();
        assert_eq!(p.read_f32s(dst, 3), vec![11.0, 22.0, 33.0]);
        assert_eq!(p.read_f32s(src, 3), vec![10.0, 20.0, 30.0], "src untouched");

        // Overlap within one region, in both directions: every src element
        // is read before dst is written, as if src were snapshotted first.
        let base = a.offset_by(64);
        let init = [1.0, 2.0, 3.0, 4.0, 5.0];
        p.write_f32s(base, &init);
        p.zip_f32s(base.offset_by(4), base, 4, |x, y| x + y)
            .unwrap();
        assert_eq!(p.read_f32s(base, 5), vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        p.write_f32s(base, &init);
        p.zip_f32s(base, base.offset_by(4), 4, |x, y| x + y)
            .unwrap();
        assert_eq!(p.read_f32s(base, 5), vec![3.0, 5.0, 7.0, 9.0, 5.0]);
        p.write_f32s(base, &init);
        p.zip_f32s(base, base, 5, |x, y| x * y).unwrap();
        assert_eq!(p.read_f32s(base, 5), vec![1.0, 4.0, 9.0, 16.0, 25.0]);
    }

    #[test]
    fn zip_propagates_bounds_errors() {
        let (mut p, a) = pool();
        assert!(p.zip_f32s(a, a.offset_by(1020), 10, |x, _| x).is_err());
    }

    #[test]
    fn u64_flags_and_fetch_add() {
        let (mut p, a) = pool();
        let flag = a.offset_by(64);
        assert_eq!(p.read_u64(flag), 0);
        p.write_u64(flag, 41);
        assert_eq!(p.fetch_add_u64(flag, 1), 42);
        assert_eq!(p.read_u64(flag), 42);
    }

    #[test]
    fn fetch_add_wraps() {
        let (mut p, a) = pool();
        p.write_u64(a, u64::MAX);
        assert_eq!(p.fetch_add_u64(a, 2), 1);
    }
}
