//! Two-sided messaging over one-sided puts: an eager-protocol MPI layer.
//!
//! The HDN and CPU configurations use "two sided send/recv semantics"
//! (§5.1). We implement the standard eager protocol: every directed pair of
//! nodes shares a *channel* on the receiver — a ring of mailbox slots plus
//! an arrival counter. `send` is a NIC put into the next slot that bumps the
//! counter; `recv` polls the counter, then copies the slot into the user
//! buffer (paying the receive stack and memcpy time). Slot rotation gives
//! the sender bounded run-ahead, like a real eager buffer pool.
//!
//! Messages larger than the eager slot use the **rendezvous protocol**:
//! the sender puts a ready-to-send (RTS) record; the receiver answers with
//! a clear-to-send (CTS) carrying its user-buffer address; the sender then
//! puts the payload **directly into the user buffer** (zero-copy), exactly
//! like real MPI rendezvous over RDMA.
//!
//! Functional correctness is end-to-end: the payload bytes genuinely travel
//! user buffer → mailbox → user buffer (or straight into the user buffer
//! on the rendezvous path), so the workload tests (Jacobi convergence,
//! exact Allreduce sums) validate this layer too.

use crate::compute::CpuCompute;
use crate::config::HostConfig;
use crate::program::HostOp;
use gtn_mem::{Addr, MemPool, NodeId, RegionId};
use gtn_nic::nic::NicCommand;
use gtn_nic::op::{NetOp, Notify};
use std::collections::HashMap;

/// Number of mailbox slots per directed channel. Lock-step round-based
/// patterns (halo exchange, ring collectives) never run more than a couple
/// of messages ahead; four slots gives comfortable margin and the tests
/// verify payload integrity end-to-end.
pub const SLOTS: u64 = 4;

#[derive(Debug)]
struct Channel {
    /// Base of the slot ring (on the receiver).
    slots: Addr,
    /// Arrival counter (on the receiver), bumped by the NIC notify.
    flag: Addr,
    /// Bytes per slot.
    slot_bytes: u64,
    /// Messages sent so far (sender-side sequence).
    sent: u64,
    /// Messages received so far (receiver-side sequence).
    received: u64,
    /// Rendezvous: RTS arrival counter (on the receiver).
    rts_flag: Addr,
    /// Rendezvous: CTS slot ring (on the **sender**), 16 B records.
    cts_slots: Addr,
    /// Rendezvous: CTS arrival counter (on the sender).
    cts_flag: Addr,
    /// Rendezvous: CTS staging record (on the receiver, put to the sender).
    cts_out: Addr,
    /// Rendezvous: payload arrival counter (on the receiver).
    payload_flag: Addr,
    /// Rendezvous messages sent (sender side).
    rdv_sent: u64,
    /// Rendezvous messages received (receiver side).
    rdv_received: u64,
}

/// Bytes of one CTS record: (region id, offset).
const CTS_BYTES: u64 = 16;

/// The directed channels of a cluster, plus the host model its receive
/// copies are costed against.
#[derive(Debug)]
pub struct MpiWorld {
    channels: HashMap<(u32, u32), Channel>,
    slot_bytes: u64,
    host: CpuCompute,
}

impl MpiWorld {
    /// Allocate channels for the given directed `pairs` (deduplicated, in
    /// first-seen order), each slot holding up to `max_msg_bytes`, with
    /// receives costed against `host`. Only named pairs get mailboxes:
    /// stencils and collectives talk to a handful of peers per rank, and a
    /// full `P²` mesh would cost `O(P²·max_msg_bytes)` memory for slots
    /// that are never touched.
    pub fn for_pairs(
        mem: &mut MemPool,
        pairs: &[(u32, u32)],
        max_msg_bytes: u64,
        host: &HostConfig,
    ) -> Self {
        let mut channels = HashMap::new();
        for &(src, dst) in pairs {
            if src == dst || channels.contains_key(&(src, dst)) {
                continue;
            }
            let slots_region = mem.alloc(NodeId(dst), max_msg_bytes * SLOTS, "mpi.slots");
            let flag_region = mem.alloc(NodeId(dst), 8, "mpi.flag");
            channels.insert(
                (src, dst),
                Channel {
                    slots: Addr::base(NodeId(dst), slots_region),
                    flag: Addr::base(NodeId(dst), flag_region),
                    slot_bytes: max_msg_bytes,
                    sent: 0,
                    received: 0,
                    rts_flag: Addr::base(NodeId(dst), mem.alloc(NodeId(dst), 8, "mpi.rts_flag")),
                    cts_slots: Addr::base(
                        NodeId(src),
                        mem.alloc(NodeId(src), CTS_BYTES * SLOTS, "mpi.cts_slots"),
                    ),
                    cts_flag: Addr::base(NodeId(src), mem.alloc(NodeId(src), 8, "mpi.cts_flag")),
                    cts_out: Addr::base(
                        NodeId(dst),
                        mem.alloc(NodeId(dst), CTS_BYTES, "mpi.cts_out"),
                    ),
                    payload_flag: Addr::base(
                        NodeId(dst),
                        mem.alloc(NodeId(dst), 8, "mpi.payload_flag"),
                    ),
                    rdv_sent: 0,
                    rdv_received: 0,
                },
            );
        }
        MpiWorld {
            channels,
            slot_bytes: max_msg_bytes,
            host: CpuCompute::new(host.clone()),
        }
    }

    /// Maximum message size a channel slot can hold.
    pub fn max_msg_bytes(&self) -> u64 {
        self.slot_bytes
    }

    fn channel_mut(&mut self, src: NodeId, dst: NodeId) -> &mut Channel {
        self.channels
            .get_mut(&(src.0, dst.0))
            .unwrap_or_else(|| panic!("no channel {src}->{dst}"))
    }

    /// Host ops for `src` to send `bytes` from `user_buf` to `dst`.
    ///
    /// One op: a NIC post (the [`crate::program::Cpu`] charges the full send
    /// stack for immediate puts).
    pub fn send_ops(
        &mut self,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        bytes: u64,
    ) -> Vec<HostOp> {
        if bytes > self.slot_bytes {
            return self.send_ops_rendezvous(src, dst, user_buf, bytes);
        }
        let ch = self.channel_mut(src, dst);
        let slot = ch.sent % SLOTS;
        ch.sent += 1;
        let dst_addr = ch.slots.offset_by(slot * ch.slot_bytes);
        let flag = ch.flag;
        vec![HostOp::NicPost(NicCommand::Put(NetOp::Put {
            src: user_buf,
            len: bytes,
            target: dst,
            dst: dst_addr,
            notify: Some(Notify {
                flag,
                add: 1,
                chain: None,
            }),
            completion: None,
        }))]
    }

    /// Host ops for `dst` to receive the next message from `src` into
    /// `user_buf`: poll the arrival counter, pay the receive stack, copy the
    /// slot out.
    pub fn recv_ops(
        &mut self,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        bytes: u64,
    ) -> Vec<HostOp> {
        if bytes > self.slot_bytes {
            return self.recv_ops_rendezvous(src, dst, user_buf);
        }
        let cost = self.host.config().recv_stack() + self.host.memcpy(bytes);
        let ch = self.channel_mut(src, dst);
        let seq = ch.received + 1;
        let slot = ch.received % SLOTS;
        ch.received += 1;
        let slot_addr = ch.slots.offset_by(slot * ch.slot_bytes);
        let flag = ch.flag;
        vec![
            HostOp::Poll {
                addr: flag,
                at_least: seq,
            },
            HostOp::Compute(cost),
            HostOp::Func(std::sync::Arc::new(move |mem: &mut MemPool| {
                mem.copy(slot_addr, user_buf, bytes);
            })),
        ]
    }
    /// Rendezvous sender: RTS → wait CTS → zero-copy payload put into the
    /// address the CTS carried.
    fn send_ops_rendezvous(
        &mut self,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        bytes: u64,
    ) -> Vec<HostOp> {
        let ch = self.channel_mut(src, dst);
        let seq = ch.rdv_sent + 1;
        ch.rdv_sent += 1;
        let cts_slot = ch.cts_slots.offset_by(((seq - 1) % SLOTS) * CTS_BYTES);
        let rts_flag = ch.rts_flag;
        let cts_flag = ch.cts_flag;
        let payload_flag = ch.payload_flag;
        vec![
            // RTS: a zero-payload control put that bumps the receiver's
            // RTS counter ("I have `bytes` for you").
            HostOp::NicPost(NicCommand::Put(NetOp::Put {
                src: user_buf, // no bytes travel (len 0); src is nominal
                len: 0,
                target: dst,
                dst: cts_slot, // nominal; zero-length
                notify: Some(Notify::count(rts_flag)),
                completion: None,
            })),
            // Wait for the CTS.
            HostOp::Poll {
                addr: cts_flag,
                at_least: seq,
            },
            // Decode the receive address from the CTS record and put the
            // payload straight into the user buffer (zero-copy).
            HostOp::NicPostDynamic(std::sync::Arc::new(move |mem: &MemPool| {
                let region = RegionId(mem.read_u64(cts_slot) as u32);
                let offset = mem.read_u64(cts_slot.offset_by(8));
                NicCommand::Put(NetOp::Put {
                    src: user_buf,
                    len: bytes,
                    target: dst,
                    dst: Addr {
                        node: dst,
                        region,
                        offset,
                    },
                    notify: Some(Notify::count(payload_flag)),
                    completion: None,
                })
            })),
        ]
    }

    /// Rendezvous receiver: wait RTS → send CTS carrying the user-buffer
    /// address → wait for the payload to land in place.
    fn recv_ops_rendezvous(&mut self, src: NodeId, dst: NodeId, user_buf: Addr) -> Vec<HostOp> {
        let recv_stack = self.host.config().recv_stack();
        let ch = self.channel_mut(src, dst);
        let seq = ch.rdv_received + 1;
        ch.rdv_received += 1;
        let cts_slot = ch.cts_slots.offset_by(((seq - 1) % SLOTS) * CTS_BYTES);
        let rts_flag = ch.rts_flag;
        let cts_flag = ch.cts_flag;
        let cts_out = ch.cts_out;
        let payload_flag = ch.payload_flag;
        vec![
            HostOp::Poll {
                addr: rts_flag,
                at_least: seq,
            },
            // Matching + CTS build on the receive stack.
            HostOp::Compute(recv_stack),
            HostOp::Func(std::sync::Arc::new(move |mem: &mut MemPool| {
                mem.write_u64(cts_out, user_buf.region.0 as u64);
                mem.write_u64(cts_out.offset_by(8), user_buf.offset);
            })),
            HostOp::NicPost(NicCommand::Put(NetOp::Put {
                src: cts_out,
                len: CTS_BYTES,
                target: src,
                dst: cts_slot,
                notify: Some(Notify::count(cts_flag)),
                completion: None,
            })),
            // Zero-copy: the payload lands directly in `user_buf`.
            HostOp::Poll {
                addr: payload_flag,
                at_least: seq,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-node world with both directed channels.
    fn pair_world(mem: &mut MemPool, bytes: u64) -> MpiWorld {
        MpiWorld::for_pairs(mem, &[(0, 1), (1, 0)], bytes, &HostConfig::default())
    }

    #[test]
    fn channels_cover_the_named_directed_pairs() {
        let mut mem = MemPool::new(3);
        let w = MpiWorld::for_pairs(&mut mem, &[(0, 2), (2, 0)], 1024, &HostConfig::default());
        assert_eq!(w.channels.len(), 2);
        assert_eq!(w.max_msg_bytes(), 1024);
        // Slots live on the receiver.
        let ch = &w.channels[&(0, 2)];
        assert_eq!(ch.slots.node, NodeId(2));
        assert_eq!(ch.flag.node, NodeId(2));
    }

    #[test]
    fn sparse_world_allocates_only_named_pairs() {
        let mut mem = MemPool::new(4);
        // Duplicates and self-pairs are ignored.
        let pairs = [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)];
        let w = MpiWorld::for_pairs(&mut mem, &pairs, 512, &HostConfig::default());
        assert_eq!(w.channels.len(), 3);
        assert!(w.channels.contains_key(&(3, 1)));
        assert!(!w.channels.contains_key(&(1, 3)));
        // Node 2 only appeared as a self-pair: nothing was placed on it.
        assert!(mem.region_len(NodeId(2), RegionId(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "no channel n0->n2")]
    fn send_on_an_unnamed_pair_panics() {
        let mut mem = MemPool::new(4);
        let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "src"));
        let mut w = MpiWorld::for_pairs(&mut mem, &[(0, 1)], 64, &HostConfig::default());
        let _ = w.send_ops(NodeId(0), NodeId(2), src, 64);
    }

    #[test]
    fn send_targets_rotating_slots() {
        let mut mem = MemPool::new(2);
        let mut w = pair_world(&mut mem, 256);
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 256, "buf"));
        let mut offsets = Vec::new();
        for _ in 0..6 {
            let ops = w.send_ops(NodeId(0), NodeId(1), buf, 100);
            assert_eq!(ops.len(), 1);
            match &ops[0] {
                HostOp::NicPost(NicCommand::Put(NetOp::Put { dst, notify, .. })) => {
                    offsets.push(dst.offset);
                    assert!(notify.is_some());
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(offsets, vec![0, 256, 512, 768, 0, 256]);
    }

    #[test]
    fn recv_polls_increasing_sequence() {
        let mut mem = MemPool::new(2);
        let mut w = pair_world(&mut mem, 256);
        let buf = Addr::base(NodeId(1), mem.alloc(NodeId(1), 256, "buf"));
        for expected in 1..=3u64 {
            let ops = w.recv_ops(NodeId(0), NodeId(1), buf, 64);
            assert_eq!(ops.len(), 3);
            match ops[0] {
                HostOp::Poll { at_least, .. } => assert_eq!(at_least, expected),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_send_takes_the_rendezvous_path() {
        let mut mem = MemPool::new(2);
        let mut w = pair_world(&mut mem, 64);
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 256, "buf"));
        let ops = w.send_ops(NodeId(0), NodeId(1), buf, 128);
        // RTS put, CTS poll, dynamic payload put.
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[0],
            HostOp::NicPost(NicCommand::Put(NetOp::Put { len: 0, .. }))
        ));
        assert!(matches!(ops[1], HostOp::Poll { at_least: 1, .. }));
        assert!(matches!(ops[2], HostOp::NicPostDynamic(_)));

        let rops = w.recv_ops(NodeId(0), NodeId(1), buf, 128);
        // RTS poll, recv stack, CTS build, CTS put, payload poll.
        assert_eq!(rops.len(), 5);
        assert!(matches!(rops[0], HostOp::Poll { at_least: 1, .. }));
        assert!(matches!(rops[4], HostOp::Poll { at_least: 1, .. }));
    }

    #[test]
    fn rendezvous_sequences_advance_independently_of_eager() {
        let mut mem = MemPool::new(2);
        let mut w = pair_world(&mut mem, 64);
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 1024, "buf"));
        // Interleave eager and rendezvous sends; each protocol keeps its
        // own sequence numbers.
        let _ = w.send_ops(NodeId(0), NodeId(1), buf, 32); // eager #1
        let big1 = w.send_ops(NodeId(0), NodeId(1), buf, 128); // rdv #1
        let _ = w.send_ops(NodeId(0), NodeId(1), buf, 32); // eager #2
        let big2 = w.send_ops(NodeId(0), NodeId(1), buf, 128); // rdv #2
        let seq_of = |ops: &[HostOp]| match ops[1] {
            HostOp::Poll { at_least, .. } => at_least,
            _ => panic!("expected poll"),
        };
        assert_eq!(seq_of(&big1), 1);
        assert_eq!(seq_of(&big2), 2);
    }

    #[test]
    fn recv_copy_moves_slot_payload() {
        let mut mem = MemPool::new(2);
        let mut w = pair_world(&mut mem, 128);
        let user = Addr::base(NodeId(1), mem.alloc(NodeId(1), 128, "user"));
        let ops = w.recv_ops(NodeId(0), NodeId(1), user, 16);
        // Simulate the NIC having deposited into slot 0.
        let slot0 = w.channels[&(0, 1)].slots;
        mem.write(slot0, &[9u8; 16]);
        if let HostOp::Func(f) = &ops[2] {
            f(&mut mem);
        } else {
            panic!("expected copy func");
        }
        assert_eq!(mem.read(user, 16), &[9u8; 16]);
    }
}
