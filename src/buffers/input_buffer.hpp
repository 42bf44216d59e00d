// Input buffer: per-VC packet-ref queues with phit-granular capacity
// accounting. One concrete class covers both organizations of the paper
// (SII, Fig 2) with no virtual dispatch on the hot path:
//   * static  — shared_capacity == 0: a fixed private capacity per VC;
//   * DAMQ    — shared_capacity  > 0: a private reservation per VC plus a
//               pool shared by all VCs (private space is consumed first,
//               matching the sender-side CreditLedger exactly).
//
// Layout: the object is one pointer to a single block (HeadedArray) that
// holds the port's accounting followed by its per-VC queue headers, sized
// to the port's VC count. A header carries the VC's ring position, its
// packet count, its occupancy and a copy of its head PacketRef, so the
// allocator's question "which packet heads this VC?" is one load past the
// buffer object — never a walk into the ring. Every VC's ring is a
// power-of-two segment of one flat slot array; a ring that fills doubles
// its segment by re-laying the slot array (rare: segments only grow, up to
// the deepest queue the run reaches).
//
// Queues hold PacketRef slots, not packets: the payload stays in the
// PacketPool slab and a push/pop moves 8 bytes. The shared-pool usage is
// tracked incrementally on push/pop (the same delta rule as
// CreditLedger::add) instead of recomputed by a per-call VC scan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "buffers/packet_pool.hpp"
#include "common/check.hpp"
#include "common/headed_array.hpp"

namespace flexnet {

/// One queued packet: its pool slot and its size in phits (denormalized so
/// occupancy accounting never touches the slab).
struct BufferSlot {
  PacketRef ref = kInvalidPacketRef;
  std::int32_t phits = 0;
};

class InputBuffer final {
 public:
  /// `shared_capacity` == 0 builds a statically partitioned buffer;
  /// > 0 builds a DAMQ with `private_per_vc` reserved per VC.
  InputBuffer(int num_vcs, int private_per_vc, int shared_capacity = 0)
      : vcs_(Port{private_per_vc, shared_capacity, 0, 0,
                  std::vector<BufferSlot>(static_cast<std::size_t>(num_vcs) *
                                          kInitialRing)},
             static_cast<std::size_t>(num_vcs)) {
    for (std::size_t v = 0; v < vcs_.size(); ++v)
      vcs_[v].base = static_cast<std::uint32_t>(v * kInitialRing);
  }

  int num_vcs() const { return static_cast<int>(vcs_.size()); }
  bool is_damq() const { return port().shared_capacity > 0; }
  int private_per_vc() const { return port().private_per_vc; }
  int shared_capacity() const { return port().shared_capacity; }

  /// Space check used by the receiver on arrival; the sender-side
  /// CreditLedger mirrors the same rule so a granted send never overflows.
  bool can_accept(VcIndex vc, int phits) const {
    return free_for(vc) >= phits;
  }

  /// Free phits currently available to this VC: its private remainder plus
  /// any shared remainder.
  int free_for(VcIndex vc) const {
    const Port& p = port();
    const int occ = queue(vc).occupancy;
    const int private_free = p.private_per_vc - std::min(occ, p.private_per_vc);
    return private_free + p.shared_capacity - p.shared_used;
  }

  /// Total capacity of the port's memory in phits.
  int total_capacity() const {
    return private_per_vc() * num_vcs() + shared_capacity();
  }

  void push(VcIndex vc, PacketRef ref, int phits) {
    FLEXNET_DCHECK(can_accept(vc, phits));
    if (queue(vc).count > queue(vc).mask) grow(vc);
    VcQueue& q = queue(vc);
    port().slots[q.base + ((q.head + q.count) & q.mask)] =
        BufferSlot{ref, phits};
    if (q.count == 0) q.front = ref;
    ++q.count;
    account(q, phits);
  }

  /// Appends one phit to the newest queued packet on `vc` (a body flit of
  /// a flit-level stream joining its head). The queue tail is always the
  /// packet whose flits are still arriving — link FIFO order guarantees
  /// body flits of one packet arrive contiguously per VC; the always-on
  /// check below is that no-interleaving invariant.
  void add_phit(VcIndex vc, PacketRef ref) {
    VcQueue& q = queue(vc);
    FLEXNET_CHECK(q.count > 0);
    BufferSlot& tail =
        port().slots[q.base + ((q.head + q.count - 1) & q.mask)];
    FLEXNET_CHECK(tail.ref == ref);
    FLEXNET_DCHECK(can_accept(vc, 1));
    tail.phits += 1;
    account(q, 1);
  }

  bool empty(VcIndex vc) const { return queue(vc).count == 0; }

  /// Head-of-queue packet ref, or kInvalidPacketRef. Only the head can be
  /// routed: this is the FIFO order whose blocking FlexVC mitigates by
  /// spreading packets over more VCs (not by reordering within one).
  PacketRef front(VcIndex vc) const { return queue(vc).front; }

  /// Phits of the head packet already buffered here (under flit-level
  /// flow control a head can be routed before its tail arrives; ejection
  /// waits for the full count).
  int front_phits(VcIndex vc) const {
    const VcQueue& q = queue(vc);
    return q.count == 0 ? 0
                        : static_cast<int>(port().slots[q.base + q.head].phits);
  }

  BufferSlot pop(VcIndex vc) {
    VcQueue& q = queue(vc);
    FLEXNET_DCHECK(q.count > 0);
    const std::vector<BufferSlot>& slots = port().slots;
    const BufferSlot slot = slots[q.base + q.head];
    q.head = (q.head + 1) & q.mask;
    --q.count;
    q.front = q.count == 0 ? kInvalidPacketRef : slots[q.base + q.head].ref;
    account(q, -slot.phits);
    return slot;
  }

  /// Occupied phits in one VC / in the whole port.
  int occupancy(VcIndex vc) const { return queue(vc).occupancy; }
  int occupancy() const { return port().total_occupancy; }

  /// Phits drawn from the shared pool (overflow beyond private space).
  int shared_used() const { return port().shared_used; }

  /// Packets queued in one VC.
  int packets(VcIndex vc) const { return static_cast<int>(queue(vc).count); }

 private:
  /// Ring slots each VC starts with; a fuller VC doubles its segment.
  static constexpr std::uint32_t kInitialRing = 4;

  /// Port-level accounting and the ring storage of every VC.
  struct Port {
    int private_per_vc;
    int shared_capacity;
    int shared_used;      ///< phits spilled beyond private space
    int total_occupancy;  ///< phits
    std::vector<BufferSlot> slots;  ///< every VC's ring segment
  };

  /// Per-VC queue header: the VC's ring segment [base, base + mask] in
  /// Port::slots, its packet count and phit occupancy, and its head ref.
  struct VcQueue {
    PacketRef front = kInvalidPacketRef;  ///< cached slots[base + head].ref
    std::int32_t occupancy = 0;           ///< phits
    std::uint32_t count = 0;              ///< packets
    std::uint32_t head = 0;               ///< ring offset of the head
    std::uint32_t base = 0;               ///< first slot of the segment
    std::uint32_t mask = kInitialRing - 1;  ///< segment size - 1
  };

  const Port& port() const { return vcs_.head(); }
  Port& port() { return vcs_.head(); }
  const VcQueue& queue(VcIndex vc) const {
    return vcs_[static_cast<std::size_t>(vc)];
  }
  VcQueue& queue(VcIndex vc) { return vcs_[static_cast<std::size_t>(vc)]; }

  void account(VcQueue& q, int delta) {
    Port& p = port();
    const int spilled_before = std::max(0, q.occupancy - p.private_per_vc);
    q.occupancy += delta;
    p.shared_used += std::max(0, q.occupancy - p.private_per_vc) - spilled_before;
    p.total_occupancy += delta;
  }

  /// Doubles `vc`'s full ring segment: re-lays every segment into a fresh
  /// slot array, unwrapping each ring so its head sits at offset 0.
  void grow(VcIndex vc) {
    std::vector<BufferSlot>& slots = port().slots;
    const std::size_t total = slots.size() + queue(vc).mask + 1;
    std::vector<BufferSlot> next(total);
    std::uint32_t at = 0;
    for (std::size_t v = 0; v < vcs_.size(); ++v) {
      VcQueue& q = vcs_[v];
      const std::uint32_t size =
          (q.mask + 1) << (v == static_cast<std::size_t>(vc) ? 1 : 0);
      for (std::uint32_t i = 0; i < q.count; ++i)
        next[at + i] = slots[q.base + ((q.head + i) & q.mask)];
      q.base = at;
      q.head = 0;
      q.mask = size - 1;
      at += size;
    }
    FLEXNET_DCHECK(at == total);
    slots = std::move(next);
  }

  HeadedArray<Port, VcQueue> vcs_;  // port accounting + per-VC headers
};

}  // namespace flexnet
