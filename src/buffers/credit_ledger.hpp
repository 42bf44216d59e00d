// Sender-side credit ledger for one output port.
//
// Mirrors the downstream input buffer's geometry (per-VC private capacity
// plus an optional shared pool) so that a send granted by the ledger can
// never overflow the receiver. Statically partitioned buffers are the
// shared_capacity == 0 case.
//
// FlexVC-minCred (paper SIII-D) additionally tracks, per VC, how many of
// the occupied phits belong to minimally routed packets. Credits returned
// by the receiver carry the packet's RouteKind flag — the paper's "one
// additional flag per credit packet and an additional credit counter per
// output port".
//
// Layout: the object is one pointer to a single block (HeadedArray) that
// holds the port's geometry and counters followed by its per-VC counter
// pairs (all phits, minimal phits), sized to the port's VC count — a send,
// a credit or a congestion read touches one block.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "common/headed_array.hpp"
#include "common/types.hpp"

namespace flexnet {

class CreditLedger {
 public:
  CreditLedger(int num_vcs, int private_per_vc, int shared_capacity)
      : vcs_(Port{private_per_vc, shared_capacity},
             static_cast<std::size_t>(num_vcs)) {}

  int num_vcs() const { return static_cast<int>(vcs_.size()); }

  /// Switches the ledger to on/off backpressure (buffer_mgmt=on_off): the
  /// downstream port is modeled by a single stop/go bit with hysteresis —
  /// sends stop once port free space falls below `off_threshold` and
  /// resume when it recovers to `on_threshold`. The exact per-VC
  /// free-space floor stays enforced underneath, so the coarse signal can
  /// never overflow the receiver; the behavioral difference is the
  /// hysteresis window in which a "go" port keeps admitting packets the
  /// exact ledger would already pace. Not calling this (the default)
  /// leaves behavior byte-identical to exact credits.
  void enable_on_off(int off_threshold, int on_threshold) {
    FLEXNET_CHECK(off_threshold >= 0 && on_threshold >= off_threshold);
    Port& p = port();
    p.on_off = true;
    p.off_threshold = off_threshold;
    p.on_threshold = on_threshold;
    update_off_bit();
  }

  bool on_off_enabled() const { return port().on_off; }
  /// True while the downstream port signals "stop".
  bool is_off() const { return port().off; }

  /// Free phits the sender may use for this VC right now.
  int free_for(VcIndex vc) const {
    const Port& p = port();
    const int occ = counters(vc).occupied;
    const int private_free = p.private_per_vc - std::min(occ, p.private_per_vc);
    return private_free + p.shared_capacity - p.shared_used;
  }

  bool can_send(VcIndex vc, int phits) const {
    return (!port().on_off || !port().off) && free_for(vc) >= phits;
  }

  void on_send(VcIndex vc, int phits, RouteKind kind) {
    FLEXNET_DCHECK(can_send(vc, phits));
    add(vc, phits, kind);
  }

  /// Credit returned by the receiver when a packet leaves its buffer.
  void on_credit(VcIndex vc, int phits, RouteKind kind) {
    add(vc, -phits, kind);
    FLEXNET_DCHECK(counters(vc).occupied >= 0);
  }

  /// Downstream occupancy attributable to this sender, in phits. This is the
  /// congestion signal Piggyback compares (SII: "each router measures the
  /// occupancy (credits) of its global ports").
  int occupied(VcIndex vc) const { return counters(vc).occupied; }
  int occupied_port() const { return port().occupied; }

  /// minCred counters: occupancy of minimally routed packets only.
  int occupied_min(VcIndex vc) const { return counters(vc).occupied_min; }
  int occupied_min_port() const { return port().occupied_min; }

  int capacity_port() const {
    return port().private_per_vc * num_vcs() + port().shared_capacity;
  }

 private:
  /// Port-level geometry, counters and on/off state.
  struct Port {
    int private_per_vc = 0;
    int shared_capacity = 0;
    int shared_used = 0;
    int occupied = 0;
    int occupied_min = 0;
    int off_threshold = 0;
    int on_threshold = 0;
    bool on_off = false;
    bool off = false;
  };

  /// Per-VC counters: all occupied phits, and those of minimal packets.
  struct VcCredits {
    std::int32_t occupied = 0;
    std::int32_t occupied_min = 0;
  };

  const Port& port() const { return vcs_.head(); }
  Port& port() { return vcs_.head(); }
  const VcCredits& counters(VcIndex vc) const {
    return vcs_[static_cast<std::size_t>(vc)];
  }

  void add(VcIndex vc, int delta, RouteKind kind) {
    Port& p = port();
    VcCredits& c = vcs_[static_cast<std::size_t>(vc)];
    const int before_overflow = std::max(0, c.occupied - p.private_per_vc);
    c.occupied += delta;
    p.occupied += delta;
    p.shared_used += std::max(0, c.occupied - p.private_per_vc) - before_overflow;
    if (kind == RouteKind::kMinimal) {
      c.occupied_min += delta;
      p.occupied_min += delta;
    }
    if (p.on_off) update_off_bit();
  }

  void update_off_bit() {
    Port& p = port();
    const int free = capacity_port() - p.occupied;
    if (p.off) {
      if (free >= p.on_threshold) p.off = false;
    } else if (free < p.off_threshold) {
      p.off = true;
    }
  }

  HeadedArray<Port, VcCredits> vcs_;  // port counters + per-VC counters
};

}  // namespace flexnet
