// Computing-node model: traffic generation, bounded-bandwidth injection,
// separate request/reply consumption ports, and reply generation for
// reactive (request-reply) traffic.
//
// A node is visited only in the cycles it has work (Network's node
// calendar): it draws its injection process ahead from its own RNG, so it
// knows the cycle of its next generation, and it knows when its next
// source-queue head can inject. The per-cycle process draws and the
// destination draw at each generation keep the exact order of a node
// stepped every cycle, so results do not depend on which cycles it skips.
#pragma once

#include <memory>

#include "buffers/packet.hpp"
#include "common/event_lane.hpp"
#include "common/rng.hpp"
#include "sim/config.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {

class Network;

class Node {
 public:
  /// `lookahead` bounds how many cycles one visit draws the injection
  /// process ahead (at least 1).
  Node(NodeId id, const SimConfig& config, const TrafficPattern& pattern,
       Rng rng, Cycle lookahead);

  /// Runs the work due at `now`: the generation, when the injection
  /// process fires this cycle, then an attempt to move a source-queue head
  /// into the router's injection buffers (at most one packet per
  /// packet_size cycles: the injection channel is one phit per cycle).
  /// Returns the next cycle the node has work, always after `now`. A visit
  /// in a cycle with nothing due is a no-op apart from the look-ahead.
  Cycle step(Cycle now, Network& net);

  /// Whether the consumption port of the class can take a packet now. For
  /// requests under reactive traffic this also requires room in the reply
  /// source queue: the protocol dependency that makes request-reply
  /// deadlock possible when VCs are misconfigured.
  bool can_consume(MsgClass cls, Cycle now) const;

  /// Accepts a packet at the consumption port (called on an ejection
  /// grant); returns the completion cycle of the transfer, which is also
  /// the cycle a spawned reply becomes injectable. Touches only
  /// node-local state (consumption ports, the reply source queue) — the
  /// global side effects (metrics, pool release, trace) are staged by the
  /// Network so ejections in parallel allocation domains apply them in a
  /// deterministic serial order at the cycle barrier.
  Cycle consume(const Packet& pkt, Cycle now);

  /// Whether consuming `pkt` now enqueues a reply (reactive request):
  /// Network stages the generation metric for it alongside on_consumed.
  bool consume_spawns_reply(const Packet& pkt) const {
    return config_.reactive && pkt.cls == MsgClass::kRequest;
  }

  /// First cycle the class's consumption port is free again. When this is
  /// in the future, can_consume is false until exactly this cycle — the
  /// allocator's pruning uses it to sleep ejection-blocked slots on a
  /// timer instead of re-arbitrating them every cycle.
  Cycle consume_free_at(MsgClass cls) const {
    return consume_busy_until_[static_cast<int>(cls)];
  }

  NodeId id() const { return id_; }
  std::int64_t source_backlog(MsgClass cls) const {
    return static_cast<std::int64_t>(
        source_[static_cast<int>(cls)].size());
  }

 private:
  static constexpr Cycle kNone = -1;

  void draw_ahead(Cycle now);
  void generate(Cycle now, Network& net);
  void inject(Cycle now, Network& net);

  NodeId id_;
  const SimConfig& config_;
  const TrafficPattern& pattern_;
  Rng rng_;
  std::unique_ptr<InjectionProcess> process_;
  Cycle lookahead_;
  Cycle drawn_ = 0;        ///< first cycle the process has not drawn yet
  Cycle gen_at_ = kNone;   ///< drawn cycle of the next generation
  bool gen_new_burst_ = false;  ///< new_burst() of that generation

  EventLane<Packet> source_[kNumMsgClasses];
  NodeId burst_destination_ = kInvalidNode;
  Cycle inject_busy_until_ = 0;
  Cycle consume_busy_until_[kNumMsgClasses] = {0, 0};
};

}  // namespace flexnet
