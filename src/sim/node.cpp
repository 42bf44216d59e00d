#include "sim/node.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"

namespace flexnet {

Node::Node(NodeId id, const SimConfig& config, const TrafficPattern& pattern,
           Rng rng, Cycle lookahead)
    : id_(id),
      config_(config),
      pattern_(pattern),
      rng_(rng),
      lookahead_(lookahead) {
  FLEXNET_CHECK(lookahead_ >= 1);
  // Reactive traffic offers `load` counting both requests and the replies
  // they spawn, so requests are generated at half the configured load
  // (SIV-B; keeps the injection channel's 1 phit/cycle budget feasible).
  const double request_load = config_.reactive ? config_.load / 2 : config_.load;
  process_ =
      traffic_registry().at(config_.traffic).make.process(config_, request_load);
}

Cycle Node::step(Cycle now, Network& net) {
  draw_ahead(now);
  if (gen_at_ == now) {
    generate(now, net);
    gen_at_ = kNone;
    draw_ahead(now);
  }
  inject(now, net);
  Cycle due = gen_at_ != kNone ? gen_at_ : drawn_;
  // A queued head can inject once the channel is free and it exists; a
  // head that found the injection buffer full retries next cycle.
  for (const auto& queue : source_) {
    if (queue.empty()) continue;
    due = std::min(due, std::max({inject_busy_until_, queue.front().created,
                                  now + 1}));
  }
  return due;
}

void Node::draw_ahead(Cycle now) {
  // Process draws stop at the first success, so the RNG's next draw is
  // that generation's destination — the order of a per-cycle step. The
  // node is visited again by drawn_ at the latest (the chunk's end).
  if (gen_at_ != kNone) return;
  FLEXNET_DCHECK(drawn_ >= now);
  const Cycle end = now + lookahead_;
  while (drawn_ < end) {
    const Cycle cycle = drawn_++;
    if (process_->step(rng_)) {
      gen_at_ = cycle;
      gen_new_burst_ = process_->new_burst();
      return;
    }
  }
}

void Node::inject(Cycle now, Network& net) {
  // The injection channel carries one phit per cycle: at most one packet
  // per packet_size cycles enters the router.
  if (inject_busy_until_ > now) return;
  // Replies first: they unblock request consumption at remote nodes.
  for (int c : {static_cast<int>(MsgClass::kReply),
                static_cast<int>(MsgClass::kRequest)}) {
    auto& queue = source_[c];
    if (queue.empty()) continue;
    if (queue.front().created > now) continue;  // reply not materialized yet
    if (net.try_inject(id_, queue.front(), now)) {
      queue.pop_front();
      inject_busy_until_ = now + config_.effective_packet_phits();
      return;
    }
  }
}

void Node::generate(Cycle now, Network& net) {
  // Non-bursty processes report every packet as a new burst, so this is
  // the only destination-refresh rule needed for any registered traffic.
  if (gen_new_burst_ || burst_destination_ == kInvalidNode) {
    burst_destination_ = pattern_.destination(id_, rng_);
  }
  Packet pkt;
  pkt.src = id_;
  pkt.dst = burst_destination_;
  pkt.size = config_.effective_packet_phits();
  pkt.cls = MsgClass::kRequest;
  pkt.created = now;
  pkt.vc_position = kInjectionPosition;
  source_[static_cast<int>(MsgClass::kRequest)].push_back(pkt);
  net.metrics().on_generated(pkt.size);
}

bool Node::can_consume(MsgClass cls, Cycle now) const {
  if (consume_busy_until_[static_cast<int>(cls)] > now) return false;
  if (cls == MsgClass::kRequest && config_.reactive) {
    // A request can only be consumed when the reply it triggers has room in
    // the reply source queue (protocol dependency).
    return source_backlog(MsgClass::kReply) <
           config_.reply_queue_capacity;
  }
  return true;
}

Cycle Node::consume(const Packet& pkt, Cycle now) {
  FLEXNET_DCHECK(can_consume(pkt.cls, now));
  // The consumption channel moves one phit per cycle; the router pipeline
  // adds latency but overlaps with the next packet's transfer.
  const Cycle completion = now + config_.pipeline_latency + pkt.size;
  consume_busy_until_[static_cast<int>(pkt.cls)] = now + pkt.size;
  if (consume_spawns_reply(pkt)) {
    Packet reply;
    reply.src = id_;
    reply.dst = pkt.src;
    reply.size = config_.effective_packet_phits();
    reply.cls = MsgClass::kReply;
    reply.created = completion;
    reply.vc_position = kInjectionPosition;
    source_[static_cast<int>(MsgClass::kReply)].push_back(reply);
  }
  return completion;
}

}  // namespace flexnet
