#include "sim/network.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "core/admissibility.hpp"
#include "routing/minimal.hpp"
#include "scenario/registry.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {

Network::Network(const SimConfig& config) : config_(config) {
  // Registry-driven construction: unknown component names fail here with
  // an error enumerating the registered alternatives, and each component's
  // validate hook rejects configurations it cannot serve before any
  // simulation state is built.
  validate_config(config_);
  topo_ = topology_registry().at(config_.topology).make(config_);

  const VcArrangement arrangement = VcArrangement::parse(config_.vcs);
  FLEXNET_CHECK_MSG(arrangement.typed == topo_->typed(),
                    "typed/untyped VC arrangement does not match topology");
  FLEXNET_CHECK_MSG(arrangement.has_reply() == config_.reactive,
                    "request-reply arrangements require reactive traffic "
                    "and vice versa");
  policy_ = vc_policy_registry().at(config_.policy).make(arrangement);
  selection_ = vc_selection_registry().at(config_.vc_selection).make();
  routing_ = routing_registry()
                 .at(config_.routing)
                 .make(RoutingContext{*topo_, *this, config_, arrangement});

  // Validate that the arrangement supports the routing mechanism: under the
  // baseline the full reference must embed; FlexVC also accepts
  // opportunistic arrangements (Tables I-IV).
  {
    const HopSeq ref = routing_->reference_path();
    const VcTemplate& tmpl = policy_->tmpl();
    for (int c = 0; c < (arrangement.has_reply() ? 2 : 1); ++c) {
      const auto cls = static_cast<MsgClass>(c);
      const bool safe =
          tmpl.embed_safe(ref, kInjectionPosition, cls) >= 0 ||
          (cls == MsgClass::kReply &&
           tmpl.embed(ref, kInjectionPosition, tmpl.num_positions()) >= 0);
      if (config_.policy == "baseline") {
        FLEXNET_CHECK_MSG(safe,
                          "baseline VC management cannot support this "
                          "routing with the configured arrangement");
      } else if (!safe) {
        // FlexVC: a minimal escape must fit so opportunistic routing works.
        const HopSeq min_ref = MinimalRouting(*topo_).reference_path();
        FLEXNET_CHECK_MSG(tmpl.embed_safe(min_ref, kInjectionPosition, cls) >= 0,
                          "arrangement cannot even hold minimal paths");
      }
    }
  }

  FLEXNET_CHECK_MSG(!config_.reactive || config_.injection_vcs >= 2,
                    "reactive traffic needs >= 2 injection VCs");

  build();
}

Network::~Network() = default;

int Network::num_outputs(RouterId r) const {
  return topo_->num_network_ports(r) + topo_->concentration() * kNumMsgClasses;
}

int Network::eject_output_index(RouterId r, int node_local,
                                MsgClass cls) const {
  return net_ports(r) + node_local * kNumMsgClasses + static_cast<int>(cls);
}

void Network::build() {
  const VcTemplate& tmpl = policy_->tmpl();
  // Commitments store template positions in 16 bits.
  FLEXNET_CHECK_MSG(tmpl.num_positions() <= INT16_MAX,
                    "VC template too long for a commitment slot");
  Rng base(config_.seed);

  {
    const char* env = std::getenv("FLEXNET_DEBUG_STUCK");
    debug_stuck_ = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
    record_routes_ = debug_stuck_ || trace_ != nullptr;
  }

  const int num_routers = topo_->num_routers();
  const int inj_ports = topo_->concentration();
  const BufferOrg org = buffer_org_registry().at(config_.buffer_org).make();
  flow_control_ = flow_control_registry().at(config_.flow_control).make();
  buffer_mgmt_ = buffer_mgmt_registry().at(config_.buffer_mgmt).make();
  flit_ = is_flit_level(flow_control_);

  // Offset tables (with sentinels) first, then one flat reserve per array:
  // the whole router state is a handful of contiguous allocations.
  link_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  in_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  output_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  int total_links = 0;
  int total_inputs = 0;
  int total_outputs = 0;
  for (RouterId r = 0; r < num_routers; ++r) {
    link_index_[static_cast<std::size_t>(r)] = total_links;
    in_index_[static_cast<std::size_t>(r)] = total_inputs;
    output_index_[static_cast<std::size_t>(r)] = total_outputs;
    const int ports = topo_->num_network_ports(r);
    total_links += ports;
    total_inputs += ports + inj_ports;
    total_outputs += num_outputs(r);
  }
  FLEXNET_CHECK(total_links == topo_->total_network_ports());
  link_index_[static_cast<std::size_t>(num_routers)] = total_links;
  in_index_[static_cast<std::size_t>(num_routers)] = total_inputs;
  output_index_[static_cast<std::size_t>(num_routers)] = total_outputs;

  links_.resize(static_cast<std::size_t>(total_links));
  out_.reserve(static_cast<std::size_t>(total_links));
  ledger_.reserve(static_cast<std::size_t>(total_links));
  in_.reserve(static_cast<std::size_t>(total_inputs));
  in_arb_.reserve(static_cast<std::size_t>(total_inputs));
  commit_index_.reserve(static_cast<std::size_t>(total_inputs));
  out_arb_.reserve(static_cast<std::size_t>(total_outputs));
  rng_.reserve(static_cast<std::size_t>(num_routers));

  // Per-link VC counts feed the telemetry registry's shape (per-VC lanes).
  std::vector<int> link_vcs(static_cast<std::size_t>(total_links), 0);

  for (RouterId r = 0; r < num_routers; ++r) {
    rng_.push_back(base.split(static_cast<std::uint64_t>(r)));
    const int ports = topo_->num_network_ports(r);

    for (PortIndex p = 0; p < ports; ++p) {
      const PortDesc& desc = topo_->port(r, p);
      const bool global = desc.type == LinkType::kGlobal;
      const int vcs = tmpl.vcs_per_port(desc.type);
      const int per_vc =
          global ? config_.global_buffer_per_vc : config_.local_buffer_per_vc;
      const int port_cap = global ? config_.global_port_capacity
                                  : config_.local_port_capacity;
      const int total = port_cap > 0 ? port_cap : per_vc * vcs;
      const BufferGeometry geom =
          make_geometry(org, vcs, total, config_.damq_private_fraction);
      in_.push_back(make_buffer(geom));
      out_.emplace_back(config_.output_buffer, config_.pipeline_latency);
      ledger_.emplace_back(geom.num_vcs, geom.private_per_vc, geom.shared);
      if (buffer_mgmt_ == BufferMgmt::kOnOff) {
        // On/off hysteresis thresholds derive from the packet size: stop
        // once less than one packet of port space remains, resume at two
        // packets' worth (both capped by the port capacity so a small
        // port can still turn back on).
        const int eff = config_.effective_packet_phits();
        const int cap = ledger_.back().capacity_port();
        ledger_.back().enable_on_off(std::min(eff, cap),
                                     std::min(2 * eff, cap));
      }
      link_vcs[static_cast<std::size_t>(link_at(r, p))] = geom.num_vcs;

      DirLink& link = links_[static_cast<std::size_t>(link_at(r, p))];
      link.to = desc.neighbor;
      link.to_port = desc.neighbor_port;
      link.latency = global ? config_.global_latency : config_.local_latency;
    }
    for (int j = 0; j < inj_ports; ++j) {
      in_.emplace_back(config_.injection_vcs, config_.injection_buffer_per_vc);
    }

    for (int i = 0; i < ports + inj_ports; ++i) {
      const int vcs = in_[static_cast<std::size_t>(input_at(r, i))].num_vcs();
      // The armed-slot bitmask packs one bit per VC into a word (and a
      // Commitment stores its VC in 16 bits).
      FLEXNET_CHECK_MSG(vcs <= 64, "at most 64 VCs per input port");
      in_arb_.emplace_back(vcs);
      commit_index_.push_back(static_cast<int>(commits_.size()));
      commits_.resize(commits_.size() + static_cast<std::size_t>(vcs));
    }
    for (int o = 0; o < num_outputs(r); ++o)
      out_arb_.emplace_back(ports + inj_ports);
  }

  // Calendar span: the largest schedule offset is a link's latency plus
  // the one-cycle arrival eligibility (data lanes), or a packet's pipeline
  // latency plus its serialization (output links, reply completions).
  int max_latency = 0;
  for (const DirLink& link : links_)
    max_latency = std::max(max_latency, link.latency);
  const int max_phits =
      std::max(config_.effective_packet_phits(), config_.packet_size);
  const Cycle max_offset =
      std::max(max_latency + 2, config_.pipeline_latency + max_phits);

  // Nodes. Each draws its injection process at most one calendar span
  // ahead, so its next visit always fits the calendar.
  pattern_ = traffic_registry().at(config_.traffic).make.pattern(*topo_, config_);
  nodes_.reserve(static_cast<std::size_t>(topo_->num_nodes()));
  const Cycle lookahead = TimeWheel::span_for(max_offset) - 1;
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    nodes_.push_back(std::make_unique<Node>(
        n, config_, *pattern_,
        base.split(0x100000 + static_cast<std::uint64_t>(n)), lookahead));
  }

  // Hot-path bookkeeping and scratch, sized once here (the
  // allocator never resizes anything per cycle).
  router_buffered_.assign(static_cast<std::size_t>(num_routers), 0);
  if (flit_) {
    transit_.assign(static_cast<std::size_t>(total_links), TransitTail{});
    streams_.assign(static_cast<std::size_t>(total_links), LinkStream{});
  }
  requests_.assign(static_cast<std::size_t>(total_outputs), {});
  in_matched_.assign(static_cast<std::size_t>(total_inputs), 0);
  out_matched_.assign(static_cast<std::size_t>(total_outputs), 0);

  // Pruned-arbitration state: everything starts disarmed/unsubscribed —
  // the first injection or delivery arms its slot.
  armed_.assign(static_cast<std::size_t>(total_inputs), 0);
  router_armed_.assign(static_cast<std::size_t>(num_routers), 0);
  link_waiters_.assign(static_cast<std::size_t>(total_links), {});

  // Parallel domains: contiguous ascending router ranges so the ascending-
  // domain merge of staged effects reproduces the serial ascending-router
  // order exactly. sim_domains is an execution knob only — results are
  // byte-identical at any value.
  domains_ = std::max(1, std::min(config_.sim_domains, num_routers));
  router_domain_.resize(static_cast<std::size_t>(num_routers));
  for (int d = 0; d < domains_; ++d) {
    const int begin = static_cast<int>(
        static_cast<std::int64_t>(num_routers) * d / domains_);
    const int end = static_cast<int>(
        static_cast<std::int64_t>(num_routers) * (d + 1) / domains_);
    for (RouterId r = begin; r < end; ++r)
      router_domain_[static_cast<std::size_t>(r)] = d;
  }
  link_owner_.resize(static_cast<std::size_t>(total_links));
  link_owner_domain_.resize(static_cast<std::size_t>(total_links));
  link_to_domain_.resize(static_cast<std::size_t>(total_links));
  for (RouterId r = 0; r < num_routers; ++r) {
    for (PortIndex p = 0; p < topo_->num_network_ports(r); ++p) {
      const auto li = static_cast<std::size_t>(link_at(r, p));
      link_owner_[li] = r;
      link_owner_domain_[li] = router_domain_[static_cast<std::size_t>(r)];
      link_to_domain_[li] =
          router_domain_[static_cast<std::size_t>(links_[li].to)];
    }
  }
  // Calendars swept by owner domain cover only that domain's ids (links
  // and nodes are numbered by router); data lanes are swept by receiver
  // domain, whose inbound links are scattered over the whole id range.
  data_wheel_.resize(static_cast<std::size_t>(domains_));
  credit_wheel_.resize(static_cast<std::size_t>(domains_));
  send_wheel_.resize(static_cast<std::size_t>(domains_));
  node_wheel_.resize(static_cast<std::size_t>(domains_));
  alloc_sets_.resize(static_cast<std::size_t>(domains_));
  for (int d = 0; d < domains_; ++d) {
    const auto di = static_cast<std::size_t>(d);
    const RouterId r0 = static_cast<RouterId>(
        static_cast<std::int64_t>(num_routers) * d / domains_);
    const RouterId r1 = static_cast<RouterId>(
        static_cast<std::int64_t>(num_routers) * (d + 1) / domains_);
    const int l0 = link_index_[static_cast<std::size_t>(r0)];
    const int l1 = link_index_[static_cast<std::size_t>(r1)];
    data_wheel_[di].resize(0, total_links, max_offset);
    credit_wheel_[di].resize(l0, l1, max_offset);
    send_wheel_[di].resize(l0, l1, max_offset);
    const NodeId n0 = topo_->first_node_of_router(r0);
    const NodeId n1 = topo_->first_node_of_router(r1);
    node_wheel_[di].resize(n0, n1, max_offset);
    // Every node is due at cycle 0: its first look-ahead.
    for (NodeId n = n0; n < n1; ++n) node_wheel_[di].add(n, 0);
    alloc_sets_[di].resize(static_cast<std::size_t>(num_routers));
  }
  scratch_.resize(static_cast<std::size_t>(domains_));
  for (int d = 0; d < domains_; ++d)
    scratch_[static_cast<std::size_t>(d)].domain = d;
  team_ = std::make_unique<DomainTeam>(domains_);

  // Ejection wake calendar: a consumption port blocks for exactly the
  // packet's phit count, so the ring only needs to span the largest
  // packet either config field can produce (plus a margin cycle).
  input_router_.resize(static_cast<std::size_t>(total_inputs));
  for (RouterId r = 0; r < num_routers; ++r) {
    for (int gi = in_index_[static_cast<std::size_t>(r)];
         gi < in_index_[static_cast<std::size_t>(r) + 1]; ++gi)
      input_router_[static_cast<std::size_t>(gi)] = r;
  }
  wake_ring_ = std::max(config_.effective_packet_phits(),
                        config_.packet_size) + 2;
  port_masks_ok_ = true;
  for (RouterId r = 0; r < num_routers; ++r) {
    if (num_inputs(r) > 64) {
      port_masks_ok_ = false;
      break;
    }
  }
  armed_inputs_.assign(static_cast<std::size_t>(num_routers), 0);
  // Blocked uncommitted heads may sleep only when re-running their VC
  // allocation is pure: draw-free routing and a selection function that
  // consumes no randomness (kRandom reservoir-samples per feasible VC).
  fresh_prune_ok_ =
      routing_->draw_free() && selection_ != VcSelection::kRandom;
  eject_wake_.assign(
      static_cast<std::size_t>(domains_),
      std::vector<std::vector<std::int32_t>>(
          static_cast<std::size_t>(wake_ring_)));

  // Telemetry: the registry is always shaped (cheap, one-time) so render()
  // and merge() work even when counting is off; updates happen only when
  // the build compiles them in AND the run enables them — by environment
  // variable here, or explicitly via set_telemetry_enabled /
  // Simulator::set_telemetry.
  telem_.configure(num_routers, link_vcs);
  {
    const char* env = std::getenv("FLEXNET_TELEMETRY");
    const bool on = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
    set_telemetry_enabled(on);
  }
}

int Network::port_occupancy(RouterId r, PortIndex p, bool min_only) const {
  const CreditLedger& ledger = ledger_[static_cast<std::size_t>(link_at(r, p))];
  return min_only ? ledger.occupied_min_port() : ledger.occupied_port();
}

int Network::vc_occupancy(RouterId r, PortIndex p, VcIndex vc,
                          bool min_only) const {
  const CreditLedger& ledger = ledger_[static_cast<std::size_t>(link_at(r, p))];
  return min_only ? ledger.occupied_min(vc) : ledger.occupied(vc);
}

int Network::input_occupancy(RouterId r, PortIndex p, VcIndex vc) const {
  return in_[static_cast<std::size_t>(input_at(r, p))].occupancy(vc);
}

void Network::debug_dump_stuck(Cycle now, Cycle min_age) const {
  if (!debug_stuck_) return;  // opt-in: see FLEXNET_DEBUG_STUCK
  int shown = 0;
  for (RouterId r = 0; r < topo_->num_routers() && shown < 40; ++r) {
    const int inputs = num_inputs(r);
    for (PortIndex p = 0; p < inputs; ++p) {
      const InputBuffer& buf = in_[static_cast<std::size_t>(input_at(r, p))];
      for (VcIndex vc = 0; vc < buf.num_vcs(); ++vc) {
        const PacketRef href = buf.front(vc);
        if (href == kInvalidPacketRef) continue;
        const Packet& head = pool_[href];
        if (now - head.created < min_age) continue;
        std::string trace;
        if (static_cast<std::size_t>(href) < traces_.size())
          for (const std::int16_t hop : traces_[static_cast<std::size_t>(href)])
            trace += std::to_string(hop) + ">";
        // Replay the routing decision for this head.
        std::string why;
        {
          std::vector<RouteOption> opts;
          Rng rng(1);
          routing_->route(head, r, rng, opts);
          for (const auto& opt : opts) {
            why += " opt[port=" + std::to_string(opt.out_port) +
                   (opt.ejection ? "(eject)" : "") +
                   " type=" + std::string(to_string(opt.hop_type)) +
                   " intended=" + opt.intended_after.to_string() +
                   " escape=" + opt.escape_after.to_string() + ":";
            if (!opt.ejection) {
              std::vector<VcCandidate> cands;
              HopContext ctx;
              ctx.cls = head.cls;
              ctx.hop_type = opt.hop_type;
              ctx.position = head.vc_position;
              ctx.floors = {head.type_floors[0], head.type_floors[1]};
              ctx.intended_after = opt.intended_after;
              ctx.escape_after = opt.escape_after;
              policy_->candidates(ctx, cands);
              const auto& lg = ledger_[static_cast<std::size_t>(link_at(r, opt.out_port))];
              const auto& ou = out_[static_cast<std::size_t>(link_at(r, opt.out_port))];
              why += "obuf=" + std::to_string(ou.occupancy()) + "/" +
                     std::to_string(ou.capacity());
              for (const auto& c : cands)
                why += " vc" + std::to_string(c.phys) +
                       (c.safe ? "S" : "o") +
                       "free=" + std::to_string(lg.free_for(c.phys));
            }
            why += "]";
          }
        }
        std::fprintf(stderr,
                     "stuck r=%d port=%d vc=%d pos=%d cls=%d kind=%d "
                     "valiant=%d reached=%d hops=%d age=%lld src_r=%d dst_r=%d "
                     "pkts_in_vc=%d trace=%s\n",
                     r, p, vc, head.vc_position,
                     static_cast<int>(head.cls),
                     static_cast<int>(head.route_kind), head.valiant,
                     head.valiant_reached, head.hops,
                     static_cast<long long>(now - head.created),
                     topo_->router_of_node(head.src),
                     topo_->router_of_node(head.dst), buf.packets(vc),
                     (trace + why).c_str());
        if (++shown >= 40) return;
      }
    }
  }
}

void Network::trace_packet(const Packet& pkt, PacketRef ref, Cycle now) const {
  // One Chrome-trace complete event per consumed packet: ts/dur are the
  // packet's in-network lifetime in cycles (rendered as microseconds —
  // Perfetto's timeline is unit-agnostic), tid is the pool slot so spans
  // on one track never overlap (a slot holds one live packet at a time).
  std::string route;
  if (static_cast<std::size_t>(ref) < traces_.size()) {
    for (const std::int16_t hop : traces_[static_cast<std::size_t>(ref)]) {
      if (!route.empty()) route += '>';
      route += std::to_string(hop);
    }
  }
  std::ostringstream args;
  args << "{\"src\":" << pkt.src << ",\"dst\":" << pkt.dst
       << ",\"hops\":" << pkt.hops << ",\"size\":" << pkt.size
       << ",\"route\":\"" << route << "\"}";
  trace_->complete("packet", "pkt" + std::to_string(pkt.id), trace_pid_,
                   static_cast<int>(ref), static_cast<double>(pkt.injected),
                   static_cast<double>(now - pkt.injected), args.str());
}

void Network::step(Cycle now) {
  FLEXNET_TELEM(if (telem_.enabled())
                    telem_.on_step(due_lane_work(now), pending_alloc_work(),
                                   due_send_work(now), pool_.live()));
  // Phases run one at a time across all domains with a full barrier in
  // between (DomainTeam::run); staged cross-domain effects merge serially
  // at the barrier. Data lanes are swept by receiver domain, credit lanes
  // by owner domain, allocation and sending by the router's own domain —
  // every array element has exactly one writer per phase.
  team_->run([this, now](int d) { deliver_data(d, now); });
  flush_lane_adds();  // cut-through credits may cross domains
  team_->run([this, now](int d) { deliver_credits(d, now); });
  routing_->update(now);
  step_nodes(now);
  team_->run([this, now](int d) {
    DomainScratch& ds = scratch_[static_cast<std::size_t>(d)];
    // Fire the ejection wakes due this cycle before sweeping: the slots
    // they arm (and their routers) must arbitrate in this allocation pass.
    auto& due = eject_wake_[static_cast<std::size_t>(d)][static_cast<
        std::size_t>(now % static_cast<Cycle>(wake_ring_))];
    for (const std::int32_t e : due) {
      const int gi = e >> 6;
      const RouterId r = input_router_[static_cast<std::size_t>(gi)];
      arm_slot(r, gi, static_cast<VcIndex>(e & 63));
      alloc_sets_[static_cast<std::size_t>(d)].add(r);
    }
    due.clear();
    alloc_sets_[static_cast<std::size_t>(d)].sweep([&](std::int32_t r) {
      allocate(r, now, ds);
      return router_armed_[static_cast<std::size_t>(r)] > 0;
    });
  });
  commit_allocate(now);
  team_->run([this, now](int d) {
    DomainScratch& ds = scratch_[static_cast<std::size_t>(d)];
    send_wheel_[static_cast<std::size_t>(d)].sweep(
        now, [&](std::int32_t li) { send_link(li, now, ds); });
  });
  flush_lane_adds();  // sent data may land in another domain
}

void Network::step_nodes(Cycle now) {
  // Serial, ascending domain order over contiguous node ranges: nodes act
  // in ascending id order, so packet ids and pool slots are handed out in
  // the order of a full node scan.
  for (int d = 0; d < domains_; ++d) {
    TimeWheel& wheel = node_wheel_[static_cast<std::size_t>(d)];
    wheel.sweep(now, [&](std::int32_t n) {
      const Cycle due = nodes_[static_cast<std::size_t>(n)]->step(now, *this);
      wheel.add(n, wheel.clamp(due));
    });
  }
}

void Network::deliver_data(int d, Cycle now) {
  DomainScratch& ds = scratch_[static_cast<std::size_t>(d)];
  data_wheel_[static_cast<std::size_t>(d)].sweep(now, [&](std::int32_t li) {
    DirLink& link = links_[static_cast<std::size_t>(li)];
    while (!link.data.empty() && link.data.front().arrive <= now) {
      const FlyingPacket fp = link.data.front();
      link.data.pop_front();
      const int gi = input_at(link.to, link.to_port);
      if (!flit_) {
        in_[static_cast<std::size_t>(gi)].push(fp.vc, fp.ref,
                                               pool_[fp.ref].size);
        FLEXNET_TELEM(if (telem_.enabled())
                          telem_.on_delivery(li, pool_[fp.ref].size));
        ++router_buffered_[static_cast<std::size_t>(link.to)];
        arm_slot(link.to, gi, fp.vc);
        alloc_sets_[static_cast<std::size_t>(d)].add(link.to);
        continue;
      }
      // Flit-level flow control: one event per flit. The head claims a
      // buffer slot and becomes routable (cut-through: the tail may still
      // be in flight); body flits either join their head in the buffer or
      // — when the packet was already granted onward — cut through the
      // router entirely, crediting the upstream sender right away and
      // advancing the outbound stream's availability count.
      FLEXNET_TELEM(if (telem_.enabled()) telem_.on_delivery(li, 1));
      if (fp.seq == 0) {
        in_[static_cast<std::size_t>(gi)].push(fp.vc, fp.ref, 1);
        ++router_buffered_[static_cast<std::size_t>(link.to)];
        arm_slot(link.to, gi, fp.vc);
        alloc_sets_[static_cast<std::size_t>(d)].add(link.to);
        continue;
      }
      TransitTail& tail = transit_[static_cast<std::size_t>(li)];
      if (tail.ref == fp.ref && tail.remaining > 0) {
        // The freed upstream slot travels back per flit. The credit lane
        // belongs to this link's owner domain, which sweeps it in the
        // credits phase — schedule it in that domain's calendar.
        link.credits.push_back(FlyingCredit{fp.vc, 1, tail.kind,
                                            now + link.latency});
        add_credit_link(li, now + link.latency, ds);
        --tail.remaining;
        if (tail.remaining == 0) tail = TransitTail{};
        FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit_transit(li));
        continue;
      }
      // Body flit joining its buffered head. add_phit pins the no-
      // interleaving invariant: the flit must belong to the newest packet
      // on its VC. A head sleeping on its incomplete tail re-arms here —
      // this is the arrival edge it waits for.
      in_[static_cast<std::size_t>(gi)].add_phit(fp.vc, fp.ref);
      if (in_[static_cast<std::size_t>(gi)].front(fp.vc) == fp.ref) {
        arm_slot(link.to, gi, fp.vc);
        alloc_sets_[static_cast<std::size_t>(d)].add(link.to);
      }
    }
  });
}

void Network::deliver_credits(int d, Cycle now) {
  // Credits travel on the reverse channel back to the sender's ledger.
  // Ledgers are link-indexed, so the owning ledger of link li *is*
  // ledger_[li]: build() bakes the link→(owner, port) mapping into the
  // flat index itself — no per-cycle owner-recovery scan. Credits are
  // pushed at least one cycle ahead of their arrival, so draining them in
  // a separate phase after all data movement is byte-identical to the old
  // per-link data-then-credits interleave.
  credit_wheel_[static_cast<std::size_t>(d)].sweep(now, [&](std::int32_t li) {
    DirLink& link = links_[static_cast<std::size_t>(li)];
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
    // A lane is visited exactly at its arrival cycles, so every visit
    // drains at least one credit.
    while (!link.credits.empty() && link.credits.front().arrive <= now) {
      const FlyingCredit& fc = link.credits.front();
      ledger.on_credit(fc.vc, fc.phits, fc.kind);
      FLEXNET_TELEM(if (telem_.enabled()) telem_.on_credit(li, fc.phits));
      link.credits.pop_front();
    }
    // Ledger space only ever grows here — wake every slot sleeping on it.
    fire_waiters(link_owner_[static_cast<std::size_t>(li)], li);
  });
}

void Network::fire_waiters(RouterId r, int li) {
  auto& waiters = link_waiters_[static_cast<std::size_t>(li)];
  if (waiters.empty()) return;
  for (const std::int32_t e : waiters) {
    const int gi = e >> 6;
    const auto vc = static_cast<VcIndex>(e & 63);
    commits_[static_cast<std::size_t>(
                 commit_index_[static_cast<std::size_t>(gi)] + vc)]
        .wait_link = -1;
    arm_slot(r, gi, vc);
  }
  waiters.clear();
  alloc_sets_[static_cast<std::size_t>(
                  router_domain_[static_cast<std::size_t>(r)])]
      .add(r);
}

void Network::flush_lane_adds() {
  // Ascending-domain merge of the cross-domain outboxes. Additions are
  // idempotent and slots are swept in id order, so the merge order never
  // shows in results — this loop only needs to be serial, not ordered.
  for (int d = 0; d < domains_; ++d) {
    DomainScratch& ds = scratch_[static_cast<std::size_t>(d)];
    for (const LaneAdd& a : ds.credit_adds)
      credit_wheel_[static_cast<std::size_t>(
                        link_owner_domain_[static_cast<std::size_t>(a.li)])]
          .add(a.li, a.at);
    ds.credit_adds.clear();
    for (const LaneAdd& a : ds.data_adds)
      data_wheel_[static_cast<std::size_t>(
                      link_to_domain_[static_cast<std::size_t>(a.li)])]
          .add(a.li, a.at);
    ds.data_adds.clear();
  }
}

void Network::commit_allocate(Cycle now) {
  // Barrier after the allocation phase: fold per-domain counters and apply
  // the staged global consume effects in ascending domain order — over
  // contiguous router ranges that is exactly the serial ascending-router
  // grant order, so metrics accumulate in the same sequence (Welford means
  // are floating-point-order sensitive) and pool slots free in the same
  // LIFO order.
  for (int d = 0; d < domains_; ++d) {
    DomainScratch& ds = scratch_[static_cast<std::size_t>(d)];
    if (ds.granted) {
      last_grant_ = now;
      ds.granted = false;
    }
    total_grants_ += ds.grants;
    escape_grants_ += ds.escapes;
    overflow_picks_ += ds.overflow;
    lowest_picks_ += ds.lowest;
    re_requests_ += ds.re_requests;
    ds.grants = ds.escapes = ds.overflow = ds.lowest = ds.re_requests = 0;
    for (const StagedConsume& sc : ds.consumed) {
      const Packet& pkt = pool_[sc.ref];
      if (trace_ != nullptr) trace_packet(pkt, sc.ref, now);
      metrics_.on_consumed(pkt, sc.completion);
      if (nodes_[static_cast<std::size_t>(pkt.dst)]->consume_spawns_reply(pkt))
        metrics_.on_generated(config_.effective_packet_phits());
      pool_.release(sc.ref);
    }
    ds.consumed.clear();
  }
  flush_lane_adds();  // grants push upstream credits across domains
}

bool Network::try_inject(NodeId n, Packet& pkt, Cycle now) {
  const RouterId r = topo_->router_of_node(n);
  const int node_local = n % topo_->concentration();
  const PortIndex ip = net_ports(r) + node_local;
  InputBuffer& buf = in_[static_cast<std::size_t>(input_at(r, ip))];
  // Reactive traffic keeps the last injection VC exclusive to replies so
  // blocked requests can never starve reply injection (protocol deadlock
  // avoidance extends to the injection queues).
  VcIndex lo = 0;
  VcIndex hi = config_.injection_vcs;
  if (config_.reactive) {
    if (pkt.cls == MsgClass::kRequest)
      hi = config_.injection_vcs - 1;
    else
      lo = config_.injection_vcs - 1;
  }
  VcIndex best = kInvalidVc;
  int best_free = -1;
  for (VcIndex v = lo; v < hi; ++v) {
    if (!buf.can_accept(v, pkt.size)) continue;
    const int free = buf.free_for(v);
    if (free > best_free) {
      best = v;
      best_free = free;
    }
  }
  if (best == kInvalidVc) return false;
  pkt.id = next_packet_id_++;
  pkt.injected = now;
  pkt.vc_position = kInjectionPosition;
  const PacketRef ref = pool_.alloc(pkt);
  if (record_routes_) {
    if (traces_.size() <= static_cast<std::size_t>(ref))
      traces_.resize(static_cast<std::size_t>(ref) + 1);
    traces_[static_cast<std::size_t>(ref)].clear();
  }
  // Every pool slot enters the network here (serial node phase), so
  // growing the flit side store now keeps the parallel grant phase free of
  // resizes.
  if (flit_ && flit_src_link_.size() <= static_cast<std::size_t>(ref))
    flit_src_link_.resize(static_cast<std::size_t>(ref) + 1, -1);
  buf.push(best, ref, pkt.size);
  FLEXNET_TELEM(if (telem_.enabled()) telem_.on_injection(r));
  ++router_buffered_[static_cast<std::size_t>(r)];
  arm_slot(r, input_at(r, ip), best);
  alloc_sets_[static_cast<std::size_t>(
                  router_domain_[static_cast<std::size_t>(r)])]
      .add(r);
  return true;
}

bool Network::find_action(RouterId r, PortIndex ip, VcIndex vc, Cycle now,
                          Request& req, DomainScratch& ds) {
  const int gi = input_at(r, ip);
  InputBuffer& buf = in_[static_cast<std::size_t>(gi)];
  const PacketRef href = buf.front(vc);
  if (href == kInvalidPacketRef) {
    disarm_slot(r, gi, vc);  // re-armed by the next push on this slot
    return false;
  }
  const Packet& head = pool_[href];
  // Downstream phits a grant must see in the ledger: wormhole claims only
  // the head flit now (body flits claim one by one as they serialize);
  // VCT and packet mode claim the whole packet up front.
  const int ledger_need =
      flow_control_ == FlowControl::kWormhole ? 1 : head.size;

  Commitment& commit = commits_[static_cast<std::size_t>(
      commit_index_[static_cast<std::size_t>(gi)] + vc)];

  // The proposal carries only the slot and output lane; grant() re-fetches
  // the committed option from `commit`, which is immutable between this
  // fill and the grant (both happen inside the same allocate pass).
  const auto fill_request = [&](int output) {
    req.in_port = ip;
    req.in_vc = vc;
    req.output = output;
  };

  // Puts the slot to sleep on its committed output link: disarmed until
  // the link's next credit return or output-buffer departure fires the
  // waiter list. wait_link dedupes the subscription (a safe commitment
  // always re-sleeps on the same link, so one live entry suffices; a stale
  // entry from a previous head fires a harmless idempotent re-arm).
  const auto sleep_on_link = [&](int li) {
    disarm_slot(r, gi, vc);
    std::int32_t& wl = commit.wait_link;
    if (wl != li) {
      link_waiters_[static_cast<std::size_t>(li)].push_back(
          (static_cast<std::int32_t>(gi) << 6) | vc);
      wl = li;
    }
  };

  // Revalidate an existing commitment (one-shot VC allocation: the packet
  // waits for the committed VC rather than hopping to whichever VC has
  // credits this cycle). Every entry here is a repeat arbitration attempt
  // for an already-committed packet — the work pruning exists to remove.
  if (commit.pkt == head.id) {
    ++ds.re_requests;
    if (commit.ejection) {
      if (flit_ && buf.front_phits(vc) < head.size) {
        disarm_slot(r, gi, vc);  // re-armed per arriving body flit
        return false;
      }
      const int out =
          output_index_[static_cast<std::size_t>(r)] +
          eject_output_index(r, head.dst % topo_->concentration(), head.cls);
      if (out_matched_[static_cast<std::size_t>(out)]) return false;
      if (!nodes_[static_cast<std::size_t>(head.dst)]->can_consume(head.cls,
                                                                   now)) {
        // Consumption is the safe sink: wait. A port-busy block clears at
        // a known cycle — park in the wake calendar instead of retrying;
        // a reply-queue block (reactive) has no timer, so stay armed.
        const Cycle free_at =
            nodes_[static_cast<std::size_t>(head.dst)]->consume_free_at(
                head.cls);
        if (free_at > now) schedule_eject_wake(ds, r, gi, vc, free_at, now);
        return false;
      }
      fill_request(out);
      return true;
    }
    const int li = link_at(r, commit.out_port);
    const bool resource_ok =
        out_[static_cast<std::size_t>(li)].can_reserve(head.size) &&
        ledger_[static_cast<std::size_t>(li)].can_send(commit.out_vc,
                                                       ledger_need);
    const bool feasible =
        resource_ok &&
        !out_matched_[static_cast<std::size_t>(
            output_index_[static_cast<std::size_t>(r)] + commit.out_port)];
    if (feasible) {
      fill_request(output_index_[static_cast<std::size_t>(r)] +
                   commit.out_port);
      return true;
    }
    if (commit.safe) {
      // Downstream resources are only consumed for the rest of this
      // allocate call, so a resource block holds until a credit returns or
      // the output buffer drains — sleep on those edges. A block on the
      // output being matched alone is transient: stay armed and retry.
      if (!resource_ok) sleep_on_link(li);
      return false;
    }
    commit.pkt = -1;  // opportunistic window closed: re-allocate below
  }

  // (Re)run VC allocation for the head packet. When the routing algorithm
  // is draw-free and VC selection consumes no randomness this whole pass
  // is pure, so a fully blocked head can sleep on its blocking links'
  // wake edges instead of re-routing every cycle; `transient` (blocked
  // only by an output matched this pass) forces a retry, and any blocked
  // option beyond the subscription buffer conservatively does the same.
  bool transient = false;
  int block_li[4];
  int blocks = 0;
  ds.options.clear();
  routing_->route(head, r, rng_[static_cast<std::size_t>(r)], ds.options);
  for (const RouteOption& opt : ds.options) {
    if (opt.ejection) {
      if (flit_ && buf.front_phits(vc) < head.size) {
        // No commitment yet: with a pure pass the head can sleep until
        // its next body flit lands (add_phit re-arms the front slot);
        // otherwise the retry must re-draw the routing RNG every cycle.
        if (fresh_prune_ok_) disarm_slot(r, gi, vc);
        return false;
      }
      const int out =
          output_index_[static_cast<std::size_t>(r)] +
          eject_output_index(r, head.dst % topo_->concentration(), head.cls);
      commit.assign(head.id, opt, kInvalidVc, -1, /*is_safe=*/true);
      if (out_matched_[static_cast<std::size_t>(out)]) return false;
      if (!nodes_[static_cast<std::size_t>(head.dst)]->can_consume(head.cls,
                                                                   now)) {
        // Freshly committed (safe): revalidation is RNG-free from here on,
        // so a port-busy block can park in the wake calendar too.
        const Cycle free_at =
            nodes_[static_cast<std::size_t>(head.dst)]->consume_free_at(
                head.cls);
        if (free_at > now) schedule_eject_wake(ds, r, gi, vc, free_at, now);
        return false;
      }
      fill_request(out);
      return true;
    }

    const int li = link_at(r, opt.out_port);
    OutputUnit& ou = out_[static_cast<std::size_t>(li)];
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];

    HopContext ctx;
    ctx.cls = head.cls;
    ctx.hop_type = opt.hop_type;
    ctx.position = head.vc_position;
    ctx.floors = {head.type_floors[0], head.type_floors[1]};
    ctx.intended_after = opt.intended_after;
    ctx.escape_after = opt.escape_after;
    ds.cands.clear();
    policy_->candidates(ctx, ds.cands);
    if (ds.cands.empty()) continue;  // hop inadmissible: next option

    // An on/off ledger signalling "stop" blocks the whole port (the
    // select_vc filter below only sees per-VC free space, so the
    // port-level off bit must gate here). The output-matched bit is kept
    // apart from the resource conditions: it clears when this pass ends,
    // while the others clear on link wake edges — the sleep decision
    // below needs to know which kind blocked.
    const bool out_is_matched = out_matched_[static_cast<std::size_t>(
        output_index_[static_cast<std::size_t>(r)] + opt.out_port)];
    const bool output_free =
        !out_is_matched && ou.can_reserve(head.size) &&
        !(ledger.on_off_enabled() && ledger.is_off());
    // Prefer a candidate that can move right now.
    if (output_free) {
      const int sel = select_vc(
          selection_, ds.cands,
          [&ledger](VcIndex v) { return ledger.free_for(v); }, ledger_need,
          rng_[static_cast<std::size_t>(r)]);
      if (sel >= 0) {
        const VcCandidate& cand = ds.cands[static_cast<std::size_t>(sel)];
        commit.assign(head.id, opt, cand.phys, cand.position, cand.safe);
        fill_request(output_index_[static_cast<std::size_t>(r)] +
                     opt.out_port);
        if (cand.position > ds.cands.front().position)
          ++ds.overflow;
        else
          ++ds.lowest;
        return true;
      }
    }
    // Nothing movable: commit to a safe candidate (waitable) if one exists.
    // The *lowest* safe position is chosen — the reference-path slot whose
    // credits return first by the template-order induction, and the choice
    // preserving the most headroom for the remaining hops.
    int best = -1;
    for (std::size_t i = 0; i < ds.cands.size(); ++i) {
      if (ds.cands[i].safe) {
        best = static_cast<int>(i);
        break;
      }
    }
    if (best >= 0) {
      const VcCandidate& cand = ds.cands[static_cast<std::size_t>(best)];
      commit.assign(head.id, opt, cand.phys, cand.position, /*is_safe=*/true);
      // Wait for the committed VC's credits. A safe commitment is
      // revalidated without RNG from here on, so when the block is on
      // downstream resources the slot can sleep on the link's wake edges;
      // if only the output is matched this pass, retry (next pass may
      // grant it).
      if (!ou.can_reserve(head.size) ||
          !ledger.can_send(commit.out_vc, ledger_need))
        sleep_on_link(li);
      return false;
    }
    // Only opportunistic candidates and none movable: fall through to the
    // escape option (SIII-A: "packets revert to the corresponding safe
    // path as an escape path"). Record why this option is stuck so the
    // exhausted-loop exit can sleep a pure head on the right edges: a
    // matched output clears at end of pass (transient — retry); anything
    // else (output buffer full, on/off stop, credit starvation) clears on
    // this link's waiter-firing edges.
    if (out_is_matched) {
      transient = true;
    } else if (blocks < 4) {
      block_li[blocks++] = li;
    } else {
      transient = true;  // subscription buffer full: stay armed
    }
  }
  if (fresh_prune_ok_ && !transient) {
    // Every option is blocked on link-edge resources (or statically
    // inadmissible — candidates depend only on the packet and option, so
    // those can never come back): sleep until a blocking link fires.
    // With several blocked links the slot subscribes to each; wait_link
    // can dedupe only one of them, and the resulting stale entries fire
    // harmless idempotent re-arms.
    disarm_slot(r, gi, vc);
    std::int32_t& wl = commit.wait_link;
    for (int i = 0; i < blocks; ++i) {
      if (wl == block_li[i]) continue;
      link_waiters_[static_cast<std::size_t>(block_li[i])].push_back(
          (static_cast<std::int32_t>(gi) << 6) | vc);
    }
    if (blocks > 0) wl = block_li[blocks - 1];
  }
  return false;  // armed unless pruned: a re-run may re-draw routing RNG
}

bool Network::stage1_pick(RouterId r, PortIndex ip, Cycle now, Request& req,
                          DomainScratch& ds) {
  const int gi = input_at(r, ip);
  if (armed_[static_cast<std::size_t>(gi)] == 0) return false;
  RoundRobinArbiter& arb = in_arb_[static_cast<std::size_t>(gi)];
  const int width = arb.width();
  const int ptr = arb.pointer();
  for (int i = 0; i < width; ++i) {
    const VcIndex vc = static_cast<VcIndex>((ptr + i) % width);
    // Disarmed slots are exactly those whose find_action would return
    // false with no side effects and no RNG draw — skipping them is
    // byte-identical to evaluating them.
    if ((armed_[static_cast<std::size_t>(gi)] >> vc & 1) == 0) continue;
    if (find_action(r, ip, vc, now, req, ds)) return true;
  }
  return false;
}

void Network::allocate(RouterId r, Cycle now, DomainScratch& ds) {
  // Pruning fast-path: a router whose every input slot is asleep would run
  // stage 1 to completion with zero proposals and zero side effects.
  if (router_armed_[static_cast<std::size_t>(r)] == 0) return;
  const int in0 = in_index_[static_cast<std::size_t>(r)];
  const int inputs = in_index_[static_cast<std::size_t>(r) + 1] - in0;
  const int out0 = output_index_[static_cast<std::size_t>(r)];
  const int outputs = output_index_[static_cast<std::size_t>(r) + 1] - out0;
  const int speedup = config_.speedup;
  const int alloc_iters = config_.alloc_iters;

  for (int pass = 0; pass < speedup; ++pass) {
    std::uint64_t matched_in = 0;
    // Inputs whose only armed slot lost to an output already matched this
    // pass: their re-evaluation in later iterations would take the
    // revalidation path straight to the matched-output exit — no proposal,
    // no side effects, no RNG — so the scan skips them. Cleared with the
    // matched bits when the next pass resets out_matched_.
    std::uint64_t lost_in = 0;
    if (!port_masks_ok_)
      std::fill_n(in_matched_.begin() + in0, inputs, static_cast<char>(0));
    std::fill_n(out_matched_.begin() + out0, outputs, static_cast<char>(0));
    // With a pure allocation pass (draw-free routing, draw-free VC
    // selection) every blocking condition is monotone while the pass
    // runs: outputs only get matched, buffers only fill, credits only
    // drain. An input that failed to propose in one iteration therefore
    // cannot propose in a later one — only the iteration's *losers*
    // (proposed, not granted) remain contenders, and later iterations
    // scan exactly those. Impure configurations re-scan everything: a
    // blocked fresh head re-draws routing RNG per evaluation, and
    // byte-equality pins that stream.
    std::uint64_t retry = ~std::uint64_t{0};
    for (int iter = 0; iter < alloc_iters; ++iter) {
      // Stage 1: every unmatched input proposes one (VC, option, output).
      // Requests batch into persistent per-output lanes; `touched` tracks
      // which lanes are live so stage 2 visits only those (in ascending
      // output order, matching the dense o-loop it replaces). With port
      // masks the scan walks only the armed unmatched inputs, lowest
      // first — the same ascending port order as the dense loop.
      ds.touched.clear();
      std::uint64_t proposed = 0;
      if (port_masks_ok_) {
        std::uint64_t pend = armed_inputs_[static_cast<std::size_t>(r)] &
                             ~matched_in & ~lost_in;
        if (fresh_prune_ok_ && iter > 0) pend &= retry;
        while (pend != 0) {
          const auto ip = static_cast<PortIndex>(__builtin_ctzll(pend));
          pend &= pend - 1;
          Request req;
          if (stage1_pick(r, ip, now, req, ds)) {
            auto& lane = requests_[static_cast<std::size_t>(req.output)];
            if (lane.empty())
              ds.touched.push_back(static_cast<std::int32_t>(req.output));
            lane.push_back(req);
            proposed |= std::uint64_t{1} << ip;
          }
        }
      } else {
        for (PortIndex ip = 0; ip < inputs; ++ip) {
          if (in_matched_[static_cast<std::size_t>(in0 + ip)]) continue;
          Request req;
          if (stage1_pick(r, ip, now, req, ds)) {
            auto& lane = requests_[static_cast<std::size_t>(req.output)];
            if (lane.empty())
              ds.touched.push_back(static_cast<std::int32_t>(req.output));
            lane.push_back(req);
          }
        }
      }
      if (ds.touched.empty()) break;
      std::sort(ds.touched.begin(), ds.touched.end());
      // Stage 2: every requested output grants one input (round-robin).
      for (const std::int32_t o : ds.touched) {
        auto& reqs = requests_[static_cast<std::size_t>(o)];
        if (!out_matched_[static_cast<std::size_t>(o)]) {
          RoundRobinArbiter& arb = out_arb_[static_cast<std::size_t>(o)];
          const Request* chosen = nullptr;
          int best_rank = inputs;
          for (const Request& req : reqs) {
            const int rank = (req.in_port - arb.pointer() + inputs) % inputs;
            if (rank < best_rank) {
              best_rank = rank;
              chosen = &req;
            }
          }
          grant(r, *chosen, now, ds);
          // Allocator contention: every proposal this output saw is a
          // request; all but the granted one are conflicts (a proposal never
          // targets an already-matched output, so requests = grants +
          // conflicts).
          FLEXNET_TELEM(if (telem_.enabled()) {
            telem_.on_requests(r, static_cast<int>(reqs.size()));
            telem_.on_conflicts(r, static_cast<int>(reqs.size()) - 1);
          });
          if (port_masks_ok_) {
            matched_in |= std::uint64_t{1} << chosen->in_port;
            if (iter + 1 < alloc_iters) {
              // A loser re-scanned next iteration finds its committed
              // output matched and returns without proposing. That exit
              // is silent only for a *safe* commitment held by the
              // input's sole armed slot (an unsafe one re-allocates —
              // possibly drawing routing RNG — and other armed VCs on
              // the input still deserve their scan), so exactly those
              // inputs drop out of the remaining iterations.
              for (const Request& q : reqs) {
                if (&q == chosen) continue;
                const int lgi = input_at(r, q.in_port);
                if (armed_[static_cast<std::size_t>(lgi)] !=
                    std::uint64_t{1} << q.in_vc)
                  continue;
                const Commitment& lc = commits_[static_cast<std::size_t>(
                    commit_index_[static_cast<std::size_t>(lgi)] + q.in_vc)];
                if (lc.safe)
                  lost_in |= std::uint64_t{1} << q.in_port;
              }
            }
          }
          else
            in_matched_[static_cast<std::size_t>(in0 + chosen->in_port)] =
                true;
          out_matched_[static_cast<std::size_t>(o)] = true;
          in_arb_[static_cast<std::size_t>(input_at(r, chosen->in_port))]
              .advance_past(chosen->in_vc);
          arb.advance_past(chosen->in_port);
        }
        reqs.clear();
      }
      retry = proposed & ~matched_in;  // this iteration's losers
    }
  }
}

void Network::grant(RouterId r, const Request& req, Cycle now,
                    DomainScratch& ds) {
  const int gi = input_at(r, req.in_port);
  // The proposal names only the slot; the option and VC granted are those
  // the slot committed to when it proposed (immutable since: commitments
  // only change inside find_action for this same slot).
  const Commitment& cmt = commits_[static_cast<std::size_t>(
      commit_index_[static_cast<std::size_t>(gi)] + req.in_vc)];
  const BufferSlot slot = in_[static_cast<std::size_t>(gi)].pop(req.in_vc);
  --router_buffered_[static_cast<std::size_t>(r)];
  Packet& pkt = pool_[slot.ref];
  ds.granted = true;
  ++ds.grants;
  FLEXNET_TELEM(if (telem_.enabled()) telem_.on_grant(r));
  if (cmt.is_escape && pkt.valiant != kInvalidRouter &&
      !pkt.valiant_reached) {
    ++ds.escapes;
  }
  // The VC's next head (if any) carries a fresh, uncommitted packet that
  // must arbitrate; an emptied VC sleeps until the next push.
  if (in_[static_cast<std::size_t>(gi)].front(req.in_vc) == kInvalidPacketRef)
    disarm_slot(r, gi, req.in_vc);

  // Return the freed space upstream (network input ports only; injection
  // buffers are observed directly by the node). Under flit-level flow
  // control only the flits that actually reached this buffer are freed
  // now — slot.phits == pkt.size in packet mode — and a tail still in
  // flight leaves a TransitTail so the remaining flits credit upstream
  // as they arrive and feed the outbound stream's availability.
  if (req.in_port < net_ports(r)) {
    const PortDesc& desc = topo_->port(r, req.in_port);
    const int uli = link_at(desc.neighbor, desc.neighbor_port);
    DirLink& upstream = links_[static_cast<std::size_t>(uli)];
    // This cycle's credits are already swept: a zero-latency credit lands
    // next cycle, as a lane drained at its first sweep after arrival would.
    const Cycle arrive = now + std::max(upstream.latency, 1);
    upstream.credits.push_back(FlyingCredit{
        req.in_vc, slot.phits, pkt.credited_kind, arrive});
    add_credit_link(uli, arrive, ds);
    if (flit_ && slot.phits < pkt.size) {
      TransitTail& tail = transit_[static_cast<std::size_t>(uli)];
      FLEXNET_CHECK(tail.ref == kInvalidPacketRef);
      tail = TransitTail{slot.ref, pkt.size - slot.phits, req.in_vc,
                         pkt.credited_kind};
    }
  }
  if (flit_ && !cmt.ejection) {
    // Where the outbound stream finds this packet's TransitTail (or -1:
    // fully arrived / injected — injection buffers hold whole packets).
    const bool in_flight =
        req.in_port < net_ports(r) && slot.phits < pkt.size;
    const PortDesc* desc =
        in_flight ? &topo_->port(r, req.in_port) : nullptr;
    // flit_src_link_ was presized at injection (every ref is injected
    // before it can be granted), so this is a plain store — no resize
    // racing with concurrent domains.
    flit_src_link_[static_cast<std::size_t>(slot.ref)] =
        in_flight ? link_at(desc->neighbor, desc->neighbor_port) : -1;
  }

  if (cmt.ejection) {
    // Node-local effects apply now (the destination node belongs to this
    // router, hence this domain); global effects — trace, metrics, reply
    // generation accounting, pool release — are staged and flushed in
    // ascending-domain (= ascending-router) order at commit_allocate so
    // parallel domains reproduce the serial order byte for byte.
    Node& node = *nodes_[static_cast<std::size_t>(pkt.dst)];
    const Cycle completion = node.consume(pkt, now);
    if (node.consume_spawns_reply(pkt)) {
      // The reply becomes injectable at the completion cycle.
      FLEXNET_DCHECK(router_domain_[static_cast<std::size_t>(r)] == ds.domain);
      TimeWheel& wheel = node_wheel_[static_cast<std::size_t>(ds.domain)];
      wheel.add(pkt.dst, wheel.clamp(completion));
    }
    ds.consumed.push_back(StagedConsume{slot.ref, completion});
    return;
  }

  pkt.route_kind = cmt.kind_after;
  pkt.credited_kind = pkt.route_kind;
  pkt.valiant = cmt.valiant_after;
  pkt.valiant_reached = cmt.valiant_reached_after;
  pkt.vc_position = cmt.out_position;
  {
    const VcTemplate& tmpl = policy_->tmpl();
    const LinkType t = tmpl.at(cmt.out_position).type;
    pkt.type_floors[static_cast<int>(t)] =
        static_cast<std::int16_t>(cmt.out_position);
  }
  ++pkt.hops;
  const int li = link_at(r, cmt.out_port);
  if (record_routes_)
    traces_[static_cast<std::size_t>(slot.ref)].push_back(
        static_cast<std::int16_t>(links_[static_cast<std::size_t>(li)].to));
  // Wormhole claims only the head flit at the grant; its body flits claim
  // one by one as the link stream serializes them (send()). VCT and packet
  // mode claim the whole packet here.
  const int claim =
      flow_control_ == FlowControl::kWormhole ? 1 : pkt.size;
  ledger_[static_cast<std::size_t>(li)].on_send(cmt.out_vc, claim,
                                                pkt.route_kind);
  FLEXNET_TELEM(if (telem_.enabled()) {
    // Occupancy is sampled *after* the send lands in the ledger, so the
    // sum divided by sends gives mean sender-side occupancy at send time.
    const CreditLedger& lg = ledger_[static_cast<std::size_t>(li)];
    telem_.on_send(li, cmt.out_vc, claim, lg.occupied(cmt.out_vc),
                   lg.occupied_port());
  });
  OutputUnit& ou = out_[static_cast<std::size_t>(li)];
  // A packet entering an idle output becomes its head: schedule the link.
  // A queued head already holds an earlier slot, and a live flit stream
  // revisits the link every cycle and schedules the head when it ends.
  const bool schedule = ou.idle() &&
      !(flit_ && streams_[static_cast<std::size_t>(li)].ref != kInvalidPacketRef);
  ou.accept(slot.ref, pkt.size, cmt.out_vc, now);
  if (schedule) schedule_send(li, now, ds);
}

void Network::send_link(int li, Cycle now, DomainScratch& ds) {
  OutputUnit& ou = out_[static_cast<std::size_t>(li)];
  const RouterId r = link_owner_[static_cast<std::size_t>(li)];
  if (!flit_) {
    // An early visit (a clamped schedule) only reschedules.
    if (ou.ready_to_send(now)) {
      VcIndex vc = kInvalidVc;
      const PacketRef ref = ou.start_send(now, vc);
      // The departure freed output-buffer space: wake the slots sleeping
      // on this link's can_reserve edge.
      fire_waiters(r, li);
      DirLink& link = links_[static_cast<std::size_t>(li)];
      // The packet is eligible downstream one cycle after its head
      // arrives; its phits keep streaming behind it.
      const Cycle arrive = now + link.latency + 1;
      link.data.push_back(FlyingPacket{ref, vc, arrive, 0});
      add_data_link(li, arrive, ds);
    }
    schedule_send(li, now + 1, ds);
    return;
  }
  // Flit-level flow control: the link serializes one packet at a time,
  // one flit per cycle. The head flit leaves the cycle the stream
  // starts — the same cycle packet mode pushes its single event — so
  // with one-flit packets the two paths emit identical link events.
  LinkStream& st = streams_[static_cast<std::size_t>(li)];
  if (st.ref == kInvalidPacketRef) {
    if (!ou.ready_to_send(now)) {
      schedule_send(li, now + 1, ds);
      return;
    }
    VcIndex vc = kInvalidVc;
    const PacketRef ref = ou.start_send(now, vc);
    fire_waiters(r, li);
    const Packet& pkt = pool_[ref];
    st.ref = ref;
    st.vc = vc;
    st.next = 0;
    st.total = pkt.size;
    st.in_link = static_cast<std::size_t>(ref) < flit_src_link_.size()
                     ? flit_src_link_[static_cast<std::size_t>(ref)]
                     : -1;
    // Captured now: a later grant downstream rewrites pkt.route_kind
    // while body flits are still claiming space at this ledger.
    st.kind = pkt.route_kind;
  }
  // A live stream is revisited every cycle: stalled flits retry.
  const auto next_cycle = [&] {
    send_wheel_[static_cast<std::size_t>(ds.domain)].add(li, now + 1);
  };
  // Availability: a flit can only leave once it has arrived here. The
  // TransitTail on the inbound link counts the flits still in flight.
  int arrived = st.total;
  if (st.in_link >= 0) {
    const TransitTail& tail =
        transit_[static_cast<std::size_t>(st.in_link)];
    if (tail.ref == st.ref)
      arrived = st.total - tail.remaining;
    else
      st.in_link = -1;  // tail fully arrived; stop consulting
  }
  if (st.next >= arrived) {
    FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit_stall(li));
    next_cycle();  // wait for the tail to catch up
    return;
  }
  if (flow_control_ == FlowControl::kWormhole && st.next > 0) {
    // Body flits claim downstream space one at a time; a full buffer
    // (or an off backpressure bit) stalls the stream in place.
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
    if (!ledger.can_send(st.vc, 1)) {
      FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit_stall(li));
      next_cycle();
      return;
    }
    ledger.on_send(st.vc, 1, st.kind);
  }
  DirLink& link = links_[static_cast<std::size_t>(li)];
  const Cycle arrive = now + link.latency + 1;
  link.data.push_back(FlyingPacket{st.ref, st.vc, arrive, st.next});
  add_data_link(li, arrive, ds);
  FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit(li));
  ++st.next;
  if (st.next < st.total) {
    next_cycle();
    return;
  }
  st = LinkStream{};
  schedule_send(li, now + 1, ds);
}

}  // namespace flexnet
