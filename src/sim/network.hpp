// The network: routers, links, nodes, and one simulation step.
//
// Each router is a combined input-output buffered VCT switch (Table V):
// per-port input buffers with VCs, an iterative input-first separable
// allocator running `speedup` passes per link cycle, a 5-cycle pipeline in
// front of a small output buffer, and credit-based flow control whose
// credits travel back with the link latency.
//
// Engine layout (the event-driven core):
//   * Router state is struct-of-arrays: input buffers, arbiters,
//     commitments, output units, and credit ledgers live in flat vectors
//     indexed by global (router, port) slots via per-router offset tables
//     (`in_index_` / `link_index_` / `output_index_`, each with a sentinel).
//   * Per-VC hot state is one dependent load past those indices: an input
//     buffer (`in_[input_at]`) or credit ledger (`ledger_[link_at]`) is one
//     pointer to a block holding the port record followed by its per-VC
//     records (queue header with a cached head ref; counter pair), sized
//     to the port's VC count; commitments are 32-byte slots at
//     `commits_[commit_index_[gi] + vc]`.
//   * Packets live in a PacketPool slab from injection to consumption;
//     queues and link lanes move 4-byte PacketRefs, never whole packets.
//   * In-flight traffic sits in per-link ring-buffer event lanes
//     (EventLane) ordered by arrival cycle.
//   * Calendars (TimeWheel) key the per-cycle work by the cycle it falls
//     due, so a cycle costs the events in it, not the links and nodes
//     that exist: link lanes by their next arrival, output links by the
//     cycle their head packet can start (every cycle while a flit stream
//     is live), nodes by their next generation, injectable source-queue
//     head, or reply completion. Three rules keep every sweep identical to
//     the full scan it replaced:
//       1. every push schedules its slot — a lane push schedules the lane
//          at the event's arrival, a grant into an idle output schedules
//          the link, a consumed request schedules its node at the reply's
//          completion — and a visit that does its work reschedules itself
//          for the next (an early visit is a no-op that reschedules);
//       2. a sweep never adds to its own slot (TimeWheel::add checks
//          1 <= at - now < span); each slot visits ascending ids;
//       3. node calendars are swept serially in ascending domain order —
//          nodes are contiguous per domain, so nodes act in ascending id
//          order and packet ids and pool slots are handed out as before.
//     Routers with armed input slots are an ActiveSet (a bitmap swept in
//     ascending id order); quiescent routers cost nothing.
//   * Arbitration is pruned and batched: every input VC slot carries an
//     armed bit, and a head packet blocked on a condition that only a
//     discrete event can change (credit return, output-buffer slot free,
//     body-flit arrival) is disarmed until that exact event fires — it
//     stops re-arbitrating every cycle. Slots blocked on transient or
//     time-varying conditions (allocator matching, consumption ports) stay
//     armed and retry, preserving byte-identical results.
//   * step() runs in `sim_domains` deterministic parallel domains:
//     contiguous ascending router ranges, one phase at a time with a full
//     barrier between phases, cross-domain effects staged per domain and
//     merged in ascending domain order — so any domain count produces
//     byte-identical reports (tests/test_domains.cpp).
// Determinism invariants are spelled out in README "Engine architecture";
// tests/test_core_equivalence.cpp enforces them against golden reports.
#pragma once

#include <memory>
#include <vector>

#include "buffers/buffer_mgmt.hpp"
#include "buffers/buffer_org.hpp"
#include "buffers/credit_ledger.hpp"
#include "buffers/flow_control.hpp"
#include "buffers/input_buffer.hpp"
#include "buffers/packet_pool.hpp"
#include "common/event_lane.hpp"
#include "core/flexvc_policy.hpp"
#include "core/vc_selection.hpp"
#include "router/arbiter.hpp"
#include "router/output_unit.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/domains.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {

class TraceWriter;

class Network final : public CongestionOracle {
 public:
  explicit Network(const SimConfig& config);
  ~Network() override;

  /// Advances one link-clock cycle.
  void step(Cycle now);

  // CongestionOracle (sender-side credit occupancy of output ports).
  int port_occupancy(RouterId r, PortIndex p, bool min_only) const override;
  int vc_occupancy(RouterId r, PortIndex p, VcIndex vc,
                   bool min_only) const override;

  const Topology& topology() const { return *topo_; }
  const SimConfig& config() const { return config_; }
  FlowControl flow_control() const { return flow_control_; }
  BufferMgmt buffer_mgmt() const { return buffer_mgmt_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const VcPolicy& policy() const { return *policy_; }
  RoutingAlgorithm& routing() { return *routing_; }

  /// Telemetry counters of this network (telemetry/telemetry.hpp). Always
  /// present and shaped; updated only when compiled in (FLEXNET_TELEMETRY)
  /// *and* runtime-enabled — build() enables when the FLEXNET_TELEMETRY
  /// environment variable is set, set_telemetry_enabled overrides.
  const TelemetryCounters& telemetry() const { return telem_; }
  void set_telemetry_enabled(bool on) {
    telem_.set_enabled(on && FLEXNET_TELEMETRY != 0);
  }

  /// Opt-in per-packet lifetime spans: every consumed packet emits one
  /// Chrome-trace event into `trace` under process id `pid` (ts/dur in
  /// simulation cycles, tid = pool slot; see telemetry/trace.hpp). Also
  /// turns on the per-hop route side store so spans carry the router path.
  /// Independent of the FLEXNET_TELEMETRY compile guard — gated purely at
  /// runtime, like the FLEXNET_DEBUG_STUCK diagnostics it reuses.
  void set_trace(TraceWriter* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    record_routes_ = debug_stuck_ || trace_ != nullptr;
  }

  /// Packets inside routers/links (excludes node source queues): the
  /// quantity the deadlock watchdog monitors. Exactly the PacketPool's
  /// live count — a packet is pooled at injection and released at
  /// consumption.
  std::int64_t packets_in_network() const { return pool_.live(); }

  /// Cycle of the most recent packet movement (grant); the deadlock
  /// watchdog declares deadlock when this stops advancing while packets
  /// remain in the network.
  Cycle last_grant() const { return last_grant_; }

  /// Grants that abandoned a nonminimal trajectory for the minimal escape
  /// (opportunistic reverts, SIII-A) and total grants — diagnostic ratio.
  std::int64_t escape_grants() const { return escape_grants_; }
  std::int64_t total_grants() const { return total_grants_; }
  std::int64_t overflow_picks() const { return overflow_picks_; }
  std::int64_t lowest_picks() const { return lowest_picks_; }
  /// Arbitration attempts by packets that already held a commitment — the
  /// repeat work re-request pruning removes. grants / consumed alongside
  /// this ratio is the bench_hot_path pruning-progress oracle.
  std::int64_t re_requests() const { return re_requests_; }

  /// Moves a packet from a node into its router's injection buffer; false
  /// when every eligible injection VC is full.
  bool try_inject(NodeId n, Packet& pkt, Cycle now);

  /// Occupancy of a specific input VC of a router port (tests/inspection).
  int input_occupancy(RouterId r, PortIndex p, VcIndex vc) const;

  /// Direct read access to one input buffer (tests/inspection). Input
  /// ports are the router's network ports followed by its injection port.
  const InputBuffer& input_buffer(RouterId r, PortIndex p) const {
    return in_[static_cast<std::size_t>(input_at(r, p))];
  }
  int num_input_ports(RouterId r) const { return num_inputs(r); }

  /// Span of the event calendars (TimeWheel), in cycles.
  Cycle calendar_span() const { return send_wheel_.front().span(); }

  /// Prints every buffered head packet older than `min_age` — the stalled
  /// traffic diagnostic the deadlock watchdog triggers. Gated on the
  /// FLEXNET_DEBUG_STUCK environment variable: unless it is set (non-empty,
  /// not "0"), neither this dump nor the per-hop trace recording it feeds
  /// on costs anything — diagnostics are free on the hot path.
  void debug_dump_stuck(Cycle now, Cycle min_age) const;

 private:
  /// A packet in flight on a link (payload in the pool slab). Under
  /// flit-level flow control one event per flit travels the lane; `seq` is
  /// the flit's index within its packet (0 = head). Packet mode keeps one
  /// event per packet with seq 0.
  struct FlyingPacket {
    PacketRef ref = kInvalidPacketRef;
    VcIndex vc = kInvalidVc;
    Cycle arrive = 0;
    std::int32_t seq = 0;
  };
  struct FlyingCredit {
    VcIndex vc = kInvalidVc;
    int phits = 0;
    RouteKind kind = RouteKind::kMinimal;
    Cycle arrive = 0;
  };

  /// One directed network link plus its credit backchannel. Both lanes are
  /// rings ordered by arrival cycle (fixed latency, monotone clock).
  struct DirLink {
    RouterId to = kInvalidRouter;
    PortIndex to_port = kInvalidPort;
    int latency = 1;
    EventLane<FlyingPacket> data;
    EventLane<FlyingCredit> credits;  ///< toward this link's sender
  };

  /// One-shot VC allocation (the router's VC-allocation stage): the head
  /// packet of an input VC commits to one (output port, downstream VC) and
  /// then waits for its credits through switch allocation. A *safe*
  /// commitment may be waited on indefinitely; an opportunistic one is
  /// dropped and re-made the moment its credits disappear.
  ///
  /// Only what revalidation and grant() read is kept — the chosen option's
  /// port and the packet state it applies, not its HopSeq trajectories,
  /// which VC allocation alone consumes — so a slot fits half a cache line.
  struct Commitment {
    PacketId pkt = -1;  ///< head packet this commitment belongs to
    RouterId valiant_after = kInvalidRouter;
    PortIndex out_port = kInvalidPort;  ///< network port when !ejection
    /// Link whose waiter list holds this slot (-1: none). Not part of the
    /// commitment proper — it dedupes sleep subscriptions and outlives
    /// re-commitment — but it lives here to share the slot's cache line.
    std::int32_t wait_link = -1;
    std::int16_t out_vc = kInvalidVc;
    std::int16_t out_position = -1;
    RouteKind kind_after = RouteKind::kMinimal;
    bool ejection = false;
    bool valiant_reached_after = false;
    bool is_escape = false;
    bool safe = false;

    /// Commits `pkt` to `opt` on downstream VC `vc` at template position
    /// `position` (kInvalidVc / -1 for ejection); keeps wait_link.
    void assign(PacketId id, const RouteOption& opt, VcIndex vc, int position,
                bool is_safe) {
      pkt = id;
      valiant_after = opt.valiant_after;
      out_port = opt.out_port;
      out_vc = static_cast<std::int16_t>(vc);
      out_position = static_cast<std::int16_t>(position);
      kind_after = opt.kind_after;
      ejection = opt.ejection;
      valiant_reached_after = opt.valiant_reached_after;
      is_escape = opt.is_escape;
      safe = is_safe;
    }
  };
  static_assert(sizeof(Commitment) <= 32, "a commitment slot must stay compact");

  /// Tail of a granted packet still arriving on an inbound link (flit
  /// modes only). Body flits landing while this record is live bypass the
  /// input buffer: they credit the upstream sender immediately and feed
  /// the outbound stream's availability count. At most one record per
  /// link — a link serializes one packet at a time, so a new head cannot
  /// arrive before the previous tail completes.
  struct TransitTail {
    PacketRef ref = kInvalidPacketRef;
    std::int32_t remaining = 0;  ///< flits still to arrive
    VcIndex in_vc = kInvalidVc;
    RouteKind kind = RouteKind::kMinimal;  ///< kind upstream credits carry
  };

  /// Per-link outbound flit stream (flit modes only): the packet currently
  /// serializing onto the link at one flit per cycle. A stream stalls in
  /// place when the next flit has not yet arrived from upstream, or — under
  /// wormhole — when the downstream buffer has no space for a body flit.
  struct LinkStream {
    PacketRef ref = kInvalidPacketRef;
    VcIndex vc = kInvalidVc;
    std::int32_t next = 0;   ///< next flit sequence to emit
    std::int32_t total = 0;  ///< packet size in flits
    int in_link = -1;        ///< inbound link feeding the tail, or -1
    RouteKind kind = RouteKind::kMinimal;  ///< kind body-flit claims carry
  };

  /// A stage-1 proposal: one input port's chosen slot for this iteration
  /// and its target output lane. The option and VC chosen for it live in
  /// the slot's Commitment — grant() re-fetches them, so a proposal is 12
  /// bytes and a lane push never copies commitment state.
  struct Request {
    PortIndex in_port = kInvalidPort;
    VcIndex in_vc = kInvalidVc;
    int output = -1;  ///< unified output index (network port or ejection)
  };

  /// Ejection staged at grant time: node-local consumption state advances
  /// immediately (the destination node belongs to the granting router's
  /// domain), while the global effects — trace span, metrics, pool release
  /// — are applied at the cycle barrier in ascending domain order, which
  /// over contiguous router ranges is exactly the serial ascending-router
  /// order the single-domain engine produced.
  struct StagedConsume {
    PacketRef ref = kInvalidPacketRef;
    Cycle completion = 0;
  };

  /// A link-lane arrival scheduled from another domain.
  struct LaneAdd {
    std::int32_t li = -1;
    Cycle at = 0;
  };

  /// Per-domain hot-path scratch plus the staging lanes that make the
  /// parallel sweep deterministic: counters accumulate thread-locally and
  /// fold into the Network totals at the barrier; cross-domain calendar
  /// additions queue here and merge serially (additions are idempotent and
  /// slots are swept in id order, so merge order never shows in results).
  struct DomainScratch {
    int domain = 0;
    std::vector<RouteOption> options;
    std::vector<VcCandidate> cands;
    std::vector<std::int32_t> touched;      ///< output lanes filled this iter
    std::vector<StagedConsume> consumed;    ///< ejections for the barrier
    std::vector<LaneAdd> credit_adds;    ///< cross-domain credit arrivals
    std::vector<LaneAdd> data_adds;      ///< cross-domain data arrivals
    std::int64_t grants = 0;
    std::int64_t escapes = 0;
    std::int64_t overflow = 0;
    std::int64_t lowest = 0;
    std::int64_t re_requests = 0;
    bool granted = false;
  };

  int num_outputs(RouterId r) const;  // network ports + p*2 eject channels
  int eject_output_index(RouterId r, int node_local, MsgClass cls) const;

  void build();
  void deliver_data(int d, Cycle now);
  void deliver_credits(int d, Cycle now);
  void step_nodes(Cycle now);
  void allocate(RouterId r, Cycle now, DomainScratch& ds);
  void commit_allocate(Cycle now);
  void trace_packet(const Packet& pkt, PacketRef ref, Cycle now) const;
  bool stage1_pick(RouterId r, PortIndex ip, Cycle now, Request& req,
                   DomainScratch& ds);
  bool find_action(RouterId r, PortIndex ip, VcIndex vc, Cycle now,
                   Request& req, DomainScratch& ds);
  void grant(RouterId r, const Request& req, Cycle now, DomainScratch& ds);
  /// One output link's serializer turn at a cycle it was scheduled; the
  /// link reschedules itself while it has queued or streaming work.
  void send_link(int li, Cycle now, DomainScratch& ds);
  /// Schedules an output link with queued packets and no live stream at
  /// the cycle its head can start, not before `earliest`.
  void schedule_send(int li, Cycle earliest, DomainScratch& ds) {
    const OutputUnit& ou = out_[static_cast<std::size_t>(li)];
    if (ou.idle()) return;
    TimeWheel& wheel = send_wheel_[static_cast<std::size_t>(ds.domain)];
    wheel.add(li, wheel.clamp(std::max(ou.next_send_at(), earliest)));
  }

  // --- Re-request pruning. A slot is (global input, VC); armed means
  // stage1_pick evaluates it. Disarming is legal only in states where
  // find_action provably returns false with no side effects (and no RNG
  // draw — skipping a draw would shift the shared per-router stream), and
  // every event that could change such a state re-arms the slot:
  //   * empty VC            -> re-armed by the next push on the slot
  //   * ejection tail short -> re-armed per arriving body flit
  //   * safe commitment blocked on downstream resources -> subscribed to
  //     the committed link's waiter list (Commitment::wait_link dedupes the
  //     subscription); fired on every credit return
  //     (CreditLedger gains space only in on_credit, which also clears the
  //     on/off stop bit) and every output-buffer departure (occupancy
  //     drops only in start_send).
  void arm_slot(RouterId r, int gi, VcIndex vc) {
    std::uint64_t& bits = armed_[static_cast<std::size_t>(gi)];
    const std::uint64_t bit = std::uint64_t{1} << vc;
    if ((bits & bit) == 0) {
      if (bits == 0 && port_masks_ok_)
        armed_inputs_[static_cast<std::size_t>(r)] |=
            std::uint64_t{1}
            << (gi - in_index_[static_cast<std::size_t>(r)]);
      bits |= bit;
      ++router_armed_[static_cast<std::size_t>(r)];
    }
  }
  void disarm_slot(RouterId r, int gi, VcIndex vc) {
    std::uint64_t& bits = armed_[static_cast<std::size_t>(gi)];
    const std::uint64_t bit = std::uint64_t{1} << vc;
    if ((bits & bit) != 0) {
      bits &= ~bit;
      if (bits == 0 && port_masks_ok_)
        armed_inputs_[static_cast<std::size_t>(r)] &=
            ~(std::uint64_t{1}
              << (gi - in_index_[static_cast<std::size_t>(r)]));
      --router_armed_[static_cast<std::size_t>(r)];
    }
  }
  void fire_waiters(RouterId r, int li);

  // Sleeps an ejection-blocked slot until the consumption port frees: the
  // blocking edge is a *timer* (Node::consume_free_at), so instead of
  // re-arbitrating every cycle the slot parks in the wake calendar — a
  // per-domain ring of per-cycle buckets — and re-arms exactly when
  // can_consume's busy condition clears. Slots whose wake lies beyond the
  // ring (oversized hand-injected packets) simply stay armed. Returns
  // whether the slot went to sleep.
  bool schedule_eject_wake(DomainScratch& ds, RouterId r, int gi, VcIndex vc,
                           Cycle free_at, Cycle now) {
    if (free_at - now >= static_cast<Cycle>(wake_ring_)) return false;
    disarm_slot(r, gi, vc);
    eject_wake_[static_cast<std::size_t>(ds.domain)]
               [static_cast<std::size_t>(free_at %
                                         static_cast<Cycle>(wake_ring_))]
                   .push_back((static_cast<std::int32_t>(gi) << 6) | vc);
    return true;
  }

  // Lane pushes schedule the lane's calendar slot at the event's arrival:
  // directly when the lane's sweeping domain is the caller's own (that
  // calendar is never mid-sweep in the pushing phase), staged through the
  // domain outbox otherwise.
  void add_credit_link(int li, Cycle at, DomainScratch& ds) {
    const int d = link_owner_domain_[static_cast<std::size_t>(li)];
    if (d == ds.domain)
      credit_wheel_[static_cast<std::size_t>(d)].add(li, at);
    else
      ds.credit_adds.push_back(LaneAdd{li, at});
  }
  void add_data_link(int li, Cycle at, DomainScratch& ds) {
    const int d = link_to_domain_[static_cast<std::size_t>(li)];
    if (d == ds.domain)
      data_wheel_[static_cast<std::size_t>(d)].add(li, at);
    else
      ds.data_adds.push_back(LaneAdd{li, at});
  }
  void flush_lane_adds();

  // Read-only gauges summed across domains — the calendar slots due at
  // `now` and the allocating routers — kept as helpers so the telemetry
  // on_step hook stays a pure expression (lint L5).
  std::int64_t due_lane_work(Cycle now) const {
    std::int64_t n = 0;
    for (int d = 0; d < domains_; ++d)
      n += static_cast<std::int64_t>(
          data_wheel_[static_cast<std::size_t>(d)].due(now) +
          credit_wheel_[static_cast<std::size_t>(d)].due(now));
    return n;
  }
  std::int64_t pending_alloc_work() const {
    std::int64_t n = 0;
    for (int d = 0; d < domains_; ++d)
      n += static_cast<std::int64_t>(
          alloc_sets_[static_cast<std::size_t>(d)].size());
    return n;
  }
  std::int64_t due_send_work(Cycle now) const {
    std::int64_t n = 0;
    for (int d = 0; d < domains_; ++d)
      n += static_cast<std::int64_t>(
          send_wheel_[static_cast<std::size_t>(d)].due(now));
    return n;
  }

  // Flat-index helpers over the per-router offset tables (all carry a
  // sentinel entry, so spans are [index_[r], index_[r + 1])).
  int link_at(RouterId r, PortIndex p) const {
    return link_index_[static_cast<std::size_t>(r)] + p;
  }
  int net_ports(RouterId r) const {
    return link_index_[static_cast<std::size_t>(r) + 1] -
           link_index_[static_cast<std::size_t>(r)];
  }
  int input_at(RouterId r, PortIndex ip) const {
    return in_index_[static_cast<std::size_t>(r)] + ip;
  }
  int num_inputs(RouterId r) const {
    return in_index_[static_cast<std::size_t>(r) + 1] -
           in_index_[static_cast<std::size_t>(r)];
  }

  SimConfig config_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<VcPolicy> policy_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  VcSelection selection_ = VcSelection::kJsq;
  FlowControl flow_control_ = FlowControl::kPacket;
  BufferMgmt buffer_mgmt_ = BufferMgmt::kCredit;
  bool flit_ = false;  ///< cached is_flit_level(flow_control_)

  // --- Struct-of-arrays router state (flat, offset-table indexed). The
  // link→(owner, port) mapping is baked into the flat link index at
  // build() time: link i *is* (owner, port) = the pair link_at inverts,
  // and out_/ledger_ share that index — so the owning ledger of link i is
  // ledger_[i], with no per-cycle owner recovery.
  std::vector<DirLink> links_;      // by link index (router, network port)
  std::vector<OutputUnit> out_;        // by link index
  std::vector<CreditLedger> ledger_;   // by link index
  std::vector<int> link_index_;        // per router + sentinel
  std::vector<InputBuffer> in_;        // by global input index
  std::vector<RoundRobinArbiter> in_arb_;  // by global input index
  std::vector<Commitment> commits_;        // flat (input, vc) slots
  std::vector<int> commit_index_;  // per global input: first commit slot
  std::vector<int> in_index_;      // per router + sentinel
  std::vector<RoundRobinArbiter> out_arb_;  // by global output index
  std::vector<int> output_index_;           // per router + sentinel
  std::vector<Rng> rng_;                    // per router

  PacketPool pool_;
  std::vector<std::int32_t> router_buffered_;  // packets in input buffers

  // --- Flit-level flow control state (empty in packet mode).
  std::vector<TransitTail> transit_;  // by inbound link index
  std::vector<LinkStream> streams_;   // by outbound link index
  /// Inbound link a pool slot's tail streams in on (-1 = fully arrived or
  /// injected), recorded at grant so the outbound stream can find its
  /// TransitTail without a search. Grown lazily like traces_.
  std::vector<std::int32_t> flit_src_link_;
  // --- Deterministic parallel domains: contiguous ascending router ranges
  // (`begin[d] = R * d / D`), one calendar set per domain. Data lanes are
  // swept by the link's *receiver* domain, credit lanes and output links
  // by the link's *owner* domain, nodes by their router's domain — every
  // array element then has exactly one writer per phase. A team of one
  // (`sim_domains=1`) runs everything inline on the caller with no thread
  // machinery at all.
  int domains_ = 1;
  std::vector<std::int32_t> router_domain_;     // per router
  std::vector<RouterId> link_owner_;            // per link: (owner, port) inverse
  std::vector<std::int32_t> link_owner_domain_; // per link
  std::vector<std::int32_t> link_to_domain_;    // per link: receiver's domain
  // Calendars share one span: the next power of two above the largest
  // schedule offset the network produces (max link latency + 2, pipeline
  // latency + max packet phits).
  std::vector<TimeWheel> data_wheel_;    // per domain: links, data arriving
  std::vector<TimeWheel> credit_wheel_;  // per domain: links, credits arriving
  std::vector<TimeWheel> send_wheel_;    // per domain: output links due
  std::vector<TimeWheel> node_wheel_;    // per domain: nodes due
  std::vector<ActiveSet> alloc_sets_;    // per domain: routers with armed slots
  std::vector<DomainScratch> scratch_;   // per domain
  std::unique_ptr<DomainTeam> team_;

  // --- Pruned-arbitration state (see arm_slot/disarm_slot above).
  std::vector<std::uint64_t> armed_;        // per global input: VC bitmask
  std::vector<std::int32_t> router_armed_;  // per router: armed slot count
  std::vector<std::vector<std::int32_t>> link_waiters_;  // per link: (gi<<6)|vc
  std::vector<std::int32_t> input_router_;  // per global input: owning router
  // armed_inputs_[r]: input ports with any armed VC — stage 1 iterates
  // set bits instead of scanning every port. Valid only when every
  // router's input count fits a 64-bit word (true for every shipped
  // topology; wider radixes fall back to the dense scan).
  bool port_masks_ok_ = false;
  std::vector<std::uint64_t> armed_inputs_;  // per router
  // Uncommitted heads may sleep on their blocking resource's wake edges
  // only when re-running VC allocation is pure: a draw-free routing
  // algorithm (options are a function of packet and router alone) and a
  // VC selection function that consumes no randomness. Otherwise a
  // blocked fresh head must stay armed — the old engine re-drew from the
  // router RNG every cycle, and byte-equality pins that stream.
  bool fresh_prune_ok_ = false;
  int wake_ring_ = 1;  // wake-calendar span (max packet phits + margin)
  // Per domain: ring of per-cycle wake buckets, entries (gi<<6)|vc.
  std::vector<std::vector<std::vector<std::int32_t>>> eject_wake_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<TrafficPattern> pattern_;

  Metrics metrics_;
  Cycle last_grant_ = 0;
  std::int64_t escape_grants_ = 0;
  std::int64_t total_grants_ = 0;
  std::int64_t overflow_picks_ = 0;
  std::int64_t lowest_picks_ = 0;
  std::int64_t re_requests_ = 0;
  PacketId next_packet_id_ = 0;

  // Allocator scratch flattened into the SoA router state: request lanes
  // per *global* output and matched flags per *global* input/output, so
  // parallel domains never share a scratch line and each pass clears only
  // its own router's subranges. Sized once in build(); never resized on
  // the hot path.
  std::vector<std::vector<Request>> requests_;  // per global output
  std::vector<char> in_matched_;   // per global input
  std::vector<char> out_matched_;  // per global output

  // Opt-in diagnostics: the per-pool-slot router-route side store is
  // recorded when either consumer is active — the FLEXNET_DEBUG_STUCK
  // stalled-traffic dump or the per-packet trace spans (set_trace).
  bool debug_stuck_ = false;
  bool record_routes_ = false;
  std::vector<std::vector<std::int16_t>> traces_;  // by pool slot

  // Per-network telemetry counters; hot-path updates are compiled away
  // when FLEXNET_TELEMETRY is 0 and branch-gated on enabled() otherwise.
  TelemetryCounters telem_;
  TraceWriter* trace_ = nullptr;
  int trace_pid_ = 0;
};

}  // namespace flexnet
