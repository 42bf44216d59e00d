// Unit and property tests for buffer organizations and credit accounting.
//
// InputBuffer is one concrete class covering both organizations: a
// statically partitioned buffer is the shared_capacity == 0 case, a DAMQ
// reserves private_per_vc phits per VC and shares the rest. Queues hold
// {PacketRef, phits} slots — the tests use small integers as refs, since
// the buffer never dereferences them. Each VC's header caches its head ref
// and every VC's ring lives in one shared slot array; the layout tests pin
// both across ring wrap, growth and the 64-VC port limit.
#include <gtest/gtest.h>

#include <vector>

#include "buffers/buffer_org.hpp"
#include "buffers/credit_ledger.hpp"
#include "buffers/input_buffer.hpp"
#include "common/headed_array.hpp"
#include "common/rng.hpp"

namespace flexnet {
namespace {

// --- Statically partitioned (shared == 0).

TEST(StaticInputBuffer, FifoOrderPerVc) {
  InputBuffer buf(2, 32);
  buf.push(0, /*ref=*/1, /*phits=*/8);
  buf.push(1, 2, 8);
  buf.push(0, 3, 8);
  EXPECT_FALSE(buf.is_damq());
  EXPECT_EQ(buf.front(0), 1);
  EXPECT_EQ(buf.pop(0).ref, 1);
  EXPECT_EQ(buf.pop(0).ref, 3);
  EXPECT_EQ(buf.pop(1).ref, 2);
  EXPECT_TRUE(buf.empty(0));
  EXPECT_EQ(buf.front(0), kInvalidPacketRef);
}

TEST(StaticInputBuffer, CapacityIsPerVc) {
  InputBuffer buf(2, 16);
  EXPECT_TRUE(buf.can_accept(0, 16));
  EXPECT_FALSE(buf.can_accept(0, 17));
  buf.push(0, 1, 16);
  EXPECT_FALSE(buf.can_accept(0, 1));
  EXPECT_TRUE(buf.can_accept(1, 16));  // other VC unaffected
  EXPECT_EQ(buf.free_for(0), 0);
  EXPECT_EQ(buf.free_for(1), 16);
  EXPECT_EQ(buf.total_capacity(), 32);
}

TEST(StaticInputBuffer, OccupancyTracksPhits) {
  InputBuffer buf(2, 32);
  buf.push(0, 1, 8);
  buf.push(0, 2, 8);
  buf.push(1, 3, 8);
  EXPECT_EQ(buf.occupancy(0), 16);
  EXPECT_EQ(buf.occupancy(1), 8);
  EXPECT_EQ(buf.occupancy(), 24);
  EXPECT_EQ(buf.packets(0), 2);
  const BufferSlot popped = buf.pop(0);
  EXPECT_EQ(popped.phits, 8);
  EXPECT_EQ(buf.occupancy(0), 8);
  EXPECT_EQ(buf.occupancy(), 16);
}

TEST(StaticInputBuffer, LongFifoSurvivesRingGrowth) {
  // Push far past the ring's initial capacity to exercise growth/unwrap.
  InputBuffer buf(1, 8 * 1024);
  for (int i = 0; i < 500; ++i) buf.push(0, i, 8);
  for (int i = 0; i < 250; ++i) EXPECT_EQ(buf.pop(0).ref, i);
  for (int i = 500; i < 900; ++i) buf.push(0, i, 8);
  for (int i = 250; i < 900; ++i) ASSERT_EQ(buf.pop(0).ref, i);
  EXPECT_TRUE(buf.empty(0));
  EXPECT_EQ(buf.occupancy(), 0);
}

// --- HeadedArray: the single block behind InputBuffer and CreditLedger.

TEST(HeadedArray, HeadAndElementsShareOneBlockIndependently) {
  struct Head {
    int a = 0;
    std::vector<int> owned;  // a non-trivial head is destroyed with the block
  };
  HeadedArray<Head, std::int64_t> arr(Head{5, {1, 2, 3}}, 64);
  EXPECT_EQ(arr.size(), 64u);
  EXPECT_EQ(arr.head().a, 5);
  for (std::size_t i = 0; i < arr.size(); ++i) EXPECT_EQ(arr[i], 0);
  for (std::size_t i = 0; i < arr.size(); ++i)
    arr[i] = static_cast<std::int64_t>(i) * 3;
  arr.head().a = 9;
  arr.head().owned.push_back(4);
  HeadedArray<Head, std::int64_t> moved = std::move(arr);
  EXPECT_EQ(moved.head().a, 9);
  EXPECT_EQ(moved.head().owned.size(), 4u);
  for (std::size_t i = 0; i < moved.size(); ++i)
    EXPECT_EQ(moved[i], static_cast<std::int64_t>(i) * 3);
}

// --- Queue headers: the cached front ref and the shared ring storage.

// Checks one VC against a reference model (the slots it should hold, head
// first): front(), front_phits(), packets(), empty() and occupancy().
void expect_vc_state(const InputBuffer& buf, VcIndex vc,
                     const std::vector<BufferSlot>& model) {
  ASSERT_EQ(buf.packets(vc), static_cast<int>(model.size()));
  ASSERT_EQ(buf.empty(vc), model.empty());
  ASSERT_EQ(buf.front(vc), model.empty() ? kInvalidPacketRef : model[0].ref);
  ASSERT_EQ(buf.front_phits(vc), model.empty() ? 0 : model[0].phits);
  int occ = 0;
  for (const BufferSlot& s : model) occ += s.phits;
  ASSERT_EQ(buf.occupancy(vc), occ);
}

TEST(InputBufferLayout, CachedFrontTracksPushToEmptyAndPopToEmpty) {
  InputBuffer buf(2, 64);
  std::vector<BufferSlot> m0;
  expect_vc_state(buf, 0, m0);
  buf.push(0, 7, 8);  // push to empty sets the front
  m0.push_back({7, 8});
  expect_vc_state(buf, 0, m0);
  buf.push(0, 9, 4);  // push behind a head leaves it
  m0.push_back({9, 4});
  expect_vc_state(buf, 0, m0);
  EXPECT_EQ(buf.front(1), kInvalidPacketRef);  // other VC untouched
  EXPECT_EQ(buf.pop(0).ref, 7);  // pop advances the front
  m0.erase(m0.begin());
  expect_vc_state(buf, 0, m0);
  EXPECT_EQ(buf.pop(0).ref, 9);  // pop to empty clears it
  m0.clear();
  expect_vc_state(buf, 0, m0);
  buf.push(0, 11, 8);  // and the next push to empty sets it again
  m0.push_back({11, 8});
  expect_vc_state(buf, 0, m0);
}

TEST(InputBufferLayout, CachedFrontSurvivesRingWrapAndGrowth) {
  // Three VCs share one slot array. VC 1 wraps its ring many times at a
  // depth that never grows it, then deepens past several doublings while
  // its neighbours hold packets — every re-lay must keep all three queues
  // and their cached fronts intact.
  InputBuffer buf(3, 1 << 16);
  std::vector<std::vector<BufferSlot>> model(3);
  int next = 0;
  const auto push = [&](VcIndex vc, int phits) {
    buf.push(vc, next, phits);
    model[static_cast<std::size_t>(vc)].push_back({next, phits});
    ++next;
  };
  const auto pop = [&](VcIndex vc) {
    auto& m = model[static_cast<std::size_t>(vc)];
    const BufferSlot got = buf.pop(vc);
    ASSERT_EQ(got.ref, m.front().ref);
    ASSERT_EQ(got.phits, m.front().phits);
    m.erase(m.begin());
  };
  const auto check_all = [&] {
    for (VcIndex v = 0; v < 3; ++v)
      expect_vc_state(buf, v, model[static_cast<std::size_t>(v)]);
  };
  push(0, 8);
  push(2, 8);
  push(2, 4);
  for (int i = 0; i < 40; ++i) {  // wrap: depth oscillates 2..3
    push(1, 1 + i % 5);
    if (i >= 2) pop(1);
    check_all();
  }
  for (int i = 0; i < 300; ++i) {  // grow: depth climbs to ~150
    push(1, 2);
    if (i % 2 == 0) pop(1);
    if (i % 50 == 0) push(0, 3);
    check_all();
  }
  while (!model[1].empty()) {
    pop(1);
    check_all();
  }
  EXPECT_EQ(buf.front(0), 0);
  EXPECT_EQ(buf.front(2), 1);
}

TEST(InputBufferLayout, AddPhitGrowsTheFrontWhenItIsTheTail) {
  // Wormhole: a head flit is queued alone and routed while its body flits
  // keep arriving — each add_phit lands on a tail that is also the front.
  InputBuffer buf(2, 32);
  buf.push(1, 5, 1);
  for (int i = 2; i <= 8; ++i) {
    buf.add_phit(1, 5);
    EXPECT_EQ(buf.front(1), 5);
    EXPECT_EQ(buf.front_phits(1), i);
    EXPECT_EQ(buf.occupancy(1), i);
  }
  // A second packet behind it takes the tail; the front keeps its phits.
  buf.push(1, 6, 1);
  buf.add_phit(1, 6);
  EXPECT_EQ(buf.front(1), 5);
  EXPECT_EQ(buf.front_phits(1), 8);
  EXPECT_EQ(buf.occupancy(1), 10);
  EXPECT_EQ(buf.pop(1).phits, 8);
  EXPECT_EQ(buf.front(1), 6);
  EXPECT_EQ(buf.front_phits(1), 2);
}

TEST(InputBufferLayout, SixtyFourVcsWork) {
  // 64 VCs is the per-port limit Network::build enforces; no fixed inline
  // VC cap may be smaller.
  constexpr int kVcs = 64;
  InputBuffer buf(kVcs, 16, 64);
  EXPECT_EQ(buf.num_vcs(), kVcs);
  EXPECT_EQ(buf.total_capacity(), kVcs * 16 + 64);
  for (int round = 0; round < 6; ++round)  // depth 6 grows every ring
    for (VcIndex v = 0; v < kVcs; ++v) buf.push(v, v * 100 + round, 2);
  EXPECT_EQ(buf.occupancy(), kVcs * 12);
  for (VcIndex v = 0; v < kVcs; ++v) {
    EXPECT_EQ(buf.packets(v), 6);
    EXPECT_EQ(buf.front(v), v * 100);
    EXPECT_EQ(buf.free_for(v), 16 - 12 + 64);
  }
  for (VcIndex v = kVcs - 1; v >= 0; --v)
    for (int round = 0; round < 6; ++round)
      ASSERT_EQ(buf.pop(v).ref, v * 100 + round);
  EXPECT_EQ(buf.occupancy(), 0);
  EXPECT_EQ(buf.shared_used(), 0);
}

// --- DAMQ (shared > 0).

TEST(DamqInputBuffer, SharedPoolExtendsPrivate) {
  InputBuffer buf(2, 8, 16);  // 8 private per VC + 16 shared = 32 total
  EXPECT_TRUE(buf.is_damq());
  EXPECT_EQ(buf.total_capacity(), 32);
  EXPECT_EQ(buf.free_for(0), 24);  // own private + whole shared pool
  buf.push(0, 1, 8);               // fills private
  EXPECT_EQ(buf.shared_used(), 0);
  buf.push(0, 2, 8);  // spills into shared
  EXPECT_EQ(buf.shared_used(), 8);
  EXPECT_EQ(buf.free_for(0), 8);
  EXPECT_EQ(buf.free_for(1), 16);  // private 8 + shared remainder 8
}

TEST(DamqInputBuffer, PrivateSpaceAlwaysAvailableToOwner) {
  // One VC monopolizing the shared pool must not take another VC's private
  // reservation — the property that makes >0% reservation deadlock-free.
  InputBuffer buf(2, 8, 16);
  buf.push(0, 1, 8);
  buf.push(0, 2, 8);
  buf.push(0, 3, 8);  // occupancy 24 = private 8 + shared 16
  EXPECT_EQ(buf.shared_used(), 16);
  EXPECT_FALSE(buf.can_accept(0, 8));
  EXPECT_TRUE(buf.can_accept(1, 8));  // private reservation survives
  EXPECT_EQ(buf.free_for(1), 8);
}

TEST(DamqInputBuffer, ZeroPrivateAllowsMonopoly) {
  // With no reservation a single VC can take the whole memory — the paper's
  // Fig 10 deadlock case.
  InputBuffer buf(2, 0, 32);
  for (int i = 0; i < 4; ++i) buf.push(0, i, 8);
  EXPECT_EQ(buf.occupancy(0), 32);
  EXPECT_FALSE(buf.can_accept(1, 8));
  EXPECT_EQ(buf.free_for(1), 0);
}

TEST(DamqInputBuffer, DrainReleasesSharedFirstConsistently) {
  InputBuffer buf(2, 8, 16);
  buf.push(0, 1, 8);
  buf.push(0, 2, 8);
  buf.pop(0);
  // Occupancy 8 == private: shared fully released.
  EXPECT_EQ(buf.shared_used(), 0);
  EXPECT_EQ(buf.free_for(1), 24);
}

TEST(DamqInputBuffer, IncrementalSharedUseMatchesScanUnderRandomTraffic) {
  // Property: the incrementally tracked shared_used always equals the
  // from-scratch per-VC overflow sum the old implementation recomputed.
  Rng rng(7);
  const int private_per_vc = 8;
  InputBuffer buf(3, private_per_vc, 24);
  std::vector<std::vector<int>> sizes(3);  // mirror of queued phits per VC
  for (int step = 0; step < 5000; ++step) {
    const VcIndex vc = static_cast<VcIndex>(rng.next_below(3));
    const int phits = 4 + static_cast<int>(rng.next_below(3)) * 4;
    if (rng.next_bernoulli(0.6)) {
      if (!buf.can_accept(vc, phits)) continue;
      buf.push(vc, step, phits);
      sizes[static_cast<std::size_t>(vc)].push_back(phits);
    } else if (!buf.empty(vc)) {
      buf.pop(vc);
      auto& q = sizes[static_cast<std::size_t>(vc)];
      q.erase(q.begin());
    }
    int scan = 0;
    for (VcIndex v = 0; v < 3; ++v) {
      int occ = 0;
      for (const int s : sizes[static_cast<std::size_t>(v)]) occ += s;
      ASSERT_EQ(buf.occupancy(v), occ) << "step " << step;
      scan += std::max(0, occ - private_per_vc);
    }
    ASSERT_EQ(buf.shared_used(), scan) << "step " << step;
  }
}

// --- Geometry factory.

TEST(BufferOrg, StaticSplitsEvenly) {
  const auto g = make_geometry(BufferOrg::kStatic, 4, 128);
  EXPECT_EQ(g.num_vcs, 4);
  EXPECT_EQ(g.private_per_vc, 32);
  EXPECT_EQ(g.shared, 0);
  EXPECT_EQ(g.total(), 128);
}

TEST(BufferOrg, DamqPaperSplit) {
  // Table V: 25% shared, 75% private per VC.
  const auto g = make_geometry(BufferOrg::kDamq, 2, 128, 0.75);
  EXPECT_EQ(g.private_per_vc, 48);
  EXPECT_EQ(g.shared, 32);
  EXPECT_EQ(g.total(), 128);
}

TEST(BufferOrg, DamqFullPrivateEqualsStatic) {
  const auto g = make_geometry(BufferOrg::kDamq, 2, 128, 1.0);
  EXPECT_EQ(g.private_per_vc, 64);
  EXPECT_EQ(g.shared, 0);
  // The factory then builds a statically partitioned buffer (shared == 0).
  const InputBuffer buf = make_buffer(g);
  EXPECT_FALSE(buf.is_damq());
  EXPECT_EQ(buf.free_for(0), 64);
}

TEST(BufferOrg, FactoryBuildsDamqWhenShared) {
  const InputBuffer buf = make_buffer(make_geometry(BufferOrg::kDamq, 2, 128, 0.75));
  EXPECT_TRUE(buf.is_damq());
  EXPECT_EQ(buf.total_capacity(), 128);
}

TEST(BufferOrg, ParseRoundTrips) {
  EXPECT_EQ(parse_buffer_org("static"), BufferOrg::kStatic);
  EXPECT_EQ(parse_buffer_org("damq"), BufferOrg::kDamq);
  EXPECT_THROW(parse_buffer_org("elastic"), std::invalid_argument);
}

// --- CreditLedger mirrors the receiver.

TEST(CreditLedger, StaticGeometryBasics) {
  CreditLedger ledger(2, 32, 0);
  EXPECT_EQ(ledger.free_for(0), 32);
  EXPECT_TRUE(ledger.can_send(0, 32));
  EXPECT_FALSE(ledger.can_send(0, 33));
  ledger.on_send(0, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.free_for(0), 24);
  EXPECT_EQ(ledger.occupied(0), 8);
  EXPECT_EQ(ledger.occupied_port(), 8);
  ledger.on_credit(0, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.free_for(0), 32);
  EXPECT_EQ(ledger.occupied_port(), 0);
}

TEST(CreditLedger, MinCredSeparatesRouteKinds) {
  CreditLedger ledger(2, 32, 0);
  ledger.on_send(0, 8, RouteKind::kMinimal);
  ledger.on_send(0, 8, RouteKind::kNonminimal);
  ledger.on_send(1, 8, RouteKind::kNonminimal);
  EXPECT_EQ(ledger.occupied(0), 16);
  EXPECT_EQ(ledger.occupied_min(0), 8);
  EXPECT_EQ(ledger.occupied_min(1), 0);
  EXPECT_EQ(ledger.occupied_port(), 24);
  EXPECT_EQ(ledger.occupied_min_port(), 8);
  ledger.on_credit(0, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.occupied_min(0), 0);
  EXPECT_EQ(ledger.occupied(0), 8);
}

TEST(CreditLedger, MirrorsDamqBufferExactly) {
  // Property: after any feasible sequence of sends/credits, the ledger's
  // free_for equals the downstream DAMQ's free_for.
  Rng rng(21);
  InputBuffer buf(3, 8, 24);
  CreditLedger ledger(3, 8, 24);
  struct Sent {
    int phits;
    RouteKind kind;
  };
  std::vector<Sent> sent;  // indexed by the ref pushed into the buffer
  std::vector<std::vector<int>> queued(3);  // refs per VC, FIFO
  for (int step = 0; step < 2000; ++step) {
    const VcIndex vc = static_cast<VcIndex>(rng.next_below(3));
    if (rng.next_bernoulli(0.6)) {
      const int phits = 4 + static_cast<int>(rng.next_below(3)) * 4;
      const RouteKind kind = rng.next_bernoulli(0.5) ? RouteKind::kMinimal
                                                     : RouteKind::kNonminimal;
      if (ledger.can_send(vc, phits)) {
        EXPECT_TRUE(buf.can_accept(vc, phits)) << "ledger overpromised";
        ledger.on_send(vc, phits, kind);
        const int ref = static_cast<int>(sent.size());
        sent.push_back(Sent{phits, kind});
        buf.push(vc, ref, phits);
        queued[static_cast<std::size_t>(vc)].push_back(ref);
      }
    } else if (!buf.empty(vc)) {
      const BufferSlot slot = buf.pop(vc);
      auto& q = queued[static_cast<std::size_t>(vc)];
      ASSERT_EQ(slot.ref, q.front());
      q.erase(q.begin());
      const Sent& s = sent[static_cast<std::size_t>(slot.ref)];
      ASSERT_EQ(slot.phits, s.phits);
      ledger.on_credit(vc, s.phits, s.kind);
    }
    for (VcIndex v = 0; v < 3; ++v) {
      ASSERT_EQ(ledger.free_for(v), buf.free_for(v)) << "step " << step;
      ASSERT_EQ(ledger.occupied(v), buf.occupancy(v));
    }
    ASSERT_EQ(ledger.occupied_port(), buf.occupancy());
  }
}

TEST(CreditLedger, SixtyFourVcsKeepIndependentCounters) {
  // 64 VCs is the per-port limit Network::build enforces; every VC's pair
  // of counters must be its own.
  constexpr int kVcs = 64;
  CreditLedger ledger(kVcs, 8, 32);
  EXPECT_EQ(ledger.num_vcs(), kVcs);
  EXPECT_EQ(ledger.capacity_port(), kVcs * 8 + 32);
  for (VcIndex v = 0; v < kVcs; ++v)
    ledger.on_send(v, 1 + v % 4,
                   v % 2 == 0 ? RouteKind::kMinimal : RouteKind::kNonminimal);
  int total = 0;
  int total_min = 0;
  for (VcIndex v = 0; v < kVcs; ++v) {
    EXPECT_EQ(ledger.occupied(v), 1 + v % 4);
    EXPECT_EQ(ledger.occupied_min(v), v % 2 == 0 ? 1 + v % 4 : 0);
    EXPECT_EQ(ledger.free_for(v), 8 - (1 + v % 4) + 32);
    total += 1 + v % 4;
    if (v % 2 == 0) total_min += 1 + v % 4;
  }
  EXPECT_EQ(ledger.occupied_port(), total);
  EXPECT_EQ(ledger.occupied_min_port(), total_min);
  ledger.on_credit(kVcs - 1, 1 + (kVcs - 1) % 4, RouteKind::kNonminimal);
  EXPECT_EQ(ledger.occupied(kVcs - 1), 0);
  EXPECT_EQ(ledger.occupied(kVcs - 2), 1 + (kVcs - 2) % 4);
}

TEST(CreditLedger, ConservationInvariant) {
  // occupied + free == capacity for the port under static geometry.
  CreditLedger ledger(2, 16, 0);
  ledger.on_send(0, 8, RouteKind::kMinimal);
  ledger.on_send(1, 16, RouteKind::kNonminimal);
  int free_total = 0;
  for (VcIndex v = 0; v < 2; ++v) free_total += ledger.free_for(v);
  EXPECT_EQ(ledger.occupied_port() + free_total, ledger.capacity_port());
}

}  // namespace
}  // namespace flexnet
