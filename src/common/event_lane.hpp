// Flat containers of the event-driven simulation core.
//
// EventLane<T> is a growable power-of-two ring buffer used for every
// time-ordered FIFO on the hot path: per-link in-flight packet and credit
// lanes, per-VC input queues, and the router output pipelines. Events are
// pushed with non-decreasing readiness cycles (the simulation clock is
// monotone and each lane's latency is fixed), so a lane is drained by
// popping from the head while due — no sorting, no per-node allocation,
// no pointer chasing, unlike the std::deque chunks it replaces.
//
// ActiveSet tracks which ids (routers) currently have pending work.
// Membership is one bit per id; a sweep scans the words and visits set bits
// low-to-high, so ids always come out in ascending order — the same order
// the old full scans used, which is what keeps results bit-identical no
// matter in which order work was discovered. The bitmap replaces an earlier
// sorted-vector design whose per-sweep std::sort dominated sparse sweeps.
//
// TimeWheel is a calendar of ids keyed by the cycle their work falls due:
// a ring of per-cycle id bitmaps, swept one slot per cycle in ascending id
// order. Work that is known to be idle until a given cycle (a link lane
// until its next arrival, an output link until its head is ready, a node
// until its next generation) costs nothing in the cycles between.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace flexnet {

template <typename T>
class EventLane {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const T& front() const {
    FLEXNET_DCHECK(size_ > 0);
    return buf_[head_];
  }
  T& front() {
    FLEXNET_DCHECK(size_ > 0);
    return buf_[head_];
  }

  /// Newest element (mutable: flit-level input queues grow the tail
  /// packet's phit count in place as its body flits arrive).
  T& back() {
    FLEXNET_DCHECK(size_ > 0);
    return buf_[(head_ + size_ - 1) & mask_];
  }

  /// i-th element from the head (diagnostics / tests only).
  const T& at(std::size_t i) const {
    FLEXNET_DCHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  void pop_front() {
    FLEXNET_DCHECK(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

class ActiveSet {
 public:
  void resize(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  /// Marks `id` active; idempotent.
  void add(std::int32_t id) {
    std::uint64_t& w = words_[static_cast<std::size_t>(id) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    size_ += static_cast<std::size_t>(!(w & bit));
    w |= bit;
  }

  /// Visits every active id in ascending order. `work(id)` returns true to
  /// keep the id active, false to retire it. `work` must not add ids to
  /// *this* set (sets feed each other, never themselves — an addition
  /// during its own sweep would be visited or missed depending on where the
  /// scan stands).
  template <typename WorkFn>
  void sweep(WorkFn&& work) {
    const std::size_t nw = words_.size();
    for (std::size_t wi = 0; wi < nw; ++wi) {
      std::uint64_t pend = words_[wi];
      while (pend != 0) {
        const int b = __builtin_ctzll(pend);
        pend &= pend - 1;
        const std::int32_t id = static_cast<std::int32_t>((wi << 6) + b);
        if (!work(id)) {
          words_[wi] &= ~(std::uint64_t{1} << b);
          --size_;
        }
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

class TimeWheel {
 public:
  /// Shapes the wheel for ids in [lo, hi) and schedule offsets up to
  /// `max_offset` cycles: the span is the next power of two above it. All
  /// slots live in one flat allocation; the wheel starts empty at cycle 0.
  void resize(std::int32_t lo, std::int32_t hi, Cycle max_offset) {
    const auto span = static_cast<std::size_t>(span_for(max_offset));
    lo_ = lo;
    words_per_slot_ = (static_cast<std::size_t>(hi - lo) + 63) / 64;
    mask_ = span - 1;
    words_.assign(span * words_per_slot_, 0);
    count_.assign(span, 0);
    now_ = -1;
  }

  /// The span a wheel for offsets up to `max_offset` gets.
  static Cycle span_for(Cycle max_offset) {
    Cycle span = 1;
    while (span <= max_offset) span <<= 1;
    return span;
  }

  Cycle span() const { return static_cast<Cycle>(mask_ + 1); }
  /// `at` pulled into the schedulable window (now, now + span), where now
  /// is the cycle swept last (-1 before the first sweep).
  Cycle clamp(Cycle at) const {
    return std::min(std::max(at, now_ + 1), now_ + span() - 1);
  }

  /// Ids scheduled at `cycle` (a read-only gauge; exact for cycles in the
  /// schedulable window).
  std::size_t due(Cycle cycle) const {
    return count_[static_cast<std::size_t>(cycle) & mask_];
  }

  /// Schedules `id` at cycle `at`; idempotent within a slot. `at - now`
  /// must lie in [1, span), now being the cycle swept last: a sweep never
  /// adds to its own slot, and a slot is never reused before its sweep.
  void add(std::int32_t id, Cycle at) {
    FLEXNET_DCHECK(at - now_ >= 1 && at - now_ < span());
    FLEXNET_DCHECK(id >= lo_ &&
                   static_cast<std::size_t>(id - lo_) < words_per_slot_ * 64);
    const std::size_t slot = static_cast<std::size_t>(at) & mask_;
    const auto rel = static_cast<std::size_t>(id - lo_);
    std::uint64_t& w = words_[slot * words_per_slot_ + (rel >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (rel & 63);
    count_[slot] += static_cast<std::size_t>(!(w & bit));
    w |= bit;
  }

  /// Visits every id scheduled at `now`, ascending, and empties the slot.
  /// Cycles are swept consecutively from 0. `visit` may add ids to any
  /// later slot of this wheel (rescheduling included), never to `now`.
  template <typename VisitFn>
  void sweep(Cycle now, VisitFn&& visit) {
    FLEXNET_DCHECK(now == now_ + 1);
    now_ = now;
    const std::size_t slot = static_cast<std::size_t>(now) & mask_;
    if (count_[slot] == 0) return;
    std::uint64_t* words = &words_[slot * words_per_slot_];
    for (std::size_t wi = 0; wi < words_per_slot_; ++wi) {
      std::uint64_t pend = words[wi];
      if (pend == 0) continue;
      words[wi] = 0;
      while (pend != 0) {
        const int b = __builtin_ctzll(pend);
        pend &= pend - 1;
        visit(lo_ + static_cast<std::int32_t>((wi << 6) + b));
      }
    }
    count_[slot] = 0;
  }

 private:
  std::int32_t lo_ = 0;
  std::size_t words_per_slot_ = 0;
  std::size_t mask_ = 0;
  Cycle now_ = -1;                    // cycle swept last
  std::vector<std::uint64_t> words_;  // span slots x words_per_slot_
  std::vector<std::size_t> count_;    // per slot: ids scheduled
};

}  // namespace flexnet
