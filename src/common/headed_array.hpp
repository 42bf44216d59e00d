// HeadedArray<Head, T>: one heap block holding a Head record followed by a
// fixed number of T elements — a variable-length record behind a single
// pointer.
//
// Per-port state of the engine (an input buffer's accounting plus its
// per-VC queue headers, a credit ledger's port counters plus its per-VC
// counters) is read together on every event. Keeping the port record and
// its per-VC array in one block, sized to the port's actual VC count, makes
// a per-VC field one dependent load from the owning object, with no fixed
// VC cap and no padding. The owning object itself is one pointer wide, so
// the flat arrays of them the network indexes stay small.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.hpp"

namespace flexnet {

template <typename Head, typename T>
class HeadedArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "elements are released without per-element destructors");
  static_assert(alignof(T) <= alignof(std::max_align_t) &&
                    alignof(Head) <= alignof(std::max_align_t),
                "over-aligned records are not supported");

 public:
  /// A block holding `head` and `n` value-initialized elements.
  HeadedArray(Head head, std::size_t n)
      : block_(static_cast<Block*>(::operator new(kOffset + n * sizeof(T)))) {
    ::new (static_cast<void*>(block_.get())) Block{std::move(head), n};
    std::byte* bytes = reinterpret_cast<std::byte*>(block_.get()) + kOffset;
    for (std::size_t i = 0; i < n; ++i)
      ::new (static_cast<void*>(bytes + i * sizeof(T))) T{};
  }

  Head& head() { return block_->head; }
  const Head& head() const { return block_->head; }
  std::size_t size() const { return block_->size; }

  T& operator[](std::size_t i) {
    FLEXNET_DCHECK(i < size());
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    FLEXNET_DCHECK(i < size());
    return data()[i];
  }

 private:
  struct Block {
    Head head;
    std::size_t size;
  };
  /// Byte offset of the first element: just past the Block, aligned for T.
  static constexpr std::size_t kOffset =
      (sizeof(Block) + alignof(T) - 1) / alignof(T) * alignof(T);

  struct Release {
    void operator()(Block* b) const {
      b->~Block();
      ::operator delete(static_cast<void*>(b));
    }
  };

  T* data() const {
    return std::launder(reinterpret_cast<T*>(
        reinterpret_cast<std::byte*>(block_.get()) + kOffset));
  }

  std::unique_ptr<Block, Release> block_;
};

}  // namespace flexnet
