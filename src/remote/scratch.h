// ScratchPool: bounded pool of reusable fetch buffers.
//
// The read→validate→retry hot path used to allocate a fresh vector per
// fetched chunk per traversal level. On real verbs that is doubly wrong:
// the allocation itself, and the fact that READ destinations must live
// in *registered* memory, so fresh buffers would each need an
// ibv_reg_mr (paper §III-B: registration is expensive). The pool carves
// a fixed number of fixed-size buffers out of one contiguous slab —
// registerable once, reused forever — and falls back to counted heap
// allocations when a burst (an unusually wide traversal level) exceeds
// the bound, so capacity is a performance knob, never a correctness
// limit.
//
// Thread-compatible, like the engine that owns it: one thread acquires
// and releases at a time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "telemetry/metrics.h"

namespace catfish::remote {

class ScratchPool {
 public:
  /// `buf_bytes` is the fixed buffer size (the transport's chunk size);
  /// `capacity` bounds how many pooled buffers exist.
  ScratchPool(size_t buf_bytes, size_t capacity)
      : buf_bytes_(buf_bytes), slab_(buf_bytes * capacity) {
    assert(buf_bytes_ > 0 && capacity > 0);
    free_.reserve(capacity);
    // LIFO free list: the most recently released buffer is the hottest
    // in cache, so hand it out first.
    for (size_t i = capacity; i-- > 0;) {
      free_.push_back(static_cast<uint32_t>(i));
    }
  }

  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// The whole backing region, for one-shot MR registration by the
  /// owner. (rdmasim READs do not require registered local buffers, but
  /// real verbs do — keeping the slab contiguous preserves that
  /// migration path.)
  std::span<std::byte> slab() noexcept { return slab_; }

  /// Hands out one buffer of buf_bytes(). Never fails: when the pool is
  /// exhausted the buffer is heap-allocated and counted as an overflow.
  std::span<std::byte> Acquire() {
    CATFISH_COUNT("remote.scratch.acquires");
    std::span<std::byte> out;
    if (!free_.empty()) {
      const uint32_t slot = free_.back();
      free_.pop_back();
      out = std::span<std::byte>(slab_.data() + slot * buf_bytes_, buf_bytes_);
    } else {
      ++overflow_allocs_;
      CATFISH_COUNT("remote.scratch.overflows");
      // The buffer's header records its index in overflow_, so Release
      // finds it in O(1) however wide the burst.
      overflow_.push_back(
          std::make_unique<std::byte[]>(kOverflowHeader + buf_bytes_));
      std::byte* mem = overflow_.back().get();
      StoreIndex(mem, overflow_.size() - 1);
      out = std::span<std::byte>(mem + kOverflowHeader, buf_bytes_);
    }
    ++in_use_;
    if (in_use_ > high_water_) high_water_ = in_use_;
    return out;
  }

  /// Returns a buffer obtained from Acquire. Overflow buffers are freed
  /// here; pooled slots go back on the free list.
  void Release(std::span<std::byte> buf) {
    assert(in_use_ > 0);
    --in_use_;
    const std::byte* p = buf.data();
    if (p >= slab_.data() && p < slab_.data() + slab_.size()) {
      const size_t off = static_cast<size_t>(p - slab_.data());
      assert(off % buf_bytes_ == 0);
      free_.push_back(static_cast<uint32_t>(off / buf_bytes_));
      return;
    }
    // Swap-remove by the index in the header; the buffer moved into the
    // hole gets its header rewritten.
    const std::byte* mem = p - kOverflowHeader;
    const size_t idx = LoadIndex(mem);
    assert(idx < overflow_.size() && overflow_[idx].get() == mem &&
           "Release of a buffer this pool never handed out");
    if (idx + 1 != overflow_.size()) {
      overflow_[idx] = std::move(overflow_.back());
      StoreIndex(overflow_[idx].get(), idx);
    }
    overflow_.pop_back();
  }

  size_t buf_bytes() const noexcept { return buf_bytes_; }
  size_t capacity() const noexcept { return slab_.size() / buf_bytes_; }
  /// Buffers currently held by callers — the leak detector: zero
  /// whenever no fetch is mid-flight, whatever FetchStatus path exited.
  size_t in_use() const noexcept { return in_use_; }
  size_t high_water() const noexcept { return high_water_; }
  uint64_t overflow_allocs() const noexcept { return overflow_allocs_; }

 private:
  /// Bytes in front of each overflow buffer holding its overflow_ index;
  /// 16 keeps the buffer itself as aligned as operator new[] returns.
  static constexpr size_t kOverflowHeader = 16;

  static void StoreIndex(std::byte* mem, size_t idx) noexcept {
    std::memcpy(mem, &idx, sizeof(idx));
  }
  static size_t LoadIndex(const std::byte* mem) noexcept {
    size_t idx = 0;
    std::memcpy(&idx, mem, sizeof(idx));
    return idx;
  }

  size_t buf_bytes_;
  std::vector<std::byte> slab_;
  std::vector<uint32_t> free_;
  std::vector<std::unique_ptr<std::byte[]>> overflow_;
  size_t in_use_ = 0;
  size_t high_water_ = 0;
  uint64_t overflow_allocs_ = 0;
};

}  // namespace catfish::remote
