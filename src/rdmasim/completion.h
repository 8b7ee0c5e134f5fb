// Work completions and completion queues, mirroring ibverbs semantics.
//
// A CompletionQueue supports both notification styles the paper compares
// (§IV-B, Fig 6):
//   * polling  — Poll() drains ready completions without blocking;
//   * events   — Wait() blocks on a completion channel and yields the CPU
//                until the NIC delivers the next completion.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/clock.h"
#include "telemetry/metrics.h"

namespace catfish::rdma {

enum class Opcode : uint8_t {
  kWrite,        ///< initiator-side completion of RDMA WRITE
  kRead,         ///< initiator-side completion of RDMA READ
  kRecvImm,      ///< responder-side completion of RDMA WRITE w/ IMM
};

enum class WcStatus : uint8_t {
  kSuccess,
  kFlushed,             ///< QP torn down with the request outstanding
  kRemoteAccessError,   ///< remote address outside the registered region
  kRetryExceeded,       ///< transport retries exhausted (partition / drop)
  kQpError,             ///< QP is in the error state; post refused
};

struct WorkCompletion {
  uint64_t wr_id = 0;     ///< initiator's work-request id (0 for kRecvImm)
  Opcode opcode = Opcode::kWrite;
  WcStatus status = WcStatus::kSuccess;
  uint32_t qp_num = 0;    ///< local QP the completion belongs to
  uint32_t imm_data = 0;  ///< valid only for kRecvImm
  uint32_t byte_len = 0;  ///< bytes moved by the operation
  uint64_t posted_ns = 0; ///< when the NIC pushed it (telemetry)
};

class CompletionQueue {
 public:
  /// Non-blocking: moves up to out.size() completions into `out`,
  /// returning how many were delivered (ibv_poll_cq). Each call counts
  /// one `rdma.polls` CQ access, so polls/op directly compares one-at-a-
  /// time reaping against the coalesced PollMany path.
  size_t Poll(std::span<WorkCompletion> out) { return PollMany(out); }

  /// Batch reaping (the coalesced-polling half of doorbell batching):
  /// drains up to out.size() completions under a single lock acquisition
  /// and counts a single `rdma.polls` access however many CQEs it moves.
  size_t PollMany(std::span<WorkCompletion> out) {
    CATFISH_COUNT("rdma.polls");
    const std::scoped_lock lock(mu_);
    size_t n = 0;
    while (n < out.size() && size_ != 0) {
      out[n] = PopLocked();
      RecordDelay(out[n]);
      ++n;
    }
    return n;
  }

  /// Blocking: waits until a completion is available or `timeout`
  /// elapses, then pops one. Emulates blocking on a completion event
  /// channel (ibv_get_cq_event) followed by a poll.
  std::optional<WorkCompletion> Wait(std::chrono::microseconds timeout) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout, [this] { return size_ != 0; })) {
      return std::nullopt;
    }
    const WorkCompletion wc = PopLocked();
    RecordDelay(wc);
    return wc;
  }

  /// NIC side: delivers a completion and wakes one waiter.
  void Push(const WorkCompletion& wc) {
    {
      const std::scoped_lock lock(mu_);
      PushLocked(wc, NowNanos());
    }
    cv_.notify_one();
  }

  /// NIC side, batched: delivers a whole doorbell batch's completions
  /// with one lock acquisition and one wakeup — the delivery half of
  /// QueuePair::PostBatch. notify_all because one batch may satisfy
  /// several blocked waiters.
  void PushMany(std::span<const WorkCompletion> wcs) {
    if (wcs.empty()) return;
    {
      const std::scoped_lock lock(mu_);
      const uint64_t now = NowNanos();
      for (const WorkCompletion& wc : wcs) PushLocked(wc, now);
    }
    cv_.notify_all();
  }

  size_t Depth() const {
    const std::scoped_lock lock(mu_);
    return size_;
  }

 private:
  // The queue is a ring over ring_ (a power-of-two size) that doubles
  // when full and never shrinks, so a CQ stops allocating once it has
  // held its deepest backlog.
  void PushLocked(const WorkCompletion& wc, uint64_t now) {
    if (size_ == ring_.size()) Grow();
    WorkCompletion& slot = ring_[(head_ + size_) & (ring_.size() - 1)];
    slot = wc;
    slot.posted_ns = now;
    ++size_;
  }

  WorkCompletion PopLocked() noexcept {
    const WorkCompletion wc = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return wc;
  }

  void Grow() {
    std::vector<WorkCompletion> bigger(ring_.empty() ? 16 : ring_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  /// Time from NIC delivery to consumer pickup — the sim's analogue of
  /// completion latency (how long work sat in the CQ).
  static void RecordDelay(const WorkCompletion& wc) noexcept {
#if CATFISH_TELEMETRY_ENABLED
    if (wc.posted_ns != 0) {
      CATFISH_TIMER_RECORD_US(
          "rdma.cq.delay_us",
          static_cast<double>(NowNanos() - wc.posted_ns) * 1e-3);
    }
#else
    (void)wc;
#endif
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WorkCompletion> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace catfish::rdma
