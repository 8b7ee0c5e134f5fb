// In-memory span log for the traced run. The benchmark records one span
// around each call it makes into a layer's public functions: name,
// start, end, parent span, and the id of the search (or micro-benchmark
// iteration) the call belongs to. Spans stay in memory until Write().
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal
  uint64_t trace_id = 0;  ///< the search / iteration the call belongs to
  uint32_t id = 0;
  uint32_t parent = 0;    ///< 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

inline uint64_t MonoNanos() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's spans; merged into the log when the thread is done.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t cap) : cap_(cap) { spans_.reserve(cap); }

  /// Records a finished span; returns its id (0 once the buffer is full).
  uint32_t Add(const char* name, uint64_t trace_id, uint32_t parent,
               uint64_t start_ns, uint64_t end_ns) {
    if (spans_.size() >= cap_) return 0;
    const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
    spans_.push_back({name, trace_id, id, parent, start_ns, end_ns});
    return id;
  }

  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  size_t cap_;
  std::vector<Span> spans_;
};

class SpanLog {
 public:
  /// Moves a thread's buffer in, tagging its spans with `thread`.
  void Merge(const std::string& thread, SpanBuffer& buf);
  size_t size() const;
  /// Writes every span as one JSON line; false when the file fails.
  bool Write(const std::string& path) const;

 private:
  struct Part {
    std::string thread;
    std::vector<Span> spans;
  };
  mutable std::mutex mu_;
  std::vector<Part> parts_;
};

}  // namespace perfbench
