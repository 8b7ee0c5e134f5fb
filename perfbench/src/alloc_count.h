// Heap-allocation counts for the benchmark binary. The binary replaces
// the global operator new; while counting is on, every allocation is
// attributed to "client" (a thread that called MarkClientThread) or to
// "other" (server workers, monitors, acceptors and every thread the
// program starts on its own).
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  uint64_t client = 0;
  uint64_t other = 0;
};

/// Marks the calling thread as a client thread for attribution.
void MarkClientThread() noexcept;

/// Zeroes the counts and starts counting; Stop returns what was counted.
void Start() noexcept;
Counts Stop() noexcept;

}  // namespace perfbench::alloc
