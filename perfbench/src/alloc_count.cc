#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_client{0};
std::atomic<uint64_t> g_other{0};
thread_local bool tl_client = false;

void Count() noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  (tl_client ? g_client : g_other).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void MarkClientThread() noexcept { tl_client = true; }

void Start() noexcept {
  g_client.store(0, std::memory_order_relaxed);
  g_other.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
}

Counts Stop() noexcept {
  g_counting.store(false, std::memory_order_release);
  return {g_client.load(std::memory_order_relaxed),
          g_other.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::alloc

// The replaced new is malloc-backed, so free() in the deletes below is
// the matching deallocator; GCC's -Wmismatched-new-delete cannot see
// through the replacement once call sites inline it. Aligned forms are
// replaced too, so every allocation the program makes is counted.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  perfbench::alloc::Count();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t al) {
  perfbench::alloc::Count();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
