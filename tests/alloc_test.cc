// Allocation regression harness for the hot paths: after warm-up, the
// steady-state ring send/receive loop, the server's reply codecs and an
// offloaded search over rdmasim must not touch the global allocator
// (RingSender::frame_, RingReceiver::scratch_, per-connection reply
// scratch, trace_wire's append-into-capacity encoder, the remote
// engine's and the client's reused search scratch). Counting is done by
// replacing the global operator new and counts only the thread that
// opened an AllocCounter, so server threads running beside the measured
// loop do not show up; disabled under sanitizers, whose own allocator
// interposition this would fight.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "catfish/client.h"
#include "catfish/server.h"
#include "common/rng.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "rtree/bulk_load.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_wire.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CATFISH_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CATFISH_ALLOC_COUNTING 0
#endif
#endif
#ifndef CATFISH_ALLOC_COUNTING
#define CATFISH_ALLOC_COUNTING 1
#endif

#if CATFISH_ALLOC_COUNTING

namespace {
std::atomic<size_t> g_allocs{0};
thread_local bool g_counting = false;
}  // namespace

// The replaced new is malloc-backed, so free() in the deletes below is
// the matching deallocator; GCC's -Wmismatched-new-delete can't see
// through the replacement once call sites inline it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // CATFISH_ALLOC_COUNTING

namespace catfish::msg {
namespace {

#if CATFISH_ALLOC_COUNTING

/// Counts the calling thread's global operator new calls within a scope.
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting = true;
  }
  ~AllocCounter() { g_counting = false; }
  size_t count() const { return g_allocs.load(std::memory_order_relaxed); }
};

// A connected sender/receiver pair over the instant fabric (the same
// harness ring_test.cc uses).
struct RingPair {
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  std::shared_ptr<rdma::SimNode> a = fabric.CreateNode("sender");
  std::shared_ptr<rdma::SimNode> b = fabric.CreateNode("receiver");
  std::shared_ptr<rdma::QueuePair> a_qp, b_qp;
  std::vector<std::byte> ring_mem;
  alignas(8) std::array<std::byte, 8> ack_cell{};
  std::unique_ptr<RingSender> tx;
  std::unique_ptr<RingReceiver> rx;

  explicit RingPair(size_t capacity = 4096) : ring_mem(capacity) {
    a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
    b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
    rdma::QueuePair::Connect(a_qp, b_qp);
    const auto ring_mr = b->RegisterMemory(ring_mem);
    const auto ack_mr = a->RegisterMemory(ack_cell);
    tx = std::make_unique<RingSender>(a_qp, rdma::RemoteAddr{ring_mr.rkey, 0},
                                      capacity,
                                      std::span<std::byte>(ack_cell));
    rx = std::make_unique<RingReceiver>(std::span<std::byte>(ring_mem), b_qp,
                                        rdma::RemoteAddr{ack_mr.rkey, 0});
  }
};

TEST(AllocTest, SteadyStateRingRoundTripIsAllocationFree) {
  RingPair p;
  const std::vector<std::byte> payload(256, std::byte{0x5a});
  Message m;  // reused across the loop: payload capacity is retained

  // Warm-up grows every scratch buffer and initializes the metric
  // statics — 64 round trips cross the ring boundary several times, so
  // the PAD/wrap path warms too.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(p.tx->TrySend(1, kFlagEnd, payload));
    ASSERT_TRUE(p.rx->TryReceive(m));
  }

  size_t failures = 0;
  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 512; ++i) {
      if (!p.tx->TrySend(1, kFlagEnd, payload)) ++failures;
      if (!p.rx->TryReceive(m)) ++failures;
    }
    allocs = counter.count();
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocs, 0u) << "steady-state ring traffic hit the allocator";
}

TEST(AllocTest, ServerReplyCodecsReuseScratch) {
  // The shapes the server's reply path reuses per connection.
  std::vector<rtree::Entry> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    const double x = static_cast<double>(i) / 300.0;
    entries.push_back({geo::Rect{x, x, x + 0.001, x + 0.001}, i});
  }
  std::vector<std::vector<std::byte>> seg_scratch;
  std::vector<std::byte> ack_scratch;
  constexpr size_t kMaxPayload = 2'000;

  EncodeSearchResponseInto(7, entries, kMaxPayload, seg_scratch);
  EncodeInto(WriteAck{7, 1}, ack_scratch);
  const size_t segs = seg_scratch.size();
  ASSERT_GT(segs, 1u);  // actually exercises segmentation

  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 256; ++i) {
      EncodeSearchResponseInto(7, entries, kMaxPayload, seg_scratch);
      EncodeInto(WriteAck{7, 1}, ack_scratch);
    }
    allocs = counter.count();
  }
  EXPECT_EQ(seg_scratch.size(), segs);
  EXPECT_EQ(allocs, 0u) << "reply codecs hit the allocator";
}

TEST(AllocTest, TraceWireEncoderReusesCapacity) {
  telemetry::Trace t("server.request", 11, 100);
  const auto dq = t.StartSpan(t.root(), "dequeue", 100);
  t.EndSpan(dq, 105);
  const auto tr = t.StartSpan(t.root(), "traverse", 105);
  t.SetAttr(tr, "nodes", 12);
  t.EndSpan(tr, 160);
  t.EndSpan(t.root(), 170);

  std::vector<std::byte> wire;
  telemetry::EncodeTrace(t, wire);  // warm: sizes the buffer

  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 256; ++i) {
      wire.clear();
      telemetry::EncodeTrace(t, wire);
    }
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0u) << "trace encoder hit the allocator";
}

// A warmed-up offloaded search over rdmasim allocates nothing: READs are
// staged, posted, completed and validated in reused scratch (engine
// batcher and retry lists, pooled fetch buffers, QP WR and CQ rings, the
// client's frontier vectors), and the validate callback is a non-owning
// reference. The queries are ones that match no entry, so the returned
// result vector stays unallocated too, yet each one walks the tree.
TEST(AllocTest, SteadyStateOffloadedSearchIsAllocationFree) {
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  auto server_node = fabric.CreateNode("server");
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 12);
  Xoshiro256 rng(7);
  std::vector<rtree::Entry> items;
  for (uint64_t i = 0; i < 5000; ++i) {
    const double x = rng.NextDouble() * 0.999;
    const double y = rng.NextDouble() * 0.999;
    items.push_back({geo::Rect{x, y, x + 1e-4, y + 1e-4}, i});
  }
  rtree::RStarTree tree = rtree::BulkLoad(arena, items);
  ServerConfig scfg;
  scfg.heartbeat_interval_us = 1000;  // several land in the measured loop
  RTreeServer server(server_node, tree, scfg);
  RTreeClient client(fabric.CreateNode("client"), server, ClientConfig{});

  // Empty queries only: tiny rectangles that hit no entry.
  std::vector<geo::Rect> queries;
  while (queries.size() < 64) {
    const double x = rng.NextDouble() * 0.999;
    const double y = rng.NextDouble() * 0.999;
    const geo::Rect q{x, y, x + 1e-5, y + 1e-5};
    if (client.SearchOffloaded(q).empty()) queries.push_back(q);
  }
  // Warm-up: every scratch buffer reaches the widest level these queries
  // see, and a few heartbeats pass through PumpPending (the first one
  // sizes its receive buffer and registers its metrics). The latency
  // histograms grow with the largest value recorded, so record a huge
  // one up front; a slow search in the measured loop would otherwise
  // grow them.
  for (int round = 0; round < 4 || client.stats().heartbeats_received < 3;
       ++round) {
    for (const geo::Rect& q : queries) (void)client.SearchOffloaded(q);
  }
  auto& reg = telemetry::Registry::Global();
  for (const char* name : {"catfish.client.search_offload_us",
                           "rdma.doorbell.batch_size", "rdma.cq.delay_us"}) {
    reg.timer(name)->RecordUs(1e9);
  }

  const uint64_t reads_before = client.stats().rdma_reads;
  size_t nonempty = 0;
  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int round = 0; round < 8; ++round) {
      for (const geo::Rect& q : queries) {
        nonempty += client.SearchOffloaded(q).empty() ? 0 : 1;
      }
    }
    allocs = counter.count();
  }
  server.Stop();
  EXPECT_EQ(nonempty, 0u);
  EXPECT_GT(client.stats().rdma_reads - reads_before, 8 * queries.size());
  EXPECT_EQ(allocs, 0u) << "steady-state offloaded search hit the allocator";
}

#else  // !CATFISH_ALLOC_COUNTING

TEST(AllocTest, DisabledUnderSanitizers) {
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
}

#endif

}  // namespace
}  // namespace catfish::msg
