#include "rtree/layout.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace catfish::rtree {
namespace {

std::vector<std::byte> MakeChunk(size_t size = 1024) {
  std::vector<std::byte> chunk(size);
  InitChunk(chunk);
  return chunk;
}

TEST(LayoutTest, Capacities) {
  EXPECT_EQ(PayloadCapacity(1024), 16u * 60u);
  EXPECT_EQ(PayloadCapacity(64), 60u);
  EXPECT_EQ(LineCount(1024), 16u);
}

TEST(LayoutTest, FreshChunkValidates) {
  auto chunk = MakeChunk();
  const auto v = ValidateVersions(chunk);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0u);
}

TEST(LayoutTest, ScatterGatherRoundTrip) {
  auto chunk = MakeChunk();
  std::vector<std::byte> payload(PayloadCapacity(1024));
  Xoshiro256 rng(3);
  for (auto& b : payload) b = static_cast<std::byte>(rng.Next());

  ScatterPayload(chunk, payload);
  std::vector<std::byte> out(payload.size());
  GatherPayload(chunk, out);
  EXPECT_EQ(payload, out);
  // Versions untouched by payload IO.
  EXPECT_TRUE(ValidateVersions(chunk).has_value());
}

TEST(LayoutTest, WriteProtocolVersions) {
  auto chunk = MakeChunk();
  BeginWrite(chunk);
  // Mid-write: odd versions, must not validate.
  EXPECT_FALSE(ValidateVersions(chunk).has_value());
  EXPECT_EQ(LineVersion(chunk, 0), 1u);
  EndWrite(chunk);
  const auto v = ValidateVersions(chunk);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2u);
}

TEST(LayoutTest, MixedVersionsDoNotValidate) {
  auto chunk = MakeChunk();
  // Simulate a torn image: one line from a newer version.
  BeginWrite(chunk);
  EndWrite(chunk);  // all lines at 2
  uint32_t v = 4;
  std::memcpy(chunk.data() + 5 * kLineSize, &v, sizeof(v));
  EXPECT_FALSE(ValidateVersions(chunk).has_value());
}

TEST(LayoutTest, GatherPayloadAtStraddlesLines) {
  auto chunk = MakeChunk();
  std::vector<std::byte> payload(PayloadCapacity(1024));
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i & 0xff);
  ScatterPayload(chunk, payload);

  // Read 100 bytes starting 10 bytes before a line boundary.
  const size_t offset = kLinePayload - 10;
  std::vector<std::byte> out(100);
  GatherPayloadAt(chunk, offset, out);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::byte>((offset + i) & 0xff));
  }
}

TEST(LayoutTest, PartialScatterLeavesTailIntact) {
  auto chunk = MakeChunk();
  std::vector<std::byte> full(PayloadCapacity(1024), std::byte{0xAA});
  ScatterPayload(chunk, full);
  std::vector<std::byte> head(90, std::byte{0xBB});
  ScatterPayload(chunk, head);

  std::vector<std::byte> out(PayloadCapacity(1024));
  GatherPayload(chunk, out);
  for (size_t i = 0; i < 90; ++i) EXPECT_EQ(out[i], std::byte{0xBB});
  for (size_t i = 90; i < out.size(); ++i) EXPECT_EQ(out[i], std::byte{0xAA});
}

// The seqlock property the offloading client depends on: a reader that
// validates versions around a gather never observes a torn payload.
TEST(LayoutTest, ConcurrentReaderNeverSeesTornPayload) {
  alignas(64) std::byte chunk_mem[1024];
  std::span<std::byte> chunk(chunk_mem, sizeof(chunk_mem));
  InitChunk(chunk);

  const size_t payload_size = PayloadCapacity(1024);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> valid_reads{0};

  std::thread writer([&] {
    std::vector<std::byte> payload(payload_size);
    uint8_t fill = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++fill;
      std::memset(payload.data(), fill, payload.size());
      BeginWrite(chunk);
      ScatterPayload(chunk, payload);
      EndWrite(chunk);
    }
  });

  std::vector<std::byte> out(payload_size);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto v1 = ValidateVersions(chunk);
    if (!v1) continue;
    GatherPayload(chunk, out);
    const auto v2 = ValidateVersions(chunk);
    if (!v2 || *v2 != *v1) continue;
    // Accepted read: every byte must carry the same fill value.
    for (size_t i = 1; i < out.size(); ++i) ASSERT_EQ(out[i], out[0]);
    valid_reads.fetch_add(1, std::memory_order_relaxed);
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(valid_reads.load(), 0u);
}

// SnapshotCopy moves lines as 8-byte words when both buffers are
// 8-aligned and as 4-byte words when they are only 4-aligned; both must
// produce the same image of a quiescent chunk.
TEST(LayoutTest, SnapshotCopyWideAndNarrowPathsAgree) {
  alignas(64) std::byte chunk_mem[1024];
  std::span<std::byte> chunk(chunk_mem, sizeof(chunk_mem));
  InitChunk(chunk);
  std::vector<std::byte> payload(PayloadCapacity(1024));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = std::byte{static_cast<uint8_t>(i * 7 + 3)};
  }
  BeginWrite(chunk);
  ScatterPayload(chunk, payload);
  EndWrite(chunk);

  alignas(64) std::byte wide[1024 + 8];
  alignas(64) std::byte narrow[1024 + 8];
  SnapshotCopy(wide, chunk_mem, 1024);
  SnapshotCopy(narrow + 4, chunk_mem, 1024);  // 4- but not 8-aligned
  EXPECT_EQ(std::memcmp(wide, chunk_mem, 1024), 0);
  EXPECT_EQ(std::memcmp(narrow + 4, chunk_mem, 1024), 0);
}

}  // namespace
}  // namespace catfish::rtree
