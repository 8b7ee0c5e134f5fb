#include "layers.h"

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "durable/checkpoint.h"
#include "durable/manager.h"
#include "durable/storage.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "rtree/arena.h"
#include "rtree/bulk_load.h"
#include "stats.h"

namespace perfbench::layers {

using catfish::geo::Rect;
using catfish::rtree::Entry;
namespace rdma = catfish::rdma;
namespace msg = catfish::msg;
namespace rtree = catfish::rtree;
namespace durable = catfish::durable;

namespace {

constexpr size_t kRemoteChunks = 4096;

/// Two fabric nodes with one connected QP each; `remote_mem` is
/// registered on `b` as the READ / WRITE target.
struct QpPair {
  rdma::Fabric fabric{rdma::FabricProfile::InfiniBand100G()};
  std::shared_ptr<rdma::SimNode> a = fabric.CreateNode("bench-a");
  std::shared_ptr<rdma::SimNode> b = fabric.CreateNode("bench-b");
  std::shared_ptr<rdma::CompletionQueue> a_send = a->CreateCq();
  std::shared_ptr<rdma::CompletionQueue> a_recv = a->CreateCq();
  std::shared_ptr<rdma::CompletionQueue> b_send = b->CreateCq();
  std::shared_ptr<rdma::CompletionQueue> b_recv = b->CreateCq();
  std::shared_ptr<rdma::QueuePair> a_qp = a->CreateQp(a_send, a_recv);
  std::shared_ptr<rdma::QueuePair> b_qp = b->CreateQp(b_send, b_recv);
  std::vector<std::byte> remote_mem;
  rdma::MemoryRegionHandle remote_mr;

  explicit QpPair(size_t remote_bytes) : remote_mem(remote_bytes) {
    rdma::QueuePair::Connect(a_qp, b_qp);
    remote_mr = b->RegisterMemory(remote_mem);
  }
};

void Require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

/// Polls `cq` until `n` completions arrived; throws on a failed one.
void Reap(rdma::CompletionQueue& cq, size_t n,
          std::span<rdma::WorkCompletion> wcs) {
  size_t got = 0;
  while (got < n) {
    const size_t k = cq.PollMany(wcs.subspan(0, n - got));
    for (size_t i = 0; i < k; ++i) {
      Require(wcs[i].status == rdma::WcStatus::kSuccess,
              "rdmasim completion failed");
    }
    got += k;
  }
}

}  // namespace

double ReadChunkNs(SpanBuffer& spans, uint64_t seed, size_t iters) {
  QpPair p(kRemoteChunks * rtree::kChunkSize);
  std::vector<std::byte> local(rtree::kChunkSize);
  std::array<rdma::WorkCompletion, 1> wc{};
  catfish::Xoshiro256 rng(seed);
  std::vector<uint64_t> ns;
  ns.reserve(iters);
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t off = rng.NextBounded(kRemoteChunks) * rtree::kChunkSize;
    const uint64_t t0 = MonoNanos();
    Require(p.a_qp->PostRead(i + 1, local,
                             rdma::RemoteAddr{p.remote_mr.rkey, off}),
            "PostRead refused");
    Reap(*p.a_send, 1, wc);
    const uint64_t t1 = MonoNanos();
    spans.Add("rdmasim.PostRead+poll", i, 0, t0, t1);
    ns.push_back(t1 - t0);
  }
  return Median(ns);
}

double BatchReadNsPerWr(SpanBuffer& spans, uint64_t seed, size_t iters) {
  constexpr size_t kBatch = 16;
  QpPair p(kRemoteChunks * rtree::kChunkSize);
  std::vector<std::byte> local(kBatch * rtree::kChunkSize);
  std::array<rdma::WorkRequest, kBatch> wrs{};
  std::array<rdma::WorkCompletion, kBatch> wcs{};
  catfish::Xoshiro256 rng(seed);
  std::vector<uint64_t> ns;
  ns.reserve(iters);
  for (size_t i = 0; i < iters; ++i) {
    for (size_t w = 0; w < kBatch; ++w) {
      wrs[w].kind = rdma::WorkRequest::Kind::kRead;
      wrs[w].wr_id = i * kBatch + w + 1;
      wrs[w].dst = std::span<std::byte>(local).subspan(w * rtree::kChunkSize,
                                                       rtree::kChunkSize);
      wrs[w].remote = rdma::RemoteAddr{
          p.remote_mr.rkey, rng.NextBounded(kRemoteChunks) * rtree::kChunkSize};
    }
    const uint64_t t0 = MonoNanos();
    Require(p.a_qp->PostBatch(wrs) == kBatch, "PostBatch refused a WR");
    Reap(*p.a_send, kBatch, wcs);
    const uint64_t t1 = MonoNanos();
    spans.Add("rdmasim.PostBatch16+PollMany", i, 0, t0, t1);
    ns.push_back(t1 - t0);
  }
  return Median(ns) / static_cast<double>(kBatch);
}

double WriteImmWakeNs(SpanBuffer& spans, size_t iters) {
  const size_t payload = msg::WireSize(msg::Encode(msg::SearchRequest{}).size());
  QpPair p(payload);
  std::vector<std::byte> a_mem(payload);
  const rdma::MemoryRegionHandle a_mr = p.a->RegisterMemory(a_mem);
  const std::vector<std::byte> src(payload, std::byte{0x5a});
  std::atomic<bool> failed{false};

  // The peer blocks on its recv CQ, as an event-driven server worker
  // does, and answers each wake with a WRITE-with-IMM back.
  std::thread peer([&] {
    for (size_t i = 0; i < iters; ++i) {
      const auto wc = p.b_recv->Wait(std::chrono::seconds(10));
      if (!wc || !p.b_qp->PostWriteImm(0, src, rdma::RemoteAddr{a_mr.rkey, 0},
                                       static_cast<uint32_t>(i), false)) {
        failed = true;
        return;
      }
    }
  });
  std::vector<uint64_t> ns;
  ns.reserve(iters);
  for (size_t i = 0; i < iters && !failed; ++i) {
    const uint64_t t0 = MonoNanos();
    const bool posted = p.a_qp->PostWriteImm(
        0, src, rdma::RemoteAddr{p.remote_mr.rkey, 0},
        static_cast<uint32_t>(i), false);
    const auto wc = posted ? p.a_recv->Wait(std::chrono::seconds(10))
                           : std::nullopt;
    const uint64_t t1 = MonoNanos();
    if (!wc) {
      failed = true;
      break;
    }
    spans.Add("rdmasim.PostWriteImm+Wait(pingpong)", i, 0, t0, t1);
    ns.push_back(t1 - t0);
  }
  peer.join();
  Require(!failed, "WRITE-with-IMM ping-pong failed");
  return Median(ns) / 2.0;
}

double RingRoundtripUs(SpanBuffer& spans, size_t iters, size_t entries) {
  constexpr size_t kRing = 256 * 1024;
  rdma::Fabric fabric(rdma::FabricProfile::InfiniBand100G());
  auto client = fabric.CreateNode("ring-client");
  auto server = fabric.CreateNode("ring-server");
  auto c_qp = client->CreateQp(client->CreateCq(), client->CreateCq());
  auto s_qp = server->CreateQp(server->CreateCq(), server->CreateCq());
  rdma::QueuePair::Connect(c_qp, s_qp);
  std::vector<std::byte> req_ring(kRing), resp_ring(kRing);
  alignas(8) std::array<std::byte, 8> req_ack{};
  alignas(8) std::array<std::byte, 8> resp_ack{};
  const auto req_mr = server->RegisterMemory(req_ring);
  const auto resp_mr = client->RegisterMemory(resp_ring);
  const auto req_ack_mr = client->RegisterMemory(req_ack);
  const auto resp_ack_mr = server->RegisterMemory(resp_ack);
  msg::RingSender req_tx(c_qp, {req_mr.rkey, 0}, kRing, req_ack);
  msg::RingReceiver req_rx(req_ring, s_qp, {req_ack_mr.rkey, 0});
  msg::RingSender resp_tx(s_qp, {resp_mr.rkey, 0}, kRing, resp_ack);
  msg::RingReceiver resp_rx(resp_ring, c_qp, {resp_ack_mr.rkey, 0});

  std::vector<Entry> reply(entries);
  for (size_t i = 0; i < entries; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(entries);
    reply[i] = Entry{Rect{x, x, x + 1e-4, x + 1e-4}, i};
  }
  std::vector<std::vector<std::byte>> segs;
  msg::Message in;
  std::vector<uint64_t> ns;
  ns.reserve(iters);
  for (size_t i = 0; i < iters; ++i) {
    msg::SearchRequest req;
    req.req_id = i + 1;
    req.rect = Rect{0.25, 0.25, 0.26, 0.26};
    const uint64_t t0 = MonoNanos();
    Require(req_tx.TrySend(static_cast<uint16_t>(msg::MsgType::kSearchReq),
                           msg::kFlagEnd, msg::Encode(req)),
            "request ring full");
    Require(req_rx.TryReceive(in), "request not delivered");
    const auto got = msg::DecodeSearchRequest(in.payload);
    Require(got.has_value(), "request did not decode");
    msg::EncodeSearchResponseInto(got->req_id, reply, resp_tx.MaxPayload(),
                                  segs);
    for (size_t s = 0; s < segs.size(); ++s) {
      const uint16_t flags =
          s + 1 == segs.size() ? msg::kFlagEnd : msg::kFlagCont;
      Require(resp_tx.TrySend(static_cast<uint16_t>(msg::MsgType::kSearchResp),
                              flags, segs[s]),
              "response ring full");
    }
    size_t collected = 0;
    for (bool end = false; !end;) {
      Require(resp_rx.TryReceive(in), "response not delivered");
      const auto seg = msg::DecodeSearchResponseSegment(in.payload);
      Require(seg.has_value(), "response did not decode");
      collected += seg->entries.size();
      end = (in.flags & msg::kFlagEnd) != 0;
    }
    const uint64_t t1 = MonoNanos();
    Require(collected == entries, "reply lost entries");
    spans.Add("msg.ring_roundtrip", i, 0, t0, t1);
    ns.push_back(t1 - t0);
  }
  return Median(ns) / 1e3;
}

LocalSearch SearchLocal(std::span<rtree::RStarTree* const> trees,
                        const catfish::shard::ShardMap* map,
                        std::span<const Rect> queries, uint64_t trace_base,
                        SpanBuffer& spans) {
  LocalSearch r;
  std::vector<Entry> out;
  std::vector<uint32_t> targets;
  std::vector<uint64_t> ns;
  ns.reserve(queries.size());
  uint64_t nodes = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    targets.clear();
    if (map != nullptr) {
      map->QueryShards(queries[i], targets);
    } else {
      targets.push_back(0);
    }
    out.clear();
    rtree::SearchStats st;
    const uint64_t t0 = MonoNanos();
    for (const uint32_t s : targets) {
      trees[s]->SearchTraced(queries[i], out, &st, nullptr);
    }
    const uint64_t t1 = MonoNanos();
    spans.Add("rtree.SearchTraced", trace_base + i, 0, t0, t1);
    ns.push_back(t1 - t0);
    nodes += st.nodes_visited;
  }
  r.searches = queries.size();
  r.p50_us = Median(ns) / 1e3;
  r.nodes_per_search =
      static_cast<double>(nodes) / static_cast<double>(queries.size());
  return r;
}

size_t ArenaChunksFor(size_t items, size_t inserts) {
  // Bulk load packs about 85% of the fanout per node; a split leaves two
  // half-full nodes, so an insert adds at most one chunk per half node.
  const size_t per_node = rtree::kMaxFanout * 85 / 100;
  const size_t leaves = items / per_node + 1;
  return leaves + leaves / 8 + inserts / (rtree::kMaxFanout / 2) + 4096;
}

WritePath TimeWritePath(std::span<const Entry> items,
                        std::span<const Entry> inserts, SpanBuffer& spans) {
  WritePath r;
  r.inserts = inserts.size();
  const size_t chunks = ArenaChunksFor(items.size(), 2 * inserts.size());
  auto ckpt_disk = std::make_shared<durable::MemCheckpointStore>();
  {
    rtree::NodeArena arena(rtree::kChunkSize, chunks);
    rtree::RStarTree tree = rtree::BulkLoad(arena, items);
    std::vector<uint64_t> ns;
    ns.reserve(inserts.size());
    for (size_t i = 0; i < inserts.size(); ++i) {
      const uint64_t t0 = MonoNanos();
      tree.Insert(inserts[i].mbr, inserts[i].id);
      const uint64_t t1 = MonoNanos();
      spans.Add("rtree.Insert", i, 0, t0, t1);
      ns.push_back(t1 - t0);
    }
    r.rtree_insert_us = Median(ns) / 1e3;
    durable::CheckpointMeta meta;
    meta.tree_size = tree.size();
    meta.tree_height = tree.height();
    meta.write_epoch = tree.write_epoch();
    ckpt_disk->Write(
        durable::EncodeCheckpoint(arena, durable::DedupTable(64), meta));
  }
  durable::DurabilityManager mgr(std::make_shared<durable::MemLogStorage>(),
                                 ckpt_disk);
  rtree::NodeArena arena(rtree::kChunkSize, chunks);
  rtree::RStarTree tree = mgr.Recover(arena);
  std::vector<uint64_t> ns;
  ns.reserve(inserts.size());
  for (size_t i = 0; i < inserts.size(); ++i) {
    const uint64_t t0 = MonoNanos();
    const auto res = mgr.ExecuteInsert(tree, /*client_gen=*/1, i + 1,
                                       inserts[i].mbr,
                                       inserts[i].id + (1ull << 62));
    const uint64_t t1 = MonoNanos();
    Require(res.ok, "durable insert refused");
    spans.Add("durable.ExecuteInsert", i, 0, t0, t1);
    ns.push_back(t1 - t0);
  }
  r.durable_insert_us = Median(ns) / 1e3;
  std::vector<uint64_t> ckpt_ns;
  for (size_t i = 0; i < 3; ++i) {
    const uint64_t t0 = MonoNanos();
    mgr.Checkpoint(tree);
    const uint64_t t1 = MonoNanos();
    spans.Add("durable.Checkpoint", i, 0, t0, t1);
    ckpt_ns.push_back(t1 - t0);
  }
  r.checkpoint_ms = Median(ckpt_ns) / 1e6;
  return r;
}

double RouteNs(const catfish::shard::ShardMap& map,
               std::span<const Rect> queries, SpanBuffer& spans) {
  constexpr size_t kBatch = 64;
  std::vector<uint32_t> targets;
  std::vector<uint64_t> ns;
  uint64_t sink = 0;
  for (size_t b = 0; b + kBatch <= queries.size(); b += kBatch) {
    const uint64_t t0 = MonoNanos();
    for (size_t i = b; i < b + kBatch; ++i) {
      targets.clear();
      map.QueryShards(queries[i], targets);
      sink += targets.size() + map.OwnerOf(queries[i]);
    }
    const uint64_t t1 = MonoNanos();
    spans.Add("shard.QueryShards+OwnerOf x64", b / kBatch, 0, t0, t1);
    ns.push_back(t1 - t0);
  }
  Require(sink > 0, "routing found no shard");
  return Median(ns) / static_cast<double>(kBatch);
}

}  // namespace perfbench::layers
