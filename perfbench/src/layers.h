// Per-layer timings for the traced run. Each function times calls into
// one layer's public functions, on objects the benchmark owns, records
// every timed call as a span, and returns the median.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "rtree/node.h"
#include "rtree/rstar.h"
#include "shard/partition.h"
#include "spans.h"

namespace perfbench::layers {

/// One-chunk PostRead plus CQ polls until it completes, on a QP pair the
/// benchmark owns. Median ns per read.
double ReadChunkNs(SpanBuffer& spans, uint64_t seed, size_t iters);

/// 16-WR PostBatch of chunk READs plus PollMany until all complete.
/// Median ns per batch divided by 16.
double BatchReadNsPerWr(SpanBuffer& spans, uint64_t seed, size_t iters);

/// Request-sized PostWriteImm until the peer's blocked recv-CQ waiter
/// wakes: half the median ping-pong round trip between two threads.
double WriteImmWakeNs(SpanBuffer& spans, size_t iters);

/// One search request RingSender→RingReceiver plus a reply of
/// `entries` results back, encoded and decoded by the protocol codecs,
/// on one thread over two rings the benchmark owns. Median µs.
double RingRoundtripUs(SpanBuffer& spans, size_t iters, size_t entries);

/// RStarTree::SearchTraced over `queries`. With several trees each query
/// runs on the trees `map` routes it to (a local fan-out). `trace_base`
/// + index is the span trace id, so a query's span shares the id of the
/// client search it mirrors.
struct LocalSearch {
  double p50_us = 0.0;
  double nodes_per_search = 0.0;
  uint64_t searches = 0;
};
LocalSearch SearchLocal(std::span<catfish::rtree::RStarTree* const> trees,
                        const catfish::shard::ShardMap* map,
                        std::span<const catfish::geo::Rect> queries,
                        uint64_t trace_base, SpanBuffer& spans);

/// Write path on a shard-sized tree bulk-loaded from `items`:
/// RStarTree::Insert of `inserts`, then a DurabilityManager over
/// in-memory storage seeded from that tree, its ExecuteInsert of the same
/// rectangles under fresh ids, and three Checkpoint calls.
struct WritePath {
  double rtree_insert_us = 0.0;
  double durable_insert_us = 0.0;
  double checkpoint_ms = 0.0;
  uint64_t inserts = 0;
};
WritePath TimeWritePath(std::span<const catfish::rtree::Entry> items,
                        std::span<const catfish::rtree::Entry> inserts,
                        SpanBuffer& spans);

/// ShardMap::QueryShards + OwnerOf per query, timed in batches of 64.
/// Median ns per query.
double RouteNs(const catfish::shard::ShardMap& map,
               std::span<const catfish::geo::Rect> queries, SpanBuffer& spans);

/// Arena chunks a tree of `items` entries needs after bulk load plus
/// `inserts` later inserts, with headroom.
size_t ArenaChunksFor(size_t items, size_t inserts);

}  // namespace perfbench::layers
