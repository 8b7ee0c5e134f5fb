// Live wall-clock benchmark of the Catfish stack.
//
// Drives real RTreeServer / ShardHost and RTreeClient / ShardedRTreeClient
// threads over rdmasim in one process, as a closed loop: each client
// thread sends its next request only after the previous reply. The
// fabric profile's latencies are not injected on the live path, so the
// times below are the code's own.
//
//   catfish_perfbench --workload offload_point --seed 1 --seconds 10
//                     --trace 0|1 [--spans FILE] [--client-cache 0|1]
//   catfish_perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload at fixed operation counts, reads the layers' counters, times
// each layer's public calls from this file and layers.cc, and prints the
// per-layer metrics. Every run checks its results against the oracle
// (oracle.h). The last stdout line is one JSON object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "catfish/client.h"
#include "catfish/server.h"
#include "layers.h"
#include "oracle.h"
#include "rdmasim/rdma.h"
#include "rtree/arena.h"
#include "rtree/bulk_load.h"
#include "shard/client.h"
#include "shard/host.h"
#include "spans.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

namespace rtree = catfish::rtree;
namespace shard = catfish::shard;
namespace workload = catfish::workload;
using catfish::geo::Rect;
using rtree::Entry;

const uint64_t g_process_start_ns = MonoNanos();

constexpr size_t kClients = 2;
constexpr uint32_t kShards = 2;
constexpr size_t kDataset = 2'000'000;  // paper §V-B
constexpr double kDataEdge = 1e-4;
/// Searches generated per client for the read-only workloads; a timed
/// window cycles through them.
constexpr size_t kSearchStream = 1 << 16;
/// The read-only workloads' insert windows: one per client, one after
/// the other, each a third of --seconds (at least one second). Each
/// client gets kInsertsPerSecond inserts per second of its window, more
/// than the fastest insert rate seen, so no window runs out. A third,
/// not less: a host slowdown of ten seconds then still leaves part of
/// each window unslowed. One writer at a time: with two
/// concurrent writers an acked entry can vanish from a concurrent search
/// while the other writer's R* forced reinsertion holds it (see
/// perfbench/README.md), and the window would fail its read-your-writes
/// checks now and then. One window per client still spreads the insert
/// metrics over both clients' CPUs.
constexpr size_t kInsertsPerSecond = 50'000;

double InsertWindowSeconds(int seconds) {
  return std::max(1.0, seconds / 3.0);
}
/// p50 latencies and search rates are taken per kWindowUs window of each
/// client's ops, and the run reports the windows' 5th percentile (p50s)
/// or 95th percentile (rates). The host this benchmark was tuned on
/// slows each vCPU by up to 2x for a second or more at a time, each on
/// its own; a run's fastest windows are the ones no other tenant slowed,
/// while a slower code path moves every window. Tail latencies are taken
/// over all of a run's samples, so that stalls show in them.
constexpr uint64_t kWindowUs = 100'000;
constexpr double kFastWindows = 0.05;
/// hybrid_sharded runs a fixed number of operations per client so the
/// WAL, and with it the checkpoint count, grows the same in every run.
constexpr size_t kHybridOpsPerSecond = 60'000;
/// Fixed search counts of the traced run's phases, per client.
constexpr size_t kTracedSearches = 50'000;
constexpr size_t kTracerPhaseSearches = 20'000;
constexpr size_t kTracedInserts = 20'000;
constexpr size_t kFastProbe = 4'000;
/// Sampled searches checked against the oracle: every kSampleStride-th
/// search from a seeded offset, at most kMaxSamples per client.
constexpr size_t kSampleStride = 257;
constexpr size_t kMaxSamples = 256;
constexpr size_t kVerifyQueries = 256;
constexpr int kVerifyTiles = 8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool client_cache = false;
  bool selftest = false;
  std::string spans_path;
};

struct WorkloadSpec {
  std::string name;
  bool sharded = false;
  catfish::ClientMode mode = catfish::ClientMode::kOffloadOnly;
  workload::RequestGen::Config gen;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "offload_point") {
    w.mode = catfish::ClientMode::kOffloadOnly;
    w.gen.scale = 1e-5;
  } else if (name == "fast_range") {
    w.mode = catfish::ClientMode::kFastOnly;
    w.gen.scale = 1e-2;
  } else if (name == "hybrid_sharded") {
    w.sharded = true;
    w.mode = catfish::ClientMode::kOffloadOnly;
    w.gen.dist = workload::RequestGen::ScaleDist::kPowerLaw;
    w.gen.insert_ratio = 0.1;
  } else {
    return std::nullopt;
  }
  return w;
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    const bool numeric = !v.empty() && end != nullptr && *end == '\0';
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--spans") {
      o.spans_path = v;
    } else if (!numeric) {
      std::fprintf(stderr, "bad or unknown argument %s %s\n", a.c_str(),
                   v.c_str());
      return false;
    } else if (a == "--seed") {
      o.seed = n;
    } else if (a == "--seconds" && n >= 1 && n <= 3600) {
      o.seconds = static_cast<int>(n);
    } else if (a == "--trace" && n <= 1) {
      o.trace = n == 1;
    } else if (a == "--client-cache" && n <= 1) {
      o.client_cache = n == 1;
    } else {
      std::fprintf(stderr, "bad or unknown argument %s %s\n", a.c_str(),
                   v.c_str());
      return false;
    }
  }
  return true;
}

// --- CPU pinning -----------------------------------------------------------

/// Client i runs alone on client_cpus[i]. The server worker serving
/// client i's connection is started while the main thread sits on
/// server_cpus[i], and inherits that CPU; the main thread, and the
/// monitor and acceptor threads it starts, share the server CPUs.
struct CpuPlan {
  bool pinned = false;
  std::vector<int> client_cpus;
  std::vector<int> server_cpus;
};

bool PinSelf(std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

CpuPlan PlanCpus() {
  CpuPlan plan;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return plan;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2 * kClients) return plan;
  plan.client_cpus.assign(cpus.begin(), cpus.begin() + kClients);
  plan.server_cpus.assign(cpus.begin() + kClients, cpus.end());
  plan.pinned = PinSelf(plan.server_cpus);
  return plan;
}

void PinClientThread(const CpuPlan& plan, size_t i) {
  if (plan.pinned) PinSelf(std::span<const int>(&plan.client_cpus[i], 1));
}

// --- the system under test -------------------------------------------------

/// Layer counters read through public accessors; Delta() subtracts.
struct Counters {
  uint64_t reads = 0;
  uint64_t doorbells = 0;
  uint64_t polls = 0;
  uint64_t version_retries = 0;
  uint64_t cache_hits = 0;
  uint64_t fanout_subqueries = 0;
  uint64_t routed_searches = 0;

  Counters Delta(const Counters& before) const {
    return {reads - before.reads,
            doorbells - before.doorbells,
            polls - before.polls,
            version_retries - before.version_retries,
            cache_hits - before.cache_hits,
            fanout_subqueries - before.fanout_subqueries,
            routed_searches - before.routed_searches};
  }
};

void AddClient(const catfish::RTreeClient& c, Counters& out) {
  const auto& r = c.remote_stats();
  out.reads += r.reads;
  out.doorbells += r.doorbells;
  out.polls += r.polls;
  out.version_retries += r.version_retries;
  out.cache_hits += c.stats().cache_hits;
}

class Conn {
 public:
  virtual ~Conn() = default;
  virtual std::vector<Entry> Search(const Rect& r) = 0;
  virtual bool Insert(const Rect& r, uint64_t id) = 0;
  /// The connection to shard 0 (the only server when unsharded).
  virtual catfish::RTreeClient& Shard0() = 0;
  virtual void AddCounters(Counters& out) = 0;
};

class SingleConn final : public Conn {
 public:
  explicit SingleConn(std::unique_ptr<catfish::RTreeClient> c)
      : c_(std::move(c)) {}
  std::vector<Entry> Search(const Rect& r) override { return c_->Search(r); }
  bool Insert(const Rect& r, uint64_t id) override {
    return c_->Insert(r, id);
  }
  catfish::RTreeClient& Shard0() override { return *c_; }
  void AddCounters(Counters& out) override {
    AddClient(*c_, out);
    out.fanout_subqueries += c_->stats().fast_searches +
                             c_->stats().offloaded_searches;
    out.routed_searches += c_->stats().fast_searches +
                           c_->stats().offloaded_searches;
  }

 private:
  std::unique_ptr<catfish::RTreeClient> c_;
};

class ShardedConn final : public Conn {
 public:
  explicit ShardedConn(std::unique_ptr<shard::ShardedRTreeClient> c)
      : c_(std::move(c)) {}
  std::vector<Entry> Search(const Rect& r) override { return c_->Search(r); }
  bool Insert(const Rect& r, uint64_t id) override {
    return c_->Insert(r, id);
  }
  catfish::RTreeClient& Shard0() override { return c_->shard_client(0); }
  void AddCounters(Counters& out) override {
    for (uint32_t s = 0; s < c_->shard_count(); ++s) {
      AddClient(c_->shard_client(s), out);
    }
    out.fanout_subqueries += c_->stats().fanout_subqueries;
    out.routed_searches += c_->stats().searches;
  }

 private:
  std::unique_ptr<shard::ShardedRTreeClient> c_;
};

class System {
 public:
  System(const WorkloadSpec& spec, bool client_cache,
         std::span<const Entry> data, size_t expected_inserts)
      : spec_(spec), client_cache_(client_cache) {
    fabric_ = std::make_unique<catfish::rdma::Fabric>(
        catfish::rdma::FabricProfile::InfiniBand100G());
    if (spec.sharded) {
      shard::ShardHostConfig hc;
      hc.num_shards = kShards;
      hc.durable = true;
      // Inserts may be as wide as the largest search scale; the map's
      // query expansion must reach their owners.
      hc.min_slop = spec.gen.pl_hi;
      hc.arena_chunks = layers::ArenaChunksFor(
          data.size() * 12 / (10 * kShards) + 1, expected_inserts);
      host_ = std::make_unique<shard::ShardHost>(*fabric_, hc);
      host_->Load(data);
      map_ = host_->map();
    } else {
      arena_ = std::make_unique<rtree::NodeArena>(
          rtree::kChunkSize,
          layers::ArenaChunksFor(data.size(), expected_inserts));
      tree_ = std::make_unique<rtree::RStarTree>(rtree::BulkLoad(*arena_, data));
      server_ = std::make_unique<catfish::RTreeServer>(
          fabric_->CreateNode("server"), *tree_);
    }
  }

  ~System() { Stop(); }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// A new connection. `tracer` set = the client records span trees, and
  /// an unsharded connection goes to a second server over the same tree
  /// whose ServerConfig carries `server_tracer`.
  std::unique_ptr<Conn> Connect(const std::string& name,
                                catfish::telemetry::Tracer* tracer = nullptr,
                                catfish::telemetry::Tracer* server_tracer =
                                    nullptr) {
    catfish::ClientConfig cc;
    cc.mode = spec_.mode;
    cc.cache_internal_nodes = client_cache_;
    cc.seed = std::hash<std::string>{}(name);
    if (spec_.sharded) {
      shard::ShardedClientConfig sc;
      sc.client = cc;
      sc.tracer = tracer;
      shard::ShardHost* host = host_.get();
      return std::make_unique<ShardedConn>(
          std::make_unique<shard::ShardedRTreeClient>(
              fabric_->CreateNode(name),
              [host](uint32_t s) { return host->Dial(s); }, sc));
    }
    cc.tracer = tracer;
    catfish::RTreeServer* target = server_.get();
    if (tracer != nullptr) {
      if (!traced_server_) {
        catfish::ServerConfig sc;
        sc.tracer = server_tracer;
        traced_server_ = std::make_unique<catfish::RTreeServer>(
            fabric_->CreateNode("server-traced"), *tree_, sc);
      }
      target = traced_server_.get();
    }
    return std::make_unique<SingleConn>(std::make_unique<catfish::RTreeClient>(
        fabric_->CreateNode(name), *target, cc));
  }

  std::vector<catfish::RTreeServer*> Servers() {
    if (!spec_.sharded) return {server_.get()};
    std::vector<catfish::RTreeServer*> out;
    for (uint32_t s = 0; s < kShards; ++s) out.push_back(&host_->server(s));
    return out;
  }

  std::vector<rtree::RStarTree*> Trees() {
    if (!spec_.sharded) return {tree_.get()};
    std::vector<rtree::RStarTree*> out;
    for (uint32_t s = 0; s < kShards; ++s) out.push_back(&host_->tree(s));
    return out;
  }

  /// Bytes moved by the server nodes' NICs (both directions).
  uint64_t ServerNicBytes() {
    uint64_t b = 0;
    for (auto* s : Servers()) {
      const auto st = s->node()->stats();
      b += st.bytes_sent + st.bytes_received;
    }
    return b;
  }

  uint64_t TreeSize() {
    uint64_t n = 0;
    for (auto* t : Trees()) n += t->size();
    return n;
  }

  /// The routing table, or null when unsharded.
  const shard::ShardMap* Map() const {
    return spec_.sharded ? &map_ : nullptr;
  }

  void RestartShard0() {
    host_->RestartShard(0);
    map_ = host_->map();
  }

  void Stop() {
    if (traced_server_) traced_server_->Stop();
    if (server_) server_->Stop();
    if (host_) host_->Stop();
  }

 private:
  WorkloadSpec spec_;
  bool client_cache_;
  std::unique_ptr<catfish::rdma::Fabric> fabric_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<catfish::RTreeServer> server_;
  std::unique_ptr<catfish::RTreeServer> traced_server_;
  std::unique_ptr<shard::ShardHost> host_;
  shard::ShardMap map_;
};

/// Connects the client threads' connections, each with its server
/// worker(s) started on that client's server CPU.
std::vector<std::unique_ptr<Conn>> ConnectClients(
    System& sys, const CpuPlan& cpus, const std::string& prefix,
    catfish::telemetry::Tracer* tracer = nullptr,
    catfish::telemetry::Tracer* server_tracer = nullptr) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < kClients; ++c) {
    if (cpus.pinned) {
      PinSelf(std::span<const int>(
          &cpus.server_cpus[c % cpus.server_cpus.size()], 1));
    }
    conns.push_back(
        sys.Connect(prefix + std::to_string(c), tracer, server_tracer));
  }
  if (cpus.pinned) PinSelf(cpus.server_cpus);
  return conns;
}

// --- closed-loop client phases ---------------------------------------------

struct Sample {
  Rect q;
  uint64_t before = 0;  ///< insert stamps below this must be visible
  std::vector<uint64_t> ids;
};

struct ClientLog {
  uint64_t start_ns = 0;  ///< when the log's phase started
  std::vector<uint32_t> search_ns;
  std::vector<uint32_t> insert_ns;
  /// Completion time of each op above, µs since start_ns.
  std::vector<uint32_t> search_at_us;
  std::vector<uint32_t> insert_at_us;
  uint64_t searches = 0;
  uint64_t inserts = 0;
  uint64_t probes = 0;  ///< read-your-writes searches after each insert
  uint64_t failed = 0;
  uint64_t violations = 0;
  std::string first_problem;
  std::vector<AckedInsert> acked;
  std::vector<Sample> samples;
  uint64_t end_ns = 0;
  SpanBuffer spans{0};

  void Problem(const std::string& what) {
    ++violations;
    if (first_problem.empty()) first_problem = what;
  }
};

struct Phase {
  /// Run for this long (0 = until the stream or max_ops is done).
  double window_s = 0.0;
  /// Cycle through the stream until the window ends.
  bool cycle = false;
  /// Set by RunPhase when the clients start.
  uint64_t start_ns = 0;
  uint64_t deadline_ns = 0;
  size_t max_ops = 0;  ///< 0 = the whole stream
  bool searches_only = false;
  bool sample = false;
  size_t span_cap = 0;  ///< spans kept per client (0 = none)
  uint64_t sample_offset = 0;
};

/// Global order of insert acks: a search that read stamp S before it was
/// sent must see every insert stamped below S.
std::atomic<uint64_t> g_ack_stamp{0};

void ClientLoop(Conn& conn, std::span<const workload::Request> stream,
                const Phase& ph, size_t client, ClientLog& log) {
  std::vector<uint64_t> scratch;
  const size_t n = ph.max_ops != 0 ? std::min(ph.max_ops, stream.size())
                                   : stream.size();
  const uint64_t trace_base = static_cast<uint64_t>(client) << 40;
  log.start_ns = ph.start_ns;
  for (size_t k = 0;; ++k) {
    if (ph.deadline_ns != 0 && MonoNanos() >= ph.deadline_ns) break;
    if (!ph.cycle && k >= n) break;
    const size_t idx = k % stream.size();
    const workload::Request& r = stream[idx];
    try {
      if (r.op == workload::OpType::kInsert) {
        if (ph.searches_only) continue;
        const uint64_t t0 = MonoNanos();
        const bool ok = conn.Insert(r.rect, r.id);
        const uint64_t t1 = MonoNanos();
        ++log.inserts;
        if (!ok) {
          ++log.failed;
          if (log.first_problem.empty()) {
            log.first_problem = "insert " + std::to_string(r.id) + " not acked";
          }
          continue;
        }
        const uint64_t stamp = g_ack_stamp.fetch_add(1);
        log.insert_ns.push_back(static_cast<uint32_t>(
            std::min<uint64_t>(t1 - t0, UINT32_MAX)));
        log.insert_at_us.push_back(
            static_cast<uint32_t>((t1 - ph.start_ns) / 1000));
        log.acked.push_back({Entry{r.rect, r.id}, stamp});
        const uint32_t insert_span =
            ph.span_cap != 0
                ? log.spans.Add("client.insert", trace_base + idx, 0, t0, t1)
                : 0;
        // Read-your-writes: the client's next search covers its own
        // just-acked insert and must return it.
        const uint64_t p0 = MonoNanos();
        const auto probe = conn.Search(r.rect);
        if (ph.span_cap != 0) {
          log.spans.Add("client.search(read-your-writes)", trace_base + idx,
                        insert_span, p0, MonoNanos());
        }
        ++log.probes;
        std::string err = CheckProperties(r.rect, probe, scratch);
        if (err.empty() &&
            !std::binary_search(scratch.begin(), scratch.end(), r.id)) {
          err = "read-your-writes: acked insert " + std::to_string(r.id) +
                " missing from the client's next search";
        }
        if (!err.empty()) log.Problem(err);
        continue;
      }
      const uint64_t before = g_ack_stamp.load();
      const uint64_t t0 = MonoNanos();
      const auto res = conn.Search(r.rect);
      const uint64_t t1 = MonoNanos();
      ++log.searches;
      log.search_ns.push_back(
          static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
      log.search_at_us.push_back(
          static_cast<uint32_t>((t1 - ph.start_ns) / 1000));
      if (ph.span_cap != 0) {
        log.spans.Add("client.search", trace_base + idx, 0, t0, t1);
      }
      const std::string err = CheckProperties(r.rect, res, scratch);
      if (!err.empty()) log.Problem(err);
      if (ph.sample && log.samples.size() < kMaxSamples &&
          (log.searches + ph.sample_offset) % kSampleStride == 0) {
        log.samples.push_back({r.rect, before, scratch});
      }
    } catch (const std::exception& e) {
      ++log.failed;
      if (log.first_problem.empty()) {
        log.first_problem = std::string("operation failed: ") + e.what();
      }
    }
  }
  log.end_ns = MonoNanos();
}

struct PhaseResult {
  std::vector<ClientLog> logs;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double mean_utilization = 0.0;
  size_t utilization_samples = 0;

  double Seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
  uint64_t Sum(uint64_t ClientLog::*field) const {
    uint64_t s = 0;
    for (const auto& l : logs) s += l.*field;
    return s;
  }
  std::vector<uint32_t> Merged(std::vector<uint32_t> ClientLog::*field) const {
    std::vector<uint32_t> out;
    for (const auto& l : logs) {
      out.insert(out.end(), (l.*field).begin(), (l.*field).end());
    }
    return out;
  }
};

/// A latency quantile or an op rate taken per kWindowUs window of each
/// client's ops, then a quantile over all full windows.
struct Windowed {
  double value = 0.0;
  size_t windows = 0;
  size_t samples = 0;
};

/// `q` in [0,1] takes that quantile of each window's latencies (µs);
/// q < 0 takes each window's op rate (ops/s). The result is the `over`
/// quantile of the per-window values. A window needs `min_samples` ops
/// to count; with no full window the whole phase is one window.
Windowed WindowQuantile(const PhaseResult& ph,
                        std::vector<uint32_t> ClientLog::*lat_ns,
                        std::vector<uint32_t> ClientLog::*at_us, double q,
                        double over, size_t min_samples) {
  Windowed w;
  std::vector<double> per_window;
  std::vector<uint32_t> win;
  for (const ClientLog& l : ph.logs) {
    const auto& lat = l.*lat_ns;
    const auto& at = l.*at_us;
    w.samples += lat.size();
    const uint64_t full = (l.end_ns - l.start_ns) / 1000 / kWindowUs;
    size_t i = 0;
    for (uint64_t k = 0; k < full; ++k) {
      win.clear();
      for (; i < at.size() && at[i] / kWindowUs == k; ++i) win.push_back(lat[i]);
      if (win.size() < min_samples) continue;
      per_window.push_back(q < 0.0 ? static_cast<double>(win.size()) * 1e6 /
                                         static_cast<double>(kWindowUs)
                                   : Quantile(win, q) / 1e3);
    }
  }
  w.windows = per_window.size();
  if (!per_window.empty()) {
    w.value = Quantile(per_window, over);
    return w;
  }
  // Too short for a full window: the whole phase is the one window.
  w.windows = 1;
  if (q < 0.0) {
    w.value = static_cast<double>(w.samples) / ph.Seconds() /
              static_cast<double>(ph.logs.size());
  } else {
    auto all = ph.Merged(lat_ns);
    w.value = Quantile(all, q) / 1e3;
  }
  return w;
}

/// Runs one closed-loop phase: client i drives conns[i] over streams[i]
/// on its own pinned thread. With `servers` given, the main thread
/// samples their utilization every 5 ms while the clients run.
PhaseResult RunPhase(const CpuPlan& cpus, std::vector<std::unique_ptr<Conn>>& conns,
                     const std::vector<std::vector<workload::Request>>& streams,
                     Phase ph,
                     std::span<catfish::RTreeServer* const> servers = {}) {
  PhaseResult res;
  res.logs.resize(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    // Room for every sample up front, so no client reallocates while timed.
    ClientLog& log = res.logs[i];
    log.spans = SpanBuffer(ph.span_cap);
    size_t searches = 0, inserts = 0;
    if (ph.cycle) {
      searches = static_cast<size_t>(ph.window_s * 400'000) + 1;
    } else {
      for (const auto& r : streams[i]) {
        ++(r.op == workload::OpType::kInsert ? inserts : searches);
      }
    }
    log.search_ns.reserve(searches);
    log.search_at_us.reserve(searches);
    log.insert_ns.reserve(inserts);
    log.insert_at_us.reserve(inserts);
  }
  std::atomic<bool> go{false};
  std::atomic<size_t> running{conns.size()};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      PinClientThread(cpus, i);
      alloc::MarkClientThread();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ClientLoop(*conns[i], streams[i], ph, i, res.logs[i]);
      running.fetch_sub(1);
    });
  }
  res.start_ns = MonoNanos();
  ph.start_ns = res.start_ns;
  if (ph.window_s > 0.0) {
    ph.deadline_ns = res.start_ns + static_cast<uint64_t>(ph.window_s * 1e9);
  }
  // Threads read `ph` only after `go`, so the deadline set above is seen.
  go.store(true, std::memory_order_release);
  double util_sum = 0.0;
  while (!servers.empty() && running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    double u = 0.0;
    for (auto* s : servers) u += s->utilization();
    util_sum += u / static_cast<double>(servers.size());
    ++res.utilization_samples;
  }
  for (auto& t : threads) t.join();
  res.end_ns = res.start_ns;
  for (const auto& l : res.logs) res.end_ns = std::max(res.end_ns, l.end_ns);
  if (res.utilization_samples != 0) {
    res.mean_utilization = util_sum / static_cast<double>(res.utilization_samples);
  }
  return res;
}

// --- verification ----------------------------------------------------------

/// Property checks plus the oracle comparison for one search result.
std::string Verify(const Oracle& oracle, const Rect& q, uint64_t before,
                   std::span<const Entry> got, std::vector<uint64_t>& ids,
                   std::vector<uint64_t>& must, std::vector<uint64_t>& may) {
  std::string err = CheckProperties(q, got, ids);
  if (!err.empty()) return err;
  oracle.Answer(q, before, must, may);
  return CheckAgainstOracle(ids, must, may);
}

std::string CheckTreeSize(uint64_t actual, uint64_t expected) {
  if (actual == expected) return {};
  return "tree holds " + std::to_string(actual) + " entries, expected " +
         std::to_string(expected) + " (dataset plus acked inserts)";
}

struct CheckTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t problems = 0;
  std::string first_problem;

  void Problem(const std::string& what) {
    if (what.empty()) return;
    ++problems;
    if (first_problem.empty()) first_problem = what;
  }
};

/// Runs the verification set through `conn` and checks every answer
/// against the oracle, all acked inserts required.
void VerifySet(Conn& conn, const Oracle& oracle, std::span<const Rect> set,
               const char* label, CheckTally& tally) {
  std::vector<uint64_t> ids, must, may;
  for (const Rect& q : set) {
    ++tally.attempted;
    try {
      const auto got = conn.Search(q);
      const std::string err = Verify(oracle, q, UINT64_MAX, got, ids, must, may);
      if (!err.empty()) tally.Problem(std::string(label) + ": " + err);
    } catch (const std::exception& e) {
      ++tally.failed;
      tally.Problem(std::string(label) + ": search failed: " + e.what());
    }
  }
}

void CheckSamples(const PhaseResult& ph, const Oracle& oracle, CheckTally& tally) {
  std::vector<uint64_t> must, may;
  for (const auto& log : ph.logs) {
    for (const Sample& s : log.samples) {
      oracle.Answer(s.q, s.before, must, may);
      const std::string err = CheckAgainstOracle(s.ids, must, may);
      if (!err.empty()) tally.Problem("sampled search: " + err);
    }
  }
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< what the value was computed over
};

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterValue(const catfish::telemetry::Snapshot& s,
                      const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.4f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Progress on stderr: what finished and how long the run has taken.
void Note(const char* what) {
  std::fprintf(stderr, "[perfbench %7.2f s] %s\n",
               static_cast<double>(MonoNanos() - g_process_start_ns) / 1e9,
               what);
}

// --- inputs ----------------------------------------------------------------

struct Inputs {
  std::vector<Entry> data;
  std::vector<std::vector<workload::Request>> streams;  ///< measured ops
  std::vector<std::vector<workload::Request>> inserts;  ///< read-only tail
  std::vector<Rect> verify;
};

Inputs MakeInputs(const WorkloadSpec& spec, const Options& o) {
  Inputs in;
  in.data = workload::UniformDataset(kDataset, kDataEdge, o.seed);
  const size_t ops = spec.sharded
                         ? kHybridOpsPerSecond * static_cast<size_t>(o.seconds)
                         : kSearchStream;
  for (size_t c = 0; c < kClients; ++c) {
    auto g = spec.gen;
    g.first_insert_id = (1ull << 40) * (c + 1);
    workload::RequestGen gen(g, o.seed * 1'000'003 + 17 * (c + 1));
    std::vector<workload::Request> s(ops);
    for (auto& r : s) r = gen.Next();
    in.streams.push_back(std::move(s));
    if (!spec.sharded) {
      auto ig = spec.gen;
      ig.insert_ratio = 1.0;
      ig.first_insert_id = (1ull << 40) * (c + 11);
      workload::RequestGen igen(ig, o.seed * 1'000'003 + 101 * (c + 1));
      std::vector<workload::Request> is(static_cast<size_t>(
          kInsertsPerSecond * InsertWindowSeconds(o.seconds)));
      for (auto& r : is) r = igen.Next();
      in.inserts.push_back(std::move(is));
    }
  }
  auto vg = spec.gen;
  vg.insert_ratio = 0.0;
  workload::RequestGen vgen(vg, o.seed * 1'000'003 + 999);
  for (size_t i = 0; i < kVerifyQueries; ++i) in.verify.push_back(vgen.Next().rect);
  // Tiles covering the unit square, so every entry is checked. Tiles
  // rather than one whole-square query: a level wider than the client's
  // scratch pool makes an offloaded search quadratic in its width.
  for (int x = 0; x < kVerifyTiles; ++x) {
    for (int y = 0; y < kVerifyTiles; ++y) {
      in.verify.push_back(Rect{x * 1.0 / kVerifyTiles, y * 1.0 / kVerifyTiles,
                               (x + 1) * 1.0 / kVerifyTiles,
                               (y + 1) * 1.0 / kVerifyTiles});
    }
  }
  return in;
}

std::vector<Rect> SearchRects(std::span<const workload::Request> stream,
                              size_t n) {
  std::vector<Rect> out;
  for (const auto& r : stream) {
    if (out.size() >= n) break;
    if (r.op == workload::OpType::kSearch) out.push_back(r.rect);
  }
  return out;
}

// --- the run ---------------------------------------------------------------

int Run(const Options& o, const WorkloadSpec& spec) {
  const CpuPlan cpus = PlanCpus();
  const uint64_t gen_t0 = MonoNanos();
  Inputs in = MakeInputs(spec, o);
  const uint64_t gen_ns = MonoNanos() - gen_t0;
  size_t expected_inserts = 0;
  for (const auto& s : in.streams) {
    for (const auto& r : s) expected_inserts += r.op == workload::OpType::kInsert;
  }
  for (const auto& s : in.inserts) expected_inserts += s.size();

  // Tracers outlive the system: the traced server keeps a pointer.
  catfish::telemetry::Tracer client_tracer;
  catfish::telemetry::Tracer server_tracer;
  System sys(spec, o.client_cache, in.data, expected_inserts);
  auto conns = ConnectClients(sys, cpus, "client-");
  const double setup_s =
      static_cast<double>(MonoNanos() - g_process_start_ns - gen_ns) / 1e9;
  Note("set up");

  std::printf("workload=%s seed=%llu seconds=%d trace=%d clients=%zu "
              "pinned=%s dataset=%zu client_cache=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, kClients,
              cpus.pinned ? "yes" : "no", in.data.size(),
              o.client_cache ? 1 : 0);

  CheckTally tally;
  SpanLog span_log;
  const auto servers = sys.Servers();
  const auto reg_before = catfish::telemetry::Registry::Global().TakeSnapshot();
  Counters c_before;
  for (auto& c : conns) c->AddCounters(c_before);
  const uint64_t nic_before = sys.ServerNicBytes();

  // Phase A: the measured operations.
  Phase a;
  a.sample = true;
  a.sample_offset = o.seed % kSampleStride;
  if (spec.sharded) {
    a.max_ops = 0;  // the whole fixed stream
  } else if (o.trace) {
    a.max_ops = kTracedSearches;
  } else {
    a.cycle = true;
    a.window_s = o.seconds;
  }
  if (o.trace) a.span_cap = in.streams[0].size() + 16;
  if (o.trace) alloc::Start();
  PhaseResult pa = RunPhase(cpus, conns, in.streams, a,
                            o.trace ? std::span<catfish::RTreeServer* const>(servers)
                                    : std::span<catfish::RTreeServer* const>());
  const alloc::Counts allocs = o.trace ? alloc::Stop() : alloc::Counts{};
  // Before the read-only workloads' insert windows: how many inserts a
  // timed window holds depends on speed, and each grows the tree.
  const double peak_rss = PeakRssMib();
  Counters c_after;
  for (auto& c : conns) c->AddCounters(c_after);
  const Counters cd = c_after.Delta(c_before);
  const uint64_t nic_bytes = sys.ServerNicBytes() - nic_before;

  // Phase B (read-only workloads): acked inserts after the search window,
  // from one client at a time. pb holds the writers' logs.
  PhaseResult pb;
  if (!spec.sharded) {
    Phase b;
    // A fixed count in the traced run keeps the tree, and so the local
    // traversal counts measured after it, the same at a fixed seed.
    if (o.trace) {
      b.max_ops = kTracedInserts;
    } else {
      b.window_s = InsertWindowSeconds(o.seconds);
    }
    for (size_t w = 0; w < kClients; ++w) {
      std::vector<std::vector<workload::Request>> one(kClients);
      one[w] = std::move(in.inserts[w]);
      PhaseResult r = RunPhase(cpus, conns, one, b);
      in.inserts[w] = std::move(one[w]);
      if (w == 0) pb.start_ns = r.start_ns;
      pb.end_ns = r.end_ns;
      pb.logs.push_back(std::move(r.logs[w]));
    }
  }
  const auto reg_after = catfish::telemetry::Registry::Global().TakeSnapshot();
  Note("measured phase done");

  for (const PhaseResult* p : {&pa, &pb}) {
    tally.attempted += p->Sum(&ClientLog::searches) + p->Sum(&ClientLog::inserts) +
                       p->Sum(&ClientLog::probes);
    tally.failed += p->Sum(&ClientLog::failed);
    for (const auto& l : p->logs) {
      tally.problems += l.violations;
      if (tally.first_problem.empty()) tally.first_problem = l.first_problem;
    }
  }

  std::vector<Metric> metrics;
  const uint64_t searches = pa.Sum(&ClientLog::searches);

  if (!o.trace) {
    const PhaseResult& ins = spec.sharded ? pa : pb;
    const auto s50 = WindowQuantile(pa, &ClientLog::search_ns,
                                    &ClientLog::search_at_us, 0.5,
                                    kFastWindows, 100);
    auto search_all = pa.Merged(&ClientLog::search_ns);
    const double s99 = Quantile(search_all, 0.99) / 1e3;
    const auto rate = WindowQuantile(pa, &ClientLog::search_ns,
                                     &ClientLog::search_at_us, -1.0,
                                     1.0 - kFastWindows, 1);
    const auto i50 = WindowQuantile(ins, &ClientLog::insert_ns,
                                    &ClientLog::insert_at_us, 0.5,
                                    kFastWindows, 100);
    auto base = [](const Windowed& w, const char* pct, const char* what) {
      return std::string(pct) + " percentile of " +
             std::to_string(w.windows) + " windows, " +
             std::to_string(w.samples) + " " + what;
    };
    metrics.push_back({"search_p50_us", s50.value, "us",
                       base(s50, "5th", "searches")});
    metrics.push_back({"search_p99_us", s99, "us",
                       "all " + std::to_string(search_all.size()) +
                           " searches, " +
                           std::to_string(search_all.size() / 100) + " beyond"});
    metrics.push_back({"search_kops", rate.value * kClients / 1e3, "kops/s",
                       base(rate, "95th", "searches") + " x " +
                           std::to_string(kClients) + " closed-loop clients"});
    metrics.push_back({"insert_p50_us", i50.value, "us",
                       base(i50, "5th", "acked inserts")});
    metrics.push_back({"setup_s", setup_s, "s",
                       "bulk load, server start, seed checkpoint, connect"});
    metrics.push_back({"peak_rss_mib", peak_rss, "MiB", "getrusage ru_maxrss"});
  } else {
    SpanBuffer main_spans(1 << 20);
    // Per-search counts divide by every search of the phase, the untimed
    // read-your-writes searches after each insert included.
    const uint64_t probes = pa.Sum(&ClientLog::probes);
    const uint64_t inserts = pa.Sum(&ClientLog::inserts);
    const double sd = static_cast<double>(searches + probes);
    const std::string per_search =
        "/ " + std::to_string(searches + probes) + " searches" +
        (probes != 0 ? " (" + std::to_string(probes) + " read-your-writes)"
                     : std::string());
    // Inserts run in the same phase on hybrid_sharded; say so where their
    // traffic is in the numerator too.
    const std::string with_inserts =
        inserts != 0
            ? ", numerator includes " + std::to_string(inserts) + " inserts"
            : std::string();
    const uint64_t ops = searches + inserts + probes;

    // Tracer overhead: the same search-only stream prefix through the
    // untraced connections, then through traced ones.
    Phase t;
    t.searches_only = true;
    t.max_ops = kTracerPhaseSearches;
    auto off = RunPhase(cpus, conns, in.streams, t);
    auto traced =
        ConnectClients(sys, cpus, "client-traced-", &client_tracer, &server_tracer);
    auto on = RunPhase(cpus, traced, in.streams, t);
    traced.clear();
    auto off_ns = off.Merged(&ClientLog::search_ns);
    auto on_ns = on.Merged(&ClientLog::search_ns);
    const double tracer_overhead_us =
        (Quantile(on_ns, 0.5) - Quantile(off_ns, 0.5)) / 1e3;
    for (const PhaseResult* p : {&off, &on}) {
      tally.attempted += p->Sum(&ClientLog::searches);
      tally.failed += p->Sum(&ClientLog::failed);
      for (const auto& l : p->logs) tally.problems += l.violations;
    }

    // Local traversal of the same query stream on the served tree(s).
    const auto trees = sys.Trees();
    const auto local_rects = SearchRects(in.streams[0], kTracerPhaseSearches);
    const auto local = layers::SearchLocal(trees, sys.Map(), local_rects, 0,
                                           main_spans);

    // Fast-messaging probe on shard 0 for the wake / hand-off residual:
    // client p50 minus the local traversal minus the ring round trip.
    const auto probe_rects = SearchRects(in.streams[0], kFastProbe);
    std::vector<uint64_t> fast_ns;
    catfish::RTreeClient& fc = conns[0]->Shard0();
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < probe_rects.size(); ++i) {
      ++tally.attempted;
      try {
        const uint64_t t0 = MonoNanos();
        const auto res = fc.SearchFast(probe_rects[i]);
        const uint64_t t1 = MonoNanos();
        main_spans.Add("client.SearchFast", (1ull << 48) + i, 0, t0, t1);
        fast_ns.push_back(t1 - t0);
        tally.Problem(CheckProperties(probe_rects[i], res, ids));
      } catch (const std::exception& e) {
        ++tally.failed;
        tally.Problem(std::string("fast probe failed: ") + e.what());
      }
    }
    rtree::RStarTree* tree0 = trees[0];
    const auto local0 = layers::SearchLocal(
        std::span<rtree::RStarTree* const>(&tree0, 1), nullptr, probe_rects,
        1ull << 48, main_spans);
    const double ring_us = layers::RingRoundtripUs(main_spans, 20'000, 51);
    const double fast_residual_us =
        Median(fast_ns) / 1e3 - local0.p50_us - ring_us;

    // Write path and routing on objects the benchmark owns.
    // The workload's own insert rectangles, 5000 of them.
    std::vector<Entry> write_inserts;
    for (const auto& stream : spec.sharded ? in.streams : in.inserts) {
      for (const auto& r : stream) {
        if (r.op == workload::OpType::kInsert && write_inserts.size() < 5'000) {
          write_inserts.push_back({r.rect, r.id});
        }
      }
    }
    const auto reg_wp_before =
        catfish::telemetry::Registry::Global().TakeSnapshot();
    const auto wp = layers::TimeWritePath(
        std::span<const Entry>(in.data).subspan(0, in.data.size() / kShards),
        write_inserts, main_spans);
    const auto reg_wp_after =
        catfish::telemetry::Registry::Global().TakeSnapshot();
    const shard::ShardMap own_map = shard::BuildGridMap(in.data, kShards);
    const double route_ns = layers::RouteNs(
        sys.Map() != nullptr ? *sys.Map() : own_map, local_rects, main_spans);

    // The read-only workloads' server is volatile: their WAL figures come
    // from the benchmark's own durability manager above.
    const auto& w_before = spec.sharded ? reg_before : reg_wp_before;
    const auto& w_after = spec.sharded ? reg_after : reg_wp_after;
    const uint64_t writes = CounterValue(w_after, "durable.writes") -
                            CounterValue(w_before, "durable.writes");
    const uint64_t syncs = CounterValue(w_after, "wal.syncs") -
                           CounterValue(w_before, "wal.syncs");
    const uint64_t ckpts = CounterValue(reg_after, "durable.checkpoints") -
                           CounterValue(reg_before, "durable.checkpoints");

    metrics.push_back({"rdmasim.read_chunk_ns",
                       layers::ReadChunkNs(main_spans, o.seed, 20'000), "ns",
                       "median of 20000 1-chunk PostRead+poll"});
    metrics.push_back({"rdmasim.batch_read_ns_per_wr",
                       layers::BatchReadNsPerWr(main_spans, o.seed, 5'000), "ns",
                       "median of 5000 16-WR PostBatch+PollMany / 16"});
    metrics.push_back({"rdmasim.write_imm_wake_ns",
                       layers::WriteImmWakeNs(main_spans, 20'000), "ns",
                       "median of 20000 WRITE-with-IMM ping-pongs / 2"});
    metrics.push_back({"rdmasim.bytes_per_search",
                       Ratio(static_cast<double>(nic_bytes), sd), "B",
                       std::to_string(nic_bytes) + " server NIC bytes " +
                           per_search + with_inserts});
    metrics.push_back({"remote.reads_per_search",
                       Ratio(static_cast<double>(cd.reads), sd), "count",
                       std::to_string(cd.reads) + " READs " + per_search});
    metrics.push_back({"remote.doorbells_per_search",
                       Ratio(static_cast<double>(cd.doorbells), sd), "count",
                       std::to_string(cd.doorbells) + " doorbells " + per_search});
    metrics.push_back({"remote.polls_per_search",
                       Ratio(static_cast<double>(cd.polls), sd), "count",
                       std::to_string(cd.polls) + " polls " + per_search});
    metrics.push_back({"remote.version_retries_per_ksearch",
                       Ratio(1e3 * static_cast<double>(cd.version_retries), sd),
                       "count",
                       std::to_string(cd.version_retries) + " retries " +
                           per_search + " x1000"});
    metrics.push_back({"msg.ring_roundtrip_us", ring_us, "us",
                       "median of 20000 request + 51-entry reply"});
    metrics.push_back({"rtree.search_us", local.p50_us, "us",
                       "median of " + std::to_string(local.searches) +
                           " local SearchTraced"});
    metrics.push_back({"rtree.nodes_per_search", local.nodes_per_search,
                       "count", "over " + std::to_string(local.searches) +
                                    " local searches"});
    metrics.push_back({"rtree.insert_us", wp.rtree_insert_us, "us",
                       "median of " + std::to_string(wp.inserts) +
                           " RStarTree::Insert"});
    metrics.push_back({"catfish.client.allocs_per_search",
                       Ratio(static_cast<double>(allocs.client), sd), "count",
                       std::to_string(allocs.client) +
                           " client-thread allocations " + per_search +
                           with_inserts});
    metrics.push_back({"catfish.server.allocs_per_op",
                       Ratio(static_cast<double>(allocs.other),
                             static_cast<double>(ops)),
                       "count",
                       std::to_string(allocs.other) +
                           " non-client allocations / " + std::to_string(ops) +
                           " ops"});
    metrics.push_back({"catfish.server.utilization", pa.mean_utilization,
                       "ratio",
                       "mean of " + std::to_string(pa.utilization_samples) +
                           " samples"});
    metrics.push_back({"catfish.fast_residual_us", fast_residual_us, "us",
                       "fast p50 over " + std::to_string(fast_ns.size()) +
                           " - local p50 - ring round trip"});
    metrics.push_back({"catfish.client.cache_hits_per_search",
                       Ratio(static_cast<double>(cd.cache_hits), sd), "count",
                       std::to_string(cd.cache_hits) + " hits " + per_search});
    metrics.push_back({"durable.insert_us", wp.durable_insert_us, "us",
                       "median of " + std::to_string(wp.inserts) +
                           " ExecuteInsert"});
    metrics.push_back({"durable.syncs_per_write",
                       Ratio(static_cast<double>(syncs),
                             static_cast<double>(writes)),
                       "count",
                       std::to_string(syncs) + " wal.syncs / " +
                           std::to_string(writes) + " durable.writes" +
                           (spec.sharded ? "" : " of the benchmark's ExecuteInsert calls")});
    metrics.push_back({"durable.checkpoints", static_cast<double>(ckpts),
                       "count", "durable.checkpoints in the measured phase"});
    metrics.push_back({"durable.checkpoint_ms", wp.checkpoint_ms, "ms",
                       "median of 3 Checkpoint calls"});
    metrics.push_back({"shard.fanout_per_search",
                       Ratio(static_cast<double>(cd.fanout_subqueries),
                             static_cast<double>(cd.routed_searches)),
                       "count",
                       std::to_string(cd.fanout_subqueries) + " sub-queries / " +
                           std::to_string(cd.routed_searches) + " searches"});
    metrics.push_back({"shard.route_ns", route_ns, "ns",
                       std::string("median per query over batches of 64") +
                           (sys.Map() ? "" : ", benchmark-owned 2-shard map")});
    metrics.push_back({"telemetry.tracer_overhead_us", tracer_overhead_us,
                       "us",
                       "p50 of " + std::to_string(on_ns.size()) +
                           " traced - p50 of " + std::to_string(off_ns.size()) +
                           " untraced searches"});
    span_log.Merge("main", main_spans);
    for (size_t c = 0; c < pa.logs.size(); ++c) {
      span_log.Merge("client-" + std::to_string(c), pa.logs[c].spans);
    }
  }

  // Verification: the sampled searches, then the verification set, the
  // tree sizes, and (sharded) the same after restarting shard 0.
  std::vector<AckedInsert> acked;
  for (const PhaseResult* p : {&pa, &pb}) {
    for (const auto& l : p->logs) acked.insert(acked.end(), l.acked.begin(), l.acked.end());
  }
  const uint64_t expected_size = in.data.size() + acked.size();
  Oracle oracle(std::move(in.data));
  oracle.AddInserts(acked);
  CheckSamples(pa, oracle, tally);
  Note("sampled searches checked");
  conns.clear();
  {
    auto v = sys.Connect("verify");
    VerifySet(*v, oracle, in.verify, "verification set", tally);
  }
  tally.Problem(CheckTreeSize(sys.TreeSize(), expected_size));
  Note("verification set checked");
  if (spec.sharded) {
    sys.RestartShard0();
    Note("shard 0 restarted");
    auto v = sys.Connect("verify-after-restart");
    VerifySet(*v, oracle, in.verify, "after restarting shard 0", tally);
    tally.Problem(CheckTreeSize(sys.TreeSize(), expected_size));
  }
  sys.Stop();
  Note("verified");

  if (o.trace && !o.spans_path.empty()) {
    if (span_log.Write(o.spans_path)) {
      std::printf("spans: %zu written to %s\n", span_log.size(),
                  o.spans_path.c_str());
    } else {
      std::fprintf(stderr, "could not write spans to %s\n", o.spans_path.c_str());
    }
  }
  size_t sampled = 0;
  for (const auto& l : pa.logs) sampled += l.samples.size();
  std::printf("checks: %zu sampled searches, %zu verification queries%s, "
              "%llu problems%s%s\n",
              sampled, in.verify.size(), spec.sharded ? " (twice)" : "",
              static_cast<unsigned long long>(tally.problems),
              tally.first_problem.empty() ? "" : ": ",
              tally.first_problem.c_str());
  const bool correct = tally.problems == 0 && tally.failed == 0;
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  Note("done");
  return correct ? 0 : 1;
}

// --- planted-fault self-test -----------------------------------------------

/// Shows that each check fails on a planted fault: results come from a
/// real server and client, then get a dropped id, an extra id, a
/// duplicate, a non-intersecting entry, or lose an acked insert.
int SelfTest() {
  const auto data = workload::UniformDataset(20'000, 1e-2, 7);
  rtree::NodeArena arena(rtree::kChunkSize, layers::ArenaChunksFor(data.size(), 16));
  rtree::RStarTree tree = rtree::BulkLoad(arena, data);
  catfish::rdma::Fabric fabric(catfish::rdma::FabricProfile::InfiniBand100G());
  catfish::RTreeServer server(fabric.CreateNode("server"), tree);
  catfish::ClientConfig cc;
  cc.mode = catfish::ClientMode::kOffloadOnly;
  catfish::RTreeClient client(fabric.CreateNode("client"), server, cc);
  Oracle oracle(data);

  const Rect q{0.40, 0.40, 0.45, 0.45};
  const Entry acked_entry{Rect{0.42, 0.42, 0.4201, 0.4201}, 1ull << 50};
  if (!client.Insert(acked_entry.mbr, acked_entry.id)) {
    std::fprintf(stderr, "selftest: insert was not acked\n");
    return 1;
  }
  const AckedInsert acked{acked_entry, 0};
  oracle.AddInserts(std::span<const AckedInsert>(&acked, 1));
  const auto good = client.Search(q);
  std::vector<uint64_t> ids, must, may;

  int bad = 0;
  auto expect = [&](const char* what, const std::string& err, bool should_fail) {
    const bool failed = !err.empty();
    std::printf("%-44s %s%s%s\n", what,
                failed == should_fail ? "ok" : "WRONG",
                failed ? " — check failed: " : " — check passed", err.c_str());
    if (failed != should_fail) ++bad;
  };
  expect("unmodified result passes",
         Verify(oracle, q, UINT64_MAX, good, ids, must, may), false);
  if (good.size() < 3) {
    std::fprintf(stderr, "selftest: query too small\n");
    return 1;
  }
  auto dropped = good;
  dropped.erase(dropped.begin() + 1);
  expect("planted dropped id is caught",
         Verify(oracle, q, UINT64_MAX, dropped, ids, must, may), true);
  auto extra = good;
  extra.push_back(Entry{Rect{0.41, 0.41, 0.411, 0.411}, 123'456'789});
  expect("planted extra id is caught",
         Verify(oracle, q, UINT64_MAX, extra, ids, must, may), true);
  auto dup = good;
  dup.push_back(good[0]);
  expect("planted duplicate id is caught",
         Verify(oracle, q, UINT64_MAX, dup, ids, must, may), true);
  auto outside = good;
  outside[0].mbr = Rect{0.9, 0.9, 0.91, 0.91};
  expect("planted non-intersecting entry is caught",
         Verify(oracle, q, UINT64_MAX, outside, ids, must, may), true);
  std::vector<Entry> lost;
  for (const Entry& e : good) {
    if (e.id != acked_entry.id) lost.push_back(e);
  }
  expect("lost acked insert is caught (read after ack)",
         Verify(oracle, q, /*before=*/1, lost, ids, must, may), true);
  expect("lost acked insert is allowed before its ack",
         Verify(oracle, q, /*before=*/0, lost, ids, must, may), false);
  expect("lost acked insert is caught by the size check",
         CheckTreeSize(tree.size() - 1, data.size() + 1), true);
  expect("tree size check passes on the real tree",
         CheckTreeSize(tree.size(), data.size() + 1), false);
  server.Stop();
  std::printf("selftest: %s\n", bad == 0 ? "every planted fault was caught"
                                         : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::ParseArgs(argc, argv, o)) return 2;
  try {
    if (o.selftest) return perfbench::SelfTest();
    const auto spec = perfbench::FindWorkload(o.workload);
    if (!spec) {
      std::fprintf(stderr,
                   "unknown --workload '%s' (offload_point, fast_range, "
                   "hybrid_sharded)\n",
                   o.workload.c_str());
      return 2;
    }
    return perfbench::Run(o, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
