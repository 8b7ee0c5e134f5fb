#include "rdmasim/rdma.h"

#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/clock.h"
#include "rtree/layout.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::rdma {
namespace {

// Outbound data (WRITE payloads) comes from buffers the poster owns, so a
// relaxed word copy into the racily-shared registered region suffices: the
// versioned layout — not ordering — detects tears on the reader side.
void LineCopy(std::byte* dst, const std::byte* src, size_t n) noexcept {
  RelaxedCopy(dst, src, n);
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultController
// ---------------------------------------------------------------------------

std::string FaultController::Key(const std::string& a, const std::string& b) {
  // Links are undirected: one entry per unordered node-name pair.
  return a < b ? a + "\x1f" + b : b + "\x1f" + a;
}

void FaultController::Partition(const std::string& a, const std::string& b) {
  const std::scoped_lock lock(mu_);
  links_[Key(a, b)].partitioned = true;
  armed_.store(true, std::memory_order_release);
}

void FaultController::Heal(const std::string& a, const std::string& b) {
  const std::scoped_lock lock(mu_);
  const auto it = links_.find(Key(a, b));
  if (it != links_.end()) it->second.partitioned = false;
}

bool FaultController::Partitioned(const std::string& a,
                                  const std::string& b) const {
  const std::scoped_lock lock(mu_);
  const auto it = links_.find(Key(a, b));
  return it != links_.end() && it->second.partitioned;
}

void FaultController::SetDropPlan(const std::string& a, const std::string& b,
                                  DropPlan plan) {
  const std::scoped_lock lock(mu_);
  Link& link = links_[Key(a, b)];
  link.drop = plan;
  link.ops = 0;
  armed_.store(true, std::memory_order_release);
}

void FaultController::SetLinkLatency(const std::string& a,
                                     const std::string& b, uint64_t base_us,
                                     uint64_t jitter_us, uint64_t seed) {
  const std::scoped_lock lock(mu_);
  if (base_us == 0 && jitter_us == 0) {
    const auto it = links_.find(Key(a, b));
    if (it != links_.end()) {
      it->second.lat_base_us = 0;
      it->second.lat_jitter_us = 0;
    }
    return;
  }
  Link& link = links_[Key(a, b)];
  link.lat_base_us = base_us;
  link.lat_jitter_us = jitter_us;
  link.lat_rng = JitterState(seed);
  armed_.store(true, std::memory_order_release);
}

void FaultController::SetDegraded(const std::string& node,
                                  uint64_t per_op_us) {
  const std::scoped_lock lock(mu_);
  if (per_op_us == 0) {
    degraded_.erase(node);
    if (links_.empty() && degraded_.empty()) {
      armed_.store(false, std::memory_order_release);
    }
    return;
  }
  degraded_[node] = per_op_us;
  armed_.store(true, std::memory_order_release);
}

void FaultController::ClearLink(const std::string& a, const std::string& b) {
  const std::scoped_lock lock(mu_);
  links_.erase(Key(a, b));
  if (links_.empty() && degraded_.empty()) {
    armed_.store(false, std::memory_order_release);
  }
}

void FaultController::Clear() {
  const std::scoped_lock lock(mu_);
  links_.clear();
  degraded_.clear();
  armed_.store(false, std::memory_order_release);
}

void FaultController::FailQp(QueuePair& qp) { qp.EnterErrorState(); }

bool FaultController::ShouldFail(const std::string& local,
                                 const std::string& peer) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  bool fail = false;
  {
    const std::scoped_lock lock(mu_);
    const auto it = links_.find(Key(local, peer));
    if (it == links_.end()) return false;
    Link& link = it->second;
    fail = link.partitioned || link.drop.Hits(link.ops);
    ++link.ops;
  }
  if (fail) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.fault.dropped_ops");
  }
  return fail;
}

uint64_t FaultController::SlowDelayUs(const std::string& local,
                                      const std::string& peer) {
  if (!armed_.load(std::memory_order_acquire)) return 0;
  uint64_t delay = 0;
  {
    const std::scoped_lock lock(mu_);
    const auto it = links_.find(Key(local, peer));
    if (it != links_.end() && (it->second.lat_base_us != 0 ||
                               it->second.lat_jitter_us != 0)) {
      Link& link = it->second;
      delay = link.lat_base_us;
      if (link.lat_jitter_us != 0) {
        delay += link.lat_rng.Next() % (link.lat_jitter_us + 1);
      }
    }
    const auto dl = degraded_.find(local);
    if (dl != degraded_.end()) delay += dl->second;
    const auto dp = degraded_.find(peer);
    if (dp != degraded_.end()) delay += dp->second;
  }
  if (delay != 0) {
    slowed_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.fault.slowed_ops");
  }
  return delay;
}

// ---------------------------------------------------------------------------
// SimNode
// ---------------------------------------------------------------------------

MemoryRegionHandle SimNode::RegisterMemory(std::span<std::byte> mem) {
  // A writer like Deregister: push_back may move regions_, which posters
  // read without a lock while they hold their slot.
  const RegionWriter writer(*this);
  regions_.push_back(mem);
  return MemoryRegionHandle{static_cast<uint32_t>(regions_.size()),
                            mem.size()};
}

std::shared_ptr<CompletionQueue> SimNode::CreateCq() {
  return std::make_shared<CompletionQueue>();
}

std::shared_ptr<QueuePair> SimNode::CreateQp(
    std::shared_ptr<CompletionQueue> send_cq,
    std::shared_ptr<CompletionQueue> recv_cq) {
  const uint32_t num = next_qp_num_.fetch_add(1, std::memory_order_relaxed);
  auto qp = std::shared_ptr<QueuePair>(new QueuePair(
      shared_from_this(), num, std::move(send_cq), std::move(recv_cq)));
  const std::scoped_lock lock(mu_);
  qps_[num] = qp;
  return qp;
}

std::shared_ptr<QueuePair> SimNode::FindQp(uint32_t qp_num) const {
  const std::scoped_lock lock(mu_);
  const auto it = qps_.find(qp_num);
  return it == qps_.end() ? nullptr : it->second.lock();
}

SimNode::NicSlot* SimNode::AcquireSlot() {
  const std::scoped_lock lock(mu_);
  if (!free_slots_.empty()) {
    NicSlot* slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.push_back(std::make_unique<NicSlot>());
  return slots_.back().get();
}

void SimNode::ReleaseSlot(NicSlot* slot) {
  const std::scoped_lock lock(mu_);
  free_slots_.push_back(slot);
}

// The barrier is Dekker-style: a poster announces itself in its own slot
// and then checks writer_; a writer raises writer_ and then checks every
// slot. With both sides sequentially consistent, at least one of them
// sees the other, so a copy never overlaps a region change.
SimNode::RegionReader::RegionReader(const SimNode& node,
                                    NicSlot& slot) noexcept
    : slot_(slot) {
  for (;;) {
    slot_.active.fetch_add(1, std::memory_order_seq_cst);
    if (!node.writer_.load(std::memory_order_seq_cst)) return;
    slot_.active.fetch_sub(1, std::memory_order_release);
    while (node.writer_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

SimNode::RegionReader::~RegionReader() {
  slot_.active.fetch_sub(1, std::memory_order_release);
}

SimNode::RegionWriter::RegionWriter(SimNode& node)
    : node_(node), lock_(node.mu_) {
  node_.writer_.store(true, std::memory_order_seq_cst);
  for (const auto& slot : node_.slots_) {
    while (slot->active.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

SimNode::RegionWriter::~RegionWriter() {
  node_.writer_.store(false, std::memory_order_release);
}

std::span<std::byte> SimNode::ResolveMr(uint32_t rkey) const noexcept {
  if (rkey == 0 || rkey > regions_.size()) return {};
  return regions_[rkey - 1];
}

void SimNode::Deregister(MemoryRegionHandle mr) {
  // Draining the slots waits out any copy the "NIC" already started
  // against this region; blanking the slot (indices are rkeys) keeps
  // every other registration's rkey stable.
  const RegionWriter writer(*this);
  if (mr.rkey != 0 && mr.rkey <= regions_.size()) regions_[mr.rkey - 1] = {};
}

void SimNode::DeregisterAll() {
  // In-flight copies hold their slots, so draining them waits them out;
  // afterwards stale rkeys resolve an empty span.
  const RegionWriter writer(*this);
  regions_.clear();
}

void SimNode::Invalidate() {
  std::vector<std::shared_ptr<QueuePair>> live;
  {
    // Same in-flight barrier as DeregisterAll: a reboot must not yank
    // memory out from under a copy the NIC already started serving.
    const RegionWriter writer(*this);
    regions_.clear();  // stale rkeys now fail with kRemoteAccessError
    for (auto& [num, weak] : qps_) {
      if (auto qp = weak.lock()) live.push_back(std::move(qp));
    }
    qps_.clear();  // stale QPNs no longer resolve via FindQp
  }
  // Close + error outside mu_: Close reaches into the peer QP's state.
  for (auto& qp : live) {
    qp->EnterErrorState();
    qp->Close();
  }
}

NicStats SimNode::stats() const {
  NicStats s;
  const std::scoped_lock lock(mu_);
  for (const auto& slot : slots_) {
    s.bytes_sent += slot->bytes_sent.load(std::memory_order_relaxed);
    s.bytes_received += slot->bytes_received.load(std::memory_order_relaxed);
    s.writes_posted += slot->writes_posted.load(std::memory_order_relaxed);
    s.reads_posted += slot->reads_posted.load(std::memory_order_relaxed);
    s.reads_served += slot->reads_served.load(std::memory_order_relaxed);
    s.imm_delivered += slot->imm_delivered.load(std::memory_order_relaxed);
  }
  return s;
}

void SimNode::ResetStats() {
  const std::scoped_lock lock(mu_);
  for (const auto& slot : slots_) {
    slot->bytes_sent.store(0, std::memory_order_relaxed);
    slot->bytes_received.store(0, std::memory_order_relaxed);
    slot->writes_posted.store(0, std::memory_order_relaxed);
    slot->reads_posted.store(0, std::memory_order_relaxed);
    slot->reads_served.store(0, std::memory_order_relaxed);
    slot->imm_delivered.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------

QueuePair::~QueuePair() {
  node_->ReleaseSlot(home_slot_);
  if (peer_slot_ != nullptr) peer_node_->ReleaseSlot(peer_slot_);
}

void QueuePair::Connect(const std::shared_ptr<QueuePair>& a,
                        const std::shared_ptr<QueuePair>& b) {
  const auto wire = [](QueuePair& self,
                       const std::shared_ptr<QueuePair>& other) {
    // Take the slot on the new peer node before peer_mu_, so the node's
    // mutex is never acquired under a QP's.
    SimNode::NicSlot* slot = other->node_->AcquireSlot();
    std::shared_ptr<SimNode> old_node;
    SimNode::NicSlot* old_slot = nullptr;
    {
      const std::scoped_lock lock(self.peer_mu_);
      self.peer_ = other;
      old_node = std::exchange(self.peer_node_, other->node_);
      old_slot = std::exchange(self.peer_slot_, slot);
      self.closed_ = false;
    }
    if (old_slot != nullptr) old_node->ReleaseSlot(old_slot);
  };
  wire(*a, b);
  wire(*b, a);
}

bool QueuePair::connected() const {
  const std::scoped_lock lock(peer_mu_);
  return !closed_ && !error_ && !peer_.expired();
}

bool QueuePair::in_error() const {
  const std::scoped_lock lock(peer_mu_);
  return error_;
}

void QueuePair::EnterErrorState() {
  {
    const std::scoped_lock lock(peer_mu_);
    if (error_) return;
    error_ = true;
  }
  CATFISH_COUNT("rdma.qp.errors");
  CATFISH_EVENT(kQpError, NowMicros(), qp_num_, 0.0, 0.0);
}

void QueuePair::Close() {
  std::shared_ptr<QueuePair> peer;
  {
    const std::scoped_lock lock(peer_mu_);
    closed_ = true;
    peer = peer_.lock();
    peer_.reset();
  }
  if (peer) {
    const std::scoped_lock lock(peer->peer_mu_);
    peer->closed_ = true;
    peer->peer_.reset();
  }
}

WcStatus QueuePair::CheckPostFaults(SimNode*& peer_node,
                                    SimNode::NicSlot*& peer_slot,
                                    std::shared_ptr<QueuePair>* peer) {
  {
    const std::scoped_lock lock(peer_mu_);
    if (error_) {
      // ERR is checked before closed: a QP that was errored and then
      // torn down keeps reporting the error, like real hardware.
      return WcStatus::kQpError;
    }
    // peer_node_ (a shared_ptr this QP holds) keeps the peer node and
    // its slot alive, so only the IMM path pays for locking the peer QP.
    if (peer != nullptr) *peer = peer_.lock();
    const bool gone = peer != nullptr ? *peer == nullptr : peer_.expired();
    if (closed_ || gone) return WcStatus::kFlushed;
    peer_node = peer_node_.get();
    peer_slot = peer_slot_;
  }
  // Scripted faults fire before any byte moves, so a dropped ring write
  // can never leave a partially-written record behind.
  if (node_->fabric_ != nullptr &&
      node_->fabric_->faults().ShouldFail(node_->name_, peer_node->name_)) {
    return WcStatus::kRetryExceeded;
  }
  return WcStatus::kSuccess;
}

QpOpStats QueuePair::op_stats() const noexcept {
  QpOpStats s;
  s.writes_posted = writes_posted_.load(std::memory_order_relaxed);
  s.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  s.reads_posted = reads_posted_.load(std::memory_order_relaxed);
  s.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  s.imm_sent = imm_sent_.load(std::memory_order_relaxed);
  return s;
}

bool QueuePair::Execute(const WorkRequest& wr, WorkCompletion& wc,
                        bool& deliver) {
  const bool is_read = wr.kind == WorkRequest::Kind::kRead;
  const size_t len = is_read ? wr.dst.size() : wr.src.size();
  wc = WorkCompletion{};
  wc.wr_id = wr.wr_id;
  wc.opcode = is_read ? Opcode::kRead : Opcode::kWrite;
  wc.qp_num = qp_num_;
  deliver = true;  // errors always complete, even for unsignaled WRs
  if (is_read) {
    home_slot_->reads_posted.fetch_add(1, std::memory_order_relaxed);
    reads_posted_.fetch_add(1, std::memory_order_relaxed);
    read_bytes_.fetch_add(len, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.read.posted");
    CATFISH_COUNT_ADD("rdma.read.bytes", len);
  } else {
    home_slot_->writes_posted.fetch_add(1, std::memory_order_relaxed);
    writes_posted_.fetch_add(1, std::memory_order_relaxed);
    write_bytes_.fetch_add(len, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.write.posted");
    CATFISH_COUNT_ADD("rdma.write.bytes", len);
  }
  const bool imm = wr.kind == WorkRequest::Kind::kWriteImm;
  SimNode* peer_node = nullptr;
  SimNode::NicSlot* peer_slot = nullptr;
  std::shared_ptr<QueuePair> peer;
  const WcStatus gate =
      CheckPostFaults(peer_node, peer_slot, imm ? &peer : nullptr);
  if (gate != WcStatus::kSuccess) {
    wc.status = gate;
    return false;
  }
  // Slow faults elapse here — after the fail-stop gate, before the
  // in-flight region barrier, so a stalled op never blocks Deregister.
  if (node_->fabric_ != nullptr) {
    const uint64_t slow_us =
        node_->fabric_->faults().SlowDelayUs(node_->name_, peer_node->name_);
    if (slow_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(slow_us));
    }
  }
  {
    // In-flight guard: holds off RegisterMemory/Deregister/DeregisterAll/
    // Invalidate until the copy lands, so owners can free registered
    // memory once those return.
    const SimNode::RegionReader guard(*peer_node, *peer_slot);
    const auto region = peer_node->ResolveMr(wr.remote.rkey);
    if (wr.remote.offset + len > region.size()) {
      wc.status = WcStatus::kRemoteAccessError;
      return false;
    }
    if (is_read) {
      // Served entirely by the "NIC": no peer CPU thread participates.
      // Real NICs read each 64-byte cache line as an atomic snapshot;
      // SnapshotCopy reproduces that, so sub-line tears the seqlock
      // could never see on hardware cannot happen here either
      // (rtree/layout.h).
      rtree::SnapshotCopy(wr.dst.data(), region.data() + wr.remote.offset,
                          len);
    } else {
      LineCopy(region.data() + wr.remote.offset, wr.src.data(), len);
    }
  }
  if (is_read) {
    peer_slot->reads_served.fetch_add(1, std::memory_order_relaxed);
    peer_slot->bytes_sent.fetch_add(len, std::memory_order_relaxed);
    home_slot_->bytes_received.fetch_add(len, std::memory_order_relaxed);
  } else {
    home_slot_->bytes_sent.fetch_add(len, std::memory_order_relaxed);
    peer_slot->bytes_received.fetch_add(len, std::memory_order_relaxed);
  }
  wc.status = WcStatus::kSuccess;
  wc.byte_len = static_cast<uint32_t>(len);
  deliver = is_read || wr.signaled;
  if (imm && peer->recv_cq_) {
    // Data is placed before the notification fires, matching the RC
    // guarantee that the IMM completion observes the written payload.
    WorkCompletion iwc;
    iwc.wr_id = 0;
    iwc.opcode = Opcode::kRecvImm;
    iwc.status = WcStatus::kSuccess;
    iwc.qp_num = peer->qp_num_;
    iwc.imm_data = wr.imm;
    iwc.byte_len = static_cast<uint32_t>(len);
    peer->recv_cq_->Push(iwc);
    peer_slot->imm_delivered.fetch_add(1, std::memory_order_relaxed);
    imm_sent_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.imm.delivered");
  }
  return true;
}

bool QueuePair::PostOne(const WorkRequest& wr) {
  CATFISH_COUNT("rdma.doorbells");
  CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size", 1.0);
  WorkCompletion wc;
  bool deliver = false;
  const bool ok = Execute(wr, wc, deliver);
  if (deliver) send_cq_->Push(wc);
  return ok;
}

size_t QueuePair::PostBatch(std::span<const WorkRequest> wrs, bool* ok) {
  if (wrs.empty()) return 0;
  // The whole point: one doorbell for the chain, and one coalesced CQ
  // delivery below, however many WRs ride it.
  CATFISH_COUNT("rdma.doorbells");
  CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size",
                          static_cast<double>(wrs.size()));
  WorkCompletion inline_wcs[16];
  WorkCompletion* wcs = inline_wcs;
  if (wrs.size() > std::size(inline_wcs)) {
    if (batch_wcs_.size() < wrs.size()) batch_wcs_.resize(wrs.size());
    wcs = batch_wcs_.data();
  }
  size_t delivered = 0;
  size_t succeeded = 0;
  for (size_t i = 0; i < wrs.size(); ++i) {
    WorkCompletion wc;
    bool deliver = false;
    const bool good = Execute(wrs[i], wc, deliver);
    if (ok != nullptr) ok[i] = good;
    if (good) ++succeeded;
    if (deliver) wcs[delivered++] = wc;
  }
  send_cq_->PushMany({wcs, delivered});
  return succeeded;
}

bool QueuePair::PostWrite(uint64_t wr_id, std::span<const std::byte> local,
                          RemoteAddr dst, bool signaled) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kWrite;
  wr.wr_id = wr_id;
  wr.src = local;
  wr.remote = dst;
  wr.signaled = signaled;
  return PostOne(wr);
}

bool QueuePair::PostWriteImm(uint64_t wr_id, std::span<const std::byte> local,
                             RemoteAddr dst, uint32_t imm, bool signaled) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kWriteImm;
  wr.wr_id = wr_id;
  wr.src = local;
  wr.remote = dst;
  wr.imm = imm;
  wr.signaled = signaled;
  return PostOne(wr);
}

bool QueuePair::PostRead(uint64_t wr_id, std::span<std::byte> local,
                         RemoteAddr src) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kRead;
  wr.wr_id = wr_id;
  wr.dst = local;
  wr.remote = src;
  return PostOne(wr);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

std::shared_ptr<SimNode> Fabric::CreateNode(std::string name) {
  const std::scoped_lock lock(mu_);
  const uint64_t generation = ++generations_[name];
  auto node = std::shared_ptr<SimNode>(new SimNode(name, this, generation));
  nodes_[std::move(name)] = node;
  return node;
}

size_t Fabric::node_count() const {
  const std::scoped_lock lock(mu_);
  size_t live = 0;
  for (const auto& [name, node] : nodes_) {
    if (!node.expired()) ++live;
  }
  return live;
}

std::shared_ptr<SimNode> Fabric::FindNode(const std::string& name) const {
  const std::scoped_lock lock(mu_);
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.lock();
}

std::shared_ptr<SimNode> Fabric::RestartNode(const std::string& name) {
  std::shared_ptr<SimNode> old;
  {
    const std::scoped_lock lock(mu_);
    const auto it = nodes_.find(name);
    if (it != nodes_.end()) old = it->second.lock();
  }
  // Invalidate outside mu_: it closes QPs, which reaches peer state.
  if (old) old->Invalidate();
  return CreateNode(name);
}

}  // namespace catfish::rdma
