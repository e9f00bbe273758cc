#include "verbs/verbs.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "check/check.h"
#include "common/log.h"
#include "common/rng.h"
#include "explore/policy.h"
#include "obs/trace.h"

namespace rstore::verbs {

std::string_view ToString(WcStatus status) noexcept {
  switch (status) {
    case WcStatus::kSuccess: return "SUCCESS";
    case WcStatus::kLocalProtErr: return "LOCAL_PROT_ERR";
    case WcStatus::kRemAccessErr: return "REM_ACCESS_ERR";
    case WcStatus::kRemOpErr: return "REM_OP_ERR";
    case WcStatus::kRetryExceeded: return "RETRY_EXCEEDED";
    case WcStatus::kRnrRetryExceeded: return "RNR_RETRY_EXCEEDED";
    case WcStatus::kWrFlushErr: return "WR_FLUSH_ERR";
  }
  return "UNKNOWN";
}

std::string_view ToString(Opcode op) noexcept {
  switch (op) {
    case Opcode::kSend: return "SEND";
    case Opcode::kRecv: return "RECV";
    case Opcode::kRdmaWrite: return "RDMA_WRITE";
    case Opcode::kRdmaWriteWithImm: return "RDMA_WRITE_WITH_IMM";
    case Opcode::kRdmaRead: return "RDMA_READ";
    case Opcode::kCompareSwap: return "COMPARE_SWAP";
    case Opcode::kFetchAdd: return "FETCH_ADD";
  }
  return "UNKNOWN";
}

// ---------------------------------------------------------------------------
// MemoryRegion
// ---------------------------------------------------------------------------
bool MemoryRegion::Covers(uint64_t addr, uint64_t len) const noexcept {
  const uint64_t base = remote_addr();
  if (addr < base) return false;
  const uint64_t off = addr - base;
  return off <= length_ && len <= length_ - off;
}

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------
void CompletionQueue::Push(WorkCompletion wc) {
  if (explore::SchedulePolicy* pol = sim_.policy(); pol != nullptr) {
    // kCompletionDelay: hold the queue back for a bounded virtual time —
    // the NIC raised the CQE late. Holding is all-or-nothing: once any
    // entry is held every later completion joins the held tail, so a
    // held entry can never be overtaken by a direct one and per-QP CQE
    // order is preserved by construction.
    const uint64_t delay = pol->CompletionDelayNs();
    if (delay > 0 || !held_.empty()) {
      held_.push_back(wc);
      const sim::Nanos release = sim_.NowNanos() + delay;
      if (release > hold_release_at_ || held_.size() == 1) {
        hold_release_at_ = std::max(hold_release_at_, release);
        const uint64_t epoch = ++hold_epoch_;
        sim_.At(hold_release_at_, [this, epoch] {
          if (epoch == hold_epoch_) ReleaseHeld();
        });
      }
      return;
    }
    // kCompletionSlot: deliver this completion *before* up to `window`
    // trailing entries that belong to other QPs — the legal reorder
    // window (same-QP CQEs must stay FIFO). Slot 0 appends (baseline).
    size_t window = 0;
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->qp_num == wc.qp_num) break;
      ++window;
    }
    size_t slot = 0;
    if (window > 0) {
      slot = pol->PickCompletionSlot(static_cast<uint32_t>(window) + 1);
    }
    entries_.insert(entries_.end() - static_cast<ptrdiff_t>(slot), wc);
    NotifyIfReady();
    return;
  }
  entries_.push_back(wc);
  NotifyIfReady();
}

void CompletionQueue::NotifyIfReady() {
  // Wake waiters only when the shallowest outstanding threshold is met
  // (NotifyAll with no waiters would be a no-op anyway, so consulting the
  // registered minima loses nothing).
  if (!waiter_minima_.empty() &&
      entries_.size() >=
          *std::min_element(waiter_minima_.begin(), waiter_minima_.end())) {
    ready_.NotifyAll();
  }
}

void CompletionQueue::ReleaseHeld() {
  while (!held_.empty()) {
    entries_.push_back(held_.front());
    held_.pop_front();
  }
  NotifyIfReady();
}

void CompletionQueue::WaitReady(size_t min_entries, sim::Nanos timeout) {
  // Copy the simulation reference to the stack: during global shutdown this
  // queue may already be destroyed (teardown frees devices before the
  // simulation unwinds blocked threads), so the unwinding path below must
  // not read anything through `this`.
  sim::Simulation& sim = sim_;
  waiter_minima_.push_back(min_entries);
  try {
    ready_.WaitUntilFor(
        [this, min_entries] { return entries_.size() >= min_entries; },
        timeout);
  } catch (...) {
    // ThreadKilled. A mid-run kill (failure injection) leaves the queue
    // alive, so clean up the registration; a shutdown unwind must leave
    // the (possibly freed) queue untouched.
    if (!sim.shutting_down()) std::erase(waiter_minima_, min_entries);
    throw;
  }
  std::erase(waiter_minima_, min_entries);
}

void CompletionQueue::RecordBatch(size_t n) {
  if (n == 0 || node_id_ == kNoNode) return;
  obs::Telemetry* tel = sim_.telemetry();
  if (tel != obs_owner_) {
    obs_owner_ = tel;
    obs_batch_ = tel != nullptr
                     ? &tel->metrics().ForNode(node_id_).GetTimer(
                           "verbs.cq_batch")
                     : nullptr;
  }
  if (obs_batch_ != nullptr) obs_batch_->Record(n);
}

std::vector<WorkCompletion> CompletionQueue::Poll(size_t max_entries) {
  std::vector<WorkCompletion> out;
  check::Checker* ck = sim_.checker();
  while (!entries_.empty() && out.size() < max_entries) {
    out.push_back(entries_.front());
    entries_.pop_front();
    if (ck != nullptr && out.back().check_ref != 0 && node_id_ != kNoNode) {
      ck->OnObserve(out.back().check_ref, node_id_, out.back().recv_side,
                    out.back().ok());
    }
  }
  RecordBatch(out.size());
  return out;
}

std::vector<WorkCompletion> CompletionQueue::WaitPoll(size_t max_entries,
                                                      sim::Nanos timeout) {
  if (entries_.empty()) WaitReady(1, timeout);
  return Poll(max_entries);
}

Result<WorkCompletion> CompletionQueue::WaitOne(sim::Nanos timeout) {
  auto wcs = WaitPoll(1, timeout);
  if (wcs.empty()) {
    return Result<WorkCompletion>(ErrorCode::kTimedOut,
                                  "no completion before deadline");
  }
  return wcs.front();
}

size_t CompletionQueue::PollInto(std::vector<WorkCompletion>& out,
                                 size_t max_entries) {
  size_t n = 0;
  check::Checker* ck = sim_.checker();
  while (!entries_.empty() && n < max_entries) {
    out.push_back(entries_.front());
    entries_.pop_front();
    ++n;
    if (ck != nullptr && out.back().check_ref != 0 && node_id_ != kNoNode) {
      ck->OnObserve(out.back().check_ref, node_id_, out.back().recv_side,
                    out.back().ok());
    }
  }
  RecordBatch(n);
  return n;
}

size_t CompletionQueue::WaitPollInto(std::vector<WorkCompletion>& out,
                                     size_t min_entries, size_t max_entries,
                                     sim::Nanos timeout) {
  if (min_entries == 0) min_entries = 1;
  if (entries_.size() < min_entries) WaitReady(min_entries, timeout);
  return PollInto(out, max_entries);
}

// ---------------------------------------------------------------------------
// ProtectionDomain
// ---------------------------------------------------------------------------
Result<MemoryRegion*> ProtectionDomain::RegisterMemory(std::byte* addr,
                                                       uint64_t length,
                                                       uint32_t access) {
  if (addr == nullptr || length == 0) {
    return Result<MemoryRegion*>(ErrorCode::kInvalidArgument,
                                 "null or empty registration");
  }
  Device& dev = device_;
  const uint32_t lkey = dev.next_key_++;
  const uint32_t rkey = dev.next_key_++;
  auto mr = std::unique_ptr<MemoryRegion>(
      new MemoryRegion(addr, length, lkey, rkey, access));
  MemoryRegion* raw = mr.get();
  dev.mrs_by_lkey_.emplace(lkey, std::move(mr));
  dev.mrs_by_rkey_.emplace(rkey, raw);
  return raw;
}

Status ProtectionDomain::DeregisterMemory(MemoryRegion* mr) {
  Device& dev = device_;
  // Look the region up by pointer identity rather than by reading keys
  // through `mr`: a double-deregister hands in a dangling pointer, which
  // must be rejected without ever being dereferenced. Registered-region
  // counts are small, so the scan is cheap. Visit order cannot leak: at
  // most one entry matches, and nothing else observes the walk.
  // rdet:order-independent (unique match, erase-and-return)
  for (auto it = dev.mrs_by_lkey_.begin(); it != dev.mrs_by_lkey_.end();
       ++it) {
    if (it->second.get() == mr) {
      if (check::Checker* ck = dev.network().sim().checker(); ck != nullptr) {
        ck->OnDeregister(dev.node_id(), it->second->remote_addr(),
                         it->second->remote_addr() + it->second->length());
      }
      // The app may free the memory next: the NIC reads what it still
      // owes the wire from it first.
      dev.network().ReadPendingOverlaps(dev, it->second->remote_addr(),
                                        it->second->length());
      dev.mrs_by_rkey_.erase(it->second->rkey());
      dev.mrs_by_lkey_.erase(it);
      return Status::Ok();
    }
  }
  return Status(ErrorCode::kNotFound, "unknown memory region");
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------
Device::Device(Network& network, sim::Node& node)
    : network_(network), node_(node) {}

ProtectionDomain& Device::CreatePd() {
  pds_.push_back(std::make_unique<ProtectionDomain>(*this));
  return *pds_.back();
}

CompletionQueue& Device::CreateCq() {
  cqs_.push_back(
      std::make_unique<CompletionQueue>(network_.sim(), node_.id()));
  return *cqs_.back();
}

QueuePair& Device::CreateQueuePair(QpConfig config, CompletionQueue* send_cq,
                                   CompletionQueue* recv_cq) {
  // Per-device numbering, a pure function of this device's creation
  // count. The node-id stride keeps numbers cluster-unique for readable
  // logs; correctness only needs per-device uniqueness (FindQp is
  // per-device).
  const uint32_t num = 100 + node_id() * 100000 + next_qp_index_++;
  auto qp = std::unique_ptr<QueuePair>(
      new QueuePair(*this, num, send_cq, recv_cq, config));
  QueuePair* raw = qp.get();
  qps_.emplace(num, std::move(qp));
  return *raw;
}

MemoryRegion* Device::FindMrByRkey(uint32_t rkey) {
  auto it = mrs_by_rkey_.find(rkey);
  return it == mrs_by_rkey_.end() ? nullptr : it->second;
}

MemoryRegion* Device::FindMrByLkey(uint32_t lkey) {
  auto it = mrs_by_lkey_.find(lkey);
  return it == mrs_by_lkey_.end() ? nullptr : it->second.get();
}

QueuePair* Device::FindQp(uint32_t qp_num) {
  auto it = qps_.find(qp_num);
  return it == qps_.end() ? nullptr : it->second.get();
}

Status Device::ValidateLocal(const Sge& sge, bool will_write) {
  if (sge.length == 0) return Status::Ok();
  MemoryRegion* mr = FindMrByLkey(sge.lkey);
  if (mr == nullptr) {
    return Status(ErrorCode::kPermissionDenied, "unknown lkey");
  }
  if (!mr->Covers(reinterpret_cast<uint64_t>(sge.addr), sge.length)) {
    return Status(ErrorCode::kOutOfRange, "SGE outside memory region");
  }
  if (will_write && (mr->access() & kLocalWrite) == 0) {
    return Status(ErrorCode::kPermissionDenied, "MR not LOCAL_WRITE");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------
QueuePair::QueuePair(Device& device, uint32_t qp_num, CompletionQueue* send_cq,
                     CompletionQueue* recv_cq, QpConfig config)
    : device_(device), qp_num_(qp_num), config_(config) {
  if (send_cq == nullptr) {
    owned_send_cq_ = std::make_unique<CompletionQueue>(device.network().sim(),
                                                       device.node_id());
    send_cq = owned_send_cq_.get();
  }
  if (recv_cq == nullptr) {
    owned_recv_cq_ = std::make_unique<CompletionQueue>(device.network().sim(),
                                                       device.node_id());
    recv_cq = owned_recv_cq_.get();
  }
  send_cq_ = send_cq;
  recv_cq_ = recv_cq;
}

void QueuePair::ConnectTo(uint32_t peer_node, uint32_t peer_qp_num) {
  peer_node_ = peer_node;
  peer_qp_num_ = peer_qp_num;
  state_ = State::kRts;
}

namespace {
// Wire sizes of the non-payload parts of each op (request headers beyond
// the fabric's generic per-message overhead).
constexpr uint64_t kReadRequestBytes = 16;
constexpr uint64_t kAtomicRequestBytes = 32;
constexpr uint64_t kAtomicResponseBytes = 8;
// RC acknowledgement riding back for writes and sends: initiator-side
// completions fire when the responder's ack arrives, one base_latency
// after target execution — the same round trip reads and atomics pay, as
// on an HCA, where a write completes only once the responder has
// acknowledged it.
constexpr uint64_t kAckBytes = 12;

// Registers one queued WR with the rcheck shadow state: maps the opcode
// onto the checker's transport classes, gathers the non-empty local SGEs,
// and returns the pending-op reference carried by the SQ copy. SEND and
// write-with-imm retire after two completion polls (sender + receiver CQ);
// everything else after one.
uint32_t CheckPost(check::Checker& ck, const SendWr& wr, uint32_t initiator,
                   uint32_t target, uint32_t qp_num) {
  check::OpClass cls = check::OpClass::kRemoteAtomic;
  uint64_t remote_lo = 0;
  uint64_t remote_hi = 0;
  uint32_t expected = 1;
  switch (wr.opcode) {
    case Opcode::kSend:
      cls = check::OpClass::kMessage;
      expected = 2;
      break;
    case Opcode::kRdmaWriteWithImm:
      expected = 2;
      [[fallthrough]];
    case Opcode::kRdmaWrite:
      cls = check::OpClass::kRemoteWrite;
      remote_lo = wr.remote_addr;
      remote_hi = wr.remote_addr + wr.total_length();
      break;
    case Opcode::kRdmaRead:
      cls = check::OpClass::kRemoteRead;
      remote_lo = wr.remote_addr;
      remote_hi = wr.remote_addr + wr.total_length();
      break;
    default:  // kCompareSwap / kFetchAdd
      remote_lo = wr.remote_addr;
      remote_hi = wr.remote_addr + 8;
      break;
  }
  std::array<check::LocalRange, SendWr::kMaxSge> sges;
  uint32_t n = 0;
  for (uint32_t i = 0; i < wr.num_sge; ++i) {
    const Sge& s = wr.sge(i);
    if (s.length == 0) continue;
    const auto lo = reinterpret_cast<uint64_t>(s.addr);
    sges[n++] = check::LocalRange{lo, lo + s.length};
  }
  return ck.OnPost(initiator, target, qp_num, cls, remote_lo, remote_hi,
                   sges.data(), n, expected, wr.signaled);
}

// Calls fn(addr, len) for each non-empty source range of the op's
// payload, in payload order: the contiguous target range of a READ, the
// gather SGEs of anything else.
template <typename Fn>
void ForEachSource(const SendWr& wr, Fn fn) {
  if (wr.opcode == Opcode::kRdmaRead) {
    fn(reinterpret_cast<const std::byte*>(wr.remote_addr),
       wr.total_length());
    return;
  }
  for (uint32_t i = 0; i < wr.num_sge; ++i) {
    const Sge& g = wr.sge(i);
    if (g.length > 0) fn(static_cast<const std::byte*>(g.addr), g.length);
  }
}

// Hash of the op's payload bytes: read from its source ranges, or from
// `block` (the same bytes, contiguous) when given. Both walk the ranges
// so the two agree byte for byte.
uint64_t HashPayload(const SendWr& wr, const std::byte* block) {
  uint64_t h = 0;
  ForEachSource(wr, [&](const std::byte* p, uint64_t len) {
    const std::byte* bytes = block != nullptr ? block : p;
    h = h * 0x100000001b3ULL ^
        StableHash64({reinterpret_cast<const char*>(bytes), len});
    if (block != nullptr) block += len;
  });
  return h;
}

// Copies the op's payload out of its source ranges into `dst`, contiguous.
void CopySources(const SendWr& wr, std::byte* dst) {
  ForEachSource(wr, [&](const std::byte* p, uint64_t len) {
    std::memcpy(dst, p, len);
    dst += len;
  });
}

bool StartsBefore(const PendingSnapshot& e, uint64_t lo) { return e.lo < lo; }
bool StartsAfter(uint64_t lo, const PendingSnapshot& e) { return lo < e.lo; }
}  // namespace

Status QueuePair::PostSend(const SendWr& wr) {
  if (state_ != State::kRts) {
    return Status(ErrorCode::kUnavailable,
                  state_ == State::kError ? "QP in error state"
                                          : "QP not connected");
  }
  // Validate the whole doorbell chain before enqueueing any of it: a
  // rejected post enqueues nothing (all-or-nothing, as ibv_post_send
  // reports via bad_wr).
  uint32_t chain_len = 0;
  uint32_t chain_sges = 0;
  for (const SendWr* w = &wr; w != nullptr; w = w->next) {
    ++chain_len;
    chain_sges += w->num_sge;
    if (w->num_sge == 0 || w->num_sge > SendWr::kMaxSge) {
      return Status(ErrorCode::kInvalidArgument, "bad num_sge");
    }
    switch (w->opcode) {
      case Opcode::kSend:
      case Opcode::kRdmaWrite:
      case Opcode::kRdmaWriteWithImm:
        for (uint32_t i = 0; i < w->num_sge; ++i) {
          RSTORE_RETURN_IF_ERROR(device_.ValidateLocal(w->sge(i), false));
        }
        break;
      case Opcode::kRdmaRead:
        for (uint32_t i = 0; i < w->num_sge; ++i) {
          RSTORE_RETURN_IF_ERROR(device_.ValidateLocal(w->sge(i), true));
        }
        break;
      case Opcode::kCompareSwap:
      case Opcode::kFetchAdd:
        if (w->num_sge != 1 || w->local.length != 8) {
          return Status(ErrorCode::kInvalidArgument,
                        "atomic result buffer must be 8 bytes");
        }
        RSTORE_RETURN_IF_ERROR(device_.ValidateLocal(w->local, true));
        break;
      case Opcode::kRecv:
        return Status(ErrorCode::kInvalidArgument, "RECV posted to send queue");
    }
  }
  if (sq_.size() + chain_len > config_.max_send_wr) {
    return Status(ErrorCode::kOutOfMemory, "send queue full");
  }

  const uint64_t first_seq = sq_next_seq_;
  check::Checker* ck = device_.network().sim().checker();
  for (const SendWr* w = &wr; w != nullptr; w = w->next) {
    ++sq_next_seq_;
    sq_.push_back(SqEntry{*w, false, WcStatus::kSuccess, 0});
    sq_.back().wr.next = nullptr;  // chain pointers don't outlive the post
    if (ck != nullptr) {
      sq_.back().wr.check_ref =
          CheckPost(*ck, sq_.back().wr, device_.node_id(), peer_node_,
                    qp_num_);
    }
  }

  // One initiator post cost (descriptor writes + a single doorbell) for
  // the whole chain, then every WR enters the wire.
  Network& net = device_.network();
  if (obs::Telemetry* tel = net.sim().telemetry(); tel != nullptr) {
    if (tel != obs_owner_) {
      obs_owner_ = tel;
      obs::NodeMetrics& m = tel->metrics().ForNode(device_.node_id());
      obs_doorbells_ = &m.GetCounter("verbs.doorbells");
      obs_wrs_ = &m.GetCounter("verbs.wrs_posted");
      obs_wrs_per_doorbell_ = &m.GetTimer("verbs.wrs_per_doorbell");
      obs_sges_per_doorbell_ = &m.GetTimer("verbs.sges_per_doorbell");
    }
    obs_doorbells_->Inc();
    obs_wrs_->Inc(chain_len);
    obs_wrs_per_doorbell_->Record(chain_len);
    obs_sges_per_doorbell_->Record(chain_sges);
    if (tel->tracing()) {
      // The post span covers the modelled descriptor + doorbell cost.
      const auto now = static_cast<uint64_t>(net.sim().NowNanos());
      std::vector<obs::TraceArg> args;
      args.push_back({"wrs", true, static_cast<double>(chain_len), {}});
      args.push_back({"sges", true, static_cast<double>(chain_sges), {}});
      tel->tracer().RecordSpan(
          device_.node_id(), tel->CurrentTid(), "verbs", "verbs.post", now,
          now + static_cast<uint64_t>(net.cpu_model().verbs_post_ns),
          std::move(args));
    }
  }
  net.sim().After(net.cpu_model().verbs_post_ns, [this, first_seq, chain_len] {
    IssueDoorbell(first_seq, chain_len);
  });
  return Status::Ok();
}

void QueuePair::IssueDoorbell(uint64_t first_seq, uint32_t count) {
  Network& net = device_.network();
  Network* pnet = &net;
  const uint32_t src = device_.node_id();
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t seq = first_seq + i;
    if (seq < sq_base_seq_) continue;  // flushed while the doorbell was queued
    const size_t idx = seq - sq_base_seq_;
    if (idx >= sq_.size()) continue;
    const SendWr& wr = sq_[idx].wr;

    uint64_t request_bytes = 0;
    bool gathers = false;  // the request carries a payload
    switch (wr.opcode) {
      case Opcode::kSend:
      case Opcode::kRdmaWrite:
      case Opcode::kRdmaWriteWithImm:
        request_bytes = wr.total_length();
        gathers = request_bytes > 0;
        break;
      case Opcode::kRdmaRead:
        request_bytes = kReadRequestBytes;
        break;
      default:
        request_bytes = kAtomicRequestBytes;
        break;
    }

    WireOp* op = net.AcquireWireOp();
    op->initiator = this;
    op->wr = wr;
    op->seq = seq;
    op->src_node = src;
    op->dst_node = peer_node_;
    op->dst_qp = peer_qp_num_;
    op->stamps = WireStamps{};
    op->stamps.posted = net.sim().NowNanos();
    net.fabric().Send(
        src, peer_node_, request_bytes,
        /*on_delivered=*/
        [pnet, op] {
          // Fabric egress/arrival stamps of the request message, recorded
          // for the wire-trip breakdown (zero on loopback, which bypasses
          // the egress model).
          if (const sim::DeliveryStamps* d = sim::Fabric::CurrentDelivery()) {
            op->stamps.tx_start = d->tx_start;
            op->stamps.first_bit = d->first_bit;
          }
          Device& target = pnet->device(op->dst_node);
          QueuePair* tqp = target.FindQp(op->dst_qp);
          if (tqp == nullptr || tqp->state_ == State::kError) {
            // NAK rides the wire back; because acks are delivered in order
            // per (src, dst) pair, this rejection cannot overtake an
            // earlier op's in-flight ack and flush it prematurely.
            op->initiator->CompleteSqViaAck(*pnet, op->dst_node, op->seq,
                                            WcStatus::kRetryExceeded, 0,
                                            op->stamps);
            pnet->ReleaseWireOp(op);
            return;
          }
          op->initiator->ExecuteAtTarget(*pnet, target, *tqp, op);
        },
        /*on_dropped=*/
        [pnet, op] {
          op->initiator->CompleteSq(op->seq, WcStatus::kRetryExceeded, 0,
                                    op->stamps);
          pnet->ReleaseWireOp(op);
        });
    // The SGEs stay the NIC's until it reads them.
    if (gathers) net.IndexPayload(device_, *op);
  }
}

// Target-side execution of an arriving request, in scheduler context. Owns
// `op`: every path releases it exactly once — immediately for ops that
// finish here, or when the response message's wire event fires.
void QueuePair::ExecuteAtTarget(Network& net, Device& target, QueuePair& tqp,
                                WireOp* op) {
  const SendWr& wr = op->wr;
  const uint64_t seq = op->seq;
  op->stamps.executed = net.sim().NowNanos();
  check::Checker* ck = net.sim().checker();
  switch (wr.opcode) {
    case Opcode::kSend: {
      Network* pnet = &net;
      const uint32_t tnode = target.node_id();
      tqp.AcceptSend(wr, op->src_node,
                     [this, pnet, tnode, seq,
                      stamps = op->stamps](WcStatus st, uint32_t len) {
                       CompleteSqViaAck(*pnet, tnode, seq, st, len, stamps);
                     },
                     /*data_already_placed=*/false, op);
      net.ReleaseWireOp(op);
      return;
    }

    case Opcode::kRdmaWrite:
    case Opcode::kRdmaWriteWithImm: {
      const uint64_t total = wr.total_length();
      MemoryRegion* mr = target.FindMrByRkey(wr.rkey);
      if (mr == nullptr || !mr->Covers(wr.remote_addr, total) ||
          (mr->access() & kRemoteWrite) == 0) {
        // NAK rides the wire back like the success ack.
        CompleteSqViaAck(net, target.node_id(), seq, WcStatus::kRemAccessErr,
                         0, op->stamps);
        net.ReleaseWireOp(op);
        return;
      }
      if (ck != nullptr && wr.check_ref != 0) ck->OnExecute(wr.check_ref);
      // Copy-before-write on the target range, then the NIC reads the
      // payload straight into it: from the initiator's SGEs, or from the
      // bounce block it was read into earlier.
      if (total > 0) {
        net.ReadPendingOverlaps(target, wr.remote_addr, total);
        net.GatherPayload(*op, reinterpret_cast<std::byte*>(wr.remote_addr));
      }
      if (wr.opcode == Opcode::kRdmaWriteWithImm) {
        Network* pnet = &net;
        const uint32_t tnode = target.node_id();
        tqp.AcceptSend(wr, op->src_node,
                       [this, pnet, tnode, seq,
                        stamps = op->stamps](WcStatus st, uint32_t len) {
                         CompleteSqViaAck(*pnet, tnode, seq, st, len, stamps);
                       },
                       /*data_already_placed=*/true);
      } else {
        CompleteSqViaAck(net, target.node_id(), seq, WcStatus::kSuccess,
                         static_cast<uint32_t>(total), op->stamps);
      }
      net.ReleaseWireOp(op);
      return;
    }

    case Opcode::kRdmaRead: {
      const uint64_t total = wr.total_length();
      MemoryRegion* mr = target.FindMrByRkey(wr.rkey);
      if (mr == nullptr || !mr->Covers(wr.remote_addr, total) ||
          (mr->access() & kRemoteRead) == 0) {
        CompleteSq(seq, WcStatus::kRemAccessErr, 0, op->stamps);
        net.ReleaseWireOp(op);
        return;
      }
      if (ck != nullptr && wr.check_ref != 0) ck->OnExecute(wr.check_ref);
      // Response: payload travels target -> initiator. The NIC reads the
      // target range when the response is delivered, straight into the
      // local SGEs (initiator buffer contents are undefined until the
      // completion, per RDMA semantics). A WRITE or atomic landing in the
      // range earlier makes it read first, so the bytes are the
      // service-time ones. The op carries the scatter list until then.
      Network* pnet = &net;
      const uint32_t tnode = target.node_id();
      const uint32_t inode = device_.node_id();
      net.fabric().Send(
          tnode, inode, total,
          [pnet, op] {
            const SendWr& w = op->wr;
            // A flushed READ's buffers are the app's again (it may have
            // freed them): its late response places nothing.
            if (op->initiator->state_ != State::kError) {
              Device& dev = op->initiator->device_;
              for (uint32_t i = 0; i < w.num_sge; ++i) {
                const Sge& s = w.sge(i);
                pnet->ReadPendingOverlaps(
                    dev, reinterpret_cast<uint64_t>(s.addr), s.length);
              }
              // Scatter: the contiguous range fills the SGEs in order.
              const std::byte* src = pnet->ReadAtDelivery(*op);
              if (src == nullptr) {
                src = reinterpret_cast<const std::byte*>(w.remote_addr);
              }
              for (uint32_t i = 0; i < w.num_sge; ++i) {
                const Sge& s = w.sge(i);
                if (s.length > 0) {
                  std::memcpy(s.addr, src, s.length);
                  src += s.length;
                }
              }
            }
            op->initiator->CompleteSq(
                op->seq, WcStatus::kSuccess,
                static_cast<uint32_t>(w.total_length()), op->stamps);
            pnet->ReleaseWireOp(op);
          },
          [pnet, op] {
            op->initiator->CompleteSq(op->seq, WcStatus::kRetryExceeded, 0,
                                      op->stamps);
            pnet->ReleaseWireOp(op);
          });
      if (total > 0) net.IndexPayload(target, *op);
      return;
    }

    case Opcode::kCompareSwap:
    case Opcode::kFetchAdd: {
      MemoryRegion* mr = target.FindMrByRkey(wr.rkey);
      if (mr == nullptr || !mr->Covers(wr.remote_addr, 8) ||
          (mr->access() & kRemoteAtomic) == 0) {
        CompleteSq(seq, WcStatus::kRemAccessErr, 0, op->stamps);
        net.ReleaseWireOp(op);
        return;
      }
      if (wr.remote_addr % 8 != 0) {
        CompleteSq(seq, WcStatus::kRemOpErr, 0, op->stamps);
        net.ReleaseWireOp(op);
        return;
      }
      if (ck != nullptr && wr.check_ref != 0) ck->OnExecute(wr.check_ref);
      net.ReadPendingOverlaps(target, wr.remote_addr, 8);
      auto* cell = reinterpret_cast<uint64_t*>(wr.remote_addr);
      const uint64_t old = *cell;
      if (wr.opcode == Opcode::kCompareSwap) {
        if (old == wr.compare) *cell = wr.swap_or_add;
      } else {
        *cell = old + wr.swap_or_add;
      }
      // The op stays in flight until the response delivers so its wire
      // stamps ride back with the completion.
      Network* pnet = &net;
      net.fabric().Send(
          target.node_id(), device_.node_id(), kAtomicResponseBytes,
          [pnet, op, old] {
            // As for READ: a flushed atomic's result buffer is the app's.
            if (op->initiator->state_ != State::kError) {
              pnet->ReadPendingOverlaps(
                  op->initiator->device_,
                  reinterpret_cast<uint64_t>(op->wr.local.addr), 8);
              std::memcpy(op->wr.local.addr, &old, 8);
            }
            op->initiator->CompleteSq(op->seq, WcStatus::kSuccess, 8,
                                      op->stamps);
            pnet->ReleaseWireOp(op);
          },
          [pnet, op] {
            op->initiator->CompleteSq(op->seq, WcStatus::kRetryExceeded, 0,
                                      op->stamps);
            pnet->ReleaseWireOp(op);
          });
      return;
    }

    case Opcode::kRecv:
      net.ReleaseWireOp(op);
      break;  // unreachable: rejected at post time
  }
}

// Target side of SEND / WRITE_WITH_IMM: consume a posted RECV or park in
// the RNR buffer. `on_executed` reports the initiator completion.
void QueuePair::AcceptSend(const SendWr& wr, uint32_t src_node,
                           CompletionFn on_executed, bool data_already_placed,
                           WireOp* op) {
  if (rq_.empty()) {
    if (rnr_buffer_.size() >= kMaxRnrBuffered) {
      on_executed(WcStatus::kRnrRetryExceeded, 0);
      EnterError();
      return;
    }
    std::vector<std::byte> parked;
    if (op != nullptr) {
      parked.resize(wr.total_length());
      device_.network().GatherPayload(*op, parked.data());
    }
    rnr_buffer_.push_back(RnrEntry{wr, src_node, std::move(on_executed),
                                   data_already_placed, std::move(parked)});
    rnr_buffer_.back().wr.next = nullptr;
    return;
  }
  MatchRecv(wr, src_node, on_executed, data_already_placed, op);
}

void QueuePair::MatchRecv(const SendWr& wr, uint32_t src_node,
                          CompletionFn& done, bool data_already_placed,
                          WireOp* op, std::span<const std::byte> parked) {
  RecvWr recv = rq_.front();
  rq_.pop_front();
  const auto total = static_cast<uint32_t>(wr.total_length());
  if (!data_already_placed) {
    if (recv.local.length < total) {
      // Receive buffer too small: local length error on the receiver,
      // remote-op error for the sender.
      recv_cq_->Push(WorkCompletion{recv.wr_id, WcStatus::kLocalProtErr,
                                    Opcode::kRecv, 0, std::nullopt, qp_num_,
                                    src_node, wr.check_ref,
                                    /*recv_side=*/true});
      done(WcStatus::kRemOpErr, 0);
      EnterError();
      return;
    }
    // Copy-before-write on the receive buffer, then the NIC reads the
    // SEND's payload into it (see WireOp), or the RNR entry's copy.
    if (total > 0) {
      Network& net = device_.network();
      net.ReadPendingOverlaps(
          device_, reinterpret_cast<uint64_t>(recv.local.addr), total);
      if (op != nullptr) {
        net.GatherPayload(*op, recv.local.addr);
      } else {
        std::memcpy(recv.local.addr, parked.data(), total);
      }
    }
  }
  recv_cq_->Push(WorkCompletion{
      recv.wr_id, WcStatus::kSuccess,
      data_already_placed ? Opcode::kRdmaWriteWithImm : Opcode::kRecv,
      total, wr.imm, qp_num_, src_node, wr.check_ref, /*recv_side=*/true});
  done(WcStatus::kSuccess, total);
}

Status QueuePair::PostRecv(const RecvWr& wr) {
  if (state_ == State::kError) {
    return Status(ErrorCode::kUnavailable, "QP in error state");
  }
  if (rq_.size() >= config_.max_recv_wr) {
    return Status(ErrorCode::kOutOfMemory, "receive queue full");
  }
  RSTORE_RETURN_IF_ERROR(device_.ValidateLocal(wr.local, true));
  rq_.push_back(wr);
  // Drain any sender that arrived before this buffer (RNR retry succeeds).
  while (!rq_.empty() && !rnr_buffer_.empty()) {
    RnrEntry entry = std::move(rnr_buffer_.front());
    rnr_buffer_.pop_front();
    MatchRecv(entry.wr, entry.src_node, entry.on_executed,
              entry.data_already_placed, nullptr, entry.payload);
  }
  return Status::Ok();
}

// Completion via RC ack: ride a small message from the target back to the
// initiator and complete when it is delivered, exactly as read responses
// and atomic responses already do. A dropped ack surfaces as a
// retry-exceeded error at the drop instant.
void QueuePair::CompleteSqViaAck(Network& net, uint32_t target_node,
                                 uint64_t seq, WcStatus status,
                                 uint32_t byte_len, WireStamps stamps) {
  net.fabric().Send(
      target_node, device_.node_id(), kAckBytes,
      [this, seq, status, byte_len, stamps] {
        CompleteSq(seq, status, byte_len, stamps);
      },
      [this, seq] { CompleteSq(seq, WcStatus::kRetryExceeded, 0); });
}

void QueuePair::CompleteSq(uint64_t seq, WcStatus status, uint32_t byte_len,
                           WireStamps stamps) {
  if (seq < sq_base_seq_) return;  // already flushed
  const size_t idx = seq - sq_base_seq_;
  if (idx >= sq_.size()) return;
  SqEntry& entry = sq_[idx];
  entry.done = true;
  entry.status = status;
  entry.byte_len = byte_len;
  entry.stamps = stamps;

  // The pushed stamp is the instant the CQE actually enters the CQ — for
  // entries held behind an unfinished predecessor (in-order drain) that is
  // the predecessor's completion instant, not this ack's arrival.
  const sim::Nanos now = device_.network().sim().NowNanos();
  check::Checker* ck = device_.network().sim().checker();
  if (status != WcStatus::kSuccess) {
    // An error moves the QP to the error state at once: every queued WR
    // completes in post order — finished ones with their recorded
    // status, unfinished ones flushed (their wire callbacks, if any,
    // arrive later with stale sequence numbers and are ignored).
    while (!sq_.empty()) {
      SqEntry e = std::move(sq_.front());
      sq_.pop_front();
      ++sq_base_seq_;
      const WcStatus st = e.done ? e.status : WcStatus::kWrFlushErr;
      if (ck != nullptr && e.wr.check_ref != 0) {
        ck->OnSettle(e.wr.check_ref, st == WcStatus::kSuccess);
      }
      if (st != WcStatus::kSuccess || e.wr.signaled) {
        WorkCompletion wc{e.wr.wr_id, st, e.wr.opcode, e.byte_len,
                          std::nullopt, qp_num_, peer_node_, e.wr.check_ref};
        wc.stamps = e.stamps;
        wc.stamps.pushed = now;
        send_cq_->Push(wc);
      }
    }
    EnterError();
    return;
  }

  // Emit the done prefix so completions are in post order.
  while (!sq_.empty() && sq_.front().done) {
    SqEntry e = std::move(sq_.front());
    sq_.pop_front();
    ++sq_base_seq_;
    if (ck != nullptr && e.wr.check_ref != 0) {
      ck->OnSettle(e.wr.check_ref, true);
    }
    if (e.wr.signaled) {
      WorkCompletion wc{e.wr.wr_id, e.status, e.wr.opcode, e.byte_len,
                        std::nullopt, qp_num_, peer_node_, e.wr.check_ref};
      wc.stamps = e.stamps;
      wc.stamps.pushed = now;
      send_cq_->Push(wc);
    }
  }
}

void QueuePair::FlushAll(WcStatus status) {
  check::Checker* ck = device_.network().sim().checker();
  while (!sq_.empty()) {
    SqEntry e = std::move(sq_.front());
    sq_.pop_front();
    ++sq_base_seq_;
    if (ck != nullptr && e.wr.check_ref != 0) {
      ck->OnSettle(e.wr.check_ref, false);
    }
    send_cq_->Push(WorkCompletion{e.wr.wr_id, status, e.wr.opcode, 0,
                                  std::nullopt, qp_num_, peer_node_,
                                  e.wr.check_ref});
  }
  while (!rq_.empty()) {
    RecvWr r = rq_.front();
    rq_.pop_front();
    recv_cq_->Push(WorkCompletion{r.wr_id, status, Opcode::kRecv, 0,
                                  std::nullopt, qp_num_, peer_node_});
  }
}

void QueuePair::EnterError() {
  if (state_ == State::kError) return;
  state_ = State::kError;
  // Flushed WRs hand their buffers back to the app, which may free them:
  // the NIC reads the gathers it still owes the wire first.
  device_.network().ReadPending(device_, this);
  FlushAll(WcStatus::kWrFlushErr);
}

// ---------------------------------------------------------------------------
// Network & connection management
// ---------------------------------------------------------------------------
Network::Network(sim::Simulation& sim, sim::NicConfig nic,
                 sim::CpuCostModel cpu)
    : sim_(sim), fabric_(sim, nic), cpu_(cpu) {
  // A dead node's threads unwind and free what they own; its NIC reads
  // every payload it still owes the wire before that.
  sim_.AtNodeKilled([this](uint32_t node) {
    if (node < devices_.size() && devices_[node] != nullptr) {
      ReadPending(*devices_[node]);
    }
  });
}

Device& Network::AddDevice(sim::Node& node) {
  const uint32_t id = node.id();
  if (id >= devices_.size()) devices_.resize(id + 1);
  if (!devices_[id]) {
    devices_[id] = std::unique_ptr<Device>(new Device(*this, node));
  }
  return *devices_[id];
}

Device& Network::device(uint32_t node_id) {
  assert(node_id < devices_.size() && devices_[node_id] != nullptr &&
         "no device on node");
  return *devices_[node_id];
}

WireOp* Network::AcquireWireOp() {
  if (op_free_.empty()) return &op_arena_.emplace_back();
  WireOp* op = op_free_.back();
  op_free_.pop_back();
  return op;
}

void Network::ReleaseWireOp(WireOp* op) {
  // A message dropped before it was delivered leaves its ranges indexed.
  if (op->snap_dev != nullptr) Unindex(*op);
  if (op->payload != nullptr) {
    ReleaseBounce(op->payload);
    op->payload = nullptr;
  }
  op_free_.push_back(op);
}

BounceBlock* Network::AcquireBounce(uint64_t len) {
  const auto cls = static_cast<uint32_t>(
      std::bit_width(len > 0 ? (len - 1) / BounceBlock::kMinBytes : 0));
  std::vector<BounceBlock*>& free = bounce_free_[cls];
  if (!free.empty()) {
    BounceBlock* b = free.back();
    free.pop_back();
    return b;
  }
  const uint64_t cap = BounceBlock::kMinBytes << cls;
  BounceBlock& b = bounce_arena_.emplace_back();
  b.bytes.reset(new std::byte[cap]);
  b.size_class = cls;
  bounce_bytes_ += cap;
  return &b;
}

void Network::ReleaseBounce(BounceBlock* block) {
  bounce_free_[block->size_class].push_back(block);
}

uint64_t Network::bounce_pool_bytes() const noexcept { return bounce_bytes_; }

size_t Network::bounce_blocks_in_use() const noexcept {
  size_t n = bounce_arena_.size();
  for (const auto& f : bounce_free_) n -= f.size();
  return n;
}

void Network::IndexPayload(Device& dev, WireOp& op) {
  op.snap_dev = &dev;
  std::vector<PendingSnapshot>& idx = dev.snapshots_;
  ForEachSource(op.wr, [&](const std::byte* p, uint64_t len) {
    const auto lo = reinterpret_cast<uint64_t>(p);
    idx.insert(std::upper_bound(idx.begin(), idx.end(), lo, StartsAfter),
               PendingSnapshot{lo, lo + len, &op});
    dev.snapshot_max_len_ = std::max(dev.snapshot_max_len_, len);
  });
  if (sim_.checker() != nullptr) {
    op.snap_hashed = true;
    op.snap_hash = HashPayload(op.wr, nullptr);
    op.snap_armed_at = sim_.NowNanos();
  }
}

const std::byte* Network::ReadAtDelivery(WireOp& op) {
  if (op.payload != nullptr) return op.payload->bytes.get();
  if (op.snap_dev != nullptr) FinishRead(op, nullptr);
  return nullptr;
}

void Network::GatherPayload(WireOp& op, std::byte* dst) {
  if (const std::byte* block = ReadAtDelivery(op)) {
    std::memcpy(dst, block, op.wr.total_length());
  } else {
    CopySources(op.wr, dst);
  }
}

void Network::TakeSnapshot(WireOp& op) {
  if (op.payload != nullptr) return;
  op.payload = AcquireBounce(op.wr.total_length());
  CopySources(op.wr, op.payload->bytes.get());
  if (op.snap_dev != nullptr) FinishRead(op, op.payload->bytes.get());
}

void Network::FinishRead(WireOp& op, const std::byte* block) {
  const uint32_t owner = op.snap_dev->node_id();
  const bool hashed = op.snap_hashed;
  Unindex(op);
  check::Checker* ck = sim_.checker();
  const SendWr& wr = op.wr;
  if (!hashed || ck == nullptr || HashPayload(wr, block) == op.snap_hash) {
    return;
  }
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  ForEachSource(wr, [&](const std::byte* p, uint64_t len) {
    lo = std::min(lo, reinterpret_cast<uint64_t>(p));
    hi = std::max(hi, reinterpret_cast<uint64_t>(p) + len);
  });
  ck->OnPostedBufferChanged(wr.check_ref, owner, lo, hi,
                            static_cast<uint64_t>(op.snap_armed_at));
}

void Network::Unindex(WireOp& op) {
  std::vector<PendingSnapshot>& idx = op.snap_dev->snapshots_;
  ForEachSource(op.wr, [&](const std::byte* p, uint64_t) {
    // Address order only locates the entry; nothing observes it.
    const auto lo = reinterpret_cast<uint64_t>(p);
    auto it = std::lower_bound(idx.begin(), idx.end(), lo, StartsBefore);
    while (it->op != &op) ++it;
    idx.erase(it);
  });
  if (idx.empty()) op.snap_dev->snapshot_max_len_ = 0;
  op.snap_dev = nullptr;
  op.snap_hashed = false;
}

void Network::ReadPendingOverlaps(Device& dev, uint64_t lo, uint64_t len) {
  const std::vector<PendingSnapshot>& idx = dev.snapshots_;
  if (idx.empty() || len == 0) return;
  // A range starting at or before lo - max_len ends at or before lo.
  auto it = lo > dev.snapshot_max_len_
                ? std::upper_bound(idx.begin(), idx.end(),
                                   lo - dev.snapshot_max_len_, StartsAfter)
                : idx.begin();
  std::vector<WireOp*> hit;
  for (; it != idx.end() && it->lo < lo + len; ++it) {
    if (it->hi > lo) hit.push_back(it->op);
  }
  TakeSnapshots(hit);
}

void Network::TakeSnapshots(std::vector<WireOp*>& ops) {
  // In post order, not address order: an rcheck report may come out of
  // each read, and report order is part of the run's output.
  std::sort(ops.begin(), ops.end(), [](const WireOp* a, const WireOp* b) {
    return a->initiator != b->initiator
               ? a->initiator->qp_num() < b->initiator->qp_num()
               : a->seq < b->seq;
  });
  // TakeSnapshot unindexes, so read after the walk; repeats are no-ops.
  for (WireOp* op : ops) TakeSnapshot(*op);
}

void Network::ReadPending(Device& dev, const QueuePair* initiator) {
  std::vector<WireOp*> hit;
  for (const PendingSnapshot& e : dev.snapshots_) {
    if (initiator == nullptr || e.op->initiator == initiator) {
      hit.push_back(e.op);
    }
  }
  TakeSnapshots(hit);
}

Network::Listener::Listener(Network& net, Device& dev, uint32_t service_id,
                            QpConfig config, CompletionQueue* send_cq,
                            CompletionQueue* recv_cq)
    : net_(net), dev_(dev), service_id_(service_id), config_(config),
      send_cq_(send_cq), recv_cq_(recv_cq), ready_(net.sim()) {}

Result<QueuePair*> Network::Listener::Accept(sim::Nanos timeout) {
  if (!ready_.WaitUntilFor([this] { return !pending_.empty(); }, timeout)) {
    return Result<QueuePair*>(ErrorCode::kTimedOut, "no incoming connection");
  }
  QueuePair* qp = pending_.front();
  pending_.pop_front();
  return qp;
}

Network::Listener& Network::Listen(Device& device, uint32_t service_id,
                                   QpConfig config, CompletionQueue* send_cq,
                                   CompletionQueue* recv_cq) {
  const uint64_t key =
      (static_cast<uint64_t>(device.node_id()) << 32) | service_id;
  auto it = listeners_.find(key);
  if (it == listeners_.end()) {
    it = listeners_
             .emplace(key, std::unique_ptr<Listener>(new Listener(
                               *this, device, service_id, config, send_cq,
                               recv_cq)))
             .first;
  }
  return *it->second;
}

Result<QueuePair*> Network::Connect(Device& device, uint32_t remote_node,
                                    uint32_t service_id, QpConfig config,
                                    CompletionQueue* send_cq,
                                    CompletionQueue* recv_cq) {
  QueuePair* qp = nullptr;
  RSTORE_RETURN_IF_ERROR(ConnectAll(device, {&remote_node, 1}, service_id,
                                    {&qp, 1}, config, send_cq, recv_cq));
  return qp;
}

Status Network::ConnectAll(Device& device,
                           std::span<const uint32_t> remote_nodes,
                           uint32_t service_id, std::span<QueuePair*> out,
                           QpConfig config, CompletionQueue* send_cq,
                           CompletionQueue* recv_cq) {
  struct ConnectState {
    ConnectState(sim::Simulation& s, size_t n)
        : cv(s), server_qp_num(n), accepted(n) {}
    sim::CondVar cv;
    size_t pending = 0;  // CM replies still due
    std::vector<uint32_t> server_qp_num;
    std::vector<bool> accepted;

    void Reply(size_t i, bool ok, uint32_t qp_num) {
      accepted[i] = ok;
      server_qp_num[i] = qp_num;
      if (--pending == 0) cv.NotifyAll();
    }
  };
  const size_t n = remote_nodes.size();
  auto state = std::make_shared<ConnectState>(sim_, n);
  const uint32_t client_node = device.node_id();
  constexpr uint64_t kCmMessageBytes = 64;

  for (size_t i = 0; i < n; ++i) {
    // Client-side QP programming cost, then this QP's CM request.
    sim::Sleep(qp_setup_cost());
    out[i] = &device.CreateQueuePair(config, send_cq, recv_cq);
    const uint32_t remote_node = remote_nodes[i];
    const uint64_t key =
        (static_cast<uint64_t>(remote_node) << 32) | service_id;
    const uint32_t client_qp_num = out[i]->qp_num();
    const auto failed = [state, i] { state->Reply(i, false, 0); };
    ++state->pending;
    fabric_.Send(
        client_node, remote_node, kCmMessageBytes,
        /*on_delivered=*/
        [this, key, client_node, client_qp_num, remote_node, state, i,
         failed] {
          Listener* found = nullptr;
          if (auto it = listeners_.find(key); it != listeners_.end()) {
            found = it->second.get();
          }
          if (found == nullptr) {
            // Reject travels back as a CM message.
            fabric_.Send(remote_node, client_node, kCmMessageBytes, failed,
                         failed);
            return;
          }
          Listener& listener = *found;
          // Server-side QP programming, then the accept reply.
          sim_.After(qp_setup_cost(), [this, &listener, client_node,
                                       client_qp_num, state, i, failed] {
            QueuePair& server_qp = listener.dev_.CreateQueuePair(
                listener.config_, listener.send_cq_, listener.recv_cq_);
            server_qp.ConnectTo(client_node, client_qp_num);
            listener.pending_.push_back(&server_qp);
            listener.ready_.NotifyAll();
            const uint32_t server_qp_num = server_qp.qp_num();
            fabric_.Send(listener.dev_.node_id(), client_node,
                         kCmMessageBytes,
                         [state, i, server_qp_num] {
                           state->Reply(i, true, server_qp_num);
                         },
                         failed);
          });
        },
        /*on_dropped=*/failed);
  }

  state->cv.WaitUntil([&] { return state->pending == 0; });
  Status status = Status::Ok();
  for (size_t i = 0; i < n; ++i) {
    if (!state->accepted[i]) {
      out[i] = nullptr;
      status = Status(ErrorCode::kUnavailable,
                      "connection rejected or peer unreachable");
      continue;
    }
    out[i]->ConnectTo(remote_nodes[i], state->server_qp_num[i]);
  }
  return status;
}

}  // namespace rstore::verbs
