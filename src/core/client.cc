#include "core/client.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "check/check.h"
#include "common/log.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace rstore::core {

namespace {
// Attaches the client node's fabric-time deltas (egress queueing, wire
// serialization, propagation + ingress wait) accumulated while a span
// was open. The counters are per-node, so concurrent client threads on
// the same node fold into one another's breakdown — fine for traces,
// which show the per-message fabric.msg spans alongside.
class FabricBreakdown {
 public:
  FabricBreakdown(obs::ObsSpan& span, obs::Counter* queue, obs::Counter* ser,
                  obs::Counter* wire)
      : span_(span), queue_(queue), ser_(ser), wire_(wire) {
    if (span_.active() && queue_ != nullptr) {
      queue0_ = queue_->value();
      ser0_ = ser_->value();
      wire0_ = wire_->value();
    }
  }
  ~FabricBreakdown() {
    if (span_.active() && queue_ != nullptr) {
      span_.Arg("fabric_queue_ns",
                static_cast<double>(queue_->value() - queue0_));
      span_.Arg("fabric_serialization_ns",
                static_cast<double>(ser_->value() - ser0_));
      span_.Arg("fabric_wire_ns", static_cast<double>(wire_->value() - wire0_));
    }
  }
  FabricBreakdown(const FabricBreakdown&) = delete;
  FabricBreakdown& operator=(const FabricBreakdown&) = delete;

 private:
  obs::ObsSpan& span_;
  obs::Counter* queue_;
  obs::Counter* ser_;
  obs::Counter* wire_;
  uint64_t queue0_ = 0;
  uint64_t ser0_ = 0;
  uint64_t wire0_ = 0;
};
}  // namespace

// Shared completion state of one logical IO (possibly many work
// requests, all carrying io_id as their wr_id). `sealed` flips once the
// last WR is posted; only then can completed==expected mean "done" —
// backpressure drains completions while posting is still in progress.
struct IoFuture::State {
  explicit State(sim::Simulation& s, uint64_t id) : io_id(id), cv(s) {}
  const uint64_t io_id;
  uint32_t expected = 0;
  uint32_t completed = 0;
  bool sealed = false;
  Status first_error;
  bool failed = false;
  sim::CondVar cv;

  [[nodiscard]] bool done() const noexcept {
    return sealed && completed >= expected;
  }
};

Status IoFuture::Wait() {
  if (!state_) return Status(ErrorCode::kInvalidArgument, "empty IoFuture");
  return client_->WaitFuture(state_);
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------
RStoreClient::RStoreClient(verbs::Device& device, uint32_t master_node,
                           ClientOptions options)
    : device_(device), master_node_(master_node), options_(options) {}

Result<std::unique_ptr<RStoreClient>> RStoreClient::Connect(
    verbs::Device& device, uint32_t master_node, ClientOptions options) {
  auto client = std::unique_ptr<RStoreClient>(
      new RStoreClient(device, master_node, options));

  rpc::RpcOptions rpc_opts;
  rpc_opts.call_timeout = options.control_timeout;
  auto master = rpc::RpcClient::Connect(device, master_node, kMasterService,
                                        rpc_opts);
  if (!master.ok()) return master.status();
  client->master_ = std::move(master).value();

  client->pd_ = &device.CreatePd();
  client->data_cq_ = &device.CreateCq();

  // Scratch slots for atomic results.
  constexpr uint32_t kAtomicSlots = 256;
  client->atomic_arena_.resize(kAtomicSlots * 8);
  auto mr = client->pd_->RegisterMemory(client->atomic_arena_.data(),
                                        client->atomic_arena_.size(),
                                        verbs::kLocalWrite);
  if (!mr.ok()) return mr.status();
  client->atomic_mr_ = *mr;
  for (uint32_t i = 0; i < kAtomicSlots; ++i) {
    client->free_atomic_slots_.push_back(i);
  }
  return client;
}

RStoreClient::~RStoreClient() {
  for (auto& [node, conn] : connections_) {
    if (conn.qp != nullptr) conn.qp->Close();
  }
  for (auto& [addr, mr] : pinned_) (void)pd_->DeregisterMemory(mr);
  if (atomic_mr_ != nullptr) (void)pd_->DeregisterMemory(atomic_mr_);
}

// ---------------------------------------------------------------------------
// Telemetry plumbing
// ---------------------------------------------------------------------------
obs::Telemetry* RStoreClient::ObsTelemetry() {
  obs::Telemetry* tel = device_.network().sim().telemetry();
  if (tel != obs_owner_) {
    obs_owner_ = tel;
    if (tel == nullptr) {
      obs_ops_ = obs_bytes_read_ = obs_bytes_written_ = nullptr;
      obs_fab_queue_ = obs_fab_ser_ = obs_fab_wire_ = nullptr;
      obs_wc_egress_ = obs_wc_wire_ = obs_wc_server_ = obs_wc_ack_ = nullptr;
    } else {
      obs::NodeMetrics& m = tel->metrics().ForNode(device_.node_id());
      obs_ops_ = &m.GetCounter("client.data_ops");
      obs_bytes_read_ = &m.GetCounter("client.bytes_read");
      obs_bytes_written_ = &m.GetCounter("client.bytes_written");
      obs_fab_queue_ = &m.GetCounter("fabric.queue_ns");
      obs_fab_ser_ = &m.GetCounter("fabric.serialization_ns");
      obs_fab_wire_ = &m.GetCounter("fabric.wire_ns");
      obs_wc_egress_ = &m.GetCounter("client.wc_egress_ns");
      obs_wc_wire_ = &m.GetCounter("client.wc_wire_ns");
      obs_wc_server_ = &m.GetCounter("client.wc_server_ns");
      obs_wc_ack_ = &m.GetCounter("client.wc_ack_ns");
    }
  }
  return tel;
}

RStoreClient::CacheModeObs& RStoreClient::ObsForCacheMode(
    cache::CacheMode mode) {
  CacheModeObs& co = cache_obs_[static_cast<size_t>(mode)];
  obs::Telemetry* tel = ObsTelemetry();
  if (co.owner != tel) {
    co.owner = tel;
    if (tel == nullptr) {
      co.hits = co.misses = co.fills = co.bypass = co.invalidations = nullptr;
    } else {
      obs::NodeMetrics& m = tel->metrics().ForNode(device_.node_id());
      const std::string prefix = std::string("cache.") + cache::ToString(mode);
      co.hits = &m.GetCounter(prefix + ".hits");
      co.misses = &m.GetCounter(prefix + ".misses");
      co.fills = &m.GetCounter(prefix + ".fills");
      co.bypass = &m.GetCounter(prefix + ".bypass");
      co.invalidations = &m.GetCounter(prefix + ".invalidations");
    }
  }
  return co;
}

// ---------------------------------------------------------------------------
// Control path
// ---------------------------------------------------------------------------
Result<std::vector<std::byte>> RStoreClient::CallMaster(
    uint32_t method, const rpc::Writer& req) {
  ++control_calls_;
  return master_->Call(method, req);
}

Status RStoreClient::Ralloc(const std::string& name, uint64_t size,
                            uint32_t copies) {
  rpc::Writer req;
  req.Str(name);
  req.U64(size);
  req.U32(copies);
  return CallMaster(kAlloc, req).status();
}

Result<MappedRegion*> RStoreClient::Rmap(const std::string& name,
                                         bool allow_degraded, bool fresh) {
  // Mode-preserving overload: remapping through the short form keeps
  // whatever cache mode the mapping was created with.
  RmapOptions options;
  options.allow_degraded = allow_degraded;
  options.fresh = fresh;
  auto it = mappings_.find(name);
  if (it != mappings_.end()) options.cache_mode = it->second->cache_mode_;
  return Rmap(name, options);
}

Result<MappedRegion*> RStoreClient::Rmap(const std::string& name,
                                         const RmapOptions& options) {
  if (!options.fresh) {
    auto it = mappings_.find(name);
    if (it != mappings_.end()) {
      ++map_cache_hits_;
      MappedRegion* region = it->second.get();
      if (region->cache_mode_ != options.cache_mode) {
        // Mode change: pages cached under the old contract are dropped.
        DropCachedRegion(region->desc_.id, region->cache_mode_);
        region->cache_mode_ = options.cache_mode;
      }
      return region;
    }
  }
  rpc::Writer req;
  req.Str(name);
  req.Bool(options.allow_degraded);
  auto resp = CallMaster(kMap, req);
  if (!resp.ok()) return resp.status();
  rpc::Reader r(*resp);
  RegionDesc desc;
  if (!RegionDesc::Decode(r, &desc)) {
    return Result<MappedRegion*>(ErrorCode::kInternal,
                                 "malformed map response");
  }
  // A fresh remap may have moved slabs (healing); anything cached under
  // the previous mapping of this region is stale.
  {
    auto prev = mappings_.find(name);
    DropCachedRegion(desc.id, prev != mappings_.end()
                                  ? prev->second->cache_mode_
                                  : cache::CacheMode::kNone);
  }
  auto region = std::unique_ptr<MappedRegion>(
      new MappedRegion(*this, std::move(desc)));
  region->cache_mode_ = options.cache_mode;
  MappedRegion* raw = region.get();
  mappings_[name] = std::move(region);
  if (check::Checker* ck = device_.network().sim().checker(); ck != nullptr) {
    ck->OnMap(device_.node_id(), raw->desc_.id);
  }
  return raw;
}

Status RStoreClient::Rgrow(const std::string& name, uint64_t new_size) {
  rpc::Writer req;
  req.Str(name);
  req.U64(new_size);
  auto resp = CallMaster(kGrow, req);
  if (!resp.ok()) return resp.status();
  rpc::Reader r(*resp);
  RegionDesc desc;
  if (!RegionDesc::Decode(r, &desc)) {
    return Status(ErrorCode::kInternal, "malformed grow response");
  }
  // Growth may append slabs on servers already holding cached pages and
  // changes the tail page's valid length; drop the region's cache state
  // before refreshing the mapping.
  auto it = mappings_.find(name);
  DropCachedRegion(desc.id, it != mappings_.end()
                                ? it->second->cache_mode_
                                : cache::CacheMode::kNone);
  // Refresh the cached mapping in place so existing MappedRegion
  // pointers observe the new size.
  if (it != mappings_.end()) {
    it->second->desc_ = std::move(desc);
  }
  return Status::Ok();
}

Status RStoreClient::Runmap(const std::string& name) {
  auto it = mappings_.find(name);
  if (it == mappings_.end()) {
    return Status(ErrorCode::kNotFound, "'" + name + "' is not mapped");
  }
  DropCachedRegion(it->second->desc_.id, it->second->cache_mode_);
  if (check::Checker* ck = device_.network().sim().checker(); ck != nullptr) {
    ck->OnUnmap(device_.node_id(), it->second->desc_.id);
  }
  mappings_.erase(it);
  return Status::Ok();
}

Status RStoreClient::Rfree(const std::string& name) {
  auto it = mappings_.find(name);
  if (it != mappings_.end()) {
    DropCachedRegion(it->second->desc_.id, it->second->cache_mode_);
    mappings_.erase(it);
  }
  rpc::Writer req;
  req.Str(name);
  return CallMaster(kFree, req).status();
}

Result<ClusterStat> RStoreClient::Stat() {
  auto resp = CallMaster(kStat, rpc::Writer{});
  if (!resp.ok()) return resp.status();
  rpc::Reader r(*resp);
  ClusterStat stat;
  if (!ClusterStat::Decode(r, &stat)) {
    return Result<ClusterStat>(ErrorCode::kInternal, "malformed stat");
  }
  return stat;
}

Status RStoreClient::RegisterBuffer(std::span<std::byte> buffer) {
  if (buffer.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty buffer");
  }
  // Evict registrations that overlap the new range: they necessarily
  // refer to freed buffers whose addresses the allocator reused (live
  // application buffers cannot overlap).
  last_pinned_ = nullptr;  // may be about to evict the cached entry
  const auto a = reinterpret_cast<uintptr_t>(buffer.data());
  const uintptr_t b = a + buffer.size();
  auto it = pinned_.lower_bound(a);
  if (it != pinned_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second->length() > a) {
      (void)pd_->DeregisterMemory(prev->second);
      pinned_.erase(prev);
    }
  }
  while (it != pinned_.end() && it->first < b) {
    (void)pd_->DeregisterMemory(it->second);
    it = pinned_.erase(it);
  }

  auto mr = pd_->RegisterMemory(buffer.data(), buffer.size(),
                                verbs::kLocalWrite);
  if (!mr.ok()) return mr.status();
  pinned_.emplace(a, *mr);
  return Status::Ok();
}

Status RStoreClient::UnregisterBuffer(std::span<std::byte> buffer) {
  const auto a = reinterpret_cast<uintptr_t>(buffer.data());
  auto it = pinned_.find(a);
  if (it == pinned_.end()) {
    return Status(ErrorCode::kNotFound, "buffer was not registered");
  }
  if (last_pinned_ == it->second) last_pinned_ = nullptr;
  (void)pd_->DeregisterMemory(it->second);
  pinned_.erase(it);
  return Status::Ok();
}

Result<PinnedBuffer> RStoreClient::AllocBuffer(size_t bytes) {
  common::HugeBuffer storage(bytes);
  std::span<std::byte> span(storage.data(), storage.size());
  RSTORE_RETURN_IF_ERROR(RegisterBuffer(span));
  owned_buffers_.push_back(std::move(storage));
  return PinnedBuffer{span, FindPinned(span.data(), span.size())->lkey()};
}

verbs::MemoryRegion* RStoreClient::FindPinned(const std::byte* addr,
                                              uint64_t len) const {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  if (last_pinned_ != nullptr && last_pinned_->Covers(a, len)) {
    return last_pinned_;
  }
  auto it = pinned_.upper_bound(a);
  if (it == pinned_.begin()) return nullptr;
  --it;
  verbs::MemoryRegion* mr = it->second;
  if (!mr->Covers(a, len)) return nullptr;
  last_pinned_ = mr;
  return mr;
}

Status RStoreClient::NotifyInc(const std::string& channel, uint64_t delta) {
  rpc::Writer req;
  req.Str(channel);
  req.U64(delta);
  return CallMaster(kNotifyInc, req).status();
}

Result<uint64_t> RStoreClient::WaitNotify(const std::string& channel,
                                          uint64_t target) {
  rpc::Writer req;
  req.Str(channel);
  req.U64(target);
  auto resp = CallMaster(kWaitNotify, req);
  if (!resp.ok()) return resp.status();
  rpc::Reader r(*resp);
  uint64_t value = 0;
  if (!r.U64(&value)) {
    return Result<uint64_t>(ErrorCode::kInternal, "malformed wait response");
  }
  return value;
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------
Result<RStoreClient::Connection*> RStoreClient::ConnectionTo(
    uint32_t server_node) {
  if (server_node == last_conn_node_ && last_conn_ != nullptr &&
      last_conn_->healthy) {
    return last_conn_;
  }
  auto it = connections_.find(server_node);
  if (it != connections_.end() && it->second.healthy) {
    last_conn_node_ = server_node;
    last_conn_ = &it->second;
    return &it->second;
  }
  // (Re)connect: data QPs share the client's data CQ for send-side
  // completions; the receive side is unused (one-sided traffic only).
  auto qp = device_.network().Connect(device_, server_node, kDataService, {},
                                      data_cq_, nullptr);
  if (!qp.ok()) return qp.status();
  Connection conn{*qp, true};
  auto [pos, unused] = connections_.insert_or_assign(server_node, conn);
  (void)unused;
  last_conn_node_ = server_node;
  last_conn_ = &pos->second;  // map nodes are address-stable
  return &pos->second;
}

Result<IoFuture> RStoreClient::SubmitIo(const RegionDesc& desc,
                                        uint64_t offset, std::byte* buffer,
                                        uint64_t length, bool is_read) {
  obs::ObsSpan span(ObsTelemetry(), device_.node_id(), "client", "io.post");
  span.Arg("bytes", static_cast<double>(length));
  auto state = std::make_shared<IoFuture::State>(device_.network().sim(),
                                                 next_wr_id_++);
  IoFuture future(state, this);
  std::vector<Fragment> frags = std::move(frag_scratch_);
  frags.clear();
  Status st = CollectFragments(desc, offset, buffer, length, is_read, frags);
  if (st.ok()) st = PostCoalesced(state, frags, is_read);
  frag_scratch_ = std::move(frags);
  SealIo(state);
  if (!st.ok()) return st;
  return future;
}

Result<IoFuture> RStoreClient::SubmitVector(const RegionDesc& desc,
                                            std::span<const IoVec> segments,
                                            bool is_read) {
  obs::ObsSpan span(ObsTelemetry(), device_.node_id(), "client", "io.post");
  span.Arg("segments", static_cast<double>(segments.size()));
  auto state = std::make_shared<IoFuture::State>(device_.network().sim(),
                                                 next_wr_id_++);
  IoFuture future(state, this);
  std::vector<Fragment> frags = std::move(frag_scratch_);
  frags.clear();
  Status st;
  for (const IoVec& seg : segments) {
    st = CollectFragments(desc, seg.offset, seg.local, seg.length, is_read,
                          frags);
    if (!st.ok()) break;
  }
  if (st.ok()) st = PostCoalesced(state, frags, is_read);
  frag_scratch_ = std::move(frags);
  SealIo(state);
  if (!st.ok()) return st;
  return future;
}

Status RStoreClient::CollectFragments(const RegionDesc& desc, uint64_t offset,
                                      std::byte* buffer, uint64_t length,
                                      bool is_read,
                                      std::vector<Fragment>& out) {
  if (offset > desc.size || length > desc.size - offset) {
    return Status(ErrorCode::kOutOfRange,
                  "IO past end of region '" + desc.name + "'");
  }
  if (length == 0) return Status::Ok();

  verbs::MemoryRegion* pinned = FindPinned(buffer, length);
  if (pinned == nullptr) {
    return Status(
        ErrorCode::kInvalidArgument,
        "IO buffer is not registered (call RegisterBuffer/AllocBuffer)");
  }
  const uint32_t lkey = pinned->lkey();

  ++data_ops_;
  if (is_read) {
    bytes_read_ += length;
  } else {
    bytes_written_ += length;
  }
  if (ObsTelemetry() != nullptr) {
    obs_ops_->Inc();
    (is_read ? obs_bytes_read_ : obs_bytes_written_)->Inc(length);
  }

  uint64_t cursor = offset;
  uint64_t remaining = length;
  std::byte* local = buffer;
  while (remaining > 0) {
    const uint64_t slab_idx = cursor / desc.slab_size;
    const uint64_t in_slab = cursor % desc.slab_size;
    const uint64_t frag = std::min(remaining, desc.slab_size - in_slab);
    const SlabLocation& slab = desc.slabs.at(slab_idx);

    // Reads hit the primary copy; writes fan out to every copy so
    // replicas stay byte-identical.
    out.push_back(Fragment{slab.server_node, slab.rkey,
                           slab.remote_addr + in_slab, local, frag, lkey});
    if (!is_read) {
      for (const auto& replica : desc.replicas) {
        const SlabLocation& r = replica.at(slab_idx);
        out.push_back(Fragment{r.server_node, r.rkey, r.remote_addr + in_slab,
                               local, frag, lkey});
      }
    }

    cursor += frag;
    local += frag;
    remaining -= frag;
  }
  return Status::Ok();
}

Status RStoreClient::PostCoalesced(const std::shared_ptr<IoFuture::State>& state,
                                   std::span<const Fragment> frags,
                                   bool is_read) {
  if (frags.empty()) return Status::Ok();
  const verbs::Opcode opcode =
      is_read ? verbs::Opcode::kRdmaRead : verbs::Opcode::kRdmaWrite;

  std::vector<verbs::SendWr> wrs = std::move(wr_scratch_);
  std::vector<uint32_t> wr_server = std::move(wr_server_scratch_);
  wrs.clear();
  wr_server.clear();

  // Coalesce: a fragment extending the remote range of an earlier WR to
  // the same server (same rkey, remote-contiguous) merges into it —
  // growing the last SGE when the local side is contiguous too, else
  // adding an SGE. Everything else opens a new WR. WR count per IO is
  // typically the number of distinct servers touched.
  for (const Fragment& f : frags) {
    verbs::SendWr* open = nullptr;
    for (size_t i = wrs.size(); i-- > 0;) {
      if (wr_server[i] == f.server_node) {
        open = &wrs[i];
        break;
      }
    }
    if (open != nullptr && open->rkey == f.rkey &&
        open->remote_addr + open->total_length() == f.remote_addr &&
        f.length <= UINT32_MAX) {
      verbs::Sge& tail = open->last_sge();
      if (tail.lkey == f.lkey && tail.addr + tail.length == f.local &&
          static_cast<uint64_t>(tail.length) + f.length <= UINT32_MAX) {
        tail.length += static_cast<uint32_t>(f.length);
        continue;
      }
      if (open->AppendSge(
              {f.local, static_cast<uint32_t>(f.length), f.lkey})) {
        continue;
      }
    }
    wrs.push_back(verbs::SendWr{
        .wr_id = state->io_id,
        .opcode = opcode,
        .local = {f.local, static_cast<uint32_t>(f.length), f.lkey},
        .remote_addr = f.remote_addr,
        .rkey = f.rkey,
    });
    wr_server.push_back(f.server_node);
  }

  // Post one doorbell chain per server (in first-use order), splitting
  // chains that would not fit the send queue.
  constexpr size_t kMaxChain = 32;
  constexpr uint32_t kPosted = UINT32_MAX;
  Status st;
  for (size_t start = 0; start < wrs.size() && st.ok(); ++start) {
    const uint32_t server = wr_server[start];
    if (server == kPosted) continue;
    auto conn = ConnectionTo(server);
    if (!conn.ok()) {
      st = conn.status();
      break;
    }
    verbs::SendWr* head = nullptr;
    verbs::SendWr* tail = nullptr;
    uint32_t chain = 0;
    for (size_t j = start; j < wrs.size(); ++j) {
      if (wr_server[j] != server) continue;
      wr_server[j] = kPosted;
      wrs[j].next = nullptr;
      if (tail != nullptr) {
        tail->next = &wrs[j];
      } else {
        head = &wrs[j];
      }
      tail = &wrs[j];
      ++chain;
      if (chain == kMaxChain) {
        st = PostChain(*conn, state, *head, chain);
        if (!st.ok()) break;
        head = tail = nullptr;
        chain = 0;
      }
    }
    if (st.ok() && head != nullptr) st = PostChain(*conn, state, *head, chain);
  }

  wr_scratch_ = std::move(wrs);
  wr_server_scratch_ = std::move(wr_server);
  return st;
}

Status RStoreClient::PostChain(Connection* conn,
                               const std::shared_ptr<IoFuture::State>& state,
                               const verbs::SendWr& head, uint32_t count) {
  // Backpressure: when the send queue fills, drain completions and retry.
  Status posted = conn->qp->PostSend(head);
  while (!posted.ok() && posted.code() == ErrorCode::kOutOfMemory) {
    PumpData(options_.io_timeout);
    posted = conn->qp->PostSend(head);
  }
  if (!posted.ok()) {
    conn->healthy = false;
    return posted;
  }
  if (state->expected == 0) pending_io_.emplace(state->io_id, state);
  state->expected += count;
  return Status::Ok();
}

void RStoreClient::SealIo(const std::shared_ptr<IoFuture::State>& state) {
  state->sealed = true;
  // Backpressure pumping may have drained every completion before the
  // seal; reap the pending entry here, since PumpData no longer can.
  if (state->expected > 0 && state->completed >= state->expected) {
    pending_io_.erase(state->io_id);
    state->cv.NotifyAll();
  }
}

void RStoreClient::PumpData(sim::Nanos timeout, size_t min_entries) {
  std::vector<verbs::WorkCompletion> wcs = std::move(wc_scratch_);
  wcs.clear();
  data_cq_->WaitPollInto(wcs, min_entries, SIZE_MAX, timeout);
  // One logical IO produces runs of completions with the same wr_id;
  // remember the previous lookup instead of searching the map per entry.
  uint64_t cached_id = 0;
  std::shared_ptr<IoFuture::State> cached;
  for (const auto& wc : wcs) {
    std::shared_ptr<IoFuture::State> state;
    if (cached != nullptr && wc.wr_id == cached_id) {
      state = cached;
    } else {
      auto it = pending_io_.find(wc.wr_id);
      if (it == pending_io_.end()) continue;  // e.g. reaped atomics
      state = it->second;
      cached_id = wc.wr_id;
      cached = state;
    }
    state->completed += 1;
    if (obs_wc_egress_ != nullptr && wc.stamps.posted != 0) {
      // Decompose the completion's dwell by its wire stamps (clamped
      // monotone: loopback steps never enter the port model and leave the
      // intermediate stamps zero).
      const auto& st = wc.stamps;
      const sim::Nanos tx = std::max(st.tx_start, st.posted);
      const sim::Nanos fb = std::max(st.first_bit, tx);
      const sim::Nanos ex = std::max(st.executed, fb);
      const sim::Nanos pu = std::max(st.pushed, ex);
      obs_wc_egress_->Inc(static_cast<uint64_t>(tx - st.posted));
      obs_wc_wire_->Inc(static_cast<uint64_t>(fb - tx));
      obs_wc_server_->Inc(static_cast<uint64_t>(ex - fb));
      obs_wc_ack_->Inc(static_cast<uint64_t>(pu - ex));
    }
    if (!wc.ok() && !state->failed) {
      state->failed = true;
      state->first_error =
          Status(wc.status == verbs::WcStatus::kRemAccessErr
                     ? ErrorCode::kPermissionDenied
                     : ErrorCode::kUnavailable,
                 std::string("data path error: ") +
                     std::string(verbs::ToString(wc.status)));
      // Mark the connection unhealthy so the next IO reconnects.
      for (auto& [node, conn] : connections_) {
        if (conn.qp != nullptr && conn.qp->qp_num() == wc.qp_num) {
          conn.healthy = false;
        }
      }
    }
    if (state->done()) {
      pending_io_.erase(state->io_id);
      state->cv.NotifyAll();
    }
  }
  wc_scratch_ = std::move(wcs);
}

Status RStoreClient::WaitFuture(const std::shared_ptr<IoFuture::State>& state) {
  obs::ObsSpan span(ObsTelemetry(), device_.node_id(), "client", "io.wait");
  const sim::Nanos deadline = sim::Now() + options_.io_timeout;
  while (!state->done()) {
    if (sim::Now() >= deadline) {
      return Status(ErrorCode::kTimedOut, "IO did not complete in time");
    }
    if (!pumping_) {
      pumping_ = true;
      // Wake threshold: this future needs `expected - completed` more
      // completions, so let that many accumulate before waking (one
      // thread wake per IO instead of one per fragment). Completions for
      // other IOs sharing the CQ only make the wake earlier, never later.
      const size_t remaining =
          state->expected > state->completed
              ? static_cast<size_t>(state->expected - state->completed)
              : 1;
      PumpData(deadline - sim::Now(), remaining);
      pumping_ = false;
      // Hand the pump to another waiter if we are done but others wait.
      if (!pending_io_.empty()) {
        pending_io_.begin()->second->cv.NotifyAll();
      }
    } else {
      (void)state->cv.WaitFor(deadline - sim::Now());
    }
  }
  return state->failed ? state->first_error : Status::Ok();
}

Result<uint64_t> RStoreClient::SubmitAtomic(MappedRegion& region,
                                            uint64_t offset, verbs::Opcode op,
                                            uint64_t compare,
                                            uint64_t swap_or_add) {
  check::OpLabelScope label(device_.network().sim().checker(),
                            "client.atomic");
  const RegionDesc& desc = region.desc_;
  if (offset % 8 != 0 || offset + 8 > desc.size) {
    return Result<uint64_t>(ErrorCode::kInvalidArgument,
                            "atomic offset must be 8-aligned and in range");
  }
  if (desc.copies > 1) {
    return Result<uint64_t>(
        ErrorCode::kInvalidArgument,
        "remote atomics are not defined on replicated regions");
  }
  const uint64_t slab_idx = offset / desc.slab_size;
  const uint64_t in_slab = offset % desc.slab_size;
  const SlabLocation& slab = desc.slabs.at(slab_idx);

  auto conn = ConnectionTo(slab.server_node);
  if (!conn.ok()) return conn.status();

  if (free_atomic_slots_.empty()) {
    return Result<uint64_t>(ErrorCode::kOutOfMemory,
                            "too many outstanding atomics");
  }
  const uint32_t slot = free_atomic_slots_.back();
  free_atomic_slots_.pop_back();
  std::byte* result = atomic_arena_.data() + slot * 8;

  auto state = std::make_shared<IoFuture::State>(device_.network().sim(),
                                                 next_wr_id_++);
  Status posted = (*conn)->qp->PostSend(verbs::SendWr{
      .wr_id = state->io_id,
      .opcode = op,
      .local = {result, 8, atomic_mr_->lkey()},
      .remote_addr = slab.remote_addr + in_slab,
      .rkey = slab.rkey,
      .compare = compare,
      .swap_or_add = swap_or_add,
  });
  if (!posted.ok()) {
    free_atomic_slots_.push_back(slot);
    (*conn)->healthy = false;
    return posted;
  }
  state->expected = 1;
  state->sealed = true;
  pending_io_.emplace(state->io_id, state);
  Status st = WaitFuture(state);
  uint64_t old = 0;
  std::memcpy(&old, result, 8);
  free_atomic_slots_.push_back(slot);
  // A remote atomic mutates bytes under any cached copy regardless of
  // mode; drop the affected page so the next read refetches it.
  if (region.cache_mode_ != cache::CacheMode::kNone && cache_ != nullptr) {
    cache_->DropPage(desc.id, offset / cache_->page_bytes());
    CacheModeObs& co = ObsForCacheMode(region.cache_mode_);
    if (co.invalidations != nullptr) co.invalidations->Inc();
  }
  if (!st.ok()) return st;
  return old;
}

// ---------------------------------------------------------------------------
// Region cache
// ---------------------------------------------------------------------------
cache::RegionCache* RStoreClient::EnsureCache() {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<cache::RegionCache>(
        options_.cache, [this](uint64_t bytes) -> std::byte* {
          // Arenas come from AllocBuffer so frames live in registered
          // memory and fills can DMA straight into them.
          auto buf = AllocBuffer(bytes);
          if (!buf.ok()) return nullptr;
          return buf->begin();
        });
    // Evictions happen inside the cache (LRU pressure, stale-write
    // invalidation) where the client cannot see them; forward each one so
    // the checker retires the page's consistency contract.
    cache_->SetEvictObserver([this](uint64_t region_id, uint64_t page) {
      if (check::Checker* ck = device_.network().sim().checker();
          ck != nullptr) {
        const uint64_t pb = cache_->page_bytes();
        ck->OnCacheDrop(device_.node_id(), region_id, page * pb,
                        (page + 1) * pb);
      }
    });
  }
  return cache_.get();
}

void RStoreClient::DropCachedRegion(uint64_t region_id,
                                    cache::CacheMode mode) {
  if (cache_ == nullptr) return;
  cache_->DropRegion(region_id);
  if (mode != cache::CacheMode::kNone) {
    CacheModeObs& co = ObsForCacheMode(mode);
    if (co.invalidations != nullptr) co.invalidations->Inc();
  }
}

const cache::CacheStats& RStoreClient::cache_stats() const noexcept {
  static const cache::CacheStats kZero{};
  return cache_ != nullptr ? cache_->stats() : kZero;
}

IoFuture RStoreClient::CompletedFuture() {
  auto state = std::make_shared<IoFuture::State>(device_.network().sim(),
                                                 next_wr_id_++);
  state->sealed = true;  // expected == completed == 0: done on arrival
  return IoFuture(state, this);
}

Status RStoreClient::CachedRead(MappedRegion& region,
                                std::span<const IoVec> segments) {
  const RegionDesc& desc = region.desc_;
  // Same contract as the uncached path: bounds-checked, registered
  // buffers only — even for segments the cache could serve, so a request
  // never starts failing when its pages happen to fall out of cache.
  for (const IoVec& seg : segments) {
    if (seg.offset > desc.size || seg.length > desc.size - seg.offset) {
      return Status(ErrorCode::kOutOfRange,
                    "IO past end of region '" + desc.name + "'");
    }
    if (seg.length != 0 && FindPinned(seg.local, seg.length) == nullptr) {
      return Status(
          ErrorCode::kInvalidArgument,
          "IO buffer is not registered (call RegisterBuffer/AllocBuffer)");
    }
  }
  obs::ObsSpan span(ObsTelemetry(), device_.node_id(), "cache", "cache.read");
  CacheModeObs& co = ObsForCacheMode(region.cache_mode_);
  cache::RegionCache* cache = EnsureCache();
  const uint64_t page_bytes = cache->page_bytes();
  const uint64_t bypass = cache->bypass_bytes();
  const uint64_t epoch = region.cache_epoch_;
  const uint64_t id = desc.id;

  // Copies deferred until a fill lands, and the fills themselves
  // (installed only after the vectored read succeeds).
  struct CopyOut {
    cache::RegionCache::Frame* frame;
    uint64_t frame_off;
    std::byte* dst;
    uint64_t length;
  };
  struct Fill {
    cache::RegionCache::Frame* frame;
    uint64_t page;
    uint32_t valid;
  };
  std::vector<CopyOut> copies;
  std::vector<Fill> fills;
  // Pages this op is already fetching (overlapping segments), so each
  // page is fetched at most once per call.
  std::unordered_map<uint64_t, cache::RegionCache::Frame*> filling;

  std::vector<IoVec> remote = std::move(cache_io_scratch_);
  remote.clear();
  uint64_t local_bytes = 0;  // bytes memcpy'd between frames and caller

  // A run of consecutive missing pages within one segment, buffered so
  // the flush can weigh the run's total length against the bypass
  // threshold before committing to frame fills.
  struct MissRange {
    uint64_t page;
    uint64_t in_page;  // offset of the wanted bytes within the page
    uint64_t length;   // wanted bytes (<= page_bytes - in_page)
    std::byte* dst;
  };
  std::vector<MissRange> run;

  auto flush_run = [&] {
    if (run.empty()) return;
    uint64_t run_bytes = 0;
    for (const MissRange& m : run) run_bytes += m.length;
    if (bypass != 0 && run_bytes >= bypass) {
      // Stream the run straight into the caller's buffer, uncached: the
      // copy-in/copy-out tax on bytes used once exceeds the network time
      // saved, and a scan would evict the hot set. Runs never span
      // segments, so the remote range is contiguous.
      remote.push_back(IoVec{
          run.front().page * page_bytes + run.front().in_page,
          run.front().dst, run_bytes});
      cache->NoteBypass();
      if (co.bypass != nullptr) co.bypass->Inc();
      for (size_t i = 0; i < run.size(); ++i) cache->NoteMiss();
      if (co.misses != nullptr) co.misses->Inc(run.size());
      run.clear();
      return;
    }
    for (const MissRange& m : run) {
      cache->NoteMiss();
      if (co.misses != nullptr) co.misses->Inc();
      cache::RegionCache::Frame* frame = cache->Acquire();
      if (frame == nullptr) {
        // Every frame is pinned or the arena allocator failed: read the
        // wanted bytes directly, uncached.
        remote.push_back(
            IoVec{m.page * page_bytes + m.in_page, m.dst, m.length});
        continue;
      }
      const uint32_t valid = static_cast<uint32_t>(
          std::min<uint64_t>(page_bytes, desc.size - m.page * page_bytes));
      remote.push_back(IoVec{m.page * page_bytes, frame->data, valid});
      fills.push_back(Fill{frame, m.page, valid});
      filling.emplace(m.page, frame);
      copies.push_back(CopyOut{frame, m.in_page, m.dst, m.length});
    }
    run.clear();
  };

  for (const IoVec& seg : segments) {
    uint64_t cursor = seg.offset;
    uint64_t remaining = seg.length;
    std::byte* dst = seg.local;
    while (remaining > 0) {
      const uint64_t page = cursor / page_bytes;
      const uint64_t in_page = cursor % page_bytes;
      const uint64_t take = std::min(remaining, page_bytes - in_page);
      cache::RegionCache::Frame* frame = cache->Find(id, page, epoch);
      // A frame short of the requested range (tail page cached before the
      // region grew) cannot serve the hit; Rgrow drops such frames, so
      // this is a defensive miss, not an expected path.
      if (frame != nullptr && in_page + take <= frame->valid_bytes) {
        flush_run();
        std::memcpy(dst, frame->data + in_page, take);
        local_bytes += take;
        cache->NoteHit(take);
        if (co.hits != nullptr) co.hits->Inc();
      } else if (auto it = filling.find(page); it != filling.end()) {
        flush_run();
        copies.push_back(CopyOut{it->second, in_page, dst, take});
        cache->NoteHit(take);  // shares the in-flight fill
        if (co.hits != nullptr) co.hits->Inc();
      } else {
        run.push_back(MissRange{page, in_page, take, dst});
      }
      cursor += take;
      dst += take;
      remaining -= take;
    }
    flush_run();
  }

  Status st = Status::Ok();
  if (!remote.empty()) {
    auto future = SubmitVector(desc, remote, /*is_read=*/true);
    st = future.ok() ? future->Wait() : future.status();
  }
  cache_io_scratch_ = std::move(remote);
  if (!st.ok()) {
    for (const Fill& f : fills) cache->Abandon(f.frame);
    return st;
  }
  check::Checker* ck = device_.network().sim().checker();
  for (const Fill& f : fills) {
    cache->Install(f.frame, id, f.page, epoch, f.valid);
    cache->NoteFill(f.valid);
    // Immutable regions promise nobody writes cached bytes; register the
    // freshly resident range so a later remote write trips the contract.
    // Epoch-mode read fills stay unregistered: serving stale bytes until
    // the next BumpEpoch is legal there.
    if (ck != nullptr && region.cache_mode_ == cache::CacheMode::kImmutable) {
      const uint64_t pb = cache->page_bytes();
      ck->OnCacheResident(device_.node_id(), id, f.page * pb,
                          f.page * pb + f.valid);
    }
  }
  if (co.fills != nullptr) co.fills->Inc(fills.size());
  for (const CopyOut& c : copies) {
    std::memcpy(c.dst, c.frame->data + c.frame_off, c.length);
    local_bytes += c.length;
  }
  // Locally copied bytes are never free: local DRAM bandwidth, one
  // charge per logical op.
  if (local_bytes > 0) {
    sim::ChargeCpu(
        sim::CacheCopyCost(device_.network().cpu_model(), local_bytes));
  }
  span.Arg("mode", cache::ToString(region.cache_mode_));
  span.Arg("segments", static_cast<double>(segments.size()));
  span.Arg("local_bytes", static_cast<double>(local_bytes));
  return Status::Ok();
}

void RStoreClient::CacheApplyWrite(MappedRegion& region, uint64_t offset,
                                   std::span<const std::byte> src) {
  if (region.cache_mode_ == cache::CacheMode::kNone || src.empty()) return;
  cache::RegionCache* cache = EnsureCache();
  const uint64_t copied =
      cache->ApplyWrite(region.desc_.id, region.cache_epoch_, offset, src);
  if (copied > 0) {
    sim::ChargeCpu(
        sim::CacheCopyCost(device_.network().cpu_model(), copied));
  }
  if (check::Checker* ck = device_.network().sim().checker(); ck != nullptr) {
    // Register the written bytes that landed in still-resident frames.
    // Epoch mode: the local copy now mirrors the remote write-through, so
    // a concurrent remote writer would silently diverge it — that is the
    // contract rcheck enforces. Pages the cache dropped (stale partial
    // overwrite) carry no promise and are skipped via the Resident peek.
    const uint64_t pb = cache->page_bytes();
    const uint64_t end = offset + src.size();
    for (uint64_t page = offset / pb; page * pb < end; ++page) {
      if (!cache->Resident(region.desc_.id, page, region.cache_epoch_)) {
        continue;
      }
      const uint64_t lo = std::max(offset, page * pb);
      const uint64_t hi = std::min(end, (page + 1) * pb);
      if (region.cache_mode_ == cache::CacheMode::kEpoch) {
        ck->OnCacheWriteThrough(device_.node_id(), region.desc_.id, lo, hi);
      } else {
        ck->OnCacheResident(device_.node_id(), region.desc_.id, lo, hi);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MappedRegion forwarding
// ---------------------------------------------------------------------------
void MappedRegion::BumpEpoch() noexcept {
  ++cache_epoch_;
  if (check::Checker* ck = client_.device_.network().sim().checker();
      ck != nullptr) {
    ck->OnEpochBump(client_.device_.node_id(), desc_.id);
  }
}

Status MappedRegion::Read(uint64_t offset, std::span<std::byte> dst) {
  check::OpLabelScope label(client_.device_.network().sim().checker(),
                            "client.read");
  obs::ObsSpan span(client_.ObsTelemetry(), client_.device_.node_id(),
                    "client", "client.read");
  span.Arg("bytes", static_cast<double>(dst.size()));
  FabricBreakdown breakdown(span, client_.obs_fab_queue_,
                            client_.obs_fab_ser_, client_.obs_fab_wire_);
  if (cache_mode_ != cache::CacheMode::kNone) {
    const IoVec seg{offset, dst.data(), dst.size()};
    return client_.CachedRead(*this, std::span<const IoVec>(&seg, 1));
  }
  auto future = client_.SubmitIo(desc_, offset, dst.data(), dst.size(),
                                 /*is_read=*/true);
  if (!future.ok()) return future.status();
  return future->Wait();
}

Status MappedRegion::Write(uint64_t offset, std::span<const std::byte> src) {
  check::OpLabelScope label(client_.device_.network().sim().checker(),
                            "client.write");
  obs::ObsSpan span(client_.ObsTelemetry(), client_.device_.node_id(),
                    "client", "client.write");
  span.Arg("bytes", static_cast<double>(src.size()));
  FabricBreakdown breakdown(span, client_.obs_fab_queue_,
                            client_.obs_fab_ser_, client_.obs_fab_wire_);
  // One-sided writes read the source buffer; it stays logically const.
  auto future = client_.SubmitIo(desc_, offset,
                                 const_cast<std::byte*>(src.data()),
                                 src.size(), /*is_read=*/false);
  if (!future.ok()) return future.status();
  Status st = future->Wait();
  // Write-through: the remote copy is authoritative, so the local update
  // happens only once the write is known durable.
  if (st.ok()) client_.CacheApplyWrite(*this, offset, src);
  return st;
}

// ReadAsync intentionally bypasses the cache: the caller's buffer is not
// filled until the future completes, so there is no moment at which a
// consistent local copy could be taken without blocking the post path.
Result<IoFuture> MappedRegion::ReadAsync(uint64_t offset,
                                         std::span<std::byte> dst) {
  check::OpLabelScope label(client_.device_.network().sim().checker(),
                            "client.read_async");
  return client_.SubmitIo(desc_, offset, dst.data(), dst.size(), true);
}

Result<IoFuture> MappedRegion::WriteAsync(uint64_t offset,
                                          std::span<const std::byte> src) {
  check::OpLabelScope label(client_.device_.network().sim().checker(),
                            "client.write_async");
  auto future = client_.SubmitIo(desc_, offset,
                                 const_cast<std::byte*>(src.data()),
                                 src.size(), false);
  // Applied at post time: if the write later fails the connection is
  // marked unhealthy and remote state is undefined anyway.
  if (future.ok()) client_.CacheApplyWrite(*this, offset, src);
  return future;
}

Result<IoFuture> MappedRegion::ReadV(std::span<const IoVec> segments) {
  check::OpLabelScope label(client_.device_.network().sim().checker(),
                            "client.readv");
  obs::ObsSpan span(client_.ObsTelemetry(), client_.device_.node_id(),
                    "client", "client.readv");
  span.Arg("segments", static_cast<double>(segments.size()));
  if (cache_mode_ != cache::CacheMode::kNone) {
    RSTORE_RETURN_IF_ERROR(client_.CachedRead(*this, segments));
    return client_.CompletedFuture();
  }
  return client_.SubmitVector(desc_, segments, /*is_read=*/true);
}

Result<IoFuture> MappedRegion::WriteV(std::span<const IoVec> segments) {
  check::OpLabelScope label(client_.device_.network().sim().checker(),
                            "client.writev");
  auto future = client_.SubmitVector(desc_, segments, /*is_read=*/false);
  if (future.ok() && cache_mode_ != cache::CacheMode::kNone) {
    for (const IoVec& seg : segments) {
      client_.CacheApplyWrite(
          *this, seg.offset,
          std::span<const std::byte>(seg.local, seg.length));
    }
  }
  return future;
}

Result<RemoteSpan> MappedRegion::Resolve(uint64_t offset,
                                         uint64_t length) const {
  if (offset > desc_.size || length > desc_.size - offset) {
    return Result<RemoteSpan>(ErrorCode::kInvalidArgument,
                              "range past end of region '" + desc_.name + "'");
  }
  const uint64_t slab_idx = offset / desc_.slab_size;
  const uint64_t in_slab = offset % desc_.slab_size;
  if (length > desc_.slab_size - in_slab) {
    return Result<RemoteSpan>(
        ErrorCode::kInvalidArgument,
        "range crosses a slab boundary in region '" + desc_.name + "'");
  }
  const SlabLocation& slab = desc_.slabs.at(slab_idx);
  return RemoteSpan{slab.server_node, slab.rkey, slab.remote_addr + in_slab};
}

Result<uint64_t> MappedRegion::FetchAdd(uint64_t offset, uint64_t delta) {
  return client_.SubmitAtomic(*this, offset, verbs::Opcode::kFetchAdd, 0,
                              delta);
}

Result<uint64_t> MappedRegion::CompareSwap(uint64_t offset, uint64_t expected,
                                           uint64_t desired) {
  return client_.SubmitAtomic(*this, offset, verbs::Opcode::kCompareSwap,
                              expected, desired);
}

}  // namespace rstore::core
