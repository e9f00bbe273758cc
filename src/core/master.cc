#include "core/master.h"

#include <algorithm>

#include "check/check.h"
#include "common/log.h"
#include "common/rng.h"

namespace rstore::core {

Master::Master(verbs::Device& device, MasterOptions options)
    : device_(device), options_(options),
      scrub_idle_(device.network().sim()) {}

void Master::Start() {
  rpc_ = std::make_unique<rpc::RpcServer>(device_, kMasterService);
  auto bind = [this](Status (Master::*fn)(rpc::Reader&, rpc::Writer&)) {
    return [this, fn](rpc::Reader& req, rpc::Writer& resp) {
      return (this->*fn)(req, resp);
    };
  };
  rpc_->RegisterHandler(kRegisterServer, "register", bind(&Master::HandleRegister));
  rpc_->RegisterHandler(kHeartbeat, "heartbeat", bind(&Master::HandleHeartbeat));
  rpc_->RegisterHandler(kAlloc, "ralloc", bind(&Master::HandleAlloc));
  rpc_->RegisterHandler(kMap, "rmap", bind(&Master::HandleMap));
  rpc_->RegisterHandler(kFree, "rfree", bind(&Master::HandleFree));
  rpc_->RegisterHandler(kStat, "rstat", bind(&Master::HandleStat));
  rpc_->RegisterHandler(kNotifyInc, "notify_inc", bind(&Master::HandleNotifyInc));
  rpc_->RegisterHandler(kWaitNotify, "wait_notify", bind(&Master::HandleWaitNotify));
  rpc_->RegisterHandler(kListRegions, "list_regions", bind(&Master::HandleListRegions));
  rpc_->RegisterHandler(kGrow, "rgrow", bind(&Master::HandleGrow));
  rpc_->Start();

  device_.node().Spawn("master-lease-sweeper", [this] {
    while (true) {
      sim::Sleep(options_.sweep_interval);
      SweepLeases();
    }
  });
}

uint32_t Master::live_servers() const {
  uint32_t n = 0;
  for (const auto& [id, s] : servers_) n += s.alive ? 1 : 0;
  return n;
}

uint64_t Master::free_slabs() const {
  uint64_t n = 0;
  for (const auto& [id, s] : servers_) {
    if (s.alive) n += s.free_slabs.size();
  }
  return n;
}

// ----------------------------------------------------------- registration
Status Master::HandleRegister(rpc::Reader& req, rpc::Writer& resp) {
  ServerInfo info;
  if (!req.U32(&info.node) || !req.U64(&info.base_addr) ||
      !req.U32(&info.rkey) || !req.U64(&info.capacity)) {
    return Status(ErrorCode::kInvalidArgument, "bad register request");
  }
  info.last_heartbeat = sim::Now();
  const auto n_slabs =
      static_cast<uint32_t>(info.capacity / options_.slab_size);
  if (n_slabs == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "donated capacity smaller than one slab");
  }
  // Slabs still referenced by existing regions (a re-registration after a
  // transient lease loss) must not be offered again: the degraded regions
  // still name them.
  std::vector<bool> in_use(n_slabs, false);
  auto mark = [&](const SlabLocation& slab) {
    if (slab.server_node == info.node && slab.rkey == info.rkey &&
        slab.remote_addr >= info.base_addr) {
      const uint64_t idx =
          (slab.remote_addr - info.base_addr) / options_.slab_size;
      if (idx < n_slabs) in_use[idx] = true;
    }
  };
  for (const auto& [rname, region] : regions_) {
    for (const SlabLocation& slab : region.desc.slabs) mark(slab);
    for (const auto& replica : region.desc.replicas) {
      for (const SlabLocation& slab : replica) mark(slab);
    }
  }
  // Slabs handed out before stay marked across a re-registration of the
  // same arena: they still hold their old regions' bytes.
  auto prev = servers_.find(info.node);
  if (prev != servers_.end() && prev->second.rkey == info.rkey &&
      prev->second.base_addr == info.base_addr) {
    info.handed_out = std::move(prev->second.handed_out);
  }
  info.handed_out.resize(n_slabs, false);
  info.free_slabs.reserve(n_slabs);
  // LIFO order: lowest slab on top so allocations are address-ordered.
  for (uint32_t i = n_slabs; i-- > 0;) {
    if (!in_use[i]) info.free_slabs.push_back(i);
  }

  const uint32_t node = info.node;
  auto [it, inserted] = servers_.insert_or_assign(node, std::move(info));
  (void)it;
  LOG_INFO << "master: server " << node << " registered, "
           << n_slabs << " slabs" << (inserted ? "" : " (re-registration)");

  // A re-registration with unchanged keys (transient partition, not a
  // restart) heals regions that were only degraded because of this
  // server: un-degrade any region whose slabs all live on healthy
  // servers under their original rkeys.
  for (auto& [rname, region] : regions_) {
    if (!region.degraded) continue;
    auto live = [&](const SlabLocation& slab) {
      auto sit = servers_.find(slab.server_node);
      return sit != servers_.end() && sit->second.alive &&
             sit->second.rkey == slab.rkey;
    };
    bool healthy = std::all_of(region.desc.slabs.begin(),
                               region.desc.slabs.end(), live);
    for (const auto& replica : region.desc.replicas) {
      healthy = healthy && std::all_of(replica.begin(), replica.end(), live);
    }
    if (healthy) region.degraded = false;
  }
  resp.U64(options_.slab_size);
  return Status::Ok();
}

Status Master::HandleHeartbeat(rpc::Reader& req, rpc::Writer& resp) {
  uint32_t node = 0;
  if (!req.U32(&node)) {
    return Status(ErrorCode::kInvalidArgument, "bad heartbeat");
  }
  auto it = servers_.find(node);
  if (it == servers_.end()) {
    return Status(ErrorCode::kNotFound, "server never registered");
  }
  if (!it->second.alive) {
    // Lease already revoked; the server must re-register (its slabs were
    // reclaimed and may be promised to other regions).
    return Status(ErrorCode::kUnavailable, "lease expired; re-register");
  }
  it->second.last_heartbeat = sim::Now();
  resp.Bool(true);
  return Status::Ok();
}

void Master::SweepLeases() {
  const sim::Nanos now = sim::Now();
  for (auto& [node, server] : servers_) {
    if (!server.alive) continue;
    if (now - server.last_heartbeat <= options_.lease_timeout) continue;
    server.alive = false;
    server.free_slabs.clear();
    LOG_WARN << "master: server " << node << " lost its lease";
    // Degrade every region with any copy on the dead server (replicated
    // regions may still be fully readable; HandleMap decides).
    for (auto& [name, region] : regions_) {
      auto on_dead = [&](const SlabLocation& slab) {
        return slab.server_node == node;
      };
      bool hit = std::any_of(region.desc.slabs.begin(),
                             region.desc.slabs.end(), on_dead);
      for (const auto& replica : region.desc.replicas) {
        hit = hit || std::any_of(replica.begin(), replica.end(), on_dead);
      }
      if (hit) region.degraded = true;
    }
  }
}

// -------------------------------------------------------------- allocation
Status Master::HandleAlloc(rpc::Reader& req, rpc::Writer& resp) {
  std::string name;
  uint64_t size = 0;
  uint32_t copies = 1;
  if (!req.Str(&name) || !req.U64(&size) || !req.U32(&copies) ||
      name.empty() || size == 0 || copies == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad alloc request");
  }
  const uint64_t n_slabs =
      (size + options_.slab_size - 1) / options_.slab_size;
  // Charge the per-slab bookkeeping *before* touching shared state:
  // ChargeCpu yields, and the slab selection below must not interleave
  // with another client's allocation.
  sim::ChargeCpu(n_slabs * copies * options_.alloc_per_slab_cost);
  if (regions_.contains(name)) {
    return Status(ErrorCode::kAlreadyExists, "region '" + name + "' exists");
  }

  // Live servers, most free slabs first; stable by node id for
  // determinism.
  std::vector<ServerInfo*> ranked;
  for (auto& [node, server] : servers_) {
    if (server.alive && !server.free_slabs.empty()) {
      ranked.push_back(&server);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ServerInfo* a, const ServerInfo* b) {
              if (a->free_slabs.size() != b->free_slabs.size()) {
                return a->free_slabs.size() > b->free_slabs.size();
              }
              return a->node < b->node;
            });
  if (copies > live_servers()) {
    return Status(ErrorCode::kInvalidArgument,
                  "replication factor " + std::to_string(copies) +
                      " exceeds live servers (" +
                      std::to_string(live_servers()) + ")");
  }
  uint64_t available = 0;
  for (const ServerInfo* s : ranked) available += s->free_slabs.size();
  if (available < n_slabs * copies) {
    return Status(ErrorCode::kOutOfMemory,
                  "need " + std::to_string(n_slabs * copies) +
                      " slabs, have " + std::to_string(available));
  }

  RegionInfo region;
  region.desc.id = next_region_id_++;
  region.desc.name = name;
  region.desc.size = size;
  region.desc.slab_size = options_.slab_size;
  region.desc.copies = copies;
  region.desc.slabs.reserve(n_slabs);
  region.desc.replicas.assign(copies - 1, {});
  for (auto& r : region.desc.replicas) r.reserve(n_slabs);

  std::vector<SlabLocation> recycled;
  auto give_back_all = [&] {
    for (const SlabLocation& slab : region.desc.slabs) GiveBack(slab);
    for (const auto& r : region.desc.replicas) {
      for (const SlabLocation& slab : r) GiveBack(slab);
    }
  };

  // Slab placement per the configured policy; the copies of one slab
  // always land on distinct servers. The policy picks where the scan for
  // each slab's servers starts:
  //   kStripe: round-robin — consecutive stripes hit different machines.
  //   kPack:   first server (in ranked order) that still has free slabs,
  //            so a region concentrates on as few machines as possible.
  //   kRandom: seeded uniform pick per slab.
  Rng placement_rng(options_.placement_seed ^ region.desc.id);
  size_t cursor = 0;
  for (uint64_t i = 0; i < n_slabs; ++i) {
    size_t start = cursor;
    switch (options_.placement) {
      case PlacementPolicy::kStripe:
        break;
      case PlacementPolicy::kPack:
        start = 0;
        while (start < ranked.size() && ranked[start]->free_slabs.empty()) {
          ++start;
        }
        break;
      case PlacementPolicy::kRandom:
        start = placement_rng.NextBelow(ranked.size());
        break;
    }
    std::vector<ServerInfo*> chosen;
    for (size_t probes = 0;
         probes < ranked.size() && chosen.size() < copies; ++probes) {
      ServerInfo* s = ranked[(start + probes) % ranked.size()];
      if (s->free_slabs.empty()) continue;
      if (std::find(chosen.begin(), chosen.end(), s) != chosen.end()) {
        continue;
      }
      if (chosen.empty()) cursor = (start + probes + 1) % ranked.size();
      chosen.push_back(s);
    }
    if (chosen.size() < copies) {
      // Roll back: free slabs cannot host `copies` distinct placements.
      give_back_all();
      return Status(ErrorCode::kOutOfMemory,
                    "cannot place " + std::to_string(copies) +
                        " distinct copies of every slab");
    }
    region.desc.slabs.push_back(TakeSlab(*chosen[0], recycled));
    for (uint32_t r = 1; r < copies; ++r) {
      region.desc.replicas[r - 1].push_back(TakeSlab(*chosen[r], recycled));
    }
  }

  check::Checker* ck = device_.network().sim().checker();
  if (ck != nullptr) {
    auto track = [&](const std::vector<SlabLocation>& slabs) {
      for (size_t i = 0; i < slabs.size(); ++i) {
        ck->OnRegionSlab(region.desc.id, name, options_.slab_size,
                         slabs[i].server_node, slabs[i].remote_addr,
                         slabs[i].remote_addr + options_.slab_size,
                         i * options_.slab_size);
      }
    };
    track(region.desc.slabs);
    for (const auto& replica : region.desc.replicas) track(replica);
  }
  // Recycled slabs are zeroed before the name is published. The scrub
  // blocks, so the name is checked again after it: the first allocation
  // to finish wins and a loser's slabs go back (zeroed).
  if (!recycled.empty()) {
    Status st = Scrub(recycled);
    if (st.ok() && regions_.contains(name)) {
      st = Status(ErrorCode::kAlreadyExists, "region '" + name + "' exists");
    }
    if (!st.ok()) {
      give_back_all();
      if (ck != nullptr) ck->OnRegionFree(region.desc.id);
      return st;
    }
  }
  region.desc.Encode(resp);
  regions_.emplace(name, std::move(region));
  return Status::Ok();
}

bool Master::SlabLive(const SlabLocation& slab) const {
  auto it = servers_.find(slab.server_node);
  return it != servers_.end() && it->second.alive &&
         it->second.rkey == slab.rkey;
}

Status Master::HandleMap(rpc::Reader& req, rpc::Writer& resp) {
  std::string name;
  bool allow_degraded = false;
  if (!req.Str(&name) || !req.Bool(&allow_degraded)) {
    return Status(ErrorCode::kInvalidArgument, "bad map request");
  }
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return Status(ErrorCode::kNotFound, "region '" + name + "' not found");
  }
  RegionDesc& desc = it->second.desc;

  // Failover promotion: ensure every slab's primary copy is live when any
  // live copy exists. The promotion is persistent — later maps (and other
  // clients) see the new primary.
  bool some_slab_dark = false;
  for (size_t i = 0; i < desc.slabs.size(); ++i) {
    if (SlabLive(desc.slabs[i])) continue;
    bool promoted = false;
    for (auto& replica : desc.replicas) {
      if (SlabLive(replica[i])) {
        std::swap(desc.slabs[i], replica[i]);
        promoted = true;
        break;
      }
    }
    if (!promoted) some_slab_dark = true;
  }
  if (some_slab_dark && !allow_degraded) {
    return Status(ErrorCode::kUnavailable,
                  "region '" + name +
                      "' has slabs with no live copy (server lost)");
  }
  desc.Encode(resp);
  return Status::Ok();
}

Status Master::HandleFree(rpc::Reader& req, rpc::Writer& resp) {
  std::string name;
  if (!req.Str(&name)) {
    return Status(ErrorCode::kInvalidArgument, "bad free request");
  }
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return Status(ErrorCode::kNotFound, "region '" + name + "' not found");
  }
  // Return every copy's slabs to their (still-leased) servers, bytes
  // intact: they are zeroed when handed out again.
  for (const SlabLocation& slab : it->second.desc.slabs) GiveBack(slab);
  for (const auto& replica : it->second.desc.replicas) {
    for (const SlabLocation& slab : replica) GiveBack(slab);
  }
  if (check::Checker* ck = device_.network().sim().checker(); ck != nullptr) {
    ck->OnRegionFree(it->second.desc.id);
  }
  regions_.erase(it);
  resp.Bool(true);
  return Status::Ok();
}

Status Master::HandleStat(rpc::Reader& req, rpc::Writer& resp) {
  (void)req;
  ClusterStat stat;
  for (const auto& [node, s] : servers_) {
    if (!s.alive) continue;
    ++stat.live_servers;
    const uint64_t slabs = s.capacity / options_.slab_size;
    stat.total_bytes += slabs * options_.slab_size;
    stat.free_bytes += s.free_slabs.size() * options_.slab_size;
  }
  stat.regions = static_cast<uint32_t>(regions_.size());
  stat.Encode(resp);
  return Status::Ok();
}

Status Master::HandleListRegions(rpc::Reader& req, rpc::Writer& resp) {
  (void)req;
  resp.U32(static_cast<uint32_t>(regions_.size()));
  for (const auto& [name, region] : regions_) {
    resp.Str(name);
    resp.U64(region.desc.size);
    resp.Bool(region.degraded);
  }
  return Status::Ok();
}


// Appends slabs to an existing region so it covers `new_size` bytes.
// Only unreplicated regions can grow (the replica placement invariants
// would otherwise need a rebalance pass). Existing data is untouched;
// clients observe the growth at their next fresh rmap.
Status Master::HandleGrow(rpc::Reader& req, rpc::Writer& resp) {
  std::string name;
  uint64_t new_size = 0;
  if (!req.Str(&name) || !req.U64(&new_size) || new_size == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad grow request");
  }
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return Status(ErrorCode::kNotFound, "region '" + name + "' not found");
  }
  RegionDesc& desc = it->second.desc;
  if (desc.copies > 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "replicated regions cannot grow");
  }
  if (new_size < desc.size) {
    return Status(ErrorCode::kInvalidArgument,
                  "grow cannot shrink a region");
  }
  const uint64_t want_slabs =
      (new_size + options_.slab_size - 1) / options_.slab_size;
  const uint64_t have_slabs = desc.slabs.size();
  const uint64_t add = want_slabs > have_slabs ? want_slabs - have_slabs : 0;
  sim::ChargeCpu(add * options_.alloc_per_slab_cost);

  std::vector<ServerInfo*> ranked;
  for (auto& [node, server] : servers_) {
    if (server.alive && !server.free_slabs.empty()) ranked.push_back(&server);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ServerInfo* a, const ServerInfo* b) {
              if (a->free_slabs.size() != b->free_slabs.size()) {
                return a->free_slabs.size() > b->free_slabs.size();
              }
              return a->node < b->node;
            });
  uint64_t available = 0;
  for (const ServerInfo* s : ranked) available += s->free_slabs.size();
  if (available < add) {
    return Status(ErrorCode::kOutOfMemory,
                  "need " + std::to_string(add) + " more slabs, have " +
                      std::to_string(available));
  }
  check::Checker* ck = device_.network().sim().checker();
  if (ck != nullptr) {
    // Grow races are judged before the new slabs exist: any data-path op
    // still in flight against the region overlaps the metadata change.
    ck->OnRegionGrow(desc.id, device_.node_id());
  }
  std::vector<SlabLocation> added, recycled;
  size_t cursor = 0;
  for (uint64_t i = 0; i < add; ++i) {
    for (size_t probes = 0; probes <= ranked.size(); ++probes) {
      ServerInfo* s = ranked[cursor % ranked.size()];
      ++cursor;
      if (s->free_slabs.empty()) continue;
      added.push_back(TakeSlab(*s, recycled));
      break;
    }
  }
  if (ck != nullptr) {
    for (uint64_t i = 0; i < added.size(); ++i) {
      ck->OnRegionSlab(desc.id, name, options_.slab_size,
                       added[i].server_node, added[i].remote_addr,
                       added[i].remote_addr + options_.slab_size,
                       (have_slabs + i) * options_.slab_size);
    }
  }
  RegionDesc* grown = &desc;
  if (!recycled.empty()) {
    // The scrub blocks: the region may be freed (or replaced) meanwhile.
    const uint64_t id = desc.id;
    Status st = Scrub(recycled);
    it = regions_.find(name);
    if (st.ok() && (it == regions_.end() || it->second.desc.id != id)) {
      st = Status(ErrorCode::kNotFound, "region '" + name + "' was freed");
    }
    if (!st.ok()) {
      for (const SlabLocation& slab : added) GiveBack(slab);
      return st;
    }
    grown = &it->second.desc;
  }
  grown->slabs.insert(grown->slabs.end(), added.begin(), added.end());
  grown->size = std::max(grown->size, new_size);
  grown->Encode(resp);
  return Status::Ok();
}

// ------------------------------------------------------------------ scrub
SlabLocation Master::TakeSlab(ServerInfo& s,
                              std::vector<SlabLocation>& recycled) {
  const uint32_t idx = s.free_slabs.back();
  s.free_slabs.pop_back();
  const SlabLocation slab{s.node, s.base_addr + idx * options_.slab_size,
                          s.rkey};
  if (s.handed_out[idx]) recycled.push_back(slab);
  s.handed_out[idx] = true;
  return slab;
}

void Master::GiveBack(const SlabLocation& slab) {
  auto sit = servers_.find(slab.server_node);
  if (sit == servers_.end() || !sit->second.alive ||
      sit->second.rkey != slab.rkey) {
    return;  // server gone or re-registered: its slabs were reclaimed
  }
  sit->second.free_slabs.push_back(static_cast<uint32_t>(
      (slab.remote_addr - sit->second.base_addr) / options_.slab_size));
}

Status Master::Scrub(const std::vector<SlabLocation>& slabs) {
  // One WRITE zeroes up to kChunk bytes; at most kWindow writes are in
  // flight, well inside a QP's send queue.
  constexpr uint64_t kChunk = 1ULL << 20;
  constexpr uint32_t kWindow = 256;
  scrub_idle_.WaitUntil([this] { return !scrub_busy_; });
  scrub_busy_ = true;
  const uint64_t chunk = std::min(kChunk, options_.slab_size);
  Status result;
  uint32_t outstanding = 0;
  std::vector<verbs::WorkCompletion> wcs;
  auto drain = [&] {
    while (outstanding > 0) {
      wcs.clear();
      scrub_cq_->WaitPollInto(wcs, outstanding);
      for (const verbs::WorkCompletion& wc : wcs) {
        --outstanding;
        if (!wc.ok() && result.ok()) {
          result = Status(ErrorCode::kUnavailable,
                          "scrubbing a recycled slab failed");
        }
      }
    }
  };
  if (scrub_mr_ == nullptr) {
    scrub_cq_ = &device_.CreateCq();
    scrub_zeros_ = std::make_unique<std::byte[]>(chunk);  // zero-filled
    auto mr = device_.CreatePd().RegisterMemory(scrub_zeros_.get(), chunk, 0);
    if (mr.ok()) {
      scrub_mr_ = *mr;
    } else {
      result = mr.status();
    }
  }
  for (size_t i = 0; i < slabs.size() && result.ok(); ++i) {
    const SlabLocation& slab = slabs[i];
    auto qit = scrub_qps_.find(slab.server_node);
    if (qit == scrub_qps_.end()) {
      auto qp = device_.network().Connect(device_, slab.server_node,
                                          kDataService, {}, scrub_cq_,
                                          nullptr);
      if (!qp.ok()) {
        result = qp.status();
        break;
      }
      qit = scrub_qps_.emplace(slab.server_node, *qp).first;
    }
    for (uint64_t off = 0; off < options_.slab_size && result.ok();
         off += chunk) {
      verbs::SendWr wr;
      wr.opcode = verbs::Opcode::kRdmaWrite;
      wr.local = {scrub_zeros_.get(),
                  static_cast<uint32_t>(
                      std::min(chunk, options_.slab_size - off)),
                  scrub_mr_->lkey()};
      wr.remote_addr = slab.remote_addr + off;
      wr.rkey = slab.rkey;
      Status post = qit->second->PostSend(wr);
      if (!post.ok()) {
        result = post;
        break;
      }
      if (++outstanding >= kWindow) drain();
    }
  }
  drain();
  if (!result.ok()) {
    // A failed QP is in the error state; reconnect on the next scrub.
    for (auto& [node, qp] : scrub_qps_) qp->Close();
    scrub_qps_.clear();
  }
  scrub_busy_ = false;
  scrub_idle_.NotifyAll();
  return result;
}

// ------------------------------------------------------------ notifications
Master::NotifyChannel& Master::Channel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_
             .emplace(name, std::make_unique<NotifyChannel>(
                                device_.network().sim()))
             .first;
  }
  return *it->second;
}

Status Master::HandleNotifyInc(rpc::Reader& req, rpc::Writer& resp) {
  std::string name;
  uint64_t delta = 0;
  if (!req.Str(&name) || !req.U64(&delta)) {
    return Status(ErrorCode::kInvalidArgument, "bad notify request");
  }
  NotifyChannel& ch = Channel(name);
  ch.value += delta;
  ch.cv.NotifyAll();
  resp.U64(ch.value);
  return Status::Ok();
}

Status Master::HandleWaitNotify(rpc::Reader& req, rpc::Writer& resp) {
  std::string name;
  uint64_t target = 0;
  if (!req.Str(&name) || !req.U64(&target)) {
    return Status(ErrorCode::kInvalidArgument, "bad wait request");
  }
  NotifyChannel& ch = Channel(name);
  // Long poll: blocks this connection's service thread until the channel
  // reaches the target. Each client has its own connection, so other
  // clients' control traffic is unaffected.
  ch.cv.WaitUntil([&] { return ch.value >= target; });
  resp.U64(ch.value);
  return Status::Ok();
}

}  // namespace rstore::core
