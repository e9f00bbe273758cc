// RStore master: the control-path authority.
//
// The master owns cluster metadata and nothing else — it is deliberately
// off the data path. It tracks memory servers (registration + heartbeat
// leases), carves their donated DRAM into fixed-size slabs, allocates
// named distributed regions across servers, answers map requests with
// slab location tables, and hosts the notification service applications
// use for cross-client synchronization (BSP barriers, producer/consumer
// handoff).
//
// Allocation policy: slabs for a region are taken from live servers in
// most-free-first order, round-robin across servers so consecutive
// stripes land on different machines — this is what turns N servers into
// N ports of aggregate bandwidth (experiment E3).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"
#include "verbs/verbs.h"

namespace rstore::core {

// How the master places a region's slabs across servers.
enum class PlacementPolicy : uint8_t {
  kStripe,  // round-robin across servers: consecutive slabs on different
            // machines — maximizes aggregate bandwidth (the default, and
            // what the paper's bandwidth numbers rely on)
  kPack,    // fill one server before touching the next — minimizes the
            // number of machines a region touches (fewer QPs, better
            // locality, worse parallel bandwidth)
  kRandom,  // uniform random server per slab (seeded, deterministic)
};

struct MasterOptions {
  // Striping granularity; region allocations are rounded up to slabs.
  uint64_t slab_size = 16ULL << 20;
  PlacementPolicy placement = PlacementPolicy::kStripe;
  // Seed for kRandom placement.
  uint64_t placement_seed = 42;
  // A server missing heartbeats for this long loses its lease and its
  // slabs; regions with slabs there become degraded.
  sim::Nanos lease_timeout = sim::Millis(300);
  // CPU charged per slab when allocating a region: models the per-slab
  // registration/bookkeeping work the control path performs so the data
  // path never has to (drives the E2 separation curve).
  sim::Nanos alloc_per_slab_cost = sim::Micros(2);
  // How often the lease sweeper runs.
  sim::Nanos sweep_interval = sim::Millis(100);
};

class Master {
 public:
  Master(verbs::Device& device, MasterOptions options = {});

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  // Spawns the RPC service and the lease sweeper on the master's node.
  void Start();

  // --- introspection for tests & benches -----------------------------
  [[nodiscard]] uint32_t live_servers() const;
  [[nodiscard]] uint64_t free_slabs() const;
  [[nodiscard]] size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] uint64_t control_calls() const noexcept {
    return rpc_ ? rpc_->calls_served() : 0;
  }
  [[nodiscard]] const MasterOptions& options() const noexcept {
    return options_;
  }

 private:
  struct ServerInfo {
    uint32_t node = 0;
    uint64_t base_addr = 0;
    uint32_t rkey = 0;
    uint64_t capacity = 0;
    sim::Nanos last_heartbeat = 0;
    bool alive = true;
    std::vector<uint32_t> free_slabs;  // slab indices within the arena
    // Set once a slab is first handed to a region; such a slab is scrubbed
    // before it is handed out again. Survives a lease loss and a
    // re-registration under the same rkey (same arena).
    std::vector<bool> handed_out;
  };

  struct RegionInfo {
    RegionDesc desc;
    bool degraded = false;  // a hosting server lost its lease
  };

  struct NotifyChannel {
    explicit NotifyChannel(sim::Simulation& s) : cv(s) {}
    uint64_t value = 0;
    sim::CondVar cv;
  };

  // RPC handlers (run on per-connection master threads).
  Status HandleRegister(rpc::Reader& req, rpc::Writer& resp);
  Status HandleHeartbeat(rpc::Reader& req, rpc::Writer& resp);
  Status HandleAlloc(rpc::Reader& req, rpc::Writer& resp);
  Status HandleMap(rpc::Reader& req, rpc::Writer& resp);
  Status HandleFree(rpc::Reader& req, rpc::Writer& resp);
  Status HandleStat(rpc::Reader& req, rpc::Writer& resp);
  Status HandleNotifyInc(rpc::Reader& req, rpc::Writer& resp);
  Status HandleWaitNotify(rpc::Reader& req, rpc::Writer& resp);
  Status HandleListRegions(rpc::Reader& req, rpc::Writer& resp);
  Status HandleGrow(rpc::Reader& req, rpc::Writer& resp);

  // Takes a free slab of `s`, adding it to `recycled` if it was handed
  // out before.
  SlabLocation TakeSlab(ServerInfo& s, std::vector<SlabLocation>& recycled);
  // Returns a slab to its server's free list (dropped if the server lost
  // its lease or re-registered: its slabs were reclaimed).
  void GiveBack(const SlabLocation& slab);
  // Zeroes `slabs` with one-sided RDMA WRITEs from a registered zero
  // buffer on the master and waits for every write's ack.
  Status Scrub(const std::vector<SlabLocation>& slabs);

  void SweepLeases();
  NotifyChannel& Channel(const std::string& name);
  // True when the slab's server holds a live lease under the slab's rkey.
  [[nodiscard]] bool SlabLive(const SlabLocation& slab) const;

  verbs::Device& device_;
  MasterOptions options_;
  std::unique_ptr<rpc::RpcServer> rpc_;

  std::map<uint32_t, ServerInfo> servers_;  // by node id
  std::map<std::string, RegionInfo> regions_;
  std::unordered_map<std::string, std::unique_ptr<NotifyChannel>> channels_;
  uint64_t next_region_id_ = 1;
  // Scrub path, set up at the first recycled slab: one data QP per memory
  // server on a shared CQ, and a zero buffer of one write's length.
  // Scrubs run one at a time (scrub_busy_), so the CQ holds only the
  // running scrub's completions.
  verbs::CompletionQueue* scrub_cq_ = nullptr;
  verbs::MemoryRegion* scrub_mr_ = nullptr;
  std::unique_ptr<std::byte[]> scrub_zeros_;
  std::map<uint32_t, verbs::QueuePair*> scrub_qps_;  // by server node
  bool scrub_busy_ = false;
  sim::CondVar scrub_idle_;
};

}  // namespace rstore::core
