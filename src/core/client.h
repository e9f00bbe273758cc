// RStore client: the memory-like API.
//
// The client embodies the paper's separation philosophy:
//
//   control path (through the master, milliseconds, infrequent):
//     Ralloc(name, size, copies)  create a named (optionally replicated)
//                                 distributed region
//     Rmap(name)               fetch its slab table; cached thereafter
//     Rgrow(name, new_size)    extend a region in place
//     Rfree(name)              tear it down
//     RegisterBuffer(...)      pin local IO buffers (verbs registration)
//     NotifyInc / WaitNotify   cross-client synchronization
//
//   data path (one-sided RDMA to memory servers, microseconds, hot):
//     MappedRegion::Read / Write          sync, any offset/length
//     MappedRegion::ReadAsync/WriteAsync  overlapped, IoFuture to wait
//     MappedRegion::ReadV / WriteV        vectored scatter/gather
//     MappedRegion::FetchAdd/CompareSwap  8-byte remote atomics
//
// After Rmap returns, a read or write never contacts the master: the
// client splits the byte range over the slab table, posts one-sided
// verbs to each memory server involved (connections are created lazily
// and cached), and waits for completions. No server CPU runs on its
// behalf — that is what "direct access" means.
//
// Local buffers used for IO must lie inside a region previously pinned
// with RegisterBuffer (or obtained from AllocBuffer); this mirrors real
// RDMA, where unregistered memory cannot be DMA'd.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/region_cache.h"
#include "common/huge_buffer.h"
#include "common/status.h"
#include "core/types.h"
#include "rpc/rpc.h"
#include "verbs/verbs.h"

namespace rstore::obs {
class Counter;
class Telemetry;
}  // namespace rstore::obs

namespace rstore::core {

class RStoreClient;

struct ClientOptions {
  // Control-path RPC sizing and timeout (WaitNotify long-polls, so this
  // bounds the longest barrier an application may wait on).
  sim::Nanos control_timeout = sim::Seconds(600);
  // Data-path IO deadline.
  sim::Nanos io_timeout = sim::Seconds(60);
  // Region-cache sizing (see cache/region_cache.h). The cache itself is
  // built lazily, the first time a region is mapped with a CacheMode
  // other than kNone; until then these are inert.
  cache::CacheConfig cache;
};

// Per-Rmap knobs. The cache mode is a property of *this client's* mapping
// of the region, chosen here because map time is when the application
// knows what the region holds (write-once topology vs. mutable scratch).
struct RmapOptions {
  bool allow_degraded = false;
  bool fresh = false;
  cache::CacheMode cache_mode = cache::CacheMode::kNone;
};

// Completion handle for asynchronous IO. Wait() is idempotent; the
// future may outlive the client call scope (shared state) but not the
// client itself.
class IoFuture {
 public:
  IoFuture() = default;
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  // Blocks until every fragment of the IO completed; returns the first
  // error if any fragment failed.
  [[nodiscard]] Status Wait();

 private:
  friend class RStoreClient;
  struct State;
  explicit IoFuture(std::shared_ptr<State> state, RStoreClient* client)
      : state_(std::move(state)), client_(client) {}
  std::shared_ptr<State> state_;
  RStoreClient* client_ = nullptr;
};

// One segment of a vectored IO: `length` bytes at region offset `offset`
// moving to/from `local`.
struct IoVec {
  uint64_t offset = 0;
  std::byte* local = nullptr;
  uint64_t length = 0;
};

// The one-sided target of a contiguous region range: everything needed to
// post a verbs WR at it directly (see MappedRegion::Resolve).
struct RemoteSpan {
  uint32_t server_node = 0;
  uint32_t rkey = 0;
  uint64_t remote_addr = 0;
};

// A mapped distributed region. Obtained from RStoreClient::Rmap; owned by
// the client (pointers stay valid until Runmap/Rfree or client teardown).
class MappedRegion {
 public:
  [[nodiscard]] const RegionDesc& desc() const noexcept { return desc_; }
  [[nodiscard]] uint64_t size() const noexcept { return desc_.size; }
  [[nodiscard]] const std::string& name() const noexcept {
    return desc_.name;
  }

  // Synchronous byte-granular IO at any offset.
  [[nodiscard]] Status Read(uint64_t offset, std::span<std::byte> dst);
  [[nodiscard]] Status Write(uint64_t offset, std::span<const std::byte> src);

  // Overlapped IO: returns once the work is posted.
  [[nodiscard]] Result<IoFuture> ReadAsync(uint64_t offset,
                                         std::span<std::byte> dst);
  [[nodiscard]] Result<IoFuture> WriteAsync(uint64_t offset,
                                          std::span<const std::byte> src);

  // Vectored IO: every segment posted at once, one future for the lot —
  // the natural shape for scattered accesses (slot tables, per-worker
  // slices) where per-segment round trips would dominate.
  [[nodiscard]] Result<IoFuture> ReadV(std::span<const IoVec> segments);
  [[nodiscard]] Result<IoFuture> WriteV(std::span<const IoVec> segments);

  // Resolves a byte range that lies entirely inside one slab to its
  // one-sided target (primary copy). This is the escape hatch for
  // dataplanes that manage their own QPs — the session multiplexer in
  // src/load posts raw verbs against the returned span — and fails with
  // kInvalidArgument when the range crosses a slab boundary or falls
  // outside the region.
  [[nodiscard]] Result<RemoteSpan> Resolve(uint64_t offset,
                                           uint64_t length) const;

  // Remote 8-byte atomics (offset must be 8-aligned). Return the value
  // observed at the memory server before the operation.
  [[nodiscard]] Result<uint64_t> FetchAdd(uint64_t offset, uint64_t delta);
  [[nodiscard]] Result<uint64_t> CompareSwap(uint64_t offset,
                                             uint64_t expected,
                                             uint64_t desired);

  // ---------------- client-side caching --------------------------------
  // Mode chosen at Rmap time (RmapOptions::cache_mode). kNone = every
  // read goes remote (the default and today's behavior).
  [[nodiscard]] cache::CacheMode cache_mode() const noexcept {
    return cache_mode_;
  }
  // Epoch-mode invalidation: O(1) — advances this mapping's epoch so
  // every cached page of the region becomes a miss. Call at barriers
  // (before the local writes of the new epoch, so write-throughs are
  // stamped fresh). Harmless no-op on uncached mappings.
  void BumpEpoch() noexcept;
  [[nodiscard]] uint64_t cache_epoch() const noexcept { return cache_epoch_; }

 private:
  friend class RStoreClient;
  MappedRegion(RStoreClient& client, RegionDesc desc)
      : client_(client), desc_(std::move(desc)) {}

  RStoreClient& client_;
  RegionDesc desc_;
  cache::CacheMode cache_mode_ = cache::CacheMode::kNone;
  uint64_t cache_epoch_ = 0;
};

// A registered local buffer owned by the client (AllocBuffer).
struct PinnedBuffer {
  std::span<std::byte> data;
  uint32_t lkey = 0;  // for raw verbs posts (see kv::StepIssuer)

  [[nodiscard]] std::byte* begin() const noexcept { return data.data(); }
  [[nodiscard]] size_t size() const noexcept { return data.size(); }
};

class RStoreClient {
 public:
  // Connects the control path to the master; blocks the calling thread.
  [[nodiscard]] static Result<std::unique_ptr<RStoreClient>> Connect(
      verbs::Device& device, uint32_t master_node, ClientOptions options = {});

  ~RStoreClient();
  RStoreClient(const RStoreClient&) = delete;
  RStoreClient& operator=(const RStoreClient&) = delete;

  // ---------------- control path --------------------------------------
  // Allocates a named region. `copies` > 1 replicates every slab on that
  // many distinct servers: writes fan out to all copies; reads hit the
  // primary, and the master promotes a live replica to primary at map
  // time when servers fail (see Rmap(fresh) for recovery).
  //
  // A new region reads as zeros. A slab's first region gets it zeroed
  // from the arena's allocation. A slab freed by Rfree keeps its bytes
  // until the master hands it out again; then, before Ralloc (or Rgrow)
  // replies, the master zeroes it with one-sided RDMA WRITEs from a zero
  // buffer of its own and waits for their acks. The scrub is real fabric
  // traffic charged to the allocation, not a host write into the
  // server's memory.
  [[nodiscard]] Status Ralloc(const std::string& name, uint64_t size,
                              uint32_t copies = 1);
  // Cached after the first call; `fresh` forces a master round trip
  // (used to pick up healed/re-located regions).
  [[nodiscard]] Result<MappedRegion*> Rmap(const std::string& name,
                                           bool allow_degraded = false,
                                           bool fresh = false);
  // Full-option variant; chooses the mapping's cache mode. Remapping an
  // already-mapped region with a different mode applies the new mode and
  // drops any pages cached under the old one.
  [[nodiscard]] Result<MappedRegion*> Rmap(const std::string& name,
                                           const RmapOptions& options);
  // Grows an (unreplicated) region to `new_size` bytes in place; existing
  // data is untouched. The local mapping is refreshed on success; other
  // clients pick the growth up at their next fresh Rmap.
  [[nodiscard]] Status Rgrow(const std::string& name, uint64_t new_size);
  // Drops the local mapping (cache entry); remote region unaffected.
  [[nodiscard]] Status Runmap(const std::string& name);
  // Frees the region cluster-wide (and unmaps locally).
  [[nodiscard]] Status Rfree(const std::string& name);
  [[nodiscard]] Result<ClusterStat> Stat();

  // Pins an application buffer for one-sided IO. Registration is a
  // control-path operation: do it at setup, not per IO. Re-registering a
  // range that overlaps a previous registration evicts the old one (the
  // old buffer was necessarily freed; allocators reuse addresses).
  [[nodiscard]] Status RegisterBuffer(std::span<std::byte> buffer);
  // Unpins a buffer previously passed to RegisterBuffer (same start).
  [[nodiscard]] Status UnregisterBuffer(std::span<std::byte> buffer);
  // Allocates and pins a buffer owned by the client.
  [[nodiscard]] Result<PinnedBuffer> AllocBuffer(size_t bytes);

  // ---------------- synchronization ------------------------------------
  // Named monotonic counters hosted by the master.
  [[nodiscard]] Status NotifyInc(const std::string& channel,
                                 uint64_t delta = 1);
  // Blocks until the channel value reaches `target`; returns the value.
  [[nodiscard]] Result<uint64_t> WaitNotify(const std::string& channel,
                                            uint64_t target);

  [[nodiscard]] const ClientOptions& options() const noexcept {
    return options_;
  }

  // ---------------- statistics ----------------------------------------
  [[nodiscard]] uint64_t bytes_read() const noexcept { return bytes_read_; }
  [[nodiscard]] uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] uint64_t data_ops() const noexcept { return data_ops_; }
  [[nodiscard]] uint64_t control_calls() const noexcept {
    return control_calls_;
  }
  [[nodiscard]] uint64_t map_cache_hits() const noexcept {
    return map_cache_hits_;
  }
  // Region-cache counters (all-zero until a region maps with caching).
  [[nodiscard]] const cache::CacheStats& cache_stats() const noexcept;

  [[nodiscard]] verbs::Device& device() noexcept { return device_; }

 private:
  friend class MappedRegion;
  friend class IoFuture;

  struct Connection {
    verbs::QueuePair* qp = nullptr;
    bool healthy = false;
  };

  // One slab-resolved piece of a logical IO, before coalescing.
  struct Fragment {
    uint32_t server_node;
    uint32_t rkey;
    uint64_t remote_addr;
    std::byte* local;
    uint64_t length;
    uint32_t lkey;
  };

  RStoreClient(verbs::Device& device, uint32_t master_node,
               ClientOptions options);

  // Data-path engine. A logical IO (one SubmitIo / SubmitVector call)
  // resolves to fragments, which are coalesced into multi-SGE work
  // requests and posted as one doorbell chain per memory server. All WRs
  // of the IO share one wr_id (the state's io_id).
  Result<IoFuture> SubmitIo(const RegionDesc& desc, uint64_t offset,
                            std::byte* buffer, uint64_t length, bool is_read);
  Result<IoFuture> SubmitVector(const RegionDesc& desc,
                                std::span<const IoVec> segments,
                                bool is_read);
  // Splits one byte range over the slab table into `out` (primary copy
  // first, then replicas when writing).
  Status CollectFragments(const RegionDesc& desc, uint64_t offset,
                          std::byte* buffer, uint64_t length, bool is_read,
                          std::vector<Fragment>& out);
  // Coalesces `frags` (merging slab-adjacent ranges into multi-SGE WRs)
  // and posts one chained doorbell per server involved.
  Status PostCoalesced(const std::shared_ptr<IoFuture::State>& state,
                       std::span<const Fragment> frags, bool is_read);
  Status PostChain(Connection* conn,
                   const std::shared_ptr<IoFuture::State>& state,
                   const verbs::SendWr& head, uint32_t count);
  // Marks the IO fully posted and reaps it if completions already drained.
  void SealIo(const std::shared_ptr<IoFuture::State>& state);
  Result<uint64_t> SubmitAtomic(MappedRegion& region, uint64_t offset,
                                verbs::Opcode op, uint64_t compare,
                                uint64_t swap_or_add);
  // Read-through cache path (region.cache_mode() != kNone): serves hits
  // from cache frames, batches page fills and bypass runs into one
  // vectored read, and charges modeled copy cost for every locally
  // copied byte. Used by MappedRegion::Read and ReadV.
  Status CachedRead(MappedRegion& region, std::span<const IoVec> segments);
  // Write-through local update for cached mappings (before the remote
  // write is posted); charges copy cost for bytes applied.
  void CacheApplyWrite(MappedRegion& region, uint64_t offset,
                       std::span<const std::byte> src);
  // Lazily constructs the region cache (arena allocation + registration).
  cache::RegionCache* EnsureCache();
  // An already-completed future, for vectored reads served by the cache.
  IoFuture CompletedFuture();
  // Drops cached pages of a region id (grow/unmap/free/mode change).
  // `mode` is the mode the pages were cached under, when the caller
  // knows it — used only to attribute the invalidation in telemetry.
  void DropCachedRegion(uint64_t region_id,
                        cache::CacheMode mode = cache::CacheMode::kNone);
  Result<Connection*> ConnectionTo(uint32_t server_node);
  // Finds the registration covering [addr, addr+len); null if none.
  [[nodiscard]] verbs::MemoryRegion* FindPinned(const std::byte* addr,
                                                uint64_t len) const;
  // Drains ready data-path completions into the pending-IO table,
  // blocking until at least `min_entries` are ready (or timeout).
  void PumpData(sim::Nanos timeout, size_t min_entries = 1);
  Status WaitFuture(const std::shared_ptr<IoFuture::State>& state);

  Result<std::vector<std::byte>> CallMaster(uint32_t method,
                                            const rpc::Writer& req);

  verbs::Device& device_;
  uint32_t master_node_;
  ClientOptions options_;

  std::unique_ptr<rpc::RpcClient> master_;
  verbs::ProtectionDomain* pd_ = nullptr;
  verbs::CompletionQueue* data_cq_ = nullptr;

  std::map<std::string, std::unique_ptr<MappedRegion>> mappings_;
  std::map<uint32_t, Connection> connections_;  // by server node
  // Pinned local buffers, keyed by start address for range lookup.
  std::map<uintptr_t, verbs::MemoryRegion*> pinned_;
  // Huge-page backed (see common/huge_buffer.h): these are the client's
  // DMA staging areas, typically many megabytes each.
  std::vector<common::HugeBuffer> owned_buffers_;

  // Last-hit caches: IO fragment streams hit the same server and the
  // same pinned buffer run after run, so remember the previous answer
  // before searching the maps (map entries are address-stable).
  uint32_t last_conn_node_ = UINT32_MAX;
  Connection* last_conn_ = nullptr;
  mutable verbs::MemoryRegion* last_pinned_ = nullptr;

  // Reusable data-path scratch. Moved out while in use and moved back
  // after, so a second thread entering the data path while the first is
  // blocked in PumpData transparently falls back to fresh vectors.
  std::vector<Fragment> frag_scratch_;
  std::vector<verbs::SendWr> wr_scratch_;
  std::vector<uint32_t> wr_server_scratch_;
  std::vector<verbs::WorkCompletion> wc_scratch_;

  // Scratch slots for atomic results (registered, 8 bytes each).
  std::vector<std::byte> atomic_arena_;
  verbs::MemoryRegion* atomic_mr_ = nullptr;
  std::vector<uint32_t> free_atomic_slots_;

  std::unordered_map<uint64_t, std::shared_ptr<IoFuture::State>> pending_io_;
  uint64_t next_wr_id_ = 1;
  bool pumping_ = false;

  // Client-side region cache (see cache/region_cache.h). Null until the
  // first Rmap with a cache mode; arenas come from owned_buffers_ via
  // AllocBuffer so fills DMA into registered memory.
  std::unique_ptr<cache::RegionCache> cache_;
  // Scratch for CachedRead (same move-out discipline as frag_scratch_).
  std::vector<IoVec> cache_io_scratch_;

  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t data_ops_ = 0;
  uint64_t control_calls_ = 0;
  uint64_t map_cache_hits_ = 0;

  // Telemetry instruments (see obs/trace.h), resolved lazily against the
  // simulation's attached obs::Telemetry. All pointers are null while
  // detached, so the instrumented paths cost one pointer compare. The
  // fabric.* counters alias the fabric's own instruments for this node
  // (same registry names) and feed the per-span latency breakdown.
  obs::Telemetry* ObsTelemetry();
  struct CacheModeObs {
    obs::Telemetry* owner = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* fills = nullptr;
    obs::Counter* bypass = nullptr;
    obs::Counter* invalidations = nullptr;
  };
  CacheModeObs& ObsForCacheMode(cache::CacheMode mode);
  obs::Telemetry* obs_owner_ = nullptr;
  obs::Counter* obs_ops_ = nullptr;
  obs::Counter* obs_bytes_read_ = nullptr;
  obs::Counter* obs_bytes_written_ = nullptr;
  obs::Counter* obs_fab_queue_ = nullptr;
  obs::Counter* obs_fab_ser_ = nullptr;
  obs::Counter* obs_fab_wire_ = nullptr;
  // Wire-stamp legs of polled data-path completions (see verbs::WireStamps):
  // NIC egress queueing, wire propagation, remote execution, ack return.
  obs::Counter* obs_wc_egress_ = nullptr;
  obs::Counter* obs_wc_wire_ = nullptr;
  obs::Counter* obs_wc_server_ = nullptr;
  obs::Counter* obs_wc_ack_ = nullptr;
  CacheModeObs cache_obs_[3];  // indexed by cache::CacheMode
};

}  // namespace rstore::core
