// RKV: a key-value store built entirely on the RStore memory-like API —
// the kind of client-side data structure the paper's abstract positions
// RStore for ("a DRAM-based data store ... unique memory-like API").
//
// Design (Pilaf/FaRM-flavoured, all client-side):
//   * one RStore region holds a fixed-size open-addressing hash table;
//     slot i lives at a fixed byte offset, so every operation translates
//     to one-sided IO against computable addresses;
//   * each slot is guarded by an RDMA seqlock: an 8-byte version word
//     that writers take odd via remote compare-and-swap and release even
//     (+2) after the payload write. Readers validate that the version
//     was even and unchanged around the payload read, so torn reads
//     retry instead of returning garbage;
//   * collisions use linear probing with tombstones; an all-zero slot
//     terminates a probe chain.
//
// Every client maps the region once and then operates with no master
// involvement. The seqlock protocol itself is kv::SlotOp (slot_op.h);
// KvStore is its blocking driver. An uncontended GET is one round trip
// (a slot read and a version re-read, posted back to back on the one
// connection to the slot's server). A PUT is four: that probe, the
// CAS, the re-check read, and the payload and release writes, again
// posted back to back. The CAS step stays one call per IO, since
// MappedRegion::CompareSwap blocks, and so does a step whose slot
// straddles a slab boundary.
// Multiple clients on multiple machines can operate concurrently on the
// same table.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/client.h"
#include "kv/slot_op.h"

namespace rstore::obs {
class ObsSpan;
}  // namespace rstore::obs

namespace rstore::kv {

// The table format and the geometry type live with the protocol in
// slot_op.h, so other dataplanes (the load engine in src/load, the bulk
// loader) speak exactly the bytes KvStore reads and writes.
struct KvOptions : TableGeometry {
  // Client-local slot cache (0 = off; not part of the table geometry).
  // A cached slot is validated on every hit with one 8-byte remote read
  // of its seqlock word: version unchanged and even means the cached
  // payload is byte-identical to the remote slot, so a hot GET costs one
  // tiny read instead of a slot-sized read plus a validate read — and
  // linearizability is untouched because the validate is exactly the
  // seqlock check an uncached read performs.
  uint32_t cache_slots = 0;
};

struct KvStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t probe_reads = 0;     // slot reads issued (≥ ops)
  uint64_t version_retries = 0; // SlotOp retries (seqlock conflicts)
  uint64_t cache_hits = 0;      // slot reads served locally (validated)
  uint64_t cache_misses = 0;    // lookups that fell back to a full read
  uint64_t cache_invalidations = 0;  // entries dropped (delete/stale)
};

class KvStore {
 public:
  // Creates a new table in a fresh region named `name`.
  static Result<std::unique_ptr<KvStore>> Create(core::RStoreClient& client,
                                                 const std::string& name,
                                                 KvOptions options = {});
  // Opens an existing table (reads its header from the region).
  // `cache_slots` is this client's local slot-cache size; the table
  // geometry always comes from the header.
  static Result<std::unique_ptr<KvStore>> Open(core::RStoreClient& client,
                                               const std::string& name,
                                               uint32_t cache_slots = 0);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Returns the value, or kNotFound.
  Result<std::vector<std::byte>> Get(std::string_view key);
  // Inserts or overwrites. Fails with kOutOfMemory when the probe window
  // is full, kInvalidArgument when key+value exceed the slot.
  Status Put(std::string_view key, std::span<const std::byte> value);
  Status Put(std::string_view key, std::string_view value) {
    return Put(key, std::span<const std::byte>(
                        reinterpret_cast<const std::byte*>(value.data()),
                        value.size()));
  }
  // Removes the key; kNotFound if absent.
  Status Delete(std::string_view key);

  [[nodiscard]] const KvStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const KvOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] uint32_t max_value_bytes() const noexcept {
    return options_.slot_bytes - kSlotHeader;
  }
  // The table's region, as mapped by Create/Open.
  [[nodiscard]] core::MappedRegion& region() const noexcept {
    return *region_;
  }

 private:
  static constexpr uint32_t kSlotHeader = SlotLayout::kSlotHeader;
  // A blocking client outwaits a lock holder for ~1024 backoffs of 5 µs
  // (plus the probes between them) before the op fails with kAborted.
  static constexpr SlotOp::Policy kRetryPolicy{1024, sim::Micros(5)};

  KvStore(core::RStoreClient& client, core::MappedRegion* region,
          KvOptions options);
  // Wraps a mapped table: allocates the op scratch and binds op_.
  static Result<std::unique_ptr<KvStore>> Make(core::RStoreClient& client,
                                               core::MappedRegion* region,
                                               KvOptions options);

  // Runs op_ (already started) to completion: issues each IO step as
  // MappedRegion calls under its lane's rcheck scope, sleeps through
  // backoffs, serves probes from the slot cache, and records the op's
  // rlin outcome when the simulation has a LinChecker. `span` (may be
  // null) gets the home slot's server attribution.
  Status Drive(std::string_view key, obs::ObsSpan* span);
  // Issues an IO step in order; a probe may be served from (and fills)
  // the slot cache instead.
  Status IssueStep(const SlotStep& step);
  Status Issue(const SlotIo& io);
  // Whether `step` is two reads or two writes, each inside one slab of
  // the same server: IssuePipelined then posts both back to back on the
  // one connection to it, where RC order keeps them in step order, and
  // waits once.
  [[nodiscard]] bool Pipelines(const SlotStep& step) const;
  Status IssuePipelined(const SlotStep& step);
  // Serves a probe step from the slot cache: one 8-byte validate read
  // instead of slot read + re-read. Returns whether it was served.
  Result<bool> ProbeCached(const SlotStep& step);

  // Slot-cache bookkeeping (only active when options_.cache_slots > 0).
  struct CachedSlot {
    uint64_t version = 0;
    std::vector<std::byte> bytes;  // full slot image at `version`
    std::list<uint64_t>::iterator lru;
  };
  // Upserts the cache entry for `slot` (LRU-evicting at capacity).
  void CacheStore(uint64_t slot, uint64_t version, const std::byte* bytes);
  void CacheErase(uint64_t slot);

  core::RStoreClient& client_;
  core::MappedRegion* region_;
  KvOptions options_;
  core::PinnedBuffer scratch_{};  // op_'s slot image and seqlock cells
  SlotOp op_;
  std::unordered_map<uint64_t, CachedSlot> slot_cache_;
  std::list<uint64_t> slot_lru_;  // front = most recently used
  KvStats stats_;
};

}  // namespace rstore::kv
