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
#include <memory>
#include <span>
#include <string>
#include <string_view>
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
using KvOptions = TableGeometry;

struct KvStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t probe_reads = 0;     // slot reads issued (≥ ops)
  uint64_t version_retries = 0; // SlotOp retries (seqlock conflicts)
};

class KvStore {
 public:
  // Creates a new table in a fresh region named `name`.
  static Result<std::unique_ptr<KvStore>> Create(core::RStoreClient& client,
                                                 const std::string& name,
                                                 KvOptions options = {});
  // Opens an existing table (reads its geometry from the region header).
  static Result<std::unique_ptr<KvStore>> Open(core::RStoreClient& client,
                                               const std::string& name);

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
  // backoffs, and records the op's rlin outcome when the simulation has
  // a LinChecker. `span` (may be null) gets the home slot's server
  // attribution.
  Status Drive(std::string_view key, obs::ObsSpan* span);
  // Issues an IO step in order: pipelined when Pipelines(step), else one
  // MappedRegion call per IO.
  Status IssueStep(const SlotStep& step);
  Status Issue(const SlotIo& io);
  // Whether `step` is two reads or two writes, each inside one slab of
  // the same server: IssuePipelined then posts both back to back on the
  // one connection to it, where RC order keeps them in step order, and
  // waits once.
  [[nodiscard]] bool Pipelines(const SlotStep& step) const;
  Status IssuePipelined(const SlotStep& step);

  core::RStoreClient& client_;
  core::MappedRegion* region_;
  KvOptions options_;
  core::PinnedBuffer scratch_{};  // op_'s slot image and seqlock cells
  SlotOp op_;
  KvStats stats_;
};

}  // namespace rstore::kv
