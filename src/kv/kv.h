// RKV: a key-value store built entirely on the RStore memory-like API —
// the kind of client-side data structure the paper's abstract positions
// RStore for ("a DRAM-based data store ... unique memory-like API").
//
// Design (Pilaf/FaRM-flavoured, all client-side): one region holds a
// fixed-size open-addressing hash table with linear probing, so every
// operation is one-sided IO at computable addresses, and each slot is
// guarded by an RDMA seqlock. The protocol is kv::SlotOp (slot_op.h);
// its steps reach the wire through kv::StepIssuer (step_issuer.h), the
// path the load engine's sessions take too. KvStore is one session that
// waits: it stages a step, flushes its own mux (one QP per server,
// connected by the first IO to that server) and blocks until the issuer
// reports the step done. An uncontended GET is one round trip (the slot
// read and its version re-read, chained on one QP); a PUT is three (that
// probe, the CAS with its re-check read, the payload with its release).
// A slot straddling a slab boundary takes one round trip per IO. Clients
// need no master after Rmap, and any number of them on any machines can
// share a table.
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
#include "kv/step_issuer.h"

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
  // Retries go at once while the holder makes progress (slot_op.h); a
  // holder seen at one version on two conflicts in a row costs a 5 µs
  // backoff per retry after that. So a blocking client outwaits a
  // stalled lock holder for ~1023 backoffs of 5 µs (≈ 5 ms, plus the
  // probes between them) before the op fails with kAborted.
  static constexpr SlotOp::Policy kRetryPolicy{1024, SlotOp::kHolderBackoff};

  KvStore(core::RStoreClient& client, core::MappedRegion* region);
  // Binds the issuer (which rejects replicated regions) and op_ to the
  // table, reading `geometry` from the header when it is null.
  Status Init(const KvOptions* geometry);

  // Runs op_ (already started) to completion: runs each IO step through
  // StepIssuer::RoundTrips (failing it after the client's IO timeout),
  // sleeps through backoffs, and records the op's rlin outcome when the
  // simulation has a LinChecker. `span` (may be null) gets the home
  // slot's server attribution.
  Status Drive(std::string_view key, obs::ObsSpan* span);

  core::RStoreClient& client_;
  core::MappedRegion* region_;
  KvOptions options_;
  core::PinnedBuffer scratch_{};  // op_'s slot image and seqlock cells
  StepIssuer issuer_;
  SlotOp op_;
  KvStats stats_;
};

}  // namespace rstore::kv
