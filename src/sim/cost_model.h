// Cost models: how CPU and disk work is charged to the virtual clock.
//
// Node programs perform *real* computation (data really moves, sorts
// really sort, ranks really converge) but real wall-clock time on the host
// machine is meaningless inside the simulation. Instead, each phase charges
// an explicit, documented cost to the virtual clock via sim::Sleep. The
// constants below are single-core figures in the range of the paper's
// 2014-era Xeon testbed; they are configuration, not hidden magic —
// benchmarks print which model they used, and ablations can vary them.
#pragma once

#include <cstdint>

#include "sim/simulation.h"
#include "sim/time.h"

namespace rstore::sim {

struct CpuCostModel {
  // Streaming memory copy bandwidth (single core), bits/s.
  double memcpy_bps = 40e9;  // ~5 GB/s
  // Streaming scan/parse bandwidth (e.g. record parsing), bits/s.
  double scan_bps = 24e9;  // ~3 GB/s
  // Cost of one comparison-and-move step in sorting (ns); total sort cost
  // is n*log2(n)*this.
  double sort_ns_per_cmp = 3.0;
  // Per-edge cost of a vertex-program update (rank accumulate), ns.
  double graph_ns_per_edge = 5.0;
  // Fixed CPU cost to post a verbs work request / poll a completion on
  // the initiator (descriptor write, doorbell, CQE read).
  Nanos verbs_post_ns = 150;
  // Fixed CPU cost for a two-sided message handler on the *server*
  // (interrupt/poll, dispatch, protocol decode) — the cost one-sided
  // operations avoid. RAMCloud-class systems report ~1-2 us total server
  // wire-to-wire; we charge the CPU share.
  Nanos rpc_handler_ns = 1200;
  // Per-byte marshalling cost for two-sided messages (serialize + copy
  // into send buffers), ns per byte.
  double msg_marshal_ns_per_byte = 0.25;
  // Copy bandwidth out of the client-side region cache, bits/s. Hit
  // copies stream out of pages the client touched moments ago (warm in
  // cache/TLB, single stream, no parsing), so they run at hot-copy rather
  // than cold-bulk (memcpy_bps) rate. Cache hits are charged this — never
  // zero — so cached and uncached runs stay comparable.
  double cache_copy_bps = 80e9;  // ~10 GB/s
};

// Convenience cost functions. All return virtual nanoseconds.
[[nodiscard]] Nanos MemcpyCost(const CpuCostModel& m, uint64_t bytes) noexcept;
[[nodiscard]] Nanos ScanCost(const CpuCostModel& m, uint64_t bytes) noexcept;
[[nodiscard]] Nanos SortCost(const CpuCostModel& m, uint64_t items) noexcept;
[[nodiscard]] Nanos MarshalCost(const CpuCostModel& m,
                                uint64_t bytes) noexcept;
[[nodiscard]] Nanos GraphEdgeCost(const CpuCostModel& m,
                                  uint64_t edges) noexcept;
[[nodiscard]] Nanos CacheCopyCost(const CpuCostModel& m,
                                  uint64_t bytes) noexcept;

// Charges `cost` to the calling simulated thread (must run in one).
void ChargeCpu(Nanos cost);

// ---------------------------------------------------------------------------
// SimDisk: a per-node spinning-disk model used by the Hadoop-TeraSort
// baseline (the paper's comparator is disk-bound). Sequential streaming
// bandwidth plus a seek penalty for non-sequential accesses; requests from
// concurrent threads serialize on the spindle.
// ---------------------------------------------------------------------------
struct DiskCostModel {
  double read_bps = 1.2e9;   // 150 MB/s sequential read
  double write_bps = 1.0e9;  // 125 MB/s sequential write
  Nanos seek = Millis(8);
};

class SimDisk {
 public:
  SimDisk(Simulation& sim, DiskCostModel model)
      : sim_(sim), model_(model) {}

  // Blocks the calling thread for the modelled duration of the I/O.
  void Read(uint64_t bytes, bool sequential);
  void Write(uint64_t bytes, bool sequential);

  [[nodiscard]] uint64_t bytes_read() const noexcept { return bytes_read_; }
  [[nodiscard]] uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

 private:
  void DoIo(uint64_t bytes, bool sequential, double bps);

  Simulation& sim_;
  DiskCostModel model_;
  Nanos busy_until_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace rstore::sim
