#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>

namespace rstore::sim {

Nanos MemcpyCost(const CpuCostModel& m, uint64_t bytes) noexcept {
  return TransferTime(bytes, m.memcpy_bps);
}

Nanos ScanCost(const CpuCostModel& m, uint64_t bytes) noexcept {
  return TransferTime(bytes, m.scan_bps);
}

Nanos SortCost(const CpuCostModel& m, uint64_t items) noexcept {
  if (items < 2) return 0;
  const double n = static_cast<double>(items);
  return static_cast<Nanos>(n * std::log2(n) * m.sort_ns_per_cmp);
}

Nanos MarshalCost(const CpuCostModel& m, uint64_t bytes) noexcept {
  return static_cast<Nanos>(static_cast<double>(bytes) *
                            m.msg_marshal_ns_per_byte);
}

Nanos GraphEdgeCost(const CpuCostModel& m, uint64_t edges) noexcept {
  return static_cast<Nanos>(static_cast<double>(edges) * m.graph_ns_per_edge);
}

Nanos CacheCopyCost(const CpuCostModel& m, uint64_t bytes) noexcept {
  return TransferTime(bytes, m.cache_copy_bps);
}

void ChargeCpu(Nanos cost) {
  if (cost > 0) Sleep(cost);
}

void SimDisk::Read(uint64_t bytes, bool sequential) {
  DoIo(bytes, sequential, model_.read_bps);
  bytes_read_ += bytes;
}

void SimDisk::Write(uint64_t bytes, bool sequential) {
  DoIo(bytes, sequential, model_.write_bps);
  bytes_written_ += bytes;
}

void SimDisk::DoIo(uint64_t bytes, bool sequential, double bps) {
  const Nanos now = Now();
  const Nanos start = std::max(now, busy_until_);
  const Nanos service =
      (sequential ? 0 : model_.seek) + TransferTime(bytes, bps);
  busy_until_ = start + service;
  Sleep(busy_until_ - now);  // queueing delay + service time
}

}  // namespace rstore::sim
