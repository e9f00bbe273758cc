#include "load/workload.h"

namespace rstore::load {

std::string_view ToString(OpType op) noexcept {
  switch (op) {
    case OpType::kRead: return "read";
    case OpType::kUpdate: return "update";
    case OpType::kInsert: return "insert";
    case OpType::kScan: return "scan";
    case OpType::kReadModifyWrite: return "rmw";
  }
  return "?";
}

WorkloadMix WorkloadMix::Ycsb(char workload) noexcept {
  switch (workload | 0x20) {  // tolower for ASCII letters
    case 'a': return {.read = 0.5, .update = 0.5};
    case 'b': return {.read = 0.95, .update = 0.05};
    case 'd': return {.read = 0.95, .insert = 0.05};
    case 'e': return {.read = 0.0, .insert = 0.05, .scan = 0.95};
    case 'f': return {.read = 0.5, .rmw = 0.5};
    case 'c':
    default: return {.read = 1.0};
  }
}

OpType WorkloadMix::Pick(Rng& rng) const noexcept {
  const double u = rng.NextDouble();
  double acc = read;
  if (u < acc) return OpType::kRead;
  acc += update;
  if (u < acc) return OpType::kUpdate;
  acc += insert;
  if (u < acc) return OpType::kInsert;
  acc += scan;
  if (u < acc) return OpType::kScan;
  return OpType::kReadModifyWrite;
}

}  // namespace rstore::load
