// Graph storage layout on RStore.
//
// A graph named G occupies a family of regions, written once by a loader
// client and thereafter mapped read-only by every compute worker — graph
// *storage* is decoupled from graph *computation*, which is Carafe's
// design point: workers fetch exactly the partitions they need with
// one-sided reads at memory-like latency, and per-iteration state
// (PageRank contributions, BFS frontiers) flows through small shared
// regions instead of point-to-point messages.
//
//   G/meta         u64 n, u64 m (forward), u64 m_in (transpose), u64 weighted,
//                  then the (kCostQuantiles + 1) x u64 cost table that
//                  places every worker's vertex range (graph.h)
//   G/out_offsets  (n+1) x u64     CSR of the forward graph
//   G/out_targets  m x u32
//   G/in_offsets   (n+1) x u64     CSR of the transpose
//   G/in_targets   m x u32
//   G/out_weights  m x u32        (weighted graphs only)
//   G/in_weights   m x u32        (weighted graphs only)
//
// Scratch regions (contribution buffers, frontiers, results) are created
// by the engine per run.
#pragma once

#include <string>

#include "carafe/graph.h"
#include "common/status.h"
#include "core/client.h"

namespace rstore::carafe {

struct StoredGraph {
  std::string name;
  uint64_t n = 0;
  uint64_t m = 0;
  bool weighted = false;
  CostTable cost_quantiles{};
};

// Region names for a stored graph.
struct GraphRegions {
  static std::string Meta(const std::string& g) { return g + "/meta"; }
  static std::string OutOffsets(const std::string& g) {
    return g + "/out_offsets";
  }
  static std::string OutTargets(const std::string& g) {
    return g + "/out_targets";
  }
  static std::string InOffsets(const std::string& g) {
    return g + "/in_offsets";
  }
  static std::string InTargets(const std::string& g) {
    return g + "/in_targets";
  }
  static std::string OutWeights(const std::string& g) {
    return g + "/out_weights";
  }
  static std::string InWeights(const std::string& g) {
    return g + "/in_weights";
  }
};

// Allocates the region family and uploads the graph (and its transpose)
// through `client`. The caller's graph stays untouched.
Status UploadGraph(core::RStoreClient& client, const std::string& name,
                   const Graph& graph);

// Reads the metadata and cost table of a previously uploaded graph (one
// read of G/meta).
Result<StoredGraph> OpenGraph(core::RStoreClient& client,
                              const std::string& name);

// Frees every region of the family.
Status DropGraph(core::RStoreClient& client, const std::string& name);

}  // namespace rstore::carafe
