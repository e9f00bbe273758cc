// Carafe: BSP graph computation over RStore.
//
// One Worker runs per compute node. Workers never exchange point-to-point
// messages; all cross-worker dataflow goes through shared RStore regions
// (contribution arrays, frontier bitmaps, label arrays) accessed with
// one-sided reads and writes, and supersteps are separated by barriers
// built on the master's notification channels. The graph structure is
// fetched once at Init (each worker pulls exactly its partition), so the
// per-iteration network traffic is only the algorithm's live state —
// this is the "low-latency graph access" the paper credits for Carafe's
// PageRank numbers.
//
// Algorithms: PageRank (pull-style over in-edges, double-buffered
// contributions), level-synchronous BFS (per-worker frontier bitmaps),
// connected components (min-label propagation; expects a symmetric
// graph), and weighted SSSP (synchronous Bellman-Ford). Each validates
// against the single-machine references in graph.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "carafe/graph.h"
#include "carafe/storage.h"
#include "common/status.h"
#include "core/client.h"

namespace rstore::carafe {

struct WorkerConfig {
  uint32_t worker_id = 0;
  uint32_t num_workers = 1;
  // Distinguishes concurrent/successive runs on the same graph (scratch
  // regions and channels are namespaced by it).
  std::string run_tag = "run0";
  // Client-side region caching (cache/region_cache.h): topology regions
  // map kImmutable and double-buffered scratch maps kEpoch, with an
  // epoch bump at the start of every superstep. Workers write disjoint
  // slices between barriers, so the epoch contract holds by
  // construction. Off by default: virtual times are then bit-identical
  // to a build without the cache.
  bool cache = false;
};

struct PageRankOptions {
  uint32_t iterations = 20;
  double damping = 0.85;
};

class Worker {
 public:
  Worker(core::RStoreClient& client, std::string graph_name,
         WorkerConfig config);

  // Maps the graph regions and pulls this worker's partition (vertex
  // range, out-degrees, in-edges, out-edges) into local memory. The range
  // comes from PartitionBounds over the stored cost table (graph.h).
  Status Init();

  // Each returns the *full* result array (every worker assembles it from
  // the shared result region after the final barrier), so callers can
  // validate against the references regardless of which worker they ask.
  Result<std::vector<double>> PageRank(const PageRankOptions& options = {});
  Result<std::vector<uint32_t>> Bfs(uint64_t source);
  Result<std::vector<uint64_t>> Components();
  // Single-source shortest paths (requires a weighted graph); distributed
  // Bellman-Ford over the in-edge lists, one relaxation round per
  // superstep. Unreachable = UINT64_MAX.
  Result<std::vector<uint64_t>> Sssp(uint64_t source);

  [[nodiscard]] uint64_t vertex_lo() const noexcept { return lo_; }
  [[nodiscard]] uint64_t vertex_hi() const noexcept { return hi_; }
  [[nodiscard]] const StoredGraph& graph() const noexcept { return graph_; }

 private:
  // Region/channel names, namespaced by graph and run tag.
  [[nodiscard]] std::string Scratch(const std::string& what) const;
  [[nodiscard]] std::string Chan(const std::string& what,
                                 uint64_t seq) const;

  // Rmap for double-buffered scratch: kEpoch when caching is enabled.
  Result<core::MappedRegion*> MapScratch(const std::string& name);
  // Ralloc that treats kAlreadyExists as success (idempotent across
  // workers racing to create shared scratch).
  Status EnsureRegion(const std::string& name, uint64_t size);
  // Barrier over a notification channel: arrive, then wait for all.
  Status Barrier(const std::string& name, uint64_t seq);
  // Sum-reduce a per-worker uint64 through a pair of channels.
  Result<uint64_t> ReduceSum(const std::string& name, uint64_t seq,
                             uint64_t local_value);

  core::RStoreClient& client_;
  std::string graph_name_;
  WorkerConfig config_;
  StoredGraph graph_;

  uint64_t lo_ = 0, hi_ = 0;           // my vertex range [lo, hi)
  std::vector<uint64_t> out_offsets_;  // (cnt+1), rebased to my range
  std::vector<uint32_t> out_targets_;  // my out-edges
  std::vector<uint64_t> in_offsets_;   // (cnt+1)
  std::vector<uint32_t> in_targets_;   // my in-edges
  std::vector<uint32_t> in_weights_;   // parallel to in_targets_ (weighted)
  bool initialized_ = false;
};

}  // namespace rstore::carafe
