// Graph representation and deterministic generators for Carafe, the
// distributed graph-processing framework built on RStore (the paper's
// first application study).
//
// Graphs are CSR (offsets + targets). Generators cover the two workload
// shapes graph papers of the period evaluated on: uniform random
// (Erdős–Rényi-flavoured) and scale-free RMAT (Graph500 parameters), both
// a pure function of their seed. Reference single-machine algorithm
// implementations live here too; the distributed engine is validated
// against them bit-for-bit where the algorithm is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace rstore::carafe {

// Compressed sparse row directed graph. Vertices are [0, n); edge targets
// of vertex v are targets[offsets[v] .. offsets[v+1]). Weights are
// optional (empty = unweighted); when present, weights[e] belongs to
// edge targets[e].
struct Graph {
  std::vector<uint64_t> offsets;  // n + 1 entries
  std::vector<uint32_t> targets;  // m entries
  std::vector<uint32_t> weights;  // m entries or empty

  [[nodiscard]] bool weighted() const noexcept { return !weights.empty(); }

  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] uint64_t num_edges() const noexcept {
    return targets.size();
  }
  [[nodiscard]] uint64_t out_degree(uint64_t v) const {
    return offsets[v + 1] - offsets[v];
  }
  [[nodiscard]] std::pair<uint64_t, uint64_t> edge_range(uint64_t v) const {
    return {offsets[v], offsets[v + 1]};
  }
};

// Uniform random directed graph: each of n*avg_degree edges picks an
// independent (src, dst) pair. Self-loops allowed (harmless for the
// algorithms here); duplicates allowed, as in Graph500.
Graph UniformRandomGraph(uint64_t n, double avg_degree, uint64_t seed);

// RMAT (recursive matrix) scale-free generator with Graph500 parameters
// (a=0.57, b=0.19, c=0.19): 2^scale vertices, n*avg_degree edges.
Graph RmatGraph(uint32_t scale, double avg_degree, uint64_t seed);

// The transposed graph (in-edges become out-edges); used by pull-style
// vertex programs. Weights follow their edges.
Graph Transpose(const Graph& g);

// Assigns deterministic pseudo-random weights in [1, max_weight] to every
// edge of `g`.
void AddRandomWeights(Graph& g, uint64_t seed, uint32_t max_weight = 100);

// Adds the reverse of every edge (deduplicated), making the graph
// effectively undirected; used by connected components.
Graph MakeSymmetric(const Graph& g);

// In-edge CSR offsets of `g` (the transpose's offsets, n + 1 entries),
// without building the transpose's edge arrays.
std::vector<uint64_t> InOffsets(const Graph& g);

// --- partitioning --------------------------------------------------------
//
// Worker w of W owns one contiguous vertex range, and the ranges have equal
// *cost*, not equal size: a vertex costs its in-degree plus one, the two
// terms of a superstep's CPU charge (5 ns per in-edge, ~5.3 ns of
// per-vertex scanning). On power-law graphs an equal-count split hands the
// hubs' owner several times the mean work, and every barrier waits for it.

// Quantiles in a cost table; the table holds one entry more.
inline constexpr uint32_t kCostQuantiles = 1024;
using CostTable = std::array<uint64_t, kCostQuantiles + 1>;

// Entry q is the first vertex v whose cost prefix (the vertices and
// in-edges before v) reaches q / kCostQuantiles of the total; entry 0 is 0
// and the last entry is n. `in_offsets` are the n + 1 in-edge CSR offsets.
CostTable CostQuantiles(std::span<const uint64_t> in_offsets);

// The partition decision: W + 1 ascending boundaries, worker w owns
// [bounds[w], bounds[w + 1]) with bounds[w] = table[w * kCostQuantiles / W].
// A range is empty when a hub alone costs more than a worker's share.
std::vector<uint64_t> PartitionBounds(const CostTable& table,
                                      uint32_t workers);

// --- single-machine reference implementations ---------------------------

// Standard damped PageRank, synchronous iterations, uniform init 1/n.
// Dangling mass is redistributed uniformly.
std::vector<double> ReferencePageRank(const Graph& g, uint32_t iterations,
                                      double damping = 0.85);

// Level-synchronous BFS from `source`; unreachable = UINT32_MAX.
std::vector<uint32_t> ReferenceBfs(const Graph& g, uint64_t source);

// Connected components by label propagation on a symmetric graph;
// returns the minimum-vertex-id label of each component.
std::vector<uint64_t> ReferenceComponents(const Graph& g);

// Single-source shortest paths on a weighted graph (Dijkstra);
// unreachable = UINT64_MAX. Unweighted graphs use weight 1 per edge.
std::vector<uint64_t> ReferenceSssp(const Graph& g, uint64_t source);

}  // namespace rstore::carafe
