#include "carafe/graph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <limits>
#include <numeric>

namespace rstore::carafe {
namespace {

// Builds CSR from an edge list (counting sort by source).
Graph FromEdges(uint64_t n, std::vector<std::pair<uint32_t, uint32_t>> edges) {
  Graph g;
  g.offsets.assign(n + 1, 0);
  for (const auto& [src, dst] : edges) g.offsets[src + 1]++;
  for (uint64_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.resize(edges.size());
  std::vector<uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [src, dst] : edges) g.targets[cursor[src]++] = dst;
  return g;
}

}  // namespace

Graph UniformRandomGraph(uint64_t n, double avg_degree, uint64_t seed) {
  assert(n > 0 && n <= std::numeric_limits<uint32_t>::max());
  Rng rng(seed);
  const auto m = static_cast<uint64_t>(static_cast<double>(n) * avg_degree);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    edges.emplace_back(static_cast<uint32_t>(rng.NextBelow(n)),
                       static_cast<uint32_t>(rng.NextBelow(n)));
  }
  return FromEdges(n, std::move(edges));
}

Graph RmatGraph(uint32_t scale, double avg_degree, uint64_t seed) {
  assert(scale > 0 && scale < 32);
  const uint64_t n = 1ULL << scale;
  const auto m = static_cast<uint64_t>(static_cast<double>(n) * avg_degree);
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;  // Graph500
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t src = 0, dst = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.NextDouble();
      src <<= 1;
      dst <<= 1;
      if (r < kA) {
        // top-left quadrant: no bits set
      } else if (r < kA + kB) {
        dst |= 1;
      } else if (r < kA + kB + kC) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    edges.emplace_back(static_cast<uint32_t>(src),
                       static_cast<uint32_t>(dst));
  }
  return FromEdges(n, std::move(edges));
}

std::vector<uint64_t> InOffsets(const Graph& g) {
  const uint64_t n = g.num_vertices();
  std::vector<uint64_t> offsets(n + 1, 0);
  for (const uint32_t dst : g.targets) offsets[dst + 1]++;
  for (uint64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return offsets;
}

CostTable CostQuantiles(std::span<const uint64_t> in_offsets) {
  assert(!in_offsets.empty() && in_offsets[0] == 0);
  const uint64_t n = in_offsets.size() - 1;
  // cost(v) = in_degree(v) + 1, so the prefix before v is in_offsets[v] + v
  // (strictly increasing), and the total is in_offsets[n] + n.
  const uint64_t total = in_offsets[n] + n;
  CostTable table{};
  uint64_t v = 0;
  for (uint32_t q = 0; q <= kCostQuantiles; ++q) {
    while (v < n && (in_offsets[v] + v) * kCostQuantiles < q * total) ++v;
    table[q] = v;
  }
  return table;
}

std::vector<uint64_t> PartitionBounds(const CostTable& table,
                                      uint32_t workers) {
  assert(workers > 0);
  std::vector<uint64_t> bounds(workers + 1);
  for (uint32_t w = 0; w <= workers; ++w) {
    bounds[w] = table[static_cast<uint64_t>(w) * kCostQuantiles / workers];
  }
  return bounds;
}

Graph Transpose(const Graph& g) {
  const uint64_t n = g.num_vertices();
  Graph t;
  t.offsets = InOffsets(g);
  t.targets.resize(g.num_edges());
  if (g.weighted()) t.weights.resize(g.num_edges());
  std::vector<uint64_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
  for (uint64_t src = 0; src < n; ++src) {
    const auto [lo, hi] = g.edge_range(src);
    for (uint64_t e = lo; e < hi; ++e) {
      const uint64_t at = cursor[g.targets[e]]++;
      t.targets[at] = static_cast<uint32_t>(src);
      if (g.weighted()) t.weights[at] = g.weights[e];
    }
  }
  return t;
}

void AddRandomWeights(Graph& g, uint64_t seed, uint32_t max_weight) {
  Rng rng(seed);
  g.weights.resize(g.num_edges());
  for (auto& w : g.weights) {
    w = 1 + static_cast<uint32_t>(rng.NextBelow(max_weight));
  }
}

Graph MakeSymmetric(const Graph& g) {
  const uint64_t n = g.num_vertices();
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(2 * g.num_edges());
  for (uint64_t src = 0; src < n; ++src) {
    const auto [lo, hi] = g.edge_range(src);
    for (uint64_t e = lo; e < hi; ++e) {
      edges.emplace_back(static_cast<uint32_t>(src), g.targets[e]);
      edges.emplace_back(g.targets[e], static_cast<uint32_t>(src));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return FromEdges(n, std::move(edges));
}

std::vector<double> ReferencePageRank(const Graph& g, uint32_t iterations,
                                      double damping) {
  const uint64_t n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (uint32_t iter = 0; iter < iterations; ++iter) {
    double dangling = 0;
    for (uint64_t v = 0; v < n; ++v) {
      if (g.out_degree(v) == 0) dangling += rank[v];
    }
    const double base =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (uint64_t v = 0; v < n; ++v) {
      const uint64_t deg = g.out_degree(v);
      if (deg == 0) continue;
      const double share = damping * rank[v] / static_cast<double>(deg);
      const auto [lo, hi] = g.edge_range(v);
      for (uint64_t e = lo; e < hi; ++e) next[g.targets[e]] += share;
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<uint32_t> ReferenceBfs(const Graph& g, uint64_t source) {
  const uint64_t n = g.num_vertices();
  std::vector<uint32_t> dist(n, std::numeric_limits<uint32_t>::max());
  std::deque<uint64_t> frontier{source};
  dist[source] = 0;
  while (!frontier.empty()) {
    const uint64_t v = frontier.front();
    frontier.pop_front();
    const auto [lo, hi] = g.edge_range(v);
    for (uint64_t e = lo; e < hi; ++e) {
      const uint32_t w = g.targets[e];
      if (dist[w] == std::numeric_limits<uint32_t>::max()) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<uint64_t> ReferenceComponents(const Graph& g) {
  const uint64_t n = g.num_vertices();
  std::vector<uint64_t> label(n);
  std::iota(label.begin(), label.end(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint64_t v = 0; v < n; ++v) {
      const auto [lo, hi] = g.edge_range(v);
      for (uint64_t e = lo; e < hi; ++e) {
        const uint32_t w = g.targets[e];
        if (label[w] < label[v]) {
          label[v] = label[w];
          changed = true;
        } else if (label[v] < label[w]) {
          label[w] = label[v];
          changed = true;
        }
      }
    }
  }
  return label;
}

std::vector<uint64_t> ReferenceSssp(const Graph& g, uint64_t source) {
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  const uint64_t n = g.num_vertices();
  std::vector<uint64_t> dist(n, kInf);
  dist[source] = 0;
  using Entry = std::pair<uint64_t, uint64_t>;  // (dist, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;  // stale entry
    const auto [lo, hi] = g.edge_range(v);
    for (uint64_t e = lo; e < hi; ++e) {
      const uint64_t w = g.weighted() ? g.weights[e] : 1;
      const uint32_t to = g.targets[e];
      if (d + w < dist[to]) {
        dist[to] = d + w;
        pq.emplace(dist[to], to);
      }
    }
  }
  return dist;
}

}  // namespace rstore::carafe
