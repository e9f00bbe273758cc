// Tests for Carafe: graph generators, single-machine references, RStore
// graph storage, and the distributed BSP engine validated against the
// references (PageRank, BFS, connected components, SSSP), and the
// cost-balanced partition every engine takes its vertex range from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "baselines/bsp/msg_bsp.h"
#include "carafe/engine.h"
#include "carafe/graph.h"
#include "carafe/storage.h"
#include "core/cluster.h"
#include "sim/simulation.h"
#include "verbs/verbs.h"

namespace rstore::carafe {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

// ----------------------------------------------------------- generators --
TEST(GraphGenTest, UniformGraphHasRequestedShape) {
  Graph g = UniformRandomGraph(1000, 8.0, 1);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_EQ(g.num_edges(), 8000u);
  uint64_t total = 0;
  for (uint64_t v = 0; v < g.num_vertices(); ++v) total += g.out_degree(v);
  EXPECT_EQ(total, g.num_edges());
  for (const uint32_t t : g.targets) EXPECT_LT(t, 1000u);
}

TEST(GraphGenTest, GeneratorsAreDeterministic) {
  Graph a = UniformRandomGraph(500, 4.0, 7);
  Graph b = UniformRandomGraph(500, 4.0, 7);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.targets, b.targets);
  Graph c = UniformRandomGraph(500, 4.0, 8);
  EXPECT_NE(a.targets, c.targets);
  Graph r1 = RmatGraph(10, 8.0, 3);
  Graph r2 = RmatGraph(10, 8.0, 3);
  EXPECT_EQ(r1.targets, r2.targets);
}

TEST(GraphGenTest, RmatIsSkewedUniformIsNot) {
  Graph rmat = RmatGraph(12, 16.0, 5);
  Graph uni = UniformRandomGraph(1 << 12, 16.0, 5);
  auto max_degree = [](const Graph& g) {
    uint64_t best = 0;
    for (uint64_t v = 0; v < g.num_vertices(); ++v) {
      best = std::max(best, g.out_degree(v));
    }
    return best;
  };
  // Power-law graphs have hubs far above the mean degree.
  EXPECT_GT(max_degree(rmat), 4 * max_degree(uni));
}

TEST(GraphGenTest, TransposeInvertsEdges) {
  Graph g = UniformRandomGraph(200, 5.0, 11);
  Graph t = Transpose(g);
  EXPECT_EQ(t.num_edges(), g.num_edges());
  // Every edge (u,v) appears as (v,u) in the transpose.
  std::multiset<std::pair<uint32_t, uint32_t>> fwd, rev;
  for (uint64_t u = 0; u < g.num_vertices(); ++u) {
    const auto [lo, hi] = g.edge_range(u);
    for (uint64_t e = lo; e < hi; ++e) {
      fwd.emplace(static_cast<uint32_t>(u), g.targets[e]);
    }
  }
  for (uint64_t u = 0; u < t.num_vertices(); ++u) {
    const auto [lo, hi] = t.edge_range(u);
    for (uint64_t e = lo; e < hi; ++e) {
      rev.emplace(t.targets[e], static_cast<uint32_t>(u));
    }
  }
  EXPECT_EQ(fwd, rev);
  // Transpose twice = original (up to CSR canonical order).
  Graph tt = Transpose(t);
  uint64_t total = 0;
  for (uint64_t v = 0; v < tt.num_vertices(); ++v) {
    total += tt.out_degree(v);
    EXPECT_EQ(tt.out_degree(v), g.out_degree(v)) << v;
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(GraphGenTest, MakeSymmetricAddsReverses) {
  Graph g;
  g.offsets = {0, 2, 2, 3};
  g.targets = {1, 2, 0};  // 0->1, 0->2, 2->0
  Graph s = MakeSymmetric(g);
  EXPECT_EQ(s.num_vertices(), 3u);
  // Unique undirected edges {0,1}, {0,2} → 4 directed edges.
  EXPECT_EQ(s.num_edges(), 4u);
  EXPECT_EQ(s.out_degree(0), 2u);
  EXPECT_EQ(s.out_degree(1), 1u);
  EXPECT_EQ(s.out_degree(2), 1u);
}

// ----------------------------------------------------------- references --
TEST(ReferenceTest, PageRankSumsToOne) {
  Graph g = RmatGraph(10, 8.0, 2);
  auto rank = ReferencePageRank(g, 30);
  const double sum = std::accumulate(rank.begin(), rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (const double r : rank) EXPECT_GT(r, 0.0);
}

TEST(ReferenceTest, PageRankOnStarFavorsCenter) {
  // Star: every leaf points at vertex 0.
  const uint64_t n = 50;
  Graph g;
  g.offsets.assign(n + 1, 0);
  for (uint64_t v = 1; v < n; ++v) g.offsets[v + 1] = v;
  g.offsets[1] = 0;
  g.targets.assign(n - 1, 0);
  auto rank = ReferencePageRank(g, 50);
  for (uint64_t v = 1; v < n; ++v) EXPECT_GT(rank[0], 10 * rank[v]);
}

TEST(ReferenceTest, BfsDistancesOnAChain) {
  const uint64_t n = 10;
  Graph g;
  g.offsets.resize(n + 1);
  for (uint64_t v = 0; v < n; ++v) g.offsets[v + 1] = std::min(v + 1, n - 1);
  g.targets.resize(n - 1);
  for (uint64_t v = 0; v + 1 < n; ++v) g.targets[v] = static_cast<uint32_t>(v + 1);
  auto dist = ReferenceBfs(g, 0);
  for (uint64_t v = 0; v < n; ++v) EXPECT_EQ(dist[v], v);
  auto from_tail = ReferenceBfs(g, n - 1);
  EXPECT_EQ(from_tail[0], std::numeric_limits<uint32_t>::max());
}

TEST(ReferenceTest, ComponentsOnDisjointCliques) {
  // Two triangles: {0,1,2} and {3,4,5}.
  Graph g;
  g.offsets = {0, 2, 4, 6, 8, 10, 12};
  g.targets = {1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4};
  auto label = ReferenceComponents(g);
  EXPECT_EQ(label[0], 0u);
  EXPECT_EQ(label[1], 0u);
  EXPECT_EQ(label[2], 0u);
  EXPECT_EQ(label[3], 3u);
  EXPECT_EQ(label[4], 3u);
  EXPECT_EQ(label[5], 3u);
}

// -------------------------------------------------------------- storage --
ClusterConfig GraphCluster(uint32_t clients) {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = clients;
  cfg.server_capacity = 32ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

TEST(StorageTest, UploadOpenDropRoundTrip) {
  TestCluster cluster(GraphCluster(1));
  cluster.RunClient([&](RStoreClient& client) {
    Graph g = UniformRandomGraph(2000, 8.0, 3);
    ASSERT_TRUE(UploadGraph(client, "g", g).ok());
    auto opened = OpenGraph(client, "g");
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened->n, 2000u);
    EXPECT_EQ(opened->m, g.num_edges());
    ASSERT_TRUE(DropGraph(client, "g").ok());
    EXPECT_EQ(OpenGraph(client, "g").code(), ErrorCode::kNotFound);
  });
}

TEST(StorageTest, WorkerPartitionsCoverAllVertices) {
  TestCluster cluster(GraphCluster(1));
  cluster.RunClient([&](RStoreClient& client) {
    Graph g = UniformRandomGraph(1003, 6.0, 9);  // deliberately not a
                                                 // multiple of workers
    ASSERT_TRUE(UploadGraph(client, "g", g).ok());
    uint64_t covered = 0;
    for (uint32_t w = 0; w < 5; ++w) {
      Worker worker(client, "g", WorkerConfig{w, 5, "t"});
      ASSERT_TRUE(worker.Init().ok());
      covered += worker.vertex_hi() - worker.vertex_lo();
      if (w > 0) {
        Worker prev(client, "g", WorkerConfig{w - 1, 5, "t"});
        ASSERT_TRUE(prev.Init().ok());
        EXPECT_EQ(prev.vertex_hi(), worker.vertex_lo());
      }
    }
    EXPECT_EQ(covered, 1003u);
  });
}

// --------------------------------------------------------- partitioning --
std::vector<uint64_t> BoundsOf(const Graph& g, uint32_t workers) {
  return PartitionBounds(CostQuantiles(InOffsets(g)), workers);
}

// Per-worker cost (in-edges plus vertices) of a partition.
std::vector<uint64_t> CostsOf(const Graph& g,
                              const std::vector<uint64_t>& bounds) {
  const std::vector<uint64_t> in = InOffsets(g);
  std::vector<uint64_t> cost;
  for (size_t w = 0; w + 1 < bounds.size(); ++w) {
    cost.push_back(in[bounds[w + 1]] - in[bounds[w]] + bounds[w + 1] -
                   bounds[w]);
  }
  return cost;
}

double MaxOverMean(const std::vector<uint64_t>& cost) {
  const double total =
      static_cast<double>(std::accumulate(cost.begin(), cost.end(), 0ULL));
  const uint64_t worst = *std::max_element(cost.begin(), cost.end());
  return static_cast<double>(worst) * static_cast<double>(cost.size()) /
         total;
}

// `g` plus a star: `copies` edges from every other vertex into `hub` and
// one edge from the hub to every other vertex.
Graph WithHub(const Graph& g, uint32_t hub, uint32_t copies) {
  const uint64_t n = g.num_vertices();
  Graph out;
  out.offsets.push_back(0);
  for (uint64_t v = 0; v < n; ++v) {
    const auto [lo, hi] = g.edge_range(v);
    out.targets.insert(out.targets.end(), g.targets.begin() + lo,
                       g.targets.begin() + hi);
    if (v != hub) out.targets.insert(out.targets.end(), copies, hub);
    for (uint64_t u = 0; v == hub && u < n; ++u) {
      if (u != hub) out.targets.push_back(static_cast<uint32_t>(u));
    }
    out.offsets.push_back(out.targets.size());
  }
  return out;
}

TEST(PartitionTest, RangesAreContiguousAndCoverAllVertices) {
  const std::vector<Graph> graphs = {
      UniformRandomGraph(1003, 6.0, 9), RmatGraph(12, 16.0, 5),
      WithHub(UniformRandomGraph(300, 1.0, 2), 77, 4),
      UniformRandomGraph(5, 2.0, 1), Graph{{0}, {}, {}}};
  for (const Graph& g : graphs) {
    const uint64_t n = g.num_vertices();
    const CostTable table = CostQuantiles(InOffsets(g));
    EXPECT_EQ(table.front(), 0u);
    EXPECT_EQ(table.back(), n);
    EXPECT_TRUE(std::is_sorted(table.begin(), table.end()));
    // 3, 7 and 1500 do not divide kCostQuantiles: boundary w is the
    // table entry at floor(w * kCostQuantiles / W).
    for (const uint32_t workers : {1u, 2u, 3u, 7u, 8u, 64u, 1024u, 1500u}) {
      const std::vector<uint64_t> bounds = PartitionBounds(table, workers);
      ASSERT_EQ(bounds.size(), workers + 1u);
      for (uint32_t w = 0; w <= workers; ++w) {
        EXPECT_EQ(bounds[w], table[w * kCostQuantiles / workers])
            << "W=" << workers << " w=" << w;
      }
      EXPECT_EQ(bounds.back(), n) << "W=" << workers;
    }
  }
}

TEST(PartitionTest, RmatCostStaysBalanced) {
  // RMAT puts its hubs at low vertex ids: at 8 workers the equal-count
  // split gives worker 0 3.36x the mean cost (43.9% of the in-edges).
  // The cost split keeps the worst worker within 2% of the mean: measured
  // 1.0019 (W=3), 1.0047-1.0055 (W=7) and 1.0025-1.0033 (W=8) here, and
  // at most 1.0143 on RMAT 2^14-2^17 for seeds 1, 7 and 7919.
  // Uniform graphs, where every split is balanced, stay within 1%.
  for (const uint64_t seed : {1ULL, 7919ULL}) {
    Graph g = RmatGraph(16, 16.0, seed);
    Graph uniform = UniformRandomGraph(1 << 16, 16.0, seed);
    const uint64_t n = g.num_vertices();
    std::vector<uint64_t> even(9);
    for (uint32_t w = 0; w <= 8; ++w) even[w] = n * w / 8;
    EXPECT_GT(MaxOverMean(CostsOf(g, even)), 3.0) << seed;
    for (const uint32_t workers : {3u, 7u, 8u}) {
      EXPECT_LT(MaxOverMean(CostsOf(g, BoundsOf(g, workers))), 1.02)
          << "seed " << seed << " W=" << workers;
      EXPECT_LT(MaxOverMean(CostsOf(uniform, BoundsOf(uniform, workers))),
                1.01)
          << "seed " << seed << " W=" << workers;
    }
  }
}

TEST(PartitionTest, CarafeAndMessagePassingGetIdenticalRanges) {
  Graph g = RmatGraph(11, 8.0, 13);
  for (const uint32_t workers : {3u, 8u}) {
    const std::vector<uint64_t> bounds = BoundsOf(g, workers);
    // The baseline builds its table from the in-memory graph.
    sim::Simulation sim;
    verbs::Network net(sim);
    sim::Node& node = sim.AddNode("w");
    net.AddDevice(node);
    // Carafe reads the table uploaded with the graph.
    TestCluster cluster(GraphCluster(1));
    cluster.RunClient([&](RStoreClient& client) {
      ASSERT_TRUE(UploadGraph(client, "g", g).ok());
      for (uint32_t w = 0; w < workers; ++w) {
        Worker worker(client, "g", WorkerConfig{w, workers, "t"});
        ASSERT_TRUE(worker.Init().ok());
        baselines::MsgBspConfig cfg;
        cfg.worker_id = w;
        cfg.num_workers = workers;
        baselines::MsgBspWorker bsp(net.device(node.id()), g, cfg);
        EXPECT_EQ(worker.vertex_lo(), bounds[w]) << w;
        EXPECT_EQ(worker.vertex_hi(), bounds[w + 1]) << w;
        EXPECT_EQ(bsp.lo(), bounds[w]) << w;
        EXPECT_EQ(bsp.hi(), bounds[w + 1]) << w;
      }
    });
  }
}

TEST(PartitionTest, HubWithAnEmptyRangeMatchesEveryReference) {
  // The hub costs more than two of the eight workers' shares (about 47%
  // of the directed graph, 29% of its symmetric closure), so adjacent
  // boundaries fall on it and some worker owns no vertex.
  constexpr uint32_t kWorkers = 8;
  Graph g = WithHub(UniformRandomGraph(512, 0.25, 17), 200, 2);
  AddRandomWeights(g, 5, 20);
  Graph sym = MakeSymmetric(g);
  for (const Graph* graph : {&g, &sym}) {
    const std::vector<uint64_t> bounds = BoundsOf(*graph, kWorkers);
    bool empty = false;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      empty = empty || bounds[w] == bounds[w + 1];
    }
    ASSERT_TRUE(empty) << "the hub must leave one worker without vertices";
  }
  const auto ranks = ReferencePageRank(g, 10);
  const auto bfs = ReferenceBfs(g, 3);
  const auto sssp = ReferenceSssp(g, 3);
  const auto labels = ReferenceComponents(sym);

  TestCluster cluster(GraphCluster(kWorkers));
  std::vector<std::vector<double>> got_ranks(kWorkers);
  std::vector<std::vector<uint32_t>> got_bfs(kWorkers);
  std::vector<std::vector<uint64_t>> got_sssp(kWorkers), got_cc(kWorkers);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(UploadGraph(client, "sym", sym).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      Worker worker(client, "g", WorkerConfig{w, kWorkers, "hub"});
      ASSERT_TRUE(worker.Init().ok());
      auto r = worker.PageRank({.iterations = 10});
      ASSERT_TRUE(r.ok()) << r.status();
      got_ranks[w] = std::move(*r);
      auto b = worker.Bfs(3);
      ASSERT_TRUE(b.ok()) << b.status();
      got_bfs[w] = std::move(*b);
      auto d = worker.Sssp(3);
      ASSERT_TRUE(d.ok()) << d.status();
      got_sssp[w] = std::move(*d);
      Worker sym_worker(client, "sym", WorkerConfig{w, kWorkers, "hub"});
      ASSERT_TRUE(sym_worker.Init().ok());
      auto c = sym_worker.Components();
      ASSERT_TRUE(c.ok()) << c.status();
      got_cc[w] = std::move(*c);
    });
  }
  cluster.sim().Run();
  for (uint32_t w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(got_ranks[w].size(), ranks.size()) << "worker " << w;
    for (size_t v = 0; v < ranks.size(); ++v) {
      ASSERT_NEAR(got_ranks[w][v], ranks[v], 1e-10)
          << "worker " << w << " vertex " << v;
    }
    EXPECT_EQ(got_bfs[w], bfs) << "worker " << w;
    EXPECT_EQ(got_sssp[w], sssp) << "worker " << w;
    EXPECT_EQ(got_cc[w], labels) << "worker " << w;
  }
}

// ------------------------------------------------- distributed vs. ref --
// No padding: gtest prints the param's bytes into the test name.
struct EngineParam {
  uint32_t workers;
  uint32_t rmat;  // 0 = uniform, 1 = RMAT
};

class EngineFixture : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineFixture, DistributedPageRankMatchesReference) {
  const EngineParam p = GetParam();
  Graph g = p.rmat ? RmatGraph(10, 8.0, 4)
                   : UniformRandomGraph(1 << 10, 8.0, 4);
  auto expected = ReferencePageRank(g, 10);

  ClusterConfig cfg = GraphCluster(p.workers);
  TestCluster cluster(cfg);
  std::vector<std::vector<double>> results(p.workers);
  for (uint32_t w = 0; w < p.workers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      Worker worker(client, "g", WorkerConfig{w, p.workers, "pr"});
      ASSERT_TRUE(worker.Init().ok());
      auto ranks = worker.PageRank({.iterations = 10});
      ASSERT_TRUE(ranks.ok()) << ranks.status();
      results[w] = std::move(*ranks);
    });
  }
  cluster.sim().Run();

  for (uint32_t w = 0; w < p.workers; ++w) {
    ASSERT_EQ(results[w].size(), expected.size()) << "worker " << w;
    for (size_t v = 0; v < expected.size(); ++v) {
      ASSERT_NEAR(results[w][v], expected[v], 1e-10)
          << "worker " << w << " vertex " << v;
    }
  }
}

TEST_P(EngineFixture, DistributedBfsMatchesReference) {
  const EngineParam p = GetParam();
  Graph g = p.rmat ? RmatGraph(10, 8.0, 6)
                   : UniformRandomGraph(1 << 10, 8.0, 6);
  const uint64_t source = 1;
  auto expected = ReferenceBfs(g, source);

  TestCluster cluster(GraphCluster(p.workers));
  std::vector<std::vector<uint32_t>> results(p.workers);
  for (uint32_t w = 0; w < p.workers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      Worker worker(client, "g", WorkerConfig{w, p.workers, "bfs"});
      ASSERT_TRUE(worker.Init().ok());
      auto dist = worker.Bfs(source);
      ASSERT_TRUE(dist.ok()) << dist.status();
      results[w] = std::move(*dist);
    });
  }
  cluster.sim().Run();
  for (uint32_t w = 0; w < p.workers; ++w) {
    EXPECT_EQ(results[w], expected) << "worker " << w;
  }
}

TEST_P(EngineFixture, DistributedComponentsMatchReference) {
  const EngineParam p = GetParam();
  // Sparse so several components exist.
  Graph base = p.rmat ? RmatGraph(9, 1.1, 8)
                      : UniformRandomGraph(1 << 9, 1.1, 8);
  Graph g = MakeSymmetric(base);
  auto expected = ReferenceComponents(g);

  TestCluster cluster(GraphCluster(p.workers));
  std::vector<std::vector<uint64_t>> results(p.workers);
  for (uint32_t w = 0; w < p.workers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      Worker worker(client, "g", WorkerConfig{w, p.workers, "cc"});
      ASSERT_TRUE(worker.Init().ok());
      auto labels = worker.Components();
      ASSERT_TRUE(labels.ok()) << labels.status();
      results[w] = std::move(*labels);
    });
  }
  cluster.sim().Run();
  for (uint32_t w = 0; w < p.workers; ++w) {
    EXPECT_EQ(results[w], expected) << "worker " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerCounts, EngineFixture,
    ::testing::Values(EngineParam{1, false}, EngineParam{2, false},
                      EngineParam{4, false}, EngineParam{4, true},
                      EngineParam{3, true}, EngineParam{7, true}),
    [](const ::testing::TestParamInfo<EngineParam>& info) {
      return std::string(info.param.rmat ? "rmat" : "uniform") +
             std::to_string(info.param.workers) + "w";
    });


// ------------------------------------------------------------- weighted --
TEST(WeightedTest, AddRandomWeightsIsDeterministicAndBounded) {
  Graph a = UniformRandomGraph(500, 4.0, 7);
  Graph b = a;
  AddRandomWeights(a, 3, 50);
  AddRandomWeights(b, 3, 50);
  EXPECT_EQ(a.weights, b.weights);
  ASSERT_EQ(a.weights.size(), a.num_edges());
  for (uint32_t w : a.weights) {
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 50u);
  }
  AddRandomWeights(b, 4, 50);
  EXPECT_NE(a.weights, b.weights);
}

TEST(WeightedTest, TransposeCarriesWeights) {
  Graph g;
  g.offsets = {0, 2, 3};
  g.targets = {1, 0, 0};  // 0->1(w=5), 0->0(w=7), 1->0(w=9)
  g.weights = {5, 7, 9};
  Graph t = Transpose(g);
  ASSERT_TRUE(t.weighted());
  // In t: vertex 0's in-edges were 0->0(7) and 1->0(9); vertex 1's was
  // 0->1(5).
  std::multiset<std::pair<uint32_t, uint32_t>> v0;
  const auto [lo, hi] = t.edge_range(0);
  for (uint64_t e = lo; e < hi; ++e) v0.emplace(t.targets[e], t.weights[e]);
  EXPECT_EQ(v0, (std::multiset<std::pair<uint32_t, uint32_t>>{{0, 7},
                                                              {1, 9}}));
  EXPECT_EQ(t.weights[t.offsets[1]], 5u);
}

TEST(WeightedTest, ReferenceSsspOnKnownGraph) {
  // 0 -5-> 1 -1-> 2, 0 -10-> 2: shortest 0->2 is 6 via 1.
  Graph g;
  g.offsets = {0, 2, 3, 3};
  g.targets = {1, 2, 2};
  g.weights = {5, 10, 1};
  auto dist = ReferenceSssp(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 5u);
  EXPECT_EQ(dist[2], 6u);
  auto from1 = ReferenceSssp(g, 1);
  EXPECT_EQ(from1[0], std::numeric_limits<uint64_t>::max());
}

TEST(WeightedTest, StorageRoundTripsWeightedFlag) {
  TestCluster cluster(GraphCluster(1));
  cluster.RunClient([&](RStoreClient& client) {
    Graph g = UniformRandomGraph(300, 4.0, 3);
    AddRandomWeights(g, 8, 30);
    ASSERT_TRUE(UploadGraph(client, "wg", g).ok());
    auto opened = OpenGraph(client, "wg");
    ASSERT_TRUE(opened.ok());
    EXPECT_TRUE(opened->weighted);

    Graph u = UniformRandomGraph(300, 4.0, 3);
    ASSERT_TRUE(UploadGraph(client, "ug", u).ok());
    auto opened_u = OpenGraph(client, "ug");
    ASSERT_TRUE(opened_u.ok());
    EXPECT_FALSE(opened_u->weighted);
    ASSERT_TRUE(DropGraph(client, "wg").ok());
    ASSERT_TRUE(DropGraph(client, "ug").ok());
  });
}

TEST_P(EngineFixture, DistributedSsspMatchesReference) {
  const EngineParam p = GetParam();
  Graph g = p.rmat ? RmatGraph(10, 6.0, 12)
                   : UniformRandomGraph(1 << 10, 6.0, 12);
  AddRandomWeights(g, 21, 40);
  const uint64_t source = 3;
  auto expected = ReferenceSssp(g, source);

  TestCluster cluster(GraphCluster(p.workers));
  std::vector<std::vector<uint64_t>> results(p.workers);
  for (uint32_t w = 0; w < p.workers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      Worker worker(client, "g", WorkerConfig{w, p.workers, "sssp"});
      ASSERT_TRUE(worker.Init().ok());
      auto dist = worker.Sssp(source);
      ASSERT_TRUE(dist.ok()) << dist.status();
      results[w] = std::move(*dist);
    });
  }
  cluster.sim().Run();
  for (uint32_t w = 0; w < p.workers; ++w) {
    EXPECT_EQ(results[w], expected) << "worker " << w;
  }
}

TEST(EngineTest, SsspRequiresWeights) {
  TestCluster cluster(GraphCluster(1));
  cluster.RunClient([&](RStoreClient& client) {
    Graph g = UniformRandomGraph(100, 4.0, 1);
    ASSERT_TRUE(UploadGraph(client, "g", g).ok());
    Worker worker(client, "g", WorkerConfig{0, 1, "x"});
    ASSERT_TRUE(worker.Init().ok());
    EXPECT_EQ(worker.Sssp(0).code(), ErrorCode::kInvalidArgument);
  });
}

TEST(EngineTest, MoreWorkersFinishFasterOnBigGraphs) {
  // The scaling claim behind E4: distributed PageRank gets faster with
  // workers because per-iteration compute and reads split W ways.
  auto run = [](uint32_t workers) {
    Graph g = RmatGraph(13, 16.0, 4);
    ClusterConfig cfg = GraphCluster(workers);
    cfg.memory_servers = 8;
    TestCluster cluster(cfg);
    sim::Nanos elapsed = 0;
    for (uint32_t w = 0; w < workers; ++w) {
      cluster.SpawnClient(w, [&, w, workers](RStoreClient& client) {
        if (w == 0) {
          ASSERT_TRUE(UploadGraph(client, "g", g).ok());
          ASSERT_TRUE(client.NotifyInc("uploaded").ok());
        } else {
          ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
        }
        Worker worker(client, "g", WorkerConfig{w, workers, "s"});
        ASSERT_TRUE(worker.Init().ok());
        ASSERT_TRUE(client.NotifyInc("ready").ok());
        ASSERT_TRUE(client.WaitNotify("ready", workers).ok());
        const sim::Nanos t0 = sim::Now();
        ASSERT_TRUE(worker.PageRank({.iterations = 5}).ok());
        if (w == 0) elapsed = sim::Now() - t0;
      });
    }
    cluster.sim().Run();
    return elapsed;
  };
  const sim::Nanos one = run(1);
  const sim::Nanos four = run(4);
  EXPECT_LT(four, one * 2 / 3);
}

}  // namespace
}  // namespace rstore::carafe
