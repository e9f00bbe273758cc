// Tests for the comparison baselines: the two-sided RPC store, the
// message-passing BSP engine (validated against the PageRank reference),
// and the disk MapReduce TeraSort (validated for sortedness + multiset).
// Also checks the *architectural* properties the experiments rely on:
// two-sided IO burns server CPU; disk sort is slower than DRAM sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "baselines/bsp/msg_bsp.h"
#include "baselines/rpcstore/rpcstore.h"
#include "baselines/terasort/terasort.h"
#include "carafe/graph.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace rstore::baselines {
namespace {

using sim::Millis;
using sim::Nanos;

// ------------------------------------------------------------- rpcstore --
class RpcStoreFixture : public ::testing::Test {
 protected:
  RpcStoreFixture() : net(sim) {
    server_node = &sim.AddNode("server");
    client_node = &sim.AddNode("client");
    server_dev = &net.AddDevice(*server_node);
    client_dev = &net.AddDevice(*client_node);
    server = std::make_unique<RpcStoreServer>(*server_dev);
    server->Start();
  }

  void RunClient(std::function<void(RpcStoreClient&)> fn) {
    bool finished = false;
    client_node->Spawn("client", [&] {
      auto client = RpcStoreClient::Connect(*client_dev, server_node->id());
      ASSERT_TRUE(client.ok()) << client.status();
      fn(**client);
      finished = true;
      sim.RequestStop();
    });
    sim.Run();
    EXPECT_TRUE(finished);
  }

  sim::Simulation sim;
  verbs::Network net;
  sim::Node* server_node;
  sim::Node* client_node;
  verbs::Device* server_dev;
  verbs::Device* client_dev;
  std::unique_ptr<RpcStoreServer> server;
};

TEST_F(RpcStoreFixture, PutGetRoundTrip) {
  RunClient([&](RpcStoreClient& client) {
    std::vector<std::byte> src(4096), dst(4096);
    Rng rng(1);
    rng.Fill(src.data(), src.size());
    ASSERT_TRUE(client.Put(1000, src).ok());
    ASSERT_TRUE(client.Get(1000, dst).ok());
    EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
  });
}

TEST_F(RpcStoreFixture, OutOfRangeRejected) {
  RunClient([&](RpcStoreClient& client) {
    std::vector<std::byte> buf(128);
    EXPECT_EQ(client.Get(server->capacity() - 64, buf).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(client.Put(server->capacity(), buf).code(),
              ErrorCode::kOutOfRange);
  });
}

TEST_F(RpcStoreFixture, DataPathBurnsServerCpu) {
  RunClient([&](RpcStoreClient& client) {
    std::vector<std::byte> buf(64 << 10);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.Put(0, buf).ok());
      ASSERT_TRUE(client.Get(0, buf).ok());
    }
  });
  // 40 ops x (handler + marshal + memcpy): the server CPU did real work
  // per byte — the cost one-sided RStore IO avoids (E6).
  const sim::CpuCostModel cpu;
  EXPECT_GT(server->cpu_time(),
            40 * (cpu.rpc_handler_ns + sim::MemcpyCost(cpu, 64 << 10)));
  EXPECT_EQ(server->ops(), 40u);
}

// -------------------------------------------------------------- msg bsp --
class MsgBspFixture : public ::testing::Test {
 protected:
  // Runs message-passing PageRank over `workers` nodes and returns the
  // assembled global rank vector.
  std::vector<double> RunPageRank(const carafe::Graph& graph,
                                  uint32_t workers, uint32_t iterations,
                                  double per_message_ns = 25.0,
                                  Nanos* elapsed = nullptr) {
    sim::Simulation sim;
    verbs::Network net(sim);
    std::vector<sim::Node*> nodes;
    std::vector<uint32_t> node_ids;
    for (uint32_t w = 0; w < workers; ++w) {
      nodes.push_back(&sim.AddNode("w" + std::to_string(w)));
      net.AddDevice(*nodes.back());
      node_ids.push_back(nodes.back()->id());
    }
    std::vector<std::unique_ptr<MsgBspWorker>> bsp(workers);
    std::vector<double> global(graph.num_vertices());
    uint32_t done = 0;
    Nanos t_done = 0;
    for (uint32_t w = 0; w < workers; ++w) {
      MsgBspConfig cfg;
      cfg.worker_id = w;
      cfg.num_workers = workers;
      cfg.worker_nodes = node_ids;
      cfg.per_message_ns = per_message_ns;
      bsp[w] = std::make_unique<MsgBspWorker>(net.device(node_ids[w]), graph,
                                              cfg);
      bsp[w]->StartService();
      nodes[w]->Spawn("pr", [&, w] {
        sim::Sleep(Millis(1));  // let every service start
        auto ranks = bsp[w]->PageRank(iterations);
        ASSERT_TRUE(ranks.ok()) << ranks.status();
        std::copy(ranks->begin(), ranks->end(),
                  global.begin() + static_cast<ptrdiff_t>(bsp[w]->lo()));
        t_done = sim::Now();
        if (++done == workers) sim::CurrentNode().sim().RequestStop();
      });
    }
    sim.Run();
    EXPECT_EQ(done, workers);
    if (elapsed != nullptr) *elapsed = t_done;
    return global;
  }
};

TEST_F(MsgBspFixture, MatchesReferenceSingleWorker) {
  carafe::Graph g = carafe::UniformRandomGraph(512, 6.0, 2);
  auto expected = carafe::ReferencePageRank(g, 8);
  auto got = RunPageRank(g, 1, 8);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-10) << v;
  }
}

TEST_F(MsgBspFixture, MatchesReferenceFourWorkers) {
  carafe::Graph g = carafe::RmatGraph(9, 8.0, 6);
  auto expected = carafe::ReferencePageRank(g, 10);
  auto got = RunPageRank(g, 4, 10);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-10) << v;
  }
}

TEST_F(MsgBspFixture, MatchesReferenceWhenAHubEmptiesARange) {
  // Every vertex points at vertex 100 twice: the hub costs more than two
  // of eight workers' shares, so some worker owns no vertex.
  carafe::Graph base = carafe::UniformRandomGraph(512, 1.0, 4);
  carafe::Graph g;
  g.offsets.push_back(0);
  for (uint64_t v = 0; v < base.num_vertices(); ++v) {
    const auto [lo, hi] = base.edge_range(v);
    g.targets.insert(g.targets.end(), base.targets.begin() + lo,
                     base.targets.begin() + hi);
    g.targets.insert(g.targets.end(), 2, 100u);
    g.offsets.push_back(g.targets.size());
  }
  const auto bounds = carafe::PartitionBounds(
      carafe::CostQuantiles(carafe::InOffsets(g)), 8);
  ASSERT_NE(std::adjacent_find(bounds.begin(), bounds.end()), bounds.end());
  auto expected = carafe::ReferencePageRank(g, 10);
  auto got = RunPageRank(g, 8, 10);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-10) << v;
  }
}

TEST_F(MsgBspFixture, PerMessageOverheadSlowsItDown) {
  carafe::Graph g = carafe::UniformRandomGraph(1 << 12, 16.0, 3);
  Nanos cheap = 0, pricey = 0;
  RunPageRank(g, 4, 5, /*per_message_ns=*/5.0, &cheap);
  RunPageRank(g, 4, 5, /*per_message_ns=*/200.0, &pricey);
  EXPECT_GT(pricey, cheap + Millis(1));
}

// -------------------------------------------------------------- terasort --
class TeraSortFixture : public ::testing::Test {
 protected:
  // Runs the disk MapReduce sort; returns per-worker outputs and the
  // slowest worker's elapsed time.
  std::vector<std::vector<std::byte>> RunSort(uint32_t workers,
                                              uint64_t records,
                                              Nanos* slowest = nullptr,
                                              uint64_t seed = 21) {
    sim::Simulation sim;
    verbs::Network net(sim);
    std::vector<sim::Node*> nodes;
    std::vector<uint32_t> node_ids;
    for (uint32_t w = 0; w < workers; ++w) {
      nodes.push_back(&sim.AddNode("t" + std::to_string(w)));
      net.AddDevice(*nodes.back());
      node_ids.push_back(nodes.back()->id());
    }
    std::vector<std::unique_ptr<TeraSortWorker>> ts(workers);
    std::vector<std::vector<std::byte>> outputs(workers);
    Nanos worst = 0;
    uint32_t done = 0;
    for (uint32_t w = 0; w < workers; ++w) {
      TeraSortConfig cfg;
      cfg.worker_id = w;
      cfg.num_workers = workers;
      cfg.total_records = records;
      cfg.seed = seed;
      cfg.worker_nodes = node_ids;
      cfg.task_startup = Millis(50);  // scaled down for tests
      ts[w] = std::make_unique<TeraSortWorker>(net.device(node_ids[w]), cfg);
      ts[w]->StartService();
      nodes[w]->Spawn("sort", [&, w] {
        ASSERT_TRUE(ts[w]->GenerateInput().ok());
        sim::Sleep(Millis(1));
        auto stats = ts[w]->Sort();
        ASSERT_TRUE(stats.ok()) << stats.status();
        worst = std::max(worst, stats->total_time);
        outputs[w] = ts[w]->output();
        if (++done == workers) sim::CurrentNode().sim().RequestStop();
      });
    }
    sim.Run();
    EXPECT_EQ(done, workers);
    if (slowest != nullptr) *slowest = worst;
    return outputs;
  }
};

TEST_F(TeraSortFixture, OutputIsGloballySortedAndComplete) {
  constexpr uint64_t kRecords = 20'000;
  auto outputs = RunSort(4, kRecords);
  uint64_t total = 0;
  uint64_t checksum = 0;
  const std::byte* prev_last = nullptr;
  for (const auto& part : outputs) {
    const uint64_t n = part.size() / sort::kRecordBytes;
    EXPECT_TRUE(sort::IsSorted(part.data(), n));
    if (prev_last != nullptr && n > 0) {
      EXPECT_LE(sort::CompareKeys(prev_last, part.data()), 0);
    }
    if (n > 0) {
      prev_last = part.data() + (n - 1) * sort::kRecordBytes;
    }
    total += n;
    checksum += sort::UnorderedChecksum(part.data(), n);
  }
  EXPECT_EQ(total, kRecords);
  std::vector<std::byte> regen(kRecords * sort::kRecordBytes);
  sort::GenerateRecords(21, 0, kRecords, regen.data());
  EXPECT_EQ(checksum, sort::UnorderedChecksum(regen.data(), kRecords));
}

TEST_F(TeraSortFixture, DiskDominatesRuntime) {
  // Structure check for E5: the same sort takes far longer than the pure
  // CPU sort cost, because all bytes cross the disk four times.
  constexpr uint64_t kRecords = 100'000;  // 10 MB
  Nanos elapsed = 0;
  RunSort(2, kRecords, &elapsed);
  const sim::CpuCostModel cpu;
  const Nanos sort_only = sim::SortCost(cpu, kRecords / 2);
  EXPECT_GT(elapsed, 4 * sort_only);
  // Lower bound: 4 disk passes of the per-node share at the configured
  // JBOD read bandwidth (writes are slower, so real time is higher).
  const double per_node_bytes =
      static_cast<double>(kRecords / 2) * sort::kRecordBytes;
  const double min_disk_s = 4 * per_node_bytes * 8 / 2.4e9;
  EXPECT_GT(sim::ToSeconds(elapsed), min_disk_s * 0.8);
}

}  // namespace
}  // namespace rstore::baselines
