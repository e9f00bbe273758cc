// Property-based tests: randomized sweeps that check invariants rather
// than specific values. Parameterized over seeds and cluster shapes so
// each instantiation explores a different deterministic trajectory.
//
//   * Model-based IO: a distributed region must behave exactly like a
//     local byte array under arbitrary interleaved reads/writes.
//   * Allocator accounting: slabs never leak or double-allocate across
//     arbitrary ralloc/rfree sequences.
//   * Fabric conservation: every sent byte is delivered or dropped;
//     latency never undercuts the configured floor; each (src,dst) path
//     delivers in send order, also under injected fabric delays.
//   * Verbs ordering: completions on one QP pop in post order under
//     random mixes of reads/writes of random sizes.
//   * Crash safety: killing a random memory server mid-workload leaves
//     clients with clean errors (or success), never hangs or crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "explore/policy.h"
#include "verbs/verbs.h"

namespace rstore {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;
using sim::Millis;

// ---------------------------------------------------------------------------
// Model-based IO equivalence
// ---------------------------------------------------------------------------
// No padding bytes: gtest names each case with a byte dump of the param,
// and padding would put stack garbage into the test names.
struct IoModelParam {
  uint64_t seed;
  uint64_t servers;
  uint64_t slab_size;
  uint64_t region_size;
};
static_assert(sizeof(IoModelParam) == 4 * sizeof(uint64_t));

class IoModelTest : public ::testing::TestWithParam<IoModelParam> {};

TEST_P(IoModelTest, RegionBehavesLikeLocalByteArray) {
  const IoModelParam p = GetParam();
  ClusterConfig cfg;
  cfg.memory_servers = p.servers;
  cfg.client_nodes = 1;
  cfg.master.slab_size = p.slab_size;
  cfg.server_capacity =
      ((p.region_size / p.servers) / p.slab_size + 2) * p.slab_size;
  cfg.seed = p.seed;
  TestCluster cluster(cfg);

  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", p.region_size).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());

    std::vector<std::byte> model(p.region_size, std::byte{0});
    // The store starts zeroed (server arenas are zero-initialized).
    auto buf = client.AllocBuffer(p.region_size);
    ASSERT_TRUE(buf.ok());

    Rng rng(p.seed * 31 + 7);
    for (int step = 0; step < 120; ++step) {
      const uint64_t off = rng.NextBelow(p.region_size);
      const uint64_t len =
          std::min<uint64_t>(1 + rng.NextBelow(p.region_size / 3),
                             p.region_size - off);
      if (rng.NextBool(0.5)) {
        rng.Fill(buf->begin(), len);
        std::memcpy(model.data() + off, buf->begin(), len);
        ASSERT_TRUE(
            (*region)
                ->Write(off, std::span<const std::byte>(buf->begin(), len))
                .ok());
      } else {
        ASSERT_TRUE(
            (*region)->Read(off, std::span<std::byte>(buf->begin(), len))
                .ok());
        ASSERT_EQ(std::memcmp(buf->begin(), model.data() + off, len), 0)
            << "step " << step << " off " << off << " len " << len;
      }
    }
    // Final full-region audit.
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    ASSERT_EQ(std::memcmp(buf->begin(), model.data(), p.region_size), 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, IoModelTest,
    ::testing::Values(IoModelParam{1, 1, 4096, 16 << 10},
                      IoModelParam{2, 2, 4096, 64 << 10},
                      IoModelParam{3, 3, 1 << 16, 1 << 20},
                      IoModelParam{4, 4, 1 << 16, 333'333},
                      IoModelParam{5, 5, 1 << 20, 5 << 20},
                      IoModelParam{6, 2, 1 << 14, (1 << 20) + 17}),
    [](const ::testing::TestParamInfo<IoModelParam>& info) {
      const auto& p = info.param;
      return "seed" + std::to_string(p.seed) + "_s" +
             std::to_string(p.servers) + "_slab" +
             std::to_string(p.slab_size) + "_n" +
             std::to_string(p.region_size);
    });

// ---------------------------------------------------------------------------
// Allocator accounting
// ---------------------------------------------------------------------------
class AllocAccountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocAccountingTest, SlabsNeverLeakOrDoubleAllocate) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.master.slab_size = 1 << 20;
  cfg.server_capacity = 16ULL << 20;  // 64 slabs total
  cfg.seed = seed;
  TestCluster cluster(cfg);

  cluster.RunClient([&](RStoreClient& client) {
    Rng rng(seed);
    std::map<std::string, uint64_t> live;  // name -> slabs
    uint64_t next_id = 0;
    const uint64_t total_slabs = 64;
    for (int step = 0; step < 150; ++step) {
      uint64_t live_slabs = 0;
      for (const auto& [n, s] : live) live_slabs += s;

      if (live.empty() || rng.NextBool(0.6)) {
        const uint64_t want = 1 + rng.NextBelow(12);
        const std::string name = "r" + std::to_string(next_id++);
        Status st = client.Ralloc(name, want << 20);
        if (want <= total_slabs - live_slabs) {
          ASSERT_TRUE(st.ok()) << "want=" << want << " live=" << live_slabs
                               << ": " << st;
          live[name] = want;
        } else {
          ASSERT_EQ(st.code(), ErrorCode::kOutOfMemory);
        }
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(live.size())));
        ASSERT_TRUE(client.Rfree(it->first).ok());
        live.erase(it);
      }
      // Master view must agree with the model.
      uint64_t expect_live = 0;
      for (const auto& [n, s] : live) expect_live += s;
      ASSERT_EQ(cluster.master().free_slabs(), total_slabs - expect_live);
    }
    // Free everything: the cluster must be whole again.
    for (const auto& [name, slabs] : live) {
      ASSERT_TRUE(client.Rfree(name).ok());
    }
    ASSERT_EQ(cluster.master().free_slabs(), total_slabs);
    ASSERT_TRUE(client.Ralloc("all", 64ULL << 20).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocAccountingTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Fabric conservation
// ---------------------------------------------------------------------------
class FabricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// 400 random sends among six nodes. With max_delay_ns > 0 a seeded
// random-walk policy also injects per-message fabric delays
// (kFabricDelay) and reorders every explorable choice.
void RunFabricSweep(uint64_t seed, uint64_t max_delay_ns) {
  // The policy outlives the simulation, which consults it to the end.
  explore::RandomWalkPolicy policy(
      seed, {.max_fabric_delay_ns = max_delay_ns, .delay_permille = 500});
  sim::Simulation sim(sim::SimConfig{.seed = seed});
  if (max_delay_ns > 0) sim.AttachPolicy(&policy);
  constexpr int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) sim.AddNode("n");
  sim::Fabric fabric(sim, sim::NicConfig{});

  Rng rng(seed);
  int delivered = 0;
  int dropped = 0;
  int sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;
  // Per (src,dst) path: messages sent, and messages delivered so far.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> path_sent, path_done;
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<uint32_t>(rng.NextBelow(kNodes));
    auto dst = static_cast<uint32_t>(rng.NextBelow(kNodes));
    if (dst == src) dst = (dst + 1) % kNodes;
    const uint64_t size = rng.NextBelow(1 << 20);
    const sim::Nanos sent_at =
        static_cast<sim::Nanos>(rng.NextBelow(sim::Millis(5)));
    ++sent;
    bytes_sent += size;
    sim.At(sent_at, [&, src, dst, size, sent_at] {
      // Send order is the order of the Send calls (a policy may reorder
      // same-instant events).
      const uint64_t seq = path_sent[{src, dst}]++;
      fabric.Send(src, dst, size,
                  [&, src, dst, seq, sent_at, size] {
                    ++delivered;
                    bytes_delivered += size;
                    // RC same-path FIFO: delivery order is send order.
                    const uint64_t nth = path_done[{src, dst}]++;
                    EXPECT_EQ(nth, seq) << src << "->" << dst;
                    const sim::Nanos latency = sim.NowNanos() - sent_at;
                    EXPECT_GE(latency,
                              fabric.config().base_latency +
                                  sim::TransferTime(
                                      size, fabric.config().bandwidth_bps));
                  },
                  [&] { ++dropped; });
    });
  }
  sim.Run();
  EXPECT_EQ(delivered + dropped, sent);
  EXPECT_EQ(dropped, 0);  // no partitions in this sweep
  EXPECT_EQ(fabric.total_bytes(), bytes_sent);
  uint64_t in = 0, out = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    in += fabric.bytes_in(n);
    out += fabric.bytes_out(n);
  }
  EXPECT_EQ(in, bytes_delivered);
  EXPECT_EQ(in, bytes_sent);
  EXPECT_EQ(out, bytes_sent);
  // The policy did deviate (delays are recorded trace entries).
  if (max_delay_ns > 0) {
    EXPECT_FALSE(policy.entries().empty());
  }
}

TEST_P(FabricPropertyTest, EveryMessageDeliversOnceAndRespectsLatencyFloor) {
  RunFabricSweep(GetParam(), /*max_delay_ns=*/0);
  RunFabricSweep(GetParam(), /*max_delay_ns=*/sim::Micros(200));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricPropertyTest,
                         ::testing::Values(3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// Verbs ordering under random mixes
// ---------------------------------------------------------------------------
class VerbsOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerbsOrderTest, CompletionsPopInPostOrder) {
  const uint64_t seed = GetParam();
  sim::Simulation sim;
  verbs::Network net(sim);
  auto& server = sim.AddNode("server");
  auto& client = sim.AddNode("client");
  auto& sdev = net.AddDevice(server);
  auto& cdev = net.AddDevice(client);

  std::vector<std::byte> remote(1 << 20), local(1 << 20);
  auto* rmr = *sdev.CreatePd().RegisterMemory(
      remote.data(), remote.size(),
      verbs::kLocalWrite | verbs::kRemoteRead | verbs::kRemoteWrite);
  auto* lmr = *cdev.CreatePd().RegisterMemory(local.data(), local.size(),
                                              verbs::kLocalWrite);
  net.Listen(sdev, 1);
  server.Spawn("srv", [&] { (void)net.Listen(sdev, 1).Accept(); });
  client.Spawn("cli", [&, seed] {
    auto qp = net.Connect(cdev, server.id(), 1);
    ASSERT_TRUE(qp.ok());
    Rng rng(seed);
    constexpr int kOps = 64;
    for (int i = 0; i < kOps; ++i) {
      const bool read = rng.NextBool(0.5);
      const auto size = static_cast<uint32_t>(1 + rng.NextBelow(1 << 18));
      ASSERT_TRUE(
          (*qp)->PostSend(verbs::SendWr{
                    .wr_id = static_cast<uint64_t>(i),
                    .opcode = read ? verbs::Opcode::kRdmaRead
                                   : verbs::Opcode::kRdmaWrite,
                    .local = {local.data(), size, lmr->lkey()},
                    .remote_addr = rmr->remote_addr(),
                    .rkey = rmr->rkey()})
              .ok());
    }
    uint64_t expect = 0;
    while (expect < kOps) {
      for (const auto& wc : (*qp)->send_cq().WaitPoll()) {
        ASSERT_TRUE(wc.ok());
        ASSERT_EQ(wc.wr_id, expect);
        ++expect;
      }
    }
  });
  sim.Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerbsOrderTest,
                         ::testing::Values(2, 4, 6, 9));

// ---------------------------------------------------------------------------
// Crash safety sweep
// ---------------------------------------------------------------------------
class CrashSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashSweepTest, ServerDeathMidWorkloadNeverHangsOrCorrupts) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.master.slab_size = 1 << 20;
  cfg.server_capacity = 16ULL << 20;
  cfg.seed = seed;
  TestCluster cluster(cfg);

  // Kill a random server at a random instant while the client hammers a
  // striped region. The client must observe only OK or clean errors.
  Rng planner(seed * 101);
  const auto victim = static_cast<uint32_t>(planner.NextBelow(4));
  const sim::Nanos when = Millis(1) + planner.NextBelow(Millis(10));
  const uint32_t victim_node = cluster.server_node(victim).id();
  cluster.sim().After(when,
                      [&, victim_node] { cluster.sim().KillNode(victim_node); });

  int ok_ops = 0, failed_ops = 0;
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 8ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(1 << 20);
    ASSERT_TRUE(buf.ok());
    Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      const uint64_t off = rng.NextBelow((8ULL << 20) - (1 << 20));
      Status st = rng.NextBool(0.5)
                      ? (*region)->Write(off, buf->data)
                      : (*region)->Read(off, buf->data);
      if (st.ok()) {
        ++ok_ops;
      } else {
        ++failed_ops;
        EXPECT_TRUE(st.code() == ErrorCode::kUnavailable ||
                    st.code() == ErrorCode::kTimedOut ||
                    st.code() == ErrorCode::kPermissionDenied)
            << st;
      }
      sim::Sleep(sim::Micros(200));
    }
  });
  // The run terminated (no hang) and every op resolved.
  EXPECT_EQ(ok_ops + failed_ops, 60);
  EXPECT_GT(ok_ops, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweepTest,
                         ::testing::Values(7, 17, 27, 37, 47));

// ---------------------------------------------------------------------------
// Whole-cluster determinism
// ---------------------------------------------------------------------------
TEST(DeterminismProperty, MixedWorkloadTimelineIsReproducible) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.memory_servers = 3;
    cfg.client_nodes = 2;
    cfg.master.slab_size = 1 << 20;
    cfg.server_capacity = 8ULL << 20;
    cfg.seed = 12345;
    TestCluster cluster(cfg);
    // One slot per client: indexing by client id keeps the comparison
    // order-independent (the timestamps themselves are the determinism
    // claim).
    std::vector<sim::Nanos> marks(2, 0);
    for (uint32_t c = 0; c < 2; ++c) {
      cluster.SpawnClient(c, [&, c](RStoreClient& client) {
        const std::string mine = "r" + std::to_string(c);
        (void)client.Ralloc(mine, 2ULL << 20);
        auto region = client.Rmap(mine);
        if (!region.ok()) return;
        auto buf = client.AllocBuffer(256 << 10);
        if (!buf.ok()) return;
        for (int i = 0; i < 10; ++i) {
          (void)(*region)->Write((i % 8) * (256 << 10), buf->data);
          (void)client.NotifyInc("tick");
        }
        (void)client.WaitNotify("tick", 20);
        marks[c] = sim::Now();
      });
    }
    cluster.sim().Run();
    return marks;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rstore
