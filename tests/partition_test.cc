// Determinism matrix for the per-node partition layout.
//
// The tentpole claim of the parallel simulator: the timeline — virtual
// end time, event count, every application-visible result — is a pure
// function of the workload and the seed, never of how many host worker
// threads dispatch it. These tests pin that claim across
// host_threads in {1, 2, 4, 8} for the workload shapes the experiments
// lean on (E4 PageRank over the BSP engine, E9 KV point ops, the rcheck
// planted-race explore workload), plus the epoch-boundary edge cases:
// an event posted exactly one conservative lookahead ahead fires at its
// exact timestamp, and verbs completions land on the initiator's
// partition with a thread-count-independent timeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "carafe/engine.h"
#include "carafe/graph.h"
#include "carafe/storage.h"
#include "check/check.h"
#include "core/cluster.h"
#include "explore/policy.h"
#include "explore/workloads.h"
#include "kv/kv.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"
#include "verbs/verbs.h"

namespace rstore {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

constexpr uint32_t kThreadMatrix[] = {1, 2, 4, 8};

// Everything one run exposes: the exact virtual clock at quiescence, the
// number of events dispatched, and a workload-defined digest of the
// application-visible results. Identical signatures = identical runs.
struct RunSignature {
  uint64_t vnanos = 0;
  uint64_t events = 0;
  std::string digest;

  bool operator==(const RunSignature&) const = default;
};

// Scoped RSTORE_HOST_THREADS override for workloads that construct their
// own Simulation (the explore workloads). Restores the prior value so the
// test stays hermetic under the CI parallel-determinism gate.
class HostThreadsGuard {
 public:
  explicit HostThreadsGuard(uint32_t n) {
    if (const char* prev = std::getenv("RSTORE_HOST_THREADS");
        prev != nullptr) {
      had_prev_ = true;
      prev_ = prev;
    }
    setenv("RSTORE_HOST_THREADS", std::to_string(n).c_str(),
           /*overwrite=*/1);
  }
  ~HostThreadsGuard() {
    if (had_prev_) {
      setenv("RSTORE_HOST_THREADS", prev_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("RSTORE_HOST_THREADS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

// ------------------------------------------------------ E4: PageRank ----
// Two BSP workers run distributed PageRank; the digest is the exact bit
// pattern of every rank (floating point must match bitwise, not merely
// within tolerance — the runs are supposed to be the *same* run).
RunSignature RunPageRank(uint32_t host_threads) {
  const carafe::Graph g = carafe::UniformRandomGraph(1 << 8, 6.0, 4);
  constexpr uint32_t kWorkers = 2;

  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = kWorkers;
  cfg.server_capacity = 32ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  cfg.host_threads = host_threads;
  TestCluster cluster(cfg);

  std::vector<std::vector<double>> results(kWorkers);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(carafe::UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      carafe::Worker worker(client, "g",
                            carafe::WorkerConfig{w, kWorkers, "pr"});
      ASSERT_TRUE(worker.Init().ok());
      auto ranks = worker.PageRank({.iterations = 5});
      ASSERT_TRUE(ranks.ok()) << ranks.status();
      results[w] = std::move(*ranks);
    });
  }
  cluster.sim().Run();

  RunSignature sig;
  sig.vnanos = cluster.sim().NowNanos();
  sig.events = cluster.sim().events_processed();
  for (const auto& ranks : results) {
    const size_t off = sig.digest.size();
    sig.digest.resize(off + ranks.size() * sizeof(double));
    std::memcpy(sig.digest.data() + off, ranks.data(),
                ranks.size() * sizeof(double));
  }
  return sig;
}

TEST(PartitionMatrixTest, PageRankTimelineIdenticalAcrossHostThreads) {
  const RunSignature ref = RunPageRank(kThreadMatrix[0]);
  EXPECT_FALSE(ref.digest.empty());
  for (size_t i = 1; i < std::size(kThreadMatrix); ++i) {
    const RunSignature got = RunPageRank(kThreadMatrix[i]);
    EXPECT_EQ(got.vnanos, ref.vnanos) << "threads=" << kThreadMatrix[i];
    EXPECT_EQ(got.events, ref.events) << "threads=" << kThreadMatrix[i];
    EXPECT_EQ(got.digest, ref.digest) << "threads=" << kThreadMatrix[i];
  }
  // The one-queue layout runs the same model on one shared event queue;
  // its application results (the ranks) must agree bitwise even though
  // its bookkeeping (event count) may differ.
  const RunSignature shared = RunPageRank(0);
  EXPECT_EQ(shared.digest, ref.digest);
}

// ------------------------------------------------------------ E9: KV ----
// Writer fills a shared table and releases the reader through the
// master's notify channel; the reader digests every value it observes.
RunSignature RunKv(uint32_t host_threads) {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 2;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  cfg.host_threads = host_threads;
  TestCluster cluster(cfg);

  constexpr int kKeys = 32;
  std::string observed;
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    auto kv = kv::KvStore::Create(client, "shared");
    ASSERT_TRUE(kv.ok()) << kv.status();
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE((*kv)
                      ->Put("key" + std::to_string(k),
                            "value-" + std::to_string(k * 17))
                      .ok());
    }
    ASSERT_TRUE(client.NotifyInc("filled").ok());
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("filled", 1).ok());
    auto kv = kv::KvStore::Open(client, "shared");
    ASSERT_TRUE(kv.ok()) << kv.status();
    for (int k = 0; k < kKeys; ++k) {
      auto v = (*kv)->Get("key" + std::to_string(k));
      ASSERT_TRUE(v.ok()) << "key" << k << ": " << v.status();
      observed.append(reinterpret_cast<const char*>(v->data()), v->size());
      observed.push_back(';');
    }
  });
  cluster.sim().Run();

  RunSignature sig;
  sig.vnanos = cluster.sim().NowNanos();
  sig.events = cluster.sim().events_processed();
  sig.digest = std::move(observed);
  return sig;
}

TEST(PartitionMatrixTest, KvTimelineIdenticalAcrossHostThreads) {
  const RunSignature ref = RunKv(kThreadMatrix[0]);
  EXPECT_FALSE(ref.digest.empty());
  for (size_t i = 1; i < std::size(kThreadMatrix); ++i) {
    const RunSignature got = RunKv(kThreadMatrix[i]);
    EXPECT_EQ(got.vnanos, ref.vnanos) << "threads=" << kThreadMatrix[i];
    EXPECT_EQ(got.events, ref.events) << "threads=" << kThreadMatrix[i];
    EXPECT_EQ(got.digest, ref.digest) << "threads=" << kThreadMatrix[i];
  }
  const RunSignature shared = RunKv(0);
  EXPECT_EQ(shared.digest, ref.digest);
}

// ------------------------------------- rcheck + rexplore planted race ----
// The race-unfenced explore workload under a seeded random-walk policy
// and the happens-before checker. Attaching either serializes dispatch,
// so this pins the other half of the claim: the *serialized* per-node
// timeline — including the checker's report and the policy's decision
// sequence — does not depend on the configured worker count.
RunSignature RunPlantedRace(uint32_t host_threads, uint64_t seed) {
  HostThreadsGuard guard(host_threads);
  const auto workloads = explore::BuiltinWorkloads();
  const explore::NamedWorkload* wl =
      explore::FindWorkload(workloads, "race-unfenced");
  EXPECT_NE(wl, nullptr);

  explore::RandomWalkPolicy policy(seed);
  check::Checker checker;
  RunSignature sig;
  explore::RunContext ctx;
  ctx.policy = &policy;
  ctx.checker = &checker;
  ctx.out_final_vtime = &sig.vnanos;
  ctx.out_events = &sig.events;
  wl->workload(ctx);

  std::ostringstream report;
  checker.DumpJson(report);
  sig.digest = report.str();
  return sig;
}

TEST(PartitionMatrixTest, PlantedRaceReportIdenticalAcrossHostThreads) {
  for (uint64_t seed : {7u, 23u}) {
    const RunSignature ref = RunPlantedRace(kThreadMatrix[0], seed);
    for (size_t i = 1; i < std::size(kThreadMatrix); ++i) {
      const RunSignature got = RunPlantedRace(kThreadMatrix[i], seed);
      EXPECT_EQ(got.vnanos, ref.vnanos)
          << "seed=" << seed << " threads=" << kThreadMatrix[i];
      EXPECT_EQ(got.events, ref.events)
          << "seed=" << seed << " threads=" << kThreadMatrix[i];
      EXPECT_EQ(got.digest, ref.digest)
          << "seed=" << seed << " threads=" << kThreadMatrix[i];
    }
  }
}

// ----------------------------------------------- epoch-boundary edges ----
// An event posted exactly one conservative lookahead ahead of the source
// clock sits exactly on the epoch horizon (dispatch is strict t < until):
// it must NOT run in the posting epoch, and must fire in a later epoch at
// exactly its timestamp — never clamped, never early.
TEST(PartitionEdgeTest, EventAtLookaheadHorizonFiresAtExactTime) {
  const sim::Nanos la = sim::ConservativeLookahead(sim::NicConfig{});
  ASSERT_GT(la, 0u);
  for (uint32_t threads : {0u, 1u, 2u, 8u}) {
    sim::Simulation sim(
        sim::SimConfig{.seed = 1, .host_threads = threads});
    verbs::Network net(sim);  // attaches the fabric => finite lookahead
    sim::Node& a = sim.AddNode("a");
    sim::Node& b = sim.AddNode("b");
    net.AddDevice(a);
    net.AddDevice(b);
    uint64_t fired_at = 0;
    a.Spawn("poster", [&] {
      sim::Sleep(sim::Micros(5));
      const sim::Nanos t0 = sim::Now();
      sim.PostToNode(b.id(), t0 + la,
                     [&] { fired_at = sim.NowNanos(); });
    });
    sim.Run();
    EXPECT_EQ(fired_at, sim::Micros(5) + la) << "threads=" << threads;
  }
}

// A verbs RDMA WRITE issued cross-partition: the payload must land in the
// target's memory and the completion must surface on the initiator's CQ,
// with the identical completion timestamp for every worker count.
TEST(PartitionEdgeTest, CrossPartitionWriteCompletionIsDeterministic) {
  auto run = [](uint32_t threads) {
    sim::Simulation sim(
        sim::SimConfig{.seed = 1, .host_threads = threads});
    verbs::Network net(sim);
    sim::Node& cn = sim.AddNode("client");
    sim::Node& sn = sim.AddNode("server");
    verbs::Device& cdev = net.AddDevice(cn);
    verbs::Device& sdev = net.AddDevice(sn);

    std::vector<std::byte> src(4096), dst(4096);
    verbs::ProtectionDomain& spd = sdev.CreatePd();
    auto dst_mr = spd.RegisterMemory(
        dst.data(), dst.size(),
        verbs::kLocalWrite | verbs::kRemoteWrite);
    EXPECT_TRUE(dst_mr.ok());

    uint64_t completion_vtime = 0;
    net.Listen(sdev, 7);
    sn.Spawn("server", [&] {
      auto qp = net.Listen(sdev, 7).Accept();
      ASSERT_TRUE(qp.ok());
    });
    cn.Spawn("client", [&] {
      auto qp = net.Connect(cdev, sn.id(), 7);
      ASSERT_TRUE(qp.ok()) << qp.status();
      verbs::ProtectionDomain& cpd = cdev.CreatePd();
      auto src_mr = cpd.RegisterMemory(src.data(), src.size(),
                                       verbs::kLocalWrite);
      ASSERT_TRUE(src_mr.ok());
      for (size_t i = 0; i < src.size(); ++i) src[i] = std::byte(i & 0xFF);
      ASSERT_TRUE((*qp)
                      ->PostSend(verbs::SendWr{
                          .wr_id = 9,
                          .opcode = verbs::Opcode::kRdmaWrite,
                          .local = {src.data(), 4096, (*src_mr)->lkey()},
                          .remote_addr = (*dst_mr)->remote_addr(),
                          .rkey = (*dst_mr)->rkey()})
                      .ok());
      auto wc = (*qp)->send_cq().WaitOne();
      ASSERT_TRUE(wc.ok());
      EXPECT_TRUE(wc->ok());
      completion_vtime = sim::Now();
    });
    sim.Run();
    EXPECT_TRUE(std::memcmp(src.data(), dst.data(), 4096) == 0)
        << "threads=" << threads;
    return completion_vtime;
  };
  const uint64_t ref = run(1);
  EXPECT_GT(ref, 0u);
  for (uint32_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), ref) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rstore
