// Tests for rcheck, the happens-before race and access-lifetime checker.
//
// Six injected violations — one per class the checker must catch — each
// asserted to be reported exactly once, plus the two meta-properties the
// design leans on: zero probe effect (attaching the checker never moves
// virtual time) and zero false positives on representative E4 (PageRank)
// and E9 (KV) workloads. One more pins that annotation scopes stay with
// the simulated thread that opened them.
//
// All tests attach the checker programmatically, so Shutdown() leaves
// the verdict to the test instead of aborting the process.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "carafe/engine.h"
#include "carafe/graph.h"
#include "carafe/storage.h"
#include "check/check.h"
#include "core/cluster.h"
#include "kv/kv.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"

namespace rstore {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::RmapOptions;
using core::TestCluster;

size_t CountType(const check::Checker& checker, check::ViolationType type) {
  size_t n = 0;
  for (const check::Violation& v : checker.violations()) {
    if (v.type == type) ++n;
  }
  return n;
}

ClusterConfig TwoClientConfig() {
  ClusterConfig cfg;
  cfg.memory_servers = 1;
  cfg.client_nodes = 2;
  cfg.server_capacity = 32ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

// --------------------------------------------- injected violations ----

// Two clients write overlapping bytes of the same region with no
// synchronization between the writes: the canonical remote/remote race.
TEST(CheckTest, RemoteWriteWriteRaceReportedOnce) {
  check::Checker checker;
  TestCluster cluster(TwoClientConfig());
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      auto buf = client.AllocBuffer(64);
      ASSERT_TRUE(buf.ok());
      std::memset(buf->begin(), 0x40 + static_cast<int>(w), 64);
      if (w == 0) {
        ASSERT_TRUE(client.Ralloc("shared", 64 << 10).ok());
        auto region = client.Rmap("shared");
        ASSERT_TRUE(region.ok());
        // The notify edge predates the write, so the write itself stays
        // unordered against client 1's.
        ASSERT_TRUE(client.NotifyInc("ready").ok());
        ASSERT_TRUE((*region)->Write(0, buf->data).ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("ready", 1).ok());
        auto region = client.Rmap("shared");
        ASSERT_TRUE(region.ok());
        ASSERT_TRUE((*region)->Write(0, buf->data).ok());
      }
    });
  }
  cluster.sim().Run();

  EXPECT_EQ(CountType(checker, check::ViolationType::kRace), 1u);
  EXPECT_EQ(checker.violations().size(), 1u);
}

// A reader chases a write whose completion the writer never observed
// before signaling: the notify edge is not a fence, so the read races
// the still-pending write.
TEST(CheckTest, ReadRacingUnfencedWriteReportedOnce) {
  check::Checker checker;
  TestCluster cluster(TwoClientConfig());
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      auto buf = client.AllocBuffer(64);
      ASSERT_TRUE(buf.ok());
      if (w == 0) {
        ASSERT_TRUE(client.Ralloc("unfenced", 64 << 10).ok());
        auto region = client.Rmap("unfenced");
        ASSERT_TRUE(region.ok());
        std::memset(buf->begin(), 0x7A, 64);
        auto future = (*region)->WriteAsync(0, buf->data);
        ASSERT_TRUE(future.ok());
        // Signal before waiting: the classic missing-fence bug.
        ASSERT_TRUE(client.NotifyInc("posted").ok());
        ASSERT_TRUE(client.WaitNotify("read-done", 1).ok());
        ASSERT_TRUE(future->Wait().ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("posted", 1).ok());
        auto region = client.Rmap("unfenced");
        ASSERT_TRUE(region.ok());
        ASSERT_TRUE((*region)->Read(0, buf->data).ok());
        ASSERT_TRUE(client.NotifyInc("read-done").ok());
      }
    });
  }
  cluster.sim().Run();

  ASSERT_EQ(CountType(checker, check::ViolationType::kRace), 1u);
  EXPECT_EQ(checker.violations().size(), 1u);
  // The report must carry the un-fenced (never observed) endpoint.
  const check::Violation& v = checker.violations().front();
  EXPECT_TRUE(v.a.pending || v.b.pending);
}

// The DumpJson schema is what tools/rcheck_report and the CI artifact
// pipeline consume. Reproduce the un-fenced race above, dump it, parse it
// back with the same dependency-free reader the tool uses, and pin every
// field the tool touches against the checker's in-memory violation.
TEST(CheckTest, DumpJsonMatchesReportSchema) {
  check::Checker checker;
  TestCluster cluster(TwoClientConfig());
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      auto buf = client.AllocBuffer(64);
      ASSERT_TRUE(buf.ok());
      if (w == 0) {
        ASSERT_TRUE(client.Ralloc("schema", 64 << 10).ok());
        auto region = client.Rmap("schema");
        ASSERT_TRUE(region.ok());
        auto future = (*region)->WriteAsync(0, buf->data);
        ASSERT_TRUE(future.ok());
        ASSERT_TRUE(client.NotifyInc("posted").ok());
        ASSERT_TRUE(client.WaitNotify("read-done", 1).ok());
        ASSERT_TRUE(future->Wait().ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("posted", 1).ok());
        auto region = client.Rmap("schema");
        ASSERT_TRUE(region.ok());
        ASSERT_TRUE((*region)->Read(0, buf->data).ok());
        ASSERT_TRUE(client.NotifyInc("read-done").ok());
      }
    });
  }
  cluster.sim().Run();
  ASSERT_EQ(checker.violations().size(), 1u);
  const check::Violation& want = checker.violations().front();

  std::ostringstream os;
  checker.DumpJson(os);
  auto parsed = obs::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_TRUE(parsed->Is(obs::JsonValue::Type::kObject));
  const obs::JsonValue* violations = parsed->Find("violations");
  ASSERT_NE(violations, nullptr);
  ASSERT_TRUE(violations->Is(obs::JsonValue::Type::kArray));
  ASSERT_EQ(violations->array.size(), 1u);
  const obs::JsonValue& v = violations->array.front();

  const obs::JsonValue* type = v.Find("type");
  ASSERT_NE(type, nullptr);
  ASSERT_TRUE(type->Is(obs::JsonValue::Type::kString));
  EXPECT_EQ(type->str, check::ToString(want.type));

  const obs::JsonValue* target = v.Find("target_node");
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->Is(obs::JsonValue::Type::kNumber));
  EXPECT_EQ(static_cast<uint32_t>(target->number), want.target_node);

  const obs::JsonValue* region = v.Find("region");
  ASSERT_NE(region, nullptr);
  ASSERT_TRUE(region->Is(obs::JsonValue::Type::kString));
  EXPECT_EQ(region->str, "schema");

  const obs::JsonValue* lo = v.Find("region_lo");
  const obs::JsonValue* hi = v.Find("region_hi");
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  ASSERT_TRUE(lo->Is(obs::JsonValue::Type::kNumber));
  ASSERT_TRUE(hi->Is(obs::JsonValue::Type::kNumber));
  EXPECT_LT(lo->number, hi->number);

  const obs::JsonValue* detail = v.Find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_TRUE(detail->Is(obs::JsonValue::Type::kString));

  const auto check_endpoint = [](const obs::JsonValue* e,
                                 const check::Endpoint& w) {
    ASSERT_NE(e, nullptr);
    ASSERT_TRUE(e->Is(obs::JsonValue::Type::kObject));
    for (const char* field : {"node", "vtime", "lo", "hi"}) {
      const obs::JsonValue* n = e->Find(field);
      ASSERT_NE(n, nullptr) << field;
      EXPECT_TRUE(n->Is(obs::JsonValue::Type::kNumber)) << field;
    }
    EXPECT_EQ(static_cast<uint32_t>(e->Find("node")->number), w.node);
    EXPECT_EQ(static_cast<uint64_t>(e->Find("lo")->number), w.lo);
    EXPECT_EQ(static_cast<uint64_t>(e->Find("hi")->number), w.hi);
    const obs::JsonValue* kind = e->Find("kind");
    ASSERT_NE(kind, nullptr);
    ASSERT_TRUE(kind->Is(obs::JsonValue::Type::kString));
    EXPECT_EQ(kind->str, check::ToString(w.kind));
    const obs::JsonValue* remote = e->Find("remote");
    ASSERT_NE(remote, nullptr);
    ASSERT_TRUE(remote->Is(obs::JsonValue::Type::kBool));
    EXPECT_EQ(remote->boolean, w.remote);
    const obs::JsonValue* pending = e->Find("pending");
    ASSERT_NE(pending, nullptr);
    ASSERT_TRUE(pending->Is(obs::JsonValue::Type::kBool));
    EXPECT_EQ(pending->boolean, w.pending);
    const obs::JsonValue* label = e->Find("label");
    ASSERT_NE(label, nullptr);
    EXPECT_TRUE(label->Is(obs::JsonValue::Type::kString));
  };
  check_endpoint(v.Find("a"), want.a);
  check_endpoint(v.Find("b"), want.b);
}

// A write lands in a region another client already freed.
TEST(CheckTest, UseAfterRfreeReportedOnce) {
  check::Checker checker;
  TestCluster cluster(TwoClientConfig());
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      auto buf = client.AllocBuffer(64);
      ASSERT_TRUE(buf.ok());
      if (w == 0) {
        ASSERT_TRUE(client.Ralloc("doomed", 64 << 10).ok());
        ASSERT_TRUE(client.NotifyInc("alloc").ok());
        ASSERT_TRUE(client.WaitNotify("mapped", 1).ok());
        ASSERT_TRUE(client.Rfree("doomed").ok());
        ASSERT_TRUE(client.NotifyInc("freed").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("alloc", 1).ok());
        auto region = client.Rmap("doomed");
        ASSERT_TRUE(region.ok());
        ASSERT_TRUE(client.NotifyInc("mapped").ok());
        ASSERT_TRUE(client.WaitNotify("freed", 1).ok());
        // The mapping still resolves to the old slabs; the bytes now
        // belong to nobody (or, worse, to the next allocation).
        std::memset(buf->begin(), 0x5C, 64);
        (void)(*region)->Write(0, buf->data);
      }
    });
  }
  cluster.sim().Run();

  EXPECT_EQ(CountType(checker, check::ViolationType::kUseAfterFree), 1u);
  EXPECT_EQ(checker.violations().size(), 1u);
}

// A local buffer is deregistered while an async write still reads it.
TEST(CheckTest, UseAfterDeregisterReportedOnce) {
  ClusterConfig cfg = TwoClientConfig();
  cfg.client_nodes = 1;
  check::Checker checker;
  TestCluster cluster(cfg);
  cluster.sim().AttachChecker(&checker);

  cluster.RunClient([](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("dereg", 64 << 10).ok());
    auto region = client.Rmap("dereg");
    ASSERT_TRUE(region.ok());
    std::vector<std::byte> buf(4096, std::byte{0x11});
    ASSERT_TRUE(client.RegisterBuffer(buf).ok());
    auto future = (*region)->WriteAsync(0, buf);
    ASSERT_TRUE(future.ok());
    // The NIC may still be streaming from `buf`; yanking the
    // registration out from under the in-flight WR is the bug.
    ASSERT_TRUE(client.UnregisterBuffer(buf).ok());
    (void)future->Wait();
  });

  EXPECT_EQ(CountType(checker, check::ViolationType::kUseAfterDereg), 1u);
  EXPECT_EQ(checker.violations().size(), 1u);
}

// Rgrow while a write to the region is still in flight: the master may
// re-stripe or append slabs while the WR is on the wire.
TEST(CheckTest, RgrowRacingInFlightWriteReportedOnce) {
  ClusterConfig cfg = TwoClientConfig();
  // A long flight time keeps the write un-acked while the other
  // client's Rgrow — posted one notify round-trip later — is already
  // being handled at the master.
  cfg.nic.base_latency = sim::Micros(25);
  check::Checker checker;
  TestCluster cluster(cfg);
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(client.Ralloc("growing", 1ULL << 20).ok());
        auto region = client.Rmap("growing");
        ASSERT_TRUE(region.ok());
        auto buf = client.AllocBuffer(512 << 10);
        ASSERT_TRUE(buf.ok());
        std::memset(buf->begin(), 0x33, buf->size());
        // Warm the data QP so the racing write below posts the instant
        // the notify reply lands instead of paying the CM handshake.
        ASSERT_TRUE(
            (*region)->Write(0, buf->data.subspan(0, 64)).ok());
        ASSERT_TRUE(client.NotifyInc("alloc").ok());
        // Posted the instant the notify reply lands: the half-megabyte
        // write is still serializing when client 1's Rgrow reaches the
        // master.
        auto future = (*region)->WriteAsync(0, buf->data);
        ASSERT_TRUE(future.ok());
        ASSERT_TRUE(future->Wait().ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("alloc", 1).ok());
        ASSERT_TRUE(client.Rgrow("growing", 2ULL << 20).ok());
      }
    });
  }
  cluster.sim().Run();

  EXPECT_EQ(CountType(checker, check::ViolationType::kGrowRace), 1u);
  EXPECT_EQ(checker.violations().size(), 1u);
}

// A remote writer invalidates bytes another client holds cached in
// epoch mode after writing them through: the cached copy silently
// diverges from remote memory until the next BumpEpoch.
TEST(CheckTest, EpochCacheModeViolationReportedOnce) {
  check::Checker checker;
  TestCluster cluster(TwoClientConfig());
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      auto buf = client.AllocBuffer(4096);
      ASSERT_TRUE(buf.ok());
      if (w == 0) {
        ASSERT_TRUE(client.Ralloc("epoch", 64 << 10).ok());
        ASSERT_TRUE(client.NotifyInc("alloc").ok());
        ASSERT_TRUE(client.WaitNotify("cached", 1).ok());
        auto region = client.Rmap("epoch");
        ASSERT_TRUE(region.ok());
        // Ordered after client 1's accesses (no race), but stomping
        // bytes client 1 wrote through its epoch cache.
        std::memset(buf->begin(), 0x66, 128);
        ASSERT_TRUE(
            (*region)->Write(0, std::span<const std::byte>(buf->begin(), 128))
                .ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("alloc", 1).ok());
        auto region = client.Rmap(
            "epoch", RmapOptions{.cache_mode = cache::CacheMode::kEpoch});
        ASSERT_TRUE(region.ok());
        // Fill page 0, then write through it so the frame carries bytes
        // this client believes it authored.
        ASSERT_TRUE((*region)->Read(0, buf->data).ok());
        std::memset(buf->begin(), 0x55, 128);
        ASSERT_TRUE(
            (*region)->Write(0, std::span<const std::byte>(buf->begin(), 128))
                .ok());
        ASSERT_TRUE(client.NotifyInc("cached").ok());
      }
    });
  }
  cluster.sim().Run();

  EXPECT_EQ(CountType(checker, check::ViolationType::kCacheMode), 1u);
  EXPECT_EQ(checker.violations().size(), 1u);
}

// ------------------------------------------------- annotation scopes ----

// Annotation scopes belong to the simulated thread that opened them. Two
// threads share one node, and so one host thread: while one is parked
// inside a SpeculativeScope and an OpLabelScope, the other's one-sided
// access must be recorded as non-speculative, under its own label.
TEST(CheckScopeTest, ParkedThreadsScopesStayWithIt) {
  check::Checker checker;
  sim::Simulation sim;
  sim.AttachChecker(&checker);
  sim::Node& client = sim.AddNode("client");
  (void)sim.AddNode("server");
  constexpr uint64_t kLo = 1 << 20;
  constexpr uint64_t kHi = kLo + 4096;
  checker.OnRegionSlab(1, "r", kHi - kLo, 1, kLo, kHi, 0);
  // Every recorded post from the client to the region now reports a
  // use-after-unmap carrying the post's label.
  checker.OnUnmap(0, 1);
  uint32_t parked_ref = ~0u;
  const char* parked_label = nullptr;
  uint32_t other_ref = 0;
  client.Spawn("parked", [&] {
    check::SpeculativeScope speculative(&checker);
    check::OpLabelScope label(&checker, "parked.read");
    sim::Sleep(sim::Micros(10));
    parked_label = check::detail::CurrentLabel();
    parked_ref = checker.OnPost(0, 1, check::OpClass::kRemoteRead, kLo,
                                kLo + 8, nullptr, 0, 1);
  });
  client.Spawn("other", [&] {
    sim::Sleep(sim::Micros(5));
    check::OpLabelScope label(&checker, "other.write");
    other_ref = checker.OnPost(0, 1, check::OpClass::kRemoteWrite, kLo,
                               kLo + 8, nullptr, 0, 1);
  });
  sim.Run();
  EXPECT_NE(other_ref, 0u);   // recorded: not speculative
  EXPECT_EQ(parked_ref, 0u);  // the parked thread's own scope still holds
  EXPECT_STREQ(parked_label, "parked.read");
  ASSERT_EQ(checker.violation_count(), 1u);
  EXPECT_EQ(checker.violations()[0].type, check::ViolationType::kUseAfterUnmap);
  EXPECT_EQ(checker.violations()[0].b.label, "other.write");
  EXPECT_EQ(check::detail::CurrentLabel(), nullptr);  // driver's own scopes
}

// ------------------------------------------------- meta-properties ----

// E4-style distributed PageRank; returns the final virtual time.
uint64_t RunPageRank(check::Checker* checker) {
  carafe::Graph g = carafe::UniformRandomGraph(1 << 8, 4.0, 4);
  constexpr uint32_t kWorkers = 2;
  ClusterConfig cfg;
  cfg.memory_servers = 2;
  cfg.client_nodes = kWorkers;
  cfg.server_capacity = 32ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  TestCluster cluster(cfg);
  if (checker != nullptr) cluster.sim().AttachChecker(checker);
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
      ASSERT_TRUE(worker.PageRank({.iterations = 5}).ok());
    });
  }
  cluster.sim().Run();
  return static_cast<uint64_t>(cluster.sim().NowNanos());
}

// rcheck observes the simulation; it must never steer it. The same
// workload runs to the same final virtual time, bit for bit, with the
// checker off and on — and the clean workload reports nothing.
TEST(CheckProbeEffectTest, PageRankVirtualTimeIdenticalUnderRcheck) {
  const uint64_t off = RunPageRank(nullptr);
  ASSERT_GT(off, 0u);

  check::Checker checker;
  EXPECT_EQ(RunPageRank(&checker), off);
  EXPECT_TRUE(checker.violations().empty());
}

// E9-style KV workload — concurrent writers on one table, slot cache
// on — is data-race-free by construction (seqlock + CAS lock), so the
// checker must stay silent.
TEST(CheckFalsePositiveTest, KvWorkloadReportsNothing) {
  check::Checker checker;
  TestCluster cluster(TwoClientConfig());
  cluster.sim().AttachChecker(&checker);

  for (uint32_t w = 0; w < 2; ++w) {
    cluster.SpawnClient(w, [w](RStoreClient& client) {
      std::unique_ptr<kv::KvStore> store;
      kv::KvOptions options;
      options.buckets = 64;
      options.slot_bytes = 256;
      options.max_probe = 8;
      options.cache_slots = 16;
      if (w == 0) {
        auto created = kv::KvStore::Create(client, "table", options);
        ASSERT_TRUE(created.ok());
        store = std::move(*created);
        ASSERT_TRUE(client.NotifyInc("table-up").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("table-up", 1).ok());
        auto opened = kv::KvStore::Open(client, "table", 16);
        ASSERT_TRUE(opened.ok());
        store = std::move(*opened);
      }
      // Both clients hammer the same keys: seqlock retries and CAS
      // contention galore, but no actual race.
      for (int round = 0; round < 8; ++round) {
        for (int k = 0; k < 4; ++k) {
          const std::string key = "key" + std::to_string(k);
          std::vector<std::byte> value(32, std::byte{static_cast<uint8_t>(
                                               w * 16 + round)});
          Status put = store->Put(key, value);
          ASSERT_TRUE(put.ok() || put.code() == ErrorCode::kAborted);
          auto got = store->Get(key);
          ASSERT_TRUE(got.ok() || got.code() == ErrorCode::kNotFound);
        }
      }
    });
  }
  cluster.sim().Run();

  EXPECT_TRUE(checker.violations().empty());
}

}  // namespace
}  // namespace rstore
