// Tests for RKV, the key-value layer on RStore: CRUD semantics, probing
// and tombstones, capacity limits, multi-client sharing, concurrent
// writers (seqlock), and a randomized model-based sweep against
// std::map.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "kv/kv.h"
#include "sim/simulation.h"

namespace rstore::kv {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

ClusterConfig KvCluster(uint32_t clients = 1) {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = clients;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

std::vector<std::byte> Bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string Str(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

TEST(KvTest, PutGetDeleteRoundTrip) {
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok()) << kv.status();
    ASSERT_TRUE((*kv)->Put("alpha", "one").ok());
    ASSERT_TRUE((*kv)->Put("beta", "two").ok());
    auto a = (*kv)->Get("alpha");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(Str(*a), "one");
    EXPECT_EQ(Str(*(*kv)->Get("beta")), "two");
    EXPECT_EQ((*kv)->Get("gamma").code(), ErrorCode::kNotFound);
    ASSERT_TRUE((*kv)->Delete("alpha").ok());
    EXPECT_EQ((*kv)->Get("alpha").code(), ErrorCode::kNotFound);
    EXPECT_EQ((*kv)->Delete("alpha").code(), ErrorCode::kNotFound);
    EXPECT_EQ(Str(*(*kv)->Get("beta")), "two");
  });
}

TEST(KvTest, OverwriteReplacesValue) {
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("k", "v1").ok());
    ASSERT_TRUE((*kv)->Put("k", "a-considerably-longer-second-value").ok());
    EXPECT_EQ(Str(*(*kv)->Get("k")), "a-considerably-longer-second-value");
    ASSERT_TRUE((*kv)->Put("k", "v3").ok());
    EXPECT_EQ(Str(*(*kv)->Get("k")), "v3");
  });
}

TEST(KvTest, BinaryKeysAndValues) {
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok());
    std::string key("\x00\x01\xff\x7f", 4);
    std::vector<std::byte> value(100);
    Rng rng(5);
    rng.Fill(value.data(), value.size());
    ASSERT_TRUE((*kv)->Put(key, value).ok());
    auto got = (*kv)->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, value);
  });
}

TEST(KvTest, OversizedValueRejected) {
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok());
    std::vector<std::byte> big((*kv)->max_value_bytes() + 1);
    EXPECT_EQ((*kv)->Put("k", big).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ((*kv)->Put("", Bytes("x")).code(),
              ErrorCode::kInvalidArgument);
    // Exactly at capacity (minus the key) fits.
    std::vector<std::byte> fits((*kv)->max_value_bytes() - 1);
    EXPECT_TRUE((*kv)->Put("k", fits).ok());
  });
}

TEST(KvTest, CollisionsProbeAndTombstonesDoNotBreakChains) {
  // Tiny table: 4 buckets forces collisions quickly.
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    KvOptions opts;
    opts.buckets = 4;
    opts.max_probe = 4;
    auto kv = KvStore::Create(client, "tiny", opts);
    ASSERT_TRUE(kv.ok());
    // Fill the table completely.
    std::vector<std::string> keys = {"a", "b", "c", "d"};
    for (const auto& k : keys) {
      ASSERT_TRUE((*kv)->Put(k, "v" + k).ok()) << k;
    }
    // Table full now.
    EXPECT_EQ((*kv)->Put("e", "x").code(), ErrorCode::kOutOfMemory);
    // Delete one in the middle of some chain, the rest must stay
    // reachable (tombstones keep probes alive).
    ASSERT_TRUE((*kv)->Delete("b").ok());
    for (const auto& k : keys) {
      if (k == "b") continue;
      auto got = (*kv)->Get(k);
      ASSERT_TRUE(got.ok()) << k;
      EXPECT_EQ(Str(*got), "v" + k);
    }
    // The tombstone is reusable.
    EXPECT_TRUE((*kv)->Put("e", "ve").ok());
    EXPECT_EQ(Str(*(*kv)->Get("e")), "ve");
  });
}

TEST(KvTest, OpenSeesExistingTable) {
  TestCluster cluster(KvCluster(2));
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "shared");
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("city", "Zurich").ok());
    ASSERT_TRUE(client.NotifyInc("written").ok());
  });
  bool verified = false;
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("written", 1).ok());
    auto kv = KvStore::Open(client, "shared");
    ASSERT_TRUE(kv.ok()) << kv.status();
    EXPECT_EQ((*kv)->options().buckets, KvOptions{}.buckets);
    auto got = (*kv)->Get("city");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Str(*got), "Zurich");
    verified = true;
  });
  cluster.sim().Run();
  EXPECT_TRUE(verified);
}

TEST(KvTest, RecycledSlabsDoNotResurrectFreedKeys) {
  // t2 is handed t1's freed slabs; a table relies on a zeroed arena, so
  // those slabs must come back zeroed or t2 would find t1's keys.
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto t1 = KvStore::Create(client, "t1");
    ASSERT_TRUE(t1.ok()) << t1.status();
    ASSERT_TRUE((*t1)->Put("ghost", "boo").ok());
    const auto t1_slabs = (*client.Rmap("t1"))->desc().slabs;
    t1->reset();
    ASSERT_TRUE(client.Rfree("t1").ok());
    auto t2 = KvStore::Create(client, "t2");
    ASSERT_TRUE(t2.ok()) << t2.status();
    const auto t2_slabs = (*client.Rmap("t2"))->desc().slabs;
    ASSERT_TRUE(t2_slabs.front() == t1_slabs.front());
    EXPECT_EQ((*t2)->Get("ghost").code(), ErrorCode::kNotFound);
    ASSERT_TRUE((*t2)->Put("ghost", "new").ok());
    EXPECT_EQ(Str(*(*t2)->Get("ghost")), "new");
  });
}

TEST(KvTest, OpenRejectsNonTableRegion) {
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("blob", 1 << 20).ok());
    EXPECT_EQ(KvStore::Open(client, "blob").code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(KvStore::Open(client, "missing").code(),
              ErrorCode::kNotFound);
  });
}

// Writes a table header into a fresh region with `copies` copies of
// every slab.
void AllocTable(RStoreClient& client, const std::string& name,
                const KvOptions& geometry, uint32_t copies) {
  ASSERT_TRUE(client
                  .Ralloc(name,
                          SlotLayout::kHeaderBytes +
                              geometry.buckets * geometry.slot_bytes,
                          copies)
                  .ok());
  auto region = client.Rmap(name);
  ASSERT_TRUE(region.ok());
  auto hdr = client.AllocBuffer(SlotLayout::kHeaderBytes);
  ASSERT_TRUE(hdr.ok());
  SlotLayout::WriteHeader(hdr->begin(), geometry);
  ASSERT_TRUE((*region)->Write(0, hdr->data).ok());
}

TEST(KvTest, OpenRejectsReplicatedRegion) {
  // Remote atomics act on one copy: a table in a replicated region would
  // lock and write its primary alone, and the copies would diverge.
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    AllocTable(client, "replicated", KvOptions{}, 2);
    EXPECT_EQ(KvStore::Open(client, "replicated").code(),
              ErrorCode::kInvalidArgument);
    AllocTable(client, "single", KvOptions{}, 1);
    EXPECT_TRUE(KvStore::Open(client, "single").ok());
  });
}

TEST(KvTest, LinkFaultFailsOpsCleanlyAndTheStoreRecoversWhenItHeals) {
  // A partition errors the store's QPs. Ops fail in bounded virtual time
  // instead of hanging, and once the link heals the next op reconnects.
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok()) << kv.status();
    ASSERT_TRUE((*kv)->Put("k", "a").ok());
    const auto set_links = [&](bool down) {
      for (const auto& slab : (*kv)->region().desc().slabs) {
        cluster.net().fabric().SetLinkDown(sim::CurrentNode().id(),
                                           slab.server_node, down);
      }
    };
    set_links(true);
    const sim::Nanos t0 = sim::Now();
    EXPECT_FALSE((*kv)->Put("k", "b").ok());
    EXPECT_FALSE((*kv)->Get("k").ok());
    EXPECT_LT(sim::Now() - t0, sim::Seconds(10));  // bounded, not hung
    set_links(false);
    ASSERT_TRUE((*kv)->Put("k", "c").ok());
    auto got = (*kv)->Get("k");
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Str(*got), "c");
  });
}

TEST(KvTest, ConcurrentWritersOnDisjointKeys) {
  constexpr uint32_t kClients = 3;
  constexpr int kPerClient = 40;
  TestCluster cluster(KvCluster(kClients));
  int done = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    cluster.SpawnClient(c, [&, c](RStoreClient& client) {
      Result<std::unique_ptr<KvStore>> kv(ErrorCode::kInternal, "");
      if (c == 0) {
        kv = KvStore::Create(client, "shared");
        ASSERT_TRUE(client.NotifyInc("ready").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("ready", 1).ok());
        kv = KvStore::Open(client, "shared");
      }
      ASSERT_TRUE(kv.ok());
      for (int i = 0; i < kPerClient; ++i) {
        const std::string key =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        ASSERT_TRUE((*kv)->Put(key, "val" + key).ok()) << key;
      }
      ASSERT_TRUE(client.NotifyInc("wrote").ok());
      ASSERT_TRUE(client.WaitNotify("wrote", kClients).ok());
      // Every client verifies everyone's writes.
      for (uint32_t c2 = 0; c2 < kClients; ++c2) {
        for (int i = 0; i < kPerClient; ++i) {
          const std::string key =
              "c" + std::to_string(c2) + "-" + std::to_string(i);
          auto got = (*kv)->Get(key);
          ASSERT_TRUE(got.ok()) << key << ": " << got.status();
          ASSERT_EQ(Str(*got), "val" + key);
        }
      }
      ++done;
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(done, static_cast<int>(kClients));
}

TEST(KvTest, ConcurrentWritersOnTheSameKeyConverge) {
  constexpr uint32_t kClients = 3;
  TestCluster cluster(KvCluster(kClients));
  int done = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    cluster.SpawnClient(c, [&, c](RStoreClient& client) {
      Result<std::unique_ptr<KvStore>> kv(ErrorCode::kInternal, "");
      if (c == 0) {
        kv = KvStore::Create(client, "shared");
        ASSERT_TRUE(client.NotifyInc("ready").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("ready", 1).ok());
        kv = KvStore::Open(client, "shared");
      }
      ASSERT_TRUE(kv.ok());
      for (int i = 0; i < 30; ++i) {
        Status st =
            (*kv)->Put("hot", "from-" + std::to_string(c) + "-" +
                                  std::to_string(i));
        // kAborted (lost race for a fresh slot) is legal; retry.
        if (!st.ok()) {
          ASSERT_EQ(st.code(), ErrorCode::kAborted) << st;
          --i;
          continue;
        }
        // A GET racing the other clients' PUTs returns some complete
        // written value, never a torn mix.
        auto got = (*kv)->Get("hot");
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(Str(*got).rfind("from-", 0), 0u) << Str(*got);
      }
      ASSERT_TRUE(client.NotifyInc("wrote").ok());
      ASSERT_TRUE(client.WaitNotify("wrote", kClients).ok());
      auto got = (*kv)->Get("hot");
      ASSERT_TRUE(got.ok()) << got.status();
      // Value must be one of the written values, never torn.
      const std::string v = Str(*got);
      EXPECT_EQ(v.rfind("from-", 0), 0u) << v;
      ++done;
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(done, static_cast<int>(kClients));
}

// A second client's op on a key whose seqlock another client holds must
// wait for the release, not skip past the slot. Client 0 puts "k" = "a",
// takes k's seqlock with a raw CAS (2 -> 3), holds it for `hold` of
// virtual time and releases it by writing 4. `contender` runs on client
// 1 as soon as the lock is held; client 1 then waits for the release and
// runs `after`.
void WhileSlotLocked(const std::function<void(KvStore&)>& contender,
                     const std::function<void(KvStore&)>& after,
                     sim::Nanos hold = sim::Millis(2)) {
  TestCluster cluster(KvCluster(2));
  int done = 0;
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok()) << kv.status();
    ASSERT_TRUE(client.NotifyInc("ready").ok());
    ASSERT_TRUE(client.WaitNotify("opened", 1).ok());
    ASSERT_TRUE((*kv)->Put("k", "a").ok());
    const KvOptions& geo = (*kv)->options();
    const uint64_t version_at =
        SlotLayout::SlotOffset(SlotLayout::HomeSlot("k", geo.buckets),
                               geo.slot_bytes) +
        SlotLayout::kVersionOff;
    auto mapped = client.Rmap("table");
    ASSERT_TRUE(mapped.ok());
    core::MappedRegion& region = **mapped;
    auto old = region.CompareSwap(version_at, 2, 3);
    ASSERT_TRUE(old.ok()) << old.status();
    ASSERT_EQ(*old, 2u);
    ASSERT_TRUE(client.NotifyInc("locked").ok());
    sim::Sleep(hold);
    auto word = client.AllocBuffer(8);
    ASSERT_TRUE(word.ok());
    const uint64_t released = 4;
    std::memcpy(word->begin(), &released, 8);
    {
      check::SyncCellScope sync(client.device().network().sim().checker());
      ASSERT_TRUE(region.Write(version_at, word->data).ok());
    }
    ASSERT_TRUE(client.NotifyInc("released").ok());
    ++done;
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("ready", 1).ok());
    auto kv = KvStore::Open(client, "table");
    ASSERT_TRUE(kv.ok()) << kv.status();
    ASSERT_TRUE(client.NotifyInc("opened").ok());
    ASSERT_TRUE(client.WaitNotify("locked", 1).ok());
    contender(**kv);
    ASSERT_TRUE(client.WaitNotify("released", 1).ok());
    after(**kv);
    ++done;
  });
  cluster.sim().Run();
  EXPECT_EQ(done, 2);
}

TEST(KvTest, PutOnALockedSlotOverwritesTheKeyInPlace) {
  WhileSlotLocked(
      [](KvStore& kv) { ASSERT_TRUE(kv.Put("k", "b").ok()); },
      [](KvStore& kv) {
        EXPECT_EQ(Str(*kv.Get("k")), "b");
        ASSERT_TRUE(kv.Delete("k").ok());
        // A Put that skipped the locked slot would have written a second
        // "k" behind it, which the Delete leaves visible.
        EXPECT_EQ(kv.Get("k").code(), ErrorCode::kNotFound);
      });
}

// Retries go at once only while the holder makes progress: a stalled
// holder is outwaited by backoffs, so the retry budget lasts ~5 ms.
TEST(KvTest, PutOutwaitsAHolderThatHoldsForFiveMilliseconds) {
  WhileSlotLocked(
      [](KvStore& kv) {
        const Status st = kv.Put("k", "b");
        EXPECT_TRUE(st.ok()) << st;
        EXPECT_GE(kv.stats().version_retries, 100u);
      },
      [](KvStore& kv) { EXPECT_EQ(Str(*kv.Get("k")), "b"); },
      sim::Millis(5));
}

TEST(KvTest, DeleteOnALockedSlotWaitsAndDeletes) {
  WhileSlotLocked(
      [](KvStore& kv) {
        const Status st = kv.Delete("k");
        EXPECT_TRUE(st.ok()) << st;
      },
      [](KvStore& kv) {
        EXPECT_EQ(kv.Get("k").code(), ErrorCode::kNotFound);
      });
}

// Model-based sweep against std::map.
class KvModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvModelTest, MatchesStdMapUnderRandomOps) {
  const uint64_t seed = GetParam();
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    KvOptions opts;
    opts.buckets = 256;
    opts.max_probe = 16;
    auto kv = KvStore::Create(client, "model", opts);
    ASSERT_TRUE(kv.ok());
    std::map<std::string, std::string> model;
    Rng rng(seed);
    for (int step = 0; step < 400; ++step) {
      const std::string key = "k" + std::to_string(rng.NextBelow(64));
      const double dice = rng.NextDouble();
      if (dice < 0.5) {
        const std::string value =
            "v" + std::to_string(rng.Next() % 100000);
        Status st = (*kv)->Put(key, value);
        if (st.ok()) {
          model[key] = value;
        } else {
          ASSERT_EQ(st.code(), ErrorCode::kOutOfMemory) << st;
        }
      } else if (dice < 0.75) {
        Status st = (*kv)->Delete(key);
        if (model.contains(key)) {
          ASSERT_TRUE(st.ok()) << key << " " << st;
          model.erase(key);
        } else {
          ASSERT_EQ(st.code(), ErrorCode::kNotFound);
        }
      } else {
        auto got = (*kv)->Get(key);
        if (model.contains(key)) {
          ASSERT_TRUE(got.ok()) << key << " " << got.status();
          ASSERT_EQ(Str(*got), model[key]) << "step " << step;
        } else {
          ASSERT_EQ(got.code(), ErrorCode::kNotFound) << key;
        }
      }
    }
    // Full audit.
    for (const auto& [key, value] : model) {
      auto got = (*kv)->Get(key);
      ASSERT_TRUE(got.ok()) << key;
      ASSERT_EQ(Str(*got), value);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvModelTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(KvTest, StatsCountOperations) {
  TestCluster cluster(KvCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("a", "1").ok());
    (void)(*kv)->Get("a");
    (void)(*kv)->Get("missing-key");
    (void)(*kv)->Delete("a");
    EXPECT_EQ((*kv)->stats().puts, 1u);
    EXPECT_EQ((*kv)->stats().gets, 2u);
    EXPECT_EQ((*kv)->stats().deletes, 1u);
    EXPECT_GE((*kv)->stats().probe_reads, 4u);
  });
}

}  // namespace
}  // namespace rstore::kv
