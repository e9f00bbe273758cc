// Tests for the RStore core: master allocation/mapping/leases, memory
// server registration, and the client's memory-like API (ralloc/rmap/
// read/write/rfree, async IO, atomics, notifications, mapping cache,
// failure handling).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"

namespace rstore::core {
namespace {

using sim::Micros;
using sim::Millis;
using sim::Nanos;
using sim::Seconds;

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 2;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;  // 1 MiB slabs: 16 per server
  return cfg;
}

// Fills a span deterministically from a seed.
void FillPattern(std::span<std::byte> buf, uint64_t seed) {
  Rng rng(seed);
  rng.Fill(buf.data(), buf.size());
}

// ------------------------------------------------------------ bootstrap --
TEST(ClusterTest, ServersRegisterAndReportCapacity) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    auto stat = client.Stat();
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->live_servers, 4u);
    EXPECT_EQ(stat->total_bytes, 4 * (16ULL << 20));
    EXPECT_EQ(stat->free_bytes, stat->total_bytes);
    EXPECT_EQ(stat->regions, 0u);
  });
  EXPECT_EQ(cluster.master().live_servers(), 4u);
}

// ----------------------------------------------------------- allocation --
TEST(AllocTest, AllocCreatesStripedRegion) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("graph", 4ULL << 20).ok());  // 4 slabs
    auto region = client.Rmap("graph");
    ASSERT_TRUE(region.ok()) << region.status();
    const RegionDesc& desc = (*region)->desc();
    EXPECT_EQ(desc.size, 4ULL << 20);
    EXPECT_EQ(desc.slab_size, 1ULL << 20);
    ASSERT_EQ(desc.slabs.size(), 4u);
    // Round-robin striping: 4 slabs over 4 servers → all distinct.
    std::set<uint32_t> nodes;
    for (const auto& slab : desc.slabs) nodes.insert(slab.server_node);
    EXPECT_EQ(nodes.size(), 4u);
  });
}

TEST(AllocTest, SubSlabAllocationRoundsUp) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("tiny", 100).ok());
    auto region = client.Rmap("tiny");
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->desc().slabs.size(), 1u);
    EXPECT_EQ((*region)->size(), 100u);
    auto stat = client.Stat();
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->free_bytes, stat->total_bytes - (1ULL << 20));
  });
}

TEST(AllocTest, DuplicateNameRejected) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("dup", 1024).ok());
    auto again = client.Ralloc("dup", 1024);
    EXPECT_EQ(again.code(), ErrorCode::kAlreadyExists);
  });
}

TEST(AllocTest, ExhaustionReturnsOutOfMemory) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    // Cluster holds 64 MiB total; ask for more.
    auto r = client.Ralloc("huge", 65ULL << 20);
    EXPECT_EQ(r.code(), ErrorCode::kOutOfMemory);
    // A fillable region still works afterwards.
    EXPECT_TRUE(client.Ralloc("fits", 64ULL << 20).ok());
    // And now truly nothing is left.
    EXPECT_EQ(client.Ralloc("one-more", 1).code(), ErrorCode::kOutOfMemory);
  });
}

TEST(AllocTest, FreeReturnsSlabsForReuse) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("a", 64ULL << 20).ok());
    EXPECT_EQ(client.Ralloc("b", 1).code(), ErrorCode::kOutOfMemory);
    ASSERT_TRUE(client.Rfree("a").ok());
    EXPECT_TRUE(client.Ralloc("b", 64ULL << 20).ok());
  });
}

TEST(AllocTest, RecycledSlabsComeBackZeroed) {
  // A freed slab keeps its bytes until it is handed out again; Ralloc and
  // Rgrow zero it first, so a new region always reads as zeros.
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    constexpr uint64_t kStore = 64ULL << 20;  // every slab of the cluster
    ASSERT_TRUE(client.Ralloc("old", kStore).ok());
    auto old_region = client.Rmap("old");
    ASSERT_TRUE(old_region.ok());
    auto buf = client.AllocBuffer(kStore);
    ASSERT_TRUE(buf.ok());
    FillPattern(buf->data, 7);
    ASSERT_TRUE((*old_region)->Write(0, buf->data).ok());
    ASSERT_TRUE(client.Rfree("old").ok());

    auto all_zero = [&](const char* name, uint64_t bytes) {
      auto region = client.Rmap(name, {.fresh = true});
      if (!region.ok()) return false;
      std::span<std::byte> view = buf->data.first(bytes);
      std::fill(view.begin(), view.end(), std::byte{0xAB});
      if (!(*region)->Read(0, view).ok()) return false;
      return std::all_of(view.begin(), view.end(),
                         [](std::byte b) { return b == std::byte{0}; });
    };
    ASSERT_TRUE(client.Ralloc("new", 3ULL << 20).ok());
    EXPECT_TRUE(all_zero("new", 3ULL << 20));
    ASSERT_TRUE(client.Rgrow("new", 40ULL << 20).ok());
    EXPECT_TRUE(all_zero("new", 40ULL << 20));
  });
}

TEST(AllocTest, MapUnknownRegionIsNotFound) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    EXPECT_EQ(client.Rmap("ghost").code(), ErrorCode::kNotFound);
    EXPECT_EQ(client.Rfree("ghost").code(), ErrorCode::kNotFound);
  });
}

TEST(AllocTest, LargeRegionBalancesAcrossServers) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("big", 32ULL << 20).ok());  // 32 slabs
    auto region = client.Rmap("big");
    ASSERT_TRUE(region.ok());
    std::map<uint32_t, int> per_server;
    for (const auto& slab : (*region)->desc().slabs) {
      ++per_server[slab.server_node];
    }
    ASSERT_EQ(per_server.size(), 4u);
    for (const auto& [node, count] : per_server) EXPECT_EQ(count, 8);
    // Consecutive slabs land on different servers (bandwidth striping).
    const auto& slabs = (*region)->desc().slabs;
    for (size_t i = 0; i + 1 < slabs.size(); ++i) {
      EXPECT_NE(slabs[i].server_node, slabs[i + 1].server_node);
    }
  });
}

// -------------------------------------------------------------- data IO --
TEST(IoTest, WriteThenReadRoundTrips) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 2ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(64 << 10);
    ASSERT_TRUE(buf.ok());
    FillPattern(buf->data, 42);
    ASSERT_TRUE((*region)->Write(0, buf->data).ok());

    auto check = client.AllocBuffer(64 << 10);
    ASSERT_TRUE(check.ok());
    ASSERT_TRUE((*region)->Read(0, check->data).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), check->begin(), buf->size()), 0);
  });
}

TEST(IoTest, IoSpanningMultipleSlabsAndServers) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    // 3 MiB write starting mid-slab: touches all four slabs.
    const size_t n = 3ULL << 20;
    auto src = client.AllocBuffer(n);
    auto dst = client.AllocBuffer(n);
    ASSERT_TRUE(src.ok() && dst.ok());
    FillPattern(src->data, 7);
    const uint64_t offset = (1ULL << 19);  // 512 KiB
    ASSERT_TRUE((*region)->Write(offset, src->data).ok());
    ASSERT_TRUE((*region)->Read(offset, dst->data).ok());
    EXPECT_EQ(std::memcmp(src->begin(), dst->begin(), n), 0);
  });
}

TEST(IoTest, SmallUnalignedAccesses) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(4096);
    ASSERT_TRUE(buf.ok());
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
      const uint64_t off = rng.NextBelow((1ULL << 20) - 257);
      const uint64_t len = 1 + rng.NextBelow(256);
      std::span<std::byte> chunk(buf->begin(), len);
      FillPattern(chunk, off);
      ASSERT_TRUE((*region)->Write(off, chunk).ok());
      std::span<std::byte> back(buf->begin() + 2048, len);
      ASSERT_TRUE((*region)->Read(off, back).ok());
      ASSERT_EQ(std::memcmp(chunk.data(), back.data(), len), 0)
          << "off=" << off << " len=" << len;
    }
  });
}

TEST(IoTest, ZeroLengthIoIsNoOp) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1024).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE((*region)->Read(0, {}).ok());
    EXPECT_TRUE((*region)->Write(1024, {}).ok());
    EXPECT_EQ(client.bytes_read(), 0u);
  });
}

TEST(IoTest, OutOfRangeIoRejected) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1000).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(100);
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ((*region)->Read(950, buf->data).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ((*region)->Write(1001, buf->data).code(),
              ErrorCode::kOutOfRange);
    // Boundary case: exactly at the end is fine.
    EXPECT_TRUE((*region)->Write(900, buf->data).ok());
  });
}

TEST(IoTest, UnregisteredBufferRejected) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4096).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    std::vector<std::byte> unpinned(256);
    EXPECT_EQ((*region)->Write(0, unpinned).code(),
              ErrorCode::kInvalidArgument);
  });
}

TEST(IoTest, RegisterBufferAllowsUserMemory) {
  TestCluster cluster(SmallCluster());
  std::vector<std::byte> user(8192);
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 8192).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE(client.RegisterBuffer(user).ok());
    FillPattern(user, 9);
    EXPECT_TRUE((*region)->Write(0, user).ok());
    // A sub-span of the registered buffer works too.
    EXPECT_TRUE(
        (*region)->Read(0, std::span<std::byte>(user.data() + 100, 50)).ok());
  });
}

TEST(IoTest, AsyncIoOverlapsLatencyBoundAccesses) {
  // Small scattered reads are latency-dominated; issuing them overlapped
  // hides the round trips (large transfers are NIC-bandwidth-bound either
  // way, so the async win shows on small IO).
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 8ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    constexpr size_t kChunk = 4096;
    constexpr size_t kOps = 64;
    auto buf = client.AllocBuffer(kOps * kChunk);
    ASSERT_TRUE(buf.ok());

    // Warm the data-path connections (setup is control-path work and is
    // measured separately in E2).
    for (uint64_t off = 0; off < (8ULL << 20); off += 1ULL << 20) {
      ASSERT_TRUE(
          (*region)->Read(off, std::span<std::byte>(buf->begin(), 8)).ok());
    }

    const Nanos t0 = sim::Now();
    std::vector<IoFuture> futures;
    for (size_t i = 0; i < kOps; ++i) {
      auto f = (*region)->ReadAsync(
          i * (1ULL << 17),
          std::span<std::byte>(buf->begin() + i * kChunk, kChunk));
      ASSERT_TRUE(f.ok());
      futures.push_back(std::move(*f));
    }
    for (auto& f : futures) ASSERT_TRUE(f.Wait().ok());
    const Nanos parallel = sim::Now() - t0;

    const Nanos t1 = sim::Now();
    for (size_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(
          (*region)
              ->Read(i * (1ULL << 17),
                     std::span<std::byte>(buf->begin() + i * kChunk, kChunk))
              .ok());
    }
    const Nanos serial = sim::Now() - t1;
    EXPECT_LT(parallel, serial / 2);
  });
}

TEST(IoTest, WaitIsIdempotentAndEmptyFutureFails) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4096).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(128);
    ASSERT_TRUE(buf.ok());
    auto f = (*region)->WriteAsync(0, buf->data);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(f->Wait().ok());
    EXPECT_TRUE(f->Wait().ok());  // second wait: still OK
    IoFuture empty;
    EXPECT_EQ(empty.Wait().code(), ErrorCode::kInvalidArgument);
  });
}

TEST(IoTest, DataLandsOnTheRightServer) {
  // White-box: write a 1 MiB-aligned slab and verify the bytes are in
  // that server's arena (the one the slab table points to).
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 2ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(1 << 20);
    ASSERT_TRUE(buf.ok());
    FillPattern(buf->data, 77);
    ASSERT_TRUE((*region)->Write(1ULL << 20, buf->data).ok());  // slab 1

    const SlabLocation& slab = (*region)->desc().slabs[1];
    for (size_t s = 0; s < cluster.server_count(); ++s) {
      if (cluster.server_node(s).id() == slab.server_node) {
        const MemoryServer& server = cluster.server(s);
        const auto* arena_bytes = server.arena();
        const uint64_t arena_base =
            reinterpret_cast<uint64_t>(arena_bytes);
        const std::byte* where =
            arena_bytes + (slab.remote_addr - arena_base);
        EXPECT_EQ(std::memcmp(where, buf->begin(), 1 << 20), 0);
        return;
      }
    }
    FAIL() << "slab server not found";
  });
}

TEST(IoTest, StatsCountBytesAndOps) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(1000);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE((*region)->Write(0, buf->data).ok());
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    EXPECT_EQ(client.bytes_written(), 1000u);
    EXPECT_EQ(client.bytes_read(), 2000u);
    EXPECT_EQ(client.data_ops(), 3u);
  });
}

// -------------------------------------------------------- mapping cache --
TEST(MapCacheTest, SecondRmapIsCachedAndFree) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    const uint64_t calls_before_first = client.control_calls();
    auto first = client.Rmap("r");
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(client.control_calls(), calls_before_first + 1);

    const Nanos t0 = sim::Now();
    auto second = client.Rmap("r");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(sim::Now(), t0);  // zero virtual time: pure cache hit
    EXPECT_EQ(client.control_calls(), calls_before_first + 1);
    EXPECT_EQ(*first, *second);  // same mapping object
    EXPECT_EQ(client.map_cache_hits(), 1u);
  });
}

TEST(MapCacheTest, FreshRmapRefetches) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    ASSERT_TRUE(client.Rmap("r").ok());
    const uint64_t calls = client.control_calls();
    ASSERT_TRUE(client.Rmap("r", false, /*fresh=*/true).ok());
    EXPECT_EQ(client.control_calls(), calls + 1);
  });
}

TEST(MapCacheTest, RunmapDropsCache) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    ASSERT_TRUE(client.Rmap("r").ok());
    ASSERT_TRUE(client.Runmap("r").ok());
    EXPECT_EQ(client.Runmap("r").code(), ErrorCode::kNotFound);
    const uint64_t calls = client.control_calls();
    ASSERT_TRUE(client.Rmap("r").ok());  // re-fetches
    EXPECT_EQ(client.control_calls(), calls + 1);
  });
}

// --------------------------------------------------------------- atomics --
TEST(AtomicTest, FetchAddAcrossClients) {
  TestCluster cluster(SmallCluster());
  int finished = 0;
  for (size_t c = 0; c < 2; ++c) {
    cluster.SpawnClient(c, [&finished, c](RStoreClient& client) {
      if (c == 0) {
        ASSERT_TRUE(client.Ralloc("counter", 4096).ok());
        ASSERT_TRUE(client.NotifyInc("ready").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("ready", 1).ok());
      }
      auto region = client.Rmap("counter");
      ASSERT_TRUE(region.ok());
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE((*region)->FetchAdd(0, 1).ok());
      }
      ASSERT_TRUE(client.NotifyInc("done").ok());
      auto total = client.WaitNotify("done", 2);
      ASSERT_TRUE(total.ok());
      auto v = (*region)->FetchAdd(0, 0);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, 200u);
      ++finished;
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(finished, 2);
}

TEST(AtomicTest, CompareSwapElectsSingleWinner) {
  TestCluster cluster(SmallCluster());
  std::atomic<int> winners{0};
  std::atomic<int> finished{0};
  for (size_t c = 0; c < 2; ++c) {
    cluster.SpawnClient(c, [&, c](RStoreClient& client) {
      if (c == 0) {
        ASSERT_TRUE(client.Ralloc("lock", 4096).ok());
        ASSERT_TRUE(client.NotifyInc("ready").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("ready", 1).ok());
      }
      auto region = client.Rmap("lock");
      ASSERT_TRUE(region.ok());
      auto old = (*region)->CompareSwap(0, 0, client.device().node_id());
      ASSERT_TRUE(old.ok());
      if (*old == 0) ++winners;
      ++finished;
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(winners, 1);
}

TEST(AtomicTest, MisalignedAtomicRejectedClientSide) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4096).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->FetchAdd(3, 1).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ((*region)->FetchAdd(4092, 1).code(),
              ErrorCode::kInvalidArgument);  // 8 bytes past end
  });
}

// -------------------------------------------------------- notifications --
TEST(NotifyTest, WaitBlocksUntilTarget) {
  TestCluster cluster(SmallCluster());
  Nanos waiter_done = 0;
  Nanos inc_time = 0;
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    auto v = client.WaitNotify("chan", 3);
    ASSERT_TRUE(v.ok());
    EXPECT_GE(*v, 3u);
    waiter_done = sim::Now();
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    for (int i = 0; i < 3; ++i) {
      sim::Sleep(Millis(10));
      ASSERT_TRUE(client.NotifyInc("chan").ok());
    }
    inc_time = sim::Now();
  });
  cluster.sim().Run();
  EXPECT_GT(waiter_done, 0u);
  EXPECT_GE(waiter_done, inc_time);
}

TEST(NotifyTest, BarrierBetweenManyClients) {
  ClusterConfig cfg = SmallCluster();
  cfg.client_nodes = 5;
  TestCluster cluster(cfg);
  std::vector<Nanos> release(5, 0);
  for (size_t c = 0; c < 5; ++c) {
    cluster.SpawnClient(c, [&, c](RStoreClient& client) {
      sim::Sleep(Millis(static_cast<double>(c * 7)));  // stagger arrivals
      ASSERT_TRUE(client.NotifyInc("barrier").ok());
      ASSERT_TRUE(client.WaitNotify("barrier", 5).ok());
      release[c] = sim::Now();
    });
  }
  cluster.sim().Run();
  // Nobody is released before the last arrival (t = 28 ms).
  for (size_t c = 0; c < 5; ++c) {
    EXPECT_GE(release[c], Millis(28)) << "client " << c;
  }
}

// ------------------------------------------------------ failure handling --
TEST(FailureTest, ServerDeathDegradesItsRegions) {
  ClusterConfig cfg = SmallCluster();
  cfg.master.lease_timeout = Millis(120);
  cfg.master.sweep_interval = Millis(30);
  TestCluster cluster(cfg);
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("wide", 4ULL << 20).ok());  // all 4 servers
    ASSERT_TRUE(client.Rmap("wide").ok());

    // Kill the server hosting slab 0.
    auto region = client.Rmap("wide");
    const uint32_t victim = (*region)->desc().slabs[0].server_node;
    sim::CurrentNode().sim().KillNode(victim);
    sim::Sleep(Millis(400));  // lease expires

    auto fresh = client.Rmap("wide", false, /*fresh=*/true);
    EXPECT_EQ(fresh.code(), ErrorCode::kUnavailable);  // degraded
    auto degraded_ok = client.Rmap("wide", /*allow_degraded=*/true, true);
    EXPECT_TRUE(degraded_ok.ok());
    // Allocation on remaining servers still works.
    EXPECT_TRUE(client.Ralloc("after", 1ULL << 20).ok());
  });
  EXPECT_EQ(cluster.master().live_servers(), 3u);
}

TEST(FailureTest, IoToDeadServerFailsAndReportsUnavailable) {
  ClusterConfig cfg = SmallCluster();
  TestCluster cluster(cfg);
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(4096);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE((*region)->Write(0, buf->data).ok());

    const uint32_t victim = (*region)->desc().slabs[0].server_node;
    sim::CurrentNode().sim().KillNode(victim);
    sim::Sleep(Millis(10));
    auto st = (*region)->Write(0, buf->data);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  });
}

TEST(FailureTest, StaleMappingAfterFreeStillWithinArenaIsClientsProblem) {
  // RStore's trust model: rfree invalidates the master's metadata but
  // cannot recall rkeys already handed out. A *fresh* map fails; the data
  // path of a stale mapping is undefined but must not crash the store.
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE(client.Rfree("r").ok());
    EXPECT_EQ(client.Rmap("r").code(), ErrorCode::kNotFound);
  });
}

TEST(FailureTest, MasterRestartIsNotModeledButDeathFailsControlPath) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1024).ok());
    sim::CurrentNode().sim().KillNode(cluster.master_node_id());
    sim::Sleep(Millis(10));
    EXPECT_FALSE(client.Ralloc("r2", 1024).ok());
  });
}

TEST(FailureTest, HeartbeatKeepsLeaseAliveIndefinitely) {
  ClusterConfig cfg = SmallCluster();
  cfg.master.lease_timeout = Millis(100);
  cfg.master.sweep_interval = Millis(20);
  TestCluster cluster(cfg);
  cluster.RunClient([&](RStoreClient& client) {
    sim::Sleep(Seconds(2));  // many lease periods
    auto stat = client.Stat();
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->live_servers, 4u);
  });
}

// ------------------------------------------------- multi-client sharing --
TEST(SharingTest, ProducerConsumerThroughSharedRegion) {
  TestCluster cluster(SmallCluster());
  std::string received;
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("mailbox", 4096).ok());
    auto region = client.Rmap("mailbox");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(64);
    ASSERT_TRUE(buf.ok());
    const char msg[] = "hello from producer";
    std::memcpy(buf->begin(), msg, sizeof(msg));
    ASSERT_TRUE(
        (*region)->Write(0, std::span<std::byte>(buf->begin(), sizeof(msg)))
            .ok());
    ASSERT_TRUE(client.NotifyInc("mail").ok());
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("mail", 1).ok());
    auto region = client.Rmap("mailbox");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(64);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    received = reinterpret_cast<const char*>(buf->begin());
  });
  cluster.sim().Run();
  EXPECT_EQ(received, "hello from producer");
}

TEST(SharingTest, ConcurrentClientsReadDisjointStripes) {
  ClusterConfig cfg = SmallCluster();
  cfg.client_nodes = 4;
  TestCluster cluster(cfg);
  std::atomic<int> done{0};
  for (size_t c = 0; c < 4; ++c) {
    cluster.SpawnClient(c, [&, c](RStoreClient& client) {
      if (c == 0) {
        ASSERT_TRUE(client.Ralloc("shared", 4ULL << 20).ok());
        auto region = client.Rmap("shared");
        ASSERT_TRUE(region.ok());
        auto buf = client.AllocBuffer(4ULL << 20);
        ASSERT_TRUE(buf.ok());
        FillPattern(buf->data, 1234);
        ASSERT_TRUE((*region)->Write(0, buf->data).ok());
        ASSERT_TRUE(client.NotifyInc("filled").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("filled", 1).ok());
      }
      auto region = client.Rmap("shared");
      ASSERT_TRUE(region.ok());
      auto mine = client.AllocBuffer(1ULL << 20);
      ASSERT_TRUE(mine.ok());
      ASSERT_TRUE((*region)->Read(c * (1ULL << 20), mine->data).ok());
      // Verify against the generator: reproduce the full pattern.
      std::vector<std::byte> full(4ULL << 20);
      FillPattern(full, 1234);
      EXPECT_EQ(std::memcmp(mine->begin(), full.data() + c * (1ULL << 20),
                            1ULL << 20),
                0);
      ++done;
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(done, 4);
}



// ---------------------------------------------------------------- rgrow --
TEST(GrowTest, GrowAddsSlabsAndPreservesData) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 2ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(2ULL << 20);
    ASSERT_TRUE(buf.ok());
    FillPattern(buf->data, 31);
    ASSERT_TRUE((*region)->Write(0, buf->data).ok());

    // IO past the end fails before the grow...
    auto tail = client.AllocBuffer(4096);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ((*region)->Write(3ULL << 20, tail->data).code(),
              ErrorCode::kOutOfRange);

    ASSERT_TRUE(client.Rgrow("r", 6ULL << 20).ok());
    // ...and the SAME mapping object works after (refreshed in place).
    EXPECT_EQ((*region)->size(), 6ULL << 20);
    EXPECT_EQ((*region)->desc().slabs.size(), 6u);
    EXPECT_TRUE((*region)->Write(3ULL << 20, tail->data).ok());
    EXPECT_TRUE((*region)->Write((6ULL << 20) - 4096, tail->data).ok());

    // Old data intact.
    auto back = client.AllocBuffer(2ULL << 20);
    ASSERT_TRUE(back.ok());
    ASSERT_TRUE((*region)->Read(0, back->data).ok());
    EXPECT_EQ(std::memcmp(back->begin(), buf->begin(), buf->size()), 0);
  });
}

TEST(GrowTest, GrowValidation) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4ULL << 20).ok());
    EXPECT_EQ(client.Rgrow("r", 1ULL << 20).code(),
              ErrorCode::kInvalidArgument);  // shrink
    EXPECT_EQ(client.Rgrow("ghost", 1ULL << 20).code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(client.Rgrow("r", 1ULL << 40).code(),
              ErrorCode::kOutOfMemory);
    ASSERT_TRUE(client.Ralloc("repl", 1ULL << 20, 2).ok());
    EXPECT_EQ(client.Rgrow("repl", 2ULL << 20).code(),
              ErrorCode::kInvalidArgument);
    // Growing within the same slab count (rounding) still updates size.
    ASSERT_TRUE(client.Ralloc("half", 100).ok());
    ASSERT_TRUE(client.Rgrow("half", 1000).ok());
    auto region = client.Rmap("half");
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->size(), 1000u);
    EXPECT_EQ((*region)->desc().slabs.size(), 1u);
  });
}

TEST(GrowTest, OtherClientsSeeGrowthOnFreshMap) {
  TestCluster cluster(SmallCluster());
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    ASSERT_TRUE(client.NotifyInc("made").ok());
    ASSERT_TRUE(client.WaitNotify("mapped", 1).ok());
    ASSERT_TRUE(client.Rgrow("r", 4ULL << 20).ok());
    ASSERT_TRUE(client.NotifyInc("grown").ok());
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("made", 1).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->size(), 1ULL << 20);
    ASSERT_TRUE(client.NotifyInc("mapped").ok());
    ASSERT_TRUE(client.WaitNotify("grown", 1).ok());
    // Cached mapping is stale; fresh map sees the new size.
    auto fresh = client.Rmap("r", false, /*fresh=*/true);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ((*fresh)->size(), 4ULL << 20);
  });
  cluster.sim().Run();
}


// ------------------------------------------------------------ vectored --
TEST(VectoredIoTest, ReadVWriteVRoundTrip) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(64 << 10);
    ASSERT_TRUE(buf.ok());
    FillPattern(buf->data, 61);

    // Scatter four 16 KiB segments over the region with one call.
    std::vector<IoVec> writes;
    for (int i = 0; i < 4; ++i) {
      writes.push_back(IoVec{static_cast<uint64_t>(i) * (1ULL << 20) + 123,
                             buf->begin() + i * (16 << 10), 16 << 10});
    }
    auto wf = (*region)->WriteV(writes);
    ASSERT_TRUE(wf.ok());
    ASSERT_TRUE(wf->Wait().ok());

    auto back = client.AllocBuffer(64 << 10);
    ASSERT_TRUE(back.ok());
    std::vector<IoVec> reads;
    for (int i = 0; i < 4; ++i) {
      reads.push_back(IoVec{static_cast<uint64_t>(i) * (1ULL << 20) + 123,
                            back->begin() + i * (16 << 10), 16 << 10});
    }
    auto rf = (*region)->ReadV(reads);
    ASSERT_TRUE(rf.ok());
    ASSERT_TRUE(rf->Wait().ok());
    EXPECT_EQ(std::memcmp(buf->begin(), back->begin(), 64 << 10), 0);
    EXPECT_EQ(client.data_ops(), 8u);  // one per segment
  });
}

TEST(VectoredIoTest, VectoredBeatsSequentialSmallIo) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(64 << 10);
    ASSERT_TRUE(buf.ok());
    // Warm every data connection.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*region)
              ->Read(static_cast<uint64_t>(i) << 20,
                     std::span<std::byte>(buf->begin(), 8))
              .ok());
    }
    std::vector<IoVec> segs;
    for (int i = 0; i < 32; ++i) {
      segs.push_back(IoVec{static_cast<uint64_t>(i) * (128 << 10),
                           buf->begin() + (i % 16) * 4096, 4096});
    }
    const Nanos t0 = sim::Now();
    auto f = (*region)->ReadV(segs);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f->Wait().ok());
    const Nanos vectored = sim::Now() - t0;

    const Nanos t1 = sim::Now();
    for (const auto& seg : segs) {
      ASSERT_TRUE(
          (*region)
              ->Read(seg.offset, std::span<std::byte>(seg.local, seg.length))
              .ok());
    }
    const Nanos serial = sim::Now() - t1;
    EXPECT_LT(vectored, serial / 2);
  });
}

TEST(VectoredIoTest, BadSegmentFailsWholeCall) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 1ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(8192);
    ASSERT_TRUE(buf.ok());
    std::vector<IoVec> segs{
        IoVec{0, buf->begin(), 4096},
        IoVec{(1ULL << 20) - 100, buf->begin() + 4096, 4096},  // past end
    };
    auto f = (*region)->WriteV(segs);
    EXPECT_EQ(f.code(), ErrorCode::kOutOfRange);
  });
}

TEST(VectoredIoTest, CoalescedWriteThenBoundarySpanningReadVRoundTrips) {
  // A full-region write is fragmented per slab and coalesced into one
  // multi-SGE post per server (two slabs of this region live on each of
  // the four servers). Reading back with segments deliberately straddling
  // every slab boundary must reproduce the bytes exactly.
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    const uint64_t kRegion = 8ULL << 20;  // 8 slabs over 4 servers
    const uint64_t kSlab = 1ULL << 20;
    ASSERT_TRUE(client.Ralloc("r", kRegion).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    auto buf = client.AllocBuffer(kRegion);
    ASSERT_TRUE(buf.ok());
    FillPattern(buf->data, 7);
    ASSERT_TRUE((*region)->Write(0, buf->data).ok());

    // One 8 KiB segment across each of the seven interior slab
    // boundaries, plus the region's first and last 4 KiB.
    auto back = client.AllocBuffer(kRegion);
    ASSERT_TRUE(back.ok());
    std::memset(back->begin(), 0xee, back->data.size());
    std::vector<IoVec> segs;
    for (uint64_t b = 1; b < 8; ++b) {
      const uint64_t off = b * kSlab - 4096;
      segs.push_back(IoVec{off, back->begin() + off, 8192});
    }
    segs.push_back(IoVec{0, back->begin(), 4096});
    segs.push_back(IoVec{kRegion - 4096, back->begin() + kRegion - 4096,
                         4096});
    auto rf = (*region)->ReadV(segs);
    ASSERT_TRUE(rf.ok());
    ASSERT_TRUE(rf->Wait().ok());
    for (const auto& seg : segs) {
      EXPECT_EQ(std::memcmp(buf->begin() + seg.offset, seg.local,
                            seg.length),
                0)
          << "mismatch in segment at offset " << seg.offset;
    }
  });
}

TEST(DeterminismTest, BatchedDataPathTimelineIsReproducible) {
  // Same-seed runs of a workload that exercises the coalesced multi-SGE
  // path, scattered vectored IO and atomics must agree on the complete
  // observable timeline: finish time, fabric byte totals and data-op
  // counts.
  struct Fingerprint {
    Nanos done_at = 0;
    uint64_t fabric_bytes = 0;
    uint64_t data_ops = 0;
    bool operator==(const Fingerprint&) const = default;
  };
  auto run = [](uint64_t seed) {
    ClusterConfig cfg = SmallCluster();
    cfg.seed = seed;
    TestCluster cluster(cfg);
    Fingerprint fp;
    cluster.RunClient([&](RStoreClient& client) {
      ASSERT_TRUE(client.Ralloc("r", 8ULL << 20).ok());
      auto region = client.Rmap("r");
      ASSERT_TRUE(region.ok());
      auto buf = client.AllocBuffer(8ULL << 20);
      ASSERT_TRUE(buf.ok());
      FillPattern(buf->data, 5);
      std::vector<IoFuture> futures;
      for (int pass = 0; pass < 3; ++pass) {
        auto w = (*region)->WriteAsync(0, buf->data);
        ASSERT_TRUE(w.ok());
        futures.push_back(std::move(*w));
      }
      for (auto& f : futures) ASSERT_TRUE(f.Wait().ok());
      std::vector<IoVec> segs;
      for (int s = 0; s < 16; ++s) {
        segs.push_back(IoVec{static_cast<uint64_t>(s) * (512 << 10),
                             buf->begin() + s * 4096, 4096});
      }
      auto rv = (*region)->ReadV(segs);
      ASSERT_TRUE(rv.ok());
      ASSERT_TRUE(rv->Wait().ok());
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE((*region)->FetchAdd(0, 3).ok());
      }
      fp.done_at = sim::Now();
      fp.data_ops = client.data_ops();
    });
    fp.fabric_bytes = cluster.net().fabric().total_bytes();
    return fp;
  };
  const Fingerprint a = run(1234);
  const Fingerprint b = run(1234);
  EXPECT_EQ(a.done_at, b.done_at);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.data_ops, b.data_ops);
  EXPECT_GT(a.fabric_bytes, 0u);
}

// ------------------------------------------------------------ placement --
TEST(PlacementTest, PackConcentratesStripeSpreads) {
  auto servers_touched = [](PlacementPolicy policy) {
    ClusterConfig cfg = SmallCluster();
    cfg.master.placement = policy;
    TestCluster cluster(cfg);
    size_t distinct = 0;
    cluster.RunClient([&](RStoreClient& client) {
      ASSERT_TRUE(client.Ralloc("r", 8ULL << 20).ok());  // 8 slabs
      auto region = client.Rmap("r");
      ASSERT_TRUE(region.ok());
      std::set<uint32_t> nodes;
      for (const auto& slab : (*region)->desc().slabs) {
        nodes.insert(slab.server_node);
      }
      distinct = nodes.size();
    });
    return distinct;
  };
  EXPECT_EQ(servers_touched(PlacementPolicy::kStripe), 4u);
  // 8 slabs fit in one 16-slab server under kPack.
  EXPECT_EQ(servers_touched(PlacementPolicy::kPack), 1u);
}

TEST(PlacementTest, PackSpillsWhenServerFills) {
  ClusterConfig cfg = SmallCluster();
  cfg.master.placement = PlacementPolicy::kPack;
  TestCluster cluster(cfg);
  cluster.RunClient([&](RStoreClient& client) {
    // 24 slabs > one server's 16: must spill onto a second server.
    ASSERT_TRUE(client.Ralloc("r", 24ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    std::set<uint32_t> nodes;
    for (const auto& slab : (*region)->desc().slabs) {
      nodes.insert(slab.server_node);
    }
    EXPECT_EQ(nodes.size(), 2u);
  });
}

TEST(PlacementTest, RandomIsDeterministicPerSeed) {
  auto placement = [](uint64_t seed) {
    ClusterConfig cfg = SmallCluster();
    cfg.master.placement = PlacementPolicy::kRandom;
    cfg.master.placement_seed = seed;
    TestCluster cluster(cfg);
    std::vector<uint32_t> nodes;
    cluster.RunClient([&](RStoreClient& client) {
      ASSERT_TRUE(client.Ralloc("r", 12ULL << 20).ok());
      auto region = client.Rmap("r");
      ASSERT_TRUE(region.ok());
      for (const auto& slab : (*region)->desc().slabs) {
        nodes.push_back(slab.server_node);
      }
    });
    return nodes;
  };
  EXPECT_EQ(placement(1), placement(1));
  EXPECT_NE(placement(1), placement(99));
}

TEST(PlacementTest, ReplicationStillDistinctUnderPack) {
  ClusterConfig cfg = SmallCluster();
  cfg.master.placement = PlacementPolicy::kPack;
  TestCluster cluster(cfg);
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4ULL << 20, /*copies=*/2).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok());
    const RegionDesc& desc = (*region)->desc();
    for (size_t i = 0; i < desc.slabs.size(); ++i) {
      EXPECT_NE(desc.slabs[i].server_node,
                desc.replicas[0][i].server_node) << i;
    }
  });
}

// ------------------------------------------------------ determinism -----
TEST(DeterminismTest, IdenticalSeedsGiveIdenticalTimelines) {
  auto run = [](uint64_t seed) {
    ClusterConfig cfg = SmallCluster();
    cfg.seed = seed;
    TestCluster cluster(cfg);
    Nanos done_at = 0;
    cluster.RunClient([&](RStoreClient& client) {
      ASSERT_TRUE(client.Ralloc("r", 4ULL << 20).ok());
      auto region = client.Rmap("r");
      ASSERT_TRUE(region.ok());
      auto buf = client.AllocBuffer(1ULL << 20);
      ASSERT_TRUE(buf.ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE((*region)->Write(i * (1ULL << 20), buf->data).ok());
      }
      done_at = sim::Now();
    });
    return done_at;
  };
  const Nanos a = run(99);
  const Nanos b = run(99);
  const Nanos c = run(100);
  EXPECT_EQ(a, b);
  (void)c;  // different seed may or may not differ; only equality matters
}

}  // namespace
}  // namespace rstore::core
