// Tests for the client-side region cache: the RegionCache data structure
// (LRU, epochs, write-through), the cached data path in RStoreClient
// (hits, bypass, invalidation on grow/unmap/atomics), equivalence of
// cached and uncached execution (same values, deterministic).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cache/region_cache.h"
#include "carafe/engine.h"
#include "carafe/graph.h"
#include "carafe/storage.h"
#include "core/cluster.h"

namespace rstore {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::RmapOptions;
using core::TestCluster;

// ------------------------------------------------ RegionCache (unit) ----
class RegionCacheTest : public ::testing::Test {
 protected:
  // page = 1 KiB, budget = 4 pages, bypass off: small enough to hit the
  // eviction boundary with a handful of pages.
  cache::RegionCache MakeCache(uint64_t pages = 4, uint64_t page = 1024,
                               uint64_t bypass = 0) {
    return cache::RegionCache(
        cache::CacheConfig{pages * page, page, bypass},
        [this](uint64_t bytes) -> std::byte* {
          arenas_.push_back(std::make_unique<std::byte[]>(bytes));
          return arenas_.back().get();
        });
  }

  // Fills and installs one page of `value` bytes.
  static cache::RegionCache::Frame* Put(cache::RegionCache& c, uint64_t region,
                                        uint64_t page, uint64_t epoch,
                                        std::byte value, uint32_t valid) {
    cache::RegionCache::Frame* f = c.Acquire();
    if (f == nullptr) return nullptr;
    std::memset(f->data, static_cast<int>(value), valid);
    c.Install(f, region, page, epoch, valid);
    return f;
  }

  std::vector<std::unique_ptr<std::byte[]>> arenas_;
};

TEST_F(RegionCacheTest, FindMissesUntilInstalled) {
  auto c = MakeCache();
  EXPECT_EQ(c.Find(1, 0, 0), nullptr);
  ASSERT_NE(Put(c, 1, 0, 0, std::byte{0xAB}, 1024), nullptr);
  cache::RegionCache::Frame* f = c.Find(1, 0, 0);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->data[0], std::byte{0xAB});
  EXPECT_EQ(f->valid_bytes, 1024u);
  // Different page, region, or epoch: all misses.
  EXPECT_EQ(c.Find(1, 1, 0), nullptr);
  EXPECT_EQ(c.Find(2, 0, 0), nullptr);
  EXPECT_EQ(c.Find(1, 0, 1), nullptr);
}

TEST_F(RegionCacheTest, LruEvictsColdestAtBudgetBoundary) {
  auto c = MakeCache(/*pages=*/4);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_NE(Put(c, 1, p, 0, std::byte{1}, 1024), nullptr);
  }
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_EQ(c.resident_frames(), 4u);
  // Touch pages 1..3 so page 0 is coldest, then insert a fifth page.
  for (uint64_t p = 1; p < 4; ++p) EXPECT_NE(c.Find(1, p, 0), nullptr);
  ASSERT_NE(Put(c, 1, 4, 0, std::byte{2}, 1024), nullptr);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.resident_frames(), 4u);   // still exactly at budget
  EXPECT_EQ(c.Find(1, 0, 0), nullptr);  // the coldest page went
  for (uint64_t p = 1; p <= 4; ++p) EXPECT_NE(c.Find(1, p, 0), nullptr);
}

TEST_F(RegionCacheTest, ApplyWriteUpdatesCurrentEpochInPlace) {
  auto c = MakeCache();
  ASSERT_NE(Put(c, 1, 0, 5, std::byte{0}, 1024), nullptr);
  std::vector<std::byte> src(16, std::byte{0x7F});
  EXPECT_EQ(c.ApplyWrite(1, 5, 100, src), 16u);
  cache::RegionCache::Frame* f = c.Find(1, 0, 5);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->data[100], std::byte{0x7F});
  EXPECT_EQ(f->data[99], std::byte{0});
}

TEST_F(RegionCacheTest, ApplyWriteDropsStalePartialAndRestampsFullCover) {
  auto c = MakeCache();
  ASSERT_NE(Put(c, 1, 0, 5, std::byte{1}, 1024), nullptr);
  ASSERT_NE(Put(c, 1, 1, 5, std::byte{1}, 1024), nullptr);
  // Epoch moved to 6. Partial write to page 0: untrusted leftover bytes,
  // so the frame must go. Full-page write to page 1: re-stamped fresh.
  std::vector<std::byte> small(8, std::byte{2});
  EXPECT_EQ(c.ApplyWrite(1, 6, 0, small), 0u);
  EXPECT_EQ(c.Find(1, 0, 6), nullptr);
  std::vector<std::byte> full(1024, std::byte{3});
  EXPECT_EQ(c.ApplyWrite(1, 6, 1024, full), 1024u);
  cache::RegionCache::Frame* f = c.Find(1, 1, 6);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->data[0], std::byte{3});
}

TEST_F(RegionCacheTest, ApplyWriteAllocatesFullPagesOnlyFromFreeFrames) {
  auto c = MakeCache(/*pages=*/2);
  std::vector<std::byte> full(1024, std::byte{9});
  // The write path never allocates arenas: with no frame ever created, a
  // full-page write caches nothing.
  EXPECT_EQ(c.ApplyWrite(7, 0, 0, full), 0u);
  EXPECT_EQ(c.Find(7, 0, 0), nullptr);
  // Seed the free list (as an abandoned fill would), then the same write
  // populates a frame.
  cache::RegionCache::Frame* seed = c.Acquire();
  ASSERT_NE(seed, nullptr);
  c.Abandon(seed);
  EXPECT_EQ(c.ApplyWrite(7, 0, 0, full), 1024u);
  EXPECT_NE(c.Find(7, 0, 0), nullptr);
  // Exhaust the budget; with no free frame left, write-allocate must not
  // evict for a pure write stream.
  ASSERT_NE(Put(c, 7, 1, 0, std::byte{1}, 1024), nullptr);
  EXPECT_EQ(c.ApplyWrite(7, 0, 2048, full), 0u);
  EXPECT_EQ(c.Find(7, 2, 0), nullptr);
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST_F(RegionCacheTest, DropRegionAndDropPage) {
  auto c = MakeCache();
  ASSERT_NE(Put(c, 1, 0, 0, std::byte{1}, 1024), nullptr);
  ASSERT_NE(Put(c, 1, 1, 0, std::byte{1}, 1024), nullptr);
  ASSERT_NE(Put(c, 2, 0, 0, std::byte{1}, 1024), nullptr);
  c.DropPage(1, 0);
  EXPECT_EQ(c.Find(1, 0, 0), nullptr);
  EXPECT_NE(c.Find(1, 1, 0), nullptr);
  c.DropRegion(1);
  EXPECT_EQ(c.Find(1, 1, 0), nullptr);
  EXPECT_NE(c.Find(2, 0, 0), nullptr);
  EXPECT_EQ(c.stats().invalidations, 2u);  // (1,0) then (1,1); (2,0) stays
}

// ------------------------------------------- cached data path (e2e) ----
ClusterConfig SmallCluster(uint32_t clients = 1) {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = clients;
  cfg.server_capacity = 32ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xFF);
  }
  return v;
}

// Writes `data` to the region through a pinned staging buffer (the data
// path requires registered memory on both ends).
void WriteAll(RStoreClient& client, core::MappedRegion* region,
              uint64_t offset, const std::vector<std::byte>& data) {
  auto buf = client.AllocBuffer(data.size());
  ASSERT_TRUE(buf.ok()) << buf.status();
  std::memcpy(buf->begin(), data.data(), data.size());
  ASSERT_TRUE(region->Write(offset, buf->data).ok());
}

TEST(CachedReadTest, SecondReadHitsAndMovesNoRemoteBytes) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    constexpr uint64_t kSize = 64ULL << 10;  // exactly one cache page
    ASSERT_TRUE(client.Ralloc("r", kSize).ok());
    auto data = Pattern(kSize, 3);
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());

    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kImmutable;
    auto region = client.Rmap("r", opts);
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->cache_mode(), cache::CacheMode::kImmutable);
    WriteAll(client, *region, 0, data);

    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), data.data(), kSize), 0);
    const uint64_t remote_after_fill = client.bytes_read();
    EXPECT_GT(client.cache_stats().fills, 0u);

    std::memset(buf->begin(), 0, kSize);
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), data.data(), kSize), 0);
    EXPECT_EQ(client.bytes_read(), remote_after_fill);  // served locally
    EXPECT_GT(client.cache_stats().hits, 0u);
    EXPECT_EQ(client.cache_stats().bytes_from_cache, kSize);
  });
}

TEST(CachedReadTest, LongRunsBypassTheCache) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    constexpr uint64_t kSize = 1ULL << 20;  // >> bypass threshold
    ASSERT_TRUE(client.Ralloc("big", kSize).ok());
    auto data = Pattern(kSize, 9);
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());

    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kImmutable;
    auto region = client.Rmap("big", opts);
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, data);

    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), data.data(), kSize), 0);
    EXPECT_GT(client.cache_stats().bypass_reads, 0u);
    EXPECT_EQ(client.cache_stats().bytes_filled, 0u);

    // A short read still fills and then hits.
    ASSERT_TRUE((*region)->Read(0, std::span(buf->begin(), 4096)).ok());
    EXPECT_GT(client.cache_stats().fills, 0u);
    const uint64_t remote = client.bytes_read();
    ASSERT_TRUE((*region)->Read(0, std::span(buf->begin(), 4096)).ok());
    EXPECT_EQ(client.bytes_read(), remote);
    EXPECT_EQ(std::memcmp(buf->begin(), data.data(), 4096), 0);
  });
}

TEST(CachedReadTest, WriteThroughKeepsCacheAndRemoteAligned) {
  TestCluster cluster(SmallCluster(2));
  // Client 0 writes through its cache; client 1 reads uncached and must
  // see every byte, proving the write really reached the servers.
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    constexpr uint64_t kSize = 64ULL << 10;
    ASSERT_TRUE(client.Ralloc("wt", kSize).ok());
    auto v1 = Pattern(kSize, 1);
    auto v2 = Pattern(kSize, 2);
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());
    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kImmutable;
    auto region = client.Rmap("wt", opts);
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, v1);
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    // Overwrite through the cache, then read: the hit must return the
    // new bytes (local update), without refetching.
    const uint64_t remote = client.bytes_read();
    WriteAll(client, *region, 0, v2);
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    EXPECT_EQ(client.bytes_read(), remote);
    EXPECT_EQ(std::memcmp(buf->begin(), v2.data(), kSize), 0);
    ASSERT_TRUE(client.NotifyInc("written").ok());
    ASSERT_TRUE(client.WaitNotify("checked", 1).ok());
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("written", 1).ok());
    constexpr uint64_t kSize = 64ULL << 10;
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());
    auto region = client.Rmap("wt");  // uncached
    ASSERT_TRUE(region.ok());
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    auto v2 = Pattern(kSize, 2);
    EXPECT_EQ(std::memcmp(buf->begin(), v2.data(), kSize), 0);
    ASSERT_TRUE(client.NotifyInc("checked").ok());
  });
  cluster.sim().Run();
}

TEST(CachedReadTest, EpochBumpObservesConcurrentWriterUpdate) {
  TestCluster cluster(SmallCluster(2));
  // Client 0 caches under kEpoch; client 1 writes remotely between
  // epochs. Before the bump client 0 may serve the old epoch's bytes;
  // after the bump it must observe client 1's update.
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    constexpr uint64_t kSize = 64ULL << 10;
    ASSERT_TRUE(client.Ralloc("ep", kSize).ok());
    auto v1 = Pattern(kSize, 1);
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());
    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kEpoch;
    auto region = client.Rmap("ep", opts);
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, v1);
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    ASSERT_TRUE(client.NotifyInc("v1-cached").ok());
    ASSERT_TRUE(client.WaitNotify("v2-written", 1).ok());
    // Same epoch: the stale-but-allowed cached copy.
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), v1.data(), kSize), 0);
    // New epoch: every cached page of the region is a miss.
    (*region)->BumpEpoch();
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    auto v2 = Pattern(kSize, 2);
    EXPECT_EQ(std::memcmp(buf->begin(), v2.data(), kSize), 0);
  });
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("v1-cached", 1).ok());
    constexpr uint64_t kSize = 64ULL << 10;
    auto region = client.Rmap("ep");
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, Pattern(kSize, 2));
    ASSERT_TRUE(client.NotifyInc("v2-written").ok());
  });
  cluster.sim().Run();
}

TEST(CachedReadTest, RgrowAfterCachedReadInvalidatesAndServesNewTail) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    // 96 KiB: page 0 full, page 1 holds only 32 KiB — the shape where a
    // stale tail frame after growth would serve short or garbage bytes.
    constexpr uint64_t kOld = 96ULL << 10;
    constexpr uint64_t kNew = 128ULL << 10;
    ASSERT_TRUE(client.Ralloc("g", kOld).ok());
    auto v1 = Pattern(kOld, 4);
    auto buf = client.AllocBuffer(kNew);
    ASSERT_TRUE(buf.ok());
    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kImmutable;
    auto region = client.Rmap("g", opts);
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, v1);
    ASSERT_TRUE((*region)->Read(0, std::span(buf->begin(), kOld)).ok());
    ASSERT_GT(client.cache_stats().fills, 0u);

    ASSERT_TRUE(client.Rgrow("g", kNew).ok());
    EXPECT_EQ((*region)->size(), kNew);
    EXPECT_GT(client.cache_stats().invalidations, 0u);
    // Fill the grown tail, then read across the old/new boundary.
    auto tail = Pattern(kNew - kOld, 5);
    WriteAll(client, *region, kOld, tail);
    std::memset(buf->begin(), 0, kNew);
    ASSERT_TRUE((*region)->Read(0, std::span(buf->begin(), kNew)).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), v1.data(), kOld), 0);
    EXPECT_EQ(std::memcmp(buf->begin() + kOld, tail.data(), tail.size()), 0);
  });
}

TEST(CachedReadTest, RunmapAndModeChangeDropCacheState) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    constexpr uint64_t kSize = 64ULL << 10;
    ASSERT_TRUE(client.Ralloc("u", kSize).ok());
    auto data = Pattern(kSize, 6);
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());
    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kImmutable;
    auto region = client.Rmap("u", opts);
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, data);
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    const uint64_t invalidations = client.cache_stats().invalidations;

    ASSERT_TRUE(client.Runmap("u").ok());
    EXPECT_GT(client.cache_stats().invalidations, invalidations);

    // Remap uncached: reads bypass the cache entirely and still see the
    // data; the stats stay flat.
    auto plain = client.Rmap("u");
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ((*plain)->cache_mode(), cache::CacheMode::kNone);
    const uint64_t hits = client.cache_stats().hits;
    const uint64_t fills = client.cache_stats().fills;
    ASSERT_TRUE((*plain)->Read(0, buf->data).ok());
    EXPECT_EQ(std::memcmp(buf->begin(), data.data(), kSize), 0);
    EXPECT_EQ(client.cache_stats().hits, hits);
    EXPECT_EQ(client.cache_stats().fills, fills);

    // Remapping with a mode applies it to the existing mapping.
    auto back = client.Rmap("u", opts);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, *plain);
    EXPECT_EQ((*plain)->cache_mode(), cache::CacheMode::kImmutable);
  });
}

TEST(CachedReadTest, AtomicsDropTheAffectedPage) {
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    constexpr uint64_t kSize = 64ULL << 10;
    ASSERT_TRUE(client.Ralloc("a", kSize).ok());
    auto buf = client.AllocBuffer(kSize);
    ASSERT_TRUE(buf.ok());
    RmapOptions opts;
    opts.cache_mode = cache::CacheMode::kImmutable;
    auto region = client.Rmap("a", opts);
    ASSERT_TRUE(region.ok());
    WriteAll(client, *region, 0, std::vector<std::byte>(kSize));
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    auto old = (*region)->FetchAdd(8, 41);
    ASSERT_TRUE(old.ok());
    EXPECT_EQ(*old, 0u);
    // The cached page must not serve the pre-atomic bytes.
    ASSERT_TRUE((*region)->Read(0, buf->data).ok());
    uint64_t counter = 0;
    std::memcpy(&counter, buf->begin() + 8, 8);
    EXPECT_EQ(counter, 41u);
  });
}

// ------------------------------- cached vs uncached: same results ------
std::vector<double> RunPageRank(bool cached) {
  constexpr uint32_t kWorkers = 4;
  carafe::Graph g = carafe::UniformRandomGraph(1 << 10, 8.0, 4);
  TestCluster cluster(SmallCluster(kWorkers));
  std::vector<double> result;
  uint64_t cache_activity = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      if (w == 0) {
        ASSERT_TRUE(carafe::UploadGraph(client, "g", g).ok());
        ASSERT_TRUE(client.NotifyInc("uploaded").ok());
      } else {
        ASSERT_TRUE(client.WaitNotify("uploaded", 1).ok());
      }
      carafe::WorkerConfig wc{w, kWorkers, "pr"};
      wc.cache = cached;
      carafe::Worker worker(client, "g", wc);
      ASSERT_TRUE(worker.Init().ok());
      auto ranks = worker.PageRank({.iterations = 8});
      ASSERT_TRUE(ranks.ok()) << ranks.status();
      if (w == 0) result = std::move(*ranks);
      const auto& cs = client.cache_stats();
      cache_activity += cs.fills + cs.hits + cs.bypass_reads;
    });
  }
  cluster.sim().Run();
  // The cache must actually engage when asked for — and stay fully inert
  // when not.
  if (cached) {
    EXPECT_GT(cache_activity, 0u);
  } else {
    EXPECT_EQ(cache_activity, 0u);
  }
  return result;
}

TEST(CacheEquivalenceTest, PageRankIdenticalWithCacheOnAndOff) {
  std::vector<double> off = RunPageRank(false);
  std::vector<double> on = RunPageRank(true);
  ASSERT_EQ(off.size(), on.size());
  ASSERT_FALSE(off.empty());
  // Bit-identical, not merely close: cached reads return copies of the
  // same bytes the uncached path would have fetched.
  for (size_t v = 0; v < off.size(); ++v) {
    EXPECT_EQ(off[v], on[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace rstore
