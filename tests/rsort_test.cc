// Tests for RSort: record generation/validation primitives and the
// distributed sample sort end-to-end (sortedness, multiset preservation,
// scaling behaviour, skew robustness).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/cluster.h"
#include "rsort/records.h"
#include "rsort/rsort.h"

namespace rstore::sort {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

// --------------------------------------------------------------- records --
TEST(RecordsTest, GenerationIsDeterministicAndIndexed) {
  std::byte a[kRecordBytes], b[kRecordBytes];
  GenerateRecord(1, 7, a);
  GenerateRecord(1, 7, b);
  EXPECT_EQ(std::memcmp(a, b, kRecordBytes), 0);
  GenerateRecord(1, 8, b);
  EXPECT_NE(std::memcmp(a, b, kRecordBytes), 0);
  GenerateRecord(2, 7, b);
  EXPECT_NE(std::memcmp(a, b, kRecordBytes), 0);
  // The record index is recoverable from the payload.
  uint64_t idx = 0;
  std::memcpy(&idx, a + kKeyBytes, sizeof(idx));
  EXPECT_EQ(idx, 7u);
}

TEST(RecordsTest, GenerateRecordsMatchesSingleCalls) {
  std::vector<std::byte> bulk(5 * kRecordBytes);
  GenerateRecords(3, 100, 5, bulk.data());
  for (uint64_t i = 0; i < 5; ++i) {
    std::byte one[kRecordBytes];
    GenerateRecord(3, 100 + i, one);
    EXPECT_EQ(std::memcmp(bulk.data() + i * kRecordBytes, one, kRecordBytes),
              0);
  }
}

TEST(RecordsTest, SortRecordsSortsAndChecksumInvariant) {
  std::vector<std::byte> recs(1000 * kRecordBytes);
  GenerateRecords(9, 0, 1000, recs.data());
  EXPECT_FALSE(IsSorted(recs.data(), 1000));
  const uint64_t before = UnorderedChecksum(recs.data(), 1000);
  SortRecords(recs.data(), 1000);
  EXPECT_TRUE(IsSorted(recs.data(), 1000));
  EXPECT_EQ(UnorderedChecksum(recs.data(), 1000), before);
}

TEST(RecordsTest, ChecksumIsOrderIndependentButContentSensitive) {
  std::vector<std::byte> a(10 * kRecordBytes), b(10 * kRecordBytes);
  GenerateRecords(4, 0, 10, a.data());
  // b = a with first two records swapped.
  b = a;
  std::vector<std::byte> tmp(kRecordBytes);
  std::memcpy(tmp.data(), b.data(), kRecordBytes);
  std::memcpy(b.data(), b.data() + kRecordBytes, kRecordBytes);
  std::memcpy(b.data() + kRecordBytes, tmp.data(), kRecordBytes);
  EXPECT_EQ(UnorderedChecksum(a.data(), 10), UnorderedChecksum(b.data(), 10));
  b[kRecordBytes + 50] ^= std::byte{1};  // corrupt one payload byte
  EXPECT_NE(UnorderedChecksum(a.data(), 10), UnorderedChecksum(b.data(), 10));
}

TEST(RecordsTest, EdgeCases) {
  EXPECT_TRUE(IsSorted(nullptr, 0));
  std::byte one[kRecordBytes];
  GenerateRecord(5, 0, one);
  EXPECT_TRUE(IsSorted(one, 1));
  EXPECT_EQ(UnorderedChecksum(nullptr, 0), 0u);
  SortRecords(one, 1);  // no-op, must not crash
}

// --------------------------------------------------------------- rsort ----
ClusterConfig SortCluster(uint32_t workers, uint64_t capacity_mb = 96) {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = workers;
  cfg.server_capacity = capacity_mb << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

// No padding bytes: gtest names each case with a byte dump of the param,
// and padding would put stack garbage into the test names.
struct SortCase {
  uint64_t workers;
  uint64_t records;
};
static_assert(sizeof(SortCase) == 2 * sizeof(uint64_t));

class SortFixture : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortFixture, SortsAndPreservesMultiset) {
  const SortCase p = GetParam();
  TestCluster cluster(SortCluster(p.workers));
  int done = 0;
  for (uint32_t w = 0; w < p.workers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      SortConfig cfg;
      cfg.worker_id = w;
      cfg.num_workers = p.workers;
      cfg.total_records = p.records;
      cfg.seed = 77;
      SortWorker worker(client, cfg);
      ASSERT_TRUE(worker.GenerateInput().ok());
      ASSERT_TRUE(client.NotifyInc("gen").ok());
      ASSERT_TRUE(client.WaitNotify("gen", p.workers).ok());
      auto stats = worker.Sort();
      ASSERT_TRUE(stats.ok()) << stats.status();
      if (w == 0) {
        EXPECT_TRUE(ValidateSortedOutput(client, cfg).ok());
      }
      ++done;
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(done, static_cast<int>(p.workers));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortFixture,
    ::testing::Values(SortCase{1, 5'000}, SortCase{2, 20'000},
                      SortCase{4, 50'000}, SortCase{4, 100'003}),
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return std::to_string(info.param.workers) + "w_" +
             std::to_string(info.param.records) + "r";
    });

TEST(SortTest, RecordCountsConserved) {
  constexpr uint32_t kWorkers = 4;
  constexpr uint64_t kRecords = 40'000;
  TestCluster cluster(SortCluster(kWorkers));
  uint64_t total_out = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      SortConfig cfg{.worker_id = w,
                     .num_workers = kWorkers,
                     .total_records = kRecords,
                     .seed = 5};
      SortWorker worker(client, cfg);
      ASSERT_TRUE(worker.GenerateInput().ok());
      ASSERT_TRUE(client.NotifyInc("gen").ok());
      ASSERT_TRUE(client.WaitNotify("gen", kWorkers).ok());
      auto stats = worker.Sort();
      ASSERT_TRUE(stats.ok());
      total_out += stats->records_out;
      EXPECT_EQ(stats->records_in, kRecords / kWorkers);
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(total_out, kRecords);
}

TEST(SortTest, MoreWorkersSortFaster) {
  auto run = [](uint32_t workers) {
    constexpr uint64_t kRecords = 200'000;  // 20 MB
    TestCluster cluster(SortCluster(workers, 128));
    sim::Nanos slowest = 0;
    for (uint32_t w = 0; w < workers; ++w) {
      cluster.SpawnClient(w, [&, w, workers](RStoreClient& client) {
        SortConfig cfg{.worker_id = w,
                       .num_workers = workers,
                       .total_records = kRecords,
                       .seed = 11};
        SortWorker worker(client, cfg);
        ASSERT_TRUE(worker.GenerateInput().ok());
        ASSERT_TRUE(client.NotifyInc("gen").ok());
        ASSERT_TRUE(client.WaitNotify("gen", workers).ok());
        auto stats = worker.Sort();
        ASSERT_TRUE(stats.ok());
        slowest = std::max(slowest, stats->total_time);
      });
    }
    cluster.sim().Run();
    return slowest;
  };
  const sim::Nanos two = run(2);
  const sim::Nanos eight = run(8);
  EXPECT_LT(eight, two * 2 / 3);
}

TEST(SortTest, ValidationCatchesCorruption) {
  constexpr uint32_t kWorkers = 2;
  constexpr uint64_t kRecords = 10'000;
  TestCluster cluster(SortCluster(kWorkers));
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      SortConfig cfg{.worker_id = w,
                     .num_workers = kWorkers,
                     .total_records = kRecords,
                     .seed = 3};
      SortWorker worker(client, cfg);
      ASSERT_TRUE(worker.GenerateInput().ok());
      ASSERT_TRUE(client.NotifyInc("gen").ok());
      ASSERT_TRUE(client.WaitNotify("gen", kWorkers).ok());
      ASSERT_TRUE(worker.Sort().ok());
      ASSERT_TRUE(client.NotifyInc("sorted").ok());
      if (w != 0) return;
      ASSERT_TRUE(client.WaitNotify("sorted", kWorkers).ok());
      ASSERT_TRUE(ValidateSortedOutput(client, cfg).ok());
      // Corrupt one byte of the output; validation must now fail.
      auto region = client.Rmap("rsort/output");
      ASSERT_TRUE(region.ok());
      auto buf = client.AllocBuffer(1);
      ASSERT_TRUE(buf.ok());
      buf->begin()[0] = std::byte{0xFF};
      ASSERT_TRUE(
          (*region)->Write(kRecordBytes * 17 + kKeyBytes + 20, buf->data)
              .ok());
      EXPECT_FALSE(ValidateSortedOutput(client, cfg).ok());
    });
  }
  cluster.sim().Run();
}

TEST(SortTest, SkewedKeysStillBalanceViaSampling) {
  // All keys share a common prefix byte; splitters must still divide the
  // space (sampling sees the real distribution, not the key space).
  constexpr uint32_t kWorkers = 4;
  constexpr uint64_t kRecords = 40'000;
  TestCluster cluster(SortCluster(kWorkers));
  std::vector<uint64_t> outs(kWorkers, 0);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](RStoreClient& client) {
      SortConfig cfg{.worker_id = w,
                     .num_workers = kWorkers,
                     .total_records = kRecords,
                     .seed = 13,
                     .samples_per_worker = 256,
                     .job = "skew"};
      SortWorker worker(client, cfg);
      ASSERT_TRUE(worker.GenerateInput().ok());
      ASSERT_TRUE(client.NotifyInc("gen").ok());
      ASSERT_TRUE(client.WaitNotify("gen", kWorkers).ok());
      auto stats = worker.Sort();
      ASSERT_TRUE(stats.ok());
      outs[w] = stats->records_out;
    });
  }
  cluster.sim().Run();
  const uint64_t ideal = kRecords / kWorkers;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_GT(outs[w], ideal / 2) << "worker " << w;
    EXPECT_LT(outs[w], ideal * 2) << "worker " << w;
  }
}

}  // namespace
}  // namespace rstore::sort
