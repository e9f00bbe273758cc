// Tests for rlin, the per-key linearizability checker (check/lin.h), and
// its wiring: the Wing–Gong search over per-key register subhistories
// (clean histories, stale reads, concurrent reads, pending maybe-applied
// writes, absent semantics), counterexample minimization, the JSON dump
// round-tripping through obs/json.h, capture from the KvStore client path
// and the load engine (including the satellite guarantee that deadline-
// shed and never-admitted ops never appear as completed responses), the
// zero-probe-effect contract, and the Explorer integration that finds the
// planted stale-cached-read workload under PCT and replays it
// deterministically.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/lin.h"
#include "core/cluster.h"
#include "explore/explorer.h"
#include "explore/workloads.h"
#include "kv/kv.h"
#include "load/engine.h"
#include "obs/json.h"
#include "sim/time.h"

namespace rstore {
namespace {

using check::kLinAbsent;
using check::LinChecker;
using check::LinOpKind;
using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

constexpr LinOpKind kR = LinOpKind::kRead;
constexpr LinOpKind kW = LinOpKind::kWrite;

uint64_t Dig(const char* s) { return LinChecker::Digest(s, __builtin_strlen(s)); }

// ------------------------------------------------------- checker core --

TEST(LinCheckerTest, CleanSequentialHistoryPasses) {
  LinChecker lin;
  const uint64_t v1 = Dig("v1"), v2 = Dig("v2");
  lin.RecordOp(0, kW, 7, v1, 10, 20);
  lin.RecordOp(1, kR, 7, v1, 30, 40);
  lin.RecordOp(0, kW, 7, v2, 50, 60);
  lin.RecordOp(1, kR, 7, v2, 70, 80);
  lin.RecordOp(2, kR, 9, kLinAbsent, 15, 25);  // untouched key reads absent
  lin.Finalize();
  EXPECT_EQ(lin.violation_count(), 0u);
  EXPECT_EQ(lin.stats().keys_checked, 2u);
  EXPECT_EQ(lin.stats().keys_inconclusive, 0u);
  EXPECT_EQ(lin.op_count(), 5u);
}

TEST(LinCheckerTest, StaleReadAfterWriteIsViolation) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0"), v1 = Dig("v1");
  lin.RecordInit(7, v0);
  lin.RecordOp(0, kW, 7, v1, 10, 20);
  lin.RecordOp(1, kR, 7, v0, 30, 40);  // inv after the write's resp: stale
  lin.Finalize();
  ASSERT_EQ(lin.violation_count(), 1u);
  const check::LinViolation& v = lin.violations()[0];
  EXPECT_EQ(v.key, 7u);
  EXPECT_EQ(v.history_ops, 2u);
  EXPECT_LE(v.ops.size(), 2u);
  EXPECT_FALSE(v.detail.empty());
}

TEST(LinCheckerTest, ConcurrentReadsMaySeeEitherValue) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0"), v1 = Dig("v1");
  lin.RecordInit(7, v0);
  lin.RecordOp(0, kW, 7, v1, 10, 50);
  lin.RecordOp(1, kR, 7, v0, 20, 30);  // linearizes before the write
  lin.RecordOp(2, kR, 7, v1, 25, 35);  // linearizes after the write
  lin.Finalize();
  EXPECT_EQ(lin.violation_count(), 0u);
}

TEST(LinCheckerTest, ReadOfFutureValueIsViolation) {
  LinChecker lin;
  const uint64_t v1 = Dig("v1");
  lin.RecordOp(1, kR, 7, v1, 1, 5);  // resp before the write's inv
  lin.RecordOp(0, kW, 7, v1, 10, 20);
  lin.Finalize();
  EXPECT_EQ(lin.violation_count(), 1u);
}

TEST(LinCheckerTest, PendingWriteMayApplyOrNot) {
  const uint64_t v0 = Dig("v0"), v1 = Dig("v1");
  {
    // Applied: a later read sees it.
    LinChecker lin;
    lin.RecordInit(7, v0);
    lin.RecordPending(0, kW, 7, v1, 10);
    lin.RecordOp(1, kR, 7, v1, 20, 30);
    lin.Finalize();
    EXPECT_EQ(lin.violation_count(), 0u);
  }
  {
    // Not applied: a later read still sees the old value.
    LinChecker lin;
    lin.RecordInit(7, v0);
    lin.RecordPending(0, kW, 7, v1, 10);
    lin.RecordOp(1, kR, 7, v0, 20, 30);
    lin.Finalize();
    EXPECT_EQ(lin.violation_count(), 0u);
  }
  {
    // But it cannot un-apply: v1 then v0 has no witness order.
    LinChecker lin;
    lin.RecordInit(7, v0);
    lin.RecordPending(0, kW, 7, v1, 10);
    lin.RecordOp(1, kR, 7, v1, 20, 30);
    lin.RecordOp(1, kR, 7, v0, 40, 50);
    lin.Finalize();
    EXPECT_EQ(lin.violation_count(), 1u);
  }
}

TEST(LinCheckerTest, DeleteIsWriteOfAbsent) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0");
  lin.RecordInit(7, v0);
  lin.RecordOp(0, kW, 7, kLinAbsent, 10, 20);  // delete
  lin.RecordOp(1, kR, 7, kLinAbsent, 30, 40);  // not-found: fine
  lin.RecordOp(1, kR, 7, v0, 50, 60);          // resurrection: violation
  lin.Finalize();
  ASSERT_EQ(lin.violation_count(), 1u);
  EXPECT_EQ(lin.violations()[0].key, 7u);
}

TEST(LinCheckerTest, ViolationsAttributePerKey) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0"), v1 = Dig("v1");
  // Key 3 is broken, key 4 is fine.
  lin.RecordInit(3, v0);
  lin.RecordOp(0, kW, 3, v1, 10, 20);
  lin.RecordOp(1, kR, 3, v0, 30, 40);
  lin.RecordOp(0, kW, 4, v1, 10, 20);
  lin.RecordOp(1, kR, 4, v1, 30, 40);
  lin.Finalize();
  ASSERT_EQ(lin.violation_count(), 1u);
  EXPECT_EQ(lin.violations()[0].key, 3u);
  EXPECT_EQ(lin.stats().keys_checked, 2u);
}

TEST(LinCheckerTest, MinimizationDropsIrrelevantOps) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0"), v1 = Dig("v1");
  lin.RecordInit(7, v0);
  // Padding: a long clean prefix of reads that match the register.
  for (uint64_t i = 0; i < 40; ++i) {
    lin.RecordOp(2, kR, 7, v0, 100 + 10 * i, 105 + 10 * i);
  }
  lin.RecordOp(0, kW, 7, v1, 1000, 1010);
  lin.RecordOp(1, kR, 7, v0, 1020, 1030);  // the stale read
  lin.Finalize();
  ASSERT_EQ(lin.violation_count(), 1u);
  EXPECT_EQ(lin.violations()[0].history_ops, 42u);
  EXPECT_LE(lin.violations()[0].ops.size(), 3u);
}

TEST(LinCheckerTest, GreedyReadsAndMemoKeepSearchSmall) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0");
  lin.RecordInit(7, v0);
  for (uint64_t i = 0; i < 2000; ++i) {
    lin.RecordOp(static_cast<uint32_t>(i % 5), kR, 7, v0, 10 * i, 10 * i + 8);
  }
  lin.Finalize();
  EXPECT_EQ(lin.violation_count(), 0u);
  EXPECT_GT(lin.stats().greedy_reads, 0u);
  // Linear in the history, not exponential.
  EXPECT_LT(lin.stats().states_explored, 10000u);
}

TEST(LinCheckerTest, DumpJsonRoundTripsThroughSharedParser) {
  LinChecker lin;
  const uint64_t v0 = Dig("v0"), v1 = Dig("v1");
  lin.RecordInit(7, v0);
  lin.RecordOp(0, kW, 7, v1, 10, 20);
  lin.RecordOp(1, kR, 7, v0, 30, 40);
  lin.RecordPending(2, kW, 7, Dig("v2"), 35);
  lin.Finalize();
  ASSERT_EQ(lin.violation_count(), 1u);

  std::ostringstream os;
  lin.DumpJson(os);
  auto root = obs::ParseJson(os.str());
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->Find("tool")->str, "rlin");
  EXPECT_EQ(static_cast<uint64_t>(root->Find("violation_count")->number), 1u);
  const obs::JsonValue* violations = root->Find("violations");
  ASSERT_TRUE(violations != nullptr &&
              violations->Is(obs::JsonValue::Type::kArray));
  ASSERT_EQ(violations->array.size(), 1u);
  const obs::JsonValue& v = violations->array[0];
  EXPECT_EQ(v.Find("key")->str, "0x7");  // 64-bit fields are hex strings
  const obs::JsonValue* ops = v.Find("ops");
  ASSERT_TRUE(ops != nullptr && ops->Is(obs::JsonValue::Type::kArray));
  ASSERT_GE(ops->array.size(), 2u);
  for (const obs::JsonValue& op : ops->array) {
    const std::string kind = op.Find("kind")->str;
    EXPECT_TRUE(kind == "read" || kind == "write");
    EXPECT_EQ(op.Find("digest")->str.rfind("0x", 0), 0u);
    // Pending ops emit resp_ns as null, completed ones as a number.
    const bool pending = op.Find("pending")->boolean;
    EXPECT_EQ(op.Find("resp_ns")->Is(obs::JsonValue::Type::kNull), pending);
  }
}

// ---------------------------------------------------- KvStore capture --

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

TEST(LinKvTest, ClientPathRecordsCompletedOpsAndStaysClean) {
  LinChecker lin;
  TestCluster cluster(SmallCluster());
  cluster.sim().AttachLinChecker(&lin);
  cluster.RunClient([&](RStoreClient& client) {
    auto kv = kv::KvStore::Create(client, "table");
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("alpha", "one").ok());
    EXPECT_TRUE((*kv)->Get("alpha").ok());
    EXPECT_EQ((*kv)->Get("missing").code(), ErrorCode::kNotFound);
    ASSERT_TRUE((*kv)->Put("alpha", "two").ok());
    EXPECT_TRUE((*kv)->Get("alpha").ok());
    ASSERT_TRUE((*kv)->Delete("alpha").ok());
    EXPECT_EQ((*kv)->Get("alpha").code(), ErrorCode::kNotFound);
  });
  lin.Finalize();
  // Every completed CRUD op above is in the history: 2 puts, 4 gets
  // (2 found + 2 not-found), 1 delete.
  EXPECT_EQ(lin.op_count(), 7u);
  EXPECT_EQ(lin.violation_count(), 0u)
      << "false positive on a sequential KV run";
}

// ------------------------------------------------- load-engine capture --

load::LoadOptions SmallLoad() {
  load::LoadOptions o;
  o.sessions = 64;
  o.offered_load = 100e3;
  o.duration = sim::Millis(2);
  o.preload_keys = 1024;
  o.mix = load::WorkloadMix::Ycsb('a');
  o.seed = 5;
  return o;
}

struct EngineRun {
  load::EngineStats stats;
  uint64_t virtual_nanos = 0;
  size_t lin_ops = 0;
  size_t lin_violations = 0;
};

EngineRun RunEngine(const load::LoadOptions& opts, bool with_lin) {
  LinChecker lin;
  TestCluster cluster(SmallCluster());
  if (with_lin) cluster.sim().AttachLinChecker(&lin);
  EngineRun r;
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(load::LoadEngine::PreloadTable(client, "t", opts).ok());
    load::LoadEngine engine(client, "t", opts, 0, 1);
    ASSERT_TRUE(engine.Run().ok());
    r.stats = engine.stats();
  });
  r.virtual_nanos = cluster.sim().NowNanos();
  if (with_lin) {
    lin.Finalize();
    r.lin_ops = lin.op_count();
    r.lin_violations = lin.violation_count();
  }
  return r;
}

TEST(LinEngineTest, HistoryIsLinearizableAndCoversCompletedOps) {
  const EngineRun r = RunEngine(SmallLoad(), /*with_lin=*/true);
  EXPECT_GT(r.stats.completed, 100u);
  EXPECT_EQ(r.stats.errors, 0u);
  // YCSB A has no scans, so every completed op is in the history.
  EXPECT_EQ(r.lin_ops, r.stats.completed);
  EXPECT_EQ(r.lin_violations, 0u)
      << "false positive on the real engine history";
}

TEST(LinEngineTest, ShedAndDeferredOpsNeverAppearAsResponses) {
  // Overload hard enough that admission defers and the deadline sheds.
  // Shed ops and never-admitted deferred ops never reach completion, so
  // they must not appear in the captured history — a shed op that leaked
  // into the history as a completed response would poison the check.
  load::LoadOptions opts = SmallLoad();
  opts.offered_load = 4e6;
  opts.shed_deadline = sim::Millis(1);
  const EngineRun r = RunEngine(opts, /*with_lin=*/true);
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_LT(r.stats.completed, r.stats.arrivals);
  // Completed ops are all recorded; failed ops contribute at most one
  // pending maybe-write each; shed ops contribute nothing.
  EXPECT_GE(r.lin_ops, r.stats.completed);
  EXPECT_LE(r.lin_ops, r.stats.completed + r.stats.errors);
  EXPECT_LE(r.lin_ops, r.stats.arrivals - r.stats.shed);
  EXPECT_EQ(r.lin_violations, 0u);
}

TEST(LinEngineTest, AttachingTheCheckerHasZeroProbeEffect) {
  load::LoadOptions opts = SmallLoad();
  opts.offered_load = 400e3;  // some queueing, so ordering is stressed
  const EngineRun off = RunEngine(opts, /*with_lin=*/false);
  const EngineRun on = RunEngine(opts, /*with_lin=*/true);
  EXPECT_EQ(on.virtual_nanos, off.virtual_nanos);
  EXPECT_EQ(on.stats.completed, off.stats.completed);
  EXPECT_GT(on.lin_ops, 0u);
}

// --------------------------------------------------- Explorer oracle --

TEST(LinExploreTest, PlantedStaleReadIsCleanAtBaseline) {
  const auto all = explore::BuiltinWorkloads();
  const explore::NamedWorkload* w =
      explore::FindWorkload(all, "stale-cached-read");
  ASSERT_NE(w, nullptr);
  explore::ExploreOptions opts;
  opts.policy = "baseline";
  opts.runs = 1;
  const explore::ExploreReport report =
      explore::Explorer(opts).Explore(w->workload);
  EXPECT_FALSE(report.violation_found)
      << "the stale branch must be unreachable without injected delay";
}

TEST(LinExploreTest, PctFindsPlantedStaleReadAndReplaysDeterministically) {
  const auto all = explore::BuiltinWorkloads();
  const explore::NamedWorkload* w =
      explore::FindWorkload(all, "stale-cached-read");
  ASSERT_NE(w, nullptr);
  explore::ExploreOptions opts;
  opts.policy = "pct";
  opts.pct_depth = 3;
  opts.seed = 1;
  opts.runs = 64;  // bounded budget; in practice it fires within a few
  opts.max_delay_ns = 120000;
  const explore::ExploreReport report =
      explore::Explorer(opts).Explore(w->workload);
  ASSERT_TRUE(report.violation_found);
  EXPECT_GE(report.violating.lin_violation_count, 1u);
  EXPECT_FALSE(report.violating.lin_report_json.empty());
  ASSERT_FALSE(report.violating.violation_sigs.empty());
  const std::string sig = report.violating.violation_sigs[0];
  EXPECT_EQ(sig, "lin@key0x57a1e");  // schedule-independent identity

  // The minimized trace still reproduces the same violation, and replay
  // is deterministic: two replays agree bit-for-bit.
  const explore::RunOutcome a = explore::Explorer::Replay(w->workload,
                                                          report.minimized);
  const explore::RunOutcome b = explore::Explorer::Replay(w->workload,
                                                          report.minimized);
  ASSERT_EQ(a.violation_count, 1u);
  EXPECT_EQ(a.violation_sigs, report.violating.violation_sigs);
  EXPECT_EQ(a.final_vtime, b.final_vtime);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.violation_sigs, b.violation_sigs);
  EXPECT_EQ(a.lin_report_json, b.lin_report_json);

  // The counterexample JSON parses with the shared parser.
  auto parsed = obs::ParseJson(a.lin_report_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("tool")->str, "rlin");
}

TEST(LinExploreTest, ExistingWorkloadsAreLinClean) {
  // The rcheck workloads record no KV ops, and the fenced handoff is
  // correct — rlin must stay silent on all of them (zero false
  // positives), including under exploration.
  for (const char* name : {"fenced-handoff", "atomic-counter"}) {
    const auto all = explore::BuiltinWorkloads();
    const explore::NamedWorkload* w = explore::FindWorkload(all, name);
    ASSERT_NE(w, nullptr);
    explore::ExploreOptions opts;
    opts.policy = "random";
    opts.seed = 3;
    opts.runs = 4;
    opts.max_delay_ns = 120000;
    const explore::ExploreReport report =
        explore::Explorer(opts).Explore(w->workload);
    EXPECT_EQ(report.violation_found ? report.violating.lin_violation_count
                                     : 0u,
              0u)
        << name;
  }
}

}  // namespace
}  // namespace rstore
