// Tests for src/load, the open-loop massive-fan-in serving stack:
// admission control (window / FIFO deferral / shed), workload vocabulary
// (YCSB mixes), session-to-QP multiplexing ratios, the
// LoadEngine state machines end to end on a small cluster, rcheck
// cleanliness,
// coordinated-omission-safe latency anchoring under overload, rtrace
// per-op causal tracing (stage sums, slowest-K reservoir, probe-effect
// bit-identity), the space-saving hot-key sketch, and engine-local key
// claims (write combining, the failure rule and the kind rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "check/check.h"
#include "check/lin.h"
#include "core/cluster.h"
#include "kv/kv.h"
#include "load/admission.h"
#include "load/engine.h"
#include "load/hotkeys.h"
#include "load/key_claims.h"
#include "kv/session_mux.h"
#include "kv/step_issuer.h"
#include "load/workload.h"
#include "obs/rtrace.h"
#include "sim/time.h"

namespace rstore::load {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

// ------------------------------------------------------------ Admission --
TEST(AdmissionTest, WindowDefersThenShedsAndReleasesFifo) {
  AdmissionController ac(/*servers=*/2, /*enabled=*/true,
                         /*window_per_server=*/2, /*max_deferred=*/2);
  EXPECT_EQ(ac.TryAdmit(0, 10), Admit::kAdmit);
  EXPECT_EQ(ac.TryAdmit(0, 11), Admit::kAdmit);
  EXPECT_EQ(ac.TryAdmit(0, 12), Admit::kDefer);
  EXPECT_EQ(ac.TryAdmit(0, 13), Admit::kDefer);
  EXPECT_EQ(ac.TryAdmit(0, 14), Admit::kShed);
  EXPECT_EQ(ac.inflight(0), 2u);
  EXPECT_EQ(ac.deferred(0), 2u);
  // Server 1 is an independent window.
  EXPECT_EQ(ac.TryAdmit(1, 20), Admit::kAdmit);
  // Releases re-admit deferred sessions in FIFO order, keeping the
  // in-flight count at the window.
  EXPECT_EQ(ac.Release(0), 12);
  EXPECT_EQ(ac.inflight(0), 2u);
  EXPECT_EQ(ac.Release(0), 13);
  EXPECT_EQ(ac.Release(0), -1);
  EXPECT_EQ(ac.inflight(0), 1u);
  EXPECT_EQ(ac.stats().admitted, 3u);
  EXPECT_EQ(ac.stats().deferred, 2u);
  EXPECT_EQ(ac.stats().shed, 1u);
  EXPECT_EQ(ac.stats().inflight_high_water, 2u);
  EXPECT_EQ(ac.stats().deferred_high_water, 2u);
}

TEST(AdmissionTest, DisabledPassesThroughButStillTracks) {
  AdmissionController ac(1, /*enabled=*/false, /*window_per_server=*/1,
                         /*max_deferred=*/1);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(ac.TryAdmit(0, s), Admit::kAdmit);
  }
  EXPECT_EQ(ac.inflight(0), 8u);
  EXPECT_EQ(ac.stats().inflight_high_water, 8u);
  EXPECT_EQ(ac.stats().deferred, 0u);
  EXPECT_EQ(ac.stats().shed, 0u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ac.Release(0), -1);
  EXPECT_TRUE(ac.idle());
}

// ----------------------------------------------------------- Key claims --
TEST(KeyClaimsTest, BatchesByKindAndRequeuesRidersOfAFailedHolder) {
  constexpr OpType kU = OpType::kUpdate;
  constexpr OpType kR = OpType::kReadModifyWrite;
  using Role = KeyClaims::Role;
  using Outcome = KeyClaims::Outcome;
  EXPECT_TRUE(KeyClaims::Claims(kU));
  EXPECT_TRUE(KeyClaims::Claims(kR));
  EXPECT_FALSE(KeyClaims::Claims(OpType::kRead));
  EXPECT_FALSE(KeyClaims::Claims(OpType::kInsert));
  EXPECT_FALSE(KeyClaims::Claims(OpType::kScan));

  // Every holder has already posted its write, so nothing joins a batch.
  const auto posted = [](uint32_t) { return true; };
  KeyClaims claims;
  EXPECT_EQ(claims.Acquire(7, 0, kU, posted), Role::kHolder);
  EXPECT_EQ(claims.Acquire(8, 9, kU, posted), Role::kHolder);  // another key
  EXPECT_EQ(claims.Acquire(7, 1, kR, posted), Role::kParked);  // FIFO order
  EXPECT_EQ(claims.Acquire(7, 2, kU, posted), Role::kParked);
  EXPECT_EQ(claims.Acquire(7, 3, kR, posted), Role::kParked);
  EXPECT_EQ(claims.Acquire(7, 4, kU, posted), Role::kParked);

  // The first holder had no riders. The next batch is session 1 (an
  // RMW) with the later RMW riding; the upserts keep their places.
  std::vector<uint32_t> riders;
  EXPECT_EQ(claims.Release(7, Outcome::kWrite, riders), 1);
  EXPECT_TRUE(riders.empty());
  // Session 1 fails: its rider goes back to the front of the FIFO and
  // runs its own op, and the upserts still wait for a batch of their own.
  EXPECT_EQ(claims.Release(7, Outcome::kError, riders), 3);
  EXPECT_TRUE(riders.empty());
  // Session 3 answers: the upserts form one batch.
  EXPECT_EQ(claims.Release(7, Outcome::kWrite, riders), 2);
  EXPECT_TRUE(riders.empty());
  EXPECT_EQ(claims.Release(7, Outcome::kWrite, riders), -1);
  EXPECT_EQ(riders, std::vector<uint32_t>({4}));
  // The key is free again: the next write holds it at once.
  EXPECT_EQ(claims.Acquire(7, 5, kR, posted), Role::kHolder);
  EXPECT_EQ(claims.Acquire(8, 6, kU, posted), Role::kParked);
}

TEST(KeyClaimsTest, JoinsTheOpenBatchUntilItsWriteIsPosted) {
  constexpr OpType kU = OpType::kUpdate;
  constexpr OpType kR = OpType::kReadModifyWrite;
  using Role = KeyClaims::Role;
  using Outcome = KeyClaims::Outcome;
  std::vector<bool> wrote(16, false);  // per session: write posted
  const auto posted = [&](uint32_t h) { return bool{wrote[h]}; };
  KeyClaims claims;
  std::vector<uint32_t> riders;

  // A same-kind write joins the holder's open batch; a write of the
  // other kind parks, and so does a same-kind write once the holder has
  // posted its write.
  EXPECT_EQ(claims.Acquire(7, 0, kU, posted), Role::kHolder);
  EXPECT_EQ(claims.Acquire(7, 1, kU, posted), Role::kRider);
  EXPECT_EQ(claims.Acquire(7, 2, kR, posted), Role::kParked);
  wrote[0] = true;
  EXPECT_EQ(claims.Acquire(7, 3, kU, posted), Role::kParked);
  // The holder's write completes the joined rider. The parked RMW holds
  // next, and the parked upsert waits for a batch of its own.
  EXPECT_EQ(claims.Release(7, Outcome::kWrite, riders), 2);
  EXPECT_EQ(riders, std::vector<uint32_t>({1}));
  riders.clear();
  EXPECT_EQ(claims.Release(7, Outcome::kNotFound, riders), 3);
  EXPECT_EQ(claims.Release(7, Outcome::kWrite, riders), -1);
  EXPECT_TRUE(riders.empty());

  // RMWs: session 11 joins holder 10's open batch, and 12 and 13 park
  // behind its posted write. 10 writes and completes 11; 12 holds with
  // 13 batched, and 14 joins 12's open batch.
  EXPECT_EQ(claims.Acquire(9, 10, kR, posted), Role::kHolder);
  EXPECT_EQ(claims.Acquire(9, 11, kR, posted), Role::kRider);
  wrote[10] = true;
  EXPECT_EQ(claims.Acquire(9, 12, kR, posted), Role::kParked);
  EXPECT_EQ(claims.Acquire(9, 13, kR, posted), Role::kParked);
  EXPECT_EQ(claims.Release(9, Outcome::kWrite, riders), 12);
  EXPECT_EQ(riders, std::vector<uint32_t>({11}));
  EXPECT_EQ(claims.Acquire(9, 14, kR, posted), Role::kRider);
  // 12 misses. Its probe may predate 14's invocation, so the miss passes
  // to the batched 13 only, and 14 runs its own op as the next holder.
  riders.clear();
  EXPECT_EQ(claims.Release(9, Outcome::kNotFound, riders), 14);
  EXPECT_EQ(riders, std::vector<uint32_t>({13}));
  riders.clear();
  EXPECT_EQ(claims.Release(9, Outcome::kNotFound, riders), -1);
  EXPECT_TRUE(riders.empty());
}

// ------------------------------------------------------------- Workload --
TEST(WorkloadMixTest, PickTracksNamedMixFractions) {
  Rng rng(3);
  const WorkloadMix a = WorkloadMix::Ycsb('a');
  int reads = 0, updates = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const OpType op = a.Pick(rng);
    if (op == OpType::kRead) ++reads;
    if (op == OpType::kUpdate) ++updates;
  }
  EXPECT_EQ(reads + updates, kDraws);  // A is read/update only
  EXPECT_NEAR(reads, kDraws / 2, kDraws / 20);

  const WorkloadMix e = WorkloadMix::Ycsb('e');
  int scans = 0, inserts = 0;
  for (int i = 0; i < kDraws; ++i) {
    const OpType op = e.Pick(rng);
    if (op == OpType::kScan) ++scans;
    if (op == OpType::kInsert) ++inserts;
  }
  EXPECT_EQ(scans + inserts, kDraws);
  EXPECT_NEAR(scans, kDraws * 95 / 100, kDraws / 20);
}

// ----------------------------------------------------------- SessionMux --
TEST(SessionMuxTest, ConnectsBoundedPoolAndPinsSessionsToOneQp) {
  // QpIndexFor is the FIFO guarantee: a session's ops to one server must
  // ride one RC QP (post order == completion order on an RC QP). Connect
  // a real pool inside a cluster and pin the mapping and pool size.
  constexpr uint32_t kQpPerServer = 2, kSessions = 1000;
  core::ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  core::TestCluster cluster(cfg);
  std::vector<uint32_t> servers;
  for (uint32_t i = 0; i < cfg.memory_servers; ++i) {
    servers.push_back(cluster.server_node(i).id());
  }
  cluster.RunClient([&](RStoreClient& client) {
    kv::SessionMux mux(client.device());
    ASSERT_TRUE(mux.Layout(servers, kQpPerServer).ok());
    ASSERT_TRUE(mux.Connect().ok());
    // Bounded pool: exactly qp_per_server QPs per memory server.
    ASSERT_EQ(mux.qp_count(), cfg.memory_servers * kQpPerServer);
    for (uint32_t server = 0; server < cfg.memory_servers; ++server) {
      for (uint32_t s = 0; s < kSessions; ++s) {
        const uint32_t qp = mux.QpIndexFor(server, s);
        // Stable: the same (server, session) always lands on the same QP.
        EXPECT_EQ(qp, mux.QpIndexFor(server, s));
        // And inside that server's QP block.
        EXPECT_GE(qp, server * kQpPerServer);
        EXPECT_LT(qp, (server + 1) * kQpPerServer);
      }
    }
  });
  // 1000 sessions over 2 QPs per server = 500:1 per (server, engine).
  EXPECT_GE(kSessions / kQpPerServer, 100u);
}

// Network::ConnectAll programs the pool's QPs one after another and
// overlaps their CM exchanges: 16 QPs cost 16 client programmings plus
// one exchange (the last request's round trip and its server-side
// programming), not 16 exchanges.
TEST(SessionMuxTest, PoolConnectsInItsProgrammingPlusOneExchange) {
  constexpr uint32_t kServers = 8, kQpPerServer = 2;
  core::ClusterConfig cfg;
  cfg.memory_servers = kServers;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  core::TestCluster cluster(cfg);
  std::vector<uint32_t> servers;
  for (uint32_t i = 0; i < kServers; ++i) {
    servers.push_back(cluster.server_node(i).id());
  }
  cluster.RunClient([&](RStoreClient& client) {
    kv::SessionMux mux(client.device());
    ASSERT_TRUE(mux.Layout(servers, kQpPerServer).ok());
    const sim::Nanos program = client.device().network().qp_setup_cost();
    const sim::Nanos t0 = sim::Now();
    ASSERT_TRUE(mux.Connect().ok());
    const sim::Nanos took = sim::Now() - t0;
    EXPECT_GE(took, kServers * kQpPerServer * program);
    EXPECT_LT(took, (kServers * kQpPerServer + 1) * program +
                        sim::Micros(20));
  });
}

TEST(SessionMuxTest, UnreachableServerFailsConnectAndFlushReconnects) {
  core::ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  core::TestCluster cluster(cfg);
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(client.Ralloc("r", 4ULL << 20).ok());
    auto region = client.Rmap("r");
    ASSERT_TRUE(region.ok()) << region.status();
    auto data = client.AllocBuffer(64);
    ASSERT_TRUE(data.ok());
    for (size_t i = 0; i < 64; ++i) data->data[i] = std::byte(i + 1);
    ASSERT_TRUE((*region)->Write(0, data->data).ok());

    kv::StepIssuer issuer(client.device());
    ASSERT_TRUE(issuer.Bind(**region, /*qp_per_server=*/2).ok());
    const uint32_t self = client.device().node_id();
    const uint32_t victim = issuer.server_nodes()[issuer.ServerIndexOf(0)];
    sim::Fabric& fabric = cluster.net().fabric();
    fabric.SetLinkDown(self, victim, true);
    EXPECT_EQ(issuer.mux().Connect().code(), ErrorCode::kUnavailable);
    fabric.SetLinkDown(self, victim, false);

    // A read of offset 0 stages WRs for the victim's QP: the flush
    // connects it, and the read returns the bytes written above.
    auto back = client.AllocBuffer(64);
    ASSERT_TRUE(back.ok());
    kv::SlotStep read{.kind = kv::SlotStep::Kind::kScan, .io_count = 1};
    read.io[0] = {.length = 64, .local = back->begin()};
    kv::RoundTrip rt;
    ASSERT_TRUE(issuer.Stage(0, rt, read, back->lkey).ok());
    ASSERT_TRUE(issuer.mux().Flush().ok());
    std::vector<verbs::WorkCompletion> wcs;
    ASSERT_EQ(issuer.mux().WaitPollInto(wcs, 1, sim::Millis(1)), 1u);
    EXPECT_EQ(kv::StepIssuer::OnCompletion(rt, wcs[0]),
              kv::StepIssuer::Completion::kStepDone);
    EXPECT_EQ(std::memcmp(back->begin(), data->begin(), 64), 0);
  });
}

// ----------------------------------------------------------- LoadEngine --
ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  return cfg;
}

LoadOptions SmallOptions() {
  LoadOptions o;
  o.sessions = 64;
  o.offered_load = 100e3;
  o.duration = sim::Millis(2);
  o.preload_keys = 1024;
  o.mix = WorkloadMix::Ycsb('a');
  o.seed = 5;
  return o;
}

struct RunResult {
  EngineStats stats;
  uint64_t virtual_nanos = 0;
};

RunResult RunEngine(const LoadOptions& opts,
                    check::Checker* checker = nullptr) {
  TestCluster cluster(SmallCluster());
  if (checker != nullptr) cluster.sim().AttachChecker(checker);
  RunResult r;
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(LoadEngine::PreloadTable(client, "t", opts).ok());
    LoadEngine engine(client, "t", opts, 0, 1);
    ASSERT_TRUE(engine.Run().ok());
    r.stats = engine.stats();
  });
  r.virtual_nanos = cluster.sim().NowNanos();
  return r;
}

TEST(LoadEngineTest, SmokeCompletesEveryArrivalAtLowLoad) {
  const RunResult r = RunEngine(SmallOptions());
  EXPECT_GT(r.stats.arrivals, 100u);
  EXPECT_EQ(r.stats.completed, r.stats.arrivals);
  EXPECT_EQ(r.stats.errors, 0u);
  EXPECT_EQ(r.stats.shed, 0u);
  EXPECT_EQ(r.stats.latency.count(), r.stats.completed);
  // Bounded QP pool: qp_per_server QPs per server that actually holds a
  // slab of the table (placement decides how many that is), never one
  // per session.
  EXPECT_GE(r.stats.qps, 2u);
  EXPECT_EQ(r.stats.qps % 2, 0u);
  EXPECT_LT(r.stats.qps, r.stats.sessions);
  EXPECT_EQ(r.stats.sessions, 64u);
  // Doorbell chains carry more than one WR on average once sessions
  // batch within a scheduling round.
  EXPECT_GT(r.stats.mux.wrs_posted, 0u);
  EXPECT_GE(r.stats.mux.wrs_posted, r.stats.mux.chains_posted);
}

TEST(LoadEngineTest, SetupReadsTheHeaderOverItsMux) {
  // An engine on a client that did not preload reads the table header
  // through its own mux, like KvStore::Open: it never opens the region's
  // own connection, so the client counts no region data op.
  const LoadOptions opts = SmallOptions();
  ClusterConfig cfg = SmallCluster();
  cfg.client_nodes = 2;
  TestCluster cluster(cfg);
  cluster.SpawnClient(0, [&](RStoreClient& client) {
    ASSERT_TRUE(LoadEngine::PreloadTable(client, "t", opts).ok());
    ASSERT_TRUE(client.NotifyInc("t.loaded").ok());
  });
  EngineStats stats;
  uint64_t data_ops = 1;
  cluster.SpawnClient(1, [&](RStoreClient& client) {
    ASSERT_TRUE(client.WaitNotify("t.loaded", 1).ok());
    LoadEngine engine(client, "t", opts, 0, 1);
    ASSERT_TRUE(engine.Run().ok());
    stats = engine.stats();
    data_ops = client.data_ops();
  });
  cluster.sim().Run();
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(data_ops, 0u);
}

TEST(LoadEngineTest, SetupRejectsReplicatedTable) {
  // Remote atomics act on one copy: on a replicated table the engine
  // would lock and write the primary alone, and the copies would
  // silently diverge.
  const LoadOptions opts = SmallOptions();
  TestCluster cluster(SmallCluster());
  cluster.RunClient([&](RStoreClient& client) {
    kv::TableGeometry geometry;
    geometry.buckets = opts.buckets();
    geometry.slot_bytes = opts.slot_bytes;
    geometry.max_probe = opts.max_probe;
    ASSERT_TRUE(client
                    .Ralloc("t",
                            kv::SlotLayout::kHeaderBytes +
                                geometry.buckets * geometry.slot_bytes,
                            /*copies=*/2)
                    .ok());
    auto region = client.Rmap("t");
    ASSERT_TRUE(region.ok());
    auto hdr = client.AllocBuffer(kv::SlotLayout::kHeaderBytes);
    ASSERT_TRUE(hdr.ok());
    kv::SlotLayout::WriteHeader(hdr->begin(), geometry);
    ASSERT_TRUE((*region)->Write(0, hdr->data).ok());
    LoadEngine engine(client, "t", opts, 0, 1);
    EXPECT_EQ(engine.Run().code(), ErrorCode::kInvalidArgument);
  });
}

TEST(LoadEngineTest, RcheckCleanUnderContention) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  check::Checker checker;
  const RunResult r = RunEngine(opts, &checker);
  EXPECT_GT(r.stats.completed, 0u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations";
}

TEST(LoadEngineTest, OverloadShedsAndAdmissionBoundsCompletedTail) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 4e6;  // far past what 64 sessions can serve
  opts.shed_deadline = sim::Millis(1);
  const RunResult admit = RunEngine(opts);
  EXPECT_GT(admit.stats.shed, 0u);
  EXPECT_LT(admit.stats.completed, admit.stats.arrivals);
  // The in-flight window held.
  EXPECT_LE(admit.stats.admission.inflight_high_water,
            LoadEngine::kWindowPerServer);

  LoadOptions open = opts;
  open.admission = false;
  const RunResult noadm = RunEngine(open);
  EXPECT_EQ(noadm.stats.shed, 0u);
  // The whole point of admission + deadline shed: the tail of *completed*
  // ops stays bounded while the uncontrolled arm's tail diverges with
  // the backlog.
  EXPECT_LT(admit.stats.latency.Quantile(0.999),
            noadm.stats.latency.Quantile(0.999));
}

TEST(LoadEngineTest, LatencyAnchorsAtIntendedTimeUnderBacklog) {
  // Coordinated-omission safety: with no admission control and heavy
  // overload, ops that arrived mid-window drain at the end — their
  // recorded latency must include the backlog wait from the *intended*
  // send time, so the max observed latency spans a large fraction of
  // the window even though per-op service time is microseconds.
  LoadOptions opts = SmallOptions();
  opts.offered_load = 4e6;
  opts.admission = false;
  const RunResult r = RunEngine(opts);
  EXPECT_GT(r.stats.completed, 0u);
  EXPECT_GT(r.stats.latency.max(),
            static_cast<uint64_t>(opts.duration) / 2);
}

TEST(LoadEngineTest, ChainWidthAdaptsToLoad) {
  // Load-adaptive doorbell batching: a busier engine processes more
  // arrivals and completions per scheduling round, so its flushes post
  // wider chains.
  LoadOptions low = SmallOptions();
  low.offered_load = 50e3;
  LoadOptions high = SmallOptions();
  high.offered_load = 2e6;
  const RunResult l = RunEngine(low);
  const RunResult h = RunEngine(high);
  const double lw = static_cast<double>(l.stats.mux.wrs_posted) /
                    static_cast<double>(l.stats.mux.chains_posted);
  const double hw = static_cast<double>(h.stats.mux.wrs_posted) /
                    static_cast<double>(h.stats.mux.chains_posted);
  EXPECT_GT(hw, lw);
}

// --------------------------------------------------------------- rtrace --
TEST(LoadEngineTest, RtraceStageSumsEqualTotalForEveryOp) {
  // The tentpole invariant: every op's per-stage nanoseconds sum to its
  // coordinated-omission-anchored end-to-end latency, exactly.
  LoadOptions opts = SmallOptions();
  opts.rtrace.mode = obs::RtraceMode::kFull;
  const RunResult r = RunEngine(opts);
  const obs::RtraceReport& tr = r.stats.rtrace;
  EXPECT_EQ(tr.ops, r.stats.completed);
  EXPECT_EQ(tr.sum_mismatches, 0u);
  uint64_t stage_total = 0;
  for (const uint64_t v : tr.stage_ns_sum) stage_total += v;
  EXPECT_EQ(stage_total, tr.total_ns_sum);
  // kFull keeps a record for every completed op; re-check per op.
  ASSERT_EQ(tr.kept.size(), tr.ops);
  for (const obs::RtraceOp& op : tr.kept) {
    uint64_t sum = 0;
    for (const uint64_t v : op.stage_ns) sum += v;
    EXPECT_EQ(sum, op.total_ns()) << "op " << op.op_id;
  }
  // The rtrace totals are the same numbers the latency histogram pins.
  EXPECT_EQ(tr.total_hist.count(), r.stats.latency.count());
  EXPECT_EQ(tr.total_hist.max(), r.stats.latency.max());
}

TEST(LoadEngineTest, RtraceReservoirRetainsTheTrueSlowestOp) {
  // With head sampling effectively disabled, only the slowest-K reservoir
  // keeps records — and it must never lose the true maximum.
  LoadOptions opts = SmallOptions();
  opts.offered_load = 2e6;  // overload: a long backlog tail
  opts.admission = false;
  opts.rtrace.mode = obs::RtraceMode::kSampled;
  opts.rtrace.sample_period = 1u << 20;
  opts.rtrace.reservoir_k = 4;
  const RunResult r = RunEngine(opts);
  const obs::RtraceReport& tr = r.stats.rtrace;
  ASSERT_FALSE(tr.kept.empty());
  EXPECT_LE(tr.kept.size(), 4u + 1u);  // reservoir + the op_seq 0 head keep
  uint64_t kept_max = 0;
  for (const obs::RtraceOp& op : tr.kept) {
    kept_max = std::max(kept_max, op.total_ns());
  }
  EXPECT_EQ(kept_max, r.stats.latency.max());
}

TEST(LoadEngineTest, RtraceModesAreProbeFree) {
  // The probe-effect contract: rtrace off / sampled / full land on the
  // same virtual end time, and a second run on the same one.
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  opts.rtrace.mode = obs::RtraceMode::kOff;
  const RunResult ref = RunEngine(opts);
  for (const obs::RtraceMode mode :
       {obs::RtraceMode::kOff, obs::RtraceMode::kSampled,
        obs::RtraceMode::kFull}) {
    LoadOptions o = opts;
    o.rtrace.mode = mode;
    const RunResult r = RunEngine(o);
    EXPECT_EQ(r.virtual_nanos, ref.virtual_nanos)
        << "mode=" << obs::ToString(mode);
    EXPECT_EQ(r.stats.completed, ref.stats.completed);
    EXPECT_EQ(r.stats.retries, ref.stats.retries);
    EXPECT_EQ(r.stats.latency.Quantile(0.999),
              ref.stats.latency.Quantile(0.999));
  }
}

TEST(LoadEngineTest, RcheckCleanWithFullTracing) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  opts.rtrace.mode = obs::RtraceMode::kFull;
  check::Checker checker;
  const RunResult r = RunEngine(opts, &checker);
  EXPECT_GT(r.stats.rtrace.ops, 0u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations";
}

// ------------------------------------------------ Key claims, end to end --
// Every op on one key: preload_keys = 1 draws only key id 0, at a load
// where each session's ops overlap the other sessions'.
LoadOptions OneKeyOptions(double update, double rmw) {
  LoadOptions o = SmallOptions();
  o.preload_keys = 1;
  o.offered_load = 2e6;
  o.mix.read = 0.0;
  o.mix.update = update;
  o.mix.rmw = rmw;
  return o;
}

struct OneKeyRun {
  EngineStats stats;
  uint64_t locks = 0;  // lock CASes won on key 0's slot
  size_t lin_ops = 0;
  size_t lin_violations = 0;
};

// Runs `opts` with rlin attached. With `unplaceable`, the table has a
// one-slot probe window whose slot holds another key, so key 0 can never
// be written: upserts fail (kOutOfMemory) and RMWs miss (kNotFound).
OneKeyRun RunOneKey(const LoadOptions& opts, bool unplaceable) {
  check::LinChecker lin;
  TestCluster cluster(SmallCluster());
  cluster.sim().AttachLinChecker(&lin);
  OneKeyRun r;
  cluster.RunClient([&](RStoreClient& client) {
    const auto view = [](const std::byte* kb) {
      return std::string_view(reinterpret_cast<const char*>(kb), 8);
    };
    std::byte key0[8];
    LoadEngine::EncodeKey(0, key0);
    kv::KvOptions geo;
    geo.buckets = opts.buckets();
    geo.slot_bytes = opts.slot_bytes;
    geo.max_probe = unplaceable ? 1 : opts.max_probe;
    const uint64_t home = kv::SlotLayout::HomeSlot(view(key0), geo.buckets);
    if (unplaceable) {
      auto store = kv::KvStore::Create(client, "t", geo);
      ASSERT_TRUE(store.ok());
      std::byte other[8];
      for (uint64_t id = 1;; ++id) {
        LoadEngine::EncodeKey(id, other);
        if (kv::SlotLayout::HomeSlot(view(other), geo.buckets) == home) break;
      }
      ASSERT_TRUE((*store)->Put(view(other), "taken").ok());
    } else {
      ASSERT_TRUE(LoadEngine::PreloadTable(client, "t", opts).ok());
    }
    // Every won lock CAS moves the slot's version by two (odd while
    // locked, the next even on release); a lost CAS leaves it alone.
    auto region = client.Rmap("t");
    ASSERT_TRUE(region.ok());
    auto cell = client.AllocBuffer(8);
    ASSERT_TRUE(cell.ok());
    const auto version = [&] {
      EXPECT_TRUE((*region)
                      ->Read(kv::SlotLayout::SlotOffset(home, geo.slot_bytes),
                             cell->data)
                      .ok());
      uint64_t v;
      std::memcpy(&v, cell->begin(), sizeof(v));
      return v;
    };
    const uint64_t before = version();
    LoadEngine engine(client, "t", opts, 0, 1);
    ASSERT_TRUE(engine.Run().ok());
    r.stats = engine.stats();
    r.locks = (version() - before) / 2;
  });
  lin.Finalize();
  r.lin_ops = lin.op_count();
  r.lin_violations = lin.violation_count();
  return r;
}

TEST(KeyClaimsEngineTest, SameKeyWritesCombineAndStayLinearizable) {
  const OneKeyRun r = RunOneKey(OneKeyOptions(1.0, 0.0), false);
  const EngineStats& st = r.stats;
  EXPECT_GT(st.completed, 100u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_GT(st.key_waits, 0u);
  EXPECT_GT(st.combined, 0u);
  // One holder per key per engine: with one engine no writer ever loses
  // the lock, and each completed write either took the lock or rode.
  EXPECT_EQ(st.retries, 0u);
  EXPECT_LT(r.locks, st.completed);
  EXPECT_EQ(r.locks + st.combined, st.completed);
  // Riders record their own writes, and the history stays linearizable.
  EXPECT_EQ(r.lin_ops, st.completed);
  EXPECT_EQ(r.lin_violations, 0u);
}

TEST(KeyClaimsEngineTest, JoinedWritesStayLinearizableUnderReads) {
  // Half the ops read key 0 and see each batch's last write; the rest
  // update it, and many join a holder's batch before its write is posted.
  LoadOptions opts = OneKeyOptions(0.5, 0.0);
  opts.mix.read = 0.5;
  const OneKeyRun r = RunOneKey(opts, false);
  const EngineStats& st = r.stats;
  EXPECT_GT(st.completed, 100u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_GT(st.joined, 0u);
  EXPECT_GE(st.combined, st.joined);
  // Each completed update took the lock or rode.
  EXPECT_EQ(r.locks + st.combined,
            st.completed_by_type[static_cast<uint32_t>(OpType::kUpdate)]);
  EXPECT_EQ(r.lin_ops, st.completed);
  EXPECT_EQ(r.lin_violations, 0u);
}

TEST(KeyClaimsEngineTest, FailingHolderNeverFailsItsRiders) {
  // Every upsert of key 0 fails. An error passes nothing on, so each
  // parked upsert runs its own probe and fails on its own.
  const OneKeyRun r = RunOneKey(OneKeyOptions(1.0, 0.0), true);
  const EngineStats& st = r.stats;
  EXPECT_GT(st.key_waits, 0u);
  EXPECT_EQ(st.combined, 0u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_GT(st.errors, 100u);
  EXPECT_EQ(st.errors, st.arrivals - st.shed);
  // One probe (slot read + version re-read) per failed op, after the
  // engine's table-header read.
  EXPECT_EQ(st.mux.wrs_posted, 1 + 2 * st.errors);
  EXPECT_EQ(r.locks, 0u);
  EXPECT_EQ(r.lin_violations, 0u);
}

TEST(KeyClaimsEngineTest, UpsertsAndRmwsNeverShareABatch) {
  // RMWs of key 0 miss and upserts fail. Were an upsert to ride an RMW,
  // it would complete with the RMW's kNotFound, which no upsert can get.
  const OneKeyRun r = RunOneKey(OneKeyOptions(0.5, 0.5), true);
  const EngineStats& st = r.stats;
  const auto by = [&](OpType op) {
    return st.completed_by_type[static_cast<uint32_t>(op)];
  };
  EXPECT_GT(st.key_waits, 0u);
  EXPECT_GT(st.combined, 0u);  // RMWs rode RMW holders' kNotFound
  EXPECT_EQ(by(OpType::kUpdate), 0u);
  EXPECT_GT(by(OpType::kReadModifyWrite), 0u);
  EXPECT_EQ(by(OpType::kReadModifyWrite), st.completed);
  EXPECT_EQ(st.not_found, st.completed);
  EXPECT_GT(st.errors, 0u);
  EXPECT_EQ(st.completed + st.errors, st.arrivals - st.shed);
  EXPECT_EQ(r.locks, 0u);
  EXPECT_EQ(r.lin_violations, 0u);
}

// -------------------------------------------------------------- hotkeys --
TEST(SpaceSavingTest, TracksHeavyHitterWithErrorBound) {
  SpaceSaving sketch(4);
  // 100 hits on key 7 interleaved with 60 distinct singletons that churn
  // the other counters.
  for (uint64_t i = 0; i < 60; ++i) {
    sketch.Offer(7);
    if (i % 3 == 0) sketch.Offer(7);
    sketch.Offer(1000 + i);
  }
  const std::vector<HotKey> top = sketch.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key_id, 7u);
  // Space-saving bounds: count overestimates by at most `error`.
  EXPECT_GE(top[0].count, 80u);
  EXPECT_LE(top[0].count - top[0].error, 80u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].count, top[i - 1].count);  // sorted by count
  }
}

TEST(LoadEngineTest, HotKeysSurfaceTheZipfHead) {
  const RunResult r = RunEngine(SmallOptions());
  ASSERT_FALSE(r.stats.hotkeys.empty());
  const HotKey& top = r.stats.hotkeys[0];
  // The zipf head is far above the uniform share even after subtracting
  // the sketch's worst-case overestimate.
  EXPECT_GT(top.count - top.error, r.stats.arrivals / 1024);
  for (size_t i = 1; i < r.stats.hotkeys.size(); ++i) {
    EXPECT_LE(r.stats.hotkeys[i].count, r.stats.hotkeys[i - 1].count);
  }
}

TEST(LoadEngineTest, InsertScanAndRmwMixesComplete) {
  for (const char mix : {'d', 'e', 'f'}) {
    LoadOptions opts = SmallOptions();
    opts.mix = WorkloadMix::Ycsb(mix);
    const RunResult r = RunEngine(opts);
    EXPECT_GT(r.stats.completed, 0u) << "mix=" << mix;
    EXPECT_EQ(r.stats.errors, 0u) << "mix=" << mix;
    const auto& by_type = r.stats.completed_by_type;
    if (mix == 'd') {
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kInsert)], 0u);
    } else if (mix == 'e') {
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kScan)], 0u);
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kInsert)], 0u);
    } else {
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kReadModifyWrite)],
                0u);
    }
  }
}

}  // namespace
}  // namespace rstore::load
