// E9 — extension experiment (not in the paper): RKV, the key-value
// layer built on RStore's memory-like API, against the two-sided RPC
// store serving the same working set.
//
// The comparison isolates the data-path architecture at the
// key-value abstraction level:
//   RKV GET   = 1 round trip: the slot read and its seqlock re-read,
//               chained on one RC QP,
//   RKV PUT   = 3 dependent round trips, each one chain on one QP:
//               that probe, the CAS and its re-check read, the payload
//               and release writes (kv::StepIssuer posts them, as it
//               does for the load engine),
//   RPC GET/PUT = one two-sided round trip through the server CPU.
//
// Expected shape — the one-sided-KV trade-off the literature of the
// period argued over (HERD vs Pilaf/FaRM): a single two-sided RPC wins
// small-object *writes* (one round trip vs RKV's three dependent ones
// per PUT), while a one-sided GET that rides RC order in one round trip
// skips the server's CPU and beats it; the one-sided design keeps the
// server CPU at zero and therefore scales with client count (E6 shows
// that axis). Reproducing that crossover, rather than a one-sided sweep,
// is the point of this experiment.
#include <benchmark/benchmark.h>

#include "baselines/rpcstore/rpcstore.h"
#include "bench/bench_util.h"
#include "kv/kv.h"

namespace rstore::bench {
namespace {

constexpr int kOps = 128;
constexpr uint32_t kValueBytes = 64;

void E9_RkvGet(benchmark::State& state) {
  for (auto _ : state) {
    core::ClusterConfig cfg;
    cfg.telemetry = ActiveTelemetry();
    core::TestCluster cluster(cfg);
    double seconds = 0;
    cluster.RunClient([&](core::RStoreClient& client) {
      auto kv = kv::KvStore::Create(client, "t");
      if (!kv.ok()) return;
      std::vector<std::byte> value(kValueBytes);
      for (int i = 0; i < kOps; ++i) {
        (void)(*kv)->Put("key" + std::to_string(i), value);
      }
      Stopwatch watch;
      for (int i = 0; i < kOps; ++i) {
        watch.Start();
        (void)(*kv)->Get("key" + std::to_string(i));
        watch.Stop();
      }
      seconds = watch.seconds() / kOps;
    });
    ReportVirtualTime(state, seconds);
  }
}

void E9_RkvPut(benchmark::State& state) {
  for (auto _ : state) {
    core::ClusterConfig cfg;
    cfg.telemetry = ActiveTelemetry();
    core::TestCluster cluster(cfg);
    double seconds = 0;
    cluster.RunClient([&](core::RStoreClient& client) {
      auto kv = kv::KvStore::Create(client, "t");
      if (!kv.ok()) return;
      std::vector<std::byte> value(kValueBytes);
      (void)(*kv)->Put("warm", value);
      Stopwatch watch;
      for (int i = 0; i < kOps; ++i) {
        watch.Start();
        (void)(*kv)->Put("key" + std::to_string(i), value);
        watch.Stop();
      }
      seconds = watch.seconds() / kOps;
    });
    ReportVirtualTime(state, seconds);
  }
}

void RunRpcKv(benchmark::State& state, bool is_get) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.AttachTelemetry(ActiveTelemetry());
    verbs::Network net(sim);
    auto& server = sim.AddNode("server");
    auto& client_node = sim.AddNode("client");
    auto& sdev = net.AddDevice(server);
    auto& cdev = net.AddDevice(client_node);
    baselines::RpcStoreServer store(sdev);
    store.Start();
    double seconds = 0;
    client_node.Spawn("cli", [&] {
      auto cli = baselines::RpcStoreClient::Connect(cdev, server.id());
      if (!cli.ok()) return;
      std::vector<std::byte> value(kValueBytes);
      (void)(*cli)->Put(0, value);  // warm
      Stopwatch watch;
      for (int i = 0; i < kOps; ++i) {
        watch.Start();
        if (is_get) {
          (void)(*cli)->Get(i * 256, value);
        } else {
          (void)(*cli)->Put(i * 256, value);
        }
        watch.Stop();
      }
      seconds = watch.seconds() / kOps;
      sim::CurrentNode().sim().RequestStop();
    });
    sim.Run();
    ReportVirtualTime(state, seconds);
  }
}

void E9_RpcStoreGet(benchmark::State& state) { RunRpcKv(state, true); }
void E9_RpcStorePut(benchmark::State& state) { RunRpcKv(state, false); }

BENCHMARK(E9_RkvGet)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(E9_RkvPut)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(E9_RpcStoreGet)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(E9_RpcStorePut)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace rstore::bench

RSTORE_BENCH_MAIN()
