// E11 — extension: YCSB-style mixed workloads on RKV.
//
// The standard cloud-serving benchmark mixes, run by 4 client machines
// against one shared RKV table with Zipf(0.99)-distributed keys
// (YCSB's default skew), 100-byte values:
//
//   A  50% read / 50% update
//   B  95% read /  5% update
//   C  100% read
//
// Reported: aggregate throughput (kops/s of virtual time) and the
// seqlock conflict count — contention concentrates on the Zipf head, so
// workload A on a skewed keyspace is where the RDMA seqlock has to earn
// its keep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "kv/kv.h"

namespace rstore::bench {
namespace {

constexpr uint64_t kKeys = 2048;
constexpr int kOpsPerClient = 400;

// Shared workload-shape grammar (bench_util.h): --sessions maps to the
// closed-loop client count, --skew to the zipf theta, --duration bounds
// the measurement window in virtual time (default: a fixed op count).
// --offered-load is parsed but ignored — E11 is closed loop; E13 is the
// open-loop experiment.
uint32_t Clients() {
  const LoadFlags& flags = GetLoadFlags();
  if (flags.sessions <= 0) return 4;
  return static_cast<uint32_t>(std::min<int64_t>(flags.sessions, 64));
}

// What one client fiber reports. Each client writes only its own slot,
// and RunMix reduces the slots after Run().
struct ClientTally {
  uint64_t ops = 0;
  uint64_t conflicts = 0;
  sim::Nanos t_begin = sim::kNever;
  sim::Nanos t_end = 0;
};

void RunMix(benchmark::State& state, double read_fraction) {
  const uint32_t kClients = Clients();
  const LoadFlags& flags = GetLoadFlags();
  const double theta = flags.skew >= 0 ? flags.skew : 0.99;
  const sim::Nanos window =
      flags.duration_ms > 0 ? sim::Millis(flags.duration_ms) : 0;
  double kops = 0;
  uint64_t conflicts = 0;
  for (auto _ : state) {
    core::ClusterConfig cfg;
    cfg.telemetry = ActiveTelemetry();
    cfg.memory_servers = 4;
    cfg.client_nodes = kClients;
    cfg.server_capacity = 16ULL << 20;
    cfg.master.slab_size = 1ULL << 20;
    core::TestCluster cluster(cfg);
    std::vector<ClientTally> tallies(kClients);
    for (uint32_t c = 0; c < kClients; ++c) {
      cluster.SpawnClient(c, [&, c](core::RStoreClient& client) {
        Result<std::unique_ptr<kv::KvStore>> kv(ErrorCode::kInternal, "");
        kv::KvOptions opts;
        opts.buckets = 4 * kKeys;
        if (c == 0) {
          kv = kv::KvStore::Create(client, "ycsb", opts);
          if (!kv.ok()) return;
          // Load phase: populate every key.
          std::vector<std::byte> value(100);
          for (uint64_t k = 0; k < kKeys; ++k) {
            (void)(*kv)->Put("user" + std::to_string(k), value);
          }
          (void)client.NotifyInc("loaded");
        } else {
          (void)client.WaitNotify("loaded", 1);
          kv = kv::KvStore::Open(client, "ycsb");
          if (!kv.ok()) return;
        }
        (void)client.NotifyInc("armed");
        (void)client.WaitNotify("armed", kClients);

        ZipfGenerator zipf(kKeys, theta, 1000 + c);
        Rng dice(2000 + c);
        std::vector<std::byte> value(100);
        const sim::Nanos t0 = sim::Now();
        uint64_t ops = 0;
        // Fixed op count by default; --duration switches to a
        // virtual-time-bounded window instead.
        for (int i = 0;
             window > 0 ? sim::Now() - t0 < window : i < kOpsPerClient;
             ++i) {
          const std::string key = "user" + std::to_string(zipf.Next());
          if (dice.NextDouble() < read_fraction) {
            (void)(*kv)->Get(key);
            ++ops;
          } else {
            Status st = (*kv)->Put(key, value);
            if (!st.ok() && st.code() == ErrorCode::kAborted) {
              --i;  // retry
            } else {
              ++ops;
            }
          }
        }
        tallies[c] = {ops, (*kv)->stats().version_retries, t0, sim::Now()};
      });
    }
    cluster.sim().Run();
    sim::Nanos t_begin = sim::kNever, t_end = 0;
    uint64_t total_conflicts = 0;
    uint64_t total_ops = 0;
    for (const ClientTally& tally : tallies) {
      total_ops += tally.ops;
      total_conflicts += tally.conflicts;
      t_begin = std::min(t_begin, tally.t_begin);
      t_end = std::max(t_end, tally.t_end);
    }
    const double secs = sim::ToSeconds(t_end - t_begin);
    kops = static_cast<double>(total_ops) / secs / 1e3;
    conflicts = total_conflicts;
    ReportVirtualTime(state, secs);
  }
  state.counters["kops_per_s"] = kops;
  state.counters["seqlock_conflicts"] = static_cast<double>(conflicts);
}

void E11_WorkloadA(benchmark::State& state) { RunMix(state, 0.50); }
void E11_WorkloadB(benchmark::State& state) { RunMix(state, 0.95); }
void E11_WorkloadC(benchmark::State& state) { RunMix(state, 1.00); }

BENCHMARK(E11_WorkloadA)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(E11_WorkloadB)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(E11_WorkloadC)->UseManualTime()->Iterations(1)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace rstore::bench

RSTORE_BENCH_MAIN()
