// E5 — "The Key-Value sorter can sort 256 GB of data in 31.7 sec, which
// is 8x better than Hadoop TeraSort in a similar setting" (abstract;
// sorting table).
//
// Both sorters run on 12 workers over the same TeraGen input:
//   RSort      in-DRAM sample sort over RStore (one-sided shuffle),
//   TeraSort   disk MapReduce baseline (4 disk passes + RPC shuffle +
//              task startup).
// Sizes are scaled down to what a single host simulates comfortably; the
// shape to check is the RSort/TeraSort ratio (~8x) and near-linear
// growth with input size. A final model-projected row extrapolates both
// systems' measured per-byte throughput to the paper's 256 GB point —
// printed as counters, clearly labelled a projection.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "baselines/terasort/terasort.h"
#include "bench/bench_util.h"
#include "rsort/rsort.h"

namespace rstore::bench {
namespace {

constexpr uint32_t kWorkers = 12;

// Measured seconds for RSort at `records`, or a failure.
double RunRSort(uint64_t records) {
  core::ClusterConfig cfg;
  cfg.telemetry = ActiveTelemetry();
  cfg.memory_servers = kWorkers;
  cfg.client_nodes = kWorkers;
  // input + exchange + output regions plus slack.
  cfg.server_capacity =
      (records * sort::kRecordBytes * 3) / kWorkers + (24ULL << 20);
  cfg.master.slab_size = 4ULL << 20;
  core::TestCluster cluster(cfg);
  sim::Nanos slowest = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    cluster.SpawnClient(w, [&, w](core::RStoreClient& client) {
      sort::SortConfig scfg;
      scfg.worker_id = w;
      scfg.num_workers = kWorkers;
      scfg.total_records = records;
      scfg.seed = 31;
      sort::SortWorker worker(client, scfg);
      if (!worker.GenerateInput().ok()) return;
      (void)client.NotifyInc("gen");
      (void)client.WaitNotify("gen", kWorkers);
      auto stats = worker.Sort();
      if (stats.ok()) slowest = std::max(slowest, stats->total_time);
    });
  }
  cluster.sim().Run();
  return sim::ToSeconds(slowest);
}

double RunTeraSort(uint64_t records) {
  sim::Simulation sim;
  sim.AttachTelemetry(ActiveTelemetry());
  verbs::Network net(sim);
  std::vector<sim::Node*> nodes;
  std::vector<uint32_t> ids;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    nodes.push_back(&sim.AddNode("t" + std::to_string(w)));
    net.AddDevice(*nodes.back());
    ids.push_back(nodes.back()->id());
  }
  std::vector<std::unique_ptr<baselines::TeraSortWorker>> ts(kWorkers);
  sim::Nanos slowest = 0;
  uint32_t done = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    baselines::TeraSortConfig cfg;
    cfg.worker_id = w;
    cfg.num_workers = kWorkers;
    cfg.total_records = records;
    cfg.seed = 31;
    cfg.worker_nodes = ids;
    ts[w] = std::make_unique<baselines::TeraSortWorker>(net.device(ids[w]),
                                                        cfg);
    ts[w]->StartService();
    nodes[w]->Spawn("sort", [&, w] {
      if (!ts[w]->GenerateInput().ok()) return;
      sim::Sleep(sim::Millis(1));
      auto stats = ts[w]->Sort();
      if (stats.ok()) slowest = std::max(slowest, stats->total_time);
      if (++done == kWorkers) sim::CurrentNode().sim().RequestStop();
    });
  }
  sim.Run();
  return sim::ToSeconds(slowest);
}

// Measured seconds per (sorter, records) in this process. Virtual time is
// deterministic, so E5_Projection256GB reuses the runs E5_RSort and
// E5_TeraSort made at its sizes instead of sorting the same input again.
std::map<std::pair<bool, uint64_t>, double>& Measured() {
  static std::map<std::pair<bool, uint64_t>, double> seconds;
  return seconds;
}

double Measure(bool rsort, uint64_t records) {
  const double s = rsort ? RunRSort(records) : RunTeraSort(records);
  Measured()[{rsort, records}] = s;
  return s;
}

double MeasuredOrRun(bool rsort, uint64_t records) {
  const auto it = Measured().find({rsort, records});
  return it != Measured().end() ? it->second : Measure(rsort, records);
}

void E5_RSort(benchmark::State& state) {
  const auto records = static_cast<uint64_t>(state.range(0));
  double seconds = 0;
  for (auto _ : state) {
    seconds = Measure(/*rsort=*/true, records);
    ReportVirtualTime(state, seconds);
  }
  state.counters["GB"] =
      static_cast<double>(records) * sort::kRecordBytes / 1e9;
  state.counters["MB_per_s"] =
      static_cast<double>(records) * sort::kRecordBytes / 1e6 / seconds;
}

void E5_TeraSort(benchmark::State& state) {
  const auto records = static_cast<uint64_t>(state.range(0));
  double seconds = 0;
  for (auto _ : state) {
    seconds = Measure(/*rsort=*/false, records);
    ReportVirtualTime(state, seconds);
  }
  state.counters["GB"] =
      static_cast<double>(records) * sort::kRecordBytes / 1e9;
  state.counters["MB_per_s"] =
      static_cast<double>(records) * sort::kRecordBytes / 1e6 / seconds;
}

// The paper's headline point, projected: measures both systems at two
// sizes and extrapolates to 256 GB along the large-size slope (the
// two-point secant removes fixed costs — task startup, per-stream seeks
// — that do not scale with input). Clearly a projection, not a
// measurement — see EXPERIMENTS.md. Sizes the rows above already
// measured are not run again.
void E5_Projection256GB(benchmark::State& state) {
  constexpr uint64_t kSmall = 2'000'000;  // 200 MB
  constexpr uint64_t kLarge = 4'000'000;  // 400 MB
  double rsort_proj = 0, tera_proj = 0;
  for (auto _ : state) {
    const double r1 = MeasuredOrRun(/*rsort=*/true, kSmall);
    const double r2 = MeasuredOrRun(/*rsort=*/true, kLarge);
    const double t1 = MeasuredOrRun(/*rsort=*/false, kSmall);
    const double t2 = MeasuredOrRun(/*rsort=*/false, kLarge);
    const double gb_small = kSmall * sort::kRecordBytes / 1e9;
    const double gb_large = kLarge * sort::kRecordBytes / 1e9;
    const double target_gb = 256.0;
    auto project = [&](double small_s, double large_s) {
      const double slope = (large_s - small_s) / (gb_large - gb_small);
      return large_s + slope * (target_gb - gb_large);
    };
    rsort_proj = project(r1, r2);
    tera_proj = project(t1, t2);
    ReportVirtualTime(state, r2 + t2);
  }
  state.counters["rsort_256GB_s"] = rsort_proj;
  state.counters["terasort_256GB_s"] = tera_proj;
  state.counters["speedup"] = tera_proj / rsort_proj;
}

BENCHMARK(E5_RSort)
    ->Arg(500'000)     //  50 MB
    ->Arg(1'000'000)   // 100 MB
    ->Arg(2'000'000)   // 200 MB
    ->Arg(4'000'000)   // 400 MB
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(E5_TeraSort)
    ->Arg(500'000)
    ->Arg(1'000'000)
    ->Arg(2'000'000)
    ->Arg(4'000'000)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(E5_Projection256GB)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

}  // namespace
}  // namespace rstore::bench

RSTORE_BENCH_MAIN()
