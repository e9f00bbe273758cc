// Scaling harness: how does the per-node partition layout scale with host
// worker threads and with cluster size?
//
// Sweeps host threads {1, 2, 4, 8} x total machines {12, 32, 64, 128}
// (half memory servers, half client machines, plus the master) over a
// fixed mixed workload — streaming writes/reads, scattered vectored IO,
// remote atomics — and reports host wall time and scheduler events per
// real second for every point. Within one cluster size, every thread
// count must produce the bit-identical virtual end time and event count
// (the tentpole determinism claim); the binary exits non-zero if any
// point diverges. Results go to BENCH_scaling.json; speedups are only
// meaningful relative to the host core count recorded next to them.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/log.h"
#include "core/cluster.h"
#include "sim/time.h"

namespace rstore::bench {
namespace {

struct ScalePoint {
  uint32_t machines = 0;      // servers + clients (master not counted)
  uint32_t host_threads = 0;  // partitioned worker count (>= 1)
  uint64_t events = 0;
  uint64_t virtual_nanos = 0;
  double wall_seconds = 0;
};

// A fixed per-client workload whose aggregate grows linearly with the
// cluster: every client owns a region striped across every server and
// drives streams, scatters, and atomics against it. Lighter than the
// 12x12 saturation bench so the 128-machine point stays affordable.
ScalePoint RunScaleWorkload(uint32_t machines, uint32_t host_threads) {
  const uint32_t servers = machines / 2;
  const uint32_t clients = machines - servers;
  constexpr uint64_t kSlab = 256ULL << 10;
  const uint64_t region_bytes = servers * kSlab;  // one slab per server

  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(rdet-wallclock) harness wall-time

  core::ClusterConfig cfg;
  cfg.memory_servers = servers;
  cfg.client_nodes = clients;
  cfg.server_capacity = clients * kSlab + (4ULL << 20);
  cfg.master.slab_size = kSlab;
  cfg.seed = 42;
  cfg.host_threads = host_threads;
  core::TestCluster cluster(cfg);

  for (uint32_t c = 0; c < clients; ++c) {
    cluster.SpawnClient(c, [c, region_bytes](core::RStoreClient& client) {
      const std::string name = "r" + std::to_string(c);
      if (!client.Ralloc(name, region_bytes).ok()) return;
      auto region = client.Rmap(name);
      if (!region.ok()) return;
      auto buf = client.AllocBuffer(region_bytes);
      if (!buf.ok()) return;

      // Streaming: two overlapped full-region passes each way.
      std::vector<core::IoFuture> futures;
      for (int pass = 0; pass < 2; ++pass) {
        auto w = (*region)->WriteAsync(0, buf->data);
        if (!w.ok()) return;
        futures.push_back(std::move(*w));
      }
      for (auto& f : futures) (void)f.Wait();
      futures.clear();
      for (int pass = 0; pass < 2; ++pass) {
        auto r = (*region)->ReadAsync(0, buf->data);
        if (!r.ok()) return;
        futures.push_back(std::move(*r));
      }
      for (auto& f : futures) (void)f.Wait();

      // Scatter: small vectored segments striding the slab table.
      constexpr int kSegments = 16;
      std::vector<core::IoVec> segs(kSegments);
      const uint64_t stride = region_bytes / kSegments;
      for (int s = 0; s < kSegments; ++s) {
        segs[s] = {static_cast<uint64_t>(s) * stride,
                   buf->begin() + static_cast<uint64_t>(s) * stride, 2048};
      }
      auto rv = (*region)->ReadV(segs);
      if (!rv.ok()) return;
      (void)rv->Wait();
      auto wv = (*region)->WriteV(segs);
      if (!wv.ok()) return;
      (void)wv->Wait();

      // Atomics: contended FetchAdds on slab 0.
      for (int i = 0; i < 8; ++i) {
        (void)(*region)->FetchAdd(0, 1);
      }
    });
  }
  cluster.sim().Run();

  ScalePoint p;
  p.machines = machines;
  p.host_threads = host_threads;
  p.events = cluster.sim().events_processed();
  p.virtual_nanos = cluster.sim().NowNanos();
  p.wall_seconds =
      // NOLINTNEXTLINE(rdet-wallclock): harness wall-time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return p;
}

}  // namespace
}  // namespace rstore::bench

int main() {
  rstore::SetLogLevel(rstore::LogLevel::kWarn);

#if defined(__GLIBC__)
  (void)mallopt(M_MMAP_THRESHOLD, 256 << 20);
  (void)mallopt(M_TRIM_THRESHOLD, -1);
#endif

  constexpr uint32_t kMachineSweep[] = {12, 32, 64, 128};
  constexpr uint32_t kThreadSweep[] = {1, 2, 4, 8};
  const unsigned host_cores = std::thread::hardware_concurrency();

  // Warmup: fault in pooled buffers and the allocator's retained heap.
  (void)rstore::bench::RunScaleWorkload(12, 1);

  std::vector<rstore::bench::ScalePoint> points;
  int rc = 0;
  for (uint32_t machines : kMachineSweep) {
    uint64_t ref_vnanos = 0;
    uint64_t ref_events = 0;
    for (uint32_t threads : kThreadSweep) {
      auto p = rstore::bench::RunScaleWorkload(machines, threads);
      std::printf("machines=%3u threads=%u: %.3fs wall, %" PRIu64
                  " events, %.2fM events/s, vtime %.6fs\n",
                  machines, threads, p.wall_seconds, p.events,
                  static_cast<double>(p.events) / p.wall_seconds / 1e6,
                  rstore::sim::ToSeconds(p.virtual_nanos));
      if (threads == kThreadSweep[0]) {
        ref_vnanos = p.virtual_nanos;
        ref_events = p.events;
      } else if (p.virtual_nanos != ref_vnanos || p.events != ref_events) {
        std::fprintf(stderr,
                     "FATAL: machines=%u threads=%u diverged: vnanos %" PRIu64
                     " vs %" PRIu64 ", events %" PRIu64 " vs %" PRIu64 "\n",
                     machines, threads, p.virtual_nanos, ref_vnanos,
                     p.events, ref_events);
        rc = 1;
      }
      points.push_back(p);
    }
  }

  FILE* f = std::fopen("BENCH_scaling.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"mixed stream+scatter+atomics, half "
                 "servers half clients\",\n"
                 "  \"host_cores\": %u,\n"
                 "  \"deterministic\": %s,\n"
                 "  \"points\": [\n",
                 host_cores, rc == 0 ? "true" : "false");
    for (size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(f,
                   "    {\"machines\": %u, \"host_threads\": %u, "
                   "\"events\": %" PRIu64 ", \"virtual_seconds\": %.6f, "
                   "\"wall_seconds\": %.3f, \"events_per_sec\": %.0f}%s\n",
                   p.machines, p.host_threads, p.events,
                   rstore::sim::ToSeconds(p.virtual_nanos), p.wall_seconds,
                   static_cast<double>(p.events) / p.wall_seconds,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_scaling.json\n");
  }
  return rc;
}
