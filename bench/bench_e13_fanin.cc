// E13 — extension: massive-fan-in serving under open-loop load.
//
// 10,000+ client sessions (lightweight state machines, ~2,500 per client
// machine) drive YCSB mixes against one RKV table through the src/load
// dataplane: sessions multiplexed ~156:1 onto a bounded pool of verbs
// QPs, per-server admission control, load-adaptive doorbell batching.
// The arrival process is open loop and latency is measured from each
// op's *intended* send time (coordinated-omission-safe), so the
// tail-latency-vs-offered-load curve is honest past the saturation knee.
//
// Sweeps offered load x admission control, zipf skew, session count, and
// the YCSB mixes; emits the curve to BENCH_fanin.json and hard-fails
// (exit 1) if an observer moves the virtual end time or event count (see
// the determinism gate below).
//
// Flags (see bench_util.h): --offered-load/--sessions/--duration/--skew
// override the sweep's default point grammar; --smoke shrinks everything
// for CI; --no-determinism skips the probe-effect gate; --ledger <path>
// writes every point's virtual outputs as text (the smoke sweep's ledger
// is pinned by bench/golden/e13_smoke.txt); --rcheck / --json / --trace
// as everywhere else.
//
// rtrace: the sweep runs with per-op causal tracing in sampled mode by
// default (--rtrace off|sampled|full to override). Every point's JSON row
// carries the p999-band per-stage attribution, and the highest-load
// admitted point's full report lands in BENCH_fanin_attr.json
// (--attribution to relocate) for tools/rtail. The determinism gate
// checks that every rtrace mode (off/sampled/full) is virtual-time
// bit-identical, and that attaching the rlin linearizability checker
// (--rlin / RSTORE_RLIN) is likewise a zero-probe-effect observer.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_util.h"
#include "common/log.h"
#include "core/cluster.h"
#include "load/engine.h"
#include "sim/time.h"

namespace rstore::bench {
namespace {

struct FaninPoint {
  std::string label;
  double offered = 0;       // ops/s
  double theta = 0;
  uint32_t sessions = 0;
  bool admission = true;
  char mix = 'b';
  // --- results ---
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t deferred = 0;
  uint64_t retries = 0;
  uint64_t key_waits = 0;   // writes that found their key held
  uint64_t combined = 0;    // writes completed as riders (no IO)
  uint64_t p50 = 0, p99 = 0, p999 = 0;  // ns, intended -> done
  double achieved_kops = 0;
  uint32_t qps = 0;
  double sessions_per_qp = 0;
  double mean_chain = 0;    // WRs per doorbell chain
  uint32_t inflight_hw = 0;
  uint64_t virtual_nanos = 0;
  uint64_t events = 0;
  double wall_seconds = 0;
  obs::RtraceReport rtrace;  // merged across engines (empty when off)
  std::vector<load::HotKey> hotkeys;
};

constexpr uint32_t kServers = 8;
constexpr uint32_t kClients = 4;

FaninPoint RunFanin(const load::LoadOptions& base, double offered,
                    double theta, uint32_t sessions, bool admission,
                    char mix) {
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(rdet-wallclock) harness wall-time

  load::LoadOptions opts = base;
  opts.offered_load = offered;
  opts.theta = theta;
  opts.sessions = sessions;
  opts.admission = admission;
  opts.mix = load::WorkloadMix::Ycsb(mix);

  core::ClusterConfig cfg;
  cfg.telemetry = ActiveTelemetry();
  cfg.memory_servers = kServers;
  cfg.client_nodes = kClients;
  const uint64_t table_bytes =
      opts.buckets() * opts.slot_bytes + 4096;
  cfg.server_capacity = table_bytes / kServers + (8ULL << 20);
  cfg.master.slab_size = 1ULL << 20;
  cfg.seed = opts.seed;
  core::TestCluster cluster(cfg);

  std::vector<load::EngineStats> per_engine(kClients);
  std::vector<Status> engine_status(kClients, Status::Ok());
  for (uint32_t c = 0; c < kClients; ++c) {
    cluster.SpawnClient(c, [&, c](core::RStoreClient& client) {
      if (c == 0) {
        engine_status[c] = load::LoadEngine::PreloadTable(client, "fanin",
                                                          opts);
        if (!engine_status[c].ok()) return;
        (void)client.NotifyInc("e13.loaded");
      }
      auto loaded = client.WaitNotify("e13.loaded", 1);
      if (!loaded.ok()) {
        engine_status[c] = loaded.status();
        return;
      }
      load::LoadEngine engine(client, "fanin", opts, c, kClients);
      engine_status[c] = engine.Run();
      per_engine[c] = engine.stats();
    });
  }
  cluster.sim().Run();

  FaninPoint p;
  p.offered = offered;
  p.theta = theta;
  p.sessions = sessions;
  p.admission = admission;
  p.mix = mix;
  for (uint32_t c = 0; c < kClients; ++c) {
    if (!engine_status[c].ok()) {
      std::fprintf(stderr, "FATAL: engine %u: %s\n", c,
                   engine_status[c].message().c_str());
      std::exit(1);
    }
  }
  LatencyHistogram merged(1.04);
  sim::Nanos window_start = sim::kNever;
  sim::Nanos drained = 0;
  uint64_t chains = 0, wrs = 0;
  for (const load::EngineStats& s : per_engine) {
    p.arrivals += s.arrivals;
    p.completed += s.completed;
    p.errors += s.errors;
    p.shed += s.shed;
    p.deferred += s.admission.deferred;
    p.retries += s.retries;
    p.key_waits += s.key_waits;
    p.combined += s.combined;
    p.qps += s.qps;
    p.inflight_hw = std::max(p.inflight_hw, s.admission.inflight_high_water);
    merged.Merge(s.latency);
    window_start = std::min(window_start, s.window_start);
    drained = std::max(drained, s.drained_at);
    chains += s.mux.chains_posted;
    wrs += s.mux.wrs_posted;
    p.rtrace.config = s.rtrace.config;
    p.rtrace.Merge(s.rtrace);
  }
  // Merge the per-engine space-saving sketches by summing per-key
  // estimates (the standard sketch merge: counts add, errors add).
  std::map<uint64_t, load::HotKey> hot;
  for (const load::EngineStats& s : per_engine) {
    for (const load::HotKey& hk : s.hotkeys) {
      load::HotKey& e = hot[hk.key_id];
      e.key_id = hk.key_id;
      e.count += hk.count;
      e.error += hk.error;
    }
  }
  for (const auto& [id, hk] : hot) p.hotkeys.push_back(hk);
  std::sort(p.hotkeys.begin(), p.hotkeys.end(),
            [](const load::HotKey& a, const load::HotKey& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key_id < b.key_id;
            });
  if (p.hotkeys.size() > 16) p.hotkeys.resize(16);
  p.p50 = merged.Quantile(0.50);
  p.p99 = merged.Quantile(0.99);
  p.p999 = merged.Quantile(0.999);
  const double secs = sim::ToSeconds(drained - window_start);
  p.achieved_kops = secs > 0 ? p.completed / secs / 1e3 : 0;
  p.sessions_per_qp =
      p.qps > 0 ? static_cast<double>(sessions) / p.qps : 0;
  p.mean_chain = chains > 0 ? static_cast<double>(wrs) / chains : 0;
  p.virtual_nanos = cluster.sim().NowNanos();
  p.events = cluster.sim().events_processed();
  p.wall_seconds =
      // NOLINTNEXTLINE(rdet-wallclock): harness wall-time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return p;
}

void Print(const FaninPoint& p) {
  std::printf(
      "%-26s offered %8.0fk ach %8.1fk  p50 %7.1fus p99 %8.1fus p999 "
      "%9.1fus  shed %6" PRIu64 " defer %6" PRIu64 " wait %6" PRIu64
      " comb %6" PRIu64 " chain %.1f",
      p.label.c_str(), p.offered / 1e3, p.achieved_kops,
      p.p50 / 1e3, p.p99 / 1e3, p.p999 / 1e3, p.shed, p.deferred,
      p.key_waits, p.combined, p.mean_chain);
  if (p.rtrace.ops > 0) {
    // The stage that owns the p999 band, straight from the attribution.
    const obs::RtraceReport::Slice tail = p.rtrace.Attribution(0.999, 1.0);
    uint32_t top = 0;
    for (uint32_t i = 1; i < obs::kRtraceStageCount; ++i) {
      if (tail.stage_ns[i] > tail.stage_ns[top]) top = i;
    }
    if (tail.total_ns > 0) {
      std::printf("  tail:%s %.0f%%",
                  std::string(obs::RtraceStageName(top)).c_str(),
                  100.0 * static_cast<double>(tail.stage_ns[top]) /
                      static_cast<double>(tail.total_ns));
    }
  }
  std::printf("\n");
}

// One line per point of virtual outputs only: deterministic per seed and
// toolchain, so a committed copy pins the sweep exactly.
bool WriteLedger(const std::string& path,
                 const std::vector<FaninPoint>& points) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# label mix offered theta achieved_kops p50_ns p99_ns "
               "p999_ns shed deferred events\n");
  for (const FaninPoint& p : points) {
    std::fprintf(f,
                 "%s %c %.0f %.2f %.1f %" PRIu64 " %" PRIu64 " %" PRIu64
                 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                 p.label.c_str(), p.mix, p.offered, p.theta,
                 p.achieved_kops, p.p50, p.p99, p.p999, p.shed, p.deferred,
                 p.events);
  }
  return std::fclose(f) == 0;
}

}  // namespace
}  // namespace rstore::bench

int main(int argc, char** argv) {
  using namespace rstore;
  using namespace rstore::bench;
  SetLogLevel(LogLevel::kWarn);

#if defined(__GLIBC__)
  (void)mallopt(M_MMAP_THRESHOLD, 256 << 20);
  (void)mallopt(M_TRIM_THRESHOLD, -1);
#endif

  ParseObsArgs(&argc, argv);
  bool smoke = false;
  bool determinism = true;
  char sweep_mix = 'a';
  // --ledger is parsed by ParseObsArgs; this sweep writes its own lines.
  const std::string& ledger = GetObsConfig().ledger_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--no-determinism") == 0) determinism = false;
    if (std::strcmp(argv[i], "--mix") == 0 && i + 1 < argc) {
      sweep_mix = argv[i + 1][0];
    }
  }

  load::LoadOptions base;
  base.sessions = smoke ? 1200 : 10000;
  base.preload_keys = smoke ? 4096 : 16384;
  base.duration = smoke ? sim::Millis(5) : sim::Millis(25);
  base.seed = 7;
  const LoadFlags& flags = GetLoadFlags();
  if (flags.sessions > 0) base.sessions = static_cast<uint32_t>(flags.sessions);
  if (flags.duration_ms > 0) base.duration = sim::Millis(flags.duration_ms);
  const double default_theta = flags.skew >= 0 ? flags.skew : 0.99;

  // rtrace: sampled by default so every point carries attribution; the
  // mode never moves virtual time (the determinism gate below proves it).
  base.rtrace.mode = obs::RtraceMode::kSampled;
  if (!flags.rtrace.empty() &&
      !obs::ParseRtraceMode(flags.rtrace, &base.rtrace.mode)) {
    std::fprintf(stderr, "bad --rtrace mode '%s' (off|sampled|full)\n",
                 flags.rtrace.c_str());
    return 1;
  }

  // Offered-load sweep (aggregate ops/s). --offered-load pins a single
  // point; otherwise sweep through and past the saturation knee.
  std::vector<double> loads;
  if (flags.offered_load > 0) {
    loads = {flags.offered_load};
  } else if (smoke) {
    loads = {100e3, 400e3};
  } else {
    loads = {100e3, 250e3, 500e3, 1e6, 2e6, 4e6};
  }

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::vector<FaninPoint> points;
  int rc = 0;

  // Warmup: fault in buffers; result dropped.
  (void)RunFanin(base, loads[0], default_theta, base.sessions,
                 /*admission=*/true, 'b');

  // Probe-effect gate: at the smallest point, every rtrace mode and an
  // attached rlin checker (recording the full per-op KV history) must land
  // on the reference virtual end time and event count — observers never
  // move the timeline. The rlin env var is read per-Simulation, exactly
  // like --rlin sets it binary-wide (in which case it is already on and
  // stays on after the gate).
  if (determinism) {
    load::LoadOptions dbase = base;
    dbase.rtrace.mode = obs::RtraceMode::kOff;
    const FaninPoint ref = RunFanin(dbase, loads[0], default_theta,
                                    base.sessions, true, sweep_mix);
    const auto check = [&](const char* what) {
      const FaninPoint p = RunFanin(dbase, loads[0], default_theta,
                                    base.sessions, true, sweep_mix);
      if (p.virtual_nanos != ref.virtual_nanos || p.events != ref.events) {
        std::fprintf(stderr,
                     "FATAL: %s diverged: vnanos %" PRIu64 " vs %" PRIu64
                     ", events %" PRIu64 " vs %" PRIu64 "\n",
                     what, p.virtual_nanos, ref.virtual_nanos, p.events,
                     ref.events);
        rc = 1;
      }
    };
    for (const obs::RtraceMode mode :
         {obs::RtraceMode::kSampled, obs::RtraceMode::kFull}) {
      dbase.rtrace.mode = mode;
      check(("rtrace=" + std::string(obs::ToString(mode))).c_str());
    }
    const bool rlin_already_on = std::getenv("RSTORE_RLIN") != nullptr;
    setenv("RSTORE_RLIN", "1", /*overwrite=*/1);
    dbase.rtrace.mode = obs::RtraceMode::kOff;
    check("rlin=on");
    if (!rlin_already_on) unsetenv("RSTORE_RLIN");
    std::printf("determinism: rtrace {off,sampled,full} + rlin %s "
                "(vtime %.6fs, %" PRIu64 " events)\n",
                rc == 0 ? "bit-identical" : "DIVERGED",
                sim::ToSeconds(ref.virtual_nanos), ref.events);
  }

  // 1) Tail latency vs offered load, with and without admission control.
  // Update-heavy by default (--mix to override): seqlock contention on
  // the zipf head is what bends the curve, and admission control is what
  // keeps the completed-op tail bounded past the knee.
  for (const double offered : loads) {
    for (const bool admission : {true, false}) {
      FaninPoint p = RunFanin(base, offered, default_theta, base.sessions,
                              admission, sweep_mix);
      p.label = std::string("load/") + (admission ? "admit" : "open");
      Print(p);
      points.push_back(std::move(p));
    }
  }

  if (flags.offered_load <= 0 && flags.skew < 0) {
    // 2) Skew sweep at a saturating load.
    const double mid = smoke ? 400e3 : 1e6;
    for (const double theta : {0.5, 1.2}) {
      FaninPoint p =
          RunFanin(base, mid, theta, base.sessions, true, 'b');
      p.label = "skew";
      Print(p);
      points.push_back(std::move(p));
    }
    // 3) Session-count sweep (fan-in scaling at fixed offered load).
    if (!smoke && flags.sessions <= 0) {
      for (const uint32_t n : {2500u, 20000u}) {
        FaninPoint p = RunFanin(base, mid, default_theta, n, true, 'b');
        p.label = "sessions";
        Print(p);
        points.push_back(std::move(p));
      }
    }
    // 4) YCSB mix coverage (A..F) at a moderate load.
    const double mixload = smoke ? 100e3 : 500e3;
    for (const char mix : {'a', 'c', 'd', 'e', 'f'}) {
      FaninPoint p = RunFanin(base, mixload, default_theta, base.sessions,
                              true, mix);
      p.label = std::string("mix/") + mix;
      Print(p);
      points.push_back(std::move(p));
    }
  }

  FILE* f = std::fopen("BENCH_fanin.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"experiment\": \"E13 massive-fan-in serving\",\n"
        "  \"workload\": \"open-loop YCSB over RKV, %u servers, %u client "
        "machines, QP-multiplexed sessions\",\n"
        "  \"latency\": \"ns from intended send time "
        "(coordinated-omission-safe)\",\n"
        "  \"host_cores\": %u,\n"
        "  \"note\": \"wall_seconds depends on host_cores; CI runners are "
        "often 1-2 cores, so compare virtual metrics only\",\n"
        "  \"smoke\": %s,\n"
        "  \"deterministic\": %s,\n"
        "  \"rtrace_mode\": \"%s\",\n"
        "  \"rtrace_stages\": [",
        kServers, kClients, host_cores, smoke ? "true" : "false",
        rc == 0 ? "true" : "false",
        std::string(obs::ToString(base.rtrace.mode)).c_str());
    for (uint32_t i = 0; i < obs::kRtraceStageCount; ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                   std::string(obs::RtraceStageName(i)).c_str());
    }
    std::fprintf(f, "],\n  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const FaninPoint& p = points[i];
      std::fprintf(
          f,
          "    {\"label\": \"%s\", \"mix\": \"%c\", \"offered_ops\": %.0f, "
          "\"theta\": %.2f, \"sessions\": %u, \"admission\": %s, "
          "\"arrivals\": %" PRIu64 ", \"completed\": %" PRIu64
          ", \"errors\": %" PRIu64 ", \"shed\": %" PRIu64
          ", \"deferred\": %" PRIu64 ", \"retries\": %" PRIu64
          ", \"key_waits\": %" PRIu64 ", \"combined\": %" PRIu64
          ", \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
          ", \"p999_ns\": %" PRIu64 ", \"achieved_kops\": %.1f, "
          "\"qps\": %u, \"sessions_per_qp\": %.1f, \"mean_chain\": %.2f, "
          "\"inflight_high_water\": %u, \"virtual_seconds\": %.6f, "
          "\"events\": %" PRIu64 ", \"wall_seconds\": %.3f",
          p.label.c_str(), p.mix, p.offered, p.theta, p.sessions,
          p.admission ? "true" : "false", p.arrivals, p.completed, p.errors,
          p.shed, p.deferred, p.retries, p.key_waits, p.combined, p.p50,
          p.p99, p.p999, p.achieved_kops, p.qps, p.sessions_per_qp,
          p.mean_chain, p.inflight_hw, sim::ToSeconds(p.virtual_nanos),
          p.events, p.wall_seconds);
      // Per-stage attribution of the p999 band (virtual ns summed over
      // the band's ops; the stages sum exactly to attr_p999_total_ns).
      const obs::RtraceReport::Slice tail = p.rtrace.Attribution(0.999, 1.0);
      std::fprintf(f,
                   ", \"rtrace_ops\": %" PRIu64 ", \"attr_p999_count\": %" PRIu64
                   ", \"attr_p999_total_ns\": %" PRIu64
                   ", \"attr_p999_stage_ns\": [",
                   p.rtrace.ops, tail.count, tail.total_ns);
      for (uint32_t st = 0; st < obs::kRtraceStageCount; ++st) {
        std::fprintf(f, "%s%" PRIu64, st == 0 ? "" : ", ",
                     tail.stage_ns[st]);
      }
      std::fprintf(f, "], \"hotkeys\": [");
      const size_t hk_n = std::min<size_t>(p.hotkeys.size(), 4);
      for (size_t h = 0; h < hk_n; ++h) {
        std::fprintf(f, "%s{\"key\": %" PRIu64 ", \"count\": %" PRIu64 "}",
                     h == 0 ? "" : ", ", p.hotkeys[h].key_id,
                     p.hotkeys[h].count);
      }
      std::fprintf(f, "]}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_fanin.json\n");
  }

  if (!ledger.empty()) {
    if (WriteLedger(ledger, points)) {
      std::printf("wrote %s\n", ledger.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", ledger.c_str());
      rc = 1;
    }
  }

  // Full attribution report of the highest-load admitted point, for
  // tools/rtail (quantiles, band tables, windows, kept slowest ops).
  if (base.rtrace.mode != obs::RtraceMode::kOff) {
    const FaninPoint* best = nullptr;
    for (const FaninPoint& p : points) {
      if (p.label != "load/admit" || p.rtrace.ops == 0) continue;
      if (best == nullptr || p.offered > best->offered) best = &p;
    }
    if (best != nullptr) {
      const std::string attr_path = flags.attribution.empty()
                                        ? "BENCH_fanin_attr.json"
                                        : flags.attribution;
      std::string out;
      obs::AppendRtraceJson(out, best->rtrace);
      out += '\n';
      FILE* af = std::fopen(attr_path.c_str(), "wb");
      if (af != nullptr &&
          std::fwrite(out.data(), 1, out.size(), af) == out.size()) {
        std::printf("wrote %s (offered %.0fk, %" PRIu64 " ops)\n",
                    attr_path.c_str(), best->offered / 1e3, best->rtrace.ops);
      } else {
        std::fprintf(stderr, "failed to write %s\n", attr_path.c_str());
        rc = 1;
      }
      if (af != nullptr) std::fclose(af);
    }
  }
  // Flush --json / --trace telemetry (rtrace flow events land here).
  rc |= WriteObsOutputs();
  return rc;
}
