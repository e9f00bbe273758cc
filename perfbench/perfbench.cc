// perfbench: runs one workload of the repository benchmark and prints its
// metrics as one JSON object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace <file>]
//
// Workloads (README.md in this directory says why each one exists):
//   kv-update       open-loop YCSB-A below the knee (500k ops/s offered)
//   kv-overload     the same table and mix far past the knee (8M ops/s)
//   bulk-stream     12 x 12 streaming, vectored and atomic saturation job
//   graph-pagerank  Carafe PageRank on an RMAT graph, region cache on
//
// Failures are counted, never discarded: a call that returns a non-OK
// status counts as failed, and a failed output check makes the run
// incorrect (exit code 1).
//
// Every run builds a fresh cluster on the default scheduler. The first run
// is a warm-up; the workload then runs again and again until --seconds of
// host time have passed. Virtual-time metrics are a pure function of the
// seed, so every run must reproduce the warm-up's bit for bit. Host-time
// metrics are medians over the measured runs, scaled by a host-speed probe
// taken before each of them (HostProbe).
//
// With --trace one more run attaches telemetry (span tracing and the
// metrics registry), rtrace in full mode and the rlin checker, and writes
// the span file to <file>. Its virtual metrics must equal the untraced ones
// (zero probe effect); its registry and rtrace report give the per-layer
// metrics that untraced runs cannot see.
//
// The benchmark only measures from outside the program: it times calls
// into each layer's public functions and reads the counters those layers
// already expose. Host clocks are read here, never inside the simulation's
// decisions.
#include <sched.h>
#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <semaphore>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "carafe/engine.h"
#include "carafe/graph.h"
#include "carafe/storage.h"
#include "check/lin.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "load/engine.h"
#include "obs/rtrace.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace rstore::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double HostSeconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Pins the process, and every thread it starts later, to the last CPU it
// may use. The default scheduler lets one host thread run at a time, so
// this takes no parallelism away. It turns each hand-off between node
// threads into a local context switch instead of a cross-CPU wake-up, whose
// latency on a shared host swings several-fold from run to run.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  if (last >= 0) CPU_SET(last, &one);
  if (last < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU; host times will "
                         "be noisier\n");
  }
}

// Host times are reported scaled to a host on which one HostProbe takes
// this long.
constexpr double kProbeRefSeconds = 0.1;

// A fixed measure of how fast the host runs right now, independent of the
// program under test: context switches between two threads (the hand-offs
// between node threads) and a dependent walk over a random 8 MiB cycle
// (memory latency under whatever else shares the caches). On a shared host
// the speed of one pinned thread drifts by a third within minutes; probes
// taken between the measured runs follow that drift, so scaling host times
// by kProbeRefSeconds / (median probe) takes most of it out.
class HostProbe {
 public:
  HostProbe() : next_(size_t{1} << 21) {
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<uint32_t> order(next_.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(0x5eed);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i)]);
    }
    for (size_t i = 0; i < order.size(); ++i) {
      next_[order[i]] = order[(i + 1) % order.size()];
    }
  }

  // Host seconds one probe takes now.
  double Seconds() {
    const auto t0 = Clock::now();
    std::binary_semaphore ping{0}, pong{0};
    std::thread peer([&] {
      for (int i = 0; i < kSwitches; ++i) {
        ping.acquire();
        pong.release();
      }
    });
    for (int i = 0; i < kSwitches; ++i) {
      ping.release();
      pong.acquire();
    }
    peer.join();
    uint32_t at = 0;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    sink_ = at;
    return HostSeconds(t0, Clock::now());
  }

 private:
  static constexpr int kSwitches = 10000;
  static constexpr int kSteps = 500000;
  std::vector<uint32_t> next_;
  volatile uint32_t sink_ = 0;  // keeps the walk from being optimized away
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank quantile of exact virtual-ns samples.
uint64_t Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Mean(const std::vector<uint64_t>& v) {
  double sum = 0;
  for (const uint64_t x : v) sum += static_cast<double>(x);
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// What one run attaches. Untraced runs attach nothing.
struct Probes {
  obs::Telemetry* telemetry = nullptr;
  check::LinChecker* lin = nullptr;
};

// One run of a workload.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  Metrics virt;   // virtual-time end-to-end metrics, exact for a seed
  Metrics layer;  // per-layer counts and virtual timings
  uint64_t events = 0;
  sim::Nanos end_ns = 0;  // virtual clock when the simulation stopped
  uint64_t attempted = 0;
  uint64_t failed = 0;    // calls that returned a non-OK status
  uint64_t refused = 0;   // ops shed by admission control (KV only)
  uint64_t samples = 0;   // ops behind op_p999_us
  std::vector<std::string> problems;  // failed output checks
  std::vector<std::string> node_names;  // traced runs: for the span file

  // Counts one call into the program; a non-OK status counts as failed.
  bool Ok(const Status& st, std::string_view what) {
    ++attempted;
    if (st.ok()) return true;
    ++failed;
    std::fprintf(stderr, "perfbench: %.*s: %s\n", static_cast<int>(what.size()),
                 what.data(), st.message().c_str());
    return false;
  }
  void Check(bool ok, std::string what) {
    if (!ok) problems.push_back(std::move(what));
  }
};

// The measured window: it opens when the first client starts its measured
// phase and closes when the last one ends. Client programs run one at a
// time on the default scheduler, so plain fields suffice.
struct Window {
  bool open = false;
  Clock::time_point host{};
  sim::Nanos start = 0;
  sim::Nanos end = 0;
  uint64_t fabric_bytes = 0;

  void Open(verbs::Network& net) {
    if (open) return;
    open = true;
    host = Clock::now();
    start = sim::Now();
    fabric_bytes = net.fabric().total_bytes();
  }
  void Close() { end = std::max(end, sim::Now()); }
  [[nodiscard]] double seconds() const { return sim::ToSeconds(end - start); }
};

// Client-side data-path counters, summed over every client of a run.
struct ClientTotals {
  uint64_t data_ops = 0, bytes_read = 0, bytes_written = 0;
  cache::CacheStats cache;

  void Add(const core::RStoreClient& client) {
    data_ops += client.data_ops();
    bytes_read += client.bytes_read();
    bytes_written += client.bytes_written();
    const cache::CacheStats& cs = client.cache_stats();
    cache.hits += cs.hits;
    cache.misses += cs.misses;
    cache.fills += cs.fills;
    cache.evictions += cs.evictions;
    cache.bypass_reads += cs.bypass_reads;
  }
};

// Fills in what every workload reports once its simulation has stopped:
// the window's virtual metrics, simulator and fabric counters, client
// counters, and (traced runs) the metrics registry.
void Finish(core::TestCluster& cluster, const Window& win,
            const ClientTotals& totals, const Probes& probes, Rep& rep) {
  sim::Simulation& sim = cluster.sim();
  sim::Fabric& fabric = cluster.net().fabric();
  rep.events = sim.events_processed();
  rep.end_ns = sim.NowNanos();
  rep.Check(win.open && win.end > win.start, "measured window never ran");
  const double window_ns = static_cast<double>(win.end - win.start);
  rep.virt["window_ms"] = window_ns / 1e6;
  // Payload bits per virtual ns = Gb/s.
  rep.virt["stream_gbps"] =
      window_ns > 0
          ? static_cast<double>(fabric.total_bytes() - win.fabric_bytes) * 8 /
                window_ns
          : 0;

  uint64_t msgs = 0;
  for (uint32_t n = 0; n < sim.node_count(); ++n) {
    msgs += fabric.messages_out(n);
  }
  rep.layer["sim.events"] = static_cast<double>(rep.events);
  rep.layer["sim.thread_slices"] = static_cast<double>(sim.thread_slices());
  rep.layer["fabric.bytes"] = static_cast<double>(fabric.total_bytes());
  rep.layer["fabric.msgs"] = static_cast<double>(msgs);
  rep.layer["core.data_ops"] = static_cast<double>(totals.data_ops);
  rep.layer["core.bytes_read"] = static_cast<double>(totals.bytes_read);
  rep.layer["core.bytes_written"] = static_cast<double>(totals.bytes_written);
  const cache::CacheStats& cs = totals.cache;
  const uint64_t lookups = cs.hits + cs.misses;
  rep.layer["cache.hit_rate"] =
      lookups > 0 ? static_cast<double>(cs.hits) / static_cast<double>(lookups)
                  : 0;
  rep.layer["cache.fills"] = static_cast<double>(cs.fills);
  rep.layer["cache.evictions"] = static_cast<double>(cs.evictions);
  rep.layer["cache.bypass"] = static_cast<double>(cs.bypass_reads);

  if (probes.telemetry == nullptr) return;
  for (uint32_t n = 0; n < sim.node_count(); ++n) {
    rep.node_names.push_back(sim.node(n).name());
  }
  obs::NodeMetrics m = probes.telemetry->metrics().Merged();
  const auto counter = [&m](std::string_view name) {
    return static_cast<double>(m.GetCounter(name).value());
  };
  const double doorbells = counter("verbs.doorbells");
  const double wrs = counter("verbs.wrs_posted");
  rep.layer["verbs.doorbells"] = doorbells;
  rep.layer["verbs.wrs_posted"] = wrs;
  rep.layer["verbs.wrs_per_doorbell"] = doorbells > 0 ? wrs / doorbells : 0;
  rep.layer["verbs.cq_batch_mean"] = m.GetTimer("verbs.cq_batch").hist().mean();
  rep.layer["rpc.calls"] = counter("rpc.calls");
  rep.layer["rpc.call_us_p50"] =
      Us(m.GetTimer("rpc.call_ns").hist().Quantile(0.5));
  const double fabric_msgs = counter("fabric.msgs_out");
  rep.layer["fabric.queue_ns_mean"] =
      fabric_msgs > 0 ? counter("fabric.queue_ns") / fabric_msgs : 0;
}

// Latency metrics over exact samples (bulk-stream and graph-pagerank).
void SampleMetrics(const std::vector<uint64_t>& reads,
                   const std::vector<uint64_t>& updates, Rep& rep) {
  std::vector<uint64_t> all = reads;
  all.insert(all.end(), updates.begin(), updates.end());
  rep.virt["read_mean_us"] = Mean(reads) / 1e3;
  rep.virt["read_p99_us"] = Us(Quantile(reads, 0.99));
  rep.virt["update_mean_us"] = Mean(updates) / 1e3;
  rep.virt["update_p99_us"] = Us(Quantile(updates, 0.99));
  rep.virt["op_p999_us"] = Us(Quantile(all, 0.999));
  rep.samples = all.size();
}

// Runs `body` on a fresh cluster and times set-up and the window on the
// host: set-up is cluster construction up to the window opening, the
// window runs through drain and cluster teardown.
template <typename Body>
void Timed(const core::ClusterConfig& cfg, const Probes& probes, Window& win,
           Rep& rep, Body body) {
  const auto t0 = Clock::now();
  {
    core::TestCluster cluster(cfg);
    if (probes.lin != nullptr) cluster.sim().AttachLinChecker(probes.lin);
    body(cluster);
  }
  const auto t1 = Clock::now();
  if (!win.open) win.host = t1;
  rep.setup_s = HostSeconds(t0, win.host);
  rep.wall_s = HostSeconds(win.host, t1);
}

// ---------------------------------------------------------------------------
// kv-update / kv-overload: the open-loop load engine over one RKV table.

constexpr uint32_t kKvServers = 8;
constexpr uint32_t kKvClients = 4;

Rep RunKv(double offered, sim::Nanos duration, uint64_t seed,
          const Probes& probes) {
  load::LoadOptions opts;
  opts.sessions = 10000;
  opts.preload_keys = 16384;
  opts.value_bytes = 64;
  opts.mix = load::WorkloadMix::Ycsb('a');
  opts.theta = 0.99;
  opts.offered_load = offered;
  opts.duration = duration;
  opts.admission = true;
  opts.seed = seed;
  // Contended updates retry until they succeed rather than being abandoned
  // after the engine's default 64 conflicts: no attempted op may fail.
  opts.op_retry_budget = 1U << 16;
  opts.rtrace.mode = probes.telemetry != nullptr ? obs::RtraceMode::kFull
                                                 : obs::RtraceMode::kOff;

  core::ClusterConfig cfg;
  cfg.telemetry = probes.telemetry;
  cfg.memory_servers = kKvServers;
  cfg.client_nodes = kKvClients;
  cfg.server_capacity =
      opts.buckets() * opts.slot_bytes / kKvServers + (8ULL << 20);
  cfg.master.slab_size = 1ULL << 20;
  cfg.seed = seed;

  Rep rep;
  Window win;
  std::vector<load::EngineStats> stats(kKvClients);
  Timed(cfg, probes, win, rep, [&](core::TestCluster& cluster) {
    ClientTotals totals;
    for (uint32_t c = 0; c < kKvClients; ++c) {
      cluster.SpawnClient(c, [&, c](core::RStoreClient& client) {
        const uint32_t node = client.device().node_id();
        if (c == 0) {
          obs::ObsSpan span(probes.telemetry, node, "bench", "load.preload");
          if (!rep.Ok(load::LoadEngine::PreloadTable(client, "kv", opts),
                      "preload") ||
              !rep.Ok(client.NotifyInc("perfbench.loaded"), "notify")) {
            return;
          }
        }
        if (!rep.Ok(client.WaitNotify("perfbench.loaded", 1).status(),
                    "wait loaded")) {
          return;
        }
        win.Open(cluster.net());
        {
          obs::ObsSpan span(probes.telemetry, node, "bench", "load.run");
          load::LoadEngine engine(client, "kv", opts, c, kKvClients);
          rep.Ok(engine.Run(), "engine run");
          stats[c] = engine.stats();
        }
        win.Close();
        totals.Add(client);
      });
    }
    cluster.sim().Run();
    Finish(cluster, win, totals, probes, rep);
  });

  LatencyHistogram all(1.04), reads(1.04), updates(1.04);
  uint64_t arrivals = 0, completed = 0, errors = 0, shed = 0, deferred = 0;
  uint64_t retries = 0, steps = 0, wrs = 0, chains = 0, stalls = 0;
  uint32_t inflight_hw = 0;
  obs::RtraceReport rtrace;
  for (uint32_t c = 0; c < kKvClients; ++c) {
    const load::EngineStats& s = stats[c];
    rep.Check(s.arrivals == s.completed + s.errors + s.shed,
              "engine " + std::to_string(c) +
                  ": arrivals != completed + errors + shed after drain");
    arrivals += s.arrivals;
    completed += s.completed;
    errors += s.errors;
    shed += s.shed;
    deferred += s.admission.deferred;
    retries += s.retries;
    steps += s.steps;
    wrs += s.mux.wrs_posted;
    chains += s.mux.chains_posted;
    stalls += s.mux.headroom_stalls;
    inflight_hw = std::max(inflight_hw, s.admission.inflight_high_water);
    all.Merge(s.latency);
    reads.Merge(s.read_latency);
    updates.Merge(s.write_latency);
    rtrace.config = s.rtrace.config;
    rtrace.Merge(s.rtrace);
  }
  // Every arrival is an attempted op. Errors count as failed; shed ops
  // were refused by admission control, which is the point of kv-overload.
  rep.attempted += arrivals;
  rep.failed += errors;
  rep.refused = shed;
  rep.samples = all.count();
  rep.Check(completed > 0, "no KV op completed");

  rep.virt["read_mean_us"] = reads.mean() / 1e3;
  rep.virt["read_p99_us"] = Us(reads.Quantile(0.99));
  rep.virt["update_mean_us"] = updates.mean() / 1e3;
  rep.virt["update_p99_us"] = Us(updates.Quantile(0.99));
  rep.virt["op_p999_us"] = Us(all.Quantile(0.999));
  rep.virt["goodput_kops"] =
      win.seconds() > 0 ? static_cast<double>(completed) / win.seconds() / 1e3
                        : 0;

  const double done = completed > 0 ? static_cast<double>(completed) : 1;
  rep.layer["load.arrivals"] = static_cast<double>(arrivals);
  rep.layer["load.completed"] = static_cast<double>(completed);
  rep.layer["load.errors"] = static_cast<double>(errors);
  rep.layer["load.shed"] = static_cast<double>(shed);
  rep.layer["load.deferred"] = static_cast<double>(deferred);
  rep.layer["load.retries_per_op"] = static_cast<double>(retries) / done;
  rep.layer["load.wrs_per_op"] = static_cast<double>(wrs) / done;
  rep.layer["load.chain_width"] =
      chains > 0 ? static_cast<double>(wrs) / static_cast<double>(chains) : 0;
  rep.layer["load.headroom_stalls"] = static_cast<double>(stalls);
  rep.layer["load.inflight_high_water"] = inflight_hw;
  rep.layer["load.steps_per_op"] = static_cast<double>(steps) / done;

  if (probes.telemetry != nullptr) {
    rep.Check(rtrace.ops > 0, "rtrace recorded no ops");
    rep.Check(rtrace.sum_mismatches == 0,
              "rtrace stage sums mismatched on " +
                  std::to_string(rtrace.sum_mismatches) + " ops");
    const obs::RtraceReport::Slice tail = rtrace.Attribution(0.999, 1.0);
    for (uint32_t i = 0; i < obs::kRtraceStageCount; ++i) {
      const std::string stage(obs::RtraceStageName(i));
      rep.layer["rtrace." + stage + "_ns"] =
          rtrace.ops > 0 ? static_cast<double>(rtrace.stage_ns_sum[i]) /
                               static_cast<double>(rtrace.ops)
                         : 0;
      rep.layer["rtrace.p999_" + stage + "_share"] =
          tail.total_ns > 0 ? static_cast<double>(tail.stage_ns[i]) /
                                  static_cast<double>(tail.total_ns)
                            : 0;
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// bulk-stream: every client streams most of its own region (overlapped
// writes, then reads, of a seeded extent), runs vectored scatter/gather
// passes at seeded offsets, and draws tickets from one shared FetchAdd
// counter.

constexpr uint32_t kBulkMachines = 12;
constexpr uint64_t kBulkSlab = 1ULL << 20;
constexpr uint64_t kBulkRegion = kBulkMachines * kBulkSlab;
constexpr int kBulkStreamPasses = 6;
constexpr int kBulkScatterPasses = 4;
constexpr uint32_t kBulkSegments = 64;
constexpr int kBulkAtomics = 32;

void FillPattern(std::byte* dst, uint64_t len, Rng& rng) {
  for (uint64_t i = 0; i < len; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(dst + i, &word, std::min<uint64_t>(8, len - i));
  }
}

struct BulkTimes {
  std::map<std::string, std::vector<uint64_t>> by_call;  // virtual ns
  std::vector<uint64_t> tickets;
};

// Times data-path calls that return an IoFuture: each call's virtual
// latency runs from its issue to the return of its Wait().
class CoreTimer {
 public:
  CoreTimer(Rep& rep, BulkTimes& times, obs::Telemetry* tel, uint32_t node)
      : rep_(rep), times_(times), tel_(tel), node_(node) {}

  // Issues every call first, then waits for each in order.
  template <typename Post>
  bool Overlapped(const char* name, int count, Post post) {
    std::vector<std::pair<sim::Nanos, core::IoFuture>> pending;
    for (int i = 0; i < count; ++i) {
      const sim::Nanos t = sim::Now();
      obs::ObsSpan span(tel_, node_, "bench", name);
      auto f = post();
      if (!rep_.Ok(f.status(), name)) return false;
      pending.emplace_back(t, std::move(*f));
    }
    bool ok = true;
    for (auto& [t, f] : pending) {
      obs::ObsSpan span(tel_, node_, "bench", "core.wait");
      ok &= rep_.Ok(f.Wait(), name);
      times_.by_call[name].push_back(static_cast<uint64_t>(sim::Now() - t));
    }
    return ok;
  }

 private:
  Rep& rep_;
  BulkTimes& times_;
  obs::Telemetry* tel_;
  uint32_t node_;
};

void BulkClient(core::RStoreClient& client, uint32_t c, uint64_t seed,
                verbs::Network& net, const Probes& probes, Window& win,
                Rep& rep, BulkTimes& times) {
  const std::string name = "r" + std::to_string(c);
  if (!rep.Ok(client.Ralloc(name, kBulkRegion), "ralloc")) return;
  auto region = client.Rmap(name);
  auto wbuf = client.AllocBuffer(kBulkRegion);
  auto rbuf = client.AllocBuffer(kBulkRegion);
  if (!rep.Ok(region.status(), "rmap") || !rep.Ok(wbuf.status(), "alloc") ||
      !rep.Ok(rbuf.status(), "alloc")) {
    return;
  }
  if (c == 0 && (!rep.Ok(client.Ralloc("tickets", 4096), "ralloc") ||
                 !rep.Ok(client.NotifyInc("perfbench.tickets"), "notify"))) {
    return;
  }
  if (!rep.Ok(client.WaitNotify("perfbench.tickets", 1).status(), "wait")) {
    return;
  }
  auto tickets = client.Rmap("tickets");
  if (!rep.Ok(tickets.status(), "rmap")) return;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + c + 1);
  FillPattern(wbuf->begin(), kBulkRegion, rng);

  core::MappedRegion& r = **region;
  std::byte* const w = wbuf->begin();
  std::byte* const rb = rbuf->begin();
  CoreTimer timer(rep, times, probes.telemetry, client.device().node_id());
  win.Open(net);

  // Streaming phase: overlapped writes of one seeded extent (at least
  // 15/16 of the region), then overlapped reads of it.
  const uint64_t off = rng.NextBelow(kBulkRegion / 32) / 4096 * 4096;
  const uint64_t len =
      kBulkRegion - off - rng.NextBelow(kBulkRegion / 32) / 4096 * 4096;
  if (!timer.Overlapped("core.write_async", kBulkStreamPasses, [&] {
        return r.WriteAsync(off, wbuf->data.subspan(off, len));
      })) {
    return;
  }
  if (!timer.Overlapped("core.read_async", kBulkStreamPasses, [&] {
        return r.ReadAsync(off, rbuf->data.subspan(off, len));
      })) {
    return;
  }
  rep.Check(std::memcmp(w + off, rb + off, len) == 0,
            "client " + std::to_string(c) + ": streamed read-back differs");

  // Scatter phase: one segment per stride at a seeded offset and length,
  // rewritten with fresh pattern bytes, then read back.
  const uint64_t stride = kBulkRegion / kBulkSegments;
  std::vector<core::IoVec> segs(kBulkSegments);
  for (int pass = 0; pass < kBulkScatterPasses; ++pass) {
    for (uint32_t s = 0; s < kBulkSegments; ++s) {
      const uint64_t len = 2048 + rng.NextBelow(4097) / 8 * 8;
      const uint64_t off = s * stride + rng.NextBelow(stride - len) / 8 * 8;
      FillPattern(w + off, len, rng);
      segs[s] = {off, w + off, len};
    }
    if (!timer.Overlapped("core.writev", 1, [&] { return r.WriteV(segs); })) {
      return;
    }
    for (core::IoVec& seg : segs) seg.local = rb + seg.offset;
    if (!timer.Overlapped("core.readv", 1, [&] { return r.ReadV(segs); })) {
      return;
    }
    for (const core::IoVec& seg : segs) {
      if (std::memcmp(w + seg.offset, rb + seg.offset, seg.length) != 0) {
        rep.Check(false, "client " + std::to_string(c) +
                             ": vectored read-back differs");
        break;
      }
    }
  }

  // Atomic phase: tickets from one contended counter.
  for (int i = 0; i < kBulkAtomics; ++i) {
    const sim::Nanos t = sim::Now();
    obs::ObsSpan span(probes.telemetry, client.device().node_id(), "bench",
                      "core.fetch_add");
    auto v = (*tickets)->FetchAdd(0, 1);
    if (!rep.Ok(v.status(), "fetch_add")) return;
    times.by_call["core.fetch_add"].push_back(
        static_cast<uint64_t>(sim::Now() - t));
    times.tickets.push_back(*v);
  }
  win.Close();
}

Rep RunBulk(uint64_t seed, const Probes& probes) {
  core::ClusterConfig cfg;
  cfg.telemetry = probes.telemetry;
  cfg.memory_servers = kBulkMachines;
  cfg.client_nodes = kBulkMachines;
  cfg.server_capacity = kBulkMachines * kBulkSlab + (8ULL << 20);
  cfg.master.slab_size = kBulkSlab;
  cfg.seed = seed;

  Rep rep;
  Window win;
  BulkTimes times;
  Timed(cfg, probes, win, rep, [&](core::TestCluster& cluster) {
    ClientTotals totals;
    for (uint32_t c = 0; c < kBulkMachines; ++c) {
      cluster.SpawnClient(c, [&, c](core::RStoreClient& client) {
        BulkClient(client, c, seed, cluster.net(), probes, win, rep, times);
        totals.Add(client);
      });
    }
    cluster.sim().Run();
    Finish(cluster, win, totals, probes, rep);
  });

  // Every ticket is drawn exactly once: the returned values are distinct
  // and contiguous.
  std::vector<uint64_t>& t = times.tickets;
  std::sort(t.begin(), t.end());
  bool contiguous = t.size() == size_t{kBulkMachines} * kBulkAtomics;
  for (size_t i = 1; contiguous && i < t.size(); ++i) {
    contiguous = t[i] == t[0] + i;
  }
  rep.Check(contiguous, "FetchAdd tickets are not one contiguous range");

  std::vector<uint64_t> reads, updates;
  uint64_t calls = 0;
  for (const auto& [call, ns] : times.by_call) {
    const bool is_read = call == "core.read_async" || call == "core.readv";
    std::vector<uint64_t>& kind = is_read ? reads : updates;
    kind.insert(kind.end(), ns.begin(), ns.end());
    calls += ns.size();
    rep.layer[call + "_vus_p50"] = Us(Quantile(ns, 0.5));
  }
  SampleMetrics(reads, updates, rep);
  rep.virt["goodput_kops"] =
      win.seconds() > 0 ? static_cast<double>(calls) / win.seconds() / 1e3 : 0;
  return rep;
}

// ---------------------------------------------------------------------------
// graph-pagerank: Carafe PageRank with the region cache on.

constexpr uint32_t kGraphWorkers = 8;
constexpr uint32_t kGraphIterations = 10;
constexpr uint32_t kGraphScale = 17;

Rep RunPageRank(const carafe::Graph& graph, const std::vector<double>& expected,
                uint64_t seed, const Probes& probes) {
  core::ClusterConfig cfg;
  cfg.telemetry = probes.telemetry;
  cfg.memory_servers = 8;
  cfg.client_nodes = kGraphWorkers;
  cfg.server_capacity = 32ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  cfg.seed = seed;

  Rep rep;
  Window win;
  sim::Nanos upload_ns = 0;
  std::vector<uint64_t> init_ns, superstep_ns;
  Timed(cfg, probes, win, rep, [&](core::TestCluster& cluster) {
    ClientTotals totals;
    for (uint32_t w = 0; w < kGraphWorkers; ++w) {
      cluster.SpawnClient(w, [&, w](core::RStoreClient& client) {
        const uint32_t node = client.device().node_id();
        if (w == 0) {
          obs::ObsSpan span(probes.telemetry, node, "bench", "carafe.upload");
          const sim::Nanos t = sim::Now();
          if (!rep.Ok(carafe::UploadGraph(client, "g", graph), "upload") ||
              !rep.Ok(client.NotifyInc("perfbench.up"), "notify")) {
            return;
          }
          upload_ns = sim::Now() - t;
        } else if (!rep.Ok(client.WaitNotify("perfbench.up", 1).status(),
                           "wait")) {
          return;
        }
        carafe::WorkerConfig wc{w, kGraphWorkers, "perfbench"};
        wc.cache = true;
        carafe::Worker worker(client, "g", wc);
        {
          obs::ObsSpan span(probes.telemetry, node, "bench", "carafe.init");
          const sim::Nanos t = sim::Now();
          if (!rep.Ok(worker.Init(), "init")) return;
          init_ns.push_back(static_cast<uint64_t>(sim::Now() - t));
        }
        if (!rep.Ok(client.NotifyInc("perfbench.ready"), "notify") ||
            !rep.Ok(client.WaitNotify("perfbench.ready", kGraphWorkers)
                        .status(),
                    "wait")) {
          return;
        }
        win.Open(cluster.net());
        {
          obs::ObsSpan span(probes.telemetry, node, "bench",
                            "carafe.pagerank");
          const sim::Nanos t = sim::Now();
          auto ranks = worker.PageRank({.iterations = kGraphIterations});
          if (!rep.Ok(ranks.status(), "pagerank")) return;
          superstep_ns.push_back(static_cast<uint64_t>(sim::Now() - t) /
                                 kGraphIterations);
          bool match = ranks->size() == expected.size();
          for (size_t v = 0; match && v < expected.size(); ++v) {
            match = std::fabs((*ranks)[v] - expected[v]) <= 1e-10;
          }
          rep.Check(match, "worker " + std::to_string(w) +
                               ": ranks differ from ReferencePageRank");
        }
        win.Close();
        totals.Add(client);
      });
    }
    cluster.sim().Run();
    Finish(cluster, win, totals, probes, rep);
  });
  rep.Check(superstep_ns.size() == kGraphWorkers, "a worker did not finish");

  // Reads are the workers' partition pulls (Init); updates are their mean
  // superstep times.
  SampleMetrics(init_ns, superstep_ns, rep);
  const double window_s = win.seconds();
  rep.virt["goodput_kops"] =
      window_s > 0 ? static_cast<double>(graph.num_edges()) * kGraphIterations /
                         window_s / 1e3
                   : 0;
  rep.layer["carafe.upload_vms"] = static_cast<double>(upload_ns) / 1e6;
  rep.layer["carafe.init_vms"] =
      static_cast<double>(Quantile(init_ns, 1.0)) / 1e6;
  rep.layer["carafe.superstep_vus"] =
      Us(static_cast<uint64_t>(win.end - win.start) / kGraphIterations);
  return rep;
}

// ---------------------------------------------------------------------------

void AppendNumber(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

void AppendMetrics(std::string& out, const Metrics& metrics) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ',';
    first = false;
    obs::AppendJsonString(out, name);
    out += ':';
    AppendNumber(out, value);
  }
  out += '}';
}

// Writes the traced run's spans, instants and flows, leaving out the
// per-message fabric spans and per-doorbell verbs spans: fabric.msgs and
// verbs.doorbells count them, and on kv-overload they would make the file
// 1.5M events (240 MB) that trace_check needs 3 GB to parse.
Status WriteSpanFile(const obs::Tracer& traced,
                     const std::vector<std::string>& node_names,
                     const std::string& path) {
  obs::Tracer out;
  for (uint32_t n = 0; n < node_names.size(); ++n) {
    out.RegisterNode(n, node_names[n]);
  }
  for (const obs::Tracer::Event& e : traced.events()) {
    if (e.category == "fabric" || e.category == "verbs") continue;
    switch (e.phase) {
      case 'X':
        out.RecordSpan(e.node, e.tid, e.category, e.name, e.ts_ns,
                       e.ts_ns + e.dur_ns, e.args);
        break;
      case 'i':
        out.Instant(e.node, e.tid, e.category, e.name, e.ts_ns, e.args);
        break;
      default:
        out.Flow(e.phase, e.node, e.tid, e.category, e.name, e.ts_ns,
                 e.flow_id);
    }
  }
  return out.WriteChromeTrace(path);
}

// The exact outputs two runs of one seed must share.
bool SameVirtual(const Rep& a, const Rep& b) {
  return a.virt == b.virt && a.events == b.events && a.end_ns == b.end_ns &&
         a.samples == b.samples;
}

int Main(int argc, char** argv) {
  std::string workload, trace_file;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (flag == "--trace") {
      trace_file = argv[i + 1];
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  SetLogLevel(LogLevel::kWarn);
  PinToOneCpu();
#if defined(__GLIBC__)
  // Keep large blocks in the retained heap so runs after the warm-up reuse
  // warm pages instead of re-faulting them (the same setting as
  // bench_wallclock; it affects measurement noise, not the simulator).
  (void)mallopt(M_MMAP_THRESHOLD, 256 << 20);
  (void)mallopt(M_TRIM_THRESHOLD, -1);
#endif

  // Inputs are generated once per process, outside every timed run.
  carafe::Graph graph;
  std::vector<double> expected;
  if (workload == "graph-pagerank") {
    graph = carafe::RmatGraph(kGraphScale, 16.0, seed);
    expected = carafe::ReferencePageRank(graph, kGraphIterations);
  }
  const auto run = [&](const Probes& probes) -> Rep {
    if (workload == "kv-update") {
      return RunKv(500e3, sim::Millis(50), seed, probes);
    }
    if (workload == "kv-overload") {
      return RunKv(8e6, sim::Millis(10), seed, probes);
    }
    if (workload == "bulk-stream") return RunBulk(seed, probes);
    return RunPageRank(graph, expected, seed, probes);
  };
  if (workload != "kv-update" && workload != "kv-overload" &&
      workload != "bulk-stream" && workload != "graph-pagerank") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  HostProbe probe;
  const Rep reference = run({});  // warm-up; its virtual metrics are the gold
  std::vector<Rep> reps;
  std::vector<double> probes;
  std::vector<std::string> problems = reference.problems;
  const auto start = Clock::now();
  do {
    probes.push_back(probe.Seconds());
    reps.push_back(run({}));
    const Rep& r = reps.back();
    std::fprintf(stderr, "run %zu: probe %.4f s, setup %.4f s, window %.4f s\n",
                 reps.size(), probes.back(), r.setup_s, r.wall_s);
    problems.insert(problems.end(), r.problems.begin(), r.problems.end());
    if (!SameVirtual(r, reference)) {
      problems.push_back("run " + std::to_string(reps.size()) +
                         " diverged from the warm-up in virtual time");
    }
  } while (HostSeconds(start, Clock::now()) < seconds);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<double> setup, wall, total;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    wall.push_back(r.wall_s);
    total.push_back(r.setup_s + r.wall_s);
  }
  const double scale = kProbeRefSeconds / Median(probes);
  std::fprintf(stderr,
               "median probe %.4f s: host times x %.4f (raw setup %.4f s, "
               "window %.4f s)\n",
               Median(probes), scale, Median(setup), Median(wall));
  Metrics e2e = reference.virt;
  e2e["setup_s"] = Median(setup) * scale;
  e2e["wall_s"] = Median(wall) * scale;
  e2e["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

  Metrics layer = reference.layer;
  const double host_s = Median(total) * scale;
  layer["sim.events_per_host_s"] =
      static_cast<double>(reference.events) / host_s;
  layer["fabric.host_bytes_per_s"] = layer["fabric.bytes"] / host_s;

  if (!trace_file.empty()) {
    obs::Telemetry telemetry;
    telemetry.EnableTracing(true);
    check::LinChecker lin;
    const Rep traced = run({&telemetry, &lin});
    problems.insert(problems.end(), traced.problems.begin(),
                    traced.problems.end());
    if (!SameVirtual(traced, reference)) {
      problems.push_back("probe effect: the traced run's virtual metrics "
                         "differ from the untraced run's");
    }
    lin.Finalize();
    if (lin.violation_count() > 0) {
      problems.push_back("rlin: " + std::to_string(lin.violation_count()) +
                         " linearizability violations");
    }
    layer["rlin.ops"] = static_cast<double>(lin.op_count());
    for (const auto& [name, value] : traced.layer) {
      if (!layer.contains(name)) layer[name] = value;
    }
    layer["trace_overhead_s"] = traced.wall_s * scale - e2e["wall_s"];
    const Status st =
        WriteSpanFile(telemetry.tracer(), traced.node_names, trace_file);
    if (!st.ok()) problems.push_back("span file: " + st.message());
    if (telemetry.tracer().dropped() > 0) {
      problems.push_back("span tracer dropped events");
    }
  }

  std::string out = "{\"workload\":";
  obs::AppendJsonString(out, workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"runs\":" + std::to_string(reps.size());
  out += ",\"correct\":";
  out += problems.empty() ? "true" : "false";
  out += ",\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ',';
    obs::AppendJsonString(out, problems[i]);
  }
  out += "],\"attempted\":" + std::to_string(reference.attempted);
  out += ",\"failed\":" + std::to_string(reference.failed);
  out += ",\"refused\":" + std::to_string(reference.refused);
  out += ",\"samples\":" + std::to_string(reference.samples);
  out += ",\"end_to_end\":";
  AppendMetrics(out, e2e);
  out += ",\"per_layer\":";
  AppendMetrics(out, layer);
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace rstore::perfbench

int main(int argc, char** argv) { return rstore::perfbench::Main(argc, argv); }
