// Shared plumbing for the experiment benchmarks.
//
// Every benchmark runs a fresh simulated cluster and reports *virtual*
// time: wall-clock on the host is meaningless, so benchmarks use
// google-benchmark's manual-time mode with the simulation clock, and the
// interesting figures (Gb/s, microseconds, speedups) appear as counters.
// Each binary prints the series of exactly one paper experiment; the
// mapping to the paper's tables/figures lives in DESIGN.md and the
// measured-vs-paper record in EXPERIMENTS.md.
// Telemetry flags (stripped before google-benchmark sees argv):
//
//   --json <path>   attach an obs::Telemetry to every cluster the binary
//                   builds (via ActiveTelemetry()) and write a JSON file
//                   with the run results and the merged metrics registry.
//   --trace <path>  additionally enable span tracing and export a Chrome
//                   trace_event file (chrome://tracing, Perfetto).
//   --ledger <path> write one text line per run: its name, iterations,
//                   virtual time per iteration and every counter, all
//                   numbers as %.17g. Virtual time is deterministic, so
//                   the file pins the binary's modelled outputs exactly
//                   (bench/golden/check_ledger.cmake compares it).
//
// Without either flag ActiveTelemetry() is null and the benchmarks run
// exactly as before — virtual times are bit-identical either way (see
// obs/metrics.h's probe-effect rule).
//
//   --explore <policy>:<seed>:<runs>[:<max_delay_ns>]
//                   run the whole binary under schedule exploration: every
//                   Simulation attaches a SchedulePolicy from the spec (seed
//                   cycles across runs) plus the happens-before checker.
//                   Implemented by exporting RSTORE_EXPLORE/RSTORE_RCHECK,
//                   which src/sim reads per-Simulation; violating runs dump
//                   a replayable trace for tools/rexplore.
//
//   --rlin          run the whole binary under the per-key linearizability
//                   checker (RSTORE_RLIN, see check/lin.h). Recording is
//                   observe-only: virtual times are bit-identical with the
//                   flag off or on. A violation prints the counterexample,
//                   writes rlin_report.json (or into RSTORE_RLIN_OUT), and
//                   aborts.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/region_cache.h"
#include "common/log.h"
#include "core/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace rstore::bench {

// Runs `body` on client 0 of a fresh cluster and returns the virtual time
// it spent inside the innermost Measure() bracket.
class Stopwatch {
 public:
  void Start() { start_ = sim::Now(); }
  void Stop() { elapsed_ += sim::Now() - start_; }
  [[nodiscard]] sim::Nanos elapsed() const noexcept { return elapsed_; }
  [[nodiscard]] double seconds() const noexcept {
    return sim::ToSeconds(elapsed_);
  }

 private:
  sim::Nanos start_ = 0;
  sim::Nanos elapsed_ = 0;
};

// Applies one simulated-time measurement to a manual-time benchmark
// iteration.
inline void ReportVirtualTime(benchmark::State& state, double seconds) {
  state.SetIterationTime(seconds);
}

// Publishes a client's region-cache counters; aggregate stats from every
// participating client before calling (counters are totals, hit_rate is
// hits / (hits + misses)).
inline void ReportCacheCounters(benchmark::State& state,
                                const cache::CacheStats& stats) {
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["cache_fills"] = static_cast<double>(stats.fills);
  state.counters["cache_evictions"] = static_cast<double>(stats.evictions);
  state.counters["cache_bypass"] = static_cast<double>(stats.bypass_reads);
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  state.counters["cache_hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
}

// ---------------------------------------------------------------------------
// Telemetry plumbing (--json / --trace)
// ---------------------------------------------------------------------------

struct ObsConfig {
  std::string binary_name;
  std::string json_path;
  std::string trace_path;
  std::string ledger_path;
};

inline ObsConfig& GetObsConfig() {
  static ObsConfig config;
  return config;
}

// Shared workload-shape grammar for the serving benchmarks (E9/E11/E13):
//
//   --offered-load <ops_per_s>   aggregate open-loop arrival rate
//   --sessions <n>               logical client sessions (or clients,
//                                for closed-loop benchmarks)
//   --duration <ms>              measurement window, milliseconds
//   --skew <theta>               zipf skew over the key space
//
// Unset fields keep each benchmark's own default; a closed-loop benchmark
// documents which fields it honors (E11 ignores --offered-load).
struct LoadFlags {
  double offered_load = -1.0;  // < 0 = benchmark default
  int64_t sessions = -1;
  double duration_ms = -1.0;
  double skew = -1.0;
  // --rtrace <off|sampled|full>: per-op causal tracing mode for the load
  // engine (see obs/rtrace.h). Empty keeps the benchmark's default.
  std::string rtrace;
  // --attribution <path>: where the rtrace attribution JSON report lands
  // (benchmarks with rtrace support write a default path when unset).
  std::string attribution;
};

inline LoadFlags& GetLoadFlags() {
  static LoadFlags flags;
  return flags;
}

// The binary-wide telemetry sink, or null when neither flag was given.
// Benchmarks pass this as ClusterConfig::telemetry (or AttachTelemetry it
// onto hand-built simulations); one sink aggregates every iteration.
inline obs::Telemetry* ActiveTelemetry() {
  ObsConfig& config = GetObsConfig();
  if (config.json_path.empty() && config.trace_path.empty()) return nullptr;
  static obs::Telemetry telemetry;
  telemetry.EnableTracing(!config.trace_path.empty());
  return &telemetry;
}

// Strips --json/--trace/--ledger/--rcheck/--rlin/--explore and the load
// flags (space- or =-separated) from argv before benchmark::Initialize,
// which rejects unknown flags.
inline void ParseObsArgs(int* argc, char** argv) {
  ObsConfig& config = GetObsConfig();
  if (*argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    config.binary_name = slash != nullptr ? slash + 1 : argv[0];
  }
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if ((arg == "--json" || arg == "--trace") && i + 1 < *argc) {
      (arg == "--json" ? config.json_path : config.trace_path) = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = std::string(arg.substr(7));
    } else if (arg.rfind("--trace=", 0) == 0) {
      config.trace_path = std::string(arg.substr(8));
    } else if ((arg == "--ledger" && i + 1 < *argc) ||
               arg.rfind("--ledger=", 0) == 0) {
      config.ledger_path =
          arg == "--ledger" ? argv[++i] : std::string(arg.substr(9));
    } else if (arg == "--rcheck") {
      // Runs the whole binary under the happens-before checker. Set as an
      // env var (not a global) because every Simulation the benchmarks
      // construct reads RSTORE_RCHECK in its constructor.
      setenv("RSTORE_RCHECK", "1", /*overwrite=*/1);
    } else if (arg == "--rlin") {
      // Runs the whole binary under the per-key linearizability checker
      // (see check/lin.h); same env-var mechanism as --rcheck. A violation
      // prints the counterexample and aborts on Simulation shutdown.
      setenv("RSTORE_RLIN", "1", /*overwrite=*/1);
    } else if ((arg == "--explore" && i + 1 < *argc) ||
               arg.rfind("--explore=", 0) == 0) {
      // Schedule exploration, same env-var mechanism as --rcheck: every
      // Simulation reads RSTORE_EXPLORE in its constructor and attaches a
      // policy built from the spec. Exploration without the checker finds
      // nothing, so --explore implies --rcheck.
      const std::string spec = arg == "--explore"
                                   ? std::string(argv[++i])
                                   : std::string(arg.substr(10));
      setenv("RSTORE_EXPLORE", spec.c_str(), /*overwrite=*/1);
      setenv("RSTORE_RCHECK", "1", /*overwrite=*/1);
    } else if ((arg == "--offered-load" && i + 1 < *argc) ||
               arg.rfind("--offered-load=", 0) == 0) {
      GetLoadFlags().offered_load = std::atof(
          arg == "--offered-load" ? argv[++i] : arg.substr(15).data());
    } else if ((arg == "--sessions" && i + 1 < *argc) ||
               arg.rfind("--sessions=", 0) == 0) {
      GetLoadFlags().sessions = std::atoll(
          arg == "--sessions" ? argv[++i] : arg.substr(11).data());
    } else if ((arg == "--duration" && i + 1 < *argc) ||
               arg.rfind("--duration=", 0) == 0) {
      GetLoadFlags().duration_ms = std::atof(
          arg == "--duration" ? argv[++i] : arg.substr(11).data());
    } else if ((arg == "--skew" && i + 1 < *argc) ||
               arg.rfind("--skew=", 0) == 0) {
      GetLoadFlags().skew =
          std::atof(arg == "--skew" ? argv[++i] : arg.substr(7).data());
    } else if ((arg == "--rtrace" && i + 1 < *argc) ||
               arg.rfind("--rtrace=", 0) == 0) {
      GetLoadFlags().rtrace =
          arg == "--rtrace" ? argv[++i] : std::string(arg.substr(9));
    } else if ((arg == "--attribution" && i + 1 < *argc) ||
               arg.rfind("--attribution=", 0) == 0) {
      GetLoadFlags().attribution =
          arg == "--attribution" ? argv[++i] : std::string(arg.substr(14));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

// One finished benchmark run, captured for the --json report.
struct CollectedRun {
  std::string name;
  int64_t iterations = 0;
  double real_time_s = 0;  // per-iteration virtual time (manual time)
  std::vector<std::pair<std::string, double>> counters;
};

inline std::vector<CollectedRun>& CollectedRuns() {
  static std::vector<CollectedRun> runs;
  return runs;
}

// Console reporter that also records each run for the JSON report.
class RunCollector : public benchmark::ConsoleReporter {
 public:
  using ConsoleReporter::ConsoleReporter;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      CollectedRun c;
      c.name = run.benchmark_name();
      c.iterations = run.iterations;
      c.real_time_s = run.iterations > 0
                          ? run.real_accumulated_time /
                                static_cast<double>(run.iterations)
                          : 0.0;
      for (const auto& [key, counter] : run.counters) {
        c.counters.emplace_back(key, static_cast<double>(counter));
      }
      CollectedRuns().push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

// Writes the --ledger lines of every collected run, when the flag was
// given. Called by RSTORE_BENCH_MAIN after the run.
inline int WriteRunLedger() {
  const std::string& path = GetObsConfig().ledger_path;
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "# name iterations virtual_s counter=value...\n");
    for (const CollectedRun& run : CollectedRuns()) {
      std::fprintf(f, "%s %lld %.17g", run.name.c_str(),
                   static_cast<long long>(run.iterations), run.real_time_s);
      for (const auto& [key, value] : run.counters) {
        std::fprintf(f, " %s=%.17g", key.c_str(), value);
      }
      std::fputc('\n', f);
    }
  }
  if (f == nullptr || std::fclose(f) != 0) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

// Writes the --json report ({binary, runs, metrics}) and the --trace
// Chrome trace file. Called by RSTORE_BENCH_MAIN after the run.
inline int WriteObsOutputs() {
  const ObsConfig& config = GetObsConfig();
  obs::Telemetry* telemetry = ActiveTelemetry();
  int rc = 0;
  if (!config.json_path.empty() && telemetry != nullptr) {
    std::string out = "{\"binary\":";
    obs::AppendJsonString(out, config.binary_name);
    out += ",\"runs\":[";
    bool first = true;
    for (const CollectedRun& run : CollectedRuns()) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      obs::AppendJsonString(out, run.name);
      out += ",\"iterations\":" + std::to_string(run.iterations);
      char buf[64];
      std::snprintf(buf, sizeof buf, ",\"real_time_s\":%.9g",
                    run.real_time_s);
      out += buf;
      out += ",\"counters\":{";
      bool cfirst = true;
      for (const auto& [key, value] : run.counters) {
        if (!cfirst) out += ',';
        cfirst = false;
        obs::AppendJsonString(out, key);
        std::snprintf(buf, sizeof buf, ":%.17g", value);
        out += buf;
      }
      out += "}}";
    }
    out += "],\"metrics\":" + telemetry->DumpMetricsJson() + "}\n";
    std::FILE* f = std::fopen(config.json_path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
      std::fprintf(stderr, "failed to write %s\n", config.json_path.c_str());
      rc = 1;
    }
    if (f != nullptr) std::fclose(f);
  }
  if (!config.trace_path.empty() && telemetry != nullptr) {
    Status st = telemetry->WriteTrace(config.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   config.trace_path.c_str(), st.message().c_str());
      rc = 1;
    }
    if (telemetry->tracer().dropped() > 0) {
      std::fprintf(stderr,
                   "trace capacity reached: %llu events dropped\n",
                   static_cast<unsigned long long>(
                       telemetry->tracer().dropped()));
    }
  }
  return rc;
}

}  // namespace rstore::bench

// BENCHMARK_MAIN with the cluster's INFO chatter silenced, plus the
// --json/--trace/--ledger flags (see the header comment).
#define RSTORE_BENCH_MAIN()                                   \
  int main(int argc, char** argv) {                           \
    ::rstore::SetLogLevel(::rstore::LogLevel::kWarn);         \
    ::rstore::bench::ParseObsArgs(&argc, argv);               \
    ::benchmark::Initialize(&argc, argv);                     \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
      return 1;                                               \
    ::rstore::bench::RunCollector reporter;                   \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);           \
    const int obs_rc = ::rstore::bench::WriteObsOutputs();    \
    const int ledger_rc = ::rstore::bench::WriteRunLedger();  \
    ::benchmark::Shutdown();                                  \
    return obs_rc != 0 ? obs_rc : ledger_rc;                  \
  }
