// Virtual-time spans and Chrome trace_event export.
//
// A span is a named interval on one simulated node's timeline, recorded in
// *virtual* nanoseconds. Spans nest naturally per cooperative thread (the
// simulator runs one thread at a time, so same-thread spans form a proper
// stack) and export as Chrome trace_event JSON: one "process" per
// simulated node, one "thread" per SimThread, loadable in chrome://tracing
// or Perfetto.
//
// The probe-effect rule from metrics.h applies: recording reads the
// virtual clock but never advances it, schedules nothing, and charges no
// cost model. Tracing enabled vs disabled is bit-identical in virtual
// time; the only difference is host-side work.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace rstore::obs {

// One span/event attribute. Numbers are stored as double (virtual-time
// spans and byte counts fit well within the 2^53 exact range).
struct TraceArg {
  std::string key;
  bool is_number = true;
  double number = 0.0;
  std::string text;
};

// Collects events in memory; WriteChromeTrace() renders them. Capacity is
// capped so a runaway bench cannot exhaust host memory — overflow events
// are counted, not stored.
//
// Mutation (RegisterNode/SetThreadName/RecordSpan/Instant) is mutex-
// guarded, so a tracer may be shared by simulations driven from different
// host threads. Within one simulation, recording follows the event queue's
// dispatch order, so the exported trace is deterministic.
// events() and WriteChromeTrace() are post-run reads.
class Tracer {
 public:
  struct Event {
    char phase = 'X';  // 'X' complete span, 'i' instant, 's'/'t'/'f' flow
    uint32_t node = 0;
    uint64_t tid = 0;
    uint64_t ts_ns = 0;
    uint64_t dur_ns = 0;   // spans only
    uint64_t flow_id = 0;  // flow events only ('s'/'t'/'f')
    std::string category;
    std::string name;
    std::vector<TraceArg> args;
  };

  void RegisterNode(uint32_t id, std::string_view name);
  void SetThreadName(uint32_t node, uint64_t tid, std::string_view name);

  void RecordSpan(uint32_t node, uint64_t tid, std::string_view category,
                  std::string_view name, uint64_t start_ns, uint64_t end_ns,
                  std::vector<TraceArg> args = {});
  void Instant(uint32_t node, uint64_t tid, std::string_view category,
               std::string_view name, uint64_t ts_ns,
               std::vector<TraceArg> args = {});
  // Flow events tie spans on different nodes into one clickable arrow in
  // the trace viewer: a start ('s') on the producing span, optional steps
  // ('t'), and an end ('f', emitted with bp:"e" so it binds to the
  // enclosing slice) on the consuming span — all sharing `id`. rtrace uses
  // one flow per sampled op (id = op id) from the client span through the
  // server-side execution back to the completion.
  void Flow(char phase, uint32_t node, uint64_t tid, std::string_view category,
            std::string_view name, uint64_t ts_ns, uint64_t id);

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] uint64_t dropped() const noexcept { return dropped_; }
  void SetCapacity(size_t max_events) noexcept { capacity_ = max_events; }
  void Clear();

  // Renders {"traceEvents": [...]} with process/thread metadata, ts/dur in
  // microseconds as chrome://tracing expects.
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

 private:
  std::mutex mu_;  // guards the containers below during a run
  std::vector<Event> events_;
  std::map<uint32_t, std::string> node_names_;
  std::map<std::pair<uint32_t, uint64_t>, std::string> thread_names_;
  size_t capacity_ = 4u << 20;  // ~4M events; plenty for any bench run
  uint64_t dropped_ = 0;
};

// Bundles the registry and the tracer with the clock/thread-id hooks the
// simulator installs (Simulation::AttachTelemetry). One Telemetry can
// outlive a Simulation and aggregate several runs (bench iterations).
class Telemetry {
 public:
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }

  void EnableTracing(bool on) noexcept { tracing_ = on; }
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

  // Virtual time of the attached simulation (0 when detached).
  [[nodiscard]] uint64_t NowNs() const { return clock_ ? clock_() : 0; }
  // Simulation-unique id of the running SimThread (0 = scheduler context).
  [[nodiscard]] uint64_t CurrentTid() const { return tid_ ? tid_() : 0; }

  void SetClock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }
  void SetTidSource(std::function<uint64_t()> tid) { tid_ = std::move(tid); }

  [[nodiscard]] std::string DumpMetricsJson() const {
    return metrics_.DumpJson();
  }
  [[nodiscard]] Status WriteTrace(const std::string& path) const {
    return tracer_.WriteChromeTrace(path);
  }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  bool tracing_ = false;
  std::function<uint64_t()> clock_;
  std::function<uint64_t()> tid_;
};

// RAII span over the current virtual-time interval on `node`. Null-safe:
// with telemetry absent or tracing disabled the constructor reduces to a
// pointer test and the destructor to a no-op. Category and name must
// outlive the span (string literals or stable registry strings).
class ObsSpan {
 public:
  ObsSpan(Telemetry* telemetry, uint32_t node, std::string_view category,
          std::string_view name)
      : telemetry_(telemetry && telemetry->tracing() ? telemetry : nullptr) {
    if (telemetry_ != nullptr) {
      node_ = node;
      category_ = category;
      name_ = name;
      tid_ = telemetry_->CurrentTid();
      start_ns_ = telemetry_->NowNs();
    }
  }

  ~ObsSpan() {
    if (telemetry_ != nullptr) {
      telemetry_->tracer().RecordSpan(node_, tid_, category_, name_, start_ns_,
                                      telemetry_->NowNs(), std::move(args_));
    }
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  [[nodiscard]] bool active() const noexcept { return telemetry_ != nullptr; }
  [[nodiscard]] uint64_t start_ns() const noexcept { return start_ns_; }

  void Arg(std::string_view key, double value) {
    if (telemetry_ != nullptr) {
      args_.push_back({std::string(key), true, value, {}});
    }
  }
  void Arg(std::string_view key, std::string_view value) {
    if (telemetry_ != nullptr) {
      args_.push_back({std::string(key), false, 0.0, std::string(value)});
    }
  }

 private:
  Telemetry* telemetry_;
  uint32_t node_ = 0;
  uint64_t tid_ = 0;
  uint64_t start_ns_ = 0;
  std::string_view category_;
  std::string_view name_;
  std::vector<TraceArg> args_;
};

}  // namespace rstore::obs
