// Cluster-wide metrics registry.
//
// Named counters, gauges, and LatencyHistogram-backed timers, grouped per
// simulated node and mergeable into one cluster-wide view. Instrumented
// layers (fabric, verbs, rpc, client, cache, apps) resolve an instrument
// once and then mutate it through a stable pointer, so the steady-state
// cost of an enabled metric is an increment — and of a disabled one, a
// null-pointer test.
//
// Zero-probe-effect rule: nothing in this file touches the virtual clock,
// the event queue, or any RNG. Recording a metric can never change a
// simulated outcome; enabling telemetry costs wall-clock time only.
//
// Thread-safety: Counter increments are atomic (relaxed — counts only, no
// ordering guarantees needed), and instrument/node creation is
// mutex-guarded, so one registry may be shared by simulations driven from
// different host threads and its counters stay exact. Gauge and Timer are
// single-writer: only the simulation that owns the node mutates them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/stats.h"

namespace rstore::obs {

// Monotonic event count. Increments are atomic so simulations running on
// different host threads may share one counter; relaxed ordering suffices
// because counters are read only after the run.
class Counter {
 public:
  void Inc(uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level with a high-water mark (e.g. egress queue depth).
class Gauge {
 public:
  void Set(int64_t v) noexcept {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  void Add(int64_t delta) noexcept { Set(value_ + delta); }
  [[nodiscard]] int64_t value() const noexcept { return value_; }
  [[nodiscard]] int64_t high_water() const noexcept { return high_water_; }

  // Cluster merge: levels sum, high-waters take the max (per-node peaks
  // need not coincide in time, so the sum of peaks would overstate).
  void MergeFrom(const Gauge& other) noexcept {
    value_ += other.value_;
    if (other.high_water_ > high_water_) high_water_ = other.high_water_;
  }

 private:
  int64_t value_ = 0;
  int64_t high_water_ = 0;
};

// Duration/size distribution backed by the log-scaled LatencyHistogram.
class Timer {
 public:
  void Record(uint64_t value) { hist_.Add(value); }
  [[nodiscard]] const LatencyHistogram& hist() const noexcept { return hist_; }
  void Merge(const Timer& other) { hist_.Merge(other.hist_); }

 private:
  LatencyHistogram hist_;
};

// The instruments of one simulated node. Lookups are by name; returned
// pointers stay valid for the registry's lifetime (node-local maps never
// erase), which is what lets callers cache them. Creation is serialized
// by a per-node mutex so concurrent host threads may resolve instruments
// lazily; the steady-state path (mutating a cached pointer) takes no lock.
class NodeMetrics {
 public:
  NodeMetrics(uint32_t id, std::string name)
      : id_(id), name_(std::move(name)) {}

  // Movable (Merged() returns by value); the mutex is not state, so the
  // moved-to object simply gets a fresh one. Move only quiescent objects.
  NodeMetrics(NodeMetrics&& other) noexcept
      : id_(other.id_),
        name_(std::move(other.name_)),
        counters_(std::move(other.counters_)),
        gauges_(std::move(other.gauges_)),
        timers_(std::move(other.timers_)) {}

  [[nodiscard]] uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] Counter& GetCounter(std::string_view name);
  [[nodiscard]] Gauge& GetGauge(std::string_view name);
  [[nodiscard]] Timer& GetTimer(std::string_view name);

  // Adds every instrument of `other` into this node's same-named
  // instruments (counters/timers sum; gauges sum values, max high-waters).
  void MergeFrom(const NodeMetrics& other);

  // Appends this node's instruments as one JSON object (no trailing
  // newline). Deterministic: maps iterate in name order.
  void AppendJson(std::string& out) const;

 private:
  template <typename T>
  using InstrumentMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  uint32_t id_;
  std::string name_;
  mutable std::mutex mu_;  // guards map insertion only, never the values
  InstrumentMap<Counter> counters_;
  InstrumentMap<Gauge> gauges_;
  InstrumentMap<Timer> timers_;
};

// All nodes of one cluster. ForNode() creates on first use, so layers can
// record against nodes the registry has not seen yet; creation is
// mutex-guarded so several host threads may do so concurrently. Returned
// references never move (node entries never erase).
class MetricsRegistry {
 public:
  [[nodiscard]] NodeMetrics& ForNode(uint32_t id, std::string_view name = {});

  // Cluster-wide merge of every node's instruments.
  [[nodiscard]] NodeMetrics Merged() const;

  // Full snapshot: {"nodes": [...], "cluster": {...}}.
  [[nodiscard]] std::string DumpJson() const;

  [[nodiscard]] size_t node_count() const noexcept { return nodes_.size(); }

 private:
  mutable std::mutex mu_;  // guards node-map insertion only
  std::map<uint32_t, std::unique_ptr<NodeMetrics>> nodes_;
};

// Appends `s` to `out` as a JSON string literal (quotes + escapes).
void AppendJsonString(std::string& out, std::string_view s);

}  // namespace rstore::obs
