// Per-server admission control for the client dataplane.
//
// RStore memory servers are deliberately passive — the data path is
// one-sided, no server CPU runs per IO — so "the server is overloaded"
// manifests purely as queueing: NIC egress queues, QP send queues, and
// ballooning in-flight windows. Admission is therefore enforced where
// the decision can be made, at the client dataplane, per *target*
// server: each engine caps the operations it keeps in flight against
// each memory server (the window), queues arrivals beyond the window in
// FIFO order (deferral — queue-depth backpressure), and sheds outright
// once the deferral queue itself is full. Shedding is what keeps the
// tail of *completed* operations bounded past the saturation knee: the
// alternative is an unbounded queue whose waiting time — measured from
// intended send time, as it must be — diverges.
//
// One controller per engine keeps the state engine-local (engines on
// different client nodes never share memory); the cluster-wide in-flight
// bound is then window_per_server x engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace rstore::load {

enum class Admit : uint8_t {
  kAdmit,  // start now; caller must Release() when the op ends
  kDefer,  // parked in the server's FIFO; re-admitted by a Release()
  kShed,   // rejected outright (deferral queue full)
};

struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t deferred = 0;
  uint64_t shed = 0;
  uint32_t inflight_high_water = 0;  // max in-flight on any one server
  uint32_t deferred_high_water = 0;  // max depth of any one defer queue
};

class AdmissionController {
 public:
  // `enabled` = false turns the controller into a pass-through that still
  // tracks in-flight counts and high-water marks (the "without admission"
  // arm of E13 reports them).
  AdmissionController(uint32_t servers, bool enabled,
                      uint32_t window_per_server, uint32_t max_deferred);

  // Asks to start an op against `server`. On kDefer the (session) tag is
  // parked and will come back out of Release() in FIFO order.
  Admit TryAdmit(uint32_t server, uint32_t session_tag);

  // Ends an admitted op. If a deferred session becomes admitted by the
  // freed slot, returns its tag (already accounted in flight); the caller
  // must start that op now. Returns -1 otherwise.
  int64_t Release(uint32_t server);

  [[nodiscard]] uint32_t inflight(uint32_t server) const {
    return inflight_.at(server);
  }
  [[nodiscard]] size_t deferred(uint32_t server) const {
    return queues_.at(server).size();
  }
  [[nodiscard]] bool idle() const noexcept { return total_inflight_ == 0; }
  [[nodiscard]] const AdmissionStats& stats() const noexcept {
    return stats_;
  }

 private:
  const bool enabled_;
  const uint32_t window_;
  const uint32_t max_deferred_;
  std::vector<uint32_t> inflight_;          // admitted ops per server
  std::vector<std::deque<uint32_t>> queues_;  // deferred session tags
  uint64_t total_inflight_ = 0;
  AdmissionStats stats_;
};

}  // namespace rstore::load
