// Fabric: the modelled RDMA interconnect.
//
// Model: every node owns one full-duplex NIC port attached to a
// non-blocking switch (the common single-switch testbed topology of the
// paper). Ports are event-driven queueing stations:
//
//   egress   per-destination queues served round-robin at message
//            granularity — the QP arbitration real HCAs perform, which
//            keeps concurrent flows fair instead of convoying;
//   ingress  FIFO in first-bit arrival order.
//
// A message of B payload bytes occupies each port for
// wire_time(B) = (B + header_overhead) * 8 / bandwidth, and its first bit
// reaches the destination base_latency after transmission starts. Every
// first bit is therefore known when the source port starts sending, and
// sources start sending in nondecreasing virtual time: the source port
// reserves the destination's ingress right then, so a message costs one
// scheduler event (its delivery). This reproduces the first-order
// behaviours the paper's evaluation rests on:
//   * uncontended latency = base_latency + size/bandwidth   (E1),
//   * per-port saturation and fair sharing under fan-in/out (E3, E6),
//   * cut-through pipelining of back-to-back transfers.
//
// Failure injection: links can be partitioned and nodes die; affected
// messages invoke the drop callback after a detection delay, which the
// verbs layer maps to retry-exhausted work completions, just like an RC
// QP on a real HCA.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/small_fn.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace rstore::obs {
class Counter;
class Gauge;
class Telemetry;
}  // namespace rstore::obs

namespace rstore::sim {

// Delivery/drop callbacks on fabric messages. 64 bytes of inline capture
// covers the verbs layer's {network, pooled wire-op} pointers plus a few
// scalars — including the RC ack's wire-stamp record — without heap
// allocation.
using FabricFn = common::SmallFn<void(), 64>;

// Stamps of the message whose on_delivered callback is currently running
// (see Fabric::CurrentDelivery). Pure observation for tracing layers:
// reading them cannot affect the timeline.
struct DeliveryStamps {
  Nanos sent_at = 0;    // Send() call instant
  Nanos tx_start = 0;   // egress transmission start
  Nanos first_bit = 0;  // first-bit arrival at the destination port
};

struct NicConfig {
  // Per-port full-duplex bandwidth. Default 58.8 Gb/s: the paper's
  // aggregate 705 Gb/s over 12 machines (705/12 ≈ 58.75) — effectively an
  // FDR 4x port plus encoding headroom.
  double bandwidth_bps = 58.8e9;
  // One-way base latency (propagation + switch + NIC processing); the
  // paper reports "close-to-hardware" latency against verbs on FDR,
  // ~1.3 us one-way for small messages.
  Nanos base_latency = Micros(1.3);
  // Wire overhead added to every message (transport headers, CRCs).
  uint64_t header_overhead_bytes = 42;
  // Minimum spacing between message starts on one port; caps the small-
  // message rate (~150 M msg/s, in the range of modern HCAs).
  Nanos per_message_gap = 6;
  // Latency of node-local loopback transfers (bypasses the port model).
  Nanos loopback_latency = 300;
  // How long a sender takes to declare a message lost (RC retry budget).
  Nanos drop_detect_latency = Millis(4);
};

class Fabric {
 public:
  Fabric(Simulation& sim, NicConfig config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Models one message. `on_delivered` runs in scheduler context at the
  // delivery instant; `on_dropped` (optional) runs if the path is down or
  // the destination is dead. Exactly one of the two callbacks fires.
  void Send(uint32_t src, uint32_t dst, uint64_t payload_bytes,
            FabricFn on_delivered, FabricFn on_dropped = {});

  // Partitions (or heals) the bidirectional link between a and b.
  void SetLinkDown(uint32_t a, uint32_t b, bool down);
  [[nodiscard]] bool LinkUp(uint32_t a, uint32_t b) const;

  [[nodiscard]] const NicConfig& config() const noexcept { return config_; }
  [[nodiscard]] Simulation& sim() noexcept { return sim_; }

  // Stamps of the message being delivered, valid only for the duration of
  // an on_delivered callback (nullptr elsewhere — notably for loopback
  // sends, which bypass the port model and carry no stamps).
  [[nodiscard]] static const DeliveryStamps* CurrentDelivery() noexcept;

  // Cumulative statistics, for tests and bandwidth accounting. A message
  // counts in bytes_out when it is sent and in bytes_in when it is
  // delivered to a live destination over an up link, so one dropped in
  // flight is only in bytes_out.
  [[nodiscard]] uint64_t bytes_out(uint32_t node) const;
  [[nodiscard]] uint64_t bytes_in(uint32_t node) const;
  [[nodiscard]] uint64_t messages_out(uint32_t node) const;
  [[nodiscard]] uint64_t total_bytes() const noexcept;

 private:
  // Messages are pooled: acquired on Send, released after delivery/drop.
  // The event-queue callbacks then capture only {fabric, message*}, which
  // fits every layer's inline callback storage — the steady-state data
  // path performs no heap allocation in the fabric.
  struct Message {
    uint32_t src;
    uint32_t dst;
    uint64_t payload_bytes;
    Nanos wire_time;
    Nanos service_time;  // max(wire_time, per_message_gap)
    FabricFn on_delivered;
    FabricFn on_dropped;
    Nanos sent_at;
    Nanos tx_start;   // egress transmission start (set by PumpEgress)
    Nanos first_bit;  // arrival of the first bit at dst
  };

  struct PortState {
    // Egress: one queue per destination, served round-robin in
    // destination-id order (the QP arbitration real HCAs perform). The
    // queues are a flat vector indexed by destination node id — node ids
    // are small and dense — so serving a message is an index plus a short
    // scan instead of ordered-map traversal.
    std::vector<std::deque<Message*>> egress_by_dst;
    uint32_t rr_cursor = 0;  // last destination served (exclusive start)
    uint64_t egress_backlog = 0;  // queued messages across all dsts
    // The port is transmitting until this instant. Busy/done bookkeeping
    // is a timestamp, not an event: a "transmission finished" event is
    // scheduled only when another message is actually waiting, so an
    // uncontended message costs a single scheduler event end to end.
    Nanos egress_free_at = 0;
    bool pump_scheduled = false;  // a pump event exists at egress_free_at
    // Ingress service is likewise a reservation timestamp, taken by the
    // source's pump: pumps run in nondecreasing virtual time and a first
    // bit trails its pump by base_latency, so pump order is first-bit
    // order. Pumps at one instant run in the scheduler's FIFO order.
    Nanos ingress_free_at = 0;
    // Last delivery instant scheduled towards each destination. Injected
    // per-message delays (kFabricDelay) are clamped so deliveries per
    // (src,dst) pair stay strictly increasing, which preserves RC
    // same-path FIFO delivery; without a delay the clamp never fires.
    std::vector<Nanos> last_delivery_by_dst;

    uint64_t bytes_out = 0;
    uint64_t bytes_in = 0;
    uint64_t messages_out = 0;

    // Telemetry instruments, resolved against the simulation's attached
    // obs::Telemetry by ResolveObs (null while detached — recording is
    // then a single pointer test).
    obs::Counter* obs_bytes_out = nullptr;
    obs::Counter* obs_msgs_out = nullptr;
    obs::Counter* obs_bytes_in = nullptr;
    obs::Counter* obs_queue_ns = nullptr;
    obs::Counter* obs_ser_ns = nullptr;
    obs::Counter* obs_wire_ns = nullptr;
    obs::Counter* obs_rr_rounds = nullptr;
    obs::Gauge* obs_egress_depth = nullptr;
  };

  PortState& port(uint32_t node);
  // Resolves every node's port instruments against the attached
  // telemetry, unless they already are: called wherever the fabric
  // records, so an attach, a detach or a new node between runs is seen
  // before the next recording.
  void ResolveObs();
  Message* AcquireMessage();
  void ReleaseMessage(Message* msg);
  void PumpEgress(uint32_t node);
  void SchedulePump(uint32_t node, Nanos at);
  void Deliver(Message* msg);
  [[nodiscard]] static uint64_t LinkKey(uint32_t a, uint32_t b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  Simulation& sim_;
  NicConfig config_;
  // deque: grows without invalidating references (delivery callbacks can
  // trigger nested Sends that add ports).
  std::deque<PortState> ports_;
  std::unordered_set<uint64_t> down_links_;
  // What ResolveObs last resolved against, and for how many nodes.
  obs::Telemetry* obs_owner_ = nullptr;
  size_t obs_nodes_ = 0;

  // Message pool: stable storage plus a freelist.
  std::deque<Message> msg_arena_;
  std::vector<Message*> msg_free_;

  // Pooled scratch for the explorable egress arbitration in PumpEgress.
  std::vector<uint32_t> egress_cand_scratch_;
};

}  // namespace rstore::sim
