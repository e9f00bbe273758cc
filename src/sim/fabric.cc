#include "sim/fabric.h"

#include <algorithm>
#include <utility>

#include "explore/policy.h"
#include "obs/trace.h"
#include "sim/cost_model.h"

namespace rstore::sim {

namespace {
// Stamps of the message whose on_delivered callback is executing. Null
// outside a delivery callback. Delivery callbacks run in scheduler context
// and never block or resume a SimThread, so no fiber ever runs — or parks
// — while this is set, and SimThreads need no copy of their own.
// Thread-local so simulations driven from different host threads do not
// share it.
thread_local const DeliveryStamps* g_current_delivery = nullptr;
}  // namespace

const DeliveryStamps* Fabric::CurrentDelivery() noexcept {
  return g_current_delivery;
}

Fabric::Fabric(Simulation& sim, NicConfig config)
    : sim_(sim), config_(config) {}

Fabric::PortState& Fabric::port(uint32_t node) {
  if (node >= ports_.size()) ports_.resize(node + 1);
  return ports_[node];
}

void Fabric::ResolveObs() {
  obs::Telemetry* tel = sim_.telemetry();
  const size_t n = sim_.node_count();
  if (tel == obs_owner_ && n == obs_nodes_) return;
  obs_owner_ = tel;
  obs_nodes_ = n;
  for (uint32_t node = 0; node < ports_.size() || node < n; ++node) {
    PortState& p = port(node);
    if (tel == nullptr) {
      p.obs_bytes_out = p.obs_msgs_out = p.obs_bytes_in = nullptr;
      p.obs_queue_ns = p.obs_ser_ns = p.obs_wire_ns = p.obs_rr_rounds =
          nullptr;
      p.obs_egress_depth = nullptr;
      continue;
    }
    obs::NodeMetrics& m = tel->metrics().ForNode(
        node, node < n ? sim_.node(node).name() : std::string_view{});
    p.obs_bytes_out = &m.GetCounter("fabric.bytes_out");
    p.obs_msgs_out = &m.GetCounter("fabric.msgs_out");
    p.obs_bytes_in = &m.GetCounter("fabric.bytes_in");
    p.obs_queue_ns = &m.GetCounter("fabric.queue_ns");
    p.obs_ser_ns = &m.GetCounter("fabric.serialization_ns");
    p.obs_wire_ns = &m.GetCounter("fabric.wire_ns");
    p.obs_rr_rounds = &m.GetCounter("fabric.rr_rounds");
    p.obs_egress_depth = &m.GetGauge("fabric.egress_depth");
  }
}

Fabric::Message* Fabric::AcquireMessage() {
  if (msg_free_.empty()) return &msg_arena_.emplace_back();
  Message* msg = msg_free_.back();
  msg_free_.pop_back();
  return msg;
}

void Fabric::ReleaseMessage(Message* msg) {
  msg->on_delivered.Reset();
  msg->on_dropped.Reset();
  msg_free_.push_back(msg);
}

void Fabric::SetLinkDown(uint32_t a, uint32_t b, bool down) {
  if (down) {
    down_links_.insert(LinkKey(a, b));
  } else {
    down_links_.erase(LinkKey(a, b));
  }
}

bool Fabric::LinkUp(uint32_t a, uint32_t b) const {
  // Send and delivery both ask, once per message each; skip the hash
  // unless some link is actually down.
  return down_links_.empty() || !down_links_.contains(LinkKey(a, b));
}

uint64_t Fabric::total_bytes() const noexcept {
  // Every accepted Send increments exactly one port's bytes_out, so the
  // sum is the cumulative counter.
  uint64_t n = 0;
  for (const auto& p : ports_) n += p.bytes_out;
  return n;
}

uint64_t Fabric::bytes_out(uint32_t node) const {
  return node < ports_.size() ? ports_[node].bytes_out : 0;
}
uint64_t Fabric::bytes_in(uint32_t node) const {
  return node < ports_.size() ? ports_[node].bytes_in : 0;
}
uint64_t Fabric::messages_out(uint32_t node) const {
  return node < ports_.size() ? ports_[node].messages_out : 0;
}

void Fabric::Send(uint32_t src, uint32_t dst, uint64_t payload_bytes,
                  FabricFn on_delivered, FabricFn on_dropped) {
  const Nanos now = sim_.NowNanos();

  const bool path_up = LinkUp(src, dst) && sim_.node(src).alive() &&
                       sim_.node(dst).alive();
  if (!path_up) {
    if (on_dropped) {
      sim_.At(now + config_.drop_detect_latency, std::move(on_dropped));
    }
    return;
  }

  // dst ingress is counted in Deliver, when the message is handed over.
  ResolveObs();
  PortState& sp = port(src);
  sp.bytes_out += payload_bytes;
  sp.messages_out += 1;
  if (sp.obs_bytes_out != nullptr) {
    sp.obs_bytes_out->Inc(payload_bytes);
    sp.obs_msgs_out->Inc();
  }

  if (src == dst) {
    // Node-local loopback: bypasses the port model entirely.
    sp.bytes_in += payload_bytes;
    if (sp.obs_bytes_in != nullptr) sp.obs_bytes_in->Inc(payload_bytes);
    sim_.At(now + config_.loopback_latency, std::move(on_delivered));
    return;
  }

  const uint64_t wire_bytes = payload_bytes + config_.header_overhead_bytes;
  const Nanos wire_time = TransferTime(wire_bytes, config_.bandwidth_bps);

  Message* msg = AcquireMessage();
  msg->src = src;
  msg->dst = dst;
  msg->payload_bytes = payload_bytes;
  msg->wire_time = wire_time;
  msg->service_time = std::max(wire_time, config_.per_message_gap);
  msg->on_delivered = std::move(on_delivered);
  msg->on_dropped = std::move(on_dropped);
  msg->sent_at = now;
  msg->tx_start = now;

  if (dst >= sp.egress_by_dst.size()) sp.egress_by_dst.resize(dst + 1);
  sp.egress_by_dst[dst].push_back(msg);
  sp.egress_backlog += 1;
  if (sp.obs_egress_depth != nullptr) {
    sp.obs_egress_depth->Set(static_cast<int64_t>(sp.egress_backlog));
  }
  PumpEgress(src);
}

void Fabric::SchedulePump(uint32_t node, Nanos at) {
  port(node).pump_scheduled = true;
  sim_.At(at, [this, node] {
    port(node).pump_scheduled = false;
    PumpEgress(node);
  });
}

void Fabric::PumpEgress(uint32_t node) {
  ResolveObs();
  PortState& p = port(node);
  if (p.pump_scheduled || p.egress_backlog == 0) return;
  const Nanos now = sim_.NowNanos();
  if (now < p.egress_free_at) {
    // Port mid-transmission and no pump pending (the previous pump saw an
    // empty backlog): revive the done-event for the waiting message.
    SchedulePump(node, p.egress_free_at);
    return;
  }

  // Round-robin over destinations with queued traffic, starting after the
  // last destination served. The scan over destination ids reproduces the
  // old ordered-map iteration (deterministic, key order) at vector-index
  // cost.
  const auto n = static_cast<uint32_t>(p.egress_by_dst.size());
  uint32_t dst = n;  // invalid
  if (explore::SchedulePolicy* pol = sim_.policy(); pol != nullptr) {
    // Explorable arbitration (kEgressArbitration): collect every
    // destination with queued traffic in baseline scan order; pick 0 is
    // the baseline round-robin winner, so the baseline policy reproduces
    // the un-explored arbitration exactly.
    auto& cands = egress_cand_scratch_;
    cands.clear();
    for (uint32_t step = 1; step <= n; ++step) {
      const uint32_t cand = (p.rr_cursor + step) % n;
      if (!p.egress_by_dst[cand].empty()) cands.push_back(cand);
    }
    if (cands.empty()) return;
    dst = cands.size() > 1
              ? cands[pol->PickEgressDst(
                    cands.data(), static_cast<uint32_t>(cands.size()))]
              : cands[0];
  } else {
    for (uint32_t step = 1; step <= n; ++step) {
      const uint32_t cand = (p.rr_cursor + step) % n;
      if (!p.egress_by_dst[cand].empty()) {
        dst = cand;
        break;
      }
    }
    if (dst == n) return;  // nothing queued (backlog said otherwise; safety)
  }

  Message* msg = p.egress_by_dst[dst].front();
  p.egress_by_dst[dst].pop_front();
  p.egress_backlog -= 1;
  p.rr_cursor = dst;
  p.egress_free_at = now + msg->service_time;
  msg->tx_start = now;
  if (p.obs_rr_rounds != nullptr) {
    p.obs_rr_rounds->Inc();
    p.obs_queue_ns->Inc(static_cast<uint64_t>(now - msg->sent_at));
    p.obs_ser_ns->Inc(static_cast<uint64_t>(msg->wire_time));
    p.obs_egress_depth->Set(static_cast<int64_t>(p.egress_backlog));
  }

  // First bit reaches the destination base_latency after transmission
  // starts (cut-through: ingress service overlaps egress transmission).
  // Pumps run in nondecreasing virtual time, so this pump is the latest
  // first bit yet at the destination: it reserves the ingress port now,
  // which then serves messages back to back in first-bit order.
  msg->first_bit = now + config_.base_latency;
  PortState& q = port(dst);  // may grow ports_: `p` is looked up again
  q.ingress_free_at =
      std::max(msg->first_bit, q.ingress_free_at) + msg->wire_time;
  Nanos deliver_at = q.ingress_free_at;
  // Fault injection (kFabricDelay): an exploration policy may add bounded
  // extra latency per message. It is added after the reservation, so a
  // delayed message holds back no other source's messages at the port and
  // can be overtaken by them. The per-(src,dst) clamp keeps deliveries on
  // one path strictly increasing, which preserves RC same-path FIFO
  // delivery under any injected delay.
  if (explore::SchedulePolicy* pol = sim_.policy(); pol != nullptr) {
    deliver_at += pol->FabricDelayNs();
  }
  PortState& sp = port(node);
  auto& last = sp.last_delivery_by_dst;
  if (dst >= last.size()) last.resize(dst + 1);
  if (deliver_at <= last[dst]) deliver_at = last[dst] + 1;
  last[dst] = deliver_at;
  sim_.At(deliver_at, [this, msg] { Deliver(msg); });

  if (sp.egress_backlog > 0) SchedulePump(node, sp.egress_free_at);
}

void Fabric::Deliver(Message* msg) {
  // Move the callback out and recycle the message *before* invoking it:
  // delivery handlers routinely send nested messages (read responses),
  // which can then reuse the slot.
  if (sim_.node(msg->dst).alive() && LinkUp(msg->src, msg->dst)) {
    ResolveObs();
    PortState& q = port(msg->dst);
    q.bytes_in += msg->payload_bytes;
    if (q.obs_bytes_in != nullptr) q.obs_bytes_in->Inc(msg->payload_bytes);
    obs::Telemetry* tel = sim_.telemetry();
    if (tel != nullptr) {
      const Nanos now = sim_.NowNanos();
      // Propagation plus any ingress-port wait: everything between the
      // end of egress queueing/serialization and delivery.
      const Nanos wire = now - msg->tx_start - msg->wire_time;
      PortState& sp = port(msg->src);
      if (sp.obs_wire_ns != nullptr) {
        sp.obs_wire_ns->Inc(static_cast<uint64_t>(wire));
      }
      if (tel->tracing()) {
        std::vector<obs::TraceArg> args;
        args.push_back({"dst", true, static_cast<double>(msg->dst), {}});
        args.push_back(
            {"bytes", true, static_cast<double>(msg->payload_bytes), {}});
        args.push_back({"queue_ns", true,
                        static_cast<double>(msg->tx_start - msg->sent_at),
                        {}});
        args.push_back({"serialization_ns", true,
                        static_cast<double>(msg->wire_time), {}});
        args.push_back({"wire_ns", true, static_cast<double>(wire), {}});
        tel->tracer().RecordSpan(msg->src, 0, "fabric", "fabric.msg",
                                 static_cast<uint64_t>(msg->sent_at),
                                 static_cast<uint64_t>(now), std::move(args));
      }
    }
    // Expose the message's wire stamps to the callback (rtrace reads them
    // into the op's breakdown); the previous value is restored so nested
    // deliveries cannot leak stamps into an outer frame. Observation only
    // — nothing here reads the stamps to make a scheduling decision.
    const DeliveryStamps stamps{msg->sent_at, msg->tx_start, msg->first_bit};
    FabricFn cb = std::move(msg->on_delivered);
    ReleaseMessage(msg);
    const DeliveryStamps* prev = g_current_delivery;
    g_current_delivery = &stamps;
    cb();
    g_current_delivery = prev;
  } else if (msg->on_dropped) {
    // The destination died (or the link partitioned) in flight. The drop
    // callback belongs to the sender (verbs maps it to a retry-exceeded
    // completion on the initiator), which detects the loss one detection
    // delay after sending.
    const Nanos detect = msg->sent_at + config_.drop_detect_latency;
    sim_.At(std::max(detect, sim_.NowNanos()), std::move(msg->on_dropped));
    ReleaseMessage(msg);
  } else {
    ReleaseMessage(msg);
  }
}

}  // namespace rstore::sim
