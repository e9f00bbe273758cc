#include "sim/fabric.h"

#include <algorithm>
#include <utility>

#include "explore/policy.h"
#include "obs/trace.h"
#include "sim/cost_model.h"

namespace rstore::sim {

namespace {
// Stamps of the message whose on_delivered callback is executing on this
// host thread (partitioned deliveries run concurrently, so the record is
// per-thread). Null outside a delivery callback. Delivery callbacks run in
// scheduler context and never block or resume a SimThread, so no fiber
// ever runs — or parks — while this is set, and SimThreads need no copy
// of their own.
thread_local const DeliveryStamps* g_current_delivery = nullptr;
}  // namespace

const DeliveryStamps* Fabric::CurrentDelivery() noexcept {
  return g_current_delivery;
}

Fabric::Fabric(Simulation& sim, NicConfig config)
    : sim_(sim), config_(config) {
  pools_.emplace_back();
  if (sim_.partitioned()) {
    // The fabric is the cross-partition channel: its base propagation
    // delay bounds how soon one node's work can affect another, which is
    // the epoch lookahead of the partitioned scheduler.
    sim_.ProposeLookahead(ConservativeLookahead(config_));
    sim_.AtPartitionedRunStart([this] { PrepareForPartitionedRun(); });
  }
}

void Fabric::PrepareForPartitionedRun() {
  // Pre-size every shared container and pre-resolve telemetry
  // instruments so the parallel phase mutates nothing but per-port state
  // owned by the dispatching partition (egress on the source port,
  // ingress on the destination port) and atomic counters.
  const auto n = static_cast<uint32_t>(sim_.node_count());
  if (n > 0) (void)port(n - 1);
  for (uint32_t i = 0; i < n; ++i) {
    PortState& p = ports_[i];
    if (p.egress_by_dst.size() < n) p.egress_by_dst.resize(n);
    if (p.last_first_bit_by_dst.size() < n) p.last_first_bit_by_dst.resize(n);
    EnsureObs(i, p);
  }
  while (pools_.size() < sim_.node_count() + 1) pools_.emplace_back();
}

Fabric::PortState& Fabric::port(uint32_t node) {
  if (node >= ports_.size()) ports_.resize(node + 1);
  return ports_[node];
}

void Fabric::EnsureObs(uint32_t node, PortState& p) {
  obs::Telemetry* tel = sim_.telemetry();
  if (tel == p.obs_owner) return;
  p.obs_owner = tel;
  if (tel == nullptr) {
    p.obs_bytes_out = p.obs_msgs_out = p.obs_bytes_in = nullptr;
    p.obs_queue_ns = p.obs_ser_ns = p.obs_wire_ns = p.obs_rr_rounds = nullptr;
    p.obs_egress_depth = nullptr;
    return;
  }
  obs::NodeMetrics& m =
      tel->metrics().ForNode(node, node < sim_.node_count()
                                       ? sim_.node(node).name()
                                       : std::string_view{});
  p.obs_bytes_out = &m.GetCounter("fabric.bytes_out");
  p.obs_msgs_out = &m.GetCounter("fabric.msgs_out");
  p.obs_bytes_in = &m.GetCounter("fabric.bytes_in");
  p.obs_queue_ns = &m.GetCounter("fabric.queue_ns");
  p.obs_ser_ns = &m.GetCounter("fabric.serialization_ns");
  p.obs_wire_ns = &m.GetCounter("fabric.wire_ns");
  p.obs_rr_rounds = &m.GetCounter("fabric.rr_rounds");
  p.obs_egress_depth = &m.GetGauge("fabric.egress_depth");
}

Fabric::Message* Fabric::AcquireMessage() {
  MsgPool& pool = pools_[sim_.CurrentPartitionIndex()];
  if (pool.free.empty()) {
    pool.arena.emplace_back();
    return &pool.arena.back();
  }
  Message* msg = pool.free.back();
  pool.free.pop_back();
  return msg;
}

void Fabric::ReleaseMessage(Message* msg) {
  msg->on_delivered.Reset();
  msg->on_dropped.Reset();
  pools_[sim_.CurrentPartitionIndex()].free.push_back(msg);
}

void Fabric::SetLinkDown(uint32_t a, uint32_t b, bool down) {
  if (down) {
    down_links_.insert(LinkKey(a, b));
  } else {
    down_links_.erase(LinkKey(a, b));
  }
}

bool Fabric::LinkUp(uint32_t a, uint32_t b) const {
  return !down_links_.contains(LinkKey(a, b));
}

uint64_t Fabric::total_bytes() const noexcept {
  // Every accepted Send increments exactly one port's bytes_out, so the
  // sum is the historical cumulative counter (and needs no shared
  // accumulator under concurrent partitions).
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

  PortState& sp = port(src);
  sp.bytes_out += payload_bytes;
  sp.messages_out += 1;
  if (!sim_.partitioned()) {
    PortState& dp = port(dst);
    dp.bytes_in += payload_bytes;
    EnsureObs(src, sp);
    if (sp.obs_bytes_out != nullptr) {
      sp.obs_bytes_out->Inc(payload_bytes);
      sp.obs_msgs_out->Inc();
      EnsureObs(dst, dp);
      dp.obs_bytes_in->Inc(payload_bytes);
    }
  } else {
    // Partitioned: the caller runs in src's partition, so only src-port
    // state may be touched here; dst ingress accounting happens in
    // ApplyIngress on dst's partition. Instruments were pre-resolved by
    // the run-start hook (counters are atomic).
    if (sp.obs_bytes_out != nullptr) {
      sp.obs_bytes_out->Inc(payload_bytes);
      sp.obs_msgs_out->Inc();
    }
    if (src == dst) {
      sp.bytes_in += payload_bytes;
      if (sp.obs_bytes_in != nullptr) sp.obs_bytes_in->Inc(payload_bytes);
    }
  }

  if (src == dst) {
    // Node-local loopback: bypasses the port model entirely.
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
  if (p.obs_rr_rounds != nullptr && p.obs_owner == sim_.telemetry()) {
    p.obs_rr_rounds->Inc();
    p.obs_queue_ns->Inc(static_cast<uint64_t>(now - msg->sent_at));
    p.obs_ser_ns->Inc(static_cast<uint64_t>(msg->wire_time));
    p.obs_egress_depth->Set(static_cast<int64_t>(p.egress_backlog));
  }

  // First bit reaches the destination base_latency after transmission
  // starts (cut-through: ingress service overlaps egress transmission);
  // the ingress port then serves messages back to back in first-bit
  // order, which the reservation timestamp reproduces directly.
  //
  // Fault injection (kFabricDelay): an exploration policy may add bounded
  // extra propagation latency per message. Because the destination's
  // ingress reservation (`ingress_free_at`) is monotone and reservations
  // happen in pump order, a delayed message can push *later* arrivals at
  // that port back but never overtake an earlier reservation — so RC-QP
  // same-path FIFO delivery is preserved under any injected delay.
  Nanos extra = 0;
  if (explore::SchedulePolicy* pol = sim_.policy(); pol != nullptr) {
    extra = pol->FabricDelayNs();
  }
  // The ingress reservation belongs to the destination: the message is
  // handed over at its first-bit instant (in partitioned mode the post is
  // at least one lookahead — base_latency — ahead of this partition's
  // clock, so it is never clamped), staged, and reserved by the
  // end-of-instant drain in (src, tx_seq) order. The per-(src,dst) clamp
  // keeps first bits strictly increasing per path even when a policy
  // injects unequal per-message delays, so the first-bit sort preserves
  // RC same-path FIFO delivery.
  auto& last = p.last_first_bit_by_dst;
  if (msg->dst >= last.size()) last.resize(msg->dst + 1);
  Nanos first_bit = now + config_.base_latency + extra;
  if (first_bit <= last[msg->dst]) first_bit = last[msg->dst] + 1;
  last[msg->dst] = first_bit;
  msg->first_bit = first_bit;
  msg->tx_seq = p.tx_seq++;
  if (!sim_.partitioned()) {
    sim_.At(first_bit, [this, msg] { ApplyIngress(msg); });
  } else {
    sim_.PostToNode(msg->dst, first_bit, [this, msg] { ApplyIngress(msg); });
  }

  if (p.egress_backlog > 0) SchedulePump(node, p.egress_free_at);
}

void Fabric::ApplyIngress(Message* msg) {
  // Runs on the destination's partition at the first-bit arrival instant.
  // Arrivals that share the instant are staged and reserved together by
  // DrainIngress: the drain event is posted *during* the instant, so it
  // sorts behind every same-instant arrival under both schedulers (the
  // legacy queue and the partitioned merge both order equal-time events
  // by post order), and the stage then holds the complete tie set.
  PortState& q = port(msg->dst);
  if (sim_.partitioned()) {
    q.bytes_in += msg->payload_bytes;
    if (q.obs_bytes_in != nullptr) q.obs_bytes_in->Inc(msg->payload_bytes);
  }
  if (q.ingress_stage.empty()) {
    const uint32_t node = msg->dst;
    sim_.At(sim_.NowNanos(), [this, node] { DrainIngress(node); });
  }
  q.ingress_stage.push_back(msg);
}

void Fabric::DrainIngress(uint32_t node) {
  // End-of-instant ingress arbitration: serve this instant's arrivals in
  // (src, tx_seq) order — a pure function of the arrival set, so tied
  // first bits resolve identically under any scheduler.
  PortState& q = port(node);
  if (q.ingress_stage.size() > 1) {
    std::sort(q.ingress_stage.begin(), q.ingress_stage.end(),
              [](const Message* a, const Message* b) {
                return a->src != b->src ? a->src < b->src
                                        : a->tx_seq < b->tx_seq;
              });
  }
  for (Message* msg : q.ingress_stage) {
    const Nanos service_start = std::max(msg->first_bit, q.ingress_free_at);
    q.ingress_free_at = service_start + msg->wire_time;
    sim_.At(q.ingress_free_at, [this, msg] { Deliver(msg); });
  }
  q.ingress_stage.clear();
}

void Fabric::Deliver(Message* msg) {
  // Move the callback out and recycle the message *before* invoking it:
  // delivery handlers routinely send nested messages (read responses),
  // which can then reuse the slot.
  if (sim_.node(msg->dst).alive() && LinkUp(msg->src, msg->dst)) {
    obs::Telemetry* tel = sim_.telemetry();
    if (tel != nullptr) {
      const Nanos now = sim_.NowNanos();
      // Propagation plus any ingress-port wait: everything between the
      // end of egress queueing/serialization and delivery.
      const Nanos wire = now - msg->tx_start - msg->wire_time;
      PortState& sp = port(msg->src);
      // Partitioned: sp belongs to another partition — read-only access
      // to the pre-resolved instrument pointer plus an atomic Inc is
      // safe; lazy resolution (a write) is not, so it is legacy-only.
      if (!sim_.partitioned()) EnsureObs(msg->src, sp);
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
    // completion on the initiator), so in partitioned mode it is routed
    // back to the source's partition.
    const Nanos detect = msg->sent_at + config_.drop_detect_latency;
    const Nanos at = std::max(detect, sim_.NowNanos());
    if (sim_.partitioned() && !sim_.InContextOfNode(msg->src)) {
      sim_.PostToNode(msg->src, at,
                      [cb = std::move(msg->on_dropped)]() mutable { cb(); });
    } else {
      sim_.At(at, std::move(msg->on_dropped));
    }
    ReleaseMessage(msg);
  } else {
    ReleaseMessage(msg);
  }
}

}  // namespace rstore::sim
