// Tests for the fabric model: latency/bandwidth arithmetic, port
// contention (fan-in and fan-out saturation), pipelining, loopback,
// partitions and node death, and where an injected fabric delay lands.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/policy.h"
#include "sim/fabric.h"
#include "sim/simulation.h"

namespace rstore::sim {
namespace {

struct FabricFixture : ::testing::Test {
  FabricFixture() : fabric(sim, NicConfig{}) {
    for (int i = 0; i < 13; ++i) sim.AddNode("n" + std::to_string(i));
  }
  Simulation sim;
  Fabric fabric;
};

TEST_F(FabricFixture, UncontendedLatencyIsBasePlusWire) {
  const NicConfig& cfg = fabric.config();
  Nanos delivered_at = kNever;
  const uint64_t payload = 4096;
  fabric.Send(0, 1, payload, [&] { delivered_at = sim.NowNanos(); });
  sim.Run();
  const Nanos expect =
      cfg.base_latency +
      TransferTime(payload + cfg.header_overhead_bytes, cfg.bandwidth_bps);
  EXPECT_EQ(delivered_at, expect);
}

TEST_F(FabricFixture, SmallMessageLatencyIsDominatedByBaseLatency) {
  Nanos delivered_at = kNever;
  fabric.Send(0, 1, 8, [&] { delivered_at = sim.NowNanos(); });
  sim.Run();
  EXPECT_GE(delivered_at, fabric.config().base_latency);
  EXPECT_LT(delivered_at, fabric.config().base_latency + Nanos(100));
}

TEST_F(FabricFixture, BackToBackTransfersPipeline) {
  // N messages from one source to one destination: total time ≈
  // latency + N * wire_time, not N * (latency + wire_time).
  const int kMessages = 16;
  const uint64_t kSize = 1 << 20;
  int delivered = 0;
  Nanos last = 0;
  for (int i = 0; i < kMessages; ++i) {
    fabric.Send(0, 1, kSize, [&] {
      ++delivered;
      last = sim.NowNanos();
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, kMessages);
  const NicConfig& cfg = fabric.config();
  const Nanos wire =
      TransferTime(kSize + cfg.header_overhead_bytes, cfg.bandwidth_bps);
  EXPECT_NEAR(static_cast<double>(last),
              static_cast<double>(cfg.base_latency + kMessages * wire),
              static_cast<double>(wire));
}

TEST_F(FabricFixture, FanInSaturatesDestinationPort) {
  // 4 senders each push 64 MiB to node 0 simultaneously: the receiving
  // port is the bottleneck, so finish time ≈ total_bytes / bandwidth.
  const uint64_t kSize = 64ULL << 20;
  int delivered = 0;
  Nanos last = 0;
  for (uint32_t src = 1; src <= 4; ++src) {
    fabric.Send(src, 0, kSize, [&] {
      ++delivered;
      last = sim.NowNanos();
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, 4);
  const double expected_s =
      static_cast<double>(4 * kSize * 8) / fabric.config().bandwidth_bps;
  EXPECT_NEAR(ToSeconds(last), expected_s, expected_s * 0.02);
}

TEST_F(FabricFixture, FanOutSaturatesSourcePort) {
  const uint64_t kSize = 64ULL << 20;
  int delivered = 0;
  Nanos last = 0;
  for (uint32_t dst = 1; dst <= 4; ++dst) {
    fabric.Send(0, dst, kSize, [&] {
      ++delivered;
      last = sim.NowNanos();
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, 4);
  const double expected_s =
      static_cast<double>(4 * kSize * 8) / fabric.config().bandwidth_bps;
  EXPECT_NEAR(ToSeconds(last), expected_s, expected_s * 0.02);
}

TEST_F(FabricFixture, DisjointPairsDoNotContend) {
  // 0->1 and 2->3 share no port: both must complete in single-transfer
  // time.
  const uint64_t kSize = 64ULL << 20;
  Nanos done[2] = {0, 0};
  fabric.Send(0, 1, kSize, [&] { done[0] = sim.NowNanos(); });
  fabric.Send(2, 3, kSize, [&] { done[1] = sim.NowNanos(); });
  sim.Run();
  ASSERT_NE(done[0], 0u);
  EXPECT_EQ(done[0], done[1]);
  const double single_s =
      static_cast<double>(kSize * 8) / fabric.config().bandwidth_bps;
  EXPECT_NEAR(ToSeconds(done[0]), single_s, single_s * 0.05);
}

TEST_F(FabricFixture, AggregateBandwidthScalesWithNodeCount) {
  // Ring traffic i -> (i+1): aggregate delivered bandwidth grows linearly
  // with the number of participating nodes. This is the mechanism behind
  // experiment E3 (705 Gb/s on 12 machines).
  auto run_ring = [&](uint32_t nodes) {
    Simulation s;
    for (uint32_t i = 0; i < nodes; ++i) s.AddNode("m");
    Fabric f(s, NicConfig{});
    const uint64_t kSize = 256ULL << 20;
    std::vector<Nanos> done(nodes, 0);
    for (uint32_t i = 0; i < nodes; ++i) {
      const uint32_t dst = (i + 1) % nodes;
      f.Send(i, dst, kSize, [&done, &s, dst] { done[dst] = s.NowNanos(); });
    }
    s.Run();
    const Nanos last = *std::max_element(done.begin(), done.end());
    return static_cast<double>(nodes * kSize * 8) / ToSeconds(last);
  };
  const double bw4 = run_ring(4);
  const double bw12 = run_ring(12);
  EXPECT_NEAR(bw12 / bw4, 3.0, 0.1);
  EXPECT_NEAR(bw12, 12 * fabric.config().bandwidth_bps,
              0.05 * 12 * fabric.config().bandwidth_bps);
}

TEST_F(FabricFixture, LoopbackBypassesPortModel) {
  Nanos delivered_at = kNever;
  fabric.Send(5, 5, 1 << 20, [&] { delivered_at = sim.NowNanos(); });
  sim.Run();
  EXPECT_EQ(delivered_at, fabric.config().loopback_latency);
}

TEST_F(FabricFixture, PerMessageGapCapsMessageRate) {
  // Zero-byte messages still cannot exceed 1/per_message_gap rate.
  const int kMessages = 1000;
  Nanos last = 0;
  int delivered = 0;
  for (int i = 0; i < kMessages; ++i) {
    fabric.Send(0, 1, 0, [&] {
      ++delivered;
      last = sim.NowNanos();
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, kMessages);
  EXPECT_GE(last, (kMessages - 1) * fabric.config().per_message_gap);
}

TEST_F(FabricFixture, PartitionDropsWithDetectionDelay) {
  fabric.SetLinkDown(0, 1, true);
  EXPECT_FALSE(fabric.LinkUp(0, 1));
  EXPECT_FALSE(fabric.LinkUp(1, 0));  // bidirectional
  bool delivered = false;
  Nanos dropped_at = 0;
  fabric.Send(0, 1, 64, [&] { delivered = true; },
              [&] { dropped_at = sim.NowNanos(); });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(dropped_at, fabric.config().drop_detect_latency);
}

TEST_F(FabricFixture, HealedLinkDeliversAgain) {
  // A link taken down drops, and delivers again once healed — both while
  // another link is still down and after the last one heals (when no
  // link is down, LinkUp skips its lookup).
  int delivered = 0;
  int dropped = 0;
  auto send = [&] {
    fabric.Send(0, 1, 64, [&] { ++delivered; }, [&] { ++dropped; });
    sim.Run();
  };
  fabric.SetLinkDown(0, 1, true);
  fabric.SetLinkDown(2, 3, true);
  send();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(delivered, 0);
  fabric.SetLinkDown(1, 0, false);  // healing is bidirectional too
  EXPECT_TRUE(fabric.LinkUp(0, 1));
  EXPECT_FALSE(fabric.LinkUp(3, 2));
  send();
  EXPECT_EQ(delivered, 1);
  fabric.SetLinkDown(2, 3, false);
  fabric.SetLinkDown(0, 1, true);
  send();
  EXPECT_EQ(dropped, 2);
  fabric.SetLinkDown(0, 1, false);
  EXPECT_TRUE(fabric.LinkUp(2, 3));
  send();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(dropped, 2);
}

TEST_F(FabricFixture, SendToDeadNodeDrops) {
  sim.KillNode(3);
  bool delivered = false;
  bool dropped = false;
  sim.Run();  // let the kill sweep run
  fabric.Send(0, 3, 64, [&] { delivered = true; }, [&] { dropped = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
}

TEST_F(FabricFixture, DeathMidFlightDropsAtDelivery) {
  // Node dies while a long transfer is in flight: sender gets the drop
  // callback, not the delivery.
  const uint64_t kSize = 64ULL << 20;  // ~91 ms wire time
  bool delivered = false;
  bool dropped = false;
  fabric.Send(0, 1, kSize, [&] { delivered = true; }, [&] { dropped = true; });
  sim.After(Millis(1), [&] { sim.KillNode(1); });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
}

TEST_F(FabricFixture, EgressRoundRobinInterleavesDestinations) {
  // One source with deep backlogs to two destinations: the egress pump
  // must alternate between them rather than draining one queue first.
  const int kPerDst = 8;
  const uint64_t kSize = 1 << 20;
  std::vector<uint32_t> order;
  for (int i = 0; i < kPerDst; ++i) {
    fabric.Send(0, 1, kSize, [&] { order.push_back(1); });
    fabric.Send(0, 2, kSize, [&] { order.push_back(2); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(2 * kPerDst));
  for (size_t i = 0; i + 1 < order.size(); i += 2) {
    EXPECT_NE(order[i], order[i + 1]) << "burst to one destination at " << i;
  }
}

TEST_F(FabricFixture, LateFlowIsNotStarvedByDeepBacklog) {
  // A message to a fresh destination queued behind a 16-deep backlog to
  // another destination must go out after at most one in-progress
  // transfer plus its own slot — not after the whole backlog.
  const uint64_t kSize = 1 << 20;
  const NicConfig& cfg = fabric.config();
  const Nanos wire =
      TransferTime(kSize + cfg.header_overhead_bytes, cfg.bandwidth_bps);
  for (int i = 0; i < 16; ++i) fabric.Send(0, 1, kSize, [] {});
  Nanos late_at = kNever;
  fabric.Send(0, 2, kSize, [&] { late_at = sim.NowNanos(); });
  sim.Run();
  EXPECT_LT(late_at, cfg.base_latency + 3 * wire);
}

TEST_F(FabricFixture, ConcurrentFlowsAccountBytesPerPort) {
  // Cross traffic among three nodes: per-port byte counters must add up
  // exactly, independent of egress scheduling order.
  const uint64_t kA = 3 << 20, kB = 1 << 20, kC = 512 << 10;
  int delivered = 0;
  fabric.Send(0, 1, kA, [&] { ++delivered; });
  fabric.Send(0, 2, kB, [&] { ++delivered; });
  fabric.Send(1, 2, kC, [&] { ++delivered; });
  fabric.Send(2, 0, kB, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(fabric.bytes_out(0), kA + kB);
  EXPECT_EQ(fabric.bytes_out(1), kC);
  EXPECT_EQ(fabric.bytes_out(2), kB);
  EXPECT_EQ(fabric.bytes_in(0), kB);
  EXPECT_EQ(fabric.bytes_in(1), kA);
  EXPECT_EQ(fabric.bytes_in(2), kB + kC);
  EXPECT_EQ(fabric.messages_out(0), 2u);
  EXPECT_EQ(fabric.total_bytes(), kA + 2 * kB + kC);
}

TEST_F(FabricFixture, StatisticsAccumulate) {
  fabric.Send(0, 1, 100, [] {});
  fabric.Send(0, 2, 200, [] {});
  fabric.Send(1, 0, 50, [] {});
  sim.Run();
  EXPECT_EQ(fabric.bytes_out(0), 300u);
  EXPECT_EQ(fabric.bytes_in(0), 50u);
  EXPECT_EQ(fabric.bytes_in(1), 100u);
  EXPECT_EQ(fabric.messages_out(0), 2u);
  EXPECT_EQ(fabric.total_bytes(), 350u);
}

TEST(FabricAccountingTest, DroppedInFlightCountsOutButNotIn) {
  // Ingress bytes count when a message is delivered to a live destination
  // over an up link: a message whose link is cut, or whose destination
  // dies, before its delivery is only the sender's — even when its first
  // bit had already reached the destination port.
  Simulation sim;
  Fabric fabric(sim, NicConfig{});
  for (int i = 0; i < 5; ++i) sim.AddNode("n" + std::to_string(i));
  const uint64_t kCut = 4096, kKilled = 8192, kDelivered = 100;
  const uint64_t kCutLate = 1 << 20;  // ~143 us on the wire
  int delivered = 0;
  int dropped = 0;
  for (const auto& [dst, bytes] : {std::pair{1u, kCut}, {2u, kKilled},
                                   {3u, kDelivered}, {4u, kCutLate}}) {
    fabric.Send(0, dst, bytes, [&] { ++delivered; }, [&] { ++dropped; });
  }
  // No first bit has landed yet: it takes base_latency.
  sim.RunUntil(fabric.config().base_latency / 2);
  fabric.SetLinkDown(0, 1, true);
  sim.KillNode(2);
  // Every first bit has landed (the last left after three small
  // messages); the large message is still arriving.
  sim.RunUntil(fabric.config().base_latency + Micros(20));
  fabric.SetLinkDown(0, 4, true);
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(dropped, 3);
  EXPECT_EQ(fabric.bytes_out(0), kCut + kKilled + kDelivered + kCutLate);
  EXPECT_EQ(fabric.bytes_in(1), 0u);
  EXPECT_EQ(fabric.bytes_in(2), 0u);
  EXPECT_EQ(fabric.bytes_in(3), kDelivered);
  EXPECT_EQ(fabric.bytes_in(4), 0u);
}

// Delays the first message it is asked about by `delay_ns`; every other
// decision takes the baseline.
class DelayFirstMessage final : public explore::SchedulePolicy {
 public:
  explicit DelayFirstMessage(uint64_t delay_ns) : delay_ns_(delay_ns) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "delay-first";
  }

 protected:
  uint64_t Choose(uint64_t /*ordinal*/, explore::DecisionKind kind,
                  const uint32_t* /*lanes*/, uint64_t /*n*/) override {
    if (kind != explore::DecisionKind::kFabricDelay || delayed_) return 0;
    delayed_ = true;
    return delay_ns_;
  }

 private:
  uint64_t delay_ns_;
  bool delayed_ = false;
};

TEST(FabricDelayTest, DelayedMessageIsOvertakenByALaterSource) {
  // An injected delay lands after the ingress reservation: the delayed
  // message holds the destination port for its wire time only, so a
  // later message from another source overtakes it and is served as if
  // nothing were delayed.
  DelayFirstMessage policy(Micros(20));
  Simulation sim;
  sim.AttachPolicy(&policy);
  Fabric fabric(sim, NicConfig{});
  for (int i = 0; i < 3; ++i) sim.AddNode("n" + std::to_string(i));
  const NicConfig& cfg = fabric.config();
  const uint64_t kBytes = 4096;
  const Nanos wire =
      TransferTime(kBytes + cfg.header_overhead_bytes, cfg.bandwidth_bps);
  std::vector<std::pair<uint32_t, Nanos>> order;  // (src, delivered at)
  fabric.Send(0, 2, kBytes, [&] { order.emplace_back(0, sim.NowNanos()); });
  sim.At(100, [&] {
    fabric.Send(1, 2, kBytes, [&] { order.emplace_back(1, sim.NowNanos()); });
  });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 1u);
  EXPECT_EQ(order[0].second,
            std::max<Nanos>(100 + cfg.base_latency, cfg.base_latency + wire) +
                wire);
  EXPECT_EQ(order[1].first, 0u);
  EXPECT_EQ(order[1].second, cfg.base_latency + wire + Micros(20));
}

}  // namespace
}  // namespace rstore::sim
