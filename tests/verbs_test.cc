// Tests for the rverbs layer: memory registration and key checks, RC
// queue-pair data path (SEND/RECV, RDMA READ/WRITE, WRITE_WITH_IMM,
// atomics), completion ordering, error semantics (access violations, RNR,
// retry-exceeded, flush), and connection management.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "check/check.h"
#include "sim/simulation.h"
#include "verbs/verbs.h"

namespace rstore::verbs {
namespace {

using sim::Micros;
using sim::Millis;
using sim::Nanos;
using sim::Seconds;

// Spins up two nodes with devices and a connected QP pair. Server-side
// resources are owned by the fixture for inspection.
class VerbsFixture : public ::testing::Test {
 protected:
  static constexpr uint32_t kService = 7;

  VerbsFixture() : net(sim) {
    client_node = &sim.AddNode("client");
    server_node = &sim.AddNode("server");
    client_dev = &net.AddDevice(*client_node);
    server_dev = &net.AddDevice(*server_node);
  }

  // Runs `client_fn` on the client against an echo-less server that just
  // accepts one connection and exposes its QP via `server_qp`.
  void RunPair(std::function<void(QueuePair&)> client_fn,
               std::function<void(QueuePair&)> server_fn = {}) {
    net.Listen(*server_dev, kService);
    server_node->Spawn("server", [this] {
      auto qp = net.Listen(*server_dev, kService).Accept();
      ASSERT_TRUE(qp.ok());
      server_qp = *qp;
      server_ready = true;
      if (server_fn_) server_fn_(**qp);
    });
    client_node->Spawn("client", [this, client_fn] {
      auto qp = net.Connect(*client_dev, server_node->id(), kService);
      ASSERT_TRUE(qp.ok()) << qp.status();
      client_qp = *qp;
      client_fn(**qp);
    });
    server_fn_ = std::move(server_fn);
    sim.Run();
  }

  // Like RunPair with `n` client QPs to the same server, which only
  // accepts them.
  void RunQps(size_t n, std::function<void(std::vector<QueuePair*>&)> fn) {
    net.Listen(*server_dev, kService);
    server_node->Spawn("server", [this, n] {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(net.Listen(*server_dev, kService).Accept().ok());
      }
    });
    client_node->Spawn("client", [this, n, fn] {
      std::vector<QueuePair*> qps;
      qps.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        auto qp = net.Connect(*client_dev, server_node->id(), kService);
        ASSERT_TRUE(qp.ok()) << qp.status();
        qps.push_back(*qp);
      }
      fn(qps);
    });
    sim.Run();
  }

  // Registers a fresh buffer of `n` bytes on `dev` with `access`, using a
  // lazily created per-device PD.
  MemoryRegion* Register(Device* dev, std::vector<std::byte>& buf, size_t n,
                         uint32_t access) {
    buf.resize(n);
    auto it = pds_.find(dev);
    if (it == pds_.end()) it = pds_.emplace(dev, &dev->CreatePd()).first;
    auto mr = it->second->RegisterMemory(buf.data(), buf.size(), access);
    EXPECT_TRUE(mr.ok()) << mr.status();
    return *mr;
  }

  std::unordered_map<Device*, ProtectionDomain*> pds_;
  sim::Simulation sim;
  Network net;
  sim::Node* client_node = nullptr;
  sim::Node* server_node = nullptr;
  Device* client_dev = nullptr;
  Device* server_dev = nullptr;
  QueuePair* client_qp = nullptr;
  QueuePair* server_qp = nullptr;
  bool server_ready = false;
  std::function<void(QueuePair&)> server_fn_;
};

// --------------------------------------------------------- registration --
TEST_F(VerbsFixture, RegisterAndLookupMemory) {
  std::vector<std::byte> buf(4096);
  ProtectionDomain& pd = client_dev->CreatePd();
  auto mr = pd.RegisterMemory(buf.data(), buf.size(),
                              kLocalWrite | kRemoteRead | kRemoteWrite);
  ASSERT_TRUE(mr.ok());
  EXPECT_NE((*mr)->lkey(), (*mr)->rkey());
  EXPECT_EQ(client_dev->FindMrByRkey((*mr)->rkey()), *mr);
  EXPECT_EQ(client_dev->FindMrByLkey((*mr)->lkey()), *mr);
  EXPECT_TRUE((*mr)->Covers((*mr)->remote_addr(), 4096));
  EXPECT_TRUE((*mr)->Covers((*mr)->remote_addr() + 4095, 1));
  EXPECT_FALSE((*mr)->Covers((*mr)->remote_addr() + 4096, 1));
  EXPECT_FALSE((*mr)->Covers((*mr)->remote_addr(), 4097));
  EXPECT_FALSE((*mr)->Covers((*mr)->remote_addr() - 1, 1));
}

TEST_F(VerbsFixture, RegisterRejectsEmpty) {
  ProtectionDomain& pd = client_dev->CreatePd();
  EXPECT_EQ(pd.RegisterMemory(nullptr, 100, 0).code(),
            ErrorCode::kInvalidArgument);
  std::byte b;
  EXPECT_EQ(pd.RegisterMemory(&b, 0, 0).code(), ErrorCode::kInvalidArgument);
}

TEST_F(VerbsFixture, DeregisterRemovesKeys) {
  std::vector<std::byte> buf(64);
  ProtectionDomain& pd = client_dev->CreatePd();
  MemoryRegion* mr =
      *pd.RegisterMemory(buf.data(), buf.size(), kRemoteRead);
  const uint32_t rkey = mr->rkey();
  EXPECT_TRUE(pd.DeregisterMemory(mr).ok());
  EXPECT_EQ(client_dev->FindMrByRkey(rkey), nullptr);
  EXPECT_EQ(pd.DeregisterMemory(mr).code(), ErrorCode::kNotFound);
}

// --------------------------------------------------------------- connect --
TEST_F(VerbsFixture, ConnectEstablishesRtsPair) {
  RunPair([this](QueuePair& qp) {
    EXPECT_EQ(qp.state(), QueuePair::State::kRts);
    EXPECT_EQ(qp.peer_node(), server_node->id());
  });
  ASSERT_NE(server_qp, nullptr);
  EXPECT_EQ(server_qp->state(), QueuePair::State::kRts);
  EXPECT_EQ(server_qp->peer_node(), client_node->id());
  EXPECT_EQ(server_qp->peer_qp_num(), client_qp->qp_num());
}

TEST_F(VerbsFixture, ConnectToNonListeningServiceFails) {
  bool done = false;
  client_node->Spawn("client", [&] {
    auto qp = net.Connect(*client_dev, server_node->id(), 999);
    EXPECT_FALSE(qp.ok());
    EXPECT_EQ(qp.code(), ErrorCode::kUnavailable);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(VerbsFixture, ConnectToDeadNodeFails) {
  sim.KillNode(server_node->id());
  bool done = false;
  client_node->Spawn("client", [&] {
    auto qp = net.Connect(*client_dev, server_node->id(), kService);
    EXPECT_FALSE(qp.ok());
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(VerbsFixture, AcceptTimesOutWithoutClient) {
  net.Listen(*server_dev, kService);
  bool done = false;
  server_node->Spawn("server", [&] {
    auto qp = net.Listen(*server_dev, kService).Accept(Millis(1));
    EXPECT_EQ(qp.code(), ErrorCode::kTimedOut);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(VerbsFixture, ConnectionSetupIsControlPathExpensive) {
  // The separation argument: connect costs dwarf a small IO. Measure one
  // connect from inside the simulation.
  Nanos connect_time = 0;
  RunPair([&](QueuePair&) {});
  // RunPair already connected; redo with timing.
  sim::Simulation sim2;
  Network net2(sim2);
  auto& c = sim2.AddNode("c");
  auto& s = sim2.AddNode("s");
  auto& cd = net2.AddDevice(c);
  auto& sd = net2.AddDevice(s);
  net2.Listen(sd, 1);
  s.Spawn("srv", [&] { (void)net2.Listen(sd, 1).Accept(); });
  c.Spawn("cli", [&] {
    const Nanos t0 = sim::Now();
    auto qp = net2.Connect(cd, s.id(), 1);
    ASSERT_TRUE(qp.ok());
    connect_time = sim::Now() - t0;
  });
  sim2.Run();
  // >= 2 QP programming costs + 1.5 RTT of CM messages.
  EXPECT_GT(connect_time, 2 * net2.qp_setup_cost());
  EXPECT_GT(connect_time, Micros(80));
}

// ------------------------------------------------------------ send/recv --
TEST_F(VerbsFixture, SendRecvMovesBytesAndImmediate) {
  std::vector<std::byte> src, dst;
  RunPair(
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(client_dev, src, 256, kLocalWrite);
        std::memset(src.data(), 0xAB, src.size());
        ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                       .opcode = Opcode::kSend,
                                       .local = {src.data(), 256, mr->lkey()},
                                       .imm = 0xFEEDu})
                        .ok());
        auto wc = qp.send_cq().WaitOne();
        ASSERT_TRUE(wc.ok());
        EXPECT_EQ(wc->wr_id, 1u);
        EXPECT_TRUE(wc->ok());
      },
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(server_dev, dst, 512, kLocalWrite);
        ASSERT_TRUE(
            qp.PostRecv(RecvWr{.wr_id = 2, .local = {dst.data(), 512,
                                                     mr->lkey()}})
                .ok());
        auto wc = qp.recv_cq().WaitOne();
        ASSERT_TRUE(wc.ok());
        EXPECT_EQ(wc->wr_id, 2u);
        EXPECT_EQ(wc->byte_len, 256u);
        ASSERT_TRUE(wc->imm.has_value());
        EXPECT_EQ(*wc->imm, 0xFEEDu);
        EXPECT_EQ(wc->src_node, client_node->id());
        EXPECT_EQ(std::to_integer<int>(dst[0]), 0xAB);
        EXPECT_EQ(std::to_integer<int>(dst[255]), 0xAB);
      });
}

// A parked SEND keeps the bytes it arrived with: the NIC read them into
// its RNR entry, so the initiator rewriting its buffer afterwards (or the
// next SEND from it) does not change what the receiver gets once it
// posts.
TEST_F(VerbsFixture, SendBeforeRecvParksInRnrBufferThenDelivers) {
  std::vector<std::byte> src, dst;
  RunPair(
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
        for (const auto& [wr_id, fill] : {std::pair(1, 0x5A), {2, 0xC3}}) {
          std::memset(src.data(), fill, src.size());
          ASSERT_TRUE(
              qp.PostSend(SendWr{.wr_id = static_cast<uint64_t>(wr_id),
                                 .opcode = Opcode::kSend,
                                 .local = {src.data(), 64, mr->lkey()}})
                  .ok());
          // Long enough for the SEND to arrive and park in RNR.
          sim::Sleep(Millis(1));
        }
        std::memset(src.data(), 0xEE, src.size());
        for (int i = 0; i < 2; ++i) {
          auto wc = qp.send_cq().WaitOne();
          EXPECT_TRUE(wc.ok() && wc->ok());
        }
      },
      [&](QueuePair& qp) {
        // Post the receives well after both sends arrived.
        sim::Sleep(Millis(5));
        MemoryRegion* mr = Register(server_dev, dst, 128, kLocalWrite);
        for (uint64_t i = 0; i < 2; ++i) {
          ASSERT_TRUE(qp.PostRecv(RecvWr{.wr_id = 9 + i,
                                         .local = {dst.data() + 64 * i, 64,
                                                   mr->lkey()}})
                          .ok());
        }
        for (int i = 0; i < 2; ++i) {
          auto wc = qp.recv_cq().WaitOne();
          ASSERT_TRUE(wc.ok());
          EXPECT_TRUE(wc->ok());
          EXPECT_EQ(wc->byte_len, 64u);
        }
        for (size_t i = 0; i < dst.size(); ++i) {
          EXPECT_EQ(std::to_integer<int>(dst[i]), i < 64 ? 0x5A : 0xC3)
              << "byte " << i;
        }
      });
}

TEST_F(VerbsFixture, RecvBufferTooSmallErrorsBothSides) {
  std::vector<std::byte> src, dst;
  RunPair(
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(client_dev, src, 128, kLocalWrite);
        ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                       .opcode = Opcode::kSend,
                                       .local = {src.data(), 128, mr->lkey()}})
                        .ok());
        auto wc = qp.send_cq().WaitOne();
        ASSERT_TRUE(wc.ok());
        EXPECT_EQ(wc->status, WcStatus::kRemOpErr);
      },
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(server_dev, dst, 32, kLocalWrite);
        ASSERT_TRUE(
            qp.PostRecv(RecvWr{.wr_id = 2, .local = {dst.data(), 32,
                                                     mr->lkey()}})
                .ok());
        auto wc = qp.recv_cq().WaitOne();
        ASSERT_TRUE(wc.ok());
        EXPECT_EQ(wc->status, WcStatus::kLocalProtErr);
      });
}

// ------------------------------------------------------------ rdma write --
TEST_F(VerbsFixture, RdmaWritePlacesBytesWithoutServerCpu) {
  std::vector<std::byte> src, dst;
  MemoryRegion* dst_mr = Register(server_dev, dst, 4096,
                                  kLocalWrite | kRemoteWrite | kRemoteRead);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* src_mr = Register(client_dev, src, 4096, kLocalWrite);
    for (size_t i = 0; i < src.size(); ++i) src[i] = std::byte(i & 0xFF);
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 3,
                           .opcode = Opcode::kRdmaWrite,
                           .local = {src.data(), 4096, src_mr->lkey()},
                           .remote_addr = dst_mr->remote_addr() + 0,
                           .rkey = dst_mr->rkey()})
            .ok());
    auto wc = qp.send_cq().WaitOne();
    ASSERT_TRUE(wc.ok());
    EXPECT_TRUE(wc->ok());
    EXPECT_EQ(wc->byte_len, 4096u);
  });
  // Server thread did nothing after accept; data must still be there.
  EXPECT_TRUE(std::memcmp(src.data(), dst.data(), 4096) == 0);
}

TEST_F(VerbsFixture, RdmaWriteAtOffset) {
  std::vector<std::byte> src, dst;
  MemoryRegion* dst_mr =
      Register(server_dev, dst, 1024, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* src_mr = Register(client_dev, src, 16, kLocalWrite);
    std::memset(src.data(), 0x5A, 16);
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 1,
                           .opcode = Opcode::kRdmaWrite,
                           .local = {src.data(), 16, src_mr->lkey()},
                           .remote_addr = dst_mr->remote_addr() + 100,
                           .rkey = dst_mr->rkey()})
            .ok());
    EXPECT_TRUE(qp.send_cq().WaitOne()->ok());
  });
  EXPECT_EQ(std::to_integer<int>(dst[99]), 0);
  EXPECT_EQ(std::to_integer<int>(dst[100]), 0x5A);
  EXPECT_EQ(std::to_integer<int>(dst[115]), 0x5A);
  EXPECT_EQ(std::to_integer<int>(dst[116]), 0);
}

TEST_F(VerbsFixture, RdmaWriteWithImmConsumesRecvAndCarriesImm) {
  std::vector<std::byte> src, dst, rbuf;
  MemoryRegion* dst_mr =
      Register(server_dev, dst, 64, kLocalWrite | kRemoteWrite);
  RunPair(
      [&](QueuePair& qp) {
        MemoryRegion* src_mr = Register(client_dev, src, 64, kLocalWrite);
        ASSERT_TRUE(
            qp.PostSend(SendWr{.wr_id = 1,
                               .opcode = Opcode::kRdmaWriteWithImm,
                               .local = {src.data(), 64, src_mr->lkey()},
                               .remote_addr = dst_mr->remote_addr(),
                               .rkey = dst_mr->rkey(),
                               .imm = 42u})
                .ok());
        EXPECT_TRUE(qp.send_cq().WaitOne()->ok());
      },
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(server_dev, rbuf, 8, kLocalWrite);
        ASSERT_TRUE(
            qp.PostRecv(RecvWr{.wr_id = 7, .local = {rbuf.data(), 8,
                                                     mr->lkey()}})
                .ok());
        auto wc = qp.recv_cq().WaitOne();
        ASSERT_TRUE(wc.ok());
        EXPECT_TRUE(wc->ok());
        EXPECT_EQ(wc->opcode, Opcode::kRdmaWriteWithImm);
        ASSERT_TRUE(wc->imm.has_value());
        EXPECT_EQ(*wc->imm, 42u);
        EXPECT_EQ(wc->byte_len, 64u);
      });
}

TEST_F(VerbsFixture, RdmaWriteBadRkeyErrorsAndKillsQp) {
  std::vector<std::byte> src;
  RunPair([&](QueuePair& qp) {
    MemoryRegion* src_mr = Register(client_dev, src, 16, kLocalWrite);
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 16, src_mr->lkey()},
                                   .remote_addr = 0xDEAD000,
                                   .rkey = 0xBEEF})
                    .ok());
    auto wc = qp.send_cq().WaitOne();
    ASSERT_TRUE(wc.ok());
    EXPECT_EQ(wc->status, WcStatus::kRemAccessErr);
    EXPECT_EQ(qp.state(), QueuePair::State::kError);
    // Subsequent posts are refused.
    EXPECT_EQ(qp.PostSend(SendWr{.wr_id = 2,
                                 .opcode = Opcode::kRdmaWrite,
                                 .local = {src.data(), 16, src_mr->lkey()}})
                  .code(),
              ErrorCode::kUnavailable);
  });
}

TEST_F(VerbsFixture, RdmaWriteOutOfBoundsErrors) {
  std::vector<std::byte> src, dst;
  MemoryRegion* dst_mr =
      Register(server_dev, dst, 64, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* src_mr = Register(client_dev, src, 128, kLocalWrite);
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 1,
                           .opcode = Opcode::kRdmaWrite,
                           .local = {src.data(), 128, src_mr->lkey()},
                           .remote_addr = dst_mr->remote_addr(),  // 128 > 64
                           .rkey = dst_mr->rkey()})
            .ok());
    EXPECT_EQ(qp.send_cq().WaitOne()->status, WcStatus::kRemAccessErr);
  });
}

TEST_F(VerbsFixture, RdmaWriteWithoutRemoteWriteAccessErrors) {
  std::vector<std::byte> src, dst;
  MemoryRegion* dst_mr =
      Register(server_dev, dst, 64, kLocalWrite | kRemoteRead);  // no write
  RunPair([&](QueuePair& qp) {
    MemoryRegion* src_mr = Register(client_dev, src, 16, kLocalWrite);
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 16, src_mr->lkey()},
                                   .remote_addr = dst_mr->remote_addr(),
                                   .rkey = dst_mr->rkey()})
                    .ok());
    EXPECT_EQ(qp.send_cq().WaitOne()->status, WcStatus::kRemAccessErr);
  });
}

// ------------------------------------------------------------- rdma read --
TEST_F(VerbsFixture, RdmaReadFetchesRemoteBytes) {
  std::vector<std::byte> dst, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 4096, kLocalWrite | kRemoteRead);
  for (size_t i = 0; i < remote.size(); ++i) remote[i] = std::byte(i % 251);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* dst_mr = Register(client_dev, dst, 4096, kLocalWrite);
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 4,
                           .opcode = Opcode::kRdmaRead,
                           .local = {dst.data(), 4096, dst_mr->lkey()},
                           .remote_addr = rem_mr->remote_addr(),
                           .rkey = rem_mr->rkey()})
            .ok());
    auto wc = qp.send_cq().WaitOne();
    ASSERT_TRUE(wc.ok());
    EXPECT_TRUE(wc->ok());
    EXPECT_EQ(wc->byte_len, 4096u);
    EXPECT_TRUE(std::memcmp(dst.data(), remote.data(), 4096) == 0);
  });
}

TEST_F(VerbsFixture, RdmaReadWithoutRemoteReadAccessErrors) {
  std::vector<std::byte> dst, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 64, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* dst_mr = Register(client_dev, dst, 64, kLocalWrite);
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaRead,
                                   .local = {dst.data(), 64, dst_mr->lkey()},
                                   .remote_addr = rem_mr->remote_addr(),
                                   .rkey = rem_mr->rkey()})
                    .ok());
    EXPECT_EQ(qp.send_cq().WaitOne()->status, WcStatus::kRemAccessErr);
  });
}

TEST_F(VerbsFixture, RdmaReadLatencyIsOneRoundTripPlusPayload) {
  std::vector<std::byte> dst, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 1 << 20, kLocalWrite | kRemoteRead);
  Nanos latency = 0;
  RunPair([&](QueuePair& qp) {
    MemoryRegion* dst_mr = Register(client_dev, dst, 1 << 20, kLocalWrite);
    const Nanos t0 = sim::Now();
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 1,
                           .opcode = Opcode::kRdmaRead,
                           .local = {dst.data(), 1 << 20, dst_mr->lkey()},
                           .remote_addr = rem_mr->remote_addr(),
                           .rkey = rem_mr->rkey()})
            .ok());
    ASSERT_TRUE(qp.send_cq().WaitOne()->ok());
    latency = sim::Now() - t0;
  });
  const auto& nic = net.fabric().config();
  const Nanos expected = net.cpu_model().verbs_post_ns +
                         2 * nic.base_latency +
                         sim::TransferTime((1 << 20), nic.bandwidth_bps);
  EXPECT_NEAR(static_cast<double>(latency), static_cast<double>(expected),
              static_cast<double>(expected) * 0.05);
}

// --------------------------------------------------------------- atomics --
TEST_F(VerbsFixture, FetchAddAccumulatesAtomically) {
  std::vector<std::byte> result, remote;
  MemoryRegion* rem_mr = Register(server_dev, remote, 8,
                                  kLocalWrite | kRemoteAtomic | kRemoteRead);
  uint64_t init = 100;
  std::memcpy(remote.data(), &init, 8);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* res_mr = Register(client_dev, result, 8, kLocalWrite);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          qp.PostSend(SendWr{.wr_id = static_cast<uint64_t>(i),
                             .opcode = Opcode::kFetchAdd,
                             .local = {result.data(), 8, res_mr->lkey()},
                             .remote_addr = rem_mr->remote_addr(),
                             .rkey = rem_mr->rkey(),
                             .swap_or_add = 10})
              .ok());
      auto wc = qp.send_cq().WaitOne();
      ASSERT_TRUE(wc.ok() && wc->ok());
      uint64_t old = 0;
      std::memcpy(&old, result.data(), 8);
      EXPECT_EQ(old, 100u + 10u * static_cast<uint64_t>(i));
    }
  });
  uint64_t final_val = 0;
  std::memcpy(&final_val, remote.data(), 8);
  EXPECT_EQ(final_val, 130u);
}

TEST_F(VerbsFixture, CompareSwapOnlySwapsOnMatch) {
  std::vector<std::byte> result, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 8, kLocalWrite | kRemoteAtomic);
  uint64_t init = 7;
  std::memcpy(remote.data(), &init, 8);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* res_mr = Register(client_dev, result, 8, kLocalWrite);
    auto cas = [&](uint64_t compare, uint64_t swap) {
      EXPECT_TRUE(
          qp.PostSend(SendWr{.wr_id = 1,
                             .opcode = Opcode::kCompareSwap,
                             .local = {result.data(), 8, res_mr->lkey()},
                             .remote_addr = rem_mr->remote_addr(),
                             .rkey = rem_mr->rkey(),
                             .compare = compare,
                             .swap_or_add = swap})
              .ok());
      EXPECT_TRUE(qp.send_cq().WaitOne()->ok());
      uint64_t old = 0;
      std::memcpy(&old, result.data(), 8);
      return old;
    };
    EXPECT_EQ(cas(99, 1), 7u);  // mismatch: returns old, no swap
    EXPECT_EQ(cas(7, 42), 7u);  // match: swaps
    EXPECT_EQ(cas(42, 0), 42u);
  });
}

TEST_F(VerbsFixture, MisalignedAtomicErrors) {
  std::vector<std::byte> result, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 16, kLocalWrite | kRemoteAtomic);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* res_mr = Register(client_dev, result, 8, kLocalWrite);
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 1,
                           .opcode = Opcode::kFetchAdd,
                           .local = {result.data(), 8, res_mr->lkey()},
                           .remote_addr = rem_mr->remote_addr() + 3,
                           .rkey = rem_mr->rkey(),
                           .swap_or_add = 1})
            .ok());
    EXPECT_EQ(qp.send_cq().WaitOne()->status, WcStatus::kRemOpErr);
  });
}

// ------------------------------------------------------- local validation --
TEST_F(VerbsFixture, PostSendRejectsBadLkey) {
  std::vector<std::byte> src(64);
  RunPair([&](QueuePair& qp) {
    EXPECT_EQ(qp.PostSend(SendWr{.wr_id = 1,
                                 .opcode = Opcode::kSend,
                                 .local = {src.data(), 64, /*lkey=*/12345}})
                  .code(),
              ErrorCode::kPermissionDenied);
  });
}

TEST_F(VerbsFixture, PostSendRejectsSgeOutsideMr) {
  std::vector<std::byte> src;
  RunPair([&](QueuePair& qp) {
    MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
    EXPECT_EQ(
        qp.PostSend(SendWr{.wr_id = 1,
                           .opcode = Opcode::kSend,
                           .local = {src.data() + 32, 64, mr->lkey()}})
            .code(),
        ErrorCode::kOutOfRange);
  });
}

TEST_F(VerbsFixture, PostRecvRequiresLocalWrite) {
  std::vector<std::byte> buf;
  RunPair(
      [&](QueuePair&) {},
      [&](QueuePair& qp) {
        MemoryRegion* mr = Register(server_dev, buf, 64, kRemoteRead);
        EXPECT_EQ(qp.PostRecv(RecvWr{.wr_id = 1,
                                     .local = {buf.data(), 64, mr->lkey()}})
                      .code(),
                  ErrorCode::kPermissionDenied);
      });
}

TEST_F(VerbsFixture, PostToUnconnectedQpFails) {
  QueuePair& qp = client_dev->CreateQueuePair();
  std::vector<std::byte> src(8);
  EXPECT_EQ(qp.PostSend(SendWr{.wr_id = 1,
                               .opcode = Opcode::kSend,
                               .local = {}})
                .code(),
            ErrorCode::kUnavailable);
  (void)src;
}

TEST_F(VerbsFixture, SendQueueDepthIsEnforced) {
  std::vector<std::byte> src;
  RunPair([&](QueuePair&) {
    QpConfig cfg;
    cfg.max_send_wr = 2;
    // Fresh pair with tiny SQ against the same server service.
    auto qp2 = net.Connect(*client_dev, server_node->id(), kService, cfg);
    ASSERT_TRUE(qp2.ok());
    MemoryRegion* mr = Register(client_dev, src, 8, kLocalWrite);
    SendWr wr{.wr_id = 1,
              .opcode = Opcode::kRdmaWrite,
              .local = {src.data(), 8, mr->lkey()},
              .remote_addr = 0,
              .rkey = 0};
    // Bad rkey, but validation order posts them; 3rd must bounce.
    EXPECT_TRUE((*qp2)->PostSend(wr).ok());
    EXPECT_TRUE((*qp2)->PostSend(wr).ok());
    EXPECT_EQ((*qp2)->PostSend(wr).code(), ErrorCode::kOutOfMemory);
  });
}

// ------------------------------------------------- ordering & pipelining --
TEST_F(VerbsFixture, CompletionsArriveInPostOrder) {
  // Mix a large read (slow) with small writes (fast): completions must
  // still pop in post order on the same QP.
  std::vector<std::byte> big, small, remote;
  MemoryRegion* rem_mr = Register(server_dev, remote, 8 << 20,
                                  kLocalWrite | kRemoteRead | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* big_mr = Register(client_dev, big, 8 << 20, kLocalWrite);
    MemoryRegion* small_mr = Register(client_dev, small, 8, kLocalWrite);
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 1,
                           .opcode = Opcode::kRdmaRead,
                           .local = {big.data(), 8 << 20, big_mr->lkey()},
                           .remote_addr = rem_mr->remote_addr(),
                           .rkey = rem_mr->rkey()})
            .ok());
    ASSERT_TRUE(
        qp.PostSend(SendWr{.wr_id = 2,
                           .opcode = Opcode::kRdmaWrite,
                           .local = {small.data(), 8, small_mr->lkey()},
                           .remote_addr = rem_mr->remote_addr(),
                           .rkey = rem_mr->rkey()})
            .ok());
    std::vector<uint64_t> order;
    while (order.size() < 2) {
      for (const auto& wc : qp.send_cq().WaitPoll()) {
        EXPECT_TRUE(wc.ok());
        order.push_back(wc.wr_id);
      }
    }
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 2}));
  });
}

TEST_F(VerbsFixture, UnsignaledSuccessProducesNoCompletion) {
  std::vector<std::byte> src, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 64, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 64, mr->lkey()},
                                   .remote_addr = rem_mr->remote_addr(),
                                   .rkey = rem_mr->rkey(),
                                   .signaled = false})
                    .ok());
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 2,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 64, mr->lkey()},
                                   .remote_addr = rem_mr->remote_addr(),
                                   .rkey = rem_mr->rkey(),
                                   .signaled = true})
                    .ok());
    auto wc = qp.send_cq().WaitOne();
    ASSERT_TRUE(wc.ok());
    EXPECT_EQ(wc->wr_id, 2u);  // wr 1 completed silently
    EXPECT_EQ(qp.send_cq().pending(), 0u);
  });
}

TEST_F(VerbsFixture, PipelinedWritesSaturateBandwidth) {
  // 32 x 1 MiB writes: total time ≈ latency + 32 * wire, demonstrating
  // the QP does not stall-and-wait between WRs.
  std::vector<std::byte> src, remote;
  MemoryRegion* rem_mr = Register(server_dev, remote, 1 << 20,
                                  kLocalWrite | kRemoteWrite);
  Nanos elapsed = 0;
  RunPair([&](QueuePair& qp) {
    MemoryRegion* mr = Register(client_dev, src, 1 << 20, kLocalWrite);
    const Nanos t0 = sim::Now();
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          qp.PostSend(SendWr{.wr_id = static_cast<uint64_t>(i),
                             .opcode = Opcode::kRdmaWrite,
                             .local = {src.data(), 1 << 20, mr->lkey()},
                             .remote_addr = rem_mr->remote_addr(),
                             .rkey = rem_mr->rkey(),
                             .signaled = (i == 31)})
              .ok());
    }
    ASSERT_TRUE(qp.send_cq().WaitOne()->ok());
    elapsed = sim::Now() - t0;
  });
  const double gbps =
      static_cast<double>(32ULL << 20) * 8.0 / sim::ToSeconds(elapsed);
  EXPECT_GT(gbps, 0.9 * net.fabric().config().bandwidth_bps);
}

// RC execution order, the contract RKV's slot protocol chains its steps
// on (DESIGN.md, "RC contract"): WRs posted as separate PostSends in one
// flush on one QP execute at the target in post order. A 64 KiB WRITE
// then an 8-byte WRITE over its first word, and a CAS then a READ of the
// swapped cell.
using VerbsRcOrderTest = VerbsFixture;

TEST_F(VerbsRcOrderTest, SeparatePostsOnOneQpExecuteInPostOrder) {
  constexpr uint32_t kBlock = 64 << 10;
  std::vector<std::byte> remote, block, word, cas_old, read_back;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, kBlock + 8,
               kLocalWrite | kRemoteRead | kRemoteWrite | kRemoteAtomic);
  const uint64_t cell = rem_mr->remote_addr() + kBlock;
  std::vector<WorkCompletion> wcs;
  RunPair([&](QueuePair& qp) {
    MemoryRegion* block_mr = Register(client_dev, block, kBlock, kLocalWrite);
    MemoryRegion* word_mr = Register(client_dev, word, 8, kLocalWrite);
    MemoryRegion* old_mr = Register(client_dev, cas_old, 8, kLocalWrite);
    MemoryRegion* read_mr = Register(client_dev, read_back, 8, kLocalWrite);
    std::fill(block.begin(), block.end(), std::byte{0xAA});
    std::fill(word.begin(), word.end(), std::byte{0xBB});
    const SendWr wrs[] = {
        {.wr_id = 0,
         .opcode = Opcode::kRdmaWrite,
         .local = {block.data(), kBlock, block_mr->lkey()},
         .remote_addr = rem_mr->remote_addr(),
         .rkey = rem_mr->rkey()},
        {.wr_id = 1,
         .opcode = Opcode::kRdmaWrite,
         .local = {word.data(), 8, word_mr->lkey()},
         .remote_addr = rem_mr->remote_addr(),
         .rkey = rem_mr->rkey()},
        {.wr_id = 2,
         .opcode = Opcode::kCompareSwap,
         .local = {cas_old.data(), 8, old_mr->lkey()},
         .remote_addr = cell,
         .rkey = rem_mr->rkey(),
         .compare = 0,
         .swap_or_add = 7},
        {.wr_id = 3,
         .opcode = Opcode::kRdmaRead,
         .local = {read_back.data(), 8, read_mr->lkey()},
         .remote_addr = cell,
         .rkey = rem_mr->rkey()},
    };
    for (const SendWr& wr : wrs) ASSERT_TRUE(qp.PostSend(wr).ok());
    while (wcs.size() < std::size(wrs)) {
      auto wc = qp.send_cq().WaitOne();
      ASSERT_TRUE(wc.ok() && wc->ok());
      wcs.push_back(*wc);
    }
  });
  ASSERT_EQ(wcs.size(), 4u);
  for (size_t i = 0; i < wcs.size(); ++i) {
    EXPECT_EQ(wcs[i].wr_id, i);
    if (i > 0) {
      EXPECT_LE(wcs[i - 1].stamps.executed, wcs[i].stamps.executed);
    }
  }
  // The 8-byte WRITE landed over the block, not under it.
  EXPECT_EQ(std::vector<std::byte>(remote.begin(), remote.begin() + 8),
            std::vector<std::byte>(8, std::byte{0xBB}));
  EXPECT_EQ(std::vector<std::byte>(remote.begin() + 8, remote.begin() + kBlock),
            std::vector<std::byte>(kBlock - 8, std::byte{0xAA}));
  // The READ saw the CAS's swap.
  uint64_t old = 1;
  uint64_t seen = 0;
  std::memcpy(&old, cas_old.data(), 8);
  std::memcpy(&seen, read_back.data(), 8);
  EXPECT_EQ(old, 0u);
  EXPECT_EQ(seen, 7u);
}

// ------------------------------------------------------ failure handling --
TEST_F(VerbsFixture, WriteToKilledPeerRetriesThenErrors) {
  std::vector<std::byte> src, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 64, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
    sim::CurrentNode().sim().KillNode(server_node->id());
    sim::Sleep(Micros(10));  // let the kill land
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 64, mr->lkey()},
                                   .remote_addr = rem_mr->remote_addr(),
                                   .rkey = rem_mr->rkey()})
                    .ok());
    auto wc = qp.send_cq().WaitOne();
    ASSERT_TRUE(wc.ok());
    EXPECT_EQ(wc->status, WcStatus::kRetryExceeded);
    EXPECT_EQ(qp.state(), QueuePair::State::kError);
  });
}

TEST_F(VerbsFixture, ErrorFlushesQueuedWork) {
  std::vector<std::byte> src, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 64, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
    // First WR has a bad rkey and errors; three good WRs behind it flush.
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 64, mr->lkey()},
                                   .remote_addr = rem_mr->remote_addr(),
                                   .rkey = 0xBAD})
                    .ok());
    for (uint64_t id = 2; id <= 4; ++id) {
      ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = id,
                                     .opcode = Opcode::kRdmaWrite,
                                     .local = {src.data(), 64, mr->lkey()},
                                     .remote_addr = rem_mr->remote_addr(),
                                     .rkey = rem_mr->rkey()})
                      .ok());
    }
    std::vector<WcStatus> statuses;
    while (statuses.size() < 4) {
      for (const auto& wc : qp.send_cq().WaitPoll()) {
        statuses.push_back(wc.status);
      }
    }
    EXPECT_EQ(statuses[0], WcStatus::kRemAccessErr);
    for (size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(statuses[i], WcStatus::kWrFlushErr);
    }
  });
}

TEST_F(VerbsFixture, PartitionedLinkErrorsInFlightWork) {
  std::vector<std::byte> src, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 64, kLocalWrite | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
    net.fabric().SetLinkDown(client_node->id(), server_node->id(), true);
    ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kRdmaWrite,
                                   .local = {src.data(), 64, mr->lkey()},
                                   .remote_addr = rem_mr->remote_addr(),
                                   .rkey = rem_mr->rkey()})
                    .ok());
    auto wc = qp.send_cq().WaitOne();
    ASSERT_TRUE(wc.ok());
    EXPECT_EQ(wc->status, WcStatus::kRetryExceeded);
  });
}

// ---------------------------------------------------------------- CQs ----
TEST_F(VerbsFixture, SharedCqCollectsMultipleQps) {
  // Two client QPs share one send CQ; completions from both arrive on it.
  std::vector<std::byte> src, remote;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, 64, kLocalWrite | kRemoteWrite);
  net.Listen(*server_dev, kService);
  server_node->Spawn("server", [this] {
    (void)net.Listen(*server_dev, kService).Accept();
    (void)net.Listen(*server_dev, kService).Accept();
  });
  bool done = false;
  client_node->Spawn("client", [&] {
    CompletionQueue& cq = client_dev->CreateCq();
    auto qp1 = net.Connect(*client_dev, server_node->id(), kService, {}, &cq);
    auto qp2 = net.Connect(*client_dev, server_node->id(), kService, {}, &cq);
    ASSERT_TRUE(qp1.ok() && qp2.ok());
    MemoryRegion* mr = Register(client_dev, src, 64, kLocalWrite);
    SendWr wr{.wr_id = 0,
              .opcode = Opcode::kRdmaWrite,
              .local = {src.data(), 64, mr->lkey()},
              .remote_addr = rem_mr->remote_addr(),
              .rkey = rem_mr->rkey()};
    wr.wr_id = 11;
    ASSERT_TRUE((*qp1)->PostSend(wr).ok());
    wr.wr_id = 22;
    ASSERT_TRUE((*qp2)->PostSend(wr).ok());
    std::vector<uint64_t> ids;
    while (ids.size() < 2) {
      for (const auto& wc : cq.WaitPoll()) {
        EXPECT_TRUE(wc.ok());
        ids.push_back(wc.wr_id);
      }
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<uint64_t>{11, 22}));
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(VerbsFixture, WaitOneTimesOutOnSilence) {
  RunPair([&](QueuePair& qp) {
    auto wc = qp.send_cq().WaitOne(Millis(2));
    EXPECT_EQ(wc.code(), ErrorCode::kTimedOut);
  });
}

// ------------------------------------------------ NIC buffer ownership --
// The NIC reads a payload when the message carrying it starts
// transmitting, so every test here queues the op under test behind a
// backlog of 1 MiB messages on the same egress port.

uint64_t Cell(const std::vector<std::byte>& mem, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, mem.data() + off, 8);
  return v;
}

// A READ returns the bytes its target held when it was served, although
// its response waits behind four 1 MiB responses: a WRITE and FetchAdds
// that land in its range from a second QP before it transmits make the
// NIC read the range first (READ A is read before the WRITE, READ B
// before its FetchAdd), and each FetchAdd returns the pre-value.
TEST_F(VerbsFixture, QueuedReadReturnsServiceTimeBytesDespiteWriteAndAtomic) {
  constexpr uint32_t kMiB = 1 << 20;
  constexpr uint32_t kRange = 64 << 10;
  constexpr uint64_t kA = kMiB;           // READ A's range
  constexpr uint64_t kB = kMiB + kRange;  // READ B's range
  std::vector<std::byte> remote, dst, src, result;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, kMiB + 2 * kRange,
               kLocalWrite | kRemoteRead | kRemoteWrite | kRemoteAtomic);
  for (size_t i = 0; i < remote.size(); ++i) remote[i] = std::byte(i % 251);
  const std::vector<std::byte> served = remote;
  RunQps(2, [&](std::vector<QueuePair*>& qps) {
    QueuePair& reader = *qps[0];
    QueuePair& writer = *qps[1];
    MemoryRegion* dst_mr = Register(client_dev, dst, 4 * kMiB + 2 * kRange,
                                    kLocalWrite);
    MemoryRegion* src_mr = Register(client_dev, src, 4096, kLocalWrite);
    MemoryRegion* res_mr = Register(client_dev, result, 16, kLocalWrite);
    std::memset(src.data(), 0xEE, src.size());
    auto read = [&](uint64_t id, uint64_t off, uint32_t len, size_t at) {
      ASSERT_TRUE(reader
                      .PostSend(SendWr{
                          .wr_id = id,
                          .opcode = Opcode::kRdmaRead,
                          .local = {dst.data() + at, len, dst_mr->lkey()},
                          .remote_addr = rem_mr->remote_addr() + off,
                          .rkey = rem_mr->rkey()})
                      .ok());
    };
    for (uint64_t i = 0; i < 4; ++i) read(i, 0, kMiB, i * kMiB);
    read(4, kA, kRange, 4 * kMiB);
    read(5, kB, kRange, 4 * kMiB + kRange);
    // Both served; their responses wait behind the backlog for ~570 us.
    sim::Sleep(Micros(20));
    ASSERT_TRUE(writer
                    .PostSend(SendWr{
                        .wr_id = 10,
                        .opcode = Opcode::kRdmaWrite,
                        .local = {src.data(), 4096, src_mr->lkey()},
                        .remote_addr = rem_mr->remote_addr() + kA,
                        .rkey = rem_mr->rkey()})
                    .ok());
    for (uint64_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          writer
              .PostSend(SendWr{
                  .wr_id = 11 + i,
                  .opcode = Opcode::kFetchAdd,
                  .local = {result.data() + 8 * i, 8, res_mr->lkey()},
                  .remote_addr =
                      rem_mr->remote_addr() + (i == 0 ? kA + 8192 : kB),
                  .rkey = rem_mr->rkey(),
                  .swap_or_add = 1})
              .ok());
    }
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer.send_cq().WaitOne()->ok());
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(reader.send_cq().WaitOne()->ok());
  });
  EXPECT_TRUE(std::memcmp(dst.data() + 4 * kMiB, served.data() + kA,
                          2 * kRange) == 0)
      << "a queued READ returned bytes written after it was served";
  EXPECT_EQ(Cell(result, 0), Cell(served, kA + 8192));
  EXPECT_EQ(Cell(result, 8), Cell(served, kB));
  EXPECT_EQ(std::to_integer<int>(remote[kA]), 0xEE);
  EXPECT_EQ(Cell(remote, kA + 8192), Cell(served, kA + 8192) + 1);
  EXPECT_EQ(Cell(remote, kB), Cell(served, kB) + 1);
  EXPECT_EQ(server_dev->pending_snapshots(), 0u);
  EXPECT_EQ(net.bounce_blocks_in_use(), 0u);
}

// A READ whose response has started transmitting still returns the bytes
// its target held when it was served: a WRITE and then a FetchAdd from a
// second QP that execute in its range before the response is delivered
// make the NIC read the range first, and the FetchAdd returns the
// pre-value.
TEST_F(VerbsFixture, InFlightReadReturnsServiceTimeBytesDespiteWriteAndAtomic) {
  constexpr uint32_t kLen = 4 << 20;  // ~570 us on the wire
  std::vector<std::byte> remote, dst, src, result;
  MemoryRegion* rem_mr =
      Register(server_dev, remote, kLen,
               kLocalWrite | kRemoteRead | kRemoteWrite | kRemoteAtomic);
  for (size_t i = 0; i < remote.size(); ++i) remote[i] = std::byte(i % 251);
  const std::vector<std::byte> served = remote;
  RunQps(2, [&](std::vector<QueuePair*>& qps) {
    QueuePair& reader = *qps[0];
    QueuePair& writer = *qps[1];
    MemoryRegion* dst_mr = Register(client_dev, dst, kLen, kLocalWrite);
    MemoryRegion* src_mr = Register(client_dev, src, 4096, kLocalWrite);
    MemoryRegion* res_mr = Register(client_dev, result, 8, kLocalWrite);
    std::memset(src.data(), 0xEE, src.size());
    ASSERT_TRUE(reader
                    .PostSend(SendWr{.wr_id = 1,
                                     .opcode = Opcode::kRdmaRead,
                                     .local = {dst.data(), kLen,
                                               dst_mr->lkey()},
                                     .remote_addr = rem_mr->remote_addr(),
                                     .rkey = rem_mr->rkey()})
                    .ok());
    // Served after ~1.3 us; its response transmits until ~575 us.
    sim::Sleep(Micros(20));
    SendWr write{.wr_id = 2,
                 .opcode = Opcode::kRdmaWrite,
                 .local = {src.data(), 4096, src_mr->lkey()},
                 .remote_addr = rem_mr->remote_addr(),
                 .rkey = rem_mr->rkey()};
    SendWr add{.wr_id = 3,
               .opcode = Opcode::kFetchAdd,
               .local = {result.data(), 8, res_mr->lkey()},
               .remote_addr = rem_mr->remote_addr() + 8192,
               .rkey = rem_mr->rkey(),
               .swap_or_add = 1};
    write.next = &add;
    ASSERT_TRUE(writer.PostSend(write).ok());
    // Their acks queue behind the response on the server's egress, so
    // compare instants: both executed before the READ was delivered.
    auto read_wc = reader.send_cq().WaitOne();
    ASSERT_TRUE(read_wc.ok() && read_wc->ok());
    for (int i = 0; i < 2; ++i) {
      auto wc = writer.send_cq().WaitOne();
      ASSERT_TRUE(wc.ok() && wc->ok());
      EXPECT_LT(wc->stamps.executed, read_wc->stamps.pushed);
    }
  });
  EXPECT_EQ(dst, served) << "an in-flight READ returned bytes written after "
                            "it was served";
  EXPECT_EQ(Cell(result, 0), Cell(served, 8192));
  EXPECT_EQ(std::to_integer<int>(remote[0]), 0xEE);
  EXPECT_EQ(Cell(remote, 8192), Cell(served, 8192) + 1);
  EXPECT_GE(net.bounce_pool_bytes(), uint64_t{kLen});
  EXPECT_EQ(server_dev->pending_snapshots(), 0u);
  EXPECT_EQ(net.bounce_blocks_in_use(), 0u);
}

// A WRITE whose source a third node overwrites with an RDMA WRITE while
// the request is on the wire still delivers its doorbell-time bytes: the
// third node's WRITE makes the NIC read the source first. The overwrite
// is a race on purpose, and rcheck reports it.
TEST_F(VerbsFixture, InFlightWriteSourceOverwrittenByThirdNodeDeliversPosted) {
  constexpr uint32_t kLen = 4 << 20;
  constexpr uint32_t kOff = 1 << 20;
  constexpr uint32_t kThirdService = kService + 1;
  check::Checker checker;
  sim.AttachChecker(&checker);
  sim::Node* third = &sim.AddNode("third");
  Device* third_dev = &net.AddDevice(*third);
  std::vector<std::byte> remote, src, third_src;
  MemoryRegion* rem_mr = Register(server_dev, remote, kLen, kRemoteWrite);
  MemoryRegion* src_mr =
      Register(client_dev, src, kLen, kLocalWrite | kRemoteWrite);
  MemoryRegion* third_mr = Register(third_dev, third_src, 4096, kLocalWrite);
  for (size_t i = 0; i < src.size(); ++i) src[i] = std::byte(i % 247);
  std::memset(third_src.data(), 0xC3, third_src.size());
  const std::vector<std::byte> posted = src;
  // Both connections are up long before the WRITE is posted at kPostAt.
  const Nanos kPostAt = Millis(2);
  net.Listen(*server_dev, kService);
  net.Listen(*client_dev, kThirdService);
  server_node->Spawn("server", [&] {
    ASSERT_TRUE(net.Listen(*server_dev, kService).Accept().ok());
  });
  client_node->Spawn("client", [&] {
    auto qp = net.Connect(*client_dev, server_node->id(), kService);
    ASSERT_TRUE(qp.ok()) << qp.status();
    ASSERT_TRUE(net.Listen(*client_dev, kThirdService).Accept().ok());
    sim::Sleep(kPostAt - sim.NowNanos());
    ASSERT_TRUE((*qp)->PostSend(SendWr{.wr_id = 1,
                                       .opcode = Opcode::kRdmaWrite,
                                       .local = {src.data(), kLen,
                                                 src_mr->lkey()},
                                       .remote_addr = rem_mr->remote_addr(),
                                       .rkey = rem_mr->rkey()})
                    .ok());
    ASSERT_TRUE((*qp)->send_cq().WaitOne()->ok());
  });
  third->Spawn("third", [&] {
    auto qp = net.Connect(*third_dev, client_node->id(), kThirdService);
    ASSERT_TRUE(qp.ok()) << qp.status();
    sim::Sleep(kPostAt + Micros(20) - sim.NowNanos());
    ASSERT_TRUE(
        (*qp)->PostSend(SendWr{.wr_id = 2,
                               .opcode = Opcode::kRdmaWrite,
                               .local = {third_src.data(), 4096,
                                         third_mr->lkey()},
                               .remote_addr = src_mr->remote_addr() + kOff,
                               .rkey = src_mr->rkey()})
            .ok());
    ASSERT_TRUE((*qp)->send_cq().WaitOne()->ok());
  });
  sim.Run();
  EXPECT_EQ(remote, posted) << "the target got bytes written into the "
                               "source after the doorbell";
  EXPECT_EQ(std::to_integer<int>(src[kOff]), 0xC3);
  EXPECT_EQ(client_dev->pending_snapshots(), 0u);
  EXPECT_EQ(net.bounce_blocks_in_use(), 0u);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].type, check::ViolationType::kRace);
}

// The NIC reads a payload once, at the delivery of the message carrying
// it, straight from its source: 64 MiB of WRITEs and then 64 MiB of READs
// posted at once on one QP, with no write into any source on the way,
// need no bounce block.
TEST_F(VerbsFixture, BounceMemoryIsBoundedByBytesOnTheWire) {
  constexpr uint32_t kMiB = 1 << 20;
  constexpr int kOps = 64;
  std::vector<std::byte> src, dst, remote;
  MemoryRegion* rem_mr = Register(server_dev, remote, kMiB,
                                  kLocalWrite | kRemoteRead | kRemoteWrite);
  RunPair([&](QueuePair& qp) {
    MemoryRegion* src_mr = Register(client_dev, src, kMiB, kLocalWrite);
    MemoryRegion* dst_mr = Register(client_dev, dst, kMiB, kLocalWrite);
    for (size_t i = 0; i < src.size(); ++i) src[i] = std::byte(i % 253);
    for (const Opcode op : {Opcode::kRdmaWrite, Opcode::kRdmaRead}) {
      MemoryRegion* mr = op == Opcode::kRdmaWrite ? src_mr : dst_mr;
      for (int i = 0; i < kOps; ++i) {
        ASSERT_TRUE(qp.PostSend(SendWr{.wr_id = static_cast<uint64_t>(i),
                                       .opcode = op,
                                       .local = {mr->addr(), kMiB, mr->lkey()},
                                       .remote_addr = rem_mr->remote_addr(),
                                       .rkey = rem_mr->rkey()})
                        .ok());
      }
      for (int i = 0; i < kOps; ++i) ASSERT_TRUE(qp.send_cq().WaitOne()->ok());
    }
  });
  EXPECT_EQ(src, dst);
  EXPECT_EQ(net.bounce_pool_bytes(), 0u);
  EXPECT_EQ(net.bounce_blocks_in_use(), 0u);
  EXPECT_EQ(client_dev->pending_snapshots(), 0u);
  EXPECT_EQ(server_dev->pending_snapshots(), 0u);
}

// Faults between an op's post (WRITE doorbell, READ service) and its
// payload's delivery: the first payload is on the wire when the fault
// hits, the rest wait in an egress queue.
class VerbsFaultTest : public VerbsFixture {
 protected:
  static constexpr uint32_t kOps = 8;
  static constexpr uint32_t kLen = 1 << 20;

  // Posts kOps 1 MiB `op`s on one QP, so all but the first payload wait
  // in an egress queue (the client's for WRITE, the server's for READ),
  // and runs `fault` on the client 20 us later, with the client's buffer,
  // PD and MR in local_, local_pd_ and local_mr_. The server's memory is
  // owned by its thread, so a killed server frees it as it unwinds.
  // Returns the completion statuses in order (none if the client dies);
  // `read_back` receives the client buffer and `server_back` the server's
  // (unless the server dies).
  std::vector<WcStatus> RunFaultBehindBacklog(
      Opcode op, const std::function<void()>& fault,
      std::vector<std::byte>* read_back = nullptr,
      std::vector<std::byte>* server_back = nullptr) {
    uint64_t remote_addr = 0;
    uint32_t rkey = 0;
    std::vector<WcStatus> statuses;
    statuses.reserve(kOps);
    net.Listen(*server_dev, kService);
    server_node->Spawn("server", [&] {
      std::vector<std::byte> mem(kOps * size_t{kLen});
      for (size_t i = 0; i < mem.size(); ++i) mem[i] = std::byte(i % 249);
      auto mr = server_dev->CreatePd().RegisterMemory(
          mem.data(), mem.size(), kLocalWrite | kRemoteRead | kRemoteWrite);
      ASSERT_TRUE(mr.ok());
      remote_addr = (*mr)->remote_addr();
      rkey = (*mr)->rkey();
      ASSERT_TRUE(net.Listen(*server_dev, kService).Accept().ok());
      sim::Sleep(Seconds(1));
      if (server_back != nullptr) *server_back = mem;
    });
    client_node->Spawn("client", [&] {
      auto qp = net.Connect(*client_dev, server_node->id(), kService);
      ASSERT_TRUE(qp.ok()) << qp.status();
      client_qp = *qp;
      std::vector<std::byte> local(kOps * size_t{kLen}, std::byte{0x77});
      ProtectionDomain& pd = client_dev->CreatePd();
      auto mr = pd.RegisterMemory(local.data(), local.size(), kLocalWrite);
      ASSERT_TRUE(mr.ok());
      local_ = &local;
      local_pd_ = &pd;
      local_mr_ = *mr;
      for (uint32_t i = 0; i < kOps; ++i) {
        ASSERT_TRUE(
            (*qp)->PostSend(SendWr{
                        .wr_id = i,
                        .opcode = op,
                        .local = {local.data() + size_t{i} * kLen, kLen,
                                  (*mr)->lkey()},
                        .remote_addr = remote_addr + uint64_t{i} * kLen,
                        .rkey = rkey})
                .ok());
      }
      sim::Sleep(Micros(20));
      fault();
      for (uint32_t i = 0; i < kOps; ++i) {
        auto wc = (*qp)->send_cq().WaitOne();
        ASSERT_TRUE(wc.ok());
        statuses.push_back(wc->status);
      }
      if (read_back != nullptr) *read_back = local;
    });
    sim.Run();
    EXPECT_EQ(client_dev->pending_snapshots(), 0u);
    EXPECT_EQ(server_dev->pending_snapshots(), 0u);
    EXPECT_EQ(net.bounce_blocks_in_use(), 0u);
    return statuses;
  }

  void KillServer() { sim.KillNode(server_node->id()); }
  void KillClient() { sim.KillNode(client_node->id()); }
  void PartitionLink() {
    net.fabric().SetLinkDown(client_node->id(), server_node->id(), true);
  }
  // Hands the client buffer back to the app, which frees it at once.
  void FreeLocal() {
    local_->clear();
    local_->shrink_to_fit();
  }

  // Every server byte holds what the client posted.
  static bool AllPosted(const std::vector<std::byte>& mem) {
    return mem.size() == size_t{kOps} * kLen &&
           std::all_of(mem.begin(), mem.end(),
                       [](std::byte b) { return b == std::byte{0x77}; });
  }

  std::vector<std::byte>* local_ = nullptr;
  ProtectionDomain* local_pd_ = nullptr;
  MemoryRegion* local_mr_ = nullptr;

  // The first op's message was already on the wire: it is lost, and the
  // error flushes everything behind it.
  static std::vector<WcStatus> RetryThenFlush() {
    std::vector<WcStatus> want(kOps, WcStatus::kWrFlushErr);
    want[0] = WcStatus::kRetryExceeded;
    return want;
  }
};

TEST_F(VerbsFaultTest, WriteQueuedWhenTargetDiesRetriesThenFlushes) {
  EXPECT_EQ(RunFaultBehindBacklog(Opcode::kRdmaWrite, [&] { KillServer(); }),
            RetryThenFlush());
}

TEST_F(VerbsFaultTest, WriteQueuedWhenLinkPartitionsRetriesThenFlushes) {
  EXPECT_EQ(
      RunFaultBehindBacklog(Opcode::kRdmaWrite, [&] { PartitionLink(); }),
      RetryThenFlush());
}

TEST_F(VerbsFaultTest, ReadServedWhenLinkPartitionsRetriesThenFlushes) {
  EXPECT_EQ(RunFaultBehindBacklog(Opcode::kRdmaRead, [&] { PartitionLink(); }),
            RetryThenFlush());
}

// The fabric drains a dead node's egress queue, so READ responses at a
// server killed after serving them still arrive: the first one mid-
// transmission, the rest from the queue. Their bytes are the service-
// time ones although the server's memory was freed as its thread
// unwound: the kill made the NIC read them first.
TEST_F(VerbsFaultTest, ReadServedWhenTargetDiesStillDeliversServedBytes) {
  std::vector<std::byte> got;
  EXPECT_EQ(
      RunFaultBehindBacklog(Opcode::kRdmaRead, [&] { KillServer(); }, &got),
      std::vector<WcStatus>(kOps, WcStatus::kSuccess));
  ASSERT_EQ(got.size(), size_t{kOps} * kLen);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], std::byte(i % 249)) << "byte " << i;
  }
}

// A client killed with its WRITEs on the wire and in its egress queue:
// the fabric still drains them, and the server gets the posted bytes
// although the client's buffer was freed as its thread unwound. No
// completion reaches the dead client.
TEST_F(VerbsFaultTest, WriteSourceNodeKilledStillDeliversPostedBytes) {
  std::vector<std::byte> server;
  EXPECT_TRUE(RunFaultBehindBacklog(Opcode::kRdmaWrite, [&] { KillClient(); },
                                    nullptr, &server)
                  .empty());
  EXPECT_TRUE(AllPosted(server));
}

// Deregistering the source MR and freeing it under in-flight WRITEs: the
// NIC reads what it still owes first, so every WRITE lands its posted
// bytes and completes as before. Deregistering under posted WRs is still
// a use-after-deregister, which rcheck reports once per WR.
TEST_F(VerbsFaultTest, WriteSourceDeregisteredAndFreedDeliversPostedBytes) {
  check::Checker checker;
  sim.AttachChecker(&checker);
  std::vector<std::byte> server;
  EXPECT_EQ(RunFaultBehindBacklog(
                Opcode::kRdmaWrite,
                [&] {
                  ASSERT_TRUE(local_pd_->DeregisterMemory(local_mr_).ok());
                  FreeLocal();
                },
                nullptr, &server),
            std::vector<WcStatus>(kOps, WcStatus::kSuccess));
  EXPECT_TRUE(AllPosted(server));
  EXPECT_EQ(checker.violations().size(), size_t{kOps});
  for (const check::Violation& v : checker.violations()) {
    EXPECT_EQ(v.type, check::ViolationType::kUseAfterDereg);
  }
}

// Closing the initiator QP flushes every WRITE, and the app frees the
// source. Requests already handed to the fabric still execute at the
// target, with the posted bytes.
TEST_F(VerbsFaultTest, WriteInitiatorFlushedAndFreedDeliversPostedBytes) {
  std::vector<std::byte> server;
  EXPECT_EQ(RunFaultBehindBacklog(
                Opcode::kRdmaWrite,
                [&] {
                  client_qp->Close();
                  FreeLocal();
                },
                nullptr, &server),
            std::vector<WcStatus>(kOps, WcStatus::kWrFlushErr));
  EXPECT_TRUE(AllPosted(server));
}

// Closing the initiator QP flushes every READ, and the app frees the
// scatter buffer: the responses still on the wire place nothing.
TEST_F(VerbsFaultTest, ReadInitiatorFlushedAndFreedPlacesNothing) {
  EXPECT_EQ(RunFaultBehindBacklog(Opcode::kRdmaRead,
                                  [&] {
                                    client_qp->Close();
                                    FreeLocal();
                                  }),
            std::vector<WcStatus>(kOps, WcStatus::kWrFlushErr));
}

}  // namespace
}  // namespace rstore::verbs
