// Tests for the rverbs layer: memory registration and key checks, RC
// queue-pair data path (SEND/RECV, RDMA READ/WRITE, WRITE_WITH_IMM,
// atomics), completion ordering, error semantics (access violations, RNR,
// retry-exceeded, flush), and connection management.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

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

// A parked SEND owns its doorbell-time bytes: neither the initiator
// rewriting its buffer nor a later op reusing the pooled bounce buffer
// changes what the receiver gets once it posts.
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

}  // namespace
}  // namespace rstore::verbs
