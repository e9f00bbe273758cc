// Built-in verbs-level workloads for tools/rexplore, tests, and the CI
// exploration job. Each is a self-contained cluster run (fresh
// sim::Simulation per invocation) that attaches the explorer's policy and
// checker before any work starts.
//
// Three flavours:
//   fenced-handoff   writer RDMA-WRITEs a block, *waits for the write
//                    completion*, then FetchAdds a flag cell on a second
//                    QP; reader polls the flag with FetchAdd(+0) and
//                    RDMA-READs the block.
//                    Correct under every legal schedule — the zero-false-
//                    positive workload the CI exploration job sweeps.
//   race-unfenced    same shape, but the completion wait has a deadline:
//                    if the write completion misses it (which only happens
//                    under explore-injected delay), the writer releases the
//                    flag while the write is still pending — the classic
//                    un-fenced one-sided publish bug. It needs the second
//                    QP: RC executes one QP's WRs in post order, so a
//                    FetchAdd behind the WRITE on its own QP would be a
//                    correct publish. The baseline schedule is always
//                    fenced; only exploration flips it.
//   atomic-counter   three clients FetchAdd one shared cell concurrently;
//                    atomics never conflict, so any report is a checker
//                    false positive.
//   stale-cached-read  a reader caches a value cell without any version
//                    check, then answers a later GET from the cache when
//                    the revalidation read misses a 40 us deadline — an
//                    intentionally un-versioned cached read. The baseline
//                    revalidation always beats the deadline; only an
//                    explore-injected delay (max_delay_ns >= 40000) flips
//                    it, and the rlin oracle catches the stale answer as
//                    a per-key linearizability violation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "check/lin.h"
#include "explore/explorer.h"
#include "sim/simulation.h"
#include "verbs/verbs.h"

namespace rstore::explore {

namespace workload_detail {

// Workloads run outside any test framework (the CLI, the CI job), so a
// failed precondition aborts loudly instead of silently exploring garbage.
inline void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "rexplore workload invariant failed: %s\n", what);
    std::abort();
  }
}

// Server memory for one run of a workload. rcheck prints raw host
// addresses for bytes outside RStore regions, and a replay must reproduce
// its report byte for byte, so every run gets the same block: one
// process-lifetime buffer per size, refilled with `fill` on each call. (A
// heap vector would not do: node programs share the driver's allocator,
// so where the next run's vector lands depends on what earlier runs left
// behind.) Runs must therefore not overlap, and the Explorer runs them in
// turn.
template <size_t kBytes>
std::span<std::byte> ServerBlock(std::byte fill) {
  alignas(64) static std::array<std::byte, kBytes> block;
  block.fill(fill);
  return block;
}

// The write/publish/read handoff described above. `fenced` selects whether
// the writer's completion wait is unbounded (always correct) or bounded by
// a 40 us deadline the baseline schedule meets with ~3x slack (the
// un-fenced publish only triggers under injected delay).
inline void RunHandoff(const RunContext& ctx, bool fenced) {
  constexpr uint64_t kDataBytes = 64 * 1024;
  constexpr uint32_t kService = 17;

  sim::Simulation sim;
  ctx.Attach(sim);
  verbs::Network net(sim);
  sim::Node& server = sim.AddNode("server");
  sim::Node& writer = sim.AddNode("writer");
  sim::Node& reader = sim.AddNode("reader");
  verbs::Device& server_dev = net.AddDevice(server);
  verbs::Device& writer_dev = net.AddDevice(writer);
  verbs::Device& reader_dev = net.AddDevice(reader);

  // Server memory: the data block, then an 8-byte flag cell.
  const std::span<std::byte> region = ServerBlock<kDataBytes + 8>({});
  verbs::ProtectionDomain& server_pd = server_dev.CreatePd();
  auto server_mr = server_pd.RegisterMemory(
      region.data(), region.size(),
      verbs::kLocalWrite | verbs::kRemoteRead | verbs::kRemoteWrite |
          verbs::kRemoteAtomic);
  Require(server_mr.ok(), "server MR registration");
  const uint64_t data_addr = (*server_mr)->remote_addr();
  const uint64_t flag_addr = data_addr + kDataBytes;
  const uint32_t rkey = (*server_mr)->rkey();

  server.Spawn("accept", [&net, &server_dev] {
    for (int i = 0; i < 3; ++i) {
      auto qp = net.Listen(server_dev, kService).Accept();
      Require(qp.ok(), "server accept");
    }
  });

  writer.Spawn("writer", [&net, &writer_dev, &server, data_addr, flag_addr,
                          rkey, fenced] {
    auto qp = net.Connect(writer_dev, server.id(), kService);
    Require(qp.ok(), "writer connect");
    auto flag_qp = net.Connect(writer_dev, server.id(), kService);
    Require(flag_qp.ok(), "writer flag connect");
    verbs::QueuePair& q = **qp;
    verbs::QueuePair& fq = **flag_qp;
    verbs::ProtectionDomain& pd = writer_dev.CreatePd();
    std::vector<std::byte> src(kDataBytes, std::byte{0xAB});
    auto src_mr = pd.RegisterMemory(src.data(), src.size(),
                                    verbs::kLocalWrite);
    Require(src_mr.ok(), "writer src MR");
    std::vector<std::byte> faa_result(8);
    auto faa_mr = pd.RegisterMemory(faa_result.data(), faa_result.size(),
                                    verbs::kLocalWrite);
    Require(faa_mr.ok(), "writer FAA MR");

    Require(q.PostSend({.wr_id = 1,
                        .opcode = verbs::Opcode::kRdmaWrite,
                        .local = {src.data(), kDataBytes, (*src_mr)->lkey()},
                        .remote_addr = data_addr,
                        .rkey = rkey})
                .ok(),
            "writer post WRITE");
    // Publish fence. The fenced variant waits however long the write
    // takes; the un-fenced variant gives up after a deadline the baseline
    // completion beats easily (~12 us) — so only an explore-injected
    // delay can flip this branch, and when it does the FetchAdd below
    // releases the flag while the write is still in flight.
    auto wc = q.send_cq().WaitOne(fenced ? sim::kNever : sim::Micros(40));
    const bool write_done = wc.ok();
    if (write_done) Require(wc->ok(), "writer WRITE completion status");
    Require(fq.PostSend({.wr_id = 2,
                         .opcode = verbs::Opcode::kFetchAdd,
                         .local = {faa_result.data(), 8, (*faa_mr)->lkey()},
                         .remote_addr = flag_addr,
                         .rkey = rkey,
                         .swap_or_add = 1})
                .ok(),
            "writer post FAA");
    Require(fq.send_cq().WaitOne().ok(), "writer FAA completion");
    if (!write_done) {
      Require(q.send_cq().WaitOne().ok(), "writer drain completion");
    }
  });

  reader.Spawn("reader", [&net, &reader_dev, &server, data_addr, flag_addr,
                          rkey] {
    auto qp = net.Connect(reader_dev, server.id(), kService);
    Require(qp.ok(), "reader connect");
    verbs::QueuePair& q = **qp;
    verbs::ProtectionDomain& pd = reader_dev.CreatePd();
    std::vector<std::byte> dst(kDataBytes);
    auto dst_mr = pd.RegisterMemory(dst.data(), dst.size(),
                                    verbs::kLocalWrite);
    Require(dst_mr.ok(), "reader dst MR");
    std::vector<std::byte> faa_result(8);
    auto faa_mr = pd.RegisterMemory(faa_result.data(), faa_result.size(),
                                    verbs::kLocalWrite);
    Require(faa_mr.ok(), "reader FAA MR");

    // Acquire-poll the flag with FetchAdd(+0) until the writer releases.
    while (true) {
      Require(q.PostSend({.wr_id = 10,
                          .opcode = verbs::Opcode::kFetchAdd,
                          .local = {faa_result.data(), 8, (*faa_mr)->lkey()},
                          .remote_addr = flag_addr,
                          .rkey = rkey,
                          .swap_or_add = 0})
                  .ok(),
              "reader post FAA poll");
      auto c = q.send_cq().WaitOne();
      Require(c.ok() && c->ok(), "reader FAA completion");
      uint64_t flag = 0;
      std::memcpy(&flag, faa_result.data(), sizeof(flag));
      if (flag >= 1) break;
      sim::Sleep(sim::Micros(2));
    }
    Require(q.PostSend({.wr_id = 11,
                        .opcode = verbs::Opcode::kRdmaRead,
                        .local = {dst.data(), kDataBytes, (*dst_mr)->lkey()},
                        .remote_addr = data_addr,
                        .rkey = rkey})
                .ok(),
            "reader post READ");
    auto c = q.send_cq().WaitOne();
    Require(c.ok(), "reader READ completion");
  });

  sim.Run();
  if (ctx.out_final_vtime != nullptr) *ctx.out_final_vtime = sim.NowNanos();
  if (ctx.out_events != nullptr) *ctx.out_events = sim.events_processed();
}

inline void RunAtomicCounter(const RunContext& ctx) {
  constexpr uint32_t kService = 23;
  constexpr int kClients = 3;
  constexpr int kAddsPerClient = 8;

  sim::Simulation sim;
  ctx.Attach(sim);
  verbs::Network net(sim);
  sim::Node& server = sim.AddNode("server");
  verbs::Device& server_dev = net.AddDevice(server);

  const std::span<std::byte> cell = ServerBlock<8>({});
  verbs::ProtectionDomain& server_pd = server_dev.CreatePd();
  auto server_mr = server_pd.RegisterMemory(
      cell.data(), cell.size(), verbs::kLocalWrite | verbs::kRemoteAtomic);
  Require(server_mr.ok(), "server MR registration");
  const uint64_t cell_addr = (*server_mr)->remote_addr();
  const uint32_t rkey = (*server_mr)->rkey();

  server.Spawn("accept", [&net, &server_dev] {
    for (int i = 0; i < kClients; ++i) {
      auto qp = net.Listen(server_dev, kService).Accept();
      Require(qp.ok(), "server accept");
    }
  });

  for (int c = 0; c < kClients; ++c) {
    sim::Node& client = sim.AddNode("client" + std::to_string(c));
    verbs::Device& dev = net.AddDevice(client);
    client.Spawn("adder", [&net, &dev, &server, cell_addr, rkey] {
      auto qp = net.Connect(dev, server.id(), kService);
      Require(qp.ok(), "client connect");
      verbs::QueuePair& q = **qp;
      verbs::ProtectionDomain& pd = dev.CreatePd();
      std::vector<std::byte> result(8);
      auto mr = pd.RegisterMemory(result.data(), result.size(),
                                  verbs::kLocalWrite);
      Require(mr.ok(), "client MR");
      for (int i = 0; i < kAddsPerClient; ++i) {
        Require(q.PostSend({.wr_id = static_cast<uint64_t>(i),
                            .opcode = verbs::Opcode::kFetchAdd,
                            .local = {result.data(), 8, (*mr)->lkey()},
                            .remote_addr = cell_addr,
                            .rkey = rkey,
                            .swap_or_add = 1})
                    .ok(),
                "client post FAA");
        auto wc = q.send_cq().WaitOne();
        Require(wc.ok() && wc->ok(), "client FAA completion");
      }
    });
  }

  sim.Run();
  uint64_t total = 0;
  std::memcpy(&total, cell.data(), sizeof(total));
  Require(total == static_cast<uint64_t>(kClients) * kAddsPerClient,
          "atomic counter total");
  if (ctx.out_final_vtime != nullptr) *ctx.out_final_vtime = sim.NowNanos();
  if (ctx.out_events != nullptr) *ctx.out_events = sim.events_processed();
}

// The planted rlin bug: a client-side cache with no version check. The
// reader READs the value cell once and keeps the bytes; after the writer
// publishes a new value, the reader "revalidates" with a second READ but
// only waits 40 us for it — on a miss it answers from the stale cache.
// The baseline completion beats the deadline with ~3x slack, so the stale
// branch is reachable only under explore-injected delay (max_delay_ns >=
// 40000). When it fires, the recorded history on kStaleKey is
//   read(v0), write(v1), read(v0 with inv after write's resp)
// which is per-key unsatisfiable — rlin reports it, and the signature
// (the key alone) is schedule-independent, so replay and minimization
// reproduce it deterministically.
inline void RunStaleCachedRead(const RunContext& ctx) {
  constexpr uint64_t kValBytes = 64;
  constexpr uint32_t kService = 29;
  constexpr uint64_t kStaleKey = 0x57a1e;
  constexpr uint32_t kReaderClient = 1;
  constexpr uint32_t kWriterClient = 2;

  sim::Simulation sim;
  ctx.Attach(sim);
  verbs::Network net(sim);
  sim::Node& server = sim.AddNode("server");
  sim::Node& writer = sim.AddNode("writer");
  sim::Node& reader = sim.AddNode("reader");
  verbs::Device& server_dev = net.AddDevice(server);
  verbs::Device& writer_dev = net.AddDevice(writer);
  verbs::Device& reader_dev = net.AddDevice(reader);

  // Server memory: the value cell, a ready flag (reader -> writer: "my
  // cache is warm"), and a publish flag (writer -> reader: "v1 is out").
  const std::span<std::byte> region =
      ServerBlock<kValBytes + 16>(std::byte{0x11});
  std::memset(region.data() + kValBytes, 0, 16);
  verbs::ProtectionDomain& server_pd = server_dev.CreatePd();
  auto server_mr = server_pd.RegisterMemory(
      region.data(), region.size(),
      verbs::kLocalWrite | verbs::kRemoteRead | verbs::kRemoteWrite |
          verbs::kRemoteAtomic);
  Require(server_mr.ok(), "server MR registration");
  const uint64_t val_addr = (*server_mr)->remote_addr();
  const uint64_t ready_addr = val_addr + kValBytes;
  const uint64_t publish_addr = val_addr + kValBytes + 8;
  const uint32_t rkey = (*server_mr)->rkey();
  if (ctx.lin != nullptr) {
    ctx.lin->RecordInit(kStaleKey, check::LinChecker::Digest(region.data(),
                                                             kValBytes));
  }

  server.Spawn("accept", [&net, &server_dev] {
    for (int i = 0; i < 2; ++i) {
      auto qp = net.Listen(server_dev, kService).Accept();
      Require(qp.ok(), "server accept");
    }
  });

  // Polls `flag_addr` with FetchAdd(+0) until it is >= 1.
  const auto await_flag = [](verbs::QueuePair& q, std::byte* faa_result,
                             uint32_t faa_lkey, uint64_t flag_addr,
                             uint32_t remote_key) {
    while (true) {
      Require(q.PostSend({.wr_id = 90,
                          .opcode = verbs::Opcode::kFetchAdd,
                          .local = {faa_result, 8, faa_lkey},
                          .remote_addr = flag_addr,
                          .rkey = remote_key,
                          .swap_or_add = 0})
                  .ok(),
              "flag poll post");
      auto c = q.send_cq().WaitOne();
      Require(c.ok() && c->ok(), "flag poll completion");
      uint64_t flag = 0;
      std::memcpy(&flag, faa_result, sizeof(flag));
      if (flag >= 1) break;
      sim::Sleep(sim::Micros(2));
    }
  };

  writer.Spawn("writer", [&net, &writer_dev, &server, &sim, &ctx, &await_flag,
                          val_addr, ready_addr, publish_addr, rkey] {
    auto qp = net.Connect(writer_dev, server.id(), kService);
    Require(qp.ok(), "writer connect");
    verbs::QueuePair& q = **qp;
    verbs::ProtectionDomain& pd = writer_dev.CreatePd();
    std::vector<std::byte> src(kValBytes, std::byte{0x22});
    auto src_mr =
        pd.RegisterMemory(src.data(), src.size(), verbs::kLocalWrite);
    Require(src_mr.ok(), "writer src MR");
    std::vector<std::byte> faa_result(8);
    auto faa_mr = pd.RegisterMemory(faa_result.data(), faa_result.size(),
                                    verbs::kLocalWrite);
    Require(faa_mr.ok(), "writer FAA MR");

    // Wait until the reader's cache is warm, so the stale copy is always
    // v0 and the planted violation is deterministic given the schedule.
    await_flag(q, faa_result.data(), (*faa_mr)->lkey(), ready_addr, rkey);

    const uint64_t inv = sim.NowNanos();
    Require(q.PostSend({.wr_id = 1,
                        .opcode = verbs::Opcode::kRdmaWrite,
                        .local = {src.data(), kValBytes, (*src_mr)->lkey()},
                        .remote_addr = val_addr,
                        .rkey = rkey})
                .ok(),
            "writer post WRITE");
    // Correctly fenced: the publish flag is released only after the write
    // completion. The bug in this workload is on the reader's side.
    auto wc = q.send_cq().WaitOne();
    Require(wc.ok() && wc->ok(), "writer WRITE completion");
    if (ctx.lin != nullptr) {
      ctx.lin->RecordOp(kWriterClient, check::LinOpKind::kWrite, kStaleKey,
                        check::LinChecker::Digest(src.data(), kValBytes), inv,
                        sim.NowNanos());
    }
    Require(q.PostSend({.wr_id = 2,
                        .opcode = verbs::Opcode::kFetchAdd,
                        .local = {faa_result.data(), 8, (*faa_mr)->lkey()},
                        .remote_addr = publish_addr,
                        .rkey = rkey,
                        .swap_or_add = 1})
                .ok(),
            "writer post publish FAA");
    auto pc = q.send_cq().WaitOne();
    Require(pc.ok() && pc->ok(), "writer publish completion");
  });

  reader.Spawn("reader", [&net, &reader_dev, &server, &sim, &ctx, &await_flag,
                          val_addr, ready_addr, publish_addr, rkey] {
    auto qp = net.Connect(reader_dev, server.id(), kService);
    Require(qp.ok(), "reader connect");
    verbs::QueuePair& q = **qp;
    verbs::ProtectionDomain& pd = reader_dev.CreatePd();
    std::vector<std::byte> dst(kValBytes);
    auto dst_mr =
        pd.RegisterMemory(dst.data(), dst.size(), verbs::kLocalWrite);
    Require(dst_mr.ok(), "reader dst MR");
    std::vector<std::byte> faa_result(8);
    auto faa_mr = pd.RegisterMemory(faa_result.data(), faa_result.size(),
                                    verbs::kLocalWrite);
    Require(faa_mr.ok(), "reader FAA MR");

    // Warm the cache: one READ, keep the bytes. No version, no epoch —
    // nothing that would let the revalidation below detect staleness.
    uint64_t inv = sim.NowNanos();
    Require(q.PostSend({.wr_id = 10,
                        .opcode = verbs::Opcode::kRdmaRead,
                        .local = {dst.data(), kValBytes, (*dst_mr)->lkey()},
                        .remote_addr = val_addr,
                        .rkey = rkey})
                .ok(),
            "reader post warm READ");
    auto wc = q.send_cq().WaitOne();
    Require(wc.ok() && wc->ok(), "reader warm READ completion");
    std::vector<std::byte> cache(dst);
    if (ctx.lin != nullptr) {
      ctx.lin->RecordOp(kReaderClient, check::LinOpKind::kRead, kStaleKey,
                        check::LinChecker::Digest(cache.data(), kValBytes),
                        inv, sim.NowNanos());
    }
    // Tell the writer the cache is warm, then wait for its publish.
    Require(q.PostSend({.wr_id = 11,
                        .opcode = verbs::Opcode::kFetchAdd,
                        .local = {faa_result.data(), 8, (*faa_mr)->lkey()},
                        .remote_addr = ready_addr,
                        .rkey = rkey,
                        .swap_or_add = 1})
                .ok(),
            "reader post ready FAA");
    auto rc = q.send_cq().WaitOne();
    Require(rc.ok() && rc->ok(), "reader ready completion");
    await_flag(q, faa_result.data(), (*faa_mr)->lkey(), publish_addr, rkey);

    // Serve a GET: revalidate with a fresh READ, but only wait 40 us for
    // it. On a miss, answer from the (now stale) cache. This is the
    // planted bug — the cached bytes carry no version to check against.
    inv = sim.NowNanos();
    Require(q.PostSend({.wr_id = 12,
                        .opcode = verbs::Opcode::kRdmaRead,
                        .local = {dst.data(), kValBytes, (*dst_mr)->lkey()},
                        .remote_addr = val_addr,
                        .rkey = rkey})
                .ok(),
            "reader post revalidate READ");
    auto fresh = q.send_cq().WaitOne(sim::Micros(40));
    const std::byte* answer = nullptr;
    if (fresh.ok()) {
      Require(fresh->ok(), "reader revalidate READ status");
      answer = dst.data();
    } else {
      answer = cache.data();  // stale, un-versioned answer
    }
    if (ctx.lin != nullptr) {
      ctx.lin->RecordOp(kReaderClient, check::LinOpKind::kRead, kStaleKey,
                        check::LinChecker::Digest(answer, kValBytes), inv,
                        sim.NowNanos());
    }
    if (!fresh.ok()) {
      // Drain the late completion so the run ends with an empty CQ.
      auto late = q.send_cq().WaitOne();
      Require(late.ok(), "reader drain late completion");
    }
  });

  sim.Run();
  if (ctx.out_final_vtime != nullptr) *ctx.out_final_vtime = sim.NowNanos();
  if (ctx.out_events != nullptr) *ctx.out_events = sim.events_processed();
}

}  // namespace workload_detail

struct NamedWorkload {
  std::string_view name;
  std::string_view description;
  Workload workload;
};

[[nodiscard]] inline std::vector<NamedWorkload> BuiltinWorkloads() {
  return {
      {"fenced-handoff",
       "write -> completion fence -> atomic release -> remote read; "
       "race-free under every legal schedule",
       [](const RunContext& ctx) {
         workload_detail::RunHandoff(ctx, /*fenced=*/true);
       }},
      {"race-unfenced",
       "fence is skipped when the WRITE completion misses a 40us deadline: "
       "a schedule-dependent un-fenced publish race",
       [](const RunContext& ctx) {
         workload_detail::RunHandoff(ctx, /*fenced=*/false);
       }},
      {"atomic-counter",
       "three clients FetchAdd one shared cell; atomics never conflict",
       [](const RunContext& ctx) {
         workload_detail::RunAtomicCounter(ctx);
       }},
      {"stale-cached-read",
       "reader answers a GET from an un-versioned cache when revalidation "
       "misses a 40us deadline; rlin catches the stale read (needs "
       "max-delay >= 40000)",
       [](const RunContext& ctx) {
         workload_detail::RunStaleCachedRead(ctx);
       }},
  };
}

[[nodiscard]] inline const NamedWorkload* FindWorkload(
    const std::vector<NamedWorkload>& all, std::string_view name) {
  for (const NamedWorkload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace rstore::explore
