// Baseline: message-passing BSP graph engine (GraphLab/Pregel-flavoured).
//
// The comparator for Carafe in experiment E4. Same partitioning (the
// cost-balanced ranges of carafe::PartitionBounds, built from the
// in-memory graph), same vertex program, same per-edge compute cost — but
// per-iteration dataflow travels as point-to-point *messages*: each worker
// combines the contributions of its vertices per target, marshals
// (vertex, value) batches, and RPCs them to the target's owner, whose CPU
// pays a per-message framework overhead (scheduling, hash lookup, locking)
// on top of the transport's marshalling and handler costs. Carafe replaces
// all of that with one-sided reads of a shared contribution array.
//
// `per_message_ns` is the calibration knob: ~25 ns models a lean native
// engine (GraphLab-class), ~90 ns a heavier dataflow stack
// (Spark/GraphX-class). EXPERIMENTS.md discusses the calibration.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "carafe/graph.h"
#include "common/status.h"
#include "rpc/rpc.h"
#include "verbs/verbs.h"

namespace rstore::baselines {

inline constexpr uint32_t kBspService = 30;

struct MsgBspConfig {
  uint32_t worker_id = 0;
  uint32_t num_workers = 1;
  // Node id of every worker, indexed by worker id (the "cluster map").
  std::vector<uint32_t> worker_nodes;
  // Receiver-side framework cost per vertex-message.
  double per_message_ns = 25.0;
};

class MsgBspWorker {
 public:
  // The worker keeps a reference to the full graph (the loading phase is
  // not part of the measured computation, mirroring Carafe's Init).
  MsgBspWorker(verbs::Device& device, const carafe::Graph& graph,
               MsgBspConfig config);
  ~MsgBspWorker();

  // Starts the inbound message service; call on every worker before any
  // computation starts.
  void StartService();

  // Synchronous PageRank. Returns this worker's rank slice; vertex v of
  // the slice is global vertex lo() + v.
  Result<std::vector<double>> PageRank(uint32_t iterations,
                                       double damping = 0.85);

  [[nodiscard]] uint64_t lo() const noexcept { return lo_; }
  [[nodiscard]] uint64_t hi() const noexcept { return hi_; }
  // Messages this worker received (for calibration reporting).
  [[nodiscard]] uint64_t messages_in() const noexcept {
    return messages_in_;
  }

 private:
  struct Inbox;

  Status SendBatches(uint32_t superstep,
                     const std::vector<std::vector<std::byte>>& batches);

  verbs::Device& device_;
  const carafe::Graph& graph_;
  MsgBspConfig config_;
  std::vector<uint64_t> bounds_;  // every worker's range (PartitionBounds)
  uint64_t lo_ = 0, hi_ = 0;

  std::unique_ptr<rpc::RpcServer> server_;
  std::unique_ptr<Inbox> inbox_;
  std::vector<std::unique_ptr<rpc::RpcClient>> peers_;  // by worker id
  uint64_t messages_in_ = 0;
  uint32_t max_batch_bytes_ = 0;
};

}  // namespace rstore::baselines
