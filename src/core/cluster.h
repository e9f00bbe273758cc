// TestCluster: one-call assembly of a simulated RStore deployment.
//
// Builds the node layout the paper's testbed used — one master, N memory
// servers, M client machines — on a fresh simulation, starts the master
// and memory servers, and provides helpers to run client workloads once
// the cluster is ready. Tests, benchmarks, and examples all start here.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/master.h"
#include "core/memory_server.h"
#include "sim/simulation.h"
#include "verbs/verbs.h"

namespace rstore::core {

struct ClusterConfig {
  uint32_t memory_servers = 4;
  uint32_t client_nodes = 1;
  uint64_t server_capacity = 64ULL << 20;  // DRAM donated per server
  MasterOptions master;
  sim::NicConfig nic;
  sim::CpuCostModel cpu;
  uint64_t seed = 1;
  // Optional observability sink (caller-owned, may outlive the cluster).
  // Attaching it never changes virtual time — see Simulation's
  // AttachTelemetry contract.
  obs::Telemetry* telemetry = nullptr;
};

class TestCluster {
 public:
  explicit TestCluster(ClusterConfig config = {})
      : config_(config),
        sim_(sim::SimConfig{.seed = config.seed}),
        net_(sim_, config.nic, config.cpu) {
    if (config.telemetry != nullptr) sim_.AttachTelemetry(config.telemetry);
    master_node_ = &sim_.AddNode("master");
    master_ = std::make_unique<Master>(net_.AddDevice(*master_node_),
                                       config.master);
    master_->Start();
    for (uint32_t i = 0; i < config.memory_servers; ++i) {
      sim::Node& node = sim_.AddNode("mem" + std::to_string(i));
      MemoryServerOptions opts;
      opts.capacity = config.server_capacity;
      servers_.push_back(std::make_unique<MemoryServer>(
          net_.AddDevice(node), master_node_->id(), opts));
      server_nodes_.push_back(&node);
      servers_.back()->Start();
    }
    for (uint32_t i = 0; i < config.client_nodes; ++i) {
      sim::Node& node = sim_.AddNode("client" + std::to_string(i));
      net_.AddDevice(node);
      client_nodes_.push_back(&node);
    }
  }

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] verbs::Network& net() noexcept { return net_; }
  [[nodiscard]] Master& master() noexcept { return *master_; }
  [[nodiscard]] uint32_t master_node_id() const noexcept {
    return master_node_->id();
  }
  [[nodiscard]] MemoryServer& server(size_t i) { return *servers_.at(i); }
  [[nodiscard]] sim::Node& server_node(size_t i) {
    return *server_nodes_.at(i);
  }
  [[nodiscard]] sim::Node& client_node(size_t i) {
    return *client_nodes_.at(i);
  }
  [[nodiscard]] size_t server_count() const noexcept {
    return servers_.size();
  }

  // Spawns `fn` as a client program on client node `i`. The body runs in
  // simulated time once sim().Run() is driven. When the last spawned
  // client program finishes, the simulation is stopped — otherwise the
  // cluster's background services (heartbeats, lease sweeps) would keep
  // the event loop alive forever.
  void SpawnClient(size_t i, std::function<void(RStoreClient&)> fn,
                   ClientOptions options = {}) {
    ++clients_spawned_;
    sim::Node& node = *client_nodes_.at(i);
    verbs::Device& dev = net_.device(node.id());
    node.Spawn("client-app", [this, &dev, fn = std::move(fn), options] {
      WaitForServers();
      {
        auto client = RStoreClient::Connect(dev, master_node_->id(), options);
        if (client.ok()) fn(**client);
      }
      // clients_spawned_ is fixed before the run starts.
      if (++clients_done_ == clients_spawned_) {
        sim_.RequestStop();
      }
    });
  }

  // Blocks (in simulated time) until every memory server holds a lease.
  void WaitForServers() {
    while (master_->live_servers() < servers_.size()) {
      sim::Sleep(sim::Millis(1));
    }
  }

  // Convenience: spawn one client, run the simulation to quiescence.
  void RunClient(std::function<void(RStoreClient&)> fn,
                 ClientOptions options = {}) {
    SpawnClient(0, std::move(fn), options);
    sim_.Run();
  }

 private:
  ClusterConfig config_;
  sim::Simulation sim_;
  verbs::Network net_;
  sim::Node* master_node_;
  std::unique_ptr<Master> master_;
  std::vector<std::unique_ptr<MemoryServer>> servers_;
  std::vector<sim::Node*> server_nodes_;
  std::vector<sim::Node*> client_nodes_;
  size_t clients_spawned_ = 0;
  size_t clients_done_ = 0;
};

}  // namespace rstore::core
