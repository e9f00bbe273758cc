// Deterministic virtual-time cluster simulator.
//
// The simulator lets *real* C++ node programs (RStore master, memory
// servers, clients, sorters, graph workers) run against a modelled network
// without real hardware. Each simulated node hosts one or more cooperative
// threads; a discrete-event scheduler guarantees that exactly one thread
// (or event callback) executes at a time *per partition*, and that
// execution order is a pure function of the event timeline — so every run
// is bit-reproducible.
//
// Concurrency model
// -----------------
//   * Every simulated thread is a stackful fiber: it has its own stack
//     (sized like a default OS-thread stack, with a guard page) but no OS
//     thread. The host thread dispatching a partition switches into one
//     fiber at a time and gets control back when the fiber blocks (Sleep,
//     CondVar::Wait, ...) or exits; a slice costs two register switches.
//     There is therefore no data race between node programs, the fabric,
//     or the scheduler, even though the code "looks" multithreaded.
//   * A fiber's view of host-thread state is its own: the current-thread
//     pointer, the C++ exception state (`throw;`,
//     std::uncaught_exceptions) and rcheck's annotation scopes are
//     swapped in and out with every slice. Node code must not keep other
//     thread_local state across a blocking call — a parked fiber may
//     resume on a different host thread in partitioned mode.
//   * Virtual time advances only in the scheduler, between thread slices.
//     Pure computation inside a thread is instantaneous in virtual time;
//     code charges compute costs explicitly via Sleep()/cost models
//     (see cost_model.h) — which keeps performance accounting explicit,
//     documented, and machine-independent.
//
// Partitioned (parallel) mode
// ---------------------------
//   With SimConfig::host_threads >= 1 (or RSTORE_HOST_THREADS set), every
//   node gets its own event queue and clock — a *partition* — and
//   partitions execute independently inside barrier-synced virtual-time
//   epochs bounded by the conservative lookahead (the minimum
//   cross-partition fabric latency, see ProposeLookahead). Cross-partition
//   events are exchanged at epoch boundaries through a deterministic merge
//   rule (sort by timestamp, then by (source partition, post order)), so
//   the timeline is a pure function of the workload and NOT of the host
//   thread count: --host-threads=8 is bit-identical to --host-threads=1.
//   host_threads == 0 (the default) selects the original single-queue
//   scheduler, byte-for-byte unchanged. See DESIGN.md "Parallel
//   simulation".
//
// Failure injection
// -----------------
//   Simulation::KillNode tears a node down: its blocked threads are woken
//   with ThreadKilled (an exception type user code must not swallow), so
//   stacks unwind through RAII. Running threads die at their next blocking
//   call. The fabric drops traffic from/to dead nodes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/small_fn.h"
#include "sim/time.h"

namespace rstore::obs {
class Telemetry;
}  // namespace rstore::obs

namespace rstore::check {
class Checker;
class LinChecker;
}  // namespace rstore::check

namespace rstore::explore {
class SchedulePolicy;
}  // namespace rstore::explore

namespace rstore::sim {

// Event callbacks live inline in their partition's event slab: 48 bytes
// of capture space covers every hot-path callback (a couple of pointers
// and scalars) without a heap allocation; larger captures fall back to
// the heap transparently.
using EventFn = common::SmallFn<void(), 48>;

class Simulation;
class Node;
class SimThread;

// True when the RSTORE_HOST_THREADS environment variable requests
// partitioned scheduling for every Simulation in the process (the CI
// parallel-determinism gate). Tests that pin exact *legacy-scheduler*
// timelines use this to skip themselves under the gate.
[[nodiscard]] bool PartitionedEnvRequested();

// Thrown out of blocking calls when the hosting node has been killed (or
// the simulation is shutting down). Node programs should let it propagate;
// Node::Spawn catches it at the top of every thread.
struct ThreadKilled {};

// ---------------------------------------------------------------------------
// Node: a simulated machine. Owns its threads and a deterministic RNG
// forked from the simulation seed.
// ---------------------------------------------------------------------------
class Node {
 public:
  Node(Simulation& sim, uint32_t id, std::string name, uint64_t seed);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] bool alive() const noexcept {
    return alive_.load(std::memory_order_relaxed);
  }

  // Starts a new cooperative thread on this node at the current virtual
  // time. `fn` runs as if it were a process on the machine.
  void Spawn(std::string thread_name, std::function<void()> fn);

  // Number of this node's threads that have not yet exited.
  [[nodiscard]] size_t live_threads() const noexcept;

 private:
  friend class Simulation;
  friend class SimThread;

  Simulation& sim_;
  const uint32_t id_;
  const std::string name_;
  Rng rng_;
  // Relaxed atomic: flipped only from the owning partition's context (or
  // while all partitions are quiesced), but *read* by other partitions on
  // the fabric path-up check, so the TSan build needs the atomic.
  std::atomic<bool> alive_ = true;
  // The event queue this node's events live on. Legacy mode: the single
  // shared partition 0. Partitioned mode: a dedicated partition per node.
  struct SimPartition* partition_ = nullptr;
  std::vector<std::unique_ptr<SimThread>> threads_;
};

// ---------------------------------------------------------------------------
// Calls available from inside node threads (free functions so application
// code reads naturally). All of them abort if called from outside a
// simulated thread.
// ---------------------------------------------------------------------------

// Current virtual time.
[[nodiscard]] Nanos Now();
// Blocks the calling thread for `d` virtual nanoseconds. Also the primitive
// through which compute costs are charged.
void Sleep(Nanos d);
// Yields without advancing time (reschedules at the same instant, after
// already-queued same-time events).
void Yield();
// The node hosting the calling thread.
[[nodiscard]] Node& CurrentNode();
// True when called from within a simulated thread.
[[nodiscard]] bool InSimThread() noexcept;

// ---------------------------------------------------------------------------
// CondVar: virtual-time condition variable. The only blocking primitive
// besides Sleep; everything higher (completion queues, RPC futures, BSP
// barriers) is built from it.
//
// Partitioned mode: a CondVar must only be notified from its waiters' own
// node (or from scheduler callbacks running on that node's partition) —
// which every simulator primitive (CQs, RPC futures, BSP barriers)
// already satisfies, since they are per-node objects poked by delivery
// events on that node. Cross-partition notification is routed through the
// epoch boundary and is only safe under serialized dispatch.
// ---------------------------------------------------------------------------
class CondVar {
 public:
  explicit CondVar(Simulation& sim) : sim_(sim) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until notified. May wake spuriously only in the sense that the
  // condition the caller associates with it may no longer hold; use the
  // predicate overloads for loops.
  void Wait();
  // Blocks until notified or `timeout` elapses; true = notified.
  bool WaitFor(Nanos timeout);

  template <typename Pred>
  void WaitUntil(Pred pred) {
    while (!pred()) Wait();
  }
  // True if pred became true before the deadline.
  template <typename Pred>
  bool WaitUntilFor(Pred pred, Nanos timeout) {
    const Nanos deadline = DeadlineFrom(timeout);
    while (!pred()) {
      const Nanos now = NowInternal();
      if (now >= deadline) return false;
      if (!WaitFor(deadline - now) && !pred()) return false;
    }
    return true;
  }

  // Wakes one / all waiters. Safe to call from node threads and from
  // scheduler-context callbacks (e.g. fabric delivery).
  void NotifyOne();
  void NotifyAll();

 private:
  Nanos DeadlineFrom(Nanos timeout) const;
  Nanos NowInternal() const;

  Simulation& sim_;
  std::deque<SimThread*> waiters_;
};

// ---------------------------------------------------------------------------
// Simulation: owns the clock, the event queue(s), and the nodes.
// ---------------------------------------------------------------------------
struct SimConfig {
  uint64_t seed = 1;
  // Safety valve: Run() aborts the process if virtual time passes this.
  Nanos horizon = Seconds(36000);
  // 0 (default): the original single-queue scheduler, byte-for-byte the
  // historical behaviour. N >= 1: partitioned scheduling with one event
  // queue per node and up to N host worker threads dispatching epochs in
  // parallel. The *timeline* is identical for every N >= 1 — only wall
  // clock changes — so N=1 is the golden reference for the N=8 run.
  // Overridden by RSTORE_HOST_THREADS when left 0.
  uint32_t host_threads = 0;
  // Force epochs to dispatch partitions one at a time (in partition-id
  // order) on the calling thread, regardless of host_threads. Used by the
  // CI full-suite determinism gate, and switched on automatically when a
  // checker, an exploration policy, or span tracing is attached — those
  // layers observe a single global order, and serialized dispatch
  // produces the *same timeline* as parallel dispatch by construction.
  // Also via RSTORE_PARTITION_SERIAL.
  bool serialize_dispatch = false;
};

class Simulation {
 public:
  explicit Simulation(SimConfig config = {});
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Adds a machine to the cluster. Stable pointers; nodes live as long as
  // the simulation.
  Node& AddNode(std::string name);

  [[nodiscard]] Node& node(uint32_t id) { return *nodes_.at(id); }
  [[nodiscard]] size_t node_count() const noexcept { return nodes_.size(); }

  // Current virtual time of the calling context: a node thread or a
  // partition dispatch callback sees its partition's clock; the driver
  // (outside Run) sees the maximum over partitions. In legacy mode all of
  // these are the single global clock.
  [[nodiscard]] Nanos NowNanos() const noexcept;
  [[nodiscard]] uint64_t seed() const noexcept { return config_.seed; }

  // True when this simulation runs the partitioned scheduler
  // (host_threads >= 1).
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }
  [[nodiscard]] uint32_t host_threads() const noexcept {
    return config_.host_threads;
  }
  // Conservative lookahead bounding each epoch (minimum cross-partition
  // latency proposed by the fabric(s); kNever until one is proposed).
  [[nodiscard]] Nanos lookahead() const noexcept { return lookahead_; }
  // Minimum over all proposals wins. Models register the smallest latency
  // at which they send work across partitions (the fabric proposes its
  // base propagation delay, see cost_model.h ConservativeLookahead).
  void ProposeLookahead(Nanos l) noexcept {
    lookahead_ = l < lookahead_ ? l : lookahead_;
  }

  // Partition index of the calling context: node threads and partition
  // callbacks return their partition; the driver returns 0. Legacy mode
  // always returns 0. Used by pooled allocators (fabric messages, verbs
  // wire ops) to pick a per-partition freelist.
  [[nodiscard]] uint32_t CurrentPartitionIndex() const noexcept;
  // True when the calling context may touch `node_id`'s state directly:
  // legacy mode, driver context between runs, or the node's own
  // partition. Cross-partition work must instead be posted via
  // PostToNode.
  [[nodiscard]] bool InContextOfNode(uint32_t node_id) const noexcept;

  // Events dispatched so far (callbacks run + thread slices; stale wakes
  // excluded), summed over partitions. The denominator of the wall-clock
  // harness's events/sec.
  [[nodiscard]] uint64_t events_processed() const noexcept;
  // Subset of events_processed() that resumed a SimThread — each costs a
  // fiber switch round trip, so the slice share of the event mix is what
  // wall-clock tuning watches.
  [[nodiscard]] uint64_t thread_slices() const noexcept;

  // Schedules `fn` to run in scheduler context at virtual time `t`
  // (clamped to now). Callbacks must not block; they may notify CondVars
  // and schedule further events. The event lands on the calling context's
  // partition (driver context: partition 0).
  void At(Nanos t, EventFn fn);
  void After(Nanos delay, EventFn fn);

  // Schedules `fn` at virtual time `t` on the partition owning `node_id`,
  // from any context. Same-partition (and legacy) posts are ordinary At()
  // events; cross-partition posts are buffered in the source partition's
  // outbox and merged at the next epoch boundary under the deterministic
  // merge rule — sorted by t, then (source partition, post order) — and
  // fire at max(t, destination clock). Posts at least `lookahead()` ahead
  // of the source clock are therefore never clamped and fire at exactly
  // `t`; nearer posts (completion acks) may be deferred to the boundary,
  // deterministically.
  void PostToNode(uint32_t node_id, Nanos t, EventFn fn);

  // Runs until the event queue drains (quiescence: every thread exited or
  // blocked indefinitely with no pending event that could wake it) or a
  // stop is requested.
  void Run();
  // Runs until quiescence, a requested stop, or until virtual time would
  // exceed `deadline`.
  void RunUntil(Nanos deadline);

  // Asks the dispatch loop to return after the current slice (legacy) or
  // at the current epoch boundary (partitioned — sampling the flag only
  // at barriers is what keeps the timeline thread-count-independent).
  // Callable from node threads and scheduler callbacks; the natural way
  // for a workload driver to end a simulation whose background services
  // (heartbeats, sweepers) would otherwise generate events forever.
  void RequestStop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
  }

  // Failure injection: marks the node dead and unwinds its threads. From
  // a different partition's context this is routed through the epoch
  // boundary (the kill lands deterministically at the next barrier).
  void KillNode(uint32_t id);

  // Registers a hook run on the driver thread at the start of every
  // partitioned Run/RunUntil, before workers exist. Models use it to
  // pre-size per-partition pools and pre-resolve telemetry instruments so
  // the parallel phase never mutates shared tables.
  void AtPartitionedRunStart(std::function<void()> hook);
  // Registers a hook run on the driver thread at every epoch boundary
  // (all partitions quiescent). Used to publish cross-partition snapshot
  // state (e.g. the master's live-server count) with epoch granularity —
  // readers in epoch k see the value as of the end of epoch k-1, which is
  // a pure function of virtual time, not of worker interleaving.
  void AtEpochBarrier(std::function<void()> hook);

  // Connects an observability sink (owned by the caller, may outlive this
  // simulation and aggregate several runs). Installs the virtual clock and
  // thread-id sources, registers existing and future nodes, and routes
  // log emissions into per-level counters. Telemetry observes only — it
  // never schedules events or charges the cost model, so attaching it
  // cannot change any simulated outcome. Detached automatically at
  // destruction; pass nullptr to detach early.
  void AttachTelemetry(obs::Telemetry* telemetry);
  [[nodiscard]] obs::Telemetry* telemetry() const noexcept {
    return telemetry_;
  }

  // Connects the rcheck runtime-verification layer (src/check). Like
  // telemetry, the checker observes only — every hook is synchronous and
  // never schedules events or charges the cost model, so attaching it
  // cannot move virtual time. Owned by the caller; pass nullptr to
  // detach. When the RSTORE_RCHECK environment variable is set (and not
  // "0"), the constructor attaches an owned checker automatically and
  // Shutdown() prints its reports, dumps them as JSON (into
  // $RSTORE_RCHECK_OUT or ./rcheck_report.json), and aborts if any
  // violation was found — the CI gate. In partitioned mode an attached
  // checker serializes epoch dispatch, so its vector clocks observe one
  // global order and its reports are identical for every host thread
  // count.
  void AttachChecker(check::Checker* checker);
  [[nodiscard]] check::Checker* checker() const noexcept { return checker_; }

  // Connects the rlin linearizability checker (src/check/lin.h). Another
  // observe-only oracle: capture sites in the RKV client and the load
  // engine record per-op histories into it; recording is pure host-side
  // computation, so virtual time is bit-identical with it on or off.
  // Owned by the caller; pass nullptr to detach. When the RSTORE_RLIN
  // environment variable is set (and not "0"), the constructor attaches
  // an owned checker automatically and Shutdown() finalizes it, prints
  // reports, dumps them as JSON (into $RSTORE_RLIN_OUT or
  // ./rlin_report.json), and aborts on any violation — the CI gate. Like
  // rcheck, an attached lin checker serializes epoch dispatch in
  // partitioned mode so capture sites record in one global order.
  void AttachLinChecker(check::LinChecker* lin);
  [[nodiscard]] check::LinChecker* lin() const noexcept { return lin_; }

  // Connects a schedule-exploration policy (src/explore). Unlike telemetry
  // and the checker, a policy is an *input*: it decides scheduler
  // tie-breaks (equal-vtime event order, CondVar waiter wake order), NIC
  // egress arbitration, completion-queue delivery order, and bounded
  // fault-injection delays, so attaching one other than the baseline
  // policy legitimately changes the schedule. The policy MUST outlive the
  // simulation — it is still consulted while Shutdown() unwinds threads.
  // When the RSTORE_EXPLORE environment variable holds a parseable
  // explore::ExploreSpec ("<policy>[:<seed>[:<runs>[:<max_delay_ns>]]]"),
  // the constructor attaches an owned policy automatically; successive
  // Simulation instances in the process cycle through `runs` derived
  // seeds, and on an rcheck violation Shutdown() writes the replayable
  // decision trace next to the rcheck report (into $RSTORE_EXPLORE_OUT or
  // ./explore_trace.json) before aborting. In partitioned mode a policy
  // serializes epoch dispatch (partitions in id order), so choice points
  // fire in one canonical order under any host thread count.
  void AttachPolicy(explore::SchedulePolicy* policy);
  [[nodiscard]] explore::SchedulePolicy* policy() const noexcept {
    return policy_;
  }

  // True once destruction has begun and threads are being unwound. Blocking
  // primitives use this to decide whether the object they were waiting on
  // is still safe to touch while a ThreadKilled exception propagates.
  [[nodiscard]] bool shutting_down() const noexcept {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  // Total threads ever spawned / still live, for tests.
  [[nodiscard]] size_t live_thread_count() const noexcept;

 private:
  friend class Node;
  friend class SimThread;
  friend class CondVar;
  friend struct SimPartition;
  friend Nanos Now();
  friend void Sleep(Nanos);
  friend void Yield();

  // An event's body. Two kinds share the queue: callback events (fn set)
  // and thread wakes (wake_target set). Wakes carry the generation of the
  // block they intend to end; a stale wake is discarded *without*
  // advancing the clock, so cancelled timeouts and killed threads leave no
  // time skew. Bodies sit still in their partition's slab while queued;
  // only EventKeys move through the queue.
  struct Event {
    EventFn fn;
    SimThread* wake_target = nullptr;
    uint64_t wake_gen = 0;
    int wake_reason = 0;
  };
  // A queued event's key: when it fires, its scheduling order, and the
  // slab slot holding its body.
  //
  // Equal-vtime ordering (THE tie-break rule — pinned by
  // SameInstantEventsDispatchInFifoOrder in sim_test.cc): the queue
  // dispatches in (t, seq) order, and seq is a single monotonically
  // increasing counter *per partition* assigned at scheduling time
  // (At/After/ScheduleWake all stamp the partition's next_seq++;
  // cross-partition arrivals are stamped at the epoch merge, in
  // merge-rule order). Events at the same
  // virtual instant therefore dispatch in FIFO scheduling order — first
  // scheduled, first run — regardless of kind (callback vs thread wake).
  // An attached explore::SchedulePolicy may permute same-instant
  // candidates (ExploreTieBreak), with pick 0 defined as exactly this
  // baseline order, which is what makes the baseline policy bit-identical
  // to running with no policy at all.
  struct EventKey {
    Nanos t;
    uint64_t seq;
    uint32_t slot;
    bool operator>(const EventKey& o) const noexcept {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  using Partition = struct SimPartition;
  struct EpochSync;

  // Scheduler internals (see .cc for the fiber switch and the epoch
  // loop).
  void RunThreadSlice(SimThread* t);
  void ScheduleWake(SimThread* t, uint64_t gen, Nanos at, int reason);
  // Exploration hook: `first` was popped and more events share its
  // instant. Gathers the same-t candidates' keys, lets policy_ pick one,
  // and re-pushes the rest (seqs preserved, so the baseline order
  // survives). Only reached under serialized dispatch (attaching a policy
  // serializes), so the shared scratch vectors are safe.
  EventKey ExploreTieBreak(Partition& p, EventKey first);
  // The dispatch loop shared by every mode. Runs events with t <= deadline
  // and (when `until` != kNever) t < until, on one partition. `obey_stop`
  // checks stop_requested_ before every event (legacy semantics); epochs
  // pass false and sample the flag at barriers instead.
  void DispatchPartition(Partition& p, Nanos deadline, Nanos until,
                         bool obey_stop);
  void DispatchShare(uint32_t worker, uint32_t stride, Nanos deadline,
                     Nanos until);
  void RunPartitionedUntil(Nanos deadline);
  void SweepKilledThreads(Node& node);
  // Deterministic epoch merge: drains every partition's outbox (ascending
  // partition id, each in post order), stable-sorts each destination's
  // arrivals by t — yielding (t, source partition, post order) total
  // order — and stamps destination seqs in that order.
  void FlushOutboxes();
  [[nodiscard]] Partition* CurrentPartition() const noexcept;
  void Shutdown();
  [[nodiscard]] uint64_t AllocateTid() noexcept {
    return next_tid_.fetch_add(1, std::memory_order_relaxed);
  }

  SimConfig config_;
  bool partitioned_ = false;
  Rng seeder_;
  // Virtual clock seen by the driver between runs: the max over partition
  // clocks at the last dispatch exit (legacy: the single global clock).
  Nanos driver_now_ = 0;
  Nanos lookahead_ = kNever;
  // Partitions are stable (unique_ptr) and declared before nodes_ so node
  // teardown can still reach its partition. Legacy mode: exactly one.
  // Partitioned mode: partition 0 carries driver-scheduled events; node i
  // owns partition i+1.
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<bool> shutting_down_ = false;
  std::atomic<bool> stop_requested_ = false;
  obs::Telemetry* telemetry_ = nullptr;
  check::Checker* checker_ = nullptr;
  std::unique_ptr<check::Checker> owned_checker_;  // RSTORE_RCHECK=1 mode
  check::LinChecker* lin_ = nullptr;
  std::unique_ptr<check::LinChecker> owned_lin_;  // RSTORE_RLIN=1 mode
  explore::SchedulePolicy* policy_ = nullptr;
  std::unique_ptr<explore::SchedulePolicy> owned_policy_;  // RSTORE_EXPLORE
  // Pooled scratch for ExploreTieBreak / CondVar waiter picks — only ever
  // touched from scheduler context / the single active thread (policies
  // force serialized dispatch).
  std::vector<EventKey> tie_keys_;
  std::vector<uint32_t> tie_lanes_;
  std::vector<size_t> waiter_pick_scratch_;
  std::vector<uint32_t> waiter_lane_scratch_;
  // Epoch-merge scratch (driver thread only, at barriers): per destination
  // partition, the keys of arrivals already stored in its slab.
  std::vector<std::vector<EventKey>> merge_scratch_;
  std::vector<uint32_t> merge_dirty_;
  std::vector<std::function<void()>> prepare_hooks_;
  std::vector<std::function<void()>> barrier_hooks_;
  // Livelock guard: a policy that keeps favouring a Yield-spinning lane
  // could pin virtual time forever. After this many consecutive
  // same-instant tie-break consultations the scheduler falls back to the
  // baseline FIFO pick until time advances. Deterministic (a pure
  // function of the schedule), so replay is unaffected.
  static constexpr uint64_t kMaxSameInstantPicks = 65536;
  std::atomic<uint64_t> next_tid_ = 1;  // SimThread ids; 0 = scheduler ctx
};

}  // namespace rstore::sim
