// rverbs: an ibverbs-like RDMA API over the simulated fabric.
//
// The RStore layers above are written against this API exactly as they
// would be against OFED verbs: applications register memory regions (MRs)
// with a protection domain, exchange (remote_addr, rkey) pairs out of
// band, connect reliable-connection queue pairs (QPs), and then post
// work requests — two-sided SEND/RECV and one-sided RDMA READ / WRITE /
// WRITE_WITH_IMM plus 8-byte atomics — whose completions surface on
// completion queues (CQs).
//
// Modelled semantics (the subset RC hardware guarantees that matters
// here):
//   * Work requests on one QP execute and complete in post order.
//   * One-sided operations never involve the target CPU; the simulator
//     executes them in scheduler context against the target MR, charging
//     only fabric time (this is precisely the paper's "direct access").
//   * rkey, bounds and access-flag violations produce an error completion
//     on the initiator and move the QP to the error state; outstanding
//     and subsequent work flushes with kWrFlushErr, as on real HCAs.
//   * Lost messages (partition, dead peer) surface as kRetryExceeded
//     after the fabric's drop-detection delay (RC retry budget).
//   * A SEND with no posted RECV waits in a bounded RNR buffer.
//
// Cost model: each posted work request pays CpuCostModel::verbs_post_ns
// of initiator-side latency before entering the wire model (descriptor +
// doorbell). Completion-queue polling is free (busy polling is the
// norm for RDMA applications and overlaps with progress).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/small_fn.h"
#include "common/status.h"
#include "sim/cost_model.h"
#include "sim/fabric.h"
#include "sim/simulation.h"

namespace rstore::obs {
class Counter;
class Timer;
class Telemetry;
}  // namespace rstore::obs

namespace rstore::verbs {

class Device;
class ProtectionDomain;
class CompletionQueue;
class QueuePair;
class Network;
struct WireOp;

// Access permissions for memory regions, OR-able.
enum Access : uint32_t {
  kLocalWrite = 1u << 0,
  kRemoteRead = 1u << 1,
  kRemoteWrite = 1u << 2,
  kRemoteAtomic = 1u << 3,
};

enum class Opcode : uint8_t {
  kSend,
  kRecv,
  kRdmaWrite,
  kRdmaWriteWithImm,
  kRdmaRead,
  kCompareSwap,
  kFetchAdd,
};

enum class WcStatus : uint8_t {
  kSuccess,
  kLocalProtErr,    // bad lkey / local bounds
  kRemAccessErr,    // bad rkey, remote bounds, or missing access flag
  kRemOpErr,        // remote peer could not execute (e.g. misaligned atomic)
  kRetryExceeded,   // transport gave up (partition / dead peer)
  kRnrRetryExceeded,  // receiver never posted a buffer
  kWrFlushErr,      // QP entered error state before this WR executed
};

std::string_view ToString(WcStatus status) noexcept;
std::string_view ToString(Opcode op) noexcept;

// Callback reporting the initiator-side outcome of a target-side step
// (status, bytes transferred). Small-buffer: the ack path captures
// {queue pair, sequence number, wire stamps}.
using CompletionFn = common::SmallFn<void(WcStatus, uint32_t), 72>;

// Virtual-time stamps of one work request's trip through the modelled
// NIC and fabric, assigned as the op crosses each boundary and carried on
// every internal copy (SqEntry, WireOp, the RC ack) back onto the
// WorkCompletion. Pure observation: stamps are written with values the
// scheduler already computed, never read to make a scheduling decision,
// so carrying them cannot move virtual time (the rtrace zero-probe-effect
// contract, see src/obs/rtrace.h). All zero when a stage was never
// reached (loopback sends bypass the egress/wire model, recv-side
// completions have no initiator-side doorbell).
struct WireStamps {
  sim::Nanos posted = 0;     // doorbell rang; request handed to the fabric
  sim::Nanos tx_start = 0;   // egress serialization began at the initiator
  sim::Nanos first_bit = 0;  // first bit reached the target NIC
  sim::Nanos executed = 0;   // target-side execution instant (DRAM touched)
  sim::Nanos pushed = 0;     // CQE entered the initiator's completion queue
};

// A completed work request.
struct WorkCompletion {
  uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  Opcode opcode = Opcode::kSend;
  uint32_t byte_len = 0;            // bytes transferred (recv/read)
  std::optional<uint32_t> imm;      // present for recv of WRITE_WITH_IMM/SEND w/ imm
  uint32_t qp_num = 0;
  uint32_t src_node = 0;            // peer node id (recv side convenience)
  uint32_t check_ref = 0;           // rcheck pending-op handle (0 = untracked)
  bool recv_side = false;           // completion surfaced on the receiver CQ
  WireStamps stamps{};              // wire trip breakdown (initiator side)

  [[nodiscard]] bool ok() const noexcept {
    return status == WcStatus::kSuccess;
  }
};

// Registered memory region.
class MemoryRegion {
 public:
  [[nodiscard]] std::byte* addr() const noexcept { return addr_; }
  [[nodiscard]] uint64_t length() const noexcept { return length_; }
  [[nodiscard]] uint32_t lkey() const noexcept { return lkey_; }
  [[nodiscard]] uint32_t rkey() const noexcept { return rkey_; }
  [[nodiscard]] uint32_t access() const noexcept { return access_; }
  // Address as it travels on the wire (the simulated "remote VA").
  [[nodiscard]] uint64_t remote_addr() const noexcept {
    return reinterpret_cast<uint64_t>(addr_);
  }
  [[nodiscard]] bool Covers(uint64_t addr, uint64_t len) const noexcept;

 private:
  friend class ProtectionDomain;
  MemoryRegion(std::byte* addr, uint64_t length, uint32_t lkey, uint32_t rkey,
               uint32_t access)
      : addr_(addr), length_(length), lkey_(lkey), rkey_(rkey),
        access_(access) {}

  std::byte* addr_;
  uint64_t length_;
  uint32_t lkey_;
  uint32_t rkey_;
  uint32_t access_;
};

// Local scatter-gather element.
struct Sge {
  std::byte* addr = nullptr;
  uint32_t length = 0;
  uint32_t lkey = 0;
};

// Send-queue work request.
//
// Gather/scatter: a WR carries up to kMaxSge local elements — `local`
// is SGE 0, `sge_tail` holds the rest (appended after the original
// fields so existing designated initializers keep compiling). For WRITE
// the SGEs gather into one contiguous remote range; for READ the remote
// range scatters across them. Atomics and zero-length ops use SGE 0
// only.
//
// Doorbell batching: `next` links WRs into a chain; PostSend posts the
// whole chain under a single doorbell (one initiator post cost), as
// ibv_post_send does. The chain is consumed synchronously — the pointed
// -to WRs need only outlive the PostSend call.
struct SendWr {
  static constexpr uint32_t kMaxSge = 4;

  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  Sge local;                 // source (send/write) or destination (read)
  uint64_t remote_addr = 0;  // one-sided ops & atomics
  uint32_t rkey = 0;
  std::optional<uint32_t> imm = std::nullopt;  // SEND and WRITE_WITH_IMM
  uint64_t compare = 0;      // kCompareSwap
  uint64_t swap_or_add = 0;  // kCompareSwap / kFetchAdd
  bool signaled = true;      // errors always complete, success only if set
  uint32_t num_sge = 1;      // SGEs in use: `local` + (num_sge-1) of tail
  std::array<Sge, kMaxSge - 1> sge_tail{};
  const SendWr* next = nullptr;  // doorbell chain; not owned
  // rcheck pending-op handle. Assigned on the send-queue copy at post time
  // (never on the caller's struct) and rides every internal copy of the WR
  // — SqEntry, WireOp, RNR parking — so target-side execution and both
  // completion queues can report against the same shadow operation.
  uint32_t check_ref = 0;

  [[nodiscard]] const Sge& sge(uint32_t i) const noexcept {
    return i == 0 ? local : sge_tail[i - 1];
  }
  [[nodiscard]] Sge& sge(uint32_t i) noexcept {
    return i == 0 ? local : sge_tail[i - 1];
  }
  [[nodiscard]] Sge& last_sge() noexcept { return sge(num_sge - 1); }
  [[nodiscard]] uint64_t total_length() const noexcept {
    uint64_t n = 0;
    for (uint32_t i = 0; i < num_sge; ++i) n += sge(i).length;
    return n;
  }
  // Appends a gather/scatter element; false when the WR is full.
  bool AppendSge(const Sge& s) noexcept {
    if (num_sge >= kMaxSge) return false;
    sge_tail[num_sge - 1] = s;
    ++num_sge;
    return true;
  }
};

// Receive-queue work request.
struct RecvWr {
  uint64_t wr_id = 0;
  Sge local;
};

// Internal: one operation in flight on the wire. Pooled by the Network so
// fabric callbacks capture only {network, op} — two pointers, well within
// the fabric's inline callback storage. Acquired at doorbell time,
// released exactly once when the op's last wire event fires.
struct WireOp {
  QueuePair* initiator = nullptr;
  SendWr wr;  // chain pointer cleared; SGE array owned by value
  uint64_t seq = 0;
  uint32_t src_node = 0;
  uint32_t dst_node = 0;
  uint32_t dst_qp = 0;
  // The op's data travels in this bounce buffer instead of being read
  // through raw SGE/MR pointers at the far end, under every scheduler, so
  // no partition ever touches another partition's memory. Gathered from
  // the source SGEs at doorbell time (SEND/WRITE), or filled from the
  // target MR at execute time (READ response). Capacity persists across
  // pool reuse: every path reads it in place, and a SEND that parks in
  // RNR copies it out.
  std::vector<std::byte> payload;
  // Wire trip stamps accumulated as the op crosses each boundary; copied
  // onto the initiator-side WorkCompletion (via the ack / response path).
  WireStamps stamps{};
};

// Completion queue. Unbounded (real CQ overflow is a provisioning bug the
// simulation treats as out of scope).
class CompletionQueue {
 public:
  // `node_id` attributes telemetry (CQ batch-size distribution) to the
  // owning node; kNoNode skips attribution.
  static constexpr uint32_t kNoNode = ~0u;
  explicit CompletionQueue(sim::Simulation& sim, uint32_t node_id = kNoNode)
      : sim_(sim), node_id_(node_id), ready_(sim) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  // Non-blocking: moves up to max_entries completions out.
  std::vector<WorkCompletion> Poll(size_t max_entries = 16);
  // Blocking: waits until at least one completion or timeout; empty vector
  // on timeout. Must be called from a simulated thread.
  std::vector<WorkCompletion> WaitPoll(size_t max_entries = 16,
                                       sim::Nanos timeout = sim::kNever);
  // Convenience: wait for exactly one completion.
  Result<WorkCompletion> WaitOne(sim::Nanos timeout = sim::kNever);

  // Allocation-free variants: append up to max_entries completions into
  // `out` (which the caller clears and reuses across polls), returning the
  // number appended. One wake drains everything ready — the batch analogue
  // of ibv_poll_cq into a caller-owned WC array.
  //
  // `min_entries` is the wake threshold (interrupt moderation): the wait
  // does not wake until that many completions are ready, so a caller that
  // knows it needs N more completions pays one thread wake instead of N.
  // Virtual-time semantics are unchanged — the Nth completion arrives at
  // the same instant whether the queue was drained eagerly or not — and a
  // timeout still fires even if the threshold is never reached. With
  // concurrent waiters the threshold degrades conservatively (extra
  // wakes, never missed ones).
  size_t PollInto(std::vector<WorkCompletion>& out,
                  size_t max_entries = SIZE_MAX);
  size_t WaitPollInto(std::vector<WorkCompletion>& out,
                      size_t min_entries = 1, size_t max_entries = SIZE_MAX,
                      sim::Nanos timeout = sim::kNever);

  [[nodiscard]] size_t pending() const noexcept { return entries_.size(); }

 private:
  friend class QueuePair;
  friend class Device;
  void Push(WorkCompletion wc);
  // Wakes waiters whose registered threshold the queue now meets.
  void NotifyIfReady();
  // Exploration: flushes held-back completions into the visible queue.
  void ReleaseHeld();
  // Registers the caller's threshold, blocks until reached or timeout.
  void WaitReady(size_t min_entries, sim::Nanos timeout);
  void RecordBatch(size_t n);

  sim::Simulation& sim_;
  const uint32_t node_id_;
  std::deque<WorkCompletion> entries_;
  // Exploration state (see Push): completions an attached
  // explore::SchedulePolicy is holding back (kCompletionDelay), in NIC
  // push order. While anything is held, *every* new completion joins the
  // held tail — all-or-nothing holding is what keeps per-QP CQE order
  // intact, exactly like a real CQ under interrupt moderation. The
  // release event re-checks hold_epoch_ so extending the hold supersedes
  // earlier release events.
  std::deque<WorkCompletion> held_;
  sim::Nanos hold_release_at_ = 0;
  uint64_t hold_epoch_ = 0;
  // Lazily resolved telemetry instrument (see fabric.h for the pattern).
  obs::Telemetry* obs_owner_ = nullptr;
  obs::Timer* obs_batch_ = nullptr;
  // min_entries of every blocked waiter; Push notifies only when the
  // smallest registered threshold is met.
  std::vector<size_t> waiter_minima_;
  sim::CondVar ready_;
};

// Protection domain: scopes MRs and QPs, hands out keys.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(Device& device) : device_(device) {}
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  // Registers [addr, addr+length) with the given access flags. The caller
  // keeps ownership of the memory and must keep it alive until
  // deregistration. Returns a stable, device-owned handle.
  Result<MemoryRegion*> RegisterMemory(std::byte* addr, uint64_t length,
                                       uint32_t access);
  Status DeregisterMemory(MemoryRegion* mr);

  [[nodiscard]] Device& device() noexcept { return device_; }

 private:
  Device& device_;
};

struct QpConfig {
  uint32_t max_send_wr = 512;   // outstanding send-queue WRs
  uint32_t max_recv_wr = 4096;  // posted receive buffers
};

// Reliable-connection queue pair. Create via Device::CreateQueuePair, then
// connect both ends via the Network/Connector helpers (which mirror
// rdma_cm). After Connect the QP is in RTS and accepts posts.
class QueuePair {
 public:
  enum class State : uint8_t { kInit, kRts, kError };

  Status PostSend(const SendWr& wr);
  Status PostRecv(const RecvWr& wr);

  // Tears the QP down (ibv_destroy_qp analogue): moves it to the error
  // state and flushes all posted work. Arriving wire traffic is NAKed to
  // the sender from then on. Call before freeing buffers that are still
  // posted to this QP.
  void Close() { EnterError(); }

  [[nodiscard]] uint32_t qp_num() const noexcept { return qp_num_; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] uint32_t peer_node() const noexcept { return peer_node_; }
  [[nodiscard]] uint32_t peer_qp_num() const noexcept { return peer_qp_num_; }
  [[nodiscard]] CompletionQueue& send_cq() noexcept { return *send_cq_; }
  [[nodiscard]] CompletionQueue& recv_cq() noexcept { return *recv_cq_; }
  [[nodiscard]] Device& device() noexcept { return device_; }

  // Number of send WRs posted but not yet completed.
  [[nodiscard]] size_t outstanding() const noexcept { return sq_.size(); }
  // Send-queue slots still free: a PostSend chain longer than this fails
  // with kOutOfMemory. Multiplexers stage and re-flush against it instead
  // of tripping the error (see load::SessionMux).
  [[nodiscard]] size_t send_headroom() const noexcept {
    return sq_.size() >= config_.max_send_wr
               ? 0
               : config_.max_send_wr - sq_.size();
  }

 private:
  friend class Device;
  friend class Network;

  struct SqEntry {
    SendWr wr;
    bool done = false;
    WcStatus status = WcStatus::kSuccess;
    uint32_t byte_len = 0;
    WireStamps stamps{};
  };

  struct RnrEntry {
    SendWr wr;
    uint32_t src_node;
    CompletionFn on_executed;
    bool data_already_placed;
    // The parked SEND's doorbell-time data, copied out of the pooled
    // bounce buffer (which is reused as soon as the op is released, as
    // are the initiator's buffers once its completion fires). Empty when
    // the data is already placed (WRITE_WITH_IMM).
    std::vector<std::byte> payload;
  };

  QueuePair(Device& device, uint32_t qp_num, CompletionQueue* send_cq,
            CompletionQueue* recv_cq, QpConfig config);

  void ConnectTo(uint32_t peer_node, uint32_t peer_qp_num);
  // Rings the doorbell for sq entries [first_seq, first_seq+count):
  // issues one fabric message per WR (scheduler context, after the post
  // cost). Entries flushed in the interim are skipped.
  void IssueDoorbell(uint64_t first_seq, uint32_t count);
  // Target-side execution of an arriving op (scheduler context). `this`
  // is the *initiator* QP; `tqp` the target QP (only used for two-sided).
  // Takes ownership of `op` (released when its last wire event fires).
  void ExecuteAtTarget(Network& net, Device& target, QueuePair& tqp,
                       WireOp* op);
  // Target side of SEND / WRITE_WITH_IMM: consume a RECV or park in RNR.
  // `payload` is the op's doorbell-time bounce buffer (empty when the
  // data is already placed); it is copied into the RNR entry only if the
  // SEND parks.
  void AcceptSend(const SendWr& wr, uint32_t src_node,
                  CompletionFn on_executed, bool data_already_placed,
                  const std::vector<std::byte>& payload = {});
  void MatchRecv(const SendWr& wr, uint32_t src_node, CompletionFn& done,
                 bool data_already_placed,
                 const std::vector<std::byte>& payload);
  // Initiator-side completion of sq entry `seq` (scheduler context).
  // `stamps` is the op's wire trip record (pushed is stamped here, at the
  // instant the CQE actually enters the CQ — which for entries held by
  // in-order draining is later than the ack arrival).
  void CompleteSq(uint64_t seq, WcStatus status, uint32_t byte_len,
                  WireStamps stamps = {});
  // Same, callable from any partition: routes to the initiator's
  // partition when the caller runs elsewhere (target-side execution,
  // response drops), at the current virtual instant — the modelled
  // completion time is unchanged, only the mutation site moves. Legacy
  // mode calls CompleteSq directly, byte-identical to before.
  void CompleteSqFromWire(uint64_t seq, WcStatus status, uint32_t byte_len,
                          WireStamps stamps = {});
  // Initiator-side completion delivered by an RC ack message from the
  // target: write/send completions ride the fabric back like read and
  // atomic responses, so no cross-node completion is zero-latency.
  void CompleteSqViaAck(Network& net, uint32_t target_node, uint64_t seq,
                        WcStatus status, uint32_t byte_len,
                        WireStamps stamps = {});
  void FlushAll(WcStatus status);
  void EnterError();

  Device& device_;
  const uint32_t qp_num_;
  QpConfig config_;
  State state_ = State::kInit;
  uint32_t peer_node_ = 0;
  uint32_t peer_qp_num_ = 0;

  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  std::unique_ptr<CompletionQueue> owned_send_cq_;
  std::unique_ptr<CompletionQueue> owned_recv_cq_;

  // Send queue in post order; completions drain the done prefix so CQEs
  // are in order even when the wire reorders logically (e.g. read vs
  // write round trips).
  std::deque<SqEntry> sq_;
  uint64_t sq_base_seq_ = 0;  // seq of sq_.front()
  uint64_t sq_next_seq_ = 0;

  std::deque<RecvWr> rq_;
  // SENDs that arrived before a RECV was posted (RNR buffer).
  std::deque<RnrEntry> rnr_buffer_;
  static constexpr size_t kMaxRnrBuffered = 1024;

  // Lazily resolved telemetry instruments for the post path.
  obs::Telemetry* obs_owner_ = nullptr;
  obs::Counter* obs_doorbells_ = nullptr;
  obs::Counter* obs_wrs_ = nullptr;
  obs::Timer* obs_wrs_per_doorbell_ = nullptr;
  obs::Timer* obs_sges_per_doorbell_ = nullptr;
};

// The per-node HCA. Owns PDs, MRs, CQs and QPs; routes arriving one-sided
// operations against the MR table.
class Device {
 public:
  [[nodiscard]] uint32_t node_id() const noexcept { return node_.id(); }
  [[nodiscard]] sim::Node& node() noexcept { return node_; }
  [[nodiscard]] Network& network() noexcept { return network_; }

  ProtectionDomain& CreatePd();
  CompletionQueue& CreateCq();
  // QP with private CQs (send_cq/recv_cq null) or caller-shared CQs.
  QueuePair& CreateQueuePair(QpConfig config = {},
                             CompletionQueue* send_cq = nullptr,
                             CompletionQueue* recv_cq = nullptr);

  // MR lookup used by the simulated wire (target side).
  [[nodiscard]] MemoryRegion* FindMrByRkey(uint32_t rkey);
  [[nodiscard]] MemoryRegion* FindMrByLkey(uint32_t lkey);
  [[nodiscard]] QueuePair* FindQp(uint32_t qp_num);

  // Validates a local SGE against the MR table (lkey, bounds, and —
  // when writing into it — kLocalWrite).
  [[nodiscard]] Status ValidateLocal(const Sge& sge, bool will_write);

 private:
  friend class Network;
  friend class ProtectionDomain;
  friend class QueuePair;

  Device(Network& network, sim::Node& node);

  Network& network_;
  sim::Node& node_;
  uint32_t next_key_ = 1;
  // QP numbers are allocated per device (FindQp is per-device, and both
  // CreateQueuePair call sites — client connect, server accept — run on
  // the owning node's partition), so numbering is deterministic under the
  // partitioned scheduler regardless of host-thread interleaving.
  uint32_t next_qp_index_ = 0;

  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::unordered_map<uint32_t, std::unique_ptr<MemoryRegion>> mrs_by_lkey_;
  std::unordered_map<uint32_t, MemoryRegion*> mrs_by_rkey_;
  std::unordered_map<uint32_t, std::unique_ptr<QueuePair>> qps_;
};

// Network: the verbs-visible cluster — one Device per node over one
// Fabric, plus the rdma_cm-style connection establishment service.
class Network {
 public:
  Network(sim::Simulation& sim, sim::NicConfig nic = {},
          sim::CpuCostModel cpu = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // One device per node; idempotent per node.
  Device& AddDevice(sim::Node& node);
  [[nodiscard]] Device& device(uint32_t node_id);

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] sim::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const sim::CpuCostModel& cpu_model() const noexcept {
    return cpu_;
  }

  // --- Connection management (rdma_cm flavoured) ---------------------
  // A Listener accepts connections on (node, service_id). Accept blocks
  // the calling (server) thread until a peer connects; the returned QP is
  // in RTS. Connection setup costs ~3 control RTTs plus QP programming
  // time on both ends — deliberately heavyweight, as on real hardware;
  // RStore's control/data separation exists precisely to amortize this.
  class Listener {
   public:
    Result<QueuePair*> Accept(sim::Nanos timeout = sim::kNever);
    [[nodiscard]] size_t backlog() const noexcept { return pending_.size(); }

   private:
    friend class Network;
    Listener(Network& net, Device& dev, uint32_t service_id, QpConfig config,
             CompletionQueue* send_cq, CompletionQueue* recv_cq);
    Network& net_;
    Device& dev_;
    uint32_t service_id_;
    QpConfig config_;
    CompletionQueue* send_cq_;
    CompletionQueue* recv_cq_;
    std::deque<QueuePair*> pending_;
    sim::CondVar ready_;
  };

  // Creates (or returns the existing) listener for (device, service_id).
  Listener& Listen(Device& device, uint32_t service_id, QpConfig config = {},
                   CompletionQueue* send_cq = nullptr,
                   CompletionQueue* recv_cq = nullptr);

  // Client side: blocks until the QP pair is established (or fails when
  // the peer is unreachable / not listening).
  Result<QueuePair*> Connect(Device& device, uint32_t remote_node,
                             uint32_t service_id, QpConfig config = {},
                             CompletionQueue* send_cq = nullptr,
                             CompletionQueue* recv_cq = nullptr);

  // Time to program a QP into RTS on one end (control-path cost).
  [[nodiscard]] sim::Nanos qp_setup_cost() const noexcept {
    return sim::Micros(40);
  }

 private:
  friend class QueuePair;
  friend class ProtectionDomain;
  friend class Device;

  // Wire-op pool (stable storage + freelist); see WireOp. One pool per
  // partition index so concurrent partitions never contend — acquired
  // from the doorbell-ringing partition, released into whichever
  // partition fires the op's last wire event (pool membership does not
  // affect the timeline). Legacy mode uses pool 0 only.
  WireOp* AcquireWireOp();
  void ReleaseWireOp(WireOp* op);
  void PrepareForPartitionedRun();

  sim::Simulation& sim_;
  sim::Fabric fabric_;
  sim::CpuCostModel cpu_;
  std::vector<std::unique_ptr<Device>> devices_;             // by node id
  // Guards the listener map: Listen runs on the server's partition while
  // Connect resolves the key on the *connecting* side's CM message
  // arrival. Listener objects themselves are only touched on their
  // owning node's partition.
  std::mutex listeners_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Listener>> listeners_;
  struct OpPool {
    std::deque<WireOp> arena;
    std::vector<WireOp*> free;
  };
  std::deque<OpPool> op_pools_;
};

}  // namespace rstore::verbs
