// rcheck: happens-before race and access-lifetime checker for the
// one-sided data path.
//
// One-sided RDMA removes the server-side serialization point that would
// catch conflicting accesses, so write/write races on a shared region,
// reads overlapping an un-fenced remote write, and accesses after
// Rfree/DeregisterMemory/Runmap all complete *successfully* — on real
// hardware and in this simulator. The deterministic virtual-time
// scheduler gives us what hardware cannot: an exact global order of
// events to check a happens-before relation against.
//
// The algorithm is TSan's vector-clock race detection keyed to virtual
// time, with one load-bearing simplification: clocks are per simulated
// *node*, not per thread. Threads on one node are cooperatively
// scheduled and hand data between each other through ordinary memory,
// so intra-node ordering is implicit; the races worth finding are the
// cross-node ones the one-sided data path creates. Consequences:
//   - CondVar and scheduler hand-offs are intra-node and thus subsumed
//     by the node clock; the hooks only tick the node's own component
//     so stamps stay strictly monotone across blocking points.
//   - Two accesses issued by the same node never race by definition.
//   - Neither do accesses to different nodes' memory. Records carry
//     the node owning the bytes (the target of a remote access, the
//     initiator of a local one): all nodes share one host address
//     space, so a buffer one node freed can come back at the same
//     address on another node.
//
// Happens-before edges (see DESIGN.md for the full table):
//   - message edges: a verbs SEND (and RDMA-write-with-imm) carries the
//     sender's clock at post time; the receiver joins it when it polls
//     the receive completion. RPC request/reply pairs — and therefore
//     the master's notify channels — come free from this edge.
//   - completion edges: an initiator's records are stamped with its own
//     clock component when it *polls* the completion, not when the NIC
//     finishes. An un-fenced write (posted, never awaited) therefore
//     stays "pending" and races with any overlapping access.
//   - atomic edges: remote CAS/FAA on an 8-byte cell act as
//     release(post clock -> cell) at execute and acquire(cell -> node)
//     at completion poll. Annotated seqlock accesses (SyncCellScope)
//     get the same treatment.
//
// Every hook is synchronous, never schedules events, and never touches
// the RNG or the clock, so rcheck on cannot move virtual time; rcheck
// off is a single pointer compare at each hook site.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rstore::check {

class Checker;

// What a shadow access does to memory; atomic/atomic pairs never
// conflict, everything else conflicts unless both are reads.
enum class AccessKind : uint8_t { kRead = 0, kWrite = 1, kAtomic = 2 };

// Transport class of a posted work request, as seen by OnPost.
enum class OpClass : uint8_t {
  kMessage = 0,      // two-sided SEND: clock edge only, no shadow records
  kRemoteRead = 1,   // one-sided read of target memory
  kRemoteWrite = 2,  // one-sided write of target memory
  kRemoteAtomic = 3, // CAS / fetch-add on an 8-byte target cell
};

enum class ViolationType : uint8_t {
  kRace = 0,           // conflicting accesses with no happens-before edge
  kUseAfterFree = 1,   // access to a region after the master freed it
  kUseAfterDereg = 2,  // local buffer deregistered with the op in flight
  kUseAfterUnmap = 3,  // post through a mapping the client Runmap'd
  kGrowRace = 4,       // Rgrow while ops on the region were in flight
  kCacheMode = 5,      // remote write violating a declared cache contract
};

[[nodiscard]] std::string_view ToString(ViolationType t) noexcept;
[[nodiscard]] std::string_view ToString(AccessKind k) noexcept;

// One side of a violation: which node did what, to which bytes, when.
struct Endpoint {
  uint32_t node = 0;
  uint64_t vtime = 0;    // virtual time the access was recorded
  uint64_t lo = 0;       // absolute byte range [lo, hi)
  uint64_t hi = 0;
  AccessKind kind = AccessKind::kRead;
  bool remote = false;   // one-sided access to another node's memory
  bool pending = false;  // completion never observed (un-fenced)
  std::string label;     // op context, e.g. "client.write" / "kv.put"
};

struct Violation {
  ViolationType type = ViolationType::kRace;
  uint32_t target_node = 0;     // node owning the memory involved
  uint64_t region_id = 0;       // 0 when the bytes are not in a region
  std::string region_name;
  uint64_t region_lo = 0;       // region-relative overlap [lo, hi)
  uint64_t region_hi = 0;
  Endpoint a;                   // earlier / existing access
  Endpoint b;                   // later access that exposed the bug
  std::string detail;
};

// Local scatter/gather range of a posted work request.
struct LocalRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

class Checker {
 public:
  Checker();
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // Virtual-time source; installed by Simulation::AttachChecker.
  void SetClock(std::function<uint64_t()> now) { now_ = std::move(now); }

  // --- scheduler edges (src/sim) -----------------------------------
  // A thread slice started on `node`; ticks the node clock so stamps
  // taken on either side of a hand-off are distinguishable.
  void OnThreadSlice(uint32_t node);
  // A CondVar notify by a thread on `node`. Intra-node by construction
  // (per-node clocks), so this only ticks the node's own component.
  void OnCondNotify(uint32_t node);

  // --- verbs hooks (src/verbs) -------------------------------------
  // A work request was validated and queued. Returns a reference that
  // the transport threads through the wire op and the completion, or 0
  // when the access is not tracked (speculative scope). `expected`
  // is how many completion-poll observations retire the op (2 for
  // SEND / write-with-imm: sender CQ + receiver CQ; 1 otherwise).
  uint32_t OnPost(uint32_t initiator, uint32_t target, OpClass cls,
                  uint64_t remote_lo, uint64_t remote_hi,
                  const LocalRange* sges, uint32_t n_sges,
                  uint32_t expected);
  // The op touched target memory (runs at the target, in virtual-time
  // order): records the remote shadow access and runs race, lifetime
  // and cache-contract checks.
  void OnExecute(uint32_t ref);
  // The NIC finished the op (completion pushed): the buffers are no
  // longer in use by hardware even if the app never polls. ok=false
  // aborts the op (flush/retry-exceeded) without stamping.
  void OnSettle(uint32_t ref, bool ok);
  // The app polled the completion on `node`'s CQ. recv_side marks the
  // receiver's half of a SEND / write-with-imm (joins the sender's
  // post clock instead of stamping records).
  void OnObserve(uint32_t ref, uint32_t node, bool recv_side, bool ok);
  // A memory region was deregistered; any un-settled op still scattering
  // or gathering through [lo, hi) on `node` is a use-after-deregister.
  void OnDeregister(uint32_t node, uint64_t lo, uint64_t hi);

  // --- master region lifecycle (src/core) --------------------------
  // Registers one slab of a region (primary or replica). Overlapping
  // stale ranges from freed regions are evicted (slab reuse).
  void OnRegionSlab(uint64_t region_id, std::string_view name,
                    uint64_t slab_size, uint32_t node, uint64_t lo,
                    uint64_t hi, uint64_t region_off);
  // Marks every slab of the region dead; later accesses that land on a
  // dead range report use-after-Rfree.
  void OnRegionFree(uint64_t region_id);
  // Called when the master grows a region, before the new slabs are
  // registered: any op still in flight against the region races the
  // grow.
  void OnRegionGrow(uint64_t region_id, uint32_t master_node);

  // --- client mapping lifecycle (src/core) -------------------------
  void OnMap(uint32_t node, uint64_t region_id);
  void OnUnmap(uint32_t node, uint64_t region_id);

  // --- cache-mode contract (src/cache via src/core) ----------------
  // Region-relative byte ranges. A kEpoch client wrote through its
  // cache: until it bumps the epoch, no *other* node may write these
  // bytes remotely.
  void OnCacheWriteThrough(uint32_t node, uint64_t region_id,
                           uint64_t lo, uint64_t hi);
  // A kImmutable client filled these bytes into its cache: no other
  // node may ever write them remotely while they stay resident.
  void OnCacheResident(uint32_t node, uint64_t region_id, uint64_t lo,
                       uint64_t hi);
  // The client's cache dropped/evicted these bytes: both contracts end.
  void OnCacheDrop(uint32_t node, uint64_t region_id, uint64_t lo,
                   uint64_t hi);
  // The kEpoch client bumped its epoch: its write-through set clears.
  void OnEpochBump(uint32_t node, uint64_t region_id);

  // --- results -----------------------------------------------------
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] size_t violation_count() const noexcept {
    return violations_.size();
  }
  // Human-readable two-endpoint reports, one block per violation.
  void PrintReports(std::ostream& os) const;
  // Machine-readable dump consumed by tools/rcheck_report.
  void DumpJson(std::ostream& os) const;

 private:
  using Clock = std::vector<uint64_t>;
  // Merged, half-open [lo, hi) intervals.
  using IntervalSet = std::map<uint64_t, uint64_t>;

  static constexpr uint64_t kPendingStamp = ~uint64_t{0};
  static constexpr uint64_t kPageShift = 16;  // 64 KiB shadow pages
  static constexpr size_t kPageRing = 8;

  struct Record {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint64_t stamp = kPendingStamp;  // initiator clock component at poll
    uint64_t vtime = 0;
    uint32_t initiator = 0;
    uint32_t owner = 0;  // node whose memory [lo, hi) is
    AccessKind kind = AccessKind::kRead;
    bool remote = false;
    const char* label = nullptr;
  };

  struct PendingOp {
    Clock post_clock;
    Clock acquired;                 // atomic acquire snapshot at execute
    std::vector<LocalRange> sges;
    std::vector<uint32_t> records;  // shadow records to stamp at poll
    uint64_t remote_lo = 0;
    uint64_t remote_hi = 0;
    uint64_t region_id = 0;
    uint64_t post_vtime = 0;
    uint32_t initiator = 0;
    uint32_t target = 0;
    OpClass cls = OpClass::kMessage;
    const char* label = nullptr;
    bool sync_cell = false;
    bool settled = false;
    uint8_t expected = 1;
    uint8_t seen = 0;
  };

  struct PageRing {
    std::array<uint32_t, kPageRing> recs{};  // record index + 1; 0 empty
    uint8_t pos = 0;
  };

  struct RangeEntry {
    uint64_t hi = 0;
    uint64_t region_id = 0;
    uint64_t region_off = 0;  // region-relative offset of this range's lo
    bool dead = false;
    uint64_t dead_vtime = 0;
  };

  struct RegionMeta {
    std::string name;
    std::vector<std::pair<uint32_t, uint64_t>> slabs;  // (node, lo)
    bool freed = false;
  };

  struct CacheState {
    std::unordered_map<uint32_t, IntervalSet> write_through;  // kEpoch
    std::unordered_map<uint32_t, IntervalSet> resident;       // kImmutable
  };

  [[nodiscard]] uint64_t NowVirtual() const { return now_ ? now_() : 0; }
  Clock& NodeClock(uint32_t node);
  uint64_t SelfTick(uint32_t node);
  static void Join(Clock& dst, const Clock& src);
  [[nodiscard]] static bool OrderedBefore(const Record& a,
                                          const Clock& post_clock);
  [[nodiscard]] static bool Conflicts(AccessKind a, AccessKind b);

  // Records the access, races it against overlapping shadow records,
  // and returns the new record's index.
  uint32_t AddAndCheck(const PendingOp& op, uint64_t lo, uint64_t hi,
                       AccessKind kind, bool remote);
  void CheckLifetime(const PendingOp& op);
  void CheckCacheContract(const PendingOp& op);
  // Resolves (node, addr) to a region range entry, or nullptr.
  RangeEntry* FindRange(uint32_t node, uint64_t addr);
  Endpoint MakeEndpoint(const Record& r) const;
  Endpoint MakeOpEndpoint(const PendingOp& op, uint64_t lo, uint64_t hi,
                          AccessKind kind) const;
  void FillRegionInfo(Violation* v, uint32_t node, uint64_t lo,
                      uint64_t hi);
  void Report(Violation v);

  static void IntervalAdd(IntervalSet& set, uint64_t lo, uint64_t hi);
  static void IntervalRemove(IntervalSet& set, uint64_t lo, uint64_t hi);
  [[nodiscard]] static bool IntervalOverlap(const IntervalSet& set,
                                            uint64_t lo, uint64_t hi,
                                            uint64_t* out_lo,
                                            uint64_t* out_hi);

  std::function<uint64_t()> now_;
  std::vector<Clock> clocks_;                       // per node
  std::unordered_map<uint32_t, PendingOp> pending_; // by ref
  uint32_t next_ref_ = 1;
  std::vector<Record> records_;
  std::unordered_map<uint64_t, PageRing> pages_;    // by addr >> kPageShift
  std::unordered_map<uint64_t, Clock> cells_;       // atomic cells, by addr
  // node -> range lo -> entry; addresses are process-unique, the node key
  // is kept for attribution in reports.
  std::unordered_map<uint32_t, std::map<uint64_t, RangeEntry>> ranges_;
  std::unordered_map<uint64_t, RegionMeta> regions_;
  // node -> region id -> unmap virtual time
  std::unordered_map<uint32_t, std::map<uint64_t, uint64_t>> unmapped_;
  std::unordered_map<uint64_t, CacheState> cache_;
  std::set<std::pair<uint32_t, uint32_t>> reported_pairs_;
  std::vector<Violation> violations_;
};

namespace detail {
// The annotation scopes open in one execution context. Every simulated
// thread owns one, which the simulator installs for the duration of each
// of its slices (SwapScopeState), so a thread parked inside a scope does
// not leak it into the threads that run meanwhile on the same host
// thread. Host threads outside any slice use their own.
struct ScopeState {
  int speculative = 0;
  int sync_cell = 0;
  const char* label = nullptr;
};
// Makes `s` the calling host thread's current scope state (nullptr: the
// host thread's own) and returns the previous one.
ScopeState* SwapScopeState(ScopeState* s) noexcept;
void PushSpeculative() noexcept;
void PopSpeculative() noexcept;
void PushSyncCell() noexcept;
void PopSyncCell() noexcept;
const char* SwapLabel(const char* label) noexcept;
[[nodiscard]] const char* CurrentLabel() noexcept;
}  // namespace detail

// Accesses posted inside this scope are neither recorded nor checked —
// the caller revalidates them (TSan's ignore_reads analogue). Used for
// the KV seqlock's optimistic full-slot read.
class SpeculativeScope {
 public:
  explicit SpeculativeScope(const Checker* c) : on_(c != nullptr) {
    if (on_) detail::PushSpeculative();
  }
  ~SpeculativeScope() {
    if (on_) detail::PopSpeculative();
  }
  SpeculativeScope(const SpeculativeScope&) = delete;
  SpeculativeScope& operator=(const SpeculativeScope&) = delete;

 private:
  bool on_;
};

// Exactly-8-byte reads/writes posted inside this scope are treated as
// acquire loads / release stores on the target cell, the way a remote
// CAS is. Used for the KV seqlock's version word.
class SyncCellScope {
 public:
  explicit SyncCellScope(const Checker* c) : on_(c != nullptr) {
    if (on_) detail::PushSyncCell();
  }
  ~SyncCellScope() {
    if (on_) detail::PopSyncCell();
  }
  SyncCellScope(const SyncCellScope&) = delete;
  SyncCellScope& operator=(const SyncCellScope&) = delete;

 private:
  bool on_;
};

// Names the operation for violation reports ("client.write", "kv.put");
// mirrors the ObsSpan name of the surrounding telemetry span. `label`
// must outlive the scope (string literals in practice). Outermost scope
// wins: a "kv.put" that issues a "client.write" internally reports as
// kv.put — the highest-level name is the one a report reader can act on.
class OpLabelScope {
 public:
  OpLabelScope(const Checker* c, const char* label)
      : on_(c != nullptr && detail::CurrentLabel() == nullptr) {
    if (on_) prev_ = detail::SwapLabel(label);
  }
  ~OpLabelScope() {
    if (on_) detail::SwapLabel(prev_);
  }
  OpLabelScope(const OpLabelScope&) = delete;
  OpLabelScope& operator=(const OpLabelScope&) = delete;

 private:
  bool on_;
  const char* prev_ = nullptr;
};

}  // namespace rstore::check
