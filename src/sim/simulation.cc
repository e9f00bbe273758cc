#include "sim/simulation.h"

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "check/check.h"
#include "check/lin.h"
#include "common/log.h"
#include "explore/policy.h"
#include "explore/trace_json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__SANITIZE_ADDRESS__)
#define RSTORE_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RSTORE_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define RSTORE_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RSTORE_FIBER_TSAN 1
#endif
#endif
#ifdef RSTORE_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef RSTORE_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// ---------------------------------------------------------------------------
// Fiber context switch. A parked context is nothing but its stack pointer:
// rstore_fiber_switch pushes the callee-saved registers (and, on x86-64,
// the MXCSR / x87 control words) onto the running stack, stores the stack
// pointer through `from`, loads `to`, and pops the frame the other context
// pushed when it parked. Caller-saved state is already spilled by the
// compiler around the call, so this is the whole machine state.
//
// A new fiber's stack is prepared (PrepareFiberStack) to look like a
// parked context whose return address is rstore_fiber_trampoline, which
// calls entry(arg) from two callee-saved registers and marks the end of
// the stack for unwinders.
// ---------------------------------------------------------------------------
extern "C" {
void rstore_fiber_switch(void** from, void* to);
void rstore_fiber_trampoline();
}

#if defined(__x86_64__)
asm(R"(
  .text
  .globl rstore_fiber_switch
  .hidden rstore_fiber_switch
  .type rstore_fiber_switch, @function
  .p2align 4
rstore_fiber_switch:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .cfi_endproc
  .size rstore_fiber_switch, .-rstore_fiber_switch

  .globl rstore_fiber_trampoline
  .hidden rstore_fiber_trampoline
  .type rstore_fiber_trampoline, @function
  .p2align 4
rstore_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
  .size rstore_fiber_trampoline, .-rstore_fiber_trampoline
)");
#elif defined(__aarch64__)
asm(R"(
  .text
  .globl rstore_fiber_switch
  .hidden rstore_fiber_switch
  .type rstore_fiber_switch, %function
  .p2align 4
rstore_fiber_switch:
  .cfi_startproc
  sub sp, sp, #160
  stp x19, x20, [sp, #0]
  stp x21, x22, [sp, #16]
  stp x23, x24, [sp, #32]
  stp x25, x26, [sp, #48]
  stp x27, x28, [sp, #64]
  stp x29, x30, [sp, #80]
  stp d8, d9, [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mov x9, sp
  str x9, [x0]
  mov sp, x1
  ldp x19, x20, [sp, #0]
  ldp x21, x22, [sp, #16]
  ldp x23, x24, [sp, #32]
  ldp x25, x26, [sp, #48]
  ldp x27, x28, [sp, #64]
  ldp x29, x30, [sp, #80]
  ldp d8, d9, [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  add sp, sp, #160
  ret
  .cfi_endproc
  .size rstore_fiber_switch, .-rstore_fiber_switch

  .globl rstore_fiber_trampoline
  .hidden rstore_fiber_trampoline
  .type rstore_fiber_trampoline, %function
  .p2align 4
rstore_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined x30
  mov x0, x19
  blr x20
  brk #0
  .cfi_endproc
  .size rstore_fiber_trampoline, .-rstore_fiber_trampoline
)");
#else
#error "SimThread fibers need a context switch for this architecture"
#endif

namespace rstore::sim {
namespace {

// Lays out a parked-context frame at the top of a fresh stack so that the
// first rstore_fiber_switch into it "returns" into the trampoline, which
// calls entry(arg) on a 16-byte-aligned stack. Returns the stack pointer.
void* PrepareFiberStack(char* top, void* entry, void* arg) {
  void** sp = nullptr;
#if defined(__x86_64__)
  // [fp control][r15 r14 r13 r12 rbx rbp][ret][pad pad]: after the final
  // ret the stack pointer is top - 16, aligned for the trampoline's call.
  sp = reinterpret_cast<void**>(top) - 10;
  std::memset(sp, 0, 10 * sizeof(void*));
  const uint64_t fp_control = 0x1F80 | (uint64_t{0x037F} << 32);  // defaults
  std::memcpy(&sp[0], &fp_control, sizeof fp_control);
  sp[4] = arg;    // r12
  sp[5] = entry;  // rbx
  sp[7] = reinterpret_cast<void*>(&rstore_fiber_trampoline);
#elif defined(__aarch64__)
  // x19..x30 then d8..d15; the restore leaves sp at `top`.
  sp = reinterpret_cast<void**>(top) - 20;
  std::memset(sp, 0, 20 * sizeof(void*));
  sp[0] = arg;    // x19
  sp[1] = entry;  // x20
  sp[11] = reinterpret_cast<void*>(&rstore_fiber_trampoline);  // x30
#endif
  return sp;
}

// Fiber stacks: lazily committed anonymous mappings, sized like the
// default OS-thread stack (so no node program loses depth), whose lowest
// page is PROT_NONE so runaway recursion faults instead of scribbling
// over the neighbouring mapping. An exited fiber's stack goes back to a
// process-wide free list for the next Spawn.
class StackPool {
 public:
  static StackPool& Instance() {
    // Never destroyed: a Simulation may outlive function-local statics.
    static StackPool* pool = new StackPool;
    return *pool;
  }

  // Returns the mapping's base (its guard page).
  char* Acquire() {
    char* base = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        base = free_.back();
        free_.pop_back();
      }
    }
    if (base != nullptr) return base;
    void* m = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (m == MAP_FAILED || mprotect(m, page_, PROT_NONE) != 0) {
      std::fprintf(stderr, "fatal: cannot map a %zu-byte SimThread stack\n",
                   size_);
      std::abort();
    }
    return static_cast<char*>(m);
  }

  void Release(char* base) {
#ifdef RSTORE_FIBER_ASAN
    // The fiber left for good mid-frame; drop its frames' redzones before
    // the range is reused, by a fiber or by a later mapping.
    ASAN_UNPOISON_MEMORY_REGION(lo(base), usable());
#endif
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (free_.size() < kMaxFree) {
        free_.push_back(base);
        return;
      }
    }
    munmap(base, size_);
  }

  // Usable range of a stack: [lo, lo + usable()).
  [[nodiscard]] char* lo(char* base) const noexcept { return base + page_; }
  [[nodiscard]] size_t usable() const noexcept { return size_ - page_; }

 private:
  static constexpr size_t kMaxFree = 256;

  StackPool()
      : page_(static_cast<size_t>(sysconf(_SC_PAGESIZE))),
        size_(page_ + RoundUp(DefaultThreadStackSize(), page_)) {}

  static size_t DefaultThreadStackSize() {
    size_t size = 0;
    pthread_attr_t attr;
    if (pthread_getattr_default_np(&attr) == 0) {
      (void)pthread_attr_getstacksize(&attr, &size);
      pthread_attr_destroy(&attr);
    }
    return size >= (size_t{64} << 10) ? size : size_t{8} << 20;
  }
  static size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

  const size_t page_;
  const size_t size_;  // whole mapping, guard page included
  std::mutex mu_;
  std::vector<char*> free_;
};

// The C++ runtime's per-thread exception state (libstdc++ and libc++abi
// share this layout): the caught-exception stack that `throw;` rethrows
// from, and the count std::uncaught_exceptions() reports.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// SimPartition: one event queue + clock. Legacy mode has exactly one
// (every node shares it — the historical global scheduler). Partitioned
// mode gives every node its own, plus partition 0 for driver-scheduled
// events; partitions dispatch independently inside conservative epochs
// and exchange cross-partition events through `outbox`, merged
// deterministically at epoch barriers (FlushOutboxes).
// ---------------------------------------------------------------------------
struct SimPartition {
  using Event = Simulation::Event;
  using EventKey = Simulation::EventKey;

  SimPartition(Simulation* owner, uint32_t idx, size_t capacity)
      : sim(owner), index(idx) {
    heap.reserve(capacity);
    slab.reserve(capacity);
    links.reserve(capacity);
    free_slots.reserve(capacity);
  }

  // Queues `e` at `t` behind every event already scheduled here.
  void Push(Nanos t, Event&& e) {
    PushKey({t, next_seq++, Store(std::move(e))});
  }
  // Moves `e` into a free slab slot and returns the slot.
  uint32_t Store(Event&& e) {
    if (free_slots.empty()) {
      slab.push_back(std::move(e));
      links.emplace_back();
      return static_cast<uint32_t>(slab.size() - 1);
    }
    const uint32_t slot = free_slots.back();
    free_slots.pop_back();
    slab[slot] = std::move(e);
    return slot;
  }
  // Returns a slot whose body has been dispatched or discarded (its fn is
  // empty by then) to the free list.
  void Free(uint32_t slot) { free_slots.push_back(slot); }
  // Appends `k` to its ring bucket when its instant is inside the window
  // and it sorts after the bucket's tail (true of every fresh seq);
  // otherwise it goes on the heap. PushKey and PopKey are forced inline:
  // out of line, their 24-byte key crosses the call through the stack,
  // which measurably slowed both Yield() slices and kv-overload.
  [[gnu::always_inline]] void PushKey(EventKey k) {
    if (k.t - ring_base < kRingBuckets) {  // unsigned: also rejects t < base
      const auto b = static_cast<uint32_t>(k.t) & (kRingBuckets - 1);
      Bucket& q = ring[b];
      const bool occupied = (ring_bits[b / 64] >> (b % 64) & 1) != 0;
      if (!occupied || links[q.tail].seq < k.seq) {
        if (occupied) {
          links[q.tail].next = k.slot;
        } else {
          q.head = k.slot;
          ring_bits[b / 64] |= uint64_t{1} << (b % 64);
          ring_words |= uint64_t{1} << (b / 64);
        }
        q.tail = k.slot;
        links[k.slot].seq = k.seq;
        ++ring_size;
        return;
      }
    }
    heap.push_back(k);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  [[nodiscard]] bool empty() const noexcept {
    return ring_size == 0 && heap.empty();
  }
  // The (t, seq)-smallest queued key: the earlier of the ring's first
  // bucket head and the heap top. Requires !empty().
  [[nodiscard]] EventKey Top() const noexcept {
    if (ring_size == 0) return heap.front();
    const EventKey r = RingHead(RingFirst());
    return heap.empty() || heap.front() > r ? r : heap.front();
  }
  [[gnu::always_inline]] EventKey PopKey() {
    if (ring_size != 0) {
      const uint32_t b = RingFirst();
      const EventKey r = RingHead(b);
      if (heap.empty() || heap.front() > r) {
        Bucket& q = ring[b];
        if (q.head == q.tail) {
          ring_bits[b / 64] &= ~(uint64_t{1} << (b % 64));
          if (ring_bits[b / 64] == 0) ring_words &= ~(uint64_t{1} << (b / 64));
        } else {
          q.head = links[q.head].next;
        }
        --ring_size;
        ring_base = r.t;
        return r;
      }
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const EventKey k = heap.back();
    heap.pop_back();
    // k sorts before every ring key, so the window may start at k.t.
    ring_base = std::max(ring_base, k.t);
    return k;
  }
  // True when `slot` holds a wake whose block has already ended (or whose
  // thread exited). Staleness is permanent: generations only grow.
  [[nodiscard]] bool StaleWake(uint32_t slot) const noexcept;

  // The first non-empty bucket at or after ring_base's, circularly: a
  // masked word of ring_bits, else the lowest non-empty word after it in
  // ring_words, else (wrapped) the lowest non-empty word overall. Requires
  // ring_size > 0.
  [[nodiscard]] uint32_t RingFirst() const noexcept {
    const auto start = static_cast<uint32_t>(ring_base) & (kRingBuckets - 1);
    const uint32_t w0 = start / 64;
    if (const uint64_t bits = ring_bits[w0] & (~uint64_t{0} << (start % 64));
        bits != 0) {
      return w0 * 64 + static_cast<uint32_t>(std::countr_zero(bits));
    }
    uint64_t words = ring_words & (~uint64_t{1} << w0);
    if (words == 0) words = ring_words;
    const auto w = static_cast<uint32_t>(std::countr_zero(words));
    return w * 64 + static_cast<uint32_t>(std::countr_zero(ring_bits[w]));
  }
  // Bucket b's head key; its instant is the one instant in the window
  // that maps to b.
  [[nodiscard]] EventKey RingHead(uint32_t b) const noexcept {
    const uint32_t slot = ring[b].head;
    const Nanos ahead =
        (b - static_cast<uint32_t>(ring_base)) & (kRingBuckets - 1);
    return {ring_base + ahead, links[slot].seq, slot};
  }

  Simulation* sim = nullptr;
  uint32_t index = 0;
  Nanos now = 0;
  uint64_t next_seq = 0;
  uint64_t events_processed = 0;
  uint64_t thread_slices = 0;
  // Event queue. Bodies live in `slab` and stay in their slot until the
  // event is dispatched or discarded; the queue itself moves only keys
  // ({t, seq, slot}), ordered by (t, seq), in two structures:
  //
  //   * a ring of kRingBuckets one-nanosecond buckets covering the window
  //     [ring_base, ring_base + kRingBuckets), where ring_base is the
  //     largest instant popped so far. Bucket t % kRingBuckets holds the
  //     window's keys at instant t as a FIFO chained through `links`
  //     (parallel to the slab) in ascending seq; `ring_bits` marks the
  //     non-empty buckets and `ring_words` the non-empty words of it.
  //   * a binary min-heap for everything else: instants past the window
  //     (far timers, stale timeout wakes), arrivals already behind
  //     ring_base, and re-queued keys whose seq is below their bucket's
  //     tail (the explore tie-break's re-push, the deadline put-back).
  //
  // Every key popped is the smaller of the ring's first head and the heap
  // top, so dispatch order is exactly (t, seq), as with the heap alone.
  // The window only slides forward, and never past a queued ring key, so
  // a bucket never mixes two instants. Freed slots are reused last-in
  // first-out, and the vectors are pooled across the run.
  //
  // 4096 ns spans the fabric's near-future work (a frame's flight, an
  // ack, a CQ poll): it takes nearly every push on the KV workloads.
  static constexpr uint32_t kRingBuckets = 4096;
  // A power of two, one to 64 words of ring_bits (one ring_words bit each).
  static_assert(std::has_single_bit(kRingBuckets) && kRingBuckets >= 64 &&
                kRingBuckets <= 64 * 64);
  struct Bucket {
    uint32_t head = 0;
    uint32_t tail = 0;
  };
  struct Link {
    uint64_t seq = 0;
    uint32_t next = 0;  // the bucket's following slot (unset at the tail)
  };
  std::vector<EventKey> heap;
  static_assert(sizeof(EventKey) == 24);
  std::vector<Event> slab;
  std::vector<Link> links;
  std::vector<uint32_t> free_slots;
  std::array<Bucket, kRingBuckets> ring{};
  uint64_t ring_bits[kRingBuckets / 64] = {};
  uint64_t ring_words = 0;
  Nanos ring_base = 0;
  size_t ring_size = 0;
  // Cross-partition posts created while this partition dispatches, in
  // post order. Only the owning dispatcher appends; only the driver
  // thread drains, at barriers.
  struct Post {
    uint32_t dst;  // destination partition index
    Nanos t;
    Event ev;
  };
  std::vector<Post> outbox;
  // Livelock-guard streak for ExploreTieBreak (per partition: a pure
  // function of this partition's schedule).
  Nanos tie_streak_t = kNever;
  uint64_t tie_streak = 0;
};

// ---------------------------------------------------------------------------
// SimThread: one cooperative thread, run as a stackful fiber on whichever
// host thread dispatches its partition:
//
//   dispatcher -> thread : Resume() switches onto the fiber's stack
//   thread -> dispatcher : Block() (or the fiber's exit) switches back
//
// so at any instant exactly one of {dispatcher, one SimThread} executes per
// partition, and a slice costs two register switches. Wake events carry
// the generation number of the block instance they intend to end; stale
// wakes are ignored.
//
// Context that node code reaches through host-thread state is swapped by
// the dispatcher around every slice, so each fiber sees only its own: the
// current-thread pointer, the C++ exception state, and rcheck's
// annotation scopes. A parked fiber may resume on a different host thread
// (epoch workers are recreated by every RunUntil), which is why node code
// reads the context pointers through out-of-line accessors below.
// ---------------------------------------------------------------------------
class SimThread {
 public:
  enum WakeReason : int { kNotify = 0, kTimeout = 1, kKilled = 2, kStart = 3 };

  SimThread(Node& node, std::string name, uint64_t tid,
            std::function<void()> fn)
      : node_(node),
        sim_(node.sim()),
        name_(std::move(name)),
        tid_(tid),
        fn_(std::move(fn)),
        stack_(StackPool::Instance().Acquire()) {
    StackPool& pool = StackPool::Instance();
    sp_ = PrepareFiberStack(pool.lo(stack_) + pool.usable(),
                            reinterpret_cast<void*>(&FiberMain), this);
#ifdef RSTORE_FIBER_TSAN
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  ~SimThread() {
    assert(exited_ && "simulation must unwind threads before destruction");
    ReleaseStack();
  }

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  [[nodiscard]] bool exited() const noexcept { return exited_; }
  [[nodiscard]] bool blocked() const noexcept { return blocked_; }
  [[nodiscard]] uint64_t gen() const noexcept { return gen_; }
  [[nodiscard]] Node& node() noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] uint64_t tid() const noexcept { return tid_; }

  // Called from the thread itself: yield to the scheduler until woken.
  // Throws ThreadKilled when the node died, so stacks unwind via RAII —
  // unless an exception is already in flight, in which case it returns
  // kKilled silently (throwing during unwind would terminate).
  WakeReason Block() {
    if (!node_.alive() || ShuttingDown()) {
      if (std::uncaught_exceptions() > 0) return kKilled;
      throw ThreadKilled{};
    }
    YieldToScheduler();
    if (!node_.alive() || ShuttingDown()) {
      if (std::uncaught_exceptions() > 0) return kKilled;
      throw ThreadKilled{};
    }
    return wake_reason_;
  }

  // Called by the dispatcher: runs the fiber until it blocks or exits.
  void Resume();

 private:
  friend class Simulation;

  [[nodiscard]] bool ShuttingDown() const noexcept;

  void YieldToScheduler() {
    blocked_ = true;
    SwitchToDispatcher(/*exiting=*/false);
    blocked_ = false;
    // Invalidate any other pending wakes for the finished block.
    ++gen_;
  }

  // Fiber side of a switch: parks this fiber and resumes the dispatcher
  // that ran Resume(). An exiting fiber is never resumed.
  void SwitchToDispatcher(bool exiting) {
#ifdef RSTORE_FIBER_ASAN
    // No fake-stack slot for an exiting fiber: ASan frees its frames.
    __sanitizer_start_switch_fiber(exiting ? nullptr : &asan_fake_stack_,
                                   asan_caller_bottom_, asan_caller_size_);
#else
    (void)exiting;
#endif
#ifdef RSTORE_FIBER_TSAN
    __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
    rstore_fiber_switch(&sp_, dispatcher_sp_);
    FinishSwitchIn();
  }

  // First thing a fiber runs after every switch onto its stack.
  void FinishSwitchIn() {
#ifdef RSTORE_FIBER_ASAN
    // Learns the dispatcher's stack bounds: they change whenever the
    // fiber resumes on a different host thread.
    __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_caller_bottom_,
                                    &asan_caller_size_);
#endif
  }

  void ReleaseStack() {
    if (stack_ != nullptr) {
      StackPool::Instance().Release(stack_);
      stack_ = nullptr;
    }
#ifdef RSTORE_FIBER_TSAN
    if (tsan_fiber_ != nullptr) {
      __tsan_destroy_fiber(tsan_fiber_);
      tsan_fiber_ = nullptr;
    }
#endif
  }

  static void FiberMain(SimThread* self) noexcept;

  Node& node_;
  Simulation& sim_;
  const std::string name_;
  const uint64_t tid_;  // simulation-unique id for trace attribution
  std::function<void()> fn_;

  bool blocked_ = true;  // starts "blocked"; ends at kStart
  bool exited_ = false;
  uint64_t gen_ = 0;
  WakeReason wake_reason_ = kStart;

  char* stack_;                    // StackPool mapping; null once released
  void* sp_ = nullptr;             // the fiber's stack pointer while parked
  void* dispatcher_sp_ = nullptr;  // the dispatcher's, during a slice
  EhGlobals eh_;                   // exception state while parked
  check::detail::ScopeState scopes_;
#ifdef RSTORE_FIBER_ASAN
  void* asan_fake_stack_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  size_t asan_caller_size_ = 0;
#endif
#ifdef RSTORE_FIBER_TSAN
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
#endif
};

bool SimPartition::StaleWake(uint32_t slot) const noexcept {
  const Event& e = slab[slot];
  const SimThread* t = e.wake_target;
  return t != nullptr &&
         (t->exited() || !t->blocked() || t->gen() != e.wake_gen);
}

namespace {
thread_local SimThread* g_current_thread = nullptr;
// Set on a host thread (driver or epoch worker) for the duration of one
// partition's dispatch, so scheduler-context callbacks resolve their
// clock and event queue. Node threads resolve through g_current_thread
// instead.
thread_local SimPartition* g_current_partition = nullptr;

// Every read of the two context pointers goes through these out-of-line
// accessors: a fiber that parks on one host thread may resume on another,
// and a compiler may otherwise compute a thread_local's address once per
// function and reuse it across the Block() that moved the fiber. (Writes
// happen only on the dispatcher side, which never migrates.)
[[gnu::noinline]] SimThread* CurrentThreadOrNull() noexcept {
  return g_current_thread;
}
[[gnu::noinline]] SimPartition* DispatchingPartitionOrNull() noexcept {
  return g_current_partition;
}

SimThread* Current() {
  SimThread* t = CurrentThreadOrNull();
  if (t == nullptr) {
    std::fprintf(stderr,
                 "fatal: sim primitive called from outside a simulated "
                 "thread\n");
    std::abort();
  }
  return t;
}
}  // namespace

bool PartitionedEnvRequested() {
  const char* e = std::getenv("RSTORE_HOST_THREADS");
  return e != nullptr && *e != '\0' && std::strtol(e, nullptr, 10) > 0;
}

bool SimThread::ShuttingDown() const noexcept { return sim_.shutting_down(); }

void SimThread::Resume() {
  SimThread* const outer = g_current_thread;
  g_current_thread = this;
  auto* const eh = reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
  const EhGlobals outer_eh = *eh;
  *eh = eh_;
  check::detail::ScopeState* const outer_scopes =
      check::detail::SwapScopeState(&scopes_);
#ifdef RSTORE_FIBER_ASAN
  void* fake_stack = nullptr;
  StackPool& pool = StackPool::Instance();
  __sanitizer_start_switch_fiber(&fake_stack, pool.lo(stack_), pool.usable());
#endif
#ifdef RSTORE_FIBER_TSAN
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  rstore_fiber_switch(&dispatcher_sp_, sp_);
#ifdef RSTORE_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  check::detail::SwapScopeState(outer_scopes);
  eh_ = *eh;
  *eh = outer_eh;
  g_current_thread = outer;
  if (exited_) ReleaseStack();
}

void SimThread::FiberMain(SimThread* self) noexcept {
  self->FinishSwitchIn();
  // First activation mirrors the tail of YieldToScheduler().
  self->blocked_ = false;
  ++self->gen_;
  if (self->node_.alive() && !self->ShuttingDown()) {
    try {
      self->fn_();
    } catch (const ThreadKilled&) {
      // Normal teardown path.
    } catch (const std::exception& e) {
      LOG_ERROR << "uncaught exception in sim thread '" << self->name_
                << "' on node " << self->node_.name() << ": " << e.what();
    }
  }
  // Exit: give control back to the scheduler permanently.
  self->exited_ = true;
  self->SwitchToDispatcher(/*exiting=*/true);
  __builtin_unreachable();
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------
Node::Node(Simulation& sim, uint32_t id, std::string name, uint64_t seed)
    : sim_(sim), id_(id), name_(std::move(name)), rng_(seed) {}

Node::~Node() = default;

void Node::Spawn(std::string thread_name, std::function<void()> fn) {
  const uint64_t tid = sim_.AllocateTid();
  if (obs::Telemetry* tel = sim_.telemetry(); tel != nullptr) {
    tel->tracer().SetThreadName(id_, tid, thread_name);
  }
  auto thread = std::make_unique<SimThread>(*this, std::move(thread_name), tid,
                                            std::move(fn));
  SimThread* t = thread.get();
  threads_.push_back(std::move(thread));
  sim_.ScheduleWake(t, t->gen(), sim_.NowNanos(), SimThread::kStart);
}

size_t Node::live_threads() const noexcept {
  size_t n = 0;
  for (const auto& t : threads_) {
    if (!t->exited()) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Free functions for node code
// ---------------------------------------------------------------------------
Nanos Now() { return Current()->node().sim().NowNanos(); }

void Sleep(Nanos d) {
  SimThread* t = Current();
  Simulation& sim = t->node().sim();
  sim.ScheduleWake(t, t->gen(), sim.NowNanos() + d, SimThread::kTimeout);
  t->Block();
}

void Yield() { Sleep(0); }

Node& CurrentNode() { return Current()->node(); }

bool InSimThread() noexcept { return CurrentThreadOrNull() != nullptr; }

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------
// A ThreadKilled unwind must NOT touch waiters_: the kill may be part of
// simulation teardown, in which case the object owning this CondVar can
// already be gone (threads blocked in a server's accept loop outlive the
// server object until Shutdown unwinds them). The stale waiter entry is
// harmless — SimThread objects live until the simulation is destroyed,
// and NotifyOne skips entries whose thread has exited.
void CondVar::Wait() {
  SimThread* t = Current();
  waiters_.push_back(t);
  t->Block();
}

bool CondVar::WaitFor(Nanos timeout) {
  // An effectively infinite timeout blocks without a timeout event (a wake
  // at kNever would outlive the simulation horizon).
  if (timeout >= kNever - sim_.NowNanos()) {
    Wait();
    return true;
  }
  SimThread* t = Current();
  waiters_.push_back(t);
  sim_.ScheduleWake(t, t->gen(), sim_.NowNanos() + timeout,
                    SimThread::kTimeout);
  if (t->Block() == SimThread::kTimeout) {
    std::erase(waiters_, t);
    return false;
  }
  return true;
}

void CondVar::NotifyOne() {
  // Drop entries whose thread exited (killed while waiting) from the
  // front; deeper stale entries are inert and get skipped when reached.
  while (!waiters_.empty() && waiters_.front()->exited()) {
    waiters_.pop_front();
  }
  if (waiters_.empty()) return;
  // Baseline wakes the longest waiter (deque front). An attached
  // exploration policy may wake any live waiter instead — this is the
  // kWaiterWake decision point, and pick 0 is the baseline front.
  size_t pick = 0;
  if (explore::SchedulePolicy* pol = sim_.policy_;
      pol != nullptr && waiters_.size() > 1) {
    auto& live = sim_.waiter_pick_scratch_;
    auto& lanes = sim_.waiter_lane_scratch_;
    live.clear();
    lanes.clear();
    for (size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i]->exited()) continue;
      live.push_back(i);
      lanes.push_back(waiters_[i]->node().id());
    }
    pick = live[pol->PickWaiter(lanes.data(),
                                static_cast<uint32_t>(lanes.size()))];
  }
  SimThread* t = waiters_[pick];
  waiters_.erase(waiters_.begin() + static_cast<ptrdiff_t>(pick));
  // CondVar edges are intra-node under per-node clocks (the hand-off is
  // subsumed by the notifier's node clock); ticking keeps stamps taken
  // around the notify distinct. Scheduler-context notifies (fabric
  // delivery) have no owning node and are ordered by the event loop.
  if (sim_.checker_ != nullptr) {
    if (SimThread* self = CurrentThreadOrNull(); self != nullptr) {
      sim_.checker_->OnCondNotify(self->node().id());
    }
  }
  sim_.ScheduleWake(t, t->gen(), sim_.NowNanos(), SimThread::kNotify);
}

void CondVar::NotifyAll() {
  while (!waiters_.empty()) NotifyOne();
}

Nanos CondVar::DeadlineFrom(Nanos timeout) const {
  const Nanos now = sim_.NowNanos();
  return timeout > kNever - now ? kNever : now + timeout;
}

Nanos CondVar::NowInternal() const { return sim_.NowNanos(); }

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------
Simulation::Simulation(SimConfig config)
    : config_(config), seeder_(config.seed) {
  // Partitioned mode: explicit config wins; otherwise the environment
  // opts whole processes in (the bench --host-threads flag and the CI
  // parallel-determinism gate both use the env).
  if (config_.host_threads == 0) {
    if (const char* e = std::getenv("RSTORE_HOST_THREADS");
        e != nullptr && *e != '\0') {
      const long v = std::strtol(e, nullptr, 10);
      if (v > 0) {
        config_.host_threads = static_cast<uint32_t>(std::min(v, 1024L));
      }
    }
  }
  if (const char* e = std::getenv("RSTORE_PARTITION_SERIAL");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    config_.serialize_dispatch = true;
  }
  partitioned_ = config_.host_threads >= 1;
  partitions_.push_back(std::make_unique<Partition>(this, 0, 1024));
  // Opt-in runtime verification for whole test/bench processes: every
  // simulation in the process gets its own checker, and Shutdown() turns
  // any violation into a report + abort (the CI rcheck gate).
  if (const char* e = std::getenv("RSTORE_RCHECK");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    owned_checker_ = std::make_unique<check::Checker>();
    AttachChecker(owned_checker_.get());
  }
  // Opt-in linearizability checking (the rlin gate): same process-wide
  // contract as rcheck — each simulation gets its own history, Shutdown()
  // finalizes and aborts on violation.
  if (const char* e = std::getenv("RSTORE_RLIN");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    owned_lin_ = std::make_unique<check::LinChecker>();
    AttachLinChecker(owned_lin_.get());
  }
  // Opt-in schedule exploration: every simulation in the process gets its
  // own policy instance, cycling through the spec's derived seeds so one
  // bench/test invocation covers `runs` distinct schedules.
  if (const char* e = std::getenv("RSTORE_EXPLORE");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    explore::ExploreSpec spec;
    if (explore::ExploreSpec::Parse(e, &spec)) {
      static std::atomic<uint64_t> g_explore_instance{0};
      const uint64_t run =
          g_explore_instance.fetch_add(1, std::memory_order_relaxed);
      owned_policy_ = spec.Instantiate(run);
      policy_ = owned_policy_.get();
    } else {
      std::fprintf(stderr,
                   "RSTORE_EXPLORE: unparseable spec '%s' (expected "
                   "<policy>[:<seed>[:<runs>[:<max_delay_ns>]]], policy = "
                   "baseline | random | pct | pct<d>); exploring nothing\n",
                   e);
    }
  }
}

Simulation::~Simulation() { Shutdown(); }

Node& Simulation::AddNode(std::string name) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(
      std::make_unique<Node>(*this, id, std::move(name), seeder_.Next()));
  Node& node = *nodes_.back();
  if (partitioned_) {
    partitions_.push_back(std::make_unique<Partition>(
        this, static_cast<uint32_t>(partitions_.size()), 64));
    node.partition_ = partitions_.back().get();
  } else {
    node.partition_ = partitions_.front().get();
  }
  if (telemetry_ != nullptr) {
    (void)telemetry_->metrics().ForNode(id, node.name());
    telemetry_->tracer().RegisterNode(id, node.name());
  }
  return node;
}

Simulation::Partition* Simulation::CurrentPartition() const noexcept {
  if (SimThread* t = CurrentThreadOrNull();
      t != nullptr && &t->node().sim() == this) {
    return t->node().partition_;
  }
  if (Partition* p = DispatchingPartitionOrNull();
      p != nullptr && p->sim == this) {
    return p;
  }
  return nullptr;
}

Nanos Simulation::NowNanos() const noexcept {
  const Partition* p = CurrentPartition();
  return p != nullptr ? p->now : driver_now_;
}

uint32_t Simulation::CurrentPartitionIndex() const noexcept {
  const Partition* p = CurrentPartition();
  return p != nullptr ? p->index : 0;
}

bool Simulation::InContextOfNode(uint32_t node_id) const noexcept {
  if (!partitioned_) return true;
  const Partition* cur = CurrentPartition();
  return cur == nullptr || cur == nodes_.at(node_id)->partition_;
}

uint64_t Simulation::events_processed() const noexcept {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->events_processed;
  return n;
}

uint64_t Simulation::thread_slices() const noexcept {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->thread_slices;
  return n;
}

void Simulation::AtPartitionedRunStart(std::function<void()> hook) {
  prepare_hooks_.push_back(std::move(hook));
}

void Simulation::AtEpochBarrier(std::function<void()> hook) {
  barrier_hooks_.push_back(std::move(hook));
}

void Simulation::AttachTelemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry == nullptr) {
    telemetry_->SetClock({});
    telemetry_->SetTidSource({});
    SetLogEmitHook({});
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  // The clock and thread-id sources read scheduler state only; they are
  // observation hooks, never inputs to the event timeline.
  telemetry_->SetClock([this] { return static_cast<uint64_t>(NowNanos()); });
  telemetry_->SetTidSource([]() -> uint64_t {
    const SimThread* t = CurrentThreadOrNull();
    return t != nullptr ? t->tid() : 0;
  });
  for (const auto& node : nodes_) {
    (void)telemetry_->metrics().ForNode(node->id(), node->name());
    telemetry_->tracer().RegisterNode(node->id(), node->name());
  }
  // Route log emissions into a per-level counter on the emitting node
  // (scheduler-context lines land on a synthetic "host" row). Safe under
  // concurrent partition threads: ForNode/GetCounter take the registry
  // locks and counters are atomic.
  SetLogEmitHook([this](LogLevel level) {
    if (telemetry_ == nullptr) return;
    static constexpr std::string_view kCounterNames[] = {
        "log.debug", "log.info", "log.warn", "log.error"};
    SimThread* t = CurrentThreadOrNull();
    obs::NodeMetrics& node =
        t != nullptr
            ? telemetry_->metrics().ForNode(t->node().id(), t->node().name())
            : telemetry_->metrics().ForNode(~0u, "host");
    node.GetCounter(kCounterNames[static_cast<int>(level)]).Inc();
  });
}

void Simulation::AttachChecker(check::Checker* checker) {
  checker_ = checker;
  if (checker_ != nullptr) {
    // Observation hook only: the checker reads the clock, never drives it.
    checker_->SetClock([this] { return static_cast<uint64_t>(NowNanos()); });
  }
}

void Simulation::AttachLinChecker(check::LinChecker* lin) { lin_ = lin; }

void Simulation::AttachPolicy(explore::SchedulePolicy* policy) {
  policy_ = policy;
}

void Simulation::At(Nanos t, EventFn fn) {
  Partition* cur = CurrentPartition();
  Partition& p = cur != nullptr ? *cur : *partitions_.front();
  p.Push(std::max(t, cur != nullptr ? cur->now : driver_now_),
         Event{.fn = std::move(fn)});
}

void Simulation::After(Nanos delay, EventFn fn) {
  At(NowNanos() + delay, std::move(fn));
}

void Simulation::PostToNode(uint32_t node_id, Nanos t, EventFn fn) {
  Partition& target = *nodes_.at(node_id)->partition_;
  Partition* cur = CurrentPartition();
  Event e{.fn = std::move(fn)};
  if (cur != nullptr && cur != &target) {
    // Cross-partition: buffered in post order, merged at the next epoch
    // barrier (seq stamped there, under the merge rule).
    cur->outbox.push_back({target.index, t, std::move(e)});
    return;
  }
  // Same partition, or driver context between runs (no dispatcher is
  // touching any queue): push directly.
  target.Push(std::max(t, cur != nullptr ? cur->now : driver_now_),
              std::move(e));
}

void Simulation::ScheduleWake(SimThread* t, uint64_t gen, Nanos at,
                              int reason) {
  Partition& target = *t->node().partition_;
  Partition* cur = CurrentPartition();
  Event e{
      .fn = {}, .wake_target = t, .wake_gen = gen, .wake_reason = reason};
  if (cur != nullptr && cur != &target) {
    // Cross-partition notify (e.g. a CondVar poked from another node's
    // context under serialized dispatch): routed through the epoch
    // boundary; the generation check makes late arrivals safe.
    cur->outbox.push_back(
        {target.index, std::max(at, cur->now), std::move(e)});
    return;
  }
  target.Push(std::max(at, cur != nullptr ? cur->now : driver_now_),
              std::move(e));
}

void Simulation::RunThreadSlice(SimThread* t) {
  // Scheduler hand-off edge: tick the node's clock component so shadow
  // stamps taken on either side of the slice boundary stay distinct.
  if (checker_ != nullptr) checker_->OnThreadSlice(t->node().id());
  t->Resume();
}

Simulation::EventKey Simulation::ExploreTieBreak(Partition& p,
                                                 EventKey first) {
  // Gather every candidate at this instant. Stale wakes are discarded
  // here instead of at dispatch — staleness is permanent (generations
  // only grow), so early discard is behaviour-identical to the baseline's
  // lazy discard and keeps the clock untouched either way.
  tie_keys_.clear();
  tie_keys_.push_back(first);
  const Nanos t = first.t;
  while (!p.empty() && p.Top().t == t) {
    const EventKey k = p.PopKey();
    if (p.StaleWake(k.slot)) {
      p.Free(k.slot);
      continue;
    }
    tie_keys_.push_back(k);
  }
  size_t pick = 0;
  if (tie_keys_.size() > 1) {
    if (t != p.tie_streak_t) {
      p.tie_streak_t = t;
      p.tie_streak = 0;
    }
    if (++p.tie_streak <= kMaxSameInstantPicks) {
      tie_lanes_.clear();
      for (const EventKey& k : tie_keys_) {
        SimThread* th = p.slab[k.slot].wake_target;
        tie_lanes_.push_back(th != nullptr ? th->node().id()
                                           : explore::kNoLane);
      }
      pick = policy_->PickEvent(tie_lanes_.data(),
                                static_cast<uint32_t>(tie_lanes_.size()));
    }
    // else: livelock guard tripped — baseline FIFO until time advances.
  }
  for (size_t i = 0; i < tie_keys_.size(); ++i) {
    if (i != pick) p.PushKey(tie_keys_[i]);
  }
  return tie_keys_[pick];
}

void Simulation::Run() { RunUntil(kNever); }

void Simulation::DispatchPartition(Partition& p, Nanos deadline, Nanos until,
                                   bool obey_stop) {
  while (!p.empty()) {
    if (obey_stop && stop_requested_.load(std::memory_order_relaxed)) return;
    // Conservative epoch horizon: nothing at or past `until` may run this
    // epoch (cross-partition arrivals up to the horizon are already
    // merged; later ones are not yet visible).
    if (until != kNever && p.Top().t >= until) return;
    EventKey k = p.PopKey();
    if (p.StaleWake(k.slot)) {
      p.Free(k.slot);
      continue;  // stale wake: discard without touching the clock
    }
    // Same-instant tie-break: only consulted when a policy is attached
    // and another event shares this instant, so the un-explored fast
    // path is one branch.
    if (policy_ != nullptr && !p.empty() && p.Top().t == k.t &&
        k.t <= deadline) {
      k = ExploreTieBreak(p, k);
    }
    if (k.t > deadline) {
      // Put it back and stop at the deadline.
      p.PushKey(k);
      p.now = std::max(p.now, deadline);
      return;
    }
    if (k.t > config_.horizon) {
      std::fprintf(stderr,
                   "fatal: simulation passed its horizon (%.3f s) — likely "
                   "livelock\n",
                   ToSeconds(config_.horizon));
      std::abort();
    }
    p.now = std::max(p.now, k.t);
    ++p.events_processed;
    // Release the slot before running the event: whatever it schedules
    // may reuse it (and may grow the slab under any reference into it).
    Event& e = p.slab[k.slot];
    if (SimThread* t = e.wake_target; t != nullptr) {
      t->wake_reason_ = static_cast<SimThread::WakeReason>(e.wake_reason);
      p.Free(k.slot);
      ++p.thread_slices;
      RunThreadSlice(t);
    } else {
      EventFn fn = std::move(e.fn);
      p.Free(k.slot);
      fn();
    }
  }
}

void Simulation::DispatchShare(uint32_t worker, uint32_t stride,
                               Nanos deadline, Nanos until) {
  const size_t count = partitions_.size();
  for (size_t i = worker; i < count; i += stride) {
    Partition& p = *partitions_[i];
    if (p.empty()) continue;
    g_current_partition = &p;
    DispatchPartition(p, deadline, until, /*obey_stop=*/false);
    g_current_partition = nullptr;
  }
}

void Simulation::FlushOutboxes() {
  // Ascending source partition id, each outbox in post order: the gather
  // order per destination is (source partition, post order), and the
  // stable sort by t refines it to (t, source partition, post order) —
  // THE cross-partition merge rule. Destination seqs are stamped in that
  // order, so merged events obey the normal same-instant FIFO tie-break.
  // Bodies go straight into the destination's slab; only their keys are
  // sorted.
  for (auto& sp : partitions_) {
    for (auto& post : sp->outbox) {
      auto& arrivals = merge_scratch_[post.dst];
      if (arrivals.empty()) merge_dirty_.push_back(post.dst);
      arrivals.push_back(
          {post.t, 0, partitions_[post.dst]->Store(std::move(post.ev))});
    }
    sp->outbox.clear();
  }
  for (const uint32_t dst : merge_dirty_) {
    auto& arrivals = merge_scratch_[dst];
    std::stable_sort(
        arrivals.begin(), arrivals.end(),
        [](const EventKey& a, const EventKey& b) { return a.t < b.t; });
    Partition& d = *partitions_[dst];
    for (EventKey& k : arrivals) {
      k.seq = d.next_seq++;
      d.PushKey(k);
    }
    arrivals.clear();
  }
  merge_dirty_.clear();
}

// Epoch rendezvous for the worker pool: the driver publishes
// (gen, deadline, until) and waits for `outstanding` to drain; workers
// dispatch their static share (partition i goes to worker i % workers, so
// the assignment — though not the timeline, which doesn't depend on it —
// is reproducible too).
struct Simulation::EpochSync {
  std::mutex mu;
  std::condition_variable go_cv;
  std::condition_variable done_cv;
  uint64_t gen = 0;
  uint32_t outstanding = 0;
  Nanos deadline = 0;
  Nanos until = 0;
  bool quit = false;
};

void Simulation::RunPartitionedUntil(Nanos deadline) {
  merge_scratch_.resize(partitions_.size());
  // Run-start hooks: models pre-size per-partition pools and pre-resolve
  // telemetry instruments so the parallel phase never mutates shared
  // tables.
  for (auto& hook : prepare_hooks_) hook();
  const auto count = static_cast<uint32_t>(partitions_.size());
  // A checker, a policy, or span tracing observes one global order:
  // dispatch partitions serially (in id order) on this thread. The
  // timeline is identical to parallel dispatch by construction — the
  // epoch structure, merges, and per-partition orders do not depend on
  // which host thread dispatches a partition — so serialized runs are
  // valid goldens for parallel ones and vice versa.
  const bool serialize =
      config_.serialize_dispatch || checker_ != nullptr ||
      lin_ != nullptr || policy_ != nullptr ||
      (telemetry_ != nullptr && telemetry_->tracing());
  const uint32_t workers =
      serialize ? 1 : std::min(config_.host_threads, count);

  EpochSync sync;
  std::vector<std::thread> pool;
  pool.reserve(workers > 0 ? workers - 1 : 0);
  for (uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back([this, &sync, w, workers] {
      uint64_t seen = 0;
      for (;;) {
        Nanos dl = 0;
        Nanos hor = 0;
        {
          std::unique_lock<std::mutex> lock(sync.mu);
          sync.go_cv.wait(lock,
                          [&] { return sync.quit || sync.gen != seen; });
          if (sync.quit) return;
          seen = sync.gen;
          dl = sync.deadline;
          hor = sync.until;
        }
        DispatchShare(w, workers, dl, hor);
        {
          std::lock_guard<std::mutex> lock(sync.mu);
          --sync.outstanding;
        }
        sync.done_cv.notify_one();
      }
    });
  }

  for (;;) {
    FlushOutboxes();
    for (auto& hook : barrier_hooks_) hook();
    // Stop requests take effect at epoch boundaries only — sampling the
    // flag mid-epoch would make the dispatched set depend on worker
    // timing.
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    Nanos tmin = kNever;
    for (const auto& p : partitions_) {
      if (!p->empty()) tmin = std::min(tmin, p->Top().t);
    }
    if (tmin == kNever) break;  // quiescent
    if (tmin > deadline) {
      for (auto& p : partitions_) p->now = std::max(p->now, deadline);
      break;
    }
    // Epochs are event-driven (they start at the global minimum, jumping
    // idle gaps) and extend one lookahead past it: every cross-partition
    // effect of an event at t lands at t + lookahead or later, so events
    // strictly below the horizon can never be invalidated by another
    // partition's work in the same epoch. Without a finite positive
    // lookahead (no fabric attached, or a zero-latency one), fall back to
    // one virtual instant per epoch: partitions may interact at the next
    // instant (driver callbacks poking node state, KillNode), so running
    // any further ahead could reorder cross-partition effects — and
    // instant-sized epochs also keep RequestStop sampling prompt.
    const Nanos la =
        (lookahead_ == kNever || lookahead_ == 0) ? 1 : lookahead_;
    const Nanos until = la >= kNever - tmin ? kNever : tmin + la;
    if (workers > 1) {
      {
        std::lock_guard<std::mutex> lock(sync.mu);
        ++sync.gen;
        sync.outstanding = workers - 1;
        sync.deadline = deadline;
        sync.until = until;
      }
      sync.go_cv.notify_all();
      DispatchShare(0, workers, deadline, until);
      std::unique_lock<std::mutex> lock(sync.mu);
      sync.done_cv.wait(lock, [&] { return sync.outstanding == 0; });
    } else {
      DispatchShare(0, 1, deadline, until);
    }
  }

  if (!pool.empty()) {
    {
      std::lock_guard<std::mutex> lock(sync.mu);
      sync.quit = true;
    }
    sync.go_cv.notify_all();
    for (auto& t : pool) t.join();
  }
  Nanos max_now = driver_now_;
  for (const auto& p : partitions_) max_now = std::max(max_now, p->now);
  driver_now_ = max_now;
}

void Simulation::RunUntil(Nanos deadline) {
  assert(!InSimThread() && "Run must be driven from outside the simulation");
  stop_requested_.store(false, std::memory_order_relaxed);
  if (partitioned_) {
    RunPartitionedUntil(deadline);
    return;
  }
  Partition& p = *partitions_.front();
  g_current_partition = &p;
  DispatchPartition(p, deadline, kNever, /*obey_stop=*/true);
  g_current_partition = nullptr;
  driver_now_ = p.now;
}

void Simulation::KillNode(uint32_t id) {
  Node& node = *nodes_.at(id);
  Partition& target = *node.partition_;
  Partition* cur = CurrentPartition();
  if (cur != nullptr && cur != &target) {
    // Cross-partition kill: routed through the epoch boundary so the
    // takedown lands at a deterministic point in the target's timeline.
    PostToNode(id, cur->now, [this, &node] {
      if (!node.alive()) return;
      node.alive_.store(false, std::memory_order_relaxed);
      SweepKilledThreads(node);
    });
    return;
  }
  if (!node.alive()) return;
  node.alive_.store(false, std::memory_order_relaxed);
  // Sweep at the current instant: wake every still-blocked thread so it
  // unwinds. Gens are read at fire time, so threads that ran in between
  // are still caught (their next Block() throws on the alive_ check).
  PostToNode(id, NowNanos(), [this, &node] { SweepKilledThreads(node); });
}

void Simulation::SweepKilledThreads(Node& node) {
  for (auto& t : node.threads_) {
    if (!t->exited() && t->blocked()) {
      t->wake_reason_ = SimThread::kKilled;
      RunThreadSlice(t.get());
    }
  }
}

size_t Simulation::live_thread_count() const noexcept {
  size_t n = 0;
  for (const auto& node : nodes_) n += node->live_threads();
  return n;
}

void Simulation::Shutdown() {
  shutting_down_.store(true, std::memory_order_relaxed);
  // A caller-attached checker may already be destroyed by the time the
  // simulation unwinds (it is usually declared after the TestCluster that
  // owns us). Everything it could observe below is forced teardown, so
  // detach it now; the owned checker lives until ~Simulation and keeps
  // observing.
  if (checker_ != owned_checker_.get()) checker_ = nullptr;
  if (lin_ != owned_lin_.get()) lin_ = nullptr;
  for (auto& node : nodes_) {
    node->alive_.store(false, std::memory_order_relaxed);
    for (auto& t : node->threads_) {
      if (!t->exited() && t->blocked()) {
        t->wake_reason_ = SimThread::kKilled;
        RunThreadSlice(t.get());
      }
    }
  }
  // All threads have exited and returned their stacks to the pool.
  for (auto& node : nodes_) {
    for ([[maybe_unused]] auto& t : node->threads_) {
      assert(t->exited());
    }
  }
  // Destroy the threads (and the closures they captured) now rather than
  // from ~Node, so the checkers below see every capture released.
  for (auto& node : nodes_) {
    node->threads_.clear();
  }
  // Exploration accounting (the policy outlives the simulation by
  // contract, so reading it here is safe) and, for env-attached runs that
  // found a violation, the replayable schedule dump — written *before*
  // the rcheck abort below so the repro trace always lands on disk.
  // explore.violations counts the owned (env-attached) checker only; a
  // caller-attached checker belongs to the explorer driver, which reads
  // it directly.
  // The env-attached lin checker finalizes here, before the explore-trace
  // dump, so a PCT-found linearizability violation also gets its
  // replayable schedule written.
  if (owned_lin_ != nullptr) owned_lin_->Finalize();
  if (policy_ != nullptr) {
    if (telemetry_ != nullptr) {
      obs::NodeMetrics& host = telemetry_->metrics().ForNode(~0u, "host");
      host.GetCounter("explore.runs").Inc();
      host.GetCounter("explore.choices").Inc(policy_->choices());
      host.GetCounter("explore.divergences").Inc(policy_->divergences());
      if (owned_checker_ != nullptr) {
        host.GetCounter("explore.violations")
            .Inc(owned_checker_->violation_count());
      }
    }
    if (owned_policy_ != nullptr &&
        ((owned_checker_ != nullptr &&
          owned_checker_->violation_count() > 0) ||
         (owned_lin_ != nullptr && owned_lin_->violation_count() > 0))) {
      static int trace_seq = 0;
      std::string path = "explore_trace.json";
      if (const char* out = std::getenv("RSTORE_EXPLORE_OUT");
          out != nullptr && *out != '\0') {
        path = std::string(out) + "/explore-" + std::to_string(getpid()) +
               "-" + std::to_string(trace_seq++) + ".json";
      }
      std::ofstream f(path);
      if (f.is_open()) {
        f << explore::ToJson(owned_policy_->Trace());
        std::cerr << "rexplore: replayable schedule written to " << path
                  << " (replay with tools/rexplore)\n";
      }
    }
  }
  // Environment-attached checker: turn violations into a visible failure.
  // (A programmatically attached checker belongs to the caller, who
  // inspects violations() itself.)
  if (owned_checker_ != nullptr && owned_checker_->violation_count() > 0) {
    owned_checker_->PrintReports(std::cerr);
    static int dump_seq = 0;
    std::string path = "rcheck_report.json";
    if (const char* out = std::getenv("RSTORE_RCHECK_OUT");
        out != nullptr && *out != '\0') {
      path = std::string(out) + "/rcheck-" + std::to_string(getpid()) +
             "-" + std::to_string(dump_seq++) + ".json";
    }
    std::ofstream f(path);
    if (f.is_open()) {
      owned_checker_->DumpJson(f);
      std::cerr << "rcheck: report written to " << path << '\n';
    }
    std::abort();
  }
  // Environment-attached lin checker: same contract as rcheck above.
  if (owned_lin_ != nullptr && owned_lin_->violation_count() > 0) {
    owned_lin_->PrintReports(std::cerr);
    static int lin_dump_seq = 0;
    std::string path = "rlin_report.json";
    if (const char* out = std::getenv("RSTORE_RLIN_OUT");
        out != nullptr && *out != '\0') {
      path = std::string(out) + "/rlin-" + std::to_string(getpid()) + "-" +
             std::to_string(lin_dump_seq++) + ".json";
    }
    std::ofstream f(path);
    if (f.is_open()) {
      owned_lin_->DumpJson(f);
      std::cerr << "rlin: counterexample written to " << path << '\n';
    }
    std::abort();
  }
  checker_ = nullptr;
  lin_ = nullptr;
  // Detach telemetry last: teardown may still log, and the hooks capture
  // `this`.
  AttachTelemetry(nullptr);
}

}  // namespace rstore::sim
