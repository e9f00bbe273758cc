// Unit tests for the virtual-time simulator: clock behaviour, cooperative
// scheduling determinism, condition variables, failure injection, the
// SimThread fibers' per-thread state and stack guard, and the CPU/disk
// cost models.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "explore/policy.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace rstore::sim {
namespace {

TEST(TimeTest, Literals) {
  EXPECT_EQ(Micros(1.3), 1300u);
  EXPECT_EQ(Millis(2), 2'000'000u);
  EXPECT_EQ(Seconds(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(31.7)), 31.7);
}

TEST(TimeTest, TransferTimeRoundsUpAndNeverZero) {
  EXPECT_EQ(TransferTime(0, 1e9), 0u);
  EXPECT_GE(TransferTime(1, 1e12), 1u);  // sub-ns rounds up to 1
  // 1 GiB at 8 Gb/s = 2^30 bytes * 8 / 8e9 s ≈ 1.0737 s.
  EXPECT_NEAR(ToSeconds(TransferTime(1ULL << 30, 8e9)), 1.0737, 0.001);
}

TEST(SimulationTest, SleepAdvancesVirtualClock) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  Nanos observed = 0;
  n.Spawn("main", [&] {
    EXPECT_EQ(Now(), 0u);
    Sleep(Micros(5));
    observed = Now();
  });
  sim.Run();
  EXPECT_EQ(observed, Micros(5));
  EXPECT_EQ(sim.NowNanos(), Micros(5));
}

TEST(SimulationTest, ComputeIsInstantInVirtualTime) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  n.Spawn("main", [&] {
    volatile uint64_t x = 0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<uint64_t>(i);
    EXPECT_EQ(Now(), 0u);  // pure compute costs nothing unless charged
  });
  sim.Run();
}

TEST(SimulationTest, ThreadsInterleaveDeterministically) {
  // Two runs with the same seed produce the same interleaving. The trace
  // is ONE host vector shared by threads on three nodes: the global order
  // of same-instant pushes from different partitions is defined only
  // under serialized dispatch (virtual time is deterministic either way),
  // so pin serialize_dispatch for the partitioned-scheduler gate.
  auto run = [] {
    Simulation sim(SimConfig{.seed = 77, .serialize_dispatch = true});
    std::vector<std::string> trace;
    for (int i = 0; i < 3; ++i) {
      Node& n = sim.AddNode("n" + std::to_string(i));
      n.Spawn("w", [&trace, i] {
        for (int k = 0; k < 3; ++k) {
          Sleep(Micros(10 * (i + 1)));
          trace.push_back("n" + std::to_string(i) + ":" + std::to_string(k));
        }
      });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulationTest, SameInstantEventsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(100, [&] { order.push_back(1); });
  sim.At(100, [&] { order.push_back(2); });
  sim.At(50, [&] { order.push_back(0); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// THE equal-vtime tie-break rule, documented on Event in sim/simulation.h:
// events at one virtual instant dispatch in FIFO order of *scheduling* —
// the heap orders by (t, seq) and thread wakes and plain callbacks share
// one seq counter, so kind never matters. The baseline exploration policy
// must preserve exactly this order (its pick 0 *is* this order).
TEST(SimulationTest, SameInstantEventsDispatchInFifoOrder) {
  // This pins the *legacy* single-queue interleaving: a driver callback
  // notifying a node-owned CondVar interleaved with same-instant driver
  // callbacks shares one seq counter. Under the partitioned scheduler the
  // driver and node "a" live on different partitions, so that interleaving
  // cannot exist (cross-partition wakes merge at epoch boundaries) — the
  // per-partition FIFO rule is pinned by partition_test.cc instead.
  if (PartitionedEnvRequested()) {
    GTEST_SKIP() << "pins legacy single-queue interleaving";
  }
  auto run = [](explore::SchedulePolicy* policy) {
    Simulation sim;
    if (policy != nullptr) sim.AttachPolicy(policy);
    Node& n = sim.AddNode("a");
    CondVar cv(sim);
    std::vector<int> order;
    for (int i = 0; i < 2; ++i) {
      n.Spawn("waiter", [&, i] {
        cv.Wait();
        order.push_back(10 + i);
      });
    }
    // From a driver callback at t=100, interleave thread wakes with plain
    // callbacks at the same instant: wake(w0), cb(0), wake(w1), cb(1).
    sim.At(100, [&] {
      cv.NotifyOne();
      sim.At(100, [&] { order.push_back(0); });
      cv.NotifyOne();
      sim.At(100, [&] { order.push_back(1); });
    });
    sim.Run();
    return order;
  };
  const std::vector<int> expected{10, 0, 11, 1};
  EXPECT_EQ(run(nullptr), expected);
  explore::BaselinePolicy baseline;
  EXPECT_EQ(run(&baseline), expected);
}

// Queue-order property over a seeded mix that exercises every path that
// moves queued events: callbacks and thread wakes with heavy same-instant
// ties, at-now posts from inside callbacks, CondVar wakes racing their
// timeouts (the loser becomes a stale wake), and RunUntil at random
// deadlines (the first event past a deadline is put back). Delays also
// straddle the 4096 ns edge of the queue's near-future ring (4095, 4096,
// 4097) or reach far past it (1 us to 2 ms), so keys cross between ring
// and heap and the ring wraps many times. Every event scheduled on the
// node's queue gets an id in scheduling order; each live one must run
// exactly once, in (t, id) order. Returns the dispatched (t, id) sequence.
std::vector<std::pair<Nanos, uint64_t>> RunQueueOrderMix(
    uint64_t seed, uint32_t host_threads, explore::SchedulePolicy* policy) {
  constexpr size_t kMaxEvents = 4000;
  constexpr int kThreads = 6;
  constexpr int kStepsPerThread = 60;
  Simulation sim(SimConfig{.seed = seed, .host_threads = host_threads});
  if (policy != nullptr) sim.AttachPolicy(policy);
  Node& node = sim.AddNode("a");
  CondVar cv(sim);
  Rng rng(seed);

  enum State : uint8_t { kPending, kRan, kCancelled };
  std::vector<Nanos> when;  // by id
  std::vector<State> state;  // by id
  std::vector<std::pair<Nanos, uint64_t>> ran;
  auto track = [&](Nanos t) {
    when.push_back(t);
    state.push_back(kPending);
    return static_cast<uint64_t>(when.size() - 1);
  };
  auto fire = [&](uint64_t id) {
    EXPECT_EQ(state[id], kPending) << "event " << id;
    EXPECT_EQ(when[id], sim.NowNanos()) << "event " << id;
    state[id] = kRan;
    ran.emplace_back(when[id], id);
  };
  // Mostly same-instant ties; then the ring's window edge; then far.
  size_t far_delays = 0;
  auto tie_delay = [&]() -> Nanos {
    static constexpr Nanos kDelays[] = {0,    0,    0,    0,   0,   1,
                                        3,    0,    0,    1,   3,   4095,
                                        4096, 4097, 4095, 4097};
    if (rng.NextBool(0.03)) {
      ++far_delays;
      return Micros(1) + rng.NextBelow(Millis(2));
    }
    return kDelays[rng.NextBelow(std::size(kDelays))];
  };
  // Mirror of cv's waiter queue, and the notify wake (if any) sent to
  // each waiting thread.
  std::deque<int> waiters;
  std::vector<std::optional<uint64_t>> notify_wake(kThreads);

  std::function<void(Nanos)> post = [&](Nanos delay) {
    if (when.size() >= kMaxEvents) return;
    const Nanos t = sim.NowNanos() + delay;
    const uint64_t id = track(t);
    sim.PostToNode(node.id(), t, [&, id] {
      fire(id);
      for (uint64_t n = rng.NextBelow(4); n > 0; --n) post(tie_delay());
      if (!waiters.empty() && rng.NextBool(0.3)) {
        const int th = waiters.front();
        waiters.pop_front();
        notify_wake[th] = track(sim.NowNanos());
        cv.NotifyOne();
      }
    });
  };

  for (int i = 0; i < kThreads; ++i) {
    const uint64_t start = track(0);
    node.Spawn("t" + std::to_string(i), [&, i, start] {
      fire(start);
      for (int step = 0; step < kStepsPerThread; ++step) {
        const Nanos now = Now();
        switch (rng.NextBelow(3)) {
          case 0: {
            const Nanos d = tie_delay();
            const uint64_t id = track(now + d);
            Sleep(d);
            fire(id);
            break;
          }
          case 1: {
            const Nanos timeout = 1 + tie_delay();
            waiters.push_back(i);
            notify_wake[i].reset();
            const uint64_t timeout_id = track(now + timeout);
            const bool notified = cv.WaitFor(timeout);
            // Whichever of the two wakes sorts first ends the wait; the
            // other is stale and must never run.
            const std::optional<uint64_t> n = notify_wake[i];
            const bool notify_first =
                n.has_value() && std::pair(when[*n], *n) <
                                     std::pair(when[timeout_id], timeout_id);
            EXPECT_EQ(notified, notify_first);
            if (notified) {
              fire(*n);
              state[timeout_id] = kCancelled;
            } else {
              fire(timeout_id);
              if (n.has_value()) state[*n] = kCancelled;
              std::erase(waiters, i);
            }
            break;
          }
          default:
            post(tie_delay());
            break;
        }
      }
    });
  }

  Nanos deadline = 0;
  for (int round = 0; round < 256; ++round) {
    for (uint64_t n = rng.NextBelow(4); n > 0; --n) post(tie_delay());
    deadline += rng.NextBool(0.5) ? static_cast<Nanos>(rng.NextBelow(4))
                                  : tie_delay();
    sim.RunUntil(deadline);
  }
  sim.Run();

  for (uint64_t id = 0; id < state.size(); ++id) {
    EXPECT_NE(state[id], kPending) << "event " << id << " never ran";
  }
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
  // The mix must actually exercise ties and stale wakes.
  size_t ties = 0;
  for (size_t i = 1; i < ran.size(); ++i) {
    if (ran[i].first == ran[i - 1].first) ++ties;
  }
  EXPECT_GT(ties, ran.size() / 2);
  EXPECT_GT(std::count(state.begin(), state.end(), kCancelled), 10);
  // ... and far delays, across many wraps of the 4096 ns ring.
  EXPECT_GT(far_delays, 20u);
  EXPECT_GT(ran.back().first, Nanos{4096} * 100);
  return ran;
}

TEST(EventQueueProperty, EveryEventRunsOnceInTimeThenScheduleOrder) {
  for (const uint64_t seed : {1, 2, 3}) {
    const auto reference = RunQueueOrderMix(seed, 0, nullptr);
    EXPECT_GT(reference.size(), 1000u);
    for (const uint32_t host_threads : {0u, 1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", host_threads "
                                      << host_threads);
      EXPECT_EQ(RunQueueOrderMix(seed, host_threads, nullptr), reference);
      explore::BaselinePolicy baseline;
      EXPECT_EQ(RunQueueOrderMix(seed, host_threads, &baseline), reference);
    }
  }
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  int steps = 0;
  n.Spawn("main", [&] {
    for (int i = 0; i < 10; ++i) {
      Sleep(Millis(1));
      ++steps;
    }
  });
  sim.RunUntil(Millis(3));
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(sim.NowNanos(), Millis(3));
  sim.Run();
  EXPECT_EQ(steps, 10);
}

TEST(SimulationTest, YieldRunsAfterAlreadyQueuedEvents) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  std::vector<int> order;
  n.Spawn("first", [&] {
    order.push_back(1);
    Yield();
    order.push_back(3);
  });
  n.Spawn("second", [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SpawnFromInsideThread) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  bool child_ran = false;
  n.Spawn("parent", [&] {
    Sleep(Micros(1));
    CurrentNode().Spawn("child", [&] { child_ran = true; });
  });
  sim.Run();
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(sim.live_thread_count(), 0u);
}

// -------------------------------------------------------------- CondVar --
TEST(CondVarTest, NotifyOneWakesSingleWaiter) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    n.Spawn("waiter", [&] {
      cv.Wait();
      ++woken;
    });
  }
  n.Spawn("notifier", [&] {
    Sleep(Micros(10));
    cv.NotifyOne();
    Sleep(Micros(10));
    cv.NotifyAll();
  });
  sim.RunUntil(Micros(15));
  EXPECT_EQ(woken, 1);
  sim.Run();
  EXPECT_EQ(woken, 3);
}

TEST(CondVarTest, WaitForTimesOut) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  bool notified = true;
  Nanos end = 0;
  n.Spawn("waiter", [&] {
    notified = cv.WaitFor(Micros(50));
    end = Now();
  });
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(end, Micros(50));
}

TEST(CondVarTest, WaitForReturnsTrueOnNotify) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  bool notified = false;
  Nanos end = 0;
  n.Spawn("waiter", [&] {
    notified = cv.WaitFor(Micros(50));
    end = Now();
  });
  n.Spawn("notifier", [&] {
    Sleep(Micros(10));
    cv.NotifyOne();
  });
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(end, Micros(10));
}

TEST(CondVarTest, StaleTimeoutAfterNotifyIsIgnored) {
  // Thread is notified before its timeout; the later timeout event must
  // not wake the thread's *next* wait.
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  std::vector<Nanos> wakes;
  n.Spawn("waiter", [&] {
    EXPECT_TRUE(cv.WaitFor(Micros(100)));
    wakes.push_back(Now());
    cv.Wait();  // must not be woken by the stale 100us timeout
    wakes.push_back(Now());
  });
  n.Spawn("notifier", [&] {
    Sleep(Micros(10));
    cv.NotifyOne();
    Sleep(Millis(1));
    cv.NotifyOne();
  });
  sim.Run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], Micros(10));
  EXPECT_EQ(wakes[1], Micros(10) + Millis(1));
}

TEST(CondVarTest, WaitUntilForPredicate) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  int value = 0;
  bool ok = false;
  n.Spawn("waiter", [&] {
    ok = cv.WaitUntilFor([&] { return value == 3; }, Millis(10));
  });
  n.Spawn("producer", [&] {
    for (int i = 1; i <= 3; ++i) {
      Sleep(Micros(100));
      value = i;
      cv.NotifyAll();
    }
  });
  sim.Run();
  EXPECT_TRUE(ok);
}

TEST(CondVarTest, WaitUntilForTimesOutWhenPredicateNeverTrue) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  bool ok = true;
  Nanos end = 0;
  n.Spawn("waiter", [&] {
    ok = cv.WaitUntilFor([] { return false; }, Millis(2));
    end = Now();
  });
  sim.Run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(end, Millis(2));
}

// ----------------------------------------------------- Failure injection --
TEST(KillTest, BlockedThreadsUnwindWithRaii) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  Node& killer = sim.AddNode("killer");
  CondVar cv(sim);
  bool cleaned_up = false;
  victim.Spawn("server", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    cv.Wait();  // blocks forever; killed mid-wait
    FAIL() << "should never wake normally";
  });
  killer.Spawn("killer", [&] {
    Sleep(Micros(5));
    CurrentNode().sim().KillNode(victim.id());
  });
  sim.Run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_FALSE(victim.alive());
  EXPECT_EQ(victim.live_threads(), 0u);
}

TEST(KillTest, RunningThreadDiesAtNextBlockingCall) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  int phase = 0;
  victim.Spawn("worker", [&] {
    phase = 1;
    CurrentNode().sim().KillNode(CurrentNode().id());  // self-kill
    phase = 2;      // still runs: kill takes effect at next yield
    Sleep(Micros(1));  // throws ThreadKilled
    phase = 3;
  });
  sim.Run();
  EXPECT_EQ(phase, 2);
}

TEST(KillTest, KillIsIdempotent) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  victim.Spawn("w", [&] { Sleep(Seconds(100)); });
  sim.KillNode(victim.id());
  sim.KillNode(victim.id());
  sim.Run();
  EXPECT_EQ(victim.live_threads(), 0u);
}

TEST(KillTest, SleepingThreadKilledBeforeWake) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  bool woke_normally = false;
  victim.Spawn("sleeper", [&] {
    Sleep(Seconds(10));
    woke_normally = true;
  });
  sim.After(Millis(1), [&] { sim.KillNode(victim.id()); });
  sim.Run();
  EXPECT_FALSE(woke_normally);
  // Clock must not have jumped to the 10s wake.
  EXPECT_LT(sim.NowNanos(), Seconds(1));
}

TEST(ShutdownTest, DestructorUnwindsBlockedThreads) {
  bool cleaned_up = false;
  {
    Simulation sim;
    Node& n = sim.AddNode("a");
    auto cv = std::make_shared<CondVar>(sim);
    n.Spawn("waiter", [&cleaned_up, cv] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&cleaned_up};
      cv->Wait();
    });
    sim.Run();  // quiescent: waiter blocked forever
    EXPECT_EQ(sim.live_thread_count(), 1u);
  }
  EXPECT_TRUE(cleaned_up);
}

// ---------------------------------------------------------------- Fibers --
// A thread that blocks inside a catch handler, or in a destructor while
// an exception unwinds, keeps its own C++ exception state: the threads
// that run meanwhile on the same host thread neither see it nor disturb
// what its `throw;` rethrows.
TEST(FiberTest, ExceptionStateIsPerThread) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  std::string a_rethrew;
  int a_uncaught_in_unwind = -1;
  std::string b_caught;
  int b_uncaught = -1;
  n.Spawn("a", [&] {
    try {
      try {
        throw std::runtime_error("from a");
      } catch (const std::runtime_error&) {
        Sleep(Micros(10));  // b throws and parks in its handler meanwhile
        throw;
      }
    } catch (const std::runtime_error& e) {
      a_rethrew = e.what();
    }
    struct Unwinder {
      int* uncaught;
      ~Unwinder() {
        Sleep(Micros(10));  // parked mid-unwind while b checks its count
        *uncaught = std::uncaught_exceptions();
      }
    };
    try {
      Unwinder u{&a_uncaught_in_unwind};
      throw 1;
    } catch (int) {
    }
  });
  n.Spawn("b", [&] {
    Sleep(Micros(5));
    try {
      throw std::logic_error("from b");
    } catch (const std::logic_error& e) {
      Sleep(Micros(10));  // a rethrows at t=10 while this handler is open
      b_caught = e.what();
    }
    b_uncaught = std::uncaught_exceptions();  // t=15: a is mid-unwind
  });
  sim.Run();
  EXPECT_EQ(a_rethrew, "from a");
  EXPECT_EQ(a_uncaught_in_unwind, 1);
  EXPECT_EQ(b_caught, "from b");
  EXPECT_EQ(b_uncaught, 0);
}

// Partitioned mode starts fresh epoch workers on every RunUntil, so a
// thread parked across RunUntil calls resumes on a different host thread
// than it parked on. It must still see its own clock and node.
TEST(FiberTest, ParkedThreadsResumeOnOtherHostThreads) {
  Simulation sim(SimConfig{.host_threads = 4});
  constexpr uint32_t kNodes = 8;
  constexpr int kSteps = 3;
  struct Seen {
    Nanos now;
    uint32_t node;
    long host_tid;
  };
  std::vector<std::vector<Seen>> seen(kNodes);
  for (uint32_t i = 0; i < kNodes; ++i) {
    Node& n = sim.AddNode(std::to_string(i));
    n.Spawn("w", [&seen, i] {
      for (int k = 0; k < kSteps; ++k) {
        seen[i].push_back({Now(), CurrentNode().id(), syscall(SYS_gettid)});
        Sleep(Micros(10) + i);
      }
    });
  }
  sim.RunUntil(Micros(5));
  sim.RunUntil(Micros(15));
  sim.RunUntil(Micros(25));
  sim.Run();
  int migrations = 0;
  for (uint32_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(seen[i].size(), static_cast<size_t>(kSteps));
    for (int k = 0; k < kSteps; ++k) {
      EXPECT_EQ(seen[i][k].now, k * (Micros(10) + i)) << "node " << i;
      EXPECT_EQ(seen[i][k].node, i);
      if (k > 0 && seen[i][k].host_tid != seen[i][k - 1].host_tid) {
        ++migrations;
      }
    }
  }
  // Two nodes share the driver's worker slot; the rest run on workers
  // that each RunUntil creates anew — unless the environment serializes
  // dispatch (an env-attached checker or policy, RSTORE_PARTITION_SERIAL),
  // in which case everything runs on this thread and nothing migrates.
  std::set<long> hosts;
  for (const auto& steps : seen) {
    for (const Seen& s : steps) hosts.insert(s.host_tid);
  }
  if (hosts.size() == 1) GTEST_SKIP() << "dispatch serialized";
  EXPECT_GT(migrations, 0);
}

// Runaway recursion in a SimThread must fault on its stack's guard page,
// not run on into whatever is mapped below the stack.
const char* volatile g_fiber_stack_top = nullptr;
volatile size_t g_fiber_stack_size = 0;
volatile int g_recursion_stop = -1;

int Recurse(int depth) {
  if (depth == g_recursion_stop) return 0;
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  return Recurse(depth + 1) + frame[0];
}

size_t DefaultThreadStackSize() {
  size_t size = 0;
  pthread_attr_t attr;
  if (pthread_getattr_default_np(&attr) == 0) {
    (void)pthread_attr_getstacksize(&attr, &size);
    pthread_attr_destroy(&attr);
  }
  return size;
}

void ExitOnGuardPageFault(int /*sig*/, siginfo_t* info, void* /*ctx*/) {
  const auto top = reinterpret_cast<uintptr_t>(g_fiber_stack_top);
  const auto fault = reinterpret_cast<uintptr_t>(info->si_addr);
  const size_t size = g_fiber_stack_size;
  const size_t depth = top - fault;
  constexpr char kGuard[] = "fault on the guard page\n";
  constexpr char kElsewhere[] = "fault away from the guard page\n";
  if (fault < top && depth + (size_t{64} << 10) >= size &&
      depth <= size + (size_t{64} << 10)) {
    (void)!write(2, kGuard, sizeof kGuard - 1);
    _exit(3);
  }
  (void)!write(2, kElsewhere, sizeof kElsewhere - 1);
  _exit(4);
}

TEST(FiberDeathTest, RunawayRecursionFaultsOnGuardPage) {
  EXPECT_EXIT(
      {
        static std::vector<char> alt(size_t{256} << 10);
        stack_t ss{};
        ss.ss_sp = alt.data();
        ss.ss_size = alt.size();
        sigaltstack(&ss, nullptr);
        struct sigaction sa{};
        sa.sa_sigaction = ExitOnGuardPageFault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        sigaction(SIGBUS, &sa, nullptr);
        g_fiber_stack_size = DefaultThreadStackSize();
        // One host thread: the fiber runs on this one, whose alternate
        // signal stack the handler needs.
        Simulation sim(SimConfig{.host_threads = 1});
        Node& n = sim.AddNode("a");
        n.Spawn("deep", [] {
          // The frame address, not a local's: under ASan's use-after-return
          // mode locals live on a heap-backed fake stack.
          g_fiber_stack_top =
              static_cast<const char*>(__builtin_frame_address(0));
          (void)Recurse(0);
        });
        sim.Run();
      },
      testing::ExitedWithCode(3), "fault on the guard page");
}

// ------------------------------------------------------------ Cost model --
TEST(CostModelTest, MemcpyCostMatchesBandwidth) {
  CpuCostModel m;  // 40 Gb/s = 5 GB/s
  EXPECT_NEAR(ToSeconds(MemcpyCost(m, 5ULL << 30)), 1.0737, 0.01);
  EXPECT_EQ(MemcpyCost(m, 0), 0u);
}

TEST(CostModelTest, SortCostIsNLogN) {
  CpuCostModel m;
  EXPECT_EQ(SortCost(m, 0), 0u);
  EXPECT_EQ(SortCost(m, 1), 0u);
  const Nanos c1m = SortCost(m, 1 << 20);
  const Nanos c2m = SortCost(m, 1 << 21);
  // Doubling n slightly more than doubles the cost.
  EXPECT_GT(c2m, 2 * c1m);
  EXPECT_LT(c2m, 3 * c1m);
}

TEST(CostModelTest, ChargeCpuAdvancesClock) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CpuCostModel m;
  n.Spawn("w", [&] {
    ChargeCpu(MemcpyCost(m, 1 << 20));
    EXPECT_GT(Now(), 0u);
  });
  sim.Run();
}

TEST(SimDiskTest, SequentialReadTimeMatchesBandwidth) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  DiskCostModel model;  // 1.2 Gb/s read
  SimDisk disk(sim, model);
  Nanos elapsed = 0;
  n.Spawn("reader", [&] {
    const Nanos start = Now();
    disk.Read(150'000'000, /*sequential=*/true);  // 150 MB at 150 MB/s
    elapsed = Now() - start;
  });
  sim.Run();
  EXPECT_NEAR(ToSeconds(elapsed), 1.0, 0.01);
  EXPECT_EQ(disk.bytes_read(), 150'000'000u);
}

TEST(SimDiskTest, RandomIoPaysSeek) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  SimDisk disk(sim, DiskCostModel{});
  Nanos seq_time = 0, rand_time = 0;
  n.Spawn("io", [&] {
    Nanos t0 = Now();
    disk.Read(4096, true);
    seq_time = Now() - t0;
    t0 = Now();
    disk.Read(4096, false);
    rand_time = Now() - t0;
  });
  sim.Run();
  EXPECT_GE(rand_time, seq_time + Millis(7));
}

TEST(SimDiskTest, ConcurrentRequestsSerializeOnSpindle) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  SimDisk disk(sim, DiskCostModel{});
  Nanos done_a = 0, done_b = 0;
  n.Spawn("a", [&] {
    disk.Write(125'000'000, true);  // 1 s at 125 MB/s
    done_a = Now();
  });
  n.Spawn("b", [&] {
    disk.Write(125'000'000, true);
    done_b = Now();
  });
  sim.Run();
  const Nanos last = std::max(done_a, done_b);
  EXPECT_NEAR(ToSeconds(last), 2.0, 0.02);  // serialized, not parallel
}

}  // namespace
}  // namespace rstore::sim
