// hostprof: a CPU-time sampler to LD_PRELOAD into any program.
//
//   LD_PRELOAD=<build>/tools/hostprof/libhostprof.so HOSTPROF_OUT=/tmp/prof
//       <program> [args...]          (one command line)
//   python3 tools/hostprof/fold.py /tmp/prof.<pid>.txt
//
// Every 1 ms of the process's CPU time (a CLOCK_PROCESS_CPUTIME_ID timer,
// all threads; the kernel delivers at most one signal per scheduler tick,
// so at HZ=250 a sample stands for 4 ms) the SIGPROF handler records
// two words: the
// interrupted program counter and the word at the stack pointer. The
// second is the return address whenever the PC sits in a leaf routine
// that has not pushed anything, which is the case for libc's
// memcpy/memmove/memset; fold.py uses it to charge those samples to their
// caller. At exit the samples and a copy of /proc/self/maps are written
// to "<HOSTPROF_OUT>.<pid>.txt" (HOSTPROF_OUT defaults to "hostprof"),
// one per process, so preloading into a script that spawns the program
// is harmless.
//
// Output format, one record per line:
//   # hostprof period_us=1000 samples=<n> dropped=<n>
//   S <pc hex> <word at sp hex>
//   M <a line of /proc/self/maps>
//
// Linux on x86-64 or aarch64 (where the second word is the link register
// instead, which plays the same role).
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr long kPeriodUs = 1000;
// 2^21 samples is ~35 minutes of CPU time; the buffer is mapped lazily,
// so only the pages actually filled cost memory.
constexpr size_t kCapacity = size_t{1} << 21;

struct Sample {
  uintptr_t pc;
  uintptr_t ret;
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_count{0};

void OnProf(int /*sig*/, siginfo_t* /*info*/, void* raw) {
  const auto* uc = static_cast<const ucontext_t*>(raw);
#if defined(__x86_64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  const uintptr_t ret = *reinterpret_cast<const uintptr_t*>(sp);
#elif defined(__aarch64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  const auto ret = static_cast<uintptr_t>(uc->uc_mcontext.regs[30]);
#else
#error "hostprof supports x86-64 and aarch64 only"
#endif
  const size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kCapacity) g_samples[i] = {pc, ret};
}

// A POSIX timer, not setitimer(ITIMER_PROF): interval timers survive
// execve, so a preloaded launcher (taskset, env) would hand a running
// timer to a program that has no handler yet, and SIGPROF's default
// action kills it. POSIX timers are deleted at execve.
timer_t g_timer{};
bool g_timer_armed = false;

void SetTimer(long period_us) {
  itimerspec spec{};
  spec.it_interval.tv_nsec = period_us * 1000;
  spec.it_value.tv_nsec = period_us * 1000;
  timer_settime(g_timer, 0, &spec, nullptr);
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kCapacity * sizeof(Sample),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("hostprof: mmap");
    return;
  }
  g_samples = static_cast<Sample*>(mem);
  struct sigaction sa {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  sigevent ev{};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &g_timer) != 0) {
    std::perror("hostprof: timer_create");
    return;
  }
  g_timer_armed = true;
  SetTimer(kPeriodUs);
}

__attribute__((destructor)) void Stop() {
  if (!g_timer_armed) return;
  SetTimer(0);
  const char* prefix = std::getenv("HOSTPROF_OUT");
  const std::string path =
      std::string(prefix != nullptr ? prefix : "hostprof") + "." +
      std::to_string(getpid()) + ".txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::perror(("hostprof: " + path).c_str());
    return;
  }
  const size_t taken = g_count.load(std::memory_order_relaxed);
  const size_t kept = taken < kCapacity ? taken : kCapacity;
  std::fprintf(out, "# hostprof period_us=%ld samples=%zu dropped=%zu\n",
               kPeriodUs, kept, taken - kept);
  for (size_t i = 0; i < kept; ++i) {
    std::fprintf(out, "S %zx %zx\n", static_cast<size_t>(g_samples[i].pc),
                 static_cast<size_t>(g_samples[i].ret));
  }
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      std::fprintf(out, "M %s", line);
    }
    std::fclose(maps);
  }
  std::fclose(out);
}

}  // namespace
