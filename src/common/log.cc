#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

namespace rstore {
namespace {

LogLevel g_level = LogLevel::kInfo;
std::function<uint64_t()> g_now;  // virtual-time source, optional
std::function<void(LogLevel)> g_emit_hook;
// Atomic: simulations on different host threads may emit concurrently,
// and the per-level counts must stay exact (tests assert "no warnings" on
// them).
std::atomic<uint64_t> g_emit_counts[4] = {};
std::mutex g_emit_mu;  // keeps concurrently-emitted lines whole on stderr

const char* LevelTag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}

uint64_t NowNanos() {
  if (g_now) return g_now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // Host-process fallback for log timestamps when no virtual-time
          // source is installed; never feeds simulation state.
          // NOLINTNEXTLINE(rdet-wallclock)
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SetLogLevel(LogLevel level) noexcept { g_level = level; }

void SetTimestampSource(std::function<uint64_t()> now_nanos) {
  g_now = std::move(now_nanos);
}

uint64_t LogEmitCount(LogLevel level) noexcept {
  return g_emit_counts[static_cast<int>(level)].load(
      std::memory_order_relaxed);
}

void ResetLogEmitCounts() noexcept {
  for (auto& c : g_emit_counts) c.store(0, std::memory_order_relaxed);
}

void SetLogEmitHook(std::function<void(LogLevel)> hook) {
  g_emit_hook = std::move(hook);
}

namespace log_internal {

LogLevel GlobalLevel() noexcept { return g_level; }

void Emit(LogLevel level, const std::string& message) {
  g_emit_counts[static_cast<int>(level)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (g_emit_hook) g_emit_hook(level);
  const uint64_t t = NowNanos();
  std::lock_guard<std::mutex> lock(g_emit_mu);
  std::fprintf(stderr, "[%s %9.3fms] %s\n", LevelTag(level),
               static_cast<double>(t) / 1e6, message.c_str());
}

LogLine::LogLine(LogLevel level, const char* file, int line) : level_(level) {
  // Strip directories from __FILE__ for compact output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << base << ':' << line << "] ";
}

LogLine::~LogLine() { Emit(level_, stream_.str()); }

}  // namespace log_internal
}  // namespace rstore
