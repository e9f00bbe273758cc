// Minimal leveled logger. Simulation-aware: when a simulation is active the
// log lines are stamped with virtual time (injected via SetTimestampSource)
// so traces read in cluster order. Emit-safe from several host threads:
// per-level counts are atomic and the stderr write is serialized;
// level/hook/timestamp configuration is still set-up-only (install before
// the run starts).
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace rstore {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace log_internal {

LogLevel GlobalLevel() noexcept;
void Emit(LogLevel level, const std::string& message);

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace log_internal

// Sets the minimum level that is emitted (default: kInfo; tests lower it).
void SetLogLevel(LogLevel level) noexcept;

// Installs a virtual-clock source; pass nullptr to revert to wall time.
void SetTimestampSource(std::function<uint64_t()> now_nanos);

// Cumulative count of lines emitted at `level` (lines filtered out by the
// global level are not counted). Always on — lets tests and benches
// assert "no warnings" without scraping stderr.
[[nodiscard]] uint64_t LogEmitCount(LogLevel level) noexcept;
void ResetLogEmitCounts() noexcept;

// Observer invoked on every emitted line, after the level filter. The
// simulator routes this into the telemetry registry (a counter per level,
// attributed to the emitting node); pass nullptr to uninstall.
void SetLogEmitHook(std::function<void(LogLevel)> hook);

#define RSTORE_LOG(level)                                               \
  if (static_cast<int>(level) <                                         \
      static_cast<int>(::rstore::log_internal::GlobalLevel())) {        \
  } else                                                                \
    ::rstore::log_internal::LogLine(level, __FILE__, __LINE__)

#define LOG_DEBUG RSTORE_LOG(::rstore::LogLevel::kDebug)
#define LOG_INFO RSTORE_LOG(::rstore::LogLevel::kInfo)
#define LOG_WARN RSTORE_LOG(::rstore::LogLevel::kWarn)
#define LOG_ERROR RSTORE_LOG(::rstore::LogLevel::kError)

}  // namespace rstore
