#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

namespace hera {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

/// The threshold HERA_LOG_LEVEL requests, or kWarning when unset or
/// unparseable.
LogLevel LevelFromEnv() {
  const char* env = std::getenv("HERA_LOG_LEVEL");
  LogLevel level = LogLevel::kWarning;
  if (env != nullptr) ParseLogLevel(env, &level);
  return level;
}

/// Magic static: the env var is consulted exactly once, on first use.
std::atomic<LogLevel>& Level() {
  static std::atomic<LogLevel> g_level{LevelFromEnv()};
  return g_level;
}

/// Room for the timestamp whatever the int fields hold: seven fields of
/// at most 11 chars ("-2147483648"), seven separators and the NUL, so
/// the snprintf below can never truncate.
constexpr size_t kTimestampBufSize = 7 * 11 + 7 + 1;

/// "2026-08-05T12:34:56.789Z" (UTC) for the current wall clock.
///
/// system_clock is intentional here — log lines must correlate with
/// external logs/events, so they carry wall time and may jump under
/// NTP. Every *measured* duration in the codebase (Timer, spans,
/// timeline samples, deadlines) uses steady_clock instead.
void FormatTimestamp(char* buf, size_t buf_size) {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  auto now = std::chrono::system_clock::now();
  std::time_t secs = std::chrono::system_clock::to_time_t(now);
  int ms = static_cast<int>(
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  std::snprintf(buf, buf_size, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec, ms);
}

}  // namespace

LogLevel GetLogLevel() { return Level().load(std::memory_order_relaxed); }
void SetLogLevel(LogLevel level) {
  Level().store(level, std::memory_order_relaxed);
}

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn") {
    *out = LogLevel::kWarning;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else if (lower == "off") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= GetLogLevel() && level != LogLevel::kOff) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    char ts[kTimestampBufSize];
    FormatTimestamp(ts, sizeof(ts));
    stream_ << "[" << ts << " " << LevelName(level) << " tid:"
            << std::this_thread::get_id() << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) std::cerr << stream_.str() << "\n";
}

}  // namespace internal
}  // namespace hera
