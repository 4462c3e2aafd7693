// Minimal leveled logging for the eclarity libraries.
//
// Usage:
//   ECLARITY_LOG(Info) << "calibrated " << n << " coefficients";
//
// Logging defaults to Warning-and-above on stderr; tests and benches can
// raise or lower the threshold with SetLogThreshold(). Each record is
// formatted into one string and emitted with a single write under a lock,
// so records never interleave even when Monte Carlo workers or concurrent
// service callers log from several threads at once.

#ifndef ECLARITY_SRC_UTIL_LOGGING_H_
#define ECLARITY_SRC_UTIL_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace eclarity {

enum class LogSeverity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

const char* LogSeverityName(LogSeverity severity);

// Sets the global minimum severity that is actually emitted.
void SetLogThreshold(LogSeverity severity);
LogSeverity GetLogThreshold();

// Replaces the destination of log records. The sink receives each complete,
// formatted record (no trailing newline); it is invoked under the logging
// lock, so it needs no synchronisation of its own. Passing nullptr restores
// the default stderr sink. Tests use this to capture output.
using LogSink = std::function<void(LogSeverity, const std::string& record)>;
void SetLogSink(LogSink sink);

// One log statement. Accumulates into a stream, emits on destruction.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogSeverity severity_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

#define ECLARITY_LOG(severity)                                             \
  ::eclarity::LogMessage(::eclarity::LogSeverity::k##severity, __FILE__, \
                         __LINE__)

}  // namespace eclarity

#endif  // ECLARITY_SRC_UTIL_LOGGING_H_
