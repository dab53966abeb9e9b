// Monotonic time helpers. All protocol-visible time is int64 nanoseconds so
// the same engine code runs under the discrete-event simulator (virtual
// nanos) and the real runtime (CLOCK_MONOTONIC nanos).
#pragma once

#include <cstdint>
#include <ctime>
#include <limits>

namespace ci {

using Nanos = std::int64_t;

inline constexpr Nanos kMicrosecond = 1000;
inline constexpr Nanos kMillisecond = 1000 * kMicrosecond;
inline constexpr Nanos kSecond = 1000 * kMillisecond;

// An instant that never comes: a timer that is not armed.
inline constexpr Nanos kNoDeadline = std::numeric_limits<Nanos>::max();

inline Nanos now_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

// Spin (do not sleep) for the given duration; used by benchmark clients to
// model think time without giving up the core, mirroring the paper's
// busy client processes.
inline void busy_wait(Nanos d) {
  const Nanos deadline = now_nanos() + d;
  while (now_nanos() < deadline) {
  }
}

}  // namespace ci
