// Wall-clock stopwatch for query-latency measurements.
#ifndef INNET_UTIL_TIMER_H_
#define INNET_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace innet::util {

/// Monotonic stopwatch. Starts on construction; Restart() resets the origin.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/Restart in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Elapsed time in whole nanoseconds.
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace innet::util

#endif  // INNET_UTIL_TIMER_H_
