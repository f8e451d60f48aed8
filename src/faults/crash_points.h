// Deterministic process-crash injection for durability testing
// (docs/FAULTS.md §"Process & storage faults").
//
// The sensing fault layer (fault_model.h) corrupts the event stream; this
// registry models the OTHER failure domain — the serving process itself
// dying mid-write. Durability-critical code paths declare named crash
// points (INNET_CRASH_POINT("wal:pre-fsync")); a test arms exactly one
// point, runs the write path in a child process, and the child dies with
// _exit(kCrashExitCode) the N-th time execution reaches the armed point.
// Recovery tests then assert the on-disk state restores bit-identically
// (tests/recovery_test.cc, CI job `crash-recovery`).
//
// Points are compiled in unconditionally: an unarmed Reach() is one relaxed
// atomic load, cheap enough for the ingest path. Arming is deterministic —
// ArmFromSeed(seed) hashes the seed onto (point, hit count), so a CI seed
// matrix covers the product space reproducibly.
#ifndef INNET_FAULTS_CRASH_POINTS_H_
#define INNET_FAULTS_CRASH_POINTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace innet::faults {

/// The crash points registered by the durability layer, in the order the
/// write path reaches them. Kept in one table so seed-matrix tests and
/// ArmFromSeed enumerate exactly the points that exist.
///
///   wal:mid-segment       after appending one batch of framed records,
///                         before the epoch commit record (torn segment
///                         tail)
///   wal:pre-fsync         commit record written and flushed, fsync not yet
///                         issued (commit may or may not survive)
///   snapshot:post-header  snapshot header written, CSR arrays not yet
///                         (torn .tmp file; the .snap rename never happens)
///   publish:pre-publish   epoch fully durable, in-memory store swap lost
const std::vector<std::string>& KnownCrashPoints();

/// Process-global switchboard for named crash points. Thread-safe: Reach()
/// may be called from any thread; the armed hit counter is atomic.
class CrashPointRegistry {
 public:
  /// Exit code of a process killed by an armed crash point. Distinct from
  /// every status the tools return on real errors so harnesses can tell an
  /// injected crash from an accidental one.
  static constexpr int kCrashExitCode = 87;

  static CrashPointRegistry& Global();

  /// Arms `point`: the `hits`-th Reach(point) after this call kills the
  /// process. hits >= 1. Re-arming replaces any previous armed point.
  void Arm(const std::string& point, uint64_t hits = 1);

  /// Deterministically maps `seed` to one (known point, hit count in
  /// [1, max_hits]) pair and arms it. The map is a bijection-free hash:
  /// consecutive seeds jump around the product space.
  void ArmFromSeed(uint64_t seed, uint64_t max_hits = 3);

  /// Arms from the INNET_CRASH_POINT environment variable when set.
  /// Accepted forms: "point" (hits=1), "point:N", or "seed:N" which calls
  /// ArmFromSeed(N). Child processes of crash-matrix tests use this.
  void ArmFromEnv();

  void Disarm();

  /// True when some point is armed (cheap pre-check for diagnostics; the
  /// hot path calls Reach directly).
  bool Armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Name of the armed point, or "" when disarmed.
  std::string ArmedPoint() const;

  /// Declares that execution reached `point`. Kills the process via
  /// _exit(kCrashExitCode) when `point` is armed and its countdown hits
  /// zero; otherwise returns after one relaxed load (unarmed) or one
  /// fetch_sub (armed).
  void Reach(const char* point) {
    if (!armed_.load(std::memory_order_relaxed)) return;
    ReachArmed(point);
  }

  /// Reach() calls observed per point while the registry was armed (the
  /// unarmed fast path skips counting to stay one atomic load). Tests
  /// census a code path by arming an unreachable hit count and reading
  /// these counters afterwards.
  uint64_t HitCount(const std::string& point) const;

  /// Installs a hook that runs right before an armed point _exit()s, with
  /// the firing point's name — the flight recorder dumps its black box
  /// here. The hook must be async-termination-safe (the process is about
  /// to die; no locks it might share with suspended threads). Binaries
  /// wire this up (e.g. to obs::FlightRecorder::CrashPointHook); the
  /// faults library itself stays free of an obs dependency. nullptr
  /// clears.
  void SetPreCrashHook(void (*hook)(const char* point)) {
    pre_crash_hook_.store(hook, std::memory_order_release);
  }

 private:
  CrashPointRegistry();
  void ReachArmed(const char* point);

  std::atomic<bool> armed_{false};
  std::atomic<void (*)(const char*)> pre_crash_hook_{nullptr};
  mutable std::mutex mutex_;
  std::string armed_point_;
  std::atomic<int64_t> remaining_{0};
  // Hit counters parallel to KnownCrashPoints(); unknown points land in a
  // lock-protected side list (they only occur in tests).
  std::unique_ptr<std::atomic<uint64_t>[]> known_counts_;
  std::vector<std::pair<std::string, uint64_t>> other_counts_;
};

}  // namespace innet::faults

/// Marks a named crash point. Compiled in all builds; costs one relaxed
/// atomic load when nothing is armed.
#define INNET_CRASH_POINT(name) \
  ::innet::faults::CrashPointRegistry::Global().Reach(name)

#endif  // INNET_FAULTS_CRASH_POINTS_H_
