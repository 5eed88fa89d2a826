// Self-profiling for the harness itself: where does a campaign's
// wall-clock go — simulation, report serialization, cache I/O, pool
// scheduling? Disabled by default with the same zero-hot-path-cost
// contract as tracing: every instrumented site checks one relaxed atomic
// bool before touching a clock, so a disabled build path costs a single
// predictable branch and the emitted reports are byte-identical to an
// uninstrumented run.
//
// When enabled (--profile or HT_PROFILE=1), phase timers, counters, and
// gauges accumulate in the process-wide Profiler and surface in two
// places: a `profile` section appended to hammertime.metrics.v1
// documents (validated by trace_check --metrics), and the hammercampaign
// --progress-every heartbeat lines.
#ifndef HAMMERTIME_SRC_COMMON_TELEMETRY_PROFILE_H_
#define HAMMERTIME_SRC_COMMON_TELEMETRY_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/telemetry/json.h"

namespace ht {

class Profiler {
 public:
  static Profiler& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Enabling resets accumulated state and stamps the epoch used for
  // busy-fraction math; disabling freezes it.
  void Enable(bool on = true);
  void Reset();

  // Accumulate `seconds` (and one completion) under `name`. Cold path:
  // called once per phase end, never per simulated cycle.
  void RecordPhase(const std::string& name, double seconds);
  void AddCounter(const std::string& name, uint64_t delta);
  void SetGauge(const std::string& name, double value);

  // Seconds since Enable(); 0 when disabled.
  double ElapsedSeconds() const;

  // The `profile` section: {"schema": "hammertime.profile.v1",
  // "elapsed_seconds": ..., "phases": {name: {"count": N, "seconds": S}},
  // "counters": {name: N}, "gauges": {name: V}} with names sorted so the
  // section is deterministic given the same measurements. Pool gauges
  // (pool.tasks, pool.busy_frac, pool.queue_peak) are refreshed from the
  // shared ThreadPool at export time.
  JsonValue ToJson() const;

  // Appends `profile` to a metrics.v1 document when enabled; no-op (and
  // therefore byte-identical output) when disabled.
  void MaybeAttachTo(JsonValue& metrics_doc) const;

 private:
  Profiler() = default;

  void RefreshPoolGauges() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  struct PhaseTotals {
    uint64_t count = 0;
    double seconds = 0.0;
  };
  std::map<std::string, PhaseTotals> phases_;
  std::map<std::string, uint64_t> counters_;
  mutable std::map<std::string, double> gauges_;
  std::chrono::steady_clock::time_point enabled_at_{};
};

// RAII phase timer. Reads the clock only when the profiler is enabled at
// construction time, so a disabled run pays one branch per scope.
class ProfilePhase {
 public:
  explicit ProfilePhase(const char* name) : name_(name) {
    if (Profiler::Global().enabled()) [[unlikely]] {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfilePhase() {
    if (armed_) {
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_;
      Profiler::Global().RecordPhase(name_, elapsed.count());
    }
  }
  ProfilePhase(const ProfilePhase&) = delete;
  ProfilePhase& operator=(const ProfilePhase&) = delete;

 private:
  const char* name_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

// Validates a `profile` section (schema tag, phases/counters/gauges
// shapes and types). Used by ValidateMetricsDocument and trace_check.
bool ValidateProfileSection(const JsonValue& section, std::string* error);

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_TELEMETRY_PROFILE_H_
