// Shared randomized-input generation for the correctness subsystem: one
// pattern source used by both tests/test_fuzz.cc and tools/hammerfuzz.
//
// Everything a fuzz case does is derived deterministically from its seed
// line, and command streams are prefix-stable in `steps` (running N steps
// replays the first N steps of any longer run with the same seed), which
// is what makes binary-search shrinking sound.
//
// Seed-file format (one case per line, '#' comments allowed):
//   htfuzz v1 device seed=0x2a steps=20000 mask=0x0 inject=0
//   htfuzz v1 scenario seed=0x2a cycles=120000 mask=0x0 inject=0
//   htfuzz v1 pattern seed=0x2a steps=20000 mask=0x0 inject=0
// `mask` disables config features (shrinking aid, kFuzz* bits below;
// unused by pattern cases, kept so all kinds share one line shape);
// `inject` != 0 arms the oracle's fault injection after that many
// commands (scheduler scans for scenario cases) — recorded so an
// injected-divergence repro replays by itself.
#ifndef HAMMERTIME_SRC_CHECK_GENERATOR_H_
#define HAMMERTIME_SRC_CHECK_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "common/rng.h"
#include "dram/config.h"

namespace ht {

// Feature-disable bits for shrinking: a failing case is re-run with each
// bit set; bits that keep it failing stay set, pinning the blame.
inline constexpr uint32_t kFuzzNoTrr = 1u << 0;
inline constexpr uint32_t kFuzzNoRemap = 1u << 1;
inline constexpr uint32_t kFuzzNoEcc = 1u << 2;
inline constexpr uint32_t kFuzzPlainTiming = 1u << 3;   // Default DDR4 timings.
inline constexpr uint32_t kFuzzTinyGeometry = 1u << 4;  // DramConfig::Tiny() shape.

// Width of the hot row band that half the generated ACTs hammer (see
// NextDeviceCommand): concentrating ACTs keeps the disturbance
// accumulators and the TRR tracker under real pressure. (The stream's
// frequent REFsb / REF_NEIGHBORS commands repair victims too often for
// random traffic to flip bits — deterministic hammering in
// tests/test_oracle.cc and the scenario cases cover the flip path.)
inline constexpr uint32_t kFuzzHotRows = 3;

struct FuzzCase {
  enum class Kind : uint8_t { kDevice, kScenario, kPattern };
  Kind kind = Kind::kDevice;
  uint64_t seed = 1;
  uint64_t steps = 20000;   // Device/pattern cases: commands / slots to check.
  Cycle cycles = 120000;    // Scenario cases: run length.
  uint32_t feature_mask = 0;
  uint64_t inject_after = 0;  // Oracle fault injection (0 = off).

  std::string ToSeedLine() const;
};
std::optional<FuzzCase> ParseSeedLine(const std::string& line);

// Randomized DramConfig: Tiny-like geometry with jittered shape, timing,
// MAC/blast, and TRR/remap/ECC toggles. Deterministic in (seed, mask).
DramConfig MakeFuzzDramConfig(uint64_t seed, uint32_t feature_mask);

// One step of the random device command stream (the pattern source
// promoted from tests/test_fuzz.cc, plus REFsb). Draws a fixed number of
// rng values per call regardless of the chosen command, preserving
// prefix stability across config feature masks.
DdrCommand NextDeviceCommand(Rng& rng, const DramConfig& config);

// Drives a bare device with `steps` random commands under the oracle,
// keeping the REF cadence, and cross-checks Check() against Issue().
struct DeviceFuzzOutcome {
  uint64_t issued = 0;
  uint64_t illegal_attempts = 0;
  uint64_t flips = 0;
  uint64_t retention_violations = 0;
  uint64_t check_issue_mismatches = 0;
  uint64_t oracle_divergences = 0;
  std::string report;  // Non-empty iff failed().

  bool failed() const {
    return retention_violations != 0 || check_issue_mismatches != 0 || oracle_divergences != 0;
  }
};
DeviceFuzzOutcome RunDeviceFuzz(const FuzzCase& fuzz_case);

// Shrinks a failing device case: binary-search the smallest failing step
// count (sound because streams are prefix-stable), then greedily disable
// config features that keep it failing, re-tightening steps after each.
FuzzCase ShrinkDeviceFuzz(const FuzzCase& failing);

// Differential pattern oracle: derives seed-jittered PatternParams, runs
// the PatternBuilder, and cross-checks three independent expansions of
// the result — HammeringPattern::Materialize (occurrence iteration), the
// src/check naive per-slot expander, and the PatternHammerStream's
// emitted load+flush schedule — over `steps` accesses (periods wrap).
// `inject_after` != 0 perturbs the reference expectation after that many
// compared accesses, proving the cross-check actually fires.
struct PatternFuzzOutcome {
  uint64_t compared = 0;
  uint64_t build_failures = 0;       // Builder output failed Validate/expand.
  uint64_t schedule_mismatches = 0;  // Materialize vs reference expander.
  uint64_t stream_mismatches = 0;    // Stream emission vs reference.
  std::string report;  // Non-empty iff failed().

  bool failed() const {
    return build_failures != 0 || schedule_mismatches != 0 || stream_mismatches != 0;
  }
};
PatternFuzzOutcome RunPatternFuzz(const FuzzCase& fuzz_case);

// Shrinks a failing pattern case: binary-search the smallest failing
// compared-access count (emission is prefix-stable in steps). Pattern
// cases have no feature mask to strip.
FuzzCase ShrinkPatternFuzz(const FuzzCase& failing);

}  // namespace ht

#endif  // HAMMERTIME_SRC_CHECK_GENERATOR_H_
