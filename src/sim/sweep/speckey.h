// Canonical ScenarioSpec serialization and stable cache-key derivation
// for the sweep engine.
//
// The canonical form is a flat JSON object covering exactly the knobs the
// sweep grid can vary (defense, hw mitigation, attack, thresholds, TRR
// entries, blast radius, DRAM profile, cycle budget, seed, tenant
// shape...). The cache key is the FNV-1a 64 hash of the compact dump of
// that object with its members sorted by name — so field order never
// matters, two grid points that canonicalize identically share one cell,
// and any change to a covered knob (or to a canonical enum name) changes
// the key. Knobs outside this projection (hand-edited SystemConfig
// fields) are NOT part of the key; sweeps that vary them must use
// separate cache directories (DESIGN.md §11 documents the rule).
#ifndef HAMMERTIME_SRC_SIM_SWEEP_SPECKEY_H_
#define HAMMERTIME_SRC_SIM_SWEEP_SPECKEY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/telemetry/json.h"
#include "sim/runner/runner.h"

namespace ht {

// FNV-1a 64-bit over `text` (the key hash primitive; exposed for tests).
uint64_t Fnv1a64(std::string_view text);

// Flattens the sweep-controllable projection of `spec` into a flat JSON
// object (scalar members only, insertion order = canonical order).
JsonValue SpecCanonicalJson(const ScenarioSpec& spec);

// Rebuilds a runnable ScenarioSpec from a canonical object: the DRAM
// profile is resolved by name (SimDefault / DensityGeneration / Tiny) and
// the serialized overrides (mac, blast radius, TRR, ...) are re-applied.
// Returns nullopt when a member is missing, mistyped, or names an unknown
// profile/kind.
std::optional<ScenarioSpec> SpecFromCanonicalJson(const JsonValue& json,
                                                  std::string* error = nullptr);

// Resolves a DRAM profile by its config name ("ddr4-2400-sim",
// "gen0-ddr3".."gen4-projected", "tiny-test").
std::optional<DramConfig> DramProfileByName(std::string_view name);

// 16-hex-digit stable key of a canonical spec object. Members are sorted
// by name before hashing, so any insertion order yields the same key.
std::string SweepKeyFromJson(const JsonValue& canonical_spec);

// Convenience: SweepKeyFromJson(SpecCanonicalJson(spec)).
std::string SweepKey(const ScenarioSpec& spec);

// 16-hex-digit FNV-1a 64 digest of a cell's result and stats objects
// (compact dumps). The key proves which spec a cached cell ran; this
// digest proves its contents were not edited since they were stored.
std::string CellDigest(const JsonValue& result, const JsonValue& stats);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SWEEP_SPECKEY_H_
