// The scenario runner library: the one place that knows how to turn a
// declarative ScenarioSpec (system + attack + defense combination) into a
// configured System, run it, and collect outcome metrics — serially, on
// the shared worker pool, or with telemetry attached. Consumed by the
// experiment benches, hammertime_cli, hammerfuzz, the sweep engine, and
// the tests; bench/bench_util.h only adds bench-main conveniences on top.
#ifndef HAMMERTIME_SRC_SIM_RUNNER_RUNNER_H_
#define HAMMERTIME_SRC_SIM_RUNNER_RUNNER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/json.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "os/tenant.h"
#include "sim/scenario.h"
#include "sim/system.h"

namespace ht {

struct ScenarioSpec {
  SystemConfig system;
  DefenseKind defense = DefenseKind::kNone;
  HwMitigationKind hw = HwMitigationKind::kNone;
  AttackKind attack = AttackKind::kDoubleSided;
  uint32_t sides = 16;             // For kManySided.
  uint64_t pattern_seed = 0;       // For kPattern: PatternBuilder seed.
  uint64_t act_threshold = 256;    // Interrupt threshold for SW defenses.
  std::optional<bool> randomize_reset;  // Override the preset's choice.
  Cycle run_cycles = 800000;
  uint32_t tenants = 2;
  uint64_t pages_per_tenant = 512;
  bool benign_corunner = false;    // Victim tenant runs a random workload.
  // --- Cloud host model (src/os/tenant.h) -----------------------------------
  // A non-empty traffic mix switches RunScenario into cloud mode:
  // `tenants` becomes the slot count of a TenantManager population whose
  // streams multiplex onto the non-attacker cores, the run is split into
  // `epochs` windows with flip harvesting and churn at each boundary, and
  // per-tenant escape accounting replaces end-of-run flip attribution.
  // Empty = the classic two-tenant path, byte-identical to before.
  std::string traffic_mix;
  double churn_rate = 0.0;     // Fraction of eligible slots recycled per epoch.
  uint32_t epochs = 8;         // Harvest/churn boundaries per run (cloud mode).
  uint32_t attacker_slot = 0;  // Slot hammering; pinned across churn.
  uint32_t victim_slot = 1;    // Pinned co-located victim slot.
  // Stochastic-variation knob for sweeps: a nonzero seed perturbs the
  // simulation's RNG streams (flip patterns, randomized counter resets,
  // vendor remap) deterministically; 0 leaves the stock seeds untouched,
  // so all pre-sweep results are unchanged.
  uint64_t seed = 0;
};

struct ScenarioResult {
  SecurityOutcome security;
  PerfSummary perf;
  uint64_t defense_interrupts = 0;
  uint64_t page_moves = 0;
  uint64_t throttle_stalls = 0;  // ACTs the mitigation gate held past their timing earliest.
  uint64_t mitigation_refreshes = 0;
  bool attack_planned = true;  // False if isolation denied the attacker a plan.
  // --- Cloud mode (zero on the classic path) --------------------------------
  uint64_t escaped_flips = 0;      // Flips crossing a tenant allocation boundary.
  uint64_t tenants_hit = 0;        // Distinct victim slots receiving escapes.
  uint64_t churn_events = 0;       // Tenant slots recycled over the run.
  double flips_escaped_per_tenant = 0.0;  // escaped_flips / tenant slots.
  uint64_t tenant_map_fingerprint = 0;    // End-of-run page-map hash (determinism).
};

// Smoke-test cap on per-scenario cycle budgets. When HT_BENCH_SMOKE is
// set, every scenario runs for at most this many cycles (the variable's
// value, or 20000 when it is set but not a number) — enough to exercise
// the full setup/run/assess path while keeping whole benches under a
// second for the `bench_smoke` CTest label.
Cycle BenchSmokeCap();

// --- Telemetry plumbing ------------------------------------------------------

// Process-wide telemetry options, set once (via ApplyRunnerFlags or
// directly) before any RunScenarios call. Empty paths = off.
struct RunnerTelemetryOptions {
  std::string trace_out;    // Chrome trace_event JSON for all scenarios.
  std::string metrics_out;  // hammertime.metrics.v1 run-report document.
  Cycle sample_every = 0;   // Sampler period; defaulted when metrics_out set.
};

RunnerTelemetryOptions& RunnerTelemetry();

// Default sampler period when `--metrics-out` is given without an
// explicit `--sample-every`: coarse enough to stay cheap on full-length
// scenarios, fine enough for ~50 points on the default 800k-cycle run.
inline constexpr Cycle kDefaultSampleEvery = 16384;

// Test hook: drop all accumulated buffers/reports (fresh TraceSink).
void ResetRunnerTelemetry();

// Per-scenario telemetry capture. RunScenarios fills the `in` fields (one
// TraceBuffer per scenario, created in spec order so the merged trace is
// deterministic under any worker count) and reads the `out` fields back
// on the calling thread.
struct ScenarioTelemetry {
  // in:
  std::string label;
  TraceBuffer* trace = nullptr;
  Cycle sample_every = 0;
  // out:
  JsonValue report;
  double wall_seconds = 0.0;
};

// Flattens the interesting ScenarioSpec knobs into a config object for
// the run report.
JsonValue ScenarioSpecToJson(const ScenarioSpec& spec);

JsonValue ScenarioResultToJson(const ScenarioResult& result);

// Optional observation points inside RunScenario, for callers that need
// access to the live System (e.g. tools/hammerfuzz attaching the
// differential oracle). `on_start` fires after full setup, immediately
// before RunFor; `on_finish` fires after all results are collected, while
// the System is still alive. Both are skipped when null.
struct ScenarioHooks {
  std::function<void(System&)> on_start;
  std::function<void(System&)> on_finish;
  // Cloud mode only: fires after the final harvest, while the tenant
  // population is still alive (isolation-invariant tests read the
  // classified flip samples here). Skipped on the classic path.
  std::function<void(const TenantManager&)> on_tenants;
};

// Builds the standard two-tenant (attacker + victim) scenario, runs it,
// and collects outcome metrics. Isolation-centric defenses are expressed
// through `spec.system` (scheme + alloc policy) by the caller.
//
// With `telemetry` set, the scenario runs with its trace buffer and
// sampler attached and fills telemetry->report with a
// hammertime.run_report.v1 document (plus per-scenario wall-clock).
ScenarioResult RunScenario(ScenarioSpec spec, ScenarioTelemetry* telemetry = nullptr,
                           const ScenarioHooks* hooks = nullptr);

// Rewrites the --trace-out / --metrics-out files from everything
// accumulated so far. Called after every RunScenarios batch.
void FlushRunnerTelemetry();

// Runs every spec on a worker pool and returns the results in spec order.
// Each scenario is a self-contained System (no shared mutable state), so
// results are bit-identical to a serial `for (spec : specs) RunScenario`
// loop regardless of the worker count or scheduling order.
//
// `threads` = 0 resolves via HT_THREADS, then hardware concurrency;
// callers typically pass the value ApplyRunnerFlags returned so
// `--threads N` wins.
std::vector<ScenarioResult> RunScenarios(const std::vector<ScenarioSpec>& specs,
                                         unsigned threads = 0);

// --- Shared flag plumbing ----------------------------------------------------

// Registers --threads alone: the campaign CLIs fan cells out themselves
// and write no per-scenario telemetry, so they take no telemetry flags.
void AddThreadsFlag(ArgParser& parser);

// The --threads value (0 = auto).
unsigned ThreadsFlag(const ArgParser& parser);

// Registers the runner's shared flags (--threads, --trace-out,
// --metrics-out, --sample-every, --profile) on `parser`, so every
// executable spells them identically.
void AddRunnerFlags(ArgParser& parser);

// Reads the shared flags back, installs the process-wide telemetry
// options (defaulting --sample-every when --metrics-out is set), and
// returns the requested worker count (0 = auto).
unsigned ApplyRunnerFlags(const ArgParser& parser);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_RUNNER_RUNNER_H_
