// The perfbench harness: runs one named campaign workload against the
// simulator's public API, checks its outputs, and measures it end to end
// (timed run) or layer by layer (traced run). See perfbench/README.md.
//
// Vocabulary: a workload is a fixed list of scenario cells plus the
// campaign that executes them; a rep is one timed execution of that
// campaign. Everything a cell computes is deterministic given the seed, so
// reps of one process must repeat byte for byte.
#ifndef PERFBENCH_HARNESS_PERFBENCH_H_
#define PERFBENCH_HARNESS_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry/json.h"
#include "os/tenant.h"
#include "sim/runner/runner.h"

namespace pb {

// Every workload fans its cells out on this many workers: half of the
// 4-CPU host the benchmark was defined on, which other jobs share.
inline constexpr unsigned kThreads = 2;

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);
// User + system CPU seconds of the whole process, all threads included.
double ProcessCpuSeconds();
std::string Compact(const ht::JsonValue& value);

// One scenario cell. `run` executes it on the calling thread, firing the
// hooks where RunScenario fires them (on_start after set-up, on_finish
// after results are collected), and returns the cell's result as compact
// JSON: the bytes every correctness and identity check compares.
struct Cell {
  std::string key;
  ht::Cycle cycles = 0;
  ht::HwMitigationKind hw = ht::HwMitigationKind::kNone;
  ht::DefenseKind defense = ht::DefenseKind::kNone;
  std::function<std::string(const ht::ScenarioHooks*)> run;
};

// One execution of a workload's campaign.
struct Rep {
  double wall_s = 0.0;   // Campaign wall time.
  double cpu_s = 0.0;    // Process CPU time over the same span.
  double setup_s = 0.0;  // Set-up time, as the workload defines it.
  std::vector<std::string> results;  // Per cell, in cells() order.
  ht::JsonValue report;              // Campaign report (campaign workloads).
  uint64_t failed = 0;               // Cells failing the correctness check.
  std::vector<std::string> errors;
  // Layer numbers the campaign reports about itself (runner.*, sweep.*).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  const std::vector<Cell>& cells() const { return cells_; }

  // Untimed preparation before each rep (cache reset or pre-fill).
  virtual void PrepareRep() {}
  // The timed campaign: fills results, setup_s and layer; the caller
  // measures wall and CPU time around it.
  virtual Rep Run() = 0;
  // Correctness of one rep. `reference` is the process's first rep (null
  // for that rep itself); every later rep must repeat its results.
  virtual void Check(Rep& rep, const Rep* reference) const = 0;
  // Whether the rep still exercises the layer the workload was chosen
  // for. `detail` receives the figures the verdict rests on.
  virtual bool TrafficCheck(const Rep& rep, std::string* detail) const = 0;

  // Traced-run extras. Cells to attach a SystemOracle to, and the tenant
  // population shape to drive standalone (cloud workload only).
  virtual bool OracleChecked() const { return false; }
  // Whether the timed rep simulates cell i (false: loads it from the cell
  // cache). The traced run instruments exactly the simulated cells.
  virtual bool Simulated(size_t i) const {
    (void)i;
    return true;
  }
  virtual std::optional<ht::TenantConfig> Tenants() const { return std::nullopt; }

 protected:
  std::vector<Cell> cells_;
};

const std::vector<std::string>& WorkloadNames();
// Null for an unknown name. `workdir` holds the workload's cell caches.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& workdir);

// ---- Traced run (ledger.cc) --------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  bool applicable = true;
};
using Metrics = std::map<std::string, Metric>;

// Per-layer metric names and units, in ledger order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricSpecs();

// Runs the instrumented passes over the workload's cells and fills every
// layer metric. `untraced` is a rep run exactly as in the timed run, whose
// results every instrumented pass must reproduce byte for byte; mismatches
// and oracle divergences are added to `check` as failed cells.
void TraceLayers(const Workload& workload, const Rep& untraced, Metrics* metrics, Rep* check);

}  // namespace pb

#endif  // PERFBENCH_HARNESS_PERFBENCH_H_
