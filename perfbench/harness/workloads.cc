// The four campaign workloads. Each builds its cells from the seed alone,
// runs them through the simulator's public entry points, and checks the
// outputs. Why each workload exists is in perfbench/README.md.
#include <sys/resource.h>

#include <filesystem>
#include <utility>

#include "common/telemetry/profile.h"
#include "common/telemetry/report.h"
#include "common/thread_pool.h"
#include "os/address_space.h"
#include "perfbench.h"
#include "sim/scenario.h"
#include "sim/sweep/cloud.h"
#include "sim/sweep/sweep.h"
#include "sim/workloads.h"

namespace pb {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string Compact(const ht::JsonValue& value) { return value.ToString(-1); }

namespace {

// Runs `cells` on kThreads workers, timing each cell's set-up (entry to
// on_start) and total host time. Fills results, setup_s (summed over
// cells) and runner.pool_busy_frac.
Rep RunCellsTimed(const std::vector<Cell>& cells) {
  Rep rep;
  rep.results.resize(cells.size());
  std::vector<double> setup_s(cells.size()), total_s(cells.size());
  const Clock::time_point start = Clock::now();
  ht::ParallelFor(cells.size(), kThreads, [&](uint64_t i) {
    const Clock::time_point entry = Clock::now();
    Clock::time_point started = entry;
    ht::ScenarioHooks hooks;
    hooks.on_start = [&started](ht::System&) { started = Clock::now(); };
    rep.results[i] = cells[i].run(&hooks);
    setup_s[i] = std::chrono::duration<double>(started - entry).count();
    total_s[i] = SecondsSince(entry);
  });
  const double wall = SecondsSince(start);
  double busy = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    rep.setup_s += setup_s[i];
    busy += total_s[i];
  }
  rep.layer["runner.pool_busy_frac"] = busy / (wall * kThreads);
  return rep;
}

ht::JsonValue ParseResult(const std::string& text) {
  std::optional<ht::JsonValue> parsed = ht::JsonValue::Parse(text);
  return parsed.has_value() ? std::move(*parsed) : ht::JsonValue::Null();
}

uint64_t UintField(const ht::JsonValue& object, const char* name) {
  const ht::JsonValue* member = object.Find(name);
  return member != nullptr && member->is_number() ? member->as_uint() : 0;
}

bool BoolField(const ht::JsonValue& object, const char* name) {
  const ht::JsonValue* member = object.Find(name);
  return member != nullptr && member->as_bool();
}

void Fail(Rep& rep, const std::string& why) {
  ++rep.failed;
  if (rep.errors.size() < 20) {
    rep.errors.push_back(why);
  }
}

// Cells whose result differs from the process's first rep: the simulator
// is deterministic, so any difference is a defect.
void CheckRepeats(Rep& rep, const Rep* reference, const std::vector<Cell>& cells) {
  if (reference == nullptr) {
    return;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (rep.results[i] != reference->results[i]) {
      Fail(rep, cells[i].key + ": result differs from the first rep");
    }
  }
}

std::string RunSpec(const ht::ScenarioSpec& spec, const ht::ScenarioHooks* hooks) {
  return Compact(ht::ScenarioResultToJson(ht::RunScenario(spec, nullptr, hooks)));
}

// ---- taxonomy: the E1 matrix ---------------------------------------------------

struct TaxonomyRow {
  const char* label;
  ht::DefenseKind defense;
  ht::HwMitigationKind hw;
  bool subarray_isolated;
  bool guard_rows;
  bool trr;
  // Stock-seed cross-domain flips and attack_planned per attack column:
  // the E1 golden matrix (EXPERIMENTS.md, tests/test_golden_e1.cc).
  uint64_t golden_flips[5];
  bool golden_planned[5];
};

using ht::DefenseKind;
using ht::HwMitigationKind;

const TaxonomyRow kTaxonomyRows[] = {
    {"none", DefenseKind::kNone, HwMitigationKind::kNone, false, false, false,
     {12, 31, 3, 8, 25}, {true, true, true, true, true}},
    {"trr-only", DefenseKind::kNone, HwMitigationKind::kNone, false, false, true,
     {0, 31, 0, 0, 0}, {true, true, true, true, true}},
    {"subarray-isolation", DefenseKind::kNone, HwMitigationKind::kNone, true, false, false,
     {0, 0, 0, 0, 0}, {false, true, false, false, false}},
    {"guard-rows", DefenseKind::kNone, HwMitigationKind::kNone, false, true, false,
     {0, 0, 0, 0, 0}, {false, true, false, false, false}},
    {"act-remap", DefenseKind::kActRemap, HwMitigationKind::kNone, false, false, false,
     {0, 1, 3, 0, 0}, {true, true, true, true, true}},
    {"cache-lock", DefenseKind::kCacheLock, HwMitigationKind::kNone, false, false, false,
     {0, 0, 3, 0, 0}, {true, true, true, true, true}},
    {"blockhammer", DefenseKind::kNone, HwMitigationKind::kBlockHammer, false, false, false,
     {0, 0, 0, 0, 0}, {true, true, true, true, true}},
    {"sw-refresh", DefenseKind::kSwRefresh, HwMitigationKind::kNone, false, false, false,
     {0, 0, 0, 0, 0}, {true, true, true, true, true}},
    {"sw-refresh-refn", DefenseKind::kSwRefreshRefn, HwMitigationKind::kNone, false, false,
     false, {0, 0, 0, 0, 0}, {true, true, true, true, true}},
    {"para", DefenseKind::kNone, HwMitigationKind::kPara, false, false, false,
     {0, 0, 0, 0, 0}, {true, true, true, true, true}},
    {"graphene", DefenseKind::kNone, HwMitigationKind::kGraphene, false, false, false,
     {0, 0, 0, 0, 0}, {true, true, true, true, true}},
    {"anvil", DefenseKind::kAnvil, HwMitigationKind::kNone, false, false, false,
     {0, 0, 3, 0, 0}, {true, true, true, true, true}},
};

const ht::AttackKind kTaxonomyAttacks[] = {ht::AttackKind::kDoubleSided,
                                           ht::AttackKind::kManySided, ht::AttackKind::kDma,
                                           ht::AttackKind::kAdaptive,
                                           ht::AttackKind::kHalfDouble};

// bench_e1_taxonomy's spec for one matrix cell.
ht::ScenarioSpec TaxonomySpec(const TaxonomyRow& row, ht::AttackKind attack, uint64_t seed) {
  ht::ScenarioSpec spec;
  spec.defense = row.defense;
  spec.hw = row.hw;
  spec.attack = attack;
  spec.sides = 16;
  spec.seed = seed;
  spec.run_cycles = attack == ht::AttackKind::kManySided ||
                            attack == ht::AttackKind::kHalfDouble
                        ? 3000000
                        : 1200000;
  if (row.subarray_isolated) {
    spec.system.mc.scheme = ht::InterleaveScheme::kSubarrayIsolated;
    spec.system.alloc = ht::AllocPolicy::kSubarrayAware;
    spec.system.mc.enforce_domain_groups = true;
  }
  if (row.guard_rows) {
    spec.system.alloc = ht::AllocPolicy::kGuardRows;
    spec.system.guard_domains = 2;
    spec.system.guard_blast = spec.system.dram.disturbance.blast_radius;
  }
  if (row.trr) {
    spec.system.dram.trr.enabled = true;
    spec.system.dram.trr.table_entries = 4;
  }
  return spec;
}

class Taxonomy final : public Workload {
 public:
  explicit Taxonomy(uint64_t seed) : seed_(seed) {
    for (const TaxonomyRow& row : kTaxonomyRows) {
      for (const ht::AttackKind attack : kTaxonomyAttacks) {
        const ht::ScenarioSpec spec = TaxonomySpec(row, attack, seed);
        cells_.push_back(Cell{std::string(row.label) + "/" + ht::ToString(attack),
                              spec.run_cycles, spec.hw, spec.defense,
                              [spec](const ht::ScenarioHooks* hooks) {
                                return RunSpec(spec, hooks);
                              }});
      }
    }
  }

  const char* name() const override { return "taxonomy"; }
  bool OracleChecked() const override { return true; }
  Rep Run() override { return RunCellsTimed(cells_); }

  void Check(Rep& rep, const Rep* reference) const override {
    size_t i = 0;
    for (const TaxonomyRow& row : kTaxonomyRows) {
      for (size_t a = 0; a < 5; ++a, ++i) {
        const ht::JsonValue result = ParseResult(rep.results[i]);
        const uint64_t flips = UintField(result, "cross_domain_flips");
        const bool planned = BoolField(result, "attack_planned");
        const bool isolated = row.subarray_isolated || row.guard_rows;
        if (seed_ == 0 && (flips != row.golden_flips[a] || planned != row.golden_planned[a])) {
          Fail(rep, cells_[i].key + ": " + std::to_string(flips) + " cross-domain flips, planned=" +
                        (planned ? "yes" : "no") + "; the E1 golden matrix says " +
                        std::to_string(row.golden_flips[a]) + ", " +
                        (row.golden_planned[a] ? "yes" : "no"));
        } else if (isolated && !row.golden_planned[a] && (planned || flips != 0)) {
          // Isolation denies adjacency by construction at every seed.
          Fail(rep, cells_[i].key + ": isolation granted the attacker adjacency");
        }
      }
    }
    CheckRepeats(rep, reference, cells_);
  }

  bool TrafficCheck(const Rep& rep, std::string* detail) const override {
    uint64_t stalls = 0;
    for (size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].hw == HwMitigationKind::kBlockHammer) {
        stalls += UintField(ParseResult(rep.results[i]), "throttle_stalls");
      }
    }
    *detail = "mc.throttle_stalls on the blockhammer row = " + std::to_string(stalls);
    return stalls > 0;
  }

 private:
  uint64_t seed_;
};

// ---- benign_overhead: E7's benign half -------------------------------------------

struct BenignCase {
  const char* label;
  DefenseKind defense;
  HwMitigationKind hw;
  bool trr;
  bool subarray;
};

const BenignCase kBenignCases[] = {
    {"none", DefenseKind::kNone, HwMitigationKind::kNone, false, false},
    {"trr", DefenseKind::kNone, HwMitigationKind::kNone, true, false},
    {"para", DefenseKind::kNone, HwMitigationKind::kPara, false, false},
    {"graphene", DefenseKind::kNone, HwMitigationKind::kGraphene, false, false},
    {"blockhammer", DefenseKind::kNone, HwMitigationKind::kBlockHammer, false, false},
    {"sw-refresh", DefenseKind::kSwRefresh, HwMitigationKind::kNone, false, false},
    {"act-remap", DefenseKind::kActRemap, HwMitigationKind::kNone, false, false},
    {"cache-lock", DefenseKind::kCacheLock, HwMitigationKind::kNone, false, false},
    {"anvil", DefenseKind::kAnvil, HwMitigationKind::kNone, false, false},
    {"subarray-isolation", DefenseKind::kNone, HwMitigationKind::kNone, false, true},
};

const char* const kBenignMixes[] = {"stream", "random", "hotspot", "chase"};

constexpr ht::Cycle kBenignCycles = 500000;
constexpr uint32_t kBenignTenants = 4;
constexpr uint64_t kBenignPages = 256;

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// bench_e7_overhead's RunBenign: four tenants on four cores, one traffic
// mix, no attacker. Seed 0 reproduces E7; other seeds perturb the
// workload streams and the simulator's RNGs the way RunScenario does.
std::string RunBenign(const BenignCase& c, const std::string& mix, uint64_t seed,
                      const ht::ScenarioHooks* hooks) {
  ht::SystemConfig config;
  config.cores = kBenignTenants;
  ht::ApplyDefensePreset(config, c.defense, 512);
  if (c.trr) {
    config.dram.trr.enabled = true;
  }
  if (c.subarray) {
    config.mc.scheme = ht::InterleaveScheme::kSubarrayIsolated;
    config.alloc = ht::AllocPolicy::kSubarrayAware;
  }
  if (seed != 0) {
    const uint64_t mixed = seed * 0x9E3779B97F4A7C15ull;
    config.dram.flip_seed ^= mixed;
    config.dram.remap.seed ^= mixed * 3;
    config.mc.act_counter.rng_seed ^= mixed * 5;
  }
  ht::System system(config);
  const std::vector<ht::DomainId> tenants =
      ht::SetupTenants(system, kBenignTenants, kBenignPages);
  system.InstallDefense(ht::MakeDefense(c.defense, config.dram));
  ht::InstallHwMitigation(system, c.hw);
  for (uint32_t i = 0; i < kBenignTenants; ++i) {
    const uint64_t stream_seed = seed == 0 ? 131 + i : Mix64(seed * 8 + i);
    system.AssignCore(i, tenants[i],
                      ht::MakeWorkload(mix, tenants[i], ht::AddressSpace::BaseFor(tenants[i]),
                                       kBenignPages * ht::kPageBytes, ~0ull >> 1, stream_seed));
  }
  if (hooks != nullptr && hooks->on_start) {
    hooks->on_start(system);
  }
  system.RunFor(kBenignCycles);
  const ht::PerfSummary perf = ht::Summarize(system, kBenignCycles);

  uint64_t illegal = 0;
  for (uint32_t ch = 0; ch < system.mc().channels(); ++ch) {
    illegal += system.mc().device(ch).stats().Get("dram.illegal_commands");
  }
  uint64_t backpressure = 0;
  uint64_t window_stalls = 0;
  for (uint32_t i = 0; i < system.core_count(); ++i) {
    backpressure += system.core(i).stats().Get("core.mc_backpressure");
    window_stalls += system.core(i).stats().Get("core.window_stalls");
  }
  uint64_t interrupts = 0;
  if (system.defense() != nullptr) {
    interrupts = system.defense()->stats().Get("defense.interrupts") +
                 system.defense()->stats().Get("defense.detections");
  }
  ht::JsonValue out = ht::JsonValue::Object();
  out.Set("ops", ht::JsonValue::Uint(perf.ops));
  out.Set("ops_per_kcycle", ht::JsonValue::Double(perf.ops_per_kcycle));
  out.Set("row_hit_rate", ht::JsonValue::Double(perf.row_hit_rate));
  out.Set("avg_read_latency", ht::JsonValue::Double(perf.avg_read_latency));
  out.Set("extra_acts", ht::JsonValue::Uint(perf.extra_acts));
  out.Set("flip_events", ht::JsonValue::Uint(system.TotalFlips()));
  out.Set("illegal_commands", ht::JsonValue::Uint(illegal));
  out.Set("mc_backpressure", ht::JsonValue::Uint(backpressure));
  out.Set("window_stalls", ht::JsonValue::Uint(window_stalls));
  out.Set("defense_interrupts", ht::JsonValue::Uint(interrupts));
  out.Set("throttle_stalls",
          ht::JsonValue::Uint(system.mc().stats().Get("mc.throttle_stalls")));
  if (hooks != nullptr && hooks->on_finish) {
    hooks->on_finish(system);
  }
  return Compact(out);
}

class BenignOverhead final : public Workload {
 public:
  explicit BenignOverhead(uint64_t seed) {
    for (const BenignCase& c : kBenignCases) {
      for (const char* mix : kBenignMixes) {
        cells_.push_back(Cell{std::string(c.label) + "/" + mix, kBenignCycles, c.hw, c.defense,
                              [&c, mix, seed](const ht::ScenarioHooks* hooks) {
                                return RunBenign(c, mix, seed, hooks);
                              }});
      }
    }
  }

  const char* name() const override { return "benign_overhead"; }
  Rep Run() override { return RunCellsTimed(cells_); }

  void Check(Rep& rep, const Rep* reference) const override {
    for (size_t i = 0; i < cells_.size(); ++i) {
      const ht::JsonValue result = ParseResult(rep.results[i]);
      if (UintField(result, "flip_events") != 0 || UintField(result, "illegal_commands") != 0 ||
          UintField(result, "ops") == 0) {
        Fail(rep, cells_[i].key + ": benign run flipped bits, issued an illegal command, or "
                                  "completed nothing: " + rep.results[i]);
      }
    }
    CheckRepeats(rep, reference, cells_);
  }

  // The MC must be the bottleneck and the defenses idle. In E7's shape
  // (4 cores x an 8-miss window = 32 outstanding, below the 64-entry
  // queue) the queue never rejects, so core.mc_backpressure stays 0 and
  // MC-boundness shows as cores stalled on a full miss window instead.
  bool TrafficCheck(const Rep& rep, std::string* detail) const override {
    uint64_t backpressure = 0;
    uint64_t stalls = 0;
    uint64_t interrupts = 0;
    uint64_t ops = 0;
    for (const std::string& text : rep.results) {
      const ht::JsonValue result = ParseResult(text);
      backpressure += UintField(result, "mc_backpressure");
      stalls += UintField(result, "window_stalls");
      interrupts += UintField(result, "defense_interrupts");
      ops += UintField(result, "ops");
    }
    const double stall_frac = static_cast<double>(stalls) /
                              static_cast<double>(cells_.size() * kBenignTenants * kBenignCycles);
    const double interrupts_per_kop =
        ops == 0 ? 0.0 : 1000.0 * static_cast<double>(interrupts) / static_cast<double>(ops);
    *detail = "core.mc_backpressure = " + std::to_string(backpressure) +
              ", core window-stall share = " + std::to_string(stall_frac) +
              ", defense.interrupts = " + std::to_string(interrupts) + " (" +
              std::to_string(interrupts_per_kop) + " per 1000 ops)";
    return stall_frac >= kMinStallShare && interrupts_per_kop < kMaxInterruptsPerKop;
  }

 private:
  static constexpr double kMinStallShare = 0.5;
  static constexpr double kMaxInterruptsPerKop = 1.0;
};

// ---- campaign workloads: RunCloudCampaign and RunSweep -----------------------------

double PhaseSeconds(const ht::JsonValue& profile, const char* name) {
  const ht::JsonValue* phases = profile.Find("phases");
  const ht::JsonValue* phase = phases != nullptr ? phases->Find(name) : nullptr;
  const ht::JsonValue* seconds = phase != nullptr ? phase->Find("seconds") : nullptr;
  return seconds != nullptr ? seconds->as_double() : 0.0;
}

// Runs one campaign call with the profiler on (its runner.* phases are the
// only view of per-cell set-up inside the campaign executor) and derives
// the rep's set-up time and the campaign's own layer numbers.
//
// setup_s = grid expansion (the call's wall time outside RunCells) + cache
// probe/load + per-cell time outside the run and report phases, i.e. cell
// set-up plus System tear-down, summed over cells.
template <typename Call>
Rep RunCampaign(const std::vector<Cell>& cells, Call call) {
  ht::Profiler& profiler = ht::Profiler::Global();
  profiler.Enable();
  const Clock::time_point start = Clock::now();
  ht::SweepOutcome outcome = call();
  const double call_s = SecondsSince(start);
  const ht::JsonValue profile = profiler.ToJson();
  profiler.Enable(false);

  Rep rep;
  const double scenario_s = PhaseSeconds(profile, "runner.scenario");
  const double cell_setup_s = scenario_s - PhaseSeconds(profile, "runner.run") -
                              PhaseSeconds(profile, "runner.report");
  const double expand_s = call_s - outcome.wall_seconds;
  rep.setup_s = expand_s + outcome.cache_seconds + cell_setup_s;
  rep.layer["sweep.expand_ms"] = expand_s * 1e3;
  rep.layer["sweep.cache_load_s"] = outcome.cache_seconds;
  rep.layer["sweep.execute_s"] = outcome.execute_seconds;
  rep.layer["sweep.report_s"] = outcome.report_seconds;
  rep.layer["sweep.cache_hit_ratio"] =
      outcome.shard_cells == 0 ? 0.0
                               : static_cast<double>(outcome.cached_cells) /
                                     static_cast<double>(outcome.shard_cells);
  if (outcome.cached_cells > 0) {
    rep.layer["sweep.us_per_cached_cell"] =
        outcome.cache_seconds * 1e6 / static_cast<double>(outcome.cached_cells);
  }
  if (outcome.execute_seconds > 0) {
    rep.layer["runner.pool_busy_frac"] = scenario_s / (outcome.execute_seconds * kThreads);
  }

  rep.results.assign(cells.size(), "");
  if (!outcome.ok) {
    rep.errors.push_back("campaign failed: " + outcome.error);
    return rep;
  }
  std::map<std::string, std::string> by_key;
  if (const ht::JsonValue* array = outcome.report.Find("cells"); array != nullptr) {
    for (const ht::JsonValue& cell : array->items()) {
      const ht::JsonValue* key = cell.Find("key");
      const ht::JsonValue* result = cell.Find("result");
      if (key != nullptr && result != nullptr) {
        by_key[key->as_string()] = Compact(*result);
      }
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (auto it = by_key.find(cells[i].key); it != by_key.end()) {
      rep.results[i] = it->second;
    }
  }
  rep.report = std::move(outcome.report);
  return rep;
}

void CheckCampaign(Rep& rep, const Rep* reference, const std::vector<Cell>& cells,
                   bool (*validate)(const ht::JsonValue&, std::string*)) {
  if (!rep.errors.empty()) {
    rep.failed = cells.size();
    return;
  }
  std::string why;
  if (!validate(rep.report, &why)) {
    rep.failed = cells.size();
    rep.errors.push_back("report fails validation: " + why);
    return;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (rep.results[i].empty()) {
      Fail(rep, cells[i].key + ": missing from the report");
    }
  }
  CheckRepeats(rep, reference, cells);
}

std::vector<Cell> CampaignCells(const std::vector<ht::SweepCellSpec>& specs) {
  std::vector<Cell> cells;
  for (const ht::SweepCellSpec& cell : specs) {
    const ht::ScenarioSpec spec = cell.spec;
    cells.push_back(Cell{cell.key, spec.run_cycles, spec.hw, spec.defense,
                         [spec](const ht::ScenarioHooks* hooks) { return RunSpec(spec, hooks); }});
  }
  return cells;
}

// ---- cloud_campaign: the hammercloud grid ------------------------------------------

// The CLI's budget is 2M cycles; 400k keeps a rep near one second, so a
// run holds many reps, while population, churn and epochs stay the CLI's.
constexpr ht::Cycle kCloudCycles = 400000;

class CloudCampaign final : public Workload {
 public:
  CloudCampaign(uint64_t seed, std::string cache_dir) : cache_dir_(std::move(cache_dir)) {
    // hammercloud's stock grid (seed 1) and its successor: 4 families x
    // {double-sided, pattern} x 2 seeds.
    grid_.attacks = {ht::AttackKind::kDoubleSided, ht::AttackKind::kPattern};
    grid_.seeds = {1 + 2 * seed, 2 + 2 * seed};
    grid_.tenants = 1024;
    grid_.churn_rate = 0.02;
    grid_.epochs = 8;
    grid_.run_cycles = kCloudCycles;
    cells_ = CampaignCells(ht::ExpandCloudGrid(grid_));
  }

  const char* name() const override { return "cloud_campaign"; }

  // Writes only: every rep starts from an empty cell cache.
  void PrepareRep() override { std::filesystem::remove_all(cache_dir_); }

  Rep Run() override {
    ht::SweepOptions options;
    options.threads = kThreads;
    options.cache_dir = cache_dir_;
    return RunCampaign(cells_, [&] { return ht::RunCloudCampaign(grid_, options); });
  }

  void Check(Rep& rep, const Rep* reference) const override {
    CheckCampaign(rep, reference, cells_, ht::ValidateCloudReport);
  }

  bool TrafficCheck(const Rep& rep, std::string* detail) const override {
    uint64_t churn = 0;
    for (const std::string& text : rep.results) {
      churn += UintField(ParseResult(text), "churn_events");
    }
    *detail = "tenant.churn_events = " + std::to_string(churn);
    return churn > 0;
  }

  std::optional<ht::TenantConfig> Tenants() const override {
    ht::TenantConfig config;
    config.slots = grid_.tenants;
    config.pages_per_slot = grid_.pages_per_tenant;
    config.mix = grid_.mix;
    config.churn_rate = grid_.churn_rate;
    config.seed = grid_.seeds.front();
    return config;
  }

 private:
  ht::CloudCampaignGrid grid_;
  std::string cache_dir_;
};

// ---- sweep_resume: a resumed RunSweep of many short cells ------------------------------

class SweepResume final : public Workload {
 public:
  SweepResume(uint64_t seed, const std::string& workdir)
      : prefill_dir_(workdir + "/prefill"), cache_dir_(workdir + "/cache") {
    grid_.defenses = ht::AllDefenseKinds();
    grid_.hw = ht::AllHwMitigationKinds();
    grid_.attacks = {ht::AttackKind::kDoubleSided, ht::AttackKind::kManySided,
                     ht::AttackKind::kDma, ht::AttackKind::kAdaptive};
    grid_.act_thresholds = {128, 256, 512};
    grid_.cycle_budgets = {20000};
    grid_.seeds = {2 * seed, 2 * seed + 1};
    cells_ = CampaignCells(ht::ExpandGrid(grid_));

    // Harness preparation, never timed: shard 1/2 of the key-sorted grid
    // is every other cell, and it is what each rep resumes against.
    std::filesystem::remove_all(prefill_dir_);
    ht::SweepOptions options;
    options.threads = kThreads;
    options.cache_dir = prefill_dir_;
    options.shard_index = 1;
    options.shard_count = 2;
    const ht::SweepOutcome outcome = ht::RunSweep(grid_, options);
    prefill_ok_ = outcome.ok && outcome.executed_cells == (cells_.size() + 1) / 2;
    prefill_error_ = outcome.error;
  }

  const char* name() const override { return "sweep_resume"; }
  bool Simulated(size_t i) const override { return i % 2 == 1; }

  void PrepareRep() override {
    std::filesystem::remove_all(cache_dir_);
    std::filesystem::copy(prefill_dir_, cache_dir_, std::filesystem::copy_options::recursive);
  }

  Rep Run() override {
    ht::SweepOptions options;
    options.threads = kThreads;
    options.cache_dir = cache_dir_;
    options.resume = true;
    return RunCampaign(cells_, [&] { return ht::RunSweep(grid_, options); });
  }

  void Check(Rep& rep, const Rep* reference) const override {
    if (!prefill_ok_) {
      rep.errors.push_back("cache pre-fill failed: " + prefill_error_);
    }
    CheckCampaign(rep, reference, cells_, ht::ValidateSweepReport);
    if (rep.failed != 0) {
      return;
    }
    // Re-execute a sample of the resumed (pre-filled, even-index) cells;
    // determinism makes the comparison with the cached copy exact.
    std::vector<size_t> sample;
    for (size_t k = 0; k < kVerifySample; ++k) {
      sample.push_back((k * cells_.size() / kVerifySample) & ~size_t{1});
    }
    std::vector<std::string> fresh(sample.size());
    ht::ParallelFor(sample.size(), kThreads,
                    [&](uint64_t k) { fresh[k] = cells_[sample[k]].run(nullptr); });
    for (size_t k = 0; k < sample.size(); ++k) {
      if (fresh[k] != rep.results[sample[k]]) {
        Fail(rep, cells_[sample[k]].key + ": cached result differs from re-execution");
      }
    }
  }

  bool TrafficCheck(const Rep& rep, std::string* detail) const override {
    const auto it = rep.layer.find("sweep.cache_hit_ratio");
    const double ratio = it == rep.layer.end() ? 0.0 : it->second;
    *detail = "sweep.cache_hit_ratio = " + std::to_string(ratio);
    return ratio == 0.5;
  }

 private:
  static constexpr size_t kVerifySample = 6;

  ht::SweepGrid grid_;
  std::string prefill_dir_;
  std::string cache_dir_;
  bool prefill_ok_ = false;
  std::string prefill_error_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"taxonomy", "benign_overhead",
                                                 "cloud_campaign", "sweep_resume"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& workdir) {
  if (name == "taxonomy") {
    return std::make_unique<Taxonomy>(seed);
  }
  if (name == "benign_overhead") {
    return std::make_unique<BenignOverhead>(seed);
  }
  if (name == "cloud_campaign") {
    return std::make_unique<CloudCampaign>(seed, workdir + "/cloud_cache");
  }
  if (name == "sweep_resume") {
    return std::make_unique<SweepResume>(seed, workdir);
  }
  return nullptr;
}

}  // namespace pb
